"""Finite state space for the feedback controller.

Channel power is binned into equiprobable cells of its stationary Gamma law,
alignment into equal-length cells of [0, 1].  Transition kernels between the
cells are estimated by Monte Carlo from the slot-to-slot channel recursion:
a power kernel, an alignment kernel for slots without feedback, and a single
shared alignment row for slots with feedback (exact or codebook-quantized).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import FadingParams, _as_rng, _complex_normal

__all__ = [
    "GridSpec",
    "TransitionModel",
    "StationaryDistribution",
    "EstimationError",
    "build_g_grid",
    "build_z_grid",
    "make_grid",
    "quantize_state",
    "estimate_transition_model",
    "is_monotone_stochastic",
    "max_quantization_error",
    "model_to_json",
    "model_from_json",
]

_CHUNK = 1 << 18


class EstimationError(RuntimeError):
    """A transition row could not be filled within the retry budget."""


@dataclass(frozen=True)
class GridSpec:
    """Bin edges and in-bin representative points for power and alignment."""

    M: int
    N: int
    g_edges: np.ndarray
    g_points: np.ndarray
    z_edges: np.ndarray
    z_points: np.ndarray

    def __post_init__(self):
        M, N = int(self.M), int(self.N)
        if M < 1 or N < 1:
            raise ValueError("grid sizes must be positive")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        ge = np.asarray(self.g_edges, dtype=float)
        gp = np.asarray(self.g_points, dtype=float)
        ze = np.asarray(self.z_edges, dtype=float)
        zp = np.asarray(self.z_points, dtype=float)
        if ge.shape != (M + 1,) or gp.shape != (M,):
            raise ValueError("power grid arrays have inconsistent sizes")
        if ze.shape != (N + 1,) or zp.shape != (N,):
            raise ValueError("alignment grid arrays have inconsistent sizes")
        if ge[0] != 0.0 or not np.isinf(ge[-1]) or np.any(np.diff(ge) <= 0):
            raise ValueError("power edges must increase from 0 to inf")
        if ze[0] != 0.0 or ze[-1] != 1.0 or np.any(np.diff(ze) <= 0):
            raise ValueError("alignment edges must increase from 0 to 1")
        if np.any(gp < ge[:-1]) or np.any(gp[:-1] >= ge[1:-1]) or not np.all(np.isfinite(gp)):
            raise ValueError("power points must be finite and lie in their bins")
        if np.any(zp < ze[:-1]) or np.any(zp >= ze[1:]):
            raise ValueError("alignment points must lie in their bins")
        for name, arr in (("g_edges", ge), ("g_points", gp), ("z_edges", ze), ("z_points", zp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class TransitionModel:
    """Bin-level Markov kernels estimated from the channel recursion."""

    Ptilde: np.ndarray
    P0: np.ndarray
    P1_row: np.ndarray
    Peps1_row: np.ndarray | None
    sample_count: int
    seed: int | None = None

    def __post_init__(self):
        Pt = np.asarray(self.Ptilde, dtype=float)
        P0 = np.asarray(self.P0, dtype=float)
        p1 = np.asarray(self.P1_row, dtype=float)
        if Pt.ndim != 2 or Pt.shape[0] != Pt.shape[1]:
            raise ValueError("power kernel must be square")
        if P0.ndim != 2 or P0.shape[0] != P0.shape[1]:
            raise ValueError("alignment kernel must be square")
        if p1.shape != (P0.shape[0],):
            raise ValueError("feedback row size must match the alignment kernel")
        rows = [Pt, P0, p1[None, :]]
        pe = self.Peps1_row
        if pe is not None:
            pe = np.asarray(pe, dtype=float)
            if pe.shape != p1.shape:
                raise ValueError("quantized feedback row size must match the alignment kernel")
            rows.append(pe[None, :])
        for arr in rows:
            if np.any(arr < 0) or np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("kernel rows must be distributions")
        if int(self.sample_count) < 1:
            raise ValueError("sample_count must be positive")
        object.__setattr__(self, "Ptilde", Pt)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1_row", p1)
        object.__setattr__(self, "Peps1_row", pe)
        object.__setattr__(self, "sample_count", int(self.sample_count))


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run occupancy of the (power bin, alignment bin) states."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 2:
            raise ValueError("occupancy must be a 2-D array over (power, alignment) bins")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("occupancy must be a distribution")
        object.__setattr__(self, "pi", pi)


def build_g_grid(L: int, M: int, sample_count: int, rng):
    """Equiprobable power bins under the stationary Gamma(L, 1) law.

    Edges come from the Gamma quantile function, so each bin carries mass
    exactly 1/M; representative points are Monte Carlo conditional means.

    Returns:
        (g_edges, g_points): arrays of length M+1 (last edge inf) and M.
    """
    if int(L) < 1 or int(M) < 1:
        raise ValueError("L and M must be positive")
    if int(sample_count) < 1:
        raise ValueError("sample_count must be positive")
    edges = special.gammaincinv(L, np.arange(M + 1) / M)
    rng = _as_rng(rng)
    g = rng.gamma(float(L), 1.0, size=int(sample_count))
    bins = np.clip(np.searchsorted(edges, g, side="right") - 1, 0, M - 1)
    totals = np.bincount(bins, weights=g, minlength=M)
    counts = np.bincount(bins, minlength=M)
    points = np.empty(M)
    for m in range(M):
        if counts[m] > 0:
            points[m] = totals[m] / counts[m]
        else:
            # fall back to a finite in-bin value when no sample landed here
            points[m] = 0.5 * (edges[m] + edges[m + 1]) if m < M - 1 else edges[m] + 1.0
            warnings.warn(f"power bin {m} received no samples; using a fallback point")
    return edges, points


def build_z_grid(N: int):
    """Equal-length alignment bins on [0, 1] with midpoint representatives."""
    if int(N) < 1:
        raise ValueError("N must be positive")
    edges = np.arange(N + 1) / N
    points = (np.arange(N) + 0.5) / N
    return edges, points


def make_grid(L: int, M: int, N: int, sample_count: int, rng) -> GridSpec:
    """Convenience constructor combining the power and alignment grids."""
    g_edges, g_points = build_g_grid(L, M, sample_count, rng)
    z_edges, z_points = build_z_grid(N)
    return GridSpec(M=M, N=N, g_edges=g_edges, g_points=g_points,
                    z_edges=z_edges, z_points=z_points)


def _bin_g(g: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.clip(np.searchsorted(spec.g_edges, g, side="right") - 1, 0, spec.M - 1)


def _bin_z(z: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.clip(np.searchsorted(spec.z_edges, z, side="right") - 1, 0, spec.N - 1)


def quantize_state(g: float, z: float, spec: GridSpec):
    """Map a (power, alignment) pair to its bin indices.

    Bins are half-open [lo, hi); power at or above the last finite edge and
    alignment exactly 1 land in the top bins.
    """
    g = float(g)
    z = float(z)
    if not math.isfinite(g) or g < 0.0:
        raise ValueError(f"power {g} outside [0, inf)")
    if not math.isfinite(z) or z < -1e-12 or z > 1.0 + 1e-12:
        raise ValueError(f"alignment {z} outside [0, 1]")
    z = min(1.0, max(0.0, z))
    m = int(_bin_g(np.asarray(g), spec))
    n = int(_bin_z(np.asarray(z), spec))
    return m, n


def _normalize_rows(counts: np.ndarray, label: str) -> np.ndarray:
    out = np.empty(counts.shape, dtype=float)
    for r in range(counts.shape[0]):
        total = counts[r].sum()
        if total > 0:
            out[r] = counts[r] / total
        else:
            out[r] = 1.0 / counts.shape[1]
            warnings.warn(f"{label} row {r} received no samples; using a uniform row")
    return out


def estimate_transition_model(params: FadingParams, spec: GridSpec, sample_count: int,
                              rng, codebook=None, retry_budget: int = 100_000) -> TransitionModel:
    """Estimate the bin-level kernels by simulating one-slot transitions.

    The power kernel is counted from a single pass of stationary draws.  The
    no-feedback alignment kernel conditions each source row on its bin by
    rejection (the beamformer is pinned to the first basis vector, which the
    rotation-invariant channel law permits), with ``retry_budget`` draws
    allowed per needed sample before a row is declared starved.  The feedback
    row conditions on perfect alignment; when ``codebook`` is given, a second
    row conditions on the codebook-quantized beamformer instead.  With one
    antenna the alignment is identically 1, and every alignment row is the
    exact point mass on the top bin, drawn from no samples.

    Args:
        params: fading model (antenna count and slot correlation).
        spec: bin layout; its sizes fix the kernel dimensions.
        sample_count: Monte Carlo budget per kernel.
        rng: seed or numpy Generator; an integer seed is recorded for
            serialization.
        codebook: optional codebook (object with unit-norm ``vectors`` rows).
        retry_budget: rejection draws allowed per needed alignment sample.

    Returns:
        TransitionModel with rows normalized to distributions.
    """
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    if int(sample_count) < 1:
        raise ValueError("sample_count must be positive")
    sample_count = int(sample_count)
    rng = _as_rng(rng)
    g_stream, z_stream, f_stream, q_stream = rng.spawn(4)
    L, rho = params.L, params.rho
    sig = math.sqrt(max(0.0, 1.0 - rho * rho))
    M, N = spec.M, spec.N
    vectors = None
    if codebook is not None:
        vectors = np.asarray(getattr(codebook, "vectors", codebook), dtype=complex)
        if vectors.ndim != 2 or vectors.shape[1] != L:
            raise ValueError("codebook vectors must be rows of length L")

    # power kernel: one pass, rows keyed by the source power bin
    counts_g = np.zeros(M * M, dtype=np.int64)
    remaining = sample_count
    while remaining:
        c = min(remaining, _CHUNK)
        H = _complex_normal(g_stream, (c, L))
        m0 = _bin_g(np.sum(np.abs(H) ** 2, axis=1), spec)
        H = rho * H + sig * _complex_normal(g_stream, (c, L))
        m1 = _bin_g(np.sum(np.abs(H) ** 2, axis=1), spec)
        counts_g += np.bincount(m0 * M + m1, minlength=M * M)
        remaining -= c
    Ptilde = _normalize_rows(counts_g.reshape(M, M), "power kernel")

    if L == 1:
        # one antenna: every beam is the channel's own phase, so z is 1 in
        # every slot and all alignment rows are the point mass on the top bin
        top = np.zeros(N)
        top[-1] = 1.0
        return TransitionModel(Ptilde=Ptilde, P0=np.tile(top, (N, 1)), P1_row=top,
                               Peps1_row=None if vectors is None else top,
                               sample_count=sample_count, seed=seed)

    # no-feedback alignment kernel: rejection-fill every source bin
    target = max(1, sample_count // N)
    need = np.full(N, target, dtype=np.int64)
    counts_z = np.zeros(N * N, dtype=np.int64)
    budget = int(retry_budget) * target
    draws = 0
    while need.any():
        if draws >= budget:
            starved = int(np.argmax(need))
            raise EstimationError(
                f"alignment bin {starved} starved: {int(need[starved])} of {target} "
                f"source samples missing after {draws} draws"
            )
        c = min(_CHUNK, budget - draws)
        H = _complex_normal(z_stream, (c, L))
        z0 = np.abs(H[:, 0]) ** 2 / np.sum(np.abs(H) ** 2, axis=1)
        n0 = _bin_z(z0, spec)
        take_idx = []
        take_row = []
        for r in np.nonzero(need)[0]:
            idx = np.nonzero(n0 == r)[0][: need[r]]
            if idx.size:
                take_idx.append(idx)
                take_row.append(np.full(idx.size, r, dtype=np.int64))
                need[r] -= idx.size
        if take_idx:
            idx = np.concatenate(take_idx)
            row = np.concatenate(take_row)
            Hs = rho * H[idx] + sig * _complex_normal(z_stream, (idx.size, L))
            z1 = np.abs(Hs[:, 0]) ** 2 / np.sum(np.abs(Hs) ** 2, axis=1)
            counts_z += np.bincount(row * N + _bin_z(z1, spec), minlength=N * N)
        draws += c
    P0 = counts_z.reshape(N, N) / float(target)

    P1_row = _feedback_row(f_stream, params, spec, sample_count, None)
    Peps1_row = None
    if vectors is not None:
        Peps1_row = _feedback_row(q_stream, params, spec, sample_count, vectors)

    return TransitionModel(Ptilde=Ptilde, P0=P0, P1_row=P1_row, Peps1_row=Peps1_row,
                           sample_count=sample_count, seed=seed)


def _feedback_row(stream, params: FadingParams, spec: GridSpec, sample_count: int,
                  vectors) -> np.ndarray:
    """Destination law of the alignment after a feedback slot."""
    L, rho = params.L, params.rho
    sig = math.sqrt(max(0.0, 1.0 - rho * rho))
    counts = np.zeros(spec.N, dtype=np.int64)
    remaining = sample_count
    while remaining:
        c = min(remaining, _CHUNK)
        H = _complex_normal(stream, (c, L))
        S = H / np.linalg.norm(H, axis=1, keepdims=True)
        if vectors is None:
            F = S
        else:
            F = vectors[np.argmax(np.abs(S @ vectors.conj().T) ** 2, axis=1)]
        H = rho * H + sig * _complex_normal(stream, (c, L))
        z1 = np.abs(np.sum(H * F.conj(), axis=1)) ** 2 / np.sum(np.abs(H) ** 2, axis=1)
        counts += np.bincount(_bin_z(z1, spec), minlength=spec.N)
        remaining -= c
    return counts / float(sample_count)


def is_monotone_stochastic(A: np.ndarray, tol: float = 1e-9) -> bool:
    """Check stochastic rows plus tail-mass ordering between source rows.

    For every pair of source rows n1 >= n2 and every destination cutoff, the
    tail mass of row n1 must be at least that of row n2 minus ``tol``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("input must be a nonempty 2-D array")
    if np.any(A < -1e-12) or np.any(np.abs(A.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("rows must be probability distributions")
    tails = np.cumsum(A[:, ::-1], axis=1)[:, ::-1]
    for r in range(A.shape[0] - 1):
        if np.any(tails[r + 1 :] < tails[r] - tol):
            return False
    return True


def max_quantization_error(spec: GridSpec, g_cap: float) -> float:
    """Worst-case Euclidean distance from a state to its bin representative.

    The unbounded last power bin is truncated at ``g_cap`` for the purpose of
    this bound, so ``g_cap`` must be at least the last finite power edge.
    """
    g_cap = float(g_cap)
    if g_cap < spec.g_edges[-2]:
        raise ValueError("g_cap must not cut below the last finite power edge")
    g_hi = np.append(spec.g_edges[1:-1], g_cap)
    dg = np.maximum(spec.g_points - spec.g_edges[:-1], g_hi - spec.g_points)
    dz = np.maximum(spec.z_points - spec.z_edges[:-1], spec.z_edges[1:] - spec.z_points)
    return float(math.hypot(np.max(np.abs(dg)), np.max(np.abs(dz))))


def model_to_json(spec: GridSpec, model: TransitionModel) -> str:
    """Serialize a grid and its kernels as one JSON document."""
    doc = {
        "M": spec.M,
        "N": spec.N,
        "g_edges": [float(e) for e in spec.g_edges[:-1]] + ["inf"],
        "g_points": [float(v) for v in spec.g_points],
        "z_edges": [float(v) for v in spec.z_edges],
        "z_points": [float(v) for v in spec.z_points],
        "Ptilde": model.Ptilde.tolist(),
        "P0": model.P0.tolist(),
        "P1_row": model.P1_row.tolist(),
        "Peps1_row": None if model.Peps1_row is None else model.Peps1_row.tolist(),
        "sample_count": model.sample_count,
        "seed": model.seed,
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str):
    """Inverse of model_to_json; returns (GridSpec, TransitionModel)."""
    doc = json.loads(text)
    edges = [math.inf if e == "inf" else float(e) for e in doc["g_edges"]]
    spec = GridSpec(
        M=int(doc["M"]),
        N=int(doc["N"]),
        g_edges=np.array(edges),
        g_points=np.array(doc["g_points"], dtype=float),
        z_edges=np.array(doc["z_edges"], dtype=float),
        z_points=np.array(doc["z_points"], dtype=float),
    )
    pe = doc.get("Peps1_row")
    model = TransitionModel(
        Ptilde=np.array(doc["Ptilde"], dtype=float),
        P0=np.array(doc["P0"], dtype=float),
        P1_row=np.array(doc["P1_row"], dtype=float),
        Peps1_row=None if pe is None else np.array(pe, dtype=float),
        sample_count=int(doc["sample_count"]),
        seed=None if doc.get("seed") is None else int(doc["seed"]),
    )
    return spec, model
