"""Finite state space for the feedback controller.

Channel power is binned into equiprobable cells of its stationary Gamma law,
alignment into equal-length cells of [0, 1].  The grid draws nothing: the
power edges are Gamma quantiles and the power points the cells' conditional
means, both exact through the Gamma tails, which are sums of Poisson
probabilities.  Transition kernels between the cells are estimated by Monte
Carlo from the slot-to-slot channel recursion: a power kernel, an alignment
kernel for slots without feedback, and the one alignment row a model carries
for slots with feedback, exact or codebook-quantized as the model was
estimated.  Every alignment kernel steps isotropic channels drawn exactly at
given alignments, so each source bin is sampled directly, without rejection;
by isotropy a step needs a few scalars, not a whole channel, and the power
kernel counts the power pair of every such step.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, _as_rng, _blocks, _complex_normal

__all__ = [
    "GridSpec",
    "TransitionModel",
    "make_grid",
    "estimate_transition_model",
    "model_to_json",
]

_CHUNK = 1 << 18  # samples per step of a kernel pass; fixes how its draws interleave


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Bin edges and in-bin representative points for power and alignment.

    ``make_grid`` builds the grid of the channel law; the class takes any
    edges and points that pass its checks, such as a grid read back from
    JSON or a synthetic one.
    """

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


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Bin-level Markov kernels estimated from the channel recursion.

    ``feedback_row`` is the alignment law after feedback, the one row every
    solve on the model uses: after exact feedback, or after codebook
    feedback when ``quantized`` is true.
    """

    Ptilde: np.ndarray
    P0: np.ndarray
    feedback_row: np.ndarray
    sample_count: int
    quantized: bool = False

    def __post_init__(self):
        Pt = np.asarray(self.Ptilde, dtype=float)
        P0 = np.asarray(self.P0, dtype=float)
        row = np.asarray(self.feedback_row, dtype=float)
        if Pt.ndim != 2 or Pt.shape[0] != Pt.shape[1]:
            raise ValueError("power kernel must be square")
        if P0.ndim != 2 or P0.shape[0] != P0.shape[1]:
            raise ValueError("alignment kernel must be square")
        if row.shape != (P0.shape[0],):
            raise ValueError("feedback row size must match the alignment kernel")
        for arr in (Pt, P0, row[None, :]):
            if np.any(arr < 0) or np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("kernel rows must be distributions")
        if int(self.sample_count) < 1:
            raise ValueError("sample_count must be positive")
        object.__setattr__(self, "Ptilde", Pt)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "feedback_row", row)
        object.__setattr__(self, "sample_count", int(self.sample_count))
        object.__setattr__(self, "quantized", bool(self.quantized))


def make_grid(L: int, M: int, N: int) -> GridSpec:
    """The grid of L antennas with M power bins and N alignment bins.

    Power bins are equiprobable under the stationary Gamma(L, 1) law, and
    each power point is its bin's conditional mean, in closed form: with
    f(x) = x^L e^-x / L!, the Poisson(x) probability of L, the lower tails
    satisfy P(L+1, x) = P(L, x) - f(x), so a bin [a, b) of mass 1/M has
    mean L (1 - M (f(b) - f(a))).  Alignment bins split [0, 1] into equal
    lengths, with midpoint representatives.
    """
    L, M, N = int(L), int(M), int(N)
    if L < 1 or M < 1 or N < 1:
        raise ValueError("L, M and N must be positive")
    g_edges = _power_edges(L, M)
    f = np.zeros(M + 1)  # f(0) = f(inf) = 0
    f[1:-1] = _poisson_pmf(L, g_edges[1:-1])
    return GridSpec(M=M, N=N, g_edges=g_edges, g_points=L * (1.0 - M * np.diff(f)),
                    z_edges=np.arange(N + 1) / N, z_points=(np.arange(N) + 0.5) / N)


@functools.lru_cache(maxsize=8)
def _power_edges(L: int, M: int) -> np.ndarray:
    """Read-only edges of the M equiprobable power bins: 0, the Gamma(L, 1)
    quantiles at 1/M, ..., (M-1)/M, and inf.  Kept per (L, M), since the
    config check and the grid of a run both need them."""
    edges = np.concatenate(([0.0], _gamma_quantile(L, np.arange(1, M) / M), [np.inf]))
    edges.setflags(write=False)
    return edges


def _gamma_quantile(L: int, q: np.ndarray) -> np.ndarray:
    """Quantiles of the Gamma(L, 1) law at probabilities 0 < q < 1, for integer L.

    Each q is solved on the tail that holds at most half the mass, as a sum
    of positive Poisson(x) probabilities: the lower tail
    P(L, x) = e^-x sum_{k>=L} x^k/k! = q when q <= 1/2, else the upper tail
    Q(L, x) = e^-x sum_{k<L} x^k/k! = 1 - q.  Newton's method runs from
    x = L on the log of that tail, which is concave (the Gamma law is
    log-concave), so after the first step the iterates close in on the root
    from one side: the lower tail in log x, which keeps x positive, the upper
    tail in x, which stops the first step from overshooting exponentially.

    Raises ValueError once an iterate passes x = 708, where e^-x leaves the
    normal double range; with M up to 4096 bins that first happens near
    L = 500.
    """
    x = np.full(q.shape, float(L))
    lo = q <= 0.5
    up = ~lo
    # on the lower tail x <= L, where the k-th term of its series is below
    # exp(-k^2 / (2 (L + k))); K terms take it under 2^-60
    K = math.ceil(42.0 + math.sqrt(42.0 * 42.0 + 84.0 * L))
    for _ in range(64):  # a bound only: the iterates converge in under ten steps
        pmf = _poisson_pmf(L - 1, x)
        step = np.empty_like(x)
        # P = pmf x/L (1 + x/(L+1) (1 + x/(L+2) (...))), d log P / d log x = L / s
        xl = x[lo]
        s = np.ones_like(xl)
        for k in range(L + K, L, -1):
            s = 1.0 + xl / k * s
        step[lo] = xl * np.expm1(-np.log(pmf[lo] * xl / L * s / q[lo]) * s / L)
        # Q = pmf (1 + (L-1)/x (1 + (L-2)/x (...))), d log Q / dx = -1 / s
        xu = x[up]
        s = np.ones_like(xu)
        for k in range(1, L):
            s = 1.0 + k / xu * s
        step[up] = np.log(pmf[up] * s / (1.0 - q[up])) * s
        x += step
        if np.all(np.abs(step) < 2.0 ** -30 * x):
            # the error after a Newton step is of order step^2, below rounding
            return x
    raise ArithmeticError(f"Gamma({L}) quantiles did not converge")


def _poisson_pmf(k: int, x: np.ndarray) -> np.ndarray:
    """Poisson(x) probability of k, e^-x x^k / k!, at each x >= 0.

    The Gamma(L, 1) tails are series of these: d P(L, x) / dx is the
    probability of L - 1, and P(L, x) - P(L+1, x) that of L.  Built as a
    product whose partial products are Poisson probabilities too, so it
    cannot overflow; raises ValueError where e^-x leaves the normal double
    range (x past about 708).
    """
    pmf = np.exp(-x)
    if not np.all(pmf >= np.finfo(float).tiny):
        raise ValueError(f"Gamma tails at x = {np.max(x):.6g} leave the double range: "
                         "e^-x underflows")
    for j in range(1, k + 1):
        pmf *= x / j
    return pmf


def _bin(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each power or alignment value; bins are half-open [lo, hi), and
    a value at the last edge (alignment z = 1) falls in the top bin."""
    b = np.searchsorted(edges, x, side="right")
    b -= 1
    return np.clip(b, 0, edges.size - 2, out=b)


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
                              rng, eps=None) -> TransitionModel:
    """Estimate the bin-level kernels by simulating one-slot transitions.

    Every row steps channels drawn at given alignments with a beam pinned
    to the first basis vector (see _step_alignment_bins): each no-feedback
    row from exactly ``sample_count // N`` alignments inside its source bin,
    and the feedback row from perfect alignment or, when ``eps`` is given,
    from those quantization errors instead (the model is then
    ``quantized``).  The step's innovation is isotropic, so given (g, eps)
    which codeword was chosen does not matter.
    The power kernel counts the (g, g') pair of every step of both passes.
    With one antenna the alignment is identically 1, and every alignment
    row is the exact point mass on the top bin.

    Args:
        params: fading model (antenna count and slot correlation).
        spec: bin layout; its sizes fix the kernel dimensions.
        sample_count: Monte Carlo budget per alignment kernel.
        rng: seed or numpy Generator.
        eps: optional quantization errors of ``sample_count`` isotropic
            shapes (``codebook.quantization_errors``).

    Returns:
        TransitionModel with rows normalized to distributions.
    """
    if int(sample_count) < 1:
        raise ValueError("sample_count must be positive")
    sample_count = int(sample_count)
    if eps is not None:
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (sample_count,):
            raise ValueError("eps must hold one quantization error per sample")
    z_stream, f_stream = _as_rng(rng).spawn(2)
    L, rho = params.L, params.rho
    sig = math.sqrt(max(0.0, 1.0 - rho * rho))
    M, N = spec.M, spec.N

    target = max(1, sample_count // N)
    if L == 1:
        # one antenna: every beam is the channel's own phase, so z is 1 in
        # every slot, and every row steps from z = 1 to the top bin
        z0 = np.broadcast_to(1.0, (N * target,))
    else:
        z0 = _in_bin_alignments(z_stream, spec.z_edges, L, target)
    counts0, pairs = _step_alignment_bins(z_stream, z0, L, rho, sig, spec, target)
    z1 = np.broadcast_to(1.0, (sample_count,)) if eps is None else eps
    counts1, pairs1 = _step_alignment_bins(f_stream, z1, L, rho, sig, spec, sample_count)
    pairs += pairs1
    return TransitionModel(Ptilde=_normalize_rows(pairs.reshape(M, M), "power kernel"),
                           P0=counts0.reshape(N, N) / float(target),
                           feedback_row=counts1 / float(sample_count),
                           sample_count=sample_count, quantized=eps is not None)


def _in_bin_alignments(stream, z_edges: np.ndarray, L: int, target: int) -> np.ndarray:
    """``target`` isotropic alignments inside each bin, grouped bin by bin.

    The alignment is Beta(1, L-1) with survival S(z) = (1 - z)^(L-1), so S^-1
    of a uniform draw between S at a bin's edges is that law on the bin.
    """
    tail = (1.0 - z_edges[:, None]) ** (L - 1)
    z0 = stream.random((z_edges.size - 1, target))
    z0 *= tail[:-1] - tail[1:]
    np.subtract(tail[:-1], z0, out=z0)
    z0 **= 1.0 / (L - 1)
    np.subtract(1.0, z0, out=z0)
    # rounding can step a draw just past its bin's edges
    return np.clip(z0, z_edges[:-1, None], z_edges[1:, None], out=z0).ravel()


def _step_alignment_bins(stream, z0: np.ndarray, L: int, rho: float, sig: float,
                         spec: GridSpec, per_row: int):
    """Counts of the steps of channels at alignment z0 with the beam e_1:
    of the alignment bins one slot later, by source row, and of the
    power-bin pairs.  Consecutive runs of ``per_row`` samples form the
    rows, and the alignment counts are indexed row * N + next bin; the
    power-pair counts are indexed source * M + destination.

    Drawn from scalars, exact in law by isotropy: the power g ~ Gamma(L)
    is independent of the alignment z0 and of the phase of h_1, so the
    channel is sqrt(g z0) e_1 + sqrt(g (1 - z0)) u with u the unit direction
    of its part orthogonal to e_1.  The innovation w of the step is CN(0, I):
    its components along e_1 and u are two complex normals, and the rest,
    on the L - 2 other directions, has power Gamma(L - 2).  The next power
    and alignment follow from the three parts; with one antenna there is
    only the first, and the alignment stays 1.

    The samples are stepped _CHUNK at a time: a chunk holds its source
    power, the next power and the head part, each draw of a per-sample
    temporary is taken a block of samples at a time (``_blocks``), and so
    is the count, so only counts outlive a chunk.
    """
    N, M = spec.N, spec.M
    counts = np.zeros(z0.size // per_row * N, dtype=np.intp)
    pairs = np.zeros(M * M, dtype=np.intp)
    for s in range(0, z0.size, _CHUNK):
        z = z0[s:s + _CHUNK]
        g = stream.gamma(float(L), size=z.size)
        head = np.multiply(g, z)
        _step_power(stream, head, rho, sig)
        if L == 1:
            g1 = head
        else:
            g1 = np.subtract(1.0, z)
            g1 *= g
            _step_power(stream, g1, rho, sig)
            g1 += head
            if L > 2:
                for blk in _blocks(0, z.size):
                    other = stream.gamma(float(L - 2), size=blk.stop - blk.start)
                    other *= sig * sig
                    g1[blk] += other
        for blk in _blocks(0, z.size):
            pair = _bin(g[blk], spec.g_edges)
            pair *= M
            pair += _bin(g1[blk], spec.g_edges)
            _add_counts(pairs, 0, pair)
            row = np.arange(s + blk.start, s + blk.stop) // per_row
            first = int(row[0])
            row -= first
            row *= N
            if L == 1:
                row += N - 1
            else:
                row += _bin(np.divide(head[blk], g1[blk], out=head[blk]), spec.z_edges)
            _add_counts(counts, first * N, row)
    return counts, pairs


def _add_counts(counts: np.ndarray, start: int, index: np.ndarray):
    """Add the occurrences of each index i to counts[start + i]."""
    c = np.bincount(index)
    counts[start:start + c.size] += c


def _step_power(stream, power, rho, sig):
    """Replace each power p by |rho sqrt(p) + sig w|^2, drawing a fresh
    complex normal w per sample, a block of samples at a time."""
    np.sqrt(power, out=power)
    power *= rho
    for blk in _blocks(0, power.size):
        p = power[blk]
        w = _complex_normal(stream, p.size)
        w *= sig
        w += p
        np.abs(w, out=p)
    power **= 2


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
        "P1_row": None if model.quantized else model.feedback_row.tolist(),
        "Peps1_row": model.feedback_row.tolist() if model.quantized else None,
        "sample_count": model.sample_count,
    }
    return json.dumps(doc, indent=2)
