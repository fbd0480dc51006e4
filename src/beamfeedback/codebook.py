"""Beam-shape codebooks for quantized feedback.

A codebook is a set of unit-norm directions; feedback reports the codeword
best aligned with the channel shape, and the squared alignment of that
codeword with the true shape (written eps throughout) is what the link then
operates at.  Training refines random codewords by alternating nearest-
codeword partition and principal-direction centroid steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import _as_rng, _complex_normal

__all__ = [
    "Codebook",
    "EpsStats",
    "random_codebook",
    "lloyd_codebook",
    "quantize_shape",
    "epsilon_statistics",
    "price_increment_bound",
    "codebook_to_json",
    "codebook_from_json",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class Codebook:
    """Unit-norm codeword rows plus provenance metadata."""

    vectors: np.ndarray
    method: str = "random"
    seed: int | None = None
    objective_history: tuple = None

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise ValueError("codebook must hold at least one vector")
        norms = np.linalg.norm(V, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("codewords must be unit norm")
        V.setflags(write=False)
        object.__setattr__(self, "vectors", V)

    @property
    def L(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class EpsStats:
    """Monte Carlo moments of the quantized alignment eps.

    ``per_g_rate[m]`` is E[log2(1 + P * g_points[m] * eps)]; standard errors
    accompany every moment, and samples with eps exactly zero are excluded
    from the log moment with their count recorded.
    """

    mean_eps: float
    mean_log2_eps: float
    per_g_rate: np.ndarray
    g_points: np.ndarray
    sample_count: int
    stderr_mean_eps: float
    stderr_log2_eps: float
    per_g_rate_stderr: np.ndarray
    zero_eps_excluded: int


def random_codebook(L: int, size: int, rng) -> Codebook:
    """Isotropically drawn unit-norm codewords."""
    if int(L) < 1 or int(size) < 1:
        raise ValueError("L and size must be positive")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    rng = _as_rng(rng)
    V = _complex_normal(rng, (int(size), int(L)))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return Codebook(vectors=V, method="random", seed=seed)


def lloyd_codebook(L: int, size: int, training_count: int, iterations: int, rng) -> Codebook:
    """Train codewords on isotropic shapes by alternating maximization.

    Each round assigns every training shape to its best-aligned codeword and
    replaces each codeword by the principal eigenvector of its cluster's
    outer-product sum, which maximizes the cluster's total squared alignment;
    the mean alignment objective is therefore nondecreasing.  Empty clusters
    are re-seeded from random training shapes.  Stops early once the
    objective improves by less than 1e-6.
    """
    if int(L) < 1 or int(size) < 1 or int(iterations) < 1:
        raise ValueError("L, size and iterations must be positive")
    if int(training_count) < int(size):
        raise ValueError("need at least as many training shapes as codewords")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    rng = _as_rng(rng)
    S = _complex_normal(rng, (int(training_count), int(L)))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    C = S[rng.choice(int(training_count), int(size), replace=False)].copy()
    history = []
    prev = -math.inf
    for _ in range(int(iterations)):
        scores = np.abs(S @ C.conj().T) ** 2
        assign = np.argmax(scores, axis=1)
        obj = float(scores[np.arange(S.shape[0]), assign].mean())
        history.append(obj)
        if obj - prev < 1e-6:
            break
        prev = obj
        for k in range(int(size)):
            members = S[assign == k]
            if members.shape[0] == 0:
                C[k] = S[int(rng.integers(S.shape[0]))]
                continue
            R = members.T @ members.conj()
            _, vecs = np.linalg.eigh(R)
            C[k] = vecs[:, -1]
    return Codebook(vectors=C, method="lloyd", seed=seed,
                    objective_history=tuple(history))


def quantize_shape(s: np.ndarray, codebook: Codebook):
    """Best-aligned codeword for a unit shape.

    Ties resolve to the lowest codeword index.  Returns (codeword, eps) with
    eps the squared alignment achieved.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (codebook.L,):
        raise ValueError("shape dimension does not match the codebook")
    if abs(np.linalg.norm(s) - 1.0) > 1e-6:
        raise ValueError("shape must be unit norm")
    scores = np.abs(codebook.vectors.conj() @ s) ** 2
    idx = int(np.argmax(scores))
    return codebook.vectors[idx], float(min(1.0, scores[idx]))


def _quantize_rows(Sc: np.ndarray, vectors: np.ndarray):
    """Codebook quantization of many conjugated unit shapes: (indices, eps).

    Scores are built one codeword at a time, so no rows-by-codewords matrix
    is ever held; ties resolve to the lowest codeword index.
    """
    best = np.abs(Sc @ vectors[0]) ** 2
    idx = np.zeros(best.size, dtype=np.intp)
    for k in range(1, vectors.shape[0]):
        score = np.abs(Sc @ vectors[k]) ** 2
        better = score > best
        idx[better] = k
        best[better] = score[better]
    return idx, np.minimum(best, 1.0)


def epsilon_statistics(codebook: Codebook, L: int, P: float, g_points, sample_count: int,
                       rng) -> EpsStats:
    """Monte Carlo moments of eps over isotropic shapes.

    All moments come from the same draws, so per-sample inequalities between
    them survive the estimation exactly.
    """
    if int(L) != codebook.L:
        raise ValueError("L does not match the codebook")
    if int(sample_count) < 1:
        raise ValueError("sample_count must be positive")
    if not P > 0:
        raise ValueError("P must be positive")
    g_points = np.asarray(g_points, dtype=float)
    rng = _as_rng(rng)
    M = g_points.size
    n = int(sample_count)
    sum_eps = sumsq_eps = 0.0
    sum_log = sumsq_log = 0.0
    zero_count = 0
    sum_rate = np.zeros(M)
    sumsq_rate = np.zeros(M)
    remaining = n
    while remaining:
        c = min(remaining, _CHUNK)
        S = _complex_normal(rng, (c, L))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        eps = _quantize_rows(S.conj(), codebook.vectors)[1]
        sum_eps += eps.sum()
        sumsq_eps += (eps**2).sum()
        pos = eps > 0.0
        zero_count += int(c - pos.sum())
        logs = np.log2(eps[pos])
        sum_log += logs.sum()
        sumsq_log += (logs**2).sum()
        rate = np.log2(1.0 + P * g_points[:, None] * eps[None, :])
        sum_rate += rate.sum(axis=1)
        sumsq_rate += (rate**2).sum(axis=1)
        remaining -= c

    def moments(total, total_sq, count):
        mean = total / count
        var = max(0.0, total_sq / count - mean * mean)
        return mean, math.sqrt(var / count)

    mean_eps, se_eps = moments(sum_eps, sumsq_eps, n)
    n_log = n - zero_count
    mean_log, se_log = moments(sum_log, sumsq_log, max(1, n_log))
    rate_mean = sum_rate / n
    rate_var = np.maximum(0.0, sumsq_rate / n - rate_mean**2)
    return EpsStats(
        mean_eps=mean_eps,
        mean_log2_eps=mean_log,
        per_g_rate=rate_mean,
        g_points=g_points,
        sample_count=n,
        stderr_mean_eps=se_eps,
        stderr_log2_eps=se_log,
        per_g_rate_stderr=np.sqrt(rate_var / n),
        zero_eps_excluded=zero_count,
    )


def price_increment_bound(L: int, size: int) -> float:
    """Upper bound on the mean log-alignment loss of a size-|F| codebook.

    Grows the feedback price a quantized system can absorb; single-antenna
    codebooks lose nothing.
    """
    if int(L) < 1 or int(size) < 1:
        raise ValueError("L and size must be positive")
    if int(L) == 1:
        return 0.0
    return math.log2(math.e) * float(size) ** (-1.0 / (int(L) - 1))


def codebook_to_json(codebook: Codebook) -> str:
    """Serialize codewords as interleaved (real, imag) rows plus metadata."""
    rows = []
    for v in codebook.vectors:
        row = np.empty(2 * v.size)
        row[0::2] = v.real
        row[1::2] = v.imag
        rows.append([float(x) for x in row])
    doc = {
        "L": codebook.L,
        "size": codebook.size,
        "method": codebook.method,
        "seed": codebook.seed,
        "vectors": rows,
    }
    return json.dumps(doc, indent=2)


def codebook_from_json(text: str) -> Codebook:
    """Inverse of codebook_to_json."""
    doc = json.loads(text)
    rows = np.asarray(doc["vectors"], dtype=float)
    if rows.ndim != 2 or rows.shape != (int(doc["size"]), 2 * int(doc["L"])):
        raise ValueError("vector block does not match the stated dimensions")
    V = rows[:, 0::2] + 1j * rows[:, 1::2]
    return Codebook(vectors=V, method=str(doc["method"]), seed=doc.get("seed"))
