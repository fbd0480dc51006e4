"""Beam-shape codebooks for quantized feedback.

A codebook is a set of unit-norm directions; feedback reports the codeword
best aligned with the channel shape, and the squared alignment of that
codeword with the true shape (written eps throughout) is what the link then
operates at.  Training refines random codewords by alternating nearest-
codeword partition and principal-direction centroid steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _alignment, _as_rng, _blocks, _complex_normal, _row_inner

__all__ = [
    "Codebook",
    "EpsStats",
    "random_codebook",
    "lloyd_codebook",
    "quantization_errors",
    "epsilon_statistics",
    "price_increment_bound",
]

@dataclass(frozen=True, eq=False)
class Codebook:
    """Unit-norm codeword rows plus provenance metadata."""

    vectors: np.ndarray
    method: str = "random"
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


@dataclass(frozen=True, eq=False)
class EpsStats:
    """Monte Carlo moments of the quantized alignment eps.

    ``per_g_rate[m]`` is E[log2(1 + P * g_points[m] * eps)] at the SNR ``P``
    it was tabled at; standard errors accompany every moment, and samples
    with eps exactly zero are excluded from the log moment with their count
    recorded.
    """

    mean_eps: float
    mean_log2_eps: float
    per_g_rate: np.ndarray
    P: float
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
    rng = _as_rng(rng)
    V = _complex_normal(rng, (int(size), int(L)))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return Codebook(vectors=V, method="random")


def lloyd_codebook(L: int, size: int, training_count: int, iterations: int, rng) -> Codebook:
    """Train codewords on isotropic shapes by alternating maximization.

    Each round assigns every training shape to its best-aligned codeword
    (see ``_nearest``) and replaces each codeword by the principal
    eigenvector of its cluster's outer-product sum, which maximizes the
    cluster's total squared alignment; the mean alignment objective is
    therefore nondecreasing.  The sums are those of the lower-triangle
    product features the scores use: one ``bincount`` per feature, in
    training order, and one batched ``eigh`` takes every cluster.  Each
    empty cluster, in codeword order, is re-seeded with the training shape
    worst served by the codewords already set (the lowest index on a tie).
    Stops early once the objective improves by less than 1e-6.
    """
    if int(L) < 1 or int(size) < 1 or int(iterations) < 1:
        raise ValueError("L, size and iterations must be positive")
    if int(training_count) < int(size):
        raise ValueError("need at least as many training shapes as codewords")
    rng = _as_rng(rng)
    S = _complex_normal(rng, (int(training_count), int(L)))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    C = S[rng.choice(int(training_count), int(size), replace=False)].copy()
    K = int(size)
    rows, cols = np.tril_indices(int(L))
    off = rows > cols
    features = _shape_features(S)
    history = []
    prev = -math.inf
    for _ in range(int(iterations)):
        assign, best = _nearest(S, features, C)
        obj = float(best.mean())
        history.append(obj)
        if obj - prev < 1e-6:
            break
        prev = obj
        sums = [np.bincount(assign, weights=f, minlength=K) for f in features]
        R = np.zeros((K, int(L), int(L)), dtype=complex)
        R.real[:, rows, cols] = np.transpose(sums[:rows.size])
        R.imag[:, rows[off], cols[off]] = np.transpose(sums[rows.size:])
        C[:] = np.linalg.eigh(R)[1][:, :, -1]  # eigh reads the lower triangle
        empty = np.bincount(assign, minlength=K) == 0
        for k in np.flatnonzero(empty):
            C[k] = S[int(np.argmin(_nearest(S, features, C[~empty])[1]))]
            empty[k] = False
    return Codebook(vectors=C, method="lloyd", objective_history=tuple(history))


def _shape_features(S: np.ndarray) -> np.ndarray:
    """Real features of unit shapes, one contiguous row each: the real part
    of every lower-triangle product s_i conj(s_j) (i >= j, in ``tril_indices``
    order), then the imaginary part of the off-diagonal ones (a diagonal
    product is real).

    The rows are filled one product at a time, each taken as
    np.multiply(conj(s_j), s_i): one operand order, so a shape's features
    do not depend on how many shapes share the call (an operator expression
    rounds the complex product with its operands swapped once numpy reuses
    a large temporary's buffer for it).
    """
    L = S.shape[1]
    rows, cols = np.tril_indices(L)
    features = np.empty((L * L, S.shape[0]))
    imag = rows.size
    for p, (i, j) in enumerate(zip(rows, cols)):
        product = np.multiply(S[:, j].conj(), S[:, i])
        features[p] = product.real
        if i > j:
            features[imag] = product.imag
            imag += 1
    return features


def _nearest(S: np.ndarray, features: np.ndarray, C: np.ndarray):
    """First best-aligned codeword of every shape and its squared alignment.

    |<s, c>|^2 = sum_i |s_i|^2 |c_i|^2 + 2 sum_{i>j} Re(s_i conj(s_j) conj(c_i) c_j)
    is linear in the shape's features, so one real GEMM against each
    codeword's weights scores every shape, and the best score is a column
    reduction.  A shape with a runner-up within 1e-12 of its best is
    rescored by the complex inner products, so ties and near-ties resolve
    as ``argmax`` of the complex scores does: to the lowest index.
    """
    K = C.shape[0]
    rows, cols = np.tril_indices(C.shape[1])
    off = rows > cols
    q = C[:, rows].conj() * C[:, cols]
    weights = np.concatenate([np.where(off, 2.0, 1.0) * q.real, -2.0 * q.imag[:, off]], axis=1)
    scores = weights @ features
    best = scores.max(axis=0)
    # per shape: how many codewords score within 1e-12 of the best, and the
    # index of the best when it is the only one
    np.greater_equal(scores, best - 1e-12, out=scores)
    count, first = np.stack([np.ones(K), np.arange(K)]) @ scores
    assign = first.astype(np.intp)
    near = np.flatnonzero(count > 1)
    if near.size:
        exact = np.abs(S[near] @ C.conj().T) ** 2
        assign[near] = np.argmax(exact, axis=1)
        best[near] = exact[np.arange(near.size), assign[near]]
    return assign, best


def _quantize(S: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Codeword index of each unit shape row: the one ``_nearest`` assigns,
    as in Lloyd training.  Rows are scored a block at a time (``_blocks``),
    so no more than a block's features and scores are held at once; that
    heap stays resident after the pass, so the block sets a quantized
    sweep's peak memory (8192-row blocks raised it by 0.5 MB).
    """
    code = np.empty(S.shape[0], dtype=np.min_scalar_type(len(vectors) - 1))
    for blk in _blocks(0, S.shape[0]):
        code[blk] = _nearest(S[blk], _shape_features(S[blk]), vectors)[0]
    return code


def quantization_errors(codebook: Codebook, count: int, rng) -> np.ndarray:
    """eps of ``count`` isotropic shapes quantized with the codebook.

    eps is the squared alignment of a shape with its codeword (``_quantize``),
    clipped at one, by the per-row product the simulator takes for a held
    codeword (``channel._row_inner``), so a feedback slot and the slots that
    keep its codeword round alike.  One sample serves both the quantized
    feedback row of the transition model and ``epsilon_statistics``; the
    shapes are drawn a block at a time (``_blocks``), so no more than a
    block of them is held at once.
    """
    if int(count) < 1:
        raise ValueError("count must be positive")
    count = int(count)
    rng = _as_rng(rng)
    eps = np.empty(count)
    for blk in _blocks(0, count):
        S = _complex_normal(rng, (blk.stop - blk.start, codebook.L))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        held = codebook.vectors[_quantize(S, codebook.vectors)]
        eps[blk] = _alignment(_row_inner(S.conj(), held))
    return eps


def epsilon_statistics(eps, P: float, g_points) -> EpsStats:
    """Moments of a quantization-error sample (see ``quantization_errors``).

    All moments come from the same draws, so per-sample inequalities between
    them survive the estimation exactly.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ValueError("eps must be a nonempty 1-D sample")
    if not P > 0:
        raise ValueError("P must be positive")
    g_points = np.asarray(g_points, dtype=float)
    n = eps.size
    logs = np.log2(eps[eps > 0.0])
    rate = np.empty(n)
    rate_sums = np.empty((2, g_points.size))
    for m, Pg in enumerate(P * g_points):  # one power point at a time
        np.log2(np.add(1.0, np.multiply(Pg, eps, out=rate), out=rate), out=rate)
        rate_sums[0, m] = rate.sum()
        rate_sums[1, m] = np.square(rate, out=rate).sum()

    def moments(total, total_sq, count):
        mean = total / count
        var = np.maximum(0.0, total_sq / count - mean * mean)
        return mean, np.sqrt(var / count)

    mean_eps, se_eps = moments(eps.sum(), np.square(eps).sum(), n)
    mean_log, se_log = moments(logs.sum(), np.square(logs).sum(), max(1, logs.size))
    rate_mean, rate_se = moments(*rate_sums, n)
    return EpsStats(
        mean_eps=float(mean_eps),
        mean_log2_eps=float(mean_log),
        per_g_rate=rate_mean,
        P=float(P),
        g_points=g_points,
        sample_count=n,
        stderr_mean_eps=float(se_eps),
        stderr_log2_eps=float(se_log),
        per_g_rate_stderr=rate_se,
        zero_eps_excluded=n - logs.size,
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
