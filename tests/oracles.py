"""Slow, per-state reference versions of laws the package computes in batch.

The tests compare the product code against these: a discounted and a
relative value iteration for the policy-iteration gain, an exhaustive
search over threshold policies for the optimal one, an occupancy-weighted
reward for policy evaluation, the greedy improvement of a value table, the
decision table of a threshold curve, the leading feedback run of any table
and its bin-by-bin decision, against which the simulator's comparison with
a curve is checked, a tail-mass check for kernel monotonicity, a
per-shape quantizer for the batch quantizer, a cluster-by-cluster Lloyd
training for the one-pass one, readers for the serialized thresholds,
model and codebook, periodic feedback at one fixed interval and the
segment law of its alignment, the per-slot series of a schedule and the
point measured from them, the model gain over a sequence of grid
refinements, the complex Gaussians summed from their real and imaginary
parts, and the one-slot step of whole L-antenna channels that the kernel
estimator reduces to scalars.
"""

import itertools
import json
import math

import numpy as np

from beamfeedback import codebook as codebook_module
from beamfeedback.channel import FadingParams, _alignment, _as_rng, _complex_normal
from beamfeedback.codebook import Codebook
from beamfeedback.mdp import (
    NumericalError,
    Policy,
    RewardSpec,
    SolveResult,
    _backup,
    _evaluate_policy,
    _stage_tables,
    policy_iteration_average,
    stationary_distribution,
    threshold_lower_bound,
)
from beamfeedback.simulator import (
    CurvePoint,
    Run,
    TrajectoryConfig,
    _BATCHES,
    _held_alignment,
    _measure,
    _point,
    _streams,
)
from beamfeedback.state_grid import (
    GridSpec,
    TransitionModel,
    _bin,
    estimate_transition_model,
    make_grid,
)

_SEARCH_CANDIDATES = 1_000_000  # guard on the exhaustive threshold search
_REFINEMENT_STREAM = 3  # ``simulator._streams`` tag of the refinement draws


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance complex Gaussians as (re + 1j im) / sqrt(2) of a normal pair."""
    pair = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) / math.sqrt(2.0)


def ar1_step(stream, H: np.ndarray, rho: float, sig: float) -> np.ndarray:
    """One slot of the channel recursion h' = rho h + sqrt(1 - rho^2) w."""
    return rho * H + sig * _complex_normal(stream, H.shape)


def power(H: np.ndarray) -> np.ndarray:
    """Squared norm of each channel row, the antennas summed in index order."""
    sq = np.abs(H) ** 2
    g = sq[:, 0].copy()
    for l in range(1, sq.shape[1]):
        g += sq[:, l]
    return g


def full_channel_step(stream, z0: np.ndarray, L: int, rho: float, sig: float,
                      spec: GridSpec):
    """``state_grid._step_alignment_bins`` on whole L-antenna channels.

    A CN(0, I) channel whose first entry is rescaled to power g z0 and the
    rest to g (1 - z0) has the channel law given alignment z0 with the beam
    e_1; it takes one recursion step.  Returns the next alignment bins and
    the (source * M + destination) power-bin pairs.
    """
    H = _complex_normal(stream, (z0.size, L))
    g = power(H)
    if L > 1:
        head = np.abs(H[:, 0]) ** 2
        rest = power(H[:, 1:])
        H[:, 0] *= np.sqrt(g * z0 / head)
        H[:, 1:] *= np.sqrt(g * (1.0 - z0) / rest)[:, None]
    H = ar1_step(stream, H, rho, sig)
    g1 = power(H)
    n1 = _bin(np.abs(H[:, 0]) ** 2 / g1, spec.z_edges)
    return n1, _bin(g, spec.g_edges) * spec.M + _bin(g1, spec.g_edges)


def power_pass_counts(stream, L: int, rho: float, sig: float, spec: GridSpec,
                      count: int) -> np.ndarray:
    """Power-kernel counts (M x M) of ``count`` stationary channels stepped
    once, the power of each counted before and after."""
    H = _complex_normal(stream, (count, L))
    m0 = _bin(power(H), spec.g_edges)
    m1 = _bin(power(ar1_step(stream, H, rho, sig)), spec.g_edges)
    return np.bincount(m0 * spec.M + m1, minlength=spec.M ** 2).reshape(spec.M, spec.M)


def dp_operator(V: np.ndarray, beta: float, model: TransitionModel, rewards: RewardSpec,
                spec: GridSpec, eps=None) -> np.ndarray:
    """One sweep of the discounted Bellman maximization on the value table V.

    Feedback is chosen only when strictly better, so ties keep the beam.
    """
    G0, G1 = _stage_tables(spec, rewards, eps)
    W0, W1 = _backup(V, model)
    Q0 = G0 + beta * W0
    Q1 = G1[:, None] + beta * W1[:, None]
    return np.where(Q1 > Q0, Q1, Q0)


def value_iteration_discounted(model: TransitionModel, rewards: RewardSpec,
                               spec: GridSpec, beta: float, tol: float = 1e-10,
                               max_iter: int = 100_000, eps=None) -> np.ndarray:
    """Iterate the discounted operator to its fixed point (sup-norm stop)."""
    V = np.zeros((spec.M, spec.N))
    residual = math.inf
    for _ in range(max_iter):
        nxt = dp_operator(V, beta, model, rewards, spec, eps)
        residual = float(np.max(np.abs(nxt - V)))
        V = nxt
        if residual <= tol:
            return V
    raise NumericalError("discounted value iteration did not converge "
                         f"(residual {residual:.3e})")


def relative_value_iteration(model: TransitionModel, rewards: RewardSpec,
                             spec: GridSpec, tol: float = 1e-10,
                             max_iter: int = 200_000, eps=None):
    """Undiscounted value iteration with the last state as offset anchor.

    Cross-check for the policy-iteration gain; returns (J, A).
    """
    G0, G1 = _stage_tables(spec, rewards, eps)
    h = np.zeros((spec.M, spec.N))
    residual = math.inf
    for _ in range(max_iter):
        W0, W1 = _backup(h, model)
        Q0 = G0 + W0
        Q1 = G1[:, None] + W1[:, None]
        Th = np.where(Q1 > Q0, Q1, Q0)
        J = Th[-1, -1]
        nxt = Th - J
        residual = float(np.max(np.abs(nxt - h)))
        h = nxt
        if residual <= tol:
            return float(J), h
    raise NumericalError("relative value iteration did not converge "
                         f"(residual {residual:.3e})")


def average_reward(decide: np.ndarray, model: TransitionModel, rewards: RewardSpec,
                   spec: GridSpec, eps=None) -> float:
    """Occupancy-weighted stage reward of a fixed decision table."""
    G0, G1 = _stage_tables(spec, rewards, eps)
    pi = stationary_distribution(decide, model)
    Gpi = np.where(decide, G1[:, None], G0)
    return float(np.sum(pi * Gpi))


def greedy_table(A: np.ndarray, model: TransitionModel, rewards: RewardSpec,
                 spec: GridSpec, eps=None) -> np.ndarray:
    """Decision table of one greedy step on the differential values A:
    feedback exactly where it strictly beats keeping the beam."""
    G0, G1 = _stage_tables(spec, rewards, eps)
    W0, W1 = _backup(A, model)
    return G1[:, None] + W1[:, None] > G0 + W0


def threshold_table(y: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Decision table of the thresholds y: feedback where the alignment
    point lies below its power bin's threshold."""
    return spec.z_points[None, :] < np.asarray(y)[:, None]


def extract_threshold(decide: np.ndarray, spec: GridSpec):
    """Leading feedback run of each row of a decision table, as a bin edge.

    Returns (y, is_threshold): y[m] is the upper edge of the run of
    feedback bins that row m starts with, and is_threshold tells whether
    every row feeds back on that run alone.  A row that feeds back above a
    gap still reports its leading run.
    """
    M, N = decide.shape
    if N + 1 != spec.z_edges.size or M != spec.M:
        raise ValueError("policy shape does not match the grid")
    lead = np.where(decide.all(axis=1), N, np.argmin(decide, axis=1))
    return spec.z_edges[lead], np.array_equal(decide, np.arange(N) < lead[:, None])


def bin_decision(decide: np.ndarray, m: np.ndarray, z: np.ndarray,
                 spec: GridSpec) -> np.ndarray:
    """Decisions of a table at power bins m and alignments z, looked up by
    the alignment bin of each z."""
    return decide[m, _bin(z, spec.z_edges)]


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


def lloyd_codebook(L: int, size: int, training_count: int, iterations: int, rng) -> Codebook:
    """Lloyd training with one mask, gather, outer-product sum and eigh per
    cluster and round, and an empty cluster re-seeded with the training
    shape worst served by the codewords set before it, by complex scores.

    Draws the training set and the starting codewords as the package does;
    the normal draws go through ``beamfeedback.codebook``, so a test that
    substitutes them there feeds both versions the same training set.
    """
    rng = _as_rng(rng)
    S = codebook_module._complex_normal(rng, (int(training_count), int(L)))
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
        empty = []
        for k in range(int(size)):
            members = S[assign == k]
            if members.shape[0] == 0:
                empty.append(k)
                continue
            R = members.T @ members.conj()
            _, vecs = np.linalg.eigh(R)
            C[k] = vecs[:, -1]
        done = [k for k in range(int(size)) if k not in empty]
        for k in empty:  # the worst-served shape, given the codewords set so far
            served = np.max(np.abs(S @ C[done].conj().T) ** 2, axis=1)
            C[k] = S[int(np.argmin(served))]
            done.append(k)
    return Codebook(vectors=C, method="lloyd", objective_history=tuple(history))


def policy_from_json(text: str) -> Policy:
    """Read back the thresholds of a serialized solve."""
    return Policy(json.loads(text)["threshold"])


def exhaustive_threshold_search(model: TransitionModel, rewards: RewardSpec,
                                spec: GridSpec, eps=None) -> SolveResult:
    """Evaluate every admissible threshold vector and keep the best.

    Candidate thresholds live on the alignment bin edges, with each component
    cut below by the per-stage bound less half a bin (grid-resolution optima
    can sit that far under the continuous-state bound).  Intended as an
    independent oracle for small grids; the candidate count is guarded.
    """
    G0, G1 = _stage_tables(spec, rewards, eps)
    candidates = []
    slack = 0.5 / spec.N + 1e-12
    for m in range(spec.M):
        lb = threshold_lower_bound(float(spec.g_points[m]), rewards.P, rewards.alpha)
        allowed = [n for n in range(spec.N + 1) if spec.z_edges[n] >= lb - slack]
        candidates.append(allowed)
    total = math.prod(len(c) for c in candidates)
    if total > _SEARCH_CANDIDATES:
        raise ValueError(
            f"{total} threshold candidates exceed the search guard; use policy iteration"
        )
    best = None
    evaluated = 0
    for combo in itertools.product(*candidates):
        y = spec.z_edges[list(combo)]
        decide = threshold_table(y, spec)
        J, A, residual = _evaluate_policy(decide, model, G0, G1)
        evaluated += 1
        if best is None or J > best[0]:
            best = (J, y, A, residual)
    J, y, A, residual = best
    return SolveResult(policy=Policy(y), J=J, A=A, iterations=evaluated,
                       residual=residual)


def simulate_periodic(period: int, run: Run, rewards: RewardSpec) -> CurvePoint:
    """Perfect feedback every ``period`` slots regardless of state, on a run
    without a codebook."""
    if int(period) < 1:
        raise ValueError("period must be positive")
    events = np.arange(0, run.g.size, int(period))
    return _point(_measure(run, events, rewards.P), rewards.alpha)


def batch_stderr(series: np.ndarray) -> float:
    """Batch-means standard error of the mean of a correlated series."""
    b = min(_BATCHES, series.size)
    if b < 2:
        return 0.0
    n = (series.size // b) * b
    means = series[:n].reshape(b, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(b))


def schedule_trace(run: Run, events):
    """Per-slot alignment z and feedback flags of a schedule of feedback slots."""
    fb = np.zeros(run.g.size, dtype=bool)
    fb[events] = True
    return _held_alignment(run, events), fb


def series_point(g, z, fb, rewards: RewardSpec, config: TrajectoryConfig,
                 avg_threshold: float) -> CurvePoint:
    """A measured point from per-slot series: the rate of every slot and its
    net at the price, whose batch means give the standard error."""
    rate = np.log2(1.0 + rewards.P * g * z)
    post = slice(config.warmup, None)
    throughput = float(rate[post].mean())
    feedback_rate = float(fb[post].mean())
    net = throughput - rewards.alpha * feedback_rate
    series = rate[post] - rewards.alpha * fb[post]
    return CurvePoint(alpha=rewards.alpha, net=net, throughput=throughput,
                      feedback_rate=feedback_rate, avg_threshold=avg_threshold,
                      stderr=batch_stderr(series))


def periodic_segments(period: int, g: np.ndarray, S: np.ndarray,
                      rewards: RewardSpec, config: TrajectoryConfig):
    """Perfect feedback every ``period`` slots, segment by segment.

    The trajectory splits into whole segments of ``period`` slots, each
    holding the shape of its first slot, and a shorter remainder: one einsum
    takes every whole segment's alignment at once and a matrix-vector
    product the remainder's.  Returns (CurvePoint, z), the point with no
    threshold (NaN).
    """
    T = g.size
    z = np.empty(T)
    fb = np.zeros(T, dtype=bool)
    fb[::period] = True
    anchors = S[::period]
    nseg, rem = divmod(T, period)
    if nseg:
        body = S[:nseg * period].conj().reshape(nseg, period, -1)
        z[:nseg * period] = _alignment(
            np.einsum("skl,sl->sk", body, anchors[:nseg])).reshape(-1)
    if rem:
        z[nseg * period:] = _alignment(S[nseg * period:].conj() @ anchors[nseg])
    z[::period] = 1.0  # realigned in the feedback slot itself
    return series_point(g, z, fb, rewards, config, math.nan), z


def refinement_study(sizes, params: FadingParams, rewards: RewardSpec,
                     config: TrajectoryConfig):
    """Model-based gain at increasing grid resolutions.

    Monte Carlo budgets scale with the grid so that binning error, not
    estimation noise, dominates the differences.  Returns [(M, N, J), ...].
    """
    sizes = [(int(M), int(N)) for M, N in sizes]
    if not sizes or any(m2 * n2 <= m1 * n1 for (m1, n1), (m2, n2)
                        in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be nonempty and increasing")
    out = []
    for i, (M, N) in enumerate(sizes):
        rng = _streams(config.seed, _REFINEMENT_STREAM, i)
        samples = max(1000 * max(M, N), config.slots * max(M, N) // 16)
        spec = make_grid(params.L, M, N)
        model = estimate_transition_model(params, spec, samples, rng)
        J = policy_iteration_average(model, rewards, spec).J
        out.append((M, N, float(J)))
    return out


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
    quantized = doc["P1_row"] is None
    model = TransitionModel(
        Ptilde=np.array(doc["Ptilde"], dtype=float),
        P0=np.array(doc["P0"], dtype=float),
        feedback_row=np.array(doc["Peps1_row" if quantized else "P1_row"], dtype=float),
        sample_count=int(doc["sample_count"]),
        quantized=quantized,
    )
    return spec, model


def codebook_from_json(text: str) -> Codebook:
    """Inverse of codebook_to_json."""
    doc = json.loads(text)
    rows = np.asarray(doc["vectors"], dtype=float)
    if rows.ndim != 2 or rows.shape != (int(doc["size"]), 2 * int(doc["L"])):
        raise ValueError("vector block does not match the stated dimensions")
    V = rows[:, 0::2] + 1j * rows[:, 1::2]
    return Codebook(vectors=V, method=str(doc["method"]))
