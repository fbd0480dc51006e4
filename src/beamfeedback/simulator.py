"""Slot-level Monte Carlo evaluation of feedback policies.

Trajectories follow the first-order channel recursion; the controller sees
the binned state and decides feedback per slot, while throughput accrues
with the true power and alignment.  The policy cannot change the channel,
only the beam, and the beam changes only on feedback, so the whole
trajectory is precomputed and a policy is reduced to an event table: for
every slot, the next feedback slot had the beam been refreshed there.  A
walk over that table from the first feedback slot visits every event.  With
a codebook the table is exact, one vectorised pass per codeword; with
perfect feedback it is built lag by lag, and an event whose next feedback
lies past the table continues with a block scan.  All randomness derives
from one trajectory seed, giving common random numbers across policies,
prices, and baselines.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, _complex_normal
from .codebook import _quantize_rows, epsilon_statistics
from .mdp import (
    Policy,
    RewardSpec,
    extract_threshold,
    policy_iteration_average,
)
from .state_grid import GridSpec, estimate_transition_model, make_grid

__all__ = [
    "TrajectoryConfig",
    "EvalResult",
    "CurvePoint",
    "Curve",
    "simulate_policy",
    "simulate_periodic",
    "periodic_baseline",
    "sweep_alpha",
    "average_threshold",
    "refinement_study",
    "curve_to_csv",
]

_HORIZON = 64      # most lags in the perfect-feedback event table
_SCAN_BLOCK = 256  # slots per step of a scan past the table
_SCAN_COST = 200   # one scan costs about this many table slot-lags
_BATCHES = 100

CSV_HEADER = "alpha,net,throughput,feedback_rate,avg_threshold,stderr"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Length, warmup discard, and seed of one simulated run."""

    slots: int
    warmup: int = 1000
    seed: int | None = None

    def __post_init__(self):
        slots, warmup = int(self.slots), int(self.warmup)
        if slots < 1:
            raise ValueError("slots must be positive")
        if warmup < 0 or warmup >= slots:
            raise ValueError("warmup must be nonnegative and smaller than slots")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "warmup", warmup)


@dataclass(frozen=True)
class EvalResult:
    """Measured throughput, feedback rate, net reward, and its standard error."""

    throughput: float
    feedback_rate: float
    net: float
    stderr: float

    def __post_init__(self):
        if not 0.0 <= self.feedback_rate <= 1.0:
            raise ValueError("feedback rate must lie in [0, 1]")


@dataclass(frozen=True)
class CurvePoint:
    """One price point of a sweep; avg_threshold is NaN off threshold policies."""

    alpha: float
    net: float
    throughput: float
    feedback_rate: float
    avg_threshold: float
    stderr: float


@dataclass(frozen=True)
class Curve:
    """Sweep records ordered by strictly increasing price."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        alphas = [p.alpha for p in pts]
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("curve prices must be strictly increasing")
        object.__setattr__(self, "points", pts)


def _streams(seed, tag: int):
    """Independent generator for one purpose of a seeded run."""
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([int(seed), tag])


def _trajectory(params: FadingParams, config: TrajectoryConfig):
    """Channel power, unit shapes, and an initial beam for a whole run.

    The policy cannot influence the channel, so every policy, price and
    baseline of a seeded run shares one trajectory: the last seeded one is
    kept, read-only, and handed back while the same run asks for it.
    """
    if config.seed is None:
        return _build_trajectory(params.L, params.rho, config.slots, None)
    return _shared_trajectory(params.L, params.rho, config.slots, config.seed)


@functools.lru_cache(maxsize=1)
def _shared_trajectory(L: int, rho: float, slots: int, seed):
    traj = _build_trajectory(L, rho, slots, seed)
    for arr in traj:
        arr.setflags(write=False)
    return traj


def _build_trajectory(L: int, rho: float, slots: int, seed):
    """One pass of the first-order recursion h' = rho h + sqrt(1 - rho^2) w.

    Each antenna runs the recursion as a sequential Python loop, which keeps
    scipy.signal out of the import path and rounds exactly as a direct-form
    IIR filter does.
    """
    rng = _streams(seed, 0)
    h0 = _complex_normal(rng, (L,))
    f0 = _complex_normal(rng, (L,))
    f0 /= np.linalg.norm(f0)
    H = np.empty((slots, L), dtype=complex)
    H[0] = h0
    if slots > 1:
        drive = math.sqrt(1.0 - rho * rho) * _complex_normal(rng, (slots - 1, L))
        for l in range(L):
            H[:, l] = np.fromiter(itertools.accumulate(
                drive[:, l].tolist(), lambda y, x: x + rho * y,
                initial=complex(h0[l])), dtype=complex, count=slots)
    g = np.einsum("tl,tl->t", H.conj(), H).real
    S = H / np.sqrt(g)[:, None]
    return g, S, f0


def _batch_stderr(series: np.ndarray, batches: int = _BATCHES) -> float:
    """Batch-means standard error of the mean of a correlated series."""
    b = min(batches, series.size)
    if b < 2:
        return 0.0
    n = (series.size // b) * b
    means = series[:n].reshape(b, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(b))


def _aggregate(g, z, fb, rewards: RewardSpec, config: TrajectoryConfig) -> EvalResult:
    rate = np.log2(1.0 + rewards.P * g * z)
    post = slice(config.warmup, None)
    throughput = float(rate[post].mean())
    feedback_rate = float(fb[post].mean())
    net = throughput - rewards.alpha * feedback_rate
    series = rate[post] - rewards.alpha * fb[post]
    return EvalResult(throughput=throughput, feedback_rate=feedback_rate,
                      net=net, stderr=_batch_stderr(series))


def _alignment(w: np.ndarray) -> np.ndarray:
    """Squared beam alignment from inner products, clipped at one."""
    return np.minimum(np.abs(w) ** 2, 1.0)


def _row_inner(Sc_rows: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Inner product of each conjugated shape row with its own beam row.

    np.multiply keeps the operand order fixed (an operator expression may
    reuse a temporary's buffer with the operands swapped, which rounds the
    fused complex product differently), and the antenna sum runs in index
    order, as a BLAS matrix-vector product does.
    """
    prod = np.multiply(Sc_rows, beams)
    w = prod[:, 0].copy()
    for l in range(1, prod.shape[1]):
        w += prod[:, l]
    return w


def _check_codebook(codebook, params: FadingParams):
    if codebook is not None and codebook.L != params.L:
        raise ValueError(f"codebook has {codebook.L} antennas but the channel "
                         f"has {params.L}")


def _next_hit_after(hit: np.ndarray) -> np.ndarray:
    """For every slot t, the first later slot s with hit[s], else len(hit)."""
    T = hit.size
    later = np.where(hit[1:], np.arange(1, T), T)
    out = np.empty(T, dtype=np.intp)
    out[:-1] = np.minimum.accumulate(later[::-1])[::-1]
    out[-1] = T
    return out


class _EventTable:
    """Feedback events of one policy on one trajectory.

    ``successor[t]`` is the next feedback slot had the beam been refreshed
    at slot t (the trajectory length when none follows), so a walk over it
    from the first feedback slot visits every event in order.

    With a codebook the refreshed beam is one of finitely many codewords,
    so one pass per codeword over the whole trajectory gives every
    successor exactly.  With perfect feedback the table is built lag by lag
    over the slots not yet resolved, for ``depth`` <= _HORIZON lags; a slot
    left open holds 0, and an event there continues with a block scan past
    the table.  Building stops early once the next lag costs more than the
    scans it would save: resolving a slot saves a scan only if an event
    falls there, about one slot in the mean gap, so slow fading with long
    gaps stops after a few lags and fast fading resolves nearly every slot.
    """

    def __init__(self, decide, spec: GridSpec, g, S, f, codebook):
        self.decide, self.spec, self.codebook = decide, spec, codebook
        self.S, self.Sc, self.f = S, S.conj(), f
        self.T = g.size
        self.m = np.minimum(np.searchsorted(spec.g_edges, g, side="right") - 1,
                            spec.M - 1)
        self.depth = 0
        self.first = self.scan(0, f)
        if codebook is None:
            self.successor = self._lag_successors()
        else:
            self.code, self.eps = _quantize_rows(self.Sc, codebook.vectors)
            self.successor = self._codeword_successors()

    def hit(self, slots, z):
        """Policy decision at the given slots for alignments z."""
        spec = self.spec
        n = np.minimum(np.searchsorted(spec.z_edges, z, side="right") - 1,
                       spec.N - 1)
        return self.decide[self.m[slots], n]

    def scan(self, start: int, beam) -> int:
        """First feedback slot at or after ``start`` while ``beam`` is held."""
        for t in range(start, self.T, _SCAN_BLOCK):
            blk = slice(t, min(self.T, t + _SCAN_BLOCK))
            hit = self.hit(blk, _alignment(self.Sc[blk] @ beam))
            if hit.any():
                return t + int(np.argmax(hit))
        return self.T

    def _codeword_successors(self):
        successor = np.empty(self.T, dtype=np.intp)
        for k, c in enumerate(self.codebook.vectors):
            nxt = _next_hit_after(self.hit(slice(None), _alignment(self.Sc @ c)))
            mine = self.code == k
            successor[mine] = nxt[mine]
        return successor

    def _lag_successors(self):
        T, Sc = self.T, self.Sc
        successor = np.zeros(T, dtype=np.intp)
        t, beam = np.arange(T), self.S
        work = 0  # slot-lags evaluated, so work / T bounds the mean gap below
        for k in range(1, _HORIZON + 1):
            # t is ascending, so the slots with no slot k later form its tail
            keep = int(np.searchsorted(t, T - k))
            successor[t[keep:]] = T
            t, beam = t[:keep], beam[:keep]
            self.depth = k
            if not t.size:
                break
            later = t + k
            hit = self.hit(later, _alignment(
                _row_inner(np.take(Sc, later, axis=0), beam)))
            successor[t[hit]] = later[hit]
            miss = ~hit
            work += t.size
            resolved = t.size - int(miss.sum())
            if resolved * _SCAN_COST < t.size * work / T:
                break
            t, beam = t[miss], np.compress(miss, beam, axis=0)
        return successor

    def events(self) -> np.ndarray:
        """Feedback slots in order, from a walk over the successor table."""
        out = []
        successor = self.successor.tolist()
        e = self.first
        while e < self.T:
            out.append(e)
            e = successor[e] or self.scan(e + self.depth + 1, self.S[e])
        return np.array(out, dtype=np.intp)

    def alignment(self, events) -> np.ndarray:
        """Per-slot alignment: the initial beam, then each event's beam."""
        T, Sc = self.T, self.Sc
        z = np.empty(T)
        first = events[0] if events.size else T
        z[:first] = _alignment(Sc[:first] @ self.f)
        if not events.size:
            return z
        owner = np.repeat(events, np.diff(events, append=T))
        if self.codebook is None:
            z[first:] = _alignment(_row_inner(Sc[first:], self.S[owner]))
            z[events] = 1.0
        else:
            code = self.code[owner]
            tail = z[first:]
            for k, c in enumerate(self.codebook.vectors):
                mine = code == k
                tail[mine] = _alignment(Sc[first:][mine] @ c)
            z[events] = self.eps[events]
        return z


def _feedback_trace(decide, spec: GridSpec, g, S, f, codebook):
    """Per-slot alignment z and feedback flags of a policy on a trajectory."""
    T = g.size
    fb = np.zeros(T, dtype=bool)
    if not decide.any():
        return _alignment(S.conj() @ f), fb
    if decide.all():
        fb[:] = True
        if codebook is None:
            return np.ones(T), fb
        return _quantize_rows(S.conj(), codebook.vectors)[1], fb
    table = _EventTable(decide, spec, g, S, f, codebook)
    events = table.events()
    fb[events] = True
    return table.alignment(events), fb


def simulate_policy(policy: Policy, spec: GridSpec, params: FadingParams,
                    rewards: RewardSpec, config: TrajectoryConfig,
                    codebook=None) -> EvalResult:
    """Run a feedback policy over one simulated trajectory.

    Each slot the true state is binned, the policy consulted, and on
    feedback the beam is set to the current shape (or its codebook
    quantization) within the same slot, so the slot's alignment is already
    the realigned one.  Throughput always uses the true channel.  A policy
    that feeds back in some states and not others runs through an event
    table (see _EventTable): vectorised passes over the whole trajectory
    find, for every slot, the next feedback slot had the beam been refreshed
    there, and a walk over those slot indices yields the feedback events.
    """
    decide = policy.decide
    if decide.shape != (spec.M, spec.N):
        raise ValueError("policy dimensions do not match the grid")
    _check_codebook(codebook, params)
    g, S, f = _trajectory(params, config)
    z, fb = _feedback_trace(decide, spec, g, S, f, codebook)
    return _aggregate(g, z, fb, rewards, config)


def _periodic_eval(period: int, traj, rewards: RewardSpec,
                   config: TrajectoryConfig, codebook) -> EvalResult:
    g, S, _ = traj
    T = config.slots
    z = np.empty(T)
    fb = np.zeros(T, dtype=bool)
    fb[::period] = True
    anchors = S[::period]
    if codebook is None:
        A = anchors
    else:
        A = codebook.vectors[_quantize_rows(anchors.conj(), codebook.vectors)[0]]
    nseg, rem = divmod(T, period)
    if nseg:
        body = S[:nseg * period].conj().reshape(nseg, period, -1)
        z[:nseg * period] = np.abs(
            np.einsum("skl,sl->sk", body, A[:nseg])).reshape(-1) ** 2
    if rem:
        z[nseg * period:] = np.abs(S[nseg * period:].conj() @ A[nseg]) ** 2
    np.minimum(z, 1.0, out=z)
    if codebook is None:
        z[::period] = 1.0  # realigned in the feedback slot itself
    return _aggregate(g, z, fb, rewards, config)


def simulate_periodic(period: int, params: FadingParams, rewards: RewardSpec,
                      config: TrajectoryConfig, codebook=None) -> EvalResult:
    """Feedback every ``period`` slots regardless of state."""
    if int(period) < 1:
        raise ValueError("period must be positive")
    _check_codebook(codebook, params)
    traj = _trajectory(params, config)
    return _periodic_eval(int(period), traj, rewards, config, codebook)


def periodic_baseline(params: FadingParams, P: float, alphas, max_period: int,
                      config: TrajectoryConfig, codebook=None):
    """Best fixed feedback interval in 1..max_period at each price.

    Throughput and feedback rate of a fixed interval do not depend on the
    price, so every interval is measured once on the shared trajectory; the
    best interval per price (ties go to the shorter one) is then evaluated
    again at that price for its net and error bar.

    Returns [(best_period, EvalResult), ...], one pair per price.
    """
    if int(max_period) < 1:
        raise ValueError("max_period must be positive")
    _check_codebook(codebook, params)
    traj = _trajectory(params, config)
    base = [_periodic_eval(k, traj, RewardSpec(P=P, alpha=0.0), config, codebook)
            for k in range(1, int(max_period) + 1)]
    best = []
    for a in alphas:
        k = 1 + int(np.argmax([r.throughput - a * r.feedback_rate for r in base]))
        best.append((k, _periodic_eval(k, traj, RewardSpec(P=P, alpha=a), config,
                                       codebook)))
    return best


def average_threshold(profile, pi) -> float:
    """Occupancy-weighted feedback threshold over the power bins."""
    if not profile.is_threshold:
        raise ValueError("average threshold needs a threshold policy")
    y = np.asarray(profile.y, dtype=float)
    marginal = pi.pi.sum(axis=1)
    if marginal.shape != y.shape:
        raise ValueError("occupancy and threshold sizes do not match")
    return float(min(1.0, max(0.0, marginal @ y)))


def sweep_alpha(alphas, spec: GridSpec, params: FadingParams,
                rewards: RewardSpec, config: TrajectoryConfig, codebook=None,
                model_samples: int = 1_000_000) -> Curve:
    """Solve and evaluate the controller across feedback prices.

    One transition model (and, with a codebook, one set of quantized-rate
    statistics) serves every price; each price is solved exactly on the
    model and then measured on the common simulated trajectory.
    """
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])) or not alphas:
        raise ValueError("alphas must be nonempty and strictly increasing")
    model = estimate_transition_model(params, spec, model_samples,
                                      _streams(config.seed, 1),
                                      codebook=codebook)
    eps = None
    if codebook is not None:
        eps = epsilon_statistics(codebook, params.L, rewards.P, spec.g_points,
                                 model_samples, _streams(config.seed, 2))
    quantized = codebook is not None
    points = []
    for a in alphas:
        r = RewardSpec(P=rewards.P, alpha=a)
        solved = policy_iteration_average(model, r, spec, eps=eps,
                                          quantized_row=quantized)
        measured = simulate_policy(solved.policy, spec, params, r, config,
                                   codebook=codebook)
        profile = extract_threshold(solved.policy, spec)
        avg_y = average_threshold(profile, solved.pi) if profile.is_threshold \
            else math.nan
        points.append(CurvePoint(alpha=a, net=measured.net,
                                 throughput=measured.throughput,
                                 feedback_rate=measured.feedback_rate,
                                 avg_threshold=avg_y, stderr=measured.stderr))
    return Curve(points=tuple(points))


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
        rng = _streams(config.seed, 3 + i)
        samples = max(1000 * max(M, N), config.slots * max(M, N) // 16)
        spec = make_grid(params.L, M, N, samples, rng)
        model = estimate_transition_model(params, spec, samples, rng)
        J = policy_iteration_average(model, rewards, spec).J
        out.append((M, N, float(J)))
    return out


def curve_to_csv(curve: Curve) -> str:
    """Render a sweep as comma-separated text with a fixed header."""
    lines = [CSV_HEADER]
    for p in curve.points:
        vals = (p.alpha, p.net, p.throughput, p.feedback_rate,
                p.avg_threshold, p.stderr)
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"
