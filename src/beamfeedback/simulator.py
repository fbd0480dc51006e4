"""Slot-level Monte Carlo evaluation of feedback policies.

Trajectories follow the first-order channel recursion; each slot the
controller bins the power and feeds back when the alignment lies below that
bin's threshold, while throughput accrues with the true power and alignment.
The policy cannot change the channel, only the beam, and the beam changes
only on feedback, so the whole trajectory is precomputed and a policy is
reduced to an event table (``_EventTable``): for every slot, the next
feedback slot had the beam been refreshed there.  Perfect and quantized
feedback share that machinery; they differ only in the beam a feedback slot
refreshes: the channel shape, or its codeword.  A feedback schedule is then
a list of event slots, and one held-beam pass measures every schedule alike:
a policy's events, every slot for always-on feedback, or every k-th slot for
the periodic baseline.  Every alignment it records, and every alignment a
policy decides on, is one per-row product (``channel._row_inner``).  All
randomness derives from one trajectory seed, and policies, prices and
baselines measure on one ``Run`` that the caller holds, so they share its
random numbers.  Net reward is linear in the price, so each price's
``CurvePoint`` is arithmetic on its schedule's batch means, and prices that
solve to one curve share its pass.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import FadingParams, _alignment, _blocks, _complex_normal, _row_inner
from .codebook import Codebook, _quantize, epsilon_statistics, quantization_errors
from .mdp import Policy, RewardSpec, policy_iteration_average
from .state_grid import GridSpec, _bin, estimate_transition_model

__all__ = [
    "TrajectoryConfig",
    "CurvePoint",
    "Run",
    "simulate_policy",
    "periodic_baseline",
    "sweep_alpha",
    "curve_to_csv",
]

_HORIZON = 64      # most lags in the event table
_SCAN_BLOCK = 256  # slots per step of a scan past the table
_SCAN_COST = 200   # one scan costs about this many table slot-lags
_BATCHES = 100

# Tag of the generator each purpose of a seeded run draws from (``_streams``).
_TRAJECTORY_STREAM = 0
_MODEL_STREAM = 1
_EPS_STREAM = 2
_CODEBOOK_STREAM = 6

CSV_HEADER = "alpha,net,throughput,feedback_rate,avg_threshold,stderr"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Length, warmup discard, and seed of one simulated run."""

    slots: int
    warmup: int = 1000
    seed: int = field(kw_only=True)

    def __post_init__(self):
        slots, warmup, seed = int(self.slots), int(self.warmup), int(self.seed)
        if slots < 1:
            raise ValueError("slots must be positive")
        if warmup < 0 or warmup >= slots:
            raise ValueError("warmup must be nonnegative and smaller than slots")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "warmup", warmup)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class CurvePoint:
    """One measured price: net reward, throughput, feedback rate, the
    policy's average threshold, which is the mean of its thresholds over the
    equiprobable power bins (NaN for a periodic schedule, which has none),
    and the net's standard error."""

    alpha: float
    net: float
    throughput: float
    feedback_rate: float
    avg_threshold: float
    stderr: float

    def __post_init__(self):
        if not 0.0 <= self.feedback_rate <= 1.0:
            raise ValueError("feedback rate must lie in [0, 1]")


def _streams(seed: int, *tag: int):
    """Independent generator for one purpose of a run.

    Each purpose has one tag, a ``_*_STREAM`` constant; the CLI draws from the
    same ones (through ``_design``), so its model, solve and evaluate
    commands and its figures see the kernels and solves of ``sweep_alpha``.
    Tag 3 is left to the grid-refinement reference in the tests, whose grid
    size i draws from the tag pair (3, i), a family no other purpose shares.
    Tag 4 is retired: the grid drew from it when its power points were
    sampled, and no purpose takes it over, so every other purpose keeps the
    draws it had.
    """
    return np.random.default_rng([int(seed), *tag])


def _trajectory(params: FadingParams, config: TrajectoryConfig):
    """Channel power, unit shapes and initial beam of a whole run, read-only.

    It is one pass of the first-order recursion h' = rho h + sqrt(1 - rho^2) w,
    built in one channel array: the innovations are drawn into its rows 1..,
    each antenna then runs the recursion over its column as a sequential
    Python loop, which keeps scipy.signal out of the import path and rounds
    exactly as a direct-form IIR filter does, and the rows are scaled to unit
    shapes in place.  Both run a block of slots at a time, each block of the
    recursion seeded with the slot before it, so no per-slot Python object
    or temporary spans the run.
    """
    L, rho, slots = params.L, params.rho, config.slots
    rng = _streams(config.seed, _TRAJECTORY_STREAM)
    H = np.empty((slots, L), dtype=complex)
    _complex_normal(rng, out=H[0])
    f0 = _complex_normal(rng, (L,))
    f0 /= np.linalg.norm(f0)
    if slots > 1:
        _complex_normal(rng, out=H[1:])
        H[1:] *= math.sqrt(1.0 - rho * rho)
        for l in range(L):
            for blk in _blocks(1, slots):
                prev = blk.start - 1  # seeds the block, and is written back unchanged
                H[prev:blk.stop, l] = np.fromiter(itertools.accumulate(
                    H[blk, l].tolist(), lambda y, x: x + rho * y,
                    initial=complex(H[prev, l])), dtype=complex, count=blk.stop - prev)
    g = np.empty(slots)
    for blk in _blocks(0, slots):
        rows = H[blk]
        g[blk] = np.einsum("tl,tl->t", rows.conj(), rows).real
        rows /= np.sqrt(g[blk])[:, None]
    for arr in (g, H, f0):
        arr.setflags(write=False)
    return g, H, f0


@dataclass(frozen=True, eq=False)
class Run:
    """One seeded run: the channel, trajectory config, grid and codebook
    (None for perfect feedback) that build it, and the read-only power
    ``g``, unit shapes ``S`` and initial beam ``f`` of one ``_trajectory``
    call, which every policy, price and baseline measured on it shares.

    The trajectory, the power bin ``m`` of every slot and, with a codebook,
    the codeword index ``code`` of every shape are computed on first use, so
    a design step (``_design``) holds no trajectory, and a caller can design
    every curve before any run builds one; a policy that never feeds back
    quantizes nothing, and a periodic schedule bins nothing; ``m`` and
    ``code`` take the narrowest integer type that holds them.  A run made
    from this one by ``dataclasses.replace`` shares its trajectory.
    """

    params: FadingParams
    config: TrajectoryConfig
    spec: GridSpec
    codebook: Codebook | None = None
    _built: list = field(default_factory=list, repr=False)  # [(g, S, f)] once built

    def __post_init__(self):
        if self.codebook is not None and self.codebook.L != self.params.L:
            raise ValueError(f"codebook has {self.codebook.L} antennas but the channel "
                             f"has {self.params.L}")

    @property
    def channel(self) -> tuple:
        """(g, S, f), built by the first call."""
        if not self._built:
            self._built.append(_trajectory(self.params, self.config))
        return self._built[0]

    g = property(lambda self: self.channel[0])
    S = property(lambda self: self.channel[1])
    f = property(lambda self: self.channel[2])

    @functools.cached_property
    def m(self) -> np.ndarray:
        m = np.empty(self.g.size, dtype=np.min_scalar_type(self.spec.M - 1))
        for blk in _blocks(0, m.size):
            m[blk] = _bin(self.g[blk], self.spec.g_edges)
        return m

    @functools.cached_property
    def code(self) -> np.ndarray:
        return _quantize(self.S, self.codebook.vectors)

    def beams(self, slots):
        """The beam held after feedback at the given slots: its shape or codeword."""
        if self.codebook is None:
            return self.S[slots]
        return self.codebook.vectors[self.code[slots]]


class _EventTable:
    """Feedback events of one policy on one trajectory.

    ``successor[t]`` is the next feedback slot had the beam been refreshed
    at slot t (the trajectory length when none follows), so a walk over it
    from the first feedback slot visits every event in order.

    The table is built lag by lag over the slots not yet resolved, for
    ``depth`` <= _HORIZON lags, each slot refreshed to its own beam
    (``Run.beams``: its shape, or its codeword); a slot left open holds 0,
    and an event there continues with a block scan past the table.
    Building stops early once the next lag costs more than the scans it
    would save: resolving a slot saves a scan only if an event falls there,
    about one slot in the mean gap, so slow fading with long gaps stops
    after a few lags and fast fading resolves nearly every slot.  Each lag
    takes the slots a block at a time (``_blocks``), so no copy of the
    shapes or beams it reads grows with the trajectory, and packs the slots
    it leaves open into the array of the open slots in place, so the build
    holds the table and that array only, each in its narrowest integer type.

    A decision is one comparison of the alignment with the threshold of
    its slot's power bin, looked up for the slots decided on (``y_inf``,
    per bin); a threshold of 1 feeds back at every alignment and compares
    with inf, since z = 1 is an alignment too.
    """

    def __init__(self, y, run: Run):
        self.run = run
        self.S, self.f, self.T = run.S, run.f, run.g.size
        self.y_inf = np.where(y == 1.0, np.inf, y)
        self.depth = 0
        self.first = self.scan(0, self.f)
        self.successor = self._lag_successors()

    def hit(self, slots, z):
        """Policy decision at the given slots for alignments z."""
        return z < self.y_inf[self.run.m[slots]]

    def scan(self, start: int, beam) -> int:
        """First feedback slot at or after ``start`` while ``beam`` is held."""
        for t in range(start, self.T, _SCAN_BLOCK):
            blk = slice(t, min(self.T, t + _SCAN_BLOCK))
            hit = self.hit(blk, _alignment(_row_inner(self.S[blk].conj(), beam)))
            if hit.any():
                return t + int(np.argmax(hit))
        return self.T

    def _lag_successors(self):
        T, S, run = self.T, self.S, self.run
        successor = np.zeros(T, dtype=np.min_scalar_type(T))
        t = np.arange(T, dtype=np.min_scalar_type(T - 1))
        work = 0  # slot-lags evaluated, so work / T bounds the mean gap below
        for k in range(1, _HORIZON + 1):
            # t is ascending, so the slots with no slot k later form its tail
            keep = int(np.searchsorted(t, T - k))
            successor[t[keep:]] = T
            t = t[:keep]
            self.depth = k
            if not t.size:
                break
            left = 0  # the slots still open are packed into t[:left], in order
            for blk in _blocks(0, t.size):
                now = t[blk]
                later = now + k
                hit = self.hit(later, _alignment(_row_inner(S[later].conj(),
                                                            run.beams(now))))
                done = now[hit]
                successor[done] = done + k
                now = now[~hit]
                t[left:left + now.size] = now
                left += now.size
            work += t.size
            if (t.size - left) * _SCAN_COST < t.size * work / T:
                break
            t = t[:left]
        return successor

    def events(self) -> np.ndarray:
        """Feedback slots in order, from a walk over the successor table.
        The walk reads the table through a memoryview and collects the
        slots as machine integers, so it makes no Python object per slot."""
        out = array.array(np.dtype(np.intp).char)
        successor = memoryview(self.successor)
        e = self.first
        while e < self.T:
            out.append(e)
            e = successor[e] or self.scan(e + self.depth + 1, self.run.beams(e))
        return np.frombuffer(out, dtype=np.intp)


def _held_alignment(run: Run, events) -> np.ndarray:
    """Per-slot alignment under a schedule of feedback slots: the initial
    beam until the first event, then the beam of the latest event, taken a
    block of slots at a time.  Each block searches the schedule for the
    events it holds, so no per-slot array spans the run.  With a codebook,
    an event slot's product is its eps; with perfect feedback it is 1."""
    S, T = run.S, run.g.size
    z = np.empty(T)
    first = events[0] if events.size else T
    for blk in _blocks(0, first):
        z[blk] = _alignment(_row_inner(S[blk].conj(), run.f))
    for blk in _blocks(first, T):
        lo, hi = np.searchsorted(events, (blk.start, blk.stop), side="right")
        held = events[lo - 1:hi]  # the events whose beams the block holds
        own = np.repeat(held, np.diff(np.maximum(held, blk.start), append=blk.stop))
        z[blk] = _alignment(_row_inner(S[blk].conj(), run.beams(own)))
    if run.codebook is None:
        z[events] = 1.0
    return z


def _events(y, run: Run) -> np.ndarray:
    """Feedback slots of the thresholds y on a run, in order."""
    if np.all(y == 1.0):
        return np.arange(run.g.size)
    if np.any(y > 0.0):
        return _EventTable(y, run).events()
    return np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class _Measured:
    """A schedule after the warmup: throughput, feedback rate, and the
    _BATCHES batch means of the rate and of the feedback flags."""

    throughput: float
    feedback_rate: float
    rate_means: np.ndarray
    fb_means: np.ndarray


def _measure(run: Run, events, P: float) -> _Measured:
    """One held-beam pass over a schedule of feedback slots at SNR P.  The
    rate log2(1 + P g z) is formed in place on the held alignments, a block
    of slots at a time, so it makes no per-slot temporary."""
    post = slice(run.config.warmup, None)
    rate = _held_alignment(run, events)
    for blk in _blocks(0, rate.size):
        r = rate[blk]
        r *= P * run.g[blk]
        r += 1.0
        np.log2(r, out=r)
    rate = rate[post]
    fb = np.zeros(run.g.size, dtype=bool)
    fb[events] = True
    fb = fb[post]
    b = min(_BATCHES, rate.size)
    n = (rate.size // b) * b
    return _Measured(float(rate.mean()), float(fb.mean()),
                     *(x[:n].reshape(b, -1).mean(axis=1) for x in (rate, fb)))


def _point(m: _Measured, alpha: float, y=None) -> CurvePoint:
    """A schedule measured at price alpha, made by the thresholds y if any.
    Net reward is linear in the price, and so are its batch means, whose
    spread is the net's standard error (0 with fewer than two).  No feedback
    moves the power, so its bins stay equiprobable (``make_grid``) and the
    average threshold is the plain mean of y, taken about y[0] so a
    constant curve averages to it (NaN without thresholds)."""
    series = m.rate_means - alpha * m.fb_means
    b = series.size
    stderr = float(np.std(series, ddof=1) / math.sqrt(b)) if b >= 2 else 0.0
    avg = math.nan if y is None else float(y[0] + np.mean(y - y[0]))
    return CurvePoint(alpha, m.throughput - alpha * m.feedback_rate, m.throughput,
                      m.feedback_rate, avg, stderr)


def simulate_policy(policy: Policy, run: Run, rewards: RewardSpec) -> CurvePoint:
    """Run a feedback policy over a simulated run.

    Each slot the true power is binned and the policy feeds back when the
    true alignment lies below the bin's threshold; on feedback the beam is
    set to the current shape (or its codebook quantization) within the same
    slot, so the slot's alignment is already the realigned one.  Throughput
    always uses the true channel.  Any thresholds in [0, 1], one per power
    bin, are accepted; a walk over an event table (``_EventTable``) yields
    the feedback slots.  This is the one-price call of ``_measure_curve``.
    """
    if policy.y.size != run.spec.M:
        raise ValueError("policy dimensions do not match the grid")
    return _measure_curve([rewards.alpha], [policy.y], run, rewards.P)[0]


def periodic_baseline(run: Run, P: float, alphas, max_period: int):
    """Best fixed feedback interval in 1..max_period at each price.

    A fixed interval does not depend on the price, so each interval is
    measured once on the run, with perfect feedback whatever codebook the
    run carries, and each price takes its best interval's point from that
    record (ties go to the shorter interval).

    Returns [(best_period, CurvePoint), ...], one pair per price; a
    periodic point has no threshold, and its ``avg_threshold`` is NaN.
    """
    if int(max_period) < 1:
        raise ValueError("max_period must be positive")
    # every price, and P with no price too, is checked before any pass
    prices = [RewardSpec(P=P, alpha=a).alpha for a in (0.0, *alphas)][1:]
    run = replace(run, codebook=None)
    measured = [_measure(run, np.arange(0, run.g.size, k), P)
                for k in range(1, int(max_period) + 1)]
    best = []
    for a in prices:
        k = int(np.argmax([m.throughput - a * m.feedback_rate for m in measured]))
        best.append((k + 1, _point(measured[k], a)))
    return best


def _design(alphas, run: Run, P: float, samples: int):
    """The design step of a seeded run: (model, solves), its transition
    model and one ``SolveResult`` per price at SNR ``P``, in order.  With a
    codebook, the model's feedback row and the prices' quantized rates (none
    without prices) come from one sample of quantization errors."""
    seed, errors, eps = run.config.seed, None, None
    if run.codebook is not None:
        errors = quantization_errors(run.codebook, samples, _streams(seed, _EPS_STREAM))
    model = estimate_transition_model(run.params, run.spec, samples,
                                      _streams(seed, _MODEL_STREAM), eps=errors)
    if errors is not None and alphas:
        eps = epsilon_statistics(errors, P, run.spec.g_points)
    del errors  # read by the model and the statistics only
    return model, tuple(policy_iteration_average(model, RewardSpec(P=P, alpha=a), run.spec,
                                                 eps=eps) for a in alphas)


def _measure_curve(alphas, curves, run: Run, P: float) -> tuple:
    """Threshold curves, one per price, measured on a run at SNR ``P``: one
    CurvePoint per price, in order.  Prices with one threshold curve share
    its schedule, which is measured once."""
    records, points = [], []  # records: (y, _Measured) of each distinct curve
    for a, y in zip(alphas, curves):
        m = next((m for u, m in records if np.array_equal(u, y)), None)
        if m is None:
            records.append((y, m := _measure(run, _events(y, run), P)))
        points.append(_point(m, a, y))
    return tuple(points)


def sweep_alpha(alphas, run: Run, P: float, model_samples: int) -> tuple:
    """Solve and evaluate the controller at SNR ``P`` across feedback prices.

    Every price is solved by ``_design`` before the run builds its
    trajectory, and then measured on the run (``_measure_curve``).  Returns
    one CurvePoint per price, in order.
    """
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])) or not alphas:
        raise ValueError("alphas must be nonempty and strictly increasing")
    solves = _design(alphas, run, P, model_samples)[1]
    return _measure_curve(alphas, [s.policy.y for s in solves], run, P)


def curve_to_csv(points) -> str:
    """Render measured points as comma-separated text with a fixed header."""
    lines = [CSV_HEADER]
    for p in points:
        vals = (p.alpha, p.net, p.throughput, p.feedback_rate,
                p.avg_threshold, p.stderr)
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"
