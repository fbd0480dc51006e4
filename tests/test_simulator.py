"""Tests for the trajectory simulator.

The throughput oracles are numerical integrals over the stationary laws:
power is Gamma(L, 1) and the alignment of a stale isotropic beam is
Beta(1, L-1).  Simulated means must land within a few reported standard
errors of those integrals.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, signal, stats

from beamfeedback import channel, simulator
from beamfeedback.channel import FadingParams, _alignment, _complex_normal, _row_inner
from beamfeedback.codebook import (
    Codebook,
    _quantize,
    lloyd_codebook,
    random_codebook,
)
from beamfeedback.mdp import Policy, RewardSpec, policy_iteration_average
from beamfeedback.simulator import (
    CSV_HEADER,
    CurvePoint,
    Run,
    TrajectoryConfig,
    curve_to_csv,
    periodic_baseline,
    simulate_policy,
    sweep_alpha,
)
from beamfeedback.state_grid import GridSpec, estimate_transition_model, make_grid

from oracles import (
    _REFINEMENT_STREAM,
    average_reward,
    bin_decision,
    periodic_segments,
    quantize_shape,
    refinement_study,
    schedule_trace,
    series_point,
    simulate_periodic,
    threshold_table,
)


# ----------------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------------

def stale_beam_rate_oracle(P, L):
    """E[log2(1 + P g z)] for g ~ Gamma(L,1) and z ~ Beta(1, L-1)."""
    val, err = integrate.dblquad(
        lambda z, g: math.log2(1.0 + P * g * z) * stats.gamma.pdf(g, L)
        * (L - 1) * (1.0 - z) ** (L - 2),
        0.0, 60.0, 0.0, 1.0)
    assert err < 1e-6
    return val

def fresh_beam_rate_oracle(P, L):
    """E[log2(1 + P g)] for g ~ Gamma(L, 1)."""
    val, err = integrate.quad(
        lambda g: math.log2(1.0 + P * g) * stats.gamma.pdf(g, L), 0.0, np.inf)
    assert err < 1e-6
    return val


PARAMS = FadingParams(L=3, doppler_slot=0.1)
REWARDS = RewardSpec(P=100.0, alpha=0.5)
RUN = TrajectoryConfig(slots=400_000, warmup=1000, seed=99)


@pytest.fixture(scope="module")
def grid8():
    return make_grid(3, 8, 8)


@pytest.fixture(scope="module")
def run400k(grid8):
    return Run(PARAMS, RUN, grid8)


@pytest.fixture(scope="module")
def model8(grid8):
    return estimate_transition_model(PARAMS, grid8, 200_000,
                                     np.random.default_rng(4243))


def never(spec):
    return Policy(np.zeros(spec.M))


def always(spec):
    return Policy(np.ones(spec.M))


# ----------------------------------------------------------------------------
# configuration types
# ----------------------------------------------------------------------------

class TestTypes:
    def test_config_validation(self):
        cfg = TrajectoryConfig(slots=5000, warmup=100, seed=1)
        assert cfg.slots == 5000 and cfg.warmup == 100
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=0, seed=1)
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=100, warmup=100, seed=1)
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=100, warmup=-1, seed=1)
        # every run is seeded, so its policies and prices share one trajectory
        with pytest.raises(TypeError):
            TrajectoryConfig(slots=100)
        with pytest.raises(TypeError):
            TrajectoryConfig(100, 10, 1)  # the seed is keyword-only
        with pytest.raises(ValueError, match="seed"):
            TrajectoryConfig(slots=100, warmup=0, seed=-1)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, math.nan])
    def test_curve_point_validation(self, rate):
        fields = dict(alpha=0.5, net=1.0, throughput=1.0, avg_threshold=math.nan,
                      stderr=0.0)
        CurvePoint(feedback_rate=1.0, **fields)
        with pytest.raises(ValueError, match="feedback rate"):
            CurvePoint(feedback_rate=rate, **fields)


class TestStreams:
    def test_stream_tags_are_distinct_and_skip_the_reserved_ones(self):
        # tag 3 is the tests' refinement reference and tag 4 is retired (the
        # grid's, when it drew): a purpose that took either, or shared a tag,
        # would shift the draws of another
        tags = {name: value for name, value in vars(simulator).items()
                if name.startswith("_") and name.endswith("_STREAM")}
        assert {"_TRAJECTORY_STREAM", "_MODEL_STREAM", "_EPS_STREAM",
                "_CODEBOOK_STREAM"} <= set(tags)
        assert len(set(tags.values())) == len(tags)
        assert _REFINEMENT_STREAM == 3 and not {3, 4} & set(tags.values())


# ----------------------------------------------------------------------------
# shared trajectories against the direct-form filter
# ----------------------------------------------------------------------------

def lfilter_trajectory(params, config):
    """Reference trajectory: the AR(1) recursion as one IIR filter pass."""
    rng = simulator._streams(config.seed, simulator._TRAJECTORY_STREAM)
    T, L, rho = config.slots, params.L, params.rho
    h0 = _complex_normal(rng, (L,))
    f0 = _complex_normal(rng, (L,))
    f0 /= np.linalg.norm(f0)
    H = np.empty((T, L), dtype=complex)
    H[0] = h0
    if T > 1:
        drive = math.sqrt(1.0 - rho * rho) * _complex_normal(rng, (T - 1, L))
        H[1:], _ = signal.lfilter([1.0], [1.0, -rho], drive, axis=0,
                                  zi=(rho * h0)[None, :])
    g = np.einsum("tl,tl->t", H.conj(), H).real
    S = H / np.sqrt(g)[:, None]
    return g, S, f0


class TestTrajectory:
    # 0.3827 puts 2*pi*doppler at the first zero of J0, so rho is about 0
    @pytest.mark.parametrize("doppler", [0.0, 0.01, 0.1, 0.3827])
    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_matches_lfilter_bit_for_bit(self, L, doppler):
        params = FadingParams(L=L, doppler_slot=doppler)
        # a run of two whole slot blocks past its first slot carries the
        # recursion into a block that ends the run
        for slots in (1, 2, 5000, 2 * channel._BLOCK + 1):
            cfg = TrajectoryConfig(slots=slots, warmup=0, seed=31)
            got = simulator._trajectory(params, cfg)
            want = lfilter_trajectory(params, cfg)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_two_builds_of_one_config_are_identical_and_read_only(self, grid8):
        # no store outside the run keeps a trajectory: each run builds its
        # own, the same to the bit for the same config
        cfg = TrajectoryConfig(slots=3000, seed=37)
        a, b = (Run(PARAMS, cfg, grid8).channel for _ in range(2))
        for x, y in zip(a, b):
            assert x is not y and np.array_equal(x, y)
            with pytest.raises(ValueError):
                x[0] = 0.0
        other = Run(PARAMS, dataclasses.replace(cfg, seed=38), grid8)
        assert not np.array_equal(other.g, a[0])

    def test_shared_trajectory_is_read_only(self, grid8):
        # a run made from another with a different codebook shares its
        # trajectory, built once on first use
        run = Run(PARAMS, TrajectoryConfig(slots=3000, seed=41), grid8)
        quantized = dataclasses.replace(run, codebook=random_codebook(3, 8, 42))
        assert all(x is y for x, y in zip(quantized.channel, run.channel))
        for arr in run.channel:
            with pytest.raises(ValueError):
                arr[0] = 0.0


# ----------------------------------------------------------------------------
# policy simulation against the integral oracles
# ----------------------------------------------------------------------------

class TestSimulatePolicy:
    def test_never_feedback_matches_integral(self, grid8, run400k):
        res = simulate_policy(never(grid8), run400k, REWARDS)
        want = stale_beam_rate_oracle(100.0, 3)
        assert res.feedback_rate == 0.0
        assert res.net == res.throughput
        assert abs(res.throughput - want) <= 3.0 * res.stderr + 1e-9

    def test_always_feedback_matches_integral(self, grid8, run400k):
        res = simulate_policy(always(grid8), run400k, REWARDS)
        want = fresh_beam_rate_oracle(100.0, 3)
        assert res.feedback_rate == 1.0
        assert abs(res.throughput - want) <= 3.0 * res.stderr + 1e-9

    def test_never_feedback_with_a_codebook_quantizes_nothing(self, grid8, monkeypatch):
        # a policy that never feeds back reads no quantized shape
        calls = []
        quantize = simulator._quantize
        monkeypatch.setattr(simulator, "_quantize",
                            lambda *args: calls.append(args) or quantize(*args))
        run = Run(PARAMS, TrajectoryConfig(slots=20_000, seed=58), grid8)
        res = simulate_policy(never(grid8), dataclasses.replace(
            run, codebook=random_codebook(3, 8, 59)), REWARDS)
        assert calls == []
        assert res == simulate_policy(never(grid8), run, REWARDS)

    def test_net_identity(self, grid8, model8):
        solved = policy_iteration_average(model8, REWARDS, grid8)
        res = simulate_policy(solved.policy,
                              Run(PARAMS, TrajectoryConfig(slots=50_000, seed=7), grid8),
                              REWARDS)
        assert abs(res.net - (res.throughput - 0.5 * res.feedback_rate)) <= 1e-12
        assert 0.0 < res.feedback_rate < 1.0
        assert res.stderr > 0.0

    def test_partial_feedback_sits_between_the_extremes(self, grid8, model8):
        run = Run(PARAMS, TrajectoryConfig(slots=200_000, seed=11), grid8)
        free = RewardSpec(P=100.0, alpha=0.0)
        solved = policy_iteration_average(model8, REWARDS, grid8)
        lo = simulate_policy(never(grid8), run, free)
        mid = simulate_policy(solved.policy, run, free)
        hi = simulate_policy(always(grid8), run, free)
        slack = 3.0 * (lo.stderr + mid.stderr + hi.stderr)
        assert lo.throughput - slack <= mid.throughput <= hi.throughput + slack

    def test_deterministic_for_a_seed(self, grid8, model8):
        solved = policy_iteration_average(model8, REWARDS, grid8)
        cfg = TrajectoryConfig(slots=30_000, seed=13)
        a, b = (simulate_policy(solved.policy, Run(PARAMS, cfg, grid8), REWARDS)
                for _ in range(2))
        assert a == b

    def test_common_random_numbers_across_prices(self, grid8, model8):
        # the trajectory and the decisions depend on the seed and policy, not
        # on the price, so throughput agrees exactly across alphas
        solved = policy_iteration_average(model8, REWARDS, grid8)
        run = Run(PARAMS, TrajectoryConfig(slots=30_000, seed=17), grid8)
        a = simulate_policy(solved.policy, run, RewardSpec(P=100.0, alpha=0.1))
        b = simulate_policy(solved.policy, run, RewardSpec(P=100.0, alpha=1.3))
        assert a.throughput == b.throughput
        assert a.feedback_rate == b.feedback_rate

    def test_static_channel_has_zero_error_bars(self, grid8):
        frozen = FadingParams(L=3, doppler_slot=0.0)
        res = simulate_policy(never(grid8),
                              Run(frozen, TrajectoryConfig(slots=20_000, seed=19), grid8),
                              REWARDS)
        assert res.stderr <= 1e-12  # constant series; rounding noise only

    def test_quantized_feedback_loses_throughput(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=200_000, seed=23), grid8)
        free = RewardSpec(P=100.0, alpha=0.0)
        perfect = simulate_policy(always(grid8), run, free)
        coarse = simulate_policy(always(grid8), dataclasses.replace(
            run, codebook=random_codebook(3, 8, 123)), free)
        assert coarse.feedback_rate == 1.0
        slack = 3.0 * (perfect.stderr + coarse.stderr)
        assert coarse.throughput <= perfect.throughput - 0.1 + slack

    def test_dimension_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError, match="dimensions"):
            simulate_policy(Policy(np.zeros(4)),
                            Run(PARAMS, TrajectoryConfig(slots=100, warmup=0, seed=1), grid8),
                            REWARDS)


# ----------------------------------------------------------------------------
# the event table against the block-scan reference
# ----------------------------------------------------------------------------

def _reference_simulate_policy(policy, run, rewards, by_bin=False):
    """Reference simulator: one loop iteration per feedback event on a run.

    From each event it takes 256-slot blocks until the policy next feeds
    back, and with a codebook it quantizes each feedback shape on its own.
    A slot feeds back when its alignment lies below its power bin's
    threshold, or always where the threshold is 1; with ``by_bin`` the
    decision is instead looked up by alignment bin in the table the
    thresholds rebuild, which must agree when every threshold is a bin
    edge.  Its alignments are the simulator's per-row products, so the two
    decide on the same values to the last bit.  Its average threshold is
    the correctly rounded sum of y over the bin count.  Returns
    (CurvePoint, z, fb).
    """
    y, spec, codebook, config = policy.y, run.spec, run.codebook, run.config
    decide = threshold_table(y, spec)
    g, S, f = run.channel
    T = config.slots
    z = np.empty(T)
    fb = np.zeros(T, dtype=bool)
    m_idx = np.minimum(np.searchsorted(spec.g_edges, g, side="right") - 1,
                       spec.M - 1)
    t = 0
    while t < T:
        end = min(T, t + 256)
        blk = _alignment(_row_inner(S[t:end].conj(), f))
        m_blk = m_idx[t:end]
        if by_bin:
            hit = bin_decision(decide, m_blk, blk, spec)
        else:
            hit = (blk < y[m_blk]) | (y[m_blk] == 1.0)
        if not hit.any():
            z[t:end] = blk
            t = end
            continue
        j = int(np.argmax(hit))
        z[t:t + j] = blk[:j]
        t += j
        if codebook is None:
            f = S[t]
            z[t] = 1.0
        else:
            f, z[t] = quantize_shape(S[t], codebook)
        fb[t] = True
        t += 1
    point = series_point(g, z, fb, rewards, config, math.fsum(y) / y.size)
    return point, z, fb


AGREE_PRICES = (0.2, 1.0, 2.0)


@pytest.fixture(scope="module")
def solved_tables():
    """Solved threshold policies per antenna count and price on a 6x6 grid.

    A single antenna has no alignment to lose (z is always 1).
    """
    out = {}
    for L in (1, 2, 3, 4):
        params = FadingParams(L=L, doppler_slot=0.1)
        spec = make_grid(L, 6, 6)
        model = estimate_transition_model(params, spec, 20_000,
                                          np.random.default_rng(710 + L))
        for a in AGREE_PRICES:
            solved = policy_iteration_average(model, RewardSpec(P=100.0, alpha=a),
                                              spec)
            out[L, a] = spec, solved.policy
    return out


def _feedback_codebook(kind, L, seed):
    if kind == "perfect":
        return None
    if kind == "lloyd":
        return lloyd_codebook(L, 8, 2000, 10, 730 + seed)
    return random_codebook(L, 8, 740 + seed)


def _assert_agrees(policy, run, rewards, by_bin):
    want, z_ref, fb_ref = _reference_simulate_policy(policy, run, rewards, by_bin)
    z, fb = schedule_trace(run, simulator._events(policy.y, run))
    got = simulate_policy(policy, run, rewards)
    assert np.array_equal(fb, fb_ref)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert abs(got.net - want.net) <= 1e-12
    assert abs(got.avg_threshold - want.avg_threshold) <= 1e-15
    return fb


class TestEventTableAgreesWithReference:
    @pytest.mark.parametrize("feedback", ["perfect", "lloyd", "random"])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_policy_kind_and_price(self, solved_tables, seed, L, feedback):
        params = FadingParams(L=L, doppler_slot=0.1)
        cfg = TrajectoryConfig(slots=1500, warmup=100, seed=seed)
        rng = np.random.default_rng(750 + seed)
        spec = solved_tables[L, 0.2][0]
        run = Run(params, cfg, spec, _feedback_codebook(feedback, L, seed))
        for a in AGREE_PRICES:
            rewards = RewardSpec(P=100.0, alpha=a)
            # curves on bin edges are checked against the bin lookup, curves
            # off them against the direct comparison
            curves = [(spec.z_edges[rng.integers(0, spec.N + 1, spec.M)], True),
                      (rng.random(spec.M), False),
                      (np.ones(spec.M), True), (np.zeros(spec.M), True),
                      (solved_tables[L, a][1].y, True)]
            for y, by_bin in curves:
                _assert_agrees(Policy(y), run, rewards, by_bin)

    @pytest.mark.parametrize("feedback", ["perfect", "lloyd16"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_fading_scans_past_the_table(self, seed, feedback):
        # at doppler 0.001 the alignment takes thousands of slots to fall
        # below 15/16, so every gap runs far past the lag table; a codeword
        # starts below 1, so with a codebook only a lower edge is used, or
        # eps alone would trigger feedback again at every slot
        params = FadingParams(L=3, doppler_slot=0.001)
        spec = make_grid(3, 16, 16)
        codebook = None
        if feedback == "perfect":
            y = np.full(spec.M, spec.z_edges[-2])
        else:
            y = np.full(spec.M, spec.z_edges[9])
            codebook = lloyd_codebook(3, 16, 5000, 20, 761)
        run = Run(params, TrajectoryConfig(slots=40_000, warmup=100, seed=seed), spec,
                  codebook)
        fb = _assert_agrees(Policy(y), run, RewardSpec(P=100.0, alpha=2.0), True)
        events = np.flatnonzero(fb)
        assert events.size >= 3
        assert np.diff(events).max() > simulator._HORIZON
        table = simulator._EventTable(y, run)
        assert np.any(table.successor[events] == 0)

    @pytest.mark.parametrize("feedback", ["perfect", "random"])
    @pytest.mark.parametrize("L", [1, 3, 4])
    def test_slot_blocks_change_no_bit(self, monkeypatch, L, feedback):
        # the trajectory, the codebook's quantization of it, every pass of
        # the event table and the held-beam pass of a periodic schedule run
        # in slot blocks; 7-slot blocks, which split every gap, must give the
        # bits that one block over the whole run gives
        params = FadingParams(L=L, doppler_slot=0.1)
        cfg = TrajectoryConfig(slots=3000, warmup=100, seed=11)
        spec = make_grid(L, 8, 8)
        codebook = _feedback_codebook(feedback, L, 13)
        rng = np.random.default_rng(14)
        # every other row of the second curve feeds back always and the rest
        # hold off-edge thresholds, so it feeds back in part even at L = 1,
        # where z is 1
        mixed = np.where(np.arange(spec.M) % 2 == 0, 1.0, rng.random(spec.M))
        curves = [np.linspace(0.3, 0.9, spec.M), mixed, np.zeros(spec.M)]

        def traces():
            run = Run(params, cfg, spec, codebook)
            traj = run.channel
            schedules = [simulator._events(y, run) for y in curves]
            schedules.append(np.arange(0, cfg.slots, 9))
            return traj, [schedule_trace(run, events) for events in schedules]

        monkeypatch.setattr(channel, "_BLOCK", cfg.slots)
        want_traj, want = traces()
        monkeypatch.setattr(channel, "_BLOCK", 7)
        got_traj, got = traces()
        for a, b in zip(want_traj, got_traj):
            assert np.array_equal(a, b)
        assert 0 < want[1][1].sum() < cfg.slots
        for (z0, fb0), (z1, fb1) in zip(want, got):
            assert np.array_equal(fb0, fb1)
            assert np.array_equal(z0, z1)


    def test_decisions_agree_with_recorded_alignments_past_the_table(self):
        # at L = 4 a BLAS matrix-vector product and the per-row product
        # round many alignments differently; an alignment edge placed on a
        # per-row alignment that the BLAS product rounds below it, in a gap
        # that only a scan past the table reaches, must leave the decision
        # the recorded z gives
        params = FadingParams(L=4, doppler_slot=0.001)
        unbinned = Run(params, TrajectoryConfig(slots=20_000, warmup=100, seed=1), None)
        g, S, f = unbinned.channel
        zr = _alignment(_row_inner(S.conj(), S[0]))
        zb = _alignment(S.conj() @ S[0])
        low = np.minimum.accumulate(np.minimum(zr, zb))
        before = np.concatenate(([np.inf], low[:-1]))
        t = np.flatnonzero((zb < zr) & (zr < before) & (zr < 0.8))[0]
        edge = zr[t]
        power = make_grid(4, 1, 2)
        spec = GridSpec(M=1, N=2, g_edges=power.g_edges, g_points=power.g_points,
                        z_edges=[0.0, edge, 1.0], z_points=[0.5 * edge, 0.5 + 0.5 * edge])
        y, decide = spec.z_edges[1:2], np.array([[True, False]])
        run = dataclasses.replace(unbinned, spec=spec)
        table = simulator._EventTable(y, run)
        assert table.first == 0 and table.successor[0] == 0 and t > table.depth

        def feeds_back(slots, z):
            return bin_decision(decide, run.m[slots], z, spec)

        z, fb = schedule_trace(run, simulator._events(y, run))
        events = np.flatnonzero(fb)
        kept = np.flatnonzero(~fb)
        assert events.size >= 2 and not feeds_back(kept, z[kept]).any()
        held = np.concatenate((f[None], S[events[:-1]]))
        assert feeds_back(events, _alignment(_row_inner(S[events].conj(), held))).all()

    @pytest.mark.parametrize("K", [1, 16, 64])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_batch_quantizer_matches_quantize_shape(self, L, K):
        rng = np.random.default_rng(770 + L)
        cb = random_codebook(L, K, 771 + K)
        # three full blocks and a partial one
        S = _complex_normal(rng, (3 * channel._BLOCK + 5, L))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        idx = _quantize(S, cb.vectors)
        # eps is the held codeword's alignment, as the simulator computes it
        eps = _alignment(_row_inner(S.conj(), cb.vectors[idx]))
        for s, k, e in zip(S, idx, eps):
            v, want = quantize_shape(s, cb)
            assert np.array_equal(cb.vectors[k], v)
            assert abs(e - want) <= 1e-12
        # a shape halfway between two codewords ties; the lower index wins
        pair = Codebook(vectors=np.eye(2, dtype=complex))
        half = np.full((1, 2), math.sqrt(0.5), dtype=complex)
        assert _quantize(half, pair.vectors)[0] == 0


class TestThresholdCompare:
    """A policy decides by comparing z with its power bin's threshold; on
    thresholds that sit on bin edges the decisions must be those of the bin
    lookup in the table the thresholds rebuild, at every edge included."""

    @staticmethod
    def _table(y, spec):
        run = Run(PARAMS, TrajectoryConfig(slots=600, warmup=10, seed=5), spec)
        table = simulator._EventTable(y, run)
        assert np.unique(table.run.m).size == spec.M  # every row is read
        return table

    @staticmethod
    def _probe(table, decide, spec):
        edges = spec.z_edges
        z = np.concatenate(([0.0, 1.0], edges, np.nextafter(edges[1:], -np.inf)))
        slots = np.repeat(np.arange(table.T), z.size)
        z = np.tile(z, table.T)
        want = bin_decision(decide, table.run.m[slots], z, spec)
        np.testing.assert_array_equal(table.hit(slots, z), want)

    @pytest.fixture(params=["uniform", "warped"])
    def spec(self, request, grid8):
        if request.param == "uniform":
            return grid8
        u = np.arange(9) / 8
        edges = 1.0 - (1.0 - u) ** 3  # fine bins near z = 1
        return GridSpec(M=8, N=8, g_edges=grid8.g_edges, g_points=grid8.g_points,
                        z_edges=edges, z_points=0.5 * (edges[:-1] + edges[1:]))

    def test_threshold_tables_compare(self, spec):
        rng = np.random.default_rng(780)
        cols = np.arange(spec.N)
        leads = [np.full(spec.M, spec.N), np.zeros(spec.M, int),  # all True, all False
                 np.arange(spec.M) % (spec.N + 1)]
        leads += [rng.integers(0, spec.N + 1, spec.M) for _ in range(5)]
        for lead in leads:
            table = self._table(spec.z_edges[lead], spec)
            self._probe(table, cols < lead[:, None], spec)


class TestCodebookDimension:
    @pytest.fixture
    def mismatched(self):
        return (random_codebook(4, 8, 5),
                TrajectoryConfig(slots=2000, warmup=100, seed=3))

    @pytest.mark.parametrize("table", ["never", "always", "partial"])
    def test_simulate_policy_rejects_mismatch(self, grid8, mismatched, table):
        codebook, cfg = mismatched
        y = {"never": 0.0, "always": 1.0, "partial": 0.5}[table]
        with pytest.raises(ValueError, match="codebook has 4 antennas"):
            simulate_policy(Policy(np.full(grid8.M, y)), Run(PARAMS, cfg, grid8, codebook),
                            REWARDS)


class TestOptimalPolicyDominance:
    def test_solver_beats_random_thresholds_on_the_model(self, grid8, model8):
        rng = np.random.default_rng(29)
        best = policy_iteration_average(model8, REWARDS, grid8).J
        for _ in range(10):
            edges = rng.integers(0, grid8.N + 1, size=grid8.M)
            decide = threshold_table(grid8.z_edges[edges], grid8)
            J = average_reward(decide, model8, REWARDS, grid8)
            assert J <= best + 1e-9


# ----------------------------------------------------------------------------
# periodic baseline
# ----------------------------------------------------------------------------

class TestPeriodic:
    def test_every_slot_equals_always_feedback(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=100_000, seed=31), grid8)
        a = simulate_periodic(1, run, REWARDS)
        b = simulate_policy(always(grid8), run, REWARDS)
        # one measurement; only the policy has a threshold to average
        assert math.isnan(a.avg_threshold) and b.avg_threshold == 1.0
        assert dataclasses.replace(a, avg_threshold=1.0) == b

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_matches_the_segment_law(self, L):
        # the held-beam pass against whole segments plus a remainder, with
        # intervals that divide the run, leave a remainder, or exceed it
        cfg = TrajectoryConfig(slots=2000, warmup=100, seed=61)
        run = Run(FadingParams(L=L, doppler_slot=0.1), cfg, make_grid(L, 4, 4))
        for k in (1, 3, 7, 64, 2500):
            want, z_ref = periodic_segments(k, run.g, run.S, REWARDS, cfg)
            z, fb = schedule_trace(run, np.arange(0, cfg.slots, k))
            got = simulate_periodic(k, run, REWARDS)
            assert np.array_equal(fb, np.arange(cfg.slots) % k == 0)
            assert np.max(np.abs(z - z_ref)) <= 1e-12
            assert got.feedback_rate == want.feedback_rate
            for a, b in ((got.net, want.net), (got.throughput, want.throughput),
                         (got.stderr, want.stderr)):
                assert abs(a - b) <= 1e-12

    def test_period_one_matches_integral(self, run400k):
        res = simulate_periodic(1, run400k, REWARDS)
        want = fresh_beam_rate_oracle(100.0, 3) - 0.5
        assert res.feedback_rate == 1.0
        assert abs(res.net - want) <= 3.0 * res.stderr + 1e-9

    def test_feedback_rate_tracks_the_period(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=100_000, seed=37), grid8)
        for k in (2, 5, 9):
            res = simulate_periodic(k, run, REWARDS)
            assert abs(res.feedback_rate - 1.0 / k) <= 2.0 * k / 99_000

    def test_free_feedback_prefers_period_one(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=60_000, seed=41), grid8)
        [(k, res)] = periodic_baseline(run, 100.0, [0.0], 8)
        assert k == 1
        assert res.feedback_rate == 1.0

    def test_costly_feedback_approaches_never_feeding_back(self, grid8):
        dear = RewardSpec(P=100.0, alpha=3.0)
        run = Run(PARAMS, TrajectoryConfig(slots=120_000, seed=43), grid8)
        [(k, res)] = periodic_baseline(run, 100.0, [3.0], 64)
        stale = simulate_policy(never(grid8), run, dear)
        assert k > 1
        assert res.net >= stale.net - 0.15
        # long periods mostly ride a stale beam, so throughput stays nearby
        assert res.net <= simulate_policy(always(grid8), run,
                                          RewardSpec(P=100.0, alpha=0.0)).throughput

    def test_price_list_picks_each_best_interval_once(self, grid8, monkeypatch):
        run = Run(PARAMS, TrajectoryConfig(slots=30_000, seed=47), grid8)
        alphas = [0.0, 0.4, 1.0, 2.5]
        want = []
        for a in alphas:
            r = RewardSpec(P=100.0, alpha=a)
            runs = [simulate_periodic(k, run, r) for k in range(1, 17)]
            k = 1 + max(range(16), key=lambda i: (runs[i].net, -i))
            want.append((k, runs[k - 1]))
        passes = []
        inner = simulator._held_alignment
        monkeypatch.setattr(simulator, "_held_alignment",
                            lambda *a, **kw: passes.append(a[1]) or inner(*a, **kw))
        got = periodic_baseline(run, 100.0, alphas, 16)
        # a periodic point carries its price, and NaN for the threshold it
        # lacks; the reprs compare every field to the bit, NaN included
        assert [p.alpha for _, p in got] == alphas
        assert all(math.isnan(p.avg_threshold) for _, p in got)
        assert [(k, repr(p)) for k, p in got] == [(k, repr(p)) for k, p in want]
        # one held-beam pass per interval, whatever the number of prices
        assert len(passes) == 16

    def test_feedback_is_perfect_on_a_run_with_a_codebook(self, grid8, monkeypatch):
        run = Run(PARAMS, TrajectoryConfig(slots=20_000, seed=49), grid8)
        want = periodic_baseline(run, 100.0, [0.3, 1.7], 8)
        monkeypatch.setattr(simulator, "_quantize", None)  # nothing is quantized
        quantized = dataclasses.replace(run, codebook=random_codebook(3, 8, 50))
        got = periodic_baseline(quantized, 100.0, [0.3, 1.7], 8)
        assert [(k, repr(p)) for k, p in got] == [(k, repr(p)) for k, p in want]

    def test_ties_go_to_the_shorter_interval(self, grid8):
        # every interval of 50 slots or more feeds back only in slot 0,
        # before the warmup ends, so those intervals tie exactly
        run = Run(PARAMS, TrajectoryConfig(slots=50, warmup=10, seed=53), grid8)
        [(k, res)] = periodic_baseline(run, 100.0, [100.0], 64)
        assert k == 50 and res.feedback_rate == 0.0

    @pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
    def test_bad_prices_rejected(self, grid8, alpha):
        run = Run(PARAMS, TrajectoryConfig(slots=1000, warmup=0, seed=1), grid8)
        with pytest.raises(ValueError, match="price"):
            periodic_baseline(run, 100.0, [0.5, alpha], 4)

    def test_bad_periods_rejected(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=1000, warmup=0, seed=1), grid8)
        with pytest.raises(ValueError):
            simulate_periodic(0, run, REWARDS)
        with pytest.raises(ValueError):
            periodic_baseline(run, 100.0, [0.5], 0)


class TestPricePoint:
    """A schedule is measured once and each price's point is arithmetic on
    its batch means; the per-slot series of rate - alpha * feedback must
    give the same point, its standard error up to rounding."""

    @pytest.mark.parametrize("slots", [5000, 1050, 1001])  # 4000, 50 and 1 measured
    @pytest.mark.parametrize("schedule", ["policy", "always", "periodic"])
    def test_arithmetic_matches_the_series(self, grid8, schedule, slots):
        cfg = TrajectoryConfig(slots=slots, warmup=1000, seed=59)
        run = Run(PARAMS, cfg, grid8)
        if schedule == "periodic":
            events = np.arange(0, slots, 7)
        else:
            y = np.linspace(0.3, 0.9, grid8.M) if schedule == "policy" else np.ones(grid8.M)
            events = simulator._events(y, run)
        z, fb = schedule_trace(run, events)
        assert 0 < fb.sum() < slots or schedule == "always"
        measured = simulator._measure(run, events, 100.0)
        for a in (0.0, 0.7, 8.0):
            got = simulator._point(measured, a, np.array([0.5]))
            want = series_point(run.g, z, fb, RewardSpec(P=100.0, alpha=a), cfg, 0.5)
            assert dataclasses.replace(got, stderr=0.0) == dataclasses.replace(want, stderr=0.0)
            assert abs(got.stderr - want.stderr) <= 1e-14 * want.stderr
            assert (got.stderr == 0.0) == (slots == 1001)


# ----------------------------------------------------------------------------
# threshold averaging and sweeps
# ----------------------------------------------------------------------------

class TestAverageThreshold:
    """The average threshold is the mean of y over the power bins, which
    the grid makes equiprobable under the power law no policy moves."""

    SHORT = TrajectoryConfig(slots=2000, warmup=100, seed=3)

    def average(self, y, spec):
        return simulate_policy(Policy(y), Run(PARAMS, self.SHORT, spec), REWARDS).avg_threshold

    @pytest.mark.parametrize("M, N", [(16, 16), (40, 40), (7, 10)])
    def test_constant_curves_read_exactly_their_value(self, M, N):
        spec = make_grid(3, M, N)
        plain_mean_misses = 0
        for c in spec.z_edges:
            y = np.full(M, c)
            assert self.average(y, spec) == c
            plain_mean_misses += float(np.mean(y)) != c
        assert self.average(np.ones(M), spec) == 1.0
        assert self.average(np.zeros(M), spec) == 0.0
        # with seven bins a plain mean rounds some of these constants off
        # by an ulp, so this grid tells the two means apart
        assert plain_mean_misses > 0 or M != 7

    def test_mean_over_the_bins(self, grid8):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = rng.random(grid8.M)
            assert abs(self.average(y, grid8) - math.fsum(y) / grid8.M) <= np.finfo(float).eps
        y = np.array([0.2, 0.6, 0.2, 0.6, 0.2, 0.6, 0.2, 0.6])
        np.testing.assert_allclose(self.average(y, grid8), 0.4, rtol=1e-15)


@pytest.fixture(scope="module")
def sweep_run(grid8):
    return Run(PARAMS, TrajectoryConfig(slots=120_000, seed=47), grid8)


@pytest.fixture(scope="module")
def small_sweep(sweep_run):
    # 25 is far beyond any one-slot gain plus the continuation value of a
    # realignment on this channel, so the top point must never feed back
    top = 25.0
    return sweep_alpha([0.0, 0.5, top], sweep_run, 100.0, model_samples=150_000), top


class TestSweep:
    def test_free_feedback_point(self, small_sweep):
        curve, _ = small_sweep
        first = curve[0]
        assert first.alpha == 0.0
        assert first.feedback_rate == 1.0
        assert first.avg_threshold == 1.0

    def test_prohibitive_price_point(self, small_sweep, grid8):
        curve, top = small_sweep
        last = curve[-1]
        assert last.feedback_rate == 0.0
        assert last.avg_threshold == 0.0
        # identical seeds: the sweep's never-feedback run is the plain one
        stale = simulate_policy(never(grid8),
                                Run(PARAMS, TrajectoryConfig(slots=120_000, seed=47), grid8),
                                RewardSpec(P=100.0, alpha=top))
        assert last.throughput == stale.throughput

    def test_point_bookkeeping(self, small_sweep):
        curve, top = small_sweep
        assert [p.alpha for p in curve] == [0.0, 0.5, top]
        for p in curve:
            assert abs(p.net - (p.throughput - p.alpha * p.feedback_rate)) <= 1e-12
            assert p.stderr > 0.0

    def test_points_are_what_simulate_policy_measures(self, small_sweep, sweep_run, grid8):
        # the sweep's solves, rebuilt from its model draw, simulated one by one
        curve, _ = small_sweep
        model, _ = simulator._design((), sweep_run, 100.0, 150_000)
        for p in curve:
            r = RewardSpec(P=100.0, alpha=p.alpha)
            policy = policy_iteration_average(model, r, grid8).policy
            assert simulate_policy(policy, sweep_run, r) == p

    def test_prices_on_one_curve_share_one_pass(self, grid8, monkeypatch):
        # the two cheapest prices both feed back always and the two dearest
        # never, so five prices solve to three curves
        run = Run(PARAMS, TrajectoryConfig(slots=30_000, seed=45), grid8)
        alphas = [0.0, 1e-3, 0.5, 25.0, 30.0]
        _, solves = simulator._design(alphas, run, 100.0, 20_000)
        curves = []
        for s in solves:
            if not any(np.array_equal(s.policy.y, y) for y in curves):
                curves.append(s.policy.y)
        assert len(curves) == 3
        want = [simulate_policy(s.policy, run, RewardSpec(P=100.0, alpha=a))
                for a, s in zip(alphas, solves)]
        passes = []
        inner = simulator._held_alignment
        monkeypatch.setattr(simulator, "_held_alignment",
                            lambda *a, **kw: passes.append(a[1]) or inner(*a, **kw))
        got = sweep_alpha(alphas, run, 100.0, model_samples=20_000)
        # the reprs compare every field to the bit
        assert [repr(p) for p in got] == [repr(p) for p in want]
        # one held-beam pass per distinct curve, whatever the number of prices
        assert len(passes) == len(curves)

    def test_alphas_must_increase(self, grid8):
        run = Run(PARAMS, TrajectoryConfig(slots=5000, seed=1), grid8)
        with pytest.raises(ValueError, match="increasing"):
            sweep_alpha([0.5, 0.5], run, 100.0, model_samples=5000)
        with pytest.raises(ValueError, match="increasing"):
            sweep_alpha([], run, 100.0, model_samples=5000)

    def test_quantized_sweep_quantizes_the_trajectory_once(self, grid8, monkeypatch):
        calls = []
        quantize = simulator._quantize

        def spy(S, vectors):
            calls.append(S.shape[0])
            return quantize(S, vectors)

        monkeypatch.setattr(simulator, "_quantize", spy)
        cfg = TrajectoryConfig(slots=20_000, seed=56)
        curve = sweep_alpha([0.2, 0.8, 2.0],
                            Run(PARAMS, cfg, grid8, random_codebook(3, 8, 57)), 100.0,
                            model_samples=20_000)
        assert all(0.0 < p.feedback_rate < 1.0 for p in curve)
        assert calls == [cfg.slots]

    def test_quantized_sweep_stays_below_perfect(self):
        spec = make_grid(3, 6, 6)
        cb = lloyd_codebook(3, 8, 20_000, 20, 54)
        run = Run(PARAMS, TrajectoryConfig(slots=100_000, seed=55), spec)
        alphas = [0.2, 0.8]
        perfect = sweep_alpha(alphas, run, 100.0, model_samples=100_000)
        coarse = sweep_alpha(alphas, dataclasses.replace(run, codebook=cb), 100.0,
                             model_samples=100_000)
        for p, q in zip(perfect, coarse):
            assert q.net <= p.net + 3.0 * (p.stderr + q.stderr)


class TestCsv:
    def test_header_and_rows(self):
        pts = (CurvePoint(alpha=0.2, net=5.5, throughput=5.9,
                          feedback_rate=0.25, avg_threshold=0.4, stderr=0.01),
               CurvePoint(alpha=0.4, net=5.2, throughput=5.8,
                          feedback_rate=0.125, avg_threshold=math.nan,
                          stderr=0.01))
        text = curve_to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "alpha,net,throughput,feedback_rate,avg_threshold,stderr"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(first, [0.2, 5.5, 5.9, 0.25, 0.4, 0.01],
                                   rtol=1e-15)
        assert math.isnan(float(lines[2].split(",")[4]))


# ----------------------------------------------------------------------------
# grid refinement
# ----------------------------------------------------------------------------

class TestRefinement:
    def test_single_cell_hand_solution(self):
        cfg = TrajectoryConfig(slots=200_000, seed=61)
        table = refinement_study([(1, 1)], PARAMS, REWARDS, cfg)
        (M, N, J) = table[0]
        assert (M, N) == (1, 1)
        # one state: feed back always or never, whichever pays more
        want = max(math.log2(1.0 + 100.0 * 3.0) - 0.5,
                   math.log2(1.0 + 100.0 * 3.0 * 0.5))
        assert abs(J - want) <= 0.1

    def test_differences_contract(self):
        cfg = TrajectoryConfig(slots=200_000, seed=67)
        table = refinement_study([(4, 4), (8, 8), (16, 16)], PARAMS, REWARDS, cfg)
        J4, J8, J16 = (row[2] for row in table)
        assert abs(J16 - J8) < abs(J8 - J4) + 0.1

    def test_deterministic(self):
        cfg = TrajectoryConfig(slots=40_000, seed=71)
        a = refinement_study([(2, 2), (4, 4)], PARAMS, REWARDS, cfg)
        b = refinement_study([(2, 2), (4, 4)], PARAMS, REWARDS, cfg)
        assert a == b

    def test_sizes_must_increase(self):
        cfg = TrajectoryConfig(slots=10_000, seed=1)
        with pytest.raises(ValueError, match="increasing"):
            refinement_study([(8, 8), (4, 4)], PARAMS, REWARDS, cfg)
        with pytest.raises(ValueError, match="increasing"):
            refinement_study([], PARAMS, REWARDS, cfg)
