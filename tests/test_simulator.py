"""Tests for the trajectory simulator.

The throughput oracles are numerical integrals over the stationary laws:
power is Gamma(L, 1) and the alignment of a stale isotropic beam is
Beta(1, L-1).  Simulated means must land within a few reported standard
errors of those integrals.
"""

import math

import numpy as np
import pytest
from scipy import integrate, signal, stats

from beamfeedback import simulator
from beamfeedback.channel import FadingParams, _complex_normal
from beamfeedback.codebook import (
    Codebook,
    _quantize_rows,
    lloyd_codebook,
    quantize_shape,
    random_codebook,
)
from beamfeedback.mdp import (
    Policy,
    RewardSpec,
    ThresholdProfile,
    average_reward,
    policy_iteration_average,
)
from beamfeedback.simulator import (
    CSV_HEADER,
    Curve,
    CurvePoint,
    EvalResult,
    TrajectoryConfig,
    average_threshold,
    curve_to_csv,
    periodic_baseline,
    refinement_study,
    simulate_periodic,
    simulate_policy,
    sweep_alpha,
)
from beamfeedback.state_grid import (
    StationaryDistribution,
    estimate_transition_model,
    make_grid,
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
    return make_grid(3, 8, 8, 200_000, np.random.default_rng(4242))


@pytest.fixture(scope="module")
def model8(grid8):
    return estimate_transition_model(PARAMS, grid8, 200_000,
                                     np.random.default_rng(4243))


def never(spec):
    return Policy(np.zeros((spec.M, spec.N), dtype=bool))


def always(spec):
    return Policy(np.ones((spec.M, spec.N), dtype=bool))


# ----------------------------------------------------------------------------
# configuration types
# ----------------------------------------------------------------------------

class TestTypes:
    def test_config_validation(self):
        cfg = TrajectoryConfig(slots=5000, warmup=100, seed=1)
        assert cfg.slots == 5000 and cfg.warmup == 100
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=100, warmup=100)
        with pytest.raises(ValueError):
            TrajectoryConfig(slots=100, warmup=-1)

    def test_eval_result_validation(self):
        with pytest.raises(ValueError):
            EvalResult(throughput=1.0, feedback_rate=1.5, net=1.0, stderr=0.0)

    def test_curve_requires_increasing_prices(self):
        p = CurvePoint(alpha=0.5, net=1.0, throughput=1.0, feedback_rate=0.0,
                       avg_threshold=0.0, stderr=0.0)
        q = CurvePoint(alpha=0.2, net=1.0, throughput=1.0, feedback_rate=0.0,
                       avg_threshold=0.0, stderr=0.0)
        Curve(points=(q, p))
        with pytest.raises(ValueError, match="increasing"):
            Curve(points=(p, q))


# ----------------------------------------------------------------------------
# shared trajectories against the direct-form filter
# ----------------------------------------------------------------------------

def lfilter_trajectory(params, config):
    """Reference trajectory: the AR(1) recursion as one IIR filter pass."""
    rng = simulator._streams(config.seed, 0)
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
        for slots in (1, 2, 5000):
            cfg = TrajectoryConfig(slots=slots, warmup=0, seed=31)
            got = simulator._trajectory(params, cfg)
            want = lfilter_trajectory(params, cfg)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_seeded_run_shares_one_trajectory(self):
        cfg = TrajectoryConfig(slots=3000, seed=37)
        a = simulator._trajectory(PARAMS, cfg)
        b = simulator._trajectory(PARAMS, cfg)
        assert all(x is y for x, y in zip(a, b))

    def test_shared_trajectory_is_read_only(self):
        g, S, f = simulator._trajectory(PARAMS, TrajectoryConfig(slots=3000, seed=41))
        for arr in (g, S, f):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_unseeded_runs_draw_fresh_trajectories(self):
        cfg = TrajectoryConfig(slots=3000)
        a = simulator._trajectory(PARAMS, cfg)
        b = simulator._trajectory(PARAMS, cfg)
        assert not np.array_equal(a[0], b[0])

    def test_switching_configs_restores_exact_values(self):
        A = TrajectoryConfig(slots=3000, seed=43)
        B = TrajectoryConfig(slots=3000, seed=44)
        first = [arr.copy() for arr in simulator._trajectory(PARAMS, A)]
        other = simulator._trajectory(PARAMS, B)
        again = simulator._trajectory(PARAMS, A)
        assert not np.array_equal(other[0], first[0])
        for a, b in zip(again, first):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------------
# policy simulation against the integral oracles
# ----------------------------------------------------------------------------

class TestSimulatePolicy:
    def test_never_feedback_matches_integral(self, grid8):
        res = simulate_policy(never(grid8), grid8, PARAMS, REWARDS, RUN)
        want = stale_beam_rate_oracle(100.0, 3)
        assert res.feedback_rate == 0.0
        assert res.net == res.throughput
        assert abs(res.throughput - want) <= 3.0 * res.stderr + 1e-9

    def test_always_feedback_matches_integral(self, grid8):
        res = simulate_policy(always(grid8), grid8, PARAMS, REWARDS, RUN)
        want = fresh_beam_rate_oracle(100.0, 3)
        assert res.feedback_rate == 1.0
        assert abs(res.throughput - want) <= 3.0 * res.stderr + 1e-9

    def test_net_identity(self, grid8, model8):
        solved = policy_iteration_average(model8, REWARDS, grid8)
        res = simulate_policy(solved.policy, grid8, PARAMS, REWARDS,
                              TrajectoryConfig(slots=50_000, seed=7))
        assert abs(res.net - (res.throughput - 0.5 * res.feedback_rate)) <= 1e-12
        assert 0.0 < res.feedback_rate < 1.0
        assert res.stderr > 0.0

    def test_partial_feedback_sits_between_the_extremes(self, grid8, model8):
        cfg = TrajectoryConfig(slots=200_000, seed=11)
        free = RewardSpec(P=100.0, alpha=0.0)
        solved = policy_iteration_average(model8, REWARDS, grid8)
        lo = simulate_policy(never(grid8), grid8, PARAMS, free, cfg)
        mid = simulate_policy(solved.policy, grid8, PARAMS, free, cfg)
        hi = simulate_policy(always(grid8), grid8, PARAMS, free, cfg)
        slack = 3.0 * (lo.stderr + mid.stderr + hi.stderr)
        assert lo.throughput - slack <= mid.throughput <= hi.throughput + slack

    def test_deterministic_for_a_seed(self, grid8, model8):
        solved = policy_iteration_average(model8, REWARDS, grid8)
        cfg = TrajectoryConfig(slots=30_000, seed=13)
        a = simulate_policy(solved.policy, grid8, PARAMS, REWARDS, cfg)
        b = simulate_policy(solved.policy, grid8, PARAMS, REWARDS, cfg)
        assert a == b

    def test_common_random_numbers_across_prices(self, grid8, model8):
        # the trajectory and the decisions depend on the seed and policy, not
        # on the price, so throughput agrees exactly across alphas
        solved = policy_iteration_average(model8, REWARDS, grid8)
        cfg = TrajectoryConfig(slots=30_000, seed=17)
        a = simulate_policy(solved.policy, grid8, PARAMS,
                            RewardSpec(P=100.0, alpha=0.1), cfg)
        b = simulate_policy(solved.policy, grid8, PARAMS,
                            RewardSpec(P=100.0, alpha=1.3), cfg)
        assert a.throughput == b.throughput
        assert a.feedback_rate == b.feedback_rate

    def test_static_channel_has_zero_error_bars(self, grid8):
        frozen = FadingParams(L=3, doppler_slot=0.0)
        res = simulate_policy(never(grid8), grid8, frozen, REWARDS,
                              TrajectoryConfig(slots=20_000, seed=19))
        assert res.stderr <= 1e-12  # constant series; rounding noise only

    def test_quantized_feedback_loses_throughput(self, grid8):
        cb = random_codebook(3, 8, 123)
        cfg = TrajectoryConfig(slots=200_000, seed=23)
        free = RewardSpec(P=100.0, alpha=0.0)
        perfect = simulate_policy(always(grid8), grid8, PARAMS, free, cfg)
        coarse = simulate_policy(always(grid8), grid8, PARAMS, free, cfg,
                                 codebook=cb)
        assert coarse.feedback_rate == 1.0
        slack = 3.0 * (perfect.stderr + coarse.stderr)
        assert coarse.throughput <= perfect.throughput - 0.1 + slack

    def test_dimension_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError, match="dimensions"):
            simulate_policy(Policy(np.zeros((4, 4), bool)), grid8, PARAMS,
                            REWARDS, TrajectoryConfig(slots=100, warmup=0, seed=1))


# ----------------------------------------------------------------------------
# the event table against the block-scan reference
# ----------------------------------------------------------------------------

def _reference_simulate_policy(policy, spec, params, rewards, config,
                               codebook=None):
    """Reference simulator: one loop iteration per feedback event.

    From each event it bins 256-slot blocks until the policy next feeds
    back, and with a codebook it quantizes each feedback shape on its own.
    Returns (EvalResult, z, fb).
    """
    decide = policy.decide
    g, S, f = simulator._trajectory(params, config)
    T = config.slots
    z = np.empty(T)
    fb = np.zeros(T, dtype=bool)
    m_idx = np.minimum(np.searchsorted(spec.g_edges, g, side="right") - 1,
                       spec.M - 1)
    t = 0
    while t < T:
        end = min(T, t + 256)
        blk = np.minimum(np.abs(S[t:end].conj() @ f) ** 2, 1.0)
        n_blk = np.minimum(
            np.searchsorted(spec.z_edges, blk, side="right") - 1, spec.N - 1)
        hit = decide[m_idx[t:end], n_blk]
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
    return simulator._aggregate(g, z, fb, rewards, config), z, fb


AGREE_PRICES = (0.2, 1.0, 2.0)


@pytest.fixture(scope="module")
def solved_tables():
    """Solved threshold policies per antenna count and price on a 6x6 grid.

    A single antenna has no alignment to lose (z is always 1); its grid is
    the small one the agreement test has always used.
    """
    out = {}
    for L in (1, 2, 3, 4):
        params = FadingParams(L=L, doppler_slot=0.1)
        if L == 1:
            spec = make_grid(1, 6, 6, 2000, np.random.default_rng(720))
        else:
            spec = make_grid(L, 6, 6, 20_000, np.random.default_rng(700 + L))
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


def _assert_agrees(policy, spec, params, rewards, cfg, codebook):
    want, z_ref, fb_ref = _reference_simulate_policy(policy, spec, params,
                                                     rewards, cfg, codebook)
    g, S, f = simulator._trajectory(params, cfg)
    z, fb = simulator._feedback_trace(policy.decide, spec, g, S, f, codebook)
    got = simulate_policy(policy, spec, params, rewards, cfg, codebook=codebook)
    assert np.array_equal(fb, fb_ref)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert abs(got.net - want.net) <= 1e-12
    return fb


class TestEventTableAgreesWithReference:
    @pytest.mark.parametrize("feedback", ["perfect", "lloyd", "random"])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_policy_kind_and_price(self, solved_tables, seed, L, feedback):
        params = FadingParams(L=L, doppler_slot=0.1)
        cfg = TrajectoryConfig(slots=1500, warmup=100, seed=seed)
        codebook = _feedback_codebook(feedback, L, seed)
        rng = np.random.default_rng(750 + seed)
        spec = solved_tables[L, 0.2][0]
        shape = (spec.M, spec.N)
        for a in AGREE_PRICES:
            rewards = RewardSpec(P=100.0, alpha=a)
            tables = [rng.random(shape) < 0.3, rng.random(shape) < 0.7,
                      np.ones(shape, bool), np.zeros(shape, bool),
                      solved_tables[L, a][1].decide]
            for decide in tables:
                _assert_agrees(Policy(decide), spec, params, rewards, cfg,
                               codebook)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_fading_scans_past_the_table(self, seed):
        # at doppler 0.001 the alignment takes thousands of slots to fall
        # below 15/16, so every gap runs far past the lag table
        params = FadingParams(L=3, doppler_slot=0.001)
        spec = make_grid(3, 16, 16, 20_000, np.random.default_rng(760))
        decide = np.zeros((spec.M, spec.N), dtype=bool)
        decide[:, :-1] = True
        cfg = TrajectoryConfig(slots=40_000, warmup=100, seed=seed)
        fb = _assert_agrees(Policy(decide), spec, params,
                            RewardSpec(P=100.0, alpha=2.0), cfg, None)
        events = np.flatnonzero(fb)
        assert events.size >= 3
        assert np.diff(events).max() > simulator._HORIZON
        g, S, f = simulator._trajectory(params, cfg)
        table = simulator._EventTable(decide, spec, g, S, f, None)
        assert np.any(table.successor[events] == 0)


    def test_batch_quantizer_matches_quantize_shape(self):
        rng = np.random.default_rng(770)
        cb = random_codebook(3, 8, 771)
        S = _complex_normal(rng, (500, 3))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        idx, eps = _quantize_rows(S.conj(), cb.vectors)
        for s, k, e in zip(S, idx, eps):
            v, want = quantize_shape(s, cb)
            assert np.array_equal(cb.vectors[k], v)
            assert abs(e - want) <= 1e-12
        # a shape halfway between two codewords ties; the lower index wins
        pair = Codebook(vectors=np.eye(2, dtype=complex))
        half = np.full((1, 2), math.sqrt(0.5), dtype=complex)
        assert _quantize_rows(half.conj(), pair.vectors)[0][0] == 0


class TestCodebookDimension:
    @pytest.fixture
    def mismatched(self):
        return (random_codebook(4, 8, 5),
                TrajectoryConfig(slots=2000, warmup=100, seed=3))

    @pytest.mark.parametrize("table", ["never", "always", "partial"])
    def test_simulate_policy_rejects_mismatch(self, grid8, mismatched, table):
        codebook, cfg = mismatched
        decide = {"never": np.zeros((grid8.M, grid8.N), bool),
                  "always": np.ones((grid8.M, grid8.N), bool),
                  "partial": grid8.z_points[None, :] < np.full((grid8.M, 1), 0.5)}
        with pytest.raises(ValueError, match="codebook has 4 antennas"):
            simulate_policy(Policy(decide[table]), grid8, PARAMS, REWARDS, cfg,
                            codebook=codebook)

    def test_periodic_rejects_mismatch(self, mismatched):
        codebook, cfg = mismatched
        with pytest.raises(ValueError, match="codebook has 4 antennas"):
            simulate_periodic(4, PARAMS, REWARDS, cfg, codebook=codebook)
        with pytest.raises(ValueError, match="codebook has 4 antennas"):
            periodic_baseline(PARAMS, 100.0, [0.5], 4, cfg, codebook=codebook)


class TestOptimalPolicyDominance:
    def test_solver_beats_random_thresholds_on_the_model(self, grid8, model8):
        rng = np.random.default_rng(29)
        best = policy_iteration_average(model8, REWARDS, grid8).J
        for _ in range(10):
            edges = rng.integers(0, grid8.N + 1, size=grid8.M)
            decide = grid8.z_points[None, :] < grid8.z_edges[edges][:, None]
            J = average_reward(Policy(decide), model8, REWARDS, grid8)
            assert J <= best + 1e-9


# ----------------------------------------------------------------------------
# periodic baseline
# ----------------------------------------------------------------------------

class TestPeriodic:
    def test_every_slot_equals_always_feedback(self, grid8):
        cfg = TrajectoryConfig(slots=100_000, seed=31)
        a = simulate_periodic(1, PARAMS, REWARDS, cfg)
        b = simulate_policy(always(grid8), grid8, PARAMS, REWARDS, cfg)
        assert a == b

    def test_period_one_matches_integral(self):
        res = simulate_periodic(1, PARAMS, REWARDS, RUN)
        want = fresh_beam_rate_oracle(100.0, 3) - 0.5
        assert res.feedback_rate == 1.0
        assert abs(res.net - want) <= 3.0 * res.stderr + 1e-9

    def test_feedback_rate_tracks_the_period(self):
        cfg = TrajectoryConfig(slots=100_000, seed=37)
        for k in (2, 5, 9):
            res = simulate_periodic(k, PARAMS, REWARDS, cfg)
            assert abs(res.feedback_rate - 1.0 / k) <= 2.0 * k / 99_000

    def test_free_feedback_prefers_period_one(self):
        cfg = TrajectoryConfig(slots=60_000, seed=41)
        [(k, res)] = periodic_baseline(PARAMS, 100.0, [0.0], 8, cfg)
        assert k == 1
        assert res.feedback_rate == 1.0

    def test_costly_feedback_approaches_never_feeding_back(self, grid8):
        dear = RewardSpec(P=100.0, alpha=3.0)
        cfg = TrajectoryConfig(slots=120_000, seed=43)
        [(k, res)] = periodic_baseline(PARAMS, 100.0, [3.0], 64, cfg)
        stale = simulate_policy(never(grid8), grid8, PARAMS, dear, cfg)
        assert k > 1
        assert res.net >= stale.net - 0.15
        # long periods mostly ride a stale beam, so throughput stays nearby
        assert res.net <= simulate_policy(always(grid8), grid8, PARAMS,
                                          RewardSpec(P=100.0, alpha=0.0),
                                          cfg).throughput

    def test_price_list_picks_each_best_interval_once(self, monkeypatch):
        cfg = TrajectoryConfig(slots=30_000, seed=47)
        alphas = [0.0, 0.4, 1.0, 2.5]
        want = []
        for a in alphas:
            r = RewardSpec(P=100.0, alpha=a)
            runs = [simulate_periodic(k, PARAMS, r, cfg) for k in range(1, 17)]
            k = 1 + max(range(16), key=lambda i: (runs[i].net, -i))
            want.append((k, runs[k - 1]))
        calls = []
        inner = simulator._periodic_eval
        monkeypatch.setattr(simulator, "_periodic_eval",
                            lambda *a, **kw: calls.append(a[0]) or inner(*a, **kw))
        assert periodic_baseline(PARAMS, 100.0, alphas, 16, cfg) == want
        assert len(calls) <= 16 + len(alphas)

    def test_ties_go_to_the_shorter_interval(self):
        # every interval of 50 slots or more feeds back only in slot 0,
        # before the warmup ends, so those intervals tie exactly
        cfg = TrajectoryConfig(slots=50, warmup=10, seed=53)
        [(k, res)] = periodic_baseline(PARAMS, 100.0, [100.0], 64, cfg)
        assert k == 50 and res.feedback_rate == 0.0

    def test_bad_periods_rejected(self):
        cfg = TrajectoryConfig(slots=1000, warmup=0, seed=1)
        with pytest.raises(ValueError):
            simulate_periodic(0, PARAMS, REWARDS, cfg)
        with pytest.raises(ValueError):
            periodic_baseline(PARAMS, 100.0, [0.5], 0, cfg)


# ----------------------------------------------------------------------------
# threshold averaging and sweeps
# ----------------------------------------------------------------------------

class TestAverageThreshold:
    def test_extremes(self):
        pi = StationaryDistribution(np.full((2, 3), 1.0 / 6.0))
        ones = ThresholdProfile(y=np.ones(2), is_threshold=True)
        zeros = ThresholdProfile(y=np.zeros(2), is_threshold=True)
        assert average_threshold(ones, pi) == 1.0
        assert average_threshold(zeros, pi) == 0.0

    def test_weighted_value(self):
        pi = StationaryDistribution(np.array([[0.25, 0.0], [0.25, 0.5]]))
        prof = ThresholdProfile(y=np.array([0.2, 0.6]), is_threshold=True)
        np.testing.assert_allclose(average_threshold(prof, pi), 0.5, rtol=1e-15)

    def test_non_threshold_rejected(self):
        pi = StationaryDistribution(np.full((2, 2), 0.25))
        prof = ThresholdProfile(y=np.array([0.2, 0.6]), is_threshold=False)
        with pytest.raises(ValueError, match="threshold"):
            average_threshold(prof, pi)

    def test_size_mismatch_rejected(self):
        pi = StationaryDistribution(np.full((3, 2), 1.0 / 6.0))
        prof = ThresholdProfile(y=np.array([0.2, 0.6]), is_threshold=True)
        with pytest.raises(ValueError, match="match"):
            average_threshold(prof, pi)


@pytest.fixture(scope="module")
def small_sweep(grid8):
    # 25 is far beyond any one-slot gain plus the continuation value of a
    # realignment on this channel, so the top point must never feed back
    cfg = TrajectoryConfig(slots=120_000, seed=47)
    top = 25.0
    return sweep_alpha([0.0, 0.5, top], grid8, PARAMS, REWARDS, cfg,
                       model_samples=150_000), top


class TestSweep:
    def test_free_feedback_point(self, small_sweep):
        curve, _ = small_sweep
        first = curve.points[0]
        assert first.alpha == 0.0
        assert first.feedback_rate == 1.0
        assert first.avg_threshold == 1.0

    def test_prohibitive_price_point(self, small_sweep, grid8):
        curve, top = small_sweep
        last = curve.points[-1]
        assert last.feedback_rate == 0.0
        assert last.avg_threshold == 0.0
        # identical seeds: the sweep's never-feedback run is the plain one
        stale = simulate_policy(never(grid8), grid8, PARAMS,
                                RewardSpec(P=100.0, alpha=top),
                                TrajectoryConfig(slots=120_000, seed=47))
        assert last.throughput == stale.throughput

    def test_point_bookkeeping(self, small_sweep):
        curve, top = small_sweep
        assert [p.alpha for p in curve.points] == [0.0, 0.5, top]
        for p in curve.points:
            assert abs(p.net - (p.throughput - p.alpha * p.feedback_rate)) <= 1e-12
            assert p.stderr > 0.0

    def test_alphas_must_increase(self, grid8):
        cfg = TrajectoryConfig(slots=5000, seed=1)
        with pytest.raises(ValueError, match="increasing"):
            sweep_alpha([0.5, 0.5], grid8, PARAMS, REWARDS, cfg,
                        model_samples=5000)
        with pytest.raises(ValueError, match="increasing"):
            sweep_alpha([], grid8, PARAMS, REWARDS, cfg, model_samples=5000)

    def test_quantized_sweep_stays_below_perfect(self):
        spec = make_grid(3, 6, 6, 100_000, np.random.default_rng(53))
        cb = lloyd_codebook(3, 8, 20_000, 20, 54)
        cfg = TrajectoryConfig(slots=100_000, seed=55)
        alphas = [0.2, 0.8]
        perfect = sweep_alpha(alphas, spec, PARAMS, REWARDS, cfg,
                              model_samples=100_000)
        coarse = sweep_alpha(alphas, spec, PARAMS, REWARDS, cfg, codebook=cb,
                             model_samples=100_000)
        for p, q in zip(perfect.points, coarse.points):
            assert q.net <= p.net + 3.0 * (p.stderr + q.stderr)


class TestCsv:
    def test_header_and_rows(self):
        pts = (CurvePoint(alpha=0.2, net=5.5, throughput=5.9,
                          feedback_rate=0.25, avg_threshold=0.4, stderr=0.01),
               CurvePoint(alpha=0.4, net=5.2, throughput=5.8,
                          feedback_rate=0.125, avg_threshold=math.nan,
                          stderr=0.01))
        text = curve_to_csv(Curve(points=pts))
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
