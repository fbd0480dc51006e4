"""Tests for the average-reward feedback controller.

Oracles here are deliberately independent of the solver code: stationary
occupancies come from an SVD null space, policy evaluation from explicit
loops over the product chain, and optimality from enumerating every decision
table on grids small enough to afford it.  The dense linear solves that the
matrix-free solver replaced stay here as its reference.
"""

import itertools
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

from beamfeedback import mdp
from beamfeedback.mdp import (
    NumericalError,
    Policy,
    RewardSpec,
    policy_iteration_average,
    solve_result_to_json,
    stationary_distribution,
    threshold_lower_bound,
)
from beamfeedback.channel import FadingParams
from beamfeedback.mdp import _backup, _evaluate_policy, _stage_tables
from beamfeedback.state_grid import (
    GridSpec,
    TransitionModel,
    estimate_transition_model,
    make_grid,
)

import oracles
from conftest import gapped_feedback_model, lossy_model, synthetic_setup, tilted_rows
from oracles import (
    average_reward,
    dp_operator,
    exhaustive_threshold_search,
    extract_threshold,
    greedy_table,
    policy_from_json,
    relative_value_iteration,
    threshold_table,
    value_iteration_discounted,
)


# ----------------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------------

def chain_matrix(decide, model):
    """Product-chain transition matrix, written as explicit loops."""
    M, N = decide.shape
    T = np.zeros((M * N, M * N))
    for m in range(M):
        for n in range(N):
            zrow = model.feedback_row if decide[m, n] else model.P0[n]
            for k in range(M):
                for l in range(N):
                    T[m * N + n, k * N + l] = model.Ptilde[m, k] * zrow[l]
    return T


def dense_evaluate_policy(decide, model, G0, G1):
    """Gain J and differential values A from one dense (MN+1)-square solve.

    The last state's differential value is pinned to zero.
    """
    M, N = decide.shape
    T = chain_matrix(decide, model)
    size = M * N
    sys = np.zeros((size + 1, size + 1))
    sys[:size, :size] = np.eye(size) - T
    sys[:size, size] = 1.0
    sys[size, size - 1] = 1.0
    rhs = np.append(np.where(decide, G1[:, None], G0).ravel(), 0.0)
    x = np.linalg.solve(sys, rhs)
    return float(x[size]), x[:size].reshape(M, N)


def dense_stationary(decide, model):
    """Occupancy from the balance equations with the last one replaced by
    normalization, solved densely."""
    M, N = decide.shape
    sys = chain_matrix(decide, model).T - np.eye(M * N)
    sys[-1, :] = 1.0
    rhs = np.zeros(M * N)
    rhs[-1] = 1.0
    return np.linalg.solve(sys, rhs).reshape(M, N)


def alignment_frozen_model(rng, M=3, N=4):
    """Mixing power kernel, but the alignment never moves without feedback."""
    _, model = synthetic_setup(rng, M=M, N=N)
    return TransitionModel(Ptilde=model.Ptilde, P0=np.eye(N),
                           feedback_row=model.feedback_row, sample_count=1)


def occupancy_oracle(T):
    """Stationary row vector of T via the SVD null space of (T' - I)."""
    ns = linalg.null_space(T.T - np.eye(T.shape[0]))
    assert ns.shape[1] == 1, "oracle needs a unichain transition matrix"
    pi = ns[:, 0]
    pi = pi / pi.sum()
    assert pi.min() > -1e-12
    return np.clip(pi, 0.0, None)


def stage_tables_oracle(spec, rewards):
    G0 = np.log2(1.0 + rewards.P * np.outer(spec.g_points, spec.z_points))
    G1 = np.log2(1.0 + rewards.P * spec.g_points) - rewards.alpha
    return G0, G1


def gain_oracle(decide, model, spec, rewards):
    """Average reward of a fixed decision table, end to end via the oracle."""
    G0, G1 = stage_tables_oracle(spec, rewards)
    T = chain_matrix(decide, model)
    pi = occupancy_oracle(T)
    return float(pi @ np.where(decide, G1[:, None], G0).ravel())


def best_gain_by_enumeration(model, spec, rewards):
    """Exact optimum over every decision table; exponential, small grids only."""
    M, N = spec.M, spec.N
    best = -math.inf
    for bits in itertools.product((False, True), repeat=M * N):
        decide = np.array(bits).reshape(M, N)
        best = max(best, gain_oracle(decide, model, spec, rewards))
    return best


def fake_eps_stats(g_points, P, beta_bar):
    """Quantized-rate table for an idealized codebook with fixed alignment."""
    g = np.asarray(g_points, dtype=float)
    return SimpleNamespace(P=P, g_points=g, per_g_rate=np.log2(1.0 + P * g * beta_bar))


def stage_rewards(g, z, rewards, eps=None):
    """Stage-reward tables (G0 over (g, z) points, G1 over g points).

    The tables read only the representative points, so a bare namespace
    can place one at z = 1, which no grid allows.
    """
    spec = SimpleNamespace(g_points=np.atleast_1d(np.asarray(g, dtype=float)),
                           z_points=np.atleast_1d(np.asarray(z, dtype=float)))
    return _stage_tables(spec, rewards, eps)


def one_state_setup(z_point=0.5):
    spec = GridSpec(M=1, N=1, g_edges=[0.0, np.inf], g_points=[1.0],
                    z_edges=[0.0, 1.0], z_points=[z_point])
    model = TransitionModel(Ptilde=[[1.0]], P0=[[1.0]], feedback_row=[1.0],
                            sample_count=1)
    return spec, model


# ----------------------------------------------------------------------------
# reward specification
# ----------------------------------------------------------------------------

class TestRewardSpec:
    def test_direct_alpha(self):
        r = RewardSpec(P=100.0, alpha=0.25)
        assert r.alpha == 0.25

    def test_missing_price_rejected(self):
        with pytest.raises(TypeError, match="alpha"):
            RewardSpec(P=10.0)

    def test_from_snr_db(self):
        r = RewardSpec.from_snr_db(20.0, alpha=1.0)
        np.testing.assert_allclose(r.P, 100.0, rtol=1e-12)

    def test_invalid_numbers_rejected(self):
        with pytest.raises(ValueError):
            RewardSpec(P=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            RewardSpec(P=-3.0, alpha=1.0)
        with pytest.raises(ValueError):
            RewardSpec(P=10.0, alpha=-0.1)
        with pytest.raises(ValueError):
            RewardSpec(P=math.inf, alpha=1.0)


class TestRewardPerStage:
    def test_feedback_formula(self):
        r = RewardSpec(P=100.0, alpha=0.5)
        _, G1 = stage_rewards(2.0, 0.3, r)
        np.testing.assert_allclose(G1[0], math.log2(201.0) - 0.5, rtol=1e-15)

    def test_no_feedback_formula(self):
        r = RewardSpec(P=100.0, alpha=0.5)
        G0, _ = stage_rewards(2.0, 0.3, r)
        np.testing.assert_allclose(G0[0, 0], math.log2(1.0 + 60.0), rtol=1e-15)

    def test_perfect_alignment_closes_the_gap(self):
        # at z = 1 the only difference between the branches is the price
        r = RewardSpec(P=7.0, alpha=0.8)
        G0, G1 = stage_rewards(3.0, 1.0, r)
        np.testing.assert_allclose(G0[0, 0] - G1[0], r.alpha, rtol=1e-12)

    def test_zero_alignment_gives_zero_rate(self):
        r = RewardSpec(P=100.0, alpha=0.5)
        G0, _ = stage_rewards(5.0, 0.0, r)
        assert G0[0, 0] == 0.0

    def test_array_arguments_broadcast(self):
        r = RewardSpec(P=10.0, alpha=0.1)
        g = np.array([1.0, 2.0, 3.0])
        G0, _ = stage_rewards(g, 0.5, r)
        np.testing.assert_allclose(G0[:, 0], np.log2(1.0 + 10.0 * g * 0.5), rtol=1e-15)

    def test_quantized_feedback_uses_rate_table(self):
        r = RewardSpec(P=10.0, alpha=0.3)
        eps = fake_eps_stats([0.5, 2.0], 10.0, 0.9)
        _, G1 = stage_rewards([0.5, 2.0], 0.4, r, eps)
        np.testing.assert_allclose(G1[1], math.log2(19.0) - 0.3, rtol=1e-14)

    def test_quantized_no_feedback_matches_plain(self):
        r = RewardSpec(P=10.0, alpha=0.3)
        eps = fake_eps_stats([0.5, 2.0], 10.0, 0.9)
        G0q, _ = stage_rewards([0.5, 2.0], 0.4, r, eps)
        G0, _ = stage_rewards([0.5, 2.0], 0.4, r)
        assert np.array_equal(G0q, G0)

    def test_quantized_unknown_power_point_rejected(self):
        r = RewardSpec(P=10.0, alpha=0.3)
        eps = fake_eps_stats([0.5, 2.0], 10.0, 0.9)
        with pytest.raises(ValueError, match="power point"):
            stage_rewards(1.0, 0.4, r, eps)

    def test_quantized_rates_at_another_snr_rejected(self):
        r = RewardSpec(P=10.0, alpha=0.3)
        eps = fake_eps_stats([0.5, 2.0], 100.0, 0.9)
        with pytest.raises(ValueError, match="SNR"):
            stage_rewards([0.5, 2.0], 0.4, r, eps)


# ----------------------------------------------------------------------------
# Bellman operator and discounted iteration
# ----------------------------------------------------------------------------

class TestContinuation:
    def test_matches_explicit_double_sum(self):
        rng = np.random.default_rng(31)
        spec, model = synthetic_setup(rng, M=3, N=4)
        V = rng.normal(size=(3, 4))
        W0, W1 = _backup(V, model)
        for mu in (0, 1):
            for m in range(3):
                for n in range(4):
                    zrow = model.feedback_row if mu else model.P0[n]
                    want = sum(
                        model.Ptilde[m, k] * zrow[l] * V[k, l]
                        for k in range(3) for l in range(4)
                    )
                    got = W1[m] if mu else W0[m, n]
                    np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_feedback_continuation_ignores_alignment(self):
        # the feedback backup has one entry per power bin, whatever the
        # alignment bin it is taken from
        rng = np.random.default_rng(32)
        spec, model = synthetic_setup(rng, M=3, N=4)
        V = rng.normal(size=(3, 4))
        W0, W1 = _backup(V, model)
        assert W0.shape == (3, 4) and W1.shape == (3,)

    def test_feedback_continuation_reads_the_model_row(self):
        # swapping the model's feedback row moves only the feedback backup
        rng = np.random.default_rng(34)
        spec, model = synthetic_setup(rng, M=3, N=4)
        lossy = lossy_model(model)
        V = rng.normal(size=(3, 4))
        W0, W1 = _backup(V, model)
        L0, L1 = _backup(V, lossy)
        np.testing.assert_array_equal(L0, W0)
        np.testing.assert_allclose(L1, model.Ptilde @ (V @ lossy.feedback_row),
                                   rtol=1e-12)
        assert np.max(np.abs(L1 - W1)) > 1e-6


class TestDpOperator:
    def test_beta_zero_is_stagewise_max(self):
        rng = np.random.default_rng(40)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=20.0, alpha=0.6)
        G0, G1 = stage_tables_oracle(spec, r)
        out = dp_operator(rng.normal(size=(3, 4)) * 0.0, 0.0, model, r, spec)
        np.testing.assert_allclose(out, np.maximum(G0, G1[:, None]), rtol=1e-12)

    def test_operator_is_monotone(self):
        rng = np.random.default_rng(41)
        r = RewardSpec(P=20.0, alpha=0.6)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=3, N=4)
            V = rng.normal(size=(3, 4))
            W = V + rng.random(size=(3, 4))
            TV = dp_operator(V, 0.9, model, r, spec)
            TW = dp_operator(W, 0.9, model, r, spec)
            assert np.all(TW - TV >= -1e-12)

    def test_operator_is_a_sup_norm_contraction(self):
        rng = np.random.default_rng(42)
        r = RewardSpec(P=20.0, alpha=0.6)
        spec, model = synthetic_setup(rng, M=3, N=4)
        for _ in range(10):
            V = rng.normal(size=(3, 4)) * 5.0
            W = rng.normal(size=(3, 4)) * 5.0
            TV = dp_operator(V, 0.9, model, r, spec)
            TW = dp_operator(W, 0.9, model, r, spec)
            assert np.max(np.abs(TV - TW)) <= 0.9 * np.max(np.abs(V - W)) + 1e-12


class TestValueIterationDiscounted:
    def test_single_state_closed_form(self):
        spec, model = one_state_setup()
        r = RewardSpec(P=2.0, alpha=0.0)
        V = value_iteration_discounted(model, r, spec, beta=0.9, tol=1e-12)
        want = math.log2(3.0) / 0.1  # always feed back: g = log2(1 + P) each slot
        np.testing.assert_allclose(V[0, 0], want, rtol=1e-10)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(43)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=20.0, alpha=0.6)
        V = value_iteration_discounted(model, r, spec, beta=0.95, tol=1e-11)
        again = dp_operator(V, 0.95, model, r, spec)
        assert np.max(np.abs(again - V)) <= 1e-11

    def test_values_monotone_on_monotone_model(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            spec, model = synthetic_setup(rng, M=3, N=4)
            r = RewardSpec(P=20.0, alpha=float(rng.random()))
            V = value_iteration_discounted(model, r, spec, beta=0.9, tol=1e-10)
            assert np.all(np.diff(V, axis=1) >= -1e-9)
            assert np.all(np.diff(V, axis=0) >= -1e-9)

    def test_iteration_budget_enforced(self):
        rng = np.random.default_rng(45)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=20.0, alpha=0.6)
        # a positive finite residual in e-notation starts with a digit 1-9
        with pytest.raises(NumericalError, match=r"^discounted value iteration "
                           r"did not converge \(residual [1-9]\.\d{3}e[+-]\d+\)$"):
            value_iteration_discounted(model, r, spec, beta=0.999, max_iter=2)


# ----------------------------------------------------------------------------
# policy evaluation and optimality against the oracles
# ----------------------------------------------------------------------------

class TestAverageRewardOracle:
    def test_fixed_policies_match_loop_oracle(self):
        rng = np.random.default_rng(50)
        r = RewardSpec(P=30.0, alpha=0.4)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=2, N=3)
            decide = rng.random(size=(2, 3)) < 0.5
            got = average_reward(decide, model, r, spec)
            want = gain_oracle(decide, model, spec, r)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_all_feedback_uses_power_chain_only(self):
        # paying every slot removes alignment from the picture entirely
        rng = np.random.default_rng(51)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=30.0, alpha=0.4)
        got = average_reward(np.ones((3, 4), bool), model, r, spec)
        pit = occupancy_oracle(model.Ptilde)
        want = float(pit @ (np.log2(1.0 + 30.0 * spec.g_points) - 0.4))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_price_enters_linearly_for_all_feedback(self):
        rng = np.random.default_rng(52)
        spec, model = synthetic_setup(rng, M=3, N=4)
        all_on = np.ones((3, 4), bool)
        j0 = average_reward(all_on, model, RewardSpec(P=30.0, alpha=0.0), spec)
        j1 = average_reward(all_on, model, RewardSpec(P=30.0, alpha=0.9), spec)
        np.testing.assert_allclose(j0 - j1, 0.9, atol=1e-12)


class TestPolicyIterationOptimality:
    def test_beats_every_decision_table(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=2, N=3)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            res = policy_iteration_average(model, r, spec)
            best = best_gain_by_enumeration(model, spec, r)
            np.testing.assert_allclose(res.J, best, atol=1e-9)

    def test_agrees_with_exhaustive_threshold_search(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=2, N=4)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            res = policy_iteration_average(model, r, spec)
            search = exhaustive_threshold_search(model, r, spec)
            np.testing.assert_allclose(res.J, search.J, atol=1e-9)

    def test_agrees_with_relative_value_iteration(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            spec, model = synthetic_setup(rng, M=3, N=4)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            res = policy_iteration_average(model, r, spec)
            J, _ = relative_value_iteration(model, r, spec, tol=1e-12)
            np.testing.assert_allclose(res.J, J, atol=1e-8)

    def test_free_feedback_means_always_feed_back(self):
        rng = np.random.default_rng(63)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=30.0, alpha=0.0)
        res = policy_iteration_average(model, r, spec)
        assert np.all(res.policy.y == 1.0)

    def test_prohibitive_price_means_never_feed_back(self):
        rng = np.random.default_rng(64)
        spec, model = synthetic_setup(rng, M=3, N=4)
        # price above the largest possible per-slot gain plus the largest
        # possible swing in continuation value can never pay off
        J_span = math.log2(1.0 + 30.0 * spec.g_points[-1])
        r = RewardSpec(P=30.0, alpha=5.0 * J_span + 5.0)
        res = policy_iteration_average(model, r, spec)
        assert np.all(res.policy.y == 0.0)
        want = average_reward(np.zeros((3, 4), bool), model, r, spec)
        np.testing.assert_allclose(res.J, want, atol=1e-12)

    def test_result_is_self_consistent(self):
        rng = np.random.default_rng(65)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=30.0, alpha=0.5)
        res = policy_iteration_average(model, r, spec)
        table = threshold_table(res.policy.y, spec)
        np.testing.assert_allclose(
            res.J, average_reward(table, model, r, spec), atol=1e-10)
        assert res.iterations >= 1
        # differential values solve the evaluation equations: anchored last state
        assert res.A[-1, -1] == 0.0

    def test_solve_computes_no_occupancy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("occupancy computed by a solve")

        monkeypatch.setattr(mdp, "stationary_distribution", forbidden)
        spec, model = synthetic_setup(np.random.default_rng(67), M=3, N=4)
        res = policy_iteration_average(model, RewardSpec(P=30.0, alpha=0.5), spec)
        assert res.iterations >= 1

    def test_iteration_budget_enforced(self, monkeypatch):
        rng = np.random.default_rng(66)
        spec, model = synthetic_setup(rng, M=2, N=3)
        r = RewardSpec(P=30.0, alpha=0.5)
        monkeypatch.setattr(mdp, "_POLICY_ITERATIONS", 0)
        with pytest.raises(NumericalError, match="^policy iteration did not settle$"):
            policy_iteration_average(model, r, spec)

    def test_alignment_frozen_chain_is_rejected(self):
        # a prohibitive price starts from never feeding back, whose chain
        # keeps one closed class per alignment bin
        rng = np.random.default_rng(69)
        spec, _ = synthetic_setup(rng, M=3, N=4)
        model = alignment_frozen_model(rng)
        with pytest.raises(NumericalError, match="policy evaluation system is singular"):
            policy_iteration_average(model, RewardSpec(P=30.0, alpha=100.0), spec)

    def test_gain_is_monotone_in_price(self):
        rng = np.random.default_rng(67)
        spec, model = synthetic_setup(rng, M=3, N=4)
        alphas = [0.0, 0.3, 0.8, 1.5, 3.0]
        gains = [policy_iteration_average(model, RewardSpec(P=30.0, alpha=a), spec).J
                 for a in alphas]
        for lo, hi, a_lo, a_hi in zip(gains[1:], gains[:-1], alphas[1:], alphas[:-1]):
            assert lo <= hi + 1e-12
            # one unit of price can cost at most one unit of gain
            assert hi - lo <= (a_lo - a_hi) + 1e-12

    def test_frozen_regression_value(self):
        # pinned against the enumeration oracle when first recorded
        rng = np.random.default_rng(202)
        spec, model = synthetic_setup(rng, M=3, N=4)
        res = policy_iteration_average(model, RewardSpec(P=50.0, alpha=0.7), spec)
        np.testing.assert_allclose(res.J, 7.082346679418066, rtol=1e-12)
        want = [[1, 1, 1, 0]] * 3
        assert threshold_table(res.policy.y, spec).astype(int).tolist() == want

    def test_deterministic_given_the_model(self):
        rng = np.random.default_rng(68)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=30.0, alpha=0.5)
        a = policy_iteration_average(model, r, spec)
        b = policy_iteration_average(model, r, spec)
        assert a.J == b.J
        assert np.array_equal(a.policy.y, b.policy.y)


class TestDecisionBoundary:
    def test_single_state_prefers_keeping_the_beam_near_a_tie(self):
        # on one state the continuation terms cancel exactly, so the decision
        # is the stage-reward comparison alone; straddle it from both sides
        spec, model = one_state_setup(z_point=0.5)
        gap = math.log2(1.0 + 2.0) - math.log2(1.0 + 2.0 * 0.5)
        above = policy_iteration_average(
            model, RewardSpec(P=2.0, alpha=gap + 1e-9), spec)
        below = policy_iteration_average(
            model, RewardSpec(P=2.0, alpha=gap - 1e-9), spec)
        assert above.policy.y[0] == 0.0
        assert below.policy.y[0] == 1.0


# ----------------------------------------------------------------------------
# stationary distributions
# ----------------------------------------------------------------------------

class TestStationaryDistribution:
    def test_matches_null_space_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            spec, model = synthetic_setup(rng, M=3, N=4)
            decide = rng.random(size=(3, 4)) < 0.5
            pi = stationary_distribution(decide, model)
            T = chain_matrix(decide, model)
            np.testing.assert_allclose(pi.ravel(), occupancy_oracle(T), atol=1e-10)

    def test_rows_form_a_distribution(self):
        rng = np.random.default_rng(71)
        spec, model = synthetic_setup(rng, M=3, N=4)
        pi = stationary_distribution(np.zeros((3, 4), bool), model)
        assert pi.min() >= 0.0
        np.testing.assert_allclose(pi.sum(), 1.0, rtol=1e-12)

    def test_power_marginal_does_not_depend_on_the_policy(self):
        # feedback moves only the alignment, so every decision table leaves
        # the power bins the stationary law of Ptilde
        rng = np.random.default_rng(74)
        _, small = synthetic_setup(rng, M=3, N=4)
        params = FadingParams(L=3, doppler_slot=0.1)
        estimated = estimate_transition_model(params, make_grid(3, 16, 16), 200_000,
                                              np.random.default_rng(75))
        for model in (small, estimated):
            M, N = model.Ptilde.shape[0], model.P0.shape[0]
            # pi (Ptilde - I) = 0 with sum(pi) = 1, by least squares
            system = np.vstack((model.Ptilde.T - np.eye(M), np.ones((1, M))))
            rhs = np.zeros(M + 1)
            rhs[-1] = 1.0
            law = np.linalg.lstsq(system, rhs, rcond=None)[0]
            tables = [rng.random((M, N)) < q for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
            tables += [np.zeros((M, N), bool), np.ones((M, N), bool)]
            marginals = [stationary_distribution(t, model).sum(axis=1) for t in tables]
            for marginal in marginals:
                assert np.max(np.abs(marginal - marginals[0])) <= 1e-10
                assert np.max(np.abs(marginal - law)) <= 1e-10

    def test_frozen_chain_is_rejected(self):
        # identity kernels leave every distribution stationary
        model = TransitionModel(Ptilde=np.eye(2), P0=np.eye(3),
                                feedback_row=[0.0, 0.0, 1.0], sample_count=1)
        with pytest.raises(NumericalError, match="stationary system is singular"):
            stationary_distribution(np.zeros((2, 3), bool), model)

    def test_disconnected_power_classes_are_rejected(self):
        # feedback pins alignment, but identity power mixing still leaves one
        # free class per power bin
        model = TransitionModel(Ptilde=np.eye(2), P0=np.eye(3),
                                feedback_row=[0.0, 0.0, 1.0], sample_count=1)
        with pytest.raises(NumericalError, match="stationary system is singular"):
            stationary_distribution(np.ones((2, 3), bool), model)

    def test_alignment_frozen_chain_is_rejected(self):
        # power mixes, but without feedback every alignment bin is closed
        model = alignment_frozen_model(np.random.default_rng(73))
        with pytest.raises(NumericalError, match="stationary system is singular"):
            stationary_distribution(np.zeros((3, 4), bool), model)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(72)
        spec, model = synthetic_setup(rng, M=3, N=4)
        with pytest.raises(ValueError, match="shape"):
            stationary_distribution(np.zeros((4, 3), bool), model)


class TestMatrixFreeAgreesWithDense:
    @staticmethod
    def _check(decide, model, spec, rewards, eps):
        G0, G1 = _stage_tables(spec, rewards, eps)
        J, A, residual = _evaluate_policy(decide, model, G0, G1)
        J_ref, A_ref = dense_evaluate_policy(decide, model, G0, G1)
        assert abs(J - J_ref) <= 1e-10
        assert np.max(np.abs(A - A_ref)) <= 1e-9
        assert A[-1, -1] == 0.0
        assert residual <= 1e-10
        pi = stationary_distribution(decide, model)
        assert np.max(np.abs(pi - dense_stationary(decide, model))) <= 1e-12

    def test_random_models_and_tables(self):
        rng = np.random.default_rng(120)
        for _ in range(25):
            M, N = (int(v) for v in rng.integers(1, 8, size=2))
            spec, model = synthetic_setup(rng, M=M, N=N)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            eps = fake_eps_stats(spec.g_points, 30.0, 0.85)
            tables = [rng.random((M, N)) < 0.3, rng.random((M, N)) < 0.7,
                      np.ones((M, N), bool), np.zeros((M, N), bool)]
            for decide in tables:
                self._check(decide, model, spec, r, None)
                self._check(decide, lossy_model(model), spec, r, eps)

    def test_one_state(self):
        spec, model = one_state_setup()
        r = RewardSpec(P=2.0, alpha=0.3)
        for decide in (np.ones((1, 1), bool), np.zeros((1, 1), bool)):
            self._check(decide, model, spec, r, None)

    def test_solver_results_match_dense_evaluation(self):
        rng = np.random.default_rng(121)
        for _ in range(5):
            spec, model = synthetic_setup(rng, M=4, N=5)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            G0, G1 = _stage_tables(spec, r, None)
            for res in (policy_iteration_average(model, r, spec),
                        exhaustive_threshold_search(model, r, spec)):
                J_ref, A_ref = dense_evaluate_policy(threshold_table(res.policy.y, spec),
                                                     model, G0, G1)
                assert abs(res.J - J_ref) <= 1e-10
                assert np.max(np.abs(res.A - A_ref)) <= 1e-9
                assert res.residual <= 1e-10

    def test_slow_fading_solve_matches_dense_evaluation(self):
        # at doppler 0.001 the differential values reach thousands, so the
        # rounding floor of the operator sits above 1e-14 of the rewards
        spec = make_grid(3, 12, 12)
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.001), spec, 30_000, 11)
        r = RewardSpec(P=100.0, alpha=1.0)
        res = policy_iteration_average(model, r, spec)
        G0, G1 = _stage_tables(spec, r, None)
        J_ref, A_ref = dense_evaluate_policy(threshold_table(res.policy.y, spec),
                                             model, G0, G1)
        assert np.max(np.abs(A_ref)) > 1000.0
        assert abs(res.J - J_ref) <= 1e-10
        assert np.max(np.abs(res.A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
        assert res.residual <= 1e-10

    def test_fine_grid_solve_is_fast_and_accurate(self):
        # a dense evaluation at 128 x 128 would need a 2 GB matrix
        rng = np.random.default_rng(122)
        spec, model = synthetic_setup(rng, M=128, N=128)
        start = time.perf_counter()
        res = policy_iteration_average(model, RewardSpec(P=30.0, alpha=0.5), spec)
        assert time.perf_counter() - start < 10.0
        assert res.residual <= 1e-10
        assert res.A[-1, -1] == 0.0


# ----------------------------------------------------------------------------
# threshold structure
# ----------------------------------------------------------------------------

class TestThresholdLowerBound:
    def test_free_feedback_reaches_the_top(self):
        assert threshold_lower_bound(2.0, 100.0, 0.0) == 1.0

    def test_known_value(self):
        np.testing.assert_allclose(
            threshold_lower_bound(1.0, 100.0, 1.0), 0.495, rtol=1e-12)

    def test_large_price_clips_to_zero(self):
        assert threshold_lower_bound(1.0, 100.0, 50.0) == 0.0

    def test_zero_power_gives_zero(self):
        assert threshold_lower_bound(0.0, 100.0, 0.5) == 0.0

    def test_monotone_in_price(self):
        vals = [threshold_lower_bound(2.0, 50.0, a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            threshold_lower_bound(-1.0, 100.0, 0.5)
        with pytest.raises(ValueError):
            threshold_lower_bound(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            threshold_lower_bound(1.0, 100.0, -0.5)


class TestPolicy:
    def test_decisions_are_a_frozen_copy(self):
        y = np.zeros(2)
        policy = Policy(y)
        y[0] = 0.5  # the caller's own array stays writable
        assert not policy.y.any()
        with pytest.raises(ValueError, match="read-only"):
            policy.y[0] = 0.5

    def test_every_curve_in_the_unit_cube_is_accepted(self):
        y = Policy([0.0, 0.25, 1.0]).y
        assert y.dtype == float and y.tolist() == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize("y, match", [
        (np.zeros((2, 2)), "1-D"),
        (0.5, "1-D"),
        ([0.5, math.nan], r"\[0, 1\]"),
        ([0.5, -1e-12], r"\[0, 1\]"),
        ([np.nextafter(1.0, 2.0)], r"\[0, 1\]"),
        ([math.inf], r"\[0, 1\]"),
    ])
    def test_invalid_curves_rejected(self, y, match):
        with pytest.raises(ValueError, match=match):
            Policy(y)


class TestThresholdStructure:
    def test_optimal_policies_are_thresholds(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=3, N=5)
            r = RewardSpec(P=30.0, alpha=float(rng.random() * 2.0))
            res = policy_iteration_average(model, r, spec)
            assert np.all(np.isin(res.policy.y, spec.z_edges))
            # the table the thresholds rebuild is the greedy step on the
            # returned values, so it is the table policy iteration settled on
            assert np.array_equal(threshold_table(res.policy.y, spec),
                                  greedy_table(res.A, model, r, spec))

    def test_feedback_taken_whenever_it_pays_immediately(self):
        # below the per-stage bound the realigned continuation also dominates,
        # so those cells must request feedback
        rng = np.random.default_rng(81)
        for _ in range(20):
            spec, model = synthetic_setup(rng, M=3, N=5)
            r = RewardSpec(P=30.0, alpha=float(rng.random()))
            res = policy_iteration_average(model, r, spec)
            for m in range(3):
                lb = threshold_lower_bound(float(spec.g_points[m]), r.P, r.alpha)
                must = spec.z_points < lb - 1e-9
                assert np.all(threshold_table(res.policy.y, spec)[m][must])

    def test_extraction_patterns(self):
        spec = GridSpec(M=4, N=4, g_edges=[0.0, 1.0, 2.0, 3.0, np.inf],
                        g_points=[0.5, 1.5, 2.5, 3.5],
                        z_edges=np.arange(5) / 4.0,
                        z_points=np.arange(4) / 4.0 + 0.125)
        decide = np.array([
            [True, True, True, True],
            [False, False, False, False],
            [True, True, False, False],
            [True, False, True, False],
        ])
        y, is_threshold = extract_threshold(decide, spec)
        assert not is_threshold  # last row feeds back above a gap
        np.testing.assert_allclose(y, [1.0, 0.0, 0.5, 0.25])

    def test_threshold_rows_alone_are_accepted(self):
        spec = GridSpec(M=2, N=4, g_edges=[0.0, 1.0, np.inf], g_points=[0.5, 1.5],
                        z_edges=np.arange(5) / 4.0,
                        z_points=np.arange(4) / 4.0 + 0.125)
        decide = np.array([[True, True, False, False],
                           [True, False, False, False]])
        y, is_threshold = extract_threshold(decide, spec)
        assert is_threshold
        np.testing.assert_allclose(y, [0.5, 0.25])

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(M=2, N=4, g_edges=[0.0, 1.0, np.inf], g_points=[0.5, 1.5],
                        z_edges=np.arange(5) / 4.0,
                        z_points=np.arange(4) / 4.0 + 0.125)
        with pytest.raises(ValueError, match="shape"):
            extract_threshold(np.zeros((2, 3), bool), spec)

    @pytest.mark.parametrize("alpha", [2.6, 2.8, 3.0])
    def test_gapped_optimum_fails_loudly(self, alpha):
        # the middle bin alone feeds back: no threshold rule gives that table
        spec, model = make_grid(3, 1, 3), gapped_feedback_model()
        r = RewardSpec(P=100.0, alpha=alpha)
        gapped = np.array([[False, True, False]])
        G0, G1 = _stage_tables(spec, r, None)
        _, A, _ = _evaluate_policy(gapped, model, G0, G1)
        assert np.array_equal(greedy_table(A, model, r, spec), gapped)
        assert not extract_threshold(gapped, spec)[1]
        with pytest.raises(NumericalError, match="not a threshold rule"):
            policy_iteration_average(model, r, spec)


class TestExhaustiveSearch:
    def test_reports_candidate_count(self):
        rng = np.random.default_rng(82)
        spec, model = synthetic_setup(rng, M=2, N=4)
        r = RewardSpec(P=30.0, alpha=0.2)
        res = exhaustive_threshold_search(model, r, spec)
        assert 1 <= res.iterations <= (spec.N + 1) ** spec.M

    def test_candidate_guard(self, monkeypatch):
        rng = np.random.default_rng(83)
        spec, model = synthetic_setup(rng, M=3, N=6)
        r = RewardSpec(P=30.0, alpha=2.0)
        monkeypatch.setattr(oracles, "_SEARCH_CANDIDATES", 1)
        with pytest.raises(ValueError, match="guard"):
            exhaustive_threshold_search(model, r, spec)

    def test_search_result_is_threshold_by_construction(self):
        rng = np.random.default_rng(84)
        spec, model = synthetic_setup(rng, M=2, N=4)
        r = RewardSpec(P=30.0, alpha=0.7)
        res = exhaustive_threshold_search(model, r, spec)
        assert np.all(np.isin(res.policy.y, spec.z_edges))
        table = threshold_table(res.policy.y, spec)
        assert abs(average_reward(table, model, r, spec) - res.J) <= 1e-10


# ----------------------------------------------------------------------------
# quantized feedback
# ----------------------------------------------------------------------------

class TestQuantizedSolves:
    def test_quantization_never_helps(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            spec, model = synthetic_setup(rng, M=3, N=4)
            r = RewardSpec(P=30.0, alpha=0.5)
            eps = fake_eps_stats(spec.g_points, 30.0, 0.85)
            J_perfect = policy_iteration_average(model, r, spec).J
            J_quant = policy_iteration_average(lossy_model(model), r, spec, eps=eps).J
            assert J_quant <= J_perfect + 1e-10

    def test_quantized_option_still_beats_never_feeding_back(self):
        rng = np.random.default_rng(91)
        spec, model = synthetic_setup(rng, M=3, N=4, quantized=True)
        r = RewardSpec(P=30.0, alpha=0.5)
        eps = fake_eps_stats(spec.g_points, 30.0, 0.85)
        J_quant = policy_iteration_average(model, r, spec, eps=eps).J
        J_never = average_reward(np.zeros((3, 4), bool), model, r, spec)
        assert J_quant >= J_never - 1e-12

    def test_solve_gain_uses_the_model_row(self):
        # the solver's gain is the oracle gain of its policy on the lossy
        # row, not on the exact row the lossy model was derived from
        rng = np.random.default_rng(92)
        spec, model = synthetic_setup(rng, M=3, N=4)
        lossy = lossy_model(model)
        r = RewardSpec(P=30.0, alpha=1.0)
        res = policy_iteration_average(lossy, r, spec)
        table = threshold_table(res.policy.y, spec)
        # a mixed policy: always feeding back would make the row irrelevant
        assert table.any() and not table.all()
        assert abs(res.J - gain_oracle(table, lossy, spec, r)) <= 1e-10
        J_exact_row = gain_oracle(table, model, spec, r)
        assert abs(res.J - J_exact_row) > 1e-6


# ----------------------------------------------------------------------------
# vanishing discount and serialization
# ----------------------------------------------------------------------------

class TestDiscountedVsAverage:
    def test_vanishing_discount_recovers_the_gain(self):
        rng = np.random.default_rng(100)
        for _ in range(3):
            spec, model = synthetic_setup(rng, M=2, N=3)
            r = RewardSpec(P=30.0, alpha=0.5)
            J = policy_iteration_average(model, r, spec).J
            V = value_iteration_discounted(model, r, spec, beta=0.999, tol=1e-8)
            scaled = (1.0 - 0.999) * float(V.mean())
            np.testing.assert_allclose(scaled, J, rtol=0.02)


class TestSerialization:
    def test_round_trip_and_fields(self):
        rng = np.random.default_rng(110)
        spec, model = synthetic_setup(rng, M=3, N=4)
        r = RewardSpec(P=30.0, alpha=0.5)
        res = policy_iteration_average(model, r, spec)
        doc = json.loads(solve_result_to_json(res, spec, model))
        assert set(doc) == {"policy", "threshold", "is_threshold", "J",
                            "iterations", "pi"}
        assert len(doc["threshold"]) == 3
        assert doc["is_threshold"] is True
        np.testing.assert_allclose(doc["J"], res.J, rtol=1e-15)
        assert doc["policy"] == threshold_table(res.policy.y, spec).astype(int).tolist()
        back = policy_from_json(solve_result_to_json(res, spec, model))
        assert np.array_equal(back.y, res.policy.y)

    def test_pi_is_the_occupancy_of_the_solved_table(self):
        rng = np.random.default_rng(111)
        spec, model = synthetic_setup(rng, M=3, N=4)
        res = policy_iteration_average(model, RewardSpec(P=30.0, alpha=0.5), spec)
        doc = json.loads(solve_result_to_json(res, spec, model))
        want = stationary_distribution(threshold_table(res.policy.y, spec), model)
        assert doc["pi"] == want.tolist()
