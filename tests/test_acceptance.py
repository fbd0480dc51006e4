"""End-to-end acceptance suite.

Each test is one numbered acceptance criterion and prints a single
``criterion NN PASS/FAIL`` line (visible on failure or with ``-rA``); the
verbose pytest report likewise shows one line per criterion.  Oracles here
are independent of the implementation: closed-form prices on models built to
have no feedback memory, direct numerical integration for throughput, full
threshold enumeration for optimality, and the analytic alignment law for the
channel geometry.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from beamfeedback.channel import FadingParams
from beamfeedback.codebook import (
    epsilon_statistics,
    lloyd_codebook,
    quantization_errors,
    random_codebook,
)
from beamfeedback.mdp import (
    Policy,
    RewardSpec,
    policy_iteration_average,
    threshold_lower_bound,
)
from beamfeedback.simulator import (
    Run,
    TrajectoryConfig,
    simulate_policy,
    sweep_alpha,
)
from beamfeedback.state_grid import TransitionModel, estimate_transition_model, make_grid

from conftest import synthetic_setup, tilted_rows
from oracles import (
    exhaustive_threshold_search,
    greedy_table,
    refinement_study,
    simulate_periodic,
    threshold_table,
)

SNR = 100.0  # 20 dB transmit SNR used throughout the reference experiments
PARAMS = FadingParams(L=3, doppler_slot=0.1)
LONG_RUN = TrajectoryConfig(slots=1_000_000, warmup=1000, seed=4096)


def _finish(num, name, start, budget, failures):
    """Print the per-criterion verdict line, then enforce it."""
    elapsed = time.perf_counter() - start
    failures = list(failures)
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f} s exceeded the {budget:.0f} s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} {status} in {elapsed:.1f} s — {name}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def memoryless_alignment_setup(rng, M, N):
    """Model whose alignment transition ignores both the state and feedback.

    With every no-feedback row equal to the feedback row, feeding back buys
    alignment for the current slot only, so the optimal policy reduces to a
    per-stage comparison and the extreme-price behavior is provable exactly.
    """
    spec, _ = synthetic_setup(rng, M=M, N=N)
    row = tilted_rows(rng, 1, N)[0]
    model = TransitionModel(Ptilde=tilted_rows(rng, M, M),
                            P0=np.tile(row, (N, 1)), feedback_row=row.copy(),
                            sample_count=1)
    return spec, model


@pytest.fixture(scope="module")
def paper_grid():
    return make_grid(3, 16, 16)


@pytest.fixture(scope="module")
def paper_model(paper_grid):
    return estimate_transition_model(PARAMS, paper_grid, 1_000_000,
                                     np.random.default_rng(618))


@pytest.fixture(scope="module")
def harness_grid():
    # Evaluation of the two open-loop policies never consults the bins, so a
    # coarse grid is enough to host them.
    return make_grid(3, 4, 4)


@pytest.fixture(scope="module")
def open_loop_evals(harness_grid):
    """No feedback and feedback in every slot, measured on one long run."""
    run = Run(PARAMS, LONG_RUN, harness_grid)
    return tuple(simulate_policy(Policy(np.full(harness_grid.M, y)), run,
                                 RewardSpec(P=SNR, alpha=0.0)) for y in (0.0, 1.0))


def _settled(result, model, rewards, spec) -> bool:
    """The table the solved thresholds rebuild is the greedy improvement of
    the returned differential values: policy iteration settled on it."""
    return np.array_equal(threshold_table(result.policy.y, spec),
                          greedy_table(result.A, model, rewards, spec))


def test_01_extreme_prices_solve_exactly():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(11)
    for M, N in ((3, 4), (5, 6), (8, 8)):
        spec, model = synthetic_setup(rng, M=M, N=N)
        rewards = RewardSpec(P=SNR, alpha=0.0)
        free = policy_iteration_average(model, rewards, spec)
        if not (np.all(free.policy.y == 1.0) and _settled(free, model, rewards, spec)):
            failures.append(f"free feedback is not taken everywhere on {M}x{N}")

        spec, model = memoryless_alignment_setup(rng, M, N)
        free = policy_iteration_average(model, rewards, spec)
        if not (np.all(free.policy.y == 1.0) and _settled(free, model, rewards, spec)):
            failures.append(f"free feedback skipped on memoryless {M}x{N}")
        cutoff = 1.0 + math.log2(1.0 + SNR * spec.g_points[-1])
        rewards = RewardSpec(P=SNR, alpha=cutoff)
        costly = policy_iteration_average(model, rewards, spec)
        if not (np.all(costly.policy.y == 0.0) and _settled(costly, model, rewards, spec)):
            failures.append(f"prohibitive price still buys feedback on {M}x{N}")
    _finish(1, "extreme prices give the all- and never-feedback policies",
            start, 1.0, failures)


def test_02_threshold_structure_with_lower_bound(paper_grid, paper_model):
    start = time.perf_counter()
    failures = []
    slack = 1.0 / paper_grid.N
    for alpha in (0.2, 0.7, 1.2):
        rewards = RewardSpec(P=SNR, alpha=alpha)
        result = policy_iteration_average(paper_model, rewards, paper_grid)
        if not _settled(result, paper_model, rewards, paper_grid):
            failures.append(f"policy at alpha={alpha} is not a threshold rule")
            continue
        bounds = np.array([threshold_lower_bound(g, SNR, alpha)
                           for g in paper_grid.g_points])
        worst = float(np.min(result.policy.y - (bounds - slack)))
        if worst < -1e-12:
            failures.append(f"threshold at alpha={alpha} sits {-worst:.3g} "
                            "below the per-power bound minus one bin")
    _finish(2, "optimal policies are threshold rules above the closed-form bound",
            start, 60.0, failures)


def test_03_policy_iteration_matches_exhaustive_search():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(23)
    for trial in range(20):
        spec, model = synthetic_setup(rng, M=2, N=4)
        alpha = float(rng.uniform(0.0, 3.0))
        rewards = RewardSpec(P=SNR, alpha=alpha)
        iterated = policy_iteration_average(model, rewards, spec)
        searched = exhaustive_threshold_search(model, rewards, spec)
        if abs(iterated.J - searched.J) > 1e-9:
            failures.append(f"trial {trial}: gain gap {iterated.J - searched.J:.2e}")
    _finish(3, "policy iteration ties the exhaustive threshold search",
            start, 10.0, failures)


def test_04_no_feedback_throughput_matches_integration(open_loop_evals):
    start = time.perf_counter()
    failures = []
    stale_eval, _ = open_loop_evals

    def integrand(z, g):
        return (np.log2(1.0 + SNR * g * z) * stats.gamma.pdf(g, 3)
                * 2.0 * (1.0 - z))

    oracle, quad_err = integrate.dblquad(integrand, 0.0, 60.0, 0.0, 1.0)
    gap = abs(stale_eval.throughput - oracle)
    if gap > 3.0 * stale_eval.stderr + quad_err:
        failures.append(f"simulated stale-beam rate off the integral by {gap:.4f} "
                        f"(3 sigma = {3 * stale_eval.stderr:.4f})")
    if not 5.6 <= stale_eval.throughput <= 6.2:
        failures.append(f"stale-beam rate {stale_eval.throughput:.3f} "
                        "outside 5.9 +/- 0.3")
    _finish(4, "no-feedback throughput matches the 2-D integration oracle",
            start, 30.0, failures)


def test_05_feedback_gain(open_loop_evals):
    start = time.perf_counter()
    failures = []
    stale_eval, fresh = open_loop_evals
    gain = fresh.throughput - stale_eval.throughput
    if not 1.8 <= gain <= 2.4:
        failures.append(f"free-feedback gain {gain:.3f} outside 2.1 +/- 0.3")
    _finish(5, "free feedback buys about 2.1 bit/s/Hz over no feedback",
            start, 60.0, failures)


def test_06_event_driven_beats_periodic(paper_grid, paper_model):
    start = time.perf_counter()
    failures = []
    run = Run(PARAMS, TrajectoryConfig(slots=400_000, warmup=1000, seed=2077), paper_grid)
    free = RewardSpec(P=SNR, alpha=0.0)
    base = [simulate_periodic(k, run, free) for k in range(1, 33)]
    gaps = []
    for alpha in np.arange(1, 11) * 0.2:
        rewards = RewardSpec(P=SNR, alpha=float(alpha))
        solved = policy_iteration_average(paper_model, rewards, paper_grid)
        controlled = simulate_policy(solved.policy, run, rewards)
        nets = [r.throughput - alpha * r.feedback_rate for r in base]
        best_k = 1 + int(np.argmax(nets))
        periodic = simulate_periodic(best_k, run, rewards)
        sigma = math.hypot(controlled.stderr, periodic.stderr)
        if controlled.net < periodic.net - 3.0 * sigma:
            failures.append(f"alpha={alpha:.1f}: controlled {controlled.net:.3f} "
                            f"under periodic {periodic.net:.3f}")
        gaps.append(controlled.net - periodic.net)
    if max(gaps) < 0.2:
        failures.append(f"largest controlled-periodic gap {max(gaps):.3f} < 0.2")
    _finish(6, "event-driven control dominates the best periodic schedule",
            start, 600.0, failures)


def test_07_quantization_inequality_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(3301)
    spec = make_grid(3, 8, 8)
    codebook = random_codebook(3, 16, rng)
    lossy_model = estimate_transition_model(
        PARAMS, spec, 300_000, rng, eps=quantization_errors(codebook, 300_000, rng))
    # a codebook model carries only the lossy feedback row; an estimate
    # without a codebook, from a generator that spawns the same streams, has
    # the same no-feedback kernel, and lends its exact row to a copy
    exact = estimate_transition_model(PARAMS, spec, 300_000,
                                      np.random.default_rng(3301))
    exact_model = dataclasses.replace(lossy_model, feedback_row=exact.feedback_row,
                                      quantized=False)
    models = {False: exact_model, True: lossy_model}
    moments = epsilon_statistics(quantization_errors(codebook, 400_000, rng), SNR,
                                 spec.g_points)
    tol = 1e-8
    for alpha in (0.25, 0.5, 1.0, 2.0):
        gains = {}
        for lossy_reward in (False, True):
            for lossy_row in (False, True):
                gains[lossy_reward, lossy_row] = policy_iteration_average(
                    models[lossy_row], RewardSpec(P=SNR, alpha=alpha), spec,
                    eps=moments if lossy_reward else None).J
        raised = RewardSpec(P=SNR, alpha=alpha - moments.mean_log2_eps)
        shifted_exact_row = policy_iteration_average(exact_model, raised, spec).J
        shifted_lossy_row = policy_iteration_average(lossy_model, raised, spec).J
        links = [
            ("exact reward, exact vs lossy row",
             gains[False, False], gains[False, True]),
            ("lossy row, exact vs lossy reward",
             gains[False, True], gains[True, True]),
            ("exact row, exact vs lossy reward",
             gains[False, False], gains[True, False]),
            ("lossy reward, exact vs lossy row",
             gains[True, False], gains[True, True]),
            ("price increment, exact row",
             gains[True, False], shifted_exact_row),
            ("price increment, lossy row",
             gains[True, True], shifted_lossy_row),
        ]
        for label, upper, lower in links:
            if upper < lower - tol:
                failures.append(f"alpha={alpha}: {label} violated by "
                                f"{lower - upper:.2e}")
    _finish(7, "quantization-loss orderings and price-increment forms hold",
            start, 60.0, failures)


def test_08_quantized_feedback_stays_below_perfect(paper_grid):
    start = time.perf_counter()
    failures = []
    alphas = [round(0.2 * i, 10) for i in range(11)]
    run = Run(PARAMS, TrajectoryConfig(slots=400_000, warmup=1000, seed=777), paper_grid)
    codebook = lloyd_codebook(3, 16, 100_000, 50, np.random.default_rng(55))
    perfect = sweep_alpha(alphas, run, SNR, model_samples=400_000)
    quantized = sweep_alpha(alphas, dataclasses.replace(run, codebook=codebook), SNR,
                            model_samples=400_000)
    for exact, lossy in zip(perfect, quantized):
        sigma = math.hypot(exact.stderr, lossy.stderr)
        if lossy.net > exact.net + 3.0 * sigma:
            failures.append(f"alpha={exact.alpha:.1f}: quantized net "
                            f"{lossy.net:.3f} above perfect {exact.net:.3f}")
    free_threshold = quantized[0].avg_threshold
    if not free_threshold < 1.0:
        failures.append(f"quantized average threshold at zero price is "
                        f"{free_threshold} (expected < 1)")
    _finish(8, "codebook feedback never beats perfect feedback and stops short "
               "of certain feedback at zero price", start, 300.0, failures)


def test_09_alignment_tail_law():
    start = time.perf_counter()
    failures = []
    for L in (2, 3, 4):
        rng = np.random.default_rng(900 + L)
        h = rng.standard_normal((100_000, L)) + 1j * rng.standard_normal((100_000, L))
        shapes = h / np.linalg.norm(h, axis=1, keepdims=True)
        beam = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        beam /= np.linalg.norm(beam)
        z = np.abs(shapes @ beam.conj()) ** 2
        distance = stats.kstest(
            z, lambda t: 1.0 - (1.0 - np.clip(t, 0.0, 1.0)) ** (L - 1)).statistic
        if distance >= 0.01:
            failures.append(f"L={L}: KS distance {distance:.4f}")
    _finish(9, "alignment to a fixed beam follows the (1-tau)^(L-1) tail law",
            start, 10.0, failures)


def test_10_convergence_and_grid_refinement(paper_grid, paper_model):
    start = time.perf_counter()
    failures = []
    for alpha in (0.2, 1.0, 2.0):
        result = policy_iteration_average(paper_model,
                                          RewardSpec(P=SNR, alpha=alpha),
                                          paper_grid)
        if result.iterations > 10:
            failures.append(f"alpha={alpha}: {result.iterations} iterations")
    study = refinement_study([(16, 16), (32, 32)], PARAMS,
                             RewardSpec(P=SNR, alpha=0.5),
                             TrajectoryConfig(slots=400_000, warmup=1000,
                                              seed=31))
    (_, _, coarse), (_, _, fine) = study
    if abs(fine - coarse) >= 0.01 * abs(coarse):
        failures.append(f"doubling the grid moved the gain from {coarse:.4f} "
                        f"to {fine:.4f} (>= 1%)")
    _finish(10, "policy iteration stays within ten rounds and the gain is "
                "grid-stable", start, 300.0, failures)
