"""Working-set bounds of the stages of a sweep.

Each stage should hold only the arrays that later stages read, so its peak
of traced heap bytes (tracemalloc, which counts numpy's buffers and is
deterministic where the resident set size is not) stays a small multiple of
its output.  The peaks are taken after a warm-up call, so lazy imports and
caches do not count, with n model samples or T slots and L = 3; a bound is
stated in units of one float per sample (8 n bytes) or one channel shape
per slot (16 L T bytes).  The grid draws no samples, so its bound is in
floats per bin (8 (M + N) bytes), and the per-slot indices' are in bytes
per slot.

Measured: the kernel estimator 4.3 floats per sample; the trajectory build
1.25 shapes per slot; on a run the caller holds, whose power bins and
codewords are already computed, ``simulate_policy`` 0.43 with perfect
feedback and 0.46 with a 16-word codebook, ``periodic_baseline`` 0.55; the
power bins 1.5 bytes per slot, the event table's build 16 and its walk
2.9; the grid 3.0 floats per bin; fig 3's four curves 1.74 shapes per slot,
as many as the curves of one of its two runs; fig 6's two curves at 2^14
slots and 200k model samples 10.39, as many as its quantized design alone.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from beamfeedback import cli, simulator
from beamfeedback.channel import FadingParams
from beamfeedback.codebook import random_codebook
from beamfeedback.mdp import Policy, RewardSpec
from beamfeedback.simulator import (
    Run,
    TrajectoryConfig,
    periodic_baseline,
    simulate_policy,
    sweep_alpha,
)
from beamfeedback.state_grid import estimate_transition_model, make_grid

L = 3
n = T = 1 << 16
PARAMS = FadingParams(L=L, doppler_slot=0.1)
SAMPLE = 8 * n
SHAPES = 16 * L * T


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak traced bytes of one call, after an untraced warm-up call."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spec():
    return make_grid(L, 16, 16)


def test_make_grid():
    M = N = 1 << 12
    assert traced_peak(make_grid, L, M, N) <= 4 * 8 * (M + N)


def test_estimate_transition_model(spec):
    assert traced_peak(estimate_transition_model, PARAMS, spec, n, 3) <= 6 * SAMPLE


def test_trajectory():
    peak = traced_peak(simulator._trajectory, PARAMS, TrajectoryConfig(T, seed=4))
    assert peak <= 1.6 * SHAPES


@pytest.mark.parametrize("codebook", [None, 16])
def test_simulate_policy_on_a_held_run(spec, codebook):
    if codebook is not None:
        codebook = random_codebook(L, codebook, 5)
    policy = Policy(np.linspace(0.3, 0.9, spec.M))
    run = Run(PARAMS, TrajectoryConfig(T, seed=6), spec, codebook)
    peak = traced_peak(simulate_policy, policy, run, RewardSpec(P=100.0, alpha=0.5))
    assert peak <= 0.6 * SHAPES


def test_periodic_baseline_on_a_held_run(spec):
    run = Run(PARAMS, TrajectoryConfig(T, seed=6), spec)
    peak = traced_peak(periodic_baseline, run, 100.0, [0.5, 1.5], 32)
    assert peak <= 1.0 * SHAPES


def test_per_slot_indices_are_narrow(spec):
    # a power bin of 16 and a codeword of 16 take one byte each, an open
    # slot of 2**16 two bytes and its successor, up to 2**16, four: none is
    # formed at full length in a wider type first
    run = Run(PARAMS, TrajectoryConfig(T, seed=6), spec)
    run.channel  # built before any traced call
    assert traced_peak(lambda: dataclasses.replace(run).m) <= 2 * T
    codebook = random_codebook(L, 16, 5)
    assert dataclasses.replace(run, codebook=codebook).code.dtype == np.uint8
    table = simulator._EventTable(np.full(spec.M, 0.75), run)
    assert table.successor.dtype == np.uint32
    # the table and the open slots, and the blocks of one lag (about 10 bytes
    # per slot at this length)
    assert traced_peak(simulator._EventTable, np.full(spec.M, 0.75), run) <= 20 * T


def test_event_walk_makes_no_object_per_slot(spec):
    run = Run(PARAMS, TrajectoryConfig(T, seed=6), spec)
    table = simulator._EventTable(np.full(spec.M, 0.75), run)
    assert traced_peak(table.events) <= 8 * T


def test_figure_curves_hold_one_run_at_a_time():
    # the two fig-3 runs are built one after the other, so the four curves
    # peak as high as the two curves of one run, give or take 0.1 shape per
    # slot; one more trajectory held would add 1.17
    slots = T // 4
    cfg = cli.ExperimentConfig(M=4, N=4, model_samples=5000, alphas=(0.5, 1.5), slots=slots,
                               warmup=100)

    def curves_of_one_run(sub):
        run = cli._make_run(sub)
        sweep_alpha(sub.alphas, run, sub.P, sub.model_samples)
        periodic_baseline(run, sub.P, sub.alphas, cli._MAX_PERIOD)

    one = max(traced_peak(curves_of_one_run, dataclasses.replace(cfg, doppler_slot=d))
              for d in (0.1, 0.01))
    assert traced_peak(cli._figure_curves, 3, cfg) <= one + 0.1 * 16 * L * slots


@pytest.mark.parametrize("figure", [3, 4, 6])
def test_figure_curves_design_every_curve_before_any_trajectory(figure, monkeypatch):
    # figs 3 and 4 build one trajectory per run, and fig 6's two curves share one
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    design = recording("design", simulator._design)
    monkeypatch.setattr(simulator, "_design", design)
    monkeypatch.setattr(cli, "_design", design)
    monkeypatch.setattr(simulator, "_trajectory",
                        recording("trajectory", simulator._trajectory))
    cfg = cli.ExperimentConfig(M=4, N=4, model_samples=5000, alphas=(0.5, 1.5), slots=4000,
                               warmup=100, codebook_size=4, codebook_training=500,
                               codebook_iterations=3)
    cli._figure_curves(figure, cfg)
    assert calls == ["design"] * 2 + ["trajectory"] * (1 if figure == 6 else 2)


def test_figure_6_holds_no_trajectory_through_its_designs():
    # here the quantized design alone peaks at 10.39 shapes per slot, far
    # above one trajectory (1.17), so the figure peaks with that design
    # (10.39) when both designs come first, and at 11.57 when the perfect
    # curve's trajectory is held through the quantized design
    slots = T // 4
    cfg = cli.ExperimentConfig(M=4, N=4, model_samples=200_000, alphas=(0.5, 1.5),
                               slots=slots, warmup=100, codebook_method="lloyd",
                               codebook_size=8, codebook_training=2000, codebook_iterations=5)
    run = cli._make_run(cfg)
    design = traced_peak(simulator._design, cfg.alphas, run, cfg.P, cfg.model_samples)
    assert traced_peak(cli._figure_curves, 6, cfg) <= design + 0.6 * 16 * L * slots
