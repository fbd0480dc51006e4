"""Working-set bounds of the stages of a sweep.

Each stage should hold only the arrays that later stages read, so its peak
of traced heap bytes (tracemalloc, which counts numpy's buffers and is
deterministic where the resident set size is not) stays a small multiple of
its output.  The peaks are taken after a warm-up call, so lazy imports and
caches do not count, with n model samples or T slots and L = 3; a bound is
stated in units of one float per sample (8 n bytes) or one channel shape
per slot (16 L T bytes).  The grid draws no samples, so its bound is in
floats per bin (8 (M + N) bytes), and the event walk's is in bytes per slot.

Measured: the kernel estimator 4.3 floats per sample; the trajectory build
1.25 shapes per slot; on a built trajectory, ``simulate_policy`` 0.72 with
perfect feedback and 1.05 with a 16-word codebook, ``periodic_baseline``
0.55; the event walk 2.9 bytes per slot; the grid 3.0 floats per bin.
"""

import tracemalloc

import numpy as np
import pytest

from beamfeedback import simulator
from beamfeedback.channel import FadingParams
from beamfeedback.codebook import random_codebook
from beamfeedback.mdp import Policy, RewardSpec
from beamfeedback.simulator import TrajectoryConfig, periodic_baseline, simulate_policy
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
    build = simulator._trajectory.__wrapped__  # the uncached build
    assert traced_peak(build, PARAMS, TrajectoryConfig(T, seed=4)) <= 1.6 * SHAPES


@pytest.mark.parametrize("codebook, bound", [(None, 1.0), (16, 1.5)])
def test_simulate_policy_on_a_cached_trajectory(spec, codebook, bound):
    if codebook is not None:
        codebook = random_codebook(L, codebook, 5)
    policy = Policy(np.linspace(0.3, 0.9, spec.M))
    cfg = TrajectoryConfig(T, seed=6)
    simulator._trajectory(PARAMS, cfg)
    peak = traced_peak(simulate_policy, policy, spec, PARAMS,
                       RewardSpec(P=100.0, alpha=0.5), cfg, codebook)
    assert peak <= bound * SHAPES


def test_periodic_baseline_on_a_cached_trajectory():
    cfg = TrajectoryConfig(T, seed=6)
    simulator._trajectory(PARAMS, cfg)
    peak = traced_peak(periodic_baseline, PARAMS, 100.0, [0.5, 1.5], 32, cfg)
    assert peak <= 1.0 * SHAPES


def test_event_walk_makes_no_object_per_slot(spec):
    cfg = TrajectoryConfig(T, seed=6)
    run = simulator._Run(spec, *simulator._trajectory(PARAMS, cfg), None)
    table = simulator._EventTable(np.full(spec.M, 0.75), run)
    assert traced_peak(table.events) <= 8 * T
