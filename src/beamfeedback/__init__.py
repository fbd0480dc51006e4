"""Event-driven channel-feedback control for multi-antenna beamforming.

The package decides, slot by slot, whether a receiver should spend uplink
bits to refresh the transmitter's channel knowledge.  It models the fading
channel as a finite-state chain over (power, alignment) bins, solves the
average-reward control problem for the net throughput — data rate minus a
per-feedback price — and checks the resulting threshold policies against
link-level simulation, with either perfect or codebook-quantized feedback.

Typical flow: ``make_grid`` bins a ``Run``'s channel, ``design`` estimates
its chain (``estimate_transition_model``) and solves it at each price
(``policy_iteration_average``), and ``measure_curve`` measures the solved
curves on the run the caller holds, as ``simulate_policy`` does one policy
and ``periodic_baseline`` the best fixed interval.  ``lloyd_codebook``
supplies the finite-rate feedback alphabet, whose ``quantization_errors``
feed the quantized row and ``epsilon_statistics``.
The exports are the names the command line and the demos use; everything
else is reached through its module.  The reference versions the tests check
against (an exhaustive threshold search, value iteration, periodic feedback
simulated on its own) live in tests/oracles.py.
"""

from .channel import FadingParams
from .codebook import (
    epsilon_statistics,
    lloyd_codebook,
    price_increment_bound,
    quantization_errors,
    random_codebook,
)
from .mdp import (
    RewardSpec,
    policy_iteration_average,
    threshold_lower_bound,
)
from .simulator import (
    Run,
    TrajectoryConfig,
    design,
    measure_curve,
    periodic_baseline,
    simulate_policy,
)
from .state_grid import estimate_transition_model, make_grid

__version__ = "0.1.0"

__all__ = [
    "FadingParams",
    "RewardSpec",
    "Run",
    "TrajectoryConfig",
    "design",
    "epsilon_statistics",
    "estimate_transition_model",
    "lloyd_codebook",
    "make_grid",
    "measure_curve",
    "periodic_baseline",
    "policy_iteration_average",
    "price_increment_bound",
    "quantization_errors",
    "random_codebook",
    "simulate_policy",
    "threshold_lower_bound",
]
