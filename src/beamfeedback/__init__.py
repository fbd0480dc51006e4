"""Event-driven channel-feedback control for multi-antenna beamforming.

The package decides, slot by slot, whether a receiver should spend uplink
bits to refresh the transmitter's channel knowledge.  It models the fading
channel as a finite-state chain over (power, alignment) bins, solves the
average-reward control problem for the net throughput — data rate minus a
per-feedback price — and checks the resulting threshold policies against
link-level simulation, with either perfect or codebook-quantized feedback.

Typical flow: ``make_grid`` + ``estimate_transition_model`` build the chain,
``policy_iteration_average`` solves it, ``simulate_policy``, ``sweep_alpha``
and ``periodic_baseline`` measure it on a ``Run`` the caller holds, and
``lloyd_codebook`` supplies the finite-rate feedback alphabet, whose
``quantization_errors`` feed the quantized row and ``epsilon_statistics``.
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
    curve_to_csv,
    periodic_baseline,
    simulate_policy,
    sweep_alpha,
)
from .state_grid import estimate_transition_model, make_grid

__version__ = "0.1.0"

__all__ = [
    "FadingParams",
    "RewardSpec",
    "Run",
    "TrajectoryConfig",
    "curve_to_csv",
    "epsilon_statistics",
    "estimate_transition_model",
    "lloyd_codebook",
    "make_grid",
    "periodic_baseline",
    "policy_iteration_average",
    "price_increment_bound",
    "quantization_errors",
    "random_codebook",
    "simulate_policy",
    "sweep_alpha",
    "threshold_lower_bound",
]
