"""Temporally correlated Rayleigh fading for multi-antenna links.

The channel vector has independent unit-variance complex Gaussian entries
and evolves slot to slot through a first-order autoregression whose
coefficient follows the classic Doppler autocorrelation (Bessel J0 of the
normalized Doppler-slot product).  This module holds that law and the one
vectorised recursion step; the simulator and the kernel estimator split
channels into power and shape themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = ["FadingParams", "bessel_j0"]


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Args:
        x: finite scalar or array.

    Returns:
        J0 evaluated elementwise; a Python float for scalar input.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    out = special.j0(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _as_rng(rng) -> np.random.Generator:
    # accepts a Generator (returned unchanged) or anything default_rng takes
    return np.random.default_rng(rng)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians."""
    pair = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) / math.sqrt(2.0)


@dataclass(frozen=True)
class FadingParams:
    """Antenna count and per-slot Doppler of the fading process.

    ``rho``, the one-slot correlation coefficient, is derived from
    ``doppler_slot`` as the Bessel-J0 value; it cannot be set.
    """

    L: int
    doppler_slot: float
    rho: float = field(init=False)

    def __post_init__(self):
        if int(self.L) < 1:
            raise ValueError("antenna count L must be a positive integer")
        object.__setattr__(self, "L", int(self.L))
        if not (self.doppler_slot >= 0.0):
            raise ValueError("doppler_slot must be nonnegative")
        object.__setattr__(self, "rho", bessel_j0(2.0 * math.pi * self.doppler_slot))


def _ar1_step(stream, H: np.ndarray, rho: float, sig: float) -> np.ndarray:
    """One slot of the channel recursion h' = rho h + sqrt(1 - rho^2) w."""
    return rho * H + sig * _complex_normal(stream, H.shape)
