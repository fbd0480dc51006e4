"""Temporally correlated Rayleigh fading for multi-antenna links.

The channel vector has independent unit-variance complex Gaussian entries
and evolves slot to slot through a first-order autoregression whose
coefficient follows the classic Doppler autocorrelation (Bessel J0 of the
normalized Doppler-slot product).  This module holds that law, the
complex normal draws, the beam alignment of a shape and the one block of
rows every per-slot or per-sample pass takes; the simulator runs the
recursion on whole channels, and the kernel estimator steps the scalars it
reduces to by isotropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FadingParams", "bessel_j0"]

_BLOCK = 1 << 12  # rows per block of a pass that holds a temporary per row


def _blocks(start: int, stop: int):
    """Slices of at most _BLOCK rows that cover start..stop in order: the
    blocks of every per-slot or per-sample pass, so that no temporary of a
    pass spans a run or a sample."""
    return (slice(s, min(stop, s + _BLOCK)) for s in range(start, stop, _BLOCK))


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
    out = np.array([_j0(v) for v in np.abs(arr).ravel()]).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def _j0(x: float) -> float:
    """J0(x) for x >= 0 by the trapezoid rule on J0(x) = mean of cos(x sin t).

    The integrand is periodic, so n nodes integrate it exactly up to the
    aliased terms 2 J_n(x) + 2 J_2n(x) + ..., which fall below rounding once
    n >= 2x + 32 (at n = x + 32 they still reach 2e-4 near x = 1000).  The
    node values are summed exactly by math.fsum, and n is a power of two, so
    dividing by it is exact.
    """
    n = 1 << math.ceil(math.log2(2.0 * x + 32.0))
    return math.fsum(np.cos(x * np.sin(2.0 * np.pi * np.arange(n) / n))) / n


def _as_rng(rng) -> np.random.Generator:
    # accepts a Generator (returned unchanged) or anything default_rng takes
    return np.random.default_rng(rng)


def _complex_normal(rng: np.random.Generator, shape=None, *, out=None) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians, of the given
    shape or drawn into ``out`` (a C-contiguous complex array), which draws
    the same values.

    The normal pairs are scaled as real floats by fl(1 / fl(sqrt 2)), the
    factor a complex division by sqrt(2) multiplies both parts by, so the
    result is that division's to the bit at a fraction of its cost.
    """
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    pairs = out.view(np.float64).reshape(out.shape + (2,))
    rng.standard_normal(out=pairs)
    pairs *= 1.0 / math.sqrt(2.0)
    return out


def _alignment(w: np.ndarray) -> np.ndarray:
    """Squared beam alignment from inner products, clipped at one."""
    return np.minimum(np.abs(w) ** 2, 1.0)


def _row_inner(Sc_rows: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Inner product of each conjugated shape row with its own beam row, or
    with one beam shared by every row.

    Every alignment the simulator records or decides on is this product, so
    it rounds each row alike whichever rows share the call.  np.multiply
    keeps the operand order fixed (an operator expression may reuse a
    temporary's buffer with the operands swapped, which rounds the fused
    complex product differently); one beam is broadcast as a (1, L) row,
    since a lone row times a 1-D beam takes numpy's unfused scalar product,
    which rounds differently too; and the antenna sum runs in index order,
    as a BLAS matrix-vector product does.
    """
    prod = np.multiply(Sc_rows, np.atleast_2d(beams))
    w = prod[:, 0].copy()
    for l in range(1, prod.shape[1]):
        w += prod[:, l]
    return w


@dataclass(frozen=True)
class FadingParams:
    """Antenna count and per-slot Doppler of the fading process.

    ``doppler_slot`` is the Doppler frequency times the slot length, at
    most 1/2: sampled once a slot, a faster Doppler would alias.  ``rho``,
    the one-slot correlation coefficient, is derived from it as the
    Bessel-J0 value; it cannot be set.
    """

    L: int
    doppler_slot: float
    rho: float = field(init=False)

    def __post_init__(self):
        if int(self.L) < 1:
            raise ValueError("antenna count L must be a positive integer")
        object.__setattr__(self, "L", int(self.L))
        if not 0.0 <= self.doppler_slot <= 0.5:  # NaN fails both
            raise ValueError(f"doppler_slot must lie in [0, 0.5], 0.5 being the "
                             f"slot-rate Nyquist limit; got {self.doppler_slot}")
        object.__setattr__(self, "rho", bessel_j0(2.0 * math.pi * self.doppler_slot))
