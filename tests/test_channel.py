"""Channel-layer tests: stationary laws, slot correlation, alignment statistics.

The laws are checked on the code the pipeline runs, the simulator's own
trajectory and alignment, and on the AR(1) step of the full-channel oracle
the kernel estimator is tested against (tests/oracles.py).  Oracles are
independent of the implementation: a truncated power series, mpmath and, at
the timed Doppler values, scipy for the Bessel factor, closed-form
Exp/Gamma/Beta facts for the power and alignment laws.
"""

import math

import numpy as np
import pytest

from beamfeedback import simulator
from beamfeedback.channel import (
    FadingParams,
    _alignment,
    _complex_normal,
    _row_inner,
    bessel_j0,
)
from beamfeedback.simulator import TrajectoryConfig
from oracles import ar1_step as oracle_step
from oracles import complex_normal

# first positive zero of J0, to 16 digits
J0_FIRST_ZERO = 2.4048255576957724


def j0_power_series(x: float, terms: int = 60) -> float:
    """Alternating series sum_k (-1)^k (x^2/4)^k / (k!)^2; exact for small |x|."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -(x * x / 4.0) / float((k + 1) * (k + 1))
    return total


def trajectory(params: FadingParams, slots: int, seed: int):
    """Power and unit shapes of the simulator's trajectory for one seeded run."""
    g, S, _ = simulator._trajectory(params, TrajectoryConfig(slots=slots, warmup=0,
                                                             seed=seed))
    return g, S


def ar1_step(params: FadingParams, rng: np.random.Generator, H: np.ndarray) -> np.ndarray:
    """One slot of the channel recursion at the parameters' correlation."""
    return oracle_step(rng, H, params.rho, math.sqrt(max(0.0, 1.0 - params.rho * params.rho)))


def isotropic_shapes(rng: np.random.Generator, count: int, L: int) -> np.ndarray:
    """Unit-norm rows drawn from the rotation-invariant law."""
    H = _complex_normal(rng, (count, L))
    return H / np.linalg.norm(H, axis=1, keepdims=True)


class TestBesselJ0:
    def test_value_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_small_arguments_match_power_series(self):
        for x in [0.05, 0.3, 0.6283, 1.1, 2.0, 4.5, 7.9]:
            np.testing.assert_allclose(bessel_j0(x), j0_power_series(x), atol=1e-10)

    def test_reference_point(self):
        # 2*pi*0.1, the one-slot correlation at doppler_slot = 0.1
        np.testing.assert_allclose(bessel_j0(0.6283), 0.9037, atol=1e-4)

    def test_first_zero_location(self):
        lo, hi = 2.404825, 2.404827
        assert bessel_j0(lo) > 0.0 > bessel_j0(hi)
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12

    def test_wide_grid_against_high_precision(self):
        import mpmath

        xs = np.linspace(-50.0, 50.0, 401)
        got = bessel_j0(xs)
        want = np.array([float(mpmath.besselj(0, float(x))) for x in xs])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_even_symmetry_and_array_shape(self):
        xs = np.array([0.5, 1.5, 9.0])
        np.testing.assert_allclose(bessel_j0(xs), bessel_j0(-xs), rtol=0, atol=0)
        assert bessel_j0(xs).shape == (3,)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_j0(float("nan"))
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, float("inf")]))

    def test_within_rounding_of_high_precision_on_slot_correlation_range(self):
        # [0, pi] holds 2 pi doppler_slot for every doppler_slot up to 1/2
        import mpmath

        xs = np.linspace(0.0, math.pi, 2001)
        got = bessel_j0(xs)
        with mpmath.workprec(200):
            err = [abs(mpmath.mpf(float(v)) - mpmath.besselj(0, mpmath.mpf(float(x))))
                   for x, v in zip(xs, got)]
        assert max(err) <= 2.0 ** -53

    @pytest.mark.parametrize("doppler", [0.1, 0.05])
    def test_equals_scipy_at_timed_dopplers(self, doppler):
        from scipy import special

        x = 2.0 * math.pi * doppler
        assert bessel_j0(x) == special.j0(x)


class TestFadingParams:
    def test_rho_derived_from_doppler(self):
        p = FadingParams(L=3, doppler_slot=0.1)
        np.testing.assert_allclose(p.rho, j0_power_series(0.2 * math.pi), atol=1e-12)

    def test_consistent_rho_accepted(self):
        # the derived rho is exactly the J0 value the channel law asks for
        p = FadingParams(L=4, doppler_slot=0.05)
        assert p.rho == bessel_j0(2 * math.pi * 0.05)

    def test_zero_doppler_is_static(self):
        assert FadingParams(L=2, doppler_slot=0.0).rho == 1.0

    def test_inconsistent_rho_rejected(self):
        # rho is derived only, so no value of it can be passed in
        with pytest.raises(TypeError):
            FadingParams(L=3, doppler_slot=0.1, rho=0.5)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            FadingParams(L=0, doppler_slot=0.1)
        with pytest.raises(ValueError):
            FadingParams(L=3, doppler_slot=-0.2)
        # the slot-rate Nyquist limit is 1/2
        assert FadingParams(L=3, doppler_slot=0.5).rho == bessel_j0(math.pi)
        limit = r"\[0, 0\.5\], 0\.5 being the slot-rate Nyquist limit"
        for doppler in (math.nextafter(0.5, 1.0), 1e9, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match=limit):
                FadingParams(L=3, doppler_slot=doppler)


class TestIsotropicSampling:
    @pytest.mark.parametrize("shape", [(3,), (7,), (1000, 3), (1 << 18, 3)])
    def test_complex_normal_bit_identical_to_pair_sum(self, shape):
        got = _complex_normal(np.random.default_rng(21), shape)
        want = complex_normal(np.random.default_rng(21), shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mean_power_equals_antenna_count(self):
        # law check on the sampling core: g = ||h||^2 has mean L
        rng = np.random.default_rng(101)
        H = _complex_normal(rng, (1_000_000, 3))
        g = np.sum(np.abs(H) ** 2, axis=1)
        np.testing.assert_allclose(g.mean(), 3.0, atol=0.01)

    def test_single_antenna_power_median(self):
        # L=1 power is Exp(1); median ln 2
        rng = np.random.default_rng(7)
        g = np.abs(_complex_normal(rng, (1_000_000,))) ** 2
        np.testing.assert_allclose(np.median(g), math.log(2.0), atol=0.01)

    def test_sampled_state_invariants(self):
        # at the first J0 zero consecutive slots are independent draws
        params = FadingParams(L=3, doppler_slot=J0_FIRST_ZERO / (2 * math.pi))
        g, S = trajectory(params, 2000, 3)
        np.testing.assert_allclose(np.linalg.norm(S, axis=1), 1.0, rtol=0, atol=1e-12)
        # 3 standard errors for 2000 draws of a Gamma(3,1) variate
        assert abs(np.mean(g) - 3.0) < 3.0 * math.sqrt(3.0 / 2000.0)

    def test_rejects_bad_dimension(self):
        # the sampled dimension is FadingParams.L, so no channel of L < 1 exists
        for L in (0, -1):
            with pytest.raises(ValueError):
                FadingParams(L=L, doppler_slot=0.0)


@pytest.fixture(scope="module")
def doppler01_trajectory():
    """100k-slot simulator trajectory at doppler_slot = 0.1, as channel vectors."""
    g, S = trajectory(FadingParams(L=3, doppler_slot=0.1), 100_001, 2024)
    return np.sqrt(g)[:, None] * S


class TestEvolution:
    def test_zero_doppler_preserves_channel_exactly(self):
        params = FadingParams(L=3, doppler_slot=0.0)
        rng = np.random.default_rng(5)
        H = _complex_normal(rng, (1000, 3))
        np.testing.assert_array_equal(ar1_step(params, rng, H), H)
        g, S = trajectory(params, 1000, 5)
        assert np.all(g == g[0]) and np.all(S == S[0])

    def test_decorrelating_doppler_gives_independent_slots(self):
        # doppler_slot at the first J0 zero makes consecutive slots uncorrelated
        params = FadingParams(L=3, doppler_slot=J0_FIRST_ZERO / (2 * math.pi))
        assert abs(params.rho) < 1e-12
        rng = np.random.default_rng(11)
        n = 60_000
        H = _complex_normal(rng, (n, 3))
        acc = np.sum(H.conj() * ar1_step(params, rng, H))
        assert abs(acc / (3 * n)) < 0.005

    def test_slot_correlation_matches_doppler(self, doppler01_trajectory):
        H = doppler01_trajectory
        corr = np.mean(np.sum(H[1:] * np.conj(H[:-1]), axis=1)) / 3.0
        np.testing.assert_allclose(corr.real, j0_power_series(0.2 * math.pi), atol=0.005)
        assert abs(corr.imag) < 0.005

    def test_multi_step_correlation_decays_geometrically(self, doppler01_trajectory):
        H = doppler01_trajectory
        rho = bessel_j0(0.2 * math.pi)
        for lag in range(1, 6):
            corr = np.mean(np.sum(H[lag:] * np.conj(H[:-lag]), axis=1)) / 3.0
            np.testing.assert_allclose(corr.real, rho**lag, atol=0.01)

    def test_power_is_stationary(self, doppler01_trajectory):
        g = np.sum(np.abs(doppler01_trajectory) ** 2, axis=1)
        batches = g[: 100 * (g.size // 100)].reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / 10.0
        assert abs(g.mean() - 3.0) < 3.0 * se

    def test_shape_is_isotropic_along_trajectory(self, doppler01_trajectory):
        H = doppler01_trajectory
        z = np.abs(H[:, 0]) ** 2 / np.sum(np.abs(H) ** 2, axis=1)
        batches = z[: 100 * (z.size // 100)].reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / 10.0
        assert abs(z.mean() - 1.0 / 3.0) < 3.0 * se


class TestAlignment:
    def test_self_alignment_is_one(self):
        S = isotropic_shapes(np.random.default_rng(2), 1000, 4)
        z = _alignment(np.sum(S.conj() * S, axis=1))
        np.testing.assert_allclose(z, 1.0, atol=1e-12)
        assert np.all(z <= 1.0)

    def test_orthogonal_alignment_is_zero(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert _alignment(np.vdot(e0, e1)) == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(9)
        s = isotropic_shapes(rng, 1, 3)[0]
        f = isotropic_shapes(rng, 1, 3)[0]
        a = _alignment(np.vdot(s, f))
        b = _alignment(np.vdot(s, f * np.exp(1j * 1.234)))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_tail_law_for_random_pairs(self):
        # Pr(|s^H f|^2 >= tau) = (1 - tau)^(L-1) for isotropic unit vectors
        rng = np.random.default_rng(42)
        L = 3
        s = isotropic_shapes(rng, 100_000, L)
        f = isotropic_shapes(rng, 100_000, L)
        z = _alignment(_row_inner(s.conj(), f))
        for tau in (0.1, 0.5, 0.9):
            want = (1.0 - tau) ** (L - 1)
            assert abs(np.mean(z >= tau) - want) < 0.01

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_one_beam_rounds_each_row_alike(self, L):
        # the simulator takes one held beam over blocks of any length, a lone
        # row included, and over its own copy per row; every call must give
        # each row the same bits
        rng = np.random.default_rng(10 + L)
        s = isotropic_shapes(rng, 500, L)
        f = isotropic_shapes(rng, 1, L)[0]
        bulk = _row_inner(s.conj(), f)
        assert np.array_equal(bulk, _row_inner(s.conj(), np.tile(f, (500, 1))))
        lone = np.concatenate([_row_inner(s[i:i + 1].conj(), f) for i in range(500)])
        assert np.array_equal(bulk, lone)

    def test_matches_vectorized_inner_product(self):
        rng = np.random.default_rng(8)
        s = isotropic_shapes(rng, 16, 3)
        f = isotropic_shapes(rng, 16, 3)
        z = _alignment(_row_inner(s.conj(), f))
        for i in range(16):
            np.testing.assert_allclose(z[i], abs(np.vdot(s[i], f[i])) ** 2, atol=1e-12)
