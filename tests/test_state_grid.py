"""State-grid tests: bin layout, kernel estimation, monotone structure, I/O.

Independent oracles: Gamma quantiles as high-precision mpmath roots, Gamma
conditional bin means as high-precision mpmath ratios, the Exp quantile and
the same means via scipy's incomplete gamma function, sampled bin means, the
closed-form binned law of the alignment of two isotropic vectors,
exponentially tilted row families whose tail-mass ordering holds by
construction, and a rejection estimator of the alignment kernels that
conditions on the source bin by drawing until it is filled.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import special, stats

from beamfeedback import channel, state_grid
from beamfeedback.channel import FadingParams, _complex_normal
from beamfeedback.codebook import Codebook, quantization_errors, random_codebook
from beamfeedback.mdp import Policy
from beamfeedback.state_grid import (
    GridSpec,
    TransitionModel,
    _bin,
    _in_bin_alignments,
    _step_alignment_bins,
    estimate_transition_model,
    make_grid,
    model_to_json,
)

from oracles import full_channel_step, is_monotone_stochastic, model_from_json, power_pass_counts

DECORRELATING_DOPPLER = 2.4048255576957724 / (2 * math.pi)


def gamma_bin_mean(L: int, a: float, b: float) -> float:
    """E[g | a <= g < b] for g ~ Gamma(L, 1), via the regularized incomplete gamma."""
    mass = special.gammainc(L, b) - special.gammainc(L, a)
    return L * (special.gammainc(L + 1, b) - special.gammainc(L + 1, a)) / mass


def alignment_bin_masses(L: int, edges: np.ndarray) -> np.ndarray:
    """Masses of the isotropic alignment law on the given bins.

    The tail is Pr(z >= tau) = (1 - tau)^(L-1).
    """
    tails = (1.0 - edges) ** (L - 1)
    return tails[:-1] - tails[1:]


def tilted_monotone_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random stochastic matrix whose rows are exponentially tilted versions
    of one base row; increasing tilt gives tail-mass ordering by construction."""
    base = rng.random(cols) + 0.05
    lam = np.sort(rng.random(rows) * 2.0)
    out = base[None, :] * np.exp(lam[:, None] * np.arange(cols)[None, :])
    return out / out.sum(axis=1, keepdims=True)


def reference_alignment_counts(params, spec, sample_count, seed, vectors=None):
    """Rejection estimator of the alignment kernels, as integer counts.

    Each no-feedback source bin is filled with sample_count // N isotropic
    channels by drawing until every bin has its quota; the beam is the first
    basis vector.  The feedback rows beamform on the channel's own shape or
    on its best codeword.  Returns (P0 counts, P1 counts, Peps1 counts).
    """
    L, rho, N = params.L, params.rho, spec.N
    sig = math.sqrt(1.0 - rho * rho)
    z_stream, f_stream, q_stream = np.random.default_rng(seed).spawn(3)

    def step(stream, H):
        return rho * H + sig * _complex_normal(stream, H.shape)

    def bins(z):
        return np.clip(np.searchsorted(spec.z_edges, z, side="right") - 1, 0, N - 1)

    target = sample_count // N
    need = np.full(N, target)
    P0 = np.zeros((N, N), dtype=np.int64)
    while need.any():
        H = _complex_normal(z_stream, (1 << 18, L))
        n0 = bins(np.abs(H[:, 0]) ** 2 / np.sum(np.abs(H) ** 2, axis=1))
        for r in np.nonzero(need)[0]:
            idx = np.nonzero(n0 == r)[0][: need[r]]
            need[r] -= idx.size
            Hs = step(z_stream, H[idx])
            z1 = np.abs(Hs[:, 0]) ** 2 / np.sum(np.abs(Hs) ** 2, axis=1)
            P0[r] += np.bincount(bins(z1), minlength=N)

    def feedback_row(stream, vectors):
        H = _complex_normal(stream, (sample_count, L))
        S = H / np.linalg.norm(H, axis=1, keepdims=True)
        F = S if vectors is None else vectors[np.argmax(np.abs(S @ vectors.conj().T) ** 2, axis=1)]
        H = step(stream, H)
        z1 = np.abs(np.sum(H * F.conj(), axis=1)) ** 2 / np.sum(np.abs(H) ** 2, axis=1)
        return np.bincount(bins(z1), minlength=N)

    return P0, feedback_row(f_stream, None), feedback_row(q_stream, vectors)


def homogeneity_pvalue(a, b, pool_below=20):
    """Chi-square p-value that two count vectors share one law.

    Columns with fewer than ``pool_below`` counts in total are pooled.
    """
    table = np.vstack([a, b]).astype(float)
    sparse = table.sum(axis=0) < pool_below
    table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return stats.chi2_contingency(table, correction=False)[1]


QUANTILE_ANTENNAS = (*range(1, 9), 16, 64)
QUANTILE_BINS = (1, 16, 40, 128)


def gamma_quantile_root(L, q):
    """Gamma(L, 1) quantile at q, rounded from a 160-bit root of the smaller tail."""
    import mpmath

    with mpmath.workprec(160):
        q = mpmath.mpf(q)
        if q <= 0.5:
            tail = lambda x: mpmath.gammainc(L, 0, x, regularized=True) - q
        else:
            tail = lambda x: mpmath.gammainc(L, x, mpmath.inf, regularized=True) - (1 - q)
        return float(mpmath.findroot(tail, mpmath.mpf(float(stats.gamma.ppf(float(q), a=L)))))


def ulp_distance(a, b):
    """Count of doubles between positive finite a and b, elementwise."""
    bits = [np.asarray(v, dtype=float).view(np.int64) for v in (a, b)]
    return np.abs(bits[0] - bits[1])


@pytest.fixture(scope="module")
def quantile_roots():
    return {(L, M): np.array([gamma_quantile_root(L, m / M) for m in range(1, M)])
            for L in QUANTILE_ANTENNAS for M in QUANTILE_BINS}


@pytest.fixture(scope="module")
def scipy_worst_ulps(quantile_roots):
    return max(ulp_distance(stats.gamma.ppf(np.arange(1, M) / M, a=L), roots).max(initial=0)
               for (L, M), roots in quantile_roots.items())


EXACT_ANTENNAS = (1, 2, 3, 4, 8, 50)
EXACT_BINS = (1, 2, 16, 40, 4096)


def mpmath_bin_means(L, edges):
    """E[g | a <= g < b] for g ~ Gamma(L, 1) on each bin [a, b) of the given
    edges, as a ratio of 100-bit regularized incomplete gamma integrals over
    the bin, so the mass is the bin's own, not 1/M."""
    import mpmath

    with mpmath.workprec(100):
        e = [mpmath.mpf(float(x)) for x in edges[:-1]] + [mpmath.inf]
        return np.array([float(L * mpmath.gammainc(L + 1, a, b, regularized=True)
                               / mpmath.gammainc(L, a, b, regularized=True))
                         for a, b in zip(e[:-1], e[1:])])


class TestPowerGrid:
    def test_single_bin_covers_everything(self):
        spec = make_grid(3, 1, 1)
        assert spec.g_edges[0] == 0.0 and np.isinf(spec.g_edges[1])
        assert spec.g_points[0] == 3.0

    def test_single_antenna_median_edge(self):
        edges = make_grid(1, 2, 1).g_edges
        np.testing.assert_allclose(edges[1], math.log(2.0), atol=1e-4)

    def test_bins_are_equiprobable(self):
        edges = make_grid(3, 16, 1).g_edges
        g = np.random.default_rng(77).gamma(3.0, 1.0, size=1_000_000)
        occupancy = np.bincount(
            np.clip(np.searchsorted(edges, g, side="right") - 1, 0, 15), minlength=16
        ) / 1e6
        np.testing.assert_allclose(occupancy, 1.0 / 16.0, atol=0.002)

    def test_points_are_conditional_bin_means(self):
        L, M = 3, 8
        spec = make_grid(L, M, 1)
        edges = spec.g_edges
        want = [gamma_bin_mean(L, edges[m], edges[m + 1]) for m in range(M)]
        np.testing.assert_allclose(spec.g_points, want, rtol=1e-12, atol=0)

    def test_points_match_sampled_bin_means(self):
        L, M = 3, 8
        spec = make_grid(L, M, 1)
        g = np.random.default_rng(9).gamma(float(L), 1.0, size=2_000_000)
        bins = np.searchsorted(spec.g_edges, g, side="right") - 1
        for m in range(M):
            inside = g[bins == m]
            se = inside.std(ddof=1) / math.sqrt(inside.size)
            assert abs(inside.mean() - spec.g_points[m]) <= 4.0 * se

    @pytest.mark.parametrize("L", EXACT_ANTENNAS)
    def test_points_equal_mpmath_bin_means(self, L):
        for M in EXACT_BINS:
            spec = make_grid(L, M, 1)
            np.testing.assert_allclose(spec.g_points, mpmath_bin_means(L, spec.g_edges),
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("L", EXACT_ANTENNAS)
    def test_points_increase_and_lie_inside_bins(self, L):
        for M in EXACT_BINS:
            spec = make_grid(L, M, 1)
            edges, points = spec.g_edges, spec.g_points
            assert np.all(np.diff(points) > 0)
            assert np.all(points > edges[:-1]) and np.all(points < edges[1:])

    def test_rejects_bad_arguments(self):
        for args in [(0, 4, 4), (3, 0, 4), (3, 4, 0)]:
            with pytest.raises(ValueError):
                make_grid(*args)

    def test_rejects_antenna_count_beyond_double_range(self):
        # the Gamma(1000) quantiles sit where e^-x underflows
        with pytest.raises(ValueError, match="underflows"):
            make_grid(1000, 2, 1)

    @pytest.mark.parametrize("L", QUANTILE_ANTENNAS)
    def test_edges_equal_gamma_quantiles(self, L, quantile_roots, scipy_worst_ulps):
        # no worse than scipy's rounding of the same quantiles, which is off
        # the correctly rounded root by up to several ulp
        for M in QUANTILE_BINS:
            edges = make_grid(L, M, 1).g_edges
            assert edges[0] == 0.0 and edges[-1] == math.inf
            assert ulp_distance(edges[1:-1], quantile_roots[L, M]).max(initial=0) \
                <= scipy_worst_ulps


class TestAlignmentGrid:
    def test_edges_and_midpoints(self):
        spec = make_grid(3, 1, 4)
        np.testing.assert_array_equal(spec.z_edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(spec.z_points, [0.125, 0.375, 0.625, 0.875])

    def test_single_bin(self):
        spec = make_grid(3, 1, 1)
        np.testing.assert_array_equal(spec.z_edges, [0.0, 1.0])
        np.testing.assert_array_equal(spec.z_points, [0.5])


@pytest.fixture(scope="module")
def spec16() -> GridSpec:
    return make_grid(3, 16, 16)


class TestQuantize:
    def test_interior_and_boundary_values(self, spec16):
        assert _bin(np.array([0.0]), spec16.g_edges)[0] == 0
        assert _bin(np.array([0.0]), spec16.z_edges)[0] == 0
        assert _bin(np.array([1e9]), spec16.g_edges)[0] == 15
        assert _bin(np.array([1.0]), spec16.z_edges)[0] == 15
        # alignment edges are n/N and bins are half-open below
        below = np.nextafter(0.25, 0.0)
        assert _bin(np.array([0.25, below]), spec16.z_edges).tolist() == [4, 3]
        # a power value exactly at an interior edge belongs to the upper bin
        at_edge = np.array([spec16.g_edges[7], np.nextafter(spec16.g_edges[7], 0.0)])
        assert _bin(at_edge, spec16.g_edges).tolist() == [7, 6]


class TestTransitionEstimation:
    def test_rows_are_distributions(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 100_000, 3
        )
        for A in (model.Ptilde, model.P0):
            assert np.all(A >= 0)
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.feedback_row.sum(), 1.0, atol=1e-9)
        assert not model.quantized

    def test_static_channel_freezes_every_kernel(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.0), spec16, 20_000, 4
        )
        np.testing.assert_array_equal(model.Ptilde, np.eye(16))
        np.testing.assert_array_equal(model.P0, np.eye(16))
        one_hot = np.zeros(16)
        one_hot[15] = 1.0
        np.testing.assert_array_equal(model.feedback_row, one_hot)

    def test_memoryless_channel_rows_match_isotropic_law(self, spec16):
        # at the decorrelating doppler the destination is a fresh isotropic draw
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=DECORRELATING_DOPPLER), spec16, 160_000, 5
        )
        want = alignment_bin_masses(3, np.asarray(spec16.z_edges))
        for n in range(16):
            np.testing.assert_allclose(model.P0[n], want, atol=0.02)
        np.testing.assert_allclose(model.feedback_row, want, atol=0.01)

    def test_slow_fading_kernels_are_monotone(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 400_000, 6
        )
        tol_g = 3.0 / math.sqrt(400_000 / 16)
        tol_z = 3.0 / math.sqrt(400_000 / 16)
        assert is_monotone_stochastic(model.Ptilde, tol=tol_g)
        assert is_monotone_stochastic(model.P0, tol=tol_z)
        # the exact-feedback row dominates every no-feedback row
        stacked = np.vstack([model.P0, model.feedback_row])
        assert is_monotone_stochastic(stacked, tol=tol_z)

    def test_quantized_feedback_row_sits_between(self, spec16):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        eps = quantization_errors(Codebook(vectors), 200_000, 9)
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 200_000, 7, eps=eps
        )
        exact = estimate_transition_model(FadingParams(L=3, doppler_slot=0.1),
                                          spec16, 200_000, 7)
        assert model.quantized and not exact.quantized
        np.testing.assert_allclose(model.feedback_row.sum(), 1.0, atol=1e-9)
        tol = 3.0 / math.sqrt(200_000 / 16)
        tails = lambda v: np.cumsum(v[::-1])[::-1]
        # quantized feedback is never better than exact feedback, but beats
        # evolving from a badly aligned beam
        assert np.all(tails(exact.feedback_row) >= tails(model.feedback_row) - tol)
        assert np.all(tails(model.feedback_row) >= tails(model.P0[0]) - tol)

    def test_single_antenna_alignment_rows_are_exact(self):
        # z is identically 1, so the rows are point masses drawn without
        # sampling; rejection would starve every lower bin
        spec = make_grid(1, 6, 6)
        codebook = Codebook(np.exp(2j * math.pi * np.arange(4) / 4)[:, None])
        start = time.perf_counter()
        model = estimate_transition_model(
            FadingParams(L=1, doppler_slot=0.1), spec, 20_000, 12,
            eps=quantization_errors(codebook, 20_000, 13)
        )
        exact = estimate_transition_model(FadingParams(L=1, doppler_slot=0.1), spec,
                                          20_000, 12)
        assert time.perf_counter() - start < 1.0
        top = np.zeros(6)
        top[-1] = 1.0
        np.testing.assert_array_equal(model.P0, np.tile(top, (6, 1)))
        np.testing.assert_array_equal(exact.feedback_row, top)
        np.testing.assert_array_equal(model.feedback_row, top)
        np.testing.assert_allclose(model.Ptilde.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="eps"):
            estimate_transition_model(FadingParams(L=1, doppler_slot=0.1), spec,
                                      20_000, 12, eps=np.ones(19_999))

    @pytest.mark.parametrize("N", [32, 64])
    def test_eight_antennas_fill_every_alignment_row(self, N):
        # the top alignment bin carries mass N^-7, out of reach of rejection
        spec = make_grid(8, 16, N)
        start = time.perf_counter()
        model = estimate_transition_model(
            FadingParams(L=8, doppler_slot=0.1), spec, 64_000, 2
        )
        assert time.perf_counter() - start < 5.0
        target = 64_000 // N
        counts = model.P0 * target
        np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)
        assert np.all(np.round(counts).sum(axis=1) == target)
        for A in (model.Ptilde, model.P0, model.feedback_row[None, :]):
            np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_empty_power_rows_fall_back_to_uniform(self, spec16):
        # 8 samples count 16 + 8 power pairs, which leave some of the 16 rows empty
        with pytest.warns(UserWarning, match="uniform"):
            model = estimate_transition_model(
                FadingParams(L=3, doppler_slot=0.1), spec16, 8, 10
            )
        row_is_uniform = np.all(np.abs(model.Ptilde - 1.0 / 16.0) < 1e-12, axis=1)
        assert row_is_uniform.any()
        np.testing.assert_allclose(model.Ptilde.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_reproduces_model(self, spec16):
        params = FadingParams(L=3, doppler_slot=0.1)
        a = estimate_transition_model(params, spec16, 30_000, 42)
        b = estimate_transition_model(params, spec16, 30_000, 42)
        np.testing.assert_array_equal(a.Ptilde, b.Ptilde)
        np.testing.assert_array_equal(a.P0, b.P0)
        np.testing.assert_array_equal(a.feedback_row, b.feedback_row)

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_draw_blocks_change_no_bit(self, spec16, monkeypatch, L, quantized):
        # the per-sample draws and counts of a chunk run in blocks; 7-sample
        # blocks, which split the 312-sample source rows, must give the bits
        # of one block per chunk
        params = FadingParams(L=L, doppler_slot=0.1)
        spec = make_grid(L, spec16.M, spec16.N)
        eps = quantization_errors(random_codebook(L, 4, 44), 5000, 45) if quantized else None

        def model():
            return estimate_transition_model(params, spec, 5000, 46, eps=eps)

        monkeypatch.setattr(channel, "_BLOCK", state_grid._CHUNK)
        want = model()
        monkeypatch.setattr(channel, "_BLOCK", 7)
        got = model()
        for name in ("Ptilde", "P0", "feedback_row"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestExactAlignmentSampling:
    class ExtremeUniforms:
        """Uniform draws that include both ends of [0, 1) in every row."""

        def random(self, shape):
            u = np.random.default_rng(0).random(shape)
            u[:, 0], u[:, 1] = 0.0, np.nextafter(1.0, 0.0)
            return u

    @pytest.mark.parametrize("L", [2, 3, 4, 8])
    @pytest.mark.parametrize("N", [1, 3, 16, 40, 64])
    def test_in_bin_draws_stay_in_their_bins(self, L, N):
        edges = make_grid(2, 1, N).z_edges
        for stream in (np.random.default_rng(L * 100 + N), self.ExtremeUniforms()):
            z0 = _in_bin_alignments(stream, edges, L, 5000).reshape(N, 5000)
            assert np.all(z0 >= edges[:-1, None]) and np.all(z0 <= edges[1:, None])

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_in_bin_draws_follow_the_conditioned_alignment_law(self, L):
        edges = make_grid(2, 1, 4).z_edges
        tail = lambda z: (1.0 - z) ** (L - 1)
        z0 = _in_bin_alignments(np.random.default_rng(L), edges, L, 4000).reshape(4, -1)
        for n, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            cdf = lambda z: (tail(lo) - tail(z)) / (tail(lo) - tail(hi))
            assert stats.kstest(z0[n], cdf).pvalue > 1e-4

    @pytest.mark.parametrize("doppler", [0.01, 0.1])
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_kernels_agree_with_rejection_oracle(self, L, doppler):
        params = FadingParams(L=L, doppler_slot=doppler)
        spec = make_grid(L, 2, 6)
        codebook = random_codebook(L, 4, 50 + L)
        n = 30_000
        model = estimate_transition_model(params, spec, n, 60 + L,
                                          eps=quantization_errors(codebook, n, 80 + L))
        exact = estimate_transition_model(params, spec, n, 60 + L)
        P0, p1, pe = reference_alignment_counts(params, spec, n, 70 + L, codebook.vectors)
        target = n // spec.N
        pvalues = [homogeneity_pvalue(np.round(model.P0[r] * target), P0[r])
                   for r in range(spec.N)]
        pvalues.append(homogeneity_pvalue(np.round(exact.feedback_row * n), p1))
        pvalues.append(homogeneity_pvalue(np.round(model.feedback_row * n), pe))
        assert min(pvalues) > 1e-4, pvalues

    @pytest.mark.parametrize("doppler", [0.01, 0.1])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_scalar_step_agrees_with_full_channel_oracle(self, L, doppler):
        # the kernels stepped from scalars against the same inputs stepped as
        # whole L-antenna channels, and the power pairs against stationary
        # channels stepped once (the power kernel's former separate pass)
        params = FadingParams(L=L, doppler_slot=doppler)
        rho, sig = params.rho, math.sqrt(1.0 - params.rho ** 2)
        spec = make_grid(L, 4, 6)
        N, n = spec.N, 30_000
        target = n // N
        codebook = random_codebook(L, 4, 20 + L)
        model = estimate_transition_model(params, spec, n, 30 + L,
                                          eps=quantization_errors(codebook, n, 40 + L))
        exact = estimate_transition_model(params, spec, n, 30 + L)
        stream = np.random.default_rng(50 + L)
        z0 = (np.ones(N * target) if L == 1
              else _in_bin_alignments(stream, spec.z_edges, L, target))
        n0, _ = full_channel_step(stream, z0, L, rho, sig, spec)
        P0 = np.bincount(np.repeat(np.arange(N), target) * N + n0,
                         minlength=N * N).reshape(N, N)
        p1 = np.bincount(full_channel_step(stream, np.ones(n), L, rho, sig, spec)[0],
                         minlength=N)
        pe = np.bincount(full_channel_step(stream, quantization_errors(codebook, n, 60 + L),
                                           L, rho, sig, spec)[0], minlength=N)
        pvalues = [homogeneity_pvalue(np.round(model.P0[r] * target), P0[r])
                   for r in range(N)]
        pvalues.append(homogeneity_pvalue(np.round(exact.feedback_row * n), p1))
        pvalues.append(homogeneity_pvalue(np.round(model.feedback_row * n), pe))
        Ptilde = sum(_step_alignment_bins(stream, z, L, rho, sig, spec, z.size)[1]
                     for z in (z0, np.ones(n))).reshape(spec.M, spec.M)
        reference = power_pass_counts(stream, L, rho, sig, spec, z0.size + n)
        pvalues += [homogeneity_pvalue(Ptilde[m], reference[m]) for m in range(spec.M)]
        assert min(pvalues) > 1e-4, pvalues


class TestMonotoneCheck:
    def test_identity_and_uniform_are_monotone(self):
        assert is_monotone_stochastic(np.eye(5))
        assert is_monotone_stochastic(np.full((4, 4), 0.25))

    def test_detects_reversed_ordering(self):
        A = np.array([[0.1, 0.9], [0.9, 0.1]])
        assert not is_monotone_stochastic(A)

    def test_tolerance_allows_small_violations(self):
        A = np.array([[0.5, 0.5], [0.5 + 1e-7, 0.5 - 1e-7]])
        assert not is_monotone_stochastic(A, tol=1e-9)
        assert is_monotone_stochastic(A, tol=1e-6)

    def test_rejects_non_stochastic_input(self):
        with pytest.raises(ValueError):
            is_monotone_stochastic(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            is_monotone_stochastic(np.array([[-0.1, 1.1], [0.5, 0.5]]))

    def test_tilted_families_are_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rows, cols = rng.integers(2, 9), rng.integers(2, 9)
            assert is_monotone_stochastic(tilted_monotone_rows(rng, rows, cols), tol=1e-12)

    def test_monotone_matrix_preserves_ascending_vectors(self):
        # E[v(destination) | source] is ascending in the source row
        rng = np.random.default_rng(32)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            A = tilted_monotone_rows(rng, size, size)
            v = np.sort(rng.standard_normal(size))
            assert np.all(np.diff(A @ v) >= -1e-12)

    def test_products_keep_rows_ascending(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            a, b, c = (int(rng.integers(2, 9)) for _ in range(3))
            B = np.sort(rng.random((a, b)), axis=1)
            C = np.sort(rng.random((b, c)), axis=1)
            assert np.all(np.diff(B @ C, axis=1) >= -1e-12)


class TestSerialization:
    def test_round_trip_is_exact(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 20_000, 11
        )
        text = model_to_json(spec16, model)
        assert '"inf"' in text
        spec2, model2 = model_from_json(text)
        np.testing.assert_array_equal(spec2.g_edges, spec16.g_edges)
        np.testing.assert_array_equal(spec2.g_points, spec16.g_points)
        np.testing.assert_array_equal(spec2.z_edges, spec16.z_edges)
        np.testing.assert_array_equal(model2.Ptilde, model.Ptilde)
        np.testing.assert_array_equal(model2.P0, model.P0)
        np.testing.assert_array_equal(model2.feedback_row, model.feedback_row)
        assert '"Peps1_row": null' in text
        assert not model.quantized and not model2.quantized
        assert model2.sample_count == 20_000

    def test_round_trip_of_a_codebook_model(self, spec16):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 20_000, 14,
            eps=quantization_errors(Codebook(vectors), 20_000, 15)
        )
        text = model_to_json(spec16, model)
        assert '"P1_row": null' in text
        _, model2 = model_from_json(text)
        np.testing.assert_array_equal(model2.feedback_row, model.feedback_row)
        np.testing.assert_array_equal(model2.P0, model.P0)
        # a codebook model carries the quantized row only, the one its solves read
        assert model.quantized and model2.quantized


class TestTypes:
    def test_records_that_hold_arrays_compare_by_identity(self):
        # equality over array fields could only raise, and hashing too
        for make in (lambda: make_grid(3, 4, 4), lambda: Policy(np.full(4, 0.5))):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2

    def test_grid_spec_validation(self):
        z_edges, z_points = np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75])
        with pytest.raises(ValueError):
            GridSpec(M=1, N=2, g_edges=np.array([0.0, 5.0]), g_points=np.array([1.0]),
                     z_edges=z_edges, z_points=z_points)  # last edge not inf
        with pytest.raises(ValueError):
            GridSpec(M=1, N=2, g_edges=np.array([0.0, math.inf]), g_points=np.array([-1.0]),
                     z_edges=z_edges, z_points=z_points)  # point outside bin

    def test_transition_model_validation(self):
        eye = np.eye(3)
        row = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            TransitionModel(Ptilde=0.5 * eye, P0=eye, feedback_row=row, sample_count=10)
        with pytest.raises(ValueError):
            TransitionModel(Ptilde=eye, P0=eye, feedback_row=row, sample_count=0)
        TransitionModel(Ptilde=eye, P0=eye, feedback_row=row, sample_count=10,
                        quantized=True)

    def test_transition_model_rejects_a_bad_feedback_row(self):
        eye = np.eye(3)
        with pytest.raises(ValueError, match="feedback row size"):
            TransitionModel(Ptilde=eye, P0=eye, feedback_row=[0.5, 0.5], sample_count=10)
        for row in ([0.5, 0.5, 0.5], [1.5, -0.5, 0.0]):
            with pytest.raises(ValueError, match="distributions"):
                TransitionModel(Ptilde=eye, P0=eye, feedback_row=row, sample_count=10)
