"""State-grid tests: bin layout, kernel estimation, monotone structure, I/O.

Independent oracles: Gamma/Exp quantile and conditional-mean closed forms via
the incomplete gamma function, the closed-form binned law of the alignment of
two isotropic vectors, exponentially tilted row families whose tail-mass
ordering holds by construction, and a rejection estimator of the alignment
kernels that conditions on the source bin by drawing until it is filled.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import special, stats

from beamfeedback.channel import FadingParams, _complex_normal
from beamfeedback.codebook import random_codebook
from beamfeedback.state_grid import (
    GridSpec,
    StationaryDistribution,
    TransitionModel,
    _in_bin_alignments,
    build_g_grid,
    build_z_grid,
    estimate_transition_model,
    is_monotone_stochastic,
    make_grid,
    max_quantization_error,
    model_from_json,
    model_to_json,
    quantize_state,
)

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


class TestPowerGrid:
    def test_single_bin_covers_everything(self):
        edges, points = build_g_grid(3, 1, 1_000_000, 5)
        assert edges[0] == 0.0 and np.isinf(edges[1])
        np.testing.assert_allclose(points[0], 3.0, atol=0.02)

    def test_single_antenna_median_edge(self):
        edges, _ = build_g_grid(1, 2, 1000, 0)
        np.testing.assert_allclose(edges[1], math.log(2.0), atol=1e-4)

    def test_bins_are_equiprobable(self):
        edges, _ = build_g_grid(3, 16, 1000, 1)
        g = np.random.default_rng(77).gamma(3.0, 1.0, size=1_000_000)
        occupancy = np.bincount(
            np.clip(np.searchsorted(edges, g, side="right") - 1, 0, 15), minlength=16
        ) / 1e6
        np.testing.assert_allclose(occupancy, 1.0 / 16.0, atol=0.002)

    def test_points_are_conditional_bin_means(self):
        L, M = 3, 8
        edges, points = build_g_grid(L, M, 2_000_000, 9)
        want = [gamma_bin_mean(L, edges[m], edges[m + 1]) for m in range(M)]
        np.testing.assert_allclose(points, want, atol=0.02)

    def test_points_increase_and_lie_inside_bins(self):
        edges, points = build_g_grid(4, 12, 200_000, 2)
        assert np.all(np.diff(points) > 0)
        assert np.all(points > edges[:-1]) and np.all(points[:-1] < edges[1:-1])

    def test_rejects_bad_arguments(self):
        for args in [(0, 4, 100, 0), (3, 0, 100, 0), (3, 4, 0, 0)]:
            with pytest.raises(ValueError):
                build_g_grid(*args)

    @pytest.mark.parametrize("L", range(1, 9))
    def test_edges_equal_gamma_quantiles(self, L):
        for M in (1, 16, 40, 128):
            edges, _ = build_g_grid(L, M, 20_000, 0)
            assert np.array_equal(edges, stats.gamma.ppf(np.arange(M + 1) / M, a=L))


class TestAlignmentGrid:
    def test_edges_and_midpoints(self):
        edges, points = build_z_grid(4)
        np.testing.assert_array_equal(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(points, [0.125, 0.375, 0.625, 0.875])

    def test_single_bin(self):
        edges, points = build_z_grid(1)
        np.testing.assert_array_equal(edges, [0.0, 1.0])
        np.testing.assert_array_equal(points, [0.5])


@pytest.fixture(scope="module")
def spec16() -> GridSpec:
    return make_grid(3, 16, 16, 400_000, 12345)


class TestQuantize:
    def test_interior_and_boundary_values(self, spec16):
        assert quantize_state(0.0, 0.0, spec16) == (0, 0)
        assert quantize_state(1e9, 1.0, spec16) == (15, 15)
        # alignment edges are n/N and bins are half-open below
        assert quantize_state(1.0, 0.25, spec16) == (quantize_state(1.0, 0.25, spec16)[0], 4)
        # a power value exactly at an interior edge belongs to the upper bin
        m_at_edge = quantize_state(float(spec16.g_edges[7]), 0.5, spec16)[0]
        assert m_at_edge == 7

    def test_rejects_out_of_range(self, spec16):
        with pytest.raises(ValueError):
            quantize_state(-0.1, 0.5, spec16)
        with pytest.raises(ValueError):
            quantize_state(1.0, 1.01, spec16)
        with pytest.raises(ValueError):
            quantize_state(float("nan"), 0.5, spec16)


class TestTransitionEstimation:
    def test_rows_are_distributions(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 100_000, 3
        )
        for A in (model.Ptilde, model.P0):
            assert np.all(A >= 0)
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.P1_row.sum(), 1.0, atol=1e-9)
        assert model.Peps1_row is None
        assert model.seed == 3

    def test_static_channel_freezes_every_kernel(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.0), spec16, 20_000, 4
        )
        np.testing.assert_array_equal(model.Ptilde, np.eye(16))
        np.testing.assert_array_equal(model.P0, np.eye(16))
        one_hot = np.zeros(16)
        one_hot[15] = 1.0
        np.testing.assert_array_equal(model.P1_row, one_hot)

    def test_memoryless_channel_rows_match_isotropic_law(self, spec16):
        # at the decorrelating doppler the destination is a fresh isotropic draw
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=DECORRELATING_DOPPLER), spec16, 160_000, 5
        )
        want = alignment_bin_masses(3, np.asarray(spec16.z_edges))
        for n in range(16):
            np.testing.assert_allclose(model.P0[n], want, atol=0.02)
        np.testing.assert_allclose(model.P1_row, want, atol=0.01)

    def test_slow_fading_kernels_are_monotone(self, spec16):
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 400_000, 6
        )
        tol_g = 3.0 / math.sqrt(400_000 / 16)
        tol_z = 3.0 / math.sqrt(400_000 / 16)
        assert is_monotone_stochastic(model.Ptilde, tol=tol_g)
        assert is_monotone_stochastic(model.P0, tol=tol_z)
        # the exact-feedback row dominates every no-feedback row
        stacked = np.vstack([model.P0, model.P1_row])
        assert is_monotone_stochastic(stacked, tol=tol_z)

    def test_quantized_feedback_row_sits_between(self, spec16):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 200_000, 7, codebook=vectors
        )
        assert model.Peps1_row is not None
        np.testing.assert_allclose(model.Peps1_row.sum(), 1.0, atol=1e-9)
        tol = 3.0 / math.sqrt(200_000 / 16)
        tails = lambda v: np.cumsum(v[::-1])[::-1]
        # quantized feedback is never better than exact feedback, but beats
        # evolving from a badly aligned beam
        assert np.all(tails(model.P1_row) >= tails(model.Peps1_row) - tol)
        assert np.all(tails(model.Peps1_row) >= tails(model.P0[0]) - tol)

    def test_single_antenna_alignment_rows_are_exact(self):
        # z is identically 1, so the rows are point masses drawn without
        # sampling; rejection would starve every lower bin
        spec = make_grid(1, 6, 6, 20_000, 11)
        codebook = np.exp(2j * math.pi * np.arange(4) / 4)[:, None]
        start = time.perf_counter()
        model = estimate_transition_model(
            FadingParams(L=1, doppler_slot=0.1), spec, 20_000, 12, codebook=codebook
        )
        assert time.perf_counter() - start < 1.0
        top = np.zeros(6)
        top[-1] = 1.0
        np.testing.assert_array_equal(model.P0, np.tile(top, (6, 1)))
        np.testing.assert_array_equal(model.P1_row, top)
        np.testing.assert_array_equal(model.Peps1_row, top)
        np.testing.assert_allclose(model.Ptilde.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="codebook"):
            estimate_transition_model(FadingParams(L=1, doppler_slot=0.1), spec,
                                      20_000, 12, codebook=np.eye(2))

    @pytest.mark.parametrize("N", [32, 64])
    def test_eight_antennas_fill_every_alignment_row(self, N):
        # the top alignment bin carries mass N^-7, out of reach of rejection
        spec = make_grid(8, 16, N, 20_000, 1)
        start = time.perf_counter()
        model = estimate_transition_model(
            FadingParams(L=8, doppler_slot=0.1), spec, 64_000, 2
        )
        assert time.perf_counter() - start < 5.0
        target = 64_000 // N
        counts = model.P0 * target
        np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)
        assert np.all(np.round(counts).sum(axis=1) == target)
        for A in (model.Ptilde, model.P0, model.P1_row[None, :]):
            np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_empty_power_rows_fall_back_to_uniform(self, spec16):
        with pytest.warns(UserWarning, match="uniform"):
            model = estimate_transition_model(
                FadingParams(L=3, doppler_slot=0.1), spec16, 40, 10
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
        np.testing.assert_array_equal(a.P1_row, b.P1_row)


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
        edges, _ = build_z_grid(N)
        for stream in (np.random.default_rng(L * 100 + N), self.ExtremeUniforms()):
            z0 = _in_bin_alignments(stream, edges, L, 5000).reshape(N, 5000)
            assert np.all(z0 >= edges[:-1, None]) and np.all(z0 <= edges[1:, None])

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_in_bin_draws_follow_the_conditioned_alignment_law(self, L):
        edges, _ = build_z_grid(4)
        tail = lambda z: (1.0 - z) ** (L - 1)
        z0 = _in_bin_alignments(np.random.default_rng(L), edges, L, 4000).reshape(4, -1)
        for n, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            cdf = lambda z: (tail(lo) - tail(z)) / (tail(lo) - tail(hi))
            assert stats.kstest(z0[n], cdf).pvalue > 1e-4

    @pytest.mark.parametrize("doppler", [0.01, 0.1])
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_kernels_agree_with_rejection_oracle(self, L, doppler):
        params = FadingParams(L=L, doppler_slot=doppler)
        spec = make_grid(L, 2, 6, 1000, 0)
        codebook = random_codebook(L, 4, 50 + L)
        n = 30_000
        model = estimate_transition_model(params, spec, n, 60 + L, codebook=codebook)
        P0, p1, pe = reference_alignment_counts(params, spec, n, 70 + L, codebook.vectors)
        target = n // spec.N
        pvalues = [homogeneity_pvalue(np.round(model.P0[r] * target), P0[r])
                   for r in range(spec.N)]
        pvalues.append(homogeneity_pvalue(np.round(model.P1_row * n), p1))
        pvalues.append(homogeneity_pvalue(np.round(model.Peps1_row * n), pe))
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


class TestQuantizationError:
    def test_unit_square_single_bin(self):
        spec = GridSpec(
            M=1, N=1,
            g_edges=np.array([0.0, math.inf]), g_points=np.array([0.5]),
            z_edges=np.array([0.0, 1.0]), z_points=np.array([0.5]),
        )
        np.testing.assert_allclose(
            max_quantization_error(spec, 1.0), math.sqrt(0.5), atol=1e-12
        )

    def test_finer_grid_shrinks_the_bound(self):
        def midpoint_spec(M, N, cap):
            g_edges = np.append(np.linspace(0.0, cap, M + 1)[:-1], math.inf)
            g_points = (np.linspace(0.0, cap, M + 1)[:-1] + cap / (2 * M))[:M]
            z_edges, z_points = build_z_grid(N)
            return GridSpec(M=M, N=N, g_edges=g_edges, g_points=g_points,
                            z_edges=z_edges, z_points=z_points)

        coarse = max_quantization_error(midpoint_spec(2, 2, 8.0), 8.0)
        fine = max_quantization_error(midpoint_spec(8, 8, 8.0), 8.0)
        assert fine < coarse

    def test_rejects_cap_below_last_edge(self, spec16):
        with pytest.raises(ValueError):
            max_quantization_error(spec16, float(spec16.g_edges[-2]) - 0.1)


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
        np.testing.assert_array_equal(model2.P1_row, model.P1_row)
        assert model2.Peps1_row is None
        assert model2.seed == 11 and model2.sample_count == 20_000

    def test_round_trip_with_quantized_row(self, spec16):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        model = estimate_transition_model(
            FadingParams(L=3, doppler_slot=0.1), spec16, 20_000, 14, codebook=vectors
        )
        _, model2 = model_from_json(model_to_json(spec16, model))
        np.testing.assert_array_equal(model2.Peps1_row, model.Peps1_row)


class TestTypes:
    def test_grid_spec_validation(self):
        z_edges, z_points = build_z_grid(2)
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
            TransitionModel(Ptilde=eye, P0=eye, P1_row=np.array([0.5, 0.5, 0.5]),
                            Peps1_row=None, sample_count=10)
        with pytest.raises(ValueError):
            TransitionModel(Ptilde=eye, P0=eye, P1_row=row, Peps1_row=None, sample_count=0)

    def test_stationary_distribution_validation(self):
        with pytest.raises(ValueError):
            StationaryDistribution(np.array([[0.5, 0.6]]))
        StationaryDistribution(np.array([[0.25, 0.25], [0.25, 0.25]]))
