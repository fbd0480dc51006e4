"""Tests for beam-shape codebooks and quantized-alignment statistics."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from beamfeedback import codebook as codebook_module
from beamfeedback.codebook import (
    Codebook,
    codebook_to_json,
    _nearest,
    _shape_features,
    epsilon_statistics,
    lloyd_codebook,
    price_increment_bound,
    quantization_errors,
    random_codebook,
)

from oracles import codebook_from_json
from oracles import lloyd_codebook as reference_lloyd
from oracles import quantize_shape


def unit_rows(rng, count, L):
    raw = rng.normal(size=(count, L, 2)) @ np.array([1.0, 1.0j]) / math.sqrt(2.0)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestCodebookType:
    def test_rows_are_unit_and_frozen(self):
        cb = random_codebook(3, 8, 111)
        np.testing.assert_allclose(np.linalg.norm(cb.vectors, axis=1), 1.0,
                                   rtol=1e-12)
        assert cb.L == 3 and cb.size == 8
        with pytest.raises(ValueError):
            cb.vectors[0, 0] = 0.0

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            Codebook(vectors=np.ones((2, 3), dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Codebook(vectors=np.empty((0, 3), dtype=complex))

    def test_int_seed_draws_as_its_generator(self):
        np.testing.assert_array_equal(random_codebook(2, 4, 77).vectors,
                                      random_codebook(2, 4, np.random.default_rng(77)).vectors)


class TestQuantizeShape:
    def test_codeword_itself_is_exact(self):
        cb = random_codebook(3, 8, 120)
        v, eps = quantize_shape(cb.vectors[3], cb)
        np.testing.assert_allclose(eps, 1.0, rtol=1e-12)
        np.testing.assert_allclose(v, cb.vectors[3], rtol=1e-12)

    def test_ties_resolve_to_lowest_index(self):
        # both basis codewords score exactly |1/sqrt(2)|^2 on this shape
        cb = Codebook(vectors=np.eye(2, dtype=complex))
        s = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        v, eps = quantize_shape(s, cb)
        np.testing.assert_allclose(eps, 0.5, rtol=1e-12)
        np.testing.assert_array_equal(v, cb.vectors[0])

    def test_phase_of_the_shape_is_irrelevant(self):
        rng = np.random.default_rng(121)
        cb = random_codebook(3, 8, 122)
        for s in unit_rows(rng, 20, 3):
            v1, e1 = quantize_shape(s, cb)
            v2, e2 = quantize_shape(s * np.exp(1.3j), cb)
            np.testing.assert_allclose(e1, e2, rtol=1e-12)
            np.testing.assert_allclose(v1, v2, rtol=1e-12)

    def test_eps_is_the_best_squared_alignment(self):
        rng = np.random.default_rng(123)
        cb = random_codebook(3, 8, 124)
        for s in unit_rows(rng, 20, 3):
            _, eps = quantize_shape(s, cb)
            want = max(abs(np.vdot(c, s)) ** 2 for c in cb.vectors)
            np.testing.assert_allclose(eps, want, rtol=1e-12)

    def test_single_antenna_is_lossless(self):
        cb = random_codebook(1, 4, 125)
        _, eps = quantize_shape(np.array([np.exp(0.4j)]), cb)
        np.testing.assert_allclose(eps, 1.0, rtol=1e-12)

    def test_bad_shapes_rejected(self):
        cb = random_codebook(3, 4, 126)
        with pytest.raises(ValueError, match="dimension"):
            quantize_shape(np.ones(2, dtype=complex), cb)
        with pytest.raises(ValueError, match="unit"):
            quantize_shape(np.ones(3, dtype=complex), cb)


class TestLloydTraining:
    def test_objective_history_is_nondecreasing(self):
        cb = lloyd_codebook(3, 8, 20_000, 25, 130)
        hist = np.asarray(cb.objective_history)
        assert hist.size >= 2
        assert np.all(np.diff(hist) >= -1e-9)

    def test_training_beats_random_codewords(self):
        # paired comparison on one held-out draw of shapes
        trained = lloyd_codebook(3, 8, 40_000, 30, 131)
        rand = random_codebook(3, 8, 132)
        stats_t = epsilon_statistics(quantization_errors(trained, 40_000, 133), 10.0, [1.0])
        stats_r = epsilon_statistics(quantization_errors(rand, 40_000, 133), 10.0, [1.0])
        assert stats_t.mean_eps > stats_r.mean_eps + 0.01

    def test_memorizing_the_training_set_is_exact(self):
        cb = lloyd_codebook(3, 12, 12, 5, 134)
        np.testing.assert_allclose(cb.objective_history[0], 1.0, rtol=1e-12)

    def test_deterministic_for_int_seed(self):
        a = lloyd_codebook(2, 4, 2000, 10, 135)
        b = lloyd_codebook(2, 4, 2000, 10, 135)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.method == "lloyd"

    def test_rows_stay_unit(self):
        cb = lloyd_codebook(4, 6, 5000, 15, 136)
        np.testing.assert_allclose(np.linalg.norm(cb.vectors, axis=1), 1.0,
                                   rtol=1e-9)

    def test_training_set_must_cover_the_codebook(self):
        with pytest.raises(ValueError, match="training"):
            lloyd_codebook(3, 16, 8, 5, 137)

    @staticmethod
    def _assert_matches_reference(L, size, count, iterations, seed):
        got = lloyd_codebook(L, size, count, iterations, seed)
        want = reference_lloyd(L, size, count, iterations, seed)
        # the cluster sums differ only in summation order: the same rounds,
        # the same objective, and each codeword up to its phase
        assert len(got.objective_history) == len(want.objective_history)
        np.testing.assert_allclose(got.objective_history, want.objective_history,
                                   rtol=0.0, atol=1e-12)
        overlap = np.abs(np.sum(got.vectors * want.vectors.conj(), axis=1))
        np.testing.assert_allclose(overlap, 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [150, 151, 152])
    @pytest.mark.parametrize("size", [1, 4, 16, 64])
    @pytest.mark.parametrize("L", [2, 3, 4, 8])
    def test_one_pass_clusters_match_the_reference(self, L, size, seed):
        self._assert_matches_reference(L, size, 2000, 20, seed)

    def test_empty_clusters_reseed_as_the_reference_does(self, monkeypatch):
        # 48 shapes, each twice: each shape the 32 starting codewords hold
        # twice leaves the higher copy with no members in round one, and the
        # re-seeds must go to the empty codewords in index order
        rng = np.random.default_rng(153)
        shapes = unit_rows(rng, 48, 3)
        training = np.concatenate([shapes, shapes])
        start = np.random.default_rng(155).choice(training.shape[0], 32, replace=False)
        assert 32 - np.unique(start % 48).size >= 2
        monkeypatch.setattr(codebook_module, "_complex_normal",
                            lambda rng, shape: training.copy())
        self._assert_matches_reference(3, 32, 96, 20, 155)

    def test_reseeds_copy_no_served_shape(self, monkeypatch):
        # 48 shapes drawn twice from the training generator: a re-seed with a
        # random training shape can copy a one-shape cluster's codeword, and
        # the two versions break that exact tie differently (at this seed
        # their codebooks once overlapped by |<c, c_ref>|^2 = 0.03); the
        # worst-served shape is a copy of no codeword set before it
        draw = codebook_module._complex_normal
        monkeypatch.setattr(codebook_module, "_complex_normal",
                            lambda rng, shape: np.concatenate([draw(rng, (48, 3))] * 2))
        self._assert_matches_reference(3, 32, 96, 20, 154)

    @staticmethod
    def _assert_complex_argmax(S, C):
        assign, best = _nearest(S, _shape_features(S), C)
        exact = np.abs(S @ C.conj().T) ** 2
        np.testing.assert_array_equal(assign, np.argmax(exact, axis=1))
        np.testing.assert_allclose(best, exact.max(axis=1), rtol=0.0, atol=1e-15)
        return assign

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_features_do_not_depend_on_the_block_size(self, L):
        # blocks on both sides of numpy's temporary-elision size (256 KiB),
        # above which an operator expression swaps the complex product's
        # operands; 25,000 shapes in 4096-row blocks end in a 424-row one
        S = unit_rows(np.random.default_rng(158 + L), 25_000, L)
        whole = _shape_features(S)
        for size in (7, 424, 4096):
            blocks = [_shape_features(S[s:s + size]) for s in range(0, S.shape[0], size)]
            np.testing.assert_array_equal(np.concatenate(blocks, axis=1), whole)

    def test_identical_codewords_go_to_the_lowest_index(self):
        rng = np.random.default_rng(156)
        S = unit_rows(rng, 2000, 3)
        C = np.concatenate([S[:4], unit_rows(rng, 4, 3), S[:4]])
        assign = self._assert_complex_argmax(S, C)
        assert np.isin(np.arange(4), assign).all() and not np.isin(assign, np.arange(8, 12)).any()

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_equidistant_shapes_get_the_complex_argmax(self, L):
        # c0 + e^{it} c1 is as well aligned with c0 as with c1 for every t;
        # the real and the complex scores round such ties independently
        rng = np.random.default_rng(157 + L)
        C = unit_rows(rng, 6, L)
        phases = np.exp(2j * math.pi * rng.random((3000, 1)))
        S = np.concatenate([C[0] + phases * C[1], C[3] + phases * C[5]])
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        self._assert_complex_argmax(S, C)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            lloyd_codebook(0, 4, 100, 5, 138)
        with pytest.raises(ValueError):
            lloyd_codebook(3, 0, 100, 5, 138)
        with pytest.raises(ValueError):
            lloyd_codebook(3, 4, 100, 0, 138)


class TestEpsilonStatistics:
    def test_single_codeword_matches_the_isotropic_law(self):
        # one codeword: eps is the plain squared alignment, mean 1/L
        cb = random_codebook(3, 1, 140)
        stats = epsilon_statistics(quantization_errors(cb, 200_000, 141), 10.0, [1.0])
        assert abs(stats.mean_eps - 1.0 / 3.0) < 4.0 * stats.stderr_mean_eps
        # Beta(1, 2) variance pins the reported standard error
        np.testing.assert_allclose(stats.stderr_mean_eps,
                                   math.sqrt(1.0 / 18.0 / 200_000), rtol=0.05)

    def test_single_antenna_is_lossless(self):
        cb = random_codebook(1, 4, 142)
        stats = epsilon_statistics(quantization_errors(cb, 5000, 143), 10.0, [2.0])
        assert stats.mean_eps >= 1.0 - 1e-12
        assert abs(stats.mean_log2_eps) <= 1e-12
        np.testing.assert_allclose(stats.per_g_rate, math.log2(21.0), rtol=1e-12)

    def test_moments_come_from_the_same_draws(self):
        # concavity relations hold sample by sample, so they must survive
        # estimation exactly, not just in expectation
        cb = lloyd_codebook(3, 8, 20_000, 20, 144)
        g = np.array([0.5, 1.0, 4.0])
        stats = epsilon_statistics(quantization_errors(cb, 50_000, 145), 25.0, g)
        assert stats.zero_eps_excluded == 0
        assert stats.mean_log2_eps <= math.log2(stats.mean_eps) + 1e-12
        perfect = np.log2(1.0 + 25.0 * g)
        assert np.all(stats.per_g_rate <= perfect + 1e-12)
        floor = np.log2(25.0 * g) + stats.mean_log2_eps
        assert np.all(stats.per_g_rate >= floor - 1e-12)

    def test_rate_table_is_monotone_in_power(self):
        cb = random_codebook(3, 8, 146)
        stats = epsilon_statistics(quantization_errors(cb, 20_000, 147), 10.0,
                                   [0.3, 1.0, 2.5, 7.0])
        assert np.all(np.diff(stats.per_g_rate) > 0)

    def test_bookkeeping_fields(self):
        cb = random_codebook(3, 8, 148)
        stats = epsilon_statistics(quantization_errors(cb, 10_000, 149), 10.0, [1.0, 2.0])
        assert stats.sample_count == 10_000
        np.testing.assert_array_equal(stats.g_points, [1.0, 2.0])
        assert stats.stderr_mean_eps > 0
        assert stats.stderr_log2_eps > 0
        assert stats.per_g_rate_stderr.shape == (2,)
        assert np.all(stats.per_g_rate_stderr > 0)

    def test_chunked_and_plain_paths_agree(self):
        cb = random_codebook(2, 4, 150)
        a = epsilon_statistics(quantization_errors(cb, 70_000, 151), 10.0, [1.0])
        b = epsilon_statistics(quantization_errors(cb, 70_000, 151), 10.0, [1.0])
        assert a.mean_eps == b.mean_eps

    def test_sample_memory_is_the_sample_and_one_block(self):
        # the 2 MB sample plus one block's shapes, features and scores; a
        # block as large as the sample would hold several times that
        cb = random_codebook(3, 16, 1)
        tracemalloc.start()
        try:
            quantization_errors(cb, 2 ** 18, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_bad_arguments_rejected(self):
        cb = random_codebook(3, 4, 152)
        with pytest.raises(ValueError):
            quantization_errors(cb, 0, 153)
        with pytest.raises(ValueError):
            epsilon_statistics(np.empty(0), 10.0, [1.0])
        with pytest.raises(ValueError):
            epsilon_statistics(quantization_errors(cb, 100, 153), 0.0, [1.0])


class TestPriceIncrementBound:
    def test_single_antenna_pays_nothing(self):
        assert price_increment_bound(1, 64) == 0.0

    def test_known_values(self):
        np.testing.assert_allclose(price_increment_bound(2, 4),
                                   math.log2(math.e) / 4.0, rtol=1e-15)
        np.testing.assert_allclose(price_increment_bound(3, 16),
                                   math.log2(math.e) / 4.0, rtol=1e-15)

    def test_shrinks_with_codebook_size(self):
        vals = [price_increment_bound(3, s) for s in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_trained_codebooks_respect_the_bound(self):
        # the mean log alignment loss stays under the bound for codebooks
        # good enough to be used for feedback
        for L, size, seed in ((2, 8, 160), (3, 16, 161)):
            cb = lloyd_codebook(L, size, 40_000, 30, seed)
            stats = epsilon_statistics(quantization_errors(cb, 40_000, seed + 50), 10.0, [1.0])
            bound = price_increment_bound(L, size)
            assert -stats.mean_log2_eps <= bound - 3.0 * stats.stderr_log2_eps

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            price_increment_bound(0, 4)
        with pytest.raises(ValueError):
            price_increment_bound(3, 0)


class TestSerialization:
    def test_round_trip_is_exact(self):
        cb = lloyd_codebook(3, 8, 5000, 10, 170)
        back = codebook_from_json(codebook_to_json(cb))
        np.testing.assert_array_equal(back.vectors, cb.vectors)
        assert back.method == "lloyd"

    def test_document_layout(self):
        cb = random_codebook(2, 3, 171)
        doc = json.loads(codebook_to_json(cb))
        assert doc["L"] == 2 and doc["size"] == 3
        assert len(doc["vectors"]) == 3
        assert all(len(row) == 4 for row in doc["vectors"])

    def test_inconsistent_document_rejected(self):
        cb = random_codebook(2, 3, 172)
        doc = json.loads(codebook_to_json(cb))
        doc["L"] = 5
        with pytest.raises(ValueError, match="dimensions"):
            codebook_from_json(json.dumps(doc))
