import json

import numpy as np
import pytest

from xpq.datamodel import LanguagePhonemeSet, load_feature_file, namespaced
from xpq.queries import aggregate_queries, phoneme_rep_matrix, save_query_matrix
from xpq.synth import load_ground_truth

from conftest import make_utterance

PS = LanguagePhonemeSet("x", ("a", "b", "c"))


class TestTempReps:
    def test_two_frame_mean(self):
        utt = make_utterance("u", "x", [[2, 4], [4, 8]], [("a", 0, 2)], PS)
        reps, counts = phoneme_rep_matrix(utt, PS)
        assert np.array_equal(reps[0], [3.0, 6.0])
        assert counts[0] == 2

    def test_multi_segment_pooling(self):
        # "a" occupies [0,1) and [2,3); the middle frame belongs to nothing
        utt = make_utterance("u", "x", [[0, 0], [9, 9], [4, 4]], [("a", 0, 1), ("a", 2, 3)], PS)
        reps, counts = phoneme_rep_matrix(utt, PS)
        assert np.array_equal(reps[0], [2.0, 2.0])
        assert counts.tolist() == [2, 0, 0]

    def test_absent_phoneme_has_no_entry(self):
        utt = make_utterance("u", "x", [[1, 1]], [("b", 0, 1)], PS)
        reps, counts = phoneme_rep_matrix(utt, PS)
        assert counts[0] == 0
        assert np.all(reps[0] == 0.0)


class TestAggregate:
    def test_mean_of_means(self):
        u1 = make_utterance("u1", "x", [[1, 0]], [("a", 0, 1)], PS)
        u2 = make_utterance("u2", "x", [[3, 2]], [("a", 0, 1)], PS)
        qm = aggregate_queries([u1, u2], PS)
        assert np.array_equal(qm.matrix[0], [2.0, 1.0])
        assert qm.present[0]

    def test_mean_of_means_not_frame_weighted(self):
        # u1 has one frame of "a" valued 0; u2 has three frames each valued 4.
        # The per-utterance means are 0 and 4, so the query is 2 (never the
        # frame-weighted 3).
        u1 = make_utterance("u1", "x", [[0.0]], [("a", 0, 1)], PS)
        u2 = make_utterance("u2", "x", [[4.0], [4.0], [4.0]], [("a", 0, 3)], PS)
        qm = aggregate_queries([u1, u2], PS)
        assert qm.matrix[0, 0] == 2.0

    def test_absent_phoneme_zero_row(self):
        u1 = make_utterance("u1", "x", [[1, 1]], [("a", 0, 1)], PS)
        qm = aggregate_queries([u1], PS)
        assert np.all(qm.matrix[2] == 0.0)
        assert not qm.present[2]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_queries([], PS)

    def test_language_mismatch_rejected(self):
        u = make_utterance("u", "y", [[1, 1]], [("a", 0, 1)], PS)
        with pytest.raises(ValueError):
            aggregate_queries([u], PS)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        utts = [
            make_utterance(
                f"u{i}",
                "x",
                rng.standard_normal((6, 4)),
                [("a", 0, 2), ("b", 2, 5), ("a", 5, 6)], PS,
            )
            for i in range(6)
        ]
        qm1 = aggregate_queries(utts, PS)
        qm2 = aggregate_queries(utts[::-1], PS)
        np.testing.assert_allclose(qm1.matrix, qm2.matrix, rtol=1e-6, atol=1e-7)
        assert np.array_equal(qm1.present, qm2.present)

    def test_segment_order_invariance(self):
        feats = np.arange(12, dtype=np.float32).reshape(6, 2)
        u1 = make_utterance("u", "x", feats, [("a", 0, 2), ("b", 2, 4), ("a", 4, 6)], PS)
        u2 = make_utterance("u", "x", feats, [("a", 4, 6), ("b", 2, 4), ("a", 0, 2)], PS)
        # unsorted alignments never round-trip through files, but the math
        # itself must not care about segment order
        r1, c1 = phoneme_rep_matrix(u1, PS)
        r2, c2 = phoneme_rep_matrix(u2, PS)
        assert np.array_equal(c1, c2)
        np.testing.assert_allclose(r1, r2, rtol=1e-12)

    def test_constant_phoneme_recovers_exactly(self):
        v = np.array([0.3, -1.2, 7.5], dtype=np.float32)
        ps = LanguagePhonemeSet("x", ("a",))
        utts = [
            make_utterance(f"u{i}", "x", np.tile(v, (n, 1)), [("a", 0, n)], ps)
            for i, n in enumerate((1, 4, 9))
        ]
        qm = aggregate_queries(utts, ps)
        assert np.array_equal(qm.matrix[0], v.astype(qm.matrix.dtype))

    def test_output_dtype_follows_features(self):
        u32 = make_utterance("u", "x", [[1, 2]], [("a", 0, 1)], PS)
        u64 = make_utterance("u", "x", [[1, 2]], [("a", 0, 1)], PS, dtype=np.float64)
        assert aggregate_queries([u32], PS).matrix.dtype == np.float32
        assert aggregate_queries([u64], PS).matrix.dtype == np.float64


def test_zero_noise_queries_match_prototypes(tmp_path):
    import dataclasses

    from xpq.datamodel import load_corpus
    from xpq.synth import generate_corpus

    from conftest import SMALL_SYNTH

    cfg = dataclasses.replace(SMALL_SYNTH, noise_sigma=0.0, utterances_per_language=20)
    generate_corpus(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "manifest.json")
    protos = load_feature_file(tmp_path / "prototypes.xpqf")
    gt = load_ground_truth(tmp_path / "ground_truth.json")
    for lang in corpus.language_ids:
        ps = corpus.phoneme_set(lang)
        qm = aggregate_queries(corpus.by_language(lang), ps)
        for i, phoneme in enumerate(ps.phonemes):
            assert qm.present[i]
            expected = protos[gt[namespaced(lang, phoneme)]]
            np.testing.assert_allclose(qm.matrix[i], expected, rtol=1e-6, atol=1e-9)


def test_dump_round_trip(tmp_path):
    u1 = make_utterance("u1", "x", [[1.5, -2.0]], [("a", 0, 1)], PS)
    qm = aggregate_queries([u1], PS)
    save_query_matrix(qm, tmp_path / "q")
    matrix = load_feature_file(tmp_path / "q.xpqf")
    sidecar = json.loads((tmp_path / "q.json").read_text())
    assert np.array_equal(matrix, qm.matrix)
    assert np.array_equal(sidecar["present"], qm.present)
    assert sidecar["language"] == "x" and tuple(sidecar["phonemes"]) == PS.phonemes
