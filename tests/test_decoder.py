import numpy as np
import pytest

from xpq.codebook import EmbeddingTable
from xpq.datamodel import LanguagePhonemeSet
from xpq.decoder import (
    DecoderParams,
    PhonemeStats,
    build_frame_bundle,
    loss_and_grads,
)
from xpq.gradcheck import CheckShape, check_decoder_gradients

from conftest import make_corpus, make_utterance


# the rows of every hand-built utterance below; "a" is row 0 of each table
AB = LanguagePhonemeSet("x", ("a", "b"))


def _table(matrix, language="x", phonemes=("a", "b")):
    return EmbeddingTable(np.asarray(matrix, dtype=np.float64), language, tuple(phonemes))


def _phoneme_set(table):
    return LanguagePhonemeSet(table.language, table.phonemes)


def predict_frames(dec, table, utt):
    """Predicted frames for every covered frame of utt, as the loss sees them."""
    bundle = build_frame_bundle(utt)
    return (table.matrix @ dec.w_d + dec.b_d)[bundle.rows]


def _loss(dec, table, utts):
    corpus = make_corpus([_phoneme_set(table)], utts)
    return loss_and_grads(dec, table, corpus.stats(utts))


class TestPredict:
    def test_zero_weights_bias_only(self):
        table = _table(np.ones((2, 3)))
        dec = DecoderParams(np.zeros((3, 2)), np.array([5.0, -1.0]))
        utt = make_utterance("u", "x", np.zeros((4, 2)), [("a", 0, 2), ("b", 2, 4)], AB)
        preds = predict_frames(dec, table, utt)
        assert np.array_equal(preds, np.tile([5.0, -1.0], (4, 1)))

    def test_identity_decoder_returns_embedding(self):
        table = _table([[1.0, 2.0], [3.0, 4.0]])
        dec = DecoderParams(np.eye(2), np.zeros(2))
        utt = make_utterance("u", "x", np.zeros((3, 2)), [("b", 0, 1), ("a", 1, 3)], AB)
        preds = predict_frames(dec, table, utt)
        assert np.array_equal(preds, [[3.0, 4.0], [1.0, 2.0], [1.0, 2.0]])

    def test_prediction_constant_within_phoneme(self):
        rng = np.random.default_rng(0)
        table = _table(rng.standard_normal((2, 4)))
        dec = DecoderParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        utt = make_utterance("u", "x", rng.standard_normal((5, 3)), [("a", 0, 5)], AB)
        preds = predict_frames(dec, table, utt)
        assert np.all(preds == preds[0])

    def test_uncovered_frames_excluded(self):
        table = _table(np.ones((2, 2)))
        dec = DecoderParams(np.eye(2), np.zeros(2))
        # 6 frames, only 3 covered
        utt = make_utterance("u", "x", np.zeros((6, 2)), [("a", 0, 2), ("b", 5, 6)], AB)
        assert predict_frames(dec, table, utt).shape == (3, 2)


class TestLoss:
    def test_perfect_reconstruction_zero_loss_zero_grads(self):
        table = _table([[1.0, 0.0], [0.0, 1.0]])
        dec = DecoderParams(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0.5, 0.5]))
        per_row = table.matrix @ dec.w_d + dec.b_d
        frames = np.vstack([per_row[0], per_row[0], per_row[1]])
        utt = make_utterance("u", "x", frames, [("a", 0, 2), ("b", 2, 3)], AB, dtype=np.float64)
        loss, dec_grads, d_table = _loss(dec, table, [utt])
        assert loss == 0.0
        assert np.all(dec_grads.w_d == 0.0) and np.all(dec_grads.b_d == 0.0)
        assert np.all(d_table == 0.0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        table = _table(rng.standard_normal((2, 3)))
        dec = DecoderParams(rng.standard_normal((3, 2)), rng.standard_normal(2))
        utt = make_utterance("u", "x", rng.standard_normal((7, 2)), [("a", 0, 4), ("b", 4, 7)], AB)
        loss, _, _ = _loss(dec, table, [utt])
        assert loss > 0.0

    def test_known_value_single_frame(self):
        # one frame, one dim: prediction 3, target 1 -> mse (3-1)^2 = 4
        table = _table([[1.0]], phonemes=("a",))
        dec = DecoderParams(np.array([[3.0]]), np.zeros(1))
        utt = make_utterance("u", "x", [[1.0]], [("a", 0, 1)], AB, dtype=np.float64)
        loss, dec_grads, d_table = _loss(dec, table, [utt])
        assert loss == pytest.approx(4.0)
        # dL/dpred = 2*(3-1)/1 = 4; dW = e^T dpred = 4; db = 4; dtable = dpred W^T = 12
        assert dec_grads.w_d[0, 0] == pytest.approx(4.0)
        assert dec_grads.b_d[0] == pytest.approx(4.0)
        assert d_table[0, 0] == pytest.approx(12.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference(self, seed):
        assert check_decoder_gradients(seed, CheckShape(3, 4, 5, 2, 3, 2, 17)) < 1e-4

    def test_duplication_mean_invariance(self):
        rng = np.random.default_rng(2)
        table = _table(rng.standard_normal((2, 3)))
        dec = DecoderParams(rng.standard_normal((3, 2)), rng.standard_normal(2))
        utt = make_utterance("u", "x", rng.standard_normal((5, 2)), [("a", 0, 3), ("b", 3, 5)], AB)
        single, _, _ = _loss(dec, table, [utt])
        doubled, _, _ = _loss(dec, table, [utt, utt])
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_empty_inputs_rejected(self):
        table = _table(np.zeros((1, 2)), phonemes=("a",))
        dec = DecoderParams(np.zeros((2, 1)), np.zeros(1))
        bare = make_utterance("u", "x", np.zeros((2, 1)), [], AB)
        with pytest.raises(ValueError):
            make_corpus([_phoneme_set(table)], [bare]).stats([])
        with pytest.raises(ValueError, match="zero covered frames"):
            _loss(dec, table, [bare])
        empty = PhonemeStats(np.zeros(1, dtype=np.int64), np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError, match="zero covered frames"):
            loss_and_grads(dec, table, empty)

    def test_grad_dtype_follows_table(self):
        table = EmbeddingTable(np.zeros((1, 2), dtype=np.float32), "x", ("a",))
        dec = DecoderParams(np.zeros((2, 1), dtype=np.float32), np.zeros(1, dtype=np.float32))
        utt = make_utterance("u", "x", [[1.0]], [("a", 0, 1)], AB)
        _, dec_grads, d_table = _loss(dec, table, [utt])
        assert dec_grads.w_d.dtype == np.float32
        assert d_table.dtype == np.float32


class TestBundle:
    def test_frame_and_row_layout(self):
        utt = make_utterance("u1", "x", np.arange(8).reshape(4, 2), [("b", 0, 1), ("a", 2, 4)], AB)
        bundle = build_frame_bundle(utt)
        assert bundle.rows.tolist() == [1, 0, 0]
        assert bundle.frames.tolist() == [[0, 1], [4, 5], [6, 7]]
        bare = make_utterance("u2", "x", np.ones((2, 2)), [], AB)
        bundle = build_frame_bundle(bare)
        assert bundle.frames.shape == (0, 2) and bundle.rows.shape == (0,)


class TestMerge:
    def test_known_value(self):
        # row 0: frames 1, 3 in one group and 5 in the other; row 1: no frames
        counts = np.array([[2, 0], [1, 0]])
        means = np.array([[[2.0], [0.0]], [[5.0], [0.0]]])
        merged = PhonemeStats.merge(counts, means, np.array([2.0, 0.0]))
        assert merged.counts.tolist() == [3, 0]
        assert merged.means.tolist() == [[3.0], [0.0]]
        # |1-3|^2 + |3-3|^2 + |5-3|^2
        assert merged.scatter == 8.0 and merged.n_frames == 3

    def test_equal_float32_frames_merge_to_exact_zero_scatter(self):
        value = np.float32(0.1)
        counts = np.array([[3], [7], [1]])
        means = np.full((3, 1, 2), np.float64(value))
        merged = PhonemeStats.merge(counts, means, np.zeros(3))
        assert merged.scatter == 0.0
        assert np.all(merged.means == np.float64(value))
