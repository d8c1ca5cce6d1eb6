import errno
import itertools
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import xpq.trainer as trainer_mod
from xpq.codebook import CodebookConfig, CodebookParams, attention_backward, forward
from xpq.datamodel import LanguagePhonemeSet
from xpq.decoder import DecoderParams, loss_and_grads
from xpq.errors import ConfigError, CoverageError, FormatError
from xpq.gradcheck import central_difference, max_rel_err
from xpq.queries import aggregate_queries
from xpq.checkpoint import load_checkpoint, model_tensors, save_checkpoint
from xpq.trainer import (
    TrainConfig,
    init_train_state,
    run_training,
    sample_language_batch,
    split_with_coverage,
    train_step,
)

from conftest import coverage_masks, make_corpus, make_utterance, symbols


def _toy_corpus(n_utts=12, seed=0, m=4, dim=6, language="L0"):
    """Single-language corpus with noise-free prototype frames."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(-1, 1, (m, dim)).astype(np.float32)
    phonemes = tuple(f"p{i}" for i in range(m))
    phoneme_set = LanguagePhonemeSet(language, phonemes)
    utts = []
    for u in range(n_utts):
        seq = rng.integers(0, m, size=6)
        if u < m:  # guarantee coverage of every phoneme in the pool
            seq[0] = u
        frames = []
        segs = []
        cursor = 0
        for ph in seq:
            dur = int(rng.integers(2, 5))
            frames.append(np.tile(protos[ph], (dur, 1)))
            segs.append((phonemes[ph], cursor, cursor + dur))
            cursor += dur
        utts.append(make_utterance(f"u{u:03d}", language, np.vstack(frames), segs, phoneme_set))
    return make_corpus([phoneme_set], utts)


TOY_TRAIN = TrainConfig(
    batch_size=8,
    gen_group_size=6,
    loss_group_size=2,
    warmup_steps=10,
    total_steps=50,
    seed=1,
)
TOY_CB = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=6)


class TestConfig:
    def test_group_sizes_must_sum(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=40, gen_group_size=30, loss_group_size=8)

    def test_decay_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(decay_rate=0.0)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 40 and cfg.gen_group_size == 32 and cfg.loss_group_size == 8
        assert cfg.lr == 0.001 and cfg.beta1 == 0.9 and cfg.beta2 == 0.98 and cfg.eps == 1e-9


class TestBatchSampling:
    def test_single_language_of_exact_size(self):
        corpus = _toy_corpus(n_utts=8)
        batch = sample_language_batch(corpus, 8, np.random.default_rng(0))
        assert sorted(u.id for u in batch) == sorted(u.id for u in corpus.utterances)

    def test_undersized_language_never_chosen(self, small_corpus):
        # T0 has no train-split utterances at all, L0/L1 have 54 each
        rng = np.random.default_rng(0)
        for _ in range(30):
            batch = sample_language_batch(small_corpus, 40, rng)
            assert batch[0].language in ("L0", "L1")
            assert len({u.language for u in batch}) == 1
            assert len({u.id for u in batch}) == 40

    def test_no_eligible_language(self):
        corpus = _toy_corpus(n_utts=5)
        with pytest.raises(ConfigError):
            sample_language_batch(corpus, 40, np.random.default_rng(0))

    def test_deterministic_under_seed(self, small_corpus):
        ids1 = [u.id for u in sample_language_batch(small_corpus, 40, np.random.default_rng(7))]
        ids2 = [u.id for u in sample_language_batch(small_corpus, 40, np.random.default_rng(7))]
        assert ids1 == ids2


# the rows of every hand-built "x" batch below, in symbol order
XS = LanguagePhonemeSet("x", ("a", "b", "c", "z"))


class TestCoverageSplit:
    def _mini_batch(self):
        # u0 holds a phoneme ("z") that appears nowhere else
        return [
            make_utterance("u0", "x", [[1.0]], [("z", 0, 1)], XS),
            make_utterance("u1", "x", [[1.0], [1.0]], [("a", 0, 1), ("b", 1, 2)], XS),
            make_utterance("u2", "x", [[1.0]], [("a", 0, 1)], XS),
            make_utterance("u3", "x", [[1.0]], [("b", 0, 1)], XS),
        ]

    def test_unique_phoneme_bearer_always_lands_in_gen(self):
        batch = self._mini_batch()
        # oracle: enumerate all 3+1 splits; the valid ones keep u0 out of the
        # loss group entirely
        valid_loss_sets = []
        for loss_ids in itertools.combinations(range(4), 1):
            gen_ids = [i for i in range(4) if i not in loss_ids]
            gen_syms = set().union(*(symbols(batch[i], XS) for i in gen_ids))
            loss_syms = set().union(*(symbols(batch[i], XS) for i in loss_ids))
            if loss_syms <= gen_syms:
                valid_loss_sets.append(loss_ids)
        assert all(0 not in loss_ids for loss_ids in valid_loss_sets)
        for seed in range(40):
            gen, loss = split_with_coverage(
                batch, np.random.default_rng(seed), 3, 1, **coverage_masks(batch, XS)
            )
            assert "u0" in {u.id for u in gen}
            gen_syms = set().union(*(symbols(u, XS) for u in gen))
            assert set().union(*(symbols(u, XS) for u in loss)) <= gen_syms

    def test_shared_inventory_first_split_accepted(self):
        batch = [
            make_utterance(f"u{i}", "x", [[1.0], [1.0]], [("a", 0, 1), ("b", 1, 2)], XS)
            for i in range(5)
        ]
        rng = np.random.default_rng(0)
        gen, loss = split_with_coverage(batch, rng, 4, 1, **coverage_masks(batch, XS))
        assert len(gen) == 4 and len(loss) == 1

    def test_pigeonhole_impossible_split(self):
        batch = [
            make_utterance("u0", "x", [[1.0]], [("a", 0, 1)], XS),
            make_utterance("u1", "x", [[1.0]], [("b", 0, 1)], XS),
            make_utterance("u2", "x", [[1.0]], [("c", 0, 1)], XS),
        ]
        with pytest.raises(CoverageError):
            split_with_coverage(
                batch, np.random.default_rng(0), 2, 1, **coverage_masks(batch, XS)
            )

    def test_greedy_fallback_forces_rare_bearers_into_gen(self):
        # limit=0 skips rejection sampling so the greedy path must solve it:
        # u0 and u1 are the sole bearers of "a" and "b"
        batch = [
            make_utterance("u0", "x", [[1.0]], [("a", 0, 1)], XS),
            make_utterance("u1", "x", [[1.0]], [("b", 0, 1)], XS),
            make_utterance("u2", "x", [[1.0], [1.0]], [("a", 0, 1), ("b", 1, 2)], XS),
        ]
        gen, loss = split_with_coverage(
            batch, np.random.default_rng(3), 2, 1, limit=0, **coverage_masks(batch, XS)
        )
        assert {u.id for u in gen} == {"u0", "u1"}
        assert {u.id for u in loss} == {"u2"}

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError):
            batch = self._mini_batch()
            split_with_coverage(
                batch, np.random.default_rng(0), 2, 1, **coverage_masks(batch, XS)
            )


class TestTrainStep:
    def test_loss_decreases_on_miniature(self):
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        losses = []
        for _ in range(50):
            batch = sample_language_batch(corpus, TOY_TRAIN.batch_size, state.rng)
            loss, _ = train_step(state, batch, corpus, TOY_TRAIN)
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.9

    def test_two_runs_bitwise_identical(self, tmp_path):
        corpus = _toy_corpus()
        s1 = run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path / "a")
        s2 = run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path / "b")
        assert np.array_equal(s1.params.w_q, s2.params.w_q)
        assert np.array_equal(s1.params.codes, s2.params.codes)
        assert np.array_equal(s1.decoder.w_d, s2.decoder.w_d)
        for name in ("codebook.bin", "decoder.bin", "optim.bin", "meta.json", "loss_log.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_every_executed_split_satisfies_coverage(self, monkeypatch):
        corpus = _toy_corpus()
        recorded = []
        original = trainer_mod.split_with_coverage

        def spy(batch, rng, gen_size, loss_size, limit=100, **kwargs):
            gen, loss = original(batch, rng, gen_size, loss_size, limit, **kwargs)
            recorded.append((gen, loss))
            return gen, loss

        monkeypatch.setattr(trainer_mod, "split_with_coverage", spy)
        state = init_train_state(TOY_TRAIN, TOY_CB)
        for _ in range(100):
            batch = sample_language_batch(corpus, TOY_TRAIN.batch_size, state.rng)
            train_step(state, batch, corpus, TOY_TRAIN)
        assert len(recorded) == 100
        ps = corpus.phoneme_set("L0")
        for gen, loss in recorded:
            gen_syms = set().union(*(symbols(u, ps) for u in gen))
            assert set().union(*(symbols(u, ps) for u in loss)) <= gen_syms

    def test_loss_group_without_covered_frames_is_refused_before_any_update(self):
        # an empty alignment is a valid corpus entry, but a loss group of such
        # utterances has no loss; run_training resamples on CoverageError
        toy = _toy_corpus()
        ps = toy.phoneme_set("L0")
        bare = [make_utterance(f"bare{i}", "L0", np.ones((2, 6)), [], ps) for i in range(8)]
        corpus = make_corpus(toy.manifest.languages, [*toy.utterances, *bare])
        state = init_train_state(TOY_TRAIN, TOY_CB)
        before = {k: t.copy() for k, t in model_tensors(state.params, state.decoder).items()}
        with pytest.raises(CoverageError, match="the loss group covers no frame"):
            train_step(state, bare, corpus, TOY_TRAIN)
        assert state.step == 0
        for name, t in model_tensors(state.params, state.decoder).items():
            assert np.array_equal(t, before[name]), name

    def test_composite_gradient_on_real_batch(self):
        # finite differences over the exact objective a step optimizes,
        # using real corpus data promoted to float64 (the statistics are)
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        rng = np.random.default_rng(0)
        batch = sample_language_batch(corpus, TOY_TRAIN.batch_size, rng)
        ps = corpus.phoneme_set("L0")
        gen, loss_group = split_with_coverage(batch, rng, 6, 2, **coverage_masks(batch, ps))
        queries = aggregate_queries(gen, ps).matrix.astype(np.float64)
        stats = corpus.stats(loss_group)
        p, d = state.params, state.decoder
        params = CodebookParams(
            TOY_CB, *(a.astype(np.float64) for a in (p.w_q, p.keys, p.codes))
        )
        decoder = DecoderParams(d.w_d.astype(np.float64), d.b_d.astype(np.float64))

        def objective():
            return loss_and_grads(decoder, forward(params, queries)[0], stats)[0]

        table, record = forward(params, queries)
        _, dec_grads, d_table = loss_and_grads(decoder, table, stats)
        cb_grads = attention_backward(params, queries, record, d_table)
        for analytic, arr in (
            (cb_grads.w_q, params.w_q),
            (cb_grads.keys, params.keys),
            (cb_grads.codes, params.codes),
            (dec_grads.w_d, decoder.w_d),
            (dec_grads.b_d, decoder.b_d),
        ):
            assert max_rel_err(analytic, central_difference(objective, arr)) < 1e-4

    def test_loss_log_schedule_values(self, tmp_path):
        corpus = _toy_corpus()
        run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path)
        lines = (tmp_path / "loss_log.tsv").read_text().splitlines()
        assert lines[0] == "# step\tlr\tloss"
        first = lines[1].split("\t")
        assert first[0] == "1" and float(first[1]) == TOY_TRAIN.lr / TOY_TRAIN.warmup_steps
        at_warmup = lines[TOY_TRAIN.warmup_steps].split("\t")
        assert float(at_warmup[1]) == TOY_TRAIN.lr
        assert len(lines) == 1 + TOY_TRAIN.total_steps


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self, tmp_path):
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        for _ in range(5):
            batch = sample_language_batch(corpus, TOY_TRAIN.batch_size, state.rng)
            train_step(state, batch, corpus, TOY_TRAIN)
        save_checkpoint(state, tmp_path / "a", TOY_TRAIN, TOY_CB)
        loaded = load_checkpoint(tmp_path / "a", TOY_TRAIN, TOY_CB)
        assert loaded.step == 5
        save_checkpoint(loaded, tmp_path / "b", TOY_TRAIN, TOY_CB)
        for name in ("codebook.bin", "decoder.bin", "optim.bin", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        corpus = _toy_corpus()
        run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path / "full")
        run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path / "split", stop_after=20)
        run_training(corpus, TOY_TRAIN, TOY_CB, tmp_path / "split", resume=True)
        for name in ("codebook.bin", "decoder.bin", "optim.bin", "meta.json", "loss_log.tsv"):
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "split" / name
            ).read_bytes(), name

    def test_truncated_loss_log_keeps_rows_to_step_and_no_temp_file(self, tmp_path):
        log = tmp_path / "loss_log.tsv"
        log.write_text("# step\tlr\tloss\n1\t0.1\t2.0\n2\t0.1\t1.5\n3\t0.1\t1.0\n")
        trainer_mod._truncate_loss_log(log, 2)
        assert log.read_text() == "# step\tlr\tloss\n1\t0.1\t2.0\n2\t0.1\t1.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["loss_log.tsv"]

    def test_torn_truncation_leaves_loss_log_intact(self, tmp_path, monkeypatch):
        log = tmp_path / "loss_log.tsv"
        original = "# step\tlr\tloss\n1\t0.1\t2.0\n2\t0.1\t1.5\n"
        log.write_text(original)
        write_bytes = Path.write_bytes

        def torn_write(path, data):
            write_bytes(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match=re.escape(f"cannot write {log}: ")):
            trainer_mod._truncate_loss_log(log, 1)
        monkeypatch.undo()
        assert log.read_text() == original
        assert [f.name for f in tmp_path.iterdir()] == ["loss_log.tsv"]

    def test_blobs_follow_the_documented_layout(self, tmp_path):
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        for _ in range(2):
            batch = sample_language_batch(corpus, TOY_TRAIN.batch_size, state.rng)
            train_step(state, batch, corpus, TOY_TRAIN)
        save_checkpoint(state, tmp_path, TOY_TRAIN, TOY_CB)

        def tensor(a):
            a = np.asarray(a, dtype="<f4")
            rows, cols = (1, a.shape[0]) if a.ndim == 1 else a.shape
            return struct.pack("<II", rows, cols) + a.tobytes()

        c, p, d, opt = TOY_CB, state.params, state.decoder, state.opt
        codebook = b"XPCB" + struct.pack("<6I", 1, c.n, c.heads, c.d_k, c.d_v, c.dim)
        codebook += b"".join(tensor(t[h]) for h in range(c.heads) for t in (p.w_q, p.keys, p.codes))
        decoder = b"XPDC" + struct.pack("<I", 1) + tensor(d.w_d) + tensor(d.b_d)
        optim = b"XPOP" + struct.pack("<IQ", 1, 2)
        for name in ("w_q", "keys", "codes", "w_d", "b_d"):
            for moments in (opt.m, opt.v):
                optim += tensor(moments[name].reshape(-1, moments[name].shape[-1]))
        assert (tmp_path / "codebook.bin").read_bytes() == codebook
        assert (tmp_path / "decoder.bin").read_bytes() == decoder
        assert (tmp_path / "optim.bin").read_bytes() == optim
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "codebook.bin", "decoder.bin", "meta.json", "optim.bin"
        ]

    @pytest.mark.parametrize("blob", ["codebook.bin", "decoder.bin", "optim.bin"])
    def test_corrupt_magic_rejected(self, tmp_path, blob):
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        save_checkpoint(state, tmp_path, TOY_TRAIN, TOY_CB)
        raw = bytearray((tmp_path / blob).read_bytes())
        raw[:4] = b"NOPE"
        (tmp_path / blob).write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"bad magic in .*{blob}"):
            load_checkpoint(tmp_path, TOY_TRAIN, TOY_CB)

    def test_config_mismatch_rejected(self, tmp_path):
        corpus = _toy_corpus()
        state = init_train_state(TOY_TRAIN, TOY_CB)
        save_checkpoint(state, tmp_path, TOY_TRAIN, TOY_CB)
        import dataclasses

        other = dataclasses.replace(TOY_TRAIN, lr=0.01)
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path, other, TOY_CB)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path, TOY_TRAIN, TOY_CB)


def test_validation_report_written(tmp_path, small_corpus):
    cfg = TrainConfig(total_steps=3, warmup_steps=2, seed=0)
    cb = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=8)
    run_training(small_corpus, cfg, cb, tmp_path)
    lines = (tmp_path / "val_loss.tsv").read_text().splitlines()
    assert lines[0].startswith("#")
    langs = {line.split("\t")[0] for line in lines[1:]}
    assert langs == {"L0", "L1"}  # the test language has no val split
