import numpy as np
import pytest

from xpq.adaptation import (
    AdaptConfig,
    FewShotTask,
    TaskSpec,
    evaluate,
    finetune,
    init_embedding,
    run_experiment,
    sample_task,
    write_report_json,
    write_report_tsv,
)
from xpq.codebook import CodebookConfig, init_params
from xpq.datamodel import LanguagePhonemeSet
from xpq.decoder import DecoderParams, init_decoder
from xpq.errors import ConfigError, TaskError, VocabularyError

from conftest import make_corpus, make_utterance, symbols

PS = LanguagePhonemeSet("x", ("a", "b", "c"))


def _corpus_all_in_one():
    """One utterance holds the full inventory; others hold subsets."""
    utts = [
        make_utterance("all", "x", np.ones((6, 2)), [("a", 0, 2), ("b", 2, 4), ("c", 4, 6)], PS),
        make_utterance("ab", "x", np.ones((4, 2)), [("a", 0, 2), ("b", 2, 4)], PS),
        make_utterance("a1", "x", np.ones((2, 2)), [("a", 0, 2)], PS),
        make_utterance("b1", "x", np.ones((2, 2)), [("b", 0, 2)], PS),
    ]
    return make_corpus([PS], utts)


class TestConfig:
    def test_checkpoints_must_be_sorted_and_bounded(self):
        with pytest.raises(ConfigError):
            AdaptConfig(finetune_steps=100, eval_checkpoints=(0, 200))
        with pytest.raises(ConfigError):
            AdaptConfig(eval_checkpoints=(50, 0, 500))

    def test_task_spec_positive(self):
        with pytest.raises(ConfigError):
            TaskSpec("x", k=0)


class TestSampleTask:
    def test_full_inventory_shot_always_valid(self):
        corpus = _corpus_all_in_one()
        # k=1, q=3: the only covering shot is the full-inventory utterance
        task = sample_task(corpus, TaskSpec("x", k=1, q=3, seed=0))
        assert [u.id for u in task.shots] == ["all"]
        assert len(task.queries) == 3

    def test_queries_without_covered_frames_are_never_drawn(self):
        # an empty alignment is a valid corpus entry; a query set of bare
        # utterances would leave evaluation nothing to average
        utts = [
            make_utterance(
                "full", "x", np.ones((3, 2)), [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)], PS
            ),
            make_utterance("bare", "x", np.ones((3, 2)), [], PS),
        ]
        corpus = make_corpus([PS], utts)
        for seed in range(5):
            with pytest.raises(TaskError, match="within 100 attempts"):
                sample_task(corpus, TaskSpec("x", k=1, q=1, seed=seed))

    def test_impossible_coverage_names_phonemes(self):
        utts = [
            make_utterance("u0", "x", np.ones((1, 2)), [("a", 0, 1)], PS),
            make_utterance("u1", "x", np.ones((1, 2)), [("b", 0, 1)], PS),
            make_utterance("u2", "x", np.ones((1, 2)), [("c", 0, 1)], PS),
        ]
        corpus = make_corpus([PS], utts)
        with pytest.raises(TaskError, match="phonemes"):
            sample_task(corpus, TaskSpec("x", k=1, q=2, seed=0))

    def test_pool_too_small(self):
        corpus = _corpus_all_in_one()
        with pytest.raises(TaskError, match="utterances"):
            sample_task(corpus, TaskSpec("x", k=3, q=9))

    def test_coverage_holds_on_synthetic_corpus(self, small_corpus):
        ps = small_corpus.phoneme_set("T0")
        for seed in range(100):
            task = sample_task(small_corpus, TaskSpec("T0", k=4, q=16, seed=seed))
            shot_syms = set().union(*(symbols(u, ps) for u in task.shots))
            query_syms = set().union(*(symbols(u, ps) for u in task.queries))
            assert query_syms <= shot_syms
            assert not {u.id for u in task.shots} & {u.id for u in task.queries}

    def test_deterministic_under_seed(self, small_corpus):
        t1 = sample_task(small_corpus, TaskSpec("T0", k=4, q=8, seed=3))
        t2 = sample_task(small_corpus, TaskSpec("T0", k=4, q=8, seed=3))
        assert [u.id for u in t1.shots] == [u.id for u in t2.shots]
        assert [u.id for u in t1.queries] == [u.id for u in t2.queries]


CB = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=2)


class TestInitEmbedding:
    def test_codebook_init_deterministic(self):
        corpus = _corpus_all_in_one()
        params = init_params(CB, 0)
        rng = np.random.default_rng(0)
        task = FewShotTask(list(corpus.utterances[:2]), [], "x")
        t1 = init_embedding("codebook_init", params, corpus, task, rng)
        t2 = init_embedding("codebook_init", params, corpus, task, rng)
        assert np.array_equal(t1, t2)

    def test_absent_phoneme_gets_mean_code_row(self):
        params = init_params(CB, 1, dtype=np.float64)
        features = np.ones((2, 2), dtype=np.float64)
        shots = [make_utterance("u", "x", features, [("a", 0, 2)], PS)]
        corpus = make_corpus([PS], shots)
        task = FewShotTask(shots, [], "x")
        table = init_embedding("codebook_init", params, corpus, task, np.random.default_rng(0))
        for h in range(CB.heads):
            np.testing.assert_allclose(
                table[2, h * CB.d_v : (h + 1) * CB.d_v],
                params.codes[h].mean(axis=0),
                rtol=1e-12,
            )

    def test_random_init_statistics_and_determinism(self):
        params = init_params(CB, 0)
        big_ps = LanguagePhonemeSet("x", tuple(f"p{i}" for i in range(50)))
        corpus = make_corpus([big_ps], [], dim=2)
        task = FewShotTask([], [], "x")
        t1 = init_embedding("random_init", params, corpus, task, np.random.default_rng(5))
        t2 = init_embedding("random_init", params, corpus, task, np.random.default_rng(5))
        assert np.array_equal(t1, t2)
        assert t1.shape == (50, CB.embed_dim)
        assert abs(t1.mean()) < 0.01
        assert np.abs(t1).max() <= np.sqrt(6 / (50 + CB.embed_dim))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            init_embedding(
                "nope", init_params(CB, 0), _corpus_all_in_one(), FewShotTask([], [], "x"),
                np.random.default_rng(0),
            )


class TestFinetune:
    def _setup(self):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((3, CB.embed_dim)).astype(np.float32)
        decoder = init_decoder(CB.embed_dim, 2, seed=3)
        shots = [
            make_utterance(
                "s0", "x", rng.standard_normal((6, 2)), [("a", 0, 2), ("b", 2, 4), ("c", 4, 6)],
                PS,
            ),
            make_utterance("s1", "x", rng.standard_normal((4, 2)), [("a", 0, 2), ("c", 2, 4)], PS),
        ]
        return table, decoder, _stats(shots)

    def test_zero_steps_returns_initialization(self):
        table, decoder, shots = self._setup()
        points = finetune(table, decoder, shots, AdaptConfig(finetune_steps=0, eval_checkpoints=(0,)))
        assert len(points) == 1 and points[0].step == 0
        assert np.array_equal(points[0].table, table)
        assert np.array_equal(points[0].decoder.w_d, decoder.w_d)

    def test_inputs_not_mutated_and_loss_decreases(self):
        table, decoder, shots = self._setup()
        before = table.copy()
        cfg = AdaptConfig(finetune_steps=200, eval_checkpoints=(0, 200))
        points = finetune(table, decoder, shots, cfg)
        assert np.array_equal(table, before)
        assert points[-1].train_loss < points[0].train_loss

    def test_snapshots_at_requested_steps(self):
        table, decoder, shots = self._setup()
        cfg = AdaptConfig(finetune_steps=20, eval_checkpoints=(0, 5, 20))
        points = finetune(table, decoder, shots, cfg)
        assert [p.step for p in points] == [0, 5, 20]


def _stats(utterances):
    return make_corpus([PS], utterances).stats(utterances)


class TestEvaluate:
    def test_perfect_reconstruction_zero(self):
        table = np.zeros((3, CB.embed_dim))
        decoder = DecoderParams(np.zeros((CB.embed_dim, 2)), np.array([1.0, 2.0]))
        queries = [
            make_utterance("q0", "x", np.tile([1.0, 2.0], (4, 1)), [("a", 0, 4)], PS),
            make_utterance("q1", "x", np.tile([1.0, 2.0], (2, 1)), [("b", 0, 2)], PS),
        ]
        assert evaluate(table, decoder, _stats(queries)) == 0.0

    def test_query_order_invariance(self):
        rng = np.random.default_rng(4)
        table = rng.standard_normal((3, CB.embed_dim))
        decoder = DecoderParams(
            rng.standard_normal((CB.embed_dim, 2)), rng.standard_normal(2)
        )
        queries = [
            make_utterance(f"q{i}", "x", rng.standard_normal((3, 2)), [("a", 0, 3)], PS)
            for i in range(5)
        ]
        r1 = evaluate(table, decoder, _stats(queries))
        r2 = evaluate(table, decoder, _stats(queries[::-1]))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_mean_over_tasks_is_plain_average(self):
        values = [0.5, 0.3, 0.7]
        assert float(np.mean(values)) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def trained_small(small_corpus, tmp_path_factory):
    from xpq.trainer import TrainConfig, run_training

    cfg = TrainConfig(total_steps=150, warmup_steps=30, seed=5)
    cb = CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8)
    return run_training(small_corpus, cfg, cb, tmp_path_factory.mktemp("trained_small"))


class TestExperiment:
    def test_paired_tasks_share_shots_and_queries(self, small_corpus, trained_small):
        spec = TaskSpec("T0", k=4, q=8, seed=1)
        t1 = sample_task(small_corpus, spec)
        t2 = sample_task(small_corpus, spec)
        assert [u.id for u in t1.shots] == [u.id for u in t2.shots]
        assert [u.id for u in t1.queries] == [u.id for u in t2.queries]

    def test_grid_shape_and_rerun_identical(self, small_corpus, trained_small):
        cfg = AdaptConfig(finetune_steps=30, eval_checkpoints=(0, 30))
        kwargs = dict(ks=[2, 4], n_tasks=3, config=cfg, q=6, base_seed=0)
        cells1 = run_experiment(
            small_corpus, trained_small.params, trained_small.decoder, "T0", **kwargs
        )
        cells2 = run_experiment(
            small_corpus, trained_small.params, trained_small.decoder, "T0", **kwargs
        )
        assert cells1 == cells2
        assert [(c["k"], c["mode"]) for c in cells1] == [
            (2, "codebook_init"),
            (2, "random_init"),
            (4, "codebook_init"),
            (4, "random_init"),
        ]
        for cell in cells1:
            assert len(cell["tasks"]) == 3
            for task in cell["tasks"]:
                assert [cp["step"] for cp in task["checkpoints"]] == [0, 30]

    def test_codebook_init_beats_random_at_checkpoint_zero(self, small_corpus, trained_small):
        # initialization quality: before any fine-tuning, the generated table
        # reconstructs unseen-language queries far better than a random table
        cells = run_experiment(
            small_corpus,
            trained_small.params,
            trained_small.decoder,
            "T0",
            ks=[4],
            n_tasks=5,
            config=AdaptConfig(finetune_steps=0, eval_checkpoints=(0,)),
            q=8,
        )
        by_mode = {c["mode"]: c for c in cells}
        cb = [t["checkpoints"][0]["mean_mse"] for t in by_mode["codebook_init"]["tasks"]]
        rnd = [t["checkpoints"][0]["mean_mse"] for t in by_mode["random_init"]["tasks"]]
        assert np.mean(cb) < np.mean(rnd)
        assert all(a < b for a, b in zip(cb, rnd))  # paired, every task

    def test_codebook_frozen_through_adaptation(self, small_corpus, trained_small):
        params = trained_small.params
        before = (params.w_q.copy(), params.keys.copy(), params.codes.copy())
        run_experiment(
            small_corpus,
            params,
            trained_small.decoder,
            "T0",
            ks=[2],
            n_tasks=2,
            config=AdaptConfig(finetune_steps=10, eval_checkpoints=(0, 10)),
            q=4,
        )
        assert np.array_equal(before[0], params.w_q)
        assert np.array_equal(before[1], params.keys)
        assert np.array_equal(before[2], params.codes)

    def test_unknown_language_rejected(self, small_corpus, trained_small):
        with pytest.raises(VocabularyError):
            run_experiment(
                small_corpus,
                trained_small.params,
                trained_small.decoder,
                "klingon",
                ks=[2],
                n_tasks=1,
                config=AdaptConfig(finetune_steps=0, eval_checkpoints=(0,)),
            )

    def test_report_writers(self, tmp_path, small_corpus, trained_small):
        cells = run_experiment(
            small_corpus,
            trained_small.params,
            trained_small.decoder,
            "T0",
            ks=[2],
            n_tasks=2,
            config=AdaptConfig(finetune_steps=10, eval_checkpoints=(0, 10)),
            q=4,
        )
        write_report_json(cells, tmp_path / "report.json")
        write_report_tsv(cells, tmp_path / "summary.tsv")
        import json

        loaded = json.loads((tmp_path / "report.json").read_text())
        assert {c["mode"] for c in loaded} == {"codebook_init", "random_init"}
        assert set(loaded[0]) == {"language", "k", "mode", "tasks", "mean", "std"}
        lines = (tmp_path / "summary.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells
