"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or rely on pytest's captured
stdout). The benchmark corpus and training run use the desk-scale defaults;
module-scoped fixtures share the trained model across criteria.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import xpq.trainer as trainer_mod
from xpq.adaptation import AdaptConfig, TaskSpec, run_experiment, sample_task
from xpq.cli import main
from xpq.codebook import CodebookConfig, attention_forward, init_params
from xpq.datamodel import load_corpus, load_feature_file, namespaced
from xpq.gradcheck import DEFAULT_SHAPES, run_suites
from xpq.mapping import build_score_table, top_k_mappings
from xpq.queries import aggregate_queries
from xpq.synth import SynthConfig, SynthLanguage, generate_corpus, load_ground_truth
from xpq.trainer import (
    TrainConfig,
    init_train_state,
    run_training,
    sample_language_batch,
    train_step,
)

from conftest import symbols


@pytest.fixture
def criterion(capfd):
    """Context manager printing one visible ACCEPTANCE line per criterion."""

    @contextmanager
    def announce(name):
        try:
            yield
        except Exception:
            with capfd.disabled():
                print(f"ACCEPTANCE {name}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {name}: PASS", flush=True)

    return announce


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def default_corpus(bench_dir):
    out = bench_dir / "corpus0"
    generate_corpus(SynthConfig(seed=0), out)
    return load_corpus(out / "manifest.json")


@pytest.fixture(scope="module")
def ground_truth(bench_dir, default_corpus):
    return load_ground_truth(bench_dir / "corpus0" / "ground_truth.json")


@pytest.fixture(scope="module")
def trained(bench_dir, default_corpus):
    return run_training(
        default_corpus, TrainConfig(seed=0), CodebookConfig(dim=16), bench_dir / "ckpt0"
    )


def test_gradient_suite(criterion):
    with criterion("gradient-suite"):
        results, elapsed = run_suites(base_seed=0, n_seeds=10, shapes=DEFAULT_SHAPES)
        assert len(DEFAULT_SHAPES) >= 3 and len(results) == 3 * 10 * len(DEFAULT_SHAPES)
        worst = max(r.max_err for r in results)
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_attention_invariants(criterion):
    with criterion("attention-invariants"):
        configs = (
            CodebookConfig(n=128, heads=4, d_k=64, d_v=64, dim=16),  # production shape
            CodebookConfig(n=11, heads=2, d_k=3, d_v=5, dim=7),
            CodebookConfig(n=2, heads=1, d_k=1, d_v=1, dim=1),
        )
        rng = np.random.default_rng(0)
        for cfg in configs:
            params = init_params(cfg, 1)
            for trial in range(10):
                m = int(rng.integers(1, 25))
                q = rng.standard_normal((m, cfg.dim)).astype(np.float32)
                emb, record = attention_forward(params, q)
                weights = record.weights
                # row-stochastic within 1e-6, entries in [0, 1]
                np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
                assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
                # permutation equivariance, bitwise
                perm = rng.permutation(m)
                emb_p, rec_p = attention_forward(params, q[perm])
                assert np.array_equal(emb[perm], emb_p)
                assert np.array_equal(weights[:, perm, :], rec_p.weights)
            # zero queries: exactly uniform attention, neutral embedding row
            emb, record = attention_forward(params, np.zeros((3, cfg.dim), dtype=np.float32))
            assert np.all(record.weights == np.float32(1.0) / np.float32(cfg.n))
            assert np.array_equal(emb[0], emb[1]) and np.array_equal(emb[1], emb[2])


def _paired_cells(corpus, state, ks, n_tasks):
    return run_experiment(
        corpus,
        state.params,
        state.decoder,
        "test0",
        ks,
        n_tasks,
        AdaptConfig(),
        q=64,
        base_seed=0,
    )


def test_trend_reproduction(criterion, default_corpus, trained):
    # Expected to FAIL at the stated threshold: with the default fine-tune
    # schedule (lr 0.001, 500 steps) the random baseline fully converges to the
    # same optimum as the codebook initialization by checkpoint 200 (a linear
    # decoder with embed_dim 256 >> dim 16 can interpolate any table), so the
    # late checkpoints are statistical ties. Checkpoints 0 and 50 show the
    # initialization advantage at 100%. See the decisions ledger.
    with criterion("trend-reproduction"):
        t0 = time.perf_counter()
        cells = _paired_cells(default_corpus, trained, [4, 16, 64], 20)
        by = {(c["k"], c["mode"]): c for c in cells}
        wins = total = 0
        for k in (4, 16, 64):
            cb, rnd = by[(k, "codebook_init")], by[(k, "random_init")]
            for t_cb, t_rd in zip(cb["tasks"], rnd["tasks"]):
                for cp_cb, cp_rd in zip(t_cb["checkpoints"], t_rd["checkpoints"]):
                    assert cp_cb["step"] == cp_rd["step"]
                    total += 1
                    wins += cp_cb["mean_mse"] < cp_rd["mean_mse"]
            # strict dominance of the cell means at checkpoint 0, every k
            cp0_cb = np.mean([t["checkpoints"][0]["mean_mse"] for t in cb["tasks"]])
            cp0_rd = np.mean([t["checkpoints"][0]["mean_mse"] for t in rnd["tasks"]])
            assert cp0_cb < cp0_rd, f"k={k}: checkpoint-0 means {cp0_cb} vs {cp0_rd}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"trend run took {elapsed:.0f}s"
        rate = wins / total
        print(f"trend: codebook_init wins {wins}/{total} = {rate:.3f} pairs")
        assert rate >= 0.90, f"paired win rate {rate:.3f} < 0.90"


def test_monotonic_shots_trend(criterion, bench_dir, default_corpus, trained):
    with criterion("monotonic-shots"):
        violations = 0
        for seed in range(5):
            if seed == 0:
                corpus, state = default_corpus, trained
            else:
                out = bench_dir / f"corpus{seed}"
                generate_corpus(SynthConfig(seed=seed), out)
                corpus = load_corpus(out / "manifest.json")
                state = run_training(
                    corpus, TrainConfig(seed=seed), CodebookConfig(dim=16),
                    bench_dir / f"ckpt{seed}",
                )
            cells = run_experiment(
                corpus, state.params, state.decoder, "test0", [4, 16, 64], 20,
                AdaptConfig(), q=64, base_seed=seed * 1000, modes=("codebook_init",),
            )
            finals = [c["mean"] for c in cells]
            if not (finals[0] >= finals[1] >= finals[2]):
                violations += 1
                print(f"monotonic violation at corpus seed {seed}: {finals}")
        assert violations <= 1, f"{violations}/5 corpus seeds violate the shots trend"


def test_mapping_recovery(criterion, default_corpus, trained, ground_truth):
    with criterion("mapping-recovery"):
        t0 = time.perf_counter()
        scores = build_score_table(default_corpus, trained.params)
        shared = []
        for p in scores.phonemes:
            lang = p.split("-", 1)[0]
            proto = ground_truth[p]
            if any(
                ground_truth[q] == proto
                for q in scores.phonemes
                if q != p and not q.startswith(f"{lang}-")
            ):
                shared.append((p, proto))
        assert len(shared) >= 20
        top1 = sum(
            ground_truth[top_k_mappings(scores, p, k=1)[0][0]] == proto
            for p, proto in shared
        )
        top5 = sum(
            any(ground_truth[c] == proto for c, _ in top_k_mappings(scores, p, k=5))
            for p, proto in shared
        )
        elapsed = time.perf_counter() - t0
        print(
            f"mapping: top1 {top1}/{len(shared)}, top5 {top5}/{len(shared)}, {elapsed:.1f}s"
        )
        assert top1 / len(shared) >= 0.80
        assert top5 / len(shared) >= 0.95
        assert elapsed < 60.0


def test_coverage_properties(criterion, default_corpus, monkeypatch):
    with criterion("coverage-properties"):
        # training splits: spy on every executed split across 100 steps
        recorded = []
        original = trainer_mod.split_with_coverage

        def spy(batch, rng, gen_size, loss_size, limit=100, **kwargs):
            out = original(batch, rng, gen_size, loss_size, limit, **kwargs)
            recorded.append(out)
            return out

        monkeypatch.setattr(trainer_mod, "split_with_coverage", spy)
        config = TrainConfig(total_steps=100, warmup_steps=20, seed=9)
        state = init_train_state(config, CodebookConfig(dim=16))
        for _ in range(100):
            batch = sample_language_batch(default_corpus, config.batch_size, state.rng)
            train_step(state, batch, default_corpus, config)
        assert len(recorded) >= 100
        for gen, loss in recorded:
            ps = default_corpus.phoneme_set(gen[0].language)
            gen_syms = set().union(*(symbols(u, ps) for u in gen))
            loss_syms = set().union(*(symbols(u, ps) for u in loss))
            assert loss_syms <= gen_syms

        # few-shot tasks: 100 sampled tasks across k values and languages
        checked = 0
        for k in (4, 16):
            for language in ("test0", "test1"):
                ps = default_corpus.phoneme_set(language)
                for seed in range(25):
                    task = sample_task(
                        default_corpus, TaskSpec(language, k=k, q=64, seed=seed)
                    )
                    shot_syms = set().union(*(symbols(u, ps) for u in task.shots))
                    query_syms = set().union(*(symbols(u, ps) for u in task.queries))
                    assert query_syms <= shot_syms
                    checked += 1
        assert checked == 100


_DET_CONFIG = {
    "synth": {
        "dim": 6,
        "num_prototypes": 10,
        "languages": [
            {"language": "L0", "m": 6, "shared_fraction": 0.5},
            {"language": "L1", "m": 6, "shared_fraction": 0.5},
            {"language": "T0", "m": 6, "shared_fraction": 0.5, "role": "test"},
        ],
        "noise_sigma": 0.1,
        "utterances_per_language": 30,
        "segments_per_utterance": [5, 8],
        "frames_per_segment": [2, 4],
        "seed": 13,
    },
    "codebook": {"n": 12, "heads": 2, "d_k": 6, "d_v": 6, "dim": 6},
    "train": {
        "batch_size": 10,
        "gen_group_size": 8,
        "loss_group_size": 2,
        "warmup_steps": 10,
        "total_steps": 40,
        "seed": 4,
    },
    "adapt": {"finetune_steps": 20, "eval_checkpoints": [0, 20]},
}

_CHECKPOINT_FILES = ("codebook.bin", "decoder.bin", "optim.bin", "meta.json", "loss_log.tsv")


def _run_pipeline(root, tag, threads):
    out = root / tag
    corpus = root / "det_corpus"
    cfg = root / "det_config.json"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus / "manifest.json"),
                 "--out", str(out / "ckpt"), "--threads", str(threads)]) == 0
    assert main(["adapt", "--checkpoint", str(out / "ckpt"),
                 "--corpus", str(corpus / "manifest.json"),
                 "--language", "T0", "--k", "2,4", "--tasks", "3", "--q", "4",
                 "--config", str(cfg), "--out", str(out / "adapt"),
                 "--threads", str(threads)]) == 0
    return out


def test_determinism(criterion, bench_dir):
    with criterion("determinism"):
        cfg_path = bench_dir / "det_config.json"
        cfg_path.write_text(json.dumps(_DET_CONFIG, indent=2))
        assert main(["gen-corpus", "--config", str(cfg_path),
                     "--out", str(bench_dir / "det_corpus")]) == 0
        a = _run_pipeline(bench_dir, "run_a", threads=1)
        b = _run_pipeline(bench_dir, "run_b", threads=1)
        c = _run_pipeline(bench_dir, "run_threads4", threads=4)
        for other in (b, c):
            for name in _CHECKPOINT_FILES:
                assert (a / "ckpt" / name).read_bytes() == (
                    other / "ckpt" / name
                ).read_bytes(), name
            for name in ("report.json", "summary.tsv"):
                assert (a / "adapt" / name).read_bytes() == (
                    other / "adapt" / name
                ).read_bytes(), name


def test_zero_noise_oracle(criterion, bench_dir):
    with criterion("zero-noise-oracle"):
        out = bench_dir / "zero_noise"
        cfg = SynthConfig(
            noise_sigma=0.0, languages=(SynthLanguage("solo", 20, 0.0),), seed=3
        )
        generate_corpus(cfg, out)
        corpus = load_corpus(out / "manifest.json")
        protos = load_feature_file(out / "prototypes.xpqf")
        gt = load_ground_truth(out / "ground_truth.json")
        ps = corpus.phoneme_set("solo")
        qm = aggregate_queries(corpus.by_language("solo"), ps)
        for i, phoneme in enumerate(ps.phonemes):
            expected = protos[gt[namespaced("solo", phoneme)]]
            np.testing.assert_allclose(qm.matrix[i], expected, rtol=1e-6, atol=1e-9)

        run_training(corpus, TrainConfig(seed=0), CodebookConfig(dim=16), out / "ckpt")
        last = (out / "ckpt" / "loss_log.tsv").read_text().splitlines()[-1]
        final_loss = float(last.split("\t")[2])
        print(f"zero-noise final training loss: {final_loss:.2e}")
        assert final_loss < 1e-3
