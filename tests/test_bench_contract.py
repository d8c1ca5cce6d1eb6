"""The program still offers what the benchmark's tracer wraps and observes.

perfbench/ wraps each `layers.TARGETS` function and its observers read
arguments by position, or by name when passed as keywords. A target that is
gone or an argument that moved leaves a per-layer metric absent, and the
traced run's result is then malformed. perfbench/ is only imported here,
never written (no bytecode is cached there).
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

# called through their modules, as perfbench's workloads call them, so the
# tracer's wrappers see the calls
import xpq.adaptation
import xpq.datamodel
import xpq.mapping
import xpq.synth
import xpq.trainer
from conftest import SMALL_SYNTH
from xpq.codebook import CodebookConfig, init_params
from xpq.decoder import init_decoder

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# target -> the arguments its observer reads, in their positions
OBSERVED = {
    "kernels.frame_residual_stats": ("frames", "rows", "preds"),
    "decoder.loss_and_grads": (None, None, "data"),
    "optim.adam_step": (None, "params"),
    "trainer.save_checkpoint": (None, "out_dir"),
    "synth.generate_corpus": (None, "out_dir"),
}


@pytest.fixture(scope="module")
def perfbench():
    """(layers, tracing) imported from perfbench/ without writing to it."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("layers"), importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_every_traced_target_resolves(perfbench):
    layers, tracing = perfbench
    missing = [name for name in layers.TARGETS if tracing.resolve(name) is None]
    assert not missing


@pytest.mark.parametrize("target", sorted(OBSERVED))
def test_observed_arguments_keep_position_and_name(perfbench, target):
    layers, tracing = perfbench
    assert layers.TARGETS[target][0] is not None, f"{target} is no longer observed"
    params = list(inspect.signature(tracing.resolve(target)).parameters)
    for position, name in enumerate(OBSERVED[target]):
        if name is not None:
            assert params[position] == name, (target, position, params)


def test_residual_kernel_takes_its_constants_by_keyword_only(perfbench):
    """The observer reads frame_residual_stats' first three arguments by
    position; a parameter added after them must be keyword-only, so no call
    can shift what sits at those positions."""
    _, tracing = perfbench
    kernel = tracing.resolve("kernels.frame_residual_stats")
    params = list(inspect.signature(kernel).parameters.values())
    after = params[[p.name for p in params].index("preds") + 1 :]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in after), after


def test_loaded_corpus_names_the_files_the_load_observer_reads(perfbench, small_corpus_dir):
    """The load observer reads load_corpus's result: the manifest at
    `.manifest.root / "manifest.json"` and each entry's feature and alignment
    file under that root, whose sizes it sums."""
    layers, _ = perfbench
    manifest = xpq.datamodel.load_corpus(small_corpus_dir / "manifest.json").manifest
    root = manifest.root.resolve()
    files = [manifest.root / "manifest.json"]
    files += [
        manifest.root / p for e in manifest.entries for p in (e.feature_path, e.alignment_path)
    ]
    assert len(files) == 1 + 2 * len(manifest.entries) > 1
    assert all(f.is_file() and f.resolve().is_relative_to(root) for f in files)
    observe = layers.TARGETS["datamodel.load_corpus"][0]
    read = observe((), {}, xpq.datamodel.load_corpus(manifest))
    assert read == {"datamodel.bytes_read": sum(f.stat().st_size for f in files)}


def test_loss_observer_counts_the_covered_frames_of_corpus_stats(perfbench, small_corpus):
    """decoder.frames counts the covered frames of the statistics every loss
    reads: for corpus.stats(group), the group's summed segment lengths,
    passed by position and by keyword."""
    layers, _ = perfbench
    observe = layers.TARGETS["decoder.loss_and_grads"][0]
    task = xpq.adaptation.sample_task(small_corpus, xpq.adaptation.TaskSpec("T0", k=4, q=4))
    stats = small_corpus.stats(task.shots)
    lengths = [u.alignment[:, 1] - u.alignment[:, 0] for u in task.shots]
    frames = {"decoder.frames": sum(int(n.sum()) for n in lengths)}
    assert observe((None, None, stats), {}, None) == frames
    assert observe((), {"data": stats}, None) == frames


def _traced(perfbench, run):
    """The tracer after run() under every TARGETS wrapper, as perfbench installs them."""
    layers, tracing = perfbench
    tracer = tracing.Tracer("tier1")
    targets = {name: observe for name, (observe, _) in layers.TARGETS.items()}
    with tracing.installed(tracer, targets) as absent:
        run()
    assert not absent
    assert not tracer.broken
    return tracing.Summary(tracer)


def _assert_called(perfbench, summary, names):
    layers, _ = perfbench
    calls = {name: summary.calls(name) for name in names}
    assert all(calls.values()), calls
    tailed = {name: calls[name] for name in layers.TAILED if name in calls}
    assert all(n >= 20 for n in tailed.values()), tailed


SMALL_CB = CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=SMALL_SYNTH.dim)


def test_train_reaches_every_train_target(perfbench, small_corpus_dir, tmp_path):
    """A target inlined away, or called less often than its tail needs, would
    leave the benchmark's traced `train` result without its metrics."""
    layers, _ = perfbench
    config = xpq.trainer.TrainConfig(total_steps=25, warmup_steps=5, seed=4)

    def run():
        corpus = xpq.datamodel.load_corpus(small_corpus_dir / "manifest.json")
        xpq.trainer.run_training(corpus, config, SMALL_CB, tmp_path / "ckpt")

    summary = _traced(perfbench, run)
    wanted = [name for name in layers.TARGETS if "train" in layers.EXPECTED[name]]
    _assert_called(perfbench, summary, wanted)


STACK_TARGETS = (
    "decoder.build_frame_bundle",
    "kernels.frame_residual_stats",
    "kernels.segment_pool",
)


def test_frame_kernels_run_once_per_utterance_however_long_training_runs(
    perfbench, small_corpus_dir, tmp_path
):
    """Training reads frames only while a language's rep stack is built: each
    frame target runs exactly once per utterance of the languages whose stack
    the run built, and 25 and 50 steps make the same calls. A stack rebuilt
    on every step, a second bundle per utterance, or a call bound before the
    tracer wrapped its target (so it goes uncounted) fails."""
    calls = {}
    for steps in (25, 50):
        config = xpq.trainer.TrainConfig(total_steps=steps, warmup_steps=5, seed=4)
        corpus = xpq.datamodel.load_corpus(small_corpus_dir / "manifest.json")

        def run():
            xpq.trainer.run_training(corpus, config, SMALL_CB, tmp_path / f"ckpt{steps}")

        summary = _traced(perfbench, run)
        calls[steps] = {name: summary.calls(name) for name in STACK_TARGETS}
        built = corpus._rep_stacks  # the languages whose stack the run built
        n_utterances = sum(len(corpus.by_language(language)) for language in built)
        assert n_utterances and calls[steps] == dict.fromkeys(STACK_TARGETS, n_utterances)
    assert calls[25] == calls[50]


def test_pipeline_reaches_every_pipeline_only_target(perfbench, tmp_path):
    """The same for the targets only the `pipeline` workload must reach."""
    layers, _ = perfbench

    def run():
        manifest, _ = xpq.synth.generate_corpus(SMALL_SYNTH, tmp_path / "corpus")
        assert xpq.datamodel.validate_corpus(manifest).ok
        corpus = xpq.datamodel.load_corpus(tmp_path / "corpus" / "manifest.json")
        params = init_params(SMALL_CB, 0)
        decoder = init_decoder(SMALL_CB.embed_dim, SMALL_CB.dim, 1)
        config = xpq.adaptation.AdaptConfig(finetune_steps=4, eval_checkpoints=(0, 4))
        xpq.adaptation.run_experiment(corpus, params, decoder, "T0", [2], 10, config, q=4)
        xpq.mapping.build_score_table(corpus, params, 4, np.random.default_rng(0))

    summary = _traced(perfbench, run)
    wanted = [
        name for name in layers.TARGETS if layers.EXPECTED[name] == frozenset({"pipeline"})
    ]
    _assert_called(perfbench, summary, wanted)
