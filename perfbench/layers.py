"""The layers the traced run wraps, and the per-layer metrics computed from them.

Each target is a public function named relative to the xpq package. A metric
lists the targets it reads; when one of them no longer exists the metric is
reported as absent. `EXPECTED` names the workloads on which a target must be
called at least once, or the traced run fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import CHECKPOINT_FILES

ALL = frozenset({"train", "pipeline"})
PIPELINE = frozenset({"pipeline"})

CLI_COMMANDS = ("gen-corpus", "validate", "train", "adapt", "map-phonemes")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tree_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _covered_frames(data) -> int:
    if hasattr(data, "n_frames"):
        return int(data.n_frames)
    return sum(seg.n_frames for utt in data for seg in utt.alignment)


def _observe_loss(args, kwargs, result):
    return {"decoder.frames": _covered_frames(_arg(args, kwargs, 2, "data"))}


def _observe_residual(args, kwargs, result):
    arrays = [_arg(args, kwargs, i, n) for i, n in enumerate(("frames", "rows", "preds"))]
    return {
        "kernels.frame_residual_stats.bytes": sum(a.nbytes for a in arrays) + result[1].nbytes
    }


def _observe_adam(args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    return {"optim.adam_step.elements": sum(p.size for p in params.values())}


def _observe_checkpoint(args, kwargs, result):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    return {"trainer.save_checkpoint.bytes": sum((out / f).stat().st_size for f in CHECKPOINT_FILES)}


def _observe_scores(args, kwargs, result):
    k = len(result.phonemes)
    return {"mapping.pairs": k * (k - 1) // 2}


def _observe_generate(args, kwargs, result):
    return {"synth.bytes_written": _tree_bytes(_arg(args, kwargs, 1, "out_dir"))}


def _observe_load(args, kwargs, result):
    m = result.manifest
    files = [m.root / "manifest.json"]
    files += [m.root / p for e in m.entries for p in (e.feature_path, e.alignment_path)]
    return {"datamodel.bytes_read": sum(f.stat().st_size for f in files)}


# target -> (observer, workloads that must call it)
TARGETS: dict[str, tuple[Callable | None, frozenset]] = {
    "queries.aggregate_from_matrices": (None, ALL),
    "queries.aggregate_queries": (None, PIPELINE),
    "queries.phoneme_rep_matrix": (None, ALL),
    "codebook.forward": (None, ALL),
    "codebook.attention_backward": (None, ALL),
    "decoder.loss_and_grads": (_observe_loss, ALL),
    "decoder.build_frame_bundle": (None, ALL),
    "kernels.frame_residual_stats": (_observe_residual, ALL),
    "kernels.segment_pool": (None, ALL),
    "optim.adam_step": (_observe_adam, ALL),
    "trainer.train_step": (None, ALL),
    "trainer.sample_language_batch": (None, ALL),
    "trainer.split_with_coverage": (None, ALL),
    "trainer.save_checkpoint": (_observe_checkpoint, ALL),
    "adaptation.adapt_task": (None, PIPELINE),
    "adaptation.finetune": (None, PIPELINE),
    "adaptation.evaluate": (None, PIPELINE),
    "adaptation.sample_task": (None, PIPELINE),
    "adaptation.init_embedding": (None, PIPELINE),
    "mapping.build_score_table": (_observe_scores, PIPELINE),
    "mapping.covering_sentences": (None, PIPELINE),
    "synth.generate_corpus": (_observe_generate, PIPELINE),
    "datamodel.load_corpus": (_observe_load, ALL),
    "datamodel.validate_corpus": (None, PIPELINE),
}

# Set-up is traced at the corpus layers, the only ones it reaches (train's
# corpus is written by a `gen-corpus` process, so only its load is seen).
SETUP_TARGETS = ("synth.generate_corpus", "datamodel.load_corpus")

EXPECTED = {name: workloads for name, (_, workloads) in TARGETS.items()}
EXPECTED.update({f"cli.{c}": PIPELINE for c in CLI_COMMANDS})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    value: Callable  # (Summary, extras dict) -> float, or None when absent
    needs: tuple[str, ...] = ()  # targets read; absent if any is gone
    counted: bool = False  # read from an observer; absent if it failed


_SPAN_UNITS = {"calls": "count", "self_s": "s", "s": "s", "ms_p50": "ms", "ms_tail": "ms"}


def _span_value(target: str, kind: str, summary, extras) -> float | None:
    """The Summary figure; a tail is None (absent) when 1-19 calls give no percentile."""
    value = getattr(summary, kind)(target)
    if kind != "ms_tail":
        return value
    ms, pct = value
    return ms if pct or not summary.calls(target) else None


def _span_metrics(target: str, kinds: str) -> list[Metric]:
    """`target.kind` for each kind, read from the Summary method of that name."""
    needs = (target,) if target in TARGETS else ()
    return [
        Metric(f"{target}.{kind}", _SPAN_UNITS[kind], "lower",
               functools.partial(_span_value, target, kind), needs)
        for kind in kinds.split()
    ]


def _counter(name: str, unit: str, target: str) -> Metric:
    return Metric(name, unit, "lower", lambda s, x: s.counters.get(name, 0), (target,), True)


def _extra(name: str, unit: str) -> Metric:
    return Metric(name, unit, "lower", lambda s, x: x[name])


def _split_yield(s, x) -> float:
    attempts = s.calls("trainer.split_with_coverage")
    steps = s.calls("trainer.train_step") - s.errors("trainer.train_step", "CoverageError")
    return steps / attempts if attempts else 0.0


METRICS: list[Metric] = [
    *_span_metrics("queries.aggregate_from_matrices", "calls self_s ms_p50 ms_tail"),
    *_span_metrics("queries.aggregate_queries", "self_s"),
    *_span_metrics("queries.phoneme_rep_matrix", "self_s"),
    *_span_metrics("codebook.forward", "calls self_s ms_p50 ms_tail"),
    *_span_metrics("codebook.attention_backward", "calls self_s ms_p50 ms_tail"),
    *_span_metrics("decoder.loss_and_grads", "calls self_s ms_p50 ms_tail"),
    _counter("decoder.frames", "frames", "decoder.loss_and_grads"),
    *_span_metrics("decoder.build_frame_bundle", "calls self_s"),
    *_span_metrics("kernels.frame_residual_stats", "calls self_s ms_p50 ms_tail"),
    _counter("kernels.frame_residual_stats.bytes", "B-computed", "kernels.frame_residual_stats"),
    *_span_metrics("kernels.segment_pool", "calls self_s"),
    *_span_metrics("optim.adam_step", "calls self_s ms_p50"),
    _counter("optim.adam_step.elements", "elements", "optim.adam_step"),
    *_span_metrics("trainer.train_step", "ms_p50 ms_tail"),
    *_span_metrics("trainer.sample_language_batch", "self_s"),
    *_span_metrics("trainer.split_with_coverage", "calls self_s"),
    Metric(
        "trainer.coverage_retries",
        "count",
        "lower",
        lambda s, x: s.errors("trainer.split_with_coverage", "CoverageError"),
        ("trainer.split_with_coverage",),
    ),
    Metric(
        "trainer.split_yield",
        "steps/attempt",
        "higher",
        _split_yield,
        ("trainer.split_with_coverage", "trainer.train_step"),
    ),
    *_span_metrics("trainer.save_checkpoint", "s"),
    _counter("trainer.save_checkpoint.bytes", "B", "trainer.save_checkpoint"),
    *_span_metrics("adaptation.adapt_task", "calls ms_p50 ms_tail"),
    *_span_metrics("adaptation.finetune", "s"),
    *_span_metrics("adaptation.evaluate", "calls s"),
    *_span_metrics("adaptation.sample_task", "self_s"),
    *_span_metrics("adaptation.init_embedding", "self_s"),
    *_span_metrics("mapping.build_score_table", "s"),
    *_span_metrics("mapping.covering_sentences", "self_s"),
    _counter("mapping.pairs", "count", "mapping.build_score_table"),
    *_span_metrics("synth.generate_corpus", "s"),
    _counter("synth.bytes_written", "B", "synth.generate_corpus"),
    *_span_metrics("datamodel.load_corpus", "s"),
    _counter("datamodel.bytes_read", "B-computed", "datamodel.load_corpus"),
    *_span_metrics("datamodel.validate_corpus", "s"),
    _extra("cli.startup_s", "s"),
    *[m for c in CLI_COMMANDS for m in _span_metrics(f"cli.{c}", "s")],
    _extra("trace.overhead_s", "s"),
]

# ms_tail metrics also print the percentile they report and the call count.
TAILED = [m.name[: -len(".ms_tail")] for m in METRICS if m.name.endswith(".ms_tail")]
