"""Tests of the benchmark's own arithmetic: self time, tails, absent names, corpus digests."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Summary, Tracer, installed, self_times, tail  # noqa: E402


def span(i, parent, start, end, name="x"):
    return Span(i, parent, name, start, end, "r")


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),  # overlaps child 1: [1, 5] counts once
        span(3, 0, 8.0, 12.0),  # clipped at the parent's end
        span(4, 1, 1.5, 2.5),  # grandchild: only its parent loses this time
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_sums_self_time_by_name():
    tracer = Tracer("r")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    summary = Summary(tracer)
    outer = summary.spans("outer")[0]
    inner = summary.spans("inner")
    assert summary.calls("inner") == 2
    assert all(s.parent == outer.id for s in inner)
    covered = sum(s.duration for s in inner)
    assert summary.self_s("outer") == pytest.approx(outer.duration - covered)
    assert summary.s("outer") == pytest.approx(outer.duration)


def test_span_records_the_exception_class_and_reraises():
    tracer = Tracer("r")
    with pytest.raises(KeyError):
        with tracer.span("boom"):
            raise KeyError("k")
    assert Summary(tracer).errors("boom", "KeyError") == 1


def test_tail_needs_ten_calls_beyond_the_percentile():
    assert tail([1.0] * 19) == (0.0, 0.0)
    assert tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    value, pct = tail([float(i) for i in range(1, 2001)])
    assert pct == 99.0 and value == 1980.0


def test_ms_tail_is_absent_below_twenty_calls_and_zero_without_calls():
    tail_metric = next(m for m in layers.METRICS if m.name == "adaptation.adapt_task.ms_tail")
    tracer = Tracer("r")
    assert tail_metric.value(Summary(tracer), {}) == 0.0  # layer not reached
    for _ in range(19):
        with tracer.span("adaptation.adapt_task"):
            pass
    assert tail_metric.value(Summary(tracer), {}) is None
    with tracer.span("adaptation.adapt_task"):
        pass
    assert tail_metric.value(Summary(tracer), {}) > 0.0


def test_installed_wraps_every_holder_and_reports_absent_names():
    import xpq.optim
    import xpq.trainer

    original = xpq.optim.adam_step
    tracer = Tracer("r")
    targets = {"optim.scheduled_lr": None, "optim.adam_step": None,
               "optim.no_such_function": None, "no_such_module.f": None}
    with installed(tracer, targets) as absent:
        assert absent == {"optim.no_such_function", "no_such_module.f"}
        # trainer did `from .optim import adam_step`; its reference is wrapped too
        assert xpq.trainer.adam_step is xpq.optim.adam_step is not original
        xpq.optim.scheduled_lr(1, 1e-3, 10, 0.999)
    assert xpq.optim.adam_step is original and xpq.trainer.adam_step is original
    assert Summary(tracer).calls("optim.scheduled_lr") == 1


def test_failing_observer_marks_its_counters_absent_instead_of_raising():
    tracer = Tracer("r")
    wrapped = tracer.wrap("f", lambda x: x, observe=lambda a, kw, r: {"c": a[5]})
    assert wrapped(3) == 3
    assert tracer.broken == {"f"} and "c" not in tracer.counters


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    assert {w["name"] for w in spec["workloads"]} == set(layers.ALL)


def test_check_corpus_digests_every_file_and_names_missing_ones(tmp_path):
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / "feats").mkdir()
    (tmp_path / "feats" / "a.bin").write_bytes(b"x")
    problems, found = checks.check_corpus(tmp_path)
    assert problems == ["corpus files missing: ['ground_truth.json']"]
    assert sorted(found) == ["feats/a.bin", "manifest.json"]
