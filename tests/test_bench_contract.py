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

import pytest

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
