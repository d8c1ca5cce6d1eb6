import numpy as np
import pytest

from xpq import gradcheck
from xpq.codebook import attention_backward
from xpq.gradcheck import (
    DEFAULT_SHAPES,
    CheckShape,
    central_difference,
    max_rel_err,
    run_suites,
)


def test_central_difference_on_quadratic():
    x = np.array([1.0, -2.0, 0.5])

    def f():
        return float((x**2).sum())

    np.testing.assert_allclose(central_difference(f, x), 2 * x, atol=1e-9)
    assert np.array_equal(x, [1.0, -2.0, 0.5])  # restored after perturbation


def test_max_rel_err():
    a = np.array([1.0, 2.0])
    assert max_rel_err(a, a) == 0.0
    assert max_rel_err(a, np.array([1.0, 2.2])) == pytest.approx(0.2 / 2.2)
    # tiny absolute noise on near-zero entries stays under the floor
    assert max_rel_err(np.array([1e-12]), np.array([0.0])) < 1e-4


def test_default_shapes_cover_multiple_configurations():
    assert len(DEFAULT_SHAPES) >= 3
    assert len({(s.m, s.n, s.dim, s.heads) for s in DEFAULT_SHAPES}) == len(DEFAULT_SHAPES)


def test_run_suites_small():
    results, elapsed = run_suites(base_seed=0, n_seeds=2, shapes=(CheckShape(),))
    assert len(results) == 6  # 3 suites x 2 seeds
    assert all(r.passed for r in results), [str(r) for r in results]
    assert elapsed < 60


def test_suite_result_formatting():
    results, _ = run_suites(base_seed=1, n_seeds=1, shapes=(CheckShape(2, 3, 2, 1, 2, 2, 5),))
    line = str(results[0])
    assert "PASS" in line and "max_rel_err" in line


def test_nan_gradient_fails_the_suite(monkeypatch):
    """A NaN analytic gradient is reported as max_rel_err=nan and fails."""
    a = np.ones(3)
    assert np.isnan(gradcheck._worst(lambda: float(a.sum()), [(np.full(3, np.nan), a)]))

    def nan_backward(*args, **kwargs):
        grads = attention_backward(*args, **kwargs)
        grads.w_q.flat[0] = np.nan
        return grads

    monkeypatch.setattr(gradcheck, "attention_backward", nan_backward)
    results, _ = run_suites(base_seed=0, n_seeds=1, shapes=(CheckShape(),))
    failed = [r for r in results if not r.passed]
    assert [r.suite for r in failed] == ["codebook", "train-objective"]
    assert all(str(r).endswith("max_rel_err=nan FAIL") for r in failed)
