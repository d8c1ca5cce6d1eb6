import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import xpq.codebook
from xpq.codebook import (
    AttentionRecord,
    CodebookConfig,
    CodebookParams,
    attention_backward,
    forward,
    init_params,
    softmax_rows,
    xavier_bound,
)
from xpq.errors import NumericError
from xpq.gradcheck import CheckShape, check_codebook_gradients


def naive_softmax(x):
    # independent oracle: plain exp-normalize, no max subtraction
    e = np.exp(np.asarray(x, dtype=np.float64))
    return e / e.sum(axis=-1, keepdims=True)


class TestInit:
    def test_deterministic_under_seed(self):
        cfg = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=6)
        a, b = init_params(cfg, 42), init_params(cfg, 42)
        for x, y in ((a.w_q, b.w_q), (a.keys, b.keys), (a.codes, b.codes)):
            assert np.array_equal(x, y)

    def test_bounds(self):
        cfg = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=6)
        p = init_params(cfg, 0)
        assert np.abs(p.w_q).max() <= xavier_bound(6, 4)
        assert np.abs(p.keys).max() <= xavier_bound(8, 4)
        assert np.abs(p.codes).max() <= xavier_bound(8, 4)

    def test_heads_differ(self):
        cfg = CodebookConfig(n=8, heads=2, d_k=4, d_v=4, dim=6)
        p = init_params(cfg, 0)
        assert not np.array_equal(p.w_q[0], p.w_q[1])
        assert not np.array_equal(p.keys[0], p.keys[1])


class TestForward:
    def test_single_head_reference_values(self):
        # dim=1 with W_q=[[1]] makes the projected query equal the raw query
        cfg = CodebookConfig(n=2, heads=1, d_k=1, d_v=1, dim=1)
        params = CodebookParams(
            cfg,
            w_q=np.array([[[1.0]]]),
            keys=np.array([[[1.0], [-1.0]]]),
            codes=np.array([[[2.0], [0.0]]]),
        )
        emb, record = forward(params, np.array([[1.0]]))
        weights = record.weights
        logits = np.array([1.0, -1.0])
        np.testing.assert_allclose(weights[0, 0], naive_softmax(logits), rtol=1e-12)
        np.testing.assert_allclose(weights[0, 0], [0.88079708, 0.11920292], atol=1e-8)
        np.testing.assert_allclose(emb[0, 0], 1.76159416, atol=1e-8)

    def test_zero_query_uniform_attention_exact(self):
        cfg = CodebookConfig(n=16, heads=3, d_k=5, d_v=4, dim=7)
        params = init_params(cfg, 1, dtype=np.float64)
        q = np.zeros((2, 7))
        emb, record = forward(params, q)
        assert np.all(record.weights == 1.0 / cfg.n)
        # both zero rows get the identical neutral embedding
        assert np.array_equal(emb[0], emb[1])
        uniform = np.full((2, cfg.n), 1.0 / cfg.n)
        for h in range(cfg.heads):
            # same-shape matmul as the forward pass, so equality is bitwise
            expected = uniform @ params.codes[h]
            assert np.array_equal(emb[:, h * cfg.d_v : (h + 1) * cfg.d_v], expected)
            np.testing.assert_allclose(
                emb[0, h * cfg.d_v : (h + 1) * cfg.d_v], params.codes[h].mean(axis=0), rtol=1e-12
            )

    def test_rows_stochastic_random_inputs(self):
        cfg = CodebookConfig(n=11, heads=2, d_k=3, d_v=4, dim=5)
        params = init_params(cfg, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, record = forward(params, rng.standard_normal((6, 5)).astype(np.float32))
            weights = record.weights
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(weights >= 0.0) and np.all(weights <= 1.0)

    def test_permutation_equivariance_bitwise(self):
        cfg = CodebookConfig(n=13, heads=2, d_k=4, d_v=3, dim=6)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(1)
        q = rng.standard_normal((9, 6)).astype(np.float32)
        perm = rng.permutation(9)
        emb, rec = forward(params, q)
        emb_p, rec_p = forward(params, q[perm])
        assert np.array_equal(emb[perm], emb_p)
        assert np.array_equal(rec.weights[:, perm, :], rec_p.weights)

    def test_shape_mismatch_rejected(self):
        cfg = CodebookConfig(n=4, heads=1, d_k=2, d_v=2, dim=3)
        params = init_params(cfg, 0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)))

    def test_non_finite_inputs_raise_numeric(self):
        cfg = CodebookConfig(n=4, heads=1, d_k=2, d_v=2, dim=3)
        params = init_params(cfg, 0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            forward(params, np.full((1, 3), np.inf))

    def test_deterministic(self):
        cfg = CodebookConfig(n=6, heads=2, d_k=3, d_v=2, dim=4)
        params = init_params(cfg, 5)
        q = np.random.default_rng(2).standard_normal((3, 4)).astype(np.float32)
        e1, r1 = forward(params, q)
        e2, r2 = forward(params, q)
        assert e1.shape == (3, cfg.embed_dim) and r1.weights.shape == (2, 3, 6)
        assert np.array_equal(e1, e2) and np.array_equal(r1.weights, r2.weights)


class TestSoftmax:
    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-50, 50),
        ),
        st.floats(-30, 30),
    )
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(softmax_rows(x + c), softmax_rows(x), atol=5e-15)

    def test_shift_invariance_exact_for_exact_sums(self):
        x = np.array([[1.0, 2.0, -3.0]])
        assert np.array_equal(softmax_rows(x + 4.0), softmax_rows(x))

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-500, 500),
        )
    )
    def test_rows_sum_to_one(self, x):
        np.testing.assert_allclose(softmax_rows(x).sum(axis=-1), 1.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        np.testing.assert_allclose(softmax_rows(x), naive_softmax(x), rtol=1e-12)


def backward_through_forward(params, q, upstream):
    _, record = forward(params, q)
    return attention_backward(params, q, record, upstream)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cfg = CodebookConfig(n=5, heads=2, d_k=3, d_v=2, dim=4)
        params = init_params(cfg, 7, dtype=np.float64)
        q = np.random.default_rng(3).standard_normal((3, 4))
        grads = backward_through_forward(params, q, np.zeros((3, 4)))
        for g in (grads.w_q, grads.keys, grads.codes):
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference(self, seed):
        err = check_codebook_gradients(seed, CheckShape(3, 4, 5, 2, 3, 2))
        assert err < 1e-4

    def test_duplicated_row_contributes_additively(self):
        cfg = CodebookConfig(n=5, heads=2, d_k=3, d_v=2, dim=4)
        params = init_params(cfg, 11, dtype=np.float64)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        base = backward_through_forward(params, q, g)
        dup = backward_through_forward(params, np.vstack([q, q[:1]]), np.vstack([g, g[:1]]))
        single = backward_through_forward(params, q[:1], g[:1])
        for b, d, s in (
            (base.w_q, dup.w_q, single.w_q),
            (base.keys, dup.keys, single.keys),
            (base.codes, dup.codes, single.codes),
        ):
            np.testing.assert_allclose(d, b + s, rtol=1e-10, atol=1e-12)

    def test_upstream_shape_rejected(self):
        cfg = CodebookConfig(n=5, heads=1, d_k=3, d_v=2, dim=4)
        params = init_params(cfg, 0)
        with pytest.raises(ValueError):
            backward_through_forward(params, np.zeros((3, 4)), np.zeros((3, 7)))

    def test_weights_shape_rejected(self):
        cfg = CodebookConfig(n=5, heads=2, d_k=3, d_v=2, dim=4)
        params = init_params(cfg, 0)
        q = np.zeros((3, 4), dtype=np.float32)
        _, record = forward(params, q)
        short = AttentionRecord(record.weights[:, :2], record.projected)
        with pytest.raises(ValueError):
            attention_backward(params, q, short, np.zeros((3, 4), dtype=np.float32))


def test_codebook_imports_no_xpq_module_but_errors():
    """The attention module is a leaf: it reads plain arrays, so of xpq's
    own modules it imports only xpq.errors."""
    tree = ast.parse(Path(xpq.codebook.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("xpq." if node.level else "") + (node.module or "")
            found.update([module] if node.module else (module + a.name for a in node.names))
    assert {m for m in found if m.split(".")[0] == "xpq"} == {"xpq.errors"}
