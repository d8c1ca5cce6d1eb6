import numpy as np

from xpq import kernels


def _random_residual_inputs(seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((300, 6)).astype(dtype)
    rows = rng.integers(0, 5, size=300)
    preds = rng.standard_normal((5, 6)).astype(dtype)
    return frames, rows, preds


def test_deterministic():
    args = _random_residual_inputs(7)
    sq1, g1 = kernels.frame_residual_stats(*args)
    sq2, g2 = kernels.frame_residual_stats(*args)
    assert sq1 == sq2
    assert np.array_equal(g1, g2)


def test_exact_zero_on_perfect_match():
    preds = np.array([[1.5, -2.0], [0.25, 3.0]], dtype=np.float32)
    rows = np.array([0, 1, 1, 0], dtype=np.int64)
    frames = preds[rows]
    sq, gsum = kernels.frame_residual_stats(frames, rows, preds)
    assert sq == 0.0
    assert np.all(gsum == 0.0)


def test_pool_repeated_rows_accumulate():
    features = np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32)
    starts = np.array([0, 2], dtype=np.int64)
    ends = np.array([2, 4], dtype=np.int64)
    rows = np.array([0, 0], dtype=np.int64)
    sums, counts = kernels.segment_pool(features, starts, ends, rows, 2)
    assert counts.tolist() == [4, 0]
    assert sums[0, 0] == 10.0 and sums[1, 0] == 0.0
