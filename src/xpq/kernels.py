"""Hot frame-level kernels: segment pooling and reconstruction-residual accumulation.

Two interchangeable implementations: numba @njit (default when numba is
installed) and pure numpy. Select with XPQ_BACKEND=numba|numpy or
set_backend(). Both paths accumulate in float64 and are deterministic for
fixed inputs. Both add each frame's residual into its gsum cell in frame
order. numpy reduces segment_pool's per-segment sums and the residual's sq in
another order than numba's loops, so those may differ in the last few ulps.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False


def _segment_pool_numpy(features, starts, ends, rows, n_rows):
    dim = features.shape[1]
    sums = np.zeros((n_rows, dim), dtype=np.float64)
    counts = np.zeros(n_rows, dtype=np.int64)
    for k in range(starts.shape[0]):
        r = rows[k]
        sums[r] += features[starts[k] : ends[k]].sum(axis=0, dtype=np.float64)
        counts[r] += ends[k] - starts[k]
    return sums, counts


def _frame_residual_numpy(frames, rows, preds):
    d = preds[rows].astype(np.float64) - frames.astype(np.float64)
    m, dim = preds.shape
    # one flat cell index per (frame, column); bincount adds in frame order
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    gsum = np.bincount(cells, weights=d.ravel(), minlength=m * dim).reshape(m, dim)
    # bincount returns int64 zeros when there are no frames
    gsum = gsum.astype(np.float64, copy=False)
    return float(np.einsum("ij,ij->", d, d)), gsum


if HAS_NUMBA:

    @njit(cache=True, nogil=True)
    def _segment_pool_numba(features, starts, ends, rows, n_rows):
        dim = features.shape[1]
        sums = np.zeros((n_rows, dim), dtype=np.float64)
        counts = np.zeros(n_rows, dtype=np.int64)
        for k in range(starts.shape[0]):
            r = rows[k]
            for t in range(starts[k], ends[k]):
                for j in range(dim):
                    sums[r, j] += features[t, j]
                counts[r] += 1
        return sums, counts

    @njit(cache=True, nogil=True)
    def _frame_residual_numba(frames, rows, preds):
        n, dim = frames.shape
        gsum = np.zeros(preds.shape, dtype=np.float64)
        sq = 0.0
        for i in range(n):
            r = rows[i]
            for j in range(dim):
                d = np.float64(preds[r, j]) - np.float64(frames[i, j])
                sq += d * d
                gsum[r, j] += d
        return sq, gsum


_IMPLS = {"numpy": (_segment_pool_numpy, _frame_residual_numpy)}
if HAS_NUMBA:
    _IMPLS["numba"] = (_segment_pool_numba, _frame_residual_numba)


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_IMPLS))


def set_backend(name: str) -> None:
    global _backend
    if name not in ("numpy", "numba"):
        raise ConfigError(f"unknown kernel backend {name!r} (choose numpy or numba)")
    if name not in _IMPLS:
        raise ConfigError("backend 'numba' requested but numba is not installed")
    _backend = name


def get_backend() -> str:
    return _backend


def _default_backend() -> str:
    env = os.environ.get("XPQ_BACKEND")
    if env:
        if env not in ("numpy", "numba"):
            raise ConfigError(f"XPQ_BACKEND={env!r} is not a valid backend")
        if env == "numba" and not HAS_NUMBA:
            raise ConfigError("XPQ_BACKEND=numba but numba is not installed")
        return env
    return "numba" if HAS_NUMBA else "numpy"


_backend = _default_backend()


def segment_pool(features, starts, ends, rows, n_rows):
    """Per-row frame sums and counts over [start, end) segments.

    Returns (sums, counts): float64 (n_rows, dim) and int64 (n_rows,).
    Rows may repeat; repeated rows pool all their segments' frames.
    """
    return _IMPLS[_backend][0](features, starts, ends, rows, n_rows)


def frame_residual_stats(frames, rows, preds):
    """Squared reconstruction error and its per-row residual sums.

    For each frame i with table row r = rows[i], accumulates
    d = preds[r] - frames[i] into sq += d.d and gsum[r] += d.
    Returns (sq, gsum) in float64. Exact zero when preds[rows] == frames.
    """
    return _IMPLS[_backend][1](frames, rows, preds)
