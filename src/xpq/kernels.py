"""Hot frame-level kernels: segment pooling and reconstruction-residual accumulation.

Both read a frame bundle's (frames, rows) and accumulate per (row, column)
cell in float64 with one bincount, which adds each cell's values in frame
order, so both are deterministic for fixed inputs. Both run once per
utterance, when its language's Corpus.rep_stack is built: segment pooling
gives the phoneme means and the residual kernel, at those means, the
utterance's scatter. No loss reads frames.
"""

from __future__ import annotations

import numpy as np


def _row_sums(rows, values, n_rows):
    """float64 (n_rows, dim) sums of values' (N, dim) rows by table row."""
    dim = values.shape[1]
    # one flat cell index per (frame, column); bincount adds in frame order
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=values.ravel(), minlength=n_rows * dim)
    # bincount returns int64 zeros when there are no frames
    return sums.reshape(n_rows, dim).astype(np.float64, copy=False)


def segment_pool(frames, rows, n_rows):
    """Per-row frame sums and counts of a frame bundle's (frames, rows).

    Returns (sums, counts): float64 (n_rows, dim) and int64 (n_rows,). Each
    row's frames are added in bundle order: segment order, then frame order.
    """
    return _row_sums(rows, frames, n_rows), np.bincount(rows, minlength=n_rows)


def frame_residual_stats(frames, rows, preds):
    """Squared reconstruction error and its per-row residual sums.

    For each frame i with table row r = rows[i], accumulates
    d = preds[r] - frames[i] into sq += d.d and gsum[r] += d.
    Returns (sq, gsum) in float64. Exact zero when preds[rows] == frames.
    frames are read in place.
    """
    # casting before the gather casts each table row once, to the same values
    d = np.take(preds.astype(np.float64, copy=False), rows, axis=0)
    # the ufunc widens float32 frames to float64 exactly, element by element
    d -= frames
    return float(np.einsum("ij,ij->", d, d)), _row_sums(rows, d, preds.shape[0])
