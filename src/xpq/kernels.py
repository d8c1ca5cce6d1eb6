"""Hot frame-level kernels: segment pooling and reconstruction-residual accumulation.

Both accumulate in float64 and are deterministic for fixed inputs. The
residual kernel adds each frame's residual into its gsum cell in frame order.
Both run once per utterance, when its language's Corpus.rep_stack is built:
segment pooling gives the phoneme means and the residual kernel, at those
means, the utterance's scatter. No loss reads frames.
"""

from __future__ import annotations

import numpy as np


def segment_pool(features, starts, ends, rows, n_rows):
    """Per-row frame sums and counts over [start, end) segments.

    Returns (sums, counts): float64 (n_rows, dim) and int64 (n_rows,).
    Rows may repeat; repeated rows pool all their segments' frames. Each
    segment's frames are summed in frame order, then the segment sums are
    added into their rows in segment order.
    """
    dim = features.shape[1]
    lengths = ends - starts
    # all segments at once, each zero-padded to the longest: a sum over the
    # padded frame axis adds frame by frame when dim > 1 (with dim == 1 numpy
    # would sum pairwise), and the padding's +0.0 changes no row's total. When
    # padding would more than double the frames read (one long segment among
    # short ones), the loop is the cheaper way.
    if dim == 1 or not lengths.shape[0] or lengths.shape[0] * lengths.max() > 2 * lengths.sum():
        return _segment_pool_loop(features, starts, ends, rows, n_rows)
    offsets = np.arange(lengths.max())
    frame = starts[:, None] + offsets
    padded = features[np.minimum(frame, features.shape[0] - 1)].astype(np.float64)
    padded[offsets >= lengths[:, None]] = 0.0
    partial = padded.sum(axis=1)
    sums = np.bincount(
        _cells(rows, dim), weights=partial.ravel(), minlength=n_rows * dim
    ).reshape(n_rows, dim)
    counts = np.bincount(rows, weights=lengths, minlength=n_rows).astype(np.int64)
    return sums, counts


def _segment_pool_loop(features, starts, ends, rows, n_rows):
    dim = features.shape[1]
    sums = np.zeros((n_rows, dim), dtype=np.float64)
    counts = np.zeros(n_rows, dtype=np.int64)
    for k in range(starts.shape[0]):
        r = rows[k]
        sums[r] += features[starts[k] : ends[k]].sum(axis=0, dtype=np.float64)
        counts[r] += ends[k] - starts[k]
    return sums, counts


def _cells(rows, dim):
    # one flat cell index per (frame, column); bincount adds in frame order
    return (rows[:, None] * dim + np.arange(dim)).ravel()


def frame_residual_stats(frames, rows, preds):
    """Squared reconstruction error and its per-row residual sums.

    For each frame i with table row r = rows[i], accumulates
    d = preds[r] - frames[i] into sq += d.d and gsum[r] += d.
    Returns (sq, gsum) in float64. Exact zero when preds[rows] == frames.
    frames are read in place.
    """
    m, dim = preds.shape
    # casting before the gather casts each table row once, to the same values
    d = np.take(preds.astype(np.float64, copy=False), rows, axis=0)
    # the ufunc widens float32 frames to float64 exactly, element by element
    d -= frames
    gsum = np.bincount(_cells(rows, dim), weights=d.ravel(), minlength=m * dim).reshape(m, dim)
    # bincount returns int64 zeros when there are no frames
    gsum = gsum.astype(np.float64, copy=False)
    return float(np.einsum("ij,ij->", d, d)), gsum
