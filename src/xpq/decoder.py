"""Linear frame reconstructor providing the training signal.

Every frame aligned to phoneme p is predicted as table.matrix[i] @ W + b,
where i is p's row in the table, so the prediction is constant within a
phoneme. The loss is the mean squared error over all covered frames and
dimensions; frames outside any segment are excluded from predictions and loss.
Gradients are exact and flow back into the embedding table (and from there
into the codebook attention).
The loss reads the frames (FrameBundle, in training) or, since a phoneme's
prediction is constant, only each row's frame count and mean and the frames'
scatter about their means (PhonemeStats, in adaptation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import EmbeddingTable, xavier_bound
from .datamodel import LanguagePhonemeSet, segment_arrays


@dataclass
class DecoderParams:
    w_d: np.ndarray  # (embed_dim, dim)
    b_d: np.ndarray  # (dim,)

    def copy(self) -> "DecoderParams":
        return DecoderParams(self.w_d.copy(), self.b_d.copy())


@dataclass
class DecoderGrads:
    w_d: np.ndarray
    b_d: np.ndarray


def init_decoder(embed_dim: int, dim: int, seed, dtype=np.float32) -> DecoderParams:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bound = xavier_bound(embed_dim, dim)
    w_d = rng.uniform(-bound, bound, (embed_dim, dim)).astype(dtype)
    return DecoderParams(w_d, np.zeros(dim, dtype=dtype))


@dataclass
class FrameBundle:
    """Covered frames of one or more utterances, flattened for the loss kernel.

    frames[i] is a frame inside some segment; rows[i] is the embedding-table
    row of that segment's phoneme. Order is utterance order, then segment
    order, then frame order, so reductions are deterministic.
    """

    frames: np.ndarray  # (N, dim)
    rows: np.ndarray  # (N,) int64

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def residual(self, preds: np.ndarray) -> tuple[float, np.ndarray]:
        """(sq, gsum) of kernels.frame_residual_stats for per-row preds (m, dim)."""
        return kernels.frame_residual_stats(self.frames, self.rows, preds)


@dataclass(frozen=True)
class PhonemeStats:
    """Covered frames as the loss reads them: counts[r] frames in table row r
    with mean means[r] (zero for a row without frames), and scatter, the sum
    of the frames' squared distances to their row's mean."""

    counts: np.ndarray  # (m,) int64
    means: np.ndarray  # (m, dim) float64
    scatter: float

    @property
    def n_frames(self) -> int:
        return int(self.counts.sum())

    def residual(self, preds: np.ndarray) -> tuple[float, np.ndarray]:
        """(sq, gsum) in float64: sq = scatter + sum_r n_r |preds[r] - means[r]|^2
        and gsum[r] = n_r (preds[r] - means[r])."""
        d = preds - self.means  # float32 preds widen exactly
        gsum = self.counts[:, None] * d
        return self.scatter + float(np.einsum("ij,ij->", gsum, d)), gsum


def build_frame_bundle(utterances, phoneme_set: LanguagePhonemeSet) -> FrameBundle:
    """Concatenate covered frames with their table-row indices.

    Rows follow phoneme_set's canonical order, which is an embedding table's
    row order. A loaded corpus keeps each utterance's bundle: Corpus.bundle.
    An utterance whose segments tile one frame range (each starts where the
    previous one ends) gives a read-only view of that range of its features;
    one with gaps gives its covered frames, gathered with one index array.
    A single utterance's frames are returned as they are, not concatenated.
    """
    chunks = []
    rows = []
    for utt in utterances:
        if not utt.alignment:
            continue
        starts, ends, seg_rows = segment_arrays(utt, phoneme_set)
        lengths = ends - starts
        if np.array_equal(starts[1:], ends[:-1]):
            frames = utt.features[starts[0] : ends[-1]]
            frames.flags.writeable = False
        else:
            # frame j of segment k sits at starts[k] + j: one arange, shifted per segment
            shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            frames = utt.features[np.arange(shift.shape[0]) + shift]
        chunks.append(frames)
        rows.append(np.repeat(seg_rows, lengths))
    if not chunks:
        raise ValueError("no covered frames: utterance list is empty or has no segments")
    if len(chunks) == 1:
        return FrameBundle(chunks[0], rows[0])
    return FrameBundle(np.concatenate(chunks, axis=0), np.concatenate(rows))


def phoneme_stats(bundles: list[FrameBundle], m: int) -> PhonemeStats:
    """PhonemeStats of the bundles' frames over m table rows, read in place.

    The kernel at zero predictions gives the sums, and at the means the
    scatter: a row of equal float32 frames has their value as its exact mean.
    """
    if not bundles:
        raise ValueError("no covered frames: utterance list is empty or has no segments")
    counts = sum(np.bincount(b.rows, minlength=m) for b in bundles)
    zeros = np.zeros((m, bundles[0].frames.shape[1]))
    sums = -sum(b.residual(zeros)[1] for b in bundles)
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
    return PhonemeStats(counts, means, sum(b.residual(means)[0] for b in bundles))


def loss_and_grads(
    decoder: DecoderParams,
    table: EmbeddingTable,
    data: FrameBundle | PhonemeStats,
    *,
    out: DecoderGrads | None = None,
    out_table: np.ndarray | None = None,
) -> tuple[float, DecoderGrads, np.ndarray]:
    """MSE over the covered frames in data plus exact gradients.

    Returns (loss, decoder grads, table-row gradient (m, embed_dim)); gradient
    arrays are in the table's dtype. The table-row gradient chains into the
    codebook backward pass. out and out_table, when given, receive the decoder
    and table-row gradients (arrays of their shapes and dtype, such as Adam's
    gradient views) and are returned.
    """
    if data.n_frames == 0:
        raise ValueError("loss over zero covered frames is undefined")
    per_row = table.matrix @ decoder.w_d + decoder.b_d  # (m, dim)
    sq, gsum = data.residual(per_row)
    denom = data.n_frames * per_row.shape[1]
    loss = sq / denom
    d_pred = ((2.0 / denom) * gsum).astype(table.matrix.dtype)  # (m, dim)
    if out is None:
        out = DecoderGrads(None, None)
    out.w_d = np.matmul(table.matrix.T, d_pred, out=out.w_d)
    out.b_d = np.add.reduce(d_pred, axis=0, out=out.b_d)
    d_table = np.matmul(d_pred, decoder.w_d.T, out=out_table)
    return float(loss), out, d_table
