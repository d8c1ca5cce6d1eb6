"""Linear frame reconstructor providing the training signal.

Every frame aligned to phoneme p is predicted as table[i] @ W + b, where i
is p's row in the (m, embed_dim) embedding table, so the prediction is
constant within a phoneme. The loss is the mean squared error over all
covered frames and dimensions; frames outside any segment are excluded from
predictions and loss.
Gradients are exact and flow back into the embedding table (and from there
into the codebook attention).
Since a phoneme's prediction is constant, the loss reads only each row's frame
count and mean and the frames' scatter about their means (PhonemeStats):
training, validation and adaptation alike merge per-utterance statistics
(Corpus.stats). A frame bundle is built once per utterance, to pool its
means and measure its scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import xavier_bound


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
    """Covered frames of one utterance, in segment order, then frame order.

    frames[i] is a frame inside some segment; rows[i] is the embedding-table
    row of that segment's phoneme.
    """

    frames: np.ndarray  # (N, dim)
    rows: np.ndarray  # (N,) int64


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

    @classmethod
    def merge(cls, counts: np.ndarray, means: np.ndarray, scatter: np.ndarray) -> "PhonemeStats":
        """The statistics of G groups of frames over the same m rows, given as
        stacked counts (G, m), means (G, m, dim) and scatters (G,), by the
        centred update of Chan, Golub & LeVeque (1979): n = sum_g n_g,
        mean = sum_g n_g mean_g / n (0 where n = 0) and scatter =
        sum_g W_g + sum_g n_g |mean_g - mean|^2. Groups whose rows hold equal
        float32 frames give those rows their value as exact mean and add 0.0.
        """
        n = counts.sum(axis=0)
        total = np.add.reduce(counts[:, :, None] * means, axis=0)
        mean = np.divide(total, n[:, None], out=np.zeros_like(total), where=n[:, None] > 0)
        d = means - mean
        between = np.einsum("gr,grd,grd->", counts, d, d)
        return cls(n, mean, float(scatter.sum()) + float(between))


def build_frame_bundle(utterance) -> FrameBundle:
    """The utterance's covered frames with their table-row indices.

    Rows are the alignment's, in its phoneme set's canonical order, which is
    an embedding table's row order. An utterance whose segments tile one frame
    range (each starts where the previous one ends) gives a read-only view of
    that range of its features; one with gaps, or without segments, gives its
    covered frames, gathered with one index array.
    """
    starts, ends, seg_rows = utterance.alignment.T
    lengths = ends - starts
    if starts.size and np.array_equal(starts[1:], ends[:-1]):
        frames = utterance.features[starts[0] : ends[-1]]
        frames.flags.writeable = False
    else:
        # frame j of segment k sits at starts[k] + j: one arange, shifted per segment
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        frames = utterance.features[np.arange(shift.shape[0]) + shift]
    return FrameBundle(frames, np.repeat(seg_rows, lengths))


def loss_and_grads(
    decoder: DecoderParams,
    table: np.ndarray,
    data: PhonemeStats,
    *,
    out: DecoderGrads | None = None,
    out_table: np.ndarray | None = None,
) -> tuple[float, DecoderGrads, np.ndarray]:
    """MSE over the covered frames that data describes, plus exact gradients.

    Returns (loss, decoder grads, table-row gradient (m, embed_dim)); gradient
    arrays are in the table's dtype. The table-row gradient chains into the
    codebook backward pass. out and out_table, when given, receive the decoder
    and table-row gradients (arrays of their shapes and dtype, such as Adam's
    gradient views) and are returned.
    """
    if data.n_frames == 0:
        raise ValueError("loss over zero covered frames is undefined")
    per_row = table @ decoder.w_d + decoder.b_d  # (m, dim)
    sq, gsum = data.residual(per_row)
    denom = data.n_frames * per_row.shape[1]
    loss = sq / denom
    d_pred = ((2.0 / denom) * gsum).astype(table.dtype)  # (m, dim)
    if out is None:
        out = DecoderGrads(None, None)
    out.w_d = np.matmul(table.T, d_pred, out=out.w_d)
    out.b_d = np.add.reduce(d_pred, axis=0, out=out.b_d)
    d_table = np.matmul(d_pred, decoder.w_d.T, out=out_table)
    return float(loss), out, d_table
