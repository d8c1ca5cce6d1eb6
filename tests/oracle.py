"""Reference implementations that the production code must match.

Each function is the straightforward version the production code replaced:
per-head attention that recomputes the softmax in its backward pass, the
residual scatter through np.add.at, query aggregation by masked adds,
frame-by-frame loops for segment pooling and the loss residual, the segment
pool that sums each segment (zero-padded, or in a loop) before its row, the
frame bundle builder that gathers a copy of every utterance's covered frames
and concatenates them, the loss that scores every covered frame of such a bundle
through the residual kernel, the per-pair mapping score, Adam updating one
tensor at a time with per-tensor moments and temporaries, fine-tuning (on
that Adam) and evaluation that score every frame of the bundles they gather
from the utterances, the training split, the few-shot task sampler and the
mapping cover testing coverage on symbol sets, and the alignment parser
building frozen-dataclass segments that check their own range.
test_oracle.py states each pair's contract: bitwise, exact or a named
tolerance. Tests only; nothing in src/ imports this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xpq import kernels
from xpq.adaptation import FewShotTask, FinetunePoint, TaskSpec
from xpq.codebook import CodebookGrads, CodebookParams
from xpq.datamodel import Corpus, LanguagePhonemeSet, Utterance
from xpq.decoder import DecoderGrads, FrameBundle
from xpq.errors import (
    CoverageError,
    NumericError,
    TaskError,
    UndefinedScoreError,
    ValidationError,
    VocabularyError,
)
from xpq.queries import QueryMatrix


def softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: CodebookParams, queries: np.ndarray):
    cfg = params.config
    q = np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != cfg.dim:
        raise ValueError(f"queries must be (m, {cfg.dim}), got {q.shape}")
    m = q.shape[0]
    scale = 1.0 / math.sqrt(cfg.d_k)
    out_dtype = np.result_type(q.dtype, params.w_q.dtype)
    weights = np.empty((cfg.heads, m, cfg.n), dtype=out_dtype)
    embedding = np.empty((m, cfg.embed_dim), dtype=out_dtype)
    for h in range(cfg.heads):
        projected = q @ params.w_q[h]
        logits = (projected @ params.keys[h].T) * scale
        w = softmax_rows(logits)
        weights[h] = w
        embedding[:, h * cfg.d_v : (h + 1) * cfg.d_v] = w @ params.codes[h]
    if not np.all(np.isfinite(embedding)) or not np.all(np.isfinite(weights)):
        raise NumericError("non-finite values in attention forward")
    return embedding, weights


def attention_backward(params: CodebookParams, queries: np.ndarray, upstream: np.ndarray):
    cfg = params.config
    q = np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != cfg.dim:
        raise ValueError(f"queries must be (m, {cfg.dim}), got {q.shape}")
    if upstream.shape != (q.shape[0], cfg.embed_dim):
        raise ValueError(
            f"upstream must be {(q.shape[0], cfg.embed_dim)}, got {upstream.shape}"
        )
    scale = 1.0 / math.sqrt(cfg.d_k)
    d_wq = np.zeros_like(params.w_q)
    d_keys = np.zeros_like(params.keys)
    d_codes = np.zeros_like(params.codes)
    for h in range(cfg.heads):
        projected = q @ params.w_q[h]
        logits = (projected @ params.keys[h].T) * scale
        w = softmax_rows(logits)
        g_out = upstream[:, h * cfg.d_v : (h + 1) * cfg.d_v]
        d_codes[h] = w.T @ g_out
        d_w = g_out @ params.codes[h].T
        # softmax Jacobian: dL/dz = w * (dL/dw - sum_j dL/dw_j * w_j)
        d_logits = w * (d_w - (d_w * w).sum(axis=1, keepdims=True))
        d_scores = d_logits * scale
        d_proj = d_scores @ params.keys[h]
        d_keys[h] = d_scores.T @ projected
        d_wq[h] = q.T @ d_proj
    return CodebookGrads(d_wq, d_keys, d_codes)


def frame_residual_stats(frames, rows, preds):
    d = preds[rows].astype(np.float64) - frames.astype(np.float64)
    gsum = np.zeros(preds.shape, dtype=np.float64)
    np.add.at(gsum, rows, d)
    return float(np.einsum("ij,ij->", d, d)), gsum


def aggregate_from_matrices(rep_counts, dtype) -> QueryMatrix:
    m, dim = rep_counts[0][0].shape
    acc = np.zeros((m, dim), dtype=np.float64)
    n_utt = np.zeros(m, dtype=np.int64)
    for reps, counts in rep_counts:
        mask = counts > 0
        acc[mask] += reps[mask]
        n_utt[mask] += 1
    present = n_utt > 0
    matrix = np.zeros((m, dim), dtype=np.float64)
    matrix[present] = acc[present] / n_utt[present, None]
    return QueryMatrix(matrix.astype(dtype), present)


def segment_pool_by_segment(features, starts, ends, rows, n_rows):
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


def segment_pool_loop(features, starts, ends, rows, n_rows):
    """segment_pool adding one frame value at a time, in frame order."""
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


def frame_residual_loop(frames, rows, preds):
    """frame_residual_stats accumulating one frame value at a time."""
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


def mapping_score(record_p: np.ndarray, record_q: np.ndarray) -> float:
    """Head-averaged cosine similarity between two phonemes' attention rows.

    Inputs are (heads, n) weight matrices from the same model. Attention rows
    are nonnegative, so valid inputs score in [0, 1].
    """
    a = np.asarray(record_p, dtype=np.float64)
    b = np.asarray(record_q, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"attention records must share shape (heads, n): {a.shape} vs {b.shape}")
    cosines = []
    for h in range(a.shape[0]):
        na, nb = np.linalg.norm(a[h]), np.linalg.norm(b[h])
        if na == 0.0 or nb == 0.0:
            raise UndefinedScoreError("cosine of a zero-norm attention row is undefined")
        cosines.append(float(a[h] @ b[h] / (na * nb)))
    return float(np.clip(np.mean(cosines), -1.0, 1.0))


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
) -> None:
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.dtype)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def build_frame_bundle(utterances) -> FrameBundle:
    """decoder.build_frame_bundle of several utterances: each one's covered
    frames gathered with one index array, gaps or none, and all of them
    concatenated in order, as the loss group's bundle once was."""
    chunks = []
    rows = []
    for utt in utterances:
        if not len(utt.alignment):
            continue
        starts, ends, seg_rows = utt.alignment.T
        lengths = ends - starts
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        chunks.append(utt.features[np.arange(shift.shape[0]) + shift])
        rows.append(np.repeat(seg_rows, lengths))
    if not chunks:
        raise ValueError("no covered frames: utterance list is empty or has no segments")
    return FrameBundle(np.concatenate(chunks, axis=0), np.concatenate(rows))


def loss_and_grads(decoder, table, bundle: FrameBundle):
    """decoder.loss_and_grads scoring every covered frame of the bundle with
    kernels.frame_residual_stats, as training did before it read statistics."""
    n_frames = bundle.frames.shape[0]
    if n_frames == 0:
        raise ValueError("loss over zero covered frames is undefined")
    per_row = table @ decoder.w_d + decoder.b_d  # (m, dim)
    sq, gsum = kernels.frame_residual_stats(bundle.frames, bundle.rows, per_row)
    denom = n_frames * per_row.shape[1]
    d_pred = ((2.0 / denom) * gsum).astype(table.dtype)
    grads = DecoderGrads(table.T @ d_pred, np.add.reduce(d_pred, axis=0))
    return float(sq / denom), grads, d_pred @ decoder.w_d.T


def finetune(table, decoder, shots, config) -> list[FinetunePoint]:
    """adaptation.finetune gathering the shots' frame bundle itself, on the
    per-tensor Adam and the kernel's default path."""
    table = table.copy()
    decoder = decoder.copy()
    bundle = build_frame_bundle(shots)
    params = {"table": table, "w_d": decoder.w_d, "b_d": decoder.b_d}
    opt = init_adam(params)
    wanted = set(config.eval_checkpoints)
    points: list[FinetunePoint] = []
    loss, dec_grads, d_table = loss_and_grads(decoder, table, bundle)
    if 0 in wanted:
        points.append(FinetunePoint(0, table.copy(), decoder.copy(), loss))
    for step in range(1, config.finetune_steps + 1):
        adam_step(
            opt,
            params,
            {"table": d_table, "w_d": dec_grads.w_d, "b_d": dec_grads.b_d},
            config.lr,
        )
        loss, dec_grads, d_table = loss_and_grads(decoder, table, bundle)
        if step in wanted:
            points.append(FinetunePoint(step, table.copy(), decoder.copy(), loss))
    return points


def evaluate(table, decoder, queries) -> float:
    """adaptation.evaluate scoring every query frame, from each query's frame
    bundle gathered on every call."""
    if not queries:
        raise ValueError("evaluate requires at least one query utterance")
    per_row = table @ decoder.w_d + decoder.b_d
    total_sq = 0.0
    total_frames = 0
    dim = queries[0].features.shape[1]
    for utt in queries:
        bundle = build_frame_bundle([utt])
        sq, _ = kernels.frame_residual_stats(bundle.frames, bundle.rows, per_row)
        total_sq += sq
        total_frames += bundle.frames.shape[0]
    return total_sq / (total_frames * dim)


def _symbols(utterance: Utterance, phoneme_set: LanguagePhonemeSet) -> frozenset[str]:
    return frozenset(phoneme_set.phonemes[r] for r in utterance.alignment[:, 2].tolist())


def split_with_coverage(
    batch: list[Utterance],
    rng: np.random.Generator,
    gen_size: int,
    loss_size: int,
    limit: int = 100,
    *,
    phoneme_set: LanguagePhonemeSet,
) -> tuple[list[Utterance], list[Utterance]]:
    """trainer.split_with_coverage testing coverage on each utterance's
    symbol set in phoneme_set, with numpy integers for indices."""
    if len(batch) != gen_size + loss_size:
        raise ValueError(f"batch size {len(batch)} != {gen_size} + {loss_size}")
    syms = [_symbols(u, phoneme_set) for u in batch]

    def split_ok(gen_idx, loss_idx):
        gen_set: set[str] = set()
        for i in gen_idx:
            gen_set |= syms[i]
        return any(syms[i] for i in loss_idx) and all(syms[i] <= gen_set for i in loss_idx)

    for _ in range(limit):
        perm = rng.permutation(len(batch))
        gen_idx, loss_idx = perm[:gen_size], perm[gen_size:]
        if split_ok(gen_idx, loss_idx):
            return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]

    counts: dict[str, int] = {}
    for s in syms:
        for ph in s:
            counts[ph] = counts.get(ph, 0) + 1
    forced: list[int] = []
    in_forced: set[int] = set()
    covered: set[str] = set()
    for ph in sorted(counts, key=lambda p: (counts[p], p)):
        if ph in covered or len(forced) == gen_size:
            continue
        bearer = next(i for i in range(len(batch)) if ph in syms[i] and i not in in_forced)
        forced.append(bearer)
        in_forced.add(bearer)
        covered |= syms[bearer]
    rest = [i for i in range(len(batch)) if i not in in_forced]
    fill_order = rng.permutation(len(rest))
    fill = [rest[j] for j in fill_order]
    gen_idx = forced + fill[: gen_size - len(forced)]
    loss_idx = fill[gen_size - len(forced) :]
    if split_ok(gen_idx, loss_idx):
        return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]
    if not any(syms[i] for i in loss_idx):
        raise CoverageError(
            "no coverage-valid split exists for this batch; the loss group covers no frame"
        )
    gen_set: set[str] = set()
    for i in gen_idx:
        gen_set |= syms[i]
    uncovered = sorted(set().union(*(syms[i] for i in loss_idx)) - gen_set)
    raise CoverageError(
        f"no coverage-valid split exists for this batch; uncovered phonemes: {uncovered}"
    )


def sample_task(corpus: Corpus, spec: TaskSpec, limit: int = 100) -> FewShotTask:
    """adaptation.sample_task testing coverage on each utterance's symbol set."""
    pool = corpus.by_language(spec.language)
    if len(pool) < spec.k + spec.q:
        raise TaskError(
            f"language {spec.language!r} has {len(pool)} utterances, "
            f"need k+q = {spec.k + spec.q}"
        )
    rng = np.random.default_rng(spec.seed)
    phoneme_set = corpus.phoneme_set(spec.language)
    symbols = [_symbols(u, phoneme_set) for u in pool]
    last = ""
    for _ in range(limit):
        idx = rng.choice(len(pool), size=spec.k + spec.q, replace=False)
        shot_idx, query_idx = idx[: spec.k], idx[spec.k :]
        shot_syms = frozenset().union(*(symbols[i] for i in shot_idx))
        query_syms = frozenset().union(*(symbols[i] for i in query_idx))
        if not query_syms:
            last = "the last draw's queries cover no frame"
        elif query_syms <= shot_syms:
            return FewShotTask(
                [pool[i] for i in shot_idx], [pool[i] for i in query_idx], spec.language
            )
        else:
            last = f"last uncovered phonemes: {sorted(query_syms - shot_syms)}"
    raise TaskError(
        f"no covering (shots, queries) draw for {spec.language!r} k={spec.k} within "
        f"{limit} attempts; {last}"
    )


def covering_sentences(
    corpus: Corpus, language: str, target_count: int, rng: np.random.Generator
) -> list[Utterance]:
    """mapping.covering_sentences ranking utterances by their symbol sets."""
    pool = corpus.by_language(language)
    phoneme_set = corpus.phoneme_set(language)
    symbols = [_symbols(u, phoneme_set) for u in pool]
    everywhere = frozenset().union(*symbols) if symbols else frozenset()
    missing = sorted(set(phoneme_set.phonemes) - everywhere)
    if missing:
        raise CoverageError(
            f"language {language!r}: phonemes {missing} occur in no utterance"
        )
    uncovered = set(phoneme_set.phonemes)
    chosen: list[int] = []
    in_chosen: set[int] = set()
    while uncovered:
        best = max(
            (i for i in range(len(pool)) if i not in in_chosen),
            key=lambda i: (len(symbols[i] & uncovered), -i),
        )
        chosen.append(best)
        in_chosen.add(best)
        uncovered -= symbols[best]
    if len(chosen) < target_count:
        rest = [i for i in range(len(pool)) if i not in in_chosen]
        n_extra = min(target_count - len(chosen), len(rest))
        if n_extra:
            extra = rng.choice(len(rest), size=n_extra, replace=False)
            chosen.extend(rest[j] for j in extra)
    return [pool[i] for i in chosen]


@dataclass(frozen=True)
class PhonemeSegment:
    phoneme: str
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.start_frame < 0:
            raise ValidationError(f"segment start must be >= 0, got {self.start_frame}")
        if self.start_frame >= self.end_frame:
            raise ValidationError(
                f"segment [{self.start_frame}, {self.end_frame}) for {self.phoneme!r} is empty or reversed"
            )

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame


def load_alignment(path, phoneme_set: LanguagePhonemeSet) -> tuple[PhonemeSegment, ...]:
    """Parse a TSV alignment; segments must be sorted, non-overlapping, in-vocabulary.
    A frame index is ASCII `-?[0-9]+`; every per-line fault names path:line."""
    symbols = frozenset(phoneme_set.phonemes)
    segments: list[PhonemeSegment] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not valid UTF-8 at byte {e.start}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        sym, start_s, end_s = fields
        if not (re.fullmatch(r"-?[0-9]+", start_s) and re.fullmatch(r"-?[0-9]+", end_s)):
            raise ValidationError(f"{path}:{lineno}: frame indices must be integers")
        if sym not in symbols:
            raise VocabularyError(f"{path}:{lineno}: unknown phoneme {sym!r}")
        try:
            segments.append(PhonemeSegment(sym, int(start_s), int(end_s)))
        except ValidationError as e:
            raise ValidationError(f"{path}:{lineno}: {e}") from None
    for prev, cur in zip(segments, segments[1:]):
        if cur.start_frame < prev.end_frame:
            raise ValidationError(
                f"{path}: segments overlap or are unsorted at frame {cur.start_frame}"
            )
    return tuple(segments)
