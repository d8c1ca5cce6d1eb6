"""Phoneme query extraction from aligned utterances.

A phoneme's temporary representation within one utterance is the unweighted
mean of all frames lying in any of its segments. Queries for a phoneme set
are the mean of those temporary representations across the utterances that
contain the phoneme (mean of per-utterance means, not a frame-weighted mean);
phonemes absent from every utterance get zero rows. The procedure never
consults training state, so it applies to seen and unseen phonemes alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .datamodel import LanguagePhonemeSet, Utterance, save_feature_file
from .errors import ValidationError


@dataclass
class QueryMatrix:
    matrix: np.ndarray  # (m, dim); rows with present=False are exactly zero
    present: np.ndarray  # (m,) bool
    language: str
    phonemes: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _segment_arrays(utterance: Utterance, phoneme_set: LanguagePhonemeSet):
    starts = np.array([s.start_frame for s in utterance.alignment], dtype=np.int64)
    ends = np.array([s.end_frame for s in utterance.alignment], dtype=np.int64)
    rows = np.array(
        [phoneme_set.index(s.phoneme) for s in utterance.alignment], dtype=np.int64
    )
    return starts, ends, rows


def phoneme_rep_matrix(
    utterance: Utterance, phoneme_set: LanguagePhonemeSet
) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance temporary representations in matrix form.

    Returns (reps, counts): float64 (m, dim) with the mean frame per phoneme
    (zero rows where counts == 0) and int64 (m,) frame counts. Accumulation is
    float64 regardless of the feature dtype; long utterances would otherwise
    lose precision.
    """
    starts, ends, rows = _segment_arrays(utterance, phoneme_set)
    sums, counts = kernels.segment_pool(
        utterance.features, starts, ends, rows, phoneme_set.size
    )
    reps = np.zeros_like(sums)
    mask = counts > 0
    reps[mask] = sums[mask] / counts[mask, None]
    return reps, counts


def aggregate_from_matrices(
    rep_counts: list[tuple[np.ndarray, np.ndarray]],
    phoneme_set: LanguagePhonemeSet,
    dtype,
) -> QueryMatrix:
    """Mean of per-utterance representations, reduced in the given order.

    An absent phoneme's rep row is exactly +0.0, and a sum that starts at
    +0.0 is never -0.0, so adding that row changes no bit: each utterance's
    whole matrix is added without a presence mask. The adds stay one
    utterance at a time because a single sum(axis=0) over the stack reduces
    pairwise when m * dim == 1.
    """
    m = phoneme_set.size
    dim = rep_counts[0][0].shape[1]
    acc = np.zeros((m, dim), dtype=np.float64)
    for reps, _ in rep_counts:
        acc += reps
    n_utt = (np.stack([counts for _, counts in rep_counts]) > 0).sum(axis=0)
    present = n_utt > 0
    matrix = np.zeros((m, dim), dtype=np.float64)
    matrix[present] = acc[present] / n_utt[present, None]
    return QueryMatrix(
        matrix.astype(dtype), present, phoneme_set.language, phoneme_set.phonemes
    )


def aggregate_queries(
    utterances: list[Utterance], phoneme_set: LanguagePhonemeSet
) -> QueryMatrix:
    """Phoneme queries for a set of utterances of one language.

    Row p is the mean over utterances-containing-p of their per-utterance mean
    of p's frames; absent phonemes get zero rows with present=False. Invariant
    under reordering of utterances and segments. The output dtype matches the
    feature dtype (working precision); accumulation is float64.
    """
    if not utterances:
        raise ValueError("aggregate_queries requires at least one utterance")
    for utt in utterances:
        if utt.language != phoneme_set.language:
            raise ValueError(
                f"utterance {utt.id!r} has language {utt.language!r}, "
                f"expected {phoneme_set.language!r}"
            )
    dims = {utt.features.shape[1] for utt in utterances}
    if len(dims) != 1:
        raise ValidationError(f"utterances disagree on feature dim: {sorted(dims)}")
    rep_counts = [phoneme_rep_matrix(u, phoneme_set) for u in utterances]
    return aggregate_from_matrices(rep_counts, phoneme_set, utterances[0].features.dtype)


def save_query_matrix(qm: QueryMatrix, base_path) -> None:
    """Dump as <base>.xpqf plus a <base>.json sidecar."""
    base = Path(base_path)
    save_feature_file(qm.matrix.astype(np.float32), base.with_suffix(".xpqf"))
    sidecar = {
        "language": qm.language,
        "phonemes": list(qm.phonemes),
        "present": [bool(p) for p in qm.present],
    }
    base.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )
