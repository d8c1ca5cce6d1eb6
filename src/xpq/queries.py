"""Phoneme query extraction from aligned utterances.

A phoneme's temporary representation within one utterance is the unweighted
mean of all frames lying in any of its segments. Queries for a phoneme set
are the mean of those temporary representations across the utterances that
contain the phoneme (mean of per-utterance means, not a frame-weighted mean);
phonemes absent from every utterance get zero rows. Row r of a query matrix
is row r of its language's phoneme set. The procedure never consults
training state, so it applies to seen and unseen phonemes alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decoder, kernels
from .datamodel import LanguagePhonemeSet, Utterance, save_feature_file, write_file
from .errors import ValidationError


@dataclass
class QueryMatrix:
    matrix: np.ndarray  # (m, dim); rows with present=False are exactly zero
    present: np.ndarray  # (m,) bool


def phoneme_rep_matrix(
    bundle: decoder.FrameBundle, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance temporary representations in matrix form, from the
    utterance's decoder.build_frame_bundle over its n_rows-phoneme set.

    Returns (reps, counts): float64 (n_rows, dim) with the mean frame per
    phoneme (zero rows where counts == 0) and int64 (n_rows,) frame counts.
    Accumulation is float64 regardless of the feature dtype; long utterances
    would otherwise lose precision.
    """
    sums, counts = kernels.segment_pool(bundle.frames, bundle.rows, n_rows)
    reps = np.zeros_like(sums)
    mask = counts > 0
    reps[mask] = sums[mask] / counts[mask, None]
    return reps, counts


def aggregate_from_matrices(reps: np.ndarray, counts: np.ndarray, dtype) -> QueryMatrix:
    """Mean of per-utterance representations, reduced in the given order.

    reps and counts are the utterances' phoneme_rep_matrix results stacked:
    (U, m, dim) reps and (U, m) counts or presence, such as rows of a
    Corpus.rep_stack's reps and counts. An absent phoneme's rep row is exactly
    +0.0, and a sum that starts at +0.0 is never -0.0, so adding that row
    changes no bit: the whole stack is summed without a presence mask, in one
    reduction over the utterance axis that adds the utterances one at a time,
    as a loop would. When m * dim == 1 that reduction would run pairwise, so
    the utterances are then added in a loop.
    """
    _, m, dim = reps.shape
    if m * dim == 1:
        acc = np.zeros((m, dim), dtype=np.float64)
        for r in reps:
            acc += r
    else:
        acc = np.add.reduce(reps, axis=0, initial=0.0)
    n_utt = np.count_nonzero(counts, axis=0)
    present = n_utt > 0
    matrix = np.zeros((m, dim), dtype=np.float64)
    np.divide(acc, n_utt[:, None], out=matrix, where=present[:, None])
    return QueryMatrix(matrix.astype(dtype), present)


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
    bundles = (decoder.build_frame_bundle(u) for u in utterances)
    reps, counts = zip(*(phoneme_rep_matrix(b, phoneme_set.size) for b in bundles))
    return aggregate_from_matrices(np.stack(reps), np.stack(counts), utterances[0].features.dtype)


def save_query_matrix(qm: QueryMatrix, phoneme_set: LanguagePhonemeSet, base_path) -> None:
    """Dump as <base>.xpqf plus a <base>.json sidecar naming the rows' phonemes."""
    base = Path(base_path)
    save_feature_file(qm.matrix.astype(np.float32), base.with_suffix(".xpqf"))
    sidecar = {
        "language": phoneme_set.language,
        "phonemes": list(phoneme_set.phonemes),
        "present": [bool(p) for p in qm.present],
    }
    write_file(base.with_suffix(".json"), json.dumps(sidecar, indent=2) + "\n")
