"""Cross-language phoneme mapping discovery from attention weights.

For every language, a covering set of utterances (each phoneme appears at
least once) is turned into phoneme queries and run through the trained
codebook attention. Two phonemes are scored by the cosine similarity of their
attention rows, averaged over heads; phonemes that attend to the same codes
score high. Absent phonemes are excluded: their zero queries yield uniform
attention rows that would spuriously match each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codebook import CodebookParams, forward
from .datamodel import Corpus, Utterance, mask_union, namespaced, write_file
from .errors import CoverageError, UndefinedScoreError, VocabularyError
from .queries import aggregate_queries

DEFAULT_COVER_TARGET = 256


def covering_sentences(
    corpus: Corpus, language: str, target_count: int, rng: np.random.Generator
) -> list[Utterance]:
    """Utterances covering every phoneme of the language, padded to target_count.

    Greedy set cover (most new phonemes first, ties to the earliest utterance),
    then random fill up to target_count; a cover larger than target_count is
    returned whole. Raises CoverageError naming any phoneme that occurs in no
    utterance.
    """
    pool = corpus.by_language(language)
    phoneme_set = corpus.phoneme_set(language)
    masks = corpus.masks(pool)
    uncovered = (1 << phoneme_set.size) - 1
    missing = phoneme_set.mask_symbols(uncovered & ~mask_union(masks))
    if missing:
        raise CoverageError(
            f"language {language!r}: phonemes {missing} occur in no utterance"
        )
    chosen: list[int] = []
    while uncovered:  # an utterance already chosen covers no uncovered row
        best = max(range(len(pool)), key=lambda i: ((masks[i] & uncovered).bit_count(), -i))
        chosen.append(best)
        uncovered &= ~masks[best]
    if len(chosen) < target_count:
        rest = [i for i in range(len(pool)) if i not in chosen]
        n_extra = min(target_count - len(chosen), len(rest))
        if n_extra:
            extra = rng.choice(len(rest), size=n_extra, replace=False)
            chosen.extend(rest[j] for j in extra)
    return [pool[i] for i in chosen]


@dataclass
class MappingScores:
    """Symmetric phoneme-pair score table over present phonemes.

    Phonemes are namespaced ("language-symbol") and kept in canonical order:
    corpus language order, then phoneme-set order. The diagonal is exactly 1.
    """

    phonemes: tuple[str, ...]
    languages: tuple[str, ...]  # language of each phoneme, parallel array
    matrix: np.ndarray  # (K, K) float64

    def __post_init__(self):
        self._index = {p: i for i, p in enumerate(self.phonemes)}

    def index(self, phoneme: str) -> int:
        try:
            return self._index[phoneme]
        except KeyError:
            raise VocabularyError(f"phoneme {phoneme!r} has no attention record") from None


def build_score_table(
    corpus: Corpus,
    params: CodebookParams,
    target_count: int = DEFAULT_COVER_TARGET,
    rng: np.random.Generator | None = None,
) -> MappingScores:
    """Score every pair of present phonemes across the corpus's languages.

    One forward pass per language over its covering-set queries; the
    covering target is scaled down automatically when a language has fewer
    utterances than target_count.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    names: list[str] = []
    langs: list[str] = []
    records: list[np.ndarray] = []
    for language in corpus.language_ids:
        pool_size = len(corpus.by_language(language))
        cover = covering_sentences(corpus, language, min(target_count, pool_size), rng)
        qm = aggregate_queries(cover, corpus.phoneme_set(language))
        _, record = forward(params, qm)
        for i in np.flatnonzero(qm.present):
            names.append(namespaced(language, qm.phonemes[i]))
            langs.append(language)
            records.append(record.weights[:, i, :].astype(np.float64))
    stacked = np.stack(records)  # (K, heads, n)
    norms = np.linalg.norm(stacked, axis=2)
    if np.any(norms == 0.0):
        raise UndefinedScoreError("zero-norm attention row in score table")
    unit = stacked / norms[:, :, None]
    sim = np.zeros((len(names), len(names)), dtype=np.float64)
    for h in range(unit.shape[1]):
        sim += unit[:, h, :] @ unit[:, h, :].T
    sim /= unit.shape[1]
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return MappingScores(tuple(names), tuple(langs), sim)


def top_k_mappings(scores: MappingScores, phoneme: str, k: int = 5) -> list[tuple[str, float]]:
    """Best-scoring counterpart phonemes of other languages, descending; ties
    break by canonical order."""
    i = scores.index(phoneme)
    candidates = [
        j for j in range(len(scores.phonemes)) if scores.languages[j] != scores.languages[i]
    ]
    ranked = sorted(candidates, key=lambda j: (-scores.matrix[i, j], j))
    return [(scores.phonemes[j], float(scores.matrix[i, j])) for j in ranked[:k]]


def write_mapping_tsv(scores: MappingScores, path, k: int = 5) -> None:
    lines = ["# source\trank\ttarget\tscore"]
    for phoneme in scores.phonemes:
        for rank, (target, score) in enumerate(top_k_mappings(scores, phoneme, k), start=1):
            lines.append(f"{phoneme}\t{rank}\t{target}\t{score:.6f}")
    write_file(path, "\n".join(lines) + "\n")


def write_scores_json(scores: MappingScores, path) -> None:
    obj = {
        "phonemes": list(scores.phonemes),
        "languages": list(scores.languages),
        "scores": [[float(x) for x in row] for row in scores.matrix],
    }
    write_file(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")
