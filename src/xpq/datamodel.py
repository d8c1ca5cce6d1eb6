"""Core domain types and file formats.

Covers frame-level feature matrices, phoneme alignments, per-language phoneme
sets, and the corpus manifest tying them together. All loaders validate; all
formats round-trip bit-exactly.

File formats:
  - feature file (.xpqf): magic "XPQF", version u32=1, rows u32, cols u32,
    then rows*cols IEEE-754 binary32 values, row-major, little-endian.
  - alignment file: UTF-8 TSV, one `phoneme<TAB>start_frame<TAB>end_frame`
    per line; lines starting with `#` are ignored.
  - manifest: UTF-8 JSON read into CorpusManifest by `schema.build`.
    `languages[].phonemes` is the only phoneme-set source; its order is the
    canonical row order.

`validate_corpus` and `load_corpus` check each entry with `check_entry`, so
they agree on every corpus. Every output file of the package is written by
`write_file`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    FormatError,
    TruncationError,
    ValidationError,
    VocabularyError,
    XpqError,
)
from .schema import build, read_json

if TYPE_CHECKING:
    from .decoder import PhonemeStats
    from .queries import QueryMatrix

FEATURE_MAGIC = b"XPQF"
FEATURE_VERSION = 1
SPLITS = ("train", "val", "test")


def namespaced(language: str, phoneme: str) -> str:
    """Cross-language phoneme key, e.g. ("en", "AA0") -> "en-AA0"."""
    return f"{language}-{phoneme}"


def mask_union(masks: Iterable[int]) -> int:
    """The rows any of the phoneme bitmasks (see Corpus.masks) covers."""
    return reduce(int.__or__, masks, 0)


@dataclass(frozen=True)
class FeatureSpec:
    dim: int
    frame_rate_hz: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"feature dim must be >= 1, got {self.dim}")
        if self.frame_rate_hz <= 0:
            raise ValidationError(f"frame_rate_hz must be > 0, got {self.frame_rate_hz}")


@dataclass(frozen=True)
class LanguagePhonemeSet:
    """Ordered phoneme inventory; manifest order is the canonical row order."""

    language: str
    phonemes: tuple[str, ...]

    def __post_init__(self):
        if len(self.phonemes) < 1:
            raise ValidationError(f"phoneme set for {self.language!r} is empty")
        if len(set(self.phonemes)) != len(self.phonemes):
            raise ValidationError(f"duplicate phoneme symbols in {self.language!r}")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.phonemes)})

    @property
    def size(self) -> int:
        return len(self.phonemes)

    def index(self, phoneme: str) -> int:
        try:
            return self._index[phoneme]
        except KeyError:
            raise VocabularyError(
                f"phoneme {phoneme!r} is not in the {self.language!r} phoneme set"
            ) from None

    def mask_symbols(self, mask: int) -> list[str]:
        """The sorted symbols of the rows set in a phoneme bitmask (Corpus.masks)."""
        return sorted(p for r, p in enumerate(self.phonemes) if mask >> r & 1)


@dataclass
class Utterance:
    id: str
    language: str
    features: np.ndarray  # (T, dim)
    # (S, 3) int64, read-only: each segment's frames [start, end) and the row of
    # its phoneme in the language's phoneme set, in alignment order
    alignment: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# output files


def write_file(path, data: str | bytes) -> None:
    """Write data (a str as UTF-8) to path + ".tmp", then rename it over path,
    so path is only ever absent, its old bytes or all of data. A failed write
    or rename removes the temp file and raises an OSError naming path."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {e}") from e


# ---------------------------------------------------------------------------
# feature files


def save_feature_file(matrix: np.ndarray, path) -> None:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"feature matrix must be non-empty 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("feature matrix contains non-finite values")
    rows, cols = arr.shape
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, rows, cols)
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes(order="C")
    write_file(path, header + payload)


def load_feature_file(path) -> np.ndarray:
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    if len(data) < 16 or data[:4] != FEATURE_MAGIC:
        raise FormatError(f"bad magic in {path}: expected {FEATURE_MAGIC!r}, got {data[:4]!r}")
    version, rows, cols = struct.unpack("<III", data[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"unsupported feature file version {version} in {path}")
    if rows < 1 or cols < 1:
        raise ValidationError(f"feature file {path} declares empty shape {rows}x{cols}")
    expected = 16 + 4 * rows * cols
    if len(data) != expected:
        raise TruncationError(
            f"feature file {path} declares {rows}x{cols} ({expected} bytes) but has {len(data)} bytes"
        )
    arr = np.frombuffer(data, dtype="<f4", offset=16).reshape(rows, cols).copy()
    if not np.isfinite(arr).all():
        raise ValidationError(f"feature file {path} contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# alignment files


def parse_int(text: str) -> int:
    """The integer an ASCII `-?[0-9]+` spells; leading zeros are allowed
    (`007` is 7). Anything else, such as `+1`, `1_0`, ` 1` or full-width
    digits, which int() alone would take, raises ValueError."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def load_alignment(path, phoneme_set: LanguagePhonemeSet) -> np.ndarray:
    """Parse a TSV alignment into a read-only int64 (S, 3) table of (start,
    end, row of the phoneme in phoneme_set); segments must be sorted,
    non-overlapping, in-vocabulary.

    Each line is checked in turn, in this order: three fields, integer
    indices (parse_int), a known phoneme, start >= 0, start < end; each of
    these faults names path:line. The sort and overlap check runs over the
    whole table after the last line. The first fault found is raised; an
    index past int64 is refused before the sort check.
    """
    rows = phoneme_set._index
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not valid UTF-8 at byte {e.start}") from None
    segments = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        sym, start_s, end_s = fields
        try:
            start, end = parse_int(start_s), parse_int(end_s)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: frame indices must be integers") from None
        row = rows.get(sym)
        if row is None:
            raise VocabularyError(f"{path}:{lineno}: unknown phoneme {sym!r}")
        if start < 0:
            raise ValidationError(f"{path}:{lineno}: segment start must be >= 0, got {start}")
        if start >= end:
            raise ValidationError(
                f"{path}:{lineno}: segment [{start}, {end}) for {sym!r} is empty or reversed"
            )
        segments += start, end, row  # flat: numpy reads it faster than tuples
    try:
        table = np.array(segments, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise ValidationError(f"{path}: frame indices must be below 2**63") from None
    early = np.flatnonzero(table[1:, 0] < table[:-1, 1])
    if early.size:
        raise ValidationError(
            f"{path}: segments overlap or are unsorted at frame {table[early[0] + 1, 0]}"
        )
    table.flags.writeable = False
    return table


def save_alignment(table: np.ndarray, phoneme_set: LanguagePhonemeSet, path) -> None:
    """Write an alignment table (see load_alignment) as TSV lines."""
    symbols = phoneme_set.phonemes
    lines = [f"{symbols[row]}\t{start}\t{end}" for start, end, row in table.tolist()]
    write_file(path, "\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    language: str
    feature_path: str
    alignment_path: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(
                f"entry {self.id!r}: split {self.split!r} not in {SPLITS}"
            )


@dataclass
class CorpusManifest:
    feature_spec: FeatureSpec
    languages: tuple[LanguagePhonemeSet, ...]
    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)  # directory paths are relative to

    def __post_init__(self):
        ids = [ps.language for ps in self.languages]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate language ids in manifest")

    def phoneme_set(self, language: str) -> LanguagePhonemeSet:
        for ps in self.languages:
            if ps.language == language:
                return ps
        raise VocabularyError(f"language {language!r} is not defined in the manifest")

    @property
    def language_ids(self) -> tuple[str, ...]:
        return tuple(ps.language for ps in self.languages)


def load_manifest(path) -> CorpusManifest:
    obj, text = read_json(path, FormatError, f"manifest {path}")
    manifest = build(CorpusManifest, obj, text, ValidationError, f"manifest {path}")
    return replace(manifest, root=Path(path).parent)


def save_manifest(manifest: CorpusManifest, path) -> None:
    obj = asdict(manifest)
    del obj["root"]  # paths in the file are relative to its own directory
    write_file(path, json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    utterance_id: str | None
    message: str

    def __str__(self) -> str:
        prefix = self.utterance_id if self.utterance_id else "<corpus>"
        return f"{prefix}: {self.message}"


@dataclass
class CorpusValidationReport:
    issues: list[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "corpus OK"
        return "\n".join(str(i) for i in self.issues)


def _file_path(root: Path, rel: str) -> str:
    """str(root / rel), joined as strings when Path would keep rel as it is:
    a relative path with no empty and no "." part."""
    padded = f"/{rel}/"
    if "//" in padded or "/./" in padded:
        return str(root / rel)
    root = str(root)
    if root == ".":
        return rel
    return root + rel if root.endswith("/") else f"{root}/{rel}"


def check_entry(manifest: CorpusManifest, entry: ManifestEntry, seen_ids: set[str]) -> Utterance:
    """Load one manifest entry and check it against the corpus invariants.

    seen_ids holds the ids of the entries before this one and gains its id.
    The entry's first fault is raised as an XpqError or OSError of its
    category; the message starts with the entry id, and the error's `issue`
    is the same fault as a ValidationIssue.
    """
    try:
        if entry.id in seen_ids:
            raise ValidationError("duplicate utterance id")
        seen_ids.add(entry.id)
        phoneme_set = manifest.phoneme_set(entry.language)
        features = load_feature_file(_file_path(manifest.root, entry.feature_path))
        if features.shape[1] != manifest.feature_spec.dim:
            raise ValidationError(
                f"feature dim {features.shape[1]} != corpus dim {manifest.feature_spec.dim}"
            )
        alignment = load_alignment(_file_path(manifest.root, entry.alignment_path), phoneme_set)
        if alignment.size and alignment[-1, 1] > features.shape[0]:
            raise ValidationError(
                f"alignment ends at frame {alignment[-1, 1]} but utterance has "
                f"{features.shape[0]} frames"
            )
    except (XpqError, OSError) as e:
        issue = ValidationIssue(entry.id, str(e))
        error = type(e)(str(issue))
        error.issue = issue
        raise error from e
    return Utterance(entry.id, entry.language, features, alignment)


def validate_corpus(manifest: CorpusManifest) -> CorpusValidationReport:
    """Check every entry against the corpus invariants; never raises.

    Each faulty entry gives one issue, its first fault; issues are in
    manifest entry order, so the report is stable.
    """
    issues: list[ValidationIssue] = []
    seen_ids: set[str] = set()
    for entry in manifest.entries:
        try:
            check_entry(manifest, entry, seen_ids)
        except (XpqError, OSError) as e:
            issues.append(e.issue)
    return CorpusValidationReport(issues)


# ---------------------------------------------------------------------------
# loaded corpus


@dataclass(frozen=True)
class RepStack:
    """One language's utterances as stacked query inputs and loss statistics.

    Utterance u is the u-th utterance of the language in manifest order, of
    any split. reps[u] and counts[u] are its queries.phoneme_rep_matrix
    result: each phoneme's mean frame and frame count. scatter[u] is the sum
    of its covered frames' squared distances to their phoneme's mean. row maps
    an utterance id to its u.
    """

    reps: np.ndarray  # (U, m, dim) float64
    counts: np.ndarray  # (U, m) int64
    scatter: np.ndarray  # (U,) float64
    row: dict[str, int]


@dataclass
class Corpus:
    """In-memory corpus: manifest plus fully loaded utterances.

    Utterances keep manifest order; values are immutable after load. Data
    derived from them (train pools, and each language's phoneme bitmasks and
    RepStack) is built at first use and kept here, never at load; being a
    pure function of immutable values, the memo changes no result.
    """

    manifest: CorpusManifest
    utterances: tuple[Utterance, ...]
    splits: tuple[str, ...]  # split tag per utterance, parallel to `utterances`

    def __post_init__(self):
        self._by_lang: dict[str, list[int]] = {}
        self._by_lang_split: dict[tuple[str, str], list[int]] = {}
        for i, (utt, split) in enumerate(zip(self.utterances, self.splits)):
            self._by_lang.setdefault(utt.language, []).append(i)
            self._by_lang_split.setdefault((utt.language, split), []).append(i)
        self._train_pools: dict[int, tuple[tuple[Utterance, ...], ...]] = {}
        self._rep_stacks: dict[str, RepStack] = {}
        self._masks: dict[str, dict[str, int]] = {}

    @property
    def feature_spec(self) -> FeatureSpec:
        return self.manifest.feature_spec

    @property
    def language_ids(self) -> tuple[str, ...]:
        return self.manifest.language_ids

    def phoneme_set(self, language: str) -> LanguagePhonemeSet:
        return self.manifest.phoneme_set(language)

    def by_language(self, language: str, split: str | None = None) -> list[Utterance]:
        if language not in self.manifest.language_ids:
            raise VocabularyError(f"language {language!r} is not defined in the manifest")
        if split is None:
            idx = self._by_lang.get(language, [])
        else:
            idx = self._by_lang_split.get((language, split), [])
        return [self.utterances[i] for i in idx]

    def train_pools(self, min_size: int) -> tuple[tuple[Utterance, ...], ...]:
        """The train-split utterances of each language that has at least
        min_size of them, in manifest language order."""
        out = self._train_pools.get(min_size)
        if out is None:
            pools = (tuple(self.by_language(lang, "train")) for lang in self.language_ids)
            out = tuple(pool for pool in pools if len(pool) >= min_size)
            self._train_pools[min_size] = out
        return out

    def rep_stack(self, language: str) -> RepStack:
        """The language's RepStack, built at first use: each utterance's reps
        and counts through queries.phoneme_rep_matrix, and its scatter through
        kernels.frame_residual_stats of its decoder.build_frame_bundle at those
        reps. The bundle is not kept."""
        out = self._rep_stacks.get(language)
        if out is None:
            from .decoder import build_frame_bundle
            from .kernels import frame_residual_stats
            from .queries import phoneme_rep_matrix

            utterances = self.by_language(language)
            phoneme_set = self.phoneme_set(language)
            reps = np.zeros((len(utterances), phoneme_set.size, self.feature_spec.dim))
            counts = np.zeros((len(utterances), phoneme_set.size), dtype=np.int64)
            scatter = np.zeros(len(utterances))
            for u, utt in enumerate(utterances):
                reps[u], counts[u] = phoneme_rep_matrix(utt, phoneme_set)
                bundle = build_frame_bundle(utt)
                scatter[u] = frame_residual_stats(bundle.frames, bundle.rows, reps[u])[0]
            row = {utt.id: u for u, utt in enumerate(utterances)}
            out = self._rep_stacks[language] = RepStack(reps, counts, scatter, row)
        return out

    def masks(self, utterances: list[Utterance]) -> list[int]:
        """Each utterance's phoneme bitmask, read from its segments alone: bit r
        is set when one has row r of the phoneme set of utterances[0]'s
        language, so an empty alignment gives 0. Coverage is tested on these."""
        if not utterances:
            return []
        language = utterances[0].language
        table = self._masks.get(language)
        if table is None:
            table = self._masks[language] = {
                utt.id: mask_union(1 << r for r in utt.alignment[:, 2].tolist())
                for utt in self.by_language(language)
            }
        return [table[utt.id] for utt in utterances]

    def _stack_rows(self, utterances: list[Utterance]) -> tuple[RepStack, list[int]]:
        """The RepStack of the utterances' language and their rows in it."""
        if not utterances:
            raise ValueError("no covered frames: the utterance list is empty")
        stack = self.rep_stack(utterances[0].language)
        return stack, [stack.row[utt.id] for utt in utterances]

    def stats(self, utterances: list[Utterance]) -> PhonemeStats:
        """decoder.PhonemeStats of the utterances' covered frames over their
        language's phoneme set: their RepStack rows merged in the given order."""
        from .decoder import PhonemeStats

        stack, rows = self._stack_rows(utterances)
        return PhonemeStats.merge(stack.counts[rows], stack.reps[rows], stack.scatter[rows])

    def queries(self, utterances: list[Utterance]) -> QueryMatrix:
        """queries.aggregate_queries of the utterances, bit for bit, from their
        RepStack rows; the working dtype is the first utterance's."""
        from .queries import aggregate_from_matrices

        stack, rows = self._stack_rows(utterances)
        return aggregate_from_matrices(
            (stack.reps[rows], stack.counts[rows]),
            self.phoneme_set(utterances[0].language),
            utterances[0].features.dtype,
        )


def load_corpus(manifest_or_path) -> Corpus:
    """Load all features and alignments referenced by a manifest.

    Raises the first faulty entry's error, with the message of the first
    issue validate_corpus reports.
    """
    manifest = (
        manifest_or_path
        if isinstance(manifest_or_path, CorpusManifest)
        else load_manifest(manifest_or_path)
    )
    seen_ids: set[str] = set()
    utterances = tuple(check_entry(manifest, entry, seen_ids) for entry in manifest.entries)
    return Corpus(manifest, utterances, tuple(entry.split for entry in manifest.entries))
