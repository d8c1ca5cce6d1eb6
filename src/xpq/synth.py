"""Synthetic multilingual corpus generator with ground-truth prototypes.

Each phoneme of each language is assigned one prototype vector from a shared
pool; a configurable fraction of every non-first language's phonemes reuses
prototypes already used by earlier languages, which gives a known
cross-language phoneme correspondence to evaluate against. Frames are the
assigned prototype plus isotropic Gaussian noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import (
    CorpusManifest,
    FeatureSpec,
    LanguagePhonemeSet,
    ManifestEntry,
    namespaced,
    save_alignment,
    save_feature_file,
    save_manifest,
    write_file,
)
from .errors import ConfigError, FormatError
from .schema import read_json

LANGUAGE_ROLES = ("train", "test")

# Resampling cap for the per-language phoneme-coverage loop.
_COVERAGE_ATTEMPTS = 1000


@dataclass(frozen=True)
class SynthLanguage:
    language: str
    m: int  # phoneme inventory size
    shared_fraction: float
    role: str = "train"

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"language {self.language!r}: m must be >= 1")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigError(f"language {self.language!r}: shared_fraction must be in [0, 1]")
        if self.role not in LANGUAGE_ROLES:
            raise ConfigError(f"language {self.language!r}: role must be one of {LANGUAGE_ROLES}")


DEFAULT_LANGUAGES = tuple(
    [SynthLanguage(f"train{i}", 20, 0.6, "train") for i in range(4)]
    + [SynthLanguage(f"test{i}", 20, 0.6, "test") for i in range(2)]
)


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 16
    num_prototypes: int = 24
    languages: tuple[SynthLanguage, ...] = DEFAULT_LANGUAGES
    noise_sigma: float = 0.1
    utterances_per_language: int = 160
    segments_per_utterance: tuple[int, int] = (12, 20)
    frames_per_segment: tuple[int, int] = (4, 10)
    val_fraction: float = 0.1
    frame_rate_hz: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.num_prototypes < 1 or self.utterances_per_language < 1:
            raise ConfigError("dim, num_prototypes, utterances_per_language must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, (lo, hi) in (
            ("segments_per_utterance", self.segments_per_utterance),
            ("frames_per_segment", self.frames_per_segment),
        ):
            if lo < 1 or lo > hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) must satisfy 1 <= min <= max")
        if not self.languages:
            raise ConfigError("at least one language is required")
        names = [l.language for l in self.languages]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate language ids in synth config")
        for lang in self.languages:
            if lang.m > self.num_prototypes:
                raise ConfigError(
                    f"language {lang.language!r}: m={lang.m} exceeds prototype pool "
                    f"size {self.num_prototypes}"
                )


def _assign_prototypes(config: SynthConfig, rng: np.random.Generator) -> dict[str, int]:
    """Map each namespaced phoneme to a prototype index.

    For each non-first language, round(shared_fraction*m) phonemes draw
    (without replacement) from prototypes already used by earlier languages;
    the rest draw from unused prototypes. When the unused pool is too small,
    the remainder also reuses earlier prototypes, so the pool size bounds how
    many truly novel phonemes a corpus can contain. Prototypes are distinct
    within a language.
    """
    ground_truth: dict[str, int] = {}
    used: set[int] = set()
    for li, lang in enumerate(config.languages):
        if li == 0:
            picks = rng.choice(config.num_prototypes, size=lang.m, replace=False)
        else:
            n_shared = int(round(lang.shared_fraction * lang.m))
            used_sorted = np.array(sorted(used), dtype=np.int64)
            if n_shared > len(used_sorted):
                raise ConfigError(
                    f"language {lang.language!r}: wants {n_shared} shared phonemes but only "
                    f"{len(used_sorted)} prototypes are in use"
                )
            shared = rng.choice(used_sorted, size=n_shared, replace=False)
            unused = np.array(
                sorted(set(range(config.num_prototypes)) - used), dtype=np.int64
            )
            n_fresh = min(lang.m - n_shared, len(unused))
            fresh = rng.choice(unused, size=n_fresh, replace=False)
            n_extra = lang.m - n_shared - n_fresh
            if n_extra > 0:
                leftovers = np.array(sorted(used - set(shared.tolist())), dtype=np.int64)
                if n_extra > len(leftovers):
                    raise ConfigError(
                        f"language {lang.language!r}: cannot assign {lang.m} distinct prototypes"
                    )
                extra = rng.choice(leftovers, size=n_extra, replace=False)
            else:
                extra = np.empty(0, dtype=np.int64)
            picks = rng.permutation(np.concatenate([shared, fresh, extra]))
        for j, proto in enumerate(picks):
            ground_truth[namespaced(lang.language, f"ph{j:02d}")] = int(proto)
        used.update(int(p) for p in picks)
    return ground_truth


def _split_tags(lang: SynthLanguage, n: int, val_fraction: float) -> list[str]:
    if lang.role == "test":
        return ["test"] * n
    n_val = int(round(val_fraction * n))
    n_val = min(n_val, n - 1)  # keep at least one training utterance
    return ["train"] * (n - n_val) + ["val"] * n_val


def _sample_sequences(
    config: SynthConfig, lang: SynthLanguage, tags: list[str], rng: np.random.Generator
) -> list[np.ndarray]:
    """Phoneme index sequences for one language, resampled until every phoneme
    appears in at least one train-split (or, for test languages, any) utterance."""
    seg_lo, seg_hi = config.segments_per_utterance
    counted = [i for i, t in enumerate(tags) if lang.role == "test" or t == "train"]
    for _ in range(_COVERAGE_ATTEMPTS):
        seqs = [
            rng.integers(0, lang.m, size=int(rng.integers(seg_lo, seg_hi + 1)))
            for _ in tags
        ]
        covered: set[int] = set()
        for i in counted:
            covered.update(seqs[i].tolist())
        if len(covered) == lang.m:
            return seqs
    raise ConfigError(
        f"language {lang.language!r}: could not cover all {lang.m} phonemes in "
        f"{_COVERAGE_ATTEMPTS} attempts; increase utterances or segments per utterance"
    )


def generate_corpus(config: SynthConfig, out_dir) -> tuple[CorpusManifest, dict[str, int]]:
    """Write a full corpus under out_dir and return (manifest, ground-truth map).

    Generation is a pure function of config.seed. Emits manifest.json,
    ground_truth.json, prototypes.xpqf, features/ and alignments/. Each
    language's phoneme set lives only in the manifest's `languages`.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    (out / "alignments").mkdir(exist_ok=True)

    rng = np.random.default_rng(config.seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(config.num_prototypes, config.dim))
    ground_truth = _assign_prototypes(config, rng)

    f_lo, f_hi = config.frames_per_segment
    languages = []
    entries = []
    for lang in config.languages:
        phonemes = tuple(f"ph{j:02d}" for j in range(lang.m))
        phoneme_set = LanguagePhonemeSet(lang.language, phonemes)
        languages.append(phoneme_set)
        protos_of = np.array(
            [ground_truth[namespaced(lang.language, p)] for p in phonemes], dtype=np.int64
        )

        tags = _split_tags(lang, config.utterances_per_language, config.val_fraction)
        seqs = _sample_sequences(config, lang, tags, rng)
        for i, (tag, seq) in enumerate(zip(tags, seqs)):
            utt_id = f"{lang.language}_{i:04d}"
            durations = rng.integers(f_lo, f_hi + 1, size=len(seq))
            ends = np.cumsum(durations)
            alignment = np.stack([ends - durations, ends, seq], axis=1)
            frames = np.empty((int(ends[-1]), config.dim), dtype=np.float64)
            for start, end, ph_idx in alignment.tolist():
                block = prototypes[protos_of[ph_idx]]
                if config.noise_sigma > 0:
                    noise = rng.standard_normal((end - start, config.dim))
                    block = block + config.noise_sigma * noise
                frames[start:end] = block
            save_feature_file(frames.astype(np.float32), out / "features" / f"{utt_id}.xpqf")
            save_alignment(alignment, phoneme_set, out / "alignments" / f"{utt_id}.tsv")
            entries.append(
                ManifestEntry(
                    id=utt_id,
                    language=lang.language,
                    feature_path=f"features/{utt_id}.xpqf",
                    alignment_path=f"alignments/{utt_id}.tsv",
                    split=tag,
                )
            )

    manifest = CorpusManifest(
        FeatureSpec(config.dim, config.frame_rate_hz),
        tuple(languages),
        tuple(entries),
        root=out,
    )
    save_manifest(manifest, out / "manifest.json")
    save_feature_file(prototypes.astype(np.float32), out / "prototypes.xpqf")
    save_ground_truth(ground_truth, out / "ground_truth.json")
    return manifest, ground_truth


def save_ground_truth(ground_truth: dict[str, int], path) -> None:
    write_file(path, json.dumps(ground_truth, indent=2, sort_keys=True) + "\n")


def load_ground_truth(path) -> dict[str, int]:
    """ground_truth.json: an object mapping namespaced phonemes to prototype indices."""
    label = f"ground truth {path}"
    obj, _ = read_json(path, FormatError, label)
    if type(obj) is not dict or any(type(v) is not int for v in obj.values()):
        raise FormatError(f"{label}: must be an object of integer values")
    return obj
