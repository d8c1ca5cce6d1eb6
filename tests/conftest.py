import numpy as np
import pytest

from xpq.datamodel import (
    Corpus,
    CorpusManifest,
    FeatureSpec,
    ManifestEntry,
    PhonemeSegment,
    Utterance,
    load_corpus,
)
from xpq.synth import SynthConfig, SynthLanguage, generate_corpus


def make_utterance(uid, language, features, segments, dtype=np.float32):
    """Hand-built utterance; segments are (phoneme, start, end) triples."""
    return Utterance(
        uid,
        language,
        np.asarray(features, dtype=dtype),
        tuple(PhonemeSegment(*s) for s in segments),
    )


def coverage_masks(batch):
    """One phoneme bitmask per utterance of batch, as split_with_coverage
    takes them: bit b is the b-th of the batch's symbols in sorted order."""
    symbols = sorted(set().union(*(u.phoneme_symbols() for u in batch)))
    return [sum(1 << symbols.index(ph) for ph in u.phoneme_symbols()) for u in batch]


def make_corpus(phoneme_sets, utterances, splits=None, dim=None):
    """In-memory corpus without any files on disk."""
    if dim is None:
        dim = utterances[0].features.shape[1]
    entries = tuple(
        ManifestEntry(u.id, u.language, f"features/{u.id}.xpqf", f"alignments/{u.id}.tsv", "train")
        for u in utterances
    )
    manifest = CorpusManifest(FeatureSpec(dim, 100.0), tuple(phoneme_sets), entries)
    if splits is None:
        splits = tuple("train" for _ in utterances)
    return Corpus(manifest, tuple(utterances), tuple(splits))


SMALL_SYNTH = SynthConfig(
    dim=8,
    num_prototypes=12,
    languages=(
        SynthLanguage("L0", 8, 0.6),
        SynthLanguage("L1", 8, 0.6),
        SynthLanguage("T0", 8, 0.6, "test"),
    ),
    noise_sigma=0.1,
    utterances_per_language=60,
    segments_per_utterance=(6, 10),
    frames_per_segment=(3, 6),
    seed=11,
)


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    generate_corpus(SMALL_SYNTH, out)
    return out


@pytest.fixture(scope="session")
def small_corpus(small_corpus_dir):
    return load_corpus(small_corpus_dir / "manifest.json")


@pytest.fixture(scope="session")
def small_ground_truth(small_corpus_dir):
    from xpq.synth import load_ground_truth

    return load_ground_truth(small_corpus_dir / "ground_truth.json")
