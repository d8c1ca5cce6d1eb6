import numpy as np
import pytest

from xpq.datamodel import (
    Corpus,
    CorpusManifest,
    FeatureSpec,
    LanguagePhonemeSet,
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


def symbols(utterance):
    """The phoneme symbols of the utterance's alignment."""
    return {seg.phoneme for seg in utterance.alignment}


def coverage_masks(batch, phonemes=None):
    """split_with_coverage's masks= and phoneme_set= keywords for batch: bit r
    of an utterance's mask is row r of a phoneme set whose rows are
    `phonemes`, by default the batch's symbols in sorted order."""
    if phonemes is None:
        phonemes = sorted(set().union(*map(symbols, batch)))
    phoneme_set = LanguagePhonemeSet("x", tuple(phonemes))
    masks = [sum(1 << phoneme_set.index(ph) for ph in symbols(u)) for u in batch]
    return {"masks": masks, "phoneme_set": phoneme_set}


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
