import numpy as np
import pytest

from xpq.datamodel import (
    Corpus,
    CorpusManifest,
    FeatureSpec,
    ManifestEntry,
    Utterance,
    load_corpus,
)
from xpq.synth import SynthConfig, SynthLanguage, generate_corpus


def make_utterance(uid, language, features, segments, phoneme_set, dtype=np.float32):
    """Hand-built utterance; segments are (phoneme, start, end) triples, held
    as load_alignment holds them, with each phoneme's row in phoneme_set."""
    alignment = np.array(
        [(start, end, phoneme_set.index(ph)) for ph, start, end in segments], dtype=np.int64
    ).reshape(-1, 3)
    alignment.flags.writeable = False
    return Utterance(uid, language, np.asarray(features, dtype=dtype), alignment)


def symbols(utterance, phoneme_set):
    """The phoneme symbols of the utterance's alignment rows in phoneme_set."""
    return {phoneme_set.phonemes[r] for r in utterance.alignment[:, 2].tolist()}


def coverage_masks(batch, phoneme_set):
    """split_with_coverage's masks= and phoneme_set= keywords for batch, whose
    alignment rows are phoneme_set's: bit r of a mask is row r."""
    masks = [sum(1 << r for r in set(u.alignment[:, 2].tolist())) for u in batch]
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
