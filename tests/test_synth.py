import dataclasses
import filecmp

import numpy as np
import pytest

from xpq.datamodel import load_corpus, load_feature_file, namespaced, validate_corpus
from xpq.errors import ConfigError, FormatError
from xpq.synth import SynthConfig, SynthLanguage, generate_corpus, load_ground_truth

from conftest import SMALL_SYNTH, symbols


def test_same_seed_bitwise_identical(tmp_path):
    cfg = dataclasses.replace(SMALL_SYNTH, utterances_per_language=20)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(cfg, tmp_path / "b")
    for rel in ("manifest.json", "ground_truth.json", "features/L0_0000.xpqf",
                "alignments/T0_0019.tsv", "prototypes.xpqf"):
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel


def test_distinct_seeds_differ(tmp_path):
    cfg = dataclasses.replace(SMALL_SYNTH, utterances_per_language=20)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(dataclasses.replace(cfg, seed=12), tmp_path / "b")
    assert not filecmp.cmp(
        tmp_path / "a" / "features/L0_0000.xpqf",
        tmp_path / "b" / "features/L0_0000.xpqf",
        shallow=False,
    )


def test_zero_noise_frames_equal_prototype(tmp_path):
    cfg = dataclasses.replace(
        SMALL_SYNTH, noise_sigma=0.0, utterances_per_language=10,
        languages=(SynthLanguage("L0", 6, 0.0),),
    )
    generate_corpus(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "manifest.json")
    protos = load_feature_file(tmp_path / "prototypes.xpqf")
    gt = load_ground_truth(tmp_path / "ground_truth.json")
    utt = corpus.utterances[0]
    phonemes = corpus.phoneme_set("L0").phonemes
    for start, end, row in utt.alignment.tolist():
        proto = protos[gt[namespaced("L0", phonemes[row])]]
        block = utt.features[start:end]
        assert np.array_equal(block, np.tile(proto, (end - start, 1)))


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[]", "must be an object of integer values"),
        ('{"L0-ph00": 1, "L0-ph01": "2"}', "must be an object of integer values"),
        ('{"L0-ph00": 1,', "not valid JSON"),
        ('{"L0-ph00": 1, "L0-ph01": -1}', "prototype index of 'L0-ph01' must be >= 0, got -1"),
        ('{"L0-ph00": +1}', "not valid JSON"),
        ('{"L0-ph00": 1_0}', "not valid JSON"),
        ('{"L0-ph00": 01}', "not valid JSON"),
    ],
)
def test_malformed_ground_truth_is_one_format_error(tmp_path, text, problem):
    path = tmp_path / "ground_truth.json"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_ground_truth(path)
    assert str(info.value).startswith(f"ground truth {path}: {problem}")


def test_full_sharing_is_bijection(tmp_path):
    # two languages, shared_fraction 1.0, m == P: the second language's
    # prototype assignment must be a bijection onto the first language's
    cfg = SynthConfig(
        dim=4,
        num_prototypes=6,
        languages=(SynthLanguage("A", 6, 1.0), SynthLanguage("B", 6, 1.0)),
        utterances_per_language=10,
        segments_per_utterance=(6, 10),
        frames_per_segment=(2, 4),
        seed=5,
    )
    _, gt = generate_corpus(cfg, tmp_path)
    a_protos = sorted(v for k, v in gt.items() if k.startswith("A-"))
    b_protos = sorted(v for k, v in gt.items() if k.startswith("B-"))
    assert len(set(b_protos)) == 6
    assert a_protos == b_protos


def test_every_phoneme_in_training_split(small_corpus_dir):
    corpus = load_corpus(small_corpus_dir / "manifest.json")
    for lang in ("L0", "L1"):
        ps = corpus.phoneme_set(lang)
        seen = set()
        for utt in corpus.by_language(lang, "train"):
            seen |= symbols(utt, ps)
        assert seen == set(ps.phonemes)
    ps = corpus.phoneme_set("T0")
    seen = set()
    for utt in corpus.by_language("T0"):
        seen |= symbols(utt, ps)
    assert seen == set(ps.phonemes)


def test_generated_corpus_validates(small_corpus_dir):
    from xpq.datamodel import load_manifest

    assert validate_corpus(load_manifest(small_corpus_dir / "manifest.json")).ok


def test_m_exceeding_pool_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(num_prototypes=4, languages=(SynthLanguage("A", 5, 0.5),))


def test_infeasible_sharing_rejected(tmp_path):
    # second language wants more shared prototypes than the first put in use
    cfg = SynthConfig(
        dim=4,
        num_prototypes=20,
        languages=(SynthLanguage("A", 2, 0.0), SynthLanguage("B", 10, 0.9)),
        utterances_per_language=8,
        segments_per_utterance=(8, 12),
        frames_per_segment=(2, 4),
    )
    with pytest.raises(ConfigError, match="shared"):
        generate_corpus(cfg, tmp_path)


def test_shared_fraction_creates_cross_language_links(small_ground_truth):
    by_lang = {}
    for key, proto in small_ground_truth.items():
        lang = key.split("-", 1)[0]
        by_lang.setdefault(lang, set()).add(proto)
    # with shared_fraction 0.6 every later language overlaps earlier ones
    assert by_lang["L1"] & by_lang["L0"]
    assert by_lang["T0"] & (by_lang["L0"] | by_lang["L1"])


def test_default_config_shape():
    cfg = SynthConfig()
    assert cfg.dim == 16 and cfg.num_prototypes == 24
    roles = [l.role for l in cfg.languages]
    assert roles.count("train") == 4 and roles.count("test") == 2
    assert all(l.m == 20 and l.shared_fraction == 0.6 for l in cfg.languages)
