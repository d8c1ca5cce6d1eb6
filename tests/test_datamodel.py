import dataclasses
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import xpq.decoder
import xpq.queries
from xpq.datamodel import (
    FEATURE_MAGIC,
    CorpusManifest,
    FeatureSpec,
    LanguagePhonemeSet,
    ManifestEntry,
    _file_path,
    load_alignment,
    load_corpus,
    load_feature_file,
    load_manifest,
    namespaced,
    save_alignment,
    save_feature_file,
    save_manifest,
    validate_corpus,
)
from xpq.decoder import PhonemeStats, build_frame_bundle
from xpq.errors import (
    FormatError,
    TruncationError,
    ValidationError,
    VocabularyError,
    XpqError,
)
from xpq.kernels import frame_residual_stats
from xpq.queries import phoneme_rep_matrix
from xpq.synth import SynthConfig, SynthLanguage, generate_corpus

from conftest import SMALL_SYNTH, make_corpus, make_utterance


class TestFeatureFile:
    def test_declared_layout(self, tmp_path):
        # hand-assembled file: header + row-major payload [1..6] as 2x3
        path = tmp_path / "f.xpqf"
        payload = np.arange(1, 7, dtype="<f4").tobytes()
        path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 1, 2, 3) + payload)
        assert np.array_equal(load_feature_file(path), [[1, 2, 3], [4, 5, 6]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.xpqf"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "f.xpqf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.xpqf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 1, 2, 3) + b"\x00" * 8)
        with pytest.raises(TruncationError):
            load_feature_file(path)

    def test_non_finite_rejected_on_load(self, tmp_path):
        path = tmp_path / "f.xpqf"
        payload = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 1, 1, 1) + payload)
        with pytest.raises(ValidationError):
            load_feature_file(path)

    def test_non_finite_rejected_on_save(self, tmp_path):
        with pytest.raises(ValidationError):
            save_feature_file(np.array([[np.inf]]), tmp_path / "f.xpqf")

    def test_single_value_file_size(self, tmp_path):
        # header is magic(4) + version(4) + rows(4) + cols(4) = 16 bytes, payload 4
        path = tmp_path / "f.xpqf"
        save_feature_file(np.array([[0.5]], dtype=np.float32), path)
        assert path.stat().st_size == 20
        assert np.array_equal(load_feature_file(path), [[0.5]])

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((17, 5)).astype(np.float32)
        save_feature_file(mat, tmp_path / "f.xpqf")
        assert np.array_equal(load_feature_file(tmp_path / "f.xpqf"), mat)

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(
                float(np.float32(-1e30)),
                float(np.float32(1e30)),
                width=32,
                allow_subnormal=False,
            ),
        )
    )
    def test_round_trip_property(self, tmp_path_factory, mat):
        path = tmp_path_factory.mktemp("rt") / "f.xpqf"
        save_feature_file(mat, path)
        assert np.array_equal(load_feature_file(path), mat)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_feature_file(np.ones((1, 1)), tmp_path / "missing_dir" / "f.xpqf")


AB = LanguagePhonemeSet("L", ("a", "b"))


class TestAlignment:
    def test_parse_two_segments(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("a\t0\t3\nb\t3\t5\n")
        assert load_alignment(path, AB).tolist() == [[0, 3, 0], [3, 5, 1]]

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("a\t0\t3\nb\t2\t5\n")
        with pytest.raises(ValidationError):
            load_alignment(path, AB)

    def test_unknown_phoneme_named(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("zz\t0\t1\n")
        with pytest.raises(VocabularyError, match="zz"):
            load_alignment(path, AB)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("# header\na\t0\t3\n\nb\t3\t5\n")
        assert len(load_alignment(path, AB)) == 2

    def test_empty_segment_rejected(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("a\t3\t3\n")
        with pytest.raises(ValidationError):
            load_alignment(path, AB)

    def test_round_trip_identity(self, tmp_path):
        table = np.array([[0, 3, 0], [5, 9, 1], [9, 10, 0]])
        save_alignment(table, AB, tmp_path / "a.tsv")
        assert (tmp_path / "a.tsv").read_text() == "a\t0\t3\nb\t5\t9\na\t9\t10\n"
        assert load_alignment(tmp_path / "a.tsv", AB).tolist() == table.tolist()

    def test_an_index_past_int64_is_one_validation_error(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text(f"a\t0\t{2**63}\n")
        with pytest.raises(ValidationError, match="must be below 2\\*\\*63"):
            load_alignment(path, AB)

    def test_loaded_alignments_are_read_only_int64_tables(self, small_corpus, tmp_path):
        for utt in small_corpus.utterances:
            table = utt.alignment
            assert table.dtype == np.int64 and table.ndim == 2 and table.shape[1] == 3
            assert len(table) and not table.flags.writeable
        path = tmp_path / "a.tsv"
        path.write_text("# no segment\n")
        empty = load_alignment(path, AB)
        assert empty.shape == (0, 3) and empty.dtype == np.int64
        assert not empty.flags.writeable

    def test_gaps_are_allowed(self, tmp_path):
        # forced aligners leave silence between segments; gaps are legal
        path = tmp_path / "a.tsv"
        path.write_text("a\t0\t2\nb\t7\t9\n")
        assert len(load_alignment(path, AB)) == 2


# An index spelled in a grammar wider than the documented -?[0-9]+: every
# spelling here is one int() reads, and only "plain" and "zeros" are in the
# documented grammar ("minus" is, too, but is then a range fault unless the
# value is 0).
SPELLINGS = ("plain",) * 8 + ("zeros", "minus", "plus", "underscore", "space", "nbsp", "digits")
# the zero of full-width, Arabic-Indic, Devanagari and mathematical bold digits
NON_ASCII_ZEROS = (0xFF10, 0x0660, 0x0966, 0x1D7CE)


@st.composite
def spelled_index(draw, value: int) -> str:
    text = str(value)
    how = draw(st.sampled_from(SPELLINGS))
    if how == "zeros":
        return "0" * draw(st.integers(1, 3)) + text
    if how == "minus":
        return "-" + text
    if how == "plus":
        return "+" + text
    if how == "underscore":  # int() reads "1_2" as 12 and "0_5" as 5
        return text[0] + "_" + text[1:] if len(text) > 1 else "0_" + text
    if how in ("space", "nbsp"):
        pad = " " if how == "space" else "\u00a0"
        return draw(st.sampled_from([pad + text, text + pad]))
    if how == "digits":
        zero = draw(st.sampled_from(NON_ASCII_ZEROS))
        return "".join(chr(zero + int(c)) for c in text)
    return text


@st.composite
def spelled_alignments(draw):
    """Alignment lines whose segments are sorted and non-empty by value,
    their indices spelled by spelled_index; a gap may jump to near 2**63."""
    lines, cursor = [], 0
    for _ in range(draw(st.integers(0, 5))):
        start = cursor + draw(st.sampled_from([0, 0, 1, 2, 3, 2**63 - 3]))
        cursor = start + draw(st.integers(1, 3))
        symbol = draw(st.sampled_from(AB.phonemes))
        lines.append(
            f"{symbol}\t{draw(spelled_index(start))}\t{draw(spelled_index(cursor))}"
        )
    return lines


def _documented_table(lines):
    """The (start, end, row) table the documented grammar and range checks
    give the lines, or None when they refuse one: each index is ASCII
    -?[0-9]+ below 2**63, start >= 0, start < end, and each start is at or
    past the previous end."""
    table = []
    for line in lines:
        symbol, *indices = line.split("\t")
        if not all(re.fullmatch(r"-?[0-9]+", text) for text in indices):
            return None
        start, end = map(int, indices)
        if not 0 <= start < end < 2**63 or (table and start < table[-1][1]):
            return None
        table.append([start, end, AB.index(symbol)])
    return table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=spelled_alignments())
@example(lines=["a\t-0\t007", "b\t0007\t8"])  # in the grammar: [0, 7), [7, 8)
@example(lines=["a\t0\t1", "b\t1\t\uff12"])  # full-width 2
def test_alignment_loader_accepts_exactly_the_documented_grammar(tmp_path_factory, lines):
    """load_alignment accepts a file exactly when every index is -?[0-9]+ and
    the range checks pass, and reads the documented values; any other file
    is one ValidationError. An accepted table saved back loads to itself."""
    path = tmp_path_factory.getbasetemp() / "spelled.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want = _documented_table(lines)
    if want is None:
        with pytest.raises(ValidationError):
            load_alignment(path, AB)
        return
    table = load_alignment(path, AB)
    assert table.tolist() == want
    saved = tmp_path_factory.getbasetemp() / "saved.tsv"
    save_alignment(table, AB, saved)
    assert load_alignment(saved, AB).tolist() == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    root=st.sampled_from(["", ".", "/", "//", "a", "a/b", "/a", "../a"])
    | st.text(alphabet="a./", max_size=6),
    rel=st.text(alphabet="a./", max_size=8),
)
def test_entry_file_paths_are_the_path_join(root, rel):
    """check_entry opens, and names in its messages, exactly str(root / rel)."""
    assert _file_path(Path(root), rel) == str(Path(root) / rel)


class TestPhonemeSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            LanguagePhonemeSet("x", ("a", "a"))

    def test_namespacing(self):
        ps = LanguagePhonemeSet("en", ("AA0",))
        assert ps.index("AA0") == 0
        assert namespaced(ps.language, "AA0") == "en-AA0"
        with pytest.raises(VocabularyError):
            ps.index("ZZ")


class TestManifest:
    def _manifest(self):
        return CorpusManifest(
            FeatureSpec(4, 100.0),
            (LanguagePhonemeSet("L0", ("a", "b")),),
            (ManifestEntry("u0", "L0", "features/u0.xpqf", "alignments/u0.tsv", "train"),),
        )

    def test_round_trip(self, tmp_path):
        save_manifest(self._manifest(), tmp_path / "manifest.json")
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.feature_spec.dim == 4
        assert loaded.languages[0].phonemes == ("a", "b")
        assert loaded.entries[0].id == "u0"
        assert loaded.root == tmp_path

    def test_unknown_keys_rejected(self, tmp_path):
        save_manifest(self._manifest(), tmp_path / "manifest.json")
        obj = json.loads((tmp_path / "manifest.json").read_text())
        obj["extra"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="extra"):
            load_manifest(tmp_path / "manifest.json")

    def _indented(self, tmp_path, edit):
        """An indent=2 manifest of four entries after edit(obj); (path, its lines)."""
        manifest = self._manifest()
        entries = tuple(dataclasses.replace(manifest.entries[0], id=f"u{i}") for i in range(4))
        path = tmp_path / "manifest.json"
        save_manifest(dataclasses.replace(manifest, entries=entries), path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj, indent=2))
        return path, path.read_text().splitlines()

    def test_mistyped_value_names_file_path_and_line(self, tmp_path):
        path, lines = self._indented(tmp_path, lambda obj: obj["feature_spec"].update(dim=6.5))
        line = lines.index('    "dim": 6.5,') + 1
        message = f"manifest {path}: feature_spec.dim must be an integer, got 6.5 (line {line})"
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert str(err.value) == message

    def test_unknown_entry_key_names_file_path_and_line(self, tmp_path):
        path, lines = self._indented(tmp_path, lambda obj: obj["entries"][3].update(extra=1))
        line = lines.index('      "extra": 1') + 1
        message = f"manifest {path}: entries[3]: unknown key 'extra' (line {line})"
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert str(err.value) == message

    def test_bad_split_rejected(self):
        with pytest.raises(ValidationError):
            ManifestEntry("u0", "L0", "f", "a", "dev")

    def test_bad_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "manifest.json")


class TestValidateCorpus:
    def test_clean_synthetic_corpus(self, tmp_path):
        manifest, _ = generate_corpus(SMALL_SYNTH, tmp_path)
        report = validate_corpus(manifest)
        assert report.ok, str(report)

    def test_dim_mismatch_reported_once(self, tmp_path):
        manifest, _ = generate_corpus(SMALL_SYNTH, tmp_path)
        bad = manifest.entries[0]
        save_feature_file(
            np.zeros((3, SMALL_SYNTH.dim + 1), dtype=np.float32),
            tmp_path / bad.feature_path,
        )
        report = validate_corpus(manifest)
        dim_issues = [i for i in report.issues if "dim" in i.message]
        assert len(dim_issues) == 1 and dim_issues[0].utterance_id == bad.id

    def test_alignment_beyond_frames_reported(self, tmp_path):
        manifest, _ = generate_corpus(SMALL_SYNTH, tmp_path)
        bad = manifest.entries[1]
        save_alignment(
            np.array([[0, 10_000, 0]]), manifest.phoneme_set(bad.language),
            tmp_path / bad.alignment_path,
        )
        report = validate_corpus(manifest)
        assert any(i.utterance_id == bad.id and "frames" in i.message for i in report.issues)

    def test_report_order_stable(self, tmp_path):
        manifest, _ = generate_corpus(SMALL_SYNTH, tmp_path)
        for k in (0, 3):
            save_feature_file(
                np.zeros((2, SMALL_SYNTH.dim + 1), dtype=np.float32),
                tmp_path / manifest.entries[k].feature_path,
            )
        r1 = validate_corpus(manifest)
        r2 = validate_corpus(manifest)
        assert [str(i) for i in r1.issues] == [str(i) for i in r2.issues]
        assert r1.issues[0].utterance_id == manifest.entries[0].id

    def test_duplicate_ids_rejected_by_load_and_validate(self, tmp_path):
        manifest, _ = generate_corpus(SMALL_SYNTH, tmp_path)
        first, second = manifest.entries[:2]
        entries = (first, dataclasses.replace(second, id=first.id), *manifest.entries[2:])
        dup = dataclasses.replace(manifest, entries=entries)
        with pytest.raises(ValidationError, match="duplicate utterance id"):
            load_corpus(dup)
        report = validate_corpus(dup)
        assert [(i.utterance_id, i.message) for i in report.issues] == [
            (first.id, "duplicate utterance id")
        ]

    def test_load_corpus_round_trip(self, small_corpus_dir):
        corpus = load_corpus(small_corpus_dir / "manifest.json")
        assert len(corpus.utterances) == 180
        assert set(corpus.language_ids) == {"L0", "L1", "T0"}
        assert len(corpus.by_language("T0", "test")) == 60
        train = corpus.by_language("L0", "train")
        val = corpus.by_language("L0", "val")
        assert len(train) + len(val) == 60 and len(val) == 6


class TestCorpusMemo:
    def test_load_derives_nothing(self, small_corpus_dir, monkeypatch):
        # the memo fills at first use, so a load never pays for it
        def refuse(*args, **kwargs):
            raise AssertionError("derived data built during load")

        monkeypatch.setattr(xpq.decoder, "build_frame_bundle", refuse)
        monkeypatch.setattr(xpq.queries, "phoneme_rep_matrix", refuse)
        corpus = load_corpus(small_corpus_dir / "manifest.json")
        assert len(corpus.utterances) == 180
        with pytest.raises(AssertionError, match="during load"):
            corpus.stats(corpus.utterances[:1])

    def test_stats_merges_the_rep_stack_rows(self, small_corpus):
        u1, u2 = small_corpus.by_language("L0", "val")[:2]
        stack = small_corpus.rep_stack("L0")
        rows = [stack.row[u1.id], stack.row[u2.id]]
        want = PhonemeStats.merge(stack.counts[rows], stack.reps[rows], stack.scatter[rows])
        for _ in range(2):  # built, then from the memo
            got = small_corpus.stats([u1, u2])
            assert small_corpus.rep_stack("L0") is stack
            for a, b in ((got.counts, want.counts), (got.means, want.means)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert got.scatter == want.scatter
        lengths = [u.alignment[:, 1] - u.alignment[:, 0] for u in (u1, u2)]
        assert got.n_frames == sum(int(n.sum()) for n in lengths)

    def test_stats_of_an_utterance_without_segments_add_no_frame(self):
        # an empty alignment is a valid corpus entry; it adds no covered frame
        ps = LanguagePhonemeSet("x", ("a", "b"))
        bare = make_utterance("bare", "x", np.ones((2, 1)), [], ps)
        full = make_utterance("full", "x", [[1.0], [2.0]], [("b", 0, 2)], ps)
        corpus = make_corpus([ps], [bare, full])
        got = corpus.stats([bare, full])
        assert got.counts.tolist() == [0, 2]
        assert got.means.tolist() == [[0.0], [1.5]]
        assert got.scatter == 0.5
        assert corpus.stats([bare]).n_frames == 0

    def test_queries_are_aggregate_queries_bit_for_bit(self, small_corpus):
        # random subsets of every language, in the order drawn
        for language in small_corpus.language_ids:
            pool = small_corpus.by_language(language)
            ps = small_corpus.phoneme_set(language)
            for k in (1, 4, 16, len(pool)):
                for seed in range(20):
                    idx = np.random.default_rng(seed).choice(len(pool), size=k, replace=False)
                    utts = [pool[i] for i in idx]
                    got = small_corpus.queries(utts)
                    want = xpq.queries.aggregate_queries(utts, ps)
                    assert got.matrix.dtype == want.matrix.dtype == np.float32
                    assert got.matrix.tobytes() == want.matrix.tobytes()
                    assert np.array_equal(got.present, want.present)

    def test_queries_keep_float64_features_and_skip_bare_utterances(self):
        ps = LanguagePhonemeSet("x", ("a", "b", "c"))
        utts = [
            make_utterance("bare", "x", np.ones((2, 2)), [], ps, dtype=np.float64),
            make_utterance("u", "x", [[0.1, 0.2], [0.3, 0.7]], [("b", 0, 2)], ps, np.float64),
        ]
        corpus = make_corpus([ps], utts)
        got, want = corpus.queries(utts), xpq.queries.aggregate_queries(utts, ps)
        assert got.matrix.dtype == np.float64
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.present.tolist() == [False, True, False]

    def test_gapless_bundles_are_read_only_views_of_the_features(self, small_corpus):
        # synthetic segments tile each utterance, so no frame is copied
        for utt in small_corpus.utterances:
            bundle = build_frame_bundle(utt)
            assert np.shares_memory(bundle.frames, utt.features)
            assert not bundle.frames.flags.writeable

    def test_a_gapped_bundle_copies_its_covered_frames(self):
        phoneme_set = LanguagePhonemeSet("x", ("a", "b"))
        features = np.arange(6.0)[:, None]
        gapped = make_utterance("gapped", "x", features, [("a", 0, 2), ("b", 3, 5)], phoneme_set)
        inner = make_utterance("inner", "x", features, [("a", 1, 2), ("b", 2, 4)], phoneme_set)
        frames = build_frame_bundle(gapped).frames
        assert not np.shares_memory(frames, gapped.features)
        assert frames[:, 0].tolist() == [0.0, 1.0, 3.0, 4.0]
        frames = build_frame_bundle(inner).frames
        assert np.shares_memory(frames, inner.features) and not frames.flags.writeable
        assert frames[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert inner.features.flags.writeable

    def test_rep_stack_is_phoneme_rep_matrix(self, small_corpus):
        """Every utterance of every split, bitwise: its reps and counts are
        phoneme_rep_matrix's, and its scatter the residual kernel's at those
        reps over its frame bundle."""
        for language in small_corpus.language_ids:
            phoneme_set = small_corpus.phoneme_set(language)
            utterances = small_corpus.by_language(language)
            stack = small_corpus.rep_stack(language)
            assert small_corpus.rep_stack(language) is stack
            assert stack.reps.shape == (len(utterances), phoneme_set.size, 8)
            assert stack.counts.shape == (len(utterances), phoneme_set.size)
            assert stack.counts.dtype == np.int64 and stack.scatter.shape == (len(utterances),)
            for u, utt in enumerate(utterances):
                bundle = build_frame_bundle(utt)
                reps, counts = phoneme_rep_matrix(bundle, phoneme_set.size)
                assert stack.row[utt.id] == u
                assert stack.reps[u].dtype == reps.dtype
                assert stack.reps[u].tobytes() == reps.tobytes()
                assert stack.counts[u].tobytes() == counts.tobytes()
                sq, _ = frame_residual_stats(bundle.frames, bundle.rows, reps)
                assert stack.scatter[u] == sq

    def test_masks_are_the_rows_each_alignment_covers(self, small_corpus):
        """Bit r of an utterance's mask is set exactly when its alignment has
        row r, which is when the rep stack counts frames in that row."""
        for language in small_corpus.language_ids:
            phoneme_set = small_corpus.phoneme_set(language)
            utterances = small_corpus.by_language(language)
            stack = small_corpus.rep_stack(language)
            for utt, mask in zip(utterances, small_corpus.masks(utterances)):
                bits = {r for r in range(phoneme_set.size) if mask >> r & 1}
                assert bits == set(utt.alignment[:, 2].tolist())
                assert bits == set(np.flatnonzero(stack.counts[stack.row[utt.id]]).tolist())

    def test_masks_follow_row_order_and_give_empty_alignments_zero(self):
        phoneme_set = LanguagePhonemeSet("x", ("c", "a", "b"))
        utterances = [
            make_utterance("bc", "x", np.ones((3, 1)), [("b", 0, 1), ("c", 1, 3)], phoneme_set),
            make_utterance("bare", "x", np.ones((2, 1)), [], phoneme_set),
            make_utterance("aaa", "x", np.ones((3, 1)), [("a", 0, 1), ("a", 2, 3)], phoneme_set),
        ]
        corpus = make_corpus([phoneme_set], utterances)
        assert corpus.masks(utterances) == [0b101, 0, 0b010]
        assert corpus.masks(utterances[::-1]) == [0b010, 0, 0b101]
        assert corpus.masks([]) == []
        assert phoneme_set.mask_symbols(0b101) == ["b", "c"]
        assert phoneme_set.mask_symbols(0) == []


TINY_SYNTH = SynthConfig(
    dim=4,
    num_prototypes=6,
    languages=(SynthLanguage("L0", 4, 0.5), SynthLanguage("T0", 4, 0.5, "test")),
    utterances_per_language=3,
    segments_per_utterance=(4, 6),
    frames_per_segment=(2, 3),
    seed=3,
)
TINY_ENTRIES = 6


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_corpus")
    manifest, _ = generate_corpus(TINY_SYNTH, out)
    assert len(manifest.entries) == TINY_ENTRIES
    return out


def _append(path, line: bytes) -> None:
    if path.exists():
        path.write_bytes(path.read_bytes() + line)


def _corrupt(manifest, kind: str, i: int):
    """Apply one fault to entry i; returns the (possibly edited) manifest."""
    entry = manifest.entries[i]
    features = manifest.root / entry.feature_path
    alignment = manifest.root / entry.alignment_path
    if kind == "missing file":
        features.unlink(missing_ok=True)
    elif kind == "bad magic" and features.exists():
        features.write_bytes(b"XXXX" + features.read_bytes()[4:])
    elif kind == "truncated payload" and features.exists():
        features.write_bytes(features.read_bytes()[:-4])
    elif kind == "wrong dim":
        save_feature_file(np.zeros((3, TINY_SYNTH.dim + 1), dtype=np.float32), features)
    elif kind == "non-UTF-8 alignment" and alignment.exists():
        alignment.write_bytes(b"\xff\xfe" + alignment.read_bytes())
    elif kind == "unknown phoneme":
        _append(alignment, b"zz\t900\t901\n")
    elif kind == "overlapping segments":
        _append(alignment, b"ph00\t0\t1\n")
    elif kind == "alignment past last frame":
        _append(alignment, b"ph00\t900\t901\n")
    elif kind in ("undefined language", "duplicate id"):
        other = manifest.entries[(i + 1) % len(manifest.entries)]
        edit = {"language": "nope"} if kind == "undefined language" else {"id": other.id}
        entries = list(manifest.entries)
        entries[i] = dataclasses.replace(entry, **edit)
        manifest = dataclasses.replace(manifest, entries=tuple(entries))
    return manifest


FAULTS = (
    "missing file",
    "bad magic",
    "truncated payload",
    "wrong dim",
    "non-UTF-8 alignment",
    "unknown phoneme",
    "overlapping segments",
    "alignment past last frame",
    "undefined language",
    "duplicate id",
)


class TestValidateAgreesWithLoad:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.sampled_from(FAULTS), st.integers(0, TINY_ENTRIES - 1)), max_size=3
        )
    )
    def test_validate_ok_exactly_when_load_succeeds(
        self, tiny_corpus_dir, tmp_path_factory, faults
    ):
        root = tmp_path_factory.mktemp("faulty") / "corpus"
        shutil.copytree(tiny_corpus_dir, root)
        manifest = load_manifest(root / "manifest.json")
        for kind, i in faults:
            manifest = _corrupt(manifest, kind, i)
        report = validate_corpus(manifest)
        assert report.ok == (not faults), str(report)
        try:
            load_corpus(manifest)
        except (XpqError, OSError) as e:
            assert not report.ok
            assert str(e) == str(report.issues[0])
        else:
            assert report.ok
