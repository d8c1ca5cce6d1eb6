import numpy as np
import pytest

from xpq.codebook import CodebookConfig, init_params
from xpq.datamodel import LanguagePhonemeSet, namespaced
from xpq.errors import CoverageError, UndefinedScoreError, VocabularyError
from xpq.mapping import (
    MappingScores,
    build_score_table,
    covering_sentences,
    top_k_mappings,
    write_mapping_tsv,
    write_scores_json,
)

from conftest import make_corpus, make_utterance, symbols
from oracle import mapping_score

PS = LanguagePhonemeSet("x", ("a", "b", "c"))


def _cover_corpus():
    utts = [
        make_utterance("all", "x", np.ones((3, 2)), [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)], PS),
        make_utterance("ab", "x", np.ones((2, 2)), [("a", 0, 1), ("b", 1, 2)], PS),
        make_utterance("c1", "x", np.ones((1, 2)), [("c", 0, 1)], PS),
        make_utterance("a1", "x", np.ones((1, 2)), [("a", 0, 1)], PS),
    ]
    return make_corpus([PS], utts)


class TestCoveringSentences:
    def test_single_covering_utterance(self):
        corpus = _cover_corpus()
        utts = covering_sentences(corpus, "x", 1, np.random.default_rng(0))
        assert [u.id for u in utts] == ["all"]

    def test_cover_larger_than_target_is_returned_whole(self):
        utts = [
            make_utterance("a1", "x", np.ones((1, 2)), [("a", 0, 1)], PS),
            make_utterance("b1", "x", np.ones((1, 2)), [("b", 0, 1)], PS),
            make_utterance("c1", "x", np.ones((1, 2)), [("c", 0, 1)], PS),
        ]
        corpus = make_corpus([PS], utts)
        chosen = covering_sentences(corpus, "x", 1, np.random.default_rng(0))
        assert len(chosen) == 3
        covered = set().union(*(symbols(u, PS) for u in chosen))
        assert covered == {"a", "b", "c"}

    def test_random_fill_reaches_target(self):
        corpus = _cover_corpus()
        utts = covering_sentences(corpus, "x", 3, np.random.default_rng(0))
        assert len(utts) == 3
        assert utts[0].id == "all"

    def test_uncoverable_phoneme_named(self):
        utts = [make_utterance("a1", "x", np.ones((1, 2)), [("a", 0, 1)], PS)]
        corpus = make_corpus([PS], utts)
        with pytest.raises(CoverageError, match="'b', 'c'"):
            covering_sentences(corpus, "x", 2, np.random.default_rng(0))

    def test_deterministic_under_seed(self, small_corpus):
        u1 = covering_sentences(small_corpus, "L0", 20, np.random.default_rng(9))
        u2 = covering_sentences(small_corpus, "L0", 20, np.random.default_rng(9))
        assert [u.id for u in u1] == [u.id for u in u2]

    def test_coverage_post_hoc(self, small_corpus):
        utts = covering_sentences(small_corpus, "T0", 10, np.random.default_rng(0))
        ps = small_corpus.phoneme_set("T0")
        covered = set().union(*(symbols(u, ps) for u in utts))
        assert covered == set(ps.phonemes)


class TestMappingScore:
    def test_identical_records_score_one(self):
        rec = np.random.default_rng(0).dirichlet(np.ones(6), size=2)
        assert mapping_score(rec, rec) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_one_hot_rows_score_zero(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert mapping_score(a, b) == 0.0

    def test_head_average(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])  # head cosines 1.0 and 0.0
        assert mapping_score(a, b) == pytest.approx(0.5)

    def test_zero_norm_rejected(self):
        a = np.zeros((2, 3))
        with pytest.raises(UndefinedScoreError):
            mapping_score(a, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mapping_score(np.ones((2, 3)), np.ones((3, 3)))


@pytest.fixture(scope="module")
def table(small_corpus):
    params = init_params(CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8), 0)
    return build_score_table(small_corpus, params, target_count=30)


class TestScoreTable:
    def test_symmetry_and_unit_diagonal(self, table):
        assert np.array_equal(table.matrix, table.matrix.T)
        assert np.all(np.diag(table.matrix) == 1.0)
        assert table.matrix.min() >= -1.0 and table.matrix.max() <= 1.0

    def test_scores_match_standalone_function(self, small_corpus, table):
        # cross-check a handful of pairs against the pairwise oracle
        params = init_params(CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8), 0)
        from xpq.codebook import forward
        from xpq.queries import aggregate_queries

        records = {}
        shared_rng = np.random.default_rng(0)  # one stream, as build_score_table uses
        for lang in small_corpus.language_ids:
            ps = small_corpus.phoneme_set(lang)
            cover = covering_sentences(small_corpus, lang, 30, shared_rng)
            qm = aggregate_queries(cover, ps)
            _, rec = forward(params, qm.matrix)
            for i in np.flatnonzero(qm.present):
                records[namespaced(lang, ps.phonemes[i])] = rec.weights[:, i, :]
        rng = np.random.default_rng(1)
        for _ in range(10):
            p, q = rng.choice(table.phonemes, 2, replace=False)
            assert table.matrix[table.index(p), table.index(q)] == pytest.approx(
                mapping_score(records[p], records[q]), abs=1e-9
            )

    def test_relabeling_codebook_entries_preserves_scores(self, small_corpus):
        cfg = CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8)
        params = init_params(cfg, 0)
        permuted = params.copy()
        perm = np.random.default_rng(2).permutation(cfg.n)
        permuted.keys = permuted.keys[:, perm, :]
        permuted.codes = permuted.codes[:, perm, :]
        t1 = build_score_table(small_corpus, params, target_count=20)
        t2 = build_score_table(small_corpus, permuted, target_count=20)
        np.testing.assert_allclose(t1.matrix, t2.matrix, atol=1e-9)

    def test_unknown_phoneme_rejected(self, table):
        with pytest.raises(VocabularyError):
            table.index("zz-nope")


class TestTopK:
    def _table(self):
        phonemes = ("A-p", "B-q1", "B-q2", "A-r")
        languages = ("A", "B", "B", "A")
        matrix = np.eye(4)
        scores = {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.95}
        for (i, j), s in scores.items():
            matrix[i, j] = matrix[j, i] = s
        return MappingScores(phonemes, languages, matrix)

    def test_cross_language_exclusion(self):
        top = top_k_mappings(self._table(), "A-p", k=5)
        assert [p for p, _ in top] == ["B-q1", "B-q2"]

    def test_k_larger_than_candidates(self):
        top = top_k_mappings(self._table(), "B-q1", k=99)
        assert len(top) == 2  # only the two A-phonemes qualify

    def test_tie_break_by_canonical_order(self):
        matrix = np.eye(3)
        matrix[0, 1] = matrix[1, 0] = 0.5
        matrix[0, 2] = matrix[2, 0] = 0.5
        t = MappingScores(("A-p", "B-x", "B-y"), ("A", "B", "B"), matrix)
        assert [p for p, _ in top_k_mappings(t, "A-p", k=2)] == ["B-x", "B-y"]


def test_ground_truth_recovery_with_untrained_params(small_corpus, small_ground_truth):
    # identical prototypes give nearly identical queries, hence nearly identical
    # attention rows even before training; top-1 must already recover most links
    params = init_params(CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8), 3)
    scores = build_score_table(small_corpus, params, target_count=40)
    shared = []
    for p in scores.phonemes:
        proto = small_ground_truth[p]
        lang = p.split("-", 1)[0]
        twins = [
            q
            for q, other in small_ground_truth.items()
            if q != p and not q.startswith(f"{lang}-") and other == proto
        ]
        if twins:
            shared.append((p, proto))
    assert len(shared) >= 10
    hits = 0
    for p, proto in shared:
        top1 = top_k_mappings(scores, p, k=1)[0][0]
        hits += small_ground_truth[top1] == proto
    assert hits / len(shared) >= 0.8


def test_writers(tmp_path, small_corpus):
    params = init_params(CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=8), 0)
    scores = build_score_table(small_corpus, params, target_count=20)
    write_mapping_tsv(scores, tmp_path / "mapping.tsv", k=3)
    write_scores_json(scores, tmp_path / "scores.json")
    lines = (tmp_path / "mapping.tsv").read_text().splitlines()
    assert lines[0].startswith("#")
    first = lines[1].split("\t")
    assert len(first) == 4 and first[1] == "1"
    import json

    obj = json.loads((tmp_path / "scores.json").read_text())
    assert len(obj["phonemes"]) == len(obj["scores"])
