"""Production hot paths against the reference versions in oracle.py.

A bitwise pair has the same bytes, dtype and shape. Inputs include the edge
cases the rewrites could treat differently: m=1, n=1, one head, repeated
rows, all-zero query rows, one-frame segments, the exact-zero residual,
m * dim == 1 with many utterances, and 1-element Adam tensors. The
frame-loop pairs are bitwise except for sums whose add order differs; those
hold to a tolerance set from float64's epsilon and the number of terms, which
bounds the rounding error of either order. The per-phoneme statistics pair,
a loss step on Corpus.stats against the oracle's step on the group's frames,
holds the loss to 1e-12 relative and the gradients to a stated multiple of
their dtype's epsilon; fine-tuning on statistics against the frame oracle is
bitwise at step 0 and holds to measured tolerances after it. The alignment
parser pair is exact: the same segments, or the same exception class with the
same message. The coverage pairs (the training split, sample_task and
covering_sentences on phoneme bitmasks against symbol sets) are exact over
drawn pools that include empty alignments and unsorted phoneme rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from xpq import kernels
from xpq.adaptation import (
    MODES,
    AdaptConfig,
    TaskSpec,
    evaluate,
    finetune,
    init_embedding,
    sample_task,
)
from xpq.codebook import (
    CodebookConfig,
    CodebookGrads,
    EmbeddingTable,
    attention_backward,
    attention_forward,
    forward,
    init_params,
)
from xpq.datamodel import LanguagePhonemeSet, load_alignment
from xpq.decoder import DecoderParams, build_frame_bundle, init_decoder, loss_and_grads
from xpq.errors import CoverageError, TaskError, XpqError
from xpq.mapping import covering_sentences
from xpq.optim import adam_step, init_adam, scheduled_lr
from xpq.queries import QueryMatrix, aggregate_from_matrices, phoneme_rep_matrix
from xpq.trainer import split_with_coverage

from conftest import coverage_masks, make_corpus, make_utterance

ORACLE = settings(derandomize=True, max_examples=60, deadline=None)
# the frame-loop references run in pure Python: fewer, smaller examples
LOOP_ORACLE = settings(derandomize=True, max_examples=30, deadline=None)
DTYPES = st.sampled_from([np.float32, np.float64])
EPS = np.finfo(np.float64).eps


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@ORACLE
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 9),
    heads=st.integers(1, 4),
    d_k=st.integers(1, 6),
    d_v=st.integers(1, 6),
    dim=st.integers(1, 6),
    dtype=DTYPES,
    rows=st.sampled_from(["random", "repeated", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(20, 128, 4, 64, 64, 16, np.float32, "random", 0)  # production shape
@example(20, 128, 4, 64, 64, 16, np.float32, "zero", 1)
def test_attention_matches_per_head_oracle(m, n, heads, d_k, d_v, dim, dtype, rows, seed):
    rng = np.random.default_rng(seed)
    params = init_params(CodebookConfig(n, heads, d_k, d_v, dim), rng, dtype=dtype)
    q = rng.standard_normal((m, dim)).astype(dtype)
    if rows == "repeated":
        q = q[rng.integers(0, m, size=m)]
    elif rows == "zero":
        q[rng.random(m) < 0.5] = 0.0
    upstream = rng.standard_normal((m, heads * d_v)).astype(dtype)

    emb, record = attention_forward(params, q)
    emb_ref, weights_ref = oracle.attention_forward(params, q)
    assert_bitwise(emb, emb_ref)
    assert_bitwise(record.weights, weights_ref)

    grads = attention_backward(params, q, record, upstream)
    grads_ref = oracle.attention_backward(params, q, upstream)
    assert_bitwise(grads.w_q, grads_ref.w_q)
    assert_bitwise(grads.keys, grads_ref.keys)
    assert_bitwise(grads.codes, grads_ref.codes)


@ORACLE
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 9),
    heads=st.integers(1, 9),
    d_k=st.integers(1, 6),
    d_v=st.integers(1, 6),
    dim=st.integers(1, 6),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
@example(20, 128, 4, 64, 64, 16, np.float32, 0)  # production shape
def test_backward_into_given_arrays_is_the_allocating_backward(
    m, n, heads, d_k, d_v, dim, dtype, seed
):
    """Bitwise: gradients written into given arrays, as training writes them
    into Adam's views, are the same bytes, in those same arrays."""
    rng = np.random.default_rng(seed)
    params = init_params(CodebookConfig(n, heads, d_k, d_v, dim), rng, dtype=dtype)
    q = rng.standard_normal((m, dim)).astype(dtype)
    qm = QueryMatrix(q, np.ones(m, dtype=bool), "x", tuple(f"p{i}" for i in range(m)))
    _, record = forward(params, qm)
    upstream = rng.standard_normal((m, heads * d_v)).astype(dtype)

    want = attention_backward(params, q, record, upstream)
    names = ("w_q", "keys", "codes")
    given = {name: np.full_like(getattr(params, name), np.nan) for name in names}
    got = attention_backward(params, q, record, upstream, out=CodebookGrads(**given))
    for name in names:
        assert getattr(got, name) is given[name]
        assert_bitwise(given[name], getattr(want, name))


def _utterances(rng, n_utts, m, dim, dtype):
    """Random utterances over m phonemes; segments of 1-3 frames, gaps allowed."""
    phonemes = tuple(f"p{i}" for i in range(m))
    phoneme_set = LanguagePhonemeSet("x", phonemes)
    utts = []
    for u in range(n_utts):
        segments, cursor = [], int(rng.integers(0, 2))
        for _ in range(int(rng.integers(1, 5))):
            length = int(rng.integers(1, 4))
            segments.append((phonemes[rng.integers(0, m)], cursor, cursor + length))
            cursor += length + int(rng.integers(0, 2))
        features = rng.standard_normal((cursor, dim))
        utts.append(make_utterance(f"u{u}", "x", features, segments, phoneme_set, dtype=dtype))
    return phoneme_set, utts


@ORACLE
@given(
    n_utts=st.integers(1, 12),
    m=st.integers(1, 5),
    dim=st.integers(1, 4),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
# m * dim == 1: a single sum over the stacked reps would reduce pairwise
@example(n_utts=40, m=1, dim=1, dtype=np.float64, seed=2)
def test_aggregation_matches_masked_loop_oracle(n_utts, m, dim, dtype, seed):
    phoneme_set, utts = _utterances(np.random.default_rng(seed), n_utts, m, dim, dtype)
    rep_counts = [phoneme_rep_matrix(u, phoneme_set) for u in utts]
    stacked = tuple(np.stack(arrays) for arrays in zip(*rep_counts))
    got = aggregate_from_matrices(stacked, phoneme_set, dtype)
    want = oracle.aggregate_from_matrices(rep_counts, phoneme_set, dtype)
    assert_bitwise(got.matrix, want.matrix)
    assert_bitwise(got.present, want.present)


@ORACLE
@given(
    n_utts=st.sampled_from([1, 2, 8, 9, 33]),
    m=st.integers(1, 3),
    dim=st.integers(1, 3),
    dtype=DTYPES,
    presence=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_utts=33, m=1, dim=1, dtype=np.float64, presence=True, seed=2)  # m * dim == 1
@example(n_utts=33, m=2, dim=1, dtype=np.float64, presence=False, seed=3)
@example(n_utts=9, m=1, dim=3, dtype=np.float32, presence=True, seed=4)
def test_stacked_aggregation_matches_masked_loop_oracle(n_utts, m, dim, dtype, presence, seed):
    """Bitwise: one reduction over a (U, m, dim) rep stack, with counts (as
    Corpus.rep_stack holds) or a presence mask, adds the utterances in the
    loop's order, and the m * dim == 1 case stays a loop."""
    phoneme_set, utts = _utterances(np.random.default_rng(seed), n_utts, m, dim, dtype)
    rep_counts = [phoneme_rep_matrix(u, phoneme_set) for u in utts]
    reps = np.stack([r for r, _ in rep_counts])
    counts = np.stack([c for _, c in rep_counts])
    got = aggregate_from_matrices((reps, counts > 0 if presence else counts), phoneme_set, dtype)
    want = oracle.aggregate_from_matrices(rep_counts, phoneme_set, dtype)
    assert_bitwise(got.matrix, want.matrix)
    assert_bitwise(got.present, want.present)


@ORACLE
@given(
    n_utts=st.integers(1, 6),
    m=st.integers(1, 5),
    dim=st.integers(1, 4),
    dtype=DTYPES,
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_residual_matches_add_at_oracle(n_utts, m, dim, dtype, exact, seed):
    rng = np.random.default_rng(seed)
    phoneme_set, utts = _utterances(rng, n_utts, m, dim, dtype)
    bundle = oracle.build_frame_bundle(utts)
    preds = rng.standard_normal((m, dim)).astype(dtype)
    frames = preds[bundle.rows] if exact else bundle.frames
    sq, gsum = kernels.frame_residual_stats(frames, bundle.rows, preds)
    sq_ref, gsum_ref = oracle.frame_residual_stats(frames, bundle.rows, preds)
    assert type(sq) is float and sq == sq_ref
    assert_bitwise(gsum, gsum_ref)
    if exact:
        assert sq == 0.0 and not gsum.any()


def test_frame_residual_of_no_frames_matches_oracle():
    frames = np.zeros((0, 3), dtype=np.float32)
    rows = np.zeros(0, dtype=np.int64)
    preds = np.ones((2, 3), dtype=np.float32)
    sq, gsum = kernels.frame_residual_stats(frames, rows, preds)
    sq_ref, gsum_ref = oracle.frame_residual_stats(frames, rows, preds)
    assert sq == sq_ref == 0.0
    assert_bitwise(gsum, gsum_ref)


# a stats-path gradient element lies within GRAD_ULPS * eps(dtype) of its
# scale (see below); 4,000 random cases of the test's shapes gave at most 8.4
# (float64 tables) and 0.63 (float32 tables)
GRAD_ULPS = 16


@ORACLE
@given(
    n_utts=st.integers(1, 10),
    m=st.integers(1, 6),
    embed_dim=st.integers(1, 8),
    dim=st.integers(1, 4),
    dtype=DTYPES,
    exact=st.booleans(),
    bare=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(8, 20, 256, 16, np.float32, False, False, 0)  # production shape
@example(1, 6, 3, 2, np.float64, False, True, 1)  # one short utterance: rows without frames
@example(3, 2, 2, 1, np.float32, True, False, 2)  # dim == 1, perfect reconstruction
# m * dim == 1 and 8 or more utterances: numpy sums the stacked rows pairwise
@example(9, 1, 3, 1, np.float64, False, True, 3)
@example(12, 1, 2, 1, np.float32, True, False, 4)
def test_phoneme_stats_step_matches_frame_bundle_step(
    n_utts, m, embed_dim, dim, dtype, exact, bare, seed
):
    """One loss_and_grads step on corpus.stats(group) against the oracle's
    step on the group's concatenated frame bundle, from equal parameters.
    Frames are float32, as a corpus's are; tables and decoders are float32 or
    float64. _utterances' segments give one-frame rows and, when the draws miss
    a phoneme, rows absent from some or all utterances; bare adds an utterance
    without segments. The group is the utterances in a drawn order.

    Contract: the loss within 1e-12 relative. Each gradient element within
    GRAD_ULPS * eps(dtype) of its scale: the gradient's linear map applied,
    with absolute values, to S = (2 / (N * dim)) * sum_i |pred_r - x_i|, the
    magnitudes of the frame residual's terms. Only rounding separates the two
    paths, and at most once per term of each sum. Perfect reconstruction is
    exactly 0.0 with all-zero gradients on both paths.
    """
    rng = np.random.default_rng(seed)
    phoneme_set, utts = _utterances(rng, n_utts, m, dim, np.float32)
    if bare:
        utts.append(make_utterance("bare", "x", np.ones((2, dim)), [], phoneme_set))
    # integer parameters make every prediction a float32 value
    draw = (lambda shape: rng.integers(-3, 4, shape)) if exact else rng.standard_normal
    table = EmbeddingTable(draw((m, embed_dim)).astype(dtype), "x", phoneme_set.phonemes)
    decoder = DecoderParams(draw((embed_dim, dim)).astype(dtype), draw(dim).astype(dtype))
    per_row = table.matrix @ decoder.w_d + decoder.b_d
    if exact:
        for utt in utts:
            for start, end, row in utt.alignment.tolist():
                utt.features[start:end] = per_row[row]
    group = [utts[i] for i in rng.permutation(len(utts))]
    stats = make_corpus([phoneme_set], utts).stats(group)
    frames = oracle.build_frame_bundle(group)
    n_frames = frames.frames.shape[0]
    assert stats.n_frames == n_frames
    loss, grads, d_table = loss_and_grads(decoder, table, stats)
    loss_ref, grads_ref, d_table_ref = oracle.loss_and_grads(decoder, table, frames)
    assert type(loss) is float
    assert abs(loss - loss_ref) <= 1e-12 * loss_ref
    terms = np.abs(per_row.astype(np.float64)[frames.rows] - frames.frames)
    scale = np.zeros((m, dim))
    np.add.at(scale, frames.rows, terms)
    scale *= 2.0 / (n_frames * dim)
    tol = GRAD_ULPS * np.finfo(dtype).eps
    for got, want, bound in (
        (grads.w_d, grads_ref.w_d, np.abs(table.matrix).T @ scale),
        (grads.b_d, grads_ref.b_d, scale.sum(axis=0)),
        (d_table, d_table_ref, scale @ np.abs(decoder.w_d).T),
    ):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got.astype(np.float64) - want) <= tol * bound)
    if exact:
        assert loss == loss_ref == 0.0
        assert not (grads.w_d.any() or grads.b_d.any() or d_table.any())


@ORACLE
@given(
    shapes=st.lists(
        st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple), min_size=1, max_size=4
    ),
    dtype=DTYPES,
    grad_dtype=st.sampled_from(["same", "float64"]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 10.0]),
    hyper=st.sampled_from([(0.9, 0.98, 1e-9), (0.8, 0.999, 1e-6)]),
    seed=st.integers(0, 2**32 - 1),
)
@example([(1,)], np.float32, "float64", 1e-6, (0.9, 0.98, 1e-9), 0)  # 1-element tensor
@example([(20, 256), (256, 16), (16,)], np.float32, "float32", 1.0, (0.9, 0.98, 1e-9), 1)
def test_adam_matches_per_tensor_oracle(shapes, dtype, grad_dtype, scale, hyper, seed):
    """Bitwise on params, m and v after each of 50 steps: the flat update
    applies the per-tensor update's operations to every element in the same
    order and dtype, on float32 and float64 tensors, with float64 gradients
    fed to float32 params, at gradient scales from 1e-6 to 10 and under a
    warmup-then-decay learning rate."""
    rng = np.random.default_rng(seed)
    beta1, beta2, eps = hyper
    params = {f"p{i}": rng.standard_normal(shape).astype(dtype) for i, shape in enumerate(shapes)}
    params_ref = {name: p.copy() for name, p in params.items()}
    state, state_ref = init_adam(params), oracle.init_adam(params_ref)
    g_dtype = dtype if grad_dtype == "same" else np.float64
    for step in range(1, 51):
        grads = {
            name: (rng.standard_normal(p.shape) * scale).astype(g_dtype)
            for name, p in params.items()
        }
        lr = scheduled_lr(step, 0.01, 10, 0.99)
        adam_step(state, params, grads, lr, beta1, beta2, eps)
        oracle.adam_step(state_ref, params_ref, grads, lr, beta1, beta2, eps)
        assert state.step == state_ref.step == step
        for name in params:
            assert_bitwise(params[name], params_ref[name])
            assert_bitwise(state.m[name], state_ref.m[name])
            assert_bitwise(state.v[name], state_ref.v[name])


@ORACLE
@given(
    shapes=st.lists(
        st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple), min_size=1, max_size=4
    ),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
@example([(1,)], np.float32, 0)
@example([(20, 256), (256, 16), (16,)], np.float32, 1)
def test_adam_on_gradients_in_its_own_views_matches_per_tensor_oracle(shapes, dtype, seed):
    """Bitwise on params, m and v after each of 30 steps: gradients written
    into Adam's own views (state.grads), as training and fine-tuning write
    them, are not copied and give the per-tensor update's bytes."""
    rng = np.random.default_rng(seed)
    params = {f"p{i}": rng.standard_normal(shape).astype(dtype) for i, shape in enumerate(shapes)}
    params_ref = {name: p.copy() for name, p in params.items()}
    state, state_ref = init_adam(params), oracle.init_adam(params_ref)
    for step in range(1, 31):
        grads = {name: rng.standard_normal(p.shape).astype(dtype) for name, p in params.items()}
        for name, g in grads.items():
            state.grads[name][...] = g
        lr = scheduled_lr(step, 0.01, 10, 0.99)
        adam_step(state, params, state.grads, lr)
        oracle.adam_step(state_ref, params_ref, grads, lr)
        for name in params:
            assert_bitwise(params[name], params_ref[name])
            assert_bitwise(state.m[name], state_ref.m[name])
            assert_bitwise(state.v[name], state_ref.v[name])


def _batch(symbol_sets, phoneme_set):
    """One utterance per symbol set, each symbol a one-frame segment, with
    rows of phoneme_set."""
    return [
        make_utterance(f"u{i}", "x", np.zeros((max(len(syms), 1), 1)),
                       [(ph, j, j + 1) for j, ph in enumerate(sorted(syms))], phoneme_set)
        for i, syms in enumerate(symbol_sets)
    ]


def _split_outcome(split, batch, seed, *args, **kwargs):
    """(gen ids, loss ids) or the CoverageError text, and the RNG state after."""
    rng = np.random.default_rng(seed)
    try:
        gen, loss = split(batch, rng, *args, **kwargs)
        outcome = ([u.id for u in gen], [u.id for u in loss])
    except CoverageError as e:
        outcome = str(e)
    return outcome, rng.bit_generator.state


@ORACLE
@given(
    symbol_sets=st.lists(
        st.frozensets(st.sampled_from("abcdefgh"), max_size=4), min_size=2, max_size=12
    ),
    gen_share=st.floats(0.3, 0.9),
    limit=st.sampled_from([0, 1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
@example([frozenset("a"), frozenset("b")], 0.5, 100, 0)  # no valid split: CoverageError
@example([frozenset("ab"), frozenset("a"), frozenset("b"), frozenset()], 0.5, 0, 1)  # fallback
@example([frozenset("ab"), frozenset("b"), frozenset(), frozenset()], 0.5, 100, 0)  # empty loss refused
@example([frozenset("a"), frozenset(), frozenset()], 0.3, 0, 0)  # loss group all empty
def test_split_on_bitmasks_matches_symbol_set_oracle(symbol_sets, gen_share, limit, seed):
    """Bitwise in outcome: the same groups in the same order, or the same
    CoverageError text, and the same RNG state afterwards, through the
    rejection loop, the greedy fallback and the error; with rows in sorted
    and in reverse symbol order, so the fallback's ties go by symbol and not
    by bit."""
    gen_size = min(max(1, round(gen_share * len(symbol_sets))), len(symbol_sets) - 1)
    sizes = (gen_size, len(symbol_sets) - gen_size, limit)
    sets = [LanguagePhonemeSet("x", tuple(rows)) for rows in ("abcdefgh", "hgfedcba")]
    batch = _batch(symbol_sets, sets[0])
    want = _split_outcome(oracle.split_with_coverage, batch, seed, *sizes, phoneme_set=sets[0])
    for phoneme_set in sets:
        batch = _batch(symbol_sets, phoneme_set)
        coverage = coverage_masks(batch, phoneme_set)
        assert _split_outcome(split_with_coverage, batch, seed, *sizes, **coverage) == want


@st.composite
def _pools(draw):
    """(rows, symbol sets): a phoneme set of 1 to 6 symbols in drawn row
    order, and the alignments of a one-language pool over it, empty ones
    included."""
    rows = "".join(draw(st.permutations("abcdef")))[: draw(st.integers(1, 6))]
    symbol_sets = draw(
        st.lists(st.frozensets(st.sampled_from(rows), max_size=3), min_size=1, max_size=14)
    )
    return rows, symbol_sets


def _pool_corpus(rows, symbol_sets):
    phoneme_set = LanguagePhonemeSet("x", tuple(rows))
    return make_corpus([phoneme_set], _batch(symbol_sets, phoneme_set))


def _task_outcome(sample, corpus, spec, limit):
    """(shot ids, query ids) or the TaskError text."""
    try:
        task = sample(corpus, spec, limit)
    except TaskError as e:
        return str(e)
    return [u.id for u in task.shots], [u.id for u in task.queries]


@ORACLE
@given(
    pool=_pools(),
    k=st.integers(1, 4),
    q=st.integers(1, 6),
    limit=st.sampled_from([1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
@example(("cab", [frozenset("abc"), frozenset("ab"), frozenset("c"), frozenset()]), 2, 2, 100, 0)
@example(("ba", [frozenset(), frozenset(), frozenset("a")]), 1, 2, 100, 0)  # never covered
def test_sample_task_on_bitmasks_matches_symbol_set_oracle(pool, k, q, limit, seed):
    """Exact: the same shots and queries in the same order, or the same
    TaskError text."""
    corpus = _pool_corpus(*pool)
    spec = TaskSpec("x", k=k, q=q, seed=seed)
    want = _task_outcome(oracle.sample_task, corpus, spec, limit)
    assert _task_outcome(sample_task, corpus, spec, limit) == want


def _cover_outcome(cover, corpus, target_count, seed):
    """The cover's utterance ids or the CoverageError text, and the RNG state
    after."""
    rng = np.random.default_rng(seed)
    try:
        outcome = [u.id for u in cover(corpus, "x", target_count, rng)]
    except CoverageError as e:
        outcome = str(e)
    return outcome, rng.bit_generator.state


@ORACLE
@given(pool=_pools(), target_count=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
@example(("cba", [frozenset("ab"), frozenset("c"), frozenset(), frozenset("bc"),
                  frozenset("a")]), 4, 0)  # greedy ties go to the earlier utterance
@example(("cba", [frozenset("ab"), frozenset()]), 1, 0)  # "c" occurs nowhere
def test_covering_sentences_on_bitmasks_matches_symbol_set_oracle(pool, target_count, seed):
    """Exact: the same utterances in the same order, or the same
    CoverageError text, and the same RNG state afterwards."""
    corpus = _pool_corpus(*pool)
    want = _cover_outcome(oracle.covering_sentences, corpus, target_count, seed)
    assert _cover_outcome(covering_sentences, corpus, target_count, seed) == want


def _loop_shape():
    return dict(
        n=st.integers(1, 400),
        m=st.integers(1, 8),
        dim=st.sampled_from([1, 2, 3, 5, 8, 16]),
        dtype=DTYPES,
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )


@LOOP_ORACLE
@given(n_segments=st.integers(0, 8), **_loop_shape())
@example(n_segments=3, n=1000, m=2, dim=1, dtype=np.float32, scale=1.0, seed=5)
@example(n_segments=3, n=1000, m=2, dim=1, dtype=np.float64, scale=1.0, seed=5)
def test_segment_pool_matches_frame_loop(n_segments, n, m, dim, dtype, scale, seed):
    """Counts are bitwise. Sums are bitwise for float32 features, the corpus
    dtype, because a float64 sum of a few hundred float32 values is exact
    unless their magnitudes span about 2**25. With float64 features numpy adds
    each segment's partial sum (pairwise when dim == 1) where the loop adds
    frame by frame, so a cell of n_r frames may differ by n_r * eps * sum|x|.
    """
    rng = np.random.default_rng(seed)
    features = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    starts = rng.integers(0, n, size=n_segments)
    ends = np.array([rng.integers(s, n + 1) for s in starts], dtype=np.int64)
    rows = rng.integers(0, m, size=n_segments)
    sums, counts = kernels.segment_pool(features, starts, ends, rows, m)
    sums_ref, counts_ref = oracle.segment_pool_loop(features, starts, ends, rows, m)
    assert_bitwise(counts, counts_ref)
    if dtype == np.float32:
        assert_bitwise(sums, sums_ref)
    abs_sums, _ = oracle.segment_pool_loop(np.abs(features), starts, ends, rows, m)
    assert sums.dtype == np.float64 and sums.shape == sums_ref.shape
    assert np.all(np.abs(sums - sums_ref) <= counts[:, None] * EPS * abs_sums)


@LOOP_ORACLE
@given(exact=st.booleans(), **_loop_shape())
@example(exact=False, n=1000, m=2, dim=1, dtype=np.float32, scale=1.0, seed=5)
def test_frame_residual_matches_frame_loop(exact, n, m, dim, dtype, scale, seed):
    """gsum is bitwise: bincount adds each cell's residuals in frame order, as
    the loop does. sq is one einsum over all n * dim squares, which reduces in
    another order than the loop's running sum; both orders are within
    (n * dim) * eps of the exact sum of the nonnegative squares, and so of
    each other.
    """
    rng = np.random.default_rng(seed)
    frames = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    rows = rng.integers(0, m, size=n)
    preds = (rng.standard_normal((m, dim)) * scale).astype(dtype)
    if exact:
        frames = preds[rows]
    sq, gsum = kernels.frame_residual_stats(frames, rows, preds)
    sq_ref, gsum_ref = oracle.frame_residual_loop(frames, rows, preds)
    assert_bitwise(gsum, gsum_ref)
    assert type(sq) is float
    assert abs(sq - sq_ref) <= n * dim * EPS * sq_ref
    if exact:
        assert sq == sq_ref == 0.0


# later fine-tune checkpoints against the frame oracle: Adam carries the
# last-bit differences of the loss forward. Over 20 task seeds per k of this
# test, step 40 differed by at most 4.4e-9 relative in loss and MSE and 1.2e-7
# (of the largest magnitude) in the parameters.
TRAJECTORY_LOSS_RTOL = 1e-7
TRAJECTORY_PARAM_RTOL = 1e-6


def _assert_close_to_scale(got, want, rtol):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("k", [4, 16])
def test_finetune_and_evaluate_on_memoized_bundles_match_oracle(small_corpus, k):
    """Statistics merged from the corpus memo's per-utterance statistics
    against the frame-scoring oracle, in both initialisation modes. Step 0 is bitwise in
    the parameters, and its loss and query MSE agree within 1e-12 relative.
    At every checkpoint, evaluate agrees with the oracle within 1e-12 relative
    on equal parameters. Later checkpoints hold to TRAJECTORY_LOSS_RTOL in
    loss and MSE, and TRAJECTORY_PARAM_RTOL in the parameters."""
    cb = CodebookConfig(n=16, heads=2, d_k=8, d_v=8, dim=small_corpus.feature_spec.dim)
    params = init_params(cb, 3)
    decoder = init_decoder(cb.embed_dim, cb.dim, 4)
    config = AdaptConfig(finetune_steps=40, eval_checkpoints=(0, 10, 40))
    spec = TaskSpec("T0", k=k, q=16, seed=7)
    task = sample_task(small_corpus, spec)
    shots, queries = small_corpus.stats(task.shots), small_corpus.stats(task.queries)
    for mode in MODES:
        rng = np.random.default_rng(spec.seed)
        table0 = init_embedding(mode, params, small_corpus, task, rng)
        points = finetune(table0, decoder, shots, config)
        points_ref = oracle.finetune(table0, decoder, task.shots, config)
        assert [p.step for p in points] == [p.step for p in points_ref] == [0, 10, 40]
        for p, ref in zip(points, points_ref):
            got = evaluate(p.table, p.decoder, queries)
            assert type(got) is float
            assert abs(got - oracle.evaluate(p.table, p.decoder, task.queries)) <= 1e-12 * got
            want = oracle.evaluate(ref.table, ref.decoder, task.queries)
            assert type(p.train_loss) is float
            if p.step == 0:
                assert_bitwise(p.table.matrix, ref.table.matrix)
                assert_bitwise(p.decoder.w_d, ref.decoder.w_d)
                assert_bitwise(p.decoder.b_d, ref.decoder.b_d)
                rtol = 1e-12
            else:
                for arr, arr_ref in (
                    (p.table.matrix, ref.table.matrix),
                    (p.decoder.w_d, ref.decoder.w_d),
                    (p.decoder.b_d, ref.decoder.b_d),
                ):
                    _assert_close_to_scale(arr, arr_ref, TRAJECTORY_PARAM_RTOL)
                rtol = TRAJECTORY_LOSS_RTOL
            assert abs(p.train_loss - ref.train_loss) <= rtol * ref.train_loss
            assert abs(got - want) <= rtol * want


# Alignment texts over a three-phoneme set: valid segments after gaps of 0-3
# frames, comments, blank lines (one with two tabs, so three blank fields),
# and 0-3 faults, each a line placed among them or, for "non-UTF-8", a byte
# placed anywhere in the file.
ALIGNMENT_SYMBOLS = ("a", "b", "c")
ALIGNMENT_FAULTS = {
    "two fields": "a\t{s}",
    "four fields": "a\t{s}\t{e}\t{e}",
    "non-integer start": "a\tx{s}\t{e}",
    "non-integer end": "b\t{s}\t{e}.5",
    "unknown phoneme": "zz\t{s}\t{e}",
    "negative start": "c\t-{e}\t{s}",
    "empty segment": "a\t{s}\t{s}",
    "reversed segment": "b\t{e}\t{s}",
    "overlap": "c\t0\t{e}",
    # int() takes each of these; the documented grammar, -?[0-9]+, does not
    "plus-signed start": "a\t+{s}\t{e}",
    "underscored end": "b\t{s}\t1_0{e}",
    "space before start": "c\t {s}\t{e}",
    "full-width end": "a\t{s}\t\uff11{e}",
}


@st.composite
def alignment_files(draw):
    lines, cursor = [], 0
    kinds = st.sampled_from(["segment"] * 4 + ["comment", "blank"])
    for kind in draw(st.lists(kinds, max_size=12)):
        if kind == "segment":
            start = cursor + draw(st.integers(0, 3))
            cursor = start + draw(st.integers(1, 4))
            lines.append(f"{draw(st.sampled_from(ALIGNMENT_SYMBOLS))}\t{start}\t{cursor}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# phoneme\tstart\tend", "#", "#zz\tx"])))
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t \t "])))
    faults = draw(st.lists(st.sampled_from(sorted(ALIGNMENT_FAULTS) + ["non-UTF-8"]), max_size=3))
    for fault in faults:
        if fault != "non-UTF-8":
            at = draw(st.integers(0, len(lines)))
            s = draw(st.integers(0, cursor + 2))
            lines.insert(at, ALIGNMENT_FAULTS[fault].format(s=s, e=s + draw(st.integers(1, 3))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode("utf-8")
    for _ in range(faults.count("non-UTF-8")):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _parsed(rows, path):
    """The [start, end, row] lists rows(path) gives, or its error's class and message."""
    try:
        return rows(path)
    except XpqError as e:
        return type(e), str(e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=alignment_files())
@example(data=b"a\t0\t5\nb\t3\t4\nzz\t9\t10\n")  # vocabulary before overlap
@example(data=b"a\t0\t5\nb\t5\t5\n")  # an empty segment after a valid one
@example(data=b"b\t-1\t2\nzz\t0\t1")  # a range fault is not deferred
@example(data=b"a\t1\t2\nb\t3\t5\nc\t0\t1\n")  # the overlap names the later start
def test_alignment_parser_matches_dataclass_segment_oracle(tmp_path_factory, data):
    """Exact: the single-pass parser's table rows are the oracle's segments
    as (start, end, index(phoneme)), or it raises the oracle's first fault
    with its class and message; the parser reads a str path, the oracle a
    Path."""
    path = tmp_path_factory.getbasetemp() / "alignment.tsv"
    path.write_bytes(data)
    phoneme_set = LanguagePhonemeSet("L", ALIGNMENT_SYMBOLS)
    got = _parsed(lambda p: load_alignment(p, phoneme_set).tolist(), str(path))
    want = _parsed(
        lambda p: [
            [s.start_frame, s.end_frame, phoneme_set.index(s.phoneme)]
            for s in oracle.load_alignment(p, phoneme_set)
        ],
        path,
    )
    assert got == want


@st.composite
def bundle_cases(draw):
    """1-4 utterances over three phonemes. Each has 0-4 segments of 1-3
    frames, 0-2 uncovered frames before the first and after the last, and,
    unless it is drawn gapless, a gap of 0-2 frames before each later one."""
    phonemes = ("p0", "p1", "p2")
    phoneme_set = LanguagePhonemeSet("x", phonemes)
    dim, dtype = draw(st.integers(1, 3)), draw(DTYPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utts = []
    for u in range(draw(st.integers(1, 4))):
        gaps = st.just(0) if draw(st.booleans()) else st.integers(0, 2)
        segments, cursor = [], draw(st.integers(0, 2))
        for k in range(draw(st.integers(0, 4))):
            start = cursor + (draw(gaps) if k else 0)
            cursor = start + draw(st.integers(1, 3))
            segments.append((draw(st.sampled_from(phonemes)), start, cursor))
        features = rng.standard_normal((max(cursor + draw(st.integers(0, 2)), 1), dim))
        utts.append(make_utterance(f"u{u}", "x", features, segments, phoneme_set, dtype=dtype))
    return utts


def _bundled(bundle):
    """The bundle's frames (dtype, shape, bytes) and rows."""
    frames = bundle.frames
    return frames.dtype, frames.shape, frames.tobytes(), bundle.rows.dtype, bundle.rows.tolist()


@ORACLE
@given(utts=bundle_cases())
def test_frame_bundle_matches_gather_oracle(utts):
    """Exact: an utterance's bundle, whose frames are a view of a gapless
    utterance's features, has the oracle's gathered frames (values, dtype and
    shape) and rows; an utterance without segments gives no frame."""
    for utt in utts:
        got = build_frame_bundle(utt)
        if len(utt.alignment):
            assert _bundled(got) == _bundled(oracle.build_frame_bundle([utt]))
        else:
            assert got.frames.shape == (0, utt.dim) and got.rows.dtype == np.int64
            assert got.rows.shape == (0,) and got.frames.dtype == utt.features.dtype
