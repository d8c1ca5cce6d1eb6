"""Few-shot task sampling and cross-lingual adaptation.

A k-shot task holds k training utterances (shots) and q held-out queries from
one language, constructed so that every phoneme occurring in the queries also
occurs in the shots. Adaptation initializes the language's embedding table
either from the trained codebook attention (generated from the shots) or at
random, then fine-tunes the table and decoder on the shots; the codebook is
not used or updated during fine-tuning. Both modes see identical shots and
queries for a given task seed, so comparisons are paired.
Fine-tuning and evaluation read the shots and queries as per-phoneme
statistics (decoder.PhonemeStats), so each step is (m, dim) work.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .codebook import CodebookParams, EmbeddingTable, forward, xavier_bound
from .datamodel import Corpus, Utterance, mask_union, write_file
from .decoder import DecoderGrads, DecoderParams, PhonemeStats, loss_and_grads
from .errors import ConfigError, NumericError, TaskError, VocabularyError
from .optim import adam_step, init_adam

MODES = ("codebook_init", "random_init")


@dataclass(frozen=True)
class TaskSpec:
    language: str
    k: int
    q: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.q < 1:
            raise ConfigError(f"task needs k >= 1 and q >= 1, got k={self.k}, q={self.q}")
        if self.seed < 0:
            raise ConfigError(f"task seed must be >= 0, got {self.seed}")


@dataclass
class FewShotTask:
    shots: list[Utterance]
    queries: list[Utterance]
    language: str


@dataclass(frozen=True)
class AdaptConfig:
    finetune_steps: int = 500
    lr: float = 0.001  # constant during fine-tuning
    eval_checkpoints: tuple[int, ...] = (0, 50, 200, 500)

    def __post_init__(self):
        if self.finetune_steps < 0 or self.lr <= 0:
            raise ConfigError("finetune_steps must be >= 0 and lr > 0")
        cps = self.eval_checkpoints
        if not cps or cps[0] < 0 or cps[-1] > self.finetune_steps or any(
            a >= b for a, b in zip(cps, cps[1:])
        ):
            raise ConfigError(
                "eval_checkpoints must be non-empty, strictly increasing, >= 0 and "
                f"<= finetune_steps, got {list(cps)}"
            )


def sample_task(corpus: Corpus, spec: TaskSpec, limit: int = 100) -> FewShotTask:
    """Rejection-sample (shots, queries) until the queries cover a phoneme and
    the shots cover every query phoneme; the shots then cover one too.

    Deterministic under spec.seed. Raises TaskError when no such draw is found
    within `limit` attempts, saying what the last draw lacked.
    """
    pool = corpus.by_language(spec.language)
    if len(pool) < spec.k + spec.q:
        raise TaskError(
            f"language {spec.language!r} has {len(pool)} utterances, "
            f"need k+q = {spec.k + spec.q}"
        )
    rng = np.random.default_rng(spec.seed)
    masks = corpus.masks(pool)
    phoneme_set = corpus.phoneme_set(spec.language)
    last = ""
    for _ in range(limit):
        idx = rng.choice(len(pool), size=spec.k + spec.q, replace=False).tolist()
        shot_idx, query_idx = idx[: spec.k], idx[spec.k :]
        shot_mask = mask_union(masks[i] for i in shot_idx)
        query_mask = mask_union(masks[i] for i in query_idx)
        if not query_mask:
            last = "the last draw's queries cover no frame"
        elif not query_mask & ~shot_mask:
            return FewShotTask(
                [pool[i] for i in shot_idx], [pool[i] for i in query_idx], spec.language
            )
        else:
            last = f"last uncovered phonemes: {phoneme_set.mask_symbols(query_mask & ~shot_mask)}"
    raise TaskError(
        f"no covering (shots, queries) draw for {spec.language!r} k={spec.k} within "
        f"{limit} attempts; {last}"
    )


def init_embedding(
    mode: str,
    params: CodebookParams,
    corpus: Corpus,
    task: FewShotTask,
    rng: np.random.Generator,
) -> EmbeddingTable:
    """Initial embedding table for adaptation.

    codebook_init runs the shots' phoneme queries, their rows of the corpus's
    rep stack (Corpus.queries), through the trained codebook attention;
    random_init draws Xavier-uniform rows, one per phoneme of the task's
    language. Both are deterministic given their inputs (rng is consumed only
    by random_init).
    """
    if mode == "codebook_init":
        table, _ = forward(params, corpus.queries(task.shots))
        return table
    if mode == "random_init":
        phoneme_set = corpus.phoneme_set(task.language)
        embed_dim = params.config.embed_dim
        m = phoneme_set.size
        bound = xavier_bound(m, embed_dim)
        matrix = rng.uniform(-bound, bound, (m, embed_dim)).astype(np.float32)
        return EmbeddingTable(matrix, phoneme_set.language, phoneme_set.phonemes)
    raise ValueError(f"unknown init mode {mode!r}")


@dataclass
class FinetunePoint:
    step: int
    table: EmbeddingTable
    decoder: DecoderParams
    train_loss: float


def finetune(
    table: EmbeddingTable,
    decoder: DecoderParams,
    shots: PhonemeStats,
    config: AdaptConfig,
) -> list[FinetunePoint]:
    """Adam on (table rows, decoder) minimizing the reconstruction error of
    the shots' frames, given by their statistics over the table's rows.

    Returns deep-copied snapshots at config.eval_checkpoints; the inputs are
    not mutated. train_loss at step s is the loss after s updates. Every
    gradient is written straight into Adam's gradient views.
    """
    table = table.copy()
    decoder = decoder.copy()
    params = {"table": table.matrix, "w_d": decoder.w_d, "b_d": decoder.b_d}
    opt = init_adam(params)
    grads = opt.grads
    out = DecoderGrads(grads["w_d"], grads["b_d"])
    wanted = set(config.eval_checkpoints)
    points: list[FinetunePoint] = []
    for step in range(config.finetune_steps + 1):
        if step:
            adam_step(opt, params, grads, config.lr)
        loss, _, _ = loss_and_grads(decoder, table, shots, out=out, out_table=grads["table"])
        if step in wanted:
            points.append(FinetunePoint(step, table.copy(), decoder.copy(), loss))
    return points


def evaluate(table: EmbeddingTable, decoder: DecoderParams, queries: PhonemeStats) -> float:
    """Frame reconstruction MSE over all covered frames of the queries, given
    by their statistics over the table's rows."""
    per_row = table.matrix @ decoder.w_d + decoder.b_d
    sq, _ = queries.residual(per_row)
    return sq / (queries.n_frames * per_row.shape[1])


def _init_rng_for_task(task_seed: int) -> np.random.Generator:
    # Independent stream from the task-sampling one; shared across modes so the
    # comparison stays paired.
    return np.random.default_rng(np.random.SeedSequence((task_seed, 1)))


def adapt_task(
    corpus: Corpus,
    params: CodebookParams,
    decoder: DecoderParams,
    spec: TaskSpec,
    mode: str,
    config: AdaptConfig,
) -> list[dict]:
    """Run one task end to end; returns [{step, mean_mse}] per eval checkpoint.

    The shot and query statistics are merged once per task from the corpus's
    per-utterance statistics (Corpus.stats). A fine-tune that diverges raises
    NumericError at the first checkpoint whose MSE is not finite, and the
    overflow warnings on the way there are dropped; a run that ends finite
    issues them as they came.
    """
    task = sample_task(corpus, spec)
    shots, queries = corpus.stats(task.shots), corpus.stats(task.queries)
    table0 = init_embedding(mode, params, corpus, task, _init_rng_for_task(spec.seed))
    with warnings.catch_warnings(record=True) as caught:
        checkpoints = [
            {"step": p.step, "mean_mse": evaluate(p.table, p.decoder, queries)}
            for p in finetune(table0, decoder, shots, config)
        ]
    for cp in checkpoints:
        if not math.isfinite(cp["mean_mse"]):
            raise NumericError(
                f"{spec.language} k={spec.k} task seed {spec.seed} ({mode}): query MSE is "
                f"{cp['mean_mse']} at fine-tune step {cp['step']}; fine-tuning diverged "
                f"at lr {config.lr}"
            )
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return checkpoints


def run_experiment(
    corpus: Corpus,
    params: CodebookParams,
    decoder: DecoderParams,
    language: str,
    ks: list[int],
    n_tasks: int,
    config: AdaptConfig,
    q: int = 64,
    base_seed: int = 0,
    modes: tuple[str, ...] = MODES,
) -> list[dict]:
    """Paired adaptation grid: one report cell per (k, mode).

    Task seeds are base_seed + task index, shared across modes, so both modes
    see identical shots and queries. Cell mean/std summarize the final
    checkpoint's per-task MSE (population std).
    """
    if n_tasks < 1:
        raise ConfigError(f"n_tasks must be >= 1, got {n_tasks}")
    if language not in corpus.language_ids:
        raise VocabularyError(f"language {language!r} is not defined in the manifest")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    frozen = (params.w_q.copy(), params.keys.copy(), params.codes.copy())
    cells = []
    for k in ks:
        for mode in modes:
            tasks_out = []
            for t in range(n_tasks):
                spec = TaskSpec(language, k, q, base_seed + t)
                checkpoints = adapt_task(corpus, params, decoder, spec, mode, config)
                tasks_out.append({"task_seed": spec.seed, "checkpoints": checkpoints})
            final = [t["checkpoints"][-1]["mean_mse"] for t in tasks_out]
            cells.append(
                {
                    "language": language,
                    "k": k,
                    "mode": mode,
                    "tasks": tasks_out,
                    "mean": float(np.mean(final)),
                    "std": float(np.std(final)),
                }
            )
    if not (
        np.array_equal(frozen[0], params.w_q)
        and np.array_equal(frozen[1], params.keys)
        and np.array_equal(frozen[2], params.codes)
    ):
        raise AssertionError("codebook parameters changed during adaptation")
    return cells


def write_report_json(cells: list[dict], path) -> None:
    write_file(path, json.dumps(cells, indent=2, allow_nan=False) + "\n")


def write_report_tsv(cells: list[dict], path) -> None:
    lines = ["# language\tk\tmode\tmean\tstd"]
    for cell in cells:
        lines.append(
            f"{cell['language']}\t{cell['k']}\t{cell['mode']}\t{cell['mean']!r}\t{cell['std']!r}"
        )
    write_file(path, "\n".join(lines) + "\n")
