"""Episodic multilingual training.

Each step draws 40 utterances from a single language, splits them into an
embedding-generation group (32) and a loss group (8) such that every phoneme
occurring on the loss side also occurs on the generation side, generates the
language's embedding table through the codebook attention, computes the frame
reconstruction loss on the loss group, and applies one Adam update to the
codebook and decoder parameters under a warmup-then-decay schedule. Both
groups are read from the corpus's per-utterance RepStack: the generation
group's queries (Corpus.queries) and the loss group's statistics
(Corpus.stats).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import TrainState, load_checkpoint, model_tensors, save_checkpoint
# not called here: perfbench's checks call xpq.trainer.load_checkpoint_params
from .checkpoint import load_checkpoint_params  # noqa: F401
from .codebook import CodebookConfig, CodebookGrads, attention_backward, forward, init_params
from .datamodel import Corpus, LanguagePhonemeSet, Utterance, mask_union, write_file
from .decoder import DecoderGrads, init_decoder, loss_and_grads
from .errors import ConfigError, CoverageError
from .optim import adam_step, init_adam, scheduled_lr

# How many fresh batches to draw when a batch admits no coverage-valid split.
_BATCH_RESAMPLE_LIMIT = 20


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 40
    gen_group_size: int = 32
    loss_group_size: int = 8
    lr: float = 0.001
    warmup_steps: int = 200  # full-scale runs use 4000
    total_steps: int = 2000  # full-scale runs use 50000
    decay_rate: float = 0.999  # per step after warmup
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    seed: int = 0
    coverage_resample_limit: int = 100
    checkpoint_every: int = 0  # 0: checkpoint only at the end

    def __post_init__(self):
        if self.gen_group_size < 1 or self.loss_group_size < 1:
            raise ConfigError("gen_group_size and loss_group_size must be >= 1")
        if self.gen_group_size + self.loss_group_size != self.batch_size:
            raise ConfigError(
                f"gen_group_size + loss_group_size must equal batch_size "
                f"({self.gen_group_size} + {self.loss_group_size} != {self.batch_size})"
            )
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not 0 < self.decay_rate <= 1:
            raise ConfigError("decay_rate must be in (0, 1]")
        if self.total_steps < 1 or self.warmup_steps < 0:
            raise ConfigError("total_steps must be >= 1 and warmup_steps >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        for name in ("coverage_resample_limit", "checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def sample_language_batch(
    corpus: Corpus, batch_size: int, rng: np.random.Generator
) -> list[Utterance]:
    """Uniformly pick an eligible language, then sample a batch without replacement.

    Eligible languages have at least batch_size train-split utterances.
    """
    eligible = corpus.train_pools(batch_size)
    if not eligible:
        raise ConfigError(
            f"no language has {batch_size} train-split utterances; cannot form batches"
        )
    pool = eligible[int(rng.integers(len(eligible)))]
    idx = rng.choice(len(pool), size=batch_size, replace=False)
    return [pool[i] for i in idx.tolist()]


def split_with_coverage(
    batch: list[Utterance],
    rng: np.random.Generator,
    gen_size: int,
    loss_size: int,
    limit: int = 100,
    *,
    masks: list[int],
    phoneme_set: LanguagePhonemeSet,
) -> tuple[list[Utterance], list[Utterance]]:
    """Split a batch so every loss-group phoneme occurs in the generation group
    and the loss group covers at least one phoneme.

    Rejection-samples up to `limit` splits, then falls back to a greedy split
    that forces a bearer of each phoneme (rarest first, ties by symbol) into
    the generation group and fills the remainder randomly. Raises
    CoverageError when neither gives a valid split.

    masks[i] is batch[i]'s bitmask over phoneme_set's rows (Corpus.masks).
    """
    if len(batch) != gen_size + loss_size:
        raise ValueError(f"batch size {len(batch)} != {gen_size} + {loss_size}")

    def split_ok(gen_idx, loss_idx):
        gen = loss = 0
        for i in gen_idx:
            gen |= masks[i]
        for i in loss_idx:
            loss |= masks[i]
        return loss and not loss & ~gen

    for _ in range(limit):
        perm = rng.permutation(len(batch)).tolist()
        gen_idx, loss_idx = perm[:gen_size], perm[gen_size:]
        if split_ok(gen_idx, loss_idx):
            return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]

    counts = {r: c for r in range(phoneme_set.size) if (c := sum(m >> r & 1 for m in masks))}
    forced: list[int] = []
    covered = 0
    for r in sorted(counts, key=lambda r: (counts[r], phoneme_set.phonemes[r])):
        if covered >> r & 1 or len(forced) == gen_size:
            continue
        bearer = next(i for i, m in enumerate(masks) if m >> r & 1)  # not forced: r is uncovered
        forced.append(bearer)
        covered |= masks[bearer]
    rest = [i for i in range(len(batch)) if i not in forced]
    fill_order = rng.permutation(len(rest))
    fill = [rest[j] for j in fill_order.tolist()]
    gen_idx = forced + fill[: gen_size - len(forced)]
    loss_idx = fill[gen_size - len(forced) :]
    if split_ok(gen_idx, loss_idx):
        return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]
    loss = mask_union(masks[i] for i in loss_idx)
    uncovered = phoneme_set.mask_symbols(loss & ~mask_union(masks[i] for i in gen_idx))
    reason = f"uncovered phonemes: {uncovered}" if loss else "the loss group covers no frame"
    raise CoverageError(f"no coverage-valid split exists for this batch; {reason}")


def init_train_state(config: TrainConfig, cb_config: CodebookConfig) -> TrainState:
    params = init_params(cb_config, config.seed)
    decoder = init_decoder(cb_config.embed_dim, cb_config.dim, config.seed + 1)
    opt = init_adam(model_tensors(params, decoder))
    return TrainState(params, decoder, opt, np.random.default_rng(config.seed + 2))


def train_step(
    state: TrainState, batch: list[Utterance], corpus: Corpus, config: TrainConfig
) -> tuple[float, float]:
    """One update: split batch, generate table, loss on the other group, Adam.

    Returns (loss, lr). Raises CoverageError, before any update, if the
    batch admits no valid split or its loss group covers no frame; the caller
    resamples the batch in that case. The batch comes from the train split.
    Gradients are written straight into Adam's gradient views. The queries
    of the generation group are its rows of the corpus's rep stack, and the
    loss reads the loss group's merged statistics.
    """
    gen_group, loss_group = split_with_coverage(
        batch,
        state.rng,
        config.gen_group_size,
        config.loss_group_size,
        config.coverage_resample_limit,
        masks=corpus.masks(batch),
        phoneme_set=corpus.phoneme_set(batch[0].language),
    )
    loss_stats = corpus.stats(loss_group)
    qm = corpus.queries(gen_group)
    table, record = forward(state.params, qm)
    grads = state.opt.grads
    loss, _, d_table = loss_and_grads(
        state.decoder, table, loss_stats, out=DecoderGrads(grads["w_d"], grads["b_d"])
    )
    attention_backward(
        state.params,
        qm.matrix,
        record,
        d_table,
        out=CodebookGrads(grads["w_q"], grads["keys"], grads["codes"]),
    )
    lr = scheduled_lr(state.step + 1, config.lr, config.warmup_steps, config.decay_rate)
    adam_step(
        state.opt,
        model_tensors(state.params, state.decoder),
        grads,
        lr,
        config.beta1,
        config.beta2,
        config.eps,
    )
    return loss, lr


def _truncate_loss_log(path: Path, step: int) -> None:
    """Drop log lines past the checkpointed step so a resumed log matches an
    uninterrupted run byte for byte."""
    if not path.exists():
        return
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            kept.append(line)
            continue
        try:
            line_step = int(line.split("\t", 1)[0])
        except ValueError:
            continue
        if line_step <= step:
            kept.append(line)
    write_file(path, "\n".join(kept) + ("\n" if kept else ""))


def _validation_report(corpus: Corpus, state: TrainState) -> list[str]:
    """Per-language loss on the held-out val split; reported, never acted on.
    A language without train utterances or without covered val frames has
    no line."""
    lines = ["# language\tn_val\tloss"]
    for language in corpus.language_ids:
        val = corpus.by_language(language, "val")
        train = corpus.by_language(language, "train")
        if not val or not train:
            continue
        val_stats = corpus.stats(val)
        if not val_stats.n_frames:
            continue
        table, _ = forward(state.params, corpus.queries(train))
        loss, _, _ = loss_and_grads(state.decoder, table, val_stats)
        lines.append(f"{language}\t{len(val)}\t{loss!r}")
    return lines


def run_training(
    corpus: Corpus,
    config: TrainConfig,
    cb_config: CodebookConfig,
    out_dir,
    resume: bool = False,
    stop_after: int | None = None,
) -> TrainState:
    """Train to config.total_steps (or stop_after), checkpointing into out_dir.

    The run is a pure function of (corpus, config, seed): loss logs and
    checkpoints are bitwise reproducible, and a resumed run matches an
    uninterrupted one exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if resume:
        state = load_checkpoint(out, config, cb_config)
        _truncate_loss_log(out / "loss_log.tsv", state.step)
    else:
        state = init_train_state(config, cb_config)
        write_file(out / "loss_log.tsv", "# step\tlr\tloss\n")
    target = config.total_steps if stop_after is None else min(stop_after, config.total_steps)
    with open(out / "loss_log.tsv", "a", encoding="utf-8") as log:
        while state.step < target:
            loss = lr = None
            for _ in range(_BATCH_RESAMPLE_LIMIT):
                batch = sample_language_batch(corpus, config.batch_size, state.rng)
                try:
                    loss, lr = train_step(state, batch, corpus, config)
                    break
                except CoverageError:
                    continue
            if loss is None:
                raise CoverageError(
                    f"no coverage-valid batch found in {_BATCH_RESAMPLE_LIMIT} resamples"
                )
            log.write(f"{state.step}\t{lr!r}\t{loss!r}\n")
            log.flush()
            if (
                config.checkpoint_every
                and state.step % config.checkpoint_every == 0
                and state.step < target
            ):
                save_checkpoint(state, out, config, cb_config)
    save_checkpoint(state, out, config, cb_config)
    write_file(out / "val_loss.tsv", "\n".join(_validation_report(corpus, state)) + "\n")
    return state
