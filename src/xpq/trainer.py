"""Episodic multilingual training.

Each step draws 40 utterances from a single language, splits them into an
embedding-generation group (32) and a loss group (8) such that every phoneme
occurring on the loss side also occurs on the generation side, generates the
language's embedding table through the codebook attention, computes the frame
reconstruction loss on the loss group, and applies one Adam update to the
codebook and decoder parameters under a warmup-then-decay schedule. Both
groups are read from the corpus's per-utterance RepStack: the generation
group's rep matrices become the queries, and the loss group's statistics
merge into the loss's PhonemeStats (Corpus.stats).

Checkpoints are a directory of codebook.bin, decoder.bin, optim.bin and
meta.json; a resumed run is bitwise identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .codebook import (
    CodebookConfig,
    CodebookGrads,
    CodebookParams,
    forward,
    attention_backward,
    init_params,
)
from .datamodel import Corpus, Utterance
from .decoder import DecoderGrads, DecoderParams, init_decoder, loss_and_grads
from .errors import ConfigError, CoverageError, FormatError
from .optim import AdamState, adam_step, init_adam, scheduled_lr
from .queries import aggregate_from_matrices
from .schema import build, read_json
from .tensorio import read_blob, write_blob

META_VERSION = 1

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
    masks: Sequence[int],
) -> tuple[list[Utterance], list[Utterance]]:
    """Split a batch so every loss-group phoneme occurs in the generation group.

    Rejection-samples up to `limit` splits, then falls back to a greedy split
    that forces a bearer of each phoneme (rarest first, ties by symbol) into
    the generation group and fills the remainder randomly. Raises
    CoverageError when no valid split exists.

    Coverage is tested on phoneme bitmasks: masks[i] has one bit per phoneme
    of batch[i], such as RepStack.masks. Any bit assignment that gives each
    phoneme its own bit gives the same split.
    """
    if len(batch) != gen_size + loss_size:
        raise ValueError(f"batch size {len(batch)} != {gen_size} + {loss_size}")

    def split_ok(gen_idx, loss_idx):
        gen = loss = 0
        for i in gen_idx:
            gen |= masks[i]
        for i in loss_idx:
            loss |= masks[i]
        return not loss & ~gen

    for _ in range(limit):
        perm = rng.permutation(len(batch)).tolist()
        gen_idx, loss_idx = perm[:gen_size], perm[gen_size:]
        if split_ok(gen_idx, loss_idx):
            return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]

    syms = [u.phoneme_symbols() for u in batch]
    counts: dict[str, int] = {}
    for s in syms:
        for ph in s:
            counts[ph] = counts.get(ph, 0) + 1
    forced: list[int] = []
    in_forced: set[int] = set()
    covered: set[str] = set()
    for ph in sorted(counts, key=lambda p: (counts[p], p)):
        if ph in covered or len(forced) == gen_size:
            continue
        bearer = next(i for i in range(len(batch)) if ph in syms[i] and i not in in_forced)
        forced.append(bearer)
        in_forced.add(bearer)
        covered |= syms[bearer]
    rest = [i for i in range(len(batch)) if i not in in_forced]
    fill_order = rng.permutation(len(rest))
    fill = [rest[j] for j in fill_order.tolist()]
    gen_idx = forced + fill[: gen_size - len(forced)]
    loss_idx = fill[gen_size - len(forced) :]
    if split_ok(gen_idx, loss_idx):
        return [batch[i] for i in gen_idx], [batch[i] for i in loss_idx]
    gen_set: set[str] = set()
    for i in gen_idx:
        gen_set |= syms[i]
    uncovered = sorted(set().union(*(syms[i] for i in loss_idx)) - gen_set)
    raise CoverageError(
        f"no coverage-valid split exists for this batch; uncovered phonemes: {uncovered}"
    )


@dataclass
class TrainState:
    params: CodebookParams
    decoder: DecoderParams
    opt: AdamState
    rng: np.random.Generator

    @property
    def step(self) -> int:
        return self.opt.step


def _tensors(params: CodebookParams, decoder: DecoderParams) -> dict[str, np.ndarray]:
    """The model's tensors by name, in Adam's layout."""
    return {
        "w_q": params.w_q,
        "keys": params.keys,
        "codes": params.codes,
        "w_d": decoder.w_d,
        "b_d": decoder.b_d,
    }


def init_train_state(
    corpus: Corpus, config: TrainConfig, cb_config: CodebookConfig
) -> TrainState:
    if cb_config.dim != corpus.feature_spec.dim:
        raise ConfigError(
            f"codebook dim {cb_config.dim} != corpus feature dim {corpus.feature_spec.dim}"
        )
    params = init_params(cb_config, config.seed)
    decoder = init_decoder(cb_config.embed_dim, cb_config.dim, config.seed + 1)
    opt = init_adam(_tensors(params, decoder))
    return TrainState(params, decoder, opt, np.random.default_rng(config.seed + 2))


def train_step(
    state: TrainState, batch: list[Utterance], corpus: Corpus, config: TrainConfig
) -> tuple[float, float]:
    """One update: split batch, generate table, loss on the other group, Adam.

    Returns (loss, lr). Raises CoverageError if the batch admits no valid
    split; the caller resamples the batch in that case. The batch comes from
    the train split. Gradients are written straight into Adam's gradient
    views. The queries of the generation group are its rows of the corpus's
    rep stack, and the loss reads the loss group's merged statistics.
    """
    language = batch[0].language
    phoneme_set = corpus.phoneme_set(language)
    stack = corpus.rep_stack(language)
    gen_group, loss_group = split_with_coverage(
        batch,
        state.rng,
        config.gen_group_size,
        config.loss_group_size,
        config.coverage_resample_limit,
        masks=[stack.masks[stack.row[u.id]] for u in batch],
    )
    dtype = gen_group[0].features.dtype
    rows = [stack.row[u.id] for u in gen_group]
    qm = aggregate_from_matrices((stack.reps[rows], stack.counts[rows]), phoneme_set, dtype)
    table, record = forward(state.params, qm)
    grads = state.opt.grads
    loss, _, d_table = loss_and_grads(
        state.decoder,
        table,
        corpus.stats(loss_group),
        out=DecoderGrads(grads["w_d"], grads["b_d"]),
    )
    attention_backward(
        state.params,
        qm.matrix,
        record.weights,
        d_table,
        projected=record.projected,
        with_d_q=False,
        out=CodebookGrads(grads["w_q"], grads["keys"], grads["codes"]),
    )
    lr = scheduled_lr(state.step + 1, config.lr, config.warmup_steps, config.decay_rate)
    adam_step(
        state.opt,
        _tensors(state.params, state.decoder),
        grads,
        lr,
        config.beta1,
        config.beta2,
        config.eps,
    )
    return loss, lr


# ---------------------------------------------------------------------------
# checkpointing


@dataclass(frozen=True)
class CheckpointMeta:
    """meta.json; rng_state and the two configs are free-form objects."""

    version: int
    step: int
    config_hash: str
    rng_state: dict
    train_config: dict
    codebook_config: dict


def config_hash(config: TrainConfig, cb_config: CodebookConfig) -> str:
    blob = json.dumps(
        {"train": asdict(config), "codebook": asdict(cb_config)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _rng_state_to_json(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {
        "bit_generator": st["bit_generator"],
        "state": hex(st["state"]["state"]),
        "inc": hex(st["state"]["inc"]),
        "has_uint32": st["has_uint32"],
        "uinteger": st["uinteger"],
    }


def _rng_from_json(obj, meta_path: Path) -> np.random.Generator:
    """The generator _rng_state_to_json wrote; FormatError naming meta_path
    for anything numpy does not take as a PCG64 state."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = {
            "bit_generator": obj["bit_generator"],
            "state": {"state": int(obj["state"], 16), "inc": int(obj["inc"], 16)},
            "has_uint32": obj["has_uint32"],
            "uinteger": obj["uinteger"],
        }
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(
            f"{meta_path}: rng_state is not a PCG64 state ({type(e).__name__}: {e})"
        ) from e
    return rng


# The three blobs, in the tensorio container:
#   codebook.bin  XPCB, header n, heads, d_k, d_v, dim (u32), then per head
#                 w_q (dim x d_k), keys (n x d_k), codes (n x d_v)
#   decoder.bin   XPDC, no header, then w_d (embed_dim x dim), b_d (dim)
#   optim.bin     XPOP, header step (u64), then m and v of each tensor in
#                 Adam's order (w_q, keys, codes, w_d, b_d), flattened to
#                 (-1, last axis)
CODEBOOK_MAGIC, DECODER_MAGIC, OPTIM_MAGIC = b"XPCB", b"XPDC", b"XPOP"
BLOB_VERSION = 1


def _codebook_shapes(*fields):
    """(name, shape) of each codebook.bin tensor, lazily: heads comes from the file."""
    cfg = CodebookConfig(*fields)  # a zero field raises ConfigError here
    per_head = {"w_q": (cfg.dim, cfg.d_k), "keys": (cfg.n, cfg.d_k), "codes": (cfg.n, cfg.d_v)}
    return ((f"{name}[{h}]", shape) for h in range(cfg.heads) for name, shape in per_head.items())


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def save_checkpoint(
    state: TrainState, out_dir, config: TrainConfig, cb_config: CodebookConfig
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = state.params
    write_blob(
        out / "codebook.bin",
        CODEBOOK_MAGIC,
        BLOB_VERSION,
        struct.pack("<5I", *astuple(p.config)),
        (t[h] for h in range(p.config.heads) for t in (p.w_q, p.keys, p.codes)),
    )
    d = state.decoder
    write_blob(out / "decoder.bin", DECODER_MAGIC, BLOB_VERSION, b"", (d.w_d, d.b_d))
    opt = state.opt
    write_blob(
        out / "optim.bin",
        OPTIM_MAGIC,
        BLOB_VERSION,
        struct.pack("<Q", opt.step),
        (_flat(moments[name]) for name in opt.m for moments in (opt.m, opt.v)),
    )
    meta = CheckpointMeta(
        META_VERSION, state.step, config_hash(config, cb_config),
        _rng_state_to_json(state.rng), asdict(config), asdict(cb_config),
    )
    tmp = out / "meta.json.tmp"
    tmp.write_text(json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(out / "meta.json")


def _read_meta(ckpt_dir: Path) -> tuple[CheckpointMeta, Path]:
    """(meta.json, its path); FormatError unless it is of the supported version
    and fits CheckpointMeta. The one reader for resume, adapt and mapping."""
    meta_path = ckpt_dir / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"no checkpoint found at {ckpt_dir} (missing meta.json)")
    obj, text = read_json(meta_path, FormatError, str(meta_path))
    if isinstance(obj, dict) and obj.get("version") != META_VERSION:
        raise FormatError(f"unsupported checkpoint version {obj.get('version')} in {meta_path}")
    return build(CheckpointMeta, obj, text, FormatError, str(meta_path)), meta_path


def load_checkpoint(
    ckpt_dir, config: TrainConfig, cb_config: CodebookConfig
) -> TrainState:
    out = Path(ckpt_dir)
    meta, meta_path = _read_meta(out)
    if meta.config_hash != config_hash(config, cb_config):
        raise ConfigError(
            "checkpoint was written with a different configuration; refusing to resume"
        )
    params, decoder = _read_model(out)
    named = _tensors(params, decoder)
    (step,), moments = read_blob(
        out / "optim.bin",
        OPTIM_MAGIC,
        BLOB_VERSION,
        "<Q",
        lambda step: (
            (f"{kind}[{name}]", _flat(p).shape) for name, p in named.items() for kind in "mv"
        ),
    )
    m = {name: t.reshape(p.shape) for (name, p), t in zip(named.items(), moments[0::2])}
    v = {name: t.reshape(p.shape) for (name, p), t in zip(named.items(), moments[1::2])}
    if step != meta.step:
        raise FormatError(
            f"checkpoint step mismatch: meta says {meta.step}, optimizer says {step}"
        )
    opt = AdamState(m=m, v=v, step=step)
    return TrainState(params, decoder, opt, _rng_from_json(meta.rng_state, meta_path))


def load_checkpoint_params(ckpt_dir) -> tuple[CodebookParams, DecoderParams]:
    """Model tensors only, for adaptation and mapping discovery; meta.json
    must pass _read_meta as for resuming."""
    _read_meta(Path(ckpt_dir))
    return _read_model(Path(ckpt_dir))


def _read_model(out: Path) -> tuple[CodebookParams, DecoderParams]:
    """codebook.bin and decoder.bin; the decoder's shapes are checked against
    the codebook's config."""
    fields, tensors = read_blob(
        out / "codebook.bin", CODEBOOK_MAGIC, BLOB_VERSION, "<5I", _codebook_shapes
    )
    cfg = CodebookConfig(*fields)
    _, (w_d, b_d) = read_blob(
        out / "decoder.bin",
        DECODER_MAGIC,
        BLOB_VERSION,
        "",
        lambda: (("w_d", (cfg.embed_dim, cfg.dim)), ("b_d", (cfg.dim,))),
    )
    w_q, keys, codes = (np.stack(tensors[i::3]) for i in range(3))
    return CodebookParams(cfg, w_q, keys, codes), DecoderParams(w_d, b_d)


# ---------------------------------------------------------------------------
# training loop


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
    tmp = Path(str(path) + ".tmp")
    tmp.write_text("\n".join(kept) + ("\n" if kept else ""), encoding="utf-8")
    tmp.replace(path)


def _validation_report(corpus: Corpus, state: TrainState) -> list[str]:
    """Per-language loss on the held-out val split; reported, never acted on."""
    lines = ["# language\tn_val\tloss"]
    for language in corpus.language_ids:
        val = corpus.by_language(language, "val")
        train = corpus.by_language(language, "train")
        if not val or not train:
            continue
        phoneme_set = corpus.phoneme_set(language)
        dtype = train[0].features.dtype
        stack = corpus.rep_stack(language)
        rows = [stack.row[u.id] for u in train]
        qm = aggregate_from_matrices((stack.reps[rows], stack.counts[rows]), phoneme_set, dtype)
        table, _ = forward(state.params, qm)
        loss, _, _ = loss_and_grads(state.decoder, table, corpus.stats(val))
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
        log_mode = "a"
    else:
        state = init_train_state(corpus, config, cb_config)
        log_mode = "w"
    target = config.total_steps if stop_after is None else min(stop_after, config.total_steps)
    with open(out / "loss_log.tsv", log_mode, encoding="utf-8") as log:
        if log_mode == "w":
            log.write("# step\tlr\tloss\n")
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
    (out / "val_loss.tsv").write_text(
        "\n".join(_validation_report(corpus, state)) + "\n", encoding="utf-8"
    )
    return state
