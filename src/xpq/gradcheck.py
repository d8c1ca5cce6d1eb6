"""Central finite-difference verification of every analytic gradient.

Three suites: the attention module's parameters (w_q, keys, codes) alone, the
frame reconstructor alone, and the composite objective (attention forward
into reconstruction loss) used by a training step. All checks run in float64
with h=1e-5 against random instances, whose covered frames are random
per-phoneme statistics; the analytic path must match within a 1e-4 relative
error on every parameter entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .codebook import CodebookConfig, attention_backward, forward, init_params
from .decoder import DecoderParams, PhonemeStats, loss_and_grads
from .errors import ConfigError

THRESHOLD = 1e-4
FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckShape:
    m: int = 3  # phonemes
    n: int = 4  # codebook entries
    dim: int = 5
    heads: int = 2
    d_k: int = 3
    d_v: int = 2
    frames: int = 17  # covered frames, at least one per phoneme

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 1:
                raise ConfigError(f"gradcheck shape: {field.name} must be >= 1, got {value}")

    def codebook_config(self) -> CodebookConfig:
        return CodebookConfig(self.n, self.heads, self.d_k, self.d_v, self.dim)


DEFAULT_SHAPES = (
    CheckShape(3, 4, 5, 2, 3, 2, 17),
    CheckShape(1, 2, 1, 1, 1, 3, 6),
    CheckShape(5, 8, 4, 4, 2, 2, 31),
)


def central_difference(objective, arr: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Numeric gradient of a scalar objective by perturbing arr in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = objective()
        flat[i] = orig - h
        fm = objective()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_ERR_FLOOR) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _random_instance(shape: CheckShape, seed: int):
    rng = np.random.default_rng(seed)
    cfg = shape.codebook_config()
    params = init_params(cfg, rng, dtype=np.float64)
    decoder = DecoderParams(
        rng.standard_normal((cfg.embed_dim, cfg.dim)),
        rng.standard_normal(cfg.dim),
    )
    queries = rng.standard_normal((shape.m, cfg.dim))
    stats = PhonemeStats(
        1 + rng.multinomial(max(shape.frames - shape.m, 0), np.full(shape.m, 1.0 / shape.m)),
        rng.standard_normal((shape.m, cfg.dim)),
        float(rng.uniform(0.0, shape.frames)),
    )
    upstream = rng.standard_normal((shape.m, cfg.embed_dim))
    return params, decoder, queries, stats, upstream


def _worst(objective, pairs) -> float:
    """The largest max_rel_err over (analytic, array) pairs, each array's
    numeric gradient taken by central differences of objective; NaN when
    any of them is NaN, so a NaN gradient fails."""
    return float(np.max([max_rel_err(a, central_difference(objective, arr)) for a, arr in pairs]))


def check_codebook_gradients(seed: int, shape: CheckShape = CheckShape()) -> float:
    """<G, embedding> gradients w.r.t. w_q, keys and codes."""
    params, _, queries, _, upstream = _random_instance(shape, seed)

    def objective():
        emb, _ = forward(params, queries)
        return float((upstream * emb).sum())

    _, record = forward(params, queries)
    grads = attention_backward(params, queries, record, upstream)
    return _worst(
        objective,
        ((grads.w_q, params.w_q), (grads.keys, params.keys), (grads.codes, params.codes)),
    )


def check_decoder_gradients(seed: int, shape: CheckShape = CheckShape()) -> float:
    """Reconstruction-loss gradients w.r.t. w_d, b_d and the table rows."""
    params, decoder, _, stats, _ = _random_instance(shape, seed)
    table = np.random.default_rng(seed + 1).standard_normal((shape.m, params.config.embed_dim))

    def objective():
        return loss_and_grads(decoder, table, stats)[0]

    _, dec_grads, d_table = loss_and_grads(decoder, table, stats)
    return _worst(
        objective, ((dec_grads.w_d, decoder.w_d), (dec_grads.b_d, decoder.b_d), (d_table, table))
    )


def check_train_objective_gradients(seed: int, shape: CheckShape = CheckShape()) -> float:
    """Composite objective: queries -> attention -> table -> frame loss.

    Checks all five trainable tensors exactly as a training step updates them.
    """
    params, decoder, queries, stats, _ = _random_instance(shape, seed)

    def objective():
        return loss_and_grads(decoder, forward(params, queries)[0], stats)[0]

    table, record = forward(params, queries)
    _, dec_grads, d_table = loss_and_grads(decoder, table, stats)
    cb_grads = attention_backward(params, queries, record, d_table)
    return _worst(
        objective,
        (
            (cb_grads.w_q, params.w_q),
            (cb_grads.keys, params.keys),
            (cb_grads.codes, params.codes),
            (dec_grads.w_d, decoder.w_d),
            (dec_grads.b_d, decoder.b_d),
        ),
    )


SUITES = (
    ("codebook", check_codebook_gradients),
    ("decoder", check_decoder_gradients),
    ("train-objective", check_train_objective_gradients),
)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    shape: CheckShape
    seed: int
    max_err: float

    @property
    def passed(self) -> bool:
        return self.max_err < THRESHOLD

    def __str__(self) -> str:
        s = self.shape
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {self.suite:<15} m={s.m} n={s.n} dim={s.dim} H={s.heads} "
            f"d_k={s.d_k} d_v={s.d_v} seed={self.seed} max_rel_err={self.max_err:.3e} {status}"
        )


def run_suites(
    base_seed: int = 0,
    n_seeds: int = 10,
    shapes: tuple[CheckShape, ...] = DEFAULT_SHAPES,
) -> tuple[list[SuiteResult], float]:
    """All suites over all (shape, seed) pairs; returns (results, elapsed seconds)."""
    t0 = time.perf_counter()
    results = []
    for shape in shapes:
        for offset in range(n_seeds):
            for name, check in SUITES:
                err = check(base_seed + offset, shape)
                results.append(SuiteResult(name, shape, base_seed + offset, err))
    return results, time.perf_counter() - t0
