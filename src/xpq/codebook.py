"""Codebook attention module.

Multi-head scaled dot-product attention with learnable Keys and Codes: the
Keys capture patterns in phoneme queries, the Codes form a shared embedding
basis, and the per-language embedding table is the concatenation of head
outputs. Queries are projected without bias, so an all-zero query row (an
absent phoneme) yields exactly uniform attention and lands on the head-wise
mean code, a neutral but well-defined embedding.

Includes exact analytic gradients (with the full softmax Jacobian term) of
the scalar objective <upstream, embedding> w.r.t. the parameters; the queries
are inputs and get none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .queries import QueryMatrix


@dataclass(frozen=True)
class CodebookConfig:
    n: int = 128  # codebook size
    heads: int = 4
    d_k: int = 64
    d_v: int = 64
    dim: int = 16  # input query dimensionality

    def __post_init__(self):
        for name in ("n", "heads", "d_k", "d_v", "dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"codebook config: {name} must be >= 1")

    @property
    def embed_dim(self) -> int:
        return self.heads * self.d_v


@dataclass
class CodebookParams:
    config: CodebookConfig
    w_q: np.ndarray  # (H, dim, d_k) per-head query projections, no bias
    keys: np.ndarray  # (H, n, d_k)
    codes: np.ndarray  # (H, n, d_v)

    def copy(self) -> "CodebookParams":
        return CodebookParams(self.config, self.w_q.copy(), self.keys.copy(), self.codes.copy())


@dataclass
class CodebookGrads:
    w_q: np.ndarray
    keys: np.ndarray
    codes: np.ndarray


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # (m, heads * d_v), rows in canonical phoneme order
    language: str
    phonemes: tuple[str, ...]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.matrix.copy(), self.language, self.phonemes)


@dataclass
class AttentionRecord:
    weights: np.ndarray  # (H, m, n); each row is a probability distribution
    projected: np.ndarray  # (H, m, d_k) queries @ w_q, which the backward pass reuses


def xavier_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(config: CodebookConfig, seed, dtype=np.float32) -> CodebookParams:
    """Xavier-uniform initialization; deterministic under seed.

    seed may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h, n, d_k, d_v, dim = config.heads, config.n, config.d_k, config.d_v, config.dim
    w_q = rng.uniform(-xavier_bound(dim, d_k), xavier_bound(dim, d_k), (h, dim, d_k))
    keys = rng.uniform(-xavier_bound(n, d_k), xavier_bound(n, d_k), (h, n, d_k))
    codes = rng.uniform(-xavier_bound(n, d_v), xavier_bound(n, d_v), (h, n, d_v))
    return CodebookParams(config, w_q.astype(dtype), keys.astype(dtype), codes.astype(dtype))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; softmax(x + c) == softmax(x) per row."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention_forward(
    params: CodebookParams, queries: np.ndarray
) -> tuple[np.ndarray, AttentionRecord]:
    """Core forward on a raw (m, dim) query matrix.

    Returns (embedding (m, H*d_v), record). Per head:
    weights = softmax(Q W_q Keys^T / sqrt(d_k)), output = weights @ Codes.
    All heads run as stacked (H, m, .) matmuls; each head's product is the
    same BLAS call a per-head loop would make, so the result is bitwise equal.
    """
    cfg = params.config
    q = np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != cfg.dim:
        raise ValueError(f"queries must be (m, {cfg.dim}), got {q.shape}")
    m = q.shape[0]
    scale = 1.0 / math.sqrt(cfg.d_k)
    projected = q @ params.w_q  # (H, m, d_k)
    logits = projected @ params.keys.transpose(0, 2, 1)
    logits *= scale
    weights = softmax_rows(logits)
    heads_out = weights @ params.codes  # (H, m, d_v)
    embedding = heads_out.transpose(1, 0, 2).reshape(m, cfg.embed_dim)
    if not np.isfinite(embedding).all() or not np.isfinite(weights).all():
        raise NumericError("non-finite values in attention forward")
    return embedding, AttentionRecord(weights, projected)


def attention_backward(
    params: CodebookParams,
    queries: np.ndarray,
    record: AttentionRecord,
    upstream: np.ndarray,
    *,
    out: CodebookGrads | None = None,
) -> CodebookGrads:
    """Exact gradients of <upstream, embedding> w.r.t. w_q, keys and codes.

    record is what attention_forward returned for the same params and
    queries; neither the softmax nor the projection is recomputed. upstream
    has the embedding's shape (m, H*d_v). The queries are inputs, not
    parameters, so no gradient flows to them. All heads run as stacked
    matmuls. out, when given, receives the gradients (arrays of their shapes
    and dtype, such as Adam's gradient views) and is returned.
    """
    cfg = params.config
    q = np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != cfg.dim:
        raise ValueError(f"queries must be (m, {cfg.dim}), got {q.shape}")
    m = q.shape[0]
    weights = record.weights
    if weights.shape != (cfg.heads, m, cfg.n):
        raise ValueError(f"weights must be {(cfg.heads, m, cfg.n)}, got {weights.shape}")
    if upstream.shape != (m, cfg.embed_dim):
        raise ValueError(f"upstream must be {(m, cfg.embed_dim)}, got {upstream.shape}")
    scale = 1.0 / math.sqrt(cfg.d_k)
    if out is None:
        out = CodebookGrads(None, None, None)
    g_out = upstream.reshape(m, cfg.heads, cfg.d_v).transpose(1, 0, 2)  # (H, m, d_v)
    out.codes = np.matmul(weights.transpose(0, 2, 1), g_out, out=out.codes)
    d_w = g_out @ params.codes.transpose(0, 2, 1)
    # softmax Jacobian: dL/dz = w * (dL/dw - sum_j dL/dw_j * w_j)
    d_logits = weights * (d_w - (d_w * weights).sum(axis=-1, keepdims=True))
    d_scores = d_logits * scale
    d_proj = d_scores @ params.keys  # (H, m, d_k)
    out.keys = np.matmul(d_scores.transpose(0, 2, 1), record.projected, out=out.keys)
    out.w_q = np.matmul(q.T, d_proj, out=out.w_q)
    return out


def forward(
    params: CodebookParams, queries: QueryMatrix
) -> tuple[EmbeddingTable, AttentionRecord]:
    """Generate the phoneme embedding table for one language's queries."""
    embedding, record = attention_forward(params, queries.matrix)
    return EmbeddingTable(embedding, queries.language, queries.phonemes), record
