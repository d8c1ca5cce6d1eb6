"""Checkpoints: the format, its one writer and its one strict reader.

A checkpoint is a directory of codebook.bin, decoder.bin, optim.bin and
meta.json; a run resumed from one is bitwise identical to an uninterrupted
run. Adaptation and mapping discovery read only its model tensors.

Each .bin file is a blob, all little-endian: a 4-byte magic, a u32 version,
a fixed header packed with a struct format, then tensors. Each tensor is
rows u32, cols u32, then rows*cols IEEE-754 binary32 values, row-major; a
1-D tensor of n values is stored as 1 x n. Nothing follows the last tensor.
  codebook.bin  XPCB, header n, heads, d_k, d_v, dim (u32), then per head
                w_q (dim x d_k), keys (n x d_k), codes (n x d_v)
  decoder.bin   XPDC, no header, then w_d (embed_dim x dim), b_d (dim)
  optim.bin     XPOP, header step (u64), then m and v of each tensor in
                model_tensors order, flattened to (-1, last axis)
meta.json is CheckpointMeta: the step, both configs and their hash, and the
batch generator's PCG64 state.

The blob reader checks the magic, the version and the header length,
compares each tensor's declared size with the bytes left in the file before
anything is read or allocated, checks each tensor's shape against the one
the header implies, refuses a tensor holding a NaN or an infinity, and
refuses trailing bytes. Every file is written through datamodel.write_file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable

import numpy as np

from .codebook import CodebookConfig, CodebookParams
from .datamodel import write_file
from .decoder import DecoderParams
from .errors import ConfigError, FormatError, TruncationError
from .optim import AdamState
from .schema import build, read_json

if TYPE_CHECKING:
    from .trainer import TrainConfig

META_VERSION = 1
CODEBOOK_MAGIC, DECODER_MAGIC, OPTIM_MAGIC = b"XPCB", b"XPDC", b"XPOP"
BLOB_VERSION = 1


@dataclass
class TrainState:
    params: CodebookParams
    decoder: DecoderParams
    opt: AdamState
    rng: np.random.Generator

    @property
    def step(self) -> int:
        return self.opt.step


def model_tensors(params: CodebookParams, decoder: DecoderParams) -> dict[str, np.ndarray]:
    """The model's tensors by name, in Adam's order, which is optim.bin's."""
    return {
        "w_q": params.w_q,
        "keys": params.keys,
        "codes": params.codes,
        "w_d": decoder.w_d,
        "b_d": decoder.b_d,
    }


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
    blob = json.dumps({"train": asdict(config), "codebook": asdict(cb_config)}, sort_keys=True)
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


# ---------------------------------------------------------------------------
# the blob container


def _stored_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    return (1, shape[0]) if len(shape) == 1 else tuple(shape)


def _write_blob(
    path, magic: bytes, version: int, header: bytes, tensors: Iterable[np.ndarray]
) -> None:
    """Write the blob in one write_file call."""
    parts = [magic, struct.pack("<I", version), header]
    for t in tensors:
        a = np.ascontiguousarray(t, dtype="<f4")
        parts += (struct.pack("<II", *_stored_shape(a.shape)), memoryview(a))
    write_file(path, b"".join(parts))


def _read(f: BinaryIO, count: int, path) -> bytes:
    raw = f.read(count)
    if len(raw) < count:
        raise TruncationError(f"unexpected end of file in {path}")
    return raw


def _read_blob(
    path,
    magic: bytes,
    version: int,
    header_fmt: str,
    shapes: Callable[..., Iterable[tuple[str, tuple[int, ...]]]],
) -> tuple[tuple, list[np.ndarray]]:
    """(header fields, tensors) of the blob at path.

    shapes(*header) yields (name, shape) for each tensor in file order; it is
    consumed one tensor at a time, so a hostile header cannot make it build a
    huge list. A ConfigError it raises is reported as a FormatError naming
    path. Tensors come back as float32 arrays of exactly those shapes.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) < 8 or head[:4] != magic:
            raise FormatError(f"bad magic in {path}: expected {magic!r}, got {head[:4]!r}")
        (found,) = struct.unpack("<I", head[4:])
        if found != version:
            raise FormatError(f"unsupported version {found} in {path}, expected {version}")
        header = struct.unpack(header_fmt, _read(f, struct.calcsize(header_fmt), path))
        try:
            expected = shapes(*header)
        except ConfigError as e:
            raise FormatError(f"{path}: {e}") from None
        tensors = []
        for name, shape in expected:
            rows, cols = struct.unpack("<II", _read(f, 8, path))
            nbytes = 4 * rows * cols
            left = size - f.tell()
            if nbytes > left:
                raise TruncationError(
                    f"tensor in {path} declares {rows}x{cols} ({nbytes} bytes) "
                    f"but {left} bytes remain"
                )
            if (rows, cols) != _stored_shape(shape):
                got = (cols,) if len(shape) == 1 and rows == 1 else (rows, cols)
                raise FormatError(f"{path}: {name} has shape {got}, expected {shape}")
            tensor = np.frombuffer(f.read(nbytes), dtype="<f4").reshape(shape).copy()
            if not np.isfinite(tensor).all():
                raise FormatError(f"{path}: {name} holds a non-finite value")
            tensors.append(tensor)
        left = size - f.tell()
        if left:
            raise FormatError(f"{path}: {left} bytes follow the last tensor")
    return header, tensors


# ---------------------------------------------------------------------------
# the checkpoint directory


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
    _write_blob(
        out / "codebook.bin",
        CODEBOOK_MAGIC,
        BLOB_VERSION,
        struct.pack("<5I", *astuple(p.config)),
        (t[h] for h in range(p.config.heads) for t in (p.w_q, p.keys, p.codes)),
    )
    d = state.decoder
    _write_blob(out / "decoder.bin", DECODER_MAGIC, BLOB_VERSION, b"", (d.w_d, d.b_d))
    opt = state.opt
    _write_blob(
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
    write_file(out / "meta.json", json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n")


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


def load_checkpoint(ckpt_dir, config: TrainConfig, cb_config: CodebookConfig) -> TrainState:
    out = Path(ckpt_dir)
    meta, meta_path = _read_meta(out)
    if meta.config_hash != config_hash(config, cb_config):
        raise ConfigError(
            "checkpoint was written with a different configuration; refusing to resume"
        )
    params, decoder = _read_model(out)
    named = model_tensors(params, decoder)
    (step,), moments = _read_blob(
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
    fields, tensors = _read_blob(
        out / "codebook.bin", CODEBOOK_MAGIC, BLOB_VERSION, "<5I", _codebook_shapes
    )
    cfg = CodebookConfig(*fields)
    _, (w_d, b_d) = _read_blob(
        out / "decoder.bin",
        DECODER_MAGIC,
        BLOB_VERSION,
        "",
        lambda: (("w_d", (cfg.embed_dim, cfg.dim)), ("b_d", (cfg.dim,))),
    )
    w_q, keys, codes = (np.stack(tensors[i::3]) for i in range(3))
    return CodebookParams(cfg, w_q, keys, codes), DecoderParams(w_d, b_d)
