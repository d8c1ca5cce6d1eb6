"""Run configuration: one strict JSON file with per-component sections.

Top-level keys: "synth", "codebook", "train", "adapt". Unknown keys
and values that do not fit their field's declared type are rejected, naming
the key and (best effort) its line in the file. Omitted
sections and fields fall back to the component defaults; command-line flags
override file values. The fully resolved configuration is written next to the
outputs as resolved_config.json.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path
from typing import Any

from .adaptation import AdaptConfig
from .codebook import CodebookConfig
from .errors import ConfigError
from .synth import SynthConfig, SynthLanguage
from .trainer import TrainConfig

_JSON_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _find_line(text: str, key: str) -> str:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return f" (line {lineno})"
    return ""


def _check_type(value, hint, where: str, line: str) -> None:
    """ConfigError unless the JSON value fits the declared field type.

    A bool fits no field (none is declared bool, and a bool is not an int),
    an int is accepted for a float, a dataclass is an
    object (its fields are checked when it is built), a tuple is a list of
    fitting items, and `X | None` takes X: null is never a value.
    """
    if type(None) in typing.get_args(hint):
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {json.dumps(value)}{line}")
        for i, item in enumerate(value):
            _check_type(item, typing.get_args(hint)[0], f"{where}[{i}]", line)
    elif dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {json.dumps(value)}{line}")
    elif isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"{where} must be {_JSON_NAMES[hint]}, got {json.dumps(value)}{line}")


def _build_dataclass(cls, obj: dict, context: str, text: str):
    """Keyword arguments for cls from a parsed JSON object, each value type-checked."""
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for key, value in obj.items():
        if key not in hints:
            raise ConfigError(
                f"{context}: unknown key {key!r}{_find_line(text, key)}"
            )
        _check_type(value, hints[key], f"{context}.{key}", _find_line(text, key))
        kwargs[key] = value
    return kwargs


def _tuple2(value: list, context: str) -> tuple[int, int]:
    if len(value) != 2:
        raise ConfigError(f"{context} must be a [min, max] pair, got {value!r}")
    return tuple(value)


def parse_synth(obj: dict, text: str = "") -> SynthConfig:
    kwargs = _build_dataclass(SynthConfig, obj, "synth", text)
    if "languages" in kwargs:
        languages = []
        for i, lang in enumerate(kwargs["languages"]):
            lang_kwargs = _build_dataclass(SynthLanguage, lang, f"synth.languages[{i}]", text)
            languages.append(SynthLanguage(**lang_kwargs))
        kwargs["languages"] = tuple(languages)
    for key in ("segments_per_utterance", "frames_per_segment"):
        if key in kwargs:
            kwargs[key] = _tuple2(kwargs[key], f"synth.{key}")
    return SynthConfig(**kwargs)


def parse_codebook(obj: dict, text: str = "") -> CodebookConfig:
    return CodebookConfig(**_build_dataclass(CodebookConfig, obj, "codebook", text))


def parse_train(obj: dict, text: str = "") -> TrainConfig:
    return TrainConfig(**_build_dataclass(TrainConfig, obj, "train", text))


def parse_adapt(obj: dict, text: str = "") -> AdaptConfig:
    kwargs = _build_dataclass(AdaptConfig, obj, "adapt", text)
    if "eval_checkpoints" in kwargs:
        kwargs["eval_checkpoints"] = tuple(kwargs["eval_checkpoints"])
    return AdaptConfig(**kwargs)


@dataclasses.dataclass
class RunConfig:
    synth: SynthConfig | None = None
    codebook: CodebookConfig | None = None
    train: TrainConfig | None = None
    adapt: AdaptConfig | None = None


def load_run_config(path) -> RunConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    _build_dataclass(RunConfig, obj, f"config {path}", text)
    try:
        return RunConfig(
            synth=parse_synth(obj["synth"], text) if "synth" in obj else None,
            codebook=parse_codebook(obj["codebook"], text) if "codebook" in obj else None,
            train=parse_train(obj["train"], text) if "train" in obj else None,
            adapt=parse_adapt(obj["adapt"], text) if "adapt" in obj else None,
        )
    except TypeError as e:
        raise ConfigError(f"config {path}: {e}") from e


def write_resolved_config(path, **sections) -> None:
    """Dump the effective configuration (dataclasses or plain values) as JSON."""
    obj = {}
    for name, value in sections.items():
        if value is None:
            continue
        obj[name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
