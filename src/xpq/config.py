"""Run configuration: one strict JSON file with per-component sections.

Top-level keys: "synth", "codebook", "train", "adapt". The config
dataclasses' type hints are the only schema: one recursive builder turns the
parsed JSON into them, rejecting unknown keys, missing required keys and
values that do not fit their field's declared type (NaN and Infinity, which
Python's JSON parser takes, fit no number field), naming the path and the
line of the key at that path. An integer given for a number field is stored
as a number, so `1` and `1.0` resolve (and hash) alike. Omitted sections and
fields fall back to the component defaults; command-line flags override file
values. The fully resolved configuration is written next to the outputs as
resolved_config.json.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

from .adaptation import AdaptConfig
from .codebook import CodebookConfig
from .errors import ConfigError
from .synth import SynthConfig
from .trainer import TrainConfig

_JSON_NAMES = {int: "an integer", float: "a number", str: "a string"}
# JSON strings hold no raw newline, so a newline token is always a line break.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}\[\],\n]')


def _find_line(text: str, path: tuple) -> str:
    """' (line N)' for the key at path (object keys and list indices) in the
    JSON text; trailing list indices name the list's key, the root names none."""
    while path and isinstance(path[-1], int):
        path = path[:-1]
    if not path:
        return ""
    stack, line = [], 1  # per open container: [current key or index, is an object]
    for token in _TOKEN.findall(text):
        if token == "\n":
            line += 1
        elif token in ("{", "["):
            stack.append([None, True] if token == "{" else [0, False])
        elif token in ("}", "]"):
            stack.pop()
        elif token == ",":
            top = stack[-1]
            top[0] = None if top[1] else top[0] + 1
        elif stack[-1][1] and stack[-1][0] is None:  # a string where a key belongs
            stack[-1][0] = json.loads(token)
            if tuple(key for key, _ in stack) == path:
                return f" (line {line})"
    return ""


def _build(hint, value, where: tuple, text: str):
    """The value of declared type `hint` built from a parsed JSON value.

    where is (name of the root, key or index, ...), the path of the value.
    A dataclass is an object with no unknown and no missing required key, a
    `tuple[X, ...]` a list, a `tuple[X, Y]` a list of two, and `X | None`
    takes X: null is never a value. A bool fits no field, an int is stored as
    a float in a float field, and NaN and the infinities fit none. Anything
    else raises ConfigError.
    """
    path = where[1:]
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:] or where[0]

    def misfit(expected):
        line = _find_line(text, path)
        return ConfigError(f"{name} must be {expected}, got {json.dumps(value)}{line}")

    if type(None) in typing.get_args(hint):
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise misfit("an object")
        hints = typing.get_type_hints(hint)
        for key in value:
            if key not in hints:
                raise ConfigError(f"{name}: unknown key {key!r}{_find_line(text, path + (key,))}")
        for field in dataclasses.fields(hint):
            required = field.default is field.default_factory is dataclasses.MISSING
            if required and field.name not in value:
                raise ConfigError(f"{name}: missing key {field.name!r}{_find_line(text, path)}")
        kwargs = {key: _build(hints[key], v, where + (key,), text) for key, v in value.items()}
        return hint(**kwargs)
    if typing.get_origin(hint) is tuple:
        item_hints = typing.get_args(hint)
        if not isinstance(value, list):
            raise misfit("a list")
        if item_hints[-1] is Ellipsis:
            item_hints = item_hints[:1] * len(value)
        elif len(value) != len(item_hints):
            raise misfit("a [min, max] pair")
        items = enumerate(zip(item_hints, value))
        return tuple(_build(h, v, where + (i,), text) for i, (h, v) in items)
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise misfit(_JSON_NAMES[hint])
    if hint is float and not math.isfinite(value):  # json.loads takes NaN and Infinity
        raise misfit("a finite number")
    return float(value) if hint is float else value


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
    return _build(RunConfig, obj, (f"config {path}",), text)


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
