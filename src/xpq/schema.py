"""The run config, the corpus manifest and a checkpoint's meta.json, built
from parsed JSON with their dataclasses' type hints as the only schema.

A dataclass is an object with no unknown and no missing required key; a field
whose type JSON cannot express (a `Path`) is not a key. An error that the
dataclass's own `__post_init__` check raises is reported at the object's path
and the line of its first key. `tuple[X, ...]` is a list, `tuple[X, Y]` a list
of two, `X | None` takes X (null is never a value) and `dict` takes any object
as it is; any other hint is a TypeError. A bool fits no field, an int in a
float field is stored as a float, and NaN and the infinities fit none.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
import typing
from pathlib import Path

from .errors import XpqError

_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}
# JSON strings hold no raw newline, so a newline token is always a line break.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}\[\],\n]')


def _find_line(text: str, path: tuple) -> str:
    """' (line N)' for the key at path (object keys and list indices) in the
    JSON text; trailing list indices name the list's key, the root names none."""
    while path and isinstance(path[-1], int):
        path = path[:-1]
    stack, line = [], 1  # per open container: [current key or index, is an object]
    for token in _TOKEN.findall(text):
        if token == "\n":
            line += 1
        elif token in ("{", "["):
            stack.append([None, True] if token == "{" else [0, False])
        elif token in ("}", "]"):
            stack.pop()
        elif token == ",":
            stack[-1][0] = None if stack[-1][1] else stack[-1][0] + 1
        elif stack and stack[-1][1] and stack[-1][0] is None:  # a string where a key belongs
            stack[-1][0] = json.loads(token)
            if tuple(key for key, _ in stack) == path:
                return f" (line {line})"
    return ""


def read_json(path, error: type[XpqError], label: str) -> tuple[object, str]:
    """(the parsed value, the text) of the UTF-8 JSON file at path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text), text
    except ValueError as e:  # invalid JSON or UTF-8
        raise error(f"{label}: not valid JSON: {e}") from e


class _Misfit(Exception):
    """args: the path whose value fits no hint, "must be ..." and that path again."""


class _KeyMisfit(_Misfit):
    """args: an object's path, its unknown or missing key, the path whose line is named."""


class _CheckMisfit(_KeyMisfit):
    """args: an object's path, the message of `error`, which the dataclass's
    own check raised, and the path of the object's first key."""

    def __init__(self, path: tuple, error: XpqError, line_path: tuple):
        super().__init__(path, str(error), line_path)
        self.error = error


def _misfit(value, path: tuple, expected: str) -> _Misfit:
    return _Misfit(path, f"must be {expected}, got {json.dumps(value)}", path)


def _typed(kind: type, value, path: tuple):
    """value if its parsed JSON type is kind (a bool is no int), else a misfit."""
    if type(value) is not kind:
        raise _misfit(value, path, _KINDS[kind])
    return value


def build(hint, value, text: str, error: type[XpqError], label: str, *, name_file=True):
    """The value of type hint built from value, parsed from the JSON text. A
    misfit, or an error of class error raised by a dataclass's own check,
    raises error naming its path and line, led by label (the file) on every
    path when name_file is set and otherwise at the top level only."""
    try:
        return _builder(hint)(value, ())
    except _Misfit as e:
        if isinstance(e, _CheckMisfit) and not isinstance(e.error, error):
            raise e.error from None
        (path, problem, line_path), of_keys = e.args, isinstance(e, _KeyMisfit)
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    if not of_keys:
        problem = f"{name or 'the top level'} {problem}"
    elif name:
        problem = f"{name}: {problem}"
    head = f"{label}: " if name_file or not path else ""
    raise error(f"{head}{problem}{_find_line(text, line_path)}")


@functools.cache
def _builder(hint):
    """(value, path) -> value of type hint, made once per hint."""
    args = typing.get_args(hint)
    if type(None) in args:
        return _builder(args[0])
    if dataclasses.is_dataclass(hint):
        return _dataclass_builder(hint)
    if typing.get_origin(hint) is tuple:
        return _tuple_builder(args)
    if hint is float:
        return _build_float
    if hint not in _KINDS:
        raise TypeError(f"no JSON schema for the type hint {hint!r}")
    return functools.partial(_typed, hint)


def _build_float(value, path):
    if type(value) is not float and type(value) is not int:
        raise _misfit(value, path, "a number")
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, a too large int
        raise _misfit(value, path, "a finite number")
    return float(value)


def _tuple_builder(args):
    variadic = args[-1] is Ellipsis
    items = [_builder(h) for h in (args[:1] if variadic else args)]

    def build_list(value, path):
        _typed(list, value, path)
        if not variadic and len(value) != len(items):
            raise _misfit(value, path, "a [min, max] pair")
        builders = items * len(value) if variadic else items
        return tuple([b(v, path + (i,)) for i, (b, v) in enumerate(zip(builders, value))])

    return build_list


def _dataclass_builder(cls):
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if hints[f.name] is not Path]  # not a key
    builders = {f.name: _builder(hints[f.name]) for f in fields}
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}

    def build_object(value, path):
        _typed(dict, value, path)
        if not value.keys() <= builders.keys():
            key = next(k for k in value if k not in builders)
            raise _KeyMisfit(path, f"unknown key {key!r}", path + (key,))
        if not required <= value.keys():
            key = next(k for k in builders if k in required and k not in value)
            raise _KeyMisfit(path, f"missing key {key!r}", path)
        kwargs = {k: builders[k](v, path + (k,)) for k, v in value.items()}
        try:
            return cls(**kwargs)
        except XpqError as e:  # a check in __post_init__; its line is the object's first key
            raise _CheckMisfit(path, e, path + tuple(value)[:1]) from e

    return build_object
