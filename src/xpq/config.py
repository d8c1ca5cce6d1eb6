"""Run configuration: one strict JSON file with per-component sections.

Top-level keys: "synth", "codebook", "train", "adapt"; `schema.build` reads
them into the config dataclasses, whose type hints are the only schema.
Omitted sections and fields fall back to the component defaults; command-line
flags override file values. The fully resolved configuration is written next
to the outputs as resolved_config.json.
"""

from __future__ import annotations

import dataclasses
import json

from .adaptation import AdaptConfig
from .codebook import CodebookConfig
from .datamodel import write_file
from .errors import ConfigError
from .schema import build, read_json
from .synth import SynthConfig
from .trainer import TrainConfig


@dataclasses.dataclass
class RunConfig:
    synth: SynthConfig | None = None
    codebook: CodebookConfig | None = None
    train: TrainConfig | None = None
    adapt: AdaptConfig | None = None


def load_run_config(path) -> RunConfig:
    obj, text = read_json(path, ConfigError, f"config {path}")
    return build(RunConfig, obj, text, ConfigError, f"config {path}", name_file=False)


def write_resolved_config(path, **sections) -> None:
    """Dump the effective configuration (dataclasses or plain values) as JSON."""
    obj = {}
    for name, value in sections.items():
        if value is None:
            continue
        obj[name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
