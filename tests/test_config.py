import dataclasses
import json

import pytest

from xpq.adaptation import AdaptConfig
from xpq.codebook import CodebookConfig
from xpq.config import RunConfig, load_run_config, write_resolved_config
from xpq.errors import ConfigError
from xpq.schema import build
from xpq.synth import SynthConfig
from xpq.checkpoint import config_hash
from xpq.trainer import TrainConfig


def _write(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj, indent=2))
    return path


class TestRunConfig:
    def test_sections_optional(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, {}))
        assert cfg.synth is None and cfg.train is None and cfg.adapt is None

    def test_partial_section_uses_defaults(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, {"train": {"total_steps": 7}}))
        assert cfg.train.total_steps == 7
        assert cfg.train.lr == 0.001

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="trainer"):
            load_run_config(_write(tmp_path, {"trainer": {}}))

    def test_unknown_nested_key_names_line(self, tmp_path):
        path = _write(tmp_path, {"codebook": {"n": 8, "codes": 3}})
        with pytest.raises(ConfigError, match=r"codes.*line \d+"):
            load_run_config(path)

    def test_language_list_parsed(self, tmp_path):
        cfg = load_run_config(
            _write(
                tmp_path,
                {
                    "synth": {
                        "num_prototypes": 30,
                        "languages": [
                            {"language": "a", "m": 5, "shared_fraction": 0.2},
                            {"language": "b", "m": 5, "shared_fraction": 1.0, "role": "test"},
                        ],
                        "segments_per_utterance": [3, 6],
                    }
                },
            )
        )
        assert cfg.synth.languages[1].role == "test"
        assert cfg.synth.segments_per_utterance == (3, 6)

    def test_bad_range_shape(self, tmp_path):
        with pytest.raises(ConfigError, match="pair"):
            load_run_config(_write(tmp_path, {"synth": {"frames_per_segment": [3]}}))

    def test_adapt_checkpoints_tuple(self, tmp_path):
        cfg = load_run_config(
            _write(tmp_path, {"adapt": {"finetune_steps": 9, "eval_checkpoints": [0, 9]}})
        )
        assert cfg.adapt.eval_checkpoints == (0, 9)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(path)

    def test_resolved_config_round_trips(self, tmp_path):
        from xpq.trainer import TrainConfig

        write_resolved_config(tmp_path / "resolved.json", train=TrainConfig(), seed=3)
        obj = json.loads((tmp_path / "resolved.json").read_text())
        assert obj["train"]["batch_size"] == 40 and obj["seed"] == 3

    def test_default_sections_round_trip_through_the_loader(self, tmp_path):
        defaults = RunConfig(SynthConfig(), CodebookConfig(), TrainConfig(), AdaptConfig())
        path = tmp_path / "resolved.json"
        write_resolved_config(path, **dataclasses.asdict(defaults))
        assert load_run_config(path) == defaults

    def test_int_for_a_number_is_stored_as_a_number(self, tmp_path):
        as_int = load_run_config(_write(tmp_path, {"train": {"total_steps": 4, "lr": 1}}))
        as_float = load_run_config(_write(tmp_path, {"train": {"total_steps": 4, "lr": 1.0}}))
        assert type(as_int.train.lr) is float
        cb = CodebookConfig()
        assert config_hash(as_int.train, cb) == config_hash(as_float.train, cb)


class TestErrorLocation:
    """Lines are those of json.dumps(obj, indent=2), one key per line."""

    def test_unknown_top_level_key_names_its_own_line(self, tmp_path):
        path = _write(tmp_path, {"synth": {"seed": 5}, "seed": 3})
        with pytest.raises(ConfigError, match=r": unknown key 'seed' \(line 5\)$"):
            load_run_config(path)

    def test_key_in_two_sections_names_the_checked_one(self, tmp_path):
        path = _write(tmp_path, {"synth": {"seed": 5}, "train": {"seed": "x"}})
        message = r'^train.seed must be an integer, got "x" \(line 6\)$'
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    def test_missing_required_key_names_its_path(self, tmp_path):
        path = _write(tmp_path, {"synth": {"languages": [{"language": "a", "m": 3}]}})
        message = r"^synth.languages\[0\]: missing key 'shared_fraction'"
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    @pytest.mark.parametrize(
        "section, literal", [("train", "NaN"), ("adapt", "Infinity"), ("train", "-Infinity")]
    )
    def test_non_finite_number_names_its_path_and_line(self, tmp_path, section, literal):
        path = tmp_path / "config.json"
        path.write_text(f'{{\n  "{section}": {{\n    "lr": {literal}\n  }}\n}}\n')
        message = rf"^{section}.lr must be a finite number, got {literal} \(line 3\)$"
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)


@dataclasses.dataclass
class _WithFlag:
    flag: bool = False


def test_a_hint_without_a_json_rule_is_refused_not_dropped():
    """A bool field would otherwise leave the schema: its key "unknown", its default silent."""
    with pytest.raises(TypeError, match="no JSON schema for the type hint"):
        build(_WithFlag, {}, "{}", ConfigError, "config")
