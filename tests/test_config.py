import json

import pytest

from xpq.config import load_run_config, write_resolved_config
from xpq.errors import ConfigError


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
