import json
import re
import shutil
import subprocess
import sys

import pytest

from xpq.cli import main

CONFIG = {
    "synth": {
        "dim": 6,
        "num_prototypes": 10,
        "languages": [
            {"language": "L0", "m": 6, "shared_fraction": 0.5},
            {"language": "L1", "m": 6, "shared_fraction": 0.5},
            {"language": "T0", "m": 6, "shared_fraction": 0.5, "role": "test"},
        ],
        "noise_sigma": 0.05,
        "utterances_per_language": 40,
        "segments_per_utterance": [5, 8],
        "frames_per_segment": [2, 4],
        "seed": 21,
    },
    "codebook": {"n": 12, "heads": 2, "d_k": 6, "d_v": 6, "dim": 6},
    "train": {
        "batch_size": 10,
        "gen_group_size": 8,
        "loss_group_size": 2,
        "warmup_steps": 5,
        "total_steps": 30,
        "seed": 2,
    },
    "adapt": {"finetune_steps": 20, "eval_checkpoints": [0, 20]},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "config.json").write_text(json.dumps(CONFIG, indent=2))
    assert main(["gen-corpus", "--config", str(root / "config.json"),
                 "--out", str(root / "corpus")]) == 0
    assert main(["train", "--config", str(root / "config.json"),
                 "--corpus", str(root / "corpus" / "manifest.json"),
                 "--out", str(root / "ckpt")]) == 0
    return root


class TestGenCorpus:
    def test_corpus_validates_clean(self, workdir):
        assert main(["validate", "--manifest", str(workdir / "corpus" / "manifest.json")]) == 0

    def test_resolved_config_written(self, workdir):
        resolved = json.loads((workdir / "corpus" / "resolved_config.json").read_text())
        assert resolved["synth"]["seed"] == 21

    def test_seed_flag_overrides(self, workdir, tmp_path, capsys):
        assert main(["gen-corpus", "--config", str(workdir / "config.json"),
                     "--seed", "99", "--out", str(tmp_path / "c2")]) == 0
        resolved = json.loads((tmp_path / "c2" / "resolved_config.json").read_text())
        assert resolved["synth"]["seed"] == 99


class TestValidate:
    def test_broken_corpus_exits_nonzero(self, workdir, capsys):
        manifest_path = workdir / "corpus" / "manifest.json"
        broken = json.loads(manifest_path.read_text())
        broken["entries"][0]["feature_path"] = "features/nope.xpqf"
        (workdir / "broken.json").write_text(json.dumps(broken))
        assert main(["validate", "--manifest", str(workdir / "broken.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation")

    def test_stale_threads_env_is_ignored(self, workdir, monkeypatch):
        monkeypatch.setenv("XPQ_THREADS", "abc")
        assert main(["validate", "--manifest", str(workdir / "corpus" / "manifest.json")]) == 0


class TestTrain:
    def test_loss_log_written(self, workdir):
        lines = (workdir / "ckpt" / "loss_log.tsv").read_text().splitlines()
        assert len(lines) == 31  # header + 30 steps

    def test_resume_reproduces_uninterrupted_run(self, workdir, tmp_path):
        args = ["train", "--config", str(workdir / "config.json"),
                "--corpus", str(workdir / "corpus" / "manifest.json")]
        assert main(args + ["--out", str(tmp_path / "interrupted"), "--stop-after", "12"]) == 0
        assert main(args + ["--out", str(tmp_path / "interrupted"), "--resume"]) == 0
        for name in ("codebook.bin", "decoder.bin", "optim.bin", "meta.json", "loss_log.tsv"):
            assert (tmp_path / "interrupted" / name).read_bytes() == (
                workdir / "ckpt" / name
            ).read_bytes(), name

    def test_refused_resume_writes_nothing(self, workdir, tmp_path, capsys):
        """A checkpoint written with another config, or none at all, is
        refused before resolved_config.json or the --out directory is written."""
        out = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        other = dict(CONFIG, train=dict(CONFIG["train"], lr=0.01))
        (tmp_path / "other.json").write_text(json.dumps(other))
        args = ["train", "--config", str(tmp_path / "other.json"),
                "--corpus", str(workdir / "corpus" / "manifest.json"), "--resume"]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:config: checkpoint was written")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(args + ["--out", str(tmp_path / "missing")]) == 1
        assert not (tmp_path / "missing").exists()

    def test_duplicate_utterance_ids_rejected(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workdir / "corpus", corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["entries"][1]["id"] = manifest["entries"][0]["id"]
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--config", str(workdir / "config.json"),
                     "--corpus", str(corpus / "manifest.json"),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation: ")

    def test_dim_mismatch_rejected(self, workdir, tmp_path, capsys):
        bad = dict(CONFIG, codebook=dict(CONFIG["codebook"], dim=7))
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        assert main(["train", "--config", str(tmp_path / "bad.json"),
                     "--corpus", str(workdir / "corpus" / "manifest.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:config")


class TestExtractQueries:
    def test_writes_dump(self, workdir, tmp_path):
        assert main(["extract-queries", "--manifest", str(workdir / "corpus" / "manifest.json"),
                     "--language", "T0", "--out", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / "queries_T0.json").read_text())
        assert sidecar["language"] == "T0" and len(sidecar["phonemes"]) == 6
        assert (tmp_path / "queries_T0.xpqf").exists()

    def test_unknown_language(self, workdir, tmp_path, capsys):
        assert main(["extract-queries", "--manifest", str(workdir / "corpus" / "manifest.json"),
                     "--language", "zz", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:vocabulary")


class TestAdapt:
    def test_report_files_written(self, workdir, tmp_path):
        assert main(["adapt", "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(workdir / "corpus" / "manifest.json"),
                     "--language", "T0", "--k", "2,4", "--tasks", "2", "--q", "4",
                     "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path / "adapt")]) == 0
        cells = json.loads((tmp_path / "adapt" / "report.json").read_text())
        assert len(cells) == 4  # 2 k values x 2 modes
        assert (tmp_path / "adapt" / "summary.tsv").exists()

    def test_unknown_language_vocabulary_error(self, workdir, tmp_path, capsys):
        assert main(["adapt", "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(workdir / "corpus" / "manifest.json"),
                     "--language", "klingon", "--k", "2", "--tasks", "1",
                     "--out", str(tmp_path / "adapt")]) == 1
        assert capsys.readouterr().err.startswith("error:vocabulary")


class TestMapPhonemes:
    def test_writes_mapping(self, workdir, tmp_path):
        assert main(["map-phonemes", "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(workdir / "corpus" / "manifest.json"),
                     "--out", str(tmp_path / "map")]) == 0
        lines = (tmp_path / "map" / "mapping.tsv").read_text().splitlines()
        assert lines[0] == "# source\trank\ttarget\tscore"
        assert len(lines) > 10
        assert (tmp_path / "map" / "scores.json").exists()


class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--sizes", "2,3,2,1,2,2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "gradcheck:" in out

    def test_bad_sizes_spec(self, capsys):
        assert main(["gradcheck", "--sizes", "1,2,3"]) == 1
        assert capsys.readouterr().err.startswith("error:config")


class TestArgparseContract:
    @pytest.mark.parametrize(
        "command",
        ["gen-corpus", "extract-queries", "train", "gradcheck", "adapt",
         "map-phonemes", "validate"],
    )
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_is_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--frobnicate"],
        ["transmogrify"],
        ["train", "--out", "unused"],  # no --corpus
        ["adapt", "--mode", "foo"],
        ["validate", "--manifest", "unused", "--threads", "2"],
    ])
    def test_argparse_fault_is_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error:argument: [^\n]+\n", err), err


class TestConfigErrors:
    def test_unknown_key_names_key_and_line(self, tmp_path, capsys):
        bad = dict(CONFIG)
        bad["train"] = dict(CONFIG["train"], learning_rate=0.1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad, indent=2))
        assert main(["gen-corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config")
        assert "learning_rate" in err and "line" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "synth": {,}\n}')
        assert main(["gen-corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config") and "line 2" in err


def test_console_entry_point(tmp_path):
    # one subprocess run to prove the installed script works end to end
    result = subprocess.run(
        [sys.executable, "-m", "xpq.cli", "gradcheck", "--seeds", "1",
         "--sizes", "2,3,2,1,2,2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout
