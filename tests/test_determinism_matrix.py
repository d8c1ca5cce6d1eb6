"""Settings that must change no output byte.

A reduced-step chain at the desk shapes (80 utterances per language, 30
training steps, 40 fine-tune steps) runs once as the reference: `train` and
`adapt --k 4,64` in process with `--threads 1`. Each test reruns part of it
with one setting changed and compares sha256 digests of the outputs:

- a run resumed from three stops, one inside warm-up, chosen by Hypothesis,
  with checkpoint_every off and on;
- an uninterrupted run with checkpoint_every on;
- `python -m xpq.cli` in a subprocess in place of `xpq.cli.main` in process;
- `--threads 4` in place of `--threads 1`;
- `adapt --k 4` followed by `adapt --k 64` in place of one `adapt --k 4,64`.

test_blas_threads.py covers the BLAS thread count.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpq.adaptation import write_report_json, write_report_tsv
from xpq.cli import main

TOTAL_STEPS, WARMUP_STEPS = 30, 10
CONFIG = {
    "synth": {"utterances_per_language": 80},
    "train": {"total_steps": TOTAL_STEPS, "warmup_steps": WARMUP_STEPS},
    "adapt": {"finetune_steps": 40, "eval_checkpoints": [0, 10, 40]},
}
# what training writes that does not name its config
TRAINED = ("codebook.bin", "decoder.bin", "optim.bin", "loss_log.tsv", "val_loss.tsv")


def _digests(directory: Path, names=None) -> dict[str, str]:
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
        if names is None or p.name in names
    }


def _config(directory: Path, **train) -> Path:
    path = directory / "config.json"
    cfg = json.loads(json.dumps(CONFIG))
    cfg["train"].update(train)
    path.write_text(json.dumps(cfg))
    return path


class Chain:
    def __init__(self, root: Path):
        self.root = root
        self.config = _config(root)
        self.manifest = root / "corpus" / "manifest.json"
        self._run(["gen-corpus", "--config", self.config, "--out", self.manifest.parent,
                   "--seed", 2])
        self.train = self.run_train(root / "train", "--threads", 1)
        self.adapt = self.run_adapt(root / "adapt", "4,64", "--threads", 1)

    @staticmethod
    def _run(argv):
        assert main([str(a) for a in argv]) == 0, argv

    def train_argv(self, out, *extra, config=None):
        config = config or self.config
        return ["train", "--config", config, "--corpus", self.manifest, "--out", out, *extra]

    def adapt_argv(self, out, ks, *extra):
        return ["adapt", "--config", self.config, "--checkpoint", self.root / "train",
                "--corpus", self.manifest, "--language", "test0", "--k", ks, "--tasks", 2,
                "--q", 16, "--out", out, *extra]

    def run_train(self, out, *extra, config=None):
        self._run(self.train_argv(out, *extra, config=config))
        return out

    def run_adapt(self, out, ks, *extra):
        self._run(self.adapt_argv(out, ks, *extra))
        return out


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return Chain(tmp_path_factory.mktemp("determinism"))


@settings(derandomize=True, max_examples=4, deadline=None)
@given(
    stops=st.tuples(
        st.integers(1, WARMUP_STEPS - 1),
        st.integers(1, TOTAL_STEPS - 1),
        st.integers(1, TOTAL_STEPS - 1),
    ),
    checkpoint_every=st.sampled_from([0, 7]),
)
def test_resumes_from_three_stops_match_the_uninterrupted_run(chain, stops, checkpoint_every):
    with tempfile.TemporaryDirectory(dir=chain.root) as tmp:
        config = _config(Path(tmp), checkpoint_every=checkpoint_every)
        out = Path(tmp) / "ckpt"
        first, *later = sorted(set(stops))
        chain.run_train(out, "--stop-after", first, config=config)
        for stop in later:
            chain.run_train(out, "--resume", "--stop-after", stop, config=config)
        chain.run_train(out, "--resume", config=config)
        assert _digests(out, TRAINED) == _digests(chain.train, TRAINED)


def test_checkpoint_every_changes_no_output_byte(chain, tmp_path):
    out = chain.run_train(tmp_path / "ckpt", config=_config(tmp_path, checkpoint_every=7))
    assert _digests(out, TRAINED) == _digests(chain.train, TRAINED)


def test_cli_subprocess_matches_in_process_main(chain, tmp_path):
    for argv in (
        chain.train_argv(tmp_path / "train"),
        chain.adapt_argv(tmp_path / "adapt", "4,64"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "xpq.cli", *map(str, argv)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
    assert _digests(tmp_path / "train") == _digests(chain.train)
    assert _digests(tmp_path / "adapt") == _digests(chain.adapt)


def test_threads_flag_changes_no_output_byte(chain, tmp_path):
    train = chain.run_train(tmp_path / "train", "--threads", 4)
    adapt = chain.run_adapt(tmp_path / "adapt", "4,64", "--threads", 4)
    assert _digests(train) == _digests(chain.train)
    assert _digests(adapt) == _digests(chain.adapt)


def test_k_grid_split_across_adapt_calls_matches_one_call(chain, tmp_path):
    """The cells of `--k 4` then `--k 64`, written as one report, are the
    bytes of one `--k 4,64` call's report and summary."""
    cells = []
    for k in (4, 64):
        out = chain.run_adapt(tmp_path / f"k{k}", str(k))
        cells += json.loads((out / "report.json").read_text())
    write_report_json(cells, tmp_path / "report.json")
    write_report_tsv(cells, tmp_path / "summary.tsv")
    assert _digests(tmp_path, ("report.json", "summary.tsv")) == _digests(
        chain.adapt, ("report.json", "summary.tsv")
    )
