"""The BLAS thread count changes no output byte.

Training and adaptation run at the desk-default corpus and codebook shapes,
with fewer steps, in fresh processes at OPENBLAS_NUM_THREADS = OMP_NUM_THREADS
= 1 and 2. The variables are read when numpy loads, so each run needs its own
process.
"""

import hashlib
import json
import os
import subprocess
import sys

CONFIG = {
    "train": {"total_steps": 200, "warmup_steps": 20},
    "adapt": {"finetune_steps": 200, "eval_checkpoints": [0, 50, 200]},
}
OUTPUTS = (
    "ckpt/codebook.bin",
    "ckpt/decoder.bin",
    "ckpt/optim.bin",
    "ckpt/loss_log.tsv",
    "ckpt/val_loss.tsv",
    "adapt/report.json",
)


def _xpq(argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    result = subprocess.run(
        [sys.executable, "-m", "xpq.cli", *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_blas_thread_count_changes_no_output_byte(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    manifest = tmp_path / "corpus" / "manifest.json"
    _xpq(["gen-corpus", "--out", manifest.parent, "--seed", 3], 1)
    digests = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        _xpq(["train", "--config", config, "--corpus", manifest, "--out", out / "ckpt"], threads)
        _xpq(["adapt", "--config", config, "--checkpoint", out / "ckpt", "--corpus", manifest,
              "--language", "test0", "--k", "4,64", "--tasks", 2, "--out", out / "adapt"],
             threads)
        digests[threads] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS
        }
    assert digests[1] == digests[2]
