"""Every output byte of a short CLI chain matches the committed digests.

The chain runs in process at the desk shapes with 80 utterances per
language, 200 training steps and 200 fine-tune steps: gen-corpus, validate,
train, train --stop-after 100 and then --resume in a second directory, adapt
--k 4,64 --tasks 2 and map-phonemes. golden_digests.json holds the sha256 of
each output file; the feature and alignment directories get one digest each,
over their files' names and digests. A change that alters an output byte
changes that file in the same diff and says why. The file records the numpy
and BLAS versions it was written with. To rewrite it:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from xpq.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")
CONFIG = {
    "synth": {"utterances_per_language": 80},
    "train": {"total_steps": 200, "warmup_steps": 20},
    "adapt": {"finetune_steps": 200, "eval_checkpoints": [0, 50, 200]},
}
DIRECTORIES = ("corpus/features", "corpus/alignments")


def _run_chain(tmp: Path) -> Path:
    """Run the chain with its config in tmp; returns the output directory."""
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp / "out"
    manifest = out / "corpus" / "manifest.json"
    train = ["train", "--config", config, "--corpus", manifest]
    for argv in (
        ["gen-corpus", "--config", config, "--out", manifest.parent, "--seed", 5],
        ["validate", "--manifest", manifest],
        [*train, "--out", out / "train"],
        [*train, "--out", out / "resumed", "--stop-after", 100],
        [*train, "--out", out / "resumed", "--resume"],
        ["adapt", "--config", config, "--checkpoint", out / "train", "--corpus", manifest,
         "--language", "test0", "--k", "4,64", "--tasks", 2, "--q", 16, "--out", out / "adapt"],
        ["map-phonemes", "--checkpoint", out / "train", "--corpus", manifest,
         "--out", out / "map"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    return out


def _digests(out: Path) -> dict[str, str]:
    files = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    for directory in DIRECTORIES:
        inside = [name for name in files if name.startswith(directory + "/")]
        listing = "".join(f"{name}\t{files.pop(name)}\n" for name in inside)
        files[directory + "/"] = hashlib.sha256(listing.encode()).hexdigest()
    return dict(sorted(files.items()))


def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def test_chain_output_bytes_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = _digests(_run_chain(tmp_path))
    want = golden["digests"]
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, (
        f"output bytes differ from {GOLDEN.name} in {changed}; the file was written with "
        f"numpy {golden['numpy']} and {golden['blas']}, this run has {_versions()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(_run_chain(Path(tmp)))
    GOLDEN.write_text(json.dumps({**_versions(), "digests": digests}, indent=2) + "\n")
