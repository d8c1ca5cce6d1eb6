"""Every output reaches disk through datamodel.write_file.

An I/O fault at any write of a command leaves each of its outputs absent, old
or whole, and ends the command with one error:io line. Faults are injected in
process: Path.write_bytes, which only write_file calls, is replaced by a disk
that fills at the n-th write.
"""

import ast
import dataclasses
import errno
import json
import os
import re
import shutil
from pathlib import Path

import pytest

import xpq
from xpq.cli import main

from conftest import SMALL_SYNTH

CONFIG = {
    "synth": dataclasses.asdict(SMALL_SYNTH),
    "codebook": {"n": 12, "heads": 2, "d_k": 4, "d_v": 4, "dim": SMALL_SYNTH.dim},
    "train": {
        "batch_size": 10,
        "gen_group_size": 8,
        "loss_group_size": 2,
        "warmup_steps": 2,
        "total_steps": 4,
    },
    "adapt": {"finetune_steps": 4, "eval_checkpoints": [0, 4]},
}
WRITE_BYTES = Path.write_bytes


def full_disk(fail_at=None):
    """A Path.write_bytes that counts its calls in .calls; the fail_at-th call
    stores half its bytes and then raises ENOSPC."""

    def write_bytes(path, data):
        write_bytes.calls += 1
        if write_bytes.calls == fail_at:
            WRITE_BYTES(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return WRITE_BYTES(path, data)

    write_bytes.calls = 0
    return write_bytes


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Each command's argv without --out, its clean output files and its
    number of write_file calls."""
    root = tmp_path_factory.mktemp("write_faults")
    (root / "config.json").write_text(json.dumps(CONFIG))
    cfg, ckpt = str(root / "config.json"), str(root / "train")
    manifest = str(root / "corpus" / "manifest.json")
    commands = {
        "gen-corpus": ["gen-corpus", "--config", cfg],
        "train": ["train", "--config", cfg, "--corpus", manifest],
        "adapt": [
            "adapt", "--config", cfg, "--checkpoint", ckpt, "--corpus", manifest,
            "--language", "T0", "--k", "4", "--tasks", "2", "--q", "8",
        ],
        "map-phonemes": ["map-phonemes", "--checkpoint", ckpt, "--corpus", manifest],
        "extract-queries": ["extract-queries", "--manifest", manifest, "--language", "L0"],
    }
    out_dirs = {"gen-corpus": "corpus", "train": "train"}
    runs = {}
    for name, argv in commands.items():
        out = root / out_dirs.get(name, name)
        disk = full_disk()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Path, "write_bytes", disk)
            assert main(argv + ["--out", str(out)]) == 0
        runs[name] = (argv, out, _files(out), disk.calls)
    return runs


def _fault_points(name, writes):
    if name == "gen-corpus":
        return sorted({1, 2, writes // 2, *range(writes - 3, writes + 1)})
    return range(1, writes + 1)


@pytest.mark.parametrize(
    "name", ["gen-corpus", "train", "adapt", "map-phonemes", "extract-queries"]
)
@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_full_disk_leaves_every_output_absent_old_or_whole(
    clean, name, rerun, tmp_path, monkeypatch, capsys
):
    argv, clean_out, expected, writes = clean[name]
    capsys.readouterr()
    for n in _fault_points(name, writes):
        out = tmp_path / f"out{n}"
        if rerun:
            shutil.copytree(clean_out, out)
        disk = full_disk(fail_at=n)
        monkeypatch.setattr(Path, "write_bytes", disk)
        code = main(argv + ["--out", str(out)])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert (code, disk.calls) == (1, n)
        assert re.fullmatch(
            rf"error:io: cannot write {re.escape(str(out))}/\S+(?<!\.tmp): "
            r"\[Errno 28\] No space left on device\n",
            err,
        ), err
        left = _files(out) if out.exists() else {}
        assert not [f for f in left if f.endswith(".tmp")]
        assert [f for f in left if left[f] != expected.get(f)] == []
        if rerun:
            assert left.keys() == expected.keys()


def _file_writes(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function, source) of each call in the module that can write
    or rename a file, and of each ".tmp" literal: write_text, write_bytes,
    tofile, rename, os.replace/rename/open, and open( with a mode other than
    a literal read mode."""
    found = []

    def writes(node) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and ".tmp" in node.value
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Attribute):
            if f.attr in ("write_text", "write_bytes", "tofile", "rename"):
                return True
            return isinstance(f.value, ast.Name) and f.value.id == "os" and f.attr in (
                "replace", "rename", "open"
            )
        if isinstance(f, ast.Name) and f.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            return any(
                not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes
            )
        return False

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if writes(node):
            found.append((func, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_write_file_is_the_only_writer():
    found = {
        (path.name, func, source)
        for path in sorted(Path(xpq.__file__).parent.glob("*.py"))
        for func, source in _file_writes(path)
    }
    helper = {s for name, func, s in found if (name, func) == ("datamodel.py", "write_file")}
    assert {
        "tmp.write_bytes(data)",
        "os.replace(tmp, path)",
    } <= helper
    # the loss log is the one append-only output; resume truncates it through write_file
    assert found - {("datamodel.py", "write_file", s) for s in helper} == {
        ("trainer.py", "run_training", "open(out / 'loss_log.tsv', 'a', encoding='utf-8')")
    }
