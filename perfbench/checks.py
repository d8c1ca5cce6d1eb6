"""Output checks and digests for the benchmark's workloads.

Every check returns a list of problems; an empty list means the output is
correct. Checks read the program's output files and reload checkpoints through
the public `load_checkpoint_params`, never through private helpers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import xpq.trainer

CHECKPOINT_BLOBS = ("codebook.bin", "decoder.bin", "optim.bin")
CHECKPOINT_FILES = CHECKPOINT_BLOBS + ("meta.json",)
TRAIN_DIGESTED = ("loss_log.tsv",) + CHECKPOINT_BLOBS


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(directory, names) -> dict[str, str]:
    return {name: sha256(Path(directory) / name) for name in names}


def check_corpus(directory) -> tuple[list[str], dict[str, str]]:
    """A generated corpus has its manifest and ground truth; returns (problems, digests).

    The digests cover every file, so same-seed set-ups can be compared byte for byte.
    """
    directory = Path(directory)
    missing = [n for n in ("manifest.json", "ground_truth.json") if not (directory / n).is_file()]
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    found = {str(p.relative_to(directory)): sha256(p) for p in files}
    return ([f"corpus files missing: {missing}"] if missing else []), found


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_loss_log(path, steps: int) -> tuple[list[str], float | None]:
    """loss_log.tsv has one finite row per step 1..steps; returns (problems, last loss)."""
    path = Path(path)
    if not path.is_file():
        return [f"{path.name} missing"], None
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    rows = [r for r in rows if not r[0].startswith("#")]
    problems = []
    if [r[0] for r in rows] != [str(s) for s in range(1, steps + 1)]:
        problems.append(f"{path.name}: expected steps 1..{steps}, got {len(rows)} rows")
    last = None
    for r in rows:
        try:
            lr, loss = float(r[1]), float(r[2])
        except (IndexError, ValueError):
            problems.append(f"{path.name}: malformed row {r!r}")
            break
        if not (math.isfinite(lr) and math.isfinite(loss)):
            problems.append(f"{path.name}: non-finite row {r!r}")
            break
        last = loss
    return problems, last


def check_checkpoint(directory, steps: int) -> list[str]:
    """Every checkpoint entry exists, reloads and is finite; meta records `steps`."""
    directory = Path(directory)
    missing = [n for n in CHECKPOINT_FILES if not (directory / n).is_file()]
    if missing:
        return [f"checkpoint entries missing: {missing}"]
    problems = []
    params, decoder = xpq.trainer.load_checkpoint_params(directory)
    tensors = {
        "w_q": params.w_q,
        "keys": params.keys,
        "codes": params.codes,
        "w_d": decoder.w_d,
        "b_d": decoder.b_d,
    }
    for name, t in tensors.items():
        if not np.all(np.isfinite(t)):
            problems.append(f"checkpoint tensor {name} is not finite")
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    if meta.get("step") != steps:
        problems.append(f"meta.json step {meta.get('step')} != {steps}")
    val = directory / "val_loss.tsv"
    if not val.is_file():
        problems.append("val_loss.tsv missing")
    else:
        for line in val.read_text(encoding="utf-8").splitlines()[1:]:
            if not math.isfinite(float(line.split("\t")[2])):
                problems.append(f"val_loss.tsv: non-finite row {line!r}")
    return problems


def check_report(cells, ks, n_tasks: int, modes, checkpoints) -> list[str]:
    """One finite cell per (k, mode), each with n_tasks tasks at every checkpoint."""
    problems = []
    by_key = {(c["k"], c["mode"]): c for c in cells}
    for k in ks:
        for mode in modes:
            cell = by_key.get((k, mode))
            if cell is None:
                problems.append(f"report cell k={k} {mode} missing")
                continue
            if not (_finite(cell["mean"]) and _finite(cell["std"])):
                problems.append(f"report cell k={k} {mode}: non-finite mean/std")
            if len(cell["tasks"]) != n_tasks:
                problems.append(f"report cell k={k} {mode}: {len(cell['tasks'])} tasks")
            for task in cell["tasks"]:
                steps = [p["step"] for p in task["checkpoints"]]
                if steps != list(checkpoints):
                    problems.append(f"task {task['task_seed']} {mode}: checkpoints {steps}")
                if not all(_finite(p["mean_mse"]) for p in task["checkpoints"]):
                    problems.append(f"task {task['task_seed']} {mode}: non-finite mse")
    return problems


def cell(cells, mode: str) -> dict:
    return next(c for c in cells if c["mode"] == mode)


def cp0_win_rate(cells) -> float:
    """Share of paired tasks where codebook_init beats random_init at checkpoint 0."""
    ours = [t["checkpoints"][0]["mean_mse"] for t in cell(cells, "codebook_init")["tasks"]]
    base = [t["checkpoints"][0]["mean_mse"] for t in cell(cells, "random_init")["tasks"]]
    return sum(a < b for a, b in zip(ours, base)) / len(ours)


def map_top1(mapping_tsv, ground_truth_json) -> float:
    """Top-1 recovery of shared prototypes from mapping.tsv against ground truth.

    A source phoneme counts when another language's phoneme shares its
    prototype; it is recovered when its rank-1 target has that prototype.
    """
    truth = json.loads(Path(ground_truth_json).read_text(encoding="utf-8"))
    top1 = {}
    for line in Path(mapping_tsv).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        source, rank, target, _ = line.split("\t")
        if rank == "1":
            top1[source] = target
    lang = {p: p.split("-", 1)[0] for p in top1}
    shared = [
        p for p in top1 if any(truth[q] == truth[p] and lang[q] != lang[p] for q in top1)
    ]
    if not shared:
        raise ValueError("mapping.tsv has no phoneme with a shared prototype")
    return sum(truth[top1[p]] == truth[p] for p in shared) / len(shared)
