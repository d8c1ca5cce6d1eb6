"""The benchmark's two workloads.

Each workload is one closed-loop caller: one process (or one chain of CLI
processes), one thread of xpq work, and the next call starts only when the
previous one returns. A workload has a `setup` that returns its state and the
seconds it counts as set-up time, a timed `unit`, and a `check` that verifies
the unit's outputs after the clock stops.
Only stable entry points are called: the xpq CLI, `load_corpus`,
`run_training` and `load_checkpoint_params`.
They are looked up through their modules at call time, so the traced run's
wrappers see these calls too.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import xpq.adaptation
import xpq.cli
import xpq.codebook
import xpq.datamodel
import xpq.trainer

from checks import (
    TRAIN_DIGESTED,
    cell,
    check_corpus,
    check_checkpoint,
    check_loss_log,
    check_report,
    cp0_win_rate,
    digests,
    map_top1,
)

TRAIN = xpq.trainer.TrainConfig()  # desk defaults: batch 40 = 32 + 8, 2000 steps
ADAPT = xpq.adaptation.AdaptConfig()  # 500 steps, checkpoints 0/50/200/500
MODES = ("codebook_init", "random_init")
ADAPT_LANGUAGE = "test0"
PIPELINE_TASKS = 20  # the `adapt --tasks` default; 2 modes give adapt_task 40 calls


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What the checks found for one call: operations, problems, digests, figures."""

    ops: list[str]
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failures.setdefault(op, []).extend(problems)


@dataclass
class CommandResult:
    name: str
    code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0


def run_command(argv: list[str], log_base: Path) -> tuple[int, str, str, float]:
    """Run argv to completion; returns (exit code, stdout, stderr, peak RSS in MB)."""
    out_path, err_path = log_base.with_suffix(".out"), log_base.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss / 1024.0


def _codebook_config(corpus):
    return xpq.codebook.CodebookConfig(dim=corpus.feature_spec.dim)


@dataclass
class Corpus:
    directory: Path
    loaded: object  # the xpq Corpus


class Train:
    """run_training on the desk-default corpus: queries, codebook, optim, trainer.

    A set-up loads the seed's corpus; set-up time is the load. The corpus is
    written off the clock by the `gen-corpus` command, in its own process, the
    first time a set-up directory is used: writing 13 MB of files took from
    0.05 s to over 1 s of kernel time for the same bytes, which would drown
    the program's own set-up cost. The caller drops the previous set-up's
    corpus before the next load, so this process's peak RSS is one corpus
    load plus the training calls.
    """

    name = "train"
    setups_per_call = 4

    def setup(self, seed: int, directory: Path) -> tuple[Corpus, float]:
        corpus_dir = directory / "corpus"
        if not corpus_dir.is_dir():
            argv = [sys.executable, "-m", "xpq.cli", "gen-corpus", "--out", str(corpus_dir),
                    "--seed", str(seed)]
            directory.mkdir(parents=True, exist_ok=True)
            code, _, err, _ = run_command(argv, directory / "gen-corpus")
            if code:
                raise RuntimeError(f"gen-corpus exited {code}: {err.strip()}")
        start = time.perf_counter()
        corpus = xpq.datamodel.load_corpus(corpus_dir / "manifest.json")
        return Corpus(corpus_dir, corpus), time.perf_counter() - start

    def check_setup(self, state: Corpus) -> Outcome:
        """The corpus files exist; their digests are compared across same-seed set-ups."""
        o = Outcome(["setup"])
        problems, o.digests = check_corpus(state.directory)
        o.fail("setup", problems)
        return o

    def unit(self, state: Corpus, out: Path, tracer=None):
        corpus = state.loaded
        return xpq.trainer.run_training(corpus, TRAIN, _codebook_config(corpus), out)

    def check(self, state: Corpus, out: Path, result) -> Outcome:
        o = Outcome(["run_training"], rss_mb=self_rss_mb())
        problems, last = check_loss_log(out / "loss_log.tsv", TRAIN.total_steps)
        o.fail("run_training", problems + check_checkpoint(out, TRAIN.total_steps))
        o.digests = digests(out, TRAIN_DIGESTED)
        o.quality = {"train_final_loss": last, "final_mse": last}
        return o

    def figures(self, wall_s: float, quality: dict) -> list[tuple[str, float, str]]:
        return [
            ("train_steps_per_s", TRAIN.total_steps / wall_s, "steps/s"),
            ("train_final_loss", quality.get("train_final_loss", math.nan), "MSE"),
        ]


@dataclass
class Pipeline:
    """The user's CLI chain; in-process through xpq.cli.main when in_process is set."""

    in_process: bool = False
    name = "pipeline"
    setups_per_call = 8

    def setup(self, seed: int, directory: Path):
        """Fresh interpreter plus `import xpq.cli`: the start-up every command pays."""
        directory.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        probe = run_command([sys.executable, "-c", "import xpq.cli"], directory / "startup")
        return (seed, probe), time.perf_counter() - start

    def check_setup(self, state) -> Outcome:
        code, _, err, _ = state[1]
        o = Outcome(["setup"])
        o.fail("setup", [f"import xpq.cli exited {code}: {err.strip()}"] if code else [])
        return o

    @staticmethod
    def commands(seed: int, out: Path) -> list[tuple[str, list[str]]]:
        corpus, ckpt = str(out / "corpus"), str(out / "ckpt")
        manifest = str(out / "corpus" / "manifest.json")
        return [
            ("gen-corpus", ["gen-corpus", "--out", corpus, "--seed", str(seed)]),
            ("validate", ["validate", "--manifest", manifest]),
            ("train", ["train", "--corpus", manifest, "--out", ckpt]),
            (
                "adapt",
                ["adapt", "--checkpoint", ckpt, "--corpus", manifest, "--language",
                 ADAPT_LANGUAGE, "--k", "4", "--out", str(out / "adapt")],
            ),
            ("map-phonemes", ["map-phonemes", "--checkpoint", ckpt, "--corpus", manifest,
                              "--out", str(out / "map")]),
        ]

    def _in_process(self, name: str, argv: list[str], tracer) -> CommandResult:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            with tracer.span(f"cli.{name}") if tracer else nullcontext():
                try:
                    code = xpq.cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    code = 1
        return CommandResult(name, code, stdout.getvalue(), stderr.getvalue())

    def unit(self, state, out: Path, tracer=None) -> list[CommandResult]:
        seed = state[0]
        (out / "logs").mkdir(parents=True, exist_ok=True)
        results = []
        for name, argv in self.commands(seed, out):
            if self.in_process:
                results.append(self._in_process(name, argv, tracer))
            else:
                argv = [sys.executable, "-m", "xpq.cli", *argv]
                results.append(CommandResult(name, *run_command(argv, out / "logs" / name)))
            if results[-1].code != 0:
                break  # later commands read this one's output
        return results

    def check(self, state, out: Path, results: list[CommandResult]) -> Outcome:
        names = [name for name, _ in self.commands(state[0], out)]
        o = Outcome(names)
        o.rss_mb = self_rss_mb() if self.in_process else max(r.rss_mb for r in results)
        ran = {r.name: r for r in results}
        for name in names:
            r = ran.get(name)
            if r is None:
                o.fail(name, ["not run: an earlier command failed"])
                continue
            lines = (r.stdout + r.stderr).splitlines()
            o.fail(name, [f"exit code {r.code}"] if r.code else [])
            o.fail(name, [line for line in lines if line.startswith("error:")])
        if ran.get("validate") and "corpus OK" not in ran["validate"].stdout:
            o.fail("validate", ["validate did not report 'corpus OK'"])
        if o.failures:
            return o
        ckpt, adapt = out / "ckpt", out / "adapt"
        problems, last = check_loss_log(ckpt / "loss_log.tsv", TRAIN.total_steps)
        o.fail("train", problems + check_checkpoint(ckpt, TRAIN.total_steps))
        cells = json.loads((adapt / "report.json").read_text(encoding="utf-8"))
        o.fail("adapt", check_report(cells, [4], PIPELINE_TASKS, MODES, ADAPT.eval_checkpoints))
        mse = cell(cells, "codebook_init")["mean"]
        o.digests = {f"ckpt/{k}": v for k, v in digests(ckpt, TRAIN_DIGESTED).items()}
        o.digests["adapt/report.json"] = digests(adapt, ["report.json"])["report.json"]
        o.quality = {
            "train_final_loss": last,
            "adapt_final_mse": mse,
            "adapt_cp0_win_rate": cp0_win_rate(cells),
            "map_top1": map_top1(out / "map" / "mapping.tsv", out / "corpus" / "ground_truth.json"),
            "final_mse": mse,
        }
        return o

    def figures(self, wall_s: float, quality: dict) -> list[tuple[str, float, str]]:
        return [
            ("pipeline_s", wall_s, "s"),
            ("adapt_cp0_win_rate", quality.get("adapt_cp0_win_rate", math.nan), "fraction"),
            ("map_top1", quality.get("map_top1", math.nan), "fraction"),
        ]


WORKLOADS = {"train": Train, "pipeline": Pipeline}
