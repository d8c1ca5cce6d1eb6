"""Command-line entry point.

Every command is a pure function of (config, input files, seed): identical
inputs produce identical output bytes. Failures exit nonzero with a single
machine-readable line `error:<category>: <message>` on stderr.

Commands: gen-corpus, extract-queries, train, gradcheck, adapt, map-phonemes,
validate.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import MODES, AdaptConfig, run_experiment, write_report_json, write_report_tsv
from .checkpoint import load_checkpoint_params
from .codebook import CodebookConfig
from .config import RunConfig, load_run_config, write_resolved_config
from .datamodel import load_corpus, load_manifest, parse_int, validate_corpus
from .errors import ConfigError, XpqError
from .gradcheck import DEFAULT_SHAPES, CheckShape, run_suites
from .mapping import DEFAULT_COVER_TARGET, build_score_table, write_mapping_tsv, write_scores_json
from .queries import aggregate_queries, save_query_matrix
from .synth import SynthConfig, generate_corpus
from .trainer import TrainConfig, run_training


class _Parser(argparse.ArgumentParser):
    """Each fault argparse finds (unknown flag or command, missing or invalid
    value) is one `error:argument:` line and exit code 2."""

    def error(self, message):
        self.exit(2, f"error:argument: {self.prog}: {message}\n")


def _ints(flag: str, text: str, many: bool = True) -> list[int]:
    """The integers (parse_int) of a flag's value, comma-separated when many."""
    try:
        return [parse_int(x) for x in text.split(",")] if many else [parse_int(text)]
    except ValueError:
        what = "entries must be integers" if many else "must be an integer"
        raise ConfigError(f"{flag} {what}, got {text!r}") from None


class _Int(argparse.Action):
    """An integer flag, or with many a comma-separated list of integers,
    refused while parsing when an entry is below least. ConfigError is no
    argparse.ArgumentError, so it leaves parse_args as raised."""

    def __init__(self, option_strings, dest, least: int, many: bool = False, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.least, self.many = least, many

    def __call__(self, parser, namespace, text, option_string=None):
        flag = self.option_strings[0]
        values = _ints(flag, text, self.many)
        for value in values:
            if value < self.least:
                raise ConfigError(f"{flag} must be >= {self.least}, got {value}")
        setattr(namespace, self.dest, values if self.many else values[0])


def _refuse_other_dim(config: CodebookConfig, corpus) -> None:
    """Refuse, before any work on the corpus, a codebook of another feature dim."""
    if config.dim != corpus.feature_spec.dim:
        raise ConfigError(
            f"codebook dim {config.dim} != corpus feature dim {corpus.feature_spec.dim}"
        )


def _load_config(path: str | None) -> RunConfig:
    return load_run_config(path) if path else RunConfig()


def cmd_gen_corpus(args) -> int:
    cfg = _load_config(args.config)
    synth = cfg.synth or SynthConfig()
    if args.seed is not None:
        synth = dataclasses.replace(synth, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest, ground_truth = generate_corpus(synth, out)
    write_resolved_config(out / "resolved_config.json", synth=synth)
    report = validate_corpus(manifest)
    if not report.ok:
        print(report, file=sys.stderr)
        print("error:validation: generated corpus failed validation", file=sys.stderr)
        return 1
    print(
        f"gen-corpus: {len(manifest.entries)} utterances, "
        f"{len(manifest.languages)} languages, {len(ground_truth)} phonemes -> {out}"
    )
    return 0


def cmd_extract_queries(args) -> int:
    corpus = load_corpus(args.manifest)
    utterances = corpus.by_language(args.language, args.split)
    if not utterances:
        raise ConfigError(
            f"no utterances for language {args.language!r}"
            + (f" in split {args.split!r}" if args.split else "")
        )
    qm = aggregate_queries(utterances, corpus.phoneme_set(args.language))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = out / f"queries_{args.language}"
    save_query_matrix(qm, base)
    print(
        f"extract-queries: {args.language}: {qm.present.sum()}/{len(qm.phonemes)} "
        f"phonemes present from {len(utterances)} utterances -> {base}.xpqf"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    train_cfg = cfg.train or TrainConfig()
    corpus = load_corpus(args.corpus)
    cb_cfg = cfg.codebook or CodebookConfig(dim=corpus.feature_spec.dim)
    _refuse_other_dim(cb_cfg, corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.json", train=train_cfg, codebook=cb_cfg)
    state = run_training(
        corpus, train_cfg, cb_cfg, out, resume=args.resume, stop_after=args.stop_after
    )
    print(f"train: reached step {state.step}/{train_cfg.total_steps} -> {out}")
    return 0


def _parse_sizes(spec: str) -> tuple[CheckShape, ...]:
    shapes = []
    for part in spec.split(";"):
        nums = _ints("--sizes", part)
        if len(nums) != 6:
            raise ConfigError(
                f"--sizes entry {part!r} must be m,n,dim,H,d_k,d_v"
            )
        shapes.append(CheckShape(*nums))
    return tuple(shapes)


def cmd_gradcheck(args) -> int:
    results, elapsed = run_suites(args.seed, args.seeds, args.sizes)
    for r in results:
        print(r)
    failed = [r for r in results if not r.passed]
    print(
        f"gradcheck: {len(results) - len(failed)}/{len(results)} checks passed "
        f"in {elapsed:.2f}s"
    )
    return 1 if failed else 0


def cmd_adapt(args) -> int:
    cfg = _load_config(args.config)
    adapt_cfg = cfg.adapt or AdaptConfig()
    corpus = load_corpus(args.corpus)
    params, decoder = load_checkpoint_params(args.checkpoint)
    _refuse_other_dim(params.config, corpus)
    modes = MODES if args.mode == "both" else (args.mode,)
    cells = run_experiment(
        corpus, params, decoder, args.language, args.k, args.tasks, adapt_cfg,
        q=args.q, base_seed=args.seed, modes=modes,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(
        out / "resolved_config.json",
        adapt=adapt_cfg,
        ks=args.k,
        tasks=args.tasks,
        q=args.q,
        seed=args.seed,
        language=args.language,
        modes=list(modes),
    )
    write_report_json(cells, out / "report.json")
    write_report_tsv(cells, out / "summary.tsv")
    for cell in cells:
        print(
            f"adapt: {cell['language']} k={cell['k']} {cell['mode']}: "
            f"mean_mse={cell['mean']:.6f} (std {cell['std']:.6f}, {args.tasks} tasks)"
        )
    return 0


def cmd_map_phonemes(args) -> int:
    corpus = load_corpus(args.corpus)
    params, _ = load_checkpoint_params(args.checkpoint)
    _refuse_other_dim(params.config, corpus)
    scores = build_score_table(
        corpus,
        params,
        target_count=args.target_count,
        rng=np.random.default_rng(args.seed),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(
        out / "resolved_config.json",
        target_count=args.target_count,
        top_k=args.top_k,
        seed=args.seed,
    )
    write_mapping_tsv(scores, out / "mapping.tsv", k=args.top_k)
    write_scores_json(scores, out / "scores.json")
    print(f"map-phonemes: scored {len(scores.phonemes)} phonemes -> {out}")
    return 0


def cmd_validate(args) -> int:
    report = validate_corpus(load_manifest(args.manifest))
    print(report)
    if not report.ok:
        print(f"error:validation: {len(report.issues)} issues found", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xpq",
        description="Transferable phoneme embeddings: synthetic corpora, codebook "
        "attention training, few-shot adaptation, and phoneme mapping discovery.",
    )
    parser.add_argument("--version", action="version", version=f"xpq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus with ground truth")
    p.add_argument("--config", help="run config JSON (synth section)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", action=_Int, least=0, help="override synth seed")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("extract-queries", help="extract phoneme queries for one language")
    p.add_argument("--manifest", required=True, help="corpus manifest.json")
    p.add_argument("--language", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_queries)

    p = sub.add_parser("train", help="train codebook attention and decoder")
    p.add_argument("--config", help="run config JSON (train/codebook sections)")
    p.add_argument("--corpus", required=True, help="corpus manifest.json")
    p.add_argument("--out", required=True, help="checkpoint/output directory")
    p.add_argument("--resume", action="store_true", help="resume from checkpoint in --out")
    p.add_argument(
        "--stop-after", action=_Int, least=0, help="checkpoint and exit after this step"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seed", action=_Int, least=0, default=0, help="base seed")
    p.add_argument("--seeds", action=_Int, least=1, default=10, help="number of seeds per shape")
    p.add_argument(
        "--sizes", type=_parse_sizes, default=DEFAULT_SHAPES,
        help="shapes as m,n,dim,H,d_k,d_v[;...] (default: 3 built-ins)",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("adapt", help="few-shot adaptation experiment on one language")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint directory")
    p.add_argument("--corpus", required=True, help="corpus manifest.json")
    p.add_argument("--language", required=True)
    p.add_argument(
        "--k", action=_Int, least=1, many=True, required=True,
        help="shots per task, comma-separated (e.g. 4,16,64)",
    )
    p.add_argument("--tasks", action=_Int, least=1, default=20, help="tasks per cell")
    p.add_argument("--q", action=_Int, least=1, default=64, help="queries per task")
    p.add_argument(
        "--mode", choices=MODES + ("both",), default="both", help="initialization mode"
    )
    p.add_argument("--seed", action=_Int, least=0, default=0, help="base task seed")
    p.add_argument("--config", help="run config JSON (adapt section)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("map-phonemes", help="discover cross-language phoneme mappings")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint directory")
    p.add_argument("--corpus", required=True, help="corpus manifest.json")
    p.add_argument("--target-count", action=_Int, least=1, default=DEFAULT_COVER_TARGET)
    p.add_argument("--top-k", action=_Int, least=1, default=5)
    p.add_argument("--seed", action=_Int, least=0, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map_phonemes)

    p = sub.add_parser("validate", help="validate a corpus manifest and its files")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_validate)

    for name in ("extract-queries", "train", "adapt", "map-phonemes"):
        sub.choices[name].add_argument(
            "--threads", action=_Int, least=1, help="accepted for compatibility; has no effect"
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except XpqError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
