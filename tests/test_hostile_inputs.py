"""Hostile inputs end in one `error:<category>: ` line, never a traceback.

Each case runs `xpq.cli.main` in process on one corrupted input: a manifest,
an alignment, a run config or a checkpoint blob. Declared sizes are chosen so
that no version of the loader could allocate them: 4294967295**2 float32
values do not fit in an index-sized integer.
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import struct
import traceback

import numpy as np
import pytest

from xpq.cli import _Int, build_parser, main

ERROR_LINE = re.compile(r"^error:[a-z]+: ")
HUGE = 0xFFFFFFFF

CONFIG = {
    "synth": {
        "dim": 6,
        "num_prototypes": 10,
        "languages": [
            {"language": "L0", "m": 6, "shared_fraction": 0.5},
            {"language": "T0", "m": 6, "shared_fraction": 0.5, "role": "test"},
        ],
        "noise_sigma": 0.05,
        "utterances_per_language": 20,
        "segments_per_utterance": [5, 8],
        "frames_per_segment": [2, 4],
        "seed": 5,
    },
    "codebook": {"n": 8, "heads": 2, "d_k": 4, "d_v": 4, "dim": 6},
    "train": {
        "batch_size": 10,
        "gen_group_size": 8,
        "loss_group_size": 2,
        "warmup_steps": 2,
        "total_steps": 5,
        "seed": 2,
    },
    "adapt": {"finetune_steps": 2, "eval_checkpoints": [0, 2]},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    (root / "config.json").write_text(json.dumps(CONFIG, indent=2))
    assert main(["gen-corpus", "--config", str(root / "config.json"),
                 "--out", str(root / "corpus")]) == 0
    assert main(["train", "--config", str(root / "config.json"),
                 "--corpus", str(root / "corpus" / "manifest.json"),
                 "--out", str(root / "ckpt")]) == 0
    return root


def run_cli(argv):
    """(exit code, stdout, stderr) of main(argv); an escaping exception is
    printed to stderr as its traceback and gives exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def assert_one_error(argv, category, needle):
    """Exit 1, exactly one error line on stderr, of `category`, containing
    `needle`, and no traceback; returns (stdout, the error line)."""
    code, out, err = run_cli(argv)
    assert "Traceback" not in err, err
    assert code == 1, (code, err)
    lines = [line for line in err.splitlines() if ERROR_LINE.match(line)]
    assert len(lines) == 1, err
    assert lines[0].startswith(f"error:{category}: "), lines[0]
    assert needle in lines[0], lines[0]
    return out, lines[0]


def _set(path, value):
    """A manifest edit: set obj[path[0]][path[1]]... to value."""

    def edit(obj):
        if not path:
            return value
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj

    return edit


def _drop(path):
    """A manifest edit: delete obj[path[0]][path[1]]..."""

    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return obj

    return edit


FRAME_RATE = ("feature_spec", "frame_rate_hz")
FINITE_FRAME_RATE = "feature_spec.frame_rate_hz must be a finite number"

MANIFEST_CASES = {
    "top-level-number": (_set((), 5), "the top level must be an object"),
    "top-level-string": (_set((), "x"), 'the top level must be an object, got "x"'),
    "feature-spec-list": (_set(("feature_spec",), []), "feature_spec must be an object"),
    "dim-float": (_set(("feature_spec", "dim"), 6.5), "feature_spec.dim must be an integer"),
    "dim-string": (_set(("feature_spec", "dim"), "6"), "feature_spec.dim must be an integer"),
    "dim-bool": (_set(("feature_spec", "dim"), True), "feature_spec.dim must be an integer"),
    "languages-number": (_set(("languages",), 7), "languages must be a list"),
    "language-item-string": (_set(("languages", 0), "L0"), "languages[0] must be an object"),
    "phonemes-string": (
        _set(("languages", 0, "phonemes"), "ph00"), "languages[0].phonemes must be a list"
    ),
    "entries-object": (_set(("entries",), {"a": 1}), "entries must be a list"),
    "entry-item-number": (_set(("entries", 0), 1), "entries[0] must be an object"),
    "entry-id-list": (_set(("entries", 0, "id"), ["a"]), "entries[0].id must be a string"),
    "entry-language-number": (
        _set(("entries", 0, "language"), 5), "entries[0].language must be a string"
    ),
    "entry-path-number": (
        _set(("entries", 0, "feature_path"), 3), "entries[0].feature_path must be a string"
    ),
    # json.loads takes the NaN and Infinity that json.dumps writes for them
    "frame-rate-nan": (_set(FRAME_RATE, float("nan")), f"{FINITE_FRAME_RATE}, got NaN"),
    "frame-rate-infinity": (_set(FRAME_RATE, float("inf")), f"{FINITE_FRAME_RATE}, got Infinity"),
    "frame-rate-minus-infinity": (
        _set(FRAME_RATE, float("-inf")), f"{FINITE_FRAME_RATE}, got -Infinity"
    ),
    "frame-rate-huge-integer": (_set(FRAME_RATE, 10**400), FINITE_FRAME_RATE),
    # the corpus directory is the manifest's own; a "root" key would be ignored
    "top-level-root": (_set(("root",), "/elsewhere"), "unknown key"),
    "frame-rate-missing": (_drop(FRAME_RATE), "feature_spec: missing key"),
    # a dataclass's own range check names the file, the object and its line
    "frame-rate-negative": (
        _set(FRAME_RATE, -1.0), "json: feature_spec: frame_rate_hz must be > 0, got -1.0 (line 1)"
    ),
    "entry-split-dev": (
        _set(("entries", 5, "split"), "dev"),
        "json: entries[5]: entry 'L0_0005': split 'dev' not in ('train', 'val', 'test') (line 1)",
    ),
}


def _manifest_argv(command, workdir, manifest, out):
    if command == "validate":
        return ["validate", "--manifest", manifest]
    return ["train", "--config", workdir / "config.json", "--corpus", manifest,
            "--out", out, "--stop-after", "1"]


@pytest.mark.parametrize("command", ["validate", "train"])
@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_hostile_manifest(workdir, tmp_path, command, case):
    edit, needle = MANIFEST_CASES[case]
    obj = json.loads((workdir / "corpus" / "manifest.json").read_text())
    manifest = workdir / "corpus" / f"{case}-{command}.json"  # beside the corpus files
    manifest.write_text(json.dumps(edit(obj)))
    argv = _manifest_argv(command, workdir, manifest, tmp_path / "out")
    assert_one_error(argv, "validation", needle)


@pytest.fixture
def non_utf8_corpus(workdir, tmp_path):
    """A copy of the corpus whose first alignment is not UTF-8; returns
    (manifest path, first entry id)."""
    corpus = tmp_path / "corpus"
    shutil.copytree(workdir / "corpus", corpus)
    entry = json.loads((corpus / "manifest.json").read_text())["entries"][0]
    alignment = corpus / entry["alignment_path"]
    alignment.write_bytes(b"\xff\xfe" + alignment.read_bytes())
    return corpus / "manifest.json", entry["id"]


def test_non_utf8_alignment_is_one_validate_issue(non_utf8_corpus):
    manifest, entry_id = non_utf8_corpus
    out, _ = assert_one_error(["validate", "--manifest", manifest], "validation", "1 issues found")
    assert out.splitlines()[0].startswith(f"{entry_id}: ")
    assert "not valid UTF-8" in out


@pytest.mark.parametrize("command", ["train", "adapt"])
def test_non_utf8_alignment_stops_loaders(workdir, tmp_path, non_utf8_corpus, command):
    manifest, entry_id = non_utf8_corpus
    if command == "train":
        argv = ["train", "--config", workdir / "config.json", "--corpus", manifest,
                "--out", tmp_path / "out", "--stop-after", "1"]
    else:
        argv = ["adapt", "--checkpoint", workdir / "ckpt", "--corpus", manifest,
                "--language", "T0", "--k", "2", "--tasks", "1", "--q", "2",
                "--config", workdir / "config.json", "--out", tmp_path / "out"]
    _, line = assert_one_error(argv, "validation", "not valid UTF-8")
    assert line.startswith(f"error:validation: {entry_id}: "), line


# An empty alignment is legal, so a group can cover no frame: a val split, a
# loss group or a task's queries. (emptied entries, command) of each case;
# each command runs to the end.
EMPTY_ALIGNMENT_CASES = {
    "val-split": ({"L0_0018", "L0_0019"}, "train"),
    "loss-groups": ({f"L0_{i:04d}" for i in range(10)}, "train"),
    # 14 of L0's 18 train utterances: most random splits put only empty
    # alignments in the loss group, so the split itself must reject them
    "loss-groups-14": ({f"L0_{i:04d}" for i in range(14)}, "train"),
    "adapt-queries": ({f"T0_{i:04d}" for i in range(10, 20)}, "adapt"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_ALIGNMENT_CASES))
def test_groups_without_covered_frames_are_not_errors(workdir, tmp_path, case):
    emptied, command = EMPTY_ALIGNMENT_CASES[case]
    corpus = tmp_path / "corpus"
    shutil.copytree(workdir / "corpus", corpus)
    manifest = corpus / "manifest.json"
    for entry in json.loads(manifest.read_text())["entries"]:
        if entry["id"] in emptied:
            (corpus / entry["alignment_path"]).write_text("")
    assert run_cli(["validate", "--manifest", manifest])[1] == "corpus OK\n"
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", workdir / "config.json", "--corpus", manifest, "--out", out]
    else:
        cfg = dict(CONFIG, adapt={"finetune_steps": 5, "eval_checkpoints": [0, 5]})
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        argv = ["adapt", "--checkpoint", workdir / "ckpt", "--corpus", manifest, "--language",
                "T0", "--k", "1", "--q", "1", "--tasks", "4", "--config",
                tmp_path / "config.json", "--out", out]
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")
    if case == "val-split":  # L0 has no covered val frame, T0 no val split
        assert (out / "val_loss.tsv").read_text() == "# language\tn_val\tloss\n"


@pytest.mark.parametrize("flag, value", [("--top-k", -1), ("--top-k", 0),
                                         ("--target-count", -3), ("--target-count", 0)])
def test_map_phonemes_counts_below_one_are_config_errors(workdir, tmp_path, flag, value):
    """`--top-k -1` would list all but one candidate, `--top-k 0` no row, and
    `--target-count -3` would score the bare cover."""
    out = tmp_path / "out"
    assert_one_error(["map-phonemes", "--checkpoint", workdir / "ckpt", "--corpus",
                      workdir / "corpus" / "manifest.json", flag, value, "--out", out],
                     "config", f"{flag} must be >= 1, got {value}")
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    # a zero dimension divides by zero, a negative one fails inside numpy
    (["gradcheck", "--sizes", "0,2,2,1,1,1"], "gradcheck shape: m must be >= 1, got 0"),
    (["gradcheck", "--sizes=-1,2,2,1,1,1"], "gradcheck shape: m must be >= 1, got -1"),
    # no seed would run no check and pass 0/0
    (["gradcheck", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["gradcheck", "--seeds", "-2"], "--seeds must be >= 1, got -2"),
    (["gradcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["map-phonemes", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gen-corpus", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["adapt", "--seed", "-1"], "--seed must be >= 0, got -1"),
    # would train no step and report success
    (["train", "--stop-after", "-3"], "--stop-after must be >= 0, got -3"),
    # adapt refuses its flags before it loads anything
    (["adapt", "--q", "0"], "--q must be >= 1, got 0"),
    (["adapt", "--k", "4,0"], "--k must be >= 1, got 0"),
    (["adapt", "--k", "4,x"], "--k entries must be integers, got '4,x'"),
    (["gradcheck", "--sizes", "1,2,x,1,1,1"],
     "--sizes entries must be integers, got '1,2,x,1,1,1'"),
    # int() would take these as 4 and 16, and as seed 10; an integer is -?[0-9]+
    (["adapt", "--k", "+4, 1_6"], "--k entries must be integers, got '+4, 1_6'"),
    (["gen-corpus", "--seed", "1_0"], "--seed must be an integer, got '1_0'"),
    (["gradcheck", "--seed", "x"], "--seed must be an integer, got 'x'"),
    (["train", "--threads", "0"], "--threads must be >= 1, got 0"),
])
def test_negative_counts_and_seeds_are_config_errors(workdir, tmp_path, argv, needle):
    command, *flags = argv
    manifest = workdir / "corpus" / "manifest.json"
    inputs = {
        "map-phonemes": ["--checkpoint", workdir / "ckpt", "--corpus", manifest],
        # neither input exists: a refused flag must stop adapt before any load
        "adapt": ["--checkpoint", tmp_path / "no-ckpt", "--corpus", tmp_path / "no-corpus",
                  "--language", "T0", "--k", "2", "--tasks", "1", "--q", "2"],
        "train": ["--config", workdir / "config.json", "--corpus", manifest],
    }.get(command, [])
    out = [] if command == "gradcheck" else ["--out", tmp_path / "out"]
    assert_one_error([command, *inputs, *flags, *out], "config", needle)
    assert not (tmp_path / "out").exists()


COMMANDS = next(
    a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)
INT_FLAGS = [
    pytest.param(command, action, id=f"{command} {action.option_strings[0]}")
    for command, parser in COMMANDS.items()
    for action in parser._actions
    if isinstance(action, _Int)
]


def test_every_integer_flag_declares_its_bound():
    """An option that reads or defaults to an integer is an _Int, whose bound
    its default meets."""
    for command, parser in COMMANDS.items():
        for action in parser._actions:
            if action.type is int or type(action.default) is int or isinstance(action, _Int):
                assert isinstance(action, _Int), (command, action.dest)
                assert type(action.least) is int, (command, action.dest)
                assert action.default is None or action.default >= action.least, action.dest


@pytest.mark.parametrize("command, action", INT_FLAGS)
def test_each_integer_flag_below_its_bound_is_refused_before_any_load(tmp_path, command, action):
    """Every other required option is valid, its paths missing: the refusal
    comes while parsing, before any file is read or written."""
    flag, bad = action.option_strings[0], action.least - 1
    argv = [command]
    for other in COMMANDS[command]._actions:
        if other.required and other is not action:
            value = other.least if isinstance(other, _Int) else tmp_path / other.dest
            argv += [other.option_strings[0], value]
    assert_one_error([*argv, flag, bad], "config", f"{flag} must be >= {action.least}, got {bad}")
    assert list(tmp_path.iterdir()) == []


# (command, section edit, needle); each edit is applied to a copy of CONFIG
CONFIG_CASES = {
    "codebook-n-float": ("train", ("codebook", "n", 1.5), "codebook.n must be an integer"),
    "codebook-heads-bool": ("train", ("codebook", "heads", True),
                            "codebook.heads must be an integer"),
    "codebook-null": ("train", ("codebook", None, None), "codebook must be an object"),
    "codebook-n-zero": ("train", ("codebook", "n", 0), "codebook config: n must be >= 1"),
    "train-list": ("train", ("train", None, []), "train must be an object"),
    "total-steps-float": ("train", ("train", "total_steps", 3.5),
                          "train.total_steps must be an integer"),
    "lr-string": ("train", ("train", "lr", "0.1"), "train.lr must be a number"),
    # json.loads takes the NaN and Infinity that json.dumps writes for them
    "lr-nan": ("train", ("train", "lr", float("nan")), "train.lr must be a finite number"),
    "adapt-lr-infinity": ("adapt", ("adapt", "lr", float("inf")),
                          "adapt.lr must be a finite number, got Infinity"),
    "lr-huge-integer": ("train", ("train", "lr", 10**400), "train.lr must be a finite number"),
    "synth-language-number": ("gen-corpus", ("synth", "languages", [1]),
                              "synth.languages[0] must be an object"),
    # `adapt --mode` picks the modes; a config mode would be ignored
    "adapt-mode": ("adapt", ("adapt", "mode", "random_init"), "adapt: unknown key 'mode'"),
    # seeds are per section or per command; a top-level one would be ignored
    "top-level-seed": ("train", ("seed", None, 3), "unknown key 'seed'"),
    # a section of None replaces the whole config
    "top-level-string": ("train", (None, None, "x"), 'the top level must be an object, got "x"'),
    # checkpoints that are missing, negative or repeated would be reported short
    "adapt-checkpoints-empty": ("adapt", ("adapt", "eval_checkpoints", []),
                                "eval_checkpoints must be non-empty, strictly increasing"),
    "adapt-checkpoint-negative": ("adapt", ("adapt", "eval_checkpoints", [-1, 2]),
                                  "<= finetune_steps, got [-1, 2]"),
    "adapt-checkpoint-repeated": ("adapt", ("adapt", "eval_checkpoints", [0, 2, 2]),
                                  "<= finetune_steps, got [0, 2, 2]"),
    # an empty group leaves the loss or the queries without utterances
    "train-loss-group-zero": ("train", ("train", None, {**CONFIG["train"], "gen_group_size": 10,
                                                        "loss_group_size": 0}),
                              "gen_group_size and loss_group_size must be >= 1"),
    "train-gen-group-zero": ("train", ("train", None, {**CONFIG["train"], "gen_group_size": 0,
                                                       "loss_group_size": 10}),
                             "gen_group_size and loss_group_size must be >= 1"),
    # Adam divides by 1 - beta**step
    "train-beta1-one": ("train", ("train", "beta1", 1.0), "train: beta1 must be in [0, 1)"),
    "train-beta2-one": ("train", ("train", "beta2", 1.0), "train: beta2 must be in [0, 1)"),
    # a negative eps can flip or blow up Adam's step; a negative count means nothing
    "train-eps-negative": ("train", ("train", "eps", -1.0), "train: eps must be > 0"),
    "train-resample-limit-negative": ("train", ("train", "coverage_resample_limit", -1),
                                      "train: coverage_resample_limit must be >= 0"),
    "train-checkpoint-every-negative": ("train", ("train", "checkpoint_every", -7),
                                        "train: checkpoint_every must be >= 0"),
    # numpy's own seed error would name no field
    "train-seed-negative": ("train", ("train", "seed", -1), "train: seed must be >= 0, got -1"),
    "synth-seed-negative": ("gen-corpus", ("synth", "seed", -1),
                            "synth: seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_hostile_config(workdir, tmp_path, case):
    command, (section, key, value), needle = CONFIG_CASES[case]
    cfg = json.loads(json.dumps(CONFIG))
    if section is None:
        cfg = value
    elif key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    manifest = workdir / "corpus" / "manifest.json"
    if command == "train":
        argv = ["train", "--config", path, "--corpus", manifest,
                "--out", tmp_path / "out", "--stop-after", "1"]
    elif command == "adapt":
        argv = ["adapt", "--checkpoint", workdir / "ckpt", "--corpus", manifest,
                "--language", "T0", "--k", "2", "--tasks", "1", "--q", "2",
                "--config", path, "--out", tmp_path / "out"]
    else:
        argv = ["gen-corpus", "--config", path, "--out", tmp_path / "corpus"]
    assert_one_error(argv, "config", needle)


def test_zero_tasks_is_a_config_error(workdir, tmp_path):
    """`adapt --tasks 0` would average the MSEs of no task."""
    assert_one_error(
        ["adapt", "--checkpoint", workdir / "ckpt", "--corpus",
         workdir / "corpus" / "manifest.json", "--language", "T0", "--k", "2", "--tasks", "0",
         "--q", "2",
         "--config", workdir / "config.json", "--out", tmp_path / "out"],
        "config",
        "--tasks must be >= 1, got 0",
    )


@pytest.fixture(scope="module")
def dim4_corpus(tmp_path_factory):
    """The hostile-input corpus at feature dim 4, against workdir's dim-6 checkpoint."""
    root = tmp_path_factory.mktemp("dim4")
    cfg = dict(CONFIG, synth=dict(CONFIG["synth"], dim=4))
    (root / "config.json").write_text(json.dumps(cfg))
    assert main(["gen-corpus", "--config", str(root / "config.json"),
                 "--out", str(root / "corpus")]) == 0
    return root / "corpus" / "manifest.json"


@pytest.mark.parametrize("command", ["adapt-both", "adapt-random_init", "map-phonemes"])
def test_checkpoint_of_another_feature_dim_is_a_config_error(workdir, tmp_path, dim4_corpus,
                                                             command):
    """A checkpoint is refused with train's own check before any task runs,
    not with a numpy shape error from inside the first one."""
    out = tmp_path / "out"
    common = ["--checkpoint", workdir / "ckpt", "--corpus", dim4_corpus, "--out", out]
    if command == "map-phonemes":
        argv = ["map-phonemes", *common]
    else:
        argv = ["adapt", *common, "--language", "T0", "--k", "2", "--tasks", "1", "--q", "2",
                "--mode", command.removeprefix("adapt-"), "--config", workdir / "config.json"]
    assert_one_error(argv, "config", "codebook dim 6 != corpus feature dim 4")
    assert not out.exists()


def test_config_error_names_the_line(workdir, tmp_path):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["train"]["total_steps"] = 3.5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    line = next(i for i, text in enumerate(path.read_text().splitlines(), start=1)
                if '"total_steps"' in text)
    assert_one_error(
        ["train", "--config", path, "--corpus", workdir / "corpus" / "manifest.json",
         "--out", tmp_path / "out"],
        "config",
        f"train.total_steps must be an integer, got 3.5 (line {line})",
    )


def test_manifest_check_names_the_line_of_the_objects_first_key(workdir):
    obj = json.loads((workdir / "corpus" / "manifest.json").read_text())
    obj["entries"][5]["split"] = "dev"
    manifest = workdir / "corpus" / "split-dev-indented.json"
    manifest.write_text(json.dumps(obj, indent=2))
    line = next(i for i, text in enumerate(manifest.read_text().splitlines(), start=1)
                if '"id": "L0_0005"' in text)
    assert_one_error(["validate", "--manifest", manifest], "validation",
                     f"{manifest}: entries[5]: entry 'L0_0005': split 'dev' not in "
                     f"('train', 'val', 'test') (line {line})")


# Blob edits work on bytes, following the README layout: magic and version
# (8 bytes), the header, then tensors as rows u32, cols u32, float32 payload.


def _tensor_at(data, offset):
    """(rows, cols, offset of the next tensor) of the tensor at offset."""
    rows, cols = struct.unpack_from("<II", data, offset)
    return rows, cols, offset + 8 + 4 * rows * cols


def _edit(path, fn):
    data = bytearray(path.read_bytes())
    path.write_bytes(bytes(fn(data)))


def _huge_decoder_header(data):
    data[8:16] = struct.pack("<II", HUGE, HUGE)  # w_d rows, cols after magic + version
    return data


def _transposed_decoder(data):
    rows, cols, end = _tensor_at(data, 8)
    w_d = np.frombuffer(bytes(data[16:end]), dtype="<f4").reshape(rows, cols)
    data[8:end] = struct.pack("<II", cols, rows) + np.ascontiguousarray(w_d.T).tobytes()
    return data


def _long_bias(data):
    _, _, bias = _tensor_at(data, 8)
    _, cols, _ = _tensor_at(data, bias)
    data[bias : bias + 8] = struct.pack("<II", 1, cols + 1)
    return data + struct.pack("<f", 0.0)


def _huge_codebook_tensor(data):
    data[28:36] = struct.pack("<II", HUGE, HUGE)  # w_q[0] rows, cols after the 5 config u32s
    return data


def _zero_codebook_size(data):
    data[8:12] = struct.pack("<I", 0)  # n, the first config u32
    return data


def _cut_to_ten_bytes(data):
    return data[:10]


def _swapped_keys_moment(data):
    _, _, at = _tensor_at(data, 16)  # past the u64 step and m of w_q
    _, _, at = _tensor_at(data, at)  # past v of w_q: the m of keys
    rows, cols, _ = _tensor_at(data, at)
    data[at : at + 8] = struct.pack("<II", cols, rows)
    return data


def _junk_tail(data):
    return data + b"junk"


def _first_value(of_tensor, value):
    """An edit setting the first float32 of the tensor at of_tensor(data)."""

    def edit(data):
        at = of_tensor(data) + 8  # past rows and cols
        data[at : at + 4] = struct.pack("<f", value)
        return data

    return edit


def _bias(data):
    return _tensor_at(data, 8)[2]  # b_d follows w_d


_nan_bias = _first_value(_bias, float("nan"))
_inf_w_q = _first_value(lambda data: 28, float("inf"))  # w_q[0], after 5 config u32s
_nan_first_moment = _first_value(lambda data: 16, float("nan"))  # m[w_q], after the u64 step


def _replaced_by(content):
    return lambda data: content


def _meta_of(**keys):
    """A meta.json edit keeping only version and step, then setting keys."""

    def edit_meta(data):
        meta = json.loads(bytes(data))
        return json.dumps({"version": meta["version"], "step": meta["step"], **keys}).encode()

    return edit_meta


def _rng_state(edit):
    """A meta.json edit replacing rng_state by edit(rng_state)."""

    def edit_meta(data):
        meta = json.loads(bytes(data))
        meta["rng_state"] = edit(meta["rng_state"])
        return json.dumps(meta).encode()

    return edit_meta


# (checkpoint file, corruption, command, category, needle)
BLOB_CASES = {
    "decoder-huge-header": ("decoder.bin", _huge_decoder_header, "adapt", "truncation",
                            "declares 4294967295x4294967295"),
    "codebook-huge-header": ("codebook.bin", _huge_codebook_tensor, "adapt", "truncation",
                             "declares 4294967295x4294967295"),
    "decoder-transposed": ("decoder.bin", _transposed_decoder, "adapt", "format",
                           "w_d has shape (6, 8), expected (8, 6)"),
    "decoder-transposed-map": ("decoder.bin", _transposed_decoder, "map-phonemes", "format",
                               "w_d has shape (6, 8), expected (8, 6)"),
    "decoder-long-bias": ("decoder.bin", _long_bias, "adapt", "format",
                          "b_d has shape (7,), expected (6,)"),
    "codebook-zero-n": ("codebook.bin", _zero_codebook_size, "adapt", "format",
                        "codebook.bin: codebook config: n must be >= 1"),
    "optim-cut": ("optim.bin", _cut_to_ten_bytes, "resume", "truncation",
                  "unexpected end of file in "),
    "optim-keys-moment-swapped": ("optim.bin", _swapped_keys_moment, "resume", "format",
                                  "m[keys] has shape (4, 16), expected (16, 4)"),
    "codebook-junk-tail": ("codebook.bin", _junk_tail, "adapt", "format",
                           "codebook.bin: 4 bytes follow the last tensor"),
    "decoder-junk-tail": ("decoder.bin", _junk_tail, "map-phonemes", "format",
                          "decoder.bin: 4 bytes follow the last tensor"),
    "optim-junk-tail": ("optim.bin", _junk_tail, "resume", "format",
                        "optim.bin: 4 bytes follow the last tensor"),
    "decoder-nan-bias": ("decoder.bin", _nan_bias, "adapt", "format",
                         "decoder.bin: b_d holds a non-finite value"),
    "codebook-inf-w-q": ("codebook.bin", _inf_w_q, "map-phonemes", "format",
                         "codebook.bin: w_q[0] holds a non-finite value"),
    "optim-nan-moment": ("optim.bin", _nan_first_moment, "resume", "format",
                         "optim.bin: m[w_q] holds a non-finite value"),
    "meta-list": ("meta.json", _replaced_by(b"[]"), "resume", "format",
                  "meta.json: the top level must be an object"),
    # adapt and map-phonemes check meta.json as resuming does
    "meta-list-adapt": ("meta.json", _replaced_by(b"[]"), "adapt", "format",
                        "meta.json: the top level must be an object"),
    "meta-list-map-phonemes": ("meta.json", _replaced_by(b"[]"), "map-phonemes", "format",
                               "meta.json: the top level must be an object"),
    "meta-string": ("meta.json", _replaced_by(b'"x"'), "resume", "format",
                    'meta.json: the top level must be an object, got "x"'),
    "meta-string-adapt": ("meta.json", _replaced_by(b'"x"'), "adapt", "format",
                          'meta.json: the top level must be an object, got "x"'),
    "meta-string-map-phonemes": ("meta.json", _replaced_by(b'"x"'), "map-phonemes", "format",
                                 'meta.json: the top level must be an object, got "x"'),
    "meta-version-only": ("meta.json", _replaced_by(b'{"version": 1}'), "resume", "format",
                          "meta.json: missing key 'step'"),
    "meta-invalid-json": ("meta.json", _replaced_by(b'{"version": 1,'), "resume", "format",
                          "meta.json: not valid JSON"),
    "meta-rng-empty": ("meta.json", _rng_state(lambda rng: {}), "resume", "format",
                       "meta.json: rng_state is not a PCG64 state"),
    "meta-rng-bad-hex": ("meta.json", _rng_state(lambda rng: dict(rng, state="0xnothex")),
                         "resume", "format", "meta.json: rng_state is not a PCG64 state"),
    "meta-rng-list": ("meta.json", _rng_state(lambda rng: list(rng.values())), "resume",
                      "format", "meta.json: rng_state must be an object, got ["),
    # adapt and map-phonemes read meta.json with the one reader resuming uses
    "meta-version-step-adapt": ("meta.json", _meta_of(), "adapt", "format",
                                "meta.json: missing key 'config_hash'"),
    "meta-version-step-map-phonemes": ("meta.json", _meta_of(), "map-phonemes", "format",
                                       "meta.json: missing key 'config_hash'"),
    # the version is checked before the keys, whose set it may change
    "meta-version-2": ("meta.json", _meta_of(version=2, extra=1), "resume", "format",
                       "unsupported checkpoint version 2 in "),
    "meta-version-2-adapt": ("meta.json", _meta_of(version=2, extra=1), "adapt", "format",
                             "unsupported checkpoint version 2 in "),
    "meta-version-2-map-phonemes": ("meta.json", _meta_of(version=2, extra=1), "map-phonemes",
                                    "format", "unsupported checkpoint version 2 in "),
}


@pytest.mark.parametrize("case", sorted(BLOB_CASES))
def test_hostile_checkpoint_blob(workdir, tmp_path, case):
    blob, corrupt, command, category, needle = BLOB_CASES[case]
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workdir / "ckpt", ckpt)
    _edit(ckpt / blob, corrupt)
    manifest = workdir / "corpus" / "manifest.json"
    if command == "adapt":
        argv = ["adapt", "--checkpoint", ckpt, "--corpus", manifest, "--language", "T0",
                "--k", "2", "--tasks", "1", "--q", "2", "--config", workdir / "config.json",
                "--out", tmp_path / "out"]
    elif command == "map-phonemes":
        argv = ["map-phonemes", "--checkpoint", ckpt, "--corpus", manifest,
                "--out", tmp_path / "out"]
    else:
        argv = ["train", "--config", workdir / "config.json", "--corpus", manifest,
                "--out", ckpt, "--resume"]
    assert_one_error(argv, category, needle)


def _adapt_at_lr(workdir, tmp_path, lr):
    """argv of a one-task k=4 adapt fine-tuning 50 steps at lr, and its --out."""
    cfg = json.loads(json.dumps(CONFIG))
    cfg["adapt"] = {"lr": lr, "finetune_steps": 50, "eval_checkpoints": [0, 50]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    out = tmp_path / "out"
    argv = ["adapt", "--checkpoint", workdir / "ckpt", "--corpus",
            workdir / "corpus" / "manifest.json", "--language", "T0", "--k", "4",
            "--tasks", "1", "--q", "2", "--config", path, "--out", out]
    return argv, out


def test_diverging_adapt_is_one_numeric_error_and_writes_no_report(workdir, tmp_path):
    """At lr 1e30 fine-tuning overflows to NaN; that is refused, not reported."""
    argv, out = _adapt_at_lr(workdir, tmp_path, 1e30)
    _, line = assert_one_error(argv, "numeric", "query MSE is nan at fine-tune step 50")
    assert "fine-tuning diverged at lr 1e+30" in line
    assert not (out / "report.json").exists()


def test_adapt_that_overflows_but_ends_finite_keeps_its_warnings(workdir, tmp_path):
    """At lr 1e8 fine-tuning overflows on the way and ends finite: the run is
    reported, and the overflow warnings still reach the user."""
    argv, out = _adapt_at_lr(workdir, tmp_path, 1e8)
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, _, err = run_cli(argv)
    assert code == 0, err
    assert (out / "report.json").exists()


def test_report_writers_refuse_nan(tmp_path):
    from xpq.adaptation import write_report_json

    with pytest.raises(ValueError):
        write_report_json([{"mean": float("nan")}], tmp_path / "report.json")
