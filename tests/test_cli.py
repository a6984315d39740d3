"""End-to-end command-line pipeline in temporary directories."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risknet
from conftest import needs_digit_limit
from risknet import baselines, cli, embed
from risknet.cli import main, read_tokens, write_tokens
from risknet.model import PREDICT_BATCH
from risknet.modelio import load_model
from risknet.train import Adam, AdamHyper


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


ABLATE_FLAGS = ("--epochs", 1, "--embed-dim", 8, "--lstm-units", 4, "--max-len", 16,
                "--seed", 7, "--dropout", 0.0)

# The first run of each subcommand under the pipeline root: its input flags
# (paths relative to the root), its other flags and its output directory.
FIRST_RUNS = {
    "synth": ((), ("--posts", 220, "--seed", 7), "synth"),
    "preprocess": (("--dataset", "synth/posts.csv"), (), "prep"),
    "annotate": (("--dataset", "prep/tokens.jsonl"),
                 ("--top-k", 80, "--fractions", "0.4,0.3,0.2,0.1"), "ann"),
    "report-ngrams": (("--dataset", "prep/tokens.jsonl"), ("--top", 10), "ng"),
    "train": (("--dataset", "prep/tokens.jsonl"),
              ("--epochs", 2, "--embed-dim", 12, "--lstm-units", 6, "--max-len", 24,
               "--seed", 7, "--dropout", 0.0), "train"),
    "evaluate": (("--model", "train/model.rkn", "--dataset", "train/test.jsonl"), (), "eval"),
    "predict": (("--model", "train/model.rkn", "--dataset", "prep/tokens.jsonl"), (), "pred"),
    "ablate": (("--dataset", "prep/tokens.jsonl"), ABLATE_FLAGS, "abl"),
}


def input_flags(root, cmd):
    inputs = FIRST_RUNS[cmd][0]
    return [root / a if i % 2 else a for i, a in enumerate(inputs)]


def run_first(root, cmd):
    _, flags, out = FIRST_RUNS[cmd]
    return run(cmd, *input_flags(root, cmd), *flags, "--out", root / out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> preprocess -> train once; individual tests inspect the pieces."""
    root = tmp_path_factory.mktemp("pipe")
    for cmd in ("synth", "preprocess", "train"):
        assert run_first(root, cmd) == 0, cmd
    return root


@pytest.fixture(scope="module")
def first_runs(pipeline):
    """The pipeline plus the first run of every other subcommand."""
    for cmd in ("annotate", "report-ngrams", "evaluate", "predict", "ablate"):
        assert run_first(pipeline, cmd) == 0, cmd
    return pipeline


# ------------------------------------------------------------------- synth


def test_synth_writes_corpus_and_run_json(tmp_path):
    out = tmp_path / "s"
    assert run("synth", "--posts", 25, "--seed", 3, "--out", out) == 0
    assert (out / "posts.csv").exists()
    doc = read_json(out / "run.json")
    assert doc["command"] == "synth"
    assert doc["params"]["posts"] == 25 and doc["params"]["seed"] == 3


def test_synth_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--posts", 40, "--seed", 9, "--out", a) == 0
    assert run("synth", "--posts", 40, "--seed", 9, "--out", b) == 0
    assert (a / "posts.csv").read_bytes() == (b / "posts.csv").read_bytes()


# SHA-256 of each subcommand's first run.json (FIRST_RUNS), with the paths it
# names replaced by placeholders
RUN_JSON_DIGESTS = {
    "synth": "f21a764ae639df63d70dcd1cfe6d62714eb56077744bc4672178d254c3cbc60d",
    "preprocess": "b9d7f61d14c2eba4ee6c4f454926c502028e316099f7eaa42ef6d5e16b985dab",
    "annotate": "f31be201463495683a0d34e7f2c478196c3363fc51d7451a60b5782d55d6001f",
    "report-ngrams": "ebad1dd8de95e2e4d93bb091fe0c095eb75e12b6ed66f51fe0f16e0a83b192fc",
    "train": "13b67956b18238cd3853dda61296288f8b7ac5e94ac6142afb7f0e4353a40eea",
    "evaluate": "aa22482a5622295eb079cf9f7fa173dc5611cfb81be088ad0b30a2e882d89087",
    "predict": "41ea4e3185fd0c451b92cd996e6ae1adf3931f5fa8f4de4e9ccdc8ee040d6973",
    "ablate": "77aa5934b067cc5ca4071f1e2f3acd1c0bc1c693d52baeb2589a9d7ebee66cbd",
}


def run_json_without_paths(out_dir):
    doc = read_json(out_dir / "run.json")
    for key in ("dataset", "model", "out"):
        if key in doc["params"]:
            doc["params"][key] = f"<{key}>"
    return doc


@pytest.mark.parametrize("cmd", list(FIRST_RUNS))
def test_run_json_is_pinned(first_runs, cmd):
    doc = run_json_without_paths(first_runs / FIRST_RUNS[cmd][2])
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RUN_JSON_DIGESTS[cmd]


@pytest.mark.parametrize("cmd", list(FIRST_RUNS))
def test_replay_from_config(first_runs, tmp_path, cmd):
    first = first_runs / FIRST_RUNS[cmd][2]
    assert run(cmd, *input_flags(first_runs, cmd), "--config", first / "run.json",
               "--out", tmp_path) == 0
    assert run_json_without_paths(tmp_path) == run_json_without_paths(first)
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        if name != "run.json":
            assert (tmp_path / name).read_bytes() == (first / name).read_bytes(), name


def test_run_json_with_a_dtype_key_still_replays(first_runs, tmp_path):
    # run.json files from before the --dtype flag was dropped hold "dtype";
    # a key that no flag sets is ignored
    first = first_runs / FIRST_RUNS["train"][2]
    doc = read_json(first / "run.json")
    doc["params"]["dtype"] = "float32"
    config = tmp_path / "old.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert run("train", *input_flags(first_runs, "train"), "--config", config,
               "--out", tmp_path / "t") == 0
    assert run_json_without_paths(tmp_path / "t") == run_json_without_paths(first)
    assert (tmp_path / "t/model.rkn").read_bytes() == (first / "model.rkn").read_bytes()


def test_config_from_other_command_rejected(tmp_path):
    a = tmp_path / "a"
    assert run("synth", "--posts", 5, "--seed", 1, "--out", a) == 0
    code = run("preprocess", "--dataset", a / "posts.csv", "--out", tmp_path / "p",
               "--config", a / "run.json")
    assert code == 1


def config_params(cmd, params):
    return lambda p: p.write_text(json.dumps({"command": cmd, "params": params}),
                                  encoding="utf-8")


@pytest.mark.parametrize("cmd,write", [
    ("synth", lambda p: p.write_text("[]", encoding="utf-8")),
    # used to be named only by the codec's message
    ("synth", lambda p: p.write_bytes(b'\xff{"command": "synth"}')),
    ("synth", config_params("synth", [1])),
    ("synth", config_params("synth", {"posts": [5]})),
    ("synth", lambda p: p.mkdir()),
    # keys whose default is null take their flag's type
    ("train", config_params("train", {"embeddings": 5})),
    ("train", config_params("train", {"max_len": 12.7})),
    ("train", config_params("train", {"max_len": "abc"})),
    ("train", config_params("train", {"max_len": True})),
    ("preprocess", config_params("preprocess", {"format": "xml"})),
    ("annotate", config_params("annotate", {"fractions": 0.25})),
    ("synth", config_params("synth", {"seed": None})),
    # nested past the decoder's recursion limit: its RecursionError made it exit 2
    ("synth", lambda p: p.write_text('{"command": "synth", "params": ' + "[" * 100_000
                                     + "]" * 100_000 + "}", encoding="utf-8")),
    # past the int-to-str digit limit: it printed the interpreter's advice
    pytest.param("synth", lambda p: p.write_text('{"command": "synth", "params": {"posts": 1'
                                                 + "0" * 5000 + "}}", encoding="utf-8"),
                 marks=needs_digit_limit),
], ids=["not_an_object", "not_utf8", "params_list", "posts_list", "directory",
        "embeddings_int", "max_len_float", "max_len_str", "max_len_bool",
        "format_not_a_choice", "fractions_float", "seed_null", "nested_too_deeply",
        "integer_too_long"])
def test_malformed_config_exits_1_naming_config(tmp_path, capsys, cmd, write):
    # each of these used to end in a TypeError, AttributeError or OSError and
    # exit 2, or to be read as some other value
    config = tmp_path / "run.json"
    write(config)
    dataset = () if cmd == "synth" else ("--dataset", tmp_path / "unread.jsonl")
    assert run(cmd, *dataset, "--out", tmp_path / "s", "--config", config) == 1
    assert f"error: --config {config}: " in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@needs_digit_limit
def test_config_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"command": "synth", "params": {"posts": 1' + "0" * 5000 + "}}",
                      encoding="utf-8")
    assert run("synth", "--out", tmp_path / "s", "--config", config) == 1
    assert capsys.readouterr().err == (
        f"error: --config {config}: invalid JSON (an integer has too many digits)\n")


# each subcommand's flag dests, which a run.json of it may hold
_CONFIG_KEYS = {cmd: sorted(a.dest for a in sub._actions if a.dest not in ("help", "config"))
                for cmd, sub in cli.build_parser().commands.items()}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64 - 1, 2**64, 2**70]),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["csv", "jsonl", "cnn", "lstm", "0.4,0.3,0.2,0.1", ""]), st.text(max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=5)
# values near the flags' bounds, and values of every JSON type
_PARAM_VALUES = st.integers(-2, 3) | st.floats(-0.5, 1.5) | _JSON_VALUES


@st.composite
def _config_bytes(draw, cmd):
    """The bytes of a run.json for `cmd`: its command right, wrong, missing or
    not a string; its params an object of known and unknown keys, some other
    JSON value, or missing; and now and then bytes that are not UTF-8."""
    doc = {}
    command = draw(st.sampled_from(["right", "right", "right", "wrong", "missing", "value"]))
    if command != "missing":
        doc["command"] = {"right": cmd, "wrong": "synth" if cmd != "synth" else "train",
                          "value": draw(_JSON_VALUES)}[command]
    shape = draw(st.sampled_from(["object", "object", "value", "missing"]))
    if shape == "object":
        known = st.sampled_from(_CONFIG_KEYS[cmd])
        other = st.sampled_from(sorted(set().union(*_CONFIG_KEYS.values()))) | st.text(max_size=6)
        doc["params"] = draw(st.dictionaries(known | known | other, _PARAM_VALUES, max_size=4))
    elif shape == "value":
        doc["params"] = draw(_JSON_VALUES)
    raw = json.dumps(doc).encode("utf-8")  # NaN and Infinity as Python writes them
    if draw(st.sampled_from([False] * 4 + [True]), label="mangled"):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(min_size=1, max_size=3)) + raw[at:]
    return raw


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_replay_fuzz_exits_0_or_1_with_an_error(tmp_path_factory, data):
    """A drawn run.json, replayed into a subcommand whose work is a no-op,
    either runs or stops with exit 1 and `error:`: only `_replay_config` and
    `_check_bounds` see it."""
    cmd = data.draw(st.sampled_from(sorted(FIRST_RUNS)), label="subcommand")
    root = tmp_path_factory.getbasetemp() / "config_fuzz"
    root.mkdir(exist_ok=True)
    (root / "input").write_text("{}\n", encoding="utf-8")
    config = root / "run.json"
    config.write_bytes(data.draw(_config_bytes(cmd), label="run.json"))
    inputs = [flag if i % 2 == 0 else root / "input"
              for i, flag in enumerate(FIRST_RUNS[cmd][0])]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, f"_cmd_{cmd.replace('-', '_')}", lambda params, out: None)
        code = run(cmd, *inputs, "--out", root / "out", "--config", config)
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: ")), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("train", "--dataset", "{dir}"),
    ("train", "--dataset", "{file}", "--embeddings", "{dir}"),
    ("evaluate", "--model", "{dir}", "--dataset", "{file}"),
    ("predict", "--model", "{file}", "--dataset", "{dir}"),
    ("preprocess", "--dataset", "{dir}"),
    ("train", "--dataset", "{missing}"),
    ("train", "--dataset", "{file}", "--embeddings", "{missing}"),
    ("evaluate", "--model", "{missing}", "--dataset", "{file}"),
    ("predict", "--model", "{file}", "--dataset", "{missing}"),
], ids=["train_dataset", "train_embeddings", "evaluate_model", "predict_dataset",
        "preprocess_dataset", "train_dataset_missing", "train_embeddings_missing",
        "evaluate_model_missing", "predict_dataset_missing"])
def test_directory_as_input_file_exits_1_naming_flag(tmp_path, capsys, argv):
    # a missing file used to be named only by the bare OSError message, and
    # --out was made before it was found
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("x\n", encoding="utf-8")
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f", "missing": tmp_path / "m"}
    bad = next(a[1:-1] for a in argv if a in ("{dir}", "{missing}"))
    flag = argv[argv.index("{" + bad + "}") - 1]
    problem = {"dir": "is a directory", "missing": "no such file"}[bad]
    assert run(*[a.format(**paths) for a in argv], "--out", tmp_path / "o") == 1
    assert f"error: {flag} {paths[bad]}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["f", "f/sub"])
def test_file_as_out_exits_1_naming_flag(tmp_path, capsys, out):
    (tmp_path / "f").write_text("x\n", encoding="utf-8")
    assert run("synth", "--posts", 5, "--out", tmp_path / out) == 1
    assert f"error: --out {tmp_path / out}: not a directory" in capsys.readouterr().err


def test_out_dir_write_failure_stays_a_runtime_error(tmp_path, capsys, monkeypatch):
    def full_disk(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "mkdir", full_disk)
    assert run("synth", "--posts", 5, "--out", tmp_path / "o") == 2
    assert "runtime error: OSError: " in capsys.readouterr().err


# -------------------------------------------------------------- preprocess


def test_preprocess_outputs(pipeline):
    prep = pipeline / "prep"
    rows = read_tokens(prep / "tokens.jsonl")
    assert all(set(r) == {"post_id", "user_id", "label", "tokens"} for r in rows)
    assert all(r["label"] in (0, 1, 2, 3) for r in rows)
    assert all(r["tokens"] for r in rows)
    doc = read_json(prep / "run.json")
    assert doc["command"] == "preprocess"
    stats = doc["stats"]
    assert stats["posts_read"] == 220
    assert stats["dropped_empty"] >= 0 and stats["dropped_duplicate"] >= 0
    assert len(rows) == 220 - stats["dropped_empty"] - stats["dropped_duplicate"]


def test_preprocess_keeps_the_first_of_each_cleaned_text(tmp_path):
    posts = tmp_path / "posts.csv"
    posts.write_text(
        "post_id,user_id,timestamp,subreddit,post_title,post_body,label\n"
        "p1,u1,1,s,Feeling hopeless!,,1\n"
        "p2,u2,2,s,https://a.b/c,,1\n"
        "p3,u3,3,s,,feeling   HOPELESS,2\n"  # cleans to p1's text
        "p4,u4,4,s,The,and of it,0\n"        # stop words only
        "p5,u5,5,s,,www.example.org,3\n"     # a second empty text, not a duplicate
        "p6,u6,6,s,Lost,,2\n",
        encoding="utf-8")
    assert run("preprocess", "--dataset", posts, "--out", tmp_path / "p") == 0
    rows = read_tokens(tmp_path / "p" / "tokens.jsonl")
    assert [r["post_id"] for r in rows] == ["p1", "p6"]
    assert read_json(tmp_path / "p" / "run.json")["stats"] == {
        "posts_read": 6, "dropped_empty": 3, "dropped_duplicate": 1}


def test_preprocess_jsonl_float_label_exits_1_naming_line(tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    posts.write_text(json.dumps({"post_id": "p1", "user_id": "u1", "timestamp": 1,
                                 "subreddit": "s", "post_title": "a", "post_body": "b",
                                 "label": 2.9}) + "\n", encoding="utf-8")
    assert run("preprocess", "--dataset", posts, "--out", tmp_path / "p") == 1
    assert "line 1: 'label' must be null or an integer, got 2.9" in capsys.readouterr().err


def test_preprocess_jsonl_non_string_text_exits_1_naming_line(tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    posts.write_text(json.dumps({"post_id": 12, "user_id": ["u"], "timestamp": 1,
                                 "subreddit": "s", "post_title": {"a": 1},
                                 "post_body": "b"}) + "\n", encoding="utf-8")
    assert run("preprocess", "--dataset", posts, "--out", tmp_path / "p") == 1
    assert "line 1: 'post_id' must be a string, got 12" in capsys.readouterr().err
    assert not (tmp_path / "p" / "tokens.jsonl").exists()


def test_preprocess_does_not_mutate_input(tmp_path):
    out1 = tmp_path / "s"
    assert run("synth", "--posts", 10, "--seed", 2, "--out", out1) == 0
    before = (out1 / "posts.csv").read_bytes()
    assert run("preprocess", "--dataset", out1 / "posts.csv", "--out", tmp_path / "p") == 0
    assert (out1 / "posts.csv").read_bytes() == before


def test_preprocess_missing_dataset_is_validation_error(tmp_path):
    assert run("preprocess", "--dataset", tmp_path / "nope.csv", "--out", tmp_path / "o") == 1


# ----------------------------------------------------- annotate and ngrams


def test_annotate_outputs(pipeline, tmp_path):
    out = tmp_path / "ann"
    code = run("annotate", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", out, "--top-k", 80, "--fractions", "0.25,0.25,0.25,0.25")
    assert code == 0
    labeled = read_tokens(out / "labeled.jsonl")
    assert all(r["label"] in (0, 1, 2, 3) for r in labeled)
    with (out / "weights.csv").open() as fh:
        header = fh.readline().strip()
    assert header == "ngram,weight"
    doc = read_json(out / "run.json")
    t1, t2, t3 = doc["params"]["thresholds"]
    assert t1 < t2 < t3


def test_annotate_does_not_depend_on_record_order(pipeline, tmp_path):
    # tf used to count n-grams over each class's posts joined end to end, so
    # n-grams spanning two posts moved with the record order
    lines = (pipeline / "prep" / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
    random.Random(3).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("annotate", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", tmp_path / "a") == 0
    assert run("annotate", "--dataset", shuffled, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "weights.csv").read_bytes() == (
        tmp_path / "b" / "weights.csv").read_bytes()

    def labels(out):
        return {r["post_id"]: r["label"] for r in read_tokens(out / "labeled.jsonl")}

    assert labels(tmp_path / "a") == labels(tmp_path / "b")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("fractions", [
    # used to print only the bare float() message
    "a,b,c,d",
    # NaN used to pass the positivity and sum checks and end in NumPy's
    # "Quantiles must be in the range [0, 1]"
    "nan,0.2,0.3,0.5",
    "0.6,-0.1,0.3,0.2",
    "0.5,0.5",
    # these used to exit 1 with weaklabel's "target_fractions must sum to 1"
    # or "... must be 4 positive reals", which name neither flag nor field
    "0.3,0.3,0.2,0.3",
    "0.5,0.5,0,0",
], ids=["not_a_number", "nan", "negative", "two_values", "sum_not_one", "zeros"])
def test_bad_fractions_exit_1(pipeline, tmp_path, capsys, fractions, via):
    if via == "flag":
        args = ("--fractions", fractions)
    else:
        config_params("annotate", {"fractions": fractions})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    out = tmp_path / "ann"
    assert run("annotate", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", out, *args) == 1
    assert capsys.readouterr().err == ("error: --fractions must be 4 positive numbers that "
                                       f"sum to 1, got {fractions}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("posts", [-2, 0])
def test_synth_posts_below_one_exits_1(tmp_path, capsys, posts, via):
    # used to exit 1 with synth's "n_posts must be >= 1"
    if via == "flag":
        args = ("--posts", posts)
    else:
        config_params("synth", {"posts": posts})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    out = tmp_path / "synth"
    assert run("synth", "--out", out, *args) == 1
    assert capsys.readouterr().err == f"error: --posts must be >= 1, got {posts}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("cmd", ["synth", "train", "ablate"])
def test_seed_outside_64_bits_exits_1(pipeline, tmp_path, capsys, cmd, seed, via):
    # seeds are masked to 64 bits: synth --seed -1 used to write the corpus of
    # seed 2**64 - 1, and train recorded 2**64 in run.json but ran seed 0
    if via == "flag":
        args = ("--seed", seed)
    else:
        config_params(cmd, {"seed": seed})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    inputs = () if cmd == "synth" else ("--dataset", pipeline / "prep" / "tokens.jsonl",
                                        "--epochs", 1)
    out = tmp_path / "o"
    assert run(cmd, *inputs, "--out", out, *args) == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"
    assert list(out.iterdir()) == []


def test_importing_the_cli_starts_no_pool_machinery():
    # predict, fit and ablate import these lazily, since a module-level
    # import would slow every risknet start
    child = ("import risknet.cli, sys; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    src = [str(Path(risknet.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# SHA-256 of the text chain's outputs: `synth --posts 200 --seed 7`, then
# `preprocess`, `annotate` and `report-ngrams` with their defaults, and the
# vocabulary of a small `train` run
TEXT_CHAIN_DIGESTS = {
    "prep/tokens.jsonl": "a4e229e43ed5ac2f795d38bb66bda270470db49db10075a0a4c33486c602bc61",
    "ann/labeled.jsonl": "75c7041d3f3dcf0d0ddddad4c1d7983d6e98f17426d741f0c20f491a9be64ce7",
    "ann/weights.csv": "9e1c3558b2c63c03572b12bd7b71cb2d6709d511b6cc2e1c2e5dfe679b759793",
    "ng/ngrams.csv": "fde9533d45a581165901d6ed347726cc9f9e413ec4912fa89d47403a4eba950c",
    "train/vocab.csv": "b6e50c8f642bccc0f852659fca8bf8114cbee2638055a5388c86a2324331fe5a",
}


def test_text_chain_outputs_are_pinned(tmp_path):
    assert run("synth", "--posts", 200, "--seed", 7, "--out", tmp_path / "s") == 0
    tokens = tmp_path / "prep" / "tokens.jsonl"
    assert run("preprocess", "--dataset", tmp_path / "s" / "posts.csv",
               "--out", tmp_path / "prep") == 0
    assert run("annotate", "--dataset", tokens, "--out", tmp_path / "ann") == 0
    assert run("report-ngrams", "--dataset", tokens, "--out", tmp_path / "ng") == 0
    assert run("train", "--dataset", tokens, "--out", tmp_path / "train", "--epochs", 1,
               "--embed-dim", 8, "--lstm-units", 4, "--max-len", 16) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TEXT_CHAIN_DIGESTS}
    assert got == TEXT_CHAIN_DIGESTS


def test_report_ngrams_csv(pipeline, tmp_path):
    out = tmp_path / "ng"
    assert run("report-ngrams", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", out, "--top", 10) == 0
    with (out / "ngrams.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["class"] for r in rows} == {"0", "1", "2", "3"}
    assert {r["n"] for r in rows} == {"1", "2", "3"}
    for key, group in _group_by(rows, lambda r: (r["class"], r["n"])).items():
        ranks = [int(r["rank"]) for r in group]
        assert ranks == list(range(1, len(ranks) + 1)), key
        counts = [int(r["count"]) for r in group]
        assert counts == sorted(counts, reverse=True), key


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("top", [-1, 0])
def test_report_ngrams_top_below_one_exits_1(pipeline, tmp_path, capsys, top, via):
    # --top -1 used to list every n-gram but the last, and --top 0 a header only
    if via == "flag":
        args = ("--top", top)
    else:
        config_params("report-ngrams", {"top": top})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    out = tmp_path / "ng"
    assert run("report-ngrams", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", out, *args) == 1
    assert capsys.readouterr().err == f"error: --top must be >= 1, got {top}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("top_k", [-3, 0])
def test_annotate_top_k_below_one_exits_1(pipeline, tmp_path, capsys, top_k, via):
    # used to exit 1 with "k must be >= 1", which names neither flag nor field
    if via == "flag":
        args = ("--top-k", top_k)
    else:
        config_params("annotate", {"top_k": top_k})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    out = tmp_path / "ann"
    assert run("annotate", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", out, *args) == 1
    assert capsys.readouterr().err == f"error: --top-k must be >= 1, got {top_k}\n"
    assert list(out.iterdir()) == []


def _group_by(rows, key):
    out = {}
    for r in rows:
        out.setdefault(key(r), []).append(r)
    return out


# ------------------------------------------------------------------- train


def test_train_outputs(pipeline):
    tdir = pipeline / "train"
    for name in ("model.rkn", "history.csv", "vocab.csv", "test.jsonl", "run.json"):
        assert (tdir / name).exists(), name
    lines = (tdir / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert len(lines) == 3  # 2 epochs
    doc = read_json(tdir / "run.json")
    assert doc["command"] == "train"
    assert doc["params"]["max_len"] == 24


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython < 3.11 holds call arguments until return")
def test_train_frees_the_initial_embedding_before_the_first_update(pipeline, tmp_path,
                                                                   monkeypatch):
    refs = []
    real_init = embed.init_embeddings

    def spy_init(*args, **kwargs):
        matrix = real_init(*args, **kwargs)
        refs.append(weakref.ref(matrix.matrix))
        return matrix

    alive = []
    real_step = Adam.step

    def spy_step(self, named_params, grads):
        alive.append(refs[0]() is not None)
        real_step(self, named_params, grads)

    monkeypatch.setattr(embed, "init_embeddings", spy_init)
    monkeypatch.setattr(Adam, "step", spy_step)
    code = run("train", "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", tmp_path / "t", "--epochs", 1, "--embed-dim", 12,
               "--lstm-units", 6, "--max-len", 24, "--seed", 7)
    assert code == 0
    assert len(refs) == 1 and alive and not any(alive)


def test_train_writes_the_test_shard_before_fit(pipeline, tmp_path, monkeypatch):
    # so that fit runs without the test shard's token strings
    out = tmp_path / "t"
    seen = []
    real_fit = risknet.train.fit

    def spy_fit(*args, **kwargs):
        seen.append((out / "test.jsonl").read_bytes())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(risknet.train, "fit", spy_fit)
    assert run("train", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
               "--config", pipeline / "train" / "run.json") == 0
    assert seen == [(pipeline / "train" / "test.jsonl").read_bytes()]
    for name in ("model.rkn", "history.csv", "vocab.csv", "test.jsonl"):
        assert (out / name).read_bytes() == (pipeline / "train" / name).read_bytes(), name


@pytest.mark.parametrize("error", [FloatingPointError, KeyboardInterrupt])
def test_train_removes_the_test_shard_if_fit_fails(pipeline, tmp_path, monkeypatch, error):
    out = tmp_path / "t"
    seen = []

    def failing_fit(*args, **kwargs):
        seen.append(sorted(p.name for p in out.iterdir()))
        raise error("fit failed")

    monkeypatch.setattr(risknet.train, "fit", failing_fit)
    args = ("train", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run(*args)
    else:
        assert run(*args) == 2
    assert seen == [["test.jsonl"]]
    assert list(out.iterdir()) == []  # what a failed fit left before the shard came first


def test_train_then_evaluate(pipeline, tmp_path):
    out = tmp_path / "eval"
    code = run("evaluate", "--model", pipeline / "train" / "model.rkn",
               "--dataset", pipeline / "train" / "test.jsonl", "--out", out)
    assert code == 0
    m = read_json(out / "metrics.json")
    assert len(m["confusion"]) == 4 and all(len(r) == 4 for r in m["confusion"])
    assert 0.0 <= m["accuracy"] <= 1.0
    n_test = len(read_tokens(pipeline / "train" / "test.jsonl"))
    assert sum(map(sum, m["confusion"])) == n_test


def test_predict_per_post_and_user_summary(pipeline, tmp_path):
    # fixture: one user with 3 posts whose labels the summary must max over
    tokens_path = tmp_path / "tokens.jsonl"
    rows = read_tokens(pipeline / "prep" / "tokens.jsonl")[:6]
    for i, r in enumerate(rows):
        r["user_id"] = "u_triple" if i < 3 else f"u_single{i}"
        r["label"] = None
    write_tokens(rows, tokens_path)
    out = tmp_path / "pred"
    assert run("predict", "--model", pipeline / "train" / "model.rkn",
               "--dataset", tokens_path, "--out", out) == 0
    with (out / "predictions.csv").open() as fh:
        preds = list(csv.DictReader(fh))
    assert len(preds) == 6
    triple = [int(r["label"]) for r in preds if r["user_id"] == "u_triple"]
    assert len(triple) == 3
    with (out / "users.csv").open() as fh:
        users = {r["user_id"]: int(r["label"]) for r in csv.DictReader(fh)}
    assert len(users) == 4
    assert users["u_triple"] == max(triple)  # max-risk aggregation
    assert list(users) == sorted(users)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_predict_outputs_do_not_depend_on_the_cpu_count(pipeline, tmp_path):
    # the pinned child has one usable CPU, so it scores every chunk on its
    # calling thread; this process scores them on two threads or more
    args = ["--model", pipeline / "train" / "model.rkn",
            "--dataset", pipeline / "prep" / "tokens.jsonl"]
    assert len(read_tokens(pipeline / "prep" / "tokens.jsonl")) > PREDICT_BATCH
    assert run("predict", *args, "--out", tmp_path / "all") == 0
    cpu = min(os.sched_getaffinity(0))
    child = ("import os, sys; from risknet.cli import main; "
             f"os.sched_setaffinity(0, {{{cpu}}}); sys.exit(main(sys.argv[1:]))")
    src = [str(Path(risknet.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
    done = subprocess.run([sys.executable, "-c", child, "predict", *map(str, args),
                           "--out", str(tmp_path / "one")], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    for name in ("predictions.csv", "users.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_evaluate_requires_labels(pipeline, tmp_path):
    rows = read_tokens(pipeline / "prep" / "tokens.jsonl")[:4]
    for r in rows:
        r["label"] = None
    unlabeled = tmp_path / "u.jsonl"
    write_tokens(rows, unlabeled)
    assert run("evaluate", "--model", pipeline / "train" / "model.rkn",
               "--dataset", unlabeled, "--out", tmp_path / "o") == 1


@pytest.mark.parametrize("block", [7, cli.ENCODE_BLOCK])
def test_load_and_encode_streams_what_read_tokens_reads(pipeline, monkeypatch, block):
    # 7 rows per block leaves a short last block
    monkeypatch.setattr(cli, "ENCODE_BLOCK", block)
    dataset = pipeline / "prep" / "tokens.jsonl"
    params = {"model": pipeline / "train" / "model.rkn", "dataset": dataset}
    model, rows, X = cli._load_and_encode(params, require_labels=False)
    records = read_tokens(dataset)
    assert len(records) % 7 != 0
    _, vocab = load_model(params["model"])
    want = embed.encode_batch([r["tokens"] for r in records], vocab, model.cfg.max_len)
    assert X.dtype == want.dtype and X.flags.c_contiguous
    assert np.array_equal(X, want)
    # the rows keep no tokens
    assert rows == [{k: r[k] for k in ("post_id", "user_id", "label")} for r in records]


def test_evaluate_counts_unlabeled_records_over_the_whole_file(pipeline, tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(cli, "ENCODE_BLOCK", 3)
    rows = read_tokens(pipeline / "prep" / "tokens.jsonl")[:10]
    for k in (1, 4, 9):  # in the first, second and last block
        rows[k]["label"] = None
    path = tmp_path / "u.jsonl"
    write_tokens(rows, path)
    assert run("evaluate", "--model", pipeline / "train" / "model.rkn",
               "--dataset", path, "--out", tmp_path / "o") == 1
    assert f"error: {path}: 3 records have no label" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["evaluate", "predict"])
def test_malformed_record_after_an_unlabeled_one_is_named_first(pipeline, tmp_path, capsys,
                                                               cmd):
    path = tmp_path / "bad.jsonl"
    second = dict(_GOOD_RECORD, post_id="p2")
    path.write_text(json.dumps(_GOOD_RECORD) + "\n" + json.dumps(second) + "\n5\n",
                    encoding="utf-8")
    assert run(cmd, "--model", pipeline / "train" / "model.rkn",
               "--dataset", path, "--out", tmp_path / "o") == 1
    assert f"error: {path}: line 3: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank_lines"])
@pytest.mark.parametrize("cmd", ["evaluate", "predict"])
def test_scoring_a_file_without_records_exits_1(pipeline, tmp_path, capsys, cmd, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text, encoding="utf-8")
    assert run(cmd, "--model", pipeline / "train" / "model.rkn",
               "--dataset", path, "--out", tmp_path / "o") == 1
    assert f"error: {path}: no records" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


# ------------------------------------------------------------------ ablate


def test_ablate_writes_five_rows(pipeline, tmp_path):
    out = tmp_path / "abl"
    code = run("ablate", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
               "--epochs", 1, "--embed-dim", 8, "--lstm-units", 4,
               "--max-len", 16, "--seed", 7, "--dropout", 0.0)
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "model,accuracy,precision,recall,f1"
    assert [l.split(",")[0] for l in lines[1:6]] == [
        "svm", "cnn", "lstm", "lstm_cnn", "lstm_attention_cnn"]
    assert lines[6].startswith("# reference lstm_attention_cnn")


def test_ablate_csv_is_byte_identical_for_one_or_two_usable_cpus(pipeline, tmp_path, monkeypatch):
    csvs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        out = tmp_path / f"cpus{len(cpus)}"
        assert run("ablate", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
                   *ABLATE_FLAGS) == 0
        csvs.append((out / "ablation.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("cmd", ["train", "ablate"])
def test_min_count_below_one_exits_1_before_writing(pipeline, tmp_path, capsys, cmd, value):
    # used to exit 0 with the --min-count 1 vocabulary and record the value
    out = tmp_path / "o"
    assert run(cmd, "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
               *ABLATE_FLAGS, "--min-count", value) == 1
    assert capsys.readouterr().err == f"error: --min-count must be >= 1, got {value}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", [1.5, 0.0])
@pytest.mark.parametrize("cmd", ["train", "ablate"])
def test_train_fraction_outside_unit_interval_exits_1(pipeline, tmp_path, capsys, cmd, value,
                                                       via):
    # used to exit 1 with "fraction must be in (0, 1)", which names neither
    # flag nor field
    if via == "flag":
        args = ("--train-fraction", value)
    else:
        config_params(cmd, {"train_fraction": value})(tmp_path / "run.json")
        args = ("--config", tmp_path / "run.json")
    out = tmp_path / "o"
    assert run(cmd, "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
               *ABLATE_FLAGS, *args) == 1
    assert capsys.readouterr().err == (
        f"error: --train-fraction must be in (0, 1), got {value}\n")
    assert list(out.iterdir()) == []


def test_ablate_train_shard_without_a_class_exits_1(pipeline, tmp_path, capsys):
    rows = [r for r in read_tokens(pipeline / "prep" / "tokens.jsonl") if r["label"] != 3]
    write_tokens(rows, tmp_path / "no3.jsonl")
    assert run("ablate", "--dataset", tmp_path / "no3.jsonl", "--out", tmp_path / "o",
               *ABLATE_FLAGS) == 1
    assert capsys.readouterr().err == "error: class 3 has no training examples\n"


@pytest.mark.parametrize("cmd", ["train", "ablate"])
@pytest.mark.parametrize("flags", [(), ("--max-len", 8), ("--embeddings", "{emb}", "--max-len", 8)],
                         ids=["defaults", "max_len", "embeddings"])
def test_empty_train_shard_exits_1_naming_it(tmp_path, capsys, cmd, flags):
    # used to end in "training shard has no tokens", "empty vocabulary" or
    # fit's own "empty training set", depending on the flags
    rows = [{"post_id": f"p{i}", "user_id": "u", "label": i, "tokens": ["a", "b"]}
            for i in range(2)]
    write_tokens(rows, tmp_path / "two.jsonl")
    (tmp_path / "emb.txt").write_text("2 3\na 0.1 0.2 0.3\nb 0.4 0.5 0.6\n", encoding="utf-8")
    flags = [str(f).format(emb=tmp_path / "emb.txt") for f in flags]
    out = tmp_path / "o"
    assert run(cmd, "--dataset", tmp_path / "two.jsonl", "--out", out,
               "--train-fraction", 0.1, *flags) == 1
    assert capsys.readouterr().err == (
        "error: empty training set: --train-fraction 0.1 of 2 posts puts none in the "
        "train shard\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text,problem", [
    ("2 2\nfoo 0.1 0.2\nfoo 0.3 0.4\n", "line 3: duplicate token 'foo' (first seen on line 2)"),
    ("1 2\nfoo nan 0.2\n", "line 2: non-finite vector entry"),
    # used to print NumPy's cast overflow warning, then an error naming no file
    ("1 2\nfoo 1e300 0.1\n", "line 2: vector entry beyond the float32 range (3.4028235e+38)"),
], ids=["duplicate", "non_finite", "beyond_float32"])
def test_embedding_file_error_names_the_file(tmp_path, capsys, text, problem):
    # it used to name the line alone, unlike every other reader's errors
    write_tokens([{"post_id": f"p{i}", "user_id": "u", "label": i, "tokens": ["foo"]}
                  for i in range(4)], tmp_path / "four.jsonl")
    emb = tmp_path / "emb.txt"
    emb.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--dataset", tmp_path / "four.jsonl", "--out", tmp_path / "o",
                   "--embeddings", emb) == 1
    assert [str(w.message) for w in caught] == []  # nothing else reaches stderr
    assert capsys.readouterr().err == f"error: {emb}: {problem}\n"


def test_train_is_byte_identical_for_one_or_two_usable_cpus(tmp_path, monkeypatch):
    # above the helper's size gate: 32 x 128 x 64 dropout masks and LSTM
    # inputs, and an embedding of more than 4,100 x 64; 72 posts make a
    # train shard of 57, so every epoch ends in a short batch of 25
    rows = [{"post_id": f"p{i}", "user_id": f"u{i % 9}", "label": i % 4,
             "tokens": [f"w{i * 128 + j}" for j in range(128)]} for i in range(72)]
    write_tokens(rows, tmp_path / "big.jsonl")
    outs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        out = tmp_path / f"cpus{len(cpus)}"
        assert run("train", "--dataset", tmp_path / "big.jsonl", "--out", out, "--epochs", 2,
                   "--embed-dim", 64, "--lstm-units", 8, "--max-len", 128, "--seed", 5) == 0
        outs.append([(out / name).read_bytes() for name in ("model.rkn", "history.csv")])
    assert outs[0] == outs[1]


def test_ablate_numerics_error_in_a_worker_exits_2(pipeline, tmp_path, monkeypatch, capsys):
    # an infinite learning rate, sent with the config, makes every neural
    # fit's parameters non-finite inside its worker
    suite = baselines.ablation_suite
    monkeypatch.setattr(baselines, "ablation_suite", lambda cfg, *a: suite(
        dataclasses.replace(cfg, adam=AdamHyper(lr=math.inf)), *a))
    assert run("ablate", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", tmp_path / "o",
               *ABLATE_FLAGS) == 2
    assert capsys.readouterr().err == (
        "runtime error: NumericsError: cnn: epoch 1, step 1, batch 1: "
        "non-finite values after layer 'embedding'\n")


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_1():
    assert run("explode") == 1


def test_unknown_flag_exits_1(tmp_path):
    assert run("synth", "--posts", 5, "--out", tmp_path, "--warp", 9) == 1


@pytest.mark.parametrize("cmd", ["train", "ablate"])
def test_dtype_flag_is_gone(tmp_path, capsys, cmd):
    # model.rkn stores float32 tensors, so a float64 model did not survive its file
    assert run(cmd, "--dataset", tmp_path / "unread.jsonl", "--out", tmp_path / "o",
               "--dtype", "float64") == 1
    assert "--dtype" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_required_flag_exits_1():
    assert run("synth", "--posts", 5) == 1


def test_validation_error_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"post_id": "p", "user_id": "u"}\n', encoding="utf-8")
    assert run("annotate", "--dataset", bad, "--out", tmp_path / "o") == 1


def test_empty_token_file_exits_1(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run("annotate", "--dataset", empty, "--out", tmp_path / "o") == 1


_GOOD_RECORD = {"post_id": "p1", "user_id": "u1", "label": None, "tokens": ["feel", "fine"]}


@pytest.mark.parametrize("bad_line,message", [
    # a string used to be encoded character by character, with exit 0
    (json.dumps(dict(_GOOD_RECORD, tokens="hello world")), "'tokens' must be a list of strings"),
    (json.dumps(dict(_GOOD_RECORD, tokens=[1, 2, 3])), "'tokens' must be a list of strings"),
    # a float label used to be truncated to an int
    (json.dumps(dict(_GOOD_RECORD, label=2.7)), "'label' must be null or an integer, got 2.7"),
    (json.dumps(dict(_GOOD_RECORD, label="x")), "'label' must be null or an integer, got \"x\""),
    (json.dumps(dict(_GOOD_RECORD, label=True)), "'label' must be null or an integer, got true"),
    # a bare JSON value or a list user_id used to end in a TypeError and exit 2
    ("5", "expected a JSON object"),
    (json.dumps(dict(_GOOD_RECORD, user_id=["u", 1])), "'user_id' must be a string"),
    # an empty list used to be encoded as all padding and labeled, with exit 0
    (json.dumps(dict(_GOOD_RECORD, tokens=[])), "'tokens' must not be empty"),
], ids=["tokens_string", "tokens_ints", "label_float", "label_string", "label_bool",
        "not_an_object", "user_id_list", "tokens_empty"])
def test_malformed_token_record_exits_1_naming_file_and_line(pipeline, tmp_path, capsys,
                                                             bad_line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD_RECORD) + "\n" + bad_line + "\n", encoding="utf-8")
    assert run("predict", "--model", pipeline / "train" / "model.rkn",
               "--dataset", path, "--out", tmp_path / "pred") == 1
    assert f"{path}: line 2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


@pytest.mark.parametrize("cmd", ["train", "annotate", "evaluate", "predict"])
def test_repeated_post_id_exits_1_naming_both_lines(pipeline, tmp_path, capsys, cmd):
    # predict used to write a row per record, six for three records read
    # twice, and train could put one post in both shards
    lines = (pipeline / "prep" / "tokens.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    path = tmp_path / "twice.jsonl"
    path.write_text("\n".join(lines + lines) + "\n", encoding="utf-8")
    post_id = json.loads(lines[0])["post_id"]
    flags = {"train": ABLATE_FLAGS, "annotate": (),
             "evaluate": ("--model", pipeline / "train" / "model.rkn"),
             "predict": ("--model", pipeline / "train" / "model.rkn")}[cmd]
    assert run(cmd, "--dataset", path, *flags, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 4: duplicate post_id '{post_id}' (first seen at line 1)\n")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("cmd", ["train", "annotate", "predict"])
def test_empty_post_id_exits_1_naming_the_line(pipeline, tmp_path, capsys, cmd):
    # used to be read, and predict wrote an empty id cell to predictions.csv
    lines = (pipeline / "prep" / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps(dict(json.loads(lines[2]), post_id=""))
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = {"train": ABLATE_FLAGS, "annotate": (),
             "predict": ("--model", pipeline / "train" / "model.rkn")}[cmd]
    assert run(cmd, "--dataset", path, *flags, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: empty post_id\n"
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("cmd", ["train", "annotate", "predict"])
def test_empty_user_id_exits_1_naming_the_line(pipeline, tmp_path, capsys, cmd):
    # used to be read, and predict wrote a `,0` row to users.csv
    lines = (pipeline / "prep" / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps(dict(json.loads(lines[2]), user_id=""))
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = {"train": ABLATE_FLAGS, "annotate": (),
             "predict": ("--model", pipeline / "train" / "model.rkn")}[cmd]
    assert run(cmd, "--dataset", path, *flags, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: empty user_id\n"
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_preprocess_empty_user_id_exits_1_naming_the_line(tmp_path, capsys, fmt):
    # used to write `"user_id": ""` to tokens.jsonl
    fields = ("post_id", "user_id", "timestamp", "subreddit", "post_title", "post_body",
              "label")
    records = [("p1", "u1", 1, "s", "feeling lost", "", 1), ("p2", "", 2, "s", "calm day", "", 0)]
    posts = tmp_path / f"posts.{fmt}"
    if fmt == "csv":
        text = "".join(",".join(map(str, r)) + "\n" for r in [fields, *records])
    else:
        text = "".join(json.dumps(dict(zip(fields, r))) + "\n" for r in records)
    posts.write_text(text, encoding="utf-8")
    assert run("preprocess", "--dataset", posts, "--out", tmp_path / "p") == 1
    line = 3 if fmt == "csv" else 2  # the CSV header is line 1
    assert capsys.readouterr().err == f"error: {posts}: line {line}: empty user_id\n"
    assert list((tmp_path / "p").iterdir()) == []


@pytest.mark.parametrize("token", ["", "a b", "a\tb"], ids=["empty", "space", "tab"])
@pytest.mark.parametrize("cmd", ["train", "annotate", "predict"])
def test_token_a_join_and_split_would_change_exits_1(pipeline, tmp_path, capsys, cmd, token):
    # each used to exit 0: the vocabulary and the n-grams saw "a b" as two
    # words, while encoding looked it up whole and mapped it to UNK
    lines = (pipeline / "prep" / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[2])
    row["tokens"].insert(1, token)
    lines[2] = json.dumps(row)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = {"train": ABLATE_FLAGS, "annotate": (),
             "predict": ("--model", pipeline / "train" / "model.rkn")}[cmd]
    assert run(cmd, "--dataset", path, *flags, "--out", tmp_path / "o") == 1
    assert (f"{path}: line 3: each token must be non-empty and contain no whitespace"
            in capsys.readouterr().err)
    assert list((tmp_path / "o").iterdir()) == []


def _rewrite_manifest(src, dst, mutate):
    """Copy a model file; `mutate(manifest, blob)` edits the manifest dict and
    the blob bytearray in place.  The CRC trailer is resealed over the edited
    manifest and the blob as it was, so a manifest edit reaches the loader's
    own check for it and a blob edit fails the checksum."""
    data = src.read_bytes()
    mlen = int.from_bytes(data[:4], "little")
    manifest = json.loads(data[4 : 4 + mlen])
    blob = bytearray(data[4 + mlen : -4])
    original = bytes(blob)
    mutate(manifest, blob)
    payload = json.dumps(manifest).encode()
    head = len(payload).to_bytes(4, "little") + payload
    crc = zlib.crc32(original, zlib.crc32(head))
    dst.write_bytes(head + blob + crc.to_bytes(4, "little"))


def _flip_last_byte(blob):
    blob[-1] ^= 0x01


@pytest.mark.parametrize("mutate,message", [
    # used to end in a TypeError, exit 2
    (lambda m, _: m.update(vocab=5), "'vocab' must be a list of strings"),
    (lambda m, _: m["config"].update(max_len=16.5), "max_len must be of type int"),
    (lambda m, _: m["config"].update(pool=True), "pool must be of type int"),
    # used to end in a ValueError, exit 2
    (lambda m, _: m["vocab"].__setitem__(1, m["vocab"][0]), "'vocab' repeats a token"),
    # used to load and predict, exit 0
    (lambda m, b: _flip_last_byte(b), "checksum mismatch"),
    (lambda m, _: m["config"].update(dropout_rate="x"), "dropout_rate must be of type float"),
    (lambda m, _: m["config"].update(seed="7"), "seed must be of type int"),
    (lambda m, _: m["config"].update(classes=3), "bad config (classes must be 4, got 3)"),
    (lambda m, _: m["config"].update(filters=5), "blob length mismatch: the config and"),
    (lambda m, _: m["config"].update(lstm_units=5), "blob length mismatch: the config and"),
    (lambda m, _: m["config"].update(kernel=3), "blob length mismatch: the config and"),
    # used to load and predict, exit 0
    (lambda m, _: m["config"].update(dropout_rate=1.0),
     "bad config (dropout_rate must be in [0, 1), got 1.0)"),
    # used to end in a ZeroDivisionError, exit 2
    (lambda m, _: m["config"].update(pool=0), "bad config (pool must be >= 1, got 0)"),
    # used to load and predict, exit 0, with a row that no token could reach
    *[(lambda m, _, t=token: m["vocab"].__setitem__(2, t),
       "'vocab': each token must be non-empty and contain no whitespace")
      for token in ("", " ", "a b", "\t")],
], ids=["vocab_number", "max_len_float", "pool_bool", "vocab_repeated", "blob_byte_flipped",
        "dropout_string", "seed_string", "classes_3", "filters_5", "lstm_units_5", "kernel_3",
        "dropout_1", "pool_0", "token_empty", "token_space", "token_two_words", "token_tab"])
def test_malformed_model_manifest_exits_1(pipeline, tmp_path, capsys, mutate, message):
    model = tmp_path / "model.rkn"
    _rewrite_manifest(pipeline / "train" / "model.rkn", model, mutate)
    assert run("predict", "--model", model, "--dataset", pipeline / "prep" / "tokens.jsonl",
               "--out", tmp_path / "pred") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


@pytest.mark.parametrize("cmd,dataset", [("predict", "prep/tokens.jsonl"),
                                         ("evaluate", "train/test.jsonl")])
def test_model_with_a_nan_weight_exits_1(pipeline, tmp_path, capsys, cmd, dataset):
    # used to end in "runtime error: NumericsError", exit 2
    data = bytearray((pipeline / "train" / "model.rkn").read_bytes())
    data[-8:-4] = struct.pack("<f", math.nan)  # the last dense.b entry, before the CRC
    data[-4:] = zlib.crc32(data[:-4]).to_bytes(4, "little")
    model = tmp_path / "model.rkn"
    model.write_bytes(data)
    assert run(cmd, "--model", model, "--dataset", pipeline / dataset,
               "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == (
        "error: corrupted model: non-finite values in tensor 'dense.b'\n")
    assert list((tmp_path / "o").iterdir()) == []


def test_evaluate_rejects_swapped_vocab_tokens(pipeline, tmp_path, capsys):
    # with the CRC over the blob only, swapping two tokens in the manifest
    # loaded, and evaluate exited 0 with a wrong accuracy
    data = (pipeline / "train" / "model.rkn").read_bytes()
    mlen = int.from_bytes(data[:4], "little")
    manifest = json.loads(data[4 : 4 + mlen])
    vocab = manifest["vocab"]
    vocab[0], vocab[1] = vocab[1], vocab[0]
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    assert len(payload) == mlen
    model = tmp_path / "model.rkn"
    model.write_bytes(data[:4] + payload + data[4 + mlen :])
    assert run("evaluate", "--model", model, "--dataset", pipeline / "train" / "test.jsonl",
               "--out", tmp_path / "eval") == 1
    assert "checksum mismatch" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_help_exits_0():
    assert run("--help") == 0


def test_train_flags_override_config(pipeline, tmp_path):
    # replay the training run but override the seed; models must differ
    out = tmp_path / "t2"
    code = run("train", "--dataset", pipeline / "prep" / "tokens.jsonl", "--out", out,
               "--config", pipeline / "train" / "run.json", "--seed", 8)
    assert code == 0
    doc = read_json(out / "run.json")
    assert doc["params"]["seed"] == 8
    assert doc["params"]["epochs"] == 2  # inherited from the config file
    a = (pipeline / "train" / "model.rkn").read_bytes()
    b = (out / "model.rkn").read_bytes()
    assert a != b


@pytest.mark.parametrize("flag,value,wording", [
    # each used to be found only once the dataset was read, split and encoded,
    # in a message that named the config field: "epochs must be >= 1", say
    ("--epochs", 0, "be >= 1"),
    ("--batch-size", 0, "be >= 1"),
    ("--max-len", 0, "be >= 1"),
    ("--embed-dim", 0, "be >= 1"),
    ("--embed-dim", -3, "be >= 1"),
    ("--lstm-units", 0, "be >= 1"),
    ("--lstm-units", -3, "be >= 1"),
    ("--filters", 0, "be >= 1"),
    ("--kernel", 0, "be >= 1"),
    ("--pool", 0, "be >= 1"),
    ("--dropout", 1.0, "be in [0, 1)"),
    ("--dropout", -0.5, "be in [0, 1)"),
    ("--dropout", math.nan, "be in [0, 1)"),
    # used to end in "max_len shorter than pool window", naming neither flag
    ("--max-len", 1, "be >= --pool (2)"),
], ids=["epochs_0", "batch_size_0", "max_len_0", "embed_dim_0", "embed_dim_neg",
        "lstm_units_0", "lstm_units_neg", "filters_0", "kernel_0", "pool_0", "dropout_1",
        "dropout_neg", "dropout_nan", "max_len_below_pool"])
@pytest.mark.parametrize("cmd", ["train", "ablate"])
def test_fit_flag_out_of_range_exits_1_before_reading(tmp_path, capsys, cmd, flag, value,
                                                      wording):
    # the first record is malformed, so a check made after reading would name it
    dataset = tmp_path / "tokens.jsonl"
    dataset.write_text('{"post_id": "p1"}\n', encoding="utf-8")
    out = tmp_path / "o"
    assert run(cmd, "--dataset", dataset, "--out", out, *ABLATE_FLAGS, flag, value) == 1
    assert capsys.readouterr().err == f"error: {flag} must {wording}, got {value}\n"
    assert list(out.iterdir()) == []
