"""Batch command line: synth, preprocess, annotate, report-ngrams, train,
evaluate, predict, ablate.

Every subcommand writes `run.json` with its effective parameters into the
output directory; `--config run.json` replays those parameters (explicit
flags still win).  Exit codes: 0 success, 1 validation error, 2 runtime
error.  Timestamps are never written, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import baselines, corpus, embed, modelio, synth, textprep, train, weaklabel
from .corpus import RiskLabel
from .model import VARIANTS, ModelConfig

MAX_LEN_CAP = 512
# token lists that predict and evaluate hold before encoding them
ENCODE_BLOCK = 256
# previously reported full-model results (percent), written as a non-binding
# footer under the ablation table
REFERENCE_FULL_MODEL = (90.3, 91.6, 93.7, 92.6)


class UsageError(ValueError):
    pass


# ----------------------------------------------------------- token file io


def write_tokens(docs: Sequence[dict], path: Path) -> None:
    """JSONL rows: post_id, user_id, label (nullable), tokens."""
    with path.open("w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(
                {"post_id": d["post_id"], "user_id": d["user_id"],
                 "label": d["label"], "tokens": d["tokens"]},
                ensure_ascii=False) + "\n")


def read_tokens(path: Path) -> list[dict]:
    """Parse a JSONL token file; a malformed record raises UsageError naming its line."""
    return list(iter_tokens(path))


def iter_tokens(path: Path) -> Iterator[dict]:
    """The records of a JSONL token file, checked and yielded one at a time;
    a record that breaks one of `corpus`'s record rules, or whose `tokens` is
    not a non-empty list of words, raises UsageError naming its line, and a
    file with no records raises once it has been read to the end.  Only the
    ids of the records read so far are kept."""
    first_line: dict[str, int] = {}  # post_id -> the line of its record
    with path.open("r", encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = corpus.parse_json_object(line)
                corpus.require_fields(row, ("post_id", "user_id", "label", "tokens"))
                corpus.check_ids(row)
                corpus.check_label(row["label"])
                tokens = row["tokens"]
                try:
                    if not isinstance(tokens, list):  # a str would join character by character
                        raise TypeError
                    corpus.check_words(tokens)
                except TypeError:
                    raise ValueError("'tokens' must be a list of strings") from None
                if not tokens:
                    raise ValueError("'tokens' must not be empty")
                corpus.check_unique(row["post_id"], first_line, line_num)
            except ValueError as exc:
                raise UsageError(f"{path}: line {line_num}: {exc}") from None
            yield row
    if not first_line:
        raise UsageError(f"{path}: no records")


# ----------------------------------------------------------- artifact io
# Every CSV and JSON artifact but `posts.csv`, whose columns `corpus` pairs
# with its loader, is written by these two, in UTF-8 with LF line ends.
# Float cells are `repr`s, so a reread gives the same float.


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence],
               footer: str = "") -> None:
    """A header row, then `rows`, in the csv module's minimal quoting, then
    `footer` as it is."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.write(footer)


def _write_json(path: Path, doc: dict) -> None:
    """Indented by 2 with sorted keys, so reruns are byte-identical."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _labeled_rows(params: dict) -> list[dict]:
    """The `--dataset` token file, every record of which has a label."""
    rows = read_tokens(Path(params["dataset"]))
    _require_labels(params, sum(1 for d in rows if d["label"] is None))
    return rows


def _require_labels(params: dict, missing: int) -> None:
    if missing:
        raise UsageError(f"{params['dataset']}: {missing} records have no label")


# ------------------------------------------------------------- run configs


def _replay_config(sub: argparse.ArgumentParser, path: str, cmd: str) -> None:
    """Make the params of the run.json at `path`, written by `cmd`, the
    defaults of `sub`, so that explicit flags still win.  Keys that no flag
    of `sub` sets (such as `thresholds`) are ignored."""
    try:
        loaded = corpus.parse_json_object(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"--config {path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # not UTF-8, not JSON, or not an object
        raise UsageError(f"--config {path}: {exc}") from None
    if loaded.get("command") != cmd:
        raise UsageError(f"--config was written by '{loaded.get('command')}', not '{cmd}'")
    params = loaded.get("params", {})
    if not isinstance(params, dict):
        raise UsageError(f"--config {path}: 'params' must be a JSON object")
    flags = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    replayed = {}
    for key, value in params.items():
        flag = flags.get(key)
        if flag is None:
            continue
        if not _config_value_fits(value, flag):
            raise UsageError(f"--config {path}: bad value for '{key}': {json.dumps(value)}")
        replayed[key] = float(value) if flag.type is float else value
    sub.set_defaults(**replayed)


def _config_value_fits(value, flag: argparse.Action) -> bool:
    """A replayed value is one its flag takes: one of the flag's choices, or
    a JSON value of the flag's type (an int for a float is fine).  Null fits
    only a flag whose default is null and that may be left out."""
    if value is None:
        return flag.default is None and not flag.required
    if flag.choices is not None:
        return value in flag.choices
    want = flag.type or str
    return type(value) is want or (want is float and type(value) is int)


# ------------------------------------------------------------- subcommands
# Each takes the run's params and its output directory, may add resolved
# values to the params, and returns the stats for run.json, if any.


# dest -> (test, wording) for the numeric flags, checked in this order before
# a subcommand reads anything; a flag left null (`--max-len`) is not checked.
# Seeds are masked to 64 bits, so one outside [0, 2**64) would run as another
# seed while run.json records it as given.  `ModelConfig` and `TrainConfig`
# check their fields again for library callers and model files.
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_FLAG_BOUNDS = {
    "seed": (lambda v: 0 <= v < 2**64, "be in [0, 2**64)"),
    "posts": _AT_LEAST_1,
    "top_k": _AT_LEAST_1,
    "top": _AT_LEAST_1,
    "min_count": _AT_LEAST_1,
    "train_fraction": (lambda v: 0.0 < v < 1.0, "be in (0, 1)"),
    **dict.fromkeys(("epochs", "batch_size", "max_len", "embed_dim", "lstm_units", "filters",
                     "kernel", "pool"), _AT_LEAST_1),
    "dropout_rate": (lambda v: 0.0 <= v < 1.0, "be in [0, 1)"),
}


def _check_bounds(params: dict, sub: argparse.ArgumentParser) -> None:
    """Raise UsageError for the first param outside its `_FLAG_BOUNDS` range,
    naming its flag as typed (`--dropout` for `dropout_rate`)."""
    flags = {a.dest: a.option_strings[0] for a in sub._actions if a.option_strings}
    for dest, (ok, wording) in _FLAG_BOUNDS.items():
        if params.get(dest) is not None and not ok(params[dest]):
            raise UsageError(f"{flags[dest]} must {wording}, got {params[dest]}")
    # the pool's first window must fit in a post
    if params.get("max_len") is not None and params["max_len"] < params["pool"]:
        raise UsageError(f"--max-len must be >= --pool ({params['pool']}), "
                         f"got {params['max_len']}")


def _cmd_synth(params: dict, out: Path) -> None:
    posts = synth.generate_corpus(params["posts"], params["seed"])
    corpus.save_posts(out / "posts.csv", posts)


def _cmd_preprocess(params: dict, out: Path) -> dict:
    posts = corpus.load_posts(params["dataset"], format=params["format"])
    rows = []
    seen: set[str] = set()  # cleaned texts kept so far; the first post of each wins
    dropped_empty = dropped_duplicate = 0
    for p in posts:
        text = textprep.clean(corpus.merge_title_body(p))
        if not text:  # every empty text counts as empty, never as a duplicate
            dropped_empty += 1
        elif text in seen:
            dropped_duplicate += 1
        else:
            seen.add(text)
            tokens = textprep.content_tokens(text)
            if tokens:  # a post of stop words only has none left
                rows.append({"post_id": p.post_id, "user_id": p.user_id,
                             "label": None if p.label is None else int(p.label),
                             "tokens": tokens})
            else:
                dropped_empty += 1
    write_tokens(rows, out / "tokens.jsonl")
    return {"posts_read": len(posts), "dropped_empty": dropped_empty,
            "dropped_duplicate": dropped_duplicate}


def _cmd_annotate(params: dict, out: Path) -> None:
    fractions = weaklabel.DEFAULT_TARGET_FRACTIONS
    if params["fractions"] is not None:
        try:
            given = [float(x) for x in params["fractions"].split(",")]
            fractions = weaklabel.check_fractions(given)
        except ValueError:
            raise UsageError("--fractions must be 4 positive numbers that sum to 1, "
                             f"got {params['fractions']}") from None
    rows = _labeled_rows(params)
    result = weaklabel.weak_label_documents(
        [r["tokens"] for r in rows], [r["label"] for r in rows],
        top_k=params["top_k"], target_fractions=fractions)
    for row, label in zip(rows, result.labels):
        row["label"] = int(label)
    write_tokens(rows, out / "labeled.jsonl")
    _write_csv(out / "weights.csv", ["ngram", "weight"],
               ([gram, repr(weight)] for gram, weight in sorted(result.weights.items())))
    t = result.thresholds
    params["thresholds"] = [t.t1, t.t2, t.t3]


def _cmd_report_ngrams(params: dict, out: Path) -> None:
    rows = _labeled_rows(params)
    token_lists, labels = [r["tokens"] for r in rows], [r["label"] for r in rows]
    ranks = []
    for n in weaklabel.NGRAM_SIZES:
        table = weaklabel.count_ngrams(token_lists, labels, n)
        for cls in RiskLabel:
            ranked = weaklabel.top_terms_for_class(table, cls, params["top"])
            ranks += ([int(cls), n, gram, count, rank]
                      for rank, (gram, count) in enumerate(ranked, start=1))
    _write_csv(out / "ngrams.csv", ["class", "n", "ngram", "count", "rank"], ranks)


def _prepare_fit(params: dict, variant: str) -> tuple[dict, train.TrainConfig]:
    """Split, build vocab/embeddings from the train shard, encode both shards,
    and put the resolved `max_len` and `embed_dim` into `params`.

    The data is a dict, so that `train` can pop the embedding matrix and
    hand `fit` the only reference to it."""
    rows = _labeled_rows(params)
    train_idx, test_idx = train.split_indices(len(rows), params["train_fraction"], params["seed"])
    if train_idx.size == 0:
        raise UsageError(f"empty training set: --train-fraction {params['train_fraction']} of "
                         f"{len(rows)} posts puts none in the train shard")
    train_rows = [rows[i] for i in train_idx]
    test_rows = [rows[i] for i in test_idx]
    if params["embeddings"] is not None:
        vocab, matrix = embed.load_embeddings(params["embeddings"], seed=params["seed"])
        params["embed_dim"] = matrix.dim
    else:
        vocab = embed.build_vocab([r["tokens"] for r in train_rows], params["min_count"])
        matrix = None
    if params["max_len"] is None:
        longest = max((len(r["tokens"]) for r in train_rows), default=0)
        if longest == 0:
            raise UsageError("training shard has no tokens; pass --max-len explicitly")
        params["max_len"] = min(longest, MAX_LEN_CAP)
    mcfg = ModelConfig(
        max_len=params["max_len"], embed_dim=params["embed_dim"],
        lstm_units=params["lstm_units"], dropout_rate=params["dropout_rate"],
        filters=params["filters"], kernel=params["kernel"], pool=params["pool"],
        seed=params["seed"], variant=variant)
    if matrix is None:  # drawn once the config has checked embed_dim
        matrix = embed.init_embeddings(vocab, mcfg.embed_dim, params["seed"])
    tcfg = train.TrainConfig(model=mcfg, epochs=params["epochs"],
                             batch_size=params["batch_size"])
    enc = lambda rs: embed.encode_batch([r["tokens"] for r in rs], vocab, params["max_len"])
    y = lambda rs: np.array([r["label"] for r in rs], dtype=np.int64)
    data = {"test_rows": test_rows, "vocab": vocab, "matrix": matrix,
            "X_train": enc(train_rows), "y_train": y(train_rows),
            "X_test": enc(test_rows), "y_test": y(test_rows)}
    return data, tcfg


def _cmd_train(params: dict, out: Path) -> None:
    data, tcfg = _prepare_fit(params, params["variant"])
    log = lambda epoch, loss, acc: print(
        f"epoch {epoch}/{tcfg.epochs}: loss {loss:.4f} acc {acc:.4f}")
    # the test shard is written first, so that fit runs without its token
    # strings, and removed again if fit fails
    write_tokens(data.pop("test_rows"), out / "test.jsonl")
    try:
        # fit gets the only reference to the initial embedding, so the matrix
        # is freed once the model has its own copy
        model, history = train.fit(tcfg, data["X_train"], data["y_train"], data.pop("matrix"),
                                   on_epoch=log)
    except BaseException:
        (out / "test.jsonl").unlink()
        raise
    modelio.save_model(model, data["vocab"], out / "model.rkn")
    _write_csv(out / "history.csv", ["epoch", "loss", "accuracy"],
               ([epoch, repr(loss), repr(acc)] for epoch, (loss, acc)
                in enumerate(zip(history.loss, history.accuracy), start=1)))
    # the reserved rows, then the corpus tokens in index order
    tokens = sorted(data["vocab"].token_to_index.items(), key=lambda item: item[1])
    _write_csv(out / "vocab.csv", ["token", "index"],
               [[embed.PAD_TOKEN, embed.PAD_INDEX], [embed.UNK_TOKEN, embed.UNK_INDEX], *tokens])


def _load_and_encode(params: dict, require_labels: bool):
    """The `--model`, the `--dataset` rows without their tokens, and the
    rows' index matrix.  The records are encoded as they are read, so no more
    than `ENCODE_BLOCK` token lists are held at a time."""
    model, vocab = modelio.load_model(params["model"])
    max_len = model.cfg.max_len
    rows, blocks, pending = [], [], []
    for r in iter_tokens(Path(params["dataset"])):
        rows.append({"post_id": r["post_id"], "user_id": r["user_id"], "label": r["label"]})
        pending.append(r["tokens"])
        if len(pending) == ENCODE_BLOCK:
            blocks.append(embed.encode_batch(pending, vocab, max_len))
            pending = []
    if pending:
        blocks.append(embed.encode_batch(pending, vocab, max_len))
    if require_labels:
        _require_labels(params, sum(1 for r in rows if r["label"] is None))
    return model, rows, np.concatenate(blocks)


def _cmd_evaluate(params: dict, out: Path) -> None:
    model, rows, X = _load_and_encode(params, require_labels=True)
    y = np.array([r["label"] for r in rows], dtype=np.int64)
    _write_json(out / "metrics.json", train.evaluate(model, X, y).to_dict())


def _cmd_predict(params: dict, out: Path) -> None:
    model, rows, X = _load_and_encode(params, require_labels=False)
    preds = model.predict(X).tolist()
    _write_csv(out / "predictions.csv", ["post_id", "user_id", "label"],
               ([row["post_id"], row["user_id"], pred] for row, pred in zip(rows, preds)))
    per_user: dict[str, int] = {}
    for row, pred in zip(rows, preds):  # a user's label is the max risk over their posts
        per_user[row["user_id"]] = max(per_user.get(row["user_id"], -1), pred)
    _write_csv(out / "users.csv", ["user_id", "label"], sorted(per_user.items()))


def _cmd_ablate(params: dict, out: Path) -> None:
    data, tcfg = _prepare_fit(params, "lstm_attention_cnn")
    # every fit casts the initial embedding to the model dtype, so the suite,
    # and each worker it pickles it for, gets it cast once
    matrix = data.pop("matrix").matrix.astype(tcfg.model.np_dtype)
    rows = baselines.ablation_suite(tcfg, data["X_train"], data["y_train"], data["X_test"],
                                    data["y_test"], embed.EmbeddingMatrix(matrix))
    cols = ("accuracy", "precision", "recall", "f1")
    reference = ",".join(f"{k}={v}" for k, v in zip(cols, REFERENCE_FULL_MODEL))
    _write_csv(out / "ablation.csv", ["model", *cols],
               ([r["model"], *(f"{r[k]:.4f}" for k in cols)] for r in rows),
               footer="# reference lstm_attention_cnn (published benchmark, percent, "
                      f"non-binding): {reference}\n")


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _HelpFormatter(argparse.HelpFormatter):
    """Appends each flag's default to its help, unless the default is null."""

    def _get_help_string(self, action):
        if action.default is None or action.default is argparse.SUPPRESS:
            return action.help
        return f"{action.help} (default: %(default)s)"


def _add_common(sub: argparse.ArgumentParser, run, *, dataset=True) -> None:
    if dataset:
        sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--config", help="run.json from a previous run")
    sub.set_defaults(run=run)


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="split, init, shuffle and dropout seed")
    sub.add_argument("--epochs", type=int, default=10, help="passes over the train shard")
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=32,
                     help="posts per step")
    sub.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.8,
                     help="share of posts in the train shard")
    sub.add_argument("--embeddings", help="pre-trained vectors in text format; by default random")
    sub.add_argument("--min-count", dest="min_count", type=int, default=1,
                     help="fewest uses of a word in the vocabulary")
    sub.add_argument("--max-len", dest="max_len", type=int,
                     help=f"tokens per post; by default the longest in the train shard, "
                          f"at most {MAX_LEN_CAP}")
    sub.add_argument("--embed-dim", dest="embed_dim", type=int, default=300,
                     help="embedding width without --embeddings")
    sub.add_argument("--lstm-units", dest="lstm_units", type=int, default=100,
                     help="LSTM hidden units")
    sub.add_argument("--dropout", dest="dropout_rate", type=float, default=0.5,
                     help="dropout rate")
    sub.add_argument("--filters", type=int, default=3, help="convolution filters")
    sub.add_argument("--kernel", type=int, default=8, help="convolution width")
    sub.add_argument("--pool", type=int, default=2, help="max-pool width")


def build_parser() -> _Parser:
    parser = _Parser(prog="risknet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    # --config replays into the defaults of its subcommand's parser
    parser.commands = subs.choices
    add = lambda name, summary: subs.add_parser(name, help=summary, formatter_class=_HelpFormatter)

    s = add("synth", "generate a seeded synthetic corpus")
    s.add_argument("--posts", type=int, default=2000, help="posts to generate")
    s.add_argument("--seed", type=int, default=7, help="corpus seed")
    _add_common(s, _cmd_synth, dataset=False)

    s = add("preprocess", "raw posts -> cleaned token file")
    s.add_argument("--format", choices=("csv", "jsonl"),
                   help="input format; by default the file extension")
    _add_common(s, _cmd_preprocess)

    s = add("annotate", "weak-label posts from user labels")
    s.add_argument("--top-k", dest="top_k", type=int, default=300,
                   help="n-grams kept per class and size")
    s.add_argument("--fractions", help="4 comma-separated target class fractions; "
                                       "by default near-balanced")
    _add_common(s, _cmd_annotate)

    s = add("report-ngrams", "top n-grams per class")
    s.add_argument("--top", type=int, default=300, help="n-grams listed per class and size")
    _add_common(s, _cmd_report_ngrams)

    s = add("train", "fit a model on a labeled token file")
    s.add_argument("--variant", choices=VARIANTS, default="lstm_attention_cnn",
                   help="model stack")
    _add_fit_flags(s)
    _add_common(s, _cmd_train)

    s = add("evaluate", "score a model on labeled tokens")
    s.add_argument("--model", required=True)
    _add_common(s, _cmd_evaluate)

    s = add("predict", "per-post labels + per-user summary")
    s.add_argument("--model", required=True)
    _add_common(s, _cmd_predict)

    s = add("ablate", "five-variant comparison table")
    _add_fit_flags(s)
    _add_common(s, _cmd_ablate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _replay_config(parser.commands[args.command], args.config, args.command)
            args = parser.parse_args(argv)
        params = {k: v for k, v in vars(args).items() if k not in ("command", "config", "run")}
        for key in ("dataset", "model", "embeddings"):
            path = params.get(key)
            if path is not None and Path(path).is_dir():
                raise UsageError(f"--{key} {path}: is a directory, not a file")
            if path is not None and not Path(path).exists():
                raise UsageError(f"--{key} {path}: no such file")
        out = Path(params["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # a file is in the way
            raise UsageError(f"--out {out}: not a directory") from None
        doc = {"command": args.command, "params": params}
        _check_bounds(params, parser.commands[args.command])
        stats = args.run(params, out)  # may add resolved values to params
        if stats is not None:
            doc["stats"] = stats
        _write_json(out / "run.json", doc)
        return 0
    except (ValueError, KeyError, FileNotFoundError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
