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
from typing import Optional, Sequence

import numpy as np

from . import baselines, corpus, embed, modelio, synth, textprep, train, weaklabel
from .corpus import Document, RiskLabel
from .model import VARIANTS, ModelConfig

MAX_LEN_CAP = 512


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
    docs = []
    with path.open("r", encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path}: line {line_num}: invalid JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise UsageError(f"{path}: line {line_num}: expected a JSON object")
            for fieldname in ("post_id", "user_id", "label", "tokens"):
                if fieldname not in row:
                    raise UsageError(f"{path}: line {line_num}: missing field '{fieldname}'")
            for fieldname in ("post_id", "user_id"):
                if not isinstance(row[fieldname], str):
                    raise UsageError(f"{path}: line {line_num}: '{fieldname}' must be a string")
            tokens = row["tokens"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise UsageError(f"{path}: line {line_num}: 'tokens' must be a list of strings")
            if not tokens:
                raise UsageError(f"{path}: line {line_num}: 'tokens' must not be empty")
            label = row["label"]
            if label is not None:
                # bool is an int subclass; JSON true/false is not a class id
                if type(label) is not int:
                    raise UsageError(f"{path}: line {line_num}: 'label' must be null or an "
                                     f"integer, got {json.dumps(label)}")
                if not 0 <= label <= 3:
                    raise UsageError(f"{path}: line {line_num}: label out of range")
            docs.append(row)
    if not docs:
        raise UsageError(f"{path}: no records")
    return docs


def _require_labels(docs: list[dict], path: str) -> None:
    missing = sum(1 for d in docs if d["label"] is None)
    if missing:
        raise UsageError(f"{path}: {missing} records have no label")


def _to_documents(docs: list[dict]) -> list[Document]:
    return [
        Document(d["user_id"], " ".join(d["tokens"]),
                 None if d["label"] is None else RiskLabel(d["label"]), d["post_id"])
        for d in docs
    ]


# ------------------------------------------------------------- run configs

# train and ablate share every flag but --variant
_FIT_DEFAULTS = {
    "seed": 0, "epochs": 10, "batch_size": 32, "train_fraction": 0.8,
    "embeddings": None, "min_count": 1, "max_len": None, "embed_dim": 300,
    "lstm_units": 100, "dropout_rate": 0.5, "filters": 3, "kernel": 8,
    "pool": 2, "dtype": "float32",
}

_DEFAULTS: dict[str, dict] = {
    "synth": {"posts": 2000, "seed": 7},
    "preprocess": {"format": None},
    "annotate": {"top_k": 300, "fractions": None},
    "report-ngrams": {"top": 300},
    "train": {**_FIT_DEFAULTS, "variant": "lstm_attention_cnn"},
    "evaluate": {},
    "predict": {},
    "ablate": _FIT_DEFAULTS,
}


def _effective_params(cmd: str, args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags; an input file that is a
    directory is a usage error naming its flag."""
    params = dict(_DEFAULTS[cmd])
    for key in ("dataset", "model", "out"):
        if hasattr(args, key):
            params[key] = getattr(args, key)
    if args.config is not None:
        for key, value in _read_config(args.config, cmd).items():
            if key in params:
                if not _config_value_fits(value, params[key], args.flags[key]):
                    raise UsageError(f"--config {args.config}: bad value for '{key}': "
                                     f"{json.dumps(value)}")
                params[key] = value
    for key in params:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    for key in ("dataset", "model", "embeddings"):
        if params.get(key) is not None and Path(params[key]).is_dir():
            raise UsageError(f"--{key} {params[key]}: is a directory, not a file")
    return params


def _read_config(path: str, cmd: str) -> dict:
    """The params of a run.json written by `cmd`."""
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"--config {path}: cannot read ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config {path}: invalid JSON ({exc.msg})") from None
    if not isinstance(loaded, dict):
        raise UsageError(f"--config {path}: expected a JSON object")
    if loaded.get("command") != cmd:
        raise UsageError(f"--config was written by '{loaded.get('command')}', not '{cmd}'")
    params = loaded.get("params", {})
    if not isinstance(params, dict):
        raise UsageError(f"--config {path}: 'params' must be a JSON object")
    return params


def _config_value_fits(value, default, flag: argparse.Action) -> bool:
    """A replayed value is one its flag takes: one of the flag's choices, or
    a JSON value of the flag's type (an int for a float is fine).  Null fits
    only where the default is null."""
    if value is None:
        return default is None
    if flag.choices is not None:
        return value in flag.choices
    want = flag.type or str
    return type(value) is want or (want is float and type(value) is int)


def _write_run_json(out_dir: Path, cmd: str, params: dict, stats: dict | None = None) -> None:
    serializable = {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()}
    doc = {"command": cmd, "params": serializable}
    if stats is not None:
        doc["stats"] = stats
    with (out_dir / "run.json").open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(params: dict) -> Path:
    out = Path(params["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # a file is in the way
        raise UsageError(f"--out {out}: not a directory") from None
    return out


# ------------------------------------------------------------- subcommands


def _cmd_synth(params: dict) -> int:
    out = _out_dir(params)
    posts = synth.generate_corpus(int(params["posts"]), int(params["seed"]))
    corpus.save_posts(out / "posts.csv", posts, format="csv")
    _write_run_json(out, "synth", params)
    return 0


def _cmd_preprocess(params: dict) -> int:
    out = _out_dir(params)
    result = corpus.load_posts(params["dataset"], format=params["format"])
    if result.errors:
        first = result.errors[0]
        raise UsageError(
            f"{params['dataset']}: {len(result.errors)} malformed records "
            f"(first: line {first.line}: {first.message})")
    cleaned = [
        Document(p.user_id, textprep.clean(corpus.merge_title_body(p)), p.label, p.post_id)
        for p in result.posts
    ]
    non_empty = [d for d in cleaned if d.text]
    docs = corpus.dedupe(non_empty)
    rows = []
    for doc in docs:
        tokens = textprep.content_tokens(doc.text)
        if tokens:  # a post of stop words only has none left
            rows.append({
                "post_id": doc.post_id, "user_id": doc.user_id,
                "label": None if doc.label is None else int(doc.label), "tokens": tokens,
            })
    write_tokens(rows, out / "tokens.jsonl")
    stats = {
        "posts_read": len(result.posts),
        "dropped_empty": len(cleaned) - len(non_empty) + len(docs) - len(rows),
        "dropped_duplicate": len(non_empty) - len(docs),
    }
    _write_run_json(out, "preprocess", params, stats=stats)
    return 0


def _cmd_annotate(params: dict) -> int:
    out = _out_dir(params)
    rows = read_tokens(Path(params["dataset"]))
    _require_labels(rows, params["dataset"])
    fractions = weaklabel.DEFAULT_TARGET_FRACTIONS
    if params["fractions"] is not None:
        parts = [float(x) for x in str(params["fractions"]).split(",")]
        if len(parts) != 4:
            raise UsageError("--fractions needs 4 comma-separated values")
        fractions = tuple(parts)
    result = weaklabel.weak_label_documents(
        _to_documents(rows), top_k=int(params["top_k"]), target_fractions=fractions)
    for row, doc in zip(rows, result.docs):
        row["label"] = int(doc.label)
    write_tokens(rows, out / "labeled.jsonl")
    with (out / "weights.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ngram", "weight"])
        for gram in sorted(result.weights.weights):
            writer.writerow([gram, repr(result.weights.weights[gram])])
    t = result.thresholds
    params = dict(params, thresholds=[t.t1, t.t2, t.t3])
    _write_run_json(out, "annotate", params)
    return 0


def _cmd_report_ngrams(params: dict) -> int:
    out = _out_dir(params)
    rows = read_tokens(Path(params["dataset"]))
    _require_labels(rows, params["dataset"])
    docs = _to_documents(rows)
    top = int(params["top"])
    with (out / "ngrams.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "n", "ngram", "count", "rank"])
        for n in weaklabel.NGRAM_SIZES:
            table = weaklabel.count_ngrams(docs, n)
            for cls in RiskLabel:
                ranked = weaklabel.top_terms_for_class(table, cls, top)
                for rank, (gram, count) in enumerate(ranked, start=1):
                    writer.writerow([int(cls), n, gram, count, rank])
    _write_run_json(out, "report-ngrams", params)
    return 0


def _build_model_config(params: dict, max_len: int, embed_dim: int, variant: str) -> ModelConfig:
    return ModelConfig(
        max_len=max_len,
        embed_dim=embed_dim,
        lstm_units=int(params["lstm_units"]),
        dropout_rate=float(params["dropout_rate"]),
        filters=int(params["filters"]),
        kernel=int(params["kernel"]),
        pool=int(params["pool"]),
        seed=int(params["seed"]),
        variant=variant,
        dtype=str(params["dtype"]),
    )


def _prepare_training_data(params: dict) -> dict:
    """Split, build vocab/embeddings from the train shard, encode both shards.

    The result is a dict, so that `train` can pop the embedding matrix and
    hand `fit` the only reference to it."""
    rows = read_tokens(Path(params["dataset"]))
    _require_labels(rows, params["dataset"])
    train_idx, test_idx = train.split_indices(
        len(rows), float(params["train_fraction"]), int(params["seed"]))
    train_rows = [rows[i] for i in train_idx]
    test_rows = [rows[i] for i in test_idx]
    if params["embeddings"] is not None:
        vocab, matrix = embed.load_embeddings(params["embeddings"], seed=int(params["seed"]))
        embed_dim = matrix.dim
    else:
        vocab = embed.build_vocab(_to_documents(train_rows), int(params["min_count"]))
        embed_dim = int(params["embed_dim"])
        matrix = embed.init_embeddings(vocab, embed_dim, int(params["seed"]))
    if params["max_len"] is not None:
        max_len = int(params["max_len"])
    else:
        longest = max((len(r["tokens"]) for r in train_rows), default=0)
        if longest == 0:
            raise UsageError("training shard has no tokens; pass --max-len explicitly")
        max_len = min(longest, MAX_LEN_CAP)
    enc = lambda rs: embed.encode_batch([r["tokens"] for r in rs], vocab, max_len)
    y = lambda rs: np.array([r["label"] for r in rs], dtype=np.int64)
    return {"test_rows": test_rows, "vocab": vocab, "matrix": matrix,
            "embed_dim": embed_dim, "max_len": max_len,
            "X_train": enc(train_rows), "y_train": y(train_rows),
            "X_test": enc(test_rows), "y_test": y(test_rows)}


def _cmd_train(params: dict) -> int:
    out = _out_dir(params)
    data = _prepare_training_data(params)
    embed_dim, max_len, vocab = data["embed_dim"], data["max_len"], data["vocab"]
    mcfg = _build_model_config(params, max_len, embed_dim, str(params["variant"]))
    tcfg = train.TrainConfig(
        model=mcfg, epochs=int(params["epochs"]), batch_size=int(params["batch_size"]),
        seed=int(params["seed"]))
    log = lambda epoch, loss, acc: print(
        f"epoch {epoch}/{tcfg.epochs}: loss {loss:.4f} acc {acc:.4f}")
    # fit gets the only reference to the initial embedding, so the matrix is
    # freed once the model has its own copy
    model, history = train.fit(tcfg, data["X_train"], data["y_train"], data.pop("matrix"),
                               on_epoch=log)
    modelio.save_model(model, vocab, out / "model.rkn")
    history.save_csv(out / "history.csv")
    embed.save_vocab(vocab, out / "vocab.csv")
    write_tokens(data["test_rows"], out / "test.jsonl")
    params = dict(params, max_len=max_len, embed_dim=embed_dim)
    _write_run_json(out, "train", params)
    return 0


def _load_and_encode(params: dict, require_labels: bool):
    model, vocab = modelio.load_model(params["model"])
    rows = read_tokens(Path(params["dataset"]))
    if require_labels:
        _require_labels(rows, params["dataset"])
    X = embed.encode_batch([r["tokens"] for r in rows], vocab, model.cfg.max_len)
    return model, rows, X


def _cmd_evaluate(params: dict) -> int:
    out = _out_dir(params)
    model, rows, X = _load_and_encode(params, require_labels=True)
    y = np.array([r["label"] for r in rows], dtype=np.int64)
    train.evaluate(model, X, y).save(out / "metrics.json")
    _write_run_json(out, "evaluate", params)
    return 0


def _cmd_predict(params: dict) -> int:
    out = _out_dir(params)
    model, rows, X = _load_and_encode(params, require_labels=False)
    preds = model.predict(X)
    with (out / "predictions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["post_id", "user_id", "label"])
        for row, pred in zip(rows, preds):
            writer.writerow([row["post_id"], row["user_id"], int(pred)])
    per_user: dict[str, int] = {}
    for row, pred in zip(rows, preds):
        cur = per_user.get(row["user_id"], -1)
        per_user[row["user_id"]] = max(cur, int(pred))  # max risk over posts
    with (out / "users.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "label"])
        for user_id in sorted(per_user):
            writer.writerow([user_id, per_user[user_id]])
    _write_run_json(out, "predict", params)
    return 0


def _cmd_ablate(params: dict) -> int:
    out = _out_dir(params)
    data = _prepare_training_data(params)
    embed_dim, max_len = data["embed_dim"], data["max_len"]
    mcfg = _build_model_config(params, max_len, embed_dim, "lstm_attention_cnn")
    tcfg = train.TrainConfig(
        model=mcfg, epochs=int(params["epochs"]), batch_size=int(params["batch_size"]),
        seed=int(params["seed"]))
    rows = baselines.ablation_suite(tcfg, data["X_train"], data["y_train"], data["X_test"],
                                    data["y_test"], data["matrix"])
    baselines.save_ablation_csv(rows, out / "ablation.csv")
    params = dict(params, max_len=max_len, embed_dim=embed_dim)
    _write_run_json(out, "ablate", params)
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "annotate": _cmd_annotate,
    "report-ngrams": _cmd_report_ngrams,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
}


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser, *, dataset=True, out=True) -> None:
    if dataset:
        sub.add_argument("--dataset", required=True)
    if out:
        sub.add_argument("--out", required=True)
    sub.add_argument("--config", default=None, help="run.json from a previous run")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--train-fraction", dest="train_fraction", type=float)
    sub.add_argument("--embeddings")
    sub.add_argument("--min-count", dest="min_count", type=int)
    sub.add_argument("--max-len", dest="max_len", type=int)
    sub.add_argument("--embed-dim", dest="embed_dim", type=int)
    sub.add_argument("--lstm-units", dest="lstm_units", type=int)
    sub.add_argument("--dropout", dest="dropout_rate", type=float)
    sub.add_argument("--filters", type=int)
    sub.add_argument("--kernel", type=int)
    sub.add_argument("--pool", type=int)
    sub.add_argument("--dtype", choices=("float32", "float64"))


def build_parser() -> _Parser:
    parser = _Parser(prog="risknet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a seeded synthetic corpus")
    s.add_argument("--posts", type=int)
    s.add_argument("--seed", type=int)
    _add_common(s, dataset=False)

    s = subs.add_parser("preprocess", help="raw posts -> cleaned token file")
    s.add_argument("--format", choices=("csv", "jsonl"))
    _add_common(s)

    s = subs.add_parser("annotate", help="weak-label posts from user labels")
    s.add_argument("--top-k", dest="top_k", type=int)
    s.add_argument("--fractions", help="4 comma-separated target class fractions")
    _add_common(s)

    s = subs.add_parser("report-ngrams", help="top n-grams per class")
    s.add_argument("--top", type=int)
    _add_common(s)

    s = subs.add_parser("train", help="fit a model on a labeled token file")
    s.add_argument("--variant", choices=VARIANTS)
    _add_train_flags(s)
    _add_common(s)

    s = subs.add_parser("evaluate", help="score a model on labeled tokens")
    s.add_argument("--model", required=True)
    _add_common(s)

    s = subs.add_parser("predict", help="per-post labels + per-user summary")
    s.add_argument("--model", required=True)
    _add_common(s)

    s = subs.add_parser("ablate", help="five-variant comparison table")
    _add_train_flags(s)
    _add_common(s)

    for sub in subs.choices.values():
        # a --config value is checked against the flag that sets its key
        sub.set_defaults(flags={a.dest: a for a in sub._actions})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params = _effective_params(args.command, args)
        return _HANDLERS[args.command](params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
