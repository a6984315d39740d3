"""Post collections: loading, saving, and title+body merging; and the record
rules that post files and token files share.

A post record carries six fields (id, user, timestamp, subreddit, title,
body) plus an optional integer risk label in 0..3.  Posts load from CSV with
RFC-4180 quoting or from JSON-lines with the same keys, and save as CSV.
Each shared rule raises `ValueError` with a message that its reader, here or
`cli.iter_tokens`, prefixes with `file: line N:`; both stop at the first
malformed record.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Optional


class RiskLabel(IntEnum):
    """Four-tier risk class; integer codes are stable across serialization."""

    NO_RISK = 0
    LOW_RISK = 1
    MODERATE_RISK = 2
    SEVERE_RISK = 3


CSV_COLUMNS = ["post_id", "user_id", "timestamp", "subreddit", "post_title", "post_body"]
LABEL_COLUMN = "label"


@dataclass(frozen=True)
class Post:
    post_id: str
    user_id: str
    timestamp: int
    subreddit: str
    title: str
    body: str
    label: Optional[RiskLabel] = None


class CorpusFormatError(ValueError):
    """Missing file, bad header, unknown format, or a malformed record."""


# ------------------------------------------------------------ record rules


def parse_json_object(text: str) -> dict:
    """A JSONL line, a `--config` file or a model manifest, as its object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer past the interpreter's int-to-str digit limit
        raise ValueError("invalid JSON (an integer has too many digits)") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def require_fields(rec: dict, keys: Iterable[str]) -> None:
    for key in keys:
        if key not in rec:
            raise ValueError(f"missing field '{key}'")


def check_string(rec: dict, key: str) -> None:
    """`str()` would turn 12 into "12" and {"a": 1} into text."""
    if not isinstance(rec[key], str):
        raise ValueError(f"'{key}' must be a string, got {json.dumps(rec[key])}")


def check_ids(rec: dict) -> None:
    for key in ("post_id", "user_id"):
        check_string(rec, key)
        if not rec[key]:  # predict would write an empty cell
            raise ValueError(f"empty {key}")


def check_label(label) -> Optional[RiskLabel]:
    """Null, or a class code; `int()` would truncate 2.9 and take true for 1."""
    if label is None:
        return None
    if type(label) is not int:
        raise ValueError(f"'label' must be null or an integer, got {json.dumps(label)}")
    if not 0 <= label <= 3:
        raise ValueError(f"label code {label} outside 0..3")
    return RiskLabel(label)


def check_words(tokens: list[str]) -> None:
    """N-grams are space-joined tokens, so each token must be one word that a
    join and a split give back unchanged."""
    if " ".join(tokens).split() != tokens:
        raise ValueError("each token must be non-empty and contain no whitespace")


def check_unique(post_id: str, first_line: dict[str, int], line: int) -> None:
    """`first_line` maps each `post_id` read so far to its line.  Checked last,
    so that only an otherwise well-formed record is the first of its id."""
    seen = first_line.setdefault(post_id, line)
    if seen != line:
        raise ValueError(f"duplicate post_id '{post_id}' (first seen at line {seen})")


# ------------------------------------------------------------- post files


def _make_post(rec: dict, first_line: dict[str, int], line: int) -> Post:
    require_fields(rec, CSV_COLUMNS)
    check_ids(rec)
    for key in ("subreddit", "post_title", "post_body"):
        check_string(rec, key)
    if type(rec["timestamp"]) is not int:
        raise ValueError(f"non-integer timestamp {json.dumps(rec['timestamp'])}")
    if not rec["post_title"] and not rec["post_body"]:
        raise ValueError("both post_title and post_body are empty")
    label = check_label(rec.get(LABEL_COLUMN))
    check_unique(rec["post_id"], first_line, line)
    return Post(rec["post_id"], rec["user_id"], rec["timestamp"], rec["subreddit"],
                rec["post_title"], rec["post_body"], label)


def load_posts(path: str | Path, format: str | None = None) -> list[Post]:
    """Read a post collection.

    ``format`` is "csv" or "jsonl"; if omitted it is taken from the file
    extension.  A missing file, a bad header or the first malformed record
    raises :class:`CorpusFormatError`, a record's naming its 1-based line.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusFormatError(f"no such file: {path}")
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("csv", "jsonl"):
        raise CorpusFormatError(f"unknown format '{format}' (expected csv or jsonl)")
    posts: list[Post] = []
    first_line: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        records = _csv_records(path, fh) if format == "csv" else _jsonl_records(path, fh)
        for line, rec in records:
            try:
                posts.append(_make_post(rec, first_line, line))
            except ValueError as exc:
                raise _record_error(path, line, exc) from None
    return posts


def _record_error(path: Path, line: int, exc: ValueError) -> CorpusFormatError:
    return CorpusFormatError(f"{path}: line {line}: {exc}")


def _jsonl_records(path: Path, fh):
    for line, raw in enumerate(fh, start=1):
        if raw.strip():
            try:
                rec = parse_json_object(raw)
            except ValueError as exc:
                raise _record_error(path, line, exc) from None
            yield line, rec


def _csv_records(path: Path, fh):
    """Each row after the header as a record, with the physical line where it
    ends.  A row with more cells than the header has columns is rejected: an
    unquoted comma in the body would otherwise drop the text after it.  A
    timestamp or label cell becomes the int that `int()` reads, an empty one
    null; any other cell stays text, for `_make_post` to reject."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusFormatError(f"{path}: empty file, expected a header row") from None
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in header]
        raise CorpusFormatError(f"{path}: bad header, missing columns {missing or header}")
    columns = header[: len(CSV_COLUMNS) + 1]
    if columns[-1] != LABEL_COLUMN:
        columns = CSV_COLUMNS
    for row in reader:
        if len(row) > len(header):
            raise _record_error(path, reader.line_num, ValueError(
                f"{len(row)} cells, but the header has {len(header)} columns"))
        if row:
            rec = dict(zip(columns, row))
            for key in ("timestamp", LABEL_COLUMN):
                if key in rec:
                    try:
                        rec[key] = int(rec[key]) if rec[key] else None
                    except ValueError:
                        pass
            yield reader.line_num, rec


def save_posts(path: str | Path, posts: Iterable[Post]) -> None:
    """Write posts as CSV; the label column is always present."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS + [LABEL_COLUMN])
        for p in posts:
            writer.writerow(
                [p.post_id, p.user_id, p.timestamp, p.subreddit, p.title, p.body,
                 "" if p.label is None else int(p.label)]
            )


def merge_title_body(post: Post) -> str:
    """Title and body joined by one space; an empty side is dropped."""
    if post.title and post.body:
        return post.title + " " + post.body
    if post.title:
        return post.title
    if post.body:
        return post.body
    raise ValueError("empty post")
