"""Post collections: loading, saving, and title+body merging.

A post record carries six fields (id, user, timestamp, subreddit, title,
body) plus an optional integer risk label in 0..3.  Posts load from CSV with
RFC-4180 quoting or from JSON-lines with the same keys, and save as CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class RecordError:
    line: int
    message: str


@dataclass
class LoadResult:
    posts: list[Post] = field(default_factory=list)
    errors: list[RecordError] = field(default_factory=list)


class CorpusFormatError(ValueError):
    """File-level problem: missing file, bad header, unknown format."""


def _parse_label(raw) -> Optional[RiskLabel]:
    if raw is None or raw == "":
        return None
    code = int(raw)
    if code not in (0, 1, 2, 3):
        raise ValueError(f"label code {code} outside 0..3")
    return RiskLabel(code)


def _make_post(rec: dict, seen_ids: dict[str, int], line: int) -> Post:
    for key in CSV_COLUMNS:
        if key not in rec or rec[key] is None:
            raise ValueError(f"missing field '{key}'")
    post_id = str(rec["post_id"])
    if not post_id:
        raise ValueError("empty post_id")
    if post_id in seen_ids:
        raise ValueError(f"duplicate post_id '{post_id}' (first seen at line {seen_ids[post_id]})")
    user_id = str(rec["user_id"])
    if not user_id:  # predict would write an empty user cell
        raise ValueError("empty user_id")
    try:
        timestamp = int(rec["timestamp"])
    except (TypeError, ValueError):
        raise ValueError(f"non-integer timestamp {rec['timestamp']!r}") from None
    title = str(rec["post_title"])
    body = str(rec["post_body"])
    if not title and not body:
        raise ValueError("both post_title and post_body are empty")
    label = _parse_label(rec.get(LABEL_COLUMN))
    seen_ids[post_id] = line
    return Post(post_id, user_id, timestamp, str(rec["subreddit"]), title, body, label)


def load_posts(path: str | Path, format: str | None = None) -> LoadResult:
    """Read a post collection; malformed records are collected, not fatal.

    ``format`` is "csv" or "jsonl"; if omitted it is taken from the file
    extension.  File-level problems (missing file, missing header column)
    raise :class:`CorpusFormatError`; record-level problems are returned as
    :class:`RecordError` entries with 1-based line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusFormatError(f"no such file: {path}")
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format == "csv":
        return _load_csv(path)
    if format == "jsonl":
        return _load_jsonl(path)
    raise CorpusFormatError(f"unknown format '{format}' (expected csv or jsonl)")


def _load_csv(path: Path) -> LoadResult:
    result = LoadResult()
    seen: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(f"{path}: empty file, expected a header row") from None
        if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
            missing = [c for c in CSV_COLUMNS if c not in header]
            raise CorpusFormatError(f"{path}: bad header, missing columns {missing or header}")
        has_label = len(header) > len(CSV_COLUMNS) and header[len(CSV_COLUMNS)] == LABEL_COLUMN
        for row in reader:
            line = reader.line_num  # physical line where the record ends
            if not row:
                continue
            rec = dict(zip(CSV_COLUMNS, row))
            if has_label and len(row) > len(CSV_COLUMNS):
                rec[LABEL_COLUMN] = row[len(CSV_COLUMNS)]
            try:
                result.posts.append(_make_post(rec, seen, line))
            except ValueError as exc:
                result.errors.append(RecordError(line, str(exc)))
    return result


def _load_jsonl(path: Path) -> LoadResult:
    result = LoadResult()
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
                if not isinstance(rec, dict):
                    raise ValueError("record is not a JSON object")
                _check_json_types(rec)
                result.posts.append(_make_post(rec, seen, line_no))
            except (json.JSONDecodeError, ValueError) as exc:
                result.errors.append(RecordError(line_no, str(exc)))
    return result


# the JSONL fields that must be JSON strings; `str()` would turn 12 into "12"
# and {"a": 1} into text
_JSON_STRINGS = ("post_id", "user_id", "subreddit", "post_title", "post_body")


def _check_json_types(rec: dict) -> None:
    """Text fields must be JSON strings, a JSON `timestamp` an integer and a
    JSON `label` null or an integer; `int()` would truncate 2.9 to 2 and take
    true for 1.  A missing or null field is left to `_make_post`."""
    for key in _JSON_STRINGS:
        value = rec.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"'{key}' must be a string, got {json.dumps(value)}")
    timestamp = rec.get("timestamp")
    if timestamp is not None and type(timestamp) is not int:
        raise ValueError(f"non-integer timestamp {json.dumps(timestamp)}")
    label = rec.get(LABEL_COLUMN)
    if label is not None and type(label) is not int:
        raise ValueError(f"label must be null or an integer, got {json.dumps(label)}")


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
