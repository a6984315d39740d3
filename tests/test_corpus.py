"""Corpus loading, saving, merging, and split tests."""

import json

import pytest

from risknet.corpus import (
    CorpusFormatError,
    Post,
    RiskLabel,
    load_posts,
    merge_title_body,
    save_posts,
)
from risknet.train import split_indices

HEADER = "post_id,user_id,timestamp,subreddit,post_title,post_body"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_post(i, label=None, title="t", body="b"):
    return Post(f"p{i}", f"u{i}", 1420070400 + i, "SuicideWatch", title, body,
                None if label is None else RiskLabel(label))


# ------------------------------------------------------------------ loading


def test_csv_zero_rows(tmp_path):
    assert load_posts(_write(tmp_path, "a.csv", HEADER + "\n")) == []


def test_csv_direct_field_mapping(tmp_path):
    (p,) = load_posts(_write(
        tmp_path, "a.csv",
        HEADER + '\np1,u1,1420070400,SuicideWatch,"help","I feel lost"\n'))
    assert p == Post("p1", "u1", 1420070400, "SuicideWatch", "help", "I feel lost")


def test_csv_with_label_column(tmp_path):
    posts = load_posts(_write(
        tmp_path, "a.csv",
        HEADER + ",label\np1,u1,10,s,hello,world,3\np2,u2,11,s,hi,there,\n"))
    assert posts[0].label == RiskLabel.SEVERE_RISK
    assert posts[1].label is None


def test_jsonl_missing_body_key(tmp_path):
    recs = [
        {"post_id": "p1", "user_id": "u1", "timestamp": 1, "subreddit": "s",
         "post_title": "a", "post_body": "b"},
        {"post_id": "p2", "user_id": "u2", "timestamp": 2, "subreddit": "s",
         "post_title": "c"},
        {"post_id": "p3", "user_id": "u3", "timestamp": 3, "subreddit": "s",
         "post_title": "d", "post_body": "e"},
    ]
    path = _write(tmp_path, "a.jsonl", "".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 2: missing field 'post_body'"


def test_missing_file():
    with pytest.raises(CorpusFormatError, match="no such file"):
        load_posts("/nonexistent/posts.csv")


def test_missing_column_is_file_level(tmp_path):
    path = _write(tmp_path, "a.csv", "post_id,user_id\np1,u1\n")
    with pytest.raises(CorpusFormatError):
        load_posts(path)


def test_unknown_format(tmp_path):
    path = _write(tmp_path, "a.txt", "x")
    with pytest.raises(CorpusFormatError, match="unknown format"):
        load_posts(path)


def test_non_integer_timestamp_reported_with_line(tmp_path):
    path = _write(tmp_path, "a.csv", HEADER + "\np1,u1,notatime,s,a,b\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f'{path}: line 2: non-integer timestamp "notatime"'


def test_duplicate_post_id_cites_first_line(tmp_path):
    path = _write(tmp_path, "a.csv", HEADER + "\np1,u1,1,s,a,b\np1,u2,2,s,c,d\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 3: duplicate post_id 'p1' (first seen at line 2)"


def test_both_title_and_body_empty_rejected(tmp_path):
    path = _write(tmp_path, "a.csv", HEADER + "\np1,u1,1,s,,\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 2: both post_title and post_body are empty"


def test_label_out_of_range_rejected(tmp_path):
    path = _write(tmp_path, "a.csv", HEADER + ",label\np1,u1,1,s,a,b,7\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 2: label code 7 outside 0..3"


@pytest.mark.parametrize("text,line,cells,columns", [
    # an unquoted comma in the body, which used to lose "go on anymore"
    (HEADER + "\np1,u1,1,s,feeling lost,i cannot, go on anymore\n", 2, 7, 6),
    # past a label column, in a row that a quoted newline ends on line 3
    (HEADER + ',label\np1,u1,1,s,"a\nb",c,2,extra\n', 3, 8, 7),
], ids=["comma_in_body", "labeled_multiline"])
def test_row_with_more_cells_than_the_header_rejected(tmp_path, text, line, cells, columns):
    path = _write(tmp_path, "a.csv", text)
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == (
        f"{path}: line {line}: {cells} cells, but the header has {columns} columns")


def test_header_with_extra_columns_of_its_own_loads(tmp_path):
    posts = load_posts(_write(tmp_path, "a.csv",
                              HEADER + ",label,source\np1,u1,1,s,a,b,2,web\np2,u2,2,s,c,d\n"))
    assert [(p.post_id, p.body, p.label) for p in posts] == [
        ("p1", "b", RiskLabel.MODERATE_RISK), ("p2", "d", None)]


# a quote, a comma plus a newline, an empty title, an empty body, a null label
ODD_FIELD_POSTS = [
    Post("p1", "u1", 10, "sub", 'ti "tle', "body, with commas\nand newline", RiskLabel.LOW_RISK),
    Post("p2", "u2", 20, "sub", "", "only body", None),
    Post("p3", "u3", 30, "other", "only title", "", RiskLabel.NO_RISK),
]


def test_save_load_round_trip_preserves_fields(tmp_path):
    path = tmp_path / "posts.csv"
    save_posts(path, ODD_FIELD_POSTS)
    posts = load_posts(path)
    assert posts == ODD_FIELD_POSTS
    # and the bytes themselves are stable over a second save
    second = tmp_path / "again.csv"
    save_posts(second, posts)
    assert path.read_bytes() == second.read_bytes()


def test_jsonl_load_preserves_fields(tmp_path):
    path = _write(tmp_path, "posts.jsonl", "\n".join([
        '{"post_id": "p1", "user_id": "u1", "timestamp": 10, "subreddit": "sub", '
        '"post_title": "ti \\"tle", "post_body": "body, with commas\\nand newline", "label": 1}',
        '{"post_id": "p2", "user_id": "u2", "timestamp": 20, "subreddit": "sub", '
        '"post_title": "", "post_body": "only body", "label": null}',
        '{"post_id": "p3", "user_id": "u3", "timestamp": 30, "subreddit": "other", '
        '"post_title": "only title", "post_body": "", "label": 0}',
    ]) + "\n")
    assert load_posts(path) == ODD_FIELD_POSTS


@pytest.mark.parametrize("fields,message", [
    # each used to load through int(), truncated or converted, with no record error
    ('"timestamp": 2.5, "label": 1', "non-integer timestamp 2.5"),
    ('"timestamp": 10, "label": 2.9', "'label' must be null or an integer, got 2.9"),
    ('"timestamp": 10, "label": true', "'label' must be null or an integer, got true"),
    ('"timestamp": true, "label": 1', "non-integer timestamp true"),
    ('"timestamp": "10", "label": 1', 'non-integer timestamp "10"'),
    ('"timestamp": 10, "label": "1"', '\'label\' must be null or an integer, got "1"'),
], ids=["timestamp_float", "label_float", "label_bool", "timestamp_bool",
        "timestamp_string", "label_string"])
def test_jsonl_numbers_must_be_json_integers(tmp_path, fields, message):
    good = ('{"post_id": "p1", "user_id": "u1", "timestamp": 1, "subreddit": "s", '
            '"post_title": "a", "post_body": "b", "label": 0}')
    bad = ('{"post_id": "p2", "user_id": "u2", "subreddit": "s", '
           '"post_title": "a", "post_body": "b", ' + fields + "}")
    path = _write(tmp_path, "a.jsonl", good + "\n" + bad + "\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("key,value", [
    # each used to load through str(), as "12", "['u']" or "{'a': 1}"
    ("post_id", 12), ("user_id", ["u"]), ("subreddit", True), ("post_title", {"a": 1}),
    ("post_body", 2.5),
])
def test_jsonl_text_fields_must_be_json_strings(tmp_path, key, value):
    good = {"post_id": "p1", "user_id": "u1", "timestamp": 1, "subreddit": "s",
            "post_title": "a", "post_body": "b", "label": 0}
    bad = {**good, "post_id": "p2", key: value}
    path = _write(tmp_path, "a.jsonl", json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(path)
    assert str(info.value) == f"{path}: line 2: '{key}' must be a string, got {json.dumps(value)}"


# ------------------------------------------------------------------ merging


def test_merge_title_and_body():
    assert merge_title_body(make_post(1, title="help", body="i am lost")) == "help i am lost"


def test_merge_empty_title():
    assert merge_title_body(make_post(1, title="", body="x")) == "x"


def test_merge_empty_body():
    assert merge_title_body(make_post(1, title="a", body="")) == "a"


def test_merge_both_empty_raises():
    post = Post("p", "u", 1, "s", "", "")
    with pytest.raises(ValueError, match="empty post"):
        merge_title_body(post)


# -------------------------------------------------------------------- split
# Posts are split by the index split that `train` uses.


def _docs(n):
    return [make_post(i, label=i % 4) for i in range(n)]


def _split(docs, fraction, seed):
    train, test = split_indices(len(docs), fraction, seed)
    return [docs[i] for i in train], [docs[i] for i in test]


def test_split_floor_rule():
    train, test = _split(_docs(5), 0.8, seed=1)
    assert len(train) == 4 and len(test) == 1


def test_split_counts_at_full_corpus_scale():
    train, test = _split(_docs(69600), 0.8, seed=1)
    assert len(train) == 55680 and len(test) == 13920


def test_split_partitions_exactly():
    docs = _docs(103)
    train, test = _split(docs, 0.8, seed=9)
    ids = sorted(d.user_id for d in train + test)
    assert ids == sorted(d.user_id for d in docs)


def test_split_deterministic():
    a = _split(_docs(10), 0.8, seed=5)
    b = _split(_docs(10), 0.8, seed=5)
    assert a == b
    c = _split(_docs(10), 0.8, seed=6)
    assert a != c


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        _split(_docs(4), 1.0, seed=0)
    with pytest.raises(ValueError):
        _split([], 0.5, seed=0)
