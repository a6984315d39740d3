"""The record rules that post files and token files share (`corpus`), as
`corpus.load_posts` and `cli.iter_tokens` apply them."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import needs_digit_limit
from risknet.cli import UsageError, read_tokens
from risknet.corpus import CorpusFormatError, load_posts

POST = {"post_id": "p1", "user_id": "u1", "timestamp": 1, "subreddit": "s",
        "post_title": "a", "post_body": "b", "label": 0}
TOKENS = {"post_id": "p1", "user_id": "u1", "label": 0, "tokens": ["a", "b"]}

_DROP = object()  # stands for a field left out


def _edit(field, value):
    def edit(rec):
        rec = dict(rec)
        if value is _DROP:
            del rec[field]
        else:
            rec[field] = value
        return json.dumps(rec)
    return edit


# each shared rule, and a second line that breaks it, made from the first
# line's record
@pytest.mark.parametrize("second,message", [
    (lambda rec: "[1, 2]", "expected a JSON object"),
    (lambda rec: "{", "invalid JSON (Expecting property name enclosed in double quotes)"),
    (_edit("post_id", _DROP), "missing field 'post_id'"),
    (_edit("user_id", _DROP), "missing field 'user_id'"),
    (_edit("post_id", 12), "'post_id' must be a string, got 12"),
    (_edit("user_id", None), "'user_id' must be a string, got null"),
    (_edit("post_id", ""), "empty post_id"),
    (_edit("user_id", ""), "empty user_id"),
    (_edit("label", 2.9), "'label' must be null or an integer, got 2.9"),
    (_edit("label", True), "'label' must be null or an integer, got true"),
    (_edit("label", "1"), "'label' must be null or an integer, got \"1\""),
    (_edit("label", 4), "label code 4 outside 0..3"),
    (_edit("label", -1), "label code -1 outside 0..3"),
    (json.dumps, "duplicate post_id 'p1' (first seen at line 1)"),
    # past the int-to-str digit limit, which raised a ValueError of its own
    pytest.param(lambda rec: '{"label": 1' + "0" * 5000 + "}",
                 "invalid JSON (an integer has too many digits)", marks=needs_digit_limit),
], ids=["not_an_object", "invalid_json", "no_post_id", "no_user_id", "post_id_number",
        "user_id_null", "post_id_empty", "user_id_empty", "label_float", "label_bool",
        "label_string", "label_4", "label_negative", "post_id_repeated", "integer_too_long"])
def test_post_and_token_files_share_each_rule_and_its_wording(tmp_path, second, message):
    posts, tokens = tmp_path / "posts.jsonl", tmp_path / "tokens.jsonl"
    posts.write_text(json.dumps(POST) + "\n" + second(POST) + "\n", encoding="utf-8")
    tokens.write_text(json.dumps(TOKENS) + "\n" + second(TOKENS) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        load_posts(posts)
    assert str(info.value) == f"{posts}: line 2: {message}"
    with pytest.raises(UsageError) as info:
        read_tokens(tokens)
    assert str(info.value) == f"{tokens}: line 2: {message}"


# ---------------------------------------------------------------- fuzzing

# a field left out, or a JSON value of each kind
_ODD = st.one_of(st.just(_DROP), st.none(), st.booleans(), st.integers(-2, 5),
                 st.floats(allow_nan=False), st.sampled_from(["", " ", "a b", "x\ty"]),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.just("k"), st.integers(), max_size=1))
_VALID = {  # few ids, so that some repeat
    "post_id": st.sampled_from(["p1", "p2", "p3", "p4"]),
    "user_id": st.sampled_from(["u1", "u2"]),
    "label": st.one_of(st.none(), st.integers(0, 3)),
    "tokens": st.lists(st.sampled_from(["feel", "lost"]), min_size=1, max_size=3),
}
_GOOD = st.fixed_dictionaries(_VALID)
# a valid record with one field left out or replaced, by an odd value or,
# for `tokens`, by a list with a token that is no word
_BAD = st.one_of(
    st.tuples(_GOOD, st.sampled_from(sorted(_VALID)), _ODD),
    st.tuples(_GOOD, st.just("tokens"), st.lists(st.sampled_from(["feel", "", " ", "a b", "\n"]),
                                                 max_size=3)),
).map(lambda t: {k: v for k, v in {**t[0], t[1]: t[2]}.items() if v is not _DROP})
# valid records come up twice as often as the rest, so that whole files of them do
_LINE = st.one_of(_GOOD.map(json.dumps), _GOOD.map(json.dumps), _BAD.map(json.dumps),
                  st.sampled_from(["", "  ", "5", '"p1"', "[]", "null", "{"]))


def _oracle(lines):
    """What reading `lines` gives: ("records", [...]) or ("line", n) for the
    first bad line, or ("empty", None) when no line holds a record."""
    records, seen = [], set()
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return "line", n
        ok = (isinstance(rec, dict) and set(rec) >= set(_VALID)
              and all(isinstance(rec[k], str) and rec[k] for k in ("post_id", "user_id"))
              and (rec["label"] is None or (type(rec["label"]) is int and 0 <= rec["label"] <= 3))
              and isinstance(rec["tokens"], list) and len(rec["tokens"]) > 0
              and all(isinstance(t, str) and t and not any(c.isspace() for c in t)
                      for t in rec["tokens"])
              and rec["post_id"] not in seen)
        if not ok:
            return "line", n
        seen.add(rec["post_id"])
        records.append(rec)
    return ("records", records) if records else ("empty", None)


@given(lines=st.lists(_LINE, max_size=5))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_token_file_record_fuzz(tmp_path, lines):
    """A token file of drawn lines gives its records back, or raises
    UsageError naming the file and its first bad line (or that it has no
    records); nothing else."""
    path = tmp_path / "fuzz.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    kind, want = _oracle(lines)
    if kind == "records":
        assert read_tokens(path) == want
        return
    with pytest.raises(UsageError) as info:
        read_tokens(path)
    if kind == "line":
        assert str(info.value).startswith(f"{path}: line {want}: ")
    else:
        assert str(info.value) == f"{path}: no records"
