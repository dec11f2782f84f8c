"""Each rule about input values has one owner: a document's id, mention
indices, pair keys and dimensions are judged alike whether they come in
through the Python constructors (``Mention``, ``Document``,
``Document.from_mentions``) or through the JSON readers (``load_corpus``,
``ModelParams.load``), which add only the file and line.  No malformed
field of a corpus or model file loads silently."""

import ast
import inspect
import json
import re
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Document, FormatError, InputError, Mention, ModelParams, SyntheticConfig,
                       generate_synthetic, load_corpus, save_corpus)
from softcoref.corpus import _doc_from_record

# Values that are not integers (or not strings), each of which a JSON file can hold.
ODD = st.one_of(st.none(), st.booleans(), st.floats(-2, 4, allow_nan=False),
                st.sampled_from(["1", "new", ""]), st.integers(-1, 5))


@st.composite
def documents(draw):
    """(id, declared (d_a, d_p), mention indices, {(j, i): features}, mention
    features): mostly valid, with some values drawn from ``ODD``."""
    n, d_a, d_p = draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def maybe(valid):
        return draw(ODD) if draw(st.integers(0, 7)) == 0 else valid

    doc_id = draw(st.one_of(st.text(max_size=4), ODD)) if draw(st.booleans()) else "d"
    indices = [maybe(i) for i in range(1, n + 1)]
    keys = [(maybe(j), maybe(i)) for i in range(2, n + 1) for j in range(1, i)]
    if keys and draw(st.integers(0, 7)) == 0:
        del keys[draw(st.integers(0, len(keys) - 1))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = dict(zip(keys, rng.normal(size=(len(keys), d_p))))  # keys equal as dict keys merge
    return doc_id, (d_a, d_p), indices, pairs, rng.normal(size=(n, d_a))


def _in_memory(doc_id, indices, pairs, features_a):
    mentions = [Mention(index, "proper", index, f) for index, f in zip(indices, features_a)]
    return Document.from_mentions(doc_id, mentions, pairs)


def _from_file(path, doc_id, dims, indices, pairs, features_a):
    record = {"id": doc_id, "d_a": dims[0], "d_p": dims[1],
              "mentions": [{"index": index, "type": "proper", "gold_entity": index,
                            "features_a": f.tolist()}
                           for index, f in zip(indices, features_a)],
              "pairs": [{"j": j, "i": i, "features": f.tolist()} for (j, i), f in pairs.items()]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return load_corpus(path)[0]


def _assert_both_ways_agree(doc_id, dims, indices, pairs, features_a):
    try:
        expected, message = _in_memory(doc_id, indices, pairs, features_a), None
    except InputError as exc:
        expected, message = None, str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        if message is None:
            assert _from_file(path, doc_id, dims, indices, pairs, features_a) == expected
        else:
            with pytest.raises(FormatError) as exc:
                _from_file(path, doc_id, dims, indices, pairs, features_a)
            assert str(exc.value) == f"{path}:1: {message}"


@given(documents())
@settings(max_examples=300, deadline=None)
def test_from_mentions_and_load_corpus_agree(case):
    doc_id, dims, indices, pairs, features_a = case
    _assert_both_ways_agree(doc_id, dims, indices, pairs, features_a)


@pytest.mark.parametrize("key, bad", [((1.5, 2), "1.5"), ((True, 2), "True"),
                                      (("1", 2), "'1'"), ((1, 2.0), "2.0"), ((None, 2), "None")])
def test_a_key_the_file_reader_rejects_is_rejected_in_memory(key, bad):
    pairs = {key: np.ones(2)}
    _assert_both_ways_agree("d", (1, 2), [1, 2], pairs, np.ones((2, 1)))
    with pytest.raises(InputError, match=f"^document d: pair index {bad} is not an integer$"):
        _in_memory("d", [1, 2], pairs, np.ones((2, 1)))


@pytest.mark.parametrize("key", [1, None, 1.5, (1, 2, 3), (1,)])
def test_a_key_that_is_not_a_pair_is_rejected_in_memory(key):
    with pytest.raises(InputError, match=r"^document d: pair keys are not \(j, i\) pairs$"):
        _in_memory("d", [1, 2], {key: np.ones(2)}, np.ones((2, 1)))


@pytest.mark.parametrize("doc_id", [5, None, 1.5, True, ["d"]])
def test_a_document_id_is_a_string(doc_id):
    with pytest.raises(InputError, match=re.escape(f"document id {doc_id!r} is not a string")):
        Document(doc_id, [Mention(1, "proper", 1, np.ones(2))], np.zeros((0, 0)))
    _assert_both_ways_agree(doc_id, (1, 1), [1], {}, np.ones((1, 1)))


def test_numpy_integers_and_strings_pass_the_rules(tmp_path):
    mentions = [Mention(np.int32(i), "proper", np.int64(1), np.ones(2)) for i in (1, 2, 3)]
    pairs = {(np.int64(j), np.uint8(i)): np.full(2, 10 * i + j)
             for i, j in ((3, 2), (2, 1), (3, 1))}  # any order
    doc = Document.from_mentions(np.str_("d"), mentions, pairs)
    assert doc.id == "d" and doc.pair_feature_matrix[:, 0].tolist() == [21, 31, 32]
    save_corpus([doc], tmp_path / "c.jsonl")
    assert load_corpus(tmp_path / "c.jsonl") == [doc]


# ---------------------------------------------------------------------------
# No malformed field loads silently
# ---------------------------------------------------------------------------

REPLACEMENTS = [None, True, 1.5, "1", [], {}]
CORPUS_FIELDS = [("id",), ("d_a",), ("d_p",), ("mentions",), ("pairs",),
                 ("mentions", 1, "index"), ("mentions", 1, "type"),
                 ("mentions", 1, "gold_entity"), ("mentions", 1, "features_a"),
                 ("mentions", 1, "features_a", 0), ("pairs", 0, "j"), ("pairs", 0, "i"),
                 ("pairs", 0, "features"), ("pairs", 0, "features", 0)]
MODEL_FIELDS = [("format",), ("version",), ("d_a",), ("d_p",), ("hidden_a",), ("hidden_p",),
                ("w_a",), ("b_a",), ("w_p",), ("b_p",), ("u",), ("u_0",), ("v",), ("v_0",),
                ("w_a", 0), ("u", 1)]


def _saved_record(save) -> dict:
    """The JSON record that ``save(path)`` writes on its last line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(path)
        return json.loads(path.read_text(encoding="utf-8").splitlines()[-1])


# d_a = d_p = 1 and every model size 1, so that true (which equals 1) and
# 1.0 are the right numbers and only their types are wrong
CORPUS_RECORD = _saved_record(lambda path: save_corpus(generate_synthetic(SyntheticConfig(
    num_docs=1, mentions_per_doc=(3, 3), entities_per_doc=(2, 2), d_a=1, d_p=1, seed=3)), path))
MODEL_RECORD = _saved_record(ModelParams.random(1, 1, hidden_a=1, hidden_p=1, seed=2).save)


def _lookup(record, field: tuple):
    for step in field:
        record = record[step]
    return record


def _replaced(record: dict, field: tuple, value) -> dict:
    record = json.loads(json.dumps(record))
    _lookup(record, field[:-1])[field[-1]] = value
    return record


def _replacements(record: dict, fields: list, valid: list) -> list:
    """(field, value) for every field and replacement, and for each integer
    field the same number as a float (1 -> 1.0), but for the (last step,
    value) pairs in ``valid``, which load as they should."""
    cases = []
    for field in fields:
        original = _lookup(record, field)
        extra = [float(original)] if type(original) is int else []
        cases += [(field, value) for value in REPLACEMENTS + extra
                  if (field[-1], value) not in valid]
    return cases


@pytest.mark.parametrize("field, value", _replacements(
    CORPUS_RECORD, CORPUS_FIELDS, [("id", "1"), (0, 1.5)]), ids=str)
def test_no_malformed_corpus_field_loads(tmp_path, field, value):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(CORPUS_RECORD) + "\n"
                    + json.dumps(_replaced(CORPUS_RECORD, field, value)) + "\n")
    with pytest.raises(FormatError) as exc:
        load_corpus(path)
    assert (exc.value.path, exc.value.line) == (path, 2)
    assert str(exc.value).startswith(f"{path}:2: ")


def test_the_valid_corpus_record_and_its_alias_load(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(CORPUS_RECORD) + "\n")
    (doc,) = load_corpus(path)
    assert (doc.d_a, doc.d_p, doc.n) == (1, 1, 3)
    assert doc.mentions[0].gold_entity == 1
    alias = _replaced(CORPUS_RECORD, ("mentions", 0, "gold_entity"), "new")
    alias["pairs"].reverse()
    path.write_text(json.dumps(alias) + "\n")
    assert load_corpus(path) == [doc]


@pytest.mark.parametrize("field, value", _replacements(
    MODEL_RECORD, MODEL_FIELDS, [("u_0", 1.5), ("v_0", 1.5), (0, 1.5), (1, 1.5)]), ids=str)
def test_no_malformed_model_field_loads(tmp_path, field, value):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_replaced(MODEL_RECORD, field, value)))
    with pytest.raises(FormatError) as exc:
        ModelParams.load(path)
    assert exc.value.path == path and str(exc.value).startswith(f"{path}: ")


def test_the_valid_model_record_loads(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_RECORD))
    assert ModelParams.load(path).num_params == 9


def test_the_readers_test_no_value_type_themselves():
    """``_doc_from_record`` and ``ModelParams.load`` leave the type of every
    value to the rules that the Python constructors share; ``load`` looks
    only at whether the file holds a JSON object."""
    for function in (_doc_from_record, ModelParams.load):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        calls = [(node.func.id, [ast.unparse(arg) for arg in node.args])
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in ("type", "isinstance", "str")]
        assert calls in ([("str", ["exc"])], [("isinstance", ["record", "dict"])]), calls
