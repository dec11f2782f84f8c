"""Each rule about settings has one owner: every public entry point that
takes beta or the temperature rejects a value out of range with the same
ConfigError and message, and only ``errors._check_range`` compares a
value with infinity."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import softcoref.analysis
from softcoref import (Clustering, ConfigError, ModelParams, TrainConfig, corpus_report,
                       document_loss, document_loss_and_grad, evaluate_corpus, f_beta,
                       grad_check, link_probabilities, membership, relaxed_b3, relaxed_lea,
                       tempered_membership)

from conftest import small_corpus

SRC = Path(__file__).resolve().parents[1] / "src" / "softcoref"


def _entry_points():
    """(id, setting, call) for every public entry point that takes beta or
    the temperature; ``call(value)`` passes ``value`` as that setting."""
    doc = small_corpus(1, seed=2)[0]
    params = ModelParams.random(doc.d_a, doc.d_p, hidden_a=3, hidden_p=4, seed=2)
    memberships = membership(link_probabilities(np.zeros((3, 3))))
    gold = Clustering([{1, 2}, {3}])
    pairs = [(doc.gold_clusters, doc.gold_clusters)]
    return [
        ("f_beta", "beta", lambda v: f_beta(0.5, 0.5, v)),
        ("corpus_report", "beta", lambda v: corpus_report(pairs, beta=v)),
        ("evaluate_corpus", "beta", lambda v: evaluate_corpus([doc], params, beta=v)),
        ("tempered_membership", "temperature", lambda v: tempered_membership(memberships, v)),
        *[(f"{fn.__name__}/{setting}", setting,
           lambda v, fn=fn, setting=setting: fn(memberships, gold, **{setting: v}))
          for fn in (relaxed_b3, relaxed_lea) for setting in ("beta", "temperature")],
        *[(f"{fn.__name__}/{setting}", setting,
           lambda v, fn=fn, setting=setting: fn(doc, params, "b3", **{setting: v}))
          for fn in (document_loss, document_loss_and_grad, grad_check)
          for setting in ("beta", "temperature")],
        *[(f"TrainConfig/{setting}", setting,
           lambda v, setting=setting: TrainConfig(loss="lea", **{setting: v}))
          for setting in ("beta", "temperature")],
    ]


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("setting, call", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_beta_and_temperature_share_one_rule(setting, call, value):
    message = f"{setting} must be positive and finite, got {value}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


def test_evaluate_corpus_checks_beta_before_predicting(monkeypatch):
    docs = small_corpus(3, seed=4)
    params = ModelParams.random(docs[0].d_a, docs[0].d_p, hidden_a=3, hidden_p=4, seed=4)

    def no_decoding(*args):
        raise AssertionError("decoded a document before checking beta")

    monkeypatch.setattr(softcoref.analysis, "_predict_corpus", no_decoding)
    monkeypatch.setattr(softcoref.analysis, "_contingency", no_decoding)
    with pytest.raises(ConfigError, match="^beta must be positive, got 0$"):
        evaluate_corpus(docs, params, beta=0)
    with pytest.raises(ConfigError, match="^beta must be positive and finite, got nan$"):
        corpus_report([(docs[0].gold_clusters, docs[0].gold_clusters)], beta=float("nan"))


def _is_infinity(node: ast.AST) -> bool:
    """``math.inf``, ``np.inf`` or ``numpy.inf``, negated or not."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("math", "np", "numpy"))


def _comparisons_with_infinity(tree: ast.AST):
    """(enclosing function, line) of every comparison with infinity."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                    map(_is_infinity, [child.left, *child.comparators])):
                yield function, child.lineno
            yield from walk(child, function)
    yield from walk(tree, None)


def test_only_the_range_helper_compares_with_infinity():
    found = {path.name: list(_comparisons_with_infinity(ast.parse(path.read_text("utf-8"))))
             for path in sorted(SRC.glob("*.py"))}
    assert found["errors.py"] == [("_check_range", found["errors.py"][0][1])]
    elsewhere = [f"{name}:{line} in {function}" for name, hits in found.items()
                 for function, line in hits if name != "errors.py"]
    assert not elsewhere, f"range checks outside errors._check_range: {elsewhere}"


def test_the_infinity_scan_sees_a_restated_rule():
    tree = ast.parse("def f(beta):\n    if not 0 < beta < np.inf:\n        pass\n"
                     "x = [t for t in y if t >= -math.inf]\n")
    assert list(_comparisons_with_infinity(tree)) == [("f", 2), (None, 4)]
