"""Each rule about settings has one owner: every public entry point that
takes beta or the temperature rejects a value out of range with the same
ConfigError and message, and only ``errors._check_range`` compares a
value with infinity.  Every setting of the config classes,
``ModelParams.random`` and ``zeros``, ``grad_check`` and the ``generate``
and ``gradcheck`` flags goes through one of the three rules of
``errors``, so a malformed value of any of them is a ConfigError (exit 1
at the CLI)."""

import ast
import contextlib
import inspect
import io
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softcoref.analysis
import softcoref.cli
from softcoref import (LOSS_KINDS, Clustering, ConfigError, CostConfig, ModelParams,
                       SyntheticConfig, TrainConfig, corpus_report, document_loss,
                       document_loss_and_grad, evaluate_corpus, f_beta, grad_check,
                       link_probabilities, membership, relaxed_b3, relaxed_lea, save_corpus,
                       tempered_membership)
from softcoref.cli import run

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
    with pytest.raises(ConfigError, match="^beta must be positive and finite, got 0$"):
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


# ---------------------------------------------------------------------------
# One property over the settings surface
# ---------------------------------------------------------------------------

_DOC = small_corpus(1, seed=5)[0]
_PARAMS = ModelParams.random(_DOC.d_a, _DOC.d_p, hidden_a=3, hidden_p=4, seed=5)
_SIZES = dict(d_a=2, d_p=3, hidden_a=2, hidden_p=3)

# surface -> call(name, value): ``value`` as that setting, every other one valid
SURFACES = {
    "TrainConfig": lambda name, v: TrainConfig(**{name: v}),
    "SyntheticConfig": lambda name, v: SyntheticConfig(**{"num_docs": 1, name: v}),
    "CostConfig": lambda name, v: CostConfig(**{name: v}),
    "ModelParams.random": lambda name, v: ModelParams.random(**{**_SIZES, name: v}),
    "ModelParams.zeros": lambda name, v: ModelParams.zeros(**{**_SIZES, name: v}),
    "grad_check": lambda name, v: grad_check(
        _DOC, _PARAMS, **{"kind": "mr-heuristic", "max_coords": 3, name: v}),
}

# (surface, setting, rule); int0/int1 are integers >= 0 / >= 1, positive and
# nonneg finite reals, pair and triple the length rule over integer bounds
# and nonnegative costs
SETTINGS = [
    *[("TrainConfig", name, rule) for name, rule in [
        ("loss", "kind"), ("beta", "positive"), ("temperature", "positive"),
        ("learning_rate", "positive"), ("epochs", "int1"), ("lam", "nonneg"),
        ("seed", "int0"), ("hidden_a", "int1"), ("hidden_p", "int1"),
        ("init_scale", "nonneg"), ("init_model", "model"), ("costs", "costs")]],
    *[("SyntheticConfig", name, rule) for name, rule in [
        ("num_docs", "int0"), ("mentions_per_doc", "pair"), ("entities_per_doc", "pair"),
        ("d_a", "int1"), ("d_p", "int1"), ("noise", "nonneg"), ("seed", "int0")]],
    ("CostConfig", "alphas", "triple"), ("CostConfig", "gammas", "triple"),
    *[(surface, name, "int0") for surface in ("ModelParams.random", "ModelParams.zeros")
      for name in _SIZES],
    ("ModelParams.random", "scale", "nonneg"), ("ModelParams.random", "seed", "seeds"),
    *[("grad_check", name, rule) for name, rule in [
        ("kind", "kind"), ("h", "step"), ("seed", "int0"), ("costs", "costs"),
        ("beta", "positive"), ("temperature", "positive"), ("max_coords", "int1")]],
]

# how a message names a setting whose field name it does not use
_NAMES = {"loss": "loss kind", "kind": "loss kind", "learning_rate": "learning rate",
          "lam": "l1 weight", "init_scale": "init scale", "noise": "noise level",
          "h": "step size"}

_NON_NUMBERS = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([]),
                         st.lists(st.integers(0, 3), min_size=1, max_size=3))
_FLOATS = st.floats()  # a float, 2.0 too, is not an integer


def _integers(minimum: int):
    return st.one_of(_NON_NUMBERS, _FLOATS, st.integers(max_value=minimum - 1),
                     st.just(np.int64(minimum - 1)))


def _reals(positive: bool):
    return st.one_of(_NON_NUMBERS, st.floats(max_value=0.0, exclude_max=not positive),
                     st.integers(max_value=0 if positive else -1),
                     st.sampled_from([math.nan, math.inf, np.float64(-1.0)]))


def _sequences(length: int, valid, invalid):
    """Anything but a list, tuple or array of ``length`` valid entries."""
    wrong_length = st.lists(valid, max_size=length + 2).filter(lambda s: len(s) != length)
    one_bad = st.builds(lambda entries, bad, at: (*entries[:at], bad, *entries[at:]),
                        st.lists(valid, min_size=length - 1, max_size=length - 1), invalid,
                        st.integers(0, length - 1))
    return st.one_of(wrong_length, wrong_length.map(tuple), one_bad, st.integers(),
                     st.floats(), st.none(), st.booleans(),
                     st.text(min_size=length, max_size=length))


_NOT_KINDS = st.one_of(st.text(max_size=12).filter(lambda s: s not in LOSS_KINDS),
                       st.none(), st.integers(), st.booleans(),
                       st.lists(st.sampled_from(LOSS_KINDS), max_size=2))
_NOT_COSTS = st.one_of(st.integers(), st.text(max_size=3), st.booleans(),
                       st.lists(st.floats(0, 1), min_size=3, max_size=3),
                       st.just(CostConfig().alphas))
MALFORMED = {
    "int0": _integers(0), "int1": _integers(1),
    "positive": _reals(True), "nonneg": _reals(False),
    "step": st.one_of(_reals(True), st.sampled_from([1e-7, 2e-4, 1.0])),
    "pair": st.one_of(_sequences(2, st.integers(1, 5), _integers(1)), st.just((3, 2))),
    "triple": _sequences(3, st.floats(0, 5), _reals(False)),
    "seeds": st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([]), _FLOATS,
                       st.integers(max_value=-1),
                       st.builds(lambda seeds, bad: [*seeds, bad],
                                 st.lists(st.integers(0, 5), max_size=2),
                                 st.one_of(st.integers(max_value=-1), _FLOATS, st.booleans()))),
    "kind": _NOT_KINDS, "costs": _NOT_COSTS,
    "model": st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.just([]),
                       st.just(_PARAMS.to_vector())),
}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(SETTINGS).flatmap(
    lambda setting: st.tuples(st.just(setting), MALFORMED[setting[2]])))
@example(case=(("SyntheticConfig", "mentions_per_doc", "pair"), (1, 2, 3)))
@example(case=(("SyntheticConfig", "mentions_per_doc", "pair"), 5))
@example(case=(("ModelParams.random", "seed", "seeds"), []))
@example(case=(("CostConfig", "alphas", "triple"), 5))
@example(case=(("grad_check", "seed", "int0"), 1.5))
@example(case=(("TrainConfig", "lam", "nonneg"), True))
@example(case=(("TrainConfig", "loss", "kind"), ["b3"]))
@example(case=(("SyntheticConfig", "noise", "nonneg"), "x"))
def test_every_malformed_setting_is_a_config_error(case):
    """A malformed value is a ConfigError naming the setting; it used to
    escape as a bare TypeError or ValueError, or be accepted, for some."""
    (surface, name, _), value = case
    with pytest.raises(ConfigError) as caught:
        SURFACES[surface](name, value)
    assert _NAMES.get(name, name) in str(caught.value)


# one valid numpy value per rule: numpy integers and floats pass every rule
_NUMPY = {"int0": np.int64(0), "int1": np.int32(2), "positive": np.float64(0.5),
          "nonneg": np.float32(0.0), "step": np.float64(1e-5),
          "pair": (np.int64(2), np.uint8(3)), "triple": np.array([0.1, 3.0, 1.0]),
          "seeds": np.array([3, 0])}


@pytest.mark.parametrize("surface, name, rule", [s for s in SETTINGS if s[2] in _NUMPY],
                         ids=[f"{s[0]}/{s[1]}" for s in SETTINGS if s[2] in _NUMPY])
def test_numpy_values_pass_every_rule(surface, name, rule):
    SURFACES[surface](name, _NUMPY[rule])


def _outcome(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789.", max_size=12)


def _flag_values(rule: str):
    """Malformed values of a flag, as argument lists (the ranges take two)."""
    bad_int = st.one_of(st.sampled_from(["x", "", "1.5", "True", "nan", "2e3"]),
                        st.integers(max_value=-1).map(str))
    if rule == "int1":
        bad_int = st.one_of(bad_int, st.just("0"))
    bad_real = st.one_of(st.sampled_from(["x", "", "nan", "inf", "True", "-1"]),
                         st.floats(max_value=0.0, exclude_max=True,
                                   allow_infinity=False).map(repr))
    if rule in ("positive", "step"):
        bad_real = st.one_of(bad_real, st.sampled_from(["0", "-0.0"]))
    if rule == "step":
        bad_real = st.one_of(bad_real, st.sampled_from(["1e-7", "0.001"]))
    if rule == "pair":
        good = st.integers(1, 5).map(str)
        return st.one_of(st.lists(good, min_size=1, max_size=1),
                         st.lists(good, min_size=3, max_size=3),
                         st.tuples(bad_int, good).map(list), st.tuples(good, bad_int).map(list),
                         st.just(["4", "2"]))
    if rule == "kind":
        return _WORDS.filter(lambda s: s not in LOSS_KINDS).map(lambda s: [s])
    return (bad_int if rule.startswith("int") else bad_real).map(lambda s: [s])


# command -> (valid argv, {flag: rule})
_COMMANDS = {
    "generate": (["generate", "--docs", 1, "--out", "{tmp}/out.jsonl"],
                 {"--docs": "int0", "--seed": "int0", "--da": "int1", "--dp": "int1",
                  "--noise": "nonneg", "--mentions": "pair", "--entities": "pair"}),
    "gradcheck": (["gradcheck", "--corpus", "{tmp}/corpus.jsonl", "--hidden-a", 2,
                   "--hidden-p", 2],
                  {"--ndocs": "int1", "--seed": "int0", "--tol": "positive",
                   "--beta": "positive", "--temp": "positive", "--h": "step",
                   "--hidden-a": "int0", "--hidden-p": "int0", "--loss": "kind"}),
}
_FLAGS = [(command, flag, rule) for command, (_, rules) in _COMMANDS.items()
          for flag, rule in rules.items()]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("settings-cli")
    save_corpus(small_corpus(2, seed=6), tmp / "corpus.jsonl")
    return tmp


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(_FLAGS).flatmap(
    lambda flag: st.tuples(st.just(flag), _flag_values(flag[2]))))
def test_every_malformed_flag_exits_1_with_one_error_line(cli_dir, case):
    (command, flag, _), values = case
    argv, _ = _COMMANDS[command]
    code, out, err = _outcome([str(a).format(tmp=cli_dir) for a in argv] + [flag, *values])
    assert (code, out) == (1, ""), (flag, values, code, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert not (cli_dir / "out.jsonl").exists()


_RULES_ONLY = [TrainConfig.__post_init__, SyntheticConfig.__post_init__,
               CostConfig.__post_init__, ModelParams.random.__func__, grad_check,
               softcoref.cli._cmd_gradcheck, softcoref.cli._cmd_generate]


@pytest.mark.parametrize("function", _RULES_ONLY, ids=lambda f: f.__qualname__)
def test_integer_settings_meet_their_bounds_only_in_the_rules(function):
    """No setting is compared with an integer literal outside ``errors``:
    a bound of its own would restate the rule, and could drift from it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    literals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for side in (node.left, *node.comparators)
                if isinstance(side, ast.Constant) and type(side.value) is int]
    assert not literals, f"{function.__qualname__} compares with an integer at {literals}"
