"""scripts/fingerprint.py: the same process fingerprints the same run
identically, and --against reports drift per artifact."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "scripts" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = dict(short_docs=(4, 2, 6), long_docs=(1, 1, 2), epochs=1)


def test_two_runs_in_one_process_are_identical(fingerprint):
    first, second = fingerprint.fingerprint(**SMALL), fingerprint.fingerprint(**SMALL)
    assert json.dumps(first) == json.dumps(second)
    assert sorted(first) == sorted(
        [f"{kind}/{loss}" for kind in ("params", "history")
         for loss in ("mr-heuristic", "ec-heuristic", "b3", "lea")]
        + ["evaluate/long", "evaluate/short", "params/long", "params/long-relaxed",
           "params/one-pair", "params/recipe", "params/recipe-short", "params/short",
           "predict/edge", "predict/edited", "predict/long", "predict/short", "predict/wide",
           "relaxed/scores", "sweep/b3"])
    assert len(first["sweep/b3"]) == 2 * (1 + 3 * 6 + 1)
    # the edited model's pass differs; the restored one is the first again
    passes = first["predict/edited"]
    before, edited, restored = (passes[k * 6:(k + 1) * 6] for k in range(3))
    assert before == restored == first["predict/short"] != edited
    assert all(fingerprint.drift(name, value, second[name]) == "identical"
               for name, value in first.items())


def test_drift_names_what_moved(fingerprint):
    assert fingerprint.drift("params/b3", [1.0, 2.0], [1.0, 2.5]) == (
        "largest drift 5.000e-01 (largest |value| 2.500e+00)")
    old = "epoch,loss\n1,0.5\n2,nan\n"
    assert fingerprint.drift("history/lea", "epoch,loss\n1,0.25\n2,nan\n", old) == (
        "largest drift 2.500e-01 (largest |value| 2.000e+00)")
    assert fingerprint.drift("predict/long", [[1, 1, 2], [1]], [[1, 1, 1], [1]]) == (
        "1 of 4 antecedents differ")
    assert fingerprint.drift("evaluate/short", ["0x1.8p+0", "0x1.0p-1"],
                             ["0x1.0p+0", "0x1.0p-1"]) == (
        "largest drift 5.000e-01 (largest |value| 1.000e+00)")
    cases = [[1, 0.5, 1.0] + [1.0] * 6, [2, 0.5, 1.0] + [0.5] * 6]
    moved = [cases[0], cases[1][:3] + [0.5] * 5 + [0.75]]
    assert fingerprint.drift("relaxed/scores", moved, cases) == (
        "1 of 2 cases differ, 1 by more than 1e-12, largest drift 2.500e-01 "
        "at n 2, T 0.5, beta 1")
    assert fingerprint.drift("relaxed/scores", cases[:1], cases) == "different cases"


def test_relaxed_drift_counts_the_large_moves_and_names_the_worst_case(fingerprint):
    cases = [[n, 0.01 * n, 4.0 / n] + [0.5] * 6 for n in range(1, 6)]
    moved = [list(case) for case in cases]
    moved[0][3] += 1e-15  # below the reported threshold
    moved[2][8] += 2e-9
    moved[4][5] -= 3e-12
    assert fingerprint.drift("relaxed/scores", moved, cases) == (
        "3 of 5 cases differ, 2 by more than 1e-12, largest drift 2.000e-09 "
        "at n 3, T 0.03, beta 1.33")


def test_score_runs_repeat_and_drift_names_the_cases(fingerprint):
    first, second = fingerprint.score_runs(count=4), fingerprint.score_runs(count=4)
    assert first == second
    outcomes = {name: (code, out, err) for name, code, out, err in first}
    assert all(outcomes[f"pair-{n}"][0] == 0 and outcomes[f"pair-{n}"][1] for n in range(4))
    assert outcomes["id-2**63"][0] == 1
    assert outcomes["id-2**63"][2].startswith("error: <dir>/response.conll:3: document 'd': ")
    assert outcomes["not-utf8-after-8-kib"][2] == (
        "error: <dir>/response.conll: not UTF-8 text (invalid start byte)\n")
    moved = [list(run) for run in first]
    moved[1][2] += "x"
    assert fingerprint.drift("score/csv", moved, first) == (
        f"1 of {len(first)} runs differ: pair-1")


def test_train_runs_and_file_bytes_repeat(fingerprint):
    runs = fingerprint.train_runs()
    assert runs == fingerprint.train_runs()
    assert [run[:2] for run in runs] == [["dev", 0], ["no-dev", 0]]
    assert "; best dev CoNLL " in runs[0][2] and "; final mean loss " in runs[1][2]
    assert all(run[2].endswith("wrote model to <dir>/model.json\n") for run in runs)
    files = fingerprint.file_bytes()
    assert files == fingerprint.file_bytes()
    assert sorted(files) == ["bytes/model_save", "bytes/save_corpus"]
    moved = [list(run) for run in runs]
    moved[1][2] += "x"
    assert fingerprint.drift("train/stdout", moved, runs) == "1 of 2 runs differ: no-dev"


def test_drift_of_file_bytes_names_the_first_difference(fingerprint):
    assert fingerprint.drift("bytes/model_save", '{"a": 1.5}', '{"a": 1.25}') == (
        "first difference at character 8 (10 vs 11 characters)")
    assert fingerprint.drift("bytes/save_corpus", "ab\n", "ab") == (
        "first difference at character 2 (3 vs 2 characters)")


def test_corpus_reports_repeat_and_drift_counts_the_corpora(fingerprint):
    first = fingerprint.corpus_reports(count=20)
    assert first == fingerprint.corpus_reports(count=20)
    # per beta 6 x (P, R, F) and CoNLL, then 4 LEA counts per document
    assert all(len(case) > 38 and (len(case) - 38) % 4 == 0 for case in first)
    moved = [list(case) for case in first]
    moved[3][5] = (float.fromhex(moved[3][5]) + 0.5).hex()
    assert fingerprint.drift("report/corpus", moved, first) == "1 of 20 corpora differ"


def test_against_reports_new_and_missing_artifacts(fingerprint):
    old = {"params/b3": [1.0, 2.0], "bytes/model_save": "{}"}
    lines, code = fingerprint.compare({**old, "report/corpus": [["0x1p+0"]]}, old)
    assert code == 0
    assert [line.split()[-1] for line in lines] == ["identical", "identical", "new"]
    lines, code = fingerprint.compare({"params/b3": [1.0, 2.0]}, old)
    assert code == 1
    assert lines[-1].split() == ["bytes/model_save", "missing"]
    _, code = fingerprint.compare({**old, "params/b3": [1.0, 2.5]}, old)
    assert code == 1


def test_load_runs_repeat_and_exit_1_naming_the_file(fingerprint):
    runs = fingerprint.load_runs()
    assert runs == fingerprint.load_runs()
    kinds = {name: kind for name, kind, _ in fingerprint.LOAD_CASES}
    assert [run[0] for run in runs] == list(kinds)
    prefixes = {"corpus": "error: <dir>/corpus.jsonl:2: ", "model": "error: <dir>/model.json: "}
    for name, code, out, err in runs:
        assert (code, out) == (1, "") and err.startswith(prefixes[kinds[name]]), name
        assert err.count("\n") == 1, name
    outcomes = {name: err for name, _, _, err in runs}
    assert outcomes["id-null"].endswith("document id None is not a string\n")
    assert outcomes["version-bool"].endswith("model version True is not an integer\n")
    moved = [list(run) for run in runs]
    moved[2][3] += "x"
    assert fingerprint.drift("load/errors", moved, runs) == (
        f"1 of {len(runs)} runs differ: {runs[2][0]}")
