"""A standing fuzz gate for the file readers and the CLI.

Mutated corpus, model and CoNLL files, and out-of-range flag values, go
through ``cli.run``.  Whatever the input, ``run`` returns 0; or 1 with
``error: `` on stderr; or 2 for a training run that diverged or a
gradient check that failed.  It never raises.  A flag value outside its
documented range is always exit 1.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, ModelParams, SyntheticConfig, generate_synthetic,
                       save_corpus, write_conll_responses)
from softcoref.cli import run

D_A, D_P = 3, 2

TOKENS = [b"NaN", b"Infinity", b"1e400", b"-1", b"0", b"2", b"0.5", b"9223372036854775808",
          b"true", b"null", b'"x"', b"[]", b"{}", b"[1]", b",", b":", b"(", b")", b"(1",
          b"1)", b"|", b"-", b"\n", b"\r\n", b"\t", b" ", b"\xff", b"\xc3",
          b"#end document\n", b"#begin document (d)\n"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

SEEDS = [0, 7, -1, -(2 ** 70), 2 ** 64, 2 ** 200]
TOLS = ["1e-5", "1e-300", "1e300", "nan", "0", "-0.5", "inf", "-inf"]
NOISES = ["0.1", "0", "1e3", "nan", "inf", "-0.1"]

# command -> (argv after the command name, files it reads)
COMMANDS = {
    "generate": (["--docs", 2, "--mentions", 2, 2, "--entities", 1, 2, "--da", D_A,
                  "--dp", D_P, "--out", "{out}"], ()),
    "train": (["--corpus", "{corpus}", "--out", "{out}"], ("corpus",)),
    "train --dev": (["--corpus", "{corpus}", "--dev", "{corpus}", "--out", "{out}",
                     "--history", "{out}.csv"], ("corpus",)),
    "train --init": (["--corpus", "{corpus}", "--init", "{model}", "--out", "{out}"],
                     ("corpus", "model")),
    "gradcheck": (["--corpus", "{corpus}"], ("corpus",)),
    "gradcheck --model": (["--corpus", "{corpus}", "--model", "{model}"],
                          ("corpus", "model")),
    "evaluate": (["--corpus", "{corpus}", "--model", "{model}"], ("corpus", "model")),
    "errors": (["--corpus", "{corpus}", "--model", "{model}"], ("corpus", "model")),
    "score": (["--key", "{key}", "--response", "{response}", "--csv"], ("key", "response")),
}
SMALL = {"train": ["--epochs", 1, "--hidden-a", 2, "--hidden-p", 2],
         "gradcheck": ["--hidden-a", 2, "--hidden-p", 2]}


@pytest.fixture(scope="module")
def base_files(tmp_path_factory) -> dict[str, bytes]:
    """Valid inputs: 2-mention documents, a hidden 2/2 model, CoNLL files."""
    tmp = tmp_path_factory.mktemp("fuzz-base")
    save_corpus(generate_synthetic(SyntheticConfig(
        num_docs=2, mentions_per_doc=(2, 2), entities_per_doc=(1, 2), d_a=D_A, d_p=D_P,
        seed=5)), tmp / "corpus")
    ModelParams.random(D_A, D_P, hidden_a=2, hidden_p=2, seed=5).save(tmp / "model")
    write_conll_responses([("a", Clustering([{1, 2}, {3}])), ("b", Clustering([{1}]))],
                          tmp / "key")
    write_conll_responses([("a", Clustering([{1}, {2, 3}])), ("b", Clustering([{1}]))],
                          tmp / "response")
    return {name: (tmp / name).read_bytes() for name in ("corpus", "model", "key", "response")}


def mutate(data: bytes, kind: str, at: int, size: int, token: bytes) -> bytes:
    """Truncate, splice a token in, replace a run of bytes with it, flip a
    byte, or swap one of the numbers for the token."""
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "splice":
        return data[:at] + token + data[at:]
    if kind == "replace":
        return data[:at] + token + data[at + size:]
    if kind == "flip":
        at %= len(data)
        return data[:at] + bytes([data[at] ^ size]) + data[at + 1:]
    numbers = list(NUMBER.finditer(data))
    hit = numbers[at % len(numbers)]
    return data[:hit.start()] + token + data[hit.end():]


def outcome(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), target=st.integers(0, 2),
       kind=st.sampled_from(["truncate", "splice", "replace", "flip", "number"]),
       at=st.integers(0, 2 ** 16), size=st.integers(1, 255), token=st.sampled_from(TOKENS),
       seed=st.sampled_from(SEEDS), tol=st.sampled_from(TOLS), noise=st.sampled_from(NOISES))
def test_cli_exits_with_a_documented_code(base_files, command, target, kind, at, size, token,
                                          seed, tol, noise):
    name = command.split()[0]
    flags, reads = COMMANDS[command]
    extra = SMALL.get(name, [])
    bad_flag = False
    if name in ("generate", "train", "gradcheck"):
        extra = extra + ["--seed", seed]
        bad_flag = seed < 0
    if name == "gradcheck":
        extra = extra + ["--tol", tol]
        bad_flag |= not 0 < float(tol) < math.inf
    if name == "generate":
        extra = extra + ["--noise", noise]
        bad_flag |= not 0 <= float(noise) < math.inf
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": Path(tmp) / "out"}
        for file, data in base_files.items():
            if reads and file == reads[target % len(reads)]:
                data = mutate(data, kind, at, size, token)
            paths[file] = Path(tmp) / file
            paths[file].write_bytes(data)
        argv = [name] + [str(arg).format(**paths) for arg in flags] + extra
        code, out, err = outcome(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert not bad_flag and not err, (argv, err)
    elif code == 1:
        assert err.startswith("error: "), (argv, err)
    else:
        failed_check = name == "gradcheck" and "FAIL" in out
        # every TrainingError message starts "non-finite"
        diverged = name == "train" and err.startswith("error: non-finite ")
        assert (failed_check or diverged) and not bad_flag, (argv, out, err)
