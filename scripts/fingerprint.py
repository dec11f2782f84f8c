#!/usr/bin/env python3
"""Fingerprints of what training and prediction produce, for identity checks.

Records, as SHA-1 digests and as the raw values behind them:

  * for each of the four losses, the parameters that ``train`` returns on
    a small synthetic corpus (n 8-16, hidden 24/32, dev selection every
    epoch) and the bytes of that run's ``history.to_csv()``;
  * for each of the four losses, the parameters that ``train`` returns on
    documents of 2-3 mentions (hidden 24/32, dev selection every epoch),
    whose one-row blocks of the pair layer run through BLAS's GEMV rather
    than GEMM, so that a change in how GEMV groups the layer's sums shows;
  * the dev reports that ``beta_sweep`` returns for the b3 loss at two
    betas on the same corpus;
  * the parameters of the benchmark's two-stage recipe on that corpus:
    mr-heuristic, then b3 at T = 0.5 from its result through
    ``init_model``;
  * the parameters of an mr-heuristic model trained at short-document
    sizes (n 8-16, hidden 200/700) and of one trained at long-document
    sizes (n 100-200, hidden 24/32), and of the recipe's b3 stage from
    the short-size model, so that drift in the last bits of training at
    hidden 700 shows;
  * the parameters of the benchmark's long recipe at long-document
    sizes: ec-heuristic, then lea at T = 0.5 from its result, so that
    the relaxed losses' gradients over pair rows that span several
    blocks of the pair layer show;
  * the ``predict_antecedents`` tuples of a test corpus at each of those
    sizes under that size's model, and ``float.hex`` of every P, R and F
    and the CoNLL score of ``evaluate_corpus`` on that corpus under that
    model, which decodes the corpus in one pass rather than one document
    at a time;
  * the ``predict_antecedents`` tuples of the short-size model on 20
    wider documents (n 40-80), most of whose pair rows span several
    float32 blocks of the prediction pass;
  * the ``predict_antecedents`` tuples of the short-size test corpus
    from one copy of the short-size model, before in-place edits (u
    negated, a row of w_p zeroed), after them and after undoing them, so
    that predictions that outlive a change to the parameters show;
  * the ``predict_antecedents`` tuples of edge cases of the float32
    screen: documents of one and two mentions, a near tie of 2^-40, a
    model beyond float32, and documents whose pair rows reach 2^119,
    within a factor 2 of the screen's float32 limit;
  * the exit code (or the exception raised), stdout and stderr of
    ``softcoref score --csv`` on seeded CoNLL key/response files (nested,
    same-start and crossing spans, brackets stacked in either order, LF or
    CRLF lines, tab or space columns) and on a few malformed ones, and of
    ``softcoref train`` with and without ``--dev``;
  * the exit code, stdout and stderr of ``softcoref evaluate`` on one
    malformed corpus or model file per input rule (an id that is not a
    string, a declared dimension, an index or a version that is not an
    integer, a value that is not a JSON number, ...), so that a change to
    a reader's messages shows;
  * the bytes that ``save_corpus`` and ``ModelParams.save`` write;
  * the relaxed B3 and LEA (value, P, R) on a few thousand seeded random
    membership matrices; their drift counts the cases that moved and
    those that moved by more than 1e-12, and names the (n, T, beta) of
    the case that moved most;
  * ``float.hex`` of every P, R and F of ``corpus_report`` on a thousand
    seeded random corpora, and of ``lea_counts`` with singleton
    self-links; ``score --csv`` rounds to six digits, so this is what
    shows the exact scorers bit-identical.

``--against OLD.json`` compares a run with an earlier one and prints, for
each artifact, "identical" or its largest drift; an artifact that only
this run has is "new", and one that only the old file has is "missing".
softcoref is imported
from ``--src`` (default: ``src/`` of this checkout), and only long-standing
public names are used, so the same script fingerprints a parent commit
checked out with ``git worktree`` or ``git archive``:

    python scripts/fingerprint.py --src ../parent/src --out parent.json
    python scripts/fingerprint.py --against parent.json

A run takes a few seconds with one BLAS thread.  Exit code 1 when an
artifact of the old file drifted or is missing, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHORT = dict(mentions_per_doc=(8, 16), entities_per_doc=(3, 6))
LONG = dict(mentions_per_doc=(100, 200), entities_per_doc=(8, 20))
WIDE = dict(mentions_per_doc=(40, 80), entities_per_doc=(4, 12))
ONE_PAIR = dict(mentions_per_doc=(2, 3), entities_per_doc=(1, 2))


def _corpora(sizes: dict, counts: tuple[int, int, int], seed: int) -> list:
    """Train, dev and test corpora of ``counts`` documents."""
    from softcoref import SyntheticConfig, generate_synthetic
    return [generate_synthetic(SyntheticConfig(num_docs=count, seed=seed + k, **sizes))
            for k, count in enumerate(counts)]


def fingerprint(short_docs=(40, 20, 600), long_docs=(4, 4, 60), epochs=3) -> dict:
    """Artifact name -> raw value (parameter list, CSV text or antecedent
    lists).  ``short_docs`` and ``long_docs`` are train/dev/test counts."""
    from softcoref import (LOSS_KINDS, TrainConfig, beta_sweep, evaluate_corpus,
                           predict_antecedents, train)
    artifacts, trained = {}, {}
    train_docs, dev_docs, _ = _corpora(SHORT, short_docs[:2] + (0,), seed=1)
    for loss in LOSS_KINDS:
        config = TrainConfig(loss=loss, temperature=0.5, learning_rate=0.1, epochs=epochs,
                             hidden_a=24, hidden_p=32, seed=0)
        params, history = train(train_docs, dev_docs, config)
        trained[loss] = params
        artifacts[f"params/{loss}"] = params.to_vector().tolist()
        artifacts[f"history/{loss}"] = history.to_csv()
    one_pair = _corpora(ONE_PAIR, short_docs[:2], seed=30)
    artifacts["params/one-pair"] = [x for loss in LOSS_KINDS for x in train(
        *one_pair, replace(config, loss=loss))[0].to_vector().tolist()]
    sweep = artifacts["sweep/b3"] = []  # per beta: beta, P, R, F of each metric, CoNLL
    for beta, report in beta_sweep(train_docs, dev_docs, replace(config, loss="b3"),
                                   betas=(math.sqrt(0.8), 2.0)):
        sweep.extend([beta, *(x for _, prf in report.rows() for x in prf.as_tuple()),
                      report.conll])
    recipe, _ = train(train_docs, dev_docs, replace(config, loss="b3", learning_rate=0.02,
                                                    init_model=trained["mr-heuristic"]))
    artifacts["params/recipe"] = recipe.to_vector().tolist()
    for name, sizes, counts, hidden in (("short", SHORT, short_docs, (200, 700)),
                                        ("long", LONG, long_docs, (24, 32))):
        train_docs, dev_docs, test_docs = _corpora(sizes, counts, seed=10)
        config = TrainConfig(loss="mr-heuristic", learning_rate=0.1, epochs=epochs,
                             hidden_a=hidden[0], hidden_p=hidden[1], seed=0)
        params, _ = train(train_docs, dev_docs, config)
        artifacts[f"params/{name}"] = params.to_vector().tolist()
        artifacts[f"predict/{name}"] = [list(predict_antecedents(doc, params))
                                        for doc in test_docs]
        report = evaluate_corpus(test_docs, params)
        artifacts[f"evaluate/{name}"] = [float(x).hex() for _, prf in report.rows()
                                         for x in prf.as_tuple()] + [report.conll.hex()]
        if name == "short":
            recipe, _ = train(train_docs, dev_docs, replace(
                config, loss="b3", temperature=0.5, learning_rate=0.02, init_model=params))
            artifacts["params/recipe-short"] = recipe.to_vector().tolist()
            wide_docs, = _corpora(WIDE, (20,), seed=20)
            artifacts["predict/wide"] = [list(predict_antecedents(doc, params))
                                         for doc in wide_docs]
            artifacts["predict/edited"] = edited_predictions(params, test_docs)
        else:  # the benchmark's long recipe, whose relaxed stage spans several blocks
            entity, _ = train(train_docs, dev_docs, replace(config, loss="ec-heuristic"))
            relaxed, _ = train(train_docs, dev_docs, replace(
                config, loss="lea", temperature=0.5, learning_rate=0.02, init_model=entity))
            artifacts["params/long-relaxed"] = relaxed.to_vector().tolist()
    artifacts["predict/edge"] = edge_predictions()
    artifacts["relaxed/scores"] = relaxed_scores()
    return artifacts


def _singletons(n: int, pairs, d_a: int = 4, seed: int = 0):
    """A document of n singleton mentions with N(0, 1) features and the
    given (n(n-1)/2, d_p) pair matrix."""
    from softcoref import Document, Mention
    rng = np.random.default_rng(seed)
    mentions = [Mention(i, "proper", i, rng.normal(size=d_a)) for i in range(1, n + 1)]
    return Document(f"doc-{n}", mentions, np.asarray(pairs, dtype=float))


def edge_predictions() -> list:
    """``predict_antecedents`` of the float32 screen's edge cases."""
    from softcoref import ModelParams, predict_antecedents
    rng = np.random.default_rng(0)
    params = ModelParams.random(4, 3, hidden_a=5, hidden_p=6, scale=1.0, seed=0)
    cases = [(_singletons(n, rng.normal(size=(n * (n - 1) // 2, 3)), seed=n), params)
             for n in (1, 2, 12)]
    beyond = params.copy()
    beyond.w_p[1, 2] = 1e39  # finite in float64, beyond float32's 3.4e38
    cases.append((cases[-1][0], beyond))
    # mention 3's pair features with mentions 1 and 2 are 2^-40 apart
    rows, cols = np.tril_indices(8, k=-1)
    features = (0.1 * cols + 0.01 * rows)[:, None]
    features[1:3, 0] = 0.5, 0.5 + 2.0 ** -40
    tie = ModelParams(w_a=[[0.0] * 4], b_a=[0.0], w_p=[[1.0]], b_p=[0.0], u=[0.0, 1.0],
                      u_0=0.0, v=[0.0], v_0=-5.0)
    cases.append((_singletons(8, features), tie))
    # pair row 1 has ||w||_1 = 1 and b = 0, row 2 w = 0 and |b| = 2^119
    for sign in (1.0, -1.0):
        band = ModelParams(w_a=[[0.5] * 4], b_a=[0.0], w_p=[[1.0, 0.0], [0.0, 0.0]],
                           b_p=[0.0, sign * 2.0 ** 119], u=[0.3, 1.0, -0.5], u_0=0.0,
                           v=[0.2], v_0=-0.4)
        for n in (2, 9, 30):
            features = rng.normal(size=(n * (n - 1) // 2, 2))
            features[::3, 0] = rng.choice([-1.0, 1.0], size=len(features[::3])) * 2.0 ** 119
            cases.append((_singletons(n, features, seed=n), band))
    return [list(predict_antecedents(doc, model)) for doc, model in cases]


def edited_predictions(params, docs) -> list:
    """``predict_antecedents`` of ``docs`` from one copy of ``params``,
    three times: as it is, after in-place edits (u negated, row 0 of w_p
    zeroed) and after undoing them in place."""
    from softcoref import predict_antecedents
    edited = params.copy()
    passes = [[list(predict_antecedents(doc, edited)) for doc in docs]]
    row = edited.w_p[0].copy()
    edited.u *= -1.0
    edited.w_p[0] = 0.0
    passes.append([list(predict_antecedents(doc, edited)) for doc in docs])
    edited.u *= -1.0
    edited.w_p[0] = row
    passes.append([list(predict_antecedents(doc, edited)) for doc in docs])
    return [ants for predictions in passes for ants in predictions]


def relaxed_scores(seed: int = 0, count: int = 2000) -> list:
    """[n, T, beta, then (value, P, R) of ``relaxed_b3`` and of
    ``relaxed_lea``] on ``count`` seeded random membership matrices (n
    1-40, T 0.01-10, beta 0.25-4) against random gold clusterings."""
    from softcoref import (LinkDistribution, clusters_from_entity_ids, membership,
                           relaxed_b3, relaxed_lea)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(1, 41))
        temperature, beta = 10.0 ** rng.uniform(-2, 1), 4.0 ** rng.uniform(-1, 1)
        # Dirichlet link rows from normalised gamma draws, peaked to flat
        weights = np.tril(rng.gamma(10.0 ** rng.uniform(-1, 1), size=(n, n)))
        soft = membership(LinkDistribution(weights / weights.sum(axis=1, keepdims=True)))
        gold = clusters_from_entity_ids(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
        scores = [relaxed(soft, gold, beta, temperature) for relaxed in (relaxed_b3, relaxed_lea)]
        cases.append([n, temperature, beta]
                     + [x for r in scores for x in (r.value, r.precision, r.recall)])
    return cases


def corpus_reports(seed: int = 0, count: int = 1000) -> list:
    """Per corpus, ``float.hex`` of every P, R and F and the CoNLL score of
    ``corpus_report`` at beta 1 and 2, then of the four counts of each
    pair's ``lea_counts(..., singleton_self_links=True)``, on ``count``
    seeded random corpora of 1-8 documents (n 0-60, with n = 0 and 1
    common) whose responses are the gold clustering, all singletons,
    random, or gold with about a fifth of the mentions moved."""
    from softcoref import clusters_from_entity_ids, corpus_report, lea_counts
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        pairs = []
        for _ in range(int(rng.integers(1, 9))):
            n = int(rng.integers(0, 61 if rng.random() < 0.8 else 2))
            gold = rng.integers(0, int(rng.integers(1, n + 1)) if n else 1, size=n)
            kind = rng.integers(4)
            if kind == 0:
                response = gold
            elif kind == 1:
                response = np.arange(n)
            elif kind == 2:
                response = rng.integers(0, int(rng.integers(1, n + 1)) if n else 1, size=n)
            else:
                response = gold.copy()
                moved = rng.random(n) < 0.2
                response[moved] = n + rng.integers(0, 3, size=int(moved.sum()))
            pairs.append((clusters_from_entity_ids(gold), clusters_from_entity_ids(response)))
        values = []
        for beta in (1.0, 2.0):
            report = corpus_report(pairs, beta)
            values += [x for _, prf in report.rows() for x in prf.as_tuple()] + [report.conll]
        for gold, response in pairs:
            counts = lea_counts(gold, response, singleton_self_links=True)
            values += [counts.p_num, counts.p_den, counts.r_num, counts.r_den]
        cases.append([float(x).hex() for x in values])
    return cases


def _conll_block(rng: random.Random, doc_id: str, n_tokens: int, mentions, newline: str) -> str:
    """One CoNLL block; ``mentions`` are (start, end, entity).  Brackets on a
    token are stacked in random order, columns split by tabs or spaces."""
    tags: dict[int, list[str]] = {}
    for start, end, entity in mentions:
        if start == end:
            tags.setdefault(start, []).append(f"({entity})")
        else:
            tags.setdefault(start, []).append(f"({entity}")
            tags.setdefault(end, []).append(f"{entity})")
    sep = rng.choice(["\t", " ", "  "])
    lines = [f"#begin document ({doc_id}); part 000"]
    for t in range(1, n_tokens + 1):
        here = tags.get(t, [])
        rng.shuffle(here)
        # one entity's brackets match last-open-first: its closes go before its opens
        here.sort(key=lambda tag: tag[0] == "(")
        lines.append(sep.join([doc_id, "0", str(t - 1), f"w{t}", "|".join(here) or "-"]))
    return newline.join(lines + ["#end document"]) + newline


def _spans(rng: random.Random, n_tokens: int) -> list[tuple[int, int]]:
    """Distinct spans, nested, crossing or sharing a start."""
    spans = {(s, min(n_tokens, s + rng.randrange(4)))
             for s in (rng.randint(1, n_tokens) for _ in range(rng.randrange(2 * n_tokens)))}
    return sorted(spans)


def _entities(rng: random.Random, spans, k: int) -> list[int]:
    """An entity per span out of k, with a fresh one wherever a span would
    cross another of its entity."""
    labels = []
    for n, (start, end) in enumerate(spans):
        entity = rng.randrange(k)
        if any(e == entity and (s < start <= t < end or start < s <= end < t)
               for (s, t), e in zip(spans, labels)):
            entity = k + n
        labels.append(entity)
    return labels


def _score_files(seed: int, count: int) -> list[tuple[str, str, str]]:
    """(name, key text, response text) of ``count`` seeded pairs and of the
    malformed cases."""
    rng = random.Random(seed)
    cases = []
    for n in range(count):
        newline = rng.choice(["\n", "\r\n"])
        files = ["", ""]  # key, response: the same spans, each with its own entities
        for d in range(rng.randint(1, 4)):
            n_tokens = rng.randint(1, 40)
            spans = _spans(rng, n_tokens)
            k = rng.randint(1, 6)
            for side in (0, 1):
                mentions = [(s, e, lab) for (s, e), lab in zip(spans, _entities(rng, spans, k))]
                files[side] += _conll_block(rng, f"doc-{d}", n_tokens, mentions, newline)
        cases.append((f"pair-{n}", *files))
    good = "#begin document (d)\nw1\t(0\nw2\t(1)\nw3\t0)\n#end document\n"
    filler = "w\t-\n" * 3000  # pushes what follows past 8 KiB
    for name, bad in [
            ("tag-not-an-id", good.replace("(1)", "(x)")),
            ("left-open", good.replace("0)", "-")),
            ("close-not-open", good.replace("(0", "-")),
            ("no-end", good.replace("#end document\n", "")),
            ("end-without-begin", "#end document\n" + good),
            ("duplicate-span", good.replace("(1)", "(1)|(2)|(1)")),
            ("spans-differ", good.replace("(1)", "-")),
            ("id-2**63", good.replace("(1)", "(9223372036854775808)")),
            ("id-5000-digits", good.replace("(1)", "(" + "1" * 5000 + ")")),
            ("id-leading-zeros", good.replace("(1)", "(" + "0" * 30 + "1)")),
            ("not-utf8", good.replace("w2", "w\udcff2")),
            ("not-utf8-after-8-kib", good.replace("(1)", "(x)") + filler + "\udcff\n")]:
        cases.append((name, good, bad))
    return cases


def _run_cli(argv: list, tmp: str) -> list:
    """[exit code or exception, stdout, stderr] of ``cli.run(argv)``, with
    the directory ``tmp`` masked as ``<dir>``."""
    from softcoref.cli import run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([str(arg) for arg in argv])
        except Exception as exc:  # noqa: BLE001 - an escaped exception is the outcome
            code = f"raised {type(exc).__name__}"
    return [code] + [stream.getvalue().replace(tmp, "<dir>") for stream in (out, err)]


def score_runs(seed: int = 0, count: int = 24) -> list:
    """[name, exit code or exception, stdout, stderr] of ``softcoref score
    --csv`` on every pair of ``_score_files``."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        key, response = Path(tmp) / "key.conll", Path(tmp) / "response.conll"
        for name, key_text, response_text in _score_files(seed, count):
            key.write_bytes(key_text.encode("utf-8", "surrogateescape"))
            response.write_bytes(response_text.encode("utf-8", "surrogateescape"))
            runs.append([name] + _run_cli(["score", "--key", key, "--response", response,
                                           "--csv"], tmp))
    return runs


def train_runs(seed: int = 0) -> list:
    """[name, exit code or exception, stdout, stderr] of ``softcoref train``
    on a small synthetic corpus, with and without ``--dev``."""
    from softcoref import save_corpus
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        corpus, dev = Path(tmp) / "train.jsonl", Path(tmp) / "dev.jsonl"
        for docs, path in zip(_corpora(SHORT, (12, 6), seed), (corpus, dev)):
            save_corpus(docs, path)
        for name, flags in (("dev", ["--dev", dev]), ("no-dev", [])):
            runs.append([name] + _run_cli(
                ["train", "--corpus", corpus, *flags, "--out", Path(tmp) / "model.json",
                 "--epochs", 4, "--lr", 0.3, "--hidden-a", 8, "--hidden-p", 8], tmp))
    return runs


def _set(record, *path_and_value):
    """``record`` with the entry at ``path`` set to ``value``."""
    *path, key, value = path_and_value
    for step in path:
        record = record[step]
    record[key] = value


# One malformed corpus or model file per input rule, as (name, file, mutation).
LOAD_CASES = [
    ("id-null", "corpus", lambda r: _set(r, "id", None)),
    ("id-number", "corpus", lambda r: _set(r, "id", 5)),
    ("declared-d_a-float", "corpus", lambda r: _set(r, "d_a", float(r["d_a"]))),
    ("declared-d_p-mismatch", "corpus", lambda r: _set(r, "d_p", r["d_p"] + 1)),
    ("mention-index-float", "corpus", lambda r: _set(r, "mentions", 1, "index", 1.5)),
    ("gold-entity-bool", "corpus", lambda r: _set(r, "mentions", 1, "gold_entity", True)),
    ("gold-entity-inconsistent", "corpus", lambda r: _set(r, "mentions", 0, "gold_entity", 2)),
    ("mention-type-unknown", "corpus", lambda r: _set(r, "mentions", 1, "type", "verb")),
    ("features-a-string", "corpus", lambda r: _set(r, "mentions", 1, "features_a", 0, "0.5")),
    ("features-a-nan", "corpus", lambda r: _set(r, "mentions", 1, "features_a", 0, math.nan)),
    ("pair-index-string", "corpus", lambda r: _set(r, "pairs", 0, "j", "1")),
    ("pair-index-bool", "corpus", lambda r: _set(r, "pairs", 0, "i", True)),
    ("pair-missing", "corpus", lambda r: r["pairs"].pop()),
    ("pair-twice", "corpus", lambda r: r["pairs"].append(r["pairs"][0])),
    ("pair-features-bool", "corpus", lambda r: _set(r, "pairs", 0, "features", 0, True)),
    ("key-missing", "corpus", lambda r: r.pop("mentions")),
    ("version-bool", "model", lambda r: _set(r, "version", True)),
    ("version-2", "model", lambda r: _set(r, "version", 2)),
    ("size-float", "model", lambda r: _set(r, "hidden_a", 2.5)),
    ("size-negative", "model", lambda r: _set(r, "hidden_p", -1)),
    ("field-string", "model", lambda r: _set(r, "u_0", "0.5")),
    ("format-other", "model", lambda r: _set(r, "format", "other")),
    ("field-missing", "model", lambda r: r.pop("v")),
]


def load_runs(seed: int = 0) -> list:
    """[name, exit code or exception, stdout, stderr] of ``softcoref
    evaluate`` with one malformed corpus (its second line) or model file
    per input rule of ``LOAD_CASES``, the other file valid."""
    from softcoref import ModelParams, SyntheticConfig, generate_synthetic, save_corpus
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {"corpus": Path(tmp) / "corpus.jsonl", "model": Path(tmp) / "model.json"}
        save_corpus(generate_synthetic(SyntheticConfig(
            num_docs=2, mentions_per_doc=(3, 4), entities_per_doc=(1, 2), d_a=3, d_p=2,
            seed=seed)), files["corpus"])
        ModelParams.random(3, 2, hidden_a=2, hidden_p=2, seed=seed).save(files["model"])
        valid = {kind: path.read_text(encoding="utf-8").splitlines()
                 for kind, path in files.items()}
        for name, kind, mutate in LOAD_CASES:
            lines = list(valid[kind])
            record = json.loads(lines[-1])
            mutate(record)
            lines[-1] = json.dumps(record)
            files[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
            runs.append([name] + _run_cli(["evaluate", "--corpus", files["corpus"],
                                           "--model", files["model"]], tmp))
            files[kind].write_text("\n".join(valid[kind]) + "\n", encoding="utf-8")
    return runs


def file_bytes(seed: int = 0) -> dict:
    """The text that ``save_corpus`` writes for a small synthetic corpus
    (single-mention documents included), and that ``ModelParams.save``
    writes for a random model."""
    from softcoref import ModelParams, SyntheticConfig, generate_synthetic, save_corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save_corpus(generate_synthetic(SyntheticConfig(
            num_docs=6, mentions_per_doc=(1, 12), entities_per_doc=(1, 4), seed=seed)), path)
        corpus = path.read_text(encoding="utf-8")
        ModelParams.random(5, 7, hidden_a=3, hidden_p=4, scale=0.5, seed=seed).save(path)
        model = path.read_text(encoding="utf-8")
    return {"bytes/save_corpus": corpus, "bytes/model_save": model}


def digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _numbers(value) -> list[float]:
    """The numbers of a parameter list, of a list of ``float.hex`` strings
    or of a history CSV, in order."""
    if isinstance(value, list):
        return [float.fromhex(x) if isinstance(x, str) else float(x) for x in value]
    rows = list(csv.reader(io.StringIO(value)))[1:]
    return [float(cell) for row in rows for cell in row]


def _gap(x: float, y: float) -> float:
    """|x - y|, with two NaNs equal and one NaN infinitely far."""
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y)


def drift(name: str, new, old) -> str:
    """"identical", or how far ``new`` is from ``old``."""
    if digest(new) == digest(old):
        return "identical"
    if name.startswith("bytes/"):
        at = next((k for k, (a, b) in enumerate(zip(new, old)) if a != b),
                  min(len(new), len(old)))
        return f"first difference at character {at} ({len(new)} vs {len(old)} characters)"
    if name.startswith(("score/", "train/", "load/")):
        if [run[0] for run in new] != [run[0] for run in old]:
            return "different cases"
        changed = [a[0] for a, b in zip(new, old) if a != b]
        return f"{len(changed)} of {len(new)} runs differ: {', '.join(changed)}"
    if name.startswith("predict/"):
        if [len(doc) for doc in new] != [len(doc) for doc in old]:
            return "different documents"
        changed = sum(a != b for doc_new, doc_old in zip(new, old)
                      for a, b in zip(doc_new, doc_old))
        return f"{changed} of {sum(map(len, new))} antecedents differ"
    if name.startswith("report/"):
        if len(new) != len(old):
            return "different cases"
        return f"{sum(a != b for a, b in zip(new, old))} of {len(new)} corpora differ"
    if name.startswith("relaxed/"):
        if [case[:3] for case in new] != [case[:3] for case in old]:
            return "different cases"
        gaps = [max(map(_gap, a[3:], b[3:])) for a, b in zip(new, old)]
        worst = max(range(len(gaps)), key=gaps.__getitem__)
        n, temperature, beta = new[worst][:3]
        return (f"{sum(g > 0 for g in gaps)} of {len(new)} cases differ, "
                f"{sum(g > 1e-12 for g in gaps)} by more than 1e-12, largest drift "
                f"{gaps[worst]:.3e} at n {n}, T {temperature:.3g}, beta {beta:.3g}")
    a, b = _numbers(new), _numbers(old)
    if len(a) != len(b):
        return f"different length ({len(a)} vs {len(b)} numbers)"
    worst = max(map(_gap, a, b), default=0.0)
    scale = max((abs(y) for y in b if not math.isnan(y)), default=0.0)
    return f"largest drift {worst:.3e} (largest |value| {scale:.3e})"


def compare(artifacts: dict, old: dict) -> tuple[list[str], int]:
    """One line per artifact of either run with its verdict, and the exit
    code: 1 when an artifact of ``old`` drifted or is missing from
    ``artifacts``, 0 otherwise; one that ``old`` lacks is "new"."""
    lines, differ = [], 0
    for name, value in artifacts.items():
        verdict = drift(name, value, old[name]) if name in old else "new"
        differ += verdict not in ("identical", "new")
        lines.append(f"{name:<22} {digest(value)}  {verdict}")
    for name in [name for name in old if name not in artifacts]:
        lines.append(f"{name:<22} {'':<40}  missing")
        differ += 1
    return lines, int(differ > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softcoref package (default: src/)")
    parser.add_argument("--out", help="write the fingerprints to this JSON file")
    parser.add_argument("--against", help="compare with fingerprints written by --out")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import softcoref
    print(f"softcoref from {Path(softcoref.__file__).parent}")
    artifacts = {**fingerprint(), "score/csv": score_runs(), "train/stdout": train_runs(),
                 "load/errors": load_runs(), **file_bytes(), "report/corpus": corpus_reports()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"artifacts": artifacts}, fh)
            fh.write("\n")
    if not args.against:
        for name, value in artifacts.items():
            print(f"{name:<22} {digest(value)}")
        return 0
    with open(args.against, encoding="utf-8") as fh:
        lines, code = compare(artifacts, json.load(fh)["artifacts"])
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
