"""The three workloads and the phases they run through softcoref's API.

Every phase is one closed loop with a single caller: each call returns
before the next one starts.  The untraced run interleaves the phases
call by call, always running next the phase furthest behind its share
of the run's time, so the samples of every phase are spread over the
whole run and a slow spell of a shared machine does not fall on one
phase only.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from softcoref import (Clustering, Document, Mention, ModelParams,
                       SoftcorefError, TrainConfig, antecedents_to_clusters, cli,
                       corpus_report, evaluate_corpus, grad_check,
                       load_corpus, predict_antecedents, report_csv, train)

GRAD_CHECK_TOL = 1e-5
PREDICT_MIN_SAMPLES = 2000     # twenty samples beyond p99
SPLITS = ("train", "dev", "test")
SCORE_MENTIONS = (20, 500)     # mentions per document of the long CoNLL files


@dataclass(frozen=True)
class Stage:
    loss: str
    temperature: float
    learning_rate: float
    epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    handoff: str                      # "jsonl" (load_corpus) or "memory"
    mentions: tuple[int, int]
    entities: tuple[int, int]
    splits: tuple[int, int, int]      # train, dev, test documents
    hidden: tuple[int, int]
    stages: tuple[Stage, ...]
    shares: dict                      # phase -> share of the run's time
    score_docs: int = 0               # >0: score long CoNLL files, not the test split


WORKLOADS = {
    # The paper's recipe at the paper's sizes: the MLP GEMMs and the
    # fixed cost per step dominate.
    "short-paper": Workload(
        name="short-paper", handoff="jsonl", mentions=(8, 16), entities=(3, 6),
        splits=(40, 20, 120), hidden=(200, 700),
        stages=(Stage("mr-heuristic", 1.0, 0.1, 3), Stage("b3", 0.5, 0.02, 2)),
        shares={"load": 0.05, "train": 0.45, "evaluate": 0.1, "predict": 0.25, "score": 0.15}),
    # Long documents handed over in memory: the O(n^2) Python loops of
    # the membership chain, the cost matrices and the relaxed gradients
    # dominate.
    "long-relaxed": Workload(
        name="long-relaxed", handoff="memory", mentions=(100, 200), entities=(8, 20),
        splits=(4, 4, 36), hidden=(24, 32),
        stages=(Stage("ec-heuristic", 1.0, 0.1, 2), Stage("lea", 0.5, 0.02, 2)),
        shares={"load": 0.1, "train": 0.4, "evaluate": 0.1, "predict": 0.3, "score": 0.1}),
    # `softcoref score` on long CoNLL documents takes most of the run.  A
    # small mention-ranking pass on short documents supplies the other
    # end-to-end metrics without touching the membership chain.
    "score-long": Workload(
        name="score-long", handoff="jsonl", mentions=(8, 16), entities=(3, 6),
        splits=(30, 30, 120), hidden=(200, 700),
        stages=(Stage("mr-heuristic", 1.0, 0.1, 2),),
        shares={"load": 0.05, "train": 0.1, "evaluate": 0.05, "predict": 0.2, "score": 0.6},
        score_docs=16),
}


class Ops:
    """Counts attempted and failed operations of the program."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (SoftcorefError, OSError) as exc:
            self.fail(f"{fn.__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class NullTracer:
    """Stand-in for ``spans.Tracer`` when spans are off."""

    @staticmethod
    def span(name, doc=None):
        return contextlib.nullcontext()


def handoff(raw: gen.RawDocument) -> Document:
    """Pass one generated document to softcoref through its public types."""
    mentions = [Mention(i + 1, gen.MENTION_TYPES[raw.types[i]], int(raw.gold_entity[i]),
                        raw.features_a[i]) for i in range(raw.n)]
    pairs = {(int(j) + 1, int(i) + 1): f
             for i, j, f in zip(raw.pair_rows, raw.pair_cols, raw.features_p)}
    doc = Document.from_mentions(raw.doc_id, mentions, pairs)
    doc.validate()
    return doc


def first_touch(docs) -> None:
    for doc in docs:
        doc.mention_feature_matrix
        doc.pair_feature_matrix


def cli_score(key: Path, response: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["score", "--key", str(key), "--response", str(response), "--csv"])
    return code, out.getvalue()


def _clustering(labels) -> Clustering:
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels, start=1):
        groups.setdefault(int(lab), []).append(i)
    return Clustering(groups.values())


@dataclass
class State:
    """Inputs of one run and everything the phases produce."""

    wl: Workload
    seed: int
    workdir: Path
    raw: dict = field(default_factory=dict)           # split -> [RawDocument]; memory hand-off
    docs: dict = field(default_factory=dict)          # split -> [Document]
    params: object = None
    histories: list = field(default_factory=list)     # one list of TrainHistory per recipe run
    dev_conll: list = field(default_factory=list)
    predictions: dict = field(default_factory=dict)   # doc id -> antecedents
    key_path: Path = None
    response_path: Path = None
    score_pairs: list = field(default_factory=list)   # (key, response) Clusterings
    conll_tokens: int = 0
    small_doc: Document = None
    conll_rng: np.random.Generator = None
    failed_steps: int = 0
    prediction_changes: int = 0

    # -- inputs ------------------------------------------------------------

    def generate(self) -> None:
        """Make every input from the seed; nothing here is timed."""
        rng = np.random.default_rng([self.seed, 17])
        wl = self.wl
        for split, count in zip(SPLITS, wl.splits):
            raws = gen.make_corpus(rng, f"{wl.name}-{split}", count, wl.mentions, wl.entities)
            if wl.handoff == "jsonl":
                gen.write_jsonl(raws, self.workdir / f"{split}.jsonl")
            else:
                self.raw[split] = raws
        self.small_doc = handoff(gen.make_document(rng, "grad-check", 8, 3))
        if wl.score_docs:
            self._write_long_conll(rng)
        self.conll_rng = np.random.default_rng([self.seed, 29])

    def _write_long_conll(self, rng) -> None:
        wl = self.wl
        keys, responses = [], []
        for d, n in enumerate(gen.stratified(rng, wl.score_docs, *SCORE_MENTIONS)):
            n = int(n)
            labels = gen.entity_labels(rng, n, max(1, round(n / 6)))
            moved = gen.perturb_labels(rng, labels)
            spans = gen.token_spans(rng, n)
            keys.append(gen.conll_lines(f"long-{d:04d}", spans, labels))
            responses.append(gen.conll_lines(f"long-{d:04d}", spans, moved))
            self.score_pairs.append((_clustering(labels), _clustering(moved)))
        self._write_score_files(keys, responses)

    def write_prediction_conll(self) -> None:
        """Key = gold clusters of the test split, response = predictions."""
        keys, responses = [], []
        self.score_pairs = []
        for doc in self.docs["test"]:
            gold = [m.gold_entity for m in doc.mentions]
            roots = antecedents_to_clusters(self.predictions[doc.id]).entity_ids()
            predicted = [roots[i] for i in range(1, doc.n + 1)]
            spans = gen.token_spans(self.conll_rng, doc.n)
            keys.append(gen.conll_lines(doc.id, spans, gold))
            responses.append(gen.conll_lines(doc.id, spans, predicted))
            self.score_pairs.append((_clustering(gold), _clustering(predicted)))
        self._write_score_files(keys, responses)

    def _write_score_files(self, keys, responses) -> None:
        self.key_path = self.workdir / "key.conll"
        self.response_path = self.workdir / "response.conll"
        self.conll_tokens = gen.write_conll(keys, self.key_path)
        gen.write_conll(responses, self.response_path)

    # -- phases ------------------------------------------------------------

    def load_untouched(self) -> dict:
        """Hand every split to softcoref: ``load_corpus`` or in-memory documents."""
        if self.wl.handoff == "jsonl":
            return {s: load_corpus(self.workdir / f"{s}.jsonl") for s in SPLITS}
        return {s: [handoff(r) for r in self.raw[s]] for s in SPLITS}

    def load(self) -> None:
        """The hand-off plus the first touch of the lazy feature matrices.

        The previous corpus is released first, so that at most one is alive.
        """
        self.docs = {}
        docs = self.load_untouched()
        for split in docs.values():
            first_touch(split)
        self.docs = docs

    def train_recipe(self, ops: Ops, tracer=NullTracer()) -> list[float]:
        """Run every stage of the recipe; return the wall time of each train call.

        A failed stage is counted by ``ops``; the recipe stops there and the
        run goes on with the last good parameters (the initial ones if the
        first stage failed), so that it still reaches its checks.
        """
        wl = self.wl
        params, histories, walls = None, [], []
        for number, stage in enumerate(wl.stages):
            config = TrainConfig(loss=stage.loss, temperature=stage.temperature,
                                 learning_rate=stage.learning_rate, epochs=stage.epochs,
                                 seed=0, hidden_a=wl.hidden[0], hidden_p=wl.hidden[1],
                                 init_model=params)
            start = time.perf_counter()
            with tracer.span(f"phase.train.{stage.loss}"):
                result = ops.call(train, self.docs["train"], self.docs["dev"], config)
            walls.append(time.perf_counter() - start)
            if result is None:
                self.failed_steps += len(self.docs["train"]) * sum(
                    s.epochs for s in wl.stages[number:])
                break
            params, history = result
            histories.append(history)
        if params is None:
            train_docs = self.docs["train"]
            params = ModelParams.random(train_docs[0].d_a, max(d.d_p for d in train_docs),
                                        *wl.hidden)
        self.params = params
        self.histories.append(histories)
        if len(histories) == len(wl.stages):
            self.dev_conll.append(max(r.dev.conll for r in histories[-1].records))
        else:
            self.dev_conll.append(evaluate_corpus(self.docs["dev"], params).conll)
        return walls

    @property
    def steps_per_recipe(self) -> int:
        return len(self.docs["train"]) * sum(s.epochs for s in self.wl.stages)

    def evaluate(self, ops: Ops, tracer=NullTracer()):
        with tracer.span("phase.evaluate"):
            return ops.call(evaluate_corpus, self.docs["test"], self.params)

    def predict_pass(self, ops: Ops, tracer=NullTracer()) -> list[float]:
        """One predict_antecedents call per test document; their latencies."""
        latencies = []
        with tracer.span("phase.predict"):
            for doc in self.docs["test"]:
                start = time.perf_counter()
                with tracer.span("predict_antecedents", doc.id):
                    antecedents = ops.call(predict_antecedents, doc, self.params)
                latencies.append(time.perf_counter() - start)
                if antecedents is not None:
                    self.prediction_changes += (
                        self.predictions.setdefault(doc.id, antecedents) != antecedents)
        return latencies

    def score(self, ops: Ops, tracer=NullTracer()):
        with tracer.span("phase.score"):
            result = ops.call(cli_score, self.key_path, self.response_path)
        if result is not None and result[0] != 0:
            ops.fail(f"softcoref score exited with code {result[0]}")

    @property
    def score_doc_count(self) -> int:
        return len(self.score_pairs)

    def pipeline(self, ops: Ops, tracer=NullTracer()) -> float:
        """One pass of every phase; return its wall time."""
        start = time.perf_counter()
        self.train_recipe(ops, tracer)
        self.evaluate(ops, tracer)
        self.predict_pass(ops, tracer)
        self.score(ops, tracer)
        return time.perf_counter() - start



# ---------------------------------------------------------------------------
# Output checks: each failure makes the run incorrect; none is a metric.
# ---------------------------------------------------------------------------

def run_checks(state: State, recorded_dev_conll) -> list[tuple[str, bool, str]]:
    """Return (name, passed, detail) for every output check of a run."""
    checks = []
    losses = [r.mean_loss for hs in state.histories for h in hs for r in h.records]
    checks.append(("losses_finite",
                   bool(np.all(np.isfinite(losses))) and state.failed_steps == 0,
                   f"{len(losses)} epoch losses; {state.failed_steps} steps in failed stages, "
                   "which include every non-finite loss or gradient"))

    distinct = {float(x).hex() for x in state.dev_conll}
    ok = len(distinct) == 1 and (recorded_dev_conll is None
                                 or recorded_dev_conll in distinct)
    checks.append(("dev_conll_repeats", ok,
                   f"{len(state.dev_conll)} runs of the recipe, values {sorted(distinct)}, "
                   f"recorded for this seed {recorded_dev_conll}"))

    for stage in state.wl.stages:
        err = grad_check(state.small_doc, state.params, stage.loss,
                         temperature=stage.temperature)
        checks.append((f"grad_check.{stage.loss}", err < GRAD_CHECK_TOL,
                       f"max relative error {err:.3e} on n={state.small_doc.n}"))

    checks.append(("predict_repeats", state.prediction_changes == 0,
                   f"{state.prediction_changes} predictions differed from the first call"))

    gold = [(d.gold_clusters, antecedents_to_clusters(state.predictions[d.id]))
            for d in state.docs["test"]]
    evaluated = evaluate_corpus(state.docs["test"], state.params)
    checks.append(("evaluate_matches_predict", evaluated == corpus_report(gold),
                   "evaluate_corpus equals corpus_report over predict_antecedents"))

    code, text = cli_score(state.key_path, state.response_path)
    expected = report_csv(corpus_report(state.score_pairs))
    checks.append(("score_csv_matches", code == 0 and text == expected,
                   f"exit {code}; cli CSV vs report_csv(corpus_report) over "
                   f"{state.score_doc_count} documents"))

    code, text = cli_score(state.key_path, state.key_path)
    expected = _key_vs_key_csv([key for key, _ in state.score_pairs])
    checks.append(("key_vs_key", code == 0 and text == expected,
                   f"exit {code}; every score 1.0, LEA {expected.splitlines()[6]}"))
    return checks


def _key_vs_key_csv(keys) -> str:
    """The CSV of scoring keys against themselves: 1.0 everywhere except
    LEA, where singletons resolve no link by the package's default
    convention, so P = R = F = the share of mentions in larger entities."""
    mentions = sum(k.num_mentions for k in keys)
    linked = sum(len(c) for k in keys for c in k.clusters if len(c) > 1)
    lea = linked / mentions
    lines = ["metric,precision,recall,f"]
    for name in ("muc", "b_cubed", "ceaf_m", "ceaf_e", "blanc"):
        lines.append(f"{name},1.000000,1.000000,1.000000")
    lines.append(f"lea,{lea:.6f},{lea:.6f},{lea:.6f}")
    lines.append("conll,,,1.000000")
    return "\n".join(lines) + "\n"
