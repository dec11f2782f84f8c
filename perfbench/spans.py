"""Spans around the benchmark's own calls, and the per-layer replay.

Spans are kept in memory and written out as JSON lines when the run
ends.  Each span has a name, a start and an end (seconds on the
``perf_counter`` clock), the index of its parent span and a document id.
Spans wrap only calls made by the benchmark; nothing inside
``softcoref`` is patched or instrumented.

The replay sends each training document through the layer chain with
those layers' public functions, on the run's real inputs and trained
parameters:

    score_pairs -> link_probabilities -> membership_array -> temper_array
    -> b3_soft_grad / lea_soft_grad -> temper_backward -> membership_backward

plus delta_matrix / gamma_matrix, a whole document_loss_and_grad per
loss, adagrad_step and the parameter round trip; then the decoding, the
six exact scorers, the corpus report, the CoNLL parser and the CLI.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from softcoref import (LOSS_KINDS, CostConfig, adagrad_step,
                       antecedents_to_clusters, b_cubed_counts, blanc_counts,
                       ceaf_e_counts, ceaf_m_counts, corpus_report,
                       decode_argmax, document_loss_and_grad, evaluate_corpus,
                       lea_counts, link_probabilities, muc_counts,
                       parse_conll_documents, score_pairs)
from softcoref.membership import (membership_array, membership_backward,
                                  temper_array, temper_backward)
from softcoref.model import delta_matrix, gamma_matrix
from softcoref.relaxed import b3_soft_grad, gold_index_arrays, lea_soft_grad

import pipeline

# The temperature of the fine-tuning stages; the replay tempers every
# workload's memberships with it.
RELAXED_TEMPERATURE = 0.5

SCORERS = {"muc": muc_counts, "b_cubed": b_cubed_counts, "ceaf_m": ceaf_m_counts,
           "ceaf_e": ceaf_e_counts, "blanc": blanc_counts, "lea": lea_counts}

# Which replayed parts a document_loss_and_grad call contains, per loss;
# the rest of the step (mostly the MLP backward) is its "other" time.
STEP_PARTS = {
    "mr-heuristic": ("model.score_pairs", "model.delta_matrix", "model.link_probabilities"),
    "ec-heuristic": ("model.score_pairs", "model.link_probabilities", "membership.forward",
                     "model.gamma_matrix", "membership.backward"),
    "b3": ("model.score_pairs", "model.link_probabilities", "membership.forward",
           "membership.temper", "relaxed.b3_grad", "membership.temper_backward",
           "membership.backward"),
    "lea": ("model.score_pairs", "model.link_probabilities", "membership.forward",
            "membership.temper", "relaxed.lea_grad", "membership.temper_backward",
            "membership.backward"),
}

# Span name -> reported metric stem and unit scale.
TIMED_LAYERS = (
    [("model.score_pairs", "model.score_pairs_ms"),
     ("model.link_probabilities", "model.link_probabilities_ms")]
    + [(f"model.loss_and_grad.{k}", f"model.loss_and_grad_ms.{k}") for k in LOSS_KINDS]
    + [("model.delta_matrix", "model.delta_matrix_ms"),
       ("model.gamma_matrix", "model.gamma_matrix_ms"),
       ("membership.forward", "membership.forward_ms"),
       ("membership.backward", "membership.backward_ms"),
       ("membership.temper", "membership.temper_ms"),
       ("membership.temper_backward", "membership.temper_backward_ms"),
       ("relaxed.b3_grad", "relaxed.b3_grad_ms"),
       ("relaxed.lea_grad", "relaxed.lea_grad_ms"),
       ("optim.adagrad_step", "optim.adagrad_step_ms"),
       ("optim.param_roundtrip", "optim.param_roundtrip_ms"),
       ("optim.dev_eval", "optim.dev_eval_ms"),
       ("clustering.decode", "clustering.decode_ms"),
       ("clustering.to_clusters", "clustering.to_clusters_ms")]
    + [(f"metrics.{m}", f"metrics.{m}_ms") for m in SCORERS]
    + [("analysis.corpus_report", "analysis.corpus_report_ms"),
       ("analysis.evaluate_corpus", "analysis.evaluate_corpus_ms"),
       ("corpus.parse_conll", "corpus.parse_conll_ms"),
       ("corpus.load", "corpus.load_s"),
       ("corpus.pair_matrix", "corpus.pair_matrix_ms"),
       ("cli.score", "cli.score_s")]
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, doc: str | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, doc)

    def call(self, name: str, fn, *args, doc: str | None = None, **kwargs):
        with self.span(name, doc):
            return fn(*args, **kwargs)

    def last_seconds(self) -> float:
        _, start, end, _, _ = self.spans[-1]
        return end - start

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}))
                fh.write("\n")


def _replay_document(tracer: Tracer, state, doc, accum: np.ndarray,
                     other: dict[str, list[float]]) -> None:
    params = state.params
    temperature = RELAXED_TEMPERATURE
    costs = CostConfig()
    took: dict[str, float] = {}

    def timed(name, fn, *args, **kwargs):
        result = tracer.call(name, fn, *args, doc=doc.id, **kwargs)
        took[name] = tracer.last_seconds()
        return result

    scores = timed("model.score_pairs", score_pairs, doc, params)
    links = timed("model.link_probabilities", link_probabilities, scores)
    probs = links.probs
    q = timed("membership.forward", membership_array, probs)
    qt = timed("membership.temper", temper_array, q, temperature)
    gold_of, sizes = gold_index_arrays(doc.gold_clusters, doc.n)
    *_, d_qt = timed("relaxed.b3_grad", b3_soft_grad, qt, gold_of, sizes)
    timed("relaxed.lea_grad", lea_soft_grad, qt, gold_of, sizes)
    d_q = timed("membership.temper_backward", temper_backward, q, qt, temperature, -d_qt)
    timed("membership.backward", membership_backward, probs, q, d_q)
    timed("model.delta_matrix", delta_matrix, doc, costs)
    timed("model.gamma_matrix", gamma_matrix, doc, costs)
    grad = None
    for loss in LOSS_KINDS:
        _, grad = timed(f"model.loss_and_grad.{loss}", document_loss_and_grad, doc, params,
                        loss, temperature=temperature, lam=1e-6)
        parts = sum(took[name] for name in STEP_PARTS[loss])
        other.setdefault(loss, []).append(took[f"model.loss_and_grad.{loss}"] - parts)

    with tracer.span("optim.param_roundtrip", doc.id):
        gvec = grad.to_vector()
        vec = params.to_vector()
        params.from_vector(vec)
    timed("optim.adagrad_step", adagrad_step, vec, gvec, accum, 0.02)
    antecedents = timed("clustering.decode", decode_argmax, links)
    timed("clustering.to_clusters", antecedents_to_clusters, antecedents)


def replay(tracer: Tracer, state, budget: float) -> tuple[dict[str, list[float]], int]:
    """Replay the layers over the run's inputs in whole rounds for about
    ``budget`` seconds; each round makes the same calls.

    Returns the per-document "other" step time of each loss and the
    number of rounds.
    """
    other: dict[str, list[float]] = {}
    accum = np.zeros_like(state.params.to_vector())
    start = time.perf_counter()
    rounds = 0
    while rounds < 1 or time.perf_counter() - start < budget:
        for doc in state.docs["train"]:
            _replay_document(tracer, state, doc, accum, other)
        for gold, response in state.score_pairs:
            for name, fn in SCORERS.items():
                tracer.call(f"metrics.{name}", fn, gold, response)
        tracer.call("analysis.corpus_report", corpus_report, state.score_pairs)
        tracer.call("analysis.evaluate_corpus", evaluate_corpus, state.docs["test"],
                    state.params)
        tracer.call("optim.dev_eval", evaluate_corpus, state.docs["dev"], state.params)
        tracer.call("corpus.parse_conll", parse_conll_documents, state.key_path)
        tracer.call("cli.score", pipeline.cli_score, state.key_path, state.response_path)
        fresh = tracer.call("corpus.load", state.load_untouched)
        for split in fresh.values():
            for doc in split:
                tracer.call("corpus.pair_matrix", lambda d: d.pair_feature_matrix, doc,
                            doc=doc.id)
        rounds += 1
    return other, rounds


def layer_metrics(tracer: Tracer, other: dict[str, list[float]], rounds: int,
                  stages) -> dict:
    """Per-layer metrics from the spans: the median per call, and the calls
    and busy time of one replay round (the work of one pass, whatever the
    machine's speed)."""
    durations = tracer.durations()
    metrics = {"trace.replay_rounds": (rounds, "count")}
    for span_name, stem in TIMED_LAYERS:
        values = durations[span_name]
        calls, rest = divmod(len(values), rounds)
        assert rest == 0, f"{span_name}: {len(values)} calls in {rounds} rounds"
        scale, unit = (1.0, "s") if stem.endswith("_s") else (1e3, "ms")
        metrics[stem] = (statistics.median(values) * scale, unit)
        metrics[f"{stem}.calls"] = (calls, "count")
        metrics[f"{stem}.busy_s"] = (sum(values) / rounds, "s")
    for loss in LOSS_KINDS:
        metrics[f"model.step_other_ms.{loss}"] = (statistics.median(other[loss]) * 1e3, "ms")
    epoch_ms = statistics.median(
        seconds / stage.epochs for stage in stages
        for seconds in durations.get(f"phase.train.{stage.loss}", ())) * 1e3
    metrics["optim.epoch_ms"] = (epoch_ms, "ms")
    metrics["optim.dev_eval_share"] = (metrics["optim.dev_eval_ms"][0] / epoch_ms, "ratio")
    return metrics
