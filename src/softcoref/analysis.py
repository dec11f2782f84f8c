"""Error breakdowns and consolidated metric reports.

The per-mention error taxonomy distinguishes, against gold:

  * FA (false anaphor): a discourse-new mention linked to an antecedent;
  * FN (false new): an anaphoric mention predicted discourse-new;
  * WL (wrong link): an anaphoric mention linked outside its entity.

Counts are kept per mention type so systematic weaknesses (for example
on pronouns) are visible.  Corpus-level metric reports micro-aggregate:
count numerators and denominators are summed over documents before any
ratio is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .clustering import _follow_links, validate_antecedent_vector
from .corpus import MENTION_TYPES, Clustering, Document
from .errors import InputError, _check_range
from .metrics import COUNTS_FROM_OVERLAPS, PRF, _contingency, conll_average
from .model import ModelParams, _predict_corpus, correct_set_mask

ERROR_KINDS = ("fa", "fn", "wl", "correct")


def _zero_counts() -> dict[str, int]:
    return {t: 0 for t in MENTION_TYPES}


@dataclass(frozen=True)
class ErrorBreakdown:
    """FA / FN / WL / correct counts per mention type."""

    fa: Mapping[str, int] = field(default_factory=_zero_counts)
    fn: Mapping[str, int] = field(default_factory=_zero_counts)
    wl: Mapping[str, int] = field(default_factory=_zero_counts)
    correct: Mapping[str, int] = field(default_factory=_zero_counts)

    def total(self, kind: str) -> int:
        if kind not in ERROR_KINDS:
            raise InputError(f"unknown error kind {kind!r}")
        return sum(getattr(self, kind).values())

    @property
    def num_mentions(self) -> int:
        return sum(self.total(kind) for kind in ERROR_KINDS)

    def __add__(self, other: "ErrorBreakdown") -> "ErrorBreakdown":
        merged = {}
        for kind in ERROR_KINDS:
            mine, theirs = getattr(self, kind), getattr(other, kind)
            merged[kind] = {t: mine[t] + theirs[t] for t in MENTION_TYPES}
        return ErrorBreakdown(**merged)

    def __radd__(self, other):
        return self if other == 0 else NotImplemented


def error_breakdown(doc: Document, predicted: Sequence[int]) -> ErrorBreakdown:
    """Classify each mention's predicted antecedent against gold."""
    if len(predicted) != doc.n:
        raise InputError(
            f"document {doc.id}: prediction has length {len(predicted)}, expected {doc.n}"
        )
    validate_antecedent_vector(predicted)
    hit = correct_set_mask(doc.gold_entity_array)  # its diagonal marks entity openers
    rows = np.arange(doc.n)
    a = np.asarray(predicted, dtype=np.int64) - 1
    # positions in ERROR_KINDS: correct when a is in C(m_i); otherwise fa
    # for an opener, fn for an anaphor left new, wl for the rest
    kinds = np.select([hit[rows, a], np.diagonal(hit), a == rows], [3, 0, 1], default=2)
    types = np.array([MENTION_TYPES.index(m.mention_type) for m in doc.mentions], dtype=np.int64)
    table = np.bincount(kinds * len(MENTION_TYPES) + types,
                        minlength=len(ERROR_KINDS) * len(MENTION_TYPES))
    counts = {kind: dict(zip(MENTION_TYPES, row))
              for kind, row in zip(ERROR_KINDS, table.reshape(len(ERROR_KINDS), -1).tolist())}
    return ErrorBreakdown(**counts)


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------

METRIC_NAMES = tuple(COUNTS_FROM_OVERLAPS)


@dataclass(frozen=True)
class MetricReport:
    muc: PRF
    b_cubed: PRF
    ceaf_m: PRF
    ceaf_e: PRF
    blanc: PRF
    lea: PRF
    conll: float

    def rows(self) -> list[tuple[str, PRF]]:
        return [(name, getattr(self, name)) for name in METRIC_NAMES]


def corpus_report(pairs: Sequence[tuple[Clustering, Clustering]],
                  beta: float = 1.0) -> MetricReport:
    """Micro-aggregated metrics over (gold, response) document pairs."""
    _check_range("beta", beta)
    if not pairs:
        raise InputError("no documents to score")
    table = _contingency(pairs)
    prfs = {name: fn(table).prf(beta) for name, fn in COUNTS_FROM_OVERLAPS.items()}
    return MetricReport(
        conll=conll_average(prfs["muc"].f, prfs["b_cubed"].f, prfs["ceaf_e"].f),
        **prfs,
    )


def evaluate_corpus(docs: Sequence[Document], params: ModelParams,
                    beta: float = 1.0) -> MetricReport:
    """Decode every document with the model (``predict_antecedents``) and
    score against gold."""
    _check_range("beta", beta)
    pairs = [(doc.gold_clusters, _follow_links(predicted.tolist()))
             for doc, predicted in zip(docs, _predict_corpus(docs, params))]
    return corpus_report(pairs, beta)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_DISPLAY = {
    "muc": "MUC", "b_cubed": "B3", "ceaf_m": "CEAF_m",
    "ceaf_e": "CEAF_e", "blanc": "BLANC", "lea": "LEA",
}


def format_report(report: MetricReport) -> str:
    lines = [f"{'metric':<8} {'P':>8} {'R':>8} {'F':>8}"]
    for name, prf in report.rows():
        lines.append(
            f"{_DISPLAY[name]:<8} {prf.precision:>8.4f} {prf.recall:>8.4f} {prf.f:>8.4f}"
        )
    lines.append(f"{'CoNLL':<8} {'':>8} {'':>8} {report.conll:>8.4f}")
    return "\n".join(lines)


def report_csv(report: MetricReport) -> str:
    lines = ["metric,precision,recall,f"]
    for name, prf in report.rows():
        lines.append(f"{name},{prf.precision:.6f},{prf.recall:.6f},{prf.f:.6f}")
    lines.append(f"conll,,,{report.conll:.6f}")
    return "\n".join(lines) + "\n"


def format_breakdown(breakdown: ErrorBreakdown) -> str:
    header = f"{'type':<12} {'FA':>6} {'FN':>6} {'WL':>6} {'correct':>8}"
    lines = [header]
    for t in MENTION_TYPES:
        lines.append(
            f"{t:<12} {breakdown.fa[t]:>6} {breakdown.fn[t]:>6} "
            f"{breakdown.wl[t]:>6} {breakdown.correct[t]:>8}"
        )
    lines.append(
        f"{'all':<12} {breakdown.total('fa'):>6} {breakdown.total('fn'):>6} "
        f"{breakdown.total('wl'):>6} {breakdown.total('correct'):>8}"
    )
    return "\n".join(lines)
