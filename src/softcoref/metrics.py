"""Exact coreference clustering metrics.

All metrics compare two partitions of the same mention set and are
expressed as count quadruples (precision numerator / denominator, recall
numerator / denominator) so that document-level counts can be summed for
micro-averaged corpus scores before any division happens.

Every scorer is a closed form over each document's integer contingency
table ``x[v, u] = |G_v & S_u|`` between the gold clusters G_v and the
response clusters S_u (both in ``Clustering.cluster_index`` order).
``_contingency`` builds it for a whole corpus at once, as its nonzero
cells: each document's clusters are numbered after those of the
documents before it, one ``np.unique`` over the (gold, response) cluster
pair of every mention gives each overlap with its two clusters, and two
``bincount`` calls give the cluster sizes.  With ``pairs(k) = k (k - 1) /
2`` the links inside a set of k mentions:

  * MUC and BLANC are integer sums over the cells and the sizes;
  * B-cubed and LEA add one term per cluster, a ``bincount`` of the cells;
  * both CEAF variants align clusters on x itself or on
    ``2 x / (|G_v| + |S_u|)``, one ``linear_sum_assignment`` for each
    document whose partitions differ; identical partitions align every
    cluster with itself, which scores n and k exactly.

``corpus_report`` builds the table once and hands it to every entry of
``COUNTS_FROM_OVERLAPS``; each public ``*_counts`` runs the same function
on a one-pair table.  Floats are added in one fixed order, that of
scoring each document alone and adding the counts in document order:
B-cubed sums its cluster terms per document with builtin ``sum``, LEA
with numpy's ``sum`` over the document's clusters of size > 1, CEAF_e
takes each document's alignment total, and then the documents are added
left to right.  Integer counts, and LEA terms that are all whole
numbers, are exact in any order, so they are summed in bulk.

Implemented: MUC link-based scoring, B-cubed per-mention overlap, CEAF
under both the mention-overlap and normalized-entity similarities (with
an optimal one-to-one cluster alignment), BLANC as the average of the
coreferent-pair and non-coreferent-pair F scores, and LEA's
link-resolution score weighted by cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import Clustering
from .errors import InputError, _check_range


def f_beta(precision: float, recall: float, beta: float = 1.0) -> float:
    """Weighted harmonic mean; beta > 1 favors recall.  0 when P = R = 0."""
    _check_range("beta", beta)
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f: float
    beta: float = 1.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f)


@dataclass(frozen=True)
class MetricCounts:
    """Numerators and denominators of one metric on one or more documents."""

    p_num: float = 0.0
    p_den: float = 0.0
    r_num: float = 0.0
    r_den: float = 0.0

    def __add__(self, other: "MetricCounts") -> "MetricCounts":
        return MetricCounts(
            self.p_num + other.p_num, self.p_den + other.p_den,
            self.r_num + other.r_num, self.r_den + other.r_den,
        )

    def __radd__(self, other):
        return self if other == 0 else NotImplemented

    def prf(self, beta: float = 1.0) -> PRF:
        p = self.p_num / self.p_den if self.p_den > 0 else 0.0
        r = self.r_num / self.r_den if self.r_den > 0 else 0.0
        return PRF(p, r, f_beta(p, r, beta), beta)


class _Side(NamedTuple):
    """One side's clusters over a corpus, numbered document by document."""

    sizes: np.ndarray  # of every cluster
    doc: np.ndarray    # the document of every cluster
    bounds: list[int]  # document d owns clusters bounds[d]:bounds[d + 1]
    cell: np.ndarray   # the cluster of every nonzero overlap


@dataclass(frozen=True, eq=False)
class _Contingency:
    """The nonzero overlaps |G_v & S_u| of a corpus of (gold, response)
    pairs, document by document, sorted by gold then response cluster."""

    counts: np.ndarray
    cell_bounds: list[int]  # document d owns cells cell_bounds[d]:cell_bounds[d + 1]
    mentions: np.ndarray    # n of every document
    gold: _Side
    response: _Side

    @cached_property
    def differing(self) -> list[tuple[int, np.ndarray]]:
        """(d, x) for every document d whose partitions differ, x its dense
        int64 contingency matrix.  The partitions agree exactly when every
        cluster on either side overlaps one cluster of the other."""
        cells = np.diff(self.cell_bounds)
        k_gold, k_response = np.diff(self.gold.bounds), np.diff(self.response.bounds)
        dense = []
        for d in np.flatnonzero((cells != k_gold) | (cells != k_response)).tolist():
            a, b = self.cell_bounds[d], self.cell_bounds[d + 1]
            x = np.zeros((k_gold[d], k_response[d]), dtype=np.int64)
            x[self.gold.cell[a:b] - self.gold.bounds[d],
              self.response.cell[a:b] - self.response.bounds[d]] = self.counts[a:b]
            dense.append((d, x))
        return dense


def _number(labels: list[np.ndarray], mentions: np.ndarray,
            firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corpus-wide cluster ids of every mention, and each document's first
    id with the total last.  ``firsts`` are the positions of the first
    mention of each nonempty document."""
    flat = np.concatenate(labels)
    clusters = np.zeros(len(labels), dtype=np.int64)
    clusters[mentions > 0] = np.maximum.reduceat(flat, firsts) + 1
    bounds = np.concatenate(([0], np.cumsum(clusters)))
    return flat + np.repeat(bounds[:-1], mentions), bounds


def _side(ids: np.ndarray, bounds: np.ndarray, cell: np.ndarray) -> _Side:
    return _Side(np.bincount(ids, minlength=bounds[-1]),
                 np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)), bounds.tolist(), cell)


def _contingency(pairs: Sequence[tuple[Clustering, Clustering]]) -> _Contingency:
    """The contingency table of one or more (gold, response) pairs."""
    rows, cols = [], []
    for gold, response in pairs:
        r, c = gold.cluster_index(), response.cluster_index()
        # Both cover 1..n, so equal sizes mean equal mention sets.
        if len(r) != len(c):
            raise InputError(
                f"gold and response cover different mentions ({len(r)} vs {len(c)})"
            )
        rows.append(r)
        cols.append(c)
    mentions = np.array([len(r) for r in rows], dtype=np.int64)
    firsts = (np.cumsum(mentions) - mentions)[mentions > 0]
    gold_ids, gold_bounds = _number(rows, mentions, firsts)
    response_ids, response_bounds = _number(cols, mentions, firsts)
    width = max(int(response_bounds[-1]), 1)
    cells, counts = np.unique(gold_ids * width + response_ids, return_counts=True)
    gold_cell, response_cell = np.divmod(cells, width)
    return _Contingency(
        counts=counts,
        cell_bounds=np.searchsorted(gold_cell, gold_bounds).tolist(),
        mentions=mentions,
        gold=_side(gold_ids, gold_bounds, gold_cell),
        response=_side(response_ids, response_bounds, response_cell),
    )


def _pairs(k):
    return k * (k - 1) // 2


def _fold(values) -> float:
    """Per-document values added left to right, as adding the documents'
    ``MetricCounts`` in order does."""
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# MUC
# ---------------------------------------------------------------------------

def _muc(t: _Contingency) -> MetricCounts:
    """Link-based counts: a cluster of size k contributes k - 1 links and
    loses one per part it is split into by the other side, so both sides
    resolve n - (number of nonzero overlaps) links."""
    n = int(t.mentions.sum())
    resolved = float(n - len(t.counts))
    return MetricCounts(resolved, float(n - len(t.response.sizes)),
                        resolved, float(n - len(t.gold.sizes)))


# ---------------------------------------------------------------------------
# B-cubed
# ---------------------------------------------------------------------------

def _b_cubed(t: _Contingency) -> MetricCounts:
    """Per-mention counts: each mention scores the squared overlap of its
    gold and response clusters over the cluster size on each side."""
    squares = t.counts * t.counts

    def side(s: _Side) -> float:
        terms = (np.bincount(s.cell, squares, len(s.sizes)) / s.sizes).tolist()
        # Builtin sum over each document's clusters in order fixes the rounding.
        return _fold(sum(terms[a:b]) for a, b in zip(s.bounds, s.bounds[1:]))

    n = float(t.mentions.sum())
    return MetricCounts(side(t.response), n, side(t.gold), n)


# ---------------------------------------------------------------------------
# CEAF
# ---------------------------------------------------------------------------

def _optimal_alignment_total(similarity: np.ndarray) -> float:
    """Best one-to-one cluster alignment score (rectangular allowed)."""
    rows, cols = linear_sum_assignment(-similarity)
    return float(similarity[rows, cols].sum())


def _aligned(t: _Contingency, similarity, identical: list) -> float:
    """Each document's best alignment total under ``similarity`` of its
    contingency matrix, ``identical[d]`` where its partitions agree, added
    in document order."""
    best = list(map(float, identical))
    for d, x in t.differing:
        best[d] = _optimal_alignment_total(similarity(x))
    return _fold(best)


def _ceaf_m(t: _Contingency) -> MetricCounts:
    """Mention-overlap similarity phi(G, S) = |G & S|."""
    best = _aligned(t, lambda x: x, t.mentions.tolist())
    n = float(t.mentions.sum())
    return MetricCounts(best, n, best, n)


def _ceaf_e(t: _Contingency) -> MetricCounts:
    """Normalized similarity phi(G, S) = 2|G & S| / (|G| + |S|)."""
    best = _aligned(t, lambda x: 2.0 * x / (x.sum(axis=1)[:, None] + x.sum(axis=0)[None, :]),
                    np.diff(t.gold.bounds).tolist())
    return MetricCounts(best, float(len(t.response.sizes)), best, float(len(t.gold.sizes)))


# ---------------------------------------------------------------------------
# BLANC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlancCounts:
    """Pair-level counts for the coreferent and non-coreferent classes."""

    coref: MetricCounts = MetricCounts()
    non_coref: MetricCounts = MetricCounts()

    def __add__(self, other: "BlancCounts") -> "BlancCounts":
        return BlancCounts(self.coref + other.coref, self.non_coref + other.non_coref)

    def __radd__(self, other):
        return self if other == 0 else NotImplemented

    def prf(self, beta: float = 1.0) -> PRF:
        """Average P, R and F over the pair classes with any links.

        A class empty on both sides is skipped; if both are (a document
        of one mention), gold and response coincide trivially and the
        score is 1.
        """
        parts = []
        for c in (self.coref, self.non_coref):
            if c.p_den + c.r_den > 0:
                parts.append(c.prf(beta))
        if not parts:
            return PRF(1.0, 1.0, 1.0, beta)
        return PRF(
            sum(x.precision for x in parts) / len(parts),
            sum(x.recall for x in parts) / len(parts),
            sum(x.f for x in parts) / len(parts),
            beta,
        )


def _blanc(t: _Contingency) -> BlancCounts:
    """Coreferent pairs in both partitions are the pairs inside each
    overlap; the non-coreferent pairs follow by inclusion-exclusion."""
    total = int(_pairs(t.mentions).sum())
    both = int(_pairs(t.counts).sum())
    gold = int(_pairs(t.gold.sizes).sum())
    response = int(_pairs(t.response.sizes).sum())
    neither = total - gold - response + both
    return BlancCounts(
        coref=MetricCounts(float(both), float(response), float(both), float(gold)),
        non_coref=MetricCounts(float(neither), float(total - response),
                               float(neither), float(total - gold)),
    )


# ---------------------------------------------------------------------------
# LEA
# ---------------------------------------------------------------------------

def _lea(t: _Contingency, singleton_self_links: bool = False) -> MetricCounts:
    """Each side reads its own clusters as the keys: a cluster of size
    k > 1 resolves the pairs(|overlap|) links of each of its overlaps, out
    of pairs(k), so it adds k * resolved / pairs(k) = 2 * resolved / (k - 1)."""
    links = _pairs(t.counts)
    docs = len(t.mentions)
    if singleton_self_links:  # a singleton on both sides resolves its self-link
        hits = (t.gold.sizes[t.gold.cell] == 1) & (t.response.sizes[t.response.cell] == 1)
        self_links = np.bincount(t.gold.doc[t.gold.cell[hits]], minlength=docs)

    def side(s: _Side) -> float:
        multi = s.sizes > 1
        terms = 2 * np.bincount(s.cell, links, len(s.sizes))[multi] / (s.sizes[multi] - 1)
        doc = s.doc[multi]
        # A sum of whole numbers is exact in any order; a document with a
        # fraction among its terms is summed as numpy sums it alone.
        nums = np.bincount(doc, terms, docs)
        bounds = np.searchsorted(doc, np.arange(docs + 1)).tolist()
        for d in np.unique(doc[terms % 1 != 0]).tolist():
            nums[d] = terms[bounds[d]:bounds[d + 1]].sum()
        if singleton_self_links:
            nums += self_links
        return _fold(nums.tolist())

    n = float(t.mentions.sum())
    return MetricCounts(side(t.response), n, side(t.gold), n)


# Every scorer as a function of the contingency table, in report order.
COUNTS_FROM_OVERLAPS = {
    "muc": _muc, "b_cubed": _b_cubed, "ceaf_m": _ceaf_m,
    "ceaf_e": _ceaf_e, "blanc": _blanc, "lea": _lea,
}


def muc_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _muc(_contingency([(gold, response)]))


def b_cubed_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _b_cubed(_contingency([(gold, response)]))


def ceaf_m_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _ceaf_m(_contingency([(gold, response)]))


def ceaf_e_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _ceaf_e(_contingency([(gold, response)]))


def blanc_counts(gold: Clustering, response: Clustering) -> BlancCounts:
    return _blanc(_contingency([(gold, response)]))


def lea_counts(gold: Clustering, response: Clustering, *,
               singleton_self_links: bool = False) -> MetricCounts:
    """Size-weighted link resolution counts.

    Each cluster contributes its size to the denominator and (size *
    resolved-link fraction) to the numerator.  With
    ``singleton_self_links`` a singleton owns one self-link, resolved
    exactly when the mention is also a singleton on the other side;
    otherwise singletons resolve nothing.
    """
    return _lea(_contingency([(gold, response)]), singleton_self_links)


# ---------------------------------------------------------------------------
# PRF wrappers and the CoNLL summary score
# ---------------------------------------------------------------------------

def muc(gold: Clustering, response: Clustering, beta: float = 1.0) -> PRF:
    return muc_counts(gold, response).prf(beta)


def b_cubed(gold: Clustering, response: Clustering, beta: float = 1.0) -> PRF:
    return b_cubed_counts(gold, response).prf(beta)


def ceaf_m(gold: Clustering, response: Clustering, beta: float = 1.0) -> PRF:
    return ceaf_m_counts(gold, response).prf(beta)


def ceaf_e(gold: Clustering, response: Clustering, beta: float = 1.0) -> PRF:
    return ceaf_e_counts(gold, response).prf(beta)


def blanc(gold: Clustering, response: Clustering, beta: float = 1.0) -> PRF:
    return blanc_counts(gold, response).prf(beta)


def lea(gold: Clustering, response: Clustering, beta: float = 1.0, *,
        singleton_self_links: bool = False) -> PRF:
    return lea_counts(gold, response, singleton_self_links=singleton_self_links).prf(beta)


def conll_average(muc_f: float, b_cubed_f: float, ceaf_e_f: float) -> float:
    """The customary summary score: mean of the MUC, B-cubed and entity
    CEAF F1 values."""
    return (muc_f + b_cubed_f + ceaf_e_f) / 3.0
