"""Exact coreference clustering metrics.

All metrics compare two partitions of the same mention set and are
expressed as count quadruples (precision numerator / denominator, recall
numerator / denominator) so that document-level counts can be summed for
micro-averaged corpus scores before any division happens.

Every scorer is a closed form over one integer contingency matrix
``x[v, u] = |G_v & S_u|`` between the gold clusters G_v and the response
clusters S_u (both in ``Clustering.cluster_index`` order), built by
``_overlaps`` with one ``bincount``.  Its row and column sums are the
cluster sizes, and ``pairs(k) = k (k - 1) / 2`` counts the links inside
a set of k mentions, so MUC, B-cubed, BLANC and LEA need only sums over
x, and both CEAF variants align clusters on x itself or on
``2 x / (|G_v| + |S_u|)``.  ``corpus_report`` builds x once per document
pair and hands it to every entry of ``COUNTS_FROM_OVERLAPS``.

Implemented: MUC link-based scoring, B-cubed per-mention overlap, CEAF
under both the mention-overlap and normalized-entity similarities (with
an optimal one-to-one cluster alignment), BLANC as the average of the
coreferent-pair and non-coreferent-pair F scores, and LEA's
link-resolution score weighted by cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import Clustering
from .errors import InputError


def f_beta(precision: float, recall: float, beta: float = 1.0) -> float:
    """Weighted harmonic mean; beta > 1 favors recall.  0 when P = R = 0."""
    if not 0 < beta < np.inf:
        raise InputError(f"beta must be positive and finite, got {beta}")
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


def _overlaps(gold: Clustering, response: Clustering) -> np.ndarray:
    """The int64 contingency matrix x[v, u] = |G_v & S_u|, clusters in
    ``cluster_index`` order on both sides."""
    rows, cols = gold.cluster_index(), response.cluster_index()
    # Both cover 1..n, so equal sizes mean equal mention sets.
    if len(rows) != len(cols):
        raise InputError(
            f"gold and response cover different mentions ({len(rows)} vs {len(cols)})"
        )
    shape = (len(gold), len(response))
    return np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1]).reshape(shape)


def _pairs(k):
    return k * (k - 1) // 2


# ---------------------------------------------------------------------------
# MUC
# ---------------------------------------------------------------------------

def _muc(x: np.ndarray) -> MetricCounts:
    """Link-based counts: a cluster of size k contributes k - 1 links and
    loses one per part it is split into by the other side, so both sides
    resolve n - nnz(x) links."""
    n = int(x.sum())
    resolved = float(n - np.count_nonzero(x))
    return MetricCounts(resolved, float(n - x.shape[1]), resolved, float(n - x.shape[0]))


# ---------------------------------------------------------------------------
# B-cubed
# ---------------------------------------------------------------------------

def _b_cubed(x: np.ndarray) -> MetricCounts:
    """Per-mention counts: each mention scores the squared overlap of its
    gold and response clusters over the cluster size on each side."""
    x2 = x * x
    n = float(x.sum())
    # Builtin sum over clusters in order fixes the rounding of the totals.
    r_num = float(sum((x2.sum(axis=1) / x.sum(axis=1)).tolist()))
    p_num = float(sum((x2.sum(axis=0) / x.sum(axis=0)).tolist()))
    return MetricCounts(p_num, n, r_num, n)


# ---------------------------------------------------------------------------
# CEAF
# ---------------------------------------------------------------------------

def _optimal_alignment_total(similarity: np.ndarray) -> float:
    """Best one-to-one cluster alignment score (rectangular allowed)."""
    rows, cols = linear_sum_assignment(-similarity)
    return float(similarity[rows, cols].sum())


def _ceaf_m(x: np.ndarray) -> MetricCounts:
    """Mention-overlap similarity phi(G, S) = |G & S|."""
    best = _optimal_alignment_total(x)
    n = float(x.sum())
    return MetricCounts(best, n, best, n)


def _ceaf_e(x: np.ndarray) -> MetricCounts:
    """Normalized similarity phi(G, S) = 2|G & S| / (|G| + |S|)."""
    phi = 2.0 * x / (x.sum(axis=1)[:, None] + x.sum(axis=0)[None, :])
    best = _optimal_alignment_total(phi)
    return MetricCounts(best, float(x.shape[1]), best, float(x.shape[0]))


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


def _blanc(x: np.ndarray) -> BlancCounts:
    """Coreferent pairs in both partitions are the pairs inside each
    overlap; the non-coreferent pairs follow by inclusion-exclusion."""
    total = _pairs(int(x.sum()))
    both = int(_pairs(x).sum())
    gold = int(_pairs(x.sum(axis=1)).sum())
    response = int(_pairs(x.sum(axis=0)).sum())
    neither = total - gold - response + both
    return BlancCounts(
        coref=MetricCounts(float(both), float(response), float(both), float(gold)),
        non_coref=MetricCounts(float(neither), float(total - response),
                               float(neither), float(total - gold)),
    )


# ---------------------------------------------------------------------------
# LEA
# ---------------------------------------------------------------------------

def _lea(x: np.ndarray, singleton_self_links: bool = False) -> MetricCounts:
    """Each side reads its own clusters as the rows (x, then x.T): a
    cluster of size k > 1 resolves sum_u pairs(x[v, u]) of its pairs(k)
    links, so it adds k * resolved / pairs(k) = 2 * resolved / (k - 1)."""
    def side(x: np.ndarray) -> tuple[float, float]:
        sizes = x.sum(axis=1)
        multi = sizes > 1
        num = (2 * _pairs(x[multi]).sum(axis=1) / (sizes[multi] - 1)).sum()
        if singleton_self_links:
            num += np.count_nonzero(x[sizes == 1][:, x.sum(axis=0) == 1])
        return float(num), float(sizes.sum())

    r_num, r_den = side(x)
    p_num, p_den = side(x.T)
    return MetricCounts(p_num, p_den, r_num, r_den)


# Every scorer as a function of the contingency matrix, in report order.
COUNTS_FROM_OVERLAPS = {
    "muc": _muc, "b_cubed": _b_cubed, "ceaf_m": _ceaf_m,
    "ceaf_e": _ceaf_e, "blanc": _blanc, "lea": _lea,
}


def muc_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _muc(_overlaps(gold, response))


def b_cubed_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _b_cubed(_overlaps(gold, response))


def ceaf_m_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _ceaf_m(_overlaps(gold, response))


def ceaf_e_counts(gold: Clustering, response: Clustering) -> MetricCounts:
    return _ceaf_e(_overlaps(gold, response))


def blanc_counts(gold: Clustering, response: Clustering) -> BlancCounts:
    return _blanc(_overlaps(gold, response))


def lea_counts(gold: Clustering, response: Clustering, *,
               singleton_self_links: bool = False) -> MetricCounts:
    """Size-weighted link resolution counts.

    Each cluster contributes its size to the denominator and (size *
    resolved-link fraction) to the numerator.  With
    ``singleton_self_links`` a singleton owns one self-link, resolved
    exactly when the mention is also a singleton on the other side;
    otherwise singletons resolve nothing.
    """
    return _lea(_overlaps(gold, response), singleton_self_links)


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
