"""Differentiable relaxations of B-cubed and LEA over soft clusters.

A soft cluster S_u collects the membership probabilities q[i][u] of all
mentions for anchor u.  Cardinalities and link counts become sums of
probabilities and probability products:

    |S_u|_d    = sum_i q[i][u]
    link_d(S_u) = sum_{j<i} q[i][u] * q[j][u]

Soft intersections with a gold cluster restrict the sums to the gold
members.  Plugging these into the B-cubed and LEA precision/recall
formulas gives smooth surrogates whose F_beta can be maximized directly;
any ratio whose denominator falls below ``GUARD_EPS`` contributes 0, and
the same convention fixes its (sub)gradient to 0.

Each metric has one implementation.  ``b3_soft_grad`` and
``lea_soft_grad`` return the relaxed precision, recall and F_beta with
the closed-form gradient of F_beta with respect to every membership
entry; they are the top of the analytic backward chain through the
temperature softmax, the membership recursion, and the scoring network.
``relaxed_b3`` and ``relaxed_lea`` report the same P, R and F_beta and
drop the gradient, so the score they report is the objective that
training differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Clustering
from .errors import InputError, _check_range
from .membership import MembershipMatrix, temper_array

GUARD_EPS = 1e-12


@dataclass(frozen=True)
class RelaxedScore:
    """A relaxed F score with its soft precision/recall components."""

    value: float
    precision: float
    recall: float
    beta: float
    temperature: float


def gold_index_arrays(gold: Clustering, n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based cluster index per mention and cluster sizes, in
    ``cluster_index`` order."""
    if gold.num_mentions != n:
        raise InputError(
            f"gold clustering covers {gold.num_mentions} mentions, membership has {n}"
        )
    return gold.cluster_index(), np.bincount(gold.cluster_index()).astype(float)


def _soft_intersections(q: np.ndarray, gold_of: np.ndarray, num_clusters: int) -> np.ndarray:
    """x[v, u] = sum of q[i, u] over mentions i in gold cluster v."""
    one_hot = np.arange(num_clusters)[:, None] == gold_of[None, :]
    return one_hot.astype(float) @ q


def _guarded_inverse(values: np.ndarray) -> np.ndarray:
    keep = values > GUARD_EPS
    return np.where(keep, 1.0 / np.where(keep, values, 1.0), 0.0)


def _f_partials(p: float, r: float, beta: float) -> tuple[float, float, float]:
    """(F, dF/dP, dF/dR) with the 0-at-degenerate convention."""
    b2 = beta * beta
    denom = b2 * p + r
    if denom <= 0:
        return 0.0, 0.0, 0.0
    f = (1 + b2) * p * r / denom
    # Squaring the ratios, not denom, keeps P, R below ~1e-154 from
    # underflowing denom ** 2 to 0.
    dfdp = (1 + b2) * (r / denom) ** 2
    dfdr = (1 + b2) * b2 * (p / denom) ** 2
    return f, dfdp, dfdr


def _f_and_gradient(num_p: float, den_p: float, d_num_p: np.ndarray, recall: float,
                    d_recall: np.ndarray, beta: float) -> tuple[float, float, float, np.ndarray]:
    """(P, R, F_beta, dF/dq) given recall and the precision quotient
    num_p / den_p with their gradients; den_p = sum(q), so d den_p / dq = 1.
    Every row of q sums to 1, so den_p = n >= 1 needs no guard."""
    precision = num_p / den_p
    f, dfdp, dfdr = _f_partials(precision, recall, beta)
    d_precision = d_num_p / den_p - num_p / (den_p * den_p)
    return precision, recall, f, np.tril(dfdp * d_precision + dfdr * d_recall)


# ---------------------------------------------------------------------------
# Relaxed B-cubed
# ---------------------------------------------------------------------------

def b3_soft_grad(q: np.ndarray, gold_of: np.ndarray, sizes: np.ndarray,
                 beta: float = 1.0) -> tuple[float, float, float, np.ndarray]:
    """(precision, recall, F_beta) of relaxed B-cubed on raw memberships,
    plus the gradient of F_beta wrt every q[i, u]."""
    n = q.shape[0]
    x = _soft_intersections(q, gold_of, len(sizes))
    z = q.sum(axis=0)
    s2 = (x * x).sum(axis=0)
    recall = float((x * x / sizes[:, None]).sum()) / n
    inv_z = _guarded_inverse(z)
    num_p = float((s2 * inv_z).sum())

    a = x[gold_of]                       # a[i, u] = x[gold_of(i), u]
    d_recall = 2.0 * a / sizes[gold_of][:, None] / n
    # num_p = sum_u s2_u / z_u: the quotient rule per column; guarded
    # columns have inv_z = 0 so both terms vanish there.
    d_num_p = 2.0 * a * inv_z[None, :] - s2[None, :] * inv_z[None, :] ** 2
    return _f_and_gradient(num_p, float(z.sum()), d_num_p, recall, d_recall, beta)


# ---------------------------------------------------------------------------
# Relaxed LEA
# ---------------------------------------------------------------------------

def lea_soft_grad(q: np.ndarray, gold_of: np.ndarray, sizes: np.ndarray,
                  beta: float = 1.0) -> tuple[float, float, float, np.ndarray]:
    """(precision, recall, F_beta) of relaxed LEA on raw memberships,
    plus the gradient of F_beta wrt every q[i, u]."""
    n = q.shape[0]
    num_clusters = len(sizes)
    x = _soft_intersections(q, gold_of, num_clusters)
    sq = q * q
    xsq = _soft_intersections(sq, gold_of, num_clusters)
    ell = 0.5 * (x * x - xsq)            # soft links inside gold cluster v, column u
    z = q.sum(axis=0)
    links = 0.5 * (z * z - sq.sum(axis=0))
    gold_links = sizes * (sizes - 1.0) / 2.0
    inv_gold_links = _guarded_inverse(gold_links)
    recall = float((sizes * ell.sum(axis=1) * inv_gold_links).sum()) / n
    ell_col = ell.sum(axis=0)
    inv_links = _guarded_inverse(links)
    resolved = ell_col * inv_links       # per-column resolved-link fraction
    num_p = float((z * resolved).sum())

    a = x[gold_of]
    d_ell = a - q                        # d ell[gold_of(i), u] / d q[i, u]
    d_links = z[None, :] - q             # d links_u / d q[i, u]
    d_recall = (sizes[gold_of] * inv_gold_links[gold_of])[:, None] * d_ell / n
    d_resolved = d_ell * inv_links[None, :] - ell_col[None, :] * inv_links[None, :] ** 2 * d_links
    d_num_p = resolved[None, :] + z[None, :] * d_resolved
    return _f_and_gradient(num_p, float(z.sum()), d_num_p, recall, d_recall, beta)


# ---------------------------------------------------------------------------
# Public wrappers over MembershipMatrix
# ---------------------------------------------------------------------------

def _relaxed(soft_grad, memberships: MembershipMatrix, gold: Clustering,
             beta: float, temperature: float) -> RelaxedScore:
    _check_range("beta", beta)
    _check_range("temperature", temperature)
    q = temper_array(memberships.probs, temperature)
    gold_of, sizes = gold_index_arrays(gold, memberships.n)
    precision, recall, f, _ = soft_grad(q, gold_of, sizes, beta)
    return RelaxedScore(f, precision, recall, beta, temperature)


def relaxed_b3(memberships: MembershipMatrix, gold: Clustering,
               beta: float = 1.0, temperature: float = 1.0) -> RelaxedScore:
    """Relaxed B-cubed F of soft clusters against a gold clustering."""
    return _relaxed(b3_soft_grad, memberships, gold, beta, temperature)


def relaxed_lea(memberships: MembershipMatrix, gold: Clustering,
                beta: float = 1.0, temperature: float = 1.0) -> RelaxedScore:
    """Relaxed LEA F of soft clusters against a gold clustering."""
    return _relaxed(lea_soft_grad, memberships, gold, beta, temperature)
