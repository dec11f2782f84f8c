"""Antecedent link distributions and mention-to-entity membership.

A link distribution assigns each mention ``i`` a probability over
antecedent choices ``j <= i`` (``j = i`` means "starts a new entity").
The membership matrix gives, for every mention ``i`` and candidate
entity anchor ``u <= i``, the probability that ``i`` belongs to the
entity opened by mention ``u``.  It obeys the recursion

    q[i][i] = p[i][i]
    q[i][u] = sum_{j=u..i-1} p[i][j] * q[j][u]      for u < i

so each row is again a distribution, and anchors can only lose mass as
the document proceeds (``q[i][u] <= q[u][u]`` for ``i > u``).

In matrix form the recursion is the unit-lower-triangular system

    (I - L) q = diag(p),   L = strict lower part of p

whose inverse R = (I - L)^{-1}, the reach matrix, is again unit lower
triangular: R[i, u] is the probability that mention i's antecedent chain
passes through u, so every entry lies in [0, 1].  The forward pass takes
R from one LAPACK triangular inversion and scales its columns,
``q = R diag(p)``.  For a scalar with gradient ``G`` wrt ``q`` the
reverse pass reuses R: two triangular BLAS products give ``Y = R^T G``
and ``Y q^T``, and ``dp = diag(Y) + strict_tril(Y q^T)``.  The training
losses keep R from their forward pass; the public backward rebuilds it
from ``p``, through the same code.  The temperature softmax is one masked
log-space softmax over the whole matrix.

All public containers use 1-based mention indices; the underlying numpy
arrays are 0-based.  Every n x n array of the chain, from the row softmax
to the relaxed B-cubed/LEA gradient, is exactly zero above the diagonal
(j <= i, u <= i): the function that makes an array makes it so, and none
re-masks an array it is given.  The containers keep the lower triangle of
their checked copy, dropping the slack above the diagonal that the check
tolerates.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from .corpus import _read_only
from .errors import InputError, _check_range

ROW_SUM_TOL = 1e-9


class _RowStochastic:
    """A row-stochastic lower-triangular matrix.  The constructor checks a
    copy of its input once, at ``ROW_SUM_TOL``, and keeps its lower
    triangle, read-only."""

    __slots__ = ("_probs",)

    def __init__(self, probs: np.ndarray):
        probs, name = np.array(probs, dtype=float), self._name
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise InputError(f"{name} must be a square matrix")
        if probs.shape[0] == 0:
            raise InputError(f"{name} must cover at least one mention")
        if not np.all(np.isfinite(probs)):
            raise InputError(f"{name} has non-finite entries")
        if np.any(probs < -ROW_SUM_TOL):
            raise InputError(f"{name} has negative entries")
        lower = np.tril(probs)
        if np.max(np.abs(probs - lower)) > ROW_SUM_TOL:
            raise InputError(f"{name} has mass above the diagonal")
        sums = lower.sum(axis=1)
        row = int(np.argmax(np.abs(sums - 1.0)))
        if abs(sums[row] - 1.0) > ROW_SUM_TOL:
            raise InputError(f"{name} row {row + 1} sums to {sums[row]:.12f}, not 1")
        self._probs = _read_only(lower)

    probs = property(lambda self: self._probs, doc="The checked lower triangle, read-only.")

    @property
    def n(self) -> int:
        return self._probs.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class LinkDistribution(_RowStochastic):
    """Row-stochastic lower-triangular antecedent probabilities.

    ``probs[i - 1, j - 1]`` is p(a_i = j) for ``j <= i``, 1-based.
    """

    __slots__ = ()
    _name = "link distribution"


class MembershipMatrix(_RowStochastic):
    """Mention-to-entity membership probabilities q[i][u], 1-based."""

    __slots__ = ()
    _name = "membership matrix"


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax of ``logits`` over the entries where ``mask`` holds;
    every other entry gets exactly zero mass.  Each row needs at least
    one masked entry."""
    masked = np.where(mask, logits, -np.inf)
    weights = np.exp(masked - masked.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def _reach(p: np.ndarray) -> np.ndarray:
    """The reach matrix ``R = (I - L)^{-1}`` of a raw lower-triangular link
    array, C-ordered, with a unit diagonal and +0.0 above it."""
    # LAPACK gets the F-ordered transpose, an upper triangle, so f2py copies
    # nothing; 0.0 - p, unlike -p, leaves +0.0 where p is zero.  The
    # unit-diagonal inverse does not touch the diagonal, which still holds -p.
    reach_t, _ = dtrtri(np.subtract(0.0, p.T), lower=0, unitdiag=1, overwrite_c=1)
    np.fill_diagonal(reach_t, 1.0)
    return reach_t.T


def _membership_and_reach(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q = R diag(p)`` and the reach matrix ``R`` that the backward pass
    reuses.  ``p`` must be finite: it is not scanned again here."""
    reach = _reach(p)
    return reach * np.diagonal(p), reach


def _reach_backward(reach: np.ndarray, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """``dp = diag(Y) + strict_tril(Y q^T)`` with ``Y = R^T dq``: two
    triangular products, each on F-ordered transposes, so that f2py copies
    only ``dq`` into the first product's output."""
    y_t = dtrmm(1.0, reach.T, dq.T, side=1, lower=0, trans_a=1, diag=1)
    d_self = np.diagonal(y_t).copy()
    dp = np.tril(dtrmm(1.0, q.T, y_t, lower=0, trans_a=1, overwrite_b=1).T, k=-1)
    dp[np.diag_indices_from(dp)] = d_self
    return dp


def membership_array(p: np.ndarray) -> np.ndarray:
    """Membership of a raw lower-triangular link array: ``q = R diag(p)``
    with ``R = (I - L)^{-1}`` and ``L`` the strict lower part of ``p``.
    ``p`` must be finite: it is not scanned again here."""
    return _membership_and_reach(p)[0]


def membership_backward(p: np.ndarray, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Gradient of a scalar wrt p given its gradient wrt q = membership(p).

    With ``Y = R^T dq``, ``dp = diag(Y) + strict_tril(Y q^T)``; R is
    rebuilt from ``p``.  ``p`` must be finite; a non-finite ``dq`` gives a
    non-finite result.
    """
    return _reach_backward(_reach(p), q, dq)


def membership(links: LinkDistribution) -> MembershipMatrix:
    """Entity membership probabilities implied by a link distribution."""
    return MembershipMatrix(membership_array(links.probs))


def temper_array(q: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-sharpened membership rows, in log space.

    Row i is softmax(log q[i, u] / T) over u <= i; structural zeros and
    exact zero entries keep zero mass at every temperature.  At T = 1 the
    rows are already distributions and ``q`` itself is returned.  The
    callers check the temperature (``tempered_membership``, the relaxed
    metrics and the loss entry points), so a training step does not.
    """
    if temperature == 1.0:
        return q
    support = q > 0.0
    empty = ~support.any(axis=1)
    if np.any(empty):
        raise InputError(f"membership row {int(np.argmax(empty)) + 1} has no positive mass")
    return masked_softmax(np.log(np.where(support, q, 1.0)) / temperature, support)


def temper_backward(q: np.ndarray, qt: np.ndarray, temperature: float,
                    dqt: np.ndarray) -> np.ndarray:
    """Gradient wrt q of a scalar given its gradient wrt temper_array(q).

    Uses the softmax Jacobian in log space: for row probabilities s over
    the positive support, ds/dlogq = (s * (ds - s . ds)) and
    dlogq/dq = 1/q, giving dq = (1/T) * (s/q) * (ds - sum(s * ds)).
    At T = 1 temper_array is the identity, so ``dqt`` is returned.
    """
    if temperature == 1.0:
        return dqt
    support = q > 0.0
    ratio = np.where(support, qt / np.where(support, q, 1.0), 0.0)
    rowdot = (qt * dqt).sum(axis=1, keepdims=True)
    return ratio * (dqt - rowdot) / temperature


def tempered_membership(memberships: MembershipMatrix, temperature: float) -> MembershipMatrix:
    """Sharpen (T < 1) or flatten (T > 1) membership rows; T = 1 is identity."""
    _check_range("temperature", temperature)
    return MembershipMatrix(temper_array(memberships.probs, temperature))
