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

so ``q = (I - L)^{-1} diag(p)`` is one triangular solve.  For a scalar
with gradient ``G`` wrt ``q`` the reverse pass is another solve,
``Y = (I - L)^{-T} G``, and then ``dp = diag(Y) + strict_tril(Y q^T)``.
The temperature softmax is one masked log-space softmax over the whole
matrix.

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
from scipy.linalg import solve_triangular

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


def membership_array(p: np.ndarray) -> np.ndarray:
    """Membership of a raw lower-triangular link array: solves
    ``(I - L) q = diag(p)`` with ``L`` the strict lower part of ``p``.
    ``p`` must be finite: it is not scanned again here."""
    # unit_diagonal ignores the diagonal of -p, so the matrix is I - L.
    return solve_triangular(-p, np.diag(np.diagonal(p)), lower=True, unit_diagonal=True,
                            check_finite=False)


def membership_backward(p: np.ndarray, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Gradient of a scalar wrt p given its gradient wrt q = membership(p).

    With ``Y = (I - L)^{-T} dq``, ``dp = diag(Y) + strict_tril(Y q^T)``.
    ``p`` must be finite; a non-finite ``dq`` gives a non-finite result.
    """
    y = solve_triangular(-p, dq, lower=True, trans="T", unit_diagonal=True,
                         check_finite=False)
    dp = np.tril(y @ q.T, k=-1)
    dp[np.diag_indices_from(dp)] = np.diagonal(y)
    return dp


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
