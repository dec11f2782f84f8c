"""Membership recursion, its brute-force oracle, and temperature scaling.

The independent oracle here enumerates every antecedent vector with
exact rational arithmetic, follows links to cluster anchors, and sums
path probabilities; the recursion must reproduce it.  The row-by-row
loops below are the reference for the closed forms on long documents.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (LOSS_KINDS, ConfigError, InputError, LinkDistribution,
                       MembershipMatrix, ModelParams, grad_check, membership,
                       tempered_membership)
from softcoref import model
from softcoref.membership import (_reach, masked_softmax, membership_array,
                                  membership_backward, temper_array, temper_backward)
from softcoref.relaxed import b3_soft_grad, gold_index_arrays, lea_soft_grad

from conftest import make_document, random_clustering, random_link_distribution
from oracles import brute_force_membership


def enumeration_oracle(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Membership by rational enumeration of all antecedent vectors."""
    n = len(rows)
    q = [[Fraction(0)] * n for _ in range(n)]
    for vector in itertools.product(*(range(i + 1) for i in range(n))):
        weight = Fraction(1)
        for i, j in enumerate(vector):
            weight *= rows[i][j]
        for m in range(n):
            root = m
            while vector[root] != root:
                root = vector[root]
            q[m][root] += weight
    return q


def exact_membership(p: np.ndarray) -> list[list[Fraction]]:
    """The recursion in exact rational arithmetic on the float entries of p."""
    n = p.shape[0]
    rows = [[Fraction(x) for x in row] for row in p.tolist()]
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = rows[i][i]
        for u in range(i):
            q[i][u] = sum((rows[i][j] * q[j][u] for j in range(u, i)), Fraction(0))
    return q


def gamma_link_rows(rng: np.random.Generator, n: int, shape: float) -> np.ndarray:
    """Dirichlet(shape) link rows from normalised gamma draws; a small shape
    gives peaked rows whose smallest entries span hundreds of decades."""
    weights = np.tril(rng.gamma(shape, size=(n, n)))
    return weights / weights.sum(axis=1, keepdims=True)


def loop_membership(p: np.ndarray) -> np.ndarray:
    """The recursion q[i, :i] = p[i, :i] @ q[:i, :i], q[i, i] = p[i, i]."""
    n = p.shape[0]
    q = np.zeros_like(p)
    for i in range(n):
        q[i, i] = p[i, i]
        q[i, :i] = p[i, :i] @ q[:i, :i]
    return q


def loop_membership_backward(p: np.ndarray, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Reverse sweep of the recursion, one row at a time."""
    n = p.shape[0]
    gbar = np.tril(dq).astype(float, copy=True)
    dp = np.zeros_like(p)
    for i in range(n - 1, -1, -1):
        dp[i, i] += gbar[i, i]
        dp[i, :i] += q[:i, :] @ gbar[i, :]
        gbar[:i, :] += np.outer(p[i, :i], gbar[i, :])
    return dp


def loop_temper(q: np.ndarray, temperature: float) -> np.ndarray:
    """Row-by-row softmax(log q / T) over the positive entries u <= i."""
    out = np.zeros_like(q)
    for i in range(q.shape[0]):
        row = q[i, : i + 1]
        mask = row > 0.0
        logs = np.log(row[mask]) / temperature
        w = np.exp(logs - logs.max())
        out[i, : i + 1][mask] = w / w.sum()
    return out


def loop_temper_backward(q: np.ndarray, qt: np.ndarray, temperature: float,
                         dqt: np.ndarray) -> np.ndarray:
    """Row-by-row log-space softmax Jacobian."""
    dq = np.zeros_like(q)
    for i in range(q.shape[0]):
        row_q, row_s, row_ds = q[i, : i + 1], qt[i, : i + 1], dqt[i, : i + 1]
        ratio = np.where(row_q > 0.0, row_s / np.where(row_q > 0.0, row_q, 1.0), 0.0)
        dq[i, : i + 1] = ratio * (row_ds - row_s @ row_ds) / temperature
    return dq


def assert_close_to_scale(actual: np.ndarray, expected: np.ndarray, tol: float = 1e-12):
    """Largest difference at most ``tol`` times the larger of 1 and max |expected|."""
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= tol * scale


FIXTURE_ROWS = [
    [Fraction(1)],
    [Fraction(3, 5), Fraction(2, 5)],
    [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
]


class TestMembership:
    def test_repr_names_the_class_and_size(self, links3):
        assert repr(links3) == "LinkDistribution(n=3)"

    def test_single_mention(self):
        np.testing.assert_array_equal(
            membership(LinkDistribution(np.array([[1.0]]))).probs, [[1.0]])

    def test_worked_example_row3(self, links3):
        q = membership(links3)
        np.testing.assert_allclose(q.probs[1], [0.6, 0.4, 0.0], atol=1e-15)
        np.testing.assert_allclose(q.probs[2], [0.68, 0.12, 0.20], atol=1e-15)

    def test_worked_example_matches_rational_oracle(self, links3):
        expected = enumeration_oracle(FIXTURE_ROWS)
        np.testing.assert_allclose(
            membership(links3).probs,
            np.array([[float(x) for x in row] for row in expected]),
            atol=1e-15,
        )

    def test_one_hot_chain(self):
        probs = np.zeros((3, 3))
        probs[0, 0] = probs[1, 0] = probs[2, 1] = 1.0
        q = membership(LinkDistribution(probs))
        np.testing.assert_allclose(q.probs[:, 0], [1.0, 1.0, 1.0], atol=1e-15)
        assert q.probs[:, 1:].sum() == 0.0

    def test_rejects_denormalized_input(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        links = LinkDistribution(probs)
        with pytest.raises(ValueError):
            links.probs[1, 0] = 0.9  # the checked rows are read-only
        probs[1, 0] = 0.9  # and a copy of the caller's array
        np.testing.assert_array_equal(membership(links).probs, [[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InputError):
            LinkDistribution(probs)

    @pytest.mark.parametrize("container", [LinkDistribution, MembershipMatrix])
    @pytest.mark.parametrize("probs, message", [
        (np.full((2, 3), 1 / 3), "must be a square matrix"),
        (np.ones(1), "must be a square matrix"),
        (np.zeros((0, 0)), "must cover at least one mention"),
        ([[1.0, 0.0], [np.nan, 1.0]], "has non-finite entries"),
        ([[1.0, 0.0], [np.inf, 1.0]], "has non-finite entries"),
        ([[1.0, 0.0], [1.5, -0.5]], "has negative entries"),
        ([[1.0, 1e-6], [0.5, 0.5]], "has mass above the diagonal"),
    ], ids=["rectangular", "vector", "empty", "nan", "inf", "negative", "upper-mass"])
    def test_rejects_malformed_input(self, container, probs, message):
        with pytest.raises(InputError, match=f"^{container._name} {message}$"):
            container(np.array(probs))

    @pytest.mark.parametrize("container", [LinkDistribution, MembershipMatrix])
    def test_stores_the_lower_triangle(self, container):
        probs = np.array([[1.0, 5e-10, 0.0], [0.6, 0.4, -5e-10], [0.5, 0.3, 0.2]])
        np.testing.assert_array_equal(container(probs).probs, np.tril(probs))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, seed, n):
        links = random_link_distribution(np.random.default_rng(seed), n)
        sums = membership(links).probs.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(n), atol=1e-9)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    @settings(max_examples=60, deadline=None)
    def test_anchor_mass_never_grows(self, seed, n):
        q = membership(random_link_distribution(np.random.default_rng(seed), n)).probs
        diag = np.diag(q)
        for i in range(n):
            assert np.all(q[i, : i + 1] <= diag[: i + 1] + 1e-12)


class TestReachMatrix:
    """q = R diag(p) through the reach matrix R = (I - L)^{-1}."""

    @pytest.mark.parametrize("seed", range(4))
    def test_peaked_rows_keep_relative_accuracy(self, seed):
        # Peaked rows are what low-temperature tempering sharpens further,
        # so every entry, however small, must keep its leading digits.
        rng = np.random.default_rng(seed)
        p = gamma_link_rows(rng, int(rng.integers(10, 31)), shape=0.1)
        exact, q = exact_membership(p), membership_array(p)
        errors = [abs(Fraction(float(q[i, u])) - x) / x
                  for i, row in enumerate(exact) for u, x in enumerate(row) if x > 1e-300]
        assert float(max(errors)) <= 1e-14

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           shape=st.sampled_from([0.1, 1.0, 10.0]))
    @settings(max_examples=80, deadline=None)
    def test_reach_is_unit_lower_triangular_within_the_unit_interval(self, seed, n, shape):
        reach = _reach(gamma_link_rows(np.random.default_rng(seed), n, shape))
        assert reach.flags.c_contiguous
        np.testing.assert_array_equal(np.diagonal(reach), np.ones(n))
        above = reach[np.triu_indices(n, k=1)]
        assert np.all(above == 0.0) and not np.any(np.signbit(above))
        # R[i, u] is a probability; rounding may carry a sum of n terms an
        # ulp or so past 1.
        assert np.all(reach >= 0.0) and np.all(reach <= 1.0 + n * np.finfo(float).eps)

    @pytest.mark.parametrize("kind", ["ec-heuristic", "b3", "lea"])
    def test_public_backward_is_the_losses_path_bit_for_bit(self, kind, monkeypatch):
        seen, model_backward = [], model._reach_backward

        def recording(reach, q, dq):
            seen.append((q, dq, model_backward(reach, q, dq)))
            return seen[-1][-1]

        monkeypatch.setattr(model, "_reach_backward", recording)
        rng = np.random.default_rng(29)
        doc = make_document("d", rng.integers(0, 6, size=30), seed=29)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=29)
        grad = model.document_loss_and_grad(doc, params, kind, temperature=0.5)[1]
        assert np.all(np.isfinite(grad.to_vector())) and len(seen) == 1
        q, dq, dp = seen[0]
        probs = masked_softmax(model.score_pairs(doc, params), doc.candidate_mask)
        np.testing.assert_array_equal(membership_array(probs), q)
        np.testing.assert_array_equal(membership_backward(probs, q, dq), dp)


class TestBruteForce:
    def test_single_mention(self):
        links = LinkDistribution(np.array([[1.0]]))
        np.testing.assert_array_equal(brute_force_membership(links).probs, [[1.0]])

    def test_worked_example(self, links3):
        np.testing.assert_allclose(
            brute_force_membership(links3).probs[2], [0.68, 0.12, 0.20], atol=1e-12)

    def test_refuses_large_documents(self):
        links = random_link_distribution(np.random.default_rng(0), 9)
        with pytest.raises(InputError):
            brute_force_membership(links)

    def test_uniform_rows_match_recursion(self):
        probs = np.zeros((4, 4))
        for i in range(4):
            probs[i, : i + 1] = 1.0 / (i + 1)
        links = LinkDistribution(probs)
        np.testing.assert_allclose(membership(links).probs,
                                   brute_force_membership(links).probs, atol=1e-10)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_recursion(self, seed, n):
        links = random_link_distribution(np.random.default_rng(seed), n)
        np.testing.assert_allclose(membership(links).probs,
                                   brute_force_membership(links).probs, atol=1e-10)


class TestTemper:
    def test_identity_at_unit_temperature(self, links3):
        q = membership(links3)
        np.testing.assert_array_equal(tempered_membership(q, 1.0).probs, q.probs)

    def test_low_temperature_approaches_argmax(self, links3):
        q = membership(links3)
        sharp = tempered_membership(q, 0.01)
        np.testing.assert_allclose(sharp.probs[2], [1.0, 0.0, 0.0], atol=1e-6)

    def test_uniform_row_fixed_at_any_temperature(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0
        probs[1] = [0.5, 0.5]
        q = MembershipMatrix(probs)
        for temp in (0.05, 0.5, 1.0, 3.0):
            np.testing.assert_allclose(tempered_membership(q, temp).probs[1],
                                       [0.5, 0.5], atol=1e-12)

    def test_exact_zeros_stay_zero(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.7, 0.3, 0.0], [0.4, 0.6, 0.0]])
        q = MembershipMatrix(probs)
        for temp in (0.1, 0.9, 2.0):
            assert tempered_membership(q, temp).probs[2, 2] == 0.0

    def test_rejects_nonpositive_temperature(self, links3):
        q = membership(links3)
        for temp in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="temperature must be positive and finite"):
                tempered_membership(q, temp)

    def test_rejects_row_without_mass(self):
        q = np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None]
        q[2, :3] = 0.0
        with pytest.raises(InputError, match="row 3 has no positive mass"):
            temper_array(q, 0.5)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
           temp=st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_rows_stay_normalized_and_ranked(self, seed, n, temp):
        q = membership(random_link_distribution(np.random.default_rng(seed), n))
        sharp = tempered_membership(q, temp)
        np.testing.assert_allclose(sharp.probs.sum(axis=1), np.ones(n), atol=1e-9)
        np.testing.assert_array_equal(np.argmax(sharp.probs, axis=1),
                                      np.argmax(q.probs, axis=1))


class TestLayoutContract:
    """Every array of the chain, forward and backward, is exactly zero
    above the diagonal: the functions that make them keep the triangle, so
    no consumer needs to mask."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           temp=st.sampled_from([0.3, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_chain_is_zero_above_the_diagonal(self, seed, n, temp):
        rng = np.random.default_rng(seed)
        p = masked_softmax(rng.normal(0.0, 3.0, (n, n)), np.tri(n, dtype=bool))
        q = membership_array(p)
        qt = temper_array(q, temp)
        gold_of, sizes = gold_index_arrays(random_clustering(rng, n), n)
        arrays = {"masked_softmax": p, "membership_array": q, "temper_array": qt}
        for soft_grad in (b3_soft_grad, lea_soft_grad):
            *_, d_qt = soft_grad(qt, gold_of, sizes)
            d_q = temper_backward(q, qt, temp, d_qt)
            arrays.update({soft_grad.__name__: d_qt, "temper_backward": d_q,
                           "membership_backward": membership_backward(p, q, d_q)})
            for name, array in arrays.items():
                assert np.all(np.triu(array, k=1) == 0.0), name


class TestArrayBackward:
    """Finite-difference checks of the raw backward passes."""

    def test_membership_backward_matches_fd(self):
        rng = np.random.default_rng(7)
        n = 5
        p = np.tril(rng.uniform(0.1, 1.0, (n, n)))
        weights = np.tril(rng.normal(size=(n, n)))
        q = membership_array(p)
        analytic = membership_backward(p, q, weights)
        h = 1e-6
        for i in range(n):
            for j in range(i + 1):
                bumped = p.copy()
                bumped[i, j] += h
                plus = float((membership_array(bumped) * weights).sum())
                bumped[i, j] -= 2 * h
                minus = float((membership_array(bumped) * weights).sum())
                fd = (plus - minus) / (2 * h)
                assert abs(analytic[i, j] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_temper_backward_matches_fd(self, links3):
        rng = np.random.default_rng(3)
        q = membership_array(links3.probs)
        weights = np.tril(rng.normal(size=q.shape))
        for temp in (0.3, 1.0, 2.0):
            qt = temper_array(q, temp)
            analytic = temper_backward(q, qt, temp, weights)
            h = 1e-7
            for i in range(q.shape[0]):
                for j in range(i + 1):
                    bumped = q.copy()
                    bumped[i, j] += h
                    plus = float((temper_array(bumped, temp) * weights).sum())
                    bumped[i, j] -= 2 * h
                    minus = float((temper_array(bumped, temp) * weights).sum())
                    fd = (plus - minus) / (2 * h)
                    assert abs(analytic[i, j] - fd) < 1e-5 * max(1.0, abs(fd))


class TestLongDocuments:
    """Closed forms against the row-by-row loops, and every loss's
    gradient, on documents with hundreds of mentions."""

    N = 300

    def test_membership_matches_loops(self):
        rng = np.random.default_rng(300)
        p = random_link_distribution(rng, self.N).probs
        q = membership_array(p)
        assert_close_to_scale(q, loop_membership(p))
        dq = np.tril(rng.normal(size=p.shape))
        assert_close_to_scale(membership_backward(p, q, dq),
                              loop_membership_backward(p, q, dq))

    @pytest.mark.parametrize("temp", [0.1, 0.5, 2.0])
    def test_temper_matches_loops(self, temp):
        rng = np.random.default_rng(301)
        q = membership_array(random_link_distribution(rng, self.N).probs)
        qt = temper_array(q, temp)
        assert_close_to_scale(qt, loop_temper(q, temp))
        dqt = np.tril(rng.normal(size=q.shape))
        assert_close_to_scale(temper_backward(q, qt, temp, dqt),
                              loop_temper_backward(q, qt, temp, dqt))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradients_at_150_mentions(self, kind):
        rng = np.random.default_rng(150)
        labels = rng.integers(0, 12, size=150)
        first = {}
        ids = [first.setdefault(int(lab), i) for i, lab in enumerate(labels, start=1)]
        doc = make_document("long", ids, seed=150)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=150)
        assert grad_check(doc, params, kind, temperature=0.5, max_coords=16) < 1e-5
