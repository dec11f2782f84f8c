"""Relaxed (differentiable) B-cubed and LEA scores and their gradients.

The headline fixture values are recomputed here with Fraction arithmetic
straight from the soft-cluster definitions, independent of the numpy
implementation.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, ConfigError, InputError, LinkDistribution,
                       MembershipMatrix, ModelParams, b_cubed, document_loss,
                       f_beta, l1_norm, lea, membership, relaxed_b3, relaxed_lea,
                       tempered_membership)
from softcoref.clustering import antecedents_to_clusters
from softcoref.membership import temper_array, temper_backward
from softcoref.relaxed import (GUARD_EPS, _f_partials, b3_soft_grad, gold_index_arrays,
                               lea_soft_grad)

from conftest import (make_document, peaked_link_distribution, random_clustering,
                      random_link_distribution)


def one_hot_memberships(antecedents: tuple[int, ...]) -> MembershipMatrix:
    n = len(antecedents)
    probs = np.zeros((n, n))
    probs[np.arange(n), np.array(antecedents) - 1] = 1.0
    return membership(LinkDistribution(probs))


def random_antecedents(rng, n: int) -> tuple[int, ...]:
    return tuple(int(rng.integers(1, i + 1)) for i in range(1, n + 1))


def soft_size(memberships: MembershipMatrix, u: int) -> float:
    """Expected cardinality of soft cluster S_u (1-based anchor), one
    anchor at a time: the oracle for the column sums of the relaxed scores."""
    if not (1 <= u <= memberships.n):
        raise InputError(f"entity anchor {u} out of range 1..{memberships.n}")
    return float(memberships.probs[:, u - 1].sum())


def soft_link(memberships: MembershipMatrix, u: int, restrict=None) -> float:
    """Expected number of mention pairs inside soft cluster S_u, one anchor
    at a time.  With ``restrict``, only pairs with both mentions in the
    given 1-based set count (an intersection with a gold cluster)."""
    n = memberships.n
    if not (1 <= u <= n):
        raise InputError(f"entity anchor {u} out of range 1..{n}")
    col = memberships.probs[:, u - 1]
    if restrict is not None:
        members = sorted(set(int(m) for m in restrict))
        if members and not (1 <= members[0] and members[-1] <= n):
            raise InputError(f"restrict set out of range 1..{n}")
        col = col[[m - 1 for m in members]]
    total = col.sum()
    return float(0.5 * (total * total - (col * col).sum()))


# ---------------------------------------------------------------------------
# Rational oracle for the full soft pipeline
# ---------------------------------------------------------------------------

def frac_memberships(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = rows[i][i]
        for u in range(i):
            q[i][u] = sum(rows[i][j] * q[j][u] for j in range(u, i))
    return q


def frac_b3(q: list[list[Fraction]], gold: Clustering, guard: Fraction = Fraction(0)):
    """Relaxed B3 (P, R, F_1); a soft cluster of mass at most ``guard``
    adds nothing to the precision."""
    n = len(q)
    clusters = gold.sorted_clusters()
    z = [sum(q[i][u] for i in range(n)) for u in range(n)]
    recall = Fraction(0)
    for cluster in clusters:
        for u in range(n):
            x = sum(q[i - 1][u] for i in cluster)
            recall += x * x / len(cluster)
    recall /= n
    num_p = Fraction(0)
    for u in range(n):
        if z[u] <= guard:
            continue
        s2 = sum(sum(q[i - 1][u] for i in cluster) ** 2 for cluster in clusters)
        num_p += s2 / z[u]
    precision = num_p / sum(z)
    f = 2 * precision * recall / (precision + recall)
    return precision, recall, f


def frac_lea(q: list[list[Fraction]], gold: Clustering, guard: Fraction = Fraction(0)):
    """Relaxed LEA (P, R, F_1); a soft cluster of at most ``guard`` links
    adds nothing to the precision."""
    n = len(q)
    clusters = gold.sorted_clusters()

    def links(col: list[Fraction]) -> Fraction:
        total = sum(col)
        return (total * total - sum(c * c for c in col)) / 2

    recall = Fraction(0)
    for cluster in clusters:
        gold_links = Fraction(len(cluster) * (len(cluster) - 1), 2)
        if gold_links == 0:
            continue
        inside = sum(links([q[i - 1][u] for i in cluster]) for u in range(n))
        recall += len(cluster) * inside / gold_links
    recall /= n
    num_p, den_p = Fraction(0), Fraction(0)
    for u in range(n):
        col = [q[i][u] for i in range(n)]
        z, link_u = sum(col), links(col)
        den_p += z
        if link_u <= guard:
            continue
        inside = sum(links([q[i - 1][u] for i in cluster]) for cluster in clusters)
        num_p += z * inside / link_u
    precision = num_p / den_p
    f = 2 * precision * recall / (precision + recall)
    return precision, recall, f


FRAC_ROWS = [
    [Fraction(1)],
    [Fraction(3, 5), Fraction(2, 5)],
    [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
]


def padded(rows):
    n = len(rows)
    return [row + [Fraction(0)] * (n - len(row)) for row in rows]


# ---------------------------------------------------------------------------
# Soft sizes and links
# ---------------------------------------------------------------------------

class TestSoftStatistics:
    def test_soft_size(self, links3):
        m = membership(links3)
        assert abs(soft_size(m, 1) - 2.28) < 1e-12
        assert abs(soft_size(m, 2) - 0.52) < 1e-12
        assert abs(soft_size(m, 3) - 0.20) < 1e-12

    def test_sizes_sum_to_n(self, links3):
        m = membership(links3)
        assert abs(sum(soft_size(m, u) for u in (1, 2, 3)) - 3.0) < 1e-12

    def test_soft_link(self, links3):
        m = membership(links3)
        assert abs(soft_link(m, 1) - 1.688) < 1e-12

    def test_soft_link_restricted(self, links3):
        m = membership(links3)
        assert abs(soft_link(m, 1, restrict={1, 3}) - 0.68) < 1e-12

    def test_restrict_to_one_mention_gives_no_links(self, links3):
        m = membership(links3)
        assert soft_link(m, 1, restrict={2}) == 0.0

    def test_anchor_out_of_range(self, links3):
        m = membership(links3)
        with pytest.raises(InputError):
            soft_size(m, 0)
        with pytest.raises(InputError):
            soft_link(m, 4)

    def test_restrict_out_of_range(self, links3):
        m = membership(links3)
        with pytest.raises(InputError):
            soft_link(m, 1, restrict={0, 2})

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_sums_match_oracle(self, seed, n):
        """lea_soft_grad's precision and recall equal the LEA formulas built
        from the per-anchor soft sizes, soft links and soft links inside
        each gold cluster."""
        rng = np.random.default_rng(seed)
        m = membership(random_link_distribution(rng, n))
        gold = random_clustering(rng, n)
        anchors = range(1, n + 1)
        sizes = [soft_size(m, u) for u in anchors]
        links = [soft_link(m, u) for u in anchors]
        inside = [[soft_link(m, u, restrict=c) for u in anchors] for c in gold.sorted_clusters()]
        num_p = sum(z * sum(col) / link
                    for z, link, col in zip(sizes, links, zip(*inside)) if link > GUARD_EPS)
        recall = sum(len(c) * sum(row) / (len(c) * (len(c) - 1) / 2)
                     for c, row in zip(gold.sorted_clusters(), inside) if len(c) > 1) / n
        p, r, _, _ = lea_soft_grad(m.probs, *gold_index_arrays(gold, n))
        assert abs(p - num_p / sum(sizes)) < 1e-12
        assert abs(r - recall) < 1e-12


# ---------------------------------------------------------------------------
# Fixture values for the relaxed scores
# ---------------------------------------------------------------------------

class TestRelaxedFixtures:
    def test_b3_against_rational_oracle(self, links3):
        m = membership(links3)
        gold = Clustering([{1, 2, 3}])
        p, r, f = frac_b3(frac_memberships(padded(FRAC_ROWS)), gold)
        assert (p, r, f) == (1, Fraction(3443, 5625), Fraction(3443, 4534))
        score = relaxed_b3(m, gold)
        assert abs(score.precision - p) < 1e-12
        assert abs(score.recall - r) < 1e-12
        assert abs(score.value - f) < 1e-12

    def test_lea_against_rational_oracle(self, links3):
        m = membership(links3)
        gold = Clustering([{1, 2, 3}])
        p, r, f = frac_lea(frac_memberships(padded(FRAC_ROWS)), gold)
        assert (p, r, f) == (Fraction(14, 15), Fraction(217, 375), Fraction(868, 1215))
        score = relaxed_lea(m, gold)
        assert abs(score.precision - p) < 1e-12
        assert abs(score.recall - r) < 1e-12
        assert abs(score.value - f) < 1e-12

    def test_score_records_settings(self, links3):
        score = relaxed_b3(membership(links3), Clustering([{1, 2, 3}]),
                           beta=2.0, temperature=0.5)
        assert score.beta == 2.0
        assert score.temperature == 0.5

    def test_rejects_bad_beta(self, links3):
        for relaxed in (relaxed_b3, relaxed_lea):
            for beta in (0.0, float("nan"), float("inf")):
                with pytest.raises(ConfigError):
                    relaxed(membership(links3), Clustering([{1, 2, 3}]), beta=beta)

    @pytest.mark.parametrize("fn", [relaxed_b3, relaxed_lea])
    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_temperature(self, links3, fn, temperature):
        with pytest.raises(ConfigError, match="temperature must be positive and finite"):
            fn(membership(links3), Clustering([{1, 2}, {3}]), temperature=temperature)

    def test_slack_above_the_diagonal_is_dropped(self):
        """The container keeps the lower triangle, so a tolerated 5e-10
        above the diagonal counts at no temperature."""
        lower = membership(random_link_distribution(np.random.default_rng(5), 6)).probs
        slack = lower.copy()
        slack[1, 4] = 5e-10
        m = MembershipMatrix(slack)
        np.testing.assert_array_equal(m.probs, np.tril(m.probs))
        tempered_membership(m, 2.0)
        gold = Clustering([{1, 3, 4}, {2, 6}, {5}])
        for fn in (relaxed_b3, relaxed_lea):
            for temperature in (1.0, 0.5, 2.0):
                assert (fn(m, gold, temperature=temperature)
                        == fn(MembershipMatrix(np.tril(slack)), gold, temperature=temperature))

    def test_rejects_size_mismatch(self, links3):
        with pytest.raises(InputError):
            relaxed_b3(membership(links3), Clustering([{1, 2}]))


class TestRelaxedLoss:
    def test_perfect_prediction_no_penalty(self):
        m = one_hot_memberships((1, 1, 3, 3))
        gold = antecedents_to_clusters((1, 1, 3, 3))
        assert abs(-relaxed_b3(m, gold).value - (-1.0)) < 1e-12

    def test_l1_penalty_added(self):
        doc = make_document("d", [1, 1, 3, 3], seed=1)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=1)
        bare = document_loss(doc, params, "lea")
        loss = document_loss(doc, params, "lea", lam=1e-6)
        assert abs(loss - (bare + 1e-6 * l1_norm(params))) < 1e-12

    def test_fixture_pair_loss(self, fixture_gold):
        m = one_hot_memberships((1, 1, 3, 3))
        loss = -relaxed_b3(m, fixture_gold).value
        assert abs(loss - (-12 / 17)) < 1e-12

    def test_rejects_negative_l1(self):
        doc = make_document("d", [1, 1, 3])
        with pytest.raises(ConfigError):
            document_loss(doc, ModelParams.zeros(4, 5, hidden_a=2, hidden_p=2), "b3", lam=-1.0)

    def test_rejects_unknown_metric(self):
        doc = make_document("d", [1, 1, 3])
        with pytest.raises(ConfigError):
            document_loss(doc, ModelParams.zeros(4, 5, hidden_a=2, hidden_p=2), "muc")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

class TestProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_one_hot_matches_exact_metric(self, seed, n):
        """On deterministic memberships, the relaxation equals the exact
        metric of the decoded clustering."""
        rng = np.random.default_rng(seed)
        ants = random_antecedents(rng, n)
        m = one_hot_memberships(ants)
        sys = antecedents_to_clusters(ants)
        gold = random_clustering(rng, n)
        soft_b3 = relaxed_b3(m, gold)
        hard_b3 = b_cubed(gold, sys)
        assert abs(soft_b3.value - hard_b3.f) < 1e-12
        assert abs(soft_b3.precision - hard_b3.precision) < 1e-12
        assert abs(soft_b3.recall - hard_b3.recall) < 1e-12
        soft_lea = relaxed_lea(m, gold)
        hard_lea = lea(gold, sys)
        assert abs(soft_lea.value - hard_lea.f) < 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
           temperature=st.sampled_from([0.2, 0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_scores_stay_in_unit_interval(self, seed, n, temperature):
        rng = np.random.default_rng(seed)
        m = membership(random_link_distribution(rng, n))
        gold = random_clustering(rng, n)
        for fn in (relaxed_b3, relaxed_lea):
            score = fn(m, gold, temperature=temperature)
            assert -1e-12 <= score.recall <= 1 + 1e-12
            assert -1e-12 <= score.precision <= 1 + 1e-12
            assert -1e-12 <= score.value <= 1 + 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_low_temperature_approaches_decoded_score(self, seed, n):
        rng = np.random.default_rng(seed)
        links = peaked_link_distribution(rng, n)
        m = membership(links)
        gold = random_clustering(rng, n)
        sys = antecedents_to_clusters(
            tuple(int(np.argmax(links.probs[i, : i + 1])) + 1 for i in range(n)))
        assert abs(relaxed_b3(m, gold, temperature=0.01).value
                   - b_cubed(gold, sys).f) < 1e-2
        assert abs(relaxed_lea(m, gold, temperature=0.01).value
                   - lea(gold, sys).f) < 1e-2

    def test_temperature_wrapper_consistency(self, links3):
        m = membership(links3)
        gold = Clustering([{1, 2}, {3}])
        direct = relaxed_b3(m, gold, temperature=0.4)
        pre = relaxed_b3(tempered_membership(m, 0.4), gold, temperature=1.0)
        assert abs(direct.value - pre.value) < 1e-12


# ---------------------------------------------------------------------------
# Gradients at the membership level (finite differences)
# ---------------------------------------------------------------------------

def fd_gradient(fn, q: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(q)
    for i in range(q.shape[0]):
        for u in range(i + 1):
            plus, minus = q.copy(), q.copy()
            plus[i, u] += h
            minus[i, u] -= h
            grad[i, u] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def f_beta_of(grad_fn, q, gold_of, sizes, beta=1.0) -> float:
    """metrics.f_beta of the P and R that grad_fn returns, after checking
    that grad_fn's own F equals it bit for bit."""
    precision, recall, f, _ = grad_fn(q, gold_of, sizes, beta)
    assert f == f_beta(precision, recall, beta)
    return f_beta(precision, recall, beta)


@pytest.mark.parametrize("grad_fn", [b3_soft_grad, lea_soft_grad])
@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_soft_metric_gradients(grad_fn, beta):
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        m = membership(random_link_distribution(rng, n))
        q = m.probs
        gold = random_clustering(rng, n)
        gold_of, sizes = gold_index_arrays(gold, n)
        *_, analytic = grad_fn(q, gold_of, sizes, beta)
        numeric = fd_gradient(lambda a: f_beta_of(grad_fn, a, gold_of, sizes, beta), q)
        np.testing.assert_allclose(analytic, numeric, atol=5e-9)


def test_gradient_zero_rows_guarded():
    """Columns with zero soft size must not produce NaN gradients."""
    q = np.zeros((3, 3))
    q[0, 0] = 1.0
    q[1, 0] = 1.0
    q[2, 0] = 1.0
    gold = Clustering([{1, 2, 3}])
    gold_of, sizes = gold_index_arrays(gold, 3)
    for grad_fn in (b3_soft_grad, lea_soft_grad):
        *_, dq = grad_fn(q, gold_of, sizes)
        assert np.isfinite(dq).all()


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
def test_guard_threshold(above):
    """The module's rule, with its guard of 1e-12: a ratio whose denominator
    falls below it contributes 0.  Mention 2's soft cluster has mass
    2e-12 or 5e-13 (B3's denominator), and holds mentions 2 and 3 with
    1.5e-12 or 5e-13 links (LEA's)."""
    guard = Fraction(1, 10 ** 12)
    gold = Clustering([{1, 2, 3}])
    mass = 2e-12 if above else 5e-13
    q_b3 = np.array([[1.0, 0.0, 0.0], [1.0 - mass, mass, 0.0], [1.0, 0.0, 0.0]])
    t = np.sqrt(1.5e-12 if above else 5e-13)  # links of the column: t^2
    q_lea = np.array([[1.0, 0.0, 0.0], [1.0 - t, t, 0.0], [1.0 - t, t, 0.0]])
    for grad_fn, frac, q in ((b3_soft_grad, frac_b3, q_b3), (lea_soft_grad, frac_lea, q_lea)):
        p, r, _, d_q = grad_fn(q, *gold_index_arrays(gold, 3))
        rows = [[Fraction(v) for v in row] for row in q]
        exact = frac(rows, gold, guard)
        without = frac(rows, gold, Fraction(1))  # mention 2's cluster dropped
        assert abs(p - exact[0]) < 1e-15 and abs(r - exact[1]) < 1e-15, grad_fn
        assert (exact[0] != without[0]) == above, grad_fn
        assert np.isfinite(d_q).all()


def test_f_partials_survive_tiny_precision_and_recall():
    """(P + R)^2 underflows to 0 below ~1e-154; the ratios do not."""
    _, dfdp, dfdr = _f_partials(1e-170, 1e-170, 1.0)
    assert (dfdp, dfdr) == (0.5, 0.5)


def test_tempered_gradient_through_wrapper(links3):
    """FD check of the relaxed score as a function of raw memberships,
    with the temperature transform applied inside."""
    m = membership(links3)
    gold = Clustering([{1, 2}, {3}])
    gold_of, sizes = gold_index_arrays(gold, 3)
    temperature = 0.6

    def value(q):
        return f_beta_of(b3_soft_grad, temper_array(q, temperature), gold_of, sizes)

    qt = temper_array(m.probs, temperature)
    *_, d_qt = b3_soft_grad(qt, gold_of, sizes)
    d_q = temper_backward(m.probs, qt, temperature, d_qt)
    numeric = fd_gradient(value, m.probs)
    np.testing.assert_allclose(np.tril(d_q), numeric, atol=1e-7)
