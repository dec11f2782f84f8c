"""Exact metrics against independent rational-arithmetic oracles.

Every oracle below recomputes its metric from the definitions with
``fractions.Fraction`` and deliberately different code paths (per-mention
averages instead of cluster sums, explicit pair sets, permutation search
instead of the assignment solver).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, ConfigError, InputError, MetricCounts, PRF, b_cubed,
                       b_cubed_counts, blanc, blanc_counts, ceaf_e,
                       ceaf_e_counts, ceaf_m, ceaf_m_counts, conll_average,
                       f_beta, lea, lea_counts, muc, muc_counts)

from conftest import random_clustering


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _cluster_of(clustering: Clustering) -> dict[int, frozenset[int]]:
    return {m: c for c in clustering.clusters for m in c}


def oracle_b3(gold: Clustering, sys: Clustering) -> tuple[Fraction, Fraction]:
    """Per-mention overlap averages (not the cluster-sum form)."""
    g_of, s_of = _cluster_of(gold), _cluster_of(sys)
    n = gold.num_mentions
    recall = sum(Fraction(len(g_of[m] & s_of[m]), len(g_of[m]))
                 for m in range(1, n + 1)) / n
    precision = sum(Fraction(len(g_of[m] & s_of[m]), len(s_of[m]))
                    for m in range(1, n + 1)) / n
    return precision, recall


def oracle_muc(gold: Clustering, sys: Clustering) -> tuple[Fraction, Fraction]:
    def side(keys, others):
        other_of = others.entity_ids()
        num = sum(len(c) - len({other_of[m] for m in c}) for c in keys.clusters)
        den = sum(len(c) - 1 for c in keys.clusters)
        return Fraction(num, den) if den else Fraction(0)
    return side(sys, gold), side(gold, sys)


def oracle_lea(gold: Clustering, sys: Clustering) -> tuple[Fraction, Fraction]:
    def side(keys, others):
        other_of = others.entity_ids()
        num, den = Fraction(0), 0
        for c in keys.clusters:
            den += len(c)
            pairs = list(itertools.combinations(sorted(c), 2))
            if not pairs:
                continue
            resolved = sum(1 for a, b in pairs if other_of[a] == other_of[b])
            num += Fraction(len(c) * resolved, len(pairs))
        return num / den
    return side(sys, gold), side(gold, sys)


def oracle_ceaf(gold: Clustering, sys: Clustering, entity: bool):
    """Permutation search over all one-to-one cluster alignments."""
    gs, ss = gold.sorted_clusters(), sys.sorted_clusters()
    if len(gs) > len(ss):
        gs, ss = ss, gs
    best = Fraction(0)
    for perm in itertools.permutations(range(len(ss)), len(gs)):
        total = Fraction(0)
        for a, b in zip(gs, (ss[k] for k in perm)):
            if entity:
                total += Fraction(2 * len(a & b), len(a) + len(b))
            else:
                total += len(a & b)
        best = max(best, total)
    if entity:
        return best / len(sys.sorted_clusters()), best / len(gold.sorted_clusters())
    return Fraction(best, sys.num_mentions), Fraction(best, gold.num_mentions)


def oracle_blanc(gold: Clustering, sys: Clustering):
    """Explicit link-class sets; returns (P, R, F) of the average."""
    n = gold.num_mentions
    everything = set(itertools.combinations(range(1, n + 1), 2))
    g_of, s_of = gold.entity_ids(), sys.entity_ids()
    cg = {p for p in everything if g_of[p[0]] == g_of[p[1]]}
    cs = {p for p in everything if s_of[p[0]] == s_of[p[1]]}
    ng, ns = everything - cg, everything - cs

    def prf(inter, sys_links, gold_links):
        p = Fraction(inter, len(sys_links)) if sys_links else Fraction(0)
        r = Fraction(inter, len(gold_links)) if gold_links else Fraction(0)
        f = 2 * p * r / (p + r) if p + r else Fraction(0)
        return p, r, f

    parts = []
    if cg or cs:
        parts.append(prf(len(cg & cs), cs, cg))
    if ng or ns:
        parts.append(prf(len(ng & ns), ns, ng))
    if not parts:
        return Fraction(1), Fraction(1), Fraction(1)
    return tuple(sum(vals) / len(parts) for vals in zip(*parts))


# ---------------------------------------------------------------------------
# Fixture-pair values
# ---------------------------------------------------------------------------

class TestFixturePair:
    """gold {{1,2,3},{4}} vs sys {{1,2},{3,4}}, all values hand-derived."""

    def test_b_cubed(self, fixture_gold, fixture_sys):
        prf = b_cubed(fixture_gold, fixture_sys)
        assert abs(prf.recall - Fraction(2, 3)) < 1e-12
        assert abs(prf.precision - Fraction(3, 4)) < 1e-12
        assert abs(prf.f - Fraction(12, 17)) < 1e-12

    def test_lea(self, fixture_gold, fixture_sys):
        prf = lea(fixture_gold, fixture_sys)
        assert abs(prf.recall - Fraction(1, 4)) < 1e-12
        assert abs(prf.precision - Fraction(1, 2)) < 1e-12
        assert abs(prf.f - Fraction(1, 3)) < 1e-12

    def test_muc(self, fixture_gold, fixture_sys):
        prf = muc(fixture_gold, fixture_sys)
        assert (prf.precision, prf.recall, prf.f) == (0.5, 0.5, 0.5)

    def test_ceaf_m(self, fixture_gold, fixture_sys):
        prf = ceaf_m(fixture_gold, fixture_sys)
        assert abs(prf.precision - 0.75) < 1e-12
        assert abs(prf.recall - 0.75) < 1e-12

    def test_ceaf_e(self, fixture_gold, fixture_sys):
        prf = ceaf_e(fixture_gold, fixture_sys)
        expected = (Fraction(4, 5) + Fraction(2, 3)) / 2
        assert abs(prf.precision - expected) < 1e-12
        assert abs(prf.recall - expected) < 1e-12

    def test_blanc(self, fixture_gold, fixture_sys):
        prf = blanc(fixture_gold, fixture_sys)
        assert abs(prf.f - Fraction(17, 35)) < 1e-12


class TestEdgeCases:
    def test_perfect_prediction(self):
        c = Clustering([{1, 2}, {3, 4, 5}])
        for metric in (b_cubed, lea, muc, ceaf_m, ceaf_e, blanc):
            prf = metric(c, c)
            assert prf.as_tuple() == (1.0, 1.0, 1.0)

    def test_b3_singleton_response(self):
        gold = Clustering([{1, 2}])
        sys = Clustering([{1}, {2}])
        prf = b_cubed(gold, sys)
        assert prf.recall == 0.5
        assert prf.precision == 1.0

    def test_lea_no_response_links(self):
        prf = lea(Clustering([{1, 2}]), Clustering([{1}, {2}]))
        assert prf.as_tuple() == (0.0, 0.0, 0.0)

    def test_muc_all_singletons(self):
        c = Clustering([{1}, {2}, {3}])
        assert muc(c, c).as_tuple() == (0.0, 0.0, 0.0)

    def test_blanc_single_mention(self):
        c = Clustering([{1}])
        assert blanc(c, c).as_tuple() == (1.0, 1.0, 1.0)

    def test_blanc_one_sided_class(self):
        prf = blanc(Clustering([{1, 2}]), Clustering([{1}, {2}]))
        assert prf.f == 0.0

    def test_lea_self_link_variant(self):
        gold = Clustering([{1, 2, 3}, {4}])
        sys = Clustering([{1, 2}, {3}, {4}])
        # singleton {4} is a singleton on both sides: self-link resolved
        plain = lea(gold, sys)
        with_self = lea(gold, sys, singleton_self_links=True)
        assert with_self.recall > plain.recall
        assert with_self.precision > plain.precision

    def test_mention_mismatch_rejected(self):
        with pytest.raises(InputError):
            b_cubed(Clustering([{1, 2}]), Clustering([{1, 2}, {3}]))


class TestFBeta:
    def test_fixture_value(self):
        assert abs(f_beta(0.75, 2 / 3, 1.0) - 12 / 17) < 1e-12

    @given(x=st.floats(0.01, 1.0), beta=st.floats(0.1, 3.0))
    @settings(max_examples=50)
    def test_symmetric_point(self, x, beta):
        assert abs(f_beta(x, x, beta) - x) < 1e-12

    def test_degenerate_zero(self):
        assert f_beta(0.0, 0.0, 1.0) == 0.0

    def test_rejects_nonpositive_beta(self):
        for beta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                f_beta(0.5, 0.5, beta)

    def test_beta_weights_recall(self):
        assert f_beta(0.2, 0.8, 2.0) > f_beta(0.2, 0.8, 1.0)
        assert f_beta(0.8, 0.2, 2.0) < f_beta(0.8, 0.2, 1.0)


class TestConllAverage:
    def test_ones(self):
        assert conll_average(1.0, 1.0, 1.0) == 1.0

    def test_published_baseline_row(self):
        assert abs(conll_average(0.7322, 0.6144, 0.5774) - 0.6413) < 5e-5

    def test_zeros(self):
        assert conll_average(0.0, 0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Randomized oracle equivalence and structural properties
# ---------------------------------------------------------------------------

def random_pair(seed: int, max_n: int = 9):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    return random_clustering(rng, n), random_clustering(rng, n)


class TestOracleEquivalence:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_b3(self, seed):
        gold, sys = random_pair(seed)
        p, r = oracle_b3(gold, sys)
        prf = b_cubed(gold, sys)
        assert abs(prf.precision - p) < 1e-12
        assert abs(prf.recall - r) < 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_muc(self, seed):
        gold, sys = random_pair(seed)
        p, r = oracle_muc(gold, sys)
        prf = muc(gold, sys)
        assert abs(prf.precision - p) < 1e-12
        assert abs(prf.recall - r) < 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_lea(self, seed):
        gold, sys = random_pair(seed)
        p, r = oracle_lea(gold, sys)
        prf = lea(gold, sys)
        assert abs(prf.precision - p) < 1e-12
        assert abs(prf.recall - r) < 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_ceaf_both_variants(self, seed):
        gold, sys = random_pair(seed, max_n=8)
        for entity, fn in ((False, ceaf_m), (True, ceaf_e)):
            p, r = oracle_ceaf(gold, sys, entity)
            prf = fn(gold, sys)
            assert abs(prf.precision - p) < 1e-12
            assert abs(prf.recall - r) < 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_blanc(self, seed):
        gold, sys = random_pair(seed)
        p, r, f = oracle_blanc(gold, sys)
        prf = blanc(gold, sys)
        assert abs(prf.precision - p) < 1e-12
        assert abs(prf.recall - r) < 1e-12
        assert abs(prf.f - f) < 1e-12


class TestProperties:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_values_in_unit_interval(self, seed):
        gold, sys = random_pair(seed)
        for metric in (b_cubed, lea, muc, ceaf_m, ceaf_e, blanc):
            prf = metric(gold, sys)
            for value in prf.as_tuple():
                assert -1e-12 <= value <= 1.0 + 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_role_swap_exchanges_p_and_r(self, seed):
        gold, sys = random_pair(seed)
        for metric in (b_cubed, lea, ceaf_m, ceaf_e, blanc):
            ab, ba = metric(gold, sys), metric(sys, gold)
            assert abs(ab.precision - ba.recall) < 1e-12
            assert abs(ab.recall - ba.precision) < 1e-12

    @given(seed=st.integers(0, 100_000), beta=st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_prf_internal_consistency(self, seed, beta):
        """f matches f_beta(P, R) for the single-ratio metrics (BLANC
        averages two class F values instead, so it is exempt)."""
        gold, sys = random_pair(seed)
        for counts in (b_cubed_counts(gold, sys), lea_counts(gold, sys),
                       muc_counts(gold, sys), ceaf_m_counts(gold, sys),
                       ceaf_e_counts(gold, sys)):
            prf = counts.prf(beta)
            assert abs(prf.f - f_beta(prf.precision, prf.recall, beta)) < 1e-12
            assert prf.beta == beta

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_micro_counts_are_additive(self, seed):
        ga, sa = random_pair(seed)
        gb, sb = random_pair(seed + 1)
        for counts_fn in (b_cubed_counts, lea_counts, muc_counts,
                          ceaf_m_counts, ceaf_e_counts, blanc_counts):
            total = counts_fn(ga, sa) + counts_fn(gb, sb)
            again = sum([counts_fn(ga, sa), counts_fn(gb, sb)])
            assert total == again

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_splitting_a_correct_cluster_never_raises_b3_recall(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_clustering(rng, int(rng.integers(2, 9)))
        splittable = [c for c in gold.clusters if len(c) >= 2]
        if not splittable:
            return
        target = max(splittable, key=len)
        members = sorted(target)
        cut = len(members) // 2
        split = [c for c in gold.clusters if c != target]
        split += [set(members[:cut]), set(members[cut:])]
        before = b_cubed(gold, gold).recall
        after = b_cubed(gold, Clustering(split)).recall
        assert after <= before + 1e-12


class TestCounts:
    def test_prf_zero_denominators(self):
        assert MetricCounts().prf().as_tuple() == (0.0, 0.0, 0.0)

    def test_addition(self):
        a = MetricCounts(1, 2, 3, 4)
        b = MetricCounts(10, 20, 30, 40)
        assert a + b == MetricCounts(11, 22, 33, 44)

    def test_blanc_counts_addition(self, fixture_gold, fixture_sys):
        counts = blanc_counts(fixture_gold, fixture_sys)
        doubled = counts + counts
        assert doubled.coref == counts.coref + counts.coref
        np.testing.assert_allclose(doubled.prf().f, counts.prf().f)
