"""Per-mention error taxonomy and consolidated metric reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softcoref.analysis
import softcoref.model
from softcoref import (Clustering, ErrorBreakdown, InputError, ModelParams,
                       b_cubed, b_cubed_counts, blanc, blanc_counts, ceaf_e,
                       ceaf_e_counts, ceaf_m, ceaf_m_counts, clusters_from_entity_ids,
                       conll_average, corpus_report, error_breakdown, evaluate_corpus,
                       format_breakdown, format_report, lea, lea_counts,
                       muc, muc_counts, predict_antecedents, report_csv)
from softcoref.analysis import ERROR_KINDS
from softcoref.clustering import antecedents_to_clusters

from conftest import (correct_antecedents, make_document, random_clustering,
                      small_corpus)
from oracles import REFERENCE_COUNTS, _overlaps, reference_corpus_report


def loop_breakdown(doc, predicted) -> ErrorBreakdown:
    """Reference: classify one mention at a time against its candidate set."""
    counts = {kind: {t: 0 for t in ("proper", "nominal", "pronominal")} for kind in ERROR_KINDS}
    for i in range(1, doc.n + 1):
        mention = doc.mentions[i - 1]
        a = int(predicted[i - 1])
        anaphoric = mention.gold_entity < i
        if not anaphoric and a != i:
            kind = "fa"
        elif anaphoric and a == i:
            kind = "fn"
        elif anaphoric and a not in correct_antecedents(doc, i):
            kind = "wl"
        else:
            kind = "correct"
        counts[kind][mention.mention_type] += 1
    return ErrorBreakdown(**counts)


class TestErrorBreakdown:
    def test_false_anaphor(self):
        doc = make_document("d", [1, 2], types=["proper", "pronominal"])
        b = error_breakdown(doc, (1, 1))
        assert b.fa == {"proper": 0, "nominal": 0, "pronominal": 1}
        assert b.total("fa") == 1 and b.total("correct") == 1

    def test_false_new(self):
        doc = make_document("d", [1, 1, 3])
        b = error_breakdown(doc, (1, 2, 2))
        # mention 2 self-links although anaphoric: FN
        # mention 3 links although discourse-new: FA
        assert b.total("fn") == 1
        assert b.total("fa") == 1
        assert b.total("correct") == 1

    def test_wrong_link(self):
        doc = make_document("d", [1, 1, 3, 3])
        b = error_breakdown(doc, (1, 1, 3, 2))
        assert b.total("wl") == 1
        assert b.total("correct") == 3

    def test_perfect_prediction(self):
        doc = make_document("d", [1, 1, 3, 1, 3])
        b = error_breakdown(doc, (1, 1, 3, 2, 3))
        assert b.total("correct") == 5
        assert b.num_mentions == 5

    def test_later_antecedent_in_same_entity_is_correct(self):
        doc = make_document("d", [1, 1, 1])
        # mention 3 may link to either earlier mention of its entity
        assert error_breakdown(doc, (1, 1, 2)).total("correct") == 3

    def test_per_type_attribution(self):
        doc = make_document("d", [1, 1, 3, 3],
                            types=["proper", "nominal", "nominal", "pronominal"])
        b = error_breakdown(doc, (1, 2, 2, 4))
        # mention 2 (nominal) and mention 4 (pronominal) are anaphoric
        # but predicted new; mention 3 (nominal) is new but linked
        assert b.fn == {"proper": 0, "nominal": 1, "pronominal": 1}
        assert b.fa == {"proper": 0, "nominal": 1, "pronominal": 0}
        assert b.total("fn") == 2

    def test_length_mismatch_rejected(self):
        doc = make_document("d", [1, 1])
        with pytest.raises(InputError):
            error_breakdown(doc, (1,))

    def test_invalid_antecedent_rejected(self):
        doc = make_document("d", [1, 1])
        with pytest.raises(InputError):
            error_breakdown(doc, (1, 3))

    @pytest.mark.parametrize("predicted", [(1.0, 1.0), (1, 1.5), (True, True), (1, True)])
    def test_non_integer_antecedent_rejected(self, predicted):
        with pytest.raises(InputError, match="is not an integer"):
            error_breakdown(make_document("d", [1, 1]), predicted)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ErrorBreakdown().total("typo")

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_kinds_partition_mentions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        labels = random_clustering(rng, n).entity_ids()
        types = [str(rng.choice(["proper", "nominal", "pronominal"]))
                 for _ in range(n)]
        doc = make_document("d", [labels[i] for i in range(1, n + 1)],
                            seed=seed, types=types)
        predicted = tuple(int(rng.integers(1, i + 1)) for i in range(1, n + 1))
        b = error_breakdown(doc, predicted)
        assert b.num_mentions == n
        by_type = {
            t: sum(getattr(b, kind)[t] for kind in ERROR_KINDS)
            for t in ("proper", "nominal", "pronominal")
        }
        for t, count in by_type.items():
            assert count == types.count(t)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_mention_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = random_clustering(rng, n).entity_ids()
        types = [str(rng.choice(["proper", "nominal", "pronominal"])) for _ in range(n)]
        doc = make_document("d", [labels[i] for i in range(1, n + 1)],
                            d_a=1, d_p=1, seed=seed, types=types)
        doc.validate()
        predicted = tuple(int(rng.integers(1, i + 1)) for i in range(1, n + 1))
        assert error_breakdown(doc, predicted) == loop_breakdown(doc, predicted)

    def test_addition(self):
        doc_a = make_document("a", [1, 2])
        doc_b = make_document("b", [1, 1])
        total = error_breakdown(doc_a, (1, 1)) + error_breakdown(doc_b, (1, 2))
        assert total.num_mentions == 4
        assert total.total("fa") == 1 and total.total("fn") == 1
        assert sum([error_breakdown(doc_a, (1, 1))]) .total("fa") == 1


class TestReports:
    def test_single_document_matches_direct_metrics(self, fixture_gold, fixture_sys):
        report = corpus_report([(fixture_gold, fixture_sys)])
        assert report.muc == muc(fixture_gold, fixture_sys)
        assert report.b_cubed == b_cubed(fixture_gold, fixture_sys)
        assert report.ceaf_m == ceaf_m(fixture_gold, fixture_sys)
        assert report.ceaf_e == ceaf_e(fixture_gold, fixture_sys)
        assert report.blanc == blanc(fixture_gold, fixture_sys)
        assert report.lea == lea(fixture_gold, fixture_sys)
        assert abs(report.conll - conll_average(
            report.muc.f, report.b_cubed.f, report.ceaf_e.f)) < 1e-12

    def test_micro_aggregation_pools_counts(self):
        """Two copies of a document give the same ratios as one."""
        gold = Clustering([{1, 2, 3}, {4}])
        sys = Clustering([{1, 2}, {3, 4}])
        single = corpus_report([(gold, sys)])
        double = corpus_report([(gold, sys), (gold, sys)])
        for name, prf in single.rows():
            other = getattr(double, name)
            assert abs(prf.f - other.f) < 1e-12

    def test_micro_differs_from_macro(self):
        """Pooled counts weight large documents more than averaging Fs."""
        pair_a = (Clustering([{1, 2}]), Clustering([{1}, {2}]))
        big = Clustering([set(range(1, 9))])
        pair_b = (big, big)
        pooled = corpus_report([pair_a, pair_b]).b_cubed.f
        fa = b_cubed(*pair_a).f
        fb = b_cubed(*pair_b).f
        assert abs(pooled - (fa + fb) / 2) > 1e-3

    def test_beta_is_threaded(self, fixture_gold, fixture_sys):
        report = corpus_report([(fixture_gold, fixture_sys)], beta=2.0)
        assert report.b_cubed.beta == 2.0
        assert report.b_cubed.f != corpus_report([(fixture_gold, fixture_sys)]).b_cubed.f

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_once_per_pair_path_matches_public_counts(self, data):
        """Each metric of ``corpus_report`` equals the summed public
        ``*_counts`` over the same pairs, down to the last bit."""
        pairs = []
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(0, 12))
            sides = []
            for _ in range(2):
                if data.draw(st.booleans()):
                    labels = list(range(n))
                else:
                    labels = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                                min_size=n, max_size=n))
                groups = {}
                for m, label in enumerate(labels, start=1):
                    groups.setdefault(label, []).append(m)
                sides.append(Clustering(groups.values()))
            pairs.append(tuple(sides))
        report = corpus_report(pairs)
        public = {"muc": muc_counts, "b_cubed": b_cubed_counts, "ceaf_m": ceaf_m_counts,
                  "ceaf_e": ceaf_e_counts, "blanc": blanc_counts, "lea": lea_counts}
        for name, counts in public.items():
            assert getattr(report, name) == sum(counts(g, r) for g, r in pairs).prf()

    def test_contingency_built_once_per_call(self, monkeypatch, fixture_gold, fixture_sys):
        calls = []
        build = softcoref.analysis._contingency
        monkeypatch.setattr(softcoref.analysis, "_contingency",
                            lambda pairs: calls.append(len(pairs)) or build(pairs))
        corpus_report([(fixture_gold, fixture_sys)] * 3)
        assert calls == [3]

    def test_mismatched_mentions_name_the_first_bad_pair(self, fixture_gold, fixture_sys):
        two, three = Clustering([{1, 2}]), Clustering([{1}, {2, 3}])
        pairs = [(fixture_gold, fixture_sys), (two, three), (three, fixture_gold)]
        message = r"^gold and response cover different mentions \(2 vs 3\)$"
        with pytest.raises(InputError, match=message):
            corpus_report(pairs)
        with pytest.raises(InputError, match=message):
            lea_counts(two, three, singleton_self_links=True)

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputError):
            corpus_report([])

    def test_evaluate_corpus_consistent_with_manual_decoding(self):
        docs = small_corpus(3, seed=6)
        params = ModelParams.random(docs[0].d_a, docs[0].d_p,
                                    hidden_a=4, hidden_p=5, seed=6)
        report = evaluate_corpus(docs, params)
        pairs = [
            (doc.gold_clusters,
             antecedents_to_clusters(predict_antecedents(doc, params)))
            for doc in docs
        ]
        assert report == corpus_report(pairs)

    def test_evaluate_corpus_takes_parameter_terms_once_per_call(self, monkeypatch):
        docs = small_corpus(3, seed=6)
        params = ModelParams.random(docs[0].d_a, docs[0].d_p, hidden_a=4, hidden_p=5, seed=6)
        calls = []
        gaps = softcoref.model._near_tie_gaps
        monkeypatch.setattr(softcoref.model, "_near_tie_gaps",
                            lambda *args: calls.append(1) or gaps(*args))
        evaluate_corpus(docs, params)
        params.u *= -1.0  # as training does, in place
        report = evaluate_corpus(docs, params)
        assert len(calls) == 2
        assert report == corpus_report([
            (doc.gold_clusters, antecedents_to_clusters(predict_antecedents(doc, params)))
            for doc in docs])


@st.composite
def scored_corpora(draw):
    """1-6 (gold, response) pairs of n 0-90: responses identical to gold,
    all singletons, random, or gold with about a fifth of the mentions
    moved to other or new clusters."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(st.integers(0, 2), st.integers(0, 90)))
        gold = draw(st.lists(st.integers(0, max(n // 3, 1)), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["identical", "singletons", "random", "perturbed"]))
        if kind == "identical":
            response = gold
        elif kind == "singletons":
            response = list(range(n))
        elif kind == "random":
            response = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
        else:
            moved = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
            response = [label if m > 1 else n + m * label for label, m in zip(gold, moved)]
        pairs.append((clusters_from_entity_ids(gold), clusters_from_entity_ids(response)))
    return pairs


class TestCorpusTable:
    """``corpus_report`` and every public ``*_counts`` equal, down to the
    last bit, the dense per-document scorers of ``tests/oracles.py``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=scored_corpora(), beta=st.sampled_from([1.0, 2.0]))
    def test_matches_dense_per_document_scorers(self, pairs, beta):
        assert corpus_report(pairs, beta) == reference_corpus_report(pairs, beta)
        public = {"muc": muc_counts, "b_cubed": b_cubed_counts, "ceaf_m": ceaf_m_counts,
                  "ceaf_e": ceaf_e_counts, "blanc": blanc_counts, "lea": lea_counts}
        for gold, response in pairs:
            x = _overlaps(gold, response)
            for name, counts in public.items():
                assert counts(gold, response) == REFERENCE_COUNTS[name](x)
            assert (lea_counts(gold, response, singleton_self_links=True)
                    == REFERENCE_COUNTS["lea"](x, singleton_self_links=True))


class TestRendering:
    def test_format_report_lines(self, fixture_gold, fixture_sys):
        text = format_report(corpus_report([(fixture_gold, fixture_sys)]))
        lines = text.split("\n")
        assert len(lines) == 8
        assert lines[0].split() == ["metric", "P", "R", "F"]
        assert lines[1].startswith("MUC")
        assert lines[-1].startswith("CoNLL")
        assert "0.5000" in lines[1]

    def test_report_csv(self, fixture_gold, fixture_sys):
        text = report_csv(corpus_report([(fixture_gold, fixture_sys)]))
        lines = text.strip().split("\n")
        assert lines[0] == "metric,precision,recall,f"
        assert len(lines) == 8
        assert lines[1].startswith("muc,0.500000,0.500000,0.500000")
        assert lines[-1].startswith("conll,,,")

    def test_format_breakdown(self):
        doc = make_document("d", [1, 1, 3], types=["proper", "nominal", "pronominal"])
        text = format_breakdown(error_breakdown(doc, (1, 2, 2)))
        lines = text.split("\n")
        assert len(lines) == 5
        assert lines[0].split() == ["type", "FA", "FN", "WL", "correct"]
        assert lines[-1].split() == ["all", "1", "1", "0", "1"]
