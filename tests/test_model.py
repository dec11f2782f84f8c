"""Mention-ranking scorer, softmax-margin losses and their gradients.

Fixture values are derived by hand with ``math.tanh``/``math.exp`` on a
one-dimensional model, and the losses are cross-checked against slow
in-test recomputations that share no code with the implementation.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, ConfigError, CostConfig, Document,
                       FormatError, InputError, LOSS_KINDS, Mention,
                       ModelParams, document_loss, document_loss_and_grad,
                       grad_check, l1_norm, link_probabilities, predict_antecedents,
                       relaxed_b3, relaxed_lea, score_pairs,
                       validate_antecedent_vector)
from softcoref.membership import MembershipMatrix, membership_array
from softcoref import model
from softcoref.model import (_forward_scores, _score_backward, correct_set_mask,
                             delta_matrix, gamma_matrix)

from conftest import correct_antecedents, make_document, nan_gradient_loss
from oracles import ZERO_COSTS, delta_cost, gamma_cost


def tiny_params(**overrides) -> ModelParams:
    """1-dim everything so scores can be followed by hand."""
    values = dict(w_a=[[2.0]], b_a=[0.5], w_p=[[1.0]], b_p=[-0.3],
                  u=[0.7, -0.4], u_0=0.1, v=[1.5], v_0=-0.2)
    values.update(overrides)
    return ModelParams(**values)


def tiny_document(entity_ids=(1, 1)) -> Document:
    mentions = [
        Mention(1, "proper", entity_ids[0], np.array([0.3])),
        Mention(2, "pronominal", entity_ids[1], np.array([-0.1])),
    ]
    return Document.from_mentions("tiny", mentions, {(1, 2): np.array([0.8])})


class TestModelParams:
    def test_shapes_and_counts(self):
        params = ModelParams.zeros(d_a=3, d_p=4, hidden_a=5, hidden_p=6)
        assert (params.d_a, params.d_p) == (3, 4)
        assert (params.hidden_a, params.hidden_p) == (5, 6)
        assert params.num_params == 5 * 3 + 5 + 6 * 4 + 6 + 11 + 1 + 5 + 1

    def test_vector_round_trip(self):
        params = ModelParams.random(3, 4, hidden_a=5, hidden_p=6, seed=1)
        rebuilt = params.from_vector(params.to_vector())
        np.testing.assert_array_equal(rebuilt.w_p, params.w_p)
        assert rebuilt.u_0 == params.u_0
        np.testing.assert_array_equal(rebuilt.to_vector(), params.to_vector())

    def test_from_vector_rejects_wrong_length(self):
        params = ModelParams.zeros(2, 2, hidden_a=2, hidden_p=2)
        with pytest.raises(InputError):
            params.from_vector(np.zeros(params.num_params + 1))

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(InputError):
            ModelParams(w_a=np.zeros((2, 3)), b_a=np.zeros(1),
                        w_p=np.zeros((2, 2)), b_p=np.zeros(2),
                        u=np.zeros(4), u_0=0.0, v=np.zeros(2), v_0=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            ModelParams(w_a=[[np.nan]], b_a=[0.0], w_p=[[0.0]], b_p=[0.0],
                        u=[0.0, 0.0], u_0=0.0, v=[0.0], v_0=0.0)

    def test_random_is_seed_deterministic(self):
        a = ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=[7, 0])
        b = ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=[7, 0])
        c = ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=[8, 0])
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())
        assert not np.array_equal(a.to_vector(), c.to_vector())

    @pytest.mark.parametrize("sizes,scale", [((3, 4, -1, 5), 0.1), ((3, 4, 2, 3), np.nan),
                                             ((3, 4, 2, 3), np.inf)])
    def test_random_rejects_negative_sizes_and_bad_scale(self, sizes, scale):
        with pytest.raises(ConfigError, match="random init needs"):
            ModelParams.random(*sizes, scale=scale)

    def test_copy_is_independent(self):
        params = ModelParams.random(2, 2, hidden_a=2, hidden_p=2, seed=0)
        clone = params.copy()
        clone.w_a[0, 0] += 1.0
        assert params.w_a[0, 0] != clone.w_a[0, 0]
        for name in ("w_a", "b_a", "w_p", "b_p", "u", "v"):
            assert not np.shares_memory(getattr(clone, name), getattr(params, name))
        clone.v_0 = params.v_0 + 1.0
        assert clone.v_0 != params.v_0

    def test_fields_are_views_of_the_flat_vector(self):
        params = ModelParams.zeros(2, 3, hidden_a=2, hidden_p=4)
        params.w_a[1, 0] = 5.0
        params.u *= 0.0
        params.u[-1] = 6.0
        params.v_0 = 7.0
        params.u_0 = np.float64(8.0)
        vec = params.to_vector()
        assert vec[2] == 5.0 and vec[-1] == 7.0 and params.v_0 == 7.0
        assert vec[2 * 2 + 2 + 4 * 3 + 4 + 5] == 6.0
        assert vec[2 * 2 + 2 + 4 * 3 + 4 + 6] == 8.0 and type(params.u_0) is float
        vec[:] = -1.0
        assert params.w_a[1, 0] == 5.0 and params.v_0 == 7.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_vector_rejects_non_finite(self, bad):
        params = ModelParams.random(2, 2, hidden_a=2, hidden_p=2, seed=0)
        vec = params.to_vector()
        vec[3] = bad
        with pytest.raises(InputError, match="non-finite"):
            params.from_vector(vec)

    def test_from_vector_copies_its_input(self):
        params = ModelParams.zeros(2, 2, hidden_a=2, hidden_p=2)
        vec = np.ones(params.num_params)
        rebuilt = params.from_vector(vec)
        vec[:] = 2.0
        assert np.all(rebuilt.to_vector() == 1.0)

    def test_l1_norm(self):
        params = tiny_params()
        expected = 2.0 + 0.5 + 1.0 + 0.3 + 0.7 + 0.4 + 0.1 + 1.5 + 0.2
        assert abs(l1_norm(params) - expected) < 1e-12

    def test_l1_subgradient_signs(self):
        """The L1 term adds lam * sign(theta) to the gradient, 0 at exact zeros."""
        params, lam = tiny_params(b_a=[0.0]), 0.5
        _, bare = document_loss_and_grad(tiny_document(), params, "mr-heuristic")
        _, penalized = document_loss_and_grad(tiny_document(), params, "mr-heuristic",
                                              lam=lam)
        sub = params.from_vector((penalized.to_vector() - bare.to_vector()) / lam)
        assert sub.w_a[0, 0] == 1.0
        assert sub.b_a[0] == 0.0
        assert sub.b_p[0] == -1.0

    def test_save_load_round_trip(self, tmp_path):
        params = ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=5)
        path = tmp_path / "model.json"
        params.save(path)
        loaded = ModelParams.load(path)
        np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(FormatError):
            ModelParams.load(path)
        path.write_text("[1]\n")
        with pytest.raises(FormatError, match="not a model file"):
            ModelParams.load(path)

    @pytest.mark.parametrize("field,value", [
        ("hidden_a", 2.9), ("hidden_a", -1), ("d_a", "3"), ("hidden_p", True),
        ("u_0", "0.5"), ("u_0", True), ("w_a", "0.5"), ("w_a", True),
        ("b_p", "0.1"), ("b_p", False)])
    def test_load_rejects_values_that_are_not_json_numbers(self, tmp_path, field, value):
        """Each of these read as a number before: 2.9 as 2, true as 1, "3" as 3,
        and -1 as the size that the weight list implies."""
        path = tmp_path / "model.json"
        ModelParams.random(3, 4, hidden_a=2, hidden_p=1, seed=5).save(path)
        record = json.loads(path.read_text())
        if isinstance(record[field], list):
            record[field][-1] = value
        else:
            record[field] = value
        path.write_text(json.dumps(record))
        with pytest.raises(FormatError, match="bad model record"):
            ModelParams.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken\n")
        with pytest.raises(FormatError):
            ModelParams.load(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "softcoref-model", "version": 1, "d_a": 1}\n')
        with pytest.raises(FormatError):
            ModelParams.load(path)

    def test_load_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "model.json"
        ModelParams.random(3, 4, hidden_a=2, hidden_p=1, seed=5).save(path)
        record = json.loads(path.read_text())
        record["version"] = 2
        path.write_text(json.dumps(record))
        with pytest.raises(FormatError, match="unsupported model version 2"):
            ModelParams.load(path)

    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(FormatError, match="not UTF-8 text") as exc:
            ModelParams.load(path)
        assert exc.value.path == path

    @pytest.mark.parametrize("field", ["w_a", "w_p"])
    def test_rejects_a_weight_that_is_not_a_matrix(self, field):
        with pytest.raises(InputError, match="weight matrices must be 2-dimensional"):
            tiny_params(**{field: [1.0]})


class TestScores:
    def test_hand_computed_scores(self):
        doc = tiny_document()
        scores = score_pairs(doc, tiny_params())
        h1 = math.tanh(2.0 * 0.3 + 0.5)
        h2 = math.tanh(2.0 * -0.1 + 0.5)
        hp = math.tanh(1.0 * 0.8 - 0.3)
        assert abs(scores[0, 0] - (1.5 * h1 - 0.2)) < 1e-12
        assert abs(scores[1, 1] - (1.5 * h2 - 0.2)) < 1e-12
        assert abs(scores[1, 0] - (0.7 * h2 - 0.4 * hp + 0.1)) < 1e-12

    def test_zero_params_zero_scores(self):
        doc = make_document("d", [1, 1, 3], d_a=4, d_p=5)
        params = ModelParams.zeros(4, 5, hidden_a=3, hidden_p=3)
        np.testing.assert_array_equal(np.tril(score_pairs(doc, params)),
                                      np.zeros((3, 3)))

    def test_single_mention_document(self):
        m = Mention(1, "proper", 1, np.array([0.3]))
        doc = Document.from_mentions("one", [m], {})
        scores = score_pairs(doc, tiny_params())
        expected = 1.5 * math.tanh(2.0 * 0.3 + 0.5) - 0.2
        assert abs(scores[0, 0] - expected) < 1e-12
        probs = link_probabilities(scores)
        assert probs.probs.tolist() == [[1.0]]

    def test_dimension_mismatch_rejected(self):
        doc = make_document("d", [1, 1], d_a=4, d_p=5)
        with pytest.raises(InputError):
            score_pairs(doc, ModelParams.zeros(3, 5, hidden_a=2, hidden_p=2))
        with pytest.raises(InputError):
            score_pairs(doc, ModelParams.zeros(4, 6, hidden_a=2, hidden_p=2))


class TestLinkProbabilities:
    def test_uniform_when_scores_equal(self):
        probs = link_probabilities(np.zeros((3, 3))).probs
        np.testing.assert_allclose(probs[2, :3], [1 / 3] * 3, atol=1e-12)

    def test_two_candidate_logistic(self):
        scores = np.array([[0.0, 0.0], [1.0, 0.0]])
        probs = link_probabilities(scores).probs
        e = math.e
        assert abs(probs[1, 0] - e / (e + 1)) < 1e-12
        assert abs(probs[1, 1] - 1 / (e + 1)) < 1e-12

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 5))
        shifted = scores + rng.normal(size=(5, 1))
        np.testing.assert_allclose(link_probabilities(scores).probs,
                                   link_probabilities(shifted).probs,
                                   atol=1e-12)

    def test_upper_triangle_ignored(self):
        scores = np.zeros((3, 3))
        junk = scores.copy()
        junk[0, 2] = 55.0
        np.testing.assert_array_equal(link_probabilities(scores).probs,
                                      link_probabilities(junk).probs)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(InputError):
            link_probabilities(np.zeros((2, 3)))
        bad = np.zeros((2, 2))
        bad[1, 0] = np.inf
        with pytest.raises(InputError):
            link_probabilities(bad)

    def test_predict_antecedents_is_valid(self):
        doc = make_document("d", [1, 1, 3, 3, 3], seed=2)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=2)
        ants = predict_antecedents(doc, params)
        validate_antecedent_vector(ants)
        assert len(ants) == 5


class TestCosts:
    def test_delta_cases(self):
        costs = CostConfig(alphas=(0.1, 3.0, 1.0))
        new_mention = frozenset({3})      # mention 3 opens its entity
        anaphor = frozenset({1, 2})       # mention 3 corefers with 1, 2
        assert delta_cost(1, 3, new_mention, costs) == 0.1   # false anaphor
        assert delta_cost(3, 3, anaphor, costs) == 3.0       # false new
        assert delta_cost(1, 3, frozenset({2}), costs) == 1.0  # wrong link
        assert delta_cost(2, 3, anaphor, costs) == 0.0       # correct link
        assert delta_cost(3, 3, new_mention, costs) == 0.0   # correct new

    def test_delta_case_order(self):
        # a discourse-new mention linked anywhere is a false anaphor,
        # even though the target is also outside C
        costs = CostConfig(alphas=(0.25, 3.0, 1.0))
        assert delta_cost(1, 3, frozenset({3}), costs) == 0.25

    def test_gamma_cases(self):
        costs = CostConfig(gammas=(0.1, 3.0, 1.0))
        assert gamma_cost(1, 3, 3, costs) == 0.1   # should open, joined other
        assert gamma_cost(3, 3, 1, costs) == 3.0   # should join, opened new
        assert gamma_cost(2, 3, 1, costs) == 1.0   # joined the wrong entity
        assert gamma_cost(1, 3, 1, costs) == 0.0   # correct join
        assert gamma_cost(3, 3, 3, costs) == 0.0   # correct open

    def test_cost_tables(self):
        doc = make_document("d", [1, 1, 3, 3])
        costs = CostConfig(alphas=(0.1, 3.0, 1.0), gammas=(0.1, 3.0, 1.0))
        expected = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [0.1, 0.1, 0.0, 0.0],
            [1.0, 1.0, 0.0, 3.0],
        ])
        np.testing.assert_array_equal(delta_matrix(doc, costs), expected)
        np.testing.assert_array_equal(gamma_matrix(doc, costs), expected)

    @given(labels=st.lists(st.integers(0, 8), min_size=1, max_size=60),
           alphas=st.tuples(*[st.floats(0.0, 10.0)] * 3),
           gammas=st.tuples(*[st.floats(0.0, 10.0)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_matrices_match_scalar_costs(self, labels, alphas, gammas):
        first = {}
        ids = [first.setdefault(lab, i) for i, lab in enumerate(labels, start=1)]
        doc = make_document("d", ids, d_a=1, d_p=1)
        costs = CostConfig(alphas=alphas, gammas=gammas)
        n = doc.n
        delta, gamma = np.zeros((n, n)), np.zeros((n, n))
        mask = np.zeros((n, n), dtype=bool)
        for i in range(1, n + 1):
            cand = correct_antecedents(doc, i)
            for j in range(1, i + 1):
                delta[i - 1, j - 1] = delta_cost(j, i, cand, costs)
                gamma[i - 1, j - 1] = gamma_cost(j, i, ids[i - 1], costs)
                mask[i - 1, j - 1] = j in cand
        np.testing.assert_array_equal(delta_matrix(doc, costs), delta)
        np.testing.assert_array_equal(gamma_matrix(doc, costs), gamma)
        np.testing.assert_array_equal(correct_set_mask(doc.gold_entity_array), mask)

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            CostConfig(alphas=(-0.1, 1.0, 1.0))
        with pytest.raises(ConfigError):
            CostConfig(gammas=(1.0, 1.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="alphas"):
                CostConfig(alphas=(0.1, bad, 1.0))
            with pytest.raises(ConfigError, match="gammas"):
                CostConfig(gammas=(bad, 3.0, 1.0))


class TestMentionRankingLoss:
    def test_uniform_no_costs(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        loss = document_loss(doc, params, "mr-heuristic", costs=ZERO_COSTS)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_uniform_with_default_costs(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        loss = document_loss(doc, params, "mr-heuristic", costs=CostConfig())
        assert abs(loss - math.log(1.0 + math.e ** 3)) < 1e-12

    def test_confident_correct_model_near_zero(self):
        doc = tiny_document((1, 2))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        params.v_0 = 20.0                # huge self-link score
        loss = document_loss(doc, params, "mr-heuristic", costs=CostConfig())
        assert 0.0 <= loss < 1e-6

    def test_matches_plain_cross_entropy_when_costs_zero(self):
        doc = make_document("d", [1, 2, 1, 2, 5], seed=11)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=11)
        loss = document_loss(doc, params, "mr-heuristic", costs=ZERO_COSTS)
        scores = np.tril(score_pairs(doc, params))
        expected = 0.0
        for i in range(1, doc.n + 1):
            row = scores[i - 1, :i]
            weights = np.exp(row - row.max())
            p = weights / weights.sum()
            expected -= math.log(sum(p[j - 1] for j in correct_antecedents(doc, i)))
        assert abs(loss - expected) < 1e-10

    def test_raising_costs_raises_loss(self):
        doc = make_document("d", [1, 1, 3, 3])
        params = ModelParams.zeros(4, 5, hidden_a=2, hidden_p=2)
        losses = [document_loss(doc, params, "mr-heuristic",
                                costs=CostConfig(alphas=(0.0, a2, 0.0)))
                  for a2 in (0.0, 1.0, 5.0)]
        assert losses[0] < losses[1] < losses[2]

    def test_l1_term(self):
        doc = tiny_document((1, 1))
        params = tiny_params()
        base = document_loss(doc, params, "mr-heuristic", costs=ZERO_COSTS)
        with_l1 = document_loss(doc, params, "mr-heuristic", costs=ZERO_COSTS,
                                lam=0.5)
        assert abs(with_l1 - (base + 0.5 * l1_norm(params))) < 1e-12


class TestEntityCentricLoss:
    def test_uniform_no_costs(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        loss = document_loss(doc, params, "ec-heuristic", costs=ZERO_COSTS)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_oracle_recomputation(self):
        """Independent loop-based recomputation from scores alone."""
        doc = make_document("d", [1, 2, 1, 2, 1, 6], seed=4)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=4)
        costs = CostConfig(gammas=(0.3, 2.0, 0.7))
        loss = document_loss(doc, params, "ec-heuristic", costs=costs)

        scores = score_pairs(doc, params)
        n = doc.n
        p = [[0.0] * n for _ in range(n)]
        for i in range(n):
            row = [math.exp(scores[i, j] - max(scores[i, : i + 1]))
                   for j in range(i + 1)]
            for j in range(i + 1):
                p[i][j] = row[j] / sum(row)
        q = [[0.0] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = p[i][i]
            for u in range(i):
                q[i][u] = sum(p[i][j] * q[j][u] for j in range(u, i))
        expected = 0.0
        ids = [m.gold_entity for m in doc.mentions]
        for i in range(n):
            total = sum(q[i][u] * math.exp(gamma_cost(u + 1, i + 1, ids[i], costs))
                        for u in range(i + 1))
            gold = q[i][ids[i] - 1] * math.exp(gamma_cost(ids[i], i + 1, ids[i], costs))
            expected -= math.log(gold / total)
        assert abs(loss - expected) < 1e-10

    def test_gamma2_inflates_loss(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        small = document_loss(doc, params, "ec-heuristic",
                              costs=CostConfig(gammas=(0.0, 1.0, 0.0)))
        large = document_loss(doc, params, "ec-heuristic",
                              costs=CostConfig(gammas=(0.0, 4.0, 0.0)))
        base = document_loss(doc, params, "ec-heuristic", costs=ZERO_COSTS)
        assert base < small < large


class TestRelaxedMetricLoss:
    def test_matches_standalone_relaxed_loss(self):
        doc = make_document("d", [1, 1, 3, 1, 5], seed=9)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=9)
        probs = link_probabilities(score_pairs(doc, params))
        m = MembershipMatrix(membership_array(probs.probs))
        for metric in ("b3", "lea"):
            for temperature in (1.0, 0.5):
                direct = document_loss(doc, params, metric,
                                       temperature=temperature, lam=1e-3)
                relaxed = relaxed_b3 if metric == "b3" else relaxed_lea
                standalone = (-relaxed(m, doc.gold_clusters, temperature=temperature).value
                              + 1e-3 * l1_norm(params))
                assert abs(direct - standalone) < 1e-12

    def test_single_mention_is_perfect(self):
        m = Mention(1, "proper", 1, np.array([0.3]))
        doc = Document.from_mentions("one", [m], {})
        assert abs(document_loss(doc, tiny_params(), "b3") + 1.0) < 1e-12

    def test_rejects_bad_settings(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        with pytest.raises(ConfigError):
            document_loss(doc, params, "muc")
        with pytest.raises(ConfigError):
            document_loss(doc, params, "b3", beta=-1.0)
        with pytest.raises(ConfigError):
            document_loss(doc, params, "b3", temperature=0.0)
        for setting, word in (("beta", "beta"), ("temperature", "temperature"),
                              ("lam", "l1 weight")):
            for bad in (np.nan, np.inf):
                with pytest.raises(ConfigError, match=word):
                    document_loss(doc, params, "b3", **{setting: bad})


def outer_product_backward(doc, params, h_a, h_p, d_scores) -> dict:
    """The unfused reverse pass of the scorer, with the explicit
    n_pairs x hidden_p products outer(d_pair, u_p) and d_z_p."""
    ha = params.hidden_a
    phi_a, phi_p = doc.mention_feature_matrix, doc.pair_feature_matrix
    rows_i, cols_j = doc.tril_pairs
    d_pair = d_scores[rows_i, cols_j]
    d_self = np.diagonal(d_scores).copy()
    d_row = np.tril(d_scores, k=-1).sum(axis=1)
    u_a, u_p = params.u[:ha], params.u[ha:]
    d_z_a = (np.outer(d_self, params.v) + np.outer(d_row, u_a)) * (1.0 - h_a ** 2)
    d_z_p = np.outer(d_pair, u_p) * (1.0 - h_p ** 2)
    return dict(w_a=d_z_a.T @ phi_a, b_a=d_z_a.sum(axis=0),
                w_p=d_z_p.T @ phi_p, b_p=d_z_p.sum(axis=0),
                u=np.concatenate([h_a.T @ d_row, h_p.T @ d_pair]),
                u_0=d_pair.sum(), v=h_a.T @ d_self, v_0=d_self.sum())


class TestScoreBackward:
    @pytest.mark.parametrize("n, hidden_a, hidden_p", [(16, 200, 700), (150, 24, 32)])
    def test_fused_matches_outer_product_oracle(self, n, hidden_a, hidden_p):
        rng = np.random.default_rng(n)
        doc = make_document("d", [1 + i - i % 5 for i in range(n)], d_a=6, d_p=9, seed=n)
        params = ModelParams.random(6, 9, hidden_a, hidden_p, seed=n)
        _, h_a, h_p = _forward_scores(doc, params)
        d_scores = np.tril(rng.normal(size=(n, n)))
        grad = _score_backward(doc, params, h_a, h_p, d_scores)
        for name, expected in outer_product_backward(doc, params, h_a, h_p,
                                                     d_scores).items():
            np.testing.assert_allclose(getattr(grad, name), expected, rtol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_single_mention_has_no_pair_gradient(self, kind):
        doc = Document.from_mentions("one", [Mention(1, "proper", 1, np.array([0.3]))], {})
        params = ModelParams.random(1, 3, hidden_a=2, hidden_p=4, seed=1)
        _, grad = document_loss_and_grad(doc, params, kind)
        assert np.all(grad.w_p == 0.0) and np.all(grad.b_p == 0.0)
        assert grad.u_0 == 0.0


def long_document(n: int, seed: int) -> Document:
    """A document of n mentions in about n / 12 entities."""
    labels = np.random.default_rng(seed).integers(0, max(1, n // 12), size=n)
    first: dict[int, int] = {}
    ids = [first.setdefault(int(lab), i) for i, lab in enumerate(labels, start=1)]
    return make_document("long", ids, seed=seed)


class TestPairBlocks:
    """The pair layer in row blocks of model._PAIR_BLOCK pairs."""

    N = 60  # 1,770 pairs: two blocks at the default size

    @pytest.mark.parametrize("block", [1, 590, 1000, None],
                             ids=["one-row", "divides", "remainder", "default"])
    def test_blocked_backward_matches_outer_product_oracle(self, block, monkeypatch):
        doc = long_document(self.N, seed=7)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=7)
        block = block or model._PAIR_BLOCK
        assert len(doc.pair_feature_matrix) > block
        monkeypatch.setattr(model, "_PAIR_BLOCK", len(doc.pair_feature_matrix))
        whole_scores, _, whole_h_p = _forward_scores(doc, params)  # one block
        monkeypatch.setattr(model, "_PAIR_BLOCK", block)
        scores, h_a, h_p = _forward_scores(doc, params)
        np.testing.assert_allclose(h_p, whole_h_p, rtol=1e-12)
        np.testing.assert_allclose(scores, whole_scores, rtol=1e-12)
        d_scores = np.tril(np.random.default_rng(7).normal(size=(self.N, self.N)))
        grad = _score_backward(doc, params, h_a, h_p, d_scores)
        for name, expected in outer_product_backward(doc, params, h_a, h_p,
                                                     d_scores).items():
            np.testing.assert_allclose(getattr(grad, name), expected, rtol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("block", [300, None])
    def test_score_pairs_matches_kept_pair_layer(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(model, "_PAIR_BLOCK", block)
        doc = long_document(self.N, seed=8)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=8)
        assert len(doc.pair_feature_matrix) > model._PAIR_BLOCK
        kept_scores, _, kept_h_p = _forward_scores(doc, params)
        assert kept_h_p.shape == (1770, 32)
        np.testing.assert_array_equal(score_pairs(doc, params), kept_scores)

    def test_score_pairs_peak_is_below_a_pair_layer(self):
        doc = long_document(200, seed=9)
        params = ModelParams.random(4, 5, hidden_a=20, hidden_p=200, seed=9)
        score_pairs(doc, params)  # fill the document's cached index arrays
        pair_layer_bytes = len(doc.pair_feature_matrix) * params.hidden_p * 8
        tracemalloc.start()
        try:
            score_pairs(doc, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_layer_bytes / 4, (peak, pair_layer_bytes)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradients_at_200_mentions(self, kind):
        doc = long_document(200, seed=200)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=200)
        assert len(doc.pair_feature_matrix) > 2 * model._PAIR_BLOCK
        assert grad_check(doc, params, kind, temperature=0.5, max_coords=12) < 1e-5


class TestDispatcherAndGradients:
    def test_dispatcher_rejects_unknown_kind(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        with pytest.raises(ConfigError):
            document_loss(doc, params, "hinge")
        with pytest.raises(ConfigError):
            document_loss_and_grad(doc, params, "hinge")

    def test_loss_and_grad_loss_matches_loss(self):
        doc = make_document("d", [1, 1, 3, 3], seed=6)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=6)
        for kind in LOSS_KINDS:
            value = document_loss(doc, params, kind, lam=1e-4, temperature=0.8)
            value2, _ = document_loss_and_grad(doc, params, kind, lam=1e-4,
                                               temperature=0.8)
            assert abs(value - value2) < 1e-12

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_finite_difference_gradients(self, kind):
        doc = make_document("d", [1, 2, 1, 2, 5, 1], seed=13)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=13)
        _, grad = document_loss_and_grad(doc, params, kind)
        flat = params.to_vector()
        analytic = grad.to_vector()
        rng = np.random.default_rng(0)
        coords = rng.choice(flat.size, size=30, replace=False)
        h = 1e-5
        for c in coords:
            plus, minus = flat.copy(), flat.copy()
            plus[c] += h
            minus[c] -= h
            fd = (document_loss(doc, params.from_vector(plus), kind)
                  - document_loss(doc, params.from_vector(minus), kind)) / (2 * h)
            rel = abs(analytic[c] - fd) / max(1.0, abs(analytic[c]), abs(fd))
            assert rel < 1e-6, f"{kind} coord {c}: {analytic[c]} vs {fd}"

    def test_l1_gradient_term(self):
        doc = make_document("d", [1, 1], seed=3)
        params = ModelParams.random(4, 5, hidden_a=2, hidden_p=2, seed=3)
        _, bare = document_loss_and_grad(doc, params, "mr-heuristic")
        lam = 0.01
        _, penalized = document_loss_and_grad(doc, params, "mr-heuristic", lam=lam)
        expected = bare.to_vector() + lam * np.sign(params.to_vector())
        np.testing.assert_allclose(penalized.to_vector(), expected, atol=1e-12)

    def test_non_finite_score_gradient_raises_training_error(self, monkeypatch):
        """A finite loss whose backward pass gives NaN stops before any
        ModelParams (whose InputError would mean bad input) is built."""
        from softcoref import TrainingError, model
        monkeypatch.setitem(model._LOSSES, "b3", nan_gradient_loss)
        doc = make_document("d", [1, 1, 3], seed=2)
        params = ModelParams.random(4, 5, hidden_a=2, hidden_p=3, seed=2)
        assert document_loss(doc, params, "b3") == 0.5
        with pytest.raises(TrainingError, match="non-finite b3 gradient on document d"):
            document_loss_and_grad(doc, params, "b3")

    def test_negative_l1_weight_rejected(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        with pytest.raises(ConfigError):
            document_loss_and_grad(doc, params, "mr-heuristic", lam=-0.5)
