"""Mention-ranking scorer, softmax-margin losses and their gradients.

Fixture values are derived by hand with ``math.tanh``/``math.exp`` on a
one-dimensional model, and the losses are cross-checked against slow
in-test recomputations that share no code with the implementation.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, ConfigError, CostConfig, Document,
                       FormatError, InputError, LOSS_KINDS, Mention,
                       ModelParams, SyntheticConfig, TrainConfig, TrainingError,
                       decode_argmax, document_loss, document_loss_and_grad,
                       evaluate_corpus, generate_synthetic, grad_check, l1_norm,
                       link_probabilities, predict_antecedents, relaxed_b3, relaxed_lea,
                       score_pairs, train, validate_antecedent_vector)
from softcoref.membership import MembershipMatrix, membership_array
from softcoref import model
from softcoref.model import (_forward_scores, _score_backward, correct_set_mask,
                             delta_matrix, gamma_matrix)

from conftest import correct_antecedents, make_document, nan_gradient_loss, overflowing_params
from oracles import ZERO_COSTS, delta_cost, gamma_cost, reference_near_tie_gap


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

    @pytest.mark.parametrize("seed", [-1, [3, -1]])
    def test_random_rejects_negative_seed(self, seed):
        """Used to escape as numpy's ValueError."""
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=seed)

    @pytest.mark.parametrize("sizes,seed,what", [
        ((12, 14, 2.5, 3), 0, "hidden_a"), ((3, 4.0, 2, 3), 0, "d_p"),
        ((3, 4, 2, 3), 1.5, "seed"), ((3, 4, 2, 3), [7, 2.5], "seed"),
        ((3, 4, 2, 3), True, "seed")])
    def test_random_rejects_non_integer_sizes_and_seeds(self, sizes, seed, what):
        """These used to raise a bare TypeError; numpy integers pass."""
        with pytest.raises(ConfigError, match=f"^{what} must be an integer, got "):
            ModelParams.random(*sizes, seed=seed)
        numpy = ModelParams.random(np.int64(3), 4, np.int32(2), 3, seed=np.array([7, 0]))
        python = ModelParams.random(3, 4, 2, 3, seed=[7, 0])
        np.testing.assert_array_equal(numpy.to_vector(), python.to_vector())

    @pytest.mark.parametrize("sizes,scale", [((3, 4, -1, 5), 0.1), ((3, 4, 2, 3), np.nan),
                                             ((3, 4, 2, 3), np.inf)])
    def test_random_rejects_negative_sizes_and_bad_scale(self, sizes, scale):
        message = ("hidden_a must be nonnegative, got -1" if np.isfinite(scale)
                   else f"scale must be nonnegative and finite, got {scale}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_before_opening_the_file(self, tmp_path, bad):
        """A value made non-finite in place would be written as a bare
        NaN or Infinity token, which is not JSON and which load rejects."""
        params = ModelParams.random(3, 4, hidden_a=2, hidden_p=3, seed=5)
        params.w_p[0, 0] = bad
        path = tmp_path / "model.json"
        with pytest.raises(InputError, match="^model parameters contain non-finite values$"):
            params.save(path)
        assert not path.exists()

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
        grad = _score_backward(doc, params, h_a, h_p.copy(), d_scores)
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


class RowSlices(np.ndarray):
    """A view that appends to its ``rows`` list the length of every row
    slice taken of it; the views that it makes record nothing."""

    def __getitem__(self, key):
        if isinstance(key, slice) and getattr(self, "rows", None) is not None:
            start, stop, _ = key.indices(len(self))
            self.rows.append(stop - start)
        return super().__getitem__(key)


def row_slices(array: np.ndarray, rows: list) -> RowSlices:
    view = array.view(RowSlices)
    view.rows = rows
    return view


def record_pair_blocks(patch) -> dict[str, list[int]]:
    """Wrap the passes over a document's pair rows; the dict returned
    collects the rows of every block each takes of them: the float64
    forward and the float32 screen (``_pair_forward`` of the pair matrix,
    told apart by the dtype of its weights) and the reverse pass
    (``_score_backward``, of h_p)."""
    blocks = {"forward": [], "backward": [], "screen": []}
    forward, backward = model._pair_forward, model._score_backward

    def pair_forward(phi_p, w_b, *args):
        rows = blocks["screen" if w_b.dtype == np.float32 else "forward"]
        return forward(row_slices(phi_p, rows), w_b, *args)

    patch.setattr(model, "_pair_forward", pair_forward)
    patch.setattr(model, "_score_backward", lambda doc, params, h_a, h_p, d_scores: backward(
        doc, params, h_a, row_slices(h_p, blocks["backward"]), d_scores))
    return blocks


def force_pair_blocks(patch, params: ModelParams, rows=None) -> dict[str, list[int]]:
    """``record_pair_blocks``, with the block rule set to ``rows`` rows per
    block at the sizes of ``params`` (None: the rule as it is)."""
    if rows is not None:
        patch.setattr(model, "_BLOCK_MACS", rows * (params.d_p + 1) * params.hidden_p)
    return record_pair_blocks(patch)


def split_rows(n_pairs: int, rows: int) -> list[int]:
    """The rows of each block of n_pairs rows walked in blocks of ``rows``."""
    return [min(rows, n_pairs - start) for start in range(0, n_pairs, rows)]


class TestPairBlocks:
    """The float64 pair layer in row blocks of model._block_rows rows."""

    # 1,770 pairs, or 5,995: two blocks at the rule's 5,208 rows (d_p 5, hidden_p 32)
    @pytest.mark.parametrize("n, block", [(60, 1), (60, 590), (60, 1000), (110, None)],
                             ids=["one-row", "divides", "remainder", "default"])
    def test_blocked_backward_matches_outer_product_oracle(self, n, block, monkeypatch):
        doc = long_document(n, seed=7)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=7)
        n_pairs = len(doc.pair_feature_matrix)
        with pytest.MonkeyPatch.context() as patch:
            whole = force_pair_blocks(patch, params, n_pairs)
            whole_scores, _, whole_h_p = _forward_scores(doc, params)  # one block
        assert whole["forward"] == [n_pairs]
        blocks = force_pair_blocks(monkeypatch, params, block)
        scores, h_a, h_p = _forward_scores(doc, params)
        if block == 1:
            # A one-row block's GEMV sums phi @ w_p^T + b_p in another order than
            # the GEMM, so an entry of h_p that cancels to ~1e-6 from terms of ~0.1
            # moves by ~1e-17.  Each sum is within gamma_(d_p + 1) of
            # |phi| @ |w_p^T| + |b_p| of the exact one, and tanh is 1-Lipschitz.
            sums = np.abs(doc.pair_feature_matrix) @ np.abs(params.w_p.T) + np.abs(params.b_p)
            bound = 2 * model._gamma(params.d_p + 1, model._F64_UNIT) * sums
            assert (np.abs(h_p - whole_h_p) <= bound + 1e-12 * np.abs(whole_h_p)).all()
        else:
            np.testing.assert_allclose(h_p, whole_h_p, rtol=1e-12)
        np.testing.assert_allclose(scores, whole_scores, rtol=1e-12)
        d_scores = np.tril(np.random.default_rng(7).normal(size=(n, n)))
        grad = model._score_backward(doc, params, h_a, h_p.copy(), d_scores)
        for name, expected in outer_product_backward(doc, params, h_a, h_p,
                                                     d_scores).items():
            np.testing.assert_allclose(getattr(grad, name), expected, rtol=1e-12,
                                       err_msg=name)
        split = split_rows(n_pairs, block or model._block_rows(params.d_p, params.hidden_p))
        assert blocks["forward"] == blocks["backward"] == split and len(split) > 1

    @pytest.mark.parametrize("block", [300, None])
    def test_score_pairs_matches_kept_pair_layer(self, block, monkeypatch):
        doc = long_document(110, seed=8)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=8)
        blocks = force_pair_blocks(monkeypatch, params, block)
        kept_scores, _, kept_h_p = _forward_scores(doc, params)
        assert kept_h_p.shape == (5995, 32)
        np.testing.assert_array_equal(score_pairs(doc, params), kept_scores)
        split = split_rows(5995, block or model._block_rows(params.d_p, params.hidden_p))
        assert blocks["forward"] == 2 * split and len(split) > 1

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
    def test_document_loss_peak_is_below_a_pair_layer(self, kind):
        """The forward-only loss, which grad_check calls twice per checked
        coordinate, keeps no pair layer either, and its value is the one
        that the training path computes with h_p kept."""
        doc = long_document(200, seed=9)
        params = ModelParams.random(4, 5, hidden_a=20, hidden_p=200, seed=9)
        kept, _ = document_loss_and_grad(doc, params, kind)
        pair_layer_bytes = len(doc.pair_feature_matrix) * params.hidden_p * 8
        tracemalloc.start()
        try:
            loss = document_loss(doc, params, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss == kept
        assert peak < pair_layer_bytes / 4, (peak, pair_layer_bytes)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradients_at_200_mentions(self, kind, monkeypatch):
        doc = long_document(200, seed=200)
        params = ModelParams.random(4, 5, hidden_a=24, hidden_p=32, seed=200)
        blocks = force_pair_blocks(monkeypatch, params)
        assert grad_check(doc, params, kind, temperature=0.5, max_coords=12) < 1e-5
        split = split_rows(19900, model._block_rows(params.d_p, params.hidden_p))
        assert len(split) > 2 and blocks["backward"] == split
        assert blocks["forward"] == split * (len(blocks["forward"]) // len(split))


class TestBlockRule:
    """One rule, model._block_rows, sizes the blocks of every pass over a
    document's pair rows, in float64 and in float32."""

    def test_rows_at_the_benchmark_widths(self):
        assert [model._block_rows(14, hidden) for hidden in (32, 200, 700)] == [2083, 333, 95]
        assert model._block_rows(0, 0) == model._block_rows(14, 0) == 10 ** 6
        assert model._block_rows(10 ** 6, 1) == 1

    @pytest.mark.parametrize("n, d_p, hidden_p, n_blocks", [(1, 0, 5, 0), (30, 4, 0, 1),
                                                            (110, 5, 32, 2), (16, 14, 700, 2)])
    def test_every_pass_splits_a_document_at_the_same_rows(self, n, d_p, hidden_p, n_blocks,
                                                           monkeypatch):
        doc = singleton_document(n, d_p, seed=n)
        params = ModelParams.random(4, d_p, hidden_a=3, hidden_p=hidden_p, seed=n)
        blocks = record_pair_blocks(monkeypatch)
        document_loss_and_grad(doc, params, "lea")
        split = split_rows(len(doc.pair_feature_matrix), model._block_rows(d_p, hidden_p))
        assert blocks == {"forward": split, "backward": split, "screen": []}
        blocks["forward"].clear()
        predict_antecedents(doc, params)
        assert (near_tie_gaps([doc], params) == [None]) == (n == 1)  # a screened document
        assert blocks["screen"] == split
        near_pairs = sum(blocks["forward"])  # the float64 re-scoring of near rows
        assert blocks["forward"] == split_rows(near_pairs, model._block_rows(d_p, hidden_p))
        assert len(split) == n_blocks

    def test_the_float64_pair_gemm_reads_w_p_transposed_as_it_lies(self, monkeypatch):
        """Each pass's GEMMs get one C-contiguous (d_p + 1, hidden_p)
        float64 [w_p^T; b_p], made once per pass.  Prediction's re-scoring
        of near rows reads the one that the parameters' memo keeps, so it
        makes none per call."""
        doc = long_document(60, seed=3)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, seed=3)
        blocks = force_pair_blocks(monkeypatch, params, 600)
        operands, forward = [], model._pair_forward
        monkeypatch.setattr(model, "_pair_forward", lambda phi_p, w_b, *args: (
            operands.append(w_b) or forward(phi_p, w_b, *args)))
        _forward_scores(doc, params)
        assert blocks["forward"] == [600, 600, 570]
        w_b, = operands
        assert w_b.dtype == np.float64 and w_b.flags.c_contiguous
        np.testing.assert_array_equal(w_b, np.vstack([params.w_p.T, params.b_p]))
        operands.clear()
        # Every row is near: each call re-scores the whole document in float64.
        monkeypatch.setattr(model, "_near_tie_gaps", lambda docs, terms: [np.inf] * len(docs))
        for _ in range(2):
            predict_antecedents(doc, params)
        pair_operands = [w for w in operands if w.dtype == np.float64]
        assert len(pair_operands) == 2 and blocks["forward"][3:] == 2 * [600, 600, 570]
        assert all(w is params._screen_memo()[3] for w in pair_operands)


def singleton_document(n: int, d_p: int, seed: int, pair_features=None) -> Document:
    """n singleton mentions with N(0, 1) features (d_a 4), built straight
    from a pair matrix so that long documents are cheap."""
    rng = np.random.default_rng(seed)
    mentions = [Mention(i, "proper", i, rng.normal(size=4)) for i in range(1, n + 1)]
    if pair_features is None:
        pair_features = rng.normal(size=(n * (n - 1) // 2, d_p))
    return Document("doc", mentions, pair_features)


def float64_slack(doc: Document, params: ModelParams) -> float:
    """A generous bound on how far two float64 evaluations of one score
    (the same sums in other orders) can differ."""
    reach = (doc.pair_feature_max * np.abs(params.w_p).sum(axis=1).max(initial=0.0)
             + np.abs(params.b_p).max(initial=0.0))
    return 1e-12 * (1.0 + reach) * (1.0 + np.abs(params.u).sum() + abs(params.u_0))


def float64_decoding(doc: Document, params: ModelParams) -> tuple[int, ...]:
    return decode_argmax(link_probabilities(score_pairs(doc, params)))


def near_tie_gaps(docs: list[Document], params: ModelParams) -> list:
    """``model._near_tie_gaps`` with the terms of the parameters' memo."""
    return model._near_tie_gaps(docs, params._screen_memo()[1])


def screened_scores(doc: Document, params: ModelParams, block_rows=None) -> np.ndarray:
    """The score matrix with the float32 pair layer of the prediction pass,
    in blocks of ``block_rows`` rows (None: one block)."""
    pairs = doc.pair_feature_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_BLOCK_MACS",
                      (block_rows or len(pairs)) * (params.d_p + 1) * params.hidden_p)
        halves = model._pair_forward(pairs, *params._screen_memo()[2], False)[0]
    return model._score_matrix(doc, params, halves)[0]


def spans_blocks(docs: list[Document], block_rows: int) -> bool:
    """Whether some document has more pairs than one block holds."""
    return any(len(doc.pair_feature_matrix) > block_rows for doc in docs)


def screen_split(docs: list[Document], block_rows: int) -> list[int]:
    """The rows of each float32 block of a pass that screens ``docs``."""
    return [rows for doc in docs for rows in split_rows(len(doc.pair_feature_matrix), block_rows)]


def near_tie_document(n: int = 8) -> Document:
    """Mention 3's pair features with mentions 1 and 2 are 2^-40 apart;
    otherwise, row by row, the latest antecedent wins by ~0.1."""
    rows, cols = np.tril_indices(n, k=-1)
    features = (0.1 * cols + 0.01 * rows)[:, None]
    features[1:3, 0] = 0.5, 0.5 + 2.0 ** -40  # pairs (1, 3) and (2, 3)
    return singleton_document(n, 1, seed=0, pair_features=features)


def near_tie_params() -> ModelParams:
    """Pair score = pair feature; every mention links to an antecedent."""
    return ModelParams(w_a=[[0.0] * 4], b_a=[0.0], w_p=[[1.0]], b_p=[0.0],
                       u=[0.0, 1.0], u_0=0.0, v=[0.0], v_0=-5.0)


def several_near_rows() -> tuple[Document, ModelParams]:
    """Pair score = tanh(pair feature), and every self-link scores v_0.
    Four rows are near ties that the float32 pair layer decides wrongly:
    mention 2's one antecedent has feature 0.25 + 2^-30 (0.25 in float32),
    against a v_0 halfway between its float32 and float64 pair scores;
    mentions 4, 6 and 8 each have two antecedents of features 0.625 and
    0.625 + 2^-40, equal in float32, so the earlier one would win.
    Otherwise the latest antecedent wins by ~0.01."""
    n = 8
    features = (0.3 + 0.01 * np.tril_indices(n, k=-1)[1])[:, None]
    features[0, 0] = 0.25 + 2.0 ** -30
    for i, (j, k) in {3: (0, 2), 5: (1, 4), 7: (3, 6)}.items():  # 0-based rows
        features[i * (i - 1) // 2 + np.array([j, k]), 0] = 0.625, 0.625 + 2.0 ** -40
    doc = singleton_document(n, 1, seed=0, pair_features=features)
    params = near_tie_params()
    params.v_0 = (screened_scores(doc, params)[1, 0] + score_pairs(doc, params)[1, 0]) / 2
    return doc, params


def guard_band_params() -> ModelParams:
    """hidden_p 2: pair row 1 has ||w||_1 = 1 and b = 0, row 2 has w = 0
    and |b| = 2^119, so at phi = 2^119 each row reaches 2^119."""
    return ModelParams(w_a=[[0.5] * 4], b_a=[0.0], w_p=[[1.0, 0.0], [0.0, 0.0]],
                       b_p=[0.0, -2.0 ** 119], u=[0.3, 1.0, 0.5], u_0=0.0, v=[0.2],
                       v_0=-0.4)


def guard_band_document(n: int = 9) -> Document:
    """Pair features (d_p 2) up to 2^119 in magnitude, most of them small."""
    features = np.random.default_rng(n).normal(size=(n * (n - 1) // 2, 2))
    features[::4, 0] = 2.0 ** 119
    features[1::4, 0] = -2.0 ** 119
    return singleton_document(n, 2, seed=n, pair_features=features)


class TestFloat32Screen:
    """predict_antecedents screens with a float32 pair layer and decides
    every near tie in float64."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), hidden_a=st.integers(1, 24), hidden_p=st.integers(1, 32),
           log_scale=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 16))
    def test_predictions_are_float64_argmaxes(self, n, hidden_a, hidden_p, log_scale, seed):
        doc = singleton_document(n, 5, seed)
        params = ModelParams.random(4, 5, hidden_a, hidden_p, scale=10.0 ** log_scale,
                                    seed=seed)
        scores = score_pairs(doc, params)
        predicted = np.array(predict_antecedents(doc, params)) - 1
        slack = float64_slack(doc, params)
        masked = np.where(doc.candidate_mask, scores, -np.inf)
        rows = np.arange(n)
        assert np.all(masked[rows, predicted] >= masked.max(axis=1) - slack)
        top_two = -np.sort(-masked, axis=1)[:, :2]
        clear = top_two[:, 0] - top_two[:, 1] > slack
        expected = np.array(float64_decoding(doc, params)) - 1
        np.testing.assert_array_equal(predicted[clear], expected[clear])
        gap, = near_tie_gaps([doc], params)
        if gap is not None:  # the bound E holds for every pair score
            screened = screened_scores(doc, params)
            assert np.abs(screened - scores).max() <= (gap - 2.0 ** -44) / 2

    def test_near_tie_is_decided_in_float64(self):
        """Mention 3's two antecedents have pair features 2^-40 apart: equal
        in float32, so the screened scores tie and the smaller index would
        win, while float64 ranks mention 2 first."""
        doc, params = near_tie_document(), near_tie_params()
        screened = screened_scores(doc, params)
        assert screened[2, 0] == screened[2, 1]
        scores = score_pairs(doc, params)
        assert scores[2, 1] > scores[2, 0]
        predicted = predict_antecedents(doc, params)
        assert predicted[2] == 2
        assert predicted == float64_decoding(doc, params) == (1, 1, 2, 3, 4, 5, 6, 7)

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_several_near_rows_are_decided_together_in_float64(self, block, monkeypatch):
        """Mention 2's single-pair row and three two-antecedent rows are
        re-scored in one pass; in blocks of 1 or 3 rows too."""
        doc, params = several_near_rows()
        float32 = np.where(doc.candidate_mask, screened_scores(doc, params, block), -np.inf)
        expected = float64_decoding(doc, params)
        assert expected == (1, 1, 2, 3, 4, 5, 6, 7)
        wrong = np.flatnonzero(float32.argmax(axis=1) + 1 != expected)
        assert wrong.tolist() == [1, 3, 5, 7]
        if block:
            blocks = force_pair_blocks(monkeypatch, params, block)
        assert predict_antecedents(doc, params) == expected
        if block:
            assert blocks["screen"] == screen_split([doc], block) and spans_blocks([doc], block)

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["one-block", "one-row", "seven-rows"])
    def test_screen_is_one_float32_gemm_with_the_bias_folded_in(self, block, monkeypatch):
        """The screen's pair halves are, bit for bit, tanh([phi | 1] @ w_b)
        @ u_p in float32 on each block, with the memo's w_b = [w_p^T; b_p]:
        the arithmetic that the near-tie bound E assumes (casts, then one
        sum of d_p + 1 products that adds the bias).  At d_p 4 a bias added
        in a pass of its own changes the bits of one-row blocks."""
        doc = singleton_document(40, 4, seed=5)
        params = ModelParams.random(4, 4, hidden_a=3, hidden_p=6, scale=0.5, seed=5)
        _, _, (w_b, u_p), _ = params._screen_memo()
        pairs = doc.pair_feature_matrix
        rows = block or len(pairs)
        blocks = force_pair_blocks(monkeypatch, params, rows)
        halves, h_p = model._pair_forward(pairs, w_b, u_p, False)
        phi = np.hstack([pairs, np.ones((len(pairs), 1))]).astype(np.float32)
        expected = np.concatenate([np.tanh(phi[start:start + rows] @ w_b) @ u_p
                                   for start in range(0, len(pairs), rows)])
        assert blocks["screen"] == split_rows(len(pairs), rows) and h_p is None
        assert halves.dtype == np.float64 and expected.dtype == np.float32
        np.testing.assert_array_equal(halves, expected)

    @pytest.mark.parametrize("where", ["w_p", "b_p", "u_p", "w_p and features"])
    def test_values_beyond_float32_are_scored_in_float64(self, where, tmp_path):
        """A weight of 1e39 (finite in float64, beyond float32's 3.4e38), or
        weights and features that fit float32 but whose products do not."""
        doc = long_document(12, seed=4)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, seed=4)
        if where == "w_p":
            params.w_p[2, 1] = 1e39
        elif where == "b_p":
            params.b_p[0] = -1e39
        elif where == "u_p":
            params.u[-1] = 1e39
        else:
            params.w_p[...] = 1e20
            features = doc.pair_feature_matrix.copy()
            features[5, 3] = 1e20
            doc = Document(doc.id, doc.mentions, features)
        path = tmp_path / "model.json"
        params.save(path)
        params = ModelParams.load(path)
        assert near_tie_gaps([doc], params) == [None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict_antecedents(doc, params) == float64_decoding(doc, params)

    def test_stated_tanh_error_bound_holds(self):
        """The bound takes numpy's float32 tanh to within _TANH_ULPS units of
        2^-24 of the exact value (float64 tanh stands in for it)."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(scale=s, size=200_000) for s in (1e-3, 0.3, 1.0, 4.0)])
        x = x.astype(np.float32)
        error = np.abs(np.tanh(x).astype(np.float64) - np.tanh(x.astype(np.float64)))
        assert error.max() <= model._TANH_ULPS * model._F32_UNIT

    def test_shared_parameter_terms_give_the_same_gap(self):
        """``evaluate_corpus`` takes every gap of a corpus in one call;
        each is bit-identical to the one computed for the document alone."""
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, scale=3.0, seed=5)
        docs = [singleton_document(n, 5, seed=n) for n in (1, 2, 9, 40)]
        docs.append(singleton_document(9, 5, seed=9, pair_features=np.full((36, 5), 1e39)))
        gaps = near_tie_gaps(docs, params)
        assert gaps == [near_tie_gaps([doc], params)[0] for doc in docs]
        assert [gap is None for gap in gaps] == [True, False, False, False, True]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), d_p=st.integers(1, 20), hidden_a=st.integers(1, 64),
           hidden_p=st.integers(1, 64), log_scale=st.floats(-3.0, 3.0),
           log2_features=st.floats(0.0, 119.0), seed=st.integers(0, 2 ** 16))
    def test_closed_form_gap_matches_the_row_by_row_oracle(self, n, d_p, hidden_a, hidden_p,
                                                          log_scale, log2_features, seed):
        """Within 16 ulps of ``reference_near_tie_gap`` (20,000 random cases
        showed at most 7), None wherever it is None, and None besides only
        in the guard band: where the largest row's reach fits float32 but
        max(phi, 1) max_k ||w_p,k||_1 + max_k |b_p,k| does not."""
        features = np.random.default_rng(seed).normal(size=(n * (n - 1) // 2, d_p))
        doc = singleton_document(n, d_p, seed, pair_features=features * 2.0 ** log2_features)
        params = ModelParams.random(4, d_p, hidden_a, hidden_p, scale=10.0 ** log_scale,
                                    seed=seed)
        gap, = near_tie_gaps([doc], params)
        expected = reference_near_tie_gap(doc, params)
        if gap is not None:
            assert expected is not None and math.isclose(gap, expected, rel_tol=2.0 ** -48)
        elif expected is not None:
            reach = (max(doc.pair_feature_max, 1.0) * np.abs(params.w_p).sum(axis=1).max()
                     + np.abs(params.b_p).max())
            assert reach >= 2.0 ** 120

    def test_guard_band_document_is_scored_in_float64(self):
        """Each pair row reaches 2^119 alone, so the row-by-row test would
        screen the document in float32; the shared bound reaches 2^120 and
        sends it to float64, with the same predictions."""
        params, doc = guard_band_params(), guard_band_document()
        assert reference_near_tie_gap(doc, params) is not None
        assert near_tie_gaps([doc], params) == [None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict_antecedents(doc, params) == float64_decoding(doc, params)

    def test_predict_peak_is_below_a_pair_layer(self):
        doc = long_document(200, seed=9)
        params = ModelParams.random(4, 5, hidden_a=20, hidden_p=200, seed=9)
        predict_antecedents(doc, params)  # fill the document's cached arrays
        assert near_tie_gaps([doc], params) != [None]
        pair_layer_bytes = len(doc.pair_feature_matrix) * params.hidden_p * 8
        tracemalloc.start()
        try:
            predict_antecedents(doc, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_layer_bytes / 4, (peak, pair_layer_bytes)


@st.composite
def prediction_corpora(draw) -> list[Document]:
    """0-6 documents (d_a 4, d_p 5) of n 1-60, with n 1 and 2 common, and
    sometimes one whose pair features float32 cannot hold.  A document of
    no mentions is an InputError when it is built, so n = 0 is the empty
    corpus."""
    sizes = draw(st.lists(st.one_of(st.sampled_from([1, 2]), st.integers(3, 60)),
                          max_size=6))
    seed = draw(st.integers(0, 2 ** 16))
    docs = [singleton_document(n, 5, seed + k) for k, n in enumerate(sizes)]
    if docs and draw(st.booleans()):
        k = draw(st.integers(0, len(docs) - 1))
        n = max(sizes[k], 2)
        features = np.random.default_rng(seed).normal(size=(n * (n - 1) // 2, 5))
        features[draw(st.integers(0, len(features) - 1)), 2] = -1e39
        docs[k] = singleton_document(n, 5, seed, pair_features=features)
    return docs


class TestCorpusPass:
    """model._predict_corpus, which evaluate_corpus and ``errors`` run:
    each document's pair rows go through their own float32 blocks, with
    the memo read once per pass."""

    def test_documents_straddling_blocks_decode_alone(self):
        """In blocks of 7 rows many documents span several; every
        prediction is the document's own predict_antecedents, and the
        float64 argmax wherever the top-two gap is clear."""
        spanned = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(docs=prediction_corpora(), hidden_a=st.integers(1, 24),
               hidden_p=st.integers(1, 32), log_scale=st.floats(0.0, 3.0),
               seed=st.integers(0, 2 ** 16))
        def check(docs, hidden_a, hidden_p, log_scale, seed):
            params = ModelParams.random(4, 5, hidden_a, hidden_p, scale=10.0 ** log_scale,
                                        seed=seed)
            with pytest.MonkeyPatch.context() as patch:
                blocks = force_pair_blocks(patch, params, 7)
                predicted = [tuple(ants.tolist())
                             for ants in model._predict_corpus(docs, params)]
                alone = [predict_antecedents(doc, params) for doc in docs]
            assert predicted == alone
            screened = [doc for doc, gap in zip(docs, near_tie_gaps(docs, params))
                        if gap is not None]
            assert blocks["screen"] == 2 * screen_split(screened, 7)  # the pass, then alone
            if screened:
                spanned.append(spans_blocks(screened, 7))
            for doc, ants in zip(docs, predicted):
                scores = score_pairs(doc, params)
                masked = np.where(doc.candidate_mask, scores, -np.inf)
                top_two = -np.sort(-masked, axis=1)[:, :2]
                clear = (top_two[:, 0] - top_two[:, 1] > float64_slack(doc, params)
                         if doc.n > 1 else np.ones(1, bool))
                expected = np.array(float64_decoding(doc, params))
                np.testing.assert_array_equal(np.array(ants)[clear], expected[clear])

        check()
        assert sum(spanned) >= 20, spanned

    def test_near_ties_in_shared_blocks_are_decided_in_float64(self, monkeypatch):
        """The near tie of mention 3 (see TestFloat32Screen), in documents
        of 3-28 pairs, most of them split by 5-row blocks."""
        params = near_tie_params()
        docs = [near_tie_document(n) for n in (3, 8, 4, 8, 5, 8, 6, 8, 7, 8)]
        blocks = force_pair_blocks(monkeypatch, params, 5)
        for doc, ants in zip(docs, model._predict_corpus(docs, params)):
            assert tuple(ants.tolist()) == float64_decoding(doc, params)
            assert tuple(ants.tolist()) == (1,) + tuple(range(1, doc.n))
        assert blocks["screen"] == screen_split(docs, 5) and spans_blocks(docs, 5)

    def test_evaluate_corpus_peak_is_below_a_pair_layer(self):
        """Documents are decoded one by one, and no corpus-sized array is
        made: the peak over three n = 200 documents stays below a quarter
        of one document's float64 pair layer."""
        docs = [long_document(200, seed=seed) for seed in (9, 10, 11)]
        params = ModelParams.random(4, 5, hidden_a=20, hidden_p=200, seed=9)
        evaluate_corpus(docs, params)  # fill the documents' cached arrays
        assert None not in near_tie_gaps(docs, params)
        pair_layer_bytes = len(docs[0].pair_feature_matrix) * params.hidden_p * 8
        tracemalloc.start()
        try:
            evaluate_corpus(docs, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_layer_bytes / 4, (peak, pair_layer_bytes)

    def test_prediction_memory_does_not_grow_with_the_corpus(self):
        """Twenty documents of 120 pairs at hidden_p 700: the screen's
        buffers are sized for one block of one document, 95 rows of
        hidden_p (266,000 B), and are dropped before the document's near
        rows are re-scored.  What else the pass keeps stays below 60,000 B
        (~20,000 B measured): the float32 features and the per-document
        arrays.  The float64 [w_p^T; b_p] that re-scoring reads is kept
        with the parameters.  Blocks of 120 rows, the whole document, would
        add ~71,600 B."""
        docs = generate_synthetic(SyntheticConfig(num_docs=20, mentions_per_doc=(16, 16),
                                                  entities_per_doc=(3, 6), seed=3))
        params = ModelParams.random(12, 14, hidden_a=20, hidden_p=700, seed=3)
        evaluate_corpus(docs, params)  # fill the documents' cached arrays
        assert None not in near_tie_gaps(docs, params)
        block_bytes = model._block_rows(params.d_p, params.hidden_p) * params.hidden_p * 4
        assert block_bytes == 266_000
        tracemalloc.start()
        try:
            evaluate_corpus(docs, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + 60_000, (peak, block_bytes)


PARAM_EDITS = ("view", "setter", "scale", "zero sign", "nan", "restore")


def edit_params(params: ModelParams, original: ModelParams, kind: str, k: int,
                value: float) -> None:
    """One in-place edit of ``params``; ``k`` picks the field and entry."""
    fields = [params.w_a, params.b_a, params.w_p, params.b_p, params.u, params.v]
    field = fields[k % len(fields)].reshape(-1)  # a view of the flat vector
    entry = k // len(fields) % field.size
    if kind == "view":
        field[entry] = value
    elif kind == "setter":
        setattr(params, ("u_0", "v_0", "b_p", "w_p")[k % 4], value)
    elif kind == "scale":
        fields[k % len(fields)] *= value
    elif kind == "zero sign":  # a zero becomes -0.0 and back: equal as floats
        field[entry] = -field[entry] if field[entry] == 0.0 else 0.0
    elif kind == "nan":
        field[entry] = np.nan
    else:
        for name in ("w_a", "b_a", "w_p", "b_p", "u", "u_0", "v", "v_0"):
            setattr(params, name, getattr(original, name))


def prediction_or_error(doc: Document, params: ModelParams):
    try:
        return predict_antecedents(doc, params)
    except InputError as exc:
        return f"InputError: {exc}"


class TestScreenMemo:
    """ModelParams keeps what the float32 screen derives from the
    parameters alone, and rebuilds it once after any in-place write."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        builds, build = [], model._screen_constants
        monkeypatch.setattr(model, "_screen_constants",
                            lambda params: builds.append(1) or build(params))
        return builds

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edits=st.lists(st.tuples(st.sampled_from(PARAM_EDITS), st.integers(0, 2 ** 16),
                                    st.floats(-3.0, 3.0)), max_size=10),
           seed=st.integers(0, 2 ** 16))
    def test_in_place_edits_between_calls_match_a_fresh_copy(self, edits, seed):
        """Every call on one ModelParams, edited in place between calls,
        equals the same call on a fresh copy, or raises the same error."""
        docs = [singleton_document(n, 5, seed + n) for n in (1, 2, 12)]
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, scale=1.0, seed=seed)
        original = params.copy()
        for kind, k, value in [("view", 0, params.w_a[0, 0])] + edits:
            edit_params(params, original, kind, k, value)
            for doc in docs:
                assert prediction_or_error(doc, params) == prediction_or_error(
                    doc, params.copy()), (kind, k, value)

    def test_constants_are_built_once_per_parameter_state(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        doc = singleton_document(12, 5, seed=1)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, seed=1)

        def builds_after(calls: int) -> int:
            for _ in range(calls):
                predict_antecedents(doc, params)
            return len(builds)

        assert builds_after(50) == 1
        params.b_p[0] = 0.0
        assert builds_after(5) == 2
        params.b_p[0], params.u_0 = 0.0, params.u_0  # the same bits: nothing to rebuild
        assert builds_after(5) == 2
        params.b_p[0] = -0.0  # equal to 0.0 as a float, not as bits
        assert builds_after(5) == 3

    def test_training_with_a_dev_set_builds_once_per_epoch(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        corpus = generate_synthetic(SyntheticConfig(num_docs=4, mentions_per_doc=(3, 6),
                                                    entities_per_doc=(1, 3), seed=2))
        config = TrainConfig(epochs=3, hidden_a=4, hidden_p=5, seed=0)
        train(corpus[:3], corpus[3:], config)
        assert len(builds) == 3
        train(corpus[:3], [], config)
        assert len(builds) == 3

    def test_a_pass_compares_the_bits_once(self, monkeypatch):
        """_predict_corpus reads the memo once and hands its terms and
        weights on, so each pass makes one bit compare of the flat vector."""
        reads, read = [], ModelParams._screen_memo
        monkeypatch.setattr(ModelParams, "_screen_memo",
                            lambda params: reads.append(1) or read(params))
        docs = [singleton_document(n, 5, seed=n) for n in (1, 12, 30)]
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, seed=1)
        model._predict_corpus(docs, params)
        assert len(reads) == 1
        evaluate_corpus(docs, params)
        assert len(reads) == 2

    def test_memo_arrays_are_read_only_and_replaced_after_a_write(self):
        doc = singleton_document(12, 5, seed=1)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=6, seed=1)
        predict_antecedents(doc, params)
        bits, _, (w_b, u_p), w_b64 = params._screen_memo()
        for array in (bits, w_b, u_p, w_b64):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        for array, dtype in ((w_b, np.float32), (w_b64, np.float64)):
            assert array.shape == (params.d_p + 1, params.hidden_p) and array.flags.c_contiguous
            np.testing.assert_array_equal(
                array, np.vstack([params.w_p.T, params.b_p]).astype(dtype))
        params.w_p[0, 0] += 1.0
        predict_antecedents(doc, params)
        kept, _, (new_w_b, _), new_w_b64 = params._memo
        assert new_w_b is not w_b and not new_w_b.flags.writeable
        assert new_w_b64 is not w_b64 and not new_w_b64.flags.writeable
        np.testing.assert_array_equal(new_w_b64, np.vstack([params.w_p.T, params.b_p]))
        assert new_w_b[0, 0] == np.float32(params.w_p[0, 0])
        np.testing.assert_array_equal(kept, params._vec.view(np.int64))


class TestOverflowingScores:
    """Finite parameters whose scores leave float64 are rejected by name,
    not decoded; numpy's overflow warnings on the way are silenced here,
    as in the training tests (``softcoref evaluate`` silences them)."""

    def test_float64_path_raises_input_error(self):
        docs = generate_synthetic(SyntheticConfig(num_docs=3, seed=0))
        params = overflowing_params()
        with np.errstate(over="ignore", invalid="ignore"):
            assert near_tie_gaps(docs, params) == [None] * 3
            for predict in (lambda: predict_antecedents(docs[0], params),
                            lambda: evaluate_corpus(docs, params)):
                with pytest.raises(InputError,
                                   match="^non-finite scores on document doc-0000$"):
                    predict()

    def test_screened_path_checks_the_self_link_scores(self):
        """The pair side fits the float32 screen; only v . h_a + v_0
        overflows, with every h_a near 1."""
        docs = generate_synthetic(SyntheticConfig(num_docs=3, seed=0))
        params = ModelParams.random(12, 14, hidden_a=3, hidden_p=4, seed=0)
        params.b_a[:] = 100.0
        params.v[:] = 1e308
        assert None not in near_tie_gaps(docs, params)
        with np.errstate(over="ignore"), pytest.raises(
                InputError, match="^non-finite scores on document doc-0001$"):
            evaluate_corpus(docs[1:], params)


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

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_overflowing_scores_raise_training_error(self, kind):
        """Every parameter is finite but the scores are not; the membership
        solves used to raise scipy's ValueError on them."""
        doc = generate_synthetic(SyntheticConfig(num_docs=3, seed=0))[0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingError, match="^non-finite scores on document doc-0000$"):
            document_loss_and_grad(doc, overflowing_params(), kind)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_overflowing_l1_term_raises_training_error(self, kind):
        """Two entries of w_a at 1e308 only saturate tanh, so the objective
        is finite, but the L1 norm overflows."""
        doc = make_document("d", [1, 1, 3], seed=2)
        params = ModelParams.random(4, 5, hidden_a=2, hidden_p=3, seed=2)
        params.w_a[:, 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(document_loss(doc, params, kind))
            with pytest.raises(TrainingError, match=f"^non-finite {kind} loss on document d$"):
                document_loss(doc, params, kind, lam=1e-6)

    def test_negative_l1_weight_rejected(self):
        doc = tiny_document((1, 1))
        params = ModelParams.zeros(1, 1, hidden_a=1, hidden_p=1)
        with pytest.raises(ConfigError):
            document_loss_and_grad(doc, params, "mr-heuristic", lam=-0.5)
