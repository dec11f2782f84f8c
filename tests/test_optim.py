"""AdaGrad updates, the training loop, model selection and grad checks."""

import dataclasses

import numpy as np
import pytest

from softcoref import (BETA_GRID, LOSS_KINDS, PRF, ConfigError, CostConfig, InputError,
                       MetricReport, ModelParams, TrainConfig, TrainingError, adagrad_step,
                       beta_sweep, document_loss_and_grad, evaluate_corpus, grad_check,
                       model, optim, train)
from softcoref.optim import ADAGRAD_EPS, EpochRecord, TrainHistory

from conftest import make_document, saturated_params, small_corpus


class TestAdagradStep:
    def test_zero_gradient_is_identity(self):
        theta = np.array([1.0, -2.0, 3.0])
        accum = np.array([0.5, 0.5, 0.5])
        new_theta, new_accum = adagrad_step(theta, np.zeros(3), accum, eta=0.1)
        np.testing.assert_array_equal(new_theta, theta)
        np.testing.assert_array_equal(new_accum, accum)

    def test_first_step_arithmetic(self):
        """With accum 0, g = 1, eta = 0.1 the step is eta * g / (|g| + ADAGRAD_EPS)."""
        theta = np.zeros(1)
        new_theta, new_accum = adagrad_step(theta, np.ones(1), np.zeros(1), eta=0.1)
        assert new_theta[0] == -0.1 / (1.0 + ADAGRAD_EPS)
        assert new_accum[0] == 1.0

    def test_first_step_where_epsilon_matters(self):
        """The paper's rule theta -= eta g / (sqrt(g^2) + eps) with eps 1e-8:
        at |g| = 1e-8 the denominator is 2e-8, so the first step is eta / 2."""
        new_theta, _ = adagrad_step(np.ones(2), np.array([1e-8, -1e-8]), np.zeros(2), eta=0.1)
        np.testing.assert_allclose(new_theta, [0.95, 1.05], rtol=1e-12)

    def test_second_step_shrinks(self):
        theta, accum = np.zeros(1), np.zeros(1)
        theta, accum = adagrad_step(theta, np.ones(1), accum, eta=0.1)
        theta2, accum2 = adagrad_step(theta, np.ones(1), accum, eta=0.1)
        assert accum2[0] == 2.0
        assert theta2[0] == theta[0] - 0.1 / (np.sqrt(2.0) + ADAGRAD_EPS)

    def test_inputs_not_mutated(self):
        theta = np.array([1.0])
        grads = np.array([2.0])
        accum = np.array([3.0])
        adagrad_step(theta, grads, accum, eta=0.1)
        assert theta[0] == 1.0 and accum[0] == 3.0

    def test_rejects_non_finite_gradient(self):
        with pytest.raises(TrainingError):
            adagrad_step(np.zeros(2), np.array([1.0, np.nan]), np.zeros(2), eta=0.1)

    def test_rejects_shape_mismatch_and_bad_eps(self):
        with pytest.raises(ConfigError):
            adagrad_step(np.zeros(2), np.zeros(3), np.zeros(2), eta=0.1)

    def test_in_place_update_equals_the_copying_step(self):
        """``train``'s in-place update gives adagrad_step's vectors, and
        those of the out-of-place formula, bit for bit."""
        rng = np.random.default_rng(0)
        theta = rng.normal(size=600)
        grads = rng.normal(size=600) * 10.0 ** rng.uniform(-8, 3, size=600)
        accum = rng.exponential(size=600)
        accum[::3] = 0.0
        grads[::6] = 0.0  # zero accum and zero gradient together on every sixth
        eta = 0.07
        expected = adagrad_step(theta, grads, accum, eta)
        formula_accum = accum + grads * grads
        formula = (theta - eta * grads / (np.sqrt(formula_accum) + ADAGRAD_EPS), formula_accum)
        optim._adagrad_update(theta, grads.copy(), accum, eta, np.empty(600))
        for got, copying, written_out in zip((theta, accum), expected, formula):
            assert got.tobytes() == copying.tobytes() == written_out.tobytes()


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.loss == "mr-heuristic"

    @pytest.mark.parametrize("kwargs", [
        dict(loss="perceptron"),
        dict(beta=0.0),
        dict(temperature=-1.0),
        dict(learning_rate=0.0),
        dict(epochs=0),
        dict(lam=-1e-6),
        dict(hidden_a=0),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(temperature=float("nan")),
        dict(temperature=float("inf")),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(lam=float("nan")),
        dict(lam=float("inf")),
        dict(init_scale=-1.0),
        dict(init_scale=float("nan")),
        dict(init_scale=float("inf")),
        dict(hidden_p=0),
        dict(learning_rate=-0.1),
        dict(seed=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        (setting,) = kwargs
        word = {"lam": "l1 weight", "learning_rate": "learning rate",
                "init_scale": "init scale"}.get(setting, setting)
        with pytest.raises(ConfigError, match=word):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    @pytest.mark.parametrize("setting", ["epochs", "seed", "hidden_a", "hidden_p"])
    def test_rejects_non_integer_integer_settings(self, setting, value):
        """These used to pass and fail later with a bare TypeError; a numpy
        integer passes."""
        with pytest.raises(ConfigError, match=f"^{setting} must be an integer, got {value!r}$"):
            TrainConfig(**{setting: value})
        assert getattr(TrainConfig(**{setting: np.int64(2)}), setting) == 2


def _fast_config(**overrides) -> TrainConfig:
    defaults = dict(epochs=2, hidden_a=6, hidden_p=8, learning_rate=0.1, seed=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_deterministic_reruns(self):
        corpus = small_corpus(4, seed=1)
        dev = small_corpus(2, seed=2)
        a, hist_a = train(corpus, dev, _fast_config())
        b, hist_b = train(corpus, dev, _fast_config())
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())
        assert hist_a.to_csv() == hist_b.to_csv()

    def test_seed_changes_outcome(self):
        corpus = small_corpus(4, seed=1)
        a, _ = train(corpus, [], _fast_config(seed=3))
        b, _ = train(corpus, [], _fast_config(seed=4))
        assert not np.array_equal(a.to_vector(), b.to_vector())

    @pytest.mark.parametrize("kind", ["mr-heuristic", "ec-heuristic", "b3", "lea"])
    def test_loss_decreases(self, kind):
        corpus = small_corpus(6, seed=5, noise=0.05)
        config = _fast_config(loss=kind, epochs=3, temperature=1.0)
        _, history = train(corpus, [], config)
        losses = [rec.mean_loss for rec in history.records]
        assert losses[-1] < losses[0]

    def test_best_dev_selection(self):
        corpus = small_corpus(5, seed=7)
        dev = small_corpus(3, seed=8)
        params, history = train(corpus, dev, _fast_config(epochs=3))
        returned = evaluate_corpus(dev, params).conll
        best = max(rec.dev.conll for rec in history.records)
        assert abs(returned - best) < 1e-12

    @pytest.mark.parametrize("dev_conll, best", [
        ([0.5, 0.7, 0.7, 0.6], 2), ([0.9, 0.1], 1), ([0.3], 1), ([None, None, None], 3)])
    def test_history_best_is_the_first_highest_dev_conll(self, dev_conll, best):
        """Or the last epoch when there is no dev set."""
        perfect = PRF(1.0, 1.0, 1.0)
        reports = [None if c is None else MetricReport(*[perfect] * 6, conll=c)
                   for c in dev_conll]
        history = TrainHistory([EpochRecord(k, 1.0, dev, 0.0)
                                for k, dev in enumerate(reports, start=1)])
        assert history.best is history.records[best - 1]

    @pytest.mark.parametrize("with_dev", [True, False])
    def test_returns_the_parameters_of_history_best(self, with_dev):
        """The returned parameters are those after the epoch that
        ``history.best`` names: training with that many epochs ends on them."""
        corpus, dev = small_corpus(5, seed=7), small_corpus(3, seed=8) if with_dev else []
        params, history = train(corpus, dev, _fast_config(epochs=4, learning_rate=0.3))
        assert (history.best.epoch < 4) == with_dev  # dev picks epoch 2, tied with 3
        again, _ = train(corpus, dev[:0], _fast_config(epochs=history.best.epoch,
                                                       learning_rate=0.3))
        np.testing.assert_array_equal(params.to_vector(), again.to_vector())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train([], [], _fast_config())

    def test_dimension_mismatch_rejected(self):
        """Every train and dev document is checked against the initial
        parameters before the first step."""
        corpus = small_corpus(2, seed=1)
        other_da = small_corpus(1, seed=1, d_a=9)
        other_dp = small_corpus(1, seed=1, d_p=9)
        init = ModelParams.zeros(9, corpus[0].d_p, hidden_a=4, hidden_p=4)
        for train_docs, dev_docs, config, doc_id in [
            (corpus + other_da, [], _fast_config(), other_da[0].id),
            (corpus, other_dp, _fast_config(), other_dp[0].id),
            (corpus, [], _fast_config(init_model=init), corpus[0].id),
        ]:
            with pytest.raises(InputError, match=f"document {doc_id}: feature dims"):
                train(train_docs, dev_docs, config)

    def test_init_model_used(self):
        corpus = small_corpus(2, seed=1)
        init = ModelParams.zeros(corpus[0].d_a, corpus[0].d_p,
                                 hidden_a=4, hidden_p=4)
        params, _ = train(corpus, [], _fast_config(init_model=init, epochs=1))
        assert params.hidden_a == 4
        # the provided instance must not be trained in place
        assert np.all(init.to_vector() == 0.0)
        assert not np.all(params.to_vector() == 0.0)
        for name in ("w_a", "b_a", "w_p", "b_p", "u", "v"):
            assert not np.shares_memory(getattr(params, name), getattr(init, name))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_init_model_is_left_byte_identical(self, kind):
        corpus = small_corpus(3, seed=1)
        init = ModelParams.random(corpus[0].d_a, corpus[0].d_p, hidden_a=6, hidden_p=8, seed=5)
        before = init.to_vector().tobytes()
        train(corpus, small_corpus(2, seed=2), _fast_config(loss=kind, init_model=init))
        assert init.to_vector().tobytes() == before

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_public_steps_reproduce_train(self, kind):
        """document_loss_and_grad and adagrad_step over the [seed, 1]
        shuffle give the parameters that ``train`` returns, bit for bit."""
        corpus = small_corpus(4, seed=1)
        config = _fast_config(loss=kind, epochs=2, temperature=0.5)
        assert config.lam > 0.0  # the default L1 weight
        init = ModelParams.random(corpus[0].d_a, corpus[0].d_p, config.hidden_a,
                                  config.hidden_p, seed=9)
        trained, _ = train(corpus, [], dataclasses.replace(config, init_model=init))
        params, accum = init.copy(), np.zeros(init.num_params)
        shuffle = np.random.default_rng([config.seed, 1])
        for _ in range(config.epochs):
            for idx in shuffle.permutation(len(corpus)):
                _, grad = document_loss_and_grad(corpus[idx], params, kind, costs=config.costs,
                                                 beta=config.beta,
                                                 temperature=config.temperature,
                                                 lam=config.lam)
                vec, accum = adagrad_step(params.to_vector(), grad.to_vector(), accum,
                                          config.learning_rate)
                params = params.from_vector(vec)
        assert params.to_vector().tobytes() == trained.to_vector().tobytes()

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_targets_are_built_once_per_document_and_call(self, kind, monkeypatch):
        calls, build = [], model._TARGETS[kind]
        monkeypatch.setitem(model._TARGETS, kind,
                            lambda doc, costs: calls.append(doc.id) or build(doc, costs))
        corpus, dev = small_corpus(3, seed=1), small_corpus(2, seed=2)
        for runs in (1, 2):
            train(corpus, dev, _fast_config(loss=kind, epochs=3))
            assert sorted(calls) == sorted([doc.id for doc in corpus] * runs)

    def test_diverging_update_raises_training_error(self):
        """A finite learning rate so large that the update overflows is a
        runtime failure naming the document, not bad input."""
        corpus = small_corpus(3, seed=1)
        config = _fast_config(learning_rate=1.7e308, hidden_a=4, hidden_p=4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingError, match="non-finite parameters after the update on document"):
            train(corpus, [], config)

    def test_fit_is_checked_once_per_document(self, monkeypatch):
        """``train`` checks every document's fit before the first step, so
        no training step checks it again."""
        from softcoref import model
        calls, check = [], model._check_fits
        counting = lambda doc, params: calls.append(doc.id) or check(doc, params)  # noqa: E731
        monkeypatch.setattr(model, "_check_fits", counting)
        monkeypatch.setattr(optim, "_check_fits", counting)
        corpus = small_corpus(3, seed=1)
        train(corpus, [], _fast_config(epochs=3))
        assert sorted(calls) == sorted(doc.id for doc in corpus)

    def test_history_csv_shape(self):
        corpus = small_corpus(3, seed=1)
        dev = small_corpus(2, seed=2)
        _, history = train(corpus, dev, _fast_config(epochs=2))
        lines = history.to_csv().strip().split("\n")
        assert lines[0] == TrainHistory.CSV_HEADER
        assert len(lines) == 3
        assert all(len(line.split(",")) == 9 for line in lines)
        assert lines[1].startswith("1,")

    def test_history_nan_without_dev(self):
        corpus = small_corpus(2, seed=1)
        _, history = train(corpus, [], _fast_config(epochs=1))
        row = history.to_csv().strip().split("\n")[1]
        assert row.split(",")[2:] == ["nan"] * 7

    @pytest.mark.parametrize("kind", ["mr-heuristic", "ec-heuristic"])
    def test_saturated_scores_raise_training_error(self, kind):
        corpus = small_corpus(3, seed=0, d_a=12, d_p=14)
        init = saturated_params(corpus[0].d_a, corpus[0].d_p)
        with pytest.raises(TrainingError, match=f"non-finite {kind} loss on document"):
            train(corpus, [], _fast_config(loss=kind, epochs=1, init_model=init))

    def test_saturated_lea_finishes_or_raises_training_error(self):
        """Relaxed P and R fall to ~1e-280 here; the F partials used to
        divide by (P + R)^2 and raise ZeroDivisionError."""
        corpus = small_corpus(6, seed=0, mentions_per_doc=(8, 16), entities_per_doc=(2, 4),
                              d_a=12, d_p=14, noise=0.1)
        config = _fast_config(loss="lea", epochs=1, temperature=1.0, learning_rate=0.05,
                              seed=0, init_model=saturated_params(12, 14))
        try:
            train(corpus, [], config)
        except TrainingError:
            pass


class TestGradCheck:
    def test_small_model_passes(self):
        doc = make_document("d", [1, 1, 3, 3, 3], seed=1)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=1)
        for kind in ("mr-heuristic", "ec-heuristic", "b3", "lea"):
            assert grad_check(doc, params, kind) < 1e-6

    def test_subset_of_large_model(self):
        doc = make_document("d", [1, 1, 3], seed=2)
        params = ModelParams.random(4, 5, hidden_a=10, hidden_p=20, seed=2)
        assert params.num_params > 50
        worst = grad_check(doc, params, "mr-heuristic", max_coords=50)
        assert worst < 1e-6

    def test_rejects_step_size_out_of_range(self):
        doc = make_document("d", [1, 1], seed=1)
        params = ModelParams.random(4, 5, hidden_a=2, hidden_p=2, seed=1)
        with pytest.raises(ConfigError):
            grad_check(doc, params, "mr-heuristic", h=1e-8)
        with pytest.raises(ConfigError):
            grad_check(doc, params, "mr-heuristic", h=1e-2)

    def test_rejects_checking_no_coordinate(self):
        doc = make_document("d", [1, 1], seed=1)
        params = ModelParams.random(4, 5, hidden_a=2, hidden_p=2, seed=1)
        for max_coords in (0, -1, 2.5):
            with pytest.raises(ConfigError, match="max_coords"):
                grad_check(doc, params, "mr-heuristic", max_coords=max_coords)

    def test_rejects_negative_seed(self):
        """Sampling coordinates with a negative seed used to escape as
        numpy's ValueError."""
        doc = make_document("d", [1, 1, 3], seed=2)
        params = ModelParams.random(4, 5, hidden_a=10, hidden_p=20, seed=2)
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            grad_check(doc, params, "mr-heuristic", seed=-1, max_coords=50)

    def test_low_temperature_still_reasonable(self):
        doc = make_document("d", [1, 2, 1, 2], seed=3)
        params = ModelParams.random(4, 5, hidden_a=3, hidden_p=4, seed=3)
        assert grad_check(doc, params, "lea", temperature=0.1) < 1e-4


class TestBetaSweep:
    def test_grid_values(self):
        assert len(BETA_GRID) == 8
        assert abs(BETA_GRID[0] ** 2 - 0.8) < 1e-12
        assert BETA_GRID[1] == 1.0
        assert BETA_GRID[-1] == 2.0

    def test_one_report_per_beta(self):
        corpus = small_corpus(3, seed=1)
        dev = small_corpus(2, seed=2)
        config = _fast_config(loss="b3", epochs=1)
        results = beta_sweep(corpus, dev, config, betas=(0.5, 2.0))
        assert [b for b, _ in results] == [0.5, 2.0]
        assert all(0.0 <= rep.conll <= 1.0 for _, rep in results)

    def test_reports_history_best_without_evaluating_again(self, monkeypatch):
        """One dev evaluation per epoch and beta, and each report equals an
        independent evaluation of that run's returned parameters."""
        corpus, dev = small_corpus(3, seed=1), small_corpus(2, seed=2)
        config = _fast_config(loss="b3", epochs=3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate_corpus(*args, **kwargs)

        monkeypatch.setattr(optim, "evaluate_corpus", counted)
        results = beta_sweep(corpus, dev, config, betas=(0.5, 2.0))
        assert len(calls) == 2 * config.epochs
        monkeypatch.undo()
        for beta, report in results:
            params, _ = train(corpus, dev, dataclasses.replace(config, beta=beta))
            assert report == evaluate_corpus(dev, params)

    def test_needs_dev(self):
        corpus = small_corpus(2, seed=1)
        with pytest.raises(ConfigError):
            beta_sweep(corpus, [], _fast_config(), betas=(1.0,))
