"""AdaGrad training with one-document mini-batches.

Each epoch visits the training documents in a seeded shuffled order,
computes the loss and analytic gradient of one document at a time, and
applies an AdaGrad update.  Dev metrics are recorded after every epoch
and the parameters of the best dev CoNLL-average epoch are returned.
Training is deterministic: identical corpus, config and seed give
bit-identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .analysis import MetricReport, evaluate_corpus
from .corpus import Document
from .errors import ConfigError, TrainingError, _check_integer, _check_range
from .model import (CostConfig, ModelParams, _check_fits, _check_loss_settings,
                    _corpus_dims, _loss_and_grad, _loss_targets, document_loss,
                    document_loss_and_grad)

ADAGRAD_EPS = 1e-8

# Recall-precision trade-off grid for the relaxed-metric losses.
BETA_GRID = (math.sqrt(0.8), 1.0, math.sqrt(1.2), math.sqrt(1.4),
             math.sqrt(1.6), math.sqrt(1.8), 1.5, 2.0)


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "mr-heuristic"
    beta: float = 1.0
    temperature: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 10
    lam: float = 1e-6
    seed: int = 0
    hidden_a: int = 200
    hidden_p: int = 700
    init_scale: float = 0.1
    init_model: Optional[ModelParams] = None
    costs: CostConfig = field(default_factory=CostConfig)

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("seed", 0), ("hidden_a", 1), ("hidden_p", 1)):
            _check_integer(name, getattr(self, name), minimum)
        _check_loss_settings(self.loss, self.beta, self.temperature, self.lam, self.costs)
        _check_range("learning rate", self.learning_rate)
        _check_range("init scale", self.init_scale, positive=False)
        if self.init_model is not None and not isinstance(self.init_model, ModelParams):
            raise ConfigError(f"init_model must be None or a ModelParams, got {self.init_model!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_loss: float
    dev: Optional[MetricReport]
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    CSV_HEADER = "epoch,loss,muc,b3,ceaf_m,ceaf_e,blanc,lea,conll"

    @property
    def best(self) -> EpochRecord:
        """The epoch whose parameters ``train`` returns: the first with the
        highest dev CoNLL, or the last when there is no dev set."""
        if self.records[-1].dev is None:
            return self.records[-1]
        return max(self.records, key=lambda rec: rec.dev.conll)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for rec in self.records:
            if rec.dev is None:
                metrics = ["nan"] * 7
            else:
                metrics = [f"{prf.f:.6f}" for _, prf in rec.dev.rows()] + [f"{rec.dev.conll:.6f}"]
            lines.append(f"{rec.epoch},{rec.mean_loss:.6f}," + ",".join(metrics))
        return "\n".join(lines) + "\n"


def adagrad_step(params: np.ndarray, grads: np.ndarray, accum: np.ndarray,
                 eta: float) -> tuple[np.ndarray, np.ndarray]:
    """One AdaGrad update on flat coordinate vectors.

    accum += g^2; theta -= eta * g / (sqrt(accum) + ADAGRAD_EPS).  Returns
    the new (params, accum) without mutating the inputs: the update that
    ``train`` makes in place, on copies.
    """
    if params.shape != grads.shape or params.shape != accum.shape:
        raise ConfigError("params, grads and accum must share a shape")
    params, accum = params.astype(float), accum.astype(float)
    _adagrad_update(params, grads.astype(float), accum, eta, np.empty_like(params))
    return params, accum


def _adagrad_update(params: np.ndarray, grads: np.ndarray, accum: np.ndarray,
                    eta: float, scratch: np.ndarray) -> None:
    """``adagrad_step`` in place on float64 vectors of one shape: updates
    ``params`` and ``accum``, and overwrites ``grads`` and ``scratch``."""
    if not np.isfinite(grads).all():
        raise TrainingError("non-finite gradient in adagrad step")
    np.multiply(grads, grads, out=scratch)
    accum += scratch
    np.sqrt(accum, out=scratch)
    scratch += ADAGRAD_EPS
    grads *= eta
    grads /= scratch
    params -= grads


def _initial_params(corpus: Sequence[Document], config: TrainConfig) -> ModelParams:
    if config.init_model is not None:
        return config.init_model.copy()
    return ModelParams.random(*_corpus_dims(corpus), config.hidden_a, config.hidden_p,
                              scale=config.init_scale, seed=[config.seed, 0])


def train(corpus: Sequence[Document], dev: Sequence[Document],
          config: TrainConfig) -> tuple[ModelParams, TrainHistory]:
    """Train on one-document mini-batches; return the parameters of the
    epoch ``history.best`` names.  With an empty dev set the dev columns
    of the history are NaN.

    Each training document's loss targets are built once per call, and
    every step updates one parameter vector and its AdaGrad accumulator
    in place; ``config.init_model`` is copied first and left as it is.
    """
    if not corpus:
        raise ConfigError("training corpus is empty")
    params = _initial_params(corpus, config)
    for doc in list(corpus) + list(dev):
        _check_fits(doc, params)
    targets = [_loss_targets(doc, config.loss, config.costs) for doc in corpus]
    accum, scratch = np.zeros(params.num_params), np.empty(params.num_params)
    shuffle_rng = np.random.default_rng([config.seed, 1])

    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        losses = []
        for idx in shuffle_rng.permutation(len(corpus)):
            doc = corpus[idx]
            loss, grad = _loss_and_grad(doc, params, config.loss, targets[idx], config.beta,
                                        config.temperature, config.lam)
            _adagrad_update(params._vec, grad._vec, accum, config.learning_rate, scratch)
            if not np.isfinite(params._vec).all():
                raise TrainingError(f"non-finite parameters after the update on document {doc.id}")
            losses.append(loss)
        history.records.append(EpochRecord(
            epoch=epoch, mean_loss=float(np.mean(losses)),
            dev=evaluate_corpus(dev, params) if dev else None,
            seconds=time.perf_counter() - start,
        ))
        if history.best is history.records[-1]:
            best_params = params.copy()
    return best_params, history


def grad_check(doc: Document, params: ModelParams, kind: str, h: float = 1e-5,
               seed: int = 0, *, costs: Optional[CostConfig] = None,
               beta: float = 1.0, temperature: float = 1.0,
               max_coords: int = 200) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Checks every coordinate when there are at most ``max_coords``,
    otherwise a seeded random subset of that size.  The L1 term is
    excluded (its subgradient is not a derivative at zeros); relative
    error is |g_a - g_fd| / max(1, |g_a|, |g_fd|).
    """
    _check_range("step size", h)
    if not (1e-6 <= h <= 1e-4):
        raise ConfigError(f"step size {h} outside the supported range [1e-6, 1e-4]")
    _check_integer("max_coords", max_coords, 1)  # no coordinate checked would read as a pass
    _check_integer("seed", seed, 0)
    _, grad = document_loss_and_grad(doc, params, kind, costs=costs, beta=beta,
                                     temperature=temperature, lam=0.0)
    gvec = grad.to_vector()
    vec = params.to_vector()

    def loss_at(v: np.ndarray) -> float:
        return document_loss(doc, params.from_vector(v), kind, costs=costs,
                             beta=beta, temperature=temperature, lam=0.0)

    if vec.size <= max_coords:
        coords = np.arange(vec.size)
    else:
        coords = np.random.default_rng(seed).choice(vec.size, size=max_coords, replace=False)
    worst = 0.0
    for c in coords:
        bumped = vec.copy()
        bumped[c] = vec[c] + h
        plus = loss_at(bumped)
        bumped[c] = vec[c] - h
        minus = loss_at(bumped)
        fd = (plus - minus) / (2.0 * h)
        rel = abs(gvec[c] - fd) / max(1.0, abs(gvec[c]), abs(fd))
        worst = max(worst, rel)
    return worst


def beta_sweep(corpus: Sequence[Document], dev: Sequence[Document],
               config: TrainConfig,
               betas: Sequence[float] = BETA_GRID) -> list[tuple[float, MetricReport]]:
    """Train one model per beta; report each run's ``history.best.dev``,
    the dev metrics of the epoch that ``train`` returns."""
    if not dev:
        raise ConfigError("beta sweep needs a dev set to report on")
    return [(float(beta), train(corpus, dev, replace(config, beta=beta))[1].best.dev)
            for beta in betas]
