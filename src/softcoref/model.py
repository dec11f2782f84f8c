"""Neural mention-ranking scorer and the training objectives.

The scorer embeds each mention and each mention pair with one tanh
layer, then scores antecedent candidates:

    s(a_i = j) = u . [h_a(m_i); h_p(m_i, m_j)] + u_0      for j < i
    s(a_i = i) = v . h_a(m_i) + v_0                        (new entity)

with h_a = tanh(W_a phi_a + b_a) and h_p = tanh(W_p phi_p + b_p).  A row
softmax over j <= i turns scores into antecedent link probabilities.

Three objectives share this forward pass:

  * mention-ranking softmax-margin: cost-augmented cross entropy over
    the correct-antecedent set C(m_i), costs added to scores inside the
    normalizer;
  * entity-centric softmax-margin: cross entropy on the recursive
    mention-to-entity membership probabilities, with the analogous
    cost taxonomy over entity anchors;
  * relaxed-metric: minimize -F_beta of the differentiable B-cubed or
    LEA surrogate at a temperature.

All gradients are closed-form reverse passes (tanh, softmax, the
membership recursion, and the metric expressions); no autodiff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import decode_argmax
from .corpus import Document
from .errors import ConfigError, FormatError, InputError
from .membership import (LinkDistribution, masked_softmax, membership_array,
                         membership_backward, temper_array, temper_backward)
from .relaxed import b3_soft_grad, gold_index_arrays, lea_soft_grad

LOSS_KINDS = ("mr-heuristic", "ec-heuristic", "b3", "lea")

MODEL_FORMAT = "softcoref-model"
MODEL_VERSION = 1

# Error costs: (false anaphor, false new, wrong link).
DEFAULT_ALPHAS = (0.1, 3.0, 1.0)


@dataclass(frozen=True)
class CostConfig:
    """Softmax-margin error costs for the two heuristic losses."""

    alphas: tuple[float, float, float] = DEFAULT_ALPHAS
    gammas: tuple[float, float, float] = DEFAULT_ALPHAS

    def __post_init__(self):
        for name, triple in (("alphas", self.alphas), ("gammas", self.gammas)):
            if len(triple) != 3 or any(c < 0 for c in triple):
                raise ConfigError(f"{name} must be three nonnegative costs, got {triple}")

    @classmethod
    def zero(cls) -> "CostConfig":
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass(eq=False)
class ModelParams:
    """All learnable tensors of the scorer."""

    w_a: np.ndarray   # (hidden_a, d_a)
    b_a: np.ndarray   # (hidden_a,)
    w_p: np.ndarray   # (hidden_p, d_p)
    b_p: np.ndarray   # (hidden_p,)
    u: np.ndarray     # (hidden_a + hidden_p,)
    u_0: float
    v: np.ndarray     # (hidden_a,)
    v_0: float

    def __post_init__(self):
        self.w_a = np.asarray(self.w_a, dtype=float)
        self.b_a = np.asarray(self.b_a, dtype=float)
        self.w_p = np.asarray(self.w_p, dtype=float)
        self.b_p = np.asarray(self.b_p, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.u_0 = float(self.u_0)
        self.v_0 = float(self.v_0)
        ha, hp = self.hidden_a, self.hidden_p
        if self.w_a.ndim != 2 or self.w_p.ndim != 2:
            raise InputError("weight matrices must be 2-dimensional")
        if self.b_a.shape != (ha,) or self.b_p.shape != (hp,):
            raise InputError("bias shapes inconsistent with weight matrices")
        if self.u.shape != (ha + hp,):
            raise InputError(f"u must have length hidden_a + hidden_p = {ha + hp}")
        if self.v.shape != (ha,):
            raise InputError(f"v must have length hidden_a = {ha}")
        for arr in (self.w_a, self.b_a, self.w_p, self.b_p, self.u, self.v):
            if not np.all(np.isfinite(arr)):
                raise InputError("model parameters contain non-finite values")
        if not (np.isfinite(self.u_0) and np.isfinite(self.v_0)):
            raise InputError("model parameters contain non-finite values")

    @property
    def d_a(self) -> int:
        return self.w_a.shape[1]

    @property
    def d_p(self) -> int:
        return self.w_p.shape[1]

    @property
    def hidden_a(self) -> int:
        return self.w_a.shape[0]

    @property
    def hidden_p(self) -> int:
        return self.w_p.shape[0]

    @property
    def num_params(self) -> int:
        return self.to_vector().size

    @classmethod
    def random(cls, d_a: int, d_p: int, hidden_a: int = 200, hidden_p: int = 700,
               scale: float = 0.1, seed=0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        return cls(
            w_a=rng.normal(0.0, scale, (hidden_a, d_a)),
            b_a=rng.normal(0.0, scale, hidden_a),
            w_p=rng.normal(0.0, scale, (hidden_p, d_p)),
            b_p=rng.normal(0.0, scale, hidden_p),
            u=rng.normal(0.0, scale, hidden_a + hidden_p),
            u_0=float(rng.normal(0.0, scale)),
            v=rng.normal(0.0, scale, hidden_a),
            v_0=float(rng.normal(0.0, scale)),
        )

    @classmethod
    def zeros(cls, d_a: int, d_p: int, hidden_a: int = 200, hidden_p: int = 700) -> "ModelParams":
        return cls(
            w_a=np.zeros((hidden_a, d_a)), b_a=np.zeros(hidden_a),
            w_p=np.zeros((hidden_p, d_p)), b_p=np.zeros(hidden_p),
            u=np.zeros(hidden_a + hidden_p), u_0=0.0,
            v=np.zeros(hidden_a), v_0=0.0,
        )

    def zeros_like(self) -> "ModelParams":
        return ModelParams.zeros(self.d_a, self.d_p, self.hidden_a, self.hidden_p)

    def copy(self) -> "ModelParams":
        return ModelParams(self.w_a.copy(), self.b_a.copy(), self.w_p.copy(),
                           self.b_p.copy(), self.u.copy(), self.u_0,
                           self.v.copy(), self.v_0)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.w_a.ravel(), self.b_a, self.w_p.ravel(), self.b_p,
            self.u, [self.u_0], self.v, [self.v_0],
        ])

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """Rebuild params with this instance's shapes from a flat vector."""
        vec = np.asarray(vec, dtype=float)
        sizes = [self.w_a.size, self.b_a.size, self.w_p.size, self.b_p.size,
                 self.u.size, 1, self.v.size, 1]
        if vec.shape != (sum(sizes),):
            raise InputError(f"flat vector has length {vec.size}, expected {sum(sizes)}")
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        return ModelParams(
            w_a=parts[0].reshape(self.w_a.shape), b_a=parts[1],
            w_p=parts[2].reshape(self.w_p.shape), b_p=parts[3],
            u=parts[4], u_0=float(parts[5][0]), v=parts[6], v_0=float(parts[7][0]),
        )

    def save(self, path) -> None:
        record = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "d_a": self.d_a, "d_p": self.d_p,
            "hidden_a": self.hidden_a, "hidden_p": self.hidden_p,
            "w_a": self.w_a.ravel().tolist(), "b_a": self.b_a.tolist(),
            "w_p": self.w_p.ravel().tolist(), "b_p": self.b_p.tolist(),
            "u": self.u.tolist(), "u_0": self.u_0,
            "v": self.v.tolist(), "v_0": self.v_0,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                record = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
        if record.get("format") != MODEL_FORMAT:
            raise FormatError(f"not a model file (format={record.get('format')!r})", path=path)
        if record.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {record.get('version')!r}", path=path)
        try:
            ha, hp = int(record["hidden_a"]), int(record["hidden_p"])
            da, dp = int(record["d_a"]), int(record["d_p"])
            return cls(
                w_a=np.array(record["w_a"], dtype=float).reshape(ha, da),
                b_a=np.array(record["b_a"], dtype=float),
                w_p=np.array(record["w_p"], dtype=float).reshape(hp, dp),
                b_p=np.array(record["b_p"], dtype=float),
                u=np.array(record["u"], dtype=float), u_0=float(record["u_0"]),
                v=np.array(record["v"], dtype=float), v_0=float(record["v_0"]),
            )
        except (KeyError, ValueError, InputError) as exc:
            raise FormatError(f"bad model record: {exc}", path=path) from exc


def l1_norm(params: ModelParams) -> float:
    """Sum of absolute values over every learnable coordinate."""
    return float(np.abs(params.to_vector()).sum())


def l1_subgradient(params: ModelParams) -> ModelParams:
    """sign(theta) coordinatewise, 0 at exact zeros."""
    return params.from_vector(np.sign(params.to_vector()))


# ---------------------------------------------------------------------------
# Forward scoring
# ---------------------------------------------------------------------------

@dataclass
class _ScoreCache:
    phi_a: np.ndarray
    phi_p: np.ndarray
    h_a: np.ndarray
    h_p: np.ndarray
    scores: np.ndarray


def _forward_scores(doc: Document, params: ModelParams) -> _ScoreCache:
    if doc.d_a != params.d_a:
        raise InputError(
            f"document {doc.id}: mention feature dim {doc.d_a} != model d_a {params.d_a}"
        )
    if doc.n > 1 and doc.d_p != params.d_p:
        raise InputError(
            f"document {doc.id}: pair feature dim {doc.d_p} != model d_p {params.d_p}"
        )
    n = doc.n
    ha = params.hidden_a
    phi_a = doc.mention_feature_matrix
    h_a = np.tanh(phi_a @ params.w_a.T + params.b_a)
    rows_i, cols_j = doc.tril_pairs
    if n > 1:
        phi_p = doc.pair_feature_matrix
        h_p = np.tanh(phi_p @ params.w_p.T + params.b_p)
    else:
        phi_p = np.zeros((0, params.d_p))
        h_p = np.zeros((0, params.hidden_p))
    scores = np.zeros((n, n))
    if n > 1:
        scores[rows_i, cols_j] = (h_a @ params.u[:ha])[rows_i] + h_p @ params.u[ha:] + params.u_0
    np.fill_diagonal(scores, h_a @ params.v + params.v_0)
    return _ScoreCache(phi_a, phi_p, h_a, h_p, scores)


def score_pairs(doc: Document, params: ModelParams) -> np.ndarray:
    """Lower-triangular score matrix s[i - 1, j - 1] = s(a_i = j)."""
    return _forward_scores(doc, params).scores


def link_probabilities(scores: np.ndarray) -> LinkDistribution:
    """Row softmax over the candidates j <= i of each mention."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise InputError("score matrix must be square")
    if not np.all(np.isfinite(np.tril(scores))):
        raise InputError("scores contain non-finite values")
    n = scores.shape[0]
    return LinkDistribution(masked_softmax(scores, np.tri(n, dtype=bool)))


def predict_antecedents(doc: Document, params: ModelParams) -> tuple[int, ...]:
    """Most probable antecedent per mention under the model."""
    return decode_argmax(link_probabilities(score_pairs(doc, params)))


def _softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Score gradient given a gradient on row-softmax outputs."""
    rowdot = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - rowdot)


def _score_backward(params: ModelParams, cache: _ScoreCache,
                    d_scores: np.ndarray, tril_pairs) -> ModelParams:
    """Parameter gradient given a gradient on the score matrix."""
    ha = params.hidden_a
    rows_i, cols_j = tril_pairs
    d_pair = d_scores[rows_i, cols_j]
    d_self = np.diagonal(d_scores).copy()

    # Every pair term of row i shares h_a[i], so its gradient is the row sum.
    d_row = np.tril(d_scores, k=-1).sum(axis=1)
    u_a, u_p = params.u[:ha], params.u[ha:]
    d_h_a = np.outer(d_self, params.v) + np.outer(d_row, u_a)
    d_u = np.concatenate([cache.h_a.T @ d_row, cache.h_p.T @ d_pair])
    d_v = cache.h_a.T @ d_self
    d_h_p = np.outer(d_pair, u_p)

    d_z_a = d_h_a * (1.0 - cache.h_a ** 2)
    d_z_p = d_h_p * (1.0 - cache.h_p ** 2)
    return ModelParams(
        w_a=d_z_a.T @ cache.phi_a, b_a=d_z_a.sum(axis=0),
        w_p=d_z_p.T @ cache.phi_p, b_p=d_z_p.sum(axis=0),
        u=d_u, u_0=float(d_pair.sum()), v=d_v, v_0=float(d_self.sum()),
    )


# ---------------------------------------------------------------------------
# Softmax-margin costs
# ---------------------------------------------------------------------------

def delta_cost(j: int, i: int, candidates: frozenset[int],
               costs: CostConfig = CostConfig()) -> float:
    """Cost of linking mention i to j given the correct set C(m_i).

    Cases, checked in order: false anaphor (linking a discourse-new
    mention), false new (self-linking an anaphoric one), wrong link.
    """
    a1, a2, a3 = costs.alphas
    if j != i and i in candidates:
        return a1
    if j == i and i not in candidates:
        return a2
    if j != i and j not in candidates:
        return a3
    return 0.0


def gamma_cost(u: int, i: int, gold_entity: int,
               costs: CostConfig = CostConfig()) -> float:
    """Entity-anchor analog of delta_cost with e(m_i) as the target."""
    g1, g2, g3 = costs.gammas
    if u != i and gold_entity == i:
        return g1
    if u == i and gold_entity != i:
        return g2
    if u != gold_entity and u != i and gold_entity != i:
        return g3
    return 0.0


def correct_set_mask(ids: np.ndarray) -> np.ndarray:
    """mask[i - 1, j - 1] = (j in C(m_i)) for gold entity ids e(m_i)."""
    mask = np.tril(ids[:, None] == ids[None, :], k=-1)
    mask[np.diag_indices_from(mask)] = ~mask.any(axis=1)
    return mask


def _cost_matrix(hit: np.ndarray, triple: tuple[float, float, float]) -> np.ndarray:
    """The three-case costs of delta_cost / gamma_cost over a whole document.

    ``hit[i, j]`` marks j as a correct target of i, and its diagonal marks
    the mentions that open their entity.  Below the diagonal: c1 when i
    opens, 0 on a hit, c3 otherwise; on it: c2 unless i opens.
    """
    c1, c2, c3 = triple
    opens = np.diagonal(hit)
    costs = np.tril(np.where(opens[:, None], c1, np.where(hit, 0.0, c3)), k=-1)
    costs[np.diag_indices_from(costs)] = np.where(opens, 0.0, c2)
    return costs


def delta_matrix(doc: Document, costs: CostConfig) -> np.ndarray:
    return _cost_matrix(correct_set_mask(doc.gold_entity_array), costs.alphas)


def gamma_matrix(doc: Document, costs: CostConfig) -> np.ndarray:
    ids = doc.gold_entity_array
    return _cost_matrix(ids[:, None] == np.arange(1, doc.n + 1), costs.gammas)


# ---------------------------------------------------------------------------
# Mention-ranking softmax-margin loss
# ---------------------------------------------------------------------------

def _mr_forward(doc: Document, params: ModelParams, costs: CostConfig):
    cache = _forward_scores(doc, params)
    mask = correct_set_mask(doc.gold_entity_array)
    augmented = cache.scores + _cost_matrix(mask, costs.alphas)
    probs = link_probabilities(augmented).probs
    correct_mass = (probs * mask).sum(axis=1)
    loss = float(-np.log(correct_mass).sum())
    return cache, probs, mask, correct_mass, loss


def mention_ranking_loss(doc: Document, params: ModelParams,
                         costs: CostConfig = CostConfig(), lam: float = 0.0) -> float:
    """Cost-augmented negative log-likelihood of the correct-antecedent
    sets, plus lam * L1."""
    *_, loss = _mr_forward(doc, params, costs)
    return loss + lam * l1_norm(params)


def mention_ranking_loss_and_grad(doc: Document, params: ModelParams,
                                  costs: CostConfig = CostConfig(),
                                  lam: float = 0.0) -> tuple[float, ModelParams]:
    cache, probs, mask, correct_mass, loss = _mr_forward(doc, params, costs)
    # d loss / d augmented-score = p' - p' restricted to C and renormalized
    d_scores = probs - np.where(mask, probs, 0.0) / correct_mass[:, None]
    grad = _score_backward(params, cache, d_scores, doc.tril_pairs)
    return _finish_loss_and_grad(loss, grad, params, lam)


# ---------------------------------------------------------------------------
# Entity-centric softmax-margin loss
# ---------------------------------------------------------------------------

def _ec_forward(doc: Document, params: ModelParams, costs: CostConfig):
    cache = _forward_scores(doc, params)
    probs = link_probabilities(cache.scores).probs
    q = membership_array(probs)
    n = doc.n
    ids = doc.gold_entity_array
    if np.any(ids > np.arange(1, n + 1)):
        raise InputError(f"document {doc.id}: gold entity anchored after its mention")
    weights = q * np.exp(gamma_matrix(doc, costs))
    weights = np.tril(weights)
    totals = weights.sum(axis=1)
    gold_w = weights[np.arange(n), ids - 1]
    loss = float(-(np.log(gold_w) - np.log(totals)).sum())
    return cache, probs, q, weights, totals, gold_w, loss


def entity_centric_loss(doc: Document, params: ModelParams,
                        costs: CostConfig = CostConfig(), lam: float = 0.0) -> float:
    """Cost-augmented negative log-probability that each mention joins
    its gold entity, through the membership recursion, plus lam * L1."""
    *_, loss = _ec_forward(doc, params, costs)
    return loss + lam * l1_norm(params)


def entity_centric_loss_and_grad(doc: Document, params: ModelParams,
                                 costs: CostConfig = CostConfig(),
                                 lam: float = 0.0) -> tuple[float, ModelParams]:
    cache, probs, q, weights, totals, gold_w, loss = _ec_forward(doc, params, costs)
    n = doc.n
    ids = doc.gold_entity_array
    # d loss / d q[i, u] = exp(Gamma_iu)/total_i - 1[u = e_i]/q[i, e_i];
    # weights/q recovers exp(Gamma) on the support without recomputing it.
    d_q = np.where(q > 0.0, weights / np.where(q > 0.0, q, 1.0), 0.0) / totals[:, None]
    d_q[np.arange(n), ids - 1] -= 1.0 / q[np.arange(n), ids - 1]
    d_probs = membership_backward(probs, q, d_q)
    d_scores = _softmax_backward(probs, d_probs)
    grad = _score_backward(params, cache, d_scores, doc.tril_pairs)
    return _finish_loss_and_grad(loss, grad, params, lam)


# ---------------------------------------------------------------------------
# Relaxed-metric loss
# ---------------------------------------------------------------------------

_SOFT_GRADS = {"b3": b3_soft_grad, "lea": lea_soft_grad}


def _relaxed_forward(doc: Document, params: ModelParams, metric: str,
                     beta: float, temperature: float):
    if metric not in _SOFT_GRADS:
        raise ConfigError(f"unknown relaxed metric {metric!r} (expected b3 or lea)")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    cache = _forward_scores(doc, params)
    probs = link_probabilities(cache.scores).probs
    q = membership_array(probs)
    qt = q if temperature == 1.0 else temper_array(q, temperature)
    gold_of, sizes = gold_index_arrays(doc.gold_clusters, doc.n)
    return cache, probs, q, qt, gold_of, sizes


def relaxed_metric_loss(doc: Document, params: ModelParams, metric: str = "b3",
                        beta: float = 1.0, temperature: float = 1.0,
                        lam: float = 0.0) -> float:
    """-F_beta of the relaxed metric against gold clusters, plus lam * L1."""
    _, _, _, qt, gold_of, sizes = _relaxed_forward(doc, params, metric, beta, temperature)
    _, _, f, _ = _SOFT_GRADS[metric](qt, gold_of, sizes, beta)
    return -f + lam * l1_norm(params)


def relaxed_metric_loss_and_grad(doc: Document, params: ModelParams, metric: str = "b3",
                                 beta: float = 1.0, temperature: float = 1.0,
                                 lam: float = 0.0) -> tuple[float, ModelParams]:
    cache, probs, q, qt, gold_of, sizes = _relaxed_forward(doc, params, metric, beta, temperature)
    _, _, f, d_qt = _SOFT_GRADS[metric](qt, gold_of, sizes, beta)
    d_qt = -d_qt
    d_q = d_qt if temperature == 1.0 else temper_backward(q, qt, temperature, d_qt)
    d_probs = membership_backward(probs, q, d_q)
    d_scores = _softmax_backward(probs, d_probs)
    grad = _score_backward(params, cache, d_scores, doc.tril_pairs)
    return _finish_loss_and_grad(-f, grad, params, lam)


# ---------------------------------------------------------------------------
# Dispatcher shared by training and the gradient checker
# ---------------------------------------------------------------------------

def _finish_loss_and_grad(loss: float, grad: ModelParams, params: ModelParams,
                          lam: float) -> tuple[float, ModelParams]:
    if lam < 0:
        raise ConfigError(f"l1 weight must be nonnegative, got {lam}")
    if lam == 0.0:
        return loss, grad
    total = grad.to_vector() + lam * np.sign(params.to_vector())
    return loss + lam * l1_norm(params), params.from_vector(total)


def document_loss(doc: Document, params: ModelParams, kind: str, *,
                  costs: Optional[CostConfig] = None, beta: float = 1.0,
                  temperature: float = 1.0, lam: float = 0.0) -> float:
    """Loss of one document under any of the four training objectives."""
    costs = costs if costs is not None else CostConfig()
    if kind == "mr-heuristic":
        return mention_ranking_loss(doc, params, costs, lam)
    if kind == "ec-heuristic":
        return entity_centric_loss(doc, params, costs, lam)
    if kind in _SOFT_GRADS:
        return relaxed_metric_loss(doc, params, kind, beta, temperature, lam)
    raise ConfigError(f"unknown loss kind {kind!r} (expected one of {LOSS_KINDS})")


def document_loss_and_grad(doc: Document, params: ModelParams, kind: str, *,
                           costs: Optional[CostConfig] = None, beta: float = 1.0,
                           temperature: float = 1.0,
                           lam: float = 0.0) -> tuple[float, ModelParams]:
    costs = costs if costs is not None else CostConfig()
    if kind == "mr-heuristic":
        return mention_ranking_loss_and_grad(doc, params, costs, lam)
    if kind == "ec-heuristic":
        return entity_centric_loss_and_grad(doc, params, costs, lam)
    if kind in _SOFT_GRADS:
        return relaxed_metric_loss_and_grad(doc, params, kind, beta, temperature, lam)
    raise ConfigError(f"unknown loss kind {kind!r} (expected one of {LOSS_KINDS})")
