"""Neural mention-ranking scorer and the training objectives.

The scorer embeds each mention and each mention pair with one tanh
layer, then scores antecedent candidates:

    s(a_i = j) = u . [h_a(m_i); h_p(m_i, m_j)] + u_0      for j < i
    s(a_i = i) = v . h_a(m_i) + v_0                        (new entity)

with h_a = tanh(W_a phi_a + b_a) and h_p = tanh(W_p phi_p + b_p).  A row
softmax over j <= i turns scores into antecedent link probabilities.

The training objectives differ only in how the score matrix becomes a
loss.  One registry maps each of LOSS_KINDS to a function returning the
loss and a ``backward()`` that gives its gradient on the scores:

  * ``mr-heuristic`` (mention-ranking softmax-margin): cost-augmented
    cross entropy over the correct-antecedent set C(m_i), costs added
    to scores inside the normalizer;
  * ``ec-heuristic`` (entity-centric softmax-margin): cross entropy on
    the recursive mention-to-entity membership probabilities, with the
    analogous cost taxonomy over entity anchors;
  * ``b3`` / ``lea`` (relaxed metric): -F_beta of the differentiable
    B-cubed or LEA surrogate at a temperature.

``document_loss`` (forward only, for the gradient checker) and
``document_loss_and_grad`` (training) share one path: check the
settings, score the document, look the loss up, add lam * L1; the
latter then runs ``backward()`` and the scorer's reverse pass.  All
gradients are closed-form reverse passes (tanh, softmax, the membership
recursion, and the metric expressions); no autodiff.

ModelParams' fields are views into one flat vector, so the reverse pass
writes each gradient block in place and an AdaGrad step is one vector
operation.  The pair layer's reverse pass is fused: with d_pair the
score gradient of each pair and u_p the pair half of u,

    dW_p = u_p[:, None] * ((1 - h_p^2)^T @ (d_pair[:, None] * phi_p))
    db_p = u_p * ((1 - h_p^2)^T @ d_pair)

so one GEMM against [d_pair * phi_p, d_pair] gives both.

The pair layer walks the (n_pairs, d_p) pair matrix in row blocks of
_PAIR_BLOCK pairs, so that each block's working set stays in cache.  Per
block, the forward pass computes that block's rows of h_p (GEMM, bias,
tanh in place) and their h_p @ u_p, and the reverse pass adds the block's
h_p^T d_pair and fused product into the gradient, through block-sized
scratch arrays for 1 - h_p^2 and the scaled features.  Training keeps the
whole h_p (n_pairs x hidden_p) for the reverse pass; ``score_pairs``,
which serves prediction and evaluation, keeps no pair hidden layer: one
block-sized buffer serves every block, so its memory does not grow with
n_pairs x hidden_p.  A document of at most _PAIR_BLOCK pairs is one block
and makes the numpy calls of an unblocked layer.  Pair scores go into the
score matrix, and d_pair comes out of its gradient, through the
document's strict-lower-triangular mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .corpus import Document
from .errors import ConfigError, FormatError, InputError, TrainingError
from .membership import (LinkDistribution, masked_softmax, membership_array,
                         membership_backward, temper_array, temper_backward)
from .relaxed import b3_soft_grad, gold_index_arrays, lea_soft_grad

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
            if len(triple) != 3 or not all(0 <= c < math.inf for c in triple):
                raise ConfigError(f"{name} must be three finite nonnegative costs, got {triple}")


_FIELDS = ("w_a", "b_a", "w_p", "b_p", "u", "u_0", "v", "v_0")


def _layout(hidden_a: int, d_a: int, hidden_p: int, d_p: int) -> list[tuple[int, ...]]:
    """Shapes of the fields of ModelParams, in flat-vector order."""
    return [(hidden_a, d_a), (hidden_a,), (hidden_p, d_p), (hidden_p,),
            (hidden_a + hidden_p,), (), (hidden_a,), ()]


def _field(k: int, scalar: bool = False) -> property:
    """Field k of the layout; assigning to it writes into the flat vector."""
    def get(self):
        return float(self._views[k]) if scalar else self._views[k]

    def put(self, value):
        self._views[k][...] = value

    return property(get, put)


class ModelParams:
    """All learnable tensors of the scorer, held as named views into one
    contiguous float64 vector in the order w_a (hidden_a, d_a), b_a,
    w_p (hidden_p, d_p), b_p, u (hidden_a + hidden_p), u_0, v (hidden_a),
    v_0, matrices row-major.  u_0 and v_0 read as floats."""

    w_a, b_a, w_p, b_p, u = (_field(k) for k in range(5))
    u_0, v, v_0 = _field(5, scalar=True), _field(6), _field(7, scalar=True)

    def __init__(self, w_a, b_a, w_p, b_p, u, u_0, v, v_0):
        fields = [np.asarray(x, dtype=float) for x in (w_a, b_a, w_p, b_p, u, u_0, v, v_0)]
        if fields[0].ndim != 2 or fields[2].ndim != 2:
            raise InputError("weight matrices must be 2-dimensional")
        shapes = _layout(*fields[0].shape, *fields[2].shape)
        for name, field, shape in zip(_FIELDS, fields, shapes):
            if field.shape != shape:
                raise InputError(f"{name} has shape {field.shape}, expected {shape}")
        vec = np.concatenate([field.ravel() for field in fields])
        if not np.isfinite(vec).all():
            raise InputError("model parameters contain non-finite values")
        self._bind(vec, shapes)

    def _bind(self, vec: np.ndarray, shapes) -> None:
        self._vec, self._shapes = vec, shapes
        self._views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            self._views.append(vec[start:start + size].reshape(shape))
            start += size

    @classmethod
    def _wrap(cls, vec: np.ndarray, shapes) -> "ModelParams":
        """Params whose fields view ``vec``, taken as it is: not copied,
        not checked."""
        params = cls.__new__(cls)
        params._bind(vec, shapes)
        return params

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
        return self._vec.size

    @classmethod
    def random(cls, d_a: int, d_p: int, hidden_a: int = 200, hidden_p: int = 700,
               scale: float = 0.1, seed=0) -> "ModelParams":
        """Every parameter drawn from N(0, scale^2), in flat-vector order."""
        if min(d_a, d_p, hidden_a, hidden_p) < 0 or not 0 <= scale < math.inf:
            raise ConfigError(f"random init needs nonnegative sizes and a finite scale >= 0, "
                              f"got sizes {(d_a, d_p, hidden_a, hidden_p)}, scale {scale}")
        shapes = _layout(hidden_a, d_a, hidden_p, d_p)
        size = sum(math.prod(shape) for shape in shapes)
        return cls._wrap(np.random.default_rng(seed).normal(0.0, scale, size), shapes)

    @classmethod
    def zeros(cls, d_a: int, d_p: int, hidden_a: int = 200, hidden_p: int = 700) -> "ModelParams":
        shapes = _layout(hidden_a, d_a, hidden_p, d_p)
        return cls._wrap(np.zeros(sum(math.prod(s) for s in shapes)), shapes)

    def zeros_like(self) -> "ModelParams":
        return ModelParams._wrap(np.zeros_like(self._vec), self._shapes)

    def copy(self) -> "ModelParams":
        return ModelParams._wrap(self._vec.copy(), self._shapes)

    def to_vector(self) -> np.ndarray:
        """A copy of the flat vector."""
        return self._vec.copy()

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """Params with this instance's shapes over a copy of a flat vector."""
        vec = np.array(vec, dtype=float)
        if vec.shape != self._vec.shape:
            raise InputError(f"flat vector has length {vec.size}, expected {self._vec.size}")
        if not np.isfinite(vec).all():
            raise InputError("model parameters contain non-finite values")
        return ModelParams._wrap(vec, self._shapes)

    def save(self, path) -> None:
        record = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                  "d_a": self.d_a, "d_p": self.d_p,
                  "hidden_a": self.hidden_a, "hidden_p": self.hidden_p}
        for name, view in zip(_FIELDS, self._views):  # matrices flattened row-major
            record[name] = view.ravel().tolist() if view.ndim else float(view)
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
        found = record.get("format") if isinstance(record, dict) else None
        if found != MODEL_FORMAT:
            raise FormatError(f"not a model file (format={found!r})", path=path)
        if record.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {record.get('version')!r}", path=path)
        try:
            dims = [record[key] for key in ("hidden_a", "d_a", "hidden_p", "d_p")]
            if not all(type(d) is int and d >= 0 for d in dims):  # 2.9, "3", true, -1
                raise InputError(f"dimensions {dims} are not nonnegative integers")
            shapes = _layout(*dims)
            return cls(*(_json_numbers(name, record[name], shape)
                         for name, shape in zip(_FIELDS, shapes)))
        except (KeyError, ValueError, OverflowError, InputError) as exc:
            raise FormatError(f"bad model record: {exc}", path=path) from exc


def _json_numbers(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A model file field as a float array of ``shape``: a JSON number for
    a scalar, a flat list of JSON numbers otherwise."""
    items = value if shape else [value]
    if type(items) is not list or not set(map(type, items)) <= {int, float}:
        raise InputError(f"{name} must hold JSON numbers")
    return np.array(items, dtype=float).reshape(shape)


def l1_norm(params: ModelParams) -> float:
    """Sum of absolute values over every learnable coordinate."""
    return float(np.abs(params._vec).sum())


# ---------------------------------------------------------------------------
# Forward scoring
# ---------------------------------------------------------------------------

# Rows of the pair matrix that the pair layer handles at a time.  A
# block's slice of h_p, 1 - h_p^2 and the scaled features stays in cache
# between the steps of the layer, where whole-document arrays would
# stream through memory several times.  1,024 measured best or tied among
# 256-4,096 at n 200-300, hidden_p 32 and 700 (README, "Performance
# notes").  Every document of up to 46 mentions (1,035 pairs) is one block.
_PAIR_BLOCK = 1024


@dataclass
class _ScoreCache:
    phi_a: np.ndarray
    phi_p: np.ndarray
    h_a: np.ndarray
    h_p: Optional[np.ndarray]  # None when the forward pass kept no pair layer
    scores: np.ndarray


def _forward_scores(doc: Document, params: ModelParams, keep_h_p: bool = True) -> _ScoreCache:
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
    h_a = _hidden(phi_a, params.w_a, params.b_a)
    phi_p = doc.pair_feature_matrix
    pair_scores, h_p = _pair_forward(phi_p, params, keep_h_p)
    pair_scores += (h_a @ params.u[:ha])[doc.tril_pairs[0]]
    pair_scores += params.u_0
    scores = np.zeros((n, n))
    scores[doc.tril_mask] = pair_scores
    np.fill_diagonal(scores, h_a @ params.v + params.v_0)
    return _ScoreCache(phi_a, phi_p, h_a, h_p, scores)


def _hidden(phi: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """tanh(phi @ w.T + b), computed in the GEMM's output buffer."""
    h = np.matmul(phi, w.T, out=out)
    h += b
    return np.tanh(h, out=h)


def _pair_forward(phi_p: np.ndarray, params: ModelParams,
                  keep_h_p: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The pair half h_p @ u_p of every pair's score, one block of rows at
    a time, and h_p itself when ``keep_h_p``; otherwise one block-sized
    buffer serves every block and no n_pairs x hidden_p array is made."""
    n_pairs = len(phi_p)
    u_p = params.u[params.hidden_a:]
    h_p = np.empty((n_pairs if keep_h_p else min(n_pairs, _PAIR_BLOCK), params.hidden_p))
    pair_scores = np.empty(n_pairs)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n_pairs)
        h = h_p[start:stop] if keep_h_p else h_p[:stop - start]
        _hidden(phi_p[start:stop], params.w_p, params.b_p, out=h)
        np.matmul(h, u_p, out=pair_scores[start:stop])
    return pair_scores, (h_p if keep_h_p else None)


def score_pairs(doc: Document, params: ModelParams) -> np.ndarray:
    """Lower-triangular score matrix s[i - 1, j - 1] = s(a_i = j)."""
    return _forward_scores(doc, params, keep_h_p=False).scores


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
    """Most probable antecedent per mention under the model, ties to the
    smallest index: ``decode_argmax(link_probabilities(scores))`` without
    the score check and the checked copy that a LinkDistribution makes."""
    probs = masked_softmax(score_pairs(doc, params), doc.candidate_mask)
    return tuple((np.argmax(probs, axis=1) + 1).tolist())


def _softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Score gradient given a gradient on row-softmax outputs."""
    rowdot = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - rowdot)


def _score_backward(params: ModelParams, cache: _ScoreCache,
                    d_scores: np.ndarray, pairs) -> ModelParams:
    """Parameter gradient given a gradient on the score matrix, written
    field by field into a zeroed flat vector.  ``pairs`` indexes the pair
    entries of an (n, n) matrix in ``tril_pairs`` order: a document's
    ``tril_mask`` or its ``tril_pairs``.  The pair side is fused and runs
    in row blocks (see the module docstring)."""
    ha = params.hidden_a
    d_pair = d_scores[pairs]
    d_self = np.diagonal(d_scores).copy()
    grad = params.zeros_like()

    # Every pair term of row i shares h_a[i], so its gradient is the row sum.
    d_row = np.tril(d_scores, k=-1).sum(axis=1)
    u_a, u_p = params.u[:ha], params.u[ha:]
    d_z_a = np.outer(d_self, params.v) + np.outer(d_row, u_a)
    d_z_a *= 1.0 - cache.h_a ** 2
    np.matmul(d_z_a.T, cache.phi_a, out=grad.w_a)
    d_z_a.sum(axis=0, out=grad.b_a)
    np.matmul(cache.h_a.T, d_row, out=grad.u[:ha])
    np.matmul(cache.h_a.T, d_self, out=grad.v)
    grad.u_0, grad.v_0 = d_pair.sum(), d_self.sum()

    # The first block writes the u_p gradient and the fused product; later
    # blocks add to them, reusing the first block's scratch arrays.
    d_p, n_pairs = params.d_p, d_pair.size
    rows = min(n_pairs, _PAIR_BLOCK)
    weighted = np.empty((rows, d_p + 1))
    sech2 = np.empty((rows, params.hidden_p))
    d_u_p = grad.u[ha:]
    for start in range(0, n_pairs, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n_pairs)
        h, d = cache.h_p[start:stop], d_pair[start:stop]
        wt, s2 = weighted[:stop - start], sech2[:stop - start]
        np.multiply(d[:, None], cache.phi_p[start:stop], out=wt[:, :d_p])
        wt[:, d_p] = d
        np.multiply(h, h, out=s2)
        np.subtract(1.0, s2, out=s2)
        if start:
            d_u_p += h.T @ d
            fused += s2.T @ wt
        else:
            np.matmul(h.T, d, out=d_u_p)
            fused = s2.T @ wt
    if n_pairs:
        np.multiply(u_p[:, None], fused[:, :d_p], out=grad.w_p)
        np.multiply(u_p, fused[:, d_p], out=grad.b_p)
    return grad


# ---------------------------------------------------------------------------
# Softmax-margin costs
# ---------------------------------------------------------------------------

def correct_set_mask(ids: np.ndarray) -> np.ndarray:
    """mask[i - 1, j - 1] = (j in C(m_i)) for gold entity ids e(m_i)."""
    mask = np.tril(ids[:, None] == ids[None, :], k=-1)
    mask[np.diag_indices_from(mask)] = ~mask.any(axis=1)
    return mask


def _cost_matrix(hit: np.ndarray, triple: tuple[float, float, float]) -> np.ndarray:
    """Softmax-margin costs of every link i -> j <= i of a document.

    ``hit[i, j]`` marks j as a correct target of i, and its diagonal marks
    the mentions that open their entity.  Below the diagonal: c1 (false
    anaphor) when i opens, 0 on a hit, c3 (wrong link) otherwise; on it:
    c2 (false new) unless i opens.
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
# Loss registry shared by training and the gradient checker
# ---------------------------------------------------------------------------
#
# Every entry maps (doc, scores, costs, beta, temperature) to
# (loss, backward); backward() returns d loss / d scores.

def _mention_ranking(doc: Document, scores: np.ndarray, costs: CostConfig,
                     beta: float, temperature: float):
    """Cost-augmented negative log-likelihood of the correct-antecedent sets."""
    mask = correct_set_mask(doc.gold_entity_array)
    augmented = scores + _cost_matrix(mask, costs.alphas)
    probs = masked_softmax(augmented, doc.candidate_mask)
    correct_mass = (probs * mask).sum(axis=1)

    def backward() -> np.ndarray:
        # d loss / d augmented-score = p' - p' restricted to C and renormalized
        return probs - np.where(mask, probs, 0.0) / correct_mass[:, None]

    return float(-np.log(correct_mass).sum()), backward


def _entity_centric(doc: Document, scores: np.ndarray, costs: CostConfig,
                    beta: float, temperature: float):
    """Cost-augmented negative log-probability that each mention joins its
    gold entity, through the membership recursion."""
    n = doc.n
    ids = doc.gold_entity_array
    probs = masked_softmax(scores, doc.candidate_mask)
    q = membership_array(probs)
    weights = np.tril(q * np.exp(gamma_matrix(doc, costs)))
    totals = weights.sum(axis=1)
    gold = (np.arange(n), ids - 1)
    loss = float(-(np.log(weights[gold]) - np.log(totals)).sum())

    def backward() -> np.ndarray:
        # d loss / d q[i, u] = exp(Gamma_iu)/total_i - 1[u = e_i]/q[i, e_i];
        # weights/q recovers exp(Gamma) on the support without recomputing it.
        d_q = np.where(q > 0.0, weights / np.where(q > 0.0, q, 1.0), 0.0) / totals[:, None]
        d_q[gold] -= 1.0 / q[gold]
        return _softmax_backward(probs, membership_backward(probs, q, d_q))

    return loss, backward


def _relaxed(soft_grad, doc: Document, scores: np.ndarray, costs: CostConfig,
             beta: float, temperature: float):
    """-F_beta of a relaxed metric (soft_grad is b3_soft_grad or
    lea_soft_grad) on the tempered memberships, against gold clusters."""
    probs = masked_softmax(scores, doc.candidate_mask)
    q = membership_array(probs)
    qt = temper_array(q, temperature)
    gold_of, sizes = gold_index_arrays(doc.gold_clusters, doc.n)
    _, _, f, d_qt = soft_grad(qt, gold_of, sizes, beta)

    def backward() -> np.ndarray:
        d_q = temper_backward(q, qt, temperature, -d_qt)
        return _softmax_backward(probs, membership_backward(probs, q, d_q))

    return -f, backward


_LOSSES = {
    "mr-heuristic": _mention_ranking,
    "ec-heuristic": _entity_centric,
    "b3": partial(_relaxed, b3_soft_grad),
    "lea": partial(_relaxed, lea_soft_grad),
}

LOSS_KINDS = tuple(_LOSSES)


def _check_loss_settings(kind: str, beta: float, temperature: float, lam: float) -> None:
    """Reject loss settings that no objective accepts."""
    if kind not in _LOSSES:
        raise ConfigError(f"unknown loss kind {kind!r} (expected one of {LOSS_KINDS})")
    if not 0 < beta < math.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta}")
    if not 0 < temperature < math.inf:
        raise ConfigError(f"temperature must be positive and finite, got {temperature}")
    if not 0 <= lam < math.inf:
        raise ConfigError(f"l1 weight must be nonnegative and finite, got {lam}")


def _loss_and_backward(doc: Document, params: ModelParams, kind: str,
                       costs: Optional[CostConfig], beta: float,
                       temperature: float, lam: float):
    _check_loss_settings(kind, beta, temperature, lam)
    costs = costs if costs is not None else CostConfig()
    cache = _forward_scores(doc, params)
    with np.errstate(divide="ignore"):  # log(0) is reported just below
        loss, backward = _LOSSES[kind](doc, cache.scores, costs, beta, temperature)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite {kind} loss on document {doc.id}")
    if lam:
        loss += lam * l1_norm(params)
    return cache, loss, backward


def document_loss(doc: Document, params: ModelParams, kind: str, *,
                  costs: Optional[CostConfig] = None, beta: float = 1.0,
                  temperature: float = 1.0, lam: float = 0.0) -> float:
    """Loss of one document under any of the LOSS_KINDS objectives, plus
    lam * L1; forward pass only.  A non-finite objective raises
    TrainingError naming the document."""
    _, loss, _ = _loss_and_backward(doc, params, kind, costs, beta, temperature, lam)
    return loss


def document_loss_and_grad(doc: Document, params: ModelParams, kind: str, *,
                           costs: Optional[CostConfig] = None, beta: float = 1.0,
                           temperature: float = 1.0,
                           lam: float = 0.0) -> tuple[float, ModelParams]:
    """document_loss and its gradient wrt every parameter; the L1 term
    contributes lam * sign(theta).  The TrainingError for a non-finite
    loss or score gradient comes before any parameter gradient is formed."""
    cache, loss, backward = _loss_and_backward(doc, params, kind, costs, beta,
                                               temperature, lam)
    d_scores = backward()
    if not np.isfinite(d_scores).all():
        raise TrainingError(f"non-finite {kind} gradient on document {doc.id}")
    grad = _score_backward(params, cache, d_scores, doc.tril_mask)
    if lam:
        grad._vec += lam * np.sign(params._vec)
    return loss, grad
