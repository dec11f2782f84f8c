"""Neural mention-ranking scorer and the training objectives.

The scorer embeds each mention and each mention pair with one tanh
layer, then scores antecedent candidates:

    s(a_i = j) = u . [h_a(m_i); h_p(m_i, m_j)] + u_0      for j < i
    s(a_i = i) = v . h_a(m_i) + v_0                        (new entity)

with h_a = tanh(W_a phi_a + b_a) and h_p = tanh(W_p phi_p + b_p).  A row
softmax over j <= i turns scores into antecedent link probabilities.

The training objectives differ only in how the score matrix becomes a
loss.  One registry serves training and the gradient checker.  It gives
each of LOSS_KINDS two functions: one builds the document's targets
from its gold side and the costs (a correct-set mask and Delta, gold
anchors and exp(Gamma), or gold cluster indices and sizes), and one
returns the loss on the scores and a ``backward()`` that gives its
gradient on them:

  * ``mr-heuristic`` (mention-ranking softmax-margin): cost-augmented
    cross entropy over the correct-antecedent set C(m_i), costs added
    to scores inside the normalizer;
  * ``ec-heuristic`` (entity-centric softmax-margin): cross entropy on
    the recursive mention-to-entity membership probabilities, with the
    analogous cost taxonomy over entity anchors;
  * ``b3`` / ``lea`` (relaxed metric): -F_beta of the differentiable
    B-cubed or LEA surrogate at a temperature.

``document_loss`` (forward only, for the gradient checker) and
``document_loss_and_grad`` check the settings and the document's fit and
build its targets, then share one path: score the document, look the
loss up, add lam * L1, and raise TrainingError on non-finite scores or
sum; the latter then runs ``backward()`` and the scorer's reverse pass.
Training takes that path without the checks (``_loss_and_grad``): its
TrainConfig checked the settings, and ``train`` checks each document's
fit and builds its targets once per call, not once per step (README,
"Performance notes", has the step's timings).  All gradients are
closed-form reverse passes (tanh, softmax, the membership recursion, and
the metric expressions); no autodiff.

ModelParams' fields are views into one flat vector, so the reverse pass
writes each gradient block in place, the L1 term adds lam * sign(theta)
through one temporary, and ``train`` updates the parameter vector in
place.  The pair layer's reverse pass is fused: with d_pair the
score gradient of each pair and u_p the pair half of u,

    dW_p = u_p[:, None] * ((1 - h_p^2)^T @ (d_pair[:, None] * phi_p))
    db_p = u_p * ((1 - h_p^2)^T @ d_pair)

so one GEMM against [d_pair * phi_p, d_pair] gives both.

Every forward pass over a document's pair rows, in either precision, is
one function, ``_pair_forward``.  It and the reverse pass walk the rows
in blocks of ``_block_rows(d_p, hidden_p)`` rows: at most _BLOCK_MACS =
10^6 multiply-adds of (d_p + 1) x hidden_p each (~95 rows at hidden_p
700, ~2,080 at 32), so that every block's GEMM stays on OpenBLAS's
small-matrix path and its working set in cache.  Per block, the forward
pass casts the block's pair features into one buffer whose last column
is ones and multiplies it by w_b = [w_p | b_p]^T (``_pair_weights``, a
C-contiguous (d_p + 1, hidden_p) array in the dtype of the pass), so
that one GEMM, which reads both operands as they lie, adds the bias
too; tanh in place and @ u_p finish the block's rows of h_p and their
pair halves.  The reverse pass adds the block's h_p^T d_pair into the
gradient, overwrites that block of h_p with 1 - h_p^2, and adds the
fused product (d_p + 1, hidden_p), through one block-sized scratch array
for the scaled features.  Training keeps the whole h_p (n_pairs x
hidden_p) for the reverse pass, which consumes it; ``score_pairs`` and
prediction keep no pair hidden layer: one block-sized buffer serves
every block, so their memory does not grow with n_pairs x hidden_p.
Pair scores go into the score matrix, and d_pair comes out of its
gradient, through the document's strict-lower-triangular mask.

Prediction needs only the order of each row's scores, so it screens
them with ``_pair_forward`` in float32, in one pass over a corpus
(``_predict_corpus``; ``predict_antecedents`` is that pass on one
document).  What prediction derives from the parameters alone (the
scalars of E below, w_b in float32 and in float64, and u_p in float32)
is built once per parameter state: ModelParams keeps it, with a copy of
the flat vector, and rebuilds it when a read finds the vector's bits
changed, whether by training's update, a setter or a write through a
view.  Each pass reads it once.  The mention side and the sums stay
float64.  A bound E on the float32 error of a pair score, affine in a
document's largest |pair feature| (``predict_antecedents`` derives it),
marks the near rows: those whose top-two gap float32 could have decided
wrongly.  Every row of a document that the screen does not take is
near.  A document's near rows are re-scored together in float64,
through ``_pair_forward`` and ``_score_matrix`` as in ``score_pairs``,
so every prediction is a float64 argmax.  On the benchmark's trained
models E is ~3e-3 (n 8-16, hidden 200/700) and ~7e-5 (n 100-200, hidden
24/32), and about one document in 46-141 has a near row.
``score_pairs``, training and the gradient checker run in float64 only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .corpus import Document, _as_int, _json_numbers, _utf8_text
from .errors import (ConfigError, FormatError, InputError, TrainingError, _check_integer,
                     _check_length, _check_range)
from .membership import (LinkDistribution, _membership_and_reach, _reach_backward,
                         masked_softmax, temper_array, temper_backward)
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
            _check_length(name, triple, 3)
            for cost in triple:
                _check_range(name, cost, positive=False)


_FIELDS = ("w_a", "b_a", "w_p", "b_p", "u", "u_0", "v", "v_0")


def _layout(hidden_a: int, d_a: int, hidden_p: int, d_p: int) -> list[tuple[int, ...]]:
    """Shapes of the fields of ModelParams, in flat-vector order; a size
    that is not an integer >= 0 raises ConfigError."""
    for name, size in zip(("hidden_a", "d_a", "hidden_p", "d_p"), (hidden_a, d_a, hidden_p, d_p)):
        _check_integer(name, size, 0)
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
        self._vec, self._shapes, self._memo = vec, shapes, None
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
        """Every parameter drawn from N(0, scale^2), in flat-vector order.
        ``seed`` is a nonnegative integer or a nonempty sequence of them."""
        shapes = _layout(hidden_a, d_a, hidden_p, d_p)
        _check_range("scale", scale, positive=False)
        seeds = np.ravel(np.asarray(seed, dtype=object))
        for entry in seeds if seeds.size else [seed]:  # an empty sequence is no integer
            _check_integer("seed", entry, 0)
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

    def _screen_memo(self) -> tuple:
        """(bits, terms, weights, w_b): what the float32 prediction screen
        derives from the parameters alone (``_screen_constants``) and a
        read-only float64 ``_pair_weights`` for the float64 re-scoring of
        near rows, kept while the flat vector holds the same bits.
        Training, a field setter or a write through any view changes the
        vector in place, so each call compares it with a kept copy, through
        int64 so that a 0.0 -> -0.0 flip or a NaN counts, and rebuilds on a
        difference."""
        bits = self._vec.view(np.int64)
        if self._memo is None or not (self._memo[0] == bits).all():
            kept, w_b = bits.copy(), _pair_weights(self)
            kept.flags.writeable = w_b.flags.writeable = False
            self._memo = (kept, *_screen_constants(self), w_b)
        return self._memo

    def save(self, path) -> None:
        if not np.isfinite(self._vec).all():  # json would write a bare NaN token
            raise InputError("model parameters contain non-finite values")
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
        with _utf8_text(path) as fh:
            try:
                record = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
        found = record.get("format") if isinstance(record, dict) else None
        if found != MODEL_FORMAT:
            raise FormatError(f"not a model file (format={found!r})", path=path)
        try:  # the version goes through the integer rule of input values, the sizes _layout's
            if _as_int(record["version"], "model version") != MODEL_VERSION:
                raise FormatError(f"unsupported model version {record['version']!r}", path=path)
            shapes = _layout(*(record[key] for key in ("hidden_a", "d_a", "hidden_p", "d_p")))
            return cls(*(np.array(_json_numbers(name, record[name] if shape else [record[name]]),
                                  dtype=float).reshape(shape)
                         for name, shape in zip(_FIELDS, shapes)))
        except (KeyError, ValueError, OverflowError, ConfigError, InputError) as exc:
            raise FormatError(f"bad model record: {exc}", path=path) from exc


def _corpus_dims(docs: Sequence[Document]) -> tuple[int, int]:
    """(d_a, d_p) of a model for ``docs``: d_p is 1 when no document has
    pairs."""
    return docs[0].d_a, max(doc.d_p for doc in docs) or 1


def _check_fits(doc: Document, params: ModelParams) -> None:
    """InputError unless ``doc``'s feature dims are the model's; a
    document of one mention has no pairs, so any d_p fits."""
    if doc.d_a != params.d_a or (doc.n > 1 and doc.d_p != params.d_p):
        raise InputError(f"document {doc.id}: feature dims (d_a {doc.d_a}, d_p {doc.d_p}) "
                         f"!= model (d_a {params.d_a}, d_p {params.d_p})")


def l1_norm(params: ModelParams) -> float:
    """Sum of absolute values over every learnable coordinate."""
    return float(np.abs(params._vec).sum())


# ---------------------------------------------------------------------------
# Forward scoring
# ---------------------------------------------------------------------------

# Multiply-adds per block of the pair layer's GEMM in either precision,
# rows x (d_p + 1) x hidden_p (the GEMM adds the bias as one more column).
# OpenBLAS computes a GEMM of at most 10^6 of them on its small-matrix
# path, which packs no operand: at d_p 14 a float32 row cost 1.2x
# (hidden_p 700) to 1.7x (hidden_p 32) as much just above that size as
# just below it.  The largest block below it, ~95 rows at
# hidden_p 700 and ~2,080 at 32, measured best or tied in prediction, and
# no other budget won a training step at both widths (README,
# "Performance notes").
_BLOCK_MACS = 10 ** 6


def _block_rows(d_p: int, hidden_p: int) -> int:
    """Rows per block of every pass over a document's pair rows: at most
    _BLOCK_MACS multiply-adds, of one row at least; hidden_p may be 0."""
    return max(1, _BLOCK_MACS // max(1, (d_p + 1) * hidden_p))


def _forward_scores(doc: Document, params: ModelParams, keep_h_p: bool = True
                    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(scores, h_a, h_p) of the scorer on a document that fits ``params``;
    h_p is None unless ``keep_h_p``."""
    pair_scores, h_p = _pair_forward(doc.pair_feature_matrix, _pair_weights(params),
                                     params.u[params.hidden_a:], keep_h_p)
    return (*_score_matrix(doc, params, pair_scores), h_p)


def _score_matrix(doc: Document, params: ModelParams,
                  pair_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scores, h_a) given the pair halves h_p @ u_p of ``doc``'s pairs, as
    float64; the mention half and u_0 are added to ``pair_scores`` in place."""
    h_a = _hidden(doc.mention_feature_matrix, params.w_a.T, params.b_a)
    pair_scores += (h_a @ params.u[:params.hidden_a])[doc.tril_pairs[0]]
    pair_scores += params.u_0
    scores = np.zeros((doc.n, doc.n))
    scores[doc.tril_mask] = pair_scores
    np.fill_diagonal(scores, h_a @ params.v + params.v_0)
    return scores, h_a


def _hidden(phi: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tanh(phi @ w + b), computed in the GEMM's output buffer."""
    h = phi @ w
    h += b
    return np.tanh(h, out=h)


def _pair_weights(params: ModelParams, dtype=np.float64) -> np.ndarray:
    """[w_p | b_p]^T as every pair GEMM reads it: a C-contiguous (d_p + 1,
    hidden_p) array of ``dtype``."""
    w_b = np.empty((params.d_p + 1, params.hidden_p), dtype)
    w_b[:-1], w_b[-1] = params.w_p.T, params.b_p
    return w_b


def _pair_forward(phi_p: np.ndarray, w_b: np.ndarray, u_p: np.ndarray, keep_h_p: bool
                  ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The pair half tanh([phi_p | 1] @ w_b) @ u_p of every pair's score,
    as float64, one block of rows at a time, and h_p itself when
    ``keep_h_p``; otherwise one block-sized buffer serves every block and
    no n_pairs x hidden_p array is made.  ``w_b`` is ``_pair_weights`` in
    the dtype of the pass and ``u_p`` the pair half of u in that dtype.
    Each block is cast into one buffer whose last column is ones, so that
    one GEMM, which reads both operands as they lie, adds the bias too.
    The caller makes sure that every value fits the dtype."""
    n_pairs, (d, hidden_p) = len(phi_p), w_b.shape
    block = _block_rows(d - 1, hidden_p)
    rows = min(n_pairs, block)
    phi = np.empty((rows, d), w_b.dtype)
    phi[:, -1] = 1.0
    h_p = np.empty((n_pairs if keep_h_p else rows, hidden_p), w_b.dtype)
    pair_scores = np.empty(n_pairs)
    for start in range(0, n_pairs, block):
        stop = min(start + block, n_pairs)
        x, h = phi[:stop - start], (h_p[start:stop] if keep_h_p else h_p[:stop - start])
        x[:, :-1] = phi_p[start:stop]
        np.tanh(np.matmul(x, w_b, out=h), out=h)
        np.matmul(h, u_p, out=pair_scores[start:stop])
    return pair_scores, (h_p if keep_h_p else None)


def score_pairs(doc: Document, params: ModelParams) -> np.ndarray:
    """Lower-triangular score matrix s[i - 1, j - 1] = s(a_i = j)."""
    _check_fits(doc, params)
    return _forward_scores(doc, params, keep_h_p=False)[0]


def link_probabilities(scores: np.ndarray) -> LinkDistribution:
    """Row softmax over the candidates j <= i of each mention."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise InputError("score matrix must be square")
    if not np.all(np.isfinite(np.tril(scores))):
        raise InputError("scores contain non-finite values")
    return LinkDistribution(masked_softmax(scores, np.tri(len(scores), dtype=bool)))


# Prediction screens with a float32 pair layer (predict_antecedents).  Unit
# roundoffs, the bound on numpy's tanh error in units of them (numpy's own
# accuracy tests allow 2 ulps in float32 and float64; |tanh| < 1, so an ulp
# is at most one unit), the largest error a subnormal result or cast adds
# to one float32 operation (2^-150, taken as 2^-148 to absorb the (1 + u)
# factors), and the magnitude below which every float32 value and partial
# sum of the layer must stay (float32 overflows at 2^128).
_F32_UNIT, _F64_UNIT = 2.0 ** -24, 2.0 ** -53
_TANH_ULPS = 4.0
_F32_TINY = 2.0 ** -148
_F32_LIMIT = 2.0 ** 120


def _gamma(m: int, unit: float) -> float:
    """gamma_m = m u / (1 - m u), the relative error bound of m roundings."""
    return m * unit / (1.0 - m * unit)


def _screen_constants(params: ModelParams) -> tuple:
    """(terms, weights) of the float32 screen, from the parameters alone;
    ``ModelParams._screen_memo`` keeps them until the parameters change.
    terms are the scalars of ``_near_tie_gaps``: A, B, max_k ||w_p,k||_1,
    max_k |b_p,k|, ||u_p||_1, the unit terms, the sums term, d_p and
    hidden_p.  weights are the read-only float32 ``_pair_weights`` and u_p
    that the screen's ``_pair_forward`` reads.  Both are None when no
    document can fit float32, and nothing is cast then."""
    d, hidden = params.d_p, params.hidden_p
    abs_u = np.abs(params.u)
    abs_u_p, abs_b_p = abs_u[params.hidden_a:], np.abs(params.b_p)
    row_l1 = np.abs(params.w_p) @ np.ones(d)  # ||w_p,k||_1
    row_max, bias_max = float(row_l1.max(initial=0.0)), float(abs_b_p.max(initial=0.0))
    u_l1 = float(abs_u_p.sum())
    if not max(row_max, bias_max, u_l1) < _F32_LIMIT:  # then no document fits float32
        return None, None
    slope, offset = float(abs_u_p @ row_l1), float(abs_u_p @ abs_b_p)  # A, B: < 2^240
    lin_units = _gamma(d + 3, _F32_UNIT) + _gamma(d + 3, _F64_UNIT)
    u_term = (_TANH_ULPS * (_F32_UNIT + _F64_UNIT) + _gamma(hidden + 2, _F32_UNIT)
              + _gamma(hidden + 2, _F64_UNIT)) * u_l1
    sums = 2.0 ** -48 * (float(abs_u.sum()) + abs(params.u_0))
    w_b, u_p = _pair_weights(params, np.float32), params.u[params.hidden_a:].astype(np.float32)
    for array in (w_b, u_p):
        array.flags.writeable = False
    return (slope, offset, row_max, bias_max, u_l1, lin_units, u_term, sums, d, hidden), (w_b, u_p)


def _near_tie_gaps(docs: Sequence[Document], terms: Optional[tuple]) -> list[Optional[float]]:
    """Per document, the top-two score gap at or below which
    ``predict_antecedents`` re-scores a row in float64, or None where the
    float32 pair layer is not used (see there).  ``terms`` are the
    parameters' scalars, as ``ModelParams._screen_memo`` keeps them."""
    if terms is None:
        return [None] * len(docs)
    slope, offset, row_max, bias_max, u_l1, lin_units, u_term, sums, d, hidden = terms
    gaps = []
    for doc in docs:
        feature = doc.pair_feature_max
        phi = max(feature, 1.0)
        lin = phi * slope + offset
        tiny = _F32_TINY * (lin + u_l1 * (d * (feature + 1.0) + 2.0) + 2.0 * hidden + 2.0)
        gap = 2.0 * (lin_units * lin + u_term + tiny + sums) + 2.0 ** -44
        fits = max(feature, phi * row_max + bias_max) < _F32_LIMIT
        gaps.append(gap if doc.n > 1 and fits and math.isfinite(gap) else None)
    return gaps


def predict_antecedents(doc: Document, params: ModelParams) -> tuple[int, ...]:
    """Most probable antecedent per mention under the model, ties to the
    smallest index: ``decode_argmax(link_probabilities(score_pairs(doc,
    params)))``, decided without its checked copy, and with a float32 pair
    layer screening the float64 scores.  Scores beyond float64 raise
    InputError naming the document.

    This is the corpus pass ``_predict_corpus`` on ``[doc]``; the same
    pass decodes a whole corpus for ``evaluate_corpus`` and ``softcoref
    errors``.  Only the order of a row's scores decides its prediction.
    So the pair layer runs in float32 (``_pair_forward`` on float32
    weights, in blocks of each document's own pair rows, the bias folded
    into the GEMM), and the mention side, the sums and the self-link
    scores stay float64.  For every pair, the float32
    pair score h_p . u_p is within E of the float64 one, with gamma_m =
    m u / (1 - m u), u = 2^-24 (float32) or 2^-53 (float64), c = 4 ulps a
    bound on numpy's tanh error, and phi the larger of 1 and the largest
    |pair feature| of the document:

        E = sum over u of [ gamma_{d_p+3} sum_k |u_p,k| (phi ||w_p,k||_1 + |b_p,k|)
                            + (c u + gamma_{hidden_p+2}) ||u_p||_1 ]  + subnormal terms

    (gamma_{d_p+3}: the casts of phi and [w_p | b_p] and the sum of d_p + 1
    products that adds the bias; tanh is 1-Lipschitz; |h_p| <= 1 in the
    output sum; the subnormal terms are 2^-148 per operation and vanish
    unless some operand is below 2^-126).  A row whose float32 top-two gap
    exceeds

        2 (E + 2^-48 (||u||_1 + |u_0|)) + 2^-44

    has the same strict winner in float64 (the 2^-48 term covers the
    float64 sums of the two paths), by a float64 gap above 2^-44, and the
    float64 row softmax keeps that winner strictly ahead.  Every other row
    is near.  The screen does not take a document, and every row of it is
    near, when it has no pairs, its bound is not finite, or a value or
    partial sum of the float32 layer might reach 2^120: the largest |pair
    feature|, phi max_k ||w_p,k||_1 + max_k |b_p,k| (at most twice the
    largest row's own bound) or ||u_p||_1.  A document's near rows are
    re-scored in float64 together, their pairs through one
    ``_pair_forward`` call and ``_score_matrix``, and decided by the row
    softmax.  The sum over k in E is phi A + B, with A = sum_k |u_p,k|
    ||w_p,k||_1 and B = sum_k |u_p,k| |b_p,k|, so E is affine in phi, and
    the parameters reduce to scalars once per parameter state
    (``_near_tie_gaps``; ``ModelParams._screen_memo`` keeps them, and the
    float32 and float64 (d_p + 1, hidden_p) [w_p | b_p]^T, until a call
    finds the flat vector changed).

    On the benchmark's trained models (seeds 1-10) E is 2.6e-3 to 4.0e-3
    at n 8-16, hidden 200/700 and 2.3e-5 to 8.6e-5 at n 100-200, hidden
    24/32, and one document in 46-141 has a near row (README,
    "Performance notes").
    """
    return tuple(_predict_corpus([doc], params)[0].tolist())


def _predict_corpus(docs: Sequence[Document], params: ModelParams) -> list[np.ndarray]:
    """``predict_antecedents`` of every document of ``docs``, as 1-based
    int64 arrays, in one pass.  The parameters' scalars
    (``_near_tie_gaps``) and their (d_p + 1, hidden_p) [w_p | b_p]^T, in
    float32 with u_p for the screen and in float64 for the re-scoring,
    come from one read of their memo, built once per parameter state.
    Both precisions run through ``_pair_forward``, which makes its own
    block-sized buffers per call.  A screened document's rows are decided
    on its float32 scores, except those whose top-two gap is at most its
    gap; a document that is not screened has every row near.  The near
    rows of a document are re-scored together in float64, through one
    ``_pair_forward`` call on their pairs and ``_score_matrix``, and
    decided by the row softmax."""
    for doc in docs:
        _check_fits(doc, params)
    # Finite parameters can still give scores beyond float64: the re-scored
    # rows are checked, and so are the screened self-link scores (the
    # bound keeps the float32 pair side finite).  numpy's overflow warnings
    # are left to the caller, since an np.errstate here would cost more
    # than the check (README, "Performance notes").
    _, terms, weights, w_b = params._screen_memo()
    u_p = params.u[params.hidden_a:]
    predictions = []
    for doc, gap in zip(docs, _near_tie_gaps(docs, terms)):
        if gap is None:
            best, near = np.zeros(doc.n, np.int64), np.ones(doc.n, bool)
        else:
            halves = _pair_forward(doc.pair_feature_matrix, *weights, False)[0]
            scores = _score_matrix(doc, params, halves)[0]
            _check_finite_scores(doc, scores.diagonal())
            masked = np.where(doc.candidate_mask, scores, -np.inf)
            rows = np.arange(doc.n)
            best = masked.argmax(axis=1)
            top = masked[rows, best]
            masked[rows, best] = -np.inf
            near = top - masked.max(axis=1) <= gap
        if near.any():
            pairs = near[doc.tril_pairs[0]]
            halves = np.zeros(len(pairs))
            halves[pairs] = _pair_forward(doc.pair_feature_matrix[pairs], w_b, u_p, False)[0]
            scores = _score_matrix(doc, params, halves)[0][near]
            _check_finite_scores(doc, scores)
            best[near] = masked_softmax(scores, doc.candidate_mask[near]).argmax(axis=1)
        predictions.append(best + 1)
    return predictions


def _check_finite_scores(doc: Document, scores: np.ndarray) -> None:
    """InputError unless every score of ``doc`` in ``scores`` is finite."""
    if not np.isfinite(scores).all():
        raise InputError(f"non-finite scores on document {doc.id}")


def _softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Score gradient given a gradient on row-softmax outputs."""
    rowdot = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - rowdot)


def _score_backward(doc: Document, params: ModelParams, h_a: np.ndarray,
                    h_p: np.ndarray, d_scores: np.ndarray) -> ModelParams:
    """Parameter gradient given a gradient on the score matrix of ``doc``
    and the forward pass's hidden layers, written field by field into a
    zeroed flat vector.  The pair side is fused and runs in row blocks
    (see the module docstring).  It consumes ``h_p``: each block of it is
    overwritten with its 1 - h_p^2 once the u_p gradient has read it."""
    ha = params.hidden_a
    d_pair = d_scores[doc.tril_mask]
    d_self = np.diagonal(d_scores).copy()
    grad = params.zeros_like()

    # Every pair term of row i shares h_a[i], so its gradient is the row sum.
    d_row = np.where(doc.tril_mask, d_scores, 0.0).sum(axis=1)
    u_a, u_p = params.u[:ha], params.u[ha:]
    d_z_a = np.outer(d_self, params.v) + np.outer(d_row, u_a)
    d_z_a *= 1.0 - h_a ** 2
    np.matmul(d_z_a.T, doc.mention_feature_matrix, out=grad.w_a)
    d_z_a.sum(axis=0, out=grad.b_a)
    np.matmul(h_a.T, d_row, out=grad.u[:ha])
    np.matmul(h_a.T, d_self, out=grad.v)
    grad.u_0, grad.v_0 = d_pair.sum(), d_self.sum()

    # Every block adds to the zeroed u_p gradient and the fused product,
    # (d_p + 1, hidden_p) as the GEMM returns it, through one block-sized
    # scratch array.
    phi_p, d_p, n_pairs = doc.pair_feature_matrix, params.d_p, d_pair.size
    block = _block_rows(d_p, params.hidden_p)
    weighted = np.empty((min(n_pairs, block), d_p + 1))
    d_u_p, fused = grad.u[ha:], np.zeros((d_p + 1, params.hidden_p))
    for start in range(0, n_pairs, block):
        stop = min(start + block, n_pairs)
        h, d = h_p[start:stop], d_pair[start:stop]
        wt = weighted[:stop - start]
        np.multiply(d[:, None], phi_p[start:stop], out=wt[:, :d_p])
        wt[:, d_p] = d
        d_u_p += h.T @ d
        np.multiply(h, h, out=h)  # h_p is consumed: the block becomes 1 - h_p^2
        np.subtract(1.0, h, out=h)
        fused += wt.T @ h
    if n_pairs:
        np.multiply(u_p[:, None], fused[:d_p].T, out=grad.w_p)
        np.multiply(u_p, fused[d_p], out=grad.b_p)
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
# Each kind has two entries.  _TARGETS[kind] maps (doc, costs) to what the
# objective needs of the document's gold side; it depends on neither the
# parameters nor the scores, so ``train`` builds it once per document and
# call.  _LOSSES[kind] maps (doc, scores, targets, beta, temperature) to
# (loss, backward); backward() returns d loss / d scores.

def _mention_ranking_targets(doc: Document, costs: CostConfig):
    """The correct-antecedent sets C(m_i) as a mask, and the costs Delta."""
    mask = correct_set_mask(doc.gold_entity_array)
    return mask, _cost_matrix(mask, costs.alphas)


def _mention_ranking(doc: Document, scores: np.ndarray, targets,
                     beta: float, temperature: float):
    """Cost-augmented negative log-likelihood of the correct-antecedent sets."""
    mask, delta = targets
    probs = masked_softmax(scores + delta, doc.candidate_mask)
    correct_mass = (probs * mask).sum(axis=1)

    def backward() -> np.ndarray:
        # d loss / d augmented-score = p' - p' restricted to C and renormalized
        return probs - np.where(mask, probs, 0.0) / correct_mass[:, None]

    return float(-np.log(correct_mass).sum()), backward


def _entity_centric_targets(doc: Document, costs: CostConfig):
    """Each mention's (row, gold anchor) index, and exp(Gamma)."""
    return (np.arange(doc.n), doc.gold_entity_array - 1), np.exp(gamma_matrix(doc, costs))


def _entity_centric(doc: Document, scores: np.ndarray, targets,
                    beta: float, temperature: float):
    """Cost-augmented negative log-probability that each mention joins its
    gold entity, through the membership recursion."""
    gold, exp_gamma = targets
    probs = masked_softmax(scores, doc.candidate_mask)
    q, reach = _membership_and_reach(probs)
    weights = q * exp_gamma
    totals = weights.sum(axis=1)
    loss = float(-(np.log(weights[gold]) - np.log(totals)).sum())

    def backward() -> np.ndarray:
        # d loss / d q[i, u] = exp(Gamma_iu)/total_i - 1[u = e_i]/q[i, e_i];
        # weights/q recovers exp(Gamma) on the support without recomputing it.
        d_q = np.where(q > 0.0, weights / np.where(q > 0.0, q, 1.0), 0.0) / totals[:, None]
        d_q[gold] -= 1.0 / q[gold]
        return _softmax_backward(probs, _reach_backward(reach, q, d_q))

    return loss, backward


def _relaxed_targets(doc: Document, costs: CostConfig):
    """Each mention's gold cluster and the cluster sizes."""
    return gold_index_arrays(doc.gold_clusters, doc.n)


def _relaxed(soft_grad, doc: Document, scores: np.ndarray, targets,
             beta: float, temperature: float):
    """-F_beta of a relaxed metric (soft_grad is b3_soft_grad or
    lea_soft_grad) on the tempered memberships, against gold clusters."""
    probs = masked_softmax(scores, doc.candidate_mask)
    q, reach = _membership_and_reach(probs)
    qt = temper_array(q, temperature)
    _, _, f, d_qt = soft_grad(qt, *targets, beta)

    def backward() -> np.ndarray:
        d_q = temper_backward(q, qt, temperature, -d_qt)
        return _softmax_backward(probs, _reach_backward(reach, q, d_q))

    return -f, backward


_TARGETS = {
    "mr-heuristic": _mention_ranking_targets,
    "ec-heuristic": _entity_centric_targets,
    "b3": _relaxed_targets,
    "lea": _relaxed_targets,
}

_LOSSES = {
    "mr-heuristic": _mention_ranking,
    "ec-heuristic": _entity_centric,
    "b3": partial(_relaxed, b3_soft_grad),
    "lea": partial(_relaxed, lea_soft_grad),
}

LOSS_KINDS = tuple(_LOSSES)


def _check_loss_settings(kind: str, beta: float, temperature: float, lam: float,
                         costs: Optional[CostConfig]) -> None:
    """Reject loss settings that no objective accepts."""
    if not isinstance(kind, str) or kind not in _LOSSES:
        raise ConfigError(f"unknown loss kind {kind!r} (expected one of {LOSS_KINDS})")
    if costs is not None and not isinstance(costs, CostConfig):
        raise ConfigError(f"costs must be a CostConfig, got {costs!r}")
    _check_range("beta", beta)
    _check_range("temperature", temperature)
    _check_range("l1 weight", lam, positive=False)


def _loss_targets(doc: Document, kind: str, costs: Optional[CostConfig]):
    """``_TARGETS[kind]`` of ``doc``, with the default costs for None."""
    return _TARGETS[kind](doc, costs if costs is not None else CostConfig())


def _loss_and_backward(doc: Document, params: ModelParams, kind: str, targets,
                       beta: float, temperature: float, lam: float,
                       keep_h_p: bool = True):
    """The path that every loss shares, for checked settings, a document
    that fits ``params`` and its ``_loss_targets``: non-finite scores, or a
    non-finite loss plus L1 term, raise TrainingError before any backward
    pass."""
    scores, h_a, h_p = _forward_scores(doc, params, keep_h_p)
    if not np.isfinite(scores).all():
        raise TrainingError(f"non-finite scores on document {doc.id}")
    with np.errstate(divide="ignore"):  # log(0) is reported just below
        loss, backward = _LOSSES[kind](doc, scores, targets, beta, temperature)
    if lam:
        loss += lam * l1_norm(params)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite {kind} loss on document {doc.id}")
    return (h_a, h_p), loss, backward


def _loss_and_grad(doc: Document, params: ModelParams, kind: str, targets,
                   beta: float, temperature: float, lam: float) -> tuple[float, ModelParams]:
    """``document_loss_and_grad`` for settings and a fit that ``train``
    checked once (TrainConfig checks the settings when it is built), with
    targets that it built once."""
    hidden, loss, backward = _loss_and_backward(doc, params, kind, targets, beta,
                                                temperature, lam)
    d_scores = backward()
    if not np.isfinite(d_scores).all():
        raise TrainingError(f"non-finite {kind} gradient on document {doc.id}")
    grad = _score_backward(doc, params, *hidden, d_scores)
    if lam:
        l1 = np.sign(params._vec)
        l1 *= lam
        grad._vec += l1
    return loss, grad


def document_loss(doc: Document, params: ModelParams, kind: str, *,
                  costs: Optional[CostConfig] = None, beta: float = 1.0,
                  temperature: float = 1.0, lam: float = 0.0) -> float:
    """Loss of one document under any of the LOSS_KINDS objectives, plus
    lam * L1; forward pass only, so no n_pairs x hidden_p pair layer is
    kept (see ``_pair_forward``).  Non-finite scores or loss raise
    TrainingError naming the document."""
    _check_loss_settings(kind, beta, temperature, lam, costs)
    _check_fits(doc, params)
    _, loss, _ = _loss_and_backward(doc, params, kind, _loss_targets(doc, kind, costs),
                                    beta, temperature, lam, keep_h_p=False)
    return loss


def document_loss_and_grad(doc: Document, params: ModelParams, kind: str, *,
                           costs: Optional[CostConfig] = None, beta: float = 1.0,
                           temperature: float = 1.0,
                           lam: float = 0.0) -> tuple[float, ModelParams]:
    """document_loss and its gradient wrt every parameter; the L1 term
    contributes lam * sign(theta).  The TrainingError for a non-finite
    score, loss or score gradient comes before any parameter gradient."""
    _check_loss_settings(kind, beta, temperature, lam, costs)
    _check_fits(doc, params)
    return _loss_and_grad(doc, params, kind, _loss_targets(doc, kind, costs), beta,
                          temperature, lam)
