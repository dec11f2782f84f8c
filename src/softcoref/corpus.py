"""Documents, synthetic corpora, and corpus / key-file input-output.

A corpus file holds one JSON record per line (one document per record)::

    {"id": "doc-0000", "d_a": 12, "d_p": 14,
     "mentions": [{"index": 1, "type": "proper", "gold_entity": 1,
                   "features_a": [...]}, ...],
     "pairs": [{"j": 1, "i": 2, "features": [...]}, ...]}

``id`` is a JSON string, and ``d_a``, ``d_p`` and every index JSON
integers.  ``gold_entity`` is the index of the first mention of the
entity the mention belongs to (equal to the mention's own index when the
mention opens a new entity; the string ``"new"`` is accepted as a
synonym on load).  ``pairs`` must list every ordered pair ``j < i`` exactly once, in
any order; in memory a document holds them as one matrix (see
``Document``).

Key files use a minimal CoNLL skeleton: ``#begin document (<id>)`` /
``#end document`` blocks whose last whitespace-separated column carries
coreference brackets ``(e``, ``e)``, ``(e)``, possibly ``|``-separated,
where ``e`` is a decimal entity id below 2**63.  All other columns are
ignored.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (ConfigError, FormatError, InputError, _check_integer, _check_length,
                     _check_range)

MENTION_TYPES = ("proper", "nominal", "pronominal")

# Sampling priors for mention types: entity-opening mentions tend to be
# proper/nominal, anaphoric ones pronominal.
_TYPE_PRIOR_FIRST = (0.6, 0.3, 0.1)
_TYPE_PRIOR_LATER = (0.15, 0.35, 0.5)
# Mention-distance buckets for pair features: 1, 2-3, 4-7, 8+.
_DISTANCE_EDGES = (1, 3, 7)


def _read_only(array: np.ndarray) -> np.ndarray:
    """Flag ``array`` read-only and return it."""
    array.setflags(write=False)  # a third of the cost of ``array.flags.writeable = False``
    return array


def _as_int(value, what: str) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a bool.  The
    one integer rule of input values (indices, labels, pair keys, declared
    dimensions): InputError ``<what> <value> is not an integer``."""
    if type(value) is int:  # the common case (a bool's type is bool)
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} {value!r} is not an integer")
    return int(value)


def _integer_array(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as an integer array, each value judged by ``_as_int``, so
    the error names the first one that is not an integer; integers that no
    numpy integer dtype holds together raise InputError too.  An empty
    sequence passes."""
    if isinstance(values, np.ndarray) and values.dtype.kind not in "iu":
        values = values.ravel().tolist()
    if not isinstance(values, np.ndarray) and not {*map(type, values)} <= {int}:
        values = [_as_int(value, what) for value in values]
    array = np.asarray(values)
    if array.dtype.kind not in "iu" and array.size:  # integers no numpy dtype holds together
        raise InputError(f"{what} values must fit int64")
    return array


def _check_id(doc_id) -> None:
    """InputError unless a document id is a ``str`` (``np.str_`` is one)."""
    if not isinstance(doc_id, str):
        raise InputError(f"document id {doc_id!r} is not a string")


class Clustering:
    """A partition of the 1-based mention indices 1..n into entities.

    Clusters are nonempty, pairwise disjoint and together cover 1..n.
    The empty clustering (no mentions at all) is allowed.  The partition
    is stored as one read-only label array (see ``cluster_index``); the
    other views are derived from it.
    """

    __slots__ = ("_index",)

    def __init__(self, clusters: Iterable[Iterable[int]] = ()):
        sets = []  # a list, so that a repeated cluster fails the disjointness check
        for cluster in clusters:
            fs = frozenset(_as_int(m, "cluster member") for m in cluster)
            if not fs:
                raise InputError("clusters must be nonempty")
            sets.append(fs)
        n = sum(map(len, sets))
        union = frozenset().union(*sets)
        if len(union) != n:
            raise InputError("clusters must be disjoint")
        if union != frozenset(range(1, n + 1)):
            raise InputError("clusters must cover the contiguous index range 1..n")
        labels = [0] * n
        for k, cluster in enumerate(sorted(sets, key=min)):
            for m in cluster:
                labels[m - 1] = k
        self._index = _read_only(np.array(labels, dtype=np.int64))

    @classmethod
    def _wrap(cls, index: np.ndarray) -> "Clustering":
        """An unchecked clustering over a fresh label array in canonical order."""
        clustering = cls.__new__(cls)
        clustering._index = _read_only(index)
        return clustering

    def cluster_index(self) -> np.ndarray:
        """Read-only int64 array whose entry m - 1 is the 0-based cluster of
        mention m, clusters numbered in order of their first mention."""
        return self._index

    @property
    def num_mentions(self) -> int:
        return len(self._index)

    @property
    def clusters(self) -> frozenset[frozenset[int]]:
        return frozenset(self.sorted_clusters())

    def sorted_clusters(self) -> list[frozenset[int]]:
        """Clusters in deterministic order (by their first mention)."""
        members = (np.argsort(self._index, kind="stable") + 1).tolist()
        ends = np.cumsum(np.bincount(self._index)).tolist()
        return [frozenset(members[start:end]) for start, end in zip([0] + ends, ends)]

    def entity_ids(self) -> dict[int, int]:
        """Map mention index -> index of the first mention of its entity."""
        firsts = np.unique(self._index, return_index=True)[1] + 1
        return dict(enumerate(firsts[self._index].tolist(), start=1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Clustering) and np.array_equal(self._index, other._index)

    def __hash__(self) -> int:
        return hash(self._index.tobytes())

    def __len__(self) -> int:
        return int(self._index.max()) + 1 if len(self._index) else 0

    def __iter__(self):
        return iter(self.sorted_clusters())

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, sorted(c))) + "}" for c in self.sorted_clusters())
        return f"Clustering({{{inner}}})"


def clusters_from_entity_ids(entity_ids: Sequence[int]) -> Clustering:
    """Build a Clustering from per-mention entity labels: mentions that
    share a label share a cluster, whatever the integer label values are."""
    first: dict[int, int] = {}
    labels = [first.setdefault(e, len(first))
              for e in _integer_array(entity_ids, "entity id").tolist()]
    return Clustering._wrap(np.array(labels, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Mention:
    """``index`` and ``gold_entity`` are integers, not bool, stored as
    ``int``; ``features_a`` is stored as a read-only float64 copy."""

    index: int
    mention_type: str
    gold_entity: int
    features_a: np.ndarray

    def __post_init__(self):
        for name in ("index", "gold_entity"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _as_int(value, f"mention {name}"))
        if self.mention_type not in MENTION_TYPES:
            raise InputError(f"unknown mention type {self.mention_type!r}")
        object.__setattr__(self, "features_a", _read_only(np.array(self.features_a, dtype=float)))
        if self.features_a.ndim != 1:
            raise InputError(f"mention {self.index}: features_a is not a vector")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mention)
            and self.index == other.index
            and self.mention_type == other.mention_type
            and self.gold_entity == other.gold_entity
            and np.array_equal(self.features_a, other.features_a)
        )


@dataclass(frozen=True, eq=False)
class Document:
    """An ordered mention list with per-mention and per-pair features.

    ``id`` is a ``str``.  ``pair_feature_matrix`` holds the features of
    every pair j < i as one float64 array of shape (n_pairs, d_p), in
    ``tril_pairs`` (row-major) order; a document with fewer than two
    mentions holds a (0, 0) array, whatever empty array it was built with.
    The Document takes ownership of a float64 matrix (flagging it
    read-only, with no copy) and copies any other.  Gold is stored once,
    as the mentions' ``gold_entity`` labels.  Construction runs
    ``validate`` and raises InputError for an invalid document, so every
    Document is valid; it is immutable after that (its arrays are all
    read-only), and the cached mention matrix, gold clustering and index
    arrays make it safe and cheap to share across repeated loss
    evaluations.
    """

    id: str
    mentions: tuple[Mention, ...]
    pair_feature_matrix: np.ndarray

    def __post_init__(self):
        _check_id(self.id)
        object.__setattr__(self, "mentions", tuple(self.mentions))
        pairs = np.asarray(self.pair_feature_matrix, dtype=float)
        if pairs.ndim and not len(pairs):  # no pairs, whatever width they were given
            pairs = np.zeros((0, 0))
        object.__setattr__(self, "pair_feature_matrix", _read_only(pairs))
        self.validate()

    @classmethod
    def from_mentions(cls, doc_id: str, mentions: Sequence[Mention],
                      pairs: Mapping[tuple[int, int], np.ndarray]) -> "Document":
        """Build a document from a ``{(j, i): features}`` dict.  Raises
        InputError unless the keys are exactly all pairs j < i, each index
        an integer (not a bool), and the document validates."""
        return cls(doc_id, mentions, _pair_matrix(
            doc_id, len(mentions), list(pairs), list(pairs.values())))

    @property
    def n(self) -> int:
        return len(self.mentions)

    @property
    def d_a(self) -> int:
        return len(self.mentions[0].features_a) if self.mentions else 0

    @property
    def d_p(self) -> int:
        return self.pair_feature_matrix.shape[1]

    def validate(self) -> None:
        """Raise InputError unless the document is well formed (as built)."""
        n = self.n
        if n == 0:
            raise InputError(f"document {self.id}: no mentions")
        if [m.index for m in self.mentions] != list(range(1, n + 1)):
            raise InputError(f"document {self.id}: mention indices not contiguous 1..n")
        d_a = self.d_a
        if d_a < 1:
            raise InputError(f"document {self.id}: empty mention features")
        bad = [len(m.features_a) != d_a for m in self.mentions]
        if any(bad):
            raise InputError(
                f"document {self.id}: inconsistent d_a at mention {bad.index(True) + 1}")
        pairs = self.pair_feature_matrix
        n_pairs = n * (n - 1) // 2
        if pairs.ndim != 2 or len(pairs) != n_pairs:
            raise InputError(f"document {self.id}: pair features have shape {pairs.shape}, "
                             f"expected ({n_pairs}, d_p)")
        if n > 1 and self.d_p < 1:
            raise InputError(f"document {self.id}: empty pair features")
        bad = ~np.isfinite(self.mention_feature_matrix).all(axis=1)
        if bad.any():
            raise InputError(f"document {self.id}: non-finite features at mention "
                             f"{int(np.argmax(bad)) + 1}")
        bad = ~np.isfinite(pairs).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            rows_i, cols_j = self.tril_pairs
            raise InputError(f"document {self.id}: non-finite features at pair "
                             f"({int(cols_j[k]) + 1}, {int(rows_i[k]) + 1})")
        # e is the entity's first mention: 1 <= e <= i, and mention e labels itself
        e = self.gold_entity_array
        ok = (1 <= e) & (e <= np.arange(1, n + 1)) & (e[np.clip(e, 1, n) - 1] == e)
        if not ok.all():
            k = int(np.argmax(~ok))
            raise InputError(
                f"document {self.id}: mention {k + 1} gold_entity {e[k]} inconsistent "
                f"with gold clusters (expected {int(np.argmax(e == e[k])) + 1})"
            )

    @cached_property
    def gold_entity_array(self) -> np.ndarray:
        """Read-only e(m_i) for every mention, 1-based."""
        return _read_only(np.array([m.gold_entity for m in self.mentions], dtype=np.int64))

    @cached_property
    def gold_clusters(self) -> Clustering:
        return clusters_from_entity_ids(self.gold_entity_array)

    @cached_property
    def mention_feature_matrix(self) -> np.ndarray:
        return _read_only(np.stack([m.features_a for m in self.mentions]))

    @cached_property
    def tril_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only 0-based (i, j) index arrays for all pairs j < i, row-major."""
        return tuple(map(_read_only, np.tril_indices(self.n, k=-1)))

    @cached_property
    def tril_mask(self) -> np.ndarray:
        """Read-only boolean (n, n) mask of the pairs j < i.  Indexing an
        (n, n) array with it visits the pairs in ``tril_pairs`` order, and
        costs a fraction of indexing with the two index arrays."""
        return _read_only(np.tri(self.n, k=-1, dtype=bool))

    @cached_property
    def candidate_mask(self) -> np.ndarray:
        """Read-only boolean (n, n) mask of the antecedent candidates j <= i
        of every mention i, the mention itself (a new entity) included."""
        return _read_only(np.tri(self.n, dtype=bool))

    @cached_property
    def pair_feature_max(self) -> float:
        """Largest |entry| of ``pair_feature_matrix`` (0 without pairs)."""
        pairs = self.pair_feature_matrix
        return float(max(pairs.max(initial=0.0), -pairs.min(initial=0.0)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Document)
            and self.id == other.id
            and self.mentions == other.mentions
            and np.array_equal(self.pair_feature_matrix, other.pair_feature_matrix)
        )


def _pair_matrix(doc_id: str, n: int, keys: Sequence, features: Sequence) -> np.ndarray:
    """Pair features listed per ``(j, i)`` key, in any order, as one matrix
    in ``tril_pairs`` order.

    Raises InputError unless the keys are (j, i) pairs of integers (not
    bool), every pair j < i <= n exactly once, and the features are
    vectors of one length.
    """
    try:
        pairs = {*map(len, keys)} <= {2}
    except TypeError:  # a key without a length, such as an int
        pairs = False
    if not pairs:
        raise InputError(f"document {doc_id}: pair keys are not (j, i) pairs")
    j, i = _integer_array(list(chain.from_iterable(keys)), f"document {doc_id}: pair index"
                          ).astype(np.int64, copy=False).reshape(-1, 2).T
    not_vectors = f"document {doc_id}: pair features are not numeric vectors of one length"
    try:
        feats = np.asarray(features, dtype=float)
    except ValueError as exc:
        raise InputError(not_vectors) from exc
    if len(feats) and feats.ndim != 2:
        raise InputError(not_vectors)
    order = np.lexsort((j, i))
    j, i = j[order], i[order]
    repeated = (np.diff(j) == 0) & (np.diff(i) == 0)
    if repeated.any():
        k = int(np.argmax(repeated))
        raise InputError(f"document {doc_id}: pair features given twice for pair "
                         f"({j[k]}, {i[k]})")
    rows_i, cols_j = np.tril_indices(n, k=-1)
    if not (np.array_equal(i, rows_i + 1) and np.array_equal(j, cols_j + 1)):
        valid = (1 <= j) & (j < i) & (i <= n)
        present = np.zeros((n, n), dtype=bool)
        present[i[valid] - 1, j[valid] - 1] = True
        missing = ~present[rows_i, cols_j]
        if missing.any():
            detail = f"missing {_pair_list(cols_j[missing] + 1, rows_i[missing] + 1)}"
        else:
            detail = f"unexpected {_pair_list(j[~valid], i[~valid])}"
        raise InputError(f"document {doc_id}: pair features not defined for exactly "
                         f"all j < i ({detail})")
    return feats[order]


def _pair_list(j: np.ndarray, i: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(j[:3].tolist(), i[:3].tolist()))


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    num_docs: int
    mentions_per_doc: tuple[int, int] = (4, 12)
    entities_per_doc: tuple[int, int] = (2, 4)
    d_a: int = 12
    d_p: int = 14
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("num_docs", 0), ("d_a", 1), ("d_p", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), minimum)
        for name in ("mentions_per_doc", "entities_per_doc"):
            bounds = getattr(self, name)
            _check_length(name, bounds, 2)
            for bound in bounds:
                _check_integer(f"{name} bound", bound, 1)
            if bounds[0] > bounds[1]:
                raise ConfigError(f"empty {name} range {bounds}")
        _check_range("noise level", self.noise, positive=False)


def _fit_length(vec: np.ndarray, d: int) -> np.ndarray:
    """Truncate or zero-pad the last axis to length d."""
    if vec.shape[-1] >= d:
        return vec[..., :d]
    return np.concatenate([vec, np.zeros(vec.shape[:-1] + (d - vec.shape[-1],))], axis=-1)


def generate_synthetic(config: SyntheticConfig) -> list[Document]:
    """Generate a deterministic corpus of feature-annotated documents.

    Each document draws latent entities with Gaussian prototype vectors.
    Mention features are ``[prototype slice | type one-hot | 1/i, i/n]``
    truncated/padded to ``d_a``; pair features are ``[prototype cosine
    similarity | distance-bucket one-hot | type-pair one-hot]`` fit to
    ``d_p``.  Gaussian noise of scale ``config.noise`` is added to every
    coordinate.
    """
    rng = np.random.default_rng(config.seed)
    proto_dim = max(1, config.d_a - 5)
    lo, hi = config.mentions_per_doc
    elo, ehi = config.entities_per_doc
    docs = []
    for d in range(config.num_docs):
        n = int(rng.integers(lo, hi + 1))
        k = min(int(rng.integers(elo, ehi + 1)), n)
        protos = rng.normal(size=(k, proto_dim))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)

        first_of_label: dict[int, int] = {}
        mentions = []
        type_ids = []
        for i in range(1, n + 1):
            lab = int(labels[i - 1])
            opens = lab not in first_of_label
            first_of_label.setdefault(lab, i)
            prior = _TYPE_PRIOR_FIRST if opens else _TYPE_PRIOR_LATER
            t = int(rng.choice(len(MENTION_TYPES), p=prior))
            type_ids.append(t)
            canonical = np.concatenate([
                protos[lab],
                np.eye(3)[t],
                np.array([1.0 / i, i / n]),
            ])
            feats = _fit_length(canonical, config.d_a) + rng.normal(0.0, config.noise, config.d_a)
            mentions.append(Mention(i, MENTION_TYPES[t], first_of_label[lab], feats))

        # cosine similarity: exactly 1 for same-entity pairs, so the
        # linking signal is separable before noise is added
        norms = np.linalg.norm(protos, axis=1)
        cosine = np.array([[float(protos[a] @ protos[b]) / float(norms[a] * norms[b])
                            for b in range(k)] for a in range(k)])
        rows_i, cols_j = np.tril_indices(n, k=-1)
        types = np.array(type_ids)
        canonical = np.concatenate([
            cosine[labels[rows_i], labels[cols_j]][:, None],
            np.eye(len(_DISTANCE_EDGES) + 1)[np.searchsorted(_DISTANCE_EDGES, rows_i - cols_j)],
            np.eye(9)[types[cols_j] * 3 + types[rows_i]],
        ], axis=1)
        pairs = (_fit_length(canonical, config.d_p)
                 + rng.normal(0.0, config.noise, (len(rows_i), config.d_p)))
        docs.append(Document(f"doc-{d:04d}", mentions, pairs))
    return docs


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------

def _doc_record(doc: Document) -> dict:
    rows_i, cols_j = doc.tril_pairs
    return {
        "id": doc.id,
        "d_a": doc.d_a,
        "d_p": doc.d_p,
        "mentions": [
            {
                "index": m.index,
                "type": m.mention_type,
                "gold_entity": m.gold_entity,
                "features_a": m.features_a.tolist(),
            }
            for m in doc.mentions
        ],
        "pairs": [
            {"j": j, "i": i, "features": f}
            for j, i, f in zip((cols_j + 1).tolist(), (rows_i + 1).tolist(),
                               doc.pair_feature_matrix.tolist())
        ],
    }


def save_corpus(docs: Iterable[Document], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(_doc_record(doc)))
            fh.write("\n")


def _json_numbers(name: str, items) -> list:
    """``items`` as it is if it is a list of JSON numbers (not "0.5", not
    true, not null); InputError otherwise.  The one check of the numbers
    in a corpus or model file."""
    if type(items) is not list or not set(map(type, items)) <= {int, float}:
        raise InputError(f"{name} must hold JSON numbers")
    return items


def _doc_from_record(record: dict, path, lineno: int) -> Document:
    """The document of one corpus record.  Every value goes through the
    rule that the Python constructors apply (``Mention``, ``_pair_matrix``,
    ``Document``, ``_as_int``); its InputError becomes a FormatError with
    the file and line."""
    try:
        doc_id, pairs = record["id"], record["pairs"]
        mentions = []
        for m in record["mentions"]:
            gold = m["index"] if m["gold_entity"] == "new" else m["gold_entity"]
            features = _json_numbers(f"document {doc_id}: mention {m['index']} features_a",
                                     m["features_a"])
            mentions.append(Mention(m["index"], m["type"], gold, features))
        features = [p["features"] for p in pairs]
        matrix = _pair_matrix(doc_id, len(mentions), [(p["j"], p["i"]) for p in pairs], features)
        _json_numbers(f"document {doc_id}: pair features", list(chain.from_iterable(features)))
        doc = Document(doc_id, mentions, matrix)
        d_a, d_p = (_as_int(record[key], f"declared {key}") for key in ("d_a", "d_p"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad document record: {exc}", path=path, line=lineno) from exc
    except InputError as exc:
        raise FormatError(str(exc), path=path, line=lineno) from exc
    if doc.d_a != d_a or (doc.n > 1 and doc.d_p != d_p):
        raise FormatError(f"declared dimensions ({d_a}, {d_p}) do not match features",
                          path=path, line=lineno)
    return doc


@contextmanager
def _utf8_text(path):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8, wherever
    the reader meets them, raise FormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path=path) from exc


def load_corpus(path) -> list[Document]:
    docs = []
    d_a = d_p = None  # of the first document, and of the first with a pair
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", path=path, line=lineno) from exc
            doc = _doc_from_record(record, path, lineno)
            dims = (doc.d_a, doc.d_p if doc.n > 1 else None)
            d_a = dims[0] if d_a is None else d_a
            d_p = dims[1] if d_p is None else d_p
            if dims[0] != d_a or dims[1] not in (None, d_p):
                raise FormatError(f"dimension mismatch across documents: {dims} vs {(d_a, d_p)}",
                                  path=path, line=lineno)
            docs.append(doc)
    return docs


# ---------------------------------------------------------------------------
# Minimal CoNLL key / response files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConllDocument:
    doc_id: str
    spans: tuple[tuple[int, int], ...]  # token (start, end) per mention, in span order
    clustering: Clustering


# The code points above ASCII that str.split() takes for whitespace; the
# ASCII ones are 9-13 and 28-32.
_WIDE_SPACES = np.array([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029,
                         0x202F, 0x205F, 0x3000], dtype=np.uint32)
_POW10 = 10 ** np.arange(19, dtype=np.uint64)  # every power of ten below 2**63
_NEWLINE, _HASH, _OPEN, _CLOSE, _BAR, _DASH, _UNDERSCORE, _ZERO, _NINE = map(ord, "\n#()|-_09")


def _conll_text(path) -> tuple[str, np.ndarray]:
    """The whole file as text (decoded before any line is parsed) and its
    code points: uint8 for ASCII text, uint32 otherwise."""
    with _utf8_text(path) as fh:
        text = fh.read()
    if text.isascii():
        return text, np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return text, np.frombuffer(text.encode("utf-32-le"), dtype="<u4")


def _line_bounds(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of every line, its newline excluded."""
    end = np.flatnonzero(codes == _NEWLINE)
    if len(codes) and codes[-1] != _NEWLINE:
        end = np.append(end, len(codes))
    start = np.zeros_like(end)
    start[1:] = end[:-1] + 1
    return start, end


def _begin_document_id(line: str) -> str:
    rest = line[len("#begin document"):].strip()
    if rest.startswith("("):
        close = rest.find(")")
        return rest[1:close] if close != -1 else rest[1:]
    return rest


def _conll_blocks(text: str, codes: np.ndarray, line_start: np.ndarray, line_end: np.ndarray):
    """The documents that the '#begin document' / '#end document' lines
    delimit, up to the first such line that is out of place.

    Returns the document ids; the index of each document's #begin line and
    of the line where it stops; how many documents an #end line closes
    (the last one stops where reading stopped otherwise); and the error, as
    ``(line index, message)`` with the line count for the end of the file,
    or None.
    """
    doc_ids, begin, stop, error = [], [], [], None
    marked = np.flatnonzero(codes[line_start] == _HASH)
    for k, a, b in zip(marked.tolist(), line_start[marked].tolist(), line_end[marked].tolist()):
        line = text[a:b]
        if line.startswith("#begin document"):
            if len(stop) < len(begin):
                error = (k, f"document {doc_ids[-1]!r} not terminated by #end document")
                break
            begin.append(k)
            doc_ids.append(_begin_document_id(line))
        elif line.startswith("#end document"):
            if len(stop) == len(begin):
                error = (k, "#end document without #begin")
                break
            stop.append(k)
    closed = len(stop)
    if closed < len(begin):
        if error is None:
            error = (len(line_start), f"document {doc_ids[-1]!r} not terminated by #end document")
        stop.append(error[0])
    return doc_ids, np.array(begin, dtype=np.int64), np.array(stop, dtype=np.int64), closed, error


def _last_fields(codes: np.ndarray, line_start: np.ndarray,
                 line_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the last whitespace-separated field of every
    line, as ``str.rsplit(None, 1)`` finds it; -1 for a blank line."""
    space = np.ones(len(codes) + 2, dtype=bool)  # one space of padding on either side
    space[1:-1] = (codes <= 32) & ((codes >= 28) | (codes - 9 <= 4))
    if codes.dtype != np.uint8:
        space[1:-1] |= np.isin(codes, _WIDE_SPACES)
    edges = np.flatnonzero(space[1:] != space[:-1])  # field k is codes[edges[2k]:edges[2k + 1]]
    del space
    # a line ends on whitespace, so an even number of edges precede its end
    last = np.searchsorted(edges, line_end, side="right") - 2
    blank = (last < 0) | (edges[last] < line_start)  # no field, or only earlier lines'
    return np.where(blank, -1, edges[last]), np.where(blank, -1, edges[last + 1])


def _tag_fields(codes: np.ndarray, line_start: np.ndarray, line_end: np.ndarray,
                begin: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, ...]:
    """The last fields of the token lines (the nonblank lines strictly
    inside a document) that hold a tag, not '-' or '_'.  Per field: the
    index of its line, its document, its token number in the document
    (from 1), and its start and end offsets."""
    field_start, field_end = _last_fields(codes, line_start, line_end)
    line = np.flatnonzero(field_start >= 0)
    doc = np.searchsorted(begin, line, side="right") - 1
    inside = (doc >= 0) & (line > begin[doc]) & (line < stop[doc])
    line, doc = line[inside], doc[inside]
    token = np.arange(1, len(line) + 1) - np.searchsorted(line, begin)[doc]
    start, end = field_start[line], field_end[line]
    tagged = (end - start > 1) | ((codes[start] != _DASH) & (codes[start] != _UNDERSCORE))
    return line[tagged], doc[tagged], token[tagged], start[tagged], end[tagged]


def _range_sums(values: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The sums of values[start:end] (counts, for booleans).  Unsigned
    running sums may wrap modulo 2**64, which leaves every sum below 2**64
    exact."""
    running = np.zeros(len(values) + 1, dtype=np.int64 if values.dtype == bool else values.dtype)
    np.cumsum(values, out=running[1:])
    return running[end] - running[start]


def _tag_parts(codes: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonempty '|'-separated parts of the fields codes[start:end], in
    file order.  Per part: the index of its field; its offset and length
    in the text; whether it starts with '(' and whether it ends with ')';
    whether it is valid (it does either, and the rest, its body, is ASCII
    digits); whether the body is below 2**63; and its value where it is."""
    width = end - start + 1  # each field and one '|' after it, joined
    joined_end = np.cumsum(width)
    index = np.repeat(start - joined_end + width, width)
    index += np.arange(len(index))  # the text offset of every joined character
    chars = codes[np.minimum(index, len(codes) - 1)]
    chars[joined_end - 1] = _BAR
    bar = np.flatnonzero(chars == _BAR)
    part_start = np.zeros_like(bar)
    part_start[1:] = bar[:-1] + 1
    offset = index[part_start]
    del index
    opens, closes = chars[part_start] == _OPEN, chars[bar - 1] == _CLOSE
    body_start, body_end = part_start + opens, bar - closes
    digit = (chars >= _ZERO) & (chars <= _NINE)
    place = np.repeat(body_end - 1, bar - part_start + 1)
    place -= np.arange(len(place))  # a digit counts digit * 10**place in its part
    low = digit & (place >= 0) & (place < len(_POW10))
    terms = np.zeros(len(chars), dtype=np.uint64)
    terms[low] = (chars[low] - _ZERO).astype(np.uint64) * _POW10[place[low]]
    value = _range_sums(terms, part_start, bar)
    del terms
    high = digit & (place >= len(_POW10)) & (chars != _ZERO)
    in_range = (_range_sums(high, part_start, bar) == 0) & (value < 2**63)
    valid = ((opens | closes) & (body_end > body_start)
             & (_range_sums(~digit, body_start, body_end) == 0))
    keep = bar > part_start
    return (np.searchsorted(joined_end, part_start[keep], side="right"), offset[keep],
            (bar - part_start)[keep], opens[keep], closes[keep], valid[keep], in_range[keep],
            value[keep].astype(np.int64))


def _entity_labels(doc: np.ndarray, entity: np.ndarray) -> np.ndarray:
    """Per mention, mentions sorted by document: the 0-based cluster of its
    entity in its document, clusters numbered in order of first mention."""
    by_entity = np.lexsort((entity, doc))  # stable: each entity's mentions in order
    doc, entity = doc[by_entity], entity[by_entity]
    new = np.ones(len(by_entity), dtype=bool)
    new[1:] = (doc[1:] != doc[:-1]) | (entity[1:] != entity[:-1])
    firsts = by_entity[new]
    rank = np.empty_like(firsts)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    labels = np.empty_like(by_entity)
    labels[by_entity] = rank[np.cumsum(new) - 1] - np.searchsorted(doc[new], doc)
    return labels


def _raise_first(errors: list, path, n_lines: int) -> None:
    """Raise the first of ``(line index, part, message)`` errors, if any;
    line index ``n_lines`` is the end of the file."""
    if errors:
        k, _, message = min(errors)
        raise FormatError(message, path=path, line=int(k) + 1 if k < n_lines else None)


def parse_conll_documents(path) -> list[ConllDocument]:
    """Parse a minimal CoNLL skeleton file into per-document mentions.

    Mentions are numbered in span order (start token, then end token), so
    two files with the same spans number them alike however their brackets
    are stacked; nested and crossing spans are resolved by matching
    brackets per entity id.  A document must end before the next
    ``#begin document``, and entity ids must be below 2**63.  The first
    error in file order raises FormatError.

    The whole file is decoded first and parsed in array passes; only the
    lines that start with '#' are looked at one by one.
    """
    text, codes = _conll_text(path)
    line_start, line_end = _line_bounds(codes)
    doc_ids, begin, stop, closed, error = _conll_blocks(text, codes, line_start, line_end)
    errors = [(error[0], -1, error[1])] if error else []  # (line index, part, message)
    if not doc_ids:
        _raise_first(errors, path, len(line_start))
        return []
    line, doc, token, start, end = _tag_fields(codes, line_start, line_end, begin, stop)
    field, offset, length, opens, closes, valid, in_range, entity = _tag_parts(codes, start, end)
    line, doc, token = line[field], doc[field], token[field]
    good = valid & in_range
    bad = np.flatnonzero(~good)
    if len(bad):
        k = bad[0]
        tag = text[offset[k]:offset[k] + length[k]]
        problem = (f"entity id in coreference tag {tag!r} does not fit int64"
                   if valid[k] else f"unrecognized coreference tag {tag!r}")
        errors.append((line[k], k, f"document {doc_ids[doc[k]]!r}: {problem}"))

    # Match the brackets of multi-token mentions per (document, entity):
    # with its brackets in file order and the depth counted after each, a
    # '(' at depth d pairs with the next ')' that leaves depth d - 1.
    event = np.flatnonzero(good & (opens != closes))
    event = event[np.lexsort((entity[event], doc[event]))]
    event_doc, event_entity, event_opens = doc[event], entity[event], opens[event]
    head = np.ones(len(event), dtype=bool)
    head[1:] = (event_doc[1:] != event_doc[:-1]) | (event_entity[1:] != event_entity[:-1])
    group = np.cumsum(head) - 1
    step = np.where(event_opens, 1, -1)
    depth = np.cumsum(step)
    depth -= (depth - step)[head][group]
    unopened = event[depth < 0]
    if len(unopened):  # the first ')' of an entity with none open
        k = unopened.min()
        errors.append((line[k], k, f"unbalanced brackets in document {doc_ids[doc[k]]!r}: "
                                   f"closing entity {entity[k]} that is not open"))
    tail = np.append(head[1:], True)  # the last bracket of each (document, entity)
    left_open = group[tail & (depth > 0) & (event_doc < closed)]
    if len(left_open):  # name the one whose first '(' comes first
        first_open = np.minimum.reduceat(np.where(event_opens, event, len(good)),
                                         np.flatnonzero(head))[left_open]
        k = first_open.min()
        errors.append((stop[doc[k]], -1, f"unbalanced brackets in document {doc_ids[doc[k]]!r}: "
                                          f"entity {entity[k]} left open"))

    # Mentions of the documents that close before the first error, whose
    # brackets all match.
    ok_docs = int(np.searchsorted(stop[:closed], min(errors)[0] if errors else len(line_start)))
    matched = event[:np.searchsorted(event_doc, ok_docs)]
    level = depth[:len(matched)] + ~event_opens[:len(matched)]
    matched = matched[np.lexsort((level, group[:len(matched)]))]  # '(' then ')' per level
    single = np.flatnonzero(good & opens & closes & (doc < ok_docs))
    mention = np.concatenate((single, matched[0::2]))
    m_doc, m_start, m_entity = doc[mention], token[mention], entity[mention]
    m_end = token[np.concatenate((single, matched[1::2]))]
    order = np.lexsort((m_end, m_start, m_doc))
    m_doc, m_start, m_end, m_entity = m_doc[order], m_start[order], m_end[order], m_entity[order]
    repeated = (m_doc[1:] == m_doc[:-1]) & (m_start[1:] == m_start[:-1]) & (m_end[1:] == m_end[:-1])
    if repeated.any():
        d = m_doc[np.argmax(repeated)]
        errors.append((stop[d], -1, f"duplicate mention span in document {doc_ids[d]!r}"))
    _raise_first(errors, path, len(line_start))
    labels = _entity_labels(m_doc, m_entity)
    bounds = np.searchsorted(m_doc, np.arange(len(doc_ids) + 1)).tolist()
    starts, ends = m_start.tolist(), m_end.tolist()
    return [ConllDocument(doc_id, tuple(zip(starts[a:b], ends[a:b])), Clustering._wrap(labels[a:b]))
            for doc_id, a, b in zip(doc_ids, bounds, bounds[1:])]


def write_conll_responses(items: Iterable[tuple[str, Clustering]], path) -> None:
    """Write clusterings as one-token-per-mention CoNLL response blocks.
    A document id must be a ``str`` (the rule of ``Document``) and must not
    hold ')' or a line break ('\\n' or '\\r', which text-mode reading
    takes for one): either would end it early on reading.  It must be UTF-8
    encodable (no lone surrogate).  InputError before the file is opened."""
    items = list(items)
    for doc_id, _ in items:
        _check_id(doc_id)
        if any(c in doc_id for c in ")\n\r"):
            raise InputError(f"document id {doc_id!r} holds ')' or a line break")
        try:
            doc_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(f"document id {doc_id!r} is not UTF-8 encodable ({exc.reason})"
                             ) from None
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, clustering in items:
            fh.write(f"#begin document ({doc_id}); part 000\n")
            for i, cid in enumerate(clustering.cluster_index().tolist(), start=1):
                fh.write(f"w{i}\t({cid})\n")
            fh.write("#end document\n")

