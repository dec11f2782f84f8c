"""Documents, synthetic corpora, and corpus / key-file input-output.

A corpus file holds one JSON record per line (one document per record)::

    {"id": "doc-0000", "d_a": 12, "d_p": 14,
     "mentions": [{"index": 1, "type": "proper", "gold_entity": 1,
                   "features_a": [...]}, ...],
     "pairs": [{"j": 1, "i": 2, "features": [...]}, ...]}

``gold_entity`` is the index of the first mention of the entity the
mention belongs to (equal to the mention's own index when the mention
opens a new entity; the string ``"new"`` is accepted as a synonym on
load).  ``pairs`` must list every ordered pair ``j < i`` exactly once, in
any order; in memory a document holds them as one matrix (see
``Document``).

Key files use a minimal CoNLL skeleton: ``#begin document (<id>)`` /
``#end document`` blocks whose last whitespace-separated column carries
coreference brackets ``(e``, ``e)``, ``(e)``, possibly ``|``-separated.
All other columns are ignored.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, FormatError, InputError

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
            fs = frozenset(int(m) for m in cluster)
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
    share a label share a cluster, whatever the label values are."""
    first: dict[int, int] = {}
    labels = [first.setdefault(e, len(first))
              for e in np.asarray(entity_ids, dtype=np.int64).tolist()]
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
            if type(value) is int:  # already normalised (a bool's type is bool)
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InputError(f"mention {name} {value!r} is not an integer")
            object.__setattr__(self, name, int(value))
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

    ``pair_feature_matrix`` holds the features of every pair j < i as one
    float64 array of shape (n_pairs, d_p), in ``tril_pairs`` (row-major)
    order; a document with fewer than two mentions holds a (0, 0) array.
    The Document takes ownership of a float64 matrix (flagging it
    read-only, with no copy) and copies any other.  Gold is stored once,
    as the mentions' ``gold_entity`` labels.  Construction runs
    ``validate`` and raises InputError for an invalid document, so every
    Document is valid; it is immutable after that (its arrays are all
    read-only), and the cached mention matrix, gold clustering and index
    arrays make it safe and cheap to share across repeated loss evaluations.
    """

    id: str
    mentions: tuple[Mention, ...]
    pair_feature_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mentions", tuple(self.mentions))
        pairs = _read_only(np.asarray(self.pair_feature_matrix, dtype=float))
        object.__setattr__(self, "pair_feature_matrix", pairs)
        self.validate()

    @classmethod
    def from_mentions(cls, doc_id: str, mentions: Sequence[Mention],
                      pairs: Mapping[tuple[int, int], np.ndarray]) -> "Document":
        """Build a document from a ``{(j, i): features}`` dict.  Raises
        InputError unless the keys are exactly all pairs j < i and the
        document validates."""
        return _document(doc_id, mentions, _pair_matrix(
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


def _document(doc_id: str, mentions: Sequence[Mention], pairs: np.ndarray) -> Document:
    """A document over pair features in ``tril_pairs`` order."""
    return Document(doc_id, tuple(mentions), pairs if len(pairs) else np.zeros((0, 0)))


def _pair_matrix(doc_id: str, n: int, keys: Sequence, features: Sequence) -> np.ndarray:
    """Pair features listed per ``(j, i)`` key, in any order, as one matrix
    in ``tril_pairs`` order.

    Raises InputError unless the keys are every pair j < i <= n exactly
    once and the features are vectors of one length.
    """
    not_vectors = f"document {doc_id}: pair features are not numeric vectors of one length"
    try:
        feats = np.asarray(features, dtype=float)
    except ValueError as exc:
        raise InputError(not_vectors) from exc
    if len(feats) and feats.ndim != 2:
        raise InputError(not_vectors)
    j, i = np.array(keys, dtype=np.int64).reshape(-1, 2).T
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
        lo, hi = self.mentions_per_doc
        elo, ehi = self.entities_per_doc
        if self.num_docs < 0:
            raise ConfigError("num_docs must be nonnegative")
        if not (1 <= lo <= hi):
            raise ConfigError(f"empty mentions_per_doc range {self.mentions_per_doc}")
        if not (1 <= elo <= ehi):
            raise ConfigError(f"empty entities_per_doc range {self.entities_per_doc}")
        if self.d_a < 1 or self.d_p < 1:
            raise ConfigError("feature dimensions must be at least 1")
        if self.noise < 0:
            raise ConfigError("noise level must be nonnegative")


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
        docs.append(_document(f"doc-{d:04d}", mentions, pairs))
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


def _json_numbers(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A JSON field as a float array of ``shape``: a JSON number for a
    scalar, a flat list of JSON numbers (not "0.5", not true) otherwise."""
    items = value if shape else [value]
    if type(items) is not list or not set(map(type, items)) <= {int, float}:
        raise InputError(f"{name} must hold JSON numbers")
    return np.array(items, dtype=float).reshape(shape)


def _doc_from_record(record: dict, path, lineno: int) -> Document:
    try:
        doc_id, pairs = str(record["id"]), record["pairs"]
        mentions = []
        for m in record["mentions"]:
            gold = m["index"] if m["gold_entity"] == "new" else m["gold_entity"]
            features = _json_numbers(f"document {doc_id}: mention {m['index']} features_a",
                                     m["features_a"], (-1,))
            mentions.append(Mention(m["index"], str(m["type"]), gold, features))
        keys = [(p["j"], p["i"]) for p in pairs]
        bad = [v for v in chain.from_iterable(keys) if type(v) is not int]  # 1.9, "2", true
        if bad:
            raise InputError(f"document {doc_id}: pair index {bad[0]!r} is not an integer")
        features = [p["features"] for p in pairs]
        matrix = _pair_matrix(doc_id, len(mentions), keys, features)
        if not set(map(type, chain.from_iterable(features))) <= {int, float}:
            raise InputError(f"document {doc_id}: pair features must hold JSON numbers")
        doc = _document(doc_id, mentions, matrix)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad document record: {exc}", path=path, line=lineno) from exc
    except InputError as exc:
        raise FormatError(str(exc), path=path, line=lineno) from exc
    if doc.d_a != record.get("d_a") or (doc.n > 1 and doc.d_p != record.get("d_p")):
        raise FormatError(
            f"declared dimensions ({record.get('d_a')}, {record.get('d_p')}) do not match features",
            path=path, line=lineno,
        )
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


def _conll_document(doc_id: str, found: list, open_stacks: dict) -> ConllDocument:
    """Close one document: number its mentions in span order (start token,
    then end token) and group them by entity id.  Raises ValueError for an
    entity left open or a span tagged twice."""
    for entity, stack in open_stacks.items():
        if stack:
            raise ValueError(
                f"unbalanced brackets in document {doc_id!r}: entity {entity} left open")
    found.sort()
    starts, ends, entities = zip(*found) if found else ((),) * 3
    spans = tuple(zip(starts, ends))
    if len(set(spans)) != len(spans):
        raise ValueError(f"duplicate mention span in document {doc_id!r}")
    return ConllDocument(doc_id, spans, clusters_from_entity_ids(entities))


def parse_conll_documents(path) -> list[ConllDocument]:
    """Parse a minimal CoNLL skeleton file into per-document mentions.

    Mentions are numbered in span order (start token, then end token), so
    two files with the same spans number them alike however their brackets
    are stacked; nested and crossing spans are resolved by matching
    brackets per entity id.  A document must end before the next
    ``#begin document``.
    """
    docs: list[ConllDocument] = []
    doc_id = None
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line[:1] == "#":
                if line.startswith("#begin document"):
                    if doc_id is not None:
                        raise FormatError(f"document {doc_id!r} not terminated by #end document",
                                          path=path, line=lineno)
                    rest = line[len("#begin document"):].strip()
                    if rest.startswith("("):
                        close = rest.find(")")
                        doc_id = rest[1:close] if close != -1 else rest[1:]
                    else:
                        doc_id = rest
                    token_no = 0
                    open_stacks: dict[int, list[int]] = {}  # entity -> open start tokens
                    found: list[tuple[int, int, int]] = []  # (start, end, entity)
                    continue
                if line.startswith("#end document"):
                    if doc_id is None:
                        raise FormatError("#end document without #begin", path=path, line=lineno)
                    try:
                        docs.append(_conll_document(doc_id, found, open_stacks))
                    except ValueError as exc:
                        raise FormatError(str(exc), path=path, line=lineno) from exc
                    doc_id = None
                    continue
            if doc_id is None:
                continue
            fields = line.rsplit(None, 1)
            if not fields:
                continue
            token_no += 1
            field = fields[-1]
            if field in ("-", "_"):
                continue
            for part in field.split("|"):
                if not part:
                    continue
                opens = part[0] == "("
                closes = part[-1] == ")"
                body = part[opens:len(part) - closes]
                if not (opens or closes) or not (body.isascii() and body.isdigit()):
                    raise FormatError(f"document {doc_id!r}: unrecognized coreference tag {part!r}",
                                      path=path, line=lineno)
                entity = int(body)
                if opens and closes:  # a one-token mention needs no stack
                    found.append((token_no, token_no, entity))
                elif opens:
                    open_stacks.setdefault(entity, []).append(token_no)
                else:
                    stack = open_stacks.get(entity)
                    if not stack:
                        raise FormatError(
                            f"unbalanced brackets in document {doc_id!r}: "
                            f"closing entity {entity} that is not open",
                            path=path, line=lineno,
                        )
                    found.append((stack.pop(), token_no, entity))
    if doc_id is not None:
        raise FormatError(f"document {doc_id!r} not terminated by #end document", path=path)
    return docs


def write_conll_responses(items: Iterable[tuple[str, Clustering]], path) -> None:
    """Write clusterings as one-token-per-mention CoNLL response blocks."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, clustering in items:
            fh.write(f"#begin document ({doc_id}); part 000\n")
            for i, cid in enumerate(clustering.cluster_index().tolist(), start=1):
                fh.write(f"w{i}\t({cid})\n")
            fh.write("#end document\n")

