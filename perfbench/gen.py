"""Seeded benchmark inputs, built by the benchmark itself.

Documents follow the synthetic recipe of the README (Gaussian entity
prototypes; mention features ``[prototype | type one-hot | 1/i, i/n]``;
pair features ``[cosine | distance bucket | type pair]``; Gaussian noise
on every coordinate), vectorised so that documents with hundreds of
mentions are cheap to make.  Nothing here calls ``softcoref``: the
package only ever receives the finished inputs, so a change to its own
generator cannot change what the benchmark measures.

Document sizes are stratified over their range rather than drawn
independently, so every seed gives the same total amount of work up to
one stratum; the seed still decides every size, label and feature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MENTION_TYPES = ("proper", "nominal", "pronominal")
TYPE_PRIOR_FIRST = (0.6, 0.3, 0.1)
TYPE_PRIOR_LATER = (0.15, 0.35, 0.5)
DISTANCE_EDGES = (1, 3, 7)
D_A = 12          # mention features: 7 prototype coordinates, 3 type one-hot, 1/i, i/n
D_P = 14          # pair features: cosine, 4 distance buckets, 9 type pairs
NOISE = 0.1       # standard deviation of the Gaussian feature noise
MOVED_SHARE = 0.2  # share of mentions a CoNLL response moves to another entity


@dataclass(frozen=True)
class RawDocument:
    """One document as plain arrays; mentions are 0-based here."""

    doc_id: str
    labels: np.ndarray        # (n,) latent entity label per mention
    gold_entity: np.ndarray   # (n,) 1-based index of the entity's first mention
    types: np.ndarray         # (n,) index into MENTION_TYPES
    features_a: np.ndarray    # (n, d_a)
    pair_rows: np.ndarray     # (n_pairs,) 0-based i of each pair j < i, row-major
    pair_cols: np.ndarray     # (n_pairs,) 0-based j
    features_p: np.ndarray    # (n_pairs, d_p)

    @property
    def n(self) -> int:
        return len(self.labels)


def stratified(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """``count`` integers in [lo, hi], one per equal-width stratum, shuffled."""
    width = hi - lo + 1
    picks = lo + np.floor(width * (np.arange(count) + rng.random(count)) / count)
    return rng.permutation(picks.astype(np.int64))


def entity_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Labels 0..k-1 over n mentions, each label used at least once."""
    k = min(k, n)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return labels


def first_mentions(labels: np.ndarray) -> np.ndarray:
    """1-based index of the first mention of each mention's label."""
    first: dict[int, int] = {}
    return np.array([first.setdefault(int(lab), i + 1) for i, lab in enumerate(labels)],
                    dtype=np.int64)


def make_document(rng: np.random.Generator, doc_id: str, n: int, k: int) -> RawDocument:
    labels = entity_labels(rng, n, k)
    k = int(labels.max()) + 1
    protos = rng.normal(size=(k, D_A - 5))
    gold = first_mentions(labels)
    opens = gold == np.arange(1, n + 1)
    cum = np.where(opens[:, None], np.cumsum(TYPE_PRIOR_FIRST), np.cumsum(TYPE_PRIOR_LATER))
    types = np.minimum((rng.random(n)[:, None] >= cum).sum(axis=1), len(MENTION_TYPES) - 1)

    idx = np.arange(1, n + 1, dtype=float)
    canonical_a = np.hstack([protos[labels], np.eye(3)[types],
                             (1.0 / idx)[:, None], (idx / n)[:, None]])
    features_a = canonical_a + rng.normal(0.0, NOISE, (n, D_A))

    rows, cols = np.tril_indices(n, k=-1)
    unit = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    sim = (unit[labels[rows]] * unit[labels[cols]]).sum(axis=1)
    bucket = np.searchsorted(np.array(DISTANCE_EDGES), rows - cols)
    canonical_p = np.hstack([sim[:, None], np.eye(len(DISTANCE_EDGES) + 1)[bucket],
                             np.eye(9)[types[cols] * 3 + types[rows]]])
    features_p = canonical_p + rng.normal(0.0, NOISE, (len(rows), D_P))
    return RawDocument(doc_id, labels, gold, types, features_a, rows, cols, features_p)


def make_corpus(rng: np.random.Generator, prefix: str, count: int,
                mentions: tuple[int, int], entities: tuple[int, int]) -> list[RawDocument]:
    sizes = stratified(rng, count, *mentions)
    ks = stratified(rng, count, *entities)
    return [make_document(rng, f"{prefix}-{d:04d}", int(n), int(k))
            for d, (n, k) in enumerate(zip(sizes, ks))]


def write_jsonl(docs: list[RawDocument], path) -> None:
    """Write documents in the corpus format that ``load_corpus`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "id": doc.doc_id,
                "d_a": doc.features_a.shape[1],
                "d_p": doc.features_p.shape[1],
                "mentions": [
                    {"index": i + 1, "type": MENTION_TYPES[doc.types[i]],
                     "gold_entity": int(doc.gold_entity[i]),
                     "features_a": doc.features_a[i].tolist()}
                    for i in range(doc.n)
                ],
                "pairs": [
                    {"j": int(j) + 1, "i": int(i) + 1, "features": f.tolist()}
                    for i, j, f in zip(doc.pair_rows, doc.pair_cols, doc.features_p)
                ],
            }
            fh.write(json.dumps(record))
            fh.write("\n")


# ---------------------------------------------------------------------------
# CoNLL key and response files
# ---------------------------------------------------------------------------

def perturb_labels(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """Move about ``MOVED_SHARE`` of the mentions to another existing entity."""
    out = labels.copy()
    k = int(labels.max()) + 1
    if k < 2:
        return out
    moved = rng.random(len(labels)) < MOVED_SHARE
    shift = rng.integers(1, k, size=len(labels))
    out[moved] = (labels[moved] + shift[moved]) % k
    return out


def token_spans(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Disjoint 1-based token spans of 1-3 tokens with 0-3 filler tokens between."""
    spans = []
    token = 0
    for _ in range(n):
        token += int(rng.integers(0, 4))
        length = int(rng.integers(1, 4))
        spans.append((token + 1, token + length))
        token += length
    return spans


def conll_lines(doc_id: str, spans: list[tuple[int, int]], labels) -> list[str]:
    """One CoNLL block; the last column carries the coreference brackets."""
    last = spans[-1][1] + int(len(spans) % 3)   # trailing filler tokens
    tags: dict[int, list[str]] = {}
    for (start, end), lab in zip(spans, labels):
        if start == end:
            tags.setdefault(start, []).append(f"({lab})")
        else:
            tags.setdefault(start, []).append(f"({lab}")
            tags.setdefault(end, []).append(f"{lab})")
    lines = [f"#begin document ({doc_id}); part 000"]
    for t in range(1, last + 1):
        lines.append(f"{doc_id}\t0\t{t - 1}\tw{t}\t{'|'.join(tags.get(t, ['-']))}")
    lines.append("#end document")
    return lines


def write_conll(blocks: list[list[str]], path) -> int:
    """Write CoNLL blocks; return the number of token lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.write("\n".join(block))
            fh.write("\n")
    return sum(len(block) - 2 for block in blocks)
