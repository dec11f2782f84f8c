"""Shared fixtures and deterministic random-instance helpers."""

import sys

import numpy as np
import pytest

from softcoref import (Clustering, Document, LinkDistribution, Mention,
                       ModelParams, SyntheticConfig, generate_synthetic)


def random_link_distribution(rng: np.random.Generator, n: int) -> LinkDistribution:
    """A random row-stochastic lower-triangular matrix via Dirichlet rows."""
    probs = np.zeros((n, n))
    for i in range(n):
        probs[i, : i + 1] = rng.dirichlet(np.ones(i + 1))
    return LinkDistribution(probs)


def peaked_link_distribution(rng: np.random.Generator, n: int,
                             top: float = 0.98) -> LinkDistribution:
    """Rows with a decisive argmax holding ``top`` of the mass."""
    probs = np.zeros((n, n))
    for i in range(n):
        winner = int(rng.integers(0, i + 1))
        row = rng.dirichlet(np.ones(i + 1)) * (1.0 - top)
        row[winner] += top
        probs[i, : i + 1] = row
    return LinkDistribution(probs)


def random_clustering(rng: np.random.Generator, n: int) -> Clustering:
    labels = rng.integers(0, max(1, int(rng.integers(1, n + 1))), size=n)
    groups = {}
    for i, lab in enumerate(labels, start=1):
        groups.setdefault(int(lab), []).append(i)
    return Clustering(groups.values())


def small_corpus(num_docs=3, seed=0, **overrides) -> list[Document]:
    defaults = dict(num_docs=num_docs, mentions_per_doc=(4, 9),
                    entities_per_doc=(2, 3), d_a=6, d_p=7, noise=0.2, seed=seed)
    defaults.update(overrides)
    return generate_synthetic(SyntheticConfig(**defaults))


def saturated_params(d_a: int, d_p: int) -> ModelParams:
    """Hidden 50/50 with u and v scaled x1000: on synthetic documents with
    d_a 12 and d_p 14 the scores reach the thousands, and the
    softmax-margin losses' correct-set and gold masses underflow to 0."""
    params = ModelParams.random(d_a, d_p, hidden_a=50, hidden_p=50, seed=0)
    params.u *= 1000.0
    params.v *= 1000.0
    return params


def overflowing_params() -> ModelParams:
    """Finite parameters whose scores overflow: every entry of u and u_0
    is 1e308, so on synthetic documents with d_a 12 and d_p 14 a pair
    score, u_0 plus seven such entries times a tanh, leaves float64's
    range."""
    params = ModelParams.random(12, 14, hidden_a=3, hidden_p=4, seed=0)
    params.u[:] = 1e308
    params.u_0 = 1e308
    return params


def nan_gradient_loss(doc, scores, targets, beta, temperature):
    """A loss-registry entry whose loss is finite and whose gradient on
    the scores is NaN."""
    return 0.5, lambda: np.full_like(scores, np.nan)


def conll_lines(doc_id: str, n_tokens: int, mentions) -> list[str]:
    """One CoNLL block over tokens 1..n_tokens.  ``mentions`` are
    (start, end, entity) in the order their brackets open: by start token,
    then list order within a token.  At a token, closing brackets come
    before opening ones; a token without brackets gets ``-``."""
    opens: dict[int, list[str]] = {}
    closes: dict[int, list[str]] = {}
    for start, end, entity in mentions:
        if start == end:
            opens.setdefault(start, []).append(f"({entity})")
        else:
            opens.setdefault(start, []).append(f"({entity}")
            closes.setdefault(end, []).append(f"{entity})")
    lines = [f"#begin document ({doc_id}); part 000"]
    for t in range(1, n_tokens + 1):
        field = "|".join(closes.get(t, []) + opens.get(t, [])) or "-"
        lines.append(f"{doc_id}\t0\t{t - 1}\tw{t}\t{field}")
    lines.append("#end document")
    return lines


@pytest.fixture
def fixture_gold() -> Clustering:
    return Clustering([{1, 2, 3}, {4}])


@pytest.fixture
def fixture_sys() -> Clustering:
    return Clustering([{1, 2}, {3, 4}])


@pytest.fixture
def links3() -> LinkDistribution:
    """The worked n=3 example: p2 = (.6, .4), p3 = (.5, .3, .2)."""
    return LinkDistribution(np.array([
        [1.0, 0.0, 0.0],
        [0.6, 0.4, 0.0],
        [0.5, 0.3, 0.2],
    ]))


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdict lines after the run, whatever the capture mode."""
    acceptance = sys.modules.get("test_acceptance")
    verdicts = getattr(acceptance, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)


def correct_antecedents(doc: Document, i: int) -> frozenset[int]:
    """The candidate set C(m_i) by a per-mention walk: earlier mentions of
    the same entity, or {i} itself when the mention opens its entity."""
    ids = doc.gold_entity_array
    earlier = [j for j in range(1, i) if ids[j - 1] == ids[i - 1]]
    return frozenset(earlier) if earlier else frozenset({i})


def make_document(doc_id: str, entity_ids, d_a: int = 4, d_p: int = 5,
                  seed: int = 0, types=None) -> Document:
    """A document with random features whose mentions share a gold entity
    exactly when their ``entity_ids`` are equal; each label becomes the
    index of its first mention, so any label values give a valid document."""
    rng = np.random.default_rng(seed)
    n = len(entity_ids)
    mention_types = types or ["proper"] * n
    first: dict[int, int] = {}
    mentions = [
        Mention(i, mention_types[i - 1], first.setdefault(int(entity_ids[i - 1]), i),
                rng.normal(size=d_a))
        for i in range(1, n + 1)
    ]
    pair_features = {
        (j, i): rng.normal(size=d_p)
        for i in range(2, n + 1) for j in range(1, i)
    }
    return Document.from_mentions(doc_id, mentions, pair_features)
