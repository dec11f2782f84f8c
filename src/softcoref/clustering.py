"""Antecedent vectors and greedy link decoding.

An antecedent vector assigns each mention ``i`` a choice ``a_i`` with
``1 <= a_i <= i``; ``a_i = i`` opens a new entity.  Following links to
their roots partitions the mentions into entities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Clustering, _integer_array
from .errors import InputError
from .membership import LinkDistribution


def validate_antecedent_vector(antecedents: Sequence[int]) -> None:
    """InputError unless every a_i is an integer (not a bool) in 1..i."""
    a = _integer_array(antecedents, "antecedent")
    bad = (a < 1) | (a > np.arange(1, len(a) + 1))
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise InputError(f"antecedent a_{i} = {antecedents[i - 1]} out of range 1..{i}")


def antecedents_to_clusters(antecedents: Sequence[int]) -> Clustering:
    """Partition mentions by following antecedent links in one pass: a
    self-link opens the next cluster, any other link joins its target's."""
    validate_antecedent_vector(antecedents)
    return _follow_links(np.asarray(antecedents).tolist())


def _follow_links(antecedents: list[int]) -> Clustering:
    """``antecedents_to_clusters`` of a vector known to be valid."""
    labels, opened = [], 0
    for i, j in enumerate(antecedents, start=1):
        if j == i:
            labels.append(opened)
            opened += 1
        else:
            labels.append(labels[j - 1])
    return Clustering._wrap(np.array(labels, dtype=np.int64))


def decode_argmax(links: LinkDistribution) -> tuple[int, ...]:
    """Most probable antecedent of each mention, ties to smallest index."""
    return tuple((np.argmax(links.probs, axis=1) + 1).tolist())


def decode_clusters(links: LinkDistribution) -> Clustering:
    """Argmax-decode and follow links into a hard clustering."""
    return antecedents_to_clusters(decode_argmax(links))
