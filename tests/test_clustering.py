"""Antecedent vectors, link following, and argmax decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (Clustering, InputError, LinkDistribution,
                       antecedents_to_clusters, decode_argmax, decode_clusters,
                       validate_antecedent_vector)


def one_hot_links(antecedents) -> LinkDistribution:
    n = len(antecedents)
    probs = np.zeros((n, n))
    for i, a in enumerate(antecedents, start=1):
        probs[i - 1, a - 1] = 1.0
    return LinkDistribution(probs)


@st.composite
def antecedent_vectors(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.integers(1, i)) for i in range(1, n + 1))


class TestValidation:
    def test_first_mention_must_self_link(self):
        with pytest.raises(InputError):
            validate_antecedent_vector([2])

    def test_forward_link_rejected(self):
        with pytest.raises(InputError):
            validate_antecedent_vector([1, 3, 3])

    def test_valid_vector_passes(self):
        validate_antecedent_vector([1, 1, 2, 4])
        validate_antecedent_vector(np.array([1, 2], dtype=np.uint8))
        validate_antecedent_vector([])

    @pytest.mark.parametrize("antecedents", [[1, 1.5], [1.0, 1.0], [True], np.array([1.0]),
                                             [1, True], (1, 1, np.True_)])
    def test_non_integer_antecedent_rejected(self, antecedents):
        with pytest.raises(InputError, match="is not an integer"):
            validate_antecedent_vector(antecedents)
        with pytest.raises(InputError, match="is not an integer"):
            antecedents_to_clusters(antecedents)


class TestAntecedentsToClusters:
    def test_single_chain(self):
        assert antecedents_to_clusters([1, 1, 2]) == Clustering([{1, 2, 3}])

    def test_all_self_links(self):
        assert antecedents_to_clusters([1, 2, 3]) == Clustering([{1}, {2}, {3}])

    def test_mixed_chains(self):
        assert antecedents_to_clusters([1, 1, 3, 2]) == Clustering([{1, 2, 4}, {3}])

    @given(antecedent_vectors())
    @settings(max_examples=200, deadline=None)
    def test_output_is_valid_partition(self, a):
        clusters = antecedents_to_clusters(a)
        assert clusters.num_mentions == len(a)
        assert len(clusters) == sum(1 for i, ai in enumerate(a, start=1) if ai == i)

    @given(antecedent_vectors())
    @settings(max_examples=200, deadline=None)
    def test_linked_mentions_share_cluster(self, a):
        ids = antecedents_to_clusters(a).entity_ids()
        for i, ai in enumerate(a, start=1):
            assert ids[i] == ids[ai]


class TestDecodeArgmax:
    def test_single_mention(self):
        assert decode_argmax(one_hot_links([1])) == (1,)

    def test_picks_row_argmax(self):
        links = LinkDistribution(np.array([
            [1.0, 0.0, 0.0],
            [0.6, 0.4, 0.0],
            [0.5, 0.3, 0.2],
        ]))
        assert decode_argmax(links) == (1, 1, 1)

    def test_tie_breaks_to_smallest_index(self):
        links = LinkDistribution(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert decode_argmax(links) == (1, 1)

    def test_rejects_denormalized_rows(self):
        probs = np.eye(2)
        links = LinkDistribution(probs)
        with pytest.raises(ValueError):
            links.probs[1, 1] = 0.9  # the checked rows are read-only
        probs[1, 1] = 0.9  # and a copy of the caller's array
        assert decode_argmax(links) == (1, 2)
        with pytest.raises(InputError):
            LinkDistribution(probs)

    @given(antecedent_vectors())
    @settings(max_examples=200, deadline=None)
    def test_one_hot_round_trip(self, a):
        assert decode_argmax(one_hot_links(a)) == a
        assert decode_clusters(one_hot_links(a)) == antecedents_to_clusters(a)
