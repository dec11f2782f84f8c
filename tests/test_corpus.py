"""Document model, synthetic generation, and corpus / key-file I/O."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcoref import (MENTION_TYPES, Clustering, ConfigError, ConllDocument,
                       Document, FormatError, InputError, Mention, SyntheticConfig,
                       TrainConfig, antecedents_to_clusters, clusters_from_entity_ids,
                       generate_synthetic, load_corpus, parse_conll_documents,
                       save_corpus, train, write_conll_responses)
from softcoref.model import correct_set_mask

from conftest import conll_lines, correct_antecedents, make_document


def pair_dict(doc: Document) -> dict:
    """The document's pair features keyed by (j, i), in row-major order."""
    rows_i, cols_j = doc.tril_pairs
    return dict(zip(zip((cols_j + 1).tolist(), (rows_i + 1).tolist()),
                    doc.pair_feature_matrix))


class TestClustering:
    def test_basic_partition(self):
        c = Clustering([{1, 2}, {3}])
        assert c.num_mentions == 3
        assert len(c) == 2
        assert c.sorted_clusters() == [frozenset({1, 2}), frozenset({3})]

    def test_entity_ids_first_mention_convention(self):
        c = Clustering([{2, 4}, {1, 3}])
        assert c.entity_ids() == {1: 1, 2: 2, 3: 1, 4: 2}

    def test_cluster_index_follows_sorted_clusters(self):
        c = Clustering([{3, 5}, {2, 4}, {1}])
        assert c.cluster_index().tolist() == [0, 1, 2, 1, 2]
        assert c.cluster_index().dtype == np.int64

    def test_empty_clustering_allowed(self):
        assert Clustering().num_mentions == 0
        assert Clustering().cluster_index().shape == (0,)

    def test_rejects_empty_cluster(self):
        with pytest.raises(InputError):
            Clustering([{1}, set()])

    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            Clustering([{1, 2}, {2, 3}])

    @pytest.mark.parametrize("clusters", [[{1, 2}, {1, 2}], [{1}, {1}, {2}]])
    def test_rejects_repeated_cluster(self, clusters):
        with pytest.raises(InputError, match="disjoint"):
            Clustering(clusters)

    def test_rejects_gap_in_coverage(self):
        with pytest.raises(InputError):
            Clustering([{1}, {3}])

    def test_equality_ignores_cluster_order(self):
        assert Clustering([{1, 2}, {3}]) == Clustering([{3}, {2, 1}])

    def test_from_entity_ids(self):
        assert clusters_from_entity_ids([1, 1, 3, 3]) == Clustering([{1, 2}, {3, 4}])

    def test_iterates_and_prints_sorted_clusters(self):
        c = Clustering([{3}, {2, 1}])
        assert list(c) == [frozenset({1, 2}), frozenset({3})]
        assert repr(c) == "Clustering({{1, 2}, {3}})"

    def test_cluster_index_is_read_only(self):
        for c in (Clustering([{1, 3}, {2}]), clusters_from_entity_ids([7, 7, 5]),
                  antecedents_to_clusters([1, 1, 2])):
            with pytest.raises(ValueError):
                c.cluster_index()[0] = 1

    @given(st.lists(st.integers(0, 5), max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_canonical_form(self, labels, rnd):
        """Every way of building one partition gives the same label array."""
        from_ids = clusters_from_entity_ids(labels)
        groups = {}
        for i, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(i)
        sets = [set(g) for g in groups.values()]
        rnd.shuffle(sets)
        antecedents, last = [], {}  # link to the previous mention of the label
        for i, lab in enumerate(labels, start=1):
            antecedents.append(last.get(lab, i))
            last[lab] = i
        builds = [Clustering(sets), antecedents_to_clusters(antecedents),
                  Clustering(from_ids.sorted_clusters())]
        for other in builds:
            assert other == from_ids
            assert hash(other) == hash(from_ids)
            np.testing.assert_array_equal(other.cluster_index(), from_ids.cluster_index())
        firsts = sorted(set(labels), key=labels.index)  # labels by first mention
        assert from_ids.cluster_index().tolist() == [firsts.index(lab) for lab in labels]
        assert from_ids.cluster_index().dtype == np.int64
        assert len(from_ids) == len(set(labels))
        assert from_ids.clusters == frozenset(frozenset(g) for g in groups.values())


class TestMention:
    def test_rejects_unknown_type(self):
        with pytest.raises(InputError):
            Mention(1, "verb", 1, np.zeros(3))

    @pytest.mark.parametrize("index, gold, field", [
        (1.0, 1, "index"), (True, 1, "index"), ("1", 1, "index"),
        (np.float64(1.0), 1, "index"), (np.bool_(True), 1, "index"),
        (1, 1.0, "gold_entity"), (1, True, "gold_entity"), (True, True, "index"),
    ], ids=["float", "bool", "str", "np-float", "np-bool", "float-gold", "bool-gold",
            "bool-both"])
    def test_rejects_non_integer_index_or_gold(self, index, gold, field):
        with pytest.raises(InputError, match=f"mention {field} .* is not an integer"):
            Mention(index, "proper", gold, np.zeros(2))

    def test_numpy_integers_stored_as_int(self, tmp_path):
        m = Mention(np.int64(1), "proper", np.int32(1), np.zeros(2))
        assert type(m.index) is int and type(m.gold_entity) is int
        doc = Document("d", [m], np.zeros((0, 0)))
        save_corpus([doc], tmp_path / "c.jsonl")  # JSON takes only a Python int
        assert load_corpus(tmp_path / "c.jsonl") == [doc]

    def test_features_are_a_read_only_copy(self):
        given = np.array([1.0, 2.0])
        m = Mention(1, "proper", 1, given)
        with pytest.raises(ValueError):
            m.features_a[0] = np.inf
        given[0] = np.inf
        assert m.features_a.tolist() == [1.0, 2.0]
        assert Mention(1, "proper", 1, [1, 2]).features_a.dtype == np.float64

    def test_rejects_features_that_are_not_a_vector(self):
        with pytest.raises(InputError, match="mention 1: features_a is not a vector"):
            Mention(1, "proper", 1, np.zeros((2, 2)))


class TestDocument:
    def test_valid_document_passes(self):
        doc = make_document("d", [1, 1, 3])
        doc.validate()
        assert doc.n == 3
        assert doc.gold_clusters == Clustering([{1, 2}, {3}])

    def test_correct_antecedents(self):
        doc = make_document("d", [1, 1, 3, 1])
        assert correct_antecedents(doc, 1) == {1}
        assert correct_antecedents(doc, 2) == {1}
        assert correct_antecedents(doc, 3) == {3}
        assert correct_antecedents(doc, 4) == {1, 2}
        mask = correct_set_mask(doc.gold_entity_array)
        for i in range(1, doc.n + 1):
            assert set((np.flatnonzero(mask[i - 1]) + 1).tolist()) == correct_antecedents(doc, i)

    def test_missing_pair_rejected(self):
        doc = make_document("d", [1, 1, 3])
        with pytest.raises(InputError, match="pair features"):
            Document(doc.id, doc.mentions,
                     np.delete(doc.pair_feature_matrix, 1, axis=0))  # pair (1, 3)

    def test_inconsistent_gold_entity_rejected(self):
        for labels, mention, expected in [
            ([1, 1, 2], 3, 3),   # mention 2 belongs to entity 1, so 2 opens no entity
            ([2, 2], 1, 1),      # a mention labelled with a later mention
            ([1, 0], 2, 2),      # a label outside 1..n
        ]:
            mentions = [Mention(i, "proper", e, np.zeros(2))
                        for i, e in enumerate(labels, start=1)]
            pairs = {(j, i): np.zeros(3) for i in range(2, len(labels) + 1) for j in range(1, i)}
            with pytest.raises(InputError, match=f"mention {mention} gold_entity .* "
                                                 f"\\(expected {expected}\\)"):
                Document.from_mentions("d", mentions, pairs)

    def test_gold_clusters_derived_from_labels(self):
        doc = make_document("d", [1, 2, 1, 2, 5])
        assert doc.gold_clusters == Clustering([{1, 3}, {2, 4}, {5}])
        assert [f.name for f in dataclasses.fields(Document)] == [
            "id", "mentions", "pair_feature_matrix"]

    def test_pair_feature_matrix_order(self):
        doc = make_document("d", [1, 1, 1])
        pair_features = {(j, i): np.array([j, i, j * i], dtype=float)
                         for i in range(2, 4) for j in range(1, i)}
        doc = Document.from_mentions(doc.id, doc.mentions, pair_features)
        rows_i, cols_j = doc.tril_pairs
        for k in range(len(rows_i)):
            pair = (int(cols_j[k]) + 1, int(rows_i[k]) + 1)
            np.testing.assert_array_equal(doc.pair_feature_matrix[k],
                                          pair_features[pair])

    def test_tril_mask_selects_the_pairs_in_tril_pairs_order(self):
        doc = make_document("d", [1, 2, 1, 3, 3])
        square = np.arange(25.0).reshape(5, 5)
        np.testing.assert_array_equal(square[doc.tril_mask], square[doc.tril_pairs])
        assert make_document("one", [1]).tril_mask.shape == (1, 1)
        np.testing.assert_array_equal(doc.candidate_mask, doc.tril_mask | np.eye(5, dtype=bool))

    def test_from_mentions_any_key_order(self):
        doc = make_document("d", [1, 2, 1, 3, 3, 1], d_p=3)
        row_major = pair_dict(doc)
        keys = list(row_major)
        shuffled = {keys[k]: row_major[keys[k]]
                    for k in np.random.default_rng(0).permutation(len(keys))}
        assert list(shuffled) != keys
        rebuilt = Document.from_mentions(doc.id, doc.mentions, shuffled)
        np.testing.assert_array_equal(rebuilt.pair_feature_matrix, doc.pair_feature_matrix)
        assert rebuilt == doc

    @pytest.mark.parametrize("change, detail", [
        (lambda pairs: pairs.pop((1, 3)), r"missing \[\(1, 3\)\]"),
        (lambda pairs: pairs.update({(3, 3): np.zeros(5)}), r"unexpected \[\(3, 3\)\]"),
        (lambda pairs: pairs.update({(4, 5): np.zeros(5)}), r"unexpected \[\(4, 5\)\]"),
        (lambda pairs: pairs.update(dict.fromkeys(pairs, 0.5)),
         "not numeric vectors of one length"),
    ])
    def test_from_mentions_rejects_wrong_pair_set(self, change, detail):
        doc = make_document("d", [1, 1, 3])
        pairs = pair_dict(doc)
        change(pairs)
        with pytest.raises(InputError, match="pair features") as exc:
            Document.from_mentions(doc.id, doc.mentions, pairs)
        assert exc.match(detail)

    def test_immutable_once_built(self):
        doc = make_document("d", [1, 1, 3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.mentions = doc.mentions[:2]
        with pytest.raises(ValueError):
            doc.gold_entity_array[2] = 1
        listed = Document(doc.id, list(doc.mentions), doc.pair_feature_matrix)
        assert listed.mentions == doc.mentions and listed == doc

    def test_arrays_read_only_however_built(self, tmp_path):
        synthetic = generate_synthetic(SyntheticConfig(num_docs=1, seed=3))
        save_corpus(synthetic, tmp_path / "c.jsonl")
        made = make_document("d", [1, 1, 3])
        direct = Document(made.id, made.mentions, made.pair_feature_matrix.copy())
        for doc in synthetic + load_corpus(tmp_path / "c.jsonl") + [made, direct]:
            for array in (doc.pair_feature_matrix, doc.mention_feature_matrix,
                          doc.mentions[0].features_a, *doc.tril_pairs, doc.tril_mask,
                          doc.candidate_mask):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_direct_construction_takes_ownership_of_the_pair_matrix(self):
        made = make_document("d", [1, 1, 3])
        given = made.pair_feature_matrix.copy()
        doc = Document(made.id, made.mentions, given)
        assert doc.pair_feature_matrix is given
        with pytest.raises(ValueError, match="read-only"):
            given[0, 0] = np.nan
        copied = Document(made.id, made.mentions, given.tolist())
        assert copied == doc and not copied.pair_feature_matrix.flags.writeable

    def test_single_mention_has_no_pair_dimension(self):
        doc = make_document("d", [1])
        doc.validate()
        assert doc.pair_feature_matrix.shape == (0, 0)
        assert doc.d_p == 0

    @pytest.mark.parametrize("indices, features, pairs, message", [
        ([], [], np.zeros((0, 0)), "document d: no mentions"),
        ([1, 3], [2, 2], np.zeros((1, 3)), "mention indices not contiguous 1..n"),
        ([1, 2], [0, 0], np.zeros((1, 3)), "empty mention features"),
        ([1, 2, 3], [2, 2, 3], np.zeros((3, 3)), "inconsistent d_a at mention 3"),
        ([1, 2], [2, 2], np.zeros((1, 0)), "empty pair features"),
    ], ids=["no-mentions", "gap", "empty-d_a", "inconsistent-d_a", "empty-d_p"])
    def test_malformed_document_rejected(self, indices, features, pairs, message):
        mentions = [Mention(i, "proper", 1, np.zeros(d)) for i, d in zip(indices, features)]
        with pytest.raises(InputError, match=message):
            Document("d", mentions, pairs)


class TestSyntheticConfig:
    def test_rejects_empty_mention_range(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_docs=1, mentions_per_doc=(5, 4))

    def test_generates_documents_of_hundreds_of_mentions(self):
        config = SyntheticConfig(num_docs=2, mentions_per_doc=(100, 160),
                                 entities_per_doc=(5, 12), d_a=4, d_p=5, seed=4)
        docs = generate_synthetic(config)
        assert all(100 <= doc.n <= 160 for doc in docs)
        _, history = train(docs[:1], [], TrainConfig(loss="lea", temperature=0.5, epochs=1,
                                                     hidden_a=4, hidden_p=4))
        assert np.isfinite(history.records[0].mean_loss)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_docs=1, d_a=0)

    def test_rejects_negative_document_count(self):
        with pytest.raises(ConfigError, match="num_docs must be nonnegative"):
            SyntheticConfig(num_docs=-1)

    def test_rejects_empty_entity_range(self):
        with pytest.raises(ConfigError, match=r"empty entities_per_doc range \(3, 2\)"):
            SyntheticConfig(num_docs=1, entities_per_doc=(3, 2))

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_docs=1, noise=-0.1)


def loop_generate_synthetic(config: SyntheticConfig) -> list[Document]:
    """Reference generator: the same draws, with one feature vector per pair."""
    def fit(vec, d):
        return vec[:d] if len(vec) >= d else np.concatenate([vec, np.zeros(d - len(vec))])

    def one_hot(k, size):
        v = np.zeros(size)
        v[k] = 1.0
        return v

    def bucket(dist):
        return next((b for b, edge in enumerate((1, 3, 7)) if dist <= edge), 3)

    rng = np.random.default_rng(config.seed)
    proto_dim = max(1, config.d_a - 5)
    docs = []
    for d in range(config.num_docs):
        n = int(rng.integers(config.mentions_per_doc[0], config.mentions_per_doc[1] + 1))
        k = min(int(rng.integers(config.entities_per_doc[0], config.entities_per_doc[1] + 1)), n)
        protos = rng.normal(size=(k, proto_dim))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)
        first_of_label, mentions, type_ids = {}, [], []
        for i in range(1, n + 1):
            lab = int(labels[i - 1])
            prior = (0.6, 0.3, 0.1) if lab not in first_of_label else (0.15, 0.35, 0.5)
            first_of_label.setdefault(lab, i)
            t = int(rng.choice(3, p=prior))
            type_ids.append(t)
            canonical = np.concatenate([protos[lab], one_hot(t, 3), np.array([1.0 / i, i / n])])
            feats = fit(canonical, config.d_a) + rng.normal(0.0, config.noise, config.d_a)
            mentions.append(Mention(i, MENTION_TYPES[t], first_of_label[lab], feats))
        norms = np.linalg.norm(protos, axis=1)
        pair_features = {}
        for i in range(2, n + 1):
            for j in range(1, i):
                li, lj = int(labels[i - 1]), int(labels[j - 1])
                sim = float(protos[li] @ protos[lj]) / float(norms[li] * norms[lj])
                canonical = np.concatenate([np.array([sim]), one_hot(bucket(i - j), 4),
                                            one_hot(type_ids[j - 1] * 3 + type_ids[i - 1], 9)])
                pair_features[(j, i)] = (fit(canonical, config.d_p)
                                         + rng.normal(0.0, config.noise, config.d_p))
        docs.append(Document.from_mentions(f"doc-{d:04d}", mentions, pair_features))
    return docs


class TestGenerateSynthetic:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d_p", [3, 14, 20])
    def test_matches_per_pair_reference(self, seed, d_p):
        config = SyntheticConfig(num_docs=6, mentions_per_doc=(1, 30), entities_per_doc=(1, 6),
                                 d_a=4 + seed, d_p=d_p, noise=0.1 * seed, seed=seed)
        assert generate_synthetic(config) == loop_generate_synthetic(config)

    def test_single_entity_forces_one_cluster(self):
        config = SyntheticConfig(num_docs=1, mentions_per_doc=(3, 3),
                                 entities_per_doc=(1, 1), seed=7)
        (doc,) = generate_synthetic(config)
        assert doc.gold_clusters == Clustering([{1, 2, 3}])

    def test_determinism(self):
        config = SyntheticConfig(num_docs=5, seed=42)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert a == b

    def test_generated_documents_validate(self):
        for doc in generate_synthetic(SyntheticConfig(num_docs=10, seed=3)):
            doc.validate()

    def test_zero_noise_same_entity_pairs_share_similarity(self):
        """Without noise, the prototype-similarity feature is a constant
        of the entity pair, so all pairs inside one entity agree on it."""
        config = SyntheticConfig(num_docs=1, mentions_per_doc=(6, 6),
                                 entities_per_doc=(1, 1), noise=0.0, seed=1)
        (doc,) = generate_synthetic(config)
        sims = {round(float(f[0]), 12) for f in doc.pair_feature_matrix}
        assert sims == {1.0}

    def test_zero_noise_cross_entity_similarity_below_one(self):
        config = SyntheticConfig(num_docs=1, mentions_per_doc=(8, 8),
                                 entities_per_doc=(3, 3), noise=0.0, seed=2)
        (doc,) = generate_synthetic(config)
        ids = doc.gold_clusters.entity_ids()
        rows_i, cols_j = doc.tril_pairs
        for i, j, feats in zip(rows_i + 1, cols_j + 1, doc.pair_feature_matrix):
            if ids[j] == ids[i]:
                assert abs(float(feats[0]) - 1.0) < 1e-12
            else:
                assert float(feats[0]) < 1.0 - 1e-6

    def test_every_entity_nonempty(self):
        config = SyntheticConfig(num_docs=20, mentions_per_doc=(4, 8),
                                 entities_per_doc=(2, 4), seed=9)
        for doc in generate_synthetic(config):
            assert all(len(c) >= 1 for c in doc.gold_clusters.clusters)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gold_entity_is_first_mention(self, seed):
        config = SyntheticConfig(num_docs=1, seed=seed)
        (doc,) = generate_synthetic(config)
        firsts = doc.gold_clusters.entity_ids()
        for m in doc.mentions:
            assert m.gold_entity == firsts[m.index] <= m.index


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=4, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n \t\n\n{second}\n  \n")
        assert load_corpus(path) == docs

    def test_malformed_json_reports_line(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_missing_pair_rejected(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=1, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        record = json.loads(path.read_text())
        record["pairs"] = record["pairs"][1:]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="pair features"):
            load_corpus(path)

    def test_pair_records_in_any_order(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=3, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        rng = np.random.default_rng(0)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["pairs"] = [record["pairs"][k] for k in rng.permutation(len(record["pairs"]))]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert load_corpus(path) == docs

    @pytest.mark.parametrize("change, message", [
        (lambda pairs: pairs.append(dict(pairs[3])), r"given twice for pair \(1, 4\)"),
        (lambda pairs: pairs[3]["features"].pop(), "not numeric vectors of one length"),
        (lambda pairs: pairs[3].update(features=["x"] * len(pairs[3]["features"])),
         "not numeric vectors of one length"),
        (lambda pairs: [pair.update(features=0.5) for pair in pairs],
         "not numeric vectors of one length"),
    ])
    def test_malformed_pair_records_report_line(self, tmp_path, change, message):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        change(record["pairs"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_cross_document_dim_mismatch(self, tmp_path):
        a = generate_synthetic(SyntheticConfig(num_docs=1, d_a=6, seed=1))
        b = generate_synthetic(SyntheticConfig(num_docs=1, d_a=7, seed=2))
        path = tmp_path / "c.jsonl"
        save_corpus(a + b, path)
        with pytest.raises(FormatError, match="dimension mismatch"):
            load_corpus(path)

    @pytest.mark.parametrize("field", ["mention", "pair"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_features_rejected_with_line(self, tmp_path, field, value):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if field == "mention":
            record["mentions"][2]["features_a"][1] = value
        else:
            record["pairs"][-1]["features"][0] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="non-finite features") as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_dim_mismatch_after_single_mention_document(self, tmp_path):
        single = generate_synthetic(SyntheticConfig(num_docs=1, mentions_per_doc=(1, 1),
                                                    d_p=3, seed=1))
        five, seven = (generate_synthetic(SyntheticConfig(num_docs=1, d_p=d_p, seed=2))
                       for d_p in (5, 7))
        path = tmp_path / "c.jsonl"
        save_corpus(single + five + five, path)  # a one-mention document has no d_p
        assert load_corpus(path) == single + five + five
        save_corpus(single + five + seven, path)
        with pytest.raises(FormatError, match="dimension mismatch") as exc:
            load_corpus(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("where", ["index", "gold_entity", "j", "i"])
    @pytest.mark.parametrize("value", [1.9, 2.4, "2", True])
    def test_non_integer_indices_rejected_with_line(self, tmp_path, where, value):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if where in ("index", "gold_entity"):
            record["mentions"][1][where] = value
        else:
            record["pairs"][0][where] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="is not an integer") as exc:
            load_corpus(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("where, value", [
        ("features_a", "0.5"), ("features_a", True), ("features", "0.5"), ("features", True)])
    def test_features_that_are_not_json_numbers_rejected_with_line(self, tmp_path, where,
                                                                     value):
        """A string "0.5" read as 0.5, and true as 1.0, before."""
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if where == "features_a":
            record["mentions"][1]["features_a"][0] = value
            message = "mention 2 features_a must hold JSON numbers"
        else:
            record["pairs"][0]["features"][0] = value
            message = "pair features must hold JSON numbers"
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("key", ["id", "mentions", "pairs", "gold_entity", "features"])
    def test_missing_key_rejected_with_line(self, tmp_path, key):
        docs = generate_synthetic(SyntheticConfig(num_docs=2, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        owner = {"gold_entity": record["mentions"][0],
                 "features": record["pairs"][0]}.get(key, record)
        del owner[key]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"bad document record: '{key}'") as exc:
            load_corpus(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("key", ["d_a", "d_p"])
    def test_declared_dimensions_must_match_features(self, tmp_path, key):
        docs = generate_synthetic(SyntheticConfig(num_docs=1, d_a=6, d_p=7, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        record = json.loads(path.read_text())
        record[key] += 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="declared dimensions .* do not match") as exc:
            load_corpus(path)
        assert exc.value.line == 1

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(FormatError, match="not UTF-8 text") as exc:
            load_corpus(path)
        assert exc.value.path == path

    def test_new_marker_accepted(self, tmp_path):
        docs = generate_synthetic(SyntheticConfig(num_docs=1, seed=5))
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        record = json.loads(path.read_text())
        for m in record["mentions"]:
            if m["gold_entity"] == m["index"]:
                m["gold_entity"] = "new"
        path.write_text(json.dumps(record) + "\n")
        assert load_corpus(path) == docs


class TestConll:
    def _parse(self, tmp_path, body, doc_id="d1"):
        path = tmp_path / "k.conll"
        lines = [f"#begin document ({doc_id})"] + body + ["#end document"]
        path.write_text("\n".join(lines) + "\n")
        return [(d.doc_id, d.clustering) for d in parse_conll_documents(path)]

    def test_two_singleton_spans_one_entity(self, tmp_path):
        [(doc_id, clusters)] = self._parse(tmp_path, ["w1\t(0)", "w2\t(0)"])
        assert doc_id == "d1"
        assert clusters == Clustering([{1, 2}])

    def test_multi_token_mention(self, tmp_path):
        [(_, clusters)] = self._parse(tmp_path, ["w1\t(0", "w2\t0)"])
        assert clusters == Clustering([{1}])

    def test_three_mentions_two_entities(self, tmp_path):
        [(_, clusters)] = self._parse(tmp_path, ["w1\t(0)", "w2\t(1)", "w3\t(0)"])
        assert clusters == Clustering([{1, 3}, {2}])

    def test_nested_spans_numbered_by_start_token(self, tmp_path):
        [(_, clusters)] = self._parse(tmp_path, ["w1\t(0", "w2\t(1)", "w3\t0)"])
        assert clusters == Clustering([{1}, {2}])

    def test_same_start_spans_numbered_shorter_first(self, tmp_path):
        """(1, 3) opens before (1, 1) here, but span order numbers (1, 1) first."""
        path = tmp_path / "k.conll"
        path.write_text("#begin document (d1)\nw1\t(0|(1)\nw2\t-\nw3\t0)\nw4\t(1)\n"
                        "#end document\n")
        [doc] = parse_conll_documents(path)
        assert doc.spans == ((1, 1), (1, 3), (4, 4))
        assert doc.clustering == Clustering([{1, 3}, {2}])

    def test_stacked_brackets_in_either_order_parse_alike(self, tmp_path):
        """The same spans and entities, with the brackets on w1 stacked in
        opposite orders, parse to equal documents."""
        first, second = tmp_path / "a.conll", tmp_path / "b.conll"
        first.write_text("#begin document (d1)\nw1\t(0|(1)\nw2\t0)\nw3\t(1)\n#end document\n")
        second.write_text("#begin document (d1)\nw1\t(1)|(0\nw2\t0)\nw3\t(1)\n#end document\n")
        assert parse_conll_documents(first) == parse_conll_documents(second)

    def test_pipe_separated_brackets(self, tmp_path):
        [(_, clusters)] = self._parse(tmp_path, ["w1\t(0|(1)", "w2\t0)"])
        assert clusters == Clustering([{1}, {2}])

    def test_empty_pipe_parts_skipped(self, tmp_path):
        [(_, clusters)] = self._parse(tmp_path, ["w1\t(0)||", "w2\t|(0)"])
        assert clusters == Clustering([{1, 2}])

    def test_begin_line_without_parentheses(self, tmp_path):
        path = tmp_path / "k.conll"
        path.write_text("#begin document d1; part 000\nw1\t(0)\n#end document\n")
        [doc] = parse_conll_documents(path)
        assert doc.doc_id == "d1; part 000"
        assert doc.clustering == Clustering([{1}])

    def test_unbalanced_open_reports_doc_and_line(self, tmp_path):
        with pytest.raises(FormatError) as exc:
            self._parse(tmp_path, ["w1\t(0"])
        assert "d1" in str(exc.value)
        assert exc.value.line == 3

    def test_unbalanced_close_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="not open"):
            self._parse(tmp_path, ["w1\t0)"])

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "k.conll"
        path.write_bytes(b"#begin document (d1)\nw1\t(0)\n\xff\xfe\n#end document\n")
        with pytest.raises(FormatError, match="not UTF-8 text") as exc:
            parse_conll_documents(path)
        assert exc.value.path == path

    def test_missing_end_rejected(self, tmp_path):
        path = tmp_path / "k.conll"
        path.write_text("#begin document (d1)\nw1\t(0)\n")
        with pytest.raises(FormatError, match="not terminated"):
            parse_conll_documents(path)

    def test_begin_inside_open_document_rejected(self, tmp_path):
        path = tmp_path / "k.conll"
        path.write_text("#begin document (a)\nw1\t(0)\n"
                        "#begin document (b)\nw1\t(0)\n#end document\n")
        with pytest.raises(FormatError, match="document 'a' not terminated") as exc:
            parse_conll_documents(path)
        assert exc.value.line == 3

    def test_end_without_begin_rejected(self, tmp_path):
        path = tmp_path / "k.conll"
        path.write_text("w1\t(0)\n#end document\n")
        with pytest.raises(FormatError, match="without #begin") as exc:
            parse_conll_documents(path)
        assert exc.value.line == 2

    def test_duplicate_span_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="duplicate mention span in document 'd1'") as exc:
            self._parse(tmp_path, ["w1\t(0)|(1)"])
        assert exc.value.line == 3

    @pytest.mark.parametrize("tag", ["(\u00b2)", "(x)", "()", "7", "(\u0663"])
    def test_unrecognized_tag_rejected(self, tmp_path, tag):
        """Tag bodies are ASCII digits only: superscript two and Arabic-Indic
        three pass str.isdigit but are not entity ids."""
        with pytest.raises(FormatError) as exc:
            self._parse(tmp_path, ["w1\t(0)", f"w2\t{tag}"])
        assert str(exc.value) == (f"{tmp_path / 'k.conll'}:3: document 'd1': "
                                  f"unrecognized coreference tag {tag!r}")

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_documents_parse_to_what_was_written(self, tmp_path_factory, seed):
        """Multi-token, nested, crossing and same-start spans, stacked
        brackets, `-`/`_` fillers, whitespace-only lines, space or tab
        columns and LF or CRLF endings."""
        rng = np.random.default_rng(seed)
        lines, expected = [], []
        for d in range(int(rng.integers(1, 4))):
            n_tokens = int(rng.integers(1, 16))
            spans: dict[tuple[int, int], int] = {}
            for _ in range(int(rng.integers(0, 12))):
                start = int(rng.integers(1, n_tokens + 1))
                end = min(n_tokens, start + int(rng.integers(0, 4)))
                entity = int(rng.integers(0, 4))
                # one entity's brackets match last-open-first, so its spans may not cross
                if any(e == entity and (s < start < t < end or start < s < end < t)
                       for (s, t), e in spans.items()):
                    entity = 100 + len(spans)
                spans.setdefault((start, end), entity)
            order = []
            for t in range(1, n_tokens + 1):
                here = [(s, e, ent) for (s, e), ent in spans.items() if s == t]
                here = [here[k] for k in rng.permutation(len(here))]
                for ent in {m[2] for m in here}:  # one entity opening twice: longer first
                    slots = [k for k, m in enumerate(here) if m[2] == ent]
                    for k, m in zip(slots, sorted((here[k] for k in slots), key=lambda m: -m[1])):
                        here[k] = m
                order += here
            mentions = sorted(order)  # the reader numbers mentions in span order
            by_entity: dict[int, list[int]] = {}
            for number, (_, _, ent) in enumerate(mentions, start=1):
                by_entity.setdefault(ent, []).append(number)
            expected.append(ConllDocument(f"doc-{d}", tuple((s, e) for s, e, _ in mentions),
                                          Clustering(by_entity.values())))
            for line in conll_lines(f"doc-{d}", n_tokens, order):
                if line.endswith("\t-") and rng.random() < 0.5:
                    line = line[:-1] + "_"
                if not line.startswith("#") and rng.random() < 0.3:
                    line = line.replace("\t", " ") + " "
                lines.append(line)
                if rng.random() < 0.2:
                    lines.append(str(rng.choice(["", " ", "\t ", "  \t"])))
        path = tmp_path_factory.mktemp("conll") / "k.conll"
        newline = "\r\n" if rng.random() < 0.5 else "\n"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        assert parse_conll_documents(path) == expected

    def test_write_parse_round_trip(self, tmp_path):
        clusters = Clustering([{1, 2, 4}, {3}, {5}])
        path = tmp_path / "r.conll"
        write_conll_responses([("doc", clusters)], path)
        [parsed] = parse_conll_documents(path)
        assert parsed.doc_id == "doc"
        assert parsed.clustering == clusters

    def test_write_distinct_entities(self, tmp_path):
        path = tmp_path / "r.conll"
        write_conll_responses([("doc", Clustering([{1}, {2}]))], path)
        [parsed] = parse_conll_documents(path)
        assert parsed.clustering == Clustering([{1}, {2}])

    def test_empty_clustering_round_trip(self, tmp_path):
        path = tmp_path / "r.conll"
        write_conll_responses([("doc", Clustering())], path)
        [parsed] = parse_conll_documents(path)
        assert parsed.doc_id == "doc"
        assert parsed.clustering == Clustering()

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_random_round_trip(self, tmp_path_factory, seed, n):
        from conftest import random_clustering
        rng = np.random.default_rng(seed)
        clusters = random_clustering(rng, n)
        path = tmp_path_factory.mktemp("conll") / "r.conll"
        write_conll_responses([("doc", clusters)], path)
        [parsed] = parse_conll_documents(path)
        assert parsed.clustering == clusters
