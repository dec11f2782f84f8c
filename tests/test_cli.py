"""End-to-end command-line runs through ``run()``, and one run of the real
entry point, ``python -m softcoref.cli``, in a subprocess."""

import filecmp
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from softcoref import (Clustering, ModelParams, SyntheticConfig, TrainConfig,
                       antecedents_to_clusters, corpus_report, decode_argmax,
                       format_report, link_probabilities, load_corpus, report_csv,
                       score_pairs, write_conll_responses)
from softcoref.cli import run

from conftest import conll_lines, nan_gradient_loss, overflowing_params, saturated_params


def cli(*argv) -> int:
    return run([str(a) for a in argv])


@pytest.fixture
def tiny_corpus(tmp_path):
    path = tmp_path / "train.jsonl"
    assert cli("generate", "--docs", 6, "--seed", 11, "--out", path,
               "--mentions", 3, 7, "--entities", 2, 3,
               "--da", 6, "--dp", 7) == 0
    return path


@pytest.fixture
def overflowing_model(tmp_path):
    """(corpus, model): three synthetic documents and a finite model whose
    scores on them overflow."""
    corpus, huge = tmp_path / "c.jsonl", tmp_path / "huge.json"
    assert cli("generate", "--docs", 3, "--seed", 0, "--out", corpus) == 0
    overflowing_params().save(huge)
    return corpus, huge


@pytest.fixture
def tiny_model(tmp_path, tiny_corpus):
    path = tmp_path / "model.json"
    assert cli("train", "--corpus", tiny_corpus, "--out", path,
               "--epochs", 2, "--hidden-a", 5, "--hidden-p", 6,
               "--seed", 3) == 0
    return path


class TestGenerate:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert cli("generate", "--docs", 3, "--out", out) == 0
        assert out.exists()
        assert "wrote 3 documents" in capsys.readouterr().out
        assert len(out.read_text().strip().split("\n")) == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli("generate", "--docs", 4, "--seed", 9, "--out", out) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_bad_ranges_exit_1(self, tmp_path):
        assert cli("generate", "--docs", 2, "--out", tmp_path / "c.jsonl",
                   "--mentions", 9, 3) == 1

    def test_unwritable_path_exit_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # path component is a regular file: an OS error, not bad usage
        assert cli("generate", "--docs", 1, "--out", blocker / "c.jsonl") == 2

    def test_missing_output_directory_exit_1(self, tmp_path):
        assert cli("generate", "--docs", 1,
                   "--out", tmp_path / "no" / "dir" / "c.jsonl") == 1

    @pytest.mark.parametrize("flags, message", [
        (("--seed", -1), "seed must be nonnegative, got -1"),
        (("--noise", "nan"), "noise level must be nonnegative and finite, got nan"),
        (("--noise", "inf"), "noise level must be nonnegative and finite, got inf")])
    def test_bad_seed_or_noise_exit_1(self, tmp_path, flags, message, capsys):
        out = tmp_path / "c.jsonl"
        assert cli("generate", "--docs", 1, "--out", out, *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTrain:
    def test_with_dev_and_history(self, tmp_path, tiny_corpus, capsys):
        dev = tmp_path / "dev.jsonl"
        assert cli("generate", "--docs", 2, "--seed", 12, "--out", dev,
                   "--mentions", 3, 7, "--entities", 2, 3,
                   "--da", 6, "--dp", 7) == 0
        model = tmp_path / "m.json"
        history = tmp_path / "h.csv"
        assert cli("train", "--corpus", tiny_corpus, "--dev", dev,
                   "--out", model, "--history", history,
                   "--epochs", 2, "--hidden-a", 5, "--hidden-p", 6) == 0
        out = capsys.readouterr().out
        assert "best dev CoNLL" in out
        lines = history.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,muc,b3,ceaf_m,ceaf_e,blanc,lea,conll"
        assert len(lines) == 3

    def test_deterministic_model_files(self, tmp_path, tiny_corpus):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert cli("train", "--corpus", tiny_corpus, "--out", out,
                       "--epochs", 1, "--hidden-a", 4, "--hidden-p", 4) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_relaxed_loss_with_temperature(self, tmp_path, tiny_corpus):
        model = tmp_path / "m.json"
        assert cli("train", "--corpus", tiny_corpus, "--out", model,
                   "--loss", "lea", "--temp", 0.5, "--epochs", 1,
                   "--hidden-a", 4, "--hidden-p", 4) == 0

    def test_missing_corpus_exit_1(self, tmp_path):
        assert cli("train", "--corpus", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "m.json") == 1

    def test_non_finite_features_exit_1(self, tmp_path, tiny_corpus, capsys):
        lines = tiny_corpus.read_text().splitlines()
        record = json.loads(lines[0])
        record["mentions"][0]["features_a"][0] = float("nan")
        lines[0] = json.dumps(record)
        tiny_corpus.write_text("\n".join(lines) + "\n")
        assert cli("train", "--corpus", tiny_corpus,
                   "--out", tmp_path / "m.json") == 1
        assert f"{tiny_corpus}:1" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["mr-heuristic", "ec-heuristic"])
    def test_diverging_run_exit_2(self, tmp_path, loss, capsys):
        corpus = tmp_path / "c.jsonl"
        assert cli("generate", "--docs", 3, "--seed", 0, "--out", corpus) == 0
        hot = tmp_path / "hot.json"
        saturated_params(12, 14).save(hot)
        assert cli("train", "--corpus", corpus, "--init", hot, "--loss", loss,
                   "--epochs", 1, "--out", tmp_path / "m.json") == 2
        assert f"error: non-finite {loss} loss on document" in capsys.readouterr().err

    @pytest.mark.parametrize("l1", [["--l1", 0], []], ids=["no-l1", "default-l1"])
    def test_overflowing_scores_exit_2(self, tmp_path, l1, capsys):
        """Without L1 the membership solves used to raise scipy's
        ValueError; with the default L1 weight the run exited 0 with a mean
        loss of inf."""
        corpus = tmp_path / "c.jsonl"
        assert cli("generate", "--docs", 3, "--seed", 0, "--out", corpus) == 0
        huge = tmp_path / "huge.json"
        overflowing_params().save(huge)
        assert cli("train", "--corpus", corpus, "--init", huge, "--loss", "lea", *l1,
                   "--epochs", 1, "--out", tmp_path / "m.json") == 2
        assert capsys.readouterr().err.startswith("error: non-finite ")

    def test_overflowing_scores_print_only_the_error(self, tmp_path, overflowing_model,
                                                     capsys):
        """numpy's overflow warning from the L1 sum used to come before
        the error line; here any warning raises."""
        corpus, huge = overflowing_model
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("train", "--corpus", corpus, "--init", huge, "--loss", "lea",
                       "--epochs", 1, "--out", tmp_path / "m.json") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite lea loss on document doc-0002\n"
        assert captured.out == ""

    def test_non_finite_gradient_exit_2(self, tmp_path, tiny_corpus, monkeypatch, capsys):
        from softcoref import model
        monkeypatch.setitem(model._LOSSES, "b3", nan_gradient_loss)
        assert cli("train", "--corpus", tiny_corpus, "--loss", "b3", "--epochs", 1,
                   "--hidden-a", 4, "--hidden-p", 4, "--out", tmp_path / "m.json") == 2
        assert "error: non-finite b3 gradient on document" in capsys.readouterr().err

    def test_diverging_update_exit_2(self, tmp_path, tiny_corpus, capsys):
        assert cli("train", "--corpus", tiny_corpus, "--lr", 1.7e308, "--epochs", 1,
                   "--hidden-a", 4, "--hidden-p", 4, "--out", tmp_path / "m.json") == 2
        assert ("error: non-finite parameters after the update on document"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags, setting", [
        (("--beta", "nan"), "beta"), (("--temp", "inf"), "temperature"),
        (("--lr", "inf"), "learning rate"), (("--lr", "nan"), "learning rate"),
        (("--l1", "nan"), "l1 weight"), (("--scale", "-1"), "init scale"),
        (("--alphas", "nan", 1, 1), "alphas"), (("--seed", -1), "seed")])
    def test_non_finite_setting_exit_1(self, tmp_path, tiny_corpus, flags, setting, capsys):
        model = tmp_path / "m.json"
        assert cli("train", "--corpus", tiny_corpus, "--loss", "mr-heuristic",
                   "--epochs", 1, "--hidden-a", 4, "--hidden-p", 4, "--out", model,
                   *flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {setting} ")
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--corpus", "--dev"])
    def test_empty_corpus_exit_1(self, tmp_path, tiny_corpus, capsys, flag):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        corpora = {"--corpus": tiny_corpus, "--dev": tiny_corpus, flag: empty}
        model = tmp_path / "m.json"
        assert cli("train", "--corpus", corpora["--corpus"], "--dev", corpora["--dev"],
                   "--out", model, "--epochs", 1, "--hidden-a", 4, "--hidden-p", 4) == 1
        assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_missing_output_directory_exit_1_before_training(
            self, tmp_path, tiny_corpus, monkeypatch, capsys, flag):
        from softcoref import optim

        def no_training(*args):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(optim, "train", no_training)
        paths = {"--out": tmp_path / "m.json", "--history": tmp_path / "h.csv"}
        paths[flag] = missing = tmp_path / "no" / "dir" / "file"
        assert cli("train", "--corpus", tiny_corpus, "--out", paths["--out"],
                   "--history", paths["--history"]) == 1
        assert capsys.readouterr().err == f"error: {missing}: no such file\n"

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_output_path_is_a_directory_exit_1_before_training(
            self, tmp_path, tiny_corpus, monkeypatch, capsys, flag):
        from softcoref import optim

        def no_training(*args):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(optim, "train", no_training)
        paths = {"--out": tmp_path / "m.json", "--history": tmp_path / "h.csv"}
        paths[flag] = directory = tmp_path / "dir"
        directory.mkdir()
        assert cli("train", "--corpus", tiny_corpus, "--out", paths["--out"],
                   "--history", paths["--history"]) == 1
        assert capsys.readouterr().err == f"error: {directory}: is a directory\n"
        assert not paths["--out"].is_file()

    @pytest.mark.parametrize("flag, other", [
        ("--history", "--out"), ("--out", "--corpus"), ("--history", "--corpus"),
        ("--out", "--dev"), ("--history", "--init"), ("--out", "--init")])
    def test_output_naming_another_file_exit_1_before_training(
            self, tmp_path, tiny_corpus, tiny_model, monkeypatch, capsys, flag, other):
        """``--out m.json --history m.json`` used to exit 0 with the history
        in m.json, and ``--out`` naming ``--corpus`` to overwrite the corpus."""
        from softcoref import optim

        def no_training(*args):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(optim, "train", no_training)
        dev = tmp_path / "dev.jsonl"
        dev.write_bytes(tiny_corpus.read_bytes())
        paths = {"--corpus": tiny_corpus, "--dev": dev, "--init": tiny_model,
                 "--out": tmp_path / "m.json", "--history": tmp_path / "h.csv"}
        paths[flag] = paths[other]
        if flag == "--out" and other == "--corpus":  # the same file by another name
            paths[flag] = tmp_path / "." / tiny_corpus.name
        before = {path: path.read_bytes() for path in paths.values() if path.exists()}
        assert cli("train", *[a for item in paths.items() for a in item]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths[flag]}: {flag} names the same file as {other}\n")
        assert {path: path.read_bytes() for path in paths.values() if path.exists()} == before

    def test_summary_without_dev_reports_the_final_loss(self, tmp_path, tiny_corpus, capsys):
        model = tmp_path / "m.json"
        assert cli("train", "--corpus", tiny_corpus, "--out", model, "--epochs", 2,
                   "--hidden-a", 4, "--hidden-p", 4) == 0
        summary, wrote = capsys.readouterr().out.splitlines()
        assert summary.startswith("trained mr-heuristic for 2 epochs; final mean loss ")
        assert wrote == f"wrote model to {model}"

    def test_unknown_loss_exit_1(self, tmp_path, tiny_corpus):
        assert cli("train", "--corpus", tiny_corpus,
                   "--out", tmp_path / "m.json", "--loss", "hinge") == 1


class TestEvaluate:
    def test_table_output(self, tiny_corpus, tiny_model, capsys):
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", tiny_model) == 0
        out = capsys.readouterr().out
        for name in ("MUC", "B3", "CEAF_m", "CEAF_e", "BLANC", "LEA", "CoNLL"):
            assert name in out

    def test_csv_output(self, tiny_corpus, tiny_model, capsys):
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", tiny_model,
                   "--csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "metric,precision,recall,f"
        assert len(lines) == 8

    def test_missing_model_exit_1(self, tiny_corpus, tmp_path):
        assert cli("evaluate", "--corpus", tiny_corpus,
                   "--model", tmp_path / "nope.json") == 1

    def test_dimension_mismatch_exit_1(self, tmp_path, tiny_model):
        other = tmp_path / "other.jsonl"
        assert cli("generate", "--docs", 2, "--out", other,
                   "--da", 9, "--dp", 7) == 0
        assert cli("evaluate", "--corpus", other, "--model", tiny_model) == 1

    def test_model_dimension_not_an_integer_exit_1(self, tmp_path, tiny_corpus, tiny_model,
                                                    capsys):
        record = json.loads(tiny_model.read_text())
        record["hidden_a"] = 5.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", bad) == 1
        assert "bad model record" in capsys.readouterr().err

    def test_corpus_is_not_a_model_exit_1(self, tiny_corpus):
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", tiny_corpus) == 1

    def test_empty_corpus_exit_1(self, tmp_path, tiny_model, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli("evaluate", "--corpus", empty, "--model", tiny_model) == 1
        assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"

    def test_weight_beyond_float32_scores_in_float64(self, tmp_path, tiny_corpus,
                                                     tiny_model, capsys):
        """A pair weight of 1e39 is a finite JSON number that the model
        loader accepts and float32 cannot hold: the report is the float64
        decoding's, with no overflow warning (which fails the test)."""
        record = json.loads(tiny_model.read_text())
        record["w_p"][0] = 1e39
        big = tmp_path / "big.json"
        big.write_text(json.dumps(record))
        params, docs = ModelParams.load(big), load_corpus(tiny_corpus)
        decoded = [decode_argmax(link_probabilities(score_pairs(doc, params))) for doc in docs]
        expected = format_report(corpus_report(
            [(doc.gold_clusters, antecedents_to_clusters(ants))
             for doc, ants in zip(docs, decoded)])) + "\n"
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", big) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_overflowing_scores_exit_1(self, tmp_path, command, capsys):
        """A finite model whose scores overflow used to be decoded from NaN
        rows, with RuntimeWarnings (which fail the test), and exit 0."""
        corpus = tmp_path / "c.jsonl"
        assert cli("generate", "--docs", 3, "--seed", 0, "--out", corpus) == 0
        huge = tmp_path / "huge.json"
        overflowing_params().save(huge)
        capsys.readouterr()
        assert cli(command, "--corpus", corpus, "--model", huge) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite scores on document doc-0000\n"
        assert captured.out == ""

    @pytest.mark.parametrize("beta", ["nan", "inf", "0"])
    def test_bad_beta_exit_1(self, tiny_corpus, tiny_model, beta, capsys):
        assert cli("evaluate", "--corpus", tiny_corpus, "--model", tiny_model,
                   "--beta", beta) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: beta must be positive and finite")
        assert captured.out == ""


class TestScore:
    def test_self_score_is_perfect(self, tmp_path, capsys):
        key = tmp_path / "key.conll"
        items = [("doc1", Clustering([{1, 2}, {3, 4}])),
                 ("doc2", Clustering([{1, 3}, {2, 4, 5}]))]
        write_conll_responses(items, key)
        assert cli("score", "--key", key, "--response", key, "--csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        for line in lines[1:]:
            name, *values = line.split(",")
            for v in values:
                if v:
                    assert float(v) == 1.0, line

    @pytest.mark.parametrize("beta", ["nan", "inf", "0"])
    def test_bad_beta_exit_1(self, tmp_path, beta, capsys):
        key = tmp_path / "key.conll"
        write_conll_responses([("d", Clustering([{1, 2}]))], key)
        assert cli("score", "--key", key, "--response", key, "--beta", beta) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: beta must be positive and finite")
        assert captured.out == ""

    @pytest.mark.parametrize("entity", ["100000000000000000000000", "1" * 5000],
                             ids=["10**23", "5000 digits"])
    def test_entity_id_past_int64_exit_1(self, tmp_path, entity, capsys):
        key = tmp_path / "key.conll"
        key.write_text(f"#begin document (d)\nw1\t({entity})\n#end document\n")
        assert cli("score", "--key", key, "--response", key) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {key}:2: document 'd': entity id in coreference tag '({entity[:10]}")
        assert captured.out == ""

    def test_span_mismatch_exit_1(self, tmp_path):
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        write_conll_responses([("d", Clustering([{1, 2}, {3}]))], key)
        write_conll_responses([("d", Clustering([{1, 2}]))], resp)
        assert cli("score", "--key", key, "--response", resp) == 1

    def test_missing_document_exit_1(self, tmp_path):
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        write_conll_responses([("a", Clustering([{1}])),
                               ("b", Clustering([{1}]))], key)
        write_conll_responses([("a", Clustering([{1}]))], resp)
        assert cli("score", "--key", key, "--response", resp) == 1

    def test_document_only_in_response_exit_1(self, tmp_path, capsys):
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        write_conll_responses([("a", Clustering([{1}]))], key)
        write_conll_responses([("a", Clustering([{1}])),
                               ("b", Clustering([{1}]))], resp)
        assert cli("score", "--key", key, "--response", resp) == 1
        assert "error: document 'b' in response but not in key" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["key", "response"])
    def test_duplicate_document_ids_exit_1(self, tmp_path, side, capsys):
        once, twice = tmp_path / "once.conll", tmp_path / "twice.conll"
        write_conll_responses([("a", Clustering([{1}]))], once)
        write_conll_responses([("a", Clustering([{1}])), ("a", Clustering([{1}]))], twice)
        key, resp = (twice, once) if side == "key" else (once, twice)
        assert cli("score", "--key", key, "--response", resp) == 1
        assert f"error: duplicate document ids in {side} file" in capsys.readouterr().err

    def test_stacked_brackets_in_either_order_score_alike(self, tmp_path, capsys):
        """The response stacks the key's same-token brackets in another
        order; both files number mentions in span order, so it scores as
        the key does."""
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        # key: m1 = (1, 2) and m2 = (1, 1) open at w1; entities {m1}, {m2, m3}
        key.write_text("#begin document (d); part 000\n"
                       "w1\t(0|(1)\nw2\t0)\nw3\t(1)\n#end document\n")
        # response: m1 = (1, 1), m2 = (1, 2); the same entities by span
        resp.write_text("#begin document (d); part 000\n"
                        "w1\t(5)|(6\nw2\t6)\nw3\t(5)\n#end document\n")
        assert cli("score", "--key", key, "--response", key, "--csv") == 0
        self_score = capsys.readouterr().out
        assert cli("score", "--key", key, "--response", resp, "--csv") == 0
        assert capsys.readouterr().out == self_score

    def test_long_documents_match_corpus_report(self, tmp_path, capsys):
        """16 documents of 20-500 mentions, spans of 1-3 tokens with fillers
        between; the response redraws the entity of about a fifth of them."""
        rng = np.random.default_rng(5)
        keys, responses, pairs = [], [], []
        for d, n in enumerate(np.linspace(20, 500, 16).astype(int)):
            labels = rng.integers(0, max(1, n // 6), size=n)
            moved = np.where(rng.random(n) < 0.2, rng.integers(0, max(1, n // 6), size=n), labels)
            spans, token = [], 0
            for _ in range(n):
                token += int(rng.integers(0, 4))
                length = int(rng.integers(1, 4))
                spans.append((token + 1, token + length))
                token += length
            keys += conll_lines(f"long-{d}", token + 2,
                                [(s, e, lab) for (s, e), lab in zip(spans, labels)])
            responses += conll_lines(f"long-{d}", token + 2,
                                     [(s, e, lab) for (s, e), lab in zip(spans, moved)])
            pairs.append(tuple(Clustering(np.flatnonzero(ids == k) + 1 for k in np.unique(ids))
                               for ids in (labels, moved)))
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        key.write_text("\n".join(keys) + "\n")
        resp.write_text("\n".join(responses) + "\n")
        assert cli("score", "--key", key, "--response", resp, "--csv") == 0
        assert capsys.readouterr().out == report_csv(corpus_report(pairs))

    def test_renumbering_by_span(self, tmp_path, capsys):
        """A response with the key's spans and grouping under other entity
        ids scores 1.0."""
        key, resp = tmp_path / "key.conll", tmp_path / "resp.conll"
        key.write_text(
            "#begin document (d); part 000\n"
            "w1\t(0)\nw2\t(1)\nw3\t(0)\n"
            "#end document\n"
        )
        # same spans and same grouping, different entity ids and order
        resp.write_text(
            "#begin document (d); part 000\n"
            "w1\t(7)\nw2\t(4)\nw3\t(7)\n"
            "#end document\n"
        )
        assert cli("score", "--key", key, "--response", resp, "--csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        muc_row = [l for l in lines if l.startswith("muc")][0]
        assert muc_row == "muc,1.000000,1.000000,1.000000"


class TestErrors:
    def test_breakdown_table(self, tiny_corpus, tiny_model, capsys):
        assert cli("errors", "--corpus", tiny_corpus, "--model", tiny_model) == 0
        out = capsys.readouterr().out
        assert out.startswith("type")
        last = out.strip().split("\n")[-1].split()
        assert last[0] == "all"
        # FA + FN + WL + correct covers every mention in the corpus
        assert sum(int(x) for x in last[1:]) > 0

    def test_missing_corpus_exit_1(self, tmp_path, tiny_model):
        assert cli("errors", "--corpus", tmp_path / "nope.jsonl",
                   "--model", tiny_model) == 1

    def test_empty_corpus_exit_1(self, tmp_path, tiny_model, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli("errors", "--corpus", empty, "--model", tiny_model) == 1
        assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"


class TestGradcheck:
    def test_pass(self, tiny_corpus, capsys):
        assert cli("gradcheck", "--corpus", tiny_corpus, "--loss", "b3",
                   "--ndocs", 2) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_2(self, tiny_corpus, capsys):
        assert cli("gradcheck", "--corpus", tiny_corpus, "--tol", 1e-16) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", 0, -0.5, "inf"])
    def test_tol_outside_zero_to_inf_exit_1(self, tiny_corpus, tol, capsys):
        """A NaN, zero or negative tolerance used to FAIL every check
        (exit 2), and an infinite one to PASS every check."""
        assert cli("gradcheck", "--corpus", tiny_corpus, "--tol", tol) == 1
        out = capsys.readouterr()
        assert not out.out and out.err.startswith("error: --tol must be positive and finite")

    def test_negative_seed_exit_1(self, tiny_corpus, capsys):
        assert cli("gradcheck", "--corpus", tiny_corpus, "--seed", -1) == 1
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"

    def test_bad_step_exit_1(self, tiny_corpus):
        assert cli("gradcheck", "--corpus", tiny_corpus, "--h", 1e-9) == 1

    @pytest.mark.parametrize("ndocs", [0, -1])
    def test_no_documents_to_check_exit_1(self, tiny_corpus, ndocs, capsys):
        assert cli("gradcheck", "--corpus", tiny_corpus, "--ndocs", ndocs) == 1
        out = capsys.readouterr()
        assert "PASS" not in out.out and "--ndocs must be at least 1" in out.err

    def test_with_trained_model(self, tiny_corpus, tiny_model):
        assert cli("gradcheck", "--corpus", tiny_corpus,
                   "--model", tiny_model, "--loss", "ec-heuristic") == 0

    def test_overflowing_scores_print_only_the_error(self, overflowing_model, capsys):
        """numpy's overflow warning from the score sum used to come before
        the error line; here any warning raises."""
        corpus, huge = overflowing_model
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("gradcheck", "--corpus", corpus, "--model", huge, "--loss", "b3") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite scores on document doc-0000\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["evaluate --corpus", "evaluate --model",
                                     "train --init", "score --key"])
def test_file_that_is_not_utf8_exit_1(tmp_path, tiny_corpus, tiny_model, command, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}\n")
    key = tmp_path / "key.conll"
    write_conll_responses([("a", Clustering([{1}]))], key)
    argv = {"evaluate --corpus": ["evaluate", "--corpus", bad, "--model", tiny_model],
            "evaluate --model": ["evaluate", "--corpus", tiny_corpus, "--model", bad],
            "train --init": ["train", "--corpus", tiny_corpus, "--init", bad,
                             "--out", tmp_path / "m.json"],
            "score --key": ["score", "--key", bad, "--response", key]}[command]
    assert cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")


class TestUsage:
    def test_no_command_exit_1(self):
        assert cli() == 1

    def test_unknown_command_exit_1(self):
        assert cli("frobnicate") == 1

    def test_missing_required_flag_exit_1(self):
        assert cli("generate", "--docs", 3) == 1

    def test_unknown_flag_exit_1(self, tmp_path):
        assert cli("generate", "--docs", 1, "--out", tmp_path / "c.jsonl",
                   "--frob", 7) == 1

    def test_parser_builds_without_docstrings(self, monkeypatch):
        """``python -OO`` strips the module docstring the description comes from."""
        import softcoref.cli
        monkeypatch.setattr(softcoref.cli, "__doc__", None)
        assert softcoref.cli._build_parser().description == ""

    def test_defaults_are_the_config_defaults(self):
        """Every flag that maps to a config field defaults to that field's default."""
        from softcoref.cli import _PARSER
        synthetic = SyntheticConfig(num_docs=1)
        args = _PARSER.parse_args(["generate", "--docs", "1", "--out", "c"])
        assert ((args.seed, tuple(args.mentions), tuple(args.entities), args.da, args.dp,
                 args.noise)
                == (synthetic.seed, synthetic.mentions_per_doc, synthetic.entities_per_doc,
                    synthetic.d_a, synthetic.d_p, synthetic.noise))
        training = TrainConfig()
        args = _PARSER.parse_args(["train", "--corpus", "c", "--out", "m"])
        assert ((args.loss, args.beta, args.temp, args.lr, args.epochs, args.lam, args.seed,
                 args.hidden_a, args.hidden_p, args.scale, tuple(args.alphas),
                 tuple(args.gammas))
                == (training.loss, training.beta, training.temperature, training.learning_rate,
                    training.epochs, training.lam, training.seed, training.hidden_a,
                    training.hidden_p, training.init_scale, training.costs.alphas,
                    training.costs.gammas))


class TestEntryPoint:
    def test_each_exit_code_reaches_the_shell(self, tmp_path):
        """``main`` hands ``run``'s code to ``sys.exit``: 0, 1 with one
        error line, and 2 for a check that fails."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def shell(*argv):
            return subprocess.run([sys.executable, "-m", "softcoref.cli", *map(str, argv)],
                                  capture_output=True, text=True, env=env, timeout=120)

        corpus = tmp_path / "c.jsonl"
        done = shell("generate", "--docs", 2, "--seed", 3, "--out", corpus)
        assert (done.returncode, done.stderr) == (0, "") and corpus.exists()
        done = shell("generate", "--docs", -1, "--out", tmp_path / "d.jsonl")
        assert done.returncode == 1
        assert done.stderr == "error: num_docs must be nonnegative, got -1\n"
        done = shell("gradcheck", "--corpus", corpus, "--tol", 1e-30)
        assert done.returncode == 2 and "FAIL" in done.stdout and not done.stderr
