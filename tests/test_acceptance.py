"""Acceptance gate: nine end-to-end checks with printed verdicts.

Each test covers one numbered acceptance criterion and prints a single
"[PASS] acceptance N: ..." or "[FAIL] acceptance N: ..." line on the
real stdout, bypassing pytest capture, so the verdicts are visible in
any run.  The criteria:

  1. membership rows are probability distributions on 1000 random link
     matrices with up to 50 mentions, in under 10 seconds;
  2. anchor mass never grows: q[i][u] <= q[u][u] on the same inputs;
  3. the membership recursion matches brute-force enumeration over all
     antecedent vectors on 200 documents with up to 7 mentions;
  4. exact metrics reproduce hand-computed fixture values, and the
     Hungarian CEAF alignment equals exhaustive permutation search;
  5. tempered relaxed B3/LEA converge monotonically to the exact score
     of the decoded clustering as the temperature is lowered;
  6. all four training losses pass finite-difference gradient checks on
     20 random documents, in under 60 seconds;
  7. in the trend study of scripts/run_trend.py, the mention-ranking
     baseline reaches dev CoNLL >= 0.95, fine-tuning the relaxed B3
     objective from it matches or beats its dev B3 on at least 3 seeds,
     and the beta sweep moves recall up and precision down (Spearman),
     all in under 10 minutes;
  8. the error breakdown partitions mentions across FA / FN / WL /
     correct on 500 random predictions, and each error type is hit by a
     dedicated crafted case;
  9. corpus generation and training are bit-identical across reruns.
"""

import importlib.util
import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from softcoref import (Clustering, LinkDistribution, ModelParams,
                       SyntheticConfig, TrainConfig, b_cubed, blanc, ceaf_e, ceaf_m,
                       decode_clusters, error_breakdown, generate_synthetic,
                       grad_check, lea, membership, muc, relaxed_b3, relaxed_lea,
                       save_corpus, train)
from softcoref.analysis import ERROR_KINDS
from softcoref.corpus import MENTION_TYPES
from softcoref.model import LOSS_KINDS

from conftest import (make_document, random_clustering,
                      random_link_distribution)
from oracles import brute_force_membership

ROOT = Path(__file__).resolve().parents[1]
TEMPERATURE_GRID = (1.0, 0.3, 0.1, 0.03, 0.01)

# one line per criterion; echoed after the run by a conftest summary hook
VERDICTS: list[str] = []


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {label}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def membership_suite():
    """1000 random link matrices and their membership matrices, timed."""
    rng = np.random.default_rng(1093)
    memberships = []
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        memberships.append(membership(random_link_distribution(rng, n)).probs)
    return memberships, time.perf_counter() - start


def test_1_membership_rows_are_distributions(membership_suite):
    memberships, elapsed = membership_suite
    worst = max(float(np.max(np.abs(q.sum(axis=1) - 1.0))) for q in memberships)
    _verdict(1, "membership rows sum to one (1000 random link matrices, n <= 50)",
             worst <= 1e-9 and elapsed < 10.0,
             f"max |row sum - 1| = {worst:.2e}, {elapsed:.1f}s")


def test_2_anchor_mass_never_grows(membership_suite):
    memberships, _ = membership_suite
    worst = -np.inf
    for q in memberships:
        n = q.shape[0]
        if n < 2:
            continue
        excess = q - np.diag(q)[None, :]
        worst = max(worst, float(np.max(excess[np.tril_indices(n, k=-1)])))
    _verdict(2, "anchor mass bound q[i][u] <= q[u][u] on the same inputs",
             worst <= 1e-12, f"max q[i][u] - q[u][u] = {worst:.2e}")


def test_3_recursion_matches_enumeration():
    rng = np.random.default_rng(733)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        links = random_link_distribution(rng, n)
        delta = np.abs(membership(links).probs - brute_force_membership(links).probs)
        worst = max(worst, float(delta.max()))
    _verdict(3, "recursion matches brute-force enumeration (200 documents, n <= 7)",
             worst < 1e-10, f"max |delta| = {worst:.2e}")


def _random_side(rng: np.random.Generator, n: int) -> Clustering:
    """A clustering of mentions 1..n with at most 6 entities."""
    labels = rng.integers(0, int(rng.integers(1, 7)), size=n)
    groups: dict[int, set[int]] = {}
    for m, lab in enumerate(labels, start=1):
        groups.setdefault(int(lab), set()).add(m)
    return Clustering(groups.values())


def _alignment_prf(gold: Clustering, resp: Clustering, entity_sim, entity_norm):
    """CEAF by exhaustive search over injective cluster alignments."""
    gold_sets = [set(c) for c in gold.sorted_clusters()]
    resp_sets = [set(c) for c in resp.sorted_clusters()]
    small, large = sorted((gold_sets, resp_sets), key=len)
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        total = sum(entity_sim(s, large[j]) for s, j in zip(small, perm))
        best = max(best, total)
    precision = best / sum(entity_norm(c) for c in resp_sets)
    recall = best / sum(entity_norm(c) for c in gold_sets)
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def test_4_exact_metric_fixtures_and_ceaf_alignment():
    gold = Clustering([{1, 2, 3}, {4}])
    system = Clustering([{1, 2}, {3, 4}])
    fixture_checks = [
        ("B3", b_cubed(gold, system).f, 12 / 17, 1e-12),
        ("LEA", lea(gold, system).f, 1 / 3, 1e-12),
        ("MUC", muc(gold, system).f, 1 / 2, 1e-12),
        ("CEAF_e", ceaf_e(gold, system).f, 0.7333, 1e-4),
        ("CEAF_m", ceaf_m(gold, system).f, 0.75, 1e-12),
        ("BLANC", blanc(gold, system).f, 0.4857, 1e-4),
    ]
    bad_fixtures = [name for name, got, want, tol in fixture_checks
                    if abs(got - want) > tol]

    # phi_3(A, B) = |A & B| for mention-based CEAF, phi_4 for entity-based.
    variants = (
        (ceaf_m, lambda a, b: float(len(a & b)), len),
        (ceaf_e, lambda a, b: 2.0 * len(a & b) / (len(a) + len(b)),
         lambda c: 1),
    )
    rng = np.random.default_rng(44)
    bad_alignments = 0
    for _ in range(100):
        n = int(rng.integers(2, 15))
        key, resp = _random_side(rng, n), _random_side(rng, n)
        for scorer, entity_sim, entity_norm in variants:
            got = scorer(key, resp).as_tuple()
            want = _alignment_prf(key, resp, entity_sim, entity_norm)
            if any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
                bad_alignments += 1
    _verdict(4, "exact metric fixtures and CEAF alignment optimum",
             not bad_fixtures and bad_alignments == 0,
             f"fixture mismatches {bad_fixtures or 'none'}, "
             f"alignment mismatches {bad_alignments}/200")


def _peaked_singleton_free(rng: np.random.Generator, n: int,
                           top: float) -> LinkDistribution:
    """Peaked random links whose decoded clustering has no singletons.

    Mentions are partitioned into clusters of size >= 2 and each row's
    argmax stays inside its cluster.  Decoded singletons are excluded on
    purpose: a predicted entity that collapses to a single mention has
    vanishing soft link mass, so its resolved-link ratio in the relaxed
    LEA has no limit as T drops and the approach to the exact score is
    not monotone through the zero-denominator guard.  With every decoded
    entity keeping at least two mentions, all ratio denominators have
    positive limits and the convergence claim holds cleanly.
    """
    k = int(rng.integers(1, n // 2 + 1))
    sizes = np.full(k, 2) + rng.multinomial(n - 2 * k, np.ones(k) / k)
    labels = np.repeat(np.arange(k), sizes)
    rng.shuffle(labels)
    probs = np.zeros((n, n))
    members: dict[int, list[int]] = {}
    for i in range(n):
        cluster = members.setdefault(int(labels[i]), [])
        winner = i if not cluster else int(rng.choice(cluster))
        cluster.append(i)
        row = rng.dirichlet(np.ones(i + 1)) * (1.0 - top)
        row[winner] += top
        probs[i, : i + 1] = row
    return LinkDistribution(probs)


def test_5_relaxed_metrics_reach_decoded_scores():
    rng = np.random.default_rng(55)
    worst_final, monotone = 0.0, True
    for _ in range(50):
        n = int(rng.integers(2, 17))
        links = _peaked_singleton_free(rng, n,
                                       top=float(rng.uniform(0.98, 0.995)))
        gold = random_clustering(rng, n)
        soft = membership(links)
        decoded = decode_clusters(links)
        for relaxed, exact in ((relaxed_b3, b_cubed), (relaxed_lea, lea)):
            target = exact(gold, decoded).f
            gaps = [abs(relaxed(soft, gold, 1.0, t).value - target)
                    for t in TEMPERATURE_GRID]
            monotone &= all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
            worst_final = max(worst_final, gaps[-1])
    _verdict(5, "tempered relaxed B3/LEA converge to the decoded exact scores",
             monotone and worst_final < 1e-2,
             f"monotone {monotone}, max gap at T=0.01 = {worst_final:.2e}")


def test_6_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(66)
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 11))
        # entity ids anchored at their first mention's index
        first_seen: dict[int, int] = {}
        entity_ids = [first_seen.setdefault(int(lab), i)
                      for i, lab in enumerate(
                          rng.integers(0, max(1, n // 2), size=n), start=1)]
        types = [str(t) for t in rng.choice(MENTION_TYPES, size=n)]
        doc = make_document(f"grad{k}", entity_ids, d_a=3, d_p=4,
                            seed=100 + k, types=types)
        params = ModelParams.random(3, 4, hidden_a=int(rng.integers(2, 9)),
                                    hidden_p=int(rng.integers(2, 9)),
                                    scale=0.5, seed=200 + k)
        for kind in LOSS_KINDS:
            worst = max(worst, grad_check(doc, params, kind, h=1e-5, seed=k))
    elapsed = time.perf_counter() - start
    _verdict(6, "analytic gradients match central differences for all four losses",
             worst < 1e-5 and elapsed < 60.0,
             f"max relative error = {worst:.2e}, {elapsed:.1f}s")


def test_7_training_trends_on_synthetic_corpus():
    start = time.perf_counter()
    spec = importlib.util.spec_from_file_location("run_trend", ROOT / "scripts" / "run_trend.py")
    run_trend = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_trend)
    trend = run_trend.trend()
    conll_ok = trend.baseline.conll >= 0.95
    wins = sum(trend.wins())
    wins_ok = wins >= 3
    sweep_ok = trend.rho_recall >= 0.6 and trend.rho_precision <= -0.6
    elapsed = time.perf_counter() - start
    _verdict(7, "training trends on the synthetic corpus",
             conll_ok and wins_ok and sweep_ok and elapsed < 600.0,
             f"dev CoNLL {trend.baseline.conll:.4f}, "
             f"fine-tune wins {wins}/{len(trend.tuned_b3)}, "
             f"rho(beta, recall) {trend.rho_recall:+.3f}, "
             f"rho(beta, precision) {trend.rho_precision:+.3f}, {elapsed:.0f}s")


def test_8_error_breakdown_partitions_mentions():
    rng = np.random.default_rng(88)
    partition_ok = True
    for k in range(500):
        n = int(rng.integers(1, 10))
        entity_ids = rng.integers(1, n + 1, size=n)
        types = [str(t) for t in rng.choice(MENTION_TYPES, size=n)]
        doc = make_document(f"err{k}", entity_ids, d_a=2, d_p=2,
                            seed=300 + k, types=types)
        predicted = tuple(int(rng.integers(1, i + 1)) for i in range(1, n + 1))
        breakdown = error_breakdown(doc, predicted)
        per_type = {t: sum(getattr(breakdown, kind)[t] for kind in ERROR_KINDS)
                    for t in MENTION_TYPES}
        expected = {t: types.count(t) for t in MENTION_TYPES}
        partition_ok &= breakdown.num_mentions == n and per_type == expected

    def error_profile(entity_ids, predicted):
        b = error_breakdown(make_document("crafted", entity_ids), predicted)
        return b.total("fa"), b.total("fn"), b.total("wl")

    crafted_ok = (
        # discourse-new mention linked to an antecedent: false anaphor
        error_profile([1, 2], (1, 1)) == (1, 0, 0)
        # anaphoric mention predicted discourse-new: false new
        and error_profile([1, 1], (1, 2)) == (0, 1, 0)
        # anaphoric mention linked outside its entity: wrong link
        and error_profile([1, 1, 3, 3], (1, 1, 3, 2)) == (0, 0, 1)
    )
    _verdict(8, "error breakdown partitions mentions by type",
             partition_ok and crafted_ok,
             f"partition {partition_ok}, crafted cases {crafted_ok}")


def test_9_generation_and_training_are_deterministic(tmp_path):
    config = SyntheticConfig(num_docs=8, mentions_per_doc=(4, 9),
                             entities_per_doc=(2, 3), d_a=6, d_p=7,
                             noise=0.2, seed=9)
    first, second = generate_synthetic(config), generate_synthetic(config)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(first, path_a)
    save_corpus(second, path_b)
    generate_ok = path_a.read_bytes() == path_b.read_bytes()

    train_config = TrainConfig(loss="b3", learning_rate=0.1, epochs=3, seed=5,
                               temperature=0.5, hidden_a=6, hidden_p=8)
    runs = [train(first[:6], first[6:], train_config) for _ in range(2)]
    params_ok = np.array_equal(runs[0][0].to_vector(), runs[1][0].to_vector())
    history_ok = runs[0][1].to_csv() == runs[1][1].to_csv()
    _verdict(9, "generation and training are bit-identical across reruns",
             generate_ok and params_ok and history_ok,
             f"corpus files {generate_ok}, parameters {params_ok}, "
             f"history {history_ok}")
