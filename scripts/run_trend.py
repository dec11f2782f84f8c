#!/usr/bin/env python3
"""Trend study: relaxed-metric fine-tuning and the beta knob.

Runs the full experiment pipeline on a synthetic corpus:

  1. train a mention-ranking baseline and report its dev metrics;
  2. fine-tune the relaxed B3 objective from that baseline across
     several seeds and count how often dev B3 matches or improves;
  3. sweep beta for the relaxed objective from random initializations
     and report how recall and precision rank against beta (Spearman).

``trend()`` runs the study and returns its numbers; acceptance 7 in
tests/test_acceptance.py judges them, and ``main`` prints them.

Usage:
    python scripts/run_trend.py
"""

import sys
import time
from dataclasses import dataclass, replace

from scipy.stats import spearmanr

from softcoref import (MetricReport, SyntheticConfig, TrainConfig, beta_sweep,
                       evaluate_corpus, format_report, generate_synthetic, train)

CORPUS = SyntheticConfig(num_docs=130, mentions_per_doc=(8, 16), entities_per_doc=(3, 6),
                         noise=0.1, seed=42)
DEV_DOCS = 30
HIDDEN = dict(hidden_a=24, hidden_p=32)
# baseline trained without dev selection, so fine-tuning below starts
# from a model that has not already saturated the dev metrics
BASELINE = TrainConfig(loss="mr-heuristic", learning_rate=0.1, epochs=6, seed=0, **HIDDEN)
TUNE = TrainConfig(loss="b3", beta=1.0, temperature=0.5, learning_rate=0.02, epochs=5,
                   **HIDDEN)
TUNE_SEEDS = range(5)
# random initializations pooled so that the rank correlations smooth over
# per-seed optimization noise
SWEEP = TrainConfig(loss="b3", learning_rate=0.1, epochs=6, **HIDDEN)
SWEEP_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Trend:
    """The numbers of one run of the study: the baseline's dev report, the
    dev B3 F of each fine-tune seed (``history.best.dev``), each sweep
    seed's (beta, dev report) list, and the Spearman rho of beta against
    the pooled sweep's dev B3 recall and precision."""

    baseline: MetricReport
    tuned_b3: list[float]
    sweep: dict[int, list[tuple[float, MetricReport]]]
    rho_recall: float
    rho_precision: float

    def wins(self) -> list[bool]:
        """Per fine-tune seed: dev B3 matches or beats the baseline's."""
        return [f >= self.baseline.b_cubed.f - 1e-12 for f in self.tuned_b3]


def trend() -> Trend:
    docs = generate_synthetic(CORPUS)
    train_docs, dev_docs = docs[:-DEV_DOCS], docs[-DEV_DOCS:]
    baseline, _ = train(train_docs, [], BASELINE)
    base_report = evaluate_corpus(dev_docs, baseline)
    tuned_b3 = [train(train_docs, dev_docs,
                      replace(TUNE, seed=seed, init_model=baseline))[1].best.dev.b_cubed.f
                for seed in TUNE_SEEDS]
    sweep = {seed: beta_sweep(train_docs, dev_docs, replace(SWEEP, seed=seed))
             for seed in SWEEP_SEEDS}
    points = [(beta, report.b_cubed) for runs in sweep.values() for beta, report in runs]
    betas = [beta for beta, _ in points]
    return Trend(
        baseline=base_report, tuned_b3=tuned_b3, sweep=sweep,
        rho_recall=float(spearmanr(betas, [b3.recall for _, b3 in points]).statistic),
        rho_precision=float(spearmanr(betas, [b3.precision for _, b3 in points]).statistic))


def main() -> int:
    started = time.perf_counter()
    result = trend()
    print(f"corpus: {CORPUS.num_docs - DEV_DOCS} train / {DEV_DOCS} dev documents")

    print("\nmention-ranking baseline, dev metrics:")
    print(format_report(result.baseline))

    print(f"\nfine-tuning relaxed B3 (T={TUNE.temperature}, "
          f"lr={TUNE.learning_rate}, {TUNE.epochs} epochs):")
    base_f = result.baseline.b_cubed.f
    for seed, tuned_f, win in zip(TUNE_SEEDS, result.tuned_b3, result.wins()):
        print(f"  seed {seed}: dev B3 {tuned_f:.4f} "
              f"({'>=' if win else '< '} baseline {base_f:.4f})")
    print(f"  wins: {sum(result.wins())}/{len(TUNE_SEEDS)}")

    print(f"\nbeta sweep with the relaxed {SWEEP.loss.upper()} objective "
          f"from random initializations (seeds {list(SWEEP_SEEDS)}):")
    for seed, runs in result.sweep.items():
        print(f"  seed {seed}:  beta    B3-P    B3-R    B3-F")
        for beta, report in runs:
            print(f"          {beta:6.3f}  {report.b_cubed.precision:.4f}"
                  f"  {report.b_cubed.recall:.4f}  {report.b_cubed.f:.4f}")
    print(f"  Spearman rho(beta, recall)    = {result.rho_recall:+.3f}")
    print(f"  Spearman rho(beta, precision) = {result.rho_precision:+.3f}")

    print(f"\ndone in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}  (the study takes no options; its settings are constants)")
    sys.exit(main())
