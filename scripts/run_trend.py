#!/usr/bin/env python3
"""Trend study: relaxed-metric fine-tuning and the beta knob.

Runs the full experiment pipeline on a synthetic corpus:

  1. train a mention-ranking baseline and report its dev metrics;
  2. fine-tune the relaxed B3 objective from that baseline across
     several seeds and count how often dev B3 matches or improves;
  3. sweep beta for the relaxed objective from random initializations
     and report how recall and precision rank against beta (Spearman).

The defaults mirror the regime exercised by tests/test_acceptance.py;
flags allow exploring other corpus shapes or training lengths.

Usage:
    python scripts/run_trend.py
    python scripts/run_trend.py --docs 260 --dev-docs 60 --sweep-loss lea
"""

import argparse
import sys
import time

from scipy.stats import spearmanr

from softcoref import (SyntheticConfig, TrainConfig, beta_sweep,
                       evaluate_corpus, format_report, generate_synthetic,
                       train)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=130,
                        help="total synthetic documents (default 130)")
    parser.add_argument("--dev-docs", type=int, default=30,
                        help="documents held out for dev (default 30)")
    parser.add_argument("--mentions", type=int, nargs=2, default=(8, 16),
                        metavar=("LO", "HI"), help="mentions per document")
    parser.add_argument("--entities", type=int, nargs=2, default=(3, 6),
                        metavar=("LO", "HI"), help="entities per document")
    parser.add_argument("--noise", type=float, default=0.1,
                        help="feature noise sigma (default 0.1)")
    parser.add_argument("--corpus-seed", type=int, default=42)
    parser.add_argument("--hidden-a", type=int, default=24)
    parser.add_argument("--hidden-p", type=int, default=32)
    parser.add_argument("--base-epochs", type=int, default=6,
                        help="mention-ranking baseline epochs (default 6)")
    parser.add_argument("--base-lr", type=float, default=0.1)
    parser.add_argument("--tune-epochs", type=int, default=5)
    parser.add_argument("--tune-lr", type=float, default=0.02)
    parser.add_argument("--tune-temp", type=float, default=0.5)
    parser.add_argument("--tune-seeds", type=int, default=5,
                        help="fine-tuning seeds 0..N-1 (default 5)")
    parser.add_argument("--sweep-loss", choices=("b3", "lea"), default="b3")
    parser.add_argument("--sweep-epochs", type=int, default=6)
    parser.add_argument("--sweep-lr", type=float, default=0.1)
    parser.add_argument("--sweep-seeds", type=int, nargs="+", default=(0, 1, 2),
                        help="random-init seeds pooled for the sweep")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()

    docs = generate_synthetic(SyntheticConfig(
        num_docs=args.docs, mentions_per_doc=tuple(args.mentions),
        entities_per_doc=tuple(args.entities), noise=args.noise,
        seed=args.corpus_seed))
    split = args.docs - args.dev_docs
    train_docs, dev_docs = docs[:split], docs[split:]
    print(f"corpus: {len(train_docs)} train / {len(dev_docs)} dev documents")

    # baseline trained without dev selection, so fine-tuning below starts
    # from a model that has not already saturated the dev metrics
    base_config = TrainConfig(loss="mr-heuristic", learning_rate=args.base_lr,
                              epochs=args.base_epochs, seed=0,
                              hidden_a=args.hidden_a, hidden_p=args.hidden_p)
    baseline, _ = train(train_docs, [], base_config)
    base_report = evaluate_corpus(dev_docs, baseline)
    print("\nmention-ranking baseline, dev metrics:")
    print(format_report(base_report))

    print(f"\nfine-tuning relaxed B3 (T={args.tune_temp}, "
          f"lr={args.tune_lr}, {args.tune_epochs} epochs):")
    wins = 0
    for seed in range(args.tune_seeds):
        config = TrainConfig(loss="b3", beta=1.0, temperature=args.tune_temp,
                             learning_rate=args.tune_lr,
                             epochs=args.tune_epochs, seed=seed,
                             init_model=baseline, hidden_a=args.hidden_a,
                             hidden_p=args.hidden_p)
        _, history = train(train_docs, dev_docs, config)
        tuned_f = history.best.dev.b_cubed.f
        win = tuned_f >= base_report.b_cubed.f - 1e-12
        wins += win
        print(f"  seed {seed}: dev B3 {tuned_f:.4f} "
              f"({'>=' if win else '< '} baseline {base_report.b_cubed.f:.4f})")
    print(f"  wins: {wins}/{args.tune_seeds}")

    print(f"\nbeta sweep with the relaxed {args.sweep_loss.upper()} objective "
          f"from random initializations (seeds {list(args.sweep_seeds)}):")
    betas, recalls, precisions = [], [], []
    for seed in args.sweep_seeds:
        config = TrainConfig(loss=args.sweep_loss, learning_rate=args.sweep_lr,
                             epochs=args.sweep_epochs, seed=seed,
                             hidden_a=args.hidden_a, hidden_p=args.hidden_p)
        print(f"  seed {seed}:  beta    B3-P    B3-R    B3-F")
        for beta_value, report in beta_sweep(train_docs, dev_docs, config):
            betas.append(beta_value)
            recalls.append(report.b_cubed.recall)
            precisions.append(report.b_cubed.precision)
            print(f"          {beta_value:6.3f}  {report.b_cubed.precision:.4f}"
                  f"  {report.b_cubed.recall:.4f}  {report.b_cubed.f:.4f}")
    rho_recall = float(spearmanr(betas, recalls).statistic)
    rho_precision = float(spearmanr(betas, precisions).statistic)
    print(f"  Spearman rho(beta, recall)    = {rho_recall:+.3f}")
    print(f"  Spearman rho(beta, precision) = {rho_precision:+.3f}")

    print(f"\ndone in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
