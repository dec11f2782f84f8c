#!/usr/bin/env python3
"""Fingerprints of what training and prediction produce, for identity checks.

Records, as SHA-1 digests and as the raw values behind them:

  * for each of the four losses, the parameters that ``train`` returns on
    a small synthetic corpus (n 8-16, hidden 24/32, dev selection every
    epoch) and the bytes of that run's ``history.to_csv()``;
  * the ``predict_antecedents`` tuples of a test corpus at short-document
    sizes (n 8-16, hidden 200/700) and at long-document sizes (n 100-200,
    hidden 24/32), each under a model trained at those sizes.

``--against OLD.json`` compares a run with an earlier one and prints, for
each artifact, "identical" or its largest drift.  softcoref is imported
from ``--src`` (default: ``src/`` of this checkout), and only long-standing
public names are used, so the same script fingerprints a parent commit
checked out with ``git worktree`` or ``git archive``:

    python scripts/fingerprint.py --src ../parent/src --out parent.json
    python scripts/fingerprint.py --against parent.json

A run takes a few seconds with one BLAS thread.  Exit code 0 when
every artifact is identical (or nothing was compared), 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHORT = dict(mentions_per_doc=(8, 16), entities_per_doc=(3, 6))
LONG = dict(mentions_per_doc=(100, 200), entities_per_doc=(8, 20))


def _corpora(sizes: dict, counts: tuple[int, int, int], seed: int) -> list:
    """Train, dev and test corpora of ``counts`` documents."""
    from softcoref import SyntheticConfig, generate_synthetic
    return [generate_synthetic(SyntheticConfig(num_docs=count, seed=seed + k, **sizes))
            for k, count in enumerate(counts)]


def fingerprint(short_docs=(40, 20, 600), long_docs=(4, 4, 60), epochs=3) -> dict:
    """Artifact name -> raw value (parameter list, CSV text or antecedent
    lists).  ``short_docs`` and ``long_docs`` are train/dev/test counts."""
    from softcoref import LOSS_KINDS, TrainConfig, predict_antecedents, train
    artifacts = {}
    train_docs, dev_docs, _ = _corpora(SHORT, short_docs[:2] + (0,), seed=1)
    for loss in LOSS_KINDS:
        config = TrainConfig(loss=loss, temperature=0.5, learning_rate=0.1, epochs=epochs,
                             hidden_a=24, hidden_p=32, seed=0)
        params, history = train(train_docs, dev_docs, config)
        artifacts[f"params/{loss}"] = params.to_vector().tolist()
        artifacts[f"history/{loss}"] = history.to_csv()
    for name, sizes, counts, hidden in (("short", SHORT, short_docs, (200, 700)),
                                        ("long", LONG, long_docs, (24, 32))):
        train_docs, dev_docs, test_docs = _corpora(sizes, counts, seed=10)
        config = TrainConfig(loss="mr-heuristic", learning_rate=0.1, epochs=epochs,
                             hidden_a=hidden[0], hidden_p=hidden[1], seed=0)
        params, _ = train(train_docs, dev_docs, config)
        artifacts[f"predict/{name}"] = [list(predict_antecedents(doc, params))
                                        for doc in test_docs]
    return artifacts


def digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _numbers(value) -> list[float]:
    """The numbers of a parameter list or of a history CSV, in order."""
    if isinstance(value, list):
        return [float(x) for x in value]
    rows = list(csv.reader(io.StringIO(value)))[1:]
    return [float(cell) for row in rows for cell in row]


def drift(name: str, new, old) -> str:
    """"identical", or how far ``new`` is from ``old``."""
    if digest(new) == digest(old):
        return "identical"
    if name.startswith("predict/"):
        if [len(doc) for doc in new] != [len(doc) for doc in old]:
            return "different documents"
        changed = sum(a != b for doc_new, doc_old in zip(new, old)
                      for a, b in zip(doc_new, doc_old))
        return f"{changed} of {sum(map(len, new))} antecedents differ"
    a, b = _numbers(new), _numbers(old)
    if len(a) != len(b):
        return f"different length ({len(a)} vs {len(b)} numbers)"
    gaps = (0.0 if math.isnan(x) and math.isnan(y) else abs(x - y) for x, y in zip(a, b))
    worst = max((math.inf if math.isnan(g) else g for g in gaps), default=0.0)
    scale = max((abs(y) for y in b if not math.isnan(y)), default=0.0)
    return f"largest drift {worst:.3e} (largest |value| {scale:.3e})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softcoref package (default: src/)")
    parser.add_argument("--out", help="write the fingerprints to this JSON file")
    parser.add_argument("--against", help="compare with fingerprints written by --out")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import softcoref
    print(f"softcoref from {Path(softcoref.__file__).parent}")
    artifacts = fingerprint()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"artifacts": artifacts}, fh)
            fh.write("\n")
    old = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)["artifacts"]
    differ = 0
    for name, value in artifacts.items():
        verdict = drift(name, value, old[name]) if name in old else "not in the old file"
        differ += verdict != "identical" and bool(old)
        print(f"{name:<22} {digest(value)}  {verdict if old else ''}".rstrip())
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
