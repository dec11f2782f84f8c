"""Command-line interface.

Subcommands: generate (synthetic corpus), train, evaluate (corpus +
model), score (CoNLL key vs response files), errors (per-type error
breakdown), gradcheck (finite-difference validation of the analytic
gradients).  Exit codes: 0 success, 1 invalid usage or input, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, corpus, optim
from .corpus import SyntheticConfig
from .errors import (ConfigError, FormatError, InputError, SoftcorefError, _check_integer,
                     _check_range)
from .model import LOSS_KINDS, CostConfig, ModelParams, _corpus_dims, _predict_corpus
from .optim import TrainConfig


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    # runs at import, and under ``python -OO`` the module docstring is None
    parser = _Parser(prog="softcoref", description=(__doc__ or "").partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a synthetic feature corpus")
    g.add_argument("--docs", type=int, required=True, help="number of documents")
    g.add_argument("--seed", type=int, default=SyntheticConfig.seed)
    g.add_argument("--out", required=True, help="output corpus path (JSON lines)")
    g.add_argument("--mentions", type=int, nargs=2, default=SyntheticConfig.mentions_per_doc,
                   metavar=("LO", "HI"))
    g.add_argument("--entities", type=int, nargs=2, default=SyntheticConfig.entities_per_doc,
                   metavar=("LO", "HI"))
    g.add_argument("--da", type=int, default=SyntheticConfig.d_a,
                   help="mention feature dimension")
    g.add_argument("--dp", type=int, default=SyntheticConfig.d_p, help="pair feature dimension")
    g.add_argument("--noise", type=float, default=SyntheticConfig.noise,
                   help="feature noise sigma")

    t = sub.add_parser("train", help="train a model on a feature corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--dev", help="dev corpus for model selection")
    t.add_argument("--loss", default=TrainConfig.loss, choices=LOSS_KINDS)
    t.add_argument("--beta", type=float, default=TrainConfig.beta)
    t.add_argument("--temp", type=float, default=TrainConfig.temperature,
                   help="relaxation temperature")
    t.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    t.add_argument("--l1", type=float, default=TrainConfig.lam, dest="lam",
                   help="L1 regularization weight")
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.add_argument("--hidden-a", type=int, default=TrainConfig.hidden_a)
    t.add_argument("--hidden-p", type=int, default=TrainConfig.hidden_p)
    t.add_argument("--scale", type=float, default=TrainConfig.init_scale, help="random-init scale")
    t.add_argument("--init", help="model file to start from")
    t.add_argument("--alphas", type=float, nargs=3, default=CostConfig.alphas,
                   metavar=("FA", "FN", "WL"))
    t.add_argument("--gammas", type=float, nargs=3, default=CostConfig.gammas,
                   metavar=("FA", "FN", "WL"))
    t.add_argument("--out", required=True, help="output model path")
    t.add_argument("--history", help="write per-epoch CSV here")

    e = sub.add_parser("evaluate", help="score a model on a feature corpus")
    e.add_argument("--corpus", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--beta", type=float, default=1.0)
    e.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    s = sub.add_parser("score", help="score CoNLL response against key")
    s.add_argument("--key", required=True)
    s.add_argument("--response", required=True)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--csv", action="store_true")

    r = sub.add_parser("errors", help="error breakdown of a model on a corpus")
    r.add_argument("--corpus", required=True)
    r.add_argument("--model", required=True)

    c = sub.add_parser("gradcheck", help="finite-difference gradient check")
    c.add_argument("--corpus", required=True, help="documents to check on")
    c.add_argument("--model", help="model file (default: random small params)")
    c.add_argument("--loss", default="mr-heuristic", choices=LOSS_KINDS)
    c.add_argument("--beta", type=float, default=1.0)
    c.add_argument("--temp", type=float, default=1.0)
    c.add_argument("--h", type=float, default=1e-5, help="central difference step")
    c.add_argument("--tol", type=float, default=1e-5, help="pass threshold")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--hidden-a", type=int, default=8)
    c.add_argument("--hidden-p", type=int, default=8)
    c.add_argument("--ndocs", type=int, default=1, help="documents to check")
    return parser


def _cmd_generate(args) -> int:
    config = SyntheticConfig(
        num_docs=args.docs, mentions_per_doc=tuple(args.mentions),
        entities_per_doc=tuple(args.entities), d_a=args.da, d_p=args.dp,
        noise=args.noise, seed=args.seed,
    )
    docs = corpus.generate_synthetic(config)
    corpus.save_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


def _cmd_train(args) -> int:
    # fail before training, not after; no output may name an input or the
    # other output, which writing it would overwrite
    named = {"--corpus": args.corpus, "--dev": args.dev, "--init": args.init}
    for flag, path in (("--out", args.out), ("--history", args.history)):
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise InputError(f"{path}: no such file")
        if Path(path).is_dir():
            raise InputError(f"{path}: is a directory")
        for other, taken in named.items():
            if taken is not None and Path(taken).resolve() == Path(path).resolve():
                raise InputError(f"{path}: {flag} names the same file as {other}")
        named[flag] = path
    train_docs = _load_nonempty(args.corpus)
    dev_docs = _load_nonempty(args.dev) if args.dev else []
    init = ModelParams.load(args.init) if args.init else None
    config = TrainConfig(
        loss=args.loss, beta=args.beta, temperature=args.temp,
        learning_rate=args.lr, epochs=args.epochs, lam=args.lam, seed=args.seed,
        hidden_a=args.hidden_a, hidden_p=args.hidden_p, init_scale=args.scale,
        init_model=init,
        costs=CostConfig(tuple(args.alphas), tuple(args.gammas)),
    )
    params, history = optim.train(train_docs, dev_docs, config)
    params.save(args.out)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            fh.write(history.to_csv())
    best = history.best
    summary = (f"best dev CoNLL {best.dev.conll:.4f}" if best.dev is not None
               else f"final mean loss {best.mean_loss:.4f}")
    print(f"trained {args.loss} for {args.epochs} epochs; {summary}")
    print(f"wrote model to {args.out}")
    return 0


def _print_report(report: analysis.MetricReport, as_csv: bool) -> None:
    print(analysis.report_csv(report) if as_csv else analysis.format_report(report) + "\n", end="")


def _cmd_evaluate(args) -> int:
    docs = _load_nonempty(args.corpus)
    params = ModelParams.load(args.model)
    _print_report(analysis.evaluate_corpus(docs, params, beta=args.beta), args.csv)
    return 0


def _cmd_score(args) -> int:
    key_docs = corpus.parse_conll_documents(args.key)
    resp_docs = corpus.parse_conll_documents(args.response)
    if len({d.doc_id for d in key_docs}) != len(key_docs):
        raise InputError("duplicate document ids in key file")
    resp_by_id = {d.doc_id: d for d in resp_docs}
    if len(resp_by_id) != len(resp_docs):
        raise InputError("duplicate document ids in response file")
    pairs = []
    for key_doc in key_docs:
        if key_doc.doc_id not in resp_by_id:
            raise InputError(f"document {key_doc.doc_id!r} missing from response")
        resp_doc = resp_by_id.pop(key_doc.doc_id)
        if key_doc.spans != resp_doc.spans:  # both files number mentions in span order
            raise InputError(
                f"document {key_doc.doc_id!r}: key and response mention spans differ")
        pairs.append((key_doc.clustering, resp_doc.clustering))
    if resp_by_id:
        extra = next(iter(resp_by_id))
        raise InputError(f"document {extra!r} in response but not in key")
    _print_report(analysis.corpus_report(pairs, beta=args.beta), args.csv)
    return 0


def _load_nonempty(path) -> list[corpus.Document]:
    docs = corpus.load_corpus(path)
    if not docs:
        raise InputError(f"{path}: empty corpus")
    return docs


def _cmd_errors(args) -> int:
    docs = _load_nonempty(args.corpus)
    params = ModelParams.load(args.model)
    total = sum(analysis.error_breakdown(doc, predicted)
                for doc, predicted in zip(docs, _predict_corpus(docs, params)))
    print(analysis.format_breakdown(total))
    return 0


def _cmd_gradcheck(args) -> int:
    _check_integer("--ndocs", args.ndocs, 1)
    _check_range("--tol", args.tol)
    _check_integer("--seed", args.seed, 0)
    docs = _load_nonempty(args.corpus)
    if args.model:
        params = ModelParams.load(args.model)
    else:
        params = ModelParams.random(*_corpus_dims(docs), args.hidden_a, args.hidden_p,
                                    scale=0.1, seed=args.seed)
    worst = 0.0
    for doc in docs[: args.ndocs]:
        err = optim.grad_check(doc, params, args.loss, h=args.h, seed=args.seed,
                               beta=args.beta, temperature=args.temp)
        worst = max(worst, err)
    ok = worst < args.tol
    print(f"{args.loss}: max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tol:.0e})")
    return 0 if ok else 2


_PARSER = _build_parser()

_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "score": _cmd_score,
    "errors": _cmd_errors,
    "gradcheck": _cmd_gradcheck,
}


def run(argv) -> int:
    # Scores, losses or updates that overflow end in an error that names the
    # document, so numpy's overflow warnings on the way there would only
    # repeat it.
    try:
        args = _PARSER.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except (ConfigError, FormatError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 1
    except SoftcorefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
