"""The measurements of one run: end-to-end (untraced) or per layer (traced).

Imported by ``run.py`` only after the BLAS pools are pinned and the
import of the package has been timed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time

import numpy
import scipy

import pipeline
import spans


def environment(threads: dict, malloc: str) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "nproc": os.cpu_count(),
        "threads": threads,
        "malloc": malloc,
    }


def work_counts(state) -> dict:
    wl = state.wl
    docs = [d for split in state.docs.values() for d in split]
    mentions = sum(d.n for d in docs)
    pairs = sum(d.n * (d.n - 1) // 2 for d in docs)
    ha, hp = wl.hidden
    macs = sum(d.n * d.d_a * ha + d.n * ha                     # anaphoricity head
               + (d.n * (d.n - 1) // 2) * (d.d_p * hp + ha + hp)  # pair head + link scores
               for d in state.docs["train"])
    return {
        "corpus.mentions": (mentions, "count"),
        "corpus.pairs": (pairs, "count"),
        "corpus.conll_tokens": (state.conll_tokens, "count"),
        "optim.steps": (state.steps_per_recipe, "count"),
        "optim.failed_steps": (state.failed_steps, "count"),
        "model.mlp_macs": (macs, "count"),   # computed from array shapes, one forward pass
    }


# The guest's speed switches every few seconds between levels about 1.5x
# apart and drifts by as much again over minutes, so raw times from one
# run to the next follow the machine more than the program.  So a
# reference kernel that does not touch softcoref (a Python loop and a
# BLAS product) is timed right before every sample, and each sample is
# taken as its ratio to that reference: the time it would take at the
# speed at which the kernel takes REFERENCE_S.  The raw medians are
# printed as well.
REFERENCE_S = 0.005
FRESH_IMPORTS = 5
_REF_A = numpy.random.default_rng(0).random((120, 700))
_REF_B = numpy.random.default_rng(1).random((700, 200))


def reference() -> float:
    """Time the reference kernel once."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(5):
        _REF_A @ _REF_B
    return time.perf_counter() - start


def at_reference(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


def measure(state, ops, seconds: float, fresh_import) -> tuple[dict, dict]:
    """The untraced run: every end-to-end metric.  ``fresh_import()``
    times one import of the package in a fresh interpreter."""
    wl = state.wl
    n_test = wl.splits[2]
    imports = []
    for _ in range(FRESH_IMPORTS):
        ref = reference()
        imports.append((fresh_import(), ref))
    # untimed warm-up, which also gives the predictions the CoNLL response needs
    state.load()
    state.train_recipe(ops)
    state.predict_pass(ops)
    if state.key_path is None:
        state.write_prediction_conll()

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    steps = {
        "load": lambda: timed(state.load),
        "train": lambda: sum(state.train_recipe(ops)),
        "evaluate": lambda: timed(lambda: state.evaluate(ops)),
        "predict": lambda: state.predict_pass(ops),
        "score": lambda: timed(lambda: state.score(ops)),
    }
    samples = {phase: [] for phase in steps}   # (sample, reference before it)
    spent = dict.fromkeys(steps, 0.0)
    predict_calls = 0
    end = time.perf_counter() + seconds
    while True:
        missing = [p for p in steps if not samples[p]]
        if time.perf_counter() < end:
            phase = min(steps, key=lambda p: spent[p] / wl.shares[p])
        elif missing:
            phase = missing[0]
        elif predict_calls < pipeline.PREDICT_MIN_SAMPLES:
            phase = "predict"
        else:
            break
        ref = reference()
        start = time.perf_counter()
        samples[phase].append((steps[phase](), ref))
        spent[phase] += time.perf_counter() - start
        predict_calls = n_test * len(samples["predict"])
    samples["import"] = imports
    (state.workdir / "samples.json").write_text(json.dumps(samples))

    def median_at_ref(phase) -> float:
        return statistics.median(at_reference(t, ref) for t, ref in samples[phase])

    latencies = [at_reference(t, ref) for calls, ref in samples["predict"] for t in calls]
    cuts = statistics.quantiles(latencies, n=100)
    recipe_s = median_at_ref("train")
    evaluate_s = median_at_ref("evaluate")
    score_s = median_at_ref("score")
    refs = [ref for phase in samples.values() for _, ref in phase]
    raw = {phase: statistics.median(t for t, _ in samples[phase])
           for phase in ("import", "load", "train", "evaluate", "score")}
    return {
        "setup_s": (median_at_ref("import") + median_at_ref("load"), "s"),
        "train_docs_per_s": (state.steps_per_recipe / recipe_s, "docs/s"),
        "eval_docs_per_s": (n_test / evaluate_s, "docs/s"),
        "predict_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "predict_ms_p99": (cuts[98] * 1e3, "ms"),
        "score_docs_per_s": (state.score_doc_count / score_s, "docs/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "dev_conll": (state.dev_conll[-1], "F1"),
        "success_ratio": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
    }, {
        "reference": f"{len(refs)} runs of the kernel, median {statistics.median(refs) * 1e3:.4f} ms,"
                     f" quartiles " + ", ".join(f"{q * 1e3:.4f}" for q in
                                                statistics.quantiles(refs, n=4)) + " ms",
        "raw medians": ", ".join(f"{phase} {t:.6f} s" for phase, t in raw.items()),
        "setup": f"{len(imports)} imports in fresh interpreters + {len(samples['load'])} loads",
        "train": f"{len(samples['train'])} runs of the recipe, {state.steps_per_recipe} steps each",
        "evaluate": f"{len(samples['evaluate'])} calls on {n_test} test documents",
        "predict": f"{len(latencies)} calls, {len(latencies) - math.ceil(0.99 * len(latencies))}"
                   " beyond p99",
        "score": f"{len(samples['score'])} calls on {state.score_doc_count} documents",
    }


def measure_traced(state, ops, seconds: float) -> tuple[dict, dict]:
    """The traced run: per-layer metrics and the tracing overhead."""
    tracer = spans.Tracer()
    tracer.call("phase.load", state.load)
    state.train_recipe(ops)
    state.predict_pass(ops)
    if state.key_path is None:
        state.write_prediction_conll()

    # untraced, traced, traced, untraced: cancels a linear drift
    walls = {False: [], True: []}
    before = len(tracer.spans)
    for traced in (False, True, True, False):
        walls[traced].append(state.pipeline(ops, tracer if traced else pipeline.NullTracer()))
    pipeline_spans = (len(tracer.spans) - before) // 2

    other, rounds = spans.replay(tracer, state, seconds * 0.5)
    metrics = spans.layer_metrics(tracer, other, rounds, state.wl.stages)
    metrics.update(work_counts(state))
    untraced = statistics.mean(walls[False])
    metrics["trace.untraced_pipeline_s"] = (untraced, "s")
    metrics["trace.overhead_ms"] = ((statistics.mean(walls[True]) - untraced) * 1e3, "ms")
    metrics["trace.pipeline_spans"] = (pipeline_spans, "count")
    path = state.workdir / "trace.jsonl"
    tracer.write(path)
    return metrics, {"spans": f"{len(tracer.spans)} spans written to {path}",
                     "pipelines": f"untraced {walls[False]}, traced {walls[True]}"}
