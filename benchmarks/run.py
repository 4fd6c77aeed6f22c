"""Benchmark of the stablepoly library; see NOTES.md and BENCHMARK.json.

Run from the repository root:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A summary with the
semantic digest and any exception classes goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("instances", "matchings", "lattice", "linalg", "simplex", "polytope", "adjacency", "verification")

SETUPS = 5  # set-up repetitions; setup_s is their median
TICK_S = 0.03  # interval of the calibration kernel during timed work
CALIB_TERMS = 120
# Kernel time on the reference host (2-core VM, Python 3.11.7). Times are
# reported as if measured on a host where the kernel takes this long.
CALIB_REF_S = 0.001


class LibraryMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import stablepoly afresh from this checkout's ``src``."""
    if not (SRC / "stablepoly" / "__init__.py").is_file():
        raise LibraryMissing(f"no stablepoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "stablepoly" or n.startswith("stablepoly.")]:
        del sys.modules[name]
    package = importlib.import_module("stablepoly")
    if Path(package.__file__).resolve().parent != SRC / "stablepoly":
        raise LibraryMissing(f"stablepoly was imported from {package.__file__}")
    return SimpleNamespace(**{m: importlib.import_module(f"stablepoly.{m}") for m in MODULES})


def calibration_kernel() -> None:
    """A fixed pure-Python Fraction computation.

    It touches no stablepoly code, so its time tracks only how fast the
    host runs this kind of arithmetic at the moment.
    """
    acc = Fraction(0)
    for k in range(1, CALIB_TERMS):
        acc += Fraction(k % 7 - 3, k % 11 + 1) * Fraction(1, 1 + k % 13)
    if acc.denominator <= 0:  # consume the result
        raise AssertionError


class HostClock:
    """Host speed sampled all through the timed work.

    While running, a SIGALRM interval timer runs the calibration kernel
    every TICK_S. Host speed on a shared VM drifts within a fraction of a
    second, so a span of work is scaled by the kernel times sampled
    during it (and the last one before it). The kernel's own time is
    taken out of every span.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0  # seconds inside the kernel so far
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        calibration_kernel()
        elapsed = perf_counter() - start
        self.ticks.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self, work: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``work``; return its value, its time without the kernel,
        and the factor that normalises that time."""
        first, spent = len(self.ticks) - 1, self.spent
        start = perf_counter()
        value = work()
        elapsed = perf_counter() - start - (self.spent - spent)
        factor = CALIB_REF_S / statistics.fmean(self.ticks[first:])
        return value, elapsed, factor


@dataclass
class Tally:
    """Untimed bookkeeping: checks, failures and the semantic record."""

    attempted: int = 0
    failed: int = 0
    problems: dict[str, int] = field(default_factory=dict)
    semantics: list = field(default_factory=list)

    def record(self, spec, item, outcomes, keep: bool) -> None:
        try:
            verdicts = (
                [(None, None)] * len(outcomes)
                if outcomes[0].error is not None
                else spec.check(item, outcomes)
            )
        except Exception as exc:  # a malformed result is a wrong answer
            verdicts = [(f"check raised {type(exc).__name__}", None)] * len(outcomes)
        for outcome, (wrong, semantic) in zip(outcomes, verdicts):
            problem = type(outcome.error).__name__ if outcome.error is not None else wrong
            if not outcome.op and problem is None:
                continue  # companion work that went fine
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.problems[problem] = self.problems.get(problem, 0) + 1
            if keep:
                self.semantics.append(semantic)


@dataclass
class Pass:
    wall_s: float = 0.0  # host-normalised
    raw_s: float = 0.0
    latencies: list[float] = field(default_factory=list)  # host-normalised
    items: int = 0


def run_pass(spec, lib, corpus, clock, stop, after_step, after_item) -> Pass:
    """Closed loop over ``corpus`` (cycled) until ``stop(items, raw_s)``.

    Each step of an item (one op, or an item's companion work) is timed
    on ``clock`` and scaled by its own host factor. ``after_step(factor)``
    and ``after_item(index, item, outcomes)`` run outside the timed spans.
    """
    run = Pass()
    while not stop(run.items, run.raw_s):
        item = corpus[run.items % len(corpus)]
        steps = spec.execute(lib, item)
        outcomes = []
        while True:
            outcome, elapsed, factor = clock.span(lambda: _step(steps))
            if outcome is None:
                break
            outcomes.append(outcome)
            run.raw_s += elapsed
            run.wall_s += elapsed * factor
            if outcome.op:
                run.latencies.append(elapsed * factor)
            after_step(factor)
        after_item(run.items, item, outcomes)
        run.items += 1
    return run


def _step(steps):
    try:
        return next(steps, None)
    except Exception as exc:  # the workload choked on a library result
        steps.close()
        return workloads.Outcome(None, exc, op=False)


def set_up(spec, seed: int, clock: HostClock):
    """Import, corpus generation and warm-up, repeated; medians reported."""
    totals, generation = [], []
    for _ in range(SETUPS):
        phases = []

        def phase(work):
            value, elapsed, factor = clock.span(work)
            phases.append(elapsed * factor)
            return value

        lib = phase(load_library)
        rng = random.Random(f"{spec.name}:{seed}")
        corpus = phase(lambda: spec.generate(lib, rng, spec.corpus_items))
        warm = random.Random(f"{spec.name}:warm:{seed}")
        phase(lambda: [list(spec.execute(lib, i)) for i in spec.generate(lib, warm, spec.warm_items)])
        totals.append(sum(phases))
        generation.append(phases[1])
    return lib, corpus, statistics.median(totals), statistics.median(generation)


def measure(name: str, seed: int, seconds: float, trace: bool, items: int | None = None) -> dict:
    """One benchmark run; ``items`` shrinks the run for smoke tests."""
    spec = workloads.WORKLOADS[name]
    trace_items = items or spec.trace_items
    # the digest covers the first trace_items items in both modes
    min_items = max(items or spec.min_items, trace_items)
    with HostClock() as clock:
        lib, corpus, setup_s, generate_s = set_up(spec, seed, clock)
        tally = Tally()

        def check(index, item, outcomes):
            tally.record(spec, item, outcomes, keep=index < trace_items)

        gc.collect()
        if not trace:
            # Stop only after whole rounds of the item mix, so every run
            # weighs the item kinds alike whatever its length.
            def stop(n, t):
                return n >= min_items and t >= seconds and n % spec.round_items == 0

            run = run_pass(spec, lib, corpus, clock, stop, lambda f: None, check)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "throughput_ops_s": (len(run.latencies) / run.wall_s, "ops/s"),
                "latency_p50_ms": (1000 * _quantile(run.latencies, 50), "ms"),
                "latency_p90_ms": (1000 * _quantile(run.latencies, 90), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (peak, "MiB"),
                "ok_ratio": (1 - tally.failed / max(tally.attempted, 1), "ratio"),
            }
        else:
            def until(n, t):
                return n >= trace_items

            plain = run_pass(spec, lib, corpus, clock, until, lambda f: None, check)
            raw_ticks = list(clock.ticks)
            tracer, held = tracing.Tracer(lambda: clock.spent), []
            tracer.install(lib)
            try:
                traced = run_pass(
                    spec, lib, corpus, clock, until, tracer.commit, lambda *r: held.append(r)
                )
            finally:
                tracer.restore()
            for _, item, outcomes in held:
                tally.record(spec, item, outcomes, keep=False)
            metrics = tracing.layer_metrics(tracer)
            metrics["instances.generate.s"] = (generate_s, "s")
            metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
            metrics["host.wall_s"] = (plain.raw_s, "s")
            metrics["host.calib_s"] = (statistics.median(raw_ticks), "s")
        kernels = list(clock.ticks)

    corpus_digest = workloads.corpus_digest(corpus)
    results_digest = workloads.digest(tally.semantics)
    pinned = workloads.PINNED.get(name) if seed == workloads.DEFAULT_SEED and items is None else None
    pin_ok = pinned is None or pinned == (corpus_digest, results_digest)
    summary = {
        "workload": name,
        "seed": seed,
        "corpus_digest": corpus_digest,
        "results_digest": results_digest,
        "pinned_digests_match": None if pinned is None else pin_ok,
        "problems": tally.problems,
        "calib_median_s": statistics.median(kernels),
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return {
        "correct": tally.failed == 0 and pin_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _quantile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
