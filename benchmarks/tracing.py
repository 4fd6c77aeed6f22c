"""Per-layer timing and counting by rebinding library functions.

``Tracer.install`` replaces each traced function with a wrapper at every
place the library can reach it from: the defining module, every
``stablepoly`` module that imported it by name, and the class for
methods. ``restore`` puts the originals back. Nothing in the library is
edited, and the untraced runs never see a wrapper.

Timed wrappers keep a stack of active calls, so a function's self time
is its duration minus the time of traced calls made inside it. Hot
predicates are only counted, since timing each call would cost more
than the call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

TIMED, COUNTED, GENERATOR = "timed", "counted", "generator"


def _vertices_out(tracer: "Tracer", report) -> None:
    tracer.counts["polytope.vertices_out"] += len(report.vertices)


def _stable_out(tracer: "Tracer", stable) -> None:
    tracer.counts["lattice.stable_out"] += len(stable)


def _verdict(tracer: "Tracer", verdict) -> None:
    tracer.counts["adjacency.nonadjacent_pairs"] += not verdict.adjacent
    tracer.counts["adjacency.mixed_pairs"] += not verdict.uniform


# (module, attribute path, how to wrap, result hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("verification", "verify_instance", TIMED, None),
    ("polytope", "build_system", TIMED, None),
    ("polytope", "ConstraintSystem.enumerate_vertices", TIMED, _vertices_out),
    ("polytope", "ConstraintSystem.optimize", TIMED, None),
    ("linalg", "greedy_independent", TIMED, None),
    ("simplex", "solve_lp", TIMED, None),
    ("lattice", "enumerate_stable", TIMED, _stable_out),
    ("lattice", "decompose", TIMED, None),
    ("lattice", "meet_join", TIMED, None),
    ("adjacency", "adjacency_verdict", TIMED, _verdict),
    ("matchings", "is_stable", COUNTED, None),
    ("matchings", "matchings_iter", GENERATOR, None),
)


class Tracer:
    """Calls, counts and host-normalised times of the traced functions.

    ``overhead()`` gives the seconds spent so far in work that interrupts
    the library (the calibration kernel), which timed wrappers leave out.
    """

    def __init__(self, overhead: Callable[[], float] = lambda: 0.0) -> None:
        self._overhead = overhead
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # result hooks, generator yields
        self.nested: Counter[tuple[str, str]] = Counter()  # (traced parent, child)
        self._raw: defaultdict[str, float] = defaultdict(float)  # "<name>.s", "<name>.self_s"
        self._committed: dict[str, float] = {}
        self.seconds: defaultdict[str, float] = defaultdict(float)  # host-normalised
        self._stack: list[list[Any]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stack, raw, calls, nested = self._stack, self._raw, self.calls, self.nested
        overhead = self._overhead

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack:
                nested[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            spent = overhead()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (overhead() - spent)
                stack.pop()
                raw[name + ".s"] += elapsed
                raw[name + ".self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        counts, key = self.counts, name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def install(self, lib) -> None:
        """Wrap every target wherever the library holds a reference to it."""
        sites = [m for n, m in sys.modules.items() if n == "stablepoly" or n.startswith("stablepoly.")]
        for module_name, path, how, hook in TARGETS:
            owner: Any = getattr(lib, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{module_name}.{attr}"
            if how == TIMED:
                wrapper = self._timed(name, original, hook)
            elif how == COUNTED:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._generator(name, original)
            holders = [owner] if outer else [
                m for m in sites if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def commit(self, factor: float) -> None:
        """Fold the time recorded since the last commit into ``seconds``,
        scaled by the host factor of the step it was recorded in."""
        for key, value in self._raw.items():
            self.seconds[key] += (value - self._committed.get(key, 0.0)) * factor
            self._committed[key] = value


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    s, calls, counts, nested = tracer.seconds, tracer.calls, tracer.counts, tracer.nested
    pairs = calls["adjacency.adjacency_verdict"]
    scanned = counts["matchings.matchings_iter.yielded"]
    return {
        "verification.verify_instance.self_s": (s["verification.verify_instance.self_s"], "s"),
        "polytope.enumerate_vertices.self_s": (s["polytope.enumerate_vertices.self_s"], "s"),
        "polytope.enumerate_vertices.calls": (calls["polytope.enumerate_vertices"], "count"),
        "polytope.vertices_out": (counts["polytope.vertices_out"], "count"),
        "linalg.greedy_independent.s": (s["linalg.greedy_independent.s"], "s"),
        "linalg.greedy_independent.calls": (calls["linalg.greedy_independent"], "count"),
        "polytope.build_system.s": (s["polytope.build_system.s"], "s"),
        "polytope.build_system.calls": (calls["polytope.build_system"], "count"),
        "simplex.solve_lp.s": (s["simplex.solve_lp.s"], "s"),
        "simplex.solve_lp.calls": (calls["simplex.solve_lp"], "count"),
        "polytope.optimize.self_s": (s["polytope.optimize.self_s"], "s"),
        "lattice.enumerate_stable.self_s": (s["lattice.enumerate_stable.self_s"], "s"),
        "lattice.enumerate_stable.calls": (calls["lattice.enumerate_stable"], "count"),
        "lattice.stable_out": (counts["lattice.stable_out"], "count"),
        "matchings.matchings_iter.yielded": (scanned, "count"),
        "matchings.is_stable.calls": (calls["matchings.is_stable"], "count"),
        "lattice.stable_yield": (counts["lattice.stable_out"] / scanned if scanned else 0.0, "ratio"),
        "lattice.decompose.s": (s["lattice.decompose.s"], "s"),
        "lattice.meet_join.self_s": (s["lattice.meet_join.self_s"], "s"),
        "adjacency.adjacency_verdict.self_s": (s["adjacency.adjacency_verdict.self_s"], "s"),
        "adjacency.lp_per_pair": (
            nested["adjacency.adjacency_verdict", "simplex.solve_lp"] / pairs if pairs else 0.0,
            "count",
        ),
        "adjacency.enumerate_stable_per_pair": (
            nested["adjacency.adjacency_verdict", "lattice.enumerate_stable"] / pairs
            if pairs
            else 0.0,
            "count",
        ),
        "adjacency.nonadjacent_pairs": (counts["adjacency.nonadjacent_pairs"], "count"),
        "adjacency.mixed_pairs": (counts["adjacency.mixed_pairs"], "count"),
    }
