"""Command line front end.

Exit codes: 0 when the requested work succeeded and every checked
property held, 1 when a checked property failed (an unstable matching,
a fractional vertex, a vertex/stable mismatch), 2 for unusable input.
A ``verify`` sweep that skipped an over-limit instance or an instance
file that fails to load, and found no mismatch, exits 2 as well.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .adjacency import adjacency_verdict
from .instances import (
    SIDE_A,
    SIDE_B,
    Instance,
    InstanceError,
    LimitError,
    exhaustive_complete,
    instance_to_json,
    load_instance,
    parse_weights,
    random_instances,
)
from .lattice import MAX_STABLE_EDGES, enumerate_stable
from .matchings import Matching, blocking_pairs, gale_shapley, is_stable
from .polytope import MAX_VERTEX_COLUMNS, build_system
from .verification import verify_instance


def _emit(data: object, fmt: str, table: str) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(table)


def _load_matching(instance: Instance, path: str) -> Matching:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise InstanceError("matching document must be a JSON list of pairs")
    return Matching.from_pairs(instance, data)


def _matching_lines(instance: Instance, matching: Matching) -> str:
    if not matching.edges:
        return "(empty matching)"
    return "\n".join(instance.edge_name(e) for e in matching.sorted_edges())


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    side = SIDE_A if args.side == "a" else SIDE_B
    matching = gale_shapley(instance, proposing_side=side)
    stable = is_stable(instance, matching)
    _emit(
        {"matching": matching.to_pairs(instance), "stable": stable},
        args.format,
        _matching_lines(instance, matching),
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    stable = enumerate_stable(instance, max_edges=args.max_edges)
    table = "\n".join(f"[{k}] {m.label(instance)}" for k, m in enumerate(stable))
    _emit(
        {"count": len(stable), "matchings": [m.to_pairs(instance) for m in stable]},
        args.format,
        table or "(no stable matchings)",
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    matching = _load_matching(instance, args.matching)
    blocking = [instance.edge_name(e) for e in blocking_pairs(instance, matching)]
    stable = not blocking
    table = "stable" if stable else "unstable, blocked by: " + ", ".join(blocking)
    _emit({"stable": stable, "blocking": blocking}, args.format, table)
    return 0 if stable else 1


def _cmd_lp(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    system = build_system(instance)
    weights = None
    if args.weights:
        with open(args.weights, encoding="utf-8") as fh:
            weights = parse_weights(json.load(fh), instance)
    if args.solve:
        objective = weights if weights is not None else {e: Fraction(1) for e in system.columns}
        result = system.optimize(objective, sense=args.sense)
        point = None
        if result.point is not None:
            point = {
                name: str(x) for name, x in zip(system.column_names, result.point)
            }
        _emit(
            {
                "status": result.status,
                "value": None if result.value is None else str(result.value),
                "point": point,
            },
            args.format,
            f"{result.status}: {result.value}",
        )
        return 0
    if args.format == "json":
        print(json.dumps(system.to_json(), sort_keys=True, indent=2))
    else:
        sys.stdout.write(system.to_lp_text(objective=weights, sense=args.sense))
    return 0


def _cmd_vertices(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    system = build_system(instance)
    report = system.enumerate_vertices(max_edges=args.max_edges)
    lines = []
    for v in report.vertices:
        coords = ", ".join(
            f"{name}={x}" for name, x in zip(report.column_names, v.point) if x != 0
        )
        tag = "integral" if v.integral else "FRACTIONAL"
        lines.append(f"[{tag}] {coords or '(origin)'}")
    _emit(report.to_json(), args.format, "\n".join(lines) or "(no vertices)")
    return 1 if report.fractional_vertices() else 0


def _cmd_adjacency(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if (args.m1 is None) != (args.m2 is None):
        raise InstanceError("--m1 and --m2 must be given together")
    records = []
    if args.m1:
        pairs = [(_load_matching(instance, args.m1), _load_matching(instance, args.m2))]
    else:
        stable = enumerate_stable(instance, max_edges=args.max_edges)
        pairs = list(itertools.combinations(stable, 2))
    for m1, m2 in pairs:
        verdict = adjacency_verdict(instance, m1, m2, max_edges=args.max_edges)
        records.append(
            {
                "m1": m1.to_pairs(instance),
                "m2": m2.to_pairs(instance),
                "verdict": verdict.to_json(instance),
            }
        )
    table = "\n".join(
        "{} | {} -> {}{}".format(
            m1.label(instance),
            m2.label(instance),
            "adjacent" if r["verdict"]["adjacent"] else "not adjacent",
            "" if r["verdict"]["uniformly_oriented"] else ", mixed orientation",
        )
        for (m1, m2), r in zip(pairs, records)
    )
    _emit(records, args.format, table or "(fewer than two stable matchings)")
    return 0


def _verify_task(payload: tuple[Instance | str, int]) -> tuple[str, dict | None]:
    """Tag one outcome "ok", "disagree" or "skipped" (over a size limit, or
    an instance file that fails to load, whose skip record names the path
    in place of the instance)."""
    instance, max_edges = payload
    if isinstance(instance, str):
        try:
            instance = load_instance(instance)
        except (ValueError, OSError) as exc:
            return "skipped", {"instance": instance, "reason": str(exc)}
    try:
        result = verify_instance(instance, max_edges=max_edges)
    except LimitError as exc:
        return "skipped", {"instance": instance_to_json(instance), "reason": str(exc)}
    return ("ok", None) if result.ok else ("disagree", result.to_json())


def _tally(outcomes: Iterable[tuple[str, dict | None]]) -> tuple[int, list[dict], list[dict]]:
    """Count the compared instances and keep the failure and skip records,
    in order; a skip record also gets the instance's position in the sweep."""
    checked = 0
    failures: list[dict] = []
    skipped: list[dict] = []
    for index, (tag, record) in enumerate(outcomes):
        if tag == "skipped":
            skipped.append({"index": index, **record})
            continue
        checked += 1
        if tag == "disagree":
            failures.append(record)
    return checked, failures, skipped


def _instance_stream(args: argparse.Namespace) -> Iterator[Instance | str]:
    """The instances of the one source given (see ``_add_sources``); files
    come as their paths, which ``_verify_task`` loads one at a time."""
    files = getattr(args, "instances", None)
    sources = (("instance files", files or None), ("--complete", args.complete), ("--random", args.random))
    given = [name for name, value in sources if value is not None]
    if len(given) > 1:
        raise InstanceError(f"instance sources are mutually exclusive, got {' and '.join(given)}")
    if files:
        return iter(files)
    if args.complete is not None:
        return exhaustive_complete(args.complete)
    if args.random is not None:
        if args.random < 0:
            raise InstanceError(f"--random needs a count of at least 0, got {args.random}")
        stream = random_instances(
            args.a, args.b, args.p, args.seed, skip_edgeless=args.skip_edgeless
        )
        return itertools.islice(stream, args.random)
    if files is None:
        raise InstanceError("give --complete N or --random K")
    raise InstanceError("give instance files, --complete N, or --random K")


# a pooled sweep sends tasks in chunks of CHUNKSIZE and reads the stream
# WINDOW_CHUNKS chunks per worker at a time
CHUNKSIZE = 16
WINDOW_CHUNKS = 8


def _pooled(
    pool: ProcessPoolExecutor, payloads: Iterator[tuple[Instance | str, int]], workers: int
) -> Iterator[tuple[str, dict | None]]:
    """``_verify_task`` over ``payloads`` on ``pool``, in order, one window
    at a time: ``pool.map`` submits all of its input before it yields, so
    handing it the whole stream would hold the whole sweep in memory."""
    window = WINDOW_CHUNKS * CHUNKSIZE * workers
    while batch := list(itertools.islice(payloads, window)):
        yield from pool.map(_verify_task, batch, chunksize=CHUNKSIZE)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise InstanceError("worker count must be at least 1")
    # the pool starts all of its processes at once: no more than the CPUs
    workers = min(args.workers, os.cpu_count() or 1)
    payloads = ((inst, args.max_edges) for inst in _instance_stream(args))
    if workers == 1:
        checked, failures, skipped = _tally(map(_verify_task, payloads))
    else:
        # the results are consumed inside the block, so the pool is shut
        # down on every exit path, a raising worker included
        with ProcessPoolExecutor(max_workers=workers) as pool:
            checked, failures, skipped = _tally(_pooled(pool, payloads, workers))
    if args.quarantine:
        Path(args.quarantine).write_text(
            json.dumps(failures, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    for record in skipped:
        print(f"skipped instance {record['index']}: {record['reason']}", file=sys.stderr)
    summary = {
        "checked": checked,
        "ok": checked - len(failures),
        "failures": failures,
        "skipped": skipped,
    }
    table = (
        f"checked {checked} instances: vertex sets and stable sets agree everywhere"
        if not failures
        else f"checked {checked} instances: {len(failures)} DISAGREE"
    )
    unreadable = sum(isinstance(record["instance"], str) for record in skipped)
    if len(skipped) > unreadable:
        table += f"; skipped {len(skipped) - unreadable} over a size limit"
    if unreadable:
        table += f"; skipped {unreadable} unreadable instance files"
    _emit(summary, args.format, table)
    return 1 if failures else 2 if skipped else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    stream = _instance_stream(args)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        count = 0
        for k, inst in enumerate(stream):
            path = out / f"instance_{k:05d}.json"
            path.write_text(
                json.dumps(instance_to_json(inst), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            count += 1
        print(f"wrote {count} instances to {out}")
    else:
        for inst in stream:
            print(json.dumps(instance_to_json(inst), sort_keys=True))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output style"
    )


def _add_sources(parser: argparse.ArgumentParser, files: bool) -> None:
    """Instance sources, of which a run takes exactly one: instance files
    (when ``files``), every complete n-by-n instance, or random draws."""
    if files:
        parser.add_argument("instances", nargs="*", help="instance files")
    parser.add_argument("--complete", type=int, help="every complete n-by-n instance")
    parser.add_argument("--random", type=int, help="this many random instances")
    parser.add_argument("--a", type=int, default=4, help="a-side size for --random")
    parser.add_argument("--b", type=int, default=4, help="b-side size for --random")
    parser.add_argument("--p", type=float, default=0.5, help="edge probability for --random")
    parser.add_argument("--seed", type=int, default=0, help="seed for --random")
    parser.add_argument(
        "--skip-edgeless",
        action="store_true",
        help="redraw random instances that came out with no edges",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepoly",
        description="Stable matchings and the exact geometry of their relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run deferred acceptance on an instance")
    p.add_argument("instance")
    p.add_argument("--side", choices=("a", "b"), default="a", help="proposing side")
    _add_format(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("enumerate", help="list every stable matching")
    p.add_argument("instance")
    p.add_argument("--max-edges", type=int, default=MAX_STABLE_EDGES)
    _add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("check", help="test a matching file for stability")
    p.add_argument("instance")
    p.add_argument("matching")
    _add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("lp", help="export or optimize the halfspace description")
    p.add_argument("instance")
    p.add_argument("--weights", help="JSON file of edge weights, exact fractions")
    p.add_argument("--sense", choices=("max", "min"), default="max")
    p.add_argument("--solve", action="store_true", help="optimize instead of exporting")
    _add_format(p)
    p.set_defaults(handler=_cmd_lp)

    p = sub.add_parser("vertices", help="enumerate the extreme points exactly")
    p.add_argument("instance")
    p.add_argument("--max-edges", type=int, default=MAX_VERTEX_COLUMNS)
    _add_format(p)
    p.set_defaults(handler=_cmd_vertices)

    p = sub.add_parser(
        "adjacency", help="adjacency verdicts for stable matching pairs"
    )
    p.add_argument("instance")
    p.add_argument("--m1", help="first matching file (needs --m2)")
    p.add_argument("--m2", help="second matching file (needs --m1)")
    p.add_argument("--max-edges", type=int, default=MAX_STABLE_EDGES)
    _add_format(p)
    p.set_defaults(handler=_cmd_adjacency)

    p = sub.add_parser(
        "verify",
        help="compare polytope vertices against stable matchings per instance",
    )
    _add_sources(p, files=True)
    p.add_argument("--max-edges", type=int, default=MAX_VERTEX_COLUMNS)
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes (default 1)")
    p.add_argument(
        "--quarantine",
        help="write failing instances to this JSON file (empty list when clean)",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("generate", help="emit instances as JSON")
    _add_sources(p, files=False)
    p.add_argument("--out", help="directory for one file per instance (default: stdout lines)")
    p.set_defaults(handler=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
