"""Command-line front end: solve, verify, bench.

Exit codes: 0 = yes (or verified true / every bench row completed), 1 = no (or
verified false), 2 = usage, format or capacity errors, a failed bench row, or
any other failure.  ``--json`` swaps the human summary for a machine-readable
run report with stable field names.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from itertools import compress

from .errors import CapacityError, GraphFormatError, MespError
from .generators import (
    GENERATOR_VERSION,
    gen_cluster_plus_p,
    gen_random_connected,
    gen_subdivided_core,
    gen_substitution,
)
from .graph import Graph, _bits, all_pairs_distances, eccentricity_of_set, is_shortest_path, load_graph
from .modulators import modular_width
from .solvers import SOLVER_NAMES, Instance, MespQuery, decide, minimize_k, solve_bruteforce

# not called here: kept importable because the benchmark's tracer wraps them
from .modulators import modular_decomposition  # noqa: F401
from .solvers import (  # noqa: F401
    solve_auto,
    solve_distance_to_cluster,
    solve_distance_to_disjoint_paths,
    solve_modular_width,
)


@dataclass
class RunReport:
    """Everything one solve run produced, JSON-serializable as-is."""

    digest: str
    n: int
    m: int
    solver: str
    params: dict
    k: int | None
    k_star: int | None
    decision: bool
    witness: list[int] | None
    timings: dict
    counters: dict
    generator_version: str = GENERATOR_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def graph_digest(graph: Graph) -> str:
    r"""Digest of ``"n\n"`` and the sorted ``"u v\n"`` edge lines, u < v,
    independent of input format.  Row u picks the names ``"v\n"`` of its
    neighbours above u to join after ``"u "``: by walking the set bits of a
    row where fewer than one bit in 16 is set, else by reading the row's
    binary digits, lowest first, as 0/1 flags (in C, but O(n) a row)."""
    names = [f"{v}\n" for v in range(graph.n)]
    rows = [f"{graph.n}\n"]
    to_flags = bytes.maketrans(b"01", b"\0\1")
    for u, mk in enumerate(graph.adj_mask):
        above = mk >> u + 1
        if above.bit_count() * 16 < above.bit_length():
            picked = map(names.__getitem__, _bits(above << u + 1))
        else:
            flags = bin(above)[:1:-1].encode().translate(to_flags)
            picked = compress(names[u + 1:u + 1 + len(flags)], flags)
        rows.append(f"{u} ".join(["", *picked]))
    return hashlib.sha256("".join(rows).encode()).hexdigest()[:16]


def cmd_solve(args) -> int:
    t_all = time.perf_counter()
    graph = load_graph(args.file)
    t_parse = time.perf_counter() - t_all
    t0 = time.perf_counter()
    inst = Instance(graph)
    if args.solver == "mw" and args.cap_mw is not None:
        width = modular_width(inst.decomposition)
        if width > args.cap_mw:
            raise CapacityError(f"modular width {width} exceeds cap {args.cap_mw}")
    if args.minimize:
        k_star, witness = minimize_k(inst, args.solver)
        decision = True
        k_queried = None
        counters: dict = {}
        solver_used = args.solver
        params: dict = {}
    else:
        answer = decide(inst, args.k, args.solver)
        decision = answer.decision
        witness = answer.witness
        k_star = None
        k_queried = args.k
        counters = {
            "guesses": answer.stats.guesses,
            "csc_calls": answer.stats.csc_calls,
            "paths_checked": answer.stats.paths_checked,
        }
        solver_used = answer.stats.solver or args.solver
        params = dict(answer.stats.params)
    # the table is built where it is first read, inside the solve
    t_solve = time.perf_counter() - t0 - inst.dist_seconds

    report = RunReport(
        digest=graph_digest(graph),
        n=graph.n,
        m=graph.m,
        solver=solver_used,
        params=params,
        k=k_queried,
        k_star=k_star,
        decision=decision,
        witness=list(witness.vertices) if witness else None,
        timings={"parse": t_parse, "distances": inst.dist_seconds, "solve": t_solve},
        counters=counters,
    )
    if args.json:
        print(report.to_json())
    else:
        if args.minimize:
            print(f"k* = {k_star}")
        else:
            print("yes" if decision else "no")
        if report.witness is not None:
            print("witness:", " ".join(map(str, report.witness)))
    return 0 if decision else 1


def cmd_verify(args) -> int:
    graph = load_graph(args.file)
    try:
        vertices = tuple(int(tok) for tok in args.path.replace(",", " ").split())
    except ValueError as exc:
        raise GraphFormatError(f"malformed witness {args.path!r}") from exc
    if not vertices:
        raise GraphFormatError("empty witness")
    for v in vertices:
        if not 0 <= v < graph.n:
            raise GraphFormatError(f"witness vertex {v} out of range")
    dist = all_pairs_distances(graph)
    ok = is_shortest_path(graph, dist, vertices)
    ecc = eccentricity_of_set(dist, vertices) if ok else None
    good = bool(ok and ecc <= args.k)
    if args.json:
        print(json.dumps({
            "digest": graph_digest(graph),
            "witness": list(vertices),
            "k": args.k,
            "is_shortest_path": bool(ok),
            "eccentricity": ecc,
            "valid": good,
        }, indent=2, sort_keys=True))
    else:
        print("true" if good else "false")
    return 0 if good else 1


# the columns of a bench row, in CSV order
BENCH_COLUMNS = (
    "family", "spec", "seed", "generator_version", "digest", "n", "m", "params", "solver",
    "k_star", "witness_len", "solve_seconds", "oracle_seconds", "oracle_agrees", "error",
)
# each bench family's size spec, and the solver its rows run
BENCH_FAMILIES = {
    "cluster-plus-p": ("n:p", "cluster"),
    "subdivided-core": ("core_n:core_m:n", "brute"),
    "substitution": ("n:cap", "mw"),
    "random": ("n:m", "auto"),
}


def _bench_instance(family: str, spec: str, rng: random.Random) -> tuple[Graph, dict]:
    """The graph of one size spec and its row's params.  A spec not of the
    family's shape, or out of its generator's range, raises ValueError."""
    shape = BENCH_FAMILIES[family][0]
    parts = [int(tok) for tok in spec.split(":")]
    if len(parts) != len(shape.split(":")):
        raise ValueError(f"size spec {spec!r} is not {shape}")
    if family == "cluster-plus-p":
        return gen_cluster_plus_p(*parts, rng)[0], {"p": parts[1]}
    if family == "substitution":
        graph, bound = gen_substitution(*parts, rng)
        return graph, {"mw_bound": bound}
    if family == "subdivided-core":
        return gen_subdivided_core(*parts, rng)
    return gen_random_connected(*parts, rng), {}


def _bench_solve(graph: Graph, solver_name: str) -> dict:
    """Minimize k on one bench graph; cross-check k* by brute force unless brute solved it."""
    inst = Instance(graph)
    t0 = time.perf_counter()
    k_star, witness = minimize_k(inst, solver_name)
    t_solve = time.perf_counter() - t0
    # oracle cross-check at k* (and k*-1) under a 10x time budget
    budget = max(0.5, 10.0 * t_solve)
    agree: bool | str = "skipped"
    t0 = time.perf_counter()
    try:
        if solver_name != "brute":
            agree = solve_bruteforce(MespQuery(graph, inst.dist, k_star), time_limit=budget).decision
            if k_star > 0 and agree:
                below = solve_bruteforce(MespQuery(graph, inst.dist, k_star - 1), time_limit=budget)
                agree = not below.decision
    except CapacityError:
        agree = "timeout"
    t_brute = time.perf_counter() - t0
    return {
        "k_star": k_star,
        "witness_len": len(witness.vertices),
        "solve_seconds": round(t_solve, 6),
        "oracle_seconds": round(t_brute, 6),
        "oracle_agrees": agree,
    }


def cmd_bench(args) -> int:
    """One row per size spec; a row that fails records its ``error`` and the
    rest still run, but the exit code is then 2."""
    rng = random.Random(args.seed)
    rows = []
    for spec in args.sizes:
        row = dict.fromkeys(BENCH_COLUMNS)
        row.update(family=args.family, spec=spec, seed=args.seed, error="",
                   generator_version=GENERATOR_VERSION, solver=BENCH_FAMILIES[args.family][1])
        try:
            graph, params = _bench_instance(args.family, spec, rng)
            row.update(digest=graph_digest(graph), n=graph.n, m=graph.m,
                       params=json.dumps(params, sort_keys=True))
            row.update(_bench_solve(graph, row["solver"]))
        except Exception as exc:
            row["error"] = _report(exc, f"{spec}: ")
        rows.append(row)
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        if args.format == "json":
            json.dump(rows, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 2 if any(row["error"] for row in rows) else 0


def _report(exc: Exception, where: str = "") -> str:
    """Print an ``error:`` line for ``exc`` and return its message.  An
    exception outside the expected kinds is a crash: its message keeps the
    type name and its traceback is printed too."""
    if isinstance(exc, (MespError, OSError, ValueError)):
        message = str(exc)
    else:
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
    print(f"error: {where}{message}", file=sys.stderr)
    return message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesp",
        description="Minimum Eccentricity Shortest Path: solve, verify, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide MESP or minimize k on a graph file")
    solve.add_argument("file", help="edge-list or DIMACS graph file")
    solve.add_argument("--solver", choices=SOLVER_NAMES, default="auto")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="desired eccentricity bound")
    group.add_argument("--minimize", action="store_true", help="search smallest k")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--cap-mw", type=int, default=None, help="refuse wider prime patterns")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a witness path against a graph")
    verify.add_argument("file")
    verify.add_argument("--path", required=True, help="comma- or space-separated vertices")
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="generate instances and time the solvers")
    bench.add_argument("--family", required=True, choices=tuple(BENCH_FAMILIES))
    bench.add_argument("--sizes", required=True, nargs="+",
                       help="per-instance size specs: " + ", ".join(
                           f"{family} {shape}" for family, (shape, _) in BENCH_FAMILIES.items()))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--out", default=None, help="write table here instead of stdout")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        # a crash must never read as a "no" (exit 1)
        _report(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
