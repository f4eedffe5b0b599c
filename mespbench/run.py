"""Benchmark of whole ``mesp solve`` runs.

One run:

    python3 mespbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's fixed, seeded pool of graph files, then calls
``mesp.cli.main`` in this process, one operation at a time (a closed loop with
one caller), in whole passes over the pool until S seconds have passed and
at least MIN_OPS operations have completed.  The seed orders the operations
of each pass.  ``op_tail_s`` is taken over the first ``tail_passes`` passes
only, so its rank is the same in every run.  Every answer is checked against
reference values computed apart from ``mesp`` (``oracle.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Other modes of the same command:

    --steadiness      two sets of runs per workload; medians and quartiles
                      of every end-to-end metric against its bound
    --traced-report   one ``--trace 1`` run per workload, as a table
    --make-reference  recompute ``reference.json``
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
REFERENCE_FILE = BENCH / "reference.json"

MIN_OPS = 40
# runs per set in --steadiness
RUNS_PER_SET = 10
# set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S
# seconds; setup_s is the median repetition
SETUP_REPS = 5
SETUP_MIN_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> unit
PER_LAYER = {
    "cli.self_s": "s",
    "graph.parse_s": "s",
    "graph.distances_s": "s",
    "graph.bfs_arcs": "count",
    "graph.coverage_s": "s",
    "graph.coverage_calls": "count",
    "modulators.decomposition_s": "s",
    "modulators.cluster_mod_s": "s",
    "modulators.paths_mod_s": "s",
    "modulators.params_used_ratio": "ratio",
    "solvers.search_s": "s",
    "solvers.decisions": "count",
    "solvers.decide_s": "s",
    "solvers.no_s": "s",
    "solvers.paths_checked": "count",
    "solvers.guesses": "count",
    "solvers.csc_calls": "count",
    "csc.dp_s": "s",
    "csc.dp_cells": "count",
    "generators.build_s": "s",
    "trace.overhead_pct": "%",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``mesp`` from it."""
    src = ROOT / "src"
    if not (src / "mesp" / "__init__.py").is_file():
        raise SystemExit(f"error: no mesp package under {src}")
    sys.path.insert(0, str(src))
    import mesp.cli

    if Path(mesp.cli.__file__).resolve().parent != src / "mesp":
        raise SystemExit(f"error: imported mesp from {mesp.cli.__file__}, not from {src}")
    return mesp.cli


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _load_reference() -> dict[str, int]:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())["k_star"]


# ---------------------------------------------------------------------------
# one run


class Recorder:
    """Runs operations through ``mesp.cli.main`` and counts what they answered.

    Only the distinct answers are kept, so the benchmark's own storage does
    not grow with the number of operations and stays out of ``peak_rss_mb``.
    """

    def __init__(self, cli):
        self.cli = cli
        self.times: list[float] = []
        self.attempted = 0
        # (op index, exit code, answer) -> how often; the answer is
        # (k_star, decision, witness), or the error text of an operation
        # that raised, exited 2 or printed nothing
        self.answers: collections.Counter = collections.Counter()

    def run(self, index: int, op, wrap=None) -> float:
        out, err = io.StringIO(), io.StringIO()
        call = lambda: self.cli.main(list(op.argv))  # noqa: E731
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = wrap(call) if wrap else call()
        except Exception as exc:  # a crash counts as a failed operation
            rc, answer = None, f"{type(exc).__name__}: {exc}"
        else:
            answer = err.getvalue().strip()[:200]
        elapsed = time.perf_counter() - t0
        text = out.getvalue()
        if rc in (0, 1) and text:
            report = json.loads(text)
            witness = report["witness"]
            answer = (report["k_star"], report["decision"], None if witness is None else tuple(witness))
        self.attempted += 1
        self.answers[(index, rc, answer)] += 1
        return elapsed


def _verdict(op, rc, answer, adjacency, oracle) -> str | None:
    """What is wrong with one answer, or None when it matches the reference."""
    k_star, decision, witness = answer
    expected = op.k is None or op.k >= op.k_star
    if rc != (0 if expected else 1):
        return f"exit code {rc}"
    if op.k is None and k_star != op.k_star:
        return f"k_star {k_star} != reference {op.k_star}"
    if decision is not expected:
        return f"decision {decision} != reference {expected}"
    if not expected:
        return None if witness is None else "witness given for a no"
    k = op.k_star if op.k is None else op.k
    return oracle.witness_problem(adjacency(op.file), list(witness), k)


def check_outcomes(ops, answers, oracle) -> tuple[int, int, list[str]]:
    """Failed operations (no answer), wrong answers, and one line for each
    distinct failure or wrong answer."""
    failed = wrong = 0
    lines = []
    graphs: dict[Path, list[list[int]]] = {}

    def adjacency(path):
        if path not in graphs:
            graphs[path] = oracle.read_edge_list(path)[1]
        return graphs[path]

    for (index, rc, answer), count in answers.items():
        op = ops[index]
        if not isinstance(answer, tuple):
            failed += count
            lines.append(f"failed: {' '.join(op.argv)}: exit {rc}: {answer}")
            continue
        problem = _verdict(op, rc, answer, adjacency, oracle)
        if problem is not None:
            wrong += count
            lines.append(f"wrong: {' '.join(op.argv)}: {problem}")
    return failed, wrong, lines


def prepare(workload: str, trace: bool, workdir: Path) -> dict:
    """Set-up, run in a child process: draw the pool, generate and write it
    (timed, repeated), and look up or compute the reference k* of each graph.

    Generating graphs leaves garbage and reference search allocates; in a
    child process neither raises the measuring process's peak RSS.
    """
    _import_program()
    sys.path.insert(0, str(BENCH))
    import oracle
    import pools

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    slots = pools.choose_pool(workload)
    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        files = pools.build_pool(slots, workdir)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    stored = _load_reference()
    k_stars = []
    for path in files:
        k_star = stored.get(_digest(path))
        k_stars.append(oracle.reference_k_star(path) if k_star is None else k_star)
    return {
        "setup_times": setup_times,
        "families": [slot.family for slot in slots],
        "files": [str(path) for path in files],
        "k_stars": k_stars,
        "generators_build_s": tracer.self_s["generators.build"] / len(setup_times) if tracer else None,
    }


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = _import_program()
    sys.path.insert(0, str(BENCH))
    import oracle
    import pools

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()

    if workload not in pools.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose from {', '.join(pools.WORKLOADS)}")
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        pool = _child(["--prepare", str(workdir), "--workload", workload, "--trace", str(int(trace))])
        setup_times = pool["setup_times"]
        files = [Path(f) for f in pool["files"]]
        ops = pools.operations(workload, pool["families"], files, pool["k_stars"])

        recorder = Recorder(cli)
        # op_tail_s is taken over the first tail_passes passes, the fewest a
        # run makes, so its rank does not move with the speed of the program
        tail_passes = math.ceil(MIN_OPS / len(ops))
        tail_times: list[float] = []
        pass_times = {False: [], True: []}
        traced_ops = 0
        start = time.perf_counter()
        passes = 0
        while True:
            traced = bool(tracer) and passes % 2 == 1
            if traced:
                tracer.install()
            t_pass = 0.0
            for index in pools.pass_order(len(ops), seed, passes):
                elapsed = recorder.run(index, ops[index], tracer.operation if traced else None)
                t_pass += elapsed
                if not traced:
                    recorder.times.append(elapsed)
            if traced:
                tracer.uninstall()
                traced_ops += len(ops)
            pass_times[traced].append(t_pass)
            passes += 1
            if passes == tail_passes:
                tail_times = sorted(recorder.times)
            loop_elapsed = time.perf_counter() - start
            enough = passes >= tail_passes and (not tracer or passes % 2 == 0)
            if loop_elapsed >= seconds and enough:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, wrong, lines = check_outcomes(ops, recorder.answers, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines[:10]:
        print(line, file=sys.stderr)
    attempted = recorder.attempted
    if tracer:
        metrics = _per_layer(tracer, traced_ops, pass_times, pool["generators_build_s"])
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(recorder.times) / loop_elapsed,
            "op_p50_s": statistics.median(recorder.times),
            # the highest percentile of the first tail_passes passes with at
            # least ten samples beyond it
            "op_tail_s": tail_times[len(tail_times) - 11],
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER if tracer else END_TO_END_UNITS
    print(
        f"{workload} seed={seed}: {attempted} operations in {passes} passes of {len(ops)}, "
        f"{loop_elapsed:.1f} s; {failed} failed; {wrong} wrong answers",
        file=sys.stderr,
    )
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _per_layer(tracer, traced_ops: int, pass_times, generators_build_s: float) -> dict:
    per_op = lambda x: x / traced_ops  # noqa: E731
    s, c = tracer.self_s, tracer.counts
    computed = c["params.computed"]
    plain = statistics.median(pass_times[False])
    traced = statistics.median(pass_times[True])
    return {
        "cli.self_s": per_op(s["cli"]),
        "graph.parse_s": per_op(s["graph.parse"]),
        "graph.distances_s": per_op(s["graph.distances"]),
        "graph.bfs_arcs": per_op(c["graph.bfs_arcs"]),
        "graph.coverage_s": per_op(s["graph.coverage"]),
        "graph.coverage_calls": per_op(c["graph.coverage.calls"]),
        "modulators.decomposition_s": per_op(s["modulators.decomposition"]),
        "modulators.cluster_mod_s": per_op(s["modulators.cluster_mod"]),
        "modulators.paths_mod_s": per_op(s["modulators.paths_mod"]),
        "modulators.params_used_ratio": c["params.used"] / computed if computed else 0.0,
        "solvers.search_s": per_op(s["solvers.search"]),
        "solvers.decisions": per_op(c["solvers.decisions"]),
        "solvers.decide_s": per_op(s["solvers.decide"]),
        "solvers.no_s": per_op(s["solvers.no"]),
        "solvers.paths_checked": per_op(c["solvers.paths_checked"]),
        "solvers.guesses": per_op(c["solvers.guesses"]),
        "solvers.csc_calls": per_op(c["solvers.csc_calls"]),
        "csc.dp_s": per_op(s["csc.dp"]),
        "csc.dp_cells": per_op(c["csc.dp_cells"]),
        "generators.build_s": generators_build_s,
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
    }


# ---------------------------------------------------------------------------
# modes that run the single-run command in child processes


def _child(args: list[str]) -> dict:
    """Run this script with ``args``; the JSON object on its last output line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    if done.stderr:
        print(done.stderr, end="", file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return _child(["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)])


def _save(name: str, rows: list[dict]) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    return path


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(workloads: list[str], seconds: int) -> int:
    """Two sets of RUNS_PER_SET runs per workload (seeds 1..10, then
    11..20); each end-to-end metric's median and quartiles per set, its
    spread (Q3 - Q1) / median, and the shift of the second median."""
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    rows = []
    runs = RUNS_PER_SET
    for set_name, seeds in (("A", range(1, runs + 1)), ("B", range(runs + 1, 2 * runs + 1))):
        for workload in workloads:
            for seed in seeds:
                result = _run_child(workload, seed, seconds, 0)
                rows.append({"set": set_name, "workload": workload, "seed": seed, **result})
                print(f"set {set_name} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    saved = _save("steadiness", rows)
    ok = True
    print(f"raw results: {saved.relative_to(ROOT)}")
    print("| workload | metric | bound | set A median [Q1, Q3] | A spread | set B median [Q1, Q3] | B spread | B vs A | ok |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        fail_shares = {
            set_name: "{}/{}".format(*(sum(r[key] for r in rows if r["workload"] == workload
                                         and r["set"] == set_name) for key in ("failed", "attempted")))
            for set_name in ("A", "B")
        }
        for name, spec in bounds.items():
            stats = {}
            for set_name in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in rows
                          if r["workload"] == workload and r["set"] == set_name]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats[set_name] = (med, q1, q3, (q3 - q1) / med)
            a, b = stats["A"], stats["B"]
            worse = (b[0] - a[0]) / a[0] if spec["better"] == "lower" else (a[0] - b[0]) / a[0]
            bound = spec["bound"]
            good = worse <= bound and (name == "setup_s" or (a[3] <= bound and b[3] <= bound))
            ok &= good
            print(f"| {workload} | {name} | {bound} | {a[0]:.4g} [{a[1]:.4g}, {a[2]:.4g}] | {a[3]:.3f} "
                  f"| {b[0]:.4g} [{b[1]:.4g}, {b[2]:.4g}] | {b[3]:.3f} | {worse:+.3f} | {'yes' if good else 'NO'} |")
        failed_any = any(r["failed"] for r in rows if r["workload"] == workload)
        correct_all = all(r["correct"] for r in rows if r["workload"] == workload)
        ok &= correct_all and not failed_any
        print(f"| {workload} | failed / attempted | 0 | {fail_shares.get('A')} | | {fail_shares.get('B')} | | | "
              f"{'yes' if correct_all and not failed_any else 'NO'} |")
    return 0 if ok else 1


def traced_report(workloads: list[str], seed: int, seconds: int) -> int:
    """One traced run per workload; per-layer values and self-time shares."""
    rows = []
    for workload in workloads:
        result = _run_child(workload, seed, seconds, 1)
        rows.append({"workload": workload, "seed": seed, **result})
    saved = _save("traced", rows)
    print(f"raw results: {saved.relative_to(ROOT)}")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in workloads) + " |")
    for name, unit in PER_LAYER.items():
        cells = []
        for row in rows:
            metrics = row["metrics"]
            value = metrics[name]["value"]
            cell = f"{value:.4g}"
            if unit == "s" and name != "generators.build_s" and name != "solvers.no_s":
                total = sum(m["value"] for n, m in metrics.items()
                            if m["unit"] == "s" and n not in ("generators.build_s", "solvers.no_s"))
                cell += f" ({100.0 * value / total:.1f}%)"
            cells.append(cell)
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return 0 if all(r["correct"] and not r["failed"] for r in rows) else 1


def make_reference() -> int:
    """Recompute ``reference.json``: k* of every pool graph."""
    _import_program()
    sys.path.insert(0, str(BENCH))
    import oracle
    import pools

    table = {}
    for workload in pools.WORKLOADS:
        workdir = WORK / f"reference-{workload}-{os.getpid()}"
        try:
            files = pools.build_pool(pools.choose_pool(workload), workdir)
            for path in files:
                table[_digest(path)] = oracle.reference_k_star(path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(files)} graphs", file=sys.stderr, flush=True)
    REFERENCE_FILE.write_text(json.dumps({"k_star": dict(sorted(table.items()))}, indent=0) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--steadiness", action="store_true")
    mode.add_argument("--traced-report", action="store_true")
    mode.add_argument("--make-reference", action="store_true")
    mode.add_argument("--prepare", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.make_reference:
        return make_reference()
    if args.prepare:
        print(json.dumps(prepare(args.workload, bool(args.trace), args.prepare)))
        return 0
    if args.steadiness or args.traced_report:
        spec = _spec()
        seconds = args.seconds or spec["run_seconds"]
        workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        if args.steadiness:
            return steadiness(workloads, seconds)
        return traced_report(workloads, args.seed, seconds)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required for a run")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
