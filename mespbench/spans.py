"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of ``mesp`` at the module
attributes their callers look them up by, so the spans follow the program's
own order of calls; ``Tracer.uninstall`` puts the originals back.  A span's
self time is its duration minus the durations of the spans it encloses.
Counters come from the arguments of the wrapped calls and from the
``SolveStats`` on each answer a solver returns.
"""

from __future__ import annotations

import time
from collections import defaultdict

import mesp.cli
import mesp.csc
import mesp.generators
import mesp.graph
import mesp.solvers

# (object, attribute, span name); every caller-visible binding of a function
# is listed, since ``from x import f`` copies the binding into the caller
_TARGETS = [
    (mesp.graph, "parse_graph", "graph.parse"),
    (mesp.cli, "all_pairs_distances", "graph.distances"),
    (mesp.solvers, "all_pairs_distances", "graph.distances"),
    (mesp.graph.DistanceMatrix, "coverage_masks", "graph.coverage"),
    (mesp.cli, "modular_decomposition", "modulators.decomposition"),
    (mesp.solvers, "modular_decomposition", "modulators.decomposition"),
    (mesp.solvers, "minimum_cluster_modulator", "modulators.cluster_mod"),
    (mesp.solvers, "minimum_disjoint_paths_modulator", "modulators.paths_mod"),
    (mesp.cli, "minimize_k", "solvers.search"),
    (mesp.cli, "solve_auto", "solvers.decide"),
    (mesp.cli, "solve_bruteforce", "solvers.decide"),
    (mesp.cli, "solve_modular_width", "solvers.decide"),
    (mesp.cli, "solve_distance_to_cluster", "solvers.decide"),
    (mesp.cli, "solve_distance_to_disjoint_paths", "solvers.decide"),
    (mesp.solvers, "solve_auto", "solvers.decide"),
    (mesp.solvers, "solve_bruteforce", "solvers.decide"),
    (mesp.solvers, "solve_modular_width", "solvers.decide"),
    (mesp.solvers, "solve_distance_to_cluster", "solvers.decide"),
    (mesp.solvers, "solve_distance_to_disjoint_paths", "solvers.decide"),
    (mesp.solvers, "dp_layers", "csc.dp"),
    (mesp.solvers, "solve_csc", "csc.dp"),
    (mesp.solvers, "reconstruct_selection", "csc.dp"),
    (mesp.csc, "dp_layers", "csc.dp"),
    (mesp.generators, "gen_substitution", "generators.build"),
    (mesp.generators, "gen_subdivided_core", "generators.build"),
    (mesp.generators, "gen_cluster_plus_p", "generators.build"),
]

# which structural parameter each span computes, and which one each solver uses
_PARAM_OF_SPAN = {
    "modulators.decomposition": "mw",
    "modulators.cluster_mod": "cluster",
    "modulators.paths_mod": "paths",
}
_PARAM_OF_SOLVER = {"mw": "mw", "cluster": "cluster", "paths": "paths", "brute": None}


class Tracer:
    """Collects self times and counters while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, time spent in children]
        self._originals: list[tuple[object, str, object]] = []
        self._op_params_computed: set[str] = set()
        self._op_params_used: set[str] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> tuple[str, float]:
        """Close the innermost span; returns its name and self time."""
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        own = duration - children
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += duration
        return name, own

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            outermost_decision = name == "solvers.decide" and not any(
                frame[0] == "solvers.decide" for frame in tracer._stack[:-1]
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                _, own = tracer._exit()
            tracer._count(name, fn.__name__, args, result, own, outermost_decision)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn_name, args, result, own, outermost_decision) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "graph.distances":
            graph = args[0]
            counts["graph.bfs_arcs"] += graph.n * 2 * graph.m
        elif name in _PARAM_OF_SPAN:
            self._op_params_computed.add(_PARAM_OF_SPAN[name])
        elif name == "solvers.decide":
            if not result.decision:
                self.self_s["solvers.no"] += own
            if outermost_decision:
                stats = result.stats
                counts["solvers.decisions"] += 1
                counts["solvers.paths_checked"] += stats.paths_checked
                counts["solvers.guesses"] += stats.guesses
                counts["solvers.csc_calls"] += stats.csc_calls
                used = _PARAM_OF_SOLVER[stats.solver.rpartition(":")[2]]
                if used is not None:
                    self._op_params_used.add(used)
        elif fn_name == "dp_layers":
            inst = args[0]
            counts["csc.dp_cells"] += (len(inst.groups) + 1) << inst.r

    def operation(self, call):
        """Run one operation under a root ``cli`` span; returns what ``call`` returns."""
        self._op_params_computed = set()
        self._op_params_used = set()
        self._enter("cli")
        try:
            return call()
        finally:
            self._exit()
            self.counts["params.computed"] += len(self._op_params_computed)
            self.counts["params.used"] += len(self._op_params_used & self._op_params_computed)
