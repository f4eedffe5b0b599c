"""The fixed, seeded pool of graph files of each workload, and its operations.

A pool is a list of slots, each naming a generator and its sizes.  Every
slot's sub-seed is drawn from ``random.Random("<workload>:<POOL_SEED>")``,
so every run works on the same graphs and every pass does the same work.
The run's own ``--seed`` orders the
operations of each pass (``pass_order``).

Choosing a pool (``choose_pool``) draws the sub-seeds and is not timed.
Set-up (``build_pool``) regenerates every graph from its sub-seed through
``mesp.generators`` (or the paths-plus-c builder below) and writes its
edge-list file; that is what ``setup_s`` times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import mesp.generators

import oracle

# pattern cap for substitution graphs.  Cap 8 admits the 7-cycle as a prime
# pattern; with a 7-cycle at the root no shortest path dominates the graph,
# k* = 2, and the "no" at k = 1 would need an exhaustive search over far too
# many shortest paths to be checked.  Up to 6 every pattern has a dominating
# shortest path, so k* <= 1 and the reference settles it at once.
SUBSTITUTION_PATTERN_CAP = 6
POOL_SEED = 2020

# substitution slots keep edge density m / (n choose 2) in this band, so the
# all-pairs BFS work n * 2m of a slot stays close to that of its neighbours
SUBSTITUTION_DENSITY = (0.40, 0.50)

# Each slot is (family, sizes).  A pass takes 8-12 s on the machine in
# README.md, so a 25 s run makes three or four passes.
_SLOTS = {
    "dense-substitution": [("substitution", n) for n in range(200, 312, 4)],
    "sparse-core": [("subdivided-core", n) for n in range(150, 262, 7)],
    "guess-cover": (
        [("cluster-plus-p", spec) for spec in ((80, 3), (100, 4), (120, 4), (100, 5))] * 9
        + [("paths-plus-c", spec) for spec in ((5, 10, 3), (6, 10, 3), (4, 12, 3), (6, 8, 3))] * 9
    ),
}
WORKLOADS = tuple(_SLOTS)


@dataclass(frozen=True)
class Slot:
    family: str
    spec: object
    sub_seed: int


@dataclass(frozen=True)
class Operation:
    """One ``mesp`` call: ``argv`` for ``mesp.cli.main`` and what it must answer."""

    argv: tuple[str, ...]
    file: Path
    k: int | None  # None for a minimization
    k_star: int


def paths_plus_c(q: int, length: int, c: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """q disjoint paths of ``length`` vertices plus c apex vertices.

    Path i holds vertices [i*length, (i+1)*length); the apexes are the last c
    vertices and form a chain.  Both ends of every path and up to two random
    interior vertices are joined to random apexes, so the graph is connected
    and deleting the apexes leaves exactly the q paths.
    """
    n = q * length + c
    apexes = range(q * length, n)
    edges = set()
    for i in range(q):
        first = i * length
        for v in range(first, first + length - 1):
            edges.add((v, v + 1))
        attached = [first, first + length - 1]
        attached += [first + rng.randrange(length) for _ in range(rng.randint(0, 2))]
        for v in attached:
            edges.add((v, rng.choice(apexes)))
    for a in apexes[1:]:
        edges.add((a - 1, a))
    return n, sorted(edges)


def check_paths_plus_c(n: int, edges, c: int) -> None:
    """Raise unless the graph is connected and deleting the last c vertices
    leaves a disjoint union of paths."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if not oracle.is_connected(adj):
        raise ValueError("paths-plus-c graph is disconnected")
    keep = n - c
    residual = [[w for w in adj[v] if w < keep] for v in range(keep)]
    if max(len(nb) for nb in residual) > 2:
        raise ValueError("paths-plus-c residual has a vertex of degree > 2")
    components = 0
    seen = [False] * keep
    for s in range(keep):
        if not seen[s]:
            components += 1
            for v, d in enumerate(oracle.bfs(residual, [s])):
                if d >= 0:
                    seen[v] = True
    residual_edges = sum(len(nb) for nb in residual) // 2
    if residual_edges != keep - components:
        raise ValueError("paths-plus-c residual has a cycle")


def _generate(slot: Slot) -> tuple[int, list[tuple[int, int]]]:
    rng = random.Random(slot.sub_seed)
    if slot.family == "paths-plus-c":
        return paths_plus_c(*slot.spec, rng)
    if slot.family == "substitution":
        graph, _ = mesp.generators.gen_substitution(slot.spec, SUBSTITUTION_PATTERN_CAP, rng)
    elif slot.family == "subdivided-core":
        graph, _ = mesp.generators.gen_subdivided_core(10, 12, slot.spec, rng)
    else:
        graph, _ = mesp.generators.gen_cluster_plus_p(*slot.spec, rng)
    return graph.n, list(graph.edges())


def choose_pool(workload: str) -> list[Slot]:
    """One sub-seed per slot, drawn from the workload's pool seed."""
    master = random.Random(f"{workload}:{POOL_SEED}")
    slots = []
    for family, spec in _SLOTS[workload]:
        while True:
            slot = Slot(family, spec, master.randrange(1 << 32))
            if family != "substitution":
                break
            n, edges = _generate(slot)
            lo, hi = SUBSTITUTION_DENSITY
            if lo <= len(edges) / (n * (n - 1) / 2) <= hi:
                break
        if family == "paths-plus-c":
            check_paths_plus_c(*_generate(slot), slot.spec[2])
        slots.append(slot)
    return slots


def build_pool(slots: list[Slot], directory: Path) -> list[Path]:
    """Generate every graph of the pool and write it as an edge-list file."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, slot in enumerate(slots):
        n, edges = _generate(slot)
        path = directory / f"g{i:03d}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {len(edges)}\n")
            fh.write("".join(f"{u} {v}\n" for u, v in edges))
        files.append(path)
    return files


def operations(workload: str, families: list[str], files: list[Path], k_stars: list[int]) -> list[Operation]:
    """The calls of one pass: a minimization per graph, or for guess-cover a
    decision at k* - 1 (a complete search ending in "no") and at k*."""
    ops = []
    for family, path, k_star in zip(families, files, k_stars):
        if workload != "guess-cover":
            ops.append(Operation(("solve", str(path), "--minimize", "--json"), path, None, k_star))
            continue
        solver = "cluster" if family == "cluster-plus-p" else "paths"
        for k in (k for k in (k_star - 1, k_star) if k >= 0):
            argv = ("solve", str(path), "--k", str(k), "--solver", solver, "--json")
            ops.append(Operation(argv, path, k, k_star))
    return ops


def pass_order(count: int, seed: int, pass_index: int) -> list[int]:
    """The order of a pass's operations: a permutation drawn from the run seed."""
    order = list(range(count))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
