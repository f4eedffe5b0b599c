"""Seedable generators for benchmark and test instances.

Every generator returns a connected graph; families that promise a structure
parameter return its witness alongside (a modulator, a core description, or a
width bound), valid by construction.  All randomness flows through the caller
supplied ``random.Random`` so runs are reproducible; bump GENERATOR_VERSION
whenever emitted graphs could change for the same seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph
from .modulators import CLUSTER, Modulator

GENERATOR_VERSION = "1"

# small prime graphs used as substitution patterns, by vertex count
_PATTERNS = {
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "bull": (5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "p5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "c6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
    "p6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "c7": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]),
    "p8": (8, [(i, i + 1) for i in range(7)]),
}


def gen_random_connected(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform-ish connected graph: random recursive tree plus extra edges."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"m={m} out of range [{n - 1}, {max_m}] for n={n}")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    pool = [e for e in combinations(range(n), 2) if e not in edges]
    extra = rng.sample(pool, m - len(edges))
    edges.update(extra)
    return Graph(n, sorted(edges))


def gen_cluster_plus_p(n: int, p: int, rng: random.Random) -> tuple[Graph, Modulator]:
    """Disjoint cliques plus ``p`` extra vertices wired to keep the graph
    connected; the extra vertices are a valid cluster modulator."""
    if p < 0 or p > n:
        raise ValueError(f"p={p} out of range for n={n}")
    if p == 0:
        return Graph(n, combinations(range(n), 2)), Modulator(CLUSTER, frozenset())
    base = n - p
    if base == 0:
        # no cliques at all: arbitrary connected graph on the modulator
        m = rng.randint(p - 1, p * (p - 1) // 2)
        return gen_random_connected(p, m, rng), Modulator(
            CLUSTER, frozenset(range(p))
        )
    sizes = []
    left = base
    while left:
        take = min(left, rng.randint(1, max(2, base // max(2, p))))
        sizes.append(take)
        left -= take
    cliques = []
    at = 0
    edges = []
    for size in sizes:
        verts = list(range(at, at + size))
        at += size
        cliques.append(verts)
        edges.extend(combinations(verts, 2))
    apexes = list(range(base, n))
    # every clique hangs off some apex; apexes link up via an edge or a
    # previously attached clique, so the whole graph is connected
    touched: list[list[int]] = [[] for _ in apexes]
    for ci, verts in enumerate(cliques):
        ai = rng.randrange(p)
        for v in rng.sample(verts, min(len(verts), rng.randint(1, 2))):
            edges.append((v, apexes[ai]))
        touched[ai].append(ci)
    for ai in range(1, p):
        prev = apexes[ai - 1]
        if rng.random() < 0.5 or not touched[ai - 1]:
            edges.append((prev, apexes[ai]))
        else:
            ci = rng.choice(touched[ai - 1])
            edges.append((rng.choice(cliques[ci]), apexes[ai]))
    graph = Graph(n, sorted(set(edges)))
    return graph, Modulator(CLUSTER, frozenset(apexes))


def gen_subdivided_core(
    core_n: int, core_m: int, n: int, rng: random.Random
) -> tuple[Graph, dict]:
    """Random connected core with its edges subdivided out to ``n`` vertices.

    Subdividing cannot raise the maximum leaf number, so the result inherits
    the core's small spanning-tree leaf count.
    """
    if n < core_n:
        raise ValueError(f"n={n} smaller than core_n={core_n}")
    core = gen_random_connected(core_n, core_m, rng)
    core_edges = sorted(core.edges())
    stretch = [0] * len(core_edges)
    for _ in range(n - core_n):
        stretch[rng.randrange(len(core_edges))] += 1
    edges = []
    nxt = core_n
    for (a, b), extra in zip(core_edges, stretch):
        prev = a
        for _ in range(extra):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
    graph = Graph(n, edges)
    return graph, {"core_n": core_n, "core_m": core_m}


def gen_substitution(
    n: int, pattern_cap: int, rng: random.Random
) -> tuple[Graph, int]:
    """Graph built by recursive module substitution into small prime patterns
    and joins; returns it with an upper bound on its modular width."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if pattern_cap < 4:
        raise ValueError(f"pattern_cap must be >= 4, got {pattern_cap}")
    usable = [(q, ed) for q, ed in _PATTERNS.values() if q <= pattern_cap]
    bound = 0
    edges: list[tuple[int, int]] = []

    def split(total: int, parts: int) -> list[int]:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    def build(base: int, size: int) -> list[int]:
        """Emit edges of a connected module on [base, base+size); returns the
        vertex ids (for the parent's cross edges)."""
        nonlocal bound
        verts = list(range(base, base + size))
        if size == 1:
            return verts
        if size == 2:
            edges.append((base, base + 1))
            return verts
        choices = [(q, ed) for q, ed in usable if q <= size]
        if choices and rng.random() < 0.7:
            q, pattern = rng.choice(choices)
            bound = max(bound, q)
        else:
            pattern = None
            q = 2  # plain join of two parts
        sizes = split(size, q)
        blocks = []
        at = base
        for part in sizes:
            blocks.append(build(at, part))
            at += part
        if pattern is None:
            for a in blocks[0]:
                for b in blocks[1]:
                    edges.append((a, b))
        else:
            for i, j in pattern:
                for a in blocks[i]:
                    for b in blocks[j]:
                        edges.append((a, b))
        return verts

    build(0, n)
    return Graph(n, edges), bound
