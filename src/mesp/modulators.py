"""Vertex-deletion modulators and modular decomposition.

Two modulator kinds are supported: deleting the set must leave either a
cluster graph (disjoint union of cliques) or a disjoint union of paths.
One bounded search tree finds both, budgets tried from zero up so that the
first hit has minimum size.  Each kind branches on its obstruction: an
induced P3, or a vertex of degree >= 3 and, when there is none, a cycle; a
set is valid exactly when no obstruction is left.  One memo of the branch
rule serves every budget, and holds every set the tree reaches.

The modular decomposition splits a disconnected vertex set into components
(union node), a co-disconnected one into co-components (join node), and
otherwise into its maximal proper modules, which partition the set and leave
a prime quotient pattern.  Sets are split from an explicit stack and nodes
are built children first, so no call nests once per tree level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations
from typing import Iterator

from .errors import MespError
from .graph import Graph, _bits, _mask_of, components

CLUSTER = "cluster"
DISJOINT_PATHS = "disjoint-paths"


@dataclass(frozen=True)
class Modulator:
    """A deletion set whose removal leaves a graph of the named kind."""

    kind: str
    vertices: frozenset[int]

    def __post_init__(self):
        if self.kind not in (CLUSTER, DISJOINT_PATHS):
            raise ValueError(f"unknown modulator kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.vertices)


# ---------------------------------------------------------------------------
# one bounded search tree, with a branch rule per kind


def _first_p3(graph: Graph, removed: int) -> tuple[int, int, int] | None:
    """Lexicographically first (a, b, c) with b adjacent to both a and c and
    a, c non-adjacent, among vertices not yet removed.

    a is the smallest live vertex whose closed live neighbourhood N[a] is
    not its whole live component.  When no neighbour of a reaches past N[a],
    N[a] is that component, and every vertex x in it with N[x] = N[a] has no
    P3 either, so the scan skips them all at once."""
    live = ((1 << graph.n) - 1) & ~removed
    adj = graph.adj_mask
    todo = live
    while todo:
        a = (todo & -todo).bit_length() - 1
        na = (adj[a] | 1 << a) & live
        for b in _bits(na):
            cand = adj[b] & live & ~na
            if cand:
                return a, b, (cand & -cand).bit_length() - 1
        for x in _bits(na):
            if (adj[x] | 1 << x) & live == na:
                todo &= ~(1 << x)
    return None


def _cluster_branches(graph: Graph, removed: int) -> tuple | None:
    """Delete one vertex of the first induced P3; None when there is none."""
    p3 = _first_p3(graph, removed)
    return None if p3 is None else (p3, None)


def _paths_branches(graph: Graph, removed: int) -> tuple | None:
    """Delete a live vertex u of maximum degree d >= 3, or d - 2 of its live
    neighbours, so that u keeps at most two.  Without such a u every
    component is a path or a cycle: delete the lowest vertex of the first
    cycle, one with as many edges as vertices."""
    live = ((1 << graph.n) - 1) & ~removed
    adj = graph.adj_mask
    u, deg = None, 2
    for v in _bits(live):
        d = (adj[v] & live).bit_count()
        if d > deg:
            u, deg = v, d
    if u is not None:
        return (u,), (adj[u] & live, deg - 2)
    for comp in components(adj, live):
        if sum((adj[v] & comp).bit_count() for v in _bits(comp)) == 2 * comp.bit_count():
            return ((comp & -comp).bit_length() - 1,), None
    return None


_BRANCHES = {CLUSTER: _cluster_branches, DISJOINT_PATHS: _paths_branches}


def modulator_is_valid(graph: Graph, mod: Modulator) -> bool:
    """True iff ``mod`` holds only vertices of ``graph`` and deleting them
    leaves a graph of its kind: no branch rule applies."""
    inside = all(0 <= v < graph.n for v in mod.vertices)
    return inside and _BRANCHES[mod.kind](graph, _mask_of(mod.vertices)) is None


def _minimum_modulator(kind: str, graph: Graph, cap: int | None) -> Modulator | None:
    """Smallest modulator of ``kind``, budgets tried in increasing order, so
    the first hit has minimum size; None once the budget would exceed ``cap``.

    The kind's branch rule maps a removed mask to None when the residual has
    the kind, else to (vertices, trim): delete one of ``vertices``, each in
    turn, then, for ``trim = (pool, size)``, ``size`` vertices of the mask
    ``pool``, each subset in combinations order.  A branch is taken only when
    it fits the budget left.  All budgets share one memo of the rule by
    removed mask, so no set is scanned twice, whether a shallower tree or
    another branch order reached it first.
    """
    branches = lru_cache(maxsize=None)(partial(_BRANCHES[kind], graph))

    def search(removed: int, budget: int) -> int | None:
        rule = branches(removed)
        if rule is None:
            return removed
        if budget == 0:
            return None
        vertices, trim = rule
        for v in vertices:
            got = search(removed | 1 << v, budget - 1)
            if got is not None:
                return got
        if trim is not None and trim[1] <= budget:
            pool, size = trim
            for sub in combinations(_bits(pool), size):
                got = search(removed | _mask_of(sub), budget - size)
                if got is not None:
                    return got
        return None

    top = graph.n if cap is None else min(cap, graph.n)
    for budget in range(top + 1):
        got = search(0, budget)
        if got is not None:
            return Modulator(kind, frozenset(_bits(got)))
    return None


def minimum_cluster_modulator(graph: Graph, cap: int | None = None) -> Modulator | None:
    return _minimum_modulator(CLUSTER, graph, cap)


def minimum_disjoint_paths_modulator(graph: Graph, cap: int | None = None) -> Modulator | None:
    return _minimum_modulator(DISJOINT_PATHS, graph, cap)


# ---------------------------------------------------------------------------
# modular decomposition


@dataclass(frozen=True)
class MDNode:
    """Node of a modular decomposition tree.

    kind is one of ``leaf`` (single vertex), ``union`` (children are the
    connected components), ``join`` (children are the co-components) or
    ``prime`` (children are the maximal proper modules; ``pattern`` is the
    quotient graph, its vertex i standing for ``children[i]``).  ``mask`` is
    the node's vertex set, derived from the vertex or the children.
    """

    kind: str
    vertex: int = -1
    children: tuple["MDNode", ...] = ()
    pattern: Graph | None = None
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "leaf":
            mask = 1 << self.vertex
        else:
            mask = 0
            for ch in self.children:
                mask |= ch.mask
        object.__setattr__(self, "mask", mask)

    def min_vertex(self) -> int:
        return (self.mask & -self.mask).bit_length() - 1


def modular_decomposition(graph: Graph) -> MDNode:
    adj = graph.adj_mask
    full = (1 << graph.n) - 1
    co_adj = [full & ~av & ~(1 << v) for v, av in enumerate(adj)]

    def modules_avoiding(mask: int, v: int) -> list[int]:
        # maximal modules of the induced subgraph that do not contain v:
        # refine {N(v), non-neighbors} from a worklist of splitters.  A
        # splitter tests only the parts holding its neighbors; a part that
        # splits queues its vertices again, as each now lies outside its sibling
        live = mask & ~(1 << v)
        av = adj[v] & mask
        parts = [p for p in (av, live & ~av) if p]
        part_of = [0] * len(adj)
        for i, part in enumerate(parts):
            for x in _bits(part):
                part_of[x] = i
        todo = live
        while todo:
            z = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            az = adj[z]
            hit = az & live & ~parts[part_of[z]]
            while hit:
                i = part_of[(hit & -hit).bit_length() - 1]
                part = parts[i]
                hit &= ~part
                rest = part & ~az
                if rest:
                    parts[i] = part & az
                    for x in _bits(rest):
                        part_of[x] = len(parts)
                    parts.append(rest)
                    todo |= part
        return parts

    def min_module_containing(mask: int, seed: int) -> int:
        # close the seed under splitters: an outside z splits W exactly when
        # z is in N(w) ^ N(w0) for some w in W, w0 the seed's lowest vertex,
        # so each absorbed vertex adds its differing vertices once
        a0 = adj[(seed & -seed).bit_length() - 1]
        w = frontier = seed
        while frontier and w != mask:
            diff = 0
            while frontier:
                low = frontier & -frontier
                diff |= adj[low.bit_length() - 1] ^ a0
                frontier ^= low
            frontier = diff & mask & ~w
            w |= frontier
        return w

    def maximal_proper_modules(mask: int) -> list[int]:
        # connected and co-connected here, so the maximal proper modules
        # partition the vertex set and the quotient is prime.  v0's maximal
        # proper module M0 is strong, so each class (a module) lies inside M0,
        # and closing v0's part with it stays there, or is disjoint from M0,
        # and the closure reaches the whole prime node: M0 is absorbed exactly
        v0 = (mask & -mask).bit_length() - 1
        classes = modules_avoiding(mask, v0)
        part_of_v0 = 1 << v0
        for cls in classes:
            if cls & ~part_of_v0:
                grown = min_module_containing(mask, part_of_v0 | cls)
                if grown != mask:
                    part_of_v0 = grown
        parts = [part_of_v0] + [cls for cls in classes if cls & part_of_v0 == 0]
        got = 0
        for part in parts:
            if got & part:
                raise MespError("modular decomposition produced overlapping parts")
            got |= part
        if got != mask or len(parts) < 2:
            raise MespError("modular decomposition lost vertices or split nothing")
        # a part is a module iff its vertices all see the same outside
        for part in parts:
            a0 = adj[(part & -part).bit_length() - 1]
            outside = mask & ~part
            for w in _bits(part & (part - 1)):
                if (adj[w] ^ a0) & outside:
                    raise MespError("modular decomposition produced a non-module part")
        return parts

    # split every set from a stack, parents before children; the parts of a
    # split come ordered by their smallest vertex
    splits = []
    todo = [full]
    while todo:
        mask = todo.pop()
        pattern = None
        if mask & (mask - 1) == 0:
            kind, parts = "leaf", []
        else:
            kind, parts = "union", components(adj, mask)
            if len(parts) == 1:
                kind, parts = "join", components(co_adj, mask)
            if len(parts) == 1:
                kind, parts = "prime", maximal_proper_modules(mask)
                parts.sort(key=lambda c: c & -c)
                reps = [(p & -p).bit_length() - 1 for p in parts]
                edges = [
                    (i, j)
                    for i, j in combinations(range(len(parts)), 2)
                    if adj[reps[i]] >> reps[j] & 1
                ]
                pattern = Graph(len(parts), edges)
        splits.append((mask, kind, parts, pattern))
        todo.extend(parts)

    # build the nodes in reverse, so every child exists before its parent
    built: dict[int, MDNode] = {}
    for mask, kind, parts, pattern in reversed(splits):
        if kind == "leaf":
            built[mask] = MDNode("leaf", vertex=mask.bit_length() - 1)
        else:
            children = tuple(built.pop(p) for p in parts)
            built[mask] = MDNode(kind, children=children, pattern=pattern)
    return built[full]


def _nodes(root: MDNode) -> Iterator[MDNode]:
    """Every node of the tree, each parent before its children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def modular_width(node: MDNode) -> int:
    """Largest child count over prime nodes; 0 when the tree has none."""
    return max((len(nd.children) for nd in _nodes(node) if nd.kind == "prime"), default=0)

