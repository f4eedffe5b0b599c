"""Independent reference implementations used to derive expected values.

Nothing here imports the package under test: input parsing, distances, path
enumeration, modulator minimality and module detection are all recomputed
from scratch on plain adjacency lists, so agreement is meaningful.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read well-formed edge-list or DIMACS text one line at a time.

    Returns n and the edges as written, 0-based.  Blank and ``#`` lines are
    skipped, and so are ``c`` lines in DIMACS, which is recognized by its
    first significant line.
    """
    n = None
    dimacs = False
    edges = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#") or (dimacs and words[0] == "c"):
            continue
        if n is None:
            if words[0] in ("c", "p"):
                dimacs = True
                if words[0] == "c":
                    continue
                n = int(words[2])
            else:
                n = int(words[0])
        elif dimacs:
            edges.append((int(words[1]) - 1, int(words[2]) - 1))
        else:
            edges.append((int(words[0]), int(words[1])))
    return n, edges


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_row(adj: list[set[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def components(n: int, edges, live: set[int]) -> list[list[int]]:
    """Components of the subgraph induced by ``live``, each as a sorted
    vertex list, ordered by smallest vertex."""
    adj = adjacency(n, edges)
    seen: set[int] = set()
    out = []
    for s in sorted(live):
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u] & live:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(sorted(comp))
    return out


def distance_rows(n: int, edges) -> list[list[int]]:
    adj = adjacency(n, edges)
    return [bfs_row(adj, s) for s in range(n)]


def all_shortest_paths(n: int, edges, rows=None) -> list[tuple[int, ...]]:
    """Every shortest path as a vertex tuple, both directions included, in
    canonical order: starts ascending, then DFS preorder with each path
    extended by its end's neighbours in increasing order."""
    if rows is None:
        rows = distance_rows(n, edges)
    adj = adjacency(n, edges)
    out = []
    path = []

    def extend(u: int, s: int):
        out.append(tuple(path))
        for w in sorted(adj[u]):
            if rows[s][w] == rows[s][u] + 1:
                path.append(w)
                extend(w, s)
                path.pop()

    for s in range(n):
        path.append(s)
        extend(s, s)
        path.pop()
    return out


def path_ecc(rows, path) -> int:
    return max(min(rows[v][u] for u in path) for v in range(len(rows)))


def mesp_decision(n: int, edges, k: int) -> bool:
    rows = distance_rows(n, edges)
    return any(path_ecc(rows, p) <= k for p in all_shortest_paths(n, edges, rows))


def mesp_min_k(n: int, edges) -> int:
    rows = distance_rows(n, edges)
    return min(path_ecc(rows, p) for p in all_shortest_paths(n, edges, rows))


# -- modulators -------------------------------------------------------------


def residual_cluster_ok(adj: list[set[int]], removed: set[int]) -> bool:
    """No induced path on three vertices among survivors."""
    n = len(adj)
    live = [v for v in range(n) if v not in removed]
    for b in live:
        nbrs = [v for v in adj[b] if v not in removed]
        for a, c in combinations(nbrs, 2):
            if c not in adj[a]:
                return False
    return True


def first_p3(adj: list[set[int]], removed: set[int]) -> tuple[int, int, int] | None:
    """The cluster modulator's branching triple by a plain scan: the
    lexicographically first (a, b, c) of survivors with b adjacent to a and
    c, and c neither a nor adjacent to a; None when there is none."""
    live = [v for v in range(len(adj)) if v not in removed]
    for a in live:
        for b in live:
            if b not in adj[a]:
                continue
            for c in live:
                if c != a and c in adj[b] and c not in adj[a]:
                    return a, b, c
    return None


def residual_paths_ok(adj: list[set[int]], removed: set[int]) -> bool:
    """Survivors form disjoint simple paths: degree <= 2 and no cycles."""
    n = len(adj)
    live = set(range(n)) - removed
    deg = {v: len(adj[v] & live) for v in live}
    if any(d > 2 for d in deg.values()):
        return False
    seen: set[int] = set()
    for start in live:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u] & live:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        nedges = sum(len(adj[v] & comp) for v in comp) // 2
        if nedges != len(comp) - 1:
            return False
    return True


def min_modulator_size(n: int, edges, kind: str) -> int:
    adj = adjacency(n, edges)
    pred = residual_cluster_ok if kind == "cluster" else residual_paths_ok
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            if pred(adj, set(sub)):
                return size
    raise AssertionError("unreachable: removing everything always works")


def min_modulator_sets(n: int, edges, kind: str):
    """All minimum-size modulators, as frozensets."""
    adj = adjacency(n, edges)
    pred = residual_cluster_ok if kind == "cluster" else residual_paths_ok
    for size in range(n + 1):
        found = [
            frozenset(sub)
            for sub in combinations(range(n), size)
            if pred(adj, set(sub))
        ]
        if found:
            return found
    raise AssertionError("unreachable")


# -- modules ----------------------------------------------------------------


def is_module(adj: list[set[int]], members: set[int]) -> bool:
    outside = set(range(len(adj))) - members
    for v in outside:
        hits = len(adj[v] & members)
        if hits not in (0, len(members)):
            return False
    return True


def all_modules(n: int, edges) -> set[frozenset]:
    adj = adjacency(n, edges)
    out = set()
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            if is_module(adj, set(sub)):
                out.add(frozenset(sub))
    return out


def maximal_proper_modules(n: int, edges, members) -> set[frozenset]:
    """Maximal proper modules of the subgraph induced by ``members``, picked
    from every module of that subgraph."""
    verts = sorted(members)
    index = {v: i for i, v in enumerate(verts)}
    sub = [(index[a], index[b]) for a, b in edges if a in index and b in index]
    proper = [
        frozenset(verts[i] for i in mod)
        for mod in all_modules(len(verts), sub)
        if len(mod) < len(verts)
    ]
    return {mod for mod in proper if not any(mod < other for other in proper)}


# -- visit orders (for the unique-order suite) ------------------------------


def visit_orders(n: int, edges) -> dict:
    """(first vertex, frozenset S) -> set of orders in which shortest paths
    containing all of S visit S."""
    rows = distance_rows(n, edges)
    got: dict = {}
    # both directions of every path matter: "from s" is directional
    for path in all_shortest_paths(n, edges, rows):
        members = list(path)
        for size in range(1, len(members) + 1):
            for sub in combinations(members, size):
                order = tuple(v for v in path if v in sub)
                key = (order[0], frozenset(sub))
                got.setdefault(key, set()).add(order)
    return got


# -- constrained set cover --------------------------------------------------


def csc_feasible(r: int, groups: list[list[int]]) -> bool:
    """Groups are lists of requirement bitmasks; pick one per group."""
    full = (1 << r) - 1
    for combo in product(*groups):
        got = 0
        for mask in combo:
            got |= mask
        if got == full:
            return True
    return not groups and full == 0
