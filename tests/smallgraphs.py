"""Catalog of all connected graphs up to isomorphism, small n.

Built by augmentation: every connected graph on n vertices is a connected
graph on n-1 vertices plus one new vertex joined to a nonempty subset of the
old ones.  Candidates are deduplicated by color-refinement invariants with a
backtracking isomorphism check inside each invariant bucket.

Graphs are represented as tuples of adjacency bitmasks, one per vertex.
"""

from __future__ import annotations

from functools import lru_cache

# known counts of connected graphs up to isomorphism (long-tabulated sequence)
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def edges_of(adj: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(adj)
    return [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1]


def _refine_colors(adj: tuple[int, ...], ids: dict, rounds: int = 3) -> tuple[int, ...]:
    """Per-vertex colour ids after ``rounds`` rounds of refinement.  ``ids``
    maps (round, own colour, sorted neighbour colours) to a colour id; graphs
    refined with one table get ids that compare across them."""
    n = len(adj)
    nbrs = [[w for w in range(n) if a >> w & 1] for a in adj]
    colors = [len(nb) for nb in nbrs]
    for r in range(rounds):
        colors = [
            ids.setdefault((r, colors[v], tuple(sorted(map(colors.__getitem__, nb)))), len(ids))
            for v, nb in enumerate(nbrs)
        ]
    return tuple(colors)


def _isomorphic(a: tuple[int, ...], ca: tuple[int, ...], b: tuple[int, ...], cb: tuple[int, ...]) -> bool:
    """Whether a and b are isomorphic, given their colours ca and cb (which
    the caller has already found equal as multisets)."""
    n = len(a)
    # map vertices of a (rarest colors first) onto same-colored vertices of b
    order = sorted(range(n), key=lambda v: (ca.count(ca[v]), v))
    image = [-1] * n
    used = 0

    def place(idx: int) -> bool:
        nonlocal used
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            ok = True
            for j in range(idx):
                u = order[j]
                if (a[v] >> u & 1) != (b[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used |= 1 << w
                if place(idx + 1):
                    return True
                used &= ~(1 << w)
                image[v] = -1
        return False

    return place(0)


@lru_cache(maxsize=None)
def connected_catalog(n: int) -> tuple[tuple[int, ...], ...]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n == 1:
        return ((0,),)
    out: list[tuple[int, ...]] = []
    buckets: dict = {}
    ids: dict = {}
    for small in connected_catalog(n - 1):
        for subset in range(1, 1 << (n - 1)):
            adj = tuple(
                small[v] | ((subset >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (subset,)
            colors = _refine_colors(adj, ids)
            # the colours start from the degrees, so they fix the edge count
            reps = buckets.setdefault(tuple(sorted(colors)), [])
            if any(_isomorphic(adj, colors, rep, rep_colors) for rep, rep_colors in reps):
                continue
            reps.append((adj, colors))
            out.append(adj)
    expected = EXPECTED_COUNTS.get(n)
    if expected is not None and len(out) != expected:
        raise AssertionError(f"catalog size {len(out)} != {expected} for n={n}")
    return tuple(out)


def catalog_up_to(n: int):
    """(vertex count, adjacency) pairs for every connected graph with <= n
    vertices, one per isomorphism class."""
    for size in range(1, n + 1):
        for adj in connected_catalog(size):
            yield size, adj
