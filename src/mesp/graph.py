"""Core graph types, distances and shortest-path enumeration.

Vertices are dense integers ``0..n-1``.  Graphs are simple, undirected and
connected.  All-pairs distances are computed eagerly by BFS and kept as a
plain table; vertex subsets travel as Python int bitmasks in the hot paths
(bit ``v`` set means vertex ``v`` is in the set).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedGraphError, GraphFormatError


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected connected graph.

    Parameters
    ----------
    n : number of vertices; vertex ids are 0..n-1.
    edges : iterable of (u, v) pairs.

    Raises ``GraphFormatError`` for loops, duplicate edges or out-of-range
    endpoints and ``DisconnectedGraphError`` if the graph is not connected.
    """

    __slots__ = ("n", "m", "adjacency", "adj_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or n <= 0:
            raise GraphFormatError(f"vertex count must be a positive int, got {n!r}")
        masks = [0] * n
        m = 0
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {e!r} is not a pair") from None
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphFormatError(f"edge {e!r} has non-integer endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}")
            if masks[u] >> v & 1:
                raise GraphFormatError(f"duplicate edge {u}-{v}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            m += 1
        self.n = n
        self.m = m
        self.adj_mask = masks
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(_bits(mk)) for mk in masks
        )
        # connectivity by bitmask flood fill
        reach = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= masks[v]
            frontier = nxt & ~reach
            reach |= frontier
        if reach != (1 << n) - 1:
            raise DisconnectedGraphError(f"graph is disconnected ({n} vertices, {m} edges)")

    # -- small conveniences ------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# parsing


def parse_graph(text: str) -> Graph:
    """Parse a graph from edge-list or DIMACS text.

    Edge-list format: first significant line ``n m`` followed by ``m`` lines
    ``u v`` with 0-based endpoints; lines starting with ``#`` are comments.
    DIMACS format: ``c`` comment lines, one ``p edge n m`` line, then ``m``
    lines ``e u v`` with 1-based endpoints (converted on input).
    """
    lines = []
    dimacs = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if dimacs is None:
            dimacs = tok[0] in ("c", "p")
        if dimacs and tok[0] == "c":
            continue
        lines.append(tok)
    if not lines:
        raise GraphFormatError("empty graph input")

    if dimacs:
        head = lines[0]
        if len(head) != 4 or head[0] != "p" or head[1] != "edge":
            raise GraphFormatError(f"bad DIMACS header: {' '.join(head)!r}")
        n, m = _parse_int(head[2]), _parse_int(head[3])
        body = lines[1:]
        offset = 1
        tag = "e"
    else:
        head = lines[0]
        if len(head) != 2:
            raise GraphFormatError(f"bad header line: {' '.join(head)!r}")
        n, m = _parse_int(head[0]), _parse_int(head[1])
        body = lines[1:]
        offset = 0
        tag = None

    edges = []
    for tok in body:
        if tag is not None:
            if tok[0] != tag:
                raise GraphFormatError(f"unexpected line: {' '.join(tok)!r}")
            tok = tok[1:]
        if len(tok) != 2:
            raise GraphFormatError(f"bad edge line: {' '.join(tok)!r}")
        edges.append((_parse_int(tok[0]) - offset, _parse_int(tok[1]) - offset))
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n, edges)


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise GraphFormatError(f"expected integer, got {s!r}") from None


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---------------------------------------------------------------------------
# distances


class DistanceMatrix:
    """Eager all-pairs BFS distance table for a connected graph."""

    __slots__ = ("n", "rows", "_cover")

    def __init__(self, graph: Graph):
        self.n = graph.n
        adjacency = graph.adjacency
        rows = []
        for s in range(self.n):
            row = [-1] * self.n
            row[s] = 0
            q = deque((s,))
            while q:
                u = q.popleft()
                du = row[u] + 1
                for w in adjacency[u]:
                    if row[w] < 0:
                        row[w] = du
                        q.append(w)
            rows.append(row)
        self.rows = rows
        self._cover: dict[int, list[int]] = {}

    def d(self, u: int, v: int) -> int:
        return self.rows[u][v]

    def row(self, u: int) -> list[int]:
        return self.rows[u]

    def eccentricity(self, v: int) -> int:
        return max(self.rows[v])

    def coverage_masks(self, k: int) -> list[int]:
        """mask[v] = bitmask of vertices within distance k of v (cached per k)."""
        got = self._cover.get(k)
        if got is None:
            got = []
            for row in self.rows:
                mk = 0
                for u in range(self.n):
                    if row[u] <= k:
                        mk |= 1 << u
                got.append(mk)
            self._cover[k] = got
        return got


def all_pairs_distances(graph: Graph) -> DistanceMatrix:
    return DistanceMatrix(graph)


def dist_to_set(dist: DistanceMatrix, v: int, vertices: Iterable[int]) -> int:
    """d(v, S) = min over s in S of d(v, s).  S must be non-empty."""
    best = None
    row = dist.rows[v]
    for s in vertices:
        x = row[s]
        if best is None or x < best:
            best = x
    if best is None:
        raise ValueError("distance to an empty set is undefined")
    return best


def eccentricity_of_set(dist: DistanceMatrix, vertices: Iterable[int]) -> int:
    """max over all v of d(v, S): how far the worst vertex is from the set S."""
    vs = list(vertices)
    if not vs:
        raise ValueError("eccentricity of an empty set is undefined")
    rows = dist.rows
    return max(min(rows[v][s] for s in vs) for v in range(dist.n))


def closed_k_neighborhood(dist: DistanceMatrix, v: int, k: int) -> tuple[int, ...]:
    """All vertices at distance at most k from v, in increasing order."""
    row = dist.rows[v]
    return tuple(u for u in range(dist.n) if row[u] <= k)


# ---------------------------------------------------------------------------
# visit orders


def unique_order(dist: DistanceMatrix, s: int, vertices: Iterable[int]) -> tuple[int, ...] | None:
    """Return the only order in which a shortest path from ``s`` can visit ``vertices``.

    Sorting the set by distance from ``s`` gives the one candidate order; it is
    realizable if and only if the step distances telescope, i.e.
    ``d(s, v_1) + sum d(v_i, v_{i+1}) == d(s, v_last)``.  Returns ``None`` when
    no shortest path starting at ``s`` can visit all of the set.
    """
    row = dist.rows[s]
    order = sorted(set(vertices), key=lambda v: row[v])
    if len(order) <= 1:
        return tuple(order)
    rows = dist.rows
    total = row[order[0]]
    for a, b in zip(order, order[1:]):
        total += rows[a][b]
    if total != row[order[-1]]:
        return None
    return tuple(order)


# ---------------------------------------------------------------------------
# shortest-path enumeration

_PUSH = True
_POP = False


def _iter_path_events(graph: Graph, dist: DistanceMatrix) -> Iterator[tuple[bool, int]]:
    """DFS events of the shortest-path search, as (pushed, vertex) pairs.

    From every start vertex ``s`` (ascending) the search extends a current
    path ``p_1 .. p_t`` (with ``p_1 = s``) by any neighbor ``w`` of ``p_t``
    with ``d(s, w) == t``, trying neighbors in increasing order.  Every
    prefix visited this way is a shortest path, and every shortest path is
    visited exactly once per direction.
    """
    adjacency = graph.adjacency
    for s in range(graph.n):
        drow = dist.rows[s]
        yield _PUSH, s
        stack = [iter(adjacency[s])]
        while stack:
            depth = len(stack)
            moved = False
            for w in stack[-1]:
                if drow[w] == depth:
                    yield _PUSH, w
                    stack.append(iter(adjacency[w]))
                    moved = True
                    break
            if not moved:
                stack.pop()
                yield _POP, -1


def enumerate_shortest_paths(
    graph: Graph, dist: DistanceMatrix | None = None, dedup: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield every shortest path of the graph as a vertex tuple.

    Single vertices count as shortest paths of length 0.  Without ``dedup``
    each path of length >= 1 appears in both directions; with ``dedup`` only
    the direction with ``first < last`` is yielded (single vertices once).
    Paths appear in DFS preorder per start vertex, starts ascending.
    """
    if dist is None:
        dist = all_pairs_distances(graph)
    path: list[int] = []
    for pushed, v in _iter_path_events(graph, dist):
        if pushed:
            path.append(v)
            if not dedup or len(path) == 1 or path[0] < v:
                yield tuple(path)
        else:
            path.pop()


# ---------------------------------------------------------------------------
# path witnesses


def is_shortest_path(graph: Graph, dist: DistanceMatrix, vertices: Sequence[int]) -> bool:
    """True iff ``vertices`` is a simple path whose length equals the distance
    between its endpoints (a single vertex qualifies)."""
    t = len(vertices)
    if t == 0:
        return False
    seen = 0
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < graph.n or seen >> v & 1:
            return False
        seen |= 1 << v
    for a, b in zip(vertices, vertices[1:]):
        if not graph.adj_mask[a] >> b & 1:
            return False
    return dist.rows[vertices[0]][vertices[-1]] == t - 1


def path_within_ecc(dist: DistanceMatrix, vertices: Sequence[int], k: int) -> bool:
    """True iff every vertex of the graph is within distance k of the path."""
    cover = dist.coverage_masks(k)
    got = 0
    for v in vertices:
        got |= cover[v]
    return got == (1 << dist.n) - 1


@dataclass(frozen=True)
class PathWitness:
    """A path presented as evidence: ordered distinct vertices, consecutive
    ones adjacent, total length equal to the endpoint distance."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def is_valid(self, graph: Graph, dist: DistanceMatrix) -> bool:
        return is_shortest_path(graph, dist, self.vertices)

    def eccentricity(self, dist: DistanceMatrix) -> int:
        return eccentricity_of_set(dist, self.vertices)
