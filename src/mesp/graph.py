"""Core graph types, distances and shortest-path enumeration.

Vertices are dense integers ``0..n-1``.  Graphs are simple, undirected and
connected.  All-pairs distances are kept as a plain table with each vertex's
eccentricity, filled by one frontier-bitmask BFS per source or, from a
partition of the vertices into modules, by one template row per module.
Vertex subsets travel as Python int bitmasks in the hot paths (bit ``v`` set
means vertex ``v`` is in the set).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedGraphError, GraphFormatError


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit ``v`` set for every ``v`` in ``vertices``."""
    mk = 0
    for v in vertices:
        mk |= 1 << v
    return mk


def components(adj: Sequence[int], live: int) -> list[int]:
    """Connected components of the subgraph induced by the mask ``live``.

    ``adj[v]`` is the neighbor mask of vertex v.  Components come back as
    masks ordered by their smallest vertex.
    """
    comps = []
    todo = live
    while todo:
        reach = frontier = todo & -todo
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & live & ~reach
            reach |= frontier
        comps.append(reach)
        todo &= ~reach
    return comps


class Graph:
    """Immutable simple undirected connected graph.

    Parameters
    ----------
    n : number of vertices; vertex ids are 0..n-1.
    edges : iterable of (u, v) pairs.

    Raises ``GraphFormatError`` for loops, duplicate edges or out-of-range
    endpoints and ``DisconnectedGraphError`` if the graph is not connected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        pairs = list(edges)
        try:
            us, vs = zip(*pairs, strict=True) if pairs else ((), ())
        except (TypeError, ValueError):
            bad = next(e for e in pairs if not hasattr(e, "__len__") or len(e) != 2)
            raise GraphFormatError(f"edge {bad!r} is not a pair") from None
        if not all(map(isinstance, us + vs, repeat(int))):
            bad = next(e for e in pairs if not (isinstance(e[0], int) and isinstance(e[1], int)))
            raise GraphFormatError(f"edge {bad!r} has non-integer endpoints")
        self._build(n, us, vs)

    def _build(self, n: int, us: Sequence[int], vs: Sequence[int]) -> Graph:
        """Check the int edges (us[i], vs[i]) in bulk and build the masks; an
        offending edge is looked up only for the message.  Every graph is built here."""
        if not isinstance(n, int) or n <= 0:
            raise GraphFormatError(f"vertex count must be a positive int, got {n!r}")
        if us and (min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= n):
            bad = next(e for e in zip(us, vs) if not (0 <= e[0] < n and 0 <= e[1] < n))
            raise GraphFormatError(f"edge {bad!r} out of range for n={n}")
        if any(map(eq, us, vs)):
            raise GraphFormatError(f"loop at vertex {next(u for u, v in zip(us, vs) if u == v)}")
        bit = [1 << v for v in range(n)]
        masks = [0] * n
        for u, v in zip(us, vs):
            masks[u] |= bit[v]
            masks[v] |= bit[u]
        if sum(map(int.bit_count, masks)) != 2 * len(us):
            dup = next(e for e, c in Counter(map(frozenset, zip(us, vs))).items() if c > 1)
            raise GraphFormatError("duplicate edge {}-{}".format(*sorted(dup)))
        self.n = n
        self.m = len(us)
        self.adj_mask = masks
        if len(components(masks, (1 << n) - 1)) > 1:
            raise DisconnectedGraphError(f"graph is disconnected ({n} vertices, {self.m} edges)")
        return self

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, built on first use: only shortest-path
        enumeration and small patterns read them."""
        return tuple(tuple(_bits(mk)) for mk in self.adj_mask)

    # -- small conveniences ------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u, mk in enumerate(self.adj_mask):
            for v in _bits(mk >> u + 1 << u + 1):
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
    Lines are split once and checked in bulk, as in ``Graph._build``.
    """
    lines = list(filter(None, map(str.split, text.splitlines())))
    if "#" in text:
        lines = [tok for tok in lines if tok[0][0] != "#"]
    dimacs = bool(lines) and lines[0][0] in ("c", "p")
    if dimacs:
        lines = [tok for tok in lines if tok[0] != "c"]
    if not lines:
        raise GraphFormatError("empty graph input")

    head, body = lines[0], lines[1:]
    if dimacs:
        if len(head) != 4 or head[0] != "p" or head[1] != "edge":
            raise GraphFormatError(f"bad DIMACS header: {' '.join(head)!r}")
        n, m = _parse_int(head[2]), _parse_int(head[3])
    else:
        if len(head) != 2:
            raise GraphFormatError(f"bad header line: {' '.join(head)!r}")
        n, m = _parse_int(head[0]), _parse_int(head[1])

    width = 2 + dimacs
    tokens = list(chain.from_iterable(body))
    if not set(map(len, body)) <= {width} or dimacs and not set(tokens[::3]) <= {"e"}:
        bad = next(tok for tok in body if len(tok) != width or dimacs and tok[0] != "e")
        raise GraphFormatError(f"bad edge line: {' '.join(bad)!r}")
    if dimacs:
        del tokens[::3]
    try:
        ends = list(map(int, tokens))
    except ValueError:
        ends = [_parse_int(t) for t in tokens]  # raises at the first bad token
    if len(body) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(body)}")
    if dimacs:
        ends = [x - 1 for x in ends]
    return Graph.__new__(Graph)._build(n, ends[::2], ends[1::2])


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
    """All-pairs distance table of a connected graph.

    ``rows[u][v]`` is d(u, v).  The constructor fills it by BFS and
    ``from_split`` from a partition into modules; every reader works on
    either.  One BFS per source fills a row and records the source's
    eccentricity.  The BFS keeps its frontier and visited set
    as bitmasks: each layer's vertices are read off the frontier's set bits
    once, each gets its distance and ORs its neighbor mask into the next
    frontier.  The bits are walked inline, not with ``_bits``: the generator
    made the BFS 15-20% slower at average degree 8-16.  It keeps its graph,
    the rows, the eccentricities and the coverage levels above a floor.
    """

    __slots__ = ("graph", "rows", "_ecc", "_cover", "_floor")

    def __init__(self, graph: Graph):
        n = graph.n
        adj = graph.adj_mask
        rows = []
        ecc = []
        for s in range(n):
            row = [0] * n
            seen = frontier = 1 << s
            d = -1
            while frontier:
                d += 1
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    v = low.bit_length() - 1
                    row[v] = d
                    nxt |= adj[v]
                    frontier ^= low
                frontier = nxt & ~seen
                seen |= frontier
            rows.append(row)
            ecc.append(d)
        self._keep(graph, rows, ecc)

    @classmethod
    def from_split(
        cls, graph: Graph, parts: Sequence[int], quotient: Sequence[Sequence[int]]
    ) -> DistanceMatrix:
        """The table of ``graph`` from a partition of its vertices into at
        least two modules, the masks ``parts``, whose quotient graph has the
        distance rows ``quotient``.

        The graph is connected, so every part has an outside neighbour, which
        is adjacent to the whole part.  So for u in part i and v in part j,
        d(u, v) is ``quotient[i][j]`` when i != j, and inside part i it is 1
        for neighbours and 2 otherwise.  Part i's template row holds the
        quotient distances and 2 inside the part; u's row copies it, sets u's
        neighbours inside the part to 1 and u itself to 0.
        """
        n = graph.n
        adj = graph.adj_mask
        part_of = [0] * n
        for i, mask in enumerate(parts):
            for v in _bits(mask):
                part_of[v] = i
        rows: list[list[int]] = [[]] * n
        ecc = [0] * n
        for i, mask in enumerate(parts):
            to_part = list(quotient[i])
            far = max(to_part)
            to_part[i] = 2
            template = list(map(to_part.__getitem__, part_of))
            for u in _bits(mask):
                row = template.copy()
                inner = near = adj[u] & mask
                while near:
                    bit = near & -near
                    row[bit.bit_length() - 1] = 1
                    near ^= bit
                row[u] = 0
                rows[u] = row
                # a vertex of the part that is neither u nor a neighbour is at 2
                ecc[u] = max(far, 2) if mask ^ inner ^ 1 << u else far
        self = cls.__new__(cls)
        self._keep(graph, rows, ecc)
        return self

    def _keep(self, graph: Graph, rows: list[list[int]], ecc: list[int]) -> None:
        self.graph = graph
        self.rows = rows
        self._ecc = ecc
        self._cover: dict[int, list[int]] = {}
        self._floor = min(ecc) - (max(ecc) + 1) // 2  # no shortest path's eccentricity is lower

    def eccentricity(self, v: int) -> int:
        return self._ecc[v]

    def coverage_masks(self, k: int) -> list[int]:
        """mask[v] = bitmask of vertices within distance k of v.  Level 0 is
        ``1 << v``, level 1 adds ``adj_mask[v]``, and level j + 1 ORs level j of
        v and its neighbours (full masks kept), built up from the highest cached
        level, with k clamped to the diameter; levels under the floor are not kept.
        """
        if k < 0:
            return [0] * self.graph.n
        k = min(k, max(self._ecc))
        j = max((i for i in self._cover if i <= k), default=min(k, 1))
        got = self._cover.get(j) or [
            mask | 1 << v if j else 1 << v for v, mask in enumerate(self.graph.adj_mask)
        ]
        full = (1 << self.graph.n) - 1
        while True:
            if j >= self._floor:
                self._cover[j] = got
            if j == k:
                return got
            prev, got = got, []
            for mask, nbrs in zip(prev, self.graph.adjacency):
                if mask != full:
                    for w in nbrs:
                        mask |= prev[w]
                got.append(mask)
            j += 1


def all_pairs_distances(graph: Graph) -> DistanceMatrix:
    return DistanceMatrix(graph)


def eccentricity_of_set(dist: DistanceMatrix, vertices: Iterable[int]) -> int:
    """max over all v of d(v, S): how far the worst vertex is from the set S."""
    vs = list(vertices)
    if not vs:
        raise ValueError("eccentricity of an empty set is undefined")
    return max(map(min, zip(*(dist.rows[s] for s in vs))))


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

def _iter_path_pushes(graph: Graph, dist: DistanceMatrix) -> Iterator[tuple[int, int]]:
    """The shortest-path DFS as (vertex, depth) pushes: the current path
    becomes its first ``depth`` vertices followed by ``vertex``.

    From every start vertex ``s`` (ascending) the search extends a current
    path ``p_1 .. p_t`` (with ``p_1 = s``) by any neighbor ``w`` of ``p_t``
    with ``d(s, w) == t``, trying neighbors in increasing order.  Every
    prefix visited this way is a shortest path, and every shortest path is
    visited exactly once per direction.
    """
    adjacency = graph.adjacency
    for s, drow in enumerate(dist.rows):
        yield s, 0
        stack = [iter(adjacency[s])]
        while stack:
            depth = len(stack)
            for w in stack[-1]:
                if drow[w] == depth:
                    yield w, depth
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()


def enumerate_shortest_paths(
    graph: Graph, dist: DistanceMatrix | None = None, dedup: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield every shortest path of the graph as a vertex tuple.

    Single vertices count as shortest paths of length 0.  Without ``dedup``
    each path of length >= 1 appears in both directions; with ``dedup`` only
    the direction with ``first < last`` is yielded (single vertices once).
    Paths appear in DFS preorder per start vertex, starts ascending.
    """
    path: list[int] = []
    for v, depth in _iter_path_pushes(graph, dist or all_pairs_distances(graph)):
        del path[depth:]
        path.append(v)
        if not dedup or not depth or path[0] < v:
            yield tuple(path)


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


@dataclass(frozen=True)
class PathWitness:
    """A path presented as evidence: ordered distinct vertices, consecutive
    ones adjacent, total length equal to the endpoint distance."""

    vertices: tuple[int, ...]

    def is_valid(self, graph: Graph, dist: DistanceMatrix) -> bool:
        return is_shortest_path(graph, dist, self.vertices)

    def eccentricity(self, dist: DistanceMatrix) -> int:
        return eccentricity_of_set(dist, self.vertices)
