"""Reference answers for the benchmark, computed apart from ``mesp``.

Everything here is the benchmark's own code: an edge-list reader, a BFS, and
an exhaustive search over shortest paths.  Nothing is imported from ``mesp``,
so a fault shared by the program and its reference cannot hide itself.

The minimum eccentricity k* of a connected graph is found as follows.

* k* = 0 exactly on path graphs: a shortest path that covers every vertex
  has two ends at distance n - 1.
* Otherwise k* >= 1, and a search for a shortest path whose closed
  neighbourhood is the whole graph settles k* = 1 or rules it out.
* Otherwise a binary search over [2, radius] runs the same exhaustive search
  at each probe (a single centre vertex witnesses the radius).

The search tries every start vertex s and extends paths only along BFS
layers of s, so it visits every shortest path.  It discards a prefix of t
vertices as soon as some vertex u with d(s, u) < t - k is still uncovered:
every later path vertex lies at distance >= t from s, hence more than k from
u.  Discarding such prefixes loses no witness, so the search stays exact.
"""

from __future__ import annotations

# the exhaustive search gives up (loudly) after this many path extensions
SEARCH_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """The reference search could not settle an answer within its budget."""


def read_edge_list(path) -> tuple[int, list[list[int]]]:
    """Read an ``n m`` header and ``m`` lines ``u v`` (0-based) into adjacency lists."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in lines[1:]:
        u, v = int(a), int(b)
        adj[u].append(v)
        adj[v].append(u)
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: header announces {m} edges, found {len(lines) - 1}")
    return n, adj


def bfs(adj: list[list[int]], sources) -> list[int]:
    """Distance from the nearest source to every vertex (-1 when unreachable)."""
    dist = [-1] * len(adj)
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(adj: list[list[int]]) -> bool:
    return min(bfs(adj, [0])) >= 0


def is_path_graph(adj: list[list[int]]) -> bool:
    n = len(adj)
    if n == 1:
        return True
    degrees = [len(nb) for nb in adj]
    return sum(degrees) == 2 * (n - 1) and max(degrees) <= 2 and is_connected(adj)


def witness_problem(adj: list[list[int]], path, k: int) -> str | None:
    """Why ``path`` is not a shortest path of eccentricity <= k, or None if it is."""
    n = len(adj)
    if not path:
        return "empty witness"
    if any(not (isinstance(v, int) and 0 <= v < n) for v in path):
        return "witness vertex out of range"
    if len(set(path)) != len(path):
        return "witness repeats a vertex"
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            return f"witness step {a}-{b} is not an edge"
    if bfs(adj, [path[0]])[path[-1]] != len(path) - 1:
        return "witness is not a shortest path"
    far = bfs(adj, path)
    if min(far) < 0:
        return "graph is disconnected"
    if max(far) > k:
        return f"witness eccentricity {max(far)} exceeds {k}"
    return None


class Reference:
    """Exact k* of one connected graph by exhaustive shortest-path search."""

    def __init__(self, adj: list[list[int]]):
        self.adj = adj
        self.n = len(adj)
        self.full = (1 << self.n) - 1
        self._rows: list[list[int]] | None = None
        self.extensions = 0

    def rows(self) -> list[list[int]]:
        if self._rows is None:
            self._rows = [bfs(self.adj, [s]) for s in range(self.n)]
        return self._rows

    def balls(self, k: int) -> list[int]:
        """Bitmask of the vertices within distance k, for every vertex."""
        if k == 1:
            out = []
            for v, nb in enumerate(self.adj):
                mask = 1 << v
                for w in nb:
                    mask |= 1 << w
                out.append(mask)
            return out
        out = []
        for row in self.rows():
            mask = 0
            for u, d in enumerate(row):
                if d <= k:
                    mask |= 1 << u
            out.append(mask)
        return out

    def find_witness(self, k: int) -> list[int] | None:
        """A shortest path of eccentricity <= k, or None after a complete search."""
        balls = self.balls(k)
        for s in range(self.n):
            found = self._search_from(s, k, balls)
            if found is not None:
                return found
        return None

    def _search_from(self, s: int, k: int, balls: list[int]) -> list[int] | None:
        adj, full = self.adj, self.full
        ds = bfs(adj, [s])
        depth_max = max(ds)
        # within[j]: vertices at distance <= j from s
        within = [0] * (depth_max + 1)
        for u, d in enumerate(ds):
            within[d] |= 1 << u
        for j in range(1, depth_max + 1):
            within[j] |= within[j - 1]
        if balls[s] == full:
            return [s]
        path = [s]
        stack = [(balls[s], iter(adj[s]))]
        while stack:
            cover, nbrs = stack[-1]
            depth = len(stack)  # distance from s of the next vertex
            for w in nbrs:
                if ds[w] != depth:
                    continue
                self.extensions += 1
                got = cover | balls[w]
                if got == full:
                    return path + [w]
                cut = depth - k  # vertices nearer s than this are out of reach later
                if cut >= 0:
                    need = within[min(cut, depth_max)]
                    if (got & need) != need:
                        continue
                path.append(w)
                stack.append((got, iter(adj[w])))
                break
            else:
                stack.pop()
                path.pop()
            if self.extensions > SEARCH_BUDGET:
                raise SearchBudgetExceeded(f"search exceeded {SEARCH_BUDGET} path extensions")
        return None

    def k_star(self) -> int:
        if is_path_graph(self.adj):
            return 0
        found = self.find_witness(1)
        if found is not None:
            return 1
        rows = self.rows()
        lo, hi = 2, min(max(row) for row in rows)
        while lo < hi:
            mid = (lo + hi) // 2
            found = self.find_witness(mid)
            if found is None:
                lo = mid + 1
            else:
                hi = max(bfs(self.adj, found))
        return lo


def reference_k_star(path) -> int:
    """k* of the graph stored in an edge-list file."""
    _, adj = read_edge_list(path)
    if not is_connected(adj):
        raise ValueError(f"{path}: graph is disconnected")
    return Reference(adj).k_star()
