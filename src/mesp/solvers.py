"""MESP decision and witness construction.

Four interchangeable solvers answer "is there a shortest path with
eccentricity at most k": exhaustive enumeration, a modular-decomposition
dispatch, and two guess-and-cover searches driven by a modulator (to cluster
graph, to disjoint paths) that reduce connector selection to constrained set
cover.  Every yes-answer carries a witness path and is re-verified before it
is returned, so a wrong guess can never produce a wrong answer.

Both guess-and-cover searches share one connector layer: ``_segments`` walks
the shortest paths between consecutive guessed vertices that avoid the
modulator, and ``_splice`` puts the chosen interiors back between them.  Only
non-adjacent pairs get a set-cover group.  A requirement is a pair (v, r),
"some path vertex lies within r of v"; ``_cover_instance`` gives each
segment the requirements ``_sat`` finds it meets.  Before either search
spends work on a guess, ``_reach`` tests that the vertices its paths are
drawn from reach every vertex within k.  Nothing here recurses; the only
recursion left is the modulator branching in ``modulators.py``, at most as
deep as its budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, product
from operator import add
from typing import Iterator

from .csc import Candidate, CscInstance, dp_layers, reconstruct_selection, solve_csc
from .errors import CapacityError, DisconnectedGraphError, SolverInvariantError
from .graph import (
    DistanceMatrix,
    Graph,
    PathWitness,
    _bits,
    _iter_path_pushes,
    _mask_of,
    all_pairs_distances,
    components,
    enumerate_shortest_paths,
    unique_order,
)
from .modulators import (
    CLUSTER,
    DISJOINT_PATHS,
    MDNode,
    Modulator,
    minimum_cluster_modulator,
    minimum_disjoint_paths_modulator,
    modular_decomposition,
    modular_width,
    modulator_is_valid,
)

# estimated-operation budget for the automatic solver choice
SOLVE_BUDGET = 1e18
# largest modulator the automatic choice searches for
MODULATOR_CAP = 6
# paths of auto's over-budget brute force; about a second on dense graphs
BRUTE_PATH_CAP = 1 << 18
# solver names accepted by decide and minimize_k
SOLVER_NAMES = ("auto", "brute", "mw", "cluster", "paths")


@dataclass
class SolveStats:
    """Counters filled in by the solvers; attached to every answer."""

    solver: str = ""
    guesses: int = 0
    csc_calls: int = 0
    paths_checked: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MespQuery:
    graph: Graph
    dist: DistanceMatrix
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"desired eccentricity must be >= 0, got {self.k}")


@dataclass(frozen=True)
class MespAnswer:
    decision: bool
    witness: PathWitness | None
    stats: SolveStats


def _finish_yes(query: MespQuery, vertices, stats: SolveStats) -> MespAnswer:
    witness = PathWitness(tuple(vertices))
    if not witness.is_valid(query.graph, query.dist):
        raise SolverInvariantError(f"witness {witness.vertices} is not a shortest path")
    if witness.eccentricity(query.dist) > query.k:
        raise SolverInvariantError(
            f"witness {witness.vertices} has eccentricity above {query.k}"
        )
    return MespAnswer(True, witness, stats)


def path_graph_order(graph: Graph) -> tuple[int, ...] | None:
    """The vertex order of G if G is a path graph, else None.

    A shortest path with eccentricity 0 covers every vertex, which forces two
    vertices at distance n-1; conversely the whole of a path graph is such a
    witness.  So "decision at k=0" is exactly "G is a path graph".
    """
    n = graph.n
    if n == 1:
        return (0,)
    degs = [graph.degree(v) for v in range(n)]
    ends = [v for v in range(n) if degs[v] == 1]
    if len(ends) != 2 or max(degs) > 2 or graph.m != n - 1:
        return None
    order = [min(ends)]
    prev = -1
    cur = order[0]
    while len(order) < n:
        nxt = [w for w in graph.adjacency[cur] if w != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return tuple(order)


def _settled(query: MespQuery, stats: SolveStats) -> MespAnswer | None:
    """The answer when k = 0 or k is at least the radius, else None.

    k = 0 is exactly "is G a path graph".  A single vertex is a shortest
    path, so the smallest vertex of eccentricity at most k settles the
    decision by itself; this skips the guess machinery for every k at or
    above the radius (dense graphs in particular).
    """
    if query.k == 0:
        order = path_graph_order(query.graph)
        return MespAnswer(False, None, stats) if order is None else _finish_yes(query, order, stats)
    ecc = query.dist.eccentricity
    center = next((v for v in range(query.graph.n) if ecc(v) <= query.k), None)
    return None if center is None else _finish_yes(query, (center,), stats)


# ---------------------------------------------------------------------------
# exhaustive enumeration (doubles as the universal oracle)


def _covering_paths(
    query: MespQuery, stats: SolveStats, time_limit: float | None, path_cap: int | None
) -> Iterator[tuple[int, ...]]:
    """Each shortest path, in canonical enumeration order, that covers the
    graph within a target that starts at ``query.k`` and falls by one after
    each, until it would fall below 0; the walk goes on from the same push,
    with the current path's masks recomputed.  Started below the radius,
    each has eccentricity exactly the target: its prefixes, checked at no
    lower target, have more, and a vertex lowers it by at most one.  A push
    (v, d) is one path, checked by one OR with its first d vertices' cover.
    ``stats.paths_checked`` counts pushes; every 4096, having checked
    ``path_cap`` paths or run ``time_limit`` seconds raises CapacityError.
    """
    t0 = time.perf_counter()
    graph, dist, target = query.graph, query.dist, query.k
    full = (1 << graph.n) - 1
    cover = dist.coverage_masks(target)
    path, masks = [0] * graph.n, [0] * (graph.n + 1)  # path[d], cover of path[:d]
    limited = time_limit is not None or path_cap is not None
    checked = 0
    for v, d in _iter_path_pushes(graph, dist):
        checked += 1
        got = masks[d + 1] = masks[d] | cover[v]
        path[d] = v
        if got == full:
            stats.paths_checked = checked
            yield tuple(path[:d + 1])
            target -= 1
            if target < 0:
                return
            cover = dist.coverage_masks(target)
            for i in range(d + 1):
                masks[i + 1] = masks[i] | cover[path[i]]
        if limited and checked % 4096 == 0:
            if path_cap is not None and checked >= path_cap:
                raise CapacityError(f"enumeration reached path cap {path_cap}")
            if time_limit is not None and time.perf_counter() - t0 > time_limit:
                raise CapacityError(f"enumeration exceeded time limit {time_limit}s")
    stats.paths_checked = checked


def solve_bruteforce(
    query: MespQuery, time_limit: float | None = None, path_cap: int | None = None
) -> MespAnswer:
    """The first shortest path in canonical order whose k-neighborhoods cover
    the graph: the first that ``_covering_paths`` yields, under its limits."""
    stats = SolveStats(solver="brute")
    found = next(_covering_paths(query, stats, time_limit, path_cap), None)
    return MespAnswer(False, None, stats) if found is None else _finish_yes(query, found, stats)


# ---------------------------------------------------------------------------
# modular width


def solve_modular_width(query: MespQuery, tree: MDNode) -> MespAnswer:
    """Decide MESP through ``tree``, the modular decomposition of the graph.

    Join root: a path graph is its own eccentricity-0 witness; otherwise any
    edge across two join parts has eccentricity 1.  Prime root: some optimal
    path uses at most one vertex per child module and all vertices of a module
    are interchangeable, so it suffices to instantiate every shortest path of
    the quotient pattern with one representative per module.  Child modules
    are fully adjacent or fully non-adjacent, so d_G(rep_i, rep_j) =
    d_Q(i, j) and every lifted quotient shortest path is one of G.
    """
    stats = SolveStats(solver="mw")
    graph, dist, k = query.graph, query.dist, query.k
    if tree.kind == "union":
        raise DisconnectedGraphError("decomposition root is a disjoint union")
    if tree.kind == "leaf":
        return _finish_yes(query, (tree.vertex,), stats)
    if tree.kind == "join":
        order = path_graph_order(graph)
        if order is not None:
            return _finish_yes(query, order, stats)
        if k >= 1:
            a = tree.children[0].min_vertex()
            b = tree.children[1].min_vertex()
            return _finish_yes(query, (a, b), stats)
        return MespAnswer(False, None, stats)

    pattern = tree.pattern
    reps = [child.min_vertex() for child in tree.children]
    pattern_dist = all_pairs_distances(pattern)
    cover = dist.coverage_masks(k)
    full = (1 << graph.n) - 1
    for ppath in enumerate_shortest_paths(pattern, pattern_dist, dedup=True):
        stats.paths_checked += 1
        cand = tuple(reps[i] for i in ppath)
        if _reach(cover, cand) == full:
            return _finish_yes(query, cand, stats)
    return MespAnswer(False, None, stats)


# ---------------------------------------------------------------------------
# connector layer shared by the guess-and-cover searches


def _segments(adj, rows, a, b, avoid: int) -> list[tuple[int, ...]]:
    """Interiors of the shortest a-b paths whose interior avoids the mask
    ``avoid``, in DFS order from a with neighbours ascending: ``[()]`` when a
    and b are adjacent, ``[]`` when no such path exists.  The walk keeps an
    explicit stack, so a long segment costs no recursion."""
    d = rows[a][b]
    if d == 1:
        return [()]
    row_a, row_b = rows[a], rows[b]
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [_bits(adj[a] & ~avoid)]
    while stack:
        depth = len(stack)
        for w in stack[-1]:
            if row_a[w] == depth and row_b[w] == d - depth:
                if depth == d - 1:
                    out.append((*path, w))
                else:
                    path.append(w)
                    stack.append(_bits(adj[w] & ~avoid))
                    break
        else:
            stack.pop()
            if path:
                path.pop()
    return out


def _reach(cover, vertices) -> int:
    """The OR of ``cover[w]`` over ``vertices``: with ``cover`` the masks of
    ``coverage_masks(k)``, every vertex within k of one of them."""
    got = 0
    for w in vertices:
        got |= cover[w]
    return got


def _splice(adj, pi, interiors) -> tuple[int, ...]:
    """pi with the next of ``interiors`` put between each consecutive pair
    that is not adjacent (the pairs that get a set-cover group)."""
    chosen = iter(interiors)
    path = [pi[0]]
    for a, b in zip(pi, pi[1:]):
        if not adj[a] >> b & 1:
            path.extend(next(chosen))
        path.append(b)
    return tuple(path)


def _sat(rows, reqs, verts) -> int:
    """The requirements of ``reqs`` met by ``verts``: bit i is set when some
    vertex of ``verts`` lies within radius r of v, for ``reqs[i] = (v, r)``."""
    got = 0
    for bi, (v, r) in enumerate(reqs):
        row_v = rows[v]
        if any(row_v[w] <= r for w in verts):
            got |= 1 << bi
    return got


def _cover_instance(rows, reqs, groups) -> CscInstance:
    """The set cover over ``reqs`` whose groups hold the segments of
    ``groups``, each satisfying what ``_sat`` finds for its vertices."""
    return CscInstance(
        len(reqs),
        tuple(tuple(Candidate(seg, _sat(rows, reqs, seg)) for seg in segs) for segs in groups),
    )


def _solve_with_modulator(query: MespQuery, modulator: Modulator, search) -> MespAnswer:
    """The modulator solvers' scaffold: check the modulator, settle k = 0 and
    k >= radius, then run ``search`` (a search class)."""
    stats = SolveStats(solver=search.solver)
    if modulator.kind != search.kind:
        raise ValueError(f"expected a {search.kind} modulator, got kind {modulator.kind!r}")
    if not modulator_is_valid(query.graph, modulator):
        raise ValueError(f"deletion set does not leave a disjoint union of {search.residual}")
    stats.params[search.param] = modulator.size
    settled = _settled(query, stats)
    if settled is not None:
        return settled
    found = search(query, modulator, stats).run()
    return MespAnswer(False, None, stats) if found is None else _finish_yes(query, found, stats)


# ---------------------------------------------------------------------------
# distance to cluster graph


class _ClusterSearch:
    """Guess-driven search behind solve_distance_to_cluster, for k >= 1.

    A guess fixes the on-path modulator vertices L (visited in their unique
    feasible order pi), plus a split of the remaining modulator vertices into
    "at distance 1" / "at distance 2" / "further".  Connector vertices between
    consecutive pi entries are then chosen by a set-cover DP whose
    requirements are the guessed distance obligations not already met by pi;
    one DP build per guess serves every choice of up to two extra path
    vertices at each end.
    """

    solver, kind, param, residual = "cluster", CLUSTER, "p", "cliques"

    def __init__(self, query: MespQuery, modulator: Modulator, stats: SolveStats):
        self.dist = query.dist
        self.k = query.k
        self.stats = stats
        self.full = (1 << query.graph.n) - 1
        self.rows = query.dist.rows
        self.adj = query.graph.adj_mask
        self.cover_k = query.dist.coverage_masks(query.k)
        self.U = sorted(modulator.vertices)
        self.u_mask = _mask_of(self.U)
        self.vc_mask = self.full & ~self.u_mask
        # the residual cliques, each as its vertices ascending
        self.cliques = [list(_bits(c)) for c in components(self.adj, self.vc_mask)]

    def run(self) -> tuple[int, ...] | None:
        for lsize in range(1, len(self.U) + 1):
            for L in combinations(self.U, lsize):
                found = self._try_l(L)
                if found is not None:
                    return found
        return None

    def _try_l(self, L: tuple[int, ...]) -> tuple[int, ...] | None:
        adj, rows = self.adj, self.rows
        for s in L:
            pi = unique_order(self.dist, s, L)
            if pi is None:
                continue
            assert pi[0] == s
            # a shortest interior outside U stays inside one clique, so it
            # has at most two vertices; a pair at distance > 3 has none
            groups = [
                _segments(adj, rows, a, b, self.u_mask)
                for a, b in zip(pi, pi[1:])
                if not adj[a] >> b & 1
            ]
            if not all(groups):
                continue
            found = self._try_order(set(L), pi, groups)
            if found is not None:
                return found
        return None

    def _extension_options(self, pi):
        """Possible path prefixes and suffixes of length 1..2 drawn from the
        cluster part, pre-filtered by the distance conditions any extended
        shortest path must satisfy.  Each option is (vertices, cover).

        An option vertex lies at distance span + 1 or span + 2 from the far
        end of pi, and every core spliced from pi lies in the interval
        between pi's ends, so no option meets a core."""
        rows, adj, vc = self.rows, self.adj, self.vc_mask
        cover = self.cover_k
        first, last = pi[0], pi[-1]
        span = rows[first][last]

        def options(anchor, far_end):
            opts = [((), 0)]
            singles = [
                b for b in _bits(adj[anchor] & vc) if rows[b][far_end] == span + 1
            ]
            for b in singles:
                opts.append(((b,), cover[b]))
            for b in singles:
                for a in _bits(adj[b] & vc):
                    if rows[a][far_end] == span + 2:
                        opts.append(((a, b), cover[a] | cover[b]))
            return opts

        prefixes = options(first, last)
        suffixes = [(tuple(reversed(verts)), cov) for verts, cov in options(last, first)]
        return prefixes, suffixes

    def _try_order(self, l_set, pi, groups):
        prefixes, suffixes = self._extension_options(pi)
        # every path an assignment can return is drawn from pi, the groups
        # and the options, so unless they reach every vertex none is a witness
        drawn = chain(pi, *chain.from_iterable(groups), *(v for v, _ in prefixes + suffixes))
        if _reach(self.cover_k, drawn) != self.full:
            return None
        k = self.k
        rows = self.rows
        dpi = list(map(min, zip(*(rows[x] for x in pi))))
        others = [u for u in self.U if u not in l_set]
        if k == 1:
            # only modulator vertices at distance exactly 1 can exist
            assigns = [(0,) * len(others)]
        else:
            assigns = product((0, 1, 2), repeat=len(others))
        for assign in assigns:
            if k == 2 and any(a == 2 and dpi[u] > 2 for u, a in zip(others, assign)):
                continue  # a "further" vertex could only be reached through L
            near = [u for u, a in zip(others, assign) if a == 0]
            twostep = [u for u, a in zip(others, assign) if a == 1]
            found = self._try_assignment(pi, groups, dpi, near, twostep, prefixes, suffixes)
            if found is not None:
                return found
        return None

    def _try_assignment(self, pi, groups, dpi, near, twostep, prefixes, suffixes):
        stats = self.stats
        stats.guesses += 1
        rows = self.rows

        # requirements (v, r), "a path vertex lies within r of v", not
        # already met by pi itself
        reqs = [(v, 1) for v in near if dpi[v] > 1]
        reqs += [(v, 2) for v in twostep if dpi[v] > 2]
        if self.k == 1:
            # a needy clique asks for (z, 1), z its lowest vertex: every
            # candidate and option vertex lies outside U, where d(w, z) <= 1
            # holds exactly when w is in z's clique
            needy = [(c[0], 1) for c in self.cliques if any(dpi[z] > 1 for z in c)]
            # the path visits at most one clique per connector pair plus one
            # per extended end, so more needy cliques than that is hopeless
            if len(needy) > len(groups) + 2:
                return None
            reqs += needy
        full_t = (1 << len(reqs)) - 1
        inst = _cover_instance(rows, reqs, groups)
        stats.csc_calls += 1
        layers = dp_layers(inst)
        core_cache: dict[int, tuple] = {}

        def core_for(target: int):
            """The core whose selection covers ``target``, and its cover.
            pi telescopes and every segment is a shortest path, so the splice
            is one too (``_finish_yes`` re-verifies the witness anyway)."""
            got = core_cache.get(target)
            if got is None:
                sel = reconstruct_selection(layers, target)
                got = (None, 0)
                if sel is not None:
                    core = _splice(self.adj, pi, [c.payload for c in sel.candidates(inst)])
                    got = (core, _reach(self.cover_k, core))
                core_cache[target] = got
            return got

        # the bare core is the first pair of empty options; up to two extra
        # path vertices at each end take over the requirements they satisfy
        # themselves.  Options that share a vertex fail the length check,
        # since a walk that repeats a vertex is longer than its ends' distance.
        full = self.full
        pre_sat = [_sat(rows, reqs, pverts) for pverts, _ in prefixes]
        suf_sat = [_sat(rows, reqs, sverts) for sverts, _ in suffixes]
        for (pverts, pcov), psat in zip(prefixes, pre_sat):
            for (sverts, scov), ssat in zip(suffixes, suf_sat):
                core, ccov = core_for(full_t & ~(psat | ssat))
                if core is None or ccov | pcov | scov != full:
                    continue
                start = pverts[0] if pverts else core[0]
                end = sverts[-1] if sverts else core[-1]
                if rows[start][end] == len(core) - 1 + len(pverts) + len(sverts):
                    return pverts + core + sverts
        return None


def solve_distance_to_cluster(query: MespQuery, modulator: Modulator) -> MespAnswer:
    """Decide MESP by guessing how the path meets the cluster ``modulator``.

    With the modulator empty the graph is a single clique; k = 0 reduces to
    "is G a path graph" for every input.
    """
    return _solve_with_modulator(query, modulator, _ClusterSearch)


# ---------------------------------------------------------------------------
# distance to disjoint paths


class _DisjointPathsSearch:
    """Guess-driven search behind solve_distance_to_disjoint_paths, k >= 1.

    A guess fixes the path endpoints, the set L of augmented-modulator
    vertices on the path, and a distance estimate delta for the modulator
    vertices off the path.  Connecting segments between consecutive on-path
    vertices are filtered by the estimate and chosen by a set-cover DP whose
    selection, spliced, is always a witness.
    """

    solver, kind, param, residual = "paths", DISJOINT_PATHS, "c", "paths"

    def __init__(self, query: MespQuery, modulator: Modulator, stats: SolveStats):
        self.dist = query.dist
        self.k = query.k
        self.stats = stats
        self.n = query.graph.n
        self.rows = query.dist.rows
        self.adj = query.graph.adj_mask
        self.C = sorted(modulator.vertices)

    def run(self) -> tuple[int, ...] | None:
        n, k, rows = self.n, self.k, self.rows
        ecc = [self.dist.eccentricity(v) for v in range(n)]
        cover, full = self.dist.coverage_masks(k), (1 << n) - 1
        for p_first in range(n):
            row_f = rows[p_first]
            for p_last in range(p_first, n):
                span = row_f[p_last]
                if ecc[p_first] > span + k or ecc[p_last] > span + k:
                    continue
                # a witness is a shortest p_first-p_last path, so it lies in
                # their interval, and the interval must reach every vertex
                interval = [w for w, s in enumerate(map(add, row_f, rows[p_last])) if s == span]
                if _reach(cover, interval) != full:
                    continue
                found = self._try_endpoints(p_first, p_last, span)
                if found is not None:
                    return found
        return None

    def _try_endpoints(self, p_first, p_last, span):
        rows = self.rows
        chat = sorted(set(self.C) | {p_first, p_last})
        chat_mask = _mask_of(chat)
        lo_bound: dict[int, int] = {}
        between = []
        for v in chat:
            if v == p_first or v == p_last:
                continue
            lo = max(1, rows[v][p_first] - span, rows[v][p_last] - span)
            if rows[v][p_first] + rows[v][p_last] == span:
                between.append(v)
            lo_bound[v] = lo
        for lsize in range(len(between) + 1):
            for extra in combinations(between, lsize):
                found = self._try_l(p_first, p_last, chat, chat_mask, lo_bound, extra)
                if found is not None:
                    return found
        return None

    def _try_l(self, p_first, p_last, chat, chat_mask, lo_bound, extra):
        rows, k = self.rows, self.k
        l_set = {p_first, p_last} | set(extra)
        pi = unique_order(self.dist, p_first, sorted(l_set))
        if pi is None:
            return None
        assert pi[0] == p_first

        base_min = list(map(min, zip(*(rows[x] for x in pi))))
        others = [v for v in chat if v not in l_set]
        # the eccentricity screen in run keeps every range non-empty
        ranges = [range(lo_bound[v], min(k, base_min[v]) + 1) for v in others]

        adj = self.adj
        groups: list[list[tuple[int, ...]]] = []
        unions: list[int] = []
        for a, b in zip(pi, pi[1:]):
            if adj[a] >> b & 1:
                continue
            segs = _segments(adj, rows, a, b, chat_mask)
            if not segs:
                return None
            groups.append(segs)
            unions.append(_mask_of(w for seg in segs for w in seg))
        all_seg_mask = _mask_of(w for segs in groups for seg in segs for w in seg)

        # true distances to one path obey |delta(u) - delta(v)| <= d(u, v)
        pairs = [(rows[u][v], i, j) for (i, u), (j, v) in combinations(enumerate(others), 2)]
        for delta in product(*ranges):
            if any(abs(delta[i] - delta[j]) > d for d, i, j in pairs):
                continue
            found = self._try_delta(pi, groups, unions, all_seg_mask, others, delta, base_min)
            if found is not None:
                return found
        return None

    def _try_delta(self, pi, groups, unions, all_seg_mask, others, delta, base_min):
        stats = self.stats
        stats.guesses += 1
        n, k, rows = self.n, self.k, self.rows
        kp1 = k + 1

        estimate = list(base_min)
        for o, dv in zip(others, delta):
            row_o = rows[o]
            for v in range(n):
                t = row_o[v] + dv
                if t < estimate[v]:
                    estimate[v] = t

        # a segment is kept when it comes within k of every vertex of its
        # group's union that the estimate puts at k + 1
        kept_groups = []
        nec_mask = 0
        for segs, union in zip(groups, unions):
            witnesses = [u for u in _bits(union) if estimate[u] == kp1]
            keep = [
                seg for seg in segs if all(any(rows[u][w] <= k for w in seg) for u in witnesses)
            ]
            if not keep:
                return None
            kept_groups.append(keep)
            if len(keep) == 1:
                nec_mask |= _mask_of(keep[0])

        for v in range(n):
            if estimate[v] > kp1 and not nec_mask >> v & 1:
                return None
        off_far = [
            v
            for v in range(n)
            if estimate[v] == kp1 and not all_seg_mask >> v & 1
        ]
        if len(off_far) > 2 * (len(pi) - 1):
            return None

        base_verts = list(pi) + list(_bits(nec_mask))
        reqs = [(v, k) for v in off_far]
        for o, dv in zip(others, delta):
            row_o = rows[o]
            if min(row_o[w] for w in base_verts) > dv:
                reqs.append((o, dv))
        inst = _cover_instance(rows, reqs, kept_groups)
        stats.csc_calls += 1
        sol = solve_csc(inst)
        if sol is None:
            return None
        # The splice needs no check here (_finish_yes re-verifies it anyway).
        # It is a shortest path: pi telescopes from pi[0], so the vertex at
        # step j of a segment between pi[i] and pi[i+1] lies at distance
        # d(pi[0], pi[i]) + j from pi[0], and no two path vertices share a
        # distance.  It covers every vertex v: estimate[v] <= k is met through
        # pi or a covered (o, delta) requirement; estimate[v] == k+1 inside a
        # group's union is reached by every kept segment of that group, and
        # outside all unions it is an off_far requirement; estimate[v] > k+1
        # puts v in nec_mask, on the path.
        return _splice(self.adj, pi, [c.payload for c in sol.candidates(inst)])


def solve_distance_to_disjoint_paths(query: MespQuery, modulator: Modulator) -> MespAnswer:
    """Decide MESP by guessing endpoints, on-path modulator vertices and
    distance estimates over the disjoint-paths ``modulator``."""
    return _solve_with_modulator(query, modulator, _DisjointPathsSearch)


# ---------------------------------------------------------------------------
# prepared instance, dispatch and the search for k


class Instance:
    """A graph prepared for MESP decisions at any k.

    Holds the graph and builds its distance table and each structural
    parameter (modular decomposition, minimum modulators) on first use, so
    every decision that shares the instance shares one computation of it.
    The table comes from the root split when the decomposition is already
    held and its root is join or prime, else from BFS; so callers build the
    decomposition they need before they first read ``dist`` (see ``_plan``).
    ``dist_seconds`` is the time the table's build took.
    """

    def __init__(self, graph: Graph, dist: DistanceMatrix | None = None):
        self.graph = graph
        self._dist = dist
        self.dist_seconds = 0.0
        self._tree: MDNode | None = None
        self._modulators: dict[tuple[str, int | None], Modulator | None] = {}

    @property
    def dist(self) -> DistanceMatrix:
        if self._dist is None:
            t0 = time.perf_counter()
            root = self._tree
            if root is not None and root.kind in ("join", "prime"):
                q = len(root.children)
                quotient = (
                    all_pairs_distances(root.pattern).rows if root.kind == "prime"
                    else [[int(i != j) for j in range(q)] for i in range(q)]
                )
                parts = [child.mask for child in root.children]
                self._dist = DistanceMatrix.from_split(self.graph, parts, quotient)
            else:
                self._dist = all_pairs_distances(self.graph)
            self.dist_seconds = time.perf_counter() - t0
        return self._dist

    @property
    def decomposition(self) -> MDNode:
        if self._tree is None:
            self._tree = modular_decomposition(self.graph)
        return self._tree

    def modulator(self, kind: str, cap: int | None = None) -> Modulator | None:
        """Minimum modulator of ``kind`` (CLUSTER or DISJOINT_PATHS); None
        when every one has more than ``cap`` vertices."""
        key = (kind, cap)
        if key not in self._modulators:
            find = (
                minimum_cluster_modulator if kind == CLUSTER
                else minimum_disjoint_paths_modulator
            )
            self._modulators[key] = find(self.graph, cap)
        return self._modulators[key]

    @cached_property
    def _fixed_prices(self) -> tuple[float, float]:
        """auto's two prices that depend on neither k nor a parameter: brute
        force's 2^(m-n+1) n^3 and mw's floor.  G is connected, so when its
        complement is too the root is prime with at least 4 children, and
        w >= 4: the floor is 16 n^3, else n^3."""
        graph, n = self.graph, self.graph.n
        n3 = float(n) ** 3
        full = (1 << n) - 1
        co_adj = [full ^ (a | 1 << v) for v, a in enumerate(graph.adj_mask)]
        mw_floor = 16 * n3 if n > 1 and len(components(co_adj, full)) == 1 else n3
        return 2.0 ** min(graph.m - n + 1, 400) * n3, mw_floor


def _auto_choice(inst: Instance, k: int) -> tuple[str, dict, int | None]:
    """The argmin of the four worst-case prices within SOLVE_BUDGET (ties: mw,
    cluster, paths, brute), the parameters built to price it, and the path
    cap brute force runs under: BRUTE_PATH_CAP when no price fits, else None.

    Brute force is priced first, from n and m; a parameter is built only
    while its solver's free lower bound beats the best price so far.
    """
    n = inst.graph.n
    n3, n4, n6 = float(n) ** 3, float(n) ** 4, float(n) ** 6
    priced: dict = {}

    def price(name: str) -> float | None:
        if name == "mw":
            w = priced["mw"] = modular_width(inst.decomposition)
            return 2.0 ** min(w, 400) * n3
        key, kind = ("p", CLUSTER) if name == "cluster" else ("c", DISJOINT_PATHS)
        mod = inst.modulator(kind, MODULATOR_CAP)
        size = priced[key] = None if mod is None else mod.size
        if size is None:
            return None
        if name == "cluster":
            return 2.0 ** min(4 * size, 400) * max(size, 1) * n6
        return 2.0 ** min(5 * size, 400) * float(max(k, 1)) ** min(size, 60) * max(size, 1) * n4

    brute, mw_floor = inst._fixed_prices
    # (SOLVE_BUDGET, 4) admits exactly the prices within budget
    best, pick = ((brute, 3), "brute") if brute <= SOLVE_BUDGET else ((SOLVE_BUDGET, 4), None)
    for floor, tie, name in sorted([(mw_floor, 0, "mw"), (n6, 1, "cluster"), (n4, 2, "paths")]):
        if (floor, tie) >= best:
            break
        got = price(name)
        if got is not None and (got, tie) < best:
            best, pick = (got, tie), name
    return (pick, priced, None) if pick else ("brute", priced, BRUTE_PATH_CAP)


def _plan(inst: Instance, k: int, solver: str) -> tuple[str, dict | None, int | None, int | None]:
    """The solver ``decide`` runs at ``k``: its name, the parameters auto
    built to price it (None when forced), the modulator cap and the path cap.
    It builds the decomposition of an mw pick, so call it before the first
    read of ``inst.dist``: the table is then filled from the root split."""
    if solver == "auto":
        pick, priced, path_cap = _auto_choice(inst, k)
        cap = MODULATOR_CAP
    else:
        pick, priced, cap, path_cap = solver, None, None, None
    if pick == "mw":
        inst.decomposition  # built before the table, which it then fills
    return pick, priced, cap, path_cap


def decide(inst: Instance, k: int, solver: str = "auto") -> MespAnswer:
    """Decide MESP at ``k`` with the solver named ``solver`` (SOLVER_NAMES).

    ``auto`` runs the cheapest solver by estimate and reports it as
    ``auto:<name>`` with the parameters it built to price it.  A negative
    ``k`` or an unknown name raises ValueError before anything is built.
    """
    if k < 0:
        raise ValueError(f"desired eccentricity must be >= 0, got {k}")
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}")
    pick, priced, cap, path_cap = _plan(inst, k, solver)
    query = MespQuery(inst.graph, inst.dist, k)
    if pick == "brute":
        answer = solve_bruteforce(query, path_cap=path_cap)
    elif pick == "mw":
        answer = solve_modular_width(query, inst.decomposition)
    elif pick == "cluster":
        answer = solve_distance_to_cluster(query, inst.modulator(CLUSTER, cap))
    else:
        answer = solve_distance_to_disjoint_paths(query, inst.modulator(DISJOINT_PATHS, cap))
    if priced is not None:
        answer.stats.solver = f"auto:{pick}"
        answer.stats.params.update(priced)
    return answer


def solve_auto(query: MespQuery) -> MespAnswer:
    """Decide ``query`` with the cheapest solver by estimate (see decide)."""
    return decide(Instance(query.graph, query.dist), query.k, "auto")


def minimize_k(inst: Instance, solver: str = "auto") -> tuple[int, PathWitness]:
    """Smallest k answered yes, with a witness for it.

    k* lies in [0, radius]: the single-vertex path (c) witnesses the radius,
    c the central vertex (the smallest vertex of least eccentricity).
    ``_plan`` at k = 1 builds what the decisions price before the table is
    read, so a decomposition it builds fills it.  Only the paths price
    grows with k, so a brute force pick there holds at every k: one
    ``_covering_paths`` walk from radius - 1, under the pick's path cap,
    lowers k* by one per path found, and the last is re-verified.  Any other
    pick binary-searches [0, radius] (a witness for k is one for k + 1).
    An unknown solver name raises ValueError before anything is built.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}")
    pick = path_cap = None
    if inst.graph.n > 1:
        pick, _, _, path_cap = _plan(inst, 1, solver)
    graph, dist = inst.graph, inst.dist
    center = min(range(graph.n), key=dist.eccentricity)
    lo, hi = 0, dist.eccentricity(center)
    best = PathWitness((center,))
    if pick == "brute":
        stats, found = SolveStats(solver="brute"), (center,)
        for found in _covering_paths(MespQuery(graph, dist, hi - 1), stats, None, path_cap):
            hi -= 1
        return hi, _finish_yes(MespQuery(graph, dist, hi), found, stats).witness
    while lo < hi:
        mid = (lo + hi) // 2
        answer = decide(inst, mid, solver)
        if answer.decision:
            hi = mid
            best = answer.witness
        else:
            lo = mid + 1
    return lo, best
