"""MESP decision and witness construction.

Four interchangeable solvers answer "is there a shortest path with
eccentricity at most k": exhaustive enumeration, a modular-decomposition
dispatch, and two guess-and-cover searches driven by a modulator (to cluster
graph, to disjoint paths) that reduce connector selection to constrained set
cover.  Every yes-answer carries a witness path and is re-verified before it
is returned, so a wrong guess can never produce a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .csc import Candidate, CscInstance, dp_layers, reconstruct_selection, solve_csc
from .errors import CapacityError, DisconnectedGraphError, SolverInvariantError
from .graph import (
    DistanceMatrix,
    Graph,
    PathWitness,
    _bits,
    _iter_path_events,
    all_pairs_distances,
    enumerate_shortest_paths,
    is_shortest_path,
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

# combinations per pair-group before the exhaustive segment fallback gives up
SEGMENT_FALLBACK_CAP = 65536
# estimated-operation budget for the automatic solver choice
SOLVE_BUDGET = 1e18
# largest modulator the automatic choice searches for
MODULATOR_CAP = 6
# solver names accepted by decide and minimize_k
SOLVER_NAMES = ("auto", "brute", "mw", "cluster", "paths")


@dataclass
class SolveStats:
    """Counters filled in by the solvers; attached to every answer."""

    solver: str = ""
    guesses: int = 0
    csc_calls: int = 0
    paths_checked: int = 0
    elapsed: float = 0.0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MespQuery:
    graph: Graph
    dist: DistanceMatrix
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"desired eccentricity must be >= 0, got {self.k}")

    @classmethod
    def from_graph(cls, graph: Graph, k: int, dist: DistanceMatrix | None = None) -> "MespQuery":
        return cls(graph, dist if dist is not None else all_pairs_distances(graph), k)


@dataclass(frozen=True)
class MespAnswer:
    decision: bool
    witness: PathWitness | None
    stats: SolveStats


def _finish_yes(query: MespQuery, vertices, stats: SolveStats, t0: float) -> MespAnswer:
    stats.elapsed = time.perf_counter() - t0
    witness = PathWitness(tuple(vertices))
    if not witness.is_valid(query.graph, query.dist):
        raise SolverInvariantError(f"witness {witness.vertices} is not a shortest path")
    if witness.eccentricity(query.dist) > query.k:
        raise SolverInvariantError(
            f"witness {witness.vertices} has eccentricity above {query.k}"
        )
    return MespAnswer(True, witness, stats)


def _finish_no(stats: SolveStats, t0: float) -> MespAnswer:
    stats.elapsed = time.perf_counter() - t0
    return MespAnswer(False, None, stats)


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


def _central_vertex(query: MespQuery) -> int | None:
    """Smallest vertex whose eccentricity is already within k, if any.

    A single vertex is a shortest path, so such a vertex settles the decision
    by itself; this skips the guess machinery for every k at or above the
    radius (dense graphs in particular).
    """
    for v in range(query.graph.n):
        if query.dist.eccentricity(v) <= query.k:
            return v
    return None


# ---------------------------------------------------------------------------
# exhaustive enumeration (doubles as the universal oracle)


def solve_bruteforce(query: MespQuery, time_limit: float | None = None) -> MespAnswer:
    """Check every shortest path, returning the first one (in canonical
    enumeration order) whose k-neighborhoods cover the whole graph.

    The per-path work is O(1) amortized: the DFS that enumerates paths pushes
    and pops one vertex at a time, and a stack of covered-vertex masks is
    maintained alongside it.
    """
    t0 = time.perf_counter()
    stats = SolveStats(solver="brute")
    graph, dist, k = query.graph, query.dist, query.k
    full = (1 << graph.n) - 1
    cover = dist.coverage_masks(k)
    path: list[int] = []
    masks = [0]
    for pushed, v in _iter_path_events(graph, dist):
        if pushed:
            path.append(v)
            got = masks[-1] | cover[v]
            masks.append(got)
            stats.paths_checked += 1
            if got == full:
                return _finish_yes(query, path, stats, t0)
            if (
                time_limit is not None
                and stats.paths_checked % 4096 == 0
                and time.perf_counter() - t0 > time_limit
            ):
                raise CapacityError(f"enumeration exceeded time limit {time_limit}s")
        else:
            path.pop()
            masks.pop()
    return _finish_no(stats, t0)


# ---------------------------------------------------------------------------
# modular width


def solve_modular_width(query: MespQuery, tree: MDNode | None = None) -> MespAnswer:
    """Decide MESP through the modular decomposition of the graph.

    Join root: a path graph is its own eccentricity-0 witness; otherwise any
    edge across two join parts has eccentricity 1.  Prime root: some optimal
    path uses at most one vertex per child module and all vertices of a module
    are interchangeable, so it suffices to instantiate every shortest path of
    the quotient pattern with one representative per module.
    """
    t0 = time.perf_counter()
    stats = SolveStats(solver="mw")
    graph, dist, k = query.graph, query.dist, query.k
    if tree is None:
        tree = modular_decomposition(graph)
    if tree.kind == "union":
        raise DisconnectedGraphError("decomposition root is a disjoint union")
    if tree.kind == "leaf":
        return _finish_yes(query, (tree.vertex,), stats, t0)
    if tree.kind == "join":
        order = path_graph_order(graph)
        if order is not None:
            return _finish_yes(query, order, stats, t0)
        if k >= 1:
            a = tree.children[0].min_vertex()
            b = tree.children[1].min_vertex()
            return _finish_yes(query, (a, b), stats, t0)
        return _finish_no(stats, t0)

    pattern = tree.pattern
    reps = [child.min_vertex() for child in tree.children]
    pattern_dist = all_pairs_distances(pattern)
    cover = dist.coverage_masks(k)
    full = (1 << graph.n) - 1
    for ppath in enumerate_shortest_paths(pattern, pattern_dist, dedup=True):
        stats.paths_checked += 1
        cand = tuple(reps[i] for i in ppath)
        got = 0
        for v in cand:
            got |= cover[v]
        if got == full and is_shortest_path(graph, dist, cand):
            return _finish_yes(query, cand, stats, t0)
    return _finish_no(stats, t0)


# ---------------------------------------------------------------------------
# distance to cluster graph


class _ClusterSearch:
    """Guess-driven search behind solve_distance_to_cluster, for k >= 1.

    A guess fixes the on-path modulator vertices L (visited in their unique
    feasible order pi), plus a split of the remaining modulator vertices into
    "at distance 1" / "at distance 2" / "further".  Connector vertices between
    consecutive pi entries are then chosen by a set-cover DP whose
    requirements are the guessed distance obligations not already met by pi,
    and failed guesses retry with up to two extra path vertices at each end.
    """

    def __init__(self, query: MespQuery, modulator: Modulator, stats: SolveStats):
        self.graph = query.graph
        self.dist = query.dist
        self.k = query.k
        self.stats = stats
        self.n = query.graph.n
        self.full = (1 << self.n) - 1
        self.rows = query.dist.rows
        self.adj = query.graph.adj_mask
        self.cover_k = query.dist.coverage_masks(query.k)
        self.U = sorted(modulator.vertices)
        u_mask = 0
        for v in self.U:
            u_mask |= 1 << v
        self.vc_mask = self.full & ~u_mask
        # label the residual cliques; vertices of one clique are mutually
        # adjacent, so they are saved by exactly the same path vertices
        self.clique_id = [-1] * self.n
        self.cliques: list[int] = []
        todo = self.vc_mask
        while todo:
            comp = todo & -todo
            frontier = comp
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & self.vc_mask & ~comp
                comp |= frontier
            for v in _bits(comp):
                self.clique_id[v] = len(self.cliques)
            self.cliques.append(comp)
            todo &= ~comp

    def run(self) -> tuple[int, ...] | None:
        for lsize in range(1, len(self.U) + 1):
            for L in combinations(self.U, lsize):
                found = self._try_l(L)
                if found is not None:
                    return found
        return None

    def _try_l(self, L: tuple[int, ...]) -> tuple[int, ...] | None:
        for s in L:
            pi = unique_order(self.dist, s, L)
            if pi is None:
                continue
            assert pi[0] == s
            groups = self._connector_groups(pi)
            if groups is None:
                continue
            found = self._try_order(set(L), pi, *groups)
            if found is not None:
                return found
        return None

    def _connector_groups(self, pi):
        """Candidate connector pairs for each non-adjacent consecutive pair
        of pi, or None when some pair cannot be bridged (distance > 3 or no
        candidates)."""
        rows, adj, vc = self.rows, self.adj, self.vc_mask
        h_pos: list[int] = []
        cand_lists: list[list[tuple[int, int]]] = []
        for i in range(len(pi) - 1):
            a, b = pi[i], pi[i + 1]
            d_ab = rows[a][b]
            if d_ab == 1:
                continue
            if d_ab == 2:
                cands = [(u, u) for u in _bits(adj[a] & adj[b] & vc)]
            elif d_ab == 3:
                cands = [
                    (u, v)
                    for u in _bits(adj[a] & vc)
                    for v in _bits(adj[u] & adj[b] & vc)
                ]
            else:
                return None
            if not cands:
                return None
            h_pos.append(i)
            cand_lists.append(cands)
        return h_pos, cand_lists

    def _extension_options(self, pi):
        """Possible path prefixes and suffixes of length 1..2 drawn from the
        cluster part, pre-filtered by the distance conditions any extended
        shortest path must satisfy.  Each option is (vertices, mask, cover)."""
        rows, adj, vc = self.rows, self.adj, self.vc_mask
        cover = self.cover_k
        first, last = pi[0], pi[-1]
        span = rows[first][last]

        def options(anchor, far_end):
            opts = [((), 0, 0)]
            singles = [
                b for b in _bits(adj[anchor] & vc) if rows[b][far_end] == span + 1
            ]
            for b in singles:
                opts.append(((b,), 1 << b, cover[b]))
            for b in singles:
                for a in _bits(adj[b] & vc):
                    if a != b and rows[a][far_end] == span + 2:
                        opts.append(((a, b), (1 << a) | (1 << b), cover[a] | cover[b]))
            return opts

        prefixes = options(first, last)
        suffixes = [
            (tuple(reversed(verts)), vm, cov) for verts, vm, cov in options(last, first)
        ]
        return prefixes, suffixes

    def _try_order(self, l_set, pi, h_pos, cand_lists):
        k = self.k
        rows = self.rows
        dpi = [min(rows[v][x] for x in pi) for v in range(self.n)]
        others = [u for u in self.U if u not in l_set]
        prefixes, suffixes = self._extension_options(pi)
        if k == 1:
            # only modulator vertices at distance exactly 1 can exist
            assigns = [(0,) * len(others)]
        else:
            assigns = product((0, 1, 2), repeat=len(others))
        for assign in assigns:
            if k == 2 and any(
                a == 2 and min(rows[u][x] for x in pi) > 2
                for u, a in zip(others, assign)
            ):
                continue  # a "further" vertex could only be reached through L
            near = [u for u, a in zip(others, assign) if a == 0]
            twostep = [u for u, a in zip(others, assign) if a == 1]
            found = self._try_assignment(
                pi, h_pos, cand_lists, dpi, near, twostep, prefixes, suffixes
            )
            if found is not None:
                return found
        return None

    def _try_assignment(self, pi, h_pos, cand_lists, dpi, near, twostep, prefixes, suffixes):
        stats = self.stats
        stats.guesses += 1
        k = self.k
        rows = self.rows
        clique_id = self.clique_id

        # requirements not already met by pi itself
        universe: list[tuple[str, int]] = []
        for v in near:
            if dpi[v] > 1:
                universe.append(("near", v))
        for v in twostep:
            if dpi[v] > 2:
                universe.append(("twostep", v))
        if k == 1:
            needy = [
                ci
                for ci, cmask in enumerate(self.cliques)
                if any(dpi[z] > 1 for z in _bits(cmask))
            ]
            # the path visits at most one clique per connector pair plus one
            # per extended end, so more needy cliques than that is hopeless
            if len(needy) > len(h_pos) + 2:
                return None
            universe.extend(("clique", ci) for ci in needy)
        r = len(universe)
        full_t = (1 << r) - 1

        sat_cache: dict[int, int] = {}

        def sat_of(w: int) -> int:
            got = sat_cache.get(w)
            if got is None:
                got = 0
                row = rows[w]
                for bi, (kind, ident) in enumerate(universe):
                    if kind == "near":
                        if row[ident] <= 1:
                            got |= 1 << bi
                    elif kind == "twostep":
                        if row[ident] <= 2:
                            got |= 1 << bi
                    elif clique_id[w] == ident:
                        got |= 1 << bi
                sat_cache[w] = got
            return got

        inst = CscInstance(
            r,
            tuple(
                tuple(Candidate((u, v), sat_of(u) | sat_of(v)) for u, v in cands)
                for cands in cand_lists
            ),
        )
        stats.csc_calls += 1
        packs = {0: (inst, dp_layers(inst))}

        def pack_for(banned: int):
            got = packs.get(banned)
            if got is None:
                kept = tuple(
                    tuple(
                        c
                        for c in grp
                        if not banned >> c.payload[0] & 1
                        and not banned >> c.payload[1] & 1
                    )
                    for grp in inst.groups
                )
                if any(not grp for grp in kept):
                    got = (None, None)
                else:
                    sub = CscInstance(r, kept)
                    stats.csc_calls += 1
                    got = (sub, dp_layers(sub))
                packs[banned] = got
            return got

        def splice(pairs):
            path = [pi[0]]
            gi = 0
            for i in range(len(pi) - 1):
                if gi < len(h_pos) and h_pos[gi] == i:
                    u, v = pairs[gi]
                    path.append(u)
                    if v != u:
                        path.append(v)
                    gi += 1
                path.append(pi[i + 1])
            return tuple(path)

        cover_k = self.cover_k
        core_cache: dict[tuple[int, int], tuple] = {}

        def core_for(target: int, banned: int = 0):
            key = (target, banned)
            got = core_cache.get(key)
            if got is None:
                got = (None, 0, 0)
                sub, layers = pack_for(banned)
                if sub is not None:
                    sel = reconstruct_selection(sub, layers, target)
                    if sel is not None:
                        core = splice([c.payload for c in sel.candidates(sub)])
                        if is_shortest_path(self.graph, self.dist, core):
                            cov = 0
                            vmask = 0
                            for w in core:
                                cov |= cover_k[w]
                                vmask |= 1 << w
                            got = (core, cov, vmask)
                core_cache[key] = got
            return got

        core, cov, _ = core_for(full_t)
        if core is not None and cov == self.full:
            return core

        # retry with up to two extra path vertices at each end; they take
        # over the requirements they satisfy themselves
        full = self.full
        pre_sat = []
        for pverts, pvmask, pcov in prefixes:
            got = 0
            for w in pverts:
                got |= sat_of(w)
            pre_sat.append(got)
        suf_sat = []
        for sverts, svmask, scov in suffixes:
            got = 0
            for w in sverts:
                got |= sat_of(w)
            suf_sat.append(got)
        for (pverts, pvmask, pcov), psat in zip(prefixes, pre_sat):
            for (sverts, svmask, scov), ssat in zip(suffixes, suf_sat):
                if not pverts and not sverts:
                    continue
                emask = pvmask | svmask
                if pvmask & svmask:
                    continue
                target = full_t & ~(psat | ssat)
                core, ccov, cmask = core_for(target)
                if core is not None and cmask & emask:
                    core, ccov, cmask = core_for(target, banned=emask)
                if core is None or cmask & emask:
                    continue
                if ccov | pcov | scov != full:
                    continue
                start = pverts[0] if pverts else core[0]
                end = sverts[-1] if sverts else core[-1]
                if rows[start][end] != len(core) - 1 + len(pverts) + len(sverts):
                    continue
                return pverts + core + sverts
        return None


def solve_distance_to_cluster(query: MespQuery, modulator: Modulator | None = None) -> MespAnswer:
    """Decide MESP by guessing how the path meets a cluster modulator.

    With the modulator empty the graph is a single clique; k = 0 reduces to
    "is G a path graph" for every input.
    """
    t0 = time.perf_counter()
    stats = SolveStats(solver="cluster")
    graph = query.graph
    if modulator is None:
        modulator = minimum_cluster_modulator(graph)
    if modulator.kind != CLUSTER:
        raise ValueError(f"expected a cluster modulator, got kind {modulator.kind!r}")
    if not modulator_is_valid(graph, modulator):
        raise ValueError("deletion set does not leave a disjoint union of cliques")
    stats.params["p"] = modulator.size
    if query.k == 0:
        order = path_graph_order(graph)
        if order is None:
            return _finish_no(stats, t0)
        return _finish_yes(query, order, stats, t0)
    center = _central_vertex(query)
    if center is not None:
        return _finish_yes(query, (center,), stats, t0)
    if not modulator.vertices:
        if graph.n == 1:
            return _finish_yes(query, (0,), stats, t0)
        return _finish_yes(query, (0, 1), stats, t0)
    found = _ClusterSearch(query, modulator, stats).run()
    if found is None:
        return _finish_no(stats, t0)
    return _finish_yes(query, found, stats, t0)


# ---------------------------------------------------------------------------
# distance to disjoint paths


class _DisjointPathsSearch:
    """Guess-driven search behind solve_distance_to_disjoint_paths, k >= 1.

    A guess fixes the path endpoints, the set L of augmented-modulator
    vertices on the path, and a distance estimate delta for the modulator
    vertices off the path.  Connecting segments between consecutive on-path
    vertices are filtered by the estimate and chosen by a set-cover DP; the
    spliced result is verified before being returned.
    """

    def __init__(self, query: MespQuery, modulator: Modulator, stats: SolveStats):
        self.graph = query.graph
        self.dist = query.dist
        self.k = query.k
        self.stats = stats
        self.n = query.graph.n
        self.full = (1 << self.n) - 1
        self.rows = query.dist.rows
        self.adj = query.graph.adj_mask
        self.cover_k = query.dist.coverage_masks(query.k)
        self.C = sorted(modulator.vertices)

    def run(self) -> tuple[int, ...] | None:
        n, k, rows = self.n, self.k, self.rows
        ecc = [self.dist.eccentricity(v) for v in range(n)]
        for p_first in range(n):
            for p_last in range(p_first, n):
                span = rows[p_first][p_last]
                if ecc[p_first] > span + k or ecc[p_last] > span + k:
                    continue
                found = self._try_endpoints(p_first, p_last, span)
                if found is not None:
                    return found
        return None

    def _try_endpoints(self, p_first, p_last, span):
        rows, k = self.rows, self.k
        chat = sorted(set(self.C) | {p_first, p_last})
        chat_mask = 0
        for v in chat:
            chat_mask |= 1 << v
        lo_bound: dict[int, int] = {}
        between = []
        for v in chat:
            if v == p_first or v == p_last:
                continue
            lo = max(1, rows[v][p_first] - span, rows[v][p_last] - span)
            if rows[v][p_first] + rows[v][p_last] == span:
                between.append(v)
            elif lo > k:
                return None  # v can be neither on the path nor near enough
            lo_bound[v] = lo
        for lsize in range(len(between) + 1):
            for extra in combinations(between, lsize):
                found = self._try_l(p_first, p_last, chat, chat_mask, lo_bound, extra)
                if found is not None:
                    return found
        return None

    def _segments(self, a, b, d_ab, chat_mask):
        """All interiors of shortest a-b paths avoiding the augmented
        modulator, as vertex tuples (in DFS order, neighbors ascending)."""
        rows, adj = self.rows, self.adj
        row_a, row_b = rows[a], rows[b]
        out: list[tuple[int, ...]] = []
        path: list[int] = []

        def extend(u, depth):
            if depth == d_ab - 1:
                if adj[u] >> b & 1:
                    out.append(tuple(path))
                return
            for w in _bits(adj[u] & ~chat_mask):
                if row_a[w] == depth + 1 and row_b[w] == d_ab - depth - 1:
                    path.append(w)
                    extend(w, depth + 1)
                    path.pop()

        for w in _bits(adj[a] & ~chat_mask):
            if row_a[w] == 1 and row_b[w] == d_ab - 1:
                path.append(w)
                extend(w, 1)
                path.pop()
        return out

    def _try_l(self, p_first, p_last, chat, chat_mask, lo_bound, extra):
        rows, k = self.rows, self.k
        l_set = {p_first, p_last} | set(extra)
        pi = unique_order(self.dist, p_first, sorted(l_set))
        if pi is None or pi[-1] != p_last:
            return None
        assert pi[0] == p_first

        seg_groups: list[list[tuple[tuple[int, ...], int]]] = []
        pair_union: list[int] = []
        for i in range(len(pi) - 1):
            a, b = pi[i], pi[i + 1]
            d_ab = rows[a][b]
            segs = [()] if d_ab == 1 else self._segments(a, b, d_ab, chat_mask)
            if not segs:
                return None
            with_masks = []
            union = 0
            for seg in segs:
                vm = 0
                for w in seg:
                    vm |= 1 << w
                with_masks.append((seg, vm))
                union |= vm
            seg_groups.append(with_masks)
            pair_union.append(union)

        others = [v for v in chat if v not in l_set]
        ranges = []
        for v in others:
            hi = min(k, min(rows[v][x] for x in pi))
            if lo_bound[v] > hi:
                return None
            ranges.append((lo_bound[v], hi))
        base_min = [min(rows[v][x] for x in pi) for v in range(self.n)]

        # enumerate delta assignments depth-first, pruning pairs that violate
        # |delta(u) - delta(v)| <= d(u, v) (true distances to one path obey it)
        chosen: list[int] = []

        def assign(idx):
            if idx == len(others):
                return self._try_delta(
                    pi, seg_groups, pair_union, others, tuple(chosen), base_min
                )
            v = others[idx]
            row_v = rows[v]
            lo, hi = ranges[idx]
            for value in range(lo, hi + 1):
                ok = True
                for j in range(idx):
                    if abs(value - chosen[j]) > row_v[others[j]]:
                        ok = False
                        break
                if not ok:
                    continue
                chosen.append(value)
                found = assign(idx + 1)
                chosen.pop()
                if found is not None:
                    return found
            return None

        return assign(0)

    def _try_delta(self, pi, seg_groups, pair_union, others, delta, base_min):
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

        kept_groups = []
        nec_mask = 0
        for with_masks, union in zip(seg_groups, pair_union):
            witnesses = [u for u in _bits(union) if estimate[u] == kp1]
            if witnesses:
                keep = []
                for seg, vm in with_masks:
                    ok = True
                    for u in witnesses:
                        row_u = rows[u]
                        if all(row_u[w] > k for w in seg):
                            ok = False
                            break
                    if ok:
                        keep.append((seg, vm))
                if not keep:
                    return None
            else:
                keep = with_masks
            kept_groups.append(keep)
            if len(keep) == 1:
                nec_mask |= keep[0][1]

        all_seg_mask = 0
        for union in pair_union:
            all_seg_mask |= union
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
        reqs: list[tuple[int, int]] = [(v, k) for v in off_far]
        for o, dv in zip(others, delta):
            row_o = rows[o]
            if min(row_o[w] for w in base_verts) > dv:
                reqs.append((o, dv))
        r = len(reqs)

        groups = []
        for keep in kept_groups:
            cands = []
            for seg, vm in keep:
                mask = 0
                for bi, (v, bound) in enumerate(reqs):
                    row_v = rows[v]
                    if any(row_v[w] <= bound for w in seg):
                        mask |= 1 << bi
                cands.append(Candidate(seg, mask))
            groups.append(tuple(cands))
        inst = CscInstance(r, tuple(groups))
        stats.csc_calls += 1
        sol = solve_csc(inst)
        if sol is None:
            return None

        def splice(segs):
            path = [pi[0]]
            for i, seg in enumerate(segs):
                path.extend(seg)
                path.append(pi[i + 1])
            return tuple(path)

        cover_k, full = self.cover_k, self.full

        def verify(path):
            got = 0
            for w in path:
                got |= cover_k[w]
            return got == full and is_shortest_path(self.graph, self.dist, path)

        path = splice([c.payload for c in sol.candidates(inst)])
        if verify(path):
            return path
        # the DP may have picked segments that share vertices; only combined
        # enumeration can then tell feasible configurations apart
        total = 1
        for keep in kept_groups:
            total *= len(keep)
            if total > SEGMENT_FALLBACK_CAP:
                return None
        for combo in product(*(range(len(keep)) for keep in kept_groups)):
            path = splice([kept_groups[gi][ci][0] for gi, ci in enumerate(combo)])
            if verify(path):
                return path
        return None


def solve_distance_to_disjoint_paths(
    query: MespQuery, modulator: Modulator | None = None
) -> MespAnswer:
    """Decide MESP by guessing endpoints, on-path modulator vertices and
    distance estimates over a disjoint-paths modulator."""
    t0 = time.perf_counter()
    stats = SolveStats(solver="paths")
    graph = query.graph
    if modulator is None:
        modulator = minimum_disjoint_paths_modulator(graph)
    if modulator.kind != DISJOINT_PATHS:
        raise ValueError(
            f"expected a disjoint-paths modulator, got kind {modulator.kind!r}"
        )
    if not modulator_is_valid(graph, modulator):
        raise ValueError("deletion set does not leave a disjoint union of paths")
    stats.params["c"] = modulator.size
    if query.k == 0:
        order = path_graph_order(graph)
        if order is None:
            return _finish_no(stats, t0)
        return _finish_yes(query, order, stats, t0)
    center = _central_vertex(query)
    if center is not None:
        return _finish_yes(query, (center,), stats, t0)
    found = _DisjointPathsSearch(query, modulator, stats).run()
    if found is None:
        return _finish_no(stats, t0)
    return _finish_yes(query, found, stats, t0)


# ---------------------------------------------------------------------------
# prepared instance, dispatch and the search for k


class Instance:
    """A graph prepared for MESP decisions at any k.

    Holds the graph and its distance matrix and builds each structural
    parameter (modular decomposition, minimum modulators) on first use, so
    every decision that shares the instance shares one computation of it.
    """

    def __init__(self, graph: Graph, dist: DistanceMatrix | None = None):
        self.graph = graph
        self.dist = all_pairs_distances(graph) if dist is None else dist
        self._tree: MDNode | None = None
        self._modulators: dict[tuple[str, int | None], Modulator | None] = {}

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


def _auto_choice(inst: Instance, k: int) -> tuple[str, dict]:
    """Estimate each solver's cost from its worst-case bound; returns the
    cheapest one and the parameters it was priced with.

    Modulators are searched only up to MODULATOR_CAP.  The enumeration cost
    uses the count of vertices of degree other than 2 as a stand-in for the
    graph's core size.  Raises a capacity error when every estimate exceeds
    SOLVE_BUDGET.
    """
    graph = inst.graph
    n = graph.n
    w = modular_width(inst.decomposition)
    cluster_mod = inst.modulator(CLUSTER, MODULATOR_CAP)
    paths_mod = inst.modulator(DISJOINT_PATHS, MODULATOR_CAP)
    branchish = sum(1 for v in range(n) if graph.degree(v) != 2)

    n3 = float(n) ** 3
    options: list[tuple[float, int, str]] = [
        (2.0 ** min(w, 400) * n3, 0, "mw"),
        (2.0 ** min(branchish + 1, 400) * n3, 3, "brute"),
    ]
    if cluster_mod is not None:
        p = cluster_mod.size
        options.append((2.0 ** min(4 * p, 400) * max(p, 1) * float(n) ** 6, 1, "cluster"))
    if paths_mod is not None:
        c = paths_mod.size
        cost = 2.0 ** min(5 * c, 400) * float(max(k, 1)) ** min(c, 60) * max(c, 1)
        options.append((cost * float(n) ** 4, 2, "paths"))
    usable = [opt for opt in options if opt[0] <= SOLVE_BUDGET]
    if not usable:
        raise CapacityError(
            f"no solver within budget (mw={w}, p="
            f"{cluster_mod.size if cluster_mod else '>cap'}, c="
            f"{paths_mod.size if paths_mod else '>cap'}, core-ish={branchish})"
        )
    _, _, pick = min(usable)
    return pick, {
        "mw": w,
        "p": cluster_mod.size if cluster_mod is not None else None,
        "c": paths_mod.size if paths_mod is not None else None,
    }


def decide(inst: Instance, k: int, solver: str = "auto") -> MespAnswer:
    """Decide MESP at ``k`` with the solver named ``solver`` (SOLVER_NAMES).

    ``auto`` runs the cheapest solver by estimate and reports it as
    ``auto:<name>`` with every parameter it priced.
    """
    query = MespQuery(inst.graph, inst.dist, k)
    if solver == "auto":
        pick, priced = _auto_choice(inst, k)
        cap = MODULATOR_CAP
    else:
        pick, priced, cap = solver, None, None
    if pick == "brute":
        answer = solve_bruteforce(query)
    elif pick == "mw":
        answer = solve_modular_width(query, inst.decomposition)
    elif pick == "cluster":
        answer = solve_distance_to_cluster(query, inst.modulator(CLUSTER, cap))
    elif pick == "paths":
        answer = solve_distance_to_disjoint_paths(query, inst.modulator(DISJOINT_PATHS, cap))
    else:
        raise ValueError(f"unknown solver {solver!r}")
    if priced is not None:
        answer.stats.solver = f"auto:{pick}"
        answer.stats.params.update(priced)
    return answer


def solve_auto(query: MespQuery) -> MespAnswer:
    """Decide ``query`` with the cheapest solver by estimate (see decide)."""
    return decide(Instance(query.graph, query.dist), query.k, "auto")


def minimize_k(inst: Instance, solver: str = "auto") -> tuple[int, PathWitness]:
    """Smallest k answered yes, with a witness for it.

    Binary search over [0, ecc(v0)] is sound because a witness for k is a
    witness for k + 1, and the single-vertex path (v0) always witnesses
    ecc(v0).  Every probe shares ``inst``, so each structural parameter is
    built at most once.
    """
    lo, hi = 0, inst.dist.eccentricity(0)
    best = PathWitness((0,))
    while lo < hi:
        mid = (lo + hi) // 2
        answer = decide(inst, mid, solver)
        if answer.decision:
            hi = mid
            best = answer.witness
        else:
            lo = mid + 1
    return lo, best
