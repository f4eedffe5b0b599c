"""MESP decision solvers: examples, oracle agreement, dispatch, minimize."""

import random
from collections import defaultdict
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesp.graph
from mesp import (
    CLUSTER,
    DISJOINT_PATHS,
    CapacityError,
    DisconnectedGraphError,
    Graph,
    Instance,
    MDNode,
    MespQuery,
    Modulator,
    all_pairs_distances,
    decide,
    minimize_k,
    modular_decomposition,
    path_graph_order,
    solve_auto,
    solve_bruteforce,
    solve_distance_to_cluster,
    solve_distance_to_disjoint_paths,
    solve_modular_width,
)

from mesp.generators import gen_cluster_plus_p, gen_subdivided_core, gen_substitution
from mesp.graph import enumerate_shortest_paths, is_shortest_path, unique_order
from mesp.solvers import (
    SolveStats,
    _ClusterSearch,
    _DisjointPathsSearch,
    _segments,
    _splice,
)

import oracles
from test_graph import complete, cycle, path, random_connected, star


# triangle 0,1,2 and triangle 3,4,5 bridged through vertex 6
TRIANGLES_BRIDGE = Graph(
    7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 6), (3, 6)]
)
# two degree-3 hubs joined by three internally disjoint length-3 paths
THETA = Graph(8, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
# C5 with vertex 0 substituted by the adjacent pair {0, 5}
C5_SUB_K2 = Graph(6, [(0, 5), (0, 1), (5, 1), (0, 4), (5, 4), (1, 2), (2, 3), (3, 4)])


def _grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


# far more than 4096 shortest paths, and no eccentricity-0 path among them
GRID_6X6 = _grid(6, 6)


def q(graph: Graph, k: int) -> MespQuery:
    return MespQuery(graph, all_pairs_distances(graph), k)


def brute_decision(graph: Graph, k: int) -> bool:
    return oracles.mesp_decision(graph.n, list(graph.edges()), k)


class TestBruteforce:
    def test_path_graph(self):
        ans = solve_bruteforce(q(path(6), 0))
        assert ans.decision and ans.witness.vertices == (0, 1, 2, 3, 4, 5)

    def test_c6(self):
        assert not solve_bruteforce(q(cycle(6), 0)).decision
        ans = solve_bruteforce(q(cycle(6), 1))
        assert ans.decision and len(ans.witness.vertices) == 4

    def test_claw(self):
        assert not solve_bruteforce(q(star(3), 0)).decision
        ans = solve_bruteforce(q(star(3), 1))
        # first witness in enumeration order: the center alone covers all
        assert ans.decision and ans.witness.vertices == (0,)

    def test_matches_oracle_small(self, catalog5):
        for n, edges in catalog5:
            g = Graph(n, edges)
            diam = max(max(r) for r in oracles.distance_rows(n, edges))
            for k in range(diam + 1):
                got = solve_bruteforce(q(g, k)).decision
                assert got == oracles.mesp_decision(n, edges, k), (n, edges, k)

    def test_time_limit(self):
        with pytest.raises(CapacityError):
            solve_bruteforce(q(GRID_6X6, 0), time_limit=0.0)

    def test_path_cap(self):
        with pytest.raises(CapacityError):
            solve_bruteforce(q(GRID_6X6, 0), path_cap=4096)
        # a search that ends below the cap is complete: its "no" stands
        capped = solve_bruteforce(q(cycle(8), 1), path_cap=4096)
        assert not capped.decision
        assert capped.stats.paths_checked == solve_bruteforce(q(cycle(8), 1)).stats.paths_checked


def _count_walks(monkeypatch) -> list[list]:
    """Wrap the shortest-path walk at the binding brute force reads; each
    start appends [dist, finished]."""
    walks = []
    walk = mesp.solvers._iter_path_pushes

    def counted(graph, dist):
        entry = [dist, False]
        walks.append(entry)
        yield from walk(graph, dist)
        entry[1] = True

    monkeypatch.setattr(mesp.solvers, "_iter_path_pushes", counted)
    return walks


def _replay_graphs():
    """Seeded subdivided-core, random and paths-plus-c graphs, n = 15-60."""
    rng = random.Random(31)
    for n in (15, 33, 60):
        yield gen_subdivided_core(rng.randint(5, 6), 8, n, rng)[0]
        yield random_connected(rng, n, n + 5)
    graphs = (paths_plus_c(random.Random(seed))[0] for seed in range(40))
    yield from [g for g in graphs if g.n >= 15][:3]


def _outcome(answer):
    return answer.decision, answer.witness, answer.stats.paths_checked


class TestRecordedWalk:
    """Brute force records nothing of its walk: every decision walks live,
    and a minimization is one walk whose target descends."""

    def test_replay_matches_fresh_walk(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        for g in _replay_graphs():
            kept = all_pairs_distances(g)
            noes = []
            for k in range(max(map(kept.eccentricity, range(g.n))) + 1):
                fresh = solve_bruteforce(MespQuery(g, all_pairs_distances(g), k))
                assert _outcome(solve_bruteforce(MespQuery(g, kept, k))) == _outcome(fresh), (
                    list(g.edges()), k)
                noes.append(not fresh.decision)
            # nothing is replayed: every decision walks, to the end on a "no"
            assert [done for dist, done in walks if dist is kept] == noes

    def test_caps_hold_on_a_recorded_walk(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        dist = all_pairs_distances(GRID_6X6)
        assert not solve_bruteforce(MespQuery(GRID_6X6, dist, 0)).decision
        with pytest.raises(CapacityError):
            solve_bruteforce(MespQuery(GRID_6X6, dist, 0), path_cap=4096)
        with pytest.raises(CapacityError):
            solve_bruteforce(MespQuery(GRID_6X6, dist, 0), time_limit=0.0)
        assert [done for _, done in walks] == [True, False, False]

    def test_minimize_walks_to_completion_once(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        g, _ = gen_subdivided_core(10, 12, 60, random.Random(3))
        k, witness = minimize_k(Instance(g))
        assert [done for _, done in walks] == [True]
        assert witness.eccentricity(all_pairs_distances(g)) == k

    def test_one_walk_matches_binary_search(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        for g in _replay_graphs():
            dist = all_pairs_distances(g)
            center = min(range(g.n), key=dist.eccentricity)
            lo, hi, best = 0, dist.eccentricity(center), (center,)
            while lo < hi:
                mid = (lo + hi) // 2
                answer = solve_bruteforce(MespQuery(g, dist, mid))
                if answer.decision:
                    hi, best = mid, answer.witness.vertices
                else:
                    lo = mid + 1
            walks.clear()
            k, witness = minimize_k(Instance(g, dist), "brute")
            assert (k, witness.vertices) == (lo, best), list(g.edges())
            assert len(walks) == 1

    def test_path_cap_covers_the_minimizing_walk(self, monkeypatch):
        # auto over budget runs brute force under the cap, counted over the
        # whole walk, not per target
        monkeypatch.setattr("mesp.solvers.SOLVE_BUDGET", 1)
        monkeypatch.setattr("mesp.solvers.BRUTE_PATH_CAP", 4096)
        with pytest.raises(CapacityError):
            minimize_k(Instance(GRID_6X6))
        # the 4x7 grid numbered outwards from its centre walks 4,648 paths,
        # with at most 3,766 between two paths found
        grid = _grid(4, 7)
        rows = all_pairs_distances(grid).rows
        centre = min(range(28), key=lambda v: max(rows[v]))
        label = {v: i for i, v in enumerate(sorted(range(28), key=rows[centre].__getitem__))}
        numbered = Graph(28, [(label[a], label[b]) for a, b in grid.edges()])
        assert sum(1 for _ in enumerate_shortest_paths(numbered)) == 4648
        with pytest.raises(CapacityError):
            minimize_k(Instance(numbered))
        k, witness = minimize_k(Instance(cycle(8)))
        assert k == oracles.mesp_min_k(8, list(cycle(8).edges()))
        assert witness.eccentricity(all_pairs_distances(cycle(8))) == k


class TestModularWidth:
    def test_c4_crossing_edge(self):
        ans = decide(Instance(cycle(4)), 1, "mw")
        assert ans.decision
        u, v = ans.witness.vertices
        assert cycle(4).has_edge(u, v)

    def test_p3_whole_path(self):
        ans = decide(Instance(path(3)), 0, "mw")
        assert ans.decision and len(ans.witness.vertices) == 3

    def test_substituted_c5_matches_brute(self):
        inst = Instance(C5_SUB_K2)
        for k in range(4):
            got = decide(inst, k, "mw").decision
            assert got == brute_decision(C5_SUB_K2, k), k

    def test_union_root_rejected(self):
        fake = MDNode(
            "union", children=(MDNode("leaf", vertex=0), MDNode("leaf", vertex=1))
        )
        with pytest.raises(DisconnectedGraphError):
            solve_modular_width(q(complete(2), 1), fake)

    def test_single_vertex(self):
        ans = decide(Instance(Graph(1, [])), 0, "mw")
        assert ans.decision and ans.witness.vertices == (0,)

    def test_explicit_tree_reused(self):
        g = cycle(5)
        tree = modular_decomposition(g)
        assert solve_modular_width(q(g, 1), tree).decision

    def test_lifted_pattern_paths_are_shortest(self):
        """Child modules of the root are fully adjacent or fully non-adjacent,
        so every shortest path of a prime root's pattern, lifted to one
        representative per module, is a shortest path of G; the prime loop
        relies on this and does not check it."""
        rng = random.Random(36)
        lifted = 0
        for _ in range(40):
            g = gen_substitution(rng.randint(8, 60), 6, rng)[0]
            tree = modular_decomposition(g)
            if tree.kind != "prime":
                continue
            dist = all_pairs_distances(g)
            reps = [child.min_vertex() for child in tree.children]
            for ppath in enumerate_shortest_paths(tree.pattern):
                lifted += 1
                cand = [reps[i] for i in ppath]
                assert is_shortest_path(g, dist, cand), (list(g.edges()), cand)
        assert lifted > 100


class TestClusterSolver:
    def test_triangles_bridge(self):
        mod = Modulator(CLUSTER, frozenset({6}))
        ans = solve_distance_to_cluster(q(TRIANGLES_BRIDGE, 1), mod)
        assert ans.decision
        a, u, b = ans.witness.vertices
        assert u == 6 and a in {0, 1, 2} and b in {3, 4, 5}

    def test_k3_no_at_zero(self):
        mod = Modulator(CLUSTER, frozenset({0}))
        assert not solve_distance_to_cluster(q(complete(3), 0), mod).decision

    def test_claw_center(self):
        mod = Modulator(CLUSTER, frozenset({0}))
        assert solve_distance_to_cluster(q(star(3), 1), mod).decision

    def test_empty_modulator_is_one_clique(self):
        empty = Modulator(CLUSTER, frozenset())
        assert solve_distance_to_cluster(q(complete(5), 1), empty).decision
        assert not solve_distance_to_cluster(q(complete(5), 0), empty).decision
        assert solve_distance_to_cluster(q(complete(2), 0), empty).decision
        assert solve_distance_to_cluster(q(Graph(1, []), 0), empty).decision

    def test_invalid_modulator_rejected(self):
        bad = Modulator(CLUSTER, frozenset())
        with pytest.raises(ValueError):
            solve_distance_to_cluster(q(path(4), 1), bad)
        wrong_kind = Modulator(DISJOINT_PATHS, frozenset({1}))
        with pytest.raises(ValueError):
            solve_distance_to_cluster(q(path(4), 1), wrong_kind)
        for outside in (4, 99, -1):  # {1} alone is valid
            bad = Modulator(CLUSTER, frozenset({1, outside}))
            with pytest.raises(ValueError, match="deletion set"):
                solve_distance_to_cluster(q(path(4), 1), bad)

    def test_c6_all_k(self):
        g = cycle(6)
        inst = Instance(g)
        for k in range(4):
            got = decide(inst, k, "cluster").decision
            assert got == brute_decision(g, k), k

    def test_random_matches_brute(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(4, 9)
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            k = rng.randint(0, 3)
            got = decide(Instance(g), k, "cluster").decision
            assert got == brute_decision(g, k), (list(g.edges()), k)


class TestDisjointPathsSolver:
    def test_c6_with_one_removed(self):
        mod = Modulator(DISJOINT_PATHS, frozenset({0}))
        expect = {0: False, 1: True, 2: True}
        for k, want in expect.items():
            ans = solve_distance_to_disjoint_paths(q(cycle(6), k), mod)
            assert ans.decision == want == brute_decision(cycle(6), k), k

    def test_p7_empty_modulator(self):
        mod = Modulator(DISJOINT_PATHS, frozenset())
        ans = solve_distance_to_disjoint_paths(q(path(7), 0), mod)
        assert ans.decision and ans.witness.vertices == tuple(range(7))

    def test_theta_graph(self):
        mod = Modulator(DISJOINT_PATHS, frozenset({0, 1}))
        for k in range(4):
            got = solve_distance_to_disjoint_paths(q(THETA, k), mod).decision
            assert got == brute_decision(THETA, k), k

    def test_invalid_modulator_rejected(self):
        bad = Modulator(DISJOINT_PATHS, frozenset())
        with pytest.raises(ValueError):
            solve_distance_to_disjoint_paths(q(complete(4), 1), bad)
        for outside in (4, 99, -1):  # {0, 1} alone is valid
            bad = Modulator(DISJOINT_PATHS, frozenset({0, 1, outside}))
            with pytest.raises(ValueError, match="deletion set"):
                solve_distance_to_disjoint_paths(q(complete(4), 1), bad)

    def test_only_kept_segment_covers_far_vertices(self):
        # a group that keeps one segment puts it on every witness of the
        # guess (nec_mask), and a vertex the estimate puts beyond k + 1 is
        # covered only by lying on it; a search that leaves nec_mask empty
        # answers no at k = 1
        g = Graph(14, [(0, 4), (0, 5), (0, 10), (1, 9), (1, 11), (2, 11), (3, 10), (3, 12),
                       (4, 13), (5, 6), (6, 7), (7, 8), (8, 9), (12, 13)])
        inst = Instance(g)
        for k in range(_radius(inst) + 1):
            got = decide(inst, k, "paths")
            assert got.decision == decide(inst, k, "brute").decision, k

    def test_random_matches_brute(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(4, 9)
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            k = rng.randint(0, 3)
            got = decide(Instance(g), k, "paths").decision
            assert got == brute_decision(g, k), (list(g.edges()), k)

    def test_paths_plus_c_matches_brute(self):
        # the splice of the set-cover selection is the witness, with no
        # fallback behind it: a flaw would raise, not turn into a "no"
        for seed in range(100):
            g, c = paths_plus_c(random.Random(seed))
            inst = Instance(g)
            k_min = oracles.mesp_min_k(g.n, list(g.edges()))
            for k in range(inst.dist.eccentricity(0) + 1):
                got = decide(inst, k, "paths")
                assert got.decision == (k >= k_min), (seed, k)
                assert got.stats.params["c"] <= c


def paths_plus_c(rng: random.Random, longest: int = 9) -> tuple[Graph, int]:
    """2-4 disjoint paths of 3 to ``longest`` vertices plus a chain of c <= 3
    apexes.

    Both ends and up to two interior vertices of every path are joined to
    random apexes, so deleting the apexes leaves exactly the paths.
    """
    q_paths, length, c = rng.randint(2, 4), rng.randint(3, longest), rng.randint(1, 3)
    n = q_paths * length + c
    apexes = range(q_paths * length, n)
    edges = {(a - 1, a) for a in apexes[1:]}
    for i in range(q_paths):
        first, last = i * length, (i + 1) * length - 1
        edges.update((v, v + 1) for v in range(first, last))
        attached = [first, last] + [rng.randint(first, last) for _ in range(rng.randint(0, 2))]
        edges.update((v, rng.choice(apexes)) for v in attached)
    return Graph(n, sorted(edges)), c


def _radius(inst: Instance) -> int:
    return min(map(inst.dist.eccentricity, range(inst.graph.n)))


class TestAtRealisticSizes:
    """Forced guess-and-cover decisions against brute force at n = 15-60."""

    def test_cluster_on_cluster_plus_p(self):
        rng = random.Random(31)
        for _ in range(100):
            g, mod = gen_cluster_plus_p(rng.randint(15, 60), rng.randint(1, 4), rng)
            inst = Instance(g)
            for k in range(_radius(inst) + 1):
                got = decide(inst, k, "cluster")
                assert got.decision == decide(inst, k, "brute").decision, (list(g.edges()), k)
                assert got.stats.params["p"] <= mod.size

    def test_mw_on_substitution(self):
        rng = random.Random(33)
        graphs = [gen_substitution(rng.randint(15, 60), 6, rng)[0] for _ in range(40)]
        assert max(g.n for g in graphs) >= 50
        for g in graphs:
            inst = Instance(g)
            for k in range(_radius(inst) + 1):
                got = decide(inst, k, "mw")
                assert got.decision == decide(inst, k, "brute").decision, (list(g.edges()), k)

    def test_paths_on_paths_plus_c(self):
        rng = random.Random(32)
        graphs = [paths_plus_c(rng, longest=14) for _ in range(120)]
        sizes = [g.n for g, _ in graphs if g.n >= 15]
        assert len(sizes) >= 80 and max(sizes) >= 50
        for g, c in graphs:
            if g.n < 15:
                continue
            inst = Instance(g)
            for k in range(_radius(inst) + 1):
                got = decide(inst, k, "paths")
                assert got.decision == decide(inst, k, "brute").decision, (list(g.edges()), k)
                assert got.stats.params["c"] <= c

    def test_paths_on_subdivided_core(self):
        rng = random.Random(34)
        graphs = []
        for _ in range(30):
            core_n = rng.randint(4, 6)
            core_m = rng.randint(core_n, core_n + 2)
            graphs.append(gen_subdivided_core(core_n, core_m, rng.randint(15, 59), rng)[0])
        assert max(g.n for g in graphs) >= 50
        widest = 0
        for g in graphs:
            inst = Instance(g)
            for k in range(_radius(inst) + 1):
                got = decide(inst, k, "paths")
                assert got.decision == decide(inst, k, "brute").decision, (list(g.edges()), k)
                widest = max(widest, got.stats.params["c"])
        assert widest >= 3


def _screen_cases(kind: str):
    """(graph, instance, modulator, k) for seeded cluster-plus-p,
    paths-plus-c and random connected graphs with n <= 16, every k from 1 to
    the radius; graphs whose modulator of ``kind`` has more than 3 vertices
    are left out."""
    rng = random.Random(33)
    graphs = []
    for _ in range(25):
        graphs.append(gen_cluster_plus_p(rng.randint(6, 16), rng.randint(1, 3), rng)[0])
        graphs.append(paths_plus_c(rng, longest=4)[0])
        n = rng.randint(5, 16)
        graphs.append(random_connected(rng, n, rng.randint(n - 1, min(n + 6, n * (n - 1) // 2))))
    for g in graphs:
        inst = Instance(g)
        mod = inst.modulator(kind, 3)
        if mod is None:
            continue
        for k in range(1, _radius(inst) + 1):
            yield g, inst, mod, k


def _witness_ecc_by_ends(g: Graph) -> tuple[list[list[int]], dict]:
    """Oracle rows, and the least eccentricity of a shortest path between
    each pair of endpoints (first, last), first <= last."""
    edges = list(g.edges())
    rows = oracles.distance_rows(g.n, edges)
    best: dict = defaultdict(lambda: g.n)
    for p in oracles.all_shortest_paths(g.n, edges, rows):
        ends = (min(p[0], p[-1]), max(p[0], p[-1]))
        best[ends] = min(best[ends], oracles.path_ecc(rows, p))
    return rows, best


class TestScreens:
    """Every guess the screens drop is one that cannot produce a witness."""

    def test_interval_screen_drops_no_witness(self):
        interval_drops = 0
        for g, inst, mod, k in _screen_cases(DISJOINT_PATHS):
            _, best = _witness_ecc_by_ends(g)
            search = _DisjointPathsSearch(MespQuery(g, inst.dist, k), mod, SolveStats())
            tried = []
            try_endpoints = search._try_endpoints

            def recorded(p_first, p_last, span):
                tried.append((p_first, p_last))
                return try_endpoints(p_first, p_last, span)

            search._try_endpoints = recorded
            found = search.run()
            ecc, rows = inst.dist.eccentricity, inst.dist.rows
            pairs = [(f, l) for f in range(g.n) for l in range(f, g.n)]
            if found is not None:  # the search stopped at the last pair it tried
                pairs = pairs[: pairs.index(tried[-1])]
            for f, l in set(pairs) - set(tried):
                assert best[f, l] > k, (list(g.edges()), k, f, l)
                if max(ecc(f), ecc(l)) <= rows[f][l] + k:
                    interval_drops += 1  # not dropped by the eccentricity screen
        assert interval_drops > 100

    def test_order_screen_drops_no_witness(self):
        screened = kept = 0
        for g, inst, mod, k in _screen_cases(CLUSTER):
            rows, _ = _witness_ecc_by_ends(g)
            search = _ClusterSearch(MespQuery(g, inst.dist, k), mod, SolveStats())
            orders = []
            try_order, try_assignment = search._try_order, search._try_assignment

            def order_recorded(l_set, pi, groups):
                orders.append([pi, groups, 0])
                return try_order(l_set, pi, groups)

            def assignment_counted(*args):
                orders[-1][2] += 1
                return try_assignment(*args)

            search._try_order = order_recorded
            search._try_assignment = assignment_counted
            search.run()
            for pi, groups, assignments in orders:
                if assignments:  # every order the screen keeps gets one
                    kept += 1
                    continue
                screened += 1
                prefixes, suffixes = search._extension_options(pi)
                for interiors in product(*groups):
                    core = _splice(g.adj_mask, pi, interiors)
                    for (pre, _), (suf, _) in product(prefixes, suffixes):
                        p = pre + core + suf
                        shortest = len(set(p)) == len(p) == rows[p[0]][p[-1]] + 1 and all(
                            g.adj_mask[a] >> b & 1 for a, b in zip(p, p[1:])
                        )
                        assert not shortest or oracles.path_ecc(rows, p) > k, (
                            list(g.edges()), k, p,
                        )
        assert screened > 50 and kept > 0


class TestClusterGuessStructure:
    """What the cluster search relies on instead of checking: no extension
    option meets a core, and every splice of pi is a shortest path."""

    def test_options_avoid_the_interval_and_splices_are_shortest(self):
        rng = random.Random(17)
        options = splices = 0
        for _ in range(40):
            g, mod = gen_cluster_plus_p(rng.randint(6, 20), rng.randint(1, 3), rng)
            inst = Instance(g)
            rows = inst.dist.rows
            for k in range(1, _radius(inst) + 1):
                search = _ClusterSearch(MespQuery(g, inst.dist, k), mod, SolveStats())
                tried = []
                try_order = search._try_order

                def recorded(l_set, pi, groups):
                    tried.append((pi, groups))
                    return try_order(l_set, pi, groups)

                search._try_order = recorded
                search.run()
                for pi, groups in tried:
                    first, last = pi[0], pi[-1]
                    span = rows[first][last]
                    interval = {w for w in range(g.n) if rows[first][w] + rows[w][last] == span}
                    prefixes, suffixes = search._extension_options(pi)
                    for verts, _ in prefixes + suffixes:
                        options += bool(verts)
                        assert not interval & set(verts), (list(g.edges()), k, pi, verts)
                    for interiors in product(*groups):
                        core = _splice(g.adj_mask, pi, interiors)
                        splices += 1
                        assert set(core) <= interval
                        assert is_shortest_path(g, inst.dist, core), (list(g.edges()), k, core)
        assert options > 1000 and splices > 200


def _cluster_cases(catalog):
    """(graph, search at k = 1) for the catalog's graphs and seeded
    cluster-plus-p graphs with n <= 30, each with a minimum cluster
    modulator."""
    rng = random.Random(19)
    graphs = [Graph(n, edges) for n, edges in catalog]
    graphs += [gen_cluster_plus_p(rng.randint(6, 30), rng.randint(1, 3), rng)[0] for _ in range(40)]
    for g in graphs:
        inst = Instance(g)
        yield g, _ClusterSearch(MespQuery(g, inst.dist, 1), inst.modulator(CLUSTER), SolveStats())


class TestClusterCliqueRequirement:
    """A needy clique is the requirement (z, 1), z its lowest vertex; that is
    exact because every vertex the search can put on the path outside pi
    lies outside U, and outside U d(w, z) <= 1 holds exactly within z's
    clique."""

    def test_candidates_and_options_avoid_the_modulator(self, catalog7):
        drawn = 0
        for g, search in _cluster_cases(catalog7):
            adj, rows, u_mask = g.adj_mask, search.rows, search.u_mask
            for lsize in range(1, len(search.U) + 1):
                for L in combinations(search.U, lsize):
                    for s in L:
                        pi = unique_order(search.dist, s, L)
                        if pi is None:
                            continue
                        verts = [
                            w
                            for a, b in zip(pi, pi[1:])
                            if not adj[a] >> b & 1
                            for seg in _segments(adj, rows, a, b, u_mask)
                            for w in seg
                        ]
                        prefixes, suffixes = search._extension_options(pi)
                        verts += [w for opt, _ in prefixes + suffixes for w in opt]
                        drawn += len(verts)
                        assert not any(u_mask >> w & 1 for w in verts), (list(g.edges()), pi)
        assert drawn > 20000

    def test_lowest_vertex_stands_for_its_clique(self, catalog7):
        checked = 0
        for g, search in _cluster_cases(catalog7):
            rows = search.rows
            outside = [w for w in range(g.n) if not search.u_mask >> w & 1]
            assert sorted(w for c in search.cliques for w in c) == outside
            for c in search.cliques:
                z = c[0]
                assert z == min(c)
                for w in outside:
                    checked += 1
                    assert (rows[w][z] <= 1) == (w in c), (list(g.edges()), c, w)
        assert checked > 10000


class TestConnectorLayer:
    """The segment walk and splice shared by the guess-and-cover searches."""

    def test_deep_segment_needs_no_recursion(self):
        n, a, b = 2500, 0, 1200
        g = cycle(n)
        rows = {v: [min(abs(v - w), n - abs(v - w)) for w in range(n)] for v in (a, b)}
        segs = _segments(g.adj_mask, rows, a, b, (1 << a) | (1 << b))
        assert segs == [tuple(range(1, 1200))]

    def test_segments_match_enumeration(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(60):
            n = rng.randint(4, 12)
            g = random_connected(rng, n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)))
            dist = q(g, 0).dist
            paths = list(enumerate_shortest_paths(g, dist))
            for _ in range(6):
                a, b = rng.sample(range(n), 2)
                avoid = (1 << a) | (1 << b) | rng.getrandbits(n) & rng.getrandbits(n)
                want = [
                    p[1:-1]
                    for p in paths
                    if p[0] == a and p[-1] == b and not any(avoid >> w & 1 for w in p[1:-1])
                ]
                got = _segments(g.adj_mask, dist.rows, a, b, avoid)
                assert got == want, (list(g.edges()), a, b, avoid)
                d = dist.rows[a][b]
                seen.add("adjacent" if d == 1 else "unreachable" if not got else d)
        assert {"adjacent", "unreachable", 2, 3} <= seen

    def test_splice_fills_only_non_adjacent_pairs(self):
        g = path(7)
        assert _splice(g.adj_mask, (0, 1, 4, 6), [(2, 3), (5,)]) == tuple(range(7))


class TestAuto:
    def test_cograph_uses_modular_width(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        ans = solve_auto(q(g, 1))
        assert ans.stats.solver == "auto:mw"
        assert ans.decision

    def test_cluster_plus_apex_uses_cluster_solver(self):
        # apex 0; each branch is 0 - attach - K4, so the quotient is a big
        # subdivided star and the modular-width route prices itself out
        edges = []
        nxt = 1
        for _ in range(12):
            attach = nxt
            clique = list(range(nxt + 1, nxt + 5))
            nxt += 5
            edges.append((0, attach))
            edges += [(attach, v) for v in clique]
            edges += [
                (clique[i], clique[j])
                for i in range(4)
                for j in range(i + 1, 4)
            ]
        g = Graph(nxt, edges)
        ans = solve_auto(q(g, 2))
        assert ans.stats.solver == "auto:cluster"
        assert ans.stats.params["p"] == 1

    def test_random_tree_matches_oracle(self):
        rng = random.Random(23)
        g = random_connected(rng, 30, 29)
        for k in (0, 3, 8):
            assert solve_auto(q(g, k)).decision == brute_decision(g, k)

    def test_budget_exhausted(self, monkeypatch):
        # no price within budget: brute force runs under the path cap, and
        # reaching the cap raises instead of answering "no"
        monkeypatch.setattr("mesp.solvers.SOLVE_BUDGET", 1)
        monkeypatch.setattr("mesp.solvers.BRUTE_PATH_CAP", 4096)
        with pytest.raises(CapacityError):
            solve_auto(q(GRID_6X6, 0))
        for k in (1, 2):
            ans = solve_auto(q(cycle(8), k))
            assert ans.stats.solver == "auto:brute"
            assert ans.decision == brute_decision(cycle(8), k)

    def test_agrees_with_brute_random(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(4, 10)
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            k = rng.randint(0, 3)
            assert solve_auto(q(g, k)).decision == brute_decision(g, k)


class TestMinimize:
    def test_path(self):
        k, wit = minimize_k(Instance(path(9)))
        assert k == 0 and wit.vertices == tuple(range(9))

    def test_c6(self):
        k, wit = minimize_k(Instance(cycle(6)))
        assert k == 1 and len(wit.vertices) == 4

    def test_claw(self):
        k, _ = minimize_k(Instance(star(3)))
        assert k == 1

    def test_single_vertex(self):
        k, wit = minimize_k(Instance(Graph(1, [])))
        assert k == 0 and wit.vertices == (0,)

    def test_matches_oracle_random(self):
        rng = random.Random(25)
        for solver in ("brute", "mw", "cluster", "paths", "auto"):
            for _ in range(8):
                n = rng.randint(3, 8)
                g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
                k, wit = minimize_k(Instance(g), solver=solver)
                assert k == oracles.mesp_min_k(n, list(g.edges())), (
                    solver,
                    list(g.edges()),
                )
                assert wit.is_valid(g, q(g, k).dist)

    def test_floor_below_k_star(self):
        # a shortest path P of eccentricity k has a middle vertex within
        # k + ceil(|P|/2) of every vertex, so k* >= radius - ceil(diam/2)
        rng = random.Random(22)
        graphs = [cycle(n) for n in (15, 28, 41, 60)]
        for _ in range(4):
            graphs.append(gen_subdivided_core(rng.randint(5, 6), 8, rng.randint(15, 60), rng)[0])
            graphs.append(random_connected(rng, n := rng.randint(15, 60), n - 1))  # a tree
        graphs += [g for g in (paths_plus_c(rng, longest=14)[0] for _ in range(40)) if g.n >= 15][:4]
        for g in graphs:
            ecc = [max(row) for row in oracles.distance_rows(g.n, g.edges())]
            k_star, _ = minimize_k(Instance(g), "brute")
            assert k_star >= min(ecc) - (max(ecc) + 1) // 2, list(g.edges())

    def test_long_cycle_keeps_half_the_diameter(self):
        # C_400: radius = diameter = 200 and k* = 100.  The walk asks for
        # levels 199 down to 99; level 99 is below the floor 200 - 100, so it
        # is built and dropped.
        inst = Instance(cycle(400))
        assert minimize_k(inst)[0] == 100
        assert len(inst.dist._cover) <= 200 // 2 + 1 and min(inst.dist._cover) == 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monotone_in_k(data):
    n = data.draw(st.integers(2, 20))
    m = data.draw(st.integers(n - 1, min(n * (n - 1) // 2, 3 * n)))
    seed = data.draw(st.integers(0, 10**6))
    g = random_connected(random.Random(seed), n, m)
    prev = False
    for k in range(g.n):
        got = solve_bruteforce(q(g, k)).decision
        assert not (prev and not got), ("monotonicity broken", list(g.edges()), k)
        prev = got
        if got:
            break


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_order_matches_oracle(data):
    # the exact oracle sequence, not only the same set; brute force stops at
    # its first path of eccentricity <= k, having checked every path before it
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(n - 1, n * (n - 1) // 2))
    g = random_connected(random.Random(data.draw(st.integers(0, 10**6))), n, m)
    edges = list(g.edges())
    want = oracles.all_shortest_paths(n, edges)
    assert list(enumerate_shortest_paths(g)) == want
    rows = oracles.distance_rows(n, edges)
    eccs = [oracles.path_ecc(rows, p) for p in want]
    dist = all_pairs_distances(g)
    for k in range(max(map(max, rows)) + 1):
        got = solve_bruteforce(MespQuery(g, dist, k))
        first = next((i for i, e in enumerate(eccs) if e <= k), None)
        if first is None:
            assert (got.decision, got.stats.paths_checked) == (False, len(want))
        else:
            assert got.witness.vertices == want[first]
            assert got.stats.paths_checked == first + 1
            assert got.witness.eccentricity(dist) == eccs[first]
    # the one descending walk stops at the first path of the least eccentricity
    k_star, witness = minimize_k(Instance(g, dist), "brute")
    radius = min(map(max, rows))
    assert k_star == min(eccs)
    if k_star < radius:
        assert witness.vertices == want[eccs.index(k_star)]
    else:
        assert witness.vertices == (min(range(n), key=lambda v: max(rows[v])),)


def test_negative_k_query_rejected():
    with pytest.raises(ValueError, match="eccentricity"):
        MespQuery(path(3), all_pairs_distances(path(3)), -1)


def test_path_graph_order_helper():
    assert path_graph_order(path(4)) in ((0, 1, 2, 3), (3, 2, 1, 0))
    assert path_graph_order(cycle(4)) is None
    assert path_graph_order(Graph(1, [])) == (0,)
    assert path_graph_order(star(3)) is None
