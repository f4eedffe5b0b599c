"""MESP decision solvers: examples, oracle agreement, dispatch, minimize."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    minimize_k,
    minimum_cluster_modulator,
    minimum_disjoint_paths_modulator,
    modular_decomposition,
    path_graph_order,
    solve_auto,
    solve_bruteforce,
    solve_distance_to_cluster,
    solve_distance_to_disjoint_paths,
    solve_modular_width,
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


def q(graph: Graph, k: int) -> MespQuery:
    return MespQuery.from_graph(graph, k)


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
        # a 6x6 grid has far more than 4096 shortest-path prefixes
        def vid(r, c):
            return 6 * r + c

        edges = []
        for r in range(6):
            for c in range(6):
                if c + 1 < 6:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < 6:
                    edges.append((vid(r, c), vid(r + 1, c)))
        grid = Graph(36, edges)
        with pytest.raises(CapacityError):
            solve_bruteforce(q(grid, 0), time_limit=0.0)


class TestModularWidth:
    def test_c4_crossing_edge(self):
        ans = solve_modular_width(q(cycle(4), 1))
        assert ans.decision
        u, v = ans.witness.vertices
        assert cycle(4).has_edge(u, v)

    def test_p3_whole_path(self):
        ans = solve_modular_width(q(path(3), 0))
        assert ans.decision and len(ans.witness.vertices) == 3

    def test_substituted_c5_matches_brute(self):
        for k in range(4):
            got = solve_modular_width(q(C5_SUB_K2, k)).decision
            assert got == brute_decision(C5_SUB_K2, k), k

    def test_union_root_rejected(self):
        fake = MDNode(
            "union", children=(MDNode("leaf", vertex=0), MDNode("leaf", vertex=1))
        )
        with pytest.raises(DisconnectedGraphError):
            solve_modular_width(q(complete(2), 1), tree=fake)

    def test_single_vertex(self):
        ans = solve_modular_width(q(Graph(1, []), 0))
        assert ans.decision and ans.witness.vertices == (0,)

    def test_explicit_tree_reused(self):
        g = cycle(5)
        tree = modular_decomposition(g)
        assert solve_modular_width(q(g, 1), tree=tree).decision


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

    def test_c6_all_k(self):
        g = cycle(6)
        for k in range(4):
            got = solve_distance_to_cluster(q(g, k)).decision
            assert got == brute_decision(g, k), k

    def test_random_matches_brute(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(4, 9)
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            k = rng.randint(0, 3)
            got = solve_distance_to_cluster(q(g, k)).decision
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

    def test_random_matches_brute(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(4, 9)
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            k = rng.randint(0, 3)
            got = solve_distance_to_disjoint_paths(q(g, k)).decision
            assert got == brute_decision(g, k), (list(g.edges()), k)


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
        monkeypatch.setattr("mesp.solvers.SOLVE_BUDGET", 1)
        with pytest.raises(CapacityError):
            solve_auto(q(cycle(8), 1))

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


def test_path_graph_order_helper():
    assert path_graph_order(path(4)) in ((0, 1, 2, 3), (3, 2, 1, 0))
    assert path_graph_order(cycle(4)) is None
    assert path_graph_order(Graph(1, [])) == (0,)
    assert path_graph_order(star(3)) is None
