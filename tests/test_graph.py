"""Graph core: construction, distances, orders, path enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesp import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    PathWitness,
    all_pairs_distances,
    closed_k_neighborhood,
    dist_to_set,
    eccentricity_of_set,
    enumerate_shortest_paths,
    is_shortest_path,
    parse_graph,
    path_within_ecc,
    unique_order,
)

import oracles


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected(rng, n, m):
    from mesp.generators import gen_random_connected

    return gen_random_connected(n, m, rng)


class TestConstruction:
    def test_k2(self):
        g = Graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1
        assert g.adjacency[0] == (1,)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(3, [(0, 1)])

    def test_c4(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 0), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 2)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (1, 0), (3, 2)])
        for v in range(4):
            assert list(g.adjacency[v]) == sorted(g.adjacency[v])
            for w in g.adjacency[v]:
                assert v in g.adjacency[w]


class TestDistances:
    def test_p4_end_to_end(self):
        assert all_pairs_distances(path(4)).d(0, 3) == 3

    def test_k4_all_ones(self):
        dist = all_pairs_distances(complete(4))
        assert all(dist.d(u, v) == 1 for u in range(4) for v in range(4) if u != v)

    def test_c6_entries(self):
        dist = all_pairs_distances(cycle(6))
        assert dist.d(0, 3) == 3
        assert dist.d(0, 4) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matrix_invariants_match_oracle(self, data):
        n = data.draw(st.integers(1, 50))
        max_m = n * (n - 1) // 2
        m = data.draw(st.integers(max(0, n - 1), max_m))
        g = random_connected(random.Random(data.draw(st.integers(0, 10**9))), n, m)
        dist = all_pairs_distances(g)
        rows = oracles.distance_rows(g.n, g.edges())
        for u in range(n):
            assert dist.d(u, u) == 0
            for v in range(n):
                assert dist.d(u, v) == rows[u][v]
                assert dist.d(u, v) == dist.d(v, u)
                assert (dist.d(u, v) == 1) == g.has_edge(u, v)
                for w in range(n):
                    assert dist.d(u, w) <= dist.d(u, v) + dist.d(v, w)

    def test_eccentricity(self):
        dist = all_pairs_distances(cycle(6))
        assert dist.eccentricity(0) == 3


class TestSetDistance:
    def test_star_center(self):
        assert eccentricity_of_set(all_pairs_distances(star(3)), {0}) == 1

    def test_p5_middle(self):
        assert eccentricity_of_set(all_pairs_distances(path(5)), {2}) == 2

    def test_c6_half(self):
        # farthest vertices 4 and 5 are one step from the arc {0..3}
        assert eccentricity_of_set(all_pairs_distances(cycle(6)), {0, 1, 2, 3}) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            eccentricity_of_set(all_pairs_distances(path(2)), set())
        with pytest.raises(ValueError):
            dist_to_set(all_pairs_distances(path(2)), 0, set())

    def test_dist_to_set(self):
        dist = all_pairs_distances(path(5))
        assert dist_to_set(dist, 4, {0, 1}) == 3
        assert dist_to_set(dist, 1, {1, 3}) == 0


class TestClosedNeighborhood:
    def test_zero_radius(self):
        assert closed_k_neighborhood(all_pairs_distances(path(3)), 1, 0) == (1,)

    def test_p5(self):
        assert closed_k_neighborhood(all_pairs_distances(path(5)), 2, 1) == (1, 2, 3)

    def test_c6(self):
        got = closed_k_neighborhood(all_pairs_distances(cycle(6)), 0, 2)
        assert sorted(got) == [0, 1, 2, 4, 5]


class TestUniqueOrder:
    def test_p5(self):
        dist = all_pairs_distances(path(5))
        assert unique_order(dist, 0, {4, 2}) == (2, 4)

    def test_c6(self):
        dist = all_pairs_distances(cycle(6))
        assert unique_order(dist, 0, {2, 3}) == (2, 3)

    def test_c4_equidistant_pair(self):
        # both orders break the telescoping sum: 1 + 2 != 1
        assert unique_order(all_pairs_distances(cycle(4)), 0, {1, 3}) is None

    def test_start_included(self):
        dist = all_pairs_distances(path(5))
        assert unique_order(dist, 1, {1, 3, 4}) == (1, 3, 4)

    def test_small_catalog_against_enumeration(self, catalog7):
        # positive direction on n <= 5; the full n <= 7 sweep is an
        # acceptance criterion
        for n, edges in catalog7:
            if n > 5:
                continue
            g = Graph(n, edges)
            dist = all_pairs_distances(g)
            achieved = oracles.visit_orders(n, edges)
            for (s, members), orders in achieved.items():
                assert len(orders) == 1  # at most one visit order ever occurs
                assert unique_order(dist, s, members) == next(iter(orders))


class TestEnumeration:
    def test_k2_directed(self):
        g = path(2)
        got = list(enumerate_shortest_paths(g))
        assert sorted(got) == [(0,), (0, 1), (1,), (1, 0)]

    def test_k2_dedup(self):
        got = list(enumerate_shortest_paths(path(2), dedup=True))
        assert sorted(got) == [(0,), (0, 1), (1,)]

    def test_p3_contains_whole(self):
        assert (0, 1, 2) in set(enumerate_shortest_paths(path(3)))

    def test_c4_two_hop_count(self):
        got = [
            p
            for p in enumerate_shortest_paths(cycle(4), dedup=True)
            if len(p) == 3
        ]
        assert len(got) == 4

    def test_every_emitted_path_is_shortest_n6(self, catalog7):
        for n, edges in catalog7:
            if n > 6:
                continue
            g = Graph(n, edges)
            dist = all_pairs_distances(g)
            seen = set()
            for p in enumerate_shortest_paths(g, dist):
                assert len(set(p)) == len(p)
                assert is_shortest_path(g, dist, p)
                assert p not in seen  # exactly once each
                seen.add(p)
            want = set(oracles.all_shortest_paths(n, edges))
            assert seen == want

    def test_dedup_direction_canonical(self):
        for p in enumerate_shortest_paths(cycle(6), dedup=True):
            assert len(p) == 1 or p[0] < p[-1]

    def test_subdivision_count_bound(self):
        # graphs that are subdivisions of a small core cannot have many
        # shortest paths; the bound uses the core's trivial leaf cap
        from mesp.generators import gen_subdivided_core

        rng = random.Random(11)
        for _ in range(10):
            core_n = rng.randint(2, 5)
            core_m = rng.randint(core_n - 1, core_n * (core_n - 1) // 2)
            n = core_n + rng.randint(0, 30)
            g, info = gen_subdivided_core(core_n, core_m, n, rng)
            count = sum(1 for _ in enumerate_shortest_paths(g))
            leaf_cap = max(2, core_n)
            assert count <= 2 ** (4 * leaf_cap) * g.n**2


class TestPathChecks:
    def test_is_shortest_path(self):
        g = cycle(6)
        dist = all_pairs_distances(g)
        assert is_shortest_path(g, dist, (0, 1, 2, 3))
        assert not is_shortest_path(g, dist, (0, 1, 2, 3, 4))  # d(0,4)=2
        assert not is_shortest_path(g, dist, (0, 2))  # not adjacent
        assert is_shortest_path(g, dist, (4,))

    def test_path_eccentricity(self):
        dist = all_pairs_distances(cycle(6))
        assert eccentricity_of_set(dist, (0, 1, 2, 3)) == 1
        assert eccentricity_of_set(dist, (0,)) == 3
        assert path_within_ecc(dist, (0, 1, 2, 3), 1)
        assert not path_within_ecc(dist, (0, 1, 2, 3), 0)

    def test_witness(self):
        g = cycle(6)
        dist = all_pairs_distances(g)
        w = PathWitness((0, 1, 2, 3))
        assert w.length == 3
        assert w.endpoints == (0, 3)
        assert w.is_valid(g, dist)
        assert w.eccentricity(dist) == 1
        assert not PathWitness((0, 1, 2, 3, 4)).is_valid(g, dist)


class TestParsing:
    def test_edge_list(self):
        g = parse_graph("# comment\n3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_dimacs(self):
        g = parse_graph("c comment\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        assert g.n == 4 and sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3\n0 1\n")

    def test_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")

    def test_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph("\n# nothing\n")

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n0 x\n")
