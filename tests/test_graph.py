"""Graph core: construction, distances, orders, path enumeration."""

import random
from itertools import accumulate, combinations
from operator import or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesp.solvers
from mesp import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    Instance,
    PathWitness,
    all_pairs_distances,
    eccentricity_of_set,
    enumerate_shortest_paths,
    is_shortest_path,
    parse_graph,
    unique_order,
)
from mesp.generators import gen_cluster_plus_p, gen_subdivided_core, gen_substitution
from mesp.graph import _bits, components

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


@st.composite
def written_graphs(draw):
    """Text of a random connected graph with n <= 40, as an edge list with
    blank lines, ``#`` comments, extra spaces and tabs, or as DIMACS with
    ``c`` lines; edges in random order and orientation."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    rng = random.Random(draw(st.integers(0, 10**9)))
    dimacs = draw(st.booleans())
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in random_connected(rng, n, m).edges()]
    rng.shuffle(edges)
    if dimacs:
        rows = [["p", "edge", n, m]] + [["e", u + 1, v + 1] for u, v in edges]
    else:
        rows = [[n, m]] + [[u, v] for u, v in edges]
    pad = ("", " ", "  ", "\t", " \t")
    out = []
    for row in rows:
        while rng.random() < 0.2:
            junk = rng.choice(["", "c 1 2" if dimacs else "# 1 2", "c" if dimacs else "#"])
            out.append(rng.choice(pad) + junk)
        sep = rng.choice([" ", "  ", "\t", " \t "])
        out.append(rng.choice(pad) + sep.join(map(str, row)) + rng.choice(pad))
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n"])


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
        assert all_pairs_distances(path(4)).rows[0][3] == 3

    def test_k4_all_ones(self):
        dist = all_pairs_distances(complete(4))
        assert all(dist.rows[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_c6_entries(self):
        dist = all_pairs_distances(cycle(6))
        assert dist.rows[0][3] == 3
        assert dist.rows[0][4] == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matrix_invariants_match_oracle(self, data):
        n = data.draw(st.integers(1, 50))
        max_m = n * (n - 1) // 2
        m = data.draw(st.integers(max(0, n - 1), max_m))
        g = random_connected(random.Random(data.draw(st.integers(0, 10**9))), n, m)
        dist = all_pairs_distances(g)
        rows = oracles.distance_rows(g.n, g.edges())
        d = dist.rows
        for u in range(n):
            assert d[u][u] == 0
            for v in range(n):
                assert d[u][v] == rows[u][v]
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.has_edge(u, v)
                for w in range(n):
                    assert d[u][w] <= d[u][v] + d[v][w]
        assert_matches_oracle(g, dist, rows)

    def test_eccentricity(self):
        dist = all_pairs_distances(cycle(6))
        assert dist.eccentricity(0) == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: gen_substitution(200, 6, rng),
            lambda rng: gen_subdivided_core(10, 12, 200, rng),
        ],
        ids=["substitution", "subdivided-core"],
    )
    def test_benchmark_sized_graphs_match_oracle(self, build):
        # n = 200: a dense graph of diameter 3 and a sparse one of diameter 71
        g, _ = build(random.Random(7))
        rows = oracles.distance_rows(g.n, g.edges())
        assert_matches_oracle(g, all_pairs_distances(g), rows, range(1, 4))

    def test_distances_past_a_byte_match_oracle(self):
        # diameter 299: levels around k = 255, past a byte, and at the
        # diameter itself
        g = path(300)
        rows = oracles.distance_rows(g.n, g.edges())
        assert_matches_oracle(g, all_pairs_distances(g), rows, (0, 1, 254, 255, 256, 299))


def complete_multipartite(rng, n):
    """K_{s_1, ..., s_t} on n vertices, t >= 2 parts when n >= 2: a join root."""
    part = [0] + [rng.randint(0, min(v, 3)) for v in range(1, n)]
    if n > 1 and not any(part):
        part[-1] = 1
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


SPLIT_FAMILIES = {
    "substitution": lambda rng, n: gen_substitution(n, 6, rng)[0],
    "cluster-plus-p": lambda rng, n: gen_cluster_plus_p(n, rng.randint(0, min(3, n)), rng)[0],
    "complete-multipartite": complete_multipartite,
    # mostly prime roots, some join
    "random": lambda rng, n: random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2)),
}


class TestSplitTable:
    """The table an Instance fills from the root split of its decomposition."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(SPLIT_FAMILIES)), st.integers(1, 40), st.integers(0, 10**9))
    @example("random", 1, 0)
    @example("random", 2, 0)
    def test_split_rows_match_oracle(self, family, n, seed):
        g = SPLIT_FAMILIES[family](random.Random(seed), n)
        with mock.patch.object(mesp.solvers, "all_pairs_distances", wraps=all_pairs_distances) as bfs:
            inst = Instance(g)
            root = inst.decomposition
            dist = inst.dist
        # a join or prime root fills the table with no BFS of g (only of the
        # quotient pattern); a single vertex is a leaf, filled by BFS
        split = all(call.args[0] is not g for call in bfs.call_args_list)
        assert split == (root.kind in ("join", "prime")) == (n > 1)
        rows = oracles.distance_rows(g.n, g.edges())
        assert_matches_oracle(g, dist, rows)
        by_bfs = all_pairs_distances(g)
        for k in range(max(map(max, rows)) + 1):
            assert dist.coverage_masks(k) == by_bfs.coverage_masks(k)

    def test_prime_roots_are_covered(self):
        kinds = {
            Instance(SPLIT_FAMILIES["random"](random.Random(seed), 12)).decomposition.kind
            for seed in range(20)
        }
        assert kinds == {"join", "prime"}


def assert_matches_oracle(g, dist, rows, ks=None):
    """Rows, eccentricities and coverage masks for each k in ``ks`` (every k
    from 0 to the diameter by default) agree with the oracle's ``rows``."""
    assert dist.rows == rows
    if ks is None:
        ks = range(max(map(max, rows)) + 1)
    for v in range(g.n):
        assert dist.eccentricity(v) == max(rows[v])
    for k in ks:
        want = [sum(1 << u for u in range(g.n) if row[u] <= k) for row in rows]
        assert dist.coverage_masks(k) == want


def split_table(g):
    """The table an Instance fills from g's root split (BFS for a leaf root)."""
    inst = Instance(g)
    inst.decomposition
    return inst.dist


LEVEL_FAMILIES = {
    "random": lambda rng, n: all_pairs_distances(
        random_connected(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)))
    ),
    "cycle": lambda rng, n: all_pairs_distances(cycle(n)),
    "subdivided-core": lambda rng, n: all_pairs_distances(gen_subdivided_core(5, 7, n, rng)[0]),
    "split": lambda rng, n: split_table(gen_substitution(n, 6, rng)[0]),
}


class TestCoverageLevels:
    """Each level of ``coverage_masks`` against the oracle's rows, asked for
    in random order: extending a cached level, building one below the
    cached floor, and a k past the largest eccentricity."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(LEVEL_FAMILIES)), st.integers(5, 60), st.integers(0, 10**9))
    @example("cycle", 520, 0)  # eccentricity 260, past a byte
    def test_levels_match_oracle_in_any_order(self, family, n, seed):
        rng = random.Random(seed)
        dist = LEVEL_FAMILIES[family](rng, n)
        rows = oracles.distance_rows(n, dist.graph.edges())
        # the vertices at each distance from v, ORed up: level k of v is
        # cumulative[v][min(k, ecc(v))]
        cumulative = []
        for row in rows:
            layers = [0] * (max(row) + 1)
            for u, d in enumerate(row):
                layers[d] |= 1 << u
            cumulative.append(list(accumulate(layers, or_)))
        ecc = [max(row) for row in rows]
        radius, diam = min(ecc), max(ecc)
        ks = rng.sample(range(diam + 1), min(diam + 1, 23)) + [diam + 1]
        rng.shuffle(ks)
        for k in ks:
            want = [c[min(k, len(c) - 1)] for c in cumulative]
            assert dist.coverage_masks(k) == want, k
        assert min(dist._cover) >= radius - (diam + 1) // 2


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


class TestClosedNeighborhood:
    """``coverage_masks(k)[v]`` is the closed k-neighbourhood of v."""

    def test_zero_radius(self):
        assert list(_bits(all_pairs_distances(path(3)).coverage_masks(0)[1])) == [1]

    def test_p5(self):
        assert list(_bits(all_pairs_distances(path(5)).coverage_masks(1)[2])) == [1, 2, 3]

    def test_c6(self):
        got = all_pairs_distances(cycle(6)).coverage_masks(2)[0]
        assert list(_bits(got)) == [0, 1, 2, 4, 5]

    def test_negative_radius_is_empty(self):
        assert all_pairs_distances(path(3)).coverage_masks(-1) == [0, 0, 0]


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
        assert not is_shortest_path(g, dist, ())  # empty
        assert not is_shortest_path(g, dist, (0, 1, 0))  # repeats a vertex
        assert not is_shortest_path(g, dist, (2, 2))

    def test_path_eccentricity(self):
        dist = all_pairs_distances(cycle(6))
        assert eccentricity_of_set(dist, (0, 1, 2, 3)) == 1
        assert eccentricity_of_set(dist, (0,)) == 3

    def test_witness(self):
        g = cycle(6)
        dist = all_pairs_distances(g)
        w = PathWitness((0, 1, 2, 3))
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

    @settings(max_examples=100, deadline=None)
    @given(written_graphs())
    def test_matches_line_reader(self, text):
        n, edges = oracles.read_graph(text)
        g = parse_graph(text)
        adj = oracles.adjacency(n, edges)
        assert (g.n, g.m) == (n, len(edges))
        assert g.adj_mask == [sum(1 << w for w in adj[v]) for v in range(n)]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("p graph 3 2\ne 1 2\ne 2 3\n", GraphFormatError),
            ("p edge 3 2\ne 1 2\nx 2 3\n", GraphFormatError),
            ("p edge 3 2\ne 1 2\ne 2 3 1\n", GraphFormatError),
            ("3 2\n0 1 2\n1 2\n", GraphFormatError),
            ("3 2\n0 1 2\n1\n", GraphFormatError),
            ("0 0\n", GraphFormatError),
            ("2 2\n0 0\n0 1\n", GraphFormatError),
            ("3 3\n0 1\n1 2\n0 1\n", GraphFormatError),
            ("3 3\n0 1\n1 2\n1 0\n", GraphFormatError),
            ("2 1\n0 2\n", GraphFormatError),
            ("3 2\n0 1\n-1 2\n", GraphFormatError),
            ("p edge 3 2\ne 0 1\ne 1 2\n", GraphFormatError),
            ("4 2\n0 1\n2 3\n", DisconnectedGraphError),
        ],
        ids=[
            "bad-dimacs-header", "non-e-dimacs-line", "dimacs-three-endpoints", "three-tokens",
            "misaligned", "n-not-positive", "loop", "duplicate", "reversed-duplicate",
            "out-of-range", "negative", "dimacs-vertex-0", "disconnected",
        ],
    )
    def test_malformed(self, text, error):
        # with test_bad_header, test_count_mismatch, test_empty and
        # test_non_integer, one case per malformed-input class
        with pytest.raises(error):
            parse_graph(text)

    @pytest.mark.parametrize(
        "n, edges",
        [(0, []), ("3", [(0, 1), (1, 2)]), (3, [(0, 1, 2)]), (3, [(0,)]), (3, [5]),
         (2, [("0", "1")]), (2, [(0.0, 1)])],
        ids=["n-zero", "n-str", "triple", "single", "int-edge", "str-ends", "float-end"],
    )
    def test_malformed_constructor_input(self, n, edges):
        with pytest.raises(GraphFormatError):
            Graph(n, edges)


class TestComponents:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_bfs_oracle(self, data):
        n = data.draw(st.integers(1, 20))
        density = data.draw(st.sampled_from([0.05, 0.15, 0.3, 0.6, 0.9]))
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        live = data.draw(st.integers(0, (1 << n) - 1))
        pairs = list(combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < density]
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        # complement masks as the modular decomposition builds them
        full = (1 << n) - 1
        co_adj = [full & ~a & ~(1 << v) for v, a in enumerate(adj)]
        co_edges = sorted(set(pairs) - set(edges))
        live_set = set(_bits(live))
        for masks, es in ((adj, edges), (co_adj, co_edges)):
            got = [list(_bits(comp)) for comp in components(masks, live)]
            assert got == oracles.components(n, es, live_set)
