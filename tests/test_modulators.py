"""Modulator finders and the modular decomposition tree."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesp.modulators
from mesp import (
    CLUSTER,
    DISJOINT_PATHS,
    Graph,
    MDNode,
    Modulator,
    minimum_cluster_modulator,
    minimum_disjoint_paths_modulator,
    modular_decomposition,
    modular_width,
    modulator_is_valid,
)
from mesp.cli import main
from mesp.generators import gen_cluster_plus_p, gen_subdivided_core, gen_substitution
from mesp.modulators import _first_p3

import oracles
from mdtree import expand_mdtree, mdtree_to_sexpr
from smallgraphs import connected_catalog, edges_of
from test_graph import complete, cycle, path, random_connected
from test_solvers import paths_plus_c


def _random_graph(rng, lo=5, hi=9):
    n = rng.randint(lo, hi)
    return random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))


PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


class TestClusterModulator:
    def test_complete_graph_needs_nothing(self):
        mod = minimum_cluster_modulator(complete(4), 0)
        assert mod is not None and mod.vertices == frozenset()

    def test_p4_internal_vertex(self):
        mod = minimum_cluster_modulator(path(4), 1)
        assert mod is not None
        assert mod.vertices in (frozenset({1}), frozenset({2}))

    def test_paw(self):
        mod = minimum_cluster_modulator(PAW, 1)
        assert mod is not None and mod.vertices == frozenset({0})

    def test_budget_too_small(self):
        # P4 has an induced P3, so the empty set never works
        assert minimum_cluster_modulator(path(4), 0) is None

    def test_minimum_with_cap(self):
        assert minimum_cluster_modulator(path(7), cap=0) is None
        mod = minimum_cluster_modulator(path(7))
        assert mod is not None and mod.size == 2

    def test_minimality_small_catalog(self):
        for n in range(1, 7):
            for adj in connected_catalog(n):
                edges = edges_of(adj)
                g = Graph(n, edges)
                mod = minimum_cluster_modulator(g)
                assert mod is not None
                assert modulator_is_valid(g, mod)
                assert mod.size == oracles.min_modulator_size(n, edges, "cluster")

    def test_minimality_random(self):
        rng = random.Random(11)
        for _ in range(60):
            g = _random_graph(rng)
            mod = minimum_cluster_modulator(g)
            assert modulator_is_valid(g, mod)
            assert mod.size == oracles.min_modulator_size(g.n, g.edges(), "cluster")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_first_p3_matches_the_scan(self, data):
        n = data.draw(st.integers(1, 14))
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        removed = data.draw(st.integers(0, (1 << n) - 1))
        want = oracles.first_p3(oracles.adjacency(n, g.edges()), set(_mask_verts(removed)))
        assert _first_p3(g, removed) == want


@pytest.mark.parametrize("kind", [CLUSTER, DISJOINT_PATHS])
def test_budgets_share_one_scan_per_removed_set(kind, monkeypatch):
    scanned = []
    rule = mesp.modulators._BRANCHES[kind]

    def counted(graph, removed):
        scanned.append(removed)
        return rule(graph, removed)

    monkeypatch.setitem(mesp.modulators._BRANCHES, kind, counted)
    rng = random.Random(12)
    for _ in range(30):
        if kind == CLUSTER:
            g, _ = gen_cluster_plus_p(rng.randint(8, 20), rng.randint(2, 4), rng)
            find, ok = minimum_cluster_modulator, oracles.residual_cluster_ok
        else:
            g, _ = paths_plus_c(rng, longest=5)
            find, ok = minimum_disjoint_paths_modulator, oracles.residual_paths_ok
        scanned.clear()
        mod = find(g)
        assert len(scanned) == len(set(scanned))
        # the memo changes no answer: a valid modulator of minimum size
        assert ok(oracles.adjacency(g.n, g.edges()), set(mod.vertices))
        assert mod.size == oracles.min_modulator_size(g.n, g.edges(), kind)


class TestDisjointPathsModulator:
    def test_path_needs_nothing(self):
        mod = minimum_disjoint_paths_modulator(path(5), 0)
        assert mod is not None and mod.vertices == frozenset()

    def test_cycle_one_vertex(self):
        mod = minimum_disjoint_paths_modulator(cycle(5), 1)
        assert mod is not None and mod.size == 1
        assert modulator_is_valid(cycle(5), mod)

    def test_k4(self):
        assert minimum_disjoint_paths_modulator(complete(4), 1) is None
        mod = minimum_disjoint_paths_modulator(complete(4), 2)
        assert mod is not None and mod.size == 2

    def test_minimum_with_cap(self):
        assert minimum_disjoint_paths_modulator(complete(5), cap=2) is None
        mod = minimum_disjoint_paths_modulator(complete(5))
        assert mod is not None and mod.size == 3

    def test_minimality_small_catalog(self):
        for n in range(1, 7):
            for adj in connected_catalog(n):
                edges = edges_of(adj)
                g = Graph(n, edges)
                mod = minimum_disjoint_paths_modulator(g)
                assert mod is not None
                assert modulator_is_valid(g, mod)
                assert mod.size == oracles.min_modulator_size(n, edges, "paths")

    def test_minimality_random(self):
        rng = random.Random(12)
        for _ in range(60):
            g = _random_graph(rng)
            mod = minimum_disjoint_paths_modulator(g)
            assert modulator_is_valid(g, mod)
            assert mod.size == oracles.min_modulator_size(g.n, g.edges(), "paths")


class TestResidualPredicates:
    def test_agree_with_oracle(self):
        rng = random.Random(13)
        for _ in range(80):
            g = _random_graph(rng, 3, 7)
            adj = oracles.adjacency(g.n, g.edges())
            for size in range(g.n + 1):
                for sub in map(frozenset, combinations(range(g.n), size)):
                    assert modulator_is_valid(
                        g, Modulator(CLUSTER, sub)
                    ) == oracles.residual_cluster_ok(adj, set(sub))
                    assert modulator_is_valid(
                        g, Modulator(DISJOINT_PATHS, sub)
                    ) == oracles.residual_paths_ok(adj, set(sub))

    @pytest.mark.parametrize("kind", [CLUSTER, DISJOINT_PATHS])
    def test_outside_vertex_is_invalid(self, kind):
        # deleting every third vertex of a path leaves disjoint edges
        g, every_third = path(20), frozenset(range(2, 20, 3))
        assert modulator_is_valid(g, Modulator(kind, every_third))
        for bad in (20, 99, -1):
            assert not modulator_is_valid(g, Modulator(kind, every_third | {bad}))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Modulator("chordal", frozenset())


class TestModularDecomposition:
    def test_k3_is_join_of_leaves(self):
        t = modular_decomposition(complete(3))
        assert t.kind == "join"
        assert sorted(ch.kind for ch in t.children) == ["leaf"] * 3
        assert modular_width(t) == 0

    def test_p4_is_prime(self):
        t = modular_decomposition(path(4))
        assert t.kind == "prime"
        assert len(t.children) == 4
        assert t.pattern.n == 4 and t.pattern.m == 3
        assert modular_width(t) == 4

    def test_c4_join_of_unions(self):
        t = modular_decomposition(cycle(4))
        assert t.kind == "join"
        assert sorted(ch.kind for ch in t.children) == ["union", "union"]
        for ch in t.children:
            assert len(ch.children) == 2

    def test_c5_width(self):
        assert modular_width(modular_decomposition(cycle(5))) == 5

    def test_singleton(self):
        t = modular_decomposition(Graph(1, []))
        assert t.kind == "leaf" and t.vertex == 0

    def test_module_predicate_and_reexpansion(self, catalog7):
        for n, edges in catalog7:
            g = Graph(n, edges)
            t = modular_decomposition(g)
            _check_tree(g, t)
            assert expand_mdtree(t) == set(g.edges()), (n, edges)

    def test_children_match_oracle_catalog(self, catalog7):
        for n, edges in catalog7:
            g = Graph(n, edges)
            _check_children_oracle(g, modular_decomposition(g))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_children_match_oracle_drawn(self, data):
        n = data.draw(st.integers(1, 10))
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        if data.draw(st.booleans()):
            g, _ = gen_substitution(n, 6, rng)
        else:
            g = random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        _check_children_oracle(g, modular_decomposition(g))

    def test_sexpr(self):
        t = MDNode(
            "join",
            children=(
                MDNode("leaf", vertex=0),
                MDNode("union", children=(MDNode("leaf", vertex=1), MDNode("leaf", vertex=2))),
            ),
        )
        assert mdtree_to_sexpr(t) == "(join (leaf 0) (union (leaf 1) (leaf 2)))"

    def test_width_zero_iff_cograph(self):
        # joins/unions only: complement-reducible graphs
        assert modular_width(modular_decomposition(complete(6))) == 0
        diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert modular_width(modular_decomposition(diamond)) == 0
        assert modular_width(modular_decomposition(cycle(6))) == 6


def threshold_graph(n: int) -> Graph:
    """Vertex i joined to every earlier vertex for odd i: a cograph whose
    decomposition tree is about n levels deep."""
    return Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


# SHA-256 of mdtree_to_sexpr(modular_decomposition(g)) at benchmark sizes: a
# change to any tree or to the order of any node's children fails here
PINNED_TREES = [
    (
        "subdivided-core-150",
        lambda: gen_subdivided_core(10, 12, 150, random.Random(150))[0],
        "5b874da715b001bb9bb2464d43c8be068fa64aaec272da67cc0077e5759b229a",
    ),
    (
        "subdivided-core-255",
        lambda: gen_subdivided_core(10, 12, 255, random.Random(255))[0],
        "e8cd1be42e6492ec271aa3f82964ee3d1b7ede669bf2cdd5a5e62b414864dc40",
    ),
    (
        "substitution-200",
        lambda: gen_substitution(200, 6, random.Random(200))[0],
        "5e7a96bd845eaef238378a5730a3253f5baa048be094b17de3e3c09fc0058264",
    ),
    (
        "substitution-300",
        lambda: gen_substitution(300, 6, random.Random(300))[0],
        "1fcedb13542c600ba298a3cdc14c587f36c1cbdd5fe303fe662d3db6df733b7c",
    ),
    (
        "cluster-plus-p-120-4",
        lambda: gen_cluster_plus_p(120, 4, random.Random(120))[0],
        "d8f1774391fdf75d810992e6351378b375d25695cd6f5fe770002af6aae680d8",
    ),
    (
        "threshold-600",
        lambda: threshold_graph(600),
        "7b6b1251ef7aa39ebdd1f7bf908cefc504837bdf54d61e6c9bd3b594fccdc540",
    ),
]


@pytest.mark.parametrize(
    "build, digest", [t[1:] for t in PINNED_TREES], ids=[t[0] for t in PINNED_TREES]
)
def test_pinned_tree(build, digest):
    sexpr = mdtree_to_sexpr(modular_decomposition(build()))
    assert hashlib.sha256(sexpr.encode()).hexdigest() == digest


class TestDeepTree:
    def test_threshold_graph(self, tmp_path, capsys):
        g = threshold_graph(600)
        tree = modular_decomposition(g)
        assert modular_width(tree) == 0
        assert mdtree_to_sexpr(tree).count("(leaf ") == 600
        assert expand_mdtree(tree) == set(g.edges())

        f = tmp_path / "threshold.txt"
        f.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
        assert main(["solve", str(f), "--k", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes"


def _check_tree(g: Graph, node: MDNode) -> None:
    if node.kind == "leaf":
        return
    assert len(node.children) >= 2
    adj = oracles.adjacency(g.n, g.edges())
    masks = [ch.mask for ch in node.children]
    inside = node.mask
    for mk, ch in zip(masks, node.children):
        assert oracles.is_module(adj, set(_mask_verts(mk))), mdtree_to_sexpr(node)
        _check_tree(g, ch)
    for i, j in combinations(range(len(masks)), 2):
        cross = any(
            g.has_edge(u, v)
            for u in _mask_verts(masks[i])
            for v in _mask_verts(masks[j])
        )
        if node.kind == "union":
            assert not cross
        elif node.kind == "join":
            all_cross = all(
                g.has_edge(u, v)
                for u in _mask_verts(masks[i])
                for v in _mask_verts(masks[j])
            )
            assert all_cross
    if node.kind == "prime":
        p = node.pattern
        assert p is not None and p.n == len(node.children) >= 3
        assert 0 < p.m < p.n * (p.n - 1) // 2
    assert inside.bit_count() == sum(mk.bit_count() for mk in masks)


def _check_children_oracle(g: Graph, root: MDNode) -> None:
    """Children of every node against independent enumerations: the
    components, the co-components, or the maximal proper modules of the
    node's vertex set.  A split into modules that are too fine fails here."""
    edges = list(g.edges())
    non_edges = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.kind == "leaf":
            continue
        members = set(_mask_verts(node.mask))
        if node.kind == "union":
            want = {frozenset(c) for c in oracles.components(g.n, edges, members)}
        elif node.kind == "join":
            want = {frozenset(c) for c in oracles.components(g.n, non_edges, members)}
        else:
            want = oracles.maximal_proper_modules(g.n, edges, members)
        got = {frozenset(_mask_verts(ch.mask)) for ch in node.children}
        assert got == want, (node.kind, mdtree_to_sexpr(node))


def _mask_verts(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1
