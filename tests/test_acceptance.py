"""Acceptance gate: one test per criterion, each printing a PASS line.

Budgets that the criteria state are asserted; suites without a stated budget
only assert exactness.
"""

import random
import time
from itertools import combinations

from mesp import (
    Candidate,
    CscInstance,
    Graph,
    MespQuery,
    all_pairs_distances,
    eccentricity_of_set,
    expand_mdtree,
    minimum_cluster_modulator,
    minimum_disjoint_paths_modulator,
    modular_decomposition,
    modulator_is_valid,
    solve_bruteforce,
    solve_csc,
    solve_csc_bruteforce,
    solve_distance_to_cluster,
    solve_distance_to_disjoint_paths,
    solve_modular_width,
    unique_order,
)
from mesp.generators import (
    gen_cluster_plus_p,
    gen_random_connected,
    gen_subdivided_core,
    gen_substitution,
)

import oracles
from test_modulators import _check_tree

INF = 10**9


def _pass(label, t0, extra=""):
    note = f" {extra}" if extra else ""
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - t0:.1f}s){note}")


def _lex_shortest_path(g, rows, a, b):
    path = [a]
    cur = a
    while cur != b:
        cur = min(w for w in g.adjacency[cur] if rows[w][b] == rows[cur][b] - 1)
        path.append(cur)
    return path


def _d_set(rows, v, S):
    return min((rows[v][s] for s in S), default=INF)


def _all_solver_checks(g, dist, tree, cmod, pmod, k, label):
    q = MespQuery(g, dist, k)
    want = solve_bruteforce(q).decision
    assert solve_modular_width(q, tree).decision == want, (label, k, "mw")
    assert solve_distance_to_cluster(q, cmod).decision == want, (label, k, "cluster")
    assert solve_distance_to_disjoint_paths(q, pmod).decision == want, (label, k, "paths")


def test_c1_oracle_equivalence_exhaustive(catalog7):
    t0 = time.perf_counter()
    checks = 0
    for n, edges in catalog7:
        g = Graph(n, edges)
        dist = all_pairs_distances(g)
        tree = modular_decomposition(g)
        cmod = minimum_cluster_modulator(g)
        pmod = minimum_disjoint_paths_modulator(g)
        diam = max(dist.eccentricity(v) for v in range(n))
        for k in range(diam + 1):
            _all_solver_checks(g, dist, tree, cmod, pmod, k, edges)
            checks += 1
    assert len(catalog7) >= 850
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _pass("criterion 1 exhaustive oracle equivalence n<=7", t0,
          f"{len(catalog7)} graphs, {checks} (graph,k) checks")


def test_c2_oracle_equivalence_randomized():
    t0 = time.perf_counter()
    rng = random.Random(20901)
    for trial in range(1000):
        n = rng.randint(8, 14)
        mmax = n * (n - 1) // 2
        density = trial / 999
        m = n - 1 + round(density * (mmax - (n - 1)))
        g = gen_random_connected(n, m, rng)
        dist = all_pairs_distances(g)
        tree = modular_decomposition(g)
        cmod = minimum_cluster_modulator(g)
        pmod = minimum_disjoint_paths_modulator(g)
        diam = max(dist.eccentricity(v) for v in range(n))
        for k in range(diam + 1):
            _all_solver_checks(g, dist, tree, cmod, pmod, k, (trial, m))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _pass("criterion 2 randomized oracle equivalence n in [8,14]", t0,
          "1000 graphs, all k")


def test_c3_csc_against_bruteforce():
    t0 = time.perf_counter()
    rng = random.Random(30303)
    feasible = 0
    for _ in range(10_000):
        r = rng.randint(0, 8)
        m = rng.randint(0, 5)
        inst = CscInstance(
            r,
            tuple(
                tuple(
                    Candidate(payload=None, mask=rng.randrange(1 << r))
                    for _ in range(rng.randint(1, 4))
                )
                for _ in range(m)
            ),
        )
        sol = solve_csc(inst)
        brute = solve_csc_bruteforce(inst)
        assert (sol is None) == (brute is None)
        if sol is not None:
            assert sol.covered_mask(inst) == (1 << r) - 1
            assert brute.covered_mask(inst) == (1 << r) - 1
            feasible += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _pass("criterion 3 set-cover DP vs brute force", t0,
          f"10000 instances, {feasible} feasible")


def test_c4_order_uniqueness_suite(catalog7):
    t0 = time.perf_counter()
    for n, edges in catalog7:
        g = Graph(n, edges)
        dist = all_pairs_distances(g)
        achieved: dict = {}
        for p in oracles.all_shortest_paths(n, edges):
            for size in range(1, len(p) + 1):
                for sub in combinations(p, size):
                    key = (p[0], frozenset(sub))
                    achieved.setdefault(key, set()).add(
                        tuple(v for v in p if v in sub)
                    )
        verts = range(n)
        for s in verts:
            for size in range(1, n + 1):
                for sub in combinations(verts, size):
                    got = unique_order(dist, s, sub)
                    orders = achieved.get((s, frozenset(sub)))
                    if orders is None:
                        assert got is None, (edges, s, sub)
                    else:
                        assert len(orders) == 1, (edges, s, sub)
                        assert got == next(iter(orders)), (edges, s, sub)
    _pass("criterion 4 visit-order uniqueness n<=7", t0)


def test_c5_modulator_minimality(catalog7, catalog8):
    t0 = time.perf_counter()
    for n, edges in list(catalog7) + list(catalog8):
        g = Graph(n, edges)
        for kind, minimum in (
            ("cluster", minimum_cluster_modulator),
            ("paths", minimum_disjoint_paths_modulator),
        ):
            mod = minimum(g)
            assert modulator_is_valid(g, mod), (edges, kind)
            assert mod.size == oracles.min_modulator_size(n, edges, kind), (edges, kind)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _pass("criterion 5 modulator minimality n<=8", t0,
          f"{len(catalog7) + len(catalog8)} graphs, both finders")


def test_c6_decomposition_soundness(catalog7):
    t0 = time.perf_counter()
    for n, edges in catalog7:
        g = Graph(n, edges)
        tree = modular_decomposition(g)
        _check_tree(g, tree)
        assert expand_mdtree(tree) == set(g.edges()), edges
    _pass("criterion 6 decomposition-tree soundness n<=7", t0)


def test_c7_structural_spot_suite():
    t0 = time.perf_counter()
    rng = random.Random(70707)

    # distance-estimate equality on cluster-modulated instances
    for _ in range(500):
        n = rng.randint(8, 24)
        g, mod = gen_cluster_plus_p(n, rng.randint(1, min(4, n)), rng)
        U = set(mod.vertices)
        rows = all_pairs_distances(g).rows
        P = _lex_shortest_path(g, rows, rng.choice(sorted(U)), rng.randrange(n))
        pset = set(P)
        L = pset & U
        R1 = {u for u in U if _d_set(rows, u, pset) == 1}
        R2 = {u for u in U if _d_set(rows, u, pset) == 2}

        def delta(u):
            return min(
                _d_set(rows, u, L), _d_set(rows, u, R1) + 1, _d_set(rows, u, R2) + 2
            )

        for u in U:
            assert delta(u) == _d_set(rows, u, pset), ("estimate/U", u)
        for v in range(n):
            if v in U:
                continue
            kept = [w for w in pset if w in U or (w != v and not g.has_edge(v, w))]
            assert delta(v) == _d_set(rows, v, kept), ("estimate/V", v)

    # lower-bound estimate and off-path count on disjoint-paths instances
    for _ in range(500):
        n = rng.randint(6, 16)
        g = gen_random_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        dist = all_pairs_distances(g)
        rows = dist.rows
        C = set(minimum_disjoint_paths_modulator(g).vertices)
        P = _lex_shortest_path(g, rows, rng.randrange(n), rng.randrange(n))
        pset = set(P)
        chat = C | {P[0], P[-1]}
        dlt = {s: _d_set(rows, s, pset) for s in chat}
        est = [min(rows[v][s] + dlt[s] for s in chat) for v in range(n)]
        for v in range(n):
            assert _d_set(rows, v, pset) <= est[v], ("lower bound", v)
        k = eccentricity_of_set(dist, tuple(P))
        over = [v for v in range(n) if v not in pset and est[v] > k]
        assert len(over) <= 2 * (len(pset & chat) - 1), ("off-path count", over)

    # some optimal path uses at most one vertex per root module
    done = 0
    while done < 500:
        n = rng.randint(4, 7)
        g, _bound = gen_substitution(n, max(4, min(n, 7)), rng)
        tree = modular_decomposition(g)
        if tree.kind != "prime":
            continue
        edges = list(g.edges())
        rows = oracles.distance_rows(n, edges)
        paths = oracles.all_shortest_paths(n, edges)
        best = min(oracles.path_ecc(rows, p) for p in paths)
        masks = [ch.vertex_mask() for ch in tree.children]
        for p in paths:
            if oracles.path_ecc(rows, p) != best:
                continue
            pm = 0
            for v in p:
                pm |= 1 << v
            if all((pm & mk).bit_count() <= 1 for mk in masks):
                break
        else:
            raise AssertionError(("one-per-module", edges, best))
        done += 1

    _pass("criterion 7 structural spot-suite", t0, "500 instances per check")


def test_c8_performance_smoke():
    t0 = time.perf_counter()
    rng = random.Random(80808)
    notes = []

    def search_k_star(g, decide):
        dist = all_pairs_distances(g)
        lo, hi = 0, dist.eccentricity(0)
        while lo < hi:
            mid = (lo + hi) // 2
            if decide(MespQuery(g, dist, mid)).decision:
                hi = mid
            else:
                lo = mid + 1
        return lo, dist

    def brute_compare(g, dist, k_star, t_solve, label):
        budget = max(0.5, 10.0 * t_solve)
        try:
            t1 = time.perf_counter()
            assert solve_bruteforce(MespQuery(g, dist, k_star), time_limit=budget).decision
            if k_star > 0:
                assert not solve_bruteforce(
                    MespQuery(g, dist, k_star - 1), time_limit=budget
                ).decision
            notes.append(f"{label}: brute agrees in {time.perf_counter() - t1:.2f}s")
        except Exception as exc:
            from mesp import CapacityError

            if not isinstance(exc, CapacityError):
                raise
            notes.append(f"{label}: brute timeout (> {budget:.2f}s, >10x slower)")

    # cluster family: n=100, p<=3
    g, mod = gen_cluster_plus_p(100, 3, rng)
    t1 = time.perf_counter()
    k_star, dist = search_k_star(g, lambda q: solve_distance_to_cluster(q, mod))
    t_cluster = time.perf_counter() - t1
    assert t_cluster < 60, t_cluster
    brute_compare(g, dist, k_star, t_cluster, f"cluster n=100 p=3 k*={k_star}")

    # substitution family: n=200, pattern size <= 8
    g, _bound = gen_substitution(200, 8, rng)
    t1 = time.perf_counter()
    k_star, dist = search_k_star(g, solve_modular_width)
    t_mw = time.perf_counter() - t1
    assert t_mw < 10, t_mw
    brute_compare(g, dist, k_star, t_mw, f"substitution n=200 k*={k_star}")

    # subdivided-core family: core <= 10 vertices, n=500, plain enumeration
    g, _info = gen_subdivided_core(10, 12, 500, rng)
    t1 = time.perf_counter()
    k_star, dist = search_k_star(g, solve_bruteforce)
    t_core = time.perf_counter() - t1
    assert t_core < 60, t_core
    notes.append(f"subdivided-core n=500 k*={k_star}: enumeration {t_core:.2f}s")

    _pass("criterion 8 performance smoke", t0, "; ".join(notes))
