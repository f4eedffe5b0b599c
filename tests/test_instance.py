"""The prepared instance and the one dispatch: exact at every k, and each
structural parameter built at most once per instance."""

import json
import random
from itertools import combinations

import pytest

import mesp.solvers
from mesp import (
    SOLVER_NAMES,
    CapacityError,
    Graph,
    Instance,
    MespQuery,
    decide,
    minimize_k,
    minimum_cluster_modulator,
    minimum_disjoint_paths_modulator,
    modular_decomposition,
    modular_width,
    solve_bruteforce,
)
from mesp.cli import main
from mesp.generators import (
    gen_cluster_plus_p,
    gen_random_connected,
    gen_subdivided_core,
    gen_substitution,
)
from mesp.solvers import BRUTE_PATH_CAP, MODULATOR_CAP, SOLVE_BUDGET, _auto_choice

from test_solvers import paths_plus_c

# seeded structured families at n = 15-30, each with the solvers whose
# parameter stays small on it; forcing a modulator solver onto a family whose
# modulator is large (paths on cliques, cluster on subdivided edges) costs
# minutes per graph
FAMILIES = {
    "cluster-plus-p": (
        lambda rng: gen_cluster_plus_p(rng.randint(15, 30), rng.randint(1, 3), rng)[0],
        ("auto", "brute", "mw", "cluster"),
    ),
    "substitution": (
        lambda rng: gen_substitution(rng.randint(15, 30), 6, rng)[0],
        ("auto", "brute", "mw"),
    ),
    "subdivided-core": (
        lambda rng: gen_subdivided_core(6, 8, rng.randint(15, 30), rng)[0],
        ("auto", "brute", "mw", "paths"),
    ),
}


def test_every_solver_is_exercised():
    covered = {name for _, names in FAMILIES.values() for name in names}
    assert covered == set(SOLVER_NAMES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decide_matches_bruteforce(family):
    gen, names = FAMILIES[family]
    for seed in range(20):
        graph = gen(random.Random(seed))
        inst = Instance(graph)
        for k in range(inst.dist.eccentricity(0) + 1):
            want = solve_bruteforce(MespQuery(graph, inst.dist, k)).decision
            for name in names:
                got = decide(inst, k, name)
                assert got.decision == want, (family, seed, name, k)


def test_unknown_solver():
    with pytest.raises(ValueError):
        decide(Instance(gen_substitution(8, 6, random.Random(0))[0]), 1, "nope")


def test_bad_input_is_rejected_before_any_build(build_counts):
    inst = Instance(gen_substitution(250, 6, random.Random(3))[0])
    for solver in SOLVER_NAMES:
        with pytest.raises(ValueError, match="eccentricity"):
            decide(inst, -1, solver)
    with pytest.raises(ValueError, match="unknown solver"):
        decide(inst, 1, "bogus")
    with pytest.raises(ValueError, match="unknown solver"):
        minimize_k(inst, "bogus")
    # nothing was built: no table, no decomposition, no modulator search
    assert build_counts == {}
    assert inst._dist is None and inst._tree is None and not inst._modulators


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of each structural-parameter builder, and BFS distance tables
    built for the input graph (``all_pairs_distances``), counted where
    Instance looks them up.  A BFS of the quotient pattern at the root of a
    counted decomposition is not the input graph's, and is not counted."""
    counts = {}
    quotients = []

    def count(name):
        counts[name] = counts.get(name, 0) + 1

    for name in (
        "modular_decomposition",
        "minimum_cluster_modulator",
        "minimum_disjoint_paths_modulator",
    ):
        original = getattr(mesp.solvers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            count(_name)
            got = _original(*args, **kwargs)
            if _name == "modular_decomposition":
                quotients.append(got.pattern)
            return got

        monkeypatch.setattr(mesp.solvers, name, counted)

    bfs = mesp.solvers.all_pairs_distances

    def counted_bfs(graph):
        if not any(graph is pattern for pattern in quotients):
            count("all_pairs_distances")
        return bfs(graph)

    monkeypatch.setattr(mesp.solvers, "all_pairs_distances", counted_bfs)
    return counts


def _write(graph, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(f"{graph.n} {graph.m}\n" + "".join(f"{a} {b}\n" for a, b in graph.edges()))
    return str(f)


def _minimize_file(graph, tmp_path, capsys):
    assert main(["solve", "--minimize", "--json", _write(graph, tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["k_star"] >= 1


def test_minimize_builds_each_parameter_once(build_counts, tmp_path, capsys):
    # cycle rank 3: brute force costs 8 n^3, below mw's floor of 16 n^3 (G
    # and its complement are connected), so auto builds no parameter at all,
    # and the distances come from one BFS table
    _minimize_file(gen_subdivided_core(6, 8, 40, random.Random(2))[0], tmp_path, capsys)
    assert build_counts == {"all_pairs_distances": 1}


def test_minimize_builds_only_the_decomposition_when_dense(build_counts, tmp_path, capsys):
    # brute force is over budget and mw's 2^w n^3 <= 64 n^3 is below the n^4
    # floor of paths, so neither modulator is searched; the decomposition is
    # built before the distances, which come from its root split, not by BFS
    _minimize_file(gen_substitution(80, 6, random.Random(2))[0], tmp_path, capsys)
    assert build_counts == {"modular_decomposition": 1}


@pytest.mark.parametrize(
    "solver, build, modulator",
    [
        ("cluster", lambda rng: gen_cluster_plus_p(40, 2, rng)[0], "minimum_cluster_modulator"),
        ("paths", lambda rng: paths_plus_c(rng)[0], "minimum_disjoint_paths_modulator"),
    ],
)
def test_forced_decision_builds_no_decomposition(build_counts, tmp_path, capsys, solver, build, modulator):
    graph = build(random.Random(3))
    argv = ["solve", "--k", "1", "--solver", solver, "--json", _write(graph, tmp_path)]
    assert main(argv) in (0, 1)
    assert json.loads(capsys.readouterr().out)["solver"] == solver
    assert build_counts == {modulator: 1, "all_pairs_distances": 1}


# seed 8 gives both graphs ecc(0) >= 4, so the search makes several probes
@pytest.mark.parametrize("family, spec", [("substitution", "30:5"), ("cluster-plus-p", "30:2")])
def test_bench_row_builds_each_parameter_once(build_counts, capsys, family, spec):
    argv = ["bench", "--family", family, "--sizes", spec, "--seed", "8", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["error"] == ""
    assert build_counts and all(count == 1 for count in build_counts.values())


def _eager_params(graph):
    """Every parameter auto may price, each built unconditionally."""
    p = minimum_cluster_modulator(graph, MODULATOR_CAP)
    c = minimum_disjoint_paths_modulator(graph, MODULATOR_CAP)
    return {"mw": modular_width(modular_decomposition(graph)), "p": p and p.size, "c": c and c.size}


def _eager_choice(graph, params, k):
    """auto's pick and path cap, as the argmin over all four full prices."""
    n, n3 = graph.n, float(graph.n) ** 3
    w, p, c = params["mw"], params["p"], params["c"]
    prices = [(2.0 ** min(w, 400) * n3, 0, "mw"), (2.0 ** min(graph.m - n + 1, 400) * n3, 3, "brute")]
    if p is not None:
        prices.append((2.0 ** min(4 * p, 400) * max(p, 1) * float(n) ** 6, 1, "cluster"))
    if c is not None:
        cost = 2.0 ** min(5 * c, 400) * float(max(k, 1)) ** min(c, 60) * max(c, 1)
        prices.append((cost * float(n) ** 4, 2, "paths"))
    usable = [price for price in prices if price[0] <= SOLVE_BUDGET]
    if not usable:
        return "brute", BRUTE_PATH_CAP
    return min(usable)[2], None


def _paths_plus_4_apexes(rng):
    """10 paths of 20 vertices and a chain of 4 apexes; both ends and 4
    interior vertices of every path are joined to random apexes."""
    apexes = range(200, 204)
    edges = {(a - 1, a) for a in apexes[1:]}
    for first in range(0, 200, 20):
        edges.update((v, v + 1) for v in range(first, first + 19))
        for v in [first, first + 19, *rng.sample(range(first + 1, first + 19), 4)]:
            edges.add((v, rng.choice(apexes)))
    return Graph(204, sorted(edges))


def _apex_cliques(rng):
    """An apex joined to 8-14 attachment vertices, each leading to its own
    K4: a cluster modulator of size 1, and a quotient too wide for mw."""
    edges, nxt = [], 1
    for _ in range(rng.randint(8, 14)):
        attach, clique = nxt, range(nxt + 1, nxt + 5)
        nxt += 5
        edges += [(0, attach)] + [(attach, v) for v in clique] + list(combinations(clique, 2))
    return Graph(nxt, edges)


CHOICE_FAMILIES = {
    "substitution": lambda rng: gen_substitution(rng.randint(15, 60), 6, rng)[0],
    "subdivided-core": lambda rng: gen_subdivided_core(6, 8, rng.randint(15, 60), rng)[0],
    "cluster-plus-p": lambda rng: gen_cluster_plus_p(rng.randint(15, 40), rng.randint(1, 4), rng)[0],
    "random": lambda rng: gen_random_connected(
        n := rng.randint(8, 40), rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n)), rng
    ),
    "paths-plus-c": lambda rng: paths_plus_c(rng)[0],
    # the pick is paths at small k and the capped fallback above
    "paths-plus-4-apexes": _paths_plus_4_apexes,
    # every price over budget at every k
    "sparse-random": lambda rng: gen_random_connected(50, 100, rng),
    "apex-cliques": _apex_cliques,
}


@pytest.mark.parametrize("family", sorted(CHOICE_FAMILIES))
def test_auto_choice_is_the_eager_argmin(family):
    for seed in range(6):
        graph = CHOICE_FAMILIES[family](random.Random(seed))
        inst = Instance(graph)
        params = _eager_params(graph)
        for k in range(inst.dist.eccentricity(0) + 1):
            pick, priced, path_cap = _auto_choice(inst, k)
            assert (pick, path_cap) == _eager_choice(graph, params, k), (family, seed, k)
            assert priced == {key: params[key] for key in priced}, (family, seed, k)


# random and paths-plus-c graphs whose every price is over budget at some k;
# brute force needs at most about 60k paths per decision on each
OVER_BUDGET = [
    pytest.param(
        lambda n=n, m=m, seed=seed: gen_random_connected(n, m, random.Random(seed)),
        id=f"random-{n}-{m}-{seed}",
    )
    for n, m in ((50, 100), (80, 200), (100, 250), (150, 400))
    for seed in range(1, 5)
] + [pytest.param(lambda: _paths_plus_4_apexes(random.Random(2)), id="paths-plus-4")]


@pytest.mark.parametrize("build", OVER_BUDGET)
def test_over_budget_falls_back_to_capped_bruteforce(build):
    graph = build()
    inst = Instance(graph)
    k_star, witness = minimize_k(inst)
    assert k_star == minimize_k(Instance(graph, inst.dist), "brute")[0]
    assert witness.is_valid(graph, inst.dist) and witness.eccentricity(inst.dist) == k_star
    pick, _, path_cap = _auto_choice(inst, k_star)
    assert (pick, path_cap) == ("brute", BRUTE_PATH_CAP)


def test_dense_over_budget_reaches_the_path_cap():
    # 777k shortest paths: brute force would answer "no" only after all of them
    graph = gen_random_connected(200, 8000, random.Random(1))
    with pytest.raises(CapacityError):
        decide(Instance(graph), 0)


def test_minimize_brackets_by_the_radius():
    # a spider with legs of 2 from vertex 2: k* = radius = 2 < ecc(0) = 4, so
    # the search never probes the radius and the central vertex is the witness
    graph = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    inst = Instance(graph)
    assert inst.dist.eccentricity(0) == 4
    want = minimize_k(inst, "brute")[0]
    for solver in SOLVER_NAMES:
        k_star, witness = minimize_k(inst, solver)
        assert k_star == want == 2
        assert witness.is_valid(graph, inst.dist) and witness.eccentricity(inst.dist) <= 2
