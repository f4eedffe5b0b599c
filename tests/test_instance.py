"""The prepared instance and the one dispatch: exact at every k, and each
structural parameter built at most once per instance."""

import json
import random

import pytest

import mesp.solvers
from mesp import SOLVER_NAMES, Instance, MespQuery, decide, solve_bruteforce
from mesp.cli import main
from mesp.generators import gen_cluster_plus_p, gen_subdivided_core, gen_substitution

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


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of each structural-parameter builder, counted where Instance
    looks them up."""
    counts = {}
    for name in (
        "modular_decomposition",
        "minimum_cluster_modulator",
        "minimum_disjoint_paths_modulator",
    ):
        original = getattr(mesp.solvers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mesp.solvers, name, counted)
    return counts


def test_minimize_builds_each_parameter_once(build_counts, tmp_path, capsys):
    graph, _ = gen_subdivided_core(6, 8, 40, random.Random(2))
    f = tmp_path / "g.txt"
    f.write_text(f"{graph.n} {graph.m}\n" + "".join(f"{a} {b}\n" for a, b in graph.edges()))
    assert main(["solve", "--minimize", "--json", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["k_star"] >= 1
    assert build_counts == {
        "modular_decomposition": 1,
        "minimum_cluster_modulator": 1,
        "minimum_disjoint_paths_modulator": 1,
    }


# seed 8 gives both graphs ecc(0) >= 4, so the search makes several probes
@pytest.mark.parametrize("family, spec", [("substitution", "30:5"), ("cluster-plus-p", "30:2")])
def test_bench_row_builds_each_parameter_once(build_counts, capsys, family, spec):
    argv = ["bench", "--family", family, "--sizes", spec, "--seed", "8", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["error"] == ""
    assert build_counts and all(count == 1 for count in build_counts.values())
