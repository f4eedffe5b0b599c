"""The benchmark's tracer (``mespbench/spans.py``) still finds every function
it wraps, and traced ``solve`` runs record the layers it measures."""

import random
from pathlib import Path

import pytest

from mesp.cli import main
from mesp import Instance, minimize_k
from mesp.generators import gen_cluster_plus_p, gen_subdivided_core, gen_substitution

BENCH_DIR = Path(__file__).resolve().parents[1] / "mespbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    return spans


def test_every_target_resolves(spans):
    for owner, attr, _ in spans._TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def _traced(spans, tmp_path, graph, args):
    """Run ``mesp solve <file> *args`` on ``graph`` under a tracer; returns
    the exit code and the tracer."""
    f = tmp_path / "g.txt"
    f.write_text(f"{graph.n} {graph.m}\n" + "".join(f"{a} {b}\n" for a, b in graph.edges()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = tracer.operation(lambda: main(["solve", str(f), *args, "--json"]))
    finally:
        tracer.uninstall()
    return rc, tracer


def test_traced_minimize_records_layers(spans, tmp_path, capsys):
    graph, _ = gen_substitution(24, 6, random.Random(1))
    rc, tracer = _traced(spans, tmp_path, graph, ["--minimize"])
    capsys.readouterr()
    assert rc == 0
    assert tracer.counts["modulators.decomposition.calls"] == 1
    assert tracer.counts["graph.distances.calls"] >= 1
    assert tracer.counts["solvers.decisions"] >= 1


@pytest.mark.parametrize(
    "solver, graph",
    [
        ("cluster", gen_cluster_plus_p(40, 3, random.Random(0))[0]),
        ("paths", gen_subdivided_core(5, 6, 40, random.Random(0))[0]),
    ],
    ids=["cluster", "paths"],
)
def test_traced_forced_decision_records_set_cover(spans, tmp_path, capsys, solver, graph):
    """A forced guess-and-cover decision at k* passes its set cover through
    the wrapped bindings, so the tracer counts its DP calls and guesses."""
    k_star, _ = minimize_k(Instance(graph))
    rc, tracer = _traced(spans, tmp_path, graph, ["--k", str(k_star), "--solver", solver])
    capsys.readouterr()
    assert rc == 0
    assert tracer.counts["solvers.decisions"] == 1
    for name in ("csc.dp.calls", "solvers.csc_calls", "solvers.guesses"):
        assert tracer.counts[name] >= 1, name
