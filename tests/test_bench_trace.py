"""The benchmark's tracer (``mespbench/spans.py``) still finds every function
it wraps, and a traced ``solve --minimize`` records the layers it measures."""

import random
from pathlib import Path

import pytest

from mesp.cli import main
from mesp.generators import gen_substitution

BENCH_DIR = Path(__file__).resolve().parents[1] / "mespbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    return spans


def test_every_target_resolves(spans):
    for owner, attr, _ in spans._TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def test_traced_minimize_records_layers(spans, tmp_path, capsys):
    graph, _ = gen_substitution(24, 6, random.Random(1))
    f = tmp_path / "sub.txt"
    f.write_text(f"{graph.n} {graph.m}\n" + "".join(f"{a} {b}\n" for a, b in graph.edges()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = tracer.operation(lambda: main(["solve", "--minimize", "--json", str(f)]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.counts["modulators.decomposition.calls"] == 1
    assert tracer.counts["graph.distances.calls"] >= 1
    assert tracer.counts["solvers.decisions"] >= 1
