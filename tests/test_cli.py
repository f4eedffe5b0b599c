"""Command-line interface: exit codes, reports, verify, bench tables."""

import csv
import hashlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesp import Graph
from mesp.cli import graph_digest, main
from mesp.generators import gen_substitution
from mesp.graph import DistanceMatrix


C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
P9 = "9 8\n" + "".join(f"{i} {i + 1}\n" for i in range(8))
C6_DIMACS = "c a six-cycle\np edge 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\n"


@pytest.fixture
def c6_file(tmp_path):
    f = tmp_path / "c6.txt"
    f.write_text(C6)
    return str(f)


@pytest.fixture
def p9_file(tmp_path):
    f = tmp_path / "p9.txt"
    f.write_text(P9)
    return str(f)


class TestSolve:
    def test_yes_exit_and_witness(self, c6_file, capsys):
        assert main(["solve", "--k", "1", c6_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes")
        assert len(out.splitlines()[1].split()[1:]) == 4

    def test_no_exit(self, c6_file, capsys):
        assert main(["solve", "--k", "0", c6_file]) == 1
        assert capsys.readouterr().out.startswith("no")

    def test_minimize_whole_path(self, p9_file, capsys):
        assert main(["solve", "--minimize", p9_file]) == 0
        out = capsys.readouterr().out
        assert "k* = 0" in out
        assert out.splitlines()[1] == "witness: 0 1 2 3 4 5 6 7 8"

    def test_json_report(self, c6_file, capsys):
        assert main(["solve", "--k", "1", "--json", "--solver", "brute", c6_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 6 and report["m"] == 6
        assert report["decision"] is True and report["k"] == 1
        assert report["k_star"] is None
        assert len(report["witness"]) == 4
        assert report["solver"] == "brute"
        assert report["counters"]["paths_checked"] > 0
        assert all(t >= 0 for t in report["timings"].values())
        # digests are pinned as literals, so a cheaper digest must keep the bytes
        assert report["digest"] == "206ebd20e94a3543"

    @pytest.mark.parametrize("solver", ["auto", "mw", "brute"])
    def test_distances_timing_covers_the_table(self, tmp_path, capsys, monkeypatch, solver):
        # the table is built on first read, inside the solve (by BFS for
        # brute, from the join root of K_{2,3} otherwise): its time must
        # still land in timings.distances and not in timings.solve
        bfs, split = DistanceMatrix.__init__, DistanceMatrix.from_split.__func__

        def slow_bfs(self, graph):
            time.sleep(0.05)
            bfs(self, graph)

        def slow_split(cls, *args):
            time.sleep(0.05)
            return split(cls, *args)

        monkeypatch.setattr(DistanceMatrix, "__init__", slow_bfs)
        monkeypatch.setattr(DistanceMatrix, "from_split", classmethod(slow_split))
        f = tmp_path / "k23.txt"
        f.write_text("5 6\n" + "".join(f"{a} {b}\n" for a in (0, 1) for b in (2, 3, 4)))
        assert main(["solve", "--minimize", "--json", "--solver", solver, str(f)]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert timings["distances"] >= 0.05 > timings["solve"]

    def test_digest_pinned(self):
        assert graph_digest(gen_substitution(60, 6, random.Random(7))[0]) == "f93bbf468f6fddfa"

    @pytest.mark.parametrize("low, high", [(2, 12), (97, 103), (997, 1003)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_digest_bytes(self, low, high, data):
        # n around 10, 100 and 1000, so vertex names change digit length
        n = data.draw(st.integers(low, high))
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randrange(2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        written = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        blob = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
        assert graph_digest(Graph(n, written)) == hashlib.sha256(blob.encode()).hexdigest()[:16]

    def test_every_solver_agrees(self, c6_file):
        for solver in ("auto", "brute", "mw", "cluster", "paths"):
            assert main(["solve", "--k", "1", "--solver", solver, c6_file]) == 0
            assert main(["solve", "--k", "0", "--solver", solver, c6_file]) == 1

    def test_dimacs_input(self, tmp_path):
        f = tmp_path / "c6.col"
        f.write_text(C6_DIMACS)
        assert main(["solve", "--k", "1", str(f)]) == 0

    def test_cap_mw_refusal(self, c6_file, capsys):
        # C6 is prime: width 6 exceeds a cap of 5
        assert main(["solve", "--k", "1", "--solver", "mw", "--cap-mw", "5", c6_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--k", "1", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("not a graph\n")
        assert main(["solve", "--k", "1", str(f)]) == 2

    def test_negative_k(self, c6_file, capsys):
        assert main(["solve", "--k", "-1", c6_file]) == 2

    def test_usage_error(self, c6_file):
        assert main(["solve", c6_file]) == 2  # neither --k nor --minimize
        assert main(["frobnicate"]) == 2


class TestVerify:
    def test_true(self, c6_file, capsys):
        assert main(["verify", "--path", "0,1,2,3", "--k", "1", c6_file]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_not_shortest(self, c6_file, capsys):
        assert main(["verify", "--path", "0,1,2,3,4", "--k", "1", c6_file]) == 1
        assert capsys.readouterr().out.strip() == "false"
        assert main(["verify", "--path", "0,1,0", "--k", "3", c6_file]) == 1  # repeats 0
        assert capsys.readouterr().out.strip() == "false"

    def test_whole_path_k0(self, tmp_path, capsys):
        f = tmp_path / "p4.txt"
        f.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert main(["verify", "--path", "0 1 2 3", "--k", "0", str(f)]) == 0

    def test_json_fields(self, c6_file, capsys):
        assert main(["verify", "--path", "0,1,2,3", "--k", "1", "--json", c6_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_shortest_path"] is True
        assert report["eccentricity"] == 1
        assert report["valid"] is True

    def test_ecc_too_big(self, c6_file):
        assert main(["verify", "--path", "0,1", "--k", "1", c6_file]) == 1

    def test_malformed_witness(self, c6_file, capsys):
        assert main(["verify", "--path", "0,x,2", "--k", "1", c6_file]) == 2
        assert main(["verify", "--path", "0,9", "--k", "1", c6_file]) == 2
        assert main(["verify", "--path", "", "--k", "1", c6_file]) == 2


class TestBench:
    def test_cluster_family_csv(self, capsys):
        rc = main([
            "bench", "--family", "cluster-plus-p",
            "--sizes", "40:2", "--seed", "7",
        ])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["family"] == "cluster-plus-p" and row["spec"] == "40:2"
        assert row["n"] == "40"
        assert row["oracle_agrees"] == "True"
        assert float(row["solve_seconds"]) >= 0

    def test_substitution_family_json(self, capsys):
        rc = main([
            "bench", "--family", "substitution",
            "--sizes", "30:5", "--seed", "3", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["solver"] == "mw"
        assert rows[0]["oracle_agrees"] is True

    def test_subdivided_core_and_random(self, capsys):
        rc = main([
            "bench", "--family", "subdivided-core",
            "--sizes", "6:7:40", "--seed", "1", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["solver"] == "brute" and rows[0]["oracle_agrees"] == "skipped"

        rc = main(["bench", "--family", "random", "--sizes", "12:20", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["oracle_agrees"] is True

    def test_out_file(self, tmp_path):
        dest = tmp_path / "table.csv"
        rc = main([
            "bench", "--family", "random",
            "--sizes", "8:10", "10:12", "--out", str(dest),
        ])
        assert rc == 0
        rows = list(csv.DictReader(dest.open()))
        assert [r["spec"] for r in rows] == ["8:10", "10:12"]

    def test_seed_reproducible(self, capsys):
        args = ["bench", "--family", "random", "--sizes", "10:14", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        rows1 = list(csv.DictReader(io.StringIO(first)))
        rows2 = list(csv.DictReader(io.StringIO(second)))
        assert rows1[0]["digest"] == rows2[0]["digest"]
        assert rows1[0]["k_star"] == rows2[0]["k_star"]

    def test_bad_spec_fails_only_its_row(self, capsys):
        rc = main([
            "bench", "--family", "random",
            "--sizes", "10:14", "5:100", "10", "12:16", "--format", "json",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert [r["spec"] for r in rows] == ["10:14", "5:100", "10", "12:16"]
        assert [bool(r["error"]) for r in rows] == [False, True, True, False]
        assert "out of range" in rows[1]["error"] and "n:m" in rows[2]["error"]
        for row in rows[1:3]:
            assert row["digest"] is None and row["n"] is None and row["m"] is None
            assert row["k_star"] is None and row["solver"] == "auto"
        for row in (rows[0], rows[3]):
            assert row["oracle_agrees"] is True and row["n"] is not None
        assert "error: 5:100: m=100 out of range" in captured.err
        assert "error: 10: size spec '10' is not n:m" in captured.err

    def test_brute_row_skips_cross_check(self, capsys, monkeypatch):
        # the cross-check would repeat the enumeration the row just ran
        import mesp.cli

        def not_called(*args, **kwargs):
            raise AssertionError("a brute row re-ran brute force")

        monkeypatch.setattr(mesp.cli, "solve_bruteforce", not_called)
        rc = main([
            "bench", "--family", "subdivided-core",
            "--sizes", "6:7:40", "--seed", "1", "--format", "csv",
        ])
        assert rc == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["solver"] == "brute" and row["error"] == ""
        assert row["oracle_agrees"] == "skipped" and row["k_star"] != ""

    def test_cross_check_timeout_is_recorded(self, capsys, monkeypatch):
        import mesp.cli
        from mesp import CapacityError

        def out_of_time(query, time_limit=None, path_cap=None):
            raise CapacityError(f"enumeration exceeded time limit {time_limit}s")

        monkeypatch.setattr(mesp.cli, "solve_bruteforce", out_of_time)
        rc = main(["bench", "--family", "random", "--sizes", "12:20", "--format", "json"])
        assert rc == 0  # a timed-out cross-check is recorded, not an error
        row = json.loads(capsys.readouterr().out)[0]
        assert row["oracle_agrees"] == "timeout" and row["error"] == ""
        assert row["k_star"] is not None


class TestFailures:
    def test_crash_is_not_a_no(self, c6_file, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("mesp.solvers.solve_bruteforce", crash)
        assert main(["solve", "--k", "1", "--solver", "brute", c6_file]) == 2
        assert "error: RecursionError" in capsys.readouterr().err

    def test_bench_row_error_keeps_other_rows(self, capsys, monkeypatch):
        import mesp.cli
        from mesp import CapacityError

        original = mesp.cli.minimize_k
        calls = []

        def second_fails(inst, solver):
            calls.append(solver)
            if len(calls) == 2:
                raise CapacityError("no solver within budget")
            return original(inst, solver)

        monkeypatch.setattr(mesp.cli, "minimize_k", second_fails)
        rc = main([
            "bench", "--family", "random",
            "--sizes", "8:10", "10:12", "12:16", "--format", "json",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert [r["spec"] for r in rows] == ["8:10", "10:12", "12:16"]
        assert [r["error"] for r in rows] == ["", "no solver within budget", ""]
        assert rows[0]["k_star"] is not None and rows[0]["oracle_agrees"] is True
        assert rows[1]["k_star"] is None
        assert "no solver within budget" in captured.err
