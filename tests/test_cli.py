"""Command-line interface: exit codes, reports, verify, bench tables."""

import csv
import io
import json

import pytest

from mesp.cli import graph_digest, main
from mesp import Graph


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
        assert report["digest"] == graph_digest(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))

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
        assert rows[0]["oracle_agrees"] is True

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


class TestFailures:
    def test_crash_is_not_a_no(self, c6_file, capsys, monkeypatch):
        def crash(query, time_limit=None):
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
