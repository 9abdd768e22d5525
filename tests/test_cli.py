import hashlib
import json
import os
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "ellnum"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc


class TestNp:
    def test_published_count_at_1009(self):
        proc = run_cli("np", "--curve", "0,0,1,-1,0", "--prime", "1009")
        assert proc.stdout.strip() == "1057"

    def test_published_count_at_113(self):
        proc = run_cli("np", "--curve", "0,0,1,-1,0", "--prime", "113")
        assert proc.stdout.strip() == "132"

    def test_bad_reduction_exits_2(self):
        proc = run_cli("np", "--curve", "0,0,1,-1,0", "--prime", "37", expect=2)
        assert "bad reduction" in proc.stderr

    def test_stamp_on_stderr(self):
        proc = run_cli("np", "--prime", "11")
        assert proc.stderr.startswith("# ellnum")
        assert "curve=0,0,1,-1,0" in proc.stderr
        assert "seed=0" in proc.stderr


class TestUsageErrors:
    def test_missing_required_flag(self):
        run_cli("np", expect=64)

    def test_unknown_flag(self):
        run_cli("np", "--prime", "5", "--bogus", expect=64)

    def test_unknown_command(self):
        run_cli("frobnicate", expect=64)

    def test_malformed_curve(self):
        run_cli("np", "--curve", "1,2", "--prime", "5", expect=64)

    @pytest.mark.parametrize("args", [("census", "--k", "2", "--x", "100"), ("verify-paper",)],
                             ids=lambda a: a[0])
    def test_budget_flag_is_gone(self, args, tmp_path):
        # the census works in slabs of n, with no product budget to set
        proc = run_cli(*args, "--budget", "10", "--cache", str(tmp_path), expect=64)
        assert "--budget" in proc.stderr and proc.stdout == ""


# Every subcommand's options, in the order it declares them: each takes only
# the options its handler reads (57 in all, -h aside).
OPTIONS = {
    "np": ["--curve", "--seed", "--prime"],
    "table": ["--curve", "--seed", "--cache", "--workers", "--format", "--limit", "--out"],
    "g1": ["--curve", "--seed", "--n"],
    "progressions": ["--curve", "--seed", "--format", "--lo", "--hi", "--min-mult"],
    "gk": ["--curve", "--seed", "--k", "--n", "--ordered"],
    "census": ["--curve", "--seed", "--cache", "--workers", "--format", "--k", "--x"],
    "moments": ["--curve", "--seed", "--cache", "--workers", "--format", "--x", "--bins"],
    "mertens": ["--curve", "--seed", "--cache", "--workers", "--x", "--a", "--b", "--epsilon"],
    "pied": ["--curve", "--seed", "--cache", "--workers", "--x", "--d"],
    "verify-paper": ["--curve", "--seed", "--cache", "--workers", "--extended"],
}


class TestOptions:
    def test_each_command_declares_only_what_it_reads(self):
        from ellnum.cli import build_parser

        (sub,) = (a for a in build_parser()._actions if a.dest == "command")
        got = {
            name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 57

    @pytest.mark.parametrize("args", [
        ("np", "--prime", "1009", "--cache", "x"),
        ("np", "--prime", "1009", "--workers", "2"),
        ("np", "--prime", "1009", "--format", "json"),
        ("g1", "--n", "624", "--cache", "x"),
        ("g1", "--n", "624", "--workers", "2"),
        ("g1", "--n", "624", "--format", "json"),
        ("progressions", "--lo", "600", "--hi", "700", "--cache", "x"),
        ("progressions", "--lo", "600", "--hi", "700", "--workers", "2"),
        ("gk", "--k", "3", "--n", "3360", "--cache", "x"),
        ("gk", "--k", "3", "--n", "3360", "--workers", "2"),
        ("gk", "--k", "3", "--n", "3360", "--format", "csv"),
        ("mertens", "--x", "1000", "--format", "json"),
        ("pied", "--x", "50", "--d", "1", "--format", "json"),
        ("verify-paper", "--format", "json"),
        ("g1", "--n", "624", "--format", "table-text"),
        ("census", "--k", "2", "--x", "100", "--format", "table-text"),
        ("moments", "--x", "100", "--format", "csv"),
    ], ids=lambda a: " ".join((a[0],) + a[-2:]))
    def test_an_option_a_command_does_not_read_is_a_usage_error(self, args, tmp_path, capsys, monkeypatch):
        from ellnum import cli

        monkeypatch.chdir(tmp_path)  # no table lands in the working directory
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (64, "") and "error:" in err
        assert os.listdir(tmp_path) == []

    def test_workers_stamped_only_where_taken(self, tmp_path, capsys):
        from ellnum import cli

        assert cli.main(["np", "--prime", "11"]) == 0
        assert cli.main(["pied", "--x", "50", "--d", "1", "--cache", str(tmp_path)]) == 0
        np_stamp, pied_stamp = capsys.readouterr().err.splitlines()
        assert np_stamp.endswith(" seed=0") and pied_stamp.endswith(" seed=0 workers=1")


class TestG1Command:
    def test_json_schema(self):
        proc = run_cli("g1", "--curve", "0,0,3,-1,2", "--n", "624")
        payload = json.loads(proc.stdout)
        assert payload == {"n": 624, "primes": [593, 619, 661], "multiplicity": 3}


class TestGkCommand:
    def test_published_sets_listed(self):
        proc = run_cli("gk", "--curve", "0,0,1,-1,0", "--k", "3", "--n", "3360")
        payload = json.loads(proc.stdout)
        assert payload["n"] == 3360 and payload["k"] == 3
        sols = [tuple(s) for s in payload["solutions"]]
        assert (2, 13, 43) in sols and (3, 5, 67) in sols
        assert payload["count"] == len(sols) >= 2

    def test_ordered_flag(self):
        proc = run_cli("gk", "--k", "3", "--n", "3360", "--ordered")
        payload = json.loads(proc.stdout)
        assert payload["ordered_count"] == 6 * payload["count"]


class TestProgressionsCommand:
    def test_range_with_row(self):
        proc = run_cli("progressions", "--curve", "0,0,3,-1,2", "--lo", "600",
                       "--hi", "700", "--min-mult", "3")
        payload = json.loads(proc.stdout)
        assert any(r["n"] == 624 for r in payload["records"])


class TestCensusCommand:
    def test_empty_census_csv(self):
        proc = run_cli("census", "--k", "3", "--x", "0", "--format", "csv")
        assert proc.stdout.strip() == "n,count"

    def test_summary_payload(self, tmp_path):
        proc = run_cli("census", "--k", "2", "--x", "5000", "--cache", str(tmp_path))
        payload = json.loads(proc.stdout)
        assert payload["k"] == 2 and payload["x"] == 5000
        assert payload["total_products"] > 0
        assert payload["max_count"] >= 1

    def test_repeated_runs_byte_identical(self, tmp_path):
        args = ("census", "--k", "2", "--x", "5000", "--seed", "7",
                "--cache", str(tmp_path), "--format", "csv")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


def test_json_output_builds_no_csv_lines(tmp_path, monkeypatch, capsys):
    from ellnum import cli
    from ellnum.search import CensusResult
    from ellnum.table import NpTable

    def refuse(self):
        raise AssertionError("csv lines built for json output")

    monkeypatch.setattr(CensusResult, "csv_lines", refuse)
    monkeypatch.setattr(NpTable, "__iter__", refuse)  # the table command's p,np lines iterate the table
    assert cli.main(["census", "--k", "2", "--x", "5000", "--cache", str(tmp_path)]) == 0
    assert cli.main(["table", "--limit", "100", "--cache", str(tmp_path)]) == 0
    census, table = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert census["k"] == 2 and census["total_products"] > 0
    assert table["entries"] == 24


class TestTableCommand:
    def test_build_and_cache(self, tmp_path):
        proc = run_cli("table", "--limit", "100", "--cache", str(tmp_path))
        payload = json.loads(proc.stdout)
        assert payload["entries"] == 24  # pi(100) = 25 minus the bad prime 37
        assert payload["bad_primes"] == [37]
        assert os.path.exists(tmp_path / "0_0_1_-1_0_100.ellnum")

    def test_csv_listing(self, tmp_path):
        proc = run_cli("table", "--limit", "10", "--format", "csv", "--cache", str(tmp_path))
        assert proc.stdout.splitlines() == ["p,np", "2,5", "3,7", "5,8", "7,9"]


class TestMomentsCommand:
    def test_schema(self, tmp_path):
        proc = run_cli("moments", "--x", "1000", "--cache", str(tmp_path))
        payload = json.loads(proc.stdout)
        for key in ("x", "pi_x", "n_good", "mean_omega", "m2", "m4",
                    "ratio2", "ratio2_alt", "ratio4"):
            assert key in payload
        assert payload["pi_x"] == 168

    def test_histogram_csv(self, tmp_path):
        proc = run_cli("moments", "--x", "1000", "--bins", "5",
                       "--cache", str(tmp_path), "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "bin_left,bin_right,mass"
        assert len(lines) == 6


class TestMertensCommand:
    def test_default_band(self, tmp_path):
        proc = run_cli("mertens", "--x", "100000000", "--cache", str(tmp_path))
        payload = json.loads(proc.stdout)
        assert payload["a"] == 0.125 and payload["b"] == 0.25
        assert payload["total_sum"] == pytest.approx(
            payload["admissible_sum"] + payload["inadmissible_sum"], rel=1e-12
        )


class TestPiedCommand:
    def test_counts(self, tmp_path):
        proc = run_cli("pied", "--x", "50", "--d", "1", "--cache", str(tmp_path))
        assert json.loads(proc.stdout)["count"] == 14

    def test_non_squarefree_d(self, tmp_path):
        proc = run_cli("pied", "--x", "50", "--d", "4", "--cache", str(tmp_path), expect=1)
        assert "squarefree" in proc.stderr


class TestVerifyPaper:
    def test_fresh_run_passes(self, tmp_path):
        proc = run_cli("verify-paper", "--cache", str(tmp_path))
        assert "FAIL" not in proc.stdout
        lines = proc.stdout.splitlines()
        assert sum(1 for l in lines if l.startswith("PASS")) >= 35
        # the two published misprints are reported, not silently absorbed
        assert any("misprint" in l for l in lines if l.startswith("NOTE"))
        assert any("fails as printed" in l for l in lines if l.startswith("NOTE"))

    def test_corrupted_cache_fails_with_hasse_provenance(self, tmp_path):
        from ellnum.search import hasse_prime_window
        from ellnum.table import cache_path
        from ellnum import parse_curve

        model = parse_curve("0,0,1,-1,0")
        limit = hasse_prime_window(4_000_000 // 35)[1]
        os.makedirs(tmp_path, exist_ok=True)
        with open(cache_path(str(tmp_path), model, limit), "w") as fh:
            fh.write(f"ellnum-v1,0,0,1,-1,0,{limit}\n2,5\n101,300\n")
        proc = run_cli("verify-paper", "--cache", str(tmp_path), expect=1)
        assert "FAIL" in proc.stdout
        assert "Hasse" in proc.stdout


# sha256 of the exact stdout bytes of fixed commands. Output is part of the
# determinism contract: a refactor that changes any of these bytes fails here.
GOLDEN_STDOUT = {
    ("g1", "--curve", "0,0,3,-1,2", "--n", "624"):
        "9db0cb4161a9118508e23321964d78af9d26dd7110a437b6844d617bedb51a3a",
    ("progressions", "--curve", "0,0,3,-1,2", "--lo", "10262", "--hi", "11441"):
        "ceeb4c45fe5c6e594ec5f45bf4872eca2e4de077a1499e1fa9fc58eb18e0e634",
    ("gk", "--k", "3", "--n", "3017520"):
        "9a230838cab7ccfd6168ed5d7cfed637d50185e9042bb0d9d8977efc31637357",
    ("census", "--k", "3", "--x", "100000", "--format", "csv"):
        "75e34a6930ade62b6ec2e3c1ac24065a34ab3c240b17fd70136b38febe2e439e",
}


@pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=lambda a: a[0])
def test_golden_stdout(args, tmp_path):
    cache = ["--cache", str(tmp_path)] if "--cache" in OPTIONS[args[0]] else []
    proc = subprocess.run(CMD + list(args) + cache, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_STDOUT[args]
