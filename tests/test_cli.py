import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lineargames
from lineargames import parse_game, parse_realization, verify_realization
from lineargames.cli import main, run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def module_env():
    """The environment for `python -m lineargames` on this source tree."""
    src = str(Path(lineargames.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestDeterminism:
    CASES = [
        ["classify", "<6531>", "-n", "7", "--certify"],
        ["facets", "<521;4321>", "-n", "5"],
        ["poset", "-n", "4", "--format", "json"],
        ["enumerate", "-n", "3", "--chains"],
        ["chain", "--weights", "11/20,6/20,3/20", "-n", "3"],
        ["verify-paper", "--suite", "symmetric-games"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        first_code, first_out = capture(capsys, argv)
        assert first_out
        for _ in range(2):
            code, out = capture(capsys, argv)
            assert code == first_code
            assert out == first_out


class TestClassify:
    def test_unweighted_with_certificate(self, capsys):
        code, out = capture(
            capsys, ["classify", "<6531>", "-n", "7", "--certify"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "<6531>: linear, proper, unweighted"
        assert any(line.startswith("trade failure:") for line in lines)

    def test_weighted_prints_realization(self, capsys):
        code, out = capture(capsys, ["classify", "<321;43>", "-n", "4"])
        assert code == 0
        line = next(
            l for l in out.splitlines() if l.startswith("realization ")
        )
        r = parse_realization(line.removeprefix("realization "))
        assert verify_realization(parse_game("<321;43>", 4), r)

    def test_approx_is_display_only(self, capsys):
        _, plain = capture(capsys, ["classify", "<321;43>", "-n", "4"])
        _, approx = capture(
            capsys, ["classify", "<321;43>", "-n", "4", "--approx"]
        )
        assert plain != approx
        assert all(line in approx.splitlines() for line in plain.splitlines())


class TestRealize:
    def test_weighted_game(self, capsys):
        code, out = capture(capsys, ["realize", "<987;8741>", "-n", "9"])
        assert code == 0
        r = parse_realization(out.strip())
        assert verify_realization(parse_game("<987;8741>", 9), r)

    def test_unweighted_game_exits_one(self, capsys):
        code, out = capture(capsys, ["realize", "<8741>", "-n", "9"])
        assert code == 1
        assert "unweighted" in out

    def test_check_accepts_and_rejects(self, capsys):
        good = ["realize", "<321;43>", "-n", "4",
                "--check", "(3/5: 7/20,1/4,1/5,1/5)"]
        code, out = capture(capsys, good)
        assert code == 0 and "realizes" in out
        bad = ["realize", "<321;43>", "-n", "4",
               "--check", "(11/20: 7/20,1/4,1/5,1/5)"]
        code, out = capture(capsys, bad)
        assert code == 1 and "does not realize" in out

    @pytest.mark.parametrize(
        "text", ["(1/0: 1,1,1,1)", "(1/2: 1/0,1,1,1)"]
    )
    def test_check_zero_denominator_is_usage_error(self, capsys, text):
        argv = ["realize", "<321;43>", "-n", "4", "--check", text]
        assert run(argv) == 2
        assert "realization grammar" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code, out = capture(
            capsys, ["realize", "<321;43>", "-n", "4", "--json"]
        )
        assert code == 0
        json.loads(out)


class TestFacets:
    def test_summary_line(self, capsys):
        code, out = capture(capsys, ["facets", "<521;4321>", "-n", "5"])
        assert code == 0
        assert out.splitlines()[0] == (
            "<521;4321>: 7 facets: top 2, bottom 2, vertical 3"
        )

    def test_unweighted_exits_one(self, capsys):
        code, out = capture(capsys, ["facets", "<8741>", "-n", "9"])
        assert code == 1
        assert "unweighted" in out

    def test_json_counts(self, capsys):
        code, out = capture(
            capsys, ["facets", "<521;4321>", "-n", "5", "--json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {
            "top": 2, "bottom": 2, "vertical": 3,
            "total": 7, "n": 5, "k": 2, "d": 4,
        }


class TestHierarchy:
    def test_geometric_cross_check(self, capsys):
        code, out = capture(
            capsys, ["hierarchy", "<321;42>", "-n", "4", "--geometric"]
        )
        assert code == 0
        assert "power composition (1, 2, 1)" in out
        assert "agrees" in out


class TestChain:
    def test_weights_build_consistent_chain(self, capsys):
        code, out = capture(
            capsys, ["chain", "--weights", "11/20,6/20,3/20", "-n", "3"]
        )
        assert code == 0
        assert "saturated chain of 7 games (maximal, self-dual)" in out
        assert "consistent; witness weights" in out

    def test_explicit_inconsistent_chain(self, capsys):
        argv = ["chain", "-n", "5",
                "<54;531>", "<54;532>", "<541;532>", "<532>",
                "<542;5321>", "<543;5321>"]
        code, out = capture(capsys, argv)
        assert code == 1
        assert "inconsistent: contradiction:" in out
        assert "31" in out and "4" in out

    def test_non_generic_weights_usage_error(self, capsys):
        code, _ = capture(
            capsys, ["chain", "--weights", "1/2,1/4,1/4", "-n", "3"]
        )
        assert code == 2


class TestPosetAndEnumerate:
    def test_dot_output(self, capsys):
        code, out = capture(capsys, ["poset", "-n", "3"])
        assert code == 0
        assert out.startswith("digraph")

    def test_m_kind(self, capsys):
        code, out = capture(capsys, ["poset", "-n", "3", "--kind", "M"])
        assert code == 0
        assert out.startswith("digraph")

    def test_json_round_trip(self, capsys):
        code, out = capture(capsys, ["poset", "-n", "4", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 25

    def test_csv(self, capsys):
        code, out = capture(capsys, ["poset", "-n", "3", "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) > 7

    def test_cap_is_usage_error(self, capsys):
        code, _ = capture(capsys, ["poset", "-n", "7"])
        assert code == 2

    def test_enumerate_lines_parse_back(self, capsys):
        code, out = capture(capsys, ["enumerate", "-n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("25 games")
        for line in lines[1:]:
            text = line.split()[0]
            v = parse_game(text, 4)
            assert f"rank {v.rank()}" in line


class TestVerifyAndProbe:
    def test_symmetric_suite_passes(self, capsys):
        code, out = capture(
            capsys, ["verify-paper", "--suite", "symmetric-games"]
        )
        assert code == 0
        assert "all checks passed" in out
        assert all(
            line.startswith("[PASS]")
            for line in out.splitlines()[:-1]
        )

    def test_conjecture_probe(self, capsys):
        code, out = capture(capsys, ["conjecture-probe", "-n", "4"])
        assert code == 0
        assert "holds" in out

    def test_trade_search_weighted(self, capsys):
        code, out = capture(
            capsys, ["trade-search", "<321;43>", "-n", "4"]
        )
        assert code == 0
        assert "LP verdict: weighted" in out

    def test_trade_search_nine_voters_terminates(self, capsys):
        code, out = capture(
            capsys, ["trade-search", "<987;8741>", "-n", "9"]
        )
        assert code == 0
        assert out == (
            "no trade failure with at most 3 coalitions; LP verdict: weighted\n"
        )


class TestUsageErrors:
    def test_bad_game_text(self, capsys):
        assert run(["classify", "321;43", "-n", "4"]) == 2
        capsys.readouterr()

    def test_missing_n(self, capsys):
        assert run(["classify", "<321>"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "<321;43>", "-n", "4"],  # exit 0
            ["realize", "<6531>", "-n", "7"],  # unweighted: exit 1
            ["classify", "321;43", "-n", "4"],  # usage error: exit 2
        ],
        ids=["success", "verdict", "usage"],
    )
    def test_python_m_matches_main(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["lineargames", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        want = capsys.readouterr().out
        got = subprocess.run(
            [sys.executable, "-m", "lineargames", *argv],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert got.returncode == exc.value.code
        assert got.stdout == want

    def test_closed_pipe_is_not_an_error(self):
        # The output is larger than a pipe's buffer, so the command is
        # still writing when the reader closes the pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "lineargames", "enumerate", "-n", "6",
             "--chains", "--limit", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=module_env(),
        )
        assert proc.stdout.readline().startswith(b"200 maximal")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait() == 0
        assert stderr == b""
