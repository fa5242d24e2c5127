import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eggsum import DomainSpec, SelfAdjoint, ValidationError, cli, commutator, eigenvalue
from eggsum import gammakit, summability, zetalab
from eggsum.cli import run

DISK = '{"blocks":[{"p":[1.0],"a":1.0}]}'
BALL = '{"blocks":[{"p":[1.0,1.0],"a":1.0}]}'
# the self kind of block 0 merges the two other coordinates into one class
CRIT4 = '{"blocks":[{"p":[1.0],"a":2.0},{"p":[1.0],"a":1.0},{"p":[1.0],"a":1.0}]}'
ZSPEC = '{"m":2,"powers":[0,0],"groups":[],"abs":null,"b":3.0}'
# a cap above any work a test can do
HUGE_CAP = str(10**24 - 1)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestNorm:
    def test_disk_constant(self, capsys):
        rep = run_json(capsys, ["norm", "--domain", DISK, "--index", "[0]"])
        assert rep["results"]["log_norm"] == pytest.approx(math.log(math.pi), abs=1e-12)
        # the full effective configuration is echoed
        assert rep["params"]["seed"] == 0
        assert rep["params"]["workers"] == 1

    def test_with_oracle(self, capsys):
        rep = run_json(
            capsys,
            ["norm", "--domain", DISK, "--index", "[0]", "--mc-samples", "200000", "--seed", "5"],
        )
        mc = rep["results"]["mc"]
        assert abs(mc["estimate"] - math.pi) <= 4 * mc["stderr"]

    def test_zero_stderr_leaves_sigmas_out(self, capsys):
        # one sample has no spread: no scale to count sigmas in, and no null
        rep = run_json(capsys, ["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", "1"])
        assert rep["results"]["mc"]["stderr"] == 0.0
        assert "sigmas_from_formula" not in rep["results"]["mc"]

    def test_sample_cap(self, capsys, monkeypatch):
        argv = ["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", str(10**13)]
        report = run_json(capsys, argv[:-1] + ["10"])
        report["params"]["mc_samples"] = 10**13

        def sampling(*args):
            raise AssertionError("sampling started")

        # refused before any sampling, both directly and from a replayed report
        monkeypatch.setattr(cli, "mc_norm_oracle", sampling)
        assert run(argv) == 3
        assert run(["replay", json.dumps(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: ")
        assert run(argv[:-1] + ["3", "--cap", "2"]) == 3
        monkeypatch.undo()
        # an explicit cap moves the bound either way
        assert run_json(capsys, argv[:-1] + ["3", "--cap", "3"])["results"]["mc"]

    def test_domain_from_file(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        path.write_text(DISK)
        rep = run_json(capsys, ["norm", "--domain", str(path), "--index", "[2]"])
        assert rep["results"]["log_norm"] == pytest.approx(
            math.log(math.pi / 3), abs=1e-12
        )


class TestEig:
    def test_table(self, capsys):
        rep = run_json(
            capsys,
            ["eig", "--domain", DISK, "--kind", "self:0:0", "--degree-min", "0", "--degree-max", "3"],
        )
        rows = rep["results"]["rows"]
        assert [r["eigenvalue"] for r in rows] == pytest.approx(
            [-1 / 2, -1 / 6, -1 / 12, -1 / 20], abs=1e-12
        )

    def test_csv(self, capsys):
        code = run(
            ["eig", "--domain", DISK, "--kind", "self:0:0", "--degree-max", "2",
             "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,index,eigenvalue"
        assert len(lines) == 4

    def test_row_cap(self, capsys):
        code = run(
            ["eig", "--domain", BALL, "--kind", "self:0:0", "--degree-max", "2000", "--cap", "100"]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_cap_boundary(self, capsys):
        # degrees 2..40 of the 2-ball hold sum(n + 1) = 858 rows
        argv = ["eig", "--domain", BALL, "--kind", "within:0:0:1", "--degree-min", "2",
                "--degree-max", "40"]
        rep = run_json(capsys, argv + ["--cap", "858"])
        rows = rep["results"]["rows"]
        assert len(rows) == 858
        assert [r["degree"] for r in rows] == [sum(r["index"]) for r in rows]
        assert rows[0]["degree"] == 2 and rows[-1]["degree"] == 40
        assert run(argv + ["--cap", "857"]) == 3
        assert capsys.readouterr().out == ""

    def test_every_row_where_columns_merge(self, capsys):
        argv = ["eig", "--domain", CRIT4, "--kind", "self:0:0", "--degree-max", "10"]
        rows = run_json(capsys, argv)["results"]["rows"]
        # all C(13, 3) indices of degree at most 10, each once
        assert len(rows) == len({tuple(r["index"]) for r in rows}) == 286

    def test_degrees_past_int32(self, capsys):
        # a 1-D table reaches any degree an index may hold: each value is the
        # one eigenvalue() gives, and past 2^53 the degree is refused alike
        dom = DomainSpec.from_json(DISK)
        for n in (2**31, 2**40, 2**53):
            argv = ["eig", "--domain", DISK, "--kind", "self:0:0",
                    "--degree-min", str(n), "--degree-max", str(n)]
            [row] = run_json(capsys, argv)["results"]["rows"]
            assert row == {"degree": n, "index": [n],
                           "eigenvalue": eigenvalue(dom, SelfAdjoint(0, 0), [n])}
        top = str(2**53 + 1)
        argv = ["eig", "--domain", DISK, "--kind", "self:0:0", "--degree-min", top,
                "--degree-max", top]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "at most 2^53" in err and "Traceback" not in err
        with pytest.raises(ValidationError, match="at most 2\\^53"):
            eigenvalue(dom, SelfAdjoint(0, 0), [2**53 + 1])

    @pytest.mark.parametrize("a", ["1e-300", "1e-200", "1e300"])
    def test_one_block_extreme_outer_power(self, capsys, a):
        # a one-block egg is the same set for every outer power: the table
        # is the ball's
        def eigs(domain, kind):
            argv = ["eig", "--domain", domain, "--kind", kind, "--degree-max", "3"]
            return [r["eigenvalue"] for r in run_json(capsys, argv)["results"]["rows"]]

        for kind in ("self:0:0", "within:0:0:1"):
            got = eigs(BALL.replace('"a":1.0', f'"a":{a}'), kind)
            assert got == pytest.approx(eigs(BALL, kind), rel=1e-14, abs=0.0)


class TestShells:
    def test_disk_report(self, capsys):
        rep = run_json(
            capsys,
            ["shells", "--domain", DISK, "--kind", "self:0:0", "--p", "1.0", "--N", "500"],
        )
        res = rep["results"]
        assert res["verdict"] == "Converges"
        assert res["slope"] == pytest.approx(-2.0, abs=0.05)
        assert len(res["shell_sums"]) == 501
        assert rep["params"]["margin"] == 0.15
        assert rep["params"]["window"] == 0.5

    @pytest.mark.parametrize("command", [
        ["shells", "--domain", '{"blocks":[{"p":[1,1],"a":2},{"p":[1],"a":1}]}',
         "--kind", "within:0:0:1", "--p", "3"],
        ["zeta", "--spec", ZSPEC],
    ], ids=["shells", "zeta"])
    @pytest.mark.parametrize("margin, message", [
        ("0", "margin must be positive"),
        ("-1", "margin must be positive"),
        ("nan", "margin must be finite, got nan"),
    ], ids=["margin-0", "margin-negative", "margin-nan"])
    def test_bad_margin_exit_2_before_any_work(self, capsys, monkeypatch, command, margin,
                                               message):
        def unexpected(*args):
            raise AssertionError("an eigenvalue or a zeta table was evaluated")

        monkeypatch.setattr(summability.WalkKernel, "__call__", unexpected)
        monkeypatch.setattr(zetalab, "_numerator_by_shell_conv", unexpected)
        assert run([*command, f"--margin={margin}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_outer_powers_of_two_far_apart_exit_2(self, capsys):
        # outer powers 2^-600, 2^600 and 1: a Gamma term leaves double range
        domain = json.dumps({"blocks": [{"p": [1], "a": 2.0**-600}, {"p": [1], "a": 2.0**600},
                                        {"p": [1], "a": 1}]})
        assert run(["shells", "--domain", domain, "--kind", "self:0:0", "--p", "3",
                    "--N", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == (
            "error: an eigenvalue is not a finite double on this domain: "
            "a term leaves double range\n")

    def test_worker_count_is_echoed(self, capsys):
        argv = ["shells", "--domain", BALL, "--kind", "within:0:0:1", "--p", "3.0", "--N", "100"]
        one = run_json(capsys, argv)
        two = run_json(capsys, argv + ["--workers", "2"])
        assert two["params"]["workers"] == 2
        assert two["results"] == one["results"]


class TestThreshold:
    def test_disk(self, capsys):
        rep = run_json(
            capsys,
            ["threshold", "--domain", DISK, "--kind", "self:0:0", "--N", "5000", "--tol", "0.1"],
        )
        res = rep["results"]
        assert res["predicted"] == 0.5
        assert abs(res["empirical"] - 0.5) <= 0.1
        assert res["agrees"] is True

    def test_margin_is_no_option(self, capsys):
        # the bisection has no verdict, so it takes no margin band
        assert run(["threshold", "--domain", DISK, "--N", "40", "--margin", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eggsum: unrecognized arguments: --margin 0.2\n"
        report = run_json(capsys, ["threshold", "--domain", DISK, "--N", "40"])
        assert "margin" not in report["params"]
        # a report written while threshold still took --margin
        report["params"]["margin"] = 0.15
        assert run(["replay", json.dumps(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown parameters ['margin'] for threshold\n"

    def test_invalid_bracket_exit(self, capsys):
        code = run(
            ["threshold", "--domain", DISK, "--kind", "self:0:0", "--N", "2000",
             "--p-lo", "0.9", "--p-hi", "2.0"]
        )
        assert code == 2
        assert "bracket" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [
        ["threshold", "--domain", BALL, "--kind", "self:0:0"],
        ["shells", "--domain", BALL, "--kind", "self:0:0", "--p", "2"],
        ["zeta", "--spec", ZSPEC],
    ], ids=["threshold", "shells", "zeta"])
    def test_window_too_small_for_the_fit_exit_2(self, capsys, monkeypatch, command):
        # the window 0.01 of N = 40 holds shell 40 alone, and the tail fit
        # needs 8: refused before any eigenvalue, with the same message
        def unexpected(*args):
            raise AssertionError("an eigenvalue was evaluated")

        monkeypatch.setattr(commutator.WalkKernel, "__call__", unexpected)
        assert run(command + ["--N", "40", "--window", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "the fit window 0.01 of N = 40 holds 1 shell(s), 40..40" in err, err
        assert "needs 8" in err and "bracket" not in err

    def test_bracket_end_the_fit_refuses_exit_2(self, capsys):
        # at p = 1000 every sum of the window underflows to 0: the fit's
        # refusal, not a NaN slope that blames the bracket
        assert run(["threshold", "--domain", BALL, "--N", "100", "--p-lo", "1",
                    "--p-hi", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: only 0 shell sums in the fit window are positive, the tail fit needs 8; "
            "lower the exponent or raise N\n")

    @pytest.mark.parametrize("N", ["-3", "5", "15"])
    def test_small_N_exit_2(self, capsys, N):
        code = run(["threshold", "--domain", BALL, "--kind", "self:0:0", "--N", N])
        assert code == 2
        assert "N must be at least 16" in capsys.readouterr().err


class TestModuleThreshold:
    def test_breakdown(self, capsys):
        rep = run_json(
            capsys, ["module-threshold", "--domain", '{"blocks":[{"p":[3.0,1.0],"a":1.0}]}']
        )
        res = rep["results"]
        assert res["value"] == 3.0
        assert res["consistent"] is True


class TestZeta:
    def test_verdict(self, capsys):
        rep = run_json(capsys, ["zeta", "--spec", ZSPEC, "--N", "500"])
        res = rep["results"]
        assert res["critical_b"] == 2.0
        assert res["family"] == "product-only"
        assert res["verdict"] == "Converges"

    def test_malformed_spec(self, capsys):
        code = run(["zeta", "--spec", "{not json", "--N", "100"])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_shell_ceiling_names_the_cap_option(self, capsys):
        code = run(["zeta", "--spec", ZSPEC, "--N", "30000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "--cap" in captured.err


class TestVerifyGamma:
    def test_all_kinds(self, capsys):
        rep = run_json(capsys, ["verify-gamma", "--order", "2"])
        checks = rep["results"]["checks"]
        assert [c["kind"] for c in checks] == ["R1", "R2", "R3", "R4", "R5"]
        r3 = checks[2]
        assert "quadratic_coefficients" in r3
        assert "printed_variant" in r3
        # R2 and R4 take no b, and their entries hold none
        assert ["b" in c for c in checks] == [True, False, True, False, True]

    def test_exact_agreement_leaves_decay_exponent_out(self, capsys):
        rep = run_json(capsys, ["verify-gamma", "--kind", "R3", "--x0", "1e12"])
        chk = rep["results"]["checks"][0]
        assert chk["agreement_exact"] is True
        assert "decay_exponent" not in chk
        assert "decay_exponent" not in chk["printed_variant"]
        # the CSV projection keeps its column, empty
        assert run(["verify-gamma", "--kind", "R3", "--x0", "1e12", "--format", "csv"]) == 0
        first = capsys.readouterr().out.splitlines()[1]
        assert first.startswith("R3,2,1.25,0.75,1000000000000.0,") and first.endswith(",")

    @pytest.mark.parametrize(
        "args",
        [["--a", "1e308"], ["--a", "1e70"], ["--b", "1e300"], ["--doublings", "100000000"],
         ["--doublings", "1023"], ["--x0", "inf"], ["--x0", "0"]],
        ids=["a-coefficient", "a-ratio", "b-coefficient", "doublings-huge", "doublings-1023",
             "x0-infinite", "x0-zero"],
    )
    def test_out_of_range_exit_2(self, capsys, args):
        code = run(["verify-gamma", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_printed_r3_documented_failure(self, capsys):
        rep = run_json(
            capsys, ["verify-gamma", "--kind", "R3", "--a", "1.0", "--b", "1.0"]
        )
        chk = rep["results"]["checks"][0]
        assert chk["decay_exponent"] >= 2.8
        assert chk["printed_variant"]["decay_exponent"] <= 2.2
        assert chk["quadratic_coefficients"]["composed"] == pytest.approx(-1.0)
        assert chk["quadratic_coefficients"]["printed"] == pytest.approx(-2.0)


# one quick successful command line per command
QUICK = {
    "norm": ["norm", "--domain", DISK, "--index", "[1]"],
    "eig": ["eig", "--domain", BALL, "--degree-max", "3"],
    "shells": ["shells", "--domain", DISK, "--p", "1", "--N", "40"],
    "threshold": ["threshold", "--domain", DISK, "--N", "40"],
    "module-threshold": ["module-threshold", "--domain", DISK],
    "zeta": ["zeta", "--spec", ZSPEC, "--N", "40"],
    "verify-gamma": ["verify-gamma"],
}


class TestConfig:
    def test_help_documents_csv_columns(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        text = capsys.readouterr().out.split("CSV columns per subcommand")[1]
        listed = {}
        for names, header in re.findall(r"^  ([a-z-]+(?:, [a-z-]+)*) +(\S+)", text, re.M):
            listed.update(dict.fromkeys(names.split(", "), header))
        assert sorted(listed) == sorted(QUICK)
        for command, argv in QUICK.items():
            assert run([*argv, "--format", "csv"]) == 0
            assert capsys.readouterr().out.splitlines()[0] == listed[command], command

    @pytest.mark.parametrize("command", ["norm", "eig", "shells", "threshold", "zeta"])
    def test_default_report_echoes_the_cap_in_effect(self, capsys, command):
        # every optional argument at its default: no null anywhere in the report
        argv = {
            "norm": ["norm", "--domain", DISK, "--index", "[1]"],
            "eig": ["eig", "--domain", BALL],
            "shells": ["shells", "--domain", DISK, "--p", "1"],
            "threshold": ["threshold", "--domain", DISK],
            "zeta": ["zeta", "--spec", '{"m":2,"powers":[0,0],"b":3.0}'],
        }[command]
        report = run_json(capsys, argv)
        assert isinstance(report["params"]["cap"], int)
        assert "null" not in json.dumps(report)
        # a report written when the cap was echoed as null replays the same
        report["params"]["cap"] = None
        replayed = run_json(capsys, ["replay", json.dumps(report)])
        assert replayed["results"] == report["results"]

    @pytest.mark.parametrize("argv", [
        ["eig", "--domain", BALL, "--degree-max", "300", "--cap", "1000000", "--format", "csv"],
        ["verify-gamma", "--doublings", "1000", "--format", "csv"],
        # the disk's report at the default N: about 2.9 MB of JSON
        ["shells", "--domain", DISK, "--p", "1.5"],
    ], ids=["eig", "verify-gamma", "shells-json"])
    def test_closed_pipe_exits_1_quietly(self, argv):
        # output of several times the pipe buffer; the reader takes one line
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "eggsum.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestErrorsAndReplay:
    def test_malformed_domain(self, capsys):
        code = run(["norm", "--domain", "{oops", "--index", "[0]"])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_shape_mismatch(self, capsys):
        code = run(["norm", "--domain", BALL, "--index", "[0]"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--domain", '{"blocks":5}', "--index", "[1]"],
            ["norm", "--domain", '{"blocks":[{"p":["x"],"a":1}]}', "--index", "[1]"],
            ["norm", "--domain", '{"blocks":[{"p":[Infinity],"a":1}]}', "--index", "[1]"],
            ["zeta", "--spec",
             '{"m":2,"powers":[0,0],"groups":[{"vars":["a"],"a":1.0}],"abs":null,"b":3.0}'],
            ["norm", "--domain", DISK, "--index", '["x"]'],
            ["norm", "--domain", DISK, "--index", "5"],
            ["shells", "--domain", DISK, "--kind", "self:0:0", "--p", "inf", "--N", "100"],
            ["threshold", "--domain", DISK, "--kind", "self:0:0", "--N", "2000", "--tol", "inf"],
            ["shells", "--domain", DISK, "--kind", "self:0:0", "--p", "1", "--N", "100",
             "--workers", "-3"],
            ["shells", "--domain", BALL, "--p", "1000", "--N", "100"],
            ["zeta", "--spec", '{"m":2,"powers":[0,0],"groups":[],"abs":null,"b":400}',
             "--N", "100"],
            ["norm", "--domain", '{"blocks":[{"p":[1],"a":5e-324}]}', "--index", "[0]"],
            ["eig", "--domain", '{"blocks":[{"p":[1e200,1],"a":2}]}', "--degree-max", "2"],
            ["eig", "--domain", '{"blocks":[{"p":[1e-300],"a":1},{"p":[1],"a":1}]}',
             "--degree-max", "2"],
            ["zeta", "--spec", '{"m":2,"powers":[400,0],"b":1}', "--N", "200"],
            ["zeta", "--spec",
             '{"m":3,"powers":[0,0,0],"groups":[{"vars":[0,1],"a":400},{"vars":[1,2],"a":1}],'
             '"b":3}', "--N", "200"],
            # a cap below 1 is malformed on every command that takes one
            ["zeta", "--spec", ZSPEC, "--N", "40", "--cap", "0"],
            ["zeta", "--spec", ZSPEC, "--N", "40", "--cap", "-5"],
            ["norm", "--domain", DISK, "--index", "[1]", "--cap", "0"],
            ["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", "10", "--cap", "-5"],
            ["eig", "--domain", DISK, "--cap", "0"],
            ["eig", "--domain", DISK, "--cap", "-5"],
            ["shells", "--domain", DISK, "--p", "1", "--N", "40", "--cap", "0"],
            ["threshold", "--domain", DISK, "--N", "40", "--cap", "-5"],
            ["eig", "--domain", DISK, "--degree-min", "5", "--degree-max", "3"],
            ["zeta", "--spec", '{"m":2,"powers":[150,150],"b":0}', "--N", "100"],
            # every shell sum is finite, but their total is not
            ["zeta", "--spec", '{"m":1,"powers":[71.5],"b":0}', "--N", "20000"],
        ],
        ids=["blocks-not-a-list", "p-not-numeric", "p-infinite", "zeta-vars-not-integer",
             "index-not-numeric", "index-not-a-list", "schatten-p-infinite", "tol-infinite",
             "workers-negative", "shells-fit-underflow", "zeta-fit-underflow",
             "norm-overflow", "eig-huge-p", "eig-tiny-p", "zeta-power-overflow",
             "zeta-group-power-overflow", "zeta-cap-0", "zeta-cap-negative", "norm-cap-0",
             "norm-cap-negative", "eig-cap-0", "eig-cap-negative", "shells-cap-0",
             "threshold-cap-negative", "eig-degrees-reversed", "zeta-sum-overflow",
             "zeta-total-overflow"],
    )
    def test_malformed_values_exit_2(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # the one error line and nothing else: no numpy warning before it
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1, captured.err

    def test_bad_kind_selector(self, capsys):
        code = run(["eig", "--domain", DISK, "--kind", "sideways:0:0"])
        assert code == 2
        assert "kind" in capsys.readouterr().err

    def test_cap_exit_code(self, capsys):
        code = run(
            ["shells", "--domain", BALL, "--kind", "self:0:0", "--p", "1", "--N", "1000",
             "--cap", "50"]
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["shells", "--domain", BALL, "--kind", "within:0:0:1", "--p", "3"],
        ["threshold", "--domain", BALL, "--kind", "within:0:0:1"],
        ["zeta", "--spec", ZSPEC],
    ], ids=["shells", "threshold", "zeta"])
    def test_N_past_sys_maxsize_exit_3(self, capsys, argv):
        # the fit window of N = 10^20 - 1 is longer than a range's len()
        # allows: counted, it goes on to the cap
        assert run([*argv, "--N", "99999999999999999999"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: ")
        assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--domain", DISK, "--N", "99999999999999999999", "--cap", HUGE_CAP],
        ["shells", "--domain", DISK, "--p", "3", "--N", "99999999999999999999", "--cap", HUGE_CAP],
        ["shells", "--domain", DISK, "--p", "3", "--N", str(2**53 + 1), "--cap", HUGE_CAP],
        ["zeta", "--spec", ZSPEC, "--N", "99999999999999999999", "--cap", "5"],
    ], ids=["threshold", "shells", "shells-2^53+1", "zeta"])
    def test_N_a_cap_admits_but_no_array_holds_exit_3(self, capsys, argv):
        # the cap admits the shells, but their N + 1 sums cannot be allocated:
        # one message, not a numpy error from the allocation or the walk
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: ")
        assert "lower N" in captured.err
        assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", "2"],
            ["eig", "--domain", BALL, "--degree-max", "3"],
            ["shells", "--domain", BALL, "--p", "2", "--N", "24"],
            ["threshold", "--domain", DISK, "--N", "40"],
            # overlapping groups make an enumeration spec, whose lattice terms the cap counts
            ["zeta", "--spec",
             '{"m":3,"powers":[0,0,0],"groups":[{"vars":[0,1],"a":1},{"vars":[1,2],"a":1}],'
             '"b":6}', "--N", "40"],
        ],
        ids=["norm", "eig", "shells", "threshold", "zeta"],
    )
    def test_every_cap_is_read(self, capsys, argv):
        run_json(capsys, argv)
        assert run([*argv, "--cap", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: ")

    @pytest.mark.parametrize("command", ["shells", "threshold"])
    def test_refusals_name_the_options(self, capsys, command):
        ball4 = '{"blocks":[{"p":[1.0,1.0,1.0,1.0],"a":1.0}]}'
        argv = [command, "--domain", ball4] + (["--p", "4"] if command == "shells" else [])
        # no default shell count in dimension 4
        assert run([*argv, "--cap", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "; pass --N" in captured.err, captured.err
        # nor a default cap
        assert run([*argv, "--N", "20"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "; pass --cap" in captured.err, captured.err
        # and a cap below the classes the walk evaluates
        assert run([*argv, "--N", "20", "--cap", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "; raise --cap" in captured.err, captured.err

    @pytest.mark.parametrize("command, evaluations", [("shells", 450_045_000),
                                                      ("threshold", 337_537_501)])
    def test_cap_counts_the_weighed_pairs(self, capsys, monkeypatch, command, evaluations):
        # the 2-ball's within kind at N = 30 000 walks one class per shell, but
        # its atom's weight folds a pair of degrees per row: above the default
        # cap, refused before any kernel is made
        def unexpected(*args):
            raise AssertionError("a kernel was made")

        monkeypatch.setattr(summability, "WalkKernel", unexpected)
        argv = [command, "--domain", BALL, "--kind", "within:0:0:1", "--N", "30000"]
        assert run(argv + (["--p", "2"] if command == "shells" else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"make {evaluations} evaluations" in captured.err

    @pytest.mark.parametrize("command", ["module-threshold", "verify-gamma"])
    def test_no_cap_where_nothing_is_counted(self, capsys, command):
        argv = [command, "--domain", DISK] if command == "module-threshold" else [command]
        run_json(capsys, argv)
        assert run([*argv, "--cap", "1"]) == 2
        assert "--cap" in capsys.readouterr().err

    def test_replay_reproduces_bit_for_bit(self, capsys, tmp_path):
        cases = [
            # the 2-ball's within kind has one atom: one class per shell 1..200,
            # walked as j = i - e_lowered on shells 0..199, and 20 100 pairs of
            # degrees y <= z < 200 in its weight
            (["shells", "--domain", BALL, "--kind", "within:0:0:1", "--p", "2.0", "--N", "200"],
             20_300),
            # the classes (i_0, t) of the window shells 50..100
            (["threshold", "--domain", CRIT4, "--kind", "self:0:0", "--N", "100"], 3_876),
        ]
        for argv, evaluations in cases:
            first = run_json(capsys, argv)
            assert first["results"]["evaluations"] == evaluations
            path = tmp_path / "report.json"
            path.write_text(json.dumps(first))
            second = run_json(capsys, ["replay", str(path)])
            assert second["results"] == first["results"]
            assert second["params"] == first["params"]

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["zeta", "--spec", ZSPEC, "--N", "40"], "N", "abc"),
            (["zeta", "--spec", ZSPEC, "--N", "40"], "spec", None),
            (["zeta", "--spec", ZSPEC, "--N", "40"], "cap", -5),
            (["shells", "--domain", DISK, "--p", "1", "--N", "40"], "kind", 0),
            (["shells", "--domain", DISK, "--p", "1", "--N", "40"], "workers", 0),
            (["shells", "--domain", DISK, "--p", "1", "--N", "40"], "window", [1]),
            (["eig", "--domain", DISK, "--degree-max", "3"], "degree_max", 100.5),
            (["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", "10"],
             "mc_samples", 1e308),
            (["norm", "--domain", DISK, "--index", "[1]", "--mc-samples", "10"], "seed", -1),
            (["verify-gamma"], "doublings", "abc"),
            (["verify-gamma"], "a", 1e308),
            (["verify-gamma"], "bogus", 1),
            (["module-threshold", "--domain", DISK], "dom", DISK),
            # reports written while these commands still took --cap
            (["module-threshold", "--domain", DISK], "cap", None),
            (["verify-gamma"], "cap", None),
        ],
        ids=["zeta-N-text", "zeta-spec-null", "zeta-cap-negative", "shells-kind-number",
             "shells-workers-0", "shells-window-list", "eig-degree-fraction", "norm-samples-huge",
             "norm-seed-negative", "gamma-doublings-text", "gamma-a-huge", "unknown-key",
             "abbreviated-key", "module-threshold-retired-cap", "gamma-retired-cap"],
    )
    def test_replay_malformed_param_exit_2(self, capsys, argv, key, value):
        report = run_json(capsys, argv)
        report["params"][key] = value
        code = run(["replay", json.dumps(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["{oops", "[]", '{"command": "replay", "params": {"report": "r.json"}}',
         '{"command": ["zeta"], "params": {}}', '{"command": "zeta", "params": []}',
         '{"command": "zeta", "params": {"N": ' + "1" * 5000 + "}}"],
        ids=["not-json", "not-an-object", "replay-of-replay", "command-not-a-name",
             "params-not-an-object", "integer-too-long"],
    )
    def test_replay_malformed_report_exit_2(self, capsys, text):
        assert run(["replay", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_replay_null_takes_the_default(self, capsys):
        argv = ["shells", "--domain", DISK, "--p", "1", "--N", "40", "--window", "0.5"]
        report = run_json(capsys, argv)
        report["params"]["window"] = None
        assert run_json(capsys, ["replay", json.dumps(report)]) == run_json(capsys, argv)

    def test_replay_never_reads_a_path(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        path.write_text(DISK)
        report = run_json(capsys, ["norm", "--domain", str(path), "--index", "[2]"])
        report["params"]["domain"] = str(path)
        assert run(["replay", json.dumps(report)]) == 2
        assert "malformed JSON" in capsys.readouterr().err


def _nan_at_the_last_shell():
    # the disk's 100 001 shell sums at the default N, the last one NaN
    real = summability.shell_report

    def shell_report(dom, kind, p, N, **kwargs):
        assert N is None
        rep = real(dom, kind, p, 100, **kwargs)
        sums = np.full(summability.default_shells(dom) + 1, rep.shell_sums[-1])
        sums[-1] = math.nan
        return dataclasses.replace(rep, shell_sums=sums)

    return summability, "shell_report", shell_report


def _inf_scalar():
    real = summability.threshold_report

    def threshold_report(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), threshold=np.float64(math.inf))

    return summability, "threshold_report", threshold_report


def _nan_in_a_list():
    # a plain list of plain floats where verify-gamma reports its nodes
    real = gammakit.verify_expansion

    def verify_expansion(kind, order, xs, **kwargs):
        check = real(kind, order, xs, **kwargs)
        return dataclasses.replace(check, xs=[*check.xs.tolist()[:-1], math.nan])

    return gammakit, "verify_expansion", verify_expansion


class TestReportWriter:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("patch, argv", [
        (_nan_at_the_last_shell, ["shells", "--domain", DISK, "--p", "1.5"]),
        (_inf_scalar, ["threshold", "--domain", DISK, "--N", "100"]),
        (_nan_in_a_list, ["verify-gamma"]),
    ], ids=["array", "numpy-scalar", "list"])
    def test_non_finite_value_prints_nothing(self, capsys, monkeypatch, patch, argv, fmt):
        # the whole report is checked before its first byte: no partial report
        monkeypatch.setattr(*patch())
        assert run([*argv, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a result is not a finite number for these parameters\n"
