import json
import math

import pytest

from eggsum.cli import run

DISK = '{"blocks":[{"p":[1.0],"a":1.0}]}'
BALL = '{"blocks":[{"p":[1.0,1.0],"a":1.0}]}'
ZSPEC = '{"m":2,"powers":[0,0],"groups":[],"abs":null,"b":3.0}'


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

    def test_invalid_bracket_exit(self, capsys):
        code = run(
            ["threshold", "--domain", DISK, "--kind", "self:0:0", "--N", "2000",
             "--p-lo", "0.9", "--p-hi", "2.0"]
        )
        assert code == 2
        assert "bracket" in capsys.readouterr().err


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


class TestVerifyGamma:
    def test_all_kinds(self, capsys):
        rep = run_json(capsys, ["verify-gamma", "--order", "2"])
        checks = rep["results"]["checks"]
        assert [c["kind"] for c in checks] == ["R1", "R2", "R3", "R4", "R5"]
        r3 = checks[2]
        assert "quadratic_coefficients" in r3
        assert "printed_variant" in r3

    def test_printed_r3_documented_failure(self, capsys):
        rep = run_json(
            capsys, ["verify-gamma", "--kind", "R3", "--a", "1.0", "--b", "1.0"]
        )
        chk = rep["results"]["checks"][0]
        assert chk["decay_exponent"] >= 2.8
        assert chk["printed_variant"]["decay_exponent"] <= 2.2
        assert chk["quadratic_coefficients"]["composed"] == pytest.approx(-1.0)
        assert chk["quadratic_coefficients"]["printed"] == pytest.approx(-2.0)


class TestConfig:
    def test_help_documents_csv_columns(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        assert "CSV columns per subcommand" in capsys.readouterr().out


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
        ],
        ids=["blocks-not-a-list", "p-not-numeric", "p-infinite", "zeta-vars-not-integer",
             "index-not-numeric", "index-not-a-list", "schatten-p-infinite", "tol-infinite",
             "workers-negative", "shells-fit-underflow", "zeta-fit-underflow",
             "norm-overflow", "eig-huge-p", "eig-tiny-p", "zeta-power-overflow",
             "zeta-group-power-overflow"],
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

    def test_replay_reproduces_bit_for_bit(self, capsys, tmp_path):
        argv = ["shells", "--domain", BALL, "--kind", "within:0:0:1", "--p", "2.0", "--N", "200"]
        first = run_json(capsys, argv)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(first))
        second = run_json(capsys, ["replay", str(path)])
        assert second["results"] == first["results"]
        assert second["params"] == first["params"]
