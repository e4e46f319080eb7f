"""CLI tests: values, formats, determinism, schemas, and exit codes."""

import csv
import io
import json

import pytest

import bivnorm as bn
from bivnorm.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_copula_center(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "copula", "--u", "0.5", "--v", "0.5", "--rho", "0.5")
        assert code == 0
        assert out.strip() == "0.333333333333"

    def test_owen_t(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "owen-t", "--h", "0", "--a", "1")
        assert code == 0
        assert out.strip() == "0.125"

    def test_method_flag_cross_engine(self, capsys):
        _, out_owen, _ = run_cli(
            capsys, "eval", "copula", "--u", "0.2", "--v", "0.4", "--rho", "0.5",
            "--method", "owen",
        )
        _, out_auto, _ = run_cli(
            capsys, "eval", "copula", "--u", "0.2", "--v", "0.4", "--rho", "0.5",
            "--method", "auto",
        )
        assert abs(float(out_owen) - float(out_auto)) < 1e-10

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "copula", "--u", "0.5", "--v", "0.5", "--rho", "0.5",
            "--digits", "6",
        )
        assert out.strip() == "0.333333"

    def test_density_cond_g(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "density", "--u", "0.5", "--v", "0.5", "--rho", "0.5")
        assert code == 0 and abs(float(out) - 2 / 3**0.5) < 1e-10
        code, out, _ = run_cli(capsys, "eval", "cond", "--u", "0.5", "--v", "0.5", "--rho", "0.7")
        assert code == 0 and float(out) == 0.5
        code, out, _ = run_cli(capsys, "eval", "g", "--u", "0.5", "--rho", "0.9")
        assert code == 0 and float(out) == 0.5

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "copula", "--u", "0.5")
        assert code == 2
        assert "needs" in err

    def test_bad_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "copula", "--u", "1.5", "--v", "0.5", "--rho", "0.5")
        assert code == 2
        assert "argument error" in err

    def test_numeric_failure_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5",
            "--abs-tol", "1e-30", "--rel-tol", "1e-30",
        )
        assert code == 3
        assert "numerical failure" in err


    @pytest.mark.parametrize("tol", [("--abs-tol", "0"), ("--rel-tol", "-0.5"),
                                     ("--abs-tol", "nan")])
    def test_bad_tolerance_exit_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "eval", "copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5", *tol,
        )
        assert code == 2 and out == ""
        assert "argument error" in err

    def test_negative_digits_rejected_when_parsed(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("computed before the arguments were checked")

        monkeypatch.setattr("bivnorm.cli.copula_cdf", never)
        with pytest.raises(SystemExit) as info:
            main(["eval", "copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5", "--digits", "-1"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


# Each eval quantity, each Vasicek query and the skew-normal pdf: the printed
# value is the library's, formatted to the default 12 digits.
_VASICEK = ("dist", "vasicek", "--p", "0.3", "--rho", "0.2")
PINNED = [
    (("eval", "copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5"),
     lambda: bn.copula_cdf(0.3, 0.4, 0.5)),
    (("eval", "phi2", "--h", "0.3", "--k", "-0.4", "--rho", "0.5"),
     lambda: bn.phi2_cdf(0.3, -0.4, 0.5)),
    (("eval", "density", "--u", "0.3", "--v", "0.4", "--rho", "-0.5"),
     lambda: bn.copula_density(0.3, 0.4, -0.5)),
    (("eval", "cond", "--u", "0.3", "--v", "0.4", "--rho", "0.5"),
     lambda: bn.cond_cdf_given_u(0.3, 0.4, 0.5)),
    (("eval", "cond", "--u", "0.3", "--v", "0.4", "--rho", "0.5", "--given", "v"),
     lambda: bn.cond_cdf_given_v(0.3, 0.4, 0.5)),
    (("eval", "owen-t", "--h", "0.7", "--a", "1.3"), lambda: bn.owen_t(0.7, 1.3)),
    (("eval", "g", "--u", "0.3", "--rho", "0.6"), lambda: bn.diag_g(0.3, 0.6)),
    ((*_VASICEK, "--quantile", "0.99"), lambda: bn.Vasicek(0.3, 0.2).quantile(0.99)),
    ((*_VASICEK, "--cdf", "0.4"), lambda: bn.Vasicek(0.3, 0.2).cdf(0.4)),
    ((*_VASICEK, "--pdf-at", "0.4"), lambda: bn.Vasicek(0.3, 0.2).pdf(0.4)),
    ((*_VASICEK, "--mode"), lambda: bn.Vasicek(0.3, 0.2).mode()),
    ((*_VASICEK, "--median"), lambda: bn.Vasicek(0.3, 0.2).median()),
    ((*_VASICEK, "--shape"), lambda: bn.Vasicek(0.3, 0.2).shape()),
    (("dist", "skew-normal", "--lam", "1.5", "--pdf-at", "0.2"),
     lambda: bn.SkewNormal(1.5).pdf(0.2)),
]


class TestPinnedValues:
    @pytest.mark.parametrize("argv, library", PINNED, ids=[" ".join(a[1:]) for a, _ in PINNED])
    def test_value_is_the_library_value(self, capsys, argv, library):
        code, out, _ = run_cli(capsys, *argv)
        expected = library()
        assert code == 0
        assert out.split()[-1] == (expected if isinstance(expected, str)
                                   else format(float(expected), ".12g"))

    def test_vasicek_rows_in_order(self, capsys):
        code, out, _ = run_cli(
            capsys, *_VASICEK, "--shape", "--moments", "--median", "--mode", "--pdf-at", "0.4",
            "--cdf", "0.4", "--quantile", "0.99", "--format", "csv",
        )
        law = bn.Vasicek(0.3, 0.2)
        expected = [
            ("quantile", law.quantile(0.99)), ("cdf", law.cdf(0.4)), ("pdf", law.pdf(0.4)),
            ("mode", law.mode()), ("median", law.median()), ("mean", law.mean()),
            ("second_moment", law.second_moment()), ("variance", law.variance()),
            ("shape", law.shape()),
        ]
        rows = [(r["quantity"], r["value"]) for r in csv.DictReader(io.StringIO(out))]
        assert code == 0
        assert rows == [(q, v if isinstance(v, str) else format(float(v), ".12g"))
                        for q, v in expected]


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ("dist", "vasicek", "--moments", "--x", "1"),
        ("dist", "skew-normal", "--x", "0.7", "--quantile", "0.9"),
        ("dist", "skew-normal", "--x", "0.7", "--p", "0.9"),
        ("scan-bounds", "--kind", "lower_thm1", "--abs-tol", "1e-3"),
    ])
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


class TestCompare:
    def test_small_grid_errors_tiny(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--h-grid", "0.5", "-1", "--k-grid", "0", "--rho", "0.3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        points = [r for r in rows if r["kind"] == "point"]
        assert points and all(float(r["abs_error"]) < 1e-9 for r in points)
        summaries = [r for r in rows if r["kind"] == "summary"]
        assert {r["engine"] for r in summaries} >= {"owen", "tetrachoric"}

    def test_engine_rejected_diagnostic(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--engines", "tetrachoric", "--rho", "0.9",
            "--h-grid", "0.5", "--k-grid", "0.5", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["status"].startswith("rejected") for r in rows)

    def test_unconverged_engine_reported_per_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--rho", "0.99", "--h-grid", "3", "--k-grid", "3",
            "--engines", "owen", "single_factor_quadrature", "--format", "csv",
        )
        assert code == 0
        status = {(r["kind"], r["engine"]): r["status"] for r in csv.DictReader(io.StringIO(out))}
        assert status[("point", "owen")] == "ok"
        assert status[("point", "single_factor_quadrature")].startswith("unconverged (estimate ")
        assert ("summary", "owen") in status
        assert ("summary", "single_factor_quadrature") not in status

    def test_mc_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--h-grid", "0", "--k-grid", "0", "--rho", "0.3",
            "--engines", "owen", "--mc-paths", "40000", "--seed", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        mc = [r for r in rows if r["engine"] == "mc"]
        assert len(mc) == 1
        assert float(mc[0]["abs_error"]) < 0.02


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as info:
            main(["compare", "--rho", "high"])
        assert info.value.code == 2
        code, out, _ = run_cli(
            capsys, "compare", "--h-grid", "0.5", "--k-grid", "-1", "--rho", "0.3",
            "--engines", "owen", "--format", "csv",
        )
        assert code == 0 and len(out.splitlines()) == 3
        # The flags given above must not leak into the shared defaults.
        code, out, _ = run_cli(capsys, "compare", "--engines", "owen", "--format", "csv")
        points = [r for r in csv.DictReader(io.StringIO(out)) if r["kind"] == "point"]
        assert code == 0 and len(points) == 7 * 7 * 10
        assert {float(r["h"]) for r in points} == {-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0}
        with pytest.raises(SystemExit) as info:
            main(["compare", "--rho", "high"])
        assert info.value.code == 2


class TestScanBounds:
    def test_reproduces_worst_case(self, capsys):
        code, out, _ = run_cli(capsys, "scan-bounds", "--kind", "upper_thm2", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["max_abs_error"] - 0.05263) < 5e-4
        assert abs(row["rho_at_max"] - 0.7712) < 1e-3
        assert row["u_at_max"] == pytest.approx(0.5, abs=1e-5)

    def test_custom_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan-bounds", "--kind", "lower_thm1", "--grid", "80x80", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["n_u"] == 80 and row["n_rho"] == 80
        assert abs(row["max_abs_error"] - 0.25) < 1e-5


class TestConcordance:
    def test_json_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "concordance", "--measure", "gini", "--rho", "0.6",
            "--numeric", "--invert", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            assert set(row) == {"kind", "measure", "rho", "value"}
            assert row["measure"] == "gini_gamma"
            assert -1.0 <= row["value"] <= 1.0
        inverted = [r for r in rows if r["kind"] == "inverted"]
        assert inverted and abs(inverted[0]["rho"] - 0.6) < 1e-9

    def test_alias_and_canonical_names(self, capsys):
        _, out1, _ = run_cli(capsys, "concordance", "--measure", "tau", "--rho", "0.5")
        _, out2, _ = run_cli(capsys, "concordance", "--measure", "kendall_tau", "--rho", "0.5")
        assert out1 == out2
        assert "0.333333333333" in out1


class TestDist:
    def test_vasicek_quantile(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "vasicek", "--p", "0.02", "--rho", "0.15",
            "--quantile", "0.999",
        )
        assert code == 0
        assert abs(float(out.split()[-1]) - 0.176328939146198) < 1e-10

    def test_vasicek_moments_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "vasicek", "--p", "0.5", "--rho", "0.5", "--moments",
            "--shape", "--format", "csv",
        )
        assert code == 0
        rows = {r["quantity"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
        assert abs(float(rows["second_moment"]) - 1 / 3) < 1e-10
        assert rows["shape"] == "monotone"

    def test_vasicek_mode_domain_exit(self, capsys):
        code, _, err = run_cli(capsys, "dist", "vasicek", "--p", "0.5", "--rho", "0.7", "--mode")
        assert code == 2
        assert "mode" in err

    def test_skew_normal(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "skew-normal", "--lam", "1.5", "--x", "0.7")
        assert code == 0
        assert abs(float(out.split()[-1]) - 0.5407098199050944) < 1e-9

    def test_nothing_requested(self, capsys):
        code, _, err = run_cli(capsys, "dist", "vasicek", "--p", "0.3", "--rho", "0.2")
        assert code == 2


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        args = (
            "compare", "--h-grid", "0", "1", "--k-grid", "-0.5", "--rho", "0.6",
            "--mc-paths", "20000", "--seed", "3", "--format", "csv",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_csv_headers_stable(self, capsys):
        _, out, _ = run_cli(
            capsys, "compare", "--h-grid", "0", "--k-grid", "0", "--rho", "0.1",
            "--engines", "owen", "--format", "csv",
        )
        assert out.splitlines()[0] == "kind,engine,h,k,rho,status,value,abs_error"
        _, out, _ = run_cli(capsys, "scan-bounds", "--kind", "lower_thm2", "--format", "csv")
        assert out.splitlines()[0] == (
            "kind,max_abs_error,u_at_max,rho_at_max,min_signed_error,n_u,n_rho"
        )


class TestEvalUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ("owen-t", "--h", "0", "--a", "1", "--u", "0.5", "--rho", "0.3", "--method", "owen",
         "--abs-tol", "1e-3"),
        ("owen-t", "--h", "0", "--a", "1", "--method", "auto"),
        ("g", "--u", "0.3", "--rho", "0.6", "--v", "0.4"),
        ("density", "--u", "0.3", "--v", "0.4", "--rho", "0.5", "--given", "u"),
        ("cond", "--u", "0.3", "--v", "0.4", "--rho", "0.5", "--rel-tol", "1e-6"),
        ("copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5", "--given", "v"),
        ("phi2", "--h", "0.3", "--k", "-0.4", "--rho", "0.5", "--u", "0.3"),
    ])
    def test_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert f"eval {argv[0]} does not read" in err

    def test_read_flags_still_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "phi2", "--h", "0", "--k", "0", "--rho", "0.5",
            "--method", "owen", "--abs-tol", "1e-10", "--rel-tol", "1e-10",
        )
        assert code == 0 and out.strip() == "0.333333333333"


class TestCompareChecksGridFirst:
    def test_mc_rho_out_of_range_exits_before_any_work(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("bivnorm.cli.quad2d_phi2", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "compare", "--rho", "0.3", "0.6", "0.995",
                                 "--mc-paths", "1000")
        assert code == 2 and out == ""
        assert "|rho| < 0.99" in err
        assert calls == []
