import json
import math
from importlib import resources

import jsonschema
import pytest

from robustprice import cli, delta_star, optimal_price_general, power_market, sigma_star


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_OK, err
    return json.loads(out)


def usage_error(capsys, argv):
    """Run argv, require the flag-error exit and no stdout; return stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    cap = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert cap.out == ""
    return cap.err


def _printed(x):
    """A number as the CLI prints it in JSON: 12 significant digits."""
    return float(f"{x:.12g}")


def schema(name):
    text = resources.files("robustprice").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


class TestPrice:
    def test_table_row(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--sigma", "0.30",
                                "--beta", "1"])
        assert obj["price"] == pytest.approx(0.2967, abs=5e-4)
        assert obj["value"] == pytest.approx(0.3147, abs=5e-4)
        assert obj["regime"] == "low"
        jsonschema.validate(obj, schema("price"))

    def test_objective_both(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--sigma", "0.1",
                                "--beta", "1", "--objective", "both"])
        assert obj["cr"]["price"] == pytest.approx(0.3672, abs=5e-4)
        assert obj["rev"]["price"] == pytest.approx(0.3301, abs=5e-4)
        jsonschema.validate(obj["cr"], schema("price"))
        jsonschema.validate(obj["rev"], schema("price"))

    def test_beta_inf(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "inf"])
        assert obj["price"] == pytest.approx(0.2733, abs=5e-4)
        assert obj["threshold"] == "inf"
        jsonschema.validate(obj, schema("price"))

    def test_power_measure(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--s", "0.45",
                                "--phi", "power:q=1.5", "--beta", "1"])
        labels = {c[0] for c in obj["candidates"]}
        assert "hat_p_h" in labels
        jsonschema.validate(obj, schema("price"))

    def test_power_both_objectives_print_the_library(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--s", "0.45", "--phi", "power:q=1.5",
                                "--beta", "1", "--objective", "both"])
        for objective in ("cr", "rev"):
            sol = optimal_price_general(power_market(0.5, 0.45, 1.5, 1.0), objective)
            got = obj[objective]
            jsonschema.validate(got, schema("price"))
            assert (got["price"], got["value"], got["label"], got["regime"]) == (
                _printed(sol.price), _printed(sol.value), sol.label, sol.regime)
            assert got["candidates"] == [[label, _printed(p), _printed(v)]
                                         for label, p, v in sol.candidates]

    @pytest.mark.parametrize("mu,sigma,beta", [("0.5", "0.3", "1"), ("0.5", "0.45", "1"),
                                               ("1.2", "0.5", "3"), ("0.5", "0.3", "inf")])
    def test_s_on_variance_prints_the_sigma_answer(self, capsys, mu, sigma, beta):
        # --phi defaults to variance, so --s mu**2 + sigma**2 is the same market:
        # the same table, candidates and threshold, byte for byte.
        s = repr(float(mu) ** 2 + float(sigma) ** 2)
        tail = ["--beta", beta, "--objective", "both"]
        _, by_sigma, _ = run(capsys, ["price", "--mu", mu, "--sigma", sigma, *tail])
        code, by_s, _ = run(capsys, ["price", "--mu", mu, "--s", s, *tail])
        assert code == cli.EXIT_OK and by_s == by_sigma
        assert json.loads(by_s)["cr"]["threshold"] is not None

    def test_point_mass_prints_the_threshold(self, capsys):
        tail = ["--beta", "1", "--objective", "both"]
        by_sigma = run_json(capsys, ["price", "--mu", "0.5", "--sigma", "0", *tail])
        by_s = run_json(capsys, ["price", "--mu", "0.5", "--s", "0.25", *tail])
        assert by_s == by_sigma
        assert by_sigma["cr"]["threshold"] == _printed(sigma_star(0.5, 1.0))
        assert by_sigma["rev"]["threshold"] == _printed(delta_star(0.5, 1.0))
        jsonschema.validate(by_sigma["cr"], schema("price"))

    def test_compat_flag_changes_price(self, capsys):
        obj = run_json(capsys, ["price", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "inf", "--compat-printed-pl"])
        assert obj["price"] == pytest.approx(0.3077, abs=5e-4)

    def test_infeasible_exit_code(self, capsys):
        code, out, err = run(capsys, ["price", "--mu", "0.5", "--sigma", "0.8",
                                      "--beta", "1"])
        assert code == cli.EXIT_INFEASIBLE
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("sub", [["price"], ["cr", "--p", "0.3"]])
    def test_power_threshold_beyond_the_floats_is_infeasible(self, capsys, sub):
        # q near 1 puts t2 = (s / mu)**(1 / (q - 1)) past the largest float:
        # t2 = inf exceeds any finite beta, not a traceback.
        code, out, err = run(capsys, [*sub, "--mu", "0.5", "--s", "1.0", "--beta", "2",
                                      "--phi", "power:q=1.0005"])
        assert code == cli.EXIT_INFEASIBLE
        assert out == ""
        assert json.loads(err)["error"] == "InfeasibleMarketError"

    def test_flag_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["price", "--mu", "0.5"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_unknown_phi_exit_code(self, capsys):
        err = usage_error(capsys, ["price", "--mu", "0.5", "--s", "0.3",
                                   "--beta", "1", "--phi", "entropy"])
        assert "--phi" in err

    @pytest.mark.parametrize("phi", ["power:q=abc", "power:q=0.5", "power:q=inf"])
    def test_bad_power_exponent_exit_code(self, capsys, phi):
        err = usage_error(capsys, ["price", "--mu", "0.5", "--s", "0.3",
                                   "--beta", "1", "--phi", phi])
        assert "--phi" in err

    def test_abbreviated_flag_rejected(self, capsys):
        # With prefix matching, --p would be read as --phi.
        err = usage_error(capsys, ["price", "--mu", "0.5", "--sigma", "0.3",
                                   "--beta", "1", "--p", "0.3"])
        assert "--p" in err

    def test_abbreviated_flag_rejected_on_subcommands(self, capsys):
        usage_error(capsys, ["cr", "--mu", "0.5", "--sig", "0.5",
                             "--beta", "1.2", "--p", "0.25"])

    @pytest.mark.parametrize("sigma,code", [("0.5000000000003", cli.EXIT_OK),
                                            ("0.500000000002", cli.EXIT_INFEASIBLE)])
    @pytest.mark.parametrize("sub", [["price"], ["cr", "--p", "0.9"], ["bounds", "--p", "0.9"]])
    def test_feasibility_near_the_cap(self, capsys, sub, sigma, code):
        # One rule: price, cr and bounds accept and reject the same markets.
        got, out, _ = run(capsys, [sub[0], "--mu", "0.5", "--sigma", sigma, "--beta", "1",
                                   *sub[1:]])
        assert got == code
        assert (out != "") == (code == cli.EXIT_OK)

    def test_maximal_dispersion(self, capsys):
        # mu + sigma**2 / mu rounds above beta here; the only member is {0, 1}.
        obj = run_json(capsys, ["price", "--mu", "0.1", "--sigma", "0.30000000000000004",
                                "--beta", "1", "--objective", "both"])
        assert (obj["cr"]["price"], obj["cr"]["value"]) == (1.0, 1.0)
        assert (obj["rev"]["price"], obj["rev"]["value"]) == (1.0, 0.1)


@pytest.mark.parametrize("argv", [
    ["price"], ["cr", "--p", "0.6"], ["bounds", "--p", "0.6"], ["dist", "--p", "0.6"],
    ["sweep", "--vary", "beta", "--values", "1.2"]])
def test_sigma_and_s_are_exclusive(capsys, argv):
    err = usage_error(capsys, [argv[0], "--mu", "0.5", "--sigma", "0.3", "--s", "0.4",
                               "--beta", "1", *argv[1:]])
    assert "not allowed with argument" in err


@pytest.mark.parametrize("argv", [
    ["price"], ["cr", "--p", "0.6"], ["bounds", "--p", "0.6"], ["dist", "--p", "0.6"],
    ["sweep", "--vary", "beta", "--values", "1.2"]])
@pytest.mark.parametrize("spread,message", [
    ([], "one of --sigma or --s is required"),
    (["--sigma", "0.3", "--phi", "power:q=1.5"], "--sigma applies to the variance measure")])
def test_dispersion_flag_errors(capsys, argv, spread, message):
    err = usage_error(capsys, [argv[0], "--mu", "0.5", "--beta", "1", *spread, *argv[1:]])
    assert message in err


# One argv per numeric flag with a nan (or inf, or non-numeric) value swapped
# in, plus a negative --eps; each must be a flag error naming the flag, not an
# infeasible market.
_MARKET = ["--mu", "0.5", "--sigma", "0.3", "--beta", "1"]
_NONFINITE_FLAGS = [
    ("--mu", ["price", "--mu", "nan", "--sigma", "0.3", "--beta", "1"]),
    ("--mu", ["price", "--mu", "inf", "--sigma", "0.3", "--beta", "1"]),
    ("--sigma", ["price", "--mu", "0.5", "--sigma", "nan", "--beta", "1"]),
    ("--s", ["price", "--mu", "0.5", "--s", "nan", "--beta", "1",
             "--phi", "power:q=1.5"]),
    ("--beta", ["price", "--mu", "0.5", "--sigma", "0.3", "--beta", "nan"]),
    ("--beta", ["price", "--mu", "0.5", "--sigma", "0.3", "--beta", "abc"]),
    ("--p", ["cr", *_MARKET, "--p", "nan"]),
    ("--p", ["bounds", *_MARKET, "--p", "nan"]),
    ("--eps", ["dist", *_MARKET, "--p", "0.3", "--eps", "nan"]),
    ("--eps", ["dist", *_MARKET, "--p", "0.3", "--eps", "-0.1"]),
    ("--from", ["sweep", *_MARKET, "--vary", "sigma", "--from", "nan", "--to", "0.4"]),
    ("--to", ["sweep", *_MARKET, "--vary", "sigma", "--from", "0.1", "--to", "nan"]),
    ("--values", ["sweep", *_MARKET, "--vary", "beta", "--values", "1,nan"]),
    ("--values", ["sweep", *_MARKET, "--vary", "beta", "--values", "1,abc"]),
    ("--sigma", ["compare", "--mu", "0.5", "--sigma", "nan", "--beta", "1"]),
]


@pytest.mark.parametrize("flag,argv", _NONFINITE_FLAGS,
                         ids=[f"{a[0]}{f}={a[a.index(f) + 1]}" for f, a in _NONFINITE_FLAGS])
def test_nonfinite_flag_is_flag_error(capsys, flag, argv):
    err = usage_error(capsys, argv)
    assert f"argument {flag}" in err


def test_inf_beta_still_accepted(capsys):
    out = run_json(capsys, ["cr", "--mu", "0.5", "--sigma", "0.3", "--beta", "inf",
                            "--p", "0.3"])
    assert out["p"] == 0.3


@pytest.mark.parametrize("argv", [
    ["price"], ["cr", "--p", "0.3"], ["cr", "--p", "0.3", "--mode", "upper"],
    ["bounds", "--p", "0.3"], ["dist", "--p", "0.3"], ["compare"],
    ["sweep", "--vary", "beta", "--values", "1.2"]])
def test_negative_sigma_is_rejected(capsys, argv):
    # Every subcommand builds its --sigma market by variance_market.
    code, out, err = run(capsys, [argv[0], "--mu", "0.5", "--sigma", "-0.3", "--beta", "1",
                                  *argv[1:]])
    assert (code, out) == (cli.EXIT_INFEASIBLE, "")
    assert json.loads(err)["detail"] == "sigma must be nonnegative, got -0.3"


class TestCr:
    def test_breakdown(self, capsys):
        obj = run_json(capsys, ["cr", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "1.2", "--p", "0.25"])
        assert obj["cr"] == pytest.approx(0.2083, abs=5e-5)
        assert obj["branch"] == "price_over_cond_exp"
        assert obj["tail_ratio"] == pytest.approx(0.4386, abs=5e-5)
        jsonschema.validate(obj, schema("cr"))

    def test_upper_mode(self, capsys):
        obj = run_json(capsys, ["cr", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "1.2", "--p", "0.3", "--mode", "upper"])
        assert obj["cr"] == pytest.approx(0.2222, abs=5e-5)
        assert obj["mode"] == "upper"
        jsonschema.validate(obj, schema("cr"))


class TestBounds:
    def test_values(self, capsys):
        obj = run_json(capsys, ["bounds", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "1.2", "--p", "0.6"])
        assert obj["sup_tail"] == pytest.approx(0.5556, abs=5e-5)
        assert obj["inf_tail"] == pytest.approx(0.2778, abs=5e-5)
        assert obj["sup_cond_exp"] == pytest.approx(1.2)
        assert obj["regime"] == "mid_three_point"
        jsonschema.validate(obj, schema("bounds"))


class TestDist:
    def test_three_point(self, capsys):
        obj = run_json(capsys, ["dist", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "1.2", "--p", "0.6"])
        assert len(obj["supports"]) == 3
        assert obj["mean"] == pytest.approx(0.5, abs=1e-9)
        assert obj["dispersion"] == pytest.approx(0.5, abs=1e-6)
        jsonschema.validate(obj, schema("dist"))

    def test_eps_zero_selects_the_default(self, capsys):
        argv = ["dist", "--mu", "0.5", "--sigma", "0.3", "--beta", "1", "--p", "0.2"]
        assert run_json(capsys, [*argv, "--eps", "0"]) == run_json(capsys, argv)


class TestCompare:
    def test_report(self, capsys):
        obj = run_json(capsys, ["compare", "--mu", "0.5", "--sigma", "0.45",
                                "--beta", "1"])
        assert obj["pi_h"] == pytest.approx(0.6918, abs=5e-4)
        assert obj["p_h"] == pytest.approx(0.6406, abs=5e-4)
        assert obj["high_ordering_applies"] and obj["high_ordering_holds"]
        jsonschema.validate(obj, schema("compare"))


class TestSweep:
    def test_sigma_sweep_matches_reference(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                    "--beta", "1", "--vary", "sigma",
                                    "--from", "0.05", "--to", "0.45",
                                    "--steps", "9"])
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "param,price,regime,value"
        ref = {0.05: 0.4076, 0.10: 0.3672, 0.30: 0.2967, 0.45: 0.6406}
        for line in lines[1:]:
            param, price, regime, value = line.split(",")
            if float(param) in ref:
                assert float(price) == pytest.approx(ref[float(param)], abs=5e-4)

    def test_beta_sweep_with_inf(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0.5",
                                    "--beta", "1", "--vary", "beta",
                                    "--values", "1.2,1.5,1.8,inf"])
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        expect = {"1.200000": ("p_h1", 0.6000), "1.500000": ("p_h2", 0.5000),
                  "1.800000": ("p_l", 0.2733), "inf": ("p_l", 0.2733)}
        for param, price, regime, value in rows:
            label, p_ref = expect[param]
            assert regime == label
            assert float(price) == pytest.approx(p_ref, abs=5e-4)

    def test_objective_both_columns(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                    "--beta", "1", "--vary", "sigma",
                                    "--values", "0.1,0.45", "--objective", "both"])
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "param,price,regime,value,price_rev,value_rev"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.3672, abs=5e-4)
        assert float(first[4]) == pytest.approx(0.3301, abs=5e-4)

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--mu", "0.5", "--sigma", "0", "--beta", "1",
                "--vary", "sigma", "--from", "0.05", "--to", "0.45",
                "--steps", "5"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_infeasible_value_exit_code(self, capsys):
        code, _, err = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                    "--beta", "1", "--vary", "sigma",
                                    "--values", "0.1,0.8"])
        assert code == cli.EXIT_INFEASIBLE

    def test_power_q_both_objectives_print_the_library(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--mu", "0.5", "--s", "0.45", "--beta", "1",
                                    "--vary", "q", "--values", "1.3,1.5,2.5",
                                    "--objective", "both"])
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row, q in zip(rows, (1.3, 1.5, 2.5), strict=True):
            cr, rev = (optimal_price_general(power_market(0.5, 0.45, q, 1.0), objective)
                       for objective in ("cr", "rev"))
            assert row == [f"{q:.6f}", f"{cr.price:.6f}", cr.label, f"{cr.value:.6f}",
                           f"{rev.price:.6f}", f"{rev.value:.6f}"]

    def test_varied_spread_replaces_the_other_flag(self, capsys):
        # Varying sigma drops --s, and varying s drops --sigma.
        tail = ["--beta", "1", "--values", "0.1,0.3"]
        _, by_sigma, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                      "--vary", "sigma", *tail])
        _, over_s, _ = run(capsys, ["sweep", "--mu", "0.5", "--s", "0.4",
                                    "--vary", "sigma", *tail])
        assert over_s == by_sigma and by_sigma.count("\n") == 3
        tail = ["--beta", "1", "--phi", "power:q=1.5", "--values", "0.40,0.45"]
        _, by_s, _ = run(capsys, ["sweep", "--mu", "0.5", "--s", "0.42",
                                  "--vary", "s", *tail])
        _, over_sigma, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0.2",
                                        "--vary", "s", *tail])
        assert over_sigma == by_s and by_s.count("\n") == 3

    def test_missing_range_exit_code(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                  "--beta", "1", "--vary", "sigma"])
        assert code == cli.EXIT_USAGE

    def test_unwritable_output_exit_code(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                       "--beta", "1", "--vary", "sigma",
                                       "--values", "0.1,0.2",
                                       "--out", "/nonexistent-dir/sweep.csv"])
        assert code == cli.EXIT_OUTPUT
        assert stdout == ""
        code, stdout, _ = run(capsys, ["price", "--mu", "0.5", "--sigma", "0.3",
                                       "--beta", "1",
                                       "--out", "/nonexistent-dir/x.json"])
        assert code == cli.EXIT_OUTPUT
        assert stdout == ""

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, ["sweep", "--mu", "0.5", "--sigma", "0",
                                       "--beta", "1", "--vary", "sigma",
                                       "--values", "0.1,0.2",
                                       "--out", str(out)])
        assert code == cli.EXIT_OK
        assert stdout == ""
        data = out.read_bytes()
        assert data.startswith(b"param,price,regime,value\n")
        assert b"\r" not in data


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "3", "--grid", "61",
                                    "--seed", "7"])
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "check,instances,max_deviation,tolerance,pass"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["table1_reproduction", "oracle_sandwich_cr",
                         "witness_agreement", "dual_certificates",
                         "four_point_control", "best_case_rev_monotone"]
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_low_regime_instances_pass_at_grid_41(self, capsys):
        # One instance sits in the low regime where the worst member is
        # {p-, a(p)}; without the companion a(p) in the oracle grid the
        # sandwich gap read 3.086e-02 > 0.02 and the command exited 4.
        code, out, _ = run(capsys, ["verify", "--trials", "3", "--grid", "41",
                                    "--seed", "1445277925"])
        assert code == cli.EXIT_OK
        assert all(line.endswith(",pass") for line in out.strip().split("\n")[1:])

    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"),
                                            ("--grid", "5"), ("--grid", "20"),
                                            ("--grid", "2.5"), ("--seed", "-1")])
    def test_too_small_counts_are_flag_errors(self, capsys, flag, value):
        err = usage_error(capsys, ["verify", flag, value])
        assert f"argument {flag}" in err

    def test_smallest_counts_accepted(self):
        args = cli.build_parser().parse_args(["verify", "--trials", "1", "--grid", "21"])
        assert (args.trials, args.grid) == (1, 21)

    def test_compat_flag_fails_table1(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "2", "--grid", "61",
                                    "--seed", "7", "--compat-printed-pl"])
        assert code == cli.EXIT_VERIFY
        table_row = [line for line in out.strip().split("\n")
                     if line.startswith("table1_reproduction")][0]
        assert table_row.endswith(",FAIL")


class TestLogging:
    def test_log_env_keeps_stdout_clean(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBUSTPRICE_LOG", "debug")
        obj = run_json(capsys, ["cr", "--mu", "0.5", "--sigma", "0.5",
                                "--beta", "1.2", "--p", "0.25"])
        assert obj["cr"] == pytest.approx(0.2083, abs=5e-5)
