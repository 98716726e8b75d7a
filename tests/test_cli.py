import ast
import importlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

from fractions import Fraction as F

from pstirling import edgeworth, levy, moments, oracle, randomvars
from pstirling.cli import (
    MAX_EDGEWORTH_N,
    MAX_GRID_POINTS,
    MAX_IRWIN_HALL_S,
    MAX_JMAX,
    MAX_MC_SAMPLES,
    MAX_MOMENTS_N,
    MAX_RATIONAL_DIGITS,
    _emit,
    _parse_grid,
    dist_from_json,
    main,
    process_from_json,
)
from pstirling.powerseries import QC


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStirlingCommand:
    def test_rademacher_table(self, capsys):
        code, out, _ = run_cli(capsys, "stirling", "--dist", "rademacher", "--jmax", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,m,re,im"
        assert "4,2,3,0" in lines
        # the full triangle, zeros included: 1 + sum_{j<=6} (j+1) rows
        assert len(lines) == 1 + sum(j + 1 for j in range(7))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "stirling", "--dist", "exponential", "--jmax", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert {"j": 3, "m": 2, "re": "6", "im": "0"} in rows

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "stirling", "--dist", "uniformstd", "--jmax", "4", "--mode", "float"
        )
        assert code == 0
        assert "4,1,1.8,0.0" in out  # S(4,1) = mu_4 = 9/5

    def test_complex_table(self, tmp_path, capsys):
        config = tmp_path / "complex.json"
        moments = ["1", {"re": "1/2", "im": "1/3"}, "2"]
        config.write_text(json.dumps({"dist": {"dist": "custom", "moments": moments}}))
        code, out, _ = run_cli(capsys, "stirling", "--config", str(config), "--jmax", "2")
        assert code == 0
        # S(1,1) = mu_1, S(2,1) = mu_2 and S(2,2) = mu_1^2 = 5/36 + i/3
        assert out == "j,m,re,im\n0,0,1,0\n1,0,0,0\n1,1,1/2,1/3\n2,0,0,0\n2,1,2,0\n2,2,5/36,1/3\n"


class TestMomentsCommand:
    def test_rademacher_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--dist", "rademacher", "--n", "3", "--jmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,j,value"
        assert "3,4,21" in lines

    def test_edgeworth_cap_leaves_n_free(self, capsys):
        n = 4 * MAX_EDGEWORTH_N
        code, out, _ = run_cli(
            capsys, "moments", "--dist", "rademacher", "--n", str(n), "--jmax", "4"
        )
        assert code == 0
        assert f"{n},4,{3 * n * n - 2 * n}" in out.split("\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit"
    )
    def test_output_past_the_int_str_digit_limit(self, capsys):
        c, n = 99999999999999999999, 10**6
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(
                capsys, "moments", "--dist", "pointmass", "--param", str(c), "--n", str(n),
                "--jmax", "30",
            )
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        try:
            expected = [f"{n},{j},{(n * c) ** j}" for j in range(31)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.strip().split("\n")[1:] == expected
        assert len(expected[-1]) > 640

    def test_float_overflow_is_one_line_exit_2(self, capsys):
        # E S_1000^132 of Rademacher steps is the first value of this sweep past the float range
        argv = ("moments", "--dist", "rademacher", "--n", "1000", "--mode", "float", "--jmax")
        assert run_cli(capsys, *argv, "131")[0] == 0
        code, out, err = run_cli(capsys, *argv, "132")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("pstirling: error: ")
        assert "overflows a float" in err and "--mode exact" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_overflow_creates_no_out_file(self, tmp_path, capsys, fmt):
        # every row is formatted before --out is opened
        target = tmp_path / "sweep.out"
        code, out, err = run_cli(
            capsys, "moments", "--dist", "rademacher", "--n", "1000", "--mode", "float",
            "--jmax", "132", "--format", fmt, "--out", str(target),
        )
        assert (code, out) == (2, "") and "overflows a float" in err
        assert not target.exists()

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--dist", "rademacher", "--jmax", "4")
        assert code == 2
        assert "error" in err

    def test_param_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--dist", "bernoulli", "--param", "1/2", "--n", "2", "--jmax", "2"
        )
        assert code == 0
        assert "2,2,3/2" in out  # E S_2^2 = 2 p + 2 p^2 = 3/2


class TestNegativeValues:
    """A value after a space that starts with a minus and a digit is the flag's value."""

    def test_a_negative_rational_param(self, capsys):
        code, out, err = run_cli(
            capsys, "stirling", "--dist", "pointmass", "--param", "-3/2", "--jmax", "1"
        )
        assert (code, err) == (0, "") and out.splitlines()[-1] == "1,1,-3/2,0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stirling", "--dist", "pointmass", "--param", "-.5", "--jmax", "3"],
            ["moments", "--dist", "pointmass", "--param", "-7", "--n", "3", "--jmax", "4"],
            ["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid", "-1:1:1"],
            ["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid", "-.5:1/2:1/4"],
        ],
    )
    def test_a_space_reads_as_the_equals_sign(self, capsys, argv):
        joined = []
        for token in argv:
            if token[0] == "-" and token[1:2] != "-":
                joined[-1] += "=" + token
            else:
                joined.append(token)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert run_cli(capsys, *joined) == (code, out, err)


class TestCumulantsCommand:
    def test_poisson(self, capsys):
        code, out, _ = run_cli(capsys, "cumulants", "--dist", "poisson", "--param", "1", "--jmax", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,value"
        assert lines[1:] == [f"{j},1" for j in range(1, 6)]


class TestLevyCommand:
    def test_poisson_subordinator(self, capsys):
        code, out, _ = run_cli(capsys, "levy", "--dist", "poisson", "--t", "1/2", "--jmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,j,value"
        assert "1/2,3,1" in lines
        assert "1/2,4,5" in lines  # 3 + 1/t at t = 1/2

    @pytest.mark.parametrize("dist", ["poisson", "gamma", "unitjump", "gaussian"])
    def test_float_mode_rounds_the_exact_value(self, capsys, dist):
        for t in ("3/7", "1/3", "5/3", "2/9"):
            argv = ["levy", "--dist", dist, "--t", t, "--jmax", "12"]
            _, exact, _ = run_cli(capsys, *argv)
            _, floats, _ = run_cli(capsys, *argv, "--mode", "float")
            assert len(floats.split()) == len(exact.split()) == 14
            for e, f in zip(exact.split()[1:], floats.split()[1:]):
                t_exact, j, value = e.split(",")
                assert f == f"{float(F(t_exact))!r},{j},{float(F(value))!r}"

    def test_process_config(self, tmp_path, capsys):
        config = tmp_path / "process.json"
        config.write_text(
            json.dumps({"process": {"tau2": "1", "tstar_moments": ["1", "2", "6", "24"]}, "t": "1"})
        )
        code, out, _ = run_cli(capsys, "levy", "--config", str(config), "--jmax", "3")
        assert code == 0
        assert "1,3,2" in out  # gamma process h_3 = 2

    def test_dist_flag_replaces_the_config_process(self, tmp_path, capsys):
        config = tmp_path / "process.json"
        process = {"tau2": "1", "tstar_moments": ["1", "2", "6", "24"]}  # the gamma process
        config.write_text(json.dumps({"process": process}))
        gamma = run_cli(capsys, "levy", "--config", str(config), "--jmax", "3")
        assert gamma == run_cli(capsys, "levy", "--dist", "gamma", "--jmax", "3")
        poisson = run_cli(capsys, "levy", "--config", str(config), "--dist", "poisson",
                          "--jmax", "3")
        assert poisson == run_cli(capsys, "levy", "--dist", "poisson", "--jmax", "3")
        assert poisson[0] == 0 and poisson != gamma

    def test_unknown_process(self, capsys):
        code, _, err = run_cli(capsys, "levy", "--dist", "weibull", "--t", "1")
        assert code == 2
        assert "error" in err

    def test_param_is_refused(self, capsys):
        # it was ignored: --dist poisson --param 3 printed the rate-1 process
        code, out, err = run_cli(capsys, "levy", "--dist", "poisson", "--param", "3")
        assert (code, out) == (2, "")
        assert err == "pstirling: error: levy does not take --param\n"

    def test_config_moments_past_jmax_are_cut(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(40)
        tstar = ["1"] + [f"{rng.randrange(10**18, 10**19)}/{rng.randrange(10**18, 10**19)}"
                         for _ in range(39)]
        orders = []
        real = levy.levy_process_moments

        def recording(spec, order, t):
            orders.append((spec.tstar_moments.order, order))
            return real(spec, order, t)

        # the T* moments that each run's one series exp reads, and its order
        monkeypatch.setattr(levy, "levy_process_moments", recording)
        config = tmp_path / "process.json"

        def run(moments):
            config.write_text(json.dumps({"process": {"tau2": "1", "tstar_moments": moments}}))
            return run_cli(capsys, "levy", "--config", str(config), "--jmax", "8", "--t", "2/3")

        full, cut = run(tstar), run(tstar[:9])
        assert full == cut and full[0] == 0 and len(full[1].split()) == 10
        assert orders == [(8, 8), (8, 8)]
        tstar[20] = "-1"
        code, out, err = run(tstar)
        assert (code, out) == (2, "")
        assert err == "pstirling: error: T* moments must be nonnegative\n"


def _p_q(value) -> str:
    """An exact value as the CLI prints it: p/q, a complex one as p/q+p/qi."""
    value = QC.of(value)
    if value.is_real:
        return str(value.re)
    return f"{value.re}{'+' if value.im >= 0 else ''}{value.im}i"


def _rationals(seed, count, digits, signed=False, is_complex=False):
    """count random p/q strings of digits-digit parts; a complex entry is a {re, im} object."""
    rng = random.Random(seed)

    def one():
        p, q = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        return f"{rng.choice(('-', '')) if signed else ''}{p}/{q}"

    return [{"re": one(), "im": one()} if is_complex else one() for _ in range(count)]


class TestSweepsMatchThePapersRoutes:
    """moments and levy print one series exp each; the table and the ladder print the same bytes."""

    @pytest.mark.parametrize("dist, n, jmax", [
        ({"dist": "rademacher"}, 5, 12),
        ({"dist": "gamma", "a": "5/2"}, 7, 12),
        ({"dist": "poisson", "lambda": "99999999999999999999/7"}, 3, 10),
        ({"dist": "uniformstd"}, 1000, 10),
        ({"dist": "bernoulli", "p": "1/3"}, 2, 8),
        ({"dist": "custom", "moments": ["1"] + _rationals(50, 16, 19, signed=True)}, 1000, 16),
        ({"dist": "custom", "moments": ["1"] + _rationals(51, 12, 9, True, True)}, 7, 12),
    ], ids=["rademacher", "gamma", "poisson", "uniformstd", "bernoulli", "custom-19-digit",
            "custom-complex"])
    def test_moments_equal_the_table_route(self, tmp_path, capsys, dist, n, jmax):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"dist": dist}))
        code, out, err = run_cli(capsys, "moments", "--config", str(path), "--n", str(n),
                                 "--jmax", str(jmax))
        m = randomvars.moments_of(dist_from_json(dist), jmax)
        table = [f"{n},{j},{_p_q(moments.sum_moment(m, n, j))}" for j in range(jmax + 1)]
        assert (code, err) == (0, "")
        assert out == "\n".join(["n,j,value", *table]) + "\n"

    NAMED = {"poisson": levy.poisson_subordinator, "gamma": levy.gamma_subordinator,
             "unitjump": levy.compensated_unit_jump, "gaussian": levy.gaussian_part_only}

    @pytest.mark.parametrize("process, t, jmax", [
        ("poisson", "1/2", 12),
        ("gamma", "1/3", 14),
        ("unitjump", "5/3", 12),
        ("gaussian", "2/9", 12),
        ({"tau2": "7/3", "tstar_moments": ["1"] + _rationals(52, 16, 19)}, "2/3", 18),
        ({"sigma2": "1/3", "kappa2": "2/5", "u_moments": ["1"] + _rationals(53, 16, 19, True)},
         "9/4", 18),
    ], ids=["poisson", "gamma", "unitjump", "gaussian", "tstar-19-digit", "u-moments-19-digit"])
    def test_levy_equals_the_ladder_route(self, tmp_path, capsys, process, t, jmax):
        if isinstance(process, str):
            argv, spec = ["--dist", process], self.NAMED[process](jmax)
        else:
            path = tmp_path / "process.json"
            path.write_text(json.dumps({"process": process}))
            argv, spec = ["--config", str(path)], process_from_json(process, jmax)
        code, out, err = run_cli(capsys, "levy", *argv, "--t", t, "--jmax", str(jmax))
        ladder = [f"{t},{j},{_p_q(levy.levy_moment_g(spec, j, F(t)))}" for j in range(jmax + 1)]
        assert (code, err) == (0, "")
        assert out == "\n".join(["t,j,value", *ladder]) + "\n"

    def test_neither_command_builds_a_table_or_a_ladder(self, tmp_path, capsys, monkeypatch):
        def refused(*args):
            raise AssertionError("a Stirling table or a ladder was built")

        for module, name in [(moments, "psn_egf_cached"), (moments, "ladder"), (levy, "ladder")]:
            monkeypatch.setattr(module, name, refused)
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps({"dist": {"dist": "custom",
                                               "moments": ["1"] + _rationals(54, 8, 19)}}))
        process = tmp_path / "process.json"
        process.write_text(json.dumps({"process": {"tau2": "1",
                                                   "tstar_moments": ["1"] + _rationals(55, 8, 19)}}))
        for argv in [
            ("moments", "--dist", "gamma", "--param", "5/2", "--n", "7", "--jmax", "8"),
            ("moments", "--config", str(custom), "--n", "3", "--jmax", "8"),
            ("levy", "--dist", "gamma", "--t", "1/3", "--jmax", "8"),
            ("levy", "--dist", "unitjump", "--t", "1/3", "--jmax", "8"),
            ("levy", "--config", str(process), "--jmax", "8"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err, len(out.split())) == (0, "", 10), argv


class TestEdgeworthCommand:
    def test_uniform_with_oracle_column(self, capsys):
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "uniformstd", "--n", "16", "--K", "2",
            "--grid=-1:1:1",
        )
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "y,G,F_exact,edgeworth,abs_err"
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[4]) < 1e-3

    @pytest.mark.parametrize("y", ["1000000000", "-1000000000"])
    def test_far_tail_prints_the_normal_cdf(self, capsys, y):
        # each row printed nan in the expansion and error columns
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "uniformstd", "--n", "16", "--K", "30", f"--grid={y}:{y}:1"
        )
        g = "1.0" if y[0] != "-" else "0.0"
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"{float(y)},{g},{g},{g},0.0"

    def test_lattice_warning_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "rademacher", "--n", "16", "--K", "2", "--grid=0:1:1"
        )
        assert code == 0
        assert "lattice" in err
        assert out.startswith("y,G,edgeworth")
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize(
        "n, grid, points, seconds",
        [(512, "0:260:1", 261, 61), (64, f"1:{MAX_GRID_POINTS}:1", MAX_GRID_POINTS, 107)],
    )
    def test_irwin_hall_column_bounded_before_any_work(
        self, capsys, monkeypatch, n, grid, points, seconds
    ):
        def unavailable(*args, **kwargs):
            raise AssertionError("the command started work past its bound")

        monkeypatch.setattr(edgeworth, "edgeworth_model", unavailable)
        monkeypatch.setattr(oracle, "uniform_fn_exact", unavailable)
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "uniformstd", "--n", str(n), f"--grid={grid}"
        )
        assert code == 2 and out == ""
        assert err == (
            f"pstirling: error: the exact Irwin-Hall column of {points} grid points at n = {n} "
            f"would take about {seconds} s, more than {MAX_IRWIN_HALL_S} s\n"
        )

    @pytest.mark.parametrize("order", [0, 1])
    def test_too_few_moments_is_named_as_such(self, tmp_path, capsys, order):
        # a custom list of order + 1 moments: the fault is the moment order, not the source
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"dist": {"dist": "custom", "moments": ["1", "0"][: order + 1]}}))
        code, out, err = run_cli(capsys, "edgeworth", "--config", str(config), "--n", "4")
        assert code == 2 and out == ""
        assert err == f"pstirling: error: expansion needs moment order >= 2, not {order}\n"

    def test_a_short_custom_list_runs_on_the_moments_it_carries(self, tmp_path, capsys):
        # K = 2 reads moments through order 6; these five carry order 4, all that K = 2 needs
        # here, and print what an explicit --jmax 4 printed when the command took one
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"dist": {"dist": "custom", "moments": ["1", "0", "1", "0", "2"]}}))
        assert run_cli(capsys, "edgeworth", "--config", str(config), "--n", "4", "--K", "2",
                       "--grid=-1:1:1") == (0, (
            "y,G,edgeworth\n"
            "-1.0,0.15865525393145707,0.16369631069227256\n"
            "0.0,0.5,0.5\n"
            "1.0,0.8413447460685429,0.8363036893077275\n"
        ), "")

    def test_lattice_warning_is_the_librarys_printed_once(self, capsys):
        with pytest.warns(edgeworth.LatticeWarning) as caught:
            edgeworth.edgeworth_cdf(edgeworth.edgeworth_model(randomvars.rademacher(), K=2), 16, 1.0)
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "rademacher", "--n", "16", "--grid=-2:2:1/4"
        )
        assert code == 0 and len(out.splitlines()) == 1 + 17
        assert err == f"warning: {caught[0].message}\n"

    def test_a_lattice_run_that_fails_prints_only_its_error(self, tmp_path, capsys):
        # the notice came first, then the error: two stderr lines with exit 2
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "rademacher", "--n", "4", "--out", str(target)
        )
        assert code == 2 and out == "" and not target.exists()
        assert len(err.splitlines()) == 1 and err.startswith("pstirling: error: ")

    @pytest.mark.parametrize(
        "n, grid, points",
        [(16, "-2:2:1/2", 9), (512, "0:259:1", 260)],  # the criterion-13 command; the bound's edge
    )
    def test_irwin_hall_column_within_the_bound_runs(self, capsys, monkeypatch, n, grid, points):
        # the exact column at n = 512 takes about a minute; only the bound is under test
        monkeypatch.setattr(oracle, "uniform_fn_exact", lambda *args: 0.5)
        code, out, err = run_cli(
            capsys, "edgeworth", "--dist", "uniformstd", "--n", str(n), f"--grid={grid}"
        )
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 1 + points


class TestValidateCommand:
    def test_exact_suite(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "exact", "--seed", "7")
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)

    def test_mc_suite_scaled_down(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "mc", "--seed", "7", "--mc-samples", "40000"
        )
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)

    def test_failure_exits_1(self, capsys, monkeypatch):
        from pstirling import oracle
        from pstirling.oracle import ValidationReport

        failing = ValidationReport("forced", "1", "2", 1.0, 1.0, 0.0, False)
        monkeypatch.setattr(oracle, "run_validation", lambda *a, **k: [failing])
        code, out, _ = run_cli(capsys, "validate", "--suite", "exact")
        assert code == 1
        assert json.loads(out)[0]["passed"] is False

    @pytest.mark.parametrize("argv, module, name", [
        (("validate", "--suite", "mc", "--mc-samples", "100000000"), "oracle", "run_validation"),
        (("stirling", "--dist", "uniformstd", "--jmax", "200"), "stirling", "psn_egf"),
    ], ids=["validate", "stirling"])
    def test_an_interrupt_is_one_line_exit_130(self, capsys, monkeypatch, argv, module, name):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(importlib.import_module(f"pstirling.{module}"), name, interrupted)
        assert run_cli(capsys, *argv) == (130, "", "pstirling: interrupted\n")


class TestConfigAndOutput:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dist": "rademacher", "n": 3, "jmax": 2}))
        code, out, _ = run_cli(
            capsys, "moments", "--config", str(config), "--jmax", "4"
        )
        assert code == 0
        assert "3,4,21" in out  # jmax flag overrides the config value

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "stirling", "--dist", "rademacher", "--jmax", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "4,2,3,0" in target.read_text()

    def test_missing_dist(self, capsys):
        code, _, err = run_cli(capsys, "stirling", "--jmax", "4")
        assert code == 2
        assert "distribution" in err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["moments", "--dist", "poisson", "--n", "2"], None, "'lambda'"),
            (["moments", "--dist", "gamma", "--n", "2"], None, "'a'"),
            (["moments", "--dist", "bernoulli", "--n", "2"], None, "'p'"),
            (["moments", "--dist", "pointmass", "--n", "2"], None, "'c'"),
            (["moments", "--dist", "custom", "--n", "2"], None, "'moments'"),
            (["moments", "--n", "2"], {"dist": {"dist": "poisson"}}, "'lambda'"),
            (["moments", "--dist", "rademacher", "--n", "2"], [1, 2], "JSON object"),
            (["edgeworth", "--dist", "uniformstd", "--n", "0"], None, "n >= 1"),
            (["edgeworth", "--dist", "uniformstd", "--n", "-2"], None, "n >= 1"),
            (["moments", "--n", "2"], {"dist": {"dist": "custom", "moments": 5}}, "'moments'"),
            (["moments", "--n", "2"], {"dist": {"dist": "custom", "moments": ["1", {"im": "1"}]}},
             "'re'"),
            (["moments", "--n", "2"], {"dist": {"dist": "poisson", "lambda": [1]}}, "'lambda'"),
            (["stirling", "--dist", "rademacher"], {"jmax": [1]}, "jmax"),
            (["moments", "--dist", "poisson", "--param", "1/0", "--n", "2"], None, "'lambda'"),
            (["levy", "--dist", "poisson"], {"t": "1/0"}, "t must be"),
            (["stirling", "--dist", "rademacher"], {"out": 5}, "out"),
            (["stirling", "--dist", "rademacher"], {"mode": "decimal"}, "mode"),
            (["levy"], {"process": {"tstar_moments": ["1", "2"]}}, "'tau2'"),
            (["levy"], {"process": {"tau2": [1], "tstar_moments": ["1", "2"]}}, "'tau2'"),
            (["levy"], {"process": {"sigma2": "0", "kappa2": "1", "u_moments": "11"}},
             "'u_moments'"),
            (["edgeworth", "--dist", "uniformstd", "--n", "4", "--K", "-1"], None,
             "K must be at least 0"),
            (["levy", "--dist", "gamma", "--jmax", "-1"], None, "jmax must be at least 0"),
            (["stirling", "--dist", "rademacher"], {"jmax": "-3"}, "jmax must be at least 0"),
            (["stirling", "--dist", "rademacher", "--jmax", str(MAX_JMAX + 1)], None,
             f"jmax must be at most {MAX_JMAX}"),
            (["validate", "--mc-samples", "0"], None, "mc_samples must be at least 1"),
            (["validate"], {"mc_samples": MAX_MC_SAMPLES + 1}, f"at most {MAX_MC_SAMPLES}"),
            (["edgeworth", "--dist", "uniformstd", "--n", "4", "--K", str(MAX_JMAX // 3 + 1)],
             None, f"K must be at most {MAX_JMAX // 3}"),
            (["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid=-3:3:1/1000000000"],
             None, "6000000001 points"),
            (["edgeworth", "--dist", "uniformstd", "--n", "4"],
             {"grid": f"1:{MAX_GRID_POINTS + 1}:1"}, f"more than {MAX_GRID_POINTS}"),
            (["edgeworth", "--dist", "uniformstd", "--n", str(MAX_EDGEWORTH_N + 1)], None,
             f"n must be at most {MAX_EDGEWORTH_N}"),
            (["edgeworth", "--dist", "uniformstd", "--grid=1:1:1"], {"n": "3000"},
             f"n must be at most {MAX_EDGEWORTH_N}"),
            # rationals are bounded before Fraction reads them
            (["levy", "--dist", "poisson", "--t", "1e10000000", "--jmax", "2"], None, "t must be"),
            (["stirling", "--dist", "poisson", "--param", "1e1000", "--jmax", "60"], None,
             "'lambda'"),
            (["stirling", "--dist", "poisson", "--param", "1" * (MAX_RATIONAL_DIGITS + 1)], None,
             f"at most {MAX_RATIONAL_DIGITS} digits"),
            (["stirling", "--dist", "bernoulli", "--param", "1/" + "3" * (MAX_RATIONAL_DIGITS + 1)],
             None, "'p'"),
            (["stirling"], {"dist": {"dist": "poisson", "lambda": 10**MAX_RATIONAL_DIGITS}},
             "'lambda'"),
            (["stirling", "--dist", "poisson"], {"param": "7" * 10**6}, "'lambda'"),
            (["levy"], {"process": {"tau2": "1", "tstar_moments": ["1", "2e99999"]}},
             "tstar_moments"),
            # a config text that json.dumps cannot build
            (["stirling", "--dist", "rademacher"], "[" * 100000 + "]" * 100000, "nests too deeply"),
            # checked before any work: E S_n^j has about j log10(n) digits
            (["moments", "--dist", "uniformstd", "--n", "1" + "0" * 1000, "--jmax", "200"], None,
             f"n must be at most {MAX_MOMENTS_N}"),
            # a config dist that is not a name: it raised TypeError (unhashable type)
            (["levy"], {"dist": {"dist": "uniformstd"}}, "levy needs --dist"),
            (["levy"], {"dist": ["gamma"]}, "levy needs --dist"),
            # a flag or a config key outside the command's row: each was read by nothing
            (["stirling", "--dist", "rademacher", "--seed", "3"], None,
             "stirling does not take --seed"),
            (["edgeworth", "--dist", "uniformstd", "--n", "4", "--mode", "exact"], None,
             "edgeworth does not take --mode"),
            (["validate", "--suite", "exact", "--format", "csv"], None,
             "validate does not take --format"),
            (["validate", "--suite", "exact", "--jmax", "3"], None, "validate does not take --jmax"),
            (["moments"], {"dist": "rademacher", "jamx": 40, "n": 3},
             "moments does not take the config key 'jamx'"),
            (["stirling", "--dist", "rademacher"], {"n": 3},
             "stirling does not take the config key 'n'"),
            (["levy", "--dist", "poisson"], {"param": "3"},
             "levy does not take the config key 'param'"),
            # a JSON float or bool is no rational: 0.1 ran as 3602879701896397/2^55
            (["stirling"], {"dist": "poisson", "param": 0.1}, "'lambda' must be"),
            (["stirling"], {"dist": {"dist": "bernoulli", "p": True}}, "'p' must be"),
            (["levy", "--dist", "gamma"], {"t": 0.5}, "t must be"),
            # a key that a nested spec does not read
            (["stirling"], {"dist": {"dist": "normal", "sigam2": "4"}},
             "a normal spec does not take the key 'sigam2'"),
            (["stirling"], {"dist": {"dist": "rademacher", "p": "1/3"}},
             "a rademacher spec does not take the key 'p'"),
            (["stirling"],
             {"dist": {"dist": "custom", "moments": ["1", {"re": "1/2", "imag": "3"}]}},
             "a complex moment does not take the key 'imag'"),
            (["levy"], {"process": {"tau2": "1", "tstar_moments": ["1", "2"], "sigma2": "1"}},
             "a process spec does not take the key 'sigma2'"),
            # a custom list is held as its MomentSeq, whose own check refuses mu_0 != 1
            (["stirling"], {"dist": {"dist": "custom", "moments": ["2", "0", "1"]}},
             "moment sequence must start with mu_0 = 1"),
            # an exact Edgeworth coefficient beyond float range: an OverflowError traceback, exit 1
            (["edgeworth", "--n", "64", "--K", "17", "--grid", "0:0:1"],
             {"dist": {"dist": "custom", "moments": [1, 0, 1] + ["99999999999999999999"] * 67}},
             "beyond float range"),
            # --param beside a dist object: it was ignored, and the object's own parameter ran
            (["cumulants", "--param", "5"], {"dist": {"dist": "poisson", "lambda": "2"}},
             "param is not meaningful beside a dist object"),
            (["moments", "--n", "4"], {"dist": {"dist": "poisson", "lambda": "2"}, "param": "5"},
             "param is not meaningful beside a dist object"),
            (["edgeworth", "--n", "4", "--param", "5"], {"dist": {"dist": "rademacher"}},
             "param is not meaningful beside a dist object"),
            # edgeworth reads the moments its K needs: jmax is no key of it, as a flag or in a config
            (["edgeworth", "--dist", "uniformstd", "--n", "16", "--jmax", "6"], None,
             "edgeworth does not take --jmax"),
            (["edgeworth", "--dist", "uniformstd", "--n", "16"], {"jmax": 6},
             "edgeworth does not take the config key 'jmax'"),
            # a negative value after a space reaches its own check, as --t=-1/2 does
            (["levy", "--dist", "gamma", "--t", "-1/2"], None, "t must be positive"),
            (["stirling", "--dist", "normal", "--param", "-1/2"], None,
             "normal variance must be nonnegative"),
            # --param on a kind that takes none
            (["stirling", "--dist", "rademacher", "--param", "2"], None,
             "--param is not meaningful for 'rademacher'"),
        ],
    )
    def test_bad_input_is_one_line_exit_2(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = argv + ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pstirling: error:")
        assert message in err and "Traceback" not in err

    def test_grid_points_are_counted_exactly(self):
        assert _parse_grid("0:1:1/4") == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert _parse_grid("0:1:1/3") == [F(0), F(1, 3), F(2, 3), F(1)]
        assert _parse_grid("0:7/10:1/4") == [F(0), F(1, 4), F(1, 2)]
        assert _parse_grid("1:0:1") == []
        assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS

    def test_bad_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    COMMANDS = "stirling, moments, cumulants, levy, edgeworth, validate"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frobnicate"], f"command must be one of {COMMANDS}, not 'frobnicate'"),
            ([], f"command must be one of {COMMANDS}, not None"),
            # a flag is named in full: each abbreviation ran as the flag it began
            (["stirling", "--jm", "3"], "stirling does not take --jm"),
            (["stirling", "--conf", "c.json"], "stirling does not take --conf"),
            (["validate", "--mc", "10"], "validate does not take --mc"),
            (["stirling", "--dist", "rademacher", "--jm=3"], "stirling does not take --jm=3"),
            (["validate", "--mc_samples", "10"], "validate does not take --mc_samples"),
            (["stirling", "--dist", "rademacher", "--jmax"], "stirling --jmax needs a value"),
            (["levy", "--config"], "levy --config needs a value"),
            (["stirling", "-x", "--dist", "rademacher"], "stirling does not take -x"),
        ],
    )
    def test_argv_errors_are_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"pstirling: error: {message}\n")

    @pytest.mark.parametrize(
        "argv, last",
        [
            (["stirling", "--dist", "rademacher", "--jmax", "2", "--jmax=4"],
             ["stirling", "--dist", "rademacher", "--jmax", "4"]),
            (["stirling", "--dist", "poisson", "--param", "2", "--dist=rademacher", "--param", "1",
              "--dist", "bernoulli", "--jmax", "3"],
             ["stirling", "--dist", "bernoulli", "--param", "1", "--jmax", "3"]),
            (["moments", "--dist", "rademacher", "--n", "9", "--jmax", "3", "--n", "-0"],
             ["moments", "--dist", "rademacher", "--n", "0", "--jmax", "3"]),
        ],
    )
    def test_a_repeated_flag_keeps_its_last_value(self, capsys, argv, last):
        result = run_cli(capsys, *argv)
        assert result == run_cli(capsys, *last) and result[0] == 0 and result[1]

    # a flag value is checked once, with its config value: the same line, exit 2
    FLAG_VALUES = [
        (["stirling", "--dist", "rademacher"], "jmax", "abc", "jmax must be an integer, not 'abc'"),
        (["moments", "--dist", "rademacher"], "n", "3/2", "n must be an integer, not '3/2'"),
        (["edgeworth", "--dist", "uniformstd", "--n", "4"], "K", "2.0",
         "K must be an integer, not '2.0'"),
        (["validate", "--suite", "exact"], "seed", "x7", "seed must be an integer, not 'x7'"),
        (["validate", "--suite", "mc"], "mc_samples", "1e6",
         "mc_samples must be an integer, not '1e6'"),
        (["stirling", "--dist", "rademacher"], "mode", "decimal",
         "mode must be one of exact, float, not 'decimal'"),
        (["cumulants", "--dist", "rademacher"], "format", "xml",
         "format must be one of csv, json, not 'xml'"),
        (["validate"], "suite", "everything",
         "suite must be one of all, exact, mc, not 'everything'"),
    ]

    @pytest.mark.parametrize(
        "argv, key, value, message", FLAG_VALUES, ids=[row[1] for row in FLAG_VALUES]
    )
    def test_a_flag_value_is_checked_as_its_config_value(
        self, tmp_path, capsys, argv, key, value, message
    ):
        flag = run_cli(capsys, *argv, "--" + key.replace("_", "-"), value)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        config = run_cli(capsys, *argv, "--config", str(path))
        assert flag == config == (2, "", f"pstirling: error: {message}\n")


class TestEmit:
    """The one writer, byte for byte against the whole-text formulas it replaced."""

    HEADER = ("name", "x", "ok")
    ROWS = [
        ('quote " backslash \\ newline \n tab \t', 1.5, True),
        ("caf\u00e9 \u2211", float("nan"), False),
        ("-0.0", -0.0, None),
        ("big", 1e300, 12345678901234567890),
        ("inf", float("-inf"), "1/3"),
    ]

    @staticmethod
    def _expected(rows, fmt):
        if fmt == "json":
            return json.dumps([dict(zip(TestEmit.HEADER, row)) for row in rows], indent=2) + "\n"
        lines = [",".join(TestEmit.HEADER)] + [",".join(str(c) for c in row) for row in rows]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [0, 1, 5, 12])
    def test_stdout_and_out_hold_the_whole_text_bytes(self, tmp_path, capsys, fmt, count):
        rows = [self.ROWS[i % len(self.ROWS)] for i in range(count)]
        expected = self._expected(rows, fmt)
        _emit(self.HEADER, rows, {"format": fmt})
        assert capsys.readouterr().out == expected
        target = tmp_path / "rows.out"
        _emit(self.HEADER, rows, {"format": fmt, "out": str(target)})
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == expected.encode("utf-8")

    def test_an_empty_json_table_is_an_empty_list(self, capsys):
        assert run_cli(capsys, "cumulants", "--dist", "rademacher", "--jmax", "0",
                       "--format", "json") == (0, "[]\n", "")

    def test_validate_prints_the_reports_as_one_json_list(self, capsys):
        reports = oracle.run_validation("exact", 7, 10**6)
        expected = json.dumps([r._asdict() for r in reports], indent=2) + "\n"
        assert run_cli(capsys, "validate", "--suite", "exact") == (0, expected, "")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stirling", "--dist", "uniformstd", "--jmax", "8"],
            ["moments", "--dist", "poisson", "--param", "2", "--n", "5", "--jmax", "6"],
            ["cumulants", "--dist", "exponential", "--jmax", "8"],
            ["levy", "--dist", "gamma", "--t", "5", "--jmax", "8"],
            ["validate", "--suite", "exact"],
        ],
        ids=lambda a: a[0],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first


def _fresh_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter with no site imports and this pstirling."""
    import pstirling

    src = os.path.dirname(os.path.dirname(pstirling.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cli_env(buffered: bool) -> dict:
    """The environment of a fresh ``python -m pstirling.cli``: this pstirling, stdout buffered or not."""
    import pstirling

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pstirling.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestProcessBoundary:
    """A fresh process, so that what the interpreter prints at exit, when it flushes stdout
    a last time, is seen too: a closed pipe is exit 141 with nothing on stderr, and a full
    device one error line with exit 2.  Buffered stdout holds a short table until exit;
    unbuffered stdout writes each row as it goes."""

    CMD = [sys.executable, "-m", "pstirling.cli", "stirling", "--dist", "rademacher"]
    # 3 rows, and about 0.9 MB, more than a pipe holds, so the writer meets the closed pipe
    JMAX = ("3", "200")

    @pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
    @pytest.mark.parametrize("jmax", JMAX)
    def test_a_pipe_closed_before_any_read_exits_141_quietly(self, jmax, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([*self.CMD, "--jmax", jmax], stdout=write_end,
                                  stderr=subprocess.PIPE, env=_cli_env(buffered), timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    @pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
    def test_a_reader_that_stops_after_one_line_is_exit_141(self, buffered):
        # as ``| head -1`` does
        proc = subprocess.Popen([*self.CMD, "--jmax", "200"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_cli_env(buffered))
        assert proc.stdout.readline() == b"j,m,re,im\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
    @pytest.mark.parametrize("jmax", JMAX)
    def test_a_full_device_is_one_line_exit_2(self, jmax, buffered):
        with open("/dev/full", "wb") as full:
            done = subprocess.run([*self.CMD, "--jmax", jmax], stdout=full,
                                  stderr=subprocess.PIPE, env=_cli_env(buffered), timeout=120)
        assert done.returncode == 2
        assert done.stderr == b"pstirling: error: [Errno 28] No space left on device\n"


class TestImportBoundary:
    """Each command's process loads only the modules that command runs."""

    LOADED = (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.startswith(('pstirling', 'dataclasses'))))"
    )

    def test_package_imports_only_the_standard_library(self):
        package = os.path.dirname(randomvars.__file__)
        paths = sorted(os.path.join(package, name) for name in os.listdir(package)
                       if name.endswith(".py"))
        imported = set()
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((path, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((path, node.module))
        assert len(paths) > 1 and imported
        for path, name in sorted(imported):
            assert name.split(".")[0] in sys.stdlib_module_names, (path, name)

    @pytest.mark.parametrize("module", ["pstirling", "pstirling.cli"])
    def test_no_dataclasses(self, module):
        loaded = _fresh_process(f"import {module}\n{self.LOADED}")
        assert "dataclasses" not in loaded and module in loaded

    def test_cli_loads_no_command_module(self):
        loaded = _fresh_process(f"import pstirling.cli\n{self.LOADED}")
        for name in ("stirling", "moments", "levy", "edgeworth", "oracle"):
            assert f"pstirling.{name}'" not in loaded

    def test_stirling_command_loads_no_other_command_module(self):
        code = (
            "import io, contextlib\nfrom pstirling import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['stirling', '--dist', 'uniformstd', '--jmax', '2']) == 0\n"
            + self.LOADED
        )
        loaded = _fresh_process(code)
        assert "pstirling.stirling'" in loaded
        for name in ("oracle", "levy", "edgeworth"):
            assert f"pstirling.{name}'" not in loaded

    def test_edgeworth_loads_neither_levy_nor_moments(self):
        # the Irwin-Hall column needs oracle's engines, not its validation suite
        code = (
            "import io, contextlib\nfrom pstirling import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['edgeworth', '--dist', 'uniformstd', '--n', '16', '--K', '2']) == 0\n"
            + self.LOADED
        )
        loaded = _fresh_process(code)
        assert "pstirling.edgeworth'" in loaded and "pstirling.oracle'" in loaded
        for name in ("levy", "moments"):
            assert f"pstirling.{name}'" not in loaded

    def test_no_json_without_json_input_or_output(self):
        argvs = [
            ["stirling", "--dist", "uniformstd", "--jmax", "4"],
            ["moments", "--dist", "poisson", "--param", "2", "--n", "3", "--jmax", "4"],
            ["cumulants", "--dist", "exponential", "--jmax", "4"],
            ["levy", "--dist", "gamma", "--t", "5", "--jmax", "4"],
            ["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid", "0:1:1/2"],
        ]
        code = (
            "import io, contextlib, sys\nfrom pstirling import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert [cli.main(a) for a in {argvs!r}] == [0] * {len(argvs)}\n"
            "print('json' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['cumulants', '--dist', 'exponential', '--format', 'json'])\n"
            "print('json' in sys.modules)\n"
        )
        assert _fresh_process(code) == "False\nTrue\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stirling", "--dist", "uniformstd", "--jmax", "2"],
            ["moments", "--dist", "rademacher", "--n", "3", "--jmax", "2"],
            ["cumulants", "--dist", "poisson", "--param", "1", "--jmax", "2"],
            ["levy", "--dist", "poisson", "--t", "1/2", "--jmax", "2"],
            ["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid=0:1:1/2"],
            ["validate", "--suite", "exact"],
            ["-h"],
            ["validate", "--help"],
            ["stirling", "--jm", "3"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_no_argument_parser_or_locale_is_loaded(self, argv):
        # argv is read off the command tables: argparse, and the gettext and locale it loads, stay out
        code = (
            "import io, contextlib, sys\nfrom pstirling import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    print(cli.main({argv!r}), file=sys.__stdout__)\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        assert _fresh_process(code).splitlines()[-1] == "[]"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_lists_every_command(self, capsys, flag):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: pstirling <command> [-h] [flags]\n")
        for name, help_text in [
            ("stirling", "emit the probabilistic Stirling triangle"),
            ("moments", "emit E S_n^j for j = 0..jmax"),
            ("cumulants", "emit cumulants kappa_1..kappa_jmax"),
            ("levy", "emit Levy/subordinator moment functions at t"),
            ("edgeworth", "emit an Edgeworth CDF curve on a grid"),
            ("validate", "run the validation suite and emit JSON reports"),
        ]:
            assert re.search(rf"^\s+{name}\s+{re.escape(help_text)}$", out, re.M), name

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("stirling", "dist param jmax mode out format"),
            ("moments", "dist param jmax mode out format n"),
            ("cumulants", "dist param jmax mode out format"),
            ("levy", "dist jmax mode out format t"),
            ("edgeworth", "dist param out format n K grid"),
            ("validate", "seed out suite mc-samples"),
        ],
    )
    def test_command_help_lists_its_own_flags(self, capsys, command, flags):
        code, out, err = run_cli(capsys, command, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: pstirling {command} [-h] [flags]\n")
        expected = {"--help", "--config", *("--" + flag for flag in flags.split())}
        assert set(re.findall(r"--[A-Za-z][\w-]*", out)) == expected
        # --config's row comes from _KEYS as every flag's does; --help after other flags prints the same
        assert re.search(r"^  --config CONFIG +JSON config file; flags override its values$", out, re.M)
        assert run_cli(capsys, command, "--config", "none.json", "--help") == (0, out, "")

    def test_repeated_calls_in_one_process_are_byte_identical(self, capsys):
        # each call reads its argv off the same tables, in any order
        argvs = [
            ["stirling", "--dist", "uniformstd", "--jmax", "4"],
            ["levy", "--dist", "gamma", "--t", "5", "--jmax", "4", "--format", "json"],
            ["moments", "--dist", "rademacher", "--n", "3", "--jmax", "4", "--mode", "float"],
            ["stirling", "--dist", "rademacher", "--jmax", "3", "--format", "json"],
            ["validate", "--suite", "exact"],
            ["edgeworth", "--dist", "uniformstd", "--n", "4", "--grid", "0:1:1/2"],
            ["cumulants", "--dist", "poisson", "--param", "2", "--jmax", "5"],
        ]
        first = [run_cli(capsys, *argv) for argv in argvs]
        second = [run_cli(capsys, *argv) for argv in reversed(argvs)][::-1]
        assert first == second and all(code == 0 and out for code, out, _ in first)

    def test_other_commands_flags_and_unknown_commands_exit_2(self, capsys):
        # moments reads --n first; levy still refuses it
        assert run_cli(capsys, "moments", "--dist", "rademacher", "--n", "2")[0] == 0
        for argv, message in [
            (["levy", "--dist", "gamma", "--n", "2"], "levy does not take --n"),
            (["validate", "--dist", "gamma"], "validate does not take --dist"),
            (["cumulants", "--dist", "gamma", "--t", "1"], "cumulants does not take --t"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"pstirling: error: {message}\n")
        for command in ("frobnicate", "--dist", "Stirling"):
            code, out, err = run_cli(capsys, command, "--dist", "gamma")
            assert code == 2 and out == ""
            assert err.startswith("pstirling: error: ") and len(err.splitlines()) == 1

    def test_public_names_resolve(self):
        code = (
            "import pstirling, types\n"
            "assert all(getattr(pstirling, name) is not None for name in pstirling.__all__)\n"
            "assert set(pstirling.__all__) <= set(dir(pstirling))\n"
            "assert isinstance(pstirling.oracle, types.ModuleType)\n"
            "from pstirling import psn_egf, uniform_std\n"
            "try:\n    pstirling.nope\nexcept AttributeError:\n    print('no attribute')\n"
        )
        assert _fresh_process(code) == "no attribute\n"

    def test_dir_lists_every_public_name_and_submodule(self):
        import pstirling

        names = pstirling.__dir__()
        assert names == sorted(set(names)) and dir(pstirling) == names
        submodules = {"cli", "edgeworth", "levy", "moments", "oracle", "powerseries", "randomvars",
                      "stirling"}
        assert set(pstirling.__all__) | submodules <= set(names)
