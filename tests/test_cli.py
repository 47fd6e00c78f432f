import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from eulertop import cli, invariants, oracle, picardfuchs
from eulertop.cli import _COMMANDS, COMMANDS, main
from eulertop.series import PowerSeries

GOLDEN = Path(__file__).with_name("golden_cli.txt")


def golden_runs():
    """(command line, stdout) pairs; each block of the golden file is headed by its command line."""
    parts = re.split(r"^\$ eulertop (.*)\n", GOLDEN.read_text(), flags=re.M)
    return list(zip(parts[1::2], parts[2::2]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bnf_json_exact_values(capsys):
    code, out, _ = run_cli(capsys, "bnf", "--kappa", "1/2", "--order", "7")
    assert code == 0
    doc = json.loads(out)
    values = {row["power"]: row.get("value") for row in doc["coefficients"]}
    assert values[1] == "1"
    assert values[2] == "-1/8"


def test_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "bnf", "--kappa", "1/2", "--order", "5")
    _, second, _ = run_cli(capsys, "bnf", "--kappa", "1/2", "--order", "5")
    assert first == second


@pytest.mark.parametrize("cmd,expected", golden_runs(), ids=[c for c, _ in golden_runs()])
def test_output_matches_golden(capsys, cmd, expected):
    code, out, _ = run_cli(capsys, *cmd.split(" "))
    assert code == 0
    assert out == expected


def test_option_values_may_start_with_minus(capsys):
    for spaced, joined in (
        (["bnf", "--kappa", "-3/4"], ["bnf", "--kappa=-3/4"]),
        (["pendulum", "--grid", "-1:1:3"], ["pendulum", "--grid=-1:1:3"]),
        (
            ["verify", "--kappa", "-5/4", "--order", "20", "--samples", "-0.01,0.01"],
            ["verify", "--kappa=-5/4", "--order=20", "--samples=-0.01,0.01"],
        ),
    ):
        code, out, err = run_cli(capsys, *spaced)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *joined)[1]


def test_bnf_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bnf", "--kappa", "1/2", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "series,n,kappa_power,numerator,denominator"
    assert "bnf,2,1,-1,4" in lines


def test_invariant_symmetric_top(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--kappa", "0", "--order", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["branch_consistent"] is True
    values = {row["power"]: row["value"] for row in doc["tail"]}
    assert values[2] == values[4] == values[6] == "0"
    assert abs(float(doc["linear_log"]["numeric"]) - math.log(4.0)) < 1e-12


def test_frobenius_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--kappa", "1/3", "--order", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["methods_agree"] is True
    assert doc["a"][1]["kappa_poly"] == ["0", "1/2"]


def _nudge_table(table):
    """Move coefficient 2 of the a (table 0) or b (table 1) list of _closed_form by 1e-40."""

    def nudge(tables):
        tables[table][2] += Fraction(1, 10**40)
        return tables

    return nudge


def _nudge_series(series):
    coeffs = list(series.coeffs)
    coeffs[2] += Fraction(1, 10**40)
    return PowerSeries(series.var, tuple(coeffs))


# each command that compares two independent routes: the route a row perturbs
# (module, function, what it does to the result) and the two routes it names
ROUTE_CHECKS = {
    "frobenius": (
        "frobenius --kappa=1/2 --order=3", picardfuchs, "_closed_form", _nudge_table(0), ("recursion", "closed form")
    ),
    "actions-a": (
        "actions --kappa=1/2 --order=12", picardfuchs, "_closed_form", _nudge_table(0), ("recursion", "closed form")
    ),
    "actions-b": (
        "actions --kappa=1/2 --order=12", picardfuchs, "_closed_form", _nudge_table(1), ("recursion", "closed form")
    ),
    "bnf": (
        "bnf --kappa=1/2 --order=3",
        invariants,
        "bnf_via_reversion",
        _nudge_series,
        ("Lie normal form", "the recurrence that inverts the regular action"),
    ),
}


@pytest.mark.parametrize("name", ROUTE_CHECKS)
def test_routes_that_disagree_exit_3(capsys, monkeypatch, name):
    command, module, route, nudge, (first, second) = ROUTE_CHECKS[name]
    original = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: nudge(original(*args)))
    code, out, err = run_cli(capsys, *command.split(" "))
    assert code == 3 and out == ""
    assert err == f"internal failure: {first} and {second} disagree\n"


def test_actions_beta_signs(capsys):
    code, out, _ = run_cli(capsys, "actions", "--kappa", "1/2", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"]["plus"]["k2"] == 1
    assert doc["beta"]["minus"]["k2"] == -1
    assert doc["beta"]["plus"]["k1"]["factor"] == "-1/2"


def test_params_echo(capsys):
    code, out, _ = run_cli(capsys, "params", "--theta", "1,2,3", "--ell", "1")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["kappa"]) + 2 / math.sqrt(3.0)) < 1e-12


def test_pendulum_margins(capsys):
    floor = math.log(8.0) - 1e-12
    # past |kappa| ~ 1.3e154 kappa^2 overflows a float; the leading term does
    # not, nor does the grid where hi - lo or (hi - lo) * i overflows
    grids = ("-5:5:50", "1e154:2e154:2", "-1e300:1e300:3", "-1.7e308:1.7e308:3", "0:1.7e308:3")
    for grid in grids:
        code, out, _ = run_cli(capsys, "pendulum", f"--grid={grid}")
        assert code == 0, grid
        rows = json.loads(out)["rows"]
        assert len(rows) == int(grid.split(":")[2]), grid
        kappas = [float(r["kappa"]) for r in rows]
        assert all(math.isfinite(k) for k in kappas) and kappas == sorted(kappas), grid
        assert all(math.isfinite(float(r["euler_leading"])) for r in rows), grid
        assert all(float(r["margin"]) >= floor for r in rows), grid


def test_radius_command(capsys):
    code, out, _ = run_cli(
        capsys, "radius", "--kappa", "1/2", "--nmax", "40", "--targets", "a,b"
    )
    assert code == 0
    doc = json.loads(out)
    names = [r["sequence"] for r in doc["reports"]]
    assert names == ["a", "b"]
    a = doc["reports"][0]
    assert abs(float(a["extrapolated"]) - float(a["theoretical"])) < 1e-2


def test_radius_near_the_symmetric_top(capsys):
    code, out, _ = run_cli(capsys, "radius", "--kappa=1e-3", "--nmax=20")
    assert code == 0
    a = json.loads(out)["reports"][0]
    assert a["sequence"] == "a"
    assert abs(float(a["extrapolated"]) - 0.4998) < 0.1 * 0.4998  # false for nan and inf


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--kappa",
        "1/2",
        "--order",
        "20",
        "--samples",
        "0.01,-0.01",
        "--tol",
        "1e-9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_verify_unreachable_tolerance_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--kappa", "1/2", "--order", "10",
        "--samples", "0.02", "--tol", "1e-60",
    )
    assert code == 3
    assert "internal failure" in err


def test_verify_exits_3_when_the_schemes_disagree(capsys, monkeypatch):
    # the series still meets gauss; a tanh-sinh value 1e-6 off must fail the run
    quadrature = oracle.action_quadrature

    def perturbed(kappa, h, tol=1e-12, dps=50, scheme="gauss"):
        result = quadrature(kappa, h, tol=tol, dps=dps, scheme=scheme)
        return result._replace(value=result.value + 1e-6) if scheme == "tanh-sinh" else result

    monkeypatch.setattr(oracle, "action_quadrature", perturbed)
    code, out, err = run_cli(capsys, "verify", "--kappa=1/2", "--order=20", "--samples=0.01")
    assert code == 3 and out == ""
    assert err.startswith("internal failure: gauss and tanh-sinh quadrature disagree")
    assert len(err.splitlines()) == 1


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PRECISION", "30")
    _, out, _ = run_cli(capsys, "actions", "--kappa", "1/2", "--order", "4")
    doc = json.loads(out)
    digits = doc["beta"]["plus"]["k3"]["numeric"].replace("0.", "")
    assert len(digits) >= 28


def test_unknown_command_exits_64(capsys):
    code, out, err = run_cli(capsys, "spectrum")
    assert code == 64
    assert "unknown command" in err


def test_validation_errors_exit_2(capsys, monkeypatch):
    assert run_cli(capsys, "bnf", "--kappa", "x/y")[0] == 2
    assert run_cli(capsys, "bnf")[0] == 2  # no kappa at all
    assert run_cli(capsys, "params", "--theta", "1,1,2", "--ell", "1")[0] == 2
    assert run_cli(capsys, "params", "--theta", "1,2,3", "--ell", "1", "--format", "csv")[0] == 2
    assert run_cli(capsys, "bnf", "--kappa", "1/2", "--theta", "1,2,3", "--ell", "1")[0] == 2
    for tol in ("nan", "inf", "0", "-1e-9"):
        assert run_cli(
            capsys, "verify", "--kappa=1/2", f"--tol={tol}", "--order=10", "--samples=0.02"
        )[0] == 2
    for precision in ("0", "-3"):
        assert run_cli(
            capsys, "actions", "--kappa=1/2", "--order=2", f"--precision={precision}"
        )[0] == 2
        monkeypatch.setenv("PRECISION", precision)
        assert run_cli(capsys, "actions", "--kappa=1/2", "--order=2")[0] == 2
    monkeypatch.delenv("PRECISION")
    # the ceilings: one above exits 2 with a message that names the limit
    for argv, limit in (
        (["bnf", "--kappa=1/2", "--order=100000000"], "40"),
        (["invariant", "--kappa=1/2", "--order=91"], "90"),
        (["frobenius", "--kappa=1/2", "--order=201"], "200"),
        (["actions", "--kappa=1/2", "--order=201"], "200"),
        (["verify", "--kappa=1/2", "--order=101"], "100"),
        (["radius", "--kappa=1/2", "--nmax=401"], "400"),
        (["verify", "--kappa=1/2", "--precision=100000"], "100"),
        (["invariant", "--kappa=1/2", "--precision=101"], "100"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and f"to {limit}:" in err, argv
    # the floors, each named in its message; extract_sigma needs order >= 2
    for argv, message in (
        (["invariant", "--kappa=1/2", "--order=1"], "from 2 to 90:"),
        (["radius", "--kappa=1/2", "--nmax=19"], "from 20 to 400:"),
        (["bnf", "--kappa=1/2", "--order=0"], "from 1 to 40:"),
        (["actions", "--kappa=1/2", "--precision=0"], "--precision and PRECISION need an integer from 1 to 100:"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and message in err, argv
    monkeypatch.setenv("PRECISION", "101")
    code, _, err = run_cli(capsys, "actions", "--kappa=1/2", "--order=2")
    assert code == 2 and "PRECISION" in err and "to 100:" in err
    monkeypatch.delenv("PRECISION")
    for argv in (
        ["pendulum", "--grid=0:nan:3"],
        ["params", "--theta=1,2,3", "--ell=inf"],
        ["verify", "--kappa=1/2", "--order=10", "--samples=nan"],
        # nonzero h that underflows to 0.0 would be read as the separatrix
        ["verify", "--kappa=1/2", "--order=10", "--samples=1e-400"],
        ["verify", "--kappa=1/2", "--order=10", "--samples=1e-330"],
        ["verify", "--kappa=1/2", "--order=10", "--samples=-1e-400"],
        ["radius", "--kappa=1/2", "--targets=", "--nmax=20"],
        # rho overflows: float(kappa) itself, or kappa * kappa
        ["radius", "--kappa=1e400", "--nmax=20"],
        ["radius", "--kappa=1e200", "--targets=a", "--nmax=20"],
        # a ratio estimate near 4/|kappa| overflows a float
        ["radius", "--kappa=1e-400", "--targets=a", "--nmax=20"],
        ["radius", "--kappa=1e-400", "--targets=bnf", "--nmax=20"],
        # the inertia products underflow, or lambda overflows, a float
        ["params", "--theta=1e-300,2e-300,3e-300", "--ell=1"],
        ["params", "--theta=1e-170,2e-170,2.5e-170", "--ell=1"],
        ["bnf", "--theta=1e-300,2e-300,3e-300", "--ell=1", "--order=2"],
        ["params", "--theta=1e-150,2e-150,2.5e-150", "--ell=1e300"],
        # options the command does not read
        ["bnf", "--kappa=1/2", "--nmax=5"],
        ["pendulum", "--kappa=1/2"],
        ["bnf", "--samples=x"],
        ["verify", "--kappa=1/2", "--format=csv"],
    ):
        assert run_cli(capsys, *argv)[0] == 2, argv
    # kappa from --theta needs --ell, --ell needs --theta, and params needs both
    for argv, message in (
        (["bnf", "--theta=1,2,3"], "--theta needs --ell"),
        (["bnf", "--kappa=1/2", "--ell=1"], "--ell needs --theta"),
        (["params", "--ell=1"], "params needs --theta"),
        (["params"], "params needs --theta"),
        # at h = 0 it is rho, not h, that the gauss scheme cannot reach
        (["verify", "--kappa=-1e300", "--samples=0", "--order=2"], "rho = 1.0e-300"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and message in err, argv
    for name in COMMANDS:
        assert run_cli(capsys, name, "--help")[0] == 0, name
    # a long value is quoted by its head and its length; argparse wraps its
    # usage lines to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (
        ["bnf", "--kappa=" + "1" * 5000, "--order=3"],
        ["verify", "--kappa=1/2", "--samples=" + "x" * 5000],
        ["bnf", "--kappa=1/" + "0" * 5000],
        ["radius", "--kappa=1/2", "--targets=" + "x" * 5000],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and len(err.encode()) < 300, (argv[0], len(err))


# every option of every command, --format where the command has a CSV header
_OPTIONS = [
    (name, option)
    for name, (_, options, header) in _COMMANDS.items()
    for option in (*options, *(("format",) if header else ()))
]


@pytest.mark.parametrize("name,option", _OPTIONS, ids=[f"{n}--{o}" for n, o in _OPTIONS])
def test_a_bare_double_dash_value_exits_2(capsys, name, option):
    # argparse drops the value of --opt=-- and skips its converter
    code, out, err = run_cli(capsys, name, f"--{option}=--")
    assert (code, out) == (2, "")
    assert err == f"error: argument --{option}: expected a value, got '--'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bnf", "--kappa=١/٢"],
        ["bnf", "--kappa=１/２"],
        ["bnf", "--kappa=1/2", "--order=٣"],
        ["params", "--theta=١,2,3", "--ell=1"],
        ["params", "--theta=1,2,3", "--ell=١"],
        ["verify", "--kappa=1/2", "--samples=٠.٠١"],
        ["verify", "--kappa=1/2", "--tol=١e-9"],
        ["actions", "--kappa=1/2", "--precision=٢٠"],
        ["radius", "--kappa=1/2", "--nmax=٢٠"],
        ["pendulum", "--grid=٠:1:3"],
        ["bnf", "--kappa=1/2\u2003"],
    ],
)
def test_non_ascii_values_exit_2(capsys, argv):
    # int, float and Fraction read any Unicode digit: --kappa=١/٢ was 1/2
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert err.endswith("is not ASCII\n")


def test_non_ascii_precision_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PRECISION", "٢٠")
    code, out, err = run_cli(capsys, "actions", "--kappa=1/2", "--order=2")
    assert (code, out) == (2, "") and "PRECISION" in err and err.endswith("is not ASCII\n")


def test_values_past_the_int_digit_limit_exit_2_before_any_table(capsys, monkeypatch):
    # a 100-bit kappa at order 200 gives JSON values of ~21000 bits, past the
    # 4300 digits Python prints
    tables = []
    with monkeypatch.context() as m:
        for name in ("frobenius_table", "assemble_beta_actions"):
            m.setattr(picardfuchs, name, lambda *args: tables.append(args))
        for argv in (
            ["frobenius", "--kappa=1/1000000000000000000000000000000", "--order=200"],
            ["actions", "--kappa=1/1000000000000000000000000000000", "--order=200"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and "--order" in err and "--kappa" in err, argv
    assert tables == []
    # the CSV rows are the kappa-polynomial coefficients, the same at any kappa
    csv_rows = [
        run_cli(capsys, "frobenius", f"--kappa={kappa}", "--order=200", "--format=csv")
        for kappa in ("1/1000000000000000000000000000000", "1/2")
    ]
    assert csv_rows[0][0] == 0 and csv_rows[0] == csv_rows[1]
    # a 52-bit kappa from --theta stays below the limit at the same order
    code, out, _ = run_cli(capsys, "frobenius", "--theta=1,2,2.5", "--ell=1", "--order=200")
    assert code == 0 and json.loads(out)["methods_agree"] is True


def test_radius_ceiling_counts_the_bits_of_kappa(capsys, monkeypatch):
    # bnf and sigma at the 52-bit kappa of --theta=1,2,2.5 --ell=1 run for a
    # minute or more at nmax 300 and 400: they exit 2 before any table is built
    calls = []
    monkeypatch.setattr(invariants, "radius_analysis", lambda *args: calls.append(args) or [])
    theta = ["--theta=1,2,2.5", "--ell=1"]
    for argv in (
        [*theta, "--nmax=400"],
        [*theta, "--nmax=400", "--targets=a,sigma"],
        [*theta, "--nmax=300", "--targets=bnf"],
    ):
        code, out, err = run_cli(capsys, "radius", *argv)
        assert (code, out) == (2, "") and "--nmax" in err and "--targets=a,b" in err, argv
    assert calls == []
    # a and b alone have a ceiling of their own, far above: a 998-bit kappa
    # at nmax 400 took 75 s
    k = 2**997
    argv = [f"--kappa={k + 1}/{k - 3}", "--nmax=400", "--targets=a,b"]
    code, out, err = run_cli(capsys, "radius", *argv)
    assert (code, out) == (2, "") and "998-bit --kappa" in err and "--nmax" in err
    assert calls == []
    # the runs that stay within a minute, a and b alone also at nmax 400 and 100 bits
    for argv in (
        ["--kappa=1/2", "--nmax=400"],
        ["--kappa=255/256", "--nmax=400"],
        [*theta, "--nmax=200"],
        [*theta, "--nmax=400", "--targets=a,b"],
        ["--kappa=1/1000000000000000000000000000000", "--nmax=400", "--targets=a,b"],
    ):
        assert run_cli(capsys, "radius", *argv)[0] == 0, argv
    assert len(calls) == 5


def test_radius_refuses_a_repeated_target_before_any_table(capsys, monkeypatch):
    # the cost ceiling prices each target once; sigma,sigma at nmax 400 would
    # build its table twice, about 13 s
    calls = []
    for name in ("_a_rows", "_b_rows", "_bnf", "_sigma_tail"):
        original = getattr(picardfuchs, name)
        monkeypatch.setattr(picardfuchs, name, lambda *args, f=original: calls.append(args) or f(*args))
    code, out, err = run_cli(capsys, "radius", "--kappa=1/2", "--nmax=400", "--targets=sigma,sigma")
    assert (code, out) == (2, "") and "repeated sequence 'sigma'" in err
    assert calls == []


def test_pendulum_grid_count_has_a_ceiling(capsys, monkeypatch):
    # 10^5 points take about 2 s and 200 MB as JSON, growing with the count;
    # a count past the ceiling exits 2 before any row is computed
    calls = []
    monkeypatch.setattr(invariants, "pendulum_compare", lambda grid: calls.append(grid) or [])
    for count in (100_001, 10**9):
        code, out, err = run_cli(capsys, "pendulum", f"--grid=0:1:{count}")
        assert (code, out) == (2, "") and "--grid" in err and "100000" in err, count
    assert calls == []
    assert run_cli(capsys, "pendulum", "--grid=0:1:100000", "--format=csv")[0] == 0
    assert len(calls) == 1 and len(calls[0]) == 100_000


def test_verify_sample_count_has_a_ceiling(capsys, monkeypatch):
    # each sample costs two quadratures, up to about 1.1 s at order 100 and
    # 100 digits; a count past the ceiling exits 2 before any table or quadrature
    calls = []
    report = SimpleNamespace(
        rows=[], max_deviation=0, area_sum_deviation=0, side_sum_deviation=0, passed=True
    )
    monkeypatch.setattr(
        oracle, "verify_series_numerics", lambda kappa, samples, **kw: calls.append(samples) or report
    )
    samples = lambda count: "--samples=" + ",".join(["0.01"] * count)
    for count in (41, 10**4):
        code, out, err = run_cli(capsys, "verify", "--kappa=1/2", samples(count))
        assert (code, out) == (2, "") and "--samples" in err and "1-40" in err, count
    assert calls == []
    assert run_cli(capsys, "verify", "--kappa=1/2", samples(40))[0] == 0
    assert len(calls) == 1 and len(calls[0]) == 40


def test_csv_output_builds_no_json_document(capsys, monkeypatch):
    # each output builds only what it prints: CSV the exact table rows, never
    # the value strings and numeric constants of the JSON document, and JSON
    # never the CSV rows
    def refuse(what):
        def fail(*args, **fields):
            raise AssertionError(f"{what} built for the other output")

        return fail

    tables = (
        ["bnf", "--kappa=1/2", "--order=5"],
        ["frobenius", "--kappa=3/2", "--order=20"],
        ["actions", "--kappa=1/2", "--order=6"],
        ["invariant", "--kappa=1/2", "--order=5"],
    )
    with monkeypatch.context() as m:
        m.setattr(cli, "_document", refuse("JSON document"))
        for argv in (*tables, ["radius", "--kappa=1/2", "--nmax=20", "--targets=a"]):
            code, out, err = run_cli(capsys, *argv, "--format=csv")
            assert (code, err) == (0, ""), argv
            assert out.startswith(",".join(_COMMANDS[argv[0]][2]) + "\n"), argv
        assert run_cli(capsys, *tables[0])[0] == 3
    monkeypatch.setattr(cli, "_series_rows", refuse("CSV rows"))
    for argv in tables:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(out)["command"] == argv[0], argv
    assert run_cli(capsys, *tables[0], "--format=csv")[0] == 3


def test_invariant_at_its_ceiling_with_a_long_kappa_exits_2_before_any_table(capsys, monkeypatch):
    # a 300-digit (997-bit) kappa at the order ceiling gives JSON values far
    # past the 4300 digits Python prints
    ceiling = _COMMANDS["invariant"][1]["order"][1]
    tables = []
    monkeypatch.setattr(invariants, "extract_sigma", lambda *args: tables.append(args))
    code, out, err = run_cli(capsys, "invariant", "--kappa=" + "7" * 300, f"--order={ceiling}")
    assert (code, out) == (2, "") and "--order" in err and "--kappa" in err
    assert tables == []


def test_kappa_exponent_past_the_digit_limit_exits_2(capsys, monkeypatch):
    # Fraction computes 10^exponent (seconds at 1e10000000), and no command
    # prints a kappa past Python's 4300-digit int-to-str limit: the exponent
    # is refused before Fraction runs, and a numerator or denominator past the
    # limit once it has, also when the limit is switched off.  A kappa just
    # under the limit is refused by the cost checks, which name its bit length
    # rather than print its 4300 digits
    for argv in (["bnf", "--kappa=1e4299", "--order=3"], ["radius", "--kappa=1e4299", "--nmax=20"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "14281-bit --kappa" in err and len(err) < 300, argv
    for limit in (4300, 0):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        for kappa in ("1e5000", "-1E-5000", "2e+0_4301", "1e100000000", "1e4300", "123e4299"):
            code, out, err = run_cli(capsys, "bnf", f"--kappa={kappa}", "--order=3")
            assert (code, out) == (2, "") and "--kappa" in err and "4300-digit" in err, kappa
    code, out, _ = run_cli(capsys, "bnf", "--kappa=5e-1", "--order=3")
    assert code == 0 and json.loads(out)["kappa"] == "1/2"


def test_ceilings_admit_the_documented_workloads():
    # the sizes the tests, the golden file and the benchmark workloads use
    needed = {
        "bnf": {"order": 9},
        "invariant": {"order": 10, "precision": 60},
        "frobenius": {"order": 120},
        "actions": {"order": 30, "precision": 60},
        "radius": {"nmax": 400},
        "verify": {"order": 30, "precision": 60},
    }
    for name, sizes in needed.items():
        limits = _COMMANDS[name][1]
        for option, size in sizes.items():
            default, ceiling = limits[option][:2]
            assert default <= ceiling and size <= ceiling, (name, option)


def test_missing_command_exits_64(capsys):
    assert run_cli(capsys)[0] == 64


# the commands whose output holds only exact numbers and floats, each with
# --kappa and, where it reads kappa, with --theta/--ell
_WITHOUT_MPMATH = (
    ["bnf", "--kappa=1/2", "--order=5"],
    ["bnf", "--theta=1,2,2.5", "--ell=1", "--order=5"],
    ["frobenius", "--kappa=-5/4", "--order=10"],
    ["frobenius", "--theta=1,2,2.5", "--ell=1", "--order=10", "--format=csv"],
    ["radius", "--kappa=1/2", "--nmax=20"],
    ["radius", "--theta=1,2,2.5", "--ell=1", "--nmax=20"],
    ["pendulum", "--grid=-1:1:3"],
    ["params", "--theta=1,2,3", "--ell=1"],
)

_MODULE_CHECK = """
import contextlib, io, json, sys
import eulertop.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "eulertop")
# mpmath, and the about 20 ms of start-up that dataclasses and inspect cost
avoided = lambda: [m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]
runs = [["import", 0, avoided()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = eulertop.cli.main(argv)
    runs.append([argv[0], code, avoided()])
print(json.dumps([loaded, runs]))
"""


def test_exact_and_float_commands_never_load_mpmath():
    # a fresh interpreter: this one has mpmath loaded already
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_CHECK, json.dumps(_WITHOUT_MPMATH)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    loaded, runs = json.loads(out)
    modules = ("cli", "invariants", "normalform", "oracle", "picardfuchs", "series")
    assert loaded == ["eulertop", *(f"eulertop.{m}" for m in modules)]
    assert runs == [["import", 0, []], *([argv[0], 0, []] for argv in _WITHOUT_MPMATH)]


# option values for argv drawn at random: (valid, malformed or hostile) for
# each option; an integer option also draws its default and floor as valid
# and its ceiling + 1 as refused, never the ceiling, which may take a minute
_HOSTILE = ("", "--", "nan", "1e5000", "1/0", "\u0661/\u0662", "-1", " ", "0x10")
_VALUES = {
    "kappa": (("1/2", "-5/4", "0"), ("1/", "abc", "1e-400")),
    "theta": (("1,2,3", "1,2,2.5"), ("1,2", "1,1,2", "nan,1,2")),
    "ell": (("1",), ("0", "inf")),
    "tol": (("1e-9", "1e-30"), ("0", "-1e-9", "inf")),
    "targets": (("a", "a,b,bnf,sigma"), (",", "x", "a,a")),
    "grid": (("-1:1:3",), ("0:1:1", f"0:1:{cli._GRID_POINTS + 1}", "1:2", "a:b:c")),
    "samples": (("0.01,-0.01", "0", "0.3"), ("5", "1e-400", ",".join(["0.01"] * (cli._SAMPLES + 1)))),
    "format": (("json", "csv"), ("xml",)),
    "order": ((), ("3.5",)),
    "nmax": ((), ("x",)),
    "precision": ((), ("1.0",)),
    "bogus": ((), ("1",)),
}


@st.composite
def _argvs(draw):
    """A command, or an unknown one, with its own options in any order and now
    and then one it does not read, each as --opt=v or as --opt v."""
    command = draw(st.sampled_from((*COMMANDS, "spectrum")))
    _, sizes, header = _COMMANDS.get(command, (None, {}, None))
    own, options = [*sizes, *(("format",) if header else ())], []
    if "kappa" in sizes:  # one source of kappa, or none
        options = draw(st.sampled_from((["kappa"], ["theta", "ell"], [])))
        own = [o for o in own if o not in cli._KAPPA]
    options += draw(st.permutations(own))[: draw(st.integers(0, len(own)))]
    options += draw(st.lists(st.sampled_from(sorted(set(_VALUES) - set(options))), max_size=1))
    argv = [command]
    for option in draw(st.permutations(options)):
        valid, refused = _VALUES[option]
        if sizes.get(option):
            default, ceiling, floor = sizes[option]
            valid, refused = (*valid, str(default), str(floor)), (*refused, str(ceiling + 1))
        valid_value = valid and draw(st.integers(0, 3))  # 3 in 4, so that some argv lists run
        value = draw(st.sampled_from(valid) if valid_value else st.sampled_from(refused + _HOSTILE))
        argv += [f"--{option}={value}"] if draw(st.booleans()) else [f"--{option}", value]
    return argv


@given(_argvs())
@example(["verify", "--kappa=1/2", "--precision=1", "--order=1"])  # both floors: the check fails, exit 3
def test_any_argv_exits_with_a_documented_code(argv):
    """main never raises: every argv ends in 0, 2 (refused), 3 (failed check)
    or 64 (unknown command)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 64), argv
