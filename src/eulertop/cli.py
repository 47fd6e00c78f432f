"""Command line front end.

Every pipeline is exposed as a subcommand with machine readable output
(JSON by default, CSV for coefficient tables).  Exact rationals serialize
as "p/q" strings, polynomials in kappa as coefficient arrays lowest power
first, and tagged symbolic constants as {"sym": ..., "factor": ..., "numeric": ...}.

Exit codes: 0 success, 2 validation error, 3 internal consistency or
numeric failure, 64 unknown command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from . import invariants, oracle, picardfuchs
from .normalform import euler_normal_form
from .series import InternalConsistencyError, KappaPoly, PowerSeries, SeriesUsageError

COMMANDS = (
    "bnf",
    "frobenius",
    "actions",
    "invariant",
    "verify",
    "radius",
    "pendulum",
    "params",
)

_USAGE = "usage: eulertop {%s} [options]" % ",".join(COMMANDS)


@dataclass
class CommandConfig:
    command: str
    kappa: Fraction | None = None
    inertia: tuple[float, float, float] | None = None
    ell: float | None = None
    order: int = 7
    tol: float = 1e-9
    fmt: str = "json"
    precision: int = 17
    nmax: int = 60
    targets: tuple[str, ...] = ("a", "b", "bnf", "sigma")
    grid: tuple[float, float, int] = (-5.0, 5.0, 100)
    samples: tuple[float, ...] = (0.005, -0.005, 0.02, -0.02)


def _parse_kappa(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesUsageError(f"cannot parse kappa {text!r} as a rational") from exc


def _fr(x: Fraction) -> str:
    return str(x)


def _num(x, precision: int) -> str:
    return mp.nstr(mp.mpf(x) if not hasattr(x, "_mpf_") else x, precision)


def _poly_json(poly: KappaPoly) -> list[str]:
    return [_fr(c) for c in poly.coeffs] if poly.coeffs else ["0"]


def _constant_json(const, kappa, precision):
    return {
        "sym": const.kind,
        "factor": _fr(const.factor),
        "numeric": _num(oracle.constant_value(const, kappa, max(precision, 17)), precision),
    }


def _series_rows(name: str, series: PowerSeries):
    rows = []
    for n, c in enumerate(series.coeffs):
        coeffs = c.coeffs if c.coeffs else (Fraction(0),)
        for k, val in enumerate(coeffs):
            rows.append((name, n, k, val.numerator, val.denominator))
    return rows


def _coefficient_table(series: PowerSeries, kappa: Fraction | None):
    table = []
    for n, c in enumerate(series.coeffs):
        entry = {"power": n, "kappa_poly": _poly_json(c)}
        if kappa is not None:
            entry["value"] = _fr(c(kappa))
        table.append(entry)
    return table


def _require_kappa(config: CommandConfig) -> Fraction:
    if config.kappa is None:
        raise SeriesUsageError(f"{config.command} needs --kappa or --theta/--ell")
    return config.kappa


# ---------------------------------------------------------------------------
# command handlers: each returns (json document, csv rows or None)
# ---------------------------------------------------------------------------


def _cmd_bnf(config: CommandConfig):
    kappa = _require_kappa(config)
    series = euler_normal_form(config.order)
    doc = {
        "command": "bnf",
        "kappa": _fr(kappa),
        "order": config.order,
        "coefficients": _coefficient_table(series, kappa),
    }
    return doc, _series_rows("bnf", series)


def _cmd_frobenius(config: CommandConfig):
    kappa = _require_kappa(config)
    rec = picardfuchs.frobenius_table(config.order, "recursion")
    closed = picardfuchs.frobenius_table(config.order, "closed_form")
    agree = rec.a == closed.a and rec.b == closed.b
    if not agree:
        raise InternalConsistencyError("recursion and closed form disagree")
    doc = {
        "command": "frobenius",
        "kappa": _fr(kappa),
        "order": config.order,
        "methods_agree": agree,
        "a": _coefficient_table(PowerSeries("h", rec.a), kappa),
        "b": _coefficient_table(PowerSeries("h", rec.b), kappa),
    }
    rows = _series_rows("a", PowerSeries("h", rec.a)) + _series_rows(
        "b", PowerSeries("h", rec.b)
    )
    return doc, rows


def _cmd_actions(config: CommandConfig):
    kappa = _require_kappa(config)
    plus, minus = picardfuchs.assemble_beta_actions(config.order)
    bundle = plus.series
    named = {
        "t_regular": bundle.period_regular,
        "t_singular_log_part": bundle.period_singular.log_part,
        "t_singular_regular_part": bundle.period_singular.regular_part,
        "two_pi_i_regular": bundle.action_regular,
        "two_pi_i_singular_log_part": bundle.action_singular.log_part,
        "two_pi_i_singular_regular_part": bundle.action_singular.regular_part,
    }
    doc = {
        "command": "actions",
        "kappa": _fr(kappa),
        "order": config.order,
        "series": {k: _coefficient_table(s, kappa) for k, s in named.items()},
        "beta": {
            b.side: {
                "k1": _constant_json(b.k1, kappa, config.precision),
                "k2": b.k2,
                "k3": _constant_json(b.k3, kappa, config.precision),
                "area": _constant_json(b.area, kappa, config.precision),
            }
            for b in (plus, minus)
        },
    }
    rows = []
    for name, s in named.items():
        rows.extend(_series_rows(name, s))
    return doc, rows


def _cmd_invariant(config: CommandConfig):
    kappa = _require_kappa(config)
    report = invariants.extract_sigma(config.order)
    doc = {
        "command": "invariant",
        "kappa": _fr(kappa),
        "order": config.order,
        "linear_log": _constant_json(report.linear_log, kappa, config.precision),
        "tail": _coefficient_table(report.tail, kappa),
        "areas": {
            "plus": _constant_json(report.area_plus, kappa, config.precision),
            "minus": _constant_json(report.area_minus, kappa, config.precision),
        },
        "branch_consistent": report.branch_consistent,
    }
    return doc, _series_rows("sigma_tail", report.tail)


def _cmd_verify(config: CommandConfig):
    kappa = _require_kappa(config)
    precision = max(config.precision, 50)
    report = oracle.verify_series_numerics(
        kappa, config.samples, order=config.order, tol=config.tol, dps=precision
    )
    doc = {
        "command": "verify",
        "kappa": _fr(kappa),
        "order": report.order,
        "tol": repr(config.tol),
        "rows": [
            {
                "h": repr(r.h),
                "side": r.side,
                "series": _num(r.series_value, precision),
                "quadrature": _num(r.quadrature_value, precision),
                "deviation": _num(r.deviation, 5),
                "cross_scheme_delta": _num(r.cross_scheme_delta, 5),
                "evaluations": r.evaluations,
            }
            for r in report.rows
        ],
        "max_deviation": _num(report.max_deviation, 5),
        "area_sum_deviation": _num(report.area_sum_deviation, 5),
        "side_sum_deviation": _num(report.side_sum_deviation, 5),
        "passed": report.passed,
    }
    if not report.passed:
        raise InternalConsistencyError(
            "series and quadrature disagree beyond tolerance:\n"
            + json.dumps(doc, indent=2)
        )
    return doc, None


def _cmd_radius(config: CommandConfig):
    kappa = _require_kappa(config)
    reports = invariants.radius_analysis(kappa, config.nmax, config.targets)
    doc = {
        "command": "radius",
        "kappa": _fr(kappa),
        "nmax": config.nmax,
        "reports": [
            {
                "sequence": r.name,
                "extrapolated": repr(r.extrapolated),
                "theoretical": repr(r.theoretical) if r.theoretical is not None else None,
                "skipped": list(r.skipped),
                "ns": list(r.ns),
                "ratios": [repr(x) for x in r.ratios],
            }
            for r in reports
        ],
    }
    rows = [(r.name, n, repr(x)) for r in reports for n, x in zip(r.ns, r.ratios)]
    return doc, rows


def _cmd_pendulum(config: CommandConfig):
    lo, hi, count = config.grid
    if count < 2:
        raise SeriesUsageError("grid needs at least 2 points")
    grid = [lo + (hi - lo) * i / (count - 1) for i in range(int(count))]
    rows = invariants.pendulum_compare(grid)
    doc = {
        "command": "pendulum",
        "pendulum_leading": repr(invariants.PENDULUM_LEADING),
        "margin_floor": repr(invariants.MARGIN_FLOOR),
        "rows": [
            {
                "kappa": repr(r.kappa),
                "euler_leading": repr(r.euler_leading),
                "margin": repr(r.margin),
            }
            for r in rows
        ],
    }
    csv_rows = [(repr(r.kappa), repr(r.euler_leading), repr(r.margin)) for r in rows]
    return doc, csv_rows


def _cmd_params(config: CommandConfig):
    if config.inertia is None or config.ell is None:
        raise SeriesUsageError("params needs --theta t1,t2,t3 and --ell")
    p = oracle.params_from_inertia(*config.inertia, config.ell)
    doc = {
        "command": "params",
        "theta": [repr(p.theta1), repr(p.theta2), repr(p.theta3)],
        "ell": repr(p.ell),
        "rho": repr(p.rho),
        "kappa": repr(p.kappa),
        "lambda": repr(p.lam),
    }
    return doc, None


_HANDLERS = {
    "bnf": _cmd_bnf,
    "frobenius": _cmd_frobenius,
    "actions": _cmd_actions,
    "invariant": _cmd_invariant,
    "verify": _cmd_verify,
    "radius": _cmd_radius,
    "pendulum": _cmd_pendulum,
    "params": _cmd_params,
}

_CSV_HEADERS = {
    "bnf": ("series", "n", "kappa_power", "numerator", "denominator"),
    "frobenius": ("series", "n", "kappa_power", "numerator", "denominator"),
    "actions": ("series", "n", "kappa_power", "numerator", "denominator"),
    "invariant": ("series", "n", "kappa_power", "numerator", "denominator"),
    "radius": ("sequence", "n", "ratio"),
    "pendulum": ("kappa", "euler_leading", "margin"),
}

_DEFAULT_ORDERS = {"frobenius": 40, "actions": 12, "verify": 30}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eulertop", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--kappa", type=str, default=None, help="exact rational, e.g. 1/2")
        p.add_argument("--theta", type=str, default=None, help="t1,t2,t3 moments of inertia")
        p.add_argument("--ell", type=float, default=None, help="angular momentum magnitude")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--precision", type=int, default=None, help="significant digits")
        p.add_argument("--nmax", type=int, default=60)
        p.add_argument("--targets", type=str, default="a,b,bnf,sigma")
        p.add_argument("--grid", type=str, default="-5:5:100", help="lo:hi:count")
        p.add_argument(
            "--samples", type=str, default="0.005,-0.005,0.02,-0.02", help="h values"
        )
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Spell '--opt -3/4' as '--opt=-3/4': argparse reads a separate value that
    starts with '-' as an option unless it looks like a plain negative number."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _config_from_args(args) -> CommandConfig:
    kappa = None
    inertia = None
    if args.theta is not None:
        parts = [float(x) for x in args.theta.split(",")]
        if len(parts) != 3:
            raise SeriesUsageError("--theta needs exactly three values")
        inertia = tuple(parts)
    if args.kappa is not None:
        if inertia is not None:
            raise SeriesUsageError("pass exactly one of --kappa and --theta")
        kappa = _parse_kappa(args.kappa)
    elif inertia is not None and args.command != "params":
        if args.ell is None:
            raise SeriesUsageError("--theta needs --ell")
        kappa = Fraction(oracle.params_from_inertia(*inertia, args.ell).kappa)
    if args.order is not None and args.order < 1:
        raise SeriesUsageError("--order must be >= 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SeriesUsageError("--tol must be positive and finite")
    precision = args.precision
    if precision is None:
        precision = int(os.environ.get("PRECISION", "17"))
    if precision < 1:
        raise SeriesUsageError("--precision and PRECISION must be at least 1")
    lo, hi, count = args.grid.split(":")
    return CommandConfig(
        command=args.command,
        kappa=kappa,
        inertia=inertia,
        ell=args.ell,
        order=args.order if args.order is not None else _DEFAULT_ORDERS.get(args.command, 7),
        tol=args.tol,
        fmt=args.fmt,
        precision=precision,
        nmax=args.nmax,
        targets=tuple(t for t in args.targets.split(",") if t),
        grid=(float(lo), float(hi), int(count)),
        samples=tuple(float(x) for x in args.samples.split(",")),
    )


def execute(config: CommandConfig) -> tuple[int, str]:
    """Run one command; returns (exit code, rendered document)."""
    doc, rows = _HANDLERS[config.command](config)
    if config.fmt == "csv":
        if rows is None:
            raise SeriesUsageError(f"{config.command} has no CSV form; use json")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADERS[config.command])
        writer.writerows(rows)
        return 0, buf.getvalue()
    return 0, json.dumps(doc, indent=2) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(_USAGE, file=sys.stderr)
        print(f"unknown command: {argv[0]}", file=sys.stderr)
        return 64
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        print(_USAGE, file=sys.stderr)
        return 64
    try:
        config = _config_from_args(args)
        code, text = execute(config)
    except (SeriesUsageError, oracle.ParameterError, oracle.DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalConsistencyError, oracle.QuadratureError, AssertionError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
