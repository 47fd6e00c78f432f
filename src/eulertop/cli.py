"""Command line front end.

Every pipeline is exposed as a subcommand with machine readable output
(JSON by default, CSV for coefficient tables).  Exact rationals serialize
as "p/q" strings, polynomials in kappa as coefficient arrays lowest power
first, and tagged symbolic constants as {"sym": ..., "factor": ..., "numeric": ...}.

One table, ``_COMMANDS``, defines the subcommands.  Each accepts only the
options it reads, and argparse checks every value: an option the command
does not read, a malformed or non-finite number, an empty --targets, an
--order, --nmax, --precision, --grid or --samples count outside its range
(_COMMANDS gives each integer option its default, ceiling and floor; the
ceiling bounds the cost of a run) and a --tol that is not positive
exit 2; so does a JSON table whose exact values would pass Python's limit
on int-to-str digits, and a radius run whose --nmax and bits of kappa would
take it past a minute.

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
from fractions import Fraction

from . import invariants, oracle, picardfuchs
from .normalform import euler_normal_form
from .series import InternalConsistencyError, KappaPoly, PowerSeries, SeriesUsageError, _quoted


def _checked(parse, ok, problem: str):
    """An argparse type= converter: parse the text and keep the value if ok(value).
    Non-ASCII text is refused first: Python's int, float and Fraction read any
    Unicode digit (and Unicode spaces), so '١/٢' would otherwise be 1/2."""

    def convert(text: str):
        if not text.isascii():
            raise argparse.ArgumentTypeError(f"{problem}: {_quoted(text)} is not ASCII")
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{problem}: {_quoted(text)}")

    return convert


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _sample_floats(text: str) -> tuple[float, ...]:
    """_floats, refusing a value written nonzero that underflows to 0.0, the separatrix."""
    values = _floats(text)
    for item, value in zip(text.split(","), values):
        if value == 0 and re.search("[1-9]", item.lower().partition("e")[0]):
            raise ValueError(item)
    return values


def _lo_hi_count(text: str) -> tuple[float, float, int]:
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


def _rational(text: str) -> Fraction:
    """Fraction(text), refusing an exponent (whose power of ten Fraction computes: 11 s at
    1e10000000), then a numerator or denominator, past the digit limit (4300 if off)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    exponent = re.search(r"e[-+]?[0_]*(\d[\d_]*)\s*$", text, re.I)
    digits = exponent[1].replace("_", "") if exponent else "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise argparse.ArgumentTypeError(f"exponent of {_quoted(text)} past the {limit}-digit limit")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10**limit:
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is past the {limit}-digit limit")
    return value


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


_kappa = _checked(_rational, lambda k: True, "cannot parse kappa as a rational")
_finite = _checked(float, math.isfinite, "need a finite number")
_tol = _checked(float, lambda t: math.isfinite(t) and t > 0, "must be positive and finite")
_theta = _checked(_floats, lambda t: len(t) == 3 and _all_finite(t), "need finite t1,t2,t3")
_targets = _checked(lambda t: tuple(x for x in t.split(",") if x), bool, "need a sequence")
# the most --grid points: JSON output holds about 1.5 KB of memory per point,
# so 10^5 points take about 1.5 s and 170 MB on a 2-CPU machine
_GRID_POINTS = 100_000
_grid = _checked(
    _lo_hi_count,
    lambda g: _all_finite(g) and 2 <= g[2] <= _GRID_POINTS,
    f"need finite lo:hi:n with n from 2 to {_GRID_POINTS}",
)
# the most --samples values: each costs two quadratures, about 0.15 s at order
# 100 and 100 digits in the costly band |h| = 1e-31, where 40 took 5.5-7.1 s
# (whole process, five runs) on a 2-CPU machine
_SAMPLES = 40
_samples = _checked(
    _sample_floats,
    lambda s: _all_finite(s) and len(s) <= _SAMPLES,
    f"need 1-{_SAMPLES} finite h, no underflow",
)

# add_argument keywords of every option
_ARGS = {
    "kappa": dict(type=_kappa, help="exact rational, e.g. 1/2"),
    "theta": dict(type=_theta, help="t1,t2,t3 moments of inertia"),
    "ell": dict(type=_finite, help="angular momentum magnitude"),
    "tol": dict(type=_tol, default=1e-9),
    "precision": dict(help="significant digits (default: $PRECISION or 17)"),
    "targets": dict(type=_targets, default=("a", "b", "bnf", "sigma")),
    "grid": dict(type=_grid, default=(-5.0, 5.0, 100), help="lo:hi:count"),
    "samples": dict(type=_samples, default=(0.005, -0.005, 0.02, -0.02), help="h values"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _num(x, precision: int) -> str:
    mp = oracle.mp  # mpmath loads on first use: only the commands that print mpmath numbers load it
    return mp.nstr(mp.mpf(x) if not hasattr(x, "_mpf_") else x, precision)


def _poly_json(poly: KappaPoly) -> list[str]:
    return [str(c) for c in poly.coeffs] if poly else ["0"]


def _constant_json(const, kappa, precision):
    return {
        "sym": const.kind,
        "factor": str(const.factor),
        "numeric": _num(oracle.constant_value(const, kappa, max(precision, 17)), precision),
    }


def _series_rows(name: str, series: PowerSeries):
    return [
        (name, n, k, val.numerator, val.denominator)
        for n, c in enumerate(series.coeffs)
        for k, val in enumerate(c.coeffs or (Fraction(0),))
    ]


def _document(args, **fields) -> dict:
    """A document of a command that reads kappa: command, kappa, order or nmax, fields."""
    size = "order" if hasattr(args, "order") else "nmax"
    return {"command": args.command, "kappa": str(args.kappa), size: getattr(args, size), **fields}


def _coefficient_table(series: PowerSeries, kappa: Fraction):
    return [
        {"power": n, "kappa_poly": _poly_json(c), "value": str(c(kappa))}
        for n, c in enumerate(series.coeffs)
    ]


# ---------------------------------------------------------------------------
# command handlers: each reads the parsed namespace and returns (a function
# that builds the json document, a function that builds the csv rows, or None
# for a JSON-only command); each output builds only what it prints
# ---------------------------------------------------------------------------


def _check_frobenius(order: int, a: PowerSeries, b: PowerSeries) -> None:
    """Exit 3 unless the recursion's Frobenius series a and b equal the closed form's."""
    closed = picardfuchs.frobenius_table(order, "closed_form")
    if (a.coeffs, b.coeffs) != (closed.a, closed.b):
        raise InternalConsistencyError("recursion and closed form disagree")


def _cmd_bnf(args):
    series = euler_normal_form(args.order)
    if series != invariants.bnf_via_reversion(args.order):
        raise InternalConsistencyError("Lie normal form and the recurrence that inverts the regular action disagree")
    doc = lambda: _document(args, coefficients=_coefficient_table(series, args.kappa))
    return doc, lambda: _series_rows("bnf", series)


def _cmd_frobenius(args):
    kappa = args.kappa
    rec = picardfuchs.frobenius_table(args.order, "recursion")
    a, b = PowerSeries("h", rec.a), PowerSeries("h", rec.b)
    _check_frobenius(args.order, a, b)
    # methods_agree is always true (a disagreement exits 3 above); it stays for JSON readers
    doc = lambda: _document(
        args,
        methods_agree=True,
        a=_coefficient_table(a, kappa),
        b=_coefficient_table(b, kappa),
    )
    return doc, lambda: _series_rows("a", a) + _series_rows("b", b)


def _cmd_actions(args):
    kappa = args.kappa
    plus, minus = picardfuchs.assemble_beta_actions(args.order)
    bundle = plus.series
    _check_frobenius(args.order, bundle.period_regular, bundle.period_singular.regular_part)
    named = {
        "t_regular": bundle.period_regular,
        "t_singular_log_part": bundle.period_singular.log_part,
        "t_singular_regular_part": bundle.period_singular.regular_part,
        "two_pi_i_regular": bundle.action_regular,
        "two_pi_i_singular_log_part": bundle.action_singular.log_part,
        "two_pi_i_singular_regular_part": bundle.action_singular.regular_part,
    }
    doc = lambda: _document(
        args,
        series={k: _coefficient_table(s, kappa) for k, s in named.items()},
        beta={
            b.side: {
                "k1": _constant_json(b.k1, kappa, args.precision),
                "k2": b.k2,
                "k3": _constant_json(b.k3, kappa, args.precision),
                "area": _constant_json(b.area, kappa, args.precision),
            }
            for b in (plus, minus)
        },
    )
    return doc, lambda: [row for name, s in named.items() for row in _series_rows(name, s)]


def _cmd_invariant(args):
    kappa = args.kappa
    report = invariants.extract_sigma(args.order)
    doc = lambda: _document(
        args,
        linear_log=_constant_json(report.linear_log, kappa, args.precision),
        tail=_coefficient_table(report.tail, kappa),
        areas={
            "plus": _constant_json(report.area_plus, kappa, args.precision),
            "minus": _constant_json(report.area_minus, kappa, args.precision),
        },
        branch_consistent=report.branch_consistent,
    )
    return doc, lambda: _series_rows("sigma_tail", report.tail)


def _cmd_verify(args):
    precision = max(args.precision, 50)
    report = oracle.verify_series_numerics(
        args.kappa, args.samples, order=args.order, tol=args.tol, dps=precision
    )
    doc = _document(
        args,
        tol=repr(args.tol),
        rows=[
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
        max_deviation=_num(report.max_deviation, 5),
        area_sum_deviation=_num(report.area_sum_deviation, 5),
        side_sum_deviation=_num(report.side_sum_deviation, 5),
        passed=report.passed,
    )
    if report.max_deviation > args.tol:
        raise InternalConsistencyError(
            "series and quadrature disagree beyond tolerance:\n"
            + json.dumps(doc, indent=2)
        )
    if not report.passed:
        raise InternalConsistencyError(
            "gauss and tanh-sinh quadrature disagree beyond tolerance: cross_scheme_delta "
            + _num(max(r.cross_scheme_delta for r in report.rows), 5)
        )
    return lambda: doc, None


def _cmd_radius(args):
    reports = invariants.radius_analysis(args.kappa, args.nmax, args.targets)
    doc = lambda: _document(
        args,
        reports=[
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
    )
    return doc, lambda: [(r.name, n, repr(x)) for r in reports for n, x in zip(r.ns, r.ratios)]


def _cmd_pendulum(args):
    lo, hi, count = args.grid
    if math.isfinite((hi - lo) * (count - 1)):
        grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    else:
        # hi - lo overflows: weigh the ends instead, and clamp to them, since
        # with both ends near the float maximum the rounding may pass one
        low, high = sorted((lo, hi))
        steps = [i / (count - 1) for i in range(count)]
        grid = [min(high, max(low, lo * (1 - t) + hi * t)) for t in steps]
    rows = invariants.pendulum_compare(grid)
    doc = lambda: {
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
    return doc, lambda: [(repr(r.kappa), repr(r.euler_leading), repr(r.margin)) for r in rows]


def _cmd_params(args):
    if args.theta is None:
        raise SeriesUsageError("params needs --theta t1,t2,t3 and --ell")
    p = oracle.params_from_inertia(*args.theta, args.ell)
    doc = lambda: {
        "command": "params",
        "theta": [repr(p.theta1), repr(p.theta2), repr(p.theta3)],
        "ell": repr(p.ell),
        "rho": repr(p.rho),
        "kappa": repr(p.kappa),
        "lambda": repr(p.lam),
    }
    return doc, None


_KAPPA = dict.fromkeys(("kappa", "theta", "ell"))
_SERIES_HEADER = ("series", "n", "kappa_power", "numerator", "denominator")

# name: (handler, {option it reads: (default, ceiling, floor) of an integer
#        option, else None}, CSV header, or None for a JSON-only command
#        without --format).  --precision sets the digits of the numeric fields.
# At a kappa of a few bits a run at the ceiling takes under a minute on a
# 2-CPU machine; the exact tables also grow with the bits of kappa.
_COMMANDS = {
    "bnf": (_cmd_bnf, {**_KAPPA, "order": (7, 40, 1)}, _SERIES_HEADER),
    "frobenius": (_cmd_frobenius, {**_KAPPA, "order": (40, 200, 1)}, _SERIES_HEADER),
    "actions": (_cmd_actions, {**_KAPPA, "order": (12, 200, 1), "precision": (17, 100, 1)}, _SERIES_HEADER),
    "invariant": (_cmd_invariant, {**_KAPPA, "order": (7, 90, 2), "precision": (17, 100, 1)}, _SERIES_HEADER),
    "verify": (
        _cmd_verify,
        {**_KAPPA, "order": (30, 100, 1), "tol": None, "precision": (17, 100, 1), "samples": None},
        None,
    ),
    "radius": (_cmd_radius, {**_KAPPA, "nmax": (60, 400, 20), "targets": None}, ("sequence", "n", "ratio")),
    "pendulum": (_cmd_pendulum, {"grid": None}, ("kappa", "euler_leading", "margin")),
    "params": (_cmd_params, {"theta": None, "ell": None}, None),
}

COMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eulertop", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (_, options, header) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in (*options, *(("format",) if header else ())):
            kwargs = dict(_ARGS.get(option, {}))
            if options.get(option):
                default, ceiling, floor = options[option]
                needs = "need"
                if option == "precision":
                    # argparse passes a string default through type=, so
                    # PRECISION is read now and checked like --precision
                    default = os.environ.get("PRECISION", str(default))
                    needs = "--precision and PRECISION need"
                ok = range(floor, ceiling + 1).__contains__
                convert = _checked(int, ok, f"{needs} an integer from {floor} to {ceiling}")
                kwargs.update(type=convert, default=default)
            p.add_argument(f"--{option}", **kwargs)
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


def _refuse_empty_values(args) -> None:
    """Refuse --opt=--: argparse drops a '--' value and stores [] without
    calling the option's type= converter, so no other check would see it."""
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise SeriesUsageError(f"argument --{name}: expected a value, got '--'")


def _derive_kappa(args) -> None:
    """The checks that span options: a command that reads kappa takes it from
    --kappa or from --theta with --ell, never both, and reads --ell only with --theta."""
    theta = getattr(args, "theta", None)
    if theta is not None and getattr(args, "kappa", None) is not None:
        raise SeriesUsageError("pass exactly one of --kappa and --theta")
    if theta is not None and args.ell is None:
        raise SeriesUsageError("--theta needs --ell")
    if hasattr(args, "kappa") and theta is None and args.ell is not None:
        raise SeriesUsageError("--ell needs --theta")
    if hasattr(args, "kappa") and args.kappa is None:
        if theta is None:
            raise SeriesUsageError(f"{args.command} needs --kappa or --theta/--ell")
        args.kappa = Fraction(oracle.params_from_inertia(*theta, args.ell).kappa)


def _kappa_bits(kappa: Fraction) -> int:
    """The bit length of kappa's numerator or denominator, whichever is longer."""
    return max(kappa.numerator.bit_length(), kappa.denominator.bit_length())


def _check_value_digits(args) -> None:
    """Refuse a table command whose JSON values pass Python's int-to-str digit
    limit, before any table is built: at order n and a kappa of b bits (numerator
    or denominator) no value has more than n (b + 6) bits (measured to n = 200,
    b = 100).  The CSV rows hold the kappa-polynomial coefficients only, whatever kappa."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or _COMMANDS[args.command][2] is not _SERIES_HEADER or args.format != "json":
        return
    bits = _kappa_bits(args.kappa)
    if args.order * (bits + 6) > limit * math.log2(10):
        raise SeriesUsageError(
            f"--order={args.order} with a {bits}-bit --kappa gives values of over {limit} "
            "digits, which Python does not print; lower --order or shorten --kappa"
        )


# the largest nmax^2 (b + 14) that _check_radius_cost admits for bnf or sigma,
# and the largest nmax^3 (b + 14)^2 for every target, a and b alone included
_RADIUS_BUDGET = 4_000_000
_RADIUS_AB_BUDGET = 30_000_000_000_000


def _check_radius_cost(args) -> None:
    """Refuse a radius run that would take about a minute, before any table is
    built.  The bnf and sigma targets are bounded by nmax^2 (b + 14), b the
    bits of kappa: on a 2-CPU machine, runs at 3.7e6 to 4.1e6 took 12-21 s
    (nmax 400 at b = 9 and 10, 300 at b = 31, 250 at b = 52) and one at 4.8e6
    took 26-29 s (nmax 400, b = 16): a run within the ceiling takes under half
    the minute it aims at.  At the same bound a longer kappa costs less, since
    the integer scales of the recurrences, about 2 nmax log2(nmax) bits,
    outweigh the bits of kappa.  The a and b targets took 0.035, 0.19, 0.57
    and 1.36 s at nmax 200 and 0.12, 0.79, 2.84 and 6.23 s at nmax 400, with
    kappa = (2^k + 1)/(2^k - 3) of b = 100, 300, 600 and 998 bits; a random
    998-bit kappa took 6.1 s at nmax 400.  Their time grows about as
    nmax^3 (b + 14)^2: random kappas at 2.4e13 to 3.0e13 took 1.7-3.8 s (nmax
    400 at b = 600, 234 at 1500, 149 at 3000, 52 at 14281) and one at 1.2e14
    took 11.9 s (nmax 83, b = 14281), so this ceiling is far below the minute.
    A run within the bnf and sigma ceiling is within this one."""
    if args.command != "radius":
        return
    bits = _kappa_bits(args.kappa)
    if args.nmax**3 * (bits + 14) ** 2 > _RADIUS_AB_BUDGET:
        raise SeriesUsageError(
            f"--nmax={args.nmax} with a {bits}-bit --kappa passes the cost ceiling "
            f"of every target, a and b included, nmax^3 (bits + 14)^2 <= {_RADIUS_AB_BUDGET}; "
            "lower --nmax or shorten --kappa"
        )
    if {"bnf", "sigma"} & set(args.targets) and args.nmax**2 * (bits + 14) > _RADIUS_BUDGET:
        raise SeriesUsageError(
            f"--nmax={args.nmax} with a {bits}-bit --kappa passes the cost "
            f"ceiling of bnf and sigma, nmax^2 (bits + 14) <= {_RADIUS_BUDGET}; "
            "lower --nmax, shorten --kappa or use --targets=a,b"
        )


def execute(args) -> str:
    """Run one parsed command; returns the rendered document."""
    handler, _, header = _COMMANDS[args.command]
    doc, rows = handler(args)
    if getattr(args, "format", "json") == "json":
        return json.dumps(doc(), indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows())
    return buf.getvalue()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        parser.print_usage(sys.stderr)
        print(f"unknown command: {argv[0]}", file=sys.stderr)
        return 64
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        _refuse_empty_values(args)
        _derive_kappa(args)
        _check_value_digits(args)
        _check_radius_cost(args)
        text = execute(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalConsistencyError, oracle.QuadratureError, AssertionError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
