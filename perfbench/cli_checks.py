"""Checks on the output of one `eulertop` command, read as a user reads it.

``check(argv, code, stdout)`` returns the list of errors (empty when the
output is correct) and the properties the run records (verify digits).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import frozen

LOG8 = math.log(8.0)


def options(argv) -> dict[str, str]:
    """The --opt=value arguments after the command, as a dict."""
    return dict(a[2:].split("=", 1) for a in argv[1:])


def _table(entries, kappa: Fraction, errs: list, name: str) -> list:
    """Coefficient tuples per power; each exact value must equal the polynomial at kappa."""
    table = []
    for n, e in enumerate(entries):
        poly = frozen.strip(Fraction(c) for c in e["kappa_poly"])
        if e["power"] != n:
            errs.append(f"{name}: power {e['power']} at position {n}")
        if "value" in e and Fraction(e["value"]) != frozen.evaluate(poly, kappa):
            errs.append(f"{name}[{n}]: value is not the polynomial at kappa")
        table.append(poly)
    return table


def _csv_tables(text: str) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(text)))
    coeffs: dict[str, dict[int, dict[int, Fraction]]] = {}
    for series, n, k, num, den in rows[1:]:
        coeffs.setdefault(series, {}).setdefault(int(n), {})[int(k)] = Fraction(int(num), int(den))
    return {
        s: [frozen.strip(by_n[n].get(k, 0) for k in range(max(by_n[n]) + 1)) for n in sorted(by_n)]
        for s, by_n in coeffs.items()
    }


def _frozen_errors(name, table, sign, order, errs):
    if len(table) != order + 1:
        errs.append(f"{name}: {len(table)} coefficients for order {order}")
    errs += frozen.head_errors(name, table) + frozen.parity_errors(name, table, sign)


def _areas_errors(areas, errs):
    total = float(areas["plus"]["numeric"]) + float(areas["minus"]["numeric"])
    if not math.isclose(total, math.pi, rel_tol=1e-14):
        errs.append(f"separatrix areas sum to {total}, not pi")


def _digits(values, cap: float) -> float:
    worst = max(values)
    return cap if worst == 0 else min(cap, -math.log10(worst))


def check(argv, code: int, out: str):
    errs: list[str] = []
    props: dict = {}
    if code != 0:
        return [f"exit code {code}"], props
    command, opts = argv[0], options(argv)
    if opts.get("format") == "csv":
        tables = _csv_tables(out)
        _frozen_errors("a", tables["a"], 1, int(opts["order"]), errs)
        _frozen_errors("b", tables["b"], 1, int(opts["order"]), errs)
        return errs, props
    doc = json.loads(out)
    if doc["command"] != command:
        return [f"answered {doc['command']!r} to {command!r}"], props
    kappa = Fraction(doc["kappa"]) if command not in ("pendulum", "params", "verify") else None
    if command == "bnf":
        table = _table(doc["coefficients"], kappa, errs, "bnf")
        _frozen_errors("bnf", table, -1, int(opts["order"]), errs)
    elif command == "frobenius":
        if doc["methods_agree"] is not True:
            errs.append("frobenius: methods_agree is not true")
        for name in ("a", "b"):
            _frozen_errors(name, _table(doc[name], kappa, errs, name), 1, int(opts["order"]), errs)
    elif command == "actions":
        t = {k: _table(v, kappa, errs, k) for k, v in doc["series"].items()}
        order = int(opts["order"])
        _frozen_errors("a", t["t_regular"], 1, order, errs)
        _frozen_errors("b", t["t_singular_regular_part"], 1, order, errs)
        if t["t_singular_log_part"] != t["t_regular"] or t["two_pi_i_singular_log_part"] != t["two_pi_i_regular"]:
            errs.append("actions: log parts differ from the regular solutions")
        for k in range(1, len(frozen.HEADS["a"]) + 1):
            if t["two_pi_i_regular"][k] != frozen.strip(c / k for c in frozen.HEADS["a"][k - 1]):
                errs.append(f"actions: 2 pi I_r at h^{k} is not a_{k - 1}/{k}")
        for name in ("two_pi_i_regular", "two_pi_i_singular_regular_part"):
            errs += frozen.parity_errors(name, t[name], -1)
        if (doc["beta"]["plus"]["k2"], doc["beta"]["minus"]["k2"]) != (1, -1):
            errs.append("actions: k2 signs wrong")
        _areas_errors({s: doc["beta"][s]["area"] for s in ("plus", "minus")}, errs)
    elif command == "invariant":
        if doc["branch_consistent"] is not True:
            errs.append("invariant: branch_consistent is not true")
        lin = doc["linear_log"]
        if (lin["sym"], lin["factor"]) != (frozen.LOG64_RATIO, "1/2"):
            errs.append(f"invariant: linear term {lin}")
        _frozen_errors("sigma", _table(doc["tail"], kappa, errs, "sigma"), -1, int(opts["order"]), errs)
        _areas_errors(doc["areas"], errs)
    elif command == "verify":
        samples = [float(h) for h in opts["samples"].split(",")]
        tol = float(doc["tol"])
        if doc["passed"] is not True or not float(doc["max_deviation"]) <= tol:
            errs.append(f"verify: max_deviation {doc['max_deviation']} above tol {tol}")
        rows = doc["rows"]
        if [float(r["h"]) for r in rows] != samples:
            errs.append("verify: rows do not match the samples")
        if any(r["side"] != ("plus" if float(r["h"]) > 0 else "minus") for r in rows):
            errs.append("verify: a row is on the wrong side")
        cap = max(int(opts.get("precision", 17)), 50)
        props["agree_digits"] = _digits([float(r["deviation"]) for r in rows], cap)
        props["cross_digits"] = _digits([float(r["cross_scheme_delta"]) for r in rows], cap)
    elif command == "radius":
        targets = opts["targets"].split(",")
        reports = doc["reports"]
        if [r["sequence"] for r in reports] != targets:
            errs.append(f"radius: sequences {[r['sequence'] for r in reports]}")
        k = float(kappa)
        rho = (k + math.sqrt(k * k + 4)) / 2
        for r in reports:
            errs += frozen.ratio_errors(r["sequence"], kappa, r["ns"], [float(x) for x in r["ratios"]])
            if r["sequence"] in ("a", "b") and not math.isclose(float(r["theoretical"]), 0.5 * min(rho, 1 / rho), rel_tol=1e-12):
                errs.append(f"radius: theoretical {r['theoretical']}")
    elif command == "pendulum":
        count = int(opts["grid"].split(":")[2])
        if len(doc["rows"]) != count:
            errs.append(f"pendulum: {len(doc['rows'])} rows for {count} grid points")
        if any(float(r["margin"]) < LOG8 - 1e-12 for r in doc["rows"]):
            errs.append("pendulum: a margin is below log 8")
    elif command == "params":
        t1, t2, t3 = (float(x) for x in opts["theta"].split(","))
        ell = float(opts["ell"])
        rho = math.sqrt(t1 * (t3 - t2) / (t3 * (t2 - t1)))
        lam = (ell / t2) * math.sqrt((t2 - t1) * (t3 - t2) / (t1 * t3))
        for key, want in (("rho", rho), ("kappa", rho - 1 / rho), ("lambda", lam)):
            if not math.isclose(float(doc[key]), want, rel_tol=1e-12, abs_tol=1e-15):
                errs.append(f"params: {key} = {doc[key]}, expected {want}")
    return errs, props
