"""In-process client for the exact-tables and radius-scan workloads.

Reads a job as JSON on stdin: {"requests": [...], "trace": bool, "spans":
path or null}.  Runs the requests one after another in this process, timing
only the library call, then checks the result.  Before each request, and after the last,
it times the calibration slice.  Writes one JSON line per request to stdout
and a last line with the process's import time, peak RSS and, when traced,
the span summary.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import frozen
from calibration import calibration_seconds
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _table(series) -> list:
    return [c.coeffs for c in series.coeffs]


def _series_errors(name: str, series, sign: int, order: int) -> list[str]:
    errs = frozen.head_errors(name, _table(series))
    if series.order != order:
        errs.append(f"{name}: order {series.order}, asked for {order}")
    if series.flip_kappa() != series.reflect() * sign:
        errs.append(f"{name}: flip_kappa() != {sign:+d} * reflect()")
    return errs


class Checks:
    """Result checks; frobenius tables are also compared across methods."""

    def __init__(self, eulertop):
        self.et = eulertop
        self.frobenius: dict[int, tuple[str, str]] = {}

    def euler_normal_form(self, req, series):
        return _series_errors("bnf", series, -1, req["n"])

    bnf_via_reversion = euler_normal_form

    def extract_sigma(self, req, report):
        errs = _series_errors("sigma", report.tail, -1, req["n"])
        if not report.branch_consistent:
            errs.append("sigma: branch_consistent is false")
        lin = report.linear_log
        if (lin.kind, lin.factor) != (frozen.LOG64_RATIO, Fraction(1, 2)):
            errs.append(f"sigma: linear term {lin}")
        return errs

    def frobenius_table(self, req, table):
        PowerSeries = self.et.PowerSeries
        errs = _series_errors("a", PowerSeries("h", table.a), 1, req["n"])
        errs += _series_errors("b", PowerSeries("h", table.b), 1, req["n"])
        # a digest, not the tables: holding them would add to the worker's RSS
        h = hashlib.sha256()
        for poly in table.a + table.b:
            h.update(";".join(map(str, poly.coeffs)).encode() + b"|")
        digest = h.hexdigest()
        other = self.frobenius.pop(req["n"], None)
        if other is None or other[0] == req["method"]:
            self.frobenius[req["n"]] = (req["method"], digest)
        elif other[1] != digest:
            errs.append(f"frobenius n={req['n']}: methods_agree is false")
        return errs

    def assemble_beta_actions(self, req, pair):
        plus, minus = pair
        n = req["n"]
        errs = []
        if (plus.side, plus.k2, minus.side, minus.k2) != ("plus", 1, "minus", -1):
            errs.append("beta: sides or k2 signs wrong")
        if minus.series != plus.series:
            errs.append("beta: the two sides carry different series")
        s = plus.series
        errs += _series_errors("a", s.period_regular, 1, n)
        errs += _series_errors("b", s.period_singular.regular_part, 1, n)
        if s.period_singular.log_part != s.period_regular:
            errs.append("beta: log part of T_s is not T_r")
        if s.action_singular.log_part != s.action_regular:
            errs.append("beta: log part of 2 pi I_s is not 2 pi I_r")
        for k in range(1, min(n + 1, len(frozen.HEADS["a"])) + 1):
            want = frozen.strip(c / k for c in frozen.HEADS["a"][k - 1])
            if s.action_regular.coefficient(k).coeffs != want:
                errs.append(f"beta: 2 pi I_r at h^{k} is not a_{k - 1}/{k}")
        for name, series in (("I_r", s.action_regular), ("I_s", s.action_singular.regular_part)):
            if series.flip_kappa() != series.reflect() * -1:
                errs.append(f"beta: {name} breaks kappa parity")
        return errs

    def radius(self, req, reports):
        kappa = req["_kappa"]
        if [r.name for r in reports] != [req["target"]]:
            return [f"radius: reports {[r.name for r in reports]}"]
        r = reports[0]
        errs = frozen.ratio_errors(r.name, kappa, r.ns, r.ratios)
        if r.name in ("a", "b"):
            k = float(kappa)
            rho = (k + math.sqrt(k * k + 4)) / 2
            if not math.isclose(r.theoretical, 0.5 * min(rho, 1 / rho), rel_tol=1e-12):
                errs.append(f"radius: theoretical {r.theoretical}")
        if not math.isfinite(r.extrapolated):
            errs.append("radius: extrapolated estimate is not finite")
        return errs


def _call(et, req):
    """The timed call for a request, with any input set-up done beforehand."""
    op = req["op"]
    if op == "radius":
        if "theta" in req:
            req["_kappa"] = Fraction(et.oracle.params_from_inertia(*req["theta"], req["ell"]).kappa)
        else:
            req["_kappa"] = Fraction(req["kappa"])
        kappa, nmax, target = req["_kappa"], req["nmax"], req["target"]
        return lambda: et.invariants.radius_analysis(kappa, nmax, (target,))
    module = {
        "euler_normal_form": et.normalform,
        "bnf_via_reversion": et.invariants,
        "extract_sigma": et.invariants,
        "frobenius_table": et.picardfuchs,
        "assemble_beta_actions": et.picardfuchs,
    }[op]
    args = (req["n"], req["method"]) if op == "frobenius_table" else (req["n"],)
    return lambda: getattr(module, op)(*args)


def _run_one(et, checks, req):
    props = {}
    latency = 0.0
    try:
        call = _call(et, req)
        if "_kappa" in req:
            props["kappa_den_bits"] = req["_kappa"].denominator.bit_length()
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            latency = time.perf_counter() - t0
        errors = getattr(checks, req["op"])(req, result)
    except Exception as exc:  # a failed request is counted, and the loop goes on
        errors = [f"{type(exc).__name__}: {exc}"]
    return latency, errors, props


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import eulertop
    import eulertop.cli  # noqa: F401  (timed with the package: what a CLI user imports)

    import_s = time.perf_counter() - t0
    if Path(eulertop.__file__).resolve().parent.parent != SRC:
        print(f"eulertop imported from {eulertop.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    checks = Checks(eulertop)
    for i, req in enumerate(job["requests"]):
        if tracer:
            tracer.request = i
        cal = calibration_seconds()
        latency, errors, props = _run_one(eulertop, checks, req)
        props["cal_s"] = cal
        print(json.dumps({"i": i, "latency_s": latency, "errors": errors[:3], "props": props}), flush=True)
    final = {
        "done": True,
        "import_s": import_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cal_end_s": calibration_seconds(),
    }
    if tracer:
        final["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.dump(job["spans"])
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
