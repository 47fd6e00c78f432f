#!/usr/bin/env python3
"""Benchmark of eulertop: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: exact-tables, radius-scan, cli-session (see perfbench/README.md).
With --trace 0 the run times the request list untraced and prints the
end-to-end metrics; with --trace 1 it also runs the same list traced and
prints the per-layer metrics.  Every output is checked; the last line of
stdout is one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import cli_checks  # noqa: E402
from calibration import calibration_seconds  # noqa: E402
import workloads  # noqa: E402

# times are reported at a reference machine speed: each is scaled by
# CAL_REF_S over the calibration slice timed around it (see calibration.py)
CAL_REF_S = 0.018
RUN_LIMIT_S = 170.0  # everything, set-up included, ends before this
REQUEST_LIMIT_S = 60.0  # a request slower than this is a failure
SETUP_REPEATS = 7

# per-layer timings at the ROADMAP 1(b) sizes that finish in seconds
FIXED = (
    ("frobenius_table.recursion.n60", {"op": "frobenius_table", "n": 60, "method": "recursion"}),
    ("frobenius_table.recursion.n200", {"op": "frobenius_table", "n": 200, "method": "recursion"}),
    ("frobenius_table.closed_form.n60", {"op": "frobenius_table", "n": 60, "method": "closed_form"}),
    ("frobenius_table.closed_form.n200", {"op": "frobenius_table", "n": 200, "method": "closed_form"}),
    ("euler_normal_form.n7", {"op": "euler_normal_form", "n": 7}),
    ("euler_normal_form.n10", {"op": "euler_normal_form", "n": 10}),
    ("euler_normal_form.n12", {"op": "euler_normal_form", "n": 12}),
    ("bnf_via_reversion.n7", {"op": "bnf_via_reversion", "n": 7}),
    ("bnf_via_reversion.n15", {"op": "bnf_via_reversion", "n": 15}),
    ("extract_sigma.n7", {"op": "extract_sigma", "n": 7}),
    ("extract_sigma.n15", {"op": "extract_sigma", "n": 15}),
    ("radius.bnf.nmax40", {"op": "radius", "target": "bnf", "nmax": 40, "kappa": "1/2"}),
    ("radius.sigma.nmax40", {"op": "radius", "target": "sigma", "nmax": 40, "kappa": "1/2"}),
)


class Run:
    """One benchmark run: the child environment, the deadline and the failures."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("PRECISION", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.errors.append(f"{label}: {'; '.join(errors)}")

    def child(self, argv, timeout):
        """Run a child to completion; a timeout kills it and returns None."""
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(0.1, min(timeout, self.remaining())),
            )
        except subprocess.TimeoutExpired:
            return None

    # -- set-up ------------------------------------------------------------

    def setup_seconds(self) -> dict:
        """Fresh interpreters importing eulertop and eulertop.cli; the first only warms."""
        argv = [sys.executable, "-c", "import eulertop, eulertop.cli"]
        times = []
        for i in range(SETUP_REPEATS + 1):
            cal = calibration_seconds()
            t0 = time.perf_counter()
            proc = self.child(argv, REQUEST_LIMIT_S)
            elapsed = time.perf_counter() - t0
            if proc is None or proc.returncode != 0:
                raise SystemExit(f"importing eulertop failed: {proc.stderr if proc else 'timeout'}")
            if i:
                times.append({"latency_s": elapsed, "props": {"cal_s": cal}})
        return {"results": times, "cal_end": calibration_seconds()}

    # -- passes over the request list --------------------------------------

    def in_process(self, requests, trace: bool, spans_path=None) -> dict:
        """All requests in one worker process; returns latencies, errors and the worker's summary."""
        job = {"requests": requests, "trace": trace, "spans": str(spans_path) if spans_path else None}
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(json.dumps(job), timeout=max(0.1, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        done = {r["i"]: r for r in lines if "i" in r}
        final = next((r for r in lines if r.get("done")), {})
        cal_end = final.get("cal_end_s")
        results = []
        for i, req in enumerate(requests):
            r = done.get(i)
            if r is None:
                why = "no result (the worker timed out or crashed)"
                r = {"latency_s": None, "errors": [why, err.strip()[-300:]], "props": {}}
            results.append(r)
        return {"results": results, "final": final, "cal_end": cal_end}

    def cli(self, requests, trace: bool) -> dict:
        """One fresh process per request, traced or not."""
        results, pieces = [], []
        for i, req in enumerate(requests):
            if trace:
                piece = OUT / f"piece-{i}.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(piece), *req["argv"]]
            else:
                argv = [sys.executable, "-m", "eulertop.cli", *req["argv"]]
            cal = calibration_seconds()
            t0 = time.perf_counter()
            proc = self.child(argv, REQUEST_LIMIT_S) if self.remaining() > 0 else None
            latency = time.perf_counter() - t0
            if proc is None:
                results.append({"latency_s": None, "errors": ["timed out or not started before the deadline"], "props": {}})
                continue
            try:
                errors, props = cli_checks.check(req["argv"], proc.returncode, proc.stdout)
            except Exception as exc:  # output the checks cannot read is a failed request
                errors, props = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
            if proc.returncode:
                errors.append(proc.stderr.strip()[-300:])
            props["output_bytes"] = len(proc.stdout.encode())
            props["cal_s"] = cal
            results.append({"latency_s": latency, "errors": errors, "props": props})
            if trace and piece.exists():
                pieces.append((i, json.loads(piece.read_text())))
                piece.unlink()
        return {"results": results, "pieces": pieces, "cal_end": calibration_seconds()}

    def run_list(self, requests, trace: bool, tag: str) -> dict:
        spans_path = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl" if trace else None
        if self.workload == "cli-session":
            out = self.cli(requests, trace)
            if trace:
                with open(spans_path, "w") as fh:
                    for i, piece in out["pieces"]:
                        for span in piece["spans"]:
                            span[2] = i
                            fh.write(json.dumps(span) + "\n")
        else:
            out = self.in_process(requests, trace, spans_path)
        for req, r in zip(requests, out["results"]):
            self.record(f"{tag} {_describe(req)}", r["errors"])
        return out


def _describe(req) -> str:
    if req["op"] == "cli":
        return "eulertop " + " ".join(req["argv"])
    return f"{req['op']} {json.dumps({k: v for k, v in req.items() if k != 'op'}, sort_keys=True)}"


def _scaled(out) -> list[float]:
    """Latencies at the reference speed: each one times CAL_REF_S over the mean
    of the calibration slices timed just before and just after it."""
    results = out["results"]
    cals = [r["props"].get("cal_s") for r in results] + [out["cal_end"]]
    scaled = []
    for i, r in enumerate(results):
        if r["latency_s"] is None or cals[i] is None:
            continue
        after = next((c for c in cals[i + 1:] if c is not None), cals[i])
        scaled.append(r["latency_s"] * CAL_REF_S * 2 / (cals[i] + after))
    return scaled


def _cals(out) -> list[float]:
    return [r["props"]["cal_s"] for r in out["results"] if "cal_s" in r["props"]]


def harrell_davis(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics weighted
    by the Beta((n+1)q, (n+1)(1-q)) mass of their slice of [0, 1].  It moves
    far less between runs than any single order statistic."""
    import mpmath

    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    return sum(
        float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x
        for i, x in enumerate(sorted_values)
    )


def _latency_stats(latencies) -> dict:
    lat = sorted(x for x in latencies if x is not None)
    n = len(lat)
    # the highest percentile that still has at least ten samples beyond it
    k = max(0, n - 11)
    return {
        "wall_s": sum(lat),
        "latency_p50_s": harrell_davis(lat, 0.5),
        "latency_tail_s": harrell_davis(lat, (k + 1) / n),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "samples": n,
    }


def _cache_share(requests) -> float:
    """Share of requests a truncation cache could answer: an earlier request of
    the same function (same method, kappa and target) asked for at least this order."""
    best: dict = {}
    hits = 0
    for req in requests:
        if req["op"] == "cli":
            return 0.0  # each request is a fresh process
        key = (req["op"], req.get("method"), req.get("target"), req.get("kappa"), str(req.get("theta")))
        order = req.get("n", req.get("nmax"))
        hits += best.get(key, -1) >= order
        best[key] = max(best.get(key, -1), order)
    return hits / len(requests)


def _kappa_bits(requests, results) -> dict:
    bits = []
    for req, r in zip(requests, results):
        if "kappa_den_bits" in r["props"]:
            bits.append(r["props"]["kappa_den_bits"])
        elif req["op"] == "cli":
            opts = cli_checks.options(req["argv"])
            if "kappa" in opts:
                bits.append(Fraction(opts["kappa"]).denominator.bit_length())
            elif "theta" in opts and req["argv"][0] != "params":
                t1, t2, t3 = (float(x) for x in opts["theta"].split(","))
                rho = workloads.rho_of_theta(t1, t2, t3)
                bits.append(Fraction(rho - 1 / rho).denominator.bit_length())
    return {str(b): bits.count(b) for b in sorted(set(bits))}


def _machine() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
    }


def _digits(results) -> tuple[float, float]:
    agree = [r["props"]["agree_digits"] for r in results if "agree_digits" in r["props"]]
    cross = [r["props"]["cross_digits"] for r in results if "cross_digits" in r["props"]]
    return min(agree, default=math.nan), min(cross, default=math.nan)


def end_to_end(run: Run, gen: dict, record: dict) -> dict:
    setup = run.setup_seconds()
    out = run.run_list(gen["requests"], False, "request")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats = _latency_stats(_scaled(out))
    verify = out["results"]
    if gen["probe"] is not None:
        # the in-process workloads do no quadrature; one verify after the
        # timed list gives their oracle digits
        probe = run.cli([gen["probe"]], False)["results"]
        run.record(f"probe {_describe(gen['probe'])}", probe[0]["errors"])
        verify = probe
    agree, cross = _digits(verify)
    raw = _latency_stats(r["latency_s"] for r in out["results"])
    record.update(
        latency=stats, results=out["results"], setup=setup,
        unscaled={
            "wall_s": raw["wall_s"], "latency_p50_s": raw["latency_p50_s"],
            "latency_tail_s": raw["latency_tail_s"],
            "setup_s": statistics.median(r["latency_s"] for r in setup["results"]),
            "calibration_ms_median": 1000 * statistics.median(_cals(out)),
        },
    )
    return {
        "wall_s": (stats["wall_s"], "s"),
        "latency_p50_s": (stats["latency_p50_s"], "s"),
        "latency_tail_s": (stats["latency_tail_s"], "s"),
        "setup_s": (statistics.median(_scaled(setup)), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "oracle_agree_digits_min": (agree, "digits"),
        "oracle_cross_scheme_digits_min": (cross, "digits"),
    }


def _merge(summaries) -> dict:
    spans: dict[str, list] = {}
    merged = {"spans": spans, "coeff_bits_max": 0, "quadrature": [], "span_count": 0, "import_s": []}
    for s in summaries:
        for key, (calls, total, own) in s["spans"].items():
            agg = spans.setdefault(key, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        merged["coeff_bits_max"] = max(merged["coeff_bits_max"], s["coeff_bits_max"])
        merged["quadrature"] += s["quadrature"]
        merged["span_count"] += s["span_count"]
        if "import_s" in s:
            merged["import_s"].append(s["import_s"])
    return merged


def per_layer(run: Run, gen: dict, record: dict) -> dict:
    requests = gen["requests"]
    plain = run.run_list(requests, False, "untraced")
    traced = run.run_list(requests, True, "traced")
    cli = run.workload == "cli-session"
    if cli:
        summary = _merge(piece["summary"] for _, piece in traced["pieces"])
        quadrature = summary["quadrature"]
        output_bytes = sum(r["props"].get("output_bytes", 0) for r in traced["results"])
    else:
        summary = _merge([traced["final"].get("trace", {"spans": {}, "coeff_bits_max": 0, "quadrature": [], "span_count": 0})])
        summary["import_s"] = [traced["final"].get("import_s", 0.0)]
        quadrature, output_bytes = [], 0
    fixed = run.in_process([req for _, req in FIXED], False)
    for (label, _), r in zip(FIXED, fixed["results"]):
        run.record(f"fixed {label}", r["errors"])

    spans = summary["spans"]

    def get(key, field):
        return spans.get(key, [0, 0.0, 0.0])[field]

    def quad(scheme, kind):
        rows = [q for q in quadrature if q[0] == scheme]
        if kind == "evaluations":
            return sum(q[3] for q in rows if q[4] != "warm")
        return sum(q[2] for q in rows if q[4] == kind)

    untraced_wall = sum(_scaled(plain))
    # the warm repeats of the first quadrature calls are not part of the list
    warm = quad("gauss", "warm") + quad("tanh-sinh", "warm")
    traced_wall = sum(_scaled(traced)) - warm * CAL_REF_S / statistics.median(_cals(traced))
    m = {}
    for key in ("series.revert_trunc", "series.compose_trunc", "series.mul_trunc"):
        m[f"{key}.self_s"] = (get(key, 2), "s")
        m[f"{key}.calls"] = (get(key, 0), "count")
    for key in (
        "series.recip_trunc", "series.log_unit_trunc", "series.LogSeries.compose_with_log",
        "normalform.expand_hamiltonian", "normalform.williamson_reduce", "normalform.birkhoff_normalize",
        "picardfuchs.frobenius_table.recursion", "picardfuchs.frobenius_table.closed_form",
        "picardfuchs.frobenius_at", "picardfuchs.build_action_series", "picardfuchs.assemble_beta_actions",
        "invariants.bnf_via_reversion", "invariants.extract_sigma", "invariants.radius_analysis",
        "oracle.beta_action_value", "oracle.verify_series_numerics", "cli.execute",
    ):
        m[f"{key}.self_s"] = (get(key, 2), "s")
    m["series.coeff_bits_max"] = (summary["coeff_bits_max"], "bits")
    for target in ("a", "b", "bnf", "sigma"):
        m[f"invariants.radius.{target}_s"] = (get(f"invariants.radius_analysis.{target}", 1), "s")
    for scheme, label in (("gauss", "gauss"), ("tanh-sinh", "tanh_sinh")):
        m[f"oracle.{label}.cold_s"] = (quad(scheme, "cold"), "s")
        m[f"oracle.{label}.warm_s"] = (quad(scheme, "warm"), "s")
        m[f"oracle.{label}.evaluations"] = (quad(scheme, "evaluations"), "count")
    m["cli.import_s"] = (statistics.median(summary["import_s"] or [0.0]), "s")
    m["cli.parse_s"] = (get("cli.main", 2), "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (summary["span_count"], "count")
    m["trace.calibration_ms"] = (1000 * statistics.median(_cals(traced)), "ms")
    for (label, _), r in zip(FIXED, fixed["results"]):
        m[f"fixed.{label}_s"] = (r["latency_s"] or 0.0, "s")
    record.update(results=traced["results"], untraced_results=plain["results"], spans_summary=spans)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulertop" / "__init__.py").is_file():
        print(f"no eulertop package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    gen = workloads.generate(args.workload, args.seed, args.seconds)
    requests = gen["requests"]
    run = Run(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics = (per_layer if args.trace else end_to_end)(run, gen, record)

    verify = [r for r in requests if r.get("argv", [""])[0] == "verify"]
    inputs = {
        "requests": len(requests),
        "loop": "closed, 1 client",
        "cache_answerable_share": _cache_share(requests),
        "kappa_den_bits": _kappa_bits(requests, record["results"]),
        "verify_h_over_disc": sorted(round(x, 4) for r in verify for x in r["h_over_disc"]),
        "verify_deep_share": sum(r["deep"] for r in verify) / len(verify) if verify else 0.0,
    }
    record.update(inputs=inputs, machine=_machine(), errors=run.errors)
    failed = len(run.errors)
    correct = failed == 0

    print(f"eulertop benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not args.trace:
        lat = record["latency"]
        print(f"  latency_tail_s is p{lat['tail_percentile']:.1f}: {lat['tail_beyond']} of {lat['samples']} samples lie beyond it")
        print(f"  times above are at the reference speed (calibration slice {1000 * CAL_REF_S:g} ms); as timed:")
        for name, value in record["unscaled"].items():
            print(f"    {name:42s} {value:14.6g}")
    print(f"  {'failed_ratio':44s} {failed / run.attempted:14.6g} ratio ({failed} of {run.attempted})")
    print(f"  inputs: {json.dumps({k: v for k, v in inputs.items() if k != 'verify_h_over_disc'})}")
    if verify:
        hd = inputs["verify_h_over_disc"]
        print(f"  verify |h|/disc: min {hd[0]}, median {statistics.median(hd):.4f}, max {hd[-1]} over {len(hd)} samples")
    print(f"  machine: {json.dumps(record['machine'])}")
    for e in run.errors[:10]:
        print(f"  FAILED {e}")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
