"""Seeded request lists for the three workloads.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A list is a fixed number of blocks, set
by ``--seconds``.  Each block has the same composition: sizes are
enumerated over their ranges (moved by a small seeded jitter), and the seed
picks signs, inertia triples, samples, formats and the order.  Two seeds
thus give lists of nearly the same cost, which is what keeps the
run-to-run spread small enough to compare a change against its parent.

The generator never imports eulertop: the program only sees the requests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# a list of --seconds S has round(S / BLOCK_SECONDS) blocks, at least one: a
# function of S only, never of how fast the code under test happens to be.
# At S = 30 a list takes about 25, 25 and 35 s on a 2-vCPU x86-64 VM; the
# cli-session list needs 13 verify requests for its tail to fall among them.
BLOCK_SECONDS = {"exact-tables": 25.0, "radius-scan": 30.0, "cli-session": 40.0}
WORKLOADS = tuple(BLOCK_SECONDS)


def generate(workload: str, seed: int, seconds: int) -> dict:
    """The request list and, for the in-process workloads, the oracle probe."""
    if workload not in BLOCK_SECONDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    make = {"exact-tables": _exact_tables, "radius-scan": _radius_scan, "cli-session": _cli_session}
    requests = make[workload](rng, blocks)
    probe = None
    if workload != "cli-session":
        probe = _verify(random.Random(f"{workload}/{seed}/probe"), _exact_kappa_args, 50, deep=False, count=2)
    return {"requests": requests, "probe": probe}


def _strata(rng, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one drawn from each of k equal slices, shuffled."""
    width = (hi - lo + 1) / k
    vals = [lo + int(width * (i + rng.random())) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _exact_kappa(rng) -> Fraction:
    q = rng.randint(1, 8)
    return Fraction(rng.randint(-2 * q, 2 * q), q)


def rho_of_theta(t1: float, t2: float, t3: float) -> float:
    return math.sqrt(t1 * (t3 - t2) / (t3 * (t2 - t1)))


def _theta(rng) -> tuple[list[float], float]:
    """An inertia triple with t1 < t2 < t3 <= t1 + t2 and |kappa| <= 2."""
    while True:
        t1 = round(rng.uniform(1.0, 2.0), 3)
        t2 = round(rng.uniform(t1 + 0.05, 2.0 * t1), 3)
        t3 = round(rng.uniform(t2 + 0.05, t1 + t2), 3)
        if not t1 < t2 < t3 <= t1 + t2:
            continue
        rho = rho_of_theta(t1, t2, t3)
        if abs(rho - 1 / rho) <= 2:
            return [t1, t2, t3], round(rng.uniform(0.5, 2.0), 3)


# ---------------------------------------------------------------------------
# exact-tables: the symbolic KappaPoly / RhoLaurent pipeline, in process
# ---------------------------------------------------------------------------


def _jittered(rng, sizes, jitter: int, lo: int, hi: int) -> list[int]:
    """Each size moved by at most ``jitter``, within [lo, hi]."""
    return [min(hi, max(lo, n + rng.randint(-jitter, jitter))) for n in sizes]


def _exact_tables(rng, blocks: int) -> list[dict]:
    reqs = []
    for _ in range(blocks):
        # narrow integer ranges: every size once, so a block's cost is fixed
        reqs += [{"op": "euler_normal_form", "n": n} for n in range(8, 12)]
        reqs += [{"op": "bnf_via_reversion", "n": n} for n in range(10, 17)]
        reqs += [{"op": "extract_sigma", "n": n} for n in range(8, 14)]
        for n in _jittered(rng, (80, 120, 160, 200), 5, 80, 200):
            reqs += [
                {"op": "frobenius_table", "n": n, "method": m}
                for m in ("recursion", "closed_form")
            ]
        sizes = _jittered(rng, (20, 23, 26, 29, 31, 34, 37, 40), 1, 20, 40)
        reqs += [{"op": "assemble_beta_actions", "n": n} for n in sizes]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# radius-scan: the same series kernel over Fraction at a fixed kappa
# ---------------------------------------------------------------------------

# target, nmax of the exact-kappa requests, their jitter, float-kappa
# requests per block.  A quarter of the requests take a ~50-bit kappa from an
# inertia triple and run at the lowest nmax of their range.
_RADIUS_MIX = (
    ("a", (200, 300, 400), 10, 1),
    ("b", (200, 300, 400), 10, 1),
    ("bnf", (25, 29, 31, 33, 35, 37, 41), 0, 2),
    ("sigma", (25, 29, 31, 33, 35, 37, 41), 0, 2),
)

# |kappa| for the exact requests, one per nmax above: denominators 1..8.
# The cost of a table depends on |kappa| (kappa -> -kappa only flips signs),
# so the seed picks the signs and keeps the cost of a list fixed.
_RADIUS_KAPPAS = (
    Fraction(5, 4), Fraction(2, 3), Fraction(7, 8), Fraction(6, 5), Fraction(3, 5), Fraction(1), Fraction(4, 7),
    Fraction(1, 2), Fraction(7, 6), Fraction(3, 8), Fraction(2, 7), Fraction(9, 5), Fraction(1, 3), Fraction(5, 7),
)


def _radius_scan(rng, blocks: int) -> list[dict]:
    reqs = []
    for _ in range(blocks):
        for t, (target, sizes, jitter, n_float) in enumerate(_RADIUS_MIX):
            for i, nmax in enumerate(_jittered(rng, sizes, jitter, sizes[0], sizes[-1])):
                kappa = _RADIUS_KAPPAS[(i + 7 * (t % 2)) % len(_RADIUS_KAPPAS)] * rng.choice((1, -1))
                reqs.append({"op": "radius", "target": target, "nmax": nmax, "kappa": str(kappa)})
            for _ in range(n_float):
                theta, ell = _theta(rng)
                reqs.append({"op": "radius", "target": target, "nmax": sizes[0], "theta": theta, "ell": ell})
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli-session: one fresh `python -m eulertop.cli` process per request
# ---------------------------------------------------------------------------


def _exact_kappa_args(rng):
    kappa = _exact_kappa(rng)
    return [f"--kappa={kappa}"], float(kappa)


def _theta_args(rng):
    theta, ell = _theta(rng)
    rho = rho_of_theta(*theta)
    return [f"--theta={','.join(map(repr, theta))}", f"--ell={ell!r}"], rho - 1 / rho


def _verify(rng, kappa_source, precision: int, deep: bool, count: int) -> dict:
    """A verify request whose samples lie within 0.3 of the convergence disc.

    The farthest sample sits at 0.97-1.0 of that bound, so the series
    truncation error, and with it the agreement digits, is steady from seed
    to seed.  The nearest negative sample sets the Gauss-Legendre degree,
    and so the cold node cost, through x = 2 rho |h|: at 0.8-1.0 of the
    bound the degree reaches 381 evaluations (about a second of nodes), at
    x in [0.003, 0.009] it reaches 765 (several seconds at 50 digits, up to
    half a minute at 60, so such ``deep`` requests run at 50 digits).
    Positive samples, drawn over the whole range, stay within the first.
    """
    kappa_args, kappa = kappa_source(rng)
    rho = (kappa + math.sqrt(kappa * kappa + 4)) / 2
    hmax = 0.3 * min(rho, 1 / rho) / 2
    samples = [rng.choice((1, -1)) * hmax * rng.uniform(0.97, 1.0)]
    if deep:
        samples.append(-max(0.002, rng.uniform(0.003, 0.009) / (2 * rho)))
        precision = 50
    while len(samples) < count:
        if rng.random() < 0.5 and len(samples) > 1:
            samples.append(math.exp(rng.uniform(math.log(0.002), math.log(hmax))))
        else:
            samples.append(-hmax * rng.uniform(0.8, 1.0))
    rng.shuffle(samples)
    samples = [float(f"{h:.6g}") for h in samples]
    return {
        "op": "cli",
        "argv": ["verify", *kappa_args, f"--samples={','.join(map(repr, samples))}", f"--precision={precision}"],
        "h_over_disc": [abs(h) / (hmax / 0.3) for h in samples],
        "deep": deep,
    }


# command, option, its values; the request at the smallest value takes kappa
# from --theta/--ell (as in radius-scan, a float kappa gets the smallest
# size).  A session is 36 requests, 13 of them verify.
_CLI_SESSION = (
    ("bnf", "--order", (6, 7, 8, 9)),
    ("invariant", "--order", (7, 8, 9, 10)),
    ("frobenius", "--order", (40, 80, 120)),
    ("actions", "--order", (12, 21, 30)),
    ("radius", "--nmax", (100, 250, 400)),
)


def _cli_session(rng, sessions: int) -> list[dict]:
    reqs = []
    for _ in range(sessions):
        # 13 verify: 1 deep, then 6 at 50 and 6 at 60 digits; 3 use --theta
        deep = [True] + [False] * 12
        precisions = [50] + [50, 60] * 6
        theta = [True] * 3 + [False] * 10
        rng.shuffle(theta)
        counts = _strata(rng, 2, 4, 13)
        for i in range(13):
            source = _theta_args if theta[i] else _exact_kappa_args
            reqs.append(_verify(rng, source, precisions[i], deep[i], counts[i]))
        formats = ["json", "csv", rng.choice(("json", "csv"))]
        rng.shuffle(formats)
        for command, option, sizes in _CLI_SESSION:
            for j, size in enumerate(sizes):
                source = _theta_args if j == 0 else _exact_kappa_args
                argv = [command, *source(rng)[0], f"{option}={size}"]
                if command == "frobenius":
                    argv.append(f"--format={formats[j]}")
                if command == "radius":
                    argv.append("--targets=a,b")
                reqs.append({"op": "cli", "argv": argv})
        for _ in range(3):
            lo, hi = -round(rng.uniform(1, 5), 2), round(rng.uniform(1, 5), 2)
            reqs.append({"op": "cli", "argv": ["pendulum", f"--grid={lo!r}:{hi!r}:{rng.randint(50, 200)}"]})
            reqs.append({"op": "cli", "argv": ["params", *_theta_args(rng)[0]]})
    rng.shuffle(reqs)
    return reqs
