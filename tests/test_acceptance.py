"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import math
import random
import time
from fractions import Fraction

from mpmath import mp

from eulertop.invariants import (
    bnf_via_reversion,
    extract_sigma,
    log64_ratio_log2_exact,
    pendulum_compare,
    radius_analysis,
)
from eulertop.normalform import euler_normal_form
from eulertop.oracle import (
    constant_value,
    period_quadrature,
    separatrix_action,
    verify_series_numerics,
)
from eulertop.picardfuchs import (
    LOG64_RATIO,
    assemble_beta_actions,
    build_action_series,
    derive_pf_coefficients,
    frobenius_table,
    pf_residual,
)
from eulertop.series import KappaPoly, PowerSeries

from expected_tables import (
    A_TABLE,
    B_TABLE,
    BNF_TABLE,
    SIGMA_TABLE,
    VERIFY_REGRESSION_BOUND,
)

K = KappaPoly.of(0, 1)


def report(number, ok, description):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {description}", flush=True)
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_normal_form_exact_both_routes():
    start = time.perf_counter()
    lie = euler_normal_form(7)
    reverted = bnf_via_reversion(7)
    elapsed = time.perf_counter() - start
    ok = lie == reverted
    for n, expected in BNF_TABLE.items():
        ok = ok and lie.coefficient(n) == expected
    ok = ok and lie.coefficient(1) == KappaPoly.constant(1)
    ok = ok and elapsed < 10.0
    report(1, ok, f"normal form exact through J^7 on both routes ({elapsed:.2f}s)")


def test_criterion_02_frobenius_tables():
    start = time.perf_counter()
    rec, cf = frobenius_table(60, "recursion"), frobenius_table(60, "closed_form")
    ok = rec.a == cf.a and rec.b == cf.b
    for n in range(1, 6):
        ok = ok and rec.a[n] == A_TABLE[n] and rec.b[n] == B_TABLE[n]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(2, ok, f"a/b tables exact, recursion = closed form to n = 60 ({elapsed:.2f}s)")


def test_criterion_03_picard_fuchs_structure():
    pf = derive_pf_coefficients()
    ok = pf.c0.is_zero()
    ok = ok and pf.c1 == PowerSeries.from_coeffs("h", (K * Fraction(1, 2), 3))
    ok = ok and pf.c2 == PowerSeries.from_coeffs("h", (-1, K * 4, 12))
    ok = ok and pf.c3 == PowerSeries.from_coeffs("h", (0, -1, K * 2, 4))
    bundle = build_action_series(33)
    for series, which in (
        (bundle.period_regular, "period"),
        (bundle.period_singular, "period"),
        (bundle.action_regular, "action"),
        (bundle.action_singular, "action"),
        (PowerSeries.from_coeffs("h", (5,)).pad(33), "action"),
    ):
        residual = pf_residual(series, which)
        ok = ok and residual.cutoff >= 30 and residual.is_zero
    report(3, ok, "c_i have their known closed forms; residuals vanish to order 30")


def test_criterion_04_sigma_exact():
    rep = extract_sigma(7)
    ok = rep.branch_consistent
    ok = ok and rep.linear_log.kind == LOG64_RATIO
    ok = ok and rep.linear_log.factor == Fraction(1, 2)
    for n, expected in SIGMA_TABLE.items():
        ok = ok and rep.tail.coefficient(n) == expected
    report(4, ok, "sigma exact through J^7 with symbolic linear term, branches agree")


def test_criterion_05_numeric_agreement():
    start = time.perf_counter()
    rep = verify_series_numerics(
        0.5, [0.005, -0.005, 0.02, -0.02], order=30, tol=1e-9, dps=50
    )
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.max_deviation < mp.mpf(str(VERIFY_REGRESSION_BOUND))
    ok = ok and elapsed < 30.0
    report(
        5,
        ok,
        f"series vs quadrature max dev {mp.nstr(rep.max_deviation, 3)} "
        f"< {VERIFY_REGRESSION_BOUND:.0e} ({elapsed:.1f}s at 50 digits)",
    )


def test_criterion_06_period_asymptotic_constants():
    with mp.workdps(50):
        const = mp.log(64 / (mp.mpf(1) / 4 + 4)) / 2
        tp = period_quadrature(0.5, 1e-5, tol=1e-12, dps=50).value
        tm = period_quadrature(0.5, -1e-5, tol=1e-12, dps=50).value
        dev_plus = abs((tp - mp.log(mp.mpf("1e-5"))) + const)
        dev_minus = abs((tm + mp.log(mp.mpf("1e-5"))) - const)
        ok = dev_plus < 1e-3 and dev_minus < 1e-3
    report(6, ok, "period asymptotics reach -+ (1/2) log(64/(kappa^2+4)) within 1e-3")


def test_criterion_07_area_identities():
    plus, minus = assemble_beta_actions(2)
    rng = random.Random(314159)
    ok = True
    with mp.workdps(40):
        for _ in range(20):
            rho = rng.uniform(0.1, 10.0)
            kappa = rho - 1.0 / rho
            sides = separatrix_action(kappa, "plus", 40) + separatrix_action(kappa, "minus", 40)
            areas = constant_value(plus.area, kappa, 40) + constant_value(minus.area, kappa, 40)
            ok = ok and abs(sides - mp.mpf(1) / 2) < mp.mpf("1e-12")
            ok = ok and abs(areas - mp.pi) < mp.mpf("1e-12")
    report(7, ok, "side sum 1/2 and area sum pi to 1e-12 over 20 random rho")


def test_criterion_08_radius_law():
    ok = True
    details = []
    for kappa in (Fraction(1, 2), Fraction(3, 2)):
        reports = radius_analysis(kappa, 401, targets=("a", "b"))
        for rep in reports:
            at_400 = dict(zip(rep.ns, rep.ratios))[400]
            gap = abs(at_400 - rep.theoretical)
            ok = ok and gap < 1e-2
            details.append(f"{rep.name}@{kappa}:{gap:.1e}")
    report(8, ok, "a/b ratio at n=400 within 1e-2 of min(rho,1/rho)/2 (" + ", ".join(details) + ")")


def test_criterion_09_radius_observation():
    ok = True
    details = []
    for kappa in (Fraction(1, 2), Fraction(1), Fraction(2)):
        reports = {r.name: r for r in radius_analysis(kappa, 40, targets=("a", "bnf", "sigma"))}
        bnf, sigma = reports["bnf"].extrapolated, reports["sigma"].extrapolated
        known_a = reports["a"].theoretical
        ok = ok and abs(bnf - sigma) / bnf < 0.05
        ok = ok and bnf >= 1.10 * known_a and sigma >= 1.10 * known_a
        details.append(f"kappa={kappa}: bnf/a={bnf / known_a:.3f}")
    report(9, ok, "bnf and sigma radii agree within 5% and exceed a-radius by 10% (" + ", ".join(details) + ")")


def test_criterion_10_pendulum_margin():
    grid = [-5.0 + 10.0 * i / 99 for i in range(100)]
    floor = math.log(8.0) - 1e-12
    ok = all(row.margin >= floor for row in pendulum_compare(grid))
    # exact channel: 64/(0^2+4) = 2^4, so the leading term is exactly log 4
    # and the margin is exactly log2(32) - 2 = 3 doublings, i.e. log 8
    exact = log64_ratio_log2_exact(Fraction(0))
    ok = ok and exact == Fraction(2)
    ok = ok and Fraction(5) - exact == Fraction(3)
    report(10, ok, "margin >= log 8 on a 100-point grid; kappa = 0 maximum log 4 exact")


def test_criterion_11_property_spot_checks():
    ok = True
    # reversion round trip on a deterministic family
    for seed in range(5):
        rng = random.Random(seed)
        coeffs = [KappaPoly.of(0), KappaPoly.of(1)] + [
            KappaPoly.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(5)
        ]
        f = PowerSeries.from_coeffs("h", coeffs)
        ok = ok and f.compose(f.revert()) == PowerSeries.identity("J", f.order)
    # kappa parity of the tables, normal form, and invariant
    table = frobenius_table(20)
    a, b = table.a, table.b
    for n in range(1, 21):
        sign = 1 if n % 2 == 0 else -1
        ok = ok and a[n].flip_kappa() == a[n] * sign
        ok = ok and b[n].flip_kappa() == b[n] * sign
    bnf = euler_normal_form(7)
    tail = extract_sigma(7).tail
    ok = ok and bnf.flip_kappa() == -bnf.reflect()
    ok = ok and tail.flip_kappa() == -tail.reflect()
    # negativity of the invariant tail for positive kappa
    for kappa in (Fraction(1, 2), Fraction(1), Fraction(2)):
        ok = ok and all(tail.coefficient(n)(kappa) < 0 for n in range(2, 8))
    report(11, ok, "reversion round trips, parity, and negativity hold with fixed seeds")
