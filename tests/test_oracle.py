import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre, TanhSinh
from mpmath.libmp import from_man_exp, to_fixed

from eulertop import oracle, picardfuchs
from eulertop.oracle import (
    DomainError,
    ParameterError,
    QuadratureError,
    action_quadrature,
    action_unscaled_quadrature,
    beta_action_value,
    constant_value,
    kappa_for_rho,
    params_from_inertia,
    period_quadrature,
    rho_for_kappa,
    scaled_energy,
    separatrix_action,
    verify_series_numerics,
)
from eulertop.invariants import radius_analysis
from eulertop.picardfuchs import ATAN_INV_RHO, ATAN_RHO, SymbolicConstant, assemble_beta_actions

from expected_tables import (
    ORACLE_ACTION_MINUS_002,
    ORACLE_ACTION_PLUS_002,
    ORACLE_PERIOD_MINUS_002,
    ORACLE_PERIOD_PLUS_002,
    VERIFY_REGRESSION_BOUND,
)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_from_ordered_triple():
    p = params_from_inertia(1.0, 2.0, 3.0, 1.0)
    assert abs(p.rho - 1 / math.sqrt(3.0)) < 1e-15
    assert abs(p.kappa + 2 / math.sqrt(3.0)) < 1e-15
    assert abs(p.lam - math.sqrt(1.0 / 12.0)) < 1e-15


def test_params_rejects_degenerate_and_disordered():
    with pytest.raises(ParameterError, match="ordering"):
        params_from_inertia(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ParameterError, match="ordering"):
        params_from_inertia(2.0, 1.0, 3.0, 1.0)
    with pytest.raises(ParameterError, match="triangle"):
        params_from_inertia(1.0, 2.0, 3.5, 1.0)
    with pytest.raises(ParameterError, match="positive"):
        params_from_inertia(-1.0, 2.0, 2.5, 1.0)
    with pytest.raises(ParameterError, match="finite"):
        params_from_inertia(1.0, 2.0, 2.5, math.inf)
    # finite input whose products leave a float's range
    with pytest.raises(ParameterError, match="underflows"):
        params_from_inertia(1e-300, 2e-300, 3e-300, 1.0)
    with pytest.raises(ParameterError, match="underflows"):
        params_from_inertia(1e-170, 2e-170, 2.5e-170, 1.0)
    with pytest.raises(ParameterError, match="lambda = inf"):
        params_from_inertia(1e-150, 2e-150, 2.5e-150, 1e300)
    with pytest.raises(ParameterError, match="rho = nan"):
        params_from_inertia(1e300, 1.5e300, 2e300, 1.0)


def test_rho_kappa_maps_invert():
    assert rho_for_kappa(0.0) == 1.0
    assert kappa_for_rho(1.0) == 0.0
    assert abs(kappa_for_rho(rho_for_kappa(0.37)) - 0.37) < 1e-14
    # kappa + sqrt(kappa^2 + 4) cancels here; the naive form gives 7.45e-9
    assert abs(rho_for_kappa(-1e8) - 1e-8) / 1e-8 < 1e-15
    # the same map in mpmath, where 40 of 50 digits cancel in the naive form;
    # the reference uses rho(-kappa) = 1/rho(kappa), free of cancellation
    with mp.workdps(80):
        big = mp.mpf(10) ** 20
        reference = mp.acot((big + mp.sqrt(big * big + 4)) / 2)
    value = constant_value(SymbolicConstant(ATAN_RHO), -(10**20), 50)
    assert abs(value - reference) / reference < mp.mpf("1e-45")


def test_precision_set_before_mpmath_loads_reaches_mpmath():
    # a fresh interpreter: in this one mpmath is loaded, so oracle.mp is
    # mpmath's own context already
    script = "from eulertop.oracle import mp; mp.dps = 60; import mpmath; print(mpmath.mp.dps, mp.sqrt(2))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    with mp.workdps(60):
        assert out.split() == ["60", str(mp.sqrt(2))]


# ---------------------------------------------------------------------------
# quadrature cross-checks (values frozen from a 75-digit two-scheme run)
# ---------------------------------------------------------------------------


def _close(value, frozen, bound="1e-45"):
    return abs(value - mp.mpf(frozen)) < mp.mpf(bound)


def test_action_quadrature_two_schemes_agree_with_frozen_values():
    for h, frozen in ((0.02, ORACLE_ACTION_PLUS_002), (-0.02, ORACLE_ACTION_MINUS_002)):
        gauss = action_quadrature(0.5, h, tol=1e-40, dps=60, scheme="gauss")
        ts = action_quadrature(0.5, h, tol=1e-40, dps=60, scheme="tanh-sinh")
        with mp.workdps(60):
            assert _close(gauss.value, frozen)
            assert _close(ts.value, frozen)
            assert abs(gauss.value - ts.value) < mp.mpf("1e-55")
        assert gauss.evaluations > 0 and ts.evaluations > 0


def test_period_quadrature_two_schemes_agree_with_frozen_values():
    for h, frozen in ((0.02, ORACLE_PERIOD_PLUS_002), (-0.02, ORACLE_PERIOD_MINUS_002)):
        ts = period_quadrature(0.5, h, tol=1e-40, dps=60, scheme="tanh-sinh")
        gauss = period_quadrature(0.5, h, tol=1e-40, dps=60, scheme="gauss")
        with mp.workdps(60):
            assert _close(ts.value, frozen)
            assert _close(gauss.value, frozen)


def test_action_approaches_separatrix_limit():
    with mp.workdps(50):
        limit = separatrix_action(0.5, "plus", 50)
        near = action_quadrature(0.5, 1e-12, tol=1e-20, dps=50).value
        assert abs(near - limit) < mp.mpf("1e-10")  # O(h log h) gap


def test_symmetric_top_side_symmetry():
    with mp.workdps(40):
        plus = action_quadrature(0.0, 1e-6, tol=1e-20, dps=40).value
        minus = action_quadrature(0.0, -1e-6, tol=1e-20, dps=40).value
        assert abs(plus - minus) < mp.mpf("1e-25")
        assert abs(plus + minus - mp.mpf(1) / 2) < mp.mpf("1e-4")  # O(h log h)


def test_gauss_needs_no_high_degree_near_the_separatrix():
    # q = c sinh t leaves no pinch of width sqrt|h| on the real axis (the plus
    # side is the minus side at (-kappa, -h)), so the sides agree with
    # tanh-sinh to 50 digits and h = 1e-12 stays within Gauss-Legendre
    # degree 7 (381 evaluations)
    for h in (1e-6, -1e-6):
        gauss = action_quadrature(0.0, h, tol=1e-40, dps=50, scheme="gauss")
        ts = action_quadrature(0.0, h, tol=1e-40, dps=50, scheme="tanh-sinh")
        with mp.workdps(50):
            assert abs(gauss.value - ts.value) < mp.mpf("1e-49")
    for h in (1e-12, -1e-12):
        assert action_quadrature(0.5, h, tol=1e-40, dps=50, scheme="gauss").evaluations <= 381
    # the period's gauss scheme differentiates the same angle form
    for kappa in (0.5, -2):
        for h in (1e-5, -1e-5, 1e-12, -1e-12):
            gauss = period_quadrature(kappa, h, tol=1e-40, dps=50, scheme="gauss")
            ts = period_quadrature(kappa, h, tol=1e-40, dps=50, scheme="tanh-sinh")
            with mp.workdps(50):
                assert abs(gauss.value - ts.value) < mp.mpf("1e-47")
            assert gauss.evaluations <= 381


def test_gauss_beyond_its_degree_cap_raises():
    # at 50 digits |h| = 1e-300 needs more than degree 8: the scheme stops
    # there and reports the miss instead of computing degree-9 and -10 nodes
    with pytest.raises(QuadratureError):
        action_quadrature(0.5, -1e-300, tol=1e-40, dps=50, scheme="gauss")
    # far below a float's range the lowest degrees would agree on 0
    with pytest.raises(DomainError, match="too small"):
        action_quadrature(0.5, Fraction(1, 10**1000), dps=20, scheme="gauss")
    with pytest.raises(DomainError, match="too small"):
        period_quadrature(0.5, Fraction(1, 10**1000), dps=20, scheme="gauss")
    # at h = 0 the range grows as rho shrinks, so the message names rho, not
    # h; the mirror kappa = 1e300 runs
    with pytest.raises(DomainError, match=r"rho = 1\.0e-300 at h = 0 is too small"):
        verify_series_numerics(-1e300, [0], order=2)
    # both schemes at the edges of rho.  Above the separatrix they run on
    # the minus side at (-kappa, -h), so the h = 1e-31 row at kappa = +-1e30
    # costs what the h = -1e-31 row costs at -+1e30
    for kappa, samples, order, counts in (
        (1e300, [0], 2, [79, 583]),
        (1e30, [0, 1e-31, -1e-31], 4, [233, 4783, 1047, 4807]),
        (-1e30, [0, 1e-31, -1e-31], 4, [4951, 305, 4807, 1047]),
    ):
        report = verify_series_numerics(kappa, samples, order=order)
        assert report.passed
        assert [r.evaluations for r in report.rows] == counts
        assert all(r.cross_scheme_delta <= mp.mpf("1e-45") for r in report.rows)


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule's own nodes
# ---------------------------------------------------------------------------


def _prec(dps):
    with mp.workdps(dps):
        return mp.prec


def _mpf(n, scale):
    """The int n at scale 2^scale as the mpf it equals."""
    return mp.make_mpf(from_man_exp(n, -scale))


def _stock_gauss_nodes(degree, prec):
    """Stock mpmath Gauss-Legendre nodes as a node builder: ints at the
    driver's scale, from mpf nodes as mpmath's get_nodes computes them."""
    scale = oracle._node_scale(prec)
    with mp.workprec(prec + 20):
        nodes = GaussLegendre(mp).calc_nodes(degree, prec)
    return [(to_fixed(x._mpf_, scale), to_fixed(w._mpf_, scale)) for x, w in nodes], scale


@pytest.mark.parametrize("dps", [15, 50, 60, 100])
def test_gauss_nodes_match_mpmath(dps):
    # stock mpmath at 64 more bits is the reference.  Its target is
    # 2^-(prec + 8), which its weights just meet; the nodes hold to the
    # 1.5 prec bits mpmath works at, less 2
    prec = _prec(dps)
    for degree in range(1, 8 if dps == 100 else 9):
        nodes, scale = oracle._gauss_nodes(degree, prec)
        reference = GaussLegendre(mp).calc_nodes(degree, prec + 64)
        assert len(nodes) == len(reference) == 3 * 2 ** (degree - 1)
        with mp.workprec(2 * prec):
            for (x, w), (xr, wr) in zip(nodes, reference):
                x, w = _mpf(x, scale), _mpf(w, scale)
                assert abs(x - xr) < mp.ldexp(1, 2 - int(1.5 * prec)), (degree, x)
                assert abs(w - wr) < mp.ldexp(1, -(prec + 8)), (degree, x)


def test_gauss_rule_integrates_even_powers_exactly():
    # degree m has n = 3 * 2^(m-1) points: exact on x^(2k) for 2k < 2n
    prec = _prec(50)
    with mp.workprec(prec + 20):
        for degree in range(1, 9):
            built, scale = oracle._gauss_nodes(degree, prec)
            nodes = [(_mpf(x, scale), _mpf(w, scale)) for x, w in built]
            n = len(nodes)
            assert abs(mp.fsum(w for _, w in nodes) - 2) < mp.ldexp(1, -prec)
            moments = [mp.mpf(0)] * n
            for x, w in nodes:
                x2, term = x * x, w
                for k in range(n):
                    moments[k] += term
                    term *= x2
            for k, moment in enumerate(moments):
                assert abs(moment - mp.mpf(2) / (2 * k + 1)) < mp.ldexp(1, -prec), (degree, k)


@pytest.mark.parametrize("kappa, h, dps", [(0.5, 0.02, 50), (0.5, -0.02, 30), (-2, 1e-6, 30), (-20, -1e-5, 30)])
def test_gauss_action_matches_stock_gauss_legendre(monkeypatch, kappa, h, dps):
    ours = action_quadrature(kappa, h, tol=1e-20, dps=dps, scheme="gauss")
    monkeypatch.setitem(oracle._RULES, "gauss", (_stock_gauss_nodes, oracle._GAUSS_MAXDEGREE))
    monkeypatch.setattr(oracle, "_NODES", {})
    stock = action_quadrature(kappa, h, tol=1e-20, dps=dps, scheme="gauss")
    with mp.workdps(dps):
        assert abs(ours.value - stock.value) < mp.mpf(10) ** -(dps - 2)
    assert ours.evaluations == stock.evaluations


def test_gauss_nodes_are_cheap_cold():
    # the builder itself, never a cache: mpmath's own takes about 1.4 s here
    prec = _prec(60)
    start = time.perf_counter()
    for degree in range(1, 8):
        oracle._gauss_nodes(degree, prec)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dps", [15, 30, 50, 60, 100])
def test_tanh_sinh_nodes_match_mpmath(dps):
    # the same count at every degree, and each x and w within 2^-(prec + 20)
    # of stock mpmath's, which works at prec + 40 bits
    prec = _prec(dps)
    for degree in range(1, 10 if dps == 100 else 11):
        nodes, scale = oracle._tanh_sinh_nodes(degree, prec)
        with mp.workprec(prec + 20):
            reference = TanhSinh(mp).calc_nodes(degree, prec)
        assert len(nodes) == len(reference), degree
        with mp.workprec(2 * prec):
            bound = mp.ldexp(1, -(prec + 20))
            for (x, w), (xr, wr) in zip(nodes, reference):
                assert abs(_mpf(x, scale) - xr) < bound, (degree, xr)
                assert abs(_mpf(w, scale) - wr) < bound, (degree, xr)


@pytest.mark.parametrize("scheme", ["gauss", "tanh-sinh"])
def test_quadrature_reports_cold_nodes(monkeypatch, scheme):
    monkeypatch.setattr(oracle, "_NODES", {})
    first = action_quadrature(0.5, 0.02, tol=1e-20, dps=30, scheme=scheme)
    again = action_quadrature(0.5, 0.02, tol=1e-20, dps=30, scheme=scheme)
    assert first.nodes_cold and not again.nodes_cold


def test_period_asymptotic_constant():
    with mp.workdps(50):
        const = mp.log(64 / (mp.mpf(1) / 4 + 4)) / 2
        tp = period_quadrature(0.5, 1e-5, tol=1e-12, dps=50).value
        tm = period_quadrature(0.5, -1e-5, tol=1e-12, dps=50).value
        assert abs(tp - mp.log(mp.mpf("1e-5")) + const) < 1e-3
        assert abs(tm + mp.log(mp.mpf("1e-5")) - const) < 1e-3


@pytest.mark.parametrize("h", [0.02, -0.02])
def test_period_is_derivative_of_action(h):
    with mp.workdps(50):
        step = mp.mpf("1e-5")
        hq = mp.mpf(h)
        up = action_quadrature(0.5, hq + step, tol=1e-20, dps=50).value
        down = action_quadrature(0.5, hq - step, tol=1e-20, dps=50).value
        period = period_quadrature(0.5, h, tol=1e-20, dps=50).value
        assert abs(2 * mp.pi * (up - down) / (2 * step) - period) < 1e-6


def test_error_estimates_are_honest():
    # tightening the tolerance (and giving the precision to honour it) must
    # never move the value by more than the earlier estimate
    for scheme in ("gauss", "tanh-sinh"):
        for h in (0.01, -0.01):
            first = action_quadrature(0.5, h, tol=1e-8, dps=15, scheme=scheme)
            second = action_quadrature(0.5, h, tol=5e-9, dps=21, scheme=scheme)
            assert abs(first.value - second.value) <= first.error_estimate


def test_error_estimate_is_zero_when_three_degrees_agree():
    with mp.workdps(15):
        third = mp.mpf(1) / 3
        assert oracle._estimate_error([mp.mpf(2), third, third, third], mp.prec, mp.eps) == 0


def test_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError) as info:
        action_quadrature(0.5, 0.01, tol=1e-60, dps=20)
    assert info.value.estimate > 0


@pytest.mark.parametrize("which", [action_quadrature, period_quadrature])
@pytest.mark.parametrize("scheme", ["gauss", "tanh-sinh"])
@pytest.mark.parametrize(
    "kappa, h, match",
    [
        (Fraction(1, 2), 0.4, "above"),  # past 1/(2 rho) = 0.3904
        (Fraction(1, 2), -0.65, "below"),  # past -rho/2 = -0.6404
        (Fraction(-5, 4), 0.95, "above"),  # past 0.9021
        (Fraction(-5, 4), -0.3, "below"),  # past -0.2771
        (Fraction(1, 2), 0, "separatrix"),
        (Fraction(-5, 4), 0, "separatrix"),
    ],
)
def test_scaled_energy_range_refusals(monkeypatch, which, scheme, kappa, h, match):
    monkeypatch.setattr(oracle, "_quad", _broken_quad)
    with pytest.raises(DomainError, match=match):
        which(kappa, h, scheme=scheme)


def test_domain_errors():
    with pytest.raises(DomainError):
        action_quadrature(0.5, 0.0)
    with pytest.raises(DomainError):
        action_quadrature(0.5, 5.0)
    with pytest.raises(DomainError):
        period_quadrature(0.5, -5.0)
    with pytest.raises(ValueError):
        separatrix_action(0.5, "plsu")


# ---------------------------------------------------------------------------
# the fixed-point integrands against the mpf forms they replaced
# ---------------------------------------------------------------------------


def _reference_angle(rho, h, side, which):
    """The gauss integrand in mpf, as oracle evaluated it before its integrands
    ran on ints: p = sqrt(gap / (rho^2 + sin^2 q)) dq/dt (plus) or 1 - p, and
    the period 2 dp/dh dq/dt.  At h > 0 it is the plus side's own form,
    q = q0 cosh t over (0, acosh(pi / (2 q0))), which checks oracle's map of
    the plus side to the minus side at (-kappa, -h)."""
    if h > 0:
        q0 = mp.asin(mp.sqrt(2 * h * rho))

        def point(t):
            d = 2 * q0 * mp.sinh(t / 2) ** 2  # q - q0, free of cancellation
            q = q0 + d
            return mp.sin(q) ** 2, mp.sin(d) * mp.sin(q + q0), q0 * mp.sinh(t)

    else:
        c = mp.sqrt(-2 * h * rho) if h else mp.asinh(rho)
        c2 = c * c if h else 0

        def point(t):
            s2 = mp.sin(c * mp.sinh(t)) ** 2
            return s2, s2 + c2, c * mp.cosh(t)

    r2, lead = rho * rho, 2 * (-1 if side == "plus" else 1) * rho

    def integrand(t):
        s2, gap, dq = point(t)
        if which == "period":
            return lead / mp.sqrt(gap * (r2 + s2)) * dq
        p = mp.sqrt(gap / (r2 + s2))
        return (p if side == "plus" else 1 - p) * dq

    return integrand


def _reference_halves(lo, hi, g, energy_at_lo):
    """The two tanh-sinh halves of g(z, d_lo, d_hi) over (lo, hi) in mpf, in
    u = t^2 from each end, energy's end first."""
    span = hi - lo
    left = lambda t: 2 * t * g(lo + t * t, t * t, span - t * t)
    right = lambda t: 2 * t * g(hi - t * t, span - t * t, t * t)
    return (left, right) if energy_at_lo else (right, left)


def _reference_cut(rho, h, side, which):
    """The tanh-sinh integrands in mpf on the cut from 2h to 1/rho or -rho; the
    plus side's period, which oracle takes from the minus side, is not here."""
    if side == "plus":
        lo, hi, smooth = 2 * h, 1 / rho, lambda z: z * (z + rho)
    else:
        lo, hi, smooth = -rho, 2 * h, lambda z: (-z) * (1 / rho - z)
    if which == "period":
        g = lambda z, dlo, dhi: 1 / mp.sqrt(dlo * dhi * smooth(z))
    elif side == "plus":
        g = lambda z, dlo, dhi: mp.sqrt(dlo / (smooth(z) * dhi))
    else:
        g = lambda z, dlo, dhi: mp.sqrt(dhi / (dlo * smooth(z)))
    return _reference_halves(lo, hi, g, side == "plus")


def _reference_unscaled(params, h_sans, dps):
    """The unscaled action's tanh-sinh integrands in mpf, on the inverse
    moments and 2h/ell^2 as oracle rounds them at dps digits."""
    with mp.workdps(dps):
        ell = mp.mpf(params.ell)
        r1, r2, r3 = (1 / mp.mpf(x) for x in (params.theta1, params.theta2, params.theta3))
        z_star = 2 * mp.mpf(h_sans) / ell**2
    if z_star > r2:
        g = lambda z, dlo, dhi: ell * mp.sqrt(dlo / (dhi * (z - r2) * (z - r3)))
        return _reference_halves(z_star, r1, g, True)
    g = lambda z, dlo, dhi: ell * mp.sqrt(dhi / (dlo * (r1 - z) * (r2 - z)))
    return _reference_halves(r3, z_star, g, False)


def _integrands(call):
    """The (int integrand, node bits, value exponent, end of its t-range)
    tuples that ``call`` hands the quadrature driver."""
    seen = []

    def record(integrand, node_bits, value_exp, end, scheme):
        seen.append((integrand, node_bits, value_exp, end))
        return oracle.QuadratureResult(mp.mpf(0), mp.mpf(0), 0, 0, False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_quad", record)
        call()
    return seen


def _on_mpf(integrand, node_bits, value_exp):
    """The int integrand as a function of an mpf t: t goes in as
    floor(t 2^node_bits), and the int n it returns comes out as n 2^value_exp."""
    return lambda t: mp.make_mpf(from_man_exp(integrand(to_fixed(t._mpf_, node_bits)), value_exp))


def _assert_fixed_matches(seen, references, dps, units, nodes):
    # Each node is a multiple of 2^-40 of its range's end, so the integrand
    # reads it exactly at its scale 2^P, P >= mp.prec + 44.  The forms take
    # rho and h as rounded at dps digits and compute what they derive from
    # them at P bits, as the mpf reference does 30 digits finer.  Every form
    # then keeps its value to a few units of 2^-P of its size, or of its
    # unit: 1 for gauss, span^(a - 3/2) for a cut whose integrand has y^a in
    # the numerator.  2^(8 - P) bounds that with room.
    with mp.workdps(dps):
        bits = oracle._fixed_bits()
    assert len(seen) == len(references) == len(units)
    with mp.workdps(dps + 30):
        for (*form, end), reference, unit in zip(seen, references, units):
            fixed = _on_mpf(*form)
            for j in nodes:
                t = mp.ldexp(end * j, -40)
                ref = reference(t)
                assert abs(fixed(t) - ref) <= mp.ldexp(max(abs(ref), unit), 8 - bits), (j, ref)


@given(
    kappa=st.one_of(
        st.builds(Fraction, st.integers(-24, 24), st.integers(1, 9)),
        st.sampled_from([Fraction(-20), Fraction(10**6)]),
    ),
    exponent=st.floats(-100, 0),
    sign=st.sampled_from([1, -1, 0]),
    dps=st.sampled_from([15, 50, 100]),
    nodes=st.lists(st.integers(1, 2**40 - 1), min_size=1, max_size=3),
)
def test_fixed_point_integrands_match_the_mpf_forms(kappa, exponent, sign, dps, nodes):
    # h from +-1e-100 up to +-0.3 of the convergence disc, and h = 0.  Above
    # the separatrix oracle integrates the minus side at (-kappa, -h), so the
    # reference is the minus form there
    with mp.workdps(dps):
        rho = rho_for_kappa(oracle._to_mp(kappa))
        disc = min(rho, 1 / rho) / 2
        h = sign * min(mp.mpf(10) ** exponent, 0.3 * disc)
        sides = ("plus", "minus") if sign == 0 else ("plus" if sign > 0 else "minus",)
        mirror = (rho_for_kappa(-oracle._to_mp(kappa)), -h, "minus")
    for side in sides:
        for which in ("action",) if sign == 0 else ("action", "period"):
            for scheme, reference in (("gauss", _reference_angle), ("tanh-sinh", _reference_cut)):
                seen = _integrands(lambda: oracle._integral(kappa, h, side, which, scheme, 1, dps))
                with mp.workdps(dps + 30):
                    refs = reference(*(mirror if sign > 0 else (rho, h, side)), which)
                    refs = refs if scheme == "tanh-sinh" else (refs,)
                    if scheme == "gauss":
                        units = (1,)
                    else:
                        span = 2 * seen[0][3] ** 2  # the driver's end is sqrt(span/2)
                        units = (span ** (-0.5 if which == "action" else -1.5),) * 2
                _assert_fixed_matches(seen, refs, dps, units, nodes)


@pytest.mark.parametrize("h", [0.6, -0.6, 1e-40, -1e-40])
def test_fixed_point_unscaled_integrand_matches_the_mpf_form(h):
    p = params_from_inertia(1.0, 1.7, 2.2, 1.3)
    h_sans = h * min(p.rho, 1 / p.rho) / 2 * p.lam * p.ell + 0.5 * p.ell**2 / p.theta2
    seen = _integrands(lambda: action_unscaled_quadrature(p, h_sans, dps=50))
    with mp.workdps(80):
        span = abs(seen[0][3]) ** 2 * 2
        _assert_fixed_matches(seen, _reference_unscaled(p, h_sans, 50), 50, (p.ell * span**-0.5,) * 2, [1, 2**20, 2**39, 2**40 - 1])


# ---------------------------------------------------------------------------
# the fixed-point driver against mp.quad on the mpf forms
# ---------------------------------------------------------------------------

class _ExactlyMappedTanhSinh(TanhSinh):
    """Stock tanh-sinh whose nodes mp.quad maps to (0, end) at 200 more bits."""

    def transform_nodes(self, nodes, a, b, verbose=False):
        with self.ctx.workprec(self.ctx.prec + 200):
            return super().transform_nodes(nodes, a, b)


class _BuiltGaussLegendre(GaussLegendre):
    """mpmath's Gauss-Legendre rule on the Newton roots of oracle's builder."""

    def calc_nodes(self, degree, prec, verbose=False):
        nodes, scale = oracle._gauss_nodes(degree, prec)
        return [(_mpf(x, scale), _mpf(w, scale)) for x, w in nodes]


# mp.quad's rules for the mpf forms: the gauss builder's Newton roots as mpf
# (stock mpmath's own take seconds at degree 8), and stock tanh-sinh, as
# mp.quad maps its nodes and exactly
_MPF_RULES = {
    "gauss": _BuiltGaussLegendre(mp),
    "tanh-sinh": TanhSinh(mp),
    "exact": _ExactlyMappedTanhSinh(mp),
}


def _driven(call):
    """The result of ``call``, and the (end, result) of each driver call it made."""
    seen, drive = [], oracle._quad

    def record(integrand, node_bits, value_exp, end, scheme):
        result = drive(integrand, node_bits, value_exp, end, scheme)
        seen.append((end, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_quad", record)
        return call(), seen


def _mp_quad(f, end, scheme, rule=None):
    """mp.quad of f over (0, end) by the scheme's mpf rule (or by ``rule``):
    value and evaluation count."""
    count = 0

    def counted(t):
        nonlocal count
        count += 1
        return f(t)

    rule, maxdegree = _MPF_RULES[rule or scheme], oracle._RULES[scheme][1]
    return mp.quad(counted, [0, end], method=lambda ctx: rule, maxdegree=maxdegree), count


@pytest.mark.parametrize(
    "kappa, h, dps",
    [(0.5, 0.02, 50), (0.5, -0.02, 30), (-20, 1e-3, 30), (-20, -1e-12, 50), (2, 1e-30, 50), (0.5, -1e-50, 50), (0.5, 0, 30)],
)
def test_driver_matches_mp_quad_on_the_mpf_forms(kappa, h, dps):
    # equal evaluation counts, and values within 10^-(dps - 2).  Near the
    # separatrix, |h| <= 1e-30, the tanh-sinh period's integrand varies on
    # the scale sqrt|h| next to t = 0 (ROADMAP item 23), where mp.quad rounds
    # each node t to prec + 20 bits of the range's end: that moves its value
    # by up to 1e-34 at 50 digits.  There the reference is the same rule with
    # its nodes mapped exactly, which the driver must match more closely than
    # mp.quad does.  Above the separatrix the driver runs on the minus side
    # at (-kappa, -h), whose mpf forms are the reference there; mp.quad over
    # the plus side's own angle form must meet its action and negated period.
    with mp.workdps(dps):
        rho = rho_for_kappa(oracle._to_mp(kappa))
        mirror = (rho_for_kappa(-oracle._to_mp(kappa)), -mp.mpf(h), "minus")
        bound = mp.mpf(10) ** -(dps - 2)
    sides = ("plus", "minus") if h == 0 else ("plus" if h > 0 else "minus",)
    for side in sides:
        for which in ("action",) if h == 0 else ("action", "period"):
            for scheme, reference in (("gauss", _reference_angle), ("tanh-sinh", _reference_cut)):
                _, seen = _driven(lambda: oracle._integral(kappa, h, side, which, scheme, 1, dps))
                with mp.workdps(dps + 30):
                    refs = reference(*(mirror if h > 0 else (rho, mp.mpf(h), side)), which)
                refs = refs if scheme == "tanh-sinh" else (refs,)
                assert len(seen) == len(refs)
                for (end, ours), ref in zip(seen, refs):
                    with mp.workdps(dps):
                        value, count = _mp_quad(ref, end, scheme)
                        if scheme == "tanh-sinh" and which == "period" and abs(h) <= 1e-30:
                            exact, _ = _mp_quad(ref, end, scheme, "exact")
                            assert abs(ours.value - exact) <= abs(value - exact) + bound, side
                        else:
                            assert abs(ours.value - value) <= bound, (side, which, scheme)
                    assert ours.evaluations == count, (side, which, scheme)
                if scheme == "gauss" and h > 0:
                    with mp.workdps(dps + 30):
                        own = _reference_angle(rho, mp.mpf(h), side, which)
                        top = mp.acosh(mp.pi / (2 * mp.asin(mp.sqrt(2 * h * rho))))
                    with mp.workdps(dps):
                        value, _ = _mp_quad(own, top, scheme)
                        mapped = -ours.value if which == "period" else ours.value
                        assert abs(value - mapped) <= bound, (which, "the plus side's own form")


def test_quadrature_reports_its_degree():
    # gauss degree m has 3 * 2^(m-1) nodes: 3 (2^m - 1) evaluations through m
    for kappa, h, dps in ((0.5, 0.02, 30), (0.5, -1e-12, 50), (-20, 1e-3, 50)):
        result = action_quadrature(kappa, h, tol=1e-20, dps=dps, scheme="gauss")
        assert result.evaluations == 3 * (2**result.degree - 1)
    # each tanh-sinh half evaluates the nodes of every degree through its own,
    # and the cut reports the higher of the two
    prec, degrees = _prec(50), set()
    for kappa, h in ((-20, 1e-3), (-20, -1e-12), (0.5, 0.02)):
        result, halves = _driven(lambda: action_quadrature(kappa, h, tol=1e-20, dps=50, scheme="tanh-sinh"))
        for _, half in halves:
            assert half.evaluations == sum(len(oracle._NODES["tanh-sinh", d, prec]) for d in range(1, half.degree + 1))
        assert result.degree == max(half.degree for _, half in halves)
        assert result.evaluations == sum(half.evaluations for _, half in halves)
        degrees.add(tuple(half.degree for _, half in halves))
    assert any(one != two for one, two in degrees)  # a cut whose halves stop apart


# ---------------------------------------------------------------------------
# scaling coherence with the dimension-carrying form
# ---------------------------------------------------------------------------


def _random_params(rng):
    t1 = rng.uniform(0.5, 2.0)
    t2 = t1 + rng.uniform(0.1, 1.0)
    t3 = t2 + rng.uniform(0.1, min(1.0, t1 - 0.05))  # keeps t3 < t1 + t2
    return params_from_inertia(t1, t2, t3, rng.uniform(0.5, 2.0))


def test_unscaled_action_matches_scaled():
    rng = random.Random(1729)
    with mp.workdps(40):
        for _ in range(10):
            p = _random_params(rng)
            h_max = 0.4 * min(p.rho, 1 / p.rho) / 2
            for h in (0.6 * h_max, -0.6 * h_max):
                h_sans = h * p.lam * p.ell + 0.5 * p.ell**2 / p.theta2
                assert math.isclose(scaled_energy(p, h_sans), h, rel_tol=1e-9)
                unscaled = action_unscaled_quadrature(p, h_sans, tol=1e-20, dps=40)
                scaled = action_quadrature(p.kappa, h, tol=1e-20, dps=40)
                assert abs(unscaled.value - 2 * p.ell * scaled.value) < mp.mpf("1e-10")


def test_root_correspondence():
    # the affine map z -> theta2^{-1} + (lam/ell) z sends (-rho, 0, 1/rho)
    # to the inverse moments (theta3^{-1}, theta2^{-1}, theta1^{-1})
    p = params_from_inertia(1.0, 1.7, 2.2, 1.3)
    scale = p.lam / p.ell
    assert abs(1 / p.theta2 + scale * (-p.rho) - 1 / p.theta3) < 1e-14
    assert abs(1 / p.theta2 + scale * (1 / p.rho) - 1 / p.theta1) < 1e-14


# ---------------------------------------------------------------------------
# series against quadrature
# ---------------------------------------------------------------------------


def test_verify_series_against_quadrature():
    report = verify_series_numerics(
        0.5, [0.005, -0.005, 0.02, -0.02, 0.0], order=30, tol=1e-9, dps=50
    )
    assert report.passed
    assert report.max_deviation < mp.mpf(str(VERIFY_REGRESSION_BOUND))
    assert report.area_sum_deviation < mp.mpf("1e-12")
    assert report.side_sum_deviation < mp.mpf("1e-12")
    zero_rows = [r for r in report.rows if r.h == 0.0]
    assert {r.side for r in zero_rows} == {"plus", "minus"}
    with mp.workdps(50):
        for r in zero_rows:
            assert abs(r.quadrature_value - separatrix_action(0.5, r.side, 50)) < mp.mpf("1e-45")
            # both schemes ran: Gauss-Legendre alone takes 93 evaluations here
            assert r.cross_scheme_delta < mp.mpf("1e-45")
            assert r.evaluations > 93


@pytest.mark.parametrize("kappa", [mp.mpf(-5) / 4, -1.25])
def test_inexact_kappa_gives_the_values_of_its_fraction(kappa):
    # the series coefficients are evaluated at the Fraction that kappa
    # equals, sign included, so a negative mpf or float kappa gives exactly
    # what Fraction(-5, 4) gives
    exact = Fraction(-5, 4)
    plus, minus = assemble_beta_actions(12)
    for beta, h in ((plus, 0.01), (minus, -0.01)):
        assert beta_action_value(beta, kappa, h) == beta_action_value(beta, exact, h)
    ours = verify_series_numerics(kappa, [0.005, -0.005], order=20, tol=1e-6, dps=30)
    reference = verify_series_numerics(exact, [0.005, -0.005], order=20, tol=1e-6, dps=30)
    assert ours.passed and ours.rows == reference.rows


def test_verify_deviation_shrinks_with_order():
    lo = verify_series_numerics(0.5, [0.02], order=18, tol=1.0, dps=50)
    hi = verify_series_numerics(0.5, [0.02], order=28, tol=1.0, dps=50)
    assert hi.max_deviation <= lo.max_deviation


def test_a_precision_below_15_digits_computes_at_15():
    # _working_dps is the one precision rule: every entry computes at
    # max(15, dps) digits, the constants and verify's h = 0 rows included
    plus, _ = assemble_beta_actions(3)
    assert constant_value(plus.k3, Fraction(1, 2), 5) == constant_value(plus.k3, Fraction(1, 2), 15)
    low, full = (verify_series_numerics(Fraction(1, 2), [0.01, 0], order=10, dps=d) for d in (10, 15))
    assert low.rows == full.rows


def test_a_precision_below_15_digits_sets_the_15_digit_tolerance(monkeypatch):
    # the quadratures run at max(15, dps) digits and are held to the tolerance
    # of those digits, so dps 10 and 15 ask for the same one
    tols = []
    original = oracle.action_quadrature

    def recording(*args, tol, **kwargs):
        tols.append(tol)
        return original(*args, tol=tol, **kwargs)

    monkeypatch.setattr(oracle, "action_quadrature", recording)
    for dps in (10, 15):
        verify_series_numerics(Fraction(1, 2), [0.01], order=10, dps=dps)
    assert len(tols) == 4 and tols[:2] == tols[2:]


@pytest.mark.parametrize("kappa", [Fraction(-5, 4), Fraction(0), Fraction(1, 2), Fraction(3)])
def test_each_side_area_is_2_pi_times_its_k3(kappa):
    with mp.workdps(50):
        for beta in assemble_beta_actions(1):
            area, k3 = constant_value(beta.area, kappa, 50), constant_value(beta.k3, kappa, 50)
            assert abs(area - 2 * mp.pi * k3) < mp.mpf("1e-48")


def test_swapped_side_tags_fail_verify(monkeypatch):
    # a side's k3 and area both come from its one tag in _SIDES: swapped tags
    # move k3 off the quadrature, whatever the areas sum to
    plus, minus = picardfuchs._SIDES["plus"], picardfuchs._SIDES["minus"]
    monkeypatch.setitem(picardfuchs._SIDES, "plus", (plus[0], minus[1]))
    monkeypatch.setitem(picardfuchs._SIDES, "minus", (minus[0], plus[1]))
    report = verify_series_numerics(Fraction(1, 2), [0.01, -0.01, 0], order=10, dps=30)
    assert not report.passed
    assert report.area_sum_deviation < mp.mpf("1e-25")


@pytest.mark.parametrize("tag, kappa", [(ATAN_RHO, Fraction(1, 2)), (ATAN_INV_RHO, Fraction(-5, 4))])
def test_a_wrong_atan_form_fails_verify(monkeypatch, tag, kappa):
    # a side's k3 is its atan form over pi, so a form off by 1e-30 moves k3
    # off both quadratures at h = 0
    assert verify_series_numerics(kappa, [0], tol=1e-40).passed
    form = oracle._CONSTANT_FORMS[tag]
    monkeypatch.setitem(oracle._CONSTANT_FORMS, tag, lambda rho, kq: form(rho, kq) * (1 + mp.mpf(10) ** -30))
    assert not verify_series_numerics(kappa, [0], tol=1e-40).passed


def test_verify_rejects_samples_outside_disc():
    with pytest.raises(DomainError, match="radius"):
        verify_series_numerics(0.5, [0.5], order=10)


@pytest.mark.parametrize("bad", [math.nan, 0.5], ids=str)
def test_verify_checks_every_sample_before_any_quadrature(monkeypatch, bad):
    calls, drive = [], oracle._quad
    monkeypatch.setattr(oracle, "_quad", lambda *args: calls.append(args) or drive(*args))
    with pytest.raises(DomainError):
        verify_series_numerics(0.5, [0.01, bad], order=10)
    assert calls == []


@pytest.mark.parametrize(
    "kappa, h, radius, shown",
    [
        (Fraction(1, 2), -0.4, 0.3903882032022076, "0.3903882"),
        (Fraction(-5, 4), 0.28, 0.27712382075353775, "0.27712382"),
    ],
)
def test_the_disc_is_the_nearer_end_of_the_energy_range(kappa, h, radius, shown):
    # h lies inside the energy range (-rho/2, 1/(2 rho)), past the nearer end's |h|
    with pytest.raises(DomainError, match=f"outside the convergence disc of radius {shown}$"):
        verify_series_numerics(kappa, [h], order=10)
    assert radius_analysis(kappa, 20, ("a",))[0].theoretical == radius


def _broken_quad(*args):
    raise AssertionError("a quadrature ran")


NON_FINITE = {
    "action_quadrature-kappa": lambda x: action_quadrature(x, 0.01),
    "action_quadrature-h": lambda x: action_quadrature(0.5, x),
    "period_quadrature-kappa": lambda x: period_quadrature(x, 0.01),
    "period_quadrature-h": lambda x: period_quadrature(0.5, x),
    "action_unscaled_quadrature-h": lambda x: action_unscaled_quadrature(params_from_inertia(1, 2, 3, 1), x),
    "separatrix_action-kappa": lambda x: separatrix_action(x, "plus"),
    "constant_value-kappa": lambda x: constant_value(SymbolicConstant(ATAN_RHO), x),
    "beta_action_value-kappa": lambda x: beta_action_value(assemble_beta_actions(4)[0], x, 0.01),
    "beta_action_value-h": lambda x: beta_action_value(assemble_beta_actions(4)[0], 0.5, x),
    "verify_series_numerics-kappa": lambda x: verify_series_numerics(x, [0.01], order=4),
    "verify_series_numerics-h": lambda x: verify_series_numerics(0.5, [x], order=4),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("entry", NON_FINITE)
def test_a_non_finite_kappa_or_h_is_refused_before_any_quadrature(monkeypatch, entry, value):
    monkeypatch.setattr(oracle, "_quad", _broken_quad)
    with pytest.raises(DomainError, match=f"^need a finite number, got {value}$"):
        NON_FINITE[entry](value)


def _unscaled_at(h_sans):
    # theta = (1, 2, 3) at ell = 1: the separatrix at h = 1/(2 theta2), the
    # elliptic equilibria at 1/(2 theta1) and 1/(2 theta3)
    return action_unscaled_quadrature(params_from_inertia(1, 2, 3, 1), h_sans)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: kappa_for_rho(0), ParameterError, "rho must be positive"),
        (lambda: _unscaled_at(0.25), DomainError, "separatrix"),
        (lambda: _unscaled_at(1.0), DomainError, "above"),
        (lambda: _unscaled_at(0.1), DomainError, "below"),
        (lambda: beta_action_value(assemble_beta_actions(4)[1], 0.5, 0.01), DomainError, "needs -1h > 0"),
        (lambda: action_quadrature(0.5, 0.01, scheme="simpson"), ValueError, "unknown scheme"),
        (lambda: constant_value(SymbolicConstant("atan_pho_over_pi"), 0.5), ValueError, "unknown constant kind"),
    ],
)
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
