import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp

from eulertop import series
from eulertop.series import (
    InternalConsistencyError,
    KP_ONE,
    KP_ZERO,
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    SingularReversionError,
    _Row,
    _cauchy,
    _kappa_poly,
    _row_dot,
    add_list,
    compose_trunc,
    horner,
    integrate_list,
    interpolate_kappa_poly,
    log_unit_trunc,
    mul_trunc,
    recip_trunc,
    revert_trunc,
    strip_list,
)
from eulertop.picardfuchs import frobenius_table
from expected_tables import A_TABLE, B_TABLE

K = KappaPoly.of(0, 1)
HALF = Fraction(1, 2)


def ps(var, *coeffs):
    return PowerSeries.from_coeffs(var, coeffs)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    f = ps("h", 1, K)
    g = ps("h", 1, -K)
    assert (f * g).order == 1  # truncates at the minimum input order
    assert f.pad(2) * g.pad(2) == ps("h", 1, 0, -(K * K))


def test_mul_identity():
    f = ps("h", 3, K, K * K + 1)
    one = PowerSeries.zero("h", 2) + ps("h", 1, 0, 0)
    assert f * one == f


def test_mul_hand_convolution():
    f = ps("h", 0, 1, K * Fraction(1, 4)).pad(4)
    sq = f * f
    assert sq == ps("h", 0, 0, 1, K * HALF, K * K * Fraction(1, 16))


def test_mul_variable_mismatch():
    with pytest.raises(SeriesUsageError):
        ps("h", 1, 1) * ps("J", 1, 1)


def test_recip_round_trip():
    for a, zero, one in (
        ([KappaPoly.constant(2), K, KP_ZERO, K * K], KP_ZERO, KP_ONE),
        ([Fraction(-3), HALF], Fraction(0), Fraction(1)),  # shorter than the order
    ):
        assert mul_trunc(a, recip_trunc(a, 6), 6) == [one] + [zero] * 6


def test_log_unit_low_orders():
    a = [KP_ONE, K, K * K]
    assert log_unit_trunc(a, 0) == [KP_ZERO]
    assert log_unit_trunc(a, 1) == [KP_ZERO, K]
    # log(1 + K x + K^2 x^2) = K x + (K^2 - K^2 / 2) x^2 + ...
    assert log_unit_trunc(a, 2) == [KP_ZERO, K, K * K * HALF]


def test_list_results_stay_in_the_coefficient_ring():
    # each list function takes its zero from its inputs, padding included
    for ring, b in ((Fraction, [Fraction(2), HALF, Fraction(-3)]), (KappaPoly, [KP_ONE, K, K * K])):
        a = b[:1]
        for out in (
            mul_trunc(a, b, len(a) + len(b)),  # past the last product coefficient
            add_list(a, b),
            add_list(b, a),
            mul_trunc([], b, 3),
            [_cauchy([], b, 2, 0)],
            integrate_list(b),
        ):
            assert out and all(type(x) is ring for x in out), ring
    assert mul_trunc((), (), -2) == []
    assert type(KP_ZERO * KP_ZERO) is KappaPoly and not KP_ZERO * KP_ZERO
    assert isinstance(horner([Fraction(3)], mp.mpf("0.5")), mp.mpf)


def test_mul_of_two_empty_lists_has_no_ring():
    # one empty operand gives the other's zeros; two give no ring to take a zero from
    assert mul_trunc([], [Fraction(2)], 2) == [Fraction(0)] * 3
    assert mul_trunc([K], [], 1) == [KP_ZERO] * 2
    for order in (0, 3):
        with pytest.raises(SeriesUsageError, match="no ring"):
            mul_trunc([], (), order)


# ---------------------------------------------------------------------------
# composition and reversion
# ---------------------------------------------------------------------------


def test_compose_identity_inner():
    f = ps("h", 2, K, 1, K)
    assert f.compose(PowerSeries.identity("h", 3)) == f


def test_compose_binomial():
    outer = ps("J", 0, 0, 1).pad(4)
    inner = ps("h", 0, 1, 1).pad(4)
    assert outer.compose(inner) == ps("h", 0, 0, 1, 2, 1)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(SeriesUsageError):
        ps("J", 0, 1).compose(ps("h", 1, 1))


def test_list_functions_refuse_a_bad_constant_term():
    # PowerSeries checks first, so only direct calls reach these refusals; the
    # zero of compose_trunc and revert_trunc is the constant term they refuse
    for zero, one, other in ((Fraction(0), Fraction(1), Fraction(-3)), (KP_ZERO, KP_ONE, K)):
        for c in (one, other):
            with pytest.raises(SeriesUsageError, match="vanish"):
                compose_trunc([one, one], [c, one], 3)
            with pytest.raises(SingularReversionError, match="vanish"):
                revert_trunc([c, one], 3)
        for order in (0, -1):
            with pytest.raises(SeriesUsageError, match="order >= 1"):
                revert_trunc([zero, one], order)
        for c in (zero, other):
            with pytest.raises(SeriesUsageError, match="constant term 1"):
                log_unit_trunc([c, one], 3)
        for call in (
            lambda: recip_trunc([one], -1),
            lambda: log_unit_trunc([one, one], -1),
            lambda: compose_trunc([one, one], [zero, one], -1),
        ):
            with pytest.raises(SeriesUsageError, match="order >= 0"):
                call()
    for c in (Fraction(0), KP_ZERO, K):  # not invertible
        with pytest.raises(SingularReversionError):
            recip_trunc([c, c], 3)


def _revert_by_substitution(f: PowerSeries) -> PowerSeries:
    # independent oracle: raise the order one coefficient at a time using
    # f(g) = x to solve for each new coefficient of g
    n = f.order
    inv_lin = Fraction(1) / f.coefficient(1).coefficient(0)
    g = [KP_ZERO, KappaPoly.constant(inv_lin)] + [KP_ZERO] * (n - 1)
    for m in range(2, n + 1):
        trial = PowerSeries("J", tuple(g))
        residual = f.compose(trial).coefficient(m)
        g[m] = -residual * inv_lin
    return PowerSeries("J", tuple(g))


def test_revert_identity():
    assert PowerSeries.identity("h", 3).revert() == PowerSeries.identity("J", 3)


def test_revert_catalan_pattern():
    f = ps("h", 0, 1, 1).pad(5)
    expected = ps("J", 0, 1, -1, 2, -5, 14)
    assert _revert_by_substitution(f) == expected
    assert f.revert() == expected


def test_revert_recovers_normal_form_head():
    f = ps("h", 0, 1, K * Fraction(1, 4), (K * K * 3 + 4) * Fraction(1, 16))
    expected = ps("J", 0, 1, K * Fraction(-1, 4), (K * K + 4) * Fraction(-1, 16))
    assert f.revert() == expected


@pytest.mark.parametrize(
    "bad",
    [
        ps("h", 1, 1, 1),       # nonzero constant term
        ps("h", 0, 0, 1),       # zero linear coefficient
        ps("h", 0, K, 1),       # linear coefficient not a constant
    ],
)
def test_revert_rejects_singular_input(bad):
    with pytest.raises(SingularReversionError):
        bad.revert()


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def test_integrate_constant():
    assert ps("h", 1).integrate() == ps("h", 0, 1)


def test_integrate_period_head():
    t = ps("h", 1, K * HALF)
    assert t.integrate() == ps("h", 0, 1, K * Fraction(1, 4))


def test_integrate_pure_log():
    # antiderivative of log h is h log h - h
    f = LogSeries(ps("h", 1), ps("h", 0))
    out = f.integrate()
    assert out.log_part == ps("h", 0, 1)
    assert out.regular_part == ps("h", 0, -1)


def test_derivative_of_an_order_0_series_is_zero():
    assert ps("h", 3).differentiate() == PowerSeries.zero("h", 0)


def test_compose_with_log_identity_inner():
    f = LogSeries(PowerSeries.identity("h", 3), PowerSeries.zero("h", 3))
    out = f.compose_with_log(PowerSeries.identity("J", 4))
    assert out.log_part == PowerSeries.identity("J", 3)
    assert out.regular_part.is_zero()


def test_compose_with_log_expands_unit_logarithm():
    # constant log part turns the regular output into log(inner / J)
    f = LogSeries(ps("h", 1).pad(3), PowerSeries.zero("h", 3))
    inner = ps("J", 0, 1, K * Fraction(-1, 4)).pad(4)
    out = f.compose_with_log(inner)
    expected = ps(
        "J",
        0,
        K * Fraction(-1, 4),
        K * K * Fraction(-1, 32),
        K * K * K * Fraction(-1, 192),
    )
    assert out.regular_part == expected


def test_compose_with_log_requires_unit_inner():
    f = LogSeries(ps("h", 1).pad(2), PowerSeries.zero("h", 2))
    with pytest.raises(SeriesUsageError):
        f.compose_with_log(ps("J", 0, 2, 1))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
kappa_polys = st.lists(rationals, min_size=0, max_size=3).map(
    lambda cs: KappaPoly(tuple(cs))
)


def unit_series(order):
    tail = st.lists(kappa_polys, min_size=order - 1, max_size=order - 1)
    return tail.map(lambda cs: PowerSeries("h", (KP_ZERO, KP_ONE, *cs)))


@given(unit_series(6))
def test_reversion_round_trip(f):
    g = f.revert()
    assert f.compose(g) == PowerSeries.identity("J", 6)
    assert g.compose(f) == PowerSeries.identity("h", 6)


@given(rationals.filter(bool), st.lists(rationals, max_size=12), st.integers(1, 14))
def test_fraction_reversion_round_trip(linear, tail, n):
    # uneven lengths: the order n runs both above and below len(a) - 1
    a = [Fraction(0), linear, *tail]
    g = revert_trunc(a, n)
    identity = [0, 1] + [0] * (n - 1)
    assert compose_trunc(a, g, n) == identity
    assert compose_trunc(g, a, n) == identity


def power_sum(outer, inner, order):
    """sum_k outer[k] inner^k through x^order, each power one more mul_trunc."""
    total = [inner[0]] * (order + 1)
    if outer:
        total[0] = outer[0]
    power = inner[: order + 1]
    for c in outer[1:]:
        total = add_list(total, [c * x for x in power])
        power = mul_trunc(power, inner, order)
    return total


@st.composite
def compositions(draw):
    """outer, inner with a zero constant term, and an order, over Fraction or
    KappaPoly; the lengths run above and below order + 1."""
    coeffs, zero = draw(st.sampled_from([(rationals, Fraction(0)), (kappa_polys, KP_ZERO)]))
    outer = draw(st.lists(coeffs, max_size=14))
    inner = [zero, *draw(st.lists(coeffs, max_size=11))]
    return outer, inner, draw(st.integers(0, 10))


FRACTIONS = [Fraction(c, 3) for c in range(-4, 6)]
POLYS = [KappaPoly.of(c, 1 - c) for c in range(-4, 6)]


@given(compositions())
@example((FRACTIONS[:0], [0, *FRACTIONS[:3]], 3))  # empty outer
@example((POLYS[:1], [KP_ZERO, K], 2))  # one coefficient, no power of inner
@example((FRACTIONS[:4], [0, 1, -1], 5))  # 4 and 9 coefficients: m = 2 and 3, full blocks
@example((POLYS[:9], [KP_ZERO, KP_ONE, K], 9))
@example((FRACTIONS[:9], [0, *FRACTIONS[1:5]], 2))  # outer past order + 1
@example((POLYS[:6], [KP_ZERO, K], 8))  # inner shorter than order + 1
@example((FRACTIONS[:7], [0, 1, 2], 0))  # order 0
def test_compose_is_the_sum_of_powers(case):
    outer, inner, order = case
    assert compose_trunc(outer, inner, order) == power_sum(outer, inner, order)


@given(
    st.lists(kappa_polys, min_size=5, max_size=5),
    st.lists(kappa_polys, min_size=5, max_size=5),
    st.lists(kappa_polys, min_size=5, max_size=5),
)
def test_mul_commutative_associative(a, b, c):
    f, g, k = (PowerSeries("h", tuple(x)) for x in (a, b, c))
    assert f * g == g * f
    assert (f * g) * k == f * (g * k)


@st.composite
def short_and_full_lists(draw):
    """n, a list a shorter than n + 1 and a list b of length n + 1."""
    n = draw(st.integers(0, 6))
    a = draw(st.lists(kappa_polys, min_size=0, max_size=n))
    b = draw(st.lists(kappa_polys, min_size=n + 1, max_size=n + 1))
    return n, a, b


@given(short_and_full_lists())
def test_online_coefficient_is_product_coefficient(case):
    n, a, b = case
    assert _cauchy(a, b, n, 0) == mul_trunc(a, b, n)[n]


# ---------------------------------------------------------------------------
# the kernel against term-by-term reference loops
# ---------------------------------------------------------------------------

# zeros, negatives, den 1, powers of two and mixed denominators
kernel_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 1, 2, 8, 1024, 3, 6, 35])),
)
# the zero polynomial (empty or all-zero lists) among them
kernel_polys = st.lists(kernel_rationals, max_size=3).map(KappaPoly)
RINGS = [(kernel_rationals, Fraction(0)), (kernel_polys, KP_ZERO)]


def reference_mul(a, b, order, zero):
    """The Cauchy product one ring + and * at a time, each a canonical value."""
    out = []
    for n in range(order + 1):
        acc = zero
        for i in range(max(n + 1 - len(b), 0), min(n, len(a) - 1) + 1):
            if a[i] and b[n - i]:
                acc = acc + a[i] * b[n - i]
        out.append(acc)
    return out


def reference_recip(a, order, zero):
    inv0 = KappaPoly.constant(1 / a[0].coefficient(0)) if isinstance(a[0], KappaPoly) else 1 / a[0]
    out = [inv0]
    for n in range(1, order + 1):
        acc = zero
        for i in range(1, min(n, len(a) - 1) + 1):
            if a[i]:
                acc = acc + a[i] * out[n - i]
        out.append(-(inv0 * acc))
    return out


def reference_compose(outer, inner, order, zero):
    """Horner on single outer coefficients over reference_mul."""
    res = [zero] * (order + 1)
    for c in reversed(outer[: order + 1]):
        res = reference_mul(res, inner, order, zero)
        res[0] = res[0] + c
    return res


def assert_canonical(out, zero):
    for c in out:
        assert type(c) is type(zero)
        if isinstance(c, KappaPoly):
            assert type(c.num) is _Row and c.den > 0 and math.gcd(c.den, *c.num) == 1
            assert not c.num or c.num[-1]


@st.composite
def kernel_cases(draw):
    """a ring's zero, lists a and b of uneven lengths in it, and an order."""
    coeffs, zero = draw(st.sampled_from(RINGS))
    a = draw(st.lists(coeffs, max_size=7))
    b = draw(st.lists(coeffs, min_size=0 if a else 1, max_size=7))
    return zero, a, b, draw(st.integers(0, 8))


@given(kernel_cases())
@example((KP_ZERO, [KappaPoly.of(HALF, -1), KP_ZERO, KappaPoly.of(Fraction(3, 1024))], [KappaPoly.of(0, Fraction(-5, 6))] * 3, 4))
@example((Fraction(0), [Fraction(1, 8), Fraction(-3, 35)], [Fraction(0), Fraction(7, 6), Fraction(-2)], 3))
def test_kernel_matches_the_term_by_term_loops(case):
    zero, a, b, order = case
    got = mul_trunc(a, b, order)
    assert got == reference_mul(a, b, order, zero)
    assert_canonical(got, zero)
    if b:
        for n in range(min(order, len(b) - 1) + 1):
            assert _cauchy(a, b, n, 0) == got[n]
    if a[:1] and (a[0].degree == 0 if isinstance(a[0], KappaPoly) else a[0]):
        got = recip_trunc(a, order)
        assert got == reference_recip(a, order, zero)
        assert_canonical(got, zero)
    inner = [zero, *b]
    got = compose_trunc(a, inner, order)
    assert got == reference_compose(a, inner, order, zero)
    assert_canonical(got, zero)


def test_mul_trunc_builds_one_kappa_poly_per_output_coefficient(monkeypatch):
    # each output coefficient is one sum of products with one reduction, not a
    # reduction per term; a coefficient with no nonzero term builds nothing
    a = [KappaPoly.of(Fraction(c, 3), Fraction(1, 2 + c)) for c in range(1, 6)]
    b = [KappaPoly.of(Fraction(-1, 4 * c), c) for c in range(1, 5)]
    calls = []
    settle = series._settle
    monkeypatch.setattr(series, "_settle", lambda *args: calls.append(args) or settle(*args))
    out = mul_trunc(a, b, 9)
    assert len(calls) == 8 and out[8:] == [KP_ZERO] * 2
    calls.clear()
    assert _cauchy(a, b, 3, 0) == out[3] and len(calls) == 1


def test_negation_reduces_nothing(monkeypatch):
    # -p of a canonical p is canonical: only the sum in p - q settles
    p, q = KappaPoly.of(Fraction(2, 3), Fraction(-5, 6)), KappaPoly.of(Fraction(1, 4), 3)
    calls = []
    settle = series._settle
    monkeypatch.setattr(series, "_settle", lambda *args: calls.append(args) or settle(*args))
    neg = -p
    assert len(calls) == 0 and (neg.num, neg.den) == ((-4, 5), 6)
    diff = p - q
    assert len(calls) == 1 and diff == KappaPoly.of(Fraction(5, 12), Fraction(-23, 6))
    assert -KP_ZERO == KP_ZERO and type((-p).num) is _Row


def test_compose_with_log_shares_the_baby_steps(monkeypatch):
    # the log part and the regular part are composed over one set of powers
    # of inner, with the same result as two separate compositions
    f = LogSeries(ps("h", 1, K, -K, 3, K * K, 2, 0, 1, K), ps("h", 0, 2, K, 1, -K, 0, 5, K, 1))
    inner = ps("J", 0, 1, K * Fraction(-1, 4), HALF, K, 1, 0, -K, 2, K * K)
    steps = []
    baby_steps = series._baby_steps
    monkeypatch.setattr(series, "_baby_steps", lambda *args: steps.append(args) or baby_steps(*args))
    out = f.compose_with_log(inner)
    assert len(steps) == 1
    assert out.log_part == f.log_part.compose(inner.truncate(8))
    unit = PowerSeries("J", log_unit_trunc(inner.coeffs[1:], 8))
    assert out.regular_part == out.log_part * unit + f.regular_part.compose(inner.truncate(8))


@given(st.lists(kappa_polys, min_size=1, max_size=7))
def test_derivative_inverts_integral(coeffs):
    f = PowerSeries("h", tuple(coeffs))
    assert f.integrate().differentiate() == f


@st.composite
def parity_polys_and_nodes(draw):
    """A KappaPoly kappa^odd * p(kappa^2) and nodes enough to rebuild it plus one to check."""
    odd = draw(st.integers(0, 1))
    p = draw(st.lists(rationals, min_size=0, max_size=4))
    coeffs = [Fraction(0)] * (2 * len(p) + odd)
    coeffs[odd::2] = p
    nonzero = st.fractions(min_value=-8, max_value=8, max_denominator=8).filter(bool)
    kappas = draw(st.lists(nonzero, min_size=len(p) + 2, max_size=len(p) + 4, unique_by=abs))
    return KappaPoly(tuple(coeffs)), kappas, odd


@given(parity_polys_and_nodes())
def test_interpolate_kappa_poly_rebuilds_and_checks(case):
    poly, kappas, odd = case
    values = [poly(k) for k in kappas]
    assert interpolate_kappa_poly(kappas, values, odd) == poly
    with pytest.raises(InternalConsistencyError):
        interpolate_kappa_poly(kappas, values[:-1] + [values[-1] + 1], odd)


@given(kappa_polys, kappa_polys, rationals)
def test_kappa_poly_ring_matches_evaluation(p, q, k):
    # Horner evaluation is an independent reference for the ring operations
    assert (p + q)(k) == p(k) + q(k)
    assert (p - q)(k) == p(k) - q(k)
    assert (p * q)(k) == p(k) * q(k)
    assert (p * k)(k) == p(k) * k
    assert p.flip_kappa()(k) == p(-k)


def test_kappa_poly_at_a_float_or_an_mpf_runs_horner():
    p = KappaPoly.of(HALF, 0, -1)
    assert p(0.5) == 0.25
    value = p(mp.mpf(-5) / 4)
    assert isinstance(value, mp.mpf) and value == -1.0625  # -17/16 exactly


# ---------------------------------------------------------------------------
# the fraction-free KappaPoly against Fraction lists
# ---------------------------------------------------------------------------

# coefficient lists of uneven lengths, empty ones and trailing zeros included
raw_lists = st.builds(
    lambda cs, zeros: cs + [Fraction(0)] * zeros,
    st.lists(rationals, max_size=4),
    st.integers(0, 2),
)


def _stripped(cs) -> tuple:
    return tuple(strip_list(cs))


@given(raw_lists, raw_lists, rationals, st.integers(-3, 3), st.integers(-1, 6))
def test_kappa_poly_matches_the_fraction_list_kernel(a, b, c, m, n):
    # reference: the list kernel run on the Fraction coefficients, then stripped
    p, q = KappaPoly(a), KappaPoly(b)
    assert p.coeffs == _stripped(a)
    assert all(type(x) is Fraction for x in p.coeffs)
    assert p.coefficient(n) == (_stripped(a)[n] if 0 <= n < len(_stripped(a)) else 0)
    assert (p + q).coeffs == _stripped(add_list(a, b))
    assert (p - q).coeffs == _stripped(add_list(a, [-x for x in b]))
    assert (p * q).coeffs == _stripped(mul_trunc(a, b, len(a) + len(b) - 2))
    assert (p * c).coeffs == (c * p).coeffs == _stripped([x * c for x in a])
    assert (p * m).coeffs == (m * p).coeffs == _stripped([x * m for x in a])
    assert p.flip_kappa().coeffs == _stripped([-x if i % 2 else x for i, x in enumerate(a)])
    assert p(c) == horner(_stripped(a), c) and p(m) == horner(_stripped(a), Fraction(m))


@given(raw_lists, st.integers(1, 12))
def test_kappa_poly_is_canonical(a, m):
    p = KappaPoly(a)
    same = KappaPoly([x * m for x in a]) * Fraction(1, m)
    assert same == p and hash(same) == hash(p)
    assert (same.num, same.den) == (p.num, p.den)
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1 and (not p.num or p.num[-1])
    assert pickle.loads(pickle.dumps(p)) == p


# numerators with up to 720 trailing zeros, zeros and negatives among them
shifted_ints = st.builds(lambda c, e: c << e, st.integers(-(2**40), 2**40), st.integers(0, 720))


@given(st.lists(shifted_ints, max_size=8), st.one_of(st.integers(0, 700).map(lambda e: 1 << e), st.integers(1, 10**9)))
@example([], 1 << 700)
@example([0, 0], 8)
@example([-3 << 5, 0, 1 << 9, 0], 1 << 7)
@example([6, -4], 1)
@example([5 << 800, -(1 << 700)], 1 << 700)
def test_settle_by_shifts_matches_the_gcd(num, den):
    # a power-of-two den is reduced by shifts, any other by math.gcd: both
    # give the one canonical (num, den)
    poly, stripped = _kappa_poly(num, den), strip_list(num)
    g = math.gcd(den, *stripped)
    assert type(poly.num) is _Row
    assert (poly.num, poly.den) == (tuple(c // g for c in stripped), den // g)


def test_kappa_poly_canonical_examples():
    assert KappaPoly((Fraction(2, 4), 0)) == KappaPoly((Fraction(1, 2),))
    assert hash(KappaPoly((Fraction(2, 4), 0))) == hash(KappaPoly.of(Fraction(1, 2)))
    assert (KP_ZERO.num, KP_ZERO.den, KP_ZERO.degree) == ((), 1, float("-inf"))
    assert type(KP_ZERO.num) is type(KappaPoly.of(1, 2).num) is _Row
    assert K * 2 - K - K == KP_ZERO and not K * 2 - K - K
    assert repr(KappaPoly.of(HALF, 0, 1)) == (
        "KappaPoly(coeffs=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 1)))"
    )
    assert str(KappaPoly.of(HALF, 0, -1)) == "1/2 + -1*k^2"
    assert pickle.loads(pickle.dumps(KP_ZERO)) == KP_ZERO


# int rows with zero coefficients and negative values, empty ones included
int_rows = st.lists(st.integers(-5, 5), max_size=5)


@given(st.lists(st.tuples(st.integers(-3, 3), int_rows, int_rows), max_size=4))
def test_row_dot_is_the_weighted_sum_of_products(terms):
    # reference: mul_trunc on plain int lists, each product scaled by its
    # weight and the products summed with add_list
    expected = []
    for w, x, y in terms:
        expected = add_list(expected, [w * c for c in mul_trunc(x, y, len(x) + len(y) - 2)])
    got = _row_dot([w for w, _, _ in terms], [_Row(x) for _, x, _ in terms], [_Row(y) for _, _, y in terms])
    assert type(got) is _Row and strip_list(got) == strip_list(expected)


def test_kappa_poly_refuses_what_is_not_an_exact_rational():
    # a bool is an int to Python, but never a coefficient
    for make in (
        lambda: KappaPoly.of(True),
        lambda: KappaPoly.constant(False),
        lambda: KappaPoly.of(1) * True,
        lambda: KappaPoly.of(1) + True,
        lambda: KappaPoly.of(1) - True,
        lambda: KappaPoly.of(0.5),
        lambda: KappaPoly.of(1) * 0.5,
    ):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("method", ["recursion", "closed_form"])
def test_expected_tables_equal_both_routes(method):
    table = frobenius_table(5, method)
    assert (table.a[0], table.b[0]) == (KP_ONE, KP_ZERO)
    for got, want in ((table.a, A_TABLE), (table.b, B_TABLE)):
        for n, poly in want.items():
            assert got[n] == poly and got[n].coeffs == poly.coeffs, (method, n)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: PowerSeries("x", (1,)), "unknown series variable"),
        (lambda: PowerSeries("h", ()), "at least the constant"),
        (lambda: PowerSeries.identity("h", 0), "order >= 1"),
        (lambda: LogSeries(PowerSeries.zero("h", 2), PowerSeries.zero("J", 2)), "share a variable"),
        (lambda: LogSeries(PowerSeries.zero("h", 2), PowerSeries.zero("h", 3)), "share an order"),
        (
            lambda: LogSeries(PowerSeries.zero("h", 2), PowerSeries.zero("h", 2)).compose_with_log(
                PowerSeries("J", (KP_ONE, KP_ONE, KP_ZERO))
            ),
            "zero constant term",
        ),
    ],
)
def test_input_checks_raise(call, match):
    with pytest.raises(SeriesUsageError, match=match):
        call()
