import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eulertop import picardfuchs
from eulertop.invariants import bnf_via_reversion, extract_sigma
from eulertop.picardfuchs import (
    FrobeniusTable,
    _sequences,
    assemble_beta_actions,
    build_action_series,
    derive_pf_coefficients,
    frobenius_a_at,
    frobenius_b_at,
    frobenius_table,
    pf_residual,
)
from eulertop.series import (
    KP_KAPPA,
    KP_ONE,
    KP_ZERO,
    InternalConsistencyError,
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    _cauchy,
    add_list,
    deriv_list,
    integrate_list,
    log_unit_trunc,
    mul_trunc,
    recip_trunc,
)

from expected_tables import A_TABLE, B_TABLE

K = KappaPoly.of(0, 1)


# ---------------------------------------------------------------------------
# the ODE coefficients
# ---------------------------------------------------------------------------


def test_pf_coefficients_match_known_forms():
    pf = derive_pf_coefficients()
    assert pf.c0.is_zero()
    assert pf.c1 == PowerSeries.from_coeffs("h", (K * Fraction(1, 2), 3))
    assert pf.c2 == PowerSeries.from_coeffs("h", (-1, K * 4, 12))
    assert pf.c3 == PowerSeries.from_coeffs("h", (0, -1, K * 2, 4))


def test_c3_is_half_w_squared_at_2h():
    # w(z)^2 = z^3 + kappa z^2 - z evaluated at z = 2h, halved
    w2 = [KP_ZERO, -KP_ONE, K, KP_ONE]
    coeffs = [c * Fraction(2**n, 2) for n, c in enumerate(w2)]
    assert derive_pf_coefficients().c3 == PowerSeries.from_coeffs("h", coeffs)


# ---------------------------------------------------------------------------
# Frobenius tables
# ---------------------------------------------------------------------------


def test_a_table_matches_known_values():
    a = frobenius_table(5).a
    assert a[0] == KP_ONE
    for n, expected in A_TABLE.items():
        assert a[n] == expected, f"a_{n}"


def test_b_table_matches_known_values():
    b = frobenius_table(5).b
    assert b[0] == KP_ZERO
    for n, expected in B_TABLE.items():
        assert b[n] == expected, f"b_{n}"


def test_a3_vanishes_at_symmetric_top():
    assert frobenius_table(3).a[3](Fraction(0)) == 0


def test_recursion_equals_closed_form():
    # order 200 is the frobenius --order ceiling: the integer laws hold at every size it admits
    recursion, closed = frobenius_table(200, "recursion"), frobenius_table(200, "closed_form")
    assert recursion.a == closed.a
    assert recursion.b == closed.b


def test_table_normalization_is_checked():
    table = frobenius_table(3)
    eps = Fraction(1, 10**40)
    with pytest.raises(InternalConsistencyError, match="table normalization broken"):
        FrobeniusTable(3, (table.a[0] + eps, *table.a[1:]), table.b)
    with pytest.raises(InternalConsistencyError, match="table normalization broken"):
        FrobeniusTable(3, table.a, (table.b[0] + eps, *table.b[1:]))


def test_sequence_thunks_keep_no_state():
    # each thunk returns the table it returns alone, whatever ran before it on
    # the same entry, and a caller that changes the list changes no later one
    n = 12
    for kappa in (KP_KAPPA, Fraction(1, 2), Fraction(-5, 4), Fraction(-4028141964097261, 2251799813685248)):
        alone = {name: _sequences(kappa, n)[name]() for name in ("a", "b", "bnf", "sigma")}
        for order in (("b", "a"), ("a", "b"), ("a", "a"), ("sigma", "bnf", "sigma")):
            sequences = _sequences(kappa, n)
            for name in order:
                values = sequences[name]()
                assert values == alone[name], (kappa, order, name)
                values.clear()


def test_inexact_division_is_not_absorbed(monkeypatch):
    # a wrong L_n breaks the denominator law of b: both routes and the
    # fixed-kappa sequence raise instead of rounding
    monkeypatch.setattr(picardfuchs, "_lcm_table", lambda order: [1] * (order + 1))
    for method in ("recursion", "closed_form"):
        with pytest.raises(InternalConsistencyError):
            frobenius_table(12, method)
    with pytest.raises(InternalConsistencyError):
        _sequences(Fraction(1, 2), 12)["b"]()


def test_b_denominators_divide_8_to_the_n_times_lcm_1_to_n():
    # the law of _b_rows, read from the closed form, which runs on lcm(1..2n-1)
    scale = 1
    for n, poly in enumerate(frobenius_table(200, "closed_form").b):
        scale = math.lcm(scale, n or 1)
        assert (8**n * scale) % poly.den == 0, n


def test_recursion_table_runs_one_a_pass(monkeypatch):
    # frobenius_table reads a and b from the one pass of _b_rows, and an
    # a-only sequence runs no b rows
    calls = []
    for name in ("_a_rows", "_b_rows"):
        original = getattr(picardfuchs, name)
        monkeypatch.setattr(picardfuchs, name, lambda *args, f=original, name=name: calls.append(name) or f(*args))
    for n in (0, 1, 30):
        frobenius_table(n)
    assert calls == ["_b_rows", "_a_rows"] * 3
    calls.clear()
    _sequences(Fraction(1, 2), 30)["a"]()
    assert calls == ["_a_rows"]


def test_kept_tables_grow_out_of_order(monkeypatch):
    # from empty tables, grown to 60, then read at 5, then grown to 100
    monkeypatch.setattr(picardfuchs, "_KEPT", {name: [] for name in picardfuchs._KEPT})
    for n in (60, 5, 100):
        rows, lcms, steps = picardfuchs._binomials(n), picardfuchs._lcm_table(n), picardfuchs._lcm_steps(n)
        assert rows == [[math.comb(k, i) for i in range(k + 1)] for k in range(n + 1)], n
        running = [math.lcm(*range(1, k + 1)) for k in range(n + 1)]
        assert lcms == running, n
        assert steps == [1] + [b // a for a, b in zip(running, running[1:])], n
    assert [len(picardfuchs._KEPT[name]) for name in ("lcm", "lcm_step")] == [101] * 2
    assert len(picardfuchs._KEPT["pascal"]) == picardfuchs._KEPT_STEPS + 2  # the rows above are built per call


def test_kept_tables_stay_whole_under_threads(monkeypatch):
    # readers racing an extension may lose it, never see a torn table: every
    # thread's sigma and Pascal rows equal those of one thread alone
    orders = (30, 70)  # 70 crosses _KEPT_STEPS
    expected = {n: _sequences(Fraction(1, 2), n)["sigma"]() for n in orders}
    failures = []

    def work():
        try:
            for n in orders:
                assert _sequences(Fraction(1, 2), n)["sigma"]() == expected[n], n
                assert picardfuchs._binomials(n)[n] == [math.comb(n, i) for i in range(n + 1)], n
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # each round from empty tables
            monkeypatch.setattr(picardfuchs, "_KEPT", {name: [] for name in picardfuchs._KEPT})
            threads = [threading.Thread(target=work) for _ in range(6)]  # in step: they extend together
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures


@pytest.fixture(scope="module")
def symbolic_tables():
    table = frobenius_table(12)
    symbolic = {name: thunk() for name, thunk in _sequences(KP_KAPPA, 9).items()}
    return table.a, table.b, bnf_via_reversion(9), extract_sigma(9).tail, symbolic


@given(st.builds(Fraction, st.integers(-24, 24), st.integers(1, 9)))
@example(Fraction(0))
def test_numeric_tables_match_symbolic(symbolic_tables, kappa):
    """The fixed-kappa sequences behind the radius experiments are the
    symbolic tables evaluated at kappa: the same code gives the same values
    over both rings.  (That the recurrences are right is checked against
    reversion and composition in test_invariants.)"""
    a, b, bnf, sigma_tail, symbolic = symbolic_tables
    sequences = _sequences(kappa, 9)
    assert [p(kappa) for p in a] == frobenius_a_at(kappa, 12)
    assert [p(kappa) for p in b] == frobenius_b_at(kappa, 12)
    assert [c(kappa) for c in bnf.coeffs] == sequences["bnf"]()
    assert [c(kappa) for c in sigma_tail.coeffs] == sequences["sigma"]()
    # the one entry keeps each ring, down to a_0 and y_1, which start from its zero
    for name, thunk in sequences.items():
        values = thunk()
        assert all(isinstance(c, Fraction) for c in values), name
        assert all(isinstance(c, KappaPoly) for c in symbolic[name]), name
        assert [c(kappa) for c in symbolic[name]] == values, name


@pytest.fixture(scope="module")
def packed_tables():
    return {name: thunk() for name, thunk in _sequences(KP_KAPPA, 40).items()}


@pytest.mark.parametrize(
    "kappa", [Fraction(1, 2), Fraction(-5, 7), Fraction(3), Fraction(-4028141964097261, 2251799813685248)], ids=str
)
def test_packed_tables_evaluate_to_the_int_ring(packed_tables, kappa):
    """The packed ring at KP_KAPPA is the int ring with p -> 1 and q^2 -> a
    shift, which holds while every term of a recurrence has the weight of its
    index: a term off its weight puts a coefficient at the wrong power of
    kappa in one ring and not in the other."""
    for name, thunk in _sequences(kappa, 40).items():
        assert [c(kappa) for c in packed_tables[name]] == thunk(), name


def test_first_log_coefficient_comes_from_harmonic_factor():
    # f_{1,0} = 2 O_1 + 2 O_1 - 2 H_1 = 2, so b_1 = a_1 * 2 = kappa
    o1 = h1 = Fraction(1)
    f10 = 2 * o1 + 2 * o1 - 2 * h1
    assert f10 == 2
    table = frobenius_table(1)
    assert table.b[1] == table.a[1] * f10


def test_negative_order_rejected():
    for order, method in ((-1, "recursion"), (-2, "recursion"), (-1, "closed_form"), (5, "bogus")):
        with pytest.raises(SeriesUsageError):
            frobenius_table(order, method)


def test_degree_and_parity():
    table = frobenius_table(30)
    a, b = table.a, table.b
    for n in range(1, 31):
        assert a[n].degree == n
        assert b[n].degree == n
        assert a[n].flip_kappa() == (a[n] if n % 2 == 0 else -a[n])
        assert b[n].flip_kappa() == (b[n] if n % 2 == 0 else -b[n])


def test_a_coefficients_positive():
    for n, poly in enumerate(frobenius_table(60).a):
        for m, c in enumerate(poly.coeffs):
            if (n - m) % 2 == 0:
                assert c > 0, f"a_{n} coefficient of kappa^{m}"
            else:
                assert c == 0


# ---------------------------------------------------------------------------
# B(J) and sigma against the Fraction loops
# ---------------------------------------------------------------------------


def _reference_bnf(kappa, order, w):
    # the B(J) recurrence on Fraction or KappaPoly coefficients: the oracle for _bnf's int body
    if order < 1:
        raise SeriesUsageError("need order >= 1")
    zero = kappa * Fraction(0)
    y = [zero, zero + 1]
    y2, y3, c3y = [zero], [zero], [zero]  # y^2, y^3, c3(y)
    mint = [zero, kappa * Fraction(1, 2)]  # M, with M' = c1(y) = kappa/2 + 3 w y
    p, p2, p3, ypp = [], [], [], []  # y', y'^2, y'^3, y''
    for m in range(1, order):
        y2.append(_cauchy(y, y, m, 1))
        y3.append(_cauchy(y2, y, m, 1))
        c3y.append(-y[m] + kappa * 2 * y2[m] + y3[m] * (4 * w))
        mint.append(y[m] * Fraction(3 * w, m + 1))
        p.append(y[m] * m)
        p2.append(_cauchy(p, p, m - 1, 0))
        p3.append(_cauchy(p2, p, m - 1, 0))
        # J^m: -m(m+1) y_{m+1} + sum_{i>=2} c3(y)_i y''_{m-i} = (M y'^3)_m
        known = _cauchy(c3y, ypp, m, 2) - _cauchy(mint, p3, m, 1)
        y.append(known * Fraction(1, m * (m + 1)))
        ypp.append(y[m + 1] * ((m + 1) * m))
    return y


def _reference_sigma_tail(kappa, bnf, order, w):
    # the sigma recurrence on Fraction or KappaPoly coefficients: the oracle for _sigma_tail
    zero = kappa * Fraction(0)
    y = bnf[: order + 1]
    n = order - 1
    p = deriv_list(y)
    a = recip_trunc(p, n)
    k = add_list([c * (4 * w) + kappa * 2 * d for c, d in zip(mul_trunc(y, y, n), y)], [zero - 1])
    ka = mul_trunc(k, a, n)
    c = mul_trunc(y, ka, n)
    d = mul_trunc(add_list([kappa * Fraction(1, 2)], [x * (3 * w) for x in y]), p, n)
    f = add_list([kappa * 2], [u * (8 * w) - v * 2 for u, v in zip(y, deriv_list(ka))])
    g, gp = [zero], []  # G, G'
    for m in range(1, n + 1):
        known = _cauchy(c, gp, m, 2) * m + _cauchy(d, g, m - 1, 0)
        g.append((known - f[m - 1]) * Fraction(1, m * m))
        gp.append(g[m] * m)
    log_unit = log_unit_trunc(y[1:], n)
    return integrate_list([-(u + v) for u, v in zip(log_unit, mul_trunc(g, p, n))])


@pytest.mark.parametrize(
    "kappa",
    [Fraction(0), Fraction(1, 2), Fraction(-5, 4), Fraction(7, 3), Fraction(-4028141964097261, 2251799813685248)],
)
def test_bnf_and_sigma_equal_the_fraction_reference(kappa):
    # through J^60, twice the order of the other checks of the denominator laws,
    # with the reference run at kappa itself, not at p with w = q^2
    for n in (1, 2, 3, 60):
        sequences = _sequences(kappa, n)
        bnf, sigma = sequences["bnf"](), sequences["sigma"]()
        expected = _reference_bnf(kappa, n, 1)
        assert bnf == expected, n
        assert sigma == _reference_sigma_tail(kappa, expected, n, 1), n
        assert all(type(c) is Fraction for c in bnf + sigma), n


def test_symbolic_bnf_and_sigma_equal_the_reference():
    n = 16
    sequences = _sequences(KP_KAPPA, n)
    bnf, sigma = sequences["bnf"](), sequences["sigma"]()
    expected = _reference_bnf(KP_KAPPA, n, 1)
    assert bnf == expected
    assert sigma == _reference_sigma_tail(KP_KAPPA, expected, n, 1)
    assert all(type(c) is KappaPoly for c in bnf + sigma)


@pytest.mark.parametrize("kappa", [Fraction(1, 2), KP_KAPPA])
def test_bnf_and_sigma_need_order_one(kappa):
    for name in ("bnf", "sigma"):
        with pytest.raises(SeriesUsageError, match="order >= 1"):
            _sequences(kappa, 0)[name]()


@pytest.mark.parametrize("kappa", [Fraction(1, 2), KP_KAPPA])
def test_bnf_and_sigma_divisions_are_checked(monkeypatch, kappa):
    # every product coefficient one unit off: the first pivot division is
    # inexact, and the bodies raise instead of rounding
    dot, row_dot = picardfuchs._dot, picardfuchs._row_dot
    monkeypatch.setattr(picardfuchs, "_dot", lambda *terms: dot(*terms) + 1)
    monkeypatch.setattr(picardfuchs, "_row_dot", lambda *terms: row_dot(*terms) + picardfuchs._Row((1,)))
    for name in ("bnf", "sigma"):
        with pytest.raises(InternalConsistencyError):
            _sequences(kappa, 12)[name]()


@pytest.mark.parametrize("kappa", [Fraction(1, 2), KP_KAPPA])
def test_sigma_reads_the_pass_of_bnf(monkeypatch, kappa):
    # sigma takes Y^2 and the binomial table from the one pass of _bnf, after
    # bnf on the same object or alone on a fresh one, and builds neither again
    calls = []
    binomials = picardfuchs._binomials
    monkeypatch.setattr(picardfuchs, "_binomials", lambda n: calls.append(n) or binomials(n))
    sequences = _sequences(kappa, 30)
    sequences["bnf"]()
    sequences["sigma"]()
    assert calls == [30]
    _sequences(kappa, 30)["sigma"]()
    assert calls == [30, 30]


# ---------------------------------------------------------------------------
# action series
# ---------------------------------------------------------------------------


def test_action_series_normalizations():
    bundle = build_action_series(8)
    assert bundle.period_regular.coefficient(0) == KP_ONE
    act = bundle.action_regular
    assert act.coefficient(0) == KP_ZERO
    assert act.coefficient(1) == KP_ONE
    assert act.coefficient(2) == K * Fraction(1, 4)
    assert act.coefficient(3) == (K * K * 3 + 4) * Fraction(1, 16)


def test_singular_log_part_equals_regular_solution():
    bundle = build_action_series(8)
    assert bundle.period_singular.log_part == bundle.period_regular
    assert bundle.action_singular.log_part == bundle.action_regular


def test_singular_action_first_regular_coefficient():
    # (b_0 - a_0) h = -h in the 2 pi scaled channel
    bundle = build_action_series(8)
    assert bundle.action_singular.regular_part.coefficient(1) == -KP_ONE


def test_period_is_derivative_of_action():
    bundle = build_action_series(10)
    assert bundle.action_regular.differentiate() == bundle.period_regular


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "attr,which",
    [
        ("period_regular", "period"),
        ("period_singular", "period"),
        ("action_regular", "action"),
        ("action_singular", "action"),
    ],
)
def test_basis_solutions_satisfy_the_equation(attr, which):
    bundle = build_action_series(14)
    residual = pf_residual(getattr(bundle, attr), which)
    assert residual.cutoff >= 10
    assert residual.is_zero


def test_constant_solves_action_equation():
    const = PowerSeries.from_coeffs("h", (7,)).pad(8)
    assert pf_residual(const, "action").is_zero


@pytest.mark.parametrize(
    "which,log_channel,power_channel,cutoff",
    [
        ("action", {}, {-2: KappaPoly.constant(-2), -1: K, 0: KappaPoly.constant(-2)}, 4),
        ("period", {0: K, 1: KappaPoly.constant(6)}, {0: K * 4, 1: KappaPoly.constant(16)}, 5),
    ],
)
def test_log_h_leaves_pinned_residual(which, log_channel, power_channel, cutoff):
    """log h solves neither equation; both channels and the cutoff are pinned."""
    L = PowerSeries.from_coeffs("h", (1,)).pad(6)
    residual = pf_residual(LogSeries(L, PowerSeries.zero("h", 6)), which)
    assert residual.log_channel == log_channel
    assert residual.power_channel == power_channel
    assert residual.cutoff == cutoff


def test_unknown_equation_rejected():
    with pytest.raises(SeriesUsageError):
        pf_residual(build_action_series(6).period_regular, "poincare")


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_residual_is_linear(k1, k2, k3):
    bundle = build_action_series(10)
    combo = LogSeries(
        bundle.action_regular * k2,
        bundle.action_regular * k1
        + bundle.action_singular.regular_part * k2
        + PowerSeries.from_coeffs("h", (k3,)).pad(bundle.action_regular.order),
    )
    assert pf_residual(combo, "action").is_zero


# ---------------------------------------------------------------------------
# separatrix-side combinations
# ---------------------------------------------------------------------------


def test_beta_action_structure():
    plus, minus = assemble_beta_actions(6)
    assert (plus.k2, minus.k2) == (1, -1)
    assert plus.k1.factor == Fraction(-1, 2)
    assert minus.k1.factor == Fraction(1, 2)
    assert plus.k1.kind == minus.k1.kind
    assert plus.k3.kind != minus.k3.kind
    assert plus.area.factor == minus.area.factor == 2


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: _sequences(KP_KAPPA, 0)["bnf"](), "order >= 1"),
        (lambda: _sequences(KP_KAPPA, -1), "non-negative"),
        (lambda: build_action_series(0), "order >= 1"),
        (lambda: pf_residual(PowerSeries("h", (KP_ZERO, KP_ONE, KP_ZERO, KP_ZERO))), "order >= 4"),
    ],
)
def test_input_checks_raise(call, match):
    with pytest.raises(SeriesUsageError, match=match):
        call()
