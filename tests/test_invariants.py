import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp

from eulertop import invariants, picardfuchs
from eulertop.invariants import (
    MARGIN_FLOOR,
    PENDULUM_LEADING,
    alpha_action,
    bnf_via_reversion,
    extract_sigma,
    log64_ratio_log2_exact,
    pendulum_compare,
    radius_analysis,
)
from eulertop.normalform import euler_normal_form
from eulertop.oracle import constant_value, rho_for_kappa
from eulertop.picardfuchs import (
    LOG64_RATIO,
    _sequences,
    build_action_series,
    frobenius_a_at,
    frobenius_b_at,
    frobenius_table,
)
from eulertop.series import (
    InternalConsistencyError,
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    compose_trunc,
    integrate_list,
    log_unit_trunc,
    revert_trunc,
)

from expected_tables import A_TABLE, B_TABLE, BNF_TABLE, SIGMA_TABLE
from test_picardfuchs import _reference_bnf, _reference_sigma_tail

K = KappaPoly.of(0, 1)


def test_alpha_action_head():
    alpha = alpha_action(3)
    assert alpha.coefficient(1) == KappaPoly.constant(1)
    assert alpha.coefficient(2) == K * Fraction(1, 4)
    assert alpha.coefficient(3) == (K * K * 3 + 4) * Fraction(1, 16)
    assert alpha_action(9) == build_action_series(8).action_regular


def test_reversion_equals_lie_normal_form():
    # order 12 checks the Lie route's degree bound in kappa through J^12
    for order in (7, 12):
        assert bnf_via_reversion(order) == euler_normal_form(order), order


def test_reversion_fifth_coefficient():
    series = bnf_via_reversion(5)
    assert series.coefficient(5) == BNF_TABLE[5]


def test_reversion_even_coefficients_vanish_at_symmetric_top():
    series = bnf_via_reversion(7)
    assert series.coefficient(6)(Fraction(0)) == 0


def test_alpha_composed_with_normal_form_is_identity():
    from eulertop.series import PowerSeries

    alpha = alpha_action(7)
    assert alpha.compose(bnf_via_reversion(7)) == PowerSeries.identity("J", 7)


def test_singular_action_log_channel_composes_to_identity():
    from eulertop.series import PowerSeries

    composed = build_action_series(8).action_singular.compose_with_log(
        bnf_via_reversion(8)
    )
    assert composed.log_part == PowerSeries.identity("J", 7)


@given(st.builds(Fraction, st.integers(-24, 24), st.integers(1, 9)))
@example(Fraction(-4028141964097261, 2251799813685248))  # kappa of a float inertia triple
def test_recurrences_match_reversion_and_composition(kappa):
    """B(J) and the sigma tail from the recurrences, through J^20, against
    Lagrange reversion of alpha and the composition form of the tail,
    -J - J log(B/J) - Q(B) with 2 pi I_s = alpha log h + Q."""
    n, zero = 20, Fraction(0)
    sequences = _sequences(kappa, n)
    a, b = frobenius_a_at(kappa, n - 1), frobenius_b_at(kappa, n - 1)
    bnf = revert_trunc(integrate_list(a), n)
    assert sequences["bnf"]() == bnf
    q = integrate_list([b[k] - a[k] / (k + 1) for k in range(n)])
    j_log_unit = [zero] + log_unit_trunc(bnf[1:], n - 1)
    tail = [-(x + y) for x, y in zip(j_log_unit, compose_trunc(q, bnf, n))]
    tail[1] -= 1
    assert sequences["sigma"]() == tail


@given(st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40)))
@example(Fraction(-4028141964097261, 2251799813685248))  # kappa of a float inertia triple
def test_scaled_recurrences_back_substitute_to_the_unscaled(kappa):
    """At kappa = p/q the integer a and b rows give the symbolic tables at
    kappa, and the bnf and sigma recurrences, run over p with weight q^2 and
    emitted over q^(n-1), give the Fraction recurrences run at kappa with
    weight 1, through n = 30."""
    n = 30
    sequences, table = _sequences(kappa, n), frobenius_table(n)
    assert sequences["a"]() == [c(kappa) for c in table.a]
    assert sequences["b"]() == [c(kappa) for c in table.b]
    y = _reference_bnf(kappa, n, 1)
    assert sequences["bnf"]() == y
    assert sequences["sigma"]() == _reference_sigma_tail(kappa, y, n, 1)


def test_symbolic_route_gives_the_expected_tables():
    """The symbolic route (kappa = KP_KAPPA, weight 1) against the frozen tables."""
    table = frobenius_table(40)
    for n, expected in A_TABLE.items():
        assert table.a[n] == expected, n
    for n, expected in B_TABLE.items():
        assert table.b[n] == expected, n
    bnf = bnf_via_reversion(12)
    sigma = extract_sigma(9).tail
    for n, expected in BNF_TABLE.items():
        assert bnf.coefficient(n) == expected, n
    for n, expected in SIGMA_TABLE.items():
        assert sigma.coefficient(n) == expected, n


def test_radius_builds_bnf_once(monkeypatch):
    calls = []
    original = picardfuchs._bnf
    monkeypatch.setattr(picardfuchs, "_bnf", lambda *args: calls.append(args) or original(*args))
    radius_analysis(Fraction(1, 2), 20, ("bnf", "sigma"))
    assert len(calls) == 1
    radius_analysis(Fraction(1, 2), 20, ("sigma",))
    assert len(calls) == 2  # B(J) is not kept between calls


def test_radius_checks_every_target_before_any_table(monkeypatch):
    calls = []
    original = picardfuchs._bnf
    monkeypatch.setattr(picardfuchs, "_bnf", lambda *args: calls.append(args) or original(*args))
    with pytest.raises(SeriesUsageError, match="'foo'"):
        radius_analysis(Fraction(1, 2), 20, ("bnf", "foo"))
    # a repeat would build its table again, past the CLI's cost ceiling
    for targets, name in ((("a", "a"), "'a'"), (("bnf", "sigma", "bnf"), "'bnf'")):
        with pytest.raises(SeriesUsageError, match=f"repeated sequence {name}"):
            radius_analysis(Fraction(1, 2), 20, targets)
    assert calls == []


@pytest.mark.parametrize("name,shown", [(1, "1"), (None, "None")], ids=["int", "None"])
def test_radius_refuses_a_target_that_is_not_a_string_before_any_table(monkeypatch, name, shown):
    monkeypatch.setattr(picardfuchs, "_a_rows", lambda *args: pytest.fail("a table was built"))
    with pytest.raises(SeriesUsageError, match=f"^unknown sequence {shown}$"):
        radius_analysis(Fraction(1, 2), 20, ("a", name))


def test_radius_names_a_huge_target_by_its_type(monkeypatch):
    # the repr of an int past 4300 digits raises ValueError
    monkeypatch.setattr(picardfuchs, "_a_rows", lambda *args: pytest.fail("a table was built"))
    with pytest.raises(SeriesUsageError, match="^unknown sequence of type int$"):
        radius_analysis(Fraction(1, 2), 20, (10**5000,))


# ---------------------------------------------------------------------------
# the invariant
# ---------------------------------------------------------------------------


def test_sigma_matches_table():
    report = extract_sigma(7)
    for n, expected in SIGMA_TABLE.items():
        assert report.tail.coefficient(n) == expected, f"J^{n}"


def test_sigma_linear_channel():
    report = extract_sigma(3)
    assert report.linear_log.kind == LOG64_RATIO
    assert report.linear_log.factor == Fraction(1, 2)
    assert not report.tail.coefficient(0)
    assert not report.tail.coefficient(1)


def test_sigma_branches_agree():
    assert extract_sigma(7).branch_consistent


def test_sigma_order_precondition():
    with pytest.raises(SeriesUsageError):
        extract_sigma(1)


EPS = Fraction(1, 10**40)


def _perturb_sequence(monkeypatch, name, index):
    """Move coefficient `index` of the `name` recurrence that extract_sigma reads by EPS."""
    original = invariants._sequences

    def sequences(kappa, n):
        out = original(kappa, n)
        thunk = out[name]

        def perturbed():
            values = list(thunk())
            values[index] += EPS
            return values

        return {**out, name: perturbed}

    monkeypatch.setattr(invariants, "_sequences", sequences)


@pytest.mark.parametrize(
    "name,message",
    [
        ("bnf", "regular action did not invert to J"),
        ("sigma", "composition and recurrence produced different invariants"),
    ],
)
def test_sigma_cross_checks_catch_a_perturbed_route(monkeypatch, name, message):
    _perturb_sequence(monkeypatch, name, 2)
    with pytest.raises(InternalConsistencyError, match=message):
        extract_sigma(4)


@pytest.mark.parametrize("name", ["bnf", "sigma"])
def test_a_perturbed_sigma_keeps_nothing(monkeypatch, name):
    _perturb_sequence(monkeypatch, name, 2)
    for order in (6, 4):  # the failed order 6 left nothing to answer order 4
        with pytest.raises(InternalConsistencyError):
            extract_sigma(order)


def test_sigma_leak_check_catches_a_linear_term_both_routes_share(monkeypatch):
    # the recurrence's tail and the composed regular part moved alike at J^1,
    # so the two routes still agree: only the leak check can see it
    _perturb_sequence(monkeypatch, "sigma", 1)
    original = LogSeries.compose_with_log

    def compose_with_log(self, inner):
        out = original(self, inner)
        regular = list(out.regular_part.coeffs)
        regular[1] -= EPS  # the tail is -(J + regular part)
        return LogSeries(out.log_part, PowerSeries(out.var, tuple(regular)))

    monkeypatch.setattr(LogSeries, "compose_with_log", compose_with_log)
    with pytest.raises(InternalConsistencyError, match=r"leaked into J\^0 or J\^1"):
        extract_sigma(4)


def test_sigma_parity():
    tail = extract_sigma(7).tail
    assert tail.flip_kappa() == -tail.reflect()


@pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
def test_sigma_tail_negative_for_positive_kappa(kappa):
    tail = extract_sigma(7).tail
    for n in range(2, 8):
        assert tail.coefficient(n)(kappa) < 0


def test_areas_sum_to_pi():
    report = extract_sigma(2)
    rng = random.Random(20260810)
    with mp.workdps(30):
        for _ in range(20):
            rho = rng.uniform(0.1, 10.0)
            kappa = rho - 1.0 / rho
            total = constant_value(report.area_plus, kappa, 30) + constant_value(
                report.area_minus, kappa, 30
            )
            assert abs(total - mp.pi) < mp.mpf("1e-12")


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------


def test_a_sequence_ratio_approaches_known_radius():
    report = radius_analysis(Fraction(1, 2), 60, targets=("a",))[0]
    assert abs(report.extrapolated - report.theoretical) < 5e-3
    assert not report.skipped
    assert all(r > 0 and math.isfinite(r) for r in report.ratios)


_BIG = st.integers(-2**400, 2**400)


def _pairs(draws, chained):
    """(x k, s k) pairs, a common factor k in both; chained makes each scale
    divide the next, as the scales of a, b and bnf do."""
    out, run = [], 1
    for x, s, k in draws:
        run = (run if chained else 1) * s * k
        out.append((x * k, run))
    return out


_DRAW = st.tuples(st.one_of(st.just(0), _BIG), st.integers(1, 2**400), st.integers(1, 2**64))


@given(st.builds(_pairs, st.lists(_DRAW, max_size=12), st.booleans()))
@example([(3 * 5, 7 * 5), (0, 9), (-2**300 + 1, 3**180), (5 * 3, 2**1000 * 3)])
@example([(6, 8), (0, 64), (-10 * 2**200, 2**200 * 512), (2**70, 4096 * 2**70)])
def test_ratio_estimates_round_as_the_fraction_quotient(pairs):
    ns, ratios, _ = invariants._ratio_estimates(pairs)
    coeffs = [Fraction(x, s) for x, s in pairs]
    nonzero = [n for n, c in enumerate(coeffs) if c]
    assert ns == tuple(nonzero[:-1])
    assert ratios == tuple(
        float(abs(Fraction(coeffs[n1], 1) / coeffs[n2])) ** (1.0 / (n2 - n1))
        for n1, n2 in zip(nonzero, nonzero[1:])
    )


KAPPA_52 = Fraction(-4028141964097261, 2251799813685248)  # of --theta=1,2,2.5 --ell=1


def _reference_radius(kappa, nmax, name):
    """ns, ratios, extrapolated and skipped of one report, by the Fraction
    quotients of the emitted values: the reference for the pairs' ratios."""
    coeffs = _sequences(kappa, nmax)[name]()

    def root_ratio(c1, c2, gap):
        return (abs(c1.numerator * c2.denominator) / abs(c1.denominator * c2.numerator)) ** (1.0 / gap)

    nonzero = [n for n, c in enumerate(coeffs) if c]
    ns = tuple(nonzero[:-1])
    ratios = tuple(root_ratio(coeffs[i], coeffs[j], j - i) for i, j in zip(nonzero, nonzero[1:]))
    skipped = tuple(n for n in range(nonzero[0], nonzero[-1] + 1) if not coeffs[n])
    steps = [n for n in range(len(coeffs) - 2) if coeffs[n] and coeffs[n + 2]]
    x = [root_ratio(coeffs[n], coeffs[n + 2], 2) for n in steps[-3:]]
    d2 = x[2] - 2 * x[1] + x[0]
    extrapolated = x[0] - (x[1] - x[0]) ** 2 / d2 if d2 else x[-1]
    return ns, ratios, extrapolated, skipped


@pytest.mark.parametrize(
    "kappa,nmax_ab,nmax_bs",
    [
        (Fraction(0), 400, 60),
        (Fraction(1, 2), 400, 60),
        (Fraction(-5, 4), 400, 60),
        (Fraction(7, 3), 400, 60),
        (Fraction(1, 1000), 400, 60),
        (KAPPA_52, 400, 60),
        (Fraction(2**300 + 1, 2**300 - 3), 100, 30),
    ],
)
def test_radius_reads_the_pairs_as_the_fraction_quotients(kappa, nmax_ab, nmax_bs):
    for targets, nmax in ((("a", "b"), nmax_ab), (("bnf", "sigma"), nmax_bs)):
        for report in radius_analysis(kappa, nmax, targets):
            expected = _reference_radius(kappa, nmax, report.name)
            assert (report.ns, report.ratios, report.extrapolated, report.skipped) == expected, report.name


def test_radius_reduces_no_value(monkeypatch):
    # Fraction reduces every value it builds by math.gcd; the ratios need none
    gcd, calls = math.gcd, []
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
    reports = radius_analysis(KAPPA_52, 60)
    assert [r.name for r in reports] == ["a", "b", "bnf", "sigma"]
    assert not calls


def _empty_tables(monkeypatch):
    monkeypatch.setattr(picardfuchs, "_KEPT", {name: [] for name in picardfuchs._KEPT})


def test_radius_reduces_no_value_from_empty_tables(monkeypatch):
    # building the kept tables (the lcm steps by exact division) runs no gcd either
    _empty_tables(monkeypatch)
    test_radius_reduces_no_value(monkeypatch)
    assert picardfuchs._KEPT["lcm_step"] and picardfuchs._KEPT["sigma"]


@pytest.mark.parametrize("kappa", [Fraction(1, 2), KAPPA_52], ids=str)
def test_radius_reports_do_not_depend_on_the_kept_tables(monkeypatch, kappa):
    kept = radius_analysis(kappa, 60)
    _empty_tables(monkeypatch)
    assert radius_analysis(kappa, 60) == kept
    radius_analysis(kappa, 100, ("sigma",))
    assert radius_analysis(kappa, 60) == kept


def test_no_weight_row_above_the_bound_is_kept(monkeypatch):
    _empty_tables(monkeypatch)
    radius_analysis(Fraction(1, 2), 100, ("sigma",))
    bound = picardfuchs._KEPT_STEPS
    assert [len(picardfuchs._KEPT[name]) for name in ("bnf", "sigma")] == [bound + 1] * 2
    assert len(picardfuchs._KEPT["pascal"]) == bound + 2  # Pascal's rows are kept through step bound + 1


def test_no_pascal_row_above_the_bound_is_kept(monkeypatch):
    # the rows above step _KEPT_STEPS + 1 are built per call, as the weight
    # rows above _KEPT_STEPS are, and the report is that of a process that
    # keeps every row
    _empty_tables(monkeypatch)
    report = radius_analysis(Fraction(1, 2), 100, ("sigma",))
    assert len(picardfuchs._KEPT["pascal"]) <= 66
    _empty_tables(monkeypatch)
    monkeypatch.setattr(picardfuchs, "_KEPT_STEPS", 100)
    assert radius_analysis(Fraction(1, 2), 100, ("sigma",)) == report
    assert len(picardfuchs._KEPT["pascal"]) == 101


def test_symmetric_top_skips_odd_coefficients():
    report = radius_analysis(Fraction(0), 40, targets=("a",))[0]
    assert report.skipped  # odd coefficients vanish at kappa = 0
    assert report.theoretical == 0.5
    assert abs(report.extrapolated - 0.5) < 2e-2


@pytest.mark.parametrize("kappa", [Fraction(1, 100), Fraction(-1, 100), Fraction(1, 1000)])
def test_radius_holds_near_the_symmetric_top(kappa):
    # the one-step ratios alternate here, between about 17.7 and 0.0146 at kappa = 1/1000
    report = radius_analysis(kappa, 60, targets=("a",))[0]
    assert abs(report.extrapolated - report.theoretical) < 2e-2


@pytest.mark.parametrize("nmax", [-1, 0, 19])
def test_radius_checks_nmax_before_any_table(nmax):
    with pytest.raises(SeriesUsageError, match=r"^need nmax >= 20 for a stable estimate$"):
        radius_analysis(Fraction(1, 2), nmax, ("a",))


def test_radius_rejects_small_nmax():
    with pytest.raises(SeriesUsageError):
        radius_analysis(Fraction(1, 2), 10)
    # a float kappa would run silently at its binary value, 0.1 as 3602879701812573/2^55
    with pytest.raises(SeriesUsageError):
        radius_analysis(0.1, 20)
    with pytest.raises(SeriesUsageError):
        frobenius_a_at(0.1, 20)
    # a bool is not taken as the int 0 or 1
    with pytest.raises(SeriesUsageError):
        radius_analysis(True, 20, ("a",))
    with pytest.raises(SeriesUsageError):
        frobenius_a_at(True, 3)
    with pytest.raises(TypeError):
        KappaPoly.of(1, 1)(True)
    # a bare string would be split into one-letter names
    for targets in ("bnf", "ab"):
        with pytest.raises(SeriesUsageError, match="sequence of names"):
            radius_analysis(Fraction(1, 2), 20, targets)
    # ratio estimates near 4/|kappa| overflow a float below |kappa| = 2^-1000
    with pytest.raises(SeriesUsageError, match="too small"):
        radius_analysis(Fraction(-1, 2**1001), 20, ("a",))
    assert radius_analysis(Fraction(1, 10**300), 20, ("a",))[0].ratios


def test_bnf_and_sigma_radii_exceed_action_radius():
    reports = {r.name: r for r in radius_analysis(Fraction(1, 2), 32, targets=("a", "bnf", "sigma"))}
    a_known = reports["a"].theoretical
    assert reports["bnf"].extrapolated > 1.1 * a_known
    assert reports["sigma"].extrapolated > 1.1 * a_known


def test_rho_from_kappa_inverts():
    for kappa in (-2.0, -0.5, 0.0, 0.7, 3.0):
        rho = rho_for_kappa(kappa)
        assert rho > 0
        assert abs((rho - 1 / rho) - kappa) < 1e-12


# ---------------------------------------------------------------------------
# pendulum comparison
# ---------------------------------------------------------------------------


def test_pendulum_margin_at_symmetric_top():
    row = pendulum_compare([0.0])[0]
    assert abs(row.euler_leading - math.log(4.0)) < 1e-15
    assert abs(row.margin - math.log(8.0)) < 1e-15


def test_pendulum_margin_at_kappa_two():
    row = pendulum_compare([2.0])[0]
    assert abs(row.euler_leading - 1.5 * math.log(2.0)) < 1e-15
    assert abs(row.margin - 3.5 * math.log(2.0)) < 1e-15


def test_pendulum_margin_positive_everywhere():
    grid = [-5.0 + i * 0.1 for i in range(101)]
    for row in pendulum_compare(grid):
        assert row.margin >= MARGIN_FLOOR - 1e-12
    assert PENDULUM_LEADING > max(r.euler_leading for r in pendulum_compare(grid))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_pendulum_refuses_a_non_finite_kappa_before_any_row(monkeypatch, value):
    monkeypatch.setattr(invariants, "log64_ratio", lambda kappa: pytest.fail("a row was built"))
    with pytest.raises(SeriesUsageError, match=f"^kappa must be finite, got {value}$"):
        pendulum_compare([0.0, value])


@pytest.mark.parametrize(
    "value,message",
    [
        (Fraction(10**400), "a 1329-bit Fraction"),
        (10**400, "a 1329-bit int"),
        (-(10**400), "a 1329-bit int"),
        (10**5000, "a 16610-bit int"),  # str() refuses an int this long
        (True, "a number, got a bool"),
        ("1", "a number, got a str"),
    ],
    ids=["Fraction", "int", "negative int", "long int", "bool", "str"],
)
def test_pendulum_refuses_an_exact_kappa_past_a_float_before_any_row(monkeypatch, value, message):
    monkeypatch.setattr(invariants, "log64_ratio", lambda kappa: pytest.fail("a row was built"))
    with pytest.raises(SeriesUsageError, match=message):
        pendulum_compare([0.0, value])


def test_pendulum_margin_at_the_largest_floats():
    # kappa^2 overflows a float, the margin does not
    for kappa in (1e308, -1e308):
        row = pendulum_compare([kappa])[0]
        assert abs(row.margin - 710.582503003286) < 1e-9


def test_symmetric_top_leading_term_is_exactly_log4():
    # 64/(0+4) = 16 = 2^4, so the linear term is exactly 2 log 2 = log 4
    assert log64_ratio_log2_exact(Fraction(0)) == Fraction(2)
    assert log64_ratio_log2_exact(Fraction(1, 2)) is None


@pytest.mark.parametrize("kappa", [0.0, 2.0, True])
def test_log2_exact_refuses_a_float_or_bool_kappa(kappa):
    # unchecked, 0.0 would give 2, 2.0 would give 3/2 and True would run at kappa = 1
    with pytest.raises(SeriesUsageError, match="int or a Fraction"):
        log64_ratio_log2_exact(kappa)
    assert log64_ratio_log2_exact(int(kappa)) == log64_ratio_log2_exact(Fraction(int(kappa)))
