"""Order arguments: the checks every order-taking function makes, and the
results kept at the highest order (series._keeps_highest) against results
computed cold."""

from fractions import Fraction

import pytest

from eulertop import invariants, normalform, oracle, picardfuchs, series
from eulertop.invariants import alpha_action, bnf_via_reversion, extract_sigma, radius_analysis
from eulertop.normalform import PreconditionError, birkhoff_normalize, euler_normal_form, expand_hamiltonian
from eulertop.picardfuchs import assemble_beta_actions, build_action_series, frobenius_table
from eulertop.series import (
    InternalConsistencyError,
    PowerSeries,
    SeriesUsageError,
    compose_trunc,
    log_unit_trunc,
    recip_trunc,
    revert_trunc,
)

# each function that keeps its highest result: its floor, the error below the
# floor, and one step of its body, which a kept result answers without
KEEPING = {
    "euler_normal_form": (euler_normal_form, 1, PreconditionError, normalform, "birkhoff_normalize"),
    "bnf_via_reversion": (bnf_via_reversion, 1, SeriesUsageError, invariants, "_sequences"),
    "extract_sigma": (extract_sigma, 2, SeriesUsageError, invariants, "_sequences"),
    "assemble_beta_actions": (assemble_beta_actions, 1, SeriesUsageError, picardfuchs, "build_action_series"),
}


def _broken(*args):
    raise InternalConsistencyError("a broken step")


def _error(fn, order):
    with pytest.raises(Exception) as info:
        fn(order)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("high, low", [(9, None), (9, 5), (10, 9)])  # None: the floor
@pytest.mark.parametrize("name", KEEPING)
def test_a_kept_result_truncates_to_the_cold_one(monkeypatch, name, high, low):
    fn, floor, _, module, step = KEEPING[name]
    low = floor if low is None else low
    cold = fn(low)
    fn.cache_clear()
    fn(high)
    monkeypatch.setattr(module, step, _broken)  # the lower order must not run the body
    warm = fn(low)
    assert warm == cold
    assert repr(warm) == repr(cold)
    if name == "assemble_beta_actions":
        assert warm[0].series is warm[1].series


def test_sigma_reads_the_kept_actions(monkeypatch):
    cold = extract_sigma(6)
    extract_sigma.cache_clear()
    assemble_beta_actions.cache_clear()
    assemble_beta_actions(12)
    monkeypatch.setattr(picardfuchs, "build_action_series", _broken)
    warm = extract_sigma(6)
    assert warm == cold
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("name", KEEPING)
def test_a_refused_order_raises_the_same_error_whatever_is_kept(name):
    fn, floor, error, _, _ = KEEPING[name]
    refused = (floor - 1, -1, True, 8.0)
    cold = [_error(fn, order) for order in refused]
    assert {kind for kind, _ in cold} == {error}
    fn(floor + 3)
    assert [_error(fn, order) for order in refused] == cold


@pytest.mark.parametrize("name", KEEPING)
def test_a_call_that_raises_keeps_nothing(monkeypatch, name):
    fn, floor, _, module, step = KEEPING[name]
    monkeypatch.setattr(module, step, _broken)
    for order in (floor + 3, floor):  # the lower order is not answered by the failed higher one
        with pytest.raises(InternalConsistencyError, match="a broken step"):
            fn(order)


@pytest.mark.parametrize("order", [True, 8.0])
@pytest.mark.parametrize(
    "fn, error",
    [
        (euler_normal_form, PreconditionError),
        (bnf_via_reversion, SeriesUsageError),
        (extract_sigma, SeriesUsageError),
        (assemble_beta_actions, SeriesUsageError),
        (frobenius_table, SeriesUsageError),
        (build_action_series, SeriesUsageError),
        (alpha_action, SeriesUsageError),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_an_order_that_is_not_an_int_is_refused(fn, error, order):
    fn(3)  # a kept result at order 3 must not answer True as order 1
    with pytest.raises(error, match="order must be an int"):
        fn(order)


def test_alpha_action_names_its_own_floor():
    assert alpha_action(1).order == 1
    with pytest.raises(SeriesUsageError, match=r"need order >= 1"):
        alpha_action(0)


HALF = Fraction(1, 2)
UNIT, INNER = [Fraction(1), HALF, Fraction(1, 3)], [Fraction(0), Fraction(1), HALF]
HAM = normalform.williamson_reduce(expand_hamiltonian(4, 2))
PLUS = assemble_beta_actions(3)[0]
SERIES = PowerSeries("h", [1, 2, 3])
TOP = oracle.params_from_inertia(1.0, 2.0, 3.0, 1.0)
INT_RING = (1, lambda x: x, lambda x: 4 * x, picardfuchs._dot, picardfuchs._exact)  # kappa = 1/2

# every function that takes an order or a dps, with the name and the floor of
# that argument, its error, and one step of its body that a refusal must precede
SIZED = {
    "recip_trunc": (lambda n: recip_trunc(UNIT, n), "order", 0, SeriesUsageError, series, "_cauchy"),
    "log_unit_trunc": (lambda n: log_unit_trunc(UNIT, n), "order", 0, SeriesUsageError, series, "recip_trunc"),
    "compose_trunc": (lambda n: compose_trunc(UNIT, INNER, n), "order", 0, SeriesUsageError, series, "mul_trunc"),
    "revert_trunc": (lambda n: revert_trunc(INNER, n), "order", 1, SeriesUsageError, series, "recip_trunc"),
    "PowerSeries.identity": (
        lambda n: PowerSeries.identity("h", n), "order", 1, SeriesUsageError, series, "PowerSeries"
    ),
    "PowerSeries.zero": (lambda n: PowerSeries.zero("h", n), "order", 0, SeriesUsageError, series, "PowerSeries"),
    "PowerSeries.truncate": (lambda n: SERIES.truncate(n), "order", 0, SeriesUsageError, series, "PowerSeries"),
    "PowerSeries.pad": (lambda n: SERIES.pad(n), "order", 0, SeriesUsageError, series, "PowerSeries"),
    "LogSeries.truncate": (
        lambda n: PLUS.series.action_singular.truncate(n), "order", 0, SeriesUsageError, series, "PowerSeries"
    ),
    "frobenius_a_at": (
        lambda n: picardfuchs.frobenius_a_at(HALF, n), "order", 0, SeriesUsageError, picardfuchs, "_a_rows"
    ),
    "frobenius_b_at": (
        lambda n: picardfuchs.frobenius_b_at(HALF, n), "order", 0, SeriesUsageError, picardfuchs, "_b_rows"
    ),
    "_bnf": (lambda n: picardfuchs._bnf(INT_RING, n), "order", 1, SeriesUsageError, picardfuchs, "_binomials"),
    "birkhoff_normalize": (
        lambda n: birkhoff_normalize(HAM, n), "order", 1, PreconditionError, normalform, "_lie_transform"
    ),
    "expand_hamiltonian": (
        lambda n: expand_hamiltonian(n, 2), "max_degree", 2, PreconditionError, normalform, "PolyHamiltonian"
    ),
    "radius_analysis": (
        lambda n: radius_analysis(HALF, n, ("a",)), "nmax", 20, SeriesUsageError, invariants, "rho_for_kappa"
    ),
    "action_quadrature": (
        lambda d: oracle.action_quadrature(HALF, 0.01, dps=d), "dps", 1, ValueError, oracle, "_integral"
    ),
    "period_quadrature": (
        lambda d: oracle.period_quadrature(HALF, 0.01, dps=d), "dps", 1, ValueError, oracle, "_integral"
    ),
    "action_unscaled_quadrature": (
        lambda d: oracle.action_unscaled_quadrature(TOP, 0.3, dps=d), "dps", 1, ValueError, oracle, "_quad_cut"
    ),
    "separatrix_action": (
        lambda d: oracle.separatrix_action(HALF, "plus", d), "dps", 1, ValueError, oracle, "rho_for_kappa"
    ),
    "constant_value": (
        lambda d: oracle.constant_value(PLUS.k3, HALF, d), "dps", 1, ValueError, oracle, "rho_for_kappa"
    ),
    "beta_action_value": (
        lambda d: oracle.beta_action_value(PLUS, HALF, 0.01, d), "dps", 1, ValueError, oracle, "_action_coefficients"
    ),
    "verify_series_numerics": (
        lambda d: oracle.verify_series_numerics(HALF, [0.01], order=5, dps=d), "dps", 1, ValueError, oracle,
        "assemble_beta_actions",
    ),
}


@pytest.mark.parametrize("value", [True, 8.0, "floor - 1"])
@pytest.mark.parametrize("name", SIZED)
def test_an_order_or_dps_is_refused_before_any_work(monkeypatch, name, value):
    """series._check_order is the one rule: a bool or a float is refused
    ("<argument> must be an int", so "order must be an int" for every order)
    and so is a value below the floor, with the function's own error, before
    its body runs."""
    call, argument, floor, error, module, step = SIZED[name]
    monkeypatch.setattr(module, step, _broken)
    with pytest.raises(error) as info:
        call(floor - 1 if value == "floor - 1" else value)
    if value != "floor - 1":
        assert f"{argument} must be an int" in str(info.value)
