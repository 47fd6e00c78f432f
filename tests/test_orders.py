"""Order arguments: the checks every order-taking function makes, and the
results kept at the highest order (series._keeps_highest) against results
computed cold."""

import pytest

from eulertop import invariants, normalform, picardfuchs
from eulertop.invariants import alpha_action, bnf_via_reversion, extract_sigma
from eulertop.normalform import PreconditionError, euler_normal_form
from eulertop.picardfuchs import assemble_beta_actions, build_action_series, frobenius_table
from eulertop.series import InternalConsistencyError, SeriesUsageError

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
