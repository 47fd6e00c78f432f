"""The value types: frozen, picklable records and operator types."""

import pickle
from fractions import Fraction

import pytest

from eulertop import invariants, normalform, oracle, picardfuchs
from eulertop.series import KappaPoly, LogSeries, PowerSeries

SERIES = PowerSeries("h", (1, KappaPoly.of(0, Fraction(1, 2))))


def _values():
    """One value of each type, by its name; the first six are the operator types."""
    table = picardfuchs.frobenius_table(5)
    plus, _ = picardfuchs.assemble_beta_actions(2)
    row = oracle.VerifyRow(0.01, "plus", Fraction(1, 3), Fraction(1, 3), 0.0, 1e-40, 120)
    return {
        "KappaPoly": KappaPoly.of(Fraction(-1, 4), 0, 3),
        "PowerSeries": SERIES,
        "LogSeries": LogSeries(SERIES, -SERIES),
        "SymbolicConstant": picardfuchs.SymbolicConstant(picardfuchs.ATAN_RHO, Fraction(2)),
        "FrobeniusTable": table,
        "PolyHamiltonian": normalform.expand_hamiltonian(4, Fraction(3, 2)),
        "TopParams": oracle.params_from_inertia(1.0, 2.0, 3.0, 1.0),
        "QuadratureResult": oracle.QuadratureResult(Fraction(1, 3), 1e-50, 21, 3, True),
        "VerifyRow": row,
        "VerifyReport": oracle.VerifyReport(0.5, 10, (row,), 0.0, 1e-30, 1e-31, 1e-9),
        "InvariantReport": invariants.extract_sigma(3),
        "RadiusReport": invariants.radius_analysis(Fraction(1, 2), 20, ("a",))[0],
        "PendulumRow": invariants.pendulum_compare([0.5])[0],
        "PFCoefficients": picardfuchs.derive_pf_coefficients(),
        "ActionSeries": plus.series,
        "BetaAction": plus,
        "PFResidual": picardfuchs.pf_residual(PowerSeries("h", table.a), "period"),
    }


VALUES = _values()
OPERATOR_TYPES = list(VALUES)[:6]


def _fields(value) -> tuple[str, ...]:
    cls = type(value)
    return cls._fields if isinstance(value, tuple) else cls.__slots__


@pytest.mark.parametrize("name", VALUES)
def test_value_is_frozen_and_pickles_to_an_equal_value(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    fields = _fields(value)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(value, fields[-1])
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == repr(value)
    assert repr(value).startswith(f"{name}(")
    if name in OPERATOR_TYPES:
        # not a tuple: equal only to its own class, so 2 * series cannot repeat one
        as_tuple = tuple(getattr(value, f) for f in fields)
        assert not isinstance(value, tuple) and value != as_tuple and as_tuple != value
        assert hash(copy) == hash(value) == hash(as_tuple)


def test_operator_types_keep_their_arithmetic():
    assert 2 * SERIES == PowerSeries("h", (2, KappaPoly.of(0, 1)))
    assert SERIES * 2 == 2 * SERIES and 2 * KappaPoly.of(1) == KappaPoly.of(2)
    assert -picardfuchs.SymbolicConstant("x") == picardfuchs.SymbolicConstant("x", Fraction(-1))
    assert picardfuchs.SymbolicConstant("x") != picardfuchs.SymbolicConstant("y")
