from fractions import Fraction
from math import comb

import pytest

from eulertop.normalform import (
    PolyHamiltonian,
    PreconditionError,
    birkhoff_normalize,
    euler_normal_form,
    expand_hamiltonian,
    williamson_reduce,
)
from eulertop import normalform
from eulertop.series import InternalConsistencyError

from expected_tables import BNF_TABLE

# each test runs at every rho here: one above 1, one below, neither an
# interpolation node of euler_normal_form
RHOS = (Fraction(2), Fraction(3, 5))


def test_expand_quadratic_part():
    for rho in RHOS:
        ham = expand_hamiltonian(2, rho)
        assert ham.terms == {(2, 0): 1 / (2 * rho), (0, 2): -rho / 2}


def test_expand_quartic_coefficient():
    for rho in RHOS:
        ham = expand_hamiltonian(6, rho)
        assert ham.coefficient(4, 0) == -1 / (6 * rho)


def test_expand_is_even_in_each_variable():
    for rho in RHOS:
        ham = expand_hamiltonian(10, rho)
        assert not ham.coefficient(1, 1)
        assert all(a % 2 == 0 and b % 2 == 0 for a, b in ham.terms)


@pytest.mark.parametrize("bad", [0, 3, 7])
def test_expand_rejects_bad_degree(bad):
    with pytest.raises(PreconditionError):
        expand_hamiltonian(bad, RHOS[0])


@pytest.mark.parametrize("bad", [0, -2, 0.5, "2"])
def test_expand_rejects_bad_rho(bad):
    with pytest.raises(PreconditionError):
        expand_hamiltonian(4, bad)
    with pytest.raises(PreconditionError):
        PolyHamiltonian({(1, 1): Fraction(1)}, 2, bad)


def test_williamson_quadratic_is_qp():
    for rho in RHOS:
        out = williamson_reduce(expand_hamiltonian(4, rho))
        assert out.quadratic_part() == {(1, 1): 1}


def _expected_quartic(rho):
    # -(1/(8 rho)) (q^2 - p^2)^2 - (rho/24) (q + p)^4
    terms = {}

    def add(key, value):
        terms[key] = terms.get(key, 0) + value

    for (a, b), c in {(4, 0): 1, (2, 2): -2, (0, 4): 1}.items():
        add((a, b), -c / (8 * rho))
    for i in range(5):
        add((i, 4 - i), -comb(4, i) * rho / 24)
    return {k: v for k, v in terms.items() if v}


def test_williamson_quartic_matches_expected_form():
    for rho in RHOS:
        out = williamson_reduce(expand_hamiltonian(4, rho))
        quartic = {k: v for k, v in out.terms.items() if k[0] + k[1] == 4}
        assert quartic == _expected_quartic(rho)


def test_williamson_rejects_wrong_quadratic():
    for rho in RHOS:
        bad = PolyHamiltonian({(2, 0): Fraction(1), (0, 2): Fraction(-1)}, 2, rho)
        with pytest.raises(PreconditionError):
            williamson_reduce(bad)


def test_monomial_parity_through_degree_14():
    for rho in RHOS:
        out = williamson_reduce(expand_hamiltonian(14, rho))
        assert all((a - b) % 2 == 0 for a, b in out.terms)


def test_normal_form_matches_table():
    series = euler_normal_form(7)
    assert not series.coefficient(0)
    assert series.coefficient(1).coefficient(0) == 1
    for n, expected in BNF_TABLE.items():
        assert series.coefficient(n) == expected, f"J^{n}"


def test_values_at_rho_match_kappa_table():
    table = euler_normal_form(7)
    for rho in RHOS:
        values = birkhoff_normalize(williamson_reduce(expand_hamiltonian(14, rho)), 7)
        assert values == tuple(c(rho - 1 / rho) for c in table.coeffs)


def test_normalize_rejects_bad_input():
    ham = williamson_reduce(expand_hamiltonian(10, RHOS[0]))
    with pytest.raises(PreconditionError, match="order"):
        birkhoff_normalize(ham, 0)
    with pytest.raises(PreconditionError, match="q\\*p"):
        birkhoff_normalize(expand_hamiltonian(10, RHOS[0]), 5)
    with pytest.raises(PreconditionError, match="degree 12"):
        birkhoff_normalize(ham, 6)


def test_normalize_checks_that_every_step_cleared_its_degree(monkeypatch):
    # a Lie transform that leaves its input unchanged clears nothing, so the
    # non-resonant monomials reach the final check
    monkeypatch.setattr(normalform, "_lie_transform", lambda terms, generator, max_degree: terms)
    ham = williamson_reduce(expand_hamiltonian(10, RHOS[0]))
    with pytest.raises(InternalConsistencyError, match="survived"):
        birkhoff_normalize(ham, 5)


def test_normal_form_kappa_parity():
    series = euler_normal_form(7)
    assert series.flip_kappa() == -series.reflect()
