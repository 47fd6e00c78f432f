import pickle
from fractions import Fraction
from math import comb, factorial

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
from eulertop.invariants import bnf_via_reversion
from eulertop.series import InternalConsistencyError

from expected_tables import BNF_TABLE

# each test runs at every rho here: one above 1, one below, neither an
# interpolation node of euler_normal_form (rho = 2, 3, ...)
RHOS = (Fraction(5, 2), Fraction(3, 5))


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


@pytest.mark.parametrize("bad", [0, -2, 0.5, "2", True])
def test_expand_rejects_bad_rho(bad):
    with pytest.raises(PreconditionError):
        expand_hamiltonian(4, bad)
    with pytest.raises(PreconditionError):
        PolyHamiltonian({(1, 1): Fraction(1)}, 2, bad)


def test_hamiltonian_rejects_inexact_coefficients():
    # a float coefficient would come back as a float normal form value
    with pytest.raises(PreconditionError, match="q\\^3 p\\^1"):
        PolyHamiltonian({(1, 1): 1, (3, 1): 0.5, (2, 2): Fraction(1, 4)}, 4, 2)
    for bad in (1.0, True, "1"):
        with pytest.raises(PreconditionError, match="int or Fraction"):
            PolyHamiltonian({(1, 1): bad}, 2, 2)
    values = birkhoff_normalize(PolyHamiltonian({(1, 1): 1, (3, 1): Fraction(1, 2), (2, 2): 1}, 4, 2), 2)
    assert values == (0, 1, 1) and all(type(v) is Fraction for v in values)


def test_hamiltonian_refuses_negative_and_bool_exponents():
    # row index -1 would read q^-1 p^4 as q^3, the last entry of row 3
    terms = {(1, 1): 1, (0, 3): 1, (1, 2): Fraction(1, 5), (-1, 4): Fraction(1, 3)}
    with pytest.raises(PreconditionError, match="q\\^-1 p\\^4"):
        birkhoff_normalize(PolyHamiltonian(terms, 6, 1), 3)
    terms[(3, 0)] = terms.pop((-1, 4))
    assert birkhoff_normalize(PolyHamiltonian(terms, 6, 1), 3) == (0, 1, -1, Fraction(-104, 75))
    for bad in [(True, 2), (2, False), (2.0, 2), (2, -1), (-1, 2)]:
        for value in (1, 0):
            with pytest.raises(PreconditionError, match="non-negative int exponents"):
                PolyHamiltonian({(1, 1): 1, bad: value}, 4, 1)
    for bad in (-1, True, 4.0):
        with pytest.raises(PreconditionError, match="degree must be a non-negative int"):
            PolyHamiltonian({}, bad, 1)


def test_hamiltonian_fields_are_canonical():
    # one polynomial given with int, Fraction and zero-valued terms
    given = [
        {(1, 1): 1, (2, 2): Fraction(2, 4), (0, 4): Fraction(-3, 2)},
        {(0, 4): Fraction(-6, 4), (1, 1): Fraction(1), (2, 2): Fraction(1, 2), (3, 3): 0, (0, 0): Fraction(0)},
    ]
    hams = [PolyHamiltonian(terms, 6, rho) for terms, rho in zip(given, (2, Fraction(4, 2)))]
    hams += [pickle.loads(pickle.dumps(ham)) for ham in hams]
    first = hams[0]
    assert first.rows == ((0,), (0, 0), (0, 2, 0), (0, 0, 0, 0), (-3, 0, 1, 0, 0)) and first.den == 2
    for ham in hams:
        assert (ham.rows, ham.den, ham.degree, ham.rho) == (first.rows, first.den, first.degree, first.rho)
        assert ham == first and hash(ham) == hash(first)
        assert all(type(c) is int for row in ham.rows for c in row)
    # williamson_reduce's output is reduced as far as its terms allow
    for rho in RHOS:
        out = williamson_reduce(expand_hamiltonian(12, rho))
        assert out == PolyHamiltonian(out.terms, out.degree, out.rho)


def test_coefficient_is_zero_off_the_rows():
    ham = expand_hamiltonian(4, 2)
    assert ham.coefficient(2, 0) == Fraction(1, 4) and ham.coefficient(4, 0) == Fraction(-1, 12)
    # a negative exponent must not index a row from its end: rows[2][-1] is q^2
    assert ham.coefficient(-1, 3) == ham.coefficient(3, -1) == ham.coefficient(-2, 2) == 0
    assert ham.coefficient(5, 0) == ham.coefficient(3, 3) == 0
    assert PolyHamiltonian({(1, 1): 1}, 6, 1).coefficient(2, 2) == 0


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


def _reference_williamson(ham):
    # the linear map of williamson_reduce over Fraction: the oracle for its int-row body
    rho, out = ham.rho, {}
    for (a, b), c in ham.terms.items():
        base = c * rho ** ((a - b) // 2) / 2 ** ((a + b) // 2)
        for i in range(a + 1):
            for j in range(b + 1):
                key = (i + b - j, a - i + j)
                out[key] = out.get(key, 0) + base * (comb(a, i) * comb(b, j) * (-1) ** (b - j))
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("rho", [2, Fraction(3, 5), Fraction(7, 3), Fraction(1, 7)])
def test_williamson_equals_fraction_reference(rho):
    rho = Fraction(rho)
    for degree in range(2, 17, 2):
        ham = expand_hamiltonian(degree, rho)
        out = williamson_reduce(ham)
        assert out.terms == _reference_williamson(ham), degree
        assert (out.degree, out.rho) == (degree, rho)
        assert all(type(v) is Fraction for v in out.terms.values())
    # every monomial of degree 4..8, odd powers of q and p among them:
    # a - b runs over -8..8, so rho enters to the powers -4..4
    terms = {(2, 0): 1 / (2 * rho), (0, 2): -rho / 2}
    terms.update({
        (a, m - a): Fraction(a + 1, m + 3 * a + 1) for m in range(4, 9, 2) for a in range(m + 1)
    })
    ham = PolyHamiltonian(terms, 8, rho)
    assert williamson_reduce(ham).terms == _reference_williamson(ham)


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


def test_a_normal_form_that_fails_its_check_keeps_nothing(monkeypatch):
    monkeypatch.setattr(normalform, "_lie_transform", lambda terms, generator, max_degree: terms)
    for order in (5, 3):  # the failed order 5 left nothing to answer order 3
        with pytest.raises(InternalConsistencyError, match="survived"):
            euler_normal_form(order)


@pytest.mark.parametrize("order", [1, 2, 7, 8])
def test_normal_form_runs_the_public_steps_once_per_node(monkeypatch, order):
    # the per-layer trace times these two module functions, so the Lie
    # route must go through them at each interpolation node
    calls = {"williamson_reduce": 0, "birkhoff_normalize": 0}
    for name in calls:
        def counted(*args, _step=getattr(normalform, name), _name=name):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(normalform, name, counted)
    euler_normal_form(order)
    nodes = (order - 1) // 2 + 2
    assert calls == {"williamson_reduce": nodes, "birkhoff_normalize": nodes}


def test_normal_form_kappa_parity():
    series = euler_normal_form(7)
    assert series.flip_kappa() == -series.reflect()


def _bracket(f, g, max_degree):
    out = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            key = (a + c - 1, b + d - 1)
            if key[0] + key[1] <= max_degree:
                out[key] = out.get(key, 0) + (a * d - b * c) * cf * cg
    return {k: v for k, v in out.items() if v}


def _reference_normalize(ham, order):
    # the Lie loop of birkhoff_normalize over Fraction: the oracle for its int body
    max_degree = 2 * order
    terms = {k: v for k, v in ham.terms.items() if k[0] + k[1] <= max_degree}
    for d in range(3, max_degree + 1):
        generator = {(a, b): c / (a - b) for (a, b), c in terms.items() if a + b == d and a != b}
        flowed, current, k = dict(terms), terms, 0
        while current:
            k += 1
            current = _bracket(current, generator, max_degree)
            for key, c in current.items():
                flowed[key] = flowed.get(key, 0) + c / factorial(k)
        terms = {key: c for key, c in flowed.items() if c}
    assert all(a == b for a, b in terms)
    values = [Fraction(0)] * (order + 1)
    for (a, _), c in terms.items():
        values[a] = c
    return tuple(values)


def test_normalize_generic_hamiltonian_equals_fraction_reference():
    # every monomial of degree 3..12, q^3, q^2 p, q p^2, p^3 and all other odd
    # parities among them: the graded kernel is not tied to the top's even rows
    terms = {(1, 1): Fraction(1)}
    terms.update({
        (a, m - a): Fraction((-1) ** a * (1 + a * (m - a) + m), 1 + a + 2 * (m - a))
        for m in range(3, 13)
        for a in range(m + 1)
    })
    ham = PolyHamiltonian(terms, 12, 1)
    assert all(ham.coefficient(a, 3 - a) for a in range(4))
    for order in range(1, 7):
        values = birkhoff_normalize(ham, order)
        assert values == _reference_normalize(ham, order), order
        assert all(type(v) is Fraction for v in values), order


@pytest.mark.parametrize("rho", [1, 2, Fraction(3, 5), Fraction(7, 3), Fraction(1, 7)])
def test_normalize_equals_fraction_reference(rho):
    for order in range(1, 11):
        ham = williamson_reduce(expand_hamiltonian(2 * order, rho))
        values = birkhoff_normalize(ham, order)
        assert values == _reference_normalize(ham, order), order
        assert all(type(v) is Fraction for v in values), order


def test_normalize_equals_reversion_off_the_nodes():
    # euler_normal_form(12) interpolates at rho = 2..8; 7/3 is none of them
    rho = Fraction(7, 3)
    values = birkhoff_normalize(williamson_reduce(expand_hamiltonian(24, rho)), 12)
    assert values == tuple(c(rho - 1 / rho) for c in bnf_via_reversion(12).coeffs)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: PolyHamiltonian({(3, 0): 1}, 2, 1), "exceeds the stated degree"),
        (
            lambda: williamson_reduce(
                PolyHamiltonian({(2, 0): Fraction(1, 4), (0, 2): -1, (3, 0): 1}, 3, 2)
            ),
            "odd parity",
        ),
        (lambda: euler_normal_form(0), "order must be >= 1"),
    ],
)
def test_input_checks_raise(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()
