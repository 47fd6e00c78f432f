"""Saddle expansion of the reduced Hamiltonian and its Birkhoff normal form.

The non-dimensional Hamiltonian of the free rigid body near steady rotation
about the middle axis is

    H(q, p) = (1/2) * (-p^2 (rho + sin(q)^2 / rho) + sin(q)^2 / rho)

with rho the shape parameter.  Taylor expansion at the saddle, a linear
symplectic reduction to quadratic part q*p (Williamson form), and a sequence
of Lie transforms that remove every monomial q^a p^b with a != b produce the
normal form H*(J) as a series in the action J = q*p.

The Lie route runs on exact rationals at one rational rho.  The linear map
scales by sqrt(rho), but every monomial in the pipeline has a - b even, so
only integral powers of rho enter.  A PolyHamiltonian is graded int rows,
rows[m][a] the numerator of q^a p^(m-a) over one common int denominator,
and the linear map and the Lie transforms run fraction-free on them: the
Poisson bracket is one dense product per pair of degrees, every division
is exact, and each normal form value becomes one Fraction at the end.
``euler_normal_form`` runs the route at several rho and interpolates each
J^n coefficient as a polynomial in kappa = rho - 1/rho.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .series import (
    InternalConsistencyError,
    PowerSeries,
    _Frozen,
    _check_order,
    _is_exact_rational,
    _keeps_highest,
    interpolate_kappa_poly,
)

__all__ = [
    "PreconditionError",
    "PolyHamiltonian",
    "expand_hamiltonian",
    "williamson_reduce",
    "birkhoff_normalize",
    "euler_normal_form",
]


class PreconditionError(ValueError):
    """Input Hamiltonian does not have the shape the operation requires."""


# graded int rows: rows[m][a] is the numerator of q^a p^(m-a), m = 0..max_degree
Rows = list[list[int]]


class PolyHamiltonian(_Frozen):
    """Polynomial Hamiltonian at shape parameter rho, from (a, b) -> coefficient of q^a p^b.

    Stored as graded int rows: rows[m][a] / den is the coefficient of
    q^a p^(m-a), rows run up to the top nonzero degree, and den > 0 is the
    lcm of the coefficients' denominators, so gcd(den, every numerator) = 1
    and equal Hamiltonians have equal fields.
    ``terms``, the nonzero coefficients as Fractions, is computed on each read.
    """

    __slots__ = ("rows", "den", "degree", "rho")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction], degree: int, rho: Fraction):
        if type(degree) is not int or degree < 0:  # a bool is no degree or exponent
            raise PreconditionError(f"degree must be a non-negative int, got {degree!r}")
        for (a, b), v in terms.items():
            if type(a) is not int or type(b) is not int or min(a, b) < 0:
                raise PreconditionError(f"monomial q^{a!r} p^{b!r} needs non-negative int exponents")
            if not _is_exact_rational(v):
                raise PreconditionError(f"coefficient of q^{a} p^{b} must be an int or Fraction, got {v!r}")
            if v and a + b > degree:
                raise PreconditionError(f"monomial q^{a} p^{b} exceeds the stated degree {degree}")
        kept = {k: v for k, v in terms.items() if v}
        den = math.lcm(*(v.denominator for v in kept.values()))
        rows = [[0] * (m + 1) for m in range(max(map(sum, kept), default=-1) + 1)]
        for (a, b), v in kept.items():
            rows[a + b][a] = v.numerator * (den // v.denominator)
        self._assign(tuple(map(tuple, rows)), den, degree, _exact_rho(rho))

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {(a, m - a): Fraction(c, self.den) for m, row in enumerate(self.rows) for a, c in enumerate(row) if c}

    def coefficient(self, a: int, b: int) -> Fraction:
        return Fraction(self.rows[a + b][a], self.den) if min(a, b) >= 0 and a + b < len(self.rows) else Fraction(0)

    def quadratic_part(self) -> dict[tuple[int, int], Fraction]:
        return {(a, 2 - a): Fraction(c, self.den) for row in self.rows[2:3] for a, c in enumerate(row) if c}

    def __repr__(self):
        return f"PolyHamiltonian(terms={self.terms!r}, degree={self.degree!r}, rho={self.rho!r})"


def _exact_rho(rho) -> Fraction:
    if not _is_exact_rational(rho) or rho <= 0:
        raise PreconditionError(f"rho must be a positive int or Fraction, got {rho!r}")
    return Fraction(rho)


def expand_hamiltonian(max_degree: int, rho) -> PolyHamiltonian:
    """Taylor coefficients of the saddle Hamiltonian at rho through total degree max_degree.

    The quadratic part is (1/2)(q^2/rho - rho p^2); all monomials are even in
    q and in p separately.  rho must be a positive int or Fraction.
    """
    _check_order(max_degree, 2, PreconditionError, "expansion degree must be an even integer >= 2", "max_degree")
    if max_degree % 2:
        raise PreconditionError("expansion degree must be an even integer >= 2")
    rho = _exact_rho(rho)
    terms = {(0, 2): -rho / 2}
    for deg in range(2, max_degree + 1, 2):  # sin(q)^2 = sum_{m>=1} (-1)^(m+1) 2^(2m-1) / (2m)! q^(2m)
        c = Fraction((-1) ** (deg // 2 + 1) * 2 ** (deg - 1), 2 * rho * math.factorial(deg))
        terms[(deg, 0)] = c
        if deg + 2 <= max_degree:
            terms[(deg, 2)] = -c
    return PolyHamiltonian(terms, max_degree, rho)


def williamson_reduce(ham: PolyHamiltonian) -> PolyHamiltonian:
    """Apply the linear symplectic map that turns the quadratic part into q*p.

    The map is the scaling q -> sqrt(rho) q, p -> p / sqrt(rho) followed by a
    rotation by -pi/4; on a monomial q^a p^b it acts as

        q^a p^b -> rho^((a-b)/2) 2^(-(a+b)/2) (q + p)^a (p - q)^b.

    With rho = r/s, it runs on int rows over den 2^(D/2) (r s)^e: den that of
    ham, D the top degree and e the largest |a - b|/2.
    """
    rho, r, s, den = ham.rho, ham.rho.numerator, ham.rho.denominator, ham.den
    if ham.rows[2:3] != ((-rho * den / 2, 0, den / (2 * rho)),):
        raise PreconditionError("quadratic part is not (1/2)(q^2/rho - rho p^2)")
    top = len(ham.rows) - 1
    terms = [(a, m - a, c) for m, row in enumerate(ham.rows) for a, c in enumerate(row) if c]
    e = max(abs(a - b) for a, b, _ in terms) // 2
    out = [[0] * (m + 1) for m in range(top + 1)]
    for a, b, c in terms:
        if (a + b) % 2:
            raise PreconditionError(f"monomial q^{a} p^{b} has odd parity; the map would need sqrt factors")
        k = (a - b) // 2
        base = c * 2 ** ((top - a - b) // 2) * r ** (e + k) * s ** (e - k)
        weights = [0] * (a + b + 1)  # the q^t coefficients of (q + p)^a (p - q)^b
        for i in range(a + 1):
            for j in range(b + 1):
                weights[i + j] += math.comb(a, i) * math.comb(b, j) * (-1) ** j
        out[a + b] = [x + base * w for x, w in zip(out[a + b], weights)]
    out, den = _reduced(out, den * 2 ** (top // 2) * (r * s) ** e)
    reduced = object.__new__(PolyHamiltonian)  # canonical: the map keeps the top row nonzero
    reduced._assign(tuple(map(tuple, out)), den, ham.degree, rho)
    return reduced


def _bracket(f: Rows, g: Rows, max_degree: int) -> Rows:
    """The Poisson bracket {F, G} of graded int rows, truncated at max_degree.

    {q^a p^(m-a), q^c p^(n-c)} = (a n - m c) q^(a+c-1) p^(m+n-1-a-c), so each
    pair of degrees m, n is one dense product into degree m + n - 2.
    """
    # out[e][a + c] for e = m + n - 2; the ends a + c = 0 and e + 2 have weight 0
    out = [[0] * (e + 3) for e in range(max_degree + 1)]
    for n, grow in enumerate(g):
        if not any(grow):
            continue
        gz = [(c, v) for c, v in enumerate(grow) if v]
        for m, frow in enumerate(f[:max_degree + 3 - n]):
            if m + n >= 2 and any(frow):
                acc = out[m + n - 2]
                for a, fa in enumerate(frow):
                    if fa:
                        an = a * n
                        for c, gc in gz:
                            acc[a + c] += (an - m * c) * fa * gc
    return [acc[1:-1] for acc in out]


def _lie_transform(terms: tuple[Rows, int], generator: tuple[Rows, int], max_degree: int) -> tuple[Rows, int]:
    """Time-1 flow of the generator: sum_k ad_W^k(H) / k! truncated in degree.

    H = N / den and W = G / gden are graded int rows.  The k-th bracket is
    P_k / (den gden^k) for integer rows P_k, so the sum through K is

        sum_k P_k gden^(K-k) K!/k!  over  den gden^K K!,

    reduced by one content gcd.
    """
    (rows, den), (gens, gden) = terms, generator
    brackets = [rows]
    while any(map(any, brackets[-1])):
        brackets.append(_bracket(brackets[-1], gens, max_degree))
        # generators start at degree >= 3, so each bracket raises the degree
        if len(brackets) > max_degree + 1:
            raise InternalConsistencyError("Lie transform failed to terminate")
    K = len(brackets) - 2  # the last bracket is zero
    out = [[0] * (m + 1) for m in range(max_degree + 1)]
    weight = 1  # gden^(K-k) K!/k!, from k = K down
    for k in range(K, -1, -1):
        out = [[x + c * weight for x, c in zip(xs, cs)] if any(cs) else xs for xs, cs in zip(out, brackets[k])]
        weight *= gden * k
    return _reduced(out, den * gden**K * math.factorial(K))


def _reduced(rows: Rows, den: int) -> tuple[Rows, int]:
    """rows / den with the content gcd of the numerators and den divided out."""
    g = den
    for row in rows:
        g = math.gcd(g, *row)
        if g == 1:
            return rows, den
    return [[c // g for c in row] if any(row) else row for row in rows], den // g


def birkhoff_normalize(ham: PolyHamiltonian, order: int) -> tuple[Fraction, ...]:
    """Values of the normal form coefficients of J^0..J^order at ``ham.rho``; needs H2 = q*p.

    Normalizes degree by degree up to polynomial degree 2*order.  At each
    degree d the generator carries one term -c/(b-a) q^a p^b for every
    non-resonant monomial c q^a p^b present (minimal generator, no resonant
    part), since {qp, q^a p^b} = (b - a) q^a p^b.  Resonant monomials (qp)^k
    accumulate into the values of H*(J).

    The loop runs fraction-free on graded int rows over one denominator den.
    The generator at degree d is row d times L/(a-b) over den L, with L the
    lcm of the |a - b| in that row, reduced by its content gcd.  Every
    division is exact, and each value becomes one Fraction at the end.
    """
    _check_order(order, 1, PreconditionError, "normal form order must be >= 1")
    if ham.rows[2:3] != ((0, ham.den, 0),):
        raise PreconditionError("quadratic part must be exactly q*p")
    max_degree = 2 * order
    if ham.degree < max_degree:
        raise PreconditionError(f"need the expansion through degree {max_degree}, got {ham.degree}")
    rows, den = [ham.rows[m] if m < len(ham.rows) else (0,) * (m + 1) for m in range(max_degree + 1)], ham.den
    for d in range(3, len(rows)):
        shifts = [2 * a - d if c else 0 for a, c in enumerate(rows[d])]
        if any(shifts):
            lcm = math.lcm(*filter(None, shifts))
            gens = [[0] * len(row) for row in rows]
            gens[d] = [c * (lcm // s) if s else 0 for c, s in zip(rows[d], shifts)]
            rows, den = _lie_transform((rows, den), _reduced(gens, den * lcm), 2 * order)
    leftover = [(a, m - a) for m, row in enumerate(rows) for a, c in enumerate(row) if c and 2 * a != m]
    if leftover:
        raise InternalConsistencyError(f"non-resonant monomials survived normalization: {sorted(leftover)}")
    values = [Fraction(rows[2 * n][n], den) for n in range(order + 1)]
    if values[1] != 1:
        raise InternalConsistencyError("normal form is not J + O(J^2)")
    return tuple(values)


@_keeps_highest(PowerSeries.truncate, 1, PreconditionError, "normal form order must be >= 1")
def euler_normal_form(order: int) -> PowerSeries:
    """Normal form H*(J) through J^order, each coefficient a polynomial in kappa.

    The J^n coefficient has the form kappa^((n+1) mod 2) p_n(kappa^2) with
    deg p_n <= (n-1)/2.  The Lie route runs at rho = 2, 3, ..., one point more
    than p_order needs, so interpolation checks itself on the last point.
    No coefficient depends on the order, so the series at the highest order
    asked for is kept and a lower order is its truncation
    (series._keeps_highest).
    """
    rhos = [Fraction(r) for r in range(2, (order - 1) // 2 + 4)]
    rows = [birkhoff_normalize(williamson_reduce(expand_hamiltonian(2 * order, rho)), order) for rho in rhos]
    kappas = [rho - 1 / rho for rho in rhos]
    return PowerSeries("J", tuple(
        interpolate_kappa_poly(kappas, [row[n] for row in rows], (n + 1) % 2)
        for n in range(order + 1)
    ))
