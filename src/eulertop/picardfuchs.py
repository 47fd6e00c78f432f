"""Picard-Fuchs equation of the action integral and its Frobenius solutions.

The action I(h) of the energy curve u^2 = (2h - z) w(z)^2 with
w(z)^2 = z (z^2 + kappa z - 1) satisfies the third order linear ODE

    [w(2h)]^2 I''' + 2 (12 h^2 + 4 kappa h - 1) I'' + (6 h + kappa) I' = 0

and the period T = 2 pi I' the corresponding second order one.  The finite
singular points 2h in {0, -rho, 1/rho} are all regular; h = 0 has the double
indicial root 0, so the solution basis at the saddle is a regular series T_r
and a log solution T_s = T_r log h + ...  (The point h = infinity is also
regular singular, with indicial roots 1/2 and 3/2; it is not expanded here.)

The ODE coefficients are derived in u = 2h - z, where the linear system for
them is diagonal; residuals are taken with theta = h d/dh, so both the log
and the power channel stay series with non-negative exponents until the end.

The four coefficient recurrences of the period equation live here, each
O(n^2) ring operations: the a/b recursions of the Frobenius basis, and
B(J) (the Birkhoff normal form, the compositional inverse of
alpha = 2 pi I_r) and the sigma tail, which carry (c3 T')' + c1 T = 0 to
J one coefficient at a time (online series solving, van der Hoeven 2002).
_scaled_sequences is their one entry and the one place that reads kappa
and picks the one ring all four run on: the symbolic tables, or their
values at kappa = p/q, where h = q Y and J = q u turn kappa into p and put
w = q^2 on the n-2 terms of a and b and on the constants 3, 4, 8 of c1, c3,
K and K'A.
The closed form puts C(2n, n) T(n, k) / (4^n 2^(n-2k)) at kappa^(n-2k) of
a_n, T(n, k) = (2n-2k)! / (k! (n-k)! (n-2k)!), and f_{n,k} times that in
b_n, with f_{n,k} lcm(1, ..., 2n-1) even.  So A_n = 8^n a_n, B_n = 8^n L_n b_n
for L_n = lcm(1, ..., n) (_b_rows), q^n A_n(p/q) and q^n B_n(p/q) are
integral: a and b run over ints, every division checked exact.

B(J) and sigma run over ints too, on the same ring as a and b.  Each
series is held at its own per-index scale, Y_n = y_n 4^n n! (n-1)! for B
and 4^(n+e) (n+r)! (n+t)! for each helper series, under which a Cauchy
product has binomial weights (_bnf, _sigma_tail).  At kappa = p/q, Y_n
carries y_n q^(n-1), so y_n is X_n / S_n with S_n = s_n q^(n-1), as a_n is
over (8q)^n and b_n over (8q)^n L_n; sigma_(n+1) is over n s_(n+1) q^n,
which takes the 1/(n+1) of its last integral and the 1/n of its log too.
Each sequence comes out as these (X_n, S_n) pairs, X_n a ring element and
S_n a positive int.  _sequences and frobenius_table emit each value from its
pair once, as a Fraction or a KappaPoly, and nothing is unscaled after that;
the ratio test of invariants.radius_analysis reads the pairs and reduces none.

The integers that depend on the index alone, Pascal's rows, lcm(1..n) with
its steps L_n / L_(n-1) and the weight rows of each step of B(J) and sigma,
are kept per process in _KEPT and grown on demand, so a process that runs the
recurrences many times, a radius scan, builds them once; one call alone gains
nothing.  Weight rows are kept to step _KEPT_STEPS = 64, Pascal's rows to
65, and both are built per call above that, where keeping them would hold
tens of MB.  A table is extended by building a complete new list and
publishing it with one assignment, never in place, so a reader in another
thread sees a whole table.

frobenius_table is the one entry point of the symbolic a/b tables and the
one place that picks between the two independent routes, the recursions
and the closed-form trinomial sums; frobenius_a_at and _b_at read the recursions.

Scaling convention: the exact rational channel stores 2*pi*I_r and 2*pi*I_s
(so 2*pi*I_r = h + O(h^2)); the transcendental constants of the particular
combinations are kept as tagged symbolic atoms and only turned into floats
on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .series import (
    InternalConsistencyError,
    KP_KAPPA,
    KP_ONE,
    KP_ZERO,
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    _Frozen,
    _Row,
    _check_order,
    _is_exact_rational,
    _keeps_highest,
    _parity_poly,
    _row_dot,
    add_list,
    deriv_list,
    mul_trunc,
    strip_list,
)

__all__ = [
    "PFCoefficients",
    "PFResidual",
    "FrobeniusTable",
    "ActionSeries",
    "SymbolicConstant",
    "BetaAction",
    "derive_pf_coefficients",
    "pf_residual",
    "frobenius_a_at",
    "frobenius_b_at",
    "frobenius_table",
    "build_action_series",
    "assemble_beta_actions",
    "LOG64_RATIO",
    "ATAN_RHO",
    "ATAN_INV_RHO",
]


# ---------------------------------------------------------------------------
# the ODE coefficients, derived rather than hard coded
# ---------------------------------------------------------------------------


class PFCoefficients(NamedTuple):
    """Coefficients c0..c3 of the total-differential identity, polynomials in h."""

    c0: PowerSeries
    c1: PowerSeries
    c2: PowerSeries
    c3: PowerSeries


def _coeff_at_2h(f: list, j: int) -> list:
    """The u^j coefficient of f(2h - u), as a list in h: (-1)^j f^(j)(2h) / j!."""
    for _ in range(j):
        f = deriv_list(f)
    scale = Fraction((-1) ** j, math.factorial(j))
    return [c * (scale * 2**n) for n, c in enumerate(f)]


def derive_pf_coefficients() -> PFCoefficients:
    """Solve for the c_i with sum c_i d^i zeta / dh^i equal to an exact differential.

    Multiplying through by w(z) (2h - z)^(5/2) turns both sides into cubic
    polynomials in z.  In u = 2h - z the basis factors from d^i/dh^i of
    (2h - z)^(1/2) are the monomials u^3, u^2, -u and 3, so c_i is the
    u^(3-i) coefficient of the right-hand side w w' u + (3/2) w^2 divided by
    the constant of its monomial.
    """
    # w^2 = z^3 + kappa z^2 - z and w w' = (1/2) d(w^2)/dz
    w2 = [KP_ZERO, -KP_ONE, KP_KAPPA, KP_ONE]
    wwp = [c * Fraction(1, 2) for c in deriv_list(w2)]

    def rhs(j: int) -> list:
        acc = [c * Fraction(3, 2) for c in _coeff_at_2h(w2, j)]
        return add_list(acc, _coeff_at_2h(wwp, j - 1)) if j else acc

    def as_series(hp):
        hp = strip_list(hp)
        return PowerSeries("h", tuple(hp) if hp else (KP_ZERO,))

    pivots = (1, 1, -1, 3)
    return PFCoefficients(
        *(as_series([c * Fraction(1, p) for c in rhs(3 - i)]) for i, p in enumerate(pivots))
    )


# ---------------------------------------------------------------------------
# Frobenius coefficient tables
# ---------------------------------------------------------------------------


def _exact(num: int, den: int) -> int:
    """num / den, which a denominator law makes an integer."""
    quo, rem = divmod(num, den)
    if rem:
        raise InternalConsistencyError("a denominator law failed: inexact division")
    return quo


# The index-only tables of the module docstring, each grown by _kept
_KEPT: dict[str, list] = {"pascal": [], "lcm": [], "lcm_step": [], "bnf": [], "sigma": []}

# Weight rows are kept for steps m <= _KEPT_STEPS and built per call above it,
# by the same builder, and Pascal's rows through _KEPT_STEPS + 1, which the
# kept weight rows read.  After `radius --kappa=5/7 --nmax=400
# --targets=bnf,sigma` the kept rows of every step would hold 64 MB; to step
# 64 they hold 0.84 MB, and to 41, the bench's largest sigma step, 0.33 MB.
# Pascal's rows through 400 would hold 4.8 MB, through 65 0.09 MB (the lists
# and ints by sys.getsizeof, CPython 3.11 on x86-64).
_KEPT_STEPS = 64


def _kept(name: str, n: int, entry) -> list:
    """The kept table called name, through index n at least: each missing
    index i is built by entry(table, i), and the new list is published by one
    assignment."""
    table = _KEPT[name]
    if len(table) <= n:
        table = [*table]
        for i in range(len(table), n + 1):
            table.append(entry(table, i))
        _KEPT[name] = table
    return table


def _next_lcm(lcms: list, n: int) -> int:
    return math.lcm(lcms[-1], n) if n else 1


def _lcm_table(order: int) -> list[int]:
    """lcm(1, ..., n) for n = 0..order, with lcm() = 1, read from the kept table."""
    return _kept("lcm", order, _next_lcm)[: order + 1]


def _lcm_steps(order: int) -> list[int]:
    """L_n / L_(n-1) for n = 0..order, 1 at n = 0: a prime p at n = p^k, else
    1, each by exact division of the kept lcm table."""
    lcms = _kept("lcm", order, _next_lcm)
    return _kept("lcm_step", order, lambda _, n: _exact(lcms[n], lcms[n - 1]) if n else 1)[: order + 1]


# The four recurrences run one body each over the ring that _scaled_sequences
# picks from kappa, (one, up, weigh, dot, div): ints at kappa = p/q, where up
# multiplies by p, weigh by w = q^2 and div is _exact, or packed _Row at
# KP_KAPPA.  Each int element is homogeneous in p and q of one degree d, with
# even powers of q only (d = n for A_n and B_n, k-1 for Y_k): the emit over
# q^d relies on it.  So an element is one polynomial of kappa parity d, and
# its packed row holds at entry j the coefficient of kappa^(d-2j): up is the
# identity, weigh prepends one 0, dot is _row_dot and div is _exact on each
# coefficient, and _parity_poly puts the zeros back once, at the emit.
# Each series x of _bnf and _sigma_tail is held as
# X_k = x_k D(k) with D(k) = 4^(k+e) (k+r)! (k+t)!, which the denominator
# laws in the docstrings make integral (checked at 60 random 40-bit kappas to
# n = 60 and at four kappas to n = 150).  Its product with a series of
# offsets (e', r', t') at (e+e', r+r', t+t') has the integer weights
# C(k+r+r', i+r) C(k+t+t', i+t), so every new coefficient is one weighted dot
# product over coefficients already known, divided exactly by a small pivot.
# Each value is X / S: its ring element over its scale times the power of q
# that h = q Y and J = q u leave on it, S = (8q)^n for a_n, (8q)^n L_n for
# b_n, s_k q^(k-1) for y_k and k s_(k+1) q^k for sigma_(k+1).


def _dot(ws, xs, ys):
    """sum w x y over three sequences of ints."""
    return sum(map(operator.mul, map(operator.mul, ws, xs), ys))


def _row_div(x: _Row, d: int) -> _Row:
    return _Row([_exact(c, d) for c in x])


def _row_weigh(x: _Row) -> _Row:
    """x times q^2 in the packed ring: one more leading 0, the empty row kept empty."""
    return _Row((0, *x)) if x else x


def _a_rows(ring, order: int):
    """A_0..A_order from n^2 A_n = (2n-1) (4 (2n-1) kappa A_{n-1} + 64 (2n-3) w A_{n-2}),
    each a ring element: the coefficients of kappa^n, kappa^(n-2), ... as a
    packed _Row, or the one int value at kappa = p/q."""
    one, up, weigh, _, div = ring
    prev, row = 0 * one, one
    yield row
    for n in range(1, order + 1):
        m = 2 * n - 1
        prev, row = row, div(4 * m * m * up(row) + 64 * m * (m - 2) * weigh(prev), n * n)
        yield row


def _b_rows(ring, lcms: list):
    """(A_n, B_n) for n = 0..order, order = len(lcms) - 1, from n^3 B_n =
    (2n-1) [8 L_n kappa A_{n-1} + 4n (2n-1) (L_n/L_{n-1}) kappa B_{n-1} +
    64n (2n-3) (L_n/L_{n-2}) w B_{n-2}] + 64 (8n-6) L_n w A_{n-2}, with the
    A rows of _a_rows run in lockstep and L_n/L_(n-1) read from the kept
    _lcm_steps.  B_n = 8^n L_n b_n is integral for
    L_n = lcms[n] = lcm(1, ..., n): b_n has 4^k C(2n, n) T(n, k) f_{n,k} / 8^n
    at kappa^(n-2k) (_closed_form), with denominators up to n in H_n and up to
    2n - 1 in the odd sums.  L_n lacks one p of each odd prime power p^e in
    (n, 2n-1], and C(2n, n) has it, as n + n carries in base p (for p > n,
    against the 1/p of O_n or O_(n-k))."""
    one, up, weigh, _, div = ring
    a_rows, steps = _a_rows(ring, len(lcms) - 1), _lcm_steps(len(lcms) - 1)
    a_prev, a_row, b_prev, row = 0 * one, next(a_rows), 0 * one, 0 * one
    yield a_row, row
    for n, a_next in zip(range(1, len(lcms)), a_rows):
        m, step = 2 * n - 1, steps[n]
        known = (
            lcms[n] * (8 * m * up(a_row) + 64 * (8 * n - 6) * weigh(a_prev))
            + 4 * n * m * m * step * up(row)
            + 64 * n * m * (m - 2) * step * steps[n - 1] * weigh(b_prev)
        )
        a_prev, a_row, b_prev, row = a_row, a_next, row, div(known, n**3)
        yield a_row, row


def _next_pascal(rows: list, n: int) -> list[int]:
    return [1, *map(operator.add, rows[-1], rows[-1][1:]), 1] if n else [1]


def _binomials(n: int) -> list[list[int]]:
    """Rows 0..n of Pascal's triangle: C(k, i) = _binomials(n)[k][i], the
    kept rows through _KEPT_STEPS + 1, which the kept weight rows read, and
    the rows above built per call."""
    rows = _kept("pascal", min(n, _KEPT_STEPS + 1), _next_pascal)[: n + 1]
    for k in range(len(rows), n + 1):
        rows.append(_next_pascal(rows, k))
    return rows


def _bnf_weights(c: list, m: int) -> tuple:
    """The weight rows of step m of _bnf: those of Y^2_m, Y^3_m, y'^2 and
    y'^3 (the squares of row m-1), the Narayana numbers N(m, i) and the sum
    over Y P3, from Pascal's rows c through m."""
    row, below = c[m], c[m - 2] if m > 1 else []
    return (
        list(map(operator.mul, row[1:m], below)),
        list(map(operator.mul, row[2:m], c[m - 3] if m > 2 else [])),
        [b * b for b in c[m - 1]] if m else [],
        [_exact(a * b, m) for a, b in zip(row[2:], row[1:m])],
        list(map(operator.mul, row[2:], below)),
    )


def _sigma_weights(c: list, m: int) -> tuple:
    """The weight rows of step m of _sigma_tail: those of A and K A (the
    squares of row m), C and G y', C G', D G and lambda, from Pascal's rows
    c through m + 1."""
    row, left = c[m], c[m - 1] if m else []
    return (
        [b * b for b in row],
        list(map(operator.mul, row[1:], left)),
        list(map(operator.mul, row[2:], left[1:])),
        list(map(operator.mul, c[m - 2] if m > 1 else [], left)),
        list(map(operator.mul, c[m + 1][2 : m + 1], row[1:m])),
    )


def _weights(name: str, build, rows: list, m: int) -> tuple:
    """The weight rows of step m by build from the Pascal rows of _binomials:
    kept to step _KEPT_STEPS, built per call above it."""
    if m > _KEPT_STEPS:
        return build(rows, m)
    return _kept(name, m, lambda _, i: build(rows, i))[m]


def _y_scales(order: int) -> list[int]:
    """s_0..s_order with s_k = 4^k k! (k-1)! and s_0 = 1."""
    return list(itertools.accumulate(range(1, order + 1), lambda s, k: s * 4 * k * max(k - 1, 1), initial=1))


def _powers(x: int, first: int = 1):
    """first, first x, first x^2, ...: running products, not a power per index."""
    return itertools.accumulate(itertools.repeat(x), operator.mul, initial=first)


def _bnf(ring, order: int) -> tuple:
    """Y_0..Y_order of B(J), the compositional inverse of alpha, each
    Y_k = y_k s_k a ring element, with the Y^2 and Pascal's rows of its
    pass, which _sigma_tail reads too.

    With T_r(y) = 1/y' for y = B(J), the self-adjoint period equation
    (c3 T')' + c1 T = 0 integrates once to

        c3(y) y'' = y'^3 M,    M = int_0^J c1(y),

    c3(h) = -h + 2 kappa h^2 + 4 w h^3 and c1(h) = kappa/2 + 3 w h, w = 1.
    Its J^m coefficient fixes y_(m+1) with pivot -m(m+1); every other term
    is a coefficient of an online product of coefficients already known.

    The body runs on Y_k = y_k s_k, s_k = 4^k k! (k-1)!: the law
    den(y_k) | s_k makes Y_k an integer at kappa = p with w = q^2, where
    y_k is the coefficient of B scaled by q^(k-1).  y^2 and y^3 are held at
    4^k k! (k-2)! and 4^k k! (k-3)!, c3(y) at s_k, y' at 4^(k+1) k!^2 (its
    J^k coefficient is Y_(k+1)), y'^2 and y'^3 at 4^(k+2) k!^2 and
    4^(k+3) k!^2.  Twice the J^m coefficient times 4^(m+2) m! (m-1)! reads

        8 Y_(m+1) = 2 sum_(i=2..m) N(m, i) C3_i Y_(m+2-i) - m kappa P3_(m-1)
                    - 6 (m-1) w sum_(k=2..m) C(m, k) C(m-2, k-2) Y_(k-1) P3_(m-k),

    so the pivot m(m+1) is absorbed by the scale and the 8 is the slack
    that the kappa/2 of c1 and the 4 in Y_1 = 4 leave.  The weight of the
    c3 y'' term is the Narayana number N(m, i) = C(m, i) C(m, i-1) / m, the
    natural weight C(m+1, i) C(m-1, i-1) of the product over m+1.  Each
    step's weights come from _bnf_weights, kept or built (_weights).
    """
    _check_order(order, 1)
    one, up, weigh, dot, div = ring
    rows = _binomials(order)  # every step's Pascal rows, the kept ones grown in one publication
    zero = 0 * one
    y, y2, y3, c3y = [zero, 4 * one], [zero, zero], [zero, zero, zero], [zero]
    p2, p3 = [], []  # y'^2, y'^3
    for m in range(1, order):
        w2, w3, square, narayana, wp3 = _weights("bnf", _bnf_weights, rows, m)
        # Y_m is known: extend every product through the coefficients it fixes
        if m > 1:
            y2.append(dot(w2, y[1:m], y[m - 1 : 0 : -1]))
        if m > 2:
            y3.append(dot(w3, y2[2:m], y[m - 2 : 0 : -1]))
        c3y.append(-y[m] + 2 * (m - 1) * up(y2[m]) + 4 * (m - 1) * (m - 2) * weigh(y3[m]))
        p2.append(dot(square, y[1 : m + 1], y[m:0:-1]))
        p3.append(dot(square, p2, y[m:0:-1]))
        mp3 = dot(wp3, y[1:m], p3[: m - 1][::-1])
        known = 2 * dot(narayana, c3y[2:], y[m:1:-1]) - m * up(p3[m - 1]) - 6 * (m - 1) * weigh(mp3)
        y.append(div(known, 8))
    return y, y2, rows


def _sigma_tail(ring, y: list, y2: list, rows: list, q: int) -> list:
    """sigma(J) - linear_log * J through J^order as (X, S) pairs, from the
    pass of _bnf(ring, order) in the same ring, its Y, Y^2 and Pascal rows,
    at kappa = p/q (q = 1 at KP_KAPPA).

    With 2 pi I_s = alpha log h + Q and alpha(B(J)) = J, the positive side
    2 pi I_s(B(J)) = J log J + J log(B/J) + Q(B(J)) leaves the tail
    -J - J log(B/J) - Q(B(J)), whose derivative is -log(B/J) - G B' with
    G = b o B, b the regular part of the log period.  G solves the period
    equation carried to J,

        (C G')' + c1(y) y' G = -K A' - (K A)',

    y = B, A = 1/y', K = c3(y)/y = 4 w y^2 + 2 kappa y - 1 and C = y K A =
    -J + ...; its J^(m-1) coefficient fixes G_m with pivot -m^2, G_0 = 0.

    The body runs on _bnf's Y_k = y_k s_k and holds A, K and K A at
    4^k k!^2, C at s_k, 2 c1(y) y' = kappa y' + 3 w (y^2)' at
    4^(k+1) k!^2, F = -K A' - (K A)' = 2 kappa + 8 w y - 2 (K A)' at
    4^(k+1) k! (k+1)!, G at 4^k (k-1)! k! and lambda = J (log(B/J))' at
    4^k k!^2.  The pivots left after scaling are 4 for A (from A y' = 1),
    4 m^2 for G and 4 (k+1) for lambda (from (B/J) lambda = J (B/J)'), each
    division checked exact.  The tail's coefficient sigma_(k+1) =
    -(lambda_k / k + (G y')_k) / (k+1), scaled by q^k, is one pair over
    k s_(k+1) q^k: the 1/k of the log, the 1/(k+1) of the last integral
    and the scale go there, with no lcm(1..k) inside the loop.

    Step m fixes every series at index m in one pass, reading the weights of
    _sigma_weights once, kept or built (_weights).
    """
    one, up, weigh, dot, div = ring
    zero, n = 0 * one, len(y) - 2  # n = order - 1
    a, k = [one], [-one]
    ka, cy, d, f = [dot(_weights("sigma", _sigma_weights, rows, 0)[0], k, a)], [zero], [], []
    g, lam = [zero], [zero]
    scales, tail = _y_scales(n + 1), [(zero, 1)] * 2
    for m, qm in zip(range(1, n + 1), _powers(q, q)):
        square, wc, wcg, wdg, wlam = _weights("sigma", _sigma_weights, rows, m)
        a.append(div(-dot(square[1:], y[2 : m + 2], a[::-1]), 4))
        k.append(4 * m * (m - 1) * weigh(y2[m]) + 2 * m * up(y[m]))
        ka.append(dot(square, k, a[::-1]))
        cy.append(dot(wc, y[1 : m + 1], ka[m - 1 :: -1]))
        d.append(up(y[m]) + 3 * (m - 1) * weigh(y2[m]))
        f.append(32 * (m - 1) * m * weigh(y[m - 1]) - 2 * ka[m])
        if m == 1:
            f[0] += 8 * up(one)  # the constant 2 kappa
        # J^(m-1) times 4^(m+1) m! (m-1)!: 4 m^2 G_m = m (sum over C G' and
        # 2 (m-1) sum over D G, both against G_(m-1)..G_1) - 4 F_(m-1)
        back = g[m - 1 : 0 : -1]
        known = dot(wcg, cy[2 : m + 1], back)
        known += 2 * (m - 1) * dot(wdg, d[: m - 1], back)
        g.append(div(m * known - 4 * f[m - 1], 4 * m * m))
        known = dot(wlam, y[2 : m + 1], lam[m - 1 : 0 : -1])
        lam.append(div(m * y[m + 1] - known, 4 * (m + 1)))
        gp = dot(wc, g[1 : m + 1], y[m:0:-1])  # (G y')_m at 4^(m+1) (m-1)! m!
        tail.append((-(4 * lam[m] + m * m * gp), m * scales[m + 1] * qm))
    return tail


def _scaled_sequences(kappa, n: int) -> tuple:
    """The a, b, bnf and sigma-tail coefficients through index n at kappa
    (KP_KAPPA, an int or a Fraction) as (X, S) pairs, each list behind a
    thunk, with the emit(X, S, d) that makes X / S one value of the ring, d
    the weight of X (read by the packed ring alone): the one entry to the
    four recurrences and the one place that reads kappa's type, which picks
    the one ring all four run on.  a and b keep no state, so each call
    builds its table anew (b runs its own A rows, and b(with_a=True) yields
    both pairs); bnf and sigma share one pass of _bnf."""
    if _is_exact_rational(kappa):
        p, q = Fraction(kappa).as_integer_ratio()
        w = q * q
        ring, emit = (1, (lambda x: x * p), (lambda x: x * w), _dot, _exact), (lambda x, s, d: Fraction(x, s))
    elif kappa == KP_KAPPA:
        q = 1
        ring, emit = (_Row((1,)), (lambda x: x), _row_weigh, _row_dot, _row_div), _parity_poly
    else:  # a float kappa would run silently at its 53-bit binary value, a bool as 0 or 1
        raise SeriesUsageError(f"kappa must be an int, a Fraction or KP_KAPPA, got {kappa!r}")
    _check_order(n, 0, SeriesUsageError, "table order must be non-negative")

    def a():
        return list(zip(_a_rows(ring, n), _powers(8 * q)))

    def b(with_a=False):
        lcms = _lcm_table(n)
        rows = zip(_b_rows(ring, lcms), _powers(8 * q), lcms)
        if with_a:  # b alone makes no a pairs: short-lived ones among the kept b pairs raised peak RSS
            return (((x, s), (y, s * lcm)) for (x, y), s, lcm in rows)
        return [(y, s * lcm) for (_, y), s, lcm in rows]

    bnf_pass = functools.cache(lambda: _bnf(ring, n))

    def bnf():  # Y_k over s_k q^(k-1), and Y_0 = 0 over 1
        return list(zip(bnf_pass()[0], map(operator.mul, _y_scales(n), itertools.chain((1,), _powers(q)))))

    return emit, {"a": a, "b": b, "bnf": bnf, "sigma": lambda: _sigma_tail(ring, *bnf_pass(), q)}


def _sequences(kappa, n: int) -> dict:
    """The a, b, bnf and sigma-tail coefficients through index n at kappa,
    each behind a thunk: the pairs of _scaled_sequences, each emitted as one
    Fraction or KappaPoly."""
    emit, scaled = _scaled_sequences(kappa, n)

    def emitted(pairs, first):  # first: the weight of the pair at index 0
        return lambda: [emit(x, s, d) for d, (x, s) in enumerate(pairs(), first)]

    return {name: emitted(pairs, -1 if name in ("bnf", "sigma") else 0) for name, pairs in scaled.items()}


def _closed_form(order: int) -> tuple[list, list]:
    """a_0..a_order and b_0..b_order from the terminating trinomial sum
    a_n = 4^{-n} C(2n, n) sum_k C(2n-2k; k, n-k, n-2k) (kappa/2)^{n-2k}; b_n,
    the indicial derivative of the deformed a_n at root 0, is the same sum with
    f_{n,k} = 2 O_n + 2 O_{n-k} - 2 H_n on each term.  In integers, independent
    of the recurrences: A_n has 4^k C(2n, n) T(n, k) at kappa^(n-2k) over 8^n,
    B_n that times f_{n,k} L_n over 8^n L_n, L_n = lcm(1..2n-1), with O_m L_n
    and H_n L_n running.  g = gcd(8^n L_n, 2 C(2n, n)), nearly all that B_n's
    reduction would remove (391 bits at n = 197, where 6 bits are left), is
    cancelled once per row: the b row is built with 2 C(2n, n) / g over
    8^n L_n / g.  Each row is held packed, its kappa^(n-2k) coefficient
    at entry k, and made a KappaPoly by _parity_poly, as the recursion's."""
    a, b = [KP_ONE], [KP_ZERO]
    lcms, steps, odd, harmonic = _lcm_table(2 * order), _lcm_steps(2 * order), [0], 0
    for n in range(1, order + 1):
        ln, step = lcms[2 * n - 1], steps[2 * n - 1] * steps[2 * n - 2]
        if step > 1:
            odd, harmonic = [o * step for o in odd], harmonic * step
        odd.append(odd[-1] + _exact(ln, 2 * n - 1))
        harmonic += _exact(ln, n)
        t = central = math.comb(2 * n, n)  # T(n, 0)
        den = 8**n * ln
        g = math.gcd(den, 2 * central)
        cancelled = 2 * central // g
        row_a, row_b = [], []
        for k in range(n // 2 + 1):
            c = t << 2 * k
            row_a.append(central * c)
            row_b.append(cancelled * c * (odd[n] + odd[n - k] - harmonic))
            t = _exact(t * (n - 2 * k) * (n - 2 * k - 1), 2 * (k + 1) * (2 * n - 2 * k - 1))
        a.append(_parity_poly(row_a, 8**n, n))
        b.append(_parity_poly(row_b, den // g, n))
    return a, b


def frobenius_a_at(kappa: Fraction, order: int) -> list[Fraction]:
    """a_n evaluated at an exact rational kappa (fast path for long tables)."""
    return _sequences(kappa, order)["a"]()


def frobenius_b_at(kappa: Fraction, order: int) -> list[Fraction]:
    """b_n evaluated at an exact rational kappa (fast path for long tables)."""
    return _sequences(kappa, order)["b"]()


class FrobeniusTable(_Frozen):
    """Paired a_n / b_n tables with the standard normalization a0 = 1, b0 = 0."""

    __slots__ = ("order", "a", "b")

    def __init__(self, order: int, a: tuple[KappaPoly, ...], b: tuple[KappaPoly, ...]):
        if a[0] != KP_ONE or b[0] != KP_ZERO:
            raise InternalConsistencyError("table normalization broken")
        self._assign(order, a, b)


def frobenius_table(order: int, method: str = "recursion") -> FrobeniusTable:
    """a_0..a_order of the regular solution T_r = sum a_n h^n and b_0..b_order
    of the log solution T_s = T_r log h + sum b_n h^n, as kappa-polynomials,
    by the two independent routes: 'recursion' runs the a recursion from
    a_0 = 1 and the b recursion on it, 'closed_form' the trinomial sums.
    """
    _check_order(order, 0)
    if method == "recursion":
        emit, scaled = _scaled_sequences(KP_KAPPA, order)
        a, b = zip(*((emit(*x, n), emit(*y, n)) for n, (x, y) in enumerate(scaled["b"](with_a=True))))
    elif method == "closed_form":
        a, b = _closed_form(order)
    else:
        raise SeriesUsageError(f"unknown method {method!r}")
    return FrobeniusTable(order, tuple(a), tuple(b))


# ---------------------------------------------------------------------------
# action series and the particular combinations on both sides of the separatrix
# ---------------------------------------------------------------------------


class ActionSeries(NamedTuple):
    """Basis solutions in h.  Action entries carry the 2*pi scaling:

    action_regular  = 2 pi I_r = h + O(h^2)
    action_singular = 2 pi I_s = (2 pi I_r) log h + sum (b_n - a_n/(n+1)) h^{n+1}/(n+1)
    """

    period_regular: PowerSeries
    period_singular: LogSeries
    action_regular: PowerSeries
    action_singular: LogSeries


def build_action_series(order: int) -> ActionSeries:
    """T_r, T_s through h^order and their termwise integrals (one order higher)."""
    _check_order(order, 1)
    table = frobenius_table(order)
    t_reg = PowerSeries("h", table.a)
    t_sing = LogSeries(t_reg, PowerSeries("h", table.b))
    return ActionSeries(t_reg, t_sing, t_reg.integrate(), t_sing.integrate())


LOG64_RATIO = "log64_over_kappa_sq_plus_4"   # log(64 / (kappa^2 + 4))
ATAN_RHO = "atan_rho"                        # atan(rho)
ATAN_INV_RHO = "atan_inv_rho"                # atan(1/rho)
_OVER_PI = "_over_pi"                        # suffix: tag + _OVER_PI is the tag's constant / pi


class SymbolicConstant(_Frozen):
    """Rational multiple of a tagged transcendental constant.

    Kept symbolic so the polynomial channel stays exact; numeric values come
    from the oracle module on demand.
    """

    __slots__ = ("kind", "factor")

    def __init__(self, kind: str, factor: Fraction = Fraction(1)):
        self._assign(kind, factor)

    def __neg__(self):
        return SymbolicConstant(self.kind, -self.factor)


class BetaAction(NamedTuple):
    """One side of the separatrix as k1 * I_r + k2 * I_s + k3.

    k2 is +1 on the positive-energy side and -1 on the negative side; the log
    channel of I_s is understood as log|h| off the separatrix.  ``area`` is
    2 pi k3, the symplectic area enclosed by the separatrix on that side.
    """

    side: str
    k1: SymbolicConstant
    k2: int
    k3: SymbolicConstant
    area: SymbolicConstant
    series: ActionSeries


# each side: k2 and the atan tag t of both k3 = I_beta(0) = t / pi and the area 2 pi k3 = 2 t
_SIDES = {"plus": (1, ATAN_INV_RHO), "minus": (-1, ATAN_RHO)}


def _side_constants(side: str) -> tuple:
    """k1, k2, k3 and area of one side's BetaAction, all from its _SIDES entry."""
    if side not in _SIDES:
        raise SeriesUsageError(f"unknown side {side!r}")
    k2, tag = _SIDES[side]
    k1 = SymbolicConstant(LOG64_RATIO, Fraction(-k2, 2))
    return k1, k2, SymbolicConstant(tag + _OVER_PI), SymbolicConstant(tag, Fraction(2))


def _truncate_actions(pair: tuple[BetaAction, BetaAction], order: int) -> tuple[BetaAction, BetaAction]:
    """Both sides at a lower order, sharing one ActionSeries: the periods
    through h^order, the actions one order higher."""
    s = pair[0].series
    series = ActionSeries(
        s.period_regular.truncate(order),
        s.period_singular.truncate(order),
        s.action_regular.truncate(order + 1),
        s.action_singular.truncate(order + 1),
    )
    return tuple(side._replace(series=series) for side in pair)


@_keeps_highest(_truncate_actions, 1)
def assemble_beta_actions(order: int) -> tuple[BetaAction, BetaAction]:
    """The two separatrix-side actions through h^(order+1).

    I_beta(+-) = -+ (1/2) log(64/(kappa^2+4)) I_r +- I_s + atan(rho^(-+1))/pi.
    The pair at the highest order asked for is kept, and a lower order is
    its truncation.
    """
    series = build_action_series(order)
    return tuple(BetaAction(side, *_side_constants(side), series) for side in _SIDES)


# ---------------------------------------------------------------------------
# residual of the ODE, including the log channel
# ---------------------------------------------------------------------------


def _theta_minus(a: list, j: int) -> list:
    """(theta - j) applied to a coefficient list, theta = h d/dh."""
    return [c * (n - j) for n, c in enumerate(a)]


class PFResidual(NamedTuple):
    """Residual of the ODE applied to a candidate solution, split by channel.

    Exponents may be negative (they arise from differentiating the log
    channel); a true solution leaves both channels empty.
    """

    log_channel: dict[int, KappaPoly]
    power_channel: dict[int, KappaPoly]
    cutoff: int

    @property
    def is_zero(self) -> bool:
        return not self.log_channel and not self.power_channel


def pf_residual(series: PowerSeries | LogSeries, which: str = "action") -> PFResidual:
    """Substitute a series into the action (third order) or period (second
    order) equation; the residual must vanish identically for solutions.

    The residual is only representable up to an exponent cutoff set by the
    truncation order of the input.
    """
    pf = derive_pf_coefficients()
    # the period equation is the action equation with one derivative fewer
    s = {"action": 1, "period": 0}.get(which)
    if s is None:
        raise SeriesUsageError(f"unknown equation {which!r}")
    weights = [(pf.c1 * 2, s), (pf.c2 * 2, s + 1), (pf.c3 * 2, s + 2)]
    if series.order < 4:
        raise SeriesUsageError("need a series of order >= 4")
    if isinstance(series, LogSeries):
        L, R = list(series.log_part.coeffs), list(series.regular_part.coeffs)
    else:
        L, R = [], list(series.coeffs)
    top = max(k for _, k in weights)

    def lowest_power(poly: PowerSeries) -> int:
        for n, c in enumerate(poly.coeffs):
            if c:
                return n
        return poly.order

    cutoff = min(series.order - k + lowest_power(poly) for poly, k in weights)
    # h^top times the residual: h^k d^k/dh^k = theta (theta - 1) ... (theta - k + 1)
    # and (theta - j)(L log h + R) = ((theta - j) L) log h + (L + (theta - j) R),
    # so every exponent stays non-negative
    falling = [(L, R)]
    for j in range(top):
        L, R = _theta_minus(L, j), add_list(L, _theta_minus(R, j))
        falling.append((L, R))
    channels = []
    for ch in (0, 1):
        out: list = []
        for poly, k in weights:
            shifted = [KP_ZERO] * (top - k) + list(poly.coeffs)
            out = add_list(out, mul_trunc(shifted, falling[k][ch], cutoff + top))
        channels.append({e - top: c for e, c in enumerate(out) if c})
    return PFResidual(*channels, cutoff)
