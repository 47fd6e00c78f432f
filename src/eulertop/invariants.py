"""Normal form as the inverse of the regular action, the symplectic invariant, and convergence.

The J-defining series is the regular action I_alpha(h) = 2 pi I_r(h); its
compositional inverse is the Birkhoff normal form h = B(J).  Composing the
separatrix-side actions with B and stripping the universal singular part

    2 pi (I_beta(+-) o I_alpha^{-1})(J) = A(+-) +- J log(+-J) -+ J -+ sigma(J)

leaves the invariant sigma.  Its linear coefficient is the symbolic constant
(1/2) log(64/(kappa^2+4)); the higher coefficients are exact polynomials in
kappa.

Sign bookkeeping on the negative-energy side: with J = -J' (J' > 0 formally)
the inner series becomes C(J') = -B(-J') and log(-h) = log J' + log(C/J'),
so the extraction runs entirely in J' and maps back by J' -> -J.  Side by
side:

    quantity          positive side            negative side (in J')
    inner series      B(J)                     C(J') = -B(-J')
    log channel       +[P o B] log J           -[P o B(-J')] log J' = +J' log J'
    singular weight   k2 = +1                  k2 = -1
    defining split    A+ + J log J - J - s     A- + J' log J' - J' + s(-J')

Both branches must produce the same sigma; the report carries that check.

Neither B nor the positive-side tail is found by reversion or composition.
Both come from the period equation (c3 T')' + c1 T = 0 carried to J, one
coefficient at a time (online series solving, van der Hoeven 2002), in
O(n^2) ring operations:

  * B: with T_r(B) = 1/B', the equation integrates once to
    c3(y) y'' = y'^3 int_0^J c1(y), y = B(J); the J^m coefficient fixes
    y_{m+1} with pivot -m(m+1).
  * the tail: G = b o B, b the regular part of the log period, solves a
    linear equation whose J^(m-1) coefficient fixes G_m with pivot -m^2;
    then tail' = -log(B/J) - G B'.

Both recurrences, and the a/b recursions, are written once over a generic
ring with one weight argument w.  The symbolic tables pass kappa = KP_KAPPA
and w = 1.  At a rational kappa = p/q the substitution J = q u, h = q Y
gives Y(u) = B(q u)/q and a period equation with integer coefficients:
kappa becomes p and the constants 3, 4 and 8 of c1, c3, K and K'A take
w = q^2.  The recurrences then return Y_n = y_n q^(n-1) and the scaled tail
T_n = sigma_n q^(n-1), whose denominators come from the pivots and small
constants, not from q; each coefficient is back-substituted once
(series.unscale_list).

The checks on that route stay independent of it: B equals the Lie normal
form (tests), the negative side composes the actions with B, must invert
to J and must give the same sigma (_extract_minus), and the oracle
compares with quadrature.  series.revert_trunc remains the generic
reversion behind PowerSeries.revert.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .oracle import log64_ratio, rho_for_kappa
from .picardfuchs import (
    BetaAction,
    SymbolicConstant,
    _a_recursion,
    _b_recursion,
    assemble_beta_actions,
    frobenius_table,
)
from .series import (
    KP_KAPPA,
    KP_ZERO,
    InternalConsistencyError,
    PowerSeries,
    SeriesUsageError,
    _cauchy,
    add_list,
    deriv_list,
    integrate_list,
    log_unit_trunc,
    mul_trunc,
    recip_trunc,
    unscale_list,
)

__all__ = [
    "InvariantReport",
    "RadiusReport",
    "PendulumRow",
    "alpha_action",
    "bnf_via_reversion",
    "extract_sigma",
    "radius_analysis",
    "pendulum_compare",
    "log64_ratio_log2_exact",
    "PENDULUM_LEADING",
    "MARGIN_FLOOR",
]


# The recurrences for B and the positive-side tail run on plain coefficient
# lists over any exact ring: the symbolic tables take kappa = KP_KAPPA,
# zero = KP_ZERO and w = 1, the radius experiments at kappa = p/q take
# kappa = p, zero = Fraction(0) and w = q^2 and return the scaled Y_n and T_n.
# Every sum over coefficients already known is one series._cauchy call on an
# online list (y', y'', G', ...) that carries its derivative weight once.


def _bnf(kappa, order: int, zero, w) -> list:
    """B(J) through J^order, the compositional inverse of alpha.

    With T_r(y) = 1/y' for y = B(J), the self-adjoint period equation
    (c3 T')' + c1 T = 0 integrates once to

        c3(y) y'' = y'^3 M,    M = int_0^J c1(y),

    c3(h) = -h + 2 kappa h^2 + 4 w h^3 and c1(h) = kappa/2 + 3 w h (w = 1
    for B itself, w = q^2 for the scaled Y at kappa = p/q).  Its J^m
    coefficient fixes y_{m+1} with pivot -m(m+1); every other term is a
    coefficient of an online product of coefficients already known.
    """
    if order < 1:
        raise SeriesUsageError("need order >= 1")
    y = [zero, zero + 1]
    y2, y3, c3y = [zero], [zero], [zero]  # y^2, y^3, c3(y)
    mint = [zero, kappa * Fraction(1, 2)]  # M, with M' = c1(y) = kappa/2 + 3 w y
    p, p2, p3, ypp = [], [], [], []  # y', y'^2, y'^3, y''
    for m in range(1, order):
        # y_m is known: extend every product through the coefficients it fixes
        y2.append(_cauchy(y, y, m, 1, zero))
        y3.append(_cauchy(y2, y, m, 1, zero))
        c3y.append(-y[m] + kappa * 2 * y2[m] + y3[m] * (4 * w))
        mint.append(y[m] * Fraction(3 * w, m + 1))
        p.append(y[m] * m)
        p2.append(_cauchy(p, p, m - 1, 0, zero))
        p3.append(_cauchy(p2, p, m - 1, 0, zero))
        # J^m: -m(m+1) y_{m+1} + sum_{i>=2} c3(y)_i y''_{m-i} = (M y'^3)_m
        known = _cauchy(c3y, ypp, m, 2, zero) - _cauchy(mint, p3, m, 1, zero)
        y.append(known * Fraction(1, m * (m + 1)))
        ypp.append(y[m + 1] * ((m + 1) * m))
    return y


def _sigma_tail(kappa, bnf: list, order: int, zero, w) -> list:
    """sigma(J) - linear_log * J through J^order, from B(J) through J^order or beyond.

    With 2 pi I_s = alpha log h + Q and alpha(B(J)) = J, the positive side
    2 pi I_s(B(J)) = J log J + J log(B/J) + Q(B(J)) leaves the tail
    -J - J log(B/J) - Q(B(J)), whose derivative is -log(B/J) - G B' with
    G = b o B, b the regular part of the log period.  G solves the period
    equation carried to J,

        (C G')' + c1(y) y' G = -K A' - (K A)',

    y = B, A = 1/y', K = c3(y)/y = 4 w y^2 + 2 kappa y - 1 and C = y K A =
    -J + ...; its J^(m-1) coefficient fixes G_m with pivot -m^2, G_0 = 0.
    The weight w is that of _bnf, which gave bnf.
    """
    y = bnf[: order + 1]
    n = order - 1
    p = deriv_list(y)
    a = recip_trunc(p, n, zero)
    k = add_list(
        [c * (4 * w) + kappa * 2 * d for c, d in zip(mul_trunc(y, y, n, zero), y)], [zero - 1], zero
    )
    ka = mul_trunc(k, a, n, zero)
    c = mul_trunc(y, ka, n, zero)
    d = mul_trunc(add_list([kappa * Fraction(1, 2)], [x * (3 * w) for x in y], zero), p, n, zero)
    # -K A' - (K A)' = K' A - 2 (K A)', and K' A = 8 w y + 2 kappa since A y' = 1
    f = add_list([kappa * 2], [u * (8 * w) - v * 2 for u, v in zip(y, deriv_list(ka))], zero)
    g, gp = [zero], []  # G, G'
    for m in range(1, n + 1):
        known = _cauchy(c, gp, m, 2, zero) * m + _cauchy(d, g, m - 1, 0, zero)
        g.append((known - f[m - 1]) * Fraction(1, m * m))
        gp.append(g[m] * m)
    log_unit = log_unit_trunc(y[1:], n, zero)
    return integrate_list([-(u + v) for u, v in zip(log_unit, mul_trunc(g, p, n, zero))], zero)


def alpha_action(order: int) -> PowerSeries:
    """The vanishing-cycle action 2 pi I_r(h) = h + O(h^2), through h^order."""
    return PowerSeries("h", frobenius_table(order - 1).a).integrate()


def bnf_via_reversion(order: int) -> PowerSeries:
    """Normal form B(J) as the compositional inverse of the regular action."""
    return PowerSeries("J", tuple(_bnf(KP_KAPPA, order, KP_ZERO, 1)))


@dataclass(frozen=True)
class InvariantReport:
    """sigma(J) = linear_log * J + tail(J), with the separatrix areas attached."""

    order: int
    linear_log: SymbolicConstant
    tail: PowerSeries
    area_plus: SymbolicConstant
    area_minus: SymbolicConstant
    branch_consistent: bool


def _extract_minus(beta: BetaAction, bnf: PowerSeries, order: int):
    bundle = beta.series
    inner = -bnf.reflect()  # J' -> -B(-J'), the positive formal variable
    outer_log = -bundle.action_regular.reflect()
    outer_reg = -bundle.action_singular.regular_part.reflect()
    composed = type(bundle.action_singular)(outer_log, outer_reg).compose_with_log(inner)
    ident = PowerSeries.identity("J", order)
    if composed.log_part != ident:
        raise InternalConsistencyError("regular action did not invert to J")
    sigma_at_minus = ident + composed.regular_part.truncate(order)
    # the symbolic channel rides on -k1 * J' which reflects back to +k1 * J
    return beta.k1, sigma_at_minus.reflect()


def extract_sigma(order: int) -> InvariantReport:
    """Invariant through J^order, extracted on both sides of the separatrix.

    The positive-side result is the canonical output; the negative side is a
    mandatory consistency assertion.
    """
    if order < 2:
        raise SeriesUsageError("need order >= 2")
    plus, minus = assemble_beta_actions(order + 1)
    bnf = _bnf(KP_KAPPA, order + 1, KP_ZERO, 1)
    lin_plus = -plus.k1
    tail_plus = PowerSeries("J", tuple(_sigma_tail(KP_KAPPA, bnf, order, KP_ZERO, 1)))
    lin_minus, tail_minus = _extract_minus(minus, PowerSeries("J", tuple(bnf)), order)
    consistent = (tail_plus == tail_minus) and (lin_plus == lin_minus)
    if not consistent:
        raise InternalConsistencyError(
            "separatrix-side extractions produced different invariants"
        )
    if tail_plus.coefficient(0) or tail_plus.coefficient(1):
        raise InternalConsistencyError("invariant tail leaked into J^0 or J^1")
    return InvariantReport(
        order=order,
        linear_log=lin_plus,
        tail=tail_plus,
        area_plus=plus.area,
        area_minus=minus.area,
        branch_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusReport:
    """Ratio-test radius estimates for one coefficient sequence."""

    name: str
    kappa: float
    ns: tuple[int, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    theoretical: float | None
    skipped: tuple[int, ...]


def _sequences(kappa: Fraction, nmax: int) -> dict:
    """The coefficient sequences at one kappa = p/q, each behind a thunk.

    The recurrences run over p with weight w = q^2 (J = q u, h = q Y): they
    give A_n = a_n q^n, B_n = b_n q^n, Y_n = y_n q^(n-1) and the tail's
    T_n = sigma_n q^(n-1), and each thunk back-substitutes once per
    coefficient, so it returns the exact a_n, b_n, y_n and sigma_n.  A is
    built at most once for a and b, Y at most once for bnf and sigma.
    """
    p, q = kappa.as_integer_ratio()
    w, zero = q * q, Fraction(0)
    scaled_a = functools.cache(lambda: _a_recursion(p, nmax, zero, w))
    scaled_y = functools.cache(lambda: _bnf(p, nmax, zero, w))
    return {
        "a": lambda: unscale_list(scaled_a(), q, 0),
        "b": lambda: unscale_list(_b_recursion(p, scaled_a(), zero, w), q, 0),
        "bnf": lambda: unscale_list(scaled_y(), q, 1),
        "sigma": lambda: unscale_list(_sigma_tail(p, scaled_y(), nmax, zero, w), q, 1),
    }


def _ratio_estimates(coeffs: Sequence[Fraction]):
    nonzero = [n for n, c in enumerate(coeffs) if c]
    skipped = tuple(
        n
        for n in range(nonzero[0], nonzero[-1] + 1)
        if not coeffs[n]
    ) if nonzero else ()
    ns, ratios = [], []
    for n1, n2 in zip(nonzero, nonzero[1:]):
        gap = n2 - n1
        c1, c2 = coeffs[n1], coeffs[n2]
        # int true division rounds correctly, as float(c1 / c2) does, without its gcds
        est = (abs(c1.numerator * c2.denominator) / abs(c1.denominator * c2.numerator)) ** (1.0 / gap)
        ns.append(n1)
        ratios.append(est)
    return tuple(ns), tuple(ratios), skipped


def _aitken(xs: Sequence[float]) -> list[float]:
    out = []
    for i in range(len(xs) - 2):
        d1 = xs[i + 1] - xs[i]
        d2 = xs[i + 2] - 2 * xs[i + 1] + xs[i]
        if d2 != 0.0:
            out.append(xs[i] - d1 * d1 / d2)
    return out


def radius_analysis(
    kappa: Fraction,
    nmax: int,
    targets: Iterable[str] = ("a", "b", "bnf", "sigma"),
) -> list[RadiusReport]:
    """Ratio-test radius estimates at an exact rational kappa.

    Coefficient sequences are computed exactly, converted to floats, and the
    consecutive-ratio estimates |c_n / c_{n+1}| are accelerated by a single
    Aitken delta-squared step.  The a and b sequences carry the known radius
    min(rho, 1/rho) / 2 for comparison.  The bnf and sigma targets share
    one B(J) within the call; nothing is kept between calls.
    """
    kappa = Fraction(kappa)
    if nmax < 20:
        raise SeriesUsageError("need nmax >= 20 for a stable estimate")
    try:
        rho = rho_for_kappa(float(kappa))
    except OverflowError:
        rho = math.inf
    if not (math.isfinite(rho) and rho > 0):
        raise SeriesUsageError(
            "|kappa| is too large: rho = (kappa + sqrt(kappa^2 + 4))/2 is not a positive float"
        )
    known = 0.5 * min(rho, 1.0 / rho)
    sequences = _sequences(kappa, nmax)
    reports = []
    for name in targets:
        if name not in sequences:
            raise SeriesUsageError(f"unknown sequence {name!r}")
        coeffs = sequences[name]()
        ns, ratios, skipped = _ratio_estimates(coeffs)
        accelerated = _aitken(ratios)
        extrapolated = accelerated[-1] if accelerated else (ratios[-1] if ratios else float("nan"))
        reports.append(
            RadiusReport(
                name=name,
                kappa=float(kappa),
                ns=ns,
                ratios=ratios,
                extrapolated=extrapolated,
                theoretical=known if name in ("a", "b") else None,
                skipped=skipped,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# comparison with the pendulum separatrix invariant
# ---------------------------------------------------------------------------

PENDULUM_LEADING = math.log(32.0)
MARGIN_FLOOR = math.log(8.0)


@dataclass(frozen=True)
class PendulumRow:
    kappa: float
    euler_leading: float
    margin: float


def pendulum_compare(kappa_grid: Iterable[float]) -> list[PendulumRow]:
    """Leading invariant term of the top against the pendulum value log 32.

    The top's leading term (1/2) log(64/(kappa^2+4)) peaks at log 4 for
    kappa = 0, so the margin log 32 - leading is at least log 8 everywhere.
    """
    rows = []
    for kappa in kappa_grid:
        leading = 0.5 * log64_ratio(kappa)
        rows.append(PendulumRow(float(kappa), leading, PENDULUM_LEADING - leading))
    return rows


def log64_ratio_log2_exact(kappa: Fraction) -> Fraction | None:
    """Exact value of (1/2) log2(64/(kappa^2+4)) when the ratio is a power of two.

    Returns None when 64/(kappa^2+4) is not an exact power of two; at
    kappa = 0 the ratio is 16 and the result is the exact exponent 2
    (the leading invariant term log 4, in units of log 2).
    """
    ratio = Fraction(64) / (Fraction(kappa) ** 2 + 4)
    num, den = ratio.numerator, ratio.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return Fraction(num.bit_length() - den.bit_length(), 2)
