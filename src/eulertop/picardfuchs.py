"""Picard-Fuchs equation of the action integral and its Frobenius solutions.

The action I(h) of the energy curve u^2 = (2h - z) w(z)^2 with
w(z)^2 = z (z^2 + kappa z - 1) satisfies the third order linear ODE

    [w(2h)]^2 I''' + 2 (12 h^2 + 4 kappa h - 1) I'' + (6 h + kappa) I' = 0

and the period T = 2 pi I' the corresponding second order one.  The finite
singular points 2h in {0, -rho, 1/rho} are all regular; h = 0 has the double
indicial root 0, so the solution basis at the saddle is a regular series T_r
and a log solution T_s = T_r log h + ...  (The point h = infinity is also
regular singular, with indicial roots 1/2 and 3/2; it is not expanded here.)

Scaling convention: the exact rational channel stores 2*pi*I_r and 2*pi*I_s
(so 2*pi*I_r = h + O(h^2)); the transcendental constants of the particular
combinations are kept as tagged symbolic atoms and only turned into floats
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (
    InternalConsistencyError,
    KP_KAPPA,
    KP_ONE,
    KP_ZERO,
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    _at,
    add_list,
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
    "frobenius_a",
    "frobenius_b",
    "frobenius_a_at",
    "frobenius_b_at",
    "frobenius_table",
    "harmonic_numbers",
    "odd_harmonic_numbers",
    "build_action_series",
    "assemble_beta_actions",
    "LOG64_RATIO",
    "ATAN_RHO",
    "ATAN_INV_RHO",
    "ATAN_RHO_OVER_PI",
    "ATAN_INV_RHO_OVER_PI",
]


# ---------------------------------------------------------------------------
# the ODE coefficients, derived rather than hard coded
# ---------------------------------------------------------------------------

# polynomials in h with KappaPoly coefficients, as plain lists (exact, no
# truncation); z-polynomials are lists of such h-polynomials


def _hp_mul(a, b):
    return mul_trunc(a, b, len(a) + len(b) - 2, KP_ZERO)


def _zp_mul(A, B):
    out = [[] for _ in range(len(A) + len(B) - 1)]
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            out[i + j] = add_list(out[i + j], _hp_mul(x, y), KP_ZERO)
    return out


def _zp_add(A, B):
    n = max(len(A), len(B))
    return [add_list(_at(A, i, []), _at(B, i, []), KP_ZERO) for i in range(n)]


def _zp_coeff(A, j):
    return strip_list(_at(A, j, []))


@dataclass(frozen=True)
class PFCoefficients:
    """Coefficients c0..c3 of the total-differential identity, polynomials in h."""

    c0: PowerSeries
    c1: PowerSeries
    c2: PowerSeries
    c3: PowerSeries


def derive_pf_coefficients() -> PFCoefficients:
    """Solve for the c_i with sum c_i d^i zeta / dh^i equal to an exact differential.

    Multiplying through by w(z) (2h - z)^(5/2) turns both sides into cubic
    polynomials in z; matching the four z-coefficients gives a triangular
    4x4 linear system over polynomials in (h, kappa) whose pivots are
    rational constants.
    """
    one = [KP_ONE]
    two_h_minus_z = [[KP_ZERO, KappaPoly.constant(2)], [-KP_ONE]]
    # basis factors from d^i/dh^i of (2h - z)^(1/2): 1, 1, -1, 3 times
    # descending half-integer powers
    sq = _zp_mul(two_h_minus_z, two_h_minus_z)
    basis = [
        _zp_mul(sq, two_h_minus_z),                      # c0: (2h - z)^3
        sq,                                              # c1: (2h - z)^2
        [[-c for c in p] for p in two_h_minus_z],        # c2: -(2h - z)
        [[KappaPoly.constant(3)]],                       # c3: 3
    ]
    # w^2 = z^3 + kappa z^2 - z and w w' = (1/2) d(w^2)/dz
    w2 = [[], [-KP_ONE], [KP_KAPPA], [KP_ONE]]
    wwp = [
        [KappaPoly.constant(Fraction(-1, 2))],
        [KP_KAPPA],
        [KappaPoly.constant(Fraction(3, 2))],
    ]
    rhs = _zp_add(
        _zp_mul(wwp, two_h_minus_z),
        [[c * Fraction(3, 2) for c in p] for p in w2],
    )

    solution: list = [None] * 4
    for j in (3, 2, 1, 0):
        unknown = 3 - j
        acc = _zp_coeff(rhs, j)
        for i in range(unknown):
            coeff = _zp_coeff(basis[i], j)
            if coeff and solution[i]:
                acc = add_list(acc, [-c for c in _hp_mul(coeff, solution[i])], KP_ZERO)
        pivot = _zp_coeff(basis[unknown], j)
        if len(pivot) != 1 or pivot[0].degree > 0:
            raise InternalConsistencyError("linear system for c_i is not triangular")
        solution[unknown] = [c * (1 / pivot[0].coefficient(0)) for c in acc]

    def as_series(hp):
        hp = strip_list(hp)
        return PowerSeries("h", tuple(hp) if hp else (KP_ZERO,))

    return PFCoefficients(*(as_series(s) for s in solution))


_PF_CACHE: PFCoefficients | None = None


def _pf() -> PFCoefficients:
    global _PF_CACHE
    if _PF_CACHE is None:
        _PF_CACHE = derive_pf_coefficients()
    return _PF_CACHE


# ---------------------------------------------------------------------------
# Frobenius coefficient tables
# ---------------------------------------------------------------------------


# The recursions run over any exact ring: the symbolic tables take
# kappa = KP_KAPPA and zero = KP_ZERO, the fixed-kappa tables a Fraction kappa
# and zero = Fraction(0).


def _a_recursion(kappa, order: int, zero) -> list:
    """a_0..a_order from a_n = ((2n-1)/n^2) ((kappa/2)(2n-1) a_{n-1} + (2n-3) a_{n-2})."""
    if order < 0:
        raise SeriesUsageError("table order must be non-negative")
    out = [zero + 1]
    for n in range(1, order + 1):
        t = out[n - 1] * kappa * Fraction(2 * n - 1, 2)
        if n >= 2:
            t = t + out[n - 2] * (2 * n - 3)
        out.append(t * Fraction(2 * n - 1, n * n))
    return out


def _b_recursion(kappa, a: list, zero) -> list:
    """b_0..b_order of the log solution, given a_0..a_order."""
    out = [zero]
    for n in range(1, len(a)):
        t = kappa * a[n - 1] + kappa * out[n - 1] * Fraction(n * (2 * n - 1), 2)
        if n >= 2:
            t = t + out[n - 2] * (n * (2 * n - 3))
        t = t * (2 * n - 1)
        if n >= 2:
            t = t + a[n - 2] * (8 * n - 6)
        out.append(t * Fraction(1, n**3))
    return out


def frobenius_a(order: int, method: str = "recursion") -> list[KappaPoly]:
    """Coefficients a_0..a_order of the regular solution T_r = sum a_n h^n.

    'recursion' runs a_n = ((2n-1)/n^2) ((kappa/2)(2n-1) a_{n-1} + (2n-3) a_{n-2})
    with a_0 = 1; 'closed_form' evaluates the terminating trinomial sum
    a_n = 4^{-n} C(2n, n) sum_k C(2n-2k; k, n-k, n-2k) (kappa/2)^{n-2k}.
    """
    if order < 0:
        raise SeriesUsageError("table order must be non-negative")
    if method == "recursion":
        return _a_recursion(KP_KAPPA, order, KP_ZERO)
    if method == "closed_form":
        out = []
        for n in range(order + 1):
            pref = Fraction(math.comb(2 * n, n), 4**n)
            coeffs = [Fraction(0)] * (n + 1)
            for k in range(n // 2 + 1):
                tri = math.factorial(2 * n - 2 * k) // (
                    math.factorial(k) * math.factorial(n - k) * math.factorial(n - 2 * k)
                )
                coeffs[n - 2 * k] += pref * tri * Fraction(1, 2 ** (n - 2 * k))
            out.append(KappaPoly(tuple(coeffs)))
        return out
    raise SeriesUsageError(f"unknown method {method!r}")


def harmonic_numbers(order: int) -> list[Fraction]:
    out = [Fraction(0)]
    for n in range(1, order + 1):
        out.append(out[-1] + Fraction(1, n))
    return out


def odd_harmonic_numbers(order: int) -> list[Fraction]:
    out = [Fraction(0)]
    for n in range(1, order + 1):
        out.append(out[-1] + Fraction(1, 2 * n - 1))
    return out


def frobenius_b(order: int, method: str = "recursion") -> list[KappaPoly]:
    """Coefficients b_0..b_order of the log solution T_s = T_r log h + sum b_n h^n.

    b_n is the indicial derivative of the deformed coefficient a_n at root 0;
    the closed form carries the harmonic-number factor
    f_{n,k} = 2 O_n + 2 O_{n-k} - 2 H_n on each trinomial term.
    """
    if order < 0:
        raise SeriesUsageError("table order must be non-negative")
    if method == "recursion":
        return _b_recursion(KP_KAPPA, frobenius_a(order), KP_ZERO)
    if method == "closed_form":
        H = harmonic_numbers(order)
        O = odd_harmonic_numbers(order)
        out = []
        for n in range(order + 1):
            pref = Fraction(math.comb(2 * n, n), 4**n)
            coeffs = [Fraction(0)] * (n + 1)
            for k in range(n // 2 + 1):
                tri = math.factorial(2 * n - 2 * k) // (
                    math.factorial(k) * math.factorial(n - k) * math.factorial(n - 2 * k)
                )
                f_nk = 2 * O[n] + 2 * O[n - k] - 2 * H[n]
                coeffs[n - 2 * k] += pref * tri * f_nk * Fraction(1, 2 ** (n - 2 * k))
            out.append(KappaPoly(tuple(coeffs)))
        return out
    raise SeriesUsageError(f"unknown method {method!r}")


def frobenius_a_at(kappa: Fraction, order: int) -> list[Fraction]:
    """a_n evaluated at an exact rational kappa (fast path for long tables)."""
    return _a_recursion(Fraction(kappa), order, Fraction(0))


def frobenius_b_at(kappa: Fraction, order: int) -> list[Fraction]:
    return _b_recursion(Fraction(kappa), frobenius_a_at(kappa, order), Fraction(0))


@dataclass(frozen=True)
class FrobeniusTable:
    """Paired a_n / b_n tables with the standard normalization a0 = 1, b0 = 0."""

    order: int
    a: tuple[KappaPoly, ...]
    b: tuple[KappaPoly, ...]

    def __post_init__(self):
        if self.a[0] != KP_ONE or self.b[0] != KP_ZERO:
            raise InternalConsistencyError("table normalization broken")


def frobenius_table(order: int, method: str = "recursion") -> FrobeniusTable:
    return FrobeniusTable(
        order, tuple(frobenius_a(order, method)), tuple(frobenius_b(order, method))
    )


# ---------------------------------------------------------------------------
# action series and the particular combinations on both sides of the separatrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionSeries:
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
    if order < 1:
        raise SeriesUsageError("need order >= 1")
    a = frobenius_a(order)
    b = frobenius_b(order)
    t_reg = PowerSeries("h", tuple(a))
    t_sing = LogSeries(t_reg, PowerSeries("h", tuple(b)))
    return ActionSeries(t_reg, t_sing, t_reg.integrate(), t_sing.integrate())


LOG64_RATIO = "log64_over_kappa_sq_plus_4"   # log(64 / (kappa^2 + 4))
ATAN_RHO = "atan_rho"                        # atan(rho)
ATAN_INV_RHO = "atan_inv_rho"                # atan(1/rho)
ATAN_RHO_OVER_PI = "atan_rho_over_pi"        # atan(rho) / pi
ATAN_INV_RHO_OVER_PI = "atan_inv_rho_over_pi"


@dataclass(frozen=True)
class SymbolicConstant:
    """Rational multiple of a tagged transcendental constant.

    Kept symbolic so the polynomial channel stays exact; numeric values come
    from the oracle module on demand.
    """

    kind: str
    factor: Fraction = Fraction(1)

    def __mul__(self, c):
        return SymbolicConstant(self.kind, self.factor * Fraction(c))

    __rmul__ = __mul__

    def __neg__(self):
        return SymbolicConstant(self.kind, -self.factor)


@dataclass(frozen=True)
class BetaAction:
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

    @property
    def sign(self) -> int:
        return 1 if self.side == "plus" else -1


def assemble_beta_actions(order: int) -> tuple[BetaAction, BetaAction]:
    """The two separatrix-side actions through h^(order+1).

    I_beta(+-) = -+ (1/2) log(64/(kappa^2+4)) I_r +- I_s + atan(rho^(-+1))/pi.
    """
    if order < 1:
        raise SeriesUsageError("need order >= 1")
    series = build_action_series(order)
    plus = BetaAction(
        side="plus",
        k1=SymbolicConstant(LOG64_RATIO, Fraction(-1, 2)),
        k2=1,
        k3=SymbolicConstant(ATAN_INV_RHO_OVER_PI),
        area=SymbolicConstant(ATAN_INV_RHO, Fraction(2)),
        series=series,
    )
    minus = BetaAction(
        side="minus",
        k1=SymbolicConstant(LOG64_RATIO, Fraction(1, 2)),
        k2=-1,
        k3=SymbolicConstant(ATAN_RHO_OVER_PI),
        area=SymbolicConstant(ATAN_RHO, Fraction(2)),
        series=series,
    )
    return plus, minus


# ---------------------------------------------------------------------------
# residual of the ODE, including the log channel
# ---------------------------------------------------------------------------

LaurentMap = dict[int, KappaPoly]


def _lmap_from(ps: PowerSeries) -> LaurentMap:
    return {n: c for n, c in enumerate(ps.coeffs) if c}


def _lmap_diff(d: LaurentMap) -> LaurentMap:
    return {e - 1: c * Fraction(e) for e, c in d.items() if e != 0}


def _lmap_shift(d: LaurentMap, s: int) -> LaurentMap:
    return {e + s: c for e, c in d.items()}


def _lmap_add(d1: LaurentMap, d2: LaurentMap) -> LaurentMap:
    out = dict(d1)
    for e, c in d2.items():
        acc = out.get(e, KP_ZERO) + c
        if acc:
            out[e] = acc
        elif e in out:
            del out[e]
    return out


def _lmap_mul_poly(poly: PowerSeries, d: LaurentMap) -> LaurentMap:
    out: LaurentMap = {}
    for s, pc in enumerate(poly.coeffs):
        if pc:
            out = _lmap_add(out, {e + s: c * pc for e, c in d.items()})
    return out


def _pair_diff(pair):
    log_d, pow_d = pair
    return _lmap_diff(log_d), _lmap_add(_lmap_diff(pow_d), _lmap_shift(log_d, -1))


@dataclass(frozen=True)
class PFResidual:
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
    pf = _pf()
    if which == "action":
        weights = [(pf.c1 * 2, 1), (pf.c2 * 2, 2), (pf.c3 * 2, 3)]
    elif which == "period":
        weights = [(pf.c1 * 2, 0), (pf.c2 * 2, 1), (pf.c3 * 2, 2)]
    else:
        raise SeriesUsageError(f"unknown equation {which!r}")
    if series.order < 4:
        raise SeriesUsageError("need a series of order >= 4")
    if isinstance(series, LogSeries):
        pair = (_lmap_from(series.log_part), _lmap_from(series.regular_part))
    else:
        pair = ({}, _lmap_from(series))
    max_deriv = max(k for _, k in weights)

    def lowest_power(poly: PowerSeries) -> int:
        for n, c in enumerate(poly.coeffs):
            if c:
                return n
        return poly.order

    cutoff = min(series.order - k + lowest_power(poly) for poly, k in weights)
    derivs = [pair]
    for _ in range(max_deriv):
        derivs.append(_pair_diff(derivs[-1]))
    log_out: LaurentMap = {}
    pow_out: LaurentMap = {}
    for poly, k in weights:
        log_out = _lmap_add(log_out, _lmap_mul_poly(poly, derivs[k][0]))
        pow_out = _lmap_add(pow_out, _lmap_mul_poly(poly, derivs[k][1]))
    log_out = {e: c for e, c in log_out.items() if e <= cutoff}
    pow_out = {e: c for e, c in pow_out.items() if e <= cutoff}
    return PFResidual(log_out, pow_out, cutoff)
