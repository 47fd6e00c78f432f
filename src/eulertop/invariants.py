"""Normal form as the inverse of the regular action, the symplectic invariant, and convergence.

The J-defining series is the regular action I_alpha(h) = 2 pi I_r(h); its
compositional inverse is the Birkhoff normal form h = B(J).  Composing the
separatrix-side actions with B and stripping the universal singular part

    2 pi (I_beta(+-) o I_alpha^{-1})(J) = A(+-) +- J log(+-J) -+ J -+ sigma(J)

leaves the invariant sigma.  Its linear coefficient is the symbolic constant
(1/2) log(64/(kappa^2+4)); the higher coefficients are exact polynomials in
kappa.  For J of either sign log|B(J)| = log|J| + log(B(J)/J), so one
composition in J serves both sides; the negative side's own conventions
(k2 = -1, log(-h), its k1 and k3) are checked by the oracle's h < 0 rows.

sigma comes by two routes that must agree.  The recurrences of the period
equation (picardfuchs._sequences) give B(J) and the sigma tail, with no
reversion or composition; that tail is the output.  The composition route
substitutes B into the singular action with its log channel
(LogSeries.compose_with_log), must invert the regular action to J and must
give the same tail (extract_sigma).  The bnf command checks on every run that
B equals the Lie normal form, and the oracle compares the actions with
quadrature.  series.revert_trunc remains the generic reversion behind
PowerSeries.revert: Lagrange inversion, O(n) truncated products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .oracle import _convergence_radius, log64_ratio, rho_for_kappa
from .picardfuchs import (
    SymbolicConstant,
    _scaled_sequences,
    _sequences,
    assemble_beta_actions,
)
from .series import (
    KP_KAPPA,
    InternalConsistencyError,
    PowerSeries,
    SeriesUsageError,
    _check_order,
    _is_exact_rational,
    _keeps_highest,
    _quoted,
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


def alpha_action(order: int) -> PowerSeries:
    """The vanishing-cycle action 2 pi I_r(h) = h + O(h^2), through h^order."""
    _check_order(order, 1)
    return PowerSeries("h", tuple(_sequences(KP_KAPPA, order - 1)["a"]())).integrate()


@_keeps_highest(PowerSeries.truncate, 1)
def bnf_via_reversion(order: int) -> PowerSeries:
    """Normal form B(J), the compositional inverse of the regular action, read from
    the O(n^2) recurrence picardfuchs._bnf, not from a reversion: series.revert_trunc
    is the independent reversion that the tests check it against.  The series at
    the highest order asked for is kept, and a lower order is its truncation."""
    return PowerSeries("J", tuple(_sequences(KP_KAPPA, order)["bnf"]()))


class InvariantReport(NamedTuple):
    """sigma(J) = linear_log * J + tail(J), with the separatrix areas attached."""

    order: int
    linear_log: SymbolicConstant
    tail: PowerSeries
    area_plus: SymbolicConstant
    area_minus: SymbolicConstant
    branch_consistent: bool


def _truncate_report(report: InvariantReport, order: int) -> InvariantReport:
    return report._replace(order=order, tail=report.tail.truncate(order))


@_keeps_highest(_truncate_report, 2)
def extract_sigma(order: int) -> InvariantReport:
    """Invariant through J^order by two routes that must agree.

    The tail comes from the recurrence picardfuchs._sigma_tail and is the
    output.  The check composes the singular action with B in J: its log
    channel, the regular action of B, must be J, and -(J + its regular part)
    must equal the recurrence's tail, with the two sides' k1 opposite.
    The report at the highest order asked for is kept, and a lower order
    is its truncation, checked by both routes at the kept order.
    """
    plus, minus = assemble_beta_actions(order + 1)
    sequences = _sequences(KP_KAPPA, order + 1)
    bnf = PowerSeries("J", tuple(sequences["bnf"]()))
    # the tail through J^order does not depend on the truncation at J^(order+1)
    tail = PowerSeries("J", tuple(sequences["sigma"]()[: order + 1]))
    composed = plus.series.action_singular.compose_with_log(bnf)
    ident = PowerSeries.identity("J", order)
    if composed.log_part != ident:
        raise InternalConsistencyError("regular action did not invert to J")
    consistent = tail == -(ident + composed.regular_part.truncate(order)) and -plus.k1 == minus.k1
    if not consistent:
        raise InternalConsistencyError("composition and recurrence produced different invariants")
    if tail.coefficient(0) or tail.coefficient(1):
        raise InternalConsistencyError("invariant tail leaked into J^0 or J^1")
    return InvariantReport(
        order=order,
        linear_log=-plus.k1,
        tail=tail,
        area_plus=plus.area,
        area_minus=minus.area,
        branch_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------


class RadiusReport(NamedTuple):
    """Ratio-test radius estimates for one coefficient sequence."""

    name: str
    kappa: float
    ns: tuple[int, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    theoretical: float | None
    skipped: tuple[int, ...]


def _ratio_estimates(pairs: Sequence[tuple[int, int]]):
    """ns, one-step ratio estimates and skipped indices of a sequence of (X, S) pairs."""
    nonzero = [n for n, (x, _) in enumerate(pairs) if x]
    skipped = tuple(
        n
        for n in range(nonzero[0], nonzero[-1] + 1)
        if not pairs[n][0]
    ) if nonzero else ()
    ns, ratios = [], []
    for n1, n2 in zip(nonzero, nonzero[1:]):
        ns.append(n1)
        ratios.append(_root_ratio(pairs[n1], pairs[n2], n2 - n1))
    return tuple(ns), tuple(ratios), skipped


def _root_ratio(c1: tuple[int, int], c2: tuple[int, int], gap: int) -> float:
    """|c1 / c2|^(1/gap) for values c = X / S given as (X, S) pairs, X nonzero
    and S positive."""
    (x1, s1), (x2, s2) = c1, c2
    # int true division rounds correctly, so either form is the float of the
    # reduced quotient; the scales of a, b and bnf divide their successors'
    step, rest = divmod(s2, s1)
    quotient = abs(x1 * step) / abs(x2) if not rest else abs(x1 * s2) / abs(s1 * x2)
    return quotient ** (1.0 / gap)


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
    """Ratio-test radius estimates at an exact rational kappa, an int or a Fraction.

    Coefficient sequences are computed exactly, each as integer numerators
    over integer scales, and every ratio is read from those integers: no
    value is reduced to a Fraction.  Each report carries the
    consecutive-ratio estimates |c_n / c_{n+1}| over the nonzero terms, and
    ``extrapolated`` is a single Aitken delta-squared step on the last
    three two-step estimates |c_n / c_{n+2}|^(1/2).  Near kappa = 0 the a
    sequence has two singularities of nearly equal modulus, at 2h = -rho
    and 2h = 1/rho, so the one-step ratios alternate between large and
    small values until n >> 1/|kappa|; the two-step ones do not.  The a and
    b sequences carry the nearer one's |h|, oracle._convergence_radius, as theoretical.
    The bnf and sigma targets share one B(J) within the call; between
    calls only the index-only integers of picardfuchs are kept.
    """
    _check_order(nmax, 20, SeriesUsageError, "need nmax >= 20 for a stable estimate", "nmax")
    _, sequences = _scaled_sequences(kappa, nmax)  # refuses a float kappa before Fraction() takes it
    if isinstance(targets, str):  # tuple() would split it into one-letter names
        raise SeriesUsageError(f"pass targets as a sequence of names, not the string {_quoted(targets)}")
    targets = tuple(targets)
    for i, name in enumerate(targets):  # every name, before any table is built
        known = isinstance(name, str) and name in sequences
        if not known or name in targets[:i]:  # a repeat would build its table again
            raise SeriesUsageError(f"{'repeated' if known else 'unknown'} sequence {_quoted(name)}")
    kappa = Fraction(kappa)
    try:
        rho = rho_for_kappa(float(kappa))
    except OverflowError:
        rho = math.inf
    if not (math.isfinite(rho) and rho > 0):
        raise SeriesUsageError(
            "|kappa| is too large: rho = (kappa + sqrt(kappa^2 + 4))/2 is not a positive float"
        )
    p, q = kappa.as_integer_ratio()
    if p and abs(p) << 1000 < q:  # ratio estimates reach about 4 / |kappa|
        raise SeriesUsageError("|kappa| is too small: its ratio estimates overflow a float")
    known = _convergence_radius(rho)
    reports = []
    for name in targets:
        pairs = sequences[name]()
        ns, ratios, skipped = _ratio_estimates(pairs)
        steps = [n for n in range(len(pairs) - 2) if pairs[n][0] and pairs[n + 2][0]]
        # the step reads the last three estimates, so only those are computed
        two_step = [_root_ratio(pairs[n], pairs[n + 2], 2) for n in steps[-3:]]
        accelerated = _aitken(two_step)
        extrapolated = accelerated[-1] if accelerated else (two_step[-1] if two_step else float("nan"))
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


class PendulumRow(NamedTuple):
    kappa: float
    euler_leading: float
    margin: float


def pendulum_compare(kappa_grid: Iterable[float]) -> list[PendulumRow]:
    """Leading invariant term of the top against the pendulum value log 32.

    The top's leading term (1/2) log(64/(kappa^2+4)) peaks at log 4 for
    kappa = 0, so the margin log 32 - leading is at least log 8 at every
    finite kappa.  Each kappa is read as a float; a bool, a nan, an infinity
    or an exact kappa past a float's range raises SeriesUsageError before
    any row.
    """
    grid = [_finite_float(kappa) for kappa in kappa_grid]
    leading = [0.5 * log64_ratio(kappa) for kappa in grid]
    return [PendulumRow(kappa, lead, PENDULUM_LEADING - lead) for kappa, lead in zip(grid, leading)]


def _finite_float(kappa) -> float:
    """kappa as a finite float, named by its type and bit length when it is
    past a float's range: str() refuses an int of more than 4300 digits."""
    if isinstance(kappa, (bool, str, bytes, bytearray)):  # float() would take "1" and True
        raise SeriesUsageError(f"kappa must be a number, got a {type(kappa).__name__}")
    try:
        value = float(kappa)
    except OverflowError:
        bits = abs(int(kappa)).bit_length()
        raise SeriesUsageError(
            f"kappa must be within a float's range, got a {bits}-bit {type(kappa).__name__}"
        ) from None
    if not math.isfinite(value):
        raise SeriesUsageError(f"kappa must be finite, got {value}")
    return value


def log64_ratio_log2_exact(kappa: Fraction) -> Fraction | None:
    """Exact value of (1/2) log2(64/(kappa^2+4)) when the ratio is a power of two.

    Returns None when 64/(kappa^2+4) is not an exact power of two; at
    kappa = 0 the ratio is 16 and the result is the exact exponent 2
    (the leading invariant term log 4, in units of log 2).  kappa is an int
    or a Fraction; a float or a bool raises SeriesUsageError.
    """
    if not _is_exact_rational(kappa):
        raise SeriesUsageError(f"kappa must be an int or a Fraction, got {kappa!r}")
    ratio = Fraction(64) / (Fraction(kappa) ** 2 + 4)
    num, den = ratio.numerator, ratio.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return Fraction(num.bit_length() - den.bit_length(), 2)
