"""Independent numeric evaluation of the action and period integrals.

Everything symbolic elsewhere in the package is cross-checked here by direct
high-precision quadrature of the defining integrals.  Two schemes are kept
deliberately distinct, each with one form for the action, the period and
the separatrix limit at h = 0:

* "gauss": Gauss-Legendre on the real-angle form over (0, pi/2), after
  q = c sinh t, c = sqrt(2 rho |h|) (h < 0) or asinh(rho) (h = 0), or
  q = q0 cosh t at the turning angle q0 (h > 0).  This moves the pinch of
  width sqrt|h| at the separatrix to about pi/2 off the real t-axis, so a
  low degree suffices close to it; the cosh form also absorbs the square
  root at the turning angle.  Its nodes are mpmath's rule, with the roots of
  P_n found by Newton's method in fixed-point integers: a fresh process pays
  about 0.01 s for degrees 1-6 and 0.15 s for degree 8 at 50 and 60 digits,
  where mpmath's own nodes take 0.25-0.4 s and 2.4-4.1 s (2-CPU x86-64 VM);
* "tanh-sinh": the algebraic form on the cut of the energy curve, with both
  endpoint singularities handled by double-exponential quadrature.

The rules are mpmath's, but mp.quad is not called: ``_quad`` is its
summation on Python ints.  Two int builders, ``_gauss_nodes`` (Newton's
method) and ``_tanh_sinh_nodes`` (mpmath's exp recurrence on ``exp_fixed``),
make each degree's nodes and weights, and one cache, ``_NODES``, holds them
at scale 2^Q, Q = mp.prec + 20 + _GUARD.  ``_quad`` maps each node to the
interval exactly, sums w f of a degree in one int, makes one mpf of it and
stops by ``_estimate_error``, mpmath 1.3's heuristic carried in this module.
Every integrand runs at one fixed-point scale 2^P per call
(``_fixed_bits``): Q plus the bits a form needs for the smallest quantity
it divides by or takes a root of.  Each form cancels its small factors by
hand or carries them in an exponent, so that only two such quantities are
left: cos q0 near the top of the plus side's energy range (gauss), and the
distances from 2h to the cubic's other roots for the period (tanh-sinh);
see ``_angle_form`` and ``_cut_halves``.  sinh, cosh and sin come from
mpmath's fixed-point kernels ``libmp.libelefun.exp_fixed`` and
``cos_sin_fixed``.  The action series' coefficients are exact at kappa,
then rounded once.

mpmath arithmetic lives only in this module; callers hand in exact series
and get mpmath numbers back, which the CLI only formats, through ``mp``.
``rho_for_kappa`` and ``log64_ratio`` take a float or an mpmath number, so
invariants.radius_analysis and pendulum_compare compute in floats through
them.  This is the one module that imports mpmath, on the first use of
``mp``, so a process that computes only in exact numbers and floats never
loads it; each rule's nodes are built once per degree and precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .picardfuchs import (
    ATAN_INV_RHO,
    ATAN_RHO,
    ActionSeries,
    BetaAction,
    LOG64_RATIO,
    SymbolicConstant,
    _OVER_PI,
    _side_constants,
    assemble_beta_actions,
)
from .series import SeriesUsageError, _check_order, horner


class _MpmathOnFirstUse:
    """Stands in for mpmath's ``mp`` until an attribute is read or set, which
    imports mpmath, binds the real ``mp`` here and forwards the read or set."""

    def _load(self):
        global mp
        import mpmath

        mp = mpmath.mp
        return mp

    def __getattr__(self, name):
        return getattr(self._load(), name)

    def __setattr__(self, name, value):
        setattr(self._load(), name, value)


mp = _MpmathOnFirstUse()


__all__ = [
    "ParameterError",
    "DomainError",
    "QuadratureError",
    "TopParams",
    "QuadratureResult",
    "VerifyReport",
    "params_from_inertia",
    "rho_for_kappa",
    "log64_ratio",
    "kappa_for_rho",
    "action_quadrature",
    "period_quadrature",
    "separatrix_action",
    "action_unscaled_quadrature",
    "scaled_energy",
    "constant_value",
    "beta_action_value",
    "verify_series_numerics",
]


class ParameterError(ValueError):
    """Physical parameters violate positivity, ordering, or a triangle inequality."""


class DomainError(ValueError):
    """Requested kappa or energy is not finite or outside the integral's or series' range."""


class QuadratureError(RuntimeError):
    """Quadrature finished without meeting the requested tolerance."""

    def __init__(self, message, value, estimate):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


# ---------------------------------------------------------------------------
# physical parameters
# ---------------------------------------------------------------------------


class TopParams(NamedTuple):
    """Moments of inertia, angular momentum, and the derived shape quantities."""

    theta1: float
    theta2: float
    theta3: float
    ell: float
    rho: float
    kappa: float
    lam: float


def params_from_inertia(theta1: float, theta2: float, theta3: float, ell: float) -> TopParams:
    """Validate the inertia triple and derive rho, kappa and the saddle rate."""
    for name, value in (("theta1", theta1), ("theta2", theta2), ("theta3", theta3), ("ell", ell)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and positive, got {value}")
    if not theta1 < theta2 < theta3:
        raise ParameterError(
            "need strict ordering theta1 < theta2 < theta3 "
            f"(got {theta1}, {theta2}, {theta3}); equal neighbours have no saddle"
        )
    if theta3 > theta1 + theta2:
        raise ParameterError(
            f"triangle inequality theta3 <= theta1 + theta2 violated: {theta3} > {theta1 + theta2}"
        )
    theta = f"theta ({theta1}, {theta2}, {theta3})"
    try:
        rho = math.sqrt(theta1 * (theta3 - theta2) / (theta3 * (theta2 - theta1)))
        lam = (ell / theta2) * math.sqrt(
            (theta2 - theta1) * (theta3 - theta2) / (theta1 * theta3)
        )
    except ZeroDivisionError:
        raise ParameterError(f"a product of {theta} underflows a float to 0") from None
    for name, value in (("rho", rho), ("lambda", lam)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} = {value} is out of a float's range for {theta} and ell {ell}")
    return TopParams(theta1, theta2, theta3, ell, rho, kappa_for_rho(rho), lam)


def rho_for_kappa(kappa):
    """The unique rho > 0 with kappa = rho - 1/rho, for a float or an mpmath number."""
    root = (mp.sqrt if hasattr(kappa, "_mpf_") else math.sqrt)(kappa * kappa + 4)
    # for kappa < 0 the sum kappa + root cancels; 2/(root - kappa) is the same rho
    return (kappa + root) / 2 if kappa >= 0 else 2 / (root - kappa)


def _roots(rho):
    """(-rho, 0, 1/rho), the roots in z = 2h of the energy curve's cubic z (z + rho) (1/rho - z),
    for a float or an mpf: the lower elliptic equilibrium, the separatrix and the upper one."""
    return -rho, 0, 1 / rho


def _convergence_radius(rho):
    """min(rho, 1/rho)/2, the action series' radius of convergence in h, for a float or an mpf."""
    lo, _, hi = _roots(rho)
    return min(-lo, hi) / 2


def log64_ratio(kappa):
    """log(64/(kappa^2 + 4)), twice the leading invariant coefficient, for a
    float or an mpmath number."""
    if hasattr(kappa, "_mpf_"):
        return mp.log(64 / (kappa * kappa + 4))
    square = kappa * kappa
    if math.isinf(square):
        # kappa^2 overflows a float although the value is finite
        return math.log(64) - 2 * math.log(abs(kappa)) - math.log1p((2 / kappa) ** 2)
    return math.log(64 / (square + 4))


def kappa_for_rho(rho: float) -> float:
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    return rho - 1.0 / rho


def scaled_energy(params: TopParams, h_sans: float) -> float:
    """Dimensionless saddle energy from the original Hamiltonian value."""
    return (h_sans - 0.5 * params.ell**2 / params.theta2) / (params.lam * params.ell)


# ---------------------------------------------------------------------------
# mpmath plumbing
# ---------------------------------------------------------------------------


def _to_mp(x):
    """x as an mpf at the working precision, a Fraction rounded once; nan and inf are refused."""
    if isinstance(x, Fraction):
        from mpmath.libmp import from_rational

        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, "n"))
    if not mp.isfinite(x):
        raise DomainError(f"need a finite number, got {x}")
    return mp.mpf(x)


def _exact(x) -> Fraction:
    """An int, Fraction, float or mpmath number as the Fraction it equals."""
    from mpmath.libmp import to_rational

    return Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


def _working_dps(dps: int) -> int:
    """max(15, dps), the digits that every public entry computes at; a tolerance
    finer than they allow is reported as a quadrature failure, not upgraded."""
    _check_order(dps, 1, ValueError, name="dps")
    return max(15, dps)


def _float_legendre_root(n, j):
    """The j-th largest root of P_n to about float precision, from mpmath's guess."""
    x = math.cos(math.pi * (j - 0.25) / (n + 0.5))
    for _ in range(10):
        p, p_prev = 1.0, 0.0
        for k in range(1, n + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        a = p * (x * x - 1) / (n * (x * p - p_prev))
        x -= a
        if abs(a) < 1e-13:
            break
    return x


def _legendre_newton(n, x, prec):
    """One Newton step from x towards a root of P_n, in fixed point at scale
    2^prec: the new x and the weight 2 / ((1 - x^2) P_n'(x)^2) there."""
    one = 1 << prec
    p, p_prev = one, 0
    for k in range(1, n + 1):
        p, p_prev = ((2 * k - 1) * (x * p >> prec) - (k - 1) * p_prev) // k, p
    u = (x * x >> prec) - one  # x^2 - 1
    d = n * ((x * p >> prec) - p_prev)  # (x^2 - 1) P_n'(x)
    a = p * u // d  # P_n(x) / P_n'(x)
    new = x - a
    # P_n' at the new x to first order in a: (1 - x^2) P'' = 2x P' - n(n+1) P
    # and P = a P' give P'(x - a) = P'(x) v / u with v = u + 2 x a
    v = u + (2 * x * a >> prec)
    weight = ((2 * u**4) << (2 * prec)) // (((one * one - new * new) >> prec) * (d * v) ** 2)
    return new, weight


def _gauss_nodes(degree: int, prec: int) -> tuple[list, int]:
    """mpmath's Gauss-Legendre rule of degree m, the 3 * 2^(m-1) point rule,
    as int (x, w) at the scale 2^bits it returns with them.  Each root of P_n
    starts from a float root, then takes one Newton step per rung of a
    precision ladder that doubles up to mpmath's working precision 1.5 prec,
    plus guard bits for the rounding of the recurrence and of 1 - x^2."""
    n = 3 * 2 ** (degree - 1)
    rungs = [int(prec * 1.5) + 24 + n.bit_length()]
    while rungs[-1] > 96:  # the float start carries about 48 bits
        rungs.append(rungs[-1] // 2 + 8)
    top = rungs[0]
    if degree == 1:  # sqrt(3/5) with weight 5/9, and 0 with 8/9
        x, w = math.isqrt((3 << 2 * top) // 5), (5 << top) // 9
        return [(-x, w), (0, (8 << top) // 9), (x, w)], top
    rungs.reverse()
    nodes = []
    for j in range(1, n // 2 + 1):
        x, scale = int(math.ldexp(_float_legendre_root(n, j), rungs[0])), rungs[0]
        for rung in rungs:
            x, w = _legendre_newton(n, x << (rung - scale), rung)
            scale = rung
        nodes += [(x, w), (-x, w)]
    return nodes, top


def _tanh_sinh_nodes(degree: int, prec: int) -> tuple[list, int]:
    """mpmath's tanh-sinh rule of degree m, as int (x, w) at the scale 2^bits
    it returns with them, by mpmath's recurrence: a = pi/4 e^t and b = pi/4
    e^-t step by one multiplication each, c = exp(a - b) = exp(pi/2 sinh t),
    x = (c - 1/c) / (c + 1/c) and w = 4 (a + b) / (c + 1/c)^2, until 1 - x <=
    2^-(prec + 10); 24 bits finer than the driver, for the rounding that the
    steps of a and b and exp_fixed's reduction by multiples of ln 2 add."""
    from mpmath.libmp.libelefun import exp_fixed, ln2_fixed, pi_fixed

    bits = _node_scale(prec) + 24
    one, ln2, pi4, tol = 1 << bits, ln2_fixed(bits), pi_fixed(bits) >> 2, 1 << (bits - prec - 10)
    t0, nodes = one >> degree, [(0, 2 * pi4)] if degree == 1 else []
    e0, step = exp_fixed(t0, bits, ln2), exp_fixed(t0 if degree == 1 else 2 * t0, bits, ln2)
    a, b, step_inv = pi4 * e0 >> bits, (pi4 << bits) // e0, (one << bits) // step
    for _ in range(20 * 2**degree + 1):
        c = exp_fixed(a - b, bits, ln2)
        d = (one << bits) // c
        co = c + d  # 2 cosh(pi/2 sinh t)
        x = ((c - d) << bits) // co
        if one - x <= tol:
            break
        w = ((a + b) << (2 * bits + 2)) // (co * co)
        nodes += [(x, w), (-x, w)]
        a, b = a * step >> bits, b * step_inv >> bits
    return nodes, bits


# The gauss schemes stop at Gauss-Legendre degree 8 (765 evaluations): the
# action reaches full precision with it down to |h| = 1e-100 at 50 digits and
# 1e-20 at 100 digits.  Closer in, a tight tolerance fails: degrees 9 and 10
# would double and quadruple the evaluations for a few digits more of |h|.
_GAUSS_MAXDEGREE = 8
# Each scheme's node builder, and the highest degree ``_quad`` may climb to.
_RULES = {"gauss": (_gauss_nodes, _GAUSS_MAXDEGREE), "tanh-sinh": (_tanh_sinh_nodes, 10)}

_NODES: dict = {}  # (scheme, degree, prec): ``_quad``'s standard (x, w) at scale 2^Q

# Fixed-point rounding allowance of the integrands and the driver's sum.  Each
# integrand rounds at most a few units of 2^-P in each of at most 16 steps
# (2^6 units; exp_fixed runs 10 bits finer, since its reduction by up to 2^10
# multiples of ln 2 would cost that many), and P >= Q, the scale of the
# driver's x and w.  A degree's result is c = end/2 <= 2^8 (gauss's longest
# t-range) times a weighted sum, so with |f| <= 1 and |f'| <= 2^8 in the form's
# unit it errs by at most 2^8 times: 2^6 units times weights of total 2, plus
# half a unit per weight times at most 2^8 nodes (gauss degree 8; tanh-sinh's
# U_k has about 2^(k+3) nodes of total weight 2^(k+1), both scaled by 2^-k),
# plus |f'| times x's half unit.  That is under 2^17 units of 2^-Q, 2^7 below the rounding of
# each degree's result to 2^-(prec + 20).  Next to t = 0 the tanh-sinh period
# near the separatrix exceeds both bounds on f: at 100 digits and h = -1e-100
# it is off by 1e-64 from the same rule summed exactly (mp.quad, which rounded
# each t to prec + 20 bits, by more), and by 1e-30 from the integral (item 23).
_GUARD = 24


def _node_scale(prec: int) -> int:
    """Q, the driver's scale at precision prec: mp.quad's prec + 20, and _GUARD."""
    return prec + 20 + _GUARD


def _fixed_bits(extra: int = 0) -> int:
    """The scale 2^P of a fixed-point integrand: Q, and ``extra`` bits for a form's small quantity."""
    return _node_scale(mp.prec) + extra


def _ints(x, bits: int) -> int:
    """floor(x 2^bits) of an mpmath number: x at scale 2^bits."""
    return int(mp.floor(mp.ldexp(x, bits)))


def _relative(x, bits: int):
    """(m, e) with x = m 2^-e to ``bits`` significant bits, so that the
    product (m * n) >> e keeps them however small x is."""
    e = bits + max(0, -mp.mag(x))
    return _ints(x, e), e


def _estimate_error(results, prec: int, epsilon):
    """The error of I_k, the last of the results of degrees 1..k, by Borwein,
    Bailey and Girgensohn's extrapolation as mpmath 1.3's ``estimate_error``
    has it: |I_2 - I_1| at k = 2, then 10^min(0, max(D1^2 / D2, 2 D1, -prec))
    with D1, D2 the log10 distances of I_k from I_(k-1), I_(k-2), if each
    degree doubles the digits.  A heuristic, not a bound: the gauss action at
    kappa = -1e30, h = 1e-31, 50 digits stops at degree 6, 7e-43 off, with an
    estimate of 8e-46."""
    if len(results) == 2:
        return abs(results[0] - results[1])
    try:
        if results[-1] == results[-2] == results[-3]:
            return mp.zero
        d1 = mp.log(abs(results[-1] - results[-2]), 10)
        d2 = mp.log(abs(results[-1] - results[-3]), 10)
    except ValueError:
        return epsilon
    return mp.mpf(10) ** int(min(0, max(d1**2 / d2, 2 * d1, -prec)))


def _quad(integrand, node_bits: int, value_exp: int, end, scheme: str) -> "QuadratureResult":
    """mp.quad's summation over (0, end) by one scheme's rule, on ints.

    The integrand takes t as floor(t 2^node_bits) and returns n for the value
    n 2^value_exp.  Per degree, the standard x and w at scale 2^Q map
    exactly to t = c (1 + x), c = end/2, and Sum w f is one int; tanh-sinh
    adds each degree's new nodes to those before, R_k = 2^-k c U_k.  Each
    result is one mpf at prec + 20 bits, ``_estimate_error`` decides when to
    stop, and the value is rounded to prec, as mp.quad does."""
    from mpmath.libmp import from_man_exp

    build, maxdegree = _RULES[scheme]
    prec, epsilon, reuse, q = mp.prec, mp.eps / 8, scheme == "tanh-sinh", _node_scale(mp.prec)
    _, man, exp, _ = end._mpf_  # c = man 2^(exp - 1)
    shift = q - node_bits - exp + 1  # t 2^node_bits = man (2^q + x) 2^-shift
    tman, shift, one = man << max(0, -shift), max(0, shift), 1 << q
    results, total, count, cold, err = [], 0, 0, False, mp.zero
    with mp.workprec(prec + 20):
        for degree in range(1, maxdegree + 1):
            key = (scheme, degree, prec)
            if key not in _NODES:  # the builder's ints, rounded once to scale 2^q
                cold, (built, scale) = True, build(degree, prec)
                half, drop = 1 << (scale - q) >> 1, scale - q
                _NODES[key] = [((x + half) >> drop, (w + half) >> drop) for x, w in built]
            nodes = _NODES[key]
            count += len(nodes)
            step = sum(w * integrand(tman * (one + x) >> shift) for x, w in nodes)
            total = total + step if reuse else step  # tanh-sinh's U_k = U_(k-1) + the new nodes' sum
            results.append(mp.make_mpf(from_man_exp(man * total, exp - 1 + value_exp - q - degree * reuse, prec + 20)))
            if degree > 1:
                err = _estimate_error(results, prec, epsilon)
                if err <= epsilon:
                    break
    value = +results[-1]
    floor = (abs(value) + 1) * mp.mpf(10) ** (-(mp.dps - 5))
    return QuadratureResult(value, max(err, floor), count, degree, cold)


def _result(q: "QuadratureResult", scale, tol) -> "QuadratureResult":
    value, estimate = q.value / scale, q.error_estimate / scale
    if estimate > tol:
        message = f"quadrature error estimate {mp.nstr(estimate, 5)} exceeds tolerance {tol}"
        raise QuadratureError(message, value, estimate)
    return q._replace(value=value, error_estimate=estimate)


class QuadratureResult(NamedTuple):
    value: object
    error_estimate: object
    evaluations: int
    degree: int  # where the rule stopped; the higher of a cut's two halves
    nodes_cold: bool  # the call computed nodes for its rule


# ---------------------------------------------------------------------------
# action and period integrals
# ---------------------------------------------------------------------------


def _side(z, lo, mid, hi) -> str:
    """The side of the separatrix at the energy point z, given the cubic's
    roots lo < mid < hi; z = mid and z outside (lo, hi) are refused."""
    if z == mid:
        raise DomainError("h = 0 is the separatrix; use separatrix_action")
    if z > mid:
        if not z < hi:
            raise DomainError("energy above the upper elliptic equilibrium")
        return "plus"
    if not z > lo:
        raise DomainError("energy below the lower elliptic equilibrium")
    return "minus"


def _angle_form(rho, h, side: str, which: str):
    """top, and the gauss scheme's integrand over t in (0, top) on ints, as
    the (integrand, node bits, value exponent) that ``_quad`` takes.

    The real angle is q = c sinh t, c = sqrt(2 rho |h|) (h < 0) or asinh(rho)
    (h = 0), or q = q0 cosh t at the turning angle q0 = asin(sqrt(2 rho h))
    (h > 0).  This moves the pinch of width sqrt|h| at the separatrix to
    about pi/2 off the real t-axis.  At h = 0 the integrand is singular at
    sin^2 q = -rho^2, which c = asinh(rho) puts at t = +-i pi/2.

    The action integrand is p dq/dt (plus) or (1 - p) dq/dt, with
    p = sqrt(gap / (rho^2 + sin^2 q)) and gap = sin^2 q - 2 rho h; the period
    takes 2 dp/dh = -2 rho / sqrt(gap (rho^2 + sin^2 q)).  Both are written in
    sinc x = sin(x)/x so that the small c or q0 cancels by hand:

    * h <= 0, with Y = sinh t sinc q, r = rho / c and g = 1 (h < 0) or 0:
      p = sqrt((g + Y^2) / (r^2 + Y^2)), T' = 2 r cosh t / sqrt((1 + Y^2)(r^2 + Y^2));
    * h > 0, with d = q - q0, r = rho / q0, N = sinc d sinc(q + q0) and
      B = r^2 + (cosh t sinc q)^2: p = sinh t sqrt(N / B), T' = -2 r / sqrt(N B).

    Every quantity is then a few units of 2^-P absolute, the ratios r >= 1
    (h <= 0) and B >= sinc^2(pi/2) are never small, and c or q0 multiplies
    only as a mantissa with its own exponent (``_relative``).  The one small
    quantity left is sinc(q + q0) >= cos(q0)/pi near the top of the plus
    side's energy range, where 2 rho h -> 1: P takes log2(1/cos q0) more bits.
    sinh and cosh come from one ``exp_fixed`` and sin from ``cos_sin_fixed``.
    """
    from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

    def scale():  # q0 (h > 0) or c
        if h > 0:
            return mp.asin(mp.sqrt(2 * h * rho))
        return mp.sqrt(-2 * h * rho) if h else mp.asinh(rho)

    a = scale()
    if h > 0:
        top = mp.acosh(mp.pi / (2 * a))
        bits = _fixed_bits(max(0, -mp.mag(mp.cos(a))))
    else:
        top = mp.asinh(mp.pi / (2 * a))
        bits = _fixed_bits()
    if top > 400:
        # |h| below about 1e-340, or at h = 0 rho below about 1e-173, out of
        # a float's reach: the lowest degrees would miss the mass near t = top
        # and agree on 0
        small = f"|h| = {mp.nstr(abs(h), 3)}" if h else f"rho = {mp.nstr(rho, 3)} at h = 0"
        raise DomainError(f"{small} is too small for the gauss scheme")
    period = which == "period"
    with mp.workprec(bits):  # the constants to the form's own scale
        a = scale()
        am, ae = _relative(a, bits)
        a0 = _ints(a, bits)
        r = _ints(rho / a, bits)
        # p ~ 1/r on the plus side: p 2^lift keeps its P bits when rho is large
        lift = max(0, mp.mag(rho / a) - 1) if side == "plus" and not period else 0
    one = 1 << bits
    r2, lead = r * r, 2 * r

    def sinc(x):
        """sin(x)/x at scale 2^P for 0 <= x < pi 2^P, to a few units."""
        if x >> (bits - 16):  # x >= 2^-16: sin to 16 more bits, then divide
            return (cos_sin_fixed(x << 16, bits + 16)[1] << bits) // (x << 16)
        x2, term, total, k = x * x >> bits, one, one, 3
        while term:
            term = (term * x2 >> bits) // ((k - 1) * k)
            total += -term if k & 2 else term
            k += 2
        return total

    def cosh_sinh(t):
        e = exp_fixed(t << 10, bits + 10) >> 10
        ei = (one << bits) // e
        return (e + ei) >> 1, (e - ei) >> 1

    if h > 0:

        def integrand(t):
            ch, sh = cosh_sinh(t)
            q = am * ch >> ae
            n = sinc(max(q - a0, 0)) * sinc(q + a0)
            b = r2 + (ch * sinc(q) >> bits) ** 2
            if period:
                return -((lead << 2 * bits) // math.isqrt(n * b))
            return math.isqrt((sh * sh * n << 2 * lift) // b) * (am * sh >> ae) >> bits

    else:
        g = 1 << 2 * bits if h else 0

        def integrand(t):
            ch, sh = cosh_sinh(t)
            y = sh * sinc(am * sh >> ae) >> bits
            y2 = y * y
            if period:
                return (lead * ch << bits) // math.isqrt((g + y2) * (r2 + y2))
            p = math.isqrt(((g + y2) << 2 * (bits + lift)) // (r2 + y2))
            return (p if side == "plus" else one - p) * (am * ch >> ae) >> bits

    return top, (integrand, bits, -bits - lift)


def _cut(z, lo, mid, hi, side: str):
    """The cut from the energy point z to the root hi (plus) or lo (minus): its length, then z's
    distances to mid and the third root; z = mid too.  ``_cut_halves`` reads it at two precisions,
    so a caller computes 1/rho in its thunk."""
    if side == "plus":
        return hi - z, z - mid, z - lo
    return z - lo, mid - z, hi - z


def _cut_halves(cut, k, which: str):
    """sqrt(span/2), and the two tanh-sinh integrands over t in
    (0, sqrt(span/2)) on ints, each as ``_quad`` takes it.

    ``cut()`` gives (span, near, far) at the current precision: the cut runs
    from the energy's end y = 0 to a root of the cubic at y = span, and the
    cubic's two other roots lie beyond y = 0, at distances ``near`` and
    ``far``: F(y) = (near + y)(far + y).  The action integrand
    is k sqrt(y / ((span - y) F(y))), the period's k / sqrt(y (span - y) F(y)).
    Each half is integrated in u = t^2 measured from its own end, which makes
    both analytic, with the t of dy = 2t dt cancelled by hand: each half is
    2k y^a / sqrt(D F(y)), a = 1 (action) or 0 (period), D = span - u, and
    y = u on the energy's half, y = D on the root's.

    Lengths run in units of 2^s, s even and span = 2^s span' with span' in
    [1/2, 2), and t in units of 2^(s/2), so each half is 2^(s (a - 3/2)) times
    a function of t' in [0, 1) whose factor 2^(s (a - 3/2)) goes into the
    exponent of the value.  u, D and the distances run at scale 2^(2P).  D and
    the root's half's F are at least 1/2 and 1/4; on the energy's half the
    action's y^2 / F(y) lies in [0, 1].  So only the period divides by a small
    quantity, F(u) >= near' far', which 2P bits must hold to P of its own:
    P takes (log2(1/min(near', far')) - P)/2 more bits when that is positive,
    which |h| or 1/rho^2 (rho^2 on the plus side) below 2^-P span asks for.
    """
    span, near, far = cut()
    s = 2 * (mp.mag(span) // 2)
    action = which == "action"
    bits = _fixed_bits()
    if not action:
        bits += max(0, (-mp.mag(min(near, far) / span) - bits + 1) // 2)
    wide = 2 * bits
    # each half is about 1/sqrt(F(span')): times 2^lift it keeps its P bits
    lift = max(0, mp.mag((near + span) * (far + span) / span**2) // 2)
    end = mp.sqrt(span / 2)
    with mp.workprec(bits):  # the distances to the form's own scale
        ends, d1, d2 = (_ints(x, wide - s) for x in cut())
        km, ke = _relative(k, bits)
    period_num = 1 << 4 * wide + 2 * lift

    def half(energy_end):
        def integrand(t):
            u = t * t
            d = ends - u
            y = u if energy_end else d
            num = y * y << 2 * (wide + lift) if action else period_num
            # F(y) is 0 only at a node that rounds to the end at h = 0, where
            # the action's y^2 is 0 too
            return km * math.isqrt(num // max(d * (d1 + y) * (d2 + y), 1)) >> ke - 1

        return integrand, bits - s // 2, -bits - lift - (s // 2 if action else 3 * s // 2)

    return end, (half(True), half(False))


def _quad_cut(cut, k, which: str) -> QuadratureResult:
    """Tanh-sinh over both halves of a cut (``_cut_halves``), summed."""
    end, halves = _cut_halves(cut, k, which)
    one, two = (_quad(*form, end, "tanh-sinh") for form in halves)
    sums = (one.value + two.value, one.error_estimate + two.error_estimate, one.evaluations + two.evaluations)
    return QuadratureResult(*sums, max(one.degree, two.degree), one.nodes_cold or two.nodes_cold)


def _integral(kappa, h, side, which: str, scheme: str, tol, wdps) -> QuadratureResult:
    """The action (which="action") or the period of one side by one scheme.

    side=None takes the side from h, which must lie strictly inside one; with
    a side, h = 0 gives the separatrix limit of the action.  T = 2 pi I' is
    negative above the separatrix: the area under it shrinks as h grows.
    """
    with mp.workdps(wdps):
        kq, hq = _to_mp(kappa), _to_mp(h)
        rho = rho_for_kappa(kq)
        side = side or _side(2 * hq, *_roots(rho))
        if scheme == "gauss":
            top, form = _angle_form(rho, hq, side, which)
            result = _quad(*form, top, "gauss")
            scale = mp.pi
        elif scheme == "tanh-sinh":
            sign = -1 if which == "period" and side == "plus" else 1
            result = _quad_cut(lambda: _cut(2 * hq, *_roots(rho), side), sign, which)
            scale = 2 * mp.pi
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        if which == "period":
            scale = 1
        return _result(result, scale, tol)


def action_quadrature(kappa, h, tol: float = 1e-12, dps: int = 50, scheme: str = "gauss") -> QuadratureResult:
    """Separatrix-side action I_beta(h) by direct quadrature.

    Positive h integrates the momentum branch between the turning angles,
    negative h the complementary area (1 - p) over the full half period.
    """
    return _integral(kappa, h, None, "action", scheme, tol, _working_dps(dps))


def period_quadrature(kappa, h, tol: float = 1e-12, dps: int = 50, scheme: str = "tanh-sinh") -> QuadratureResult:
    """Separatrix-side period T_beta(h) = 2 pi I_beta'(h) by direct quadrature.

    The same two forms as the action: gauss differentiates the angle form
    under the integral, tanh-sinh integrates 1/(sqrt(x (x - 2h)) sqrt(1 - kappa x - x^2))
    on the cut.  T is negative above the separatrix, where I_beta' < 0.
    """
    return _integral(kappa, h, None, "period", scheme, tol, _working_dps(dps))


def separatrix_action(kappa, side: str, dps: int = 50):
    """Closed-form limit I_beta(0) = k3 = atan(rho^{-+1}) / pi."""
    return constant_value(_side_constants(side)[2], kappa, dps)


def action_unscaled_quadrature(params: TopParams, h_sans: float, tol: float = 1e-12, dps: int = 50) -> QuadratureResult:
    """Action of the original (dimension-carrying) system in the inertia variable.

    The cubic's roots (1/theta3, 1/theta2, 1/theta1) and the energy point 2 h / ell^2 go through
    the scaled action's ``_side`` and ``_cut``.  Taken from theta, not rho, the roots check the
    energy scaling: the result equals 2 ell I_beta(h) after it.
    """
    with mp.workdps(_working_dps(dps)):
        ell = mp.mpf(params.ell)
        roots = tuple(1 / mp.mpf(t) for t in (params.theta3, params.theta2, params.theta1))
        z = 2 * _to_mp(h_sans) / ell**2
        side = _side(z, *roots)
        return _result(_quad_cut(lambda: _cut(z, *roots, side), ell, "action"), mp.pi, tol)


# ---------------------------------------------------------------------------
# numeric evaluation of the exact series channel
# ---------------------------------------------------------------------------

_CONSTANT_FORMS = {
    LOG64_RATIO: lambda rho, kq: log64_ratio(kq),
    ATAN_RHO: lambda rho, kq: mp.atan(rho),
    ATAN_INV_RHO: lambda rho, kq: mp.atan(1 / rho),
}


def constant_value(const: SymbolicConstant, kappa, dps: int = 50):
    """const's factor times its tag's form at kappa; a k3, tag t + _OVER_PI, is t's form over pi."""
    tag = const.kind.removesuffix(_OVER_PI)
    if tag not in _CONSTANT_FORMS:
        raise SeriesUsageError(f"unknown constant kind {const.kind!r}")
    with mp.workdps(_working_dps(dps)):
        kq = _to_mp(kappa)
        value = _CONSTANT_FORMS[tag](rho_for_kappa(kq), kq)
        return _to_mp(const.factor) * (value if tag == const.kind else value / mp.pi)


def _action_coefficients(series: ActionSeries, kappa) -> tuple[list, list]:
    """The coefficients at kappa of the two series an action sums, the regular
    action and the regular part of the singular one: each exact at kappa as a
    rational, then rounded once."""
    k = _exact(kappa)
    return tuple([_to_mp(c(k)) for c in s.coeffs] for s in (series.action_regular, series.action_singular.regular_part))


def beta_action_value(beta: BetaAction, kappa, h, dps: int = 50, *, coefficients=None):
    """I_beta(h) from the exact series channel plus the symbolic constants.

    A caller that evaluates many h at one kappa may pass ``coefficients``,
    the _action_coefficients of beta.series at kappa at the working precision.
    """
    with mp.workdps(_working_dps(dps)):
        kq, hq = _to_mp(kappa), _to_mp(h)
        if beta.k2 * hq <= 0:
            raise DomainError(f"side {beta.side!r} needs {beta.k2:+d}h > 0")
        p_val, q_val = (horner(c, hq) for c in coefficients or _action_coefficients(beta.series, kappa))
        k1 = constant_value(beta.k1, kq, dps)
        k3 = constant_value(beta.k3, kq, dps)
        singular = p_val * mp.log(beta.k2 * hq) + q_val
        return (k1 * p_val + beta.k2 * singular) / (2 * mp.pi) + k3


# ---------------------------------------------------------------------------
# series versus quadrature
# ---------------------------------------------------------------------------


_SCHEMES = ("gauss", "tanh-sinh")  # the row's quadrature value, then its cross-check


class VerifyRow(NamedTuple):
    h: float
    side: str
    series_value: object
    quadrature_value: object
    deviation: object
    cross_scheme_delta: object
    evaluations: int


class VerifyReport(NamedTuple):
    kappa: float
    order: int
    rows: tuple[VerifyRow, ...]
    max_deviation: object
    area_sum_deviation: object
    side_sum_deviation: object
    tol: float

    @property
    def passed(self) -> bool:
        """The series meets quadrature, and the two schemes meet each other,
        within tol on every row."""
        return self.max_deviation <= self.tol and all(r.cross_scheme_delta <= self.tol for r in self.rows)


def verify_series_numerics(
    kappa,
    h_samples: Iterable[float],
    order: int = 30,
    tol: float = 1e-9,
    dps: int = 50,
) -> VerifyReport:
    """Evaluate the separatrix-side action series and compare with quadrature.

    Samples must be finite and inside the proven convergence disc, |h| below
    ``_convergence_radius``: the nearer end of the energy range.  All are
    checked before any quadrature.  h = 0 rows compare the closed-form limit
    constants on both sides with both quadrature schemes at h = 0.
    """
    wdps = _working_dps(dps)
    plus, minus = assemble_beta_actions(order)
    with mp.workdps(wdps):
        kq = _to_mp(kappa)
        disc = _convergence_radius(rho_for_kappa(kq))
        rows = []
        quad_tol = max(tol * 1e-3, mp.mpf(10) ** (-(wdps - 8)))
        # both sides share one ActionSeries: its coefficients at kappa serve every sample
        coefficients = _action_coefficients(plus.series, kappa)
        samples = [(h, _to_mp(h)) for h in h_samples]
        for h, hq in samples:
            if abs(hq) >= disc:
                raise DomainError(f"sample h = {h} is outside the convergence disc of radius {mp.nstr(disc, 8)}")
        for h, hq in samples:
            for beta in (plus, minus) if hq == 0 else (plus if hq > 0 else minus,):
                if hq == 0:  # the closed-form limit against both schemes at h = 0
                    series_val = constant_value(beta.k3, kq, wdps)
                    main, other = (_integral(kq, 0, beta.side, "action", s, quad_tol, wdps) for s in _SCHEMES)
                else:
                    series_val = beta_action_value(beta, kq, hq, wdps, coefficients=coefficients)
                    main, other = (action_quadrature(kq, hq, tol=quad_tol, dps=wdps, scheme=s) for s in _SCHEMES)
                rows.append(
                    VerifyRow(
                        float(h) or 0.0,  # -0.0 is the h = 0 row too
                        beta.side,
                        series_val,
                        main.value,
                        abs(series_val - main.value),
                        abs(main.value - other.value),
                        main.evaluations + other.evaluations,
                    )
                )
        area_sum = constant_value(plus.area, kq, wdps) + constant_value(minus.area, kq, wdps)
        side_sum = constant_value(plus.k3, kq, wdps) + constant_value(minus.k3, kq, wdps)
        return VerifyReport(
            kappa=float(kq),
            order=order,
            rows=tuple(rows),
            max_deviation=max((r.deviation for r in rows), default=mp.mpf(0)),
            area_sum_deviation=abs(area_sum - mp.pi),
            side_sum_deviation=abs(side_sum - mp.mpf(1) / 2),
            tol=tol,
        )
