"""Exact series kernel.

Rationals, polynomials in the shape parameter kappa (with their
interpolation from values at rational kappa), truncated power series, and
log-augmented series, together with the calculus / composition / reversion
operations the rest of the package builds on.  A kappa-polynomial is
stored fraction-free, as int numerators over one positive int denominator,
and reads its coefficients out as ``fractions.Fraction``; a series at a
fixed rational kappa has ``Fraction`` coefficients.  The numerators are
a _Row, whose one product _row_dot the recurrences of picardfuchs share.
The list kernel is generic over the ring: it runs on KappaPoly and Fraction
lists, and ``horner`` also evaluates at floats and mpmath numbers
(oracle.beta_action_value).  Its reduction rule over KappaPoly: one
reduction (one gcd or shift in _settle) per output coefficient of a
product, an online coefficient or a block sum of a composition, not one
per term; each is a sum of products over one common denominator,
_sum_of_products.
Truncation order is explicit state and binary operations truncate to the
minimum order of their inputs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "SeriesUsageError",
    "SingularReversionError",
    "InternalConsistencyError",
    "KappaPoly",
    "PowerSeries",
    "LogSeries",
    "KP_ZERO",
    "KP_ONE",
    "KP_KAPPA",
    "interpolate_kappa_poly",
    "horner",
    "add_list",
    "strip_list",
    "mul_trunc",
    "compose_trunc",
    "recip_trunc",
    "deriv_list",
    "integrate_list",
    "log_unit_trunc",
    "revert_trunc",
]


class SeriesUsageError(ValueError):
    """An operation was called outside its contract (mixed variables, bad constant term)."""


class SingularReversionError(SeriesUsageError):
    """The series has no compositional inverse at the requested truncation."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree by construction failed to do so."""


class _Frozen:
    """Base of the value types that define operators or check their arguments.

    Each field is a name in ``__slots__``, set once when the value is made
    (``_assign``).  Values are equal only within one class, and hash, show
    and pickle as the tuple of their fields; assigning or deleting a field
    raises AttributeError.  That is what a frozen dataclass gives, without
    the about 20 ms that importing ``dataclasses`` and building the classes
    adds to every process.  Not a tuple, so ``2 * series`` cannot silently
    repeat one.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        self._assign(*state)


def _check_order(order, floor: int, error: type = SeriesUsageError, message: str = "", name: str = "order") -> None:
    """Refuse an order or precision argument, called ``name``, that is not an int (a bool
    included) or is below floor (with ``message``, if given): the one rule of such arguments."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise error(f"{name} must be an int, got {order!r}")
    if order < floor:
        raise error(message or f"need {name} >= {floor}")


def _keeps_highest(truncate, floor: int, error: type = SeriesUsageError, message: str = ""):
    """Decorator for a function of one order whose coefficients do not change
    as the order rises: it keeps the result at the highest order computed so
    far and answers any order at or below it by ``truncate(kept, order)``.

    The order is checked (_check_order) before the kept result is read, so a
    refused order raises the same error whatever is kept; a call that raises
    keeps nothing.  ``cache_clear()`` drops the kept result.
    """

    def wrap(fn):
        kept = None  # (order, result)

        @functools.wraps(fn)
        def keeping(order):
            nonlocal kept
            _check_order(order, floor, error, message)
            top = kept
            if top is not None and order <= top[0]:
                return truncate(top[1], order)
            result = fn(order)
            kept = (order, result)
            return result

        def cache_clear() -> None:
            nonlocal kept
            kept = None

        keeping.cache_clear = cache_clear
        return keeping

    return wrap


def _quoted(text) -> str:
    """text quoted for an error message: a long text by its head and its
    length, None or an int of at most 64 bits by its repr, and anything else
    by its type, since a repr may be huge or refused (an int past 4300
    digits)."""
    if isinstance(text, str):
        return repr(text) if len(text) <= 24 else f"{text[:10]!r}... ({len(text)} chars)"
    if text is None or isinstance(text, int) and text.bit_length() <= 64:
        return repr(text)
    return f"of type {type(text).__name__}"


def _is_exact_rational(x) -> bool:
    """An int or a Fraction: a float would run the exact pipeline in floating
    point, and a bool, an int to Python, is refused too."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _frac(x) -> Fraction:
    if not _is_exact_rational(x):
        raise TypeError(f"expected an exact rational, got {type(x).__name__}")
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# polynomials in kappa
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)  # the one zero coefficient that ``KappaPoly.coeffs`` hands out


class _Row(tuple):
    """A polynomial in kappa with int coefficients, lowest power first: the
    numerators of a KappaPoly and the symbolic ring element of the
    recurrences, with their sums and int multiples."""

    __slots__ = ()

    def __add__(self, other):
        return _Row(add_list(self, other))

    def __neg__(self):
        return _Row([-c for c in self])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, c: int):
        return self if c == 1 else _Row([c * x for x in self])

    __rmul__ = __mul__


def _row_dot(ws, xs, ys) -> _Row:
    """sum w x y over int weights and two sequences of _Row: the one product of int rows."""
    out = []
    for c, x, y in zip(ws, xs, ys):
        out.extend([0] * (len(x) + len(y) - 1 - len(out)))
        for i, xi in enumerate(x):
            if xi:
                cx = c * xi
                for j, yj in enumerate(y, i):
                    out[j] += cx * yj
    return _Row(out)


class KappaPoly(_Frozen):
    """Polynomial in kappa with exact rational coefficients, lowest power first.

    Stored fraction-free: the coefficient of kappa^n is num[n] / den, with
    den > 0, no trailing zero in num and gcd(den, *num) = 1, so equal
    polynomials have equal fields.  The zero polynomial has num = () and
    den = 1 and reports degree -inf.  ``coeffs``, the coefficients as
    Fractions, is computed on each read.
    """

    __slots__ = ("num", "den")  # num: _Row, den: int

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._assign(*_settle([c.numerator * (den // c.denominator) for c in cs], den))

    @staticmethod
    def of(*coeffs) -> "KappaPoly":
        return KappaPoly(coeffs)

    @staticmethod
    def constant(c) -> "KappaPoly":
        return KappaPoly((c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) if c else _ZERO for c in self.num)

    @property
    def degree(self) -> float:
        return len(self.num) - 1 if self.num else float("-inf")

    def coefficient(self, n: int) -> Fraction:
        return Fraction(self.num[n], self.den) if 0 <= n < len(self.num) else _ZERO

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KappaPoly.constant(other)
        if not isinstance(other, KappaPoly):
            return NotImplemented
        a, da, b, db = self.num, self.den, other.num, other.den
        if da != db:  # over the lcm of the two denominators
            g = math.gcd(da, db)
            a, b, da = a * (db // g), b * (da // g), da // g * db
        return _kappa_poly(a + b, da)

    __radd__ = __add__

    def __neg__(self):  # -num over den is canonical already: no _settle
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, KappaPoly) else KappaPoly.constant(-_frac(other)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return _kappa_poly(self.num * f.numerator, self.den * f.denominator)
        if not isinstance(other, KappaPoly):
            return NotImplemented
        return _kappa_poly(_row_dot((1,), (self.num,), (other.num,)), self.den * other.den)

    __rmul__ = __mul__

    def flip_kappa(self) -> "KappaPoly":
        """The polynomial with kappa replaced by -kappa."""
        # the odd entries negated is canonical already: no _settle
        return _canonical(_Row(_alternate(self.num)), self.den)

    def __call__(self, kappa):
        """Horner evaluation; exact when ``kappa`` is an int or a Fraction."""
        if _is_exact_rational(kappa):
            # q^d P(p/q) for P of degree d, by Horner over the ints; one division at the end
            p, q = kappa.numerator, kappa.denominator
            acc, qk = 0, 1
            for c in reversed(self.num):
                acc, qk = acc * p + c * qk, qk * q
            return Fraction(acc * q, self.den * qk)
        if isinstance(kappa, bool):
            raise TypeError("kappa must be a number, got bool")
        return horner(self.coeffs, kappa)

    def __repr__(self):
        return f"KappaPoly(coeffs={self.coeffs!r})"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*k^{i}" if i else f"{c}")
        return " + ".join(parts)


def _settle(num: Sequence[int], den: int) -> tuple[_Row, int]:
    """num / den in canonical form: trailing zeros stripped, one gcd reduction."""
    num = strip_list(num)
    if den & (den - 1) or den == 1:
        g = math.gcd(den, *num)
        num, den = [c // g for c in num] if g > 1 else num, den // g
    else:  # den = 2^e: the gcd is 2 to the fewest trailing zeros among den and num
        shift = min([den, *(c & -c for c in num if c)]).bit_length() - 1
        num, den = [c >> shift for c in num], den >> shift
    return _Row(num), den


def _canonical(num: _Row, den: int) -> KappaPoly:
    """The KappaPoly num / den for num and den in the canonical form of _settle."""
    poly = object.__new__(KappaPoly)
    object.__setattr__(poly, "num", num)
    object.__setattr__(poly, "den", den)
    return poly


def _kappa_poly(num: Sequence[int], den: int) -> KappaPoly:
    """The KappaPoly with coefficients num[n] / den, for int num and a positive
    int den; the one constructor of internal results, with no _frac pass."""
    return _canonical(*_settle(num, den))


def _parity_poly(num: Sequence[int], den: int, d: int) -> KappaPoly:
    """The KappaPoly with num[j] / den at kappa^(d-2j) and 0 at every other
    power, for int num and a positive int den: a polynomial of one kappa
    parity, reduced before the zeros between its coefficients are put in."""
    num, den = _settle(num, den)
    row = [0] * (d + 1)
    row[d + 2 - 2 * len(num) :: 2] = num[::-1]
    return _canonical(_Row(strip_list(row)), den)


def interpolate_kappa_poly(kappas: Sequence[Fraction], values: Sequence[Fraction], odd: int) -> KappaPoly:
    """The polynomial c(kappa) = kappa^odd * p(kappa^2) with c(kappas[i]) = values[i].

    Newton interpolation of p in x = kappa^2 uses every point but the last,
    so deg p < len(kappas) - 1; the last point is checked exactly and a
    mismatch raises InternalConsistencyError.  The kappa^2 must be distinct,
    and for odd = 1 the kappas nonzero.
    """
    xs = [k * k for k in kappas]
    diffs = [v / k**odd for k, v in zip(kappas, values)][:-1]
    # divided differences in place, then the Newton form expanded innermost first
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    p: list = []
    for i in range(len(diffs) - 1, -1, -1):
        p = add_list(mul_trunc(p, (-xs[i], 1), len(p)), (diffs[i],))
    coeffs = [Fraction(0)] * (2 * len(p) + odd)
    coeffs[odd::2] = p
    poly = KappaPoly(tuple(coeffs))
    if poly(kappas[-1]) != values[-1]:
        raise InternalConsistencyError(
            "interpolation in kappa missed the check point; the degree bound fails"
        )
    return poly


# ---------------------------------------------------------------------------
# generic truncated-series helpers on plain coefficient lists
#
# These work over any coefficient ring with +, -, * and a falsy zero, which
# each function takes from its inputs (a coefficient times 0, or the constant
# term a composition or reversion requires to vanish); in practice KappaPoly
# for the symbolic pipeline and Fraction for series at a fixed rational kappa.
# ---------------------------------------------------------------------------


def _unit_inverse(c):
    if isinstance(c, Fraction):
        if not c:
            raise SingularReversionError("zero is not invertible")
        return 1 / c
    if isinstance(c, KappaPoly):
        if c.degree != 0:
            raise SingularReversionError(
                "coefficient is not an invertible constant: %s" % c
            )
        n = c.num[0]
        return _kappa_poly([c.den if n > 0 else -c.den], abs(n))
    raise TypeError(f"cannot invert {type(c).__name__}")


def add_list(a: Sequence, b: Sequence) -> list:
    """Coefficient-wise sum of two lists of any lengths; the longer one's tail is copied."""
    n = min(len(a), len(b))
    return [x + y for x, y in zip(a, b)] + [*a[n:], *b[n:]]


def horner(coeffs: Sequence, x):
    """The value of sum_n coeffs[n] x^n, accumulated from the top coefficient down."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _alternate(a: Sequence) -> list:
    """The coefficients of f(-x) from those of f(x)."""
    return [-c if n % 2 else c for n, c in enumerate(a)]


def strip_list(a: Sequence) -> list:
    """The list without its trailing zero coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _zero_of(a: Sequence, b: Sequence):
    """The zero of the ring of a's coefficients, or of b's if a is empty."""
    if not (a or b):
        raise SeriesUsageError("two empty coefficient lists have no ring to take a zero from")
    x = (a or b)[0]
    return KP_ZERO if isinstance(x, KappaPoly) else x * 0


def _sum_of_products(xs: Iterable, ys: Iterable, zero):
    """sum x y over the pairs of xs and ys, zero terms skipped, with one reduction.

    In the ring of ``zero``.  KappaPoly terms are scaled to one common
    denominator D, the lcm of their den_x den_y, summed by one _row_dot with
    int weights D / (den_x den_y) and settled once.  Other rings (Fraction,
    ints, floats) keep a plain running sum: Fraction lists carry only the
    small interpolations of the normal form, where one reduction per
    coefficient measured no faster.
    """
    terms = [(x, y) for x, y in zip(xs, ys) if x and y]
    if not terms:
        return zero
    if isinstance(zero, KappaPoly):
        dens = [x.den * y.den for x, y in terms]
        d = math.lcm(*dens)
        return _kappa_poly(_row_dot([d // e for e in dens], [x.num for x, _ in terms], [y.num for _, y in terms]), d)
    acc = zero
    for x, y in terms:
        acc = acc + x * y
    return acc


def mul_trunc(a: Sequence, b: Sequence, order: int) -> list:
    """Cauchy product of coefficient lists, truncated at ``order``.

    One empty list gives the other's zeros; two raise SeriesUsageError.
    """
    if order < 0:
        return []
    return [_cauchy(a, b, n, max(n + 1 - len(b), 0)) for n in range(order + 1)]


def _cauchy(a: Sequence, b: Sequence, n: int, lo: int):
    """sum_{i=lo}^{n} a[i] b[n-i], with a read as zero past its end: one
    coefficient of an online product, for which b is known through b[n-lo]."""
    bs = b[n - lo :: -1] if lo <= n else ()
    return _sum_of_products(a[lo : n + 1], bs, _zero_of(a, b))


def _baby_steps(inner: Sequence, order: int, size: int) -> list:
    """inner^1 ... inner^m truncated at ``order``, m = isqrt(size): the powers
    over which compose_trunc combines an outer series of ``size`` coefficients."""
    zero = inner[0]
    if zero:
        raise SeriesUsageError("inner series must vanish at 0")
    powers = [[*inner[: order + 1], *[zero] * (order + 1 - len(inner))]]
    while len(powers) < max(math.isqrt(size), 1):
        powers.append(mul_trunc(powers[-1], inner, order))
    return powers


def compose_trunc(outer: Sequence, inner: Sequence, order: int, powers: list | None = None) -> list:
    """The composition outer(inner(x)) truncated at ``order``; inner must have
    zero constant term.

    Baby steps and giant steps (Brent & Kung 1978, "Fast algorithms for
    manipulating formal power series", J. ACM 25).  Outer coefficients past
    ``order`` are dropped, since inner^k starts at x^k.  With m = isqrt of
    the n left, form inner^1 ... inner^m, take each block of m outer
    coefficients as a combination of those powers plus its constant term,
    and run Horner over the blocks with inner^m as the step.  That is about
    2 sqrt(n) truncated products, against n for Horner on single
    coefficients (the case m = 1).  ``powers``, the _baby_steps of inner for
    the n outer coefficients, lets outer series of one length share them.
    """
    _check_order(order, 0)
    outer = outer[: order + 1]
    if powers is None:
        powers = _baby_steps(inner, order, len(outer))
    m, zero = len(powers), powers[0][0]
    # each block sum is one reduction per coefficient: the block's outer
    # coefficients against inner^0 .. inner^(m-1), and the running res[i] as
    # one more term, with weight one
    one = zero + 1
    steps = [[one] + [zero] * order, *powers[:-1]]
    res = [zero] * (order + 1)
    for start in reversed(range(0, len(outer), m)):
        if start + m < len(outer):
            res = mul_trunc(res, powers[-1], order)
        block = outer[start : start + m]
        res = [_sum_of_products((r, *block), (one, *(s[i] for s in steps)), zero) for i, r in enumerate(res)]
    return res


def recip_trunc(a: Sequence, order: int) -> list:
    """Multiplicative inverse of a series with invertible constant term."""
    inv0 = _unit_inverse(a[0])
    _check_order(order, 0)
    # out[n] = -inv0 sum_{i>=1} a[i] out[n-i]: -inv0 goes into a once, so each
    # online coefficient is one reduction
    minus_inv0 = -inv0
    scaled = [c * minus_inv0 for c in a[: order + 1]]
    out = [a[0] * 0] * (order + 1)
    out[0] = inv0
    for n in range(1, order + 1):
        out[n] = _cauchy(scaled, out, n, 1)
    return out


def deriv_list(a: Sequence) -> list:
    return [a[n] * n for n in range(1, len(a))]


def integrate_list(a: Sequence) -> list:
    return [a[0] * 0] + [a[n] * Fraction(1, n + 1) for n in range(len(a))]


def log_unit_trunc(a: Sequence, order: int) -> list:
    """log of a series with constant term 1, via integrating a'/a."""
    if not a[0] or a[0] * a[0] != a[0]:
        raise SeriesUsageError("log needs a series with constant term 1")
    _check_order(order, 0)
    q = mul_trunc(deriv_list(a), recip_trunc(a, order), max(order - 1, 0))
    return integrate_list(q)[: order + 1]


def revert_trunc(a: Sequence, order: int) -> list:
    """Compositional inverse by Lagrange inversion (Knuth, TAOCP 2, 4.7).

    The generic reversion behind PowerSeries.revert, for any series.
    Requires a[0] = 0, an invertible linear coefficient and order >= 1.
    With phi = x / a(x), the inverse has g_n = [x^(n-1)] phi^n / n; one pass
    multiplies the running power by phi, O(n) truncated products and
    O(n^3) ring operations.  The normal form itself comes from an O(n^2)
    recurrence (picardfuchs._bnf).
    """
    if a[0]:
        raise SingularReversionError("series must vanish at 0 to be reverted")
    if len(a) < 2 or not a[1]:
        raise SingularReversionError("zero linear coefficient")
    _check_order(order, 1)
    phi = recip_trunc(a[1:], order - 1)
    g, power = [a[0]] * (order + 1), phi
    g[1] = phi[0]
    for n in range(2, order + 1):
        power = mul_trunc(power, phi, order - 1)
        g[n] = power[n - 1] * Fraction(1, n)
    return g


# ---------------------------------------------------------------------------
# power series over KappaPoly
# ---------------------------------------------------------------------------

# built once the list kernel that KappaPoly runs on is defined
KP_ZERO = KappaPoly()
KP_ONE = KappaPoly.constant(1)
KP_KAPPA = KappaPoly.of(0, 1)

_VARS = ("h", "J")
_OTHER_VAR = {"h": "J", "J": "h"}


def _coerce_kp(c) -> KappaPoly:
    if isinstance(c, KappaPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return KappaPoly.constant(c)
    raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")


class PowerSeries(_Frozen):
    """Power series in one formal variable ('h' or 'J'), truncated at a fixed order.

    ``coeffs`` has length order + 1; arithmetic between series requires equal
    variable tags and truncates to the minimum order.
    """

    __slots__ = ("var", "coeffs")  # coeffs: tuple[KappaPoly, ...]

    def __init__(self, var: str, coeffs: Iterable):
        if var not in _VARS:
            raise SeriesUsageError(f"unknown series variable {var!r}")
        cs = tuple(_coerce_kp(c) for c in coeffs)
        if not cs:
            raise SeriesUsageError("a series needs at least the constant coefficient")
        self._assign(var, cs)

    @staticmethod
    def from_coeffs(var: str, coeffs: Iterable) -> "PowerSeries":
        return PowerSeries(var, tuple(coeffs))

    @staticmethod
    def zero(var: str, order: int) -> "PowerSeries":
        _check_order(order, 0)
        return PowerSeries(var, (KP_ZERO,) * (order + 1))

    @staticmethod
    def identity(var: str, order: int) -> "PowerSeries":
        _check_order(order, 1, SeriesUsageError, "identity needs order >= 1")
        return PowerSeries(var, (KP_ZERO, KP_ONE) + (KP_ZERO,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> KappaPoly:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else KP_ZERO

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        _check_order(order, 0)
        if order >= self.order:
            return self
        return PowerSeries(self.var, self.coeffs[: order + 1])

    def pad(self, order: int) -> "PowerSeries":
        """Extend with zero coefficients; the caller vouches the tail vanishes."""
        _check_order(order, 0)
        if order <= self.order:
            return self.truncate(order)
        return PowerSeries(self.var, self.coeffs + (KP_ZERO,) * (order - self.order))

    def _check_var(self, other: "PowerSeries"):
        if self.var != other.var:
            raise SeriesUsageError(
                f"variable mismatch: {self.var!r} vs {other.var!r}"
            )

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_var(other)
        n = min(self.order, other.order)
        return PowerSeries(
            self.var, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __neg__(self):
        return PowerSeries(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, KappaPoly)):
            return PowerSeries(self.var, tuple(c * other for c in self.coeffs))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_var(other)
        n = min(self.order, other.order)
        return PowerSeries(self.var, tuple(mul_trunc(self.coeffs, other.coeffs, n)))

    __rmul__ = __mul__

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(.)), truncated at the minimum of the two orders."""
        if inner.coefficient(0):
            raise SeriesUsageError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        return PowerSeries(inner.var, tuple(compose_trunc(self.coeffs, inner.coeffs, n)))

    def revert(self) -> "PowerSeries":
        """Compositional inverse, returned in the complementary variable."""
        g = revert_trunc(list(self.coeffs), self.order)
        return PowerSeries(_OTHER_VAR[self.var], tuple(g))

    def differentiate(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries.zero(self.var, 0)
        return PowerSeries(self.var, tuple(deriv_list(self.coeffs)))

    def integrate(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant; order increases by one."""
        return PowerSeries(self.var, tuple(integrate_list(self.coeffs)))

    def reflect(self) -> "PowerSeries":
        """The series of x -> f(-x)."""
        return PowerSeries(self.var, tuple(_alternate(self.coeffs)))

    def flip_kappa(self) -> "PowerSeries":
        return PowerSeries(self.var, tuple(c.flip_kappa() for c in self.coeffs))


class LogSeries(_Frozen):
    """A pair (L, R) representing L(x)*log(x) + R(x).

    Both parts share the variable tag and the truncation order.
    """

    __slots__ = ("log_part", "regular_part")

    def __init__(self, log_part: PowerSeries, regular_part: PowerSeries):
        if log_part.var != regular_part.var:
            raise SeriesUsageError("log and regular parts must share a variable")
        if log_part.order != regular_part.order:
            raise SeriesUsageError("log and regular parts must share an order")
        self._assign(log_part, regular_part)

    @property
    def var(self) -> str:
        return self.log_part.var

    @property
    def order(self) -> int:
        return self.log_part.order

    def truncate(self, order: int) -> "LogSeries":
        _check_order(order, 0)
        if order >= self.order:
            return self
        return LogSeries(self.log_part.truncate(order), self.regular_part.truncate(order))

    def integrate(self) -> "LogSeries":
        """Termwise antiderivative, constants fixed so the value tends to 0 at 0.

        With L = sum l_n x^n the log channel integrates by parts:
        int L log x dx = (sum l_n x^{n+1}/(n+1)) log x - sum l_n x^{n+1}/(n+1)^2.
        """
        l_int = self.log_part.integrate()
        correction = PowerSeries(
            self.var,
            tuple(
                c * Fraction(1, max(n, 1))
                for n, c in enumerate(l_int.coeffs)
            ),
        )
        return LogSeries(l_int, self.regular_part.integrate() - correction)

    def compose_with_log(self, inner: PowerSeries) -> "LogSeries":
        """Substitute x = inner(y) where inner = y + O(y^2).

        log(inner) splits as log y + log(inner/y); the second factor is a
        regular series, so the result is again an L*log + R pair in y:

            (L o inner) * log y + [(L o inner) * log(inner/y) + R o inner]
        """
        if inner.coefficient(0):
            raise SeriesUsageError("inner series must have zero constant term")
        if inner.coefficient(1) != KP_ONE:
            raise SeriesUsageError(
                "compose_with_log needs a unit inner series (linear coefficient 1)"
            )
        n = min(self.order, inner.order - 1)
        unit = PowerSeries(inner.var, inner.coeffs[1:]).pad(n)
        log_unit = PowerSeries(inner.var, tuple(log_unit_trunc(unit.coeffs, n)))
        # both parts over one set of baby steps of inner
        head = inner.coeffs[: n + 1]
        powers = _baby_steps(head, n, n + 1)
        l_comp, r_comp = (
            PowerSeries(inner.var, tuple(compose_trunc(part.coeffs, head, n, powers)))
            for part in (self.log_part, self.regular_part)
        )
        return LogSeries(l_comp, l_comp * log_unit + r_comp)
