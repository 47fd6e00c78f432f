"""Frozen head tables and the table checks shared by every workload.

The values are the ones the test suite pins: the normal form and the
invariant tail through J^7, the Frobenius coefficients a_n and b_n through
n = 5.  A table is a list indexed by power; entry n is the tuple of exact
coefficients of a polynomial in kappa, lowest power first, with trailing
zeros stripped.  Nothing here imports eulertop, so the checks stay
independent of the code being measured.
"""

from __future__ import annotations

import math
from fractions import Fraction


def strip(coeffs) -> tuple:
    cs = tuple(Fraction(c) for c in coeffs)
    while cs and not cs[-1]:
        cs = cs[:-1]
    return cs


def _poly(factor, *factors):
    out = (Fraction(factor),)
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return strip(out)


KAPPA = (0, 1)
K2P4 = (4, 0, 1)

HEADS = {
    "bnf": {
        0: (),
        1: (Fraction(1),),
        2: _poly(Fraction(-1, 4), KAPPA),
        3: _poly(Fraction(-1, 16), K2P4),
        4: _poly(Fraction(-5, 128), KAPPA, K2P4),
        5: _poly(Fraction(-3, 1024), K2P4, (12, 0, 11)),
        6: _poly(Fraction(-7, 2048), KAPPA, K2P4, (20, 0, 9)),
        7: _poly(Fraction(-1, 16384), K2P4, (720, 0, 1776, 0, 527)),
    },
    "sigma": {
        0: (),
        1: (),
        2: _poly(Fraction(-3, 8), KAPPA),
        3: _poly(Fraction(-1, 96), (32, 0, 15)),
        4: _poly(Fraction(-5, 512), KAPPA, (36, 0, 11)),
        5: _poly(Fraction(-1, 10240), (2672, 0, 4200, 0, 945)),
        6: _poly(Fraction(-7, 40960), KAPPA, (3600, 0, 2960, 0, 527)),
        7: _poly(Fraction(-1, 688128), (241664, 0, 801360, 0, 446040, 0, 65709)),
    },
    "a": {
        0: (Fraction(1),),
        1: _poly(Fraction(1, 2), KAPPA),
        2: _poly(Fraction(3, 16), (4, 0, 3)),
        3: _poly(Fraction(5, 32), KAPPA, (12, 0, 5)),
        4: _poly(Fraction(35, 1024), (48, 0, 120, 0, 35)),
        5: _poly(Fraction(63, 2048), KAPPA, (240, 0, 280, 0, 63)),
    },
    "b": {
        0: (),
        1: _poly(1, KAPPA),
        2: _poly(Fraction(1, 16), (20, 0, 21)),
        3: _poly(Fraction(1, 96), KAPPA, (372, 0, 185)),
        4: _poly(Fraction(1, 6144), (18672, 0, 56760, 0, 18655)),
        5: _poly(Fraction(1, 20480), KAPPA, (313680, 0, 416360, 0, 102501)),
    },
}

LOG64_RATIO = "log64_over_kappa_sq_plus_4"


def evaluate(poly, kappa: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * kappa + c
    return acc


def head_errors(name: str, table) -> list[str]:
    """Powers at which ``table`` differs from the frozen head of ``name``."""
    frozen = HEADS[name]
    return [
        f"{name}[{n}] = {table[n]} != {frozen[n]}"
        for n in range(min(len(table), len(frozen)))
        if strip(table[n]) != frozen[n]
    ]


def parity_errors(name: str, table, sign: int) -> list[str]:
    """Powers whose kappa polynomial breaks c_n(-kappa) = sign (-1)^n c_n(kappa)."""
    bad = []
    for n, poly in enumerate(table):
        want = sign * (-1) ** n
        if any(c and (-1) ** k != want for k, c in enumerate(poly)):
            bad.append(f"{name}[{n}] has the wrong kappa parity")
    return bad


def expected_ratios(name: str, kappa: Fraction) -> dict[int, float]:
    """Ratio-test estimates |c_n1 / c_n2|^(1/(n2-n1)) the frozen head fixes."""
    values = [evaluate(HEADS[name][n], kappa) for n in range(len(HEADS[name]))]
    nonzero = [n for n, c in enumerate(values) if c]
    return {
        n1: float(abs(values[n1] / values[n2])) ** (1.0 / (n2 - n1))
        for n1, n2 in zip(nonzero, nonzero[1:])
    }


def ratio_errors(name: str, kappa: Fraction, ns, ratios) -> list[str]:
    """Compare the leading ratio estimates of a radius report with the frozen head."""
    want = expected_ratios(name, kappa)
    got = dict(zip(ns, ratios))
    return [
        f"{name} ratio at n={n}: {got.get(n)} != {r}"
        for n, r in want.items()
        if n not in got or not math.isclose(got[n], r, rel_tol=1e-12)
    ]
