"""Span tracing of eulertop from outside the package.

``Tracer.install`` replaces each listed public function by a wrapper, in
every ``eulertop`` module namespace that binds it, so calls between modules
and inside a module are both seen.  A span is (name, tag, request, start,
end, parent); spans stay in memory and are written out at the end.  A
span's self time is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
The first ``action_quadrature`` call per scheme and precision is repeated at
once: the first call pays for computing the quadrature nodes (cold), the
repeat finds them cached (warm).
"""

from __future__ import annotations

import json
import sys
import time

# module, attribute, span name (None: module.attribute), tag of a call
TRACED = (
    ("series", "mul_trunc", None, None),
    ("series", "compose_trunc", None, None),
    ("series", "recip_trunc", None, None),
    ("series", "log_unit_trunc", None, None),
    ("series", "revert_trunc", None, None),
    ("series", "LogSeries.compose_with_log", None, None),
    ("normalform", "expand_hamiltonian", None, None),
    ("normalform", "williamson_reduce", None, None),
    ("normalform", "birkhoff_normalize", None, None),
    ("normalform", "euler_normal_form", None, None),
    ("picardfuchs", "frobenius_table", None, lambda a, k: k.get("method", a[1] if len(a) > 1 else "recursion")),
    ("picardfuchs", "frobenius_a_at", "picardfuchs.frobenius_at", None),
    ("picardfuchs", "frobenius_b_at", "picardfuchs.frobenius_at", None),
    ("picardfuchs", "build_action_series", None, None),
    ("picardfuchs", "assemble_beta_actions", None, None),
    ("invariants", "bnf_via_reversion", None, None),
    ("invariants", "extract_sigma", None, None),
    ("invariants", "radius_analysis", None, lambda a, k: ",".join(k.get("targets", a[2] if len(a) > 2 else ()))),
    ("oracle", "action_quadrature", None, lambda a, k: k.get("scheme", "gauss")),
    ("oracle", "beta_action_value", None, None),
    ("oracle", "verify_series_numerics", None, None),
    ("cli", "main", None, None),
    ("cli", "execute", None, None),
)

# results whose coefficient sizes are recorded, in bits
_SIZED = {"series.revert_trunc", "series.log_unit_trunc"}


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length in a list of Fractions or KappaPolys."""
    best = 0
    for v in values:
        for c in getattr(v, "coeffs", (v,)):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.coeff_bits_max = 0
        # action_quadrature calls: scheme, dps, seconds, evaluations, kind
        self.quadrature: list[tuple] = []
        self._stack: list[int] = []
        self._seen_quadrature: set = set()

    def install(self, package: str = "eulertop") -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module, attr, name, tagger in TRACED:
            home = sys.modules[f"{package}.{module}"]
            name = name or f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, tagger))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name, tagger)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, fn, name, tagger):
        spans, stack = self.spans, self._stack
        quad = name == "oracle.action_quadrature"
        sized = name in _SIZED

        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else ""
            idx = len(spans)
            span = [name, tag, self.request, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[3], span[4] = t0, t1
            if sized:
                self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(result))
            if quad:
                self._record_quadrature(fn, args, kwargs, tag, t1 - t0, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_quadrature(self, fn, args, kwargs, scheme, seconds, result):
        key = (scheme, kwargs.get("dps", 50))
        if key in self._seen_quadrature:
            self.quadrature.append((*key, seconds, result.evaluations, "later"))
            return
        self._seen_quadrature.add(key)
        self.quadrature.append((*key, seconds, result.evaluations, "cold"))
        # the immediate repeat finds every node it needs already cached
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        self.quadrature.append((*key, time.perf_counter() - t0, 0, "warm"))

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, and per name and tag."""
        child = [0.0] * len(self.spans)
        for name, tag, req, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict[str, list] = {}
        for i, (name, tag, req, t0, t1, parent) in enumerate(self.spans):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                agg = totals.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - child[i]
        return {
            "spans": totals,
            "coeff_bits_max": self.coeff_bits_max,
            "quadrature": self.quadrature,
            "span_count": len(self.spans),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
