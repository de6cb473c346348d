"""Univariate real polynomials with exact derivatives and robust root isolation."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import ConfigError, DegenerateDerivative

ROOT_TOL = 1e-12
ROOTS_MEMO_SIZE = 1024  # distinct polynomials whose roots real_roots keeps


def _strip(coeffs) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as coefficients in ascending degree order.

    The zero polynomial is the empty coefficient tuple; otherwise the trailing
    coefficient is nonzero.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; works on scalars and numpy arrays."""
        acc = x * 0.0  # inherits the input's shape
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        """Exact coefficient differentiation."""
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial([c * a for a in self.coeffs])

    def shift_linear(self, slope: float) -> "Polynomial":
        """Return self + slope * x."""
        cs = list(self.coeffs)
        while len(cs) < 2:
            cs.append(0.0)
        cs[1] += slope
        return Polynomial(cs)

    def is_coercive(self) -> bool:
        """Even degree >= 2 with positive leading coefficient."""
        return self.degree >= 2 and self.degree % 2 == 0 and self.coeffs[-1] > 0

    def cauchy_bound(self) -> float:
        """All real roots lie in [-B, B] with B = 1 + max |c_k / c_lead|."""
        lead = self.coeffs[-1]
        return 1.0 + max((abs(c / lead) for c in self.coeffs[:-1]), default=0.0)


def compile_horner(width: int, source: str):
    """The function kernel that source defines, in whose text {cs} stands for
    the names c0, c1, ... of width coefficients from the leading one down and
    {horner} for Horner's rule at x unrolled on them, for width 4
    ((c0 * x + c1) * x + c2) * x + c3: one expression, no loop over the
    coefficients.  At a finite x it has the bits of Polynomial.__call__,
    whose first step x * 0.0 * x + c0 is exactly a nonzero c0."""
    cs = [f"c{k}" for k in range(width)]
    horner = cs[0]
    for c in cs[1:]:
        horner = f"({horner}) * x + {c}"
    namespace: dict = {}
    exec(source.format(cs=", ".join(cs), horner=horner), namespace)
    return namespace["kernel"]


@cache
def _bisector(width: int):
    # _bisect's loop for width coefficients, compiled on first use
    return compile_horner(width, """def kernel(coeffs, lo, hi, up):
    {cs}, = coeffs
    for _ in range(200):
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
        v = {horner}
        if v == 0.0:
            return x
        if (v > 0.0) == up:
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi) + 0.0  # +0.0 normalizes -0.0
""")


def _bisect(p: Polynomial, lo: float, hi: float, s_lo: float) -> float:
    # p has opposite signs at lo and hi; p is monotone on [lo, hi].
    return _bisector(len(p.coeffs))(p.coeffs[::-1], lo, hi, s_lo > 0.0)


def _eval_scale(p: Polynomial, x: float) -> float:
    # magnitude of the terms entering the Horner sum; calibrates "zero"
    try:
        return max(1.0, sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs)))
    except OverflowError:
        raise _span_error(p, f"at |x| = {abs(x):.3g}") from None


def _span_error(p: Polynomial, where: str) -> ConfigError:
    return ConfigError(f"coefficients span too wide a range for double precision: "
                       f"isolating the real roots of {list(p.coeffs)} overflows {where}")


def real_roots(p: Polynomial) -> list[float]:
    """All real roots of p, ascending, multiple roots reported once.

    Between consecutive critical points of p the polynomial is monotone, so a
    sign change brackets exactly one root, refined by bisection.  Breakpoints
    where |p| falls below ROOT_TOL (relative to the evaluation magnitude) are
    sign-touching roots and are reported once; the snap keeps double roots from
    being either missed or double counted.  The roots of the last
    ROOTS_MEMO_SIZE distinct polynomials are kept, keyed on the coefficients'
    bit patterns (x + 0.0 has the root -0.0, x - 0.0 the root 0.0); each
    call returns a fresh list.
    """
    return list(_isolate(struct.pack(f"{len(p.coeffs)}d", *p.coeffs)))


@lru_cache(maxsize=ROOTS_MEMO_SIZE)
def _isolate(key: bytes) -> tuple[float, ...]:
    p = Polynomial(struct.unpack(f"{len(key) // 8}d", key))
    if p.is_zero:
        raise DegenerateDerivative("zero polynomial has no isolated roots")
    if p.degree == 0:
        return ()
    if p.degree == 1:
        return (-p.coeffs[0] / p.coeffs[1],)

    bound = p.cauchy_bound()
    if bound == math.inf:  # a coefficient ratio overflowed; the nodes would be NaN
        raise _span_error(p, "in the root bound")
    inner = [r for r in real_roots(p.derivative()) if -bound < r < bound]
    nodes = [-bound] + sorted(inner) + [bound]

    signs = []
    for x in nodes:
        v = p(x)
        if abs(v) <= ROOT_TOL * _eval_scale(p, x):
            signs.append(0)
        else:
            signs.append(1 if v > 0 else -1)

    roots = [x for x, s in zip(nodes, signs) if s == 0]
    # strict sign changes between consecutive non-snapped nodes
    idx = [k for k, s in enumerate(signs) if s != 0]
    for a, b in zip(idx[:-1], idx[1:]):
        if signs[a] * signs[b] < 0:
            roots.append(_bisect(p, nodes[a], nodes[b], p(nodes[a])))

    roots.sort()
    # collapse numerically coincident reports (touch root next to its bracket)
    out: list[float] = []
    sep = 1e-9 * max(1.0, bound)
    for r in roots:
        if not out or r - out[-1] > sep:
            out.append(r)
    return tuple(out)


def isolation_counts() -> tuple[int, int]:
    """(computed, reused): real_roots' isolations so far, the memo's misses and hits."""
    info = _isolate.cache_info()
    return info.misses, info.hits


def critical_points(p: Polynomial) -> list[float]:
    """Sorted real roots of p', i.e. the critical points of p."""
    if p.is_zero:
        raise DegenerateDerivative("zero polynomial")
    dp = p.derivative()
    if dp.is_zero:
        raise DegenerateDerivative("constant polynomial has no critical points")
    return real_roots(dp)


def extreme_abs_on_interval(p: Polynomial, lo: float, hi: float) -> float:
    """max over [lo, hi] of |p|, evaluated at interval endpoints and p's extrema."""
    xs = [lo, hi]
    dp = p.derivative()
    if not dp.is_zero and dp.degree >= 1:
        xs += [r for r in real_roots(dp) if lo < r < hi]
    return max(abs(p(x)) for x in xs)

