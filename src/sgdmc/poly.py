"""Univariate real polynomials with exact derivatives and robust root isolation."""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache

import numpy as np

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


def _power(x: float, k: int) -> float:
    # x ** k through the C library's pow, as the scale of real_roots' snap
    # takes it (numpy's power differs in the last bit), inf where it overflows
    try:
        return x ** k
    except OverflowError:
        return math.inf


def _bisect(rest: tuple[float, ...], c0, lo, hi, up) -> np.ndarray:
    """The root in each bracket [lo, hi] of the polynomial whose constant
    term is c0 and whose coefficients above it are rest, monotone on the
    bracket and positive at lo where up: each lane takes _bisector's steps
    in its order and keeps its bits.  No more brackets than one member has
    roots go through _bisector itself."""
    if len(lo) <= len(rest):
        kernel, top = _bisector(len(rest) + 1), rest[::-1]
        return np.array([kernel(top + (c,), a, b, u) for c, a, b, u in
                         zip(c0.tolist(), lo.tolist(), hi.tolist(), up.tolist())])
    out, lanes = np.empty(len(lo)), np.arange(len(lo))
    for _ in range(200):
        x = 0.5 * (lo + hi)
        stop = (x == lo) | (x == hi)
        v = rest[-1]
        for c in rest[-2::-1]:
            v = v * x + c
        v = v * x + c0
        done = stop | (v == 0.0)
        if done.any():
            out[lanes[done]] = np.where(stop, x + 0.0, x)[done]
            lanes, x, v, lo, hi, up, c0 = (a[~done] for a in (lanes, x, v, lo, hi, up, c0))
            if not lanes.size:
                return out
        go = (v > 0.0) == up
        lo, hi = np.where(go, x, lo), np.where(go, hi, x)
    out[lanes] = 0.5 * (lo + hi) + 0.0
    return out


def _span_error(p: Polynomial, where: str) -> ConfigError:
    return ConfigError(f"coefficients span too wide a range for double precision: "
                       f"isolating the real roots of {list(p.coeffs)} overflows {where}")


class _RootsMemo:
    """Root tuples keyed on coefficient bits, the least recently used
    dropped beyond ROOTS_MEMO_SIZE, with the isolations computed and reused."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.roots: OrderedDict[bytes, tuple[float, ...]] = OrderedDict()
        self.computed = self.reused = 0

    def put(self, key: bytes, roots: tuple[float, ...]) -> None:
        self.roots[key] = roots
        if len(self.roots) > ROOTS_MEMO_SIZE:
            self.roots.popitem(last=False)


_memo = _RootsMemo()


def real_roots(p: Polynomial) -> list[float]:
    """All real roots of p, ascending, multiple roots reported once.

    Between consecutive critical points of p the polynomial is monotone, so a
    sign change brackets exactly one root, refined by bisection.  Breakpoints
    where |p| falls below ROOT_TOL (relative to the evaluation magnitude) are
    sign-touching roots and are reported once; the snap keeps double roots from
    being either missed or double counted.  The roots of the last
    ROOTS_MEMO_SIZE distinct polynomials are kept, keyed on the coefficients'
    bit patterns (x + 0.0 has the root -0.0, x - 0.0 the root 0.0), whether
    real_roots or isolate_family found them; each call returns a fresh list.
    """
    key = struct.pack(f"{len(p.coeffs)}d", *p.coeffs)
    roots = _memo.roots.get(key)
    if roots is None:
        _memo.computed += 1
        roots = _isolate(p)
        _memo.put(key, roots)
    else:
        _memo.reused += 1
        _memo.roots.move_to_end(key)
    return list(roots)


def _isolate(p: Polynomial) -> tuple[float, ...]:
    if p.is_zero:
        raise DegenerateDerivative("zero polynomial has no isolated roots")
    if p.degree == 0:
        return ()
    if p.degree == 1:
        return (-p.coeffs[0] / p.coeffs[1],)
    [roots] = _family_roots(p, np.array(p.coeffs[:1]))
    if isinstance(roots, ConfigError):
        raise roots
    return roots


def isolate_family(p: Polynomial, constants) -> None:
    """Isolate together the real roots of every polynomial with p's
    coefficients but the constant term c, for c in constants, into
    real_roots' memo, each with the bits real_roots finds alone.  Members
    the memo holds are marked as just used, so the family's new members, if
    they fit beside them, evict none of them.  A member whose isolation
    fails is left for real_roots to raise."""
    if p.degree < 2:  # no nodes to share
        return
    consts = np.asarray(constants, dtype=float)
    raw, tail = consts.tobytes(), struct.pack(f"{p.degree}d", *p.coeffs[1:])
    new: dict[bytes, float] = {}
    for at, c in zip(range(0, len(raw), 8), consts.tolist()):
        key = raw[at:at + 8] + tail
        if key in _memo.roots:
            _memo.roots.move_to_end(key)
        else:
            new[key] = c
    if not new:
        return
    try:
        found = _family_roots(p, np.array(list(new.values())))
    except ConfigError:  # p' overflows; real_roots raises it per member, in its callers' order
        return
    for key, roots in zip(new, found):
        if not isinstance(roots, ConfigError):
            _memo.computed += 1
            _memo.put(key, roots)


def _family_roots(p: Polynomial, consts: np.ndarray) -> list:
    """The roots of each polynomial with p's coefficients but the constant
    term c, for c in consts (p of degree >= 2), or the ConfigError that
    isolating it raises.  The members share p' and so the inner nodes; the
    Cauchy bounds, node values and scales, the snap, the brackets and the
    collapse are arrays with a row per member, and every operation on an
    element is the one real_roots once took on a float, in its order."""
    rest = p.coeffs[1:]
    n, lead = len(rest), rest[-1]
    found: list = [None] * len(consts)
    with np.errstate(all="ignore"):
        bounds = 1.0 + np.maximum(np.abs(consts / lead),
                                  max((abs(c / lead) for c in rest[:-1]), default=0.0))
        for i in np.flatnonzero(bounds == math.inf).tolist():
            found[i] = _span_error(Polynomial((consts[i],) + rest), "in the root bound")
        live = np.flatnonzero(bounds != math.inf)
        if not live.size:
            return found
        c0, b = consts[live], bounds[live]
        inner = real_roots(p.derivative())
        # nodes -b, the roots of p' inside (-b, b), b: a row per member
        x = np.empty((len(live), len(inner) + 2))
        x[:, 0], x[:, 1:-1], x[:, -1] = -b, inner, b
        inside = np.abs(x) < b[:, None]
        inside[:, 0] = inside[:, -1] = True
        powers = np.empty((n + 1,) + x.shape)  # |x| ** k
        powers[:, :, 1:-1] = np.array([[_power(abs(r), k) for r in inner]
                                       for k in range(n + 1)])[:, None, :]
        powers[:, :, 0] = powers[:, :, -1] = [[_power(r, k) for r in b.tolist()]
                                              for k in range(n + 1)]
        scale = np.abs(c0)[:, None] * powers[0]
        for c, power in zip(rest, powers[1:]):
            scale = scale + abs(c) * power
        v = x * 0.0
        for c in rest[::-1] + (c0[:, None],):
            v = v * x + c
        snap = np.abs(v) <= ROOT_TOL * np.where(scale > 1.0, scale, 1.0)
        sign = np.where(snap | ~inside, 0, np.where(v > 0.0, 1, -1))
        # the snapped nodes, then a root for each sign change between
        # consecutive signed nodes, in slot width + j where node j + 1 ends it
        width = x.shape[1]
        roots = np.full((len(live), 2 * width - 1), math.nan)
        roots[:, :width] = np.where(inside & snap, x, math.nan)
        last = np.maximum.accumulate(np.where(sign != 0, np.arange(width), 0), axis=1)[:, :-1]
        rows, j = np.nonzero(sign[np.arange(len(live))[:, None], last] * sign[:, 1:] < 0)
        a = last[rows, j]
        roots[rows, width + j] = _bisect(rest, c0[rows], x[rows, a], x[rows, j + 1],
                                         v[rows, a] > 0.0)
        roots.sort(axis=1, kind="stable")
        # collapse numerically coincident reports (touch root next to its bracket)
        sep = 1e-9 * np.maximum(1.0, b)
        keep = ~np.isnan(roots)
        kept = roots[:, 0]
        for col in range(1, keep.sum(axis=1).max()):
            keep[:, col] &= roots[:, col] - kept > sep
            kept = np.where(keep[:, col], roots[:, col], kept)
        overflow = powers[n, :, 0] == math.inf
    values, ends = roots[keep].tolist(), np.cumsum(keep.sum(axis=1)).tolist()
    for i, start, end, r, over in zip(live.tolist(), [0] + ends, ends, b.tolist(),
                                      overflow.tolist()):
        found[i] = (_span_error(Polynomial((consts[i],) + rest), f"at |x| = {r:.3g}") if over
                    else tuple(values[start:end]))
    return found


def isolation_counts() -> tuple[int, int]:
    """(computed, reused): real_roots' isolations so far, the memo's misses
    and hits, with the members isolate_family added as computed."""
    return _memo.computed, _memo.reused


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

