"""State-space decomposition: sign charts of the left/right sets, absorbing
intervals and the product rectangles that partition the state space up to
a transient remainder."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .errors import (
    AssumptionA5Violated,
    InvarianceCheckFailed,
    NoAbsorbingSet,
)
from .objective import SeparableObjective, check_step, lambda_split, step_map
from .poly import Polynomial, real_roots


@dataclass(frozen=True)
class SignChart:
    """Dimension j's left-moving set L = union of {f_i' > 0} and right-moving
    set R = union of {f_i' < 0}, read element by element along the line.

    The elements are the open gaps between the sorted critical points and the
    points themselves, alternating: gap 0, point 0, gap 1, ..., gap m.
    left[e] and right[e] say whether element e lies in L and in R.
    """

    points: tuple[float, ...]
    left: tuple[bool, ...]
    right: tuple[bool, ...]

    def element(self, x: float) -> int:
        """Index of the element holding x: 2k + 1 for point k, 2k for the gap
        below it."""
        k = bisect.bisect_left(self.points, x)
        return 2 * k + 1 if k < len(self.points) and self.points[k] == x else 2 * k


@dataclass(frozen=True)
class AbsorbingInterval:
    """Closed interval [l, r] whose interior sits in L ∩ R with l on the
    boundary of L and r on the boundary of R."""

    l: float
    r: float
    dimension_index: int
    index: int

    def __post_init__(self):
        if not self.l < self.r:
            raise ValueError("absorbing interval needs l < r")

    def contains(self, x, closed: bool = True):
        """x in [l, r] (closed) or in (l, r), elementwise for an array x."""
        if closed:
            return (self.l <= x) & (x <= self.r)
        return (self.l < x) & (x < self.r)


@dataclass(frozen=True)
class Rectangle:
    """Product of one absorbing interval per dimension."""

    index: tuple[int, ...]
    box: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Decomposition:
    """State space I, per-dimension absorbing intervals and sign charts of
    L and R, product rectangles and (implicitly) the transient remainder
    B = I minus the rectangles.  decompose() builds it."""

    intervals: tuple[tuple[float, float], ...]
    per_dimension: tuple[tuple[AbsorbingInterval, ...], ...]
    rectangles: tuple[Rectangle, ...]
    unique: bool
    charts: tuple[SignChart, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(ts) for ts in self.per_dimension)

    @property
    def rectangle_count(self) -> int:
        return len(self.rectangles)

    def to_dict(self) -> dict:
        return {
            "I": [[a, b] for a, b in self.intervals],
            "T": [
                {"index": list(rect.index), "box": [[lo, hi] for lo, hi in rect.box]}
                for rect in self.rectangles
            ],
            "counts": list(self.counts),
            "unique": self.unique,
        }


def sign_chart(obj: SeparableObjective, j: int) -> SignChart:
    """L and R of dimension j as one sign chart.

    Each component's sign is read off between its own consecutive derivative
    roots by one evaluation inside the piece (the midpoint when both ends are
    finite), so a root where the sign only touches zero stays a point of
    neither sign for that component.  A point takes its flags from the
    components it is not a root of.  Every point must land in L or R,
    otherwise the inconsistent-optimization assumption fails.
    """
    obj.check_inconsistent_optimization()
    report = obj.critical_report
    points = sorted(r for rs in report.roots[j] for r in rs)
    size = 2 * len(points) + 1
    left, right = [False] * size, [False] * size
    for i, p in enumerate(obj.components[j]):
        if p.is_zero:
            continue
        dp = p.derivative()
        roots = list(report.roots[j][i])
        nodes = [-math.inf] + roots + [math.inf]
        span = max(abs(r) for r in roots) + 1.0
        for a, b in zip(nodes[:-1], nodes[1:]):
            if a == -math.inf:
                x = min(-span, b - 1.0)
            elif b == math.inf:
                x = max(span, a + 1.0)
            else:
                x = 0.5 * (a + b)
            s = dp(x)
            flags = left if s > 0 else right if s < 0 else None
            if flags is not None:
                # the elements strictly between the roots a and b
                first = 0 if a == -math.inf else 2 * bisect.bisect_left(points, a) + 2
                last = size - 1 if b == math.inf else 2 * bisect.bisect_left(points, b)
                flags[first:last + 1] = [True] * (last + 1 - first)
    for k, x in enumerate(points):
        if not (left[2 * k + 1] or right[2 * k + 1]):
            raise AssumptionA5Violated(
                f"dimension {j}: point {x!r} lies in neither L nor R"
            )
    return SignChart(tuple(points), tuple(left), tuple(right))


def absorbing_intervals(chart: SignChart, j: int = 0) -> list[AbsorbingInterval]:
    """The bounded components (l, r) of L ∩ R with l outside L and r outside
    R, sorted.

    A component is a maximal run of elements in both sets; it starts and ends
    with a gap, since a point takes its flags from components whose pieces
    cover the gaps on both of its sides.  Endpoints are compared exactly: they
    are critical points, and distinct critical points lie more than 1e-9 apart.
    """
    both = [a and b for a, b in zip(chart.left, chart.right)]
    found = []
    for e in range(1, len(both), 2):  # point e // 2 opens a run in the gap above
        if not chart.left[e] and both[e + 1]:
            end = next((f for f in range(e + 1, len(both)) if not both[f]), None)
            if end is not None and not chart.right[end]:
                found.append((chart.points[e // 2], chart.points[end // 2]))
    if not found:
        raise NoAbsorbingSet(f"dimension {j}: no component of L ∩ R qualifies")
    return [
        AbsorbingInterval(l=lo, r=hi, dimension_index=j, index=k)
        for k, (lo, hi) in enumerate(found)
    ]


def absorbing_structure(obj: SeparableObjective):
    """Per dimension, the sign chart and the absorbing intervals: the step
    size free part of the decomposition, as (charts, per_dimension)."""
    charts = tuple(sign_chart(obj, j) for j in range(obj.dimension))
    return charts, tuple(tuple(absorbing_intervals(c, j)) for j, c in enumerate(charts))


def uniqueness_check(obj: SeparableObjective) -> bool:
    """True when every dimension has a component with exactly one critical
    point, which forces a single absorbing rectangle."""
    report = obj.critical_report
    for per_comp in report.roots:
        if not any(len(rs) == 1 for rs in per_comp if rs):
            return False
    return True


def decompose(obj: SeparableObjective, eta: float) -> Decomposition:
    """Assemble the full decomposition and verify its structural claims.

    Positive invariance of each rectangle is checked at the corners: with
    monotone component maps it is enough that every map sends l no further left
    than l and r no further right than r, per dimension.
    """
    check_step(obj, eta)
    intervals = obj.critical_report.span
    charts, per_dim = absorbing_structure(obj)

    rects = []
    for combo in itertools.product(*[range(len(ts)) for ts in per_dim]):
        box = tuple((per_dim[j][m].l, per_dim[j][m].r) for j, m in enumerate(combo))
        rects.append(Rectangle(index=combo, box=box))

    slack = 1e-12
    maps = [[step_map(row[i], eta) for row in obj.components] for i in range(obj.n)]
    for rect in rects:
        for i in range(obj.n):
            for j, (lo, hi) in enumerate(rect.box):
                phi = maps[i][j]
                width = hi - lo
                if lo - phi(lo) > slack * max(1.0, width):
                    raise InvarianceCheckFailed(i, rect.index, (j, lo))
                if phi(hi) - hi > slack * max(1.0, width):
                    raise InvarianceCheckFailed(i, rect.index, (j, hi))

    unique = uniqueness_check(obj)
    decomp = Decomposition(
        intervals=intervals,
        per_dimension=per_dim,
        rectangles=tuple(rects),
        unique=unique,
        charts=charts,
    )
    if unique and decomp.rectangle_count != 1:
        raise NoAbsorbingSet("uniqueness criterion holds but rectangle count != 1")
    return decomp


def rectangle_count_for(obj: SeparableObjective) -> int:
    """Rectangle count straight from the L/R structure (step size free)."""
    return math.prod(len(ts) for ts in absorbing_structure(obj)[1])


def bifurcations(base: Polynomial, lo: float, hi: float) -> list[tuple[float, int, int]]:
    """(lambda, count below, count above) at each change of the rectangle
    count of lambda_split(base, lambda) for lambda in (lo, hi).  L = {F' > -lambda}
    and R = {F' < lambda} change shape only at the critical values |F'(x)|,
    F''(x) = 0, of F' = base', so the count is read once between each two."""
    slope = base.derivative()
    cuts = sorted({abs(slope(x)) for x in real_roots(slope.derivative())})
    cuts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
    counts = [rectangle_count_for(lambda_split(base, 0.5 * (a + b)))
              for a, b in zip(cuts[:-1], cuts[1:])]
    return [(lam, a, b) for lam, a, b in zip(cuts[1:-1], counts[:-1], counts[1:]) if a != b]
