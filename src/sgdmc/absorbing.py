"""State-space decomposition: left/right sets, absorbing intervals and the
product rectangles that partition the state space up to a transient remainder."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    AssumptionA5Violated,
    InvarianceCheckFailed,
    NoAbsorbingSet,
)
from .objective import SeparableObjective, check_step, step_map

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint open intervals, sorted by left endpoint.

    Adjacent intervals may share an endpoint: that endpoint is a deliberately
    excluded point (a sign-touching critical point), not a representation slip.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not a < b:
                raise ValueError(f"empty interval ({a}, {b})")
        for (_, b1), (a2, _) in zip(ivs[:-1], ivs[1:]):
            if a2 < b1:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    def contains(self, x: float) -> bool:
        return any(a < x < b for a, b in self.intervals)

    def boundary(self) -> list[float]:
        """Finite boundary points (open unions never contain them)."""
        pts = []
        for a, b in self.intervals:
            for e in (a, b):
                if math.isfinite(e):
                    pts.append(e)
        return sorted(set(pts))

    def on_boundary(self, x: float) -> bool:
        return any(abs(x - e) <= BOUNDARY_TOL for e in self.boundary())


def union_of_intervals(pieces) -> IntervalUnion:
    """Union of open intervals as a point set.

    Pieces merge on strict overlap; a shared endpoint merges only when some
    piece covers it in its interior, so sign-touching points stay excluded."""
    pieces = sorted((float(a), float(b)) for a, b in pieces if a < b)
    merged: list[list[float]] = []
    for a, b in pieces:
        if merged and (
            a < merged[-1][1]
            or (a == merged[-1][1] and any(p < a < q for p, q in pieces))
        ):
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalUnion(tuple((a, b) for a, b in merged))


def intersect_unions(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    pieces = []
    for a1, b1 in u.intervals:
        for a2, b2 in v.intervals:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                pieces.append((lo, hi))
    return IntervalUnion(tuple(sorted(pieces)))


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

    def contains(self, x: float, closed: bool = True) -> bool:
        if closed:
            return self.l <= x <= self.r
        return self.l < x < self.r


@dataclass(frozen=True)
class Rectangle:
    """Product of one absorbing interval per dimension."""

    index: tuple[int, ...]
    box: tuple[tuple[float, float], ...]

    def contains(self, point, closed: bool = True) -> bool:
        for x, (lo, hi) in zip(point, self.box):
            if closed and not lo <= x <= hi:
                return False
            if not closed and not lo < x < hi:
                return False
        return True


@dataclass(frozen=True)
class Decomposition:
    """State space I, per-dimension absorbing intervals and (left-moving,
    right-moving) sets, product rectangles and (implicitly) the transient
    remainder B = I minus the rectangles.  decompose() builds it."""

    intervals: tuple[tuple[float, float], ...]
    per_dimension: tuple[tuple[AbsorbingInterval, ...], ...]
    rectangles: tuple[Rectangle, ...]
    unique: bool
    left_right: tuple[tuple[IntervalUnion, IntervalUnion], ...]

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(ts) for ts in self.per_dimension)

    @property
    def rectangle_count(self) -> int:
        return len(self.rectangles)

    def in_transient(self, point) -> bool:
        """True when the point lies in I but in no rectangle."""
        for x, (a, b) in zip(point, self.intervals):
            if not a <= x <= b:
                return False
        return not any(rect.contains(point) for rect in self.rectangles)

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


def state_space(obj: SeparableObjective):
    """Per-dimension closed interval spanned by the critical points."""
    return tuple(obj.critical_report.span)


def left_right_sets(obj: SeparableObjective, j: int) -> tuple[IntervalUnion, IntervalUnion]:
    """L = union of {f_i' > 0}, R = union of {f_i' < 0} in dimension j.

    Sign intervals are read off between consecutive derivative roots; a
    midpoint evaluation decides the sign of each piece.  Every real point must
    land in L or R, otherwise the inconsistent-optimization assumption fails.
    """
    obj.check_inconsistent_optimization()
    report = obj.critical_report
    left_pieces: list[tuple[float, float]] = []
    right_pieces: list[tuple[float, float]] = []
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
            if s > 0:
                left_pieces.append((a, b))
            elif s < 0:
                right_pieces.append((a, b))
    left = union_of_intervals(left_pieces)
    right = union_of_intervals(right_pieces)
    # L and R must cover the line: a boundary point of either union that is
    # interior to neither is a point where every derivative vanishes
    for x in left.boundary() + right.boundary():
        if not (left.contains(x) or right.contains(x)):
            raise AssumptionA5Violated(
                f"dimension {j}: point {x!r} lies in neither L nor R"
            )
    return left, right


def absorbing_intervals(left: IntervalUnion, right: IntervalUnion, j: int = 0) -> list[AbsorbingInterval]:
    """Components (l, r) of L ∩ R with l on ∂L and r on ∂R, sorted."""
    both = intersect_unions(left, right)
    found = []
    for lo, hi in both.intervals:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            continue
        if left.on_boundary(lo) and right.on_boundary(hi):
            found.append((lo, hi))
    if not found:
        raise NoAbsorbingSet(f"dimension {j}: no component of L ∩ R qualifies")
    return [
        AbsorbingInterval(l=lo, r=hi, dimension_index=j, index=k)
        for k, (lo, hi) in enumerate(sorted(found))
    ]


def absorbing_structure(obj: SeparableObjective):
    """Per dimension, the (L, R) sets and the absorbing intervals: the step
    size free part of the decomposition, as (left_right, per_dimension)."""
    left_right, per_dim = [], []
    for j in range(obj.dimension):
        left_right.append(left_right_sets(obj, j))
        per_dim.append(tuple(absorbing_intervals(*left_right[j], j)))
    return tuple(left_right), tuple(per_dim)


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
    intervals = state_space(obj)
    lr, per_dim = absorbing_structure(obj)

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
        left_right=lr,
    )
    if unique and decomp.rectangle_count != 1:
        raise NoAbsorbingSet("uniqueness criterion holds but rectangle count != 1")
    return decomp


def rectangle_count_for(obj: SeparableObjective) -> int:
    """Rectangle count straight from the L/R structure (step size free)."""
    return math.prod(len(ts) for ts in absorbing_structure(obj)[1])
