"""Gradient-step maps as a monotone iterated function system: path dynamics,
extremal envelopes, splitting certificates, escape paths and the sampler."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .absorbing import AbsorbingInterval, Decomposition, Rectangle, SignChart, decompose
from .errors import NonTermination, NotFound, OutOfStateSpace
from .objective import SeparableObjective, check_step, state_space_window, step_map
from .poly import Polynomial

Path = tuple[int, ...]  # map indices, 1-based, applied left to right

ESCAPE_STEP_CAP = 10**6
CERTIFICATE_TOL = 1e-9  # slack of verify_certificate's splitting inequalities
SAMPLE_CHUNK = 1 << 16  # sampler steps per block


@dataclass(frozen=True)
class MapFamily:
    """The validated problem: an objective, a step size eta in (0, 1/K), and
    the maps x :-> x - eta * grad f_i(x), one per summand, acting
    coordinatewise.  For eta below 1/K every component map is strictly
    increasing on the state space, which the envelope and certificate
    machinery relies on.

    Construction checks only the step size; the decomposition, with its
    inconsistent-optimization check, is built on first use."""

    obj: SeparableObjective
    eta: float

    def __post_init__(self):
        check_step(self.obj, self.eta)

    @property
    def n(self) -> int:
        return self.obj.n

    @property
    def dimension(self) -> int:
        return self.obj.dimension

    @cached_property
    def decomposition(self) -> Decomposition:
        return decompose(self.obj, self.eta)

    @cached_property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return self.obj.critical_report.span

    @cached_property
    def phi(self) -> tuple[tuple[Polynomial, ...], ...]:
        """phi[i-1][j] is the coordinate-j polynomial of map i."""
        return tuple(tuple(step_map(row[i], self.eta) for row in self.obj.components)
                     for i in range(self.n))

    def map_coord(self, i: int, j: int, s: float) -> float:
        """Coordinate-j image of scalar s under map i (1-based i)."""
        return self.phi[i - 1][j](s)


def _check_in_state_space(fam: MapFamily, x: np.ndarray):
    for j, (lo, hi) in enumerate(fam.intervals):
        low, high = state_space_window(lo, hi)
        if x[j] < low or x[j] > high:
            raise OutOfStateSpace(f"coordinate {j}: {x[j]!r} outside [{lo}, {hi}]")


def apply_map(fam: MapFamily, i: int, x) -> np.ndarray:
    """One SGD step with summand i from point x (componentwise)."""
    return apply_path(fam, (i,), x)


def apply_path(fam: MapFamily, path, x) -> np.ndarray:
    """Compose maps along the path, first index applied first."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_in_state_space(fam, x)
    return np.array([path_coord(fam, path, j, x[j]) for j in range(fam.dimension)])


def path_coord(fam: MapFamily, path, j: int, s: float) -> float:
    """Coordinate-j image of scalar s under the path (separability shortcut)."""
    for i in path:
        s = fam.map_coord(i, j, s)
    return s


def extremal_envelope(fam: MapFamily, j: int, x: float, ell: int, direction: str):
    """Values m_0 = x, m_{k+1} = min_i (or max_i) phi_i^{(j)}(m_k).

    Because all component maps are increasing, the greedy recursion equals the
    exact min/max over all n^k paths applied to x, so this is the extremal
    reachable point, not a heuristic.
    """
    vals, _ = _envelope_with_path(fam, j, x, ell, direction)
    return vals


def _envelope_with_path(fam: MapFamily, j: int, x: float, ell: int, direction: str):
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    sign = +1 if direction == "max" else -1
    vals = [float(x)]
    path: list[int] = []
    for _ in range(ell):
        i, v = _greedy_map(fam, j, vals[-1], sign)
        vals.append(float(v))
        path.append(int(i))
    return vals, tuple(path)


def _greedy_map(fam: MapFamily, j: int, s, direction):
    """(i, image) of the first map whose coordinate-j image of s is the
    largest (direction +1) or the smallest (direction -1) of all the maps'
    images, i 1-based.  s and direction may be arrays over points, giving
    one (i, image) per point: argmax keeps the first of tied maps, and
    negating the images for direction -1 is exact."""
    images = np.array([phi[j](s) for phi in fam.phi])
    best = np.argmax(images * direction, axis=0)
    return best + 1, _take(images, best)


def _take(images: np.ndarray, best) -> np.ndarray:
    """images[best[p], p] per point p (images[best] for one point)."""
    return np.take_along_axis(images, best[np.newaxis], axis=0)[0]


@dataclass(frozen=True)
class SplittingCertificate:
    """Two equal-length paths driving a rectangle to opposite sides of a split
    point in the orthant order given by alpha (alpha[0] = +1)."""

    path_lo: Path
    path_hi: Path
    split_point: tuple[float, ...]
    alpha: tuple[int, ...]
    ell: int

    def __post_init__(self):
        if len(self.path_lo) != self.ell or len(self.path_hi) != self.ell:
            raise ValueError("certificate paths must both have length ell")
        if self.path_lo == self.path_hi:
            raise ValueError("certificate paths must be distinct")
        if self.alpha[0] != +1:
            raise ValueError("alpha is normalized to alpha[0] = +1")

    def contraction_factor(self, n: int) -> float:
        """Guaranteed geometric factor per ell steps."""
        return 1.0 - 1.0 / n**self.ell

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "ell": self.ell,
            "path_lo": list(self.path_lo),
            "path_hi": list(self.path_hi),
            "x0": list(self.split_point),
        }


def _alpha_corners(box, alpha):
    """(alpha-max corner, alpha-min corner) of the box."""
    hi = tuple(b[1] if a == +1 else b[0] for b, a in zip(box, alpha))
    lo = tuple(b[0] if a == +1 else b[1] for b, a in zip(box, alpha))
    return hi, lo


def verify_certificate(fam: MapFamily, box, cert: SplittingCertificate) -> bool:
    """Re-check the splitting inequalities at the alpha-extreme corners."""
    corner_hi, corner_lo = _alpha_corners(box, cert.alpha)
    img_lo = apply_path(fam, cert.path_lo, corner_hi)
    img_hi = apply_path(fam, cert.path_hi, corner_lo)
    for j, a in enumerate(cert.alpha):
        x0 = cert.split_point[j]
        if a == +1:
            ok = img_lo[j] <= x0 + CERTIFICATE_TOL and img_hi[j] >= x0 - CERTIFICATE_TOL
        else:
            ok = img_lo[j] >= x0 - CERTIFICATE_TOL and img_hi[j] <= x0 + CERTIFICATE_TOL
        if not ok:
            return False
    return True


def splitting_length_1d(fam: MapFamily, t: AbsorbingInterval, ell_max: int = 64) -> SplittingCertificate:
    """Smallest greedy path length at which the downward envelope from r meets
    the upward envelope from l; the two greedy index sequences are the
    certificate paths and the split point is the midpoint of the crossing."""
    j = t.dimension_index
    lo_vals, lo_path = _envelope_with_path(fam, j, t.r, ell_max, "min")
    hi_vals, hi_path = _envelope_with_path(fam, j, t.l, ell_max, "max")
    for ell in range(1, ell_max + 1):
        if lo_vals[ell] <= hi_vals[ell]:
            path_lo = lo_path[:ell]
            path_hi = hi_path[:ell]
            hi_end = hi_vals[ell]
            if path_lo == path_hi:
                swapped = _perturb_last(fam, j, path_hi, hi_vals[ell - 1], lo_vals[ell])
                if swapped is None:
                    raise NotFound(ell_max, {(+1,): 0.0})
                path_hi, hi_end = swapped
            x0 = 0.5 * (lo_vals[ell] + hi_end)
            return SplittingCertificate(
                path_lo=path_lo, path_hi=path_hi,
                split_point=(x0,), alpha=(+1,), ell=ell,
            )
    raise NotFound(ell_max, {(+1,): lo_vals[ell_max] - hi_vals[ell_max]})


def _perturb_last(fam: MapFamily, j: int, path: Path, prev_hi: float, lo_end: float):
    """Swap the final index of the upper path for an admissible alternative
    (one that still ends at or above the lower envelope); collapsed greedy
    sequences are the only case that needs this."""
    for i in range(1, fam.n + 1):
        if i == path[-1]:
            continue
        v = fam.map_coord(i, j, prev_hi)
        if v >= lo_end:
            return path[:-1] + (i,), v
    return None


def splitting_certificate_multi(fam: MapFamily, rect: Rectangle, ell_max: int = 64,
                                alphas=None) -> SplittingCertificate:
    """Search the orthant sign vectors (first sign fixed to +1) for a pair of
    paths splitting the rectangle.

    For each alpha, candidate paths grow dimension by dimension.  Dimension 0
    runs the one-dimensional search, splitting_length_1d.  Each later
    dimension c checks the split of coordinate c in the alpha_c order; while
    it fails, both paths are prefixed with greedy runs that pin coordinate c
    near opposite ends of its interval, with the squeeze margin
    eps = gap / (2 K0), K0 = (1+eta*K)^l bounding how much the existing paths
    can magnify an interval of width eps.  Prefixing cannot break previously
    settled coordinates since the rectangle is positive invariant.
    """
    d = fam.dimension
    box = rect.box
    if alphas is None:
        alphas = [(+1,) + rest for rest in itertools.product((+1, -1), repeat=d - 1)]
    gaps: dict[tuple[int, ...], float] = {}

    t0 = AbsorbingInterval(l=box[0][0], r=box[0][1], dimension_index=0,
                           index=rect.index[0])
    try:
        base = splitting_length_1d(fam, t0, ell_max)
    except NotFound as exc:
        (gap,) = exc.gaps.values()
        raise NotFound(ell_max, dict.fromkeys(alphas, gap)) from exc
    for alpha in alphas:
        cert = _extend_certificate(fam, box, base, alpha, ell_max, gaps)
        if cert is not None and verify_certificate(fam, box, cert):
            return cert
    raise NotFound(ell_max, gaps)


def _extend_certificate(fam: MapFamily, box, base: SplittingCertificate, alpha,
                        ell_max, gaps):
    path_lo = list(base.path_lo)
    path_hi = list(base.path_hi)
    mids = list(base.split_point)
    for c in range(1, len(box)):
        lo_c, hi_c = box[c]
        sign = alpha[c]
        # every squeeze run below is a prefix of these greedy runs
        up_vals, up_path = _envelope_with_path(fam, c, lo_c, ell_max, "max")
        dn_vals, dn_path = _envelope_with_path(fam, c, hi_c, ell_max, "min")
        while True:
            if sign == +1:
                below = path_coord(fam, path_lo, c, hi_c)
                above = path_coord(fam, path_hi, c, lo_c)
            else:
                below = path_coord(fam, path_hi, c, hi_c)
                above = path_coord(fam, path_lo, c, lo_c)
            gap = below - above
            if gap <= 0:
                mids.append(0.5 * (below + above))
                break
            if len(path_lo) >= ell_max:
                gaps[tuple(alpha)] = gap
                return None
            k0 = (1.0 + fam.eta * fam.obj.lipschitz_K) ** len(path_lo)
            eps = gap / (2.0 * k0)
            budget = ell_max - len(path_lo)
            # steps until each run passes its target, within the budget; the
            # shorter run is padded by continuing its greedy recursion
            length = max(
                next((k for k in range(budget + 1) if up_vals[k] >= hi_c - eps), budget),
                next((k for k in range(budget + 1) if dn_vals[k] <= lo_c + eps), budget),
            )
            if length == 0:
                gaps[tuple(alpha)] = gap
                return None
            q_up, q_dn = up_path[:length], dn_path[:length]
            if sign == +1:
                path_hi = list(q_up) + path_hi
                path_lo = list(q_dn) + path_lo
            else:
                path_lo = list(q_up) + path_lo
                path_hi = list(q_dn) + path_hi
    ell = len(path_lo)
    p_lo, p_hi = tuple(path_lo), tuple(path_hi)
    if p_lo == p_hi:
        gaps[tuple(alpha)] = 0.0
        return None
    return SplittingCertificate(
        path_lo=p_lo, path_hi=p_hi,
        split_point=tuple(mids), alpha=tuple(alpha), ell=ell,
    )


@dataclass(frozen=True)
class EscapeReport:
    """Greedy escape lengths over a grid of starting points and their max."""

    ell_zero: int
    lengths: np.ndarray


def escape_path(fam: MapFamily, x) -> Path:
    """Greedy path driving x into the interior of the absorbing union of
    fam.decomposition: the one-point case of the escape walk (_escape_walk),
    which records the map of every step."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_in_state_space(fam, x)
    path: list[int] = []
    _escape_walk(fam, x[:, np.newaxis], path)
    return tuple(path)


def _escape_walk(fam: MapFamily, points: np.ndarray, path: list[int] | None = None) -> np.ndarray:
    """Greedy escape lengths of the points (the columns of the (d, P) array
    points) out of fam.decomposition's transient set, walked together one numpy
    step at a time; with path given (one point), each step's map is appended.

    Coordinates are settled from the last dimension to the first; fixing a
    later coordinate first means the maps applied for earlier coordinates can
    no longer un-fix it (positive invariance of the per-dimension union).  For
    the active coordinate, each point chooses once a target interval reachable
    through an unbroken stretch of the right-moving (or left-moving) set;
    then the points not yet in an open interior take one step together, each
    applying the first map with the largest step toward its target to the
    active coordinate and to its unsettled earlier ones.  Settled coordinates
    are never read again.  Elementwise Horner on float64 arrays does the
    operations of scalar evaluation, so each length is that of the point
    walked alone.

    NonTermination names the first point in grid order whose step makes no
    progress, and fires once any point's path passes ESCAPE_STEP_CAP steps.
    """
    x = np.array(points, dtype=float)
    lengths = np.zeros(x.shape[1], dtype=int)
    for j in range(fam.dimension - 1, -1, -1):
        # closed membership counts as absorbed (boundary points never leave);
        # the walk itself targets the open interior
        ts = fam.decomposition.per_dimension[j]
        active = np.flatnonzero(~_in_union(ts, x[j], closed=True))
        if not active.size:
            continue
        direction = np.array([_escape_direction(s, ts, fam.decomposition.charts[j], j)
                              for s in x[j, active].tolist()])
        # the active points' coordinates 0..j and path lengths before j
        walk, prior = x[:j + 1, active], lengths[active]
        top, steps = prior.max(), 0
        while True:
            inside = _in_union(ts, walk[j], closed=False)
            if inside.any():
                lengths[active[inside]] = prior[inside] + steps
                x[:j, active[inside]] = walk[:j, inside]
                keep = ~inside
                active, walk, prior, direction = (
                    active[keep], walk[:, keep], prior[keep], direction[keep])
                if not active.size:
                    break
                top = prior.max()
            i, image = _greedy_map(fam, j, walk[j], direction)
            stalled = direction * (image - walk[j]) <= 0
            if stalled.any():
                s = float(walk[j, np.argmax(stalled)])
                raise NonTermination(f"no map makes progress at coordinate {j} = {s!r}")
            walk[j] = image
            for k in range(j):
                walk[k] = _take(np.array([phi[k](walk[k]) for phi in fam.phi]), i - 1)
            steps += 1
            if path is not None:
                path.append(int(i[0]))
            if top + steps > ESCAPE_STEP_CAP:
                raise NonTermination(f"escape exceeded {ESCAPE_STEP_CAP} steps")
    return lengths


def _in_union(ts, s: np.ndarray, closed: bool) -> np.ndarray:
    """Per point of s, whether one of the intervals ts contains it (closed
    or open)."""
    inside = np.zeros(s.shape, dtype=bool)
    for t in ts:
        inside |= t.contains(s, closed)
    return inside


def _escape_direction(s: float, ts, chart: SignChart, j: int) -> int:
    """+1 to walk right, -1 to walk left.

    Walking right toward T = [l, r] is viable when every element of the sign
    chart from s to l lies in the right-moving set (every point of [s, r) then
    moves right with positive probability).  Symmetrically for walking left.
    Theory guarantees at least one direction is viable from every transient
    point; the nearer viable target wins ties.
    """
    right_ts = [t for t in ts if t.l >= s]
    left_ts = [t for t in ts if t.r <= s]
    here = chart.element(s)
    can_right = bool(right_ts) and all(chart.right[here:chart.element(right_ts[0].l) + 1])
    can_left = bool(left_ts) and all(chart.left[chart.element(left_ts[-1].r):here + 1])
    if can_right and can_left:
        return +1 if right_ts[0].l - s <= s - left_ts[-1].r else -1
    if can_right:
        return +1
    if can_left:
        return -1
    raise NonTermination(f"coordinate {j}: no viable escape direction from {s!r}")


def uniform_escape_length(fam: MapFamily, grid_n: int = 100) -> EscapeReport:
    """Max greedy escape length out of fam.decomposition's transient set over a
    grid of grid_n points per dimension, walked at once (_escape_walk) in
    row-major order; an upper estimate (greedy policy) of the uniform path length."""
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in fam.intervals]
    points = np.array([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
    lengths = _escape_walk(fam, points).reshape(tuple(len(a) for a in axes))
    return EscapeReport(ell_zero=int(lengths.max()), lengths=lengths)


@dataclass(frozen=True)
class SampleSummary:
    """Single-trajectory summary: per-dimension visit histograms on the state
    space, time spent per rectangle, and the final point."""

    steps: int
    seed: int
    bin_edges: tuple[np.ndarray, ...]
    histograms: tuple[np.ndarray, ...]
    rectangle_steps: dict[tuple[int, ...], int]
    final_point: tuple[float, ...]
    first_absorbed_step: int | None


def sgd_sample(fam: MapFamily, x0, steps: int, seed: int, grid_n: int = 100) -> SampleSummary:
    """Run the chain with uniform i.i.d. map choices (PCG64 stream) and record
    a visit histogram; asserts the absorbing property along the way.

    The chain streams in blocks of SAMPLE_CHUNK steps, so its memory does
    not grow with the number of steps.  Per block it draws the map indices,
    runs each coordinate's chain through _orbit (separability: each
    coordinate is its own chain, driven by the shared draws) into a
    block-sized trajectory buffer, and adds the block's histograms and steps
    per rectangle to running totals.  The first absorbed step and its
    rectangle carry over from block to block.  Drawing per block gives the
    same indices as one draw of all of them: numpy's bounded integer draws
    take their 32-bit words from the bit generator, which keeps an unused
    half word from one call to the next."""
    decomp = fam.decomposition
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_in_state_space(fam, x0)
    d = fam.dimension
    rng = np.random.Generator(np.random.PCG64(seed))
    # per coordinate, each map's coefficients from the highest degree down,
    # 1-based like the draws
    coeffs = [[()] + [tuple(reversed(phi[j].coeffs)) for phi in fam.phi] for j in range(d)]
    edges = tuple(np.linspace(lo, hi, grid_n + 1) for lo, hi in fam.intervals)
    hists = [np.zeros(grid_n, dtype=np.intp) for _ in range(d)]
    counts = np.zeros(len(decomp.rectangles) + 1, dtype=np.intp)  # [0]: outside all
    point = x0.tolist()
    first = home = None  # first absorbed step and its rectangle
    block = np.empty((min(steps, SAMPLE_CHUNK), d))
    for start in range(0, steps, SAMPLE_CHUNK):
        picks = rng.integers(1, fam.n + 1, size=min(SAMPLE_CHUNK, steps - start)).tolist()
        traj = block[:len(picks)]
        for j in range(d):
            orbit = _orbit(coeffs[j], picks, point[j])
            traj[:, j] = orbit
            point[j] = orbit[-1]
            hists[j] += np.histogram(traj[:, j], bins=edges[j])[0]
        member = _membership_series(traj, decomp)
        counts += np.bincount(member + 1, minlength=counts.size)
        settled = 0
        if first is None:
            absorbed = np.flatnonzero(member >= 0)
            if not absorbed.size:
                continue
            settled = int(absorbed[0])
            first, home = start + settled, member[settled]
        departures = np.flatnonzero(member[settled:] != home)
        if departures.size:
            raise AssertionError(
                f"absorbing property violated at step {start + settled + departures[0]}")
    return SampleSummary(
        steps=steps,
        seed=seed,
        bin_edges=edges,
        histograms=tuple(hists),
        rectangle_steps={rect.index: int(counts[m + 1])
                         for m, rect in enumerate(decomp.rectangles)},
        final_point=tuple(point),
        first_absorbed_step=first,
    )


def _orbit(coeffs, picks, s: float) -> list[float]:
    """The points s visits when map i = picks[0], picks[1], ... is applied in
    turn, map i being the polynomial with coefficients coeffs[i] (highest
    degree first).  Horner from acc = 0.0 does the operations of
    Polynomial.__call__ in its order, so every finite point is bit-identical
    to it; one loop serves every degree."""
    out = []
    append = out.append
    for i in picks:
        acc = 0.0
        for c in coeffs[i]:
            acc = acc * s + c
        s = acc
        append(s)
    return out


def _membership_series(traj: np.ndarray, decomp: Decomposition) -> np.ndarray:
    """Rectangle index per step (-1 outside all rectangles), vectorized.

    Boxes are widened like the state space (state_space_window): orbits
    converging to a fixed point on a rectangle edge can round one ulp outside
    it, which is float drift, not a violated absorption property."""
    member = np.full(traj.shape[0], -1, dtype=int)
    for m, rect in enumerate(decomp.rectangles):
        mask = np.ones(traj.shape[0], dtype=bool)
        for j, (lo, hi) in enumerate(rect.box):
            low, high = state_space_window(lo, hi)
            mask &= (traj[:, j] >= low) & (traj[:, j] <= high)
        member[mask] = m
    return member
