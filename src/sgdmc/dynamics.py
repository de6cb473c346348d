"""Gradient-step maps as a monotone iterated function system: path dynamics,
extremal envelopes, splitting certificates, escape paths and the sampler."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .absorbing import AbsorbingInterval, Decomposition, Rectangle, SignChart, decompose
from .errors import DimensionMismatch, NonTermination, NotFound, OutOfStateSpace
from .objective import SeparableObjective, check_step, state_space_window, step_map
from .poly import Polynomial, compile_horner

Path = tuple[int, ...]  # map indices, 1-based, applied left to right

ESCAPE_STEP_CAP = 10**6
ELL_MAX = 64  # default cap on a splitting certificate's path length
CERTIFICATE_TOL = 1e-9  # slack of verify_certificate's splitting inequalities
SAMPLE_CHUNK = 1 << 16  # sampler steps per scalar block
SAMPLE_LANES = 512  # lanes per super-block at the shortest lane length
SAMPLE_LANE_STEPS = 4096  # shortest lane; a super-block is SAMPLE_LANES times as many draws
LANE_CHUNK = 64  # lane steps per buffer
NEGATIVE_ZERO_BITS = np.float64(-0.0).view(np.int64)


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


def _check_in_state_space(fam: MapFamily, x: np.ndarray):
    for j, (lo, hi) in enumerate(fam.intervals):
        low, high = state_space_window(lo, hi)
        if x[j] < low or x[j] > high:
            raise OutOfStateSpace(f"coordinate {j}: {x[j]!r} outside [{lo}, {hi}]")


def apply_path(fam: MapFamily, path, x) -> np.ndarray:
    """Compose maps along the path, first index applied first."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_in_state_space(fam, x)
    return np.array([path_coord(fam, path, j, x[j]) for j in range(fam.dimension)])


def path_coord(fam: MapFamily, path, j: int, s: float) -> float:
    """Coordinate-j image of scalar s under the path (separability shortcut)."""
    for i in path:
        s = fam.phi[i - 1][j](s)
    return s


def extremal_envelope(fam: MapFamily, j: int, x: float, ell: int, direction: str):
    """(values, path): m_0 = x, m_{k+1} = min_i (or max_i) phi_i^{(j)}(m_k),
    and the maps i that attain each step, 1-based.

    Because all component maps are increasing, the greedy recursion equals the
    exact min/max over all n^k paths applied to x, so this is the extremal
    reachable point, not a heuristic.
    """
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


def splitting_length_1d(fam: MapFamily, t: AbsorbingInterval, ell_max: int = ELL_MAX) -> SplittingCertificate:
    """Smallest greedy path length at which the downward envelope from r meets
    the upward envelope from l; the two greedy index sequences are the
    certificate paths and the split point is the midpoint of the crossing."""
    j = t.dimension_index
    lo_vals, lo_path = extremal_envelope(fam, j, t.r, ell_max, "min")
    hi_vals, hi_path = extremal_envelope(fam, j, t.l, ell_max, "max")
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
        v = fam.phi[i - 1][j](prev_hi)
        if v >= lo_end:
            return path[:-1] + (i,), v
    return None


def splitting_certificate_multi(fam: MapFamily, rect: Rectangle, ell_max: int = ELL_MAX,
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
        up_vals, up_path = extremal_envelope(fam, c, lo_c, ell_max, "max")
        dn_vals, dn_path = extremal_envelope(fam, c, hi_c, ell_max, "min")
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


# kept though only tests call it: perfbench/tracer.py traces it and raises if it goes
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
    """Single-trajectory summary: per-dimension visit histograms on a grid's
    cells, time spent per rectangle, and the final point."""

    steps: int
    histograms: tuple[np.ndarray, ...]
    rectangle_steps: dict[tuple[int, ...], int]
    final_point: tuple[float, ...]
    first_absorbed_step: int | None


def sgd_sample(fam: MapFamily, x0, steps: int, seed: int, grid) -> SampleSummary:
    """Run the chain with uniform i.i.d. map choices (PCG64 stream), counting coordinate
    j's visits on the transfer.Grid's grid.edges[j]; asserts the absorbing property.

    Until the chain is absorbed it runs in scalar blocks, the first of
    SAMPLE_LANE_STEPS / 4 steps and each next one twice as long, all of them
    at most SAMPLE_CHUNK, so that a chain absorbed within a few hundred steps
    starts its lanes soon: each coordinate's orbit kernel, _orbit, walks the
    block's draws one point at a time (separability: each coordinate is its
    own chain, driven by the shared draws).  From then on the draws come in
    super-blocks of up to SAMPLE_LANES * SAMPLE_LANE_STEPS, each run as K
    numpy lanes on overlapping windows of L + B draws: every lane starts at
    the chain's current point, lane s on draws s*L to s*L + L + B - 1, so
    lane 0 is the chain and lane s > 0 starts a burn-in of B steps early on
    the last draws of lane s - 1.

    Why the result is exact: two points with the same bits, stepped on the
    same draws by the same floating-point operations, keep the same bits.
    Lane s's point after its B-th step and lane s - 1's last point follow
    the same draw, so where they have the same bits, lane s is the chain
    from there on (forward coupling); one comparison of bits per lane and
    coordinate checks it, and lane 0 counts all its L + B steps and every
    other lane its last L, so each draw is counted once.  The lanes do
    _orbit's operations in its order (_lane_kernel), and _orbit has the bits
    of Polynomial.__call__ applied step by step.  The check is made, not
    assumed: a super-block in which a lane does not join its predecessor,
    or a point leaves the home rectangle's window, runs again through
    _orbit, which reports a departure at its global step; L and B then
    double.

    Why it is fast: the maps contract on an absorbing rectangle (the
    splitting condition), so chains driven by the same draws come together,
    in floating point bit for bit: on the double well after about 19/eta
    steps.  The burn-in covers that stretch of each lane, and one numpy step
    advances hundreds of lanes.  A probe picks L and B: the home rectangle's
    two ends, run through _orbit on the super-block's first draws, must
    meet within L/2 steps, and B is twice their meeting step in whole
    LANE_CHUNKs.  Where they do not meet within half the longest lane,
    4 * SAMPLE_LANE_STEPS (about SAMPLE_LANES / 4 lanes), the
    super-block runs through _orbit.

    The draws are held as small integers and the lanes in LANE_CHUNK-step
    buffers, so memory does not grow with the number of steps.  Drawing per
    block gives the same indices as one draw of all of them: numpy's bounded
    integer draws take their 32-bit words from the bit generator, which
    keeps an unused half word from one call to the next.  The first absorbed
    step and its rectangle carry over from block to block; every step from
    it on lies in that rectangle (the absorbing property, checked), so the
    steps per rectangle need no count."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_in_state_space(fam, x0)
    if grid.dimension != fam.dimension:
        raise DimensionMismatch("grid and map family dimensions differ")
    chain = _Chain(fam, grid, x0.tolist())
    rng = np.random.Generator(np.random.PCG64(seed))
    done, scalar = 0, min(SAMPLE_CHUNK, max(1, SAMPLE_LANE_STEPS // 4))
    while done < steps:
        size = scalar if chain.home is None else SAMPLE_LANES * SAMPLE_LANE_STEPS
        draws = _draw(rng, fam.n, min(size, steps - done))
        if chain.home is None:
            chain.scalar(draws, done)
            scalar = min(2 * scalar, SAMPLE_CHUNK)
        else:
            chain.super_block(draws, done)
        done += len(draws)
    chain.log(steps)
    return SampleSummary(
        steps=steps,
        histograms=tuple(chain.hists),
        rectangle_steps={rect.index: steps - chain.first if m == chain.home else 0
                         for m, rect in enumerate(fam.decomposition.rectangles)},
        final_point=tuple(chain.point),
        first_absorbed_step=chain.first,
    )


def _draw(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """The next size map indices in 1..n, held in the smallest integer type
    that fits n, drawn SAMPLE_CHUNK at a time."""
    draws = np.empty(size, dtype=np.min_scalar_type(n))
    for start in range(0, size, SAMPLE_CHUNK):
        draws[start:start + SAMPLE_CHUNK] = rng.integers(
            1, n + 1, size=min(SAMPLE_CHUNK, size - start))
    return draws


class _Chain:
    """sgd_sample's state between blocks: the point, the histograms, the
    first absorbed step and its rectangle (home), the shortest lane length
    still allowed, and what the INFO line reports."""

    def __init__(self, fam: MapFamily, grid, point: list[float]):
        self.decomp = fam.decomposition
        self.edges = grid.edges
        self.point = point
        self.hists = [np.zeros(n, dtype=np.intp) for n in grid.shape]
        self.tables = [_horner_table([phi[j] for phi in fam.phi]) for j in range(fam.dimension)]
        self.kernels = [_orbit(len(table[1])) for table in self.tables]
        self.first = self.home = None
        self.lane_steps = SAMPLE_LANE_STEPS
        self.scalar_blocks = 0
        self.lane_shape = None  # (K, L, B) of the last lane super-block
        self.plans = [_lane_plan(table) for table in self.tables]
        self.traj = np.empty((len(point), 0))  # the scalar blocks' buffer, kept
        self.held = None

    def log(self, steps: int):
        logger = logging.getLogger(__name__)
        if self.lane_shape is None:
            logger.info("sgd_sample: scalar (%d steps)", steps)
            return
        logger.info("sgd_sample: lanes (K=%d, L=%d, burn-in %d steps, %d scalar blocks)",
                    *self.lane_shape, self.scalar_blocks)

    def scalar(self, draws: np.ndarray, start: int):
        """Run the draws through _orbit in blocks of SAMPLE_CHUNK; start is
        the global step of the first."""
        for offset in range(0, len(draws), SAMPLE_CHUNK):
            self._block(draws[offset:offset + SAMPLE_CHUNK].tolist(), start + offset)

    def _block(self, picks: list, start: int):
        if self.traj.shape[1] < len(picks):
            self.traj = np.empty((len(self.point), len(picks)))
        traj = self.traj[:, :len(picks)]  # one row per coordinate
        for j, (table, kernel) in enumerate(zip(self.tables, self.kernels)):
            orbit = kernel(table, picks, self.point[j])
            traj[j] = orbit
            self.point[j] = orbit[-1]
            # held until the next orbit replaces it: freeing 2^16 floats at
            # once returns their arenas to the system, faulted in again next
            self.held = orbit
        self.scalar_blocks += 1
        member = _membership_series(traj.T, self.decomp)
        for j, row in enumerate(traj):
            self.hists[j] += _sorted_counts(row, self.edges[j])
        settled = 0
        if self.first is None:
            absorbed = np.flatnonzero(member >= 0)
            if not absorbed.size:
                return
            settled = int(absorbed[0])
            self.first, self.home = start + settled, member[settled]
        departures = np.flatnonzero(member[settled:] != self.home)
        if departures.size:
            raise AssertionError(
                f"absorbing property violated at step {start + settled + departures[0]}")

    def super_block(self, draws: np.ndarray, start: int):
        """Run the draws as lanes where the probe allows and every lane
        joins its predecessor; the rest, or all of them, through _orbit."""
        plan = self._lanes(draws)
        if plan is not None:
            lanes, burn_in = plan
            if self._run_lanes(lanes, burn_in):
                used = len(lanes) * (lanes.shape[1] - burn_in) + burn_in
                draws, start = draws[used:], start + used
            else:
                self.lane_steps *= 2
        self.scalar(draws, start)

    def _lanes(self, draws: np.ndarray) -> tuple[np.ndarray, int] | None:
        """(lanes, B): the draws as K >= 2 overlapping rows of L + B, lane s
        on draws s*L to s*L + L + B - 1, L the shortest allowed length at
        least twice the probe's meeting step and B that step doubled in whole
        LANE_CHUNKs (at least one), scaled like the shortest length so that
        a failure lengthens the next burn-in too; None where the probe's ends
        do not meet in time or the home window meets another rectangle's
        (_windows).  The probe runs twice, on the first two windows of
        longest / 2 draws, and keeps the later meeting: one run can meet
        early by chance."""
        longest = 4 * SAMPLE_LANE_STEPS
        if self.lane_steps > longest or self._windows is None:
            return None
        probe, meet = longest // 2, 0
        for window in draws[:probe], draws[probe:2 * probe]:
            step = self._meeting_step(window)
            if step is None:
                return None
            meet = max(meet, step)
        length = self.lane_steps
        while 2 * meet > length:
            length *= 2
        burn_in = (max(1, -(-2 * meet // LANE_CHUNK)) * LANE_CHUNK
                   * (self.lane_steps // SAMPLE_LANE_STEPS))
        count = (len(draws) - burn_in) // length
        if count < 2:
            return None
        lanes = np.lib.stride_tricks.sliding_window_view(
            draws[:count * length + burn_in], length + burn_in)[::length]
        return lanes, burn_in

    @cached_property
    def _windows(self) -> list[tuple[float, float]] | None:
        """Home's box widened like _membership_series's, per coordinate;
        None where it meets another rectangle's, since a point in both counts
        as the later rectangle's there."""
        windows = [[state_space_window(lo, hi) for lo, hi in rect.box]
                   for rect in self.decomp.rectangles]
        home = windows[self.home]
        for m, other in enumerate(windows):
            if m != self.home and all(lo <= b_hi and b_lo <= hi
                                      for (lo, hi), (b_lo, b_hi) in zip(home, other)):
                return None
        return home

    def _meeting_step(self, draws: np.ndarray) -> int | None:
        """Steps after which _orbit, run from both ends of the home
        rectangle on the draws, has the same bits at both in every
        coordinate; None if the draws run out first."""
        piece = max(1, SAMPLE_LANE_STEPS // 2)
        meet = 0
        for j, ends in enumerate(self.decomp.rectangles[self.home].box):
            for offset in range(0, len(draws), piece):
                picks = draws[offset:offset + piece].tolist()
                lo, hi = (self.kernels[j](self.tables[j], picks, end) for end in ends)
                same = np.flatnonzero(np.array(lo).view(np.int64) == np.array(hi).view(np.int64))
                if same.size:
                    meet = max(meet, offset + int(same[0]) + 1)
                    break
                ends = lo[-1], hi[-1]
            else:
                return None
        return meet

    def _run_lanes(self, lanes: np.ndarray, burn_in: int) -> bool:
        """Run the (K, L + B) lanes in every coordinate and check that they
        join; on success add their histograms, move the point to the last
        lane's end and return True.  Nothing changes on failure."""
        self.held = None  # lanes build no orbit lists
        work = np.empty(lanes.shape[0] * min(LANE_CHUNK, lanes.shape[1]))
        runs = []
        for j in range(len(self.point)):
            run = self._lane_coordinate(j, lanes, burn_in, work)
            if run is None:
                return False
            runs.append(run)
        for j, (hist, end) in enumerate(runs):
            self.hists[j] += hist
            self.point[j] = end
        self.lane_shape = lanes.shape[0], lanes.shape[1] - burn_in, burn_in
        return True

    def _lane_coordinate(self, j: int, lanes: np.ndarray, burn_in: int, work: np.ndarray):
        """Coordinate j of the lanes: (histogram, the last lane's end), or
        None where a lane's point at its step B lacks the bits of its
        predecessor's last point (see sgd_sample) or a point leaves the home
        window."""
        kernel, coeffs = self.plans[j]
        low, high = self._windows[j]
        edges = self.edges[j]
        hist = np.zeros(len(edges) - 1, dtype=np.intp)
        x = np.full(lanes.shape[0], self.point[j])
        for t in range(0, lanes.shape[1], LANE_CHUNK):
            picks = lanes[:, t:t + LANE_CHUNK].T
            out = work[:picks.size].reshape(picks.shape)
            kernel(x, out, *_gather(coeffs, picks))
            if not (low <= out.min() and out.max() <= high):  # NaN fails too
                return None
            x = out[-1].copy()
            if t + LANE_CHUNK == burn_in:
                joined = x
            # lane 0 counts its burn-in too, the others only their last L steps
            hist += _sorted_counts(out if t >= burn_in else out[:, 0], edges)
        # by bits: == would equate -0.0 and 0.0
        if (joined[1:].view(np.int64) == x[:-1].view(np.int64)).all():
            return hist, float(x[-1])
        return None


def _sorted_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram(values, bins=edges)[0] by np.histogram's own method,
    with the sort done in place (values must flatten to a view): where each
    edge falls among the sorted values, the last edge inclusive.  Sorting in
    place spares the block-sized copies np.histogram makes, whose memory the
    allocator can hand back to the system and fault in again every block."""
    values = values.reshape(-1)
    values.sort()
    return np.diff(np.concatenate((values.searchsorted(edges[:-1], "left"),
                                   values.searchsorted(edges[-1:], "right"))))


def _gather(coeffs: list, picks: np.ndarray) -> list:
    """Each coefficient for the picked maps: a shared one as it is, the rest
    gathered into an array shaped like picks."""
    return [c if isinstance(c, float) else c.take(picks) for c in coeffs]


def _lane_plan(table: list):
    """(_lane_kernel for the table's coefficients, one operand per
    coefficient): a float where every map has the same bits there, else
    the coefficient of each map, 1-based like the table."""
    columns = np.array(table[1:]).T
    plan, coeffs = "", []
    for k, column in enumerate(columns):
        bits = column.view(np.int64)
        if (bits == bits[0]).all():
            plan += "z" if k and bits[0] == NEGATIVE_ZERO_BITS else "s"
            coeffs.append(float(column[0]))
        else:
            plan += "v"
            coeffs.append(np.concatenate([[0.0], column]))
    return _lane_kernel(plan), coeffs


@cache
def _lane_kernel(plan: str):
    """The lane kernel for a coefficient plan, one letter per coefficient
    from the leading one down: v gathered per step, s shared, z a shared
    -0.0 after the leading one.  kernel(x, out, c0, c1, ...) fills out[t]
    with the step from out[t - 1] (from x for t = 0), a v coefficient
    giving one row per step.

    Each step is compile_horner's unrolled Horner rule in ufuncs with out=:
    c0 * x, then + c1, * x, + c2, ... in that order, so every lane value
    has the bits of _orbit's.  The add of a z coefficient is left out:
    v + -0.0 is v, bit for bit, also for v = +-0.0."""
    varying = [f"c{k}" for k, p in enumerate(plan) if p == "v"]
    rows = [f"r{k}" for k, p in enumerate(plan) if p == "v"]

    def operand(k):
        return f"r{k}" if plan[k] == "v" else f"c{k}"

    body = [f"mul(x, {operand(0)}, out=acc)" if len(plan) > 1 else f"copyto(acc, {operand(0)})"]
    for k in range(1, len(plan)):
        if k > 1:
            body.append("mul(acc, x, out=acc)")
        if plan[k] != "z":
            body.append(f"add(acc, {operand(k)}, out=acc)")
    source = (f"def kernel(x, out, {', '.join(f'c{k}' for k in range(len(plan)))}):\n"
              f"    for acc, {''.join(r + ', ' for r in rows)}in zip(out, {', '.join(varying)}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "        x = acc\n")
    namespace = {"mul": np.multiply, "add": np.add, "copyto": np.copyto}
    exec(source, namespace)
    return namespace["kernel"]


def _horner_table(maps) -> list:
    """Each polynomial's coefficients from the highest degree down, padded
    with leading +0.0 to the widest one's, 1-based like the sampler's draws
    (entry 0 is never read).

    Padding keeps the bits of Polynomial.__call__ at finite points: Horner
    from acc = +-0.0 turns a nonzero leading coefficient c into exactly
    0.0 * s + c = c, and a padded +0.0 leaves the accumulator at +0.0 until
    the first real coefficient (-0.0 + 0.0 is +0.0), so both start at that
    coefficient and do the same operations from there."""
    rows = [tuple(reversed(p.coeffs)) for p in maps]
    width = max(map(len, rows))
    return [None] + [(0.0,) * (width - len(row)) + row for row in rows]


@cache
def _orbit(width: int):
    """The orbit kernel for coefficient tuples of the given width, compiled
    once per width on first use (not at import): kernel(table, picks, x) is
    the list of points x visits when map i = picks[0], picks[1], ... is
    applied in turn, map i having coefficients table[i] (see _horner_table
    for the padding and why its points are Polynomial.__call__'s bits).

    Each step is compile_horner's unrolled Horner expression, with no inner
    loop over the coefficients.  The interpreter's cost per step is most of
    the sampler's time: on a 2-vCPU Xeon a block of 2^16 steps takes about
    140-185 ns per step on the double-well (cubic) maps and 310-330 ns on
    eighth_order's degree-7 maps, against 240-330 and 520-560 ns through a
    generic loop over each map's coefficient tuple."""
    return compile_horner(width, "def kernel(table, picks, x):\n"
                          "    return [x := {horner} for {cs}, in map(table.__getitem__, picks)]\n")


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
