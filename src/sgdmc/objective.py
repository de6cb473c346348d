"""Separable objectives, their critical points, Lipschitz constants and the
two-map linear splitting used throughout the examples."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AssumptionA5Violated,
    ConfigError,
    DegenerateDerivative,
    EmptyCriticalSet,
    InadmissibleStep,
    NonCoercive,
)
from .poly import Polynomial, critical_points, extreme_abs_on_interval

A5_TOL = 1e-9
STATE_SPACE_TOL = 1e-12  # relative slack for points on the state space's boundary


@dataclass(frozen=True)
class CriticalPointReport:
    """Critical points of every component, organized per dimension.

    roots[j][i] is the sorted root list of the derivative of component (j, i)
    (empty for zero components), found to poly.ROOT_TOL; span[j] is the
    (min, max) of dimension j's roots over all components, the state space.
    """

    roots: tuple[tuple[tuple[float, ...], ...], ...]
    span: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SeparableObjective:
    """A family of separable summands; entry components[j][i] is the univariate
    polynomial of summand i in coordinate j (possibly the zero polynomial).

    Construction validates structure and coercivity.  The stronger
    inconsistent-optimization assumption is enforced lazily through
    check_inconsistent_optimization(), which the decomposition and dynamics
    entry points call; the diffusion surrogate deliberately does not need it.
    """

    components: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        comps = tuple(tuple(row) for row in self.components)
        object.__setattr__(self, "components", comps)
        if not comps or not comps[0]:
            raise ValueError("objective needs at least one dimension and one summand")
        n = len(comps[0])
        if any(len(row) != n for row in comps):
            raise ValueError("ragged component table")
        for j, row in enumerate(comps):
            if all(p.is_zero for p in row):
                raise EmptyCriticalSet(f"dimension {j} has no nonzero component")
            for p in row:
                if not p.is_zero and not p.is_coercive():
                    raise NonCoercive(
                        f"component in dimension {j} is not coercive: {p.coeffs}"
                    )
        for i in range(n):
            if all(comps[j][i].is_zero for j in range(len(comps))):
                raise NonCoercive(f"summand {i} is identically zero")

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return len(self.components[0])

    @cached_property
    def critical_report(self) -> CriticalPointReport:
        roots = []
        span = []
        for j, row in enumerate(self.components):
            per_comp = []
            for p in row:
                if p.is_zero:
                    per_comp.append(())
                    continue
                try:
                    per_comp.append(tuple(critical_points(p)))
                except DegenerateDerivative as exc:
                    raise NonCoercive(f"component in dimension {j}: {exc}") from exc
            flat = sorted(r for rs in per_comp for r in rs)
            if not flat:
                raise EmptyCriticalSet(f"dimension {j} has no critical points")
            roots.append(tuple(per_comp))
            span.append((flat[0], flat[-1]))
        return CriticalPointReport(tuple(roots), tuple(span))

    @cached_property
    def lipschitz_K(self) -> float:
        """Lipschitz constant K of the gradients on the state space."""
        return lipschitz_constant(self)

    def check_inconsistent_optimization(self) -> None:
        """Enforce the inconsistent-optimization assumption per dimension: at
        least two nonzero components, and no two distinct components sharing a
        derivative root within tolerance (numerical coincidences are rejected
        conservatively rather than guessed about)."""
        report = self.critical_report
        for j, row in enumerate(self.components):
            nonzero = sum(1 for p in row if not p.is_zero)
            if nonzero < 2:
                raise AssumptionA5Violated(
                    f"dimension {j} has fewer than two nonzero components"
                )
            per = report.roots[j]
            for i1 in range(len(row)):
                for i2 in range(i1 + 1, len(row)):
                    for r1 in per[i1]:
                        for r2 in per[i2]:
                            if abs(r1 - r2) <= A5_TOL:
                                raise AssumptionA5Violated(
                                    f"components {i1} and {i2} in dimension {j} "
                                    f"share a critical point near {r1!r}"
                                )

    def mean(self) -> tuple[Polynomial, ...]:
        """Per-dimension summand of the averaged objective F."""
        out = []
        for row in self.components:
            acc = Polynomial()
            for p in row:
                acc = acc + p
            out.append(acc.scale(1.0 / self.n))
        return tuple(out)


def lipschitz_constant(obj: SeparableObjective, intervals=None) -> float:
    """K = max over components of max |f''| on the per-dimension state interval.

    The maximum of a polynomial's |second derivative| over a closed interval is
    attained at an endpoint or at a root of the third derivative, so it is
    evaluated exactly.
    """
    if intervals is None:
        intervals = obj.critical_report.span
    best = 0.0
    for j, row in enumerate(obj.components):
        lo, hi = intervals[j]
        for p in row:
            best = max(best, extreme_abs_on_interval(p.derivative().derivative(), lo, hi))
    return best


def eta_bound(obj: SeparableObjective) -> float:
    """Largest admissible step size 1/K on the state space."""
    return 1.0 / obj.lipschitz_K


def check_step(obj: SeparableObjective, eta: float) -> None:
    """Reject a step size outside (0, 1/K): only there are all maps increasing."""
    eta0 = eta_bound(obj)
    if not 0 < eta < eta0:
        raise InadmissibleStep(
            f"step size eta={eta!r} is not in (0, 1/K) with 1/K={eta0!r}"
        )


def step_map(p: Polynomial, eta: float) -> Polynomial:
    """The step x - eta * p'(x) of component p (x itself for a zero p), built
    coefficient by coefficient: Polynomial addition would turn -0.0 into 0.0."""
    coeffs = [-eta * c for c in p.derivative().coeffs]
    coeffs += [0.0] * (2 - len(coeffs))
    coeffs[1] += 1.0
    return Polynomial(coeffs)


def state_space_window(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened by STATE_SPACE_TOL relative to its largest endpoint:
    points this close outside are float drift, not escapes."""
    pad = STATE_SPACE_TOL * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


def lambda_split(f_poly: Polynomial, lam: float) -> SeparableObjective:
    """Split a coercive univariate F into the pair F + lam*x, F - lam*x.

    The mean of the two components recovers F exactly; the SGD update becomes
    gradient descent on F plus a +-lam*eta random walk.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not f_poly.is_coercive():
        raise NonCoercive(f"objective is not coercive: {f_poly.coeffs}")
    f1 = f_poly.shift_linear(lam)
    f2 = f_poly.shift_linear(-lam)
    return SeparableObjective(components=((f1, f2),))


def double_well(lam: float) -> SeparableObjective:
    """The quartic double-well benchmark split with parameter lam."""
    return lambda_split(double_well_potential(), lam)


def double_well_potential() -> Polynomial:
    """F(x) = (1 - x^2)^2 / 4."""
    return Polynomial([0.25, 0.0, -0.5, 0.0, 0.25])


def eighth_order_potential() -> Polynomial:
    """Even eighth-order objective with local minima at +-1.35, local maxima at
    +-1 and its global minimum at 0.

    The quartic/sextic coefficients are solved from those critical-point
    constraints with the octic coefficient fixed at 0.78; in floating point the
    solved values are c4 = 2.8431 and c6 = -2.9354000000000005.
    """
    c8 = 0.78
    c6 = -(8 * c8 * (1.35**4 - 1.0)) / (6 * (1.35**2 - 1.0))
    c4 = (-6 * c6 - 8 * c8) / 4.0
    return Polynomial([0.0, 0.0, 0.0, 0.0, c4, 0.0, c6, 0.0, c8])


def eighth_order(lam: float) -> SeparableObjective:
    return lambda_split(eighth_order_potential(), lam)


def bernoulli_pair() -> SeparableObjective:
    """f1 = (x-1)^2, f2 = (x+1)^2: the Bernoulli-convolution model."""
    f1 = Polynomial([1.0, -2.0, 1.0])
    f2 = Polynomial([1.0, 2.0, 1.0])
    return SeparableObjective(components=((f1, f2),))


def crossed_quadratics_2d() -> SeparableObjective:
    """f1 = x1^2 + (x2-1)^2, f2 = (x1-1)^2 + x2^2 on the unit square."""
    sq = Polynomial([0.0, 0.0, 1.0])
    sq_m1 = Polynomial([1.0, -2.0, 1.0])
    return SeparableObjective(components=((sq, sq_m1), (sq_m1, sq)))


def _config_number(value, what: str) -> float:
    """A finite float from a JSON number; anything else, a boolean or a
    numeric string included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinite, or an int beyond floats
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def _config_count(value, what: str) -> int:
    """A positive whole number from a config value."""
    x = _config_number(value, what)
    if not (x >= 1 and x == int(x)):
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return int(x)


def config_coefficients(values, what: str) -> list[float]:
    """A list of finite polynomial coefficients from a config value."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list of coefficients, got {values!r}")
    return [_config_number(c, f"coefficient of {what}") for c in values]


def config_point(values, intervals, what: str) -> list[float]:
    """A point of the state space (one closed interval per dimension) from a
    config value: one finite number per dimension, each inside its interval
    up to STATE_SPACE_TOL (a bare number is a one-dimensional point)."""
    if not isinstance(values, (list, tuple)):
        values = [values]
    if len(values) != len(intervals):
        raise ConfigError(f"{what} must be a list of {len(intervals)} number(s), got {values!r}")
    point = [_config_number(v, f"coordinate of {what}") for v in values]
    for x, (lo, hi) in zip(point, intervals):
        low, high = state_space_window(lo, hi)
        if not low <= x <= high:
            raise ConfigError(f"{what} = {values!r} lies outside the state space {list(intervals)}")
    return point


def objective_from_config(cfg: dict) -> tuple[SeparableObjective, float]:
    """Build an objective and step size from the JSON-facing dict schema.

    Full form: {"dimension": d, "n": n, "components": [[[coeffs]*n]*d], "eta": h}.
    Shortcut:  {"objective": [coeffs], "lambda": lam, "eta": h} expands through
    lambda_split.  A non-numeric, NaN or infinite eta, lambda or coefficient,
    a lambda not above 0, a dimension or n that is not a positive integer, or
    a components table of another shape is a ConfigError.
    """
    if "eta" not in cfg:
        raise ConfigError("config is missing 'eta'")
    eta = _config_number(cfg["eta"], "'eta'")
    if "objective" in cfg:
        if "lambda" not in cfg:
            raise ConfigError("shortcut form needs 'lambda'")
        lam = _config_number(cfg["lambda"], "'lambda'")
        if not lam > 0:
            raise ConfigError(f"'lambda' must be positive, got {cfg['lambda']!r}")
        obj = lambda_split(Polynomial(config_coefficients(cfg["objective"], "'objective'")), lam)
        return obj, eta
    for key in ("dimension", "n", "components"):
        if key not in cfg:
            raise ConfigError(f"config is missing '{key}'")
    d = _config_count(cfg["dimension"], "'dimension'")
    n = _config_count(cfg["n"], "'n'")
    rows = cfg["components"]
    if not isinstance(rows, list) or len(rows) != d:
        raise ConfigError("components table does not match 'dimension'")
    comps = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError("components table does not match 'n'")
        comps.append(tuple(Polynomial(config_coefficients(cs, "'components'")) for cs in row))
    return SeparableObjective(components=tuple(comps)), eta
