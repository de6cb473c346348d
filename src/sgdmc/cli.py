"""Batch command-line front end: loads objective configs, runs the analyses and
writes JSON reports plus CSV series for external plotting.

Exit codes: 0 success, 1 config error (unparsable or non-finite config,
command-line usage error or out-of-range flag), 2 assumption violation
(coercivity / inconsistent optimization / step-size bound), 3 no convergence,
4 singular diffusion.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .absorbing import rectangle_count_for
from .diffusion import density_cell_masses, stationary_density
from .dynamics import (
    MapFamily,
    sgd_sample,
    splitting_certificate_multi,
    uniform_escape_length,
)
from .errors import (
    AssumptionA5Violated,
    ConfigError,
    NoConvergence,
    NonCoercive,
    NotFound,
    SgdmcError,
    SingularDiffusion,
)
from .metrics import d_F
from .objective import (
    config_coefficients,
    eta_bound,
    lambda_split,
    objective_from_config,
)
from .poly import Polynomial
from .transfer import (
    DiscreteMeasure,
    Grid,
    basin_functions,
    invariant_measure,
    mixture_coefficients,
    ulam_assemble,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ASSUMPTIONS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SINGULAR_DIFFUSION = 4

log = logging.getLogger("sgdmc")


def _fmt(x: float) -> str:
    """Full double precision, locale-free."""
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_grid_csv(path: str, grid: Grid, values) -> None:
    """One row per cell, in flattened order: the centre's coordinates, then
    the value (header x in 1-d, x1..xd otherwise), each formatted as _fmt
    does."""
    d = grid.dimension
    header = ["x"] if d == 1 else [f"x{j + 1}" for j in range(d)]
    coords = [c.ravel().tolist() for c in np.meshgrid(*grid.centers, indexing="ij")]
    row = ",".join(["{:.17g}"] * (d + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["value"]) + "\n")
        fh.writelines(map(row.format, *coords, values.tolist()))


def _write_histograms(out: str, names, summary) -> None:
    """One bin_center,count CSV per dimension of a sampled trajectory."""
    for name, edges, hist in zip(names, summary.bin_edges, summary.histograms):
        centers = 0.5 * (edges[:-1] + edges[1:])
        _write_csv(os.path.join(out, name), ["bin_center", "count"],
                   zip(centers.tolist(), hist.tolist()))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _build(cfg: dict) -> MapFamily:
    """The validated problem; an inadmissible step size fails here, before
    any work starts."""
    return MapFamily(*objective_from_config(cfg))


def _analysis_payload(fam: MapFamily, grid_n: int, ell_max: int) -> dict:
    decomp = fam.decomposition
    certificates = []
    for rect in decomp.rectangles:
        try:
            cert = splitting_certificate_multi(fam, rect, ell_max=ell_max)
            certificates.append({"index": list(rect.index), **cert.to_dict()})
        except NotFound as exc:
            certificates.append(
                {"index": list(rect.index), "not_found": True,
                 "gaps": {str(k): v for k, v in exc.gaps.items()}}
            )
    d = fam.dimension
    escape_grid = grid_n if d == 1 else max(8, int(grid_n ** (1 / d)))
    escape = uniform_escape_length(fam, decomp, grid_n=escape_grid)
    cert_ells = [c["ell"] for c in certificates if "ell" in c]
    combined = 2 * max([escape.ell_zero] + cert_ells) if cert_ells else None
    if combined is not None and combined > 0:
        # the existence constants come with a dimension lower bound
        assert combined >= d, "combined exponent below dimension"
    return {
        "version": __version__,
        "eta": fam.eta,
        "eta0": eta_bound(fam.obj),
        "decomposition": decomp.to_dict(),
        "certificates": certificates,
        "ell0_estimate": escape.ell_zero,
        "combined_exponent": combined,
        "unique": decomp.unique,
    }


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    fam = _build(cfg)
    started = time.perf_counter()
    payload = _analysis_payload(fam, args.grid, args.ell_max)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), payload)
    # timing goes to the log, not the report: output files are byte-stable
    log.info("analyze: %d rectangle(s), unique=%s, %.3fs",
             len(payload["decomposition"]["T"]), payload["unique"],
             time.perf_counter() - started)
    return EXIT_OK


def _invariant_pieces(fam: MapFamily, grid_n, tol):
    decomp = fam.decomposition
    grid = Grid.regular(decomp.intervals, grid_n)
    op = ulam_assemble(fam, grid)
    labels = grid.classify(decomp)
    results = []
    for m in range(len(decomp.rectangles)):
        cells = np.flatnonzero(labels == m)
        results.append(invariant_measure(op, cells, tol=tol))
    return decomp, grid, op, results


def cmd_invariant(args) -> int:
    cfg = _load_config(args.config)
    fam = _build(cfg)
    os.makedirs(args.out, exist_ok=True)
    if fam.dimension > 2:
        log.warning(
            "dense grids are limited to two dimensions; falling back to a "
            "seeded trajectory histogram"
        )
        return _invariant_monte_carlo(args, fam)
    decomp, grid, op, results = _invariant_pieces(fam, args.grid, args.tol)
    if args.dump_operator:
        with open(os.path.join(args.out, "operator.txt"), "w", encoding="utf-8") as fh:
            for row, col, value in op.coo_rows():
                fh.write(f"{row},{col},{_fmt(value)}\n")
    report = {"eta": fam.eta, "eta0": eta_bound(fam.obj), "rectangles": []}
    for m, res in enumerate(results):
        name = f"invariant_{m}.csv"
        _write_grid_csv(os.path.join(args.out, name), grid, res.measure.weights)
        report["rectangles"].append(
            {
                "index": list(decomp.rectangles[m].index),
                "file": name,
                "iterations": res.iterations,
                "residual": res.residual,
                "leakage": res.leakage,
            }
        )
    _write_json(os.path.join(args.out, "invariant.json"), report)
    return EXIT_OK


def _invariant_monte_carlo(args, fam: MapFamily) -> int:
    x0 = [0.5 * (a + b) for a, b in fam.intervals]
    summary = sgd_sample(fam, x0, steps=args.steps, seed=args.seed, grid_n=args.grid)
    names = [f"invariant_mc_dim{j}.csv" for j in range(fam.dimension)]
    _write_histograms(args.out, names, summary)
    _write_json(
        os.path.join(args.out, "invariant.json"),
        {"eta": fam.eta, "monte_carlo": True, "steps": summary.steps, "seed": summary.seed},
    )
    return EXIT_OK


def cmd_basins(args) -> int:
    cfg = _load_config(args.config)
    fam = _build(cfg)
    os.makedirs(args.out, exist_ok=True)
    decomp = fam.decomposition
    grid = Grid.regular(decomp.intervals, args.grid)
    basins = basin_functions(fam, grid, decomp, tol=args.tol or 1e-11)
    mu0 = DiscreteMeasure.uniform(grid)
    coeff = mixture_coefficients(basins, mu0)
    report = {
        "eta": fam.eta,
        "eta0": eta_bound(fam.obj),
        "iterations": basins.iterations,
        "residual": basins.residual,
        "partition_defect": basins.partition_defect,
        "uniform_coefficients": [float(c) for c in coeff],
        "files": [],
    }
    for m in range(basins.values.shape[0]):
        name = f"basin_{m}.csv"
        _write_grid_csv(os.path.join(args.out, name), grid, basins.values[m])
        report["files"].append(name)
    _write_json(os.path.join(args.out, "basins.json"), report)
    return EXIT_OK


def _sweep_point(task):
    from .absorbing import absorbing_intervals, left_right_sets

    base_coeffs, lam = task
    obj = lambda_split(Polynomial(base_coeffs), lam)
    eta0 = eta_bound(obj)
    ts = absorbing_intervals(*left_right_sets(obj, 0))
    endpoints = ";".join(f"{_fmt(t.l)}|{_fmt(t.r)}" for t in ts)
    return lam, len(ts), eta0, endpoints


def _sweep_count(base_coeffs, lam) -> int:
    return rectangle_count_for(lambda_split(Polynomial(base_coeffs), lam))


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if "objective" not in cfg:
        raise ConfigError("sweep requires the linear-splitting config form")
    base = config_coefficients(cfg["objective"], "'objective'")
    lambda_split(Polynomial(base), 1.0)  # validates coercivity up front
    lo, hi, count = _parse_range(args.range)
    lams = np.linspace(lo, hi, count)
    tasks = [(base, float(lam)) for lam in lams]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    out_rows = [("point", lam, cnt, eta0, endp) for lam, cnt, eta0, endp in rows]
    for (lam_a, cnt_a, *_), (lam_b, cnt_b, *_) in zip(rows[:-1], rows[1:]):
        if cnt_a != cnt_b:
            loc = _bisect_count_change(base, lam_a, lam_b, tol=1e-6)
            out_rows.append(("bifurcation", loc, cnt_a, "", f"{cnt_a}->{cnt_b}"))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("record,lambda,count,eta0,endpoints\n")
        for rec, lam, cnt, eta0, endp in out_rows:
            eta0_s = _fmt(eta0) if eta0 != "" else ""
            fh.write(f"{rec},{_fmt(lam)},{cnt},{eta0_s},{endp}\n")
    return EXIT_OK


def _bisect_count_change(base, lo, hi, tol=1e-6) -> float:
    c_lo = _sweep_count(base, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _sweep_count(base, mid) == c_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _parse_range(spec: str):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"bad --range '{spec}', expected lo:hi:count") from exc
    if count < 1 or hi < lo:
        raise ConfigError(f"bad --range '{spec}'")
    return lo, hi, count


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    fam = _build(cfg)
    x0 = cfg.get("x0", [0.5 * (a + b) for a, b in fam.intervals])
    summary = sgd_sample(fam, x0, steps=args.steps, seed=args.seed, grid_n=args.grid)
    os.makedirs(args.out, exist_ok=True)
    names = (["sample.csv"] if fam.dimension == 1
             else [f"sample_dim{j}.csv" for j in range(fam.dimension)])
    _write_histograms(args.out, names, summary)
    report = {
        "steps": summary.steps,
        "seed": summary.seed,
        "final_point": [float(v) for v in summary.final_point],
        "first_absorbed_step": summary.first_absorbed_step,
        "rectangle_steps": {str(k): v for k, v in summary.rectangle_steps.items()},
    }
    if fam.dimension == 1 and args.compare_invariant:
        decomp, grid, op, results = _invariant_pieces(fam, args.grid, args.tol)
        hist_measure = DiscreteMeasure(
            grid, summary.histograms[0].astype(float) / summary.steps
        )
        comparisons = []
        for m, res in enumerate(results):
            comparisons.append(
                {
                    "index": list(decomp.rectangles[m].index),
                    "d_F": d_F(hist_measure, res.measure),
                }
            )
        report["invariant_comparison"] = comparisons
    _write_json(os.path.join(args.out, "sample.json"), report)
    return EXIT_OK


def cmd_diffusion(args) -> int:
    cfg = _load_config(args.config)
    fam = _build(cfg)
    if fam.dimension != 1:
        raise ConfigError("diffusion comparison is one-dimensional")
    # the density is computed first: a vanishing diffusion coefficient must
    # exit with its own code even when the exact analysis would also fail
    grid = Grid.regular(fam.intervals, args.grid)
    profile = stationary_density(fam.obj, fam.eta, grid.centers[0])
    decomp, _, op, results = _invariant_pieces(fam, args.grid, args.tol)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "diffusion.csv"),
        ["x", "Phi", "u", "D", "V", "rho_star"],
        (
            (float(x), float(p), float(u), float(d), float(v), float(r))
            for x, p, u, d, v, r in zip(
                profile.x, profile.phi, profile.u, profile.diffusion,
                profile.potential, profile.rho_star,
            )
        ),
    )
    masses = density_cell_masses(profile, grid.edges[0])
    rho_measure = DiscreteMeasure(grid, masses)
    comparison = {
        "exact_count": len(decomp.rectangles),
        "diffusion_count": 1,
        "count_mismatch": len(decomp.rectangles) != 1,
        "per_rectangle_d_F": [
            {"index": list(decomp.rectangles[m].index),
             "d_F": d_F(rho_measure, res.measure)}
            for m, res in enumerate(results)
        ],
        "truncation_estimate": profile.truncation_estimate,
    }
    _write_json(os.path.join(args.out, "diffusion.json"), comparison)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdmc",
        description="Absorbing-set and invariant-measure analysis of constant "
        "step-size SGD on separable objectives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p):
        p.add_argument("--config", required=True, help="objective config JSON")
        p.add_argument("--out", required=True, help="output directory")

    def common(p):
        io_args(p)
        p.add_argument("--grid", type=int, default=1000, help="cells per dimension")
        p.add_argument("--tol", type=float, default=None, help="iteration tolerance")

    p = sub.add_parser("analyze", help="decomposition, certificates, bounds")
    common(p)
    p.add_argument("--ell-max", type=int, default=64)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("invariant", help="invariant measure per rectangle")
    common(p)
    p.add_argument("--dump-operator", action="store_true",
                   help="also write the transition matrix as row,col,value text")
    p.add_argument("--steps", type=int, default=10**5,
                   help="trajectory length for the d>2 histogram fallback")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("basins", help="basin functions and mixture coefficients")
    common(p)
    p.set_defaults(func=cmd_basins)

    p = sub.add_parser("sweep", help="parameter sweep with bifurcation refinement")
    io_args(p)
    p.add_argument("--range", required=True, help="lo:hi:count")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="seeded trajectory histogram")
    common(p)
    p.add_argument("--steps", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare-invariant", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("diffusion", help="stationary density of the surrogate")
    common(p)
    p.set_defaults(func=cmd_diffusion)
    return parser


def _check_flags(args) -> None:
    """--grid, --steps and --tol must be positive: a config error, raised
    before any work starts."""
    for flag in ("grid", "steps", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not value > 0:  # NaN fails too
            raise ConfigError(f"--{flag} must be positive, got {value}")


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SGDMC_LOG", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, and 2 on a usage error
        # (unknown flag, missing value), which here means assumption violation
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NonCoercive, AssumptionA5Violated, ValueError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SingularDiffusion as exc:
        print(f"singular diffusion: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_DIFFUSION
    except SgdmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS


if __name__ == "__main__":
    sys.exit(main())
