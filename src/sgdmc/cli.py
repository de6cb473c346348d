"""Batch command-line front end: loads an objective config, runs one analysis
and writes JSON reports plus CSV series for external plotting.

`main` parses the flags, loads the config and builds the validated problem
(a MapFamily; for sweep the base polynomial and the lambda values) before it
creates --out, so an invalid config or flag leaves no directory behind;
then it runs the command on that problem.  A failure prints one stderr line and exits
with the code its error class carries (sgdmc.errors): 0 success, 1 config
error (unparsable or invalid config, command-line usage error or
out-of-range flag), 2 assumption violation (coercivity / inconsistent
optimization / step-size bound), 3 no convergence, 4 singular diffusion,
5 internal error (a program fault; SGDMC_LOG=DEBUG adds the traceback).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .absorbing import absorbing_structure, bifurcations
from .diffusion import density_cell_masses, stationary_density
from .dynamics import (
    MapFamily,
    sgd_sample,
    splitting_certificate_multi,
    uniform_escape_length,
)
from .errors import INTERNAL_ERROR, ConfigError, NotFound, SgdmcError
from .metrics import d_F, metric_config
from .objective import (
    config_coefficients,
    config_point,
    eta_bound,
    lambda_split,
    objective_from_config,
)
from .poly import Polynomial
from .transfer import (
    MAX_GRID_DIMENSION,
    DiscreteMeasure,
    Grid,
    basin_functions,
    invariant_measure,
    mixture_coefficients,
    ulam_assemble,
)

log = logging.getLogger("sgdmc")

CSV_BLOCK_ROWS = 256  # 4096 raised diffusion --grid 10000's peak RSS by 1.6 MB


def _write_csv(path: str, header: list[str], columns, row: str | None = None) -> None:
    """Write equal-length columns under a header line (none if header is
    empty), one line per index through the template row (default: every
    column as {:.17g}, full double precision and locale-free).  The columns
    become Python objects CSV_BLOCK_ROWS rows at a time, never whole."""
    columns = [np.asarray(c) for c in columns]
    if row is None:
        row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.writelines(map(row.format, *block))


def _write_grid_csv(path: str, grid: Grid, values) -> None:
    """One row per cell, in flattened order: the centre's coordinates, then
    the value (header x in 1-d, x1..xd otherwise), every field as {:.17g}.
    No float is formatted twice.  Held whole: the texts of the distinct
    values (distinct by bit pattern, so -0.0 keeps its text -0), one index
    per cell into them and, in 2-d and up, each axis's centre texts.  Made
    CSV_BLOCK_ROWS cells at a time: in 1-d, where each centre is used once,
    the centre texts; the lines, by object-array concatenation of those
    texts; and their one joined write."""
    d = grid.dimension
    header = ["x"] if d == 1 else [f"x{j + 1}" for j in range(d)]

    def centre_texts(centers):
        return np.array([f"{c:.17g}," for c in centers.tolist()], dtype=object)

    axes = None if d == 1 else [centre_texts(centers) for centers in grid.centers]
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, which = np.unique(bits, return_inverse=True)
    texts = np.array([f"{v:.17g}\n" for v in distinct.view(np.float64).tolist()],
                     dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["value"]) + "\n")
        for start in range(0, grid.ncells, CSV_BLOCK_ROWS):
            cells = np.arange(start, min(start + CSV_BLOCK_ROWS, grid.ncells))
            lines = texts[which[cells]]
            if axes is None:
                lines = centre_texts(grid.centers[0][cells]) + lines
            else:
                for axis, k in zip(reversed(axes), reversed(np.unravel_index(cells, grid.shape))):
                    lines = axis[k] + lines
            fh.write("".join(lines.tolist()))


def _write_grid_csvs(args, grid: Grid, names, series, started: float) -> None:
    """One grid CSV per name into --out; logs, at INFO, the seconds from
    started to the first write (the compute) apart from the writing, with
    the rows and bytes written."""
    computed = time.perf_counter()
    paths = [os.path.join(args.out, name) for name in names]
    for path, values in zip(paths, series):
        _write_grid_csv(path, grid, values)
    log.info("%s: compute %.3fs, write %.3fs (%d rows, %d bytes)", args.command,
             computed - started, time.perf_counter() - computed,
             len(paths) * grid.ncells, sum(os.path.getsize(p) for p in paths))


def _write_histograms(out: str, names, summary) -> None:
    """One bin_center,count CSV per dimension of a sampled trajectory."""
    for name, edges, hist in zip(names, summary.bin_edges, summary.histograms):
        centers = 0.5 * (edges[:-1] + edges[1:])
        _write_csv(os.path.join(out, name), ["bin_center", "count"], [centers, hist],
                   row="{:.17g},{}\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _centre(fam: MapFamily) -> list[float]:
    return [0.5 * (a + b) for a, b in fam.intervals]


def _problem(args, cfg: dict):
    """The validated problem a command runs on: a MapFamily, for sample with
    its start point, for sweep the base polynomial and the lambda values."""
    if args.command == "sweep":
        if "objective" not in cfg:
            raise ConfigError("sweep requires the linear-splitting config form")
        base = Polynomial(config_coefficients(cfg["objective"], "'objective'"))
        lambda_split(base, 1.0)  # validates coercivity up front
        return base, np.linspace(*_parse_range(args.range))
    fam = MapFamily(*objective_from_config(cfg))
    if args.command == "diffusion" and fam.dimension != 1:
        raise ConfigError("diffusion comparison is one-dimensional")
    if args.command == "sample" and args.compare_invariant and fam.dimension != 1:
        raise ConfigError("sample --compare-invariant is one-dimensional")
    if args.command == "basins" and fam.dimension > MAX_GRID_DIMENSION:
        raise ConfigError("basin functions need a dense grid, offered up to two dimensions")
    if args.command == "sample":
        x0 = config_point(cfg["x0"], fam.intervals, "'x0'") if "x0" in cfg else _centre(fam)
        return fam, x0
    return fam


def _parse_range(spec: str):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad --range '{spec}', expected lo:hi:count") from exc
    if count < 1 or not 0 < lo <= hi < np.inf:  # NaN fails too
        raise ConfigError(f"bad --range '{spec}': need count >= 1 and 0 < lo <= hi")
    return lo, hi, count


def cmd_analyze(args, fam: MapFamily) -> None:
    decomp = fam.decomposition
    started = time.perf_counter()
    certificates = []
    for rect in decomp.rectangles:
        try:
            cert = splitting_certificate_multi(fam, rect, ell_max=args.ell_max)
            certificates.append({"index": list(rect.index), **cert.to_dict()})
        except NotFound as exc:
            certificates.append(
                {"index": list(rect.index), "not_found": True,
                 "gaps": {str(k): v for k, v in exc.gaps.items()}}
            )
    d = fam.dimension
    escape_grid = args.grid if d == 1 else max(8, int(args.grid ** (1 / d)))
    certified = time.perf_counter()
    escape = uniform_escape_length(fam, grid_n=escape_grid)
    escaped = time.perf_counter()
    cert_ells = [c["ell"] for c in certificates if "ell" in c]
    _write_json(os.path.join(args.out, "report.json"), {
        "version": __version__,
        "eta": fam.eta,
        "eta0": eta_bound(fam.obj),
        "decomposition": decomp.to_dict(),
        "certificates": certificates,
        "ell0_estimate": escape.ell_zero,
        "combined_exponent": 2 * max([escape.ell_zero] + cert_ells) if cert_ells else None,
        "unique": decomp.unique,
    })
    log.info("analyze: %d rectangle(s), unique=%s", len(decomp.rectangles), decomp.unique)
    steps = int(escape.lengths.sum())
    log.info("analyze: certificates %.3fs, escape %.3fs (%d points, %d steps, %.2f us/step)",
             certified - started, escaped - certified, escape.lengths.size, steps,
             (escaped - certified) / max(steps, 1) * 1e6)


def _invariant_pieces(fam: MapFamily, grid: Grid, tol):
    """(Ulam operator on grid, each rectangle's invariant measure).  The grid is labelled
    first, so a problem with no decomposition fails before assembly on its state space."""
    blocks = metric_config(grid, fam.decomposition)
    op = ulam_assemble(fam, grid)
    return op, [invariant_measure(op, cells, tol=tol) for cells in blocks.rectangle_cells]


def _d_F_per_rectangle(fam: MapFamily, measure: DiscreteMeasure, results) -> list[dict]:
    """d_F from measure to each rectangle's invariant measure."""
    return [{"index": list(rect.index), "d_F": d_F(measure, res.measure)}
            for rect, res in zip(fam.decomposition.rectangles, results)]


def cmd_invariant(args, fam: MapFamily) -> None:
    if fam.dimension > MAX_GRID_DIMENSION:
        log.warning(
            "dense grids are limited to two dimensions; falling back to a "
            "seeded trajectory histogram"
        )
        summary = sgd_sample(fam, _centre(fam), steps=args.steps, seed=args.seed,
                             grid_n=args.grid)
        names = [f"invariant_mc_dim{j}.csv" for j in range(fam.dimension)]
        _write_histograms(args.out, names, summary)
        _write_json(
            os.path.join(args.out, "invariant.json"),
            {"eta": fam.eta, "monte_carlo": True, "steps": summary.steps, "seed": summary.seed},
        )
        return
    started = time.perf_counter()
    grid = Grid.regular(fam.intervals, args.grid)
    op, results = _invariant_pieces(fam, grid, args.tol)
    names = [f"invariant_{m}.csv" for m in range(len(results))]
    _write_grid_csvs(args, grid, names, [res.measure.weights for res in results], started)
    if args.dump_operator:
        coo = op.matrix.tocoo()
        _write_csv(os.path.join(args.out, "operator.txt"), [], [coo.row, coo.col, coo.data],
                   row="{},{},{:.17g}\n")
    report = {"eta": fam.eta, "eta0": eta_bound(fam.obj), "rectangles": [
        {
            "index": list(rect.index),
            "file": name,
            "iterations": res.iterations,
            "residual": res.residual,
            "leakage": res.leakage,
        }
        for rect, name, res in zip(fam.decomposition.rectangles, names, results)
    ]}
    _write_json(os.path.join(args.out, "invariant.json"), report)


def cmd_basins(args, fam: MapFamily) -> None:
    started = time.perf_counter()
    grid = Grid.regular(fam.intervals, args.grid)
    basins = basin_functions(fam, grid, tol=args.tol)
    mu0 = DiscreteMeasure.uniform(grid)
    coeff = mixture_coefficients(basins, mu0)
    names = [f"basin_{m}.csv" for m in range(basins.values.shape[0])]
    _write_grid_csvs(args, grid, names, basins.values, started)
    report = {
        "eta": fam.eta,
        "eta0": eta_bound(fam.obj),
        "iterations": basins.iterations,
        "residual": basins.residual,
        "partition_defect": basins.partition_defect,
        "uniform_coefficients": [float(c) for c in coeff],
        "files": names,
    }
    _write_json(os.path.join(args.out, "basins.json"), report)


def _sweep_point(base: Polynomial, lam: float):
    obj = lambda_split(base, lam)
    _, (ts,) = absorbing_structure(obj)
    endpoints = ";".join(f"{t.l:.17g}|{t.r:.17g}" for t in ts)
    return lam, len(ts), eta_bound(obj), endpoints


def cmd_sweep(args, problem) -> None:
    base, lams = problem
    points = [_sweep_point(base, lam) for lam in lams.tolist()]
    rows = [("point", lam, cnt, f"{eta0:.17g}", endp) for lam, cnt, eta0, endp in points]
    rows += [("bifurcation", lam, a, "", f"{a}->{b}")
             for lam, a, b in bifurcations(base, lams[0], lams[-1])]
    _write_csv(os.path.join(args.out, "sweep.csv"),
               ["record", "lambda", "count", "eta0", "endpoints"],
               list(zip(*rows)), row="{},{:.17g},{},{},{}\n")


def cmd_sample(args, problem) -> None:
    fam, x0 = problem
    started = time.perf_counter()
    summary = sgd_sample(fam, x0, steps=args.steps, seed=args.seed, grid_n=args.grid)
    chained = time.perf_counter()
    names = (["sample.csv"] if fam.dimension == 1
             else [f"sample_dim{j}.csv" for j in range(fam.dimension)])
    _write_histograms(args.out, names, summary)
    log.info("sample: chain %.3fs (%d steps, %.0f ns/step), write %.3fs (%d rows, %d bytes)",
             chained - started, summary.steps, (chained - started) / summary.steps * 1e9,
             time.perf_counter() - chained, sum(h.size for h in summary.histograms),
             sum(os.path.getsize(os.path.join(args.out, name)) for name in names))
    report = {
        "steps": summary.steps,
        "seed": summary.seed,
        "final_point": [float(v) for v in summary.final_point],
        "first_absorbed_step": summary.first_absorbed_step,
        "rectangle_steps": {str(k): v for k, v in summary.rectangle_steps.items()},
    }
    if args.compare_invariant:
        grid = Grid.regular(fam.intervals, args.grid)
        _, results = _invariant_pieces(fam, grid, args.tol)
        hist_measure = DiscreteMeasure(grid, summary.histograms[0].astype(float) / summary.steps)
        report["invariant_comparison"] = _d_F_per_rectangle(fam, hist_measure, results)
    _write_json(os.path.join(args.out, "sample.json"), report)


def cmd_diffusion(args, fam: MapFamily) -> None:
    # the density is computed first: a vanishing diffusion coefficient must
    # exit with its own code even when the exact analysis would also fail
    grid = Grid.regular(fam.intervals, args.grid)
    profile = stationary_density(fam.obj, fam.eta, grid.centers[0])
    _, results = _invariant_pieces(fam, grid, args.tol)
    decomp = fam.decomposition
    _write_csv(
        os.path.join(args.out, "diffusion.csv"),
        ["x", "Phi", "u", "D", "V", "rho_star"],
        [profile.x, profile.phi, profile.u, profile.diffusion, profile.potential,
         profile.rho_star],
    )
    rho_measure = DiscreteMeasure(grid, density_cell_masses(profile, grid.edges[0]))
    comparison = {
        "exact_count": len(decomp.rectangles),
        "diffusion_count": 1,
        "count_mismatch": len(decomp.rectangles) != 1,
        "per_rectangle_d_F": _d_F_per_rectangle(fam, rho_measure, results),
        "truncation_estimate": profile.truncation_estimate,
    }
    _write_json(os.path.join(args.out, "diffusion.json"), comparison)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdmc",
        description="Absorbing-set and invariant-measure analysis of constant "
        "step-size SGD on separable objectives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, grid=True, tol=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="objective config JSON")
        p.add_argument("--out", required=True, help="output directory")
        if grid:
            p.add_argument("--grid", type=int, default=1000, help="cells per dimension")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="iteration tolerance")
        p.set_defaults(func=func)
        return p

    def sampling(p, steps_help):
        p.add_argument("--steps", type=int, default=10**5, help=steps_help)
        p.add_argument("--seed", type=int, default=0)

    p = command("analyze", cmd_analyze, "decomposition, certificates, bounds", tol=False)
    p.add_argument("--ell-max", type=int, default=64)

    p = command("invariant", cmd_invariant, "invariant measure per rectangle")
    p.add_argument("--dump-operator", action="store_true",
                   help="also write the transition matrix as row,col,value text")
    sampling(p, "trajectory length for the d>2 histogram fallback")

    command("basins", cmd_basins, "basin functions and mixture coefficients")

    p = command("sweep", cmd_sweep, "parameter sweep with exact bifurcation points",
                grid=False, tol=False)
    p.add_argument("--range", required=True, help="lo:hi:count")

    p = command("sample", cmd_sample, "seeded trajectory histogram")
    sampling(p, None)
    p.add_argument("--compare-invariant", action="store_true",
                   help="also report d_F to each rectangle's invariant measure (1-d only)")

    command("diffusion", cmd_diffusion, "stationary density of the surrogate")
    return parser


def _check_flags(args) -> None:
    """--grid (for diffusion at least 2), --steps and --tol must be positive, --ell-max
    at least 1 and --seed non-negative: a config error, raised before any work starts."""
    for flag in ("grid", "steps", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not value > 0:  # NaN fails too
            raise ConfigError(f"--{flag} must be positive, got {value}")
    if args.command == "diffusion" and args.grid < 2:
        raise ConfigError(f"--grid must be at least 2 for diffusion, got {args.grid}")
    if getattr(args, "ell_max", 1) < 1:
        raise ConfigError(f"--ell-max must be at least 1, got {args.ell_max}")
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SGDMC_LOG", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, and 2 on a usage error
        # (unknown flag, missing value), which here is a config error
        return 0 if exc.code == 0 else ConfigError.exit_code
    try:
        _check_flags(args)
        problem = _problem(args, _load_config(args.config))
        os.makedirs(args.out, exist_ok=True)
        started = time.perf_counter()
        args.func(args, problem)
        # timing goes to the log, not the outputs: output files are byte-stable
        log.info("%s: %.3fs", args.command, time.perf_counter() - started)
        return 0
    except SgdmcError as exc:
        log.debug("%s", type(exc).__name__, exc_info=True)
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        log.debug("%s", type(exc).__name__, exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
