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
    ELL_MAX,
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
from .poly import Polynomial, isolation_counts
from .transfer import (
    MAX_GRID_DIMENSION,
    DiscreteMeasure,
    Grid,
    SeparableOperator,
    basin_functions,
    invariant_measure,
    mixture_coefficients,
    ulam_operator,
)

log = logging.getLogger("sgdmc")

CSV_BLOCK_ROWS = 256  # 4096 raised diffusion --grid 10000's peak RSS by 1.6 MB
GRID_CSV_BLOCK = 2048  # 4096 ran no faster and raised basins --grid 10000's peak RSS by 0.5 MB


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


def _write_grid_csvs(args, grid: Grid, names, series, started: float) -> None:
    """One grid CSV per name into --out, each written on its own: a row per
    cell where its series is positive, in flattened order, a missing cell
    meaning 0; the row holds the centre's coordinates then the value (header
    x in 1-d, x1..xd otherwise), every field as {:.17g}.  Only written
    fields are formatted, none twice: each axis's centre texts are made once,
    at the positions some file lists, and all files share the texts of their
    written values, distinct by bit pattern, which each block looks up by
    searchsorted in the sorted patterns.  A file's cells are scanned in
    blocks of GRID_CSV_BLOCK, from its first positive cell to its last, so
    that no file's list of cells is held whole (held, it raised the median
    peak RSS of dw2d-grid's basins child by 0.8 MB on a 2-vCPU Xeon); a
    block's listed rows are one (rows, d + 1) object array of references to
    those texts, joined once.  Logs, at INFO, the seconds from started to
    the first write (the compute) apart from the writing, with rows and
    bytes."""
    computed = time.perf_counter()
    d = grid.dimension
    header = ["x"] if d == 1 else [f"x{j + 1}" for j in range(d)]

    def texts(floats, end: str):
        return np.array([f"{v:.17g}{end}" for v in floats.tolist()], dtype=object)

    def distinct(ints):  # sorted; np.unique's hash table took 5-15 times as long here
        ints = np.sort(ints)
        keep = np.ones(ints.size, dtype=bool)
        np.not_equal(ints[1:], ints[:-1], out=keep[1:])
        return ints[keep]

    columns = [np.asarray(values, dtype=np.float64) for values in series]
    keys, used = [], [np.zeros(n, dtype=bool) for n in grid.shape]
    for values in columns:
        positive = values > 0
        keys.append(distinct(values[positive].view(np.int64)))
        positive = positive.reshape(grid.shape)
        for j in range(d):  # the axis positions where some cell is positive
            used[j] |= positive.any(axis=tuple(k for k in range(d) if k != j))
    keys = distinct(np.concatenate(keys))
    values_text = texts(keys.view(np.float64), "\n")
    axes = [np.empty(n, dtype=object) for n in grid.shape]
    for axis, centers, at in zip(axes, grid.centers, used):
        axis[at] = texts(centers[at], ",")
    paths = [os.path.join(args.out, name) for name in names]
    fields = np.empty((min(GRID_CSV_BLOCK, grid.ncells), d + 1), dtype=object)
    rows = 0
    for path, values in zip(paths, columns):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header + ["value"]) + "\n")
            positive = values > 0  # scanned from its first positive cell to its last
            for start in range(positive.argmax(), positive.size - positive[::-1].argmax(),
                               GRID_CSV_BLOCK):
                at = start + np.flatnonzero(positive[start:start + GRID_CSV_BLOCK])
                if not at.size:
                    continue
                rows += at.size
                block = fields[:at.size]
                for j, k in enumerate(np.unravel_index(at, grid.shape)):
                    block[:, j] = axes[j][k]
                block[:, d] = values_text[np.searchsorted(keys, values[at].view(np.int64))]
                fh.write("".join(block.ravel().tolist()))
    log.info("%s: compute %.3fs, write %.3fs (%d rows, %d bytes)", args.command,
             computed - started, time.perf_counter() - computed,
             rows, sum(os.path.getsize(p) for p in paths))


def _write_json(path: str, payload: dict) -> None:
    """payload as strict JSON: a NaN or infinity raises ValueError (an
    internal error, exit 5) before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _problem(args, cfg: dict):
    """The validated problem a command runs on: a MapFamily, for sample with
    its start point, for sweep the base polynomial and the lambda values."""
    if args.command == "sweep":
        if "objective" not in cfg:
            raise ConfigError("sweep requires the linear-splitting config form")
        base = Polynomial(config_coefficients(cfg["objective"], "'objective'"))
        lambda_split(base, 1.0)  # validates coercivity up front
        lams = np.linspace(*_parse_range(args.range))
        # and the coefficients' range: the last lambda has the widest root bounds
        lambda_split(base, lams[-1]).critical_report
        return base, lams
    fam = MapFamily(*objective_from_config(cfg))
    if args.command == "diffusion" and fam.dimension != 1:
        raise ConfigError("diffusion comparison is one-dimensional")
    if args.command == "sample" and args.compare_invariant and fam.dimension != 1:
        raise ConfigError("sample --compare-invariant is one-dimensional")
    if args.command in ("invariant", "basins") and fam.dimension > MAX_GRID_DIMENSION:
        raise ConfigError(f"{args.command} needs a dense grid, offered up to two dimensions; "
                          "sample gives a trajectory histogram")
    if args.command == "sample":
        x0 = (config_point(cfg["x0"], fam.intervals, "'x0'") if "x0" in cfg
              else [0.5 * (a + b) for a, b in fam.intervals])
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


def _invariant_pieces(op: SeparableOperator, tol):
    """Each rectangle's invariant measure, from its block of the Ulam operator op assembled
    alone, whose non-zeros are logged at INFO.  The grid is labelled first, so a problem
    with no decomposition fails before assembly on its state space."""
    blocks = metric_config(op.grid, op.fam.decomposition)
    results = [invariant_measure(op, cells, tol=tol) for cells in blocks.rectangle_cells]
    log.info("invariant: %d rectangle block(s) assembled (nnz=%d)", len(op.nnz), sum(op.nnz))
    return results


def _d_F_per_rectangle(fam: MapFamily, measure: DiscreteMeasure, results) -> list[dict]:
    """d_F from measure to each rectangle's invariant measure."""
    return [{"index": list(rect.index), "d_F": d_F(measure, res.measure)}
            for rect, res in zip(fam.decomposition.rectangles, results)]


def cmd_invariant(args, fam: MapFamily) -> None:
    started = time.perf_counter()
    grid = Grid.regular(fam.intervals, args.grid)
    op = ulam_operator(fam, grid)
    results = _invariant_pieces(op, args.tol)
    names = [f"invariant_{m}.csv" for m in range(len(results))]
    _write_grid_csvs(args, grid, names, [res.measure.weights for res in results], started)
    if args.dump_operator:  # the one command that builds the whole operator
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
    started, isolated = time.perf_counter(), isolation_counts()
    points = [_sweep_point(base, lam) for lam in lams.tolist()]
    scanned = time.perf_counter()
    computed, reused = (b - a for a, b in zip(isolated, isolation_counts()))
    found = bifurcations(base, lams[0], lams[-1])
    searched = time.perf_counter()
    rows = [("point", lam, cnt, f"{eta0:.17g}", endp) for lam, cnt, eta0, endp in points]
    rows += [("bifurcation", lam, a, "", f"{a}->{b}") for lam, a, b in found]
    path = os.path.join(args.out, "sweep.csv")
    _write_csv(path, ["record", "lambda", "count", "eta0", "endpoints"],
               list(zip(*rows)), row="{},{:.17g},{},{},{}\n")
    log.info("sweep: points %.3fs (%d lambda values; %d isolations, %d reused), "
             "bifurcations %.3fs (%d found), write %.3fs (%d rows, %d bytes)",
             scanned - started, len(points), computed, reused, searched - scanned, len(found),
             time.perf_counter() - searched, len(rows), os.path.getsize(path))


def cmd_sample(args, problem) -> None:
    fam, x0 = problem
    grid = Grid.regular(fam.intervals, args.grid)
    # the comparison labels the grid before the chain runs: a grid too coarse,
    # or an invariant measure that does not converge, leaves --out empty
    results = (_invariant_pieces(ulam_operator(fam, grid), args.tol) if args.compare_invariant
               else None)
    started = time.perf_counter()
    summary = sgd_sample(fam, x0, args.steps, args.seed, grid)
    chained = time.perf_counter()
    names = ["sample.csv"] if grid.dimension == 1 else [
        f"sample_dim{j}.csv" for j in range(grid.dimension)]
    paths = [os.path.join(args.out, name) for name in names]
    for path, centers, hist in zip(paths, grid.centers, summary.histograms):
        _write_csv(path, ["bin_center", "count"], [centers, hist], row="{:.17g},{}\n")
    log.info("sample: chain %.3fs (%d steps, %.0f ns/step), write %.3fs (%d rows, %d bytes)",
             chained - started, summary.steps, (chained - started) / summary.steps * 1e9,
             time.perf_counter() - chained, sum(grid.shape),
             sum(os.path.getsize(p) for p in paths))
    report = {
        "steps": summary.steps,
        "seed": args.seed,
        "final_point": [float(v) for v in summary.final_point],
        "first_absorbed_step": summary.first_absorbed_step,
        "rectangle_steps": {str(k): v for k, v in summary.rectangle_steps.items()},
    }
    if args.compare_invariant:
        hist_measure = DiscreteMeasure(grid, summary.histograms[0].astype(float) / summary.steps)
        report["invariant_comparison"] = _d_F_per_rectangle(fam, hist_measure, results)
    _write_json(os.path.join(args.out, "sample.json"), report)


def cmd_diffusion(args, fam: MapFamily) -> None:
    # the density is computed first: a vanishing diffusion coefficient must
    # exit with its own code even when the exact analysis would also fail
    started = time.perf_counter()
    grid = Grid.regular(fam.intervals, args.grid)
    profile = stationary_density(fam.obj, fam.eta, grid.centers[0])
    rho_measure = DiscreteMeasure(grid, density_cell_masses(profile, grid.edges[0]))
    densities = time.perf_counter()
    results = _invariant_pieces(ulam_operator(fam, grid), args.tol)
    decomp = fam.decomposition
    comparison = {
        "exact_count": len(decomp.rectangles),
        "diffusion_count": 1,
        "count_mismatch": len(decomp.rectangles) != 1,
        "per_rectangle_d_F": _d_F_per_rectangle(fam, rho_measure, results),
        "truncation_estimate": profile.truncation_estimate,
    }
    compared = time.perf_counter()
    path = os.path.join(args.out, "diffusion.csv")
    _write_csv(
        path,
        ["x", "Phi", "u", "D", "V", "rho_star"],
        [profile.x, profile.phi, profile.u, profile.diffusion, profile.potential,
         profile.rho_star],
    )
    log.info("diffusion: density %.3fs, invariant %.3fs (%d rectangles), "
             "write %.3fs (%d rows, %d bytes)", densities - started, compared - densities,
             len(results), time.perf_counter() - compared, len(profile.x),
             os.path.getsize(path))
    _write_json(os.path.join(args.out, "diffusion.json"), comparison)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdmc",
        description="Absorbing-set and invariant-measure analysis of constant "
        "step-size SGD on separable objectives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, grid="cells per dimension", tol=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="objective config JSON")
        p.add_argument("--out", required=True, help="output directory")
        if grid:
            p.add_argument("--grid", type=int, default=1000, help=grid)
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="stop tolerance of the solves that iterate; narrow-band "
                           "solves are direct (GTH, banded) and ignore it")
        p.set_defaults(func=func)
        return p

    p = command("analyze", cmd_analyze, "decomposition, certificates, bounds", tol=False,
                grid="escape-walk start points: GRID in one dimension, "
                "max(8, int(GRID ** (1/d))) per axis in d >= 2")
    p.add_argument("--ell-max", type=int, default=ELL_MAX)

    p = command("invariant", cmd_invariant, "invariant measure per rectangle")
    p.add_argument("--dump-operator", action="store_true",
                   help="also write the transition matrix as row,col,value text")

    command("basins", cmd_basins, "basin functions and mixture coefficients")

    p = command("sweep", cmd_sweep, "parameter sweep with exact bifurcation points",
                grid=None, tol=False)
    p.add_argument("--range", required=True, help="lo:hi:count")

    p = command("sample", cmd_sample, "seeded trajectory histogram")
    p.add_argument("--steps", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare-invariant", action="store_true",
                   help="also report d_F to each rectangle's invariant measure (1-d only)")

    command("diffusion", cmd_diffusion, "stationary density of the surrogate")
    return parser


def _check_flags(args) -> None:
    """--grid (for diffusion at least 2), --steps and --tol must be positive and finite,
    --ell-max at least 1 and --seed non-negative: a config error, raised before any work
    starts."""
    for flag in ("grid", "steps", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not 0 < value < np.inf:  # NaN fails too
            raise ConfigError(f"--{flag} must be positive and finite, got {value}")
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
