"""Experiment orchestration: (eta, n) grid sweeps, boundary fits, CSV output.

Cells are fully independent: each (eta, n, replicate) triple gets a seed
derived from the master seed and the grid indices, so results are identical
regardless of parallelism degree or execution order. The per-eta minimal
recovering sample size (median rule by default) and the log-log boundary
slope are recomputable from the cells table alone.

Sweep config files are line-oriented ``key = value`` text; '#' starts a
comment. Recognized keys (CLI flags override file values):

    oracle       online | batch_reuse | alternating | deep_alternating
    link, act    polynomial spec: HeK, zK, or comma-separated monomial coeffs
    d            input dimension
    depth        layers for deep_alternating
    noise, tau   label noise family and scale
    eta_min, eta_max, eta_count    log-spaced learning-rate grid
    n_min, n_max, n_count          log-spaced sample-size grid
    replicates   runs per cell
    batch        batch size B
    neurons      hidden width N
    master_seed  sweep seed
    threshold    weak-recovery alignment threshold
    record_every checkpoint stride
    gamma        'auto' or a float
    init         pinned_alignment | uniform_sphere
    jobs         worker processes
    out          output directory
    window_min, window_max         slope-fit eta window
    mean_mode    true to aggregate replicates by mean instead of median
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import RunConfig, recovery_alignment, run
from .model import NoiseSpec, SeedTree, TeacherSpec
from .oracles import MuTable, OracleSpec, mu_table
from .theory import gamma_auto, phase_boundaries


def log_grid(count: int, lo: float, hi: float) -> tuple[float, ...]:
    """Logarithmically spaced grid, inclusive of both endpoints."""
    if count < 1 or not (0 < lo <= hi):
        raise ValueError("need count >= 1 and 0 < lo <= hi")
    if count == 1:
        return (float(lo),)
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def int_log_grid(count: int, lo: int, hi: int) -> tuple[int, ...]:
    """Strictly increasing integer log grid (duplicates collapsed)."""
    vals = sorted({int(round(v)) for v in log_grid(count, lo, hi)})
    return tuple(vals)


@dataclass
class SweepSpec:
    """Grid sweep over learning rates and sample sizes.

    gamma_mode: 'auto' derives gamma per cell from the oracle-specific
    prescription; a float pins it; 'eta_as_gamma' reuses the swept grid as
    the gamma axis with eta forced to zero (how an online-SGD step-size
    sweep is expressed, since that oracle has no eta).
    """

    base: RunConfig
    eta_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    replicates: int
    jobs: int = 1
    gamma_mode: float | str = "auto"
    use_mean: bool = False
    slope_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.eta_grid or not self.n_grid:
            raise ValueError("grids must be nonempty")
        if any(b <= a for a, b in zip(self.eta_grid, self.eta_grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        if self.n_grid[0] < self.base.batch_size:
            raise ValueError("smallest grid n must cover one batch")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")


@dataclass(frozen=True)
class Cell:
    eta_index: int
    n_index: int
    replicate: int
    eta: float
    n: int
    seed: int
    final_alignment: float
    recovered: int
    samples_seen: int
    diverged: int


@dataclass
class SweepResult:
    spec: SweepSpec
    gammas: tuple[float, ...]
    cells: tuple[Cell, ...]
    summary: tuple[tuple[float, int | None], ...]
    slope_fit: tuple[float, float] | None


def _cell_gamma(spec: SweepSpec, eta: float) -> float:
    base = spec.base
    if spec.gamma_mode == "auto":
        oracle = replace(base.oracle, eta=eta)
        mu = mu_table(oracle, base.teacher.link, base.teacher.noise, base.teacher.d)
        return gamma_auto(oracle, mu, base.teacher.d)
    if spec.gamma_mode == "eta_as_gamma":
        return eta
    return float(spec.gamma_mode)


def _aggregated(spec: SweepSpec, cells: Sequence[Cell]) -> dict[tuple[int, int], float]:
    """Replicate-aggregated recovery alignment per (eta index, n index)."""
    groups: dict[tuple[int, int], list[float]] = {}
    for c in cells:
        val = recovery_alignment(c.final_alignment, c.diverged)
        groups.setdefault((c.eta_index, c.n_index), []).append(val)
    agg = np.mean if spec.use_mean else np.median
    return {key: agg(vals) for key, vals in groups.items()}


def _run_cell(payload) -> Cell:
    base, ei, eta, gamma, ni, n, rep, grid_is_gamma = payload
    seed = base.seed.child(ei, ni, rep)
    cell_eta = 0.0 if grid_is_gamma else eta
    cfg = replace(base, oracle=replace(base.oracle, eta=cell_eta, gamma=gamma), n=n, seed=seed)
    traj = run(cfg)
    final = traj.final_alignment
    return Cell(
        eta_index=ei,
        n_index=ni,
        replicate=rep,
        eta=eta,
        n=n,
        seed=seed.digest(),
        final_alignment=final,
        recovered=int(recovery_alignment(final, traj.diverged) >= cfg.weak_threshold),
        samples_seen=traj.total_samples,
        diverged=int(traj.diverged),
    )


def summarize(
    spec: SweepSpec, cells: Sequence[Cell]
) -> tuple[tuple[float, int | None], ...]:
    """Per-eta minimal grid n whose replicate-aggregated final alignment
    clears the weak threshold (diverged replicates count as alignment -1,
    see recovery_alignment)."""
    agg = _aggregated(spec, cells)
    summary = []
    for ei, eta in enumerate(spec.eta_grid):
        n_star = None
        for ni, n in enumerate(spec.n_grid):
            if agg.get((ei, ni), -math.inf) >= spec.base.weak_threshold:
                n_star = n
                break
        summary.append((eta, n_star))
    return tuple(summary)


def sweep(spec: SweepSpec) -> SweepResult:
    """Run every (eta, n, replicate) cell; order-insensitive and deterministic."""
    gammas = tuple(_cell_gamma(spec, eta) for eta in spec.eta_grid)
    grid_is_gamma = spec.gamma_mode == "eta_as_gamma"
    payloads = [
        (spec.base, ei, eta, gammas[ei], ni, n, rep, grid_is_gamma)
        for ei, eta in enumerate(spec.eta_grid)
        for ni, n in enumerate(spec.n_grid)
        for rep in range(spec.replicates)
    ]
    if spec.jobs > 1:
        chunk = max(1, len(payloads) // (spec.jobs * 8))
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            cells = list(pool.map(_run_cell, payloads, chunksize=chunk))
    else:
        cells = [_run_cell(p) for p in payloads]
    cells.sort(key=lambda c: (c.eta_index, c.n_index, c.replicate))
    summary = summarize(spec, cells)
    result = SweepResult(
        spec=spec, gammas=gammas, cells=tuple(cells), summary=summary, slope_fit=None
    )
    if spec.slope_window is not None:
        try:
            result.slope_fit = fit_boundary_slope(result, spec.slope_window)
        except ValueError:
            result.slope_fit = None
    return result


def fit_boundary_slope(
    result: SweepResult, eta_window: tuple[float, float]
) -> tuple[float, float]:
    """Ordinary least squares of log n* against log eta inside the window.

    Returns (slope, stderr); raises when fewer than 4 recovering grid points
    fall in the window.
    """
    lo, hi = eta_window
    pts = [
        (math.log(eta), math.log(n_star))
        for eta, n_star in result.summary
        if n_star is not None and lo <= eta <= hi
    ]
    if len(pts) < 4:
        raise ValueError(
            f"need at least 4 recovering grid points in eta window [{lo:g}, {hi:g}], "
            f"found {len(pts)}"
        )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = max(len(pts) - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr


def knee_eta(
    result: SweepResult,
    flat_points: int = 8,
    drop: float = math.sqrt(2.0),
    sustain: int = 2,
    smooth: int = 3,
) -> float | None:
    """Empirical knee: first eta where n* falls below the flat reference level
    by the given factor, sustained over `sustain` consecutive grid points.

    The flat reference is the median n* over the lowest `flat_points`
    recovering learning rates. A centered running median of width `smooth`
    absorbs replicate flicker near the recovery threshold; unrecovered
    learning rates count as infinitely expensive.
    """
    etas = [eta for eta, _ in result.summary]
    vals = [math.inf if n is None else float(n) for _, n in result.summary]
    if smooth > 1:
        half = smooth // 2
        vals = [
            float(np.median(vals[max(0, i - half) : i + half + 1]))
            for i in range(len(vals))
        ]
    finite = [(eta, v) for eta, v in zip(etas, vals) if math.isfinite(v)]
    if len(finite) < flat_points + sustain:
        return None
    ref = float(np.median([v for _, v in finite[:flat_points]]))
    level = ref / drop
    for idx in range(len(finite) - sustain + 1):
        window = finite[idx : idx + sustain]
        if all(v <= level for _, v in window):
            return window[0][0]
    return None


def _mu_of_eta(spec: SweepSpec):
    base = spec.base

    def fn(eta: float) -> MuTable:
        oracle = replace(base.oracle, eta=eta)
        return mu_table(oracle, base.teacher.link, base.teacher.noise, base.teacher.d)

    return fn


def emit(result: SweepResult, out_dir: str, formats: Sequence[str] = ("csv", "plotdata")):
    """Write sweep artifacts; returns the paths written.

    csv: cells.csv (one row per cell) and summary.csv (eta, n_star).
    plotdata: grid.plotdata, a text matrix of 0/1 recovery indicators
    (rows eta, columns n, medians thresholded at the weak threshold), plus
    phase.csv with the predicted boundary markers.
    """
    os.makedirs(out_dir, exist_ok=True)
    spec = result.spec
    paths = []
    if "csv" in formats:
        cells_path = os.path.join(out_dir, "cells.csv")
        with open(cells_path, "w") as fh:
            fh.write("eta,n,replicate,seed,final_alignment,recovered,samples_seen,diverged\n")
            for c in result.cells:
                fh.write(
                    f"{c.eta:.10g},{c.n},{c.replicate},{c.seed},"
                    f"{c.final_alignment:.10g},{c.recovered},{c.samples_seen},{c.diverged}\n"
                )
        summary_path = os.path.join(out_dir, "summary.csv")
        with open(summary_path, "w") as fh:
            fh.write("eta,n_star\n")
            for eta, n_star in result.summary:
                fh.write(f"{eta:.10g},{'' if n_star is None else n_star}\n")
        paths += [cells_path, summary_path]
    if "plotdata" in formats:
        agg = _aggregated(spec, result.cells)
        grid_path = os.path.join(out_dir, "grid.plotdata")
        with open(grid_path, "w") as fh:
            fh.write("eta " + " ".join(str(n) for n in spec.n_grid) + "\n")
            for ei, eta in enumerate(spec.eta_grid):
                row = [
                    str(int(agg[(ei, ni)] >= spec.base.weak_threshold))
                    for ni in range(len(spec.n_grid))
                ]
                fh.write(f"{eta:.10g} " + " ".join(row) + "\n")
        phase_path = os.path.join(out_dir, "phase.csv")
        eta_lo, eta_hi = spec.eta_grid[0], spec.eta_grid[-1]
        with open(phase_path, "w") as fh:
            fh.write("i,j,eta_star,exponent\n")
            if spec.base.oracle.kind != "online" and eta_lo < eta_hi:
                bounds = phase_boundaries(
                    _mu_of_eta(spec),
                    spec.base.teacher.d,
                    (eta_lo, eta_hi),
                    spec=spec.base.oracle,
                )
                for b in bounds:
                    exp = "" if b.exponent is None else f"{b.exponent:.10g}"
                    fh.write(f"{b.i},{b.j},{b.eta_star:.10g},{exp}\n")
        paths += [grid_path, phase_path]
    return paths


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = {
    "oracle": str,
    "link": str,
    "act": str,
    "d": int,
    "depth": int,
    "noise": str,
    "tau": float,
    "eta_min": float,
    "eta_max": float,
    "eta_count": int,
    "n_min": int,
    "n_max": int,
    "n_count": int,
    "replicates": int,
    "batch": int,
    "neurons": int,
    "master_seed": int,
    "threshold": float,
    "strong_eps": float,
    "record_every": int,
    "gamma": str,
    "init": str,
    "jobs": int,
    "out": str,
    "window_min": float,
    "window_max": float,
    "mean_mode": bool,
}

CONFIG_DEFAULTS = {
    "oracle": "alternating",
    "link": "He3",
    "act": "He3",
    "d": 50,
    "depth": 2,
    "noise": "none",
    "tau": 0.0,
    "eta_min": 1e-3,
    "eta_max": 1.0,
    "eta_count": 50,
    "n_min": 256,
    "n_max": 500_000,
    "n_count": 20,
    "replicates": 10,
    "batch": 128,
    "neurons": 1,
    "master_seed": 0,
    "threshold": 0.5,
    "strong_eps": 0.1,
    "record_every": 100,
    "gamma": "auto",
    "init": "pinned_alignment",
    "jobs": 1,
    "out": "sweep_out",
    "window_min": None,
    "window_max": None,
    "mean_mode": False,
}


def parse_config(text: str) -> dict:
    """Parse a line-oriented key = value sweep config."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        typ = CONFIG_SCHEMA[key]
        if typ is bool:
            out[key] = value.lower() in ("1", "true", "yes", "on")
        else:
            out[key] = typ(value)
    return out


def spec_from_config(cfg: dict, parse_poly) -> SweepSpec:
    """Build a SweepSpec from merged config values.

    parse_poly converts a polynomial spec string to a MonomialPoly (supplied
    by the CLI layer so the shorthand lives in one place).
    """
    merged = dict(CONFIG_DEFAULTS)
    merged.update({k: v for k, v in cfg.items() if v is not None})
    teacher = TeacherSpec(
        d=merged["d"],
        link=parse_poly(merged["link"]),
        noise=NoiseSpec(merged["noise"], merged["tau"]),
    )
    oracle = OracleSpec(
        kind=merged["oracle"],
        activation=parse_poly(merged["act"]),
        depth=merged["depth"],
    )
    base = RunConfig(
        teacher=teacher,
        oracle=oracle,
        n=max(merged["n_min"], merged["batch"]),
        seed=SeedTree(merged["master_seed"]),
        batch_size=merged["batch"],
        n_neurons=merged["neurons"],
        init_mode=merged["init"],
        weak_threshold=merged["threshold"],
        strong_eps=merged["strong_eps"],
        record_every=merged["record_every"],
    )
    window = None
    if merged["window_min"] is not None and merged["window_max"] is not None:
        window = (merged["window_min"], merged["window_max"])
    gamma_mode = merged["gamma"]
    if gamma_mode not in ("auto", "eta_as_gamma"):
        gamma_mode = float(gamma_mode)
    return SweepSpec(
        base=base,
        eta_grid=log_grid(merged["eta_count"], merged["eta_min"], merged["eta_max"]),
        n_grid=int_log_grid(merged["n_count"], merged["n_min"], merged["n_max"]),
        replicates=merged["replicates"],
        jobs=merged["jobs"],
        gamma_mode=gamma_mode,
        use_mean=merged["mean_mode"],
        slope_window=window,
    )
