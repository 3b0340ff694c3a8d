"""Experiment orchestration: (eta, n) grid sweeps, boundary fits, CSV output.

Cells are fully independent: each (eta, n, replicate) triple gets a seed
derived from the master seed and the grid indices, so results are identical
regardless of parallelism degree or execution order. The per-eta minimal
recovering sample size (the median rule of dynamics.recovers) and the
log-log boundary slope are recomputable from the cells table alone.

Sweep config files are line-oriented ``key = value`` text; '#' starts a
comment. Recognized keys (each is also a ``silab sweep`` flag, spelled
``--key-with-dashes``, whose value overrides the file's; a flag of the same
name on another subcommand takes the same type and default, see ``resolve``):

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
    gamma        'auto', a number, or 'eta_as_gamma' (sweeps only: the eta
                 grid is the step size and every cell runs at eta = 0)
    jobs         worker processes
    out          output directory
    window_min, window_max         eta window of the '# slope=' line
                                   that ``silab sweep`` prints

Every value is a str, an int or a float. A run's start has no key: the
teacher direction is e_1 and every row starts at alignment d**-0.5 (see
model.init_network).
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import RunConfig, _check_integers, recovers, recovery_alignment, run
from .hermite import parse_poly
from .model import NoiseSpec, SeedTree, TeacherSpec
from .oracles import OracleSpec, mu_of_eta, mu_table
from .theory import gamma_auto, phase_boundaries


def log_grid(count: int, lo: float, hi: float) -> tuple[float, ...]:
    """Logarithmically spaced grid, inclusive of both endpoints."""
    if count < 1 or not 0 < lo <= hi < math.inf:  # also false for nan
        raise ValueError(f"need count >= 1 and 0 < lo <= hi < inf, got count={count}, "
                         f"lo={lo}, hi={hi}")
    if count == 1:
        return (float(lo),)
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def int_log_grid(count: int, lo: int, hi: int) -> tuple[int, ...]:
    """Strictly increasing integer log grid (duplicates collapsed)."""
    vals = sorted({int(round(v)) for v in log_grid(count, lo, hi)})
    return tuple(vals)


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep over learning rates and sample sizes.

    gamma_mode: 'auto' derives gamma per eta row from the oracle-specific
    prescription; a float pins it; 'eta_as_gamma' reuses the swept grid as
    the gamma axis with eta forced to zero (how an online-SGD step-size
    sweep is expressed, since that oracle has no eta). Each cell and each
    (eta, n) group of replicates is judged by dynamics.recovers, the median
    rule, against base.weak_threshold. A spec is a frozen value; derive
    others with dataclasses.replace, which checks them again.
    """

    base: RunConfig
    eta_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    replicates: int
    jobs: int = 1
    gamma_mode: float | str = "auto"

    def __post_init__(self) -> None:
        if not self.eta_grid or not self.n_grid:
            raise ValueError("grids must be nonempty")
        if any(b <= a for a, b in zip(self.eta_grid, self.eta_grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        if self.n_grid[0] < self.base.batch_size:
            raise ValueError("smallest grid n must cover one batch")
        _check_integers(self, ("replicates", "jobs"))
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.jobs < 1:
            raise ValueError("jobs must be a positive integer")


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


def _row_oracle(spec: SweepSpec, eta: float) -> OracleSpec:
    """The oracle that every cell of the eta row runs."""
    if spec.gamma_mode == "eta_as_gamma":
        return replace(spec.base.oracle, eta=0.0, gamma=eta)
    oracle = replace(spec.base.oracle, eta=eta)
    return replace(oracle, gamma=resolve_gamma(spec.gamma_mode, oracle, spec.base.teacher))


def _verdicts(spec: SweepSpec, cells: Sequence[Cell]) -> dict[tuple[int, int], bool]:
    """Whether the replicates of each (eta index, n index) recover, by recovers."""
    groups: dict[tuple[int, int], list[float]] = {}
    for c in cells:
        val = recovery_alignment(c.final_alignment, c.diverged)
        groups.setdefault((c.eta_index, c.n_index), []).append(val)
    return {key: recovers(vals, spec.base.weak_threshold) for key, vals in groups.items()}


def _run_cell(payload) -> Cell:
    ei, ni, rep, eta, cfg = payload
    traj = run(cfg)
    final = traj.final_alignment
    return Cell(
        eta_index=ei,
        n_index=ni,
        replicate=rep,
        eta=eta,
        n=cfg.n,
        seed=cfg.seed.digest(),
        final_alignment=final,
        recovered=int(recovers([recovery_alignment(final, traj.diverged)], cfg.weak_threshold)),
        samples_seen=traj.total_samples,
        diverged=int(traj.diverged),
    )


def summarize(
    spec: SweepSpec, cells: Sequence[Cell]
) -> tuple[tuple[float, int | None], ...]:
    """Per-eta minimal grid n whose replicates recover (see recovers;
    diverged replicates count as alignment -1, see recovery_alignment)."""
    verdicts = _verdicts(spec, cells)
    summary = []
    for ei, eta in enumerate(spec.eta_grid):
        n_star = None
        for ni, n in enumerate(spec.n_grid):
            if verdicts.get((ei, ni), False):
                n_star = n
                break
        summary.append((eta, n_star))
    return tuple(summary)


def sweep(spec: SweepSpec) -> SweepResult:
    """Run every (eta, n, replicate) cell, in that order; deterministic."""
    base = spec.base
    rows = [_row_oracle(spec, eta) for eta in spec.eta_grid]
    payloads = [
        (ei, ni, rep, eta, replace(base, oracle=rows[ei], n=n, seed=base.seed.child(ei, ni, rep)))
        for ei, eta in enumerate(spec.eta_grid)
        for ni, n in enumerate(spec.n_grid)
        for rep in range(spec.replicates)
    ]
    if spec.jobs > 1:
        # imported here: the pool loads multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(payloads) // (spec.jobs * 8))
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            cells = list(pool.map(_run_cell, payloads, chunksize=chunk))
    else:
        cells = [_run_cell(p) for p in payloads]
    gammas = tuple(o.gamma for o in rows)
    return SweepResult(spec, gammas, tuple(cells), summarize(spec, cells))


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


_KNEE_FLAT_POINTS = 8  # recovering learning rates that set the flat reference
_KNEE_DROP = math.sqrt(2.0)  # factor by which n* must fall below the reference
_KNEE_SUSTAIN = 2  # consecutive grid points the drop must hold for
_KNEE_SMOOTH = 3  # width of the centered running median over n*


def knee_eta(result: SweepResult) -> float | None:
    """Empirical knee: first eta where n* falls below the flat reference level
    by a factor sqrt(2), sustained over 2 consecutive grid points.

    The flat reference is the median n* over the lowest 8 recovering learning
    rates. A centered running median of width 3 absorbs replicate flicker
    near the recovery threshold; unrecovered learning rates count as
    infinitely expensive. The four numbers are the module's _KNEE_* constants.
    """
    etas = [eta for eta, _ in result.summary]
    vals = [math.inf if n is None else float(n) for _, n in result.summary]
    half = _KNEE_SMOOTH // 2
    vals = [
        statistics.median(vals[max(0, i - half) : i + half + 1])
        for i in range(len(vals))
    ]
    finite = [(eta, v) for eta, v in zip(etas, vals) if math.isfinite(v)]
    if len(finite) < _KNEE_FLAT_POINTS + _KNEE_SUSTAIN:
        return None
    ref = statistics.median([v for _, v in finite[:_KNEE_FLAT_POINTS]])
    level = ref / _KNEE_DROP
    for idx in range(len(finite) - _KNEE_SUSTAIN + 1):
        window = finite[idx : idx + _KNEE_SUSTAIN]
        if all(v <= level for _, v in window):
            return window[0][0]
    return None


def _write_table(stream, header: Sequence, rows) -> None:
    """Write a CSV table to an open text stream: the header, then the rows,
    every line ending in '\\n'. A file should be opened with newline=""."""
    out = csv.writer(stream, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)


def emit(result: SweepResult, out_dir: str):
    """Write the sweep artifacts; returns the four paths written.

    cells.csv has one row per cell and summary.csv the pairs (eta, n_star).
    grid.plotdata is a text matrix of 0/1 recovery indicators (rows eta,
    columns n, each the verdict of recovers on the cell's replicates), and
    phase.csv holds the predicted boundary markers over the eta grid: only
    its header for gamma_mode 'eta_as_gamma', where every cell runs at
    eta = 0 and the grid is the step size. (An online table does not depend
    on eta, so its scan finds no boundary.)
    """
    os.makedirs(out_dir, exist_ok=True)
    spec, base = result.spec, result.spec.base
    cells_path = os.path.join(out_dir, "cells.csv")
    with open(cells_path, "w", newline="") as fh:
        header = "eta,n,replicate,seed,final_alignment,recovered,samples_seen,diverged"
        _write_table(fh, header.split(","), (
            [f"{c.eta:.10g}", c.n, c.replicate, c.seed, f"{c.final_alignment:.10g}",
             c.recovered, c.samples_seen, c.diverged] for c in result.cells))
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        # csv writes None, an eta that no grid n recovers, as an empty field
        _write_table(fh, ["eta", "n_star"],
                     ([f"{eta:.10g}", n_star] for eta, n_star in result.summary))
    verdicts = _verdicts(spec, result.cells)
    grid_path = os.path.join(out_dir, "grid.plotdata")
    with open(grid_path, "w") as fh:
        fh.write("eta " + " ".join(str(n) for n in spec.n_grid) + "\n")
        for ei, eta in enumerate(spec.eta_grid):
            row = [str(int(verdicts[(ei, ni)])) for ni in range(len(spec.n_grid))]
            fh.write(f"{eta:.10g} " + " ".join(row) + "\n")
    eta_range = (spec.eta_grid[0], spec.eta_grid[-1])
    bounds = ()
    if spec.gamma_mode != "eta_as_gamma" and eta_range[0] < eta_range[1]:
        bounds = phase_boundaries(mu_of_eta(base.oracle, base.teacher), base.teacher.d, eta_range,
                                  spec=base.oracle)
    phase_path = os.path.join(out_dir, "phase.csv")
    with open(phase_path, "w", newline="") as fh:
        _write_table(fh, ["i", "j", "eta_star", "exponent"], (
            [b.i, b.j, f"{b.eta_star:.10g}", "" if b.exponent is None else f"{b.exponent:.10g}"]
            for b in bounds))
    return [cells_path, summary_path, grid_path, phase_path]


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

CONFIG = {  # key: (type, default)
    "oracle": (str, "alternating"),
    "link": (str, "He3"),
    "act": (str, "He3"),
    "d": (int, 50),
    "depth": (int, 2),
    "noise": (str, "none"),
    "tau": (float, 0.0),
    "eta_min": (float, 1e-3),
    "eta_max": (float, 1.0),
    "eta_count": (int, 50),
    "n_min": (int, 256),
    "n_max": (int, 500_000),
    "n_count": (int, 20),
    "replicates": (int, 10),
    "batch": (int, 128),
    "neurons": (int, 1),
    "master_seed": (int, 0),
    "threshold": (float, 0.5),
    "record_every": (int, 100),
    "gamma": (str, "auto"),
    "jobs": (int, 1),
    "out": (str, "sweep_out"),
    "window_min": (float, None),
    "window_max": (float, None),
}


def parse_config(text: str) -> dict:
    """Parse a line-oriented key = value sweep config.

    A value that its key's type (str, int or float) cannot read raises
    ValueError naming the line and the key.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        typ = CONFIG[key][0]
        try:
            out[key] = typ(value)
        except ValueError:
            raise ValueError(f"config line {lineno}: bad value {value!r} for {key}") from None
    return out


def resolve(cfg: dict) -> dict:
    """Every CONFIG key: its value in cfg where that is not None, else its default."""
    return {
        key: default if cfg.get(key) is None else cfg[key]
        for key, (_, default) in CONFIG.items()
    }


def teacher_spec(cfg: dict) -> TeacherSpec:
    """The teacher of a resolved config (d, link, noise, tau)."""
    return TeacherSpec(
        d=cfg["d"], link=parse_poly(cfg["link"]), noise=NoiseSpec(cfg["noise"], cfg["tau"])
    )


def oracle_spec(cfg: dict, eta: float = 0.0) -> OracleSpec:
    """The oracle of a resolved config (oracle, act, depth) at eta, with gamma 0."""
    return OracleSpec(
        kind=cfg["oracle"], activation=parse_poly(cfg["act"]), eta=eta, depth=cfg["depth"]
    )


def run_config(
    cfg: dict, teacher: TeacherSpec, oracle: OracleSpec, n: int, seed: int, audit: bool = False
) -> RunConfig:
    """One run of a resolved config (batch, neurons, threshold, record_every)
    with the given teacher, oracle, sample budget and seed."""
    return RunConfig(
        teacher=teacher,
        oracle=oracle,
        n=n,
        seed=SeedTree(seed),
        batch_size=cfg["batch"],
        n_neurons=cfg["neurons"],
        weak_threshold=cfg["threshold"],
        record_every=cfg["record_every"],
        audit=audit,
    )


def _gamma_setting(gamma: float | str) -> float | str:
    """A gamma setting as 'auto', 'eta_as_gamma' or a float; ValueError otherwise."""
    if gamma in ("auto", "eta_as_gamma"):
        return gamma
    try:
        return float(gamma)
    except ValueError:
        raise ValueError(
            f"gamma must be 'auto', 'eta_as_gamma' or a number, got {gamma!r}"
        ) from None


def resolve_gamma(
    gamma: float | str, oracle: OracleSpec, teacher: TeacherSpec, mu=None
) -> float:
    """'auto' is gamma_auto on the mu table of oracle against teacher (computed
    here unless given); a number is read as a float. 'eta_as_gamma' names a
    sweep axis, so it raises ValueError here, as any other word does."""
    gamma = _gamma_setting(gamma)
    if gamma == "eta_as_gamma":
        raise ValueError("gamma 'eta_as_gamma' applies to a sweep only")
    if gamma != "auto":
        return gamma
    if mu is None:
        mu = mu_table(oracle, teacher.link, teacher.noise, teacher.d)
    return gamma_auto(oracle, mu, teacher.d)


def spec_from_config(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from merged config values."""
    merged = resolve(cfg)
    base = run_config(
        merged,
        teacher_spec(merged),
        oracle_spec(merged),
        n=max(merged["n_min"], merged["batch"]),
        seed=merged["master_seed"],
    )
    lo, hi = merged["window_min"], merged["window_max"]
    if (lo is None) != (hi is None):
        raise ValueError("window_min and window_max must be given together")
    if lo is not None and not lo <= hi:  # also true for nan
        raise ValueError(f"need window_min <= window_max, got ({lo}, {hi})")
    return SweepSpec(
        base=base,
        eta_grid=log_grid(merged["eta_count"], merged["eta_min"], merged["eta_max"]),
        n_grid=int_log_grid(merged["n_count"], merged["n_min"], merged["n_max"]),
        replicates=merged["replicates"],
        jobs=merged["jobs"],
        gamma_mode=_gamma_setting(merged["gamma"]),
    )
