import math
import os

import numpy as np
import pytest

from silab import (
    NoiseSpec,
    OracleSpec,
    RunConfig,
    SeedTree,
    TeacherSpec,
    emit,
    fit_boundary_slope,
    hermite_poly,
    int_log_grid,
    knee_eta,
    log_grid,
    sweep,
)
from silab.harness import (
    Cell,
    SweepResult,
    SweepSpec,
    parse_config,
    spec_from_config,
    summarize,
)

HE3 = hermite_poly(3)


def tiny_spec(jobs=1, replicates=2, kind="alternating", seed=0):
    base = RunConfig(
        teacher=TeacherSpec(d=10, link=HE3),
        oracle=OracleSpec(kind=kind, activation=HE3),
        n=64,
        seed=SeedTree(seed),
        batch_size=32,
        record_every=10,
    )
    return SweepSpec(
        base=base,
        eta_grid=log_grid(3, 0.01, 1.0),
        n_grid=int_log_grid(3, 64, 1024),
        replicates=replicates,
        jobs=jobs,
    )


def synthetic_result(etas, n_stars):
    spec = tiny_spec()
    return SweepResult(spec=spec, gammas=(), cells=(),
                       summary=tuple(zip(etas, n_stars)), slope_fit=None)


class TestGrids:
    def test_log_grid_endpoints(self):
        g = log_grid(5, 0.1, 10.0)
        assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(10.0)
        assert len(g) == 5

    def test_int_grid_strictly_increasing(self):
        g = int_log_grid(30, 10, 100)
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            log_grid(0, 1.0, 2.0)


class TestSweep:
    def test_cell_count_and_order(self):
        spec = tiny_spec()
        res = sweep(spec)
        assert len(res.cells) == 3 * 3 * 2
        keys = [(c.eta_index, c.n_index, c.replicate) for c in res.cells]
        assert keys == sorted(keys)

    def test_deterministic_across_jobs(self):
        serial = sweep(tiny_spec(jobs=1))
        parallel = sweep(tiny_spec(jobs=2))
        assert serial.cells == parallel.cells
        assert serial.summary == parallel.summary

    def test_recovered_flag_semantics(self):
        res = sweep(tiny_spec())
        for c in res.cells:
            expected = int(not c.diverged and c.final_alignment >= 0.5)
            assert c.recovered == expected

    def test_diverged_cell_never_recovered(self, tmp_path):
        spec = tiny_spec(replicates=6)
        spec.eta_grid = (1.0,)
        spec.n_grid = (64, 1024)
        spec.gamma_mode = 1e9
        res = sweep(spec)
        diverged = [c for c in res.cells if c.diverged]
        # the rule is exercised: a diverged run ends above the threshold
        assert any(c.final_alignment >= 0.5 for c in diverged)
        assert all(c.recovered == 0 for c in diverged)
        assert res.summary == ((1.0, None),)
        emit(res, str(tmp_path), formats=("plotdata",))
        with open(tmp_path / "grid.plotdata") as fh:
            assert fh.read().splitlines()[1] == "1 0 0"

    def test_summary_recomputable_from_cells(self):
        spec = tiny_spec()
        res = sweep(spec)
        assert summarize(spec, res.cells) == res.summary

    def test_samples_seen_is_full_pass(self):
        res = sweep(tiny_spec())
        for c in res.cells:
            assert c.samples_seen == (c.n // 32) * 32

    def test_gamma_override(self):
        spec = tiny_spec()
        spec.gamma_mode = 0.123
        res = sweep(spec)
        assert all(g == 0.123 for g in res.gammas)

    def test_single_cell(self):
        spec = tiny_spec(replicates=1)
        spec.eta_grid = (0.1,)
        spec.n_grid = (64,)
        res = sweep(spec)
        assert len(res.cells) == 1

    def test_online_gamma_grid_sample_complexity_decreases(self):
        # step-size sweep for the eta-free oracle: larger stable gamma needs
        # fewer samples
        base = RunConfig(
            teacher=TeacherSpec(d=25, link=HE3),
            oracle=OracleSpec(kind="online", activation=HE3),
            n=128,
            seed=SeedTree(3),
            batch_size=128,
            record_every=10,
        )
        spec = SweepSpec(
            base=base,
            eta_grid=(0.002, 0.008, 0.032),
            n_grid=int_log_grid(10, 128, 200_000),
            replicates=3,
            gamma_mode="eta_as_gamma",
        )
        res = sweep(spec)
        assert res.gammas == spec.eta_grid
        n_stars = [n for _, n in res.summary]
        assert None not in n_stars
        assert n_stars[-1] < n_stars[0] / 2


class TestBoundaryFit:
    def test_exact_power_law(self):
        etas = log_grid(12, 0.01, 1.0)
        ns = [int(round(100 / e**2)) for e in etas]
        res = synthetic_result(etas, ns)
        slope, stderr = fit_boundary_slope(res, (0.01, 1.0))
        assert slope == pytest.approx(-2.0, abs=2e-3)  # integer rounding only
        assert stderr < 2e-3

    def test_flat_has_zero_slope(self):
        etas = log_grid(10, 0.01, 1.0)
        res = synthetic_result(etas, [500] * 10)
        slope, _ = fit_boundary_slope(res, (0.01, 1.0))
        assert abs(slope) < 1e-9

    def test_too_few_points_names_window(self):
        etas = log_grid(10, 0.01, 1.0)
        ns = [None] * 8 + [100, 100]
        res = synthetic_result(etas, ns)
        with pytest.raises(ValueError, match=r"\[0.01, 0.1\]"):
            fit_boundary_slope(res, (0.01, 0.1))


class TestKnee:
    def test_flat_then_decay(self):
        etas = log_grid(30, 1e-3, 1.0)
        knee_true = 0.05
        ns = [1000 if e < knee_true else max(int(1000 * (knee_true / e) ** 2), 10)
              for e in etas]
        res = synthetic_result(etas, ns)
        got = knee_eta(res)
        assert got is not None
        assert knee_true / 2 <= got <= 3 * knee_true

    def test_flat_only_returns_none(self):
        etas = log_grid(20, 1e-3, 1.0)
        res = synthetic_result(etas, [700] * 20)
        assert knee_eta(res) is None


class TestEmit:
    def test_csv_and_plotdata(self, tmp_path):
        spec = tiny_spec()
        res = sweep(spec)
        paths = emit(res, str(tmp_path))
        cells_csv = os.path.join(tmp_path, "cells.csv")
        with open(cells_csv) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "eta,n,replicate,seed,final_alignment,recovered,samples_seen,diverged"
        assert len(lines) == 1 + len(res.cells)
        with open(os.path.join(tmp_path, "grid.plotdata")) as fh:
            grid_lines = fh.read().strip().splitlines()
        assert len(grid_lines) == 1 + len(spec.eta_grid)
        assert len(grid_lines[1].split()) == 1 + len(spec.n_grid)
        assert os.path.exists(os.path.join(tmp_path, "phase.csv"))
        assert os.path.exists(os.path.join(tmp_path, "summary.csv"))
        assert len(paths) == 4

    def test_empty_recovery_still_writes_sidecar(self, tmp_path):
        spec = tiny_spec(kind="online")
        spec.base.oracle.gamma = 0.0
        spec.gamma_mode = 0.0
        res = sweep(spec)
        assert all(c.recovered == 0 for c in res.cells)
        emit(res, str(tmp_path))
        with open(os.path.join(tmp_path, "grid.plotdata")) as fh:
            body = fh.read().splitlines()[1:]
        assert all(set(row.split()[1:]) == {"0"} for row in body)
        assert os.path.exists(os.path.join(tmp_path, "phase.csv"))


class TestConfig:
    def test_round_trip(self):
        text = """
        # figure-one style sweep
        oracle = alternating
        link = He3
        act = He3
        d = 10
        eta_min = 0.01
        eta_max = 1.0
        eta_count = 3
        n_min = 64
        n_max = 1024
        n_count = 3
        replicates = 2
        batch = 32
        master_seed = 5
        gamma = auto
        mean_mode = true
        """
        cfg = parse_config(text)
        assert cfg["oracle"] == "alternating"
        assert cfg["mean_mode"] is True
        from silab.cli import parse_poly

        spec = spec_from_config(cfg, parse_poly)
        assert spec.base.teacher.d == 10
        assert spec.replicates == 2
        assert spec.use_mean
        assert len(spec.eta_grid) == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just some words")
