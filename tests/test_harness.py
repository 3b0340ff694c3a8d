import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

import silab
from silab import dynamics, harness
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
from silab.dynamics import recovers, weak_recovery_sample_size
from silab.harness import (
    SweepResult,
    SweepSpec,
    parse_config,
    spec_from_config,
    summarize,
)

HE2 = hermite_poly(2)
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
    return SweepResult(spec=spec, gammas=(), cells=(), summary=tuple(zip(etas, n_stars)))


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

    @pytest.mark.parametrize("lo, hi", [(1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0),
                                        (0.0, 1.0), (2.0, 1.0)])
    def test_bounds_must_be_finite_positive_and_ordered(self, lo, hi, recwarn):
        with pytest.raises(ValueError, match="0 < lo <= hi < inf"):
            log_grid(3, lo, hi)
        assert not recwarn.list  # rejected before np.geomspace runs


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

    def test_import_leaves_the_process_pool_out(self):
        """Only jobs > 1 needs the pool, which loads multiprocessing."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(silab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, silab; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_sweep_leaves_numpy_ma_out(self, tmp_path):
        """The sweep's medians are statistics.median, so a sweep process
        never loads numpy.ma, which np.median imports on first use."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(silab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [
            "sweep", "--oracle", "alternating", "--link", "He3", "--act", "He3",
            "--d", "10", "--eta-min", "0.05", "--eta-max", "0.5", "--eta-count", "2",
            "--n-min", "64", "--n-max", "256", "--n-count", "2", "--replicates", "3",
            "--batch", "32", "--master-seed", "9", "--out", str(tmp_path / "sweep"),
        ]
        code = (
            "import sys; from silab import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "False"  # after the paths the sweep prints
        assert (tmp_path / "sweep" / "cells.csv").stat().st_size > 0

    def test_recovered_flag_semantics(self):
        res = sweep(tiny_spec())
        for c in res.cells:
            expected = int(not c.diverged and c.final_alignment >= 0.5)
            assert c.recovered == expected

    def test_diverged_cell_never_recovered(self, tmp_path):
        spec = tiny_spec(replicates=6)
        spec = replace(spec, eta_grid=(1.0,), n_grid=(64, 1024), gamma_mode=1e9)
        res = sweep(spec)
        diverged = [c for c in res.cells if c.diverged]
        # the rule is exercised: a diverged run ends above the threshold
        assert any(c.final_alignment >= 0.5 for c in diverged)
        assert all(c.recovered == 0 for c in diverged)
        assert res.summary == ((1.0, None),)
        emit(res, str(tmp_path))
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
        spec = replace(spec, gamma_mode=0.123)
        res = sweep(spec)
        assert all(g == 0.123 for g in res.gammas)

    def test_single_cell(self):
        spec = tiny_spec(replicates=1)
        spec = replace(spec, eta_grid=(0.1,), n_grid=(64,))
        res = sweep(spec)
        assert len(res.cells) == 1

    def test_online_gamma_grid_sample_complexity_decreases(self):
        # a step-size sweep for the eta-free oracle (its step reads no eta),
        # one sweep per gamma: a larger stable gamma needs fewer samples
        base = RunConfig(
            teacher=TeacherSpec(d=25, link=HE3),
            oracle=OracleSpec(kind="online", activation=HE3),
            n=128,
            seed=SeedTree(3),
            batch_size=128,
            record_every=10,
        )
        n_stars = []
        for gamma in (0.002, 0.008, 0.032):
            spec = SweepSpec(base=base, eta_grid=(1.0,), n_grid=int_log_grid(10, 128, 200_000),
                             replicates=3, gamma_mode=gamma)
            res = sweep(spec)
            assert res.gammas == (gamma,)
            n_stars.append(res.summary[0][1])
        assert None not in n_stars
        assert n_stars[-1] < n_stars[0] / 2

    def test_replicate_median_has_numpy_bits(self):
        """statistics.median takes the middle value, or (a + b) / 2 of the two
        middle ones, as np.median does, so recovers judges a group as
        np.median does at its median and at the floats on either side."""
        rng = np.random.default_rng(5)
        for count in (1, 2, 3, 4, 7):
            vals = [float(v) for v in rng.uniform(-1.0, 1.0, count)]
            med = np.median(vals)
            for t in (np.nextafter(med, -np.inf), med, np.nextafter(med, np.inf)):
                assert recovers(vals, float(t)) == (med >= t)


class TestOneGroupRule:
    @pytest.mark.parametrize("verdict", [True, False])
    def test_summary_grid_and_search_follow_recovers(self, monkeypatch, tmp_path, verdict):
        """The summary, the plot grid and the sample-size search judge every
        group of replicates by dynamics.recovers and by nothing else."""
        calls = []

        def rule(alignments, threshold):
            calls.append((len(alignments), threshold))
            return verdict

        monkeypatch.setattr(dynamics, "recovers", rule)
        monkeypatch.setattr(harness, "recovers", rule)
        spec = tiny_spec(replicates=2)
        spec = replace(spec, eta_grid=(0.01, 0.1), n_grid=(64, 128))
        result = sweep(spec)
        # each of the 8 cells is a group of one
        assert calls[:8] == [(1, 0.5)] * 8
        assert [c.recovered for c in result.cells] == [int(verdict)] * 8
        emit(result, str(tmp_path))
        n_star = "64" if verdict else ""
        assert (tmp_path / "summary.csv").read_text() == (
            f"eta,n_star\n0.01,{n_star}\n0.1,{n_star}\n")
        flags = f"{int(verdict)} {int(verdict)}"
        assert (tmp_path / "grid.plotdata").read_text() == (
            f"eta 64 128\n0.01 {flags}\n0.1 {flags}\n")
        assert set(calls[8:]) == {(2, 0.5)}
        calls.clear()
        found = weak_recovery_sample_size(spec.base, [64, 128], replicates=3)
        assert found == (64 if verdict else None)
        assert set(calls) == {(3, 0.5)}

    @pytest.mark.parametrize("diverged", [False, True])
    def test_cell_flag_is_recovers_on_one_run(self, monkeypatch, diverged):
        """_run_cell judges its run with recovers on the one-element group
        of the run's recovery alignment."""
        calls = []

        def rule(alignments, threshold):
            calls.append((list(alignments), threshold))
            return True

        traj = SimpleNamespace(final_alignment=0.25, diverged=diverged, total_samples=64)
        monkeypatch.setattr(harness, "run", lambda cfg: traj)
        monkeypatch.setattr(harness, "recovers", rule)
        base = tiny_spec().base
        cell = harness._run_cell((0, 0, 0, 0.01, base))
        assert calls == [([-1.0 if diverged else 0.25], base.weak_threshold)]
        assert cell.recovered == 1


class TestRows:
    def test_each_row_runs_one_oracle_and_each_cell_its_seed(self, monkeypatch):
        """Every cell of an eta row runs the row's OracleSpec object, with the
        seed path (eta index, n index, replicate)."""
        configs = []
        real_run = harness.run

        def spy(cfg):
            configs.append(cfg)
            return real_run(cfg)

        monkeypatch.setattr(harness, "run", spy)
        spec = tiny_spec()
        res = sweep(spec)
        assert len(configs) == len(res.cells)
        rows = {}
        for cfg, c in zip(configs, res.cells):
            assert cfg.seed == spec.base.seed.child(c.eta_index, c.n_index, c.replicate)
            assert cfg.n == c.n
            assert rows.setdefault(c.eta_index, cfg.oracle) is cfg.oracle
        for ei, eta in enumerate(spec.eta_grid):
            assert rows[ei] == replace(spec.base.oracle, eta=eta, gamma=res.gammas[ei])


BAD_GAMMAS = [  # (value, message)
    *[(v, f"gamma must be 'auto' or a number, got {v!r}")
      for v in (True, False, np.True_, None, "abc", "eta_as_gamma", [0.1])],
    *[(v, f"gamma must be finite and >= 0, got {v!r}")
      for v in (math.nan, math.inf, -math.inf, -1.0, -1, "nan", "inf", "-1", "1e400")],
]


class TestGammaSetting:
    @pytest.mark.parametrize("text", ["abc", "", "Auto", "eta as gamma", "eta_as_gamma"])
    def test_bad_setting_names_gamma(self, text):
        with pytest.raises(ValueError) as err:
            spec_from_config({"gamma": text})
        assert str(err.value) == f"gamma must be 'auto' or a number, got {text!r}"

    def test_bad_config_line_names_gamma(self):
        with pytest.raises(ValueError, match="^gamma must be"):
            spec_from_config(parse_config("gamma = abc"))

    @pytest.mark.parametrize("text, mode", [
        ("auto", "auto"), ("0.25", 0.25), ("1e-3", 1e-3), ("0", 0.0),
    ])
    def test_accepted_settings(self, text, mode):
        assert spec_from_config({"gamma": text}).gamma_mode == mode

    @pytest.mark.parametrize("value", [0.25, "0.25", 1, np.float64(0.25), np.int64(1)])
    def test_spec_holds_a_float(self, value):
        mode = replace(tiny_spec(), gamma_mode=value).gamma_mode
        assert type(mode) is float and mode == float(value)

    @pytest.mark.parametrize("value, message", BAD_GAMMAS, ids=[repr(v) for v, _ in BAD_GAMMAS])
    def test_refused_where_it_enters(self, value, message):
        """A bool is no number, and a number must be finite and >= 0: the
        spec and resolve_gamma refuse both, with the same message."""
        with pytest.raises(ValueError) as err:
            replace(tiny_spec(), gamma_mode=value)
        assert str(err.value) == message
        oracle = OracleSpec(kind="online", activation=HE3)
        with pytest.raises(ValueError) as err:
            harness.resolve_gamma(value, oracle, TeacherSpec(d=10, link=HE3))
        assert str(err.value) == message

    def test_resolve_gamma(self):
        oracle = OracleSpec(kind="online", activation=HE3)
        teacher = TeacherSpec(d=10, link=HE3)
        assert harness.resolve_gamma("0.25", oracle, teacher) == 0.25
        assert harness.resolve_gamma(0.25, oracle, teacher) == 0.25
        with pytest.raises(ValueError, match="^gamma must be"):
            harness.resolve_gamma("abc", oracle, teacher)


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

    @pytest.mark.parametrize("kind, act, link, etas", [
        ("online", HE3, HE3, (0.01, 1.0)),
        ("batch_reuse", HE2, HE2, (1e-3, 1e-2)),  # its within-index edge is 1/50
    ], ids=["online", "batch_reuse-He2"])
    def test_no_boundary_on_the_grid_writes_only_the_phase_header(
            self, tmp_path, kind, act, link, etas):
        spec = tiny_spec(replicates=1)
        base = replace(spec.base, teacher=TeacherSpec(d=50, link=link),
                       oracle=OracleSpec(kind=kind, activation=act))
        spec = replace(spec, base=base, eta_grid=log_grid(2, *etas), n_grid=(64,))
        emit(sweep(spec), str(tmp_path))
        with open(tmp_path / "phase.csv") as fh:
            assert fh.read() == "i,j,eta_star,exponent\n"

    def test_empty_recovery_still_writes_sidecar(self, tmp_path):
        spec = tiny_spec(kind="online")
        oracle = replace(spec.base.oracle, gamma=0.0)
        spec = replace(spec, base=replace(spec.base, oracle=oracle), gamma_mode=0.0)
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
        """
        cfg = parse_config(text)
        assert cfg["oracle"] == "alternating"
        assert cfg["gamma"] == "auto"
        spec = spec_from_config(cfg)
        assert spec.base.teacher.d == 10
        assert spec.replicates == 2
        assert spec.base.batch_size == 32
        assert spec.base.seed == SeedTree(5)
        assert len(spec.eta_grid) == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus = 1")

    @pytest.mark.parametrize("line", ["mean_mode = true", "strong_eps = 0.1",
                                      "init = pinned_alignment"])
    def test_removed_key_is_unknown(self, line):
        with pytest.raises(ValueError) as err:
            parse_config(line)
        assert str(err.value) == f"config line 1: unknown key {line.split()[0]!r}"

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            tiny_spec(jobs=jobs)

    @pytest.mark.parametrize("field, value", [
        ("replicates", 1.5), ("replicates", 2.0), ("replicates", True),
        ("jobs", 1.5), ("jobs", 1.0), ("jobs", np.float64(2)),
    ])
    def test_non_integer_count_rejected(self, field, value):
        # sweep() used to die with a TypeError from range or from the pool
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            tiny_spec(**{field: value})

    def test_spec_is_frozen(self):
        # an assignment used to skip every check of __post_init__
        spec = tiny_spec()
        with pytest.raises(FrozenInstanceError):
            spec.replicates = 0
        with pytest.raises(ValueError, match="at least one replicate"):
            replace(spec, replicates=0)
        assert replace(spec, replicates=3).replicates == 3

    @pytest.mark.parametrize("key", ["window_min", "window_max"])
    def test_lone_window_bound_rejected(self, key):
        with pytest.raises(ValueError, match="must be given together"):
            spec_from_config({key: 0.1})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just some words")

    @pytest.mark.parametrize("line, key, value", [
        ("d = 50.0", "d", "50.0"),
        ("replicates = ten", "replicates", "ten"),
        ("tau = x", "tau", "x"),
    ])
    def test_bad_value_names_line_and_key(self, line, key, value):
        text = f"# header\noracle = online\n{line}\n"
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == f"config line 3: bad value {value!r} for {key}"

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.1), (math.nan, 0.1), (0.1, math.nan)])
    def test_inverted_or_nan_window_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="window_min <= window_max"):
            spec_from_config({"window_min": lo, "window_max": hi})

    def test_one_point_window_accepted(self):
        spec_from_config({"window_min": 0.1, "window_max": 0.1})  # does not raise
