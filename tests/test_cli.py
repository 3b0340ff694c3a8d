import csv
import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from silab import cli, harness
from silab.cli import build_parser, main, parse_poly
from silab.dynamics import RunConfig
from silab.harness import CONFIG
from silab.hermite import hermite_poly
from silab.model import NoiseSpec, SeedTree, TeacherSpec
from silab.oracles import OracleSpec, mu_table
from silab.theory import gamma_auto


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsePoly:
    def test_hermite_shorthand(self):
        assert parse_poly("He3") == hermite_poly(3)
        assert parse_poly("he2") == hermite_poly(2)

    def test_monomial_shorthand(self):
        assert parse_poly("z^2").coeffs == (0.0, 0.0, 1.0)
        assert parse_poly("z3").coeffs == (0.0, 0.0, 0.0, 1.0)
        assert parse_poly("z").coeffs == (0.0, 1.0)

    def test_raw_coefficients(self):
        assert parse_poly("0,-3,0,1") == hermite_poly(3)
        assert parse_poly("1 2 3").coeffs == (1.0, 2.0, 3.0)


class TestHermiteCommand:
    def test_exponent_report_output(self, capsys):
        code, out, _ = run_cli(capsys, "hermite", "--link", "He3", "--powers", "2")
        assert code == 0
        assert "ie=3" in out and "ge_upper_bound=2" in out and "witness_power=2" in out
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        table = list(csv.reader(rows))
        assert table[0] == ["power", "k", "u_k"]
        by_key = {(r[0], r[1]): float(r[2]) for r in table[1:]}
        assert by_key[("1", "3")] == 6.0
        assert by_key[("2", "2")] == 36.0


class TestGenDataCommand:
    def test_csv_shape_and_labels(self, capsys):
        code, out, _ = run_cli(capsys, "gen-data", "--link", "He3", "--d", "4",
                               "--n", "5", "--seed", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x_1", "x_2", "x_3", "x_4", "y"]
        assert len(rows) == 6
        for row in rows[1:]:
            x = [float(v) for v in row[:4]]
            z = x[0]
            assert float(row[4]) == pytest.approx(z**3 - 3 * z, rel=1e-9)

    def test_negative_n_exits_1_naming_the_count(self, capsys):
        code, out, err = run_cli(capsys, "gen-data", "--link", "He3", "--d", "4", "--n", "-2")
        assert code == 1
        assert out == ""
        assert "error: sample count must be nonnegative, got -2" in err

    def test_zero_n_prints_only_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "gen-data", "--link", "He3", "--d", "4", "--n", "0")
        assert code == 0
        assert out.splitlines() == ["x_1,x_2,x_3,x_4,y"]


class TestMuCommand:
    def test_table_and_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "mu", "--oracle", "alternating", "--link", "He3",
                               "--act", "He3", "--eta", "0.1", "--d", "50")
        assert code == 0
        assert "sign_assumption=pass" in out
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        table = {int(r[0]): (float(r[1]), int(r[2])) for r in csv.reader(rows[1:])}
        assert table[2][0] == pytest.approx(64.8)
        assert table[3][0] == pytest.approx(36.0)
        assert sum(flag for _, flag in table.values()) >= 1


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--oracle", "online", "--link", "He1", "--act", "He1",
            "--d", "10", "--gamma", "0.1", "--n", "2000", "--batch", "10",
            "--record-every", "20", "--seed", "4",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["step", "samples_seen", "kappa"]
        assert int(rows[-1][1]) == 2000
        assert "weak_step=" in err and "diverged=0" in err

    def test_audit_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--oracle", "online", "--link", "He3", "--act", "He3",
            "--d", "10", "--gamma", "0.01", "--n", "640", "--batch", "32", "--audit",
        )
        assert code == 0
        assert "violations=0" in err

    def test_unwritable_out_exits_1_before_the_run(self, capsys, tmp_path, monkeypatch):
        configs = _spy(monkeypatch, cli, "run")
        target = tmp_path / "no-such-dir" / "traj.csv"
        code, out, err = run_cli(capsys, "simulate", *MINIMAL["simulate"], "--gamma", "0.01",
                                 "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert configs == []


class TestPredictCommand:
    def test_prediction_table(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--oracle", "online", "--link", "He3",
                               "--act", "He3", "--d", "50")
        assert code == 0
        assert "dominant_i=3" in out
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        table = {int(r[0]): float(r[1]) for r in csv.reader(rows[1:])}
        # gamma_auto = d^-1.5, T = gamma^-1 mu_3^-1 sqrt(d) = d^2 / 36
        assert table[3] == pytest.approx(50**2 / 36.0)


class TestPhaseCommand:
    def test_boundary_row(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--oracle", "alternating", "--link", "He3",
                               "--act", "He3", "--d", "50")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["i", "j", "eta_star", "exponent_if_known"]
        b23 = [r for r in rows[1:] if r[0] == "2" and r[1] == "3"]
        assert len(b23) == 1
        assert float(b23[0][2]) == pytest.approx(36 / (648 * math.sqrt(50)), rel=1e-6)
        assert float(b23[0][3]) == pytest.approx(-0.5)


class TestSweepCommand:
    def test_config_file_run(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "oracle = alternating\nlink = He3\nact = He3\nd = 10\n"
            "eta_min = 0.05\neta_max = 0.5\neta_count = 2\n"
            "n_min = 64\nn_max = 256\nn_count = 2\n"
            "replicates = 1\nbatch = 32\nmaster_seed = 9\n"
            f"out = {tmp_path}/results\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "results" / "cells.csv").exists()
        assert (tmp_path / "results" / "grid.plotdata").exists()

    def test_bad_config_exits_nonzero(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err


# Online He1 at a fixed gamma: every eta recovers at the smallest n, so all
# grid points of the window are recovering.
QUICK_SWEEP = (
    "sweep", "--oracle", "online", "--link", "He1", "--act", "He1",
    "--gamma", "0.1", "--n-min", "512", "--n-max", "512", "--n-count", "1",
    "--replicates", "1", "--batch", "32", "--window-min", "1e-3", "--window-max", "1",
    "--d", "10",
)


@pytest.fixture
def captured_specs(monkeypatch):
    """SweepSpecs handed to sweep() by the CLI, in call order."""
    specs = []
    real = cli.sweep

    def spy(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "sweep", spy)
    return specs


class TestSweepFlags:
    def test_every_config_key_has_a_flag(self):
        assert len(CONFIG) == 27
        parser = build_parser()
        for key, (typ, _) in CONFIG.items():
            flag = "--" + key.replace("_", "-")
            args = parser.parse_args(["sweep", flag] + ([] if typ is bool else ["1"]))
            assert getattr(args, key) == (True if typ is bool else typ("1")), key

    def test_flag_overrides_config_file(self, capsys, tmp_path, captured_specs):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("d = 10\n")
        code, _, _ = run_cli(capsys, *QUICK_SWEEP[:-2], "--config", str(cfg), "--d", "12",
                             "--eta-count", "1", "--out", str(tmp_path))
        assert code == 0
        assert captured_specs[0].base.teacher.d == 12

    def test_mean_mode_sets_use_mean(self, capsys, tmp_path, captured_specs):
        code, _, _ = run_cli(capsys, *QUICK_SWEEP, "--eta-count", "1", "--mean-mode",
                             "--out", str(tmp_path))
        assert code == 0
        assert captured_specs[0].use_mean

    def test_bad_oracle_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--oracle", "bogus", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in err and "unknown oracle kind" in err

    def test_bad_init_exits_1_before_any_cell(self, capsys, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "run", lambda cfg: cells.append(cfg))
        code, _, err = run_cli(capsys, *QUICK_SWEEP, "--init", "bogus", "--out", str(tmp_path))
        assert code == 1
        assert "error: unknown init mode" in err
        assert cells == []

    @pytest.mark.parametrize("flags, message", [
        (("--neurons", "0"), "error: need at least one neuron"),
        (("--d", "1"), "error: need dimension at least 2"),
        (("--jobs", "-2"), "error: jobs must be a positive integer"),
    ])
    def test_bad_shape_exits_1_before_any_gamma(self, capsys, tmp_path, monkeypatch,
                                                flags, message):
        gammas = []
        monkeypatch.setattr(harness, "_cell_gamma", lambda spec, eta: gammas.append(eta))
        code, _, err = run_cli(capsys, *QUICK_SWEEP, *flags, "--out", str(tmp_path))
        assert code == 1
        assert message in err
        assert gammas == []

    def test_slope_printed(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *QUICK_SWEEP, "--eta-count", "4", "--out", str(tmp_path))
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("# slope="))
        slope = float(line.split()[1].split("=")[1])
        assert abs(slope) < 1e-9  # n* is the same at every eta

    def test_slope_unavailable_below_four_points(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *QUICK_SWEEP, "--eta-count", "3", "--out", str(tmp_path))
        assert code == 0
        assert any(l.startswith("# slope=unavailable") for l in out.splitlines())


class TestNegativeHermiteIndex:
    def test_parse_poly_rejects(self):
        with pytest.raises(ValueError, match="Hermite index must be nonnegative"):
            parse_poly("He-1")

    def test_mu_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "mu", "--oracle", "alternating", "--link", "He-1",
                                 "--act", "He3", "--d", "50")
        assert code == 1
        assert out == ""
        assert "error: Hermite index must be nonnegative" in err


# Required flags of each subcommand; every other CONFIG-backed flag is left
# out, so it must take CONFIG's default.
MINIMAL = {
    "hermite": ("--link", "He3", "--powers", "2"),
    "gen-data": ("--link", "He3", "--d", "4", "--n", "3"),
    "mu": ("--oracle", "alternating", "--link", "He3", "--act", "He3", "--d", "20"),
    "simulate": ("--oracle", "alternating", "--link", "He3", "--act", "He3", "--d", "10",
                 "--n", "256"),
    "sweep": (),
    "predict": ("--oracle", "alternating", "--link", "He3", "--act", "He3", "--d", "20"),
    "phase": ("--oracle", "alternating", "--link", "He3", "--act", "He3", "--d", "20"),
}


def _spy(monkeypatch, module, name):
    """Record the arguments of every call of module.name, then make the call."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestConfigDefaults:
    @pytest.mark.parametrize("command", list(MINIMAL))
    def test_omitted_flags_resolve_to_config_defaults(self, command):
        argv = MINIMAL[command]
        args = build_parser().parse_args([command, *argv])
        given = {a.lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
        omitted = [k for k in vars(args) if k in CONFIG and k not in given]
        assert omitted or command == "hermite"
        for key in omitted:
            assert getattr(args, key) is None, key
        cfg = cli._config(args)
        assert set(cfg) == set(CONFIG)
        for key in omitted:
            assert cfg[key] == CONFIG[key][1], (command, key)

    def test_simulate_builds_defaults(self, capsys, monkeypatch):
        configs = _spy(monkeypatch, cli, "run")
        code, _, _ = run_cli(capsys, "simulate", *MINIMAL["simulate"])
        assert code == 0
        (config,), _ = configs[0]
        defaults = {key: default for key, (_, default) in CONFIG.items()}
        assert config.batch_size == defaults["batch"]
        assert config.n_neurons == defaults["neurons"]
        assert config.init_mode == defaults["init"]
        assert config.weak_threshold == defaults["threshold"]
        assert config.strong_eps == defaults["strong_eps"]
        assert config.record_every == defaults["record_every"]
        assert config.oracle.depth == defaults["depth"]
        assert config.teacher.noise == NoiseSpec(defaults["noise"], defaults["tau"])
        assert defaults["gamma"] == "auto"
        spec = replace(config.oracle, gamma=0.0)
        mu = mu_table(spec, config.teacher.link, config.teacher.noise, 10)
        assert config.oracle.gamma == gamma_auto(spec, mu, 10)

    @pytest.mark.parametrize("command", ["mu", "predict"])
    def test_mu_and_predict_build_defaults(self, capsys, monkeypatch, command):
        tables = _spy(monkeypatch, cli, "mu_table")
        code, out, _ = run_cli(capsys, command, *MINIMAL[command])
        assert code == 0
        (spec, link, noise, d), _ = tables[0]
        assert spec.depth == CONFIG["depth"][1]
        assert noise == NoiseSpec(CONFIG["noise"][1], CONFIG["tau"][1])
        if command == "predict":  # gamma 'auto'
            gamma = gamma_auto(spec, mu_table(spec, link, noise, d), d)
            assert f"gamma={gamma:.12g} " in out

    def test_phase_builds_defaults(self, capsys, monkeypatch):
        scans = _spy(monkeypatch, cli, "phase_boundaries")
        code, _, _ = run_cli(capsys, "phase", *MINIMAL["phase"])
        assert code == 0
        (_, d, eta_range), kwargs = scans[0]
        assert eta_range == (CONFIG["eta_min"][1], CONFIG["eta_max"][1])
        assert kwargs["spec"].depth == CONFIG["depth"][1]
        assert kwargs["spec"].eta == 0.0

    def test_simulate_out_is_not_the_sweep_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", *MINIMAL["simulate"], "--gamma", "0.01")
        assert code == 0
        assert out.startswith("step,samples_seen,kappa")
        assert "weak_step=" in err
        assert list(tmp_path.iterdir()) == []


class TestSimulateRunConfig:
    def test_equals_hand_built_config(self, capsys, monkeypatch, tmp_path):
        configs = _spy(monkeypatch, cli, "run")
        code, _, _ = run_cli(
            capsys, "simulate", "--oracle", "deep_alternating", "--link", "He3", "--act", "He3",
            "--d", "12", "--eta", "0.3", "--gamma", "0.02", "--n", "600", "--batch", "16",
            "--neurons", "2", "--seed", "2", "--record-every", "5", "--threshold", "0.4",
            "--strong-eps", "0.2", "--init", "uniform_sphere", "--depth", "3", "--audit",
            "--noise", "gaussian", "--tau", "0.3", "--out", str(tmp_path / "traj.csv"),
        )
        assert code == 0
        (got,), _ = configs[0]
        want = RunConfig(
            teacher=TeacherSpec(d=12, link=hermite_poly(3), noise=NoiseSpec("gaussian", 0.3)),
            oracle=OracleSpec(kind="deep_alternating", activation=hermite_poly(3), eta=0.3,
                              gamma=0.02, depth=3),
            n=600,
            seed=SeedTree(2),
            batch_size=16,
            n_neurons=2,
            init_mode="uniform_sphere",
            weak_threshold=0.4,
            strong_eps=0.2,
            record_every=5,
            audit=True,
        )
        for f in fields(RunConfig):
            if f.name != "teacher":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert (got.teacher.d, got.teacher.link, got.teacher.noise) == (
            want.teacher.d, want.teacher.link, want.teacher.noise)
        np.testing.assert_array_equal(got.teacher.theta_star, want.teacher.theta_star)


BAD_VALUES = [  # (command, flag, message)
    *[(c, "--oracle", "unknown oracle kind 'bogus'")
      for c in ("mu", "simulate", "predict", "phase")],
    *[(c, "--noise", "unknown noise family 'bogus'")
      for c in ("gen-data", "mu", "simulate", "predict", "phase")],
    ("simulate", "--init", "unknown init mode 'bogus'"),
]


class TestBadValuesExit1:
    @pytest.mark.parametrize("command, flag, message", BAD_VALUES,
                             ids=[f"{c}{f}" for c, f, _ in BAD_VALUES])
    def test_spec_error(self, capsys, command, flag, message):
        code, out, err = run_cli(capsys, command, *MINIMAL[command], flag, "bogus")
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err
