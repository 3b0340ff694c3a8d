import csv
import io
import math
import re
import warnings
from dataclasses import replace

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

    @pytest.mark.parametrize("text", ["", "  ", "z^", "1,,2", ",1", "1,", "He", "z^^2", "x3",
                                      "nan", "1,inf", "1e400"])
    def test_rejects_malformed_text(self, text):
        with pytest.raises(ValueError, match=re.escape(f"cannot read polynomial {text!r}")):
            parse_poly(text)

    def test_malformed_link_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "mu", "--oracle", "alternating", "--link", "z^",
                                 "--act", "He3", "--d", "50")
        assert code == 1
        assert out == ""
        assert "error: cannot read polynomial 'z^'" in err


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

    @pytest.mark.parametrize("argv", [
        # mu = (0, 0, 36, 360) at d = 100: T_3 = T_4 at every eta
        ("--oracle", "online", "--link", "3.75,-3,-7.5,1,1.25", "--act", "1.5,-3,-3,1,0.5",
         "--d", "100"),
        # the within-index boundaries at d**0 = 1 and d**-1 = 0.02 lie outside
        ("--oracle", "alternating", "--link", "He2", "--act", "He2", "--d", "50",
         "--eta-min", "1e-6", "--eta-max", "1e-3"),
        ("--oracle", "batch_reuse", "--link", "He2", "--act", "He2", "--d", "50",
         "--eta-min", "1", "--eta-max", "10"),
    ], ids=["online-tie", "alternating-He2-below", "batch_reuse-He2-above"])
    def test_no_boundary_prints_only_the_header(self, capsys, argv):
        code, out, _ = run_cli(capsys, "phase", *argv)
        assert code == 0
        assert out == "i,j,eta_star,exponent_if_known\n"


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

    @pytest.mark.parametrize("line", ["mean_mode = true", "strong_eps = 0.2",
                                      "init = pinned_alignment"])
    def test_removed_key_in_config_exits_1_before_any_cell(self, capsys, tmp_path, monkeypatch,
                                                           line):
        cells = []
        monkeypatch.setattr(harness, "run", lambda cfg: cells.append(cfg))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\nd = 10\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        key = line.split()[0]
        assert err == f"error: config line 1: unknown key {key!r}\n"
        assert cells == []

    def test_inverted_window_exits_1_before_any_cell(self, capsys, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "run", lambda cfg: cells.append(cfg))
        # the later flags override QUICK_SWEEP's window
        code, _, err = run_cli(capsys, *QUICK_SWEEP, "--window-min", "0.5", "--window-max", "0.01",
                               "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: need window_min <= window_max")
        assert cells == []


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
        assert len(CONFIG) == 24
        parser = build_parser()
        for key, (typ, _) in CONFIG.items():
            assert typ in (str, int, float), key
            args = parser.parse_args(["sweep", "--" + key.replace("_", "-"), "1"])
            assert getattr(args, key) == typ("1"), key

    @pytest.mark.parametrize("argv", [
        (*QUICK_SWEEP, "--mean-mode"),
        (*QUICK_SWEEP, "--strong-eps", "0.2"),
        ("simulate", "--oracle", "online", "--link", "He3", "--act", "He3", "--d", "10",
         "--n", "256", "--strong-eps", "0.2"),
        (*QUICK_SWEEP, "--init", "pinned_alignment"),
        ("simulate", "--oracle", "online", "--link", "He3", "--act", "He3", "--d", "10",
         "--n", "256", "--init", "pinned_alignment"),
    ], ids=["sweep-mean-mode", "sweep-strong-eps", "simulate-strong-eps", "sweep-init",
            "simulate-init"])
    def test_removed_flag_exits_2(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, capsys, tmp_path, captured_specs):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("d = 10\n")
        code, _, _ = run_cli(capsys, *QUICK_SWEEP[:-2], "--config", str(cfg), "--d", "12",
                             "--eta-count", "1", "--out", str(tmp_path))
        assert code == 0
        assert captured_specs[0].base.teacher.d == 12

    def test_bad_oracle_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--oracle", "bogus", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in err and "unknown oracle kind" in err

    @pytest.mark.parametrize("flags, message", [
        (("--neurons", "0"), "error: need at least one neuron"),
        (("--d", "1"), "error: need dimension at least 2"),
        (("--jobs", "-2"), "error: jobs must be a positive integer"),
    ])
    def test_bad_shape_exits_1_before_any_gamma(self, capsys, tmp_path, monkeypatch,
                                                flags, message):
        gammas = []
        monkeypatch.setattr(harness, "_row_oracle", lambda spec, eta: gammas.append(eta))
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
        assert config.weak_threshold == defaults["threshold"]
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
            "--depth", "3", "--audit",
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
            weak_threshold=0.4,
            record_every=5,
            audit=True,
        )
        assert got == want


DEEP_Z2 = ("--oracle", "deep_alternating", "--act", "z2", "--depth", "3")
BAD_VALUES = [  # (command, bad flags and values, message)
    *[(c, ("--oracle", "bogus"), "unknown oracle kind 'bogus'")
      for c in ("mu", "simulate", "predict", "phase")],
    *[(c, ("--noise", "bogus"), "unknown noise family 'bogus'")
      for c in ("gen-data", "mu", "simulate", "predict", "phase")],
    *[(c, ("--gamma", v), f"gamma must be finite and >= 0, got '{v}'")
      for c in ("simulate", "predict", "sweep") for v in ("-1", "nan", "inf")],
    ("mu", ("--eta", "nan"), "eta and gamma must be finite, got eta=nan, gamma=0.0"),
    ("mu", ("--eta", "inf"), "eta and gamma must be finite, got eta=inf, gamma=0.0"),
    ("gen-data", ("--noise", "gaussian", "--tau", "nan"), "noise scale must be finite, got nan"),
    ("phase", ("--eta-max", "inf"), "eta_range must satisfy 0 < lo < hi < inf, got (0.001, inf)"),
    ("hermite", ("--tol", "nan"), "tolerance must be finite and positive, got nan"),
    ("sweep", ("--eta-max", "inf"),
     "need count >= 1 and 0 < lo <= hi < inf, got count=50, lo=0.001, hi=inf"),
    # an eta whose y^k scale overflows, and one at which a mu table is not finite
    *[(c, ("--oracle", "batch_reuse", "--eta", "1e200"),
       "the oracle's y^3 scale overflows at eta=1e+200") for c in ("mu", "simulate", "predict")],
    ("phase", ("--oracle", "batch_reuse", "--eta-max", "1e200"),
     "the oracle's y^3 scale overflows at eta=1e+200"),
    *[(c, ("--eta", "1e308"), "the mu table is not finite at eta=1e+308")
      for c in ("mu", "predict")],
    *[(c, (*DEEP_Z2, "--eta", "1e200"), "the mu table is not finite at eta=1e+200")
      for c in ("simulate", "predict")],
    ("phase", (*DEEP_Z2, "--eta-max", "1e160"), "the mu table is not finite at eta=1e+160"),
    ("sweep", ("--oracle", "batch_reuse", "--eta-max", "1e200"),
     "the mu table is not finite at eta=1.9306977288833405e+150"),
    # a negative seed, named by SeedTree
    ("simulate", ("--seed", "-1"), "the master seed must be nonnegative, got -1"),
    ("gen-data", ("--seed", "-1"), "the master seed must be nonnegative, got -1"),
    ("sweep", ("--master-seed", "-1"), "the master seed must be nonnegative, got -1"),
    # a finite table whose predicted times leave the float range
    *[("predict", (flag, value), f"a predicted time is 0 or not finite at gamma={gamma}")
      for flag, value, gamma in (("--eta", "1e200", "5e+198"), ("--gamma", "1e308", "1e+308"),
                                 ("--gamma", "1e-320", "1e-320"))],
]


class TestBadValuesExit1:
    @pytest.mark.parametrize("command, bad, message", BAD_VALUES,
                             ids=[c + b[-2] + ("" if b[-1] == "bogus" else "=" + b[-1])
                                  + ("-" + b[1] if b[0] == "--oracle" and len(b) > 2 else "")
                                  for c, b, _ in BAD_VALUES])
    def test_spec_error(self, capsys, recwarn, command, bad, message):
        code, out, err = run_cli(capsys, command, *MINIMAL[command], *bad)
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err
        assert not recwarn.list


class TestLineEnds:
    @pytest.mark.parametrize("command", [c for c in MINIMAL if c != "sweep"])
    def test_every_table_ends_its_lines_in_newline(self, capsys, command):
        code, out, _ = run_cli(capsys, command, *MINIMAL[command])
        assert code == 0
        assert "\r" not in out and out.endswith("\n")

    def test_simulate_out_and_sweep_files(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        assert run_cli(capsys, "simulate", *MINIMAL["simulate"], "--out", str(traj))[0] == 0
        code, out, _ = run_cli(capsys, *QUICK_SWEEP, "--out", str(tmp_path / "sweep"))
        assert code == 0
        paths = [traj, *(line for line in out.splitlines() if not line.startswith("#"))]
        assert len(paths) == 5
        for path in paths:
            assert b"\r" not in open(path, "rb").read(), path


class TestBadGamma:
    @pytest.mark.parametrize("argv", [
        (*QUICK_SWEEP, "--gamma", "abc"),
        (*QUICK_SWEEP, "--gamma", "eta_as_gamma"),
        ("simulate", *MINIMAL["simulate"], "--gamma", "abc"),
        ("predict", *MINIMAL["predict"], "--gamma", "abc"),
    ], ids=["sweep-abc", "sweep-eta_as_gamma", "simulate-abc", "predict-abc"])
    def test_exits_1_naming_gamma_before_any_run(self, capsys, tmp_path, monkeypatch, argv):
        runs = _spy(monkeypatch, cli, "run") + _spy(monkeypatch, harness, "run")
        code, _, err = run_cli(capsys, *argv, *(("--out", str(tmp_path / "out"))
                                                if argv[0] == "sweep" else ()))
        assert code == 1
        assert err == f"error: gamma must be 'auto' or a number, got {argv[-1]!r}\n"
        assert runs == []

    def test_config_line_exits_1_naming_gamma(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("gamma = abc\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert err == "error: gamma must be 'auto' or a number, got 'abc'\n"

    def test_overflowing_run_exits_0_without_warnings(self, capsys):
        """gamma = 1e308 overflows the first step and the audit's powers of
        gamma: the run is flagged diverged, and the audit line is printed.
        The step's gap is nan, so the audit skips it and checks nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--oracle", "alternating", "--link", "He3", "--act", "He3",
                "--d", "10", "--eta", "1.0", "--gamma", "1e308", "--n", "64", "--batch", "1",
                "--seed", "2", "--audit")
        assert code == 0
        assert out == "step,samples_seen,kappa\n0,0,0.316227766017\n1,1,nan\n"
        assert err == ("weak_step=None strong_step=None diverged=1 gamma=1e+308\n"
                       "audit: checked=0 violations=0 max_violation=-inf\n")
