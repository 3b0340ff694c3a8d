import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from silab import (
    MonomialPoly,
    NetworkSpec,
    NoiseSpec,
    OracleSpec,
    RidgeConfig,
    RunConfig,
    SeedTree,
    TeacherSpec,
    hermite_poly,
    normalization_error_audit,
    ridge_fit,
    run,
    weak_recovery_sample_size,
)
from silab import dynamics
from silab.dynamics import DIVERGENCE_NORM
from silab.model import ROLE_DATA, ROLE_INIT, draw_batch, init_network
from silab.oracles import apply_step

HE3 = hermite_poly(3)


def make_config(
    kind="online",
    d=25,
    gamma=0.001,
    eta=0.0,
    n=12_800,
    batch=128,
    seed=0,
    link=HE3,
    act=HE3,
    depth=2,
    **kw,
):
    teacher = TeacherSpec(d=d, link=link, noise=kw.pop("noise", NoiseSpec()))
    oracle = OracleSpec(kind=kind, activation=act, gamma=gamma, eta=eta, depth=depth)
    return RunConfig(
        teacher=teacher,
        oracle=oracle,
        n=n,
        seed=SeedTree(seed),
        batch_size=batch,
        **kw,
    )


class TestRun:
    def test_gamma_zero_constant_alignment(self):
        cfg = make_config(gamma=0.0, n=2000, batch=100, record_every=5)
        traj = run(cfg)
        assert np.all(traj.alignments == traj.alignments[0])
        assert traj.weak_recovery_step is None  # threshold 0.5 > 1/sqrt(25)

    def test_initial_alignment_pinned(self):
        d = 10
        traj = run(make_config(d=d, n=256, gamma=0.0, n_neurons=3))
        np.testing.assert_allclose(traj.alignments[0], d**-0.5, rtol=0, atol=1e-12)

    def test_seed_determinism(self):
        cfg1 = make_config(gamma=0.002, n=6400, seed=7)
        cfg2 = make_config(gamma=0.002, n=6400, seed=7)
        t1, t2 = run(cfg1), run(cfg2)
        assert np.array_equal(t1.alignments, t2.alignments)
        assert np.array_equal(t1.final_network.W, t2.final_network.W)

    def test_single_pass_sample_counter(self):
        cfg = make_config(n=1000, batch=64)  # 15 full batches
        traj = run(cfg)
        assert traj.total_samples == 64 * (1000 // 64)
        assert traj.steps[-1] == 1000 // 64

    def test_unit_norm_preserved(self):
        cfg = make_config(kind="alternating", eta=0.5, gamma=0.01, n=12_800)
        traj = run(cfg)
        norms = np.linalg.norm(traj.final_network.W, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_recovery_steps_ordering(self):
        # strong threshold (1 - STRONG_EPS) is higher than weak, so weak <= strong
        cfg = make_config(
            kind="online", link=hermite_poly(1), act=hermite_poly(1),
            gamma=0.04, n=256_000, batch=64, record_every=10,
        )
        traj = run(cfg)
        assert traj.weak_recovery_step is not None
        assert traj.strong_recovery_step is not None
        assert traj.weak_recovery_step <= traj.strong_recovery_step
        best = traj.alignments.max(axis=1)
        first = traj.steps[np.argmax(best >= 1.0 - dynamics.STRONG_EPS)]
        assert traj.strong_recovery_step == first

    def test_threshold_monotone(self):
        base = dict(kind="online", link=hermite_poly(1), act=hermite_poly(1),
                    gamma=0.04, n=256_000, batch=64, record_every=10, seed=5)
        lo = run(make_config(weak_threshold=0.5, **base))
        hi = run(make_config(weak_threshold=0.7, **base))
        assert lo.weak_recovery_step is not None and hi.weak_recovery_step is not None
        assert lo.weak_recovery_step <= hi.weak_recovery_step

    def test_online_he1_weak_recovery_median(self):
        # p = 1 linear target: recovery within Theta(d) steps at gamma = 1/d
        steps = []
        for seed in range(10):
            cfg = make_config(
                kind="online", link=hermite_poly(1), act=hermite_poly(1),
                d=25, gamma=1 / 25, n=10_000, batch=1, seed=seed, record_every=50,
            )
            traj = run(cfg)
            steps.append(math.inf if traj.weak_recovery_step is None
                         else traj.weak_recovery_step)
        assert np.median(steps) < math.inf

    def test_divergence_flagged_not_raised(self):
        cfg = make_config(kind="alternating", eta=1.0, gamma=1e9, n=25_600, seed=2)
        traj = run(cfg)
        assert traj.diverged
        assert traj.weak_recovery_step is None
        assert not math.isfinite(traj.final_alignment) or abs(traj.final_alignment) <= 1

    def test_multi_neuron_independent_recording(self):
        cfg = make_config(n=2560, n_neurons=4, record_every=5)
        traj = run(cfg)
        assert traj.alignments.shape[1] == 4


class TestGoldenRun:
    def test_alternating_high_eta_golden(self):
        # seed-pinned regression for the headline configuration at eta = 1:
        # first weak crossing lands in the low-1e5 sample range; the exact
        # values are tied to this platform's BLAS (chaotic trajectory), and a
        # shift on rebuild means the numerical environment changed
        cfg = make_config(
            kind="alternating", d=50, eta=1.0, gamma=1.0 / 50,
            n=200_000, batch=128, seed=0, record_every=100,
        )
        cfg = replace(cfg, seed=SeedTree(20260808, (99,)))
        traj = run(cfg)
        assert traj.weak_recovery_step == 800
        assert traj.samples_seen[-1] == 199_936
        assert 1e5 <= traj.weak_recovery_step * 128 < 3e5
        assert traj.final_alignment == pytest.approx(-0.228400077507045, abs=1e-9)
        assert not traj.diverged


class TestEtaZeroDegeneration:
    @pytest.mark.parametrize("batch", [64, 1])
    def test_trajectories_bit_identical(self, batch):
        base = dict(d=25, gamma=0.002, n=200 * batch, batch=batch, seed=11, record_every=1)
        ref = run(make_config(kind="online", **base))
        for kind in ("batch_reuse", "alternating", "deep_alternating"):  # deep at depth 2
            other = run(make_config(kind=kind, eta=0.0, **base))
            assert np.array_equal(ref.alignments, other.alignments), kind
            assert np.array_equal(ref.final_network.W, other.final_network.W), kind


class TestNormalizationAudit:
    @pytest.mark.parametrize("kind,eta,act,depth", [
        ("online", 0.0, HE3, 2),
        ("batch_reuse", 1e-3, HE3, 2),
        ("alternating", 0.5, HE3, 2),
        ("deep_alternating", 0.5, MonomialPoly.monomial(2), 3),
    ])
    def test_pathwise_bound_holds(self, kind, eta, act, depth):
        cfg = make_config(
            kind=kind, eta=eta, act=act, depth=depth, gamma=0.002,
            n=1000 * 32, batch=32, audit=True, seed=3,
        )
        report = normalization_error_audit(run(cfg))
        assert report.n_steps_checked > 0
        assert report.n_violations == 0
        assert report.max_violation <= 1e-10

    def test_gamma_zero_bound_tight(self):
        cfg = make_config(gamma=0.0, n=3200, audit=True)
        report = normalization_error_audit(run(cfg))
        assert report.n_violations == 0
        assert report.max_violation <= 1e-10

    def test_negative_kappa_steps_skipped(self):
        cfg = make_config(
            gamma=0.05, n=64_000, batch=32, audit=True, seed=8,
        )
        report = normalization_error_audit(run(cfg))
        assert report.n_skipped > 0
        assert report.n_violations == 0

    def test_requires_audit_flag(self):
        cfg = make_config(n=1280)
        with pytest.raises(ValueError, match="audit"):
            normalization_error_audit(run(cfg))

    # alternating He3 at d = 10, eta = 1 and B = 1: a large gamma diverges at
    # the first step
    FIRST_STEP = dict(kind="alternating", d=10, eta=1.0, n=64, batch=1, seed=2, audit=True)

    def test_overflowing_run_flags_without_warnings(self):
        """gamma = 1e308 overflows the first step's products: the run is
        flagged diverged, and neither it nor its audit warns. The recorded
        numbers are those the run gave before its step loop ignored numpy's
        overflow and invalid-value warnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(make_config(gamma=1e308, **self.FIRST_STEP))
            report = normalization_error_audit(traj)
        assert traj.diverged and traj.steps.tolist() == [0, 1]
        assert traj.alignments[0, 0] == 10**-0.5 and math.isnan(traj.alignments[1, 0])
        trace = traj.audit_trace
        assert trace.kappa_before.tolist() == [[10**-0.5]]
        assert math.isnan(trace.kappa_after[0, 0])
        assert trace.theta_dot_g.tolist() == [[0.8477605685077145]]
        assert trace.g_norm_sq.tolist() == [[105.44577123701742]]
        w = traj.final_network.W[0]
        assert np.flatnonzero(w == 0.0).tolist() == [0, 5, 8] and not np.signbit(w[0])
        assert np.isnan(np.delete(w, [0, 5, 8])).all()
        # the bound is -inf and kappa' is nan: a nan gap, so the step is skipped
        assert report == dynamics.AuditReport(0, 1, -math.inf, 0)

    def test_bound_overflows_to_minus_inf(self):
        """gamma^3 leaves the float range above about 5.6e102 (and gamma^2
        above about 1.3e154). The bound is then -inf, with no OverflowError
        and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(make_config(gamma=1e103, **self.FIRST_STEP))
            report = normalization_error_audit(traj)
        assert traj.diverged and traj.audit_trace.kappa_after[0, 0] == 0.08255789835513253
        assert report == dynamics.AuditReport(1, 0, -math.inf, 0)

    @pytest.mark.parametrize("gamma, n", [(0.0, 640), (2e-3, 640), (0.05, 640), (3.7, 640),
                                          (1e30, 64), (5e102, 64)])
    def test_bound_has_the_bits_of_python_float_powers(self, gamma, n):
        """Wherever gamma^3 is finite, the bound is the one Python floats
        give: the same powers, products and sums in the same order."""
        traj = run(make_config(gamma=gamma, **{**self.FIRST_STEP, "n": n}))
        t = traj.audit_trace
        with np.errstate(over="ignore"):  # 5e102's last product overflows
            bound = (t.kappa_before + gamma * t.theta_dot_g
                     - gamma**2 * t.kappa_before * t.g_norm_sq
                     - gamma**3 * np.abs(t.theta_dot_g) * t.g_norm_sq)
        checked = (t.kappa_before >= 0.0) & ~np.isnan(bound - t.kappa_after)
        gap = np.where(checked, bound - t.kappa_after, -np.inf)
        report = normalization_error_audit(traj)
        assert report.max_violation == float(np.max(gap))
        assert report.n_violations == int((gap > 1e-10).sum())
        assert report.n_steps_checked == int(checked.sum())
        assert report.n_steps_checked + report.n_skipped == t.kappa_before.size

    def test_nan_gap_is_skipped(self):
        """A hand-built trace: a finite step that breaks the bound by 0.25,
        then a step whose kappa' is nan. Only the first is checked."""
        traj = run(make_config(gamma=0.5, **{**self.FIRST_STEP, "kind": "online", "n": 2}))
        traj.audit_trace = dynamics.AuditTrace(
            kappa_before=np.array([[0.5], [0.5]]),
            kappa_after=np.array([[0.25], [math.nan]]),
            theta_dot_g=np.array([[0.0], [0.0]]),
            g_norm_sq=np.array([[0.0], [0.0]]),
        )
        assert normalization_error_audit(traj) == dynamics.AuditReport(1, 1, 0.25, 1)
        assert normalization_error_audit(traj, tol=0.5) == dynamics.AuditReport(1, 1, 0.25, 0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tol_rejected(self, tol):
        traj = run(make_config(gamma=0.5, **{**self.FIRST_STEP, "kind": "online", "n": 2}))
        with pytest.raises(ValueError, match="^tol must be finite and >= 0, got "):
            normalization_error_audit(traj, tol=tol)


class TestWeakRecoverySampleSize:
    def test_gamma_zero_never_recovers(self):
        cfg = make_config(gamma=0.0, n=1280)
        assert weak_recovery_sample_size(cfg, [256, 512, 1024], replicates=2) is None

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_needs_a_replicate(self, replicates):
        cfg = make_config(gamma=0.0, n=1280)
        with pytest.raises(ValueError, match="at least one replicate"):
            weak_recovery_sample_size(cfg, [256, 512], replicates=replicates)

    @pytest.mark.parametrize("field, grid, replicates", [
        ("replicates", [256, 512], 1.5),
        ("replicates", [256, 512], 2.0),
        ("replicates", [256, 512], True),
        ("n_grid", [256, 64.9], 1),
        ("n_grid", [256.0], 1),
        ("n_grid", np.array([256.0, 512.0]), 1),
    ])
    def test_non_integer_count_rejected(self, field, grid, replicates):
        # replicates=1.5 used to die inside range, and an n of 64.9 ran at 64
        cfg = make_config(gamma=0.0, n=1280)
        with pytest.raises(ValueError, match=f"^{field}.* must be .*integer"):
            weak_recovery_sample_size(cfg, grid, replicates=replicates)

    def test_numpy_integer_grid_accepted(self):
        cfg = make_config(gamma=0.0, n=1280)
        assert weak_recovery_sample_size(cfg, np.array([512, 256]), np.int64(1)) is None

    def test_trivial_target_finite(self):
        cfg = make_config(
            kind="online", link=hermite_poly(1), act=hermite_poly(1),
            d=25, gamma=0.04, batch=1, n=64,
        )
        grid = [100, 400, 1600, 6400, 25_600]
        n_star = weak_recovery_sample_size(cfg, grid, replicates=5)
        assert n_star in grid

    def test_diverged_runs_never_recover(self):
        # every replicate blows up; several still end above the threshold
        cfg = make_config(kind="alternating", d=10, eta=1.0, gamma=1e9, n=64, batch=32,
                          record_every=10, weak_threshold=0.3)
        assert weak_recovery_sample_size(cfg, [1024], replicates=5) is None

    def test_non_monotone_grid_returns_smallest_recovering_level(self, monkeypatch):
        """Recovery at 16 but not at 32 or 64: the search reports 16 after
        running levels 8 and 16 only, each replicate on seed child(idx, rep)."""
        cfg = make_config(batch=1, n=64)
        grid = [8, 16, 32, 64, 128, 256, 512, 1024]
        recovering = {16, 128, 256, 512, 1024}
        seen = []

        def fake_run(config):
            seen.append((config.n, config.seed))
            return SimpleNamespace(
                final_alignment=0.9 if config.n in recovering else 0.1, diverged=False
            )

        monkeypatch.setattr(dynamics, "run", fake_run)
        assert weak_recovery_sample_size(cfg, grid, replicates=3) == 16
        assert [n for n, _ in seen] == [8, 8, 8, 16, 16, 16]
        assert [seed for _, seed in seen] == [
            cfg.seed.child(idx, rep) for idx in (0, 1) for rep in range(3)
        ]


class TestRidgeFit:
    def _teacher(self, d=20):
        return TeacherSpec(d=d, link=HE3, noise=NoiseSpec())

    def _aligned_net(self, teacher):
        return NetworkSpec(W=teacher.theta_star[None, :], activation=HE3)

    def test_perfect_features(self):
        teacher = self._teacher()
        net = self._aligned_net(teacher)
        fit = ridge_fit(net, teacher, RidgeConfig(lam=1e-6, n_fit=4000, n_test=4000),
                        SeedTree(1).rng())
        assert fit.test_mse < 1e-4
        assert fit.a_hat[0] == pytest.approx(1.0, abs=1e-3)

    def test_full_shrinkage_limit(self):
        teacher = self._teacher()
        net = self._aligned_net(teacher)
        fit = ridge_fit(net, teacher, RidgeConfig(lam=1e12, n_fit=4000, n_test=4000),
                        SeedTree(2).rng())
        assert abs(fit.a_hat[0]) < 1e-3
        assert fit.test_mse == pytest.approx(fit.test_label_second_moment, rel=0.05)

    def test_orthogonal_neuron_uninformative(self):
        teacher = self._teacher()
        w = np.zeros(20)
        w[1] = 1.0
        net = NetworkSpec(W=w[None, :], activation=HE3)
        fit = ridge_fit(net, teacher, RidgeConfig(lam=1e-3, n_fit=8000, n_test=8000),
                        SeedTree(3).rng())
        assert fit.test_mse >= 0.9 * fit.test_label_second_moment

    def test_singular_without_penalty(self):
        teacher = self._teacher()
        w = np.tile(teacher.theta_star, (2, 1))
        net = NetworkSpec(W=w, activation=HE3)
        with pytest.raises(ValueError, match="lam > 0"):
            ridge_fit(net, teacher, RidgeConfig(lam=0.0, n_fit=1000, n_test=100),
                      SeedTree(4).rng())

    @pytest.mark.parametrize("lam", [math.nan, -1e-3, math.inf])
    def test_bad_penalty_rejected(self, lam):
        # a comparison with nan is false; with lam = inf the fit reads a_hat = 0
        with pytest.raises(ValueError, match=r"penalty must be nonnegative and finite, got lam="):
            RidgeConfig(lam=lam, n_fit=1000, n_test=100)

    @pytest.mark.parametrize("field, value", [("n_fit", 1000.0), ("n_fit", True),
                                              ("n_test", 100.5), ("n_test", np.float64(100))])
    def test_non_integer_count_rejected(self, field, value):
        counts = {"n_fit": 1000, "n_test": 100, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            RidgeConfig(lam=1e-3, **counts)


class TestConfigValidation:
    def test_n_below_batch_rejected(self):
        with pytest.raises(ValueError):
            make_config(n=10, batch=128)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            make_config(weak_threshold=1.5)

    def test_init_mode_is_no_field(self):
        # every run starts at the pinned alignment d**-0.5
        with pytest.raises(TypeError, match="init_mode"):
            make_config(init_mode="pinned_alignment")

    def test_frozen(self):
        # an assignment used to skip every check: batch_size = 0 passed, and
        # run() then died in n_steps with ZeroDivisionError
        cfg = make_config(n=256, batch=128)
        with pytest.raises(FrozenInstanceError):
            cfg.batch_size = 0
        with pytest.raises(ValueError, match="batch_size"):
            replace(cfg, batch_size=0)
        assert replace(cfg, batch_size=64).n_steps == 4

    def test_equal_by_value(self):
        # used to raise: the teacher's theta_star array was compared
        assert make_config() == make_config()
        assert make_config() != make_config(seed=1)
        assert make_config() != make_config(d=26)

    @pytest.mark.parametrize("neurons", [0, -1])
    def test_no_neurons_rejected(self, neurons):
        with pytest.raises(ValueError, match="at least one neuron"):
            make_config(n_neurons=neurons)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 2"):
            make_config(d=1)

    def test_smallest_valid_shape_accepted(self):
        assert make_config(d=2, n_neurons=1).teacher.d == 2

    @pytest.mark.parametrize("field, value", [
        ("record_every", 2.5), ("record_every", 2.0), ("batch_size", 4.0), ("n", 64.7),
        ("n", 64.0), ("n_neurons", True), ("n_neurons", 1.0), ("batch_size", np.float64(4)),
    ])
    def test_non_integer_count_rejected(self, field, value):
        # a float count would fail inside numpy once the run starts
        kw = {"n": 64, "batch": 4, ("batch" if field == "batch_size" else field): value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            make_config(**kw)

    def test_numpy_integer_counts_accepted(self):
        cfg = make_config(n=np.int64(64), batch=np.int32(4), record_every=np.int64(2))
        assert run(cfg).steps[-1] == 16


def _hand_replay(cfg):
    """run() written out as a plain loop over the public apply_step.

    The run must fit in one draw block (4096 samples), so one draw_batch call
    reads the whole data stream.
    """
    teacher, oracle, bsz = cfg.teacher, cfg.oracle, cfg.batch_size
    n_steps = cfg.n_steps
    assert n_steps * bsz <= 4096
    net = init_network(teacher.d, cfg.n_neurons, oracle.activation,
                       cfg.seed.child(ROLE_INIT).rng())
    x, y = draw_batch(teacher, n_steps * bsz, cfg.seed.child(ROLE_DATA).rng())
    theta = teacher.theta_star
    W = net.W.copy()
    steps, kappas, audit = [0], [W @ theta], []
    rejected, diverged = 0, False
    for step in range(1, n_steps + 1):
        xs, ys = x[(step - 1) * bsz : step * bsz], y[(step - 1) * bsz : step * bsz]
        row = []
        for j in range(cfg.n_neurons):
            w = W[j].copy()
            res = apply_step(w, xs, ys, oracle)
            rejected += res.rejected
            if not math.isfinite(res.prenorm) or res.prenorm >= DIVERGENCE_NORM:
                diverged = True
            g = res.raw_update
            row.append((theta @ w, theta @ res.w, theta @ g, g @ g))
            W[j] = res.w
        audit.append(row)
        if diverged or step % cfg.record_every == 0 or step == n_steps:
            steps.append(step)
            kappas.append(W @ theta)
        if diverged:
            break
    return np.asarray(steps), np.asarray(kappas), W, np.asarray(audit), rejected, diverged


def _assert_run_matches_hand_replay(cfg):
    traj = run(cfg)
    steps, kappas, W, audit, rejected, diverged = _hand_replay(cfg)
    assert np.array_equal(traj.steps, steps)
    assert np.array_equal(traj.alignments, kappas)
    assert np.array_equal(traj.final_network.W, W)
    if cfg.audit:
        t = traj.audit_trace
        for k, arr in enumerate((t.kappa_before, t.kappa_after, t.theta_dot_g, t.g_norm_sq)):
            assert np.array_equal(arr, audit[:, :, k])
    assert traj.rejected_steps == rejected
    assert traj.diverged == diverged
    return traj


class TestNoisyDataStream:
    """run() draws each block with draw_batch: x first, then the label noise.

    At B = 1 one block is 4096 samples, so a 4096-step run reads exactly one.
    """

    @pytest.mark.parametrize("noise", [NoiseSpec("gaussian", 0.5), NoiseSpec("laplace", 0.3)])
    @pytest.mark.parametrize("kind", ["online", "alternating"])
    def test_matches_hand_replay(self, noise, kind):
        cfg = make_config(kind=kind, d=10, gamma=0.05, eta=0.2, n=4096, batch=1,
                          seed=3, record_every=1, noise=noise)
        _assert_run_matches_hand_replay(cfg)


class TestRunMatchesHandReplay:
    """run() against _hand_replay: every recorded bit, two neurons, audit on."""

    KINDS = {
        "online": dict(kind="online"),
        "batch_reuse": dict(kind="batch_reuse", eta=1e-3),
        "alternating": dict(kind="alternating", eta=0.5),
        "deep_alternating": dict(kind="deep_alternating", eta=0.5,
                                 act=MonomialPoly.monomial(2), depth=3),
    }

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_oracle(self, kind, batch):
        cfg = make_config(gamma=0.01, n=100 * batch, batch=batch, seed=5, n_neurons=2,
                          record_every=3, audit=True, **self.KINDS[kind])
        traj = _assert_run_matches_hand_replay(cfg)
        assert not traj.diverged
        assert traj.steps[-1] == 100  # the last step is recorded off the record_every grid

    def test_diverging_run(self):
        cfg = make_config(kind="alternating", d=10, eta=1.0, gamma=1e9, n=200, batch=1,
                          seed=2, n_neurons=2, record_every=3, audit=True)
        traj = _assert_run_matches_hand_replay(cfg)
        assert traj.diverged
        assert traj.steps[-1] < 200

    @pytest.mark.parametrize("record_every", [1, 7, 100, 101])
    def test_record_every_around_the_step_count(self, record_every):
        cfg = make_config(kind="alternating", eta=0.5, gamma=0.01, n=100, batch=1, seed=6,
                          n_neurons=2, record_every=record_every, audit=True)
        traj = _assert_run_matches_hand_replay(cfg)
        on_grid = list(range(0, 101, record_every))
        assert traj.steps.tolist() == on_grid + ([100] if on_grid[-1] != 100 else [])

    def test_diverging_at_the_first_step(self):
        cfg = make_config(kind="alternating", d=10, eta=1.0, gamma=1e15, n=200, batch=1,
                          seed=2, n_neurons=2, record_every=3, audit=True)
        traj = _assert_run_matches_hand_replay(cfg)
        assert traj.diverged
        assert traj.steps.tolist() == [0, 1]
        assert traj.alignments.shape == (2, 2)

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec("gaussian", 0.1)],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_run_steps_through_the_module_global(self, kind, batch, noise, monkeypatch):
        """Tracers rebind dynamics.apply_step; run() must call it once per
        step and neuron. apply_step converts nothing, so each call must take
        a 1-D float64 ndarray row with a Python float label, or a
        C-contiguous (B, d) float64 ndarray block with 1-D float64 ndarray
        labels of length B."""
        forms = []

        def spy(w, x, y, spec):
            if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1:
                forms.append(("row", x.shape, type(y)))
            elif (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 2
                  and x.flags.c_contiguous and type(y) is np.ndarray
                  and y.dtype == np.float64 and y.ndim == 1 and len(y) == len(x)):
                forms.append(("block", x.shape, type(y)))
            else:
                forms.append(("other", type(x), type(y)))
            return apply_step(w, x, y, spec)

        monkeypatch.setattr(dynamics, "apply_step", spy)
        cfg = make_config(gamma=0.01, n=20 * batch, batch=batch, seed=4, n_neurons=2,
                          record_every=3, audit=True, noise=noise, **self.KINDS[kind])
        run(cfg)
        d = cfg.teacher.d
        want = ("row", (d,), float) if batch == 1 else ("block", (batch, d), np.ndarray)
        assert forms == [want] * (cfg.n_steps * cfg.n_neurons)


class TestCoordinateReads:
    """run() reads an alignment with theta = e_1 as a first coordinate plus
    0.0 and falls back to the products where a vector may not be finite.
    Either way every record has the bits of theta.dot and W.dot(theta),
    replayed here step by step from what apply_step took and returned."""

    @staticmethod
    def _spied_run(cfg, monkeypatch, inject=None):
        """run(cfg) and every (w taken, StepResult returned) of its steps;
        inject = (call index, function of w and the result) swaps one result."""
        calls = []

        def spy(w, x, y, spec):
            res = apply_step(w, x, y, spec)
            if inject is not None and len(calls) == inject[0]:
                res = inject[1](w, res)
            calls.append((w.copy(), res))
            return res

        monkeypatch.setattr(dynamics, "apply_step", spy)
        return run(cfg), calls

    @staticmethod
    def _assert_records_the_products(cfg, traj, calls):
        theta, n = cfg.teacher.theta_star, cfg.n_neurons
        taken = len(calls) // n  # the last step taken is recorded, on the grid or not
        steps = [0] + [s for s in range(1, taken + 1) if s % cfg.record_every == 0 or s == taken]
        W = np.array([w for w, _ in calls[:n]])
        kappas, rows = [W.dot(theta)], []
        for step in range(1, taken + 1):
            row = []
            for j in range(n):
                w, res = calls[(step - 1) * n + j]
                g = res.raw_update
                row.append((theta.dot(w), theta.dot(res.w), theta.dot(g), g.dot(g)))
                W[j] = res.w
            rows.append(row)
            if step in steps:
                kappas.append(W.dot(theta))
        assert traj.steps.tolist() == steps
        assert np.asarray(kappas).tobytes() == traj.alignments.tobytes()
        assert W.tobytes() == traj.final_network.W.tobytes()
        if cfg.audit:
            t = traj.audit_trace
            want = np.asarray(rows)
            for k, arr in enumerate((t.kappa_before, t.kappa_after, t.theta_dot_g, t.g_norm_sq)):
                assert arr.tobytes() == np.ascontiguousarray(want[:, :, k]).tobytes()

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kind", list(TestRunMatchesHandReplay.KINDS))
    def test_audited_run(self, kind, batch, monkeypatch):
        cfg = make_config(gamma=0.01, n=60 * batch, batch=batch, seed=8, n_neurons=2,
                          record_every=4, audit=True, **TestRunMatchesHandReplay.KINDS[kind])
        traj, calls = self._spied_run(cfg, monkeypatch)
        assert not traj.diverged and len(calls) == 120
        self._assert_records_the_products(cfg, traj, calls)

    def test_overflowing_step(self, monkeypatch):
        """gamma = 1e308 overflows the first step: one new row is nan but for
        its first coordinate, 0.0, so a bare read would record 0.0 where the
        product records nan."""
        cfg = make_config(kind="alternating", d=10, eta=1.0, gamma=1e308, n=50, batch=1,
                          seed=2, n_neurons=2, record_every=3, audit=True)
        with np.errstate(over="ignore", invalid="ignore"):
            traj, calls = self._spied_run(cfg, monkeypatch)
            self._assert_records_the_products(cfg, traj, calls)
        assert traj.diverged and traj.steps.tolist() == [0, 1]
        W = traj.final_network.W
        assert np.isnan(traj.alignments[-1, 0]) and W[0, 0] == 0.0
        assert np.isnan(traj.audit_trace.kappa_after[0, 0])

    @pytest.mark.parametrize("case", ["bad-step", "non-finite-g", "signed-zeros"])
    def test_injected_vectors(self, case, monkeypatch):
        """One injected step result, on the second neuron of step 3:
        bad-step: a new row with a nan (prenorm inf) and g with an inf entry
          (g.g = inf), each with a finite first coordinate;
        non-finite-g: the same g on a step that keeps the row (prenorm 1);
        signed-zeros: a finite new row and g whose first coordinates are -0.0.
        A bare first-coordinate read would record 0.25, 1.0 or -0.0 where the
        products record nan, nan or 0.0."""
        nan, inf = math.nan, math.inf

        def inject(w, res):
            row, g = np.zeros_like(w), np.zeros_like(w)
            if case == "signed-zeros":
                row[:2] = g[:2] = -0.0, 1.0
                return res._replace(w=row, raw_update=g, prenorm=1.0)
            g[:2] = 1.0, inf
            if case == "bad-step":
                row[:2] = 0.25, nan
                return res._replace(w=row, raw_update=g, prenorm=inf)
            return res._replace(w=w, raw_update=g, prenorm=1.0)

        cfg = make_config(kind="online", d=6, gamma=0.01, n=12, batch=1, seed=3,
                          n_neurons=2, record_every=1, audit=True)
        with np.errstate(over="ignore", invalid="ignore"):
            traj, calls = self._spied_run(cfg, monkeypatch, inject=(5, inject))
            self._assert_records_the_products(cfg, traj, calls)
        t = traj.audit_trace
        assert traj.diverged == (case == "bad-step")
        if case == "signed-zeros":
            for got in (t.kappa_after[2, 1], t.theta_dot_g[2, 1], t.kappa_before[3, 1],
                        traj.alignments[3, 1]):
                assert got == 0.0 and not np.signbit(got)
        else:
            assert np.isnan(t.theta_dot_g[2, 1]) and t.g_norm_sq[2, 1] == inf
        if case == "bad-step":
            assert traj.steps.tolist() == [0, 1, 2, 3]
            assert np.isnan(t.kappa_after[2, 1]) and np.isnan(traj.alignments[-1, 1])


class TestDataBuffer:
    """run() draws every block into one buffer it owns.

    At B = 128 a block is 32 steps; 80 steps read blocks of 32, 32 and 16.
    """

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec("laplace", 0.3)])
    def test_bits_equal_the_allocating_draw(self, noise, monkeypatch):
        cfg = make_config(kind="alternating", d=10, eta=0.5, gamma=0.01, n=80 * 128,
                          seed=4, n_neurons=2, record_every=7, audit=True, noise=noise)
        traj = run(cfg)

        def allocating(teacher, size, rng, out=None):
            return draw_batch(teacher, size, rng)

        monkeypatch.setattr(dynamics, "draw_batch", allocating)
        ref = run(cfg)
        assert traj.steps.tolist() == ref.steps.tolist()
        assert traj.alignments.tobytes() == ref.alignments.tobytes()
        assert traj.final_network.W.tobytes() == ref.final_network.W.tobytes()
        for name in ("kappa_before", "kappa_after", "theta_dot_g", "g_norm_sq"):
            got, want = getattr(traj.audit_trace, name), getattr(ref.audit_trace, name)
            assert got.tobytes() == want.tobytes()

    def test_steps_read_rows_of_one_buffer(self, monkeypatch):
        starts = []

        def spy(w, x, y, spec):
            starts.append(x.ctypes.data)
            return apply_step(w, x, y, spec)

        monkeypatch.setattr(dynamics, "apply_step", spy)
        run(make_config(d=10, n=80 * 128, record_every=10))
        row_block = 128 * 10 * 8
        offsets = [s - starts[0] for s in starts]
        assert offsets == [row_block * (k % 32) for k in range(80)]

    def test_peak_memory_holds_one_block(self):
        cfg = make_config(d=50, n=3 * 32 * 128)
        block_bytes = 32 * 128 * 50 * 8
        run(make_config(d=50, n=4 * 128))  # fill one-time caches first
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 1.5 * block_bytes

    def _row_offsets(self, cfg, monkeypatch):
        starts = []

        def spy(w, x, y, spec):
            starts.append(x.ctypes.data)
            return apply_step(w, x, y, spec)

        monkeypatch.setattr(dynamics, "apply_step", spy)
        run(cfg)
        return [s - starts[0] for s in starts]

    def test_noiseless_blocks_fit_the_draw_budget(self, monkeypatch):
        """At d = 50, B = 128 a noiseless block is 2**16 // 6400 = 10 steps."""
        offsets = self._row_offsets(make_config(d=50, n=25 * 128), monkeypatch)
        row_block = 128 * 50 * 8
        assert offsets == [row_block * (k % 10) for k in range(25)]

    def test_noisy_blocks_keep_4096_samples(self, monkeypatch):
        cfg = make_config(d=50, n=40 * 128, noise=NoiseSpec("gaussian", 0.1))
        offsets = self._row_offsets(cfg, monkeypatch)
        row_block = 128 * 50 * 8
        assert offsets == [row_block * (k % 32) for k in range(40)]

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec("gaussian", 0.1)])
    def test_bits_do_not_depend_on_the_draw_budget(self, noise, monkeypatch):
        """A d = 50 run equals in bytes one that draws 32-step (4096-sample)
        blocks with the allocating call."""
        cfg = make_config(kind="alternating", d=50, eta=0.5, gamma=0.01, n=40 * 128,
                          seed=5, n_neurons=2, record_every=7, audit=True, noise=noise)
        traj = run(cfg)

        def allocating(teacher, size, rng, out=None):
            return draw_batch(teacher, size, rng)

        monkeypatch.setattr(dynamics, "draw_batch", allocating)
        monkeypatch.setattr(dynamics, "_DRAW_VALUES", 4096 * 50)
        ref = run(cfg)
        assert traj.steps.tolist() == ref.steps.tolist()
        assert traj.alignments.tobytes() == ref.alignments.tobytes()
        assert traj.final_network.W.tobytes() == ref.final_network.W.tobytes()
        for name in ("kappa_before", "kappa_after", "theta_dot_g", "g_norm_sq"):
            got, want = getattr(traj.audit_trace, name), getattr(ref.audit_trace, name)
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_stays_in_the_draw_budget(self):
        """At d = 400, B = 128 a noiseless run draws one step at a time."""
        d, bsz = 400, 128
        cfg = make_config(d=d, n=24 * bsz)
        run(make_config(d=d, n=2 * bsz))  # fill one-time caches first
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 1.5 * max(2**16, bsz * d) * 8
