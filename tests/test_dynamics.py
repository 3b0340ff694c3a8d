import math

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

    def test_initial_alignment_pinned_against_theta_star(self):
        d = 10
        theta = np.random.default_rng(11).standard_normal(d)
        theta /= np.linalg.norm(theta)
        cfg = make_config(d=d, n=256, gamma=0.0)
        cfg.teacher = TeacherSpec(d=d, link=HE3, theta_star=theta)
        traj = run(cfg)
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
        # strong threshold is higher than weak, so weak <= strong when both hit
        cfg = make_config(
            kind="online", link=hermite_poly(1), act=hermite_poly(1),
            gamma=0.04, n=256_000, batch=64, record_every=10, strong_eps=0.2,
        )
        traj = run(cfg)
        assert traj.weak_recovery_step is not None
        if traj.strong_recovery_step is not None:
            assert traj.weak_recovery_step <= traj.strong_recovery_step

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
        cfg.seed = SeedTree(20260808, (99,))
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
            gamma=0.05, n=64_000, batch=32, audit=True,
            init_mode="uniform_sphere", seed=8,
        )
        report = normalization_error_audit(run(cfg))
        assert report.n_skipped > 0
        assert report.n_violations == 0

    def test_requires_audit_flag(self):
        cfg = make_config(n=1280)
        with pytest.raises(ValueError, match="audit"):
            normalization_error_audit(run(cfg))


class TestWeakRecoverySampleSize:
    def test_gamma_zero_never_recovers(self):
        cfg = make_config(gamma=0.0, n=1280)
        assert weak_recovery_sample_size(cfg, [256, 512, 1024], replicates=2) is None

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

    def test_full_scan_agrees_with_bisection(self):
        cfg = make_config(
            kind="online", link=hermite_poly(1), act=hermite_poly(1),
            d=25, gamma=0.04, batch=1, n=64, seed=21,
        )
        grid = [100, 400, 1600, 6400, 25_600]
        fast = weak_recovery_sample_size(cfg, grid, replicates=3)
        slow = weak_recovery_sample_size(cfg, grid, replicates=3, full_scan=True)
        assert fast == slow


class TestRidgeFit:
    def _teacher(self, d=20):
        return TeacherSpec(d=d, link=HE3, noise=NoiseSpec())

    def _aligned_net(self, teacher):
        return NetworkSpec(
            W=teacher.theta_star[None, :],
            a=np.ones(1),
            b=np.zeros(1),
            activation=HE3,
        )

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
        net = NetworkSpec(W=w[None, :], a=np.ones(1), b=np.zeros(1), activation=HE3)
        fit = ridge_fit(net, teacher, RidgeConfig(lam=1e-3, n_fit=8000, n_test=8000),
                        SeedTree(3).rng())
        assert fit.test_mse >= 0.9 * fit.test_label_second_moment

    def test_singular_without_penalty(self):
        teacher = self._teacher()
        w = np.tile(teacher.theta_star, (2, 1))
        net = NetworkSpec(W=w, a=np.ones(2), b=np.zeros(2), activation=HE3)
        with pytest.raises(ValueError, match="lam > 0"):
            ridge_fit(net, teacher, RidgeConfig(lam=0.0, n_fit=1000, n_test=100),
                      SeedTree(4).rng())


class TestConfigValidation:
    def test_n_below_batch_rejected(self):
        with pytest.raises(ValueError):
            make_config(n=10, batch=128)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            make_config(weak_threshold=1.5)

    def test_unknown_init_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown init mode"):
            make_config(init_mode="bogus")

    @pytest.mark.parametrize("neurons", [0, -1])
    def test_no_neurons_rejected(self, neurons):
        with pytest.raises(ValueError, match="at least one neuron"):
            make_config(n_neurons=neurons)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 2"):
            make_config(d=1)

    def test_smallest_valid_shape_accepted(self):
        assert make_config(d=2, n_neurons=1).teacher.d == 2


def _hand_replay(cfg):
    """run() written out as a plain loop over the public apply_step.

    The run must fit in one draw block (4096 samples), so one draw_batch call
    reads the whole data stream.
    """
    teacher, oracle, bsz = cfg.teacher, cfg.oracle, cfg.batch_size
    n_steps = cfg.n_steps
    assert n_steps * bsz <= 4096
    net = init_network(teacher.d, cfg.n_neurons, oracle.activation, cfg.init_mode,
                       cfg.seed.child(ROLE_INIT).rng(), theta_star=teacher.theta_star)
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
