"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy experiments (the full alternating-SGD learning-rate sweep, the
d-scaling and advantage measurements) run at the protocol defaults: batch
size 128, pinned initial alignment, weak-recovery threshold 0.5, replicate
medians. Free parameters left open by a criterion (batch size where unstated,
the alternating learning rate in the recursion-calibration check) are fixed
here and noted inline.
"""

import math
import time

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
    bihari_lasalle_check,
    expected_alignment_gain,
    fit_boundary_slope,
    gamma_auto,
    gauss_hermite_coeff,
    gronwall_check,
    hermite_eval,
    hermite_poly,
    expand,
    exponent_report,
    knee_eta,
    int_log_grid,
    log_grid,
    mu_table,
    normalization_error_audit,
    phase_boundaries,
    recursion_oracle,
    ridge_fit,
    run,
    sweep,
    weak_recovery_sample_size,
)
from silab.dynamics import Trajectory
from silab.harness import SweepSpec
from silab.oracles import (
    alignment_gain_moments,
    alignment_gain_monte_carlo,
    mu_integrand_moments,
    mu_monte_carlo,
)

HE3 = hermite_poly(3)
NOISELESS = NoiseSpec()
SEED = 20260808
JOBS = 2


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {tag}: {detail}"


# -- 1: Hermite foundations --------------------------------------------------


def test_criterion_01_hermite_foundations():
    worst_orth = 0.0
    for i in range(11):
        for j in range(11):
            est = gauss_hermite_coeff(lambda z, i=i: hermite_eval(i, z), j, 200)
            exact = math.factorial(j) if i == j else 0.0
            worst_orth = max(worst_orth, abs(est - exact))
    rng = np.random.default_rng(SEED)
    worst_pair = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 9))
        p = MonomialPoly.from_coeffs(rng.uniform(-2, 2, deg + 1))
        k = int(rng.integers(0, deg + 1))
        worst_pair = max(worst_pair, abs(gauss_hermite_coeff(p, k, 60) - expand(p)[k]))
    ok = worst_orth <= 1e-8 and worst_pair <= 1e-8
    report("1", ok,
           f"orthogonality table max err {worst_orth:.2e} (tol 1e-8); "
           f"expand vs quadrature max err {worst_pair:.2e} on 100 random polynomials")


# -- 2: exponent report ------------------------------------------------------


def test_criterion_02_he3_exponents():
    rep = exponent_report(HE3, 2)
    ok = rep.ie == 3 and dict(rep.power_ies)[2] == 2 and rep.ge_upper_bound == 2
    report("2", ok, f"IE(He3) = {rep.ie}, IE(He3^2) = {dict(rep.power_ies)[2]} "
                    f"(expected 3 and 2 exactly)")


# -- 3: mu tables vs Monte Carlo ----------------------------------------------


def _mu_cases():
    d = 50
    return [
        ("online", OracleSpec(kind="online", activation=HE3), d),
        ("alternating eta=0.5", OracleSpec(kind="alternating", activation=HE3, eta=0.5), d),
        ("batch_reuse eta=1/d", OracleSpec(kind="batch_reuse", activation=HE3, eta=1 / d), d),
        ("deep D=3 sigma=z^2 eta=0.5",
         OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                    eta=0.5, depth=3), d),
    ]


def test_criterion_03_mu_consistency():
    # yardstick: the exact integrand variance (sample variances of the
    # heavy-tailed high-index integrands are badly miscalibrated at this
    # draw budget); estimator: median of 16 block means, which keeps its
    # calibration under the same tails
    t0 = time.time()
    n_draws = 1_000_000
    worst = 0.0
    worst_case = ""
    for idx, (name, spec, d) in enumerate(_mu_cases()):
        for nz, noise in enumerate((NOISELESS, NoiseSpec("gaussian", 0.5))):
            mu = mu_table(spec, HE3, noise, d)
            means, variances = mu_integrand_moments(spec, HE3, noise, d)
            np.testing.assert_allclose(means, mu.mus, rtol=1e-12)
            rng = SeedTree(SEED, (3, idx, nz)).rng()
            est, _ = mu_monte_carlo(spec, HE3, noise, d, n_draws, rng, blocks=16)
            se = np.sqrt(variances / n_draws)
            for i in range(mu.r):
                z = abs(est[i] - mu.mus[i]) / max(se[i], 1e-12)
                if z > worst:
                    worst, worst_case = z, f"{name} noise={noise.family} i={i + 1}"
    ok = worst <= 4.0
    report("3", ok, f"max |analytic - MC| = {worst:.2f} exact standard errors "
                    f"(limit 4, worst at {worst_case}); {time.time() - t0:.0f}s")


# -- 4: Stein one-step identity ----------------------------------------------


def test_criterion_04_stein_identity():
    t0 = time.time()
    d = 50
    n_draws = 1_000_000
    worst = 0.0
    worst_case = ""
    for idx, (name, spec, _) in enumerate(_mu_cases()):
        mu = mu_table(spec, HE3, NOISELESS, d)
        for ki, kappa in enumerate((0.05, 0.2, 0.5)):
            predicted = expected_alignment_gain(mu, kappa)
            mean_exact, var_exact = alignment_gain_moments(spec, HE3, NOISELESS, d, kappa)
            assert mean_exact == pytest.approx(predicted, rel=1e-10)
            rng = SeedTree(SEED, (4, idx, ki)).rng()
            est, _ = alignment_gain_monte_carlo(spec, HE3, NOISELESS, d, kappa,
                                                n_draws, rng, blocks=16)
            z = abs(est - predicted) / max(math.sqrt(var_exact / n_draws), 1e-12)
            if z > worst:
                worst, worst_case = z, f"{name} kappa={kappa}"
    ok = worst <= 4.0
    report("4", ok, f"max |MC drift - prediction| = {worst:.2f} exact standard errors "
                    f"(limit 4, worst at {worst_case}); {time.time() - t0:.0f}s")


# -- 5: Figure-1 reproduction -------------------------------------------------

FIG1_D = 50


@pytest.fixture(scope="module")
def figure1_sweep():
    base = RunConfig(
        teacher=TeacherSpec(d=FIG1_D, link=HE3),
        oracle=OracleSpec(kind="alternating", activation=HE3),
        n=256,
        seed=SeedTree(SEED, (5,)),
        batch_size=128,
        n_neurons=1,
        weak_threshold=0.5,
        record_every=100,
    )
    spec = SweepSpec(
        base=base,
        eta_grid=log_grid(50, 1e-3, 1.0),
        n_grid=int_log_grid(24, 256, 501_187),
        replicates=10,
        jobs=JOBS,
    )
    t0 = time.time()
    result = sweep(spec)
    print(f"[figure-1 sweep: {len(result.cells)} cells in {time.time() - t0:.0f}s]")
    return result


def test_criterion_05a_flat_window(figure1_sweep):
    limit = 0.3 / math.sqrt(FIG1_D)
    window = [(eta, n) for eta, n in figure1_sweep.summary if eta < limit]
    values = [n for _, n in window]
    if any(v is None for v in values):
        ok, ratio = False, math.inf
    else:
        ratio = max(values) / min(values)
        ok = ratio < 2.0
    report("5a", ok, f"n* over flat window eta < {limit:.4f}: "
                     f"{sorted(set(values), key=lambda v: (v is None, v))}; "
                     f"max/min variation {ratio:.2f} (limit 2)")


def test_criterion_05b_decay_slope(figure1_sweep):
    lo, hi = 3 / math.sqrt(FIG1_D), 1.0
    try:
        slope, stderr = fit_boundary_slope(figure1_sweep, (lo, hi))
        ok = -2.6 <= slope <= -1.4
        detail = f"slope {slope:.2f} +- {stderr:.2f} over eta in [{lo:.3f}, 1] (want [-2.6, -1.4])"
    except ValueError as err:
        ok, detail = False, f"no fit over eta in [{lo:.3f}, 1]: {err}"
    report("5b", ok, detail)


def test_criterion_05c_knee_location(figure1_sweep):
    def mu_fn(eta):
        return mu_table(OracleSpec(kind="alternating", activation=HE3, eta=eta),
                        HE3, NOISELESS, FIG1_D)

    bounds = phase_boundaries(mu_fn, FIG1_D, (1e-3, 1.0),
                              spec=OracleSpec(kind="alternating", activation=HE3, eta=1.0))
    switches = [b for b in bounds if b.argmin_switch]
    assert switches, "no argmin-switch boundary found"
    eta_star = switches[0].eta_star
    knee = knee_eta(figure1_sweep)
    if knee is None:
        ok, detail = False, f"no sustained knee detected; theory eta_star = {eta_star:.4f}"
    else:
        factor = max(knee / eta_star, eta_star / knee)
        ok = factor <= 3.0
        detail = (f"empirical knee {knee:.4f} vs theory eta_star {eta_star:.4f}, "
                  f"factor {factor:.2f} (limit 3)")
    report("5c", ok, detail)


# -- 6: online SGD d-scaling --------------------------------------------------


def test_criterion_06_online_d_scaling():
    t0 = time.time()
    n_star = {}
    grid = [int(round(10**v)) for v in np.arange(2.8, 5.0, 0.05)]
    for d in (25, 50):
        spec = OracleSpec(kind="online", activation=HE3, gamma=gamma_auto(
            OracleSpec(kind="online", activation=HE3),
            mu_table(OracleSpec(kind="online", activation=HE3), HE3, NOISELESS, d), d))
        cfg = RunConfig(
            teacher=TeacherSpec(d=d, link=HE3),
            oracle=spec,
            n=128,
            seed=SeedTree(SEED, (6, d)),
            batch_size=128,
            record_every=20,
        )
        n_star[d] = weak_recovery_sample_size(cfg, grid, replicates=10)
    ok = (n_star[25] is not None and n_star[50] is not None
          and 2.5 <= n_star[50] / n_star[25] <= 7.0)
    ratio = None if None in n_star.values() else n_star[50] / n_star[25]
    report("6", ok, f"n*(d=25) = {n_star[25]}, n*(d=50) = {n_star[50]}, "
                    f"ratio {ratio if ratio is None else round(ratio, 2)} "
                    f"(want [2.5, 7], ideal 4); {time.time() - t0:.0f}s")


# -- 7: non-correlational advantage --------------------------------------------


def test_criterion_07_non_correlational_advantage():
    t0 = time.time()
    d = 50
    grid = int_log_grid(28, 128, 316_228)
    results = {}
    for arm, (name, kind, eta) in enumerate((
        ("online", "online", 0.0),
        ("batch_reuse", "batch_reuse", 1 / d),
        ("alternating", "alternating", 1.0),
    )):
        probe = OracleSpec(kind=kind, activation=HE3, eta=eta)
        gamma = gamma_auto(probe, mu_table(probe, HE3, NOISELESS, d), d)
        cfg = RunConfig(
            teacher=TeacherSpec(d=d, link=HE3),
            oracle=OracleSpec(kind=kind, activation=HE3, eta=eta, gamma=gamma),
            n=128,
            seed=SeedTree(SEED, (7, arm)),
            batch_size=128,
            record_every=20,
        )
        results[name] = weak_recovery_sample_size(cfg, grid, replicates=10)
    baseline = results["online"]
    ok = baseline is not None and all(
        results[k] is not None and results[k] <= baseline / 3
        for k in ("batch_reuse", "alternating")
    )
    report("7", ok, f"n*: online={baseline}, batch_reuse(eta=1/d)={results['batch_reuse']}, "
                    f"alternating(eta=1)={results['alternating']} "
                    f"(each non-correlational arm must be <= online/3); {time.time() - t0:.0f}s")


# -- 8: eta -> 0 degeneration ---------------------------------------------------


def test_criterion_08_eta_zero_degeneration():
    d, steps = 25, 1000
    base = dict(
        teacher=TeacherSpec(d=d, link=HE3),
        n=steps,
        seed=SeedTree(SEED, (8,)),
        batch_size=1,
        record_every=1,
    )

    def traj(kind) -> Trajectory:
        return run(RunConfig(oracle=OracleSpec(kind=kind, activation=HE3,
                                               gamma=0.002, eta=0.0), **base))

    ref = traj("online")
    same = True
    for kind in ("batch_reuse", "alternating"):
        other = traj(kind)
        same = same and np.array_equal(ref.alignments, other.alignments)
        same = same and np.array_equal(ref.final_network.W, other.final_network.W)
    report("8", same, f"batch_reuse and alternating at eta=0 reproduce online SGD "
                      f"bit-for-bit over {steps} steps at d={d}")


# -- 9: recursion-bound lemma suites -------------------------------------------


def test_criterion_09_lemma_suites():
    rng = np.random.default_rng(SEED)
    gron_viol = bihari_viol = 0
    for _ in range(200):
        a = float(rng.uniform(1e-3, 0.5))
        c = float(rng.uniform(1e-4, 0.1))
        k = int(rng.choice([3, 4, 5]))
        gron_viol += gronwall_check(a, c, 300).n_violations
        bihari_viol += bihari_lasalle_check(a, c, k, 900).n_violations
    ok = gron_viol == 0 and bihari_viol == 0
    report("9", ok, f"violations over 200 random draws: geometric-bound {gron_viol}, "
                    f"superlinear-bound {bihari_viol} (want 0 and 0)")


# -- 10: recursion oracle calibration ------------------------------------------


def test_criterion_10_recursion_calibration():
    t0 = time.time()
    d, c_target = 25, 0.3
    outcomes = {}
    # alternating uses a small nonzero eta so the second-layer term is
    # exercised while the constants-1 proxy stays inside its regime of
    # validity (the recursion carries no factorial weights, so large-eta
    # tables overdrive its high-order terms)
    for arm, (name, kind, eta) in enumerate((("online", "online", 0.0),
                                             ("alternating", "alternating", 0.001))):
        spec0 = OracleSpec(kind=kind, activation=HE3, eta=eta)
        mu = mu_table(spec0, HE3, NOISELESS, d)
        gamma = gamma_auto(spec0, mu, d) / 10
        t_rec = recursion_oracle(mu, gamma, d, c_target=c_target, t_max=1_000_000)
        crossings = []
        for seed in range(10):
            cfg = RunConfig(
                teacher=TeacherSpec(d=d, link=HE3),
                oracle=OracleSpec(kind=kind, activation=HE3, eta=eta, gamma=gamma),
                n=60_000,
                seed=SeedTree(SEED, (10, arm, seed)),
                batch_size=1,
                weak_threshold=c_target,
                record_every=1,
            )
            traj = run(cfg)
            crossings.append(math.inf if traj.weak_recovery_step is None
                             else traj.weak_recovery_step)
        med = float(np.median(crossings))
        outcomes[name] = (t_rec, med, med / t_rec)
    ok = all(math.isfinite(r) and 1 / 5 <= r <= 5 for _, _, r in outcomes.values())
    detail = "; ".join(f"{k}: recursion {t} vs sim median {m:.0f} (ratio {r:.2f})"
                       for k, (t, m, r) in outcomes.items())
    report("10", ok, detail + f" (want ratios in [0.2, 5]); {time.time() - t0:.0f}s")


# -- 11: pathwise normalization bound -------------------------------------------


def test_criterion_11_normalization_bound():
    cases = [
        ("online", OracleSpec(kind="online", activation=HE3, gamma=0.002)),
        ("batch_reuse", OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.002, eta=1e-3)),
        ("alternating", OracleSpec(kind="alternating", activation=HE3, gamma=0.002, eta=0.5)),
        ("deep", OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                            gamma=0.002, eta=0.5, depth=3)),
    ]
    worst = -math.inf
    violations = 0
    for idx, (_, oracle) in enumerate(cases):
        cfg = RunConfig(
            teacher=TeacherSpec(d=25, link=HE3),
            oracle=oracle,
            n=1000 * 32,
            seed=SeedTree(SEED, (11, idx)),
            batch_size=32,
            audit=True,
        )
        rep = normalization_error_audit(run(cfg))
        worst = max(worst, rep.max_violation)
        violations += rep.n_violations
    ok = violations == 0 and worst <= 1e-10
    report("11", ok, f"audited 1000-step runs for all four oracle kinds: "
                      f"{violations} violations, max excess {worst:.2e} (tol 1e-10)")


# -- 12: ridge regression sanity -------------------------------------------------


def test_criterion_12_ridge_sanity():
    teacher = TeacherSpec(d=20, link=HE3)
    aligned = NetworkSpec(W=teacher.theta_star[None, :], activation=HE3)
    fit_good = ridge_fit(aligned, teacher, RidgeConfig(lam=1e-6, n_fit=4000, n_test=4000),
                         SeedTree(SEED, (12, 0)).rng())
    w_orth = np.zeros(20)
    w_orth[1] = 1.0
    orth = NetworkSpec(W=w_orth[None, :], activation=HE3)
    fit_bad = ridge_fit(orth, teacher, RidgeConfig(lam=1e-3, n_fit=8000, n_test=8000),
                        SeedTree(SEED, (12, 1)).rng())
    ok = fit_good.test_mse < 1e-4 and fit_bad.test_mse >= 0.9 * fit_bad.test_label_second_moment
    report("12", ok, f"aligned-neuron test MSE {fit_good.test_mse:.2e} (< 1e-4); "
                     f"orthogonal-neuron MSE {fit_bad.test_mse:.2f} vs "
                     f"0.9 E[y^2] = {0.9 * fit_bad.test_label_second_moment:.2f}")
