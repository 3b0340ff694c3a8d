import math

import numpy as np
import pytest

from silab import (
    MonomialPoly,
    NoiseSpec,
    OracleSpec,
    bihari_lasalle_check,
    gamma_auto,
    gamma_max,
    gronwall_check,
    hermite_poly,
    mu_table,
    phase_boundaries,
    predict_T,
    recursion_oracle,
)
from silab.oracles import MuTable, _istar_set

HE3 = hermite_poly(3)
NOISELESS = NoiseSpec()


def table(mus, d=50):
    return MuTable(mus=tuple(float(m) for m in mus), d=d, components=())


def alternating_mu_fn(d, link=HE3, act=HE3):
    def fn(eta):
        return mu_table(OracleSpec(kind="alternating", activation=act, eta=eta),
                        link, NOISELESS, d)
    return fn


class TestIstar:
    @pytest.mark.parametrize("mus, d", [
        ((2.0,), 50),
        ((0.0, 648.0, 108.0), 50),
        ((0.0, 0.0, 108.0), 50),
        ((0.0, -1.0, 0.0), 50),
        ((-50.0, 5.0), 10),
        ((3.0, 0.0, 2.0, 1.0), 400),
        ((0.0, 0.0), 50),
    ])
    def test_derived_from_mus_and_d(self, mus, d):
        assert table(mus, d).istar == _istar_set(mus, d)

    def test_competition_at_the_table_d(self):
        # |mu_2|^-1 = 1/648 beats d^(1/2) |mu_3|^-1 = d^(1/2)/2000 at d = 50, not at d = 1
        assert table((0.0, 648.0, 2000.0), d=50).istar == (2,)
        assert table((0.0, 648.0, 2000.0), d=1).istar == (3,)


class TestPredictT:
    def test_single_mu1_no_dimension_factor(self):
        pred = predict_T(table((2.0,)), gamma=0.1, d=50)
        assert pred.t == pytest.approx(1 / (0.1 * 2.0))
        assert pred.dominant_i == 1
        assert pred.t_per_i == ((1, pred.t),)

    def test_online_he3_d_squared_scaling(self):
        mu = mu_table(OracleSpec(kind="online", activation=HE3), HE3, NOISELESS, 50)
        preds = {}
        for d in (25, 50):
            mu_d = mu_table(OracleSpec(kind="online", activation=HE3), HE3, NOISELESS, d)
            preds[d] = predict_T(mu_d, gamma=d**-1.5, d=d).t
        assert preds[50] / preds[25] == pytest.approx(4.0)
        assert mu.mu(3) == 36.0

    def test_alternating_matches_min_structure(self):
        eta, d = 0.5, 50
        mu = mu_table(OracleSpec(kind="alternating", activation=HE3, eta=eta),
                      HE3, NOISELESS, d)
        pred = predict_T(mu, gamma=0.01, d=d)
        per = dict(pred.t_per_i)
        assert pred.t == min(per.values())
        assert per[pred.dominant_i] == pred.t
        assert per[2] == pytest.approx(1 / (0.01 * 648 * eta))
        assert per[3] == pytest.approx(math.sqrt(d) / (0.01 * 36))

    def test_no_positive_mu_errors(self):
        with pytest.raises(ValueError, match="no positive"):
            predict_T(table((0.0, -1.0)), gamma=0.1, d=10)

    def test_optimal_form_equals_explicit_at_gamma_max(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            mus = rng.uniform(0, 5, size=rng.integers(1, 7))
            mus[rng.random(mus.size) < 0.3] = 0.0
            if not np.any(mus > 0):
                continue
            d = int(rng.integers(5, 500))
            mu = table(tuple(mus), d=d)
            pred = predict_T(mu, gamma=gamma_max(mu, d), d=d)
            assert pred.t == pytest.approx(pred.t_optimal, rel=1e-12)
            assert pred.dominant_i == pred.dominant_i_optimal


class TestPhaseBoundaries:
    def test_alternating_he3_crossing(self):
        d = 50
        spec = OracleSpec(kind="alternating", activation=HE3, eta=1.0)
        bounds = phase_boundaries(alternating_mu_fn(d), d, (1e-3, 1.0), spec=spec)
        pair = [b for b in bounds if (b.i, b.j) == (2, 3)]
        assert len(pair) == 1
        b = pair[0]
        # T_2 = 1/(648 eta), T_3 = sqrt(d)/36 cross at eta = 36/(648 sqrt(d))
        assert b.eta_star == pytest.approx(36 / (648 * math.sqrt(d)), rel=1e-9)
        assert b.exponent == pytest.approx(-0.5)
        assert b.argmin_switch
        assert not b.degenerate

    def test_crossing_values_agree(self):
        d = 50
        spec = OracleSpec(kind="alternating", activation=HE3, eta=1.0)
        mu_fn = alternating_mu_fn(d)
        bounds = phase_boundaries(mu_fn, d, (1e-3, 1.0), spec=spec)
        b = next(bb for bb in bounds if (bb.i, bb.j) == (2, 3))
        mu = mu_fn(b.eta_star)
        t_i = d ** max((b.i - 2) / 2, 0) / mu.mu(b.i)
        t_j = d ** max((b.j - 2) / 2, 0) / mu.mu(b.j)
        assert abs(t_i - t_j) <= 1e-9 * abs(t_j)

    def test_argmin_switches_across_boundary(self):
        d = 50
        mu_fn = alternating_mu_fn(d)
        spec = OracleSpec(kind="alternating", activation=HE3, eta=1.0)
        bounds = phase_boundaries(mu_fn, d, (1e-3, 1.0), spec=spec)
        b = next(bb for bb in bounds if bb.argmin_switch)
        lo = predict_T(mu_fn(b.eta_star * 0.9), gamma=0.01, d=d).dominant_i
        hi = predict_T(mu_fn(b.eta_star * 1.1), gamma=0.01, d=d).dominant_i
        assert {lo, hi} == {b.i, b.j}

    def test_online_has_no_boundaries(self):
        d = 50

        def mu_fn(eta):
            return mu_table(OracleSpec(kind="online", activation=HE3, eta=eta),
                            HE3, NOISELESS, d)

        spec = OracleSpec(kind="online", activation=HE3)
        assert phase_boundaries(mu_fn, d, (1e-3, 1.0), spec=spec) == ()

    def test_degenerate_shared_leading_index(self):
        # identity link: odd powers of the link share information exponent 1,
        # so the power pair (1, 3) has equal numerators and sits at d**-1
        d = 50
        link = MonomialPoly.monomial(1)
        act = MonomialPoly.from_coeffs([0.0, 1.0, 1.0, 1.0])  # z + z^2 + z^3

        def mu_fn(eta):
            return mu_table(OracleSpec(kind="batch_reuse", activation=act, eta=eta),
                            link, NOISELESS, d)

        spec = OracleSpec(kind="batch_reuse", activation=act, eta=1e-3)
        bounds = phase_boundaries(mu_fn, d, (1e-5, 2e-2), spec=spec)
        degenerate = [b for b in bounds if b.degenerate]
        assert any(b.powers == (1, 3) and b.exponent == pytest.approx(-1.0)
                   and b.eta_star == pytest.approx(1 / d) for b in degenerate)


class TestRecursionOracle:
    def test_linear_term_crossing(self):
        d, gamma, c = 100, 0.01, 0.4
        mu = table((3.0,), d=d)
        t = recursion_oracle(mu, gamma, d, c_target=c, t_max=10_000)
        expected = (c - d**-0.5) / (gamma * 3.0)
        assert abs(t - expected) <= 1.0

    def test_geometric_term_crossing(self):
        d, gamma, c = 100, 0.002, 0.4
        mu = table((0.0, 5.0), d=d)
        t = recursion_oracle(mu, gamma, d, c_target=c, t_max=100_000)
        expected = math.log(c * math.sqrt(d)) / math.log1p(gamma * 5.0)
        assert abs(t - expected) <= 2.0

    def test_superlinear_term_crossing(self):
        d, gamma = 400, 0.001
        mu = table((0.0, 0.0, 2.0), d=d)
        t = recursion_oracle(mu, gamma, d, c_target=0.5, t_max=10_000_000)
        scale = math.sqrt(d) / (gamma * 2.0)
        assert scale / 2 <= t <= 2 * scale

    def test_t_max_exceeded(self):
        mu = table((1e-9,), d=100)
        assert recursion_oracle(mu, 1e-9, 100, c_target=0.9, t_max=100) is None

    def test_negative_terms_dropped_by_default(self):
        d = 100
        mu = table((-50.0, 5.0), d=d)
        t_drop = recursion_oracle(mu, 0.002, d, c_target=0.4, t_max=10_000)
        t_keep = recursion_oracle(mu, 0.002, d, c_target=0.4, t_max=10_000,
                                  include_negative=True)
        assert t_drop is not None
        assert t_keep is None  # the negative linear term dominates and blocks


class TestLemmaChecks:
    def test_gronwall_tight_case(self):
        rep = gronwall_check(1.0, 1.0, 40)
        assert rep.n_violations == 0
        assert rep.max_excess <= 1e-9

    def test_gronwall_random_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rep = gronwall_check(rng.uniform(1e-3, 0.5), rng.uniform(1e-3, 0.1), 300)
            assert rep.n_violations == 0

    def test_bihari_zero_violations(self):
        rep = bihari_lasalle_check(0.1, 0.01, 3, 500)
        assert rep.n_violations == 0
        assert rep.t_checked_upper > 0
        assert rep.t_checked_lower > 0

    def test_bihari_window_edge_truncation(self):
        a, c, k = 0.2, 0.05, 3
        window = 1 / (c * (k - 2) * a ** (k - 2))
        rep = bihari_lasalle_check(a, c, k, int(window) + 50)
        assert rep.window_truncated
        assert rep.n_violations == 0

    def test_bihari_requires_superlinear(self):
        with pytest.raises(ValueError):
            bihari_lasalle_check(0.1, 0.01, 2, 100)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gronwall_check(-1.0, 0.1, 10)


class TestRecursionVsSimulation:
    @pytest.mark.parametrize("link_k,kind,eta", [
        (2, "online", 0.0),
        (3, "online", 0.0),
        (2, "alternating", 0.001),
        (3, "alternating", 0.001),
    ])
    def test_small_gamma_runs_track_recursion(self, link_k, kind, eta):
        import numpy as np

        from silab import RunConfig, SeedTree, TeacherSpec, run

        d, c = 25, 0.3
        link = hermite_poly(link_k)
        spec = OracleSpec(kind=kind, activation=link, eta=eta)
        mu = mu_table(spec, link, NOISELESS, d)
        gamma = gamma_auto(spec, mu, d) / 10
        t_rec = recursion_oracle(mu, gamma, d, c_target=c, t_max=1_000_000)
        crossings = []
        for seed in range(10):
            cfg = RunConfig(
                teacher=TeacherSpec(d=d, link=link),
                oracle=OracleSpec(kind=kind, activation=link, eta=eta, gamma=gamma),
                n=60_000,
                seed=SeedTree(1900 + link_k, (seed,)),
                batch_size=1,
                weak_threshold=c,
                record_every=1,
            )
            traj = run(cfg)
            crossings.append(math.inf if traj.weak_recovery_step is None
                             else traj.weak_recovery_step)
        ratio = float(np.median(crossings)) / t_rec
        assert 1 / 5 <= ratio <= 5


class TestGammaAuto:
    def test_online_he3(self):
        spec = OracleSpec(kind="online", activation=HE3)
        mu = mu_table(spec, HE3, NOISELESS, 50)
        assert gamma_auto(spec, mu, 50) == pytest.approx(50**-1.5)

    def test_alternating_he3_eta_one(self):
        spec = OracleSpec(kind="alternating", activation=HE3, eta=1.0)
        mu = mu_table(spec, HE3, NOISELESS, 50)
        assert gamma_auto(spec, mu, 50) == pytest.approx(max(50**-1.5, 1.0 / 50))
        assert gamma_auto(spec, mu, 50) == pytest.approx(0.02)

    def test_alternating_small_eta_falls_back(self):
        spec = OracleSpec(kind="alternating", activation=HE3, eta=1e-4)
        mu = mu_table(spec, HE3, NOISELESS, 50)
        assert gamma_auto(spec, mu, 50) == pytest.approx(50**-1.5)

    def test_batch_reuse_eta_inverse_d(self):
        d = 50
        spec = OracleSpec(kind="batch_reuse", activation=HE3, eta=1 / d)
        mu = mu_table(spec, HE3, NOISELESS, d)
        # powers contribute (eta d)^{k-1} d^-(p_k/2 v 1) with p = (3, 2, 1)
        expected = max(d**-1.5, 1.0 / d, 1.0 / d)
        assert gamma_auto(spec, mu, d) == pytest.approx(expected)

    def test_strong_mode(self):
        spec = OracleSpec(kind="online", activation=HE3)
        mu = table((0.0, 4.0, 10.0), d=50)
        got = gamma_auto(spec, mu, 50, mode="strong", eps=0.2, c=0.5)
        expected = 0.2 * max(4.0 * 0.5, 10.0 * 0.25) / 50
        assert got == pytest.approx(expected)

    def test_degenerate_errors(self):
        spec = OracleSpec(kind="online", activation=HE3)
        with pytest.raises(ValueError):
            gamma_auto(spec, table((0.0, 0.0)), 50)
