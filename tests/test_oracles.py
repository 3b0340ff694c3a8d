import math

import numpy as np
import pytest

from silab import (
    hermite_eval,
    MonomialPoly,
    NoiseSpec,
    OracleSpec,
    check_sign_assumption,
    effective_psi,
    expected_alignment_gain,
    hermite_poly,
    mu_table,
    step_alternating,
    step_batch_reuse,
    step_deep_alternating,
    step_online,
)
from silab.oracles import MuTable, alignment_gain_monte_carlo, apply_step, mu_monte_carlo

HE3 = hermite_poly(3)
NOISELESS = NoiseSpec()


def unit(v):
    return v / np.linalg.norm(v)


class TestEffectivePsi:
    def test_online_is_y_sigma_prime(self):
        psi = effective_psi(OracleSpec(kind="online", activation=HE3), d=50)
        assert psi.terms == ((1, HE3.derivative()),)

    def test_alternating_he3(self):
        eta = 0.25
        psi = effective_psi(OracleSpec(kind="alternating", activation=HE3, eta=eta), d=50)
        assert psi.term(1) == HE3.derivative()
        # sigma * sigma' = 3z^5 - 12z^3 + 9z
        assert psi.term(2).coeffs == (0.0, 9 * eta, 0.0, -12 * eta, 0.0, 3 * eta)

    def test_batch_reuse_eta_zero_degenerates(self):
        psi = effective_psi(OracleSpec(kind="batch_reuse", activation=HE3, eta=0.0), d=50)
        assert psi.terms == ((1, HE3.derivative()),)

    def test_batch_reuse_taylor_coefficients(self):
        eta, d = 1e-3, 50
        psi = effective_psi(OracleSpec(kind="batch_reuse", activation=HE3, eta=eta), d=d)
        sp = HE3.derivative()
        assert psi.term(2) == (HE3.derivative(2) * sp).scale(eta * d)
        assert psi.term(3) == (HE3.derivative(3) * sp * sp).scale((eta * d) ** 2 / 2)

    def test_deep_depth2_equals_alternating(self):
        eta = 0.1
        deep = effective_psi(
            OracleSpec(kind="deep_alternating", activation=HE3, eta=eta, depth=2), d=10
        )
        alt = effective_psi(OracleSpec(kind="alternating", activation=HE3, eta=eta), d=10)
        assert deep.terms == alt.terms

    def test_deep_depth_degree_overflow(self):
        from silab import DegreeOverflowError

        sq = MonomialPoly.monomial(2)
        with pytest.raises(DegreeOverflowError):
            effective_psi(OracleSpec(kind="deep_alternating", activation=sq,
                                     eta=0.5, depth=8), d=10)

    def test_deep_square_activation_depth3(self):
        sq = MonomialPoly.monomial(2)
        eta = 0.5
        psi = effective_psi(
            OracleSpec(kind="deep_alternating", activation=sq, eta=eta, depth=3), d=10
        )
        # y (1 + 2 eta y z^4)(1 + eta y z^4) (2z)(2z^2)
        assert psi.term(1).coeffs == (0.0, 0.0, 0.0, 4.0)
        assert psi.term(2).coeffs == (0.0,) * 7 + (12.0 * eta,)
        assert psi.term(3).coeffs == (0.0,) * 11 + (8.0 * eta**2,)


class TestMuTable:
    def test_online_he3(self):
        mu = mu_table(OracleSpec(kind="online", activation=HE3), HE3, NOISELESS, 50)
        # u_3(He_3) * u_2(He_3') = 6 * 6; indices 1, 2 vanish by orthogonality
        assert mu.mus == (0.0, 0.0, 36.0)

    def test_online_eta_independent(self):
        a = mu_table(OracleSpec(kind="online", activation=HE3, eta=0.0), HE3, NOISELESS, 50)
        b = mu_table(OracleSpec(kind="online", activation=HE3, eta=0.7), HE3, NOISELESS, 50)
        assert a.mus == b.mus

    def test_alternating_he3_closed_form(self):
        for eta in (0.0, 0.3, 1.0):
            mu = mu_table(
                OracleSpec(kind="alternating", activation=HE3, eta=eta), HE3, NOISELESS, 50
            )
            assert mu.mu(2) == pytest.approx(648.0 * eta)
            assert mu.mu(3) == pytest.approx(36.0)
            assert mu.mu(4) == pytest.approx(23328.0 * eta)
            assert mu.mu(6) == pytest.approx(259200.0 * eta)

    def test_alternating_monotone_in_eta(self):
        etas = np.linspace(0, 1, 7)
        tables = [
            mu_table(OracleSpec(kind="alternating", activation=HE3, eta=e), HE3, NOISELESS, 50)
            for e in etas
        ]
        for i in range(1, 7):
            vals = [t.mu(i) for t in tables]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gaussian_noise_changes_only_even_power_terms(self):
        spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
        clean = mu_table(spec, HE3, NOISELESS, 50)
        noisy = mu_table(spec, HE3, NoiseSpec("gaussian", 0.5), 50)
        # E_zeta[(link + zeta)^2] = link^2 + tau^2 shifts only u_0, so the
        # i >= 1 table is unchanged for the alternating oracle.
        assert noisy.mus == clean.mus

    def test_batch_reuse_noise_folding(self):
        spec = OracleSpec(kind="batch_reuse", activation=HE3, eta=1e-3)
        tau = 0.5
        clean = mu_table(spec, HE3, NOISELESS, 50)
        noisy = mu_table(spec, HE3, NoiseSpec("gaussian", tau), 50)
        # the cubic label power picks up 3 tau^2 * link from the noise
        comp_clean = dict(clean.components)[3]
        comp_noisy = dict(noisy.components)[3]
        psi3 = effective_psi(spec, 50).term(3)
        from silab import expand

        u_q = expand(psi3)
        u_link = expand(HE3)
        expected_delta = tuple(
            3 * tau**2 * u_link[i] * u_q[i - 1] for i in range(1, clean.r + 1)
        )
        assert comp_noisy == pytest.approx(
            tuple(c + d for c, d in zip(comp_clean, expected_delta))
        )

    def test_monte_carlo_agreement_smoke(self):
        rng = np.random.default_rng(123)
        spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
        mu = mu_table(spec, HE3, NOISELESS, 25)
        est, se = mu_monte_carlo(spec, HE3, NOISELESS, 25, 400_000, rng)
        for i in range(mu.r):
            assert abs(est[i] - mu.mus[i]) <= 5 * se[i] + 1e-9


class TestSignAssumption:
    def test_single_positive_entry(self):
        mu = MuTable(mus=(0.0, 0.0, 108.0), d=50, istar=(3,), components=())
        check = check_sign_assumption(mu)
        assert check.passed and check.istar == (3,)

    def test_negative_candidate_fails(self):
        mu = MuTable(mus=(0.0, -1.0, 0.0), d=50, istar=(2,), components=())
        check = check_sign_assumption(mu)
        assert not check.passed and check.istar == (2,)

    def test_competition_picks_index_two(self):
        mu = MuTable(mus=(0.0, 648.0, 108.0), d=50, istar=(), components=())
        check = check_sign_assumption(mu)
        assert check.passed and check.istar == (2,)

    def test_degenerate_raises(self):
        mu = MuTable(mus=(0.0, 0.0), d=50, istar=(), components=())
        with pytest.raises(ValueError, match="degenerate"):
            check_sign_assumption(mu)


class TestSteps:
    def setup_method(self):
        rng = np.random.default_rng(99)
        self.d = 12
        self.w = unit(rng.standard_normal(self.d))
        self.x = rng.standard_normal(self.d)
        self.y = 1.7
        self.rng = rng

    def test_gamma_zero_keeps_w(self):
        spec = OracleSpec(kind="online", activation=HE3, gamma=0.0)
        res = step_online(self.w, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)

    def test_raw_update_orthogonal_to_w(self):
        specs = [
            OracleSpec(kind="online", activation=HE3, gamma=0.1),
            OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.1, eta=1e-3),
            OracleSpec(kind="alternating", activation=HE3, gamma=0.1, eta=0.5),
            OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                       gamma=0.1, eta=0.5, depth=3),
        ]
        for spec in specs:
            if spec.kind == "alternating":
                res, _ = step_alternating(self.w, 1.0, self.x, self.y, spec)
            elif spec.kind == "batch_reuse":
                res = step_batch_reuse(self.w, self.x, self.y, spec)
            elif spec.kind == "deep_alternating":
                res = step_deep_alternating(self.w, self.x, self.y, spec)
            else:
                res = step_online(self.w, self.x, self.y, spec)
            assert abs(res.raw_update @ self.w) <= 1e-10
            assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-12)

    def test_online_hand_case(self):
        # sigma = He_1 so sigma' = 1; x = theta, w orthogonal, gamma = 1
        d = 6
        theta = np.zeros(d)
        theta[0] = 1.0
        w = np.zeros(d)
        w[1] = 1.0
        spec = OracleSpec(kind="online", activation=hermite_poly(1), gamma=1.0)
        res = step_online(w, theta, 1.0, spec)
        np.testing.assert_allclose(res.w, (w + theta) / math.sqrt(2), atol=1e-15)
        assert res.w @ theta == pytest.approx(1 / math.sqrt(2))

    def test_batch_reuse_eta_zero_equals_online_bitwise(self):
        on = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        br = OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=0.0)
        a = step_online(self.w, self.x, self.y, on)
        b = step_batch_reuse(self.w, self.x, self.y, br)
        assert np.array_equal(a.w, b.w)

    def test_batch_reuse_matches_straightline_reference(self):
        spec = OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=1e-3)
        res = step_batch_reuse(self.w, self.x, self.y, spec)
        # independent two-step reference
        sp = HE3.derivative()
        pw = np.eye(self.d) - np.outer(self.w, self.w)
        w_tilde = self.w + spec.eta * self.y * sp(float(self.x @ self.w)) * (pw @ self.x)
        g = self.y * sp(float(self.x @ w_tilde)) * (pw @ self.x)
        ref = self.w + spec.gamma * g
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(res.w, ref, atol=1e-12)

    def test_alternating_returns_input_a_exactly(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        res, a_out = step_alternating(self.w, 1.25, self.x, self.y, spec)
        assert a_out == 1.25
        assert not np.array_equal(res.w, self.w)

    def test_alternating_eta_zero_equals_online_bitwise(self):
        on = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        alt = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.0)
        a = step_online(self.w, self.x, self.y, on)
        b, _ = step_alternating(self.w, 1.0, self.x, self.y, alt)
        assert np.array_equal(a.w, b.w)

    def test_alternating_gamma_zero(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.0, eta=0.5)
        res, a_out = step_alternating(self.w, 1.0, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)
        assert a_out == 1.0

    def test_deep_depth2_matches_alternating_bitwise(self):
        alt = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        deep = OracleSpec(kind="deep_alternating", activation=HE3, gamma=0.05, eta=0.5, depth=2)
        a, _ = step_alternating(self.w, 1.0, self.x, self.y, alt)
        b = step_deep_alternating(self.w, self.x, self.y, deep)
        assert np.array_equal(a.w, b.w)

    def test_deep_eta_zero_product_rule(self):
        # sigma = z^2, D = 3: the w-step coefficient is y * 2z * 2z^2 = 4yz^3
        sq = MonomialPoly.monomial(2)
        spec = OracleSpec(kind="deep_alternating", activation=sq, gamma=0.05, eta=0.0, depth=3)
        res = step_deep_alternating(self.w, self.x, self.y, spec)
        z = float(self.x @ self.w)
        pw_x = self.x - self.w * z
        expected = 4.0 * self.y * z**3 * pw_x
        np.testing.assert_allclose(res.raw_update, expected, rtol=1e-12)

    def test_deep_gamma_zero(self):
        sq = MonomialPoly.monomial(2)
        spec = OracleSpec(kind="deep_alternating", activation=sq, gamma=0.0, eta=0.5, depth=3)
        res = step_deep_alternating(self.w, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)

    def test_batch_averages_raw_updates(self):
        spec = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        xs = self.rng.standard_normal((4, self.d))
        ys = self.rng.standard_normal(4)
        batched = step_online(self.w, xs, ys, spec)
        singles = [step_online(self.w, xs[i], ys[i], spec).raw_update for i in range(4)]
        np.testing.assert_allclose(batched.raw_update, np.mean(singles, axis=0), atol=1e-14)


def _array_horner(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _array_reference_step(w, x, y, spec, a):
    """One step written as whole-batch array formulas: z = x w, the per-sample
    coefficient c, the mean x^T c / B, the projection and np.linalg.norm."""
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    yb = np.atleast_1d(np.asarray(y, dtype=float))
    sig = spec.activation.coeffs
    sp = spec.activation.derivative().coeffs
    z = xb @ w
    if spec.kind == "online":
        c = yb * _array_horner(sp, z)
    elif spec.kind == "batch_reuse":
        proj_sq = np.einsum("ij,ij->i", xb, xb) - z * z
        t = z + spec.eta * yb * _array_horner(sp, z) * proj_sq
        c = yb * _array_horner(sp, t)
    elif spec.kind == "alternating":
        atilde = a + spec.eta * yb * _array_horner(sig, z)
        c = (yb * atilde) * _array_horner(sp, z)
    else:
        f_vals = [z]
        for _ in range(1, spec.depth):
            f_vals.append(_array_horner(sig, f_vals[-1]))
        sp_vals = [_array_horner(sp, f_vals[i - 1]) for i in range(1, spec.depth)]
        c = yb
        for i in range(1, spec.depth):
            tail = np.ones_like(z)
            for j in range(i + 1, spec.depth):
                tail = tail * sp_vals[j - 1]
            atilde = 1.0 + spec.eta * yb * tail * f_vals[i]
            c = (c * atilde) * sp_vals[i - 1]
    v = xb.T @ c / c.shape[0]
    g = v - w * (w @ v)
    u = w + spec.gamma * g
    prenorm = float(np.linalg.norm(u))
    return u / prenorm, g, prenorm


class TestStepCoreBitIdentity:
    SPECS = [
        OracleSpec(kind="online", activation=HE3, gamma=0.05),
        OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=1e-3),
        OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5),
        OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                   gamma=0.05, eta=0.5, depth=3),
        OracleSpec(kind="deep_alternating", activation=HE3, gamma=0.05, eta=0.5, depth=2),
    ]

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-depth{s.depth}")
    def test_apply_step_matches_array_formulas(self, spec, batch):
        rng = np.random.default_rng(2024)
        d = 25
        for trial in range(20):
            w = unit(rng.standard_normal(d))
            x = rng.standard_normal((batch, d))
            y = HE3(x @ unit(rng.standard_normal(d)))
            a = 1.0 + 0.1 * trial
            res = apply_step(w, x, y, spec, a=a)
            w_ref, g_ref, prenorm_ref = _array_reference_step(w, x, y, spec, a)
            assert np.array_equal(res.w, w_ref)
            assert np.array_equal(res.raw_update, g_ref)
            assert res.prenorm == prenorm_ref
            assert not res.rejected
            if batch == 1:  # a bare vector and a scalar label take the same path
                single = apply_step(w, x[0], float(y[0]), spec, a=a)
                assert np.array_equal(single.w, w_ref)
                assert single.prenorm == prenorm_ref

    @pytest.mark.parametrize(
        "poly",
        [HE3, HE3.derivative(), MonomialPoly.monomial(2), MonomialPoly.monomial(1),
         MonomialPoly.const(2.5), MonomialPoly.zero()],
        ids=["He3", "He3'", "z2", "z", "const", "zero"],
    )
    def test_poly_call_matches_general_horner(self, poly):
        def general(z):
            acc = np.zeros_like(np.asarray(z, dtype=float)) + poly.coeffs[-1]
            for c in reversed(poly.coeffs[:-1]):
                acc = acc * z + c
            return float(acc) if np.isscalar(z) else acc

        for z in (1.37, -2, np.asarray(0.61), np.array([-1.3, 0.0, 0.7, 2.9])):
            got, want = poly(z), general(z)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


class TestExactIntegrandMoments:
    def test_mean_route_agrees_with_table(self):
        from silab.oracles import mu_integrand_moments

        for noise in (NOISELESS, NoiseSpec("gaussian", 0.5)):
            spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
            mu = mu_table(spec, HE3, noise, 50)
            means, variances = mu_integrand_moments(spec, HE3, noise, 50)
            np.testing.assert_allclose(means, mu.mus, rtol=1e-12)
            assert np.all(variances >= 0)

    def test_gain_mean_route_agrees_with_stein_expansion(self):
        from silab.oracles import alignment_gain_moments

        spec = OracleSpec(kind="batch_reuse", activation=HE3, eta=0.02)
        for noise in (NOISELESS, NoiseSpec("laplace", 0.3)):
            mu = mu_table(spec, HE3, noise, 50)
            for kappa in (0.05, 0.3, 0.7):
                mean, var = alignment_gain_moments(spec, HE3, noise, 50, kappa)
                assert mean == pytest.approx(expected_alignment_gain(mu, kappa), rel=1e-9)
                assert var >= 0

    def test_exact_variance_matches_sampling(self):
        from silab.oracles import mu_integrand_moments

        spec = OracleSpec(kind="online", activation=HE3)
        _, variances = mu_integrand_moments(spec, HE3, NOISELESS, 50)
        rng = np.random.default_rng(6)
        n = 200_000
        s = rng.standard_normal(n)
        b = rng.standard_normal(n)
        x = HE3(s) * HE3.derivative()(b) * hermite_eval(3, s) * hermite_eval(2, b)
        # fourth-moment-based 4-sigma window for the sample variance
        sample_var = x.var()
        fourth = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt(max(fourth - sample_var**2, 0) / n)
        assert abs(sample_var - variances[2]) <= 4 * se_var


class TestSteinIdentity:
    def test_online_drift_matches_prediction(self):
        rng = np.random.default_rng(77)
        spec = OracleSpec(kind="online", activation=HE3)
        mu = mu_table(spec, HE3, NOISELESS, 25)
        for kappa in (0.2, 0.5):
            est, se = alignment_gain_monte_carlo(spec, HE3, NOISELESS, 25, kappa, 300_000, rng)
            assert abs(est - expected_alignment_gain(mu, kappa)) <= 5 * se

    def test_gain_formula_factorials(self):
        mu = MuTable(mus=(2.0, 3.0, 24.0), d=10, istar=(1,), components=())
        k = 0.5
        expected = (2.0 + 3.0 * k + 24.0 * k**2 / 2.0) * (1 - k**2)
        assert expected_alignment_gain(mu, k) == pytest.approx(expected)
