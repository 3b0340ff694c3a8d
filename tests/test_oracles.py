import math
from dataclasses import replace

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
from silab.hermite import DegreeOverflowError, HermiteExpansion, _moment_zj_hek, expand
from silab.oracles import (
    MuTable,
    _as_batch,
    _corr_moment,
    _istar_set,
    alignment_gain_monte_carlo,
    apply_step,
    mu_monte_carlo,
)
from silab.theory import (
    PhaseBoundary,
    _analytic_exponent,
    _dominant_index,
    _power_attribution,
    _t_value,
    phase_boundaries,
)

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

    def test_index_below_one_rejected(self):
        # alternating He3 at eta = 0.1, d = 50: mu(0) once read the last entry
        mu = mu_table(OracleSpec(kind="alternating", activation=HE3, eta=0.1), HE3, NOISELESS, 50)
        for i in (0, -1):
            with pytest.raises(ValueError, match="mu index must be at least 1"):
                mu.mu(i)
        assert mu.mu(1) == mu.mus[0]
        assert mu.mu(mu.r + 1) == 0.0

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


def _mu_mc(n_draws, blocks, chunk):
    spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
    rng = np.random.default_rng(0)
    return mu_monte_carlo(spec, HE3, NOISELESS, 25, n_draws, rng, chunk=chunk, blocks=blocks)


def _gain_mc(n_draws, blocks, chunk):
    spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
    rng = np.random.default_rng(0)
    return alignment_gain_monte_carlo(spec, HE3, NOISELESS, 25, 0.3, n_draws, rng,
                                      chunk=chunk, blocks=blocks)


class TestMonteCarloArguments:
    """Both sampling routes reject draw counts they cannot use, before drawing."""

    ROUTES = pytest.mark.parametrize("route", [_mu_mc, _gain_mc], ids=["mu", "gain"])

    @ROUTES
    def test_zero_chunk_raises(self, route):
        # used to loop forever: every chunk drew zero samples
        with pytest.raises(ValueError, match="chunk"):
            route(100, 1, 0)

    @ROUTES
    def test_fewer_draws_than_blocks_raises(self, route):
        # used to give nan (mu) or ZeroDivisionError (gain): empty blocks
        with pytest.raises(ValueError, match="n_draws >= blocks"):
            route(3, 4, 10)

    @ROUTES
    def test_zero_blocks_raises(self, route):
        # used to raise ZeroDivisionError from n_draws // blocks
        with pytest.raises(ValueError, match="blocks >= 1"):
            route(100, 0, 10)

    @ROUTES
    def test_smallest_valid_arguments_run(self, route):
        mean, se = route(2, 2, 1)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(se))


class TestSignAssumption:
    def test_single_positive_entry(self):
        mu = MuTable(mus=(0.0, 0.0, 108.0), d=50, components=())
        check = check_sign_assumption(mu)
        assert check.passed and check.istar == (3,)

    def test_negative_candidate_fails(self):
        mu = MuTable(mus=(0.0, -1.0, 0.0), d=50, components=())
        check = check_sign_assumption(mu)
        assert not check.passed and check.istar == (2,)

    def test_competition_picks_index_two(self):
        mu = MuTable(mus=(0.0, 648.0, 108.0), d=50, components=())
        check = check_sign_assumption(mu)
        assert check.passed and check.istar == (2,)

    def test_degenerate_raises(self):
        mu = MuTable(mus=(0.0, 0.0), d=50, components=())
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
                res = apply_step(self.w, self.x, self.y, spec)
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

    def test_deprecated_step_alternating_gives_apply_step_bits(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        want = apply_step(self.w, self.x, self.y, spec)
        with pytest.deprecated_call(match="apply_step"):
            res, a_out = step_alternating(self.w, 1.0, self.x, self.y, spec)
        assert a_out == 1.0
        assert np.array_equal(res.w, want.w)
        assert np.array_equal(res.raw_update, want.raw_update)
        assert res.prenorm == want.prenorm and not res.rejected

    def test_deprecated_step_alternating_rejects_other_a(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        with pytest.deprecated_call(), pytest.raises(ValueError, match="a=1.25"):
            step_alternating(self.w, 1.25, self.x, self.y, spec)

    def test_alternating_eta_zero_equals_online_bitwise(self):
        on = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        alt = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.0)
        a = step_online(self.w, self.x, self.y, on)
        b = apply_step(self.w, self.x, self.y, alt)
        assert np.array_equal(a.w, b.w)

    def test_alternating_gamma_zero(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.0, eta=0.5)
        res = apply_step(self.w, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)

    def test_deep_depth2_matches_alternating_bitwise(self):
        alt = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        deep = OracleSpec(kind="deep_alternating", activation=HE3, gamma=0.05, eta=0.5, depth=2)
        a = apply_step(self.w, self.x, self.y, alt)
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


def _array_reference_step(w, x, y, spec):
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
        atilde = 1.0 + spec.eta * yb * _array_horner(sig, z)
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
            res = apply_step(w, x, y, spec)
            w_ref, g_ref, prenorm_ref = _array_reference_step(w, x, y, spec)
            assert np.array_equal(res.w, w_ref)
            assert np.array_equal(res.raw_update, g_ref)
            assert res.prenorm == prenorm_ref
            assert not res.rejected
            if batch == 1:  # a bare vector and a scalar label take the same path
                single = apply_step(w, x[0], float(y[0]), spec)
                assert np.array_equal(single.w, w_ref)
                assert single.prenorm == prenorm_ref

    @staticmethod
    def _conversion_path(x, y):
        """What _as_batch does for inputs that are not already float arrays."""
        xb = np.asarray(x, dtype=float)
        if xb.ndim == 1:
            xb = xb[None, :]
        yb = np.asarray(y, dtype=float)
        if yb.ndim == 0:
            yb = yb[None]
        return xb, yb

    def test_as_batch_inputs_give_the_conversion_bits(self):
        rng = np.random.default_rng(31)
        d = 25
        block = rng.standard_normal((16, d))
        labels = rng.standard_normal(16)
        wide = rng.standard_normal((8, 2 * d))
        ints = rng.integers(-3, 4, size=(4, d))
        inputs = {
            "row slice": (block[4:8], labels[4:8]),  # views, as run() passes
            "one-row slice": (block[5:6], labels[5:6]),
            "strided view": (wide[::2, 1::2], labels[::4]),
            "int": (ints, ints[:, 0]),
            "float32": (block[:4].astype(np.float32), labels[:4].astype(np.float32)),
            "vector and scalar": (block[0], float(labels[0])),
            "lists": (block[:4].tolist(), labels[:4].tolist()),
        }
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        w = unit(rng.standard_normal(d))
        for name, (x, y) in inputs.items():
            xb, yb = _as_batch(x, y)
            x_ref, y_ref = self._conversion_path(x, y)
            assert xb.dtype == yb.dtype == np.float64, name
            assert xb.ndim == 2 and yb.ndim == 1, name
            assert np.array_equal(xb, x_ref) and np.array_equal(yb, y_ref), name
            res = apply_step(w, x, y, spec)
            ref = apply_step(w, x_ref, y_ref, spec)
            assert np.array_equal(res.w, ref.w), name
            assert np.array_equal(res.raw_update, ref.raw_update), name
            assert res.prenorm == ref.prenorm, name
        # float64 arrays pass through as the very objects np.asarray returns
        for name in ("row slice", "one-row slice", "strided view"):
            x, y = inputs[name]
            xb, yb = _as_batch(x, y)
            assert xb is x and yb is y
            assert xb is np.asarray(x, dtype=float) and yb is np.asarray(y, dtype=float)
        # a contiguous view steps with the bits of its copy
        for name in ("row slice", "one-row slice"):
            x, y = inputs[name]
            res = apply_step(w, x, y, spec)
            ref = apply_step(w, x.copy(), y.copy(), spec)
            assert np.array_equal(res.w, ref.w) and res.prenorm == ref.prenorm
        # other dtypes are converted, never passed through
        for name in ("int", "float32"):
            x, y = inputs[name]
            xb, yb = _as_batch(x, y)
            assert xb is not x and yb is not y

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
        mu = MuTable(mus=(2.0, 3.0, 24.0), d=10, components=())
        k = 0.5
        expected = (2.0 + 3.0 * k + 24.0 * k**2 / 2.0) * (1 - k**2)
        assert expected_alignment_gain(mu, k) == pytest.approx(expected)


# The exact theory written out without memoization: each call rebuilds the
# eta-free polynomials, folds the noise into the label power inline and sums
# every (j, k) pair of the change of basis.


def _reference_expand(p):
    coeffs = []
    for k in range(p.degree + 1):
        u = 0.0
        for j, c in enumerate(p.coeffs):
            if c != 0.0:
                u += c * _moment_zj_hek(j, k)
        coeffs.append(u)
    return HermiteExpansion(tuple(coeffs))


def _reference_folded_power(link, noise, k):
    out = MonomialPoly.zero()
    for l in range(k + 1):
        m = noise.moment(k - l)
        if m != 0.0:
            out = out + link.power(l).scale(math.comb(k, l) * m)
    return out


def _reference_bivariate_product(a, b):
    out = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            prod = qa * qb
            key = ka + kb
            out[key] = out[key] + prod if key in out else prod
    return out


def _reference_psi(spec, d):
    sigma = spec.activation
    sp = sigma.derivative()
    if spec.kind == "online":
        raw = {1: sp}
    elif spec.kind == "alternating":
        raw = {1: sp, 2: (sigma * sp).scale(spec.eta)}
    elif spec.kind == "batch_reuse":
        raw = {1: sp}
        for k in range(2, sigma.degree + 1):
            coeff = (spec.eta * d) ** (k - 1) / math.factorial(k - 1)
            raw[k] = (sigma.derivative(k) * sp.power(k - 1)).scale(coeff)
    else:
        f_levels = [MonomialPoly.monomial(1)]
        for _ in range(1, spec.depth):
            f_levels.append(sigma.compose(f_levels[-1]))
        sp_levels = [sp.compose(f_levels[i - 1]) for i in range(1, spec.depth)]
        acc = {0: MonomialPoly.const(1.0)}
        for i in range(1, spec.depth):
            tail = MonomialPoly.const(1.0)
            for j in range(i + 1, spec.depth):
                tail = tail * sp_levels[j - 1]
            factor = {
                0: sp_levels[i - 1],
                1: (tail * f_levels[i] * sp_levels[i - 1]).scale(spec.eta),
            }
            acc = _reference_bivariate_product(acc, factor)
        raw = {k + 1: q for k, q in acc.items()}
    terms = tuple(sorted((k, q) for k, q in raw.items() if not q.is_zero))
    return terms or ((1, MonomialPoly.zero()),)


def _reference_r(spec, terms):
    return max(q.degree for _, q in terms) + 1


def _reference_mu_table(spec, link, noise, d):
    terms = _reference_psi(spec, d)
    r = _reference_r(spec, terms)
    components = []
    mus = np.zeros(r)
    for k, q in terms:
        u_q = _reference_expand(q)
        u_y = _reference_expand(_reference_folded_power(link, noise, k))
        contrib = tuple(u_y[i] * u_q[i - 1] for i in range(1, r + 1))
        components.append((k, contrib))
        mus += np.array(contrib)
    return tuple(float(v) for v in mus), _istar_set(mus, d), tuple(components)


def _reference_integrand_moments(spec, link, noise, d):
    terms = _reference_psi(spec, d)
    means, variances = [], []
    for i in range(1, _reference_r(spec, terms) + 1):
        hei, heim1 = hermite_poly(i), hermite_poly(i - 1)
        mean = second = 0.0
        for k, qk in terms:
            mean += (_reference_expand(_reference_folded_power(link, noise, k) * hei)[0]
                     * _reference_expand(qk * heim1)[0])
        for k, qk in terms:
            for l, ql in terms:
                e_s = _reference_expand(_reference_folded_power(link, noise, k + l) * hei * hei)[0]
                e_b = _reference_expand(qk * ql * heim1 * heim1)[0]
                second += e_s * e_b
        means.append(mean)
        variances.append(max(second - mean * mean, 0.0))
    return means, variances


def _reference_cross_expect(a_poly, b_poly, kappa):
    total = 0.0
    for alpha, ca in enumerate(a_poly.coeffs):
        if ca == 0.0:
            continue
        for beta, cb in enumerate(b_poly.coeffs):
            if cb == 0.0:
                continue
            total += ca * cb * (
                _corr_moment(alpha + 2, beta, kappa)
                - 2.0 * kappa * _corr_moment(alpha + 1, beta + 1, kappa)
                + kappa * kappa * _corr_moment(alpha, beta + 2, kappa)
            )
    return total


def _reference_gain_moments(spec, link, noise, d, kappa):
    terms = _reference_psi(spec, d)
    mean = 0.0
    for k, qk in terms:
        for alpha, ca in enumerate(_reference_folded_power(link, noise, k).coeffs):
            if ca == 0.0:
                continue
            for beta, cb in enumerate(qk.coeffs):
                if cb == 0.0:
                    continue
                mean += ca * cb * (_corr_moment(alpha + 1, beta, kappa)
                                   - kappa * _corr_moment(alpha, beta + 1, kappa))
    second = 0.0
    for k, qk in terms:
        for l, ql in terms:
            second += _reference_cross_expect(
                _reference_folded_power(link, noise, k + l), qk * ql, kappa)
    return mean, max(second - mean * mean, 0.0)


HE2 = hermite_poly(2)
NEG_HE3 = HE3.scale(-1.0)
FRAC = MonomialPoly((0.2, -1.1, 0.35, 0.45))
FRAC2 = MonomialPoly((-0.1, 0.7, 0.3))
ACT_NAMES = {HE3: "He3", NEG_HE3: "-He3", HE2: "He2", FRAC: "frac3", FRAC2: "frac2"}
NOISES = [NOISELESS, NoiseSpec("gaussian", 0.5), NoiseSpec("laplace", 0.3)]
ETAS = (0.0, 1e-3, 0.21, 1.0)


class TestMemoizedTheoryBitIdentity:
    """mu_table and the exact moments equal the unmemoized formulas bit for bit."""

    # (kind, activation, depth, d); the inexact coefficients of FRAC and
    # FRAC2 make the products' rounding, and so their order, show in the bits
    CASES = [
        ("online", HE3, 2, 50),
        ("online", NEG_HE3, 2, 50),
        ("alternating", HE3, 2, 50),
        ("alternating", FRAC, 2, 25),
        ("batch_reuse", HE3, 2, 10),
        ("batch_reuse", FRAC, 2, 100),
        ("deep_alternating", HE3, 2, 50),
        ("deep_alternating", HE2, 3, 50),
        ("deep_alternating", FRAC2, 3, 25),
    ]
    IDS = [f"{k}-{ACT_NAMES[s]}-depth{D}-d{d}" for k, s, D, d in CASES]

    @pytest.mark.parametrize("link", [HE3, HE2], ids=["He3", "He2"])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_mu_table(self, case, noise, link):
        kind, act, depth, d = case
        for eta in ETAS:
            spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
            mus, istar, components = _reference_mu_table(spec, link, noise, d)
            tab = mu_table(spec, link, noise, d)
            assert effective_psi(spec, d).terms == _reference_psi(spec, d)
            assert tab.mus == mus
            assert tab.istar == istar
            assert tab.components == components
            assert repr(tab.components) == repr(components)  # signed zeros too

    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_exact_moments(self, case, noise):
        from silab.oracles import alignment_gain_moments, mu_integrand_moments

        kind, act, depth, d = case
        for eta in ETAS[1:3]:
            spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
            means, variances = mu_integrand_moments(spec, HE3, noise, d)
            ref_means, ref_variances = _reference_integrand_moments(spec, HE3, noise, d)
            assert means.tolist() == ref_means
            assert variances.tolist() == ref_variances
            for kappa in (0.05, 0.5):
                got = alignment_gain_moments(spec, HE3, noise, d, kappa)
                assert got == _reference_gain_moments(spec, HE3, noise, d, kappa)

    @pytest.mark.parametrize("first, second", [
        (OracleSpec(kind="alternating", activation=HE3, eta=0.3),
         OracleSpec(kind="alternating", activation=HE2 + HE3, eta=0.3)),
        (OracleSpec(kind="deep_alternating", activation=HE2, eta=0.3, depth=2),
         OracleSpec(kind="deep_alternating", activation=HE2, eta=0.3, depth=3)),
    ], ids=["activation", "depth"])
    def test_specs_differing_in_one_key_get_their_own_tables(self, first, second):
        d = 50
        tables = [mu_table(spec, HE3, NOISELESS, d) for spec in (first, second, first, second)]
        assert tables[0].mus != tables[1].mus
        for spec, tab in zip((first, second) * 2, tables):
            assert tab.mus == _reference_mu_table(spec, HE3, NOISELESS, d)[0]

    def test_noise_scales_get_their_own_label_expansions(self):
        # the y^3 term sees tau through E[(link + zeta)^3] = link^3 + 3 tau^2 link
        spec = OracleSpec(kind="batch_reuse", activation=HE3, eta=0.3)
        for tau in (0.5, 0.25, 0.5):
            noise = NoiseSpec("gaussian", tau)
            assert mu_table(spec, HE3, noise, 50).mus == _reference_mu_table(
                spec, HE3, noise, 50)[0]

    @pytest.mark.parametrize("coeffs", [
        (0.0,),
        (0.0, 1.5, 0.0, -2.0, 0.0, 0.25),
        (3.0, 0.0, -1.0, 0.0, 0.5),
        (-0.1, 0.2, -0.3, 0.4, -0.5, 0.6, -0.7),
        (0.0, 0.0, 0.0, -4.0),
        (1e-300, -1e300, 0.0, 3.5, -0.0, 1e-17, 2.0),
    ], ids=["zero", "odd", "even", "mixed-signs", "monomial", "wide-range"])
    def test_expand_matches_full_double_loop(self, coeffs):
        p = MonomialPoly(coeffs)
        got, want = expand(p), _reference_expand(p)
        assert got.coeffs == want.coeffs
        assert repr(got.coeffs) == repr(want.coeffs)


# The phase scan written out as it was before log T was read once per table:
# every (i, j) pair reads mu_i, mu_j and both T values from every grid table.


def _reference_phase_boundaries(mu_of_eta, d, eta_range, spec, grid=256):
    lo, hi = eta_range
    etas = np.geomspace(lo, hi, grid)
    tables = [mu_of_eta(float(e)) for e in etas]
    r = tables[0].r
    kind = spec.kind
    out = []
    seen_pairs = set()
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            diffs = []
            for tab in tables:
                if tab.mu(i) > 0 and tab.mu(j) > 0:
                    diffs.append(math.log(_t_value(tab, i, d)) - math.log(_t_value(tab, j, d)))
                else:
                    diffs.append(math.nan)
            for g in range(grid - 1):
                a, b = diffs[g], diffs[g + 1]
                if math.isnan(a) or math.isnan(b) or a * b > 0:
                    continue
                e_lo, e_hi = float(etas[g]), float(etas[g + 1])
                f_lo = a
                for _ in range(200):
                    mid = math.sqrt(e_lo * e_hi)
                    tab = mu_of_eta(mid)
                    fm = math.log(_t_value(tab, i, d)) - math.log(_t_value(tab, j, d))
                    if fm == 0.0 or (e_hi - e_lo) <= 1e-15 * e_lo:
                        e_lo = e_hi = mid
                        break
                    if (fm > 0) == (f_lo > 0):
                        e_lo, f_lo = mid, fm
                    else:
                        e_hi = mid
                eta_star = math.sqrt(e_lo * e_hi)
                if (i, j) in seen_pairs:
                    continue
                seen_pairs.add((i, j))
                ref = mu_of_eta(eta_star)
                ki, kj = _power_attribution(ref, i), _power_attribution(ref, j)
                exponent = powers = None
                if ki is not None and kj is not None and ki != kj:
                    if ki < kj:
                        exponent = _analytic_exponent(kind, i, j, ki, kj)
                    else:
                        exponent = _analytic_exponent(kind, j, i, kj, ki)
                    powers = (ki, kj)
                dom_lo = _dominant_index(mu_of_eta(eta_star * 0.99), d)
                dom_hi = _dominant_index(mu_of_eta(eta_star * 1.01), d)
                out.append(PhaseBoundary(i, j, eta_star, exponent, powers, False,
                                         {dom_lo, dom_hi} == {i, j}))
    leading = {}
    for k, contrib in tables[-1].components:
        nz = [idx + 1 for idx, v in enumerate(contrib) if v != 0.0]
        if nz:
            leading.setdefault(min(nz), []).append(k)
    for m, ks in leading.items():
        ks = sorted(ks)
        for a_idx in range(len(ks)):
            for b_idx in range(a_idx + 1, len(ks)):
                exp = _analytic_exponent(kind, m, m, ks[a_idx], ks[b_idx])
                out.append(PhaseBoundary(m, m, float(d**exp), exp, (ks[a_idx], ks[b_idx]),
                                         True, False))
    return tuple(sorted(out, key=lambda b: (b.eta_star, b.i, b.j)))


def _reference_table(spec, link, noise, d):
    mus, _, components = _reference_mu_table(spec, link, noise, d)
    return MuTable(mus=mus, d=d, components=components)


Z2 = MonomialPoly.monomial(2)
HE3_Z2 = HE3 + MonomialPoly((0.0, 0.0, 0.3))


class TestPhaseScanBitIdentity:
    """phase_boundaries over tables from the per-family plan equals the old
    pair loop over tables built from MonomialPoly, bit for bit."""

    # (kind, activation, depth, link, eta range): each scan finds a crossing
    # at d = 25 at least
    CASES = [
        ("alternating", HE3, 2, HE3, (1e-3, 1.0)),
        ("batch_reuse", HE3, 2, HE3, (1e-3, 1.0)),
        ("deep_alternating", HE3, 2, HE3, (1e-3, 1.0)),
        ("deep_alternating", Z2, 3, HE3 + HE2.scale(0.5), (1e-4, 30.0)),
        ("deep_alternating", HE3_Z2, 3, HE3, (1e-6, 1e3)),
    ]
    IDS = ["alternating-He3", "batch_reuse-He3", "deep-He3-depth2", "deep-z2-depth3",
           "deep-He3+0.3z2-depth3"]

    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_scan(self, case, noise, d):
        kind, act, depth, link, eta_range = case
        spec = OracleSpec(kind=kind, activation=act, depth=depth)
        got = phase_boundaries(
            lambda e: mu_table(replace(spec, eta=e), link, noise, d), d, eta_range, spec=spec)
        want = _reference_phase_boundaries(
            lambda e: _reference_table(replace(spec, eta=e), link, noise, d), d, eta_range, spec)
        assert want if d == 400 else any(not b.degenerate for b in want)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_table_edges(self, case):
        # eta = 0 drops the eta terms
        kind, act, depth, _, _ = case
        for noise in NOISES:
            for eta in (0.0, 0.3):
                spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
                got = mu_table(spec, HE3, noise, 50)
                want = _reference_table(spec, HE3, noise, 50)
                assert got == want
                assert repr(got) == repr(want)

    def test_depth4_overflow_message(self):
        spec = OracleSpec(kind="deep_alternating", activation=HE3, eta=0.3, depth=4)
        message = "product has degree 62, above the supported cap 60"
        with pytest.raises(DegreeOverflowError) as ref:
            _reference_psi(spec, 50)
        assert str(ref.value) == message
        for call in (lambda: mu_table(spec, HE3, NOISELESS, 50),
                     lambda: effective_psi(spec, 50)):
            with pytest.raises(DegreeOverflowError) as got:
                call()
            assert str(got.value) == message
