import math
import pickle
from dataclasses import FrozenInstanceError, replace

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
)
from silab.hermite import (
    DegreeOverflowError,
    HermiteExpansion,
    _hermite_block,
    _is_zero,
    _moment_zj_hek,
    _pscale,
    expand,
)
from silab.oracles import (
    ORACLE_KINDS,
    MuTable,
    _bivariate_product,
    _corr_moment,
    _istar_set,
    _psi_polys,
    _psi_terms,
    alignment_gain_monte_carlo,
    apply_step,
    mu_monte_carlo,
)
from silab import oracles, theory
from silab.theory import (
    PHASE_GRID,
    PhaseBoundary,
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


def _mu_mc(n_draws, blocks, **kw):
    spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
    rng = np.random.default_rng(0)
    return mu_monte_carlo(spec, HE3, NOISELESS, 25, n_draws, rng, blocks=blocks, **kw)


def _gain_mc(n_draws, blocks, **kw):
    spec = OracleSpec(kind="alternating", activation=HE3, eta=0.5)
    rng = np.random.default_rng(0)
    return alignment_gain_monte_carlo(spec, HE3, NOISELESS, 25, 0.3, n_draws, rng,
                                      blocks=blocks, **kw)


def _set_chunks(monkeypatch, chunk):
    """Make both sampling routes draw `chunk` samples at a time."""
    monkeypatch.setattr(oracles, "MU_MC_CHUNK", chunk)
    monkeypatch.setattr(oracles, "GAIN_MC_CHUNK", chunk)


class TestMonteCarloArguments:
    """Both sampling routes reject draw counts they cannot use, before drawing."""

    ROUTES = pytest.mark.parametrize("route", [_mu_mc, _gain_mc], ids=["mu", "gain"])

    @ROUTES
    def test_chunk_is_no_argument(self, route):
        # the chunk size is a module constant, not a setting
        with pytest.raises(TypeError, match="chunk"):
            route(100, 1, chunk=10)

    @ROUTES
    def test_fewer_draws_than_blocks_raises(self, route):
        # used to give nan (mu) or ZeroDivisionError (gain): empty blocks
        with pytest.raises(ValueError, match="n_draws >= blocks"):
            route(3, 4)

    @ROUTES
    def test_zero_blocks_raises(self, route):
        # used to raise ZeroDivisionError from n_draws // blocks
        with pytest.raises(ValueError, match="blocks >= 1"):
            route(100, 0)

    @ROUTES
    def test_smallest_valid_arguments_run(self, route, monkeypatch):
        _set_chunks(monkeypatch, 1)
        mean, se = route(2, 2)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(se))


def _reference_mu_monte_carlo(spec, link, noise, d, n_draws, rng, chunk, blocks):
    """mu_monte_carlo with its own block loop, as it was before the two
    sampling routes shared one median-of-means estimator."""
    psi = effective_psi(spec, d)
    r = psi.z_degree + 1
    per_block = n_draws // blocks
    block_means = np.zeros((blocks, r))
    total_sq = np.zeros(r)
    for blk in range(blocks):
        seen = 0
        while seen < per_block:
            m = min(chunk, per_block - seen)
            s = rng.standard_normal(m)
            b = rng.standard_normal(m)
            y = link(s) + noise.draw(rng, m)
            psi_val = psi(y, b)
            he_s = _hermite_block(s, r)
            he_b = _hermite_block(b, r - 1)
            for i in range(1, r + 1):
                v = psi_val * he_s[i] * he_b[i - 1]
                block_means[blk, i - 1] += v.sum()
                total_sq[i - 1] += (v * v).sum()
            seen += m
        block_means[blk] /= per_block
    used = per_block * blocks
    mean = block_means[0] if blocks == 1 else np.median(block_means, axis=0)
    var = np.maximum(total_sq / used - block_means.mean(axis=0) ** 2, 0.0)
    return mean, np.sqrt(var / used)


def _reference_gain_monte_carlo(spec, link, noise, d, kappa, n_draws, rng, chunk, blocks):
    """alignment_gain_monte_carlo with its own scalar block loop, as it was
    before the two sampling routes shared one median-of-means estimator."""
    psi = effective_psi(spec, d)
    theta = np.zeros(d)
    theta[0] = 1.0
    w = np.zeros(d)
    w[0] = kappa
    w[1] = math.sqrt(1.0 - kappa**2)
    per_block = n_draws // blocks
    block_means = np.zeros(blocks)
    total_sq = 0.0
    for blk in range(blocks):
        seen = 0
        acc = 0.0
        while seen < per_block:
            m = min(chunk, per_block - seen)
            x = rng.standard_normal((m, d))
            z = x @ w
            s = x @ theta
            y = link(s) + noise.draw(rng, m)
            v = psi(y, z) * (s - kappa * z)
            acc += v.sum()
            total_sq += (v * v).sum()
            seen += m
        block_means[blk] = acc / per_block
    used = per_block * blocks
    mean = float(block_means[0] if blocks == 1 else np.median(block_means))
    var = max(total_sq / used - block_means.mean() ** 2, 0.0)
    return mean, math.sqrt(var / used)


class TestMonteCarloBitIdentity:
    """Both sampling routes give the bits of their former block loops."""

    DRAWS = pytest.mark.parametrize("n_draws, chunk, blocks", [
        (2000, 600, 1),    # the last chunk is short
        (1600, 100, 16),   # chunks tile each block
        (1700, 40, 16),    # 106 draws a block: chunks split it unevenly
    ])
    NOISE = pytest.mark.parametrize("noise", [NOISELESS, NoiseSpec("gaussian", 0.5)],
                                    ids=["noiseless", "gaussian"])
    SPECS = pytest.mark.parametrize("spec", [
        OracleSpec(kind="alternating", activation=HE3, eta=0.5),
        OracleSpec(kind="deep_alternating", activation=hermite_poly(2), eta=0.3, depth=3),
    ], ids=["alternating", "deep"])

    @SPECS
    @NOISE
    @DRAWS
    def test_mu(self, spec, noise, n_draws, chunk, blocks, monkeypatch):
        _set_chunks(monkeypatch, chunk)
        got = mu_monte_carlo(spec, HE3, noise, 10, n_draws, np.random.default_rng(5),
                             blocks=blocks)
        want = _reference_mu_monte_carlo(spec, HE3, noise, 10, n_draws,
                                         np.random.default_rng(5), chunk, blocks)
        assert all(type(a) is np.ndarray for a in got)
        assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want])

    @SPECS
    @NOISE
    @DRAWS
    def test_gain(self, spec, noise, n_draws, chunk, blocks, monkeypatch):
        _set_chunks(monkeypatch, chunk)
        got = alignment_gain_monte_carlo(spec, HE3, noise, 10, 0.3, n_draws,
                                         np.random.default_rng(5), blocks=blocks)
        want = _reference_gain_monte_carlo(spec, HE3, noise, 10, 0.3, n_draws,
                                           np.random.default_rng(5), chunk, blocks)
        assert all(type(a) is float for a in got)
        assert repr(got) == repr(want)

    def test_default_chunks(self):
        """The chunk sizes are the former defaults, so every caller that never
        set one (the acceptance suite's Monte Carlo checks) draws the same
        stream; 250,000 and 60,000 draws span two chunks of each route."""
        assert (oracles.MU_MC_CHUNK, oracles.GAIN_MC_CHUNK) == (200_000, 50_000)
        spec, noise = OracleSpec(kind="alternating", activation=HE3, eta=0.5), NOISELESS
        got = mu_monte_carlo(spec, HE3, noise, 10, 250_000, np.random.default_rng(5))
        want = _reference_mu_monte_carlo(spec, HE3, noise, 10, 250_000,
                                         np.random.default_rng(5), 200_000, 1)
        assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want])
        got = alignment_gain_monte_carlo(spec, HE3, noise, 10, 0.3, 60_000,
                                         np.random.default_rng(5))
        want = _reference_gain_monte_carlo(spec, HE3, noise, 10, 0.3, 60_000,
                                           np.random.default_rng(5), 50_000, 1)
        assert repr(got) == repr(want)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        # a non-finite entry has no meaningful score; with no finite one,
        # istar was empty and the check passed as all(())
        mu = MuTable(mus=(0.0, bad, 108.0), d=50, components=())
        with pytest.raises(ValueError, match="not finite"):
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
        res = apply_step(self.w, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_zero_weight_step_is_rejected(self, batch):
        """A zero w and zero labels give a zero update, so w + gamma v has
        norm 0: the step cannot renormalize and hands w back rejected."""
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.1, eta=0.5)
        w = np.zeros(self.d)
        x = self.rng.standard_normal((batch, self.d))
        res = apply_step(w, x, np.zeros(batch), spec)
        assert res.rejected is True and res.prenorm == 0.0
        assert res.w is w and np.all(w == 0.0)

    def test_raw_update_orthogonal_to_w(self):
        specs = [
            OracleSpec(kind="online", activation=HE3, gamma=0.1),
            OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.1, eta=1e-3),
            OracleSpec(kind="alternating", activation=HE3, gamma=0.1, eta=0.5),
            OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                       gamma=0.1, eta=0.5, depth=3),
        ]
        for spec in specs:
            res = apply_step(self.w, self.x, self.y, spec)
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
        res = apply_step(w, theta, 1.0, spec)
        np.testing.assert_allclose(res.w, (w + theta) / math.sqrt(2), atol=1e-15)
        assert res.w @ theta == pytest.approx(1 / math.sqrt(2))

    def test_batch_reuse_eta_zero_equals_online_bitwise(self):
        on = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        br = OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=0.0)
        a = apply_step(self.w, self.x, self.y, on)
        b = apply_step(self.w, self.x, self.y, br)
        assert np.array_equal(a.w, b.w)

    def test_batch_reuse_matches_straightline_reference(self):
        spec = OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=1e-3)
        res = apply_step(self.w, self.x, self.y, spec)
        # independent two-step reference
        sp = HE3.derivative()
        pw = np.eye(self.d) - np.outer(self.w, self.w)
        w_tilde = self.w + spec.eta * self.y * sp(float(self.x @ self.w)) * (pw @ self.x)
        g = self.y * sp(float(self.x @ w_tilde)) * (pw @ self.x)
        ref = self.w + spec.gamma * g
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(res.w, ref, atol=1e-12)

    def test_alternating_eta_zero_equals_online_bitwise(self):
        on = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        alt = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.0)
        a = apply_step(self.w, self.x, self.y, on)
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
        b = apply_step(self.w, self.x, self.y, deep)
        assert np.array_equal(a.w, b.w)

    def test_deep_eta_zero_product_rule(self):
        # sigma = z^2, D = 3: the w-step coefficient is y * 2z * 2z^2 = 4yz^3
        sq = MonomialPoly.monomial(2)
        spec = OracleSpec(kind="deep_alternating", activation=sq, gamma=0.05, eta=0.0, depth=3)
        res = apply_step(self.w, self.x, self.y, spec)
        z = float(self.x @ self.w)
        pw_x = self.x - self.w * z
        expected = 4.0 * self.y * z**3 * pw_x
        np.testing.assert_allclose(res.raw_update, expected, rtol=1e-12)

    def test_deep_gamma_zero(self):
        sq = MonomialPoly.monomial(2)
        spec = OracleSpec(kind="deep_alternating", activation=sq, gamma=0.0, eta=0.5, depth=3)
        res = apply_step(self.w, self.x, self.y, spec)
        np.testing.assert_array_equal(res.w, self.w)

    def test_batch_averages_raw_updates(self):
        spec = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        xs = self.rng.standard_normal((4, self.d))
        ys = self.rng.standard_normal(4)
        batched = apply_step(self.w, xs, ys, spec)
        singles = [apply_step(self.w, xs[i], ys[i], spec).raw_update for i in range(4)]
        np.testing.assert_allclose(batched.raw_update, np.mean(singles, axis=0), atol=1e-14)

    def test_step_result_is_an_immutable_record(self):
        spec = OracleSpec(kind="online", activation=HE3, gamma=0.05)
        res = apply_step(self.w, self.x, self.y, spec)
        w, raw_update, prenorm, rejected = res
        assert w is res.w and raw_update is res.raw_update
        assert prenorm == res.prenorm and rejected is res.rejected is False
        with pytest.raises(AttributeError):
            res.w = self.w

    def test_used_spec_pickles_and_steps_alike(self):
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        before = apply_step(self.w, self.x, self.y, spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        after = apply_step(self.w, self.x, self.y, copy)
        assert np.array_equal(before.w, after.w) and before.prenorm == after.prenorm


    def test_spec_is_frozen_and_a_replaced_spec_steps_with_its_own_eta(self):
        """The step coefficient is cached on first use, so a spec cannot
        change its eta in place; replace builds a spec with its own."""
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05)
        before = apply_step(self.w, self.x, self.y, spec)
        with pytest.raises(FrozenInstanceError):
            spec.eta = 1.0
        got = apply_step(self.w, self.x, self.y, replace(spec, eta=1.0))
        want = apply_step(self.w, self.x, self.y,
                          OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=1.0))
        assert np.array_equal(got.w, want.w) and got.prenorm == want.prenorm
        assert not np.array_equal(got.w, before.w)


class TestOracleSpecDepth:
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("depth", [3.0, 2.5, True, np.float64(3)], ids=repr)
    def test_non_integer_count_rejected(self, kind, depth):
        # depth=3.0 used to build, and mu_table then died inside range
        with pytest.raises(ValueError, match="^depth must be an integer, got "):
            OracleSpec(kind=kind, activation=HE3, eta=0.5, depth=depth)

    def test_numpy_integer_depth_accepted(self):
        spec = OracleSpec(kind="deep_alternating", activation=HE3, eta=0.5, depth=np.int64(3))
        want = OracleSpec(kind="deep_alternating", activation=HE3, eta=0.5, depth=3)
        assert mu_table(spec, HE3, NOISELESS, 50).mus == mu_table(want, HE3, NOISELESS, 50).mus


class TestBatchCounts:
    """A step needs one label per sample and at least one sample."""

    SPEC = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.w = unit(rng.standard_normal(6))
        self.x = rng.standard_normal((3, 6))

    def test_fewer_labels_than_samples(self):
        with pytest.raises(ValueError, match="3 samples and 1 labels"):
            apply_step(self.w, self.x, np.array([1.0]), self.SPEC)

    def test_more_labels_than_samples(self):
        with pytest.raises(ValueError, match="1 samples and 2 labels"):
            apply_step(self.w, self.x[:1], np.array([1.0, -1.0]), self.SPEC)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="0 samples and 0 labels"):
            apply_step(self.w, self.x[:0], np.empty(0), self.SPEC)

    @pytest.mark.parametrize("rows", [3, 1])
    def test_labels_must_be_one_dimensional(self, rows):
        # (3, 1) labels used to fail inside the projection with numpy's
        # broadcast error, and a (1, 1) label used to step
        y = np.ones((rows, 1))
        with pytest.raises(ValueError, match=rf"labels of shape \({rows}, 1\)"):
            apply_step(self.w, self.x[:rows], y, self.SPEC)


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
    ] + [
        # sigma' constant (the one-coefficient Horner case), and zero and -0.0
        # coefficients inside the activation and inside sigma'
        pytest.param(OracleSpec(kind=kind, activation=act, gamma=0.05, eta=0.5, depth=3),
                     id=f"{kind}-{name}")
        for name, act in (("linear", MonomialPoly((0.3, 1.5))),
                          ("signed-zeros", MonomialPoly((0.5, 0.0, -0.0, -0.0, 0.25))))
        for kind in ORACLE_KINDS
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

    @pytest.mark.parametrize("spec", [
        OracleSpec(kind="online", activation=HE3, gamma=0.05),
        OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.05, eta=0.5),
        OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5),
        OracleSpec(kind="deep_alternating", activation=MonomialPoly.monomial(2),
                   gamma=0.05, eta=0.5, depth=3),
    ], ids=lambda s: s.kind)
    def test_one_sample_same_bits_however_passed(self, spec):
        """A 1-D row with a float label and a (1, d) block with (1,) labels
        step alike, with the bits of the array formulas on the block. For
        batch_reuse that needs |x|^2 as an einsum: x.dot(x) differs from it in
        the last bit on about half of all draws at d = 25."""
        rng = np.random.default_rng(4242)
        d = 25
        for trial in range(200):
            w = unit(rng.standard_normal(d))
            x = rng.standard_normal(d)
            y = float(HE3(x[0]))
            w_ref, g_ref, prenorm_ref = _array_reference_step(w, x[None, :], [y], spec)
            for xs, ys in ((x, y), (x[None, :], np.array([y]))):
                res = apply_step(w, xs, ys, spec)
                assert res.w.tobytes() == w_ref.tobytes(), trial
                assert res.raw_update.tobytes() == g_ref.tobytes(), trial
                assert res.prenorm == prenorm_ref and not res.rejected

    def test_row_views_step_with_the_bits_of_their_copies(self):
        """run() passes rows and row slices of its drawn data; a view steps
        as its contiguous copy does."""
        rng = np.random.default_rng(31)
        d = 25
        block = rng.standard_normal((16, d))
        labels = rng.standard_normal(16)
        spec = OracleSpec(kind="alternating", activation=HE3, gamma=0.05, eta=0.5)
        w = unit(rng.standard_normal(d))
        for x, y in ((block[4:8], labels[4:8]), (block[5:6], labels[5:6])):
            res = apply_step(w, x, y, spec)
            ref = apply_step(w, x.copy(), y.copy(), spec)
            assert res.w.tobytes() == ref.w.tobytes() and res.prenorm == ref.prenorm
        res = apply_step(w, block[5], float(labels[5]), spec)
        ref = apply_step(w, block[5].copy(), float(labels[5]), spec)
        assert res.w.tobytes() == ref.w.tobytes() and res.prenorm == ref.prenorm

    @pytest.mark.parametrize(
        "poly",
        [HE3, HE3.derivative(), MonomialPoly.monomial(2), MonomialPoly.monomial(1),
         MonomialPoly.const(2.5), MonomialPoly.zero(),
         MonomialPoly((0.5, 0.0, -0.0, -0.0, 0.25))],
        ids=["He3", "He3'", "z2", "z", "const", "zero", "signed-zeros"],
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


class TestAlignmentInputs:
    """An alignment is a correlation: the exact gain, its moments and its
    Monte Carlo estimate all refuse a kappa that is not finite with
    |kappa| <= 1, before a moment is computed or cached."""

    SPEC = OracleSpec(kind="alternating", activation=HE3, eta=0.1)

    def _routes(self, kappa):
        from silab.oracles import alignment_gain_moments

        mu = mu_table(self.SPEC, HE3, NOISELESS, 50)
        rng = np.random.default_rng(0)
        return (
            lambda: expected_alignment_gain(mu, kappa),
            lambda: alignment_gain_moments(self.SPEC, HE3, NOISELESS, 50, kappa),
            lambda: alignment_gain_monte_carlo(self.SPEC, HE3, NOISELESS, 50, kappa, 100, rng),
        )

    @pytest.mark.parametrize("kappa", [1.5, -1.5, math.nextafter(1.0, 2.0), math.nan,
                                       math.inf, -math.inf])
    def test_refused(self, kappa):
        _corr_moment.cache_clear()
        for call in self._routes(kappa):
            with pytest.raises(ValueError, match=r"kappa must be finite with \|kappa\| <= 1"):
                call()
        assert _corr_moment.cache_info().currsize == 0

    @pytest.mark.parametrize("kappa", [-1.0, -0.0, 0.0, 0.5, 1.0])
    def test_edges_accepted(self, kappa):
        gain, (mean, var), (est, se) = (call() for call in self._routes(kappa))
        assert all(math.isfinite(v) for v in (gain, mean, var, est, se))


class TestDimensionInputs:
    """Every exact and sampled route takes psi's terms from _psi_terms, which
    refuses a d that is not an integer >= 1 before any table is built."""

    def _routes(self, spec, d):
        from silab.oracles import alignment_gain_moments, mu_integrand_moments

        rng = np.random.default_rng(0)
        return (
            lambda: mu_table(spec, HE3, NOISELESS, d),
            lambda: mu_integrand_moments(spec, HE3, NOISELESS, d),
            lambda: alignment_gain_moments(spec, HE3, NOISELESS, d, 0.2),
            lambda: effective_psi(spec, d),
            lambda: mu_monte_carlo(spec, HE3, NOISELESS, d, 100, rng),
            lambda: alignment_gain_monte_carlo(spec, HE3, NOISELESS, d, 0.2, 100, rng),
        )

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("d", [0, -1, -3, 2.5, 50.0, True, np.int64(0), np.float64(50)],
                             ids=repr)
    def test_refused(self, kind, d):
        spec = OracleSpec(kind=kind, activation=HE3, eta=0.1)
        for call in self._routes(spec, d):
            with pytest.raises(ValueError, match=r"d must be an integer >= 1, got "):
                call()

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_numpy_integer_is_the_int(self, kind):
        spec = OracleSpec(kind=kind, activation=HE3, eta=0.1)
        assert repr(mu_table(spec, HE3, NOISELESS, np.int64(50)).mus) == repr(
            mu_table(spec, HE3, NOISELESS, 50).mus)
        assert mu_table(spec, HE3, NOISELESS, 1).d == 1


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


# the moment itself, without _corr_moment's cache
_fresh_corr_moment = _corr_moment.__wrapped__


def _reference_cross_expect(a_poly, b_poly, kappa):
    total = 0.0
    for alpha, ca in enumerate(a_poly.coeffs):
        if ca == 0.0:
            continue
        for beta, cb in enumerate(b_poly.coeffs):
            if cb == 0.0:
                continue
            total += ca * cb * (
                _fresh_corr_moment(alpha + 2, beta, kappa)
                - 2.0 * kappa * _fresh_corr_moment(alpha + 1, beta + 1, kappa)
                + kappa * kappa * _fresh_corr_moment(alpha, beta + 2, kappa)
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
                mean += ca * cb * (_fresh_corr_moment(alpha + 1, beta, kappa)
                                   - kappa * _fresh_corr_moment(alpha, beta + 1, kappa))
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

    def test_gain_moments_read_across_calls_from_a_bounded_cache(self):
        # kinds, noises and kappas interleave, twice over, so that most
        # moments come from the cache that earlier queries filled. 0.2 and
        # the next float above it get their own entries; 0.0 and -0.0 share
        # one, and must still give the bits of a fresh evaluation.
        from silab.oracles import alignment_gain_moments

        kappas = (0.2, 0.05, math.nextafter(0.2, 1.0), 0.5, 0.0, -0.0, 0.2)
        queries = [
            (case, noise, kappa)
            for kappa in kappas
            for case in self.CASES
            for noise in NOISES
        ]
        for case, noise, kappa in queries + queries[::-1]:
            kind, act, depth, d = case
            spec = OracleSpec(kind=kind, activation=act, eta=0.21, depth=depth)
            got = alignment_gain_moments(spec, HE3, noise, d, kappa)
            want = _reference_gain_moments(spec, HE3, noise, d, kappa)
            assert repr(got) == repr(want)
        info = _corr_moment.cache_info()
        assert info.hits > 0
        assert info.maxsize is not None and info.currsize <= info.maxsize

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_kappas_of_one_spec_form_the_pair_products_once(self, case, monkeypatch):
        # the kappa-free terms and pair products come from a bounded cache
        # shared by both exact routes: the first kappa forms every q_k q_l,
        # and the later kappas and mu_integrand_moments read them from it
        from silab import oracles

        kind, act, depth, d = case
        spec = OracleSpec(kind=kind, activation=act, eta=0.21, depth=depth)
        n_terms = len(effective_psi(spec, d).terms)
        kappas = (0.05, 0.2, 0.5)
        want = [_reference_gain_moments(spec, HE3, NOISELESS, d, kappa) for kappa in kappas]
        oracles._psi_terms_and_pairs.cache_clear()
        products = []
        real_pmul = oracles._pmul

        def spy(a, b):
            products.append((a, b))
            return real_pmul(a, b)

        monkeypatch.setattr(oracles, "_pmul", spy)
        counts = []
        for kappa, ref in zip(kappas, want):
            before = len(products)
            got = oracles.alignment_gain_moments(spec, HE3, NOISELESS, d, kappa)
            counts.append(len(products) - before)
            assert repr(got) == repr(ref)
        # deep_alternating's terms are themselves products over the layers
        assert counts[0] >= n_terms**2 and counts[1:] == [0, 0]
        if kind != "deep_alternating":
            assert counts[0] == n_terms**2
        oracles.mu_integrand_moments(spec, HE3, NOISELESS, d)
        info = oracles._psi_terms_and_pairs.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert info.maxsize is not None

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
# It states its own T, argmin, power attribution and d-exponent, and its own
# two rules: a grid cell whose two ends tie (log T_i = log T_j at both) does
# not bracket, and a within-index boundary counts only inside eta_range.


def _ref_log_t(tab, i, d):
    """log T_i = log(d^(max((i-2)/2, 0)) / mu_i), and inf where mu_i <= 0."""
    m = tab.mu(i)
    return math.log(d ** max((i - 2) / 2.0, 0.0) / m) if m > 0 else math.inf


def _ref_dominant(tab, d):
    """The index of the least T over positive mu, the lowest on ties."""
    times = [(d ** max((i - 2) / 2.0, 0.0) / tab.mu(i), i)
             for i in range(1, tab.r + 1) if tab.mu(i) > 0]
    return min(times)[1] if times else None


def _ref_power(tab, i):
    """The one y-power whose component at index i is nonzero, else None."""
    powers = [k for k, c in tab.components if c[i - 1] != 0.0]
    return powers[0] if len(powers) == 1 else None


def _ref_exponent(kind, m_lo, m_hi, k_lo, k_hi):
    """d-exponent of the eta where the y^k_lo term at index m_lo meets the
    y^k_hi term at index m_hi (k_lo < k_hi): T_m ~ d^(max(m-1, 1)/2) over
    eta^(k-1), less one for batch_reuse, whose rate is eta d."""
    exp = (max(m_hi - 1, 1) - max(m_lo - 1, 1)) / (2.0 * (k_hi - k_lo))
    return exp - 1.0 if kind == "batch_reuse" else exp


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
                    diffs.append(_ref_log_t(tab, i, d) - _ref_log_t(tab, j, d))
                else:
                    diffs.append(math.nan)
            for g in range(grid - 1):
                a, b = diffs[g], diffs[g + 1]
                if math.isnan(a) or math.isnan(b) or a * b > 0 or a == b == 0.0:
                    continue
                e_lo, e_hi = float(etas[g]), float(etas[g + 1])
                f_lo = a
                for _ in range(200):
                    mid = math.sqrt(e_lo * e_hi)
                    tab = mu_of_eta(mid)
                    fm = _ref_log_t(tab, i, d) - _ref_log_t(tab, j, d)
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
                ki, kj = _ref_power(ref, i), _ref_power(ref, j)
                exponent = powers = None
                if ki is not None and kj is not None and ki != kj:
                    if ki < kj:
                        exponent = _ref_exponent(kind, i, j, ki, kj)
                    else:
                        exponent = _ref_exponent(kind, j, i, kj, ki)
                    powers = (ki, kj)
                dom_lo = _ref_dominant(mu_of_eta(eta_star * 0.99), d)
                dom_hi = _ref_dominant(mu_of_eta(eta_star * 1.01), d)
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
                exp = _ref_exponent(kind, m, m, ks[a_idx], ks[b_idx])
                if lo <= d**exp <= hi:
                    out.append(PhaseBoundary(m, m, float(d**exp), exp, (ks[a_idx], ks[b_idx]),
                                             True, False))
    return tuple(sorted(out, key=lambda b: (b.eta_star, b.i, b.j)))


def _reference_table(spec, link, noise, d):
    mus, _, components = _reference_mu_table(spec, link, noise, d)
    return MuTable(mus=mus, d=d, components=components)


Z2 = MonomialPoly.monomial(2)
HE3_Z2 = HE3 + MonomialPoly((0.0, 0.0, 0.3))
HE3_HE4 = HE3 + hermite_poly(4).scale(0.3)


class TestPhaseScanBitIdentity:
    """phase_boundaries, which reads its grid signs off the two end tables,
    over tables from the per-family plan equals the full pair loop over every
    grid table built from MonomialPoly, bit for bit."""

    # (kind, activation, depth, link, eta range): each scan but online's (its
    # table does not depend on eta) finds a crossing at d = 25 at least
    CASES = [
        ("online", HE3 + HE2.scale(0.5), 2, HE3 + HE2.scale(0.5), (1e-3, 1.0)),
        ("alternating", HE3, 2, HE3, (1e-3, 1.0)),
        ("batch_reuse", HE3, 2, HE3, (1e-3, 1.0)),
        ("batch_reuse", HE3_HE4, 2, HE3, (1e-8, 10.0)),
        ("deep_alternating", HE3, 2, HE3, (1e-3, 1.0)),
        ("deep_alternating", Z2, 3, HE3 + HE2.scale(0.5), (1e-4, 30.0)),
        ("deep_alternating", HE3_Z2, 3, HE3, (1e-6, 1e3)),
    ]
    IDS = ["online-He3+0.5He2", "alternating-He3", "batch_reuse-He3", "batch_reuse-He3+0.3He4",
           "deep-He3-depth2", "deep-z2-depth3", "deep-He3+0.3z2-depth3"]

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
        if kind == "online":
            assert want == ()
        else:
            assert want if d == 400 else any(not b.degenerate for b in want)
        assert got == want
        assert repr(got) == repr(want)

    # the theory_atlas families, each over the atlas' eta range
    ATLAS = [("alternating", HE3, 2), ("batch_reuse", HE3, 2), ("deep_alternating", Z2, 3)]
    ATLAS_IDS = ["alternating", "batch_reuse", "deep-z2"]

    @staticmethod
    def _atlas_scan(family, noise, d):
        """The scan's boundaries and the etas of the real tables it built."""
        kind, act, depth = family
        spec = OracleSpec(kind=kind, activation=act, depth=depth)
        calls = []

        def spy(e):
            calls.append(e)
            return mu_table(replace(spec, eta=e), HE3, noise, d)

        return phase_boundaries(spy, d, (1e-3, 1.0), spec=spec), calls

    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("family", ATLAS, ids=ATLAS_IDS)
    def test_no_interior_grid_table(self, family, noise, d):
        _, calls = self._atlas_scan(family, noise, d)
        grid = [float(e) for e in np.geomspace(1e-3, 1.0, PHASE_GRID)]
        assert calls[:2] == [grid[0], grid[-1]]
        assert not set(calls) & set(grid[1:-1])

    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("family", ATLAS, ids=ATLAS_IDS)
    def test_bisection_reads_its_signs_off_c(self, family, noise, d):
        # a bisection from one grid cell to 1e-15 relative takes about 45
        # midpoints, and each crossing adds two probes: 47 real tables a
        # crossing when every midpoint builds one. Reading each midpoint's
        # sign off C leaves the ~23 midpoints within about 1e-9 relative of
        # the root, so about 25.
        bounds, calls = self._atlas_scan(family, noise, d)
        crossings = sum(not b.degenerate for b in bounds)
        if family[0] == "deep_alternating":
            assert crossings == 0
        else:
            assert crossings >= 1
        assert len(calls) - 2 <= 30 * crossings

    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("family", ATLAS, ids=ATLAS_IDS)
    def test_no_table_at_a_crossing(self, family, noise, d):
        # a crossing's y-powers are read off the top end table, so eta* gets
        # a table only as the midpoint where the bisection met T_i = T_j
        bounds, calls = self._atlas_scan(family, noise, d)
        kind, act, depth = family
        for b in bounds:
            if not b.degenerate:
                spec = OracleSpec(kind=kind, activation=act, eta=b.eta_star, depth=depth)
                tab = mu_table(spec, HE3, noise, d)
                tie = math.log(_t_value(tab, b.i, d)) == math.log(_t_value(tab, b.j, d))
                assert calls.count(b.eta_star) <= tie

    @staticmethod
    def _spy_pair_verdicts(monkeypatch):
        """Record every call of the pair verdict: (i, j, decided), with index
        arrays for the grid and ints for a bisection midpoint."""
        calls = []
        verdict = theory._c_pair

        def spy(fit, i, j, mb_i, mb_j):
            out = verdict(fit, i, j, mb_i, mb_j)
            calls.append((i, j, out[1]))
            return out

        monkeypatch.setattr(theory, "_c_pair", spy)
        return calls

    # live pairs, those with no index whose components are all 0.0: 6 of the
    # 15 pairs of alternating He3 (r = 6), 10 of the 21 of batch_reuse He3
    # (r = 7) and 3 of the 66 of deep z2 at depth 3 (r = 12)
    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("family, live", zip(ATLAS, (6, 10, 3)), ids=ATLAS_IDS)
    def test_grid_verdict_reads_only_live_pairs(self, family, live, noise, d, monkeypatch):
        calls = self._spy_pair_verdicts(monkeypatch)
        self._atlas_scan(family, noise, d)
        grid = [(i, j) for i, j, _ in calls if isinstance(i, np.ndarray)]
        assert len(grid) == 1
        i, j = grid[0]
        kind, act, depth = family
        spec = OracleSpec(kind=kind, activation=act, eta=1.0, depth=depth)
        end = mu_table(spec, HE3, noise, d)
        nonzero = {n for n in range(end.r) if any(c[n] != 0.0 for _, c in end.components)}
        want = [(a, b) for a in sorted(nonzero) for b in sorted(nonzero) if a < b]
        assert list(zip(i.tolist(), j.tolist())) == want
        assert len(want) == live

    @pytest.mark.parametrize("d", [25, 400])
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.family)
    @pytest.mark.parametrize("family", ATLAS[:2], ids=ATLAS_IDS[:2])
    def test_bisection_stops_asking_c_once_in_doubt(self, family, noise, d, monkeypatch):
        # each crossing asks C at its midpoints until C first leaves the sign
        # in doubt, near the root; that midpoint and the later ones build
        # their real tables without a verdict
        calls = self._spy_pair_verdicts(monkeypatch)
        bounds, _ = self._atlas_scan(family, noise, d)
        per_crossing: dict = {}
        for i, j, decided in calls:
            if not isinstance(i, np.ndarray):
                per_crossing.setdefault((i + 1, j + 1), []).append(bool(decided))
        assert sorted(per_crossing) == sorted((b.i, b.j) for b in bounds if not b.degenerate)
        for verdicts in per_crossing.values():
            assert verdicts[-1] is False
            assert all(verdicts[:-1])

    def test_end_tables_off_the_polynomial_read_every_grid_table(self):
        # component 2 times (1 + eta) is not C eta^(k-1): the ends disagree on C
        spec = OracleSpec(kind="alternating", activation=HE3)
        d = 25

        def bent(e, calls=None):
            if calls is not None:
                calls.append(e)
            tab = mu_table(replace(spec, eta=e), HE3, NOISELESS, d)
            components = tuple(
                (k, tuple(v * (1.0 + e) for v in c) if k == 2 else c) for k, c in tab.components)
            mus = [0.0] * tab.r
            for _, c in components:
                mus = [m + v for m, v in zip(mus, c)]
            return MuTable(mus=tuple(mus), d=d, components=components)

        calls = []
        got = phase_boundaries(lambda e: bent(e, calls), d, (1e-3, 1.0), spec=spec)
        want = _reference_phase_boundaries(bent, d, (1e-3, 1.0), spec)
        assert any(not b.degenerate for b in want)
        assert got == want
        assert repr(got) == repr(want)
        grid = [float(e) for e in np.geomspace(1e-3, 1.0, PHASE_GRID)]
        assert sorted(calls[:PHASE_GRID]) == grid

    def test_a_pair_tied_at_every_eta_has_no_crossing(self):
        # one y-power with mu = (0, 0, 36, 360) at d = 100: T_3 = 10/36 = T_4
        # at every eta, the table of online --link 3.75,-3,-7.5,1,1.25
        # --act 1.5,-3,-3,1,0.5
        d = 100
        tab = MuTable(mus=(0.0, 0.0, 36.0, 360.0), d=d,
                      components=((1, (0.0, 0.0, 36.0, 360.0)),))
        spec = OracleSpec(kind="online", activation=HE3)
        assert _t_value(tab, 3, d) == _t_value(tab, 4, d)
        got = phase_boundaries(lambda e: tab, d, (1e-3, 1.0), spec=spec)
        assert got == () == _reference_phase_boundaries(lambda e: tab, d, (1e-3, 1.0), spec)

    def test_a_tied_pair_beside_a_crossing(self):
        # the y^2 term at index 2 (T_2 = 1/(648 eta)) meets the tied pair
        # T_3 = T_4 = 10/36 at eta = 36/6480: (2, 3) and (2, 4) cross there,
        # (3, 4) never does
        d = 100

        def tab(e):
            comps = ((1, (0.0, 0.0, 36.0, 360.0)), (2, (0.0, 648.0 * e, 0.0, 0.0)))
            return MuTable(mus=(0.0, 648.0 * e, 36.0, 360.0), d=d, components=comps)

        spec = OracleSpec(kind="alternating", activation=HE3)
        got = phase_boundaries(tab, d, (1e-3, 1.0), spec=spec)
        want = _reference_phase_boundaries(tab, d, (1e-3, 1.0), spec)
        assert [(b.i, b.j, b.argmin_switch) for b in got] == [(2, 3, True), (2, 4, False)]
        assert got[0].eta_star == pytest.approx(36 / 6480, rel=1e-12)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("kind, eta_range", [
        ("alternating", (1e-6, 1e-3)), ("alternating", (1e-3, 1.0)),
        ("batch_reuse", (1.0, 10.0)), ("batch_reuse", (1e-3, 1e-2)), ("batch_reuse", (0.02, 1.0)),
    ])
    def test_within_index_boundary_only_inside_the_range(self, kind, eta_range):
        # He2 against He2 at d = 50: the y and y^2 terms both lead at index 2,
        # at d**0 = 1 for alternating and d**-1 = 0.02 for batch_reuse; each
        # end of the range counts as inside
        d = 50
        spec = OracleSpec(kind=kind, activation=HE2)

        def mu_fn(e):
            return mu_table(replace(spec, eta=e), HE2, NOISELESS, d)

        got = phase_boundaries(mu_fn, d, eta_range, spec=spec)
        edge = 1.0 if kind == "alternating" else 0.02
        inside = eta_range[0] <= edge <= eta_range[1]
        assert [(b.i, b.j, b.eta_star, b.powers) for b in got if b.degenerate] == (
            [(2, 2, edge, (1, 2))] if inside else [])
        assert got == _reference_phase_boundaries(mu_fn, d, eta_range, spec)

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


def _per_kind_psi_terms(parts, kind, eta, d):
    """_psi_terms with one branch per oracle kind, each with its own eta rate."""
    if kind == "online":
        raw = {1: parts[0]}
    elif kind == "alternating":
        raw = {1: parts[0], 2: _pscale(eta, parts[1])}
    elif kind == "batch_reuse":
        raw = {1: parts[0]}
        for k in range(2, len(parts) + 1):
            coeff = (eta * d) ** (k - 1) / math.factorial(k - 1)
            raw[k] = _pscale(coeff, parts[k - 1])
    else:
        acc = {0: (1.0,)}
        for sp_level, eta_part in zip(parts[::2], parts[1::2]):
            acc = _bivariate_product(acc, {0: sp_level, 1: _pscale(eta, eta_part)})
        raw = {k + 1: q for k, q in acc.items()}
    terms = [(k, raw[k]) for k in sorted(raw) if not _is_zero(raw[k])]
    return terms or [(1, (0.0,))]


def _per_kind_gamma_auto(spec, mu, d):
    """gamma_auto with an online branch and a per-kind eta rate."""
    if spec.kind == "online":
        p = theory._first_nonzero(mu.mus)
        if p is None:
            raise ValueError("degenerate oracle: every mu_i vanishes")
        return float(d ** -max(p / 2.0, 1.0))
    terms = []
    for k, contrib in sorted(dict(mu.components).items()):
        p_k = theory._first_nonzero(contrib)
        if p_k is None:
            continue
        if spec.kind in ("alternating", "deep_alternating"):
            scale = spec.eta ** (k - 1)
        else:
            scale = (spec.eta * d) ** (k - 1)
        terms.append(scale * d ** -max(p_k / 2.0, 1.0))
    if not terms:
        raise ValueError("degenerate oracle: every mu_i vanishes")
    return float(max(terms))


def _outcome(call):
    try:
        return repr(call())
    except ValueError as err:
        return f"ValueError: {err}"


ZERO_COEF = MonomialPoly((0.4, 0.0, 0.0, 0.7))  # sigma' = 2.1 z^2: a 0.0 inside
CONST = MonomialPoly((0.7,))  # sigma' = 0: psi is the zero fallback


class TestOneEtaRate:
    """_psi_terms and gamma_auto, which take each kind's eta rate from
    _rate_power, equal one branch per kind, bit for bit."""

    @pytest.mark.parametrize("d", [10, 50])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("act", [HE3, FRAC, ZERO_COEF, CONST],
                             ids=["He3", "frac3", "zero-coef", "const"])
    def test_matches_per_kind_branches(self, act, kind, d):
        depth = 3 if kind == "deep_alternating" else 2
        parts = _psi_polys(act, kind, depth)
        for eta in (0.0, 1e-3, 1 / d, 1.0, 3.0):
            got = _psi_terms(parts, kind, eta, d)
            assert repr(got) == repr(_per_kind_psi_terms(parts, kind, eta, d))
            spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
            for link in (HE3, HE2):
                mu = mu_table(spec, link, NOISELESS, d)
                assert _outcome(lambda: theory.gamma_auto(spec, mu, d)) == _outcome(
                    lambda: _per_kind_gamma_auto(spec, mu, d))
