import math

import numpy as np
import pytest

from silab import (
    MonomialPoly,
    NoiseSpec,
    SeedTree,
    TeacherSpec,
    alignment,
    draw_batch,
    draw_sample,
    hermite_poly,
    init_network,
)
from silab.model import unit_vector


def he3_teacher(d=10, noise=NoiseSpec()):
    return TeacherSpec(d=d, link=hermite_poly(3), noise=noise)


class TestSeedTree:
    def test_reproducible_bit_for_bit(self):
        t = he3_teacher()
        a = draw_batch(t, 64, SeedTree(9, (1, 2)).rng())
        b = draw_batch(t, 64, SeedTree(9, (1, 2)).rng())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_distinct_paths_differ(self):
        t = he3_teacher()
        a = draw_batch(t, 64, SeedTree(9, (1, 2)).rng())
        b = draw_batch(t, 64, SeedTree(9, (1, 3)).rng())
        assert not np.array_equal(a[0], b[0])

    def test_negative_size_names_the_sample_count(self):
        with pytest.raises(ValueError, match="sample count must be nonnegative, got -2"):
            draw_batch(he3_teacher(), -2, SeedTree(0).rng())

    def test_zero_size_gives_empty_arrays(self):
        x, y = draw_batch(he3_teacher(d=4), 0, SeedTree(0).rng())
        assert x.shape == (0, 4) and y.shape == (0,)

    def test_digest_stable(self):
        assert SeedTree(5, (0,)).digest() == SeedTree(5, (0,)).digest()
        assert SeedTree(5, (0,)).digest() != SeedTree(5, (1,)).digest()


class TestNoise:
    def test_moments_gaussian(self):
        n = NoiseSpec("gaussian", 0.5)
        assert n.moment(0) == 1.0
        assert n.moment(1) == 0.0
        assert n.moment(2) == pytest.approx(0.25)
        assert n.moment(4) == pytest.approx(3 * 0.5**4)

    def test_moments_laplace(self):
        n = NoiseSpec("laplace", 2.0)
        assert n.moment(2) == pytest.approx(2 * 4.0)
        assert n.moment(3) == 0.0
        assert n.moment(4) == pytest.approx(24 * 16.0)

    def test_empirical_moments(self):
        rng = np.random.default_rng(0)
        for fam in ("gaussian", "laplace"):
            n = NoiseSpec(fam, 0.7)
            draws = n.draw(rng, 400_000)
            for j in (2, 4):
                se = np.std(draws**j) / math.sqrt(draws.size)
                assert abs(np.mean(draws**j) - n.moment(j)) <= 4 * se

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 1.0)


class TestDrawSample:
    def test_noiseless_label_is_link_of_projection(self):
        t = he3_teacher()
        s = draw_sample(t, SeedTree(1).rng())
        z = float(s.x @ t.theta_star)
        assert s.y == pytest.approx(z**3 - 3 * z, rel=1e-12)

    def test_pinned_projection_value(self):
        # He_3 at z = 2 gives 8 - 6 = 2
        t = he3_teacher()
        assert t.link(2.0) == pytest.approx(2.0)

    def test_constant_link(self):
        t = TeacherSpec(d=5, link=MonomialPoly.const(1.0))
        _, y = draw_batch(t, 50, SeedTree(2).rng())
        assert np.all(y == 1.0)

    def test_noise_clt(self):
        tau = 0.5
        t = he3_teacher(noise=NoiseSpec("gaussian", tau))
        x, y = draw_batch(t, 100_000, SeedTree(3).rng())
        resid = y - t.link(x @ t.theta_star)
        assert abs(resid.mean()) <= 4 * tau / math.sqrt(resid.size)

    def test_rotational_symmetry(self):
        # For Q fixing theta_star, the law of (<x, theta*>, y) is unchanged.
        d = 6
        t = he3_teacher(d=d)
        n = 10_000
        x, y = draw_batch(t, n, SeedTree(4).rng())
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
        q = np.eye(d)
        q[1:, 1:] = basis  # orthogonal, fixes e_1 = theta_star
        xq = x @ q.T
        zq = xq @ t.theta_star
        yq = t.link(zq)
        for a, b in ((x @ t.theta_star, zq), (y, yq)):
            # two-sample KS distance via empirical CDFs
            grid = np.sort(np.concatenate([a, b]))
            cdf_a = np.searchsorted(np.sort(a), grid, side="right") / n
            cdf_b = np.searchsorted(np.sort(b), grid, side="right") / n
            ks = np.max(np.abs(cdf_a - cdf_b))
            assert ks <= 1.95 * math.sqrt(2.0 / n)  # ~alpha=0.001 two-sample KS


class TestTeacherValidation:
    def test_non_unit_theta_rejected(self):
        with pytest.raises(ValueError):
            TeacherSpec(d=3, link=hermite_poly(1), theta_star=np.array([1.0, 1.0, 0.0]))


class TestInitNetwork:
    def test_pinned_alignment_exact(self):
        t = he3_teacher(d=25)
        net = init_network(25, 1, hermite_poly(3), "pinned_alignment", SeedTree(6).rng())
        assert alignment(net, t)[0] == pytest.approx(0.2, abs=1e-14)

    def test_pinned_d50(self):
        t = he3_teacher(d=50)
        net = init_network(50, 3, hermite_poly(3), "pinned_alignment", SeedTree(7).rng())
        np.testing.assert_allclose(alignment(net, t), 1 / math.sqrt(50), atol=1e-14)

    def test_pinned_against_random_theta_star(self):
        d = 10
        theta = np.random.default_rng(5).standard_normal(d)
        theta /= np.linalg.norm(theta)
        t = TeacherSpec(d=d, link=hermite_poly(3), theta_star=theta)
        net = init_network(d, 4, hermite_poly(3), "pinned_alignment", SeedTree(6).rng(),
                           theta_star=theta)
        np.testing.assert_allclose(alignment(net, t), d**-0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(net.W, axis=1), 1.0, atol=1e-12)

    def test_pinned_e1_theta_star_is_default(self):
        default = init_network(10, 3, hermite_poly(3), "pinned_alignment", SeedTree(6).rng())
        pinned = init_network(10, 3, hermite_poly(3), "pinned_alignment", SeedTree(6).rng(),
                              theta_star=unit_vector(10))
        assert np.array_equal(default.W, pinned.W)

    def test_unit_rows(self):
        for mode in ("uniform_sphere", "pinned_alignment"):
            net = init_network(40, 8, hermite_poly(3), mode, SeedTree(8).rng())
            np.testing.assert_allclose(np.linalg.norm(net.W, axis=1), 1.0, atol=1e-12)

    def test_second_layer_defaults(self):
        net = init_network(10, 4, hermite_poly(3), "uniform_sphere", SeedTree(9).rng())
        assert np.all(net.a == 1.0) and np.all(net.b == 0.0)

    def test_uniform_initial_alignment_fraction(self):
        d = 1000
        t = he3_teacher(d=d)
        net = init_network(d, 10_000, hermite_poly(3), "uniform_sphere", SeedTree(10).rng())
        frac = np.mean(alignment(net, t) >= 1 / math.sqrt(d))
        assert 0.1 <= frac <= 0.5

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_network(1, 1, hermite_poly(3), "uniform_sphere", SeedTree(11).rng())


class TestAlignment:
    def test_aligned(self):
        t = he3_teacher(d=4)
        net = init_network(4, 1, hermite_poly(3), "uniform_sphere", SeedTree(12).rng())
        net.W[0] = t.theta_star
        assert alignment(net, t)[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        t = he3_teacher(d=4)
        net = init_network(4, 1, hermite_poly(3), "uniform_sphere", SeedTree(13).rng())
        net.W[0] = np.array([0.0, 1.0, 0.0, 0.0])
        assert alignment(net, t)[0] == 0.0

    def test_dim_mismatch(self):
        t = he3_teacher(d=5)
        net = init_network(4, 1, hermite_poly(3), "uniform_sphere", SeedTree(14).rng())
        with pytest.raises(ValueError):
            alignment(net, t)
