import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from silab import (
    MonomialPoly,
    NoiseSpec,
    SeedTree,
    TeacherSpec,
    alignment,
    draw_batch,
    hermite_poly,
    init_network,
)
from silab.model import NetworkSpec, unit_vector


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

    def test_negative_master_seed_raises_naming_it(self):
        with pytest.raises(ValueError, match="the master seed must be nonnegative, got -1"):
            SeedTree(-1)
        assert SeedTree(0).child(3).path == (3,)


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
        x, y = draw_batch(t, 1, SeedTree(1).rng())
        z = float(x[0] @ t.theta_star)
        assert y[0] == pytest.approx(z**3 - 3 * z, rel=1e-12)

    def test_labels_read_the_first_coordinate_exactly(self):
        """The labels read x's first column plus 0.0, bit for bit link(x @ e_1)
        with or without out, also where that column holds -0.0 and +0.0. The
        link keeps the sign of a zero (its constant is -0.0), so without the
        + 0.0 the -0.0 rows would be labelled -0.0; the product gives 0.0."""
        link = MonomialPoly((-0.0, 1.0, 0.5))
        t = TeacherSpec(d=4, link=link)
        block = np.array([
            [-0.0, -1.0, -2.0, -3.0],
            [0.0, -1.0, 2.0, 3.0],
            [-0.0, 1.0, 1.0, 1.0],
            [1.5, -0.0, 0.0, -7.0],
            [-0.75, -0.0, -0.0, -0.0],
        ])

        class Replay:
            """An rng whose one draw is the block."""

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return block.copy()
                out[...] = block
                return out

        for out in (None, np.empty((6, 4))):
            x, y = draw_batch(t, 5, Replay(), out=out)
            assert x.tobytes() == block.tobytes()
            assert y.tobytes() == link(block @ t.theta_star).tobytes()
        assert np.signbit(link(block[:, 0])).tolist() == [True, False, True, False, True]
        assert not np.signbit(y[:3]).any()

    def test_pinned_projection_value(self):
        # He_3 at z = 2 gives 8 - 6 = 2
        t = he3_teacher()
        assert t.link(2.0) == pytest.approx(2.0)

    def test_constant_link(self):
        t = TeacherSpec(d=5, link=MonomialPoly.const(1.0))
        _, y = draw_batch(t, 50, SeedTree(2).rng())
        assert np.all(y == 1.0)

    @pytest.mark.parametrize(
        "noise", [NoiseSpec(), NoiseSpec("gaussian", 0.5), NoiseSpec("laplace", 0.3)]
    )
    @pytest.mark.parametrize("size", [96, 40])
    def test_out_buffer_keeps_the_stream(self, noise, size):
        """With out, X is the view out[:size] holding the allocating call's
        bits, the labels follow it (x first, then the noise), later rows are
        left alone, and the generator ends in the same state."""
        t = he3_teacher(noise=noise)
        rng_ref, rng = SeedTree(7).rng(), SeedTree(7).rng()
        x_ref, y_ref = draw_batch(t, size, rng_ref)
        buf = np.full((96, t.d), -7.0)
        x, y = draw_batch(t, size, rng, out=buf)
        assert x.shape == (size, t.d) and x.ctypes.data == buf.ctypes.data
        assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        assert np.all(buf[size:] == -7.0)
        assert rng.standard_normal(3).tobytes() == rng_ref.standard_normal(3).tobytes()

    @pytest.mark.parametrize("shape", [(39, 10), (40, 9), (40, 11), (400,)])
    def test_out_buffer_too_small_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=r"at least 40 rows and 10 columns"):
            draw_batch(he3_teacher(), 40, SeedTree(0).rng(), out=np.empty(shape))

    def test_fortran_order_out_is_rejected(self):
        """A Fortran-order out would be filled with other bits than the
        allocating call draws."""
        with pytest.raises(ValueError, match="C-contiguous"):
            draw_batch(he3_teacher(d=4), 3, SeedTree(0).rng(), out=np.empty((4, 3)).T)

    def test_float32_out_is_rejected(self):
        out = np.empty((40, 10), dtype=np.float32)
        with pytest.raises(ValueError, match="float64, got dtype float32"):
            draw_batch(he3_teacher(), 40, SeedTree(0).rng(), out=out)

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
    def test_theta_star_is_derived_e1(self):
        t = TeacherSpec(d=np.int64(4), link=hermite_poly(1))
        assert np.array_equal(t.theta_star, unit_vector(4))
        assert t.theta_star.dtype == np.float64
        (field,) = [f for f in fields(TeacherSpec) if f.name == "theta_star"]
        assert not (field.init or field.compare or field.repr)

    def test_theta_star_is_no_argument(self):
        # the teacher direction is fixed: x ~ N(0, I_d) is rotation invariant
        with pytest.raises(TypeError, match="theta_star"):
            TeacherSpec(d=3, link=hermite_poly(1), theta_star=unit_vector(3))

    def test_equal_by_value(self):
        # equal specs compare equal; the derived theta_star is not compared
        assert he3_teacher(d=3) == he3_teacher(d=3)
        assert he3_teacher(d=3) != he3_teacher(d=4)
        assert he3_teacher(d=3) != he3_teacher(d=3, noise=NoiseSpec("gaussian", 0.1))

    def test_frozen(self):
        # d = 5 after construction used to leave theta_star of length 3
        t = he3_teacher(d=3)
        with pytest.raises(FrozenInstanceError):
            t.d = 5
        with pytest.raises(FrozenInstanceError):
            t.theta_star = unit_vector(5)
        assert np.array_equal(replace(t, d=5).theta_star, unit_vector(5))

    @pytest.mark.parametrize("d", [True, 3.0, np.float64(3.0), "3", 0, -2])
    def test_bad_dimension_rejected(self, d):
        # a bool or a float d used to die inside np.zeros with a TypeError
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got "):
            TeacherSpec(d=d, link=hermite_poly(1))


class TestNetworkValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0])
    def test_non_unit_row_rejected(self, bad):
        # nan passed the old check, whose comparison is false for nan
        with pytest.raises(ValueError, match="unit vectors"):
            NetworkSpec(W=[[1.0, 0.0, 0.0], [bad, 0.0, 0.0]], activation=hermite_poly(3))


class TestInitNetwork:
    def test_pinned_alignment_exact(self):
        t = he3_teacher(d=25)
        net = init_network(25, 1, hermite_poly(3), SeedTree(6).rng())
        assert alignment(net, t)[0] == pytest.approx(0.2, abs=1e-14)

    def test_pinned_d50(self):
        t = he3_teacher(d=50)
        net = init_network(50, 3, hermite_poly(3), SeedTree(7).rng())
        np.testing.assert_allclose(alignment(net, t), 1 / math.sqrt(50), atol=1e-14)

    def test_init_mode_is_no_argument(self):
        # every run starts at the pinned alignment; there is no other mode
        with pytest.raises(TypeError):
            init_network(10, 1, hermite_poly(3), "pinned_alignment", SeedTree(6).rng())
        with pytest.raises(TypeError, match="theta_star"):
            init_network(10, 1, hermite_poly(3), SeedTree(6).rng(), theta_star=unit_vector(10))

    def test_unit_rows(self):
        net = init_network(40, 8, hermite_poly(3), SeedTree(8).rng())
        np.testing.assert_allclose(np.linalg.norm(net.W, axis=1), 1.0, atol=1e-12)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_network(1, 1, hermite_poly(3), SeedTree(11).rng())


class TestAlignment:
    def test_aligned(self):
        t = he3_teacher(d=4)
        net = init_network(4, 1, hermite_poly(3), SeedTree(12).rng())
        net.W[0] = t.theta_star
        assert alignment(net, t)[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        t = he3_teacher(d=4)
        net = init_network(4, 1, hermite_poly(3), SeedTree(13).rng())
        net.W[0] = np.array([0.0, 1.0, 0.0, 0.0])
        assert alignment(net, t)[0] == 0.0

    def test_dim_mismatch(self):
        t = he3_teacher(d=5)
        net = init_network(4, 1, hermite_poly(3), SeedTree(14).rng())
        with pytest.raises(ValueError):
            alignment(net, t)
