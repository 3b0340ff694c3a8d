import math

import numpy as np
import pytest

from silab import (
    DegreeOverflowError,
    MonomialPoly,
    expand,
    exponent_report,
    gauss_hermite_coeff,
    hermite_eval,
    hermite_poly,
)
from silab.hermite import (
    MAX_DEGREE, HermiteExpansion, _hermite_coeffs, _moment_rows, gaussian_moment,
)


def brute_force_coeff(p: MonomialPoly, k: int) -> float:
    """Independent oracle: E[p He_k] via product coefficients and (2m-1)!!."""
    prod = np.polynomial.polynomial.polymul(p.coeffs, hermite_poly(k).coeffs)
    return float(sum(c * double_factorial_moment(j) for j, c in enumerate(prod)))


class TestHermiteEval:
    def test_he2_at_3(self):
        assert hermite_eval(2, 3.0) == 8.0

    def test_he0_is_one(self):
        assert hermite_eval(0, 7.5) == 1.0

    def test_he3_at_2(self):
        assert hermite_eval(3, 2.0) == 2.0

    def test_matches_monomial_form(self):
        z = np.linspace(-3, 3, 41)
        for k in range(11):
            np.testing.assert_allclose(hermite_eval(k, z), hermite_poly(k)(z), rtol=1e-12)

    def test_degree_guard(self):
        with pytest.raises(DegreeOverflowError):
            hermite_eval(MAX_DEGREE + 1, 0.5)


def _two_term_recurrence(k, z):
    """He_k(z) by the recurrence on two running arrays, without a block."""
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)
    if k == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = z.copy()
    for j in range(1, k):
        prev, cur = cur, z * cur - j * prev
    return float(cur) if cur.ndim == 0 else cur


class TestOneRecurrence:
    """hermite_eval and reconstruct read the rows of one He_0..He_K block."""

    INPUTS = {
        "float": 1.37,
        "0-d": np.asarray(-0.61),
        "1-d": np.linspace(-4.0, 4.0, 33),
        "2-d": np.linspace(-2.5, 3.5, 12).reshape(3, 4),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_rows_equal_two_term_recurrence(self, name):
        z = self.INPUTS[name]
        for k in range(21):
            got, want = hermite_eval(k, z), _two_term_recurrence(k, z)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            if isinstance(got, np.ndarray):
                assert got.shape == np.shape(z)

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_reconstruct_equals_per_index_sum(self, name):
        z = self.INPUTS[name]
        u = expand(MonomialPoly((0.3, -1.1, 0.0, 2.5, 0.7, -0.2))).coeffs
        want = np.zeros_like(np.asarray(z, dtype=float))
        for k, uk in enumerate(u):
            if uk != 0.0:
                want = want + (uk / math.factorial(k)) * _two_term_recurrence(k, z)
        if np.isscalar(z):
            want = float(want)
        got = HermiteExpansion(u).reconstruct(z)
        assert type(got) is type(want)
        assert np.array_equal(got, want)

    def test_reconstruct_degree_guard(self):
        with pytest.raises(DegreeOverflowError):
            HermiteExpansion((0.0,) * (MAX_DEGREE + 1) + (1.0,)).reconstruct(0.5)


class TestNegativeHermiteIndex:
    """Every route to He_k rejects k < 0, as hermite_eval does."""

    @pytest.mark.parametrize("k", [-1, -3])
    def test_hermite_poly(self, k):
        with pytest.raises(ValueError, match="Hermite index must be nonnegative"):
            hermite_poly(k)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_coefficient_tables(self, k):
        with pytest.raises(ValueError, match="Hermite index must be nonnegative"):
            _hermite_coeffs(k)

    def test_hermite_eval(self):
        with pytest.raises(ValueError, match="Hermite index must be nonnegative"):
            hermite_eval(-1, 0.5)


class TestPolyOps:
    def test_multiply_he3_by_derivative(self):
        he3 = hermite_poly(3)
        prod = he3 * he3.derivative()
        assert prod.coeffs == (0.0, 9.0, 0.0, -12.0, 0.0, 3.0)

    def test_power(self):
        assert MonomialPoly.monomial(1).power(5).coeffs == (0.0,) * 5 + (1.0,)

    def test_derivative(self):
        assert hermite_poly(2).derivative().coeffs == (0.0, 2.0)

    def test_compose(self):
        sq = MonomialPoly.monomial(2)
        assert sq.compose(sq).coeffs == (0.0,) * 4 + (1.0,)
        shifted = MonomialPoly.from_coeffs([1.0, 1.0])  # z + 1
        assert sq.compose(shifted).coeffs == (1.0, 2.0, 1.0)

    def test_degree_overflow(self):
        big = MonomialPoly.monomial(31)
        with pytest.raises(DegreeOverflowError):
            big * MonomialPoly.monomial(30)

    def test_zero_poly_degree_convention(self):
        assert MonomialPoly.from_coeffs([0.0, 0.0, 0.0]).degree == 0


def _strip_reference(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


class TestArithmeticBits:
    """The polynomial arithmetic runs its float operations in the order the
    exact theory's bits were recorded with: written out here as loops."""

    @staticmethod
    def _polys(seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            c = rng.normal(size=rng.integers(1, 9)) * (rng.random(size=1) < 0.9)
            c[rng.random(size=len(c)) < 0.25] = -0.0
            yield MonomialPoly(tuple(c))

    def test_product(self):
        for p, q in zip(self._polys(1), self._polys(2)):
            out = [0.0] * (p.degree + q.degree + 1)
            if not (p.is_zero or q.is_zero):
                for i, a in enumerate(p.coeffs):       # i outer, j inner
                    if a != 0.0:
                        for j, b in enumerate(q.coeffs):
                            out[i + j] += a * b
            want = _strip_reference(out) if not (p.is_zero or q.is_zero) else (0.0,)
            assert repr((p * q).coeffs) == repr(want)

    def test_sum_and_scale(self):
        for p, q in zip(self._polys(3), self._polys(4)):
            a, b = (p.coeffs, q.coeffs) if p.degree >= q.degree else (q.coeffs, p.coeffs)
            out = list(a)
            for j, v in enumerate(b):
                out[j] += v
            assert repr((p + q).coeffs) == repr(_strip_reference(out))
            want = _strip_reference([np.float64(0.3) * v for v in p.coeffs])
            assert repr(p.scale(np.float64(0.3)).coeffs) == repr(tuple(map(float, want)))

    def test_expand(self):
        for p in self._polys(5):
            want = []
            for k in range(p.degree + 1):                # k outer, j inner
                u = 0.0
                for j, c in enumerate(p.coeffs):
                    if c != 0.0 and j >= k and (j - k) % 2 == 0:
                        u += c * brute_force_moment_zj_hek(j, k)
                want.append(u)
            assert repr(expand(p).coeffs) == repr(tuple(want))

    def test_gaussian_mean(self):
        # E[p(z)] is _expand's u_0 bit for bit, on raw tuples: odd and even
        # degrees, zeros of both signs, trailing zeros
        from silab.hermite import _expand, _gaussian_mean

        rng = np.random.default_rng(6)
        cases = [(0.0,), (-0.0,), (-0.0, 2.0), (0.0, 0.0, -0.0), (1.5, -0.0, -0.0)]
        for _ in range(300):
            c = rng.normal(size=rng.integers(1, 22)) * 10.0 ** rng.integers(-3, 4)
            c[rng.random(size=len(c)) < 0.2] = 0.0
            c[rng.random(size=len(c)) < 0.2] = -0.0
            cases.append(tuple(float(v) for v in c))
        assert any(len(c) % 2 == 0 for c in cases)  # odd degree
        for c in cases:
            assert repr(_gaussian_mean(c)) == repr(_expand(c)[0])


def recurrence_int_coeffs(k):
    """Integer monomial coefficients of He_k by He_{n+1} = z He_n - n He_{n-1}."""
    he, prev = [1], []
    for n in range(k):
        nxt = [0] + he
        for idx, v in enumerate(prev):
            nxt[idx] -= n * v
        prev, he = he, nxt
    return he


def double_factorial_moment(m):
    """E[z^m] = (m-1)!! for even m, 0 for odd m."""
    return 0 if m % 2 else math.prod(range(m - 1, 0, -2))


def brute_force_moment_zj_hek(j, k):
    """E[z^j He_k] as an exact integer, from the integer coefficients of He_k."""
    return sum(c * double_factorial_moment(i + j) for i, c in enumerate(recurrence_int_coeffs(k)))


class TestPairingTables:
    """The tables that the pairing count builds equal those of the
    three-term recurrence and the double-factorial moment sum, bit for bit,
    over the whole supported degree range."""

    def test_hermite_coeffs(self):
        for k in range(MAX_DEGREE + 1):
            want = tuple(float(c) for c in recurrence_int_coeffs(k))
            got = _hermite_coeffs(k)
            assert repr(got) == repr(want)
            assert all(type(v) is float for v in got)

    def test_moment_rows(self):
        want = tuple(
            tuple((k, float(brute_force_moment_zj_hek(j, k))) for k in range(j % 2, j + 1, 2))
            for j in range(MAX_DEGREE + 1)
        )
        for n in range(MAX_DEGREE + 1):
            assert repr(_moment_rows(n)) == repr(want[: n + 1])

    def test_gaussian_moment(self):
        for m in range(2 * MAX_DEGREE + 3):
            got = gaussian_moment(m)
            assert type(got) is int and got == double_factorial_moment(m)


class TestExpand:
    def test_he3_is_pure(self):
        u = expand(hermite_poly(3))
        assert u.coeffs == (0.0, 0.0, 0.0, 6.0)

    def test_constant(self):
        u = expand(MonomialPoly.const(1.0))
        assert u.coeffs == (1.0,)

    def test_he3_squared_u2(self):
        p = hermite_poly(3) * hermite_poly(3)
        u = expand(p)
        assert u[2] == 36.0
        assert brute_force_coeff(p, 2) == 36.0
        assert gauss_hermite_coeff(p, 2, 200) == pytest.approx(36.0, abs=1e-8)

    def test_round_trip_random_polys(self):
        rng = np.random.default_rng(42)
        z = np.linspace(-3, 3, 100)
        for _ in range(20):
            deg = rng.integers(0, 11)
            p = MonomialPoly.from_coeffs(rng.uniform(-5, 5, deg + 1))
            scale = max(np.max(np.abs(p(z))), 1.0)
            err = np.max(np.abs(expand(p).reconstruct(z) - p(z)))
            assert err <= 1e-10 * scale

    def test_matches_quadrature_on_random_polys(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            deg = int(rng.integers(0, 9))
            p = MonomialPoly.from_coeffs(rng.uniform(-2, 2, deg + 1))
            k = int(rng.integers(0, deg + 1))
            assert gauss_hermite_coeff(p, k, 60) == pytest.approx(expand(p)[k], abs=1e-8)


class TestOrthogonality:
    def test_table_up_to_10(self):
        for i in range(11):
            for j in range(11):
                est = gauss_hermite_coeff(lambda z, i=i: hermite_eval(i, z), j, 200)
                exact = math.factorial(j) if i == j else 0.0
                assert est == pytest.approx(exact, abs=1e-8)

    def test_correlated_gaussian_identity(self):
        rng = np.random.default_rng(11)
        n = 200_000
        for rho in (0.0, 0.3, -0.3, 0.9, -0.9):
            z = rng.standard_normal(n)
            zp = rho * z + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
            for j in range(1, 7):
                v = hermite_eval(j, z) * hermite_eval(j, zp)
                se = v.std() / math.sqrt(n)
                assert abs(v.mean() - math.factorial(j) * rho**j) <= 4 * se


class TestQuadratureCoeff:
    def test_constant(self):
        assert gauss_hermite_coeff(lambda z: np.ones_like(z), 0, 10) == pytest.approx(1.0)

    def test_he1_variance(self):
        assert gauss_hermite_coeff(lambda z: z, 1, 50) == pytest.approx(1.0, abs=1e-10)

    def test_node_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite_coeff(lambda z: z, 1, 0)


class TestExponents:
    def test_he3_report(self):
        rep = exponent_report(hermite_poly(3), 2)
        assert rep.ie == 3
        assert rep.power_ies == ((1, 3), (2, 2))
        assert rep.ge_upper_bound == 2
        assert rep.witness_power == 2

    def test_identity_link(self):
        rep = exponent_report(MonomialPoly.monomial(1), 3)
        assert rep.power_ies == ((1, 1), (2, 2), (3, 1))
        assert rep.ge_upper_bound == 1
        assert rep.witness_power == 1

    def test_he2_single_power(self):
        rep = exponent_report(hermite_poly(2), 1)
        assert rep.ge_upper_bound == 2

    def test_constant_ie_undefined(self):
        assert expand(MonomialPoly.const(1.0)).information_exponent() is None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            expand(hermite_poly(3)).information_exponent(tol)

    def test_ie_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            deg = int(rng.integers(1, 9))
            p = MonomialPoly.from_coeffs(rng.uniform(-3, 3, deg + 1))
            base = expand(p).information_exponent()
            for c in (1e-3, 0.5, 7.0, 1e4):
                assert expand(p.scale(c)).information_exponent() == base

    def test_rejects_constant_link(self):
        with pytest.raises(ValueError):
            exponent_report(MonomialPoly.const(2.0), 2)

    def test_power_degree_guard(self):
        with pytest.raises(DegreeOverflowError):
            exponent_report(hermite_poly(9), 7)
