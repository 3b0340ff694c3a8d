"""Exact Hermite-polynomial machinery on polynomials of a standard Gaussian.

Conventions
-----------
He_k denotes the probabilist's Hermite polynomial (He_0 = 1, He_1 = z,
He_2 = z^2 - 1, ...), generated by the three-term recurrence
He_{k+1}(z) = z He_k(z) - k He_{k-1}(z).

Hermite coefficients are stored *unnormalized*:

    u_k(g) = E_{z ~ N(0,1)}[g(z) He_k(z)],

so that orthogonality reads E[He_i He_j] = j! delta_ij and a function is
reconstructed as g(z) = sum_k (u_k / k!) He_k(z).

All expansions of polynomials are computed exactly from integer Gaussian
moment tables (E[z^{2m}] = (2m-1)!!); Gauss-Hermite quadrature is provided
separately as an independent numerical route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

# Degree guard: keeps three-term recurrences and moment tables at magnitudes
# that are exact in 64-bit floats' dynamic range at desk scale.
MAX_DEGREE = 60


class DegreeOverflowError(ValueError):
    """Raised when an operation would exceed the supported polynomial degree."""


def _check_degree(deg: int, what: str) -> None:
    if deg > MAX_DEGREE:
        raise DegreeOverflowError(
            f"{what} has degree {deg}, above the supported cap {MAX_DEGREE}"
        )


# -- the polynomial core --------------------------------------------------------
# A polynomial is a tuple of floats, coefficient j multiplying z**j, with
# trailing zeros stripped and the zero polynomial stored as one coefficient.
# MonomialPoly and expand wrap these functions, and the exact theory in
# oracles calls them on bare tuples; there is no other polynomial arithmetic.


def _strip(c: tuple) -> tuple:
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n] if c else (0.0,)


def _is_zero(a: tuple) -> bool:
    return len(a) == 1 and a[0] == 0.0


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, v in enumerate(b):
        out[j] += v
    return _strip(tuple(out))


def _pscale(c: float, a: tuple) -> tuple:
    return _strip(tuple([float(c * v) for v in a]))


def _pmul(a: tuple, b: tuple) -> tuple:
    if _is_zero(a) or _is_zero(b):
        return (0.0,)
    _check_degree(len(a) + len(b) - 2, "product")
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0.0:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _strip(tuple(out))


def _expand(c: tuple, rows: tuple | None = None) -> tuple:
    """Hermite coefficients u_k = E[p(z) He_k(z)] of the polynomial c.

    rows is _moment_rows(n) for any n >= deg c. Each u_k sums c_j E[z^j He_k]
    over j >= k with j - k even and c_j != 0, in increasing j.
    """
    if rows is None:
        rows = _moment_rows(len(c) - 1)
    u = [0.0] * len(c)
    for j, cj in enumerate(c):
        if cj != 0.0:
            for k, m in rows[j]:
                u[k] += cj * m
    return tuple(u)


@dataclass(frozen=True)
class MonomialPoly:
    """Polynomial in the monomial basis: coeffs[j] multiplies z**j.

    Trailing zero coefficients are stripped on construction; the all-zero
    polynomial is stored as (0.0,) and has degree 0 by convention.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = _strip(tuple(float(v) for v in self.coeffs))
        _check_degree(len(c) - 1, "polynomial")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _of(cls, c: tuple[float, ...]) -> "MonomialPoly":
        """Wrap a tuple the core returned (stripped floats within the cap)."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", c)
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_coeffs(values: Iterable[float]) -> "MonomialPoly":
        return MonomialPoly(tuple(values))

    @staticmethod
    def zero() -> "MonomialPoly":
        return MonomialPoly((0.0,))

    @staticmethod
    def const(c: float) -> "MonomialPoly":
        return MonomialPoly((float(c),))

    @staticmethod
    def monomial(k: int, c: float = 1.0) -> "MonomialPoly":
        if k < 0:
            raise ValueError("monomial power must be nonnegative")
        return MonomialPoly((0.0,) * k + (float(c),))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def __call__(self, z):
        """Evaluate by Horner's rule; works on scalars and numpy arrays.

        Scalars give a Python float, arrays an array of z's shape. Python
        floats (the per-sample step) and arrays of rank >= 1 skip the
        broadcasting set-up; the bits are the same, because the leading
        coefficient c_n is nonzero and so z * c_n equals (0 + c_n) * z.
        """
        c = self.coeffs
        if len(c) > 1 and (type(z) is float or isinstance(z, np.ndarray) and z.ndim):
            acc = z * c[-1] + c[-2]
            for v in c[-3::-1]:
                acc = acc * z + v
            return acc
        acc = np.zeros_like(np.asarray(z, dtype=float)) + c[-1]
        for v in c[-2::-1]:
            acc = acc * z + v
        if np.isscalar(z):
            return float(acc)
        return acc

    # -- exact coefficient arithmetic ---------------------------------------

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        return MonomialPoly._of(_padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "MonomialPoly") -> "MonomialPoly":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "MonomialPoly":
        return MonomialPoly._of(_pscale(c, self.coeffs))

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        return MonomialPoly._of(_pmul(self.coeffs, other.coeffs))

    def power(self, k: int) -> "MonomialPoly":
        if k < 0:
            raise ValueError("power must be nonnegative")
        if not self.is_zero:
            _check_degree(self.degree * k, "power")
        result = MonomialPoly.const(1.0)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, order: int = 1) -> "MonomialPoly":
        c = self.coeffs
        for _ in range(order):
            c = tuple(j * c[j] for j in range(1, len(c))) or (0.0,)
        return MonomialPoly(c)

    def compose(self, inner: "MonomialPoly") -> "MonomialPoly":
        """self(inner(z)), exact in the monomial basis."""
        if not inner.is_constant and not self.is_constant:
            _check_degree(self.degree * inner.degree, "composition")
        acc = MonomialPoly.const(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * inner + MonomialPoly.const(c)
        return acc


def _hermite_block(z: np.ndarray, max_order: int) -> np.ndarray:
    """He_0..He_max_order evaluated on the float array z, shape
    (max_order + 1,) + z.shape, by the three-term recurrence."""
    out = np.empty((max_order + 1,) + z.shape)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = z
    for j in range(1, max_order):
        out[j + 1] = z * out[j] - j * out[j - 1]
    return out


def hermite_eval(k: int, z):
    """Evaluate He_k(z) via the probabilist's three-term recurrence.

    Accepts scalars or numpy arrays; k above the degree cap is rejected.
    """
    if k < 0:
        raise ValueError("Hermite index must be nonnegative")
    _check_degree(k, "Hermite polynomial")
    z = np.asarray(z, dtype=float)
    row = _hermite_block(z, k)[k]
    return float(row) if z.ndim == 0 else row


@lru_cache(maxsize=None)
def _hermite_int_coeffs(k: int) -> tuple[int, ...]:
    """Integer monomial coefficients of He_k."""
    if k < 0:
        raise ValueError("Hermite index must be nonnegative")
    _check_degree(k, "Hermite polynomial")
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    prev, cur = (1,), (0, 1)
    for j in range(1, k):
        shifted = (0,) + cur                       # z * He_j
        scaled = tuple(-j * c for c in prev)       # -j * He_{j-1}
        nxt = [0] * (j + 2)
        for idx, v in enumerate(shifted):
            nxt[idx] += v
        for idx, v in enumerate(scaled):
            nxt[idx] += v
        prev, cur = cur, tuple(nxt)
    return cur


def hermite_poly(k: int) -> MonomialPoly:
    """He_k as an exact MonomialPoly."""
    return MonomialPoly._of(_hermite_coeffs(k))


@lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> tuple[float, ...]:
    """Float monomial coefficients of He_k, the tuple hermite_poly wraps."""
    return tuple(float(c) for c in _hermite_int_coeffs(k))


@lru_cache(maxsize=None)
def gaussian_moment(m: int) -> int:
    """E[z^m] for z ~ N(0,1): (m-1)!! for even m, 0 for odd m."""
    if m % 2 == 1:
        return 0
    out = 1
    for v in range(m - 1, 0, -2):
        out *= v
    return out


@lru_cache(maxsize=None)
def _moment_zj_hek(j: int, k: int) -> int:
    """E[z^j He_k(z)], exact, from the double-factorial moment table."""
    if (j + k) % 2 == 1 or j < k:
        return 0
    return sum(c * gaussian_moment(i + j) for i, c in enumerate(_hermite_int_coeffs(k)))


@lru_cache(maxsize=None)
def _moment_rows(n: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Row j = 0..n holds the pairs (k, E[z^j He_k]) with k <= j, j - k even.

    This is the table _expand reads. float(m) is the double that c * m
    converts the integer m to, so a product with the stored float has the
    bits of the product with m.
    """
    return tuple(
        tuple((k, float(_moment_zj_hek(j, k))) for k in range(j % 2, j + 1, 2))
        for j in range(n + 1)
    )


@dataclass(frozen=True)
class HermiteExpansion:
    """Unnormalized Hermite coefficients (u_0, ..., u_K) of a function."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("expansion needs at least u_0")
        object.__setattr__(self, "coeffs", tuple(float(v) for v in self.coeffs))

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k] if k <= self.max_degree else 0.0

    def reconstruct(self, z):
        """g(z) = sum_k (u_k / k!) He_k(z)."""
        _check_degree(self.max_degree, "Hermite expansion")
        he = _hermite_block(np.asarray(z, dtype=float), self.max_degree)
        acc = np.zeros_like(he[0])
        for k, u in enumerate(self.coeffs):
            if u != 0.0:
                acc = acc + (u / math.factorial(k)) * he[k]
        if np.isscalar(z):
            return float(acc)
        return acc

    def default_tol(self) -> float:
        """Relative numerical-zero guard: 1e-9 * (1 + max |u_k|)."""
        return 1e-9 * (1.0 + max(abs(v) for v in self.coeffs))

    def information_exponent(self, tol: float | None = None) -> int | None:
        """Smallest k >= 1 with |u_k| > tol, or None when all vanish."""
        if tol is None:
            tol = self.default_tol()
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        for k in range(1, self.max_degree + 1):
            if abs(self.coeffs[k]) > tol:
                return k
        return None


def expand(p: MonomialPoly) -> HermiteExpansion:
    """Exact change of basis: u_k = E[p(z) He_k(z)] from Gaussian moments.

    Only the pairs with E[z^j He_k] != 0 (j >= k, j + k even) and c_j != 0
    are summed. For finite coefficients each skipped product is an exact
    zero, and adding a zero to the running sum (which starts at +0.0 and so
    is never -0.0) leaves its bits unchanged. Each u_k receives its terms in
    increasing j whether the loop runs over k or over j, so _expand's j-major
    loop gives the bits of a k-major one.
    """
    return HermiteExpansion(_expand(p.coeffs))


def information_exponent(g: HermiteExpansion, tol: float | None = None) -> int | None:
    return g.information_exponent(tol)


def gauss_hermite_coeff(g: Callable, k: int, nodes: int) -> float:
    """Quadrature estimate of E[g(z) He_k(z)] under N(0,1).

    Nodes and weights for the weight e^{-z^2/2}/sqrt(2*pi) are obtained from
    the physicists' Gauss-Hermite rule by the change of variables z = sqrt(2) x,
    w -> w / sqrt(pi). Exact for polynomial integrands of degree < 2*nodes.
    """
    if nodes < 1:
        raise ValueError("need at least one quadrature node")
    x, w = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * x
    w = w / math.sqrt(math.pi)
    return float(np.sum(w * np.asarray(g(z), dtype=float) * hermite_eval(k, z)))


@dataclass(frozen=True)
class ExponentReport:
    """Information exponent of a link together with the power-search bound.

    power_ies lists (i, IE(link^i)) for i = 1..K; ge_upper_bound is their
    minimum and witness_power the smallest power attaining it.
    """

    ie: int | None
    power_ies: tuple[tuple[int, int | None], ...]
    ge_upper_bound: int | None
    witness_power: int | None


def exponent_report(link: MonomialPoly, k_pow: int, tol: float | None = None) -> ExponentReport:
    """IE of link^i for i = 1..k_pow by exact expansion of powers."""
    if k_pow < 1:
        raise ValueError("k_pow must be a positive integer")
    if link.is_constant:
        raise ValueError("link must be nonconstant")
    _check_degree(link.degree * k_pow, "link power")
    power_ies: list[tuple[int, int | None]] = []
    for i in range(1, k_pow + 1):
        power_ies.append((i, expand(link.power(i)).information_exponent(tol)))
    defined = [(ie_i, i) for i, ie_i in power_ies if ie_i is not None]
    if defined:
        ge, witness = min(defined)
    else:
        ge, witness = None, None
    return ExponentReport(
        ie=power_ies[0][1],
        power_ies=tuple(power_ies),
        ge_upper_bound=ge,
        witness_power=witness,
    )
