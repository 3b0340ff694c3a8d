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


@dataclass(frozen=True)
class MonomialPoly:
    """Polynomial in the monomial basis: coeffs[j] multiplies z**j.

    Trailing zero coefficients are stripped on construction; the all-zero
    polynomial is stored as (0.0,) and has degree 0 by convention.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coeffs)
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        c = c[:n] if c else (0.0,)
        _check_degree(len(c) - 1, "polynomial")
        object.__setattr__(self, "coeffs", c)

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
        return all(v == 0.0 for v in self.coeffs)

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, v in enumerate(b):
            out[j] += v
        return MonomialPoly(tuple(out))

    def __sub__(self, other: "MonomialPoly") -> "MonomialPoly":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "MonomialPoly":
        return MonomialPoly(tuple(c * v for v in self.coeffs))

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.is_zero or other.is_zero:
            return MonomialPoly.zero()
        _check_degree(self.degree + other.degree, "product")
        out = [0.0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return MonomialPoly(tuple(out))

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


def hermite_eval(k: int, z):
    """Evaluate He_k(z) via the probabilist's three-term recurrence.

    Accepts scalars or numpy arrays; k above the degree cap is rejected.
    """
    if k < 0:
        raise ValueError("Hermite index must be nonnegative")
    _check_degree(k, "Hermite polynomial")
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)
    if k == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = z.copy()
    for j in range(1, k):
        prev, cur = cur, z * cur - j * prev
    return float(cur) if cur.ndim == 0 else cur


@lru_cache(maxsize=None)
def _hermite_int_coeffs(k: int) -> tuple[int, ...]:
    """Integer monomial coefficients of He_k."""
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
    return MonomialPoly(tuple(float(c) for c in _hermite_int_coeffs(k)))


@lru_cache(maxsize=None)
def _gaussian_moment(m: int) -> int:
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
    return sum(c * _gaussian_moment(i + j) for i, c in enumerate(_hermite_int_coeffs(k)))


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
        acc = np.zeros_like(np.asarray(z, dtype=float))
        for k, u in enumerate(self.coeffs):
            if u != 0.0:
                acc = acc + (u / math.factorial(k)) * hermite_eval(k, z)
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
    """Exact change of basis: u_k = E[p(z) He_k(z)] from Gaussian moments."""
    q = p.degree
    coeffs = []
    for k in range(q + 1):
        u = 0.0
        for j, c in enumerate(p.coeffs):
            if c != 0.0:
                u += c * _moment_zj_hek(j, k)
        coeffs.append(u)
    return HermiteExpansion(tuple(coeffs))


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
