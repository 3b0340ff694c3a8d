"""Gaussian single-index teacher, student network container, and seeding.

The teacher draws x ~ N(0, I_d) and labels y = link(<x, theta_star>) + noise,
with theta_star = e_1. The student is a two-layer network with unit
first-layer rows, each starting at alignment d**-0.5; training only ever
moves the rows on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Literal, get_args

import numpy as np

from .hermite import MonomialPoly, gaussian_moment

NoiseFamily = Literal["none", "gaussian", "laplace"]


def is_integer(value) -> bool:
    """Whether value is an integer: a Python or numpy integer, not a bool.
    A plain int is decided first, without the slower abstract-class check."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


# SeedTree stream roles, appended as the last path element.
ROLE_INIT = 0
ROLE_DATA = 1


@dataclass(frozen=True)
class SeedTree:
    """Hierarchical deterministic seeding.

    Identical (master_seed, path) pairs reproduce the same stream bit-for-bit;
    distinct paths give statistically independent streams (numpy SeedSequence
    spawn keys).
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError(f"the master seed must be nonnegative, got {self.master_seed}")

    def child(self, *indices: int) -> "SeedTree":
        return SeedTree(self.master_seed, self.path + tuple(int(i) for i in indices))

    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=self.path)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self._sequence())

    def digest(self) -> int:
        """Stable 64-bit identifier of this stream, for logging."""
        a, b = self._sequence().generate_state(2)
        return int(a) << 32 | int(b)


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric label-noise family with exact integer-order moments.

    gaussian: standard deviation tau. laplace: scale parameter tau
    (standard deviation tau * sqrt(2)). Both are symmetric sub-Weibull.
    """

    family: NoiseFamily = "none"
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in get_args(NoiseFamily):
            raise ValueError(f"unknown noise family {self.family!r}")
        if not math.isfinite(self.tau):
            raise ValueError(f"noise scale must be finite, got {self.tau}")
        if self.tau < 0:
            raise ValueError("noise scale must be nonnegative")

    @property
    def is_none(self) -> bool:
        return self.family == "none" or self.tau == 0.0

    def moment(self, j: int) -> float:
        """Exact E[zeta^j]; odd moments vanish by symmetry."""
        if j == 0:
            return 1.0
        if self.is_none or j % 2 == 1:
            return 0.0
        if self.family == "gaussian":
            return self.tau**j * gaussian_moment(j)
        return self.tau**j * math.factorial(j)

    def draw(self, rng: np.random.Generator, size: int):
        if self.is_none:
            return np.zeros(size)
        if self.family == "gaussian":
            return rng.normal(0.0, self.tau, size)
        return rng.laplace(0.0, self.tau, size)


def unit_vector(d: int) -> np.ndarray:
    """e_1 in dimension d."""
    e = np.zeros(d)
    e[0] = 1.0
    return e


@dataclass(frozen=True)
class TeacherSpec:
    """Single-index teacher: y = link(<x, theta_star>) + noise, x ~ N(0, I_d).

    theta_star is always e_1: the law of x is rotation invariant, so a run
    against any other unit vector is, in law, a rotation of the e_1 run. It
    is derived from d and left out of comparison, so two teachers are equal
    when their d, link and noise are. A teacher is a frozen value, so
    theta_star always has length d; derive others with dataclasses.replace.
    """

    d: int
    link: MonomialPoly
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    theta_star: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (is_integer(self.d) and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "theta_star", unit_vector(self.d))


def draw_batch(
    teacher: TeacherSpec,
    size: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
):
    """Draw `size` i.i.d. samples; returns (X, y) with X of shape (size, d).

    With `out`, a C-contiguous float64 array of at least `size` rows and d
    columns, X is the view out[:size], filled in place with the bits the
    allocating call would draw; the labels are computed as without it (x
    first, then the noise), so the stream is the same either way.

    The labels read <x, theta_star> as the first column plus 0.0. With
    theta_star = e_1 the product sums x[:, 0] with zeros, which is x[:, 0]
    exactly, save that a -0.0 comes out as 0.0; adding 0.0 does the same.
    This holds because a drawn x is finite (an inf or nan entry would make
    the product nan).
    """
    if size < 0:
        raise ValueError(f"sample count must be nonnegative, got {size}")
    if out is None:
        x = rng.standard_normal((size, teacher.d))
    elif out.dtype != np.float64:
        raise ValueError(f"out must be float64, got dtype {out.dtype}")
    elif not out.flags.c_contiguous:
        raise ValueError(
            "out must be C-contiguous: a strided or Fortran-order array draws other bits"
        )
    elif out.ndim == 2 and out.shape[0] >= size and out.shape[1] == teacher.d:
        x = rng.standard_normal(out=out[:size])
    else:
        raise ValueError(
            f"out must have at least {size} rows and {teacher.d} columns, got shape {out.shape}"
        )
    y = teacher.link(x[:, 0] + 0.0)
    if not teacher.noise.is_none:
        y = y + teacher.noise.draw(rng, size)
    return x, y


@dataclass
class NetworkSpec:
    """First layer of the two-layer student f(x) = (1/N) sum_j a_j sigma(<x, w_j>).

    Training moves only the rows w_j of W, which stay unit-norm (within
    1e-10) after every update; the network has no bias. The second layer
    is not stored: training never moves it, and ridge_fit fits it with the
    rows frozen.
    """

    W: np.ndarray
    activation: MonomialPoly

    def __post_init__(self) -> None:
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        norms = np.linalg.norm(self.W, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):  # also true for nan
            raise ValueError("all first-layer rows must be unit vectors")

    @property
    def n_neurons(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


def init_network(
    d: int,
    n_neurons: int,
    activation: MonomialPoly,
    rng: np.random.Generator,
) -> NetworkSpec:
    """Initialize the unit rows of W at the pinned alignment d**-0.5.

    Every row has first coordinate d**-0.5, its alignment with the teacher's
    theta_star = e_1, and the remainder uniform on the sphere of radius
    sqrt(1 - 1/d) in the orthogonal complement, so every run starts at the
    same alignment.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    rest = rng.standard_normal((n_neurons, d - 1))
    rest /= np.linalg.norm(rest, axis=1, keepdims=True)
    w = np.empty((n_neurons, d))
    w[:, 0] = 1.0 / math.sqrt(d)
    w[:, 1:] = rest * math.sqrt(1.0 - 1.0 / d)
    return NetworkSpec(W=w, activation=activation)


def alignment(net: NetworkSpec, teacher: TeacherSpec) -> np.ndarray:
    """Per-neuron alignment kappa_j = <theta_star, w_j>."""
    if net.d != teacher.d:
        raise ValueError("network and teacher dimensions differ")
    return net.W @ teacher.theta_star
