"""Gaussian single-index teacher, student network container, and seeding.

The teacher draws x ~ N(0, I_d) and labels y = link(<x, theta_star>) + noise,
with theta_star a unit vector. The student is a two-layer network with unit
first-layer rows; training only ever moves the rows on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .hermite import MonomialPoly, gaussian_moment

NoiseFamily = Literal["none", "gaussian", "laplace"]

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
        if self.family not in ("none", "gaussian", "laplace"):
            raise ValueError(f"unknown noise family {self.family!r}")
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


def unit_vector(d: int, index: int = 0) -> np.ndarray:
    e = np.zeros(d)
    e[index] = 1.0
    return e


@dataclass
class TeacherSpec:
    """Single-index teacher: y = link(<x, theta_star>) + noise, x ~ N(0, I_d)."""

    d: int
    link: MonomialPoly
    theta_star: np.ndarray = None  # defaults to e_1
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.theta_star is None:
            self.theta_star = unit_vector(self.d)
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.theta_star.shape != (self.d,):
            raise ValueError("theta_star has wrong dimension")
        if abs(np.linalg.norm(self.theta_star) - 1.0) > 1e-12:
            raise ValueError("theta_star must be a unit vector (within 1e-12)")


@dataclass(frozen=True)
class Sample:
    x: np.ndarray
    y: float


def draw_batch(teacher: TeacherSpec, size: int, rng: np.random.Generator):
    """Draw `size` i.i.d. samples; returns (X, y) with X of shape (size, d)."""
    if size < 0:
        raise ValueError(f"sample count must be nonnegative, got {size}")
    x = rng.standard_normal((size, teacher.d))
    y = teacher.link(x @ teacher.theta_star)
    if not teacher.noise.is_none:
        y = y + teacher.noise.draw(rng, size)
    return x, y


def draw_sample(teacher: TeacherSpec, rng: np.random.Generator) -> Sample:
    x, y = draw_batch(teacher, 1, rng)
    return Sample(x=x[0], y=float(y[0]))


@dataclass
class NetworkSpec:
    """Two-layer student: f(x) = (1/N) sum_j a_j sigma(<x, w_j> + b_j).

    Rows of W stay unit-norm (within 1e-10) after every update.
    """

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    activation: MonomialPoly

    def __post_init__(self) -> None:
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        norms = np.linalg.norm(self.W, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("all first-layer rows must be unit vectors")
        if self.a.shape != (self.n_neurons,) or self.b.shape != (self.n_neurons,):
            raise ValueError("second-layer shape mismatch")

    @property
    def n_neurons(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


InitMode = Literal["uniform_sphere", "pinned_alignment"]


def init_network(
    d: int,
    n_neurons: int,
    activation: MonomialPoly,
    init_mode: InitMode,
    rng: np.random.Generator,
    theta_star: np.ndarray | None = None,
) -> NetworkSpec:
    """Initialize unit rows; a_j = 1, b_j = 0.

    uniform_sphere: rows i.i.d. uniform on the unit sphere. pinned_alignment:
    every row has alignment d**-0.5 with theta_star (default e_1),
    the remainder uniform on the sphere of radius sqrt(1 - 1/d) in the
    orthogonal complement, so every run starts at the same alignment. The
    rows are built against e_1 and, for any other theta_star, mapped by the
    Householder reflection that swaps e_1 and theta_star; with e_1 the rows
    are untouched.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if init_mode == "uniform_sphere":
        w = rng.standard_normal((n_neurons, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    elif init_mode == "pinned_alignment":
        rest = rng.standard_normal((n_neurons, d - 1))
        rest /= np.linalg.norm(rest, axis=1, keepdims=True)
        w = np.empty((n_neurons, d))
        w[:, 0] = 1.0 / math.sqrt(d)
        w[:, 1:] = rest * math.sqrt(1.0 - 1.0 / d)
        e1 = unit_vector(d)
        if theta_star is not None and not np.array_equal(theta_star, e1):
            v = e1 - theta_star  # reflect across v's hyperplane: e_1 <-> theta_star
            w -= np.outer(w @ v, v * (2.0 / (v @ v)))
    else:
        raise ValueError(f"unknown init mode {init_mode!r}")
    return NetworkSpec(W=w, a=np.ones(n_neurons), b=np.zeros(n_neurons), activation=activation)


def alignment(net: NetworkSpec, teacher: TeacherSpec) -> np.ndarray:
    """Per-neuron alignment kappa_j = <theta_star, w_j>."""
    if net.d != teacher.d:
        raise ValueError("network and teacher dimensions differ")
    return net.W @ teacher.theta_star
