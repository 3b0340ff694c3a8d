"""Training loop: trajectory execution, recovery detection, audits, ridge fit.

A run executes exactly floor(n / B) sequential updates in a single pass over
fresh samples, recording per-neuron alignments at checkpoints. Divergence
(non-finite alignment or a pre-normalization norm blowup) is a flagged
outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_args

import numpy as np

from .model import (
    ROLE_DATA,
    ROLE_INIT,
    InitMode,
    NetworkSpec,
    SeedTree,
    TeacherSpec,
    alignment,
    draw_batch,
    init_network,
)
from .oracles import OracleSpec, apply_step

DIVERGENCE_NORM = 1e12


@dataclass
class RunConfig:
    """One simulation's full parameterization."""

    teacher: TeacherSpec
    oracle: OracleSpec
    n: int
    seed: SeedTree
    batch_size: int = 128
    n_neurons: int = 1
    init_mode: InitMode = "pinned_alignment"
    weak_threshold: float = 0.5
    strong_eps: float = 0.1
    record_every: int = 100
    audit: bool = False

    def __post_init__(self) -> None:
        if not (self.n >= self.batch_size >= 1):
            raise ValueError("need n >= batch_size >= 1")
        if self.n_neurons < 1:
            raise ValueError("need at least one neuron")
        if self.teacher.d < 2:
            raise ValueError("need dimension at least 2")
        if not 0.0 < self.weak_threshold < 1.0:
            raise ValueError("weak threshold must lie in (0, 1)")
        if not 0.0 < self.strong_eps < 1.0:
            raise ValueError("strong_eps must lie in (0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")
        if self.init_mode not in get_args(InitMode):
            raise ValueError(f"unknown init mode {self.init_mode!r}")

    @property
    def n_steps(self) -> int:
        return self.n // self.batch_size


@dataclass
class AuditTrace:
    """Per-step internals recorded when the audit flag is on.

    Arrays have shape (steps, neurons); kappa_after already reflects the
    normalization, so the projection-error lower bound can be replayed.
    """

    kappa_before: np.ndarray
    kappa_after: np.ndarray
    theta_dot_g: np.ndarray
    g_norm_sq: np.ndarray


@dataclass
class Trajectory:
    """Recorded alignment path of a run.

    steps[i] is the number of updates applied before alignments[i] was
    recorded; recovery steps are reported at checkpoint resolution.
    """

    steps: np.ndarray
    samples_seen: np.ndarray
    alignments: np.ndarray
    weak_recovery_step: int | None
    strong_recovery_step: int | None
    diverged: bool
    rejected_steps: int
    final_network: NetworkSpec
    config: RunConfig
    audit_trace: AuditTrace | None = None

    @property
    def final_alignment(self) -> float:
        """Best-neuron alignment at the last checkpoint.

        A diverged run records the alignment of the step that blew up, which
        is finite unless that step overflowed; read ``diverged`` before
        taking this as a result.
        """
        return float(np.max(self.alignments[-1]))

    @property
    def total_samples(self) -> int:
        return int(self.samples_seen[-1])


def recovery_alignment(final_alignment: float, diverged) -> float:
    """A run's final alignment as the recovery rule reads it.

    A diverged run counts as alignment -1, whatever it recorded, so a run is
    recovered exactly when it did not diverge and its final alignment clears
    the weak threshold. Sweep cells, summaries, the plot grid and the
    sample-size search all read runs through this one rule.
    """
    if diverged or not math.isfinite(final_alignment):
        return -1.0
    return final_alignment


def _first_crossing(steps: np.ndarray, series: np.ndarray, level: float) -> int | None:
    hits = np.nonzero(series >= level)[0]
    return int(steps[hits[0]]) if hits.size else None


def run(config: RunConfig) -> Trajectory:
    """Execute one training run.

    Neurons evolve independently on the shared sample stream. With the
    alternating oracle the persistent second-layer weights are never
    replaced by the trial values. Samples are drawn in blocks (values and
    order identical for identical seeds regardless of block size in the
    noiseless case; the blocking itself is a fixed implementation constant).

    Each step hands apply_step, called through this module's global, a
    C-contiguous (B, d) row slice of the drawn block and its 1-D label slice,
    both float64, which the step core takes as they are. The loop reads the
    config and each step's result once, and records with W.dot(theta), the
    same BLAS call as W @ theta, so its bits are those of the plain loop.
    """
    teacher = config.teacher
    oracle = config.oracle
    net = init_network(
        teacher.d,
        config.n_neurons,
        oracle.activation,
        config.init_mode,
        config.seed.child(ROLE_INIT).rng(),
        theta_star=teacher.theta_star,
    )
    data_rng = config.seed.child(ROLE_DATA).rng()
    n_steps = config.n_steps
    bsz = config.batch_size
    n_neurons = config.n_neurons
    record_every = config.record_every
    audit = config.audit
    theta = teacher.theta_star
    W = net.W

    rec_steps = [0]
    rec_kappa = [alignment(net, teacher)]
    audit_rows: list[tuple] = [] if audit else None
    diverged = False
    rejected = 0

    block = max(1, 4096 // bsz)
    step = 0
    while step < n_steps:
        n_block = min(block, n_steps - step)
        x_all, y_all = draw_batch(teacher, n_block * bsz, data_rng)
        for lo in range(0, n_block * bsz, bsz):
            x = x_all[lo : lo + bsz]
            y = y_all[lo : lo + bsz]
            bad = False
            for j in range(n_neurons):
                w_before = W[j]
                res = apply_step(w_before, x, y, oracle)
                w_new = res.w
                prenorm = res.prenorm
                if res.rejected:
                    rejected += 1
                if not math.isfinite(prenorm) or prenorm >= DIVERGENCE_NORM:
                    bad = True
                if audit:
                    # capture before the row buffer is overwritten below
                    g = res.raw_update
                    audit_rows.append(
                        (
                            step,
                            j,
                            float(theta.dot(w_before)),
                            float(theta.dot(w_new)),
                            float(theta.dot(g)),
                            float(g.dot(g)),
                        )
                    )
                W[j] = w_new
            step += 1
            if bad:
                diverged = True
                rec_steps.append(step)
                rec_kappa.append(W.dot(theta))
                break
            if step % record_every == 0 or step == n_steps:
                rec_steps.append(step)
                rec_kappa.append(W.dot(theta))
        if diverged:
            break

    steps_arr = np.asarray(rec_steps)
    kappa_arr = np.asarray(rec_kappa)
    best = np.max(kappa_arr, axis=1)
    weak = None if diverged else _first_crossing(steps_arr, best, config.weak_threshold)
    strong = None if diverged else _first_crossing(steps_arr, best, 1.0 - config.strong_eps)

    trace = None
    if audit and audit_rows:
        arr = np.asarray(audit_rows)
        n_rows = len(audit_rows) // n_neurons
        shape = (n_rows, n_neurons)
        trace = AuditTrace(
            kappa_before=arr[:, 2].reshape(shape),
            kappa_after=arr[:, 3].reshape(shape),
            theta_dot_g=arr[:, 4].reshape(shape),
            g_norm_sq=arr[:, 5].reshape(shape),
        )

    return Trajectory(
        steps=steps_arr,
        samples_seen=steps_arr * bsz,
        alignments=kappa_arr,
        weak_recovery_step=weak,
        strong_recovery_step=strong,
        diverged=diverged,
        rejected_steps=rejected,
        final_network=net,
        config=config,
        audit_trace=trace,
    )


@dataclass(frozen=True)
class AuditReport:
    """Pathwise check of the normalization lower bound.

    For every audited step with kappa >= 0 the recorded update must satisfy

        kappa' >= kappa + gamma <theta, g> - gamma^2 kappa |g|^2
                  - gamma^3 |<theta, g>| |g|^2.

    max_violation is the largest amount by which the bound exceeded kappa'
    (<= 0 means the bound held everywhere it applies).
    """

    n_steps_checked: int
    n_skipped: int
    max_violation: float
    n_violations: int


def normalization_error_audit(traj: Trajectory, tol: float = 1e-10) -> AuditReport:
    """Replay the per-step normalization bound from an audited trajectory."""
    if traj.audit_trace is None:
        raise ValueError("run the trajectory with audit=True first")
    t = traj.audit_trace
    gamma = traj.config.oracle.gamma
    applicable = t.kappa_before >= 0.0
    bound = (
        t.kappa_before
        + gamma * t.theta_dot_g
        - gamma**2 * t.kappa_before * t.g_norm_sq
        - gamma**3 * np.abs(t.theta_dot_g) * t.g_norm_sq
    )
    gap = np.where(applicable, bound - t.kappa_after, -np.inf)
    max_violation = float(np.max(gap)) if gap.size else -math.inf
    return AuditReport(
        n_steps_checked=int(applicable.sum()),
        n_skipped=int((~applicable).sum()),
        max_violation=max_violation,
        n_violations=int((gap > tol).sum()),
    )


def weak_recovery_sample_size(
    config: RunConfig,
    n_grid,
    replicates: int,
    full_scan: bool = False,
    use_mean: bool = False,
) -> int | None:
    """Smallest grid n whose median (or mean) final alignment clears the
    weak threshold, or None when no grid point recovers. Diverged runs count
    as alignment -1 (see recovery_alignment).

    Binary search over the grid assumes recovery is monotone in n and reuses
    evaluated levels; full_scan evaluates every level instead.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    cache: dict[int, bool] = {}

    def recovers(idx: int) -> bool:
        if idx not in cache:
            finals = []
            for rep in range(replicates):
                cfg = replace(config, n=n_grid[idx], seed=config.seed.child(idx, rep))
                traj = run(cfg)
                finals.append(recovery_alignment(traj.final_alignment, traj.diverged))
            agg = np.mean(finals) if use_mean else np.median(finals)
            cache[idx] = bool(agg >= config.weak_threshold)
        return cache[idx]

    if full_scan:
        for idx in range(len(n_grid)):
            if recovers(idx):
                return n_grid[idx]
        return None

    lo, hi = 0, len(n_grid) - 1
    if not recovers(hi):
        return None
    if recovers(lo):
        return n_grid[lo]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if recovers(mid):
            hi = mid
        else:
            lo = mid
    return n_grid[hi]


@dataclass(frozen=True)
class RidgeConfig:
    """Second-layer ridge regression settings."""

    lam: float
    n_fit: int
    n_test: int

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("penalty must be nonnegative")
        if self.n_fit < 1 or self.n_test < 1:
            raise ValueError("need positive sample counts")


@dataclass(frozen=True)
class RidgeFit:
    a_hat: np.ndarray
    test_mse: float
    test_label_second_moment: float


def _features(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    pre = x @ net.W.T + net.b
    return net.activation(pre) / net.n_neurons


def ridge_fit(
    net: NetworkSpec,
    teacher: TeacherSpec,
    cfg: RidgeConfig,
    rng: np.random.Generator,
) -> RidgeFit:
    """Exact regularized least squares on the second layer, first layer frozen.

    Features are phi_j(x) = sigma(<x, w_j> + b_j) / N; reports held-out MSE on
    fresh samples.
    """
    if cfg.n_fit < net.n_neurons:
        raise ValueError("need at least as many fit samples as neurons")
    x, y = draw_batch(teacher, cfg.n_fit, rng)
    phi = _features(net, x)
    gram = phi.T @ phi + cfg.lam * np.eye(net.n_neurons)
    if cfg.lam == 0.0 and np.linalg.cond(gram) > 1e12:
        raise ValueError("singular normal equations; use a penalty lam > 0")
    a_hat = np.linalg.solve(gram, phi.T @ y)
    x_test, y_test = draw_batch(teacher, cfg.n_test, rng)
    resid = _features(net, x_test) @ a_hat - y_test
    return RidgeFit(
        a_hat=a_hat,
        test_mse=float(np.mean(resid**2)),
        test_label_second_moment=float(np.mean(y_test**2)),
    )
