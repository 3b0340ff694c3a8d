"""Training loop: trajectory execution, recovery detection, audits, ridge fit.

A run executes exactly floor(n / B) sequential updates in a single pass over
fresh samples, recording per-neuron alignments at checkpoints. Divergence
(non-finite alignment or a pre-normalization norm blowup) is a flagged
outcome, never an exception or a warning.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ROLE_DATA,
    ROLE_INIT,
    NetworkSpec,
    SeedTree,
    TeacherSpec,
    alignment,
    draw_batch,
    init_network,
    is_integer,
)
from .oracles import OracleSpec, apply_step

DIVERGENCE_NORM = 1e12
STRONG_EPS = 0.1  # strong recovery: the best alignment reaches 1 - STRONG_EPS
_DRAW_VALUES = 2**16  # float64 values a noiseless run draws at once: 512 KB


def _check_integers(config, names) -> None:
    """Raise ValueError naming the first field of config in names whose value
    is not an integer (a bool or a float is not; see model.is_integer)."""
    for name in names:
        if not is_integer(getattr(config, name)):
            raise ValueError(f"{name} must be an integer, got {getattr(config, name)!r}")


@dataclass(frozen=True)
class RunConfig:
    """One simulation's full parameterization.

    A config is a frozen value, so every field keeps the value its checks
    passed; derive others with dataclasses.replace, which checks them again.
    """

    teacher: TeacherSpec
    oracle: OracleSpec
    n: int
    seed: SeedTree
    batch_size: int = 128
    n_neurons: int = 1
    weak_threshold: float = 0.5
    record_every: int = 100
    audit: bool = False

    def __post_init__(self) -> None:
        _check_integers(self, ("n", "batch_size", "n_neurons", "record_every"))
        if not (self.n >= self.batch_size >= 1):
            raise ValueError("need n >= batch_size >= 1")
        if self.n_neurons < 1:
            raise ValueError("need at least one neuron")
        if self.teacher.d < 2:
            raise ValueError("need dimension at least 2")
        if not 0.0 < self.weak_threshold < 1.0:
            raise ValueError("weak threshold must lie in (0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")

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


def recovers(alignments, threshold: float) -> bool:
    """Whether a group of replicates recovers: the median of their recovery
    alignments clears the weak threshold.

    This is the one recovery rule: sweep cells (a group of one), sweep
    summaries, the plot grid and the sample-size search all judge runs
    through it.
    """
    return bool(statistics.median(alignments) >= threshold)


def _first_crossing(steps: np.ndarray, series: np.ndarray, level: float) -> int | None:
    hits = np.nonzero(series >= level)[0]
    return int(steps[hits[0]]) if hits.size else None


def run(config: RunConfig) -> Trajectory:
    """Execute one training run.

    Every neuron starts at alignment d**-0.5 with theta_star = e_1 (see
    init_network), and the neurons evolve independently on the shared
    sample stream. With the alternating oracle the persistent second-layer
    weights are never replaced by the trial values. Samples are drawn in
    blocks of whole steps. A noiseless run's x stream is the same however
    it is cut, so its blocks hold max(1, min(4096 // B, 2**16 // (B d)))
    steps: at most 4096 samples and, where a step fits, at most 2**16
    values (_DRAW_VALUES, 512 KB), so the buffer stops growing with d. Its
    labels are cut-free too, since they read x's first column (see
    draw_batch). A noisy run keeps max(1, 4096 // B) steps: draw_batch
    draws a block's noise after its x, so its bits depend on the block.

    Each step hands apply_step, called through this module's global once per
    neuron, its samples in one of the two forms it takes, neither of them
    converted: at B = 1 a 1-D float64 ndarray row view of the drawn data and
    its label as a Python float (from the block's labels.tolist()), and
    otherwise a C-contiguous (B, d) float64 ndarray row block and its 1-D
    float64 ndarray labels, both views.
    The loop keeps each neuron's current row in a list, not in W, and W
    gets the rows back once, at the end of the run. It reads the config
    once, unpacks each step's result, and records into arrays sized for
    every checkpoint.

    An alignment with theta = e_1 is read, not multiplied: a checkpoint
    records each row's first coordinate plus 0.0, and the audit does the
    same for kappa before and after the step and for <theta, g>. For a
    finite vector the product W @ e_1 sums that coordinate with zeros, which
    gives it exactly, except that a -0.0 comes out as 0.0, as it does from
    + 0.0. An inf or nan entry anywhere makes the product nan, so the read
    is exact only on finite vectors. Every row that enters a step is finite,
    since a run stops at its first bad step; the new row is finite when its
    prenorm is, and g when g.g is. Where that is not known (at a bad step,
    where prenorm is not finite, or where g.g is not) the loop falls back to
    the product theta.dot and records what it gives: on a finite vector the
    bits of W @ theta (both sum one coordinate with zeros), and nan on any
    other. With the audit on, each step's audited quantities go into
    (steps, neurons) arrays, and the trace holds the rows of the steps taken.

    Every block is drawn into one (min(block, n_steps) B, d) buffer that the
    run owns, and a short last block fills its leading rows, so a run holds
    one data block, not two. The rows a step receives are valid for that
    step only, since the next block overwrites them. Nothing keeps them past
    it: apply_step returns fresh w and v, the audit stores numbers, and
    Trajectory holds no data.

    The step loop runs under one np.errstate that ignores overflow and
    invalid values, entered once per run: a step that overflows gives an inf
    or nan prenorm, which flags the run as diverged, so numpy's
    RuntimeWarnings would only repeat the flag. The error state decides
    whether numpy warns, never what it computes.
    """
    teacher = config.teacher
    oracle = config.oracle
    net = init_network(
        teacher.d, config.n_neurons, oracle.activation, config.seed.child(ROLE_INIT).rng()
    )
    data_rng = config.seed.child(ROLE_DATA).rng()
    n_steps = config.n_steps
    bsz = config.batch_size
    n_neurons = config.n_neurons
    record_every = config.record_every
    audit = config.audit
    theta = teacher.theta_star
    W = net.W

    # the start, every record_every-th step and the last; a diverging run
    # records the step that blew up in place of the next of these
    n_records = 1 + n_steps // record_every + (n_steps % record_every != 0)
    rec_steps = np.empty(n_records, dtype=int)
    rec_kappa = np.empty((n_records, n_neurons))
    rec_steps[0] = 0
    rec_kappa[0] = alignment(net, teacher)
    n_rec = 1
    if audit:
        # kappa before, kappa after, <theta, g> and |g|^2 of every step
        kb_rows, ka_rows, tg_rows, gg_rows = np.empty((4, n_steps, n_neurons))
    diverged = False
    rejected = 0

    block = max(1, 4096 // bsz)
    if teacher.noise.is_none:
        block = max(1, min(block, _DRAW_VALUES // (bsz * teacher.d)))
    x_buf = np.empty((min(block, n_steps) * bsz, teacher.d))
    rows = list(W)  # each neuron's current row; W holds them only when written back
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps and not diverged:
            n_block = min(block, n_steps - step)
            x_all, y_all = draw_batch(teacher, n_block * bsz, data_rng, out=x_buf)
            if bsz == 1:
                samples = zip(x_all, y_all.tolist())
            else:
                samples = zip(x_all.reshape(n_block, bsz, teacher.d), y_all.reshape(n_block, bsz))
            for x, y in samples:
                bad = False
                for j in range(n_neurons):
                    w_before = rows[j]
                    w_new, g, prenorm, step_rejected = apply_step(w_before, x, y, oracle)
                    if step_rejected:
                        rejected += 1
                    if not math.isfinite(prenorm) or prenorm >= DIVERGENCE_NORM:
                        bad = True
                    if audit:
                        # every row taken into a step is finite; the new row is
                        # when its prenorm is, and g is when g.g is
                        gg = g.dot(g)
                        kb_rows[step, j] = w_before.item(0) + 0.0
                        ka_rows[step, j] = (
                            w_new.item(0) + 0.0 if math.isfinite(prenorm) else theta.dot(w_new)
                        )
                        tg_rows[step, j] = g.item(0) + 0.0 if math.isfinite(gg) else theta.dot(g)
                        gg_rows[step, j] = gg
                    rows[j] = w_new
                step += 1
                if bad or step % record_every == 0 or step == n_steps:
                    rec_steps[n_rec] = step
                    kappa = rec_kappa[n_rec]
                    for j in range(n_neurons):
                        # a bad step's new rows may not be finite
                        kappa[j] = theta.dot(rows[j]) if bad else rows[j].item(0) + 0.0
                    n_rec += 1
                if bad:
                    diverged = True
                    break
    W[:] = rows

    steps_arr = rec_steps[:n_rec]
    kappa_arr = rec_kappa[:n_rec]
    best = np.max(kappa_arr, axis=1)
    weak = None if diverged else _first_crossing(steps_arr, best, config.weak_threshold)
    strong = None if diverged else _first_crossing(steps_arr, best, 1.0 - STRONG_EPS)

    trace = None
    if audit:
        # the steps taken: a diverged run stops early
        trace = AuditTrace(
            kappa_before=kb_rows[:step],
            kappa_after=ka_rows[:step],
            theta_dot_g=tg_rows[:step],
            g_norm_sq=gg_rows[:step],
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

    Every audited step with kappa >= 0 and a gap that is not nan is checked:
    its recorded update must satisfy

        kappa' >= kappa + gamma <theta, g> - gamma^2 kappa |g|^2
                  - gamma^3 |<theta, g>| |g|^2.

    Every other step is skipped, so checked plus skipped is the number of
    steps traced. max_violation is the largest amount by which the bound
    exceeded kappa' on a checked step (<= 0 means the bound held everywhere
    it was checked, and -inf that no step was checked).
    """

    n_steps_checked: int
    n_skipped: int
    max_violation: float
    n_violations: int


def normalization_error_audit(traj: Trajectory, tol: float = 1e-10) -> AuditReport:
    """Replay the per-step normalization bound from an audited trajectory.

    gamma is read as a float64, so a power of gamma that leaves the float
    range is inf, with no warning and no OverflowError, and the bound is
    -inf or nan there; where the powers are finite they have the bits of
    Python float powers. A nan gap (bound - kappa'), as at a step that
    overflowed, has nothing to check, and the step is skipped. Raises
    ValueError unless tol is finite and >= 0.
    """
    if traj.audit_trace is None:
        raise ValueError("run the trajectory with audit=True first")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    t = traj.audit_trace
    gamma = np.float64(traj.config.oracle.gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (
            t.kappa_before
            + gamma * t.theta_dot_g
            - gamma**2 * t.kappa_before * t.g_norm_sq
            - gamma**3 * np.abs(t.theta_dot_g) * t.g_norm_sq
        )
        gap = bound - t.kappa_after
    checked = (t.kappa_before >= 0.0) & ~np.isnan(gap)
    gap = gap[checked]
    return AuditReport(
        n_steps_checked=gap.size,
        n_skipped=checked.size - gap.size,
        max_violation=float(np.max(gap, initial=-np.inf)),
        n_violations=int((gap > tol).sum()),
    )


def weak_recovery_sample_size(config: RunConfig, n_grid, replicates: int) -> int | None:
    """Smallest grid n whose replicates recover (see recovers: their median
    final alignment clears the weak threshold), or None when no grid point
    recovers. Diverged runs count as alignment -1 (see recovery_alignment).

    The search runs the levels in increasing n and stops at the first level
    that recovers; replicate rep of level idx runs on seed child(idx, rep).
    """
    if not is_integer(replicates):
        raise ValueError(f"replicates must be an integer, got {replicates!r}")
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    n_grid = list(n_grid)
    for n in n_grid:
        if not is_integer(n):
            raise ValueError(f"n_grid entries must be integers, got {n!r}")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    for idx, n in enumerate(n_grid):
        finals = []
        for rep in range(replicates):
            traj = run(replace(config, n=n, seed=config.seed.child(idx, rep)))
            finals.append(recovery_alignment(traj.final_alignment, traj.diverged))
        if recovers(finals, config.weak_threshold):
            return n
    return None


@dataclass(frozen=True)
class RidgeConfig:
    """Second-layer ridge regression settings."""

    lam: float
    n_fit: int
    n_test: int

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:  # also true for nan
            raise ValueError(f"penalty must be nonnegative and finite, got lam={self.lam}")
        _check_integers(self, ("n_fit", "n_test"))
        if self.n_fit < 1 or self.n_test < 1:
            raise ValueError("need positive sample counts")


@dataclass(frozen=True)
class RidgeFit:
    a_hat: np.ndarray
    test_mse: float
    test_label_second_moment: float


def _features(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    return net.activation(x @ net.W.T) / net.n_neurons


def ridge_fit(
    net: NetworkSpec,
    teacher: TeacherSpec,
    cfg: RidgeConfig,
    rng: np.random.Generator,
) -> RidgeFit:
    """Exact regularized least squares on the second layer, first layer frozen.

    Fits the second layer a of f(x) = sum_j a_j phi_j(x) on the features
    phi_j(x) = sigma(<x, w_j>) / N; reports held-out MSE on fresh samples.
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
