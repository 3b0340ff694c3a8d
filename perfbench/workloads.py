"""The three benchmark workloads, each a fixed pass of work built from a seed.

A workload object is built from ``--seed`` (input generation), runs one
untimed warm-up unit, and then runs one pass; run.py runs each pass in a
fresh process. A pass is the workload's full result: its time is ``cpu_s``,
and the units inside it (sweep cells, trajectories, theory queries) give
``unit_cpu_s_p50`` and ``unit_cpu_s_tail``. Each unit runs once per pass, in
the same order, so a pass's unit count and counters repeat exactly. Every
pass checks the program's invariants and hashes its outputs; passes of one
seed must hash identically.

Times are CPU seconds of the benchmark process and its finished children
(``cpu_clock``); wall time is recorded beside them. Before each unit a short
speed probe runs, so that run.py can tell how fast the core was: each
workload names the probe whose code is most like its own (``probe``) and
the probe's lower-quartile time on the machine it was sized on, idle
(``PROBE_REF_S``).

The workloads call silab through module attributes (``oracles.mu_table``,
``dynamics.run``, ...) so that the tracer, which rebinds those attributes,
sees the calls. The invariant checks use references bound at import time and
are therefore never traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from silab import cli, dynamics, harness, hermite, oracles, theory
from silab.dynamics import RunConfig
from silab.hermite import MonomialPoly, hermite_poly
from silab.model import NoiseSpec, SeedTree, TeacherSpec
from silab.oracles import OracleSpec

# Untraced references for the checks.
_mu_table = oracles.mu_table
_audit = dynamics.normalization_error_audit
_t_value = theory._t_value

UNIT_NORM_TOL = 1e-10
AUDIT_TOL = 1e-10
GAIN_REL_TOL = 1e-10
CROSSING_REL_TOL = 1e-9

# Lower quartile of each probe's CPU time on the machine the benchmark was
# sized on (2-vCPU Intel Xeon VM), idle.
PYTHON_PROBE_REF_S = 3.7e-4
NUMPY_PROBE_REF_S = 3.2e-4

HE2 = hermite_poly(2)
HE3 = hermite_poly(3)
Z2 = MonomialPoly.monomial(2)


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


_PROBE_VEC = np.linspace(0.0, 1.0, 50)
_PROBE_RNG = np.random.default_rng(0)


def python_probe() -> float:
    """CPU seconds of fixed Python arithmetic and small numpy operations
    that run no silab code."""
    start = cpu_clock()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    vec = _PROBE_VEC
    for _ in range(150):
        vec = vec * 0.999 + 0.001
    _PROBE_RNG.standard_normal((64, 50)) @ vec
    return cpu_clock() - start


def numpy_probe() -> float:
    """CPU seconds of a fixed Gaussian draw, matrix products and polynomial
    evaluation on a 512 x 50 block, the shape of run()'s sampling, in numpy
    alone."""
    start = cpu_clock()
    x = _PROBE_RNG.standard_normal((512, 50))
    z = x @ _PROBE_VEC
    y = (z * z - 3.0) * z
    x.T @ y
    return cpu_clock() - start


@dataclass
class PassResult:
    """Outcome of one pass: CPU time (probes excluded) and wall time, per-unit
    CPU times, the probe time before each unit, unit counts, failures and
    output digests."""

    cpu_s: float
    wall_s: float
    unit_s: list[float]
    probe_s: list[float]
    attempted: int
    failed: int
    digest: dict[str, str]
    failures: list[str] = field(default_factory=list)


class PassClock:
    """Times one pass and, inside it, each unit.

    ``probe`` runs before each unit and is timed apart from it. ``hide`` wraps
    the probe; a tracer passes its own, so that the probe does not count as
    self time of the traced span it runs inside.
    """

    def __init__(self, probe, hide=contextlib.nullcontext):
        self.unit_s: list[float] = []
        self.probe_s: list[float] = []
        self._probe = probe
        self._hide = hide
        self._cpu, self._wall = cpu_clock(), time.perf_counter()

    @contextlib.contextmanager
    def unit(self):
        with self._hide():
            self.probe_s.append(self._probe())
        start = cpu_clock()
        try:
            yield
        finally:
            self.unit_s.append(cpu_clock() - start)

    def stop(self) -> None:
        """End the timed section; checks and hashing come after it."""
        self._cpu = cpu_clock() - self._cpu - sum(self.probe_s)
        self._wall = time.perf_counter() - self._wall

    def result(self, attempted: int, failures: list[str], digest: dict) -> PassResult:
        # a unit counts once however many of its invariants broke
        failed = min(attempted, len({msg.split(":", 1)[0] for msg in failures}))
        return PassResult(self._cpu, self._wall, self.unit_s, self.probe_s, attempted,
                          failed, digest, failures)


def _trajectory_faults(traj, cfg: RunConfig) -> list[str]:
    """Invariants every run must satisfy, empty when all hold."""
    faults = []
    norms = np.linalg.norm(traj.final_network.W, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        faults.append(f"final rows not unit-norm (max dev {np.max(np.abs(norms - 1.0)):.3g})")
    if not traj.diverged:
        if not np.all(np.isfinite(traj.alignments)):
            faults.append("non-finite alignment in a non-diverged run")
        want = (cfg.n // cfg.batch_size) * cfg.batch_size
        if traj.total_samples != want:
            faults.append(f"samples_seen {traj.total_samples} != floor(n/B)*B = {want}")
    if cfg.audit:
        report = _audit(traj, tol=AUDIT_TOL)
        if report.n_violations:
            faults.append(f"{report.n_violations} normalization-audit violations")
    return faults


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


# ---------------------------------------------------------------------------
# fig1_sweep
# ---------------------------------------------------------------------------


class Fig1Sweep:
    """Reduced Figure-1 (eta, n) sweep through ``silab.cli.main(["sweep", ...])``.

    Alternating oracle, link = act = He3, d = 50, B = 128, automatic gamma,
    record_every = 100; eta log-spaced over [1e-3, 1] and n over
    [256, 501187] (the headline grid's axes with fewer points), several
    replicates per (eta, n), as in the headline sweep. The seed is the
    sweep's master seed.
    """

    name = "fig1_sweep"
    probe = staticmethod(numpy_probe)
    PROBE_REF_S = NUMPY_PROBE_REF_S
    ETA_COUNT = 3
    N_COUNT = 7
    REPLICATES = 2
    BATCH = 128

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = os.path.join(out_dir, self.name)
        common = [
            "sweep", "--oracle", "alternating", "--link", "He3", "--act", "He3",
            "--d", "50", "--batch", str(self.BATCH), "--gamma", "auto", "--record-every", "100",
            "--master-seed", str(seed), "--jobs", "1",
        ]
        self.argv = common + [
            "--out", self.out_dir,
            "--eta-min", "1e-3", "--eta-max", "1", "--eta-count", str(self.ETA_COUNT),
            "--n-min", "256", "--n-max", "501187", "--n-count", str(self.N_COUNT),
            "--replicates", str(self.REPLICATES),
        ]
        self.warmup_argv = common + [
            "--out", os.path.join(out_dir, self.name + "_warmup"),
            "--eta-min", "0.1", "--eta-max", "0.1", "--eta-count", "1",
            "--n-min", "256", "--n-max", "256", "--n-count", "1", "--replicates", "1",
        ]
        self.cells = self.ETA_COUNT * len(harness.int_log_grid(self.N_COUNT, 256, 501187))
        self.cells *= self.REPLICATES

    def warmup(self) -> None:
        self._sweep(self.warmup_argv, PassClock(self.probe), [])

    def _sweep(self, argv, clock: PassClock, runs: list) -> int:
        """Run the sweep, timing each cell and keeping its trajectory."""
        inner = harness.run

        def timed_run(cfg):
            with clock.unit():
                traj = inner(cfg)
            runs.append((cfg, traj))
            return traj

        harness.run = timed_run
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        finally:
            harness.run = inner

    def run_pass(self, hide=contextlib.nullcontext) -> PassResult:
        clock, runs = PassClock(self.probe, hide), []
        try:
            rc = self._sweep(self.argv, clock, runs)
        except Exception as err:  # the sweep raised: every cell of the pass failed
            rc = repr(err)
        clock.stop()
        if rc != 0:
            failures = [f"cell {i}: sweep ended with {rc}" for i in range(self.cells)]
            return clock.result(self.cells, failures, {})
        failures = [f"cell n={cfg.n} eta={cfg.oracle.eta:.4g}: {msg}"
                    for cfg, traj in runs for msg in _trajectory_faults(traj, cfg)]
        digest = {}
        for fname in ("cells.csv", "summary.csv"):
            with open(os.path.join(self.out_dir, fname), "rb") as fh:
                digest[fname] = hashlib.sha256(fh.read()).hexdigest()
        return clock.result(self.cells, failures + self._check_cells(), digest)

    def _check_cells(self) -> list[str]:
        faults = []
        with open(os.path.join(self.out_dir, "cells.csv")) as fh:
            rows = list(fh)[1:]
        if len(rows) != self.cells:
            faults.append(f"cells.csv: {len(rows)} rows, want {self.cells}")
        for row in rows:
            eta, n, _rep, _seed, final, recovered, seen, diverged = row.strip().split(",")
            where = f"cell n={n} eta={float(eta):.4g}"
            if int(diverged) and int(recovered):
                faults.append(f"{where}: both diverged and recovered")
            if not int(diverged):
                if not math.isfinite(float(final)):
                    faults.append(f"{where}: non-finite final alignment")
                if int(seen) != (int(n) // self.BATCH) * self.BATCH:
                    faults.append(f"{where}: samples_seen {seen} != floor(n/B)*B")
        return faults


# ---------------------------------------------------------------------------
# per_sample
# ---------------------------------------------------------------------------


class PerSample:
    """B = 1 recursion-calibration runs plus one audited run per oracle kind.

    Four cases (links He2, He3 x online, alternating at eta = 1e-3), each:
    mu_table, gamma_auto / 10, recursion_oracle, then REPEATS fixed-length
    runs at d = 25 with record_every = 1. Then one audited run per oracle
    kind, the deep one with activation z2 at depth 3.
    """

    name = "per_sample"
    probe = staticmethod(python_probe)
    PROBE_REF_S = PYTHON_PROBE_REF_S
    D = 25
    STEPS = 1024
    REPEATS = 12
    C_TARGET = 0.3

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.cases = [
            (link, kind, 1e-3 if kind == "alternating" else 0.0)
            for link in (HE2, HE3)
            for kind in ("online", "alternating")
        ]
        self.audited = [
            OracleSpec(kind="online", activation=HE3, gamma=0.002),
            OracleSpec(kind="batch_reuse", activation=HE3, gamma=0.002, eta=1e-3),
            OracleSpec(kind="alternating", activation=HE3, gamma=0.002, eta=0.5),
            OracleSpec(kind="deep_alternating", activation=Z2, gamma=0.002, eta=0.5, depth=3),
        ]
        self.units = len(self.cases) * self.REPEATS + len(self.audited)

    def _config(self, link, oracle, path, audit=False) -> RunConfig:
        return RunConfig(
            teacher=TeacherSpec(d=self.D, link=link),
            oracle=oracle,
            n=self.STEPS,
            seed=SeedTree(self.seed, path),
            batch_size=1,
            weak_threshold=self.C_TARGET,
            record_every=1,
            audit=audit,
        )

    def warmup(self) -> None:
        dynamics.run(self._config(HE3, self.audited[0], (99,)))

    def _run_unit(self, cfg, clock, failures, alignments) -> None:
        try:
            with clock.unit():
                traj = dynamics.run(cfg)
        except Exception as err:  # a unit that raises counts as failed
            failures.append(f"run {cfg.seed.path}: raised {err!r}")
            return
        failures.extend(f"run {cfg.seed.path}: {m}" for m in _trajectory_faults(traj, cfg))
        alignments.append(traj.alignments)

    def run_pass(self, hide=contextlib.nullcontext) -> PassResult:
        clock = PassClock(self.probe, hide)
        failures: list[str] = []
        alignments: list[np.ndarray] = []
        for case, (link, kind, eta) in enumerate(self.cases):
            spec = OracleSpec(kind=kind, activation=link, eta=eta)
            try:
                mu = oracles.mu_table(spec, link, NoiseSpec(), self.D)
                gamma = theory.gamma_auto(spec, mu, self.D) / 10
                theory.recursion_oracle(mu, gamma, self.D, c_target=self.C_TARGET,
                                        t_max=1_000_000)
            except Exception as err:  # the case's runs cannot start: each one failed
                failures.extend(f"run {(case, rep)}: case set-up raised {err!r}"
                                for rep in range(self.REPEATS))
                continue
            for rep in range(self.REPEATS):
                cfg = self._config(link, replace(spec, gamma=gamma), (case, rep))
                self._run_unit(cfg, clock, failures, alignments)
        for idx, spec in enumerate(self.audited):
            cfg = self._config(HE3, spec, (len(self.cases), idx), audit=True)
            self._run_unit(cfg, clock, failures, alignments)
        clock.stop()
        h = hashlib.sha256()
        for arr in alignments:
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return clock.result(self.units, failures, {"alignments": h.hexdigest()})


# ---------------------------------------------------------------------------
# theory_atlas
# ---------------------------------------------------------------------------


class TheoryAtlas:
    """Exact theory queries, no simulation.

    Oracles alternating and batch_reuse (He3) and deep_alternating (z2,
    depth 3; He3 at depth 3 exceeds the degree cap in mu_integrand_moments)
    against the He3 link, under three noise settings at four dimensions. The
    seed draws each query's eta log-uniformly in [1e-3, 1] and shuffles the
    query order; the digest is taken in canonical order.
    """

    name = "theory_atlas"
    probe = staticmethod(python_probe)
    PROBE_REF_S = PYTHON_PROBE_REF_S
    ORACLES = (("alternating", HE3, 2), ("batch_reuse", HE3, 2), ("deep_alternating", Z2, 3))
    NOISES = (NoiseSpec(), NoiseSpec("gaussian", 0.5), NoiseSpec("laplace", 0.3))
    DIMS = (25, 50, 100, 400)
    KAPPAS = (0.05, 0.2, 0.5)
    ETA_RANGE = (1e-3, 1.0)
    LINK = HE3
    EXPONENT_POWERS = 6

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        self.queries = [
            (kind, act, depth, noise, d, 10.0 ** rng.uniform(-3.0, 0.0))
            for kind, act, depth in self.ORACLES
            for noise in self.NOISES
            for d in self.DIMS
        ]
        self.order = list(range(len(self.queries)))
        rng.shuffle(self.order)

    def warmup(self) -> None:
        self._query(self.queries[self.order[0]])

    def _query(self, query):
        kind, act, depth, noise, d, eta = query
        spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)

        def mu_of_eta(e: float):
            return oracles.mu_table(replace(spec, eta=e), self.LINK, noise, d)

        mu = mu_of_eta(eta)
        gamma = theory.gamma_auto(spec, mu, d)
        pred = theory.predict_T(mu, gamma, d)
        bounds = theory.phase_boundaries(mu_of_eta, d, self.ETA_RANGE, spec=spec)
        out = [mu.mus, mu.istar, gamma, pred, bounds]
        if kind != "deep_alternating":
            out.append(oracles.mu_integrand_moments(spec, self.LINK, noise, d))
            out.append([
                (oracles.alignment_gain_moments(spec, self.LINK, noise, d, k),
                 oracles.expected_alignment_gain(mu, k))
                for k in self.KAPPAS
            ])
        return out

    def _faults(self, query, out) -> list[str]:
        kind, act, depth, noise, d, eta = query
        where = f"query {kind} {noise.family} d={d} eta={eta:.4g}"
        faults = []
        spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
        for b in out[4]:
            if b.degenerate:
                continue
            tab = _mu_table(replace(spec, eta=b.eta_star), self.LINK, noise, d)
            rel = _rel(_t_value(tab, b.i, d), _t_value(tab, b.j, d))
            if not rel <= CROSSING_REL_TOL:
                faults.append(f"{where}: T_{b.i} and T_{b.j} differ by {rel:.3g} at eta*")
        if kind != "deep_alternating":
            for k, ((mean, _var), gain) in zip(self.KAPPAS, out[6]):
                if not _rel(mean, gain) <= GAIN_REL_TOL:
                    faults.append(f"{where}: gain at kappa={k} differs by {_rel(mean, gain):.3g}")
        return faults

    def run_pass(self, hide=contextlib.nullcontext) -> PassResult:
        clock = PassClock(self.probe, hide)
        failures: list[str] = []
        results: dict[int, object] = {}
        for idx in self.order:
            try:
                with clock.unit():
                    results[idx] = self._query(self.queries[idx])
            except Exception as err:  # a unit that raises counts as failed
                failures.append(f"query {idx}: raised {err!r}")
        try:
            report = hermite.exponent_report(self.LINK, self.EXPONENT_POWERS)
        except Exception as err:  # reported like a failed query
            report = None
            failures.append(f"exponent_report: raised {err!r}")
        clock.stop()
        for idx, out in results.items():
            failures.extend(self._faults(self.queries[idx], out))
        h = hashlib.sha256(repr(report).encode())
        for idx in sorted(results):
            h.update(_canonical(results[idx]).encode())
        return clock.result(len(self.queries), failures, {"outputs": h.hexdigest()})


def _canonical(obj) -> str:
    """Full-precision text of nested outputs (floats by repr, arrays by bytes)."""
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj, dtype=np.float64).tobytes()).hexdigest()
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(_canonical(v) for v in obj) + ")"
    return repr(obj)


WORKLOADS = {cls.name: cls for cls in (Fig1Sweep, PerSample, TheoryAtlas)}
