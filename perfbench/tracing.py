"""Per-layer tracing from outside the package.

The tracer rebinds silab's public names in every silab module that holds
them (``silab.dynamics.apply_step``, ``silab.harness.mu_table``,
``silab.oracles.expand``, ...), so each call that crosses a module boundary
runs through a wrapper. Hot calls are aggregated as counts and total time
per name, never stored per call. A span's self time is its duration minus
the time of the traced calls it made.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

from silab import cli, dynamics, harness, hermite, oracles, theory
from silab.hermite import MonomialPoly, hermite_poly
from silab.model import SeedTree, TeacherSpec, draw_batch
from workloads import NUMPY_PROBE_REF_S, cpu_clock, numpy_probe

DRAW_BLOCK = 4096  # samples per draw in dynamics.run, whatever the batch size
PROBE_DIMS = (25, 50)


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._open = [0.0]  # time covered by children of each open span; [0] is the root
        self._patches: list[tuple[object, str, object]] = []
        self.runs: list[tuple[object, object, bool]] = []  # (config, trajectory, from harness)

    # -- wrapping -----------------------------------------------------------

    def span(self, name, fn, key=None, observe=None):
        """Wrap fn so each call adds to the totals of ``name`` (or key(args))."""
        calls, total, self_s, open_spans = self.calls, self.total, self.self_s, self._open
        clock = time.process_time  # CPU time, as for the end-to-end metrics

        def wrapper(*args, **kwargs):
            label = name if key is None else key(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                open_spans[-1] += elapsed
                calls[label] += 1
                total[label] += elapsed
                self_s[label] += elapsed - child
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def hidden(self):
        """Time spent inside counts as a child of the open span, under no name."""
        self._open.append(0.0)
        start = time.process_time()
        try:
            yield
        finally:
            self._open.pop()
            self._open[-1] += time.process_time() - start

    def _rebind(self, original, wrapper, modules=None) -> None:
        if modules is None:
            modules = [m for n, m in sys.modules.items() if n == "silab" or n.startswith("silab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries; undo with uninstall()."""
        for module, name in (
            (cli, "main"),
            (harness, "sweep"), (harness, "emit"),
            (oracles, "mu_table"), (oracles, "mu_integrand_moments"),
            (oracles, "alignment_gain_moments"),
            (theory, "gamma_auto"), (theory, "recursion_oracle"),
            (hermite, "expand"),
        ):
            fn = getattr(module, name)
            layer = module.__name__.rsplit(".", 1)[1]
            self._rebind(fn, self.span(f"{layer}.{name}", fn))

        step = oracles.apply_step
        self._rebind(step, self.span("oracles.apply_step", step,
                                     key=lambda args: "oracles.apply_step." + args[3].kind))

        run = dynamics.run
        for modules, from_harness in (([harness], True), (None, False)):
            def observe(args, traj, from_harness=from_harness):
                self.runs.append((args[0], traj, from_harness))

            self._rebind(run, self.span("dynamics.run", run, observe=observe), modules)

        phase = theory.phase_boundaries
        timed_phase = self.span("theory.phase_boundaries", phase)

        def counted_phase(mu_of_eta, *args, **kwargs):
            def counted(eta):
                self.calls["theory.mu_evals"] += 1
                return mu_of_eta(eta)

            return timed_phase(counted, *args, **kwargs)

        self._rebind(phase, counted_phase)

        mul = MonomialPoly.__mul__
        calls = self.calls

        def counted_mul(a, b):
            calls["hermite.poly_mul"] += 1
            return mul(a, b)

        self._patches.append((MonomialPoly, "__mul__", mul))
        MonomialPoly.__mul__ = counted_mul

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# model probe and per-layer metrics
# ---------------------------------------------------------------------------


def draw_probe(seed: int, repeats: int = 41) -> dict[int, float]:
    """CPU microseconds of one direct draw_batch call at run()'s block shape,
    at the reference speed: lower quartile of the repeats, scaled by the
    numpy speed probe run before each of them."""
    rng = SeedTree(seed, (7,)).rng()
    out = {}
    for d in PROBE_DIMS:
        teacher = TeacherSpec(d=d, link=hermite_poly(3))
        for _ in range(5):
            draw_batch(teacher, DRAW_BLOCK, rng)
        probes, times = [], []
        for _ in range(repeats):
            probes.append(numpy_probe())
            start = cpu_clock()
            draw_batch(teacher, DRAW_BLOCK, rng)
            times.append(cpu_clock() - start)
        scale = NUMPY_PROBE_REF_S / _low_quartile(probes)
        out[d] = _low_quartile(times) * scale * 1e6
    return out


def _low_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def _drawn_samples(cfg, traj) -> int:
    """Samples run() drew: whole blocks up to the last executed step."""
    steps = int(traj.steps[-1])
    per_block = max(1, DRAW_BLOCK // cfg.batch_size)
    blocks = -(-steps // per_block)
    return min(cfg.n_steps, blocks * per_block) * cfg.batch_size


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, probe_us: dict[int, float], scale: float) -> dict[str, float]:
    """Per-layer metric values of one traced pass (names as in BENCHMARK.json),
    times at the reference speed: CPU times times ``scale``."""
    calls = tracer.calls
    total = defaultdict(float, {k: v * scale for k, v in tracer.total.items()})
    self_s = defaultdict(float, {k: v * scale for k, v in tracer.self_s.items()})
    m: dict[str, float] = {}

    m["cli.self_s"] = self_s["cli.main"]

    cells = [(cfg, traj) for cfg, traj, from_harness in tracer.runs if from_harness]
    executed: int = 0
    longest: dict[tuple, int] = {}
    for cfg, traj in cells:
        steps = int(traj.steps[-1])
        executed += steps
        path = cfg.seed.path
        prefix = (cfg.seed.master_seed, cfg.oracle.eta, cfg.oracle.gamma, path[:1] + path[2:])
        longest[prefix] = max(longest.get(prefix, 0), steps)
    m["harness.cells"] = len(cells)
    m["harness.sweep.self_s"] = self_s["harness.sweep"]
    m["harness.emit_s"] = total["harness.emit"]
    m["harness.useful_step_ratio"] = _ratio(sum(longest.values()), executed)

    steps = samples = checkpoints = audit_rows = rejected = diverged = drawn = 0
    drawn_bytes = 0
    draw_s = 0.0
    for cfg, traj, _ in tracer.runs:
        steps += int(traj.steps[-1])
        samples += traj.total_samples
        checkpoints += len(traj.steps)
        if traj.audit_trace is not None:
            audit_rows += traj.audit_trace.kappa_before.size
        rejected += traj.rejected_steps
        diverged += int(traj.diverged)
        n_drawn = _drawn_samples(cfg, traj)
        drawn += n_drawn
        drawn_bytes += n_drawn * (cfg.teacher.d + 1) * 8
        if cfg.teacher.d in probe_us:
            draw_s += n_drawn / DRAW_BLOCK * probe_us[cfg.teacher.d] * 1e-6
    run_s = total["dynamics.run"]
    m["dynamics.run.calls"] = calls["dynamics.run"]
    m["dynamics.steps"] = steps
    m["dynamics.samples"] = samples
    m["dynamics.run_s"] = run_s
    m["dynamics.run.self_s"] = self_s["dynamics.run"]
    m["dynamics.step_us"] = _ratio(run_s, steps) * 1e6
    m["dynamics.samples_per_s"] = _ratio(samples, run_s)
    m["dynamics.checkpoints"] = checkpoints
    m["dynamics.audit_rows"] = audit_rows
    m["dynamics.rejected_steps"] = rejected
    m["dynamics.diverged_runs"] = diverged

    m["model.draw.samples"] = drawn
    m["model.draw.bytes"] = drawn_bytes
    for d in PROBE_DIMS:
        m[f"model.draw_us_per_block.d{d}"] = probe_us[d]
    m["model.draw_share"] = _ratio(draw_s, run_s)

    kinds = ("online", "batch_reuse", "alternating", "deep_alternating")
    step_keys = ["oracles.apply_step." + k for k in kinds]
    m["oracles.apply_step.calls"] = sum(calls[k] for k in step_keys)
    m["oracles.apply_step_s"] = sum(total[k] for k in step_keys)
    for kind, k in zip(kinds, step_keys):
        m[f"oracles.apply_step_us.{kind}"] = _ratio(total[k], calls[k]) * 1e6
    m["oracles.mu_table.calls"] = calls["oracles.mu_table"]
    m["oracles.mu_table_s"] = total["oracles.mu_table"]
    m["oracles.moments_s"] = (total["oracles.mu_integrand_moments"]
                              + total["oracles.alignment_gain_moments"])

    m["theory.phase_boundaries.calls"] = calls["theory.phase_boundaries"]
    m["theory.phase_boundaries_s"] = total["theory.phase_boundaries"]
    m["theory.mu_evals_per_phase"] = _ratio(calls["theory.mu_evals"],
                                            calls["theory.phase_boundaries"])
    m["theory.gamma_auto_s"] = total["theory.gamma_auto"]
    m["theory.recursion_oracle_s"] = total["theory.recursion_oracle"]

    m["hermite.expand.calls"] = calls["hermite.expand"]
    m["hermite.expand_s"] = total["hermite.expand"]
    m["hermite.poly_mul.calls"] = calls["hermite.poly_mul"]
    return m
