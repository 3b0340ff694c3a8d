"""silab benchmark: three workloads, end-to-end metrics, per-layer trace.

Run one workload from the repository root:

    python3 perfbench/run.py --workload fig1_sweep --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics (cpu_s, unit_cpu_s_p50,
unit_cpu_s_tail, setup_s, peak_rss_mb) by name and unit, the error rate,
the output digests and the environment; with --trace 1 it prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Without
--workload every workload runs in turn. The workloads and the metrics' names,
units and directions are read from BENCHMARK.json at the repository root.

Every pass runs in a fresh process (this script with --pass), so no cache
filled by one pass serves the next, and each of those processes also gives
one set-up time. The package is imported from src/ of the checkout that holds
this file; the benchmark exits with status 2 when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# One BLAS thread: the workloads are single-process, and on a small shared
# machine extra BLAS threads only add scheduling noise to 50-wide products.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 4
TAIL_BEYOND = 10
PASS_TIMEOUT_S = 120


def _sources_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "silab", "__init__.py"))


def _import_silab() -> bool:
    if not _sources_present():
        return False
    sys.path.insert(0, SRC)
    import silab

    return os.path.abspath(silab.__file__).startswith(SRC + os.sep)


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one pass, in its own process
# ---------------------------------------------------------------------------


def _low_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def run_one_pass(workload_name: str, seed: int, trace: bool) -> dict:
    """Set up, run one pass and describe it; the body of a --pass process."""
    import workloads  # perfbench/ is on sys.path as the script's directory

    cls = workloads.WORKLOADS[workload_name]
    workload = cls(seed, OUT_DIR)
    workload.warmup()
    setup_s = time.process_time()
    layers = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = workload.run_pass(hide=tracer.hidden)
        finally:
            tracer.uninstall()
        scale = cls.PROBE_REF_S / _low_quartile(result.probe_s)
        layers = tracing.layer_metrics(tracer, tracing.draw_probe(seed), scale)
    else:
        result = workload.run_pass()
    return {
        "setup_s": setup_s,
        "cpu_s": result.cpu_s,
        "wall_s": result.wall_s,
        "unit_s": result.unit_s,
        "probe_s": result.probe_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "digest": result.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }


def spawn_pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--pass"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"a {workload} pass process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_passes(workload: str, seed: int, seconds: float, traces=(False,)) -> list[list[dict]]:
    """Passes until `seconds` of wall time have passed (at least MIN_PASSES
    of each kind); kinds in ``traces`` alternate."""
    passes: list[list[dict]] = [[] for _ in traces]
    deadline = time.perf_counter() + seconds
    while len(passes[-1]) < MIN_PASSES or time.perf_counter() < deadline:
        for kind, trace in zip(passes, traces):
            kind.append(spawn_pass(workload, seed, trace))
    return passes


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND units above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _reference_match(workload: str, seed: int, digest: dict) -> bool | None:
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        ref = None
    return None if ref is None else ref == digest


def speed_scale(probe_ref_s: float, passes) -> float:
    """The probe's reference time over its lower quartile in this run."""
    return probe_ref_s / _low_quartile([t for p in passes for t in p["probe_s"]])


def best_costs(passes, scale: float) -> tuple[list[float], float]:
    """Each unit's CPU time and the pass time, at the reference speed.

    On the machine the benchmark was sized on, the core's speed changes
    under the process: identical units took 1.0x to 1.8x of their fastest
    time, in phases lasting from under a second to a whole run, and CPU
    time moved with wall time. A unit runs once per pass and a speed probe
    runs before each unit, so both sample the same moments; a unit's lower
    quartile over the passes, times ``scale`` (from speed_scale, the
    probes' lower quartile), is its cost at the reference speed. Lower
    quartiles follow the fast phases without resting on one lucky sample.
    The pass time is the sum of the units' times plus the time spent
    outside the units, taken the same way.
    """
    units = [_low_quartile(times) * scale for times in zip(*(p["unit_s"] for p in passes))]
    rest = _low_quartile([p["cpu_s"] - sum(p["unit_s"]) for p in passes]) * scale
    return units, sum(units) + rest


def _summarize_passes(passes) -> dict:
    digests = [p["digest"] for p in passes]
    return {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "digest": digests[0],
        "digests_repeat": all(d == digests[0] for d in digests),
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_cpu_s": [p["setup_s"] for p in passes],
    }


def measure_end_to_end(workload: str, probe_ref_s: float, seed: int,
                       seconds: float) -> tuple[dict, dict]:
    [passes] = run_passes(workload, seed, seconds)
    scale = speed_scale(probe_ref_s, passes)
    units, cpu = best_costs(passes, scale)
    tail, tail_pct = _tail(units)
    metrics = {
        "cpu_s": cpu,
        "unit_cpu_s_p50": statistics.median(units),
        "unit_cpu_s_tail": tail,
        "setup_s": statistics.median(p["setup_s"] for p in passes) * scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw_units, raw_cpu = best_costs(passes, 1.0)
    details = _summarize_passes(passes)
    details.update({
        "units": len(units),
        "unit_cpu_s_tail_percentile": tail_pct,
        "unit_cpu_s": [p["unit_s"] for p in passes],
        "speed_scale": scale,
        # the same estimators without the speed correction, for comparison
        "unscaled": {
            "cpu_s": raw_cpu,
            "unit_cpu_s_p50": statistics.median(raw_units),
            "unit_cpu_s_tail": _tail(raw_units)[0],
            "setup_s": statistics.median(p["setup_s"] for p in passes),
        },
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "error_rate": details["failed"] / details["attempted"],
    })
    return metrics, details


def measure_layers(workload: str, probe_ref_s: float, seed: int, seconds: float,
                   per_layer: list[dict]) -> tuple[dict, dict]:
    plain, traced = run_passes(workload, seed, seconds, traces=(False, True))
    per_pass = [p["layers"] for p in traced]
    # each traced pass does the same work: counts repeat, and the best value
    # over the passes is taken, as for the end-to-end times
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if not name.startswith("trace."):
            pick = max if m["better"] == "higher" else min
            metrics[name] = pick(layers[name] for layers in per_pass)
    scale = speed_scale(probe_ref_s, plain + traced)
    cpu_plain = best_costs(plain, scale)[1]
    cpu_traced = best_costs(traced, scale)[1]
    metrics["trace.overhead_s"] = cpu_traced - cpu_plain
    metrics["trace.overhead_ratio"] = (cpu_traced - cpu_plain) / cpu_plain
    counts = [m["name"] for m in per_layer if m["unit"] == "count"]
    details = _summarize_passes(plain + traced)
    details.update({
        "cpu_s_untraced": cpu_plain,
        "cpu_s_traced": cpu_traced,
        "counts_repeat": all(p[n] == per_pass[0][n] for p in per_pass for n in counts),
        "computed": ["model.draw.samples", "model.draw.bytes", "model.draw_share"],
    })
    return metrics, details


def _report(args, units: dict, metrics: dict, details: dict) -> dict:
    width = max(len(n) for n in metrics)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {details['passes']}")
    computed = details.get("computed", ())
    for name, value in metrics.items():
        note = " (computed)" if name in computed else ""
        print(f"  {name:<{width}} = {value:.6g} {units[name]}{note}")
    if "error_rate" in details:
        print(f"  {'error_rate':<{width}} = {details['error_rate']:.6g} ratio "
              f"({details['failed']} of {details['attempted']} units)")
        print(f"  unit_cpu_s_tail is the p{details['unit_cpu_s_tail_percentile']:.2f} value "
              f"of {details['units']} units; median pass wall time {details['wall_s']:.6g} s")
    for msg in details["failures"]:
        print(f"  FAILED {msg}")
    for key, value in details["digest"].items():
        match = details["digest_match"]
        label = "no reference for this seed" if match is None else ("match" if match else "MISMATCH")
        print(f"  digest {key} = {value} ({label})")
    correct = details["failed"] == 0 and details["digests_repeat"]
    return {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def run_all(args, names: list[str]) -> int:
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (it seeds numpy's SeedSequence)")
    if not _sources_present():
        print(f"error: silab sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload is None:
        return run_all(args, names)

    if not _import_silab():
        print(f"error: silab under {SRC} is shadowed by another installation", file=sys.stderr)
        return 2
    if args.one_pass:
        print(json.dumps(run_one_pass(args.workload, args.seed, bool(args.trace))))
        return 0

    import workloads

    probe_ref_s = workloads.WORKLOADS[args.workload].PROBE_REF_S
    if args.trace:
        metrics, details = measure_layers(args.workload, probe_ref_s, args.seed,
                                          args.seconds, spec["per_layer"])
    else:
        metrics, details = measure_end_to_end(args.workload, probe_ref_s, args.seed,
                                              args.seconds)
    details["digest_match"] = _reference_match(args.workload, args.seed, details["digest"])
    details["environment"] = environment()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = _report(args, units, metrics, details)
    details["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1)
    print("details " + json.dumps({k: details[k] for k in ("environment", "digest", "digest_match")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
