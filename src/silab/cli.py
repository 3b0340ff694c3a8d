"""Command-line interface: ``silab hermite|gen-data|mu|simulate|predict|phase|sweep``.

``COMMANDS`` lists each subcommand's flags. A flag named after a sweep config
key (``harness.CONFIG``, spelled ``--key-with-dashes``) takes that key's type
and, when omitted, its default; every subcommand builds its teacher, oracle
and run config from the one resolved config (``harness.resolve``). ``sweep``
takes every key, and its ``--config`` file's values yield to the flags.
``EXTRA_FLAGS`` types the flags that are no config key. ``simulate --out``
names the trajectory CSV file (stdout when omitted), not the sweep's output
directory. A value that the spec objects reject exits 1 with ``error:``.

Polynomial arguments accept three forms: Hermite shorthand ``He3``, monomial
shorthand ``z3`` / ``z^3``, or comma/space-separated monomial coefficients
``c0,c1,...`` (lowest degree first).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .dynamics import run
from .harness import (
    CONFIG, emit, oracle_spec, parse_config, resolve, resolve_gamma, run_config,
    spec_from_config, sweep, teacher_spec,
)
from .hermite import MonomialPoly, expand, exponent_report, hermite_poly
from .model import SeedTree, draw_batch
from .oracles import check_sign_assumption, mu_of_eta, mu_table
from .theory import phase_boundaries, predict_T


def parse_poly(text: str) -> MonomialPoly:
    """Parse He/z shorthand or raw monomial coefficients."""
    s = text.strip().lower().lstrip("\\")
    if s.startswith("he"):
        return hermite_poly(int(s[2:].lstrip("_")))
    if s.startswith("z"):
        rest = s[1:].lstrip("^")
        return MonomialPoly.monomial(int(rest) if rest else 1)
    parts = text.replace(",", " ").split()
    return MonomialPoly.from_coeffs(float(p) for p in parts)


def _cmd_hermite(args, cfg) -> int:
    link = parse_poly(cfg["link"])
    report = exponent_report(link, args.powers, args.tol)
    out = csv.writer(sys.stdout)
    print(f"# ie={report.ie} ge_upper_bound={report.ge_upper_bound} "
          f"witness_power={report.witness_power}")
    print("# power_ies=" + ";".join(f"{i}:{p}" for i, p in report.power_ies))
    out.writerow(["power", "k", "u_k"])
    for i in range(1, args.powers + 1):
        exp_i = expand(link.power(i))
        for k, u in enumerate(exp_i.coeffs):
            out.writerow([i, k, f"{u:.12g}"])
    return 0


def _cmd_gen_data(args, cfg) -> int:
    teacher = teacher_spec(cfg, parse_poly)
    x, y = draw_batch(teacher, args.n, SeedTree(args.seed).rng())
    out = csv.writer(sys.stdout)
    out.writerow([f"x_{j + 1}" for j in range(teacher.d)] + ["y"])
    for row, label in zip(x, y):
        out.writerow([f"{v:.12g}" for v in row] + [f"{label:.12g}"])
    return 0


def _cmd_mu(args, cfg) -> int:
    teacher = teacher_spec(cfg, parse_poly)
    mu = mu_table(oracle_spec(cfg, parse_poly, args.eta), teacher.link, teacher.noise, teacher.d)
    try:
        verdict = check_sign_assumption(mu)
        print(f"# sign_assumption={'pass' if verdict.passed else 'fail'} "
              f"istar={','.join(map(str, verdict.istar))}")
        istar = set(verdict.istar)
    except ValueError as err:
        print(f"# sign_assumption=error ({err})")
        istar = set()
    out = csv.writer(sys.stdout)
    out.writerow(["i", "mu_i", "istar_flag"])
    for i, m in enumerate(mu.mus, start=1):
        out.writerow([i, f"{m:.12g}", int(i in istar)])
    return 0


def _cmd_simulate(args, cfg) -> int:
    teacher = teacher_spec(cfg, parse_poly)
    spec = oracle_spec(cfg, parse_poly, args.eta)
    spec.gamma = resolve_gamma(cfg["gamma"], spec, teacher)
    config = run_config(cfg, teacher, spec, args.n, args.seed, args.audit)
    stream = open(args.out, "w") if args.out else sys.stdout
    try:
        traj = run(config)
        writer = csv.writer(stream)
        writer.writerow(["step", "samples_seen", "kappa"])
        for step, seen, kappas in zip(traj.steps, traj.samples_seen, traj.alignments):
            writer.writerow([step, seen, f"{max(kappas):.12g}"])
    finally:
        if args.out:
            stream.close()
    summary = (
        f"weak_step={traj.weak_recovery_step} strong_step={traj.strong_recovery_step} "
        f"diverged={int(traj.diverged)} gamma={spec.gamma:.6g}"
    )
    print(summary, file=sys.stdout if args.out else sys.stderr)
    if args.audit:
        from .dynamics import normalization_error_audit

        report = normalization_error_audit(traj)
        print(
            f"audit: checked={report.n_steps_checked} violations={report.n_violations} "
            f"max_violation={report.max_violation:.3g}",
            file=sys.stdout if args.out else sys.stderr,
        )
    return 0


def _cmd_predict(args, cfg) -> int:
    teacher = teacher_spec(cfg, parse_poly)
    spec = oracle_spec(cfg, parse_poly, args.eta)
    mu = mu_table(spec, teacher.link, teacher.noise, teacher.d)
    gamma = resolve_gamma(cfg["gamma"], spec, teacher, mu)
    pred = predict_T(mu, gamma, teacher.d)
    print(f"# T={pred.t:.12g} dominant_i={pred.dominant_i} gamma={gamma:.12g} "
          f"gamma_max={pred.gamma_max:.12g}")
    out = csv.writer(sys.stdout)
    out.writerow(["i", "t_i"])
    for i, val in pred.t_per_i:
        out.writerow([i, f"{val:.12g}"])
    return 0


def _cmd_phase(args, cfg) -> int:
    teacher = teacher_spec(cfg, parse_poly)
    spec = oracle_spec(cfg, parse_poly)
    bounds = phase_boundaries(
        mu_of_eta(spec, teacher), teacher.d, (cfg["eta_min"], cfg["eta_max"]), spec=spec
    )
    out = csv.writer(sys.stdout)
    out.writerow(["i", "j", "eta_star", "exponent_if_known"])
    for b in bounds:
        out.writerow(
            [b.i, b.j, f"{b.eta_star:.12g}", "" if b.exponent is None else f"{b.exponent:.12g}"]
        )
    return 0


def _cmd_sweep(args, cfg) -> int:
    spec = spec_from_config(cfg, parse_poly)
    result = sweep(spec)
    paths = emit(result, cfg["out"])
    if spec.slope_window is not None:
        if result.slope_fit is None:
            print("# slope=unavailable (fewer than 4 recovering grid points in the eta window)")
        else:
            print("# slope={:.6g} stderr={:.6g}".format(*result.slope_fit))
    for path in paths:
        print(path)
    return 0


EXTRA_FLAGS = {  # flags that are no config key: argparse keywords
    "eta": dict(type=float, default=0.0),
    "n": dict(type=int),
    "seed": dict(type=int, default=0),
    "audit": dict(action="store_true"),
    "powers": dict(type=int),
    "tol": dict(type=float),
    "config": dict(),
}

COMMANDS = {  # name: (handler, help, flags in order; a trailing '!' marks a required flag)
    "hermite": (_cmd_hermite, "exponent report and power expansion table",
                "link! powers! tol"),
    "gen-data": (_cmd_gen_data, "emit teacher samples as CSV",
                 "link! d! n! seed noise tau"),
    "mu": (_cmd_mu, "mu table and sign-assumption verdict",
           "oracle! link! act! eta d! depth noise tau"),
    "simulate": (_cmd_simulate, "run one trajectory, write alignment CSV",
                 "oracle! link! act! d! eta gamma n! batch neurons seed record_every threshold "
                 "strong_eps init depth audit out noise tau"),
    "predict": (_cmd_predict, "recovery-time prediction table",
                "oracle! link! act! eta gamma d! depth noise tau"),
    "phase": (_cmd_phase, "learning-rate phase boundaries",
              "oracle! link! act! d! eta_min eta_max depth noise tau"),
    "sweep": (_cmd_sweep, "grid sweep per config file", " ".join(["config", *CONFIG])),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="silab")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in flags.split():
            key = name.rstrip("!")
            if key in EXTRA_FLAGS:
                kwargs = EXTRA_FLAGS[key]
            elif CONFIG[key][0] is bool:
                kwargs = dict(action="store_const", const=True)
            else:
                kwargs = dict(type=CONFIG[key][0])
            p.add_argument("--" + key.replace("_", "-"), required=name.endswith("!"), **kwargs)
        p.set_defaults(func=func)
    return parser


def _config(args) -> dict:
    """The resolved config: the flags given, over the --config file, over CONFIG's defaults."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    cfg.update((k, v) for k, v in vars(args).items() if v is not None)
    return resolve(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _config(args))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
