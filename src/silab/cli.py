"""Command-line interface.

Polynomial arguments accept three forms: Hermite shorthand ``He3``, monomial
shorthand ``z3`` / ``z^3``, or comma/space-separated monomial coefficients
``c0,c1,...`` (lowest degree first).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .dynamics import RunConfig, run
from .harness import CONFIG, emit, parse_config, spec_from_config, sweep
from .hermite import MonomialPoly, expand, exponent_report, hermite_poly
from .model import NoiseSpec, SeedTree, TeacherSpec, draw_batch
from .oracles import ORACLE_KINDS, OracleSpec, check_sign_assumption, mu_of_eta, mu_table
from .theory import gamma_auto, phase_boundaries, predict_T


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


def _teacher_from_args(args) -> TeacherSpec:
    return TeacherSpec(d=args.d, link=parse_poly(args.link), noise=NoiseSpec(args.noise, args.tau))


def _oracle_from_args(args, eta=None, gamma=0.0) -> OracleSpec:
    return OracleSpec(
        kind=args.oracle,
        activation=parse_poly(args.act),
        eta=args.eta if eta is None else eta,
        gamma=gamma,
        depth=getattr(args, "depth", 2),
    )


def _cmd_hermite(args) -> int:
    link = parse_poly(args.link)
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


def _cmd_gen_data(args) -> int:
    teacher = _teacher_from_args(args)
    x, y = draw_batch(teacher, args.n, SeedTree(args.seed).rng())
    out = csv.writer(sys.stdout)
    out.writerow([f"x_{j + 1}" for j in range(args.d)] + ["y"])
    for row, label in zip(x, y):
        out.writerow([f"{v:.12g}" for v in row] + [f"{label:.12g}"])
    return 0


def _cmd_mu(args) -> int:
    teacher = _teacher_from_args(args)
    mu = mu_table(_oracle_from_args(args), teacher.link, teacher.noise, teacher.d)
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


def _resolve_gamma(args, spec: OracleSpec, teacher: TeacherSpec, mu=None) -> float:
    """args.gamma as a float; 'auto' uses mu (computed here if not given)."""
    if args.gamma != "auto":
        return float(args.gamma)
    if mu is None:
        mu = mu_table(spec, teacher.link, teacher.noise, teacher.d)
    return gamma_auto(spec, mu, teacher.d)


def _cmd_simulate(args) -> int:
    teacher = _teacher_from_args(args)
    spec = _oracle_from_args(args)
    spec.gamma = _resolve_gamma(args, spec, teacher)
    config = RunConfig(
        teacher=teacher,
        oracle=spec,
        n=args.n,
        seed=SeedTree(args.seed),
        batch_size=args.batch,
        n_neurons=args.neurons,
        init_mode=args.init,
        weak_threshold=args.threshold,
        strong_eps=args.strong_eps,
        record_every=args.record_every,
        audit=args.audit,
    )
    traj = run(config)
    stream = open(args.out, "w") if args.out else sys.stdout
    try:
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


def _cmd_predict(args) -> int:
    teacher = _teacher_from_args(args)
    spec = _oracle_from_args(args)
    mu = mu_table(spec, teacher.link, teacher.noise, args.d)
    gamma = _resolve_gamma(args, spec, teacher, mu)
    pred = predict_T(mu, gamma, args.d)
    print(f"# T={pred.t:.12g} dominant_i={pred.dominant_i} gamma={gamma:.12g} "
          f"gamma_max={pred.gamma_max:.12g}")
    out = csv.writer(sys.stdout)
    out.writerow(["i", "t_i"])
    for i, val in pred.t_per_i:
        out.writerow([i, f"{val:.12g}"])
    return 0


def _cmd_phase(args) -> int:
    teacher = _teacher_from_args(args)
    spec = _oracle_from_args(args, eta=0.0)
    bounds = phase_boundaries(
        mu_of_eta(spec, teacher), args.d, (args.eta_min, args.eta_max), spec=spec
    )
    out = csv.writer(sys.stdout)
    out.writerow(["i", "j", "eta_star", "exponent_if_known"])
    for b in bounds:
        out.writerow(
            [b.i, b.j, f"{b.eta_star:.12g}", "" if b.exponent is None else f"{b.exponent:.12g}"]
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    cfg.update({k: v for k, v in vars(args).items() if k in CONFIG and v is not None})
    spec = spec_from_config(cfg, parse_poly)
    result = sweep(spec)
    paths = emit(result, cfg.get("out", CONFIG["out"][1]))
    if spec.slope_window is not None:
        if result.slope_fit is None:
            print("# slope=unavailable (fewer than 4 recovering grid points in the eta window)")
        else:
            print("# slope={:.6g} stderr={:.6g}".format(*result.slope_fit))
    for path in paths:
        print(path)
    return 0


def _add_poly_args(p, act: bool = True) -> None:
    p.add_argument("--link", required=True, help="teacher link polynomial")
    if act:
        p.add_argument("--act", required=True, help="student activation polynomial")


def _add_noise_args(p) -> None:
    p.add_argument("--noise", default="none", choices=["none", "gaussian", "laplace"])
    p.add_argument("--tau", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="silab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hermite", help="exponent report and power expansion table")
    _add_poly_args(p, act=False)
    p.add_argument("--powers", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_hermite)

    p = sub.add_parser("gen-data", help="emit teacher samples as CSV")
    _add_poly_args(p, act=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("mu", help="mu table and sign-assumption verdict")
    p.add_argument("--oracle", required=True, choices=list(ORACLE_KINDS))
    _add_poly_args(p)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("simulate", help="run one trajectory, write alignment CSV")
    p.add_argument("--oracle", required=True, choices=list(ORACLE_KINDS))
    _add_poly_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--gamma", default="auto")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--neurons", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-every", dest="record_every", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--strong-eps", dest="strong_eps", type=float, default=0.1)
    p.add_argument("--init", default="pinned_alignment",
                   choices=["pinned_alignment", "uniform_sphere"])
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--out", default=None)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("predict", help="recovery-time prediction table")
    p.add_argument("--oracle", required=True, choices=list(ORACLE_KINDS))
    _add_poly_args(p)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--gamma", default="auto")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("phase", help="learning-rate phase boundaries")
    p.add_argument("--oracle", required=True, choices=list(ORACLE_KINDS))
    _add_poly_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eta-min", dest="eta_min", type=float, default=1e-3)
    p.add_argument("--eta-max", dest="eta_max", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=2)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("sweep", help="grid sweep per config file")
    p.add_argument("--config", default=None)
    for key, (typ, _) in CONFIG.items():  # every config key, as --key-with-dashes
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            p.add_argument(flag, action="store_const", const=True, default=None)
        else:
            p.add_argument(flag, type=typ, default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
