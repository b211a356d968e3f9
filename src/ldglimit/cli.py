"""Command-line interface.

Thread count must be pinned before the numerics stack spins up its thread
pools, so the heavy imports happen inside main() after --threads is handled.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldglimit",
        description=(
            "Minimize the elastic-plus-bulk Q-tensor energy, compute its "
            "manifold-constrained limit, and verify the first-order "
            "expansion in the elastic constant."
        ),
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="pin the numerics thread count")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed")

    sp = sub.add_parser("check-geometry",
                        help="randomized manifold-identity suite")
    common(sp)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("solve-harmonic",
                        help="projected flow for the manifold-valued limit")
    common(sp)

    sp = sub.add_parser("solve-ldg",
                        help="gradient flow at the smallest ladder L")
    common(sp)

    sp = sub.add_parser("sweep", help="full L-ladder convergence study")
    common(sp)

    sp = sub.add_parser("corrector", help="first-order corrector study")
    common(sp)
    sp.add_argument("--center-exclusion", type=float, default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .config import ExperimentConfig, load_config
    from .errors import LdglimitError

    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ExperimentConfig()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed

    try:
        return _dispatch(args, cfg)
    except LdglimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg) -> int:
    from . import runner

    log = print

    if args.command == "check-geometry":
        ok, results = runner.run_check_geometry(
            seed=cfg.seed, trials=args.trials, tol=args.tol
        )
        for name, value in sorted(results.items()):
            bound = runner.CHECK_TOLERANCES.get(name, args.tol)
            status = "ok" if value <= bound else "FAIL"
            print(f"{name}: max_residual={value:.3e} [{status}]")
        print(f"geometry suite: {'PASS' if ok else 'FAIL'} "
              f"({args.trials} trials, tol {args.tol:g})")
        return 0 if ok else 1

    if args.command in runner.SOLVE_COMMANDS:
        res, path = runner.run_solve(cfg, args.command, log=log)
        print(f"converged={res.converged} iterations={res.iterations} "
              f"energy={res.final_energy:.17g} residual={res.el_residual:.6e}")
        print(f"wrote {path}")
        return 0

    if args.command == "sweep":
        report = runner.run_sweep(cfg, log=log)
        for name, fit in report.fits.items():
            if fit is None:
                print(f"rate {name}: degenerate fit")
            else:
                print(f"rate {name}: slope={fit.slope:.4f} "
                      f"r_squared={fit.r_squared:.6f}")
        print(f"wrote sweep.csv and rates.csv under {cfg.output_dir}")
        return 0

    if args.command == "corrector":
        rep = runner.run_corrector(
            cfg, log=log, center_exclusion=args.center_exclusion
        )
        for key, value in rep.items():
            print(f"{key}={value}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
