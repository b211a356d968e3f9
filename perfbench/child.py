"""One workload process of a benchmark run: the CLI command of a sweep or
solve-ldg workload, or postprocess_48 (which has no CLI command of its own).

    python3 perfbench/child.py SPEC.json

SPEC holds root, workload, tiny, seed, trace, config, out, stdout and
record.  The record written at the end carries the monotonic time at which
the inputs were ready and, when traced, the import time and every span.

Untraced CLI runs import only ``ldglimit.fields`` before the CLI and wrap
its two boundary builders, so that the CLI does its own imports and set-up
and the end of the first boundary build marks the inputs as ready.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_package(root: str, modules=None):
    """Import ldglimit from ``root/src`` and then ``modules`` of it (every
    module when None)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pkgutil

    pkg = importlib.import_module("ldglimit")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"ldglimit imported from {pkg.__file__}, not {src}")
    if modules is None:
        modules = [info.name for info in pkgutil.iter_modules(pkg.__path__)]
    for name in modules:
        importlib.import_module(f"ldglimit.{name}")
    return pkg


def _solve_hook(kind: str):
    def after(tracer, idx, args, kwargs, res):
        import numpy as np

        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        evals = tracer.count_descendants(idx, "fields.dirichlet_energy")
        hist = np.asarray(res.energy_history)
        accepted = len(hist) - 1
        if res.iterations >= cfg.max_iters:
            stop = "max_iters"
        elif res.el_residual <= cfg.residual_tol:
            stop = "residual"
        else:
            stop = "energy"
        v = res.field.values
        tracer.solves.append({
            "kind": kind,
            "iterations": int(res.iterations),
            "accepted": accepted,
            "energy_evals": evals,
            "backtracks": evals - accepted - 1,
            "stop": stop,
            "el_residual": float(res.el_residual),
            "converged": bool(res.converged),
            "max_energy_increment": float(np.max(np.diff(hist))) if accepted else 0.0,
            "max_asymmetry": float(np.max(np.abs(v - np.swapaxes(v, -1, -2)))),
            "max_abs_trace": float(np.max(np.abs(np.trace(v, axis1=-2, axis2=-1)))),
        })
    return after


def _array_bytes_hook(name: str):
    """Computed bytes: the input array read plus every output array written."""
    def after(tracer, idx, args, kwargs, out):
        outs = out if isinstance(out, tuple) else (out,)
        tracer.add(name, "bytes", args[0].nbytes + sum(o.nbytes for o in outs))
        tracer.add(name, "nodes", args[0].size // 9)
    return after


def _file_bytes_hook(name: str, path_arg: int):
    def after(tracer, idx, args, kwargs, out):
        tracer.add(name, "bytes", os.path.getsize(args[path_arg]))
    return after


HOOKS = {
    "solvers.solve_harmonic": _solve_hook("harmonic"),
    "solvers.solve_ldg": _solve_hook("ldg"),
    "fields.laplacian_array": _array_bytes_hook("fields.laplacian_array"),
    "geometry.project_array": _array_bytes_hook("geometry.project_array"),
    "fields.save_field_csv": _file_bytes_hook("fields.save_field_csv", 1),
    "fields.load_field_csv": _file_bytes_hook("fields.load_field_csv", 0),
}


def _postprocess(w, spec, pkg, q_star, q_l, p) -> None:
    import numpy as np

    runner, asym, fields = pkg.runner, pkg.asymptotics, pkg.fields
    suite_ok, suite = runner.run_check_geometry(
        seed=spec["seed"], trials=w.trials, tol=1e-10
    )
    errs = []
    for n in w.richardson:
        cfg = pkg.config.ExperimentConfig(
            dims=(n, n, n), box_lo=-1.0, box_hi=1.0, boundary="hedgehog",
            margin=0.0,
        )
        errs.append(runner.run_corrector(cfg)["max_err"])
    s = p.s_plus
    diag = asym.compute_xyz(q_l, p)
    rewritten = asym.rewritten_identity_residual(q_l, p)
    r1 = asym.projection_residual(q_l, p, beta=s)
    r2 = asym.projection_residual(q_l, p, beta=2.0 * s)
    a = asym.corrector_a(q_star, p)
    corr = asym.empirical_corrector(q_l, q_star, p)
    nm = fields.norms(q_l, q_star, margin=2.0)
    path = os.path.join(spec["out"], "field.csv")
    fields.save_field_csv(q_l, path)
    fields.load_field_csv(path)

    results = {
        "suite_ok": bool(suite_ok),
        "suite": suite,
        "richardson_errors": errs,
        "beta_diff": float(np.max(np.abs(r1 - r2))),
        "sup_r": float(np.max(pkg.tensor_algebra.norm(diag.r_field))),
        "sup_rewritten": float(np.max(rewritten)),
        "sup_a": float(np.max(pkg.tensor_algebra.norm(a))),
        "sup_a_empirical": float(np.max(pkg.tensor_algebra.norm(corr.a_field))),
        "norms": nm,
    }
    with open(os.path.join(spec["out"], "results.json"), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer
    from workloads import BOUNDARIES, FULL, TINY, TRACED, postprocess_inputs

    w = (TINY if spec["tiny"] else FULL)[spec["workload"]]
    cli_run = w.kind != "postprocess"
    t0 = time.monotonic()
    pkg = _import_package(spec["root"], ["fields"] if cli_run and not spec["trace"] else None)
    record = {"t_start": T_START, "import_s": time.monotonic() - t0}

    tracer = Tracer()
    rc = 0
    if cli_run:
        if spec["trace"]:
            tracer.install("ldglimit", TRACED, HOOKS)
        else:
            tracer.install("ldglimit", BOUNDARIES)
        argv = ["--threads", "1", w.kind, "--config", spec["config"],
                "--out", spec["out"]]
        with open(spec["stdout"], "w") as out, contextlib.redirect_stdout(out):
            rc = importlib.import_module("ldglimit.cli").main(argv)
        ids = {tracer.name_id(name) for name in BOUNDARIES}
        t_ready = next((s[3] for s in tracer.spans if s[0] in ids), None)
    else:
        # inputs are built before tracing starts: they are the benchmark's
        # own code, not the program's
        inputs = postprocess_inputs(w, spec["seed"])
        t_ready = time.monotonic()
        if spec["trace"]:
            tracer.install("ldglimit", TRACED, HOOKS)
        _postprocess(w, spec, pkg, *inputs)
    record["t_ready"] = t_ready
    record["t_end"] = time.monotonic()
    record["rc"] = rc
    tracer.uninstall()
    if spec["trace"]:
        record["trace"] = tracer.dump()
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
