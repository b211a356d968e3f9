"""Output checks.  Every check returns ``(name, ok, detail)``; a workload run
with any failed check counts as failed.  The bounds are those of the
acceptance gate (tests/test_acceptance.py), restated here so that a faster
wrong answer shows up as a failure, not as a gain.

Imported only after the timed processes have exited: it loads numpy and
ldglimit from the checkout's src/.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from ldglimit import asymptotics, config, fields, geometry, runner
from ldglimit.tensor_algebra import norm

_IN = np.s_[1:-1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Recomputed norms and energies differ from the written ones only by the
# rounding of Q33 = -Q11 - Q22 on reload.
RECOMPUTE_RTOL = 1e-9
RECOMPUTE_ATOL = 1e-13
# Solver fields in memory: symmetric and traceless up to rounding.
SOLVER_FIELD_ATOL = 1e-13


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RECOMPUTE_RTOL * abs(b) + RECOMPUTE_ATOL


def _max_norm_bound(p: geometry.MaterialParams) -> float:
    """Criterion 6: sup |Q| <= sqrt(2/3) s_+ + 1e-6."""
    return float(np.sqrt(2.0 / 3.0) * p.s_plus + 1e-6)


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir()) if f.is_file()
    }


def _read_rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_rates(path: Path) -> dict[str, tuple[float, float, float]]:
    with open(path, newline="") as fh:
        return {
            row["quantity"]: (float(row["slope"]), float(row["intercept"]),
                              float(row["r_squared"]))
            for row in csv.DictReader(fh)
        }


def check_sweep(out: Path, config_path: Path) -> list:
    cfg = config.load_config(config_path)
    rows = _read_rows(out / "sweep.csv")
    rates = _read_rates(out / "rates.csv")
    res = []
    l2, sup = rates["l2_err"], rates["sup_interior_err"]
    res.append((
        "criterion 4: rates", 0.8 <= l2[0] <= 1.2 and l2[2] >= 0.98
        and 0.8 <= sup[0] <= 1.3,
        f"l2 slope {l2[0]:.4f} r2 {l2[2]:.5f}, sup slope {sup[0]:.4f}",
    ))
    y, z = rates["sup_y"][0], rates["sup_z"][0]
    res.append(("criterion 5: Y, Z slopes", y >= 0.75 and z >= 0.75,
                f"Y {y:.4f}, Z {z:.4f} >= 0.75"))
    p_max = geometry.MaterialParams(cfg.a2, cfg.b2, cfg.c2)
    worst = max(r["sup_q"] for r in rows)
    res.append(("criterion 6: max-norm bound", worst <= _max_norm_bound(p_max),
                f"sup|Q| {worst:.12f}"))
    ls = [r["L"] for r in rows]
    res.append(("ladder matches config", ls == list(cfg.l_ladder), f"{ls}"))

    ok = True
    for name, col in runner.RATE_QUANTITIES.items():
        fit = asymptotics.fit_rate(ls, [r[col] for r in rows])
        ok &= all(_close(a, b) for a, b in
                  zip((fit.slope, fit.intercept, fit.r_squared), rates[name]))
    res.append(("rates.csv refits from sweep.csv", ok, ""))

    q_star = fields.load_field_csv(out / "q_star.csv")
    bad = []
    last = None
    for i, row in enumerate(rows):
        f = fields.load_field_csv(out / f"q_l_{i}.csv")
        nm = fields.norms(f, q_star, margin=cfg.margin)
        recomputed = {
            "l2_err": nm["l2"], "h1_err": nm["h1_semi"],
            "sup_interior_err": nm["sup_interior"],
            "sup_q": float(np.max(norm(f.values))),
        }
        bad += [f"q_l_{i}.{k}" for k, v in recomputed.items() if not _close(v, row[k])]
        last = f
    res.append(("field CSVs reproduce sweep.csv norms", not bad, ", ".join(bad)))

    # criteria 7 and 8 on the smallest-L field
    p = geometry.MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=rows[-1]["L"])
    rw = asymptotics.rewritten_identity_residual(last, p)
    h = float(np.min(last.grid.h))
    bound = rows[-1]["el_residual"] + 10.0 * h**2
    worst = float(np.max(rw[_IN, _IN, _IN]))
    r_slope = rates["sup_r_interior"][0]
    res.append(("criterion 7: remainder identity",
                worst <= bound and r_slope >= 0.75,
                f"{worst:.3e} <= {bound:.3e}, sup|R| slope {r_slope:.4f}"))
    s = p.s_plus
    diff = float(np.max(np.abs(
        asymptotics.projection_residual(last, p, beta=s)
        - asymptotics.projection_residual(last, p, beta=2.0 * s)
    )))
    res.append(("criterion 8: beta independence", diff <= 1e-9, f"{diff:.2e}"))
    return res


_SOLVE_LINE = re.compile(
    r"converged=(\w+) iterations=(\d+) energy=(\S+) residual=(\S+)"
)


def _reference_key(cfg: config.ExperimentConfig) -> str:
    dims = ",".join(str(d) for d in cfg.dims)
    return f"dims={dims} L={cfg.l_ladder[-1]!r} eps={cfg.eps!r}"


def check_ldg(out: Path, config_path: Path, stdout: str) -> list:
    cfg = config.load_config(config_path)
    m = _SOLVE_LINE.search(stdout)
    if m is None:
        return [("solve-ldg summary line", False, "not found on stdout")]
    converged, iters = m.group(1) == "True", int(m.group(2))
    energy, residual = float(m.group(3)), float(m.group(4))
    res = [("converged", converged, f"{iters} iterations")]

    # load_field_csv rebuilds a symmetric, traceless tensor whatever the file
    # holds; the traced run checks the solver's own field for both.
    f = fields.load_field_csv(out / "q_l.csv")
    v = f.values
    p = geometry.MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[-1])
    worst = float(np.max(norm(v)))
    res.append(("criterion 6: max-norm bound", worst <= _max_norm_bound(p),
                f"sup|Q| {worst:.12f}"))
    e = 0.5 * fields.dirichlet_energy(f) + fields.bulk_energy(f, p) / p.L
    res.append(("q_l.csv reproduces the reported energy", _close(e, energy),
                f"{e!r} vs {energy!r}"))

    ref = json.loads(REFERENCE.read_text())["ldg_cold"]
    entry = ref["configs"].get(_reference_key(cfg))
    if entry is None:
        res.append(("reference values", False, f"none for {_reference_key(cfg)}"))
        return res
    e_bound = entry["energy"] + ref["energy_rtol"] * abs(entry["energy"])
    r_bound = entry["el_residual"] * ref["residual_factor"]
    res.append(("energy no worse than reference", energy <= e_bound,
                f"{energy!r} <= {e_bound!r}"))
    res.append(("EL residual no worse than reference", residual <= r_bound,
                f"{residual:.6e} <= {r_bound:.6e}"))
    return res


def check_postprocess(out: Path, q_l: fields.TensorField) -> list:
    r = json.loads((out / "results.json").read_text())
    worst = {k: v / runner.CHECK_TOLERANCES.get(k, 1e-10) for k, v in r["suite"].items()}
    top = max(worst, key=worst.get)
    res = [("identity suite", r["suite_ok"] and worst[top] <= 1.0,
            f"worst residual/tol {worst[top]:.2e} on {top}")]
    e1, e2 = r["richardson_errors"]
    res.append(("criterion 3: Richardson ratio", 3.0 <= e1 / e2 <= 5.0,
                f"{e1 / e2:.3f} in [3, 5]"))
    res.append(("criterion 8: beta independence", r["beta_diff"] <= 1e-9,
                f"{r['beta_diff']:.2e}"))
    values = [r["sup_r"], r["sup_rewritten"], r["sup_a"], r["sup_a_empirical"],
              *r["norms"].values()]
    res.append(("diagnostics finite", bool(np.all(np.isfinite(values))), ""))

    back = fields.load_field_csv(out / "field.csv")
    ok_grid = back.grid == q_l.grid
    res.append(("CSV grid round trip", ok_grid, ""))
    if not ok_grid:
        return res
    a = q_l.values.reshape(-1, 3, 3)
    b = back.values.reshape(-1, 3, 3)
    exact = all(np.array_equal(a[:, i, j], b[:, i, j])
                for i, j in ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2)))
    res.append(("CSV round trip: stored components bit-exact", exact, ""))
    d33 = float(np.max(np.abs(a[:, 2, 2] - b[:, 2, 2])))
    tol = 4.0 * np.finfo(float).eps * float(np.max(np.abs(a)))
    res.append(("CSV round trip: Q33 within rounding", d33 <= tol,
                f"{d33:.2e} <= {tol:.2e}"))
    return res


def check_trace(record: dict, expected) -> list:
    trace = record["trace"]
    calls = {}
    for nid, *_ in trace["spans"]:
        name = trace["names"][nid]
        calls[name] = calls.get(name, 0) + 1
    silent = [t for t in expected if calls.get(t, 0) == 0]
    absent = silent + trace["missing"]
    res = [("traced functions called", not absent,
            "zero calls: " + ", ".join(absent) if absent else "")]
    solves = trace["solves"]
    if solves:
        inc = max(s["max_energy_increment"] for s in solves)
        res.append(("criterion 9: energy non-increasing", inc <= 0.0,
                    f"max increment {inc:.3e} over {len(solves)} solves"))
        asym = max(s["max_asymmetry"] for s in solves)
        tr = max(s["max_abs_trace"] for s in solves)
        res.append(("solver fields symmetric and traceless",
                    asym <= SOLVER_FIELD_ATOL and tr <= SOLVER_FIELD_ATOL,
                    f"max |Q - Q^T| {asym:.1e}, max |tr Q| {tr:.1e}"))
    return res
