"""Per-layer metrics from a traced run.  Layers are named after the ldglimit
module that holds them; ``trace.*`` and ``checks.*`` belong to the benchmark.

Bytes are computed from array and file sizes (the ``*_computed`` rates and
the CSV MB/s), not measured; they ignore cache misses.
"""

from __future__ import annotations

from tracer import aggregate
from workloads import BOUNDARIES, TRACED

DIAGNOSTICS = (
    "asymptotics.compute_xyz",
    "asymptotics.empirical_corrector",
    "fields.norms",
    "asymptotics.corrector_a",
    "asymptotics.fit_rate",
)

DERIVED = (
    ("cli.import_s", "s"),
    ("fields.boundary_s", "s"),
    ("runner.harmonic_s", "s"),
    ("runner.ldg_s", "s"),
    ("runner.diagnostics_s", "s"),
    ("runner.write_s", "s"),
    ("runner.identity_suite_s", "s"),
    ("runner.corrector_s", "s"),
    ("fields.save_field_csv.mb_per_s", "MB/s"),
    ("fields.load_field_csv.mb_per_s", "MB/s"),
    ("solvers.harmonic_iters", "count"),
    ("solvers.ldg_iters", "count"),
    ("solvers.harmonic_backtracks", "count"),
    ("solvers.ldg_backtracks", "count"),
    ("solvers.accept_ratio", "ratio"),
    ("solvers.trial_steps", "count"),
    ("solvers.harmonic_step_ms", "ms"),
    ("solvers.ldg_step_ms", "ms"),
    ("solvers.el_residual_max", "1"),
    ("solvers.stop.energy", "count"),
    ("solvers.stop.residual", "count"),
    ("solvers.stop.max_iters", "count"),
    ("geometry.project_array.ns_per_node", "ns"),
    ("geometry.project_array.gb_per_s_computed", "GB/s"),
    ("fields.laplacian_array.gb_per_s_computed", "GB/s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("checks.fail_frac", "ratio"),
)


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    spans = [
        (f"{t}.{k}", unit) for t in TRACED
        for k, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    ]
    return spans + list(DERIVED)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(record: dict, wall_s: float, setup_s: float,
              untraced_wall_s: float, fail_frac: float) -> dict[str, float]:
    trace = record["trace"]
    agg = aggregate(trace)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    stat = {t: agg.get(t, zero) for t in TRACED}
    out = {}
    for t in TRACED:
        for k in ("calls", "s", "self_s"):
            out[f"{t}.{k}"] = stat[t][k]

    names, spans = trace["names"], trace["spans"]
    ids = {n: i for i, n in enumerate(names)}

    def total(name, parent=None, not_parent=None):
        nid = ids.get(name)
        t = 0.0
        for s in spans:
            if s[0] != nid:
                continue
            pname = names[spans[s[1]][0]] if s[1] >= 0 else None
            if parent is not None and pname != parent:
                continue
            if not_parent is not None and pname == not_parent:
                continue
            t += s[3] - s[2]
        return t

    counters = trace["counters"]
    solves = trace["solves"]

    def solve_sum(kind, key):
        return sum(s[key] for s in solves if s["kind"] == kind)

    out["cli.import_s"] = record["import_s"]
    ready = record["t_ready"]
    out["fields.boundary_s"] = sum(
        (s[3] - s[2] for s in spans if names[s[0]] in BOUNDARIES and s[3] <= ready), 0.0
    )
    out["runner.harmonic_s"] = stat["solvers.solve_harmonic"]["s"]
    out["runner.ldg_s"] = stat["solvers.solve_ldg"]["s"]
    out["runner.diagnostics_s"] = sum(
        total(d, parent="runner.run_sweep") for d in DIAGNOSTICS
    )
    out["runner.write_s"] = stat["runner.write_sweep_artifacts"]["s"] + total(
        "fields.save_field_csv", not_parent="runner.write_sweep_artifacts"
    )
    out["runner.identity_suite_s"] = stat["runner.run_check_geometry"]["s"]
    out["runner.corrector_s"] = stat["runner.run_corrector"]["s"]
    for name in ("fields.save_field_csv", "fields.load_field_csv"):
        out[f"{name}.mb_per_s"] = _ratio(
            counters.get(name, {}).get("bytes", 0.0) / 1e6, stat[name]["s"]
        )

    evals = {k: solve_sum(k, "energy_evals") for k in ("harmonic", "ldg")}
    accepted = sum(s["accepted"] for s in solves)
    trials = sum(s["energy_evals"] - 1 for s in solves)
    out["solvers.harmonic_iters"] = solve_sum("harmonic", "iterations")
    out["solvers.ldg_iters"] = solve_sum("ldg", "iterations")
    out["solvers.harmonic_backtracks"] = solve_sum("harmonic", "backtracks")
    out["solvers.ldg_backtracks"] = solve_sum("ldg", "backtracks")
    out["solvers.accept_ratio"] = _ratio(accepted, trials)
    out["solvers.trial_steps"] = trials
    out["solvers.harmonic_step_ms"] = 1e3 * _ratio(
        stat["solvers.solve_harmonic"]["s"], evals["harmonic"])
    out["solvers.ldg_step_ms"] = 1e3 * _ratio(stat["solvers.solve_ldg"]["s"], evals["ldg"])
    out["solvers.el_residual_max"] = max((s["el_residual"] for s in solves), default=0.0)
    for stop in ("energy", "residual", "max_iters"):
        out[f"solvers.stop.{stop}"] = sum(1 for s in solves if s["stop"] == stop)

    proj = counters.get("geometry.project_array", {})
    lap = counters.get("fields.laplacian_array", {})
    proj_s = stat["geometry.project_array"]["s"]
    out["geometry.project_array.ns_per_node"] = 1e9 * _ratio(proj_s, proj.get("nodes", 0))
    out["geometry.project_array.gb_per_s_computed"] = _ratio(
        proj.get("bytes", 0.0) / 1e9, proj_s)
    out["fields.laplacian_array.gb_per_s_computed"] = _ratio(
        lap.get("bytes", 0.0) / 1e9, stat["fields.laplacian_array"]["s"])

    # Wall time after set-up that no top-level span covers: interpreter
    # exit, the CLI's own printing and the write-out of the spans.
    covered = sum(max(0.0, s[3] - max(s[2], ready)) for s in spans if s[1] < 0)
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    out["trace.unaccounted_s"] = wall_s - setup_s - covered
    out["checks.fail_frac"] = fail_frac
    return out
