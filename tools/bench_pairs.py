"""Run perfbench on a parent tree and a change tree in alternating pairs and
write the comparison as a BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --run postprocess_48:0:10 --run sweep_default:0:3 --seconds 35 \\
        --trace postprocess_48:0 --layer fields.load_field_csv.s \\
        --label plane_reader --out BENCH_plane_reader.json

Each ``--run WORKLOAD:SEED:PAIRS`` makes PAIRS pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds T --trace 0

one in each tree (the tree is the working directory), the parent first in
even pairs and the change first in odd ones, so that a slow phase of the
host lands on both sides alike.  For every end-to-end metric that the
change tree's BENCHMARK.json declares, the output gives each side's median,
quartiles and n, the pairs the change won and lost, the median gap
(change minus parent), the parent's interquartile range, whether the
change stays within the metric's regression bound (a fraction of the
parent's median), and whether that verdict is resolved: it is not when the
parent's interquartile range exceeds the bound times the parent's median,
unless every change run beats every parent run, and such a metric is
reported as unresolved, not as unchanged.  ``--trace WORKLOAD:SEED`` adds
one ``--trace 1`` invocation per side and reports the ``--layer`` metrics
of each.

Each side of each pair also gets a derived ``solve_s = wall_s - setup_s``,
the time after the inputs are ready, summarized next to ``wall_s`` with the
same fields but with no bound verdict: both terms are minima over the same
runs of one invocation, not always of the same run, so ``solve_s`` is an
estimate of the solve phase, not a measured value.

Each group also sums the operations each side attempted and failed, gives
each side's failed share (``None`` when it attempted none), and sets
``more_failed`` when the change failed a larger share than the parent.  An
invocation that crashed or printed no result line counts as one attempted
and one failed operation.

A metric's ``gain`` is true when the change won at least nine tenths of the
pairs, its median beats the parent's by more than the parent's
interquartile range, and the group's ``more_failed`` is false: a change
that fails a larger share of operations reports no gain, however its
values compare.

The output file is rewritten after every pair, so a cut run keeps what it
measured.  Standard library only; the trees need not be git checkouts
(each side records perfbench's provenance: commit, source digest, host).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def invoke(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench invocation: its result line plus the provenance line
    printed before it, or a record of the failure: one attempted operation,
    failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result.update(json.loads(lines[-2]))
    except (IndexError, json.JSONDecodeError):
        return {"rc": out.returncode, "attempted": 1, "failed": 1, "metrics": {},
                "error": out.stderr[-2000:]}
    result["rc"] = out.returncode
    return result


# the fields of perfbench's provenance line that identify a tree and its host
_HOST_KEYS = ("git_sha", "src_sha256", "python", "numpy", "blas", "cpu_model",
              "nproc", "caches")


# summarized like an end-to-end metric, with no bound (see the module docstring)
SOLVE_S = {"name": "solve_s", "unit": "s", "better": "lower"}


def add_solve_s(metrics: dict) -> None:
    """Add the derived solve_s = wall_s - setup_s to one invocation's
    metrics, when it reported both."""
    if "wall_s" in metrics and "setup_s" in metrics:
        value = metrics["wall_s"]["value"] - metrics["setup_s"]["value"]
        metrics["solve_s"] = {"value": value, "unit": "s"}


def failure_counts(pairs: list[dict]) -> dict:
    """Each side's attempted and failed operations over the pairs, its failed
    share (None when it attempted none, which the comparison reads as 0),
    and whether the change's share is the larger."""
    out = {key: {s: sum(p[s][key] for p in pairs) for s in ("parent", "change")}
           for key in ("attempted", "failed")}
    out["failed_share"] = {s: out["failed"][s] / n if n else None
                           for s, n in out["attempted"].items()}
    share = out["failed_share"]
    out["more_failed"] = (share["change"] or 0.0) > (share["parent"] or 0.0)
    return out


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]] if xs else []
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs: list[dict], metric: dict, more_failed: bool = False) -> dict:
    """One end-to-end metric over the pairs in which both sides reported it;
    no gain when more_failed (the change failed a larger share of
    operations); the bound verdict, and whether it is resolved, only for a
    metric that declares a bound."""
    name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
    both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs
            if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
    if not both:
        return {"n": 0}
    parent, change = [a for a, _ in both], [b for _, b in both]
    pq, cq = _quartiles(parent), _quartiles(change)
    pm, cm = statistics.median(parent), statistics.median(change)
    gap = cm - pm
    iqr = pq[1] - pq[0]
    better = sum(1 for a, b in both if sign * (a - b) > 0)
    worse = sum(1 for a, b in both if sign * (b - a) > 0)
    out = {
        "unit": metric["unit"],
        "better": metric["better"],
        "n": len(both),
        "parent": {"median": pm, "quartiles": pq, "values": parent},
        "change": {"median": cm, "quartiles": cq, "values": change},
        "change_better_pairs": better,
        "change_worse_pairs": worse,
        "median_gap": gap,
        "parent_iqr": iqr,
        "gain": not more_failed and better >= 0.9 * len(both) and sign * -gap > iqr,
    }
    if "bound" in metric:
        out["bound"] = metric["bound"]
        out["within_bound"] = sign * gap <= metric["bound"] * abs(pm)
        out["resolved"] = (iqr <= metric["bound"] * abs(pm)
                           or min(sign * a for a in parent) > max(sign * b for b in change))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="solve_s = wall_s - setup_s is derived per side and reported next "
               "to wall_s without a bound verdict: both terms are minima over the "
               "same runs, not always of the same run.")
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--change", type=Path, required=True, help="change source tree")
    ap.add_argument("--run", action="append", required=True,
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="perfbench --seconds, the same on both sides")
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEED")
    ap.add_argument("--layer", action="append", default=[],
                    help="per-layer metric to report from each traced run")
    ap.add_argument("--label", required=True)
    ap.add_argument("--what", default="", help="one paragraph: what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    summarized = []
    for m in spec["end_to_end"]:
        summarized += [m, SOLVE_S] if m["name"] == "wall_s" else [m]
    runs = []
    for item in args.run:
        workload, seed, n = item.split(":")
        runs.append((workload, int(seed), int(n)))
    doc = {
        "label": args.label,
        "what": args.what,
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0, in each tree, "
                    "alternating which side runs first (parent first in even pairs)"),
        "trees": {"parent": {"path": str(args.parent)}, "change": {"path": str(args.change)}},
        "groups": [],
        "traced": [],
    }

    def write():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload, seed, n in runs:
        group = {"workload": workload, "seed": seed, "pairs": []}
        doc["groups"].append(group)
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                t0 = time.monotonic()
                pair[side] = invoke(trees[side], workload, seed, args.seconds, 0)
                pair[side]["invocation_s"] = round(time.monotonic() - t0, 1)
                add_solve_s(pair[side]["metrics"])
                # what the tree's sources and the host were, as perfbench saw them
                prov = pair[side].pop("provenance", None)
                if prov and "provenance" not in doc["trees"][side]:
                    doc["trees"][side]["provenance"] = {k: prov.get(k) for k in _HOST_KEYS}
            group["pairs"].append(pair)
            pairs = group["pairs"]
            group.update(failure_counts(pairs))
            # invocations that crashed or printed no result line
            group["broken"] = {s: sum(p[s]["rc"] != 0 or "error" in p[s] for p in pairs)
                               for s in trees}
            group["summary"] = {m["name"]: summarize(pairs, m, group["more_failed"])
                                for m in summarized}
            write()
            print(f"{workload} seed {seed} pair {i + 1}/{n}: " + ", ".join(
                f"{m} {pair['parent']['metrics'].get(m, {}).get('value')} -> "
                f"{pair['change']['metrics'].get(m, {}).get('value')}"
                for m in group["summary"]), flush=True)

    for item in args.trace:
        workload, seed = item.split(":")
        entry = {"workload": workload, "seed": int(seed)}
        for side, tree in trees.items():
            res = invoke(tree, workload, int(seed), args.seconds, 1)
            entry[side] = {
                "rc": res["rc"], "attempted": res["attempted"], "failed": res["failed"],
                "metrics": {k: res["metrics"].get(k) for k in args.layer},
            }
        doc["traced"].append(entry)
        write()
    write()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
