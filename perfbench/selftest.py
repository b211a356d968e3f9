"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/run.py --selftest

Runs every workload of BENCHMARK.json once untraced and once traced and
asserts that every metric it names is printed, by name and with its unit,
and that no run failed.  Then it runs each workload with one field CSV
corrupted after the run and asserts that the run is counted as failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args: list[str]) -> tuple[str, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=175,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.stdout, None, proc.stderr
    return proc.stdout, json.loads(lines[-1]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            out, res, err = _run(["--workload", workload, "--seed", "1",
                                  "--trace", str(trace)])
            if res is None:
                problems.append(f"{label}: no result; stderr: {err[-500:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {diff}")
            for name, unit in want[trace].items():
                line = rf"^{re.escape(name)} \S+ {re.escape(unit)}$"
                if not re.search(line, out, re.M):
                    problems.append(f"{label}: {name} not printed with unit {unit}")
            if not re.search(r"^fail_frac \d+/\d+ = \S+ ratio$", out, re.M):
                problems.append(f"{label}: fail_frac not printed")
            if not res["correct"] or res["failed"]:
                problems.append(f"{label}: {res['failed']}/{res['attempted']} runs failed")
            print(f"{label}: {len(got)} metrics, {res['failed']}/{res['attempted']} failed")

        out, res, err = _run(["--workload", workload, "--seed", "1", "--trace", "0",
                              "--corrupt"])
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{workload}: a corrupted artifact was not counted as failed")
        else:
            print(f"{workload} corrupted: {res['failed']}/{res['attempted']} failed")

    for p in problems:
        print(f"selftest problem: {p}")
    print(f"selftest: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0
