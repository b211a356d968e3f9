"""The pair summary of tools/bench_pairs.py, on hand-made pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def _pairs(parent, change):
    return [
        {"parent": {"metrics": {"peak_rss_mb": {"value": a}}},
         "change": {"metrics": {"peak_rss_mb": {"value": b}}}}
        for a, b in zip(parent, change)
    ]


def test_summary_counts_pairs_and_gaps():
    parent = [96.0, 96.5, 97.0, 97.5, 98.0]
    change = [92.0, 92.0, 99.0, 97.5, 91.0]
    s = bench_pairs.summarize(_pairs(parent, change), RSS)
    assert s["n"] == 5
    assert s["parent"]["median"] == 97.0 and s["change"]["median"] == 92.0
    assert s["parent"]["quartiles"] == [96.5, 97.5]
    # one pair lost, one tied: 3 of 5 won is below nine tenths
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (3, 1)
    assert s["median_gap"] == -5.0 and s["parent_iqr"] == 1.0
    assert not s["gain"] and s["within_bound"]


@pytest.mark.parametrize("change, gain, within", [
    ([95.0, 95.5, 96.0, 96.5], True, True),    # wins every pair by more than the IQR
    ([96.4, 96.9, 97.4, 97.9], False, True),   # wins every pair, gap below the IQR
    ([120.0] * 4, False, False),                # 23% worse against a 10% bound
])
def test_summary_gain_and_bound(change, gain, within):
    s = bench_pairs.summarize(_pairs([96.5, 97.0, 97.5, 98.0], change), RSS)
    assert (s["gain"], s["within_bound"]) == (gain, within)


@pytest.mark.parametrize("parent, change, better, resolved", [
    # parent IQR 0.75 under the bound's 9.7: resolved, a regression too
    ([96.5, 97.0, 97.5, 98.0], [120.0] * 4, "lower", True),
    # parent IQR 55 over the bound's 10, change runs inside the parent's
    ([50.0, 80.0, 120.0, 150.0], [95.0, 100.0, 105.0, 110.0], "lower", False),
    # wide parent, but every change run beats every parent run
    ([50.0, 80.0, 120.0, 150.0], [40.0, 45.0, 46.0, 49.0], "lower", True),
    # one change run ties the best parent run: not every run beats it
    ([50.0, 80.0, 120.0, 150.0], [40.0, 45.0, 46.0, 50.0], "lower", False),
    # higher is better: every change run above every parent run
    ([50.0, 80.0, 120.0, 150.0], [151.0, 160.0, 170.0, 180.0], "higher", True),
    ([50.0, 80.0, 120.0, 150.0], [40.0, 45.0, 46.0, 49.0], "higher", False),
])
def test_summary_resolved_when_spread_within_bound_or_runs_separate(
    parent, change, better, resolved
):
    s = bench_pairs.summarize(_pairs(parent, change), {**RSS, "better": better})
    assert s["resolved"] is resolved


def test_summary_skips_pairs_without_the_metric():
    pairs = _pairs([1.0, 2.0], [1.0, 2.0])
    pairs[1]["change"]["metrics"] = {}
    assert bench_pairs.summarize(pairs, RSS)["n"] == 1
    assert bench_pairs.summarize(pairs[1:], RSS) == {"n": 0}


def test_solve_s_is_wall_minus_setup_with_no_bound_verdict():
    walls = {"parent": [1.0, 1.5], "change": [0.75, 0.5]}
    setups = {"parent": [0.25, 0.5], "change": [0.25, 0.25]}
    pairs = [
        {side: {"metrics": {"wall_s": {"value": walls[side][i]},
                            "setup_s": {"value": setups[side][i]}}}
         for side in walls}
        for i in range(2)
    ]
    for pair in pairs:
        for side in pair.values():
            bench_pairs.add_solve_s(side["metrics"])
    assert [p["parent"]["metrics"]["solve_s"]["value"] for p in pairs] == [0.75, 1.0]
    assert [p["change"]["metrics"]["solve_s"]["value"] for p in pairs] == [0.5, 0.25]
    s = bench_pairs.summarize(pairs, bench_pairs.SOLVE_S)
    assert s["parent"]["median"] == 0.875 and s["change"]["median"] == 0.375
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (2, 0)
    assert s["median_gap"] == -0.5
    # the fields of a bounded metric, less the bound and its two verdicts
    wall = bench_pairs.summarize(pairs, {**bench_pairs.SOLVE_S, "name": "wall_s",
                                         "bound": 0.25})
    assert set(wall) - set(s) == {"bound", "within_bound", "resolved"}
    # an invocation that did not report both terms gets no solve_s
    metrics = {"wall_s": {"value": 1.0}}
    bench_pairs.add_solve_s(metrics)
    assert "solve_s" not in metrics


def _counts(parent, change):
    """Pairs with each side's (attempted, failed) operations."""
    return [
        {"parent": {"attempted": pa, "failed": pf},
         "change": {"attempted": ca, "failed": cf}}
        for (pa, pf), (ca, cf) in zip(parent, change)
    ]


@pytest.mark.parametrize("parent, change, shares, more", [
    # no failure on either side
    ([(4, 0), (4, 0)], [(4, 0), (4, 0)], (0.0, 0.0), False),
    # one failure in 8 against none: the change fails a larger share
    ([(4, 0), (4, 0)], [(4, 1), (4, 0)], (0.0, 0.125), True),
    # more failures, but over more attempts: a smaller share
    ([(4, 1), (4, 1)], [(8, 1), (8, 2)], (0.25, 0.1875), False),
    # a side that attempted nothing has no share, and counts as none failed
    ([(0, 0), (0, 0)], [(2, 1), (0, 0)], (None, 0.5), True),
    ([(2, 1), (0, 0)], [(0, 0), (0, 0)], (0.5, None), False),
])
def test_failure_counts_compare_failed_shares(parent, change, shares, more):
    out = bench_pairs.failure_counts(_counts(parent, change))
    assert out["attempted"] == {"parent": sum(a for a, _ in parent),
                                "change": sum(a for a, _ in change)}
    assert out["failed"] == {"parent": sum(f for _, f in parent),
                             "change": sum(f for _, f in change)}
    assert (out["failed_share"]["parent"], out["failed_share"]["change"]) == shares
    assert out["more_failed"] is more


def _tree(root, script):
    """A source tree whose perfbench/run.py is script."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [RSS]}))
    return root


def test_crashed_invocation_counts_as_one_failed_operation(tmp_path):
    """A change whose benchmark exits 3 with no output failed the one
    operation it attempted, so against a clean parent the group reports
    that the change failed a larger share."""
    clean = _tree(tmp_path / "parent", (
        "import json\n"
        "print(json.dumps({'provenance': {'git_sha': 'p'}}))\n"
        "print(json.dumps({'attempted': 2, 'failed': 0, 'metrics': "
        "{'peak_rss_mb': {'value': 90.0, 'unit': 'MB'}}}))\n"))
    crashing = _tree(tmp_path / "change", "raise SystemExit(3)\n")
    out = tmp_path / "BENCH_crash.json"
    assert bench_pairs.main(["--parent", str(clean), "--change", str(crashing),
                             "--run", "w:0:1", "--seconds", "1",
                             "--label", "crash", "--out", str(out)]) == 0
    group = json.loads(out.read_text())["groups"][0]
    assert group["attempted"] == {"parent": 2, "change": 1}
    assert group["failed"] == {"parent": 0, "change": 1}
    assert group["more_failed"] is True
    assert group["broken"] == {"parent": 0, "change": 1}


@pytest.mark.parametrize("change_failed, gain", [(0, True), (1, False)])
def test_gain_needs_no_larger_failed_share(tmp_path, change_failed, gain):
    """A change that wins every pair by more than the parent's spread
    reports a gain, unless it failed an operation where the parent failed
    none."""
    def script(failed, rss):
        result = {"attempted": 2, "failed": failed,
                  "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}}
        return (f"print({json.dumps({'provenance': {'git_sha': 'x'}})!r})\n"
                f"print({json.dumps(result)!r})\n")

    parent = _tree(tmp_path / "parent", script(0, 90.0))
    change = _tree(tmp_path / "change", script(change_failed, 80.0))
    out = tmp_path / "BENCH_gain.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--run", "w:0:2", "--seconds", "1",
                             "--label", "gain", "--out", str(out)]) == 0
    group = json.loads(out.read_text())["groups"][0]
    summary = group["summary"]["peak_rss_mb"]
    assert summary["change_better_pairs"] == 2
    assert group["more_failed"] is (change_failed > 0)
    assert summary["gain"] is gain
