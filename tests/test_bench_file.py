"""Tests for the BENCH file summary of scripts/bench_file.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "bench_file.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_file", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, index, trace=0, workload="tracking", **metrics):
    return {"side": side, "index": index, "trace": trace, "workload": workload,
            "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_summary_counts_pairs_won_in_each_metrics_direction(bench):
    # pairs are matched by index whatever the order of the runs; the change
    # wins wall_s (lower is better) at indices 0 and 2, ties at 3, loses at 1;
    # it wins gif_cycles_per_s (higher is better) at 1 and 3
    runs = [
        _run("parent", 0, wall_s=1.0, gif_cycles_per_s=10.0),
        _run("change", 0, wall_s=0.9, gif_cycles_per_s=9.0),
        _run("change", 1, wall_s=1.3, gif_cycles_per_s=12.0),
        _run("parent", 1, wall_s=1.2, gif_cycles_per_s=11.0),
        _run("parent", 2, wall_s=1.4, gif_cycles_per_s=13.0),
        _run("change", 2, wall_s=1.1, gif_cycles_per_s=13.0),
        _run("parent", 3, wall_s=1.6, gif_cycles_per_s=10.0),
        _run("change", 3, wall_s=1.6, gif_cycles_per_s=10.5),
        _run("parent", 0, trace=1, wall_s=50.0),
        _run("change", 0, trace=1, wall_s=0.1),
    ]
    out = bench.summarize(runs, {"wall_s": "lower", "gif_cycles_per_s": "higher"})
    wall = out["tracking"]["wall_s"]
    assert (wall["pairs"], wall["pairs_won"]) == (4, 2)
    assert wall["parent_runs"] == [1.0, 1.2, 1.4, 1.6]
    assert wall["parent_median"] == pytest.approx(1.3)
    assert wall["change_median"] == pytest.approx(1.2)
    assert wall["ratio"] == pytest.approx(1.2 / 1.3)
    # quartiles of 1.0, 1.2, 1.4, 1.6 (inclusive method): 1.15 and 1.45
    assert wall["parent_iqr"] == pytest.approx(0.3)
    gif = out["tracking"]["gif_cycles_per_s"]
    assert (gif["pairs"], gif["pairs_won"]) == (4, 2)


def test_unmatched_runs_are_not_pairs(bench):
    runs = [_run("parent", 0, wall_s=1.0), _run("parent", 1, wall_s=2.0),
            _run("change", 1, wall_s=1.5)]
    wall = bench.summarize(runs, {"wall_s": "lower"})["tracking"]["wall_s"]
    assert (wall["pairs"], wall["pairs_won"]) == (1, 1)
    assert wall["parent_iqr"] == pytest.approx(0.5)
    single = bench.summarize(runs[1:], {"wall_s": "lower"})["tracking"]["wall_s"]
    assert single["parent_iqr"] == 0.0


def test_directions_come_from_the_benchmark_declaration(bench):
    text = (ROOT / "BENCHMARK.json").read_text()
    directions = bench.metric_directions(ROOT / "BENCHMARK.json")
    spec = json.loads(text)
    assert directions == {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert directions["wall_s"] == "lower" and directions["gif_cycles_per_s"] == "higher"
    assert (ROOT / "BENCHMARK.json").read_text() == text
