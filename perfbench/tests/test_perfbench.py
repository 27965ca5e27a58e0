"""Tests of the benchmark itself: span accounting, tracing transparency,
workload determinism, callback counters, rates, host sampling, and the
metric lists."""

import dataclasses
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from gifilter import harness

import host
import measure
import spans
from workloads import WORKLOAD_NAMES, build_workload

ROOT = Path(__file__).resolve().parents[2]

TINY_CUBIC = harness.ScenarioConfig(model="cubic1d", n_obs=6, seed=3)
TINY_TRACKING = harness.ScenarioConfig(model="tracking9d", delta=0.1, n_obs=3, seed=3)


def _traced_solve(config):
    rec = spans.SpanRecorder(base_substeps=config.n_substeps)
    with spans.traced(rec):
        summary, records = harness.run_benchmark(config)
    return rec, summary, records


def test_self_times_on_hand_built_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    arrays = {
        "names": np.array(["root", "a", "b", "c"]),
        "name_id": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
    }
    assert spans.self_time_by_name(arrays) == {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}


@pytest.mark.parametrize("config", [TINY_CUBIC, TINY_TRACKING], ids=["cubic", "tracking"])
def test_self_times_account_for_the_traced_total(config):
    rec, _, _ = _traced_solve(config)
    arrays = rec.arrays()
    dur, own = spans.self_times(arrays)
    assert np.all(own >= -1e-12), "children exceed their parent"
    roots = arrays["parent"] < 0
    assert arrays["names"][arrays["name_id"][roots]].tolist() == ["harness.run_benchmark"]
    assert own.sum() == pytest.approx(dur[roots].sum(), rel=1e-9)
    assert sum(spans.self_time_by_name(arrays).values()) == pytest.approx(dur[roots].sum(),
                                                                          rel=1e-9)


@pytest.mark.parametrize("config", [TINY_CUBIC, TINY_TRACKING], ids=["cubic", "tracking"])
def test_traced_run_is_bitwise_identical_to_untraced(config):
    originals = {(m, a): getattr(m, a) for m, a, _ in spans.SPAN_SITES}
    plain_summary, plain_records = harness.run_benchmark(config)
    _, summary, records = _traced_solve(config)
    assert measure.summary_digest(summary, records) == measure.summary_digest(
        plain_summary, plain_records)
    for rec, ref in zip(records, plain_records):
        for name in config.filters:
            assert rec.estimates[name].tobytes() == ref.estimates[name].tobytes()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    assert harness.build_scenario.__module__ == "gifilter.harness"


def test_every_listed_span_fires_where_expected():
    cubic = spans.fired(_traced_solve(TINY_CUBIC)[0].arrays())
    tracking = spans.fired(_traced_solve(TINY_TRACKING)[0].arrays())
    assert measure.expected_spans([TINY_CUBIC]) <= cubic
    assert "geometry.exp_map_series" not in cubic
    assert measure.expected_spans([TINY_TRACKING]) == set(spans.SPAN_NAMES) <= tracking


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_generation_is_deterministic_in_the_seed(name):
    first = build_workload(name, 7)
    assert first == build_workload(name, 7)
    assert [c.config_hash() for c in first] != [c.config_hash() for c in build_workload(name, 8)]
    assert all(c.seed >= 0 for c in first)


def test_ensemble_duplicates_are_one_third():
    configs = build_workload("cubic-ensemble", 2)
    short = [dataclasses.replace(c, n_obs=4) for c in configs]
    solutions = [harness.run_benchmark(c)[1] for c in short]
    assert measure.duplicate_share(solutions) == pytest.approx(1.0 / 3.0)
    assert measure.duplicate_share(solutions[:1]) == 0.0


def _counted_tracking_run():
    """A 3-cycle tracking solve whose xi and d2psi also count calls on their own."""
    independent = {"xi": 0, "d2psi": 0}

    def tally(name, fn):
        def inner(*args):
            independent[name] += 1
            return fn(*args)
        return inner

    build = harness.build_scenario

    def build_with_tally(config):
        sc = build(config)
        observation_at = sc.observation_at

        def obs_at(t):
            obs = observation_at(t)
            return dataclasses.replace(obs, d2psi=tally("d2psi", obs.d2psi))

        diffusion = dataclasses.replace(sc.diffusion, xi=tally("xi", sc.diffusion.xi))
        return dataclasses.replace(sc, diffusion=diffusion, observation_at=obs_at)

    rec = spans.SpanRecorder(base_substeps=TINY_TRACKING.n_substeps)
    harness.build_scenario = build_with_tally
    try:
        with spans.traced(rec):
            harness.run_benchmark(TINY_TRACKING)
    finally:
        harness.build_scenario = build
    return rec.calls, independent


def test_callback_counts_are_exact_and_repeatable():
    calls, independent = _counted_tracking_run()
    again, _ = _counted_tracking_run()
    assert calls == again
    assert all(isinstance(v, int) and v > 0 for v in calls.values())
    for cb in ("xi", "d2psi"):
        assert sum(v for (_, name), v in calls.items() if name == cb) == independent[cb]
    assert calls[("gif", "d2xi_contract")] > 0 and calls[("gif", "gamma")] > 0
    assert ("ekf", "xi") not in calls and ("ekf", "drift_b") in calls


def test_rates_weigh_each_unit_by_its_own_time():
    bench = measure.WorkloadBench("cubic-long", 0)
    fast = [measure.Call("gif_cycles_per_s", (0, 0), 100, s, (0, 1), s) for s in (1.0, 1.0, 9.0)]
    slow = [measure.Call("gif_cycles_per_s", (1, 0), 100, 3.0, (0, 1), 3.0) for _ in range(3)]
    bench.calls = fast + slow
    # 200 cycles a pass over 1 s + 3 s of per-unit medians; a median over the
    # per-call rates would read 33.3 and miss a change in the fast unit.
    assert bench.end_to_end()["gif_cycles_per_s"] == pytest.approx(50.0)


def test_host_sampling_takes_samples_and_their_time_out(monkeypatch):
    monkeypatch.setattr(host, "SAMPLE_INTERVAL_S", 0.02)
    samples = []
    t0 = time.perf_counter()
    with host.sampling(samples) as spent:
        while time.perf_counter() - t0 < 0.25:
            pass
    assert len(samples) >= 3
    assert sum(samples) <= spent[0] < 0.25
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert callable(signal.getsignal(signal.SIGALRM))


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == measure.per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
