"""Timed passes over one workload, the correctness gates, and the metrics.

A wall pass solves every config of the workload through ``run_benchmark``.
A component pass repeats the same work as separate ``simulate_sde`` calls
and ``run_filters`` calls with one filter each, so GIF, EKF and truth
simulation are timed on their own.  Every pass is checked against the first
wall pass: the summary digest must repeat exactly, component outputs must
equal the ``run_benchmark`` outputs bit for bit, and non-aborted estimates
must be finite.

Every timed call is scaled to a reference host speed by the host kernel
timed right before it, on a timer while it runs, and right after it (see
``host``); the timer samples' own time is taken out of the call's.  Each
end-to-end time is built from the medians of its scaled samples.  A timed
unit is one config (for ``wall_s``) or one run of a config (for the
component calls); ``wall_s`` sums the median time of each unit, and a rate
is the cycles of one pass divided by the same sum, so every config weighs
by its own time.
The report line gives the unscaled values, the slow-side tail percentiles
of per-pass totals and the sample counts beside them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from gifilter import harness

import host
import spans
from workloads import build_workload

FILTERS = ("gif", "ekf")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("gif_cycles_per_s", "1/s", "higher"),
    ("ekf_cycles_per_s", "1/s", "higher"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
RATES = {"gif_cycles_per_s", "ekf_cycles_per_s", "sim_cycles_per_s"}

WARMUP_CYCLES = {"cubic1d": 20, "tracking9d": 2}
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


def summary_digest(summary, records) -> str:
    """Digest of everything a run_benchmark call returns."""
    h = hashlib.sha256(json.dumps(summary.to_dict(), sort_keys=True).encode())
    for rec in records:
        h.update(rec.truth.tobytes())
        h.update(rec.observations.tobytes())
        for name in sorted(rec.estimates):
            h.update(rec.estimates[name].tobytes())
            h.update(rec.aborted[name].tobytes())
    return h.hexdigest()


def timing_summary(values: list[float], better: str) -> dict:
    """Median, the tail percentile with TAIL_SAMPLES samples beyond it, and
    n.  The tail is the slow side: high for times, low for rates."""
    n = len(values)
    out = {"median": statistics.median(values) if values else 0.0, "n": n,
           "tail_pct": None, "tail": None}
    if n > TAIL_SAMPLES:
        pct = math.floor(100.0 * (n - TAIL_SAMPLES) / n)
        if better == "higher":
            pct = 100 - pct
        out["tail_pct"], out["tail"] = pct, float(np.percentile(values, pct))
    return out


@dataclass
class Call:
    """One timed call: its metric, timed unit (config index, and run index
    for component calls), work (cycles), seconds, and the indices of the
    host-kernel samples taken just before and just after it (those between
    were taken while it ran)."""

    metric: str
    unit: tuple
    work: int
    seconds: float
    hosts: tuple[int, int]
    scaled_s: float = 0.0


class WorkloadBench:
    """Set-up state, measurement loops and results for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.configs = build_workload(workload, seed)
        self.scenarios = [harness.build_scenario(cfg) for cfg in self.configs]
        self.reference: list = [None] * len(self.configs)  # (digest, summary, records)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calls: list[Call] = []
        self.passes: dict[str, int] = {}  # completed passes per wall metric
        self.host_s: list[float] = []  # host-kernel seconds, in the order taken

    # -- set-up ------------------------------------------------------------

    def warm_up(self) -> None:
        """Run each model's whole path once, so lazy numpy/scipy set-up is
        paid here and not in the first timed cycle."""
        done = set()
        for cfg in self.configs:
            if cfg.model not in done:
                done.add(cfg.model)
                harness.run_benchmark(dataclasses.replace(
                    cfg, n_obs=WARMUP_CYCLES[cfg.model], n_runs=1))
        host.kernel_s()

    # -- gates and accounting ----------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def run_op(self, label: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a failed operation must not stop the run
            self.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def timed_op(self, label: str, fn, *args):
        """``run_op`` timed, after a host-kernel sample and with the kernel
        sampled on a timer while it runs.

        Returns (result or None, seconds without the timer samples, indices
        of the kernel samples before and after the call; the one after is
        the next sample taken)."""
        first = len(self.host_s)
        self.host_s.append(host.kernel_s())
        t0 = time.perf_counter()
        with host.sampling(self.host_s) as sampling_s:
            out = self.run_op(label, fn, *args)
        seconds = time.perf_counter() - t0 - sampling_s[0]
        return out, seconds, (first, len(self.host_s))

    @staticmethod
    def _finite_where_not_aborted(records) -> bool:
        for rec in records:
            for name, est in rec.estimates.items():
                kept = ~rec.aborted[name][: rec.n_valid]
                if not np.all(np.isfinite(est[: rec.n_valid][kept])):
                    return False
        return True

    def _check_solution(self, i: int, summary, records) -> bool:
        if not self._finite_where_not_aborted(records):
            self.fail(f"config {i}: non-finite estimate on a non-aborted cycle")
            return False
        digest = summary_digest(summary, records)
        if self.reference[i] is None:
            self.reference[i] = (digest, summary, records)
        elif digest != self.reference[i][0]:
            self.fail(f"config {i}: summary digest differs from the first solve of this seed")
            return False
        return True

    # -- passes: each returns its timed calls -------------------------------------

    def wall_pass(self, metric: str = "wall_s") -> list[Call]:
        """Solve every config through run_benchmark, one timed call each."""
        calls = []
        for i, cfg in enumerate(self.configs):
            out, dt, h = self.timed_op(f"run_benchmark config {i}", harness.run_benchmark, cfg)
            if out is not None and self._check_solution(i, *out):
                calls.append(Call(metric, (i,), cfg.n_obs, dt, h))
        if len(calls) == len(self.configs):
            self.passes[metric] = self.passes.get(metric, 0) + 1
        return calls

    def component_pass(self) -> list[Call]:
        """Truth simulation and each filter as separate timed calls."""
        calls = []
        for i, (cfg, scenario) in enumerate(zip(self.configs, self.scenarios)):
            ref = self.reference[i]
            per_run = cfg.n_obs // cfg.n_runs
            for run in range(cfg.n_runs):
                rec, dt, h = self.timed_op(f"simulate_sde config {i} run {run}",
                                           harness.simulate_sde, scenario,
                                           harness.trajectory_rng(cfg.seed, run), per_run)
                if rec is None:
                    continue
                calls.append(Call("sim_cycles_per_s", (i, run), per_run, dt, h))
                for name in cfg.filters:
                    one = dataclasses.replace(
                        scenario, config=dataclasses.replace(cfg, filters=(name,)))
                    out, dt, h = self.timed_op(f"run_filters {name} config {i} run {run}",
                                               harness.run_filters, one, rec)
                    if out is not None:
                        calls.append(Call(f"{name}_cycles_per_s", (i, run), rec.n_valid,
                                          dt, h))
                if ref is not None and not _same_outputs(rec, ref[2][run], cfg.filters):
                    self.fail(f"config {i} run {run}: component outputs differ "
                              "from run_benchmark outputs")
        return calls

    def traced_pass(self, rec: spans.SpanRecorder) -> list[Call]:
        with spans.traced(rec):
            return self.wall_pass("trace.wall_s")

    def alternate(self, seconds: float, first, second, between=None) -> None:
        """Alternate two pass kinds for ``seconds`` (at least one of each),
        scaling each call by the kernel samples from before to after it.

        ``between(share)``, if given, runs after each pass with the share of
        ``seconds`` spent so far; its own time does not count."""
        spent = 0.0
        passes = 0
        while passes < 2 or spent < seconds:
            t0 = time.perf_counter()
            calls = (first if passes % 2 == 0 else second)()
            self.host_s.append(host.kernel_s())
            spent += time.perf_counter() - t0
            for call in calls:
                before, after = call.hosts
                call.scaled_s = host.scaled(call.seconds, self.host_s[before:after + 1])
            self.calls.extend(calls)
            passes += 1
            if between is not None:
                between(spent / seconds)

    def samples(self, metric: str, scaled: bool = True) -> dict[tuple, list[float]]:
        """Per timed unit, the seconds of each call of ``metric``."""
        out: dict[tuple, list[float]] = {}
        for call in self.calls:
            if call.metric == metric:
                out.setdefault(call.unit, []).append(call.scaled_s if scaled else call.seconds)
        return out

    def work(self, metric: str) -> int:
        """Cycles of ``metric`` in one pass (each unit's work is fixed)."""
        return sum({call.unit: call.work for call in self.calls if call.metric == metric}.values())

    def wall_time(self, metric: str = "wall_s", scaled: bool = True) -> float:
        """Time for one pass of ``metric``: the sum over its timed units of
        the median time of each."""
        return sum(statistics.median(v) for v in self.samples(metric, scaled).values())

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Timing metrics, scaled to the reference host unless ``scaled`` is
        false."""
        out = {"wall_s": self.wall_time("wall_s", scaled)}
        for name in RATES:
            secs = self.wall_time(name, scaled)
            out[name] = self.work(name) / secs if secs else 0.0
        return out

    def timings(self) -> dict[str, dict]:
        """Scaled summaries of per-pass totals for the report: whole-pass
        seconds for the wall metrics, whole-pass rates for the others."""
        out = {}
        for name in dict.fromkeys(call.metric for call in self.calls):
            totals = [sum(t) for t in zip(*self.samples(name).values())]
            if name in RATES:
                work = self.work(name)
                out[name] = timing_summary([work / t for t in totals], "higher")
            else:
                out[name] = timing_summary(totals, "lower")
        return out

    def host_slowdown(self) -> float:
        """The run's mean host-kernel time over the reference."""
        return statistics.mean(self.host_s) / host.REFERENCE_S if self.host_s else 1.0

    # -- results -------------------------------------------------------------

    def traced_metrics(self, rec: spans.SpanRecorder) -> dict[str, float]:
        """Per-layer metrics of a traced run, after its own gates: children
        never exceed their parent, and every expected span fired."""
        arrays = rec.arrays()
        _, own = spans.self_times(arrays)
        if np.any(own < -1e-9):
            self.fail("a span's children exceed the span")
        missing = expected_spans(self.configs) - spans.fired(arrays)
        if missing:
            self.fail(f"spans that never fired: {sorted(missing)}")
        out = layer_metrics(rec, max(self.passes.get("trace.wall_s", 0), 1),
                            self.cycles_per_pass(), self.host_slowdown())
        out.update(self.outcome())
        out["trace.wall_s"] = self.wall_time("trace.wall_s")
        out["trace.overhead_s"] = out["trace.wall_s"] - self.wall_time("wall_s")
        return out

    def cycles_per_pass(self) -> dict[str, int]:
        """Attempted filter cycles in one solve of the workload."""
        out = {name: 0 for name in FILTERS}
        for ref in self.reference:
            for rec in ref[2] if ref is not None else ():
                for name in rec.estimates:
                    out[name] += rec.n_valid
        return out

    def outcome(self) -> dict[str, float]:
        """Accuracy, failure share and shared work of the solved workload.

        Errors are the harness's mean absolute error on cubic and the mean
        position error in metres on tracking; both are deterministic.
        """
        out = {}
        solved = [(cfg, ref[1], ref[2]) for cfg, ref in zip(self.configs, self.reference)
                  if ref is not None]
        for name in FILTERS:
            attempted = aborted = 0
            errs, tails = [], []
            for cfg, summary, records in solved:
                for rec in records:
                    n = rec.n_valid
                    attempted += n
                    aborted += int(rec.aborted[name][:n].sum())
                    if cfg.model == "tracking9d":
                        diff = rec.estimates[name][:n, :3] - rec.truth[:n, :3]
                        errs.extend(np.linalg.norm(diff, axis=1))
                tails.append(summary.per_filter[name]["tail_frequency"])
                if cfg.model != "tracking9d":
                    errs.append(summary.per_filter[name]["mean_abs_error"])
            out[f"{name}_abort_frac"] = aborted / attempted if attempted else 0.0
            out[f"{name}_err_mean"] = float(np.mean(errs)) if errs else 0.0
            out[f"{name}_tail_freq"] = float(np.mean(tails)) if tails else 0.0
        out["dup_share"] = duplicate_share([records for _, _, records in solved])
        return out


def duplicate_share(solutions: list) -> float:
    """Share of truth simulations and EKF runs whose output repeats an
    earlier one bit for bit (work that deduplication would skip)."""
    seen, total, dups = set(), 0, 0
    for records in solutions:
        for rec in records:
            for kind, arr in (("sim", rec.truth), ("ekf", rec.estimates.get("ekf"))):
                if arr is None:
                    continue
                key = (kind, hashlib.sha256(arr.tobytes()).hexdigest())
                total += 1
                dups += key in seen
                seen.add(key)
    return dups / total if total else 0.0


def _same_outputs(rec, ref, filters) -> bool:
    if rec.truth.tobytes() != ref.truth.tobytes():
        return False
    return all(rec.estimates[f].tobytes() == ref.estimates[f].tobytes()
               and rec.aborted[f].tobytes() == ref.aborted[f].tobytes()
               for f in filters if f in rec.estimates)


def layer_metrics(rec: spans.SpanRecorder, traced_passes: int,
                  cycles_per_pass: dict[str, int], slowdown: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of a traced run, per solve of the workload.

    Self times and counts are divided by the number of traced passes (times
    also by the host slowdown); model callback counts by the attempted
    cycles of the filter they served.  A span's time includes the
    host-kernel timer samples taken while it ran (see ``host.sampling``),
    a few per cent of each span on average.
    """
    arrays = rec.arrays()
    own = spans.self_time_by_name(arrays)
    per_solve = traced_passes * slowdown
    out = {f"{name}.self_s": own.get(name, 0.0) / per_solve for name in spans.SPAN_NAMES}
    dur = arrays["end"] - arrays["start"]
    step_ids = [i for i, n in enumerate(arrays["names"])
                if n in ("filter.filter_step", "ekf.ekf_step")]
    steps = np.isin(arrays["name_id"], step_ids)
    refined = steps & (arrays["flags"] & spans.REFINED > 0)
    raised = steps & (arrays["flags"] & spans.RAISED > 0)
    n_steps = int(steps.sum())
    out["harness.attempts"] = n_steps / traced_passes
    out["harness.refinements"] = int(refined.sum()) / traced_passes
    out["harness.retry_s"] = float(dur[refined].sum()) / per_solve
    out["harness.step_success_ratio"] = (n_steps - int(raised.sum())) / n_steps if n_steps else 0.0
    out["flow.substeps"] = rec.substeps / traced_passes
    for name in FILTERS:
        cycles = cycles_per_pass[name] * traced_passes
        for cb in spans.CALLBACK_NAMES:
            calls = rec.calls.get((name, cb), 0)
            out[f"models.calls_per_cycle.{name}.{cb}"] = calls / cycles if cycles else 0.0
    return out


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{name}.self_s", "s", "lower") for name in spans.SPAN_NAMES]
    out += [("harness.attempts", "count", "lower"), ("harness.refinements", "count", "lower"),
            ("harness.retry_s", "s", "lower"), ("harness.step_success_ratio", "ratio", "higher"),
            ("flow.substeps", "count", "lower")]
    out += [(f"models.calls_per_cycle.{name}.{cb}", "calls/cycle", "lower")
            for name in FILTERS for cb in spans.CALLBACK_NAMES]
    for name in FILTERS:
        out += [(f"{name}_abort_frac", "ratio", "lower"),
                (f"{name}_err_mean", "state-unit", "lower"),
                (f"{name}_tail_freq", "ratio", "lower")]
    out += [("dup_share", "ratio", "lower"), ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def expected_spans(configs) -> set[str]:
    """Spans that must fire: all of them, except that on flat (cubic)
    geometry the exponential-map series is never reached."""
    names = set(spans.SPAN_NAMES)
    if all(cfg.model == "cubic1d" for cfg in configs):
        names.discard("geometry.exp_map_series")
    return names
