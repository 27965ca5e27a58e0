"""Tracing for the benchmark's traced run: in-memory spans around the
program's public functions, and exact counts of the model callbacks.

Wrappers are installed on the module attribute each call site looks up
(``filter.py`` binds ``precompute`` and ``barycenter_correction`` at import,
so those are wrapped in ``gifilter.filter``, not in their home modules) and
removed again when the ``traced`` context exits.  A span is (name, start,
end, parent span, track id, flags); a layer's self time is its span's
duration minus the durations of its child spans.  Nothing here changes
what the wrapped functions compute.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gifilter import ekf, flow, harness, observation
from gifilter import filter as gfilter

# (module whose attribute the caller looks up, attribute, span name)
SPAN_SITES = (
    (harness, "run_benchmark", "harness.run_benchmark"),
    (harness, "simulate_sde", "harness.simulate_sde"),
    (harness, "run_filters", "harness.run_filters"),
    (harness, "summarize", "harness.summarize"),
    (harness, "sample_observation", "observation.sample_observation"),
    (harness, "filter_step", "filter.filter_step"),
    (harness, "ekf_step", "ekf.ekf_step"),
    (gfilter, "precompute", "flow.precompute"),
    (flow, "integrate_flow", "flow.integrate_flow"),
    (flow, "transition_jacobians", "flow.transition_jacobians"),
    (flow, "propagate_covariance", "flow.propagate_covariance"),
    (flow, "ailp_state", "flow.ailp_state"),
    (flow, "flow_second_fundamental_form", "flow.flow_second_fundamental_form"),
    (gfilter, "map_second_fundamental_form", "observation.map_second_fundamental_form"),
    (gfilter, "ailp_observation", "observation.ailp_observation"),
    (gfilter, "gain", "filter.gain"),
    (gfilter, "rho_build", "filter.rho_build"),
    (gfilter, "pull_back_observation", "filter.pull_back_observation"),
    (gfilter, "assimilate", "filter.assimilate"),
    (gfilter, "update_estimate", "filter.update_estimate"),
    (gfilter, "repair_psd", "filter.repair_psd"),
    (ekf, "repair_psd", "filter.repair_psd"),
    (ekf, "ekf_predict", "ekf.ekf_predict"),
    (ekf, "ekf_update", "ekf.ekf_update"),
    (gfilter, "barycenter_correction", "geometry.barycenter_correction"),
    (gfilter, "exp_map_series", "geometry.exp_map_series"),
    (observation, "exp_map_series", "geometry.exp_map_series"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_SITES))

# Model callbacks counted per filter, by the field that holds them.
DIFFUSION_CALLBACKS = ("xi", "dxi", "d2xi_contract", "alpha", "drift_b", "ddrift_b",
                       "d2drift_b_contract")
CONNECTOR_CALLBACKS = {"gamma": "gamma", "dgamma": "dgamma", "contract_fn": "contract"}
OBSERVATION_CALLBACKS = ("psi", "dpsi", "d2psi", "beta")
OBS_CONNECTOR_CALLBACKS = {"gamma": "obs_gamma", "dgamma": "obs_dgamma"}
CALLBACK_NAMES = (DIFFUSION_CALLBACKS + tuple(CONNECTOR_CALLBACKS.values())
                  + OBSERVATION_CALLBACKS + tuple(OBS_CONNECTOR_CALLBACKS.values()))

RAISED = 1  # the call raised (for a filter step: a failed attempt)
REFINED = 2  # a filter step attempted on a refined grid (a retry)


def _substeps(name: str, args: tuple, kwargs: dict) -> int:
    """Grid size of one filter-step attempt, as the harness passes it."""
    if name == "filter.filter_step":
        return kwargs["config"].n_substeps if "config" in kwargs else args[4].n_substeps
    return kwargs["n_substeps"] if "n_substeps" in kwargs else args[5]


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory.

    ``base_substeps`` is the grid size of a cycle's first attempt; a
    filter-step attempt on any other grid is a refinement.
    """

    def __init__(self, base_substeps: int):
        self.base_substeps = base_substeps
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.track = array("i")
        self.flags = array("B")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._track = -1
        self._owner = "sim"  # which filter the running callbacks serve
        self.calls: dict[tuple[str, str], int] = {}
        self.substeps = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call, plus the counts tied to ``name``."""
        nid = self._id(name)
        stack = self._stack
        starts, ends, flags = self.start, self.end, self.flags
        step_owner = {"filter.filter_step": "gif", "ekf.ekf_step": "ekf"}.get(name)

        def wrapper(*args, **kwargs):
            if name == "harness.simulate_sde":
                self._track += 1
            elif name == "flow.integrate_flow":
                self.substeps += args[2].n_steps
            flag = 0
            if step_owner is not None:
                outer_owner = self._owner
                self._owner = step_owner
                if _substeps(name, args, kwargs) != self.base_substeps:
                    flag = REFINED
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.track.append(self._track)
            flags.append(flag)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags[idx] |= RAISED
                raise
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
                if step_owner is not None:
                    self._owner = outer_owner

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` adding one to the call count of ``name`` for the current filter."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            key = (self._owner, name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "track": np.frombuffer(self.track, dtype=np.int32).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.uint8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def counted_scenario(scenario: harness.Scenario, rec: SpanRecorder) -> harness.Scenario:
    """A copy of ``scenario`` whose model callbacks count their calls in ``rec``."""

    def wrap_fields(obj, names: dict):
        changes = {field: rec.counted(label, getattr(obj, field))
                   for field, label in names.items() if getattr(obj, field) is not None}
        return dataclasses.replace(obj, **changes)

    conn = wrap_fields(scenario.diffusion.conn, CONNECTOR_CALLBACKS)
    diffusion = dataclasses.replace(
        wrap_fields(scenario.diffusion, {f: f for f in DIFFUSION_CALLBACKS}), conn=conn)
    observation_at = scenario.observation_at

    def counted_observation_at(t):
        obs = wrap_fields(observation_at(t), {f: f for f in OBSERVATION_CALLBACKS})
        return dataclasses.replace(obs, conn_obs=wrap_fields(obs.conn_obs,
                                                             OBS_CONNECTOR_CALLBACKS))

    return dataclasses.replace(scenario, diffusion=diffusion,
                               observation_at=counted_observation_at)


@contextmanager
def traced(rec: SpanRecorder):
    """Install span wrappers and callback counters; remove them on exit."""
    saved = []
    try:
        for module, attr, name in SPAN_SITES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(name, original))
        build = harness.build_scenario
        saved.append((harness, "build_scenario", build))
        harness.build_scenario = lambda config: counted_scenario(build(config), rec)
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-span (duration, self time): self = duration minus child durations.

    Spans nest within one thread, so the children of a span are disjoint and
    lie inside it; the part of its interval they cover is their summed
    duration.
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur, dur - child


def fired(spans: dict) -> set[str]:
    """Names of the spans recorded at least once (a wrapper that was
    installed but never called does not count)."""
    return {str(name) for name in spans["names"][np.unique(spans["name_id"])]}


def self_time_by_name(spans: dict) -> dict[str, float]:
    _, own = self_times(spans)
    totals = np.bincount(spans["name_id"], weights=own, minlength=len(spans["names"]))
    return {str(name): float(totals[i]) for i, name in enumerate(spans["names"])}
