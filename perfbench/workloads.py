"""Workload definitions: each named workload is a tuple of scenario configs
generated from the workload seed alone.

The configs are passed to the program's public ``run_benchmark`` (and, for
the per-filter timings, to ``simulate_sde`` and ``run_filters``); nothing
else about a workload reaches the program.
"""

from __future__ import annotations

from gifilter.harness import ScenarioConfig

EXTREME = {"p_crit": 0.1, "alpha": 0.01, "beta": 0.001}
MILD = {"p_crit": 5.0, "alpha": 1e-4, "beta": 1e-4}

# One long stationary track: per-call overhead spread over every layer, one
# lane, no shared work.
CUBIC_LONG_CYCLES = 500

# The acceptance grid (criterion 3) at a shorter horizon.
ENSEMBLE_SEEDS = 3
ENSEMBLE_CYCLES = 150

# Fixed-horizon tracks, one config each (run index 0 of consecutive seeds),
# so that every run_benchmark call is one track: short timed units keep the
# fast-decile estimate steady.  GIF loses lock on some tracks after cycle 40,
# so the horizon reaches past that and the failure path runs.
# max_refinements=1 bounds what a lost cycle costs (two failed attempts,
# about two GIF steps) so that a lost track fits in a run; with the default
# of 8 each lost cycle costs about 500 steps.
TRACKING_TRACKS = 3
TRACKING_CYCLES = 50
TRACKING_MAX_REFINEMENTS = 1

WORKLOAD_NAMES = ("cubic-long", "cubic-ensemble", "tracking")


def build_workload(name: str, seed: int) -> tuple[ScenarioConfig, ...]:
    """The scenario configs of workload ``name`` for workload seed ``seed``."""
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    if name == "cubic-long":
        return (ScenarioConfig(model="cubic1d", model_params=dict(EXTREME), delta=1.0,
                               n_obs=CUBIC_LONG_CYCLES, seed=seed, filters=("gif", "ekf")),)
    if name == "cubic-ensemble":
        configs = []
        for k in range(ENSEMBLE_SEEDS):
            run_seed = ENSEMBLE_SEEDS * seed + k
            for params, quadratic in ((EXTREME, True), (EXTREME, False), (MILD, True)):
                configs.append(ScenarioConfig(
                    model="cubic1d", model_params=dict(params), delta=1.0,
                    n_obs=ENSEMBLE_CYCLES, seed=run_seed, quadratic_enabled=quadratic,
                    filters=("gif", "ekf")))
        return tuple(configs)
    if name == "tracking":
        return tuple(ScenarioConfig(model="tracking9d", delta=0.1, n_obs=TRACKING_CYCLES,
                                    seed=TRACKING_TRACKS * seed + k, filters=("gif", "ekf"),
                                    max_refinements=TRACKING_MAX_REFINEMENTS)
                     for k in range(TRACKING_TRACKS))
    raise ValueError(f"unknown workload '{name}' (expected one of {WORKLOAD_NAMES})")
