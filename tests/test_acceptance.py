"""Acceptance suite: the seven exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with -s or in captured output)
and enforces both the numerical tolerance and the runtime budget.
Run explicitly with:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gifilter.flow import FlowGrid, integrate_flow, precompute
from gifilter.geometry import exp_map_series
from gifilter.harness import ScenarioConfig, invariance_check, kalman_check, run_benchmark
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.tracking import (
    Tracking9DParams,
    observation_connector,
    split_state,
    tracking_connector,
    tracking_diffusion,
    tracking_observation,
)

from helpers import random_obs_point, random_tracking_state
from oracles import (
    cubic1d_analytic_ailp,
    geodesic_flow,
    levi_civita_connector,
    log_map_series,
    tracking_dbeta,
)

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_kalman_equivalence():
    start = time.time()
    report = kalman_check(n_steps=200)
    elapsed = time.time() - start
    detail = (f"max rel deviation mean {report['max_rel_mean_deviation']:.2e}, "
              f"cov {report['max_rel_cov_deviation']:.2e} (<= 1e-8), {elapsed:.1f}s (< 5s)")
    _report(1, report["passed"] and elapsed < 5.0, detail)


def test_criterion_2_coordinate_invariance_scaling():
    start = time.time()
    report = invariance_check(n_steps=1000)
    elapsed = time.time() - start
    detail = (f"mismatch ratio {report['ratio']:.1f} in [8, 32] "
              f"(full {report['mismatch_full_noise']:.3e}, "
              f"half {report['mismatch_half_noise']:.3e}), {elapsed:.1f}s (< 60s)")
    _report(2, report["passed"] and elapsed < 60.0, detail)


def test_criterion_3_benchmark_properties():
    start = time.time()

    def summaries(p_crit, alpha, beta, quadratic, filters=("gif", "ekf")):
        out = {}
        for seed in BENCHMARK_SEEDS:
            config = ScenarioConfig(
                model="cubic1d",
                model_params={"p_crit": p_crit, "alpha": alpha, "beta": beta},
                delta=1.0,
                n_obs=10000,
                seed=seed,
                quadratic_enabled=quadratic,
                filters=filters,
            )
            summary, _ = run_benchmark(config)
            out[seed] = summary.per_filter
        return out

    extreme_quad = summaries(0.1, 0.01, 0.001, quadratic=True)
    # the EKF ignores quadratic_enabled and both arms simulate the same truth
    # per seed, so the EKF track of the arm without the quadratic terms is
    # the one above (pinned by test_harness.py::
    # test_ekf_track_ignores_the_gif_only_switches); only the GIF runs again
    extreme_noquad = summaries(0.1, 0.01, 0.001, quadratic=False, filters=("gif",))
    mild = summaries(5.0, 1e-4, 1e-4, quadratic=True)

    tail_wins = sum(
        extreme_quad[s]["gif"]["tail_frequency"] < extreme_quad[s]["ekf"]["tail_frequency"]
        for s in BENCHMARK_SEEDS)
    gap_shrinks = 0
    for s in BENCHMARK_SEEDS:
        gap_quad = abs(extreme_quad[s]["gif"]["mean_abs_error"]
                       - extreme_quad[s]["ekf"]["mean_abs_error"])
        gap_noquad = abs(extreme_noquad[s]["gif"]["mean_abs_error"]
                         - extreme_quad[s]["ekf"]["mean_abs_error"])
        gap_shrinks += gap_noquad < gap_quad
    gif_mild = np.mean([mild[s]["gif"]["mean_abs_error"] for s in BENCHMARK_SEEDS])
    ekf_mild = np.mean([mild[s]["ekf"]["mean_abs_error"] for s in BENCHMARK_SEEDS])
    mild_ratio = gif_mild / ekf_mild
    elapsed = time.time() - start

    detail = (f"(a) tail wins {tail_wins}/5 (>= 4); (b) gap shrinks {gap_shrinks}/5 (>= 4); "
              f"(c) mild-regime mean ratio {mild_ratio:.4f} (within 10%); "
              f"{elapsed:.0f}s (< 600s)")
    passed = (tail_wins >= 4 and gap_shrinks >= 4
              and abs(mild_ratio - 1.0) <= 0.10 and elapsed < 600.0)
    _report(3, passed, detail)


def test_criterion_4_analytic_vs_numeric_ailp():
    start = time.time()
    model, _ = cubic1d_build(Cubic1DParams())
    grid = FlowGrid(1.0, 128)
    worst = 0.0
    for x0 in (0.6, 0.8, 1.0, 1.2, 1.4):
        for sigma0 in (0.005, 0.02):
            point = np.array([x0])
            bundle = precompute(model, point, np.array([[sigma0]]), grid)
            expected = cubic1d_analytic_ailp(x0, sigma0, 0.01, 1.0)
            worst = max(worst, abs(bundle.m_delta[0] - expected) / abs(expected))
    elapsed = time.time() - start
    detail = f"worst rel error {worst:.2e} over 10-point grid (<= 1e-4), {elapsed:.2f}s (< 1s)"
    _report(4, worst <= 1e-4 and elapsed < 1.0, detail)


def test_criterion_5_tracking_geometry_identities():
    start = time.time()
    params = Tracking9DParams()
    model = tracking_diffusion(params)
    obs = tracking_observation(params)
    conn = observation_connector(params)
    rng = np.random.default_rng(5005)

    worst_noise = 0.0
    for _ in range(1000):
        x = random_tracking_state(rng, scale=rng.uniform(0.5, 100.0))
        resid = float(np.linalg.norm(model.conn.contract(x, model.alpha(x))))
        worst_noise = max(worst_noise, resid / max(1.0, float(np.max(np.abs(model.alpha(x))))))

    worst_cross = 0.0
    worst_speed = 0.0
    grid = FlowGrid(0.1, 64)
    for _ in range(10):
        speed = rng.uniform(100.0, 300.0)
        x0 = random_tracking_state(rng, speed=speed, scale=0.1 * speed)
        speed_sq = float(x0[3:6] @ x0[3:6])
        for x in integrate_flow(model, x0, grid)[0]:
            _, v, a = split_state(x)
            worst_cross = max(worst_cross, abs(float(v @ a))
                              / (np.linalg.norm(v) * max(np.linalg.norm(a), 1e-300)))
            worst_speed = max(worst_speed, abs(float(v @ v) - speed_sq) / speed_sq)

    worst_conn = 0.0
    basis = np.eye(5)
    for _ in range(20):
        y = random_obs_point(rng)
        numeric = levi_civita_connector(obs.beta, y, dbeta=tracking_dbeta(params))
        for i in range(5):
            for j in range(5):
                worst_conn = max(worst_conn, float(np.max(np.abs(
                    conn.gamma(y, basis[i], basis[j]) - numeric[:, i, j]))))
    elapsed = time.time() - start
    detail = (f"noise contraction {worst_noise:.1e} (<= 1e-12); constraint drift "
              f"{max(worst_cross, worst_speed):.1e} (<= 1e-8); connector gap "
              f"{worst_conn:.1e} (<= 1e-6); {elapsed:.1f}s (< 10s)")
    passed = (worst_noise <= 1e-12 and worst_cross <= 1e-8 and worst_speed <= 1e-8
              and worst_conn <= 1e-6 and elapsed < 10.0)
    _report(5, passed, detail)


def test_criterion_6_exponential_map_consistency():
    start = time.time()
    conn = tracking_connector()
    rng = np.random.default_rng(6006)
    x = random_tracking_state(rng)
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)

    ode_gaps = []
    roundtrip = []
    for scale in (0.04, 0.02, 0.01):
        v = scale * direction
        endpoint, _ = geodesic_flow(x, v, conn, steps=128)
        ode_gaps.append(float(np.linalg.norm(endpoint - exp_map_series(x, v, conn))))
        back = log_map_series(x, exp_map_series(x, v, conn), conn)
        roundtrip.append(float(np.linalg.norm(back - v)))
    ode_ratios = [a / b for a, b in zip(ode_gaps, ode_gaps[1:])]
    rt_ratios = [a / b for a, b in zip(roundtrip, roundtrip[1:])]
    elapsed = time.time() - start
    ok = all(12.0 <= r <= 20.0 for r in ode_ratios + rt_ratios)
    detail = (f"series-vs-ODE ratios {[f'{r:.1f}' for r in ode_ratios]}, round-trip "
              f"ratios {[f'{r:.1f}' for r in rt_ratios]} all in [12, 20]; "
              f"{elapsed:.1f}s (< 5s)")
    _report(6, ok and elapsed < 5.0, detail)


def test_criterion_7_oracle_fixtures_committed():
    start = time.time()
    path = Path(__file__).parent / "fixtures" / "derived.json"
    exists = path.exists()
    entries = json.loads(path.read_text()) if exists else {}
    from fixture_defs import FIXTURES

    complete = sorted(entries.keys()) == sorted(fx.name for fx in FIXTURES)
    elapsed = time.time() - start
    detail = (f"fixture file committed with {len(entries)} oracle-validated entries, "
              f"bitwise re-assertion delegated to test_fixtures.py; {elapsed:.2f}s")
    _report(7, exists and complete, detail)
