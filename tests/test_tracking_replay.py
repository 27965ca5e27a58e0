"""Per-cycle replay on tracking9d: a change that moves filter outputs by
rounding alone, held cycle by cycle.

One filter cycle is well conditioned, while a whole tracking run amplifies
a last-bit change past any useful bound; so a long-run digest cannot tell
a reordered sum from a changed term, and one cycle can.  The test records
tracking runs, then feeds each recorded cycle input (mu, sigma, y, t) of
each filter through ``filter_step`` and ``ekf_step`` twice: with the model
as shipped, and with a reference that takes the arithmetic the shipped
model replaced.  The reference model has no Taylor loops, so the flow steps
through ``xi``, ``dxi`` and ``d2xi_contract`` (the EKF's through b's), and
its observation takes
the spherical gradient by ``np.linalg.inv`` (:mod:`oracles`).  Each output
is compared per cycle: mu block by block (position, velocity,
acceleration), each block's largest deviation relative to its largest
entry, and sigma relative to its largest entry.  The bound was fixed
before the first run.
"""

import numpy as np
import pytest

from gifilter import filter as gfilter
from gifilter.ekf import ekf_step
from gifilter.filter import filter_step
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    run_filters,
    simulate_sde,
    trajectory_rng,
)
from gifilter.models.tracking import Tracking9DParams

from helpers import without_taylor_loops
from oracles import inverse_spherical_observation

REPLAY_BOUND = 1e-10
BLOCKS = (slice(0, 3), slice(3, 6), slice(6, 9))


def _deviation(est, ref) -> float:
    """The largest block-relative deviation of mu and the relative
    deviation of sigma, of one cycle's output from the reference's."""
    (mu, sigma), (mu_ref, sigma_ref) = est, ref
    worst = [np.max(np.abs(mu[b] - mu_ref[b])) / np.max(np.abs(mu_ref[b])) for b in BLOCKS]
    worst.append(np.max(np.abs(sigma - sigma_ref)) / np.max(np.abs(sigma_ref)))
    return float(max(worst))


def _replay(seed: int, n_obs: int = 100):
    """Per filter, the recorded cycle inputs of a tracking run and the
    outputs of the shipped and the reference cycle on each, plus a replay
    of the shipped GIF cycle with the quadratic correction scaled by
    1 + 1e-6."""
    config = ScenarioConfig(model="tracking9d", delta=0.1, n_obs=n_obs, seed=seed)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(seed, 0)))
    model = scenario.diffusion
    reference = without_taylor_loops(model)
    params = Tracking9DParams()
    cfg = config.filter_config()
    steps = {
        "gif": lambda m, obs, est, y: filter_step(m, obs, est, y, cfg),
        "ekf": lambda m, obs, est, y: ekf_step(m, obs, est, y, config.delta,
                                               config.n_substeps),
    }
    out = {}
    for name, step in steps.items():
        assert not record.aborted[name].any(), (name, seed)
        est = (scenario.mu0, scenario.sigma0)
        cycles = []
        for k in range(record.n_valid):
            t, y = float(record.times[k]), record.observations[k]
            obs = scenario.observation_at(t)
            shipped = step(model, obs, est, y)
            ref = step(reference, inverse_spherical_observation(params, t), est, y)
            cycles.append((est, y, obs, shipped, ref))
            # the next input is the recorded estimate, which is this cycle's
            est = (record.estimates[name][k], record.covariances[name][k])
            assert est[0].tobytes() == shipped[0].tobytes()
        out[name] = cycles
    return model, cfg, out


@pytest.fixture(scope="module", params=[0, 2, 5], ids=["seed0", "seed2", "seed5"])
def replayed(request):
    return _replay(request.param)


def test_every_replayed_cycle_is_within_the_rounding_bound(replayed):
    _, _, cycles = replayed
    for name in ("gif", "ekf"):
        worst = max(_deviation(shipped, ref) for *_, shipped, ref in cycles[name])
        assert worst <= REPLAY_BOUND, (name, worst)
        # the two arithmetics do differ: the replay compares distinct paths
        assert any(shipped[0].tobytes() != ref[0].tobytes()
                   for *_, shipped, ref in cycles[name]), name


def test_a_relative_change_of_1e_6_in_the_quadratic_term_exceeds_the_bound(replayed,
                                                                           monkeypatch):
    model, cfg, cycles = replayed
    rho_build = gfilter.rho_build
    monkeypatch.setattr(gfilter, "rho_build",
                        lambda *args: rho_build(*args) * (1.0 + 1e-6))
    worst = max(_deviation(filter_step(model, obs, est, y, cfg), ref)
                for est, y, obs, _, ref in cycles["gif"])
    assert worst > REPLAY_BOUND
