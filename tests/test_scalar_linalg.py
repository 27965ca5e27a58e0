"""The 1x1 float branches against the LAPACK calls they replace, the float
forms of the one-dimensional models against their array callbacks, the
scalar flat cycle against the array cycle, and a guard on how many LAPACK
calls one filter or simulation cycle makes.

Each reference below is the array code the branch or form replaces, run on
the same 1x1 input: a branch must give its bytes, or raise the same
exception class, on every value of the table, which covers random values,
values near e^+-50, 1e+-300, subnormals, +-0.0, +-inf and NaN.
"""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from gifilter import flow
from gifilter.ekf import ekf_step
from gifilter.errors import (
    DivergenceError,
    IllConditionedFlowError,
    IllConditionedGainError,
    IndefiniteCovarianceError,
    SingularMetricError,
)
from gifilter.filter import FilterConfig, filter_step, gain, scalar_cycle
from gifilter.geometry import identity, symmetric_condition, symmetrize
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    simulate_sde,
    trajectory_rng,
    transformed_cubic_model,
)
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.observation import beta_sqrt

_RNG = np.random.default_rng(2024)
_EDGES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, -2.5e-320,
          2.2250738585072014e-308, 1.7e308, -1.7e308, 0.0, -0.0, math.inf, -math.inf,
          math.nan]
VALUES = np.concatenate([
    _RNG.standard_normal(1000),
    _RNG.standard_normal(1000) * np.exp(_RNG.uniform(-50.0, 50.0, 1000)),
    _EDGES,
])


def _outcome(fn, *args):
    """The bytes of fn(*args), or the class of the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(*args), dtype=float).tobytes()
        except Exception as exc:  # the class is the outcome compared
            return type(exc)


def _lapack_symmetric_condition(mat):
    if not np.all(np.isfinite(mat)):
        return math.inf
    eigs = np.abs(np.linalg.eigvalsh(mat))
    smallest = float(eigs.min())
    return float(eigs.max()) / smallest if smallest > 0.0 else math.inf


def _lapack_beta_sqrt(beta):
    beta = symmetrize(np.asarray(beta, dtype=float))
    eigs, vecs = np.linalg.eigh(beta)
    if eigs[0] <= 0.0:
        raise SingularMetricError("not SPD")
    return (vecs * np.sqrt(eigs)) @ vecs.T


def _lapack_gain(xi_delta, j, beta):
    j_xi = j @ xi_delta
    innov = symmetrize(j_xi @ j.T + beta)
    if _lapack_symmetric_condition(innov) > 1e12:
        raise IllConditionedGainError("ill-conditioned")
    return np.linalg.solve(innov, j_xi).T


def _lapack_inverse(tau):
    singular = np.linalg.svd(tau, compute_uv=False)
    if singular[0] > flow.FLOW_COND_LIMIT * singular[-1]:
        raise IllConditionedFlowError("ill-conditioned")
    inverse = np.linalg.inv(tau)
    if np.abs(inverse @ tau - identity(1)).max() > 1e-8:
        raise IllConditionedFlowError("off the identity")
    return inverse


def test_the_table_holds_every_kind_of_value():
    finite = VALUES[np.isfinite(VALUES)]
    assert np.isnan(VALUES).any() and np.isposinf(VALUES).any() and np.isneginf(VALUES).any()
    assert (np.abs(finite) < 2.2250738585072014e-308).sum() > 3  # zeros and subnormals
    assert np.signbit(VALUES[VALUES == 0.0]).tolist() == [False, True]
    assert np.abs(finite).max() > 1e300 and np.abs(finite[finite != 0.0]).min() < 1e-300


def test_symmetric_condition_of_a_scalar_equals_eigvalsh():
    for value in VALUES:
        mat = np.array([[value]])
        assert _outcome(symmetric_condition, mat) == _outcome(_lapack_symmetric_condition,
                                                              mat), value


def test_beta_sqrt_of_a_scalar_equals_eigh():
    for value in VALUES:
        beta = np.array([[value]])
        assert _outcome(beta_sqrt, beta) == _outcome(_lapack_beta_sqrt, beta), value
    # a NaN passes through, as through eigh; a non-positive entry is refused
    assert np.isnan(beta_sqrt(np.array([[math.nan]]))).all()
    for value in (0.0, -0.0, -1e-300, -math.inf):
        with pytest.raises(SingularMetricError):
            beta_sqrt(np.array([[value]]))


def test_gain_of_a_scalar_innovation_equals_solve():
    triples = np.random.default_rng(7).choice(VALUES, size=(3000, 3))
    triples[:len(_EDGES), 0] = _EDGES  # every edge value as xi_delta ...
    triples[len(_EDGES):2 * len(_EDGES), 2] = _EDGES  # ... and as beta
    outcomes = Counter()
    for xi, jv, beta in triples:
        args = (np.array([[xi]]), np.array([[jv]]), np.array([[beta]]))
        outcome = _outcome(gain, *args)
        assert outcome == _outcome(_lapack_gain, *args), (xi, jv, beta)
        outcomes[outcome is IllConditionedGainError] += 1
    assert outcomes[True] > 10 and outcomes[False] > 2000  # both outcomes are covered


def test_gain_keeps_lapack_for_several_right_hand_sides(monkeypatch):
    # q = 1 with p = 2: LAPACK's solve multiplies by the inverted pivot
    # there, not divides, so that shape keeps the LAPACK call
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    gain(np.eye(2), np.array([[1.0, 2.0]]), np.array([[0.5]]))
    assert calls == [1]


def test_inverse_of_a_scalar_tau_equals_lapack():
    for value in VALUES:
        tau = np.array([[value]])
        outcome = _outcome(flow._checked_inverse, tau)
        if math.isfinite(value) and value != 0.0:
            assert outcome == _outcome(_lapack_inverse, tau), value
        else:
            # LAPACK raised LinAlgError on these, or passed inf and NaN on;
            # the branch raises what the array path raises on diag(value, value)
            assert outcome is IllConditionedFlowError, value
            assert _outcome(flow._checked_inverse, np.diag([value, value])) is outcome


# --- the float forms against their array callbacks ----------------------------

# where the cubic's powers pass the float range, so that Python's power
# raises: x^3 past 5.6e102 and x^2 past 1.3e154, and the observation map's
# den^2 and den^3 on the way there; in the transformed chart, z past
# 3.6e307, where phi_inv(z) passes 5.6e102
_POWER_OVERFLOWS = [6e102, -6e102, 1e155, -1e155, 2e154, -2e154, 1e200, -1e200, 1e308, -1e308]

_CHARTS = {
    "cubic1d": lambda: cubic1d_build(Cubic1DParams()),
    # den = p + x^2 of 1e-200 near x = 0, whose square and cube underflow
    # to 0: Python's division by them raises
    "cubic1d-tiny-p": lambda: cubic1d_build(Cubic1DParams(p_crit=1e-200)),
    "transformed": lambda: transformed_cubic_model(Cubic1DParams()),
}


@pytest.mark.parametrize("chart", sorted(_CHARTS))
def test_float_forms_equal_their_array_callbacks(chart):
    model, obs = _CHARTS[chart]()
    forms, obs_forms = model.float_forms, obs.float_forms
    # Python floats, as the float loops pass them: a numpy scalar's power
    # would not raise
    points = VALUES.tolist() + _POWER_OVERFLOWS
    random_chis = np.random.default_rng(11).choice(VALUES, size=len(points)).tolist()
    checked = Counter()
    for value, random_chi in zip(points, random_chis):
        x = np.array([value])
        for owner, array_owner, names in (
                (forms, model, ("xi", "dxi", "drift_b", "ddrift_b", "noise_matrix", "alpha")),
                (obs_forms, obs, ("psi", "dpsi", "d2psi", "beta"))):
            for name in names if owner is not None else ():
                form = getattr(owner, name)
                if form is not None:
                    assert _outcome(form, value) == _outcome(getattr(array_owner, name), x), (
                        name, value)
                    checked[name] += 1
        for name in ("d2xi_contract", "d2drift_b_contract"):
            form = getattr(forms, name)
            for chi in (0.37, random_chi) if form is not None else ():
                assert (_outcome(form, value, chi)
                        == _outcome(getattr(model, name), x, np.array([[chi]]))), (name, value, chi)
                checked[name] += 1
    # cubic1d gives every form, the transformed chart the xi forms
    expected = (("xi", "dxi", "d2xi_contract", "drift_b", "ddrift_b", "d2drift_b_contract",
                 "noise_matrix", "alpha", "psi", "dpsi", "d2psi", "beta")
                if chart != "transformed" else ("xi", "dxi", "d2xi_contract"))
    assert sorted(checked) == sorted(expected)


# --- the scalar flat cycle against the array cycle ------------------------------

_REGIMES = {"extreme": Cubic1DParams(), "mild": Cubic1DParams(p_crit=5.0, alpha=1e-4, beta=1e-4)}
# the exceptions a cycle may raise, on floats as on arrays
_CYCLE_ERRORS = (DivergenceError, IllConditionedFlowError, IllConditionedGainError,
                 IndefiniteCovarianceError)


def _cycle_outcome(step, *args):
    """The bytes of a cycle's (mu, sigma), or the class of its exception."""
    try:
        mu, sigma = step(*args)
    except _CYCLE_ERRORS as exc:
        return type(exc)
    assert mu.shape == (1,) and sigma.shape == (1, 1)
    return mu.tobytes() + sigma.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_substeps", [8, 16, 64, 256, 2048])
@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_the_scalar_cycle_equals_the_array_cycle_bit_for_bit(regime, n_substeps):
    # cubic1d's GIF and EKF cycles pass floats from stage to stage; the
    # same model and observation without their float forms take every
    # array stage and its 1x1 branches, and give the same bits, or raise
    # the same class, from |x0| up to 4.5 and sigma from 1e-6 to 1, with
    # the quadratic term and the collar each on and off
    model, obs = cubic1d_build(_REGIMES[regime])
    array_model, array_obs = (dataclasses.replace(m, float_forms=None) for m in (model, obs))
    assert scalar_cycle(model, obs) and not scalar_cycle(array_model, array_obs)
    rng = np.random.default_rng(n_substeps)
    n_cases = 6 if n_substeps == 2048 else 24
    x0s = np.concatenate([[4.5, -4.5, 0.0, -0.0], rng.uniform(-4.5, 4.5, n_cases - 4)])
    sigmas = np.concatenate([[1e-6, 1.0, 0.01, 1e-6], 10.0 ** rng.uniform(-6.0, 0.0, n_cases - 4)])
    ys = rng.uniform(-2.0, 2.0, n_cases)
    outcomes = Counter()
    for x0, sigma, y in zip(x0s, sigmas, ys):
        est, y_obs = (np.array([x0]), np.array([[sigma]])), np.array([y])
        for quadratic, collar in itertools.product((True, False), repeat=2):
            config = FilterConfig(delta=1.0, n_substeps=n_substeps, quadratic_enabled=quadratic,
                                  collar_enabled=collar)
            outcome = _cycle_outcome(filter_step, model, obs, est, y_obs, config)
            assert outcome == _cycle_outcome(filter_step, array_model, array_obs, est, y_obs,
                                             config), ("gif", x0, sigma, y, quadratic, collar)
            outcomes[isinstance(outcome, bytes)] += 1
        outcome = _cycle_outcome(ekf_step, model, obs, est, y_obs, 1.0, n_substeps)
        assert outcome == _cycle_outcome(ekf_step, array_model, array_obs, est, y_obs, 1.0,
                                         n_substeps), ("ekf", x0, sigma, y)
        outcomes[isinstance(outcome, bytes)] += 1
    assert outcomes[True] > n_cases
    if n_substeps == 8 and regime == "extreme":
        assert outcomes[False] > 0  # x0 = +-4.5 diverges on 8 substeps


# --- how many LAPACK calls one cycle makes ----------------------------------------

LAPACK_CALLS = ("svd", "inv", "eigvalsh", "eigh", "solve")


def _counting_lapack(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in LAPACK_CALLS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


# a two-dimensional state with one observation: the gain's 1x1 innovation
# takes no eigvalsh, only the solve of its two right-hand sides; svd and
# inv are the GIF's 2x2 flow calls, and eigh is repair_psd's
_LINEAR_ONE_OBSERVATION = {"a_mat": [[-0.5, 0.2], [0.0, -1.0]], "sigma_mat": [[0.3], [0.2]],
                           "j_mat": [[2.0, -0.7]], "b_mat": [[0.1]]}


@pytest.mark.parametrize("model, model_params, delta, expected", [
    ("cubic1d", {}, 1.0, {"gif": {}, "ekf": {}, "sim": {}}),
    ("linear", _LINEAR_ONE_OBSERVATION, 0.5,
     {"gif": {"svd": 1, "inv": 1, "solve": 1, "eigh": 1}, "ekf": {"solve": 1, "eigh": 1},
      "sim": {}}),
    # tracking keeps LAPACK for its 5x5 and 9x9 matrices: svd, inv, the
    # gain's eigvalsh and solve, and repair_psd's eigh; tracking dpsi and
    # d2psi take the spherical gradient in closed form, and
    # sample_observation roots the 5x5 beta
    ("tracking9d", {}, 0.1,
     {"gif": {"svd": 1, "inv": 1, "eigvalsh": 1, "solve": 1, "eigh": 1},
      "ekf": {"eigvalsh": 1, "solve": 1, "eigh": 1},
      "sim": {"eigh": 1}}),
], ids=["cubic1d", "linear-one-observation", "tracking9d"])
def test_lapack_calls_per_cycle(monkeypatch, model, model_params, delta, expected):
    scenario = build_scenario(ScenarioConfig(model=model, model_params=model_params,
                                             delta=delta, n_obs=1))
    record = simulate_sde(scenario, trajectory_rng(0, 0))
    obs = scenario.observation_at(float(record.times[0]))
    est, y = (scenario.mu0, scenario.sigma0), record.observations[0]
    calls = _counting_lapack(monkeypatch)
    cycles = {
        "gif": lambda: filter_step(scenario.diffusion, obs, est, y,
                                   scenario.config.filter_config()),
        "ekf": lambda: ekf_step(scenario.diffusion, obs, est, y, delta),
        "sim": lambda: simulate_sde(scenario, trajectory_rng(0, 0), n_obs=1),
    }
    for name, cycle in cycles.items():
        calls.clear()
        cycle()
        assert dict(calls) == expected[name], name
