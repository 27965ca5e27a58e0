"""The 1x1 float branches against the LAPACK calls they replace, the float
forms of the one-dimensional models against their array callbacks, and a
guard on how many LAPACK calls one filter or simulation cycle makes.

Each reference below is the array code the branch or form replaces, run on
the same 1x1 input: a branch must give its bytes, or raise the same
exception class, on every value of the table, which covers random values,
values near e^+-50, 1e+-300, subnormals, +-0.0, +-inf and NaN.
"""

import math
from collections import Counter

import numpy as np
import pytest

from gifilter import flow
from gifilter.ekf import ekf_step
from gifilter.errors import IllConditionedFlowError, IllConditionedGainError, SingularMetricError
from gifilter.filter import filter_step, gain
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

# where the cubic drift's powers pass the float range, so that Python's
# power raises: x^3 past 5.6e102 and x^2 past 1.3e154; in the transformed
# chart, z past 3.6e307, where phi_inv(z) passes 5.6e102
_POWER_OVERFLOWS = [6e102, -6e102, 2e154, -2e154, 1e308, -1e308]


@pytest.mark.parametrize("chart", ["cubic1d", "transformed"])
def test_float_forms_equal_their_array_callbacks(chart):
    params = Cubic1DParams()
    model = (cubic1d_build(params) if chart == "cubic1d" else transformed_cubic_model(params))[0]
    forms = model.float_forms
    # Python floats, as the float loops pass them: a numpy scalar's power
    # would not raise
    points = VALUES.tolist() + _POWER_OVERFLOWS
    random_chis = np.random.default_rng(11).choice(VALUES, size=len(points)).tolist()
    checked = Counter()
    for value, random_chi in zip(points, random_chis):
        x = np.array([value])
        for name in ("xi", "dxi", "drift_b", "ddrift_b", "noise_matrix"):
            form = getattr(forms, name)
            if form is not None:
                assert _outcome(form, value) == _outcome(getattr(model, name), x), (name, value)
                checked[name] += 1
        for name in ("d2xi_contract", "d2drift_b_contract"):
            form = getattr(forms, name)
            for chi in (0.37, random_chi) if form is not None else ():
                assert (_outcome(form, value, chi)
                        == _outcome(getattr(model, name), x, np.array([[chi]]))), (name, value, chi)
                checked[name] += 1
    # cubic1d gives every form, the transformed chart the xi forms
    expected = (("xi", "dxi", "d2xi_contract", "drift_b", "ddrift_b", "d2drift_b_contract",
                 "noise_matrix") if chart == "cubic1d" else ("xi", "dxi", "d2xi_contract"))
    assert sorted(checked) == sorted(expected)


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


@pytest.mark.parametrize("model, delta, expected", [
    ("cubic1d", 1.0, {"gif": {}, "ekf": {}, "sim": {}}),
    # tracking keeps LAPACK for its 5x5 and 9x9 matrices: svd, inv, the
    # gain's eigvalsh and solve, and repair_psd's eigh; tracking dpsi and
    # d2psi each invert a 3x3 spherical Jacobian, and sample_observation
    # roots the 5x5 beta
    ("tracking9d", 0.1, {"gif": {"svd": 1, "inv": 3, "eigvalsh": 1, "solve": 1, "eigh": 1},
                         "ekf": {"inv": 1, "eigvalsh": 1, "solve": 1, "eigh": 1},
                         "sim": {"eigh": 1}}),
], ids=["cubic1d", "tracking9d"])
def test_lapack_calls_per_cycle(monkeypatch, model, delta, expected):
    scenario = build_scenario(ScenarioConfig(model=model, delta=delta, n_obs=1))
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
