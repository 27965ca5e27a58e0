"""Trajectory simulation, filter execution, and Monte Carlo benchmarking.

Scenario configuration, truth simulation, filter runs over recorded
observations, error statistics, and the two consistency studies (linear
Kalman equivalence and coordinate-invariance scaling) live here, together
with deterministic CSV/JSON output.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import __version__
from .ekf import ekf_step
from .errors import (
    DivergenceError,
    FilterNumericsError,
    IllConditionedFlowError,
    NonFiniteError,
)
from .filter import Estimate, FilterConfig, filter_step
from .flow import DiffusionModel, FloatForms
from .geometry import SYMMETRY_RTOL, ConnectorField, check_symmetric
from .models.cubic1d import Cubic1DParams, cubic1d_build
from .models.linear import LinearParams, linear_build
from .models.tracking import (
    SPEED_FLOOR,
    Tracking9DParams,
    tracking_diffusion,
    tracking_observation,
)
from .observation import ObservationModel, sample_observation

logger = logging.getLogger(__name__)

MODEL_PARAMS = {"cubic1d": Cubic1DParams, "tracking9d": Tracking9DParams,
                "linear": LinearParams}
KNOWN_MODELS = tuple(MODEL_PARAMS)
KNOWN_FILTERS = ("gif", "ekf")

HISTOGRAM_BINS = 50
TAIL_QUANTILE = 0.95  # errors above this pooled quantile count as tail events
DEFAULT_SIM_SUBSTEPS = 20
MAX_REFINEMENTS = 8

# What a config field of each declared type must hold, and how to say so.
FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "dict": (dict, "an object"),
    "tuple": (tuple, "a tuple"),
}


def _accepted_model_params(model: str) -> dict:
    """The model_params names ``model`` accepts -> whether each must be a
    number: the fields of its params class, a number where annotated float
    and an array of numbers otherwise."""
    return {f.name: f.type in (float, "float") for f in dataclasses.fields(MODEL_PARAMS[model])}


def _check_type(name: str, value, kind: type, expected: str) -> None:
    """ValueError naming ``name`` unless ``value`` is a ``kind`` (a bool is
    only ever a bool, not a number) and, if a number, finite."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if kind is numbers.Real and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_numbers(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an array of finite
    numbers (a string or a bool is not a number, as for a scalar field, nor
    is a ragged list an array)."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.dtype.kind not in ("i", "u", "f"):
        raise ValueError(f"{name} must be an array of numbers, got {value!r}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one benchmark or simulation scenario."""

    model: str = "cubic1d"
    model_params: dict = field(default_factory=dict)
    delta: float = 1.0
    n_obs: int = 100
    n_substeps: int = 8
    sim_substeps: int = DEFAULT_SIM_SUBSTEPS
    seed: int = 0
    filters: tuple = ("gif", "ekf")
    collar_enabled: bool = True
    quadratic_enabled: bool = True
    mu0: Optional[list] = None
    sigma0: Optional[list] = None
    x0: Optional[list] = None
    n_runs: int = 1
    max_refinements: int = MAX_REFINEMENTS

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type in FIELD_TYPES:
                _check_type(f.name, getattr(self, f.name), *FIELD_TYPES[f.type])
        if self.model not in KNOWN_MODELS:
            raise ValueError(f"unknown model '{self.model}' (expected one of {KNOWN_MODELS})")
        accepted = _accepted_model_params(self.model)
        for name, value in self.model_params.items():
            if name not in accepted:
                raise ValueError(f"unknown {self.model} parameter '{name}' "
                                 f"(expected some of {tuple(accepted)})")
            if accepted[name]:
                _check_type(f"model parameter {name}", value, numbers.Real, "a number")
            else:
                _check_numbers(f"model parameter {name}", value)
        for name in ("mu0", "sigma0", "x0"):
            if getattr(self, name) is not None:
                _check_numbers(name, getattr(self, name))
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.n_substeps < 1:
            raise ValueError("n_substeps must be >= 1")
        if self.sim_substeps < 1:
            raise ValueError("sim_substeps must be >= 1")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        if self.n_runs < 1 or self.n_obs % self.n_runs != 0:
            raise ValueError("n_runs must divide n_obs")
        for f in self.filters:
            if f not in KNOWN_FILTERS:
                raise ValueError(f"unknown filter '{f}' (expected subset of {KNOWN_FILTERS})")
        if len(set(self.filters)) != len(self.filters):
            raise ValueError(f"filters must name each filter once, got {list(self.filters)}")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            delta=self.delta,
            n_substeps=self.n_substeps,
            collar_enabled=self.collar_enabled,
            quadratic_enabled=self.quadratic_enabled,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["filters"] = list(self.filters)
        return out

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]


REQUIRED_CONFIG_FIELDS = ("model", "n_obs")


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object, naming a missing or
    mistyped field or a ``filters`` list naming no filter (simulation passes none)."""
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, got {raw!r}")
    for name in REQUIRED_CONFIG_FIELDS:
        if name not in raw:
            raise ValueError(f"missing config field: {name}")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    clean = dict(raw)
    if "filters" in clean:
        filters = clean["filters"]
        if not isinstance(filters, list) or not all(isinstance(f, str) for f in filters):
            raise ValueError(f"filters must be a list of strings, got {filters!r}")
        if not filters:
            raise ValueError("filters must name at least one filter, got []")
        clean["filters"] = tuple(filters)
    return ScenarioConfig(**clean)


@dataclass
class Scenario:
    """Materialized models plus initial conditions for one scenario."""

    config: ScenarioConfig
    diffusion: DiffusionModel
    observation_at: Callable[[float], ObservationModel]
    x0: np.ndarray
    mu0: np.ndarray
    sigma0: np.ndarray


def build_scenario(config: ScenarioConfig) -> Scenario:
    params = config.model_params
    if config.model == "cubic1d":
        cp = Cubic1DParams(**params)
        diffusion, obs = cubic1d_build(cp)
        observation_at = lambda t: obs
        # stationary benchmark defaults: start truth and estimate at 0.3,
        # prior variance equal to the process noise rate
        x0 = np.array([0.3])
        sigma0 = np.array([[cp.alpha]])
    elif config.model == "linear":
        # checked here, not in ScenarioConfig: a caller that builds its own
        # linear model (kalman_check) leaves the parameters out
        missing = [f.name for f in dataclasses.fields(LinearParams) if f.name not in params]
        if missing:
            raise ValueError(f"missing linear parameter: {', '.join(missing)}")
        lp = LinearParams(**params)
        diffusion, obs = linear_build(lp)
        observation_at = lambda t: obs
        x0 = np.zeros(lp.state_dim)
        sigma0 = np.eye(lp.state_dim)
    else:  # tracking9d
        tp = Tracking9DParams(**params)
        diffusion = tracking_diffusion(tp)
        observation_at = lambda t: tracking_observation(tp, t)
        x0 = np.array([9000.0, 2000.0, 3000.0, -200.0, 80.0, 0.0, 0.0, 0.0, 20.0])
        sigma0 = np.diag([100.0, 100.0, 100.0, 25.0, 25.0, 25.0, 4.0, 4.0, 4.0])

    p = diffusion.dim
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
    mu0 = x0.copy() if config.mu0 is None else np.asarray(config.mu0, dtype=float)
    if config.sigma0 is not None:
        sigma0 = np.asarray(config.sigma0, dtype=float)
        if sigma0.ndim == 1:
            sigma0 = np.diag(sigma0)
    for name, value, shape in (("x0", x0, (p,)), ("mu0", mu0, (p,)), ("sigma0", sigma0, (p, p))):
        if value.shape != shape:
            raise ValueError(f"{name} of shape {value.shape} does not match state dimension "
                             f"{p}: expected {shape}")
    if config.model == "tracking9d":
        for name, value in (("x0", x0), ("mu0", mu0)):
            speed = math.sqrt(value[3:6] @ value[3:6])
            if speed < SPEED_FLOOR:
                raise ValueError(f"{name} has speed {speed:g}, below the tracking9d "
                                 f"speed floor {SPEED_FLOOR:g}")
    check_symmetric(sigma0, what="sigma0")
    smallest = float(np.linalg.eigvalsh(sigma0)[0])
    if smallest < -SYMMETRY_RTOL * float(np.abs(sigma0).max()):
        raise ValueError(f"sigma0 must be positive semi-definite, has eigenvalue {smallest:g}")
    return Scenario(config, diffusion, observation_at, x0, mu0, sigma0)


def trajectory_rng(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, run index): parallel-safe and
    identical regardless of execution order."""
    key = np.array([seed % 2 ** 64, run_index % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryRecord:
    """Per-cycle truth, observations, and (once filtered) per filter name the
    ``estimates`` (n_obs, p), ``covariances`` (n_obs, p, p), ``errors`` and
    ``aborted`` flags (n_obs,); rows past ``n_valid`` are NaN, and an aborted
    cycle repeats the estimate and covariance of the cycle before."""

    times: np.ndarray
    truth: np.ndarray
    observations: np.ndarray
    diverged_at: Optional[int] = None
    estimates: dict = field(default_factory=dict)
    covariances: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    aborted: dict = field(default_factory=dict)

    @property
    def n_obs(self) -> int:
        return self.times.size

    @property
    def n_valid(self) -> int:
        return self.n_obs if self.diverged_at is None else self.diverged_at


def simulate_sde(
    scenario: Scenario, rng: np.random.Generator, n_obs: Optional[int] = None
) -> TrajectoryRecord:
    """Euler-Maruyama truth simulation plus noisy observations at each cycle.

    Noise is loaded through the model's ``noise_matrix`` sigma(x), which
    simulation requires (ValueError without it); constrained models are
    re-projected after every substep.  A state that turns non-finite within
    a cycle marks that cycle's row and stops the simulation early; so does
    an overflow, without a warning.

    The substeps run through one of two helpers.  An unconstrained flat
    model whose float forms (:class:`gifilter.flow.FloatForms`) give
    ``noise_matrix``, with one noise input, steps on Python floats through
    the forms of xi, which is b on a flat connector, and of
    ``noise_matrix`` (:func:`_euler_floats`); any other on arrays
    (:func:`_euler_arrays`), tracking9d included.  Only the array
    loop checks and applies a constraint.  Both give the same truth and
    observations bit for bit.
    """
    config = scenario.config
    model = scenario.diffusion
    if model.noise_matrix is None:
        raise ValueError("simulation needs the model's noise_matrix")
    n = config.n_obs if n_obs is None else n_obs
    dt = config.delta / config.sim_substeps
    sqrt_dt = math.sqrt(dt)
    x = np.array(scenario.x0, dtype=float)
    ref = x.copy()
    times = config.delta * np.arange(1, n + 1)
    q = scenario.observation_at(float(times[0])).dim_obs
    truth = np.full((n, model.dim), np.nan)
    observations = np.full((n, q), np.nan)
    diverged_at = None

    noise_dim = model.noise_matrix(x).shape[1]
    forms = model.float_forms
    on_floats = (forms is not None and model.conn.flat and forms.noise_matrix is not None
                 and noise_dim == 1 and model.constrain is None)
    euler = _euler_floats if on_floats else _euler_arrays

    # overflow surfaces as the explicit divergence marker, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            # One draw per cycle: the same stream as one draw per substep.
            x = euler(model, x, ref, rng.standard_normal((config.sim_substeps, noise_dim)),
                      dt, sqrt_dt)
            if x is None:
                diverged_at = k
                break
            truth[k] = x
            obs_model = scenario.observation_at(float(times[k]))
            observations[k] = sample_observation(obs_model, truth[k], rng)
    return TrajectoryRecord(times=times, truth=truth, observations=observations,
                            diverged_at=diverged_at)


def _euler_arrays(model: DiffusionModel, x: np.ndarray, ref: np.ndarray,
                  normals: np.ndarray, dt: float, sqrt_dt: float) -> Optional[np.ndarray]:
    """The Euler substeps of one :func:`simulate_sde` cycle on arrays, for
    any shape: from state ``x`` with one row of ``normals`` per substep,
    the state at the cycle's end, or None when it is not finite.

    A non-finite coordinate stays non-finite through Euler steps, so one
    check per cycle finds a divergence; a constraint must never see one,
    so constrained models also check before each call.
    """
    for row in normals:
        shock = model.noise_matrix(x) @ row
        x = x + model.drift_b(x) * dt + shock * sqrt_dt
        if model.constrain is not None:
            if not np.isfinite(x).all():
                return None
            x = model.constrain(x, ref)
    return x if np.isfinite(x).all() else None


def _euler_floats(model: DiffusionModel, x: np.ndarray, ref: np.ndarray,
                  normals: np.ndarray, dt: float, sqrt_dt: float) -> Optional[np.ndarray]:
    """:func:`_euler_arrays` through the float forms of xi, which is b on
    a flat connector, and ``noise_matrix``, on Python floats, for an
    unconstrained flat model with one noise input; the state arrives and
    leaves as a (1,) array.

    The arithmetic is the array step's, operation by operation, with the
    1x1 product sigma @ n formed as 0.0 + sigma * n as matmul forms it, so
    every state equals the array loop's bit for bit.  Float products and
    sums overflow to inf without raising, as the arrays do under
    :func:`simulate_sde`'s errstate.
    """
    forms = model.float_forms
    drift_b, noise_matrix = forms.xi, forms.noise_matrix
    x = x.item()
    for n in normals.reshape(-1).tolist():
        shock = 0.0 + noise_matrix(x) * n
        x = x + drift_b(x) * dt + shock * sqrt_dt
    return np.array([x]) if math.isfinite(x) else None


def _step_with_refinement(step_fn, base_substeps: int, max_refinements: int):
    """Retry a filter step on stiff intervals with a progressively finer grid.

    The one-step flow schemes are explicit; when an update throws an estimate
    far from equilibrium the fixed default grid can leave the scheme outside
    its stability region even though the underlying flow contracts.  Doubling
    the subdivision restores stability deterministically.  Only flow
    stiffness is retried, a ``DivergenceError`` or ``IllConditionedFlowError``,
    up to ``max_refinements`` times; any other ``FilterNumericsError`` (an
    ill-conditioned gain, a non-finite update) does not depend on the grid
    and gives up at once.  Returns (result or None, refinements used).
    """
    for k in range(max_refinements + 1):
        try:
            return step_fn(base_substeps * (2 ** k)), k
        except (DivergenceError, IllConditionedFlowError):
            continue
        except FilterNumericsError:
            return None, k
    return None, max_refinements


def _checked(est: Estimate, dim: int) -> Estimate:
    """The estimate (mu, sigma) itself, once it is found to have shapes
    (dim,) and (dim, dim), finite entries and a sigma symmetric within
    ``SYMMETRY_RTOL``: ValueError when it is not, NonFiniteError (also a
    ValueError) for a non-finite entry.  A one-dimensional estimate is
    checked on its two entries, with ``math.isfinite``."""
    mu, sigma = est
    if np.shape(mu) != (dim,) or np.shape(sigma) != (dim, dim):
        raise ValueError(f"estimate of shapes {np.shape(mu)} and {np.shape(sigma)} does "
                         f"not match state dimension {dim}")
    if dim == 1:
        # a 1x1 sigma is symmetric
        if not math.isfinite(mu[0]):
            raise NonFiniteError("state estimate has non-finite coordinates")
        if not math.isfinite(sigma[0, 0]):
            raise NonFiniteError("non-finite entries in covariance")
        return est
    if not np.isfinite(mu).all():
        raise NonFiniteError("state estimate has non-finite coordinates")
    check_symmetric(sigma, what="covariance")
    return est


@np.errstate(over="ignore", invalid="ignore")
def run_filters(scenario: Scenario, record: TrajectoryRecord) -> TrajectoryRecord:
    """Run every enabled filter over the recorded observations.

    The package's one filter loop.  A step that fails is retried on finer
    grids only when the flow was stiff (see :func:`_step_with_refinement`);
    a step that fails for good is recorded as aborted and the filter keeps
    its previous estimate.  Estimates are (mu, sigma) arrays, each checked
    once by :func:`_checked`: the scenario's mu0 and sigma0 on entry, where
    a bad one raises ValueError, and each step's result inside its attempt,
    where a non-finite or indefinite one (see
    :func:`gifilter.filter.repair_psd`) aborts that cycle.  One WARNING per
    filter names the count of aborted cycles and the first one.  An overflow
    is silent, as in :func:`simulate_sde`: it ends as its cycle's abort, not
    a numpy warning.  Errors are chart-norm distances between estimate and
    truth.
    """
    config = scenario.config
    model = scenario.diffusion
    n = record.n_valid
    base_cfg = config.filter_config()

    for name in config.filters:
        est_rows = np.full((record.n_obs, model.dim), np.nan)
        cov_rows = np.full((record.n_obs, model.dim, model.dim), np.nan)
        err_rows = np.full(record.n_obs, np.nan)
        aborted = np.zeros(record.n_obs, dtype=bool)
        if name == "gif":
            # one config per grid size and track, not one per cycle
            config_for = functools.cache(
                lambda nsub: dataclasses.replace(base_cfg, n_substeps=nsub))

            def step(nsub, obs_model, st, y):
                return filter_step(model, obs_model, st, y, config_for(nsub))
        else:
            def step(nsub, obs_model, st, y):
                return ekf_step(model, obs_model, st, y, config.delta, nsub)
        state = _checked((np.array(scenario.mu0, dtype=float),
                          np.array(scenario.sigma0, dtype=float)), model.dim)
        for k in range(n):
            y = record.observations[k]
            obs_model = scenario.observation_at(float(record.times[k]))
            result, _ = _step_with_refinement(
                lambda nsub: _checked(step(nsub, obs_model, state, y), model.dim),
                config.n_substeps, config.max_refinements)
            if result is None:
                aborted[k] = True
            else:
                state = result
            mu, sigma = state
            est_rows[k] = mu
            cov_rows[k] = sigma
            miss = mu - record.truth[k]
            err_rows[k] = math.sqrt(miss @ miss)
        if aborted.any():
            logger.warning("%s: %d of %d cycles aborted, first at cycle %d",
                           name, int(aborted.sum()), n, int(np.argmax(aborted)))
        record.estimates[name] = est_rows
        record.covariances[name] = cov_rows
        record.errors[name] = err_rows
        record.aborted[name] = aborted
    return record


@dataclass
class BenchmarkSummary:
    """Aggregated per-filter error statistics for one benchmark run."""

    config: ScenarioConfig
    n_scored: int
    bin_edges: np.ndarray
    per_filter: dict  # name -> dict of statistics

    def to_dict(self) -> dict:
        return {
            "metadata": {
                "config": self.config.to_dict(),
                "config_hash": self.config.config_hash(),
                "seed": self.config.seed,
                "version": __version__,
            },
            "n_scored": self.n_scored,
            "bin_edges": [float(v) for v in self.bin_edges],
            "filters": {
                name: {
                    key: (int(val) if isinstance(val, (bool, np.integer, int)) else
                          [float(v) for v in val] if isinstance(val, np.ndarray) else
                          float(val))
                    for key, val in stats.items()
                }
                for name, stats in self.per_filter.items()
            },
        }


def summarize(config: ScenarioConfig, records: list[TrajectoryRecord]) -> BenchmarkSummary:
    """Pool errors across runs and compute the benchmark statistics."""
    pooled = {}
    aborted_counts = {}
    for name in config.filters:
        chunks = [rec.errors[name][: rec.n_valid] for rec in records]
        errs = np.concatenate(chunks) if chunks else np.zeros(0)
        pooled[name] = errs[np.isfinite(errs)]
        aborted_counts[name] = int(sum(rec.aborted[name][: rec.n_valid].sum()
                                       for rec in records))
    all_errs = (np.concatenate([pooled[n] for n in config.filters])
                if config.filters else np.zeros(0))
    n_scored = min((pooled[n].size for n in config.filters), default=0)
    max_err = float(all_errs.max()) if all_errs.size else 1.0
    edges = np.linspace(0.0, max_err if max_err > 0 else 1.0, HISTOGRAM_BINS + 1)
    tail_threshold = float(np.quantile(all_errs, TAIL_QUANTILE)) if all_errs.size else 0.0

    per_filter = {}
    for name in config.filters:
        errs = pooled[name]
        counts, _ = np.histogram(errs, bins=edges)
        per_filter[name] = {
            "mean_abs_error": float(errs.mean()) if errs.size else float("nan"),
            "median_abs_error": float(np.median(errs)) if errs.size else float("nan"),
            "max_abs_error": float(errs.max()) if errs.size else float("nan"),
            "tail_threshold": tail_threshold,
            "tail_frequency": float(np.mean(errs > tail_threshold)) if errs.size else 0.0,
            "histogram_counts": counts,
            "aborted_steps": aborted_counts[name],
        }
    return BenchmarkSummary(config=config, n_scored=int(n_scored),
                            bin_edges=edges, per_filter=per_filter)


def run_benchmark(
    config: ScenarioConfig, out_dir: Optional[Path] = None
) -> tuple[BenchmarkSummary, list[TrajectoryRecord]]:
    """Simulate, filter, aggregate, and (optionally) write output files.

    With n_runs == 1 this is one long stationary run; otherwise the n_obs
    cycles are split over independent runs with independent random streams,
    aggregated in run order.
    """
    scenario = build_scenario(config)
    per_run = config.n_obs // config.n_runs
    records = []
    for run_idx in range(config.n_runs):
        rng = trajectory_rng(config.seed, run_idx)
        record = simulate_sde(scenario, rng, n_obs=per_run)
        record = run_filters(scenario, record)
        records.append(record)
    summary = summarize(config, records)
    if out_dir is not None:
        write_outputs(summary, records, Path(out_dir))
    return summary, records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(records: list[TrajectoryRecord], filters: tuple, path: Path) -> None:
    p = records[0].truth.shape[1]
    q = records[0].observations.shape[1]
    cols = ["run", "time"]
    cols += [f"x_true_{i}" for i in range(p)]
    cols += [f"y_{i}" for i in range(q)]
    for name in filters:
        cols += [f"est_{name}_{i}" for i in range(p)]
        cols += [f"err_{name}", f"aborted_{name}"]
    cols += ["diverged"]
    lines = [",".join(cols)]
    for run_idx, rec in enumerate(records):
        for k in range(rec.n_obs):
            diverged = rec.diverged_at is not None and k >= rec.diverged_at
            row = [str(run_idx), _fmt(float(rec.times[k]))]
            row += [_fmt(v) for v in rec.truth[k]]
            row += [_fmt(v) for v in rec.observations[k]]
            for name in filters:
                row += [_fmt(v) for v in rec.estimates[name][k]]
                row += [_fmt(float(rec.errors[name][k])), str(int(rec.aborted[name][k]))]
            row.append(str(int(diverged)))
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_outputs(summary: BenchmarkSummary, records: list[TrajectoryRecord],
                  out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(records, summary.config.filters, out_dir / "trajectory.csv")
    (out_dir / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    edges = summary.bin_edges
    lines = ["bin_left,bin_right," + ",".join(f"count_{n}" for n in summary.config.filters)]
    for b in range(edges.size - 1):
        row = [_fmt(float(edges[b])), _fmt(float(edges[b + 1]))]
        for name in summary.config.filters:
            row.append(str(int(summary.per_filter[name]["histogram_counts"][b])))
        lines.append(",".join(row))
    (out_dir / "histogram.csv").write_text("\n".join(lines) + "\n")


# --- linear equivalence study ------------------------------------------------


def van_loan_discretization(a_mat: np.ndarray, q_mat: np.ndarray, dt: float):
    """Exact discrete transition and process noise of a linear SDE."""
    n = a_mat.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a_mat
    block[:n, n:] = q_mat
    block[n:, n:] = a_mat.T
    emat = scipy.linalg.expm(block * dt)
    fmat = emat[n:, n:].T
    qd = fmat @ emat[:n, n:]
    return fmat, 0.5 * (qd + qd.T)


def kalman_reference_run(params: LinearParams, mu0, p0, observations, delta: float):
    """Textbook discrete Kalman recursion with exact discretization."""
    fmat, qd = van_loan_discretization(params.a_mat,
                                       params.sigma_mat @ params.sigma_mat.T, delta)
    j = params.j_mat
    b = params.b_mat
    means = []
    covs = []
    x = np.array(mu0, dtype=float)
    p = np.array(p0, dtype=float)
    for y in observations:
        xp = fmat @ x
        pp = fmat @ p @ fmat.T + qd
        innov = j @ pp @ j.T + b
        k_gain = np.linalg.solve(innov, j @ pp).T
        x = xp + k_gain @ (y - j @ xp)
        p = (np.eye(x.size) - k_gain @ j) @ pp
        p = 0.5 * (p + p.T)
        means.append(x.copy())
        covs.append(p.copy())
    return np.array(means), np.array(covs)


# The Kalman study's state and observation dimensions, cycle length and grid
KALMAN_P_DIM, KALMAN_Q_DIM, KALMAN_DELTA, KALMAN_SUBSTEPS = 3, 2, 0.01, 96


def kalman_check(seed: int = 20240817, n_steps: int = 200) -> dict:
    """Max relative deviation of the intrinsic filter from the Kalman filter
    over ``n_steps`` cycles on a linear configuration drawn from ``seed``,
    run by :func:`run_filters` without grid refinement; it passes only with
    no ``aborted_cycles``."""
    p_dim, q_dim, delta = KALMAN_P_DIM, KALMAN_Q_DIM, KALMAN_DELTA
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((p_dim, p_dim)) * 0.6
    sigma_mat = rng.standard_normal((p_dim, p_dim)) * 0.4
    j_mat = rng.standard_normal((q_dim, p_dim))
    b_mat = rng.standard_normal((q_dim, q_dim))
    b_mat = b_mat @ b_mat.T + 0.3 * np.eye(q_dim)
    params = LinearParams(a_mat, sigma_mat, j_mat, b_mat)
    model, obs = linear_build(params)

    mu0 = rng.standard_normal(p_dim)
    p0 = 0.5 * np.eye(p_dim)
    observations = rng.standard_normal((n_steps, q_dim)) * 2.0
    ref_means, ref_covs = kalman_reference_run(params, mu0, p0, observations, delta)

    config = ScenarioConfig(model="linear", delta=delta, n_obs=n_steps,
                            n_substeps=KALMAN_SUBSTEPS, filters=("gif",), max_refinements=0)
    scenario = Scenario(config, model, lambda t: obs, mu0, mu0, p0)
    record = run_filters(scenario, TrajectoryRecord(
        times=delta * np.arange(1, n_steps + 1),
        truth=np.full((n_steps, p_dim), np.nan),
        observations=observations,
    ))

    def worst(est, ref):  # largest per-cycle max-abs deviation, relative to the reference
        axes = tuple(range(1, ref.ndim))
        scale = np.maximum(np.abs(ref).max(axis=axes), 1e-12)
        return float(np.max(np.abs(est - ref).max(axis=axes) / scale))

    worst_mean = worst(record.estimates["gif"], ref_means)
    worst_cov = worst(record.covariances["gif"], ref_covs)
    aborted = int(record.aborted["gif"].sum())
    return {
        "seed": seed,
        "n_steps": n_steps,
        "max_rel_mean_deviation": worst_mean,
        "max_rel_cov_deviation": worst_cov,
        "aborted_cycles": aborted,
        "tolerance": 1e-8,
        "passed": bool(aborted == 0 and worst_mean <= 1e-8 and worst_cov <= 1e-8),
    }


# --- coordinate invariance study ---------------------------------------------

CHART_COEFF = 0.2  # the distorted chart is phi(x) = x + CHART_COEFF x^3


# phi, its derivatives and its inverse each take a float or an array
def phi(x):
    return x + CHART_COEFF * x ** 3


def dphi(x):
    return 1.0 + 3.0 * CHART_COEFF * x ** 2


def d2phi(x):
    return 6.0 * CHART_COEFF * x


def d3phi(x):
    return 6.0 * CHART_COEFF


def phi_inv(z):
    """The one real root x of c x^3 + x - z = 0, c = CHART_COEFF > 0, in
    closed form (the hyperbolic form of Cardano's formula):
    x = 2 / sqrt(3 c) sinh(asinh(1.5 sqrt(3 c) z) / 3)."""
    root = math.sqrt(3.0 * CHART_COEFF)
    return 2.0 / root * np.sinh(np.arcsinh(1.5 * root * z) / 3.0)


def transformed_cubic_model(params: Cubic1DParams) -> tuple[DiffusionModel, ObservationModel]:
    """The cubic benchmark model pushed through phi(x) = x + CHART_COEFF x^3.

    Drift, noise, connector and observation map transform by the chain
    rule, the observation space is left untouched, and the drift and the
    observation map are cubic1d's own at x = phi_inv(z): the drift its
    float forms, so that its arithmetic is written there alone.  Each
    drift callback has one body for floats and arrays.  ``xi`` and ``dxi``
    take one point, converted with ``float`` after phi_inv, so that a form
    and its array give the same bits.  The contraction's coefficient also
    runs over whole paths, where numpy's array ``x ** 3`` is its vector
    power, not the libm pow of a float's ``**``; so it keeps its own
    ``np.power(x, 3)`` and ``x * x`` and takes from cubic1d only the -3x
    of ``d2xi_contract``.  Used to probe coordinate invariance of the filter.
    """
    base_model, base_obs = cubic1d_build(params)
    base = base_model.float_forms
    alpha0 = params.alpha

    def xi_form(z):
        x = float(phi_inv(z))
        return dphi(x) * base.xi(x)

    def dxi_form(z):
        x = float(phi_inv(z))
        return base.dxi(x) + d2phi(x) * base.xi(x) / dphi(x)

    def d2xi_coeff(x, cube):
        """The coefficient of chi at x = phi_inv(z), given cube = np.power(x, 3)."""
        fp, fpp = 1.0 + 3.0 * CHART_COEFF * (x * x), d2phi(x)
        xi0 = -0.5 * cube
        return (base.d2xi_contract(x, 1.0)
                + (d3phi(x) * xi0 + fpp * (-1.5 * (x * x))) / fp
                - fpp * fpp * xi0 / (fp * fp)) / fp

    def d2xi_contract_form(z, chi):
        x = float(phi_inv(z))
        return d2xi_coeff(x, float(np.power(x, 3))) * chi

    def xi(xt):
        return np.array([xi_form(xt[0])])

    def dxi(xt):
        return np.array([[dxi_form(xt[0])]])

    def d2xi_contract(xt, chi):
        x = phi_inv(xt)
        return d2xi_coeff(x, np.power(x, 3)) * chi[..., 0, :]

    def drift_b(xt):
        return xi(xt) + 0.5 * alpha0 * d2phi(phi_inv(xt))

    def alpha(xt):
        x = phi_inv(xt)
        return (dphi(x) ** 2 * alpha0)[..., None]

    def gamma(xt, u, v):
        x = phi_inv(xt[..., :1])
        return -d2phi(x) / dphi(x) ** 2 * (u[..., :1] * v[..., :1])

    def dgamma(xt, w, u, v):
        x = phi_inv(xt[..., :1])
        fp, fpp, fppp = dphi(x), d2phi(x), d3phi(x)
        dcoef = -fppp / fp ** 3 + 2.0 * fpp ** 2 / fp ** 4
        return dcoef * w[..., :1] * (u[..., :1] * v[..., :1])

    conn = ConnectorField(dim=1, gamma=gamma, dgamma=dgamma)

    diffusion = DiffusionModel(
        dim=1, xi=xi, dxi=dxi, d2xi_contract=d2xi_contract, alpha=alpha,
        conn=conn, drift_b=drift_b,
        float_forms=FloatForms(xi=xi_form, dxi=dxi_form, d2xi_contract=d2xi_contract_form),
    )

    def psi(xt):
        return base_obs.psi(phi_inv(xt))

    def dpsi(xt):
        x = phi_inv(xt)
        return base_obs.dpsi(x) / dphi(x)

    def d2psi(xt):
        x = phi_inv(xt)
        fp, fpp = dphi(x), d2phi(x)
        return base_obs.d2psi(x) / fp ** 2 - base_obs.dpsi(x) * fpp / fp ** 3

    # cubic1d's float forms are those of the untransformed map
    observation = dataclasses.replace(base_obs, psi=psi, dpsi=dpsi, d2psi=d2psi,
                                      float_forms=None)
    return diffusion, observation


def invariance_check(seed: int = 7, n_steps: int = 1000) -> dict:
    """Coordinate-invariance scaling study on the cubic model.

    Runs the filter in the original chart and in a cubically distorted chart
    on the same observations, and measures how the chart mismatch of the two
    estimates shrinks when the noise scale gamma is halved: alpha 0.01,
    beta 0.001 and delta 1, then alpha and beta (and so the prior variance,
    build_scenario's alpha) by 1/4 and delta by 1/2.  Fourth-order
    invariance predicts a factor near 16.  Its p_crit of 0.5 keeps the
    state away from the observation map's critical points, where the
    small-noise asymptotics the scaling law relies on would break down.

    Tracks of ``n_steps`` cycles from ``seed`` come from
    :func:`simulate_sde` and :func:`run_filters` (64 substeps, no grid
    refinement); the study passes only with no ``aborted_cycles``.
    """

    def track(alpha, beta, delta):
        """Mean |phi(estimate in base chart) - estimate in transformed chart|
        on one simulated track, and the aborted cycles of both charts."""
        model_params = {"p_crit": 0.5, "alpha": alpha, "beta": beta}
        base = build_scenario(ScenarioConfig(
            model="cubic1d", model_params=model_params, delta=delta, n_obs=n_steps,
            n_substeps=64, sim_substeps=50, seed=seed, filters=("gif",), max_refinements=0))
        record = run_filters(base, simulate_sde(base, trajectory_rng(seed, 0)))
        tr_model, tr_obs = transformed_cubic_model(Cubic1DParams(**model_params))
        x0 = float(base.mu0[0])
        mu0 = np.array([phi(x0)])
        transformed = Scenario(base.config, tr_model, lambda t: tr_obs, mu0, mu0,
                               dphi(x0) ** 2 * base.sigma0)
        tr_record = run_filters(transformed, TrajectoryRecord(
            record.times, phi(record.truth), record.observations))
        gap = phi(record.estimates["gif"][:, 0]) - tr_record.estimates["gif"][:, 0]
        aborted = int(record.aborted["gif"].sum() + tr_record.aborted["gif"].sum())
        return float(np.mean(np.abs(gap))), aborted

    mismatch_full, aborted_full = track(0.01, 0.001, 1.0)
    mismatch_half, aborted_half = track(0.01 / 4.0, 0.001 / 4.0, 1.0 / 2.0)
    ratio = mismatch_full / mismatch_half if mismatch_half > 0 else float("inf")
    aborted = aborted_full + aborted_half
    return {
        "seed": seed,
        "n_steps": n_steps,
        "mismatch_full_noise": mismatch_full,
        "mismatch_half_noise": mismatch_half,
        "ratio": ratio,
        "aborted_cycles": aborted,
        "expected_range": [8.0, 32.0],
        "passed": bool(aborted == 0 and 8.0 <= ratio <= 32.0),
    }
