"""Tests for the output digest of scripts/output_digest.py."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gifilter.harness import ScenarioConfig, run_benchmark

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"

SMALL = (ScenarioConfig(model="cubic1d", n_obs=4, seed=3),
         ScenarioConfig(model="tracking9d", delta=0.1, n_obs=2, seed=3))


@pytest.fixture(scope="module")
def digest_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve():
    return [(config, run_benchmark(config)[1]) for config in SMALL]


def _digest(script, solved):
    digest = hashlib.sha256()
    for config, records in solved:
        script.update_digest(digest, records, config.filters)
    return digest.hexdigest()


def _runs(solved):
    """``solved`` as the (workload name, config, records) triples of
    ``digests``, each config its own workload."""
    return [(config.model, config, records) for config, records in solved]


def test_digest_repeats(digest_script):
    solved = _solve()
    assert _digest(digest_script, solved) == _digest(digest_script, _solve())
    # the total is the one digest over every workload's outputs, in order
    assert digest_script.digests(_runs(solved))[1] == _digest(digest_script, solved)
    assert digest_script.abort_counts(solved[0][1], ("gif", "ekf")) == {"gif": 0, "ekf": 0}


@pytest.mark.parametrize("field, name", [
    ("truth", None), ("observations", None), ("estimates", "gif"), ("covariances", "ekf"),
    ("aborted", "gif"),
])
def test_one_flipped_bit_changes_the_digest(digest_script, field, name):
    # ... and of the workloads' digests only that of its own workload
    solved = _solve()
    workloads_before, before = digest_script.digests(_runs(solved))
    (record,) = solved[1][1]
    array = getattr(record, field)
    array = array if name is None else array[name]
    array.reshape(-1).view(np.uint8)[-1] ^= 1  # the last byte's lowest bit
    workloads_after, after = digest_script.digests(_runs(solved))
    assert after != before
    assert workloads_after["cubic1d"] == workloads_before["cubic1d"]
    assert workloads_after["tracking9d"] != workloads_before["tracking9d"]
