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


def test_digest_repeats(digest_script):
    solved = _solve()
    assert _digest(digest_script, solved) == _digest(digest_script, _solve())
    assert digest_script.abort_counts(solved[0][1], ("gif", "ekf")) == {"gif": 0, "ekf": 0}


@pytest.mark.parametrize("field, name", [
    ("truth", None), ("observations", None), ("estimates", "gif"), ("covariances", "ekf"),
    ("aborted", "gif"),
])
def test_one_flipped_bit_changes_the_digest(digest_script, field, name):
    solved = _solve()
    before = _digest(digest_script, solved)
    (record,) = solved[1][1]
    array = getattr(record, field)
    array = array if name is None else array[name]
    array.reshape(-1).view(np.uint8)[-1] ^= 1  # the last byte's lowest bit
    assert _digest(digest_script, solved) != before
