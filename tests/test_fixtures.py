"""Bitwise re-assertion of the oracle-validated fixture set.

Every implementation value is recomputed and compared exactly against the
committed fixture file; cheap oracles are re-run inline, Monte Carlo
oracles are held to their frozen values and standard errors.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fixture_defs import FIXTURES, FixtureDef, check_against_oracle, to_jsonable

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "derived.json"
BUILD_SCRIPT = Path(__file__).parent.parent / "scripts" / "build_fixtures.py"


@pytest.fixture(scope="module")
def frozen():
    assert FIXTURE_PATH.exists(), (
        "fixture file missing; run scripts/build_fixtures.py once"
    )
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("fx", FIXTURES, ids=[f.name for f in FIXTURES])
def test_fixture(fx, frozen):
    entry = frozen[fx.name]
    value = fx.compute_value()
    assert to_jsonable(value) == entry["value"], (
        "implementation output drifted from the frozen fixture"
    )
    if fx.cheap_oracle:
        oracle = fx.compute_oracle()
    else:
        oracle = entry["oracle"]
        if fx.mode == "sigma":
            oracle = (oracle[0], oracle[1])
    check_against_oracle(value, oracle, fx.mode, fx.tolerance)


def test_registry_matches_frozen_file(frozen):
    assert sorted(frozen.keys()) == sorted(fx.name for fx in FIXTURES)


def test_build_script_writes_only_when_every_oracle_passes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILD_SCRIPT)
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    target = tmp_path / "tests" / "fixtures" / "derived.json"
    target.parent.mkdir(parents=True)
    target.write_text("frozen\n")
    passing = FixtureDef("passing", lambda: 1.0, lambda: 1.0, "abs", 0.0)
    failing = FixtureDef("failing", lambda: 1.0, lambda: 2.0, "abs", 0.0)
    monkeypatch.setattr(build, "ROOT", tmp_path)

    monkeypatch.setattr(build, "FIXTURES", [passing, failing])
    assert build.main() == 1
    assert target.read_text() == "frozen\n"

    monkeypatch.setattr(build, "FIXTURES", [passing])
    assert build.main() == 0
    assert json.loads(target.read_text())["passing"]["value"] == 1.0
