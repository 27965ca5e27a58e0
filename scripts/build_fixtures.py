#!/usr/bin/env python3
"""One-time fixture build: run every oracle, validate, freeze to JSON.

Each registered fixture computes a deterministic implementation value and
its independent oracle (closed form, reference integration, finite
differences, index loops, or Monte Carlo).  Each pair is checked at the
declared tolerance; only when every oracle reports ok is the set written
to tests/fixtures/derived.json, which the test suite then re-asserts
bitwise.  Otherwise the script exits 1 and leaves the file untouched.  Run
from the repository root:

    python3 scripts/build_fixtures.py
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from fixture_defs import FIXTURES, check_against_oracle, to_jsonable  # noqa: E402


def main() -> int:
    out = {}
    failures = []
    for fx in FIXTURES:
        start = time.time()
        value = fx.compute_value()
        oracle = fx.compute_oracle()
        try:
            check_against_oracle(value, oracle, fx.mode, fx.tolerance)
            status = "ok"
        except AssertionError as err:
            status = f"FAILED: {err}"
            failures.append(fx.name)
        out[fx.name] = {
            "value": to_jsonable(value),
            "oracle": to_jsonable(oracle),
            "mode": fx.mode,
            "tolerance": fx.tolerance,
            "cheap_oracle": fx.cheap_oracle,
        }
        print(f"[{time.time() - start:7.2f}s] {fx.name}: {status}")
    target = ROOT / "tests" / "fixtures" / "derived.json"
    if failures:
        print(f"ORACLE FAILURES: {failures}; {target} left unchanged")
        return 1
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({len(out)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
