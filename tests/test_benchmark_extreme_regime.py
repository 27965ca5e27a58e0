"""Smoke test of scripts/benchmark_extreme_regime.py."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "benchmark_extreme_regime.py"


def test_a_short_run_prints_its_three_tables():
    done = subprocess.run([sys.executable, str(SCRIPT), "--cycles", "5", "--seeds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("== ")]
    assert headers == ["== extreme regime (p=0.1, alpha=0.01, beta=0.001)",
                       "== same regime, quadratic term dropped",
                       "== mild regime (p=5, alpha=beta=1e-4)"]
