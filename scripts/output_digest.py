#!/usr/bin/env python3
"""One sha256 over the filters' outputs on perfbench's workload configs.

For each workload of ``perfbench/workloads.py`` and workload seeds 0-2, it
runs every config through ``run_benchmark`` and hashes, run by run, the
bytes of the truth, the observations, and per filter the estimates, the
covariances and the aborted flags.  It prints each config's GIF and EKF
abort counts and then the digest, so two checkouts whose outputs are bit
for bit the same print the same last line.  It times nothing and reads
nothing of perfbench but the workload definitions.  Run from anywhere; the
program is imported from this checkout's ``src/``:

    python3 scripts/output_digest.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gifilter.harness import run_benchmark  # noqa: E402

SEEDS = (0, 1, 2)


def load_workloads():
    """perfbench's workload definitions, loaded from their file alone."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def update_digest(digest, records, filters) -> None:
    """Feed the outputs of one config's runs to ``digest`` (a hashlib object)."""
    for rec in records:
        digest.update(rec.truth.tobytes())
        digest.update(rec.observations.tobytes())
        for name in filters:
            digest.update(rec.estimates[name].tobytes())
            digest.update(rec.covariances[name].tobytes())
            digest.update(rec.aborted[name].tobytes())


def abort_counts(records, filters) -> dict:
    """Aborted cycles per filter over one config's runs."""
    return {name: int(sum(rec.aborted[name].sum() for rec in records)) for name in filters}


def main() -> int:
    workloads = load_workloads()
    logging.getLogger("gifilter").setLevel(logging.ERROR)  # the counts are printed
    digest = hashlib.sha256()
    n_configs = 0
    for name in workloads.WORKLOAD_NAMES:
        for seed in SEEDS:
            for index, config in enumerate(workloads.build_workload(name, seed)):
                _, records = run_benchmark(config)
                update_digest(digest, records, config.filters)
                counts = " ".join(f"{f} {n}" for f, n in
                                  abort_counts(records, config.filters).items())
                print(f"{name} seed {seed} config {index}: aborted {counts}")
                n_configs += 1
    print(f"sha256 {digest.hexdigest()} ({n_configs} configs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
