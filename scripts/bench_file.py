#!/usr/bin/env python3
"""Write a BENCH file: perfbench's final JSON lines for two checkouts.

Runs ``perfbench/run.py`` of each checkout, from that checkout's root, and
keeps the last JSON line of every run; it measures nothing itself.  Given
``--pairs N`` it runs each workload's ``--trace 0`` N times per checkout,
alternating which checkout goes first, then one ``--trace 1`` run per
workload and checkout; every run is perfbench's own length.  With
``--tier1`` it also times the Tier-1 suite of each checkout and keeps its
``ACCEPTANCE`` lines, which give the times of criteria 1-3.  Every call
also runs ``scripts/output_digest.py`` once in each checkout and keeps its
digest lines, one per workload and one over all of them, with a
per-workload ``outputs_identical``, so a claim of bit-identical outputs is
in the file.  The file records the environment, each checkout's revision
(its HEAD and the git tree of its ``src/`` as checked out, uncommitted
changes to tracked files included), the lines of each checkout's
``src/**/*.py`` and their net change, every run, and per metric the median
of each side, their ratio (change / parent), the parent's interquartile
range, and how many of the index pairs (the parent's and the change's run
of one index) the change won in the direction ``BENCHMARK.json`` gives for
the metric.

    python3 scripts/bench_file.py --parent ../parent --change . --pairs 3 \\
        --out BENCH_9.json [--workloads cubic-long tracking] [--tier1]

Results are appended to ``<out>.partial.jsonl`` as they arrive, so an
interrupted run keeps what it measured; ``--resume`` reuses them, and runs
what is missing, if both checkouts are still at the revisions it recorded.
Two calls with ``--resume`` give workloads different numbers of pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cubic-long", "cubic-ensemble", "tracking")


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def revision(root: Path) -> dict:
    """HEAD of checkout ``root`` and the git tree of its ``src/``.

    ``git stash create`` snapshots the tracked files without touching the
    checkout; on a clean checkout it prints nothing and HEAD is the state.
    """
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return done.stdout.strip()

    head = git("rev-parse", "HEAD")
    state = git("stash", "create") or head
    return {"head": head or "unknown", "src_tree": git("rev-parse", f"{state}:src") or "unknown"}


def source_lines(parent: Path, change: Path) -> dict:
    """Lines of the ``src/**/*.py`` files of each checkout, as checked out,
    and ``net``, the change's count less the parent's."""
    count = {side: sum(len(path.read_text().splitlines())
                       for path in (root / "src").rglob("*.py"))
             for side, root in (("parent", parent), ("change", change))}
    return dict(count, net=count["change"] - count["parent"])


def run_perfbench(root: Path, workload: str, trace: int) -> dict:
    """The last JSON line of one perfbench run in checkout ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=_env(),
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_tier1(root: Path) -> dict:
    """Wall time of the Tier-1 suite, its ACCEPTANCE lines, and the times of
    criteria 1-3 as those lines report them."""
    env = _env()
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                 else "")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rP",
                           "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                          cwd=root, capture_output=True, text=True, env=env)
    out = {"wall_s": time.perf_counter() - start, "exit_code": done.returncode,
           "summary": done.stdout.strip().splitlines()[-1],
           "acceptance": [line for line in done.stdout.splitlines()
                          if line.startswith("ACCEPTANCE ")]}
    for number in (1, 2, 3):
        found = re.search(rf"^ACCEPTANCE {number}: .* ([\d.]+)s \(< [\d.]+s\)",
                          done.stdout, re.MULTILINE)
        out[f"criterion_{number}_s"] = float(found.group(1)) if found else None
    return out


DIGEST_LINE = re.compile(r"^\S+ [0-9a-f]{64}( \(\d+ configs\))?$")


def digest_lines(stdout: str) -> list[str]:
    """The digest lines of ``scripts/output_digest.py``'s output: one
    ``<workload> <sha256>`` per workload, then ``sha256 <sha256> (<n>
    configs)`` over all of them; its per-config abort counts are left out."""
    return [line for line in stdout.splitlines() if DIGEST_LINE.match(line)]


def run_digest(root: Path) -> list[str]:
    """The digest lines of ``scripts/output_digest.py`` run in checkout
    ``root``."""
    done = subprocess.run([sys.executable, "scripts/output_digest.py"], cwd=root,
                          capture_output=True, text=True, env=_env(), check=True)
    return digest_lines(done.stdout)


def compare_digests(parent: list[str], change: list[str]) -> dict:
    """Per workload named in either side's digest lines (and ``sha256``
    for the total): each side's digest, None where a side has none, and
    ``outputs_identical``, true only when both have one and they agree."""
    sides = [dict(line.split()[:2] for line in lines) for lines in (parent, change)]
    out = {}
    for name in dict.fromkeys([*sides[0], *sides[1]]):
        before, after = sides[0].get(name), sides[1].get(name)
        out[name] = {"parent": before, "change": after,
                     "outputs_identical": before is not None and before == after}
    return out


def metric_directions(benchmark: Path) -> dict:
    """Metric name -> "lower" or "higher", as ``benchmark``'s end_to_end
    entries give it (read only)."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def _pairs_won(parent: dict, change: dict, better: str):
    """Index pairs, and the number in which the change is strictly better;
    a tie counts for neither side."""
    pairs = [(parent[i], change[i]) for i in sorted(parent.keys() & change.keys())]
    sign = -1.0 if better == "lower" else 1.0
    return len(pairs), sum(1 for p, c in pairs if sign * (c - p) > 0.0)


def summarize(runs: list[dict], directions: dict) -> dict:
    """Per trace-0 workload and metric: each side's median and their ratio,
    the parent's interquartile range, and the pairs the change won, by
    ``directions`` (metric name -> "lower" or "higher")."""
    out = {}
    for workload in sorted({r["workload"] for r in runs if r["trace"] == 0}):
        rows = {}
        for side in ("parent", "change"):
            for r in runs:
                if r["trace"] == 0 and r["workload"] == workload and r["side"] == side:
                    for name, metric in r["result"]["metrics"].items():
                        rows.setdefault(name, {}).setdefault(side, {})[r["index"]] = (
                            metric["value"])
        out[workload] = {}
        for name, v in rows.items():
            if not (v.get("parent") and v.get("change")):
                continue
            parent, change = list(v["parent"].values()), list(v["change"].values())
            pairs, won = _pairs_won(v["parent"], v["change"], directions[name])
            out[workload][name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "ratio": statistics.median(change) / statistics.median(parent),
                "parent_iqr": _iqr(parent),
                "pairs": pairs,
                "pairs_won": won,
                "parent_runs": parent,
                "change_runs": change,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    revisions = {side: revision(root) for side, root in roots.items()}

    partial = args.out.with_name(args.out.name + ".partial.jsonl")
    done = []
    if args.resume and partial.exists():
        done = [json.loads(line) for line in partial.read_text().splitlines() if line]
    elif partial.exists():
        partial.unlink()
    recorded = [e["revisions"] for e in done if e["kind"] == "revisions"]
    if recorded and recorded[0] != revisions:
        sys.exit(f"{partial} was measured at {recorded[0]}, the checkouts are at {revisions}")

    def record(entry: dict) -> None:
        done.append(entry)
        with partial.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def have(kind: str, **keys) -> bool:
        return any(e["kind"] == kind and all(e.get(k) == v for k, v in keys.items())
                   for e in done)

    if not recorded:
        record({"kind": "revisions", "revisions": revisions})
    plan = [(w, 0, i) for w in args.workloads for i in range(args.pairs)]
    plan += [(w, 1, 0) for w in args.workloads]
    for workload, trace, index in plan:
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            if have("perfbench", side=side, workload=workload, trace=trace, index=index):
                continue
            result = run_perfbench(roots[side], workload, trace)
            record({"kind": "perfbench", "side": side, "workload": workload, "trace": trace,
                    "index": index, "result": result})
    for side in ("parent", "change"):
        if not have("digest", side=side):
            record({"kind": "digest", "side": side, "lines": run_digest(roots[side])})
    if args.tier1:
        for side in ("parent", "change"):
            if not have("tier1", side=side):
                record({"kind": "tier1", "side": side, "result": run_tier1(roots[side])})

    import numpy
    import scipy

    runs = [e for e in done if e["kind"] == "perfbench"]
    digests = {e["side"]: e["lines"] for e in done if e["kind"] == "digest"}
    directions = metric_directions(roots["change"] / "BENCHMARK.json")
    bench = {
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": "1",
        },
        "revisions": revisions,
        "source_lines": source_lines(roots["parent"], roots["change"]),
        "runs": runs,
        "tier1": {e["side"]: e["result"] for e in done if e["kind"] == "tier1"},
        "output_digest": dict(digests, comparison=compare_digests(digests["parent"],
                                                                  digests["change"])),
        "trace0_summary": summarize(runs, directions),
    }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(runs)} perfbench runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
