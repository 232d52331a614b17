#!/usr/bin/env python3
"""Record the benchmark's medians in a ``BENCH_<n>.json`` file.

    python3 tools/bench_record.py --out BENCH_14.json --seeds 1 2 3 \\
        --checkout parent=/path/to/parent-checkout --checkout change=. \\
        --trace-seeds 1 2 3

Runs every workload that ``BENCHMARK.json`` lists through
``benchmark/run.py`` once per seed in each checkout, for the
``run_seconds`` that file fixes and with tracing off.  The checkouts take
turns, and which one goes first alternates from run to run, so that drift
in the machine's speed falls on all of them alike.  For each checkout
label and workload the file gets each metric's median over the seeds, with
its unit and the value of every seed, and whether every run was correct;
for each label also the commit, whether the tree had changes not committed
(both read before the first run), the seeds and the run length.  With
``--trace-seeds``, each checkout then runs every workload once per trace
seed with tracing on, taking turns in the same way, and the file gets the
per-layer metrics' medians under ``traced`` (the end-to-end metrics come
from the untraced runs only).  Each call writes the output file afresh.

Standard library only.  Each run is a fresh process started from the root
of its checkout, which is where ``benchmark/run.py`` imports hopfw from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One benchmark run; the JSON of its last output line, or a failed
    record when it printed none."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "error": f"exit {done.returncode}, no result line"}


def summarize(results: list[dict]) -> dict:
    """Medians over the seeds of one workload in one checkout."""
    units = {name: m["unit"] for r in results for name, m in r["metrics"].items()}
    metrics = {}
    for name, unit in units.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        metrics[name] = {"median": statistics.median(values), "unit": unit, "values": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--trace-seeds", type=int, nargs="*", default=[],
                    help="seeds of the traced runs that give the per-layer metrics")
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to run, under a label (default: change=this checkout)")
    args = ap.parse_args(argv)

    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            ap.error(f"--checkout wants a new LABEL=DIR, got {item!r}")
        checkouts[label] = Path(path).resolve()
        if not (checkouts[label] / "benchmark" / "run.py").is_file():
            ap.error(f"no benchmark/run.py under {checkouts[label]}")

    # what is measured is the tree as it stands before the first run
    states = {label: (git(path, "rev-parse", "HEAD"), bool(git(path, "status", "--porcelain")))
              for label, path in checkouts.items()}
    labels = list(checkouts)

    def alternate(seeds: list[int], trace: bool) -> dict[str, dict[str, list]]:
        results: dict[str, dict[str, list]] = {label: {} for label in checkouts}
        turn = 0
        for seed in seeds:
            for workload in (w["name"] for w in SPEC["workloads"]):
                order = labels if turn % 2 == 0 else labels[::-1]
                turn += 1
                for label in order:
                    r = run_once(checkouts[label], workload, seed, trace)
                    results[label].setdefault(workload, []).append(r)
                    run_s = r["metrics"].get("run_s", {}).get("value", float("nan"))
                    print(f"{label} {workload} seed {seed} trace {int(trace)}: "
                          f"correct {r['correct']}, run_s {run_s:.3f}",
                          file=sys.stderr, flush=True)
        return results

    results = alternate(args.seeds, False)
    traced = alternate(args.trace_seeds, True)

    record: dict[str, dict] = {"runs": {}}
    host = {"python": platform.python_version(), "cpus": os.cpu_count()}
    correct = True
    for label in checkouts:
        summaries = {w: summarize(rs) for w, rs in results[label].items()}
        correct = correct and all(s["correct"] for s in summaries.values())
        record["runs"][label] = {
            "commit": states[label][0],
            "uncommitted_changes": states[label][1],
            "seeds": args.seeds,
            "seconds": SPEC["run_seconds"],
            "host": host,
            "workloads": summaries,
        }
        if args.trace_seeds:
            layers = {w: summarize(rs) for w, rs in traced[label].items()}
            correct = correct and all(s["correct"] for s in layers.values())
            record["runs"][label]["traced"] = {"seeds": args.trace_seeds, "workloads": layers}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
