#!/usr/bin/env python3
"""Self-test of the benchmark harness (about half a minute).

    python3 benchmark/selftest.py

1. BENCHMARK.json: exact keys, name and unit syntax, bounds, and the same
   metric names, units and directions as run.py.
2. The layer metrics of a synthetic trace cover every per-layer metric.
3. One forms run with the frozen values, and one with a single expected
   presentation hash changed: the first reports no failed operation, the
   second reports exactly one and ``correct: false``, with every end-to-end
   metric present.
4. In a directory that holds only BENCHMARK.json and the benchmark files,
   the command exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def fail(msg: str) -> None:
    raise SystemExit(f"selftest: FAIL: {msg}")


def check_benchmark_json() -> dict:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        fail("workload names differ from run.py")
    seen = set()
    for group, keys, table in (("end_to_end", {"name", "unit", "better", "bound"}, bench.END_TO_END),
                               ("per_layer", {"name", "unit", "better"}, bench.PER_LAYER)):
        got = {}
        for m in spec[group]:
            if set(m) != keys:
                fail(f"{group} entry keys: {m}")
            if not NAME.match(m["name"]) or m["name"] in seen:
                fail(f"bad or repeated metric name {m['name']!r}")
            seen.add(m["name"])
            if not UNIT.match(m["unit"]):
                fail(f"bad unit {m['unit']!r} of {m['name']}")
            if m["better"] not in ("lower", "higher"):
                fail(f"bad direction of {m['name']}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']} out of range")
            got[m["name"]] = (m["unit"], m["better"])
        if got != table:
            fail(f"{group} in BENCHMARK.json differs from run.py")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    if setup["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    return spec


def check_layer_metrics() -> None:
    tr = bench.Tracer()
    for phase in ("setup", "pass"):
        tr.run = f"selftest:{phase}:0"
        with tr.span(f"bench.{phase}"):
            for name in bench.SPAN_COUNTS:
                with tr.span(name) as sp:
                    for key in bench.SPAN_COUNTS[name]:
                        sp[key] = 1
    got = set(bench.layer_metrics(tr)) | {"trace.overhead_s", "trace.overhead_share"}
    if got != set(bench.PER_LAYER):
        fail(f"layer metrics differ: {sorted(got ^ set(bench.PER_LAYER))}")


def check_oracle_catches_a_changed_hash() -> None:
    expected = bench.load_expected()
    good = bench.run("forms", seed=1, seconds=0, trace=False, expected=expected, min_passes=1)
    if good["result"]["failed"] != 0 or not good["result"]["correct"]:
        fail(f"clean run reported failures: {good['info']['notes']}")
    if set(good["result"]["metrics"]) != set(bench.END_TO_END):
        fail("end-to-end metrics missing from the result")
    for name, m in good["result"]["metrics"].items():
        if m["unit"] != bench.END_TO_END[name][0] or not m["value"] > 0:
            fail(f"metric {name} = {m}")
    broken = copy.deepcopy(expected)
    key = "hww-orthogonal-2-8"
    broken["presentations"][key] = "0" * 64
    bad = bench.run("forms", seed=1, seconds=0, trace=False, expected=broken, min_passes=1)
    res = bad["result"]
    if res["correct"] or res["failed"] != 1 or res["attempted"] != good["result"]["attempted"]:
        fail(f"changed hash of {key} not caught: {res['failed']} failed")


def check_bare_directory() -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload", "forms",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory run: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    check_benchmark_json()
    print("BENCHMARK.json: ok")
    check_layer_metrics()
    print("layer metrics: ok")
    check_oracle_catches_a_changed_hash()
    print("changed expected hash: caught")
    check_bare_directory()
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
