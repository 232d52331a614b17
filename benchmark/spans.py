#!/usr/bin/env python3
"""Summarise a span file written by ``run.py --trace 1``.

    python3 benchmark/spans.py .benchwork/trace-certify-seed1.jsonl

Prints one row per (phase, span name, label): the number of runs (set-up
repetitions or traced passes) that made the call, calls per run, and the
median and minimum over runs of the time per run.  This is how single-call
timings, such as one completion or one ``polar``, are read off a traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    per_run: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(argv[0], "r", encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            phase = s["run"].split(":")[1]
            per_run[(phase, s["name"], s["label"])][s["run"]].append(s["end"] - s["start"])
    print(f"{'phase':<6} {'span':<28} {'label':<24} {'runs':>4} {'calls':>6} "
          f"{'median_s':>10} {'min_s':>10}")
    for (phase, name, label), runs in sorted(per_run.items()):
        totals = [sum(d) for d in runs.values()]
        calls = statistics.median(len(d) for d in runs.values())
        print(f"{phase:<6} {name:<28} {label:<24} {len(runs):>4} {calls:>6g} "
              f"{statistics.median(totals):>10.4f} {min(totals):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
