"""Print self time per layer and per function for each traced workload.

    python3 perfbench/report.py                     # every perfbench/results/*-trace1.json
    python3 perfbench/report.py FILE [FILE ...]

Reads the spans a traced run (``run.py --trace 1``) wrote and prints, for each
workload, the median over its traced passes of the self time of every layer
and of the busiest functions in each layer.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spans import LAYERS, summarize

TOP = 4  # functions listed under each layer


def load(paths) -> dict:
    """workload -> list of per-pass {span name: summary} tables."""
    per_workload = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        tables = summarize(doc["names"], doc["spans"], doc["passes"])
        per_workload.setdefault(doc["workload"], []).extend(tables)
    return per_workload


def self_times(tables) -> dict:
    """Median self seconds per pass, per span name and per layer."""
    names = {n for t in tables for n in t}
    out = {n: statistics.median(t.get(n, {}).get("self_s", 0.0) for t in tables)
           for n in names}
    for layer in LAYERS:
        out[layer] = statistics.median(
            sum(v["self_s"] for k, v in t.items() if k.startswith(layer + "."))
            for t in tables)
    return out


def main(argv=None) -> int:
    paths = argv if argv else sorted(
        (Path(__file__).resolve().parent / "results").glob("*-trace1.json"))
    if not paths:
        print("no traced results; run perfbench/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    data = {w: self_times(t) for w, t in sorted(load(paths).items())}
    workloads = list(data)
    print(f"{'self seconds per pass (median)':44s}" + "".join(f"{w:>12s}" for w in workloads))
    for layer in LAYERS:
        print(f"{layer:44s}" + "".join(f"{data[w][layer]:12.4f}" for w in workloads))
        funcs = {n for w in workloads for n in data[w] if n.startswith(layer + ".")}
        busiest = sorted(funcs, key=lambda n: -max(data[w].get(n, 0.0) for w in workloads))
        for name in busiest[:TOP]:
            print(f"  {name:42s}" + "".join(f"{data[w].get(name, 0.0):12.4f}"
                                           for w in workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
