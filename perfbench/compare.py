#!/usr/bin/env python3
"""Compare saved outputs of perfbench/run.py for one workload on two commits.

    python3 perfbench/compare.py --base BASE.txt [...] --new NEW.txt [...]

Each file holds the standard output of one run. The comparison is refused
(exit 2) unless every file was made with the same workload, trace flag, run
length, backend, BLAS thread pins, nproc, Python and numpy. For each metric
it prints both sides' medians and quartiles, the change of the median, and
how many runs on each side failed an operation.
"""

import argparse
import json
import statistics
import sys

MUST_MATCH = ("workload", "trace", "seconds", "backend", "blas_pins", "nproc", "python", "numpy")


def load(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no provenance and result lines")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    runs = {side: [load(p) for p in getattr(args, side)] for side in ("base", "new")}
    reference = runs["base"][0][0]
    for side, items in runs.items():
        for (prov, _), path in zip(items, getattr(args, side)):
            differ = [k for k in MUST_MATCH if prov.get(k) != reference.get(k)]
            if differ:
                print(f"refusing to compare: {path} differs in {', '.join(differ)}",
                      file=sys.stderr)
                return 2

    for side, items in runs.items():
        bad = sum(1 for _, res in items if not res["correct"] or res["failed"])
        print(f"{side}: {len(items)} runs, {bad} with a failed operation")
    names = list(runs["base"][0][1]["metrics"])
    print(f"{'metric':40s} {'base q1/median/q3':>32s} {'new q1/median/q3':>32s} {'change':>8s}")
    for name in names:
        cols = []
        for side in ("base", "new"):
            vals = [res["metrics"][name]["value"] for _, res in runs[side]
                    if name in res["metrics"]]
            cols.append(quartiles(vals))
        unit = runs["base"][0][1]["metrics"][name]["unit"]
        change = cols[1][1] / cols[0][1] - 1.0 if cols[0][1] else float("nan")
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{name + ' [' + unit + ']':40s} {fmt(cols[0]):>32s} {fmt(cols[1]):>32s} "
              f"{change:>+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
