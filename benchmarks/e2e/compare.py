"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base A1.json [A2.json ...] \\
        --change B1.json [B2.json ...]

Each file is a ``run.py --out`` result.  Runs pair up in the order
given (the first base run with the first change run, ...), so give
them in the order they ran, alternating sides.  For every (workload,
metric) it prints each side's median and quartiles, the change in the
median, the fraction of pairs the change wins (ties count for
neither) and a verdict, using the metric's direction and bound from
BENCHMARK.json:

* ``REGRESSION`` -- the change's median is worse than the base's by
  more than the bound;
* ``unresolved`` -- otherwise, but either side's quartile spread (as a
  share of its median) exceeds the bound, and not every change run
  beats every base run;
* ``gain`` -- the change wins at least nine tenths of the pairs and
  the medians differ by more than the base's quartile spread;
* ``ok`` -- none of these; ``info`` for per-layer metrics, which have
  no bound.

It also fails when a run reported incorrect output, or when two runs
of one workload and seed disagree on the record digest.  Exit status 1
on any regression or failure, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(paths):
    """``[(path, result)]`` for every workload result in *paths*."""
    out = []
    for path in paths:
        with open(path) as fh:
            for result in json.load(fh)["results"]:
                out.append((path, result))
    return out


def verdict(base, change, sign, bound, wins):
    """The verdict for one (workload, metric); see the module doc.
    *sign* is 1 when lower is better, -1 when higher is; *wins* is the
    fraction of pairs the change wins."""
    if bound is None:
        return "info"
    q1b, medb, q3b = quartiles(base)
    q1c, medc, q3c = quartiles(change)
    if sign * (medc - medb) > bound * abs(medb):
        return "REGRESSION"
    spread = max((q3b - q1b) / abs(medb) if medb else 0.0,
                 (q3c - q1c) / abs(medc) if medc else 0.0)
    all_better = all(sign * c < sign * b for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if wins >= 0.9 and -sign * (medc - medb) > q3b - q1b:
        return "gain"
    return "ok"


def compare(base_runs, change_runs, spec):
    """``(rows, failures)``: one row per (workload, metric) present on
    both sides, and the list of correctness/digest failures."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    failures = []
    digests = defaultdict(set)
    values = {"base": defaultdict(list), "change": defaultdict(list)}
    for side, runs in (("base", base_runs), ("change", change_runs)):
        for path, r in runs:
            if not r["correct"]:
                failures.append("%s: %s reported incorrect output"
                                % (path, r["workload"]))
            if r.get("digest"):
                digests[(r["workload"], r["seed"])].add(r["digest"])
            for name, m in r["metrics"].items():
                values[side][(r["workload"], name)].append(m["value"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            failures.append("%s seed %s: %d different record digests"
                            % (workload, seed, len(seen)))
    rows = []
    for key in sorted(set(values["base"]) & set(values["change"])):
        base, change = values["base"][key], values["change"][key]
        m = metrics.get(key[1], {})
        sign = -1.0 if m.get("better") == "higher" else 1.0
        pairs = list(zip(base, change))
        wins = sum(sign * c < sign * b for b, c in pairs) / len(pairs)
        rows.append({"workload": key[0], "metric": key[1],
                     "base": quartiles(base), "change": quartiles(change),
                     "wins": wins,
                     "verdict": verdict(base, change, sign,
                                        m.get("bound"), wins)})
    return rows, failures


def render(rows):
    lines = ["%-11s %-27s %-31s %-31s %8s %5s  %s"
             % ("workload", "metric", "base median [q1, q3]",
                "change median [q1, q3]", "delta", "wins", "verdict")]
    for r in rows:
        q1b, medb, q3b = r["base"]
        q1c, medc, q3c = r["change"]
        delta = (medc - medb) / abs(medb) if medb else 0.0
        lines.append("%-11s %-27s %-31s %-31s %+7.1f%% %5.2f  %s"
                     % (r["workload"], r["metric"],
                        "%.4g [%.4g, %.4g]" % (medb, q1b, q3b),
                        "%.4g [%.4g, %.4g]" % (medc, q1c, q3c),
                        100 * delta, r["wins"], r["verdict"]))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True,
                    help="run.py --out files of the base (parent)")
    ap.add_argument("--change", nargs="+", required=True,
                    help="run.py --out files of the change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, failures = compare(load(args.base), load(args.change), spec)
    print(render(rows))
    for failure in failures:
        print("FAIL: " + failure)
    regressions = [r for r in rows if r["verdict"] == "REGRESSION"]
    return 1 if regressions or failures else 0


if __name__ == "__main__":
    sys.exit(main())
