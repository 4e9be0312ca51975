#!/usr/bin/env python3
"""Compare two untraced suite documents against the BENCHMARK.json bounds.

    python3 livebench/compare.py OLD.json NEW.json

Both files come from `run.py --baseline DIR` (DIR/BENCH_e2e.json). Prints
every end-to-end metric per workload with its relative change, and marks a
metric REGRESSED when it is worse than OLD by more than its bound. It also
prints each side's host clock probe: when they differ, so do all times (see
README.md, "Confounds"). One run per side is only a screen: a claim needs
repeated alternating runs. Exit code 1 when anything regressed.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(old_path, new_path):
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    old = json.load(open(old_path))["workloads"]
    new = json.load(open(new_path))["workloads"]
    regressed = False
    print("%-14s %-18s %14s %14s %8s %6s" % ("workload", "metric", "old", "new",
                                          "change", "bound"))
    for w in old:
        if w not in new:
            print("%-14s missing from %s" % (w, new_path))
            regressed = True
            continue
        probes = [doc[w]["detail"].get("clock_probe_ns") for doc in (old, new)]
        print("%-14s %-18s %14.4g %14.4g" % (w, "clock_probe_ns", *probes))
        for m in spec["end_to_end"]:
            a = old[w]["metrics"][m["name"]]["value"]
            b = new[w]["metrics"][m["name"]]["value"]
            change = (b - a) / a if a else float("inf")
            worse = -change if m["better"] == "higher" else change
            verdict = "REGRESSED" if worse > m["bound"] else ""
            regressed |= bool(verdict)
            print("%-14s %-18s %14.6g %14.6g %+7.1f%% %5.0f%% %s" % (
                w, m["name"], a, b, 100 * change, 100 * m["bound"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
