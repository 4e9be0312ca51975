#!/usr/bin/env python3
"""Smoke check of the live-pipeline benchmark (ctest: bench_e2e_smoke).

    python3 livebench/smoke_test.py path/to/ppstap_bench path/to/ppstap-analyze

Runs guarded-paced with --smoke (1 rep of 200 CPIs) untraced and traced and
asserts that every metric BENCHMARK.json declares is emitted and finite,
that no CPI failed, that the seeded faults went through their recovery
paths, and that ppstap-analyze reaches a verdict on the Chrome trace with no
dropped spans. Makes no timing assertion.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
    if p.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s%s" % (" ".join(cmd), p.returncode,
                                              p.stdout, p.stderr))
    return p.stdout


def bench(binary, trace, chrome):
    out = run([binary, "--workload", "guarded-paced", "--seed", "1", "--smoke",
               "--trace", trace, "--chrome", chrome])
    return json.loads(out.strip().splitlines()[-1])


def check(result, declared, label):
    errors = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: correct=%s failed=%s attempted=%s" % (
            label, result["correct"], result["failed"], result["attempted"]))
    got = result["metrics"]
    for spec in declared:
        m = got.get(spec["name"])
        if m is None:
            errors.append("%s: metric %s missing" % (label, spec["name"]))
        elif not math.isfinite(m["value"]) or m["unit"] != spec["unit"]:
            errors.append("%s: metric %s = %r" % (label, spec["name"], m))
    extra = set(got) - {spec["name"] for spec in declared}
    if extra:
        errors.append("%s: undeclared metrics %s" % (label, sorted(extra)))
    return errors


def main(binary, analyzer):
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    with tempfile.TemporaryDirectory() as tmp:
        chrome = os.path.join(tmp, "smoke.trace.json")
        plain = bench(binary, "0", chrome)
        traced = bench(binary, "1", chrome)
        run([analyzer, chrome, "--assert-verdict", "--assert-no-drops"])
    errors = check(plain, spec["end_to_end"], "untraced")
    errors += check(traced, spec["per_layer"], "traced")
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    for name in ("fault.flips", "integrity.checks_failed",
                 "comm.retransmits_per_kcpi"):
        if not layer.get(name, 0) > 0:
            errors.append("traced: %s should be > 0 on guarded-paced" % name)
    if layer.get("integrity.escalations") != 0:
        errors.append("traced: integrity.escalations should be 0")
    if errors:
        sys.exit("FAIL\n" + "\n".join(errors))
    print("ok: %d end-to-end and %d per-layer metrics" % (
        len(plain["metrics"]), len(traced["metrics"])))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
