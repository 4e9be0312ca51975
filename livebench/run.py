#!/usr/bin/env python3
"""Build and run the live-pipeline benchmark.

    python3 livebench/run.py --workload W --seed S [--seconds N] [--trace 0|1]
                             [--smoke] [--json FILE] [--chrome FILE]

Run from the repository root. The first call configures and builds
livebench/ (the ppstap libraries plus ppstap_bench) into
$CARGO_TARGET_DIR/livebench, default .bench_build/livebench; later calls
rebuild incrementally. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. The exit code is the benchmark's.

    python3 livebench/run.py --baseline DIR [--seed S] [--seconds N]

runs every workload untraced and traced and writes DIR/BENCH_e2e.json and
DIR/BENCH_e2e_layers.json.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["wall-closed", "wall-paced", "fanout-paced", "guarded-paced"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "livebench"))


def build():
    """Configure and build (both incremental); returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "ppstap_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "ppstap_bench")


def with_chrome(args):
    """Traced runs write their Chrome trace into the build directory."""
    if "--chrome" in args or "--workload" not in args:
        return args
    workload = args[args.index("--workload") + 1]
    return args + ["--chrome", os.path.join(build_dir(), workload + ".trace.json")]


def baseline(binary, out_dir, seed, seconds):
    """Every workload untraced, then traced; one combined document each."""
    os.makedirs(out_dir, exist_ok=True)
    for trace, name in (("0", "BENCH_e2e.json"), ("1", "BENCH_e2e_layers.json")):
        combined = {"schema": "ppstap-e2e-suite-v1", "trace": trace == "1",
                    "workloads": {}}
        for w in WORKLOADS:
            with tempfile.NamedTemporaryFile(suffix=".json", dir=build_dir()) as tmp:
                rc = subprocess.run([binary] + with_chrome(
                    ["--workload", w, "--seed", seed, "--seconds", seconds,
                     "--trace", trace, "--json", tmp.name])).returncode
                doc = json.load(open(tmp.name))
            if rc != 0:
                sys.exit("run.py: %s (trace %s) failed" % (w, trace))
            combined["host"] = doc.pop("host")
            combined["workloads"][w] = doc
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump(combined, f, indent=2)
            f.write("\n")


def main(argv):
    binary = build()
    if "--baseline" in argv:
        def opt(flag, default):
            return argv[argv.index(flag) + 1] if flag in argv else default
        baseline(binary, opt("--baseline", None), opt("--seed", "1"),
                 opt("--seconds", "24"))
        return 0
    # Exec, so that the benchmark is this process and a signal sent to it
    # stops the benchmark itself.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + with_chrome(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
