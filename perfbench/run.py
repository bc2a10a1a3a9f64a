#!/usr/bin/env python3
"""Builds the APNA benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver and the APNA libraries it links
are built with CMake (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs reuse the build. The full result of every run,
provenance included, is written to <build>/results/, and a traced run's raw
spans to <build>/traces/. The last line on stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Any build or run failure exits non-zero without a result line.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
WORKLOADS = ("fwd_zipf", "fwd_churn", "fwd_udp", "control_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    """Configures (once) and builds the driver; returns the binary path."""
    bdir = os.path.join(out, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(out, "build.log")
    with open(logf, "a") as lf:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cfg, stdout=lf, stderr=lf).returncode != 0:
                log(f"configure failed; see {logf}")
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "--target", "apna_perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=lf, stderr=lf).returncode != 0:
            log(f"build failed; see {logf}")
            return None
    binary = os.path.join(bdir, "apna_perfbench")
    return binary if os.path.exists(binary) else None


def source_id():
    """The commit when the checkout is a git repository, otherwise a hash of
    the sources the driver builds from."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".spans")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver exited with {proc.returncode}")
        return 1
    full = json.loads(lines[-1])
    full["provenance"]["source"] = source_id()
    full["provenance"]["build_type"] = "Release"
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump(full, f, indent=1)

    metrics = full["per_layer"] if a.trace else full["end_to_end"]
    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
