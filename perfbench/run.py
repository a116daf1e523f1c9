#!/usr/bin/env python3
"""Build and run the optrec benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady_live --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into the build directory: $CARGO_TARGET_DIR when set, otherwise
.bench_build, taken relative to the current directory. Later calls rebuild
only what changed. The last line of standard output is the benchmark's result
JSON; build logs go to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_live", "crash_sim", "kv_service")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "optrec_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "optrec_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_bench(binary, args, extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    data = os.path.join(build_dir(), "data", "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(build_dir(), "spans")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data, "--out-dir", spans,
           "--commit", source_id()] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return code, out.splitlines()


def self_test(binary):
    """Tiny run of every workload in both modes, then a negative control."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=trace)
            code, lines = run_bench(binary, args, ["--tiny"])
            label = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(label + ": no result line")
                continue
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in metrics:
                    failures.append("%s: missing %s" % (label, name))
                elif metrics[name]["unit"] != unit:
                    failures.append("%s: %s has unit %s, not %s" % (
                        label, name, metrics[name]["unit"], unit))
                else:
                    print("%-24s %-32s %14.6g %s" % (
                        label, name, metrics[name]["value"], unit))
            if set(metrics) != set(expected[trace]):
                failures.append(label + ": undeclared metrics " +
                                ", ".join(sorted(set(metrics) - set(expected[trace]))))
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(label + ": run failed its correctness checks")
    # Negative control: one delivery more than the program makes must fail.
    args = argparse.Namespace(workload="steady_live", seed=1, seconds=1, trace=0)
    code, lines = run_bench(binary, args, ["--tiny", "--expect-delta", "1"])
    try:
        rejected = code != 0 and not json.loads(lines[-1])["correct"]
    except (IndexError, ValueError):
        rejected = False
    print("negative control (wrong expected delivery count): %s" %
          ("rejected" if rejected else "NOT rejected"))
    if not rejected:
        failures.append("negative control was not rejected")
    for f in failures:
        print("FAIL " + f)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, lines = run_bench(binary, args)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
