#!/usr/bin/env python3
"""Build ibpower and the perfbench harness from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload BENCHMARK.json lists, one after another.

Builds go to $CARGO_TARGET_DIR (default .bench_build); each run's record
and spans go to .bench_build/perfbench/<workload>-s<seed>-t<trace>/. The
last line of standard output is the result JSON the harness prints.
"""

import hashlib
import json
import os
import subprocess
import sys


def build(args):
    """Run one cargo build, sending its output to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return out.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def source_digest():
    """Content digest of what the program is built from (the checkout is
    not always a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def fingerprint(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "commit": commit,
        "source": source_digest(),
        "seed": seed,
    }


def arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv and argv.index(flag) + 1 < len(argv) else None


def run_all(argv):
    """`--workload all`: run every workload BENCHMARK.json lists, one after
    another; exit non-zero if any fails or reports incorrect output."""
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        i = argv.index("--workload")
        one = argv[:i + 1] + [name] + argv[i + 2:]
        proc = subprocess.run([sys.executable, sys.argv[0]] + one, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def main():
    argv = sys.argv[1:]
    workload, seed, trace = arg(argv, "--workload"), arg(argv, "--seed"), arg(argv, "--trace")
    if None in (workload, seed, arg(argv, "--seconds"), trace):
        print("usage: run.py --workload W --seed N --seconds S --trace 0|1", file=sys.stderr)
        return 2
    if workload == "all":
        return run_all(argv)
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not (os.path.isfile("Cargo.toml") and build(["--bin", "ibpower"])):
        print("error: building ibpower failed", file=sys.stderr)
        return 1
    if not build(["--manifest-path", "perfbench/Cargo.toml"]):
        print("error: building the harness failed", file=sys.stderr)
        return 1
    out = os.path.join(target, "perfbench", f"{workload}-s{seed}-t{trace}")
    cmd = [os.path.join(target, "release", "perfbench")] + argv + [
        "--ibpower", os.path.join(target, "release", "ibpower"),
        "--out", out,
        "--fingerprint", json.dumps(fingerprint(int(seed)), sort_keys=True),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
