#!/usr/bin/env python3
"""Builds the tprmd benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload flash-v1 --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout.  The build goes to .bench_build/perfbench
(CMake, from perfbench/CMakeLists.txt against the libraries in src/); sockets
and span files go under .bench_build/ too.  The metric names and units come
from BENCHMARK.json: --trace 0 reports every end_to_end metric, --trace 1
every per_layer metric.  Standard output ends with a provenance line and then
the result line:

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"setup_s": {"value": 0.0213, "unit": "s"}, ...}}

The exit code is 0 only when a result line was printed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tprm_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def local_env():
    """The environment for child processes, with temporary files (the
    compiler's among them) kept inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for step in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(step, stdout=subprocess.PIPE, env=local_env(),
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def cache_entry(name):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over every file under src/ and perfbench/, for checkouts that
    carry no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    # Only a repository rooted at this checkout counts, not one around it.
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    dirty = None
    if sha is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_entry("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        done = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        version = done.stdout.splitlines()[0] if done.stdout else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version or compiler,
        "build_type": cache_entry("CMAKE_BUILD_TYPE"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(os.path.join(ROOT, ".bench_build", "run"), exist_ok=True)
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               "--socket-dir=.bench_build/run"]
    if args.trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
        command.append(f"--trace-out={traces}/{args.workload}-seed{args.seed}.csv")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              env=local_env(), text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"tprm_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("tprm_perfbench printed nothing")
    raw = json.loads(lines[-1])
    for error in raw["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    metrics = {}
    for metric in wanted:
        value = raw["metrics"].get(metric["name"])
        if value is None:
            fail(f"tprm_perfbench did not report {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "all_metrics": raw["metrics"]}))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
