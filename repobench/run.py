#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 repobench/run.py --workload sentences|documents_live|train \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds bootleg_cli, bootleg_serve,
the libraries and the benchmark runner from source into .bench_build/
(Release only; a debug or sanitized build is refused), runs the runner's
unit tests, prints a provenance line, then runs the runner. Context lines start with "#"; the
last line of stdout is the JSON result. Exits non-zero on any failure.
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sentences", "documents_live", "train")
RUNNER_TIMEOUT_S = 170
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw",
             "avx512vl", "avx512_vnni", "avx_vnni", "amx_tile")


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.partition("=")
                if name.split(":")[0] == key:
                    return value.strip()
    except OSError:
        pass
    return ""


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode


def tail(path, lines=40):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    # A fresh tree is configured Release; an existing one is re-configured
    # as-is (picking up changed build files) and its build type checked.
    configure = ["cmake", "-S", HERE, "-B", BUILD]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure.append("-DCMAKE_BUILD_TYPE=Release")
    if run_logged(configure, log) != 0:
        fail("cmake configure failed:\n" + tail(log))
    build_type = cache_value("CMAKE_BUILD_TYPE")
    sanitize = cache_value("BOOTLEG_SANITIZE")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing to benchmark a '{build_type or '<unset>'}' build "
             f"in {BUILD} (need Release or RelWithDebInfo)")
    if sanitize not in ("", "OFF"):
        fail(f"refusing to benchmark a sanitized build (BOOTLEG_SANITIZE={sanitize})")
    jobs = str(len(os.sched_getaffinity(0)))
    if run_logged(["cmake", "--build", BUILD, "--target", "repobench_runner",
                   "repobench_test", "-j", jobs], log) != 0:
        fail("build failed:\n" + tail(log))
    if run_logged([os.path.join(BUILD, "repobench_test")], log) != 0:
        fail("benchmark unit tests failed:\n" + tail(log))
    return build_type, sanitize


def source_identity():
    """git sha and dirty bit when the checkout is a repository; otherwise a
    digest of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True).stdout.strip()
        return {"git_sha": sha or None, "dirty": bool(dirty)}
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "repobench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_sha": None, "dirty": None, "source_sha256": digest.hexdigest()}


def cpu_info():
    model, flags = platform.processor(), set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
    except OSError:
        pass
    return model, [f for f in ISA_FLAGS if f in flags]


def compiler():
    cxx = cache_value("CMAKE_CXX_COMPILER")
    if not cxx:
        return ""
    out = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.stdout else cxx


def library_flags():
    """Compile flags the library was actually built with."""
    path = os.path.join(BUILD, "bootleg", "src", "core", "CMakeFiles",
                        "bootleg_core.dir", "flags.make")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    return line.partition("=")[2].strip()
    except OSError:
        pass
    return ""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no bootleg source tree at {ROOT} (run from a source checkout)", 2)

    build_type, sanitize = build()
    model, isa = cpu_info()
    provenance = dict(source_identity())
    provenance.update({
        "cpu": model, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "isa": isa, "build_type": build_type,
        "sanitize": sanitize or None, "compiler": compiler(),
        "cxx_flags": library_flags(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    print("# provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    cmd = [os.path.join(BUILD, "repobench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin_dir", os.path.join(BUILD, "bootleg", "tools"),
           "--work_root", os.path.join(BUILD, "runs")]
    runner = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        out, _ = runner.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print(f"error: runner timed out after {RUNNER_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # The runner's servers die with it (PR_SET_PDEATHSIG); make sure the
        # whole group is gone before returning.
        if runner.poll() is None:
            os.killpg(runner.pid, signal.SIGKILL)
            runner.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return runner.returncode if runner.returncode is not None else 1


if __name__ == "__main__":
    sys.exit(main())
