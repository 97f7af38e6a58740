#!/usr/bin/env python3
"""Build the bftsim benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed 1 --record   # re-record digests
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (and the bftsim libraries under src/) into .bench_build/; later
calls rebuild only what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Other options are passed on
to the benchmark binary (see perfbench/main.cpp).
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.json")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr.fileno(), check=False).returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the bftsim sources (src/) are not next to perfbench/; "
             "run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd)
    quiet(["cmake", "--build", BUILD, "--target", "perfbench",
           "-j", str(len(os.sched_getaffinity(0)))])


def git_commit():
    """The commit under test, or "none" outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            return got.stdout.strip()
    return "none"


def run_benchmark(args):
    cmd = [BINARY] + args + ["--expected", EXPECTED, "--commit", git_commit()]
    return subprocess.run(cmd, check=False).returncode


def selftest():
    """Runs every workload at a tiny size, traced and untraced, and checks
    that every metric BENCHMARK.json names appears with its unit, that
    traced and untraced outcome digests agree, and that no run failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            name = "%s trace=%s" % (w["name"], trace)
            before = len(failures)
            got = subprocess.run(
                [BINARY, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "tiny"],
                capture_output=True, text=True, check=False)
            lines = got.stdout.strip().splitlines()
            if got.returncode != 0 or not lines:
                failures.append("%s: exit %d %s" % (name, got.returncode, got.stderr))
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            for m in wanted:
                if m["name"] not in metrics:
                    failures.append("%s: metric %s missing" % (name, m["name"]))
                elif metrics[m["name"]]["unit"] != m["unit"]:
                    failures.append("%s: metric %s has unit %s, not %s" % (
                        name, m["name"], metrics[m["name"]]["unit"], m["unit"]))
            if result["failed"] != 0 or not result["correct"]:
                failures.append("%s: %d of %d runs failed" % (
                    name, result["failed"], result["attempted"]))
            if trace == "1":
                transparency = [l for l in lines if l.startswith("transparency:")]
                if not transparency or any(" != " in l for l in transparency) or any(
                        " of " in l and l.split()[1] != l.split()[3] for l in transparency):
                    failures.append("%s: traced and untraced digests differ: %s" % (
                        name, transparency))
            print("%-32s %s" % (name, "ok" if len(failures) == before else "FAILED"))
    for f in failures:
        print("FAILED: " + f)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        return selftest()
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
