#!/usr/bin/env python3
"""Build and run the repository benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the perfbench Go package (its own module, which
points at the checkout's module) into .bench_build/ and runs one workload in
a fresh process. The last line of standard output is the result: a JSON
object with the keys correct, attempted, failed and metrics. The second
form runs the package's tests, then every workload at a tiny size, checking
the emitted metric names and units against BENCHMARK.json.

Everything the build and the runs write stays under .bench_build/, including
the Go build cache.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175
SELFTEST_TIMEOUT_S = 900


def go_env():
    """The go command's environment, with every cache and temporary
    directory inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update({"GOENV": "off", "GOTOOLCHAIN": "local", "GOFLAGS": "-buildvcs=false",
                "CGO_ENABLED": "0", "GOPROXY": "off", "GOWORK": "off"})
    return env


def call(cmd, timeout, **kw):
    """Run cmd to completion. On timeout, kill its whole process group (the
    go command's compilers included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree of its
    own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.splitlines()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build(env):
    """Build the benchmark binary, replacing the old one atomically."""
    tmp = f"{BINARY}.{os.getpid()}"
    rc = call(["go", "build", "-o", tmp, "."], BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr)
    if rc == 0:
        os.replace(tmp, BINARY)
    elif os.path.exists(tmp):
        os.remove(tmp)
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at the checkout root: the benchmark needs the program's sources",
              file=sys.stderr)
        return 1
    env = go_env()
    rc = build(env)
    if rc != 0:
        print("run.py: build failed", file=sys.stderr)
        return rc or 1
    workdir = os.path.join(BUILD, "work")

    if args.selftest:
        rc = call(["go", "test", "-count=1", "."], SELFTEST_TIMEOUT_S, cwd=HERE, env=env,
                  stdout=sys.stderr)
        if rc != 0:
            return rc
        return call([BINARY, "-selftest", os.path.join(ROOT, "BENCHMARK.json"), "-workdir", workdir],
                    SELFTEST_TIMEOUT_S, cwd=ROOT)

    return call([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                 "-seconds", str(args.seconds), "-trace", str(args.trace), "-workdir", workdir,
                 "-commit", commit()],
                RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
