#!/usr/bin/env python3
"""Build and run the pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (shared cache off, so nothing is
written outside the checkout), runs it, and passes its output through.
The last line of standard output is the benchmark's JSON result; its
"correct" field says whether every output check passed.  Exits non-zero,
printing no result, if the checkout has no sources to build, the build
fails, or the run crashes, times out or yields a broken result.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    args = sys.argv[1:]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in args:
            fail("missing " + flag)
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout: no " + needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 1)

    try:
        run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout if run.returncode == 0 else "")
        fail("benchmark exited with code %d" % run.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(0)


if __name__ == "__main__":
    main()
