#!/usr/bin/env python3
"""Run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (only what it links),
then runs it once. The last line of standard output is the result JSON.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Batch throughput uses at most two domains, never more than the host has.
DOMAINS = str(min(2, os.cpu_count() or 1))
TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project here; run from a checkout root",
              file=sys.stderr)
        return False
    # The shared dune cache lives outside the checkout; build without it.
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, CR_DOMAINS=DOMAINS)
    try:
        r = subprocess.run([EXE] + argv, env=env, stdout=subprocess.PIPE,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    out = r.stdout.decode()
    lines = out.rstrip("\n").split("\n")
    if r.returncode != 0 and not (r.returncode == 1 and lines
                                  and lines[-1].startswith("{")):
        sys.stderr.write(out)
        print("perfbench: run failed with code %d" % r.returncode,
              file=sys.stderr)
        return r.returncode or 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
