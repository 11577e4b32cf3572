#!/usr/bin/env python3
"""Build and run the dataplane benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

W is one of attack, fig3; T is 0 (end-to-end
metrics) or 1 (per-layer metrics from a traced run). The script builds
perfbench/bench.exe and the repository's libraries from source with
dune, then runs it. The last line of standard output is one JSON
object; build output goes to standard error. It exits non-zero,
without a result, when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    return None


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"run.py: {need} is missing; run from the repository root",
                  file=sys.stderr)
            return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
