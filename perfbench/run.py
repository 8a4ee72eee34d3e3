"""Build the workload benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to dune's _build/ in the
checkout, with dune's shared cache off so nothing is written outside it;
its output goes to stderr, so the last stdout line is the benchmark's
JSON result.  Exits non-zero without a result when the build fails (for
instance outside a full checkout).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    os.chdir(ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", TARGET],
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
