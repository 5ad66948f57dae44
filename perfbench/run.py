#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig5-8n --seed 1 --seconds 20 --trace 0

The arguments are passed unchanged to perfbench/drust_bench.exe (see
perfbench/README.md).  The build goes through dune into the checkout's own
_build directory with dune's shared cache disabled, so nothing is read or
written outside the checkout.  A failed build exits with status 2 before
anything is measured; otherwise the benchmark's own exit status is returned.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/drust_bench.exe"


def dune() -> list:
    """dune from PATH, else through opam when the opam environment is not
    loaded into the calling shell."""
    if shutil.which("dune") or not shutil.which("opam"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ROOT, "--display", "quiet", TARGET],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        ).returncode
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        build = 2
    if build != 0:
        print("perfbench: build failed; nothing was measured", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "drust_bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
