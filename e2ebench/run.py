#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload steady_n128 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark is built from source with
dune (the first build compiles the whole tree), then the executable replaces
this process, so its exit status and output are the benchmark's.  Outside a
urcgc checkout (no dune-project or library sources next to this directory)
it exits 2 without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "main.exe")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("e2ebench: %s is not a urcgc checkout\n" % ROOT)
        return 2
    # Through opam when dune is not on PATH.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--display", "quiet",
                "./e2ebench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("e2ebench: build failed\n")
        return 2
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
