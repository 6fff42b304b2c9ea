#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (shared cache off, so nothing is
written outside the checkout) and replaces this process with
`main.exe run ARGS...`. The last line of standard output is the run's JSON
result. Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def main():
    build = dune_command() + [
        "build", "--root", ".", "--cache=disabled", "--display=quiet",
        "./perfbench/main.exe",
    ]
    # Build output goes to stderr; stdout is reserved for the result.
    status = subprocess.run(build, stdout=sys.stderr).returncode
    if status != 0 or not os.path.exists(EXE):
        sys.exit(f"perfbench: build failed (exit {status})")
    os.execv(EXE, [EXE, "run"] + sys.argv[1:])


if __name__ == "__main__":
    main()
