#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

The program is built with the Go toolchain on PATH into .bench_build/ at
the repository root, with the build cache, temporary files and the Go
tool's home kept there too, so nothing is written outside the checkout.
Every argument is passed to the program, whose last line of standard
output is the JSON result. Exits non-zero, without a result, when the
build fails (for instance when the repository sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    except OSError as e:
        print(f"perfbench: cannot run go: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
