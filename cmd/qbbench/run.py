#!/usr/bin/env python3
"""Build qbbench from source and run one workload.

Run from the root of a checkout:

    python3 cmd/qbbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. The Go build cache, the
binary and any span files live under .bench_build/ in the checkout, and
the build never touches the network. The last line of standard output is
the benchmark's JSON result; a failed build prints no result and exits
non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOWORK", "GOENV"):
        env.pop(key, None)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "qbbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("qbbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
