#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root, e.g.

    python3 perfbench/run.py --workload sim-elect --seed 1 --seconds 10 --trace 0

Arguments are passed to the benchmark binary unchanged. The Go build
cache, temporary files and the binary live under .bench_build/ in the
repository root, so a run reads and writes nothing outside the checkout.
The last line of standard output is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: run from the root of a wcle source checkout", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")]:
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    # The benchmark module needs nothing but the repository (a replace
    # directive): no network, no workspace, no toolchain switch.
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", GOENV="off")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
