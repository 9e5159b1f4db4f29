#!/usr/bin/env python3
"""Build f0d and the perfbench program from this checkout, then run one workload.

Usage (from the checkout root):

    python3 perfbench/run.py --workload <ingest|query|count> \
        --seed <n> --seconds <s> --trace <0|1>

Everything the build and the run write goes under .bench_build/ in the
checkout: the Go build cache, the binaries, per-run fixture copies and the
span files of traced runs. The program's last stdout line is the JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    f0d = os.path.join(build, "bin", "f0d")
    bench = os.path.join(build, "bin", "perfbench")
    for cwd, out, pkg in ((root, f0d, "./cmd/f0d"), (here, bench, ".")):
        built = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env)
        if built.returncode != 0:
            print("perfbench: building %s failed" % pkg, file=sys.stderr)
            return 2
    # Go flags accept the --name value form the benchmark is called with.
    args = [bench, "-root", root, "-f0d", f0d] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
