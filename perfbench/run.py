#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload ingest-aged --seed 1 --seconds 30 --trace 0

Every argument goes to the benchmark program. The Go build cache, the
binary and everything a run writes stay under .bench_build in the
checkout, so a run reads and writes nothing outside it.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # The benchmark replaces this process, so signals reach it directly and
    # no child outlives the run.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
