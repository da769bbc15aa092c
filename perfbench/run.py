#!/usr/bin/env python3
"""Build and run memguard's benchmark.

Usage (from the root of a memguard checkout):

    python3 perfbench/run.py --workload timeline --seed 1 --seconds 20 --trace 0

The benchmark is an OCaml project of its own (perfbench/src).  It is built
in a private dune workspace under .bench_build/ that holds a copy of the
library sources (lib/) next to the benchmark sources, so the repository's
own build and test suite never see it.  The last line of standard output is
the JSON result; everything else is the human-readable report.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
EXE = os.path.join(WS, "_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose bytes changed so that
    dune's incremental build stays incremental."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for entry in os.scandir(src):
        wanted.add(entry.name)
        target = os.path.join(dst, entry.name)
        if entry.is_dir(follow_symlinks=False):
            sync_tree(entry.path, target)
        elif entry.is_file(follow_symlinks=False):
            with open(entry.path, "rb") as f:
                data = f.read()
            old = None
            if os.path.isfile(target):
                with open(target, "rb") as f:
                    old = f.read()
            if old != data:
                with open(target, "wb") as f:
                    f.write(data)
    for name in os.listdir(dst):
        if name not in wanted:
            path = os.path.join(dst, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a memguard checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    os.makedirs(WS, exist_ok=True)
    sync_tree(os.path.join(ROOT, "lib"), os.path.join(WS, "lib"))
    sync_tree(os.path.join(HERE, "src"), os.path.join(WS, "perfbench"))
    shutil.copyfile(os.path.join(ROOT, "dune-project"), os.path.join(WS, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", WS, "--profile", "release", "--display", "quiet",
         "@perfbench/default"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    return env


def main(argv):
    env = build()
    # the binary validates its own arguments and prints the JSON line last
    proc = subprocess.run([EXE] + argv, cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
