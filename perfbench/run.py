#!/usr/bin/env python3
"""Entry point of the serve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 15 --trace 0

It builds `fq` and the benchmark program with dune, then runs the program
(perfbench/main.ml), which starts `fq serve` on generated inputs, checks
every reply and prints one JSON result as its last stdout line.  Inputs,
logs and span dumps go to .perfbench_run/ in the current directory.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
NEEDED = ["dune-project", "bin/fq.ml", "lib", "perfbench/dune", "perfbench/main.ml"]


def main():
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not at the root of a source tree (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "-j", "2", "--root", ".", "bin/fq.exe", "perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    fq = os.path.join(ROOT, "_build", "default", "bin", "fq.exe")
    cmd = [exe, "--fq", fq, "--workdir", os.path.join(ROOT, ".perfbench_run")] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
