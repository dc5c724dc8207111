#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout.  The executable is built with
dune into .bench_build/ (release profile, shared dune cache off), then run
with the same arguments; its standard output passes through, so the last
line is the JSON result.  Build output goes to standard error.

Exit codes: the benchmark's own (0 all results correct, 1 some incorrect),
or 2 when the checkout, the toolchain or the build is missing or broken,
in which case no result is printed.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
# The benchmark links the library and checks results against the committed
# cycle reference, so it needs the whole checkout, not only its own files.
REQUIRED = ["dune-project", "lib", "BENCH_0.json", os.path.join("perfbench", "dune")]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no child outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(
            "perfbench: run from the root of a repository checkout; missing: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: neither dune nor opam is on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune + [
        "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
        "./perfbench/perfbench.exe",
    ]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)
    return 2 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
