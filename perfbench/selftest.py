#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes.  It checks that:

- a short run of every workload on a fixed seed prints every end-to-end
  metric named in BENCHMARK.json (and, traced, every per-layer metric)
  with its unit, and no request fails;
- a second seed draws different generated inputs and still passes;
- a deliberately perturbed reference cycle is reported as a failed
  request, with exit code 1, not silently accepted;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = 7
OTHER_SEED = 8
SECONDS = "1"


def bench(args, cwd="."):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args, cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def run(workload, seed, trace, *extra):
    return bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
        + list(extra)
    )


failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def inputs_of(lines):
    return [l for l in lines if l.startswith("input ")]


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in names:
            code, lines, res = run(w, SEED, trace)
            expect(code == 0 and res is not None, f"{w} trace {trace}: exit 0 with a result")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} trace {trace}: exactly the named metrics with their units")
            expect(
                res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{w} trace {trace}: fail_ratio 0 over {res['attempted']} requests",
            )
            values = [v["value"] for v in res["metrics"].values()]
            expect(all(math.isfinite(v) for v in values), f"{w} trace {trace}: finite values")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{w}: no end-to-end metric reads 0")
                expect(
                    any("fail_ratio" in l for l in lines), f"{w}: fail_ratio printed"
                )
                expect(
                    any(l.split()[:1] == ["req_ms_tail"] and " p" in l and "beyond" in l for l in lines),
                    f"{w}: tail printed with its percentile and sample count",
                )

    _, lines_a, _ = run("disk-roundtrip", SEED, 0)
    code, lines_b, res = run("disk-roundtrip", OTHER_SEED, 0)
    expect(
        inputs_of(lines_a) != inputs_of(lines_b) and len(inputs_of(lines_b)) > 0,
        f"seeds {SEED} and {OTHER_SEED} draw different generated inputs",
    )
    expect(code == 0 and res is not None and res["failed"] == 0, f"seed {OTHER_SEED} passes the check")

    code, lines, res = run("cold-launch", SEED, 0, "--perturb-reference")
    expect(
        code == 1 and res is not None and not res["correct"] and res["failed"] >= 1,
        "a perturbed reference cycle fails requests",
    )

    stripped = os.path.join(".bench_work", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    try:
        shutil.copy("BENCHMARK.json", stripped)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(stripped, path))
        code, lines, res = bench(
            ["--workload", names[0], "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
            cwd=stripped,
        )
        expect(code != 0 and res is None, "without the repository: non-zero exit, no result")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
