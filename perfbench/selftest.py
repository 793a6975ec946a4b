#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes (about a minute in all).

    python3 perfbench/selftest.py

From the root of a checkout, for every workload:
  1. --trace 0 and --trace 1 print every metric BENCHMARK.json declares,
     each declared in BENCHMARK.json with the same unit, and the
     correctness gate passes with no failed operation;
  2. --wrong-pin (a deliberately wrong pinned value) is counted as failed
     operations and turns `correct` false, while the run still completes.
The serve probe counts a wrong pinned exit code as a failure too. Then a
directory holding only BENCHMARK.json and perfbench/ must make the
benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(*extra, cwd=None):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--size", "tiny",
         "--seconds", "1", "--seed", "7"] + list(extra),
        capture_output=True, text=True, timeout=600, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, doc


def main():
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    names = {w["name"] for w in declared["workloads"]}
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    expect(names == set(WORKLOADS), "BENCHMARK.json declares the workloads")
    for key, want in (("end_to_end", run.end_to_end()), ("per_layer", run.per_layer())):
        expect({m["name"]: m["unit"] for m in declared[key]} == dict(want),
               "BENCHMARK.json %s declares exactly the metrics run.py prints" % key)
    for w in WORKLOADS:
        for trace in (0, 1):
            proc, doc = bench("--workload", w, "--trace", str(trace))
            if proc.returncode != 0 or doc is None:
                expect(False, "%s trace %d runs (exit %d): %s" % (
                    w, trace, proc.returncode, proc.stderr[-400:]))
                continue
            want = run.per_layer() if trace else run.end_to_end()
            printed = doc["metrics"]
            expect(set(printed) == {n for n, _ in want},
                   "%s trace %d prints every metric (missing %s)" % (
                       w, trace, sorted({n for n, _ in want} - set(printed))))
            expect(all(units.get(n) == m["unit"] for n, m in printed.items()),
                   "%s trace %d metrics are declared with their units" % (w, trace))
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                   "%s trace %d passes the correctness gate (%d/%d failed)" % (
                       w, trace, doc["failed"], doc["attempted"]))
        proc, doc = bench("--workload", w, "--trace", "0", "--wrong-pin")
        expect(proc.returncode == 0 and doc is not None and not doc["correct"]
               and doc["failed"] >= 1,
               "%s counts a wrong pinned value as a failure" % w)

    probe = subprocess.run([run.NMBENCH, "serve", "--nonmask", run.NONMASK, "--seed", "7",
                            "--seconds", "1", "--size", "tiny", "--wrong-pin"],
                           capture_output=True, text=True, timeout=120)
    doc = json.loads(probe.stdout.strip().splitlines()[-1])
    expect(doc.get("failed", 0) >= 1, "the serve probe counts a wrong pinned exit code")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, doc = bench("--workload", "check-dense", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and doc is None,
               "a bare directory fails without a result (exit %d)" % proc.returncode)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
