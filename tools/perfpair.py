#!/usr/bin/env python3
"""Paired before/after runs of the benchmark.

Run from the root of a source checkout:

    python3 tools/perfpair.py --base <rev> --workload tolerance --pairs 10

It exports <rev> (`git archive`) and the working tree's tracked files,
uncommitted edits included, into two sibling directories of one
temporary directory, `base` and `head`, so the repository's own state is
untouched and both sides run from paths of the same shape: the timings
of the parallel legs follow the directory a tree runs from. It then runs
`perfbench/run.py` on each side, PAIRS times, alternating which side
goes first so drift in the host's speed hits both sides alike. Each side
builds from its own sources. Per end-to-end metric
declared in BENCHMARK.json it prints the median with [q1, q3] on each
side, the change of the medians, and in how many pairs the working tree
was better. It exits 1 if any run fails to print `correct: true` or
misses a declared metric.

    make perfpair BASE=<rev> W=<workload> PAIRS=<n>

is the same run through make; `--size tiny --seconds 1` makes a quick
self-check of the harness (CI runs it against HEAD itself).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """Write the tree of `rev` into `dest` (no .git, no build outputs)."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit("error: cannot export %s" % rev)


def export_worktree(dest):
    """Copy the working tree's tracked files, as they are on disk, into
    `dest`; a tracked file deleted on disk is left out."""
    listing = subprocess.run(["git", "-C", ROOT, "ls-files", "-z"],
                             capture_output=True, check=True).stdout
    for rel in listing.decode().split("\0"):
        src = os.path.join(ROOT, rel)
        if not rel or not os.path.lexists(src):
            continue
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if os.path.islink(src):
            os.symlink(os.readlink(src), dst)
        else:
            shutil.copy2(src, dst)


def bench(tree, args):
    """One perfbench run in `tree`; returns its final JSON object or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--seed", str(args.seed), "--trace", "0", "--size", args.size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(proc.stderr)
        return None


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    if args.pairs < 1:
        raise SystemExit("error: --pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [(m["name"], m["unit"], m["better"]) for m in json.load(f)["end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="perfpair-")
    trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
    runs = {"base": [], "head": []}
    ok = True
    try:
        for tree in trees.values():
            os.mkdir(tree)
        export(args.base, trees["base"])
        export_worktree(trees["head"])
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            pair = {}
            for side in order:
                doc = bench(trees[side], args)
                missing = [] if doc is None else \
                    [n for n, _, _ in declared if n not in doc.get("metrics", {})]
                correct = doc is not None and doc.get("correct") is True and not missing
                log("pair %d %s: correct: %s%s" % (
                    i + 1, side, "true" if correct else "false",
                    "" if not missing else " (missing %s)" % ", ".join(missing)))
                if correct:
                    pair[side] = {n: doc["metrics"][n]["value"] for n, _, _ in declared}
                else:
                    ok = False
            # a pair counts only when both of its runs passed
            if len(pair) == 2:
                for side in pair:
                    runs[side].append(pair[side])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    pairs = len(runs["base"])
    print("workload %s, base %s, %d pairs of %gs runs (%s size)" % (
        args.workload, args.base, pairs, args.seconds, args.size))
    print("%-14s %-36s %-36s %8s %6s" % ("metric", "base median [q1, q3]",
                                         "head median [q1, q3]", "change", "wins"))
    for name, unit, better in declared:
        if pairs == 0:
            break
        b = [r[name] for r in runs["base"]]
        h = [r[name] for r in runs["head"]]
        bq, hq = quartiles(b), quartiles(h)
        if better == "lower":
            wins = sum(1 for x, y in zip(b, h) if y < x)
        else:
            wins = sum(1 for x, y in zip(b, h) if y > x)
        change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        fmt = "%.4g [%.4g, %.4g] " + unit
        print("%-14s %-36s %-36s %+7.1f%% %3d/%d" % (
            name, fmt % (bq[1], bq[0], bq[2]), fmt % (hq[1], hq[0], hq[2]),
            change, wins, pairs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
