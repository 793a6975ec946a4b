#!/usr/bin/env python3
"""The nonmask benchmark: one command, three workloads, outputs checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-dense --seed 1 --seconds 20 --trace 0

It builds the CLI and the leg runner with dune, then measures for
--seconds seconds: rounds of engine legs (check-dense, check-sparse,
tolerance), each leg a fresh process. A traced run also probes the
layers its workload does not load: the serve layers with a short
closed-loop load against a fresh `nonmask serve` daemon and, on the
check workloads, the tolerance layers with traced tolerance legs. Every
workload prints the same metrics. The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
(plus tracing overhead and host) under --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

NMBENCH = "_build/default/perfbench/nmbench.exe"
NONMASK = "_build/default/bin/nonmask_cli.exe"
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
SERVE_PROBE_S = 4
TOLERANCE_PROBE_LEGS = 5
LEG_TIMEOUT_S = 60
# The yardstick's (`nmbench calibrate`) median time on the reference host
# (2 cores, OCaml 5.1.1) in a quiet period. Reported times are scaled to
# this speed: the host's speed drifts by 20-30% within minutes, and the
# yardstick, run right before each leg, slows down with it (per-leg
# correlation 0.7-0.9). It links no repository code, so a change to the
# program still moves the scaled times in full.
YARDSTICK_REF_S = 0.066

WORKLOADS = ["check-dense", "check-sparse", "tolerance"]
ENGINES = ["eager", "lazy", "par1", "par2"]

ENGINE_LAYERS = [
    ("engine.create_ms", "ms"),
    ("engine.region_ms", "ms"),
    ("engine.bytes_per_state", "bytes"),
    ("convergence.analysis_ms", "ms"),
]

STORAGE_LAYERS = [
    ("lang.compile_ms", "ms"),
    ("guarded.compile_ms", "ms"),
    ("guarded.successors_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("flatset.probed_add_ns", "ns"),
    ("flatset.probed_find_ns", "ns"),
    ("flattbl.max_probe", "count"),
    ("shardmap.add_ns", "ns"),
    ("shardmap.find_ns", "ns"),
    ("flatqueue.push_pop_ns", "ns"),
    ("engine.frontier_peak_bytes", "bytes"),
    ("engine.states", "count"),
    ("engine.region_edges", "count"),
    ("flatset.direct_add_ns", "ns"),
    ("flatset.direct_find_ns", "ns"),
]

TOLERANCE_LAYERS = [
    ("faultspan.compute_ms", "ms"),
    ("faultspan.states", "count"),
    ("faultspan.layers", "count"),
    ("certify.closure_ms", "ms"),
    ("certify.convergence_ms", "ms"),
    ("certify.recurrence_ms", "ms"),
    ("certify.post_span_ms", "ms"),
    ("scc.compute_ms", "ms"),
    ("adversary.worst_case_ms", "ms"),
    ("adversary.waves", "count"),
    ("adversary.ranked", "count"),
    ("sweep.points", "count"),
    ("sweep.reused_ratio", "ratio"),
]

# lang.compile_ms is measured too, on the corpus; the analysis leg's
# figure is the one reported.
SERVE_LAYERS = [
    ("proto.parse_us", "us"),
    ("canon.digest_us", "us"),
    ("sha256.digest_us", "us"),
    ("job.prepare_ms", "ms"),
    ("job.run_ms", "ms"),
    ("cache.find_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("json.render_us", "us"),
    ("serve.queue_wait_ms", "ms"),
]


def end_to_end():
    """[(name, unit)] of the end-to-end metrics every workload prints."""
    return (
        [("setup_s", "s")]
        + [(e + "_s", "s") for e in ENGINES]
        + [(r + "_rss_mb", "MB") for r in ("eager", "lazy", "par")]
    )


def per_layer():
    """[(name, unit)] of the per-layer metrics every workload prints traced."""
    layers = list(STORAGE_LAYERS)
    for name, unit in ENGINE_LAYERS:
        layers += [("%s.%s" % (name, e), unit) for e in ENGINES]
    layers += TOLERANCE_LAYERS + SERVE_LAYERS
    layers += [("trace_overhead." + m, "%") for m, _ in end_to_end()]
    return layers + [("host.yardstick_ms", "ms"), ("host.nproc", "count")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_json(argv, timeout):
    """Run one leg process in its own session; return (json or None, error)."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timeout after %ds: %s" % (timeout, " ".join(argv))
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    if proc.returncode != 0 or doc is None or "error" in doc:
        detail = doc.get("error") if isinstance(doc, dict) else err.strip()[-500:]
        return None, "exit %d: %s" % (proc.returncode, detail)
    return doc, None


def metric(value, unit):
    return {"value": value, "unit": unit}


def yardstick():
    doc, error = run_json([NMBENCH, "calibrate"], LEG_TIMEOUT_S)
    if error is not None:
        raise RuntimeError("yardstick: " + error)
    return doc["calibrate_s"]


def leg(workload, engine, size, traced, pinned):
    """One engine leg, checked against its pins; return (doc, error)."""
    argv = [NMBENCH, "leg", "--workload", workload, "--engine", engine, "--size", size]
    if traced:
        argv.append("--trace")
    doc, error = run_json(argv, LEG_TIMEOUT_S)
    if error is None and doc["out"] != pinned["out"]:
        error = "%s: output %s differs from the pinned %s" % (
            engine, json.dumps(doc["out"]), json.dumps(pinned["out"]))
    if error is None and traced:
        for name in ("engine.states", "engine.region_edges"):
            if doc["layers"].get(name) != pinned.get(name):
                error = "%s: %s = %s, pinned %s" % (
                    engine, name, doc["layers"].get(name), pinned.get(name))
    return doc, error


def analysis(args, expected):
    pinned = expected[args.workload][args.size]
    if args.wrong_pin:
        pinned = wrong(pinned)
    attempted = failed = 0
    untraced = {e: [] for e in ENGINES}
    traced = {e: [] for e in ENGINES}
    setups = {False: [], True: []}
    yardsticks = []
    start = time.monotonic()
    rnd = 0
    # Whole rounds until the time is up; under --trace 1 rounds alternate
    # untraced and traced so both sides see the same machine.
    while rnd == 0 or time.monotonic() - start < args.seconds or (args.trace and rnd < 2):
        trace_round = bool(args.trace) and rnd % 2 == 1
        k = (args.seed + rnd) % len(ENGINES)
        order = ENGINES[k:] + ENGINES[:k]
        outs, setup_sum = {}, 0.0
        for engine in order:
            # each leg is timed against the yardstick run just before it
            y = yardstick()
            yardsticks.append(y)
            attempted += 1
            doc, error = leg(args.workload, engine, args.size, trace_round, pinned)
            if error is not None:
                failed += 1
                log("FAILED " + error)
                continue
            doc["scale"] = YARDSTICK_REF_S / y
            outs[engine] = doc
            setup_sum += doc["setup_s"] * doc["scale"]
            (traced if trace_round else untraced)[engine].append(doc)
        if len({json.dumps(d["out"], sort_keys=True) for d in outs.values()}) > 1:
            failed += 1
            log("FAILED engines disagree in round %d" % rnd)
        if len(outs) == len(ENGINES):
            setups[trace_round].append(setup_sum)
        rnd += 1

    def e2e(docs, setup_list):
        if not setup_list or not all(docs[e] for e in ENGINES):
            return {}
        med = lambda e, key: statistics.median(d[key] for d in docs[e])
        m = {"setup_s": statistics.median(setup_list)}
        for e in ENGINES:
            m[e + "_s"] = statistics.median(d["analysis_s"] * d["scale"] for d in docs[e])
        for e in ("eager", "lazy"):
            m[e + "_rss_mb"] = med(e, "rss_kb") / 1024
        m["par_rss_mb"] = med("par2", "rss_kb") / 1024
        return m

    base = e2e(untraced, setups[False])
    log("yardstick: median %.4fs over %d legs" % (statistics.median(yardsticks), len(yardsticks)))
    if not args.trace:
        return attempted, failed, base
    layers = {}
    for docs in traced.values():
        for d in docs:
            for name, v in d["layers"].items():
                layers.setdefault(name, []).append(v)
    out = {name: statistics.median(vs) for name, vs in layers.items()}
    with_trace = e2e(traced, setups[True])
    for name, v in base.items():
        if name in with_trace:
            # positive = tracing made the metric worse
            out["trace_overhead." + name] = (with_trace[name] / v - 1) * 100
    out["host.yardstick_ms"] = statistics.median(yardsticks) * 1e3
    probes = [serve_probe(args)]
    if args.workload != "tolerance":
        probes.append(tolerance_probe(args, expected))
    for probe_attempted, probe_failed, probe in probes:
        attempted += probe_attempted
        failed += probe_failed
        out.update((name, v) for name, v in probe.items() if name != "lang.compile_ms")
    return attempted, failed, out


def tolerance_probe(args, expected):
    """The tolerance layers, for a workload that does not load them:
    traced lazy legs of the tolerance workload."""
    pinned = expected["tolerance"][args.size]
    attempted = failed = 0
    layers = {}
    for _ in range(TOLERANCE_PROBE_LEGS):
        attempted += 1
        doc, error = leg("tolerance", "lazy", args.size, True, pinned)
        if error is not None:
            failed += 1
            log("FAILED tolerance probe: " + error)
            continue
        for name, _ in TOLERANCE_LAYERS:
            layers.setdefault(name, []).append(doc["layers"][name])
    return attempted, failed, {name: statistics.median(vs) for name, vs in layers.items()}


def wrong(pinned):
    """A deliberately wrong copy of a pinned output, for the self-tests."""
    bad = json.loads(json.dumps(pinned))
    out = bad["out"]
    if "explored" in out:
        out["explored"] += 1
    else:
        out["points"][-1]["span"] += 1
    return bad


def serve_probe(args):
    """The serve layers: a short closed-loop load on a fresh daemon."""
    argv = [NMBENCH, "serve", "--nonmask", NONMASK, "--seed", str(args.seed),
            "--seconds", str(SERVE_PROBE_S), "--size", args.size]
    if args.wrong_pin:
        argv.append("--wrong-pin")
    doc, error = run_json(argv, SERVE_PROBE_S + 120)
    if error is not None:
        log("FAILED serve probe: " + error)
        return 1, 1, {}
    for e in doc["errors"]:
        log("FAILED serve probe: " + e)
    log("serve probe: %d hits, %d misses" % (doc["hits"], doc["misses"]))
    return doc["attempted"], doc["failed"], doc["layers"]


def host():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                               text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        ocaml = None
    return {"nproc": os.cpu_count(), "ocaml": ocaml, "commit": commit}


def build():
    for need in ("dune-project", "lib", "bin", "examples/models"):
        if not os.path.exists(need):
            log("error: %s not found; run from the root of a nonmask checkout" % need)
            return False
    if shutil.which("dune") is None:
        log("error: dune not found")
        return False
    # Keep every write inside the checkout: no shared dune cache, and the
    # compiler's temporary files under _build.
    tmp = os.path.abspath(os.path.join("_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    t0 = time.monotonic()
    proc = subprocess.run(["dune", "build", "--root", ".", "./" + NMBENCH.split("/", 2)[2],
                           "./bin/nonmask_cli.exe"], stdout=sys.stderr, stderr=sys.stderr,
                          env=env)
    log("build: %.1fs" % (time.monotonic() - t0))
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: minute instances for the self-tests")
    ap.add_argument("--wrong-pin", action="store_true",
                    help="self-test: check against a deliberately wrong pinned value")
    args = ap.parse_args()
    if not build():
        return 2
    with open(EXPECTED) as f:
        attempted, failed, values = analysis(args, json.load(f))
    declared = per_layer() if args.trace else end_to_end()
    if args.trace:
        h = host()
        print(json.dumps({"host": h}))
        values["host.nproc"] = h["nproc"]
    metrics = {name: metric(values[name], unit) for name, unit in declared if name in values}
    missing = [name for name, _ in declared if name not in values]
    if missing:
        log("missing metrics: " + ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
