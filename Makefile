.PHONY: all build test check smoke serve-smoke fuzz bench e19-smoke e20-smoke e21-smoke e22-smoke e23-smoke perfpair clean

all: build

build:
	dune build

test:
	dune runtest --force

# Full gate: build, test suite, a CLI smoke run with both engines, and a
# short differential fuzz run.
check: build test smoke fuzz

smoke:
	dune exec bin/nonmask_cli.exe -- check diffusing --nodes 7 --engine eager
	dune exec bin/nonmask_cli.exe -- check diffusing --nodes 7 --engine lazy
	dune exec bin/nonmask_cli.exe -- check diffusing --nodes 7 --engine parallel --jobs 2
	dune exec bin/nonmask_cli.exe -- check dijkstra --nodes 12 -k 13 --engine lazy --ball 2
	dune exec bin/nonmask_cli.exe -- check dijkstra --nodes 12 -k 13 --engine parallel --jobs 2 --ball 2
	dune exec bin/nonmask_cli.exe -- certify token-ring --nodes 4 -k 5 --engine lazy
	dune exec bin/nonmask_cli.exe -- certify token-ring --nodes 4 -k 5 --faults corrupt:k=1 --engine parallel --jobs 2
	dune exec bin/nonmask_cli.exe -- storm token-ring --nodes 5 -k 6 --rate 0.1 --trials 200 --jobs 2
	dune exec bin/nonmask_cli.exe -- tolerance token-ring --nodes 4 -k 5 --budget-max 2 --adversary
	dune exec bin/nonmask_cli.exe -- check token-ring --nodes 4 -k 4 --engine parallel --jobs 2 --trace-out /tmp/nonmask-smoke-trace.jsonl --metrics-out /tmp/nonmask-smoke-metrics.json --progress
	dune exec bin/nonmask_cli.exe -- fuzz --seed 42 --count 50 --jobs 2
	sh -c 'dune exec bin/nonmask_cli.exe -- check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --budget-states 2000 --checkpoint-out /tmp/nonmask-smoke-ckpt.snap; [ $$? -eq 5 ]'
	dune exec bin/nonmask_cli.exe -- check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --resume /tmp/nonmask-smoke-ckpt.snap
	sh test/smoke_exit_codes.sh
	sh test/smoke_models.sh
	sh test/smoke_serve.sh

# Serve daemon smoke on its own: lifecycle over a Unix socket, cold
# check, cache hit on resubmission, in-protocol errors, SIGTERM drain.
serve-smoke: build
	sh test/smoke_serve.sh

# Differential fuzzing: random models through all three engine backends,
# fault spans, certificates, and storms, with counterexample shrinking.
# Override the knobs like: make fuzz FUZZ_SEED=7 FUZZ_COUNT=5000
FUZZ_SEED ?= 42
FUZZ_COUNT ?= 1000
FUZZ_JOBS ?= 2
fuzz:
	dune exec bin/nonmask_cli.exe -- fuzz --seed $(FUZZ_SEED) --count $(FUZZ_COUNT) --jobs $(FUZZ_JOBS)

bench:
	dune exec bench/main.exe

# Bounded large-state leg: the E19 flat-storage tier at 10^6 states
# (the full 10^8 tier is `dune exec bench/main.exe -- e19`).
e19-smoke:
	dune exec bench/main.exe -- e19-smoke --metrics-out bench-e19-metrics.json

# Bounded graceful-degradation leg: E20 checkpoint/resume fidelity and
# overhead at 10^6 states (the full 10^7 tier is
# `dune exec bench/main.exe -- e20`).
e20-smoke:
	dune exec bench/main.exe -- e20-smoke --metrics-out bench-e20-metrics.json

# Bounded model-language leg: E21 .nm compile throughput over 300
# generated models (the full 2000-model tier is
# `dune exec bench/main.exe -- e21`).
e21-smoke:
	dune exec bench/main.exe -- e21-smoke --metrics-out bench-e21-metrics.json

# Bounded serve-cache leg: E22 cold check vs cached resubmission at
# 65536 states (the full 10^6-state tier is
# `dune exec bench/main.exe -- e22`).
e22-smoke:
	dune exec bench/main.exe -- e22-smoke --metrics-out bench-e22-metrics.json

# Bounded quantified-tolerance leg: E23 frontier sweep with the
# adversarial bound vs storm observations on the 4-node token ring
# (the full 5-node tier is `dune exec bench/main.exe -- e23`).
e23-smoke:
	dune exec bench/main.exe -- e23-smoke --metrics-out bench-e23-metrics.json

# Paired benchmark runs: BASE (a git revision) against the working tree,
# PAIRS alternating perfbench/run.py runs of workload W, with per-metric
# medians, quartiles and win counts.
# Example: make perfpair BASE=HEAD~1 W=tolerance PAIRS=10
BASE ?= HEAD
W ?= tolerance
PAIRS ?= 10
perfpair:
	python3 tools/perfpair.py --base $(BASE) --workload $(W) --pairs $(PAIRS)

clean:
	dune clean
