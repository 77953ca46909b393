# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race vet bench-all bench-ab bench-module-test trace figures faults faults-smoke faults-mem-smoke triage-smoke claims serve chaos fuzz cluster-smoke cluster-chaos-smoke load clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# The full suite under the race detector (vets the workload build
# cache, the harness worker pool, and the reese-serve job queue, cache,
# and metrics registry).
test-race: vet
	$(GO) test -race ./...

# One benchmark per paper table/figure, run once each.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Throughput gate: reese-bench's figures and campaign workloads on
# BASE (a git ref, checked out with git worktree under .bench_build/)
# and on this tree, on one host: five seed-matched pairs, alternating
# which side runs first. Fails on a `worse` end-to-end metric, a
# changed output digest or a higher failed share (reese-bench -compare).
# figures stands in for BenchmarkSimThroughput, campaign for
# BenchmarkCampaignThroughput; the allocation budgets are tests.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<git ref>" >&2; exit 2; }
	@set -eu; ab="$$PWD/.bench_build/ab"; \
	if [ -d "$$ab/parent" ]; then git worktree remove --force "$$ab/parent"; fi; \
	rm -rf "$$ab"; mkdir -p "$$ab"; \
	git worktree add --detach "$$ab/parent" "$(BASE)"; \
	trap 'git worktree remove --force "$$ab/parent"' EXIT; \
	run() { for w in figures campaign; do \
		(cd "$$2" && bash cmd/reese-bench/bench.sh -workload $$w -seed $$3 -out "$$ab/$$1.jsonl"); \
	done; }; \
	for seed in 1 2 3 4 5; do \
		if [ $$((seed % 2)) = 1 ]; then run parent "$$ab/parent" $$seed; run change . $$seed; \
		else run change . $$seed; run parent "$$ab/parent" $$seed; fi; \
	done; \
	bash cmd/reese-bench/bench.sh -compare "$$ab/parent.jsonl" "$$ab/change.jsonl"

# Tests of the end-to-end benchmark command (its own module, so the
# root `go test ./...` does not build it): statistics, -compare verdicts,
# spec validation, and a smoke run of all five workloads at 1% scale.
bench-module-test:
	$(GO) -C cmd/reese-bench test .

# Observability demo: run a REESE simulation with the flight recorder
# armed, print the stall attribution report, and dump a Perfetto trace.
trace:
	$(GO) run ./cmd/reese-sim -workload gcc -insts 50000 -reese -why -trace-out trace.json
	@echo "load trace.json at https://ui.perfetto.dev"

# Regenerate every table and figure of the paper.
figures:
	$(GO) run ./cmd/reese-sweep -figure all

faults:
	$(GO) run ./cmd/reese-faults

# Fault-model gate: a small seeded campaign that fails unless every
# injection is classified, result-target faults are 100% detected, and
# no in-sphere fault hangs the machine (see DESIGN §13).
faults-smoke:
	$(GO) run ./cmd/reese-faults -smoke

# Memory-hierarchy gate: a 200-injection campaign over pipeline and
# memory structures on an ECC-L2 machine running the PRBS memory
# workload. Fails unless outcome counts sum to injections six ways, no
# single-bit L2 fault escapes as SDC (SECDED must absorb them), and
# symptom-based localization is >= 90% accurate (see DESIGN §16).
faults-mem-smoke:
	$(GO) run ./cmd/reese-faults -mem-smoke

# SDC triage gate: a seeded campaign over out-of-sphere structures with
# triage enabled. Fails unless every SDC/hang trial carries a Perfetto
# trace with the injection marker, the replay reproduced the original
# exactly, and every SDC's first divergent commit is at or after the
# victim instruction (see DESIGN §17).
triage-smoke:
	$(GO) run ./cmd/reese-faults -triage-smoke

# Run the HTTP simulation service (see README "Serving" and DESIGN §10).
serve:
	$(GO) run ./cmd/reese-serve

# The fault-injection suite for reese-serve (panics, stalls,
# disconnects, kill/restart cycles) plus the serving layer, under the
# race detector, twice, to shake out ordering-dependent bugs (see
# DESIGN §11). Kept separate from the slow harness grids so it stays
# fast enough to run on every change.
chaos:
	$(GO) test -race -count=2 ./internal/chaos/ ./internal/server/

# Cluster gate: an in-process coordinator + 2 worker replicas run a
# small gcc campaign, one worker is hard-killed mid-campaign, and the
# run must still complete with merged counts summing to the injection
# count — byte-identical to the single-process run (see DESIGN §15).
cluster-smoke:
	$(GO) test ./internal/cluster/ -run 'TestClusterKillWorkerSmoke' -count=1 -v

# Crash-safety gate: a 2-worker gcc campaign runs under the seeded
# chaos transport (drops, 503 bursts, truncated/bit-flipped bodies,
# a timed worker partition), the coordinator is killed mid-campaign,
# and a second coordinator resumes from the WAL. Gate: merged report
# and per-trial JSONL byte-identical to the fault-free single-process
# run, completed shards served from the WAL, zero lost or duplicated
# shards (see DESIGN §18).
cluster-chaos-smoke:
	$(GO) test ./internal/cluster/ -run 'TestClusterChaosResume' -count=1 -v

# Serving-layer load curves: drive an in-process 2-worker topology at
# stepped RPS and report p50/p99 latency and the saturation curve; the
# last line of output is the per-step results as JSON.
load:
	$(GO) run ./cmd/reese-load -self 2 -rps 2,5,10,20 -step 5s

# Short fuzz passes over the write-ahead-log replayers (torn tails,
# garbage, hostile records): the shared log core, the job journal, and
# the cluster campaign WAL, 30 s each.
fuzz:
	$(GO) test ./internal/wal/ -run '^FuzzReplay$$' -fuzz '^FuzzReplay$$' -fuzztime 30s
	$(GO) test ./internal/server/ -run FuzzReplayJournal -fuzz FuzzReplayJournal -fuzztime 30s
	$(GO) test ./internal/cluster/ -run FuzzReplayWAL -fuzz FuzzReplayWAL -fuzztime 30s

claims:
	$(GO) run ./cmd/reese-sweep -figure claims

clean:
	$(GO) clean ./...
