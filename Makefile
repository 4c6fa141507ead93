GO ?= go

.PHONY: build test check fmt-check fuzz-smoke fault-matrix-smoke compositional-smoke reduction-smoke cluster-smoke dist-smoke live-smoke run-pgd bench bench-baseline bench-server bench-equiv bench-equiv-record bench-fsm bench-fsm-record bench-cluster bench-cluster-record bench-dist bench-dist-record bench-compositional bench-compositional-record bench-reduction bench-reduction-record

# guard-record refuses to overwrite a committed BENCH_*.json file: each one
# is the performance record of the PR that introduced its lane, captured on
# that PR's hardware, and silently re-recording it on a different machine
# would rewrite history. Pass FORCE=1 to re-record deliberately.
define guard-record
@if [ -f $(1) ] && [ "$(FORCE)" != "1" ]; then \
	echo "$(1) already exists — it is the committed per-PR performance record."; \
	echo "re-record deliberately with: make $(2) FORCE=1"; \
	exit 1; \
fi
endef

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the concurrency tier: vet plus the race detector over the
# packages that exercise goroutines (the runtime, the medium, the explorer's
# worker pool, the shared service monitors and their trace-log checker, and
# the daemon), plus a short fuzz smoke of the native fuzz targets. It also
# vets and tests the benchmark module, a module of its own that `./...` does
# not reach but that imports the compose, lts and equiv APIs. It starts with
# the formatting gate.
check: fmt-check
	$(GO) vet ./...
	$(GO) -C benchmark vet . && $(GO) -C benchmark test .
	$(GO) test -race ./internal/sim/ ./internal/medium/ ./internal/compose/ ./internal/lts/ ./internal/service/ ./internal/wire/conformance/ ./cmd/pgd/
	$(MAKE) fault-matrix-smoke
	$(MAKE) compositional-smoke
	$(MAKE) reduction-smoke
	$(MAKE) cluster-smoke
	$(MAKE) dist-smoke
	$(MAKE) live-smoke
	$(MAKE) fuzz-smoke

# fmt-check fails when any Go file is not gofmt-clean, listing the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi

# fault-matrix-smoke sweeps the whole corpus through the fault matrix once
# (reliable, loss, dup, reorder at caps 1 and 2) under the race detector,
# replaying every extracted counterexample through the concrete interpreter.
fault-matrix-smoke:
	$(GO) test -race -run '^(TestCorpusFaultMatrix|TestCorpusReliableColumnConformant)$$' -count=1 .

# compositional-smoke is the quotient-before-compose gate: the whole corpus
# verified monolithically and compositionally (serial and parallel, sharing
# one artifact cache) under the race detector with verdicts, witnesses and
# replays compared cell by cell, plus the content-addressed artifact-cache
# correctness tests (cross-spec sharing, no false sharing, LRU bound,
# concurrent access) and the entity-delta differ.
compositional-smoke:
	$(GO) test -race -run '^(TestCorpusCompositionalDifferential|TestArtifact|TestFleetSharesCachedMachines|TestDiffProtocols)' -count=1 .

# reduction-smoke is the reduction-soundness gate: the whole corpus verified
# unreduced and under every reduction set (POR, symmetry, spill, all) across
# reliable and faulty media with verdicts compared cell by cell and every
# reduced counterexample replayed; one explorer across worker counts and the
# spill index compared byte for byte within one reduction set, both on
# verdicts and on the pinned product-graph fingerprints;
# block-permutation invariance; and the tentpole acceptance run —
# multiinstance explored to completion under symmetry inside a budget its
# unreduced product overflows. All under the race detector.
reduction-smoke:
	$(GO) test -race -run '^(TestCorpusReductionDifferential|TestCorpusSerialParallelSpilledAgree|TestPermutationInvariance|TestReductionPermutationRandomized|TestMultiinstanceCompletesUnderSymmetry)$$' -count=1 .
	$(GO) test -race -count=1 -run '^TestProductGraphFingerprint$$' ./internal/compose

# cluster-smoke is the fleet-simulator gate: the cluster engine and its CLI
# under the race detector, then the small scenario run twice with
# byte-compared fingerprints (the determinism contract), plus one recorded
# session replayed through the ordinary simulator.
cluster-smoke:
	$(GO) test -race -short ./internal/cluster/ ./cmd/lotoscluster/
	@a=$$($(GO) run ./cmd/lotoscluster -fingerprint scenarios/smoke.json) || exit 1; \
	b=$$($(GO) run ./cmd/lotoscluster -fingerprint scenarios/smoke.json) || exit 1; \
	if [ "$$a" != "$$b" ]; then \
		echo "cluster-smoke: fingerprints diverged between runs"; exit 1; \
	fi; \
	echo "cluster-smoke: deterministic ($$(printf '%s\n' "$$a" | sed -n 2p))"
	$(GO) run ./cmd/lotoscluster -replay 3 scenarios/smoke.json > /dev/null

# dist-smoke is the fleet gate: the ring/coordinator/batch/SSE tests under
# the race detector, then the multi-process acceptance lane — a real pgd
# binary booted as `-coordinator -spawn 2`, the whole corpus fault matrix
# streamed through POST /v1/batch, every verdict compared byte-for-byte
# (timing telemetry zeroed) against a single-process daemon.
dist-smoke:
	$(GO) test -race -count=1 ./internal/dist/
	$(GO) test -race -count=1 -run '^(TestDistSmoke|TestCoordinatorEndToEnd|TestServeUntilDrainsInFlight|TestServeUntilGraceExceeded)$$' ./cmd/pgd/

# live-smoke is the deployment gate. The coordinator runs sim's lockstep
# core over the entity processes, so live equals lockstep by construction;
# the in-process corpus differential (every corpus spec deployed over
# loopback TCP, the seeded session byte-identical to the lockstep
# simulation with the same seed) is the regression check of that. With it:
# the wire codec, endpoint and coordinator tests, the trace-log conformance
# checker, the fault-injection proxy mirrored frame-for-frame against the
# in-process medium, the PR-4 transport fault matrix re-established on
# real sockets, the pgdeploy binary suite — entities as real OS processes,
# interpreter fallback live, crash/restart classified incomplete — and the
# lockstep golden, which pins the executions of the shared core (corpus
# sessions, witness replays, the smoke cluster fingerprint). All under the
# race detector.
live-smoke:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/wire/conformance/ ./internal/wire/wiretest/ ./cmd/pgdeploy/
	$(GO) test -race -count=1 -run '^TestLockstepGolden$$' .

# fuzz-smoke runs each native fuzz target briefly; long fuzzing sessions
# use `go test -fuzz` directly with a bigger -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/lotos
	$(GO) test -run '^$$' -fuzz '^FuzzDerive$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyFaults$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzExploreReduced$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 5s ./internal/fsm
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTraceLog$$' -fuzztime 5s ./internal/wire/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzMonitorAccepts$$' -fuzztime 5s ./internal/lts

# run-pgd starts the derivation daemon on :8080 (override with ARGS).
run-pgd:
	$(GO) run ./cmd/pgd $(ARGS)

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-baseline records a one-iteration sweep of every benchmark as JSON,
# the per-PR performance record (see BENCH_PR1.json).
#
# Note: there is intentionally no BENCH_PR4.json. PR 4 (fault-model
# composition with replayable counterexamples) was a correctness feature
# whose acceptance gate is fault-matrix-smoke — it introduced no benchmark
# lane, so no performance record was ever taken for it.
bench-baseline:
	$(call guard-record,BENCH_PR1.json,bench-baseline)
	$(GO) test -run '^$$' -bench . -benchtime 1x -json . | tee BENCH_PR1.json

# bench-server records the daemon's end-to-end numbers — cold vs cached
# derive throughput and concurrent-verify latency percentiles — as the
# PR 2 performance record.
bench-server:
	$(call guard-record,BENCH_PR2.json,bench-server)
	$(GO) test -run '^$$' -bench '^BenchmarkServer' -json ./internal/service | tee BENCH_PR2.json

# bench-equiv sweeps the corpus through both equivalence checkers — the
# integer/CSR engine and the retained map/string reference — for
# WeakBisim and Quotient. Also the CI smoke (benchtime=1x, must complete).
bench-equiv:
	$(GO) test -run '^$$' -bench '^(BenchmarkWeakBisim|BenchmarkQuotient)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .

# bench-equiv-record writes the PR 3 performance record.
bench-equiv-record:
	$(call guard-record,BENCH_PR3.json,bench-equiv-record)
	$(GO) test -run '^$$' -bench '^(BenchmarkWeakBisim|BenchmarkQuotient)$$' -benchtime 3x -benchmem -json . | tee BENCH_PR3.json

# bench-fsm sweeps the corpus through both execution engines — the AST
# interpreter and the compiled table-driven machines (steps/s, allocs/op) —
# plus the compiler itself and the daemon's compiled derive path. Also the
# CI smoke (benchtime=1x, must complete).
bench-fsm:
	$(GO) test -run '^$$' -bench '^(BenchmarkSimulate|BenchmarkCompile)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkServerDeriveCompile' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/service

# bench-fsm-record writes the PR 5 performance record (time-based benchtime
# so the steps/s and the ast-vs-fsm ratio are stable).
bench-fsm-record:
	$(call guard-record,BENCH_PR5.json,bench-fsm-record)
	($(GO) test -run '^$$' -bench '^(BenchmarkSimulate|BenchmarkCompile)$$' -benchtime 0.5s -benchmem -json . ; \
	 $(GO) test -run '^$$' -bench '^BenchmarkServerDeriveCompile' -benchtime 0.5s -benchmem -json ./internal/service) | tee BENCH_PR5.json

# bench-cluster sweeps the fleet simulator: the discrete-event engine at 10k
# and 100k sessions (sessions/s, per-class p99, replica fairness) against
# the naive goroutine-per-session baseline. Also the CI smoke (benchtime=1x,
# must complete).
bench-cluster:
	$(GO) test -run '^$$' -bench '^BenchmarkCluster' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/cluster/

# bench-cluster-record writes the PR 6 performance record: the full
# 100k-session scenario result (per-class p50/p95/p99, Jain fairness,
# sessions/sec) followed by the go-test JSON stream of the DES-vs-naive
# benchmark sweep.
bench-cluster-record:
	$(call guard-record,BENCH_PR6.json,bench-cluster-record)
	($(GO) run ./cmd/lotoscluster -json scenarios/bench100k.json ; \
	 $(GO) test -run '^$$' -bench '^BenchmarkCluster' -benchtime 3x -benchmem -json ./internal/cluster/) | tee BENCH_PR6.json

# bench-dist sweeps the fleet: cold-derive throughput direct vs through a
# 4-worker coordinator (routing overhead), the capacity-bounded scaling
# lane (1 process vs a 4-worker fleet of processes each modelling one
# machine — the ≥3× acceptance bar), and streamed-batch throughput. Also
# the CI smoke (benchtime=1x, must complete).
bench-dist:
	$(GO) test -run '^$$' -bench '^(BenchmarkDirectDeriveCold|BenchmarkFleet|BenchmarkCapacity)' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/dist/

# bench-dist-record writes the PR 7 performance record: a hardware note
# first (the capacity lane models per-machine service time because CI runs
# every "machine" on one box), then the go-test JSON stream.
bench-dist-record:
	$(call guard-record,BENCH_PR7.json,bench-dist-record)
	(echo '{"note":"capacity lane models per-machine service time (2ms floor, 1 derive slot/process); all processes share this host","host":"'"$$(uname -sr)"'","cpus":'"$$(nproc)"'}' ; \
	 $(GO) test -run '^$$' -bench '^(BenchmarkDirectDeriveCold|BenchmarkFleet|BenchmarkCapacity)' -benchtime 2s -benchmem -json ./internal/dist/) | tee BENCH_PR7.json

# bench-compositional sweeps quotient-before-compose against monolithic
# verification on the finite-entity corpus shapes (the per-spec state-count
# reduction is reported as product-states/mono-states metrics) and the
# delta-verify lane: a warm-cache single-entity edit against the cold full
# verification of the same edited spec — the ≥3× acceptance bar. Also the
# CI smoke (benchtime=1x, must complete).
bench-compositional:
	$(GO) test -run '^$$' -bench '^(BenchmarkCompositionalVerify|BenchmarkDeltaVerify)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .

# bench-compositional-record writes the PR 8 performance record.
bench-compositional-record:
	$(call guard-record,BENCH_PR8.json,bench-compositional-record)
	$(GO) test -run '^$$' -bench '^(BenchmarkCompositionalVerify|BenchmarkDeltaVerify)$$' -benchtime 3x -benchmem -json . | tee BENCH_PR8.json

# bench-reduction sweeps the reduction ablation: the exact full state space
# of each symmetric corpus shape explored unreduced, under POR, POR+symmetry
# and the whole out-of-core stack (the per-op `states` metric is the result
# — the time ratios follow the state-count ratios), the big-k scaling lane
# (k identical relay instances explored to completion with the spilling
# visited index held at a 1 MiB budget; `peak_mem_bytes` is the residency
# evidence), and the end-to-end facade verification of multiinstance with
# and without symmetry, plus with symmetry on one worker
# (`por+symmetry/serial`, the verify-deep benchmark's configuration). Also
# the CI smoke (benchtime=1x, must complete).
bench-reduction:
	$(GO) test -run '^$$' -bench '^BenchmarkReduction(Explore|BigK|Verify)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .

# bench-reduction-record writes the PR 9 performance record: a note line
# first (what the big-k lane's bounded-memory claim covers — the visited
# index; BFS frontiers are level-local and not under the budget), then the
# go-test JSON stream of the ablation sweep.
bench-reduction-record:
	$(call guard-record,BENCH_PR9.json,bench-reduction-record)
	(echo '{"note":"peak_mem_bytes is the spilling visited-index residency (budget 1 MiB + at most one entry); BFS frontier memory is level-local and outside the budget. multiinstance: 129665 concrete states, 60565 symmetry orbits. big-k relay at k=10: 335369 orbit states over a concrete space >10^9 interleavings, explored to completion.","host":"'"$$(uname -sr)"'","cpus":'"$$(nproc)"'}' ; \
	 $(GO) test -run '^$$' -bench '^BenchmarkReduction(Explore|BigK|Verify)$$' -benchtime 1x -benchmem -json .) | tee BENCH_PR9.json
