# Verify path for the hetsim repro. `make verify` is what CI (and the
# per-PR tier-1 gate) should run: build + vet + tests + the race
# detector over the whole module, including the -j determinism and
# stress tests, plus the hetbench module's smoke test.

GO ?= go

.PHONY: build vet test race hetbench fuzz faults topologies bench bench-json bench-controller bench-telemetry bench-store sweepd chaos profile verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# The race detector has real work here: the experiment engine fans
# (config, benchmark) runs across a worker pool, and the stress test
# (internal/exp TestRunnerConcurrentStress) hammers the shared memo
# cache from many goroutines.
race:
	$(GO) test -race ./...

# cmd/hetbench is a module of its own, so `go test ./...` above never
# reaches it; its smoke test runs every workload briefly against the
# simulator packages it imports.
hetbench:
	cd cmd/hetbench && $(GO) test ./...

# Short fuzz passes over the text parsers and the durable-store key /
# entry codecs (seed corpora always run as part of plain `make test`).
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/faults/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzStoreKey -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzEntryCodec -fuzztime 30s
	$(GO) test ./internal/topology/ -fuzz FuzzTopologyParse -fuzztime 30s

# The declarative-topology study: the 3-tier DRAM-cache system and the
# §10 HMC mix across a representative benchmark set at quick scale.
topologies:
	$(GO) run ./cmd/experiments -topology dram-cache,hmc-mix -scale quick \
		-benchmarks libquantum,mcf,lbm,omnetpp -j 0

# Fault-sensitivity table: the RL system under escalating bit-fault
# rates, a scripted line chip-kill, and a dead critical-word DIMM.
faults:
	$(GO) run ./cmd/experiments -only faults -scale test \
		-benchmarks libquantum,mcf,lbm -j 0

bench:
	$(GO) test -bench=. -benchmem

# Kernel benchmark baseline as committed JSON (see DESIGN.md
# "Performance"). Regenerate after kernel changes and commit the diff.
bench-json:
	{ $(GO) test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/sim/ && \
	  $(GO) test -bench 'BenchmarkController' -benchmem -run '^$$' ./internal/memctrl/ && \
	  $(GO) test -bench 'BenchmarkHierarchyReadPath' -benchmem -run '^$$' ./internal/core/ && \
	  $(GO) test -bench 'BenchmarkSimulatorSpeed' -benchmem -benchtime 5x -run '^$$' . ; } \
	| $(GO) run ./cmd/benchjson > BENCH_kernel.json

# Controller scheduling baseline as committed JSON (see DESIGN.md
# "Controller scheduling performance"): the controller microbenchmark
# family plus end-to-end simulator speed. Regenerate after controller,
# DRAM-timing, or drive-loop changes and commit the diff.
bench-controller:
	{ $(GO) test -bench 'BenchmarkController' -benchmem -run '^$$' ./internal/memctrl/ && \
	  $(GO) test -bench 'BenchmarkSimulatorSpeed' -benchmem -benchtime 5x -run '^$$' . ; } \
	| $(GO) run ./cmd/benchjson > BENCH_controller.json

# Telemetry overhead baseline as committed JSON: the same run with the
# epoch sampler off and at two intervals. The on-vs-off ns/op ratio is
# the sampling cost; budget < 3% at the default 10k-cycle interval.
bench-telemetry:
	$(GO) test -bench 'BenchmarkTelemetry' -benchmem -benchtime 20x -run '^$$' . \
		| $(GO) run ./cmd/benchjson > BENCH_telemetry.json

# Durable run-cache baseline as committed JSON (see DESIGN.md "Durable
# run cache"): key hashing, entry encode/write, and verified-hit read.
# Regenerate after store or codec changes and commit the diff.
bench-store:
	$(GO) test -bench 'BenchmarkStore' -benchmem -run '^$$' ./internal/store/ \
		| $(GO) run ./cmd/benchjson > BENCH_store.json

# Robustness smoke: the lease protocol, the chaos-store convergence
# suite, the crash-simulation store tests, and the multi-worker /
# SIGKILL / drain integration tests, all under the race detector.
chaos:
	$(GO) test -race -count=1 ./internal/lease/ ./internal/chaos/
	$(GO) test -race -count=1 ./internal/store/ -run 'TestPutFsync|TestCrashSim|TestDegraded|TestReadOnly'
	$(GO) test -race -count=1 ./internal/exp/ -run 'TestChaoticStore|TestCellTimeout|TestContextCancel|TestGenerousDeadline'
	$(GO) test -race -count=1 ./cmd/sweepd/ -run 'TestSweepdTwoWorkers|TestSweepdWorkerSIGKILL|TestSweepdChaotic|TestSweepdPoisoned|TestSweepdHealth|TestSweepdDrainDeadline'

# Run the sweep job server on the default local address with a durable
# cache + state directory in the working tree.
sweepd:
	$(GO) run ./cmd/sweepd -addr 127.0.0.1:8321 \
		-cache-dir .hetsim-cache -state-dir .hetsim-sweepd

# CPU + allocation profiles of a representative experiment run.
# Inspect with: go tool pprof cpu.pprof / go tool pprof mem.pprof
profile:
	$(GO) run ./cmd/experiments -only fig6 -benchmarks libquantum,mcf -scale test \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"

verify: build vet test race hetbench
