# Verify path for the hetsim repro. `make verify` is what CI (and the
# per-PR tier-1 gate) should run: build + gofmt + vet + tests + the race
# detector over the whole module, including the -j determinism and
# stress tests, plus the hetbench module's smoke test.

GO ?= go

.PHONY: build fmt vet test race hetbench fuzz faults topologies bench sweepd chaos profile verify

build:
	$(GO) build ./...

# Every tracked Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

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

# Short fuzz passes over the text parsers, the durable-store key /
# entry codecs, and the store's payload decoder fed arbitrary bytes
# behind a matching checksum (seed corpora always run as part of plain
# `make test`).
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/faults/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzStoreKey -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzEntryCodec -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzPayloadDecode -fuzztime 30s
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

# The root benchmarks (BenchmarkExperiments, one sub-benchmark per paper
# table/figure, plus simulator speed)
# for local use. Wall time is not a gate here: speed claims go through
# cmd/hetbench -compare, and exact work counters are pinned by the work
# section of internal/core/testdata/organizations.golden.
bench:
	$(GO) test -bench=. -benchmem

# Robustness smoke: the lease protocol, the chaos-store convergence
# suite, the crash-simulation store tests, the degraded latch (one
# wrapped cause, one warning), the cell cancel latch, and
# the multi-worker / SIGKILL / drain integration tests, all under the
# race detector.
chaos:
	$(GO) test -race -count=1 ./internal/lease/ ./internal/chaos/
	$(GO) test -race -count=1 ./internal/store/ -run 'TestPutFsync|TestCrashSim|TestDegraded|TestReadOnly|TestConcurrentDegrade'
	$(GO) test -race -count=1 ./internal/exp/ -run 'TestChaoticStore|TestDegradedStoreWarnsOnce'
	$(GO) test -race -count=1 ./internal/grid/ -run 'TestCellRun'
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

verify: build fmt vet test race hetbench
