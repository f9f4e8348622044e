#!/bin/sh
# check.sh — the repo's full verification pass: vet, build, the complete
# test suite, the perfbench module's vet and race-enabled tests, and a
# race-enabled run of the concurrency-sensitive storage packages (the ones
# the fault-injection, crash-recovery, and engine front-end work hardens)
# and of kvbench, whose driver workers share one outcome tally.
#
# Set CHECK_SHORT=1 for the CI-friendly variant: identical coverage, but
# the seeded chaos/crash matrices run their -short subset of seeds.
#
# Set CHECK_RACE=1 to run the entire module under the race detector (with
# -short workloads) instead of the targeted storage-stack list — broader
# coverage (obs, workload, experiments, the differential suite) at several
# times the runtime.
#
# Set CHECK_SCRUB=1 for the long scrub-soak pass: a mirrored device under
# sustained traffic with latent bit flips, verifying the background
# scrubber's token-bucket I/O budget and repair convergence over several
# wall-clock seconds (skipped otherwise).
#
# Set CHECK_FAILOVER=1 for the full 100-seed warm-standby failover soak
# under the race detector: lossy/partitioned ship links, mid-ship primary
# crashes, forced promotions, and PITR verification against a MassTree
# oracle, with a hard watchdog timeout so a wedged drain fails the run
# instead of hanging it.
#
# Set CHECK_SHARD=1 for the full 100-seed shard-migration soak under the
# race detector: a live shard migration per seed with concurrent writers
# on the moving shard, a lossy and periodically partitioned migration
# link, and an injected crash at every phase boundary of the cutover
# state machine, asserting zero lost acked writes, exactly-once
# application against an acked-state oracle, and fenced stale owners —
# with a hard watchdog timeout.
#
# Set CHECK_RESIZE=1 for the full 100-seed elastic-resize soak under the
# race detector: every seed splits a shard and merges the children back
# while concurrent writers hit the resizing range over a lossy,
# periodically partitioned stream link, with an injected crash at every
# phase boundary of the split and merge state machines, asserting zero
# lost acked writes, a byte-identical final state against the acked-state
# oracle, fenced stale owners (split source and both merge sources), and
# bounded key movement (a hash moves owner iff it lies in the split
# range) — with a hard watchdog timeout.
#
# Set CHECK_WIRE=1 for the full 50-seed network chaos sweep under the race
# detector: wire clients and server over real connections through
# fault.Conn (drops, dups, reorders, half-closes, stalls, a mid-run
# partition-driven retry storm), asserting exactly-once retried writes,
# zero lost acked writes, bounded retry amplification, graceful drain, and
# no leaked goroutines — again with a hard watchdog.
#
# Set CHECK_OVERLOAD=1 for the full 50-seed metastable-failure chaos
# sweep under the race detector: a capacity-limited store behind the
# engine's adaptive concurrency limiter and the wire server, hit with a
# flash-crowd storm (6x the steady client fleet plus a request-path
# partition blip). Each seed asserts the adaptive stack re-converges to
# >=90% of pre-storm goodput the moment the storm stops, keeps the
# high-priority class served through the storm (brownout ladder sheds
# scans and low first), loses zero acked writes, and actually delivered
# retry-after hints to clients — then reruns the identical harness with
# the limiter disabled and requires it to demonstrably fail to
# re-converge in the same window, proving the mechanism and not the test.
#
# Set CHECK_MATRIX=1 for the perf-trajectory gate: run the full scenario
# matrix (kvbench -matrix all) at a CI-sized workload, then hold benchdiff
# to its exit-code contract — the identity diff must pass, an injected
# 50% regression must fail, and a -report-only diff against the committed
# BENCH_matrix.json must prove the scenario coverage never shrinks
# (absolute numbers across machines are advisory; coverage is not).
set -eux

SHORT=""
if [ -n "${CHECK_SHORT:-}" ]; then
    SHORT="-short"
fi

go vet ./...
go build ./...
go test $SHORT ./...
# perfbench is its own module (perfbench/README.md), so the runs above
# never reach its checker tests: the decorators that serve a stale get or
# drop a scan row through each benchmark stack, TC snapshot scans
# included, and must be caught. Same module settings as perfbench/run.sh.
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off &&
    go vet ./... && go test -race ./...)
if [ -n "${CHECK_RACE:-}" ]; then
    go test -race -short ./...
else
    go test $SHORT -race \
        ./internal/bwtree \
        ./internal/llama/... \
        ./internal/tc \
        ./internal/ssd \
        ./internal/fault \
        ./internal/lsm \
        ./internal/metrics \
        ./internal/backoff \
        ./internal/overload \
        ./internal/engine \
        ./internal/repl \
        ./internal/shard \
        ./internal/wire/... \
        ./internal/integration \
        ./cmd/kvbench
fi
# The limiter's admission state is shared lock-free (CAS on in-flight,
# atomic queue depth and window sums): repeat its tests and the engine's
# under the race detector so a rare interleaving gets several chances.
go test -race -count=10 ./internal/overload ./internal/engine
if [ -n "${CHECK_SCRUB:-}" ]; then
    CHECK_SCRUB=1 go test -run 'TestScrubSoakLong|TestMirror' -count=1 -timeout 10m \
        ./internal/ssd \
        ./internal/integration
fi
if [ -n "${CHECK_FAILOVER:-}" ]; then
    go test -race -run 'TestFailoverChaosSweep' -count=1 -timeout 15m \
        ./internal/integration -failover.full=true
fi
if [ -n "${CHECK_SHARD:-}" ]; then
    go test -race -run 'TestShardMigrationChaosSweep' -count=1 -timeout 15m \
        ./internal/integration -shard.full=true
fi
if [ -n "${CHECK_RESIZE:-}" ]; then
    go test -race -run 'TestShardResizeChaosSweep' -count=1 -timeout 15m \
        ./internal/integration -resize.full=true
fi
if [ -n "${CHECK_WIRE:-}" ]; then
    go test -race -run 'TestWireChaosSweep' -count=1 -timeout 15m \
        ./internal/integration -wire.full=true
fi
if [ -n "${CHECK_OVERLOAD:-}" ]; then
    go test -race -run 'TestOverloadChaosSweep' -count=1 -timeout 20m \
        ./internal/integration -overload.full=true
fi
if [ -n "${CHECK_MATRIX:-}" ]; then
    go build -o /tmp/kvbench ./cmd/kvbench
    go build -o /tmp/benchdiff ./cmd/benchdiff
    /tmp/kvbench -matrix all -matrix-stores masstree,lsm -matrix-conc 8 \
        -keys 5000 -ops 8000 -bench-out /tmp/BENCH_matrix.ci.json
    # Identity diff must pass (exit 0)...
    /tmp/benchdiff /tmp/BENCH_matrix.ci.json /tmp/BENCH_matrix.ci.json
    # ...and an injected regression must fail (exit 1), proving the gate bites.
    if /tmp/benchdiff -inject-regression 0.5 \
        /tmp/BENCH_matrix.ci.json /tmp/BENCH_matrix.ci.json; then
        echo "CHECK_MATRIX: injected regression was not caught" >&2
        exit 1
    fi
    # Committed trajectory: metric deltas across machines are advisory
    # (-report-only), but every committed scenario cell must still exist.
    /tmp/benchdiff -report-only BENCH_matrix.json /tmp/BENCH_matrix.ci.json
fi
