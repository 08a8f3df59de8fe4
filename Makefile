# Developer entry points. Everything here is plain go tool invocations;
# the Makefile just names the common ones.

.PHONY: build test race bench smoke-ckpt chaos-service alloc-guard

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full benchmark sweep, one iteration each (regression smoke).
bench:
	go test -bench=. -benchtime=1x ./...

# Checkpoint/fork engine correctness smoke: one warmup per group and
# digests bit-identical to a serial no-checkpoint run.
smoke-ckpt:
	sh scripts/smoke_ckpt.sh

# Crash/fault drills: journal crash recovery, torn-tail truncation, and
# store-write-error absorption against a real dwarnd via DWARN_CHAOS.
chaos-service:
	sh scripts/chaos_service.sh

# Zero-allocation steady-state guard for the cycle engine.
alloc-guard:
	go test ./internal/sim -run TestStepZeroAllocSteadyState -v
