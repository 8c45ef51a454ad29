# Shared developer/CI entry points. The CI workflow runs the same commands,
# so the tier-1 verify recipe lives in exactly one place.

GO ?= go
MODELS ?= models.json
ADDR ?= :8377

.PHONY: all build test lint race fuzz smoke serve train loadtest bench-serve bench-containers clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Vet plus a gofmt cleanliness check (fails if any file needs formatting).
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

# Race detector over the concurrent subsystems: the HTTP advisor, the
# training worker pools, the simulated machine and its allocator, the
# application generator's machine pool (machines pass between goroutines),
# telemetry, the adaptive container, and the load generator.
race:
	$(GO) test -race -short ./internal/serve/... ./internal/training/... ./internal/machine/... ./internal/appgen/... ./internal/mem/... ./internal/telemetry/... ./internal/containers/adaptive/... ./internal/loadgen/...

# A 10-second probe per fuzz target.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDequeOps -fuzztime=10s ./internal/containers/deque
	$(GO) test -run='^$$' -fuzz=FuzzTableOps -fuzztime=10s ./internal/containers/hashtable
	$(GO) test -run='^$$' -fuzz=FuzzTreeOps  -fuzztime=10s ./internal/containers/rbtree
	$(GO) test -run='^$$' -fuzz=FuzzBTreeOps -fuzztime=10s ./internal/containers/btree
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecords -fuzztime=10s ./internal/profile
	$(GO) test -run='^$$' -fuzz=FuzzAdaptiveMigration -fuzztime=10s ./internal/containers/adaptive
	$(GO) test -run='^$$' -fuzz=FuzzFlatBTree -fuzztime=10s ./internal/containers/flatbtree
	$(GO) test -run='^$$' -fuzz=FuzzFlatHash -fuzztime=10s ./internal/containers/flathash

# Every benchmark once, then the fuzz probes.
smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(MAKE) fuzz

# Train a registry (override budget via brainy-train flags) then serve it.
train:
	$(GO) run ./cmd/brainy-train -arch both -o $(MODELS)

serve: build
	$(GO) run ./cmd/brainy-serve -models $(MODELS) -addr $(ADDR)

# Closed-loop load smoke: boot a rules-mode advisor, drive the ci-smoke
# scenario from BENCH_serve.json with brainy-loadgen, and gate the measured
# throughput against the committed baseline. CI runs the same recipe.
LOADTEST_ADDR ?= 127.0.0.1:18377
LOADTEST_OUT ?= /tmp/loadtest.json
loadtest:
	$(GO) build -o /tmp/brainy-serve-loadtest ./cmd/brainy-serve
	$(GO) build -o /tmp/brainy-loadgen ./cmd/brainy-loadgen
	$(GO) run ./cmd/brainy-train -arch core2 -apps 4 -max-seeds 80 -calls 50 -epochs 10 -o /tmp/loadtest-models.json
	/tmp/brainy-serve-loadtest -models /tmp/loadtest-models.json -addr $(LOADTEST_ADDR) -log-requests=false & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 50); do curl -sf http://$(LOADTEST_ADDR)/healthz > /dev/null && break; sleep 0.2; done; \
	/tmp/brainy-loadgen -url http://$(LOADTEST_ADDR) -conns 8 -duration 5s -warmup 2s \
		-skew 0.99 -keys 256 -mix 9:1 -seed 1 -out $(LOADTEST_OUT); \
	status=$$?; kill -INT $$SERVE_PID; wait $$SERVE_PID; \
	test $$status -eq 0
	python3 scripts/check_serve_bench.py --result $(LOADTEST_OUT) --baseline BENCH_serve.json

# Full serving benchmark (the BENCH_serve.json scenarios, 20s each) against
# an already-running server at SERVE_URL; writes the report to BENCH_OUT.
SERVE_URL ?= http://127.0.0.1:8377
BENCH_OUT ?= /tmp/bench_serve.json
bench-serve:
	$(GO) build -o /tmp/brainy-loadgen ./cmd/brainy-loadgen
	/tmp/brainy-loadgen -url $(SERVE_URL) -conns 32 -duration 20s -warmup 3s \
		-skew 0.99 -keys 512 -mix 9:1 -seed 1 -out $(BENCH_OUT)

# Container-suite bench: regenerate the flat-vs-pointer container report
# (simulated Core2 cycles, bit-deterministic) and gate the find-cycle
# ratios against the committed BENCH_containers.json floors.
CONTAINERS_OUT ?= /tmp/containers-bench.json
bench-containers:
	$(GO) run ./cmd/containersbench -sizes 1000,100000 -o $(CONTAINERS_OUT)
	python3 scripts/check_containers_bench.py --result $(CONTAINERS_OUT) --baseline BENCH_containers.json

clean:
	$(GO) clean ./...
