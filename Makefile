# Dragoon build/test/bench entry points. CI (.github/workflows/ci.yml) runs
# fmt-check, vet, build, test, test-purego, examples, race and the
# servicebench checks; bench-json tracks the parallel layer's performance
# trajectory in BENCH_parallel.json.

GO ?= go

.PHONY: build test test-purego race bench bench-smoke bench-json bench-kernels \
	fmt fmt-check vet all golden cover fuzz-smoke fuzz-econ docs-check \
	soak-smoke servicebench-check servicebench-smoke examples

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-sibling) execution order each
# run, flushing out inter-test state dependence; failures print the seed to
# reproduce with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# The packages whose results reach a golden transcript through the BN254
# span kernel, built with -tags purego: no assembly, so every span runs
# the scalar GLV ladder. With `make test` on a CPU with AVX-512 IFMA this
# checks every golden on both paths; elsewhere both targets test the
# scalar path only.
test-purego:
	$(GO) test -tags purego ./internal/bn254 ./internal/elgamal \
		./internal/protocol ./internal/market ./internal/adversary

# Build every example program (examples/*) into a scratch directory and run
# each one; the first non-zero exit fails the target. Their stdout is
# dropped, their errors go to stderr. All of them together run in about a
# second.
examples:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./examples/... && \
	for f in "$$bin"/*; do \
		echo "examples/$${f##*/}"; "$$f" > /dev/null || exit 1; \
	done

# The parallel fan-out paths with the race detector on: the work pool, the
# multi-task marketplace and the single-task harness that fan worker rounds
# out over it, the streaming service (background miner vs Submit/Poll/Stats
# plus the snapshot/restore sweep), the shared chain with its optimistic
# parallel round executor (conflict-matrix + randomized sequential-vs-
# parallel oracle tests) and per-contract event cursors, the shared
# off-chain store, and the concurrent crypto (PoQoEA batch prove/verify,
# QAP quotient, Groth16 MSM fork/join, parallel Miller loops). The crypto-kernel packages (fixed-base tables, GLV, the shared
# precomputation and short-log registries, the requester's lazy decrypt
# table) run here too — their property tests and the concurrent-init
# regression tests are race-sensitive by design. So do the
# contract (on-chain verification must charge gas from one goroutine, whatever
# the pool size) and the VPKE prover the requester runs on the pool.
race:
	$(GO) test -race ./internal/parallel ./internal/market ./internal/sim \
		./internal/service ./internal/adversary ./internal/chain \
		./internal/swarm ./internal/poqoea ./internal/batch \
		./internal/qap ./internal/groth16 ./internal/bn254 \
		./internal/elgamal ./internal/group ./internal/protocol \
		./internal/commit ./internal/incentive ./internal/worker \
		./internal/limb ./internal/ff ./internal/contract ./internal/vpke

# Regenerate the committed golden fingerprint files after an INTENTIONAL
# protocol/gas/rng-order change (then commit the testdata diff). The golden
# tests otherwise catch any determinism break in a single run.
golden:
	$(GO) test ./internal/sim ./internal/market ./internal/adversary \
		-run TestGoldenFingerprint -update-golden

# Coverage summary over every package (single profile, per-function table
# tail + total in the CI log; cover.out is left for `go tool cover -html`).
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -n 25

# Short fuzz pass over the codec fuzz targets (wire reader/round-trip,
# commitment open, contract message decoders, chain snapshot restore, the
# G1 and G2 point decoders) and the kernel ones (the GLV split, the lane ladder against
# the scalar one, the limb field), seeded from the checked-in corpus
# under each package's testdata/fuzz. CI runs this as a smoke job; run
# with a larger FUZZTIME locally for a real hunt.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReaderOps -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzCommitOpen -fuzztime=$(FUZZTIME) -run='^$$' ./internal/commit
	$(GO) test -fuzz=FuzzUnmarshalMessages -fuzztime=$(FUZZTIME) -run='^$$' ./internal/contract
	$(GO) test -fuzz=FuzzRestoreChain -fuzztime=$(FUZZTIME) -run='^$$' ./internal/chain
	$(GO) test -fuzz=FuzzGLVDecompose -fuzztime=$(FUZZTIME) -run='^$$' ./internal/bn254
	$(GO) test -fuzz=FuzzUnmarshalG1 -fuzztime=$(FUZZTIME) -run='^$$' ./internal/bn254
	$(GO) test -fuzz=FuzzUnmarshalG2 -fuzztime=$(FUZZTIME) -run='^$$' ./internal/bn254
	$(GO) test -fuzz=FuzzLaneLadder -fuzztime=$(FUZZTIME) -run='^$$' ./internal/bn254
	$(GO) test -fuzz=FuzzFpMont -fuzztime=$(FUZZTIME) -run='^$$' ./internal/limb

# Economic fuzz pass: the incentive solver's parameter space (MinimalReward
# self-verification against Decide at degenerate boundaries) and whole
# generated scenarios through all three harness paths with every invariant
# checked and market/stream transcripts compared. Seeded from the committed
# corpus; failures shrink to a minimal spec before reporting.
fuzz-econ:
	$(GO) test -fuzz=FuzzRationalParams -fuzztime=$(FUZZTIME) -run='^$$' ./internal/incentive
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) -run='^$$' ./internal/adversary

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration of the fast benchmarks only (-short skips the slow generic
# ZKP baselines and full end-to-end sims; BenchmarkMarketplace stays in),
# then the fast cmd/benchtables modes over the same workloads
# (internal/benchwork): Table III with the headline, and the full -json
# report into a scratch file — CI's smoke bench, < 1 minute.
bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' .
	$(GO) run ./cmd/benchtables -table 3 -headline
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/benchtables -json "$$out"

# Regenerate BENCH_parallel.json: sequential-vs-parallel timings and
# speedups for the crypto hot paths and the marketplace, tracked PR over
# PR. BENCH_WORKERS sets the parallel pool size (0 = NumCPU); benchtables
# floors it at 2, so the speedups map is populated even on 1-CPU hosts.
BENCH_WORKERS ?= 0
bench-json:
	$(GO) run ./cmd/benchtables -json BENCH_parallel.json -workers $(BENCH_WORKERS)

# One iteration of every crypto-kernel benchmark (fixed-base tables, GLV
# scalar mul, the shared fixed-base handle on a cold and a hot base, batch
# encryption/short-log, the NTT and the Montgomery field ops) — a CI smoke
# check that the kernel paths still run, not a timing measurement.
bench-kernels:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/bn254 \
		./internal/elgamal ./internal/group ./internal/ff ./internal/limb

# Bounded-memory soak slice for CI: stream tasks through a background
# service for ~30 seconds (or 10^4 tasks, whichever comes first) and fail
# if the heap grows past twice the post-warmup plateau or any task fails
# to settle. Run `go run ./cmd/soak -assert` for the full 10^4-task soak.
soak-smoke:
	$(GO) run ./cmd/soak -duration 30s -assert

# The service benchmark (servicebench/) is a Go module of its own, so the
# root `go build ./...` and `go test ./...` never compile it: vet it and run
# its short tests from inside, against this checkout (replace dragoon => ../).
servicebench-check:
	cd servicebench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test -short ./...

# Run the service benchmark itself for 2 s on every workload BENCHMARK.json
# lists (end-to-end metrics, --trace 0), then once traced (--trace 1), whose
# replay-against-service check catches a drift between service.step and
# servicebench's replay of it. A failed check exits non-zero and fails the
# target. run.sh writes only under servicebench/.build (gitignored).
servicebench-smoke:
	@ws="$$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"; \
	[ -n "$$ws" ] || { echo "no workloads found in BENCHMARK.json"; exit 1; }; \
	for w in $$ws; do \
		echo "servicebench --workload $$w --trace 0"; \
		bash servicebench/run.sh --workload "$$w" --seed 1 --seconds 2 --trace 0 || exit 1; \
	done; \
	w="$${ws%%[[:space:]]*}"; \
	echo "servicebench --workload $$w --trace 1"; \
	bash servicebench/run.sh --workload "$$w" --seed 1 --seconds 2 --trace 1

# Documentation lint (cmd/docscheck): requires a godoc comment on every
# exported facade symbol and checks every relative markdown link in
# README.md and docs/*.md. CI runs it right after `make vet`.
docs-check:
	$(GO) run ./cmd/docscheck

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
