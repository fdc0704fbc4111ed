# Local targets mirroring the CI jobs so local and CI runs are identical.

.PHONY: verify build test fmt lint bench-compile bench-json stage-bench score-bench vtime-bench scenario-check scenario-json perfbench-smoke examples ci

# The tier-1 gate: exactly what the driver and the CI `test` job run.
verify:
	cargo build --release && cargo test -q

build:
	cargo build --release --workspace

test:
	cargo test --workspace

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

bench-compile:
	cargo bench --no-run --workspace

# Quick throughput baseline (streaming vs batch data plane); refreshes the
# committed BENCH_pipeline.json. Non-blocking in CI.
bench-json:
	cargo run --release -p bench --bin bench_json BENCH_pipeline.json

# Per-stage throughput profile: measures every defense stage in isolation
# plus the defended end-to-end paths, writes stage-throughput.json, and
# prints non-blocking per-stage diff lines against the committed
# BENCH_pipeline.json (ratios < 0.8 are flagged "REGRESSION?"). Override
# STAGE_BENCH_WARMUP / STAGE_BENCH_ITERS to trade accuracy for speed.
stage-bench:
	cargo run --release -p bench --bin stage_throughput -- --out stage-throughput.json --diff BENCH_pipeline.json

# Scoring-plane profile: measures the adversary inference kernels (SVM, NN,
# Bayes, and the majority-vote ensemble) single-row and sliced in
# WINDOW_BATCH blocks, writes score-bench.json, and prints a non-blocking
# diff of the committed score_*_pps keys against BENCH_pipeline.json.
# Override STAGE_BENCH_WARMUP / STAGE_BENCH_ITERS / SCORE_BENCH_QUERIES to
# trade accuracy for speed.
score-bench:
	cargo run --release -p bench --bin score_bench -- score-bench.json

# Coalesced virtual-time executor smoke: runs the committed metropolis
# scenario reduced to VTIME_BENCH_STATIONS stations (default 20k, the slice
# bench-json commits as metropolis20k_*), writes vtime-bench.json, and prints
# a non-blocking stations/sec + coalescing-ratio diff against the committed
# BENCH_pipeline.json.
vtime-bench:
	cargo run --release -p bench --bin vtime_bench -- vtime-bench.json

# Validates every committed scenario spec (parse + compile). CI gates on it,
# so a malformed spec under scenarios/ fails the build. Debug profile: the
# check is parse-and-validate only, and the CI test job builds debug anyway.
scenario-check:
	cargo run -p bench --bin scenario_run -- --check scenarios

# Runs every committed scenario and writes per-scenario JSON reports to
# scenario-results/ (uploaded as CI artifacts next to BENCH_pipeline.json).
# --skip-over leaves the million-station metropolis family checked but not
# executed; bench-json records its reduced-slice numbers instead, and
# `cargo run --release -p bench --bin scenario_run -- scenarios/metropolis.toml`
# runs it at full size (~1.5 min).
scenario-json:
	cargo run --release -p bench --bin scenario_run -- --skip-over 100000 --out scenario-results scenarios

# Reduced-size smoke run of the repository benchmark (perfbench/, its own
# Cargo package): every workload, untraced and traced, every metric named in
# BENCHMARK.json. perfbench drives the library only through its public API,
# so a change to that API fails here (and in CI) rather than in a benchmark
# run.
perfbench-smoke:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

examples:
	cargo build --examples

# Everything CI gates on, in one shot.
ci: fmt lint verify test scenario-check bench-compile perfbench-smoke examples
