# Local targets mirroring the CI jobs so local and CI runs are identical.

.PHONY: verify build test fmt lint scenario-check scenario-json experiments-smoke perfbench-smoke proptest-soak examples ci

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

# Validates every committed scenario spec (parse + compile). CI gates on it,
# so a malformed spec under scenarios/ fails the build. Debug profile: the
# check is parse-and-validate only, and the CI test job builds debug anyway.
scenario-check:
	cargo run -p bench --bin scenario_run -- --check scenarios

# Runs every committed scenario and writes per-scenario JSON reports to
# scenario-results/ (uploaded as a CI artifact). --skip-over leaves the
# million-station metropolis family checked but not executed;
# `cargo run --release -p bench --bin scenario_run -- scenarios/metropolis.toml`
# runs it at full size (~1.5 min).
scenario-json:
	cargo run --release -p bench --bin scenario_run -- --skip-over 100000 --out scenario-results scenarios

# Runs every paper table, figure and ablation at the quick preset (well under
# a second of run time after the release build), so a runner that panics
# fails CI. The table values themselves are pinned by
# crates/bench/tests/table_goldens.rs.
experiments-smoke:
	cargo run --release -p bench --bin experiments -- quick all

# Reduced-size smoke run of the repository benchmark (perfbench/, its own
# Cargo package): every workload, untraced and traced, every metric named in
# BENCHMARK.json. perfbench drives the library only through its public API,
# so a change to that API fails here (and in CI) rather than in a benchmark
# run.
perfbench-smoke:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Every proptest at 50x its committed case count, from a fresh seed unless
# PROPTEST_SEED is given (a failure prints the seed that reproduces it). The
# non-blocking CI soak job; long, so not part of `make ci`.
proptest-soak:
	PROPTEST_CASES=$${PROPTEST_CASES:-50} PROPTEST_SEED=$${PROPTEST_SEED:-$$(date +%s)} \
		cargo test --workspace --release

examples:
	cargo build --examples

# Everything CI gates on, in one shot.
ci: fmt lint verify test scenario-check experiments-smoke perfbench-smoke examples
