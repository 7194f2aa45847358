#!/usr/bin/env bash
# Hermetic CI gate for the carbon-electronics workspace.
#
# Everything runs with --offline: the workspace has no external registry
# dependencies (the in-tree carbon-runtime crate supplies the PRNG,
# property-test, and bench substrates), so a bare checkout must build
# and test with no network at all. Any step that tries to reach a
# registry is itself a regression. The workspace steps also run
# --locked, so a committed Cargo.lock that no longer matches the
# manifests fails here instead of being rewritten.
# Determinism and baseline gates: crates/bench/tests/digest_matrix.rs,
# crates/serve/tests/determinism.rs, crates/spice/tests/stamps.rs
# (`cargo test --offline -p carbon-spice --test stamps`: every element
# stamp on the dense and the sparse path) and tests/fet_models.rs
# (`cargo test --offline --test fet_models`: every carbon-logic circuit
# analysis on four compact-model pairs, plus the §II cascade). A
# refactor never updates the last two.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --locked --offline -- -D warnings
# Only rustdoc resolves intra-doc links, so a deleted item that a doc
# comment still names fails here.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline
run cargo build --workspace --release --locked --offline
run cargo test --workspace -q --locked --offline
# Bench targets in run-once smoke mode: keeps the six harness=false
# binaries compiling and their workloads alive without paying
# measurement cost.
run cargo bench --locked --offline -- --test
# servebench is a workspace of its own, built against the crates by
# path: only this step compiles it before the benchmark runs.
run cargo test --release --offline -q --manifest-path servebench/Cargo.toml --target-dir target/servebench

# Opt-in benchmark regression gate: measure the solver, transient,
# device-batch, and econ groups for real and compare them against the
# committed baselines, failing on >10 % median regressions. Off by
# default — timings are only meaningful on a quiet machine. Regenerate
# a baseline with:
#   cargo bench --offline -p carbon-bench --bench <group>
#   cp target/carbon-bench/<group>.jsonl benches/baseline/<group>.jsonl
if [[ "${CARBON_BENCH_COMPARE:-0}" == "1" ]]; then
  for group in solver tran device_batch econ; do
    run cargo bench --offline -p carbon-bench --bench "$group"
    run cargo run --offline --release -p carbon-bench --bin carbon-bench -- \
      compare "benches/baseline/$group.jsonl" "target/carbon-bench/$group.jsonl"
  done
fi

echo "CI OK"
