#!/usr/bin/env bash
# Tier-1 gate: lint + format gate, release build, full test suite, and a
# quick end-to-end smoke run of the Figure 3 regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q --workspace
cargo run -q --release --bin fig3 -- --smoke
# Race lint: workload report must match the checked-in golden, and the
# seeded-race mutant suite must get every static verdict right.
cargo run -q --release --bin fsr-lint -- --json | diff -u tests/golden/lint.json -
cargo run -q --release --bin fsr-lint -- --mutants
# Static-vs-dynamic scoring: exit 1 unless precision == 1.000 (no
# unconfirmed static report anywhere) and recall >= 0.85 against the
# happens-before ground truth (relational index domain recovers the
# pairs the section domain alone had to suppress).
cargo run -q --release --bin fsr-lint -- --validate >/dev/null
# False-sharing advisor: FSR-W004 must agree with the simulator's
# per-object miss taxonomy on every workload (completeness per object,
# soundness per block), and the full report is pinned byte-for-byte.
cargo run -q --release --bin fsr-lint -- --advise | diff -u tests/golden/advise.json -
# Coherence protocol invariants on random traces (the vendored proptest
# engine is fixed-seed, so this is deterministic) plus the directory
# backend's cross-protocol equivalence and goldens.
cargo test -q -p fsr-integration --test coherence_props --test directory
# Directory ablation must reproduce the checked-in golden bit-for-bit at
# the pinned knobs (the report is thread-count invariant).
abl_out="$(mktemp)"
steal_out="$(mktemp)"
trap 'rm -f "$abl_out" "$steal_out"' EXIT
FSR_NPROC=8 FSR_SCALE=1 FSR_BENCH_OUT="$abl_out" \
    cargo run -q --release --bin directory_ablation >/dev/null
diff -u tests/golden/directory_ablation.json "$abl_out"
# Schedule determinism: a fixed work-steal seed is bit-identical across
# batch widths; distinct seeds never collide into one trace group or
# cached result.
cargo test -q -p fsr-integration --test scheduler
# Steal-sweep smoke at pinned knobs: per-workload steal counts and the
# false-sharing miss deltas of the work-steal schedule vs round-robin,
# with steals == timing steal joins asserted inside the bin, must match
# the checked-in golden.
FSR_NPROC=8 FSR_SCALE=1 FSR_BENCH_OUT="$steal_out" \
    cargo run -q --release --bin steal_sweep -- --golden >/dev/null
diff -u tests/golden/steal_sweep.json "$steal_out"
# Daemon smoke: a scripted fsr-serve session (open a workload, lint with
# streamed diagnostics, one cold figure-3-style simulate, the identical
# request again) must reproduce the pinned transcript byte-for-byte —
# which pins, among everything else, that the warm repeat is served from
# the result cache with zero interpreter passes (`"result_hits": 1`,
# `"interpretations": 0` in the second simulate's stats). fmt/clippy
# coverage of the serve crate rides on the --all/--workspace gates above.
cargo run -q --release --bin fsr-serve < tests/golden/serve_smoke_session.jsonl \
    | diff -u tests/golden/serve_smoke.txt -
echo "tier1: OK"
