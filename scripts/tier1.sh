#!/usr/bin/env bash
# Tier-1 gate: lint + format gate, release build, full test suite, and a
# quick end-to-end smoke run of the Figure 3 regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
# Every test runs here, once: among them the coherence protocol
# invariants on random traces (coherence_props; the vendored proptest
# engine is fixed-seed, so this is deterministic), the directory
# backend's cross-protocol equivalence and goldens (directory), and
# schedule determinism (scheduler).
cargo test -q --workspace
cargo run -q --release --bin fig3 -- --smoke
# Race lint: workload report must match the checked-in golden.
cargo run -q --release --bin fsr-lint -- --json | diff -u tests/golden/lint.json -
# Static-vs-dynamic scoring: exit 1 unless every seeded-race mutant gets
# its expected static codes, precision == 1.000 (no unconfirmed static
# report anywhere) and recall >= 0.85 against the happens-before ground
# truth (relational index domain recovers the pairs the section domain
# alone had to suppress).
cargo run -q --release --bin fsr-lint -- --validate >/dev/null
# False-sharing advisor: FSR-W004 must agree with the simulator's
# per-object miss taxonomy on every workload (completeness per object,
# soundness per block), and the full report is pinned byte-for-byte.
cargo run -q --release --bin fsr-lint -- --advise | diff -u tests/golden/advise.json -
# Directory ablation must reproduce the checked-in golden bit-for-bit at
# the pinned knobs (the report is thread-count invariant).
abl_out="$(mktemp)"
steal_out="$(mktemp)"
exp_out="$(mktemp)"
serve_err="$(mktemp)"
tcp_out="$(mktemp)"
serve_pid=""
trap 'rm -f "$abl_out" "$steal_out" "$exp_out" "$serve_err" "$tcp_out";
    [ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null' EXIT
FSR_NPROC=8 FSR_SCALE=1 FSR_BENCH_OUT="$abl_out" \
    cargo run -q --release --bin directory_ablation >/dev/null
diff -u tests/golden/directory_ablation.json "$abl_out"
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
# The same session over TCP must give the same bytes, so both transports
# are pinned to one transcript. The daemon announces its port on stderr.
# Every wait is bounded: a daemon that never listens, never answers or
# never exits fails this step instead of hanging it.
target/release/fsr-serve --tcp 127.0.0.1:0 2>"$serve_err" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port="$(sed -n 's/^fsr-serve: listening on .*:\([0-9][0-9]*\)$/\1/p' "$serve_err")"
    [ -z "$port" ] || break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "fsr-serve --tcp announced no port within 10 s:" >&2
    cat "$serve_err" >&2
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$port"
cat tests/golden/serve_smoke_session.jsonl >&3
timeout 120 cat <&3 >"$tcp_out"
exec 3<&-
timeout 10 tail --pid="$serve_pid" -f /dev/null
wait "$serve_pid"
serve_pid=""
diff -u tests/golden/serve_smoke.txt "$tcp_out"
# Reference check: Figure 3, Table 2 and the headline through run_jobs
# (every job a batch of one on its own world, nothing shared) and
# through one shared batch. The bin asserts every row bit-identical; the
# interpretation counts pin how much work the batch shares.
FSR_NPROC=4 FSR_SCALE=1 FSR_BENCH_OUT="$exp_out" \
    cargo run -q --release --bin bench_experiments >/dev/null
for want in '"unbatched_interpretations": 252,' '"batched_interpretations": 39,' \
    '"bit_identical": true'; do
    grep -qF "$want" "$exp_out" || {
        echo "bench_experiments: expected $want in:" >&2
        cat "$exp_out" >&2
        exit 1
    }
done
# The README's entry points to run_pipeline, run once each.
cargo run -q --release --example quickstart >/dev/null
cargo run -q --release --example explorer -- pverify 4 128 >/dev/null
cargo run -q --release --example blocksweep >/dev/null
cargo run -q --release --example speedup >/dev/null
echo "tier1: OK"
