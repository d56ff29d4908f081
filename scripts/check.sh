#!/usr/bin/env bash
# Full gate: formatting, lints, the complete test suite, and the smoke runs
# of every binary, example and bench. CI (.github/workflows/ci.yml) runs
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (-D warnings) over the project packages (vendored stand-ins excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release -p elp2im-core (the op path that never builds its BatchPlan)"
cargo test -q --release -p elp2im-core

echo "==> every bench target builds"
cargo bench --workspace --no-run -q

echo "==> every example (most assert device results against software)"
for example in examples/*.rs; do
    cargo run -q --release --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> bench binaries (--smoke: render -> parse -> schema-validate every report)"
cargo run -q --release -p elp2im-bench --bin all_experiments -- --smoke > /dev/null

echo "==> fig11 --selftest (serial vs parallel Monte-Carlo agreement)"
cargo run -q --release -p elp2im-bench --bin fig11 -- --selftest

echo "==> elp2im-lint over the golden corpus (no errors, no warnings)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --corpus --deny-warnings > /dev/null

echo "==> elp2im-lint --self-test (optimizer translation validation)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --self-test

echo "==> elp2im-lint rejects every seeded-invalid fixture"
for fixture in crates/bench/tests/lint_fixtures/invalid_*.prmt; do
    if cargo run -q --release -p elp2im-bench --bin elp2im-lint -- "$fixture" > /dev/null 2>&1; then
        echo "lint accepted invalid fixture $fixture" >&2
        exit 1
    fi
done

echo "==> elp2im-lint --plan over the plan corpus (no errors, no warnings)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --plan --corpus --deny-warnings > /dev/null

echo "==> elp2im-lint --plan rejects every seeded-invalid plan fixture"
for fixture in crates/bench/tests/lint_fixtures/plan_invalid_*.prmt; do
    if cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --plan "$fixture" > /dev/null 2>&1; then
        echo "plan verifier accepted invalid plan $fixture" >&2
        exit 1
    fi
done

echo "==> fig13 --trace-json round trip"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q --release -p elp2im-bench --bin fig13 -- --trace-json "$trace_dir/trace.json" > /dev/null
grep -q '"elp2im-trace-v1"' "$trace_dir/trace.json"

echo "==> perf_report smoke (emit + schema-validate BENCH_006)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --smoke --out "$trace_dir/bench_006.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_006.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_006.json

echo "==> fault-injection soak smoke (emit + validate BENCH_007)"
ELP2IM_SOAK_OPS=24 cargo test -q --test fault_injection_soak > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --soak --smoke --out "$trace_dir/bench_007.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_007.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_007.json

echo "==> topology scaling (emit + validate BENCH_008, deterministic)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --topology --out "$trace_dir/bench_008.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_008.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_008.json

echo "==> logic synthesis (emit + validate BENCH_009, deterministic; auto-XOR <= 297 ns)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --synth --out "$trace_dir/bench_009.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_009.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_009.json

echo "==> batch bench smoke (vendored criterion --smoke fast path)"
cargo bench -q -p elp2im-bench --bench batch -- --smoke > /dev/null

echo "==> perfbench correctness smoke (references, repeats, traced makespan/certify agreement)"
# perfbench exits 0 even when a request fails its checks, so gate on the
# `"correct": true` field of its final JSON line.
for workload in bitmap scan; do
    last="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 1 | tail -n 1)"
    if ! grep -q '"correct": true' <<< "$last"; then
        echo "perfbench $workload failed its correctness checks: $last" >&2
        exit 1
    fi
done

echo "All checks passed."
