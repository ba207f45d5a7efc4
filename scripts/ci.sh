#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Everything runs offline (the workspace has no external dependencies);
# pass --quick to skip the release build for a fast local loop.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

if [[ "$quick" == "0" ]]; then
    echo "== cargo build --release =="
    cargo build --offline --release

    echo "== cargo build --release --examples =="
    cargo build --offline --release --examples
fi

echo "== cargo test (workspace) =="
cargo test --offline --workspace -q

# The direct conv kernel's scalar twin must keep batched serving bitwise
# equal to per-row serving on hosts without AVX2+FMA, too.
echo "== cargo test (nn + serve + serving integration, forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo test --offline -q -p sensact-nn -p sensact-serve
SENSACT_FORCE_SCALAR=1 cargo test --offline -q --test serve_integration

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

echo "== bench_obs smoke (quick mode) =="
SENSACT_QUICK=1 cargo bench --offline -p sensact-bench --bench bench_obs

echo "== bench_gate (perf-regression gate vs committed baselines) =="
cargo run --offline --release -p sensact-bench --bin bench_gate

echo "== replay round-trip (1k-tick faulty run) =="
cargo test --offline -q --test replay_integration

echo "== checkpoint conformance (restore mid-recording, zero-divergence tail) =="
cargo test --offline -q -p sensact-core --test checkpoint_replay

echo "== conformance smoke (differential kernel matrix, host ISA) =="
cargo run --offline --release -p sensact-bench --bin conformance -- --smoke

echo "== conformance smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin conformance -- --smoke

echo "== kernels bench smoke (SIMD + precision tiers, host ISA) =="
cargo run --offline --release -p sensact-bench --bin kernels -- --smoke

echo "== kernels bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin kernels -- --smoke

echo "== fleet scheduler smoke (throughput + overhead) =="
cargo run --offline --release -p sensact-bench --bin bench_sched -- --smoke

echo "== checkpoint bench smoke (snapshot/restore/migration, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_ckpt -- --smoke

echo "== checkpoint bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_ckpt -- --smoke

echo "== federated fleet smoke (network sweeps, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_fed -- --smoke

echo "== federated fleet smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_fed -- --smoke

echo "== serving integration (batched bitwise identity + crash recovery) =="
cargo test --offline -q --test serve_integration

echo "== serving bench smoke (loopback throughput, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_serve -- --smoke

echo "== serving bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_serve -- --smoke

# The repo benchmark exits 1 when its correctness checks fail (batched Acts
# bitwise equal to per-loop replay, edge action/trust hash equal to the
# untimed reference robot), so a short run of each gated workload is a gate.
echo "== repo benchmark build =="
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml

bench() {
    cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 2 --trace 0 > /dev/null
}

echo "== repo benchmark smoke (serve-loopback + edge-lidar, host ISA) =="
bench serve-loopback
bench edge-lidar

echo "== repo benchmark smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 bench serve-loopback
SENSACT_FORCE_SCALAR=1 bench edge-lidar

echo "CI gate passed."
