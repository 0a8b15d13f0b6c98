#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints-as-errors, the
# repo's own static-analysis pass (pml-lint), release build, and the test
# suite. CI (.github/workflows/ci.yml) runs exactly this script, so a
# clean local run means a green check.
#
# Nightly-only dynamic-analysis lanes are separate (see the workflow):
#   cargo xtask tsan    # ThreadSanitizer on the shared Tuner + serve daemon
#   cargo xtask miri    # Miri on mlcore + collectives unit tests
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo xtask lint"
cargo xtask lint

if cargo deny --version >/dev/null 2>&1; then
    echo "==> cargo deny check"
    cargo deny check bans licenses sources
else
    echo "==> cargo deny: not installed, skipping (CI runs it)"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo xtask verify-artifacts"
cargo xtask verify-artifacts

echo "==> cargo xtask verify-schedules"
cargo xtask verify-schedules

echo "==> cargo xtask verify-costs"
cargo xtask verify-costs

echo "==> cargo test -q"
cargo test -q

echo "==> obs-determinism lane"
./scripts/obs_determinism.sh

echo "==> serve smoke lane"
./scripts/serve_smoke.sh

echo "==> serve bench gate (fresh p99 vs committed BENCH_serve.json)"
./scripts/bench_gate.sh

echo "==> cargo bench -- --test (smoke: each bench runs once)"
cargo bench -p pml-bench -- --test

echo "CI gate passed."
