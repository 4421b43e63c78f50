#!/usr/bin/env bash
# Full local gate: release build, tests, and lint-clean libraries.
#
# The clippy step runs with -D warnings, and the library crates carry
# `#![warn(clippy::unwrap_used, clippy::expect_used)]` outside #[cfg(test)],
# so any new unwrap/expect in library code fails this script.
#
# `cargo test -q --workspace` runs every in-process check, the golden
# transcripts of the REPL and the wire included
# (tests/observability.rs, tests/serve_determinism.rs,
# tests/suggest_golden.rs); regenerate those with
# `UPDATE_SNAPSHOTS=1 cargo test`. Only checks that need a separate
# process are binaries of their own: the store smoke and `kernel_ab`.
#
# `--bench-smoke` additionally runs the CAD bench harness in --quick mode
# with DBEX_THREADS pinned, so the run is reproducible on any machine.
# bench_suite exits non-zero if any parallel build diverges from the
# sequential render or if the generated report is not well-formed JSON,
# so a bad report fails the gate.
#
# `--bench-regression` runs the *full* bench harness (release, 40K rows)
# and diffs it against the committed BENCH_cad.json: bench_suite exits
# non-zero — failing this gate — when the cluster_partition span median
# regresses by more than 25% on any comparable workload. This takes
# minutes and measures real wall-clock, so it is opt-in, not part of the
# default gate.
#
# `--serve-soak` runs the ignored-by-default 60-second hostile-workload
# soak (mid-request disconnects, oversized/truncated frames, connection
# hammers over the cap) in release mode; shorten with
# DBEX_SERVE_SOAK_SECS. Opt-in because of its wall-clock cost.
#
# The store smoke (also available alone via `--store-smoke`) saves a
# snapshot in a child process, reopens it cold, and fails unless the
# rehydrated cluster solutions serve the first post-restart build from
# cache, the rebuilt view renders byte-identical, and a fault-injected
# save leaves the committed generation intact; it is part of the default
# gate.
#
# `--crash-smoke` SIGKILLs a child that saves alternating catalogs in a
# tight loop and requires every reopen to land on a consistent
# generation — never a panic, never a torn mix. Opt-in because the kill
# ladder sleeps between iterations.
#
# The explore smoke (part of the default gate) runs bench_explore in
# --quick mode: it generates the synthetic exploration dataset, drives a
# few dozen seeded sessions with abandon/reconnect churn over the real
# wire protocol, and self-validates the emitted report against the
# BENCH_explore schema — any session wave that completes zero sessions,
# or a malformed report, fails the gate.
#
# The perfbench tests (part of the default gate) build the repository
# benchmark — `perfbench/`, a package of its own that the workspace build
# never compiles — and run its unit tests plus a 3 s smoke of every
# workload, so a change to an API the benchmark calls fails here.
#
# `--bench-explore` runs the *full* exploration benchmark (64/256/1024
# concurrent sessions over 6K rows) and diffs it against the committed
# BENCH_explore.json: bench_explore exits non-zero — failing this
# gate — when time-to-first-result p50 or overall p99 regresses by more
# than 25% on any comparable session count. The committed baseline holds
# only the 64- and 256-session points, so the 1024-session point is
# measured but not gated. Opt-in: the 1024-session wave with real
# think-times takes minutes of wall-clock.
#
# `--bench-explore-regression` is the seconds-scale CI variant: a
# --quick bench_explore run diffed against the same committed baseline.
# The quick workload is deliberately not latency-comparable to the full
# baseline (the diff reports the mismatch and skips the latency gate),
# but the diff still parses and schema-checks the committed
# BENCH_explore.json — the schema-3 suggest section included — so a
# baseline left stale across a schema bump fails here instead of
# surfacing minutes into the full gate.
#
# `--kernel-ab` is the scalar ↔ SIMD bit-identity gate: it first runs the
# whole test suite pinned to the scalar kernels (DBEX_SIMD=scalar), then
# runs `kernel_ab`, which re-executes itself as one child per dispatch
# family (scalar / sse2 / avx2 / neon, clamped to the hardware) and
# fails unless every family's CAD digests — unstreamed builds and the
# previews of streamed ones — are byte-identical to the scalar
# reference, and unless each family's streamed build (paused after its
# first Lloyd pass, previewed, finished) digests like its unstreamed
# one. Opt-in because it rebuilds and re-runs the suite.

set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch reports accumulate here; one trap cleans them all up.
SCRATCH=()
cleanup() { rm -f "${SCRATCH[@]:-}"; }
trap cleanup EXIT

BENCH_SMOKE=0
BENCH_REGRESSION=0
SERVE_SOAK=0
STORE_SMOKE_ONLY=0
CRASH_SMOKE=0
KERNEL_AB=0
BENCH_EXPLORE=0
BENCH_EXPLORE_REGRESSION=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --bench-regression) BENCH_REGRESSION=1 ;;
    --bench-explore) BENCH_EXPLORE=1 ;;
    --bench-explore-regression) BENCH_EXPLORE_REGRESSION=1 ;;
    --serve-soak) SERVE_SOAK=1 ;;
    --store-smoke) STORE_SMOKE_ONLY=1 ;;
    --crash-smoke) CRASH_SMOKE=1 ;;
    --kernel-ab) KERNEL_AB=1 ;;
    *) echo "usage: $0 [--bench-smoke] [--bench-regression] [--bench-explore] [--bench-explore-regression] [--serve-soak] [--store-smoke] [--crash-smoke] [--kernel-ab]" >&2; exit 2 ;;
  esac
done

if [[ "$SERVE_SOAK" -eq 1 ]]; then
  echo "==> serve soak (hostile mixed workload, ${DBEX_SERVE_SOAK_SECS:-60}s)"
  cargo test --release --test serve_soak -- --ignored --nocapture
  exit 0
fi

if [[ "$STORE_SMOKE_ONLY" -eq 1 ]]; then
  echo "==> store smoke (cross-process warm restart + fault-injected save)"
  cargo run --release --bin store_smoke
  exit 0
fi

if [[ "$CRASH_SMOKE" -eq 1 ]]; then
  echo "==> crash smoke (SIGKILL mid-save loop; every reopen must be consistent)"
  cargo run --release --bin store_smoke -- --crash
  exit 0
fi

if [[ "$KERNEL_AB" -eq 1 ]]; then
  echo "==> kernel A/B gate: full test suite pinned to the scalar kernels"
  DBEX_SIMD=scalar cargo test -q --workspace
  echo "==> kernel A/B gate: per-dispatch CAD digest diff"
  cargo run --release --bin kernel_ab
  exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> store smoke (cross-process warm restart + fault-injected save)"
cargo run --release --bin store_smoke

echo "==> explore smoke (bench_explore --quick, seeded sessions over the wire)"
EXPLORE_OUT="$(mktemp /tmp/bench_explore_smoke.XXXXXX.json)"
SCRATCH+=("$EXPLORE_OUT")
cargo run --release -p dbex-bench --bin bench_explore -- --quick --out "$EXPLORE_OUT"

echo "==> perfbench tests (repository benchmark: unit tests + 3 s smoke per workload)"
cargo test --release --manifest-path perfbench/Cargo.toml

if [[ "$BENCH_SMOKE" -eq 1 ]]; then
  echo "==> bench smoke (bench_suite --quick, DBEX_THREADS=2)"
  SMOKE_OUT="$(mktemp /tmp/bench_cad_smoke.XXXXXX.json)"
  SCRATCH+=("$SMOKE_OUT")
  DBEX_THREADS=2 cargo run --release -p dbex-bench --bin bench_suite -- \
    --quick --out "$SMOKE_OUT"
fi

if [[ "$BENCH_REGRESSION" -eq 1 ]]; then
  echo "==> bench regression gate (full bench_suite vs committed BENCH_cad.json)"
  REG_OUT="$(mktemp /tmp/bench_cad_regression.XXXXXX.json)"
  SCRATCH+=("$REG_OUT")
  cargo run --release -p dbex-bench --bin bench_suite -- \
    --out "$REG_OUT" --baseline BENCH_cad.json
fi

if [[ "$BENCH_EXPLORE" -eq 1 ]]; then
  echo "==> explore regression gate (full bench_explore vs committed BENCH_explore.json)"
  EXPLORE_REG_OUT="$(mktemp /tmp/bench_explore_regression.XXXXXX.json)"
  SCRATCH+=("$EXPLORE_REG_OUT")
  cargo run --release -p dbex-bench --bin bench_explore -- \
    --out "$EXPLORE_REG_OUT" --baseline BENCH_explore.json
fi

if [[ "$BENCH_EXPLORE_REGRESSION" -eq 1 ]]; then
  echo "==> explore regression smoke (bench_explore --quick vs committed BENCH_explore.json)"
  EXPLORE_QREG_OUT="$(mktemp /tmp/bench_explore_qreg.XXXXXX.json)"
  SCRATCH+=("$EXPLORE_QREG_OUT")
  cargo run --release -p dbex-bench --bin bench_explore -- \
    --quick --out "$EXPLORE_QREG_OUT" --baseline BENCH_explore.json
fi

echo "All checks passed."
