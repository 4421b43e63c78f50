//! Golden snapshot tests over the observability surface.
//!
//! `EXPLAIN ANALYZE CADVIEW` output and the REPL's `.metrics` dump are
//! compared against checked-in snapshots under `tests/snapshots/`, with
//! every wall-clock-dependent field masked by
//! [`dbexplorer::obs::mask_timings`] first. Structural fields — span
//! names, call counts, rows scanned, cache hits/misses, degradation
//! level, chi-square scores — are compared byte-for-byte.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test observability
//! ```
//!
//! Cache-counter determinism depends on one session per build: the
//! session's StatsCache starts empty, so hit/miss deltas are a function
//! of the build alone.

#[path = "common/snapshot.rs"]
mod snapshot;

use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::obs::mask_timings;
use dbexplorer::query::{QueryOutput, Session};
use dbexplorer::table::Table;
use snapshot::assert_snapshot;

/// The three datasets of `parallel_determinism.rs`, with their pivots.
fn datasets() -> Vec<(&'static str, Table, &'static str)> {
    vec![
        ("cars", UsedCarsGenerator::new(7).generate(6_000), "Make"),
        ("mushroom", MushroomGenerator::new(7).generate(4_000), "Odor"),
        ("hotels", HotelsGenerator::new(7).generate(4_000), "District"),
    ]
}

/// Runs `EXPLAIN ANALYZE CADVIEW` over a fresh session and returns the
/// masked report.
fn masked_explain_analyze(name: &str, table: Table, pivot: &str, threads: usize) -> String {
    let mut session = Session::new();
    session.set_threads(threads);
    session.register_table(name, table);
    let sql =
        format!("EXPLAIN ANALYZE CADVIEW v AS SET pivot = {pivot} FROM {name} IUNITS 3");
    let out = session
        .execute(&sql)
        .unwrap_or_else(|e| panic!("{name}: EXPLAIN ANALYZE failed: {e}"));
    let QueryOutput::Text(text) = out else {
        panic!("{name}: EXPLAIN ANALYZE returned a non-text output");
    };
    mask_timings(&text)
}

#[test]
fn explain_analyze_matches_snapshot_per_dataset() {
    for (name, table, pivot) in datasets() {
        let masked = masked_explain_analyze(name, table, pivot, 1);
        // Sanity before pinning: the report must actually carry the
        // analyze section and the structural counters.
        assert!(masked.contains("analyze (per-phase spans):"), "{name}:\n{masked}");
        assert!(masked.contains("cad_build"), "{name}:\n{masked}");
        assert!(masked.contains("cache_hits="), "{name}:\n{masked}");
        assert!(masked.contains("degradation_level="), "{name}:\n{masked}");
        assert!(!masked.contains("ms "), "unmasked duration in {name}:\n{masked}");
        assert_snapshot(&format!("explain_analyze_{name}.txt"), &masked);
    }
}

#[test]
fn explain_analyze_masked_output_is_thread_count_invariant() {
    // Everything except wall time is part of the determinism contract:
    // the masked report must be byte-identical at 1, 2, and 8 threads.
    for (name, table, pivot) in datasets() {
        let reference = masked_explain_analyze(name, table.clone(), pivot, 1);
        for threads in [2, 8] {
            let masked = masked_explain_analyze(name, table.clone(), pivot, threads);
            assert_eq!(
                masked, reference,
                "{name}: masked EXPLAIN ANALYZE diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn repl_metrics_dump_matches_snapshot() {
    // The metrics registry is process-wide, so the golden runs in a
    // subprocess REPL: one fixed script, whole stdout masked. In-process
    // assertions would race with every other test that builds a view.
    use std::io::Write;
    use std::process::{Command, Stdio};
    let script = ".load cars 2000 7\n\
                  .trace on\n\
                  CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2;\n\
                  .metrics\n\
                  .quit\n";
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbex"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dbex binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let output = child.wait_with_output().expect("dbex exits");
    assert!(output.status.success(), "dbex exited with failure");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    // The mask hides timing-histogram contents, so check here that the
    // one build observed exactly one `cad.build_ms` sample.
    let build_ms = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("histogram  cad.build_ms"))
        .unwrap_or_else(|| panic!("no cad.build_ms histogram in:\n{stdout}"));
    assert_eq!(
        build_ms.split_whitespace().next(),
        Some("count=1"),
        "cad.build_ms must hold one observation per build: {build_ms}"
    );
    let masked = mask_timings(&stdout);
    assert!(masked.contains("metrics registry"), "{masked}");
    assert!(masked.contains("counter"), "{masked}");
    assert!(masked.contains("cad.builds"), "{masked}");
    assert!(masked.contains("trace (per-phase spans):"), "{masked}");
    assert_snapshot("repl_metrics.txt", &masked);
}
