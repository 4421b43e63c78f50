//! A short run of every workload, untraced and traced. Each must exit 0,
//! pass its own output check, and print the metric set its mode promises.
//! Run with `cargo test --release`: a debug build is slow enough that the
//! windows below may not reach the determinism checkpoint.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["cad_cold", "explore_hot", "shared_worker"];

const END_TO_END: [&str; 10] = [
    "setup_s",
    "cad_first_ms_p50",
    "cad_first_ms_p95",
    "cad_final_ms_p50",
    "cad_final_ms_p95",
    "interact_ms_p50",
    "suggest_ms_p50",
    "ops_per_s",
    "ok_rate",
    "rss_mb",
];

/// A sample of the per-layer metrics, one or two per layer.
const PER_LAYER: [&str; 12] = [
    "serve.overhead_ms_p50",
    "serve.wait_ms_p50",
    "query.execute_ms_p50.cad",
    "table.filter_ms_p50",
    "cad.build_ms_p50",
    "cad.partitions_reused_ratio",
    "cluster.onehot_builds",
    "cad.topk_ms_p50",
    "stats.cache_hit_ratio",
    "suggest.rank_ms_p50",
    "store.open_ms",
    "obs.trace_overhead_pct",
];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench")
}

fn result_line(workload: &str, trace: &str) -> String {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload} trace {trace}: {line}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    line
}

fn has_metric(line: &str, name: &str) -> bool {
    line.contains(&format!("\"{name}\": {{\"value\": "))
}

#[test]
fn every_workload_runs_and_checks_out() {
    for workload in WORKLOADS {
        let line = result_line(workload, "0");
        for name in END_TO_END {
            assert!(has_metric(&line, name), "{workload} lacks {name}: {line}");
        }
        assert!(!has_metric(&line, PER_LAYER[0]), "{workload}: {line}");

        let traced = result_line(workload, "1");
        for name in PER_LAYER {
            assert!(
                has_metric(&traced, name),
                "{workload} lacks {name}: {traced}"
            );
        }
        assert!(!has_metric(&traced, END_TO_END[0]), "{workload}: {traced}");
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "cad_cold", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cad_cold",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
