//! `store_bench` — durability benchmark: snapshot save/open latency and the
//! value of warm restart.
//!
//! A child process (`--prepare`) loads the cars table, builds a CAD View
//! (populating the stats cache), and saves a snapshot; the process boundary
//! matters because table-id adoption — the gate for rehydrating persisted
//! cluster solutions — only engages when the snapshot comes from another
//! process, exactly as in a real server restart. The parent then measures:
//!
//! * `open_ms` — decoding + digest-verifying the snapshot,
//! * `save_ms` / `save_reuse_ms` — a cold save vs. one where every segment
//!   is content-addressed-reused and only the manifest is rewritten,
//! * `cold_build_ms` vs. `warm_first_build_ms` — the first CAD build after
//!   restart without and with the rehydrated cluster solutions,
//!
//! and writes `BENCH_store.json` in the shared bench envelope:
//!
//! ```text
//! cargo run --release -p dbex-bench --bin store_bench             # full (40K rows)
//! cargo run --release -p dbex-bench --bin store_bench -- --quick  # CI smoke (4K)
//! ```

use dbex_bench::{median_ms, rounded, warn_if_debug, write_report};
use dbex_obs::Json;
use dbex_query::Session;
use dbex_store::{open, save, OpenReport, RealVfs};
use dbex_table::Table;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 7;
const RUNS: usize = 5;

const VIEW_SQL: &str =
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbex-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Child step: build the view and save tables + cluster solutions.
fn run_prepare(dir: &Path, rows: usize) -> i32 {
    let mut session = Session::new();
    session.register_table("cars", dbex_data::UsedCarsGenerator::new(SEED).generate(rows));
    session.execute(VIEW_SQL).expect("CAD build in the prepare child");
    let tables = session.tables_snapshot();
    let report =
        save(&RealVfs, dir, &tables, Some(session.stats_cache())).expect("prepare save");
    assert!(report.cluster_entries > 0, "prepare child cached no cluster solutions");
    0
}

fn session_with(report: &OpenReport) -> Session {
    let mut session = Session::new();
    for (name, table) in &report.tables {
        session.register_shared(name.clone(), Arc::clone(table));
    }
    session
}

/// Times one `EXPLAIN ANALYZE` CAD build and pulls the reuse counter out of
/// its report.
fn timed_build(session: &mut Session) -> (f64, u64) {
    let started = Instant::now();
    let out = session
        .execute(&format!("EXPLAIN ANALYZE {VIEW_SQL}"))
        .expect("EXPLAIN ANALYZE build");
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    let render = out.render();
    let reused = render
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("cluster reuse: "))
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .expect("EXPLAIN ANALYZE output has a cluster reuse line");
    (elapsed, reused)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut rows = 40_000usize;
    let mut out_path = "BENCH_store.json".to_owned();
    let mut prepare: Option<(String, usize)> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                quick = true;
                rows = 4_000;
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--prepare" => {
                let dir = args.next().expect("--prepare needs a directory");
                let rows = args
                    .next()
                    .expect("--prepare needs a row count")
                    .parse()
                    .expect("--prepare rows must be an integer");
                prepare = Some((dir, rows));
            }
            other => {
                eprintln!("unknown flag {other}; try --quick, --out");
                std::process::exit(2);
            }
        }
    }
    if let Some((dir, rows)) = prepare {
        std::process::exit(run_prepare(Path::new(&dir), rows));
    }

    warn_if_debug();
    let dir = scratch("main");
    let exe = std::env::current_exe().expect("current_exe");
    eprintln!("store_bench: preparing a {rows}-row snapshot in a child process ...");
    let status = std::process::Command::new(&exe)
        .arg("--prepare")
        .arg(&dir)
        .arg(rows.to_string())
        .status()
        .expect("spawn the prepare child");
    assert!(status.success(), "prepare child failed: {status}");

    // Open latency (and the report the build comparison runs from). Only
    // the FIRST open can adopt the persisted table ids — it advances this
    // process's id counter past them — so that is the report to keep; the
    // later runs still decode and digest-verify the same bytes.
    let mut open_samples = Vec::with_capacity(RUNS);
    let mut report = None;
    for _ in 0..RUNS {
        let started = Instant::now();
        let r = open(&RealVfs, &dir).expect("open snapshot");
        open_samples.push(started.elapsed().as_secs_f64() * 1e3);
        report.get_or_insert(r);
    }
    let report = report.expect("at least one open run");
    assert!(report.all_ids_adopted, "cross-process open must adopt the persisted ids");

    // First post-restart build: cold cache vs. rehydrated cache.
    let mut cold = session_with(&report);
    let (cold_build_ms, cold_reused) = timed_build(&mut cold);
    assert_eq!(cold_reused, 0, "a cold cache cannot serve partitions");
    let mut warm = session_with(&report);
    let rehydrated = report.rehydrate_into(warm.stats_cache());
    assert!(rehydrated > 0, "no cluster solutions rehydrated");
    let (warm_first_build_ms, warm_reused) = timed_build(&mut warm);
    assert!(warm_reused > 0, "warm restart served no partitions from cache");

    // Save latency: cold (every segment written) vs. reuse (manifest only).
    let tables: Vec<(String, Arc<Table>)> = report.tables.clone();
    let mut save_samples = Vec::with_capacity(RUNS);
    let mut reuse_samples = Vec::with_capacity(RUNS);
    let mut bytes_written = 0u64;
    for i in 0..RUNS {
        let fresh = scratch(&format!("save-{i}"));
        let started = Instant::now();
        let r = save(&RealVfs, &fresh, &tables, None).expect("cold save");
        save_samples.push(started.elapsed().as_secs_f64() * 1e3);
        bytes_written = r.bytes_written;
        let started = Instant::now();
        let r = save(&RealVfs, &fresh, &tables, None).expect("reuse save");
        reuse_samples.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.segments_written, 0, "unchanged catalog must reuse every segment");
        let _ = std::fs::remove_dir_all(&fresh);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let save_ms = median_ms(&save_samples);
    let save_reuse_ms = median_ms(&reuse_samples);
    let open_ms = median_ms(&open_samples);
    eprintln!(
        "store_bench: save {save_ms:.2}ms (reuse {save_reuse_ms:.2}ms, {bytes_written} bytes), \
         open {open_ms:.2}ms"
    );
    eprintln!(
        "store_bench: first build after restart: cold {cold_build_ms:.2}ms, \
         warm {warm_first_build_ms:.2}ms ({warm_reused} partition(s) from cache)"
    );

    let params = Json::obj([("quick", quick.into()), ("runs", RUNS.into())]);
    let point = Json::obj([
        ("rows", rows.into()),
        ("save_ms", rounded(save_ms)),
        ("save_reuse_ms", rounded(save_reuse_ms)),
        ("open_ms", rounded(open_ms)),
        ("snapshot_bytes", bytes_written.into()),
        ("cold_build_ms", rounded(cold_build_ms)),
        ("warm_first_build_ms", rounded(warm_first_build_ms)),
        ("rehydrated_solutions", rehydrated.into()),
        ("partitions_reused", warm_reused.into()),
    ]);
    let report = dbex_bench::report("store_bench", params, vec![point]);
    if let Err(e) = write_report(&out_path, &report) {
        eprintln!("store_bench: {e}");
        std::process::exit(1);
    }
    println!("store_bench: wrote {out_path}");
}
