//! `bench_suite` — the machine-readable CAD construction benchmark.
//!
//! Runs the Figure-8 worst-case workload and the Table-1 workload at
//! several pool sizes (1 / 2 / 8 / auto threads, keeping only those the
//! host has hardware threads for), checks that every parallel build
//! renders byte-identically to the sequential one, and writes medians
//! over repeated runs to a JSON report (`BENCH_cad.json` by default).
//! Every point is measured twice: **cold** (a fresh build, no cache) and
//! **warm** (rebuilds against a `StatsCache` primed by one preceding
//! build, so codec, contingency and cluster-partition reuse all engage).
//! The report is the shared bench envelope (`dbex_bench::report`) with
//! one point per workload: its per-pool-size timings, a `"warm_cache"`
//! object (hits / misses / partitions served from the cluster-reuse
//! cache), `"span_medians_ms"` (per-span medians over repeated traced
//! builds), a `"kernel_speedups"` object (the kernel-heavy spans' median
//! speedup at the max measured pool size over 1 thread) and a
//! `"span_breakdown"` tree. It is validated against the harness's field
//! table before it is written; a bad report is a hard failure (exit
//! code 1).
//!
//! ```text
//! cargo run --release -p dbex-bench --bin bench_suite             # full, ≥5 runs/point
//! cargo run --release -p dbex-bench --bin bench_suite -- --quick  # CI smoke, 1 run/point
//! cargo run --release -p dbex-bench --bin bench_suite -- --out target/bench.json --runs 7
//! cargo run --release -p dbex-bench --bin bench_suite -- --baseline BENCH_cad.json
//! ```
//!
//! `--baseline <report.json>` additionally diffs the fresh report
//! against a committed one (`dbex_bench::diff_reports`) and exits
//! non-zero when the `cluster_partition` median regresses by more than
//! 25% on any workload; runs whose params differ — e.g. a `--quick` run
//! against a full baseline — are skipped, not failed.
//!
//! `DBEX_THREADS` pins what the `auto` (0) pool size resolves to, so CI
//! can keep the run reproducible on any machine.

use dbex_bench::{
    base_cars_table, diff_against, five_make_view, median_ms, report, rounded, span_totals_ms,
    warn_if_debug, worst_case_request, write_report, FIVE_MAKES,
};
use dbex_core::{
    build_cad_view, build_cad_view_cached, build_cad_view_traced, CadRequest, CadView, StatsCache,
    Tracer,
};
use dbex_obs::Json;
use dbex_table::View;
use std::time::Instant;

/// The kernel-heavy spans whose thread-scaling speedup the report
/// records (`"kernel_speedups"`): the packed clustering walk and the
/// chi-square contingency fill.
const KERNEL_SPANS: [&str; 2] = ["cluster_partition", "compare_attrs"];

/// One workload: a named request.
struct Workload {
    name: &'static str,
    request: CadRequest,
}

/// Timings and the determinism verdict for one workload × thread count.
struct Cell {
    threads: usize,
    cold_runs_ms: Vec<f64>,
    warm_runs_ms: Vec<f64>,
    matches_sequential: bool,
}

/// Cache effectiveness observed by the sequential warm rebuilds.
struct WarmCache {
    hits: u64,
    misses: u64,
    partitions_reused: usize,
}

fn main() {
    warn_if_debug();
    let mut quick = false;
    let mut out_path = "BENCH_cad.json".to_owned();
    let mut baseline_path: Option<String> = None;
    let mut runs = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => die("--out requires a path"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => die("--baseline requires a path"),
            },
            "--runs" => match args.next().map(|r| r.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => runs = n,
                _ => die("--runs requires a positive integer"),
            },
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if quick {
        runs = 1;
    }

    let auto = dbex_par::resolve_threads(0);
    let hardware = dbex_par::hardware_threads();
    // 1 is the sequential baseline; 2 and 8 chart scaling; `auto` is what
    // `.threads auto` / DBEX_THREADS actually give users on this machine.
    // A pool larger than the hardware measures time-slicing, not scaling.
    let mut thread_counts: Vec<usize> = if quick { vec![1, auto] } else { vec![1, 2, 8, auto] };
    thread_counts.retain(|&t| t == 1 || t <= hardware);
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let table = base_cars_table();
    let population = five_make_view(&table);
    // Both workloads build over result sets of this size.
    let rows = if quick { 5_000 } else { 40_000 };
    let workloads = [
        Workload {
            name: "fig8_worst_case",
            request: worst_case_request(),
        },
        Workload {
            name: "table1_defaults",
            request: CadRequest::new("Make")
                .with_pivot_values(FIVE_MAKES.to_vec())
                .with_compare(vec!["Price"])
                .with_max_compare_attrs(5)
                .with_iunits(3),
        },
    ];

    println!(
        "bench_suite: {} run(s)/point, threads {:?}, auto = {auto} (hardware {hardware}, DBEX_THREADS {})",
        runs,
        thread_counts,
        std::env::var("DBEX_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    println!(
        "kernel dispatch: {} (cpu: {})",
        dbex_stats::simd::dispatch().name(),
        dbex_stats::simd::cpu_features()
    );

    let mut points = Vec::new();
    for workload in &workloads {
        let result = population.sample(rows);
        let (cells, warm_cache) = run_workload(workload, &result, &thread_counts, runs);
        let seq_median = cells
            .iter()
            .find(|c| c.threads == 1)
            .map(|c| median_ms(&c.cold_runs_ms))
            .unwrap_or(0.0);
        let deterministic = cells.iter().all(|c| c.matches_sequential);
        if !deterministic {
            die(&format!(
                "{}: parallel or warm render diverged from sequential",
                workload.name
            ));
        }
        println!("\n{} ({} rows):", workload.name, result.len());
        for cell in &cells {
            let cold = median_ms(&cell.cold_runs_ms);
            let warm = median_ms(&cell.warm_runs_ms);
            let speedup = if cold > 0.0 { seq_median / cold } else { 0.0 };
            println!(
                "  {:>2} thread(s): cold median {:>9.1} ms, warm median {:>9.1} ms  \
                 (cold speedup {:.2}x, output identical)",
                cell.threads, cold, warm, speedup
            );
        }
        println!(
            "  warm cache: {} hit(s), {} miss(es), {} partition(s) reused per rebuild",
            warm_cache.hits, warm_cache.misses, warm_cache.partitions_reused
        );
        let (breakdown, span_medians) = span_breakdown(workload, &result, runs, 1);
        // Kernel-only speedups: the kernel-heavy spans' medians at the
        // max measured pool size over the sequential medians, isolating
        // the intra-partition chunking from end-to-end effects.
        let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
        let max_span_medians = if max_threads > 1 {
            span_breakdown(workload, &result, runs, max_threads).1
        } else {
            span_medians.clone()
        };
        let kernel_speedups: Vec<(String, f64)> = KERNEL_SPANS
            .iter()
            .filter_map(|&span| {
                let seq = span_medians.iter().find(|(n, _)| n == span)?.1;
                let par = max_span_medians.iter().find(|(n, _)| n == span)?.1;
                (par > 0.0).then(|| (span.to_owned(), seq / par))
            })
            .collect();
        for (span, speedup) in &kernel_speedups {
            println!("  kernel span {span}: {speedup:.2}x at {max_threads} thread(s)");
        }
        points.push(point_json(
            workload,
            &cells,
            seq_median,
            &warm_cache,
            breakdown,
            &span_medians,
            &kernel_speedups,
        ));
    }

    let params = Json::obj([
        ("quick", quick.into()),
        ("rows", rows.into()),
        ("runs_per_point", runs.into()),
    ]);
    let text =
        write_report(&out_path, &report("bench_suite", params, points)).unwrap_or_else(|e| die(&e));
    println!("\nwrote {out_path}");

    if let Some(path) = baseline_path {
        let diff = diff_against(&text, &path)
            .unwrap_or_else(|e| die(&format!("baseline diff failed: {e}")));
        if diff.gate_failed {
            die(&format!(
                "cluster_partition median regressed past its gate vs {path}"
            ));
        }
    }
}

/// Builds the workload at every pool size, `runs` times each cold and —
/// against a cache primed by one preceding build — `runs` times warm,
/// checking every render (parallel and warm alike) against the
/// sequential cold one.
fn run_workload(
    workload: &Workload,
    result: &View<'_>,
    thread_counts: &[usize],
    runs: usize,
) -> (Vec<Cell>, WarmCache) {
    let mut sequential_render: Option<String> = None;
    let mut cells = Vec::with_capacity(thread_counts.len());
    let mut warm_cache = WarmCache {
        hits: 0,
        misses: 0,
        partitions_reused: 0,
    };
    for &threads in thread_counts {
        let mut request = workload.request.clone();
        request.config.threads = threads;
        let mut cold_runs_ms = Vec::with_capacity(runs);
        let mut last: Option<CadView> = None;
        for _ in 0..runs {
            let start = Instant::now();
            let cad = build_cad_view(result, &request).unwrap_or_else(|e| {
                die(&format!("{} failed at {threads} threads: {e}", workload.name))
            });
            cold_runs_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
            last = Some(cad);
        }
        // Warm path: one untimed priming build populates the cache, then
        // every timed rebuild reuses codecs, contingency tables and
        // untouched cluster partitions.
        let cache = StatsCache::new();
        build_cad_view_cached(result, &request, Some(&cache)).unwrap_or_else(|e| {
            die(&format!(
                "{} warm prime failed at {threads} threads: {e}",
                workload.name
            ))
        });
        let mut warm_runs_ms = Vec::with_capacity(runs);
        let mut warm_last: Option<CadView> = None;
        for _ in 0..runs {
            let start = Instant::now();
            let cad = build_cad_view_cached(result, &request, Some(&cache)).unwrap_or_else(|e| {
                die(&format!(
                    "{} warm build failed at {threads} threads: {e}",
                    workload.name
                ))
            });
            warm_runs_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
            warm_last = Some(cad);
        }
        if threads == 1 {
            let stats = cache.stats();
            warm_cache.hits = stats.hits;
            warm_cache.misses = stats.misses;
            warm_cache.partitions_reused = warm_last
                .as_ref()
                .map(|c| c.partitions_reused)
                .unwrap_or(0);
        }
        let render = last.map(|c| c.render()).unwrap_or_default();
        let warm_render = warm_last.map(|c| c.render()).unwrap_or_default();
        let matches_sequential = match &sequential_render {
            None => {
                sequential_render = Some(render.clone());
                warm_render == render
            }
            Some(seq) => *seq == render && *seq == warm_render,
        };
        cells.push(Cell {
            threads,
            cold_runs_ms,
            warm_runs_ms,
            matches_sequential,
        });
    }
    (cells, warm_cache)
}

/// The traced span tree of `runs` extra builds at the given pool size:
/// returns the last run's tree (the structural fields — span names, call
/// counts, rows scanned, cache hits — are deterministic) plus per-span
/// medians of total duration across the runs, the values the
/// `--baseline` gate and the `kernel_speedups` object compare.
fn span_breakdown(
    workload: &Workload,
    result: &View<'_>,
    runs: usize,
    threads: usize,
) -> (Json, Vec<(String, f64)>) {
    let mut request = workload.request.clone();
    request.config.threads = threads;
    let mut tree = Json::Arr(Vec::new());
    let mut per_span: Vec<(String, Vec<f64>)> = Vec::new();
    for _ in 0..runs.max(1) {
        let tracer = Tracer::enabled();
        let cad = build_cad_view_traced(result, &request, None, None, &tracer)
            .unwrap_or_else(|e| die(&format!("{} traced build failed: {e}", workload.name)));
        let Some(trace) = cad.trace else { continue };
        for (name, ms) in span_totals_ms(&trace) {
            match per_span.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(ms),
                None => per_span.push((name, vec![ms])),
            }
        }
        tree = trace.to_json();
    }
    let medians = per_span
        .into_iter()
        .map(|(name, samples)| (name, median_ms(&samples)))
        .collect();
    (tree, medians)
}

/// One workload's point of the report.
fn point_json(
    workload: &Workload,
    cells: &[Cell],
    seq_median: f64,
    warm_cache: &WarmCache,
    span_breakdown: Json,
    span_medians: &[(String, f64)],
    kernel_speedups: &[(String, f64)],
) -> Json {
    let max_threads = cells.iter().map(|c| c.threads).max().unwrap_or(1);
    let max_median = cells
        .iter()
        .find(|c| c.threads == max_threads)
        .map(|c| median_ms(&c.cold_runs_ms))
        .unwrap_or(0.0);
    let speedup = if max_median > 0.0 {
        seq_median / max_median
    } else {
        0.0
    };
    let runs = |runs_ms: &[f64]| Json::Arr(runs_ms.iter().map(|&ms| rounded(ms)).collect());
    let pools = cells
        .iter()
        .map(|c| {
            Json::obj([
                ("threads", c.threads.into()),
                ("cold_median_ms", rounded(median_ms(&c.cold_runs_ms))),
                ("warm_median_ms", rounded(median_ms(&c.warm_runs_ms))),
                ("cold_runs_ms", runs(&c.cold_runs_ms)),
                ("warm_runs_ms", runs(&c.warm_runs_ms)),
                ("output_matches_sequential", c.matches_sequential.into()),
            ])
        })
        .collect();
    let named = |values: &[(String, f64)]| {
        Json::Obj(
            values
                .iter()
                .map(|(name, x)| (name.clone(), rounded(*x)))
                .collect(),
        )
    };
    Json::obj([
        ("workload", workload.name.into()),
        ("pools", Json::Arr(pools)),
        ("speedup_at_max_threads", rounded(speedup)),
        (
            "warm_cache",
            Json::obj([
                ("hits", warm_cache.hits.into()),
                ("misses", warm_cache.misses.into()),
                ("partitions_reused", warm_cache.partitions_reused.into()),
            ]),
        ),
        ("span_medians_ms", named(span_medians)),
        ("kernel_speedups", named(kernel_speedups)),
        ("span_breakdown", span_breakdown),
    ])
}

fn die(msg: &str) -> ! {
    eprintln!("bench_suite: {msg}");
    std::process::exit(1);
}
