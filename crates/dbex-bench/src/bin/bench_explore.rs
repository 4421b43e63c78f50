//! `bench_explore` — the multi-session exploration benchmark.
//!
//! Boots a fresh in-process `dbex-serve` server per concurrency point,
//! loads a seeded synthetic dataset (`dbex-explore`'s generator), and
//! drives N concurrent exploratory sessions over the real wire protocol
//! with think-time pacing and abandon/reconnect churn. Reports, per
//! point:
//!
//! * **time-to-first-result** p50/p99 — session start (including
//!   connect, BUSY backoff, and the seeded first think-time) to the
//!   first successful response;
//! * per-op p50/p99/max latency, overall and split by op kind;
//! * BUSY rejections, error counts, abandon/reconnect counts;
//! * the shared stats cache's cumulative hit trajectory over the run
//!   (sessions all start near t=0, so run time ≈ session lifetime).
//!
//! Output is `BENCH_explore.json` in the shared bench envelope; its
//! params include the server's resolved worker-pool size. `--baseline`
//! diffs against a committed report and exits non-zero when
//! time-to-first-result p50, overall p99 or suggest p50 regresses by
//! more than 25% (and 5 ms) on any matched point, or suggest p50 is
//! above 10 ms. Each point runs several waves and keeps the element-wise
//! minimum; if the waves themselves disagree by more than
//! [`NOISE_SPREAD_LIMIT`], a would-be gate failure is downgraded to a
//! loud INCONCLUSIVE (exit 0) — the host cannot resolve a 25% shift.
//! Everything is seeded: identical
//! `(seed, rows, ops)` produce identical datasets, traces, think-times,
//! and abandon points — only the measured latencies move.

use dbex_bench::{diff_against, median_ms, report, rounded, warn_if_debug, write_report};
use dbex_explore::trace::OpKind;
use dbex_explore::{run_sim, SimConfig, SimReport, SyntheticSpec, TraceConfig};
use dbex_obs::Json;
use dbex_serve::{ServeConfig, Server};
use std::time::Duration;

/// When this run's own waves disagree on a gated metric by more than
/// this relative spread, the measurement cannot resolve a 25% shift:
/// replicate variance exceeds the effect the gate looks for, so a
/// "regression" is indistinguishable from host noise. The gate then
/// reports INCONCLUSIVE (exit 0 with a loud warning) instead of failing
/// spuriously on a loaded machine.
const NOISE_SPREAD_LIMIT: f64 = 0.5;

struct Knobs {
    quick: bool,
    seed: u64,
    rows: usize,
    ops: usize,
    think_min_ms: u64,
    think_max_ms: u64,
    abandon_rate: f64,
    reconnect_rate: f64,
    /// Waves per point; latency metrics are the element-wise **minimum**
    /// across waves (timeit-style best-of-N). Tail percentiles of 1000
    /// threads on a small host are dominated by scheduler noise — a
    /// single wave's p99 can swing 2x between identical runs, and even
    /// the median-of-3 TTFR drifted ±28%, which would make the 25%
    /// regression gate fire on its own baseline. Noise only ever
    /// *inflates* a latency, so the best wave is the stable estimate of
    /// the code's real behaviour, and a genuine regression shifts even
    /// the best wave. The workload itself is fully seeded, so the
    /// counts are identical across waves and reported from the first.
    repeats: usize,
    /// Sessions opt into `.stream on` (the default): expensive CAD
    /// builds answer with a preview frame before the exact one, and
    /// TTFR measures the first frame. `--no-stream` measures the
    /// single-frame protocol for an A/B on the same workload.
    streamed: bool,
    session_counts: Vec<usize>,
}

impl Knobs {
    fn full() -> Knobs {
        Knobs {
            quick: false,
            seed: 42,
            rows: 6_000,
            ops: 12,
            think_min_ms: 5,
            think_max_ms: 40,
            abandon_rate: 0.08,
            reconnect_rate: 0.5,
            repeats: 3,
            streamed: true,
            session_counts: vec![64, 256, 1024],
        }
    }

    fn quick() -> Knobs {
        Knobs {
            quick: true,
            rows: 1_500,
            ops: 6,
            think_min_ms: 0,
            think_max_ms: 3,
            repeats: 1,
            session_counts: vec![8, 32],
            ..Knobs::full()
        }
    }
}

struct Point {
    sessions: usize,
    completed: usize,
    abandoned: usize,
    reconnects: u64,
    requests: usize,
    errors: u64,
    busy_rejections: u64,
    previewed_ops: usize,
    ttfr_p50_ms: f64,
    ttfr_p99_ms: f64,
    first_frame_p50_ms: f64,
    first_frame_p99_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    wall_ms: f64,
    /// `(kind name, count, p50, p99, max)` for kinds that appeared.
    ops: Vec<(&'static str, usize, f64, f64, f64)>,
    /// `(at_ms, hits, misses, evictions, hit_rate)`, downsampled.
    trajectory: Vec<(f64, u64, u64, u64, f64)>,
    /// Worst relative wave-to-wave spread `(max−min)/min` across the
    /// gated metrics — the run's own replicate-variance estimate. Not
    /// serialized; used to refuse a gate verdict the measurement cannot
    /// support (see `main`).
    wave_spread: f64,
    /// The server's resolved worker-pool size; the same for every point,
    /// reported once in the params.
    workers: usize,
}

/// Percentile over a sample set (nearest-rank); empty input is 0.
fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn aggregate(sessions: usize, report: &SimReport, busy_rejections: u64, workers: usize) -> Point {
    let all = report.latencies_ms(None);
    let first_frames = report.first_frame_ms(None);
    let ttfr: Vec<f64> = report
        .outcomes
        .iter()
        .filter_map(|o| o.ttfr.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let ops = OpKind::ALL
        .iter()
        .filter_map(|&kind| {
            let lat = report.latencies_ms(Some(kind));
            if lat.is_empty() {
                return None;
            }
            Some((
                kind.name(),
                lat.len(),
                median_ms(&lat),
                percentile_ms(&lat, 99.0),
                lat.iter().copied().fold(0.0, f64::max),
            ))
        })
        .collect();
    // Downsample the trajectory so a long run doesn't bloat the report;
    // always keep the final cumulative sample.
    let traj = &report.cache_trajectory;
    let stride = traj.len().div_ceil(12).max(1);
    let mut trajectory: Vec<(f64, u64, u64, u64, f64)> = traj
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i + 1 == traj.len())
        .map(|(_, s)| {
            let total = s.hits + s.misses;
            let rate = if total == 0 { 0.0 } else { s.hits as f64 / total as f64 };
            (s.at.as_secs_f64() * 1e3, s.hits, s.misses, s.evictions, rate)
        })
        .collect();
    trajectory.dedup_by_key(|s| s.0.to_bits());
    Point {
        sessions,
        completed: report.outcomes.iter().filter(|o| o.completed).count(),
        abandoned: report.outcomes.iter().filter(|o| o.abandoned).count(),
        reconnects: report.outcomes.iter().map(|o| u64::from(o.reconnects)).sum(),
        requests: report.requests(),
        errors: u64::from(report.errors()),
        busy_rejections,
        previewed_ops: report.previewed_ops(),
        ttfr_p50_ms: median_ms(&ttfr),
        ttfr_p99_ms: percentile_ms(&ttfr, 99.0),
        first_frame_p50_ms: median_ms(&first_frames),
        first_frame_p99_ms: percentile_ms(&first_frames, 99.0),
        p50_ms: median_ms(&all),
        p99_ms: percentile_ms(&all, 99.0),
        max_ms: all.iter().copied().fold(0.0, f64::max),
        wall_ms: report.wall.as_secs_f64() * 1e3,
        ops,
        trajectory,
        wave_spread: 0.0,
        workers,
    }
}

/// Collapses one point's repeated waves into a single [`Point`]:
/// element-wise minimum for every latency metric (including per-op-kind
/// stats and the wall clock — see [`Knobs::repeats`] for why min, not
/// median), counts and the cache trajectory from the first wave (the
/// seeded workload makes them equal across waves).
fn merge_waves(mut waves: Vec<Point>) -> Point {
    let best = |f: fn(&Point) -> f64, waves: &[Point]| {
        waves.iter().map(f).fold(f64::INFINITY, f64::min)
    };
    let spread = |f: fn(&Point) -> f64, waves: &[Point]| {
        let min = waves.iter().map(f).fold(f64::INFINITY, f64::min);
        let max = waves.iter().map(f).fold(0.0, f64::max);
        if min > 0.0 { (max - min) / min } else { 0.0 }
    };
    let wave_spread = spread(|p| p.ttfr_p50_ms, &waves).max(spread(|p| p.p99_ms, &waves));
    let ttfr_p50_ms = best(|p| p.ttfr_p50_ms, &waves);
    let ttfr_p99_ms = best(|p| p.ttfr_p99_ms, &waves);
    let first_frame_p50_ms = best(|p| p.first_frame_p50_ms, &waves);
    let first_frame_p99_ms = best(|p| p.first_frame_p99_ms, &waves);
    let p50_ms = best(|p| p.p50_ms, &waves);
    let p99_ms = best(|p| p.p99_ms, &waves);
    let max_ms = best(|p| p.max_ms, &waves);
    let wall_ms = best(|p| p.wall_ms, &waves);
    let mut merged = waves.swap_remove(0);
    for op in &mut merged.ops {
        for wave in &waves {
            if let Some(other) = wave.ops.iter().find(|o| o.0 == op.0) {
                op.2 = op.2.min(other.2);
                op.3 = op.3.min(other.3);
                op.4 = op.4.min(other.4);
            }
        }
    }
    Point {
        ttfr_p50_ms,
        ttfr_p99_ms,
        first_frame_p50_ms,
        first_frame_p99_ms,
        p50_ms,
        p99_ms,
        max_ms,
        wall_ms,
        wave_spread,
        ..merged
    }
}

fn measure_wave(sessions: usize, knobs: &Knobs) -> Point {
    let spec = SyntheticSpec::exploration_default(knobs.rows, knobs.seed);
    let table = spec.generate_with_threads(0);
    let config = ServeConfig {
        // Cap at the session count: steady state always fits, but a
        // reconnect racing its abandoned connection's teardown can see
        // BUSY — exactly the churn pressure the harness measures.
        max_connections: sessions,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.preload(&spec.name, table);
    let handle = server.spawn().expect("spawn accept thread");
    let cache = handle.cache();

    let cfg = SimConfig {
        sessions,
        trace: TraceConfig {
            seed: knobs.seed,
            ops: knobs.ops,
            think_min_ms: knobs.think_min_ms,
            think_max_ms: knobs.think_max_ms,
        },
        abandon_rate: knobs.abandon_rate,
        reconnect_rate: knobs.reconnect_rate,
        streamed: knobs.streamed,
        connect_retries: 40,
        stagger: Duration::from_micros(500),
        cache_sample_every: if knobs.quick {
            Duration::from_millis(20)
        } else {
            Duration::from_millis(100)
        },
    };
    let report = run_sim(&handle.addr().to_string(), &spec, Some(&cache), &cfg);
    let point = aggregate(
        sessions,
        &report,
        handle.busy_rejections(),
        handle.workers(),
    );
    handle.shutdown();
    point
}

fn measure(sessions: usize, knobs: &Knobs) -> Point {
    let waves = (0..knobs.repeats.max(1))
        .map(|_| measure_wave(sessions, knobs))
        .collect();
    merge_waves(waves)
}

fn report_json(knobs: &Knobs, points: &[Point]) -> Json {
    let params = Json::obj([
        ("quick", knobs.quick.into()),
        ("seed", knobs.seed.into()),
        ("rows", knobs.rows.into()),
        ("ops_per_session", knobs.ops.into()),
        ("think_min_ms", knobs.think_min_ms.into()),
        ("think_max_ms", knobs.think_max_ms.into()),
        ("abandon_rate", knobs.abandon_rate.into()),
        ("reconnect_rate", knobs.reconnect_rate.into()),
        ("repeats", knobs.repeats.into()),
        ("streamed", knobs.streamed.into()),
        ("workers", points.first().map_or(0, |p| p.workers).into()),
    ]);
    let points = points
        .iter()
        .map(|p| {
            let ops = p.ops.iter().map(|&(name, count, p50, p99, max)| {
                let stats = [
                    ("count", count.into()),
                    ("p50_ms", rounded(p50)),
                    ("p99_ms", rounded(p99)),
                    ("max_ms", rounded(max)),
                ];
                (name.to_owned(), Json::obj(stats))
            });
            let trajectory = p
                .trajectory
                .iter()
                .map(|&(at, hits, misses, evictions, rate)| {
                    Json::obj([
                        ("at_ms", rounded(at)),
                        ("hits", hits.into()),
                        ("misses", misses.into()),
                        ("evictions", evictions.into()),
                        ("hit_rate", rounded(rate)),
                    ])
                });
            Json::obj([
                ("sessions", p.sessions.into()),
                ("completed", p.completed.into()),
                ("abandoned", p.abandoned.into()),
                ("reconnects", p.reconnects.into()),
                ("requests", p.requests.into()),
                ("errors", p.errors.into()),
                ("busy_rejections", p.busy_rejections.into()),
                ("previewed_ops", p.previewed_ops.into()),
                ("ttfr_p50_ms", rounded(p.ttfr_p50_ms)),
                ("ttfr_p99_ms", rounded(p.ttfr_p99_ms)),
                ("first_frame_p50_ms", rounded(p.first_frame_p50_ms)),
                ("first_frame_p99_ms", rounded(p.first_frame_p99_ms)),
                ("p50_ms", rounded(p.p50_ms)),
                ("p99_ms", rounded(p.p99_ms)),
                ("max_ms", rounded(p.max_ms)),
                ("wall_ms", rounded(p.wall_ms)),
                ("ops", Json::Obj(ops.collect())),
                ("cache_trajectory", Json::Arr(trajectory.collect())),
            ])
        })
        .collect();
    report("bench_explore", params, points)
}

fn main() {
    warn_if_debug();
    let mut knobs = Knobs::full();
    let mut out_path = "BENCH_explore.json".to_owned();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => knobs = Knobs::quick(),
            "--no-stream" => knobs.streamed = false,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--rows" => {
                knobs.rows = args
                    .next()
                    .expect("--rows needs a value")
                    .parse()
                    .expect("--rows must be an integer")
            }
            "--seed" => {
                knobs.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer")
            }
            "--repeats" => {
                knobs.repeats = args
                    .next()
                    .expect("--repeats needs a value")
                    .parse()
                    .expect("--repeats must be an integer")
            }
            "--sessions" => {
                let list = args.next().expect("--sessions needs a comma-separated list");
                knobs.session_counts = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sessions entries must be integers"))
                    .collect();
            }
            other => {
                eprintln!(
                    "unknown flag {other}; try --quick, --no-stream, --out, --baseline, \
                     --rows, --seed, --repeats, --sessions N,N,N"
                );
                std::process::exit(2);
            }
        }
    }

    let mut points = Vec::new();
    for &sessions in &knobs.session_counts {
        eprintln!(
            "bench_explore: {sessions} session(s) x {} op(s) over {} rows (seed {}) ...",
            knobs.ops, knobs.rows, knobs.seed
        );
        let point = measure(sessions, &knobs);
        eprintln!(
            "  ttfr p50 {:.2}ms p99 {:.2}ms | first-frame p50 {:.2}ms ({} previews) | \
             op p50 {:.2}ms p99 {:.2}ms max {:.2}ms | \
             {}/{} completed, {} abandoned, {} reconnects, {} errors, {} busy | \
             cache hit-rate {:.2} | wall {:.0}ms",
            point.ttfr_p50_ms,
            point.ttfr_p99_ms,
            point.first_frame_p50_ms,
            point.previewed_ops,
            point.p50_ms,
            point.p99_ms,
            point.max_ms,
            point.completed,
            point.sessions,
            point.abandoned,
            point.reconnects,
            point.errors,
            point.busy_rejections,
            point.trajectory.last().map_or(0.0, |t| t.4),
            point.wall_ms,
        );
        if point.completed == 0 {
            eprintln!("bench_explore: no session completed at {sessions} sessions — server unhealthy");
            std::process::exit(1);
        }
        points.push(point);
    }

    let text = write_report(&out_path, &report_json(&knobs, &points)).unwrap_or_else(|e| {
        eprintln!("bench_explore: {e}");
        std::process::exit(1);
    });
    println!("bench_explore: wrote {out_path}");

    if let Some(baseline_path) = baseline {
        let diff = diff_against(&text, &baseline_path).unwrap_or_else(|e| {
            eprintln!("bench_explore: cannot diff against {baseline_path}: {e}");
            std::process::exit(1);
        });
        if diff.gate_failed {
            let max_spread = points.iter().map(|p| p.wave_spread).fold(0.0, f64::max);
            if max_spread > NOISE_SPREAD_LIMIT {
                eprintln!(
                    "bench_explore: gate INCONCLUSIVE — this run's waves disagree \
                     by up to {:.0}% on the gated metrics (limit {:.0}%); the host \
                     is too noisy to resolve a 25% regression. Rerun on a quiet \
                     machine before trusting or overriding this result.",
                    max_spread * 100.0,
                    NOISE_SPREAD_LIMIT * 100.0,
                );
            } else {
                eprintln!("bench_explore: REGRESSION GATE FAILED (> 25%)");
                std::process::exit(1);
            }
        }
    }
}
