//! # dbex-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 6). Each experiment is a binary:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — the sample CAD View for five Makes |
//! | `user_study` | Figures 2-7 + the §6.2 mixed-model statistics |
//! | `fig8_worst_case` | Figure 8 — worst-case build time vs result size |
//! | `fig9_iunits` | Figure 9 — generated IUnits `l` vs time |
//! | `fig10_compare_attrs` | Figure 10 — Compare Attribute count vs time |
//! | `opt_sampling` | Optimization 1 — sampled feature selection |
//! | `opt_combined` | Optimizations 1-3 combined (40K in < 500 ms) |
//! | `ablation_topk` | div-astar vs greedy diversified top-k |
//! | `ablation_seeding` | k-means++ vs random seeding |
//! | `ablation_binning` | equi-width vs equi-depth vs V-optimal binning |
//!
//! Timing experiments should be run with `--release`; each binary honors a
//! `SIMS` environment variable to change the number of simulations per
//! point (the paper uses 50).
//!
//! Three harnesses write machine-readable reports — `bench_suite`
//! (`BENCH_cad.json`), `bench_explore` (`BENCH_explore.json`) and
//! `store_bench` (`BENCH_store.json`) — in one envelope,
//! `{"harness", "schema", "provenance", "params", "points"}`:
//! `provenance` names the host and the code, `params` the workload, and
//! `points` the measurements ([`report`], [`validate_report`],
//! [`diff_reports`]).

use dbex_core::{CadConfig, CadRequest, CadTimings};
use dbex_data::UsedCarsGenerator;
use dbex_obs::{Json, SpanNode, Trace};
use dbex_table::{Predicate, Table, View};
use std::time::Duration;

/// The five Makes of the paper's running example.
pub const FIVE_MAKES: [&str; 5] = ["Chevrolet", "Ford", "Honda", "Toyota", "Jeep"];

/// Number of simulations per data point (`SIMS` env var; paper uses 50).
pub fn simulations() -> usize {
    std::env::var("SIMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
}

/// Generates the benchmark base table: used-car listings restricted to the
/// five example Makes, large enough to draw 40K-row result sets from.
pub fn base_cars_table() -> Table {
    // 90K raw listings leave ≈40K+ rows across the five Makes.
    UsedCarsGenerator::new(0xD_BE).generate(90_000)
}

/// The five-Make restriction of `table` (the population result sets are
/// sampled from, as in Section 6.3's simulations).
pub fn five_make_view(table: &Table) -> View<'_> {
    table
        .filter(&Predicate::in_list(
            "Make",
            FIVE_MAKES.iter().map(|&m| m.into()).collect(),
        ))
        .expect("Make attribute exists")
}

/// The paper's worst-case pipeline configuration (Section 6.3, Figure 8):
/// no sampling, no adaptivity, all 10 non-pivot attributes admitted
/// (`alpha = 1` disables the significance filter), `l = 15` candidates for
/// `k = 6` shown IUnits.
pub fn worst_case_request() -> CadRequest {
    CadRequest::new("Make")
        .with_pivot_values(FIVE_MAKES.to_vec())
        .with_iunits(6)
        .with_max_compare_attrs(10)
        .with_config(CadConfig {
            alpha: 1.0,
            candidate_factor: 2.5, // l = ceil(2.5 · 6) = 15
            ..CadConfig::default()
        })
}

/// Aggregated stage timings over repeated builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanTimings {
    /// Mean Compare Attribute selection time.
    pub compare_ms: f64,
    /// Mean IUnit generation time.
    pub iunit_ms: f64,
    /// Mean time of all remaining steps.
    pub others_ms: f64,
}

impl MeanTimings {
    /// Mean total time.
    pub fn total_ms(&self) -> f64 {
        self.compare_ms + self.iunit_ms + self.others_ms
    }

    /// Accumulates one build's timings.
    pub fn add(&mut self, t: &CadTimings, n: usize) {
        let ms = |d: Duration| d.as_secs_f64() * 1_000.0 / n as f64;
        self.compare_ms += ms(t.compare_attrs);
        self.iunit_ms += ms(t.iunit_generation);
        self.others_ms += ms(t.others);
    }
}

/// Runs `sims` CAD builds over distinct deterministic subsamples of
/// `population` at `size` rows, returning mean stage timings.
pub fn timed_builds(
    population: &View<'_>,
    size: usize,
    request: &CadRequest,
    sims: usize,
) -> MeanTimings {
    let mut mean = MeanTimings::default();
    for sim in 0..sims {
        // Vary the subsample per simulation by rotating the population.
        let rotated = rotate(population, sim * 7_919);
        let result = rotated.sample(size);
        let cad = dbex_core::build_cad_view(&result, request).expect("build succeeds");
        mean.add(&cad.timings, sims);
    }
    mean
}

/// Rotates a view's row order (deterministic per-simulation variation).
fn rotate<'a>(view: &View<'a>, by: usize) -> View<'a> {
    let ids = view.row_ids();
    if ids.is_empty() {
        return view.clone();
    }
    let k = by % ids.len();
    let mut rows = Vec::with_capacity(ids.len());
    rows.extend_from_slice(&ids[k..]);
    rows.extend_from_slice(&ids[..k]);
    View::from_rows(view.table(), rows)
}

/// Median of a sample set (for robust bench aggregation). Even-length
/// inputs average the two middle values; empty input is 0.
pub fn median_ms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

// --- bench reports ----------------------------------------------------------
//
// One table, `HARNESSES`, lists each harness's params and point fields, the
// field that identifies a point across reports, and the gates a baseline
// diff applies.

/// Schema version of every bench report. Bump whenever the envelope or a
/// harness's fields change incompatibly; [`validate_report`] rejects any
/// other version.
///
/// History: before the shared envelope each harness numbered its own
/// schema (BENCH_cad 1–4, BENCH_serve 1–2, BENCH_store 1, BENCH_explore
/// 1–3); 5 is the first shared one.
pub const REPORT_SCHEMA: u64 = 5;

/// Relative rise of a gated metric that fails a baseline diff.
pub const GATE_RISE: f64 = 0.25;

/// Absolute noise floor for the explore gates, in milliseconds: a
/// regression must exceed [`GATE_RISE`] **and** this floor to fail. At 64
/// sessions the overall p99 sits at a few milliseconds, where one
/// scheduler preemption is ±40% — a ratio-only gate fires on its own
/// baseline. 5ms is far below anything a user perceives and far above
/// per-op timing jitter.
pub const EXPLORE_NOISE_FLOOR_MS: f64 = 5.0;

/// Absolute interactivity bound on the suggest op's p50, in
/// milliseconds. Suggestions fire on keystrokes; past ~10ms they lag
/// the typist instead of assisting. Unlike the relative gate this is
/// checked against the *current* run alone, so a slow baseline can
/// never grandfather in a sluggish suggester.
pub const SUGGEST_P50_BOUND_MS: f64 = 10.0;

/// The shape of a value inside a point.
enum Shape {
    /// A leaf, or an object whose keys the harness names freely (span
    /// medians, counters): not walked.
    Open,
    /// An object with only these fields.
    Fields(&'static [(&'static str, Shape)]),
    /// An array whose every element has this shape.
    Each(&'static Shape),
    /// An object keyed by names from this list, every value of this shape.
    Keyed(&'static [&'static str], &'static Shape),
}

use Shape::{Each, Fields, Keyed, Open};

/// A baseline gate on one point metric, in milliseconds.
struct Gate {
    /// Dotted path of the metric inside a point.
    metric: &'static str,
    /// The gate fails when the metric rises by more than this fraction
    /// of the baseline...
    max_rise: f64,
    /// ...and by more than this many milliseconds.
    floor_ms: f64,
    /// The gate fails when the current value exceeds this, whatever the
    /// baseline says.
    bound_ms: Option<f64>,
}

/// One harness's report fields and gates.
struct Harness {
    name: &'static str,
    params: &'static [&'static str],
    /// The point field that identifies a point across reports.
    key: &'static str,
    point: &'static [(&'static str, Shape)],
    gates: &'static [Gate],
}

const ENVELOPE: &[&str] = &["harness", "schema", "provenance", "params", "points"];
const PROVENANCE: &[&str] = &[
    "hardware_threads",
    "cpu_features",
    "kernel_dispatch",
    "git_rev",
];

/// A node of a span tree (`Trace::to_json`).
static SPAN_NODE: Shape = Fields(&[
    ("name", Open),
    ("calls", Open),
    ("duration_ms", Open),
    ("counters", Open),
    ("children", Each(&SPAN_NODE)),
]);

static HARNESSES: &[Harness] = &[
    Harness {
        name: "bench_suite",
        params: &["quick", "rows", "runs_per_point"],
        key: "workload",
        point: &[
            ("workload", Open),
            (
                "pools",
                Each(&Fields(&[
                    ("threads", Open),
                    ("cold_median_ms", Open),
                    ("warm_median_ms", Open),
                    ("cold_runs_ms", Open),
                    ("warm_runs_ms", Open),
                    ("output_matches_sequential", Open),
                ])),
            ),
            ("speedup_at_max_threads", Open),
            (
                "warm_cache",
                Fields(&[
                    ("hits", Open),
                    ("misses", Open),
                    ("partitions_reused", Open),
                ]),
            ),
            ("span_medians_ms", Open),
            ("kernel_speedups", Open),
            ("span_breakdown", Each(&SPAN_NODE)),
        ],
        // The clustering hot path this harness exists to keep fast.
        gates: &[Gate {
            metric: "span_medians_ms.cluster_partition",
            max_rise: GATE_RISE,
            floor_ms: 0.0,
            bound_ms: None,
        }],
    },
    Harness {
        name: "bench_explore",
        params: &[
            "quick",
            "seed",
            "rows",
            "ops_per_session",
            "think_min_ms",
            "think_max_ms",
            "abandon_rate",
            "reconnect_rate",
            "repeats",
            "streamed",
            "workers",
        ],
        key: "sessions",
        point: &[
            ("sessions", Open),
            ("completed", Open),
            ("abandoned", Open),
            ("reconnects", Open),
            ("requests", Open),
            ("errors", Open),
            ("busy_rejections", Open),
            ("previewed_ops", Open),
            ("ttfr_p50_ms", Open),
            ("ttfr_p99_ms", Open),
            ("first_frame_p50_ms", Open),
            ("first_frame_p99_ms", Open),
            ("p50_ms", Open),
            ("p99_ms", Open),
            ("max_ms", Open),
            ("wall_ms", Open),
            (
                "ops",
                Keyed(
                    &["drill", "cad", "pivot", "highlight", "reorder", "suggest"],
                    &Fields(&[
                        ("count", Open),
                        ("p50_ms", Open),
                        ("p99_ms", Open),
                        ("max_ms", Open),
                    ]),
                ),
            ),
            (
                "cache_trajectory",
                Each(&Fields(&[
                    ("at_ms", Open),
                    ("hits", Open),
                    ("misses", Open),
                    ("evictions", Open),
                    ("hit_rate", Open),
                ])),
            ),
        ],
        gates: &[
            Gate {
                metric: "ttfr_p50_ms",
                max_rise: GATE_RISE,
                floor_ms: EXPLORE_NOISE_FLOOR_MS,
                bound_ms: None,
            },
            Gate {
                metric: "p99_ms",
                max_rise: GATE_RISE,
                floor_ms: EXPLORE_NOISE_FLOOR_MS,
                bound_ms: None,
            },
            Gate {
                metric: "ops.suggest.p50_ms",
                max_rise: GATE_RISE,
                floor_ms: EXPLORE_NOISE_FLOOR_MS,
                bound_ms: Some(SUGGEST_P50_BOUND_MS),
            },
        ],
    },
    Harness {
        name: "store_bench",
        params: &["quick", "runs"],
        key: "rows",
        point: &[
            ("rows", Open),
            ("save_ms", Open),
            ("save_reuse_ms", Open),
            ("open_ms", Open),
            ("snapshot_bytes", Open),
            ("cold_build_ms", Open),
            ("warm_first_build_ms", Open),
            ("rehydrated_solutions", Open),
            ("partitions_reused", Open),
        ],
        gates: &[],
    },
];

/// A report in the shared envelope, with this host's provenance.
pub fn report(harness: &str, params: Json, points: Vec<Json>) -> Json {
    Json::obj([
        ("harness", harness.into()),
        ("schema", REPORT_SCHEMA.into()),
        (
            "provenance",
            Json::obj([
                ("hardware_threads", dbex_par::hardware_threads().into()),
                ("cpu_features", dbex_stats::simd::cpu_features().into()),
                (
                    "kernel_dispatch",
                    dbex_stats::simd::dispatch().name().into(),
                ),
                ("git_rev", git_rev().into()),
            ]),
        ),
        ("params", params),
        ("points", Json::Arr(points)),
    ])
}

/// The checked-out commit, with `-dirty` when the tree has changes;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=12",
            "--exclude=*",
        ])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A report figure rounded to three decimals (milliseconds to the
/// microsecond).
pub fn rounded(x: f64) -> Json {
    Json::Num((x * 1e3).round() / 1e3)
}

/// Validates `report` and writes it, indented, to `path`. Returns the
/// text written, for a baseline diff.
pub fn write_report(path: &str, report: &Json) -> Result<String, String> {
    let text = format!("{report:#}\n");
    validate_report(&text).map_err(|e| format!("generated report is invalid: {e}"))?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(text)
}

/// Validates a bench report: well-formed JSON in the envelope, carrying
/// `"schema": `[`REPORT_SCHEMA`], a known harness, and **only** the
/// fields that harness defines at every level. Reports from another
/// schema, and reports carrying unknown fields (a stale generator, or
/// hand edits) are rejected with an actionable message rather than
/// silently consumed.
pub fn validate_report(text: &str) -> Result<(), String> {
    check_report(&Json::parse(text)?).map(|_| ())
}

/// Checks a parsed report against its harness's table, which it returns.
fn check_report(report: &Json) -> Result<&'static Harness, String> {
    let Some(schema) = report.get("schema").and_then(Json::as_f64) else {
        return Err(format!(
            "report has no \"schema\" field; this validator understands schema {REPORT_SCHEMA} \
             — regenerate the report"
        ));
    };
    if schema != REPORT_SCHEMA as f64 {
        return Err(format!(
            "unknown report schema {schema}; this validator understands schema \
             {REPORT_SCHEMA} — regenerate the report"
        ));
    }
    let Some(name) = report.get("harness").and_then(Json::as_str) else {
        return Err("report has no \"harness\" field — regenerate the report".to_owned());
    };
    let Some(harness) = HARNESSES.iter().find(|h| h.name == name) else {
        let known: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
        return Err(format!(
            "unknown harness \"{name}\"; known harnesses are {known:?}"
        ));
    };
    check_keys(report, ENVELOPE, "report")?;
    let field = |name: &str| {
        report
            .get(name)
            .ok_or_else(|| format!("report has no \"{name}\" field"))
    };
    check_keys(field("provenance")?, PROVENANCE, "provenance")?;
    check_keys(field("params")?, harness.params, "params")?;
    field("points")?;
    for (i, point) in points(report).iter().enumerate() {
        check_shape(point, &Fields(harness.point), &format!("points[{i}]"))?;
    }
    Ok(harness)
}

fn check_keys(value: &Json, allowed: &[&str], at: &str) -> Result<(), String> {
    if let Json::Obj(fields) = value {
        if let Some((key, _)) = fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(format!(
                "unknown field \"{key}\" in {at}; schema {REPORT_SCHEMA} allows {allowed:?} \
                 — regenerate the report"
            ));
        }
    }
    Ok(())
}

fn check_shape(value: &Json, shape: &Shape, at: &str) -> Result<(), String> {
    match (shape, value) {
        (Fields(fields), Json::Obj(found)) => {
            let names: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
            check_keys(value, &names, at)?;
            for (key, inner) in found {
                if let Some((_, shape)) = fields.iter().find(|(name, _)| name == key) {
                    check_shape(inner, shape, &format!("{at}.{key}"))?;
                }
            }
        }
        (Keyed(keys, shape), Json::Obj(found)) => {
            check_keys(value, keys, at)?;
            for (key, inner) in found {
                check_shape(inner, shape, &format!("{at}.{key}"))?;
            }
        }
        (Each(shape), Json::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                check_shape(item, shape, &format!("{at}[{i}]"))?;
            }
        }
        _ => {}
    }
    Ok(())
}

fn points(report: &Json) -> &[Json] {
    report.get("points").and_then(Json::as_array).unwrap_or(&[])
}

/// Outcome of diffing a fresh report against a baseline report.
pub struct ReportDiff {
    /// One comparison line per gated metric of each matched point.
    pub lines: Vec<String>,
    /// True when any gate failed.
    pub gate_failed: bool,
}

/// Compares a freshly generated report against a baseline from the same
/// harness. Points are matched by the harness's key field (`workload`,
/// `sessions`, `rows`). When the two runs' params differ (a `--quick` run
/// against a full baseline, another seed or worker count) the runs are
/// reported as not comparable and no gate runs. Otherwise each gate of
/// the harness fails when its metric rises past [`GATE_RISE`] *and* its
/// floor, or past its absolute bound:
///
/// - `bench_suite`: the `cluster_partition` span median rises more than
///   25%;
/// - `bench_explore`: TTFR p50, op p99 or suggest p50 rises more than 25%
///   and more than [`EXPLORE_NOISE_FLOOR_MS`], or suggest p50 is above
///   [`SUGGEST_P50_BOUND_MS`].
pub fn diff_reports(current: &str, baseline: &str) -> Result<ReportDiff, String> {
    let cur = Json::parse(current).map_err(|e| format!("current report: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline report: {e}"))?;
    let harness = check_report(&cur).map_err(|e| format!("current report: {e}"))?;
    let base_harness = check_report(&base).map_err(|e| format!("baseline report: {e}"))?;
    if base_harness.name != harness.name {
        return Err(format!(
            "baseline is a {} report, the current one a {} report",
            base_harness.name, harness.name
        ));
    }
    let mut lines = Vec::new();
    let (cur_params, base_params) = (cur.get("params"), base.get("params"));
    if let Some(name) = harness
        .params
        .iter()
        .find(|p| cur_params.and_then(|c| c.get(p)) != base_params.and_then(|b| b.get(p)))
    {
        lines.push(format!(
            "params differ on \"{name}\" — runs not comparable, gate skipped"
        ));
        return Ok(ReportDiff {
            lines,
            gate_failed: false,
        });
    }
    let mut gate_failed = false;
    for point in points(&cur) {
        let Some(id) = point.get(harness.key) else {
            continue;
        };
        let label = format!("{} {id}", harness.key);
        let Some(base_point) = points(&base)
            .iter()
            .find(|p| p.get(harness.key) == Some(id))
        else {
            lines.push(format!("{label}: not in baseline — skipped"));
            continue;
        };
        for gate in harness.gates {
            let Some(cur_ms) = metric(point, gate.metric) else {
                continue;
            };
            let mut line = match metric(base_point, gate.metric) {
                Some(base_ms) => {
                    let mut line = format!(
                        "{label} {}: {cur_ms:.3} ms vs {base_ms:.3} ms — {}",
                        gate.metric,
                        verdict(cur_ms, base_ms),
                    );
                    if base_ms > 0.0
                        && cur_ms > base_ms * (1.0 + gate.max_rise)
                        && cur_ms - base_ms > gate.floor_ms
                    {
                        gate_failed = true;
                        line.push_str(&format!(
                            "  [GATE FAILED: > {:.0}% regression]",
                            gate.max_rise * 100.0
                        ));
                    }
                    line
                }
                None => format!("{label} {}: {cur_ms:.3} ms (not in baseline)", gate.metric),
            };
            if let Some(bound) = gate.bound_ms.filter(|&bound| cur_ms > bound) {
                gate_failed = true;
                line.push_str(&format!("  [GATE FAILED: above the {bound:.0} ms bound]"));
            }
            lines.push(line);
        }
    }
    if points(&cur).is_empty() {
        lines.push("current report has no points".to_owned());
    }
    Ok(ReportDiff { lines, gate_failed })
}

/// The number at a dotted `path` inside a point.
fn metric(point: &Json, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(point, |value, key| value.get(key))
        .and_then(Json::as_f64)
}

fn verdict(cur_ms: f64, base_ms: f64) -> String {
    if base_ms <= 0.0 || cur_ms <= 0.0 {
        return "not comparable".to_owned();
    }
    let ratio = cur_ms / base_ms;
    if ratio <= 1.0 {
        format!("{:.2}x speedup", base_ms / cur_ms)
    } else {
        format!("+{:.1}% regression", (ratio - 1.0) * 100.0)
    }
}

/// Diffs `current` against the baseline report at `path` and prints
/// every comparison line.
pub fn diff_against(current: &str, path: &str) -> Result<ReportDiff, String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let diff = diff_reports(current, &baseline)?;
    println!("\nbaseline diff vs {path}:");
    for line in &diff.lines {
        println!("  {line}");
    }
    Ok(diff)
}

/// Total duration per span name over a trace, summed over every
/// occurrence, in first-seen order, in milliseconds.
pub fn span_totals_ms(trace: &Trace) -> Vec<(String, f64)> {
    fn walk(nodes: &[SpanNode], out: &mut Vec<(String, f64)>) {
        for node in nodes {
            let ms = node.duration_ns as f64 / 1e6;
            match out.iter_mut().find(|(name, _)| *name == node.name) {
                Some((_, total)) => *total += ms,
                None => out.push((node.name.clone(), ms)),
            }
            walk(&node.children, out);
        }
    }
    let mut out = Vec::new();
    walk(&trace.roots, &mut out);
    out
}

/// Prints one aligned text table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Warns when timings are collected from an unoptimized build.
pub fn warn_if_debug() {
    if cfg!(debug_assertions) {
        eprintln!(
            "NOTE: running a debug build; use `cargo run --release -p dbex-bench --bin ...` \
             for meaningful timings."
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_make_population_is_large() {
        let table = base_cars_table();
        let v = five_make_view(&table);
        assert!(v.len() >= 40_000, "population too small: {}", v.len());
    }

    #[test]
    fn timed_builds_produce_positive_times() {
        let table = base_cars_table();
        let v = five_make_view(&table);
        let m = timed_builds(&v, 2_000, &worst_case_request(), 2);
        assert!(m.total_ms() > 0.0);
        assert!(m.iunit_ms > 0.0);
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median_ms(&[]), 0.0);
        assert_eq!(median_ms(&[3.0]), 3.0);
        assert_eq!(median_ms(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_ms(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// The envelope around `params` and `points` (JSON text).
    fn envelope(harness: &str, params: &str, points: &str) -> String {
        format!(
            r#"{{"harness": "{harness}", "schema": 5,
                "provenance": {{"hardware_threads": 2, "cpu_features": "x86_64:sse2",
                                "kernel_dispatch": "sse2", "git_rev": "0123abcd"}},
                "params": {params}, "points": {points}}}"#
        )
    }

    #[test]
    fn report_validator_checks_schema_and_harness() {
        let ok = envelope("store_bench", "{}", "[]");
        assert_eq!(validate_report(&ok), Ok(()));
        // Missing schema: actionable message, not silent acceptance.
        let err = validate_report(r#"{"harness": "bench_suite"}"#).unwrap_err();
        assert!(err.contains("no \"schema\" field"), "{err}");
        // Wrong version names both the found and the understood schema;
        // every pre-envelope schema number is below 5.
        for old in ["4", "3", "9"] {
            let err = validate_report(&ok.replace("\"schema\": 5", &format!("\"schema\": {old}")))
                .unwrap_err();
            assert!(
                err.contains(&format!("unknown report schema {old}")),
                "{err}"
            );
            assert!(err.contains("schema 5"), "{err}");
        }
        // Malformed JSON still fails on well-formedness first.
        assert!(validate_report(r#"{"schema": 5"#).is_err());
        // Non-numeric schema value reads as absent.
        let err = validate_report(r#"{"schema": "two"}"#).unwrap_err();
        assert!(err.contains("no \"schema\" field"), "{err}");
        // Missing harness, unknown harness (the deleted concurrent_load
        // included), and each missing envelope field are named.
        let err = validate_report(r#"{"schema": 5, "rows": 1}"#).unwrap_err();
        assert!(err.contains("no \"harness\" field"), "{err}");
        let err = validate_report(&ok.replace("store_bench", "concurrent_load")).unwrap_err();
        assert!(err.contains("unknown harness \"concurrent_load\""), "{err}");
        for field in ["provenance", "params", "points"] {
            let cut = Json::parse(&ok).map(|r| match r {
                Json::Obj(fields) => {
                    Json::Obj(fields.into_iter().filter(|(k, _)| k != field).collect())
                }
                other => other,
            });
            let err = validate_report(&cut.unwrap().to_string()).unwrap_err();
            assert!(err.contains(&format!("no \"{field}\" field")), "{err}");
        }
    }

    /// A bench_suite report with one workload, one pool size and one
    /// span median.
    fn cad_report(rows: u64, cluster_ms: f64) -> String {
        let text = envelope(
            "bench_suite",
            &format!(r#"{{"quick": false, "rows": {rows}, "runs_per_point": 5}}"#),
            &format!(
                r#"[{{"workload": "w",
                     "pools": [{{"threads": 1, "cold_median_ms": 10.0, "warm_median_ms": 2.0,
                                 "cold_runs_ms": [10.0], "warm_runs_ms": [2.0],
                                 "output_matches_sequential": true}}],
                     "span_medians_ms": {{"cad_build": 20.0, "cluster_partition": {cluster_ms}}}}}]"#
            ),
        );
        assert_eq!(validate_report(&text), Ok(()), "fixture must validate");
        text
    }

    #[test]
    fn report_validator_rejects_unknown_fields() {
        // A field the harness does not define fails at every level of the
        // report — envelope, provenance, params, point, pool, warm_cache,
        // span node.
        let cad = cad_report(100, 10.0);
        for (from, to, at) in [
            (
                "\"params\"",
                "\"surprise\": 1, \"params\"",
                "unknown field \"surprise\" in report",
            ),
            ("\"git_rev\"", "\"host\"", "\"host\" in provenance"),
            ("\"runs_per_point\"", "\"runs\"", "\"runs\" in params"),
            (
                "\"workload\"",
                "\"bogus\": 2, \"workload\"",
                "\"bogus\" in points[0]",
            ),
            (
                "\"warm_median_ms\"",
                "\"mean_ms\"",
                "\"mean_ms\" in points[0].pools[0]",
            ),
        ] {
            let err = validate_report(&cad.replace(from, to)).unwrap_err();
            assert!(err.contains(at), "{at}: {err}");
        }
        let point = |extra: &str| {
            envelope(
                "bench_suite",
                "{}",
                &format!(r#"[{{"workload": "w", {extra}}}]"#),
            )
        };
        let err =
            validate_report(&point(r#""warm_cache": {"hits": 1, "evictions": 0}"#)).unwrap_err();
        assert!(
            err.contains("\"evictions\" in points[0].warm_cache"),
            "{err}"
        );
        let err = validate_report(&point(
            r#""span_breakdown": [{"name": "s", "children": [{"name": "t", "wall_ms": 1.0}]}]"#,
        ))
        .unwrap_err();
        assert!(
            err.contains("\"wall_ms\" in points[0].span_breakdown[0].children[0]"),
            "{err}"
        );
        // Caller-defined key spaces stay open: span medians, kernel
        // speedups, and span counters take arbitrary names.
        assert_eq!(
            validate_report(&point(
                r#""span_medians_ms": {"anything_at_all": 1.0},
                   "kernel_speedups": {"cluster_partition": 1.6},
                   "span_breakdown": [{"name": "s", "counters": {"rows_scanned": 7},
                                       "children": []}]"#,
            )),
            Ok(())
        );
        // The store report's params and point are closed too.
        let store = envelope(
            "store_bench",
            r#"{"quick": true, "runs": 1}"#,
            r#"[{"rows": 10, "save_ms": 1.0, "save_reuse_ms": 1.0, "open_ms": 1.0,
                 "snapshot_bytes": 10, "cold_build_ms": 1.0, "warm_first_build_ms": 1.0,
                 "rehydrated_solutions": 1, "partitions_reused": 1}]"#,
        );
        assert_eq!(validate_report(&store), Ok(()));
        let err = validate_report(&store.replace("\"runs\"", "\"iters\"")).unwrap_err();
        assert!(err.contains("\"iters\" in params"), "{err}");
        let err = validate_report(&store.replace("\"open_ms\"", "\"opened_ms\"")).unwrap_err();
        assert!(err.contains("\"opened_ms\" in points[0]"), "{err}");
    }

    #[test]
    fn span_totals_sum_by_name_over_the_tree() {
        let node = |name: &str, duration_ns: u64, children: Vec<SpanNode>| SpanNode {
            name: name.to_owned(),
            calls: 1,
            duration_ns,
            counters: Default::default(),
            children,
        };
        let trace = Trace {
            roots: vec![node(
                "cad_build",
                10_000_000,
                vec![
                    node("cluster_partition", 6_000_000, Vec::new()),
                    node(
                        "topk",
                        500_000,
                        vec![node("cluster_partition", 1_500_000, Vec::new())],
                    ),
                ],
            )],
            forced_closures: 0,
        };
        let totals = span_totals_ms(&trace);
        assert_eq!(totals[0], ("cad_build".to_owned(), 10.0));
        assert_eq!(totals[1], ("cluster_partition".to_owned(), 7.5));
        assert_eq!(totals[2], ("topk".to_owned(), 0.5));
    }

    #[test]
    fn cad_diff_gates_cluster_partition_only_when_comparable() {
        // 10% slower cluster_partition: reported, below the 25% gate.
        let diff = diff_reports(&cad_report(100, 11.0), &cad_report(100, 10.0)).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("+10.0% regression")));

        // 50% slower: gate fails.
        let diff = diff_reports(&cad_report(100, 15.0), &cad_report(100, 10.0)).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("GATE FAILED")));

        // Faster: speedup reported, no gate.
        let diff = diff_reports(&cad_report(100, 4.0), &cad_report(100, 10.0)).unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("2.50x speedup")));

        // Row-count mismatch (e.g. --quick vs full baseline): skipped,
        // never trips the gate even with a huge regression.
        let diff = diff_reports(&cad_report(5, 99.0), &cad_report(100, 10.0)).unwrap();
        assert!(!diff.gate_failed);
        assert!(
            diff.lines.iter().any(|l| l.contains("not comparable")),
            "{:?}",
            diff.lines
        );

        // Pre-envelope and other-schema baselines are rejected outright,
        // and so is a baseline from another harness.
        let base = cad_report(100, 1.0);
        assert!(diff_reports(&base, r#"{"workloads": []}"#).is_err());
        let schema_4 = base.replace("\"schema\": 5", "\"schema\": 4");
        let err = diff_reports(&base, &schema_4).err().unwrap_or_default();
        assert!(
            err.starts_with("baseline report: unknown report schema 4"),
            "{err}"
        );
        let err = diff_reports(&base, &envelope("store_bench", "{}", "[]")).err();
        assert_eq!(
            err.as_deref(),
            Some("baseline is a store_bench report, the current one a bench_suite report")
        );
    }

    #[test]
    fn committed_reports_validate_and_pass_their_own_gates() {
        let read = |file: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        };
        let (cad, explore) = (read("BENCH_cad.json"), read("BENCH_explore.json"));
        assert_eq!(validate_report(&cad), Ok(()), "BENCH_cad.json");
        assert_eq!(
            validate_report(&read("BENCH_store.json")),
            Ok(()),
            "BENCH_store.json"
        );
        assert_eq!(validate_report(&explore), Ok(()), "BENCH_explore.json");
        // Diffed against itself, each baseline compares every point and
        // fails no gate.
        for (file, text) in [("BENCH_cad.json", &cad), ("BENCH_explore.json", &explore)] {
            let diff = diff_reports(text, text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!diff.lines.is_empty(), "{file}: nothing compared");
            for line in &diff.lines {
                assert!(line.contains(" vs "), "{file}: {line}");
            }
            assert!(!diff.gate_failed, "{file}: {:?}", diff.lines);
        }
    }

    fn explore_report(sessions: u64, ttfr_p50: f64, p99: f64) -> String {
        envelope(
            "bench_explore",
            r#"{"quick": false, "seed": 42, "rows": 1000, "ops_per_session": 8,
                "think_min_ms": 0, "think_max_ms": 2, "abandon_rate": 0.05,
                "reconnect_rate": 0.5, "repeats": 3, "streamed": true, "workers": 2}"#,
            &format!(
                r#"[{{"sessions": {sessions}, "completed": {sessions},
                  "abandoned": 1, "reconnects": 1, "requests": 64, "errors": 0,
                  "busy_rejections": 2, "previewed_ops": 4,
                  "ttfr_p50_ms": {ttfr_p50}, "ttfr_p99_ms": 9.0,
                  "first_frame_p50_ms": 0.8, "first_frame_p99_ms": 4.0,
                  "p50_ms": 1.0, "p99_ms": {p99}, "max_ms": 20.0, "wall_ms": 100.0,
                  "ops": {{"drill": {{"count": 16, "p50_ms": 1.0, "p99_ms": 2.0, "max_ms": 3.0}},
                          "cad": {{"count": 8, "p50_ms": 2.0, "p99_ms": 4.0, "max_ms": 5.0}},
                          "suggest": {{"count": 12, "p50_ms": 1.5, "p99_ms": 3.5, "max_ms": 4.5}}}},
                  "cache_trajectory": [
                    {{"at_ms": 0.0, "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}},
                    {{"at_ms": 50.0, "hits": 40, "misses": 10, "evictions": 0, "hit_rate": 0.8}}]}}]"#
            ),
        )
    }

    #[test]
    fn explore_validator_walks_every_level() {
        let base = explore_report(8, 2.0, 10.0);
        assert_eq!(validate_report(&base), Ok(()));
        for (from, to, at) in [
            (
                "\"abandon_rate\"",
                "\"abandonment\"",
                "\"abandonment\" in params",
            ),
            (
                "\"ttfr_p50_ms\"",
                "\"ttfr_median_ms\"",
                "\"ttfr_median_ms\" in points[0]",
            ),
            // Unknown op kind and unknown op field both rejected.
            ("\"drill\"", "\"scan\"", "\"scan\" in points[0].ops"),
            ("\"count\": 16", "\"n\": 16", "\"n\" in points[0].ops.drill"),
            // Trajectory samples are whitelisted too.
            (
                "\"hit_rate\": 0.8",
                "\"ratio\": 0.8",
                "\"ratio\" in points[0].cache_trajectory[1]",
            ),
        ] {
            let err = validate_report(&base.replace(from, to)).unwrap_err();
            assert!(err.contains(at), "{at}: {err}");
        }
    }

    #[test]
    fn explore_diff_gates_on_ttfr_and_p99() {
        // Mild regression: reported, below gate.
        let diff =
            diff_reports(&explore_report(8, 2.2, 11.0), &explore_report(8, 2.0, 10.0)).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("+10.0% regression")));

        // TTFR p50 regresses past the gate even though p99 is fine.
        let diff = diff_reports(
            &explore_report(8, 30.0, 100.0),
            &explore_report(8, 20.0, 100.0),
        )
        .unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(diff
            .lines
            .iter()
            .any(|l| l.contains("ttfr_p50_ms") && l.contains("GATE FAILED")));

        // p99 regresses past the gate independently.
        let diff = diff_reports(
            &explore_report(8, 20.0, 200.0),
            &explore_report(8, 20.0, 100.0),
        )
        .unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(diff
            .lines
            .iter()
            .any(|l| l.contains("p99_ms") && l.contains("GATE FAILED")));

        // A big *relative* jump under the absolute noise floor is jitter
        // on a milliseconds-scale metric, not a regression.
        let diff =
            diff_reports(&explore_report(8, 3.0, 4.4), &explore_report(8, 2.0, 3.1)).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);

        // A point missing from the baseline is skipped, not gated.
        let diff = diff_reports(
            &explore_report(16, 99.0, 99.0),
            &explore_report(8, 2.0, 10.0),
        )
        .unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("not in baseline")));

        // A workload mismatch (different rows, or another worker count)
        // disables the gate entirely.
        for (from, to) in [
            ("\"rows\": 1000", "\"rows\": 9"),
            ("\"workers\": 2", "\"workers\": 1"),
        ] {
            let other = explore_report(8, 99.0, 99.0).replace(from, to);
            let diff = diff_reports(&other, &explore_report(8, 2.0, 10.0)).unwrap();
            assert!(!diff.gate_failed);
            assert!(
                diff.lines.iter().any(|l| l.contains("params differ")),
                "{:?}",
                diff.lines
            );
        }

        // A baseline from another schema (pre-envelope) is rejected.
        assert!(diff_reports(
            &explore_report(8, 1.0, 1.0),
            r#"{"schema": 3, "points": []}"#
        )
        .is_err());
    }

    #[test]
    fn explore_diff_gates_on_suggest_p50() {
        let base = explore_report(8, 2.0, 10.0);
        let with_suggest = |p50: &str| base.replace("\"p50_ms\": 1.5", p50);

        // Mild suggest drift: reported, below gate.
        let diff = diff_reports(&with_suggest("\"p50_ms\": 1.6"), &base).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines.iter().any(|l| l.contains("ops.suggest.p50_ms")),
            "{:?}",
            diff.lines
        );

        // Suggest p50 regresses past the relative gate (still under the
        // absolute bound).
        let diff = diff_reports(&with_suggest("\"p50_ms\": 9.0"), &base).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines
                .iter()
                .any(|l| l.contains("ops.suggest.p50_ms") && l.contains("regression]")),
            "{:?}",
            diff.lines
        );

        // Above the absolute interactivity bound the gate fails even
        // when the baseline is equally slow — no grandfathering.
        let slow = with_suggest("\"p50_ms\": 12.0");
        let diff = diff_reports(&slow, &slow).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines
                .iter()
                .any(|l| l.contains("above the 10 ms bound")),
            "{:?}",
            diff.lines
        );

        // A baseline without a suggest section is reported but never
        // trips the relative gate.
        let no_suggest = base.replace(
            r#",
                          "suggest": {"count": 12, "p50_ms": 1.5, "p99_ms": 3.5, "max_ms": 4.5}"#,
            "",
        );
        assert_eq!(
            validate_report(&no_suggest),
            Ok(()),
            "fixture surgery broke JSON"
        );
        assert_ne!(no_suggest, base);
        let diff = diff_reports(&base, &no_suggest).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines.iter().any(|l| l.contains("(not in baseline)")),
            "{:?}",
            diff.lines
        );
    }

    #[test]
    fn written_reports_validate_and_parse_back() {
        let report = report(
            "store_bench",
            Json::obj([("quick", true.into()), ("runs", 1usize.into())]),
            vec![Json::obj([
                ("rows", 10usize.into()),
                ("open_ms", rounded(1.23456)),
            ])],
        );
        let path =
            std::env::temp_dir().join(format!("dbex-bench-report-{}.json", std::process::id()));
        let path = path.to_str().expect("UTF-8 temp path");
        let text = write_report(path, &report).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), text);
        let _ = std::fs::remove_file(path);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(points(&parsed)[0].get("open_ms"), Some(&Json::Num(1.235)));
        // A report that fails its own table is not written.
        let bad = Json::parse(&report.to_string().replace("\"runs\"", "\"iters\"")).unwrap();
        assert!(write_report(path, &bad)
            .unwrap_err()
            .contains("\"iters\" in params"));
        assert!(!std::path::Path::new(path).exists());
    }

    #[test]
    fn rotate_preserves_rows() {
        let table = base_cars_table();
        let v = five_make_view(&table).sample(100);
        let r = rotate(&v, 37);
        assert_eq!(r.len(), v.len());
        let mut a: Vec<u32> = v.row_ids().to_vec();
        let mut b: Vec<u32> = r.row_ids().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
