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

use dbex_core::{CadConfig, CadRequest, CadTimings};
use dbex_data::UsedCarsGenerator;
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

/// Schema version of the machine-readable bench report
/// (`BENCH_cad.json`). Bump whenever the report shape changes
/// incompatibly; `validate_report` rejects any other version.
///
/// History: schema 1 was the original unversioned report (no `"schema"`
/// field); schema 2 adds the version field and a per-workload
/// `"span_breakdown"` (the traced span tree of one sequential build);
/// schema 3 adds cold/warm measurement per point (`cold_median_ms`,
/// `warm_median_ms`, `cold_runs_ms`, `warm_runs_ms` — warm builds run
/// against a primed [`dbex_core::StatsCache`]), a per-workload
/// `"warm_cache"` object (cache hits/misses and partitions served from
/// the cluster-reuse cache) and `"span_medians_ms"` (per-span medians
/// over repeated traced builds, the values the `--baseline` diff
/// compares). `median_ms` is retained as an alias of `cold_median_ms`.
/// Schema 4 adds kernel-dispatch provenance — top-level
/// `"cpu_features"` (the detected ISA feature string) and
/// `"kernel_dispatch"` (which SIMD family the process
/// routed the packed kernels to) — plus a per-workload
/// `"kernel_speedups"` object (span-median speedup of the kernel-heavy
/// spans at the max measured pool size over 1 thread), and tightens
/// validation: `validate_report` now rejects unknown fields anywhere in
/// the report, not just unknown schema numbers.
pub const BENCH_SCHEMA: u64 = 4;

/// Validates a bench report: well-formed JSON carrying
/// `"schema": `[`BENCH_SCHEMA`] and **only** the fields that schema
/// defines. Reports without a schema field (pre-versioning), reports
/// from a different harness version, and reports carrying unknown
/// fields (a stale generator, or hand edits) are rejected with an
/// actionable message rather than silently consumed.
pub fn validate_report(text: &str) -> Result<(), String> {
    let parsed = Json::parse(text)?;
    let Some(found) = parsed.get("schema").and_then(Json::as_f64) else {
        return Err(format!(
            "report has no \"schema\" field (pre-versioning output?); \
             this validator understands schema {BENCH_SCHEMA} — regenerate with bench_suite"
        ));
    };
    if found != BENCH_SCHEMA as f64 {
        return Err(format!(
            "unknown report schema {found}; this validator understands schema \
             {BENCH_SCHEMA} — regenerate with bench_suite"
        ));
    }
    validate_fields(&parsed)
}

/// Field whitelists of the schema-[`BENCH_SCHEMA`] report shape. Objects
/// with caller-defined keys (`span_medians_ms`, `kernel_speedups`, span
/// `counters`) are exempt from the walk.
const TOP_FIELDS: &[&str] = &[
    "bench",
    "schema",
    "quick",
    "runs_per_point",
    "hardware_threads",
    "auto_threads",
    "cpu_features",
    "kernel_dispatch",
    "workloads",
];
const WORKLOAD_FIELDS: &[&str] = &[
    "name",
    "rows",
    "points",
    "speedup_at_max_threads",
    "warm_cache",
    "span_medians_ms",
    "kernel_speedups",
    "span_breakdown",
];
const POINT_FIELDS: &[&str] = &[
    "threads",
    "median_ms",
    "cold_median_ms",
    "warm_median_ms",
    "cold_runs_ms",
    "warm_runs_ms",
    "output_matches_sequential",
];
const WARM_CACHE_FIELDS: &[&str] = &["hits", "misses", "partitions_reused"];
const SPAN_FIELDS: &[&str] = &["name", "calls", "duration_ms", "counters", "children"];

fn check_keys(obj: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    if let Json::Obj(fields) = obj {
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field \"{key}\" in {ctx}; schema {BENCH_SCHEMA} allows \
                     {allowed:?} — regenerate with bench_suite"
                ));
            }
        }
    }
    Ok(())
}

/// Walks the report against the schema-4 field whitelists.
fn validate_fields(report: &Json) -> Result<(), String> {
    check_keys(report, TOP_FIELDS, "report")?;
    let empty: [Json; 0] = [];
    for workload in report.get("workloads").and_then(Json::as_array).unwrap_or(&empty) {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        check_keys(workload, WORKLOAD_FIELDS, &format!("workload \"{name}\""))?;
        for point in workload.get("points").and_then(Json::as_array).unwrap_or(&empty) {
            check_keys(point, POINT_FIELDS, &format!("a point of workload \"{name}\""))?;
        }
        if let Some(cache) = workload.get("warm_cache") {
            check_keys(
                cache,
                WARM_CACHE_FIELDS,
                &format!("warm_cache of workload \"{name}\""),
            )?;
        }
        if let Some(tree) = workload.get("span_breakdown") {
            validate_span_nodes(tree, name)?;
        }
    }
    Ok(())
}

fn validate_span_nodes(tree: &Json, workload: &str) -> Result<(), String> {
    let empty: [Json; 0] = [];
    for node in tree.as_array().unwrap_or(&empty) {
        check_keys(
            node,
            SPAN_FIELDS,
            &format!("a span node of workload \"{workload}\""),
        )?;
        if let Some(children) = node.get("children") {
            validate_span_nodes(children, workload)?;
        }
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

/// A parsed JSON value — just enough structure for bench-report
/// validation and diffing (no crate dependency; the reports are small and
/// written by this harness or its predecessors).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64` (report numbers are small).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; the whole input must be consumed.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut fields = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(b, pos);
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            parse_number(b, pos)?;
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("unrepresentable number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_owned());
            }
            b'\\' => {
                *pos += 1;
                let esc = b.get(*pos).copied();
                *pos += 1;
                match esc {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0C),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a leading `+`.
                        let hex = b
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            _ => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_owned())
}

/// Flattens a span tree (the `span_breakdown` array of `to_json` span
/// objects) into total `duration_ms` per span name, summed over every
/// occurrence, in first-seen order.
pub fn flatten_spans(tree: &Json) -> Vec<(String, f64)> {
    fn walk(nodes: &[Json], out: &mut Vec<(String, f64)>) {
        for node in nodes {
            let name = node.get("name").and_then(Json::as_str).unwrap_or("");
            let ms = node.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0);
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += ms,
                None => out.push((name.to_owned(), ms)),
            }
            if let Some(children) = node.get("children").and_then(Json::as_array) {
                walk(children, out);
            }
        }
    }
    let mut out = Vec::new();
    if let Some(roots) = tree.as_array() {
        walk(roots, &mut out);
    }
    out
}

// --- sibling report schemas -------------------------------------------------
//
// The suite writes four machine-readable reports; each has its own
// schema number and whitelist so a stale generator (or hand edit) is
// rejected at the same place regardless of which harness produced it:
//
// | file | harness | validator |
// |---|---|---|
// | `BENCH_cad.json` | `bench_suite` | [`validate_report`] |
// | `BENCH_serve.json` | `concurrent_load` | [`validate_serve_report`] |
// | `BENCH_store.json` | `store_bench` | [`validate_store_report`] |
// | `BENCH_explore.json` | `bench_explore` | [`validate_explore_report`] |

/// Schema version of `BENCH_serve.json`; bump on incompatible changes.
/// Schema 2 (evented server): adds the top-level `workers` field — the
/// resolved worker-pool size the server executed requests with.
pub const SERVE_SCHEMA: u64 = 2;
/// Schema version of `BENCH_store.json`; bump on incompatible changes.
pub const STORE_SCHEMA: u64 = 1;
/// Schema version of `BENCH_explore.json`; bump on incompatible changes.
/// Schema 2 (streamed previews): adds the top-level `streamed` flag and,
/// per point, `first_frame_p50_ms` / `first_frame_p99_ms` (send to first
/// response frame, preview or final) and `previewed_ops` (ops that
/// received a preview frame before the exact answer). `ttfr_*` now means
/// time to the first *frame* of the first successful response.
/// Schema 3 (suggest): the per-point `ops` object gains a `"suggest"`
/// kind — keystroke-paced `SUGGEST NEXT` / `SUGGEST COMPLETE` requests
/// issued while the simulated user composes the next statement. Its
/// p50 joins the baseline gate and must additionally stay under the
/// absolute [`SUGGEST_P50_BOUND_MS`] interactivity bound.
pub const EXPLORE_SCHEMA: u64 = 3;

const SERVE_TOP_FIELDS: &[&str] = &[
    "schema",
    "harness",
    "quick",
    "rows",
    "rounds",
    "requests_per_round",
    "workers",
    "points",
];
const SERVE_POINT_FIELDS: &[&str] = &[
    "clients",
    "requests",
    "errors",
    "p50_ms",
    "p99_ms",
    "max_ms",
    "busy_rejections",
    "cache_hits",
    "cache_misses",
];
const STORE_TOP_FIELDS: &[&str] = &[
    "schema",
    "harness",
    "quick",
    "rows",
    "runs",
    "save_ms",
    "save_reuse_ms",
    "open_ms",
    "snapshot_bytes",
    "cold_build_ms",
    "warm_first_build_ms",
    "rehydrated_solutions",
    "partitions_reused",
];
const EXPLORE_TOP_FIELDS: &[&str] = &[
    "schema",
    "harness",
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
    "points",
];
const EXPLORE_POINT_FIELDS: &[&str] = &[
    "sessions",
    "completed",
    "abandoned",
    "reconnects",
    "requests",
    "errors",
    "busy_rejections",
    "previewed_ops",
    "ttfr_p50_ms",
    "ttfr_p99_ms",
    "first_frame_p50_ms",
    "first_frame_p99_ms",
    "p50_ms",
    "p99_ms",
    "max_ms",
    "wall_ms",
    "ops",
    "cache_trajectory",
];
const EXPLORE_OP_KINDS: &[&str] = &["drill", "cad", "pivot", "highlight", "reorder", "suggest"];
const EXPLORE_OP_FIELDS: &[&str] = &["count", "p50_ms", "p99_ms", "max_ms"];
const EXPLORE_TRAJ_FIELDS: &[&str] = &["at_ms", "hits", "misses", "evictions", "hit_rate"];

/// Shared preamble of the sibling-report validators: well-formed JSON,
/// the expected `"schema"` number, and the expected `"harness"` tag.
fn validate_sibling(text: &str, schema: u64, harness: &str) -> Result<Json, String> {
    let parsed = Json::parse(text)?;
    let Some(found) = parsed.get("schema").and_then(Json::as_f64) else {
        return Err(format!(
            "report has no \"schema\" field; this validator understands \
             schema {schema} — regenerate with {harness}"
        ));
    };
    if found != schema as f64 {
        return Err(format!(
            "unknown report schema {found}; this validator understands schema \
             {schema} — regenerate with {harness}"
        ));
    }
    match parsed.get("harness").and_then(Json::as_str) {
        Some(h) if h == harness => Ok(parsed),
        Some(h) => Err(format!(
            "report was produced by harness \"{h}\", expected \"{harness}\""
        )),
        None => Err(format!(
            "report has no \"harness\" field — regenerate with {harness}"
        )),
    }
}

/// Validates `BENCH_serve.json` (schema [`SERVE_SCHEMA`]): well-formed,
/// version-matched, and carrying **only** the fields the schema defines.
pub fn validate_serve_report(text: &str) -> Result<(), String> {
    let parsed = validate_sibling(text, SERVE_SCHEMA, "concurrent_load")?;
    check_keys(&parsed, SERVE_TOP_FIELDS, "serve report")?;
    let empty: [Json; 0] = [];
    for point in parsed.get("points").and_then(Json::as_array).unwrap_or(&empty) {
        check_keys(point, SERVE_POINT_FIELDS, "a serve report point")?;
    }
    Ok(())
}

/// Validates `BENCH_store.json` (schema [`STORE_SCHEMA`]). The store
/// report is flat, so this is the preamble plus the top-level whitelist.
pub fn validate_store_report(text: &str) -> Result<(), String> {
    let parsed = validate_sibling(text, STORE_SCHEMA, "store_bench")?;
    check_keys(&parsed, STORE_TOP_FIELDS, "store report")
}

/// Validates `BENCH_explore.json` (schema [`EXPLORE_SCHEMA`]): field
/// whitelists at every level, including the per-op-kind latency objects
/// (whose keys must be known op kinds) and the cache trajectory.
pub fn validate_explore_report(text: &str) -> Result<(), String> {
    let parsed = validate_sibling(text, EXPLORE_SCHEMA, "bench_explore")?;
    check_keys(&parsed, EXPLORE_TOP_FIELDS, "explore report")?;
    let empty: [Json; 0] = [];
    for point in parsed.get("points").and_then(Json::as_array).unwrap_or(&empty) {
        let sessions = point.get("sessions").and_then(Json::as_f64).unwrap_or(0.0);
        let ctx = format!("the {sessions}-session point");
        check_keys(point, EXPLORE_POINT_FIELDS, &ctx)?;
        if let Some(Json::Obj(ops)) = point.get("ops") {
            for (kind, stats) in ops {
                if !EXPLORE_OP_KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "unknown op kind \"{kind}\" in {ctx}; schema {EXPLORE_SCHEMA} \
                         allows {EXPLORE_OP_KINDS:?} — regenerate with bench_explore"
                    ));
                }
                check_keys(stats, EXPLORE_OP_FIELDS, &format!("op \"{kind}\" of {ctx}"))?;
            }
        }
        for sample in point
            .get("cache_trajectory")
            .and_then(Json::as_array)
            .unwrap_or(&empty)
        {
            check_keys(
                sample,
                EXPLORE_TRAJ_FIELDS,
                &format!("a cache_trajectory sample of {ctx}"),
            )?;
        }
    }
    Ok(())
}

/// Absolute noise floor for the explore gate, in milliseconds: a
/// regression must exceed the relative threshold **and** this floor to
/// fail. At 64 sessions the overall p99 sits at a few milliseconds,
/// where one scheduler preemption is ±40% — a ratio-only gate fires on
/// its own baseline. 5ms is far below anything a user perceives and far
/// above per-op timing jitter.
pub const EXPLORE_NOISE_FLOOR_MS: f64 = 5.0;

/// Absolute interactivity bound on the suggest op's p50, in
/// milliseconds. Suggestions fire on keystrokes; past ~10ms they lag
/// the typist instead of assisting. Unlike the relative gate this is
/// checked against the *current* run alone, so a slow baseline can
/// never grandfather in a sluggish suggester.
pub const SUGGEST_P50_BOUND_MS: f64 = 10.0;

/// Compares a fresh `BENCH_explore.json` against a baseline. Points are
/// matched by `sessions`; runs whose workload differs (rows, seed,
/// ops_per_session, or quick flag) are reported as not comparable and
/// never trip the gate. The gate fails when a matched point's
/// time-to-first-result p50, overall p99, **or** suggest-op p50 exceeds
/// the baseline by more than `gate_threshold` (0.25 = 25%) *and* by
/// more than [`EXPLORE_NOISE_FLOOR_MS`] absolute — or when the current
/// suggest p50 exceeds [`SUGGEST_P50_BOUND_MS`] outright.
pub fn diff_explore_reports(
    current: &str,
    baseline: &str,
    gate_threshold: f64,
) -> Result<ReportDiff, String> {
    let cur = Json::parse(current).map_err(|e| format!("current report: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline report: {e}"))?;
    let base_schema = base
        .get("schema")
        .and_then(Json::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| "baseline report has no \"schema\" field".to_owned())?;
    if base_schema != EXPLORE_SCHEMA {
        return Err(format!(
            "baseline schema {base_schema} not understood (want {EXPLORE_SCHEMA})"
        ));
    }
    let mut lines = Vec::new();
    for key in ["rows", "seed", "ops_per_session", "quick", "streamed"] {
        let c = cur.get(key);
        if c.is_none() || c != base.get(key) {
            lines.push(format!(
                "workload mismatch on \"{key}\" — runs not comparable, gate skipped"
            ));
            return Ok(ReportDiff {
                lines,
                gate_failed: false,
            });
        }
    }
    let empty: [Json; 0] = [];
    let cur_points = cur.get("points").and_then(Json::as_array).unwrap_or(&empty);
    let base_points = base.get("points").and_then(Json::as_array).unwrap_or(&empty);
    let mut gate_failed = false;
    for point in cur_points {
        let Some(sessions) = point.get("sessions").and_then(Json::as_f64) else {
            continue;
        };
        let Some(base_point) = base_points
            .iter()
            .find(|p| p.get("sessions").and_then(Json::as_f64) == Some(sessions))
        else {
            lines.push(format!("{sessions} sessions: not in baseline — skipped"));
            continue;
        };
        for metric in ["ttfr_p50_ms", "p99_ms"] {
            let (Some(cur_ms), Some(base_ms)) = (
                point.get(metric).and_then(Json::as_f64),
                base_point.get(metric).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let mut line = format!(
                "{sessions} sessions {metric}: {cur_ms:.3} ms vs {base_ms:.3} ms — {}",
                verdict(cur_ms, base_ms),
            );
            if base_ms > 0.0
                && cur_ms > base_ms * (1.0 + gate_threshold)
                && cur_ms - base_ms > EXPLORE_NOISE_FLOOR_MS
            {
                gate_failed = true;
                line.push_str(&format!(
                    "  [GATE FAILED: > {:.0}% regression]",
                    gate_threshold * 100.0
                ));
            }
            lines.push(line);
        }
        let suggest_p50 = |p: &Json| {
            p.get("ops")
                .and_then(|ops| ops.get("suggest"))
                .and_then(|s| s.get("p50_ms"))
                .and_then(Json::as_f64)
        };
        if let Some(cur_ms) = suggest_p50(point) {
            let mut line = match suggest_p50(base_point) {
                Some(base_ms) => {
                    let mut line = format!(
                        "{sessions} sessions suggest p50: {cur_ms:.3} ms vs {base_ms:.3} ms — {}",
                        verdict(cur_ms, base_ms),
                    );
                    if base_ms > 0.0
                        && cur_ms > base_ms * (1.0 + gate_threshold)
                        && cur_ms - base_ms > EXPLORE_NOISE_FLOOR_MS
                    {
                        gate_failed = true;
                        line.push_str(&format!(
                            "  [GATE FAILED: > {:.0}% regression]",
                            gate_threshold * 100.0
                        ));
                    }
                    line
                }
                None => format!(
                    "{sessions} sessions suggest p50: {cur_ms:.3} ms (no suggest section in baseline)"
                ),
            };
            if cur_ms > SUGGEST_P50_BOUND_MS {
                gate_failed = true;
                line.push_str(&format!(
                    "  [GATE FAILED: above the {SUGGEST_P50_BOUND_MS:.0} ms interactivity bound]"
                ));
            }
            lines.push(line);
        }
    }
    if cur_points.is_empty() {
        lines.push("current report has no points".to_owned());
    }
    Ok(ReportDiff { lines, gate_failed })
}

/// The span whose median regression fails the `--baseline` gate: the
/// clustering hot path this harness exists to keep fast.
pub const GATE_SPAN: &str = "cluster_partition";

/// Outcome of diffing a fresh report against a baseline report.
pub struct ReportDiff {
    /// Human-readable per-workload and per-span comparison lines.
    pub lines: Vec<String>,
    /// True when [`GATE_SPAN`] regressed beyond the threshold on any
    /// comparable workload.
    pub gate_failed: bool,
}

/// Compares a freshly generated report against a schema-[`BENCH_SCHEMA`]
/// baseline. Workloads are matched by name; a workload whose `rows` differ
/// (e.g. a `--quick` run against a full baseline) is reported as not
/// comparable and never trips the gate. Per-point medians are
/// `cold_median_ms`; per-span values are `span_medians_ms`. The gate
/// fails when [`GATE_SPAN`]'s median exceeds the baseline by more than
/// `gate_threshold` (0.25 = 25%).
pub fn diff_reports(
    current: &str,
    baseline: &str,
    gate_threshold: f64,
) -> Result<ReportDiff, String> {
    let cur = Json::parse(current).map_err(|e| format!("current report: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline report: {e}"))?;
    let base_schema = base
        .get("schema")
        .and_then(Json::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| "baseline report has no \"schema\" field".to_owned())?;
    if base_schema != BENCH_SCHEMA {
        return Err(format!(
            "baseline schema {base_schema} not understood (want {BENCH_SCHEMA})"
        ));
    }
    let empty: [Json; 0] = [];
    let cur_workloads = cur.get("workloads").and_then(Json::as_array).unwrap_or(&empty);
    let base_workloads = base.get("workloads").and_then(Json::as_array).unwrap_or(&empty);
    let mut lines = Vec::new();
    let mut gate_failed = false;
    for workload in cur_workloads {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(base_workload) = base_workloads
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
        else {
            lines.push(format!("{name}: not in baseline — skipped"));
            continue;
        };
        let rows = workload.get("rows").and_then(Json::as_f64);
        let base_rows = base_workload.get("rows").and_then(Json::as_f64);
        if rows != base_rows {
            lines.push(format!(
                "{name}: {} rows vs baseline {} — not comparable, skipped",
                rows.unwrap_or(0.0),
                base_rows.unwrap_or(0.0),
            ));
            continue;
        }
        for point in workload
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or(&empty)
        {
            let Some(threads) = point.get("threads").and_then(Json::as_f64) else {
                continue;
            };
            let Some(base_point) = base_workload
                .get("points")
                .and_then(Json::as_array)
                .unwrap_or(&empty)
                .iter()
                .find(|p| p.get("threads").and_then(Json::as_f64) == Some(threads))
            else {
                continue;
            };
            if let (Some(cur_ms), Some(base_ms)) = (point_median(point), point_median(base_point)) {
                lines.push(format!(
                    "{name} @ {threads} thread(s): {cur_ms:.3} ms vs {base_ms:.3} ms — {}",
                    verdict(cur_ms, base_ms),
                ));
            }
        }
        let base_spans = workload_span_medians(base_workload);
        for (span, cur_ms) in workload_span_medians(workload) {
            let Some((_, base_ms)) = base_spans.iter().find(|(n, _)| *n == span) else {
                continue;
            };
            let mut line = format!(
                "{name} span {span}: {cur_ms:.3} ms vs {base_ms:.3} ms — {}",
                verdict(cur_ms, *base_ms),
            );
            if span == GATE_SPAN && *base_ms > 0.0 && cur_ms > base_ms * (1.0 + gate_threshold) {
                gate_failed = true;
                line.push_str(&format!(
                    "  [GATE FAILED: > {:.0}% regression]",
                    gate_threshold * 100.0
                ));
            }
            lines.push(line);
        }
    }
    if cur_workloads.is_empty() {
        lines.push("current report has no workloads".to_owned());
    }
    Ok(ReportDiff { lines, gate_failed })
}

/// A point's comparison median, `cold_median_ms`.
fn point_median(point: &Json) -> Option<f64> {
    point.get("cold_median_ms").and_then(Json::as_f64)
}

/// A workload's per-span medians, `span_medians_ms`.
fn workload_span_medians(workload: &Json) -> Vec<(String, f64)> {
    match workload.get("span_medians_ms") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|ms| (k.clone(), ms)))
            .collect(),
        _ => Vec::new(),
    }
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

    #[test]
    fn json_parser_accepts_and_rejects() {
        assert!(Json::parse(r#"{"a": [1, -2.5, 3e4], "b": {"c": "x\"y"}, "d": null}"#).is_ok());
        assert!(Json::parse("[true, false]").is_ok());
        assert!(Json::parse("  42  ").is_ok());
        assert!(Json::parse(r#"{"a": 1"#).is_err()); // truncated
        assert!(Json::parse(r#"{"a": 1} extra"#).is_err()); // trailing
        assert!(Json::parse(r#"{"a": 1.}"#).is_err()); // bad number
        assert!(Json::parse(r#"{a: 1}"#).is_err()); // unquoted key
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse(r#"{"a": "\q"}"#).is_err()); // unknown escape
        assert!(Json::parse(r#"{"a": "\u+12a"}"#).is_err()); // signed \u digits
        assert_eq!(Json::parse(r#""\u012a""#), Ok(Json::Str("\u{12a}".into())));
    }

    #[test]
    fn report_validator_checks_schema() {
        assert!(validate_report(r#"{"schema": 4, "bench": "cad"}"#).is_ok());
        // Missing schema: actionable message, not silent acceptance.
        let err = validate_report(r#"{"bench": "cad"}"#).unwrap_err();
        assert!(err.contains("no \"schema\" field"), "{err}");
        // Wrong version names both the found and the understood schema.
        let err = validate_report(r#"{"schema": 3, "bench": "cad"}"#).unwrap_err();
        assert!(err.contains("unknown report schema 3"), "{err}");
        assert!(err.contains("schema 4"), "{err}");
        // Malformed JSON still fails on well-formedness first.
        assert!(validate_report(r#"{"schema": 4"#).is_err());
        // Non-numeric schema value reads as absent.
        let err = validate_report(r#"{"schema": "two"}"#).unwrap_err();
        assert!(err.contains("no \"schema\" field"), "{err}");
    }

    #[test]
    fn report_validator_rejects_unknown_fields() {
        // A field schema 4 does not define fails at every level of the
        // report — top level, workload, point, warm_cache, span node.
        let err = validate_report(r#"{"schema": 4, "surprise": 1}"#).unwrap_err();
        assert!(err.contains("unknown field \"surprise\" in report"), "{err}");
        let err = validate_report(
            r#"{"schema": 4, "workloads": [{"name": "w", "bogus": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"bogus\" in workload \"w\""), "{err}");
        let err = validate_report(
            r#"{"schema": 4, "workloads": [{"name": "w",
                "points": [{"threads": 1, "mean_ms": 3.0}]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"mean_ms\" in a point"), "{err}");
        let err = validate_report(
            r#"{"schema": 4, "workloads": [{"name": "w",
                "warm_cache": {"hits": 1, "evictions": 0}}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"evictions\" in warm_cache"), "{err}");
        let err = validate_report(
            r#"{"schema": 4, "workloads": [{"name": "w",
                "span_breakdown": [{"name": "s", "children":
                  [{"name": "t", "wall_ms": 1.0}]}]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"wall_ms\" in a span node"), "{err}");
        // Caller-defined key spaces stay open: span medians, kernel
        // speedups, and span counters take arbitrary names.
        assert!(validate_report(
            r#"{"schema": 4, "workloads": [{"name": "w",
                "span_medians_ms": {"anything_at_all": 1.0},
                "kernel_speedups": {"cluster_partition": 1.6},
                "span_breakdown": [{"name": "s",
                  "counters": {"rows_scanned": 7}, "children": []}]}]}"#,
        )
        .is_ok());
    }

    #[test]
    fn json_parser_round_trips_report_shapes() {
        let v = Json::parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": "x\"yA"}, "d": null}"#)
            .unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"yA")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert!(Json::parse(r#"{"a": 1"#).is_err());
        assert!(Json::parse("[1] tail").is_err());
    }

    #[test]
    fn flatten_spans_sums_by_name_over_the_tree() {
        let tree = Json::parse(
            r#"[{"name": "cad_build", "calls": 1, "duration_ms": 10.0, "counters": {},
                 "children": [
                   {"name": "cluster_partition", "calls": 5, "duration_ms": 6.0,
                    "counters": {}, "children": []},
                   {"name": "cluster_partition", "calls": 1, "duration_ms": 1.5,
                    "counters": {}, "children": []}]}]"#,
        )
        .unwrap();
        let flat = flatten_spans(&tree);
        assert_eq!(flat[0], ("cad_build".to_owned(), 10.0));
        assert_eq!(flat[1], ("cluster_partition".to_owned(), 7.5));
    }

    /// A schema-4 report with one workload, one point and one span
    /// median.
    fn report(rows: u64, median: f64, cluster_ms: f64) -> String {
        let text = format!(
            r#"{{"schema": 4, "workloads": [
                 {{"name": "w", "rows": {rows},
                   "points": [{{"threads": 1, "median_ms": {median},
                     "cold_median_ms": {median}}}],
                   "span_medians_ms": {{"cluster_partition": {cluster_ms}}}}}]}}"#
        );
        assert_eq!(validate_report(&text), Ok(()), "fixture must be schema 4");
        text
    }

    #[test]
    fn diff_reports_flags_gate_regressions_only_when_comparable() {
        // 10% slower cluster_partition: reported, below the 25% gate.
        let diff = diff_reports(&report(100, 11.0, 11.0), &report(100, 10.0, 10.0), 0.25).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("+10.0% regression")));

        // 50% slower: gate fails.
        let diff = diff_reports(&report(100, 15.0, 15.0), &report(100, 10.0, 10.0), 0.25).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("GATE FAILED")));

        // Faster: speedup reported, no gate.
        let diff = diff_reports(&report(100, 5.0, 4.0), &report(100, 10.0, 10.0), 0.25).unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("2.50x speedup")));

        // Row-count mismatch (e.g. --quick vs full baseline): skipped,
        // never trips the gate even with a huge regression.
        let diff = diff_reports(&report(5, 99.0, 99.0), &report(100, 10.0, 10.0), 0.25).unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("not comparable")));

        // Pre-versioning and older-schema baselines are rejected outright.
        assert!(diff_reports(&report(100, 1.0, 1.0), r#"{"workloads": []}"#, 0.25).is_err());
        let schema_3 = report(100, 1.0, 1.0).replace("\"schema\": 4", "\"schema\": 3");
        let err = diff_reports(&report(100, 1.0, 1.0), &schema_3, 0.25).err();
        assert_eq!(err.as_deref(), Some("baseline schema 3 not understood (want 4)"));
    }

    #[test]
    fn sibling_validators_check_schema_and_harness() {
        // The committed reports must validate (guards against the
        // whitelists drifting from what the harnesses actually write).
        let serve = r#"{"schema": 2, "harness": "concurrent_load", "quick": false,
            "rows": 100, "rounds": 2, "requests_per_round": 4, "workers": 1,
            "points": [{"clients": 1, "requests": 8, "errors": 0, "p50_ms": 0.1,
                        "p99_ms": 0.2, "max_ms": 0.3, "busy_rejections": 0,
                        "cache_hits": 5, "cache_misses": 1}]}"#;
        assert!(validate_serve_report(serve).is_ok());
        let store = r#"{"schema": 1, "harness": "store_bench", "quick": true,
            "rows": 10, "runs": 1, "save_ms": 1.0, "save_reuse_ms": 1.0,
            "open_ms": 1.0, "snapshot_bytes": 10, "cold_build_ms": 1.0,
            "warm_first_build_ms": 1.0, "rehydrated_solutions": 1,
            "partitions_reused": 1}"#;
        assert!(validate_store_report(store).is_ok());

        // Wrong harness tag, missing harness, wrong schema — each named
        // in the message.
        let err = validate_serve_report(&serve.replace("concurrent_load", "store_bench"))
            .unwrap_err();
        assert!(err.contains("harness \"store_bench\""), "{err}");
        let err = validate_store_report(r#"{"schema": 1, "rows": 1}"#).unwrap_err();
        assert!(err.contains("no \"harness\" field"), "{err}");
        let err = validate_serve_report(r#"{"schema": 9, "harness": "concurrent_load"}"#)
            .unwrap_err();
        assert!(err.contains("unknown report schema 9"), "{err}");

        // Unknown fields rejected at both levels.
        let err = validate_serve_report(&serve.replace("\"rows\"", "\"row_count\""))
            .unwrap_err();
        assert!(err.contains("\"row_count\""), "{err}");
        let err = validate_serve_report(&serve.replace("\"errors\"", "\"failures\""))
            .unwrap_err();
        assert!(err.contains("\"failures\" in a serve report point"), "{err}");
        let err = validate_store_report(&store.replace("\"runs\"", "\"iters\"")).unwrap_err();
        assert!(err.contains("\"iters\""), "{err}");
    }

    #[test]
    fn committed_reports_validate_and_pass_their_own_gates() {
        let read = |file: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        };
        let (cad, explore) = (read("BENCH_cad.json"), read("BENCH_explore.json"));
        assert_eq!(validate_report(&cad), Ok(()), "BENCH_cad.json");
        assert_eq!(validate_serve_report(&read("BENCH_serve.json")), Ok(()), "BENCH_serve.json");
        assert_eq!(validate_store_report(&read("BENCH_store.json")), Ok(()), "BENCH_store.json");
        assert_eq!(validate_explore_report(&explore), Ok(()), "BENCH_explore.json");
        // Diffed against itself, each baseline compares every point and
        // fails no gate.
        for (file, diff) in [
            ("BENCH_cad.json", diff_reports(&cad, &cad, 0.25)),
            ("BENCH_explore.json", diff_explore_reports(&explore, &explore, 0.25)),
        ] {
            let diff = diff.unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!diff.lines.is_empty(), "{file}: nothing compared");
            for line in &diff.lines {
                assert!(line.contains(" vs "), "{file}: {line}");
            }
            assert!(!diff.gate_failed, "{file}: {:?}", diff.lines);
        }
    }

    fn explore_report(sessions: u64, ttfr_p50: f64, p99: f64) -> String {
        format!(
            r#"{{"schema": 3, "harness": "bench_explore", "quick": false, "seed": 42,
                "rows": 1000, "ops_per_session": 8, "think_min_ms": 0, "think_max_ms": 2,
                "abandon_rate": 0.05, "reconnect_rate": 0.5, "streamed": true,
                "points": [{{"sessions": {sessions}, "completed": {sessions},
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
                    {{"at_ms": 50.0, "hits": 40, "misses": 10, "evictions": 0, "hit_rate": 0.8}}]}}]}}"#
        )
    }

    #[test]
    fn explore_validator_walks_every_level() {
        assert!(validate_explore_report(&explore_report(8, 2.0, 10.0)).is_ok());
        let err = validate_explore_report(
            &explore_report(8, 2.0, 10.0).replace("\"abandon_rate\"", "\"abandonment\""),
        )
        .unwrap_err();
        assert!(err.contains("\"abandonment\""), "{err}");
        let err = validate_explore_report(
            &explore_report(8, 2.0, 10.0).replace("\"ttfr_p50_ms\"", "\"ttfr_median_ms\""),
        )
        .unwrap_err();
        assert!(err.contains("\"ttfr_median_ms\" in the 8-session point"), "{err}");
        // Unknown op kind and unknown op field both rejected.
        let err = validate_explore_report(
            &explore_report(8, 2.0, 10.0).replace("\"drill\"", "\"scan\""),
        )
        .unwrap_err();
        assert!(err.contains("unknown op kind \"scan\""), "{err}");
        let err = validate_explore_report(
            &explore_report(8, 2.0, 10.0).replace("\"count\": 16", "\"n\": 16"),
        )
        .unwrap_err();
        assert!(err.contains("\"n\" in op \"drill\""), "{err}");
        // Trajectory samples are whitelisted too.
        let err = validate_explore_report(
            &explore_report(8, 2.0, 10.0).replace("\"hit_rate\": 0.8", "\"ratio\": 0.8"),
        )
        .unwrap_err();
        assert!(err.contains("\"ratio\" in a cache_trajectory sample"), "{err}");
    }

    #[test]
    fn explore_diff_gates_on_ttfr_and_p99() {
        // Mild regression: reported, below gate.
        let diff = diff_explore_reports(
            &explore_report(8, 2.2, 11.0),
            &explore_report(8, 2.0, 10.0),
            0.25,
        )
        .unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("+10.0% regression")));

        // TTFR p50 regresses past the gate even though p99 is fine.
        let diff = diff_explore_reports(
            &explore_report(8, 30.0, 100.0),
            &explore_report(8, 20.0, 100.0),
            0.25,
        )
        .unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("GATE FAILED")));

        // p99 regresses past the gate independently.
        let diff = diff_explore_reports(
            &explore_report(8, 20.0, 200.0),
            &explore_report(8, 20.0, 100.0),
            0.25,
        )
        .unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);

        // A big *relative* jump under the absolute noise floor is jitter
        // on a milliseconds-scale metric, not a regression.
        let diff = diff_explore_reports(
            &explore_report(8, 3.0, 4.4),
            &explore_report(8, 2.0, 3.1),
            0.25,
        )
        .unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);

        // A point missing from the baseline is skipped, not gated.
        let diff = diff_explore_reports(
            &explore_report(16, 99.0, 99.0),
            &explore_report(8, 2.0, 10.0),
            0.25,
        )
        .unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("not in baseline")));

        // Workload mismatch (different rows) disables the gate entirely.
        let other = explore_report(8, 99.0, 99.0).replace("\"rows\": 1000", "\"rows\": 9");
        let diff =
            diff_explore_reports(&other, &explore_report(8, 2.0, 10.0), 0.25).unwrap();
        assert!(!diff.gate_failed);
        assert!(diff.lines.iter().any(|l| l.contains("workload mismatch")), "{:?}", diff.lines);

        // Baseline from another schema (pre-streaming) is rejected.
        assert!(diff_explore_reports(
            &explore_report(8, 1.0, 1.0),
            r#"{"schema": 1, "points": []}"#,
            0.25
        )
        .is_err());
    }

    #[test]
    fn explore_diff_gates_on_suggest_p50() {
        let base = explore_report(8, 2.0, 10.0);
        let with_suggest = |p50: &str| base.replace("\"p50_ms\": 1.5", p50);

        // Mild suggest drift: reported, below gate.
        let diff =
            diff_explore_reports(&with_suggest("\"p50_ms\": 1.6"), &base, 0.25).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(diff.lines.iter().any(|l| l.contains("suggest p50")), "{:?}", diff.lines);

        // Suggest p50 regresses past the relative gate (still under the
        // absolute bound).
        let diff =
            diff_explore_reports(&with_suggest("\"p50_ms\": 9.0"), &base, 0.25).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines.iter().any(|l| l.contains("suggest p50") && l.contains("GATE FAILED")),
            "{:?}",
            diff.lines
        );

        // Above the absolute interactivity bound the gate fails even
        // when the baseline is equally slow — no grandfathering.
        let slow = with_suggest("\"p50_ms\": 12.0");
        let diff = diff_explore_reports(&slow, &slow, 0.25).unwrap();
        assert!(diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines.iter().any(|l| l.contains("interactivity bound")),
            "{:?}",
            diff.lines
        );

        // A baseline without a suggest section (fresh family) is
        // reported but never trips the relative gate.
        let no_suggest = base.replace(
            r#",
                          "suggest": {"count": 12, "p50_ms": 1.5, "p99_ms": 3.5, "max_ms": 4.5}"#,
            "",
        );
        assert!(validate_explore_report(&no_suggest).is_ok(), "fixture surgery broke JSON");
        let diff = diff_explore_reports(&base, &no_suggest, 0.25).unwrap();
        assert!(!diff.gate_failed, "{:?}", diff.lines);
        assert!(
            diff.lines.iter().any(|l| l.contains("no suggest section in baseline")),
            "{:?}",
            diff.lines
        );
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
