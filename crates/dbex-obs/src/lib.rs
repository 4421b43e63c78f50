//! `dbex-obs` — first-party, zero-dependency observability.
//!
//! Four pieces:
//!
//! * [`json`] — the one JSON codec ([`Json`], its parser and writer, and
//!   the string escaper) that the wire protocol, traces and bench
//!   reports share.
//! * [`span`] — hierarchical trace spans ([`Tracer`] / [`Span`] /
//!   [`Trace`]) with monotonic timing and attached counters. Same-named
//!   sibling spans merge at assembly, so per-worker spans from the
//!   `dbex-par` pool collapse into one thread-count-invariant node.
//! * [`metrics`] — a process-wide registry of counters, gauges, and
//!   fixed-bucket histograms ([`global`], the [`counter!`] / [`gauge!`]
//!   macros). Instruments are relaxed atomics; the hot path pays one
//!   atomic add.
//! * [`sink`] — the [`TraceSink`] trait that receives finished traces,
//!   and the in-memory [`MemorySink`] the tests read.
//!
//! # Determinism contract
//!
//! Everything except wall-clock time is deterministic for a fixed
//! input: span names, call counts, counters, histogram bucket layout,
//! and rendering order. [`mask_timings`] removes the wall-clock parts
//! (durations, timing-histogram contents, parallelism lines) so
//! snapshot tests can compare the rest byte-for-byte.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use json::Json;
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use sink::{MemorySink, TraceSink};
pub use span::{fmt_ns, Span, SpanId, SpanNode, Trace, Tracer};

/// Masks every wall-clock-dependent field in rendered observability
/// output, leaving the deterministic structure intact:
///
/// * duration tokens (`123ns`, `4.5µs`/`4.5us`, `6.7ms`, `1.20s`)
///   become `<T>`, and any run of spaces directly before one collapses
///   to a single space — column alignment computed from token width
///   must not leak timing into masked output;
/// * `histogram` lines whose metric name ends in `_ns`/`_us`/`_ms`
///   have their value part replaced (bucket contents are timing);
/// * everything after `parallelism:` is replaced (thread count is an
///   execution detail, not an output property);
/// * everything after `kernel dispatch:` and the value of the
///   `cluster.kernel_dispatch` gauge are replaced (the SIMD family is a
///   property of the host CPU).
///
/// Golden snapshot tests compare `mask_timings(rendered)` so that span
/// names, row counters, cache hit/miss, and degradation levels stay
/// pinned while timings float.
pub fn mask_timings(text: &str) -> String {
    let mut out: Vec<String> = text.lines().map(mask_line).collect();
    if text.ends_with('\n') {
        out.push(String::new());
    }
    out.join("\n")
}

fn mask_line(line: &str) -> String {
    let trimmed = line.trim_start();
    let indent = &line[..line.len() - trimmed.len()];
    if let Some(rest) = trimmed.strip_prefix("histogram") {
        if let Some(name) = rest.split_whitespace().next() {
            if name.ends_with("_ns") || name.ends_with("_us") || name.ends_with("_ms") {
                return format!("{indent}histogram  {name}  <T>");
            }
        }
    }
    if let Some(pos) = line.find("parallelism:") {
        return format!("{}parallelism: <T>", &line[..pos]);
    }
    if let Some(pos) = line.find("kernel dispatch:") {
        // Which SIMD family dispatched is a property of the host CPU,
        // not of the output — mask it like the thread count.
        return format!("{}kernel dispatch: <T>", &line[..pos]);
    }
    if line.contains("cluster.kernel_dispatch") {
        // Same story for the gauge in the metrics registry dump.
        return format!("{indent}gauge      cluster.kernel_dispatch  <T>");
    }
    mask_durations(line)
}

/// Replaces number+unit duration tokens with `<T>`.
fn mask_durations(line: &str) -> String {
    const UNITS: [&str; 5] = ["ns", "µs", "us", "ms", "s"];
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < chars.len() {
        let boundary_before = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '.');
        if chars[i].is_ascii_digit() && boundary_before {
            let mut j = i;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                j += 1;
            }
            let unit = UNITS.iter().find_map(|u| {
                let unit: Vec<char> = u.chars().collect();
                let after = j + unit.len();
                let matches = chars[j..].starts_with(&unit);
                let bounded = after >= chars.len() || !chars[after].is_alphanumeric();
                (matches && bounded).then_some(unit.len())
            });
            if let Some(len) = unit {
                // Right-aligned columns pad with spaces that depend on
                // the token's width; collapse them so masked output is
                // alignment-independent.
                while out.ends_with("  ") {
                    out.pop();
                }
                out.push_str("<T>");
                i = j + len;
            } else {
                out.extend(&chars[i..j]);
                i = j;
            }
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_duration_tokens_of_every_unit() {
        let text = "a 123ns b 4.5µs c 4.5us d 6.7ms e 1.20s f";
        assert_eq!(mask_timings(text), "a <T> b <T> c <T> d <T> e <T> f");
    }

    #[test]
    fn leaves_plain_numbers_and_words_alone() {
        let text = "rows_input=6000 others 5 values k5s posts";
        assert_eq!(mask_timings(text), text);
    }

    #[test]
    fn masks_timing_histogram_lines_wholesale() {
        let text = "  histogram  cad.build_ms  count=1 sum=42.137 le5:0 inf:1 nan:0\n";
        assert_eq!(mask_timings(text), "  histogram  cad.build_ms  <T>\n");
        let counts = "  histogram  rows_per_build  count=1 sum=6000.000 le10000:1 nan:0\n";
        assert_eq!(mask_timings(counts), counts);
    }

    #[test]
    fn masks_parallelism_lines() {
        let text = "  parallelism: 8 threads\n";
        assert_eq!(mask_timings(text), "  parallelism: <T>\n");
    }

    #[test]
    fn masks_the_timings_summary_line() {
        let text = "  timings: compare-attrs 1.2ms | iunit-gen 345.6µs | other 12ns";
        assert_eq!(
            mask_timings(text),
            "  timings: compare-attrs <T> | iunit-gen <T> | other <T>"
        );
    }

    #[test]
    fn collapses_alignment_padding_before_durations() {
        // Two renders of the same tree with differently-wide durations
        // must mask to the same bytes.
        assert_eq!(mask_timings("name      1.2ms"), "name <T>");
        assert_eq!(mask_timings("name    987.3µs"), "name <T>");
    }

    #[test]
    fn preserves_trailing_newline_presence() {
        assert_eq!(mask_timings("x\n"), "x\n");
        assert_eq!(mask_timings("x"), "x");
    }
}
