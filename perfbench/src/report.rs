//! Summary statistics, metric names and the result line.

use std::fmt::Write as _;

/// Latency recorded for a request that failed: a failure misses every
/// latency percentile, so it sorts above any real sample.
pub const FAILED_LATENCY: f64 = f64::INFINITY;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank; 0 for an empty sample.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Share of attempted requests answered `ok`. Each failed, refused or
/// transport-failed request counts against it.
pub fn ok_rate(attempted: u64, failed: u64) -> f64 {
    ratio(attempted.saturating_sub(failed) as f64, attempted as f64)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// JSON for a number. Infinity (a percentile that a failure reached) has
/// no JSON spelling and is written as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// Minimal JSON string escaping for names and provenance values.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Panics on an illegal or repeated metric name, which is
/// a bug in this benchmark.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            valid_metric_name(&m.name),
            "illegal metric name {:?}",
            m.name
        );
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {:?} reported twice",
            m.name
        );
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// FNV-1a over a response line: the fingerprint the output check compares
/// between the served run and the in-process replay.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 95.0), Some(10.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), Some(5.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), Some(95.0));
        assert_eq!(percentile(&[7.5], 95.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_count_in_ok_rate_and_as_missed_latency() {
        assert_eq!(ok_rate(10, 0), 1.0);
        assert_eq!(ok_rate(10, 1), 0.9);
        assert_eq!(ok_rate(0, 0), 0.0);
        // Nine fast answers and one failure: the median is unaffected, but
        // the failure owns the tail.
        let mut s: Vec<f64> = (1..=9).map(f64::from).collect();
        s.push(FAILED_LATENCY);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 95.0), Some(FAILED_LATENCY));
        // With half the requests failed, the median itself is missed.
        let half = [1.0, 2.0, FAILED_LATENCY, FAILED_LATENCY];
        assert_eq!(percentile(&half, 50.0), Some(2.0));
        assert_eq!(percentile(&half, 51.0), Some(FAILED_LATENCY));
        // And the result line still parses as JSON numbers.
        let line = result_line(false, 4, 2, &[Metric::new("x_ms", FAILED_LATENCY, "ms")]);
        assert!(line.contains("1.7976931348623157e308"), "{line}");
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "latency_ms",
            "query.execute_ms_p50.cad",
            "a-b",
            "9x",
            "setup_s",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("a_ms", 1.25, "ms"),
                Metric::new("b", 2.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn result_line_rejects_bad_names() {
        result_line(true, 1, 0, &[Metric::new("bad name", 1.0, "ms")]);
    }
}
