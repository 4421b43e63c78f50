//! The CAD View structure, its similarity operations, and rendering.

use crate::budget::Degradation;
use crate::iunit::IUnit;
use crate::simil::{attribute_value_distance, iunit_similarity};
use dbex_stats::feature::FeatureScore;

/// One row of the CAD View: a pivot value and its top-k IUnits, most
/// relevant first.
#[derive(Debug, Clone)]
pub struct CadRow {
    /// Dictionary code of the pivot value.
    pub pivot_code: u32,
    /// Display label of the pivot value.
    pub pivot_label: String,
    /// Top-k IUnits, in descending preference-score order.
    pub iunits: Vec<IUnit>,
}

/// A materialized Conditional Attribute Dependency View (paper Table 1).
#[derive(Debug, Clone)]
pub struct CadView {
    /// Schema index of the Pivot Attribute.
    pub pivot_attr: usize,
    /// Name of the Pivot Attribute.
    pub pivot_name: String,
    /// Schema indices of the Compare Attributes, in display order.
    pub compare_attrs: Vec<usize>,
    /// Names of the Compare Attributes, in display order.
    pub compare_names: Vec<String>,
    /// Requested IUnits per row (`k`).
    pub k: usize,
    /// Absolute similarity threshold `τ` used for the `≈` relation.
    pub tau: f64,
    /// One row per selected pivot value.
    pub rows: Vec<CadRow>,
    /// Chi-square scores of every candidate Compare Attribute
    /// (diagnostics; sorted by decreasing statistic).
    pub feature_scores: Vec<FeatureScore>,
    /// Per-stage build timings.
    pub timings: crate::builder::CadTimings,
    /// Worker threads the builder fanned out to (`1` = fully sequential,
    /// on the caller's thread). Surfaced by `EXPLAIN CADVIEW`.
    pub threads_used: usize,
    /// Shortcuts the builder took under budget pressure or after
    /// recoverable failures (empty for a full-fidelity build). Surfaced
    /// by `EXPLAIN CADVIEW` and the REPL.
    pub degradation: Vec<Degradation>,
    /// Pivot partitions whose clustering was served verbatim from the
    /// stats cache's cluster-reuse map (always 0 without a cache).
    /// Surfaced by `EXPLAIN CADVIEW`.
    pub partitions_reused: usize,
    /// Span tree recorded by [`crate::builder::build_cad_view_traced`]
    /// when built with an enabled tracer (`None` otherwise). Surfaced by
    /// `EXPLAIN ANALYZE CADVIEW` and the REPL's `.trace on` mode.
    pub trace: Option<dbex_obs::Trace>,
}

impl CadView {
    /// True when the builder degraded any stage (see [`Self::degradation`]).
    pub fn is_degraded(&self) -> bool {
        !self.degradation.is_empty()
    }

    /// The row for a pivot value label.
    pub fn row(&self, pivot_label: &str) -> Option<&CadRow> {
        self.rows.iter().find(|r| r.pivot_label == pivot_label)
    }

    /// The `idx`-th (0-based) IUnit of a pivot value.
    pub fn iunit(&self, pivot_label: &str, idx: usize) -> Option<&IUnit> {
        self.row(pivot_label).and_then(|r| r.iunits.get(idx))
    }

    /// `HIGHLIGHT SIMILAR IUNITS`: all IUnits across the view whose
    /// Algorithm-1 similarity to `(pivot_label, idx)` is at least `tau`
    /// (`None` uses the view's own threshold). The probe itself is
    /// excluded. Returns `(pivot_label, iunit_index, similarity)` triples
    /// sorted by decreasing similarity.
    pub fn highlight_similar(
        &self,
        pivot_label: &str,
        idx: usize,
        tau: Option<f64>,
    ) -> Vec<(String, usize, f64)> {
        let tau = tau.unwrap_or(self.tau);
        let Some(probe) = self.iunit(pivot_label, idx) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for row in &self.rows {
            for (j, unit) in row.iunits.iter().enumerate() {
                if row.pivot_label == pivot_label && j == idx {
                    continue;
                }
                let s = iunit_similarity(probe, unit);
                if s >= tau {
                    out.push((row.pivot_label.clone(), j, s));
                }
            }
        }
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }

    /// `REORDER ROWS ... ORDER BY SIMILARITY(value)`: pivot labels ordered
    /// by increasing Algorithm-2 distance to `pivot_label` (the preferred
    /// value first, distance 0). Ties in the integer-valued rank distance
    /// are broken by decreasing continuous content similarity
    /// ([`crate::simil::list_content_similarity`]). Returns
    /// `(pivot_label, distance)` pairs.
    pub fn reorder_rows(&self, pivot_label: &str) -> Vec<(String, f64)> {
        let Some(reference) = self.row(pivot_label) else {
            return Vec::new();
        };
        let mut scored: Vec<(String, f64, f64)> = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.pivot_label.clone(),
                    attribute_value_distance(&reference.iunits, &r.iunits, self.tau),
                    crate::simil::list_content_similarity(&reference.iunits, &r.iunits),
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| b.2.total_cmp(&a.2))
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.into_iter().map(|(l, d, _)| (l, d)).collect()
    }

    /// Continuous content similarity between two pivot values' IUnit lists
    /// (the tie-breaker of [`Self::reorder_rows`], exposed for clients that
    /// want the smooth score directly).
    pub fn content_similarity(&self, a: &str, b: &str) -> Option<f64> {
        let ra = self.row(a)?;
        let rb = self.row(b)?;
        Some(crate::simil::list_content_similarity(
            &ra.iunits, &rb.iunits,
        ))
    }

    /// Applies a row ordering produced by [`Self::reorder_rows`] in place.
    pub fn apply_row_order(&mut self, order: &[(String, f64)]) {
        let mut reordered = Vec::with_capacity(self.rows.len());
        for (label, _) in order {
            if let Some(pos) = self.rows.iter().position(|r| &r.pivot_label == label) {
                reordered.push(self.rows.remove(pos));
            }
        }
        reordered.append(&mut self.rows);
        self.rows = reordered;
    }

    /// Renders the view with highlight marks: the IUnits listed in
    /// `highlights` (as `(pivot label, iunit index)` pairs — e.g. the
    /// output of [`Self::highlight_similar`]) get a leading summary line,
    /// mirroring the interface's "highlight similar IUnits" visual (paper
    /// Section 5, modification 2).
    pub fn render_with_highlights(&self, highlights: &[(String, usize)]) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let marks: Vec<usize> = highlights
                .iter()
                .filter(|(label, _)| *label == row.pivot_label)
                .map(|&(_, idx)| idx)
                .collect();
            if !marks.is_empty() {
                let ids: Vec<String> = marks.iter().map(|i| format!("IUnit {}", i + 1)).collect();
                out.push_str(&format!(
                    "* {}: {} highlighted\n",
                    row.pivot_label,
                    ids.join(", ")
                ));
            }
        }
        out.push_str(&self.render());
        out
    }

    /// Renders the view as an ASCII table shaped like the paper's Table 1:
    /// pivot value column, Compare Attributes column, then one column per
    /// IUnit rank, with each cell showing that attribute's bracketed label.
    pub fn render(&self) -> String {
        let max_units = self
            .rows
            .iter()
            .map(|r| r.iunits.len())
            .max()
            .unwrap_or(0)
            .max(1);
        let n_attrs = self.compare_names.len();

        // Logical grid: each CAD row expands to `n_attrs` text lines.
        let mut header: Vec<String> = vec![self.pivot_name.clone(), "Compare Attrs".into()];
        for i in 0..max_units {
            header.push(format!("IUnit {}", i + 1));
        }
        let mut grid: Vec<Vec<String>> = vec![header];
        for row in &self.rows {
            for (a, attr_name) in self.compare_names.iter().enumerate() {
                let mut line = Vec::with_capacity(2 + max_units);
                line.push(if a == 0 { row.pivot_label.clone() } else { String::new() });
                line.push(attr_name.clone());
                for u in 0..max_units {
                    line.push(match row.iunits.get(u) {
                        Some(unit) => unit.label_of(a),
                        None => String::new(),
                    });
                }
                grid.push(line);
            }
        }

        // Column widths.
        let cols = 2 + max_units;
        let mut widths = vec![0usize; cols];
        for line in &grid {
            for (c, cell) in line.iter().enumerate() {
                widths[c] = widths[c].max(cell.chars().count());
            }
        }

        let mut out = String::new();
        let separator = |out: &mut String| {
            for &w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        separator(&mut out);
        for (i, line) in grid.iter().enumerate() {
            out.push('|');
            for (c, cell) in line.iter().enumerate() {
                let pad = widths[c] - cell.chars().count();
                out.push(' ');
                out.push_str(cell);
                out.push_str(&" ".repeat(pad + 1));
                out.push('|');
            }
            out.push('\n');
            // Separator after the header and after each pivot-value block.
            if i == 0 || (i > 0 && (i - 1) % n_attrs.max(1) == n_attrs.max(1) - 1) {
                separator(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_cad_view, CadRequest};
    use dbex_table::{DataType, Field, TableBuilder};

    fn cad() -> CadView {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Engine", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        // Ford and Chevy share V6 ≈ 25K structure; Jeep is V8 ≈ 40K.
        for i in 0..40i64 {
            b.push_row(vec!["Ford".into(), "V6".into(), (25_000 + i * 10).into()]).unwrap();
            b.push_row(vec!["Chevrolet".into(), "V6".into(), (25_200 + i * 10).into()]).unwrap();
            b.push_row(vec!["Jeep".into(), "V8".into(), (40_000 + i * 10).into()]).unwrap();
            if i % 2 == 0 {
                b.push_row(vec!["Ford".into(), "V4".into(), (15_000 + i * 10).into()]).unwrap();
                b.push_row(vec!["Chevrolet".into(), "V4".into(), (15_100 + i * 10).into()]).unwrap();
            }
        }
        let t = b.finish();
        // CadView is fully self-contained (owns its labels and frequency
        // vectors), so it may outlive the table it was built from.
        let mut cad =
            build_cad_view(&t.full_view(), &CadRequest::new("Make").with_iunits(2)).unwrap();
        cad.rows.sort_by(|a, b| a.pivot_label.cmp(&b.pivot_label));
        cad
    }

    #[test]
    fn row_and_iunit_lookup() {
        let cad = cad();
        assert!(cad.row("Ford").is_some());
        assert!(cad.row("Tesla").is_none());
        assert!(cad.iunit("Ford", 0).is_some());
        assert!(cad.iunit("Ford", 99).is_none());
    }

    #[test]
    fn highlight_finds_cross_row_twins() {
        let cad = cad();
        // Ford's top IUnit (V6 cluster) should match a Chevrolet IUnit.
        let hits = cad.highlight_similar("Ford", 0, None);
        assert!(
            hits.iter().any(|(label, _, _)| label == "Chevrolet"),
            "expected a similar Chevrolet IUnit, got {hits:?}"
        );
        // And the probe itself is never in the result.
        assert!(hits.iter().all(|(label, j, _)| !(label == "Ford" && *j == 0)));
        // Similarities sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn reorder_ranks_similar_make_first() {
        let cad = cad();
        let order = cad.reorder_rows("Ford");
        assert_eq!(order[0].0, "Ford");
        assert_eq!(order[0].1, 0.0);
        assert_eq!(order[1].0, "Chevrolet", "order: {order:?}");
        assert_eq!(order[2].0, "Jeep");
        assert!(order[1].1 < order[2].1);
    }

    #[test]
    fn apply_row_order_rearranges() {
        let mut cad = cad();
        let order = cad.reorder_rows("Jeep");
        cad.apply_row_order(&order);
        assert_eq!(cad.rows[0].pivot_label, "Jeep");
        assert_eq!(cad.rows.len(), 3);
    }

    #[test]
    fn highlight_with_loose_threshold_returns_more() {
        let cad = cad();
        let strict = cad.highlight_similar("Ford", 0, Some(cad.tau)).len();
        let loose = cad.highlight_similar("Ford", 0, Some(0.0)).len();
        assert!(loose >= strict);
        // With τ=0 every other IUnit qualifies.
        let total: usize = cad.rows.iter().map(|r| r.iunits.len()).sum();
        assert_eq!(loose, total - 1);
    }

    #[test]
    fn render_contains_structure() {
        let cad = cad();
        let text = cad.render();
        assert!(text.contains("Make"));
        assert!(text.contains("Compare Attrs"));
        assert!(text.contains("IUnit 1"));
        assert!(text.contains("Ford"));
        assert!(text.contains("[V6]") || text.contains("V6"));
        // Every line of the table has the same width.
        let widths: std::collections::HashSet<usize> =
            text.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "ragged render:\n{text}");
    }

    #[test]
    fn apply_row_order_with_unknown_labels_keeps_rows() {
        let mut cad = cad();
        let n = cad.rows.len();
        cad.apply_row_order(&[("Ghost".into(), 0.0), ("Jeep".into(), 1.0)]);
        assert_eq!(cad.rows.len(), n, "no rows may be lost");
        assert_eq!(cad.rows[0].pivot_label, "Jeep");
    }

    #[test]
    fn content_similarity_lookup() {
        let cad = cad();
        assert!(cad.content_similarity("Ford", "Chevrolet").is_some());
        assert!(cad.content_similarity("Ford", "Ghost").is_none());
        let self_sim = cad.content_similarity("Ford", "Ford").unwrap();
        let cross = cad.content_similarity("Ford", "Jeep").unwrap();
        assert!(self_sim >= cross);
    }

    #[test]
    fn render_with_highlights_marks_rows() {
        let cad = cad();
        let hits: Vec<(String, usize)> = cad
            .highlight_similar("Ford", 0, Some(0.5))
            .into_iter()
            .map(|(l, i, _)| (l, i))
            .collect();
        assert!(!hits.is_empty());
        let text = cad.render_with_highlights(&hits);
        assert!(text.contains("highlighted"));
        assert!(text.contains("IUnit 1")); // table body still present
        // No highlights → plain render.
        assert_eq!(cad.render_with_highlights(&[]), cad.render());
    }

    #[test]
    fn highlight_unknown_probe_is_empty() {
        let cad = cad();
        assert!(cad.highlight_similar("Tesla", 0, None).is_empty());
        assert!(cad.reorder_rows("Tesla").is_empty());
    }
}
