//! Discretization: mapping table columns to dense discrete codes.
//!
//! Every CAD View algorithm — chi-square feature selection, k-means
//! clustering, IUnit labeling, digest similarity — consumes attributes as
//! small discrete domains. [`AttributeCodec`] captures how one attribute is
//! discretized (categorical passthrough or numeric binning),
//! [`CodedColumn::build`] codes one attribute of a result set, and
//! [`CodedColumns`] memoizes those codings per result set so each attribute
//! is coded at most once however many stages read it.

use crate::cache::{lock, CodecKey, StatsCache};
use crate::error::StatsError;
use crate::fault;
use crate::histogram::{BinningStrategy, Histogram};
use dbex_table::dict::NULL_CODE;
use dbex_table::{Column, DataType, View};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How an attribute's raw values map to discrete codes `0..cardinality`.
#[derive(Debug, Clone)]
pub enum AttributeCodec {
    /// Categorical column: codes are the dictionary codes; labels are the
    /// dictionary strings.
    Categorical {
        /// Label per code, indexed by dictionary code.
        labels: Vec<String>,
    },
    /// Numeric column: codes are histogram bin indices.
    Binned {
        /// The histogram defining the bins.
        histogram: Histogram,
        /// Label per bin, e.g. `"15K-20K"`.
        labels: Vec<String>,
    },
}

impl AttributeCodec {
    /// Builds a codec for column `col` over the rows of `view`.
    ///
    /// Numeric columns are binned with `bins`/`strategy`; fails with a typed
    /// [`StatsError`] if the column has no non-NULL values to bin or a
    /// categorical column is missing its dictionary.
    pub fn build(
        view: &View<'_>,
        col: usize,
        bins: usize,
        strategy: BinningStrategy,
    ) -> Result<Self, StatsError> {
        fault::check("codec::build")?;
        let column = view.table().column(col);
        match column.data_type() {
            DataType::Categorical => {
                let dict = column
                    .dictionary()
                    .ok_or(StatsError::MissingDictionary { attr: col })?;
                let labels = dict.iter().map(|(_, s)| s.to_owned()).collect();
                Ok(AttributeCodec::Categorical { labels })
            }
            DataType::Int | DataType::Float => {
                let values: Vec<f64> = view
                    .row_ids()
                    .iter()
                    .filter_map(|&r| column.get_f64(r as usize))
                    .collect();
                if values.is_empty() {
                    return Err(StatsError::NoUsableValues { attr: col });
                }
                let histogram = Histogram::build(&values, bins, strategy)?;
                let labels = histogram.labels();
                Ok(AttributeCodec::Binned { histogram, labels })
            }
        }
    }

    /// Number of distinct codes this codec can produce.
    pub fn cardinality(&self) -> usize {
        match self {
            AttributeCodec::Categorical { labels } => labels.len(),
            AttributeCodec::Binned { labels, .. } => labels.len(),
        }
    }

    /// Label for a code; `"?"` for out-of-range codes.
    pub fn label(&self, code: u32) -> &str {
        let labels = match self {
            AttributeCodec::Categorical { labels } => labels,
            AttributeCodec::Binned { labels, .. } => labels,
        };
        labels.get(code as usize).map(|s| s.as_str()).unwrap_or("?")
    }

    /// Encodes the value of `column` at `row`, or `None` for NULL.
    pub fn encode(&self, column: &Column, row: usize) -> Option<u32> {
        match self {
            AttributeCodec::Categorical { .. } => match column.get_code(row) {
                Some(NULL_CODE) | None => None,
                Some(code) => Some(code),
            },
            AttributeCodec::Binned { histogram, .. } => {
                column.get_f64(row).map(|v| histogram.bin_of(v) as u32)
            }
        }
    }

    /// Encodes a whole view's worth of rows at once — exactly
    /// [`AttributeCodec::encode`] per row, with `NULL_CODE` standing in
    /// for `None`.
    ///
    /// Binned columns take the batch path: the numeric values are gathered
    /// once and binned through the SIMD batch kernel
    /// ([`Histogram::bin_of_batch`]), with NULL positions tracked
    /// separately so a stored NaN (which bins to 0) is never confused with
    /// a missing value.
    pub fn encode_rows(&self, column: &Column, row_ids: &[u32]) -> Vec<u32> {
        match self {
            AttributeCodec::Categorical { .. } => row_ids
                .iter()
                .map(|&r| match column.get_code(r as usize) {
                    Some(NULL_CODE) | None => NULL_CODE,
                    Some(code) => code,
                })
                .collect(),
            AttributeCodec::Binned { histogram, .. } => {
                let mut values = vec![0.0f64; row_ids.len()];
                let mut null = vec![false; row_ids.len()];
                for ((&r, v), is_null) in row_ids.iter().zip(&mut values).zip(&mut null) {
                    match column.get_f64(r as usize) {
                        Some(x) => *v = x,
                        None => *is_null = true,
                    }
                }
                let mut codes = vec![0u32; row_ids.len()];
                histogram.bin_of_batch(&values, &mut codes);
                for (code, is_null) in codes.iter_mut().zip(&null) {
                    if *is_null {
                        *code = NULL_CODE;
                    }
                }
                codes
            }
        }
    }

    /// Finds the code whose label equals `label`, if any.
    pub fn code_of_label(&self, label: &str) -> Option<u32> {
        let labels = match self {
            AttributeCodec::Categorical { labels } => labels,
            AttributeCodec::Binned { labels, .. } => labels,
        };
        labels.iter().position(|l| l == label).map(|i| i as u32)
    }
}

/// One attribute's codes for every row of a view, plus its codec.
#[derive(Debug, Clone)]
pub struct CodedColumn {
    /// The attribute's position in the table schema.
    pub attr_index: usize,
    /// The codec used, shared with the [`StatsCache`] entry it came from.
    pub codec: Arc<AttributeCodec>,
    /// Codes parallel to the view's `row_ids()`; `NULL_CODE` marks NULL.
    pub codes: Vec<u32>,
    /// [`Self::counts`], computed on first request.
    counts: OnceLock<Box<[f64]>>,
}

impl CodedColumn {
    /// Attribute `attr_index` coded by `codec` as `codes`.
    pub fn new(attr_index: usize, codec: Arc<AttributeCodec>, codes: Vec<u32>) -> CodedColumn {
        CodedColumn {
            attr_index,
            codec,
            codes,
            counts: OnceLock::new(),
        }
    }

    /// Codes attribute `attr` over every row of `view`: builds the codec —
    /// through `cache` under the view's fingerprint when one is given —
    /// and encodes the rows in one batch. Every coding in the workspace
    /// runs through here; [`CodedColumns`] memoizes the result.
    pub fn build(
        view: &View<'_>,
        attr: usize,
        bins: usize,
        strategy: BinningStrategy,
        cache: Option<(&StatsCache, u64)>,
    ) -> Result<CodedColumn, StatsError> {
        let build = || AttributeCodec::build(view, attr, bins, strategy);
        let codec = match cache {
            Some((cache, view_fp)) => {
                let key = CodecKey {
                    view_fp,
                    attr,
                    bins,
                    strategy,
                };
                cache.codec_with(key, build)?
            }
            None => Arc::new(build()?),
        };
        let codes = codec.encode_rows(view.table().column(attr), view.row_ids());
        Ok(CodedColumn::new(attr, codec, codes))
    }

    /// How many rows carry each code (indexed by code, NULLs and codes
    /// past the codec's cardinality skipped), counted on the first call:
    /// the suggestion rankers read it once per statement, and a column
    /// kept in a result cache serves every later statement from it.
    pub fn counts(&self) -> &[f64] {
        self.counts.get_or_init(|| {
            let mut counts = vec![0.0f64; self.codec.cardinality()];
            for &code in &self.codes {
                if let Some(slot) = counts.get_mut(code as usize) {
                    *slot += 1.0;
                }
            }
            counts.into_boxed_slice()
        })
    }

    /// Frequency of each code among the given positions (indices into the
    /// view, not row ids). NULLs are skipped.
    pub fn frequencies(&self, positions: &[usize]) -> Vec<f64> {
        let mut freq = vec![0.0; self.codec.cardinality()];
        for &p in positions {
            let code = self.codes[p];
            if code != NULL_CODE {
                freq[code as usize] += 1.0;
            }
        }
        freq
    }
}

/// Partition fingerprints by `(pivot attribute, pivot code)`, one per
/// Compare-Attribute list asked for.
type PartitionFingerprints = HashMap<(usize, u32), Vec<(Box<[usize]>, u64)>>;

/// The coded attributes of one result set, each coded at most once.
///
/// A CAD build reads the same columns in three stages — the pivot encode,
/// Compare-Attribute scoring and the IUnit coded matrix — and `SUGGEST`
/// reads them again over the same result. `CodedColumns` codes an
/// attribute on its first request ([`CodedColumn::build`], so the codec
/// comes through the [`StatsCache`]'s [`CodecKey`] entries when a cache is
/// given) and hands out the shared column after that. A failed coding (an
/// all-NULL column, an injected fault) is returned and never stored: the
/// next request codes again.
///
/// While a [`fault`] site is armed on the calling thread, coding skips the
/// memo and the cache both ways, so the fault fires exactly as it would in
/// a cold session (the rule cluster reuse follows for cluster faults).
///
/// The memo also keeps what a CAD build derives from its columns in
/// O(rows) on every build: the view fingerprint and the cluster-reuse
/// fingerprint of each pivot partition a build has asked for.
///
/// The memo belongs to the view it was created for, and every call passes
/// that view back in. Slots are `OnceLock`s, so `par_map` workers may code
/// different attributes at once; two racing on one attribute both code it
/// and keep the first of two identical results.
#[derive(Debug)]
pub struct CodedColumns {
    table_id: u64,
    rows: usize,
    bins: usize,
    strategy: BinningStrategy,
    fingerprint: OnceLock<u64>,
    slots: Vec<OnceLock<Arc<CodedColumn>>>,
    partitions: Mutex<PartitionFingerprints>,
    /// Shared with the memos [`Self::for_sample`] makes.
    rows_coded: Arc<AtomicU64>,
}

impl CodedColumns {
    /// An empty memo for `view`, binning numeric attributes with `bins`
    /// and `strategy`.
    pub fn new(view: &View<'_>, bins: usize, strategy: BinningStrategy) -> CodedColumns {
        CodedColumns {
            table_id: view.table().id(),
            rows: view.len(),
            bins,
            strategy,
            fingerprint: OnceLock::new(),
            slots: (0..view.table().num_columns())
                .map(|_| OnceLock::new())
                .collect(),
            partitions: Mutex::default(),
            rows_coded: Arc::default(),
        }
    }

    /// A throwaway memo for `sample`, a sample of this memo's view, binning
    /// with `bins` and `strategy`. The rows it codes count toward this
    /// memo's [`Self::rows_coded`].
    pub(crate) fn for_sample(
        &self,
        sample: &View<'_>,
        bins: usize,
        strategy: BinningStrategy,
    ) -> CodedColumns {
        CodedColumns {
            rows_coded: Arc::clone(&self.rows_coded),
            ..CodedColumns::new(sample, bins, strategy)
        }
    }

    /// `memo` (a memo of `view`) when it bins with `bins` and `strategy`;
    /// otherwise a new memo of `view`, kept in `own` for the caller.
    pub fn reuse_or_new<'m>(
        memo: Option<&'m CodedColumns>,
        own: &'m mut Option<CodedColumns>,
        view: &View<'_>,
        bins: usize,
        strategy: BinningStrategy,
    ) -> &'m CodedColumns {
        match memo.filter(|m| m.bins == bins && m.strategy == strategy) {
            Some(memo) => memo,
            None => own.insert(CodedColumns::new(view, bins, strategy)),
        }
    }

    /// `view.fingerprint()`, computed once per memo.
    pub fn fingerprint(&self, view: &View<'_>) -> u64 {
        *self.fingerprint.get_or_init(|| view.fingerprint())
    }

    /// Attribute `attr` of `view` coded: the memoized column, or one coded
    /// now (and memoized on success).
    pub fn column(
        &self,
        view: &View<'_>,
        attr: usize,
        cache: Option<&StatsCache>,
    ) -> Result<Arc<CodedColumn>, StatsError> {
        assert!(
            view.table().id() == self.table_id && view.len() == self.rows,
            "CodedColumns used with a view it was not created for"
        );
        let faulted = fault::armed();
        let slot = &self.slots[attr];
        if let Some(column) = slot.get().filter(|_| !faulted) {
            return Ok(Arc::clone(column));
        }
        let cache = cache
            .filter(|_| !faulted)
            .map(|c| (c, self.fingerprint(view)));
        let coded = Arc::new(CodedColumn::build(
            view,
            attr,
            self.bins,
            self.strategy,
            cache,
        )?);
        self.rows_coded
            .fetch_add(self.rows as u64, Ordering::Relaxed);
        if faulted {
            return Ok(coded);
        }
        Ok(Arc::clone(slot.get_or_init(|| coded)))
    }

    /// The cluster-reuse fingerprint of the partition of this memo's view
    /// where attribute `pivot` has code `code`, over the coded Compare
    /// Attributes `attrs`: `compute()` on the first request for that key,
    /// the kept value after it. The columns it hashes are this memo's, so
    /// the key fixes the value. Skipped while a stats fault is armed on
    /// the calling thread, as coding is.
    pub fn partition_fingerprint(
        &self,
        pivot: usize,
        code: u32,
        attrs: &[usize],
        compute: impl FnOnce() -> u64,
    ) -> u64 {
        if fault::armed() {
            return compute();
        }
        let kept = |map: &PartitionFingerprints| {
            map.get(&(pivot, code))?
                .iter()
                .find(|(a, _)| **a == *attrs)
                .map(|(_, fp)| *fp)
        };
        if let Some(fp) = kept(&lock(&self.partitions)) {
            return fp;
        }
        let fp = compute();
        let mut map = lock(&self.partitions);
        if kept(&map).is_none() {
            map.entry((pivot, code)).or_default().push((attrs.into(), fp));
        }
        fp
    }

    /// Rows coded so far — result rows times attributes coded, the memo
    /// misses — including those of memos made by [`Self::for_sample`].
    pub fn rows_coded(&self) -> u64 {
        self.rows_coded.load(Ordering::Relaxed)
    }
}

/// Discretized view: a set of [`CodedColumn`]s over a common result set.
#[derive(Debug, Clone)]
pub struct CodedMatrix {
    /// One coded column per requested attribute, in request order.
    pub columns: Vec<CodedColumn>,
    /// Number of rows (same for every column).
    pub rows: usize,
}

impl CodedMatrix {
    /// Encodes the given attributes of `view`.
    ///
    /// Attributes whose codec cannot be built (all-NULL numeric columns) are
    /// skipped — the CAD View simply cannot use them.
    pub fn encode(
        view: &View<'_>,
        attr_indices: &[usize],
        bins: usize,
        strategy: BinningStrategy,
    ) -> CodedMatrix {
        let columns = attr_indices
            .iter()
            .filter_map(|&attr| CodedColumn::build(view, attr, bins, strategy, None).ok())
            .collect();
        CodedMatrix {
            columns,
            rows: view.len(),
        }
    }

    /// The coded column for schema attribute `attr_index`, if present.
    pub fn column_for_attr(&self, attr_index: usize) -> Option<&CodedColumn> {
        self.columns.iter().find(|c| c.attr_index == attr_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{DataType, Field, TableBuilder, Value};

    fn table() -> dbex_table::Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for (m, p) in [("Ford", 10), ("Jeep", 20), ("Ford", 30), ("Jeep", 40)] {
            b.push_row(vec![m.into(), p.into()]).unwrap();
        }
        b.push_row(vec![Value::Null, Value::Null]).unwrap();
        b.finish()
    }

    #[test]
    fn categorical_codec_passthrough() {
        let t = table();
        let v = t.full_view();
        let codec = AttributeCodec::build(&v, 0, 4, BinningStrategy::EquiWidth).unwrap();
        assert_eq!(codec.cardinality(), 2);
        assert_eq!(codec.label(0), "Ford");
        assert_eq!(codec.code_of_label("Jeep"), Some(1));
        assert_eq!(codec.encode(t.column(0), 0), Some(0));
        assert_eq!(codec.encode(t.column(0), 4), None);
    }

    #[test]
    fn numeric_codec_bins() {
        let t = table();
        let v = t.full_view();
        let codec = AttributeCodec::build(&v, 1, 2, BinningStrategy::EquiWidth).unwrap();
        assert_eq!(codec.cardinality(), 2);
        assert_eq!(codec.encode(t.column(1), 0), Some(0)); // 10 → low bin
        assert_eq!(codec.encode(t.column(1), 3), Some(1)); // 40 → high bin
        assert_eq!(codec.encode(t.column(1), 4), None); // NULL
    }

    #[test]
    fn matrix_encodes_and_counts() {
        let t = table();
        let v = t.full_view();
        let m = CodedMatrix::encode(&v, &[0, 1], 2, BinningStrategy::EquiWidth);
        assert_eq!(m.columns.len(), 2);
        assert_eq!(m.rows, 5);
        let make = m.column_for_attr(0).unwrap();
        // Rows 0..4: Ford, Jeep, Ford, Jeep, NULL.
        let freq = make.frequencies(&[0, 1, 2, 3, 4]);
        assert_eq!(freq, vec![2.0, 2.0]);
        let freq_subset = make.frequencies(&[0, 4]);
        assert_eq!(freq_subset, vec![1.0, 0.0]);
    }

    #[test]
    fn encode_rows_matches_per_row_encode() {
        let t = table();
        let v = t.full_view();
        for (col, bins) in [(0usize, 4usize), (1, 2)] {
            let codec = AttributeCodec::build(&v, col, bins, BinningStrategy::EquiDepth).unwrap();
            let column = t.column(col);
            let batch = codec.encode_rows(column, v.row_ids());
            let per_row: Vec<u32> = v
                .row_ids()
                .iter()
                .map(|&r| codec.encode(column, r as usize).unwrap_or(NULL_CODE))
                .collect();
            assert_eq!(batch, per_row, "col {col}");
        }
    }

    #[test]
    fn coded_columns_code_once_and_never_keep_a_failure() {
        let t = table();
        let v = t.full_view();
        let cache = StatsCache::new();
        let memo = CodedColumns::new(&v, 2, BinningStrategy::EquiWidth);
        {
            let _fault = crate::fault::scoped("codec::build");
            assert!(memo.column(&v, 1, Some(&cache)).is_err());
        }
        assert_eq!(memo.rows_coded(), 0, "a failure codes nothing");
        let first = memo.column(&v, 1, Some(&cache)).unwrap();
        {
            // An armed fault fires even for a memoized attribute.
            let _fault = crate::fault::scoped("codec::build");
            assert!(memo.column(&v, 1, Some(&cache)).is_err());
        }
        let again = memo.column(&v, 1, Some(&cache)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(memo.rows_coded(), 5);
        let direct = CodedMatrix::encode(&v, &[1], 2, BinningStrategy::EquiWidth);
        assert_eq!(first.codes, direct.columns[0].codes);
        // The codec came through the cache under the view's fingerprint;
        // the faulted calls bypassed it.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.codec_entries), (0, 1, 1));
        // A sample's memo is its own, but its rows count here.
        let sample = View::from_rows(&t, vec![0, 3]);
        let sampled = memo.for_sample(&sample, 2, BinningStrategy::EquiWidth);
        assert_eq!(sampled.column(&sample, 0, None).unwrap().codes, vec![0, 1]);
        assert_eq!(memo.rows_coded(), 7);
        // A caller binning differently gets a memo of its own.
        let mut own = None;
        let same = CodedColumns::reuse_or_new(Some(&memo), &mut own, &v, 2, BinningStrategy::EquiWidth);
        assert!(std::ptr::eq(same, &memo));
        let other = CodedColumns::reuse_or_new(Some(&memo), &mut own, &v, 6, BinningStrategy::EquiWidth);
        assert!(!std::ptr::eq(other, &memo));
    }

    #[test]
    fn counts_and_partition_fingerprints_are_computed_once() {
        let t = table();
        let v = t.full_view();
        let memo = CodedColumns::new(&v, 2, BinningStrategy::EquiWidth);
        let make = memo.column(&v, 0, None).unwrap();
        // Ford, Jeep, Ford, Jeep, NULL.
        assert_eq!(make.counts(), &[2.0, 2.0]);
        assert!(std::ptr::eq(make.counts(), make.counts()));
        let fingerprint = |code, attrs: &[usize], value| {
            memo.partition_fingerprint(0, code, attrs, || value)
        };
        assert_eq!(fingerprint(1, &[1], 7), 7);
        assert_eq!(fingerprint(1, &[1], 8), 7, "kept for the same key");
        assert_eq!(fingerprint(1, &[1, 0], 9), 9);
        assert_eq!(fingerprint(0, &[1], 10), 10);
        {
            let _fault = crate::fault::scoped("codec::build");
            assert_eq!(fingerprint(1, &[1], 11), 11, "an armed fault skips the memo");
        }
        assert_eq!(fingerprint(1, &[1], 12), 7);
    }

    #[test]
    fn all_null_numeric_column_skipped() {
        let mut b = TableBuilder::new(vec![Field::new("X", DataType::Int)]).unwrap();
        b.push_row(vec![Value::Null]).unwrap();
        let t = b.finish();
        let v = t.full_view();
        let m = CodedMatrix::encode(&v, &[0], 2, BinningStrategy::EquiWidth);
        assert!(m.columns.is_empty());
    }
}
