//! Views: result sets as row-id selections over a base table.

use crate::error::Result;
use crate::predicate::Predicate;
use crate::table::Table;
use crate::value::Value;
use std::borrow::Cow;

/// A result set `R`: an ordered subset of a base table's rows.
///
/// Views are cheap to create and compose — refining a faceted selection or
/// applying a CAD View's WHERE clause never copies column data, it only
/// produces a new row-id vector. All downstream algorithms (feature
/// selection, clustering, digests) iterate row ids through a `View`.
#[derive(Debug, Clone)]
pub struct View<'a> {
    table: &'a Table,
    rows: Cow<'a, [u32]>,
}

impl<'a> View<'a> {
    /// A view over every row of `table`.
    pub fn all(table: &'a Table) -> Self {
        View::from_rows(table, (0..table.num_rows() as u32).collect())
    }

    /// A view over an explicit row-id list.
    ///
    /// Row ids must be valid for `table`; this is enforced lazily at access
    /// time (out-of-range ids panic like slice indexing).
    pub fn from_rows(table: &'a Table, rows: Vec<u32>) -> Self {
        View {
            table,
            rows: Cow::Owned(rows),
        }
    }

    /// A view over row ids borrowed from elsewhere — a memoized result
    /// set — so building it copies nothing. Same contract as
    /// [`View::from_rows`].
    pub fn borrowed(table: &'a Table, rows: &'a [u32]) -> Self {
        View {
            table,
            rows: Cow::Borrowed(rows),
        }
    }

    /// Consumes the view, returning its row ids.
    pub fn into_row_ids(self) -> Vec<u32> {
        self.rows.into_owned()
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Selected row ids, in order.
    pub fn row_ids(&self) -> &[u32] {
        &self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Order-sensitive 64-bit fingerprint of (table identity, row selection).
    ///
    /// Two views with equal fingerprints select the same rows of the same
    /// table (up to negligible FNV-1a collision probability), so the
    /// fingerprint serves as a cache key for per-view statistics: any change
    /// to the selection — or a rebuilt table, which gets a fresh
    /// [`Table::id`] — changes the fingerprint and invalidates the entry.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.table.id());
        mix(self.rows.len() as u64);
        for &row in self.rows.iter() {
            mix(u64::from(row));
        }
        hash
    }

    /// [`Self::fingerprint`] restricted to the subset of this view's rows
    /// at `positions` (indices into [`Self::row_ids`], in order).
    ///
    /// A pivot partition is exactly such a subset, so this is the identity
    /// half of the per-partition cluster-reuse cache key: it hashes the
    /// *row ids*, not the positions, so a facet refinement that renumbers
    /// positions but leaves a partition's rows (and their order) intact
    /// still produces the same fingerprint. Out-of-range positions are
    /// hashed as a sentinel instead of panicking.
    pub fn fingerprint_positions(&self, positions: &[usize]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.table.id());
        mix(positions.len() as u64);
        for &pos in positions {
            match self.rows.get(pos) {
                Some(&row) => mix(u64::from(row)),
                None => mix(u64::MAX),
            }
        }
        hash
    }

    /// Value of `col` at the `i`-th selected row.
    pub fn value(&self, i: usize, col: usize) -> Value {
        self.table.value(self.rows[i] as usize, col)
    }

    /// Further filters this view by `predicate`.
    ///
    /// Evaluation runs through the columnar batch kernels
    /// ([`crate::batch`]): one pass per predicate leaf over the typed
    /// column data, no per-row `Value` materialization.
    pub fn refine(&self, predicate: &Predicate) -> Result<View<'a>> {
        predicate.validate(self.table.schema())?;
        dbex_obs::counter!("table.refine.calls").incr(1);
        dbex_obs::counter!("table.rows_scanned").incr(self.rows.len() as u64);
        let rows = crate::batch::select(self.table, &self.rows, predicate)?;
        Ok(View::from_rows(self.table, rows))
    }

    /// Splits the view by the distinct codes of a categorical column.
    ///
    /// Returns `(code, row-ids)` pairs in first-appearance order. This is
    /// the partition step of CAD View construction: one partition per Pivot
    /// Attribute value.
    pub fn partition_by_code(&self, col: usize) -> Vec<(u32, Vec<u32>)> {
        dbex_obs::counter!("table.partition.calls").incr(1);
        dbex_obs::counter!("table.rows_scanned").incr(self.rows.len() as u64);
        let column = self.table.column(col);
        let (Some(codes), Some(dict)) = (column.codes(), column.dictionary()) else {
            // Non-categorical columns have no codes to partition by.
            return Vec::new();
        };
        // Dictionary codes are dense, so a code-indexed slot vector replaces
        // the HashMap: one bounds-checked index per row instead of a hash.
        const UNSEEN: usize = usize::MAX;
        let mut slots: Vec<usize> = vec![UNSEEN; dict.len()];
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for &row in self.rows.iter() {
            let code = codes[row as usize];
            if code == crate::dict::NULL_CODE {
                continue;
            }
            let slot = &mut slots[code as usize];
            if *slot == UNSEEN {
                *slot = groups.len();
                groups.push((code, Vec::new()));
            }
            groups[*slot].1.push(row);
        }
        groups
    }

    /// Deterministic uniform subsample of at most `n` rows.
    ///
    /// Used by the paper's Optimization 1 (Section 6.3): feature selection
    /// and clustering on a 5K-10K sample match full-data results closely.
    /// A partial Fisher-Yates shuffle driven by a fixed-seed xorshift PRNG
    /// makes the sample uniform (no aliasing with periodic row orders) yet
    /// reproducible across runs.
    ///
    /// The shuffle is *sparse*: rather than cloning the whole row pool and
    /// swapping in place, displaced entries are tracked in a map holding at
    /// most `n` overrides, so sampling costs O(n) time and memory even when
    /// `n` is far smaller than the view. The PRNG draw sequence and the
    /// selected set are identical to the dense shuffle this replaced.
    pub fn sample(&self, n: usize) -> View<'a> {
        let len = self.rows.len();
        if n == 0 || len <= n {
            return self.clone();
        }
        dbex_obs::counter!("table.sample.calls").incr(1);
        dbex_obs::counter!("table.rows_sampled").incr(n as u64);
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (len as u64);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // displaced[p] = value virtually swapped into position p; positions
        // not present still hold self.rows[p]. Position i is consumed at
        // step i and never read again, so only the write to j is recorded.
        let mut displaced: std::collections::HashMap<usize, u32> =
            std::collections::HashMap::with_capacity(n * 2);
        let mut picked = Vec::with_capacity(n);
        for i in 0..n {
            let j = i + (next() as usize) % (len - i);
            let at = |p: usize, displaced: &std::collections::HashMap<usize, u32>| {
                displaced.get(&p).copied().unwrap_or(self.rows[p])
            };
            let vi = at(i, &displaced);
            picked.push(at(j, &displaced));
            displaced.insert(j, vi);
        }
        picked.sort_unstable();
        View::from_rows(self.table, picked)
    }

    /// Intersection of two views over the same table (set semantics,
    /// preserves `self`'s order).
    pub fn intersect(&self, other: &View<'_>) -> View<'a> {
        let other_set: std::collections::HashSet<u32> = other.rows.iter().copied().collect();
        let rows = self
            .rows
            .iter()
            .copied()
            .filter(|r| other_set.contains(r))
            .collect();
        View::from_rows(self.table, rows)
    }

    /// Jaccard similarity of the row sets of two views.
    ///
    /// Used to score Task 3 ("alternative search condition") retrieval
    /// quality: how close an alternative selection's result set is to the
    /// target result set.
    pub fn jaccard(&self, other: &View<'_>) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let a: std::collections::HashSet<u32> = self.rows.iter().copied().collect();
        let b: std::collections::HashSet<u32> = other.rows.iter().copied().collect();
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn table() -> Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for (m, p) in [
            ("Ford", 10),
            ("Jeep", 20),
            ("Ford", 30),
            ("Jeep", 40),
            ("Honda", 50),
        ] {
            b.push_row(vec![m.into(), p.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn all_and_refine() {
        let t = table();
        let v = t.full_view();
        assert_eq!(v.len(), 5);
        let r = v.refine(&Predicate::eq("Make", "Ford")).unwrap();
        assert_eq!(r.row_ids(), &[0, 2]);
        let r2 = r
            .refine(&Predicate::cmp("Price", crate::predicate::CmpOp::Gt, 15))
            .unwrap();
        assert_eq!(r2.row_ids(), &[2]);
    }

    #[test]
    fn partition_by_code_groups() {
        let t = table();
        let v = t.full_view();
        let parts = v.partition_by_code(0);
        assert_eq!(parts.len(), 3);
        // First-appearance order: Ford, Jeep, Honda.
        assert_eq!(parts[0].1, vec![0, 2]);
        assert_eq!(parts[1].1, vec![1, 3]);
        assert_eq!(parts[2].1, vec![4]);
    }

    #[test]
    fn sample_bounds() {
        let t = table();
        let v = t.full_view();
        assert_eq!(v.sample(3).len(), 3);
        assert_eq!(v.sample(10).len(), 5);
        assert_eq!(v.sample(0).len(), 5);
    }

    /// The sparse partial Fisher-Yates must pick exactly the rows the dense
    /// clone-the-pool shuffle picked (same PRNG, same draw sequence).
    #[test]
    fn sample_matches_dense_reference() {
        fn dense_sample(rows: &[u32], n: usize) -> Vec<u32> {
            let mut pool = rows.to_vec();
            let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (pool.len() as u64);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 0..n {
                let j = i + (next() as usize) % (pool.len() - i);
                pool.swap(i, j);
            }
            pool.truncate(n);
            pool.sort_unstable();
            pool
        }
        let mut b = TableBuilder::new(vec![Field::new("X", DataType::Int)]).unwrap();
        for i in 0..5_000 {
            b.push_row(vec![Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let ids: Vec<u32> = (0..5_000u32).rev().collect();
        let v = View::from_rows(&t, ids.clone());
        for n in [1, 2, 7, 64, 1_000, 4_999] {
            assert_eq!(v.sample(n).row_ids(), dense_sample(&ids, n), "n={n}");
        }
    }

    #[test]
    fn fingerprint_tracks_selection_and_table() {
        let t = table();
        let a = View::from_rows(&t, vec![0, 1, 2]);
        assert_eq!(a.fingerprint(), View::from_rows(&t, vec![0, 1, 2]).fingerprint());
        assert_ne!(a.fingerprint(), View::from_rows(&t, vec![0, 1, 3]).fingerprint());
        assert_ne!(a.fingerprint(), View::from_rows(&t, vec![2, 1, 0]).fingerprint());
        // A structurally identical but rebuilt table has a new id.
        let t2 = table();
        assert_ne!(a.fingerprint(), View::from_rows(&t2, vec![0, 1, 2]).fingerprint());
        // A clone shares the id, so fingerprints agree.
        let t3 = t.clone();
        assert_eq!(a.fingerprint(), View::from_rows(&t3, vec![0, 1, 2]).fingerprint());
    }

    #[test]
    fn fingerprint_positions_tracks_rows_not_positions() {
        let t = table();
        let a = View::from_rows(&t, vec![0, 1, 2, 3]);
        // Same rows selected through different position lists of different
        // views agree as long as the row ids (and their order) agree.
        let b = View::from_rows(&t, vec![1, 3]);
        assert_eq!(a.fingerprint_positions(&[1, 3]), b.fingerprint_positions(&[0, 1]));
        // Different rows or a different order diverge.
        assert_ne!(a.fingerprint_positions(&[1, 3]), a.fingerprint_positions(&[3, 1]));
        assert_ne!(a.fingerprint_positions(&[1, 3]), a.fingerprint_positions(&[1, 2]));
        // The full-subset fingerprint matches the view fingerprint's space
        // (same construction), and out-of-range positions do not panic.
        assert_eq!(a.fingerprint_positions(&[0, 1, 2, 3]), a.fingerprint());
        let _ = a.fingerprint_positions(&[99]);
    }

    #[test]
    fn jaccard_and_intersect() {
        let t = table();
        let a = View::from_rows(&t, vec![0, 1, 2]);
        let b = View::from_rows(&t, vec![1, 2, 3]);
        assert_eq!(a.intersect(&b).row_ids(), &[1, 2]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        let empty = View::from_rows(&t, vec![]);
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(empty.jaccard(&a), 0.0);
    }
}
