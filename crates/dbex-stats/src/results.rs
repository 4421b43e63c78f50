//! Filtered results shared by every session of a server.
//!
//! Every statement that filters a table by a WHERE clause — a drill
//! `SELECT`, `CREATE`/`EXPLAIN CADVIEW` and its streamed preview, the view
//! `SUGGEST NEXT` re-derives, the context of `SUGGEST COMPLETE` — works on
//! a [`FilteredResult`]: the result's row ids plus its attributes coded as
//! far as any statement has asked ([`CodedColumns`]). A session pins the
//! latest result it used; [`StatsCache::result_with`] shares results across
//! sessions and across a session's returns to a result it left.
//!
//! # Key
//!
//! The table `Arc` and the predicate. A registered table is immutable and
//! an entry holds its `Arc`, so the same pointer means the same rows; a
//! reloaded table is a new `Arc` and misses. Predicates compare with
//! [`Predicate::identical`] (float literals by bit pattern) and hash with
//! [`Predicate::hash_identical`], which agrees with it. A statement with
//! no predicate asks for `Predicate::Const(true)`, one more key.
//!
//! # Admission and bound
//!
//! A result enters the cache only when its key misses a second time: the
//! cache remembers the hashes of the last [`MISSED_KEYS`] keys that missed.
//! A stream of results that are never revisited (one-off range builds)
//! therefore leaves nothing behind, while a working set a user walks back
//! and forth is cached from its second visit on. Entries are evicted least
//! recently used first once their accounted size — `4 B × rows × (1 +
//! columns)` each, the row ids plus every attribute coded — would pass
//! [`RESULT_CACHE_BYTES`], or their number [`MAX_ENTRIES`], which bounds
//! what tiny results cost beyond their rows and what a miss spends
//! looking for orphans (below). An entry also holds its table: on every miss
//! the cache drops the results of tables nothing else holds any more (a
//! table reloaded under its name), so it never keeps a dead table alive.
//! The cache is not persisted, and its entries and traffic are not part
//! of [`crate::CacheStats`].

use crate::cache::{lock, StatsCache, MAX_ENTRIES};
use crate::discretize::CodedColumns;
use crate::histogram::BinningStrategy;
use dbex_table::{Predicate, Table, View};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Accounted bytes the result cache keeps at most.
pub const RESULT_CACHE_BYTES: usize = 16 << 20;

/// Missed keys the cache remembers: a result is admitted when its key is
/// among them.
pub const MISSED_KEYS: usize = 64;

/// A table filtered by a predicate: the row ids, and the attributes coded
/// on first request (see the module docs).
#[derive(Debug)]
pub struct FilteredResult {
    table: Arc<Table>,
    predicate: Predicate,
    key: u64,
    rows: Vec<u32>,
    coded: CodedColumns,
}

impl FilteredResult {
    /// Filters `table` by `predicate`; its attributes will be coded with
    /// `bins` and `strategy`.
    pub fn filter(
        table: Arc<Table>,
        predicate: &Predicate,
        bins: usize,
        strategy: BinningStrategy,
    ) -> dbex_table::Result<FilteredResult> {
        let view = table.filter(predicate)?;
        let coded = CodedColumns::new(&view, bins, strategy);
        let rows = view.into_row_ids();
        Ok(FilteredResult {
            key: key_of(&table, predicate),
            table,
            predicate: predicate.clone(),
            rows,
            coded,
        })
    }

    /// Whether this is `table` filtered by `predicate`.
    pub fn is_of(&self, table: &Arc<Table>, predicate: &Predicate) -> bool {
        Arc::ptr_eq(&self.table, table) && self.predicate.identical(predicate)
    }

    /// The table the result was filtered from.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The result's row ids, in table order.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The result as a view, borrowing its row ids.
    pub fn view(&self) -> View<'_> {
        View::borrowed(&self.table, &self.rows)
    }

    /// The result's coded attributes.
    pub fn coded(&self) -> &CodedColumns {
        &self.coded
    }

    /// What the entry counts against [`RESULT_CACHE_BYTES`]: four bytes
    /// per row for its id and for each attribute's code.
    pub(crate) fn bytes(&self) -> usize {
        4 * self.rows.len() * (1 + self.table.num_columns())
    }
}

/// The hash of a result key: the table's process-unique id (so a hash
/// remembered for a dropped table never stands for a new one) and the
/// predicate.
fn key_of(table: &Table, predicate: &Predicate) -> u64 {
    let mut hasher = DefaultHasher::new();
    table.id().hash(&mut hasher);
    predicate.hash_identical(&mut hasher);
    hasher.finish()
}

/// Traffic and size of a [`StatsCache`]'s result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered by a cached result.
    pub hits: u64,
    /// Lookups that filtered.
    pub misses: u64,
    /// Results admitted on their key's second miss.
    pub admissions: u64,
    /// Results evicted to stay within [`RESULT_CACHE_BYTES`] and
    /// [`MAX_ENTRIES`], or because nothing but cached results held their
    /// table any more.
    pub evictions: u64,
    /// Cached results.
    pub entries: usize,
    /// Their accounted bytes: `4 B × rows × (1 + columns)` each.
    pub bytes: usize,
}

/// The LRU of admitted results and the ring of missed keys. The
/// [`StatsCache`] keeps it under one lock, taken for a probe or an
/// admission, never while filtering.
#[derive(Debug, Default)]
pub(crate) struct ResultCache {
    /// Key hash → result and its last-used stamp.
    entries: HashMap<u64, (Arc<FilteredResult>, u64)>,
    /// Last-used stamp → key hash, oldest first.
    recency: BTreeMap<u64, u64>,
    tick: u64,
    missed: VecDeque<u64>,
    stats: ResultCacheStats,
}

impl ResultCache {
    fn get(&mut self, table: &Arc<Table>, predicate: &Predicate) -> Option<Arc<FilteredResult>> {
        let key = key_of(table, predicate);
        let (result, stamp) = self.entries.get_mut(&key)?;
        if !result.is_of(table, predicate) {
            return None;
        }
        self.recency.remove(stamp);
        self.tick += 1;
        *stamp = self.tick;
        self.recency.insert(self.tick, key);
        Some(Arc::clone(result))
    }

    fn remove(&mut self, key: u64) {
        if let Some((result, stamp)) = self.entries.remove(&key) {
            self.recency.remove(&stamp);
            self.stats.bytes -= result.bytes();
        }
    }

    /// Drops the results of tables that nothing but those results holds
    /// any more — a table reloaded under its name and no longer read by
    /// any statement — so a cached result never keeps a dead table alive.
    /// Returns how many it dropped.
    fn drop_orphans(&mut self) -> u64 {
        let mut cached: HashMap<*const Table, usize> = HashMap::new();
        for (result, _) in self.entries.values() {
            *cached.entry(Arc::as_ptr(&result.table)).or_default() += 1;
        }
        let orphans: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, (r, _))| Arc::strong_count(&r.table) == cached[&Arc::as_ptr(&r.table)])
            .map(|(&key, _)| key)
            .collect();
        for &key in &orphans {
            self.remove(key);
        }
        orphans.len() as u64
    }

    /// Admits `result` if its key missed recently, else remembers the key.
    /// Returns how many results the admission evicted, or `None` when
    /// `result` was not admitted.
    fn offer(&mut self, result: &Arc<FilteredResult>) -> Option<u64> {
        let key = result.key;
        let Some(at) = self.missed.iter().position(|&k| k == key) else {
            if self.missed.len() == MISSED_KEYS {
                self.missed.pop_front();
            }
            self.missed.push_back(key);
            return None;
        };
        self.missed.remove(at);
        let bytes = result.bytes();
        let cached = self.entries.get(&key);
        if bytes > RESULT_CACHE_BYTES
            || cached.is_some_and(|(c, _)| c.is_of(&result.table, &result.predicate))
        {
            return None;
        }
        // A different result under the same hash gives way.
        self.remove(key);
        let mut evicted = 0;
        while self.stats.bytes + bytes > RESULT_CACHE_BYTES
            || self.entries.len() >= MAX_ENTRIES
        {
            let Some(&oldest) = self.recency.values().next() else {
                break;
            };
            self.remove(oldest);
            evicted += 1;
        }
        self.tick += 1;
        self.recency.insert(self.tick, key);
        self.entries.insert(key, (Arc::clone(result), self.tick));
        self.stats.bytes += bytes;
        self.stats.admissions += 1;
        self.stats.evictions += evicted;
        Some(evicted)
    }
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        dbex_obs::gauge!("query.result_memo.bytes").add(-(self.stats.bytes as i64));
    }
}

impl StatsCache {
    /// The result of filtering `table` by `predicate`: the cached one, or
    /// the one `filter` makes, which is admitted when its key missed
    /// recently (see the module docs of [`crate::results`]). A filter
    /// error is returned and leaves the cache as it was.
    pub fn result_with<E>(
        &self,
        table: &Arc<Table>,
        predicate: &Predicate,
        filter: impl FnOnce() -> Result<FilteredResult, E>,
    ) -> Result<Arc<FilteredResult>, E> {
        let hit = {
            let mut cache = lock(&self.results);
            let hit = cache.get(table, predicate);
            cache.stats.hits += u64::from(hit.is_some());
            hit
        };
        if let Some(hit) = hit {
            dbex_obs::counter!("query.result_memo.hits").incr(1);
            return Ok(hit);
        }
        let result = Arc::new(filter()?);
        let (admitted, evicted, bytes_delta) = {
            let mut cache = lock(&self.results);
            cache.stats.misses += 1;
            let before = cache.stats.bytes;
            let orphans = cache.drop_orphans();
            cache.stats.evictions += orphans;
            let admitted = cache.offer(&result);
            let evicted = orphans + admitted.unwrap_or(0);
            (admitted.is_some(), evicted, cache.stats.bytes as i64 - before as i64)
        };
        dbex_obs::counter!("query.result_memo.misses").incr(1);
        dbex_obs::counter!("query.result_memo.admissions").incr(u64::from(admitted));
        dbex_obs::counter!("query.result_memo.evictions").incr(evicted);
        dbex_obs::gauge!("query.result_memo.bytes").add(bytes_delta);
        Ok(result)
    }

    /// Traffic and size of the result cache.
    pub fn result_stats(&self) -> ResultCacheStats {
        let cache = lock(&self.results);
        ResultCacheStats {
            entries: cache.entries.len(),
            ..cache.stats
        }
    }

    /// Drops every cached result and forgets the missed keys (counters are
    /// kept). Sessions keep the results they pin.
    pub fn clear_results(&self) {
        let mut cache = lock(&self.results);
        dbex_obs::gauge!("query.result_memo.bytes").add(-(cache.stats.bytes as i64));
        cache.entries.clear();
        cache.recency.clear();
        cache.missed.clear();
        cache.stats.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::predicate::CmpOp;
    use dbex_table::{Column, DataType, Field, Schema, Value};

    /// One Int column `x` holding `0..rows`.
    fn table(rows: usize) -> Arc<Table> {
        let mut column = Column::empty(DataType::Int);
        for i in 0..rows {
            column.push(Value::Int(i as i64), "x").unwrap();
        }
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        Arc::new(Table::from_parts(schema, vec![column], rows).unwrap())
    }

    /// `x >= low`.
    fn at_least(low: i64) -> Predicate {
        Predicate::cmp("x", CmpOp::Ge, low)
    }

    /// Asks `cache` for `table` filtered by `predicate`.
    fn ask(cache: &StatsCache, table: &Arc<Table>, predicate: &Predicate) -> Arc<FilteredResult> {
        let filter = || {
            FilteredResult::filter(Arc::clone(table), predicate, 4, BinningStrategy::EquiDepth)
        };
        cache.result_with(table, predicate, filter).unwrap()
    }

    #[test]
    fn admits_a_result_on_its_second_miss() {
        let cache = StatsCache::new();
        let t = table(100);
        let first = ask(&cache, &t, &at_least(10));
        assert_eq!(first.rows().len(), 90);
        let stats = cache.result_stats();
        assert_eq!((stats.misses, stats.admissions, stats.entries), (1, 0, 0));
        let second = ask(&cache, &t, &at_least(10));
        assert!(!Arc::ptr_eq(&first, &second), "the first miss was not kept");
        let hit = cache
            .result_with(&t, &at_least(10), || -> Result<_, ()> { panic!("must hit") })
            .unwrap();
        assert!(Arc::ptr_eq(&second, &hit));
        let stats = cache.result_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.admissions, stats.entries, stats.bytes),
            (1, 2, 1, 1, 4 * 90 * 2)
        );
        // `0.0` and `-0.0` select different rows; a reloaded table is a
        // new `Arc`, and the same predicate over it misses.
        let zero = Predicate::cmp("x", CmpOp::Ge, 0.0);
        ask(&cache, &t, &zero);
        ask(&cache, &t, &zero);
        ask(&cache, &t, &Predicate::cmp("x", CmpOp::Ge, -0.0));
        let twin = Arc::new((*t).clone());
        ask(&cache, &twin, &at_least(10));
        let stats = cache.result_stats();
        assert_eq!((stats.hits, stats.misses, stats.admissions), (1, 6, 2));
        // A filter error is returned and remembers nothing.
        let bad = Predicate::eq("nope", 1);
        for _ in 0..2 {
            assert!(cache
                .result_with(&t, &bad, || FilteredResult::filter(
                    Arc::clone(&t),
                    &bad,
                    4,
                    BinningStrategy::EquiDepth
                ))
                .is_err());
        }
        assert_eq!(cache.result_stats().misses, 6);
        cache.clear_results();
        let stats = cache.result_stats();
        assert_eq!((stats.entries, stats.bytes, stats.misses), (0, 0, 6));
    }

    #[test]
    fn drops_the_results_of_a_table_nothing_else_holds() {
        let cache = StatsCache::new();
        let old = table(100);
        let dead = Arc::downgrade(&old);
        for low in [10, 20] {
            ask(&cache, &old, &at_least(low));
            ask(&cache, &old, &at_least(low));
        }
        assert_eq!(cache.result_stats().entries, 2);
        // The table is reloaded: only its two cached results hold it.
        drop(old);
        let new = table(100);
        ask(&cache, &new, &at_least(10));
        let stats = cache.result_stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 2));
        assert!(dead.upgrade().is_none(), "the reloaded table is freed");
        // A table still held elsewhere keeps its results.
        ask(&cache, &new, &at_least(10));
        ask(&cache, &new, &at_least(20));
        assert_eq!(cache.result_stats().entries, 1);
    }

    #[test]
    fn keeps_at_most_max_entries_results() {
        let cache = StatsCache::new();
        let t = table(4);
        for low in 0..=MAX_ENTRIES as i64 {
            ask(&cache, &t, &at_least(low));
            ask(&cache, &t, &at_least(low));
        }
        let stats = cache.result_stats();
        assert_eq!(
            (stats.admissions, stats.entries, stats.evictions),
            (MAX_ENTRIES as u64 + 1, MAX_ENTRIES, 1)
        );
    }

    #[test]
    fn forgets_keys_that_missed_too_long_ago() {
        let cache = StatsCache::new();
        let t = table(10);
        ask(&cache, &t, &at_least(0));
        for low in 1..=MISSED_KEYS as i64 {
            ask(&cache, &t, &at_least(low));
        }
        ask(&cache, &t, &at_least(0));
        assert_eq!(cache.result_stats().admissions, 0, "key 0 left the ring");
        ask(&cache, &t, &at_least(MISSED_KEYS as i64));
        assert_eq!(cache.result_stats().admissions, 1, "the newest key is still in it");
    }

    #[test]
    fn evicts_the_least_recently_used_result_to_stay_within_the_bound() {
        // A one-column row costs 8 bytes, so the whole table is just over
        // the bound, and each of the 40% slices below takes 40% of it:
        // two fit, a third evicts one.
        let rows = RESULT_CACHE_BYTES / 8 + 1;
        let t = table(rows);
        let cache = StatsCache::new();
        let whole = at_least(0);
        ask(&cache, &t, &whole);
        ask(&cache, &t, &whole);
        assert_eq!(cache.result_stats().admissions, 0, "too big to admit");

        let slices: Vec<Predicate> = (0..3).map(|i| at_least((rows * 6 / 10 + i) as i64)).collect();
        let admit = |p: &Predicate| {
            ask(&cache, &t, p);
            ask(&cache, &t, p)
        };
        admit(&slices[0]);
        admit(&slices[1]);
        ask(&cache, &t, &slices[0]); // the first is now the more recent
        let stats = cache.result_stats();
        assert_eq!((stats.admissions, stats.entries, stats.evictions), (2, 2, 0));
        admit(&slices[2]);
        let stats = cache.result_stats();
        assert_eq!((stats.admissions, stats.entries, stats.evictions), (3, 2, 1));
        assert!(stats.bytes <= RESULT_CACHE_BYTES);
        let hits = stats.hits;
        ask(&cache, &t, &slices[0]);
        ask(&cache, &t, &slices[2]);
        assert_eq!(cache.result_stats().hits, hits + 2);
        ask(&cache, &t, &slices[1]);
        assert_eq!(cache.result_stats().hits, hits + 2, "the second was evicted");
    }
}
