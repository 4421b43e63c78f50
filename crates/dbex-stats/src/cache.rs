//! Memoized per-view statistics.
//!
//! CAD View construction and faceted refinement recompute the same
//! statistics over and over: a TPFacet toggle rebuilds histograms for every
//! attribute of an unchanged result set, and repeated `CREATE CADVIEW` /
//! `EXPLAIN CADVIEW` calls on the same result set redo every contingency
//! table. [`StatsCache`] memoizes the expensive artifacts — attribute
//! codecs (which embed the histogram for numeric attributes), the scores of
//! chi-square contingency tables ([`TableScores`]) and per-partition
//! cluster solutions — keyed on the *view fingerprint* plus the
//! statistic's parameters. It also holds the filtered results every
//! session shares ([`crate::results`]), which are bounded in bytes and
//! kept out of [`CacheStats`].
//!
//! # What an entry costs
//!
//! A server keeps up to `--cache-entries` entries in each map, and every
//! cold CAD build adds a few dozen, so each entry holds only what its
//! readers use: a contingency entry keeps the three scores computed once
//! from the table, not the `u64` counts, and a cluster solution packs its
//! member indices into an exactly sized buffer. Each cold 40,000-row cars
//! build (`CREATE CADVIEW` plus `SUGGEST NEXT`) grows the live heap by
//! about 22 KiB, down from 36 KiB with count tables and doubling-grown
//! buffers; `tests/cache_residency.rs` pins the cache's share.
//!
//! # Keying and invalidation
//!
//! [`dbex_table::View::fingerprint`] hashes the table's process-unique id
//! together with the exact row selection, so there is no explicit
//! invalidation protocol: any change to the selection (or a reloaded table)
//! produces a different key and simply misses. Entries for dead views are
//! bounded by [`MAX_ENTRIES`] per map — when a map fills up the
//! least-recently-used entry is evicted, which only costs recomputation,
//! never correctness: a fingerprint either finds the value built for
//! exactly that key or misses and rebuilds.
//!
//! # Concurrency
//!
//! The cache is `Sync` and shared process-wide by `dbex-serve`: every
//! connection's session points at the same instance, so one client's CAD
//! build warms every other client's refinements. Each map is sharded
//! ([`SHARD_COUNT`] ways, keyed on the entry hash) so concurrent sessions
//! touching different keys rarely contend on the same `Mutex`, and builds
//! run *outside* the lock, so parallel workers scoring different
//! attributes never serialize on each other's computation. Two threads
//! racing on the same key may both build; the results are deterministic
//! and identical, so either insert is fine.

use crate::chi2::{ChiSquareResult, ContingencyTable};
use crate::discretize::AttributeCodec;
use crate::entropy::{information_gain, symmetrical_uncertainty};
use crate::error::StatsError;
use crate::histogram::BinningStrategy;
use crate::results::ResultCache;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-map entry cap; reaching it evicts the least-recently-used entry
/// (see the module docs).
pub const MAX_ENTRIES: usize = 1024;

/// Lock shards per map. Sized for "a few dozen concurrent sessions": the
/// probability of two random keys colliding on a shard is 1/8, and the
/// critical sections are a `HashMap` probe, so contention is negligible.
pub const SHARD_COUNT: usize = 8;

/// Key for a memoized [`AttributeCodec`] (histogram + labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodecKey {
    /// [`dbex_table::View::fingerprint`] of the view the codec was built on.
    pub view_fp: u64,
    /// Schema index of the discretized attribute.
    pub attr: usize,
    /// Bin count for numeric attributes.
    pub bins: usize,
    /// Binning strategy for numeric attributes.
    pub strategy: BinningStrategy,
}

/// Key for the memoized [`TableScores`] of a chi-square
/// [`ContingencyTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContingencyKey {
    /// [`dbex_table::View::fingerprint`] of the scoring view.
    pub view_fp: u64,
    /// Hash of the class-label assignment (pivot column + selected pivot
    /// codes): the same view crossed with a different pivot must not share
    /// contingency tables.
    pub class_ctx: u64,
    /// Schema index of the scored attribute.
    pub attr: usize,
    /// Bin count used to discretize the attribute.
    pub bins: usize,
    /// Binning strategy used to discretize the attribute.
    pub strategy: BinningStrategy,
}

/// What the readers of a contingency table use of it — Compare Attribute
/// selection and `SUGGEST NEXT` — computed once when the table is built.
/// The cache keeps these instead of the table's counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableScores {
    /// Pearson's chi-square test; `None` when it is undefined (fewer than
    /// two non-empty rows or columns).
    pub chi_square: Option<ChiSquareResult>,
    /// [`information_gain`] of the table.
    pub information_gain: f64,
    /// [`symmetrical_uncertainty`] of the table.
    pub symmetrical_uncertainty: f64,
}

impl TableScores {
    /// Scores `table`, bit for bit as each reader would on its own.
    pub fn of(table: &ContingencyTable) -> TableScores {
        TableScores {
            chi_square: table.chi_square(),
            information_gain: information_gain(table),
            symmetrical_uncertainty: symmetrical_uncertainty(table),
        }
    }
}

/// Key for a memoized per-pivot-partition cluster solution.
///
/// The fingerprint half identifies the *data*: the CAD builder hashes the
/// partition's member row ids together with every compare attribute's
/// dictionary codes and cardinality at those rows, so any change to the
/// partition's membership, the attribute set, or a numeric attribute's
/// re-binned codes misses automatically. The remaining fields pin the
/// clustering parameters that shape the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKey {
    /// Hash of (table id, member row ids, per-attribute codes + cardinality).
    pub partition_fp: u64,
    /// Candidate cluster count `l` after any adaptive clamping.
    pub l: usize,
    /// k-means iteration cap after any budget clamping.
    pub iters: usize,
    /// Clustering PRNG seed.
    pub seed: u64,
    /// Whether k-means++ seeding was used.
    pub plus_plus: bool,
    /// Effective training-sample cap (`usize::MAX` = cluster every member).
    pub sample: usize,
}

/// A memoized cluster solution: the partition's members bucketed into
/// non-empty clusters, in cluster-index order.
///
/// Members are stored as **indices into the partition's member list**, not
/// as view positions — a facet refinement renumbers positions, but as long
/// as the partition holds the same rows in the same order (which the
/// [`ClusterKey`] fingerprint guarantees) the indices remap exactly. The
/// consumer rebuilds IUnits from the remapped members, so labels and
/// scores are recomputed identically rather than trusted stale.
///
/// The cache keeps these for every partition it has clustered, so they
/// are packed: every cluster's indices in one flat buffer, two bytes each
/// when every index fits in a `u16` and four otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSolution {
    /// `members[ends[i - 1]..ends[i]]` is cluster `i` (from 0 for `i = 0`).
    ends: Vec<u32>,
    members: PackedIndices,
}

/// A flat index buffer at the narrowest width that holds every index.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PackedIndices {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl ClusterSolution {
    /// Packs `clusters` (lists of member-list indices, in cluster order)
    /// into buffers of exactly the needed size: the cache keeps every
    /// solution it memoizes, so spare capacity would stay resident too.
    pub fn new(clusters: &[Vec<u32>]) -> ClusterSolution {
        let mut ends = Vec::with_capacity(clusters.len());
        let mut total = 0u32;
        for cluster in clusters {
            total += cluster.len() as u32;
            ends.push(total);
        }
        let flat = clusters.iter().flatten().copied();
        let members = if flat.clone().all(|i| i <= u32::from(u16::MAX)) {
            let mut narrow = Vec::with_capacity(total as usize);
            narrow.extend(flat.map(|i| i as u16));
            PackedIndices::U16(narrow)
        } else {
            let mut wide = Vec::with_capacity(total as usize);
            wide.extend(flat);
            PackedIndices::U32(wide)
        };
        ClusterSolution { ends, members }
    }

    /// Each cluster's members looked up in `targets` (the partition's
    /// member list): `targets[i]` for every stored index `i`, skipping an
    /// index out of range rather than trusting it with a panic.
    pub fn remap<T: Copy>(&self, targets: &[T]) -> Vec<Vec<T>> {
        self.clusters()
            .map(|cluster| {
                cluster
                    .filter_map(|i| targets.get(i as usize).copied())
                    .collect()
            })
            .collect()
    }

    /// The clusters unpacked, as [`ClusterSolution::new`] received them.
    pub fn to_vecs(&self) -> Vec<Vec<u32>> {
        self.clusters().map(Iterator::collect).collect()
    }

    fn clusters(&self) -> impl Iterator<Item = impl Iterator<Item = u32> + '_> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(move |(start, &end)| (start as usize..end as usize).map(|j| self.members.get(j)))
    }
}

impl PackedIndices {
    fn get(&self, j: usize) -> u32 {
        match self {
            PackedIndices::U16(m) => u32::from(m[j]),
            PackedIndices::U32(m) => m[j],
        }
    }
}

/// Counters and sizes reported by [`StatsCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by LRU eviction (capacity pressure, not staleness).
    pub evictions: u64,
    /// Live codec entries.
    pub codec_entries: usize,
    /// Live contingency-score entries.
    pub contingency_entries: usize,
    /// Live cluster-reuse entries.
    pub cluster_entries: usize,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} entries",
            self.hits,
            self.misses,
            self.codec_entries + self.contingency_entries + self.cluster_entries
        )
    }
}

/// Locks a shard, recovering the data from a poisoned mutex: every value
/// in the maps is immutable once inserted (entries are `Arc`ed and only
/// added or removed whole), so a panic mid-operation cannot leave a
/// half-written value behind. The result cache and the coded-column memo
/// lock the same way, for the same reason.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One shard's storage: value plus its last-touched stamp.
type Shard<K, V> = HashMap<K, (Arc<V>, u64)>;

/// A sharded, LRU-evicting map from `K` to `Arc<V>`.
///
/// Each shard is an independent `Mutex<HashMap>` holding entries tagged
/// with a last-touched stamp drawn from one shared atomic tick. Lookups
/// refresh the stamp; inserts into a full shard evict that shard's
/// least-recently-touched entry first. Eviction scans the shard (O(shard
/// size)), which at ≤ [`MAX_ENTRIES`]`/`[`SHARD_COUNT`] entries is cheaper
/// than maintaining linked LRU order on every hit.
#[derive(Debug)]
struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    cap_per_shard: usize,
    tick: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> ShardedLru<K, V> {
    fn new(total_cap: usize) -> Self {
        ShardedLru {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            cap_per_shard: total_cap.div_ceil(SHARD_COUNT).max(1),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, (Arc<V>, u64)>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Looks `key` up, refreshing its recency stamp on a hit.
    fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut map = lock(self.shard(key));
        map.get_mut(key).map(|entry| {
            entry.1 = self.tick.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&entry.0)
        })
    }

    /// Inserts `key`, evicting the shard's least-recently-used entry when
    /// the shard is full and `key` is new.
    fn insert(&self, key: K, value: Arc<V>) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = lock(self.shard(&key));
        if map.len() >= self.cap_per_shard && !map.contains_key(&key) {
            let victim = map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                dbex_obs::counter!("stats.cache.evictions").incr(1);
            }
        }
        map.insert(key, (value, stamp));
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Snapshot of every live entry, shard by shard (order unspecified).
    fn entries(&self) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = lock(shard);
            out.extend(map.iter().map(|(k, (v, _))| (k.clone(), Arc::clone(v))));
        }
        out
    }

    fn clear(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
    }

    fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Memoization cache for per-view statistics. See the module docs.
#[derive(Debug)]
pub struct StatsCache {
    codecs: ShardedLru<CodecKey, AttributeCodec>,
    scores: ShardedLru<ContingencyKey, TableScores>,
    clusters: ShardedLru<ClusterKey, ClusterSolution>,
    /// Filtered results shared by every session (see [`crate::results`]).
    pub(crate) results: Mutex<ResultCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for StatsCache {
    fn default() -> Self {
        Self::with_capacity(MAX_ENTRIES)
    }
}

impl StatsCache {
    /// Creates an empty cache holding up to [`MAX_ENTRIES`] entries per
    /// map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding up to `entries` entries in **each**
    /// of its three maps (codecs, contingency scores, cluster solutions);
    /// zero is clamped to one.
    ///
    /// The default suits a single session's working set. A server shared
    /// by hundreds of concurrent sessions needs proportionally more: at
    /// 1024 sessions over the default capacity the exploration benchmark
    /// measured evictions ≈ misses (the cache thrashing instead of
    /// retaining), which `dbex-serve`'s `--cache-entries` knob exists to
    /// fix.
    pub fn with_capacity(entries: usize) -> Self {
        let entries = entries.max(1);
        StatsCache {
            codecs: ShardedLru::new(entries),
            scores: ShardedLru::new(entries),
            clusters: ShardedLru::new(entries),
            results: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Records a hit on this cache and in the process-wide registry.
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        dbex_obs::counter!("stats.cache.hits").incr(1);
    }

    /// Records a miss on this cache and in the process-wide registry.
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        dbex_obs::counter!("stats.cache.misses").incr(1);
    }

    /// Returns the codec for `key`, building it with `build` on a miss.
    ///
    /// Build errors are returned and not cached, so a transient failure
    /// (e.g. injected fault) does not poison the key.
    pub fn codec_with(
        &self,
        key: CodecKey,
        build: impl FnOnce() -> Result<AttributeCodec, StatsError>,
    ) -> Result<Arc<AttributeCodec>, StatsError> {
        if let Some(hit) = self.codecs.get(&key) {
            self.hit();
            return Ok(hit);
        }
        self.miss();
        let built = Arc::new(build()?);
        self.codecs.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Returns the scores of the contingency table for `key`; on a miss
    /// it builds the table, scores it and keeps only the scores.
    ///
    /// `build` returning `None` (attribute cannot be discretized) is passed
    /// through and not cached.
    pub fn contingency_with(
        &self,
        key: ContingencyKey,
        build: impl FnOnce() -> Option<ContingencyTable>,
    ) -> Option<TableScores> {
        if let Some(hit) = self.scores.get(&key) {
            self.hit();
            return Some(*hit);
        }
        self.miss();
        let scores = TableScores::of(&build()?);
        self.scores.insert(key, Arc::new(scores));
        Some(scores)
    }

    /// Returns the memoized cluster solution for `key`, if any.
    ///
    /// Unlike [`Self::codec_with`] this is a pure lookup: the build runs in
    /// the caller (the CAD builder's clustering), which then publishes a
    /// success via [`Self::cluster_insert`]. Hits and misses count toward
    /// [`Self::stats`].
    pub fn cluster_lookup(&self, key: &ClusterKey) -> Option<Arc<ClusterSolution>> {
        if let Some(hit) = self.clusters.get(key) {
            self.hit();
            return Some(hit);
        }
        self.miss();
        None
    }

    /// Memoizes a cluster solution under `key` (see [`Self::cluster_lookup`]).
    pub fn cluster_insert(&self, key: ClusterKey, solution: ClusterSolution) {
        self.clusters.insert(key, Arc::new(solution));
    }

    /// Snapshot of every memoized exact cluster solution, for persistence:
    /// `dbex-store` saves these alongside the catalog so a warm-restarted
    /// server's first CAD build reuses partitions instead of re-clustering.
    /// Order is unspecified; callers needing deterministic output sort by
    /// key.
    pub fn export_clusters(&self) -> Vec<(ClusterKey, ClusterSolution)> {
        self.clusters
            .entries()
            .into_iter()
            .map(|(k, v)| (k, (*v).clone()))
            .collect()
    }

    /// Number of exact cluster solutions currently memoized (the
    /// [`CacheStats::cluster_entries`] count, without locking the other
    /// maps).
    pub fn exact_cluster_entries(&self) -> usize {
        self.clusters.len()
    }

    /// Drops every entry, cached results included (counters are kept).
    pub fn clear(&self) {
        self.codecs.clear();
        self.scores.clear();
        self.clusters.clear();
        self.clear_results();
    }

    /// Snapshot of hit/miss/eviction counters and live entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.codecs.evictions()
                + self.scores.evictions()
                + self.clusters.evictions(),
            codec_entries: self.codecs.len(),
            contingency_entries: self.scores.len(),
            cluster_entries: self.clusters.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec_key(fp: u64, attr: usize) -> CodecKey {
        CodecKey {
            view_fp: fp,
            attr,
            bins: 4,
            strategy: BinningStrategy::EquiDepth,
        }
    }

    fn some_codec() -> Result<AttributeCodec, StatsError> {
        Ok(AttributeCodec::Categorical {
            labels: vec!["a".into(), "b".into()],
        })
    }

    /// A codec whose labels encode the key that built it, so a lookup can
    /// verify it got the value for *its* fingerprint and nobody else's.
    fn codec_for(fp: u64) -> Result<AttributeCodec, StatsError> {
        Ok(AttributeCodec::Categorical {
            labels: vec![format!("fp{fp}")],
        })
    }

    fn codec_label(codec: &AttributeCodec) -> String {
        match codec {
            AttributeCodec::Categorical { labels } => labels.join(","),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn codec_hits_after_miss() {
        let cache = StatsCache::new();
        let a = cache.codec_with(codec_key(1, 0), some_codec).unwrap();
        let b = cache.codec_with(codec_key(1, 0), || panic!("must hit")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.codec_entries), (1, 1, 1));
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = StatsCache::new();
        cache.codec_with(codec_key(1, 0), some_codec).unwrap();
        cache.codec_with(codec_key(2, 0), some_codec).unwrap();
        cache.codec_with(codec_key(1, 1), some_codec).unwrap();
        assert_eq!(cache.stats().codec_entries, 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = StatsCache::new();
        let err = cache.codec_with(codec_key(1, 0), || {
            Err(StatsError::NoUsableValues { attr: 0 })
        });
        assert!(err.is_err());
        // The next call builds again and can succeed.
        assert!(cache.codec_with(codec_key(1, 0), some_codec).is_ok());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn contingency_round_trip() {
        let cache = StatsCache::new();
        let key = ContingencyKey {
            view_fp: 7,
            class_ctx: 3,
            attr: 2,
            bins: 4,
            strategy: BinningStrategy::EquiWidth,
        };
        let table = || {
            let mut t = ContingencyTable::new(2, 2);
            for (row, col) in [(0, 0), (0, 1), (1, 1), (1, 1)] {
                t.add(row, col);
            }
            t
        };
        let built = cache.contingency_with(key, || Some(table())).unwrap();
        let hit = cache.contingency_with(key, || panic!("must hit")).unwrap();
        assert_eq!(built, hit);
        assert_eq!(built, TableScores::of(&table()));
        assert!(built.chi_square.is_some() && built.symmetrical_uncertainty > 0.0);
        assert!(cache
            .contingency_with(
                ContingencyKey { class_ctx: 4, ..key },
                || Some(ContingencyTable::new(2, 2))
            )
            .is_some());
        assert_eq!(cache.stats().contingency_entries, 2);
    }

    #[test]
    fn cluster_solution_round_trip() {
        let cache = StatsCache::new();
        let key = ClusterKey {
            partition_fp: 42,
            l: 5,
            iters: 20,
            seed: 7,
            plus_plus: true,
            sample: usize::MAX,
        };
        assert!(cache.cluster_lookup(&key).is_none());
        cache.cluster_insert(key, ClusterSolution::new(&[vec![0, 2], vec![1]]));
        let hit = cache.cluster_lookup(&key).expect("must hit");
        assert_eq!(hit.to_vecs(), vec![vec![0, 2], vec![1]]);
        // A different fingerprint or parameter misses.
        assert!(cache
            .cluster_lookup(&ClusterKey { partition_fp: 43, ..key })
            .is_none());
        assert!(cache.cluster_lookup(&ClusterKey { l: 6, ..key }).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.cluster_entries), (1, 3, 1));
    }

    #[test]
    fn export_clusters_round_trips_through_a_fresh_cache() {
        let cache = StatsCache::new();
        let key = |fp: u64| ClusterKey {
            partition_fp: fp,
            l: 4,
            iters: 20,
            seed: 7,
            plus_plus: true,
            sample: usize::MAX,
        };
        cache.cluster_insert(key(1), ClusterSolution::new(&[vec![0, 1], vec![2]]));
        cache.cluster_insert(key(2), ClusterSolution::new(&[vec![3]]));
        assert_eq!(cache.exact_cluster_entries(), 2);

        let mut exported = cache.export_clusters();
        exported.sort_by_key(|(k, _)| k.partition_fp);
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].1.to_vecs(), vec![vec![0, 1], vec![2]]);

        let rehydrated = StatsCache::new();
        for (k, v) in exported {
            rehydrated.cluster_insert(k, v);
        }
        let hit = rehydrated.cluster_lookup(&key(1)).expect("rehydrated entry hits");
        assert_eq!(hit.to_vecs(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn cluster_solution_packs_u16_up_to_65535_and_u32_beyond() {
        for (top, narrow) in [(65_535u32, true), (65_536, false)] {
            let clusters = vec![vec![top, 0, 7], vec![], vec![3, top - 1]];
            let solution = ClusterSolution::new(&clusters);
            assert_eq!(
                matches!(solution.members, PackedIndices::U16(_)),
                narrow,
                "largest index {top}"
            );
            assert_eq!(solution.to_vecs(), clusters);
            let (len, capacity) = match &solution.members {
                PackedIndices::U16(m) => (m.len(), m.capacity()),
                PackedIndices::U32(m) => (m.len(), m.capacity()),
            };
            assert_eq!((len, capacity), (5, 5), "no spare capacity stays resident");
            // Remapping reads straight from the packed buffer; an index
            // past the target list is skipped, not trusted.
            let targets: Vec<usize> = (0..top as usize).map(|i| i * 2).collect();
            assert_eq!(
                solution.remap(&targets),
                vec![vec![0, 14], vec![], vec![6, (top as usize - 1) * 2]]
            );
        }
        assert!(ClusterSolution::new(&[]).to_vecs().is_empty());
    }

    #[test]
    fn capacity_is_bounded_by_lru_eviction() {
        let cache = StatsCache::new();
        // Twice the cap: the map must stay bounded and evict, not grow.
        for i in 0..2 * MAX_ENTRIES {
            cache.codec_with(codec_key(i as u64, 0), some_codec).unwrap();
        }
        let s = cache.stats();
        assert!(
            s.codec_entries <= MAX_ENTRIES,
            "codec map exceeded its cap: {} entries",
            s.codec_entries
        );
        assert!(s.codec_entries > 0);
        assert!(s.evictions > 0, "over-cap inserts must evict");
        cache.clear();
        assert_eq!(cache.stats().codec_entries, 0);
        assert!(cache.stats().misses > 0, "counters survive clear");
    }

    #[test]
    fn eviction_prefers_the_least_recently_used_entry() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(SHARD_COUNT); // 1 entry per shard
        // Find two keys landing on the same shard.
        let hasher = |k: &u64| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            (h.finish() as usize) % SHARD_COUNT
        };
        let a = 0u64;
        let b = (1..).find(|k| hasher(k) == hasher(&a)).unwrap();
        let c = (b + 1..).find(|k| hasher(k) == hasher(&a)).unwrap();
        lru.insert(a, Arc::new(100));
        lru.insert(b, Arc::new(200)); // shard full: evicts a (LRU)
        assert!(lru.get(&a).is_none());
        assert_eq!(*lru.get(&b).unwrap(), 200);
        lru.insert(c, Arc::new(300)); // b was just touched, still evict-safe? no: shard cap 1
        assert!(lru.get(&b).is_none(), "cap-1 shard keeps only the newest");
        assert_eq!(*lru.get(&c).unwrap(), 300);
        assert_eq!(lru.evictions(), 2);
    }

    #[test]
    fn eviction_never_serves_a_stale_fingerprint() {
        let cache = StatsCache::new();
        // Fill far past capacity with self-describing values.
        for i in 0..3 * MAX_ENTRIES as u64 {
            cache.codec_with(codec_key(i, 0), || codec_for(i)).unwrap();
        }
        assert!(cache.stats().evictions > 0);
        // Every fingerprint — evicted or live — must come back with *its*
        // value: a hit returns the codec built for that exact key, and an
        // evicted key rebuilds rather than aliasing another entry.
        for i in (0..3 * MAX_ENTRIES as u64).step_by(17) {
            let got = cache.codec_with(codec_key(i, 0), || codec_for(i)).unwrap();
            assert_eq!(
                codec_label(&got),
                format!("fp{i}"),
                "fingerprint {i} served a stale or aliased entry"
            );
        }
        // Same check after re-inserting over an evicted key: the rebuilt
        // value replaces, never resurrects, the old entry.
        let fresh = cache
            .codec_with(
                CodecKey { bins: 9, ..codec_key(0, 0) },
                || codec_for(999),
            )
            .unwrap();
        assert_eq!(codec_label(&fresh), "fp999");
    }

    #[test]
    fn hot_entries_survive_cold_scans() {
        let cache = StatsCache::new();
        let hot = codec_key(u64::MAX, 7);
        cache.codec_with(hot, || codec_for(7)).unwrap();
        // A cold scan twice the cache size, touching the hot key between
        // batches the way a session's pinned view does.
        for i in 0..2 * MAX_ENTRIES as u64 {
            cache.codec_with(codec_key(i, 0), some_codec).unwrap();
            if i % 64 == 0 {
                cache.codec_with(hot, || panic!("hot entry evicted")).unwrap();
            }
        }
        let got = cache.codec_with(hot, || panic!("hot entry evicted")).unwrap();
        assert_eq!(codec_label(&got), "fp7");
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(StatsCache::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..50 {
                        cache
                            .codec_with(codec_key(i as u64 % 8, t), some_codec)
                            .unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert!(s.codec_entries >= 8);
    }

    #[test]
    fn concurrent_insert_scan_keeps_every_lookup_consistent() {
        // Hammer one cache from writers that overflow capacity and readers
        // that verify value identity: no lookup may ever observe a value
        // that belongs to a different key.
        let cache = Arc::new(StatsCache::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for round in 0..3u64 {
                        for i in 0..MAX_ENTRIES as u64 {
                            let fp = (t * 31 + round * 7 + i) % (MAX_ENTRIES as u64 * 2);
                            let got = cache
                                .codec_with(codec_key(fp, 0), || codec_for(fp))
                                .unwrap();
                            assert_eq!(codec_label(&got), format!("fp{fp}"));
                        }
                    }
                });
            }
        });
    }
}
