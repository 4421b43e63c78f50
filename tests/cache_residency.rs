//! What the shared stats cache keeps resident per cold CAD build.
//!
//! A server keeps one `StatsCache` for every session, and each cold build
//! adds entries to it: codecs, contingency scores and cluster solutions.
//! Under a stream of unique builds the cache is where the live heap grows,
//! so the bytes an entry holds bound how far a server's resident set
//! climbs before the LRU caps take over. This binary counts every heap
//! byte with a global allocator (so it holds exactly one test) and pins
//! the cache's share per build.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::query::Session;
use dbexplorer::stats::StatsCache;
use dbexplorer::table::{Table, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Heap bytes currently allocated by the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 40_000;
const BUILDS: usize = 40;
const PIVOTS: [&str; 5] = ["Make", "BodyType", "Drivetrain", "Transmission", "Color"];
/// Rows a range predicate selects, as in the benchmark's cold stream.
const MIN_ROWS: usize = 2_500;
const MAX_ROWS: usize = 12_000;
/// The bound on what `clear` frees per build (the maps keep their bucket
/// arrays): 33.2 KiB when contingency entries held their `u64` count
/// tables and solution buffers grew by doubling, 19.3 KiB without.
const MAX_BYTES_PER_BUILD: isize = 28 * 1024;

/// A column's non-NULL values in ascending order.
fn sorted_values(table: &Table, name: &str) -> Vec<Value> {
    let column = table.column(table.schema().index_of(name).unwrap());
    let mut values: Vec<Value> = (0..table.num_rows())
        .map(|row| column.get(row))
        .filter(|v| !v.is_null())
        .collect();
    values.sort_by(Value::total_cmp);
    values
}

#[test]
fn a_cold_build_leaves_at_most_28_kib_in_the_shared_cache() {
    let cars = UsedCarsGenerator::new(42).generate(ROWS);
    let ranges = [
        ("Price", sorted_values(&cars, "Price")),
        ("Mileage", sorted_values(&cars, "Mileage")),
    ];
    let cache = Arc::new(StatsCache::with_capacity(8192));
    let mut session = Session::new();
    session.register_table("cars", cars);
    session.set_stats_cache(Arc::clone(&cache));

    let mut rng = StdRng::seed_from_u64(42);
    let mut seen = HashSet::new();
    for step in 0..BUILDS {
        let (attr, sorted) = &ranges[rng.random_range(0..ranges.len())];
        // A window of ranks; its end values bound the range, so every
        // build selects a fresh result of 2,500 rows or more.
        let (lo, hi) = loop {
            let want = rng.random_range(MIN_ROWS..=MAX_ROWS);
            let start = rng.random_range(0..=sorted.len() - want);
            let bounds = (
                sorted[start].to_string(),
                sorted[start + want - 1].to_string(),
            );
            if seen.insert((*attr, bounds.clone())) {
                break bounds;
            }
        };
        let pivot = PIVOTS[step % PIVOTS.len()];
        session
            .execute(&format!(
                "CREATE CADVIEW v AS SET pivot = {pivot} FROM cars \
                 WHERE {attr} BETWEEN {lo} AND {hi} LIMIT COLUMNS 5 IUNITS 3"
            ))
            .unwrap();
        session.execute("SUGGEST NEXT FOR v").unwrap();
    }

    let stats = cache.stats();
    assert!(
        stats.cluster_entries >= BUILDS && stats.contingency_entries >= BUILDS,
        "every build must leave entries behind: {stats:?}"
    );
    let before = LIVE.load(Ordering::Relaxed);
    cache.clear();
    let after = LIVE.load(Ordering::Relaxed);
    let per_build = (before - after) / BUILDS as isize;
    eprintln!("stats cache keeps {per_build} bytes per cold build ({stats:?})");
    assert!(
        per_build <= MAX_BYTES_PER_BUILD,
        "the stats cache keeps {per_build} bytes per cold build, over {MAX_BYTES_PER_BUILD}"
    );
}
