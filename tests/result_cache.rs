//! What a revisited result costs, and what a never-revisited one leaves.
//!
//! The stats cache shares filtered results between statements and
//! sessions: a CAD step back to a result already seen, or a `SUGGEST
//! COMPLETE … WHERE` keystroke with no context predicate, reads its rows,
//! coded columns, code counts and partition fingerprints instead of
//! recomputing them in O(rows). Results are admitted on their second
//! miss, so a stream of one-off results keeps nothing. This binary counts
//! every heap allocation with a global allocator (so it holds exactly one
//! test) and pins all three.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::explore::SyntheticSpec;
use dbexplorer::query::Session;
use dbexplorer::stats::StatsCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

/// Heap bytes currently allocated by the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations (including reallocations) made so far.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes those allocations asked for.
static ASKED: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn record(size: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ASKED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            Self::record(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            Self::record(layout.size());
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
            Self::record(new_size);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 40_000;

/// Bounds on a cached CAD step: 778 allocations and 509 KB measured; the
/// one-slot session memo this cache replaced filtered and coded again on
/// every return (895 allocations, 1.53 MB).
const MAX_STEP_CALLS: u64 = 850;
const MAX_STEP_BYTES: u64 = 640 * 1024;

/// Bounds on a bare completion keystroke: 25 allocations and under 1 KB
/// measured; coding the table per keystroke took 56 and 492 KB.
const MAX_KEYSTROKE_CALLS: u64 = 40;
const MAX_KEYSTROKE_BYTES: u64 = 4 * 1024;

/// Allocations and bytes asked for by `sql`.
fn measure(session: &mut Session, sql: &str) -> (u64, u64) {
    let (calls, asked) = (CALLS.load(Ordering::Relaxed), ASKED.load(Ordering::Relaxed));
    session.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (
        CALLS.load(Ordering::Relaxed) - calls,
        ASKED.load(Ordering::Relaxed) - asked,
    )
}

/// [`measure`] per statement of `steps`, averaged.
fn per_statement(session: &mut Session, steps: &[String]) -> (u64, u64) {
    let total = steps.iter().fold((0, 0), |(calls, asked), sql| {
        let (c, a) = measure(session, sql);
        (calls + c, asked + a)
    });
    let n = steps.len() as u64;
    (total.0 / n, total.1 / n)
}

/// A session over `table` named `name`, on `cache`.
fn session_on(cache: &Arc<StatsCache>, name: &str, table: dbexplorer::table::Table) -> Session {
    let mut session = Session::new();
    session.set_stats_cache(Arc::clone(cache));
    session.register_table(name, table);
    session
}

/// A CAD step back to a result seen before: two views walked alternately,
/// each one's result, coded columns and clustered partitions cached.
fn cached_cad_step() -> (u64, u64) {
    let cache = Arc::new(StatsCache::new());
    let synth = SyntheticSpec::exploration_default(ROWS, 42).generate();
    let mut session = session_on(&cache, "synth", synth);
    let walk: Vec<String> = ["d0 = d0_v0", "d1 = d1_v0"]
        .iter()
        .cycle()
        .take(20)
        .map(|pred| {
            format!(
                "CREATE CADVIEW v AS SET pivot = p FROM synth WHERE {pred} \
                 LIMIT COLUMNS 3 IUNITS 2"
            )
        })
        .collect();
    // Two visits each admit both results; the third fills what a cached
    // build derives on its first run.
    per_statement(&mut session, &walk[..6]);
    let admitted = cache.result_stats();
    assert_eq!(
        (admitted.admissions, admitted.entries),
        (2, 2),
        "{admitted:?}"
    );
    let step = per_statement(&mut session, &walk[6..]);
    let stats = cache.result_stats();
    assert_eq!(stats.hits - admitted.hits, 14, "every step hits: {stats:?}");
    assert_eq!(stats.misses, admitted.misses, "no step filters: {stats:?}");
    step
}

/// A `SUGGEST COMPLETE` keystroke with no context predicate, each after a
/// drill that moves the session's pin to another result.
fn bare_completion_keystroke() -> (u64, u64) {
    let cache = Arc::new(StatsCache::new());
    let cars = UsedCarsGenerator::new(42).generate(ROWS);
    let mut session = session_on(&cache, "cars", cars);
    let keystrokes = [
        "SUGGEST COMPLETE SELECT * FROM cars WHERE M",
        "SUGGEST COMPLETE SELECT * FROM cars WHERE Ma",
        "SUGGEST COMPLETE SELECT * FROM cars WHERE Make = F",
        "SUGGEST COMPLETE SELECT * FROM cars WHERE Make = Fo",
    ];
    let drill = "SELECT Make FROM cars WHERE BodyType = SUV LIMIT 5";
    let mut timed = (0, 0);
    for (i, keystroke) in keystrokes.iter().cycle().take(16).enumerate() {
        session.execute(drill).expect("drill");
        let (calls, asked) = measure(&mut session, keystroke);
        // The first round filters the table twice, admitting it on the
        // second miss; the second codes what the admitted result lacks.
        if i >= 2 * keystrokes.len() {
            timed = (timed.0 + calls, timed.1 + asked);
        }
    }
    let stats = cache.result_stats();
    assert_eq!(
        (stats.misses, stats.admissions),
        (4, 2),
        "the drill and the bare table are each filtered twice: {stats:?}"
    );
    (timed.0 / 8, timed.1 / 8)
}

/// Resident result-cache bytes after a stream of one-off range builds,
/// each followed by `SUGGEST NEXT`, as `cad_cold` sends them.
fn one_off_stream_residue() -> isize {
    let cache = Arc::new(StatsCache::new());
    let cars = UsedCarsGenerator::new(42).generate(ROWS);
    let mut session = session_on(&cache, "cars", cars);
    for step in 0..12 {
        let lo = 5_000 + 1_000 * step;
        session
            .execute(&format!(
                "CREATE CADVIEW v AS SET pivot = Make FROM cars \
                 WHERE Price BETWEEN {lo} AND {} LIMIT COLUMNS 5 IUNITS 3",
                lo + 9_000
            ))
            .unwrap();
        session.execute("SUGGEST NEXT FOR v").unwrap();
    }
    let stats = cache.result_stats();
    assert_eq!(
        (stats.misses, stats.admissions, stats.entries, stats.bytes),
        (12, 0, 0, 0),
        "one-off results are never admitted: {stats:?}"
    );
    let before = LIVE.load(Ordering::Relaxed);
    cache.clear_results();
    before - LIVE.load(Ordering::Relaxed)
}

#[test]
fn revisits_cost_their_answer_and_one_offs_leave_nothing() {
    let (calls, asked) = cached_cad_step();
    eprintln!("cached CAD step: {calls} allocations, {asked} bytes");
    assert!(
        calls <= MAX_STEP_CALLS && asked <= MAX_STEP_BYTES,
        "a cached CAD step made {calls} allocations of {asked} bytes"
    );
    let (calls, asked) = bare_completion_keystroke();
    eprintln!("bare completion keystroke: {calls} allocations, {asked} bytes");
    assert!(
        calls <= MAX_KEYSTROKE_CALLS && asked <= MAX_KEYSTROKE_BYTES,
        "a bare completion keystroke made {calls} allocations of {asked} bytes"
    );
    let residue = one_off_stream_residue();
    assert_eq!(residue, 0, "one-off results leave {residue} bytes resident");
}
