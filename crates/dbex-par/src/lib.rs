//! Minimal fork-join parallelism over `std::thread::scope`.
//!
//! The container has no registry access, so instead of `rayon` the workspace
//! carries this small first-party executor. It provides exactly what the CAD
//! pipeline needs: an order-preserving [`par_map`] plus thread-count
//! resolution honoring the `DBEX_THREADS` environment variable.
//!
//! # Determinism
//!
//! [`par_map`] always returns results in item order, regardless of which
//! worker computed them or in what order they finished. Callers that are
//! deterministic per item therefore produce byte-identical output at any
//! thread count.
//!
//! # Thread-local state
//!
//! Work items run on short-lived pool workers (or on the caller's thread when
//! `threads <= 1` or there is at most one item). Thread-local state armed on
//! the caller — notably the `dbex_stats::fault` / `dbex_cluster::fault`
//! injection hooks — is *not* visible to pool workers. Code that relies on
//! those hooks must run with `threads == 1`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of hardware threads, falling back to 1 when unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Thread count pinned via the `DBEX_THREADS` environment variable, if set
/// to a positive integer. Used by CI to make bench runs reproducible.
pub fn env_threads() -> Option<usize> {
    let raw = std::env::var("DBEX_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Resolves a requested thread count to an effective one.
///
/// `0` means "auto": the `DBEX_THREADS` environment variable if set,
/// otherwise the hardware thread count. Any other value is used as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        env_threads().unwrap_or_else(hardware_threads).max(1)
    } else {
        requested
    }
}

/// Applies `f` to every item, using up to `threads` worker threads, and
/// returns the results in item order.
///
/// With `threads <= 1` or fewer than two items the map runs entirely on the
/// caller's thread — no threads are spawned, so thread-local state (fault
/// hooks, etc.) behaves exactly as in sequential code. Otherwise
/// `min(threads, items.len())` scoped workers pull items off a shared atomic
/// cursor; the caller's thread only collects results.
///
/// A panic in `f` propagates to the caller when the scope joins.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i, &items[i]);
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        rx.iter().collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map`] over owned items: `f` takes each item by value, on up to
/// `threads` workers, and the results come back in item order.
pub fn par_map_into<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| std::sync::Mutex::new(Some(item)))
        .collect();
    par_map(threads, &slots, |i, slot| {
        let item = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match item {
            Some(item) => f(i, item),
            None => unreachable!("par_map visits each slot once"),
        }
    })
}

/// Deterministic chunk layout for [`par_map_chunks`]: at most `threads`
/// ranges covering `0..len`, each at least `min_chunk` long (except when
/// `len < min_chunk`, which yields a single short range). Sizes differ by
/// at most one, larger chunks first, so the layout is a pure function of
/// `(len, threads, min_chunk)` — never of scheduling.
pub fn chunk_ranges(len: usize, threads: usize, min_chunk: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let max_chunks = (len / min_chunk.max(1)).max(1);
    let chunks = threads.clamp(1, max_chunks);
    let base = len / chunks;
    let rem = len % chunks;
    (0..chunks)
        .map(|i| {
            let start = i * base + i.min(rem);
            let end = start + base + usize::from(i < rem);
            start..end
        })
        .collect()
}

/// Splits `0..len` into [`chunk_ranges`] and applies `f` to every range
/// across up to `threads` workers, returning results in chunk order.
///
/// This is the intra-partition counterpart of [`par_map`]: one large work
/// item (e.g. a k-means assignment pass over all rows) is cut into row
/// ranges instead of fanning out whole items. Callers whose per-chunk
/// results merge order-invariantly (integer histogram adds, disjoint
/// per-row writes) therefore produce byte-identical output at any thread
/// count *and* any chunk layout.
///
/// With one chunk (or `threads <= 1`) `f` runs on the caller's thread, so
/// thread-local state (fault hooks) behaves exactly as in sequential code.
pub fn par_map_chunks<R, F>(threads: usize, len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, threads, min_chunk);
    par_map(threads, &ranges, |_, r| f(r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = par_map(1, &items, |i, v| (i as u64) * 31 + v);
        for threads in [2, 4, 8] {
            let par = par_map(threads, &items, |i, v| (i as u64) * 31 + v);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_into_moves_items_and_preserves_order() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        for threads in [1, 4] {
            let out = par_map_into(threads, items.clone(), |i, s| format!("{i}:{s}"));
            let want: Vec<String> = (0..100).map(|i| format!("{i}:{i}")).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, v| *v).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, v| v * 2), vec![14]);
    }

    #[test]
    fn par_map_actually_uses_multiple_threads() {
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        par_map(4, &items, |_, _| {
            // Slow each item slightly so all workers get a slice of the work.
            std::thread::sleep(std::time::Duration::from_millis(1));
            if let Ok(mut guard) = seen.lock() {
                guard.insert(std::thread::current().id());
            }
        });
        let count = seen.lock().map(|s| s.len()).unwrap_or(0);
        assert!(count > 1, "expected multiple worker threads, saw {count}");
    }

    #[test]
    fn sequential_path_runs_on_caller_thread() {
        thread_local! {
            static MARKER: Cell<u32> = const { Cell::new(0) };
        }
        MARKER.with(|m| m.set(41));
        let out = par_map(1, &[(); 4], |i, ()| {
            MARKER.with(|m| m.get()) as usize + i
        });
        assert_eq!(out, vec![41, 42, 43, 44]);
    }

    #[test]
    fn pool_workers_do_not_see_caller_thread_locals() {
        thread_local! {
            static MARKER: Cell<u32> = const { Cell::new(0) };
        }
        MARKER.with(|m| m.set(99));
        let out = par_map(4, &[(); 16], |_, ()| MARKER.with(|m| m.get()));
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 7, 100, 1001] {
            for threads in [1usize, 2, 3, 8] {
                for min_chunk in [1usize, 16, 64] {
                    let ranges = chunk_ranges(len, threads, min_chunk);
                    let mut next = 0usize;
                    for r in &ranges {
                        assert_eq!(r.start, next, "len={len} threads={threads}");
                        assert!(r.end > r.start);
                        next = r.end;
                    }
                    assert_eq!(next, len);
                    assert!(ranges.len() <= threads.max(1));
                    if len > 0 && len >= min_chunk {
                        assert!(ranges.iter().all(|r| r.len() >= min_chunk));
                    }
                }
            }
        }
    }

    #[test]
    fn par_map_chunks_matches_sequential() {
        let data: Vec<u64> = (0..1000).map(|i| i * 37 % 101).collect();
        let sum_range = |r: std::ops::Range<usize>| data[r].iter().sum::<u64>();
        let total: u64 = data.iter().sum();
        for threads in [1usize, 2, 3, 8] {
            for min_chunk in [1usize, 100, 5000] {
                let parts = par_map_chunks(threads, data.len(), min_chunk, sum_range);
                assert_eq!(parts.iter().sum::<u64>(), total);
            }
        }
    }

    #[test]
    fn par_map_chunks_single_chunk_runs_on_caller_thread() {
        thread_local! {
            static MARKER: Cell<u32> = const { Cell::new(0) };
        }
        MARKER.with(|m| m.set(23));
        let out = par_map_chunks(1, 10, 1, |r| (r.len(), MARKER.with(|m| m.get())));
        assert_eq!(out, vec![(10, 23)]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        par_map(4, &items, |_, v| {
            if *v == 3 {
                panic!("worker boom");
            }
            *v
        });
    }
}
