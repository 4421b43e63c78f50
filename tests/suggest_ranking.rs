//! Ranking-correctness battery for the SUGGEST subsystem.
//!
//! Four contracts, each load-bearing for the feature:
//!
//! 1. **Determinism** — `suggest_next` is byte-identical (float bits
//!    included) at 1, 2, and 8 scoring threads, and with or without the
//!    shared stats cache.
//! 2. **Permutation invariance** — shuffling the *rows* or reordering
//!    the *columns* of the input table never changes the ranking (by
//!    attribute name) or moves a score by more than float noise.
//! 3. **Monotonicity** — refining a view only ever *removes* candidates:
//!    an attribute eliminated (constant over the rows) at one step can
//!    never resurface at a deeper refinement.
//! 4. **Planted-correlation recovery** — on the exploration benchmark's
//!    synthetic dataset, the attribute planted to follow the pivot lands
//!    in the top 3 for at least 90% of seeds, and always at seed 42.

use dbexplorer::explore::SyntheticSpec;
use dbexplorer::stats::{CodedColumns, StatsCache};
use dbexplorer::suggest::{
    suggest_next, NextReport, SuggestConfig, SUGGEST_BINS, SUGGEST_STRATEGY,
};
use dbexplorer::table::{DataType, Field, Predicate, Table, TableBuilder, Value, View};

/// Flattens a [`NextReport`] into one comparable string, float bits
/// included, so "close" never passes for "equal".
fn digest(r: &NextReport) -> String {
    let mut out = format!(
        "pivot={} name={} rows={} candidates={}\n",
        r.pivot, r.pivot_name, r.view_rows, r.candidates
    );
    for s in &r.suggestions {
        out.push_str(&format!(
            "attr={} name={} score={:016x} gain={:016x} entropy={:016x} card={}\n",
            s.attr,
            s.name,
            s.score.to_bits(),
            s.gain.to_bits(),
            s.entropy.to_bits(),
            s.cardinality
        ));
    }
    out
}

fn config(threads: usize) -> SuggestConfig {
    SuggestConfig {
        threads,
        // No limit cut: the full candidate ranking is under test.
        limit: usize::MAX,
        ..SuggestConfig::default()
    }
}

/// A 400-row table with one strong planted dependency (`echo` follows
/// `pivot`), one weak one, and independent noise. `row_order` and
/// `attr_order` permute the physical layout without touching the data,
/// which is exactly what the invariance tests vary.
fn planted_table(row_order: &[usize], attr_order: &[usize]) -> Table {
    const N: usize = 400;
    assert_eq!(row_order.len(), N);
    let fields = [
        ("pivot", DataType::Categorical),
        ("echo", DataType::Categorical),
        ("weak", DataType::Categorical),
        ("noise", DataType::Categorical),
        ("num", DataType::Int),
    ];
    let mut b = TableBuilder::new(
        attr_order
            .iter()
            .map(|&a| Field::new(fields[a].0, fields[a].1))
            .collect(),
    )
    .expect("schema");
    // Deterministic xorshift stream; one draw per cell per row.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<[Value; 5]> = (0..N)
        .map(|_| {
            let p = (next() % 4) as i64;
            // echo copies the pivot level 85% of the time.
            let echo = if next() % 100 < 85 { p } else { (next() % 4) as i64 };
            let weak = if next() % 100 < 35 { p } else { (next() % 4) as i64 };
            let noise = (next() % 5) as i64;
            [
                Value::Str(format!("p{p}")),
                Value::Str(format!("e{echo}")),
                Value::Str(format!("w{weak}")),
                Value::Str(format!("x{noise}")),
                Value::Int((next() % 1000) as i64),
            ]
        })
        .collect();
    for &r in row_order {
        b.push_row(attr_order.iter().map(|&a| rows[r][a].clone()).collect())
            .expect("row");
    }
    b.finish()
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// A fixed but non-trivial permutation of `0..n`.
fn shuffled(n: usize) -> Vec<usize> {
    let mut order = identity(n);
    let mut state = 0x9E37_79B9u64;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

// -------------------------------------------------------------------
// 1. Determinism
// -------------------------------------------------------------------

#[test]
fn ranking_is_byte_identical_across_thread_counts() {
    let table = planted_table(&identity(400), &identity(5));
    let view = View::all(&table);
    let reference = digest(&suggest_next(&view, 0, &config(1), None, None).expect("rank"));
    assert!(reference.contains("name=echo"), "planted attr missing:\n{reference}");
    for threads in [2, 8] {
        let parallel = digest(&suggest_next(&view, 0, &config(threads), None, None).expect("rank"));
        assert_eq!(
            parallel, reference,
            "{threads}-thread ranking diverged from sequential"
        );
    }
}

#[test]
fn cached_ranking_is_byte_identical_to_uncached() {
    let table = planted_table(&identity(400), &identity(5));
    let view = View::all(&table);
    let uncached = digest(&suggest_next(&view, 0, &config(1), None, None).expect("rank"));
    let cache = StatsCache::new();
    for threads in [1, 8] {
        let cold = suggest_next(&view, 0, &config(threads), Some(&cache), None).expect("cold");
        assert_eq!(digest(&cold), uncached, "cached ranking diverged (cold)");
        let warm = suggest_next(&view, 0, &config(threads), Some(&cache), None).expect("warm");
        assert_eq!(digest(&warm), uncached, "cached ranking diverged (warm)");
        assert!(
            warm.cache_hits > 0 && warm.cache_misses == 0,
            "a repeated suggestion over an unchanged view must be all cache hits \
             ({} hits, {} misses)",
            warm.cache_hits,
            warm.cache_misses
        );
        // Codes read from a result memo rank identically, and a second
        // call over the same memo codes nothing.
        let memo = CodedColumns::new(&view, SUGGEST_BINS, SUGGEST_STRATEGY);
        let memoized = suggest_next(&view, 0, &config(threads), Some(&cache), Some(&memo));
        assert_eq!(
            digest(&memoized.expect("memo")),
            uncached,
            "memoized ranking diverged"
        );
        let coded = memo.rows_coded();
        let again = suggest_next(&view, 0, &config(threads), None, Some(&memo));
        assert_eq!(digest(&again.expect("memo")), uncached);
        assert_eq!(
            memo.rows_coded(),
            coded,
            "a memoized attribute was coded twice"
        );
    }
}

// -------------------------------------------------------------------
// 2. Permutation invariance
// -------------------------------------------------------------------

/// Compares two rankings by *name*: same set, same order wherever the
/// score gap exceeds float noise, and pairwise-close scores. Exact byte
/// equality is deliberately not required here — permuting rows permutes
/// dictionary code order, which reorders floating-point summation.
fn assert_same_ranking(a: &NextReport, b: &NextReport, what: &str) {
    fn names(r: &NextReport) -> Vec<&str> {
        r.suggestions.iter().map(|s| s.name.as_str()).collect()
    }
    let score_of = |r: &NextReport, name: &str| -> f64 {
        r.suggestions
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{what}: attribute {name} missing"))
            .score
    };
    let (mut an, mut bn) = (names(a), names(b));
    an.sort_unstable();
    bn.sort_unstable();
    assert_eq!(an, bn, "{what}: candidate sets differ");
    for name in &an {
        let (sa, sb) = (score_of(a, name), score_of(b, name));
        assert!(
            (sa - sb).abs() < 1e-9,
            "{what}: score of {name} moved: {sa} vs {sb}"
        );
    }
    // Relative order must agree for every pair separated by more than
    // float noise in the reference ranking.
    for (i, x) in a.suggestions.iter().enumerate() {
        for y in &a.suggestions[i + 1..] {
            if x.score - y.score > 1e-9 {
                let bx = b.suggestions.iter().position(|s| s.name == x.name).unwrap();
                let by = b.suggestions.iter().position(|s| s.name == y.name).unwrap();
                assert!(
                    bx < by,
                    "{what}: {} (score {}) must outrank {} (score {})",
                    x.name,
                    x.score,
                    y.name,
                    y.score
                );
            }
        }
    }
}

#[test]
fn ranking_is_invariant_under_row_permutation() {
    let base = planted_table(&identity(400), &identity(5));
    let permuted = planted_table(&shuffled(400), &identity(5));
    let a = suggest_next(&View::all(&base), 0, &config(1), None, None).expect("base");
    let b = suggest_next(&View::all(&permuted), 0, &config(1), None, None).expect("permuted");
    assert_same_ranking(&a, &b, "row permutation");
    assert_eq!(a.suggestions[0].name, "echo", "planted attr must rank first");
    assert_eq!(b.suggestions[0].name, "echo", "planted attr must rank first");
}

#[test]
fn ranking_is_invariant_under_attribute_permutation() {
    let base = planted_table(&identity(400), &identity(5));
    // Pivot lands at a different column index in the permuted schema.
    let attr_order = [3, 0, 4, 2, 1];
    let permuted = planted_table(&identity(400), &attr_order);
    let pivot_col = attr_order.iter().position(|&a| a == 0).unwrap();
    let a = suggest_next(&View::all(&base), 0, &config(1), None, None).expect("base");
    let b =
        suggest_next(&View::all(&permuted), pivot_col, &config(1), None, None).expect("permuted");
    assert_eq!(b.pivot_name, "pivot");
    assert_same_ranking(&a, &b, "attribute permutation");
}

// -------------------------------------------------------------------
// 3. Monotonicity
// -------------------------------------------------------------------

#[test]
fn refinement_never_resurfaces_an_eliminated_attribute() {
    // A chain of refinements over the synthetic exploration dataset.
    // With no limit cut, the suggested set is exactly the attributes
    // still varying over the view — so each refinement's set must be a
    // subset of its parent's.
    let spec = SyntheticSpec::exploration_default(2_000, 5);
    let table = spec.generate();
    let full = table.full_view();
    let steps = [
        Predicate::eq("d0", "d0_v0"),
        Predicate::eq("d3", "d3_v0"),
        Predicate::eq("c1", "c1_v1"),
        Predicate::eq("x1", "x1_v0"),
    ];
    let mut views: Vec<View<'_>> = vec![full];
    for p in &steps {
        let deeper = views.last().unwrap().refine(p).expect("refine");
        views.push(deeper);
    }
    let suggested: Vec<std::collections::BTreeSet<String>> = views
        .iter()
        .map(|v| {
            suggest_next(v, 0, &config(1), None, None)
                .expect("rank")
                .suggestions
                .into_iter()
                .map(|s| s.name)
                .collect()
        })
        .collect();
    for (step, w) in suggested.windows(2).enumerate() {
        let resurfaced: Vec<&String> = w[1].difference(&w[0]).collect();
        assert!(
            resurfaced.is_empty(),
            "refinement step {} surfaced previously-eliminated attributes {:?}",
            step + 1,
            resurfaced
        );
    }
    // The drilled-to-one-value attributes really are eliminated.
    let last = suggested.last().unwrap();
    for gone in ["d0", "d3", "c1", "x1"] {
        assert!(
            !last.contains(gone),
            "{gone} is constant over the drilled view yet still suggested"
        );
    }
}

// -------------------------------------------------------------------
// 4. Planted-correlation recovery
// -------------------------------------------------------------------

#[test]
fn planted_pivot_dependent_recovered_in_top_3_across_seeds() {
    // `exploration_default` plants `c0` to follow the pivot `p` at
    // strength 0.8 — by construction the strongest pivot association in
    // the dataset. Across 20 seeds the suggester must put it in the top
    // 3 at least 90% of the time.
    const SEEDS: u64 = 20;
    let mut recovered = 0u32;
    for seed in 0..SEEDS {
        let spec = SyntheticSpec::exploration_default(2_000, seed);
        let table = spec.generate_with_threads(0);
        let view = table.full_view();
        let pivot = spec.attrs.iter().position(|a| a.name == "p").expect("pivot attr");
        let report = suggest_next(&view, pivot, &config(0), None, None).expect("rank");
        let top3: Vec<&str> = report
            .suggestions
            .iter()
            .take(3)
            .map(|s| s.name.as_str())
            .collect();
        if top3.contains(&"c0") {
            recovered += 1;
        } else {
            eprintln!("seed {seed}: c0 not in top 3, got {top3:?}");
        }
    }
    assert!(
        recovered * 10 >= SEEDS as u32 * 9,
        "planted correlation recovered in only {recovered}/{SEEDS} seeds (need >= 90%)"
    );
}

#[test]
fn planted_pivot_dependent_recovered_in_top_3_at_seed_42() {
    // One pinned seed, with the default configuration (limit cut
    // included), that must recover `c0` — unlike the battery above,
    // which tolerates a miss on some seeds.
    let spec = SyntheticSpec::exploration_default(2_000, 42);
    let table = spec.generate();
    let pivot = spec.attrs.iter().position(|a| a.name == "p").expect("pivot attr");
    let report = suggest_next(&table.full_view(), pivot, &SuggestConfig::default(), None, None)
        .expect("rank");
    let top3: Vec<&str> = report
        .suggestions
        .iter()
        .take(3)
        .map(|s| s.name.as_str())
        .collect();
    assert!(top3.contains(&"c0"), "planted c0 not in the top 3: {top3:?}");
}
