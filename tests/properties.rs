//! Property-based tests over the core data structures and invariants.

use dbexplorer::core::simil::{attribute_value_distance, iunit_similarity};
use dbexplorer::core::{build_cad_view, CadRequest, IUnit};
use dbexplorer::stats::histogram::{BinningStrategy, Histogram};
use dbexplorer::stats::simil::cosine_similarity;
use dbexplorer::table::{DataType, Field, Predicate, TableBuilder, Value};
use dbexplorer::topk::{div_astar, greedy, ConflictGraph};
use proptest::prelude::*;

/// Random-ish but valid SQL-fragment strings for parser robustness.
fn arb_sql() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,80}").expect("valid regex")
}

/// Builds a small random categorical/numeric table.
fn arb_table() -> impl Strategy<Value = dbexplorer::table::Table> {
    let rows = prop::collection::vec((0u8..4, 0u8..3, -50i64..50), 8..80);
    rows.prop_map(|rows| {
        let mut b = TableBuilder::new(vec![
            Field::new("Pivot", DataType::Categorical),
            Field::new("Cat", DataType::Categorical),
            Field::new("Num", DataType::Int),
        ])
        .unwrap();
        for (p, c, n) in rows {
            b.push_row(vec![
                Value::Str(format!("p{p}")),
                Value::Str(format!("c{c}")),
                Value::Int(n),
            ])
            .unwrap();
        }
        b.finish()
    })
}

/// A table of nullable Int, Float and categorical columns, 0–300 rows (so
/// selections cross 64-row word boundaries), plus a random row subset.
/// The Float column holds NaN, ±0.0 and ±∞; the Int column its extremes.
/// `arb_table` stays NULL-free: suggestion tests rely on that.
fn arb_nullable_table() -> impl Strategy<Value = (dbexplorer::table::Table, Vec<u32>)> {
    let row = (
        0u8..6,
        (0u8..10, -20i64..20),
        (0u8..12, -20.0f64..20.0),
        0u8..2,
    );
    prop::collection::vec(row, 0..301).prop_map(|rows| {
        let mut b = TableBuilder::new(vec![
            Field::new("Cat", DataType::Categorical),
            Field::new("Int", DataType::Int),
            Field::new("Flt", DataType::Float),
        ])
        .unwrap();
        let mut subset = Vec::new();
        for (i, (cat, (int_kind, int), (flt_kind, flt), keep)) in rows.into_iter().enumerate() {
            let cat = match cat {
                0..=3 => Value::Str(format!("c{cat}")),
                _ => Value::Null,
            };
            let int = match int_kind {
                0 | 1 => Value::Null,
                2 => Value::Int(i64::MIN),
                3 => Value::Int(i64::MAX),
                _ => Value::Int(int),
            };
            b.push_row(vec![cat, int, special_float(flt_kind, flt)])
                .unwrap();
            if keep == 1 {
                subset.push(i as u32);
            }
        }
        (b.finish(), subset)
    })
}

/// NULL, a NaN of either sign, a signed zero, an infinity, or `x` rounded
/// to a quarter (so equality against literals can hold).
fn special_float(kind: u8, x: f64) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-f64::NAN),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Float(f64::INFINITY),
        6 => Value::Float(f64::NEG_INFINITY),
        _ => Value::Float((x * 4.0).round() / 4.0),
    }
}

/// Decodes a predicate tree from `seeds` (leaves once they run out or
/// the tree is three deep): `Compare` under all six operators, `Between`,
/// `In` and `IsNull` over every column, joined by `And`, `Or` and `Not`.
/// Literals are mostly of the column's own kind (strings for `Cat`; Int
/// and Float, specials included, for the numeric columns), with NULL,
/// `i64` extremes and cross-kind literals mixed in.
fn decode_predicate(seeds: &mut impl Iterator<Item = u64>, depth: usize) -> Predicate {
    use dbexplorer::table::predicate::CmpOp;
    let Some(seed) = seeds.next() else {
        return Predicate::Const(true);
    };
    let attr = ["Cat", "Int", "Flt"][(seed / 16 % 3) as usize];
    let literal = |s: u64| match s % 8 {
        0 => Value::Null,
        1 => Value::Int([i64::MIN, i64::MAX][(s / 8 % 2) as usize]),
        2 => Value::Str(format!("c{}", s / 8 % 5)),
        _ if attr == "Cat" => Value::Str(format!("c{}", s / 8 % 5)),
        3 | 4 => Value::Int((s / 8 % 41) as i64 - 20),
        _ => special_float((s / 8 % 12) as u8, (s / 128 % 81) as f64 / 2.0 - 20.0),
    };
    let (a, b) = (seed.rotate_left(21), seed.rotate_left(42));
    match seed % 10 {
        0..=3 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            Predicate::cmp(attr, op[(a % 6) as usize], literal(b))
        }
        4 => Predicate::between(attr, literal(a), literal(b)),
        5 => Predicate::in_list(attr, vec![literal(a), literal(b), literal(a ^ b)]),
        6 => Predicate::IsNull {
            attribute: attr.into(),
        },
        _ if depth >= 3 => Predicate::cmp(attr, CmpOp::Ge, literal(a)),
        7 => Predicate::not(decode_predicate(seeds, depth + 1)),
        _ => {
            let children = (0..a % 3 + 1)
                .map(|_| decode_predicate(seeds, depth + 1))
                .collect();
            if b.is_multiple_of(2) {
                Predicate::and(children)
            } else {
                Predicate::or(children)
            }
        }
    }
}

proptest! {
    // Many cases: one leaf in a few hundred compares an Int cell with an
    // integral Float literal, the edge of a resolved key range.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The branch-free batch kernels behind `Table::filter` and
    /// `View::refine` select exactly the rows `Predicate::eval` accepts.
    #[test]
    fn batch_filters_match_row_eval_with_nulls_and_special_floats(
        drawn in arb_nullable_table(),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..12),
    ) {
        let (table, subset) = drawn;
        let p = decode_predicate(&mut seeds.into_iter(), 0);
        let expected = |rows: &mut dyn Iterator<Item = u32>| -> Vec<u32> {
            rows.filter(|&row| p.eval(&table, row as usize).unwrap()).collect()
        };
        let all = expected(&mut (0..table.num_rows() as u32));
        prop_assert_eq!(table.filter(&p).unwrap().row_ids(), &all[..], "{}", p);
        let view = dbexplorer::table::View::from_rows(&table, subset.clone());
        let refined = expected(&mut subset.into_iter());
        prop_assert_eq!(view.refine(&p).unwrap().row_ids(), &refined[..], "{}", p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cad_view_respects_bounds(table in arb_table(), k in 1usize..5, m in 1usize..4) {
        let request = CadRequest::new("Pivot").with_iunits(k).with_max_compare_attrs(m);
        let cad = build_cad_view(&table.full_view(), &request).unwrap();
        prop_assert!(cad.compare_attrs.len() <= m);
        prop_assert!(!cad.compare_attrs.is_empty());
        for row in &cad.rows {
            prop_assert!(row.iunits.len() <= k);
        }
        // Distinct pivot values in the view = distinct values in the data.
        let expected = table.column(0).cardinality();
        prop_assert_eq!(cad.rows.len(), expected);
    }

    #[test]
    fn iunit_members_partition_each_pivot_row(table in arb_table()) {
        // With l = k and a tau of 0 candidates never get dropped by
        // diversification unless similar; members of the selected IUnits
        // must be disjoint and within the partition.
        let request = CadRequest::new("Pivot").with_iunits(3);
        let cad = build_cad_view(&table.full_view(), &request).unwrap();
        let view = table.full_view();
        for row in &cad.rows {
            let mut seen = std::collections::HashSet::new();
            for unit in &row.iunits {
                prop_assert_eq!(unit.members.len(), unit.size);
                for &pos in &unit.members {
                    prop_assert!(pos < view.len());
                    // Member rows carry the row's pivot value.
                    let value = view.value(pos, 0);
                    prop_assert_eq!(value.to_string(), row.pivot_label.clone());
                    prop_assert!(seen.insert(pos), "IUnits overlap within a row");
                }
            }
        }
    }

    #[test]
    fn algorithm1_similarity_bounded_and_symmetric(table in arb_table()) {
        let cad = build_cad_view(&table.full_view(), &CadRequest::new("Pivot")).unwrap();
        let units: Vec<&IUnit> = cad.rows.iter().flat_map(|r| r.iunits.iter()).collect();
        let max = cad.compare_attrs.len() as f64;
        for a in &units {
            for b in &units {
                let s = iunit_similarity(a, b);
                prop_assert!((0.0..=max + 1e-9).contains(&s), "sim {s} out of [0,{max}]");
                prop_assert!((s - iunit_similarity(b, a)).abs() < 1e-12);
            }
            prop_assert!(iunit_similarity(a, a) > 0.0);
        }
    }

    #[test]
    fn algorithm2_distance_symmetric_zero_on_self(table in arb_table(), tau_f in 0.1f64..0.9) {
        let cad = build_cad_view(&table.full_view(), &CadRequest::new("Pivot")).unwrap();
        let tau = tau_f * cad.compare_attrs.len() as f64;
        for a in &cad.rows {
            prop_assert_eq!(attribute_value_distance(&a.iunits, &a.iunits, tau), 0.0);
            for b in &cad.rows {
                let d1 = attribute_value_distance(&a.iunits, &b.iunits, tau);
                let d2 = attribute_value_distance(&b.iunits, &a.iunits, tau);
                prop_assert_eq!(d1, d2);
                prop_assert!(d1 >= 0.0);
            }
        }
    }

    #[test]
    fn predicate_filter_matches_row_scan(table in arb_table(), lo in -50i64..0, hi in 0i64..50) {
        let p = Predicate::or(vec![
            Predicate::and(vec![
                Predicate::eq("Cat", "c1"),
                Predicate::between("Num", lo, hi),
            ]),
            Predicate::not(Predicate::eq("Pivot", "p0")),
        ]);
        let filtered = table.filter(&p).unwrap();
        for row in 0..table.num_rows() {
            let expected = p.eval(&table, row).unwrap();
            let present = filtered.row_ids().contains(&(row as u32));
            prop_assert_eq!(expected, present, "row {}", row);
        }
    }

    #[test]
    fn histogram_edges_monotone_and_total(values in prop::collection::vec(-1e6f64..1e6, 1..200), bins in 1usize..12) {
        for strategy in [BinningStrategy::EquiWidth, BinningStrategy::EquiDepth, BinningStrategy::VOptimal, BinningStrategy::MaxDiff] {
            let h = Histogram::build(&values, bins, strategy).unwrap();
            let edges = h.edges();
            for w in edges.windows(2) {
                prop_assert!(w[0] < w[1], "{strategy:?}: non-monotone {edges:?}");
            }
            prop_assert!(h.num_bins() <= bins);
            for &v in &values {
                let b = h.bin_of(v);
                prop_assert!(b < h.num_bins());
            }
            // Out-of-range values clamp.
            prop_assert_eq!(h.bin_of(f64::MIN), 0);
            prop_assert_eq!(h.bin_of(f64::MAX), h.num_bins() - 1);
        }
    }

    #[test]
    fn cosine_similarity_bounds(a in prop::collection::vec(0.0f64..100.0, 0..20),
                                b in prop::collection::vec(0.0f64..100.0, 0..20)) {
        let s = cosine_similarity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        prop_assert!((s - cosine_similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn div_astar_valid_and_at_least_greedy(
        scores in prop::collection::vec(0.0f64..100.0, 1..14),
        edges in prop::collection::vec((0usize..14, 0usize..14), 0..40),
        k in 1usize..6,
    ) {
        let n = scores.len();
        let mut graph = ConflictGraph::new(n);
        for (a, b) in edges {
            if a < n && b < n && a != b {
                graph.add_conflict(a, b);
            }
        }
        let exact = div_astar(&scores, &graph, k);
        let approx = greedy(&scores, &graph, k);
        prop_assert!(exact.items.len() <= k);
        for (i, &a) in exact.items.iter().enumerate() {
            for &b in &exact.items[i + 1..] {
                prop_assert!(!graph.conflicts(a, b), "conflicting items selected");
            }
        }
        prop_assert!(exact.total_score + 1e-9 >= approx.total_score);
        let sum: f64 = exact.items.iter().map(|&i| scores[i]).sum();
        prop_assert!((sum - exact.total_score).abs() < 1e-9);
    }

    #[test]
    fn parser_never_panics(input in arb_sql()) {
        // Any printable-ASCII input must produce Ok or Err, never a panic.
        let _ = dbexplorer::query::parse(&input);
    }

    #[test]
    fn facet_bins_partition_the_table(table in arb_table()) {
        // Selecting each facet value of an attribute, one at a time, must
        // partition the table: every row in exactly one value's results.
        use dbexplorer::facet::{FacetState, FacetedEngine};
        let engine = FacetedEngine::new(&table, 4);
        for (attr, codec) in engine.attributes() {
            let mut seen = vec![0usize; table.num_rows()];
            for code in 0..codec.cardinality() as u32 {
                let label = codec.label(code).to_owned();
                let mut state = FacetState::default();
                state.selections.insert(*attr, vec![label]);
                let view = engine.results_for(&state).unwrap();
                for &r in view.row_ids() {
                    seen[r as usize] += 1;
                }
            }
            for (r, &count) in seen.iter().enumerate() {
                // NULL rows match no facet value; all others exactly one.
                let is_null = table.column(*attr).is_null(r);
                prop_assert_eq!(count, usize::from(!is_null), "row {} attr {}", r, attr);
            }
        }
    }

    #[test]
    fn group_by_counts_partition_the_view(table in arb_table()) {
        use dbexplorer::table::{group_by, Aggregate, Value};
        let out = group_by(
            &table.full_view(),
            &["Pivot".into(), "Cat".into()],
            &[Aggregate::Count, Aggregate::Avg("Num".into())],
        ).unwrap();
        // Counts over all groups sum to the table size.
        let mut total = 0i64;
        for r in 0..out.num_rows() {
            let Value::Int(n) = out.value(r, 2) else { panic!("count col") };
            prop_assert!(n > 0, "empty group emitted");
            total += n;
        }
        prop_assert_eq!(total as usize, table.num_rows());
        // Every group key actually occurs in the data.
        for r in 0..out.num_rows() {
            let p = out.value(r, 0).to_string();
            let c = out.value(r, 1).to_string();
            let matched = table
                .filter(&Predicate::and(vec![
                    Predicate::eq("Pivot", p.as_str()),
                    Predicate::eq("Cat", c.as_str()),
                ]))
                .unwrap();
            prop_assert!(!matched.is_empty());
        }
    }

    #[test]
    fn sort_view_is_an_ordered_permutation(table in arb_table()) {
        use dbexplorer::table::{sort_view, SortKey};
        let sorted = sort_view(
            &table.full_view(),
            &[SortKey::asc("Num"), SortKey::desc("Cat")],
        ).unwrap();
        prop_assert_eq!(sorted.len(), table.num_rows());
        // Permutation: same multiset of row ids.
        let mut ids: Vec<u32> = sorted.row_ids().to_vec();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..table.num_rows() as u32).collect();
        prop_assert_eq!(ids, expected);
        // Ordered by the primary key.
        for w in sorted.row_ids().windows(2) {
            let a = table.value(w[0] as usize, 2);
            let b = table.value(w[1] as usize, 2);
            prop_assert!(a.total_cmp(&b) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn predicate_simplify_preserves_eval(table in arb_table(), lo in -50i64..0, hi in 0i64..50) {
        let gnarly = Predicate::not(Predicate::and(vec![
            Predicate::or(vec![
                Predicate::eq("Cat", "c0"),
                Predicate::Const(false),
                Predicate::or(vec![Predicate::between("Num", lo, hi)]),
            ]),
            Predicate::Const(true),
            Predicate::and(vec![Predicate::not(Predicate::not(Predicate::eq(
                "Pivot", "p1",
            )))]),
        ]));
        let simple = gnarly.clone().simplify();
        for row in 0..table.num_rows() {
            prop_assert_eq!(
                gnarly.eval(&table, row).unwrap(),
                simple.eval(&table, row).unwrap()
            );
        }
    }

    #[test]
    fn span_trees_are_well_nested(ops in prop::collection::vec((0u8..3, 0u8..8), 0..60)) {
        // Drive the raw span API with an arbitrary interleaving of
        // enter / exit / add-counter operations and check that the
        // merged tree conserves every structural quantity.
        use dbexplorer::obs::Tracer;
        const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
        const KEYS: [&str; 2] = ["k0", "k1"];
        let tracer = Tracer::enabled();
        // Open spans as (id, name); parents are picked from this list,
        // so every parent precedes its children in the log.
        let mut open: Vec<(dbexplorer::obs::SpanId, &'static str)> = Vec::new();
        let mut enters = 0u64;
        let mut exits = 0u64;
        // Expected multiset of (parent name or None, span name) pairs.
        let mut pairs = std::collections::BTreeMap::<(Option<&str>, &str), u64>::new();
        let mut counter_sums = std::collections::BTreeMap::<&str, u64>::new();
        for (op, sel) in ops {
            let sel = sel as usize;
            match op {
                0 => {
                    let name = NAMES[sel % NAMES.len()];
                    let pick = sel % (open.len() + 1);
                    let parent = if pick == 0 { None } else { Some(open[pick - 1]) };
                    if let Some(id) = tracer.enter_raw(parent.map(|(id, _)| id), name) {
                        enters += 1;
                        *pairs.entry((parent.map(|(_, n)| n), name)).or_insert(0) += 1;
                        open.push((id, name));
                    }
                }
                1 => {
                    if !open.is_empty() {
                        let (id, _) = open.remove(sel % open.len());
                        tracer.exit_raw(id);
                        exits += 1;
                    }
                }
                _ => {
                    if !open.is_empty() {
                        let (id, _) = open[sel % open.len()];
                        let key = KEYS[sel % KEYS.len()];
                        tracer.add_raw(id, key, sel as u64);
                        *counter_sums.entry(key).or_insert(0) += sel as u64;
                    }
                }
            }
        }
        let trace = tracer.finish().expect("enabled tracer yields a trace");
        // Every entered span survives merging exactly once.
        prop_assert_eq!(trace.total_spans(), enters);
        // Spans left open are force-closed, and only those.
        prop_assert_eq!(trace.forced_closures, enters - exits);
        // The (parent name, child name) multiset and the per-key counter
        // sums are conserved by sibling merging.
        fn walk<'a>(
            nodes: &'a [dbexplorer::obs::SpanNode],
            parent: Option<&'a str>,
            pairs: &mut std::collections::BTreeMap<(Option<&'a str>, &'a str), u64>,
            counters: &mut std::collections::BTreeMap<&'a str, u64>,
        ) {
            for node in nodes {
                *pairs.entry((parent, node.name.as_str())).or_insert(0) += node.calls;
                for (key, n) in &node.counters {
                    *counters.entry(key.as_str()).or_insert(0) += n;
                }
                walk(&node.children, Some(node.name.as_str()), pairs, counters);
            }
        }
        let mut got_pairs = std::collections::BTreeMap::new();
        let mut got_counters = std::collections::BTreeMap::new();
        walk(&trace.roots, None, &mut got_pairs, &mut got_counters);
        // An `add` of 0 legitimately materializes a zero-valued key in
        // the trace; compare only the nonzero entries on both sides.
        got_pairs.retain(|_, n| *n > 0);
        got_counters.retain(|_, n| *n > 0);
        pairs.retain(|_, n| *n > 0);
        counter_sums.retain(|_, n| *n > 0);
        prop_assert_eq!(got_pairs, pairs);
        prop_assert_eq!(got_counters, counter_sums);
    }

    #[test]
    fn histogram_buckets_sum_to_count(
        observations in prop::collection::vec((0u8..5, -1e15f64..1e15), 0..300),
        bounds in prop::collection::vec(-1e9f64..1e9, 0..8),
    ) {
        // Bucket counts plus the NaN bin always account for every
        // observation, for arbitrary f64 including NaN and ±infinity.
        let h = dbexplorer::obs::Histogram::new(&bounds);
        for &(kind, v) in &observations {
            h.observe(match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                _ => v,
            });
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.total(), observations.len() as u64);
        prop_assert_eq!(snap.count, observations.len() as u64);
        // One bucket per bound plus the overflow bucket, regardless of
        // duplicate or unsorted input bounds.
        prop_assert_eq!(snap.buckets.len(), snap.bounds.len() + 1);
        let nan_expected = observations.iter().filter(|(k, _)| *k == 0).count() as u64;
        prop_assert_eq!(snap.nan, nan_expected);
    }

    #[test]
    fn view_sample_is_subset_without_duplicates(table in arb_table(), n in 0usize..100) {
        let view = table.full_view();
        let sample = view.sample(n);
        prop_assert!(sample.len() <= view.len());
        if n > 0 {
            prop_assert!(sample.len() <= n.max(view.len().min(n)));
        }
        let mut seen = std::collections::HashSet::new();
        for &r in sample.row_ids() {
            prop_assert!((r as usize) < table.num_rows());
            prop_assert!(seen.insert(r), "duplicate row in sample");
        }
    }
}

/// Arbitrary valid UTF-8 (including multi-byte sequences: lossy decoding
/// of random bytes inserts U+FFFD replacement characters).
fn arb_utf8() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..255, 0..300)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Wire protocol: the framing layer must round-trip any UTF-8 and
    // turn any malformed input into a typed error — never a panic.
    // ------------------------------------------------------------------

    #[test]
    fn frames_round_trip_any_utf8(msg in arb_utf8()) {
        use dbexplorer::serve::{decode_frame, encode_frame};
        let frame = encode_frame(&msg).unwrap();
        let (decoded, consumed) = decode_frame(&frame).unwrap().expect("complete frame");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn concatenated_frames_stream_back_in_order(msgs in prop::collection::vec(arb_utf8(), 0..8)) {
        use dbexplorer::serve::{encode_frame, read_frame};
        let mut buf = Vec::new();
        for msg in &msgs {
            buf.extend(encode_frame(msg).unwrap());
        }
        let mut stream: &[u8] = &buf;
        for msg in &msgs {
            let got = read_frame(&mut stream).unwrap().expect("frame per message");
            prop_assert_eq!(&got, msg);
        }
        // After the last frame: clean EOF, not an error.
        prop_assert!(read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop::collection::vec(0u8..255, 0..600)) {
        use dbexplorer::serve::{decode_frame, read_frame};
        // Buffered decode: any result is fine, a panic is not.
        let _ = decode_frame(&bytes);
        // Streaming decode: drain the input; every frame either decodes,
        // asks for more (clean EOF), or fails typed.
        let mut stream: &[u8] = &bytes;
        while let Ok(Some(_)) = read_frame(&mut stream) {}
    }

    #[test]
    fn truncated_frames_are_typed_errors(msg in arb_utf8(), cut_seed in 0usize..10_000) {
        use dbexplorer::serve::{decode_frame, encode_frame, read_frame, ProtocolError};
        let frame = encode_frame(&msg).unwrap();
        let cut = cut_seed % frame.len(); // frame.len() >= 4, cut < len
        // A buffered prefix just asks for more bytes...
        prop_assert!(decode_frame(&frame[..cut]).unwrap().is_none());
        // ...but a *stream* ending there is a typed truncation (or, at
        // cut 0, a clean EOF).
        let mut stream = &frame[..cut];
        match read_frame(&mut stream) {
            Ok(None) => prop_assert_eq!(cut, 0, "mid-frame EOF reported as clean"),
            Err(ProtocolError::Truncated { expected, got }) => {
                prop_assert!(cut > 0);
                prop_assert!(got < expected);
            }
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
    }

    #[test]
    fn oversized_and_invalid_utf8_frames_are_typed(extra in 1usize..1000, bad_at in 0usize..50) {
        use dbexplorer::serve::{decode_frame, ProtocolError, HEADER_LEN, MAX_FRAME};
        // Oversized declaration: rejected from the header alone.
        let declared = MAX_FRAME + extra;
        let header = (declared as u32).to_be_bytes();
        prop_assert!(matches!(
            decode_frame(&header),
            Err(ProtocolError::Oversized { declared: d, .. }) if d == declared
        ));
        // Invalid UTF-8 payload: typed, with the valid prefix length.
        let mut payload = vec![b'a'; bad_at + 1];
        payload[bad_at] = 0xFF;
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&payload);
        match decode_frame(&buf) {
            Err(ProtocolError::InvalidUtf8 { valid_up_to }) => {
                prop_assert_eq!(valid_up_to, bad_at);
            }
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
        let _ = HEADER_LEN; // referenced for the doc link above
    }

    // ------------------------------------------------------------------
    // SUGGEST: ranking and completion invariants over arbitrary tables.
    // New counterexamples persist to tests/properties.proptest-regressions
    // next to the older properties — keep that file checked in.
    // ------------------------------------------------------------------

    #[test]
    fn suggest_scores_bounded_sorted_and_deterministic(table in arb_table()) {
        use dbexplorer::suggest::{suggest_next, SuggestConfig};
        let view = table.full_view();
        let cfg = SuggestConfig { limit: usize::MAX, ..SuggestConfig::default() };
        let report = suggest_next(&view, 0, &cfg, None, None).unwrap();
        for s in &report.suggestions {
            prop_assert!(s.attr != 0, "pivot suggested itself");
            prop_assert!(s.score.is_finite());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s.score), "SU {} out of [0,1]", s.score);
            prop_assert!(s.score > 0.0, "constant attribute survived the cut");
        }
        // Strict total order: score descending, column index ascending on ties.
        for w in report.suggestions.windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].attr < w[1].attr),
                "ranking violates (score desc, attr asc): {:?} then {:?}",
                (w[0].attr, w[0].score),
                (w[1].attr, w[1].score)
            );
        }
        // Parallel scoring is byte-identical to sequential, float bits included.
        let par_cfg = SuggestConfig { threads: 4, limit: usize::MAX, ..SuggestConfig::default() };
        let par = suggest_next(&view, 0, &par_cfg, None, None).unwrap();
        prop_assert_eq!(report.suggestions.len(), par.suggestions.len());
        for (a, b) in report.suggestions.iter().zip(&par.suggestions) {
            prop_assert_eq!(a.attr, b.attr);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn value_completion_frequencies_form_a_distribution(
        table in arb_table(),
        partial_idx in 0usize..5,
    ) {
        use dbexplorer::suggest::{complete_value, SuggestConfig};
        let partial = ["", "c", "C1", "c2", "zzz"][partial_idx];
        let view = table.full_view();
        let cfg = SuggestConfig { limit: usize::MAX, ..SuggestConfig::default() };
        let items = complete_value(&view, "Cat", partial, &cfg, None, None).unwrap();
        let needle = partial.to_ascii_lowercase();
        for item in &items {
            prop_assert!(item.text.to_ascii_lowercase().starts_with(&needle));
            prop_assert!(item.score > 0.0 && item.score <= 1.0 + 1e-9);
        }
        for w in items.windows(2) {
            prop_assert!(w[0].score >= w[1].score, "completion not sorted by frequency");
        }
        if partial.is_empty() {
            // No nulls in arb_table: the frequencies are a full distribution.
            let total: f64 = items.iter().map(|i| i.score).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "frequencies sum to {total}");
        }
        // The unknown-attribute path is a typed error, never a panic.
        prop_assert!(complete_value(&view, "NoSuchAttr", partial, &cfg, None, None).is_err());
    }

    #[test]
    fn analyze_prefix_never_panics(input in arb_utf8()) {
        use dbexplorer::suggest::{analyze_prefix, CompletionMode};
        let analysis = analyze_prefix(&input);
        // A value completion always knows which attribute it completes.
        if let CompletionMode::Value { attr, .. } = &analysis.mode {
            prop_assert!(!attr.is_empty());
        }
    }

    #[test]
    fn wire_responses_round_trip_any_text(ok_bit in 0u8..2, tag in arb_utf8(), text in arb_utf8()) {
        use dbexplorer::serve::WireResponse;
        let resp = if ok_bit == 1 {
            WireResponse::ok(&tag, &text)
        } else {
            WireResponse::err(&tag, &text)
        };
        let line = resp.to_line();
        // JSON lines may not contain raw newlines or other C0 controls
        // (DEL and C1 controls are legal unescaped JSON and may pass
        // through).
        prop_assert!(!line.contains('\n'));
        prop_assert!(line.chars().all(|c| (c as u32) >= 0x20));
        let parsed = WireResponse::parse(&line).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    #[test]
    fn the_shared_escaper_matches_the_wire_escaper_it_replaced(text in arb_utf8()) {
        let mut escaped = String::new();
        dbexplorer::obs::json::escape_into(&mut escaped, &text);
        prop_assert_eq!(escaped, old_wire_json_escape(&text));
    }
}

/// The wire's escaper before the shared JSON codec replaced it, kept as
/// the oracle that the served bytes did not change.
fn old_wire_json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Explicit replay of the counterexample committed in
/// `tests/properties.proptest-regressions` (shrunk to a single value in a
/// single bin by `histogram_edges_monotone_and_total`). Pinned as a plain
/// test so the degenerate-histogram case survives even if the regressions
/// file is ever pruned.
#[test]
fn histogram_regression_single_value_single_bin() {
    let values = [71515.76335789483];
    for strategy in [
        BinningStrategy::EquiWidth,
        BinningStrategy::EquiDepth,
        BinningStrategy::VOptimal,
        BinningStrategy::MaxDiff,
    ] {
        let h = Histogram::build(&values, 1, strategy).unwrap();
        let edges = h.edges();
        for w in edges.windows(2) {
            assert!(w[0] < w[1], "{strategy:?}: non-monotone {edges:?}");
        }
        assert_eq!(h.num_bins(), 1);
        assert_eq!(h.bin_of(values[0]), 0);
        assert_eq!(h.bin_of(f64::MIN), 0);
        assert_eq!(h.bin_of(f64::MAX), 0);
    }
}
