//! Parallel CAD construction is an *optimization*, never a semantic
//! change: at a fixed seed, a build fanned out across any number of pool
//! workers must be byte-identical to the sequential build — rows, IUnit
//! membership, scores, feature statistics, and the degradation log.
//!
//! Also pinned here: budget degradations still fire under parallelism, and
//! the thread-local fault-injection hooks keep their documented semantics
//! (they fire on the arming thread only — honored at `threads = 1`,
//! invisible to pool workers at `threads > 1`). Last, the filtered results
//! a session pins and the stats cache shares are an optimization of the
//! same kind: a statement served from one answers exactly as a session
//! without them would; and so is the build a
//! streamed preview pauses: finishing it answers exactly as an unstreamed
//! build would, and nothing but the previewed statement ever finishes it.

use dbexplorer::core::{
    build_cad_view, CadConfig, CadRequest, CadView, DegradationKind, ExecBudget,
};
use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::explore::SyntheticSpec;
use dbexplorer::obs::{Trace, TraceSink};
use dbexplorer::query::{QueryError, QueryOutput, Session, SharedCatalog};
use dbexplorer::table::Table;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Flattens everything observable about a view into one comparable string
/// (float bits included, so "close" never passes for "equal").
fn digest(cad: &CadView) -> String {
    let mut out = format!(
        "pivot={} compare={:?} k={} tau={}\n",
        cad.pivot_name, cad.compare_names, cad.k, cad.tau
    );
    for s in &cad.feature_scores {
        out.push_str(&format!(
            "score attr={} stat={} p={}\n",
            s.attr_index,
            s.statistic.to_bits(),
            s.p_value.to_bits()
        ));
    }
    for row in &cad.rows {
        out.push_str(&format!("row {} {}\n", row.pivot_code, row.pivot_label));
        for u in &row.iunits {
            out.push_str(&format!(
                "  size={} score={} labels={:?} members={:?}\n",
                u.size,
                u.score.to_bits(),
                u.labels,
                u.members
            ));
        }
    }
    for d in &cad.degradation {
        out.push_str(&format!("degraded {d}\n"));
    }
    out
}

fn request_with_threads(pivot: &str, threads: usize) -> CadRequest {
    CadRequest::new(pivot).with_iunits(3).with_config(CadConfig {
        threads,
        ..CadConfig::default()
    })
}

/// The three datasets and their pivot attributes.
fn datasets() -> Vec<(&'static str, Table, &'static str)> {
    vec![
        ("cars", UsedCarsGenerator::new(7).generate(6_000), "Make"),
        ("mushroom", MushroomGenerator::new(7).generate(4_000), "Odor"),
        ("hotels", HotelsGenerator::new(7).generate(4_000), "District"),
    ]
}

#[test]
fn parallel_build_is_byte_identical_across_datasets() {
    for (name, table, pivot) in datasets() {
        let view = table.full_view();
        let sequential = build_cad_view(&view, &request_with_threads(pivot, 1))
            .unwrap_or_else(|e| panic!("{name}: sequential build failed: {e}"));
        assert!(
            !sequential.is_degraded(),
            "{name}: unlimited budget must not degrade"
        );
        let reference = digest(&sequential);
        for threads in [2, 4, 8] {
            let parallel = build_cad_view(&view, &request_with_threads(pivot, threads))
                .unwrap_or_else(|e| panic!("{name}: {threads}-thread build failed: {e}"));
            assert_eq!(parallel.threads_used, threads);
            assert_eq!(
                digest(&parallel),
                reference,
                "{name}: {threads}-thread build diverged from sequential"
            );
        }
    }
}

#[test]
fn trace_structure_is_identical_across_thread_counts() {
    // The observability layer is part of the determinism contract:
    // same-named sibling spans merge, so the span tree — names, call
    // counts, rows scanned, cache hits/misses, degradation level —
    // must be byte-identical at 1, 2, and 8 threads (only wall times,
    // which the structural digest excludes, may differ).
    use dbexplorer::core::{build_cad_view_traced, StatsCache, Tracer};
    for (name, table, pivot) in datasets() {
        let view = table.full_view();
        let build = |threads: usize| {
            // A fresh cache per build keeps hit/miss deltas a function
            // of the build alone, not of prior builds.
            let cache = StatsCache::new();
            let tracer = Tracer::enabled();
            let cad = build_cad_view_traced(
                &view,
                &request_with_threads(pivot, threads),
                Some(&cache),
                None,
                &tracer,
            )
            .unwrap_or_else(|e| panic!("{name}: {threads}-thread traced build failed: {e}"));
            let trace = cad.trace.unwrap_or_else(|| panic!("{name}: traced build has no trace"));
            assert_eq!(trace.forced_closures, 0, "{name}: spans leaked at {threads} threads");
            trace.structural_digest()
        };
        let sequential = build(1);
        assert!(
            sequential.contains("cluster_partition"),
            "{name}: worker spans missing from the sequential trace:\n{sequential}"
        );
        for threads in [2, 8] {
            assert_eq!(
                build(threads),
                sequential,
                "{name}: {threads}-thread trace structure diverged from sequential"
            );
        }
    }
}

#[test]
fn budget_degradation_still_fires_under_parallelism() {
    let table = UsedCarsGenerator::new(11).generate(5_000);
    let view = table.full_view();
    // A zero deadline on a manual clock is exhausted before any stage
    // runs, deterministically, regardless of machine speed or pool size.
    let clock = Arc::new(AtomicU64::new(10_000));
    let request = request_with_threads("Make", 4).with_budget(
        ExecBudget::unlimited()
            .with_time_limit(Duration::ZERO)
            .with_manual_clock(clock),
    );
    let cad = build_cad_view(&view, &request).expect("exhausted budget degrades, not fails");
    assert_eq!(cad.threads_used, 4);
    for kind in [
        DegradationKind::SampledFeatureSelection,
        DegradationKind::SampledClustering,
        DegradationKind::GreedyTopK,
    ] {
        assert!(
            cad.degradation.iter().any(|d| d.kind == kind),
            "{kind:?} missing under parallelism: {:?}",
            cad.degradation
        );
    }
}

#[test]
fn budget_degradation_identical_between_sequential_and_parallel() {
    // With a manual clock the deadline state is identical for every
    // worker, so even the *degraded* output must match byte-for-byte.
    let table = UsedCarsGenerator::new(13).generate(4_000);
    let view = table.full_view();
    let build = |threads: usize| {
        let clock = Arc::new(AtomicU64::new(42));
        let request = request_with_threads("Make", threads).with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::ZERO)
                .with_manual_clock(clock),
        );
        build_cad_view(&view, &request).expect("degraded build succeeds")
    };
    let sequential = digest(&build(1));
    for threads in [2, 8] {
        assert_eq!(
            digest(&build(threads)),
            sequential,
            "degraded {threads}-thread build diverged"
        );
    }
}

#[test]
fn fault_hooks_fire_sequentially_and_are_invisible_to_pool_workers() {
    let table = UsedCarsGenerator::new(17).generate(2_000);
    let view = table.full_view();

    // threads = 1: the armed fault lives on the build thread, every
    // clustering attempt sees it, and every partition falls back to a
    // single IUnit.
    {
        let _kmeans = dbexplorer::cluster::fault::scoped("cluster::kmeans");
        let cad = build_cad_view(&view, &request_with_threads("Make", 1))
            .expect("fault degrades, not fails");
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::SingleUnitFallback
                    && d.reason.contains("clustering failed")),
            "armed fault should force the fallback at threads = 1: {:?}",
            cad.degradation
        );
    }

    // threads = 4: partitions cluster on pool workers whose fresh
    // thread-locals were never armed — the build is full-fidelity even
    // though the *caller's* thread still has the fault armed.
    {
        let _kmeans = dbexplorer::cluster::fault::scoped("cluster::kmeans");
        let cad = build_cad_view(&view, &request_with_threads("Make", 4))
            .expect("build succeeds");
        assert!(
            !cad.is_degraded(),
            "pool workers must not see the caller's armed fault: {:?}",
            cad.degradation
        );
    }

    // Sanity: with nothing armed, the sequential build is clean too.
    let cad = build_cad_view(&view, &request_with_threads("Make", 1)).expect("clean build");
    assert!(!cad.is_degraded());
}

/// Categorical-only compare attributes, forced: categorical dictionary
/// codes are stable across refinements (unlike numeric equi-depth bins,
/// which re-bin and deliberately invalidate cluster reuse), so untouched
/// pivot partitions can be served from the cluster-reuse cache.
fn categorical_request(threads: usize) -> CadRequest {
    request_with_threads("Make", threads)
        .with_compare(vec!["Model", "BodyType", "Engine", "Drivetrain"])
        .with_max_compare_attrs(4)
}

#[test]
fn incremental_rebuild_is_byte_identical_to_cold_rebuild() {
    use dbexplorer::core::{build_cad_view_cached, StatsCache};
    use dbexplorer::table::predicate::{CmpOp, Predicate};

    let table = UsedCarsGenerator::new(23).generate(4_000);
    let full = table.full_view();
    // The refinement drops one pivot value entirely; every other
    // partition keeps exactly its rows (ids and order), so its cluster
    // solution from the pre-refinement build is reusable verbatim.
    let refined = full
        .refine(&Predicate::cmp("Make", CmpOp::Ne, "BMW"))
        .expect("refine");
    assert!(refined.len() < full.len());

    for threads in [1, 2, 8] {
        let request = categorical_request(threads);
        // Reference: a cold, uncached build of the refined result set.
        let cold = build_cad_view(&refined, &request).expect("cold build");
        // Incremental: prime the cache on the pre-refinement view, then
        // rebuild after the refinement.
        let cache = StatsCache::new();
        let primed = build_cad_view_cached(&full, &request, Some(&cache)).expect("prime");
        assert_eq!(primed.partitions_reused, 0, "first build has nothing to reuse");
        let incremental =
            build_cad_view_cached(&refined, &request, Some(&cache)).expect("incremental");
        assert_eq!(
            digest(&incremental),
            digest(&cold),
            "{threads}-thread incremental rebuild diverged from a cold rebuild"
        );
        assert_eq!(
            incremental.partitions_reused,
            incremental.rows.len(),
            "every untouched partition must be served from the cluster cache"
        );
        assert!(cache.stats().hits > 0, "cluster reuse must register cache hits");

        // A second identical build reuses every partition too.
        let again = build_cad_view_cached(&refined, &request, Some(&cache)).expect("repeat");
        assert_eq!(digest(&again), digest(&cold));
        assert_eq!(again.partitions_reused, again.rows.len());
    }
}

#[test]
fn incremental_rebuild_matches_cold_under_budget_degradation() {
    use dbexplorer::core::{build_cad_view_cached, StatsCache};
    use dbexplorer::table::predicate::{CmpOp, Predicate};

    let table = UsedCarsGenerator::new(23).generate(4_000);
    let full = table.full_view();
    let refined = full
        .refine(&Predicate::cmp("Make", CmpOp::Ne, "BMW"))
        .expect("refine");
    // Degraded rungs are shaped by transient budget state, so the builder
    // must bypass the cluster cache entirely: the incremental rebuild has
    // to degrade exactly like the cold one, with zero reuse.
    let degraded_request = |threads: usize| {
        let clock = Arc::new(AtomicU64::new(77));
        categorical_request(threads).with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::ZERO)
                .with_manual_clock(clock),
        )
    };
    for threads in [1, 2, 8] {
        let cold = build_cad_view(&refined, &degraded_request(threads)).expect("cold degraded");
        assert!(cold.is_degraded());
        let cache = StatsCache::new();
        // Prime at full fidelity so the cache *would* have solutions to
        // offer if the builder (incorrectly) consulted it while degraded.
        build_cad_view_cached(&full, &categorical_request(threads), Some(&cache))
            .expect("prime");
        let incremental =
            build_cad_view_cached(&refined, &degraded_request(threads), Some(&cache))
                .expect("incremental degraded");
        assert_eq!(
            digest(&incremental),
            digest(&cold),
            "{threads}-thread degraded incremental rebuild diverged from cold"
        );
        assert_eq!(incremental.partitions_reused, 0, "degraded rungs must not reuse");
    }
}

/// FNV-1a of [`digest`] without its feature-score lines, whose p-value
/// bits come from the platform libm: what is left — every IUnit's members,
/// size, labels and score bits, and the degradation log — is what the
/// clustering kernels decide.
fn clustering_digest(cad: &CadView) -> u64 {
    digest(cad)
        .lines()
        .filter(|line| !line.starts_with("score attr="))
        .flat_map(|line| line.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `rows` tuples with a 5-value `Make`, a unique `Id` per row and a
/// 4-value `Body`.
fn wide_id_table(rows: usize) -> Table {
    use dbexplorer::table::{DataType, Field, TableBuilder, Value};
    let mut b = TableBuilder::new(vec![
        Field::new("Make", DataType::Categorical),
        Field::new("Id", DataType::Categorical),
        Field::new("Body", DataType::Categorical),
    ])
    .expect("schema");
    for i in 0..rows {
        b.push_row(vec![
            Value::Str(format!("m{}", i % 5)),
            Value::Str(format!("id{i}")),
            Value::Str(["sedan", "suv", "coupe", "van"][(i * 7 / 3) % 4].to_string()),
        ])
        .expect("row");
    }
    b.finish()
}

#[test]
fn packed_kernel_matches_onehot_oracle_end_to_end() {
    // The packed-code kernels carry a bit-identity contract with the sparse
    // one-hot k-means the builder once ran. Each constant below is the
    // `clustering_digest` of that one-hot build of the same request, so the
    // packed builds must reproduce them byte for byte — at full fidelity,
    // and on a Compare Attribute of more than 65,535 values (packed as
    // `u32`).
    let request = |pivot: &str| CadRequest::new(pivot).with_iunits(3);
    let pins = [
        ("cars", 0x7632_e70c_ee43_f060_u64),
        ("mushroom", 0x30b3_b6ee_c353_188b),
        ("hotels", 0x23b0_1186_da60_d612),
    ];
    for ((name, table, pivot), (pinned_name, pinned)) in datasets().into_iter().zip(pins) {
        assert_eq!(name, pinned_name);
        let cad = build_cad_view(&table.full_view(), &request(pivot))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        assert_eq!(
            clustering_digest(&cad),
            pinned,
            "{name}: packed build diverged from the one-hot oracle"
        );
    }
    // A forced 70,000-value Compare Attribute, on the full rung.
    let table = wide_id_table(70_000);
    let wide = request("Make")
        .with_compare(vec!["Id", "Body"])
        .with_max_compare_attrs(2);
    let cad = build_cad_view(&table.full_view(), &wide).expect("wide build");
    assert_eq!(cad.compare_names, ["Id", "Body"]);
    assert!(!cad.is_degraded(), "{:?}", cad.degradation);
    assert_eq!(
        clustering_digest(&cad),
        0x656a_4cc0_fcb9_f3ae,
        "70,000-value attribute"
    );
}

// ---------------------------------------------------------------------
// Property-based A/B digests for the packed clustering kernels: the u32
// width-promoted path and the chunked-merge parallel path. The CAD-level
// tests above pin end-to-end determinism on curated datasets; these pin
// the same contracts on *arbitrary* inputs, including row counts that
// land chunk boundaries unevenly.
// ---------------------------------------------------------------------

use dbexplorer::cluster::oracle::{kmeans, OneHotSpace};
use dbexplorer::cluster::{kmeans_packed, KMeansConfig, KMeansResult, PackedMatrix};
use dbexplorer::stats::discretize::{AttributeCodec, CodedColumn};
use proptest::prelude::*;

/// Flattens a [`KMeansResult`] into one comparable string, float bits
/// included — the kernel-level analogue of [`digest`].
fn kmeans_digest(r: &KMeansResult) -> String {
    let mut out = format!(
        "assign={:?} sizes={:?} iters={} inertia={}\n",
        r.assignments,
        r.sizes,
        r.iterations,
        r.inertia.to_bits()
    );
    for (c, centroid) in r.centroids.iter().enumerate() {
        let bits: Vec<u64> = centroid.iter().map(|v| v.to_bits()).collect();
        out.push_str(&format!("centroid {c} {bits:?}\n"));
    }
    out
}

/// Coded columns over the given cardinalities filled with deterministic
/// xorshift draws (NULL with probability ~1/8). A seed-driven fill keeps
/// proptest shrinking cheap even at four-digit row counts.
fn seeded_columns(cards: &[usize], n: usize, seed: u64) -> Vec<CodedColumn> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut columns: Vec<CodedColumn> = cards
        .iter()
        .enumerate()
        .map(|(a, &card)| {
            let labels = (0..card).map(|i| format!("v{i}")).collect();
            CodedColumn::new(
                a,
                Arc::new(AttributeCodec::Categorical { labels }),
                Vec::with_capacity(n),
            )
        })
        .collect();
    for _ in 0..n {
        for (a, &card) in cards.iter().enumerate() {
            let r = next();
            columns[a].codes.push(if r % 8 == 0 {
                dbexplorer::table::dict::NULL_CODE
            } else {
                (r % card as u64) as u32
            });
        }
    }
    columns
}

fn packed_config(k: usize, seed: u64, threads: usize) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iters: 12,
        seed,
        plus_plus: true,
        threads,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A/B digest for the width-promoted packed path: an attribute
    /// cardinality above 255 — just above it, or above 65,535 — forces
    /// `u32` code storage, and the promoted kernel must still equal the
    /// one-hot reference bit for bit — and stay byte-identical when the
    /// assignment pass is chunked across worker threads.
    #[test]
    fn u32_promoted_kernel_matches_onehot_reference_at_any_thread_count(
        above_u16 in 0usize..2,
        extra in 0usize..84,
        narrow_card in 2usize..6,
        n in 40usize..160,
        k in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let wide_card = if above_u16 == 1 { 65_536 + extra } else { 256 + extra };
        let columns = seeded_columns(&[wide_card, narrow_card], n, seed | 1);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let positions: Vec<usize> = (0..n).collect();
        let matrix = PackedMatrix::from_columns(&refs, &positions).expect("packable");
        prop_assert!(!matrix.is_u8(), "cardinality {wide_card} must promote to u32");
        let space = OneHotSpace::from_columns(&refs);
        let points = space.encode_positions(&refs, &positions);
        let reference = kmeans(&points, space.dim(), &packed_config(k, seed, 1)).unwrap();
        let a = kmeans_digest(&reference);
        for threads in [1usize, 2, 8] {
            let packed = kmeans_packed(&matrix, &packed_config(k, seed, threads)).unwrap();
            prop_assert_eq!(
                &kmeans_digest(&packed),
                &a,
                "u32 packed kernel at {} threads diverged from the one-hot reference",
                threads
            );
        }
    }

    /// A/B digest for the chunked merge: row counts straddling multiples
    /// of the 256-row minimum chunk land the final chunk short (uneven
    /// boundaries), and the per-chunk integer partials must still merge
    /// to the sequential bytes at every thread count.
    #[test]
    fn chunked_merge_is_byte_identical_across_uneven_boundaries(
        n in 512usize..1300,
        k in 2usize..7,
        seed in 0u64..10_000,
    ) {
        let columns = seeded_columns(&[7, 4, 3], n, seed.wrapping_add(17) | 1);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let positions: Vec<usize> = (0..n).collect();
        let matrix = PackedMatrix::from_columns(&refs, &positions).expect("packable");
        let a = kmeans_digest(&kmeans_packed(&matrix, &packed_config(k, seed, 1)).unwrap());
        for threads in [2usize, 8] {
            let b = kmeans_digest(&kmeans_packed(&matrix, &packed_config(k, seed, threads)).unwrap());
            prop_assert_eq!(
                &b, &a,
                "{} rows at {} threads: chunked merge diverged from sequential",
                n, threads
            );
        }
    }
}

#[test]
fn few_pivot_values_route_spare_threads_into_partition_chunking() {
    // End-to-end coverage of the intra-partition parallel path: with only
    // two pivot values and eight requested threads, the builder hands the
    // spare threads to the clustering kernel, whose partitions (≥ 1024
    // rows each) split into multiple chunks — and the build must still be
    // byte-identical to sequential.
    use dbexplorer::table::{DataType, Field, TableBuilder, Value};
    let mut b = TableBuilder::new(vec![
        Field::new("Pivot", DataType::Categorical),
        Field::new("Cat", DataType::Categorical),
        Field::new("Cat2", DataType::Categorical),
        Field::new("Num", DataType::Int),
    ])
    .expect("schema");
    for i in 0..2600usize {
        b.push_row(vec![
            Value::Str(format!("p{}", i % 2)),
            Value::Str(format!("c{}", (i / 3) % 5)),
            Value::Str(format!("d{}", (i * 7) % 4)),
            Value::Int(((i * 37) % 100) as i64 - 50),
        ])
        .expect("row");
    }
    let table = b.finish();
    let view = table.full_view();
    let sequential = build_cad_view(&view, &request_with_threads("Pivot", 1)).expect("sequential");
    let reference = digest(&sequential);
    for threads in [2, 8] {
        let parallel =
            build_cad_view(&view, &request_with_threads("Pivot", threads)).expect("parallel");
        assert_eq!(
            digest(&parallel),
            reference,
            "{threads}-thread chunked build diverged from sequential"
        );
    }
}

#[test]
fn caller_thread_stages_still_see_faults_under_parallelism() {
    // The pivot codec is built on the caller's thread even at threads > 1,
    // so an armed `codec::build` fails the build the same way it does
    // sequentially (a typed error, not a panic).
    let table = UsedCarsGenerator::new(19).generate(500);
    let view = table.full_view();
    let _codec = dbexplorer::stats::fault::scoped("codec::build");
    let err = build_cad_view(&view, &request_with_threads("Make", 4));
    assert!(err.is_err(), "pivot codec fault must surface at any thread count");
}

// ---------------------------------------------------------------------------
// A pinned or cached result never serves a stale or poisoned answer.
// ---------------------------------------------------------------------------

use dbexplorer::core::StatsCache;

/// A statement's answer as the shell prints it (errors included), minus
/// the EXPLAIN lines that report wall time, thread count or stats-cache
/// traffic: what the memo spares moves those, never the answer.
fn answer(out: Result<QueryOutput, QueryError>) -> String {
    let text = match out {
        Ok(output) => output.render(),
        Err(e) => format!("error: {e}\n"),
    };
    text.lines()
        .filter(|l| {
            let l = l.trim_start();
            !(l.starts_with("timings:")
                || l.starts_with("parallelism:")
                || l.starts_with("stats cache:"))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The answer `sql` gets in a fresh session holding only `cars`.
fn cold_answer(cars: &Arc<Table>, sql: &str) -> String {
    let mut session = Session::new();
    session.register_shared("cars", Arc::clone(cars));
    answer(session.execute(sql))
}

#[test]
fn table_swap_between_preview_and_exact_build_answers_like_a_cold_session() {
    let sql = "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE Mileage > 5K IUNITS 3";
    let before = Arc::new(UsedCarsGenerator::new(11).generate(4_000));
    let after = Arc::new(UsedCarsGenerator::new(12).generate(4_000));
    let catalog = Arc::new(SharedCatalog::new());
    catalog.insert("cars", Arc::clone(&before));
    let mut session = Session::new();
    session.set_catalog(Some(Arc::clone(&catalog)));
    assert!(
        session.preview_create_cadview(sql).is_some(),
        "the preview must build, filling the memo"
    );
    // What `.load cars` does between the two frames of a streamed build.
    catalog.insert("cars", Arc::clone(&after));
    let exact = answer(session.execute(sql));
    assert_eq!(exact, cold_answer(&after, sql));
    assert_ne!(
        exact,
        cold_answer(&before, sql),
        "the swap must change the answer"
    );
}

/// `rows_scanned` of each stage span of the build `EXPLAIN ANALYZE` runs
/// over `from_where`, in span order (`pivot_encode`, `compare_attrs`,
/// `encode_matrix`): the rows each stage coded, 0 for a stage whose columns
/// came coded with the result.
fn rows_coded_by_stage(session: &mut Session, from_where: &str) -> Vec<u64> {
    let sql = format!("EXPLAIN ANALYZE CADVIEW v AS SET pivot = Make FROM {from_where} IUNITS 2");
    let Ok(QueryOutput::Text(text)) = session.execute(&sql) else {
        panic!("{sql} must explain");
    };
    let stages: Vec<u64> = text
        .lines()
        .filter_map(|l| l.split_whitespace().find_map(|kv| kv.strip_prefix("rows_scanned=")))
        .map(|n| n.parse().expect("rows_scanned is a count"))
        .collect();
    assert_eq!(stages.len(), 3, "three coding stages in:\n{text}");
    stages
}

/// The rows the build's `pivot_encode` span coded for the pivot.
fn pivot_rows_coded(session: &mut Session, from_where: &str) -> u64 {
    rows_coded_by_stage(session, from_where)[0]
}

#[test]
fn result_memo_serves_only_the_same_table_and_predicate() {
    let cars = UsedCarsGenerator::new(5).generate(3_000);
    let cache = Arc::new(StatsCache::new());
    let mut session = Session::new();
    session.set_stats_cache(Arc::clone(&cache));
    session.register_table("cars", cars.clone());
    // Same rows under another name: a different table `Arc`.
    session.register_table("twin", cars);
    let (suv, sedan) = ("cars WHERE BodyType = SUV", "cars WHERE BodyType = Sedan");
    let coded = pivot_rows_coded(&mut session, suv);
    assert!(coded > 0);
    assert_eq!(
        pivot_rows_coded(&mut session, suv),
        0,
        "repeat: served from the session's pin"
    );
    assert!(pivot_rows_coded(&mut session, sedan) > 0);
    let stats = cache.result_stats();
    assert_eq!(
        (stats.misses, stats.admissions, stats.entries, stats.bytes),
        (2, 0, 0, 0),
        "a one-shot result is not retained: {stats:?}"
    );
    assert_eq!(
        pivot_rows_coded(&mut session, suv),
        coded,
        "SUV was not retained, so it filters and codes again"
    );
    assert_eq!(
        cache.result_stats().admissions,
        1,
        "its second miss admits it"
    );
    assert!(pivot_rows_coded(&mut session, sedan) > 0);
    assert_eq!(
        pivot_rows_coded(&mut session, suv),
        0,
        "back to SUV: the cached result"
    );
    let stats = cache.result_stats();
    assert_eq!((stats.hits, stats.admissions, stats.entries), (1, 2, 2));
    assert_eq!(
        pivot_rows_coded(&mut session, "twin WHERE BodyType = SUV"),
        coded
    );
    assert_eq!(
        pivot_rows_coded(&mut session, "twin WHERE BodyType = SUV"),
        0
    );

    // A second session on the same cache repeats the first one's
    // predicate: it neither filters nor codes.
    let mut second = Session::new();
    second.set_stats_cache(Arc::clone(&cache));
    second.register_shared("cars", session.table("cars").expect("cars"));
    let before = cache.result_stats();
    assert_eq!(rows_coded_by_stage(&mut second, suv), [0, 0, 0]);
    let after = cache.result_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "served from the shared cache without filtering"
    );
}

/// A sink whose `record` panics, so a CAD statement panics after its
/// result was filtered and coded.
struct PanickingSink;

impl TraceSink for PanickingSink {
    fn record(&self, _trace: &Trace) {
        panic!("trace sink failure");
    }
}

#[test]
fn statement_after_a_panic_or_an_armed_fault_answers_like_a_cold_session() {
    let cars = Arc::new(UsedCarsGenerator::new(9).generate(3_000));
    let sql = "CREATE CADVIEW v AS SET pivot = BodyType FROM cars WHERE Price < 40K IUNITS 3";
    let cold = cold_answer(&cars, sql);
    // Two sessions on one cache, as a server's connections are.
    let cache = Arc::new(StatsCache::new());
    let session_on_cache = || {
        let mut session = Session::new();
        session.register_shared("cars", Arc::clone(&cars));
        session.set_stats_cache(Arc::clone(&cache));
        session
    };
    let mut session = session_on_cache();
    let mut second = session_on_cache();
    session.execute(sql).expect("warm the memo");

    session.set_trace_sink(Some(Arc::new(PanickingSink)));
    assert!(matches!(session.execute(sql), Err(QueryError::Panicked(_))));
    session.set_trace_sink(None);
    assert_eq!(answer(session.execute(sql)), cold, "after a panic");
    assert_eq!(
        answer(second.execute(sql)),
        cold,
        "the second session after the first one's panic"
    );
    assert_eq!(
        cache.result_stats().hits,
        1,
        "the second session read the result the panicking one filtered"
    );

    let numeric_pivot = sql.replace("pivot = BodyType", "pivot = Price");
    for (site, faulted) in [
        ("codec::build", sql),
        ("histogram::build", numeric_pivot.as_str()),
        ("histogram::build", sql),
    ] {
        for (name, s) in [("first", &mut session), ("second", &mut second)] {
            {
                let _fault = dbexplorer::stats::fault::scoped(site);
                let out = s.execute(faulted);
                if faulted != sql || site == "codec::build" {
                    assert!(
                        out.is_err(),
                        "{site} must fail `{faulted}` in the {name} session despite the cache"
                    );
                }
            }
            assert_eq!(
                answer(s.execute(sql)),
                cold,
                "the {name} session after a {site} fault"
            );
        }
    }
}

/// A seeded TPFacet-style walk over `cars` and `synth`: CAD builds,
/// EXPLAINs, drill SELECTs and SUGGEST calls that keep the same table and
/// predicate for a few steps at a time, as an exploring user does.
fn statement_mix(seed: u64, len: usize) -> Vec<String> {
    const TABLES: [(&str, [&str; 3], [&str; 3]); 2] = [
        (
            "cars",
            ["Make", "BodyType", "Drivetrain"],
            [
                "Price BETWEEN 10K AND 30K",
                "BodyType = SUV",
                "Mileage > 20K AND Year >= 2010",
            ],
        ),
        (
            "synth",
            ["p", "d3", "x1"],
            ["d0 = d0_v0", "d1 = d1_v0 AND d0 = d0_v1", "d2 = d2_v1"],
        ),
    ];
    let mut state = seed;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let (mut t, mut p, mut q) = (0, 0, 0);
    (0..len)
        .map(|_| {
            match next(10) {
                0 => t = next(2),
                1 | 2 => q = next(3),
                3 => p = next(3),
                _ => {}
            }
            let (table, pivots, preds) = TABLES[t];
            let (pivot, pred, other) = (pivots[p], preds[q], pivots[(p + 1) % 3]);
            match next(6) {
                0 => format!(
                    "CREATE CADVIEW v AS SET pivot = {pivot} FROM {table} WHERE {pred} \
                     LIMIT COLUMNS 3 IUNITS 2"
                ),
                1 => format!("EXPLAIN CADVIEW v AS SET pivot = {pivot} FROM {table} WHERE {pred}"),
                2 => format!("SELECT {pivot} FROM {table} WHERE {pred} LIMIT 20"),
                3 => "SUGGEST NEXT FOR v".to_owned(),
                4 => format!("SUGGEST COMPLETE SELECT * FROM {table} WHERE {pred} AND"),
                _ => format!("SUGGEST COMPLETE SELECT * FROM {table} WHERE {pred} AND {other} ="),
            }
        })
        .collect()
}

#[test]
fn seeded_statement_mix_answers_identically_with_and_without_the_memo() {
    let cars = Arc::new(UsedCarsGenerator::new(21).generate(5_000));
    let synth = Arc::new(SyntheticSpec::exploration_default(5_000, 21).generate());
    let other = Arc::new(UsedCarsGenerator::new(22).generate(50));
    let mix = statement_mix(0x5EED_CAFE, 60);
    // `evict` runs a SELECT on another table, which replaces the pinned
    // result, and drops the shared results before every statement and
    // before every exact build: that run never reuses a result and serves
    // as the memo-less oracle.
    let run = |threads: usize, evict: bool| -> Vec<String> {
        let mut session = Session::new();
        session.register_shared("cars", Arc::clone(&cars));
        session.register_shared("synth", Arc::clone(&synth));
        session.register_shared("other", Arc::clone(&other));
        session.set_threads(threads);
        let evict_memo = |session: &mut Session| {
            if evict {
                session
                    .execute("SELECT * FROM other LIMIT 1")
                    .expect("evict");
                session.stats_cache().clear_results();
            }
        };
        let mut transcript = Vec::new();
        for sql in &mix {
            evict_memo(&mut session);
            if sql.starts_with("CREATE") {
                let preview = session.preview_create_cadview(sql);
                transcript.push(preview.map_or("(no preview)\n".to_owned(), |p| p.render()));
                evict_memo(&mut session);
            }
            transcript.push(answer(session.execute(sql)));
        }
        transcript
    };
    let oracle = run(1, true);
    assert!(
        oracle.iter().any(|a| a.starts_with("CAD View v:"))
            && oracle.iter().any(|a| a.starts_with("next steps for v"))
            && oracle.iter().any(|a| a.starts_with("CADVIEW v over")),
        "the mix must build, explain and suggest"
    );
    for threads in [1, 2, 8] {
        let memoized = run(threads, false);
        for (i, (got, want)) in memoized.iter().zip(&oracle).enumerate() {
            assert_eq!(got, want, "{threads} threads, answer {i}");
        }
        assert_eq!(memoized.len(), oracle.len());
    }
}

// ---------------------------------------------------------------------------
// A streamed build is the exact build paused after its first Lloyd pass.
// ---------------------------------------------------------------------------

/// A seeded mix of `CREATE CADVIEW`s over `cars` and `synth`, every one
/// over a result past the preview floor. Statements are drawn from eight
/// distinct ones, so most of the mix repeats an earlier statement and
/// finds its partitions in the cluster cache.
fn streamed_mix(seed: u64, len: usize) -> Vec<String> {
    const TABLES: [(&str, [&str; 3], [&str; 3]); 2] = [
        (
            "cars",
            ["Make", "BodyType", "Drivetrain"],
            [
                "WHERE Price BETWEEN 10K AND 30K",
                "WHERE BodyType = SUV",
                "WHERE Transmission = Automatic",
            ],
        ),
        (
            "synth",
            ["p", "d3", "x1"],
            ["", "WHERE d0 = d0_v0", "WHERE x1 != x1_v0"],
        ),
    ];
    let mut state = seed;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let distinct: Vec<String> = (0..8)
        .map(|_| {
            let (table, pivots, preds) = TABLES[next(2)];
            format!(
                "CREATE CADVIEW v AS SET pivot = {} FROM {table} {} LIMIT COLUMNS 3 IUNITS {}",
                pivots[next(3)],
                preds[next(3)],
                2 + next(2)
            )
        })
        .collect();
    (0..len)
        .map(|_| distinct[next(distinct.len())].clone())
        .collect()
}

#[test]
fn streamed_builds_finish_byte_identical_to_unstreamed_ones() {
    let cars = Arc::new(UsedCarsGenerator::new(23).generate(6_000));
    let synth = Arc::new(SyntheticSpec::exploration_default(6_000, 23).generate());
    let mix = streamed_mix(0xC0FF_EE11, 24);
    // Per statement: the preview (streamed runs only) and the answer.
    let run = |threads: usize, streamed: bool| -> Vec<(Option<String>, String)> {
        let mut session = Session::new();
        session.register_shared("cars", Arc::clone(&cars));
        session.register_shared("synth", Arc::clone(&synth));
        session.set_threads(threads);
        mix.iter()
            .map(|sql| {
                let preview = streamed
                    .then(|| session.preview_create_cadview(sql))
                    .flatten()
                    .map(|p| answer(Ok(p)));
                (preview, answer(session.execute(sql)))
            })
            .collect()
    };
    let oracle = run(1, false);
    let streamed = run(1, true);
    for (i, ((preview, got), (_, want))) in streamed.iter().zip(&oracle).enumerate() {
        assert!(
            preview.is_some(),
            "statement {i} streamed no preview: {}",
            mix[i]
        );
        assert_eq!(
            got, want,
            "statement {i} finished unlike its unstreamed build"
        );
    }
    let exact = streamed
        .iter()
        .filter(|(preview, answer)| preview.as_ref() == Some(answer))
        .count();
    assert!(
        exact > 0 && exact < streamed.len(),
        "{exact} of {} previews were exact: repeats must preview exactly, first builds not",
        streamed.len()
    );
    for threads in [2, 8] {
        let transcript = run(threads, true);
        for (i, (got, want)) in transcript.iter().zip(&streamed).enumerate() {
            assert_eq!(got, want, "{threads} threads, statement {i}");
        }
    }
}

/// [`answer`] without the span tree a traced session attaches.
fn untraced_answer(out: Result<QueryOutput, QueryError>) -> String {
    answer(out.map(|mut output| {
        if let QueryOutput::Cad { trace, .. } = &mut output {
            *trace = None;
        }
        output
    }))
}

const PREVIEWED: &str =
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE Mileage > 5K IUNITS 3";

/// What runs between a preview and the statement that follows it, applied
/// to the session and its catalog (the catalog's `cars` swaps to the
/// table given).
type Step = fn(&mut Session, &SharedCatalog, &Arc<Table>);

#[test]
fn only_the_previewed_statement_finishes_a_paused_build() {
    let before = Arc::new(UsedCarsGenerator::new(13).generate(4_000));
    let after = Arc::new(UsedCarsGenerator::new(14).generate(4_000));
    // Each step, and whether the build the preview paused may survive it.
    let steps: [(&str, Step, bool); 5] = [
        ("nothing", |_, _, _| {}, true),
        (
            "another statement",
            |s, _, _| {
                let other = "CREATE CADVIEW w AS SET pivot = BodyType FROM cars WHERE Mileage > 5K";
                let out = s.execute(other).expect("another statement builds").render();
                let header = out.lines().find(|l| l.contains("Compare Attrs"));
                assert!(
                    header.is_some_and(|h| h.starts_with("| BodyType ")),
                    "another statement must get its own view:\n{out}"
                );
            },
            false,
        ),
        (
            "a catalog swap",
            |_, catalog, after| catalog.insert("cars", Arc::clone(after)),
            false,
        ),
        (
            "set_budget",
            |s, _, _| s.set_budget(ExecBudget::unlimited().with_kmeans_iters(300)),
            false,
        ),
        ("set_threads", |s, _, _| s.set_threads(4), false),
    ];
    for (name, step, survives) in steps {
        let session_over = |catalog: &Arc<SharedCatalog>| {
            let catalog_ = Arc::clone(catalog);
            catalog_.insert("cars", Arc::clone(&before));
            let mut session = Session::new();
            session.set_catalog(Some(catalog_));
            session
        };
        // A cold session in the state the step leaves behind.
        let cold = {
            let catalog = Arc::new(SharedCatalog::new());
            let mut session = session_over(&catalog);
            if name != "another statement" {
                step(&mut session, &catalog, &after);
            }
            answer(session.execute(PREVIEWED))
        };
        let catalog = Arc::new(SharedCatalog::new());
        let mut session = session_over(&catalog);
        let sink = Arc::new(dbexplorer::obs::MemorySink::new());
        session.set_trace_sink(Some(sink.clone()));
        assert!(
            session.preview_create_cadview(PREVIEWED).is_some(),
            "{name}: the statement must preview"
        );
        step(&mut session, &catalog, &after);
        assert_eq!(
            untraced_answer(session.execute(PREVIEWED)),
            cold,
            "after {name}, the statement must answer like a cold session"
        );
        // A finished paused build's tree carries its preview's span.
        let trace = sink.traces().pop().expect("the statement records a trace");
        assert_eq!(
            trace.find("preview").is_some(),
            survives,
            "after {name}: {}",
            trace.structural_digest()
        );
    }
}

#[test]
fn a_panic_finishing_a_paused_build_leaves_a_cold_session() {
    let cars = Arc::new(UsedCarsGenerator::new(9).generate(4_000));
    let cold = cold_answer(&cars, PREVIEWED);
    let mut session = Session::new();
    session.register_shared("cars", Arc::clone(&cars));
    // The sink panics when the finished build's trace reaches it.
    session.set_trace_sink(Some(Arc::new(PanickingSink)));
    assert!(session.preview_create_cadview(PREVIEWED).is_some());
    assert!(matches!(
        session.execute(PREVIEWED),
        Err(QueryError::Panicked(_))
    ));
    session.set_trace_sink(None);
    assert_eq!(answer(session.execute(PREVIEWED)), cold);
}

#[test]
fn a_cancel_between_preview_and_execute_degrades_the_finish() {
    let cars = Arc::new(UsedCarsGenerator::new(17).generate(4_000));
    let cancel = Arc::new(AtomicBool::new(false));
    let mut session = Session::new();
    session.register_shared("cars", Arc::clone(&cars));
    session.set_budget(ExecBudget::unlimited().with_cancel_flag(Arc::clone(&cancel)));
    assert!(session.preview_create_cadview(PREVIEWED).is_some());
    cancel.store(true, Ordering::Relaxed);
    let Ok(QueryOutput::Cad { degradation, .. }) = session.execute(PREVIEWED) else {
        panic!("a cancelled build still answers with a view");
    };
    assert!(
        degradation
            .iter()
            .any(|d| d.starts_with("clamped-kmeans-iters [pivot ")),
        "the paused partitions keep their first pass: {degradation:?}"
    );
}
