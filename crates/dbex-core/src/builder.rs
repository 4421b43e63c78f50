//! CAD View construction pipeline (paper Section 3).
//!
//! `build_cad_view` realizes the sequence Problem 1.1 → 1.2 → 2:
//!
//! 1. **Compare Attributes** — chi-square feature selection against the
//!    pivot classes (optionally on a sample: Optimization 1).
//! 2. **Candidate IUnits** — per pivot value, k-means with `l ≈ 1.5k`
//!    centers over one-hot encoded Compare Attributes (optionally sampled
//!    clustering with out-of-sample assignment; optionally fewer candidates
//!    on huge results: Optimization 2), then cluster labeling.
//! 3. **Diversified top-k** — div-astar over the candidate IUnits with the
//!    Algorithm-1 similarity graph at threshold `τ = tau_fraction · |I|`.
//!
//! Per-stage wall-clock timings are recorded in [`CadTimings`] using the
//! same three buckets as the paper's Figure 8 (Compare Attribute time,
//! IUnit generation time, "others").

use crate::budget::{BudgetGauge, Degradation, DegradationKind, ExecBudget};
use crate::cad::{CadRow, CadView};
use crate::error::CadError;
use crate::iunit::{IUnit, LabelConfig};
use crate::simil::iunit_similarity;
use dbex_cluster::{
    assign_all_packed, mini_batch_kmeans_packed, KMeansConfig, KMeansResult, MiniBatchConfig,
    PackedLloyd, PackedMatrix,
};
use dbex_obs::{Span, SpanId, Tracer};
use dbex_stats::cache::{ClusterKey, ClusterSolution};
use dbex_stats::discretize::{CodedColumn, CodedColumns};
use dbex_stats::feature::{
    select_compare_attributes_ctx, FeatureScore, FeatureScorer, FeatureSelectionConfig, ScoringCtx,
};
use dbex_stats::histogram::BinningStrategy;
use dbex_stats::{CacheStats, StatsCache};
use dbex_table::dict::NULL_CODE;
use dbex_table::{DataType, View};
use dbex_topk::{div_astar, greedy, ConflictGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How IUnits are scored for the top-k ranking (Problem 2's preference
/// function `P`).
#[derive(Debug, Clone, PartialEq)]
pub enum Preference {
    /// Larger clusters first (the paper's system default).
    ClusterSize,
    /// Ascending mean of a numeric attribute (e.g. cheapest price first —
    /// the paper's car-shopper example).
    AttributeAsc(String),
    /// Descending mean of a numeric attribute (e.g. highest mileage first —
    /// the paper's taxi-fleet example).
    AttributeDesc(String),
}

/// Tuning knobs for the construction pipeline.
#[derive(Debug, Clone)]
pub struct CadConfig {
    /// Candidate IUnits per pivot value: `l = ceil(candidate_factor · k)`
    /// (the paper suggests `l = 1.5k`).
    pub candidate_factor: f64,
    /// Bins for numeric Compare Attributes.
    pub bins: usize,
    /// Binning strategy for numeric Compare Attributes.
    pub strategy: BinningStrategy,
    /// Chi-square significance level for Compare Attribute selection.
    pub alpha: f64,
    /// Relevance measure ranking candidate Compare Attributes.
    pub scorer: FeatureScorer,
    /// Similarity threshold as a fraction of `|I|`: `τ = tau_fraction·|I|`.
    pub tau_fraction: f64,
    /// IUnit labeling thresholds.
    pub label: LabelConfig,
    /// Optimization 1a: feature-select on at most this many rows.
    pub fs_sample: Option<usize>,
    /// Optimization 1b: cluster at most this many rows per pivot value and
    /// assign the remainder to the nearest centroid.
    pub cluster_sample: Option<usize>,
    /// Optimization 2: on partitions larger than
    /// [`CadConfig::ADAPTIVE_THRESHOLD`], generate only `k` candidates.
    pub adaptive_iunits: bool,
    /// Maximum k-means iterations.
    pub kmeans_iters: usize,
    /// k-means++ seeding (`false` = random seeding, ablation only).
    pub plus_plus: bool,
    /// PRNG seed for clustering.
    pub seed: u64,
    /// Worker threads for the per-attribute and per-pivot-value stages.
    /// `1` (the default) runs the whole pipeline sequentially on the
    /// caller's thread — required by the fault-injection hooks, whose
    /// thread-locals only fire on the arming thread. `0` resolves to
    /// `DBEX_THREADS` or the machine's available parallelism. Output is
    /// byte-identical for any thread count at a fixed seed.
    pub threads: usize,
}

impl CadConfig {
    /// Partition size above which `adaptive_iunits` clamps `l` to `k`.
    pub const ADAPTIVE_THRESHOLD: usize = 10_000;

    /// The paper's combined optimizations (Section 6.3): sampled feature
    /// selection + sampled clustering + adaptive candidate counts, which
    /// together bring a 40K-row CAD View under ~500 ms.
    pub fn optimized() -> CadConfig {
        CadConfig {
            fs_sample: Some(5_000),
            cluster_sample: Some(2_000),
            adaptive_iunits: true,
            ..CadConfig::default()
        }
    }
}

impl Default for CadConfig {
    fn default() -> Self {
        CadConfig {
            candidate_factor: 1.5,
            bins: 6,
            strategy: BinningStrategy::EquiDepth,
            alpha: 0.05,
            scorer: FeatureScorer::ChiSquare,
            tau_fraction: 0.7,
            label: LabelConfig::default(),
            fs_sample: None,
            cluster_sample: None,
            adaptive_iunits: false,
            kmeans_iters: 20,
            plus_plus: true,
            seed: 0xCAD,
            threads: 1,
        }
    }
}

/// A CAD View request — the programmatic equivalent of the paper's
/// `CREATE CADVIEW` statement (Section 2.1.2).
#[derive(Debug, Clone)]
pub struct CadRequest {
    /// Pivot Attribute name (`SET pivot = ...`).
    pub pivot: String,
    /// Explicit pivot values to show; `None` shows every distinct value,
    /// ordered by decreasing tuple count.
    pub pivot_values: Option<Vec<String>>,
    /// User-forced Compare Attributes (the `SELECT` list).
    pub compare_attrs: Vec<String>,
    /// Total Compare Attribute budget `M` (`LIMIT COLUMNS M`).
    pub max_compare_attrs: usize,
    /// IUnits per pivot value `k` (`IUNITS k`).
    pub iunits: usize,
    /// IUnit preference function.
    pub preference: Preference,
    /// Pipeline tuning.
    pub config: CadConfig,
    /// Resource limits; exhaustion degrades the build instead of failing
    /// it (see [`crate::budget`]).
    pub budget: ExecBudget,
}

impl CadRequest {
    /// A request with defaults matching the paper's running example
    /// (5 Compare Attributes, 3 IUnits, cluster-size preference).
    pub fn new(pivot: impl Into<String>) -> CadRequest {
        CadRequest {
            pivot: pivot.into(),
            pivot_values: None,
            compare_attrs: Vec::new(),
            max_compare_attrs: 5,
            iunits: 3,
            preference: Preference::ClusterSize,
            config: CadConfig::default(),
            budget: ExecBudget::unlimited(),
        }
    }

    /// Restricts the view to these pivot values, in this order.
    pub fn with_pivot_values<S: Into<String>>(mut self, values: Vec<S>) -> Self {
        self.pivot_values = Some(values.into_iter().map(Into::into).collect());
        self
    }

    /// Forces these attributes into the Compare Attribute set.
    pub fn with_compare<S: Into<String>>(mut self, attrs: Vec<S>) -> Self {
        self.compare_attrs = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets `k`, the IUnits shown per pivot value.
    pub fn with_iunits(mut self, k: usize) -> Self {
        self.iunits = k;
        self
    }

    /// Sets `M`, the Compare Attribute budget.
    pub fn with_max_compare_attrs(mut self, m: usize) -> Self {
        self.max_compare_attrs = m;
        self
    }

    /// Sets the IUnit preference function.
    pub fn with_preference(mut self, p: Preference) -> Self {
        self.preference = p;
        self
    }

    /// Replaces the pipeline configuration.
    pub fn with_config(mut self, config: CadConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the execution budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Wall-clock cost of each pipeline stage — the decomposition plotted in
/// the paper's Figure 8.
#[derive(Debug, Clone, Copy, Default)]
pub struct CadTimings {
    /// Compare Attribute selection (chi-square feature selection).
    pub compare_attrs: Duration,
    /// Candidate IUnit generation (encoding, clustering, labeling).
    pub iunit_generation: Duration,
    /// Everything else: similarity graph, diversified top-k, assembly.
    pub others: Duration,
}

impl CadTimings {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.compare_attrs + self.iunit_generation + self.others
    }
}

/// Builds a CAD View over result set `result`.
///
/// Errors if the pivot attribute is unknown or not categorical, if an
/// explicit pivot value does not occur in the result set, or if a forced
/// Compare Attribute is unknown.
///
/// ```
/// use dbex_table::{TableBuilder, Field, DataType};
/// use dbex_core::{build_cad_view, CadRequest};
///
/// let mut b = TableBuilder::new(vec![
///     Field::new("Make", DataType::Categorical),
///     Field::new("Engine", DataType::Categorical),
/// ]).unwrap();
/// for i in 0..20 {
///     let (m, e) = if i % 2 == 0 { ("Ford", "V6") } else { ("Jeep", "V8") };
///     b.push_row(vec![m.into(), e.into()]).unwrap();
/// }
/// let table = b.finish();
///
/// let cad = build_cad_view(&table.full_view(), &CadRequest::new("Make")).unwrap();
/// assert_eq!(cad.rows.len(), 2);
/// assert!(cad.render().contains("IUnit 1"));
/// ```
pub fn build_cad_view(result: &View<'_>, request: &CadRequest) -> Result<CadView, CadError> {
    build_cad_view_cached(result, request, None)
}

/// [`build_cad_view`] with an optional statistics cache.
///
/// The cache memoizes attribute codecs (histograms + bin labels), the
/// scores of chi-square contingency tables and cluster solutions across
/// builds, keyed on the view's
/// fingerprint — repeated `CREATE CADVIEW` statements and TPFacet
/// refinements over the same result set stop recomputing them. Pass
/// `None` for the uncached behavior of [`build_cad_view`]; cached and
/// uncached builds produce identical views.
pub fn build_cad_view_cached(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
) -> Result<CadView, CadError> {
    build_cad_view_traced(result, request, cache, None, &Tracer::disabled())
}

/// Reads the cache counters, treating "no cache" as all-zero.
fn cache_stats(cache: Option<&StatsCache>) -> CacheStats {
    cache.map(|c| c.stats()).unwrap_or_default()
}

/// [`build_cad_view_cached`] with span tracing, coding attributes through
/// `coded`, the caller's memo of `result`.
///
/// Every stage reads its attribute codes from that memo, so an attribute
/// is coded at most once per result however many stages — or later
/// builds and `SUGGEST` calls over the same result — read it. `None` (or
/// a memo binning differently from the request) codes through a memo
/// that lives for this build alone.
///
/// With an enabled `tracer` the build records the span taxonomy below
/// and attaches the assembled tree as [`CadView::trace`] (the tracer is
/// drained — use one tracer per build). With `Tracer::disabled()` the
/// instrumentation cost is an `Option` check per stage.
///
/// ```text
/// cad_build                rows_input, degradations, degradation_level
/// ├ pivot_encode           rows_scanned, pivot_values
/// ├ compare_attrs          rows_scanned, attrs_scored, attrs_selected,
/// │                        cache_hits, cache_misses
/// ├ iunit_generation
/// │ ├ encode_matrix        rows_scanned, attrs_encoded, cache_hits/misses
/// │ └ cluster_partition    rows_clustered, candidates, degradations
/// └ topk
///   └ solve_partition      candidates, selected, greedy_solves
/// ```
///
/// `cluster_partition` / `solve_partition` run once per pivot value —
/// possibly on pool workers — and merge into a single node, so the tree
/// and every counter are byte-identical at any thread count; only the
/// recorded durations differ. `rows_scanned` counts rows coded, i.e. the
/// memo's misses: a stage whose columns were already coded reports 0.
///
/// This is [`CadBuild::start`] then [`CadBuild::finish`] with no pause
/// between them; a paused build's tree differs as described there.
pub fn build_cad_view_traced(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
    coded: Option<&CodedColumns>,
    tracer: &Tracer,
) -> Result<CadView, CadError> {
    CadBuild::start(result, request, cache, coded, tracer, false)?.finish(result, cache)
}

/// Lloyd passes a paused partition runs before its build pauses.
const PAUSE_AFTER_PASSES: usize = 1;

/// A CAD View build split into phases, so a streamed build can show its
/// state midway and then finish, instead of building twice.
///
/// * [`CadBuild::start`] encodes the pivot, selects the Compare
///   Attributes and probes the cluster cache, exactly as an unstreamed
///   build does. Asked to pause, it seeds each missed full-rung partition
///   and runs one Lloyd pass ([`PackedLloyd`]); every other partition —
///   cached, mini-batch, sampled, or clustered on a `cluster_sample` —
///   finishes inside `start`.
/// * [`CadBuild::preview`] labels and ranks the build as it stands:
///   finished partitions as they are, paused ones from their first-pass
///   assignment. With nothing paused it is already the exact view.
/// * [`CadBuild::finish`] resumes the paused runs, caches their
///   solutions, then labels and ranks. A resumed Lloyd run is
///   bit-identical to an unpaused one, so the view equals an unstreamed
///   build's. A paused partition that `finish` reaches after the deadline
///   or a cancel keeps its first-pass clustering, recorded as a
///   [`DegradationKind::ClampedKMeansIters`] degradation.
///
/// The budget gauge starts in `start`, so the deadline covers both
/// phases. The build owns what it computed (coded columns through `Arc`s,
/// its gauge, its tracer), so it can be kept between calls; `preview`
/// and `finish` must be given the result `start` ran over. A paused build
/// records one `cad_build` tree, when `finish` returns: the preview's
/// labeling and ranking sit under a `preview` span, a second
/// `iunit_generation` span holds the resumed runs, and `cluster_partition`
/// counts `paused` and `resumed` partitions (so its `calls` count a
/// paused partition twice).
pub struct CadBuild {
    request: CadRequest,
    gauge: BudgetGauge,
    threads: usize,
    pivot_col: usize,
    /// The Compare Attributes that survived encoding, in selection order.
    columns: Vec<Arc<CodedColumn>>,
    feature_scores: Vec<FeatureScore>,
    partitions: Vec<Partition>,
    degradation: Vec<Degradation>,
    partitions_reused: usize,
    timing_compare: Duration,
    timing_iunits: Duration,
    started: Instant,
    tracer: Tracer,
    root: Option<SpanId>,
}

/// One selected pivot value: its code, label, member positions, and its
/// candidate IUnits so far.
struct Partition {
    code: u32,
    label: String,
    members: Vec<usize>,
    candidates: Candidates,
}

/// A partition's candidate IUnits, or the Lloyd run that will yield them.
enum Candidates {
    Done(Vec<IUnit>),
    Paused(Box<PausedRun>),
}

impl Candidates {
    /// The finished candidates; none while paused.
    fn done(&self) -> &[IUnit] {
        match self {
            Candidates::Done(units) => units,
            Candidates::Paused(_) => &[],
        }
    }
}

/// A full-rung Lloyd run stopped after [`PAUSE_AFTER_PASSES`].
struct PausedRun {
    run: PackedLloyd,
    /// The candidate count `l` the run clusters into.
    l: usize,
    /// Where the finished solution goes in the cluster cache.
    reuse_key: Option<ClusterKey>,
}

impl CadBuild {
    /// Runs the build up to its clustering; with `pause`, stops each
    /// missed full-rung partition after its first Lloyd pass (see
    /// the type docs). Errors as [`build_cad_view`] does before ranking.
    pub fn start(
        result: &View<'_>,
        request: &CadRequest,
        cache: Option<&StatsCache>,
        coded: Option<&CodedColumns>,
        tracer: &Tracer,
        pause: bool,
    ) -> Result<CadBuild, CadError> {
        let root = tracer.enter_raw(None, "cad_build");
        let build = start_build(result, request, cache, coded, tracer, root, pause);
        if let (Err(_), Some(root)) = (&build, root) {
            tracer.exit_raw(root);
        }
        build
    }

    /// Whether some partition is paused mid-Lloyd, so that
    /// [`Self::preview`] differs from the finished view.
    fn is_paused(&self) -> bool {
        self.partitions
            .iter()
            .any(|p| matches!(p.candidates, Candidates::Paused(_)))
    }

    /// The view as the build stands, leaving the build unchanged: finished
    /// partitions ranked from their candidates, paused ones from the
    /// clusters of their first Lloyd pass. Only the chosen IUnits are
    /// copied out of the build.
    pub fn preview(&self, result: &View<'_>) -> Result<CadView, CadError> {
        let span = self.tracer.child_of(self.root, "preview");
        let pref = resolve_preference(result, &self.request.preference)?;
        let coded = self.coded();
        let label = &self.request.config.label;
        let first_pass: Vec<Option<Vec<IUnit>>> =
            dbex_par::par_map(self.threads, &self.partitions, |_, p| match &p.candidates {
                Candidates::Done(_) => None,
                Candidates::Paused(paused) => {
                    let clusters = bucket(paused.run.assignments().unwrap_or_default(), paused.l);
                    Some(units_of(&clusters, &p.members, &coded, label))
                }
            });
        let candidates: Vec<&[IUnit]> = self
            .partitions
            .iter()
            .zip(&first_pass)
            .map(|(p, first)| first.as_deref().unwrap_or(p.candidates.done()))
            .collect();
        span.add(
            "candidates",
            candidates.iter().map(|units| units.len() as u64).sum(),
        );
        let solved = solve_partitions(
            &candidates,
            result,
            &pref,
            self.tau(),
            self.request.iunits,
            &self.gauge,
            self.threads,
            &span,
        );
        let mut degradation = self.degradation.clone();
        degradation.extend(greedy_degradation(&self.gauge, &solved));
        let rows = self
            .partitions
            .iter()
            .zip(candidates)
            .zip(solved)
            .map(|((p, units), (chosen, scores, _))| CadRow {
                pivot_code: p.code,
                pivot_label: p.label.clone(),
                iunits: chosen
                    .into_iter()
                    .filter_map(|i| {
                        let mut unit = units.get(i)?.clone();
                        unit.score = *scores.get(i)?;
                        Some(unit)
                    })
                    .collect(),
            })
            .collect();
        Ok(self.assemble(result, rows, degradation, Duration::ZERO, None))
    }

    /// Resumes the paused partitions, then labels and ranks every
    /// partition into the finished view (see the type docs).
    pub fn finish(
        mut self,
        result: &View<'_>,
        cache: Option<&StatsCache>,
    ) -> Result<CadView, CadError> {
        if self.is_paused() {
            let t = Instant::now();
            let gen_span = self.tracer.child_of(self.root, "iunit_generation");
            let coded: Vec<&CodedColumn> = self.columns.iter().map(|c| &**c).collect();
            let (gauge, config) = (&self.gauge, &self.request.config);
            let partitions = std::mem::take(&mut self.partitions);
            for (p, degraded) in dbex_par::par_map_into(self.threads, partitions, |_, mut p| {
                let candidates = std::mem::replace(&mut p.candidates, Candidates::Done(Vec::new()));
                let Candidates::Paused(paused) = candidates else {
                    p.candidates = candidates;
                    return (p, Vec::new());
                };
                let span = gen_span.child("cluster_partition");
                let (units, degraded) =
                    resume(*paused, &p.members, &coded, config, gauge, cache, &p.label);
                span.add("resumed", 1);
                span.add("candidates", units.len() as u64);
                span.add("degradations", degraded.len() as u64);
                p.candidates = Candidates::Done(units);
                (p, degraded)
            }) {
                self.degradation.extend(degraded);
                self.partitions.push(p);
            }
            drop(gen_span);
            self.timing_iunits += t.elapsed();
        }

        // --- Stage 3: preference scores + diversified top-k (Problem 2) ---
        let t2 = Instant::now();
        // Resolve the preference once so the per-partition work is
        // infallible (a pool worker has no way to surface a typed error
        // mid-map).
        let pref = resolve_preference(result, &self.request.preference)?;
        let topk_span = self.tracer.child_of(self.root, "topk");
        let partitions = std::mem::take(&mut self.partitions);
        let candidates: Vec<&[IUnit]> = partitions.iter().map(|p| p.candidates.done()).collect();
        let solved = solve_partitions(
            &candidates,
            result,
            &pref,
            self.tau(),
            self.request.iunits,
            &self.gauge,
            self.threads,
            &topk_span,
        );
        self.degradation
            .extend(greedy_degradation(&self.gauge, &solved));
        let rows = partitions
            .into_iter()
            .zip(solved)
            .map(|(p, (chosen, scores, _))| {
                let units = match p.candidates {
                    Candidates::Done(units) => units,
                    Candidates::Paused(_) => Vec::new(),
                };
                CadRow {
                    pivot_code: p.code,
                    pivot_label: p.label,
                    iunits: take_chosen(units, scores, chosen),
                }
            })
            .collect();
        drop(topk_span);
        let timing_others = t2.elapsed();

        if let Some(root) = self.root {
            self.tracer
                .add_raw(root, "degradations", self.degradation.len() as u64);
            self.tracer.add_raw(
                root,
                "degradation_level",
                self.degradation
                    .iter()
                    .map(|d| d.kind.severity())
                    .max()
                    .unwrap_or(0),
            );
            self.tracer.exit_raw(root);
        }
        let trace = self.tracer.finish();
        dbex_obs::counter!("cad.degradations").incr(self.degradation.len() as u64);
        build_ms_histogram().observe_ms(self.started.elapsed());
        let degradation = std::mem::take(&mut self.degradation);
        Ok(self.assemble(result, rows, degradation, timing_others, trace))
    }

    /// The coded Compare Attribute columns, borrowed.
    fn coded(&self) -> Vec<&CodedColumn> {
        self.columns.iter().map(|c| &**c).collect()
    }

    /// The similarity threshold `τ = tau_fraction · |I|`.
    fn tau(&self) -> f64 {
        self.request.config.tau_fraction * self.columns.len() as f64
    }

    fn assemble(
        &self,
        result: &View<'_>,
        rows: Vec<CadRow>,
        degradation: Vec<Degradation>,
        others: Duration,
        trace: Option<dbex_obs::Trace>,
    ) -> CadView {
        let schema = result.table().schema();
        let compare_attrs: Vec<usize> = self.columns.iter().map(|c| c.attr_index).collect();
        CadView {
            pivot_attr: self.pivot_col,
            pivot_name: self.request.pivot.clone(),
            compare_names: compare_attrs
                .iter()
                .map(|&i| schema.field(i).name.clone())
                .collect(),
            compare_attrs,
            k: self.request.iunits,
            tau: self.tau(),
            rows,
            feature_scores: self.feature_scores.clone(),
            timings: CadTimings {
                compare_attrs: self.timing_compare,
                iunit_generation: self.timing_iunits,
                others,
            },
            threads_used: self.threads,
            degradation,
            partitions_reused: self.partitions_reused,
            trace,
        }
    }
}

/// [`CadBuild::start`] under an open `cad_build` span `root`.
#[allow(clippy::too_many_arguments)]
fn start_build(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
    coded: Option<&CodedColumns>,
    tracer: &Tracer,
    root: Option<SpanId>,
    pause: bool,
) -> Result<CadBuild, CadError> {
    let started = Instant::now();
    dbex_obs::counter!("cad.builds").incr(1);
    let threads = dbex_par::resolve_threads(request.config.threads);
    // Record which SIMD kernel family this process dispatches to, so
    // `metrics`/EXPLAIN ANALYZE can attribute build timings to the
    // hardware path actually taken (codes from `SimdDispatch::code`).
    dbex_obs::gauge!("cluster.kernel_dispatch").set(dbex_stats::simd::dispatch().code());
    let gauge = request.budget.start();
    let mut degradation: Vec<Degradation> = Vec::new();
    let schema = result.table().schema();
    let pivot_col = schema.index_of(&request.pivot)?;
    if request.iunits == 0 {
        return Err(CadError::ZeroIUnits);
    }
    let mut own_memo = None;
    let memo = CodedColumns::reuse_or_new(
        coded,
        &mut own_memo,
        result,
        request.config.bins,
        request.config.strategy,
    );
    if let Some(root) = root {
        tracer.add_raw(root, "rows_input", result.len() as u64);
    }
    let pivot_span = tracer.child_of(root, "pivot_encode");
    let rows_coded_before = memo.rows_coded();
    let pivot_column = result.table().column(pivot_col);
    // Categorical pivots use their dictionary codes; numeric pivots are
    // discretized, and the bins act as pivot values (an extension beyond
    // the paper, which assumes a categorical pivot).
    let pivot =
        memo.column(result, pivot_col, cache)
            .map_err(|e| CadError::PivotNotDiscretizable {
                pivot: request.pivot.clone(),
                source: e,
            })?;
    let pivot_codec = &pivot.codec;

    // Partition the result set by pivot code (positions, not row ids), in
    // first-appearance order. Codes are below the codec's cardinality, so
    // a dense slot table indexes them, and the column's code counts size
    // each partition exactly.
    let mut partitions: Vec<(u32, Vec<usize>)> = Vec::new();
    {
        let counts = pivot.counts();
        let mut slot_of_code = vec![usize::MAX; counts.len()];
        for (pos, &code) in pivot.codes.iter().enumerate() {
            // NULL_CODE is past every cardinality.
            let Some(slot) = slot_of_code.get_mut(code as usize) else {
                continue;
            };
            if *slot == usize::MAX {
                *slot = partitions.len();
                let members = Vec::with_capacity(counts[code as usize] as usize);
                partitions.push((code, members));
            }
            partitions[*slot].1.push(pos);
        }
    }

    // Resolve the pivot value list V.
    let selected_partitions: Vec<(u32, String, Vec<usize>)> = match &request.pivot_values {
        Some(labels) => {
            let mut out = Vec::with_capacity(labels.len());
            for label in labels {
                let code = pivot_codec.code_of_label(label).ok_or_else(|| {
                    CadError::UnknownPivotValue {
                        value: label.clone(),
                        pivot: request.pivot.clone(),
                    }
                })?;
                let members = partitions
                    .iter()
                    .find(|(c, _)| *c == code)
                    .map(|(_, m)| m.clone())
                    .unwrap_or_default();
                out.push((code, label.clone(), members));
            }
            out
        }
        None => {
            let mut parts = partitions;
            match schema.field(pivot_col).data_type {
                // Categorical pivots: biggest partitions first.
                DataType::Categorical => {
                    parts.sort_by_key(|p| std::cmp::Reverse(p.1.len()));
                }
                // Binned numeric pivots: natural bin order.
                _ => parts.sort_by_key(|p| p.0),
            }
            parts
                .into_iter()
                .map(|(code, members)| {
                    let label = pivot_codec.label(code).to_owned();
                    (code, label, members)
                })
                .collect()
        }
    };
    let pivot_codes: Vec<u32> = selected_partitions.iter().map(|(c, _, _)| *c).collect();
    if pivot_codes.is_empty() {
        return Err(CadError::NoPivotValues);
    }
    pivot_span.add("rows_scanned", memo.rows_coded() - rows_coded_before);
    pivot_span.add("pivot_values", selected_partitions.len() as u64);
    drop(pivot_span);

    // --- Stage 1: Compare Attributes (Problem 1.1) ---
    let t0 = Instant::now();
    let fs_span = tracer.child_of(root, "compare_attrs");
    let fs_cache_before = cache_stats(cache);
    let rows_coded_before = memo.rows_coded();
    let forced: Vec<usize> = request
        .compare_attrs
        .iter()
        .map(|name| schema.index_of(name))
        .collect::<dbex_table::Result<_>>()?;
    let candidates: Vec<usize> = (0..schema.len()).filter(|&i| i != pivot_col).collect();
    let candidates_scored = candidates.len();
    // Deadline already blown before stage 1 (e.g. a tiny budget): clamp
    // feature selection to a small sample instead of scanning everything.
    let mut fs_sample = request.config.fs_sample;
    if gauge.time_exhausted() {
        const FS_DEGRADED_CAP: usize = 1_000;
        if fs_sample.is_none_or(|s| s > FS_DEGRADED_CAP) {
            fs_sample = Some(FS_DEGRADED_CAP);
            degradation.push(Degradation {
                kind: DegradationKind::SampledFeatureSelection,
                pivot_value: None,
                reason: format!(
                    "time budget exhausted after {:?}; scoring attributes on a {FS_DEGRADED_CAP}-row sample",
                    gauge.elapsed()
                ),
            });
        }
    }
    let fs_config = FeatureSelectionConfig {
        max_attrs: request.max_compare_attrs,
        alpha: request.config.alpha,
        bins: request.config.bins,
        strategy: request.config.strategy,
        sample: fs_sample,
        scorer: request.config.scorer,
    };
    let class_of = |row: usize| -> Option<usize> {
        let code = pivot_codec.encode(pivot_column, row)?;
        pivot_codes.iter().position(|&c| c == code)
    };
    // Contingency tables are cached per class-label assignment; hash the
    // pivot column and the selected codes so two pivots over the same view
    // can never collide.
    let class_ctx = {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(pivot_col as u64);
        for &code in &pivot_codes {
            mix(code as u64 + 1);
        }
        h
    };
    let (mut compare_attrs, scores) = select_compare_attributes_ctx(
        result,
        pivot_codes.len(),
        &class_of,
        pivot_col,
        &forced,
        &candidates,
        &fs_config,
        ScoringCtx {
            coded: Some(memo),
            threads,
            cache,
            class_ctx,
        },
    );
    // Degenerate fallback: if nothing passes the significance filter, take
    // the best-scoring candidates anyway — an empty CAD View helps nobody.
    if compare_attrs.is_empty() {
        compare_attrs = scores
            .iter()
            .take(request.max_compare_attrs)
            .map(|s| s.attr_index)
            .collect();
    }
    if compare_attrs.is_empty() {
        compare_attrs = candidates
            .into_iter()
            .take(request.max_compare_attrs)
            .collect();
    }
    fs_span.add("rows_scanned", memo.rows_coded() - rows_coded_before);
    fs_span.add("attrs_scored", candidates_scored as u64);
    fs_span.add("attrs_selected", compare_attrs.len() as u64);
    let fs_cache_after = cache_stats(cache);
    fs_span.add("cache_hits", fs_cache_after.hits - fs_cache_before.hits);
    fs_span.add("cache_misses", fs_cache_after.misses - fs_cache_before.misses);
    drop(fs_span);
    let timing_compare = t0.elapsed();

    // --- Stage 2: Candidate IUnits (Problem 1.2) ---
    let t1 = Instant::now();
    let gen_span = tracer.child_of(root, "iunit_generation");
    let enc_span = gen_span.child("encode_matrix");
    let enc_cache_before = cache_stats(cache);
    let rows_coded_before = memo.rows_coded();
    // Attributes that cannot be coded (all-NULL numeric columns) are
    // skipped — the CAD View simply cannot use them.
    let columns: Vec<Arc<CodedColumn>> =
        dbex_par::par_map(threads, &compare_attrs, |_, &attr| {
            memo.column(result, attr, cache).ok()
        })
        .into_iter()
        .flatten()
        .collect();
    let coded: Vec<&CodedColumn> = columns.iter().map(|c| &**c).collect();
    if coded.is_empty() {
        return Err(CadError::NoCompareAttributes);
    }
    let coded_attrs: Vec<usize> = coded.iter().map(|c| c.attr_index).collect();
    enc_span.add("rows_scanned", memo.rows_coded() - rows_coded_before);
    enc_span.add("attrs_encoded", coded.len() as u64);
    let enc_cache_after = cache_stats(cache);
    enc_span.add("cache_hits", enc_cache_after.hits - enc_cache_before.hits);
    enc_span.add(
        "cache_misses",
        enc_cache_after.misses - enc_cache_before.misses,
    );
    drop(enc_span);
    let k = request.iunits;

    // Iteration-cap clamping is recorded once, not per partition.
    let kmeans_iters = gauge.clamp_iters(request.config.kmeans_iters);
    if kmeans_iters < request.config.kmeans_iters {
        degradation.push(Degradation {
            kind: DegradationKind::ClampedKMeansIters,
            pivot_value: None,
            reason: format!(
                "k-means capped at {kmeans_iters} of {} configured iterations",
                request.config.kmeans_iters
            ),
        });
    }

    // Fan the per-pivot-value clustering across the pool. Each
    // partition is independent and seeded identically to the
    // sequential path, and `par_map` returns results in partition
    // order, so the output — including the degradation log — is
    // byte-identical at any thread count.
    //
    // When there are fewer partitions than workers (few pivot values,
    // the common shape on real datasets), the leftover parallelism
    // moves *inside* each partition: the Lloyd kernel splits its row
    // walk into deterministically-merged chunks. Dividing keeps the
    // worst-case thread count near `threads` (outer workers × inner
    // chunks).
    let inner_threads = if threads > 1 {
        threads.div_ceil(selected_partitions.len().max(1)).max(1)
    } else {
        1
    };
    let clustered = dbex_par::par_map(
        threads,
        &selected_partitions,
        |_, (code, label, members)| {
            let span = gen_span.child("cluster_partition");
            gauge.charge_rows(members.len());
            let fingerprint = || {
                memo.partition_fingerprint(pivot_col, *code, &coded_attrs, || {
                    partition_fingerprint(result, members, &coded)
                })
            };
            let (candidates, degraded, reused) = generate_candidates(
                members,
                &coded,
                k,
                &request.config,
                kmeans_iters,
                inner_threads,
                &gauge,
                label,
                cache,
                fingerprint,
                pause,
            );
            span.add("rows_clustered", members.len() as u64);
            match &candidates {
                Candidates::Done(units) => span.add("candidates", units.len() as u64),
                Candidates::Paused(_) => span.add("paused", 1),
            }
            span.add("degradations", degraded.len() as u64);
            span.add("partitions_reused", reused as u64);
            (candidates, degraded, reused)
        },
    );
    let mut partitions = Vec::with_capacity(selected_partitions.len());
    let mut partitions_reused = 0usize;
    for ((code, label, members), (candidates, degraded, reused)) in
        selected_partitions.into_iter().zip(clustered)
    {
        degradation.extend(degraded);
        partitions_reused += reused as usize;
        partitions.push(Partition {
            code,
            label,
            members,
            candidates,
        });
    }
    drop(gen_span);
    Ok(CadBuild {
        request: request.clone(),
        gauge,
        threads,
        pivot_col,
        columns,
        feature_scores: scores,
        partitions,
        degradation,
        partitions_reused,
        timing_compare,
        timing_iunits: t1.elapsed(),
        started,
        tracer: tracer.clone(),
        root,
    })
}

/// Stage 3 for every partition's candidates: preference scores, the
/// similarity graph, and the diversified top-k solve, each under a
/// `solve_partition` span of `parent`. Past the deadline, div-astar's
/// exact search gives way to the greedy heuristic; the clock is monotone,
/// so the sequential path degrades every partition after the first
/// exhausted one. Returns per partition the chosen candidate indices,
/// best first, every candidate's score, and whether greedy ran.
#[allow(clippy::too_many_arguments)]
fn solve_partitions(
    candidates: &[&[IUnit]],
    result: &View<'_>,
    pref: &PrefSpec,
    tau: f64,
    k: usize,
    gauge: &BudgetGauge,
    threads: usize,
    parent: &Span<'_>,
) -> Vec<(Vec<usize>, Vec<f64>, bool)> {
    dbex_par::par_map(threads, candidates, |_, units| {
        let span = parent.child("solve_partition");
        let scores = preference_scores(units, result, pref);
        let graph = ConflictGraph::from_similarity(
            units.len(),
            |a, b| iunit_similarity(&units[a], &units[b]),
            tau,
        );
        let used_greedy = gauge.time_exhausted();
        let solution = if used_greedy {
            greedy(&scores, &graph, k)
        } else {
            div_astar(&scores, &graph, k)
        };
        let mut chosen: Vec<usize> = solution.items;
        chosen.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        span.add("candidates", units.len() as u64);
        span.add("selected", chosen.len() as u64);
        span.add("greedy_solves", used_greedy as u64);
        (chosen, scores, used_greedy)
    })
}

/// The one degradation record for the partitions ranked greedily, if any
/// (recorded once, after the fan-out).
fn greedy_degradation(
    gauge: &BudgetGauge,
    solved: &[(Vec<usize>, Vec<f64>, bool)],
) -> Option<Degradation> {
    let greedy_partitions = solved.iter().filter(|s| s.2).count();
    (greedy_partitions > 0).then(|| Degradation {
        kind: DegradationKind::GreedyTopK,
        pivot_value: None,
        reason: format!(
            "time budget exhausted after {:?}; ranked IUnits greedily for \
             {greedy_partitions} partition(s)",
            gauge.elapsed()
        ),
    })
}

/// The chosen candidates, scored, in `chosen` order. Drains by index
/// without cloning the rest. Indices from the top-k solvers are distinct
/// and in range; out-of-contract values are skipped rather than trusted
/// with a panic.
fn take_chosen(units: Vec<IUnit>, scores: Vec<f64>, chosen: Vec<usize>) -> Vec<IUnit> {
    let mut taken: Vec<Option<IUnit>> = units
        .into_iter()
        .zip(scores)
        .map(|(mut u, s)| {
            u.score = s;
            Some(u)
        })
        .collect();
    chosen
        .into_iter()
        .filter_map(|i| taken.get_mut(i).and_then(Option::take))
        .collect()
}

/// Member-list indices bucketed by cluster (`clusters` of them, in
/// cluster order), empty clusters dropped — the representation the reuse
/// cache stores.
fn bucket(assignments: &[usize], clusters: usize) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); clusters];
    for (i, &c) in assignments.iter().enumerate() {
        if let Some(slot) = out.get_mut(c) {
            slot.push(i as u32);
        }
    }
    out.retain(|c| !c.is_empty());
    out
}

/// One labeled IUnit per cluster of member-list indices.
fn units_of(
    clusters: &[Vec<u32>],
    members: &[usize],
    coded: &[&CodedColumn],
    label: &LabelConfig,
) -> Vec<IUnit> {
    clusters
        .iter()
        .map(|cluster| {
            let mems: Vec<usize> = cluster
                .iter()
                .filter_map(|&i| members.get(i as usize).copied())
                .collect();
            IUnit::from_members(mems, coded, label)
        })
        .collect()
}

/// Finishes a paused partition: runs its Lloyd passes to the end and
/// caches the solution — or, once the deadline has passed or the build
/// was cancelled, keeps the clusters of the passes already run.
fn resume(
    paused: PausedRun,
    members: &[usize],
    coded: &[&CodedColumn],
    config: &CadConfig,
    gauge: &BudgetGauge,
    cache: Option<&StatsCache>,
    pivot_label: &str,
) -> (Vec<IUnit>, Vec<Degradation>) {
    let PausedRun { run, l, reuse_key } = paused;
    let mut degradation = Vec::new();
    let clusters = if gauge.time_exhausted() {
        degradation.push(Degradation {
            kind: DegradationKind::ClampedKMeansIters,
            pivot_value: Some(pivot_label.to_owned()),
            reason: format!(
                "time budget exhausted after {:?}; k-means stopped after \
                 {PAUSE_AFTER_PASSES} preview pass(es)",
                gauge.elapsed()
            ),
        });
        bucket(run.assignments().unwrap_or_default(), l)
    } else {
        let km = run.finish();
        let clusters = bucket(&km.assignments, km.centroids.len());
        if let (Some(key), Some(cache)) = (reuse_key, cache) {
            cache.cluster_insert(key, ClusterSolution::new(&clusters));
        }
        clusters
    };
    (
        units_of(&clusters, members, coded, &config.label),
        degradation,
    )
}

/// The global build-latency histogram (fixed bounds: interactive-latency
/// decades from 1 ms to 2.5 s).
fn build_ms_histogram() -> std::sync::Arc<dbex_obs::Histogram> {
    static SLOT: std::sync::OnceLock<std::sync::Arc<dbex_obs::Histogram>> =
        std::sync::OnceLock::new();
    std::sync::Arc::clone(SLOT.get_or_init(|| {
        dbex_obs::global().histogram("cad.build_ms", &[1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0])
    }))
}

/// Sample cap used by the last clustering rung under an exhausted budget.
const DEGRADED_SAMPLE_CAP: usize = 256;

/// Rungs of the degradation ladder, in order of decreasing fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterRung {
    /// Full Lloyd iterations (possibly over `cluster_sample` rows).
    Full,
    /// Mini-batch k-means: constant work per point.
    MiniBatch,
    /// Full k-means over a tiny stride sample, remainder assigned.
    Sampled,
}

impl ClusterRung {
    fn next(self) -> Option<ClusterRung> {
        match self {
            ClusterRung::Full => Some(ClusterRung::MiniBatch),
            ClusterRung::MiniBatch => Some(ClusterRung::Sampled),
            ClusterRung::Sampled => None,
        }
    }

    fn kind(self) -> DegradationKind {
        match self {
            // `Full` never appears in a degradation record; mapped for
            // completeness only.
            ClusterRung::Full | ClusterRung::MiniBatch => DegradationKind::MiniBatchClustering,
            ClusterRung::Sampled => DegradationKind::SampledClustering,
        }
    }
}

/// Hash of the partition's *content* for the cluster-reuse cache key:
/// the member row ids (via [`View::fingerprint_positions`]) crossed with
/// every compare attribute's identity, cardinality, and dictionary codes
/// at those members. A numeric attribute re-binned after a refinement
/// changes its codes and so misses; categorical codes are stable across
/// refinements, which is what makes untouched partitions hit.
fn partition_fingerprint(
    result: &View<'_>,
    members: &[usize],
    coded: &[&CodedColumn],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = result.fingerprint_positions(members);
    let mut mix = |word: u64| {
        hash = (hash ^ word).wrapping_mul(PRIME);
    };
    for col in coded {
        mix(col.attr_index as u64);
        mix(col.codec.cardinality() as u64);
        for &p in members {
            mix(u64::from(col.codes.get(p).copied().unwrap_or(NULL_CODE)) + 1);
        }
    }
    hash
}

/// Clusters one pivot partition into `l` candidate IUnits.
///
/// Budget exhaustion and clustering failures never propagate: the ladder
/// walks full k-means → mini-batch → sampled build → a single catch-all
/// IUnit, recording a [`Degradation`] for every rung it descends. The
/// degradations are *returned* rather than pushed into shared state so the
/// caller can run partitions on pool workers and still merge the log in
/// deterministic partition order.
///
/// With a [`StatsCache`], full-fidelity solutions are memoized per
/// partition fingerprint, so a facet refinement that leaves this pivot
/// value's rows untouched skips re-clustering entirely (the returned
/// `reused` flag). Reuse is bypassed whenever it could diverge from a cold
/// build: on any degraded rung, or while a cluster fault is armed on this
/// thread (a cold build would descend the ladder). With `pause`, a missed
/// full-rung partition comes back paused after its first Lloyd pass
/// instead (see [`CadBuild`]). `fingerprint` yields the partition's
/// [`partition_fingerprint`], asked for only when the cache is probed.
/// Returns `(candidates, degradations, reused)`.
#[allow(clippy::too_many_arguments)]
fn generate_candidates(
    members: &[usize],
    coded: &[&CodedColumn],
    k: usize,
    config: &CadConfig,
    kmeans_iters: usize,
    inner_threads: usize,
    gauge: &BudgetGauge,
    pivot_label: &str,
    cache: Option<&dbex_stats::StatsCache>,
    fingerprint: impl FnOnce() -> u64,
    pause: bool,
) -> (Candidates, Vec<Degradation>, bool) {
    let mut degradation = Vec::new();
    if members.is_empty() {
        return (Candidates::Done(Vec::new()), degradation, false);
    }
    let adaptive_clamp =
        config.adaptive_iunits && members.len() > CadConfig::ADAPTIVE_THRESHOLD;
    let l = if adaptive_clamp {
        k
    } else {
        ((config.candidate_factor * k as f64).ceil() as usize).max(k)
    };

    // Pick the starting rung from the budget state.
    let mut rung = if gauge.time_exhausted() {
        degradation.push(Degradation {
            kind: DegradationKind::SampledClustering,
            pivot_value: Some(pivot_label.to_owned()),
            reason: format!(
                "time budget exhausted after {:?}; clustering a {}-row sample",
                gauge.elapsed(),
                DEGRADED_SAMPLE_CAP.min(members.len())
            ),
        });
        ClusterRung::Sampled
    } else if gauge.rows_exhausted(members.len()) {
        degradation.push(Degradation {
            kind: DegradationKind::MiniBatchClustering,
            pivot_value: Some(pivot_label.to_owned()),
            reason: format!(
                "partition has {} rows over the {}-row budget",
                members.len(),
                gauge.budget().max_rows.unwrap_or(0)
            ),
        });
        ClusterRung::MiniBatch
    } else {
        ClusterRung::Full
    };

    // Exact cluster reuse: only at full fidelity (degraded rungs are shaped
    // by transient budget state), and only with no armed cluster fault (a
    // cold build would degrade, so a cache hit would diverge from it).
    let faults_clear = dbex_cluster::fault::check("cluster::kmeans").is_ok()
        && dbex_cluster::fault::check("cluster::minibatch").is_ok();
    let mut reuse_key = None;
    if rung == ClusterRung::Full && faults_clear {
        if let Some(cache) = cache {
            let key = ClusterKey {
                partition_fp: fingerprint(),
                l,
                iters: kmeans_iters,
                seed: config.seed,
                plus_plus: config.plus_plus,
                sample: config.cluster_sample.unwrap_or(usize::MAX),
            };
            if let Some(solution) = cache.cluster_lookup(&key) {
                dbex_obs::counter!("cluster.partitions_reused").incr(1);
                let units = solution
                    .remap(members)
                    .into_iter()
                    .map(|mems| IUnit::from_members(mems, coded, &config.label))
                    .collect();
                return (Candidates::Done(units), degradation, true);
            }
            reuse_key = Some(key);
        }
    }

    loop {
        match cluster_partition(
            members,
            coded,
            l,
            config,
            kmeans_iters,
            inner_threads,
            rung,
            pause && rung == ClusterRung::Full,
        ) {
            Ok(Clustering::Paused(run)) => {
                let paused = PausedRun { run, l, reuse_key };
                return (Candidates::Paused(Box::new(paused)), degradation, false);
            }
            Ok(Clustering::Done(clusters)) => {
                if rung == ClusterRung::Full {
                    if let (Some(key), Some(cache)) = (reuse_key, cache) {
                        cache.cluster_insert(key, ClusterSolution::new(&clusters));
                    }
                }
                let units = units_of(&clusters, members, coded, &config.label);
                return (Candidates::Done(units), degradation, false);
            }
            Err(e) => match rung.next() {
                Some(next) => {
                    degradation.push(Degradation {
                        kind: next.kind(),
                        pivot_value: Some(pivot_label.to_owned()),
                        reason: format!("{rung:?} clustering failed ({e}); degrading"),
                    });
                    rung = next;
                }
                None => {
                    // Every clustering rung failed: one catch-all IUnit
                    // still gives the pivot row a well-formed summary.
                    degradation.push(Degradation {
                        kind: DegradationKind::SingleUnitFallback,
                        pivot_value: Some(pivot_label.to_owned()),
                        reason: format!("all clustering fallbacks failed ({e})"),
                    });
                    let unit = IUnit::from_members(members.to_vec(), coded, &config.label);
                    return (Candidates::Done(vec![unit]), degradation, false);
                }
            },
        }
    }
}

/// What one clustering attempt produced.
enum Clustering {
    /// The non-empty clusters as **indices into `members`** (the
    /// representation the reuse cache stores, position-independent).
    Done(Vec<Vec<u32>>),
    /// A Lloyd run stopped after [`PAUSE_AFTER_PASSES`] passes.
    Paused(PackedLloyd),
}

/// One attempt at clustering a partition on a specific ladder rung.
///
/// Clusters on a [`PackedMatrix`] of dictionary codes — no per-tuple
/// one-hot vectors are materialized — bit-identical to the sparse one-hot
/// oracle in `dbex_cluster::oracle`. With `pause`, a Lloyd run over the
/// whole partition (no `cluster_sample` holdout) stops after its first
/// pass and comes back [`Clustering::Paused`].
#[allow(clippy::too_many_arguments)]
fn cluster_partition(
    members: &[usize],
    coded: &[&CodedColumn],
    l: usize,
    config: &CadConfig,
    kmeans_iters: usize,
    inner_threads: usize,
    rung: ClusterRung,
    pause: bool,
) -> Result<Clustering, dbex_cluster::ClusterError> {
    // Cluster a sample and assign the rest (Optimization 1). The sampled
    // rung forces a tiny cap regardless of configuration.
    let cap = match rung {
        ClusterRung::Sampled => Some(
            config
                .cluster_sample
                .unwrap_or(DEGRADED_SAMPLE_CAP)
                .min(DEGRADED_SAMPLE_CAP),
        ),
        _ => config.cluster_sample,
    };
    // Train/holdout split as member-list indices; positions are looked up
    // only where the encoders need them.
    let (train_idx, holdout_idx): (Vec<usize>, Vec<usize>) = match cap {
        Some(cap) if members.len() > cap => {
            // Deterministic stride sample over the member positions.
            let step = members.len() as f64 / cap as f64;
            let mut train = Vec::with_capacity(cap);
            let mut is_train = vec![false; members.len()];
            let mut pos = 0.0;
            while train.len() < cap {
                let idx = pos as usize;
                if idx >= members.len() {
                    break;
                }
                if !is_train[idx] {
                    is_train[idx] = true;
                    train.push(idx);
                }
                pos += step;
            }
            let holdout = (0..members.len()).filter(|&i| !is_train[i]).collect();
            (train, holdout)
        }
        _ => ((0..members.len()).collect(), Vec::new()),
    };
    let train_members: Vec<usize> = train_idx.iter().map(|&i| members[i]).collect();

    let matrix = PackedMatrix::from_columns(coded, &train_members)?;
    let km: KMeansResult = match rung {
        ClusterRung::MiniBatch => mini_batch_kmeans_packed(
            &matrix,
            &MiniBatchConfig {
                k: l,
                batch_size: 256,
                batches: kmeans_iters.max(1) * 3,
                seed: config.seed,
            },
        )?,
        _ => {
            let mut run = PackedLloyd::start(
                &matrix,
                &KMeansConfig {
                    k: l,
                    max_iters: kmeans_iters,
                    seed: config.seed,
                    plus_plus: config.plus_plus,
                    threads: inner_threads,
                },
            )?;
            if pause && holdout_idx.is_empty() {
                for _ in 0..PAUSE_AFTER_PASSES {
                    run.pass();
                }
                return Ok(Clustering::Paused(run));
            }
            run.finish()
        }
    };

    // Bucket every member (train + holdout) into its cluster.
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); km.centroids.len()];
    for (i, &mi) in train_idx.iter().enumerate() {
        if let Some(slot) = clusters.get_mut(km.assignments[i]) {
            slot.push(mi as u32);
        }
    }
    if !holdout_idx.is_empty() {
        let holdout_members: Vec<usize> = holdout_idx.iter().map(|&i| members[i]).collect();
        let assignments =
            assign_all_packed(&km, &PackedMatrix::from_columns(coded, &holdout_members)?);
        for (assignment, &mi) in assignments.iter().zip(&holdout_idx) {
            if let Some(slot) = clusters.get_mut(*assignment) {
                slot.push(mi as u32);
            }
        }
    }

    Ok(Clustering::Done(
        clusters.into_iter().filter(|c| !c.is_empty()).collect(),
    ))
}

/// A [`Preference`] resolved against the result schema, so applying it to
/// any partition is infallible (and thus safe to run on pool workers).
#[derive(Debug, Clone, Copy)]
enum PrefSpec {
    /// Keep the size-based scores IUnits are born with.
    ClusterSize,
    /// Score by the mean of a (validated numeric) column.
    Attribute { col: usize, ascending: bool },
}

/// Validates the preference function once, before the per-partition loop.
fn resolve_preference(
    result: &View<'_>,
    preference: &Preference,
) -> Result<PrefSpec, CadError> {
    match preference {
        Preference::ClusterSize => Ok(PrefSpec::ClusterSize),
        Preference::AttributeAsc(name) | Preference::AttributeDesc(name) => {
            let col = result.table().schema().index_of(name)?;
            if result.table().column(col).data_type() == DataType::Categorical {
                return Err(CadError::NonNumericPreference { attr: name.clone() });
            }
            Ok(PrefSpec::Attribute {
                col,
                ascending: matches!(preference, Preference::AttributeAsc(_)),
            })
        }
    }
}

/// Preference score per candidate IUnit, parallel to `units`.
fn preference_scores(units: &[IUnit], result: &View<'_>, pref: &PrefSpec) -> Vec<f64> {
    match *pref {
        PrefSpec::ClusterSize => units.iter().map(|u| u.score).collect(),
        PrefSpec::Attribute { col, ascending } => {
            let column = result.table().column(col);
            let means: Vec<f64> = units
                .iter()
                .map(|u| {
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for &pos in &u.members {
                        let row = result.row_ids()[pos] as usize;
                        if let Some(v) = column.get_f64(row) {
                            sum += v;
                            n += 1;
                        }
                    }
                    if n == 0 {
                        0.0
                    } else {
                        sum / n as f64
                    }
                })
                .collect();
            let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            means
                .into_iter()
                .map(|mean| {
                    if ascending {
                        hi - mean + 1.0
                    } else {
                        mean - lo + 1.0
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{Field, TableBuilder};

    /// A small car-like table with clear Make → (Engine, Price) structure.
    fn table() -> dbex_table::Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Engine", DataType::Categorical),
            Field::new("Price", DataType::Int),
            Field::new("Color", DataType::Categorical),
        ])
        .unwrap();
        // Ford: V6 around 25K and V4 around 15K; Jeep: V8 around 35K.
        for i in 0..60 {
            let color = ["Red", "Blue", "Black"][i % 3];
            if i % 2 == 0 {
                b.push_row(vec!["Ford".into(), "V6".into(), (25_000 + (i as i64 % 7) * 100).into(), color.into()]).unwrap();
            } else {
                b.push_row(vec!["Ford".into(), "V4".into(), (15_000 + (i as i64 % 7) * 100).into(), color.into()]).unwrap();
            }
            b.push_row(vec!["Jeep".into(), "V8".into(), (35_000 + (i as i64 % 5) * 100).into(), color.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builds_rows_per_pivot_value() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        assert_eq!(cad.rows.len(), 2);
        // Rows ordered by partition size desc: Jeep (60) then Ford (60)?
        // Equal sizes — both present regardless of order.
        let labels: Vec<&str> = cad.rows.iter().map(|r| r.pivot_label.as_str()).collect();
        assert!(labels.contains(&"Ford"));
        assert!(labels.contains(&"Jeep"));
        for row in &cad.rows {
            assert!(!row.iunits.is_empty());
            assert!(row.iunits.len() <= 2);
        }
    }

    #[test]
    fn engine_selected_as_compare_attribute() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert!(
            cad.compare_names.iter().any(|n| n == "Engine"),
            "Engine strongly contrasts Makes: {:?}",
            cad.compare_names
        );
        // Color is independent of Make and should not be selected.
        assert!(
            !cad.compare_names.iter().any(|n| n == "Color"),
            "{:?}",
            cad.compare_names
        );
    }

    #[test]
    fn explicit_pivot_values_and_order() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_pivot_values(vec!["Jeep", "Ford"]),
        )
        .unwrap();
        assert_eq!(cad.rows[0].pivot_label, "Jeep");
        assert_eq!(cad.rows[1].pivot_label, "Ford");
    }

    #[test]
    fn unknown_pivot_value_rejected() {
        let t = table();
        let view = t.full_view();
        let err = build_cad_view(
            &view,
            &CadRequest::new("Make").with_pivot_values(vec!["Tesla"]),
        );
        assert!(err.is_err());
    }

    #[test]
    fn numeric_pivot_binned_into_ranges() {
        // Numeric pivots are supported by discretization: bins become the
        // pivot values, in natural numeric order.
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Price").with_iunits(2)).unwrap();
        assert!(cad.rows.len() >= 2);
        for row in &cad.rows {
            assert!(row.pivot_label.contains('-'), "bin label: {}", row.pivot_label);
        }
        // Engine contrasts price ranges strongly (V4 cheap, V8 expensive).
        assert!(cad.compare_names.iter().any(|n| n == "Engine"));
        // Unknown attributes still error.
        assert!(build_cad_view(&view, &CadRequest::new("Nope")).is_err());
    }

    #[test]
    fn forced_compare_attribute_included() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_compare(vec!["Color"]),
        )
        .unwrap();
        assert_eq!(cad.compare_names[0], "Color");
    }

    #[test]
    fn ford_iunits_separate_v4_and_v6() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        let ford = cad.row("Ford").unwrap();
        let engine_pos = cad
            .compare_names
            .iter()
            .position(|n| n == "Engine")
            .unwrap();
        let labels: Vec<String> = ford
            .iunits
            .iter()
            .map(|u| u.labels[engine_pos].join(","))
            .collect();
        assert!(
            labels.iter().any(|l| l.contains("V6")) && labels.iter().any(|l| l.contains("V4")),
            "expected V4 and V6 IUnits, got {labels:?}"
        );
    }

    #[test]
    fn preference_by_price_ascending() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_iunits(2)
                .with_pivot_values(vec!["Ford"])
                .with_preference(Preference::AttributeAsc("Price".into())),
        )
        .unwrap();
        let ford = &cad.rows[0];
        // First IUnit should be the cheap (V4 ≈ 15K) cluster.
        let price_pos = cad.compare_names.iter().position(|n| n == "Price");
        let engine_pos = cad.compare_names.iter().position(|n| n == "Engine").unwrap();
        assert!(price_pos.is_some() || engine_pos < usize::MAX);
        assert!(
            ford.iunits[0].labels[engine_pos].contains(&"V4".to_string()),
            "cheapest cluster first: {:?}",
            ford.iunits[0].labels
        );
    }

    #[test]
    fn categorical_preference_attribute_rejected() {
        let t = table();
        let view = t.full_view();
        let err = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_preference(Preference::AttributeAsc("Color".into())),
        );
        assert!(err.is_err());
    }

    #[test]
    fn timings_populated() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert!(cad.timings.total() > Duration::ZERO);
    }

    #[test]
    fn optimized_config_gives_same_shape() {
        let t = table();
        let view = t.full_view();
        let base = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        let opt = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_iunits(2)
                .with_config(CadConfig::optimized()),
        )
        .unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        assert_eq!(base.compare_names, opt.compare_names);
    }

    #[test]
    fn sampled_clustering_covers_every_member() {
        // With cluster_sample smaller than the partition, holdout rows are
        // assigned to learned centroids — IUnit sizes must still cover the
        // entire partition.
        let t = table();
        let view = t.full_view();
        let config = CadConfig {
            cluster_sample: Some(10),
            ..CadConfig::default()
        };
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_pivot_values(vec!["Ford"])
                .with_iunits(2)
                .with_config(config),
        )
        .unwrap();
        let covered: usize = cad.rows[0].iunits.iter().map(|u| u.size).sum();
        let ford_rows = t
            .filter(&dbex_table::Predicate::eq("Make", "Ford"))
            .unwrap()
            .len();
        // Diversified top-k may drop a candidate cluster, but with k=2 and
        // two real clusters everything should be covered here.
        assert_eq!(covered, ford_rows);
    }

    #[test]
    fn adaptive_candidates_clamp_l() {
        // Partition below the threshold: adaptive config behaves like the
        // default (this exercises the flag path; the threshold behavior at
        // >10K rows is covered by the fig9/opt benches).
        let t = table();
        let view = t.full_view();
        let adaptive = build_cad_view(
            &view,
            &CadRequest::new("Make").with_config(CadConfig {
                adaptive_iunits: true,
                ..CadConfig::default()
            }),
        )
        .unwrap();
        let normal = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert_eq!(adaptive.rows.len(), normal.rows.len());
    }

    /// Everything observable about a view, rendered to one comparable string.
    fn view_digest(cad: &CadView) -> String {
        let mut out = format!(
            "pivot={} compare={:?} k={} tau={}\n",
            cad.pivot_name, cad.compare_names, cad.k, cad.tau
        );
        for s in &cad.feature_scores {
            out.push_str(&format!(
                "score {} {} {}\n",
                s.attr_index,
                s.statistic.to_bits(),
                s.p_value.to_bits()
            ));
        }
        for row in &cad.rows {
            out.push_str(&format!("row {} {}\n", row.pivot_code, row.pivot_label));
            for u in &row.iunits {
                out.push_str(&format!(
                    "  iunit size={} score={} labels={:?} members={:?}\n",
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

    #[test]
    fn parallel_build_matches_sequential_exactly() {
        let t = table();
        let view = t.full_view();
        let request = |threads: usize| {
            CadRequest::new("Make").with_iunits(2).with_config(CadConfig {
                threads,
                ..CadConfig::default()
            })
        };
        let sequential = build_cad_view(&view, &request(1)).unwrap();
        assert_eq!(sequential.threads_used, 1);
        for threads in [2, 4, 8] {
            let parallel = build_cad_view(&view, &request(threads)).unwrap();
            assert_eq!(parallel.threads_used, threads);
            assert_eq!(
                view_digest(&parallel),
                view_digest(&sequential),
                "{threads}-thread build diverged from sequential"
            );
        }
    }

    #[test]
    fn cached_build_matches_uncached_exactly() {
        let t = table();
        let view = t.full_view();
        let request = CadRequest::new("Make").with_iunits(2);
        let uncached = build_cad_view(&view, &request).unwrap();
        let cache = dbex_stats::StatsCache::new();
        let first = build_cad_view_cached(&view, &request, Some(&cache)).unwrap();
        let second = build_cad_view_cached(&view, &request, Some(&cache)).unwrap();
        assert_eq!(view_digest(&first), view_digest(&uncached));
        assert_eq!(view_digest(&second), view_digest(&uncached));
        let stats = cache.stats();
        assert!(stats.hits > 0, "second build should hit the cache: {stats}");
    }

    #[test]
    fn paused_build_finishes_like_an_unpaused_one() {
        let t = table();
        let view = t.full_view();
        let tracer = Tracer::disabled();
        for threads in [1, 4] {
            let request = CadRequest::new("Make")
                .with_iunits(2)
                .with_config(CadConfig {
                    threads,
                    ..CadConfig::default()
                });
            let straight = view_digest(&build_cad_view(&view, &request).unwrap());
            let cache = StatsCache::new();
            let build =
                CadBuild::start(&view, &request, Some(&cache), None, &tracer, true).unwrap();
            assert!(build.is_paused());
            build.preview(&view).unwrap();
            let resumed = build.finish(&view, Some(&cache)).unwrap();
            assert_eq!(view_digest(&resumed), straight, "{threads} threads");
            // Both partitions are cached now: nothing pauses, and the
            // preview already is the exact view.
            let again =
                CadBuild::start(&view, &request, Some(&cache), None, &tracer, true).unwrap();
            assert!(!again.is_paused());
            assert_eq!(view_digest(&again.preview(&view).unwrap()), straight);
        }
    }

    #[test]
    fn parallel_build_still_degrades_under_budget() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        let t = table();
        let view = t.full_view();
        let clock = Arc::new(AtomicU64::new(500));
        let request = CadRequest::new("Make")
            .with_iunits(2)
            .with_config(CadConfig {
                threads: 4,
                ..CadConfig::default()
            })
            .with_budget(
                ExecBudget::unlimited()
                    .with_time_limit(Duration::ZERO)
                    .with_manual_clock(clock),
            );
        let cad = build_cad_view(&view, &request).unwrap();
        assert!(cad.is_degraded(), "zero deadline must degrade");
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::SampledClustering),
            "{:?}",
            cad.degradation
        );
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::GreedyTopK),
            "{:?}",
            cad.degradation
        );
    }

    #[test]
    fn rows_are_charged_against_the_gauge() {
        // charge_rows totals the partition sizes regardless of threading;
        // exercised indirectly here by just ensuring a build completes with
        // an auto thread count (0 resolves via DBEX_THREADS / hardware).
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_config(CadConfig {
                threads: 0,
                ..CadConfig::default()
            }),
        )
        .unwrap();
        assert!(cad.threads_used >= 1);
    }

    #[test]
    fn empty_result_rejected() {
        let t = table();
        let empty = t
            .filter(&dbex_table::Predicate::eq("Make", "Tesla"))
            .unwrap();
        assert!(build_cad_view(&empty, &CadRequest::new("Make")).is_err());
    }
}
