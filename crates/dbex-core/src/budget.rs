//! Execution budgets and graceful degradation (robustness layer).
//!
//! The paper's interactivity target (Section 6: CAD Views over 40K-row
//! result sets in well under a second) is reframed here as an explicit
//! [`ExecBudget`]: a row limit, a wall-clock deadline, and a k-means
//! iteration cap carried through `build_cad_view`, clustering, and the
//! diversified top-k stage. When a budget is exhausted the pipeline does
//! not fail — it *degrades*: full k-means falls back to mini-batch, then
//! to a sampled build, and every shortcut taken is recorded as a
//! [`Degradation`] on the finished `CadView` so `EXPLAIN CADVIEW` and the
//! REPL can surface exactly what was traded away.
//!
//! Deadlines are measured against an injectable [`ClockSource`] so tests
//! can exhaust the budget deterministically without sleeping.
//!
//! # Thread safety
//!
//! A [`BudgetGauge`] is shared by reference across `dbex_par::par_map`
//! workers when `CadConfig::threads > 1`. Every check reads immutable
//! state or atomics: `time_exhausted` reads the clock, `rows_exhausted`
//! compares its argument against a fixed limit, and the cumulative
//! row-accounting counter ([`BudgetGauge::charge_rows`] /
//! [`BudgetGauge::rows_spent`]) is an `AtomicU64`. Degradation *decisions*
//! deliberately depend only on per-partition quantities (a partition's own
//! size, the monotone clock) — never on the cumulative counter — so the
//! ladder fires identically regardless of the order in which workers
//! happen to run.
//!
//! The gauge owns a clone of its budget (the clock and cancel flag are
//! shared `Arc`s), so a build that pauses between calls — a streamed
//! preview followed by the exact answer — keeps measuring against the
//! same deadline and cancel flag.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a [`BudgetGauge`] reads time from.
#[derive(Debug, Clone, Default)]
pub enum ClockSource {
    /// Real wall-clock time (`Instant::now`).
    #[default]
    System,
    /// A test-controlled clock: the atomic holds "now" in milliseconds.
    Manual(Arc<AtomicU64>),
}

/// Resource limits for one CAD View build.
///
/// All limits are optional; [`ExecBudget::unlimited`] (the default) never
/// triggers degradation.
#[derive(Debug, Clone, Default)]
pub struct ExecBudget {
    /// Partitions larger than this are clustered with mini-batch k-means
    /// instead of full Lloyd iterations.
    pub max_rows: Option<usize>,
    /// Wall-clock deadline for the whole build. Once past it, remaining
    /// work switches to sampled builds and greedy top-k.
    pub time_limit: Option<Duration>,
    /// Hard cap on k-means iterations, clamping `CadConfig::kmeans_iters`.
    pub max_kmeans_iters: Option<usize>,
    /// Clock the deadline is measured against.
    pub clock: ClockSource,
    /// Cooperative cancellation: once the flag flips `true` the gauge
    /// reports the deadline as exhausted at every check, collapsing the
    /// remaining work onto the cheapest degradation rungs so the build
    /// finishes (degraded, never failed) as fast as possible. `dbex-serve`
    /// arms one flag per connection and fires it when the client
    /// disconnects mid-request.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExecBudget {
    /// No limits: the pipeline never degrades.
    pub fn unlimited() -> ExecBudget {
        ExecBudget::default()
    }

    /// Sets the per-partition row limit.
    pub fn with_max_rows(mut self, rows: usize) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Caps k-means iterations.
    pub fn with_kmeans_iters(mut self, iters: usize) -> Self {
        self.max_kmeans_iters = Some(iters);
        self
    }

    /// Measures the deadline against a manually advanced clock
    /// (milliseconds in the atomic). Testing only.
    pub fn with_manual_clock(mut self, clock: Arc<AtomicU64>) -> Self {
        self.clock = ClockSource::Manual(clock);
        self
    }

    /// Arms a cooperative cancellation flag (see the field docs): flipping
    /// it to `true` makes every deadline check report exhaustion.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no limit is set. An armed (but unfired) cancellation flag
    /// does not make a budget limited — it constrains nothing until fired.
    pub fn is_unlimited(&self) -> bool {
        self.max_rows.is_none() && self.time_limit.is_none() && self.max_kmeans_iters.is_none()
    }

    /// Starts measuring: captures "now" on the configured clock.
    pub fn start(&self) -> BudgetGauge {
        let manual_start = match &self.clock {
            ClockSource::Manual(ms) => ms.load(Ordering::Relaxed),
            ClockSource::System => 0,
        };
        BudgetGauge {
            budget: self.clone(),
            started: Instant::now(),
            manual_start,
            rows_spent: AtomicU64::new(0),
        }
    }
}

/// A running measurement of one build against its [`ExecBudget`].
///
/// Safe to share by `&` across worker threads — see the module docs.
#[derive(Debug)]
pub struct BudgetGauge {
    budget: ExecBudget,
    started: Instant,
    manual_start: u64,
    rows_spent: AtomicU64,
}

impl BudgetGauge {
    /// Time elapsed since [`ExecBudget::start`], on the configured clock.
    pub fn elapsed(&self) -> Duration {
        match &self.budget.clock {
            ClockSource::System => self.started.elapsed(),
            ClockSource::Manual(ms) => {
                Duration::from_millis(ms.load(Ordering::Relaxed).saturating_sub(self.manual_start))
            }
        }
    }

    /// True once the build has been cancelled (see
    /// [`ExecBudget::with_cancel_flag`]).
    pub fn cancelled(&self) -> bool {
        self.budget
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// True once the wall-clock deadline has passed — or the build was
    /// cancelled, which the ladder treats as an already-expired deadline.
    pub fn time_exhausted(&self) -> bool {
        self.cancelled()
            || self
                .budget
                .time_limit
                .is_some_and(|limit| self.elapsed() >= limit)
    }

    /// True when `rows` exceeds the row limit.
    pub fn rows_exhausted(&self, rows: usize) -> bool {
        self.budget.max_rows.is_some_and(|max| rows > max)
    }

    /// Records `rows` rows of work against the gauge. Atomic, so pool
    /// workers can charge concurrently; the final total is deterministic
    /// (a sum) even though the interleaving is not.
    pub fn charge_rows(&self, rows: usize) {
        self.rows_spent.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Total rows charged so far via [`Self::charge_rows`]. Diagnostic
    /// accounting only — degradation decisions never read this (see the
    /// module docs on thread safety).
    pub fn rows_spent(&self) -> u64 {
        self.rows_spent.load(Ordering::Relaxed)
    }

    /// Clamps a requested k-means iteration count to the budget cap.
    pub fn clamp_iters(&self, requested: usize) -> usize {
        match self.budget.max_kmeans_iters {
            Some(max) => requested.min(max.max(1)),
            None => requested,
        }
    }

    /// The budget being measured.
    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }
}

/// What kind of shortcut the pipeline took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// Feature selection ran on a sample instead of the full result set.
    SampledFeatureSelection,
    /// A partition was clustered with mini-batch k-means.
    MiniBatchClustering,
    /// A partition was clustered on a small sample, remainder assigned to
    /// the learned centroids.
    SampledClustering,
    /// Clustering failed entirely; the partition became one catch-all IUnit.
    SingleUnitFallback,
    /// Diversified top-k used the greedy heuristic instead of div-astar.
    GreedyTopK,
    /// k-means iterations were clamped below the configured count.
    ClampedKMeansIters,
}

impl DegradationKind {
    /// Short stable label used in `EXPLAIN CADVIEW` output.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationKind::SampledFeatureSelection => "sampled-feature-selection",
            DegradationKind::MiniBatchClustering => "mini-batch-clustering",
            DegradationKind::SampledClustering => "sampled-clustering",
            DegradationKind::SingleUnitFallback => "single-unit-fallback",
            DegradationKind::GreedyTopK => "greedy-top-k",
            DegradationKind::ClampedKMeansIters => "clamped-kmeans-iters",
        }
    }

    /// Fidelity loss on a 1-4 scale (the observability layer reports the
    /// maximum over a build as its `degradation_level`; 0 = full
    /// fidelity). Higher means further down the ladder:
    ///
    /// 1. sampling/clamping that the paper's own optimizations also use,
    /// 2. mini-batch clustering,
    /// 3. emergency sampling / greedy top-k under an exhausted deadline,
    /// 4. the single-unit fallback (no clustering at all).
    pub fn severity(&self) -> u64 {
        match self {
            DegradationKind::SampledFeatureSelection
            | DegradationKind::ClampedKMeansIters => 1,
            DegradationKind::MiniBatchClustering => 2,
            DegradationKind::SampledClustering | DegradationKind::GreedyTopK => 3,
            DegradationKind::SingleUnitFallback => 4,
        }
    }
}

/// One recorded shortcut: what degraded, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The kind of shortcut.
    pub kind: DegradationKind,
    /// Pivot value it applied to, when partition-scoped.
    pub pivot_value: Option<String>,
    /// Human-readable cause ("time budget exhausted after 120ms", ...).
    pub reason: String,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.pivot_value {
            Some(v) => write!(f, "{} [pivot {v}]: {}", self.kind.label(), self.reason),
            None => write!(f, "{}: {}", self.kind.label(), self.reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let budget = ExecBudget::unlimited();
        assert!(budget.is_unlimited());
        let gauge = budget.start();
        assert!(!gauge.time_exhausted());
        assert!(!gauge.rows_exhausted(usize::MAX));
        assert_eq!(gauge.clamp_iters(77), 77);
    }

    #[test]
    fn manual_clock_drives_deadline() {
        let clock = Arc::new(AtomicU64::new(1_000));
        let budget = ExecBudget::unlimited()
            .with_time_limit(Duration::from_millis(50))
            .with_manual_clock(clock.clone());
        let gauge = budget.start();
        assert!(!gauge.time_exhausted());
        clock.store(1_049, Ordering::Relaxed);
        assert!(!gauge.time_exhausted());
        clock.store(1_050, Ordering::Relaxed);
        assert!(gauge.time_exhausted());
        assert_eq!(gauge.elapsed(), Duration::from_millis(50));
    }

    #[test]
    fn cancellation_reads_as_an_expired_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = ExecBudget::unlimited().with_cancel_flag(flag.clone());
        // Arming alone limits nothing.
        assert!(budget.is_unlimited());
        let gauge = budget.start();
        assert!(!gauge.cancelled());
        assert!(!gauge.time_exhausted());
        flag.store(true, Ordering::Relaxed);
        assert!(gauge.cancelled());
        assert!(gauge.time_exhausted(), "cancel fires every deadline check");
        // Row and iteration limits are unaffected by cancellation.
        assert!(!gauge.rows_exhausted(usize::MAX));
        assert_eq!(gauge.clamp_iters(9), 9);
    }

    #[test]
    fn row_and_iteration_limits() {
        let budget = ExecBudget::unlimited().with_max_rows(100).with_kmeans_iters(5);
        let gauge = budget.start();
        assert!(!gauge.rows_exhausted(100));
        assert!(gauge.rows_exhausted(101));
        assert_eq!(gauge.clamp_iters(20), 5);
        assert_eq!(gauge.clamp_iters(3), 3);
    }

    #[test]
    fn rows_charged_concurrently_sum_exactly() {
        let budget = ExecBudget::unlimited();
        let gauge = budget.start();
        assert_eq!(gauge.rows_spent(), 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        gauge.charge_rows(3);
                    }
                });
            }
        });
        assert_eq!(gauge.rows_spent(), 12_000);
    }

    #[test]
    fn degradation_renders_with_pivot() {
        let d = Degradation {
            kind: DegradationKind::MiniBatchClustering,
            pivot_value: Some("Ford".into()),
            reason: "partition has 5000 rows over the 1000-row budget".into(),
        };
        let s = d.to_string();
        assert!(s.contains("mini-batch-clustering"));
        assert!(s.contains("Ford"));
        assert!(s.contains("5000 rows"));
    }
}
