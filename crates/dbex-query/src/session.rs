//! Session: a catalog of tables plus named CAD Views, executing parsed
//! statements.

use crate::ast::*;
use crate::error::{CaughtPanic, QueryError, SessionError};
use crate::parser::{parse, parse_predicate};
use dbex_core::{
    build_cad_view_traced, CadBuild, CadConfig, CadRequest, CadView, ExecBudget, Preference,
    StatsCache, Tracer,
};
use dbex_obs::TraceSink;
use dbex_stats::FilteredResult;
use dbex_suggest::{CompletionMode, SuggestConfig, SuggestError};
use dbex_table::{group_by, sort_view, Predicate, SortKey, Table, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};

/// Session-local result alias.
type Result<T> = std::result::Result<T, QueryError>;

/// The result of executing one statement.
#[derive(Debug)]
pub enum QueryOutput {
    /// Rows from a `SELECT`: header + materialized values.
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// Row values, in result order.
        rows: Vec<Vec<Value>>,
    },
    /// A created CAD View (also stored in the session under its name).
    Cad {
        /// The view's name.
        name: String,
        /// Rendered ASCII table (Table-1 style).
        rendered: String,
        /// Rendered [`dbex_core::Degradation`] records, one per shortcut
        /// the builder took under budget pressure (empty = full fidelity).
        degradation: Vec<String>,
        /// Rendered span tree of the build when the session's tracing is
        /// on (see [`Session::set_tracing`]); `None` otherwise.
        trace: Option<String>,
    },
    /// `HIGHLIGHT SIMILAR IUNITS` hits: `(pivot value, 1-based IUnit id,
    /// similarity)`.
    Highlights(Vec<(String, usize, f64)>),
    /// `REORDER ROWS` result: pivot values by decreasing similarity (i.e.
    /// increasing Algorithm-2 distance) to the reference.
    Reordered(Vec<(String, f64)>),
    /// Free-form text output (`DESCRIBE`, `EXPLAIN CADVIEW`).
    Text(String),
    /// `SUGGEST` ranking: a headline plus `(text, score, annotation)`
    /// entries, best first. Scores render with fixed `{:.4}` precision so
    /// the output is byte-identical at any thread count.
    Suggestions {
        /// Headline describing what was ranked.
        title: String,
        /// Ranked entries: completion/attribute text, score, annotation.
        items: Vec<(String, f64, String)>,
    },
}

impl QueryOutput {
    /// Renders the output exactly as the interactive shell prints it (the
    /// wire server ships this same text, so a `--connect` client and the
    /// local REPL are byte-identical).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            QueryOutput::Rows { columns, rows } => {
                // Column widths over header + up to 40 shown rows.
                let shown = rows.len().min(40);
                let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
                let cells: Vec<Vec<String>> = rows[..shown]
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_string()).collect())
                    .collect();
                for row in &cells {
                    for (w, cell) in widths.iter_mut().zip(row) {
                        *w = (*w).max(cell.len());
                    }
                }
                let print_row = |out: &mut String, cells: &[String]| {
                    let line: Vec<String> = cells
                        .iter()
                        .zip(&widths)
                        .map(|(c, w)| format!("{c:<w$}"))
                        .collect();
                    let _ = writeln!(out, "| {} |", line.join(" | "));
                };
                print_row(&mut out, columns);
                let _ = writeln!(
                    out,
                    "|{}|",
                    widths
                        .iter()
                        .map(|w| "-".repeat(w + 2))
                        .collect::<Vec<_>>()
                        .join("|")
                );
                for row in &cells {
                    print_row(&mut out, row);
                }
                if rows.len() > shown {
                    let _ = writeln!(out, "... ({} rows total)", rows.len());
                }
            }
            QueryOutput::Cad {
                name,
                rendered,
                degradation,
                trace,
            } => {
                let _ = writeln!(out, "CAD View {name}:");
                let _ = writeln!(out, "{rendered}");
                if let Some(trace) = trace {
                    let _ = writeln!(out, "trace (per-phase spans):");
                    for line in trace.lines() {
                        let _ = writeln!(out, "  {line}");
                    }
                }
                for d in degradation {
                    let _ = writeln!(out, "warning: degraded build: {d}");
                }
            }
            QueryOutput::Highlights(hits) => {
                if hits.is_empty() {
                    let _ = writeln!(out, "(no IUnits above the threshold)");
                }
                for (value, id, sim) in hits {
                    let _ = writeln!(out, "{value} IUnit {id}: similarity {sim:.2}");
                }
            }
            QueryOutput::Reordered(order) => {
                for (value, distance) in order {
                    let _ = writeln!(out, "{value} (distance {distance})");
                }
            }
            QueryOutput::Text(text) => {
                let _ = writeln!(out, "{text}");
            }
            QueryOutput::Suggestions { title, items } => {
                let _ = writeln!(out, "{title}");
                if items.is_empty() {
                    let _ = writeln!(out, "  (no suggestions)");
                }
                let width = items.iter().map(|(t, _, _)| t.len()).max().unwrap_or(0);
                for (i, (text, score, detail)) in items.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  {}. {:<width$}  score {:.4}  {}",
                        i + 1,
                        text,
                        score,
                        detail
                    );
                }
            }
        }
        out
    }
}

/// A concurrency-safe table catalog shared by every server session.
///
/// Tables are immutable once registered, so the catalog hands out
/// [`Arc<Table>`] clones: a reader keeps its table alive (and its
/// [`dbex_table::Table::id`]-based cache keys valid) even if another
/// session re-registers the name mid-query. The `RwLock` is held only for
/// the map probe — never across a build.
#[derive(Debug, Default)]
pub struct SharedCatalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// Bumped on every mutation; snapshot code compares it against the
    /// version it last persisted to decide whether the catalog is dirty.
    version: std::sync::atomic::AtomicU64,
}

/// Locks, recovering from poisoning: the map holds `Arc`s that are only
/// inserted or removed whole, so a panicking writer cannot leave a
/// half-written entry.
fn read_catalog(
    lock: &RwLock<HashMap<String, Arc<Table>>>,
) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Table>>> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SharedCatalog {
    /// Creates an empty catalog.
    pub fn new() -> SharedCatalog {
        SharedCatalog::default()
    }

    /// Registers `table` under `name` (replacing any previous table).
    /// Sessions already holding the old `Arc` keep it until their
    /// statement finishes.
    pub fn insert(&self, name: impl Into<String>, table: Arc<Table>) {
        self.tables
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(name.into(), table);
        self.version.fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Monotonic mutation counter. Two equal readings with no mutation in
    /// between guarantee the catalog contents are unchanged.
    pub fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Acquire)
    }

    /// All registered tables, sorted by name — the unit a snapshot saves.
    pub fn snapshot(&self) -> Vec<(String, Arc<Table>)> {
        let mut tables: Vec<(String, Arc<Table>)> = read_catalog(&self.tables)
            .iter()
            .map(|(name, table)| (name.clone(), Arc::clone(table)))
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        tables
    }

    /// The table registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        read_catalog(&self.tables).get(name).map(Arc::clone)
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_catalog(&self.tables).keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        read_catalog(&self.tables).len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A streamed `CREATE CADVIEW`'s build, paused after its preview frame,
/// with the statement it answers and the result it was built over.
struct PausedCad {
    stmt: CadViewStmt,
    result: Arc<FilteredResult>,
    build: CadBuild,
}

/// An interactive session over registered tables.
#[derive(Default)]
pub struct Session {
    tables: HashMap<String, Arc<Table>>,
    /// Fallback lookup for names not registered locally: the process-wide
    /// catalog a `dbex-serve` connection shares with every other session.
    catalog: Option<Arc<SharedCatalog>>,
    cad_views: HashMap<String, CadView>,
    /// Source context of each stored CAD View — `(table, predicate)` from
    /// its `CREATE CADVIEW` statement. [`CadView`] itself only keeps the
    /// summarized result, but `SUGGEST NEXT FOR view` must re-derive the
    /// *current refined result set* the view was built over.
    view_contexts: HashMap<String, (String, Predicate)>,
    budget: ExecBudget,
    /// Worker threads for CAD View builds: `1` = sequential (default),
    /// `0` = auto (`DBEX_THREADS` / hardware parallelism).
    threads: Option<usize>,
    /// Memoized codecs, contingency scores and cluster solutions shared
    /// by every CAD build and `SUGGEST` in this session, and by every
    /// session of a server (keyed on view fingerprints, so table or
    /// predicate changes invalidate implicitly).
    stats_cache: Arc<StatsCache>,
    /// When set, every CAD build is traced and the rendered span tree is
    /// attached to [`QueryOutput::Cad`].
    tracing: bool,
    /// Optional sink receiving the span tree of every traced build.
    trace_sink: Option<Arc<dyn TraceSink>>,
    /// Set when a table is (re-)registered after the last `.save`, so the
    /// REPL can warn about unsaved catalog changes.
    catalog_dirty: bool,
    /// The latest filtered result, pinned for the statements that follow
    /// it over the same table and predicate — a CAD preview and its exact
    /// build, `SUGGEST` on the view just built, a pivot change — whether
    /// or not the stats cache's result cache keeps it.
    pinned: Option<Arc<FilteredResult>>,
    /// The build [`Session::preview_create_cadview`] paused. The next
    /// statement takes it: the same `CREATE CADVIEW`, filtering to the
    /// same result, finishes it; any other statement drops it, as do a
    /// caught panic and every setter that could change its answer or its
    /// trace (budget, threads, catalog, cache, tracing).
    paused_cad: Option<PausedCad>,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Registers `table` under `name` (replacing any previous table).
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) {
        self.register_shared(name, Arc::new(table));
    }

    /// Registers an already-shared table under `name` — the `dbex-serve`
    /// path, where every session holds the same `Arc` so cache keys (which
    /// embed [`dbex_table::Table::id`]) agree across connections.
    pub fn register_shared(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.tables.insert(name.into(), table);
        self.catalog_dirty = true;
        dbex_obs::gauge!("session.tables").set(self.tables.len() as i64);
    }

    /// Locally registered tables, sorted by name — what `.save <dir>`
    /// snapshots. Catalog-shadowed tables belong to the server's own
    /// snapshot cycle, not the session's.
    pub fn tables_snapshot(&self) -> Vec<(String, Arc<Table>)> {
        let mut tables: Vec<(String, Arc<Table>)> = self
            .tables
            .iter()
            .map(|(name, table)| (name.clone(), Arc::clone(table)))
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        tables
    }

    /// Whether a table has been (re-)registered since the last
    /// [`Session::mark_catalog_saved`].
    pub fn catalog_dirty(&self) -> bool {
        self.catalog_dirty
    }

    /// Records that the current catalog has been persisted.
    pub fn mark_catalog_saved(&mut self) {
        self.catalog_dirty = false;
    }

    /// Attaches (or with `None` detaches) a shared catalog consulted for
    /// table names not registered locally. Local registrations shadow the
    /// catalog.
    pub fn set_catalog(&mut self, catalog: Option<Arc<SharedCatalog>>) {
        self.paused_cad = None;
        self.catalog = catalog;
    }

    /// Replaces the session's statistics cache — the `dbex-serve` path
    /// installs one process-wide cache into every connection's session so
    /// builds warm each other across clients.
    pub fn set_stats_cache(&mut self, cache: Arc<StatsCache>) {
        self.paused_cad = None;
        self.stats_cache = cache;
    }

    /// Turns per-build span tracing on or off. While on, every CAD build
    /// records the span tree, attaches its rendering to
    /// [`QueryOutput::Cad`], and forwards it to the trace sink (if any).
    /// `EXPLAIN ANALYZE` traces its build regardless of this flag.
    pub fn set_tracing(&mut self, on: bool) {
        self.paused_cad = None;
        self.tracing = on;
    }

    /// Whether per-build span tracing is on.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs (or, with `None`, removes) a sink receiving the span tree
    /// of every traced build. Installing a sink implies tracing for CAD
    /// builds even when [`Session::set_tracing`] is off.
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.paused_cad = None;
        self.trace_sink = sink;
    }

    /// Sets the execution budget applied to every CAD View build. The
    /// default is [`ExecBudget::unlimited`].
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.paused_cad = None;
        self.budget = budget;
    }

    /// The session's execution budget.
    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }

    /// Sets the worker-thread count for CAD View builds: `1` = sequential,
    /// `0` = auto (`DBEX_THREADS` env, else hardware parallelism). Output
    /// is byte-identical for any setting at a fixed seed.
    pub fn set_threads(&mut self, threads: usize) {
        self.paused_cad = None;
        self.threads = Some(threads);
    }

    /// The configured thread count (`None` = builder default, sequential).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The session's shared statistics cache (codecs, contingency scores
    /// and cluster solutions), for diagnostics.
    pub fn stats_cache(&self) -> &StatsCache {
        &self.stats_cache
    }

    /// A registered table: session-local names first, then the shared
    /// catalog (if attached). Returns a clone of the `Arc`, so the table
    /// stays alive for the whole statement even if another session
    /// re-registers the name concurrently.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .map(Arc::clone)
            .or_else(|| self.catalog.as_ref().and_then(|c| c.get(name)))
            .ok_or_else(|| {
                SessionError::UnknownTable {
                    name: name.to_owned(),
                }
                .into()
            })
    }

    /// A stored CAD View.
    pub fn cad_view(&self, name: &str) -> Result<&CadView> {
        self.cad_views.get(name).ok_or_else(|| {
            SessionError::UnknownCadView {
                name: name.to_owned(),
            }
            .into()
        })
    }

    /// Parses and executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput> {
        match parse(sql) {
            Ok(stmt) => self.execute_statement(stmt),
            Err(e) => {
                self.paused_cad = None;
                Err(e.into())
            }
        }
    }

    /// Executes a multi-statement script: statements separated by `;`
    /// (semicolons inside single-quoted strings are respected). Empty
    /// statements are skipped. Stops at the first error.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<QueryOutput>> {
        let mut outputs = Vec::new();
        for stmt in split_statements(script) {
            if stmt.trim().is_empty() {
                continue;
            }
            outputs.push(self.execute(&stmt)?);
        }
        Ok(outputs)
    }

    /// Executes an already-parsed statement.
    ///
    /// This is a hard panic boundary: a panic anywhere below (a bug, not a
    /// user error) is caught, converted into [`QueryError::Panicked`], and
    /// any CAD View the statement may have left half-mutated is dropped,
    /// so the shell or a server loop survives every input. The statement
    /// takes the build a preview paused, finishing or dropping it.
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<QueryOutput> {
        dbex_obs::counter!("query.statements").incr(1);
        // CREATE CADVIEW inserts atomically at the end, but REORDER
        // mutates a stored view in place — if it panics midway the view
        // is poisoned and must not be served again.
        let at_risk: Option<String> = match &stmt {
            Statement::Reorder(r) => Some(r.view.clone()),
            _ => None,
        };
        let paused = self.paused_cad.take();
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(stmt, paused))) {
            Ok(result) => result,
            Err(payload) => {
                if let Some(name) = at_risk {
                    self.cad_views.remove(&name);
                }
                self.pinned = None;
                Err(QueryError::Panicked(CaughtPanic::from_payload(&*payload)))
            }
        }
    }

    /// `table_name` filtered by `predicate`. Every statement that filters a
    /// table by a WHERE clause comes through here: the session's pinned
    /// result when it is that table `Arc` and an identical predicate, else
    /// the stats cache's result cache, which filters on a miss. Either way
    /// the result — rows and coded attributes — becomes the pin.
    fn filtered(&mut self, table_name: &str, predicate: &Predicate) -> Result<Arc<FilteredResult>> {
        let table = self.table(table_name)?;
        if let Some(pinned) = self.pinned.as_ref().filter(|p| p.is_of(&table, predicate)) {
            dbex_obs::counter!("query.result_memo.hits").incr(1);
            return Ok(Arc::clone(pinned));
        }
        self.pinned = None;
        // The CAD default binning, which SUGGEST shares.
        let CadConfig { bins, strategy, .. } = CadConfig::default();
        let result = self.stats_cache.result_with(&table, predicate, || {
            FilteredResult::filter(Arc::clone(&table), predicate, bins, strategy)
        })?;
        self.pinned = Some(Arc::clone(&result));
        Ok(result)
    }

    fn dispatch(&mut self, stmt: Statement, paused: Option<PausedCad>) -> Result<QueryOutput> {
        match stmt {
            Statement::Select(s) => self.run_select(s),
            Statement::CreateCadView(c) => self.run_create_cadview(c, paused),
            Statement::ExplainCadView(c) => self.run_explain_cadview(c, false),
            Statement::ExplainAnalyzeCadView(c) => self.run_explain_cadview(c, true),
            Statement::Highlight(h) => self.run_highlight(h),
            Statement::Reorder(r) => self.run_reorder(r),
            Statement::Describe(name) => self.run_describe(&name),
            Statement::ShowCadViews => {
                let mut names: Vec<&String> = self.cad_views.keys().collect();
                names.sort();
                let mut out = String::new();
                for name in names {
                    let cad = &self.cad_views[name];
                    out.push_str(&format!(
                        "{name}: pivot {} ({} values, {} compare attrs, k = {})\n",
                        cad.pivot_name,
                        cad.rows.len(),
                        cad.compare_names.len(),
                        cad.k
                    ));
                }
                if out.is_empty() {
                    out.push_str("(no CAD Views)\n");
                }
                Ok(QueryOutput::Text(out))
            }
            Statement::DropCadView(name) => {
                if self.cad_views.remove(&name).is_none() {
                    return Err(SessionError::UnknownCadView { name }.into());
                }
                self.view_contexts.remove(&name);
                Ok(QueryOutput::Text(format!("dropped CAD View {name}\n")))
            }
            Statement::Suggest(s) => self.run_suggest(s),
        }
    }

    fn run_select(&mut self, s: SelectStmt) -> Result<QueryOutput> {
        let result = self.filtered(&s.table, &s.predicate)?;
        let table = result.table();
        let view = result.view();

        // Aggregate query: GROUP BY + aggregates produce a derived table,
        // then ORDER BY / LIMIT apply to it.
        if !s.aggregates.is_empty() {
            for col in &s.columns {
                if !s.group_by.contains(col) {
                    return Err(SessionError::ColumnNotGrouped { column: col.clone() }.into());
                }
            }
            let derived = group_by(&view, &s.group_by, &s.aggregates)?;
            return Self::emit_rows(&derived, &s.order_by, s.limit);
        }
        if !s.group_by.is_empty() {
            return Err(SessionError::GroupByWithoutAggregates.into());
        }

        let schema = table.schema();
        let col_indices: Vec<usize> = if s.columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            s.columns
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<dbex_table::Result<_>>()?
        };
        let columns: Vec<String> = col_indices
            .iter()
            .map(|&i| schema.field(i).name.clone())
            .collect();
        let ordered = if s.order_by.is_empty() {
            view
        } else {
            let keys: Vec<SortKey> = s
                .order_by
                .iter()
                .map(|(a, asc)| SortKey {
                    attribute: a.clone(),
                    ascending: *asc,
                })
                .collect();
            sort_view(&view, &keys)?
        };
        let limit = s.limit.unwrap_or(usize::MAX);
        let rows = ordered
            .row_ids()
            .iter()
            .take(limit)
            .map(|&r| {
                col_indices
                    .iter()
                    .map(|&c| table.value(r as usize, c))
                    .collect()
            })
            .collect();
        Ok(QueryOutput::Rows { columns, rows })
    }

    /// Materializes a derived table (all columns) with optional ordering
    /// and limit.
    fn emit_rows(
        table: &Table,
        order_by: &[(String, bool)],
        limit: Option<usize>,
    ) -> Result<QueryOutput> {
        let view = if order_by.is_empty() {
            table.full_view()
        } else {
            let keys: Vec<SortKey> = order_by
                .iter()
                .map(|(a, asc)| SortKey {
                    attribute: a.clone(),
                    ascending: *asc,
                })
                .collect();
            sort_view(&table.full_view(), &keys)?
        };
        let limit = limit.unwrap_or(usize::MAX);
        let columns = table
            .schema()
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let rows = view
            .row_ids()
            .iter()
            .take(limit)
            .map(|&r| {
                (0..table.num_columns())
                    .map(|c| table.value(r as usize, c))
                    .collect()
            })
            .collect();
        Ok(QueryOutput::Rows { columns, rows })
    }

    fn run_describe(&self, name: &str) -> Result<QueryOutput> {
        let table = self.table(name)?;
        let mut out = format!(
            "table {name}: {} rows, {} attributes\n",
            table.num_rows(),
            table.num_columns()
        );
        for (i, field) in table.schema().fields().iter().enumerate() {
            out.push_str(&format!(
                "  {:<24} {:<12} {:<10} {} distinct\n",
                field.name,
                field.data_type.to_string(),
                if field.queriable { "queriable" } else { "hidden" },
                table.column(i).cardinality(),
            ));
        }
        Ok(QueryOutput::Text(out))
    }

    /// A tracer for one CAD build: enabled when the session traces, has a
    /// sink, or `force` (the `EXPLAIN ANALYZE` path) demands it.
    fn build_tracer(&self, force: bool) -> Tracer {
        if force || self.tracing || self.trace_sink.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Builds a CAD view, tracing it as [`Self::build_tracer`] says and
    /// forwarding the span tree to the installed sink.
    fn build_cad(
        &self,
        result: &FilteredResult,
        request: &CadRequest,
        force_trace: bool,
    ) -> Result<CadView> {
        let cache = Some(self.stats_cache.as_ref());
        let tracer = self.build_tracer(force_trace);
        let cad = build_cad_view_traced(
            &result.view(),
            request,
            cache,
            Some(result.coded()),
            &tracer,
        )?;
        self.record_trace(&cad);
        Ok(cad)
    }

    /// Forwards a finished build's span tree to the installed sink.
    fn record_trace(&self, cad: &CadView) {
        if let (Some(sink), Some(trace)) = (&self.trace_sink, &cad.trace) {
            sink.record(trace);
        }
    }

    fn run_explain_cadview(&mut self, c: CadViewStmt, analyze: bool) -> Result<QueryOutput> {
        let result = self.filtered(&c.table, &c.predicate)?;
        let request = self.cad_request(&c)?;
        let cad = self.build_cad(&result, &request, analyze)?;
        let mut out = format!(
            "CADVIEW {} over {} rows of {}\n  pivot: {} ({} values shown)\n",
            c.name,
            result.rows().len(),
            c.table,
            c.pivot,
            cad.rows.len()
        );
        out.push_str("  compare attributes (forced first, then by chi-square):\n");
        for (name, idx) in cad.compare_names.iter().zip(&cad.compare_attrs) {
            match cad.feature_scores.iter().find(|s| s.attr_index == *idx) {
                Some(score) => out.push_str(&format!(
                    "    {:<20} chi2 = {:>10.1}  dof = {:>4}  p = {:.4}\n",
                    name, score.statistic, score.dof, score.p_value
                )),
                None => out.push_str(&format!("    {name:<20} (user-forced)\n")),
            }
        }
        out.push_str(&format!(
            "  timings: compare-attrs {:.1?} | iunit-generation {:.1?} | others {:.1?}\n",
            cad.timings.compare_attrs, cad.timings.iunit_generation, cad.timings.others
        ));
        out.push_str(&format!(
            "  parallelism: {} thread{}\n",
            cad.threads_used,
            if cad.threads_used == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "  kernel dispatch: {}\n",
            dbex_stats::simd::dispatch().name()
        ));
        out.push_str(&format!("  stats cache: {}\n", self.stats_cache.stats()));
        out.push_str(&format!(
            "  cluster reuse: {} partition(s) served from cache\n",
            cad.partitions_reused
        ));
        if cad.is_degraded() {
            out.push_str("  degradation:\n");
            for d in &cad.degradation {
                out.push_str(&format!("    {d}\n"));
            }
        } else {
            out.push_str("  degradation: none\n");
        }
        if analyze {
            out.push_str("  analyze (per-phase spans):\n");
            match &cad.trace {
                Some(trace) => {
                    for line in trace.render().lines() {
                        out.push_str("    ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                None => out.push_str("    (trace unavailable)\n"),
            }
        }
        Ok(QueryOutput::Text(out))
    }

    /// Translates a parsed CADVIEW statement into a builder request,
    /// applying the session's execution budget.
    fn cad_request(&self, c: &CadViewStmt) -> Result<CadRequest> {
        let mut request = CadRequest::new(&c.pivot)
            .with_compare(c.compare_attrs.clone())
            .with_budget(self.budget.clone());
        if let Some(threads) = self.threads {
            request.config.threads = threads;
        }
        if let Some(m) = c.limit_columns {
            request = request.with_max_compare_attrs(m);
        }
        if let Some(k) = c.iunits {
            request = request.with_iunits(k);
        }
        if c.order_by.len() > 1 {
            return Err(SessionError::MultipleOrderKeys.into());
        }
        if let Some((attr, order)) = c.order_by.first() {
            request = request.with_preference(match order {
                SortOrder::Asc => Preference::AttributeAsc(attr.clone()),
                SortOrder::Desc => Preference::AttributeDesc(attr.clone()),
            });
        }
        Ok(request)
    }

    /// Builds and stores a CAD View. A build that
    /// [`Session::preview_create_cadview`] paused for this very statement
    /// over the same result is finished instead of built again.
    fn run_create_cadview(
        &mut self,
        c: CadViewStmt,
        paused: Option<PausedCad>,
    ) -> Result<QueryOutput> {
        let result = self.filtered(&c.table, &c.predicate)?;
        let cad = match paused {
            Some(paused) if paused.stmt == c && Arc::ptr_eq(&paused.result, &result) => {
                let cache = Some(self.stats_cache.as_ref());
                let cad = paused.build.finish(&result.view(), cache)?;
                self.record_trace(&cad);
                cad
            }
            _ => self.build_cad(&result, &self.cad_request(&c)?, false)?,
        };
        let rendered = cad.render();
        let degradation = cad.degradation.iter().map(|d| d.to_string()).collect();
        let trace = cad.trace.as_ref().map(|t| t.render());
        self.view_contexts
            .insert(c.name.clone(), (c.table.clone(), c.predicate.clone()));
        self.cad_views.insert(c.name.clone(), cad);
        Ok(QueryOutput::Cad {
            name: c.name,
            rendered,
            degradation,
            trace,
        })
    }

    /// Maps a [`SuggestError`] onto the session's typed error hierarchy.
    fn suggest_error(e: SuggestError) -> QueryError {
        match e {
            SuggestError::UnknownAttribute(name) => {
                QueryError::Table(dbex_table::Error::UnknownAttribute(name))
            }
            SuggestError::PivotOutOfRange { pivot, .. } => QueryError::Table(
                dbex_table::Error::UnknownAttribute(format!("pivot column #{pivot}")),
            ),
        }
    }

    /// Suggestion config derived from the session's thread setting.
    fn suggest_config(&self) -> SuggestConfig {
        SuggestConfig {
            threads: self.threads.unwrap_or(1),
            ..SuggestConfig::default()
        }
    }

    fn run_suggest(&mut self, s: SuggestStmt) -> Result<QueryOutput> {
        match s.kind {
            SuggestKind::Next { view } => self.run_suggest_next(&view, s.analyze),
            SuggestKind::Complete { prefix } => self.run_suggest_complete(&prefix, s.analyze),
        }
    }

    /// `SUGGEST NEXT FOR view`: re-derives the view's refined result set
    /// from its stored `(table, predicate)` context and ranks candidate
    /// next-step attributes against the view's pivot by information gain
    /// (symmetrical uncertainty). Contingency tables land in the session's
    /// stats cache keyed on the refined view's fingerprint, so repeating
    /// the statement over an unchanged view is all cache hits; the pinned
    /// or cached result also spares the filter, the coding and the code
    /// counts.
    fn run_suggest_next(&mut self, view_name: &str, analyze: bool) -> Result<QueryOutput> {
        let pivot = self.cad_view(view_name)?.pivot_attr;
        let (table_name, predicate) =
            self.view_contexts.get(view_name).cloned().ok_or_else(|| {
                SessionError::UnknownCadView {
                    name: view_name.to_owned(),
                }
            })?;
        let result = self.filtered(&table_name, &predicate)?;
        let report = dbex_suggest::suggest_next(
            &result.view(),
            pivot,
            &self.suggest_config(),
            Some(&self.stats_cache),
            Some(result.coded()),
        )
        .map_err(Self::suggest_error)?;
        let items: Vec<(String, f64, String)> = report
            .suggestions
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.score,
                    format!("gain {:.4} nats over {} values", s.gain, s.cardinality),
                )
            })
            .collect();
        let title = format!(
            "next steps for {view_name} (pivot {}, {} rows):",
            report.pivot_name, report.view_rows
        );
        if analyze {
            let mut out = format!("SUGGEST NEXT FOR {view_name}\n");
            out.push_str(&format!("  pivot: {}\n", report.pivot_name));
            out.push_str(&format!(
                "  candidates: {} ranked over {} rows\n",
                report.candidates, report.view_rows
            ));
            out.push_str(&format!("  rank time: {:.1?}\n", report.elapsed));
            out.push_str(&format!(
                "  cache traffic: {} hit(s), {} miss(es)\n",
                report.cache_hits, report.cache_misses
            ));
            out.push_str(&format!("  stats cache: {}\n", self.stats_cache.stats()));
            out.push_str(&QueryOutput::Suggestions { title, items }.render());
            return Ok(QueryOutput::Text(out));
        }
        Ok(QueryOutput::Suggestions { title, items })
    }

    /// Table names visible to this session (local registrations shadow the
    /// shared catalog), sorted.
    fn visible_table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        if let Some(catalog) = &self.catalog {
            for name in catalog.names() {
                if !self.tables.contains_key(&name) {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    /// `SUGGEST COMPLETE prefix`: analyzes the partial statement, refines
    /// the target table by the complete predicate clauses preceding the
    /// partial one, and ranks either attribute names or values for the
    /// cursor position. Completion is best-effort on the *context*: an
    /// unparseable preceding clause falls back to the unrefined table
    /// rather than erroring (the user is mid-keystroke), but an unknown
    /// table or attribute is a typed error. The unrefined table is the
    /// result of `Predicate::Const(true)`, so a keystroke with no context
    /// reads a pinned or cached result like one with a context.
    fn run_suggest_complete(&mut self, prefix: &str, analyze: bool) -> Result<QueryOutput> {
        let analysis = dbex_suggest::analyze_prefix(prefix);
        let table_name = match analysis.table {
            Some(name) => name,
            // No FROM in the prefix: unambiguous only when the session
            // sees exactly one table.
            None => {
                let names = self.visible_table_names();
                if names.len() == 1 {
                    names.into_iter().next().unwrap_or_default()
                } else {
                    return Err(SessionError::UnknownTable {
                        name: "(no FROM clause in prefix)".to_owned(),
                    }
                    .into());
                }
            }
        };
        let context_pred = analysis
            .context
            .as_deref()
            .and_then(|ctx| parse_predicate(ctx).ok());
        let refined = context_pred
            .as_ref()
            .and_then(|pred| self.filtered(&table_name, pred).ok());
        let filtered = match refined {
            Some(filtered) => filtered,
            None => self.filtered(&table_name, &Predicate::Const(true))?,
        };
        let (result, coded) = (filtered.view(), Some(filtered.coded()));
        let started = std::time::Instant::now();
        let cfg = self.suggest_config();
        let cache = Some(self.stats_cache.as_ref());
        let (what, items) = match analysis.mode {
            CompletionMode::Attribute { partial } => {
                let items = dbex_suggest::complete_attribute(&result, &partial, &cfg, cache, coded);
                let what = if partial.is_empty() {
                    "attribute".to_owned()
                } else {
                    format!("attribute '{partial}'")
                };
                (what, items)
            }
            CompletionMode::Value { attr, partial } => {
                let items =
                    dbex_suggest::complete_value(&result, &attr, &partial, &cfg, cache, coded)
                        .map_err(Self::suggest_error)?;
                (format!("value for {attr}"), items)
            }
        };
        let elapsed = started.elapsed();
        let items: Vec<(String, f64, String)> = items
            .into_iter()
            .map(|i| (i.text, i.score, i.detail))
            .collect();
        let title = format!(
            "complete {what} over {table_name} ({} rows):",
            result.len()
        );
        if analyze {
            let mut out = format!("SUGGEST COMPLETE {prefix}\n");
            out.push_str(&format!(
                "  context: {}\n",
                if context_pred.is_some() {
                    analysis.context.as_deref().unwrap_or("(none)")
                } else {
                    "(none)"
                }
            ));
            out.push_str(&format!("  rank time: {:.1?}\n", elapsed));
            out.push_str(&format!("  stats cache: {}\n", self.stats_cache.stats()));
            out.push_str(&QueryOutput::Suggestions { title, items }.render());
            return Ok(QueryOutput::Text(out));
        }
        Ok(QueryOutput::Suggestions { title, items })
    }

    /// Result-size floor below which [`Session::preview_create_cadview`]
    /// skips the preview: the exact build of a small result is itself
    /// interactive, so a preview frame would only add a frame.
    pub const PREVIEW_MIN_ROWS: usize = 2_000;

    /// Starts the exact build of a `CREATE CADVIEW` statement, pauses it
    /// after each cold partition's first Lloyd pass, and renders a
    /// **preview** of it as it stands — the streamed-response fast path in
    /// `dbex-serve` (see [`CadBuild`]). Partitions served from the cluster
    /// cache show their exact IUnits, so when every partition hits, the
    /// preview already is the exact view.
    ///
    /// The view is not stored: the paused build is, and executing the
    /// same statement next finishes it rather than building again (see
    /// [`Session::execute_statement`]), so that frame owns the name. The
    /// preview carries no trace; the build's one span tree goes with the
    /// exact answer.
    ///
    /// Returns `None` whenever a preview is not worth streaming or cannot
    /// be built: the statement is not `CREATE CADVIEW`, the filtered
    /// result is under [`Session::PREVIEW_MIN_ROWS`], or anything errors
    /// or panics (the exact build re-runs the statement and surfaces the
    /// failure in FIFO order, so the preview path never reports one).
    pub fn preview_create_cadview(&mut self, sql: &str) -> Option<QueryOutput> {
        self.paused_cad = None;
        let Ok(Statement::CreateCadView(c)) = parse(sql) else {
            return None;
        };
        let result = self.filtered(&c.table, &c.predicate).ok()?;
        if result.rows().len() < Self::PREVIEW_MIN_ROWS {
            return None;
        }
        let request = self.cad_request(&c).ok()?;
        let started = catch_unwind(AssertUnwindSafe(|| {
            let view = result.view();
            let cache = Some(self.stats_cache.as_ref());
            let tracer = self.build_tracer(false);
            let build =
                CadBuild::start(&view, &request, cache, Some(result.coded()), &tracer, true)
                    .ok()?;
            let cad = build.preview(&view).ok()?;
            let output = QueryOutput::Cad {
                name: c.name.clone(),
                rendered: cad.render(),
                degradation: cad.degradation.iter().map(|d| d.to_string()).collect(),
                trace: None,
            };
            Some((output, build))
        }));
        let Ok(started) = started else {
            self.pinned = None;
            return None;
        };
        let (output, build) = started?;
        self.paused_cad = Some(PausedCad {
            stmt: c,
            result,
            build,
        });
        Some(output)
    }

    fn run_highlight(&self, h: HighlightStmt) -> Result<QueryOutput> {
        let cad = self.cad_view(&h.view)?;
        if h.iunit_id == 0 {
            return Err(SessionError::ZeroIUnitId.into());
        }
        let hits = cad.highlight_similar(&h.pivot_value, h.iunit_id - 1, Some(h.threshold));
        Ok(QueryOutput::Highlights(
            hits.into_iter().map(|(v, i, s)| (v, i + 1, s)).collect(),
        ))
    }

    fn run_reorder(&mut self, r: ReorderStmt) -> Result<QueryOutput> {
        let cad = self.cad_views.get_mut(&r.view).ok_or_else(|| {
            QueryError::from(SessionError::UnknownCadView {
                name: r.view.clone(),
            })
        })?;
        let order = cad.reorder_rows(&r.pivot_value);
        if order.is_empty() {
            return Err(SessionError::PivotValueNotInView {
                value: r.pivot_value,
                view: r.view,
            }
            .into());
        }
        cad.apply_row_order(&order);
        Ok(QueryOutput::Reordered(order))
    }
}

/// Splits on semicolons outside single-quoted strings.
fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for c in script.chars() {
        match c {
            '\'' => {
                in_quote = !in_quote;
                current.push(c);
            }
            ';' if !in_quote => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{DataType, Field, TableBuilder};

    fn session() -> Session {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Engine", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for i in 0..30i64 {
            let (m, e, p) = match i % 3 {
                0 => ("Ford", "V6", 25_000 + i * 10),
                1 => ("Jeep", "V8", 35_000 + i * 10),
                _ => ("Ford", "V4", 15_000 + i * 10),
            };
            b.push_row(vec![m.into(), e.into(), p.into()]).unwrap();
        }
        let mut s = Session::new();
        s.register_table("cars", b.finish());
        s
    }

    /// A session over 2,500 rows: past the preview floor.
    fn preview_session() -> Session {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Engine", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for i in 0..2_500i64 {
            let (m, e) = match i % 3 {
                0 => ("Ford", "V6"),
                1 => ("Jeep", "V8"),
                _ => ("Ford", "V4"),
            };
            b.push_row(vec![m.into(), e.into(), (15_000 + i).into()])
                .unwrap();
        }
        let mut s = Session::new();
        s.register_table("cars", b.finish());
        s
    }

    #[test]
    fn preview_builds_without_storing_the_view() {
        let mut s = preview_session();
        let sql = "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2";

        let preview = s.preview_create_cadview(sql).expect("preview should build");
        let QueryOutput::Cad { name, rendered, .. } = preview else {
            panic!("preview should render as a CAD view");
        };
        assert_eq!(name, "v");
        assert!(rendered.contains("Ford"));
        // The preview must NOT store the view: the exact frame owns it.
        assert!(s.cad_view("v").is_err());
        // Non-CADVIEW statements are not previewable.
        assert!(s.preview_create_cadview("SELECT * FROM cars").is_none());
        // The exact path still works and stores the view.
        s.execute(sql).unwrap();
        assert!(s.cad_view("v").is_ok());
    }

    #[test]
    fn a_streamed_build_records_one_tree_when_it_finishes() {
        let mut s = preview_session();
        let sink = Arc::new(dbex_obs::MemorySink::new());
        s.set_trace_sink(Some(sink.clone()));
        let sql = "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2";
        let Some(QueryOutput::Cad { trace, .. }) = s.preview_create_cadview(sql) else {
            panic!("the statement must preview");
        };
        assert!(trace.is_none(), "the preview carries no trace");
        assert!(
            sink.is_empty(),
            "nothing is recorded before the build finishes"
        );
        s.execute(sql).unwrap();
        assert_eq!(sink.len(), 1, "one tree per build");
        let trace = &sink.traces()[0];
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.forced_closures, 0);
        assert!(
            trace.find("preview").is_some(),
            "{}",
            trace.structural_digest()
        );
        let clustered = trace.find("cluster_partition").expect("clustering span");
        assert_eq!(
            clustered.counter("paused"),
            2,
            "{}",
            trace.structural_digest()
        );
        assert_eq!(
            clustered.counter("resumed"),
            2,
            "{}",
            trace.structural_digest()
        );

        // The same statement again finds both partitions cached: its
        // preview is the exact view, and nothing pauses.
        let Some(QueryOutput::Cad {
            rendered: preview, ..
        }) = s.preview_create_cadview(sql)
        else {
            panic!("the statement must preview");
        };
        let Ok(QueryOutput::Cad {
            rendered: exact, ..
        }) = s.execute(sql)
        else {
            panic!("the statement must build");
        };
        assert_eq!(preview, exact);
        let trace = &sink.traces()[1];
        assert_eq!(
            trace.find("cluster_partition").map(|n| n.counter("paused")),
            Some(0)
        );
    }

    #[test]
    fn preview_skips_small_results() {
        let mut s = session(); // 30 rows — far under PREVIEW_MIN_ROWS
        assert!(s
            .preview_create_cadview("CREATE CADVIEW v AS SET pivot = Make FROM cars")
            .is_none());
    }

    #[test]
    fn select_star_and_projection() {
        let mut s = session();
        let QueryOutput::Rows { columns, rows } =
            s.execute("SELECT * FROM cars WHERE Make = Jeep").unwrap()
        else {
            panic!()
        };
        assert_eq!(columns.len(), 3);
        assert_eq!(rows.len(), 10);

        let QueryOutput::Rows { columns, rows } = s
            .execute("SELECT Make, Price FROM cars WHERE Price < 16K LIMIT 3")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(columns, vec!["Make", "Price"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("Ford".into()));
    }

    #[test]
    fn create_highlight_reorder_pipeline() {
        let mut s = session();
        let out = s
            .execute(
                "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2",
            )
            .unwrap();
        let QueryOutput::Cad { name, rendered, .. } = out else {
            panic!()
        };
        assert_eq!(name, "v");
        assert!(rendered.contains("IUnit 1"));

        let QueryOutput::Highlights(hits) = s
            .execute("HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.1")
            .unwrap()
        else {
            panic!()
        };
        // 1-based ids and no self-hit.
        assert!(hits.iter().all(|(_, id, _)| *id >= 1));

        let QueryOutput::Reordered(order) = s
            .execute("REORDER ROWS IN v ORDER BY SIMILARITY(Jeep) DESC")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(order[0].0, "Jeep");
        assert_eq!(s.cad_view("v").unwrap().rows[0].pivot_label, "Jeep");
    }

    #[test]
    fn errors_on_unknown_objects() {
        let mut s = session();
        assert!(s.execute("SELECT * FROM nope").is_err());
        assert!(s
            .execute("HIGHLIGHT SIMILAR IUNITS IN nope WHERE SIMILARITY(Ford, 1) > 1")
            .is_err());
        assert!(s
            .execute("REORDER ROWS IN nope ORDER BY SIMILARITY(Ford) DESC")
            .is_err());
        assert!(s
            .execute("SELECT * FROM cars WHERE NoSuchColumn = 1")
            .is_err());
    }

    #[test]
    fn show_and_drop_cadview_lifecycle() {
        let mut s = session();
        let QueryOutput::Text(t) = s.execute("SHOW CADVIEWS").unwrap() else {
            panic!()
        };
        assert!(t.contains("no CAD Views"));
        s.execute("CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
            .unwrap();
        let QueryOutput::Text(t) = s.execute("SHOW CADVIEWS").unwrap() else {
            panic!()
        };
        assert!(t.contains("v: pivot Make"));
        s.execute("DROP CADVIEW v").unwrap();
        assert!(s.cad_view("v").is_err());
        assert!(s.execute("DROP CADVIEW v").is_err());
    }

    #[test]
    fn highlight_validates_iunit_id() {
        let mut s = session();
        s.execute("CREATE CADVIEW v AS SET pivot = Make FROM cars")
            .unwrap();
        assert!(s
            .execute("HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 0) > 1")
            .is_err());
    }

    #[test]
    fn script_execution() {
        let mut s = session();
        let outputs = s
            .execute_script(
                "SELECT * FROM cars LIMIT 1;\n\
                 CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2;\n\
                 REORDER ROWS IN v ORDER BY SIMILARITY(Jeep) DESC;",
            )
            .unwrap();
        assert_eq!(outputs.len(), 3);
        assert!(matches!(outputs[0], QueryOutput::Rows { .. }));
        assert!(matches!(outputs[2], QueryOutput::Reordered(_)));
        // Errors stop the script.
        assert!(s.execute_script("SELECT * FROM cars; SELECT * FROM nope").is_err());
        // Quoted semicolons survive.
        let out = s
            .execute_script("SELECT * FROM cars WHERE Make = 'a;b' LIMIT 1")
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn explain_reports_parallelism_and_cache() {
        let mut s = session();
        let QueryOutput::Text(t) = s
            .execute("EXPLAIN CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
            .unwrap()
        else {
            panic!()
        };
        assert!(t.contains("parallelism: 1 thread\n"), "{t}");
        let dispatch = dbex_stats::simd::dispatch().name();
        assert!(
            t.contains(&format!("kernel dispatch: {dispatch}\n")),
            "{t}"
        );
        assert!(t.contains("stats cache:"), "{t}");

        s.set_threads(2);
        let QueryOutput::Text(t) = s
            .execute("EXPLAIN CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
            .unwrap()
        else {
            panic!()
        };
        assert!(t.contains("parallelism: 2 threads\n"), "{t}");
    }

    #[test]
    fn repeated_create_hits_stats_cache_and_renders_identically() {
        let mut s = session();
        let stmt = "CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2";
        let QueryOutput::Cad { rendered: r1, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        let QueryOutput::Cad { rendered: r2, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        assert_eq!(r1, r2);
        assert!(
            s.stats_cache().stats().hits > 0,
            "second build should reuse cached stats: {}",
            s.stats_cache().stats()
        );

        // Parallel build of the same statement renders identically too.
        s.set_threads(4);
        let QueryOutput::Cad { rendered: r3, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        assert_eq!(r1, r3);
    }

    #[test]
    fn explain_analyze_reports_span_tree() {
        let mut s = session();
        let QueryOutput::Text(t) = s
            .execute("EXPLAIN ANALYZE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
            .unwrap()
        else {
            panic!()
        };
        assert!(t.contains("analyze (per-phase spans):"), "{t}");
        for span in [
            "cad_build",
            "pivot_encode",
            "compare_attrs",
            "iunit_generation",
            "encode_matrix",
            "cluster_partition",
            "topk",
            "solve_partition",
        ] {
            assert!(t.contains(span), "span {span} missing from:\n{t}");
        }
        assert!(t.contains("rows_input=30"), "{t}");
        assert!(t.contains("cache_hits="), "{t}");
        assert!(t.contains("degradation_level=0"), "{t}");
        // The `CREATE` keyword stays optional but accepted.
        assert!(s
            .execute("EXPLAIN ANALYZE CREATE CADVIEW v AS SET pivot = Make FROM cars")
            .is_ok());
        // Plain EXPLAIN stays trace-free.
        let QueryOutput::Text(t) = s
            .execute("EXPLAIN CADVIEW v AS SET pivot = Make FROM cars")
            .unwrap()
        else {
            panic!()
        };
        assert!(!t.contains("analyze (per-phase spans)"), "{t}");
    }

    #[test]
    fn tracing_attaches_traces_and_feeds_the_sink() {
        let mut s = session();
        let stmt = "CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2";
        let QueryOutput::Cad { trace, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        assert!(trace.is_none(), "tracing off by default");

        let sink = Arc::new(dbex_obs::MemorySink::new());
        s.set_tracing(true);
        s.set_trace_sink(Some(sink.clone()));
        let QueryOutput::Cad { trace, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        let rendered = trace.expect("tracing on attaches the rendered tree");
        assert!(rendered.contains("cad_build"), "{rendered}");
        assert_eq!(sink.len(), 1);
        assert!(sink.span_names().contains("cluster_partition"));

        s.set_tracing(false);
        s.set_trace_sink(None);
        let QueryOutput::Cad { trace, .. } = s.execute(stmt).unwrap() else {
            panic!()
        };
        assert!(trace.is_none());
    }

    #[test]
    fn reorder_unknown_value_errors() {
        let mut s = session();
        s.execute("CREATE CADVIEW v AS SET pivot = Make FROM cars")
            .unwrap();
        assert!(s
            .execute("REORDER ROWS IN v ORDER BY SIMILARITY(Tesla) DESC")
            .is_err());
    }
}
