//! In-process replay of a plan, in a fresh process opened from the same
//! snapshot as the server: the output oracle, the determinism guard's
//! second count, and (traced) the per-layer measurements.

use crate::plan::{Class, Request, SessionPlan};
use crate::report::{fnv1a, p50, ratio};
use dbex_core::StatsCache;
use dbex_obs::{Counter, SpanNode, Trace, TraceSink};
use dbex_query::{parse, QueryOutput, Session, SharedCatalog, Statement};
use dbex_serve::{handle_request, query_error_code, WireResponse};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Work counts the determinism guard compares between the served run and
/// the replay. The server reports previews as `server.previews`.
pub const GUARD_COUNTERS: [&str; 6] = [
    "query.statements",
    "cad.builds",
    "stats.cache.hits",
    "stats.cache.misses",
    "stats.cache.evictions",
    "cluster.partitions_reused",
];

/// A new session wired like a server connection's.
pub fn server_like_session(catalog: &Arc<SharedCatalog>, cache: &Arc<StatsCache>) -> Session {
    let mut session = Session::new();
    session.set_catalog(Some(Arc::clone(catalog)));
    session.set_stats_cache(Arc::clone(cache));
    session
}

/// What the server's worker sends for `request` on a streaming
/// connection, tags stripped: the preview line (CAD builds over the
/// preview floor) and the final line. Same calls in the same order as
/// `execute_request`, so the caches evolve as on the server.
pub fn serve_like(
    session: &mut Session,
    catalog: &Arc<SharedCatalog>,
    request: &str,
) -> (Option<String>, String) {
    let preview = session
        .preview_create_cadview(request.trim())
        .map(|out| WireResponse::ok("cad", &out.render()).to_line());
    (preview, handle_request(session, catalog, request))
}

/// The wire `kind` of an output (mirrors the server's dispatch).
fn output_kind(output: &QueryOutput) -> &'static str {
    match output {
        QueryOutput::Rows { .. } => "rows",
        QueryOutput::Cad { .. } => "cad",
        QueryOutput::Highlights(_) => "highlights",
        QueryOutput::Reordered(_) => "reordered",
        QueryOutput::Text(_) => "text",
        QueryOutput::Suggestions { .. } => "suggestions",
    }
}

/// A traced session attaches each build's span tree to its output, which
/// the server (untraced) does not send; drop it before rendering.
fn untraced(mut output: QueryOutput) -> QueryOutput {
    if let QueryOutput::Cad { trace, .. } = &mut output {
        *trace = None;
    }
    output
}

/// Collects the CAD span trees a traced session emits.
#[derive(Default)]
struct TakeSink(Mutex<Vec<Trace>>);

impl TraceSink for TakeSink {
    fn record(&self, trace: &Trace) {
        self.0.lock().expect("trace sink lock").push(trace.clone());
    }
}

impl TakeSink {
    fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.0.lock().expect("trace sink lock"))
    }
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn self_ns(node: &SpanNode) -> u64 {
    let children: u64 = node.children.iter().map(|c| c.duration_ns).sum();
    node.duration_ns.saturating_sub(children)
}

fn find<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanNode> {
    if node.name == name {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, name))
}

fn counter_sum(node: &SpanNode, key: &str) -> u64 {
    node.counter(key)
        + node
            .children
            .iter()
            .map(|c| counter_sum(c, key))
            .sum::<u64>()
}

/// Per-layer samples of the traced replay's timed requests.
#[derive(Default)]
struct Layers {
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    preview_ms: Vec<f64>,
    execute_ms: [Vec<f64>; 3],
    filter_ms: Vec<f64>,
    requests: u64,
    rows_scanned: u64,
    build_ms: Vec<f64>,
    pivot_encode_ms: Vec<f64>,
    compare_attrs_ms: Vec<f64>,
    encode_matrix_ms: Vec<f64>,
    cluster_partition_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    build_rows_scanned: u64,
    rows_clustered: u64,
    partitions: u64,
    partitions_reused: u64,
    degradations: u64,
    rank_ms: Vec<f64>,
}

impl Layers {
    /// Folds in one exact build's span tree, checking that its stage self
    /// times fit inside the build.
    fn add_build(&mut self, trace: &Trace) -> Result<(), String> {
        let root = trace
            .roots
            .iter()
            .find(|r| r.name == "cad_build")
            .ok_or("CAD trace without a cad_build root")?;
        let stage = |name: &str| find(root, name).map_or(0, self_ns);
        let topk = find(root, "topk").map_or(0, |n| n.duration_ns);
        let stages = [
            stage("pivot_encode"),
            stage("compare_attrs"),
            stage("encode_matrix"),
            stage("cluster_partition"),
            topk,
        ];
        let sum: u64 = stages.iter().sum();
        if sum > root.duration_ns {
            return Err(format!(
                "stage self times sum to {sum}ns, above their cad_build of {}ns",
                root.duration_ns
            ));
        }
        self.build_ms.push(ns_ms(root.duration_ns));
        self.pivot_encode_ms.push(ns_ms(stages[0]));
        self.compare_attrs_ms.push(ns_ms(stages[1]));
        self.encode_matrix_ms.push(ns_ms(stages[2]));
        self.cluster_partition_ms.push(ns_ms(stages[3]));
        self.topk_ms.push(ns_ms(stages[4]));
        self.build_rows_scanned += counter_sum(root, "rows_scanned");
        self.rows_clustered += counter_sum(root, "rows_clustered");
        self.partitions += find(root, "cluster_partition").map_or(0, |n| n.calls);
        self.partitions_reused += counter_sum(root, "partitions_reused");
        self.degradations += root.counter("degradations");
        Ok(())
    }
}

/// Global counters the traced replay reads around each call.
struct Counters {
    rows_scanned: Arc<Counter>,
    suggest_hit: Arc<Counter>,
    suggest_miss: Arc<Counter>,
    onehot: Arc<Counter>,
}

impl Counters {
    fn new() -> Counters {
        let reg = dbex_obs::global();
        Counters {
            rows_scanned: reg.counter("table.rows_scanned"),
            suggest_hit: reg.counter("suggest.cache_hit"),
            suggest_miss: reg.counter("suggest.cache_miss"),
            onehot: reg.counter("cluster.onehot_path"),
        }
    }
}

fn rank_ms_sum() -> f64 {
    dbex_obs::global()
        .snapshot()
        .histograms
        .get("suggest.rank_ms")
        .map_or(0.0, |h| h.sum)
}

/// One replayed request.
pub struct Replayed {
    pub preview: Option<String>,
    pub line: String,
    /// Preview plus request, as the worker spends it.
    pub inproc_ns: u64,
}

/// The traced path: each layer's public call timed on its own. Same
/// calls and order as [`serve_like`]; the extra `parse` and
/// `Table::filter` calls are pure and stay out of `inproc_ns`.
fn traced_request(
    session: &mut Session,
    sink: &TakeSink,
    request: &Request,
    layers: Option<&mut Layers>,
    counters: &Counters,
) -> Result<Replayed, String> {
    let text = request.text.as_str();
    let t = Instant::now();
    let stmt = parse(text);
    let parse_ns = t.elapsed().as_nanos() as u64;
    let filter_ns = match &stmt {
        Ok(Statement::CreateCadView(c)) => Some((c.table.clone(), c.predicate.clone())),
        Ok(Statement::Select(s)) => Some((s.table.clone(), s.predicate.clone())),
        _ => None,
    }
    .map(|(table, predicate)| -> Result<u64, String> {
        let table = session.table(&table).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let view = table.filter(&predicate).map_err(|e| e.to_string())?;
        std::hint::black_box(view.len());
        Ok(t.elapsed().as_nanos() as u64)
    })
    .transpose()?;

    let t = Instant::now();
    let preview = session.preview_create_cadview(text.trim());
    let preview_ns = t.elapsed().as_nanos() as u64;
    sink.take();
    let preview = preview.map(|out| WireResponse::ok("cad", &untraced(out).render()).to_line());

    let scanned_before = counters.rows_scanned.get();
    let rank_before = if request.class == Class::Suggest {
        rank_ms_sum()
    } else {
        0.0
    };
    let t = Instant::now();
    let output = session.execute(text);
    let execute_ns = t.elapsed().as_nanos() as u64;
    let scanned = counters.rows_scanned.get() - scanned_before;
    let rank_ms = if request.class == Class::Suggest {
        rank_ms_sum() - rank_before
    } else {
        0.0
    };
    let builds = sink.take();

    let t = Instant::now();
    let rendered = output.map(|out| {
        let out = untraced(out);
        let text = out.render();
        (output_kind(&out), text)
    });
    let render_ns = t.elapsed().as_nanos() as u64;
    let line = match rendered {
        Ok((kind, text)) => WireResponse::ok(kind, &text).to_line(),
        Err(e) => WireResponse::err(query_error_code(&e), &e.to_string()).to_line(),
    };

    if let Some(layers) = layers {
        layers.requests += 1;
        layers.rows_scanned += scanned;
        layers.parse_us.push(parse_ns as f64 / 1e3);
        layers.render_us.push(render_ns as f64 / 1e3);
        layers.execute_ms[request.class as usize].push(ns_ms(execute_ns));
        if let Some(ns) = filter_ns {
            layers.filter_ms.push(ns_ms(ns));
        }
        match request.class {
            Class::Cad => {
                layers.preview_ms.push(ns_ms(preview_ns));
                for trace in &builds {
                    layers.add_build(trace)?;
                }
            }
            Class::Suggest => layers.rank_ms.push(rank_ms),
            Class::Interact => {}
        }
    }
    Ok(Replayed {
        preview,
        line,
        inproc_ns: preview_ns + execute_ns + render_ns,
    })
}

fn plain_request(
    session: &mut Session,
    catalog: &Arc<SharedCatalog>,
    request: &Request,
) -> Replayed {
    let t = Instant::now();
    let (preview, line) = serve_like(session, catalog, &request.text);
    Replayed {
        preview,
        line,
        inproc_ns: t.elapsed().as_nanos() as u64,
    }
}

/// What a replay child reports.
pub struct ReplayOutcome {
    /// One line per replayed request: session, phase (`W`/`T`), index,
    /// preview hash (`-` for none), final-line hash, in-process ns.
    pub transcript: String,
    /// `key=value` lines: guard counts at the checkpoint and, traced, the
    /// per-layer metrics.
    pub summary: String,
}

/// Replays each session's warm requests and its first `counts[s]` timed
/// requests. Sessions run one after another on one shared cache. After
/// `checkpoint` timed requests of session 0 the guard counts are read.
pub fn replay(
    catalog: &Arc<SharedCatalog>,
    cache: &Arc<StatsCache>,
    plans: &[SessionPlan],
    counts: &[usize],
    checkpoint: Option<usize>,
    traced: bool,
) -> Result<ReplayOutcome, String> {
    let counters = Counters::new();
    let mut timed_tally = [0u64; 6];
    let mut layers = Layers::default();
    let mut transcript = String::new();
    let mut summary = String::new();
    let mut previews = 0u64;
    let sink = Arc::new(TakeSink::default());
    for (s, (plan, &count)) in plans.iter().zip(counts).enumerate() {
        let mut session = server_like_session(catalog, cache);
        if traced {
            session.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        }
        let warm = plan.warm.iter().map(|r| ('W', r));
        let timed = (0..count).map(|i| plan.timed_request(i).map(|r| ('T', r)));
        let requests: Vec<(char, &Request)> = warm
            .map(Some)
            .chain(timed)
            .collect::<Option<_>>()
            .ok_or_else(|| format!("session {s}: more requests than the plan holds"))?;
        let mut timed_done = 0usize;
        let mut tally_start = None;
        for (i, (phase, request)) in requests.into_iter().enumerate() {
            if phase == 'T' && tally_start.is_none() {
                tally_start = Some(tally(cache, &counters));
            }
            let r = if traced {
                let layers = (phase == 'T').then_some(&mut layers);
                traced_request(&mut session, &sink, request, layers, &counters)?
            } else {
                plain_request(&mut session, catalog, request)
            };
            previews += u64::from(r.preview.is_some());
            let preview = r
                .preview
                .as_deref()
                .map_or("-".to_owned(), |p| fnv1a(p.as_bytes()).to_string());
            let _ = writeln!(
                transcript,
                "{s}\t{phase}\t{i}\t{preview}\t{}\t{}",
                fnv1a(r.line.as_bytes()),
                r.inproc_ns
            );
            if phase == 'T' {
                timed_done += 1;
                if s == 0 && checkpoint == Some(timed_done) {
                    let reg = dbex_obs::global();
                    for name in GUARD_COUNTERS {
                        let _ = writeln!(summary, "checkpoint.{name}={}", reg.counter(name).get());
                    }
                    let _ = writeln!(summary, "checkpoint.server.previews={previews}");
                }
            }
        }
        if let Some(start) = tally_start {
            let end = tally(cache, &counters);
            for (sum, (a, b)) in timed_tally.iter_mut().zip(start.iter().zip(end)) {
                *sum += b - a;
            }
        }
    }
    if traced {
        write_layers(&mut summary, &layers, timed_tally);
    }
    Ok(ReplayOutcome {
        transcript,
        summary,
    })
}

/// Cache hits, misses and evictions, suggestion cache hits and misses, and
/// one-hot clusterings so far; differenced around each timed phase.
fn tally(cache: &StatsCache, counters: &Counters) -> [u64; 6] {
    let stats = cache.stats();
    [
        stats.hits,
        stats.misses,
        stats.evictions,
        counters.suggest_hit.get(),
        counters.suggest_miss.get(),
        counters.onehot.get(),
    ]
}

fn write_layers(out: &mut String, l: &Layers, tally: [u64; 6]) {
    let [hits, misses, evictions, suggest_hits, suggest_misses, onehot] = tally;
    let builds = l.build_ms.len() as f64;
    let requests = l.requests as f64;
    let rows = [
        ("query.parse_us_p50", p50(&l.parse_us)),
        ("query.render_us_p50", p50(&l.render_us)),
        ("query.preview_ms_p50", p50(&l.preview_ms)),
        (
            "query.execute_ms_p50.cad",
            p50(&l.execute_ms[Class::Cad as usize]),
        ),
        (
            "query.execute_ms_p50.interact",
            p50(&l.execute_ms[Class::Interact as usize]),
        ),
        (
            "query.execute_ms_p50.suggest",
            p50(&l.execute_ms[Class::Suggest as usize]),
        ),
        ("table.filter_ms_p50", p50(&l.filter_ms)),
        (
            "table.rows_scanned_per_op",
            ratio(l.rows_scanned as f64, requests),
        ),
        ("cad.build_ms_p50", p50(&l.build_ms)),
        ("cad.pivot_encode_ms_p50", p50(&l.pivot_encode_ms)),
        ("cad.compare_attrs_ms_p50", p50(&l.compare_attrs_ms)),
        ("cad.encode_matrix_ms_p50", p50(&l.encode_matrix_ms)),
        (
            "cad.rows_scanned_per_build",
            ratio(l.build_rows_scanned as f64, builds),
        ),
        (
            "cad.partitions_reused_ratio",
            ratio(l.partitions_reused as f64, l.partitions as f64),
        ),
        ("cad.degradations", l.degradations as f64),
        ("cad.cluster_partition_ms_p50", p50(&l.cluster_partition_ms)),
        (
            "cluster.rows_clustered_per_build",
            ratio(l.rows_clustered as f64, builds),
        ),
        ("cluster.onehot_builds", onehot as f64),
        ("cad.topk_ms_p50", p50(&l.topk_ms)),
        (
            "stats.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "stats.cache_evictions_per_op",
            ratio(evictions as f64, requests),
        ),
        ("suggest.rank_ms_p50", p50(&l.rank_ms)),
        (
            "suggest.cache_hit_ratio",
            ratio(suggest_hits as f64, (suggest_hits + suggest_misses) as f64),
        ),
    ];
    for (name, value) in rows {
        let _ = writeln!(out, "{name}={value:?}");
    }
}
