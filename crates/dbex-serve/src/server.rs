//! The concurrent wire server: shared catalog, shared stats cache, one
//! session per connection — served by a readiness loop, not by threads.
//!
//! # Architecture
//!
//! ```text
//!                    ┌───────────────────────────────┐
//!  all sockets ────▶ │ event loop (1 thread, epoll)  │ ◀── wake pipe
//!                    │  nonblocking accept/read/write │
//!                    │  per-conn frame state machines │
//!                    └───────┬───────────────▲───────┘
//!                       jobs │               │ completions
//!                    ┌───────▼───────────────┴───────┐
//!                    │ job queue: hot + cold tiers,  │
//!                    │ each a light and a build lane │
//!                    └───┬───────────────────────┬───┘
//!      light jobs, while │                       │ every job, hot tier
//!     no build is queued │                       │ first, oldest first
//!     ┌──────────────────▼─────┐   ┌─────────────▼──────────────────┐
//!     │ interactive executor   │   │ worker pool (N fixed threads)  │
//!     │ (1 thread, no builds)  │   │  Session::execute → JSON line  │
//!     └────────────────────────┘   │  ▲ shared: catalog, StatsCache │
//!                                  └────────────────────────────────┘
//! ```
//!
//! One event-loop thread owns the listener and every connection socket
//! (all nonblocking, multiplexed through [`crate::poller::Poller`]), so
//! connection count is decoupled from thread count: ten thousand idle
//! sessions cost a few hundred bytes each, not twenty thousand stacks.
//! Requests decoded by the loop are dispatched — one in flight per
//! connection, preserving per-connection FIFO order — to a laned job
//! queue (`JobQueue`). A fixed-size worker pool and one interactive
//! executor execute the jobs against the connection's [`Session`] and
//! post the rendered frames back through a completion queue (the wake
//! pipe interrupts the loop's `wait`). Every thread takes a connection's
//! first request (and every suggestion) before the established sessions'
//! other work. The executor runs only requests that build no CAD View,
//! and only while no build is queued, so a drill or a suggestion does not
//! wait for a running build unless builds are waiting for the pool too.
//!
//! Each accepted connection gets its own [`Session`] (so CAD Views,
//! budgets and `REORDER` state stay private), but every session points at
//! the same [`SharedCatalog`] of `Arc`-immutable tables and the same
//! process-wide [`StatsCache`] — one client's CAD build warms every other
//! client's refinements.
//!
//! # Progressive (streamed) responses
//!
//! A connection that opts in with `.stream on` receives *tagged* frames:
//! every response line carries `"seq"`/`"final"` fields, and expensive
//! `CREATE CADVIEW` statements stream **two** frames from one build — a
//! preview (`seq:0, final:false`) of the build paused after its first
//! k-means pass, then the exact answer (`final:true`) that finishes it,
//! whose line minus the tags is byte-identical to the classic single
//! response. A client that disconnects (or sends
//! `.cancel`) mid-build arms the connection's cancel flag; the running
//! build observes it as an expired deadline and collapses to the cheapest
//! degradation rungs instead of wasting worker time on an answer nobody
//! will read.
//!
//! # Backpressure ladder
//!
//! 1. Per-connection pipelining is bounded at [`PIPELINE_DEPTH`] decoded
//!    requests; beyond it the loop drops read interest in the socket and
//!    the client's TCP stream simply stops being read.
//! 2. Connections over [`ServeConfig::max_connections`] are rejected
//!    immediately with a typed `BUSY` response and a close — never queued
//!    unboundedly. (The job queue inherits this bound: one in-flight job
//!    per connection means it can never exceed the connection cap.)
//! 3. Per-request work is bounded by the configured
//!    [`ServeConfig::request_time_limit`]: past the deadline a CAD build
//!    degrades (it never fails), so the response still arrives.
//! 4. A client that never drains its responses fills the connection's
//!    write buffer; the loop re-registers for writability and flushes as
//!    the socket allows, while rung 1 stops accepting new requests.

use crate::poller::{listen_with_backlog, Event, Interest, Poller};
use crate::protocol::{decode_frame_with, ProtocolError, MAX_FRAME};
use crate::wire::{query_error_code, tag_stream_line, WireResponse};
use dbex_core::{ExecBudget, StatsCache, Tracer};
use dbex_data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbex_obs::TraceSink;
use dbex_query::{QueryOutput, Session, SharedCatalog};
use dbex_store::{RealVfs, SaveReport, StoreError};
use dbex_table::Table;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// In-flight pipelined requests per connection before the loop stops
/// reading the connection's socket.
pub const PIPELINE_DEPTH: usize = 16;

/// Bucket bounds (milliseconds) for the `server.request_ms` histogram.
const REQUEST_MS_BOUNDS: &[f64] = &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0];

/// Bucket bounds (milliseconds) for the `server.preview_ms` histogram —
/// previews target interactive latency, so the buckets are finer.
const PREVIEW_MS_BOUNDS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0];

/// Bucket bounds (milliseconds) for the `server.queue_wait_ms.light` and
/// `server.queue_wait_ms.build` histograms — an idle thread picks a job
/// up within tens of microseconds, so the buckets start at 0.05 ms.
const QUEUE_WAIT_MS_BOUNDS: &[f64] =
    &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0];

/// Poller tokens 0 and 1 are the listener and the wake pipe; connection
/// tokens count up from 2 and are never reused within a server lifetime.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a graceful drain waits for in-flight work before closing
/// connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Server configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Concurrent-connection cap; connection `max_connections + 1` gets a
    /// typed `BUSY` response and an immediate close.
    pub max_connections: usize,
    /// Per-request wall-clock deadline applied to every session's
    /// [`ExecBudget`]; past it CAD builds degrade rather than fail.
    /// `None` = no deadline.
    pub request_time_limit: Option<Duration>,
    /// Worker threads per CAD build (`1` = sequential, `0` = auto).
    pub threads: usize,
    /// Request-executor threads in the worker pool. `0` (the default)
    /// resolves to the machine's available parallelism. Independent of
    /// `threads`, which parallelises *within* one CAD build.
    pub workers: usize,
    /// Total entries per map of the shared [`StatsCache`]. The library
    /// default (1024) thrashes at 1024 concurrent sessions — evictions ≈
    /// misses — so the server defaults higher (8192).
    pub cache_entries: usize,
    /// Listen backlog. Defaults above the exploration benchmark's largest
    /// session ramp (1024): an overflowing backlog turns connects into
    /// multi-minute kernel SYN retransmits.
    pub backlog: u32,
    /// When set, every request is traced (a `serve_request` root span with
    /// request/response byte counts) and the trace forwarded here.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
    /// Per-request frame cap; a frame declaring more is rejected with a
    /// typed `OVERSIZED` response before any payload byte is read.
    /// Defaults to [`MAX_FRAME`] (1 MiB).
    pub max_frame_bytes: usize,
    /// Snapshot directory for the durable catalog. When set,
    /// [`Server::bind`] warm-restarts from the newest loadable generation
    /// and [`ServerHandle::shutdown`] flushes a final snapshot.
    pub data_dir: Option<PathBuf>,
    /// Background autosave cadence. Snapshots are only written when the
    /// catalog or the exact-cluster cache actually changed. Requires
    /// `data_dir`.
    pub autosave_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 64,
            request_time_limit: None,
            threads: 1,
            workers: 0,
            cache_entries: 8192,
            backlog: 4096,
            trace_sink: None,
            max_frame_bytes: MAX_FRAME,
            data_dir: None,
            autosave_interval: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_connections", &self.max_connections)
            .field("request_time_limit", &self.request_time_limit)
            .field("threads", &self.threads)
            .field("workers", &self.workers)
            .field("cache_entries", &self.cache_entries)
            .field("backlog", &self.backlog)
            .field("trace_sink", &self.trace_sink.is_some())
            .field("max_frame_bytes", &self.max_frame_bytes)
            .field("data_dir", &self.data_dir)
            .field("autosave_interval", &self.autosave_interval)
            .finish()
    }
}

/// State shared by the event loop, the workers, and the handle.
struct Shared {
    catalog: Arc<SharedCatalog>,
    cache: Arc<StatsCache>,
    config: ServeConfig,
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Graceful drain in progress: EOFs produced by the server
    /// half-closing its own read sides must NOT fire cancel flags, so
    /// in-flight builds finish and their responses go out.
    draining: AtomicBool,
    busy_rejections: AtomicU64,
    panics: AtomicU64,
    /// Requests whose cancel flag was armed (disconnect mid-request or an
    /// explicit `.cancel`).
    request_cancels: AtomicU64,
    /// Serialises snapshot writes (wire `.save`, autosave, final flush).
    save_lock: Mutex<()>,
    /// Catalog version as of the last committed snapshot.
    saved_catalog_version: AtomicU64,
    /// Exact-cluster cache entry count as of the last committed snapshot.
    saved_cluster_entries: AtomicUsize,
}

impl Shared {
    fn set_connections_gauge(&self) {
        dbex_obs::gauge!("server.connections").set(self.active.load(Ordering::SeqCst) as i64);
    }

    /// Whether the catalog or warm-cluster state changed since the last
    /// snapshot (always true on the very first check of a cold start with
    /// tables).
    fn snapshot_dirty(&self) -> bool {
        self.catalog.version() != self.saved_catalog_version.load(Ordering::Acquire)
            || self.cache.exact_cluster_entries()
                != self.saved_cluster_entries.load(Ordering::Acquire)
    }

    /// Writes a snapshot of the shared catalog + cluster cache to the
    /// configured data dir. Serialised by `save_lock` so the wire `.save`,
    /// the autosaver, and the shutdown flush never interleave.
    fn flush_snapshot(&self) -> Result<SaveReport, StoreError> {
        let dir = self.config.data_dir.as_deref().ok_or_else(|| StoreError::NoManifest {
            dir: PathBuf::from("(no --data-dir configured)"),
        })?;
        let _guard = self.save_lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let version = self.catalog.version();
        let tables = self.catalog.snapshot();
        let report = dbex_store::save(&RealVfs, dir, &tables, Some(&self.cache))?;
        self.saved_catalog_version.store(version, Ordering::Release);
        self.saved_cluster_entries.store(report.cluster_entries, Ordering::Release);
        Ok(report)
    }
}

/// One request handed to the job threads. The connection's session moves
/// *into* the job (the loop keeps `None` while a request is in flight) and
/// comes back in the final [`Completion`] — so exactly one thread touches
/// a session at a time, without a lock.
struct Job {
    token: u64,
    request: String,
    session: Box<Session>,
    stream_mode: bool,
    cancel: Arc<AtomicBool>,
    /// The request builds no CAD View ([`RequestClass`]).
    light: bool,
    /// When the loop queued the job; the thread that pops it observes the
    /// wait in `server.queue_wait_ms.light` or `.build`.
    enqueued: Instant,
}

/// What a worker produced for a connection.
enum Done {
    /// An intermediate streamed frame; the request is still running.
    Preview(String),
    /// The request finished: its (possibly tag-spliced) response line and
    /// the session, returned to the loop.
    Final { frame: String, session: Box<Session> },
    /// The request panicked below every inner boundary. The session is
    /// forfeit; the connection closes after this frame flushes.
    Panicked { frame: String },
}

struct Completion {
    token: u64,
    done: Done,
}

/// The loop↔job-thread queues. Jobs are bounded by construction (one in
/// flight per connection ≤ `max_connections`); completions are bounded by
/// jobs plus at most one preview each.
struct Queues {
    jobs: Mutex<JobQueue>,
    /// Idle pool workers wait here.
    pool_cv: Condvar,
    /// The idle interactive executor waits here.
    executor_cv: Condvar,
    completions: Mutex<VecDeque<Completion>>,
    stop: AtomicBool,
    /// Write end of the loop's wake pipe; job threads poke it after
    /// posting a completion. Nonblocking — a full pipe already guarantees
    /// a wake.
    wake: UnixStream,
}

/// The jobs a job thread pops.
#[derive(Clone, Copy)]
enum LaneFilter {
    /// A pool worker: every job.
    All,
    /// The interactive executor: light jobs only, so it never runs a
    /// build.
    LightOnly,
}

/// One priority tier of the [`JobQueue`]: its light jobs and its other
/// jobs, each in a FIFO lane.
#[derive(Default)]
struct Tier {
    light: VecDeque<Job>,
    build: VecDeque<Job>,
}

impl Tier {
    fn len(&self) -> usize {
        self.light.len() + self.build.len()
    }

    /// The tier's oldest job, light or not.
    fn pop_oldest(&mut self) -> Option<Job> {
        let lane = match (self.light.front(), self.build.front()) {
            (Some(light), Some(build)) if build.enqueued < light.enqueued => &mut self.build,
            (Some(_), _) => &mut self.light,
            (None, _) => &mut self.build,
        };
        lane.pop_front()
    }
}

/// The job queue: two priority tiers of two FIFO lanes each, popped by the
/// worker pool and the interactive executor.
///
/// * **Tier.** A connection's first request and every `SUGGEST` ride the
///   *hot* tier, which every thread drains before the *cold* tier.
///   Time-to-first-result is the metric an exploratory UI lives or dies
///   by: when a thousand sessions ramp up against a small pool, a new
///   session's first paint must not queue behind the steady-state grind
///   of established sessions. Suggestions are keystroke-paced, bounded
///   work that is useless once the next keystroke lands. Every connection
///   gets one first request in its lifetime, so cold-tier starvation is
///   bounded by the connection-accept rate (which the connection cap in
///   turn bounds) and by suggestions, which are cheap by construction.
/// * **Lane.** Within a tier, light requests — statements that build no
///   CAD View ([`RequestClass`]): drills, highlights, reorders,
///   suggestions, schema listings — queue apart from the rest.
///
/// Pool workers pop each tier's oldest job, light or not: arrival order,
/// hot before cold. Letting light jobs overtake older builds would keep
/// builds waiting whenever light arrivals outrun the pool. The executor
/// pops light lanes only, hot before cold, and only while no build waits
/// for a pool worker. So a light request starts the moment it is queued
/// even while builds hold every pool worker — the kernel time-slices the
/// executor with the running builds instead of the request waiting for a
/// whole build. Once builds queue too, the pool is the bottleneck, and one
/// more busy thread would only take CPU time from builds that are already
/// late (DESIGN.md, "Scheduling rule", has the measurements). Each
/// connection runs at most one job at a time, so every lane holds at most
/// one entry per connection.
#[derive(Default)]
struct JobQueue {
    hot: Tier,
    cold: Tier,
    /// The executor is parked on `executor_cv` and nothing has claimed it
    /// yet ([`JobQueue::claim_executor`]). Set by the executor when it
    /// parks.
    executor_idle: bool,
}

impl JobQueue {
    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Whether a build waits for a pool worker.
    fn builds_waiting(&self) -> bool {
        !self.hot.build.is_empty() || !self.cold.build.is_empty()
    }

    /// Queues `job` on its lane: the `hot` tier's or the cold tier's, light
    /// or build.
    fn push(&mut self, job: Job, hot: bool) {
        let tier = if hot { &mut self.hot } else { &mut self.cold };
        let lane = if job.light { &mut tier.light } else { &mut tier.build };
        lane.push_back(job);
    }

    fn pop(&mut self, filter: LaneFilter) -> Option<Job> {
        match filter {
            LaneFilter::All => self.hot.pop_oldest().or_else(|| self.cold.pop_oldest()),
            LaneFilter::LightOnly if self.builds_waiting() => None,
            LaneFilter::LightOnly => {
                self.hot.light.pop_front().or_else(|| self.cold.light.pop_front())
            }
        }
    }

    /// Whether the parked executor now has a job it may pop; if so, the
    /// caller must wake it, and no later caller will.
    fn claim_executor(&mut self) -> bool {
        let runnable = !self.builds_waiting() && self.hot.light.len() + self.cold.light.len() > 0;
        runnable && std::mem::take(&mut self.executor_idle)
    }
}

impl Queues {
    /// Queues `job` ([`JobQueue::push`]) and wakes exactly one thread that
    /// can run it: a light job wakes the executor when it is idle and may
    /// pop it, and otherwise one pool worker (so idle workers never sleep
    /// while light jobs pile up behind a busy executor); any other job
    /// wakes one pool worker.
    fn push_job(&self, job: Job, hot: bool) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        jobs.push(job, hot);
        dbex_obs::gauge!("server.queue_depth").set(jobs.len() as i64);
        let wake_executor = jobs.claim_executor();
        drop(jobs);
        if wake_executor {
            self.executor_cv.notify_one();
        } else {
            self.pool_cv.notify_one();
        }
    }

    fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(completion);
        let _ = (&self.wake).write(&[1]);
    }

    fn wake_loop(&self) {
        let _ = (&self.wake).write(&[1]);
    }
}

/// A bound, not-yet-running server. [`Server::spawn`] starts the event
/// loop and worker pool on background threads and returns the controlling
/// handle.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) with
    /// a fresh shared catalog and stats cache, using the configured listen
    /// backlog ([`ServeConfig::backlog`]).
    ///
    /// When [`ServeConfig::data_dir`] is set, the catalog **warm
    /// restarts**: the newest loadable snapshot generation is opened,
    /// its tables registered, and its persisted cluster solutions
    /// rehydrated into the shared stats cache — so the first CAD build
    /// after a crash reuses partitions instead of clustering cold. A
    /// directory with no manifest is a cold start; a directory where
    /// every generation is corrupt fails the bind (serving an empty
    /// catalog where one was expected would be silent data loss).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let catalog = Arc::new(SharedCatalog::new());
        let cache = Arc::new(StatsCache::with_capacity(config.cache_entries));
        if let Some(dir) = &config.data_dir {
            match dbex_store::open(&RealVfs, dir) {
                Ok(report) => {
                    for (name, table) in &report.tables {
                        catalog.insert(name.clone(), Arc::clone(table));
                    }
                    let rehydrated = report.rehydrate_into(&cache);
                    dbex_obs::gauge!("store.rehydrated_clusters").set(rehydrated as i64);
                    if report.fallbacks > 0 {
                        eprintln!(
                            "dbex-serve: recovered generation {} after {} corrupt generation(s)",
                            report.generation, report.fallbacks
                        );
                    }
                }
                Err(StoreError::NoManifest { .. }) => {} // cold start
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("cannot open data dir {}: {e}", dir.display()),
                    ))
                }
            }
        }
        let listener = listen_with_backlog(addr, config.backlog)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            catalog,
            cache,
            config,
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            busy_rejections: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            request_cancels: AtomicU64::new(0),
            save_lock: Mutex::new(()),
            saved_catalog_version: AtomicU64::new(0),
            saved_cluster_entries: AtomicUsize::new(0),
        });
        // The just-recovered state is by definition in sync with disk.
        shared
            .saved_catalog_version
            .store(shared.catalog.version(), Ordering::Release);
        shared
            .saved_cluster_entries
            .store(shared.cache.exact_cluster_entries(), Ordering::Release);
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a table into the shared catalog before (or while)
    /// serving.
    pub fn preload(&self, name: impl Into<String>, table: Table) {
        self.shared.catalog.insert(name, Arc::new(table));
    }

    /// The shared catalog.
    pub fn catalog(&self) -> Arc<SharedCatalog> {
        Arc::clone(&self.shared.catalog)
    }

    /// The process-wide stats cache every session shares.
    pub fn cache(&self) -> Arc<StatsCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Starts the event loop, the worker pool, the interactive executor,
    /// and (when configured) the autosaver on background threads. Fails
    /// only when the OS cannot spawn a thread or create the wake pipe.
    ///
    /// Total server threads: 1 event loop + `workers` + 1 interactive
    /// executor + at most one autosaver — **independent of connection
    /// count**.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        self.listener.set_nonblocking(true)?;
        let queues = Arc::new(Queues {
            jobs: Mutex::new(JobQueue::default()),
            pool_cv: Condvar::new(),
            executor_cv: Condvar::new(),
            completions: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
            wake: wake_tx,
        });
        let workers = match self.shared.config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        let spawn_job_thread = |name: String, filter: LaneFilter| {
            let shared = Arc::clone(&self.shared);
            let queues = Arc::clone(&queues);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared, &queues, filter))
        };
        let mut job_threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let name = format!("dbex-serve-worker-{i}");
            job_threads.push(spawn_job_thread(name, LaneFilter::All)?);
        }
        job_threads.push(spawn_job_thread("dbex-serve-interactive".into(), LaneFilter::LightOnly)?);
        let loop_shared = Arc::clone(&self.shared);
        let loop_queues = Arc::clone(&queues);
        let listener = self.listener;
        let event_loop = std::thread::Builder::new()
            .name("dbex-serve-loop".into())
            .spawn(move || {
                let mut lp = match EventLoop::new(listener, wake_rx, loop_shared, loop_queues) {
                    Ok(lp) => lp,
                    Err(e) => {
                        eprintln!("dbex-serve: cannot start event loop: {e}");
                        return;
                    }
                };
                lp.run();
            })?;
        let autosave = match (&self.shared.config.data_dir, self.shared.config.autosave_interval) {
            (Some(_), Some(interval)) => {
                let shared = Arc::clone(&self.shared);
                Some(
                    std::thread::Builder::new()
                        .name("dbex-serve-autosave".into())
                        .spawn(move || autosave_loop(&shared, interval))?,
                )
            }
            _ => None,
        };
        Ok(ServerHandle {
            addr: self.addr,
            shared: self.shared,
            queues,
            event_loop: Some(event_loop),
            job_threads,
            workers,
            autosave,
        })
    }
}

/// Polls at a short cadence (so shutdown is prompt) and snapshots whenever
/// `interval` has elapsed since the last save **and** something changed.
fn autosave_loop(shared: &Shared, interval: Duration) {
    let mut last_save = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if last_save.elapsed() < interval {
            continue;
        }
        if shared.snapshot_dirty() {
            match shared.flush_snapshot() {
                Ok(report) => {
                    dbex_obs::counter!("store.autosaves").incr(1);
                    dbex_obs::gauge!("store.generation").set(report.generation as i64);
                }
                Err(e) => eprintln!("dbex-serve: autosave failed: {e}"),
            }
        }
        last_save = Instant::now();
    }
}

/// What a graceful shutdown did. Returned by [`ServerHandle::shutdown`];
/// callers that don't persist can ignore it.
#[derive(Debug, Default)]
pub struct ShutdownSummary {
    /// Whether a final snapshot was written (false when no data dir is
    /// configured or nothing changed since the last save).
    pub flushed: bool,
    /// Generation of the final snapshot, when one was written.
    pub generation: Option<u64>,
    /// Rendered error if the final flush failed — the catalog on disk is
    /// then the last successful generation, never a torn one.
    pub flush_error: Option<String>,
}

/// Controls a running server: address, live counters, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queues: Arc<Queues>,
    event_loop: Option<JoinHandle<()>>,
    /// The pool workers and the interactive executor.
    job_threads: Vec<JoinHandle<()>>,
    /// The resolved pool size.
    workers: usize,
    autosave: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared catalog (also reachable by clients via `.load`).
    pub fn catalog(&self) -> Arc<SharedCatalog> {
        Arc::clone(&self.shared.catalog)
    }

    /// The process-wide stats cache every session shares.
    pub fn cache(&self) -> Arc<StatsCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Connections currently open (mirrors the `server.connections` gauge).
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Connections rejected with `BUSY` since startup.
    pub fn busy_rejections(&self) -> u64 {
        self.shared.busy_rejections.load(Ordering::Relaxed)
    }

    /// Panics caught at the worker boundary since startup (always 0
    /// unless there is a bug below the session's own panic boundary).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Requests whose cancel flag was armed — by a client disconnecting
    /// mid-request or by an explicit `.cancel`.
    pub fn request_cancels(&self) -> u64 {
        self.shared.request_cancels.load(Ordering::Relaxed)
    }

    /// The resolved worker-pool size (after `workers: 0` defaulted to the
    /// host's available parallelism). Together with the event loop, the
    /// interactive executor and the optional autosave thread, this bounds
    /// the server's thread count regardless of how many connections are
    /// open.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Gracefully stops the server: stops accepting, drains in-flight
    /// requests so their responses go out (bounded by a 5 s drain deadline),
    /// **joins** the event loop, the workers and the interactive executor,
    /// and — when a data dir is configured — flushes a final snapshot.
    pub fn shutdown(mut self) -> ShutdownSummary {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownSummary {
        let Some(event_loop) = self.event_loop.take() else {
            return ShutdownSummary::default();
        };
        // Drain first, then shutdown: EOFs manufactured by the loop
        // half-closing read sides must see `draining` set so they don't
        // cancel in-flight builds.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.queues.wake_loop();
        let _ = event_loop.join();
        // No loop ⇒ no new jobs. Stop the job threads once the queue
        // drains (each re-checks `stop` between jobs); bounded join so a
        // wedged request is leaked (detached), not waited on forever.
        self.queues.stop.store(true, Ordering::SeqCst);
        self.queues.pool_cv.notify_all();
        self.queues.executor_cv.notify_all();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while Instant::now() < deadline && !self.job_threads.iter().all(|t| t.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
        }
        for thread in self.job_threads.drain(..) {
            if thread.is_finished() {
                let _ = thread.join();
            }
        }
        if let Some(autosave) = self.autosave.take() {
            let _ = autosave.join();
        }

        // Final flush, now that no connection can mutate the catalog.
        let mut summary = ShutdownSummary::default();
        if self.shared.config.data_dir.is_some() && self.shared.snapshot_dirty() {
            match self.shared.flush_snapshot() {
                Ok(report) => {
                    summary.flushed = true;
                    summary.generation = Some(report.generation);
                }
                Err(e) => summary.flush_error = Some(e.to_string()),
            }
        }
        summary
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// One queued item decoded from a connection's byte stream, dispatched in
/// FIFO order.
enum PendingItem {
    Request(String),
    /// Unrecoverable framing error (oversized declaration, bad UTF-8):
    /// answered with a typed error *in order*, then the connection closes.
    Broken(ProtocolError),
}

/// Per-connection state owned by the event loop. No thread, no stack —
/// an idle connection is this struct and a registered fd.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet decoded (a partial frame prefix).
    read_buf: Vec<u8>,
    /// Bytes rendered but not yet written (`write_pos` marks the flushed
    /// prefix).
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Decoded requests awaiting dispatch (≤ [`PIPELINE_DEPTH`]).
    pending: VecDeque<PendingItem>,
    /// One job in flight per connection — the FIFO-order invariant and
    /// the job-queue bound.
    running: bool,
    /// Jobs dispatched to the job threads so far; the first one rides the
    /// hot tier (see [`JobQueue`]). Inline control acks don't count.
    jobs_started: u64,
    /// Client opted into tagged multi-frame responses (`.stream on`).
    stream_mode: bool,
    /// EOF seen (or reads disabled after a framing error).
    read_closed: bool,
    /// Close once `write_buf` drains (protocol error or worker panic).
    close_after_flush: bool,
    /// Hard transport error: close now, discarding unflushed output.
    dead: bool,
    /// Shared with the in-flight job's [`ExecBudget`]; reset by the loop
    /// at dispatch time (single-threaded, so race-free).
    cancel: Arc<AtomicBool>,
    /// `None` while a job holds the session.
    session: Option<Box<Session>>,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn idle(&self) -> bool {
        !self.running && self.pending.is_empty() && self.unflushed() == 0
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && self.pending.len() < PIPELINE_DEPTH,
            writable: self.unflushed() > 0,
        }
    }

    fn queue_line(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }
}

/// The readiness loop: one thread, every socket.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    queues: Arc<Queues>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    events: Vec<Event>,
    /// Tokens that saw IO or completions this iteration and need their
    /// decode/dispatch/interest state settled.
    touched: Vec<u64>,
    drain_started: Option<Instant>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
        queues: Arc<Queues>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(EventLoop {
            poller,
            listener,
            wake_rx,
            shared,
            queues,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            events: Vec::new(),
            touched: Vec::new(),
            drain_started: None,
        })
    }

    fn run(&mut self) {
        loop {
            let timeout = if self.drain_started.is_some() {
                Some(Duration::from_millis(50))
            } else {
                None
            };
            if self.poller.wait(&mut self.events, timeout).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            dbex_obs::counter!("server.loop_iterations").incr(1);
            let events = std::mem::take(&mut self.events);
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => self.conn_ready(token, event),
                }
            }
            self.events = events;
            self.apply_completions();
            self.settle_touched();
            if self.shared.shutdown.load(Ordering::SeqCst) && self.shutdown_step() {
                break;
            }
        }
        // Close whatever survived the drain deadline.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// One drain pass; true when every connection has flushed and closed
    /// (or the deadline expired).
    fn shutdown_step(&mut self) -> bool {
        if self.drain_started.is_none() {
            self.drain_started = Some(Instant::now());
            let _ = self.poller.delete(self.listener.as_raw_fd());
            // Half-close every read side: clients see their writes
            // rejected, our reads return EOF (no cancel — draining).
            for conn in self.conns.values() {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
        }
        let idle_tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle())
            .map(|(t, _)| *t)
            .collect();
        for token in idle_tokens {
            self.close_conn(token);
        }
        let deadline_passed = self
            .drain_started
            .map(|t| t.elapsed() > DRAIN_DEADLINE)
            .unwrap_or(false);
        self.conns.is_empty() || deadline_passed
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            if self.conns.len() >= self.shared.config.max_connections {
                self.reject_busy(stream);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let mut conn = Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                pending: VecDeque::new(),
                running: false,
                jobs_started: 0,
                stream_mode: false,
                read_closed: false,
                close_after_flush: false,
                dead: false,
                cancel: Arc::new(AtomicBool::new(false)),
                session: Some(Box::new(self.new_session())),
                interest: Interest::READ,
            };
            let hello = WireResponse::ok(
                "hello",
                &format!(
                    "dbex-serve ready; max_frame={} bytes, one statement per frame",
                    self.shared.config.max_frame_bytes
                ),
            );
            conn.queue_line(&hello.to_line());
            self.conns.insert(token, conn);
            self.touched.push(token);
            self.shared.active.fetch_add(1, Ordering::SeqCst);
            self.shared.set_connections_gauge();
        }
    }

    /// Backpressure rung 2: typed rejection, never an unbounded queue.
    /// One nonblocking write — a client that can't even take one line
    /// just loses it; the loop is never stalled by a stranger.
    fn reject_busy(&self, stream: TcpStream) {
        self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        dbex_obs::counter!("server.busy_rejections").incr(1);
        let busy = WireResponse::err(
            "BUSY",
            &format!(
                "server at capacity ({} connections)",
                self.shared.config.max_connections
            ),
        );
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(format!("{}\n", busy.to_line()).as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }

    fn new_session(&self) -> Session {
        let mut session = Session::new();
        session.set_catalog(Some(Arc::clone(&self.shared.catalog)));
        session.set_stats_cache(Arc::clone(&self.shared.cache));
        if self.shared.config.threads != 1 {
            session.set_threads(self.shared.config.threads);
        }
        session
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, event: &Event) {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if event.readable || event.hangup {
            Self::fill_read(conn, &self.shared, draining);
        }
        if event.writable || conn.unflushed() > 0 {
            Self::flush_write(conn);
        }
        self.touched.push(token);
    }

    /// Reads until `WouldBlock` or EOF. Decoding happens later in
    /// [`EventLoop::settle_touched`] so bytes that arrived while the
    /// pipeline was full are still decoded once it drains.
    fn fill_read(conn: &mut Conn, shared: &Shared, draining: bool) {
        if conn.read_closed {
            // Still consume (and discard) so a hangup event can't spin.
            let mut sink = [0u8; 4096];
            while matches!((&conn.stream).read(&mut sink), Ok(n) if n > 0) {}
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // Disconnect (or our own drain half-close). Cancel any
                    // in-flight build unless the server is draining.
                    conn.read_closed = true;
                    if !draining && (conn.running || !conn.pending.is_empty()) {
                        conn.cancel.store(true, Ordering::Relaxed);
                        shared.request_cancels.fetch_add(1, Ordering::Relaxed);
                        dbex_obs::counter!("server.request_cancels").incr(1);
                    }
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard transport error mid-stream: the client is gone.
                    if !draining {
                        conn.cancel.store(true, Ordering::Relaxed);
                        shared.request_cancels.fetch_add(1, Ordering::Relaxed);
                        dbex_obs::counter!("server.request_cancels").incr(1);
                    }
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Decodes buffered bytes into pending items, applying the
    /// out-of-band side effects (`.cancel` arms the flag *now*, `.stream`
    /// flips the mode *now*) while still enqueueing each command so its
    /// acknowledgement holds its FIFO position — which is also what
    /// keeps the oracle transcript identical.
    fn decode_pending(conn: &mut Conn, shared: &Shared) {
        let max_frame = shared.config.max_frame_bytes;
        let mut consumed = 0;
        while conn.pending.len() < PIPELINE_DEPTH {
            match decode_frame_with(&conn.read_buf[consumed..], max_frame) {
                Ok(Some((request, used))) => {
                    consumed += used;
                    match request.trim() {
                        ".cancel" if conn.running => {
                            conn.cancel.store(true, Ordering::Relaxed);
                            shared.request_cancels.fetch_add(1, Ordering::Relaxed);
                            dbex_obs::counter!("server.request_cancels").incr(1);
                        }
                        ".stream on" => conn.stream_mode = true,
                        ".stream off" => conn.stream_mode = false,
                        _ => {}
                    }
                    conn.pending.push_back(PendingItem::Request(request));
                }
                Ok(None) => break,
                Err(e) => {
                    dbex_obs::counter!("server.protocol_errors").incr(1);
                    conn.pending.push_back(PendingItem::Broken(e));
                    conn.read_closed = true; // framing unrecoverable
                    conn.read_buf.clear();
                    consumed = 0;
                    break;
                }
            }
        }
        if consumed > 0 {
            conn.read_buf.drain(..consumed);
        }
    }

    /// Flushes the write buffer until `WouldBlock`; writability interest
    /// is (re-)registered by the interest sync when bytes remain.
    fn flush_write(conn: &mut Conn) {
        while conn.write_pos < conn.write_buf.len() {
            match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        } else if conn.write_pos > 64 * 1024 {
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
    }

    /// Starts the next queued request if none is in flight. Protocol
    /// errors surface here, in FIFO position.
    ///
    /// Constant-time control commands (`.ping`, `.stream on|off`,
    /// `.cancel`) never touch the session, so the loop acks them in
    /// place instead of round-tripping through the worker queue — under
    /// a session ramp this keeps a thousand `.stream on` handshakes
    /// from queueing behind each other's first real query. The loop
    /// keeps draining pending items until a real request claims the
    /// worker slot, so an inline ack never stalls the request behind it.
    fn maybe_dispatch(conn: &mut Conn, token: u64, queues: &Queues) {
        while !conn.running && !conn.close_after_flush && !conn.dead {
            match conn.pending.pop_front() {
                None => break,
                Some(PendingItem::Broken(e)) => {
                    let line = WireResponse::err(e.code(), &e.to_string()).to_line();
                    conn.queue_line(&line);
                    conn.close_after_flush = true;
                }
                Some(PendingItem::Request(request)) => {
                    if let Some(ack) = control_ack(&request) {
                        dbex_obs::counter!("server.requests").incr(1);
                        let line = if conn.stream_mode {
                            tag_stream_line(&ack, 0, true)
                        } else {
                            ack
                        };
                        conn.queue_line(&line);
                        Self::flush_write(conn);
                        continue;
                    }
                    let Some(session) = conn.session.take() else {
                        return; // unreachable: !running ⇒ session present
                    };
                    // Fresh flag per request; the loop is the only writer
                    // between requests, so this reset is race-free.
                    conn.cancel.store(false, Ordering::Relaxed);
                    conn.running = true;
                    let class = RequestClass::of(&request);
                    let hot = conn.jobs_started == 0 || class == RequestClass::Suggest;
                    conn.jobs_started += 1;
                    queues.push_job(
                        Job {
                            token,
                            light: class != RequestClass::Build,
                            request,
                            session,
                            stream_mode: conn.stream_mode,
                            cancel: Arc::clone(&conn.cancel),
                            enqueued: Instant::now(),
                        },
                        hot,
                    );
                }
            }
        }
    }

    fn apply_completions(&mut self) {
        loop {
            let completion = self
                .queues
                .completions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front();
            let Some(Completion { token, done }) = completion else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection closed mid-request; drop the result
            };
            match done {
                Done::Preview(frame) => conn.queue_line(&frame),
                Done::Final { frame, session } => {
                    conn.queue_line(&frame);
                    conn.session = Some(session);
                    conn.running = false;
                }
                Done::Panicked { frame } => {
                    conn.queue_line(&frame);
                    conn.running = false;
                    conn.close_after_flush = true;
                }
            }
            Self::flush_write(conn);
            self.touched.push(token);
        }
    }

    /// Settles every connection that saw activity: decode newly buffered
    /// bytes, dispatch the next request, sync poller interest, and close
    /// connections that are finished or dead.
    fn settle_touched(&mut self) {
        let mut tokens = std::mem::take(&mut self.touched);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if !conn.dead {
                Self::decode_pending(conn, &self.shared);
                Self::maybe_dispatch(conn, token, &self.queues);
            }
            let finished = conn.close_after_flush && conn.unflushed() == 0 && !conn.running;
            let disconnected = conn.read_closed && conn.idle();
            if conn.dead || finished || disconnected {
                // A still-running job keeps the conn alive so its session
                // comes home; dead conns drop the session with the conn.
                if !conn.running || conn.dead {
                    self.close_conn(token);
                    continue;
                }
            }
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => continue,
            };
            let desired = conn.desired_interest();
            if desired != conn.interest
                && self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                conn.interest = desired;
            }
        }
        self.touched = tokens;
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
            self.shared.set_connections_gauge();
        }
    }
}

/// A job thread — a pool worker or the interactive executor: pull a job
/// from the lanes `filter` admits, execute it against the job's session,
/// post the frames back. The panic boundary lives in [`run_job`] — a
/// panicking request forfeits its session and closes its connection,
/// nothing else.
fn worker_loop(shared: &Shared, queues: &Queues, filter: LaneFilter) {
    loop {
        let (job, wake_executor) = {
            let mut jobs = queues.jobs.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = jobs.pop(filter) {
                    dbex_obs::gauge!("server.queue_depth").set(jobs.len() as i64);
                    // Taking the last waiting build lets the parked
                    // executor run the light jobs queued behind it.
                    break (Some(job), jobs.claim_executor());
                }
                if queues.stop.load(Ordering::SeqCst) {
                    break (None, false);
                }
                let cv = match filter {
                    LaneFilter::All => &queues.pool_cv,
                    LaneFilter::LightOnly => {
                        jobs.executor_idle = true;
                        &queues.executor_cv
                    }
                };
                let (guard, _) = cv
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner());
                jobs = guard;
            }
        };
        if wake_executor {
            queues.executor_cv.notify_one();
        }
        let Some(job) = job else {
            return;
        };
        let queue_wait = if job.light {
            dbex_obs::histogram!("server.queue_wait_ms.light", QUEUE_WAIT_MS_BOUNDS)
        } else {
            dbex_obs::histogram!("server.queue_wait_ms.build", QUEUE_WAIT_MS_BOUNDS)
        };
        queue_wait.observe_ms(job.enqueued.elapsed());
        run_job(shared, queues, job);
    }
}

fn run_job(shared: &Shared, queues: &Queues, job: Job) {
    let Job {
        token,
        request,
        mut session,
        stream_mode,
        cancel,
        ..
    } = job;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_request(shared, queues, token, &request, &mut session, stream_mode, &cancel)
    }));
    let done = match outcome {
        Ok(frame) => Done::Final { frame, session },
        Err(_) => {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            dbex_obs::counter!("server.panics").incr(1);
            let frame =
                WireResponse::err("PANIC", "request panicked; connection closed").to_line();
            Done::Panicked { frame }
        }
    };
    queues.push_completion(Completion { token, done });
}

/// Executes one request, streaming a preview frame first when the
/// connection opted in, and returns the final response line.
fn execute_request(
    shared: &Shared,
    queues: &Queues,
    token: u64,
    request: &str,
    session: &mut Session,
    stream_mode: bool,
    cancel: &Arc<AtomicBool>,
) -> String {
    let started = Instant::now();
    dbex_obs::counter!("server.requests").incr(1);
    let mut budget = ExecBudget::unlimited().with_cancel_flag(Arc::clone(cancel));
    if let Some(limit) = shared.config.request_time_limit {
        budget = budget.with_time_limit(limit);
    }
    session.set_budget(budget);
    let tracer = if shared.config.trace_sink.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let line = {
        let span = tracer.root("serve_request");
        span.add("request_bytes", request.len() as u64);
        let trimmed = request.trim();
        let mut seq = 0u64;
        if stream_mode && !trimmed.starts_with('.') && !cancel.load(Ordering::Relaxed) {
            let preview_started = Instant::now();
            if let Some(output) = session.preview_create_cadview(trimmed) {
                let frame = WireResponse::ok(output_kind(&output), &output.render())
                    .with_stream_tags(0, false)
                    .to_line();
                dbex_obs::counter!("server.previews").incr(1);
                dbex_obs::histogram!("server.preview_ms", PREVIEW_MS_BOUNDS)
                    .observe_ms(preview_started.elapsed());
                queues.push_completion(Completion {
                    token,
                    done: Done::Preview(frame),
                });
                seq = 1;
            }
        }
        // `.save` needs the server's data dir and save lock, which
        // sessions don't have — intercept it before the shared
        // (oracle-checked) dispatch point.
        let line = if trimmed == ".save" {
            save_request(shared).to_line()
        } else {
            handle_request(session, &shared.catalog, request)
        };
        let line = if stream_mode {
            tag_stream_line(&line, seq, true)
        } else {
            line
        };
        span.add("response_bytes", line.len() as u64);
        line
    };
    if let (Some(sink), Some(trace)) = (&shared.config.trace_sink, tracer.finish()) {
        sink.record(&trace);
    }
    dbex_obs::histogram!("server.request_ms", REQUEST_MS_BOUNDS).observe_ms(started.elapsed());
    line
}

/// Maps a [`QueryOutput`] to its wire `kind` tag.
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

/// How the job queue treats a request (see [`JobQueue`]), decided by its
/// leading whitespace-separated keyword(s), case-insensitively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RequestClass {
    /// A statement that builds no CAD View: `SELECT`, `HIGHLIGHT`,
    /// `REORDER`, `DESCRIBE`/`DESC`, `SHOW`, `DROP`. Rides a light lane.
    Light,
    /// `SUGGEST`, optionally under `EXPLAIN ANALYZE`: light, and
    /// keystroke-paced, so it also rides the hot tier — a suggestion that
    /// arrives after the next keystroke is useless.
    Suggest,
    /// Everything else: `CREATE`, every other `EXPLAIN`, every dot-command
    /// that reaches a job thread, and anything unrecognised.
    Build,
}

impl RequestClass {
    fn of(request: &str) -> RequestClass {
        const LIGHT: &[&str] =
            &["SELECT", "HIGHLIGHT", "REORDER", "DESCRIBE", "DESC", "SHOW", "DROP"];
        let is = |word: Option<&str>, keyword: &str| {
            word.is_some_and(|w| w.eq_ignore_ascii_case(keyword))
        };
        let mut words = request.split_whitespace();
        let first = words.next();
        if is(first, "SUGGEST")
            || (is(first, "EXPLAIN") && is(words.next(), "ANALYZE") && is(words.next(), "SUGGEST"))
        {
            RequestClass::Suggest
        } else if LIGHT.iter().any(|keyword| is(first, keyword)) {
            RequestClass::Light
        } else {
            RequestClass::Build
        }
    }
}

/// Executes one wire request against a session and renders the response
/// line (no trailing newline).
///
/// This is the single dispatch point shared by the live server and
/// [`oracle_transcript`], so a multi-client run can be diffed against a
/// single-session oracle byte for byte.
pub fn handle_request(session: &mut Session, catalog: &Arc<SharedCatalog>, request: &str) -> String {
    let request = request.trim();
    if request.is_empty() {
        return WireResponse::err("REQUEST", "empty request").to_line();
    }
    if let Some(rest) = request.strip_prefix('.') {
        return dot_request(catalog, rest).to_line();
    }
    match session.execute(request) {
        Ok(output) => WireResponse::ok(output_kind(&output), &output.render()).to_line(),
        Err(e) => WireResponse::err(query_error_code(&e), &e.to_string()).to_line(),
    }
}

/// The exact ack line for a control command the event loop answers in
/// place, or `None` for everything that must go to the worker pool.
///
/// Only the constant-time, session-free commands qualify, and only in
/// their canonical spelling — any other form (extra arguments, unknown
/// subcommand) falls through to [`dot_request`] on a worker so the
/// response, including its error text, stays byte-identical to the
/// oracle's.
fn control_ack(request: &str) -> Option<String> {
    let response = match request.trim() {
        ".ping" => WireResponse::ok("text", "pong\n"),
        ".stream on" => WireResponse::ok("text", "streaming on\n"),
        ".stream off" => WireResponse::ok("text", "streaming off\n"),
        ".cancel" => WireResponse::ok("text", "cancel requested\n"),
        _ => return None,
    };
    Some(response.to_line())
}

/// The dot-command subset available over the wire. `.load` mutates the
/// *shared* catalog, so a dataset one client loads is immediately visible
/// to every other connection.
///
/// `.stream` and `.cancel` take effect out of band — the event loop flips
/// the connection's stream mode / arms the cancel flag the moment it
/// decodes the frame — and their canonical spellings are acked by the
/// loop in place (see [`control_ack`]). The arms here cover the
/// non-canonical forms and keep this dispatch point, which the oracle
/// replays, producing the same bytes as the live server.
fn dot_request(catalog: &Arc<SharedCatalog>, rest: &str) -> WireResponse {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    match parts.first().copied() {
        Some("ping") => WireResponse::ok("text", "pong\n"),
        Some("tables") => {
            let names = catalog.names();
            if names.is_empty() {
                WireResponse::ok("text", "(no tables)\n")
            } else {
                WireResponse::ok("text", &format!("{}\n", names.join("\n")))
            }
        }
        Some("metrics") => WireResponse::ok("text", &dbex_obs::global().render()),
        Some("load") => match parse_load(&parts[1..]) {
            Ok((name, rows, table)) => {
                catalog.insert(name, Arc::new(table));
                WireResponse::ok("text", &format!("loaded {name}: {rows} rows\n"))
            }
            Err(message) => WireResponse::err("REQUEST", &message),
        },
        Some("stream") => match parts.get(1).copied() {
            Some("on") => WireResponse::ok("text", "streaming on\n"),
            Some("off") => WireResponse::ok("text", "streaming off\n"),
            _ => WireResponse::err("REQUEST", "usage: .stream on|off"),
        },
        Some("cancel") => WireResponse::ok("text", "cancel requested\n"),
        _ => WireResponse::err(
            "REQUEST",
            &format!(
                ".{rest}: unknown command (try .ping, .tables, .load, .metrics, .save, .stream, .cancel)"
            ),
        ),
    }
}

/// Wire `.save`: snapshot the shared catalog + cluster cache to the
/// configured data dir, serialised against autosave and shutdown.
fn save_request(shared: &Shared) -> WireResponse {
    if shared.config.data_dir.is_none() {
        return WireResponse::err("REQUEST", "server has no --data-dir; nothing to save to");
    }
    match shared.flush_snapshot() {
        Ok(report) => WireResponse::ok(
            "text",
            &format!(
                "saved generation {}: {} table(s), {} segment(s) written, {} reused, {} cluster solution(s)\n",
                report.generation,
                report.tables,
                report.segments_written,
                report.segments_reused,
                report.cluster_entries
            ),
        ),
        Err(e) => WireResponse::err("STORE", &e.to_string()),
    }
}

/// Parses `.load <cars|mushroom|hotels> [rows] [seed]` and generates the
/// dataset (same defaults as the local REPL).
fn parse_load(args: &[&str]) -> Result<(&'static str, usize, Table), String> {
    let which = args.first().copied().unwrap_or("");
    let rows: usize = match args.get(1) {
        Some(s) => s.parse().map_err(|e| format!("bad row count {s:?}: {e}"))?,
        None => 0,
    };
    let seed: u64 = match args.get(2) {
        Some(s) => s.parse().map_err(|e| format!("bad seed {s:?}: {e}"))?,
        None => 42,
    };
    match which {
        "cars" => {
            let rows = if rows == 0 { 40_000 } else { rows };
            Ok(("cars", rows, UsedCarsGenerator::new(seed).generate(rows)))
        }
        "mushroom" => {
            let rows = if rows == 0 {
                dbex_data::mushroom::MUSHROOM_ROWS
            } else {
                rows
            };
            Ok(("mushroom", rows, MushroomGenerator::new(seed).generate(rows)))
        }
        "hotels" => {
            let rows = if rows == 0 { 8_000 } else { rows };
            Ok(("hotels", rows, HotelsGenerator::new(seed).generate(rows)))
        }
        other => Err(format!(
            "usage: .load cars|mushroom|hotels [rows] [seed] (got {other:?})"
        )),
    }
}

/// Replays `requests` through ONE fresh session (its own catalog and
/// stats cache, seeded with `tables`) and returns the response lines a
/// server connection would produce for the same input.
///
/// This is the determinism oracle: rendered output never embeds table
/// ids, timings, or cache state, so N concurrent server clients must each
/// receive exactly these bytes. A *streamed* transcript is compared by
/// dropping non-final frames and stripping the `seq`/`final` tags
/// ([`crate::wire::strip_stream_tags`]) from the rest.
pub fn oracle_transcript(
    tables: impl IntoIterator<Item = (String, Table)>,
    config: &ServeConfig,
    requests: &[impl AsRef<str>],
) -> Vec<String> {
    let catalog = Arc::new(SharedCatalog::new());
    for (name, table) in tables {
        catalog.insert(name, Arc::new(table));
    }
    let mut session = Session::new();
    session.set_catalog(Some(Arc::clone(&catalog)));
    session.set_stats_cache(Arc::new(StatsCache::new()));
    if config.threads != 1 {
        session.set_threads(config.threads);
    }
    if let Some(limit) = config.request_time_limit {
        session.set_budget(ExecBudget::unlimited().with_time_limit(limit));
    }
    requests
        .iter()
        .map(|request| handle_request(&mut session, &catalog, request.as_ref()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::wire::strip_stream_tags;

    fn small_cars() -> Table {
        UsedCarsGenerator::new(7).generate(600)
    }

    fn spawn_server(config: ServeConfig) -> ServerHandle {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        server.preload("cars", small_cars());
        server.spawn().expect("spawn server threads")
    }

    #[test]
    fn request_response_round_trip() {
        let handle = spawn_server(ServeConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        let resp = client.request(".ping").unwrap();
        assert!(resp.ok);
        assert_eq!(resp.text, "pong\n");
        let resp = client
            .request("SELECT Make FROM cars WHERE Make = Jeep LIMIT 2")
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.kind.as_deref(), Some("rows"));
        assert!(resp.text.contains("Jeep"), "{}", resp.text);
        let resp = client.request("SELECT * FROM nope").unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.code.as_deref(), Some("SESSION"));
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn responses_match_the_oracle() {
        let script = [
            ".tables",
            "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2",
            "REORDER ROWS IN v ORDER BY SIMILARITY(Jeep) DESC",
        ];
        let oracle = oracle_transcript(
            vec![("cars".to_owned(), small_cars())],
            &ServeConfig::default(),
            &script,
        );
        let handle = spawn_server(ServeConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        for (request, expected) in script.iter().zip(&oracle) {
            let line = client.request_line(request).unwrap();
            assert_eq!(&line, expected, "divergence on {request}");
        }
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn streamed_frames_strip_to_the_oracle() {
        // A table big enough to clear the preview threshold, so the CAD
        // statement streams two frames.
        let cars = UsedCarsGenerator::new(7).generate(3_000);
        let script = [
            ".stream on",
            "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2",
            ".stream off",
            ".ping",
        ];
        let oracle = oracle_transcript(
            vec![("cars".to_owned(), cars.clone())],
            &ServeConfig::default(),
            &script,
        );
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        server.preload("cars", cars);
        let handle = server.spawn().expect("spawn");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut finals = Vec::new();
        let mut previews = 0;
        for request in &script {
            for line in client.request_stream_lines(request).unwrap() {
                let resp = WireResponse::parse(&line).unwrap();
                if resp.is_final() {
                    finals.push(strip_stream_tags(&line));
                } else {
                    previews += 1;
                    assert_eq!(resp.seq, Some(0));
                    assert_eq!(resp.kind.as_deref(), Some("cad"), "{line}");
                }
            }
        }
        assert_eq!(previews, 1, "exactly the CAD statement should stream a preview");
        assert_eq!(finals, oracle, "stripped finals must equal the oracle");
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn over_cap_connections_get_busy() {
        let handle = spawn_server(ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        });
        let a = Client::connect(handle.addr()).expect("first connect");
        let b = Client::connect(handle.addr()).expect("second connect");
        match Client::connect(handle.addr()) {
            Err(crate::client::ClientError::Busy(_)) => {}
            Err(other) => panic!("expected BUSY, got {other}"),
            Ok(_) => panic!("third connection should be rejected with BUSY"),
        }
        assert_eq!(handle.busy_rejections(), 1);
        drop((a, b));
        handle.shutdown();
    }

    #[test]
    fn load_over_the_wire_is_shared_across_connections() {
        let handle = spawn_server(ServeConfig::default());
        let mut a = Client::connect(handle.addr()).expect("connect a");
        let resp = a.request(".load hotels 400 3").unwrap();
        assert!(resp.ok, "{resp:?}");
        let mut b = Client::connect(handle.addr()).expect("connect b");
        let resp = b.request("SELECT * FROM hotels LIMIT 1").unwrap();
        assert!(resp.ok, "hotels loaded by a should be visible to b: {resp:?}");
        drop((a, b));
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_server_threads_and_zeroes_the_gauge() {
        let handle = spawn_server(ServeConfig::default());
        // Two clients stay connected and idle across the shutdown — the
        // graceful drain must flush, close, and join without burning the
        // whole drain deadline on them.
        let mut a = Client::connect(handle.addr()).expect("connect a");
        let mut b = Client::connect(handle.addr()).expect("connect b");
        assert!(a.request(".ping").unwrap().ok);
        assert!(b.request(".ping").unwrap().ok);
        let shared = Arc::clone(&handle.shared);
        let started = Instant::now();
        let summary = handle.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(3),
            "shutdown took {elapsed:?}; drain is not closing idle connections"
        );
        assert!(!summary.flushed, "no data dir configured");
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
        assert_eq!(shared.panics.load(Ordering::Relaxed), 0);
        // The `server.connections` gauge must be back to 0. Other tests
        // in this binary share the gauge, so poll briefly before failing.
        let deadline = Instant::now() + Duration::from_secs(5);
        let gauge = dbex_obs::gauge!("server.connections");
        while gauge.get() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(gauge.get(), 0, "server.connections gauge did not return to 0");
    }

    #[test]
    fn oversized_round_trips_at_a_non_default_cap() {
        let cap = 512;
        let handle = spawn_server(ServeConfig {
            max_frame_bytes: cap,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(handle.addr()).expect("connect");
        // The hello line advertises the configured cap, not the default.
        assert!(
            client.hello().text.contains("max_frame=512"),
            "hello should advertise the 512-byte cap: {}",
            client.hello().text
        );
        // Under the cap: served normally.
        assert!(client.request(".ping").unwrap().ok);
        // Over the configured cap but far under the 1 MiB default: the
        // server must reject it with a typed OVERSIZED response before
        // reading the payload.
        let big = format!("SELECT Make FROM cars WHERE Make = {}", "x".repeat(600));
        let resp = client.request(&big).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.code.as_deref(), Some("OVERSIZED"));
        assert!(resp.text.contains("512"), "{}", resp.text);
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn warm_restart_from_snapshot_and_shutdown_flush() {
        let dir = std::env::temp_dir().join(format!("dbex-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };

        // First server: loads a table over the wire, then drains; the
        // shutdown flush must persist the catalog.
        let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = Client::connect(handle.addr()).expect("connect");
        assert!(client.request(".load hotels 300 9").unwrap().ok);
        drop(client);
        let summary = handle.shutdown();
        assert!(summary.flushed, "catalog was dirty: {summary:?}");
        assert!(summary.flush_error.is_none(), "{summary:?}");

        // Second server on the same dir: the catalog is already there.
        let server = Server::bind("127.0.0.1:0", config).expect("warm bind");
        assert_eq!(server.catalog().names(), vec!["hotels".to_owned()]);
        let handle = server.spawn().expect("spawn");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let resp = client.request("SELECT * FROM hotels LIMIT 1").unwrap();
        assert!(resp.ok, "recovered table must be queryable: {resp:?}");
        drop(client);
        // Nothing changed since the snapshot: clean shutdown, no flush.
        let summary = handle.shutdown();
        assert!(!summary.flushed, "unchanged catalog must not rewrite: {summary:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wire_save_writes_a_generation() {
        let dir = std::env::temp_dir().join(format!("dbex-serve-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = spawn_server(ServeConfig {
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut client = Client::connect(handle.addr()).expect("connect");
        let resp = client.request(".save").unwrap();
        assert!(resp.ok, "{resp:?}");
        assert!(resp.text.contains("saved generation 1"), "{}", resp.text);
        // Saving again with no changes still commits a (cheap, fully
        // segment-reused) generation on explicit request.
        let resp = client.request(".save").unwrap();
        assert!(resp.ok, "{resp:?}");
        assert!(resp.text.contains("1 reused"), "{}", resp.text);
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_without_data_dir_is_a_typed_error() {
        let handle = spawn_server(ServeConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        let resp = client.request(".save").unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.code.as_deref(), Some("REQUEST"));
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn connection_gauge_returns_to_zero() {
        let handle = spawn_server(ServeConfig::default());
        {
            let _a = Client::connect(handle.addr()).expect("connect");
            let _b = Client::connect(handle.addr()).expect("connect");
            let deadline = Instant::now() + Duration::from_secs(2);
            while handle.active_connections() < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(handle.active_connections(), 2);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.active_connections(), 0);
        assert_eq!(handle.panics(), 0);
        handle.shutdown();
    }

    #[test]
    fn pool_workers_pop_oldest_first_and_the_executor_light_jobs_without_a_backlog() {
        let t0 = Instant::now();
        // (token, hot, light), queued 1 ms apart in this order.
        let arrivals = [
            (1, false, false),
            (2, false, true),
            (3, true, false),
            (4, true, true),
            (5, false, true),
        ];
        let fill = || {
            let mut queue = JobQueue::default();
            for (at, &(token, hot, light)) in arrivals.iter().enumerate() {
                let job = Job {
                    token,
                    request: String::new(),
                    session: Box::new(Session::new()),
                    stream_mode: false,
                    cancel: Arc::new(AtomicBool::new(false)),
                    light,
                    enqueued: t0 + Duration::from_millis(at as u64),
                };
                queue.push(job, hot);
            }
            queue
        };
        let drain = |queue: &mut JobQueue, filter| {
            std::iter::from_fn(|| queue.pop(filter).map(|job| job.token)).collect::<Vec<_>>()
        };

        // A pool worker: the hot tier in arrival order, then the cold one.
        let mut queue = fill();
        assert_eq!(drain(&mut queue, LaneFilter::All), [3, 4, 1, 2, 5]);
        assert_eq!(queue.len(), 0);
        // The executor: light jobs only, the hot tier first, and only once
        // no build waits for a pool worker.
        let mut queue = fill();
        queue.executor_idle = true;
        assert_eq!(drain(&mut queue, LaneFilter::LightOnly), Vec::<u64>::new());
        assert!(!queue.claim_executor());
        let pool: Vec<u64> =
            (0..3).filter_map(|_| queue.pop(LaneFilter::All)).map(|job| job.token).collect();
        assert_eq!(pool, [3, 4, 1]);
        assert!(queue.claim_executor(), "the last waiting build is gone");
        assert!(!queue.claim_executor(), "only one caller wakes the executor");
        assert_eq!(drain(&mut queue, LaneFilter::LightOnly), [2, 5]);
    }

    #[test]
    fn request_classes_follow_the_parsed_statement() {
        use dbex_query::Statement;
        // One spelling per `Statement` variant (two for DESCRIBE and
        // SUGGEST), in mixed case behind leading whitespace.
        let statements = [
            "  sElEcT Make FROM cars WHERE Make = Jeep LIMIT 2",
            "\tcreate CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2",
            " Explain CADVIEW v AS SET pivot = Make FROM cars IUNITS 2",
            "\n explain Analyze CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2",
            "  Highlight SIMILAR IUNITS IN v WHERE SIMILARITY(Jeep, 2) > 1.5",
            "  reorder ROWS IN v ORDER BY SIMILARITY(Jeep) DESC",
            "  Describe cars",
            "  desc cars",
            "  Show CADVIEWS",
            "  dRoP CADVIEW v",
            "  Suggest NEXT FOR v",
            "  suggest COMPLETE SELECT * FROM cars WHERE Make =",
            "\t EXPLAIN analyze Suggest NEXT FOR v",
        ];
        for statement in statements {
            let parsed = dbex_query::parse(statement)
                .unwrap_or_else(|e| panic!("{statement:?} must parse: {e}"));
            let class = match parsed {
                Statement::CreateCadView(_)
                | Statement::ExplainCadView(_)
                | Statement::ExplainAnalyzeCadView(_) => RequestClass::Build,
                Statement::Select(_)
                | Statement::Highlight(_)
                | Statement::Reorder(_)
                | Statement::Describe(_)
                | Statement::ShowCadViews
                | Statement::DropCadView(_) => RequestClass::Light,
                Statement::Suggest(_) => RequestClass::Suggest,
            };
            assert_eq!(RequestClass::of(statement), class, "{statement:?}");
        }
        for dot in [
            ".ping",
            ".tables",
            ".metrics",
            ".load cars 100",
            ".save",
            ".stream on",
            ".stream sideways",
            ".cancel",
            ".select",
            " .unknown",
            "",
            "EXPLAIN",
            "EXPLAIN ANALYZE",
        ] {
            assert_eq!(RequestClass::of(dot), RequestClass::Build, "{dot:?}");
        }
    }

    #[test]
    fn explicit_cancel_is_acked_in_order() {
        let handle = spawn_server(ServeConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        // Nothing running: `.cancel` is a deterministic no-op ack.
        let resp = client.request(".cancel").unwrap();
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.text, "cancel requested\n");
        drop(client);
        handle.shutdown();
    }
}
