//! `perfbench`: the repository benchmark (see README.md beside this
//! package). One binary in four roles:
//!
//! * `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload and prints its metrics; the last stdout line is the result;
//! * `perfbench prepare …` generates the tables, plans the requests and
//!   writes the snapshot the server starts from;
//! * `perfbench serve DIR` is the program under test: a `dbex-serve`
//!   server on the snapshot, in a process of its own;
//! * `perfbench replay …` replays the plan in process, in a fresh process
//!   opened from the same snapshot.

mod client;
mod plan;
mod replay;
mod report;

use client::{Conn, Exchange};
use dbex_core::StatsCache;
use dbex_query::SharedCatalog;
use dbex_serve::{strip_stream_tags, ServeConfig, Server, WireResponse};
use dbex_store::RealVfs;
use plan::{Class, SessionPlan, Workload};
use report::{fnv1a, p50, percentile, Metric, FAILED_LATENCY};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fresh server processes per run. Each serves the same seeded requests
/// for an equal share of the window, and each end-to-end metric is the
/// median over them (`setup_s` over their starts). One process serving the
/// whole window moved the light ops' medians by up to a fifth between
/// runs: the effect of one process's memory layout and of a stretch of
/// host noise both land on a single segment here.
const SEGMENTS: usize = 10;

/// Timed `CREATE CADVIEW` steps planned per second of window: a floor of
/// 1 ms a step, below any streamed build, so the stream never runs out.
const BUILDS_PER_SECOND: usize = 1_000;

/// How far the traced replay's median in-process time may exceed the
/// served median of the same class before reconciliation fails. The two
/// are measured seconds apart, on a host whose speed drifts.
const RECONCILE_SLACK: f64 = 1.25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prepare") => prepare_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("replay") => replay_main(&args[1..]),
        _ => bench_main(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn io_err(what: impl std::fmt::Display) -> impl FnOnce(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn cache_entries() -> usize {
    ServeConfig::default().cache_entries
}

fn snapshot_dir(work: &Path) -> PathBuf {
    work.join("snapshot")
}

fn plan_file(work: &Path) -> PathBuf {
    work.join("plan.tsv")
}

/// Parses `key=value` lines.
fn key_values(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

fn number(map: &BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    map.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("missing or bad {key:?}"))
}

// ---------------------------------------------------------------- prepare

/// `prepare WORK WORKLOAD SEED BUILDS`: tables, plan, and a snapshot whose
/// stats sidecar holds one pass over `explore_hot`'s views. Untimed.
fn prepare_main(args: &[String]) -> Result<(), String> {
    let [work, workload, seed, builds] = args else {
        return Err("usage: perfbench prepare WORK WORKLOAD SEED BUILDS".into());
    };
    let work = Path::new(work);
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let builds: usize = builds.parse().map_err(|_| "bad build count")?;

    let tables = plan::tables();
    let catalog = Arc::new(SharedCatalog::new());
    for (name, table) in &tables {
        catalog.insert(name.clone(), Arc::clone(table));
    }
    let (cars, synth) = (&tables[0].1, &tables[1].1);
    let plans = plan::build(workload, seed, builds, cars, synth)?;
    std::fs::write(plan_file(work), plan::encode(&plans)).map_err(io_err("write plan"))?;

    let cache = Arc::new(StatsCache::with_capacity(cache_entries()));
    let hot = plan::build(Workload::ExploreHot, seed, 0, cars, synth)?;
    let mut session = replay::server_like_session(&catalog, &cache);
    for request in &hot[0].warm {
        let (_, line) = replay::serve_like(&mut session, &catalog, &request.text);
        if !WireResponse::parse(&line).is_ok_and(|r| r.ok) {
            return Err(format!(
                "working-set request failed: {} -> {line}",
                request.text
            ));
        }
    }
    let started = Instant::now();
    let saved = dbex_store::save(
        &RealVfs,
        &snapshot_dir(work),
        &catalog.snapshot(),
        Some(&cache),
    )
    .map_err(|e| format!("save snapshot: {e}"))?;
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    println!("save_ms={save_ms:?}");
    println!("snapshot_bytes={}", saved.bytes_written);
    for (name, table) in &tables {
        println!("rows.{name}={}", table.num_rows());
    }
    Ok(())
}

// ------------------------------------------------------------------ serve

/// `serve DIR`: bind an ephemeral port, print it, serve until stdin closes.
fn serve_main(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("usage: perfbench serve SNAPSHOT_DIR".into());
    };
    let config = ServeConfig {
        workers: 1,
        threads: 1,
        data_dir: Some(PathBuf::from(dir)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(io_err("bind"))?;
    let port = server.local_addr().port();
    let _handle = server.spawn().map_err(io_err("spawn"))?;
    println!("{port}");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    // Exit without the graceful shutdown: its final flush would write a
    // new snapshot generation, and the next start must open the same one.
    std::process::exit(0)
}

/// A server process. Dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServerProc {
    fn start(exe: &Path, snapshot: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(io_err("start server"))?;
        let stdout = child.stdout.take();
        let mut server = ServerProc {
            stdin: child.stdin.take(),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        if let Some(out) = stdout {
            BufReader::new(out)
                .read_line(&mut line)
                .map_err(io_err("read server port"))?;
        }
        let port: u16 = line
            .trim()
            .parse()
            .map_err(|_| format!("server did not report a port (got {line:?})"))?;
        server.addr.set_port(port);
        Ok(server)
    }

    /// Peak resident set (VmHWM) so far, in MiB.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(io_err("read server status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".into())
    }

    /// Closes stdin, which makes the server exit, and reaps it.
    fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(io_err("wait for server"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("server exited with {status}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ----------------------------------------------------------------- replay

/// `replay WORK TRACE COUNTS CHECKPOINT`: replay each session's warm
/// requests and first COUNTS[s] timed requests; CHECKPOINT 0 = none.
fn replay_main(args: &[String]) -> Result<(), String> {
    let [work, trace, counts, checkpoint] = args else {
        return Err("usage: perfbench replay WORK TRACE COUNTS CHECKPOINT".into());
    };
    let work = Path::new(work);
    let counts: Vec<usize> = counts
        .split(',')
        .map(|c| c.parse().map_err(|_| format!("bad count {c:?}")))
        .collect::<Result<_, _>>()?;
    let checkpoint: usize = checkpoint.parse().map_err(|_| "bad checkpoint")?;
    let opened = dbex_store::open(&RealVfs, &snapshot_dir(work))
        .map_err(|e| format!("open snapshot: {e}"))?;
    let catalog = Arc::new(SharedCatalog::new());
    for (name, table) in &opened.tables {
        catalog.insert(name.clone(), Arc::clone(table));
    }
    let cache = Arc::new(StatsCache::with_capacity(cache_entries()));
    let rehydrated = opened.rehydrate_into(&cache);
    let text = std::fs::read_to_string(plan_file(work)).map_err(io_err("read plan"))?;
    let plans = plan::decode(&text)?;
    let outcome = replay::replay(
        &catalog,
        &cache,
        &plans,
        &counts,
        (checkpoint > 0).then_some(checkpoint),
        trace == "1",
    )?;
    std::fs::write(work.join(format!("replay-{trace}.tsv")), outcome.transcript)
        .map_err(io_err("write transcript"))?;
    print!("{}", outcome.summary);
    println!("store.rehydrated_clusters={rehydrated}");
    Ok(())
}

/// Runs `perfbench <args>` to completion and returns its stdout.
fn run_child(exe: &Path, args: &[String]) -> Result<String, String> {
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(io_err(format!("run {}", args[0])))?;
    if !out.status.success() {
        return Err(format!("{} step failed with {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{} printed non-UTF-8", args[0]))
}

// -------------------------------------------------------------- the bench

/// Pins this thread to the last CPU it may run on, and with it every
/// thread and process it starts afterwards (the server, the clients, the
/// replays). Each request hops between the client, the server's loop and
/// its worker; a hop to another CPU waits for that CPU to wake, which on
/// a virtual machine costs a varying few tens of microseconds, and where
/// the scheduler placed the threads changed from run to run. Pinned, the
/// spread of five runs halved. Returns the CPU.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    // `cpu_set_t`: 1,024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in this thread's affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning to one CPU needs Linux".into())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perfbench --workload cad_cold|explore_hot|shared_worker --seed N --seconds S --trace 0|1";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// The run's work directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let path = Path::new(".perfbench-work").join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(io_err("create work dir"))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One request as the client saw it.
struct Record {
    class: Class,
    first_ms: f64,
    final_ms: f64,
    ok: bool,
    frames: usize,
    bytes: usize,
    preview_hash: Option<u64>,
    final_hash: u64,
}

impl Record {
    fn from_exchange(class: Class, ex: &Exchange) -> Record {
        let final_line = ex.final_frame();
        let preview_hash =
            (ex.frames.len() > 1).then(|| fnv1a(strip_stream_tags(&ex.frames[0].1).as_bytes()));
        Record {
            class,
            first_ms: ex.first_ms(),
            final_ms: ex.final_ms(),
            ok: WireResponse::parse(final_line).is_ok_and(|r| r.ok),
            frames: ex.frames.len(),
            bytes: ex.frames.iter().map(|(_, l)| l.len() + 1).sum(),
            preview_hash,
            final_hash: fnv1a(strip_stream_tags(final_line).as_bytes()),
        }
    }

    fn failed(class: Class) -> Record {
        Record {
            class,
            first_ms: FAILED_LATENCY,
            final_ms: FAILED_LATENCY,
            ok: false,
            frames: 0,
            bytes: 0,
            preview_hash: None,
            final_hash: 0,
        }
    }
}

/// One connection's run: warm records, then timed records.
struct SessionRun {
    warm: Vec<Record>,
    timed: Vec<Record>,
    started: Instant,
    finished: Instant,
    /// Server counters read after the checkpoint's timed request.
    checkpoint: Option<BTreeMap<String, f64>>,
}

/// Parses a `.metrics` dump: counters and gauges by name, histograms as
/// `name.count` and `name.sum`.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["counter" | "gauge", name, value] => {
                if let Ok(v) = value.parse() {
                    out.insert((*name).to_owned(), v);
                }
            }
            ["histogram", name, rest @ ..] => {
                for field in rest {
                    for key in ["count", "sum"] {
                        if let Some(v) = field.strip_prefix(key).and_then(|f| f.strip_prefix('=')) {
                            if let Ok(v) = v.parse() {
                                out.insert(format!("{name}.{key}"), v);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn scrape_metrics(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let ex = conn.exchange(".metrics")?;
    let response = WireResponse::parse(ex.final_frame()).map_err(|e| e.to_string())?;
    Ok(parse_metrics(&response.text))
}

/// Paces `shared_worker`'s session B on session A's builds: B sends its
/// next request once A's next preview frame has arrived, that is, while
/// the exact build that follows the preview holds the only worker.
/// Unpaced, the number of B's requests that slip in between two of A's
/// builds depends on a race between the two clients' turnaround times,
/// and B's medians jumped between runs.
#[derive(Default)]
struct Gate {
    /// Previews seen so far, and whether A has stopped.
    state: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl Gate {
    fn update(&self, f: impl FnOnce(&mut (u64, bool))) {
        f(&mut self.state.lock().expect("gate lock"));
        self.cv.notify_all();
    }

    /// Waits for a preview later than `seen`; false once A has stopped.
    fn wait(&self, seen: &mut u64) -> bool {
        let mut state = self.state.lock().expect("gate lock");
        while state.0 <= *seen && !state.1 {
            state = self.cv.wait(state).expect("gate lock");
        }
        let fresh = state.0 > *seen;
        *seen = state.0;
        fresh
    }
}

/// Stops the followers when the leading session ends, however it ends.
struct CloseGate<'a>(&'a Gate);

impl Drop for CloseGate<'_> {
    fn drop(&mut self) {
        self.0.update(|s| s.1 = true);
    }
}

#[derive(Clone, Copy)]
enum Pace<'a> {
    Free,
    Leads(&'a Gate),
    Follows(&'a Gate),
}

/// Drives one connection: `.stream on`, the warm requests, then timed
/// requests back to back until `window` has passed since the barrier.
fn drive(
    addr: SocketAddr,
    plan: &SessionPlan,
    window: Duration,
    barrier: &Barrier,
    checkpoint: Option<usize>,
    pace: Pace<'_>,
) -> Result<SessionRun, String> {
    let _close = match pace {
        Pace::Leads(gate) => Some(CloseGate(gate)),
        _ => None,
    };
    let set_up = (|| {
        let mut conn = Conn::connect(addr)?;
        conn.exchange(".stream on")?;
        let mut warm = Vec::with_capacity(plan.warm.len());
        for request in &plan.warm {
            warm.push(Record::from_exchange(
                request.class,
                &conn.exchange(&request.text)?,
            ));
        }
        Ok::<_, String>((conn, warm))
    })();
    // Every session reaches the barrier, even one whose set-up failed.
    barrier.wait();
    let (mut conn, warm) = set_up?;
    let started = Instant::now();
    let mut timed = Vec::new();
    let mut scraped = None;
    let mut seen = 0;
    while started.elapsed() < window {
        if let Pace::Follows(gate) = pace {
            if !gate.wait(&mut seen) {
                break;
            }
        }
        if checkpoint == Some(timed.len()) {
            scraped = Some(scrape_metrics(&mut conn)?);
        }
        let request = plan
            .timed_request(timed.len())
            .ok_or("the request plan ran out before the window ended")?;
        let exchanged = match pace {
            Pace::Leads(gate) => conn.exchange_with(&request.text, || gate.update(|s| s.0 += 1)),
            _ => conn.exchange(&request.text),
        };
        match exchanged {
            Ok(ex) => timed.push(Record::from_exchange(request.class, &ex)),
            Err(e) => {
                eprintln!("perfbench: request failed in transport: {e}");
                timed.push(Record::failed(request.class));
                break;
            }
        }
    }
    Ok(SessionRun {
        warm,
        timed,
        started,
        finished: Instant::now(),
        checkpoint: scraped,
    })
}

/// One replay child's results.
struct ReplayRun {
    summary: BTreeMap<String, String>,
    /// `(session, index into warm ++ timed) -> (preview hash, final hash, in-process ms)`.
    lines: BTreeMap<(usize, usize), (Option<u64>, u64, f64)>,
}

fn run_replay(
    exe: &Path,
    work: &Path,
    traced: bool,
    counts: &[usize],
    checkpoint: Option<usize>,
) -> Result<ReplayRun, String> {
    let trace = if traced { "1" } else { "0" };
    let counts: Vec<String> = counts.iter().map(usize::to_string).collect();
    let stdout = run_child(
        exe,
        &[
            "replay".into(),
            work.display().to_string(),
            trace.into(),
            counts.join(","),
            checkpoint.unwrap_or(0).to_string(),
        ],
    )?;
    let transcript = std::fs::read_to_string(work.join(format!("replay-{trace}.tsv")))
        .map_err(io_err("read replay transcript"))?;
    let mut lines = BTreeMap::new();
    for line in transcript.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (|| {
            let [s, _, i, preview, fin, ns] = f.as_slice() else {
                return None;
            };
            let preview = match *preview {
                "-" => None,
                p => Some(p.parse().ok()?),
            };
            let ns: f64 = ns.parse().ok()?;
            Some((
                (s.parse().ok()?, i.parse().ok()?),
                (preview, fin.parse().ok()?, ns / 1e6),
            ))
        })()
        .ok_or_else(|| format!("bad transcript line {line:?}"))?;
        lines.insert(parsed.0, parsed.1);
    }
    Ok(ReplayRun {
        summary: key_values(&stdout),
        lines,
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let exe = std::env::current_exe().map_err(io_err("locate own binary"))?;
    // Read before pinning, which narrows it to one.
    let hardware_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = pin_to_one_cpu()
        .map_err(|e| eprintln!("perfbench: running unpinned: {e}"))
        .ok();
    let workload = args.workload;
    let work = WorkDir::create(&format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ))?;
    let work = work.0.as_path();

    // Untimed: tables, plan, snapshot.
    let builds = BUILDS_PER_SECOND * args.seconds as usize + 100;
    let prepared = key_values(&run_child(
        &exe,
        &[
            "prepare".into(),
            work.display().to_string(),
            workload.name().into(),
            args.seed.to_string(),
            builds.to_string(),
        ],
    )?);
    let plans =
        plan::decode(&std::fs::read_to_string(plan_file(work)).map_err(io_err("read plan"))?)?;

    let prefix = workload.checked_prefix();
    let checkpoint = workload.deterministic().then_some(prefix[0]);
    let window = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let mut segments = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        segments.push(run_segment(
            &exe,
            &snapshot_dir(work),
            workload,
            &plans,
            window,
            checkpoint,
        )?);
    }
    let timed_counts: Vec<Vec<usize>> = segments
        .iter()
        .map(|seg| seg.runs.iter().map(|r| r.timed.len()).collect())
        .collect();

    // Replays: the prefix every segment reached; when traced, everything
    // the first segment sent.
    let checked: Vec<usize> = prefix
        .iter()
        .enumerate()
        .map(|(s, &p)| timed_counts.iter().map(|c| c[s]).fold(p, usize::min))
        .collect();
    let plain = run_replay(&exe, work, false, &checked, checkpoint)?;
    let traced = if args.trace {
        Some(run_replay(&exe, work, true, &timed_counts[0], None)?)
    } else {
        None
    };

    let mut problems = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        let mut found = Vec::new();
        let replays = std::iter::once(&plain).chain(if k == 0 { traced.as_ref() } else { None });
        check_outputs(&seg.runs, replays, &mut found);
        check_determinism(&seg.runs, checkpoint, &plain, &seg.server_end, &mut found)?;
        problems.extend(found.into_iter().map(|p| format!("segment {k}: {p}")));
    }
    let metrics = match &traced {
        None => end_to_end_metrics(&segments),
        Some(traced) => layer_metrics(
            &segments[0].runs,
            traced,
            &plain,
            &prepared,
            &segments[0].server_end,
            &mut problems,
        )?,
    };

    println!(
        "{}",
        provenance(
            &args,
            &prepared,
            &timed_counts,
            &checked,
            (hardware_threads, pinned_cpu)
        )
    );
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let timed = || {
        segments
            .iter()
            .flat_map(|seg| &seg.runs)
            .flat_map(|r| &r.timed)
    };
    let attempted = timed().count() as u64;
    let failed = timed().filter(|r| !r.ok).count() as u64;
    println!(
        "{}",
        report::result_line(problems.is_empty(), attempted, failed, &metrics)
    );
    Ok(())
}

/// One fresh server process and what its clients saw.
struct Segment {
    /// Spawn (store open, rehydrate, bind, spawn) to the answer of the
    /// first request.
    setup_s: f64,
    runs: Vec<SessionRun>,
    /// The server's `.metrics` after the window.
    server_end: BTreeMap<String, f64>,
    rss_mb: f64,
}

/// Starts a server on the snapshot, times its start, and runs every
/// session's plan from the beginning against it for `window`.
fn run_segment(
    exe: &Path,
    snapshot: &Path,
    workload: Workload,
    plans: &[SessionPlan],
    window: Duration,
    checkpoint: Option<usize>,
) -> Result<Segment, String> {
    let started = Instant::now();
    let server = ServerProc::start(exe, snapshot)?;
    let ping = Conn::connect(server.addr)?.exchange(".ping")?;
    if !WireResponse::parse(ping.final_frame()).is_ok_and(|r| r.ok) {
        return Err("server did not answer .ping".into());
    }
    let setup_s = started.elapsed().as_secs_f64();
    let runs = run_sessions(workload, plans, server.addr, window, checkpoint)?;
    let server_end = scrape_metrics(&mut Conn::connect(server.addr)?)?;
    let rss_mb = server.peak_rss_mib()?;
    server.stop()?;
    Ok(Segment {
        setup_s,
        runs,
        server_end,
        rss_mb,
    })
}

/// Runs every session's closed loop on a thread of its own.
fn run_sessions(
    workload: Workload,
    plans: &[SessionPlan],
    addr: SocketAddr,
    window: Duration,
    checkpoint: Option<usize>,
) -> Result<Vec<SessionRun>, String> {
    let barrier = Barrier::new(plans.len());
    let gate = Gate::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(s, plan)| {
                let (barrier, gate) = (&barrier, &gate);
                let checkpoint = if s == 0 { checkpoint } else { None };
                let pace = match (workload, s) {
                    (Workload::SharedWorker, 0) => Pace::Leads(gate),
                    (Workload::SharedWorker, _) => Pace::Follows(gate),
                    _ => Pace::Free,
                };
                scope.spawn(move || drive(addr, plan, window, barrier, checkpoint, pace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

/// Output check: every final frame is `ok`, and every replayed request's
/// frames are byte-identical to the served ones.
fn check_outputs<'a>(
    runs: &[SessionRun],
    replays: impl Iterator<Item = &'a ReplayRun>,
    problems: &mut Vec<String>,
) {
    for replay in replays {
        let mismatched: Vec<&(usize, usize)> = replay
            .lines
            .iter()
            .filter(|(&(s, i), &(preview, fin, _))| {
                let run = &runs[s];
                let record = run
                    .warm
                    .get(i)
                    .or_else(|| run.timed.get(i - run.warm.len()));
                !record.is_some_and(|r| r.preview_hash == preview && r.final_hash == fin)
            })
            .map(|(key, _)| key)
            .collect();
        if let Some((s, i)) = mismatched.first() {
            problems.push(format!(
                "{} replayed requests differ from the served frames, first session {s} request {i}",
                mismatched.len()
            ));
        }
    }
    for (s, run) in runs.iter().enumerate() {
        if let Some(i) = run.warm.iter().position(|r| !r.ok) {
            problems.push(format!("session {s} warm request {i} failed"));
        }
        let failed = run.timed.iter().filter(|r| !r.ok).count();
        if failed > 0 {
            problems.push(format!("session {s}: {failed} timed requests failed"));
        }
    }
}

/// Determinism guard: the server's work counts at the checkpoint equal the
/// replay's for the same requests, and both processes rehydrated the same
/// clusters from the snapshot.
fn check_determinism(
    runs: &[SessionRun],
    checkpoint: Option<usize>,
    plain: &ReplayRun,
    server_end: &BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    if let Some(k) = checkpoint {
        let Some(served) = &runs[0].checkpoint else {
            problems.push(format!(
                "window ended before the checkpoint at {k} requests"
            ));
            return Ok(());
        };
        let names = replay::GUARD_COUNTERS
            .iter()
            .copied()
            .chain(["server.previews"]);
        for name in names {
            let served = served.get(name).copied().unwrap_or(0.0);
            let replayed = number(&plain.summary, &format!("checkpoint.{name}"))?;
            if served != replayed {
                problems.push(format!(
                    "determinism guard: {name} is {served} served but {replayed} replayed"
                ));
            }
        }
    }
    let served = server_end
        .get("store.rehydrated_clusters")
        .copied()
        .unwrap_or(0.0);
    let replayed = number(&plain.summary, "store.rehydrated_clusters")?;
    if served != replayed || served == 0.0 {
        problems.push(format!(
            "the server rehydrated {served} clusters, the replay {replayed}"
        ));
    }
    Ok(())
}

/// The untraced run's metrics: each the median over the segments, except
/// `ok_rate`, which is the worst segment's.
fn end_to_end_metrics(segments: &[Segment]) -> Vec<Metric> {
    let per_segment: Vec<Vec<Metric>> = segments.iter().map(segment_metrics).collect();
    per_segment[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_segment.iter().map(|ms| ms[i].value).collect();
            let value = if m.name == "ok_rate" {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                p50(&values)
            };
            Metric::new(m.name.clone(), value, m.unit)
        })
        .collect()
}

/// One segment's end-to-end metrics. A failed request counts as missing
/// every latency percentile of its class.
fn segment_metrics(segment: &Segment) -> Vec<Metric> {
    let runs = &segment.runs;
    let timed = || runs.iter().flat_map(|r| &r.timed);
    let latencies = |class: Class, first: bool| -> Vec<f64> {
        timed()
            .filter(|r| r.class == class)
            .map(|r| match (r.ok, first) {
                (false, _) => FAILED_LATENCY,
                (true, true) => r.first_ms,
                (true, false) => r.final_ms,
            })
            .collect()
    };
    let p95 = |samples: &[f64]| percentile(samples, 95.0).unwrap_or(0.0);
    let attempted = timed().count();
    let failed = timed().filter(|r| !r.ok).count();
    let started = runs.iter().map(|r| r.started).min();
    let finished = runs.iter().map(|r| r.finished).max();
    let elapsed = match (started, finished) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let cad_first = latencies(Class::Cad, true);
    let cad_final = latencies(Class::Cad, false);
    vec![
        Metric::new("setup_s", segment.setup_s, "s"),
        Metric::new("cad_first_ms_p50", p50(&cad_first), "ms"),
        Metric::new("cad_first_ms_p95", p95(&cad_first), "ms"),
        Metric::new("cad_final_ms_p50", p50(&cad_final), "ms"),
        Metric::new("cad_final_ms_p95", p95(&cad_final), "ms"),
        Metric::new(
            "interact_ms_p50",
            p50(&latencies(Class::Interact, false)),
            "ms",
        ),
        Metric::new(
            "suggest_ms_p50",
            p50(&latencies(Class::Suggest, false)),
            "ms",
        ),
        Metric::new(
            "ops_per_s",
            report::ratio((attempted - failed) as f64, elapsed),
            "1/s",
        ),
        Metric::new(
            "ok_rate",
            report::ok_rate(attempted as u64, failed as u64),
            "ratio",
        ),
        Metric::new("rss_mb", segment.rss_mb, "MiB"),
    ]
}

/// The provenance line printed before the result.
fn provenance(
    args: &Args,
    prepared: &BTreeMap<String, String>,
    timed: &[Vec<usize>],
    checked: &[usize],
    (hardware_threads, pinned_cpu): (usize, Option<usize>),
) -> String {
    let fields = [
        ("workload", report::json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("rows", {
            let rows: Vec<String> = prepared
                .iter()
                .filter_map(|(k, v)| {
                    Some(format!(
                        "{}: {v}",
                        report::json_string(k.strip_prefix("rows.")?)
                    ))
                })
                .collect();
            format!("{{{}}}", rows.join(", "))
        }),
        (
            "working_set_views",
            (plan::HOT_PIVOTS.len() * plan::HOT_PREDICATES).to_string(),
        ),
        ("cache_entries", cache_entries().to_string()),
        ("server_workers", "1".into()),
        ("server_threads", "1".into()),
        ("segments", SEGMENTS.to_string()),
        (
            "pinned_cpu",
            pinned_cpu.map_or("null".into(), |c| c.to_string()),
        ),
        ("timed_requests", format!("{timed:?}")),
        ("checked_requests", format!("{checked:?}")),
        ("hardware_threads", hardware_threads.to_string()),
        (
            "kernel_dispatch",
            report::json_string(dbex_stats::simd::dispatch().name()),
        ),
        ("git_rev", report::json_string(&git_rev())),
    ];
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::json_string(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

/// The traced run's per-layer metrics: the replay's layer samples joined
/// with what the client and the server saw.
fn layer_metrics(
    runs: &[SessionRun],
    traced: &ReplayRun,
    plain: &ReplayRun,
    prepared: &BTreeMap<String, String>,
    server_end: &BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    // Client latency minus in-process time, per timed request.
    let gaps = |s: usize, keep: &dyn Fn(Class) -> bool| -> Vec<f64> {
        let run = &runs[s];
        run.timed
            .iter()
            .enumerate()
            .filter(|(_, r)| r.ok && keep(r.class))
            .filter_map(|(i, r)| {
                traced
                    .lines
                    .get(&(s, run.warm.len() + i))
                    .map(|&(_, _, inproc)| r.final_ms - inproc)
            })
            .collect()
    };
    let overhead = gaps(0, &|_| true);
    let wait = gaps(runs.len() - 1, &|c| c != Class::Cad);

    // Reconciliation: in-process time within the client latency, by class.
    for class in [Class::Cad, Class::Interact, Class::Suggest] {
        let mut client = Vec::new();
        let mut inproc = Vec::new();
        for (s, run) in runs.iter().enumerate() {
            for (i, r) in run
                .timed
                .iter()
                .enumerate()
                .filter(|(_, r)| r.class == class)
            {
                if let Some(&(_, _, ms)) = traced.lines.get(&(s, run.warm.len() + i)) {
                    client.push(r.final_ms);
                    inproc.push(ms);
                }
            }
        }
        if !client.is_empty() && p50(&inproc) > p50(&client) * RECONCILE_SLACK {
            problems.push(format!(
                "reconciliation: {} in-process p50 {:.3}ms exceeds the client p50 {:.3}ms",
                class.name(),
                p50(&inproc),
                p50(&client)
            ));
        }
    }

    // Tracing cost: the same prefix replayed with and without spans.
    let (mut with, mut without) = (0.0, 0.0);
    for (key, &(_, _, ms)) in &plain.lines {
        if let Some(&(_, _, traced_ms)) = traced.lines.get(key) {
            if key.1 >= runs[key.0].warm.len() {
                without += ms;
                with += traced_ms;
            }
        }
    }

    let timed = || runs.iter().flat_map(|r| &r.timed);
    let ops = timed().count() as f64;
    let cads: Vec<&Record> = timed().filter(|r| r.class == Class::Cad).collect();
    let mut metrics = vec![
        Metric::new("serve.overhead_ms_p50", p50(&overhead), "ms"),
        Metric::new("serve.wait_ms_p50", p50(&wait), "ms"),
        Metric::new(
            "serve.frames_per_cad",
            report::ratio(
                cads.iter().map(|r| r.frames as f64).sum(),
                cads.len() as f64,
            ),
            "frames",
        ),
        Metric::new(
            "serve.response_bytes_per_op",
            report::ratio(timed().map(|r| r.bytes as f64).sum(), ops),
            "bytes",
        ),
        Metric::new(
            "serve.failed_ops",
            timed().filter(|r| !r.ok).count() as f64,
            "count",
        ),
    ];
    let units = |name: &str| match name {
        n if n.ends_with("_us_p50") => "us",
        n if n.contains("_ms_p50") => "ms",
        n if n.ends_with("_ratio") => "ratio",
        "table.rows_scanned_per_op"
        | "cad.rows_scanned_per_build"
        | "cluster.rows_clustered_per_build" => "rows",
        "stats.cache_evictions_per_op" => "entries",
        _ => "count",
    };
    for (name, value) in &traced.summary {
        if name.starts_with("checkpoint.") || name == "store.rehydrated_clusters" {
            continue;
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad layer value {name}={value}"))?;
        metrics.push(Metric::new(name.clone(), value, units(name)));
    }
    let rows: f64 = prepared
        .iter()
        .filter(|(k, _)| k.starts_with("rows."))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum();
    metrics.extend([
        Metric::new(
            "store.open_ms",
            server_end.get("store.open_ms.sum").copied().unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "store.rehydrated_clusters",
            server_end
                .get("store.rehydrated_clusters")
                .copied()
                .unwrap_or(0.0),
            "count",
        ),
        Metric::new(
            "store.snapshot_bytes_per_row",
            number(prepared, "snapshot_bytes")? / rows,
            "bytes",
        ),
        Metric::new("store.save_ms", number(prepared, "save_ms")?, "ms"),
        Metric::new(
            "obs.trace_overhead_pct",
            if without > 0.0 {
                100.0 * (with / without - 1.0)
            } else {
                0.0
            },
            "%",
        ),
    ]);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_dump_parses() {
        let dump = "metrics registry\n  counter    cad.builds        12\n  gauge      store.rehydrated_clusters  48\n  histogram  store.open_ms     count=1 sum=17.250 le1:0 inf:0 nan:0\n";
        let m = parse_metrics(dump);
        assert_eq!(m["cad.builds"], 12.0);
        assert_eq!(m["store.rehydrated_clusters"], 48.0);
        assert_eq!(m["store.open_ms.count"], 1.0);
        assert_eq!(m["store.open_ms.sum"], 17.25);
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "cad_cold",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::CadCold, 3, 10, true)
        );
        let mut bad = ok.clone();
        bad[7] = "2".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
        let mut unknown = ok.clone();
        unknown[1] = "nope".into();
        assert!(parse_args(&unknown).is_err());
    }
}
