//! `dbex` — interactive DBExplorer shell.
//!
//! An exploratory-search REPL over the query language, with the synthetic
//! datasets and CSV files as data sources:
//!
//! ```text
//! $ cargo run --release --bin dbex
//! dbex> .load cars 40000
//! dbex> CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV IUNITS 3;
//! dbex> HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 3.0;
//! dbex> .quit
//! ```
//!
//! Dot-commands: `.load cars|mushroom|hotels [rows] [seed]`,
//! `.open <path> <name> [--lossy]`, `.budget [time MS] [iters N]`,
//! `.threads [N|auto]`, `.trace [on|off]`, `.suggest <view|partial>`,
//! `.metrics`, `.tables`, `.summary <table>`, `.help`, `.quit`.
//! Everything else is fed to the SQL engine (statements may span lines;
//! terminate with `;`).
//!
//! The shell never dies on bad input: missing or malformed CSV files, bad
//! `.load` arguments, SQL errors, and even statements that panic inside the
//! engine all print a diagnostic and return to the prompt.

use dbexplorer::core::ExecBudget;
use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::query::{QueryOutput, Session};
use dbexplorer::serve::{Client, ClientError, ServeConfig, Server};
use dbexplorer::store::{RealVfs, StoreError};
use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Std-only POSIX signal shim: flags SIGINT/SIGTERM so `--serve` can
/// drain connections and flush a final snapshot instead of dying with
/// whatever half-written state the kernel interrupts.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)`. The handler must be async-signal-safe: ours
        // only stores to an atomic.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn termination_requested() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

/// Non-unix fallback: no signal handling; `--serve` runs until killed.
#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn termination_requested() -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            std::process::exit(run_serve(&args[1..]));
        }
        Some("--connect") => {
            std::process::exit(run_connect(&args[1..]));
        }
        Some("--help" | "-h") => {
            println!(
                "usage: dbex                                  interactive local shell\n\
                 \x20      dbex --serve <addr> [--max-conns N] [--time-limit-ms N] [--threads N]\n\
                 \x20                  [--workers N] [--cache-entries N] [--backlog N]\n\
                 \x20                  [--data-dir DIR] [--autosave-ms N] [--max-frame-bytes N]\n\
                 \x20                                           serve the wire protocol on <addr>;\n\
                 \x20                                           with --data-dir, warm-restart from\n\
                 \x20                                           DIR and flush a snapshot on Ctrl-C\n\
                 \x20      dbex --connect <addr>                REPL against a running server"
            );
            return;
        }
        Some(other) => {
            eprintln!("unknown flag {other}; try --help");
            std::process::exit(2);
        }
        None => {}
    }
    run_repl();
}

/// `dbex --serve <addr>`: bind (warm-restarting from `--data-dir` when
/// given), preload nothing (clients `.load` into the shared catalog), and
/// serve until SIGINT/SIGTERM — then drain connections, flush a final
/// snapshot, and exit 0.
fn run_serve(args: &[String]) -> i32 {
    let usage = "usage: dbex --serve <addr> [--max-conns N] [--time-limit-ms N] [--threads N] \
                 [--workers N] [--cache-entries N] [--backlog N] \
                 [--data-dir DIR] [--autosave-ms N] [--max-frame-bytes N]";
    let Some(addr) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let mut config = ServeConfig::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(raw) = it.next() else {
            eprintln!("{flag} needs a value");
            return 2;
        };
        if flag.as_str() == "--data-dir" {
            config.data_dir = Some(PathBuf::from(raw));
            continue;
        }
        let parsed: u64 = match raw.parse() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bad value {raw:?} for {flag}: {e}");
                return 2;
            }
        };
        match flag.as_str() {
            "--max-conns" => config.max_connections = parsed as usize,
            "--time-limit-ms" => config.request_time_limit = Some(Duration::from_millis(parsed)),
            "--threads" => config.threads = parsed as usize,
            "--workers" => config.workers = parsed as usize,
            "--cache-entries" => config.cache_entries = (parsed as usize).max(1),
            "--backlog" => config.backlog = parsed.min(u64::from(u32::MAX)) as u32,
            "--max-frame-bytes" => config.max_frame_bytes = parsed as usize,
            "--autosave-ms" => config.autosave_interval = Some(Duration::from_millis(parsed)),
            other => {
                eprintln!("unknown flag {other} for --serve");
                return 2;
            }
        }
    }
    if config.autosave_interval.is_some() && config.data_dir.is_none() {
        eprintln!("--autosave-ms requires --data-dir");
        return 2;
    }
    let server = match Server::bind(addr.as_str(), config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!(
        "dbex-serve listening on {} (max {} connections{}{})",
        server.local_addr(),
        config.max_connections,
        match config.request_time_limit {
            Some(limit) => format!(", {}ms/request", limit.as_millis()),
            None => String::new(),
        },
        match &config.data_dir {
            Some(dir) => format!(
                ", {} table(s) from {}",
                server.catalog().len(),
                dir.display()
            ),
            None => String::new(),
        }
    );
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start the server threads: {e}");
            return 1;
        }
    };
    // Serve until a termination signal arrives; then drain gracefully.
    sig::install();
    while !sig::termination_requested() {
        std::thread::park_timeout(Duration::from_millis(200));
    }
    println!("dbex-serve: shutting down (draining connections)");
    let summary = handle.shutdown();
    if let Some(err) = &summary.flush_error {
        eprintln!("dbex-serve: final snapshot failed: {err}");
        return 1;
    }
    match summary.generation {
        Some(generation) => println!("dbex-serve: flushed snapshot generation {generation}"),
        None => println!("dbex-serve: nothing to flush"),
    }
    0
}

/// `dbex --connect <addr>`: the familiar REPL surface, but every
/// statement travels the wire and the rendered text comes back from the
/// server (byte-identical to the local shell's output).
fn run_connect(args: &[String]) -> i32 {
    let Some(addr) = args.first() else {
        eprintln!("usage: dbex --connect <addr>");
        return 2;
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(ClientError::Busy(msg)) => {
            eprintln!("server busy: {msg}");
            return 1;
        }
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    println!("connected to {addr} — {}", client.hello().text);
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("dbex> ");
        } else {
            print!("  ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        // Mid-statement `.suggest`: inline completion for the partial
        // statement typed so far, without consuming the buffer.
        if !buffer.is_empty() && trimmed == ".suggest" {
            let sql = format!("SUGGEST COMPLETE {}", buffer.trim());
            if !send_and_print(&mut client, &sql) {
                return 1;
            }
            continue;
        }
        if buffer.is_empty() && trimmed.starts_with('.') {
            if trimmed == ".quit" || trimmed == ".exit" {
                break;
            }
            // `.suggest` is client-side sugar for the SUGGEST statement,
            // so the wire sees the same request a plain SQL client sends.
            if let Some(rest) = trimmed.strip_prefix(".suggest") {
                match suggest_to_sql(rest) {
                    Some(sql) => {
                        if !send_and_print(&mut client, &sql) {
                            return 1;
                        }
                    }
                    None => println!("usage: .suggest <view>  or  .suggest <partial statement>"),
                }
                continue;
            }
            if !send_and_print(&mut client, trimmed) {
                return 1;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') || trimmed.is_empty() {
            let statement = std::mem::take(&mut buffer);
            if !statement.trim().is_empty() && !send_and_print(&mut client, statement.trim()) {
                return 1;
            }
        }
    }
    0
}

/// Sends one request and prints every response frame until the final
/// one — after `.stream on` an expensive build answers with a tagged
/// preview frame first, and an untagged response is final by
/// construction, so this loop serves both modes. Returns `false` when
/// the connection is unusable (the caller exits).
fn send_and_print(client: &mut Client, request: &str) -> bool {
    if let Err(e) = client.send_only(request) {
        eprintln!("connection lost: {e}");
        return false;
    }
    loop {
        match client.read_response() {
            Ok(resp) => {
                if resp.ok {
                    if !resp.is_final() {
                        println!("-- preview (exact answer follows) --");
                    }
                    print!("{}", resp.text);
                } else {
                    println!(
                        "error [{}]: {}",
                        resp.code.as_deref().unwrap_or("?"),
                        resp.text
                    );
                }
                if resp.is_final() {
                    return true;
                }
            }
            Err(e) => {
                eprintln!("connection lost: {e}");
                return false;
            }
        }
    }
}

fn run_repl() {
    let mut shell = Shell::new();
    println!("DBExplorer shell — .help for commands, .quit to exit");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("dbex> ");
        } else {
            print!("  ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => {
                // EOF. A non-empty buffer means the input ended mid-statement
                // (no terminating ';'): diagnose instead of silently dropping.
                let pending = buffer.trim();
                if !pending.is_empty() {
                    let first = pending.lines().next().unwrap_or("");
                    eprintln!(
                        "warning: input ended mid-statement (statements end with ';'); \
                         discarding: {first}..."
                    );
                }
                break;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        // Mid-statement `.suggest`: inline completion for the partial
        // statement typed so far (e.g. after a dangling WHERE), without
        // consuming the buffer.
        if !buffer.is_empty() && trimmed == ".suggest" {
            shell.run_sql(&format!("SUGGEST COMPLETE {}", buffer.trim()));
            continue;
        }
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !shell.dot_command(trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') || trimmed.is_empty() {
            let statement = std::mem::take(&mut buffer);
            if !statement.trim().is_empty() {
                shell.run_sql(&statement);
            }
        }
    }
}

/// REPL state: a session plus the set of registered table names.
struct Shell {
    session: Session,
    tables: BTreeSet<String>,
}

impl Shell {
    fn new() -> Shell {
        Shell {
            session: Session::new(),
            tables: BTreeSet::new(),
        }
    }

    /// Handles a `.command`; returns `false` to exit the REPL.
    fn dot_command(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            ".quit" | ".exit" => return false,
            ".help" => {
                let help = [
                    ".load cars [rows] [seed]      register the synthetic used-car table",
                    ".load mushroom [rows] [seed]  register the synthetic mushroom table",
                    ".load hotels [rows] [seed]    register the synthetic hotels table",
                    ".open <path> <name> [--lossy] load a CSV file as <name>; with --lossy,",
                    "                              skip bad rows instead of aborting",
                    ".open <dir>                   open a saved snapshot directory (tables +",
                    "                              cached cluster solutions)",
                    ".save <dir>                   write a checksummed snapshot of every",
                    "                              registered table (atomic, generational)",
                    ".budget [time MS] [iters N] | off",
                    "                              limit CAD View builds (degrade, don't fail)",
                    ".threads [N|auto]             CAD build parallelism (1 = sequential;",
                    "                              auto = DBEX_THREADS or hardware cores)",
                    ".trace [on|off]               trace CAD builds (per-phase span tree;",
                    "                              bare .trace shows the current state)",
                    ".suggest <view>               rank next-step attributes for a CAD View",
                    "                              by information gain against its pivot",
                    ".suggest <partial statement>  rank completions for a partial WHERE;",
                    "                              mid-statement, bare .suggest completes",
                    "                              the statement typed so far",
                    ".metrics                      dump the process-wide metrics registry",
                    ".tables                       list registered tables",
                    ".summary <table>              per-column statistics",
                    ".quit                         exit",
                    "Any other input is SQL (end statements with ';'):",
                    "SELECT, CREATE CADVIEW, EXPLAIN [ANALYZE], DESCRIBE, HIGHLIGHT, REORDER,",
                    "SUGGEST NEXT FOR <view>, SUGGEST COMPLETE <prefix>",
                ];
                println!("{}", help.join("\n"));
            }
            ".load" => self.load(&parts),
            ".suggest" => {
                let rest = line.strip_prefix(".suggest").unwrap_or("");
                match suggest_to_sql(rest) {
                    Some(sql) => self.run_sql(&sql),
                    None => println!("usage: .suggest <view>  or  .suggest <partial statement>"),
                }
            }
            ".open" => self.open(&parts),
            ".save" => self.save(&parts),
            ".budget" => self.budget(&parts),
            ".threads" => self.threads(&parts),
            ".trace" => self.trace(&parts),
            ".metrics" => print!("{}", dbexplorer::obs::global().render()),
            ".tables" => {
                for t in &self.tables {
                    println!("{t}");
                }
            }
            ".summary" => {
                if let Some(name) = parts.get(1) {
                    match self.session.table(name) {
                        Ok(table) => {
                            for s in table.summaries() {
                                println!("{}", s.render());
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                } else {
                    println!("usage: .summary <table>");
                }
            }
            other => println!("unknown command {other}; try .help"),
        }
        true
    }

    fn load(&mut self, parts: &[&str]) {
        let which = parts.get(1).copied().unwrap_or("");
        // A malformed count is a diagnostic, not a silent default.
        let rows: usize = match parts.get(2) {
            Some(s) => match s.parse() {
                Ok(n) => n,
                Err(e) => {
                    println!("bad row count {s:?}: {e}");
                    return;
                }
            },
            None => 0,
        };
        let seed: u64 = match parts.get(3) {
            Some(s) => match s.parse() {
                Ok(n) => n,
                Err(e) => {
                    println!("bad seed {s:?}: {e}");
                    return;
                }
            },
            None => 42,
        };
        match which {
            "cars" => {
                let rows = if rows == 0 { 40_000 } else { rows };
                let table = UsedCarsGenerator::new(seed).generate(rows);
                println!("loaded cars: {rows} rows");
                self.session.register_table("cars", table);
                self.tables.insert("cars".into());
            }
            "mushroom" => {
                let rows = if rows == 0 {
                    dbexplorer::data::mushroom::MUSHROOM_ROWS
                } else {
                    rows
                };
                let table = MushroomGenerator::new(seed).generate(rows);
                println!("loaded mushroom: {rows} rows");
                self.session.register_table("mushroom", table);
                self.tables.insert("mushroom".into());
            }
            "hotels" => {
                let rows = if rows == 0 { 8_000 } else { rows };
                let table = HotelsGenerator::new(seed).generate(rows);
                println!("loaded hotels: {rows} rows");
                self.session.register_table("hotels", table);
                self.tables.insert("hotels".into());
            }
            _ => println!("usage: .load cars|mushroom|hotels [rows] [seed]"),
        }
    }

    fn open(&mut self, parts: &[&str]) {
        let lossy = parts.contains(&"--lossy");
        let args: Vec<&str> = parts[1..].iter().copied().filter(|p| *p != "--lossy").collect();
        // One bare argument is a snapshot directory; two is a CSV import.
        if args.len() == 1 && !lossy {
            self.open_snapshot(args[0]);
            return;
        }
        let (Some(path), Some(name)) = (args.first(), args.get(1)) else {
            println!("usage: .open <path> <name> [--lossy]  or  .open <dir>");
            return;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                println!("cannot read {path}: {e}");
                return;
            }
        };
        let (table, skipped) = if lossy {
            match dbexplorer::table::parse_csv_lossy(&text) {
                Ok(import) => {
                    for w in &import.warnings {
                        println!("warning: skipped row: {w}");
                    }
                    let skipped = import.skipped();
                    (import.table, skipped)
                }
                Err(e) => {
                    println!("{e}");
                    return;
                }
            }
        } else {
            match dbexplorer::table::parse_csv(&text) {
                Ok(table) => (table, 0),
                Err(e) => {
                    println!("{e} (retry with --lossy to skip bad rows)");
                    return;
                }
            }
        };
        print!("loaded {name}: {} rows, {} columns", table.num_rows(), table.num_columns());
        if skipped > 0 {
            print!(" ({skipped} bad rows skipped)");
        }
        println!();
        self.session.register_table(name.to_string(), table);
        self.tables.insert(name.to_string());
    }

    /// `.open <dir>`: load the newest consistent snapshot generation from a
    /// `.save` directory, registering every table and rehydrating any
    /// persisted cluster solutions into the session's stats cache.
    fn open_snapshot(&mut self, dir: &str) {
        let report = match dbexplorer::store::open(&RealVfs, Path::new(dir)) {
            Ok(report) => report,
            Err(StoreError::NoManifest { .. }) => {
                println!("no snapshot found in {dir}");
                return;
            }
            Err(e) => {
                println!("cannot open snapshot {dir}: {e}");
                return;
            }
        };
        if report.fallbacks > 0 {
            println!(
                "warning: newest generation unreadable; fell back {} generation(s)",
                report.fallbacks
            );
        }
        let rehydrated = report.rehydrate_into(self.session.stats_cache());
        for (name, table) in &report.tables {
            println!("opened {name}: {} rows", table.num_rows());
            self.tables.insert(name.clone());
        }
        for (name, table) in report.tables {
            self.session.register_shared(name, table);
        }
        self.session.mark_catalog_saved();
        println!(
            "snapshot generation {}: {} table(s), {} cached cluster solution(s)",
            report.generation,
            self.tables.len(),
            rehydrated
        );
    }

    /// `.save <dir>`: write an atomic, checksummed snapshot of every
    /// registered table plus the exact-key cluster solutions in the cache.
    fn save(&mut self, parts: &[&str]) {
        let Some(dir) = parts.get(1) else {
            println!("usage: .save <dir>");
            return;
        };
        let tables = self.session.tables_snapshot();
        if tables.is_empty() {
            println!("nothing to save: no tables registered");
            return;
        }
        match dbexplorer::store::save(
            &RealVfs,
            Path::new(dir),
            &tables,
            Some(self.session.stats_cache()),
        ) {
            Ok(report) => {
                self.session.mark_catalog_saved();
                println!(
                    "saved generation {}: {} table(s), {} segment(s) written, {} reused, \
                     {} cluster solution(s)",
                    report.generation,
                    report.tables,
                    report.segments_written,
                    report.segments_reused,
                    report.cluster_entries
                );
            }
            Err(e) => println!("save failed: {e}"),
        }
    }

    /// `.budget [time MS] [iters N]` tightens the session budget;
    /// `.budget off` clears it; bare `.budget` shows it.
    fn budget(&mut self, parts: &[&str]) {
        if parts.len() == 1 {
            println!("budget: {}", render_budget(self.session.budget()));
            return;
        }
        if parts[1] == "off" {
            self.session.set_budget(ExecBudget::unlimited());
            println!("budget: unlimited");
            return;
        }
        let mut budget = self.session.budget().clone();
        let mut it = parts[1..].iter();
        while let Some(key) = it.next() {
            let Some(raw) = it.next() else {
                println!("usage: .budget [time MS] [iters N] | off");
                return;
            };
            let value: usize = match raw.parse() {
                Ok(v) => v,
                Err(e) => {
                    println!("bad value {raw:?} for {key}: {e}");
                    return;
                }
            };
            match *key {
                "time" => budget = budget.with_time_limit(Duration::from_millis(value as u64)),
                "iters" => budget = budget.with_kmeans_iters(value),
                other => {
                    println!("unknown budget limit {other}; expected time or iters");
                    return;
                }
            }
        }
        println!("budget: {}", render_budget(&budget));
        self.session.set_budget(budget);
    }

    /// `.threads N` pins the CAD build pool size; `.threads auto` resolves
    /// from `DBEX_THREADS` / hardware; bare `.threads` shows the setting.
    fn threads(&mut self, parts: &[&str]) {
        match parts.get(1) {
            None => match self.session.threads() {
                Some(0) => println!("threads: auto"),
                Some(n) => println!("threads: {n}"),
                None => println!("threads: 1 (sequential)"),
            },
            Some(&"auto") => {
                self.session.set_threads(0);
                println!("threads: auto");
            }
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => {
                    self.session.set_threads(n);
                    if n == 0 {
                        println!("threads: auto");
                    } else {
                        println!("threads: {n}");
                    }
                }
                Err(e) => println!("bad thread count {raw:?}: {e} (expected N or auto)"),
            },
        }
    }

    /// `.trace on|off` toggles per-build span tracing; bare `.trace`
    /// shows the current state.
    fn trace(&mut self, parts: &[&str]) {
        match parts.get(1) {
            None => println!(
                "trace: {}",
                if self.session.tracing() { "on" } else { "off" }
            ),
            Some(&"on") => {
                self.session.set_tracing(true);
                println!("trace: on");
            }
            Some(&"off") => {
                self.session.set_tracing(false);
                println!("trace: off");
            }
            Some(other) => println!("unknown trace mode {other}; expected on or off"),
        }
    }

    fn run_sql(&mut self, sql: &str) {
        match self.session.execute(sql) {
            Ok(output) => print_output(&output),
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Translates the tail of a `.suggest` dot-command into its SQL `SUGGEST`
/// statement: a single bare word is a stored CAD View name (`SUGGEST NEXT
/// FOR v`); anything longer is a partial statement prefix (`SUGGEST
/// COMPLETE ...`). Both the local shell and `--connect` route through
/// this, so the wire sees the same request a plain SQL client sends and
/// the rendered output is byte-identical.
fn suggest_to_sql(rest: &str) -> Option<String> {
    let rest = rest.trim();
    if rest.is_empty() {
        return None;
    }
    let single_word = rest.split_whitespace().count() == 1
        && rest
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_');
    if single_word {
        Some(format!("SUGGEST NEXT FOR {rest}"))
    } else {
        Some(format!("SUGGEST COMPLETE {rest}"))
    }
}

fn render_budget(budget: &ExecBudget) -> String {
    if budget.is_unlimited() {
        return "unlimited".to_owned();
    }
    let mut limits = Vec::new();
    if let Some(limit) = budget.time_limit {
        limits.push(format!("time<={}ms", limit.as_millis()));
    }
    if let Some(iters) = budget.max_kmeans_iters {
        limits.push(format!("iters<={iters}"));
    }
    limits.join(", ")
}

fn print_output(output: &QueryOutput) {
    print!("{}", output.render());
}
