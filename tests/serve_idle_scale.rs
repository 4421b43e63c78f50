//! Connection count must be decoupled from thread count: ~10k mostly-idle
//! connections held open against one server, with the process's thread
//! count and resident set staying flat. This is the property the evented
//! rewrite exists for — the old server spent two threads (and two stacks)
//! per connection, which capped it at a few hundred sessions.
//!
//! This test lives alone in its binary: it asserts on `/proc/self/task`
//! (process-wide), so concurrently running sibling tests would pollute
//! the count.

#![cfg(target_os = "linux")]

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::serve::{Client, ServeConfig, Server};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Soft fd limit from `/proc/self/limits` ("Max open files").
fn fd_soft_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .expect("parse soft fd limit")
}

/// Threads in this process right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

/// Resident set size in KiB from `/proc/self/status`.
fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("parse VmRSS")
}

#[test]
fn ten_thousand_idle_connections_on_a_fixed_thread_budget() {
    // Each held connection costs two fds (client end + server end); leave
    // headroom for the binary's own files, sockets, and the poller.
    let target = 10_000.min((fd_soft_limit().saturating_sub(200)) / 2);
    assert!(target >= 1_000, "fd limit too low to say anything interesting");

    // A fixed pool, so the absolute thread cap below holds on any host.
    let config = ServeConfig {
        max_connections: target + 16,
        backlog: 8_192,
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.preload("cars", UsedCarsGenerator::new(5).generate(500));
    let handle = server.spawn().expect("spawn server threads");
    let addr = handle.addr();

    let threads_before = thread_count();
    let rss_before = rss_kib();

    // Hold raw sockets: each one is accepted, greeted, and then sits idle
    // in the poller. Nothing here spawns a thread per connection on the
    // client side either, or the test machine would be the bottleneck.
    let mut held = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => panic!("connect {i} of {target} failed: {e}"),
        }
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.active_connections() < target {
        assert!(
            Instant::now() < deadline,
            "server accepted only {} of {target} connections",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // "Mostly idle": with every slot occupied, real clients still get
    // real answers — the loop is polling, not drowning.
    let mut active = Client::connect(addr).expect("connect an active client");
    active.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    for _ in 0..5 {
        let resp = active.request(".ping").expect("ping with 10k conns open");
        assert!(resp.ok);
    }
    drop(active);

    // The whole point: thread count is loop + workers + executor (+ slack
    // for the test harness), not O(connections); and idle connections hold
    // no stacks or read buffers, so RSS stays within a small fixed budget.
    let threads_during = thread_count();
    assert!(
        threads_during <= threads_before + 4 && threads_during < 20,
        "{target} connections inflated the thread count: {threads_before} -> {threads_during}"
    );
    let rss_during = rss_kib();
    let rss_delta_kib = rss_during.saturating_sub(rss_before);
    assert!(
        rss_delta_kib < 150 * 1024,
        "{target} idle connections cost {rss_delta_kib} KiB of RSS (budget 150 MiB)"
    );

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connection slot(s) leaked after mass disconnect",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.panics(), 0);
    handle.shutdown();
    println!(
        "idle-scale: {target} connections, {threads_during} threads, +{rss_delta_kib} KiB RSS"
    );
}
