//! Adversarial clients against the evented server: peers that are slow,
//! greedy, or gone are the scenarios a readiness loop exists to survive.
//!
//! * **Slow loris** — a client delivering its frame one byte per write
//!   must cost the loop one cheap decode attempt per readiness event,
//!   and still get a full response once the frame completes.
//! * **Never reads** — a client that pipelines requests and never drains
//!   its socket must hit the server's write-side backpressure
//!   (`WouldBlock` → buffered bytes + write-interest re-registration)
//!   without wedging the loop for everyone else.
//! * **Mid-preview disconnect** — a streaming client that vanishes after
//!   the preview frame must arm the in-flight exact build's cancel flag
//!   and release the connection slot.
//! * **Busy pool** — while another connection's exact build holds the
//!   only pool worker, a light request (a drill, a suggestion) must run
//!   on the interactive executor instead of waiting for the build.
//!
//! All assertions use per-server `ServerHandle` counters, not the
//! process-wide gauges, so these tests can share a binary. The one
//! process-wide histogram read here is only checked to have grown.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::serve::{
    encode_frame, oracle_transcript, strip_stream_tags, Client, ServeConfig, Server, ServerHandle,
    WireResponse,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn spawn_server(rows: usize) -> ServerHandle {
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    server.preload("cars", UsedCarsGenerator::new(11).generate(rows));
    server.spawn().expect("spawn server threads")
}

/// Reads one newline-terminated response line from a raw socket.
fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("server closed before completing a response line"),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => panic!("read failed mid-line: {e}"),
        }
    }
    String::from_utf8(line).expect("response line is UTF-8")
}

fn wait_for_connections(handle: &ServerHandle, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_connections() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: still {} connection(s), want {want}",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One byte per write, a pause between each: the frame decoder must
/// accumulate across dozens of readiness events and answer normally —
/// twice, to prove the per-connection state machine resets cleanly.
#[test]
fn slow_loris_frames_decode_across_readiness_events() {
    let handle = spawn_server(500);
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).ok();
    let hello = read_line(&mut raw);
    assert!(hello.contains("dbex-serve ready"), "unexpected hello: {hello}");

    for _ in 0..2 {
        let frame = encode_frame(".ping").expect("encode .ping");
        for byte in &frame {
            raw.write_all(std::slice::from_ref(byte)).expect("write one byte");
            raw.flush().ok();
            std::thread::sleep(Duration::from_millis(2));
        }
        let response = read_line(&mut raw);
        assert!(
            response.contains("\"ok\":true") && response.contains("pong"),
            "slow-loris frame got a wrong answer: {response}"
        );
    }

    assert_eq!(handle.panics(), 0);
    drop(raw);
    wait_for_connections(&handle, 0, "after the loris left");
    handle.shutdown();
}

/// A client that pipelines far more work than it ever reads back. The
/// server must buffer what the socket won't take, keep serving other
/// connections promptly, and discard everything when the hoarder leaves.
#[test]
fn never_reading_client_does_not_wedge_the_loop() {
    let handle = spawn_server(6_000);
    let mut hoarder = Client::connect(handle.addr()).expect("connect hoarder");
    // ~64 bulky responses (a few hundred KB each) against a socket nobody
    // drains: the send buffer fills, and the overflow must live in the
    // server's write buffer under re-registered write interest.
    for _ in 0..64 {
        hoarder
            .send_only("SELECT Make, Model, Price FROM cars LIMIT 5000")
            .expect("pipeline request");
    }

    // The loop must still answer everyone else with single-digit-ms
    // round-trips' worth of responsiveness (bounded generously).
    let mut other = Client::connect(handle.addr()).expect("connect bystander");
    other.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    for _ in 0..5 {
        let resp = other.request(".ping").expect("bystander ping during backpressure");
        assert!(resp.ok, "bystander ping failed: {resp:?}");
    }

    // The hoarder vanishes with megabytes still queued for it; the server
    // must drop the buffered bytes and release the slot.
    drop(hoarder);
    wait_for_connections(&handle, 1, "after the hoarder left");

    let resp = other.request(".ping").expect("bystander ping after cleanup");
    assert!(resp.ok);
    assert_eq!(handle.panics(), 0);
    drop(other);
    wait_for_connections(&handle, 0, "after all clients left");
    handle.shutdown();
}

/// A streaming client that disconnects between the preview frame and the
/// exact answer: the loop must arm the running request's cancel flag
/// (the `BudgetGauge` then abandons the exact build early) and close the
/// connection once the worker comes home.
///
/// The exact phase must clearly outlast the loop's handling of the EOF,
/// or the build completes before the disconnect is read and there is
/// nothing left to cancel. With 6,000 rows it takes some 30 ms in the
/// unoptimised profile `cargo test` builds but only 1–2 ms in an
/// optimised one — within a scheduler tick when the loop and the worker
/// share a CPU — so an optimised build clusters 200,000 rows (25–50 ms).
#[test]
fn mid_preview_disconnect_cancels_the_exact_build() {
    let rows = if cfg!(debug_assertions) { 6_000 } else { 200_000 };
    let handle = spawn_server(rows);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ack = client.request(".stream on").expect("enable streaming");
    assert!(ack.ok, "{ack:?}");

    client
        .send_only("CREATE CADVIEW big AS SET pivot = Make FROM cars LIMIT COLUMNS 3 IUNITS 3")
        .expect("send CAD build");
    let preview = client.read_response().expect("read preview frame");
    assert!(preview.ok, "preview frame not ok: {preview:?}");
    assert_eq!(preview.seq, Some(0), "first frame must be seq 0");
    assert!(!preview.is_final(), "first frame of a streamed CAD build must be a preview");

    // Gone before the exact frame: the read-side EOF arrives while the
    // worker is still building.
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.request_cancels() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.request_cancels() > 0,
        "disconnect mid-preview never armed the request cancel flag"
    );
    wait_for_connections(&handle, 0, "after the streaming client vanished");
    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}

/// Observations in the process-wide `server.queue_wait_ms.light`
/// histogram so far (0 until the first light job registers it).
fn light_queue_waits() -> u64 {
    dbexplorer::obs::global()
        .snapshot()
        .histograms
        .get("server.queue_wait_ms.light")
        .map_or(0, |h| h.count)
}

/// A's exact build holds the only pool worker. B's drill and suggestion,
/// sent after A's preview, must run on the interactive executor instead
/// of waiting for that build, and every answer must still equal the
/// single-session oracle's.
///
/// A's exact phase must take well over 100 ms, so that B's answers — a
/// few milliseconds of work and thread wake-ups — land far inside the
/// quarter bound, while a pool without the executor answers B together
/// with A's final frame. That takes 40,000 rows in the unoptimised
/// profile `cargo test` builds (about 220 ms) and 1,000,000 in an
/// optimised one (about 170 ms; 40,000 rows there take about 5 ms, the
/// scale of a few wake-ups on a busy CPU).
#[test]
fn light_requests_run_while_a_build_holds_the_pool() {
    let config = ServeConfig {
        workers: 1,
        threads: 1,
        ..ServeConfig::default()
    };
    let rows = if cfg!(debug_assertions) { 40_000 } else { 1_000_000 };
    let cars = UsedCarsGenerator::new(11).generate(rows);
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind ephemeral port");
    server.preload("cars", cars.clone());
    let handle = server.spawn().expect("spawn server threads");
    let addr = handle.addr();

    let a_script = [
        ".stream on",
        "CREATE CADVIEW wide AS SET pivot = Make FROM cars LIMIT COLUMNS 5 IUNITS 5",
    ];
    let b_script = [
        "CREATE CADVIEW jeeps AS SET pivot = BodyType FROM cars WHERE Make = Jeep \
         LIMIT COLUMNS 2 IUNITS 2",
        "SELECT Make, Model, Price FROM cars WHERE Make = Jeep LIMIT 3",
        "SUGGEST NEXT FOR jeeps",
    ];

    // B builds its view first, so the pool is idle when A's build starts.
    let mut b = Client::connect(addr).expect("connect B");
    let mut b_lines = vec![b.request_line(b_script[0]).expect("B's build")];
    let light_before = light_queue_waits();

    let (preview_tx, preview_rx) = mpsc::channel();
    let a = std::thread::spawn(move || {
        let mut raw = TcpStream::connect(addr).expect("connect A");
        raw.set_nodelay(true).ok();
        let _hello = read_line(&mut raw);
        let mut send = |request: &str| {
            let frame = encode_frame(request).expect("encode A's request");
            raw.write_all(&frame).expect("send A's request");
        };
        send(a_script[0]);
        send(a_script[1]);
        let ack = read_line(&mut raw);
        let preview = read_line(&mut raw);
        preview_tx.send(Instant::now()).expect("signal A's preview");
        let last = read_line(&mut raw);
        (Instant::now(), preview, vec![ack, last])
    });

    let preview_at = preview_rx.recv().expect("A's preview arrives");
    let mut b_answered = Vec::new();
    for request in &b_script[1..] {
        b_lines.push(b.request_line(request).expect("B's light request"));
        b_answered.push(preview_at.elapsed());
    }
    let (final_at, preview, a_lines) = a.join().expect("A's client thread");
    let a_final = final_at - preview_at;

    let preview = WireResponse::parse(&preview).expect("A's preview parses");
    assert!(!preview.is_final(), "A's build must stream a preview first: {preview:?}");
    for (request, answered) in b_script[1..].iter().zip(&b_answered) {
        assert!(
            *answered * 4 < a_final,
            "{request:?} answered {answered:?} after A's preview, A's final {a_final:?}: \
             it waited behind the running build"
        );
    }
    let a_stripped: Vec<String> = a_lines.iter().map(|line| strip_stream_tags(line)).collect();
    let a_oracle = oracle_transcript(vec![("cars".to_owned(), cars.clone())], &config, &a_script);
    assert_eq!(a_stripped, a_oracle, "A's stripped frames diverge from the oracle");
    let b_oracle = oracle_transcript(vec![("cars".to_owned(), cars)], &config, &b_script);
    assert_eq!(b_lines, b_oracle, "B's answers diverge from the oracle");
    assert!(
        light_queue_waits() >= light_before + 2,
        "B's light requests were not observed in server.queue_wait_ms.light"
    );
    assert_eq!(handle.panics(), 0);
    drop(b);
    handle.shutdown();
}
