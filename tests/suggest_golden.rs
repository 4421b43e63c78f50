//! Golden snapshots for the SUGGEST surface.
//!
//! Four locks:
//!
//! * the REPL's `.suggest` output (subprocess, whole stdout masked) —
//!   `tests/snapshots/suggest_repl.txt`;
//! * the wire-protocol SUGGEST frames (single client against a live
//!   server, compared byte-for-byte against the single-session oracle
//!   after masking) — `tests/snapshots/suggest_wire.txt`;
//! * concurrency: three clients replaying the wire script at once each
//!   reproduce that oracle and share the server's stats cache;
//! * byte-identity between the two surfaces: a wire frame's `text` is
//!   exactly `QueryOutput::render` of the same statement executed
//!   in-process, so `.suggest` in the REPL and SUGGEST over the wire can
//!   never drift apart.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test suggest_golden
//! ```

#[path = "common/clients.rs"]
mod clients;
#[path = "common/snapshot.rs"]
mod snapshot;

use clients::concurrent_transcripts;
use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::obs::mask_timings;
use dbexplorer::query::Session;
use dbexplorer::serve::{oracle_transcript, Client, ServeConfig, Server};
use snapshot::assert_snapshot;

const ROWS: usize = 3_000;
const SEED: u64 = 7;

/// The wire script: build a view, then exercise every SUGGEST shape —
/// next-step, value completion, attribute completion, EXPLAIN ANALYZE,
/// and the typed error for an unknown view.
const SCRIPT: &[&str] = &[
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2",
    "SUGGEST NEXT FOR v",
    "SUGGEST COMPLETE SELECT * FROM cars WHERE Make =",
    "SUGGEST COMPLETE SELECT * FROM cars WHERE",
    "EXPLAIN ANALYZE SUGGEST NEXT FOR v",
    "SUGGEST NEXT FOR nosuch",
];

#[test]
fn suggest_repl_output_matches_snapshot() {
    // The REPL golden runs in a subprocess: one fixed script, whole
    // stdout masked. Covers `.suggest <view>` (next-step sugar),
    // `.suggest <partial>` (completion sugar), raw SUGGEST SQL, and the
    // EXPLAIN ANALYZE report.
    use std::io::Write;
    use std::process::{Command, Stdio};
    let script = format!(
        ".load cars {ROWS} {SEED}\n\
         CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV \
         LIMIT COLUMNS 3 IUNITS 2;\n\
         .suggest v\n\
         .suggest SELECT * FROM cars WHERE Make = \n\
         SUGGEST COMPLETE SELECT * FROM cars WHERE;\n\
         EXPLAIN ANALYZE SUGGEST NEXT FOR v;\n\
         .quit\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbex"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dbex binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let output = child.wait_with_output().expect("dbex exits");
    assert!(output.status.success(), "dbex exited with failure");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let masked = mask_timings(&stdout);
    assert!(masked.contains("next steps for v"), "{masked}");
    assert!(masked.contains("complete value for Make over cars"), "{masked}");
    assert!(masked.contains("complete attribute over cars"), "{masked}");
    assert!(masked.contains("SUGGEST NEXT FOR v"), "{masked}");
    assert!(masked.contains("rank time:"), "{masked}");
    assert_snapshot("suggest_repl.txt", &masked);
}

#[test]
fn suggest_wire_frames_match_oracle_and_snapshot() {
    let config = ServeConfig::default();
    let oracle = oracle_transcript(
        vec![("cars".to_owned(), UsedCarsGenerator::new(SEED).generate(ROWS))],
        &config,
        SCRIPT,
    );
    let masked_oracle = mask_timings(&format!("{}\n", oracle.join("\n")));

    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.preload("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    let handle = server.spawn().expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let transcript: Vec<String> = SCRIPT
        .iter()
        .map(|req| client.request_line(req).expect("request"))
        .collect();
    handle.shutdown();
    let masked_wire = mask_timings(&format!("{}\n", transcript.join("\n")));

    // Wire and oracle must agree byte-for-byte once wall times are
    // masked — the same determinism contract serve_determinism.rs
    // enforces for the CAD surface.
    assert_eq!(
        masked_wire, masked_oracle,
        "wire SUGGEST frames diverge from the single-session oracle"
    );
    assert!(masked_wire.contains("\"kind\":\"suggestions\""), "{masked_wire}");
    assert!(
        masked_wire.contains("unknown CAD View nosuch"),
        "unknown view must be a typed error frame: {masked_wire}"
    );
    assert_snapshot("suggest_wire.txt", &masked_wire);
}

/// Masks the process-global `stats cache: N hits, ...` summary line in an
/// EXPLAIN ANALYZE frame. Per-request cache traffic is deterministic, but
/// the global totals grow with every concurrent client, so only the
/// single-session oracle can pin them.
fn mask_global_cache(line: &str) -> String {
    let Some(at) = line.find("stats cache: ") else {
        return line.to_owned();
    };
    let end = line[at..].find("\\n").map_or(line.len(), |e| at + e);
    format!("{}stats cache: <TOTALS>{}", &line[..at], &line[end..])
}

#[test]
fn concurrent_clients_reproduce_the_masked_oracle() {
    const CLIENTS: usize = 3;
    let config = ServeConfig::default();
    let oracle = oracle_transcript(
        vec![("cars".to_owned(), UsedCarsGenerator::new(SEED).generate(ROWS))],
        &config,
        SCRIPT,
    );
    let mask = |line: &String| mask_global_cache(&mask_timings(line));
    let masked_oracle: Vec<String> = oracle.iter().map(mask).collect();

    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.preload("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    let cache = server.cache();
    let handle = server.spawn().expect("spawn server");
    let transcripts = concurrent_transcripts(handle.addr(), CLIENTS, SCRIPT);
    handle.shutdown();

    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(transcript.len(), masked_oracle.len());
        for (j, (got, want)) in transcript.iter().map(mask).zip(&masked_oracle).enumerate() {
            assert_eq!(
                &got, want,
                "client {i} diverged from the masked oracle on {:?}",
                SCRIPT[j]
            );
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "{CLIENTS} clients building the same view must share stats work: {stats}"
    );
}

#[test]
fn wire_suggest_text_is_byte_identical_to_repl_render() {
    // The wire layer must carry exactly what an in-process session
    // renders — REPL and wire users see the same bytes by construction.
    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    let rendered: Vec<String> = SCRIPT[..4]
        .iter()
        .map(|sql| session.execute(sql).expect("execute").render())
        .collect();

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    server.preload("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    let handle = server.spawn().expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (sql, expected) in SCRIPT[..4].iter().zip(&rendered) {
        let resp = client.request(sql).expect("request");
        assert!(resp.ok, "{sql} failed over the wire: {}", resp.text);
        assert_eq!(
            &resp.text, expected,
            "wire text for {sql:?} diverged from QueryOutput::render"
        );
    }
    handle.shutdown();
}
