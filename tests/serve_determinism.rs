//! Concurrent clients must be byte-indistinguishable from one session.
//!
//! Every client replays the same exploration script against one server;
//! every response line must equal the single-session oracle transcript
//! ([`oracle_transcript`]) — cold cache and warm. The replays must
//! additionally show shared-cache hits: client sessions draw codecs,
//! contingency tables, and cluster partitions from one process-wide
//! `StatsCache`, and a byte-identical answer that *recomputed* everything
//! would be a performance bug, not a correctness pass.
//!
//! One oracle is also pinned byte for byte to the golden transcript
//! `tests/snapshots/serve_smoke.txt`.

#[path = "common/clients.rs"]
mod clients;
#[path = "common/snapshot.rs"]
mod snapshot;

use clients::concurrent_transcripts;
use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::serve::{
    oracle_transcript, strip_stream_tags, Client, ServeConfig, Server, ServerHandle,
};
use snapshot::assert_snapshot;

const CLIENTS: usize = 32;
const ROWS: usize = 1_500;
const SEED: u64 = 11;

const SCRIPT: &[&str] = &[
    ".tables",
    "SELECT Make, Price FROM cars WHERE BodyType = Sedan LIMIT 4",
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = Sedan LIMIT COLUMNS 2 IUNITS 2",
    "REORDER ROWS IN v ORDER BY SIMILARITY(Honda) DESC",
    "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.5",
];

fn cars() -> dbexplorer::table::Table {
    UsedCarsGenerator::new(SEED).generate(ROWS)
}

/// Runs `clients` concurrent replays of `script`; panics (with the
/// offending request) on the first byte that differs from `oracle`.
fn replay_pass(
    handle: &ServerHandle,
    clients: usize,
    script: &[&str],
    oracle: &[String],
    pass: &str,
) {
    let transcripts = concurrent_transcripts(handle.addr(), clients, script);
    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(transcript.len(), oracle.len());
        for (j, (got, want)) in transcript.iter().zip(oracle).enumerate() {
            assert_eq!(
                got, want,
                "{pass} pass: client {i} diverged from the oracle on {:?}",
                script[j]
            );
        }
    }
}

#[test]
fn thirty_two_clients_are_byte_identical_to_one_session() {
    let config = ServeConfig::default();
    let oracle = oracle_transcript(vec![("cars".to_owned(), cars())], &config, SCRIPT);
    // The script must exercise every response kind we serve.
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"rows\"")));
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"cad\"")));
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"reordered\"")));

    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    server.preload("cars", cars());
    let cache = server.cache();
    let handle = server.spawn().expect("spawn accept thread");

    replay_pass(&handle, CLIENTS, SCRIPT, &oracle, "cold");
    let after_cold = cache.stats();
    assert!(
        after_cold.hits > 0,
        "32 clients building the same view must share stats work: {after_cold}"
    );

    replay_pass(&handle, CLIENTS, SCRIPT, &oracle, "warm");
    let after_warm = cache.stats();
    assert!(after_warm.hits > after_cold.hits, "warm pass produced no cache hits");
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm pass repeated identical requests yet missed the shared cache"
    );

    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}

/// The golden script: every response kind over 3,000 cars rows at seed
/// 7. Its oracle is pinned in `tests/snapshots/serve_smoke.txt`, and
/// three concurrent clients must reproduce it while sharing stats work.
#[test]
fn golden_transcript_matches_snapshot_and_three_clients() {
    const GOLDEN_ROWS: usize = 3_000;
    const GOLDEN_SEED: u64 = 7;
    const GOLDEN_CLIENTS: usize = 3;
    let script: &[&str] = &[
        ".ping",
        ".tables",
        "SELECT Make, Model, Price FROM cars WHERE BodyType = SUV LIMIT 5",
        "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2",
        "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.5",
        "REORDER ROWS IN v ORDER BY SIMILARITY(Jeep) DESC",
    ];
    let cars = || UsedCarsGenerator::new(GOLDEN_SEED).generate(GOLDEN_ROWS);

    let config = ServeConfig::default();
    let oracle = oracle_transcript(vec![("cars".to_owned(), cars())], &config, script);
    assert_snapshot("serve_smoke.txt", &format!("{}\n", oracle.join("\n")));

    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    server.preload("cars", cars());
    let cache = server.cache();
    let handle = server.spawn().expect("spawn server threads");
    replay_pass(&handle, GOLDEN_CLIENTS, script, &oracle, "golden");
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "{GOLDEN_CLIENTS} clients building the same view must share stats work: {stats}"
    );
    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}

/// Streamed mode must refine toward the *same* bytes: for clients in
/// `.stream on`, expensive builds answer with a preview frame first, but
/// the final frame — minus its `seq`/`final` tags — must still equal the
/// single-session oracle line for line. The table is sized past the
/// preview threshold so the CAD build genuinely streams.
#[test]
fn streamed_replay_strips_to_the_oracle() {
    const STREAM_ROWS: usize = 4_000;
    const STREAM_CLIENTS: usize = 8;
    let script: &[&str] = &[
        ".tables",
        "SELECT Make, Price FROM cars WHERE BodyType = Sedan LIMIT 4",
        "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS 2 IUNITS 2",
        "REORDER ROWS IN v ORDER BY SIMILARITY(Honda) DESC",
    ];
    let cars = || UsedCarsGenerator::new(SEED).generate(STREAM_ROWS);

    let config = ServeConfig::default();
    let oracle = oracle_transcript(vec![("cars".to_owned(), cars())], &config, script);
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    server.preload("cars", cars());
    let handle = server.spawn().expect("spawn server threads");

    let streams: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..STREAM_CLIENTS)
            .map(|_| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let ack = client.request(".stream on").expect(".stream on");
                    assert!(ack.ok, "{ack:?}");
                    script
                        .iter()
                        .map(|req| client.request_stream_lines(req).expect("request"))
                        .collect::<Vec<Vec<String>>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    for (i, transcript) in streams.iter().enumerate() {
        assert_eq!(transcript.len(), oracle.len());
        let mut previews = 0;
        for (j, (frames, want)) in transcript.iter().zip(&oracle).enumerate() {
            previews += frames.len() - 1; // every non-final frame is a preview
            let last = frames.last().expect("at least one frame");
            assert_eq!(
                &strip_stream_tags(last),
                want,
                "client {i}: streamed final frame diverged from the oracle on {:?}",
                script[j]
            );
        }
        assert!(
            previews > 0,
            "client {i} saw no preview frames — the CAD build never streamed"
        );
    }

    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}
