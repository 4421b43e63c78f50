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
//!
//! Last, two sessions on one small shared cache: whatever the
//! interleaving, each session's final answers equal those it gives alone.
//! Its previews are not compared — a preview shows cached partitions
//! exact and missed ones after one Lloyd pass, so it depends on what the
//! other session left in the cache or pushed out of it.

#[path = "common/clients.rs"]
mod clients;
#[path = "common/snapshot.rs"]
mod snapshot;

use clients::concurrent_transcripts;
use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::explore::SyntheticSpec;
use dbexplorer::query::{Session, SharedCatalog};
use dbexplorer::serve::{
    handle_request, oracle_transcript, strip_stream_tags, Client, ServeConfig, Server, ServerHandle,
};
use dbexplorer::stats::StatsCache;
use dbexplorer::table::{Table, Value};
use snapshot::assert_snapshot;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Rows of each table the two shared-cache sessions explore.
const SHARED_ROWS: usize = 6_000;
/// Entries per stats-cache map: small enough that session A's cold builds
/// evict session B's entries.
const SHARED_CAPACITY: usize = 64;

/// A seeded xorshift stream for scripts and interleavings.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Session A, shaped like perfbench's `cad_cold`: CAD builds over unique
/// `Price` ranges of at least the preview floor, rotating the pivot, each
/// followed by `SUGGEST NEXT` and a `REORDER` on the range's most frequent
/// pivot value.
fn cold_script(cars: &Table, builds: usize) -> Vec<String> {
    let col = |name: &str| cars.schema().index_of(name).expect("cars attribute");
    let price = col("Price");
    let mut sorted: Vec<(i64, usize)> = (0..cars.num_rows())
        .filter_map(|r| match cars.value(r, price) {
            Value::Int(v) => Some((v, r)),
            _ => None,
        })
        .collect();
    sorted.sort_unstable();
    let mut rng = Rng(0xC01D_5EED);
    let mut seen = HashSet::new();
    let mut script = Vec::new();
    for step in 0..builds {
        let pivot = ["Make", "BodyType", "Drivetrain"][step % 3];
        let (lo, hi, window) = loop {
            let want = Session::PREVIEW_MIN_ROWS + rng.below(SHARED_ROWS / 3);
            let start = rng.below(sorted.len() - want + 1);
            let (lo, hi) = (sorted[start].0, sorted[start + want - 1].0);
            if seen.insert((lo, hi)) {
                break (lo, hi, &sorted[start..start + want]);
            }
        };
        let mut counts: HashMap<String, usize> = HashMap::new();
        for &(_, row) in window {
            if let Value::Str(label) = cars.value(row, col(pivot)) {
                *counts.entry(label).or_default() += 1;
            }
        }
        let anchor = counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(label, _)| label)
            .expect("a non-empty window");
        script.push(format!(
            "CREATE CADVIEW v AS SET pivot = {pivot} FROM cars WHERE Price BETWEEN {lo} AND {hi} \
             LIMIT COLUMNS 5 IUNITS 3"
        ));
        script.push("SUGGEST NEXT FOR v".to_owned());
        script.push(format!(
            "REORDER ROWS IN v ORDER BY SIMILARITY('{anchor}') DESC"
        ));
    }
    script
}

/// Session B, shaped like perfbench's `explore_hot`: a seeded walk over a
/// small working set of `synth` views — drills that refresh the view,
/// pivots, repeated builds, `SUGGEST NEXT` and `SUGGEST COMPLETE`.
fn hot_script(requests: usize) -> Vec<String> {
    // Half the drills select at least the preview floor.
    let preds = [
        "d0 = d0_v0",
        "d0 != d0_v0",
        "d1 = d1_v0",
        "d1 != d1_v0",
        "d0 = d0_v0 AND d1 = d1_v0",
        "d2 = d2_v0",
    ];
    let pivots = ["p", "d3", "x1"];
    let create = |pivot: &str, pred: &str| {
        format!("CREATE CADVIEW v AS SET pivot = {pivot} FROM synth WHERE {pred} LIMIT COLUMNS 3 IUNITS 2")
    };
    let mut rng = Rng(0x0407_7B0B);
    let (mut pivot, mut pred) = (0, 0);
    let mut script = vec![create(pivots[pivot], preds[pred])];
    while script.len() < requests {
        match rng.below(6) {
            0 => {
                pred = (pred + 1 + rng.below(preds.len() - 1)) % preds.len();
                script.push(format!(
                    "SELECT {} FROM synth WHERE {} LIMIT 20",
                    pivots[pivot], preds[pred]
                ));
                script.push(create(pivots[pivot], preds[pred]));
            }
            1 => {
                pivot = (pivot + 1 + rng.below(pivots.len() - 1)) % pivots.len();
                script.push(create(pivots[pivot], preds[pred]));
            }
            2 => script.push(create(pivots[pivot], preds[pred])),
            3 => script.push("SUGGEST NEXT FOR v".to_owned()),
            4 => script.push(format!(
                "SUGGEST COMPLETE SELECT * FROM synth WHERE {} AND",
                preds[pred]
            )),
            _ => script.push(format!(
                "SUGGEST COMPLETE SELECT * FROM synth WHERE {} AND {} =",
                preds[pred],
                ["c0", "x0"][rng.below(2)]
            )),
        }
    }
    script
}

/// A session wired like a server connection's, on `cache`.
fn shared_session(catalog: &Arc<SharedCatalog>, cache: &Arc<StatsCache>) -> Session {
    let mut session = Session::new();
    session.set_catalog(Some(Arc::clone(catalog)));
    session.set_stats_cache(Arc::clone(cache));
    session
}

/// Serves `request` as a streaming connection's worker does: the preview
/// first (discarded here), then the final line. Returns the final line and
/// whether a preview was built.
fn serve_streamed(
    session: &mut Session,
    catalog: &Arc<SharedCatalog>,
    request: &str,
) -> (String, bool) {
    let previewed = session.preview_create_cadview(request).is_some();
    (handle_request(session, catalog, request), previewed)
}

#[test]
fn final_answers_never_depend_on_the_other_session() {
    let catalog = Arc::new(SharedCatalog::new());
    let cars = UsedCarsGenerator::new(SEED).generate(SHARED_ROWS);
    let scripts = [cold_script(&cars, 20), hot_script(80)];
    catalog.insert("cars", Arc::new(cars));
    catalog.insert(
        "synth",
        Arc::new(SyntheticSpec::exploration_default(SHARED_ROWS, SEED).generate()),
    );
    // Each session alone, on a fresh cache of the same capacity.
    let alone: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| {
            let cache = Arc::new(StatsCache::with_capacity(SHARED_CAPACITY));
            let mut session = shared_session(&catalog, &cache);
            script
                .iter()
                .map(|request| serve_streamed(&mut session, &catalog, request).0)
                .collect()
        })
        .collect();
    for seed in [1u64, 2, 3] {
        let cache = Arc::new(StatsCache::with_capacity(SHARED_CAPACITY));
        let mut sessions = [
            shared_session(&catalog, &cache),
            shared_session(&catalog, &cache),
        ];
        let mut next = [0usize; 2];
        let mut previews = 0;
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        loop {
            let left = [scripts[0].len() - next[0], scripts[1].len() - next[1]];
            if left == [0, 0] {
                break;
            }
            // Pick a session in proportion to what it has left, so the two
            // scripts overlap from start to end.
            let who = usize::from(rng.below(left[0] + left[1]) >= left[0]);
            let request = &scripts[who][next[who]];
            let (line, previewed) = serve_streamed(&mut sessions[who], &catalog, request);
            assert_eq!(
                line,
                alone[who][next[who]],
                "interleaving {seed}: session {} answered {request:?} unlike it does alone",
                ["A", "B"][who]
            );
            previews += usize::from(previewed);
            next[who] += 1;
        }
        assert!(previews > 0, "interleaving {seed}: no request previewed");
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "interleaving {seed}: the cache never evicted: {stats}"
        );
    }
}
