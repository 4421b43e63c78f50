//! `suggest_smoke` — CI gate for the SUGGEST surface (`scripts/check.sh
//! --suggest-smoke`).
//!
//! Four checks, all against one preloaded dataset:
//!
//! 1. the single-session oracle transcript of the SUGGEST script matches
//!    the committed golden `tests/snapshots/suggest_wire.txt` after
//!    timing masking (regenerate with `UPDATE_SNAPSHOTS=1`),
//! 2. every concurrent client's live-server transcript is byte-identical
//!    to that oracle — suggestions ride the hot tier but stay
//!    deterministic under concurrency,
//! 3. the wire frames carry exactly what an in-process session renders,
//!    so the REPL's `.suggest` output and the wire SUGGEST frames can
//!    never drift apart,
//! 4. one planted-correlation recovery seed: on the exploration
//!    benchmark's synthetic dataset the attribute planted to follow the
//!    pivot must land in the top 3.
//!
//! Exits nonzero with a labeled diff on any mismatch.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::explore::SyntheticSpec;
use dbexplorer::obs::mask_timings;
use dbexplorer::query::Session;
use dbexplorer::serve::{oracle_transcript, Client, ServeConfig, Server};
use dbexplorer::suggest::{suggest_next, SuggestConfig};

const ROWS: usize = 3_000;
const SEED: u64 = 7;
const CLIENTS: usize = 3;

/// Same script as `tests/suggest_golden.rs`, sharing its golden file —
/// one snapshot locks both the test and this gate.
const SCRIPT: &[&str] = &[
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2",
    "SUGGEST NEXT FOR v",
    "SUGGEST COMPLETE SELECT * FROM cars WHERE Make =",
    "SUGGEST COMPLETE SELECT * FROM cars WHERE",
    "EXPLAIN ANALYZE SUGGEST NEXT FOR v",
    "SUGGEST NEXT FOR nosuch",
];

fn fail(msg: &str) -> ! {
    eprintln!("suggest_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Masks the process-global `stats cache: N hits, ...` summary line in an
/// EXPLAIN ANALYZE frame. Per-request cache traffic is deterministic, but
/// the global totals legitimately grow with every concurrent client, so
/// only the single-session oracle can pin them.
fn mask_global_cache(line: &str) -> String {
    let Some(at) = line.find("stats cache: ") else {
        return line.to_owned();
    };
    let end = line[at..].find("\\n").map_or(line.len(), |e| at + e);
    format!("{}stats cache: <TOTALS>{}", &line[..at], &line[end..])
}

fn main() {
    let config = ServeConfig::default();
    let oracle = oracle_transcript(
        vec![("cars".to_owned(), UsedCarsGenerator::new(SEED).generate(ROWS))],
        &config,
        SCRIPT,
    );
    let golden = mask_timings(&format!("{}\n", oracle.join("\n")));

    let snapshot = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/suggest_wire.txt");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&snapshot, &golden)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", snapshot.display())));
        println!("suggest_smoke: updated {}", snapshot.display());
        return;
    }
    let expected = std::fs::read_to_string(&snapshot).unwrap_or_else(|e| {
        fail(&format!(
            "cannot read {} ({e}); regenerate with UPDATE_SNAPSHOTS=1",
            snapshot.display()
        ))
    });
    if expected != golden {
        eprintln!("--- golden (tests/snapshots/suggest_wire.txt)\n+++ oracle (current code)");
        for (i, (want, got)) in expected.lines().zip(golden.lines()).enumerate() {
            if want != got {
                eprintln!("line {}:\n- {want}\n+ {got}", i + 1);
            }
        }
        fail("oracle transcript diverges from the golden snapshot (UPDATE_SNAPSHOTS=1 to accept)");
    }

    // Live server: concurrent clients must reproduce the oracle
    // byte-for-byte (after masking wall times).
    let server = Server::bind("127.0.0.1:0", config).unwrap_or_else(|e| fail(&e.to_string()));
    server.preload("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    let cache = server.cache();
    let handle = server.spawn().unwrap_or_else(|e| fail(&e.to_string()));

    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).unwrap_or_else(|e| fail(&e.to_string()));
                    SCRIPT
                        .iter()
                        .map(|req| {
                            client.request_line(req).unwrap_or_else(|e| fail(&e.to_string()))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    let masked_oracle: Vec<String> =
        oracle.iter().map(|l| mask_global_cache(&mask_timings(l))).collect();
    for (i, transcript) in transcripts.iter().enumerate() {
        let masked: Vec<String> =
            transcript.iter().map(|l| mask_global_cache(&mask_timings(l))).collect();
        if masked != masked_oracle {
            for (j, (want, got)) in masked_oracle.iter().zip(&masked).enumerate() {
                if want != got {
                    eprintln!("client {i}, request {:?}:\n- {want}\n+ {got}", SCRIPT[j]);
                }
            }
            fail(&format!("client {i} transcript diverges from the oracle"));
        }
    }

    // REPL/wire byte-identity: a wire frame's `text` is exactly what an
    // in-process session (and therefore the REPL) renders.
    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(SEED).generate(ROWS));
    for (sql, line) in SCRIPT[..4].iter().zip(&oracle) {
        let rendered = session
            .execute(sql)
            .unwrap_or_else(|e| fail(&format!("{sql}: {e}")))
            .render();
        let resp = dbexplorer::serve::WireResponse::parse(line)
            .unwrap_or_else(|e| fail(&format!("unparseable oracle line: {e}")));
        if resp.text != rendered {
            fail(&format!("wire text for {sql:?} diverged from QueryOutput::render"));
        }
    }

    let stats = cache.stats();
    if stats.hits == 0 {
        fail(&format!(
            "expected shared-cache hits across {CLIENTS} clients, saw none ({stats})"
        ));
    }
    handle.shutdown();

    // Planted-correlation recovery, one seed: `c0` follows the pivot `p`
    // at strength 0.8 in the synthetic exploration dataset — it must rank
    // in the top 3 (the full 20-seed battery lives in
    // tests/suggest_ranking.rs).
    let spec = SyntheticSpec::exploration_default(2_000, 42);
    let table = spec.generate();
    let pivot = spec
        .attrs
        .iter()
        .position(|a| a.name == "p")
        .unwrap_or_else(|| fail("synthetic spec lost its pivot attribute"));
    let report = suggest_next(&table.full_view(), pivot, &SuggestConfig::default(), None, None)
        .unwrap_or_else(|e| fail(&format!("suggest_next: {e}")));
    let top3: Vec<&str> = report.suggestions.iter().take(3).map(|s| s.name.as_str()).collect();
    if !top3.contains(&"c0") {
        fail(&format!(
            "planted pivot-dependent attribute c0 not recovered in top 3: {top3:?}"
        ));
    }

    println!(
        "suggest_smoke: OK ({CLIENTS} clients x {} requests byte-identical; \
         REPL/wire render identical; planted c0 in top 3; shared cache: {stats})",
        SCRIPT.len()
    );
}
