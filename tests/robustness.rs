//! Robustness suite: fuzz-style SQL property tests, an adversarial CSV
//! corpus, and deterministic fault injection.
//!
//! The contract under test (see DESIGN.md, "Error handling & graceful
//! degradation"): no statement fed to [`Session::execute`] may abort the
//! process — every failure surfaces as a typed [`QueryError`] whose
//! `source()` chain is non-empty, and a statement that panics inside the
//! engine is caught at the session boundary and reported as
//! `QueryError::Panicked` (which the fuzz loop treats as a bug).

use dbexplorer::core::ExecBudget;
use dbexplorer::data::usedcars::UsedCarsGenerator;
use dbexplorer::query::{QueryError, QueryOutput, Session};
use std::error::Error as _;
use std::time::Duration;

/// xorshift64*: small, deterministic, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Walks the source chain; fails the test if it is empty or cyclic.
fn assert_typed_with_chain(err: &QueryError, stmt: &str) {
    assert!(
        err.source().is_some(),
        "error with empty source() chain for {stmt:?}: {err:?}"
    );
    let mut depth = 0;
    let mut src = err.source();
    while let Some(s) = src {
        depth += 1;
        assert!(depth < 32, "unreasonably deep source chain for {stmt:?}");
        src = s.source();
    }
}

/// Flattens an error and its sources into one searchable string.
fn chain_text(err: &QueryError) -> String {
    let mut out = err.to_string();
    let mut src = err.source();
    while let Some(s) = src {
        out.push_str(": ");
        out.push_str(&s.to_string());
        src = s.source();
    }
    out
}

fn small_session() -> Session {
    let mut s = Session::new();
    s.register_table("cars", UsedCarsGenerator::new(1).generate(300));
    s.execute("CREATE CADVIEW seeded AS SET pivot = Make FROM cars IUNITS 2")
        .expect("seed CAD view");
    s
}

// ---------------------------------------------------------------------------
// Fuzz-style property test: ≥1000 random/mutated statements, zero aborts.
// ---------------------------------------------------------------------------

/// Valid statements covering every verb; mutation starts from these.
const SEEDS: &[&str] = &[
    "SELECT * FROM cars WHERE BodyType = SUV AND Mileage BETWEEN 10K AND 30K",
    "SELECT Make, Price FROM cars WHERE Make IN (Ford, Jeep) ORDER BY Price DESC LIMIT 5",
    "SELECT Make, COUNT(*), AVG(Price) FROM cars GROUP BY Make",
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM cars \
     WHERE BodyType = SUV LIMIT COLUMNS 4 IUNITS 2",
    "CREATE CADVIEW w AS SET pivot = BodyType FROM cars IUNITS 2 ORDER BY Price ASC",
    "EXPLAIN CREATE CADVIEW x AS SET pivot = Make FROM cars IUNITS 2",
    "HIGHLIGHT SIMILAR IUNITS IN seeded WHERE SIMILARITY(Ford, 1) > 2.0",
    "REORDER ROWS IN seeded ORDER BY SIMILARITY(Ford) DESC",
    "DESCRIBE cars",
    "SHOW CADVIEWS",
    "DROP CADVIEW w",
    "SELECT * FROM cars WHERE Price != 10K OR NOT Make = Ford",
];

/// Tokens spliced in by the mutator: keywords, junk, extreme literals.
const SPLICE: &[&str] = &[
    "SELECT", "FROM", "WHERE", "CADVIEW", "IUNITS", "ORDER", "BY", "SIMILARITY",
    "BETWEEN", "IN", "AND", "OR", "NOT", "LIMIT", "GROUP", "COLUMNS", "pivot",
    "COUNT(*)", "''", "'", "(", ")", ",", ";", "=", "!=", "<=", ">=", "<>",
    "9999999999999999999K", "-9999999999999999999M", "0.0000000001", "NaN",
    "1e308", "''''", "nope", "\u{0}", "émile", "🦀",
];

const MUTATION_CHARS: &[char] = &[
    '(', ')', ',', '\'', '=', '<', '>', '!', '*', ';', '.', '-', '_', ' ', '\t',
    '\n', '0', '9', 'K', 'M', 'a', 'Z', 'é', '🦀', '\u{0}', '\u{7f}',
];

fn mutate(seed: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for _ in 0..=rng.below(3) {
        if chars.is_empty() {
            break;
        }
        match rng.below(7) {
            // Truncate at a random point.
            0 => chars.truncate(rng.below(chars.len())),
            // Delete a random character.
            1 => {
                let i = rng.below(chars.len());
                chars.remove(i);
            }
            // Insert a random character.
            2 => {
                let i = rng.below(chars.len() + 1);
                chars.insert(i, MUTATION_CHARS[rng.below(MUTATION_CHARS.len())]);
            }
            // Replace a random character.
            3 => {
                let i = rng.below(chars.len());
                chars[i] = MUTATION_CHARS[rng.below(MUTATION_CHARS.len())];
            }
            // Duplicate a random slice.
            4 => {
                let a = rng.below(chars.len());
                let b = (a + 1 + rng.below(8)).min(chars.len());
                let slice: Vec<char> = chars[a..b].to_vec();
                chars.splice(a..a, slice);
            }
            // Splice in a random token at a random point.
            5 => {
                let i = rng.below(chars.len() + 1);
                let tok: Vec<char> = format!(" {} ", SPLICE[rng.below(SPLICE.len())])
                    .chars()
                    .collect();
                chars.splice(i..i, tok);
            }
            // Swap two whitespace-separated tokens.
            _ => {
                let s: String = chars.iter().collect();
                let mut toks: Vec<&str> = s.split_whitespace().collect();
                if toks.len() >= 2 {
                    let a = rng.below(toks.len());
                    let b = rng.below(toks.len());
                    toks.swap(a, b);
                    chars = toks.join(" ").chars().collect();
                }
            }
        }
    }
    chars.into_iter().collect()
}

fn garbage(rng: &mut Rng) -> String {
    let len = rng.below(48);
    (0..len)
        .map(|_| MUTATION_CHARS[rng.below(MUTATION_CHARS.len())])
        .collect()
}

#[test]
fn fuzzed_statements_never_abort_and_errors_carry_chains() {
    const CASES: usize = 1_200;
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut session = small_session();
    let (mut ok, mut errs) = (0usize, 0usize);
    for case in 0..CASES {
        let stmt = if rng.chance(15) {
            garbage(&mut rng)
        } else {
            mutate(SEEDS[rng.below(SEEDS.len())], &mut rng)
        };
        match session.execute(&stmt) {
            Ok(_) => ok += 1,
            Err(QueryError::Panicked(p)) => {
                panic!("case {case}: statement panicked inside the engine: {stmt:?} — {p:?}")
            }
            Err(e) => {
                assert_typed_with_chain(&e, &stmt);
                errs += 1;
            }
        }
    }
    assert_eq!(ok + errs, CASES);
    // The mutator must actually exercise both paths to mean anything.
    assert!(errs > CASES / 4, "mutations too tame: only {errs} errors");
    assert!(ok > 0, "mutations too destructive: nothing executed");
    // The session is still usable after the storm.
    session
        .execute("SELECT * FROM cars WHERE Make = Ford")
        .expect("session survives the fuzz run");
}

#[test]
fn fuzz_run_is_deterministic() {
    let run = |seed: u64| {
        let mut rng = Rng(seed);
        let mut session = small_session();
        (0..100)
            .map(|_| {
                let stmt = mutate(SEEDS[rng.below(SEEDS.len())], &mut rng);
                match session.execute(&stmt) {
                    Ok(_) => "ok".to_owned(),
                    Err(e) => chain_text(&e),
                }
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
}

// ---------------------------------------------------------------------------
// Adversarial CSV corpus: degenerate tables through the full pipeline.
// ---------------------------------------------------------------------------

/// (name, csv, pivot) triples of degenerate inputs. Every one must either
/// build a valid CAD View or fail with a typed, chained error — never panic.
const ADVERSARIAL: &[(&str, &str, &str)] = &[
    ("header_only", "Make,Price\n", "Make"),
    ("one_row", "Make,Price,Body\nFord,100,SUV\n", "Make"),
    (
        "all_null_column",
        "Make,Price\nFord,\nJeep,\nFord,\nJeep,\nFord,\n",
        "Make",
    ),
    (
        "single_distinct_pivot",
        "Make,Price\nFord,1\nFord,2\nFord,3\nFord,4\n",
        "Make",
    ),
    (
        "nan_and_infinities",
        "Make,Score\nFord,NaN\nJeep,inf\nHonda,-inf\nKia,1.5\nFord,2.5\nJeep,NaN\n",
        "Make",
    ),
    (
        "numeric_pivot_constant",
        "Price,Make\n7,Ford\n7,Jeep\n7,Ford\n7,Kia\n",
        "Price",
    ),
    ("null_pivot_values", "Make,Price\n,1\n,2\nFord,3\n", "Make"),
];

#[test]
fn adversarial_csv_corpus_never_panics() {
    for (name, csv, pivot) in ADVERSARIAL {
        let table = dbexplorer::table::parse_csv(csv)
            .unwrap_or_else(|e| panic!("corpus entry {name} failed to parse: {e}"));
        let mut session = Session::new();
        session.register_table("t", table);
        let statements = [
            "SELECT * FROM t".to_owned(),
            format!("SELECT {pivot}, COUNT(*) FROM t GROUP BY {pivot}"),
            format!("CREATE CADVIEW v AS SET pivot = {pivot} FROM t IUNITS 2"),
            format!("EXPLAIN CREATE CADVIEW v AS SET pivot = {pivot} FROM t IUNITS 2"),
            "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.1".to_owned(),
            "REORDER ROWS IN v ORDER BY SIMILARITY(Ford) DESC".to_owned(),
        ];
        for stmt in &statements {
            match session.execute(stmt) {
                Ok(_) => {}
                Err(QueryError::Panicked(p)) => {
                    panic!("corpus {name}: {stmt:?} panicked inside the engine: {p:?}")
                }
                Err(e) => assert_typed_with_chain(&e, stmt),
            }
        }
    }
}

#[test]
fn one_row_view_builds_or_fails_typed() {
    // A 1-row result set is the smallest possible CAD input; clustering has
    // exactly one point. It must produce a single-IUnit view, not divide by
    // zero or index out of bounds.
    let mut session = Session::new();
    session.register_table(
        "t",
        dbexplorer::table::parse_csv("Make,Price,Body\nFord,100,SUV\n").expect("csv"),
    );
    let out = session
        .execute("CREATE CADVIEW v AS SET pivot = Make FROM t IUNITS 3")
        .expect("1-row view must build");
    let QueryOutput::Cad { rendered, .. } = out else {
        panic!("expected CAD output")
    };
    assert!(rendered.contains("Ford"), "{rendered}");
    let cad = session.cad_view("v").expect("stored");
    assert_eq!(cad.rows.len(), 1);
    assert_eq!(cad.rows[0].iunits.len(), 1);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection: armed failure sites in lower layers.
// ---------------------------------------------------------------------------

#[test]
fn stats_fault_in_pivot_discretization_surfaces_chain() {
    let mut session = small_session();
    let _guard = dbexplorer::stats::fault::scoped("histogram::build");
    // A numeric pivot forces discretization, which builds a histogram.
    let err = session
        .execute("CREATE CADVIEW p AS SET pivot = Price FROM cars IUNITS 2")
        .expect_err("armed histogram fault must fail the build");
    assert_typed_with_chain(&err, "pivot = Price under histogram fault");
    let chain = chain_text(&err);
    assert!(
        chain.contains("injected fault at histogram::build"),
        "chain does not reach the injected fault: {chain}"
    );
}

#[test]
fn stats_fault_in_codec_surfaces_chain() {
    let mut session = small_session();
    let _guard = dbexplorer::stats::fault::scoped("codec::build");
    let err = session
        .execute("CREATE CADVIEW c AS SET pivot = Make FROM cars IUNITS 2")
        .expect_err("armed codec fault must fail the build");
    assert_typed_with_chain(&err, "codec::build fault");
    assert!(chain_text(&err).contains("injected fault at codec::build"));
}

#[test]
fn kmeans_fault_falls_back_to_one_iunit_instead_of_failing() {
    let mut session = small_session();
    let rendered_degradation = {
        let _guard = dbexplorer::cluster::fault::scoped("cluster::kmeans");
        let out = session
            .execute("CREATE CADVIEW k AS SET pivot = Make FROM cars IUNITS 2")
            .expect("kmeans fault must degrade, not fail");
        let QueryOutput::Cad { degradation, .. } = out else {
            panic!("expected CAD output")
        };
        degradation
    };
    assert!(
        rendered_degradation
            .iter()
            .any(|d| d.starts_with("single-unit-fallback") && d.contains("clustering failed")),
        "no fallback recorded for the failed clustering: {rendered_degradation:?}"
    );
    // The view is stored and fully usable despite the degraded build.
    let cad = session.cad_view("k").expect("degraded view stored");
    assert!(cad.is_degraded());
    assert!(!cad.rows.is_empty());
    for row in &cad.rows {
        assert!(!row.iunits.is_empty(), "row {} has no IUnits", row.pivot_label);
    }
    // With the fault disarmed the same statement builds cleanly.
    let out = session
        .execute("CREATE CADVIEW k2 AS SET pivot = Make FROM cars IUNITS 2")
        .expect("clean rebuild");
    let QueryOutput::Cad { degradation, .. } = out else {
        panic!("expected CAD output")
    };
    assert!(degradation.is_empty(), "clean build degraded: {degradation:?}");
}

#[test]
fn fuzz_under_fault_injection_still_never_aborts() {
    // The fuzz property must hold even while a lower layer is failing.
    let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
    let mut session = small_session();
    let _guard = dbexplorer::cluster::fault::scoped("cluster::kmeans");
    for _ in 0..200 {
        let stmt = mutate(SEEDS[rng.below(SEEDS.len())], &mut rng);
        match session.execute(&stmt) {
            Ok(_) => {}
            Err(QueryError::Panicked(p)) => {
                panic!("panic under fault injection: {stmt:?} — {p:?}")
            }
            Err(e) => assert_typed_with_chain(&e, &stmt),
        }
    }
}

// ---------------------------------------------------------------------------
// Budget exhaustion: degraded-but-valid views (acceptance criterion).
// ---------------------------------------------------------------------------

#[test]
fn exhausted_budget_returns_degraded_but_valid_view() {
    let table = UsedCarsGenerator::new(3).generate(2_000);
    // Reference: distinct pivot values from an unlimited build.
    let mut reference = Session::new();
    reference.register_table("cars", table.clone());
    reference
        .execute("CREATE CADVIEW r AS SET pivot = Make FROM cars IUNITS 2")
        .expect("reference build");
    let expected_rows: Vec<String> = reference.cad_view("r").expect("ref")
        .rows
        .iter()
        .map(|r| r.pivot_label.clone())
        .collect();

    let mut session = Session::new();
    session.register_table("cars", table);
    // A zero time budget is exhausted before the first stage runs.
    session.set_budget(ExecBudget::unlimited().with_time_limit(Duration::ZERO));
    let out = session
        .execute("CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
        .expect("exhausted budget must degrade, not error or hang");
    let QueryOutput::Cad { degradation, .. } = out else {
        panic!("expected CAD output")
    };
    assert!(!degradation.is_empty(), "no degradation recorded");
    let cad = session.cad_view("v").expect("stored");
    assert!(cad.is_degraded());
    let got_rows: Vec<String> = cad.rows.iter().map(|r| r.pivot_label.clone()).collect();
    assert_eq!(got_rows, expected_rows, "degraded view lost pivot rows");
    for row in &cad.rows {
        assert!(!row.iunits.is_empty(), "row {} has no IUnits", row.pivot_label);
    }
}
