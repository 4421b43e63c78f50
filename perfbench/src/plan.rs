//! Seeded request plans: what each workload's connections send.
//!
//! Plans are made once per run by the `prepare` step, which holds the
//! tables and can check every view against the data (row counts above the
//! preview floor, pivot values present). The served run and both replays
//! read the same plan file, so all three send byte-identical requests.

use dbex_query::Session;
use dbex_table::{Table, Value};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Rows of each generated table.
pub const ROWS: usize = 40_000;

/// Seed of the generated tables. The data stay fixed; `--seed` varies the
/// request streams only.
pub const DATA_SEED: u64 = 42;

/// `explore_hot`'s working set: at most 3 pivots × 8 drill predicates.
pub const HOT_PIVOTS: [&str; 3] = ["p", "d3", "x1"];
pub const HOT_PREDICATES: usize = 8;

/// Pivots `cad_cold` rotates over: the used-cars categorical attributes
/// whose values need no quoting tricks (`Model` has ~40 multi-word values).
const COLD_PIVOTS: [&str; 5] = ["Make", "BodyType", "Drivetrain", "Transmission", "Color"];

/// Bounds on the rows a `cad_cold` range predicate selects. The floor sits
/// above [`Session::PREVIEW_MIN_ROWS`], so every build streams a preview.
const COLD_MIN_ROWS: usize = 2_500;
const COLD_MAX_ROWS: usize = 12_000;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CadCold,
    ExploreHot,
    SharedWorker,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CadCold,
        Workload::ExploreHot,
        Workload::SharedWorker,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CadCold => "cad_cold",
            Workload::ExploreHot => "explore_hot",
            Workload::SharedWorker => "shared_worker",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed requests of each session that every run replays in process:
    /// the output check's prefix. On the single-session workloads the
    /// determinism guard compares work counts at the end of this prefix.
    pub fn checked_prefix(self) -> Vec<usize> {
        match self {
            Workload::CadCold => vec![90],
            Workload::ExploreHot => vec![400],
            Workload::SharedWorker => vec![20, 100],
        }
    }

    /// Whether the determinism guard applies: the interleaving of two
    /// connections on one worker varies from run to run.
    pub fn deterministic(self) -> bool {
        self != Workload::SharedWorker
    }
}

/// Op class of a request; each class has its own latency metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `CREATE CADVIEW`.
    Cad,
    /// Drill `SELECT`, `HIGHLIGHT`, `REORDER`.
    Interact,
    /// `SUGGEST NEXT` / `SUGGEST COMPLETE`.
    Suggest,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Cad => "cad",
            Class::Interact => "interact",
            Class::Suggest => "suggest",
        }
    }

    fn parse(s: &str) -> Option<Class> {
        [Class::Cad, Class::Interact, Class::Suggest]
            .into_iter()
            .find(|c| c.name() == s)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub class: Class,
    pub text: String,
}

impl Request {
    fn new(class: Class, text: String) -> Request {
        Request { class, text }
    }
}

/// One connection's requests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionPlan {
    /// Sent before the timed window; left out of every metric.
    pub warm: Vec<Request>,
    /// Sent in order during the timed window.
    pub timed: Vec<Request>,
    /// Whether the timed list may start over: it opens with the request
    /// that sets up its own state, so a repeat is a valid continuation.
    pub cyclic: bool,
}

impl SessionPlan {
    /// The `i`-th timed request; `None` once a non-cyclic plan is spent.
    pub fn timed_request(&self, i: usize) -> Option<&Request> {
        if self.cyclic && !self.timed.is_empty() {
            self.timed.get(i % self.timed.len())
        } else {
            self.timed.get(i)
        }
    }
}

/// SplitMix64: a small, seedable generator whose streams are fixed by the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every session's plan for `workload`. `builds` is how many timed
/// `CREATE CADVIEW` steps a `cad_cold`-style stream holds; the stream is
/// not cyclic, because a repeated range would hit the caches.
pub fn build(
    workload: Workload,
    seed: u64,
    builds: usize,
    cars: &Table,
    synth: &Table,
) -> Result<Vec<SessionPlan>, String> {
    Ok(match workload {
        Workload::CadCold => vec![cold_session(seed, builds, cars, true)?],
        Workload::ExploreHot => vec![hot_session(seed, synth)?],
        Workload::SharedWorker => vec![
            cold_session(seed, builds, cars, false)?,
            interaction_session(seed, synth)?,
        ],
    })
}

/// Values of a numeric column with their row ids, sorted by value.
fn sorted_numeric(table: &Table, col: usize) -> Vec<(i64, u32)> {
    let mut values: Vec<(i64, u32)> = (0..table.num_rows())
        .filter_map(|r| match table.value(r, col) {
            Value::Int(v) => Some((v, r as u32)),
            _ => None,
        })
        .collect();
    values.sort_unstable();
    values
}

/// A categorical column as small per-row codes, for counting values over
/// many row ranges without materializing strings.
struct Coded {
    codes: Vec<u16>,
    labels: Vec<String>,
}

impl Coded {
    fn new(table: &Table, col: usize) -> Coded {
        let mut labels: Vec<String> = Vec::new();
        let mut index: HashMap<String, u16> = HashMap::new();
        let codes = (0..table.num_rows())
            .map(|r| match table.value(r, col) {
                Value::Str(s) => *index.entry(s).or_insert_with_key(|s| {
                    labels.push(s.clone());
                    (labels.len() - 1) as u16
                }),
                _ => u16::MAX,
            })
            .collect();
        Coded { codes, labels }
    }

    /// The most frequent label over `rows` (ties to the first seen).
    fn most_frequent(&self, rows: impl Iterator<Item = u32>) -> Option<&str> {
        let mut counts = vec![0usize; self.labels.len()];
        for row in rows {
            if let Some(n) = counts.get_mut(usize::from(self.codes[row as usize])) {
                *n += 1;
            }
        }
        let (best, &n) = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))?;
        (n > 0).then(|| self.labels[best].as_str())
    }
}

/// `cad_cold`'s stream on `cars`: each step builds a view over a fresh
/// `Price`/`Mileage` range with a rotating pivot, in the paper's default
/// shape (5 compare attributes, 3 IUnits). With `interactions`, each build
/// is followed by one `SUGGEST NEXT` and one `HIGHLIGHT` or `REORDER`.
fn cold_session(
    seed: u64,
    builds: usize,
    cars: &Table,
    interactions: bool,
) -> Result<SessionPlan, String> {
    let schema = cars.schema();
    let col = |name: &str| schema.index_of(name).map_err(|e| e.to_string());
    let ranges = [
        ("Price", sorted_numeric(cars, col("Price")?)),
        ("Mileage", sorted_numeric(cars, col("Mileage")?)),
    ];
    let pivots: Vec<(&str, Coded)> = COLD_PIVOTS
        .iter()
        .map(|p| col(p).map(|c| (*p, Coded::new(cars, c))))
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(seed ^ 0xc01d);
    let mut seen = HashSet::new();
    let mut plan = SessionPlan::default();
    for step in 0..builds {
        let (pivot, coded) = &pivots[step % pivots.len()];
        let (attr, sorted) = &ranges[rng.below(ranges.len())];
        // A seeded window of ranks; the bounds are the values at its ends,
        // so the selected rows are at least the window (ties add more).
        let (lo, hi, first, last) = loop {
            let want = COLD_MIN_ROWS + rng.below(COLD_MAX_ROWS - COLD_MIN_ROWS + 1);
            let start = rng.below(sorted.len() - want + 1);
            let (lo, hi) = (sorted[start].0, sorted[start + want - 1].0);
            if seen.insert((*attr, lo, hi)) {
                let first = sorted.partition_point(|&(v, _)| v < lo);
                let last = sorted.partition_point(|&(v, _)| v <= hi);
                break (lo, hi, first, last);
            }
        };
        plan.timed.push(Request::new(
            Class::Cad,
            format!(
                "CREATE CADVIEW v AS SET pivot = {pivot} FROM cars WHERE {attr} BETWEEN {lo} AND {hi} LIMIT COLUMNS 5 IUNITS 3"
            ),
        ));
        if !interactions {
            continue;
        }
        // Anchor on the pivot value most frequent in the range: it is
        // certainly one of the view's rows.
        let anchor = coded
            .most_frequent(sorted[first..last].iter().map(|&(_, row)| row))
            .ok_or_else(|| format!("no {pivot} values in {attr} {lo}..{hi}"))?;
        // Three reorders to a highlight, in a fixed pattern: with an even
        // mix the class median sat on the boundary between the two ops'
        // latencies and moved 22% between seeds.
        plan.timed
            .push(Request::new(Class::Suggest, "SUGGEST NEXT FOR v".into()));
        plan.timed.push(if step % 4 == 3 {
            highlight(anchor, 1 + rng.below(3))
        } else {
            reorder(anchor)
        });
    }
    Ok(plan)
}

fn highlight(anchor: &str, iunit: usize) -> Request {
    Request::new(
        Class::Interact,
        format!("HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY('{anchor}', {iunit}) > 0.5"),
    )
}

fn reorder(anchor: &str) -> Request {
    Request::new(
        Class::Interact,
        format!("REORDER ROWS IN v ORDER BY SIMILARITY('{anchor}') DESC"),
    )
}

/// `explore_hot`'s working set on `synth`: the drill predicates (one or
/// two equality terms over the top two levels of `d0..d2`), each selecting
/// at least the preview floor. The set is the same for every `--seed`:
/// drawn per seed, it moved `ops_per_s` by 20% between seeds.
pub fn hot_predicates(synth: &Table) -> Result<Vec<String>, String> {
    let facets = ["d0", "d1", "d2"];
    let mut candidates: Vec<String> = Vec::new();
    for (i, a) in facets.iter().enumerate() {
        for la in 0..2 {
            candidates.push(format!("{a} = {a}_v{la}"));
            for b in &facets[i + 1..] {
                for lb in 0..2 {
                    candidates.push(format!("{a} = {a}_v{la} AND {b} = {b}_v{lb}"));
                }
            }
        }
    }
    let mut rng = Rng::new(DATA_SEED ^ 0x4077);
    let mut chosen = Vec::new();
    while chosen.len() < HOT_PREDICATES && !candidates.is_empty() {
        let pred = candidates.swap_remove(rng.below(candidates.len()));
        let parsed = dbex_query::parse_predicate(&pred).map_err(|e| e.to_string())?;
        let rows = synth.filter(&parsed).map_err(|e| e.to_string())?.len();
        if rows >= Session::PREVIEW_MIN_ROWS {
            chosen.push(pred);
        }
    }
    if chosen.len() < HOT_PREDICATES {
        return Err(format!(
            "only {} drill predicates reach the preview floor",
            chosen.len()
        ));
    }
    Ok(chosen)
}

fn hot_create(pivot: &str, pred: &str) -> Request {
    Request::new(
        Class::Cad,
        format!("CREATE CADVIEW v AS SET pivot = {pivot} FROM synth WHERE {pred} LIMIT COLUMNS 3 IUNITS 2"),
    )
}

fn drill(pivot: &str, pred: &str) -> Request {
    Request::new(
        Class::Interact,
        format!("SELECT {pivot} FROM synth WHERE {pred} LIMIT 20"),
    )
}

fn complete_attribute(pred: &str) -> Request {
    Request::new(
        Class::Suggest,
        format!("SUGGEST COMPLETE SELECT * FROM synth WHERE {pred} AND"),
    )
}

fn complete_value(pred: &str, attr: &str) -> Request {
    Request::new(
        Class::Suggest,
        format!("SUGGEST COMPLETE SELECT * FROM synth WHERE {pred} AND {attr} ="),
    )
}

/// Attributes a value completion asks about: never drilled, so the
/// request is the same whatever the current predicate.
const COMPLETE_ATTRS: [&str; 2] = ["c0", "x0"];

/// Every distinct request of the working set once: the untimed pass that
/// fills the caches before timing starts.
fn hot_warm(preds: &[String], pivots: &[&str]) -> Vec<Request> {
    let mut warm = Vec::new();
    for pred in preds {
        for pivot in pivots {
            warm.push(hot_create(pivot, pred));
            warm.push(Request::new(Class::Suggest, "SUGGEST NEXT FOR v".into()));
            warm.push(drill(pivot, pred));
        }
        warm.push(complete_attribute(pred));
        for attr in COMPLETE_ATTRS {
            warm.push(complete_value(pred, attr));
        }
    }
    warm
}

/// One TPFacet-shaped step over the working set, appended to `out`.
/// `view_fixed` keeps the current view (no drill refresh, no pivot).
fn hot_step(
    rng: &mut Rng,
    preds: &[String],
    pivots: &[&str],
    state: &mut (usize, usize),
    suggests: &mut usize,
    view_fixed: bool,
    out: &mut Vec<Request>,
) {
    let (pivot, pred) = (pivots[state.0], &preds[state.1]);
    let anchor = format!("{pivot}_v0");
    let r = rng.unit();
    if r < 0.25 {
        out.push(highlight(&anchor, 1 + rng.below(2)));
    } else if r < 0.45 {
        out.push(reorder(&anchor));
    } else if r < 0.65 {
        *suggests += 1;
        out.push(match *suggests % 3 {
            0 => Request::new(Class::Suggest, "SUGGEST NEXT FOR v".into()),
            1 => complete_attribute(pred),
            _ => complete_value(pred, COMPLETE_ATTRS[rng.below(COMPLETE_ATTRS.len())]),
        });
    } else if r < 0.85 || view_fixed {
        // Drill: move to another predicate of the working set. A fixed
        // view only looks at the rows; a live one refreshes the view.
        let next = (state.1 + 1 + rng.below(preds.len() - 1)) % preds.len();
        out.push(drill(pivot, &preds[next]));
        if !view_fixed {
            state.1 = next;
            out.push(hot_create(pivot, &preds[next]));
        }
    } else {
        state.0 = (state.0 + 1 + rng.below(pivots.len() - 1)) % pivots.len();
        out.push(hot_create(pivots[state.0], pred));
    }
}

/// Timed steps per TPFacet walk before it starts over.
const HOT_WALK_STEPS: usize = 4_000;

/// `explore_hot`: a TPFacet-shaped walk (drill, CAD, pivot, highlight,
/// reorder, suggest) inside the 24-view working set.
fn hot_session(seed: u64, synth: &Table) -> Result<SessionPlan, String> {
    let preds = hot_predicates(synth)?;
    let mut rng = Rng::new(seed ^ 0x4e57);
    let mut state = (0, 0);
    let mut suggests = 0;
    let mut timed = vec![hot_create(HOT_PIVOTS[0], &preds[0])];
    for _ in 0..HOT_WALK_STEPS {
        hot_step(
            &mut rng,
            &preds,
            &HOT_PIVOTS,
            &mut state,
            &mut suggests,
            false,
            &mut timed,
        );
    }
    Ok(SessionPlan {
        warm: hot_warm(&preds, &HOT_PIVOTS),
        timed,
        cyclic: true,
    })
}

/// `shared_worker`'s session B: `explore_hot`'s interaction and suggestion
/// steps on one view of its own.
fn interaction_session(seed: u64, synth: &Table) -> Result<SessionPlan, String> {
    let preds = hot_predicates(synth)?;
    let mut rng = Rng::new(seed ^ 0xb0b);
    let mut state = (0, 0);
    let mut suggests = 0;
    let warm = hot_warm(&preds[..1], &HOT_PIVOTS[..1]);
    let mut timed = Vec::new();
    for _ in 0..HOT_WALK_STEPS {
        hot_step(
            &mut rng,
            &preds,
            &HOT_PIVOTS,
            &mut state,
            &mut suggests,
            true,
            &mut timed,
        );
    }
    Ok(SessionPlan {
        warm,
        timed,
        cyclic: true,
    })
}

/// The plan file: one `#session <cyclic>` header per connection, then
/// `W`/`T` (warm/timed), the class and the request, tab-separated.
pub fn encode(plans: &[SessionPlan]) -> String {
    let mut out = String::new();
    for plan in plans {
        let _ = writeln!(out, "#session\t{}", u8::from(plan.cyclic));
        for (tag, list) in [("W", &plan.warm), ("T", &plan.timed)] {
            for r in list {
                let _ = writeln!(out, "{tag}\t{}\t{}", r.class.name(), r.text);
            }
        }
    }
    out
}

pub fn decode(text: &str) -> Result<Vec<SessionPlan>, String> {
    let mut plans: Vec<SessionPlan> = Vec::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.splitn(3, '\t').collect();
        match fields.as_slice() {
            ["#session", cyclic] => plans.push(SessionPlan {
                cyclic: *cyclic == "1",
                ..SessionPlan::default()
            }),
            [tag, class, text] => {
                let plan = plans.last_mut().ok_or("plan line before any #session")?;
                let class = Class::parse(class).ok_or_else(|| format!("bad class {class:?}"))?;
                let request = Request::new(class, (*text).to_owned());
                match *tag {
                    "W" => plan.warm.push(request),
                    "T" => plan.timed.push(request),
                    _ => return Err(format!("bad plan line {line:?}")),
                }
            }
            _ => return Err(format!("bad plan line {line:?}")),
        }
    }
    Ok(plans)
}

/// The generated tables, by catalog name.
pub fn tables() -> Vec<(String, Arc<Table>)> {
    vec![
        (
            "cars".to_owned(),
            Arc::new(dbex_data::UsedCarsGenerator::new(DATA_SEED).generate(ROWS)),
        ),
        (
            "synth".to_owned(),
            Arc::new(dbex_explore::SyntheticSpec::exploration_default(ROWS, DATA_SEED).generate()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_file_round_trips() {
        let plans = vec![
            SessionPlan {
                warm: vec![Request::new(
                    Class::Cad,
                    "CREATE CADVIEW v AS SET pivot = p FROM synth".into(),
                )],
                timed: vec![
                    Request::new(
                        Class::Interact,
                        "SELECT p FROM synth WHERE d0 = d0_v0 LIMIT 20".into(),
                    ),
                    Request::new(Class::Suggest, "SUGGEST NEXT FOR v".into()),
                ],
                cyclic: true,
            },
            SessionPlan {
                warm: vec![],
                timed: vec![Request::new(
                    Class::Cad,
                    "CREATE CADVIEW w AS SET pivot = Make FROM cars".into(),
                )],
                cyclic: false,
            },
        ];
        assert_eq!(decode(&encode(&plans)).unwrap(), plans);
        assert_eq!(plans[0].timed_request(3), Some(&plans[0].timed[1]));
        assert_eq!(plans[1].timed_request(1), None);
    }

    #[test]
    fn rng_streams_are_fixed_by_the_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
