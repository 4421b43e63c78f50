//! `kernel_ab` — scalar ↔ SIMD A/B digest gate (`scripts/check.sh
//! --kernel-ab`).
//!
//! The SIMD kernels carry a bit-identity contract: every dispatch family
//! (scalar, SSE2, AVX2, NEON) must produce byte-for-byte the same CAD
//! Views. The `DBEX_SIMD` override is read once per process and cached,
//! so a single process cannot observe two dispatches end-to-end; this
//! gate therefore re-executes itself as `--digest` children, one per
//! dispatch family, and diffs their digests:
//!
//! 1. each child builds CAD Views over the three benchmark datasets at
//!    1 and 4 threads (covering the chunked-merge path) and prints one
//!    FNV-1a digest line per build, plus the dispatch it actually ran.
//!    It also runs each build the streamed way — started paused after
//!    the first Lloyd pass, previewed, then finished — prints the
//!    preview's digest, and fails unless the finished view's digest
//!    equals the unstreamed one (a family that cannot resume a Lloyd run
//!    exactly fails here);
//! 2. the parent deduplicates children by reported dispatch (requests
//!    for unavailable families clamp to the hardware) and fails unless
//!    every family's digest block is identical to the scalar reference;
//! 3. on x86_64/aarch64 at least two distinct families must have run —
//!    a gate where every child silently clamped to scalar proves
//!    nothing and fails loudly instead.

use dbexplorer::core::{build_cad_view, CadBuild, CadConfig, CadRequest, CadView, Tracer};
use dbexplorer::data::{HotelsGenerator, MushroomGenerator, UsedCarsGenerator};
use dbexplorer::table::Table;

fn fail(msg: &str) -> ! {
    eprintln!("kernel_ab: FAIL: {msg}");
    std::process::exit(1);
}

/// The benchmark datasets and their pivot attributes (mirrors
/// `tests/parallel_determinism.rs`).
fn datasets() -> Vec<(&'static str, Table, &'static str)> {
    vec![
        ("cars", UsedCarsGenerator::new(7).generate(6_000), "Make"),
        ("mushroom", MushroomGenerator::new(7).generate(4_000), "Odor"),
        ("hotels", HotelsGenerator::new(7).generate(4_000), "District"),
    ]
}

/// Flattens everything observable about a view into one digestible
/// string, float bits included.
fn render_digestible(cad: &CadView) -> String {
    let mut out = format!(
        "pivot={} compare={:?} k={} tau={}\n",
        cad.pivot_name, cad.compare_names, cad.k, cad.tau
    );
    for s in &cad.feature_scores {
        out.push_str(&format!(
            "score attr={} stat={} p={}\n",
            s.attr_index,
            s.statistic.to_bits(),
            s.p_value.to_bits()
        ));
    }
    for row in &cad.rows {
        out.push_str(&format!("row {} {}\n", row.pivot_code, row.pivot_label));
        for u in &row.iunits {
            out.push_str(&format!(
                "  size={} score={} labels={:?} members={:?}\n",
                u.size,
                u.score.to_bits(),
                u.labels,
                u.members
            ));
        }
    }
    for d in &cad.degradation {
        out.push_str(&format!("degraded {d}\n"));
    }
    out
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Child: print the dispatch this process resolved to, then one digest
/// line per (dataset, thread count) build.
fn run_digest() -> i32 {
    println!("dispatch {}", dbexplorer::stats::simd::dispatch().name());
    for (name, table, pivot) in datasets() {
        let view = table.full_view();
        for threads in [1usize, 4] {
            let request = CadRequest::new(pivot).with_iunits(3).with_config(CadConfig {
                threads,
                ..CadConfig::default()
            });
            let cad = build_cad_view(&view, &request)
                .unwrap_or_else(|e| fail(&format!("{name} t={threads} build failed: {e}")));
            let digest = fnv1a(&render_digestible(&cad));
            println!("digest {name} t{threads} {digest:016x}");
            let paused = CadBuild::start(&view, &request, None, None, &Tracer::disabled(), true)
                .unwrap_or_else(|e| fail(&format!("{name} t={threads} paused start failed: {e}")));
            let preview = paused
                .preview(&view)
                .unwrap_or_else(|e| fail(&format!("{name} t={threads} preview failed: {e}")));
            println!(
                "digest {name} t{threads} preview {:016x}",
                fnv1a(&render_digestible(&preview))
            );
            let resumed = paused
                .finish(&view, None)
                .unwrap_or_else(|e| fail(&format!("{name} t={threads} resumed build failed: {e}")));
            if fnv1a(&render_digestible(&resumed)) != digest {
                fail(&format!(
                    "{name} t={threads}: the resumed build diverged from the unstreamed one"
                ));
            }
        }
    }
    0
}

/// Spawns a `--digest` child pinned to the given `DBEX_SIMD` value and
/// returns its (reported dispatch, digest lines).
fn child_digests(exe: &std::path::Path, simd: &str) -> (String, Vec<String>) {
    let output = std::process::Command::new(exe)
        .arg("--digest")
        .env("DBEX_SIMD", simd)
        .output()
        .unwrap_or_else(|e| fail(&format!("cannot spawn the {simd} child: {e}")));
    if !output.status.success() {
        fail(&format!(
            "{simd} child failed: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut dispatch = String::new();
    let mut digests = Vec::new();
    for line in stdout.lines() {
        if let Some(name) = line.strip_prefix("dispatch ") {
            dispatch = name.to_owned();
        } else if line.starts_with("digest ") {
            digests.push(line.to_owned());
        }
    }
    if dispatch.is_empty() || digests.is_empty() {
        fail(&format!("{simd} child printed no dispatch/digest lines:\n{stdout}"));
    }
    (dispatch, digests)
}

fn run_default() {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));

    // Request every family; children clamp to what the hardware has, so
    // deduplicate by the dispatch each child actually reports.
    let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
    for simd in ["scalar", "sse2", "avx2", "neon"] {
        let (dispatch, digests) = child_digests(&exe, simd);
        if !blocks.iter().any(|(d, _)| *d == dispatch) {
            blocks.push((dispatch, digests));
        }
    }

    let Some(scalar) = blocks.iter().find(|(d, _)| d == "scalar") else {
        fail("no child ran the scalar reference dispatch");
    };
    let reference = scalar.1.clone();
    for (dispatch, digests) in &blocks {
        if *digests != reference {
            let diff: Vec<&String> = digests
                .iter()
                .filter(|line| !reference.contains(*line))
                .collect();
            fail(&format!("{dispatch} digests diverged from scalar: {diff:?}"));
        }
    }

    if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) && blocks.len() < 2 {
        fail("only the scalar family ran; the A/B comparison is vacuous on this hardware");
    }

    let families: Vec<&str> = blocks.iter().map(|(d, _)| d.as_str()).collect();
    println!(
        "kernel_ab: OK ({} digest(s) per family byte-identical across {:?})",
        reference.len(),
        families
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => run_default(),
        Some("--digest") => std::process::exit(run_digest()),
        Some(other) => fail(&format!("unknown flag {other}; try --digest")),
    }
}
