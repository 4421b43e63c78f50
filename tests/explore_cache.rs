//! The sharded stats cache under realistically skewed key traffic,
//! driven through its public API with keys drawn from the exploration
//! benchmark's Zipf sampler.
//!
//! Every cached payload is *self-describing* — it encodes the key it was
//! built for — so a single equality assertion per lookup proves the
//! cache can never serve a payload built for a different fingerprint.

use dbexplorer::explore::Zipf;
use dbexplorer::stats::cache::{CodecKey, ContingencyKey, StatsCache, TableScores, MAX_ENTRIES};
use dbexplorer::stats::chi2::ContingencyTable;
use dbexplorer::stats::discretize::AttributeCodec;
use dbexplorer::stats::histogram::BinningStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A codec whose only label names the fingerprint it was built for.
fn codec_for(fp: u64) -> AttributeCodec {
    AttributeCodec::Categorical {
        labels: vec![format!("fp{fp}")],
    }
}

fn codec_key(fp: u64) -> CodecKey {
    CodecKey {
        view_fp: fp,
        attr: 0,
        bins: 8,
        strategy: BinningStrategy::EquiDepth,
    }
}

/// A contingency table whose counts encode the key it was built for: the
/// 2×2 table `[[fp + 1, 1], [1, 2]]`, whose chi-square statistic grows
/// strictly with `fp`, so no two fingerprints share scores.
fn table_for(fp: u64) -> ContingencyTable {
    let mut table = ContingencyTable::new(2, 2);
    let (rows, cols): (Vec<u32>, Vec<u32>) = [(0, 0, fp + 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)]
        .into_iter()
        .flat_map(|(row, col, n)| (0..n).map(move |_| (row, col)))
        .unzip();
    table.fill_pairs(&rows, &cols, u32::MAX);
    table
}

/// Zipf-skewed codec traffic over a key space much larger than the
/// cache: the hit rate must reflect the skew (the hot head stays
/// resident), evictions must flow monotonically, and every returned
/// payload must be the one built for the requested fingerprint.
#[test]
fn zipf_codec_traffic_skewed_hit_rate_and_no_stale_payloads() {
    const KEY_SPACE: usize = 5_000; // ≫ MAX_ENTRIES = 1024
    const LOOKUPS: usize = 30_000;

    let cache = StatsCache::new();
    let zipf = Zipf::new(KEY_SPACE, 1.0);
    let mut rng = StdRng::seed_from_u64(0xCAC4E);

    let mut last = cache.stats();
    for i in 0..LOOKUPS {
        let fp = zipf.sample(&mut rng) as u64;
        let codec = cache
            .codec_with(codec_key(fp), || Ok(codec_for(fp)))
            .expect("build closure is infallible");
        assert_eq!(
            codec.label(0),
            format!("fp{fp}"),
            "cache served a payload built for a different fingerprint"
        );
        if i % 1_000 == 0 {
            let now = cache.stats();
            assert!(now.hits >= last.hits, "hit counter went backwards");
            assert!(now.misses >= last.misses, "miss counter went backwards");
            assert!(now.evictions >= last.evictions, "eviction counter went backwards");
            assert!(now.codec_entries <= MAX_ENTRIES, "cache exceeded its entry cap");
            last = now;
        }
    }

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        LOOKUPS as u64,
        "every lookup is exactly one hit or one miss"
    );
    // 5000 keys cannot fit in 1024 entries: the tail must churn.
    assert!(stats.evictions > 0, "no evictions despite key space ≫ capacity");
    assert!(stats.codec_entries <= MAX_ENTRIES);
    // Every miss inserts exactly one entry; entries = inserts − evictions.
    assert_eq!(
        stats.codec_entries as u64,
        stats.misses - stats.evictions,
        "entry accounting out of balance"
    );
    // Zipf(s=1) head mass: the resident hot set should serve well over
    // half the traffic even while the tail churns.
    let hit_rate = stats.hits as f64 / LOOKUPS as f64;
    assert!(
        hit_rate > 0.5,
        "hit rate {hit_rate:.3} implausibly low for skewed traffic"
    );
}

/// Concurrent mixed codec + contingency traffic from independently
/// seeded Zipf streams: counters stay exactly consistent, the cap
/// holds, and no thread ever observes a stale payload.
#[test]
fn concurrent_zipf_traffic_stays_consistent() {
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 8_000;

    let cache = StatsCache::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            scope.spawn(move || {
                let zipf = Zipf::new(3_000, 0.9);
                let mut rng = StdRng::seed_from_u64(0xBEEF_0000 + t * 0x9E37);
                for _ in 0..PER_THREAD {
                    let fp = zipf.sample(&mut rng) as u64;
                    if fp.is_multiple_of(2) {
                        let codec = cache
                            .codec_with(codec_key(fp), || Ok(codec_for(fp)))
                            .expect("build closure is infallible");
                        assert_eq!(codec.label(0), format!("fp{fp}"), "stale codec payload");
                    } else {
                        let key = ContingencyKey {
                            view_fp: fp,
                            class_ctx: fp.rotate_left(17),
                            attr: 1,
                            bins: 8,
                            strategy: BinningStrategy::EquiWidth,
                        };
                        let scores = cache
                            .contingency_with(key, || Some(table_for(fp)))
                            .expect("build closure always returns a table");
                        assert_eq!(
                            scores,
                            TableScores::of(&table_for(fp)),
                            "stale contingency payload"
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    // codec_with/contingency_with record exactly one hit or miss per call,
    // even when two threads race to build the same key.
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * PER_THREAD as u64,
        "hit/miss accounting lost lookups under concurrency"
    );
    assert!(stats.codec_entries <= MAX_ENTRIES);
    assert!(stats.contingency_entries <= MAX_ENTRIES);
    assert!(
        stats.hits > stats.misses,
        "skewed traffic should be hit-dominated (got {} hits / {} misses)",
        stats.hits,
        stats.misses
    );
}
