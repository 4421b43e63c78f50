//! Save/open protocols over a [`Vfs`]: the crash-safe catalog itself.
//!
//! ## Save protocol
//!
//! 1. Encode every table to segment bytes; the FNV-1a content digest
//!    names the file (`seg-<digest>.seg`), so a table whose content has
//!    not changed since any live generation is **reused**, not rewritten.
//! 2. New segments are written `tmp → fsync → rename`: a crash mid-write
//!    leaves only a `.tmp.*` orphan, never a torn `seg-*.seg`.
//! 3. The optional stats sidecar (warm cluster solutions) is written the
//!    same way.
//! 4. The manifest for generation `g+1` is written `tmp → fsync → rename
//!    → fsync(dir)`. Only this rename commits the snapshot; everything
//!    before it is invisible to recovery.
//! 5. Old generations are pruned best-effort (keeping the previous one as
//!    the fallback), so a crash during prune costs disk, not data.
//!
//! ## Open protocol
//!
//! Generations are tried newest-first. A generation loads only if its
//! manifest decodes, every referenced segment decodes **and** matches the
//! manifest's digest, and the tables pass `dbex-table` validation.
//! Anything less falls back to the next-older generation (counted in
//! `store.recoveries`); if every generation fails, the typed
//! [`StoreError::AllGenerationsCorrupt`] reports the newest failure.
//! Decoding never panics on disk bytes — that property is enforced by the
//! fault-injection and bit-flip suites in `tests/store_recovery.rs`.

use crate::error::StoreError;
use crate::manifest::{
    decode_manifest, encode_manifest, manifest_file_name, parse_manifest_gen, stats_file_name,
    Manifest, ManifestEntry,
};
use crate::segment::{
    check_magic, decode_segment, encode_table, push_block, segment_file_name, table_digest,
    BlockReader, Cursor,
};
use crate::vfs::Vfs;
use dbex_stats::{ClusterKey, ClusterSolution, StatsCache};
use dbex_table::{Column, Table};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes opening a stats sidecar file.
pub const STATS_MAGIC: &[u8; 8] = b"DBEXSTA1";

/// Current stats sidecar format version.
pub const STATS_VERSION: u32 = 1;

/// What a [`save`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Generation committed by this save.
    pub generation: u64,
    /// Tables recorded in the manifest.
    pub tables: usize,
    /// Segments newly written by this save.
    pub segments_written: usize,
    /// Segments reused by content address from earlier generations.
    pub segments_reused: usize,
    /// Cluster solutions persisted in the stats sidecar.
    pub cluster_entries: usize,
    /// Total bytes written (segments + sidecar + manifest).
    pub bytes_written: u64,
}

/// What an [`open`] recovered.
#[derive(Debug)]
pub struct OpenReport {
    /// Generation that loaded.
    pub generation: u64,
    /// Recovered tables, sorted by catalog name.
    pub tables: Vec<(String, Arc<Table>)>,
    /// Cluster solutions decoded from the sidecar (empty if the sidecar
    /// was absent, corrupt, or inapplicable).
    clusters: Vec<(ClusterKey, ClusterSolution)>,
    /// Older generations fallen back to because newer ones were corrupt.
    pub fallbacks: u32,
    /// Whether every table kept its persisted id. When false the cached
    /// cluster fingerprints reference ids now owned by other tables, so
    /// rehydration is skipped (safe, merely cold).
    pub all_ids_adopted: bool,
}

impl OpenReport {
    /// Cluster solutions available for rehydration.
    pub fn cluster_entries(&self) -> usize {
        self.clusters.len()
    }

    /// Inserts the recovered cluster solutions into `cache`, returning
    /// how many were rehydrated. No-op (returns 0) when table-id adoption
    /// failed, since the persisted fingerprints would then be dangling.
    pub fn rehydrate_into(&self, cache: &StatsCache) -> usize {
        if !self.all_ids_adopted {
            return 0;
        }
        for (key, solution) in &self.clusters {
            cache.cluster_insert(*key, solution.clone());
        }
        self.clusters.len()
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Writes `data` durably at `dir/name` via `tmp → fsync → rename`.
fn write_atomic(vfs: &dyn Vfs, dir: &Path, name: &str, data: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(format!(".tmp.{name}"));
    let dest = dir.join(name);
    vfs.write_all(&tmp, data).map_err(|e| io_err(&tmp, e))?;
    vfs.fsync(&tmp).map_err(|e| io_err(&tmp, e))?;
    vfs.rename(&tmp, &dest).map_err(|e| io_err(&dest, e))?;
    Ok(())
}

/// Generations present in `dir`, ascending.
fn list_generations(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<u64>, StoreError> {
    let names = vfs.list(dir).map_err(|e| io_err(dir, e))?;
    let mut gens: Vec<u64> = names.iter().filter_map(|n| parse_manifest_gen(n)).collect();
    gens.sort_unstable();
    Ok(gens)
}

fn encode_stats(entries: &[(ClusterKey, ClusterSolution)], table_ids: &BTreeSet<u64>) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&STATS_VERSION.to_le_bytes());
    payload.extend_from_slice(&(table_ids.len() as u32).to_le_bytes());
    for id in table_ids {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, solution) in entries {
        payload.extend_from_slice(&key.partition_fp.to_le_bytes());
        payload.extend_from_slice(&(key.l as u64).to_le_bytes());
        payload.extend_from_slice(&(key.iters as u64).to_le_bytes());
        payload.extend_from_slice(&key.seed.to_le_bytes());
        payload.push(key.plus_plus as u8);
        payload.extend_from_slice(&(key.sample as u64).to_le_bytes());
        let clusters = solution.to_vecs();
        payload.extend_from_slice(&(clusters.len() as u32).to_le_bytes());
        for cluster in &clusters {
            payload.extend_from_slice(&(cluster.len() as u32).to_le_bytes());
            for member in cluster {
                payload.extend_from_slice(&member.to_le_bytes());
            }
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(STATS_MAGIC);
    push_block(&mut out, &payload);
    out
}

/// Decoded sidecar: the table-id set it was saved against, plus entries.
struct StatsSidecar {
    table_ids: BTreeSet<u64>,
    entries: Vec<(ClusterKey, ClusterSolution)>,
}

fn usize_field(cur: &mut Cursor<'_>, what: &str, path: &Path) -> Result<usize, StoreError> {
    let v = cur.u64()?;
    usize::try_from(v).map_err(|_| StoreError::Corrupt {
        path: path.to_path_buf(),
        offset: 0,
        detail: format!("{what} {v} exceeds usize"),
    })
}

fn decode_stats(data: &[u8], path: &Path) -> Result<StatsSidecar, StoreError> {
    check_magic(data, STATS_MAGIC, path)?;
    let mut blocks = BlockReader::new(data, 8, path);
    let (payload, base) = blocks.next_block()?;
    blocks.done()?;

    let mut cur = Cursor::new(payload, path, base);
    let version = cur.u32()?;
    if version != STATS_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let id_count = cur.u32()? as usize;
    let mut table_ids = BTreeSet::new();
    for _ in 0..id_count {
        table_ids.insert(cur.u64()?);
    }
    let entry_count = cur.u32()? as usize;
    let mut entries = Vec::with_capacity(entry_count.min(cur.remaining() / 42 + 1));
    for _ in 0..entry_count {
        let partition_fp = cur.u64()?;
        let l = usize_field(&mut cur, "cluster count l", path)?;
        let iters = usize_field(&mut cur, "iteration cap", path)?;
        let seed = cur.u64()?;
        let plus_plus = cur.u8()? != 0;
        let sample = usize_field(&mut cur, "sample cap", path)?;
        let cluster_count = cur.u32()? as usize;
        let mut clusters = Vec::with_capacity(cluster_count.min(cur.remaining() / 4 + 1));
        for _ in 0..cluster_count {
            let len = cur.u32()? as usize;
            let mut members = Vec::with_capacity(len.min(cur.remaining() / 4 + 1));
            for _ in 0..len {
                members.push(cur.u32()?);
            }
            clusters.push(members);
        }
        entries.push((
            ClusterKey {
                partition_fp,
                l,
                iters,
                seed,
                plus_plus,
                sample,
            },
            ClusterSolution::new(&clusters),
        ));
    }
    cur.done()?;
    Ok(StatsSidecar { table_ids, entries })
}

/// Saves `tables` (and, if given, `cache`'s exact cluster solutions) as a
/// new manifest generation in `dir`. Returns only once the new manifest's
/// rename has been made durable; any error leaves the previous generation
/// untouched and loadable.
pub fn save(
    vfs: &dyn Vfs,
    dir: &Path,
    tables: &[(String, Arc<Table>)],
    cache: Option<&StatsCache>,
) -> Result<SaveReport, StoreError> {
    let started = Instant::now();
    vfs.create_dir_all(dir).map_err(|e| io_err(dir, e))?;

    let generations = list_generations(vfs, dir)?;
    let generation = generations.last().copied().unwrap_or(0) + 1;

    let mut sorted: Vec<&(String, Arc<Table>)> = tables.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));

    let mut entries = Vec::with_capacity(sorted.len());
    let mut segments_written = 0usize;
    let mut segments_reused = 0usize;
    let mut bytes_written = 0u64;
    let mut table_ids = BTreeSet::new();

    for (name, table) in sorted {
        let columns: Vec<Column> =
            (0..table.num_columns()).map(|i| table.column(i).clone()).collect();
        let bytes = encode_table(table.schema(), &columns, table.num_rows(), table.id());
        let digest = table_digest(table);
        let segment = segment_file_name(digest);
        if vfs.exists(&dir.join(&segment)) {
            segments_reused += 1;
        } else {
            write_atomic(vfs, dir, &segment, &bytes)?;
            segments_written += 1;
            bytes_written += bytes.len() as u64;
        }
        table_ids.insert(table.id());
        entries.push(ManifestEntry {
            name: name.clone(),
            segment,
            rows: table.num_rows() as u64,
            digest,
            table_id: table.id(),
        });
    }

    // Stats sidecar: persisted only when there is something to keep warm.
    let exported = cache.map(|c| c.export_clusters()).unwrap_or_default();
    let mut exported = exported;
    exported.sort_by_key(|(k, _)| (k.partition_fp, k.l, k.iters, k.seed, k.sample, k.plus_plus));
    let stats_file = if exported.is_empty() {
        None
    } else {
        let name = stats_file_name(generation);
        let bytes = encode_stats(&exported, &table_ids);
        write_atomic(vfs, dir, &name, &bytes)?;
        bytes_written += bytes.len() as u64;
        Some(name)
    };

    let manifest = Manifest {
        generation,
        entries,
        stats_file,
    };
    let bytes = encode_manifest(&manifest);
    write_atomic(vfs, dir, &manifest_file_name(generation), &bytes)?;
    bytes_written += bytes.len() as u64;
    // The commit point: make the rename itself durable.
    vfs.fsync_dir(dir).map_err(|e| io_err(dir, e))?;

    prune(vfs, dir, generation);

    dbex_obs::histogram!("store.save_ms", SAVE_MS_BOUNDS).observe_ms(started.elapsed());
    Ok(SaveReport {
        generation,
        tables: manifest.entries.len(),
        segments_written,
        segments_reused,
        cluster_entries: exported.len(),
        bytes_written,
    })
}

const SAVE_MS_BOUNDS: &[f64] = &[1.0, 5.0, 20.0, 80.0, 320.0, 1280.0, 5120.0];

/// Best-effort cleanup after a committed save: keeps the new and previous
/// generation (manifests, sidecars, referenced segments), removes older
/// manifests, orphaned segments, stale sidecars, and `.tmp.*` leftovers.
/// Failures are ignored — pruning can never threaten recoverability.
fn prune(vfs: &dyn Vfs, dir: &Path, newest: u64) {
    let Ok(names) = vfs.list(dir) else { return };

    // Which generations to keep, and which segments they reference.
    let mut gens: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_manifest_gen(n))
        .filter(|&g| g <= newest)
        .collect();
    gens.sort_unstable();
    let keep: BTreeSet<u64> = gens.into_iter().rev().take(2).collect();
    let mut live_segments = BTreeSet::new();
    for &gen in &keep {
        let path = dir.join(manifest_file_name(gen));
        if let Ok(data) = vfs.read(&path) {
            if let Ok(manifest) = decode_manifest(&data, &path) {
                for entry in manifest.entries {
                    live_segments.insert(entry.segment);
                }
            }
        }
    }

    for name in names {
        let doomed = if name.starts_with(".tmp.") {
            true
        } else if let Some(gen) = parse_manifest_gen(&name) {
            !keep.contains(&gen)
        } else if let Some(gen) = crate::manifest::parse_stats_name(&name) {
            !keep.contains(&gen)
        } else if crate::segment::parse_segment_name(&name).is_some() {
            !live_segments.contains(&name)
        } else {
            false
        };
        if doomed {
            let _ = vfs.remove(&dir.join(&name));
        }
    }
}

/// Opens the newest loadable generation in `dir`. See the module docs for
/// the fallback discipline.
pub fn open(vfs: &dyn Vfs, dir: &Path) -> Result<OpenReport, StoreError> {
    let started = Instant::now();
    let generations = match list_generations(vfs, dir) {
        Ok(gens) => gens,
        // A directory that doesn't exist yet is a cold start, not an error
        // to diagnose.
        Err(StoreError::Io { source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            return Err(StoreError::NoManifest { dir: dir.to_path_buf() })
        }
        Err(e) => return Err(e),
    };
    if generations.is_empty() {
        return Err(StoreError::NoManifest { dir: dir.to_path_buf() });
    }

    let mut newest_error: Option<StoreError> = None;
    let mut fallbacks = 0u32;
    for &generation in generations.iter().rev() {
        match try_open_generation(vfs, dir, generation) {
            Ok(mut report) => {
                report.fallbacks = fallbacks;
                if fallbacks > 0 {
                    dbex_obs::counter!("store.recoveries").incr(fallbacks as u64);
                }
                dbex_obs::histogram!("store.open_ms", SAVE_MS_BOUNDS).observe_ms(started.elapsed());
                return Ok(report);
            }
            Err(e) => {
                fallbacks += 1;
                if newest_error.is_none() {
                    newest_error = Some(e);
                }
            }
        }
    }
    Err(StoreError::AllGenerationsCorrupt {
        dir: dir.to_path_buf(),
        tried: generations.len(),
        newest: Box::new(newest_error.unwrap_or(StoreError::NoManifest {
            dir: dir.to_path_buf(),
        })),
    })
}

fn try_open_generation(vfs: &dyn Vfs, dir: &Path, generation: u64) -> Result<OpenReport, StoreError> {
    let manifest_path = dir.join(manifest_file_name(generation));
    let data = vfs.read(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
    let manifest = decode_manifest(&data, &manifest_path)?;

    // Decode every segment first; promote to tables afterwards in
    // ascending persisted-id order so id adoption (which bumps the global
    // id counter monotonically) can succeed for the whole set.
    let mut decoded = Vec::with_capacity(manifest.entries.len());
    for entry in &manifest.entries {
        let seg_path = dir.join(&entry.segment);
        let bytes = vfs.read(&seg_path).map_err(|e| io_err(&seg_path, e))?;
        let parts = decode_segment(&bytes, &seg_path)?;
        if parts.digest != entry.digest {
            return Err(StoreError::DigestMismatch {
                path: seg_path,
                expected: entry.digest,
                found: parts.digest,
            });
        }
        if parts.rows as u64 != entry.rows {
            return Err(StoreError::Corrupt {
                path: seg_path,
                offset: 0,
                detail: format!("manifest says {} rows, segment has {}", entry.rows, parts.rows),
            });
        }
        decoded.push((entry.name.clone(), entry.table_id, parts));
    }
    decoded.sort_by_key(|(_, table_id, _)| *table_id);

    let mut all_ids_adopted = true;
    let mut tables = Vec::with_capacity(decoded.len());
    let mut recovered_ids = BTreeSet::new();
    for (name, table_id, parts) in decoded {
        let seg_path = dir.join(segment_file_name(parts.digest));
        // The manifest's table_id is authoritative: content-addressed
        // reuse can leave a stale id inside the segment itself.
        let (table, adopted) =
            Table::from_parts_adopting(parts.schema, parts.columns, parts.rows, table_id)
                .map_err(|e| StoreError::Table {
                    path: seg_path,
                    source: e,
                })?;
        all_ids_adopted &= adopted;
        recovered_ids.insert(table.id());
        tables.push((name, Arc::new(table)));
    }
    tables.sort_by(|a, b| a.0.cmp(&b.0));

    // The sidecar is an optimisation, never a load-blocker: corrupt or
    // mismatched sidecars cost warmth, not data.
    let mut clusters = Vec::new();
    if let Some(stats_name) = &manifest.stats_file {
        if all_ids_adopted {
            let stats_path = dir.join(stats_name);
            let sidecar = vfs
                .read(&stats_path)
                .map_err(|e| io_err(&stats_path, e))
                .and_then(|bytes| decode_stats(&bytes, &stats_path));
            match sidecar {
                Ok(sidecar) if sidecar.table_ids == recovered_ids => {
                    clusters = sidecar.entries;
                }
                Ok(_) => {
                    dbex_obs::counter!("store.stats_sidecar_skipped").incr(1);
                }
                Err(_) => {
                    dbex_obs::counter!("store.stats_sidecar_skipped").incr(1);
                }
            }
        }
    }

    Ok(OpenReport {
        generation,
        tables,
        clusters,
        fallbacks: 0,
        all_ids_adopted,
    })
}

/// Block-frame boundaries of the file at `path` — the offsets crash tests
/// truncate at. Convenience wrapper over [`crate::segment::block_boundaries`].
pub fn file_block_boundaries(path: &Path) -> std::io::Result<Vec<usize>> {
    Ok(crate::segment::block_boundaries(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultVfs, RealVfs};
    use dbex_table::{DataType, Field, TableBuilder, Value};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbex-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn table(rows: i64, offset: i64) -> Arc<Table> {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for i in 0..rows {
            b.push_row(vec![
                Value::Str(format!("make-{}", i % 5)),
                Value::Int(offset + i),
            ])
            .unwrap();
        }
        Arc::new(b.finish())
    }

    fn digests(report: &OpenReport) -> Vec<(String, u64)> {
        report
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), table_digest(t)))
            .collect()
    }

    #[test]
    fn save_open_round_trip_with_reuse() {
        let dir = temp_dir("roundtrip");
        let vfs = RealVfs;
        let cars = table(120, 1000);
        let hotels = table(40, 9000);
        let catalog = vec![("cars".to_owned(), cars.clone()), ("hotels".to_owned(), hotels)];

        let r1 = save(&vfs, &dir, &catalog, None).unwrap();
        assert_eq!(r1.generation, 1);
        assert_eq!(r1.segments_written, 2);
        assert_eq!(r1.segments_reused, 0);

        // Second save of the same content: both segments reused.
        let r2 = save(&vfs, &dir, &catalog, None).unwrap();
        assert_eq!(r2.generation, 2);
        assert_eq!(r2.segments_written, 0);
        assert_eq!(r2.segments_reused, 2);

        let opened = open(&vfs, &dir).unwrap();
        assert_eq!(opened.generation, 2);
        assert_eq!(opened.fallbacks, 0);
        assert_eq!(opened.tables.len(), 2);
        assert_eq!(opened.tables[0].0, "cars");
        assert_eq!(table_digest(&opened.tables[0].1), table_digest(&cars));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_of_missing_or_empty_dir_is_no_manifest() {
        let dir = temp_dir("cold");
        assert!(matches!(open(&RealVfs, &dir), Err(StoreError::NoManifest { .. })));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(open(&RealVfs, &dir), Err(StoreError::NoManifest { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let vfs = RealVfs;
        let v1 = vec![("t".to_owned(), table(50, 0))];
        let v2 = vec![("t".to_owned(), table(50, 777))];
        save(&vfs, &dir, &v1, None).unwrap();
        let v1_digest = table_digest(&v1[0].1);
        save(&vfs, &dir, &v2, None).unwrap();

        // Corrupt generation 2's manifest body.
        crate::vfs::flip_bit(&dir.join(manifest_file_name(2)), 20, 2).unwrap();

        let opened = open(&vfs, &dir).unwrap();
        assert_eq!(opened.generation, 1);
        assert_eq!(opened.fallbacks, 1);
        assert_eq!(digests(&opened), vec![("t".to_owned(), v1_digest)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_generations_corrupt_is_typed_not_a_panic() {
        let dir = temp_dir("allcorrupt");
        let vfs = RealVfs;
        save(&vfs, &dir, &[("t".to_owned(), table(10, 0))], None).unwrap();
        save(&vfs, &dir, &[("t".to_owned(), table(10, 5))], None).unwrap();
        for gen in 1..=2 {
            std::fs::write(dir.join(manifest_file_name(gen)), b"garbage").unwrap();
        }
        match open(&vfs, &dir) {
            Err(StoreError::AllGenerationsCorrupt { tried, .. }) => assert_eq!(tried, 2),
            other => panic!("expected AllGenerationsCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_during_save_preserves_the_previous_generation() {
        let dir = temp_dir("faultsave");
        let v1 = vec![("t".to_owned(), table(60, 0))];
        let v2 = vec![("t".to_owned(), table(60, 31337))];
        save(&RealVfs, &dir, &v1, None).unwrap();
        let v1_digest = table_digest(&v1[0].1);
        let v2_digest = table_digest(&v2[0].1);

        // Dry-run to count the mutation ops a v2 save performs.
        let probe_dir = temp_dir("faultsave-probe");
        save(&RealVfs, &probe_dir, &v1, None).unwrap();
        let counting = FaultVfs::counting();
        save(&counting, &probe_dir, &v2, None).unwrap();
        let ops = counting.mutations();
        std::fs::remove_dir_all(&probe_dir).unwrap();
        assert!(ops >= 6, "expected several mutation ops, got {ops}");

        for nth in 0..ops {
            let dir_n = temp_dir(&format!("faultsave-{nth}"));
            copy_dir(&dir, &dir_n);
            let vfs = FaultVfs::failing_at(FaultKind::Enospc, nth);
            let result = save(&vfs, &dir_n, &v2, None);
            let opened = open(&RealVfs, &dir_n).unwrap_or_else(|e| {
                panic!("open after fault at op {nth} failed: {e}")
            });
            let got = digests(&opened);
            // Whatever the fault hit, recovery must land on a complete
            // catalog: the new one if the manifest committed, else the old.
            assert!(
                got == vec![("t".to_owned(), v1_digest)] || got == vec![("t".to_owned(), v2_digest)],
                "fault at op {nth}: unexpected catalog {got:?}"
            );
            if result.is_ok() {
                // A save that claims success must actually be the new catalog.
                assert_eq!(got, vec![("t".to_owned(), v2_digest)], "fault at op {nth}");
            }
            std::fs::remove_dir_all(&dir_n).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_key() -> ClusterKey {
        ClusterKey {
            partition_fp: 0xABCD,
            l: 4,
            iters: 10,
            seed: 42,
            plus_plus: true,
            sample: usize::MAX,
        }
    }

    #[test]
    fn same_process_reopen_skips_rehydration_safely() {
        // Within one process, a reopened table can never adopt its
        // persisted id (the counter is already past it), so cluster
        // fingerprints would dangle. The sidecar must be skipped — tables
        // load fine, warmth is simply lost.
        let dir = temp_dir("sidecar-inproc");
        let vfs = RealVfs;
        let cache = StatsCache::new();
        cache.cluster_insert(
            sample_key(),
            ClusterSolution::new(&[vec![0, 2, 4], vec![1, 3]]),
        );
        let catalog = vec![("t".to_owned(), table(30, 0))];
        let report = save(&vfs, &dir, &catalog, Some(&cache)).unwrap();
        assert_eq!(report.cluster_entries, 1);

        let opened = open(&vfs, &dir).unwrap();
        assert_eq!(opened.tables.len(), 1);
        assert!(!opened.all_ids_adopted);
        assert_eq!(opened.cluster_entries(), 0);
        assert_eq!(opened.rehydrate_into(&StatsCache::new()), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Hand-writes a generation whose manifest assigns `table_id`s above
    /// the process counter — what a snapshot looks like to a *fresh*
    /// process — so adoption and rehydration can be tested in-process.
    fn write_snapshot_with_ids(dir: &Path, base_table: &Table, big_id: u64) -> u64 {
        std::fs::create_dir_all(dir).unwrap();
        let columns: Vec<Column> = (0..base_table.num_columns())
            .map(|i| base_table.column(i).clone())
            .collect();
        let bytes =
            encode_table(base_table.schema(), &columns, base_table.num_rows(), big_id);
        let digest = table_digest(base_table);
        std::fs::write(dir.join(segment_file_name(digest)), &bytes).unwrap();

        let table_ids: BTreeSet<u64> = [big_id].into();
        let entries = vec![(sample_key(), ClusterSolution::new(&[vec![0, 1], vec![2]]))];
        let stats_name = stats_file_name(1);
        std::fs::write(dir.join(&stats_name), encode_stats(&entries, &table_ids)).unwrap();

        let manifest = Manifest {
            generation: 1,
            entries: vec![ManifestEntry {
                name: "t".to_owned(),
                segment: segment_file_name(digest),
                rows: base_table.num_rows() as u64,
                digest,
                table_id: big_id,
            }],
            stats_file: Some(stats_name),
        };
        std::fs::write(dir.join(manifest_file_name(1)), encode_manifest(&manifest)).unwrap();
        digest
    }

    #[test]
    fn fresh_process_snapshot_adopts_ids_and_rehydrates_clusters() {
        let dir = temp_dir("sidecar-fresh");
        let base = table(25, 0);
        let big_id = base.id() + 10_000;
        write_snapshot_with_ids(&dir, &base, big_id);

        let opened = open(&RealVfs, &dir).unwrap();
        assert!(opened.all_ids_adopted);
        assert_eq!(opened.tables[0].1.id(), big_id);
        assert_eq!(opened.cluster_entries(), 1);
        let cache = StatsCache::new();
        assert_eq!(opened.rehydrate_into(&cache), 1);
        assert_eq!(cache.exact_cluster_entries(), 1);
        let solution = cache.cluster_lookup(&sample_key()).unwrap();
        assert_eq!(solution.to_vecs(), vec![vec![0, 1], vec![2]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sidecar_only_costs_warmth_never_tables() {
        let dir = temp_dir("sidecar-corrupt");
        let base = table(25, 50);
        let big_id = base.id() + 20_000;
        let digest = write_snapshot_with_ids(&dir, &base, big_id);

        crate::vfs::flip_bit(&dir.join(stats_file_name(1)), 12, 0).unwrap();
        let opened = open(&RealVfs, &dir).unwrap();
        assert_eq!(opened.tables.len(), 1);
        assert_eq!(table_digest(&opened.tables[0].1), digest);
        assert_eq!(opened.cluster_entries(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_payload_round_trips_both_packed_widths() {
        // Solutions pack to u16 up to index 65,535 and to u32 above; the
        // sidecar stores u32 either way and must hand both back intact.
        let entries: Vec<(ClusterKey, ClusterSolution)> = [65_535u32, 65_536]
            .into_iter()
            .map(|top| {
                let key = ClusterKey {
                    partition_fp: u64::from(top),
                    ..sample_key()
                };
                (key, ClusterSolution::new(&[vec![top, 1], vec![0, top - 1]]))
            })
            .collect();
        let bytes = encode_stats(&entries, &[7].into());
        let back = decode_stats(&bytes, Path::new("stats.bin")).unwrap();
        assert_eq!(back.entries, entries);
        assert_eq!(
            back.entries[1].1.to_vecs(),
            vec![vec![65_536, 1], vec![0, 65_535]]
        );
    }

    #[test]
    fn stats_payload_round_trips() {
        let table_ids: BTreeSet<u64> = [3, 9].into();
        let entries = vec![
            (
                sample_key(),
                ClusterSolution::new(&[vec![0, 2, 4], vec![1, 3]]),
            ),
            (
                ClusterKey {
                    partition_fp: 1,
                    l: 2,
                    iters: 3,
                    seed: 4,
                    plus_plus: false,
                    sample: 5,
                },
                ClusterSolution::new(&[]),
            ),
        ];
        let bytes = encode_stats(&entries, &table_ids);
        let back = decode_stats(&bytes, Path::new("stats.bin")).unwrap();
        assert_eq!(back.table_ids, table_ids);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].0, sample_key());
        assert_eq!(back.entries[0].1, entries[0].1);
        assert!(back.entries[1].1.to_vecs().is_empty());

        for cut in 0..bytes.len() {
            assert!(decode_stats(&bytes[..cut], Path::new("s")).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn prune_keeps_exactly_two_generations() {
        let dir = temp_dir("prune");
        let vfs = RealVfs;
        for i in 0..5 {
            save(&vfs, &dir, &[("t".to_owned(), table(20, i * 100))], None).unwrap();
        }
        let names = vfs.list(&dir).unwrap();
        let gens: Vec<u64> = names.iter().filter_map(|n| parse_manifest_gen(n)).collect();
        assert_eq!(gens, vec![4, 5]);
        // Only segments referenced by gens 4 and 5 survive.
        let segs = names.iter().filter(|n| n.starts_with("seg-")).count();
        assert_eq!(segs, 2);
        assert!(!names.iter().any(|n| n.starts_with(".tmp.")));
        // Both surviving generations still load.
        assert_eq!(open(&vfs, &dir).unwrap().generation, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}
