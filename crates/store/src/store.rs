//! [`ArtifactStore`]: the on-disk store itself — open-with-recovery,
//! appends, indexed lookups, bundle export/import, and compaction.

use crate::codec::{self, ScanOutcome};
use crate::{Artifact, ScheduleArtifact, ScheduleKey, SmtArtifact, StaticsArtifact};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Key of a statics artifact: `(device fingerprint, config
/// fingerprint)`.
type StaticsKey = (u64, u64);

/// Key of an SMT memo artifact: fingerprints plus the raw-bit solver
/// key.
type SmtKey = (u64, u64, usize, u64, u64, u64, u64);

fn smt_key(m: &SmtArtifact) -> SmtKey {
    (m.device_fingerprint, m.config_fingerprint, m.k, m.band_lo, m.band_hi, m.alpha, m.tol)
}

/// Point-in-time shape of a store (see [`ArtifactStore::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Statics artifacts held.
    pub statics: usize,
    /// SMT memo artifacts held.
    pub smt: usize,
    /// Schedule artifacts held.
    pub schedules: usize,
    /// Records discarded by the most recent open or import (bad
    /// checksum or undecodable payload). Dead bytes stay in the file and
    /// are recounted on every open until [`compact`](ArtifactStore::compact).
    pub dropped_records: usize,
    /// Bytes truncated from a torn tail on the most recent open.
    pub torn_bytes_truncated: usize,
    /// The file had a foreign magic/version: the store is empty and
    /// refuses to write (the file is preserved for its real owner).
    pub read_only: bool,
    /// Bytes appended to the file through this handle (puts and
    /// imports; never reset, compaction included).
    pub bytes_written: u64,
}

/// Outcome of [`ArtifactStore::import_bundle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportOutcome {
    /// Artifacts newly added to the store.
    pub imported: usize,
    /// Artifacts skipped as duplicates of entries already held.
    pub duplicates: usize,
    /// Records discarded (bad checksum / undecodable payload).
    pub dropped: usize,
    /// The bundle had a foreign magic/version; nothing was read.
    pub foreign: bool,
}

#[derive(Debug, Default)]
struct Index {
    statics: HashMap<StaticsKey, StaticsArtifact>,
    smt: HashMap<SmtKey, SmtArtifact>,
    schedules: HashMap<ScheduleKey, ScheduleArtifact>,
}

impl Index {
    /// First write wins, matching every in-memory cache in the stack —
    /// so replaying the append-only log front to back converges on the
    /// oldest (already-served) artifact for each key.
    fn insert(&mut self, artifact: Artifact) -> bool {
        match artifact {
            Artifact::Statics(s) => {
                let key = (s.device_fingerprint, s.config_fingerprint);
                vacant_insert(&mut self.statics, key, s)
            }
            Artifact::Smt(m) => vacant_insert(&mut self.smt, smt_key(&m), m),
            Artifact::Schedule(s) => vacant_insert(&mut self.schedules, s.key(), s),
        }
    }

    /// Every artifact, sorted by key — one canonical order for bundles,
    /// compaction, and determinism tests.
    fn export(&self) -> Vec<Artifact> {
        let mut statics: Vec<_> = self.statics.iter().collect();
        statics.sort_by_key(|(k, _)| **k);
        let mut smt: Vec<_> = self.smt.iter().collect();
        smt.sort_by_key(|(k, _)| **k);
        let mut schedules: Vec<_> = self.schedules.iter().collect();
        schedules.sort_by_key(|(k, _)| **k);
        statics
            .into_iter()
            .map(|(_, s)| Artifact::Statics(s.clone()))
            .chain(smt.into_iter().map(|(_, m)| Artifact::Smt(m.clone())))
            .chain(schedules.into_iter().map(|(_, s)| Artifact::Schedule(s.clone())))
            .collect()
    }
}

fn vacant_insert<K: std::hash::Hash + Eq, V>(
    map: &mut HashMap<K, V>,
    key: K,
    value: V,
) -> bool {
    match map.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(value);
            true
        }
        std::collections::hash_map::Entry::Occupied(_) => false,
    }
}

#[derive(Debug)]
struct Inner {
    index: Index,
    /// `None` when read-only (foreign file): lookups work (and find
    /// nothing), appends are silently skipped.
    file: Option<File>,
    dropped: usize,
    torn_bytes: usize,
    read_only: bool,
    bytes_written: u64,
}

/// The persistent compile-artifact store.
///
/// Thread-safe (`&self` everywhere, internal mutex) and shared across
/// shards via `Arc`. Opening never fails on corruption — see the crate
/// docs for the recovery ladder — and every append is flushed before
/// [`put`](Self::put) returns, so a crash loses at most the append in
/// flight (which the next open truncates away).
#[derive(Debug)]
pub struct ArtifactStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl ArtifactStore {
    /// Opens (creating if absent) the store at `path`, recovering
    /// everything that verifies.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permissions, missing parent directory)
    /// error. *Corruption never does*: torn tails are truncated, damaged
    /// records dropped and counted, and a foreign or future-version file
    /// yields an empty read-only store.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<ArtifactStore> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let ScanOutcome { artifacts, dropped, good_len, torn_bytes, foreign } =
            codec::scan(&bytes);
        if foreign {
            // Not ours (or a future version): leave the file untouched
            // and serve nothing. Cold compiles, no data loss for whoever
            // owns these bytes.
            return Ok(ArtifactStore {
                path,
                inner: Mutex::new(Inner {
                    index: Index::default(),
                    file: None,
                    dropped: 0,
                    torn_bytes: 0,
                    read_only: true,
                    bytes_written: 0,
                }),
            });
        }
        if bytes.is_empty() || torn_bytes > 0 {
            // Fresh file, or an interrupted append (possibly of the
            // header itself): cut back to the last good record so the
            // next append lands on a sound frame boundary.
            file.set_len(good_len.max(codec::HEADER_LEN) as u64)?;
            file.seek(SeekFrom::Start(good_len as u64))?;
            if good_len < codec::HEADER_LEN {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&codec::header())?;
            }
            file.flush()?;
        } else {
            file.seek(SeekFrom::End(0))?;
        }

        let mut index = Index::default();
        for artifact in artifacts {
            index.insert(artifact);
        }
        Ok(ArtifactStore {
            path,
            inner: Mutex::new(Inner {
                index,
                file: Some(file),
                dropped,
                torn_bytes,
                read_only: false,
                bytes_written: 0,
            }),
        })
    }

    /// The path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds one artifact; returns whether it was new. New artifacts are
    /// appended and flushed before returning (first write wins; a
    /// duplicate key is not re-appended). On a read-only store this
    /// updates nothing and returns `false`.
    pub fn put(&self, artifact: Artifact) -> bool {
        self.put_many(std::iter::once(artifact)) > 0
    }

    /// Adds a batch of artifacts in one append + flush; returns how many
    /// were new. The single write keeps a crash from splitting a batch
    /// across the torn-tail boundary mid-record.
    pub fn put_many(&self, artifacts: impl IntoIterator<Item = Artifact>) -> usize {
        let mut inner = self.lock();
        if inner.read_only {
            return 0;
        }
        let mut pending = Vec::new();
        let mut fresh = 0usize;
        for artifact in artifacts {
            let payload = codec::encode_artifact(&artifact);
            if inner.index.insert(artifact) {
                codec::append_record(&mut pending, &payload);
                fresh += 1;
            }
        }
        if fresh == 0 {
            return 0;
        }
        let wrote = match inner.file.as_mut() {
            Some(file) => file.write_all(&pending).and_then(|()| file.flush()).is_ok(),
            None => false,
        };
        if wrote {
            inner.bytes_written += pending.len() as u64;
        }
        // On a write error the in-memory index still holds the
        // artifacts — this process serves them; persistence degrades.
        fresh
    }

    /// Looks up the static assignment for `(device, config)`.
    pub fn get_statics(
        &self,
        device_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Option<StaticsArtifact> {
        self.lock().index.statics.get(&(device_fingerprint, config_fingerprint)).cloned()
    }

    /// All SMT memo entries for `(device, config)`, in key order.
    pub fn smt_entries(
        &self,
        device_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Vec<SmtArtifact> {
        let inner = self.lock();
        let mut entries: Vec<SmtArtifact> = inner
            .index
            .smt
            .values()
            .filter(|m| {
                m.device_fingerprint == device_fingerprint
                    && m.config_fingerprint == config_fingerprint
            })
            .cloned()
            .collect();
        entries.sort_by_key(smt_key);
        entries
    }

    /// Looks up one schedule. Callers must verify
    /// [`ScheduleArtifact::program`] against their circuit before using
    /// the entry (collision defense).
    pub fn get_schedule(&self, key: &ScheduleKey) -> Option<ScheduleArtifact> {
        self.lock().index.schedules.get(key).cloned()
    }

    /// All schedules for `(device, config)`, in key order — the shard
    /// pre-warm set.
    pub fn schedules(
        &self,
        device_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Vec<ScheduleArtifact> {
        let inner = self.lock();
        let mut entries: Vec<ScheduleArtifact> = inner
            .index
            .schedules
            .values()
            .filter(|s| {
                s.device_fingerprint == device_fingerprint
                    && s.config_fingerprint == config_fingerprint
            })
            .cloned()
            .collect();
        entries.sort_by_key(ScheduleArtifact::key);
        entries
    }

    /// Every artifact held, in canonical (sorted) order.
    pub fn export(&self) -> Vec<Artifact> {
        self.lock().index.export()
    }

    /// Serializes the whole store as a self-contained bundle — the
    /// `cache_export` payload, byte-for-byte also a valid store file.
    pub fn export_bundle(&self) -> Vec<u8> {
        codec::encode_bundle(&self.export())
    }

    /// Merges a peer's bundle (see [`export_bundle`](Self::export_bundle));
    /// new artifacts are appended and flushed. Damaged bundle records
    /// are dropped exactly as on open; a foreign bundle imports nothing.
    pub fn import_bundle(&self, bytes: &[u8]) -> ImportOutcome {
        let scan = codec::scan(bytes);
        if scan.foreign {
            return ImportOutcome { foreign: true, ..ImportOutcome::default() };
        }
        let total = scan.artifacts.len();
        let imported = self.put_many(scan.artifacts);
        ImportOutcome {
            imported,
            duplicates: total - imported,
            dropped: scan.dropped + usize::from(scan.torn_bytes > 0),
            foreign: false,
        }
    }

    /// Rewrites the file to exactly the live index — dead bytes from
    /// dropped records and superseded duplicates disappear — via a
    /// temp-file write and atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the original file is untouched unless
    /// the rename succeeded. No-op on a read-only store.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if inner.read_only {
            return Ok(());
        }
        let bytes = codec::encode_bundle(&inner.index.export());
        let tmp_path = self.path.with_extension("tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = Some(file);
        inner.dropped = 0;
        inner.torn_bytes = 0;
        Ok(())
    }

    /// Current shape of the store.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            statics: inner.index.statics.len(),
            smt: inner.index.smt.len(),
            schedules: inner.index.schedules.len(),
            dropped_records: inner.dropped,
            torn_bytes_truncated: inner.torn_bytes,
            read_only: inner.read_only,
            bytes_written: inner.bytes_written,
        }
    }

    /// Total artifacts held.
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.index.statics.len() + inner.index.smt.len() + inner.index.schedules.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fastsc-store-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn smt(k: usize) -> Artifact {
        Artifact::Smt(SmtArtifact {
            device_fingerprint: 0xd,
            config_fingerprint: 0xc,
            k,
            band_lo: 5.0f64.to_bits(),
            band_hi: 7.0f64.to_bits(),
            alpha: (-0.3f64).to_bits(),
            tol: 1e-3f64.to_bits(),
            values: (0..k).map(|i| 5.0 + i as f64 * 0.25).collect(),
        })
    }

    fn statics() -> Artifact {
        Artifact::Statics(StaticsArtifact {
            device_fingerprint: 0xd,
            config_fingerprint: 0xc,
            colors: vec![0, 1, 0],
            color_count: 2,
            freqs: vec![6.0, 6.4, 6.0],
        })
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = tmp_dir("reopen").join("store.fsc");
        let _ = std::fs::remove_file(&path);
        {
            let store = ArtifactStore::open(&path).expect("open");
            assert!(store.put(statics()));
            assert!(store.put(smt(3)));
            assert!(!store.put(smt(3)), "duplicate key is not re-inserted");
            assert_eq!(store.len(), 2);
            let file_len = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(store.stats().bytes_written, file_len - codec::HEADER_LEN as u64);
        }
        let store = ArtifactStore::open(&path).expect("reopen");
        assert_eq!(store.stats().bytes_written, 0, "counts this handle's appends only");
        assert_eq!(store.stats().dropped_records, 0);
        assert_eq!(store.stats().statics, 1);
        let s = store.get_statics(0xd, 0xc).expect("statics survive");
        assert_eq!(s.colors, vec![0, 1, 0]);
        let entries = store.smt_entries(0xd, 0xc);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].values.len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_reappendable() {
        let path = tmp_dir("torn").join("store.fsc");
        let _ = std::fs::remove_file(&path);
        {
            let store = ArtifactStore::open(&path).expect("open");
            store.put(smt(1));
            store.put(smt(2));
        }
        let full = std::fs::metadata(&path).expect("meta").len();
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear the tail");

        let store = ArtifactStore::open(&path).expect("open survives tear");
        let stats = store.stats();
        assert_eq!(stats.smt, 1, "the torn record is gone, its predecessor intact");
        assert!(stats.torn_bytes_truncated > 0);
        assert_eq!(stats.dropped_records, 0);
        // The file was physically truncated and appending works again.
        assert!(std::fs::metadata(&path).expect("meta").len() < full);
        assert!(store.put(smt(7)));
        drop(store);
        let store = ArtifactStore::open(&path).expect("reopen");
        assert_eq!(store.stats().smt, 2);
        assert_eq!(store.stats().torn_bytes_truncated, 0);
    }

    #[test]
    fn flipped_byte_drops_one_record_until_compaction() {
        let path = tmp_dir("flip").join("store.fsc");
        let _ = std::fs::remove_file(&path);
        {
            let store = ArtifactStore::open(&path).expect("open");
            store.put(smt(1));
            store.put(smt(2));
            store.put(smt(3));
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte inside the middle record's payload.
        let rec = codec::encode_artifact(&smt(1)).len() + 12;
        let mid_payload_at = codec::HEADER_LEN + rec + 12 + 4;
        bytes[mid_payload_at] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corruption");

        let store = ArtifactStore::open(&path).expect("open survives flip");
        assert_eq!(store.stats().smt, 2);
        assert_eq!(store.stats().dropped_records, 1);
        drop(store);
        // Dead bytes are recounted on every open until compaction.
        let store = ArtifactStore::open(&path).expect("reopen");
        assert_eq!(store.stats().dropped_records, 1);
        store.compact().expect("compact");
        assert_eq!(store.stats().dropped_records, 0);
        drop(store);
        let store = ArtifactStore::open(&path).expect("post-compact open");
        assert_eq!(store.stats().dropped_records, 0);
        assert_eq!(store.stats().smt, 2);
    }

    #[test]
    fn foreign_file_is_read_only_and_preserved() {
        let path = tmp_dir("foreign").join("store.fsc");
        std::fs::write(&path, b"TOTALLY not a FastSC store, hands off").expect("write");
        let store = ArtifactStore::open(&path).expect("open never fails on foreign bytes");
        assert!(store.stats().read_only);
        assert!(store.is_empty());
        assert!(!store.put(smt(1)), "writes are refused");
        store.compact().expect("compact is a no-op");
        assert_eq!(
            std::fs::read(&path).expect("read").as_slice(),
            b"TOTALLY not a FastSC store, hands off",
            "the foreign file is byte-identical"
        );
    }

    #[test]
    fn future_version_is_read_only() {
        let path = tmp_dir("future").join("store.fsc");
        let mut bytes = codec::header().to_vec();
        let n = bytes.len();
        bytes[n - 1] += 1; // version + 1
        std::fs::write(&path, &bytes).expect("write");
        let store = ArtifactStore::open(&path).expect("open");
        assert!(store.stats().read_only);
        assert!(!store.put(smt(1)));
        assert_eq!(std::fs::read(&path).expect("read"), bytes, "future file untouched");
    }

    #[test]
    fn bundle_export_import_round_trips() {
        let dir = tmp_dir("bundle");
        let a = ArtifactStore::open(dir.join("a.fsc")).expect("open a");
        let _ = std::fs::remove_file(dir.join("b.fsc"));
        a.put(statics());
        a.put(smt(4));
        let bundle = a.export_bundle();

        let b = ArtifactStore::open(dir.join("b.fsc")).expect("open b");
        let outcome = b.import_bundle(&bundle);
        assert_eq!(outcome.imported, 2);
        assert_eq!(outcome.duplicates, 0);
        assert!(!outcome.foreign);
        assert_eq!(b.get_statics(0xd, 0xc), a.get_statics(0xd, 0xc));

        // Importing again is pure duplicates; importing garbage is safe.
        let again = b.import_bundle(&bundle);
        assert_eq!(again.imported, 0);
        assert_eq!(again.duplicates, 2);
        assert!(b.import_bundle(b"junk bundle").foreign);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn empty_put_many_writes_nothing() {
        let path = tmp_dir("empty").join("store.fsc");
        let _ = std::fs::remove_file(&path);
        let store = ArtifactStore::open(&path).expect("open");
        assert_eq!(store.put_many(std::iter::empty()), 0);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            codec::HEADER_LEN as u64,
            "only the header is on disk"
        );
    }
}
