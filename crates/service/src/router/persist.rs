//! The one bridge between shards and the persistent artifact store.
//!
//! Store hydrate, drain/periodic flush, fleet export, and peer import
//! all convert between [`Artifact`]s and a shard's compile context +
//! result cache through two functions: [`shard_artifacts`] (shard →
//! artifacts) and [`adopt_artifact`] (artifact → shard). Every artifact
//! is matched by the shard's `(device, config)` fingerprints and
//! re-validated on the way in — statics and SMT entries through the
//! context's seeding checks, schedules through the structural-hash check
//! and the cache's equality-verify collision defense — so a damaged or
//! foreign artifact costs a cold solve, never a wrong schedule.

use super::{bump, CompileService, Shard, Slot};
use crate::cache::CacheKey;
use fastsc_core::{CompiledProgram, SmtMemoEntry, StaticAssignment};
use fastsc_ir::Circuit;
use fastsc_store::{Artifact, ArtifactStore, ScheduleArtifact, SmtArtifact, StaticsArtifact};
use fastsc_telemetry::phase;
use std::sync::Arc;

/// What [`CompileService::import_artifacts`] did with a peer's exported
/// bundle: per-class adoption counts plus everything that was skipped
/// (no matching live shard, already resident, rejected by the shard,
/// or a damaged record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Static colorings / solved S–G assignments seeded into shard
    /// contexts.
    pub statics: usize,
    /// Bounded SMT memo entries adopted by shard contexts.
    pub smt: usize,
    /// Whole-schedule entries stored in shard caches.
    pub schedules: usize,
    /// Artifacts no live shard adopted — no fingerprint match, already
    /// resident, no room (a capacity-0 cache), failed re-validation, or
    /// arrived damaged. Never adopted, never served.
    pub skipped: usize,
}

impl CompileService {
    /// Serializes every live shard's artifacts — solved statics, SMT
    /// memo entries, and all cached schedules — as a store-format bundle
    /// a peer fleet can feed to
    /// [`import_artifacts`](Self::import_artifacts). The bundle is
    /// byte-deterministic for a given fleet state: artifacts are
    /// canonically sorted, duplicates (shards sharing a device/config)
    /// first-wins deduped by the importer.
    pub fn export_artifacts(&self) -> Vec<u8> {
        let mut artifacts = Vec::new();
        for slot in self.read_shards().iter() {
            let Slot::Live(shard) = slot else { continue };
            artifacts.extend(shard_artifacts(shard, shard.cache.export_entries()));
        }
        artifacts.sort_by_key(artifact_sort_key);
        fastsc_store::codec::encode_bundle(&artifacts)
    }

    /// Adopts a peer's exported bundle (see
    /// [`export_artifacts`](Self::export_artifacts)): each artifact is
    /// offered to every live shard exactly as a store hydrate offers it
    /// — matched by `(device, config)` fingerprint, then re-validated by
    /// the shard's context or result cache. Damaged records in the bundle
    /// and artifacts no shard adopted are counted in
    /// [`ImportReport::skipped`].
    pub fn import_artifacts(&self, bundle: &[u8]) -> ImportReport {
        let scan = fastsc_store::codec::scan(bundle);
        let mut report = ImportReport { skipped: scan.dropped, ..ImportReport::default() };
        let shards = self.read_shards();
        for artifact in &scan.artifacts {
            let mut adopted = false;
            for slot in shards.iter() {
                let Slot::Live(shard) = slot else { continue };
                adopted |= adopt_artifact(shard, artifact);
            }
            match (adopted, artifact) {
                (true, Artifact::Statics(_)) => report.statics += 1,
                (true, Artifact::Smt(_)) => report.smt += 1,
                (true, Artifact::Schedule(_)) => report.schedules += 1,
                (false, _) => report.skipped += 1,
            }
        }
        report
    }
}

/// Seeds a freshly built shard from `store`: every artifact the store
/// holds for the shard's fingerprints goes through [`adopt_artifact`].
/// Counts a store hit per adopted artifact and a miss per rejected one,
/// plus a miss when the store has no statics for the shard (the solve a
/// cold shard will run).
pub(super) fn hydrate(store: &ArtifactStore, shard: &Shard) {
    let (device, config) = (shard.fingerprint, shard.config_fingerprint);
    let statics = store.get_statics(device, config);
    if statics.is_none() {
        bump(&shard.events.store_misses);
    }
    let artifacts = statics
        .map(Artifact::Statics)
        .into_iter()
        .chain(store.smt_entries(device, config).into_iter().map(Artifact::Smt))
        .chain(store.schedules(device, config).into_iter().map(Artifact::Schedule));
    for artifact in artifacts {
        bump(if adopt_artifact(shard, &artifact) {
            &shard.events.store_hits
        } else {
            &shard.events.store_misses
        });
    }
}

/// Writes a shard's unsaved artifacts — dirty schedule-cache entries,
/// plus its context's statics and SMT memo (the store dedups those
/// first-wins) — to its store. No-op for a shard without one.
pub(super) fn flush(shard: &Shard) {
    let Some(store) = &shard.store else { return };
    let mut span = phase("store");
    span.attr("op", "flush");
    store.put_many(shard_artifacts(shard, shard.cache.take_dirty()));
}

/// One shard's artifacts: its static assignment (only if already solved
/// or seeded — exporting never forces the solve it exists to skip), every
/// SMT memo entry, and the given result-cache `schedules`, each carrying
/// the exact program it was compiled from.
fn shard_artifacts(
    shard: &Shard,
    schedules: Vec<(CacheKey, Circuit, Arc<CompiledProgram>)>,
) -> Vec<Artifact> {
    let (device_fingerprint, config_fingerprint) =
        (shard.fingerprint, shard.config_fingerprint);
    let mut artifacts = Vec::new();
    if let Ok(context) = shard.compiler.context() {
        if let Some(statics) = context.export_statics() {
            artifacts.push(Artifact::Statics(StaticsArtifact {
                device_fingerprint,
                config_fingerprint,
                colors: statics.colors,
                color_count: statics.color_count,
                freqs: statics.freqs,
            }));
        }
        artifacts.extend(context.export_smt_memo().into_iter().map(|entry| {
            Artifact::Smt(SmtArtifact {
                device_fingerprint,
                config_fingerprint,
                k: entry.k,
                band_lo: entry.band_lo,
                band_hi: entry.band_hi,
                alpha: entry.alpha,
                tol: entry.tol,
                values: entry.values,
            })
        }));
    }
    artifacts.extend(schedules.into_iter().map(|(key, program, compiled)| {
        Artifact::Schedule(ScheduleArtifact {
            device_fingerprint: key.device_fingerprint,
            program_hash: key.program_hash,
            strategy_code: key.strategy_code,
            config_fingerprint: key.config_fingerprint,
            program,
            compiled,
        })
    }));
    artifacts
}

/// Offers one artifact to one shard; `true` if the shard's fingerprints
/// match and the shard kept the artifact after re-validation. A schedule
/// counts only when the cache actually stored it: an already-cached key
/// or a capacity-0 cache adopts nothing.
fn adopt_artifact(shard: &Shard, artifact: &Artifact) -> bool {
    let fingerprints = match artifact {
        Artifact::Statics(art) => (art.device_fingerprint, art.config_fingerprint),
        Artifact::Smt(art) => (art.device_fingerprint, art.config_fingerprint),
        Artifact::Schedule(art) => (art.device_fingerprint, art.config_fingerprint),
    };
    if fingerprints != (shard.fingerprint, shard.config_fingerprint) {
        return false;
    }
    match artifact {
        Artifact::Statics(art) => shard.compiler.context().is_ok_and(|context| {
            context.seed_statics(StaticAssignment {
                colors: art.colors.clone(),
                color_count: art.color_count,
                freqs: art.freqs.clone(),
            })
        }),
        Artifact::Smt(art) => shard.compiler.context().is_ok_and(|context| {
            context.seed_smt_memo([SmtMemoEntry {
                k: art.k,
                band_lo: art.band_lo,
                band_hi: art.band_hi,
                alpha: art.alpha,
                tol: art.tol,
                values: art.values.clone(),
            }]) == 1
        }),
        Artifact::Schedule(art) => {
            let key = CacheKey {
                device_fingerprint: art.device_fingerprint,
                program_hash: art.program_hash,
                strategy_code: art.strategy_code,
                config_fingerprint: art.config_fingerprint,
            };
            art.program.structural_hash() == art.program_hash
                && shard.cache.insert(
                    key,
                    art.program.clone(),
                    Arc::clone(&art.compiled),
                    false,
                )
        }
    }
}

fn artifact_sort_key(artifact: &Artifact) -> (u8, u64, u64, u64, u64, u64, u64, u64) {
    match artifact {
        Artifact::Statics(a) => (0, a.device_fingerprint, a.config_fingerprint, 0, 0, 0, 0, 0),
        Artifact::Smt(a) => (
            1,
            a.device_fingerprint,
            a.config_fingerprint,
            a.k as u64,
            a.band_lo,
            a.band_hi,
            a.alpha,
            a.tol,
        ),
        Artifact::Schedule(a) => (
            2,
            a.device_fingerprint,
            a.config_fingerprint,
            a.program_hash,
            u64::from(a.strategy_code),
            0,
            0,
            0,
        ),
    }
}
