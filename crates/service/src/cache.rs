//! The whole-schedule result cache.
//!
//! [`CompileContext`](fastsc_core::CompileContext) memoizes *solver
//! calls*, but an identical repeat job still re-runs routing, lowering,
//! and the cycle-by-cycle scheduler. Production traffic is repetitive —
//! calibration sweeps resubmit the same circuits, users retry the same
//! program — so the service caches **finished schedules**, keyed by
//! everything compilation is a function of:
//!
//! * the **device** (fabrication seed + connectivity + coupler, see
//!   [`device_fingerprint`]),
//! * the **program** ([`Circuit::structural_hash`](fastsc_ir::Circuit::structural_hash)),
//! * the **strategy** ([`Strategy::stable_code`]),
//! * the **configuration**
//!   ([`CompilerConfig::fingerprint`](fastsc_core::CompilerConfig::fingerprint)).
//!
//! Compilation is a pure function of that key, so a hit is bit-identical
//! to the cold compile that populated it (the determinism suite proves
//! this): the cache can only trade memory for time, never change output.
//! Capacity is bounded with FIFO eviction, so adversarial streams of
//! distinct programs cannot grow a shard's memory without limit.

use fastsc_core::{CompiledProgram, Strategy};
use fastsc_device::Device;
use fastsc_ir::hash::StableHasher;
use fastsc_ir::Circuit;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A stable fingerprint of everything that makes a device *this* device:
/// [`StableHasher`] over [`Device::visit_identity`]'s word stream (the
/// fabrication seed, the connectivity graph, every sampled qubit spec
/// bit-exactly, the coupler hardware, the frequency partition, and the
/// physical constants). The visitor destructures `Device` and every
/// nested struct exhaustively inside `fastsc-device`, so adding a field
/// anywhere in the device model is a compile error there — a new field
/// can never silently escape the fingerprint.
///
/// Each shard caches only its own schedules, so the fingerprint is
/// belt-and-braces rather than the sole line of defense — but it makes a
/// [`CacheKey`] globally meaningful: two shards produce equal keys only
/// when their devices would compile identically. (ROADMAP earmarks these
/// keys as the on-disk format for cross-process cache persistence, where
/// that property becomes load-bearing.)
pub fn device_fingerprint(device: &Device) -> u64 {
    let mut h = StableHasher::new();
    device.visit_identity(&mut |word| h.write_u64(word));
    h.finish()
}

/// The full identity of one compile: `(device, program, strategy,
/// config)`, each condensed to its stable hash/tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`device_fingerprint`] of the shard's device.
    pub device_fingerprint: u64,
    /// [`Circuit::structural_hash`](fastsc_ir::Circuit::structural_hash)
    /// of the program.
    pub program_hash: u64,
    /// [`Strategy::stable_code`] of the strategy.
    pub strategy_code: u8,
    /// [`CompilerConfig::fingerprint`](fastsc_core::CompilerConfig::fingerprint) of the
    /// configuration.
    pub config_fingerprint: u64,
}

impl CacheKey {
    /// Assembles a key from its parts.
    pub fn new(
        device_fingerprint: u64,
        program_hash: u64,
        strategy: Strategy,
        config_fingerprint: u64,
    ) -> Self {
        CacheKey {
            device_fingerprint,
            program_hash,
            strategy_code: strategy.stable_code(),
            config_fingerprint,
        }
    }
}

/// Observability counters of one [`ScheduleCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached schedule.
    pub hits: u64,
    /// Lookups that found nothing (including key collisions, see
    /// [`ScheduleCache::get`]).
    pub misses: u64,
    /// Entries dropped to make room for newer ones (FIFO eviction at
    /// capacity).
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries ever cached at once.
    pub capacity: usize,
}

impl CacheStats {
    /// Element-wise sum of two snapshots — aggregates per-shard caches
    /// into fleet totals (`capacity` and `len` add; the ratio semantics
    /// of `hits`/`misses` are preserved).
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            len: self.len + other.len,
            capacity: self.capacity + other.capacity,
        }
    }

    /// The all-zero snapshot ([`merge`](Self::merge) identity).
    pub fn zero() -> CacheStats {
        CacheStats { hits: 0, misses: 0, evictions: 0, len: 0, capacity: 0 }
    }
}

/// A bounded, concurrent map from [`CacheKey`] to finished
/// [`CompiledProgram`]s (shared via [`Arc`], so a hit never copies the
/// schedule).
///
/// Every entry also stores the exact [`Circuit`] it was compiled from,
/// and [`get`](Self::get) verifies it against the requester's program:
/// the 64-bit structural hash in the key is not collision-resistant
/// against adversarial circuits (rotation gates embed caller-chosen raw
/// `f64` bit patterns), and a collision must cost a redundant compile,
/// never serve another program's schedule.
///
/// Eviction is FIFO on first insertion: once full, the key inserted
/// longest ago is dropped. Because every entry is a pure function of its
/// key, eviction (and the scheduling-dependent insertion order of racing
/// workers) affects only hit rates, never results. Re-inserting an
/// existing key keeps the original value — a racing duplicate compile
/// produced the identical schedule anyway.
#[derive(Debug)]
pub struct ScheduleCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct Entry {
    program: Circuit,
    compiled: Arc<CompiledProgram>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    order: VecDeque<CacheKey>,
    /// Keys inserted since the last [`ScheduleCache::take_dirty`] —
    /// the entries a persistence layer has not yet flushed to disk.
    dirty: Vec<CacheKey>,
}

impl ScheduleCache {
    /// Default per-shard capacity: enough for a large working set of
    /// distinct `(program, strategy)` pairs while bounding a shard to a
    /// predictable memory footprint.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache with [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY).
    pub fn new() -> Self {
        ScheduleCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` schedules (0 disables caching).
    pub fn with_capacity(capacity: usize) -> Self {
        ScheduleCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, counting a hit or miss. A hit is only served when
    /// the stored entry was compiled from exactly `program` — a key
    /// collision between distinct circuits counts as a miss, so the
    /// colliding job recompiles instead of receiving the wrong schedule.
    /// Capacity 0 is a lock-free no-op returning `None` without touching
    /// the counters.
    pub fn get(&self, key: &CacheKey, program: &Circuit) -> Option<Arc<CompiledProgram>> {
        if self.capacity == 0 {
            return None;
        }
        let found = {
            let inner = self.lock();
            inner
                .map
                .get(key)
                .map(|entry| (entry.program == *program, Arc::clone(&entry.compiled)))
        };
        match found {
            Some((true, compiled)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(compiled)
            }
            // Hash collision: never serve another program's schedule.
            Some((false, _)) | None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` (compiled from `program`) under `key`, evicting
    /// the oldest entry when full, and returns whether the entry was
    /// stored — `false` when the key is already cached or the capacity
    /// is 0. An existing key keeps its original entry (see the type
    /// docs) — in particular, a program colliding with a cached key
    /// simply stays uncached and recompiles each time. `dirty` marks the
    /// entry for the next [`take_dirty`](Self::take_dirty); artifacts
    /// hydrated *from* the persistent store are inserted clean so they
    /// are not flushed straight back to it.
    pub(crate) fn insert(
        &self,
        key: CacheKey,
        program: Circuit,
        value: Arc<CompiledProgram>,
        dirty: bool,
    ) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return false;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, Entry { program, compiled: value });
        inner.order.push_back(key);
        if dirty {
            inner.dirty.push(key);
        }
        true
    }

    /// Drains the entries inserted since the last call, returning the
    /// ones still cached (an entry evicted before its flush is simply
    /// gone — the store only ever misses artifacts, never holds wrong
    /// ones). Each triple carries the exact program so the collision
    /// defense survives persistence.
    pub fn take_dirty(&self) -> Vec<(CacheKey, Circuit, Arc<CompiledProgram>)> {
        let mut inner = self.lock();
        let dirty = std::mem::take(&mut inner.dirty);
        dirty
            .into_iter()
            .filter_map(|key| {
                inner.map.get(&key).map(|e| (key, e.program.clone(), Arc::clone(&e.compiled)))
            })
            .collect()
    }

    /// Number of entries awaiting a flush.
    pub fn dirty_len(&self) -> usize {
        self.lock().dirty.len()
    }

    /// Every cached entry, sorted by key — the fleet-export set.
    pub fn export_entries(&self) -> Vec<(CacheKey, Circuit, Arc<CompiledProgram>)> {
        let inner = self.lock();
        let mut out: Vec<(CacheKey, Circuit, Arc<CompiledProgram>)> = inner
            .map
            .iter()
            .map(|(key, e)| (*key, e.program.clone(), Arc::clone(&e.compiled)))
            .collect();
        out.sort_by_key(|(k, _, _)| {
            (k.device_fingerprint, k.program_hash, k.strategy_code, k.config_fingerprint)
        });
        out
    }

    /// Number of cached schedules.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// The maximum number of schedules retained at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the hit/miss counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::{CompilerConfig, Strategy};

    fn key(n: u64) -> CacheKey {
        CacheKey::new(1, n, Strategy::ColorDynamic, 2)
    }

    fn circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push1(fastsc_ir::Gate::H, 0).expect("valid");
        c
    }

    fn dummy_program(device_seed: u64) -> Arc<CompiledProgram> {
        use fastsc_core::Compiler;
        use fastsc_device::Device;
        let compiler =
            Compiler::new(Device::grid(2, 2, device_seed), CompilerConfig::default());
        Arc::new(compiler.compile(&circuit(), Strategy::ColorDynamic).expect("compiles"))
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache = ScheduleCache::with_capacity(8);
        assert!(cache.get(&key(1), &circuit()).is_none());
        cache.insert(key(1), circuit(), dummy_program(1), true);
        assert!(cache.get(&key(1), &circuit()).is_some());
        assert!(cache.get(&key(2), &circuit()).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
    }

    #[test]
    fn colliding_key_with_different_program_is_a_miss() {
        // The 64-bit key is not collision-resistant; the cache's last
        // line of defense is exact program comparison. Simulate a
        // collision by inserting under key(1) and looking the same key
        // up with a different circuit: it must miss, and the stored
        // entry must survive untouched.
        let cache = ScheduleCache::with_capacity(8);
        cache.insert(key(1), circuit(), dummy_program(1), true);
        let mut other = Circuit::new(2);
        other.push1(fastsc_ir::Gate::X, 1).expect("valid");
        assert!(
            cache.get(&key(1), &other).is_none(),
            "a colliding program must never receive another program's schedule"
        );
        assert!(cache.get(&key(1), &circuit()).is_some(), "the original entry still hits");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let cache = ScheduleCache::with_capacity(2);
        let p = dummy_program(1);
        cache.insert(key(1), circuit(), Arc::clone(&p), true);
        cache.insert(key(2), circuit(), Arc::clone(&p), true);
        cache.insert(key(3), circuit(), Arc::clone(&p), true);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1), &circuit()).is_none(), "oldest entry must be evicted");
        assert!(cache.get(&key(2), &circuit()).is_some());
        assert!(cache.get(&key(3), &circuit()).is_some());
        assert_eq!(cache.stats().evictions, 1, "eviction must be counted");
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = CacheStats { hits: 1, misses: 2, evictions: 3, len: 4, capacity: 5 };
        let b = CacheStats { hits: 10, misses: 20, evictions: 30, len: 40, capacity: 50 };
        assert_eq!(
            a.merge(b),
            CacheStats { hits: 11, misses: 22, evictions: 33, len: 44, capacity: 55 }
        );
        assert_eq!(CacheStats::zero().merge(a), a);
    }

    #[test]
    fn first_insert_wins_for_duplicate_keys() {
        let cache = ScheduleCache::with_capacity(2);
        let first = dummy_program(1);
        cache.insert(key(1), circuit(), Arc::clone(&first), true);
        cache.insert(key(1), circuit(), dummy_program(2), true);
        let held = cache.get(&key(1), &circuit()).expect("cached");
        assert!(Arc::ptr_eq(&held, &first), "re-insertion must keep the original value");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ScheduleCache::with_capacity(0);
        cache.insert(key(1), circuit(), dummy_program(1), true);
        assert!(cache.is_empty());
        assert!(cache.get(&key(1), &circuit()).is_none());
        // The disabled path is counter-free too.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn dirty_tracking_drains_and_skips_hydrated_entries() {
        let cache = ScheduleCache::with_capacity(8);
        let p = dummy_program(1);
        cache.insert(key(1), circuit(), Arc::clone(&p), true);
        assert!(cache.insert(key(2), circuit(), Arc::clone(&p), false)); // hydrated, not dirty
        cache.insert(key(3), circuit(), Arc::clone(&p), true);
        assert_eq!(cache.dirty_len(), 2);
        let dirty = cache.take_dirty();
        let keys: Vec<u64> = dirty.iter().map(|(k, _, _)| k.program_hash).collect();
        assert_eq!(keys, vec![1, 3], "only organic inserts flush, in insertion order");
        assert_eq!(cache.dirty_len(), 0);
        assert!(cache.take_dirty().is_empty(), "drained entries do not re-flush");
        // The full export still sees everything.
        assert_eq!(cache.export_entries().len(), 3);
    }

    #[test]
    fn insert_reports_whether_it_stored_the_entry() {
        let p = dummy_program(1);
        let cache = ScheduleCache::with_capacity(8);
        assert!(cache.insert(key(1), circuit(), Arc::clone(&p), false));
        assert!(!cache.insert(key(1), circuit(), Arc::clone(&p), false), "already cached");
        let disabled = ScheduleCache::with_capacity(0);
        assert!(!disabled.insert(key(1), circuit(), p, false), "capacity 0 keeps nothing");
        assert!(disabled.is_empty());
    }

    #[test]
    fn evicted_dirty_entries_are_not_flushed() {
        let cache = ScheduleCache::with_capacity(2);
        let p = dummy_program(1);
        cache.insert(key(1), circuit(), Arc::clone(&p), true);
        cache.insert(key(2), circuit(), Arc::clone(&p), true);
        cache.insert(key(3), circuit(), Arc::clone(&p), true); // evicts key(1)
        let dirty = cache.take_dirty();
        let keys: Vec<u64> = dirty.iter().map(|(k, _, _)| k.program_hash).collect();
        assert_eq!(keys, vec![2, 3], "the evicted entry is silently skipped");
    }

    #[test]
    fn device_fingerprint_tracks_identity() {
        use fastsc_device::{CouplerKind, Device};
        let base = Device::grid(3, 3, 7);
        assert_eq!(device_fingerprint(&base), device_fingerprint(&Device::grid(3, 3, 7)));
        // Different seed, same topology.
        assert_ne!(device_fingerprint(&base), device_fingerprint(&Device::grid(3, 3, 8)));
        // Different topology, same seed.
        assert_ne!(device_fingerprint(&base), device_fingerprint(&Device::linear(9, 7)));
        // Different coupler hardware on the same chip.
        let gmon = base.with_coupler(CouplerKind::tunable(0.1));
        assert_ne!(device_fingerprint(&base), device_fingerprint(&gmon));
        // Residual coupling is part of the hardware identity.
        let gmon2 = base.with_coupler(CouplerKind::tunable(0.2));
        assert_ne!(device_fingerprint(&gmon), device_fingerprint(&gmon2));
    }

    #[test]
    fn device_fingerprint_sees_builder_parameters() {
        // Two devices with the same topology and seed but different
        // sampled-spec distributions or coherence times compile
        // differently, so they must fingerprint differently too.
        use fastsc_device::DeviceBuilder;
        let build = |f: &dyn Fn(&mut DeviceBuilder)| {
            let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
            b.seed(3);
            f(&mut b);
            b.build()
        };
        let base = build(&|_| {});
        assert_eq!(device_fingerprint(&base), device_fingerprint(&build(&|_| {})));
        let shifted = build(&|b| {
            b.omega_max_distribution(6.8, 0.05);
        });
        assert_ne!(device_fingerprint(&base), device_fingerprint(&shifted));
        let long_lived = build(&|b| {
            b.coherence(50.0, 40.0);
        });
        assert_ne!(device_fingerprint(&base), device_fingerprint(&long_lived));
    }

    #[test]
    fn graph_hash_agrees_with_stable_hasher() {
        // `Graph::structural_hash` uses the one shared `StableHasher`
        // (it lives in fastsc-graph and fastsc_ir::hash re-exports it),
        // so this pins the *encoding* — node count, edge count, then
        // normalized endpoint pairs, all as u64 words. If the byte
        // layout ever changes, persisted device fingerprints would rot;
        // this test is the tripwire.
        let g = fastsc_graph::Graph::with_edges(3, [(0, 1), (1, 2)]).expect("valid");
        let mut h = StableHasher::new();
        for v in [3u64, 2, 0, 1, 1, 2] {
            h.write_u64(v);
        }
        assert_eq!(g.structural_hash(), h.finish());
    }

    #[test]
    fn cache_key_distinguishes_every_component() {
        let base = CacheKey::new(1, 2, Strategy::ColorDynamic, 3);
        assert_ne!(base, CacheKey::new(9, 2, Strategy::ColorDynamic, 3));
        assert_ne!(base, CacheKey::new(1, 9, Strategy::ColorDynamic, 3));
        assert_ne!(base, CacheKey::new(1, 2, Strategy::BaselineS, 3));
        assert_ne!(base, CacheKey::new(1, 2, Strategy::ColorDynamic, 9));
        assert_eq!(base, CacheKey::new(1, 2, Strategy::ColorDynamic, 3));
    }
}
