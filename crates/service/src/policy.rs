//! Pluggable shard-selection policies.
//!
//! The router calls its policy once per job, **sequentially in
//! submission order**, before any job starts compiling — so a policy is
//! a deterministic function of its own state and the submission stream,
//! and routing never depends on worker timing. Every policy reads the
//! same surface: [`RouteRequest::shards`], a slice of per-shard
//! [`ShardView`] snapshots combining the immutable registration-time
//! [`ShardProfile`](crate::telemetry::ShardProfile) (size, degree stats,
//! coherence figures, static `estimated_success`) with live telemetry
//! (lifecycle state, routed-but-unfinished load, EWMA compile latency,
//! cache counters). The load figures combine jobs already routed in the
//! current batch with jobs still in flight from overlapping batches.
//!
//! Shards that are draining or retired are present in the slice (indices
//! are stable) but not [`routable`](ShardView::routable); every built-in
//! policy skips them. Routing is fallible: a policy that finds no
//! candidate (nothing fits, or the whole fleet is draining) returns a
//! [`CompileError`] instead of an index. The router isolates that error
//! to the job's own result slot — it never panics and never poisons the
//! rest of the batch.

use crate::telemetry::ShardView;
use fastsc_core::{CompileError, Strategy};

/// Everything a policy may consult for one routing decision.
#[derive(Debug, Clone)]
pub struct RouteRequest<'a> {
    /// Stable structural hash of the job's program.
    pub program_hash: u64,
    /// The job's strategy.
    pub strategy: Strategy,
    /// Qubit count of the job's program.
    pub program_qubits: usize,
    /// One snapshot per shard, in registration order (see the
    /// [module docs](self)).
    pub shards: &'a [ShardView],
}

impl RouteRequest<'_> {
    /// Number of shards registered (routable or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards a policy may route to: active, in index order.
    pub fn routable(&self) -> impl Iterator<Item = &ShardView> {
        self.shards.iter().filter(|view| view.routable())
    }

    /// The refusal a policy returns when no routable shard can serve
    /// this job: [`CompileError::NoShardFits`] carrying the program
    /// width against the largest *routable* shard (0 when the whole
    /// fleet is draining or retired).
    pub fn refusal(&self) -> CompileError {
        CompileError::NoShardFits {
            program: self.program_qubits,
            max_shard: self.routable().map(ShardView::qubits).max().unwrap_or(0),
        }
    }
}

/// Chooses the shard for one job. Implementations must return an index
/// `< request.shard_count()` of a routable shard, or a per-job routing
/// error; the router asserts the index bound.
pub trait ShardPolicy: Send + std::fmt::Debug {
    /// Routes one job.
    ///
    /// # Errors
    ///
    /// A policy may refuse a job it can prove no shard can serve (e.g.
    /// [`CompileError::NoShardFits`]); the error becomes that job's
    /// result.
    fn route(&mut self, request: &RouteRequest<'_>) -> Result<usize, CompileError>;

    /// A short stable name for telemetry (route-span attributes).
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Cycles through the routable shards in registration order, independent
/// of job content — the fairest policy for homogeneous fleets and
/// uniform jobs. Draining/retired shards are skipped without consuming a
/// turn.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Starts at shard 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl ShardPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn route(&mut self, request: &RouteRequest<'_>) -> Result<usize, CompileError> {
        let count = request.shard_count();
        for offset in 0..count {
            let shard = (self.next + offset) % count;
            if request.shards[shard].routable() {
                self.next = (shard + 1) % count;
                return Ok(shard);
            }
        }
        Err(request.refusal())
    }
}

/// Pins every program to `program_hash % routable_count`, so
/// resubmissions of the same circuit always land on the shard whose
/// result cache and SMT memo are already warm for it (stable as long as
/// the fleet's routable set is stable; draining a shard re-homes its
/// programs).
#[derive(Debug, Default)]
pub struct ProgramAffinity;

impl ProgramAffinity {
    /// Creates the policy (stateless).
    pub fn new() -> Self {
        ProgramAffinity
    }
}

impl ShardPolicy for ProgramAffinity {
    fn name(&self) -> &'static str {
        "program_affinity"
    }

    fn route(&mut self, request: &RouteRequest<'_>) -> Result<usize, CompileError> {
        let count = request.routable().count();
        if count == 0 {
            return Err(request.refusal());
        }
        let pick = (request.program_hash % count as u64) as usize;
        Ok(request.routable().nth(pick).expect("pick < routable count").shard)
    }
}

/// One stage of a [`Composite`] policy pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Filter: keep only shards the program fits (refuse the job when
    /// none do).
    Capacity,
    /// Rank: keep the shards tied for the best static
    /// `estimated_success` (total order; NaN ranks worst).
    Fidelity,
    /// Rank: keep the shards tied for the lowest load.
    LeastLoaded,
    /// Rank: keep the shards tied for the most qubits.
    MostQubits,
}

/// A policy pipeline: each [`Stage`] narrows the candidate set — filters
/// drop shards, rankers keep only the shards tied for best — and
/// whatever survives every stage resolves to the lowest index. A stage
/// that leaves no candidate refuses the job with
/// [`CompileError::NoShardFits`].
///
/// The load- and calibration-driven placements are presets of this one
/// engine, each reporting its own [`name`](ShardPolicy::name) in route
/// spans:
///
/// | preset | stages | name |
/// |---|---|---|
/// | [`least_loaded`](Self::least_loaded) | least-loaded | `least_loaded` |
/// | [`capacity_aware`](Self::capacity_aware) | capacity → least-loaded → most-qubits | `capacity_aware` |
/// | [`fidelity_aware`](Self::fidelity_aware) | capacity → fidelity → least-loaded | `fidelity_aware` |
///
/// Any other pipeline reports `composite`.
#[derive(Debug, Clone)]
pub struct Composite {
    stages: Vec<Stage>,
}

impl Composite {
    /// A pipeline running `stages` in order. An empty pipeline routes
    /// every job to the lowest-indexed routable shard.
    pub fn new(stages: Vec<Stage>) -> Self {
        Composite { stages }
    }

    /// Routes each job to the routable shard with the fewest
    /// routed-but-unfinished jobs (ties break to the lowest shard index)
    /// — absorbs skewed batches where one shard's jobs run long.
    pub fn least_loaded() -> Self {
        Composite::new(vec![Stage::LeastLoaded])
    }

    /// Capacity-aware least-loaded placement for heterogeneous fleets:
    /// only shards with at least `program_qubits` qubits are candidates;
    /// among them the least-loaded wins, with load ties broken to the
    /// **larger** shard (headroom for the next wide job on *its* rival
    /// is worth more than on a chip every job fits) and equal-capacity
    /// ties to the lowest index. A job no shard fits is refused up front
    /// instead of being handed to a shard where compilation is
    /// guaranteed to fail.
    pub fn capacity_aware() -> Self {
        Composite::new(vec![Stage::Capacity, Stage::LeastLoaded, Stage::MostQubits])
    }

    /// Fidelity-aware placement, the production default: among the
    /// shards the program *fits*, pick the one whose profile promises the
    /// highest
    /// [`estimated_success`](crate::telemetry::ShardProfile::estimated_success)
    /// — the chip where the paper's crosstalk/coherence trade-off leaves
    /// the most success probability for this job. Score ties (via the
    /// total
    /// [`cmp_estimated_success`](crate::telemetry::ShardProfile::cmp_estimated_success)
    /// order, so NaN scores rank worst instead of panicking) break to the
    /// lower load, then to the lowest index.
    pub fn fidelity_aware() -> Self {
        Composite::new(vec![Stage::Capacity, Stage::Fidelity, Stage::LeastLoaded])
    }

    /// The stages, in evaluation order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

impl Default for Composite {
    fn default() -> Self {
        Composite::fidelity_aware()
    }
}

impl ShardPolicy for Composite {
    fn name(&self) -> &'static str {
        match self.stages.as_slice() {
            [Stage::LeastLoaded] => "least_loaded",
            [Stage::Capacity, Stage::LeastLoaded, Stage::MostQubits] => "capacity_aware",
            [Stage::Capacity, Stage::Fidelity, Stage::LeastLoaded] => "fidelity_aware",
            _ => "composite",
        }
    }

    fn route(&mut self, request: &RouteRequest<'_>) -> Result<usize, CompileError> {
        let mut candidates: Vec<&ShardView> = request.routable().collect();
        for stage in &self.stages {
            match stage {
                Stage::Capacity => {
                    candidates.retain(|view| view.qubits() >= request.program_qubits);
                }
                Stage::Fidelity => {
                    if let Some(best) = candidates
                        .iter()
                        .map(|view| &view.profile)
                        .max_by(|a, b| a.cmp_estimated_success(b))
                        .cloned()
                    {
                        candidates
                            .retain(|view| view.profile.cmp_estimated_success(&best).is_eq());
                    }
                }
                Stage::LeastLoaded => {
                    if let Some(least) = candidates.iter().map(|view| view.load).min() {
                        candidates.retain(|view| view.load == least);
                    }
                }
                Stage::MostQubits => {
                    if let Some(most) = candidates.iter().map(|view| view.qubits()).max() {
                        candidates.retain(|view| view.qubits() == most);
                    }
                }
            }
            if candidates.is_empty() {
                return Err(request.refusal());
            }
        }
        candidates.first().map(|view| view.shard).ok_or_else(|| request.refusal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::telemetry::{ShardProfile, ShardState, ShardView};
    use std::sync::Arc;
    use std::time::Duration;

    fn profile(qubits: usize, estimated_success: f64) -> Arc<ShardProfile> {
        Arc::new(ShardProfile {
            qubits,
            couplings: qubits.saturating_sub(1),
            mean_degree: 2.0,
            max_degree: 4,
            mean_t1_us: 25.0,
            min_t1_us: 25.0,
            mean_t2_us: 20.0,
            min_t2_us: 20.0,
            band_width_ghz: 0.6,
            min_parking_separation_ghz: 0.5,
            estimated_success,
        })
    }

    /// Builds views from `(qubits, load, estimated_success, state)`.
    fn views(specs: &[(usize, usize, f64, ShardState)]) -> Vec<ShardView> {
        specs
            .iter()
            .enumerate()
            .map(|(shard, &(qubits, load, score, state))| ShardView {
                shard,
                profile: profile(qubits, score),
                state,
                load,
                ewma_compile_latency: Duration::ZERO,
                cache: CacheStats::zero(),
                health: crate::telemetry::ShardHealth::default(),
            })
            .collect()
    }

    fn request<'a>(
        hash: u64,
        program_qubits: usize,
        shards: &'a [ShardView],
    ) -> RouteRequest<'a> {
        RouteRequest {
            program_hash: hash,
            strategy: Strategy::ColorDynamic,
            program_qubits,
            shards,
        }
    }

    const A: ShardState = ShardState::Active;

    #[test]
    fn round_robin_cycles_and_skips_drained_shards() {
        let mut p = RoundRobin::new();
        let fleet = views(&[(9, 0, 0.9, A), (9, 0, 0.9, A), (9, 0, 0.9, A)]);
        let picks: Vec<usize> =
            (0..7).map(|i| p.route(&request(i, 4, &fleet)).expect("routes")).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        let drained =
            views(&[(9, 0, 0.9, A), (9, 0, 0.9, ShardState::Draining), (9, 0, 0.9, A)]);
        let mut p = RoundRobin::new();
        let picks: Vec<usize> =
            (0..4).map(|i| p.route(&request(i, 4, &drained)).expect("routes")).collect();
        assert_eq!(picks, vec![0, 2, 0, 2], "draining shards are skipped without a turn");
    }

    #[test]
    fn least_loaded_picks_minimum_with_low_tie_break() {
        let mut p = Composite::least_loaded();
        let fleet = views(&[(9, 3, 0.9, A), (9, 1, 0.9, A), (9, 2, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1));
        let tied = views(&[(9, 2, 0.9, A), (9, 2, 0.9, A), (9, 2, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &tied)), Ok(0), "ties break to the lowest index");
    }

    #[test]
    fn affinity_is_a_pure_function_of_the_hash() {
        let mut p = ProgramAffinity::new();
        let fleet = views(&[(9, 100, 0.9, A), (9, 0, 0.9, A)]); // load must not matter
        assert_eq!(p.route(&request(6, 4, &fleet)), Ok(0));
        assert_eq!(p.route(&request(7, 4, &fleet)), Ok(1));
        assert_eq!(p.route(&request(7, 4, &fleet)), Ok(1), "same program, same shard");
    }

    #[test]
    fn capacity_aware_skips_too_small_shards() {
        let mut p = Composite::capacity_aware();
        // Program needs 4 qubits; shard 0 only has 2, so even though it
        // is idle the job must go to a fitting shard.
        let fleet = views(&[(2, 0, 0.9, A), (9, 5, 0.9, A), (16, 6, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1));
    }

    #[test]
    fn capacity_aware_breaks_load_ties_to_the_larger_shard() {
        let mut p = Composite::capacity_aware();
        let fleet = views(&[(9, 1, 0.9, A), (16, 1, 0.9, A), (9, 1, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1));
        let uniform = views(&[(9, 1, 0.9, A), (9, 1, 0.9, A), (9, 1, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &uniform)), Ok(0), "equal everything: lowest index");
    }

    #[test]
    fn capacity_aware_refuses_unplaceable_jobs() {
        let mut p = Composite::capacity_aware();
        let fleet = views(&[(2, 0, 0.9, A), (3, 0, 0.9, A)]);
        assert_eq!(
            p.route(&request(0, 4, &fleet)),
            Err(CompileError::NoShardFits { program: 4, max_shard: 3 })
        );
    }

    #[test]
    fn fidelity_aware_prefers_the_healthier_shard_over_the_emptier_one() {
        let mut p = Composite::fidelity_aware();
        // Shard 0 is idle but noisy; shard 1 is loaded but much
        // healthier. Least-loaded would pick 0; fidelity-aware must pick 1.
        let fleet = views(&[(9, 0, 0.3, A), (9, 3, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1));
        assert_eq!(Composite::least_loaded().route(&request(0, 4, &fleet)), Ok(0));
    }

    #[test]
    fn fidelity_aware_filters_capacity_then_ties_by_load() {
        let mut p = Composite::fidelity_aware();
        // The healthiest shard is too small for the job.
        let fleet = views(&[(2, 0, 0.99, A), (9, 2, 0.8, A), (9, 1, 0.8, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(2), "score tie breaks to lower load");
        // Score-tied shards of *different sizes*: load (the documented
        // tie-break) must decide — capacity never outranks an idle twin.
        let sized = views(&[(16, 10, 0.8, A), (9, 0, 0.8, A)]);
        assert_eq!(
            p.route(&request(0, 4, &sized)),
            Ok(1),
            "a bigger but busier shard must not beat an idle score-tied one"
        );
        let none = views(&[(2, 0, 0.99, A), (3, 0, 0.9, A)]);
        assert_eq!(
            p.route(&request(0, 4, &none)),
            Err(CompileError::NoShardFits { program: 4, max_shard: 3 })
        );
    }

    #[test]
    fn fidelity_aware_survives_nan_scores() {
        let mut p = Composite::fidelity_aware();
        let fleet = views(&[(9, 0, f64::NAN, A), (9, 5, 0.1, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1), "NaN ranks worst, never panics");
        let all_nan = views(&[(9, 1, f64::NAN, A), (9, 0, f64::NAN, A)]);
        assert_eq!(p.route(&request(0, 4, &all_nan)), Ok(1), "NaN ties fall back to load");
    }

    #[test]
    fn composite_custom_pipelines_and_empty_pipeline() {
        // Load-only pipeline ignores fidelity.
        let mut p = Composite::new(vec![Stage::LeastLoaded]);
        let fleet = views(&[(9, 2, 0.1, A), (9, 1, 0.9, A)]);
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(1));
        // Empty pipeline: lowest routable index.
        let mut p = Composite::new(Vec::new());
        assert_eq!(p.route(&request(0, 4, &fleet)), Ok(0));
        assert_eq!(Composite::default().stages(), Composite::fidelity_aware().stages());
    }

    #[test]
    fn presets_report_their_legacy_policy_names() {
        assert_eq!(Composite::least_loaded().name(), "least_loaded");
        assert_eq!(Composite::capacity_aware().name(), "capacity_aware");
        assert_eq!(Composite::fidelity_aware().name(), "fidelity_aware");
        assert_eq!(Composite::default().name(), "fidelity_aware");
        assert_eq!(Composite::new(vec![Stage::Fidelity]).name(), "composite");
        assert_eq!(Composite::new(Vec::new()).name(), "composite");
    }

    #[test]
    fn every_policy_refuses_a_fully_drained_fleet() {
        let drained =
            views(&[(9, 0, 0.9, ShardState::Draining), (9, 0, 0.9, ShardState::Retired)]);
        let request = request(0, 4, &drained);
        let policies: Vec<Box<dyn ShardPolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(Composite::least_loaded()),
            Box::new(ProgramAffinity::new()),
            Box::new(Composite::capacity_aware()),
            Box::new(Composite::fidelity_aware()),
            Box::new(Composite::new(Vec::new())),
        ];
        for mut policy in policies {
            assert_eq!(
                policy.route(&request),
                Err(CompileError::NoShardFits { program: 4, max_shard: 0 }),
                "{policy:?} routed into a drained fleet"
            );
        }
    }
}
