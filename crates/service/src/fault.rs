//! Deterministic, plan-driven fault injection for the compile fleet.
//!
//! Production fleets misbehave: compile stages panic, shards start
//! erroring after a bad calibration push, latency spikes, connections
//! reset mid-session. None of that is testable if it only happens in
//! production, so this module makes every failure mode *injectable* —
//! and, crucially, *reproducible*: a [`FaultPlan`] is a pure function of
//! its seed and the attempt sequence, never of the wall clock, so a
//! chaos test that fails under seed 17 fails under seed 17 forever.
//!
//! The plan is a list of [`FaultRule`]s. Each rule names a fault kind
//! ([`FaultKind`]), an optional target shard, a firing probability, and
//! an optional attempt window. When the router asks the injector what to
//! do for attempt *n* on shard *s* ([`FaultInjector::on_compile`]), the
//! decision for each rule is drawn from a [`StdRng`] seeded by
//! `(plan seed, shard, attempt, rule index)` — independent of thread
//! interleaving and of every other decision. The first firing rule wins.
//!
//! Wire-level faults use the same machinery over the *connection*
//! counter: [`FaultInjector::on_connection`] tells the TCP server
//! whether to drop an accepted connection on the floor.
//!
//! ```
//! use fastsc_service::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
//!
//! // Shard 0 panics on its first 4 compile attempts, then recovers.
//! let plan = FaultPlan::new(17)
//!     .rule(FaultRule::new(FaultKind::Panic).on_shard(0).for_attempts(0..4));
//! let injector = FaultInjector::new(plan);
//! assert!(!injector.on_compile(1).fires()); // other shards unaffected
//! ```

use fastsc_core::batch::panic_message;
use fastsc_core::CompileError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The failure modes a [`FaultRule`] can inject.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Panic inside the compile stage. The router converts the unwind
    /// into [`CompileError::Internal`] exactly like a real compiler
    /// panic, so the full isolation path is exercised.
    Panic,
    /// Fail the compile with a typed [`CompileError::Internal`] error
    /// (no unwinding) — a shard that errors without crashing.
    Error,
    /// Sleep for the given extra duration, then compile normally. The
    /// result is still correct, so latency faults must never break the
    /// bit-identical determinism invariant.
    Latency(Duration),
    /// Drop a freshly accepted TCP connection on the floor (consulted by
    /// the server via [`FaultInjector::on_connection`], never by the
    /// compile path).
    DropConnection,
}

/// One entry in a [`FaultPlan`]: a fault kind plus where and when it
/// fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    kind: FaultKind,
    shard: Option<usize>,
    probability: f64,
    window: Option<Range<u64>>,
}

impl FaultRule {
    /// A rule that always fires, on every shard, on every attempt.
    /// Narrow it with the builder methods.
    pub fn new(kind: FaultKind) -> Self {
        FaultRule { kind, shard: None, probability: 1.0, window: None }
    }

    /// Restricts the rule to one shard (compile faults only; connection
    /// faults ignore the shard).
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Fires with the given probability (clamped to `0.0..=1.0`),
    /// decided deterministically from the plan seed.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Restricts the rule to a half-open window of per-shard attempt
    /// indices (or connection indices for [`FaultKind::DropConnection`]).
    /// `0..4` means the first four attempts; afterwards the shard
    /// "recovers".
    pub fn for_attempts(mut self, window: Range<u64>) -> Self {
        self.window = Some(window);
        self
    }

    fn matches(&self, shard: Option<usize>, attempt: u64) -> bool {
        let shard_ok = match (self.shard, shard) {
            (Some(want), Some(got)) => want == got,
            (Some(_), None) => false,
            (None, _) => true,
        };
        let window_ok = self.window.as_ref().is_none_or(|w| w.contains(&attempt));
        shard_ok && window_ok
    }
}

/// A seeded list of [`FaultRule`]s. The plan plus the attempt sequence
/// fully determines every injection decision — no wall clock, no global
/// RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed. Injects nothing until rules
    /// are added.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Appends a rule. Earlier rules win when several fire on the same
    /// attempt.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// What the compile path should do for one attempt, as decided by
/// [`FaultInjector::on_compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// No fault: compile normally.
    Proceed,
    /// Panic inside the compile stage (see [`FaultKind::Panic`]).
    Panic,
    /// Fail with this typed error instead of compiling.
    Error(CompileError),
    /// Sleep this long, then compile normally.
    Delay(Duration),
}

impl FaultAction {
    /// Whether any fault fires for this attempt.
    pub fn fires(&self) -> bool {
        *self != FaultAction::Proceed
    }
}

/// The runtime half of a [`FaultPlan`]: tracks per-shard attempt
/// counters and answers "what happens to this attempt?".
///
/// Decisions are deterministic per `(shard, attempt index)` regardless
/// of thread interleaving: concurrent attempts on the same shard are
/// serialized only for the counter increment, and the draw itself
/// depends on nothing but the plan seed and the indices.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    compile_attempts: Mutex<HashMap<usize, u64>>,
    connections: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector executing the given plan from attempt zero.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            compile_attempts: Mutex::new(HashMap::new()),
            connections: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults fired so far (compile faults and connection drops).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decides the fate of the next compile attempt on `shard`.
    /// Increments that shard's attempt counter.
    pub fn on_compile(&self, shard: usize) -> FaultAction {
        let attempt = {
            let mut counts = self.compile_attempts.lock().expect("fault counters not poisoned");
            let slot = counts.entry(shard).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        for (index, rule) in self.plan.rules.iter().enumerate() {
            if matches!(rule.kind, FaultKind::DropConnection) {
                continue;
            }
            if rule.matches(Some(shard), attempt) && self.draw(shard as u64, attempt, index) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return match &rule.kind {
                    FaultKind::Panic => FaultAction::Panic,
                    FaultKind::Error => FaultAction::Error(CompileError::Internal {
                        message: format!(
                            "injected compile error (shard {shard}, attempt {attempt})"
                        ),
                    }),
                    FaultKind::Latency(extra) => FaultAction::Delay(*extra),
                    FaultKind::DropConnection => unreachable!("skipped above"),
                };
            }
        }
        FaultAction::Proceed
    }

    /// Decides whether the next accepted connection should be dropped.
    /// Increments the connection counter.
    pub fn on_connection(&self) -> bool {
        let attempt = self.connections.fetch_add(1, Ordering::Relaxed);
        for (index, rule) in self.plan.rules.iter().enumerate() {
            if !matches!(rule.kind, FaultKind::DropConnection) {
                continue;
            }
            // Connection rules key off the connection index alone; the
            // shard field does not apply. `u64::MAX` salts the draw so
            // connection decisions never collide with a shard's.
            if rule.matches(None, attempt) && self.draw(u64::MAX, attempt, index) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// One deterministic Bernoulli draw for `(shard, attempt, rule)`.
    fn draw(&self, shard: u64, attempt: u64, rule_index: usize) -> bool {
        let rule = &self.plan.rules[rule_index];
        if rule.probability >= 1.0 {
            return true;
        }
        if rule.probability <= 0.0 {
            return false;
        }
        // Mix the coordinates into one seed; StdRng::seed_from_u64 runs
        // SplitMix64 on top, so consecutive attempts decorrelate.
        let mixed = self
            .plan
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(attempt.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(rule_index as u64);
        StdRng::seed_from_u64(mixed).gen_bool(rule.probability)
    }
}

/// Executes an injected panic: really unwinds (so the isolation path is
/// exercised end to end) and converts the payload to
/// [`CompileError::Internal`] with the same decoder as
/// `compile_isolated` ([`panic_message`]).
pub fn injected_panic(shard: usize) -> CompileError {
    let message = format!("injected compile panic (shard {shard})");
    let payload = catch_unwind(AssertUnwindSafe(|| panic!("{}", message)))
        .expect_err("the closure always panics");
    CompileError::Internal { message: panic_message(payload.as_ref()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let injector = FaultInjector::new(FaultPlan::new(1));
        for shard in 0..4 {
            for _ in 0..16 {
                assert_eq!(injector.on_compile(shard), FaultAction::Proceed);
            }
        }
        assert!(!injector.on_connection());
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn certain_rule_fires_only_in_its_window_and_shard() {
        let plan = FaultPlan::new(9)
            .rule(FaultRule::new(FaultKind::Panic).on_shard(1).for_attempts(2..4));
        let injector = FaultInjector::new(plan);
        // Shard 0 is untouched.
        for _ in 0..8 {
            assert_eq!(injector.on_compile(0), FaultAction::Proceed);
        }
        // Shard 1: attempts 0,1 proceed; 2,3 panic; 4+ recover.
        assert_eq!(injector.on_compile(1), FaultAction::Proceed);
        assert_eq!(injector.on_compile(1), FaultAction::Proceed);
        assert_eq!(injector.on_compile(1), FaultAction::Panic);
        assert_eq!(injector.on_compile(1), FaultAction::Panic);
        assert_eq!(injector.on_compile(1), FaultAction::Proceed);
        assert_eq!(injector.injected(), 2);
    }

    #[test]
    fn probabilistic_draws_are_reproducible() {
        let plan = || {
            FaultPlan::new(1234).rule(FaultRule::new(FaultKind::Error).with_probability(0.5))
        };
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(plan());
        let decisions = |inj: &FaultInjector| {
            (0..64).map(|_| inj.on_compile(0).fires()).collect::<Vec<_>>()
        };
        let first = decisions(&a);
        assert_eq!(first, decisions(&b), "same seed, same decisions");
        assert!(first.iter().any(|&f| f), "p=0.5 over 64 draws fires sometimes");
        assert!(!first.iter().all(|&f| f), "p=0.5 over 64 draws also skips sometimes");
    }

    #[test]
    fn decisions_do_not_depend_on_cross_shard_interleaving() {
        let plan =
            || FaultPlan::new(7).rule(FaultRule::new(FaultKind::Error).with_probability(0.3));
        // Interleaving A: shard 0 fully, then shard 1.
        let a = FaultInjector::new(plan());
        let a0: Vec<bool> = (0..32).map(|_| a.on_compile(0).fires()).collect();
        let a1: Vec<bool> = (0..32).map(|_| a.on_compile(1).fires()).collect();
        // Interleaving B: alternating.
        let b = FaultInjector::new(plan());
        let mut b0 = Vec::new();
        let mut b1 = Vec::new();
        for _ in 0..32 {
            b0.push(b.on_compile(0).fires());
            b1.push(b.on_compile(1).fires());
        }
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
    }

    #[test]
    fn earlier_rules_win() {
        let plan = FaultPlan::new(3)
            .rule(FaultRule::new(FaultKind::Error))
            .rule(FaultRule::new(FaultKind::Panic));
        let injector = FaultInjector::new(plan);
        assert!(matches!(injector.on_compile(0), FaultAction::Error(_)));
    }

    #[test]
    fn connection_drops_use_the_connection_counter() {
        let plan = FaultPlan::new(5)
            .rule(FaultRule::new(FaultKind::DropConnection).for_attempts(1..2));
        let injector = FaultInjector::new(plan);
        assert!(!injector.on_connection()); // connection 0 survives
        assert!(injector.on_connection()); // connection 1 dropped
        assert!(!injector.on_connection()); // connection 2 survives
                                            // Compile attempts are independent of connection rules.
        assert_eq!(injector.on_compile(0), FaultAction::Proceed);
    }

    #[test]
    fn latency_rule_delays_then_proceeds() {
        let extra = Duration::from_millis(2);
        let plan = FaultPlan::new(2).rule(FaultRule::new(FaultKind::Latency(extra)));
        let injector = FaultInjector::new(plan);
        assert_eq!(injector.on_compile(0), FaultAction::Delay(extra));
    }

    #[test]
    fn injected_panic_converts_like_compile_isolated() {
        let err = injected_panic(3);
        match err {
            CompileError::Internal { message } => {
                assert!(message.contains("injected compile panic (shard 3)"));
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
