use std::error::Error;
use std::fmt;
use std::time::Duration;

/// One failed attempt in a retry chain, recorded by retrying front ends
/// and carried inside [`CompileError::Exhausted`] so operators can see
/// exactly where a poison job died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedAttempt {
    /// Shard the attempt ran on, or `None` when routing itself refused
    /// the attempt (for example every remaining shard was excluded).
    pub shard: Option<usize>,
    /// The error that attempt produced.
    pub error: CompileError,
}

impl fmt::Display for FailedAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            Some(shard) => write!(f, "shard {shard}: {}", self.error),
            None => write!(f, "routing: {}", self.error),
        }
    }
}

/// Errors raised by the compiler.
///
/// The enum is `#[non_exhaustive]`: every layer of the stack (batch
/// front end, shard router, admission queue) has added variants of its
/// own, and future serving layers will too — downstream matches must
/// carry a wildcard arm so a new failure mode is an API *addition*, not
/// a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The program uses more qubits than the device provides.
    ProgramTooWide {
        /// Program qubit count.
        program: usize,
        /// Device qubit count.
        device: usize,
    },
    /// A two-qubit gate touches qubits in different connected components
    /// of the device, so no `SWAP` chain can bring them together.
    Unroutable {
        /// First physical qubit.
        a: usize,
        /// Second physical qubit.
        b: usize,
    },
    /// The frequency solver could not place the requested number of
    /// interaction frequencies in the configured band (the band is
    /// empty after clamping to the devices' reachable range).
    FrequencyBandExhausted {
        /// Number of frequencies requested.
        colors: usize,
    },
    /// A [`CompilerConfig`](crate::CompilerConfig) field holds a value no
    /// strategy can compile with: `conflict_threshold` 0 (every
    /// two-qubit gate would defer forever), `max_colors` `Some(0)`, or a
    /// zero, negative or NaN `smt_tolerance`. Raised when the compile
    /// context is built, before any program is looked at.
    InvalidConfig {
        /// The offending field's name.
        field: &'static str,
    },
    /// A compilation stage panicked. Only surfaced by
    /// [`crate::batch::compile_isolated`] and the batch front ends built
    /// on it, which convert per-job panics into errors so one bad job
    /// cannot poison its batch.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// No registered shard has enough qubits for the program. Surfaced by
    /// fleet routers whose placement policy is capacity-aware: rather
    /// than routing the job to a shard where it is guaranteed to fail
    /// with [`ProgramTooWide`](Self::ProgramTooWide), routing itself
    /// rejects it.
    NoShardFits {
        /// Program qubit count.
        program: usize,
        /// Qubit count of the largest registered shard.
        max_shard: usize,
    },
    /// The job's deadline passed before a compile slot opened. Surfaced
    /// by queueing front ends: the job is expired without compiling.
    Deadline,
    /// The job was cancelled by its submitter before it started
    /// compiling.
    Cancelled,
    /// The admission queue was full and the job was turned away — either
    /// rejected at submission (`RejectWhenFull` backpressure) or shed
    /// after admission to make room for newer work (`ShedOldest`).
    QueueFull,
    /// The job failed on every shard its retry policy allowed and was
    /// quarantined as poison instead of retrying forever. Carries the
    /// full per-attempt history, in order.
    Exhausted {
        /// Every failed attempt, in the order they were made.
        attempts: Vec<FailedAttempt>,
    },
    /// No shard in the fleet is healthy enough to accept work: every
    /// shard is quarantined by its circuit breaker. Submissions fail
    /// fast with a suggested retry delay instead of hanging waiters.
    FleetUnhealthy {
        /// How long the submitter should wait before retrying.
        retry_after: Duration,
    },
}

impl CompileError {
    /// Whether a retry — on the same shard later, or on a different
    /// shard via failover — could plausibly succeed.
    ///
    /// Deterministic program and config errors (too wide, unroutable,
    /// band exhausted, invalid config, no shard fits) reproduce
    /// identically anywhere, and
    /// queue outcomes (deadline, cancelled, queue full) are terminal by
    /// construction, so only [`Internal`](Self::Internal) — a panicked
    /// or fault-injected compile stage, i.e. a *shard* failure rather
    /// than a *program* failure — is considered transient.
    pub fn is_transient(&self) -> bool {
        matches!(self, CompileError::Internal { .. })
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CompileError::ProgramTooWide { program, device } => {
                write!(f, "program uses {program} qubits but the device has only {device}")
            }
            CompileError::Unroutable { a, b } => {
                write!(f, "no path between physical qubits {a} and {b}; device is disconnected")
            }
            CompileError::FrequencyBandExhausted { colors } => write!(
                f,
                "cannot place {colors} interaction frequencies in the configured band"
            ),
            CompileError::InvalidConfig { field } => {
                write!(f, "invalid compiler config: {field} must be positive")
            }
            CompileError::Internal { ref message } => {
                write!(f, "compilation stage panicked: {message}")
            }
            CompileError::NoShardFits { program, max_shard } => write!(
                f,
                "program uses {program} qubits but the largest registered shard has only \
                 {max_shard}"
            ),
            CompileError::Deadline => {
                write!(f, "deadline passed before the job reached a compiler")
            }
            CompileError::Cancelled => write!(f, "job cancelled before compilation"),
            CompileError::QueueFull => {
                write!(f, "admission queue full; job rejected or shed")
            }
            CompileError::Exhausted { ref attempts } => {
                write!(
                    f,
                    "job quarantined as poison after {} failed attempts",
                    attempts.len()
                )?;
                for attempt in attempts {
                    write!(f, "; {attempt}")?;
                }
                Ok(())
            }
            CompileError::FleetUnhealthy { retry_after } => write!(
                f,
                "every shard is quarantined; retry after {}ms",
                retry_after.as_millis()
            ),
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CompileError::ProgramTooWide { program: 10, device: 9 };
        assert!(e.to_string().contains("10"));
        let e = CompileError::Unroutable { a: 1, b: 5 };
        assert!(e.to_string().contains("disconnected"));
        let e = CompileError::FrequencyBandExhausted { colors: 12 };
        assert!(e.to_string().contains("12"));
        let e = CompileError::InvalidConfig { field: "smt_tolerance" };
        assert!(e.to_string().contains("smt_tolerance"));
        let e = CompileError::NoShardFits { program: 16, max_shard: 9 };
        assert!(e.to_string().contains("16") && e.to_string().contains("9"));
        assert!(CompileError::Deadline.to_string().contains("deadline"));
        assert!(CompileError::Cancelled.to_string().contains("cancelled"));
        assert!(CompileError::QueueFull.to_string().contains("queue full"));
        let e = CompileError::Exhausted {
            attempts: vec![
                FailedAttempt {
                    shard: Some(2),
                    error: CompileError::Internal { message: "boom".into() },
                },
                FailedAttempt {
                    shard: None,
                    error: CompileError::NoShardFits { program: 4, max_shard: 0 },
                },
            ],
        };
        let text = e.to_string();
        assert!(text.contains("2 failed attempts"));
        assert!(text.contains("shard 2") && text.contains("boom"));
        assert!(text.contains("routing:"));
        let e = CompileError::FleetUnhealthy { retry_after: Duration::from_millis(250) };
        assert!(e.to_string().contains("250ms"));
    }

    #[test]
    fn only_internal_errors_are_transient() {
        assert!(CompileError::Internal { message: "panicked".into() }.is_transient());
        for terminal in [
            CompileError::ProgramTooWide { program: 10, device: 9 },
            CompileError::Unroutable { a: 0, b: 1 },
            CompileError::FrequencyBandExhausted { colors: 3 },
            CompileError::InvalidConfig { field: "conflict_threshold" },
            CompileError::NoShardFits { program: 16, max_shard: 9 },
            CompileError::Deadline,
            CompileError::Cancelled,
            CompileError::QueueFull,
            CompileError::Exhausted { attempts: Vec::new() },
            CompileError::FleetUnhealthy { retry_after: Duration::from_secs(1) },
        ] {
            assert!(!terminal.is_transient(), "{terminal} must not retry");
        }
    }
}
