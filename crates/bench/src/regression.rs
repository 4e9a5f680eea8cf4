//! Bench-regression gating over `BENCH_compile.json`.
//!
//! CI records fresh rows under the `current` label, then holds each gated
//! `(workload, strategy)` row to a [`Bound`]: a fixed ceiling (same-run
//! [`PAIRED_RATIO`](crate::record::PAIRED_RATIO) rows, which cancel
//! machine drift inside each pair, and absolute wall times), or a
//! multiple of the committed `post` row of the same key. The checks are
//! deliberately coarse because CI machines are noisy — they exist to
//! catch order-of-magnitude regressions (e.g. work stealing silently
//! degrading to contiguous chunking), not microsecond drift.

use crate::record::BenchRecord;

/// How far a fresh `current` row may go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At most this value, in the row's unit (ns, or ‰ for ratio rows).
    Ceiling(u128),
    /// At most this multiple of the committed `post` row of the same key.
    VsPost(f64),
}

/// One gate: the `current` row of `(workload, strategy)` within `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Workload key in `BENCH_compile.json` (e.g. `skewed_batch`).
    pub workload: &'static str,
    /// Strategy key (e.g. `parallel` or `paired_ratio_permille`).
    pub strategy: &'static str,
    /// The bound the fresh row must meet.
    pub bound: Bound,
}

/// Evaluates `gate` against `records`.
///
/// # Errors
///
/// Returns a human-readable message when a needed record is missing, a
/// `post` baseline is zero, or the row exceeds its bound.
pub fn check(records: &[BenchRecord], gate: &Gate) -> Result<String, String> {
    let find = |label: &str| {
        records.iter().find(|r| {
            r.workload == gate.workload && r.strategy == gate.strategy && r.label == label
        })
    };
    let key = format!("({}, {})", gate.workload, gate.strategy);
    let current = find("current")
        .ok_or_else(|| format!("no `current` record for {key} — did the bench run?"))?
        .median_ns;
    let (over, summary) = match gate.bound {
        Bound::Ceiling(max) => (current > max, format!("{key}: {current} (ceiling {max})")),
        Bound::VsPost(max) => {
            let post = find("post")
                .ok_or_else(|| {
                    format!("no `post` baseline for {key} — commit one with BENCH_LABEL=post")
                })?
                .median_ns;
            if post == 0 {
                return Err(format!("`post` baseline for {key} is 0 — cannot gate against it"));
            }
            let ratio = current as f64 / post as f64;
            (
                ratio > max,
                format!("{key}: {current} vs post {post} — ratio {ratio:.2} (limit {max:.2})"),
            )
        }
    };
    if over {
        Err(format!("REGRESSION {summary}"))
    } else {
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, strategy: &str, label: &str, ns: u128) -> BenchRecord {
        BenchRecord {
            workload: workload.into(),
            strategy: strategy.into(),
            median_ns: ns,
            label: label.into(),
        }
    }

    const VS_POST: Gate =
        Gate { workload: "skewed_batch", strategy: "parallel", bound: Bound::VsPost(2.0) };

    const CEILING: Gate = Gate {
        workload: "scale256",
        strategy: "paired_ratio_permille",
        bound: Bound::Ceiling(900),
    };

    #[test]
    fn vs_post_passes_within_ratio() {
        let records = vec![
            rec("skewed_batch", "parallel", "post", 100),
            rec("skewed_batch", "parallel", "current", 180),
        ];
        let message = check(&records, &VS_POST).expect("within 2x");
        assert!(message.contains("ratio 1.80"));
    }

    #[test]
    fn vs_post_fails_beyond_ratio() {
        let records = vec![
            rec("skewed_batch", "parallel", "post", 100),
            rec("skewed_batch", "parallel", "current", 201),
        ];
        let message = check(&records, &VS_POST).expect_err("beyond 2x");
        assert!(message.starts_with("REGRESSION"));
    }

    #[test]
    fn vs_post_boundary_passes() {
        let records = vec![
            rec("skewed_batch", "parallel", "post", 100),
            rec("skewed_batch", "parallel", "current", 200),
        ];
        assert!(check(&records, &VS_POST).is_ok(), "exactly 2x is not a regression");
    }

    #[test]
    fn missing_current_is_an_error() {
        let records = vec![rec("skewed_batch", "parallel", "post", 100)];
        let message = check(&records, &VS_POST).expect_err("no current record");
        assert!(message.contains("did the bench run"));
    }

    #[test]
    fn missing_post_is_an_error() {
        let records = vec![rec("skewed_batch", "parallel", "current", 100)];
        let message = check(&records, &VS_POST).expect_err("no baseline");
        assert!(message.contains("BENCH_LABEL=post"));
    }

    #[test]
    fn zero_post_is_an_error() {
        let records = vec![
            rec("skewed_batch", "parallel", "post", 0),
            rec("skewed_batch", "parallel", "current", 1),
        ];
        assert!(check(&records, &VS_POST).is_err());
    }

    #[test]
    fn other_keys_are_ignored() {
        let records = vec![
            rec("skewed_batch", "parallel", "post", 100),
            rec("skewed_batch", "parallel", "current", 150),
            rec("skewed_batch", "sequential", "current", 999_999),
            rec("xeb16", "parallel", "current", 999_999),
        ];
        assert!(check(&records, &VS_POST).is_ok());
    }

    #[test]
    fn ceiling_passes_at_the_ceiling_and_fails_above() {
        let at = vec![rec("scale256", "paired_ratio_permille", "current", 900)];
        assert!(check(&at, &CEILING).expect("at ceiling").contains("900"));
        let above = vec![rec("scale256", "paired_ratio_permille", "current", 901)];
        assert!(check(&above, &CEILING).expect_err("above").starts_with("REGRESSION"));
    }

    #[test]
    fn ceiling_never_reads_the_committed_row() {
        // Only the fresh run counts: a committed `post` row must never
        // satisfy a ceiling gate.
        let records = vec![rec("scale256", "paired_ratio_permille", "post", 100)];
        let message = check(&records, &CEILING).expect_err("missing current");
        assert!(message.contains("did the bench run"));
    }
}
