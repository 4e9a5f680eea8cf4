//! A small Satisfiability-Modulo-Theories solver for **difference logic**
//! over the reals, replacing the Z3 dependency of the original FastSC
//! implementation.
//!
//! The paper's frequency assignment (§V-B3) asks for `|C|` frequencies
//! `x_c ∈ [ω_lo, ω_hi]` such that for every pair of colors
//!
//! ```text
//! |x_i - x_j|     >= δ        (direct resonance)
//! |x_i + α - x_j| >= δ        (sideband resonance, α = anharmonicity)
//! ```
//!
//! and then maximizes the separation threshold δ by binary search
//! (`smt_find`). After case-splitting each absolute value, every atom is a
//! *difference constraint* `x - y <= c`, a theory decidable by detecting
//! negative cycles in a weighted constraint graph (Bellman–Ford). This crate
//! implements exactly that fragment:
//!
//! * [`Problem`] — conjunction of hard difference constraints plus
//!   disjunctive [`Clause`]s (e.g. from absolute values);
//! * a DPLL-style case-split search with theory-level pruning;
//! * [`Model`] extraction from shortest-path potentials;
//! * [`maximize`] — binary search for the largest parameter for which a
//!   parameterized problem stays satisfiable.
//!
//! `fastsc-core`'s `smt_find` no longer calls this crate: it solves the
//! same queries with an order-aware staircase search. This general search
//! stays as the reference that solver is tested against bit for bit
//! (`crates/core/tests/frequency_oracle.rs`).
//!
//! # Example: three frequencies in 1 GHz with 0.4 GHz separation
//!
//! ```
//! use fastsc_smt::Problem;
//!
//! let mut p = Problem::new();
//! let xs: Vec<_> = (0..3).map(|_| p.new_var()).collect();
//! for &x in &xs {
//!     p.add_bounds(x, 6.0, 7.0);
//! }
//! for i in 0..3 {
//!     for j in (i + 1)..3 {
//!         p.add_abs_ge(xs[i], 0.0, xs[j], 0.4); // |x_i - x_j| >= 0.4
//!     }
//! }
//! let model = p.solve().expect("three slots fit in 1 GHz at 0.4 GHz spacing");
//! let mut vals: Vec<f64> = xs.iter().map(|&x| model.value(x)).collect();
//! vals.sort_by(f64::total_cmp);
//! assert!(vals[1] - vals[0] >= 0.4 - 1e-9);
//! assert!(vals[2] - vals[1] >= 0.4 - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod optimize;
mod problem;
mod solver;
mod theory;

pub use optimize::{maximize, MaximizeResult};
pub use problem::{Clause, DiffConstraint, Problem, Var};
pub use solver::Model;
