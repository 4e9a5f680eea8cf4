//! Crosstalk and decoherence noise models, the compiled-schedule data
//! model, and the worst-case program-success estimator (paper Eq. 4 and
//! App. B).
//!
//! The estimator walks a [`Schedule`] cycle by cycle. Every *physical
//! coupling* that is not executing its own two-qubit gate contributes a
//! crosstalk error for each of its three resonance channels
//! (`omega01 <-> omega01` exchange and the two `omega01 <-> omega12`
//! sideband/leakage channels), computed from the residual coupling of
//! Eq. 5 and the Rabi transition probability of Eq. 6. Every qubit
//! contributes the decoherence error `(1 - e^{-t/T1})(1 - e^{-t/T2})` over
//! the program duration, with `T2` degraded away from flux sweet spots.
//! The product of all survival probabilities is the worst-case success
//! rate:
//!
//! ```text
//! P_success = prod_g (1 - eps_g) * prod_q (1 - eps_q)        (Eq. 4)
//! ```
//!
//! # Example
//!
//! ```
//! use fastsc_noise::coupling;
//!
//! // Fig. 2: residual coupling decays as 1/delta-omega.
//! let g_near = coupling::residual_coupling(0.005, 0.05);
//! let g_far = coupling::residual_coupling(0.005, 0.50);
//! assert!(g_near > 9.0 * g_far);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coupling;
pub mod decoherence;
pub mod diagnostics;
mod estimator;
mod frequencies;
mod schedule;

pub use diagnostics::{error_budget, ChannelKind, ErrorBudget};
pub use estimator::{
    estimate, static_success_estimate, NoiseConfig, SuccessReport, NOMINAL_DEPTH_CYCLES,
};
pub use frequencies::{Frequencies, FrequencyScratch, Iter as FrequencyIter};
pub use schedule::{Cycle, CycleScratch, Schedule, ScheduledGate};
