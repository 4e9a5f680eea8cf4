//! Property tests for the telemetry ordering: ranking shards by
//! `estimated_success` must be a **total, stable order** over arbitrary
//! `f64` bit patterns — including NaNs, infinities, and subnormals — so
//! fidelity-aware policies can sort any fleet without panicking and
//! without order-dependent results.

use fastsc_service::ShardProfile;
use proptest::prelude::*;
use std::cmp::Ordering;

/// A profile whose score is an arbitrary bit pattern (every other field
/// fixed so the qubit tie-break is exercised separately).
fn profile(score_bits: u64, qubits: usize) -> ShardProfile {
    ShardProfile {
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
        estimated_success: f64::from_bits(score_bits),
    }
}

proptest! {
    #[test]
    fn ordering_is_total_and_antisymmetric(a in any::<u64>(), b in any::<u64>(),
                                           qa in 1usize..32, qb in 1usize..32) {
        let pa = profile(a, qa);
        let pb = profile(b, qb);
        // Totality: the comparison never panics (exercised by calling
        // it) and is antisymmetric.
        let ab = pa.cmp_estimated_success(&pb);
        let ba = pb.cmp_estimated_success(&pa);
        prop_assert_eq!(ab, ba.reverse(), "cmp({:?}, {:?}) not antisymmetric",
                        pa.estimated_success, pb.estimated_success);
        // Reflexivity.
        prop_assert_eq!(pa.cmp_estimated_success(&pa), Ordering::Equal);
    }

    #[test]
    fn ordering_is_transitive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (pa, pb, pc) = (profile(a, 9), profile(b, 9), profile(c, 9));
        let ab = pa.cmp_estimated_success(&pb);
        let bc = pb.cmp_estimated_success(&pc);
        if ab == bc {
            prop_assert_eq!(pa.cmp_estimated_success(&pc), ab,
                            "a~b and b~c must imply a~c for the shared ordering");
        }
        if ab != Ordering::Greater && bc != Ordering::Greater {
            prop_assert_ne!(pa.cmp_estimated_success(&pc), Ordering::Greater,
                            "a<=b<=c must imply a<=c");
        }
    }

    #[test]
    fn sorting_a_fleet_never_panics_and_is_stable(scores in proptest::collection::vec(any::<u64>(), 1..24)) {
        let mut fleet: Vec<ShardProfile> =
            scores.iter().map(|&bits| profile(bits, 9)).collect();
        // This is the operation Composite's fidelity stage effectively
        // perform; with a non-total order (e.g. partial_cmp + unwrap on
        // NaN) this would panic.
        fleet.sort_by(|x, y| x.cmp_estimated_success(y));
        // Sorted means every adjacent pair is <=.
        for pair in fleet.windows(2) {
            prop_assert_ne!(pair[0].cmp_estimated_success(&pair[1]), Ordering::Greater);
        }
        // Non-finite scores (NaN included) all sort to the front —
        // before any finite score.
        let first_finite =
            fleet.iter().position(|p| p.estimated_success.is_finite()).unwrap_or(fleet.len());
        for p in &fleet[first_finite..] {
            prop_assert!(p.estimated_success.is_finite(),
                         "non-finite score sorted above a finite one");
        }
        // Stability of the max: the best element the sort finds equals
        // the best element a single max_by scan finds.
        let sorted_best = fleet.last().expect("non-empty").estimated_success;
        let scanned_best = scores
            .iter()
            .map(|&bits| profile(bits, 9))
            .max_by(|x, y| x.cmp_estimated_success(y))
            .expect("non-empty")
            .estimated_success;
        prop_assert_eq!(
            profile(sorted_best.to_bits(), 9).cmp_estimated_success(&profile(scanned_best.to_bits(), 9)),
            Ordering::Equal
        );
    }
}
