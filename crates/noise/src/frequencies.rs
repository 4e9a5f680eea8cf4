//! Per-cycle qubit frequencies: an owned dense vector, or a sorted overlay
//! of the retuned qubits on a shared parking vector.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Every qubit's 0-1 frequency (GHz) during one cycle, read like a dense
/// `Vec<f64>` of length `n_qubits`.
///
/// Idle qubits sit at one program-independent parking assignment and a
/// cycle retunes only the qubits of its two-qubit gates (paper §V-B,
/// App. A), so a cycle's frequencies are stored in one of two layouts:
///
/// - **dense**: an owned vector of every qubit's frequency;
/// - **overlay**: a shared base ([`Arc`]-counted, typically the device's
///   parking assignment, one allocation for every cycle compiled against
///   it) plus the `(qubit, frequency)` pairs that differ from it this
///   cycle, sorted by qubit.
///
/// The layout is invisible to readers: [`len`](Self::len), indexing,
/// [`iter`](Self::iter), [`to_vec`](Self::to_vec), equality and `Debug`
/// all see the logical dense values, so an overlay and its dense twin
/// compare equal and hash equal in
/// [`Schedule::stable_hash`](crate::Schedule::stable_hash). Mutation
/// through [`IndexMut`] or [`pop`](Self::pop) first copies an overlay
/// into an owned dense vector, so it never reaches the shared base or
/// any other cycle built on it.
///
/// Indexing an overlay is a binary search over its pairs; code that
/// reads many qubits of every cycle should go through a
/// [`FrequencyScratch`], which walks each overlay once.
///
/// ```
/// use fastsc_noise::Frequencies;
/// use std::sync::Arc;
///
/// let parking: Arc<[f64]> = vec![5.0, 5.5, 5.0, 5.5].into();
/// let cycle = Frequencies::overlay(Arc::clone(&parking), vec![(2, 6.7), (1, 6.7)]);
/// assert_eq!(cycle, Frequencies::from(vec![5.0, 6.7, 6.7, 5.5]));
/// assert_eq!(cycle[1], 6.7);
/// assert_eq!(cycle.iter().filter(|&&f| f > 6.0).count(), 2);
///
/// let mut edited = cycle.clone();
/// edited[0] = 4.5; // copies `edited` out of the shared base
/// assert_eq!(cycle[0], 5.0);
/// assert_eq!(parking[0], 5.0);
/// ```
#[derive(Clone)]
pub struct Frequencies(Layout);

#[derive(Clone)]
enum Layout {
    Dense(Vec<f64>),
    Overlay { base: Arc<[f64]>, retuned: Vec<(usize, f64)> },
}

impl Frequencies {
    /// `base` with the frequencies of `retuned`'s qubits replaced, stored
    /// as an overlay that shares `base` (no copy of it is made; `retuned`
    /// is sorted in place and kept as the overlay).
    ///
    /// # Panics
    ///
    /// Panics if a qubit of `retuned` is out of range for `base` or
    /// appears twice.
    pub fn overlay(base: Arc<[f64]>, mut retuned: Vec<(usize, f64)>) -> Self {
        retuned.sort_unstable_by_key(|&(q, _)| q);
        for pair in retuned.windows(2) {
            assert!(pair[0].0 != pair[1].0, "qubit {} retuned twice", pair[0].0);
        }
        if let Some(&(q, _)) = retuned.last() {
            assert!(q < base.len(), "retuned qubit {q} out of range");
        }
        Frequencies(Layout::Overlay { base, retuned })
    }

    /// Number of qubits covered.
    pub fn len(&self) -> usize {
        match &self.0 {
            Layout::Dense(values) => values.len(),
            Layout::Overlay { base, .. } => base.len(),
        }
    }

    /// Whether no qubit is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frequencies in qubit order.
    pub fn iter(&self) -> Iter<'_> {
        let (base, retuned) = self.parts();
        Iter { base: base.iter(), retuned, next_qubit: 0 }
    }

    /// The frequencies as an owned dense vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let (base, retuned) = self.parts();
        let mut values = base.to_vec();
        for &(q, f) in retuned {
            values[q] = f;
        }
        values
    }

    /// Removes and returns the last qubit's frequency (`None` when
    /// empty), copying an overlay into a dense vector first.
    pub fn pop(&mut self) -> Option<f64> {
        self.make_dense().pop()
    }

    /// The stored base values and the sorted pairs overlaid on them
    /// (empty for a dense vector, whose values are the base).
    fn parts(&self) -> (&[f64], &[(usize, f64)]) {
        match &self.0 {
            Layout::Dense(values) => (values, &[]),
            Layout::Overlay { base, retuned } => (base, retuned),
        }
    }

    /// Copy-on-write: replaces an overlay with its dense values.
    fn make_dense(&mut self) -> &mut Vec<f64> {
        if let Layout::Overlay { .. } = self.0 {
            self.0 = Layout::Dense(self.to_vec());
        }
        match &mut self.0 {
            Layout::Dense(values) => values,
            Layout::Overlay { .. } => unreachable!("made dense above"),
        }
    }
}

impl From<Vec<f64>> for Frequencies {
    fn from(values: Vec<f64>) -> Self {
        Frequencies(Layout::Dense(values))
    }
}

impl Index<usize> for Frequencies {
    type Output = f64;

    fn index(&self, q: usize) -> &f64 {
        let (base, retuned) = self.parts();
        match retuned.binary_search_by_key(&q, |&(r, _)| r) {
            Ok(i) => &retuned[i].1,
            Err(_) => &base[q],
        }
    }
}

impl IndexMut<usize> for Frequencies {
    fn index_mut(&mut self, q: usize) -> &mut f64 {
        &mut self.make_dense()[q]
    }
}

impl PartialEq for Frequencies {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Frequencies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Frequencies {
    type Item = &'a f64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Frequencies`]' values in qubit order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    base: std::slice::Iter<'a, f64>,
    retuned: &'a [(usize, f64)],
    next_qubit: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a f64;

    fn next(&mut self) -> Option<&'a f64> {
        let parked = self.base.next()?;
        let q = self.next_qubit;
        self.next_qubit += 1;
        match self.retuned.split_first() {
            Some(((r, f), rest)) if *r == q => {
                self.retuned = rest;
                Some(f)
            }
            _ => Some(parked),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A reusable dense reader of cycles' [`Frequencies`]: for code that
/// reads many qubits of every cycle (the estimator, the error budget,
/// the simulators), where indexing an overlay per read would cost a
/// binary search each.
///
/// [`dense`](Self::dense) returns a dense vector's own slice, and
/// materializes an overlay into the scratch: a full copy of the base the
/// first time a base is seen, then only the qubits the previous and the
/// current overlay touch, so walking a schedule whose cycles overlay one
/// parking vector costs O(retuned qubits) per cycle.
#[derive(Debug, Clone, Default)]
pub struct FrequencyScratch {
    base: Option<Arc<[f64]>>,
    values: Vec<f64>,
    /// Qubits of `values` that differ from `base` (the last overlay's).
    dirty: Vec<usize>,
}

impl FrequencyScratch {
    /// An empty scratch (no backing storage until the first overlay).
    pub fn new() -> Self {
        FrequencyScratch::default()
    }

    /// `frequencies` as a dense slice.
    pub fn dense<'a>(&'a mut self, frequencies: &'a Frequencies) -> &'a [f64] {
        let (base, retuned) = match &frequencies.0 {
            Layout::Dense(values) => return values,
            Layout::Overlay { base, retuned } => (base, retuned),
        };
        if self.base.as_ref().is_some_and(|seen| Arc::ptr_eq(seen, base)) {
            for &q in &self.dirty {
                self.values[q] = base[q];
            }
        } else {
            self.values.clear();
            self.values.extend_from_slice(base);
            self.base = Some(Arc::clone(base));
        }
        self.dirty.clear();
        for &(q, f) in retuned {
            self.values[q] = f;
            self.dirty.push(q);
        }
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parking() -> Arc<[f64]> {
        vec![5.0, 5.5, 5.0, 5.5, 5.0].into()
    }

    #[test]
    fn an_overlay_reads_like_its_dense_twin() {
        let overlay = Frequencies::overlay(parking(), vec![(3, 6.5), (0, 6.5)]);
        let dense = Frequencies::from(vec![6.5, 5.5, 5.0, 6.5, 5.0]);
        assert_eq!(overlay, dense);
        assert_eq!(overlay.len(), 5);
        assert!(!overlay.is_empty());
        assert_eq!(overlay.to_vec(), dense.to_vec());
        assert_eq!(overlay.iter().len(), 5);
        assert_eq!(format!("{overlay:?}"), format!("{:?}", dense.to_vec()));
        for q in 0..5 {
            assert_eq!(overlay[q].to_bits(), dense[q].to_bits());
        }
        let collected: Vec<f64> = (&overlay).into_iter().copied().collect();
        assert_eq!(collected, dense.to_vec());
        assert_ne!(overlay, Frequencies::overlay(parking(), vec![(3, 6.5)]));
    }

    #[test]
    fn writes_copy_out_of_the_shared_base() {
        let base = parking();
        let original = Frequencies::overlay(Arc::clone(&base), vec![(1, 6.2)]);
        let mut edited = original.clone();
        edited[1] = 6.3;
        edited[4] = 4.0;
        let mut popped = original.clone();
        assert_eq!(popped.pop(), Some(5.0));
        assert_eq!(popped.len(), 4);
        assert_eq!(original.to_vec(), vec![5.0, 6.2, 5.0, 5.5, 5.0]);
        assert_eq!(edited.to_vec(), vec![5.0, 6.3, 5.0, 5.5, 4.0]);
        assert_eq!(&base[..], &[5.0, 5.5, 5.0, 5.5, 5.0]);
    }

    #[test]
    #[should_panic(expected = "retuned twice")]
    fn rejects_a_qubit_retuned_twice() {
        Frequencies::overlay(parking(), vec![(2, 6.0), (2, 6.1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_an_out_of_range_qubit() {
        Frequencies::overlay(parking(), vec![(5, 6.0)]);
    }

    #[test]
    fn the_scratch_restores_what_the_last_overlay_retuned() {
        let base = parking();
        let other: Arc<[f64]> = vec![4.0; 5].into();
        let cycles = [
            Frequencies::overlay(Arc::clone(&base), vec![(0, 6.0), (1, 6.0)]),
            Frequencies::overlay(Arc::clone(&base), vec![(3, 6.4)]),
            Frequencies::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            Frequencies::overlay(Arc::clone(&other), vec![(2, 6.1)]),
            Frequencies::overlay(Arc::clone(&base), Vec::new()),
        ];
        let mut scratch = FrequencyScratch::new();
        for cycle in &cycles {
            assert_eq!(scratch.dense(cycle), &cycle.to_vec()[..]);
        }
    }
}
