//! Per-cycle qubit frequencies: an owned dense vector, or a window onto
//! blocks that many cycles share.

use std::fmt;
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

/// Every qubit's 0-1 frequency (GHz) during one cycle, read like a dense
/// `Vec<f64>` of length `n_qubits`.
///
/// Idle qubits sit at one program-independent parking assignment and a
/// cycle retunes only the qubits of its two-qubit gates (paper §V-B,
/// App. A), so a cycle's frequencies are stored in one of two layouts:
///
/// - **dense**: an owned vector of every qubit's frequency, which
///   `From<Vec<f64>>` and copy-on-write produce;
/// - **shared**: a length-`n` window of a shared base block, plus
///   possibly a window of a shared block of `(qubit, frequency)` pairs
///   written over it, sorted by qubit (both [`Arc`]-counted). The
///   compiler gives each schedule one block of its dense cycles' rows and
///   one block of its other cycles' retuned pairs, so a schedule's
///   frequencies cost at most two allocations however deep it is: a
///   dense cycle is a [`row`](Self::row) of the row block, any other
///   cycle a [`window`](Self::window) of the pair block over the
///   device's parking vector. [`overlay`](Self::overlay) builds a shared
///   layout over a whole base with its own pair block.
///
/// The layout is invisible to readers: [`len`](Self::len), indexing,
/// [`iter`](Self::iter), [`to_vec`](Self::to_vec), equality and `Debug`
/// all see the logical dense values, so a window and its dense twin
/// compare equal and hash equal in
/// [`Schedule::stable_hash`](crate::Schedule::stable_hash). Mutation
/// through [`IndexMut`] or [`pop`](Self::pop) first copies this cycle's
/// values into an owned dense vector, so it never reaches a shared block
/// or any other cycle built on it.
///
/// Indexing a window with pairs is a binary search over them; code that
/// reads many qubits of every cycle should go through a
/// [`FrequencyScratch`], which walks each cycle's pairs once.
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
/// // Two cycles' rows in one block, and one retuned pair in another.
/// let rows: Arc<[f64]> = vec![6.1, 6.1, 5.0, 5.5, 5.0, 5.5, 6.3, 6.3].into();
/// let pairs: Arc<[(usize, f64)]> = vec![(0, 6.9)].into();
/// let second = Frequencies::row(&rows, 4..8);
/// assert_eq!(second.to_vec(), vec![5.0, 5.5, 6.3, 6.3]);
/// let patched = Frequencies::window(&rows, 4..8, &pairs, 0..1);
/// assert_eq!(patched.to_vec(), vec![6.9, 5.5, 6.3, 6.3]);
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
    Shared(Window),
}

/// `base[at..at + len]`, with the pairs of a run of a pair block written
/// over it (`None` when no qubit is retuned).
#[derive(Clone)]
struct Window {
    base: Arc<[f64]>,
    at: usize,
    len: usize,
    pairs: Option<PairRun>,
}

/// A pair block and the run of it one window reads.
type PairRun = (Arc<[(usize, f64)]>, Range<usize>);

impl Frequencies {
    /// `base` with the frequencies of `retuned`'s qubits replaced, stored
    /// as a window over the whole of `base` (no copy of it is made;
    /// `retuned` is sorted and becomes the window's pair block).
    ///
    /// # Panics
    ///
    /// Panics if a qubit of `retuned` is out of range for `base` or
    /// appears twice.
    pub fn overlay(base: Arc<[f64]>, mut retuned: Vec<(usize, f64)>) -> Self {
        retuned.sort_unstable_by_key(|&(q, _)| q);
        let n_pairs = retuned.len();
        Frequencies::window(&base, 0..base.len(), &retuned.into(), 0..n_pairs)
    }

    /// The `values` window of the `base` block, shared, not copied, so
    /// any number of cycles can be rows of one block.
    ///
    /// # Panics
    ///
    /// Panics if `values` is out of range for `base`.
    pub fn row(base: &Arc<[f64]>, values: Range<usize>) -> Self {
        Frequencies::shared(base, values, None)
    }

    /// The `values` window of the `base` block, with the `retuned` window
    /// of the `pairs` block written over it; a pair's qubit counts from
    /// the start of `values`. Both blocks are shared, not copied, so any
    /// number of cycles can be windows onto the same two blocks.
    ///
    /// # Panics
    ///
    /// Panics if a window is out of range for its block, or if the
    /// pairs' qubits are not strictly ascending or not below
    /// `values.len()`.
    pub fn window(
        base: &Arc<[f64]>,
        values: Range<usize>,
        pairs: &Arc<[(usize, f64)]>,
        retuned: Range<usize>,
    ) -> Self {
        let patch = &pairs[retuned.clone()];
        for pair in patch.windows(2) {
            assert!(pair[0].0 != pair[1].0, "qubit {} retuned twice", pair[0].0);
            assert!(pair[0].0 < pair[1].0, "retuned qubits are not sorted");
        }
        if let Some(&(q, _)) = patch.last() {
            assert!(q < values.len(), "retuned qubit {q} out of range");
        }
        let pairs = (!patch.is_empty()).then(|| (Arc::clone(pairs), retuned));
        Frequencies::shared(base, values, pairs)
    }

    fn shared(base: &Arc<[f64]>, values: Range<usize>, pairs: Option<PairRun>) -> Self {
        let len = base[values.clone()].len();
        Frequencies(Layout::Shared(Window {
            base: Arc::clone(base),
            at: values.start,
            len,
            pairs,
        }))
    }

    /// Number of qubits covered.
    pub fn len(&self) -> usize {
        match &self.0 {
            Layout::Dense(values) => values.len(),
            Layout::Shared(window) => window.len,
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
    /// empty), copying a window into a dense vector first.
    pub fn pop(&mut self) -> Option<f64> {
        self.make_dense().pop()
    }

    /// The base values and the sorted pairs written over them (empty for
    /// a dense vector, whose values are the base).
    fn parts(&self) -> (&[f64], &[(usize, f64)]) {
        match &self.0 {
            Layout::Dense(values) => (values, &[]),
            Layout::Shared(w) => {
                let retuned = match &w.pairs {
                    Some((block, run)) => &block[run.clone()],
                    None => &[],
                };
                (&w.base[w.at..w.at + w.len], retuned)
            }
        }
    }

    /// Copy-on-write: replaces a window with its dense values.
    fn make_dense(&mut self) -> &mut Vec<f64> {
        if let Layout::Shared(_) = self.0 {
            self.0 = Layout::Dense(self.to_vec());
        }
        match &mut self.0 {
            Layout::Dense(values) => values,
            Layout::Shared(_) => unreachable!("made dense above"),
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
/// the simulators), where indexing a window with pairs per read would
/// cost a binary search each.
///
/// [`dense`](Self::dense) returns a dense vector's own slice and a
/// pair-free window's slice of its block, copying neither. A window with
/// pairs is materialized into the scratch: a full copy of its base
/// window the first time that window is seen, then only the qubits the
/// previous and the current pairs touch, so walking a schedule whose
/// cycles patch one parking vector costs O(retuned qubits) per cycle.
#[derive(Debug, Clone, Default)]
pub struct FrequencyScratch {
    /// The block and start of the base window `values` was copied from.
    /// Windows at different starts of one block are different bases.
    base: Option<(Arc<[f64]>, usize)>,
    values: Vec<f64>,
    /// Qubits of `values` that differ from the base (the last pairs').
    dirty: Vec<usize>,
}

impl FrequencyScratch {
    /// An empty scratch (no backing storage until the first window with
    /// pairs).
    pub fn new() -> Self {
        FrequencyScratch::default()
    }

    /// `frequencies` as a dense slice.
    pub fn dense<'a>(&'a mut self, frequencies: &'a Frequencies) -> &'a [f64] {
        let (window, (base, retuned)) = match &frequencies.0 {
            Layout::Dense(values) => return values,
            Layout::Shared(w) if w.pairs.is_none() => return &w.base[w.at..w.at + w.len],
            Layout::Shared(w) => (w, frequencies.parts()),
        };
        let seen = self.base.as_ref().is_some_and(|(block, at)| {
            Arc::ptr_eq(block, &window.base)
                && *at == window.at
                && self.values.len() == base.len()
        });
        if seen {
            for &q in &self.dirty {
                self.values[q] = base[q];
            }
        } else {
            self.values.clear();
            self.values.extend_from_slice(base);
            self.base = Some((Arc::clone(&window.base), window.at));
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
    use crate::{Cycle, Schedule};

    fn parking() -> Arc<[f64]> {
        vec![5.0, 5.5, 5.0, 5.5, 5.0].into()
    }

    /// Two cycles' dense rows over five qubits, back to back in one block.
    fn rows() -> Arc<[f64]> {
        vec![6.1, 6.1, 5.0, 5.5, 5.0, 5.0, 5.5, 6.4, 6.4, 5.0].into()
    }

    /// Asserts that `shared` reads exactly like `dense` through every
    /// reader, a one-cycle schedule's stable hash included.
    fn assert_reads_like(shared: &Frequencies, dense: &Frequencies) {
        assert_eq!(shared, dense);
        assert_eq!(shared.len(), dense.len());
        assert_eq!(shared.is_empty(), dense.is_empty());
        assert_eq!(shared.to_vec(), dense.to_vec());
        assert_eq!(shared.iter().len(), dense.len());
        assert_eq!(format!("{shared:?}"), format!("{:?}", dense.to_vec()));
        for q in 0..dense.len() {
            assert_eq!(shared[q].to_bits(), dense[q].to_bits());
        }
        let collected: Vec<f64> = shared.into_iter().copied().collect();
        assert_eq!(collected, dense.to_vec());
        let hash = |frequencies: &Frequencies| {
            let mut s = Schedule::new(frequencies.len());
            let frequencies = frequencies.clone();
            s.push_cycle(Cycle {
                gates: vec![],
                frequencies,
                active_couplings: vec![],
                duration_ns: 1.0,
            });
            s.stable_hash()
        };
        assert_eq!(hash(shared), hash(dense));
    }

    #[test]
    fn an_overlay_reads_like_its_dense_twin() {
        let overlay = Frequencies::overlay(parking(), vec![(3, 6.5), (0, 6.5)]);
        assert_reads_like(&overlay, &vec![6.5, 5.5, 5.0, 6.5, 5.0].into());
        assert_ne!(overlay, Frequencies::overlay(parking(), vec![(3, 6.5)]));
    }

    #[test]
    fn block_and_pair_windows_read_like_their_dense_twins() {
        let (rows, pairs): (_, Arc<[(usize, f64)]>) =
            (rows(), vec![(0, 6.8), (4, 6.8), (2, 6.2)].into());
        let first = Frequencies::row(&rows, 0..5);
        let second = Frequencies::window(&rows, 5..10, &pairs, 0..0);
        assert_reads_like(&first, &vec![6.1, 6.1, 5.0, 5.5, 5.0].into());
        assert_reads_like(&second, &vec![5.0, 5.5, 6.4, 6.4, 5.0].into());
        assert_ne!(first, second);
        // Pairs count from the window's start, and a pair window may cover
        // any run of the block.
        let patched = Frequencies::window(&rows, 5..10, &pairs, 0..2);
        assert_reads_like(&patched, &vec![6.8, 5.5, 6.4, 6.4, 6.8].into());
        let on_parking = Frequencies::window(&parking(), 0..5, &pairs, 2..3);
        assert_reads_like(&on_parking, &vec![5.0, 5.5, 6.2, 5.5, 5.0].into());
        let empty = Frequencies::window(&rows, 10..10, &pairs, 3..3);
        assert_reads_like(&empty, &Vec::new().into());
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
    fn writing_or_popping_one_cycle_leaves_the_rest_of_its_block_untouched() {
        let (rows, pairs): (_, Arc<[(usize, f64)]>) = (rows(), vec![(1, 6.9)].into());
        let cycles =
            || [Frequencies::row(&rows, 0..5), Frequencies::window(&rows, 5..10, &pairs, 0..1)];
        let [mut written, mut popped] = cycles();
        written[4] = 4.0;
        assert_eq!(popped.pop(), Some(5.0));
        assert_eq!(written.to_vec(), vec![6.1, 6.1, 5.0, 5.5, 4.0]);
        assert_eq!(popped.to_vec(), vec![5.0, 6.9, 6.4, 6.4]);
        let [first, second] = cycles();
        assert_eq!(first.to_vec(), vec![6.1, 6.1, 5.0, 5.5, 5.0]);
        assert_eq!(second.to_vec(), vec![5.0, 6.9, 6.4, 6.4, 5.0]);
        assert_eq!(&rows[..], &self::rows()[..]);
        assert_eq!(&pairs[..], &[(1, 6.9)]);
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
    #[should_panic(expected = "out of range")]
    fn rejects_a_pair_past_its_value_window() {
        let pairs: Arc<[(usize, f64)]> = vec![(5, 6.0)].into();
        Frequencies::window(&rows(), 5..10, &pairs, 0..1);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn rejects_unsorted_pairs() {
        let pairs: Arc<[(usize, f64)]> = vec![(3, 6.0), (1, 6.0)].into();
        Frequencies::window(&parking(), 0..5, &pairs, 0..2);
    }

    #[test]
    fn the_scratch_reads_every_layout_and_restores_what_the_last_pairs_retuned() {
        let base = parking();
        let other: Arc<[f64]> = vec![4.0; 5].into();
        // Two schedules' blocks: each has two rows and a pair block.
        let (rows_a, rows_b) = (rows(), rows());
        let pairs_a: Arc<[(usize, f64)]> = vec![(0, 6.6), (3, 6.6), (2, 6.7)].into();
        let pairs_b: Arc<[(usize, f64)]> = vec![(1, 6.0)].into();
        let cycles = [
            Frequencies::overlay(Arc::clone(&base), vec![(0, 6.0), (1, 6.0)]),
            Frequencies::overlay(Arc::clone(&base), vec![(3, 6.4)]),
            Frequencies::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            Frequencies::row(&rows_a, 0..5),
            // Two windows at different starts of one block, both with
            // pairs: the second must not reuse the first's base.
            Frequencies::window(&rows_a, 0..5, &pairs_a, 0..2),
            Frequencies::window(&rows_a, 5..10, &pairs_a, 2..3),
            Frequencies::window(&rows_a, 0..5, &pairs_a, 2..3),
            Frequencies::window(&rows_b, 5..10, &pairs_b, 0..1),
            Frequencies::window(&rows_b, 5..10, &pairs_b, 1..1),
            Frequencies::overlay(Arc::clone(&other), vec![(2, 6.1)]),
            Frequencies::window(&base, 0..5, &pairs_a, 0..2),
            Frequencies::overlay(Arc::clone(&base), Vec::new()),
            Frequencies::window(&rows_b, 0..5, &pairs_b, 0..1),
        ];
        let mut scratch = FrequencyScratch::new();
        for cycle in cycles.iter().chain(cycles.iter().rev()) {
            assert_eq!(scratch.dense(cycle), &cycle.to_vec()[..]);
        }
    }
}
