//! Dependency analysis, ASAP circuit slicing, and gate criticality.
//!
//! The frequency-aware compiler slices the decomposed program into layers
//! (time steps) and, inside its queueing scheduler, prioritizes gates by
//! *criticality* — their position along the program critical path (paper
//! §V-B6). Both are standard longest-path computations over the
//! per-qubit dependency DAG.

use crate::circuit::Circuit;

/// The dependency DAG of a circuit: instruction `j` depends on `i` when
/// `i < j`, they share a qubit, and no instruction between them touches
/// that qubit.
///
/// An instruction has at most two operands, so it has at most two direct
/// predecessors (the previous instruction on each operand qubit) and at
/// most two direct successors. The DAG exploits that bound with a
/// struct-of-arrays layout — fixed two-slot rows plus a length byte per
/// instruction — instead of one heap `Vec` per instruction per direction,
/// which dominated the DAG-construction profile.
///
/// [`rebuild`](Self::rebuild) refills a DAG in place, so a caller that
/// keeps one (the scheduling engine keeps one per thread) reuses its
/// buffers instead of allocating them per circuit.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    preds: Vec<[usize; 2]>,
    pred_len: Vec<u8>,
    succs: Vec<[usize; 2]>,
    succ_len: Vec<u8>,
    /// Build scratch: the last instruction seen on each qubit. Not part
    /// of the graph (equality ignores it).
    last_on_qubit: Vec<usize>,
}

impl PartialEq for Dag {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len())
                .all(|i| self.preds(i) == other.preds(i) && self.succs(i) == other.succs(i))
    }
}

impl Eq for Dag {}

impl Dag {
    /// Builds the dependency DAG of `circuit`.
    pub fn build(circuit: &Circuit) -> Self {
        let mut dag = Dag::default();
        dag.rebuild(circuit);
        dag
    }

    /// Replaces this DAG with the dependency DAG of `circuit`, reusing
    /// its buffers: once they have grown to the largest circuit seen,
    /// a rebuild allocates nothing.
    pub fn rebuild(&mut self, circuit: &Circuit) {
        const NONE: usize = usize::MAX;
        let n = circuit.len();
        let Dag { preds, pred_len, succs, succ_len, last_on_qubit } = self;
        preds.clear();
        preds.resize(n, [0; 2]);
        pred_len.clear();
        pred_len.resize(n, 0);
        succs.clear();
        succs.resize(n, [0; 2]);
        succ_len.clear();
        succ_len.resize(n, 0);
        last_on_qubit.clear();
        last_on_qubit.resize(circuit.n_qubits(), NONE);
        for (i, inst) in circuit.instructions().iter().enumerate() {
            for q in inst.operands {
                let p = last_on_qubit[q];
                if p != NONE {
                    let pl = pred_len[i] as usize;
                    // Both operands may depend on the same instruction
                    // (e.g. back-to-back CZs on one pair): record it once.
                    if !(pl == 1 && preds[i][0] == p) {
                        preds[i][pl] = p;
                        pred_len[i] += 1;
                        let sl = succ_len[p] as usize;
                        succs[p][sl] = i;
                        succ_len[p] += 1;
                    }
                }
                last_on_qubit[q] = i;
            }
        }
    }

    /// Direct predecessors of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i][..self.pred_len[i] as usize]
    }

    /// Direct successors of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i][..self.succ_len[i] as usize]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the DAG has no instructions.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// Slices `circuit` into ASAP layers: each instruction is placed in the
/// earliest layer after all of its dependencies. Returns instruction
/// indices per layer.
///
/// This reproduces the maximal-parallelism list schedule a conventional
/// (crosstalk-unaware) compiler such as Qiskit would produce — the starting
/// point of both Baseline N and ColorDynamic.
pub fn asap_layers(circuit: &Circuit) -> Vec<Vec<usize>> {
    let dag = Dag::build(circuit);
    let mut layer_of = vec![0usize; circuit.len()];
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for i in 0..circuit.len() {
        let layer = dag.preds(i).iter().map(|&p| layer_of[p] + 1).max().unwrap_or(0);
        layer_of[i] = layer;
        if layers.len() <= layer {
            layers.resize_with(layer + 1, Vec::new);
        }
        layers[layer].push(i);
    }
    layers
}

/// Criticality of each instruction: the number of instructions (inclusive)
/// on the longest dependency chain starting at it. Gates with higher
/// criticality lie on the program critical path and are scheduled first by
/// the noise-aware queueing scheduler.
pub fn criticality(circuit: &Circuit) -> Vec<usize> {
    let mut crit = vec![1usize; circuit.len()];
    criticality_into(&Dag::build(circuit), &mut crit);
    crit
}

/// [`criticality`] over an already-built DAG, written into caller-owned
/// scratch — lets the scheduling engine share one `Dag::build` between
/// dependency tracking and criticality instead of building the DAG twice
/// per compile.
///
/// # Panics
///
/// Panics if `crit.len() != dag.len()`.
pub fn criticality_into(dag: &Dag, crit: &mut [usize]) {
    assert_eq!(crit.len(), dag.len(), "criticality scratch must cover every instruction");
    crit.fill(1);
    // Instructions are already in topological order (program order).
    for i in (0..dag.len()).rev() {
        for &s in dag.succs(i) {
            crit[i] = crit[i].max(1 + crit[s]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn sample() -> Circuit {
        // q0: H --.--------
        //         |
        // q1: ----X---.----
        //             |
        // q2: --------X--H-
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Cnot, 1, 2).expect("valid");
        c.push1(Gate::H, 2).expect("valid");
        c
    }

    #[test]
    fn dag_edges_follow_qubit_order() {
        let dag = Dag::build(&sample());
        assert_eq!(dag.preds(0), &[] as &[usize]);
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.preds(2), &[1]);
        assert_eq!(dag.preds(3), &[2]);
        assert_eq!(dag.succs(0), &[1]);
        assert_eq!(dag.len(), 4);
    }

    #[test]
    fn dag_deduplicates_double_dependency() {
        // Two CZs on the same pair: the second depends on the first once.
        let mut c = Circuit::new(2);
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        let dag = Dag::build(&c);
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn asap_layers_chain() {
        let layers = asap_layers(&sample());
        assert_eq!(layers, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn asap_layers_parallel_gates_share_layer() {
        let mut c = Circuit::new(4);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::H, 1).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push2(Gate::Cz, 2, 3).expect("valid");
        let layers = asap_layers(&c);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0, 1, 3]); // CZ(2,3) has no deps
        assert_eq!(layers[1], vec![2]);
    }

    #[test]
    fn asap_layer_count_equals_depth() {
        let c = sample();
        assert_eq!(asap_layers(&c).len(), c.depth());
    }

    #[test]
    fn criticality_decreases_along_chain() {
        let crit = criticality(&sample());
        assert_eq!(crit, vec![4, 3, 2, 1]);
    }

    #[test]
    fn criticality_of_independent_gate_is_one() {
        let mut c = Circuit::new(3);
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push1(Gate::H, 2).expect("valid");
        let crit = criticality(&c);
        assert_eq!(crit[1], 1);
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        let mut dag = Dag::build(&sample());
        let mut c = Circuit::new(2);
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        dag.rebuild(&c);
        assert_eq!(dag, Dag::build(&c));
        assert_eq!(dag.len(), 2);
        dag.rebuild(&sample());
        assert_eq!(dag, Dag::build(&sample()));
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(2);
        assert!(asap_layers(&c).is_empty());
        assert!(criticality(&c).is_empty());
        assert!(Dag::build(&c).is_empty());
    }
}
