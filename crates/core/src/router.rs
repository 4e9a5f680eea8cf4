//! Greedy shortest-path routing: mapping program qubits onto device
//! qubits and inserting `SWAP` chains for gates on uncoupled pairs.
//!
//! Program qubits start on the identity mapping (program qubit `i` on
//! device qubit `i`; benchmark generators index row-major, matching the
//! mesh builders). For every two-qubit gate whose operands are not
//! directly coupled, the first operand is walked along a shortest path
//! until adjacent to the second, one `SWAP` per hop, permanently updating
//! the mapping (the paper's benchmarks are mesh-sized, so BV's
//! central-ancilla `CNOT`s and QAOA's random graphs are the main SWAP
//! consumers, as in §III "connectivity reduction").

use crate::error::CompileError;
use fastsc_device::Device;
use fastsc_graph::PathScratch;
use fastsc_ir::{Circuit, Gate, Operands};

/// The routing result: a device-wide circuit whose two-qubit gates all sit
/// on coupled pairs, plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Routed {
    /// The routed circuit over `device.n_qubits()` qubits.
    pub circuit: Circuit,
    /// Number of `SWAP` gates inserted.
    pub swaps_inserted: usize,
    /// Final program-to-device qubit mapping.
    pub final_mapping: Vec<usize>,
}

/// Routes `program` onto `device`.
///
/// A wrapper over the compiler front end's `route_into`, with fresh
/// buffers. The output is reserved at the program's length and grows
/// past it only when SWAPs are inserted.
///
/// # Errors
///
/// Returns [`CompileError::ProgramTooWide`] when the program needs more
/// qubits than the device has, and [`CompileError::Unroutable`] when a
/// gate spans disconnected device components.
pub fn route(program: &Circuit, device: &Device) -> Result<Routed, CompileError> {
    let mut scratch = Scratch::default();
    let mut circuit = Circuit::with_capacity(device.n_qubits(), program.len());
    let swaps_inserted = route_into(program, device, &mut scratch, &mut circuit)?;
    Ok(Routed { circuit, swaps_inserted, final_mapping: scratch.phys_of })
}

/// The router's working buffers, kept across calls by a caller that
/// routes many programs (the compiler's per-thread front end).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `phys_of[logical]` = physical; after a run, the final mapping.
    phys_of: Vec<usize>,
    /// `log_at[physical]` = logical, or `usize::MAX`.
    log_at: Vec<usize>,
    paths: PathScratch,
    path: Vec<usize>,
}

/// Routes `program` onto `device` into `out`, which is reset to the
/// device's width first, and returns the number of `SWAP`s inserted.
/// Reuses `scratch`'s and `out`'s buffers, so a warm caller allocates
/// nothing. Every routed instruction is checked as it is pushed: this is
/// where the compiled stream's instructions are created.
///
/// # Errors
///
/// As [`route`]. `out` then holds a prefix of the routed circuit.
pub(crate) fn route_into(
    program: &Circuit,
    device: &Device,
    scratch: &mut Scratch,
    out: &mut Circuit,
) -> Result<usize, CompileError> {
    let n_prog = program.n_qubits();
    let n_dev = device.n_qubits();
    if n_prog > n_dev {
        return Err(CompileError::ProgramTooWide { program: n_prog, device: n_dev });
    }

    let Scratch { phys_of, log_at, paths, path } = scratch;
    phys_of.clear();
    phys_of.extend(0..n_prog);
    log_at.clear();
    log_at.extend((0..n_dev).map(|p| if p < n_prog { p } else { usize::MAX }));

    // Adjacency is a scan of `pa`'s (mesh-sized) neighbor list rather
    // than an edge-map hash; SWAP-chain searches share one BFS scratch
    // and one path buffer.
    let graph = device.connectivity();
    out.reset(n_dev);
    let mut swaps = 0usize;

    for inst in program.instructions() {
        match inst.operands {
            Operands::One(q) => {
                out.push1(inst.gate, phys_of[q]).expect("mapping stays in range");
            }
            Operands::Two(a, b) => {
                let mut pa = phys_of[a];
                let pb = phys_of[b];
                if !graph.neighbors(pa).contains(&pb) {
                    if !graph.shortest_path_into(pa, pb, paths, path) {
                        return Err(CompileError::Unroutable { a: pa, b: pb });
                    }
                    // Walk `a` up to the neighbor of `pb`.
                    for &step in &path[1..path.len() - 1] {
                        out.push2(Gate::Swap, pa, step).expect("path edges are coupled");
                        swaps += 1;
                        // Swap the logical occupants of pa and step.
                        let la = log_at[pa];
                        let ls = log_at[step];
                        log_at[pa] = ls;
                        log_at[step] = la;
                        if ls != usize::MAX {
                            phys_of[ls] = pa;
                        }
                        phys_of[a] = step;
                        pa = step;
                    }
                }
                out.push2(inst.gate, pa, phys_of[b]).expect("now adjacent");
            }
        }
    }

    Ok(swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_ir::Gate;

    fn line_device(n: usize) -> Device {
        Device::linear(n, 0)
    }

    #[test]
    fn adjacent_gates_pass_through() {
        let d = line_device(3);
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        let r = route(&c, &d).expect("routable");
        assert_eq!(r.swaps_inserted, 0);
        assert_eq!(r.circuit.len(), 2);
        assert_eq!(r.final_mapping, vec![0, 1, 2]);
    }

    #[test]
    fn distant_gate_inserts_swap_chain() {
        let d = line_device(4);
        let mut c = Circuit::new(4);
        c.push2(Gate::Cnot, 0, 3).expect("valid");
        let r = route(&c, &d).expect("routable");
        // 0 -> 1 -> 2 (two swaps), then CNOT(2, 3).
        assert_eq!(r.swaps_inserted, 2);
        let last = r.circuit.instructions().last().expect("non-empty");
        assert_eq!(last.gate, Gate::Cnot);
        assert_eq!(last.qubit_pair(), Some((2, 3)));
        // Logical 0 now lives on physical 2.
        assert_eq!(r.final_mapping[0], 2);
    }

    #[test]
    fn mapping_updates_carry_forward() {
        let d = line_device(4);
        let mut c = Circuit::new(4);
        c.push2(Gate::Cnot, 0, 2).expect("valid"); // moves 0 to 1
        c.push1(Gate::H, 0).expect("valid"); // must land on physical 1
        let r = route(&c, &d).expect("routable");
        let h = r.circuit.instructions().last().expect("non-empty");
        assert_eq!(h.gate, Gate::H);
        assert_eq!(h.qubits(), vec![1]);
    }

    #[test]
    fn displaced_logical_qubit_tracked() {
        let d = line_device(4);
        let mut c = Circuit::new(4);
        c.push2(Gate::Cnot, 0, 2).expect("valid"); // SWAP(0,1): logical 1 moves to 0
        c.push1(Gate::X, 1).expect("valid");
        let r = route(&c, &d).expect("routable");
        let x = r.circuit.instructions().last().expect("non-empty");
        assert_eq!(x.qubits(), vec![0], "logical 1 displaced to physical 0");
    }

    #[test]
    fn all_output_two_qubit_gates_are_coupled() {
        let d = Device::grid(3, 3, 1);
        let program = fastsc_workloads::qaoa(9, 5);
        let r = route(&program, &d).expect("routable");
        for inst in r.circuit.instructions() {
            if let Some((a, b)) = inst.qubit_pair() {
                assert!(d.are_coupled(a, b), "gate on uncoupled pair ({a},{b})");
            }
        }
        assert_eq!(r.circuit.len(), program.len() + r.swaps_inserted, "only SWAPs are added");
    }

    #[test]
    fn too_wide_program_rejected() {
        let d = line_device(2);
        let c = Circuit::new(3);
        assert_eq!(
            route(&c, &d).map(|_| ()),
            Err(CompileError::ProgramTooWide { program: 3, device: 2 })
        );
    }

    #[test]
    fn disconnected_device_unroutable() {
        use fastsc_device::DeviceBuilder;
        use fastsc_graph::Graph;
        let g = Graph::with_edges(4, [(0, 1), (2, 3)]).expect("valid");
        let d = DeviceBuilder::new(g).build();
        let mut c = Circuit::new(4);
        c.push2(Gate::Cz, 0, 3).expect("valid");
        assert!(matches!(route(&c, &d), Err(CompileError::Unroutable { .. })));
    }

    #[test]
    fn bv_on_grid_routes_everything() {
        let d = Device::grid(3, 3, 2);
        let program = fastsc_workloads::bv(9, 3);
        let r = route(&program, &d).expect("routable");
        assert!(r.swaps_inserted > 0, "central-ancilla CNOTs need SWAPs");
        for inst in r.circuit.instructions() {
            if let Some((a, b)) = inst.qubit_pair() {
                assert!(d.are_coupled(a, b));
            }
        }
    }
}
