//! Crosstalk-graph construction (paper §IV-C and Algorithm 2).
//!
//! The crosstalk graph `Gx` of a connectivity graph `Gc` has one vertex per
//! *coupling* (edge of `Gc`); two vertices are adjacent when the couplings
//! either share a qubit or are connected by a path of at most `d` edges.
//! Two simultaneous two-qubit gates whose couplings are adjacent in `Gx`
//! would crosstalk if they used nearby interaction frequencies, so a proper
//! coloring of `Gx` (or of its *active subgraph* for one circuit layer)
//! yields a safe frequency assignment.
//!
//! [`CrosstalkGraph::build`] constructs `Gx` the same way for every `d`:
//! one depth-`d` breadth-first ball per coupling, whose incident couplings
//! are its conflicts. On a device of bounded degree that is linear in the
//! number of couplings for a fixed `d` (`d = 0` gives the line graph).
//!
//! For the 2-D mesh the paper reports that 8 colors always suffice for the
//! distance-1 crosstalk graph (Fig. 7); [`mesh_eight_coloring`] constructs
//! that pattern explicitly.

use crate::Graph;

/// The distance-`d` crosstalk graph of a device connectivity graph.
///
/// Node `i` of the crosstalk graph corresponds to edge `i` (a coupling) of
/// the connectivity graph, in the connectivity graph's edge order.
///
/// # Example
///
/// ```
/// use fastsc_graph::{topology, crosstalk::CrosstalkGraph};
///
/// let mesh = topology::grid(3, 3);
/// let x = CrosstalkGraph::build(&mesh, 1);
/// assert_eq!(x.graph().node_count(), mesh.edge_count());
/// // Distance 1 adds conflicts between couplings one hop apart to the
/// // shared-qubit conflicts of distance 0 (the line graph).
/// let line = CrosstalkGraph::build(&mesh, 0);
/// assert!(x.graph().edge_count() > line.graph().edge_count());
/// assert!(x.conflicts(0).windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct CrosstalkGraph {
    graph: Graph,
    couplings: Vec<(usize, usize)>,
    /// Per-qubit `(neighbor, coupling)` lists, in coupling order.
    by_qubit: Vec<Vec<(usize, usize)>>,
    distance: usize,
}

impl CrosstalkGraph {
    /// Builds the distance-`d` crosstalk graph of `connectivity`
    /// (paper Algorithm 2).
    ///
    /// * `d == 0` yields exactly the line graph (couplings conflict only
    ///   when they share a qubit);
    /// * `d == 1` is the paper's default (nearest-neighbor crosstalk);
    /// * `d >= 2` also covers next-neighbor residual coupling (§IV-C-3).
    ///
    /// One pass for every `d`: for each coupling `e1`, a depth-`d`
    /// breadth-first search from both endpoints collects the *ball* of
    /// qubits within distance `d`; the couplings incident to the ball with
    /// a larger index are `e1`'s conflicts, added in ascending order.
    /// Visited qubits are stamped with `e1`, so nothing is cleared between
    /// couplings. The cost is the sum of the ball sizes: linear in coupling
    /// count for a fixed `d` on bounded-degree devices.
    pub fn build(connectivity: &Graph, d: usize) -> Self {
        let couplings: Vec<(usize, usize)> =
            connectivity.edges().map(|(_, endpoints)| endpoints).collect();
        let mut by_qubit = vec![Vec::new(); connectivity.node_count()];
        for (i, &(u, v)) in couplings.iter().enumerate() {
            by_qubit[u].push((v, i));
            by_qubit[v].push((u, i));
        }

        let mut graph = Graph::new(couplings.len());
        let mut stamp = vec![usize::MAX; connectivity.node_count()];
        let mut ball = Vec::new();
        let mut near = Vec::new();
        for (e1, &(u1, v1)) in couplings.iter().enumerate() {
            // `ball` doubles as the BFS queue: `ball[layer..]` is the
            // deepest layer reached so far.
            ball.clear();
            ball.extend([u1, v1]);
            stamp[u1] = e1;
            stamp[v1] = e1;
            let mut layer = 0;
            for _ in 0..d {
                let end = ball.len();
                for i in layer..end {
                    for &(w, _) in &by_qubit[ball[i]] {
                        if stamp[w] != e1 {
                            stamp[w] = e1;
                            ball.push(w);
                        }
                    }
                }
                layer = end;
            }
            near.clear();
            for &q in &ball {
                near.extend(by_qubit[q].iter().map(|&(_, e2)| e2).filter(|&e2| e2 > e1));
            }
            near.sort_unstable();
            near.dedup();
            for &e2 in &near {
                graph.add_edge(e1, e2).expect("ascending e2 > e1 pairs are new");
            }
        }
        CrosstalkGraph { graph, couplings, by_qubit, distance: d }
    }

    /// The underlying graph (nodes are couplings).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The crosstalk distance `d` used at construction.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Number of couplings (crosstalk-graph nodes).
    pub fn coupling_count(&self) -> usize {
        self.couplings.len()
    }

    /// The `(qubit, qubit)` endpoints of coupling `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= coupling_count()`.
    pub fn coupling(&self, i: usize) -> (usize, usize) {
        self.couplings[i]
    }

    /// The coupling index between two qubits, if they are directly coupled.
    ///
    /// O(degree of `q1`): a scan of `q1`'s `(neighbor, coupling)` list,
    /// which on device graphs (a mesh has degree at most 4) is a few
    /// loads and cheaper than hashing the pair. The engine
    /// resolves every two-qubit instruction's coupling through it once
    /// per compile.
    pub fn coupling_between(&self, q1: usize, q2: usize) -> Option<usize> {
        self.by_qubit.get(q1)?.iter().find(|&&(w, _)| w == q2).map(|&(_, i)| i)
    }

    /// Crosstalk-graph neighbors of coupling `i`: all couplings that must
    /// not share interaction frequencies with it, in strictly ascending
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= coupling_count()`.
    pub fn conflicts(&self, i: usize) -> &[usize] {
        self.graph.neighbors(i)
    }

    /// The subgraph of the crosstalk graph induced by the given *active*
    /// couplings (those executing a two-qubit gate in the current layer),
    /// plus the mapping from subgraph node to coupling index.
    ///
    /// # Panics
    ///
    /// Panics if any coupling index is out of range.
    pub fn active_subgraph(&self, active: &[usize]) -> (Graph, Vec<usize>) {
        self.graph.induced_subgraph(active)
    }
}

/// The explicit 8-coloring of the distance-1 crosstalk graph of a
/// `rows x cols` mesh (paper Fig. 7 right).
///
/// Returns one color in `0..8` per mesh edge, indexed by the edge order of
/// [`topology::grid`](crate::topology::grid). Horizontal edges use colors
/// `0..4` with the pattern `(c + 2r) mod 4`; vertical edges use colors
/// `4..8` with the pattern `4 + (r + 2c) mod 4`. Any two edges within
/// distance 1 of each other receive distinct colors, for any mesh size —
/// this witnesses the paper's claim that frequency crowding on a mesh does
/// not grow with device size.
pub fn mesh_eight_coloring(rows: usize, cols: usize) -> Vec<usize> {
    let grid = crate::topology::grid(rows, cols);
    let mut colors = Vec::with_capacity(grid.edge_count());
    for (_, (u, v)) in grid.edges() {
        let (r, c) = crate::topology::grid_coord(u, cols);
        let color = if v == u + 1 {
            (c + 2 * r) % 4 // horizontal edge (r, c) - (r, c + 1)
        } else {
            4 + (r + 2 * c) % 4 // vertical edge (r, c) - (r + 1, c)
        };
        colors.push(color);
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coloring, topology};

    #[test]
    fn distance_zero_is_line_graph() {
        // Couplings conflict at d = 0 exactly when they share a qubit.
        let g = topology::grid(3, 3);
        let x = CrosstalkGraph::build(&g, 0);
        assert_eq!(x.graph().node_count(), g.edge_count());
        for (e1, (u1, v1)) in g.edges() {
            for (e2, (u2, v2)) in g.edges().skip(e1 + 1) {
                let shared = u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2;
                assert_eq!(x.graph().has_edge(e1, e2), shared, "couplings {e1}, {e2}");
            }
        }
    }

    #[test]
    fn distance_one_supergraph_of_line_graph() {
        let g = topology::grid(4, 4);
        let x0 = CrosstalkGraph::build(&g, 0);
        let x1 = CrosstalkGraph::build(&g, 1);
        for (_, (a, b)) in x0.graph().edges() {
            assert!(x1.graph().has_edge(a, b));
        }
        assert!(x1.graph().edge_count() > x0.graph().edge_count());
    }

    #[test]
    fn distance_grows_edges_monotonically() {
        let g = topology::grid(4, 4);
        let e: Vec<usize> =
            (0..4).map(|d| CrosstalkGraph::build(&g, d).graph().edge_count()).collect();
        assert!(e[0] < e[1] && e[1] < e[2] && e[2] <= e[3]);
    }

    #[test]
    fn path_crosstalk_matches_hand_computation() {
        // Path 0-1-2-3: couplings e0=(0,1), e1=(1,2), e2=(2,3).
        // d=1: e0,e1 share qubit 1; e1,e2 share qubit 2; e0,e2 are one edge
        // apart (qubits 1 and 2 adjacent) so they conflict too.
        let g = topology::linear(4);
        let x = CrosstalkGraph::build(&g, 1);
        assert_eq!(x.graph().edge_count(), 3);
        assert!(x.graph().has_edge(0, 2));
        // d=0: only the shared-vertex conflicts.
        let x0 = CrosstalkGraph::build(&g, 0);
        assert_eq!(x0.graph().edge_count(), 2);
        assert!(!x0.graph().has_edge(0, 2));
    }

    #[test]
    fn long_path_distance_two() {
        // Path of 6 nodes; e0=(0,1) and e3=(3,4) are 2 apart (1->2->3).
        let g = topology::linear(6);
        let x1 = CrosstalkGraph::build(&g, 1);
        assert!(!x1.graph().has_edge(0, 3));
        let x2 = CrosstalkGraph::build(&g, 2);
        assert!(x2.graph().has_edge(0, 3));
        assert!(!x2.graph().has_edge(0, 4));
    }

    #[test]
    fn coupling_lookup_roundtrip() {
        let g = topology::grid(3, 3);
        let x = CrosstalkGraph::build(&g, 1);
        for i in 0..x.coupling_count() {
            let (a, b) = x.coupling(i);
            assert_eq!(x.coupling_between(a, b), Some(i));
            assert_eq!(x.coupling_between(b, a), Some(i));
        }
        assert_eq!(x.coupling_between(0, 8), None);
        assert_eq!(x.coupling_between(4, 4), None);
        // Out-of-range qubits are simply uncoupled.
        for q in [9, 10, usize::MAX] {
            assert_eq!(x.coupling_between(q, 0), None);
            assert_eq!(x.coupling_between(0, q), None);
        }
    }

    #[test]
    fn active_subgraph_restricts_conflicts() {
        let g = topology::grid(3, 3);
        let x = CrosstalkGraph::build(&g, 1);
        // Two far-apart couplings: opposite corners of the mesh.
        let c1 = x.coupling_between(0, 1).expect("corner coupling");
        let c2 = x.coupling_between(7, 8).expect("corner coupling");
        let (sub, map) = x.active_subgraph(&[c1, c2]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![c1, c2]);
    }

    #[test]
    fn mesh_eight_coloring_uses_at_most_eight() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (5, 5), (6, 7)] {
            let colors = mesh_eight_coloring(r, c);
            assert!(coloring::color_count(&colors) <= 8, "{r}x{c} mesh");
        }
    }

    #[test]
    fn mesh_eight_coloring_is_proper_on_crosstalk_graph() {
        for (r, c) in [(2, 2), (3, 3), (4, 5), (5, 5), (8, 8)] {
            let g = topology::grid(r, c);
            let x = CrosstalkGraph::build(&g, 1);
            let colors = mesh_eight_coloring(r, c);
            assert!(
                coloring::is_proper(x.graph(), &colors),
                "8-coloring must be proper on the {r}x{c} crosstalk graph"
            );
        }
    }

    #[test]
    fn large_mesh_needs_exactly_eight() {
        // The paper: 8 is the minimum for (large enough) N x N meshes.
        let colors = mesh_eight_coloring(5, 5);
        assert_eq!(coloring::color_count(&colors), 8);
    }

    #[test]
    fn crosstalk_graph_is_dense_compared_to_connectivity() {
        // Fig. 14 bottom: the mesh crosstalk graph is "quite dense".
        let g = topology::grid(4, 4);
        let x = CrosstalkGraph::build(&g, 1);
        let avg_deg = 2.0 * x.graph().edge_count() as f64 / x.graph().node_count() as f64;
        assert!(avg_deg > 6.0, "average crosstalk degree {avg_deg} too low");
    }

    #[test]
    fn conflicts_are_symmetric() {
        let g = topology::grid(3, 4);
        let x = CrosstalkGraph::build(&g, 1);
        for i in 0..x.coupling_count() {
            for &j in x.conflicts(i) {
                assert!(x.conflicts(j).contains(&i));
            }
        }
    }
}
