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
/// // In a 3x3 mesh every pair of couplings is within distance 1, except
/// // opposite border edges.
/// assert!(x.graph().edge_count() > mesh.line_graph().edge_count());
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
    pub fn build(connectivity: &Graph, d: usize) -> Self {
        let mut graph = connectivity.line_graph();
        let couplings: Vec<(usize, usize)> =
            connectivity.edges().map(|(_, endpoints)| endpoints).collect();

        if d == 1 {
            // Distance 1 (the paper's default): two couplings are near
            // exactly when some pair of their endpoints is equal or
            // directly coupled — no BFS ball matrix needed, which keeps
            // small region sub-devices of a partitioned compile from
            // paying an `O(V·(V+E))` setup per region. The pairwise
            // sweep over couplings remains (the device-wide superlinear
            // term partition-and-stitch exists to avoid).
            for e1 in 0..couplings.len() {
                let (u1, v1) = couplings[e1];
                let (n_u1, n_v1) = (connectivity.neighbors(u1), connectivity.neighbors(v1));
                for (offset, &(u2, v2)) in couplings[e1 + 1..].iter().enumerate() {
                    let e2 = e1 + 1 + offset;
                    let near = u1 == u2
                        || u1 == v2
                        || v1 == u2
                        || v1 == v2
                        || n_u1.iter().any(|&w| w == u2 || w == v2)
                        || n_v1.iter().any(|&w| w == u2 || w == v2);
                    if near {
                        // The line graph may already contain the edge.
                        let _ = graph.add_edge(e1, e2);
                    }
                }
            }
        } else if d > 1 {
            // Balls of radius d around every qubit, via depth-capped BFS.
            let balls: Vec<Vec<u32>> = (0..connectivity.node_count())
                .map(|q| {
                    connectivity
                        .bfs_distances(q)
                        .into_iter()
                        .map(|opt| opt.unwrap_or(u32::MAX))
                        .collect()
                })
                .collect();
            let d = d as u32;
            for e1 in 0..couplings.len() {
                let (u1, v1) = couplings[e1];
                for (offset, &(u2, v2)) in couplings[e1 + 1..].iter().enumerate() {
                    let e2 = e1 + 1 + offset;
                    let near = balls[u1][u2] <= d
                        || balls[u1][v2] <= d
                        || balls[v1][u2] <= d
                        || balls[v1][v2] <= d;
                    if near {
                        // The line graph may already contain the edge.
                        let _ = graph.add_edge(e1, e2);
                    }
                }
            }
        }
        let mut by_qubit = vec![Vec::new(); connectivity.node_count()];
        for (i, &(u, v)) in couplings.iter().enumerate() {
            by_qubit[u].push((v, i));
            by_qubit[v].push((u, i));
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
    /// not share interaction frequencies with it.
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
        let g = topology::grid(3, 3);
        let x = CrosstalkGraph::build(&g, 0);
        let lg = g.line_graph();
        assert_eq!(x.graph().node_count(), lg.node_count());
        assert_eq!(x.graph().edge_count(), lg.edge_count());
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
