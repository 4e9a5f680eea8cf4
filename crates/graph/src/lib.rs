//! Graph substrate for FastSC.
//!
//! The frequency-aware compilation algorithm of Ding et al. (MICRO 2020) is
//! built on two graph-theoretic objects:
//!
//! * the **connectivity graph** `Gc` of a quantum device, where every vertex
//!   is a qubit and every edge is a physical coupling (a capacitor between
//!   two frequency-tunable transmons), and
//! * the **crosstalk graph** `Gx`, the line graph of `Gc` augmented with an
//!   edge between any two couplings that lie within distance *d* of each
//!   other (paper Algorithm 2). A proper vertex coloring of `Gx` yields a
//!   set of mutually non-colliding interaction frequencies.
//!
//! The paper's reference implementation used Python NetworkX; this crate is
//! a from-scratch replacement providing exactly the operations the compiler
//! needs: an undirected simple [`Graph`], standard topology builders
//! ([`topology`]), distance-*d* crosstalk-graph construction
//! ([`crosstalk`]; *d* = 0 is the line graph), and greedy / Welsh–Powell /
//! color-bounded vertex coloring ([`coloring`]).
//!
//! # Example
//!
//! ```
//! use fastsc_graph::{topology, crosstalk::CrosstalkGraph, coloring};
//!
//! // 5x5 mesh from the paper's Fig. 7.
//! let mesh = topology::grid(5, 5);
//! assert_eq!(mesh.node_count(), 25);
//! assert_eq!(mesh.edge_count(), 40);
//!
//! // Idle frequencies: the mesh is bipartite, so 2 parking values suffice.
//! let idle = coloring::two_coloring(&mesh).expect("meshes are bipartite");
//! assert!(coloring::is_proper(&mesh, &idle));
//!
//! // Interaction frequencies: color the distance-1 crosstalk graph.
//! let xtalk = CrosstalkGraph::build(&mesh, 1);
//! let colors = coloring::welsh_powell(xtalk.graph());
//! assert!(coloring::is_proper(xtalk.graph(), &colors));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod crosstalk;
mod error;
mod graph;
pub mod hash;
pub mod regions;
pub mod topology;

pub use error::GraphError;
pub use graph::{Graph, PathScratch};
