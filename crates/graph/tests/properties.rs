//! Property-based tests for the graph substrate.

use fastsc_graph::crosstalk::CrosstalkGraph;
use fastsc_graph::{coloring, topology, Graph};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a random simple graph as (n, edge set).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        let all_pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
        proptest::sample::subsequence(all_pairs.clone(), 0..=all_pairs.len())
            .prop_map(move |edges| Graph::with_edges(n, edges).expect("subsequence is unique"))
    })
}

/// Strategy: a small device from one of the families the compiler sees —
/// mesh, heavy-hex, 2-D express cube, or Erdős–Rényi (isolated nodes
/// and disconnected components included).
fn arb_device() -> impl Strategy<Value = Graph> {
    (0usize..4, 1usize..7, 1usize..7, any::<u64>()).prop_map(
        |(family, a, b, seed)| match family {
            0 => topology::grid(a, b),
            1 => topology::heavy_hex(a.min(3), b.min(3)),
            2 => topology::express_2d(a, b, 2 + (seed % 3) as usize),
            _ => {
                let p = (seed % 7) as f64 / 10.0;
                topology::erdos_renyi(a * b, p, &mut rand::rngs::StdRng::seed_from_u64(seed))
            }
        },
    )
}

/// The distance-`d` crosstalk graph straight from its definition: couplings
/// `e1 < e2` conflict when the minimum BFS distance between an endpoint of
/// `e1` and an endpoint of `e2` is at most `d`. Edges are added in
/// ascending `(e1, e2)` order, so every neighbor list is ascending.
fn reference_crosstalk(g: &Graph, d: u32) -> Graph {
    let dist: Vec<Vec<Option<u32>>> = g.nodes().map(|q| g.bfs_distances(q)).collect();
    let couplings: Vec<(usize, usize)> = g.edges().map(|(_, endpoints)| endpoints).collect();
    let mut x = Graph::new(couplings.len());
    for (e1, &(u1, v1)) in couplings.iter().enumerate() {
        for (e2, &(u2, v2)) in couplings.iter().enumerate().skip(e1 + 1) {
            let min_d = [dist[u1][u2], dist[u1][v2], dist[v1][u2], dist[v1][v2]]
                .into_iter()
                .flatten()
                .min();
            if matches!(min_d, Some(m) if m <= d) {
                x.add_edge(e1, e2).expect("each pair is visited once");
            }
        }
    }
    x
}

#[test]
fn line_graph_of_path_is_path() {
    // P3 has 2 edges sharing node 1 => line graph is a single edge.
    let path3 = topology::linear(3);
    let lg = CrosstalkGraph::build(&path3, 0);
    assert_eq!(lg.graph().node_count(), 2);
    assert_eq!(lg.graph().edge_count(), 1);
    assert!(lg.graph().has_edge(0, 1));
}

#[test]
fn line_graph_of_star_is_complete() {
    let star = Graph::with_edges(4, [(0, 1), (0, 2), (0, 3)]).expect("star");
    let lg = CrosstalkGraph::build(&star, 0);
    assert_eq!(lg.graph().node_count(), 3);
    assert_eq!(lg.graph().edge_count(), 3); // K3
}

#[test]
fn line_graph_degree_identity() {
    // deg_L(e=(u,v)) = deg(u) + deg(v) - 2 for simple graphs.
    let g =
        Graph::with_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (2, 5)]).expect("valid");
    let lg = CrosstalkGraph::build(&g, 0);
    for (e, (u, v)) in g.edges() {
        assert_eq!(lg.graph().degree(e), g.degree(u) + g.degree(v) - 2, "edge {e}");
    }
}

proptest! {
    #[test]
    fn welsh_powell_always_proper(g in arb_graph(14)) {
        let c = coloring::welsh_powell(&g);
        prop_assert!(coloring::is_proper(&g, &c));
        prop_assert!(coloring::color_count(&c) <= g.max_degree() + 1);
    }

    #[test]
    fn natural_greedy_always_proper(g in arb_graph(14)) {
        let c = coloring::natural_greedy(&g);
        prop_assert!(coloring::is_proper(&g, &c));
    }

    #[test]
    fn bounded_coloring_partial_propriety(g in arb_graph(12), budget in 1usize..6) {
        let b = coloring::bounded_coloring(&g, budget);
        // Colored nodes never exceed the budget.
        for c in b.colors.iter().flatten() {
            prop_assert!(*c < budget);
        }
        // Partial coloring is proper.
        for (_, (u, v)) in g.edges() {
            if let (Some(cu), Some(cv)) = (b.colors[u], b.colors[v]) {
                prop_assert_ne!(cu, cv);
            }
        }
        // Deferred + colored = all nodes.
        let colored = b.colors.iter().filter(|c| c.is_some()).count();
        prop_assert_eq!(colored + b.deferred.len(), g.node_count());
    }

    #[test]
    fn line_graph_node_degree_identity(g in arb_graph(12)) {
        let lg = CrosstalkGraph::build(&g, 0);
        prop_assert_eq!(lg.graph().node_count(), g.edge_count());
        for (e, (u, v)) in g.edges() {
            prop_assert_eq!(lg.graph().degree(e), g.degree(u) + g.degree(v) - 2);
        }
    }

    #[test]
    fn crosstalk_build_matches_its_definition(g in arb_device(), d in 0usize..=3) {
        let x = CrosstalkGraph::build(&g, d);
        let reference = reference_crosstalk(&g, d as u32);
        let built: Vec<_> = x.graph().edges().collect();
        let expected: Vec<_> = reference.edges().collect();
        prop_assert_eq!(built, expected);
        for i in reference.nodes() {
            prop_assert!(x.conflicts(i).windows(2).all(|w| w[0] < w[1]),
                "conflicts({}) = {:?} is not strictly ascending", i, x.conflicts(i));
            prop_assert_eq!(x.conflicts(i), reference.neighbors(i));
        }
        prop_assert_eq!(coloring::welsh_powell(x.graph()), coloring::welsh_powell(&reference));
    }

    #[test]
    fn crosstalk_monotone_in_distance(g in arb_graph(10)) {
        let e0 = CrosstalkGraph::build(&g, 0).graph().edge_count();
        let e1 = CrosstalkGraph::build(&g, 1).graph().edge_count();
        let e2 = CrosstalkGraph::build(&g, 2).graph().edge_count();
        prop_assert!(e0 <= e1 && e1 <= e2);
    }

    #[test]
    fn bfs_distance_symmetry(g in arb_graph(12), seed in any::<u64>()) {
        let n = g.node_count();
        let u = (seed as usize) % n;
        let v = (seed as usize / 7) % n;
        prop_assert_eq!(g.distance(u, v), g.distance(v, u));
    }

    #[test]
    fn shortest_path_is_valid_walk(g in arb_graph(12)) {
        for u in g.nodes() {
            for v in g.nodes() {
                if let Some(p) = g.shortest_path(u, v) {
                    prop_assert_eq!(*p.first().expect("non-empty"), u);
                    prop_assert_eq!(*p.last().expect("non-empty"), v);
                    for w in p.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                    prop_assert_eq!(Some((p.len() - 1) as u32), g.distance(u, v));
                }
            }
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph(14)) {
        let comps = g.connected_components();
        let mut seen = vec![false; g.node_count()];
        for comp in &comps {
            for &u in comp {
                prop_assert!(!seen[u], "node {} in two components", u);
                seen[u] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn two_coloring_agrees_with_odd_cycles(g in arb_graph(10)) {
        // If a 2-coloring exists it must be proper; if not, verify a
        // certificate exists by checking greedy uses >= 3 colors on some
        // component... (weak check: is_proper of the result when Some).
        if let Some(c) = coloring::two_coloring(&g) {
            prop_assert!(coloring::is_proper(&g, &c));
            prop_assert!(coloring::color_count(&c) <= 2);
        }
    }

    #[test]
    fn mesh_eight_coloring_proper_all_sizes(rows in 2usize..7, cols in 2usize..7) {
        let colors = fastsc_graph::crosstalk::mesh_eight_coloring(rows, cols);
        let x = CrosstalkGraph::build(&topology::grid(rows, cols), 1);
        prop_assert!(coloring::is_proper(x.graph(), &colors));
        prop_assert!(coloring::color_count(&colors) <= 8);
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph(12), mask in any::<u64>()) {
        let nodes: Vec<usize> = g.nodes().filter(|&u| mask >> (u % 64) & 1 == 1).collect();
        let (sub, map) = g.induced_subgraph(&nodes);
        prop_assert_eq!(sub.node_count(), map.len());
        for (i, &oi) in map.iter().enumerate() {
            for (j, &oj) in map.iter().enumerate() {
                if i < j {
                    prop_assert_eq!(sub.has_edge(i, j), g.has_edge(oi, oj));
                }
            }
        }
    }
}
