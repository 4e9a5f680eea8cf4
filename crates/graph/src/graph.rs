use std::collections::VecDeque;
use std::fmt;

use crate::GraphError;

/// An undirected simple graph with `usize` node indices and indexed edges.
///
/// Nodes are identified by `0..node_count()`; edges by `0..edge_count()` in
/// insertion order. Edge endpoints are stored in normalized `(min, max)`
/// order. The structure is append-only (nodes and edges can be added but not
/// removed), which matches how device connectivity and crosstalk graphs are
/// used by the compiler and keeps all indices stable.
///
/// # Example
///
/// ```
/// use fastsc_graph::Graph;
///
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(0, 1)?;
/// let e1 = g.add_edge(1, 2)?;
/// assert_eq!(g.endpoints(e0), (0, 1));
/// assert_eq!(g.endpoints(e1), (1, 2));
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// # Ok::<(), fastsc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph { adjacency: vec![Vec::new(); n], edges: Vec::new() }
    }

    /// Creates a graph with `n` nodes and the given edges.
    ///
    /// # Errors
    ///
    /// Returns an error if any edge is a self-loop, a duplicate, or refers
    /// to a node `>= n`.
    pub fn with_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has neither nodes nor edges.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds a new isolated node and returns its index.
    pub fn add_node(&mut self) -> usize {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    /// Adds an undirected edge between `u` and `v` and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`,
    /// [`GraphError::NodeOutOfRange`] if either endpoint does not exist, and
    /// [`GraphError::DuplicateEdge`] if the edge is already present.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<usize, GraphError> {
        let n = self.node_count();
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, node_count: n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, node_count: n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u: u.min(v), v: u.max(v) });
        }
        let id = self.edges.len();
        self.edges.push((u.min(v), u.max(v)));
        self.adjacency[u].push(v);
        self.adjacency[v].push(u);
        Ok(id)
    }

    /// Whether an edge between `u` and `v` exists (`false` when either
    /// node does not). O(min degree): a scan of the smaller adjacency list.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        match (self.adjacency.get(u), self.adjacency.get(v)) {
            (Some(nu), Some(nv)) if nu.len() <= nv.len() => nu.contains(&v),
            (Some(_), Some(nv)) => nv.contains(&u),
            _ => false,
        }
    }

    /// The `(min, max)` endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= edge_count()`.
    pub fn endpoints(&self, e: usize) -> (usize, usize) {
        self.edges[e]
    }

    /// Neighbors of `u`, in edge-insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `u >= node_count()`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adjacency[u]
    }

    /// Degree (number of incident edges) of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= node_count()`.
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency[u].len()
    }

    /// The maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count()).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Iterator over `(edge_id, (u, v))` pairs in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, (usize, usize))> + '_ {
        self.edges.iter().copied().enumerate()
    }

    /// Iterator over node indices `0..node_count()`.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.node_count()
    }

    /// A stable 64-bit structural hash:
    /// [`StableHasher`](crate::hash::StableHasher) (pinned FNV-1a/64) over the node count
    /// and the edge list in insertion order (endpoints normalized, as
    /// stored).
    ///
    /// Two graphs hash equal exactly when they are [`PartialEq`]-equal up
    /// to adjacency-list ordering — same nodes, same edges, same edge
    /// indices. The value is reproducible across processes and Rust
    /// releases; the compile service folds it into device-level cache
    /// keys so two devices can only share cached schedules when their
    /// connectivity is identical.
    pub fn structural_hash(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_usize(self.node_count());
        h.write_usize(self.edges.len());
        for &(u, v) in &self.edges {
            h.write_usize(u);
            h.write_usize(v);
        }
        h.finish()
    }

    /// Breadth-first distances (in hops) from `src` to every node.
    ///
    /// Unreachable nodes map to `None`.
    ///
    /// # Panics
    ///
    /// Panics if `src >= node_count()`.
    pub fn bfs_distances(&self, src: usize) -> Vec<Option<u32>> {
        assert!(src < self.node_count(), "bfs source {src} out of range");
        let mut dist = vec![None; self.node_count()];
        dist[src] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("dequeued nodes have distances");
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest-path distance in hops between `u` and `v`, if connected.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, u: usize, v: usize) -> Option<u32> {
        assert!(v < self.node_count(), "node {v} out of range");
        self.bfs_distances(u)[v]
    }

    /// A shortest path (as a node sequence, inclusive of both ends) between
    /// `u` and `v`, if one exists.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn shortest_path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        let mut path = Vec::new();
        self.shortest_path_into(u, v, &mut PathScratch::default(), &mut path).then_some(path)
    }

    /// [`shortest_path`](Self::shortest_path) into caller-owned buffers:
    /// writes the path into `path` (cleared first) and returns whether one
    /// exists. `scratch` carries the search state between calls, so a
    /// caller searching many paths on one graph allocates it once and
    /// each search costs only the nodes it visits. The traversal (and so
    /// the path) is the same as `shortest_path`'s.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn shortest_path_into(
        &self,
        u: usize,
        v: usize,
        scratch: &mut PathScratch,
        path: &mut Vec<usize>,
    ) -> bool {
        assert!(u < self.node_count(), "node {u} out of range");
        assert!(v < self.node_count(), "node {v} out of range");
        path.clear();
        let epoch = scratch.begin(self.node_count());
        let PathScratch { stamp, parent, queue, .. } = scratch;
        stamp[u] = epoch;
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            if x == v {
                let mut cur = v;
                path.push(v);
                while cur != u {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return true;
            }
            for &y in &self.adjacency[x] {
                if stamp[y] != epoch {
                    stamp[y] = epoch;
                    parent[y] = x;
                    queue.push_back(y);
                }
            }
        }
        false
    }

    /// Whether every node is reachable from every other node.
    ///
    /// The empty graph and single-node graphs are connected.
    pub fn is_connected(&self) -> bool {
        match self.node_count() {
            0 | 1 => true,
            _ => self.bfs_distances(0).iter().all(Option::is_some),
        }
    }

    /// Connected components, each a sorted list of node indices.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut comp = vec![usize::MAX; self.node_count()];
        let mut components = Vec::new();
        for start in self.nodes() {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            comp[start] = id;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adjacency[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        members.push(v);
                        queue.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// The subgraph induced by `nodes`, together with the mapping from new
    /// node index to original node index.
    ///
    /// Duplicate entries in `nodes` are ignored after the first occurrence.
    /// Induced edges are added in this graph's edge-id order, so the
    /// subgraph's edge ids enumerate the induced edges as a subsequence
    /// of the parent's.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `nodes` is out of range.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (Graph, Vec<usize>) {
        const ABSENT: usize = usize::MAX;
        let mut to_new = vec![ABSENT; self.node_count()];
        let mut to_old = Vec::new();
        for &u in nodes {
            assert!(u < self.node_count(), "node {u} out of range");
            if to_new[u] == ABSENT {
                to_new[u] = to_old.len();
                to_old.push(u);
            }
        }
        let mut sub = Graph::new(to_old.len());
        for (_, (u, v)) in self.edges() {
            if to_new[u] != ABSENT && to_new[v] != ABSENT {
                sub.add_edge(to_new[u], to_new[v]).expect("induced edges are unique");
            }
        }
        (sub, to_old)
    }

    /// Renders the graph in Graphviz DOT format (undirected).
    pub fn to_dot(&self, name: &str) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph {name} {{");
        for u in self.nodes() {
            let _ = writeln!(out, "  n{u};");
        }
        for (_, (u, v)) in self.edges() {
            let _ = writeln!(out, "  n{u} -- n{v};");
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(|V|={}, |E|={})", self.node_count(), self.edge_count())
    }
}

/// Reusable breadth-first search state for
/// [`Graph::shortest_path_into`]. A node counts as seen in the current
/// search when its stamp equals the search's epoch, so starting a search
/// clears nothing.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    stamp: Vec<u32>,
    parent: Vec<usize>,
    queue: VecDeque<usize>,
    epoch: u32,
}

impl PathScratch {
    /// Starts a search over `n` nodes and returns its epoch.
    fn begin(&mut self, n: usize) -> u32 {
        if self.stamp.len() != n || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.parent.resize(n, 0);
            self.epoch = 0;
        }
        self.queue.clear();
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::with_edges(3, [(0, 1), (1, 2)]).expect("valid path")
    }

    #[test]
    fn new_graph_has_isolated_nodes() {
        let g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_normalizes_endpoints() {
        let mut g = Graph::new(3);
        let e = g.add_edge(2, 0).expect("valid edge");
        assert_eq!(g.endpoints(e), (0, 2));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(0, 9), "out-of-range nodes have no edges");
    }

    #[test]
    fn structural_hash_distinguishes_graphs() {
        assert_eq!(path3().structural_hash(), path3().structural_hash());
        // Different edge set, same node count.
        let other = Graph::with_edges(3, [(0, 1), (0, 2)]).expect("valid");
        assert_ne!(path3().structural_hash(), other.structural_hash());
        // Same edges, different node count.
        let wider = Graph::with_edges(4, [(0, 1), (1, 2)]).expect("valid");
        assert_ne!(path3().structural_hash(), wider.structural_hash());
        // Endpoint normalization makes (2,0) and (0,2) the same edge.
        let normalized = Graph::with_edges(3, [(1, 0), (2, 1)]).expect("valid");
        assert_eq!(path3().structural_hash(), normalized.structural_hash());
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn add_edge_rejects_duplicate_in_either_orientation() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1).expect("first insertion");
        assert_eq!(g.add_edge(1, 0), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
    }

    #[test]
    fn add_edge_rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, node_count: 2 })
        );
        assert_eq!(
            g.add_edge(7, 0),
            Err(GraphError::NodeOutOfRange { node: 7, node_count: 2 })
        );
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path3();
        assert_eq!(g.bfs_distances(0), vec![Some(0), Some(1), Some(2)]);
        assert_eq!(g.distance(0, 2), Some(2));
    }

    #[test]
    fn bfs_reports_unreachable() {
        let g = Graph::with_edges(4, [(0, 1)]).expect("valid");
        let d = g.bfs_distances(0);
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
        assert!(!g.is_connected());
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = Graph::with_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).expect("cycle");
        let p = g.shortest_path(0, 3).expect("connected");
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 3); // 0 - 4 - 3
        assert_eq!(g.shortest_path(0, 0), Some(vec![0]));
    }

    /// The allocating BFS `shortest_path` used before the reusable
    /// scratch, kept as the oracle for path identity.
    fn reference_shortest_path(g: &Graph, u: usize, v: usize) -> Option<Vec<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; g.node_count()];
        let mut seen = vec![false; g.node_count()];
        seen[u] = true;
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            if x == v {
                let mut path = vec![v];
                let mut cur = v;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &y in g.neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    parent[y] = Some(x);
                    queue.push_back(y);
                }
            }
        }
        None
    }

    #[test]
    fn reused_scratch_finds_the_reference_paths() {
        // One scratch across every search, switching between graphs of
        // different sizes (including a disconnected one) mid-stream.
        let graphs = [
            crate::topology::grid(4, 5),
            Graph::with_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 2)]).expect("valid"),
            crate::topology::grid(3, 3),
        ];
        let mut scratch = PathScratch::default();
        let mut path = vec![99];
        for g in &graphs {
            for u in g.nodes() {
                for v in g.nodes() {
                    let found = g.shortest_path_into(u, v, &mut scratch, &mut path);
                    let expected = reference_shortest_path(g, u, v);
                    assert_eq!(found.then(|| path.clone()), expected, "path {u} -> {v}");
                    assert_eq!(g.shortest_path(u, v), expected);
                }
            }
        }
    }

    #[test]
    fn shortest_path_none_when_disconnected() {
        let g = Graph::new(2);
        assert_eq!(g.shortest_path(0, 1), None);
    }

    #[test]
    fn connected_components_partition_nodes() {
        let g = Graph::with_edges(5, [(0, 1), (3, 4)]).expect("valid");
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::with_edges(4, [(0, 1), (1, 2), (2, 3)]).expect("valid");
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        // New indices follow the order of `nodes`.
        assert!(sub.has_edge(0, 1)); // old (1,2)
        assert!(sub.has_edge(1, 2)); // old (2,3)
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = path3();
        let (sub, map) = g.induced_subgraph(&[2, 2, 1]);
        assert_eq!(map, vec![2, 1]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let dot = path3().to_dot("p3");
        assert!(dot.contains("graph p3"));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.contains("n1 -- n2"));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(path3().to_string(), "Graph(|V|=3, |E|=2)");
    }
}
