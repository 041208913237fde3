//! Weighted undirected graphs with compact node ids.

use smash_support::impl_json_struct;
use smash_support::wire::{FromWire, Reader, ToWire, WireError};

/// Compact node identifier used throughout the graph substrate.
///
/// Callers map their own entities (server ids, domains, …) to dense
/// `NodeId`s before building a graph.
pub type NodeId = u32;

/// A weighted, undirected graph stored as an adjacency list.
///
/// Self-loops are allowed (they matter for Louvain's aggregated graphs);
/// parallel edges are merged at build time by summing their weights.
///
/// # Example
///
/// ```
/// use smash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 2.0);
/// b.add_edge(1, 2, 0.5);
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!((g.degree(1) - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// adj[u] = sorted list of (neighbor, weight); self-loop stored once.
    adj: Vec<Vec<(NodeId, f64)>>,
    /// Weighted degree per node (self-loop counted twice, the Louvain convention).
    degree: Vec<f64>,
    /// Sum of all edge weights (each undirected edge once; self-loops once).
    total_weight: f64,
    edge_count: usize,
}

impl_json_struct!(Graph {
    adj,
    degree,
    total_weight,
    edge_count
});

// Checkpoint wire form: node count + each undirected edge once. The
// derived state (mirrored adjacency, degrees, total weight) is rebuilt
// through `GraphBuilder`, whose sorted accumulation makes the decoded
// graph bit-identical to the one originally built from the same edges.
impl ToWire for Graph {
    fn wire(&self, out: &mut Vec<u8>) {
        (self.adj.len() as u64).wire(out);
        (self.edge_count as u64).wire(out);
        // lint:allow(hash-iter): `edges()` walks the sorted Vec adjacency, not a hash map
        for (u, v, w) in self.edges() {
            u.wire(out);
            v.wire(out);
            w.wire(out);
        }
    }
}

impl FromWire for Graph {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = usize::from_wire(r)?;
        let m = usize::from_wire(r)?;
        // Each edge consumes 16 bytes; reject an impossible count before
        // looping (a corrupted header must not drive a huge allocation).
        if m > r.remaining() / 16 {
            return Err(WireError(format!(
                "edge count {m} exceeds payload ({} bytes remain)",
                r.remaining()
            )));
        }
        let mut b = GraphBuilder::with_nodes(n);
        for _ in 0..m {
            let u = u32::from_wire(r)?;
            let v = u32::from_wire(r)?;
            let w = f64::from_wire(r)?;
            if (u as usize) >= n || (v as usize) >= n {
                return Err(WireError(format!("edge ({u}, {v}) outside {n} node(s)")));
            }
            if !w.is_finite() {
                return Err(WireError(format!("non-finite edge weight {w}")));
            }
            b.add_edge(u, v, w);
        }
        if b.edge_count() != m {
            return Err(WireError("duplicate edges in payload".to_owned()));
        }
        Ok(b.build())
    }
}

impl Graph {
    /// Number of nodes (including isolated ones).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges (self-loops count as one).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of all edge weights, counting each undirected edge once.
    ///
    /// This is the `m` in the modularity formula.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted degree of `u`: sum of incident edge weights, with
    /// self-loops counted twice (the convention modularity expects).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> f64 {
        self.degree[u as usize] // lint:allow(index): documented `# Panics` contract for out-of-range ids
    }

    /// Neighbors of `u` with edge weights, in ascending neighbor order.
    ///
    /// A self-loop at `u` appears once as `(u, w)`; an out-of-range `u`
    /// has no neighbors.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        self.adj.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// Weight of the edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let row = self.adj.get(u as usize)?;
        row.binary_search_by_key(&v, |&(n, _)| n)
            .ok()
            .and_then(|i| row.get(i))
            .map(|&(_, w)| w)
    }

    /// Iterates over every undirected edge once as `(u, v, w)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            let u = u as NodeId;
            row.iter()
                .filter(move |&&(v, _)| v >= u)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

/// Incremental builder for [`Graph`].
///
/// Nodes are created implicitly by the largest id mentioned; use
/// [`GraphBuilder::ensure_node`] to add isolated nodes. Duplicate edges are
/// merged by summing weights in insertion order.
///
/// Edges live in a plain `Vec` keyed by `(min, max)`. Every production
/// caller adds its edges in ascending key order (candidate pairs and
/// co-occurrence rows come out sorted), so the builder tracks whether
/// that still holds and [`build`](Self::build) skips sorting when it
/// does; out-of-order input (Louvain's community aggregation) costs one
/// linear bucketing pass at the end.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<((NodeId, NodeId), f64)>,
    /// `edges` is strictly ascending by key, hence duplicate-free.
    sorted: bool,
    max_node: Option<NodeId>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self {
            edges: Vec::new(),
            sorted: true,
            max_node: None,
        }
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `n` nodes (ids `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        let mut b = Self::new();
        if n > 0 {
            b.ensure_node((n - 1) as NodeId);
        }
        b
    }

    /// Ensures node `u` exists even if it ends up with no edges.
    pub fn ensure_node(&mut self, u: NodeId) -> &mut Self {
        self.max_node = Some(self.max_node.map_or(u, |m| m.max(u)));
        self
    }

    /// Adds (or accumulates onto) the undirected edge `(u, v)`.
    ///
    /// `u == v` creates a self-loop. Weights must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> &mut Self {
        assert!(
            weight.is_finite(),
            "edge weight must be finite, got {weight}"
        );
        self.ensure_node(u);
        self.ensure_node(v);
        let key = if u <= v { (u, v) } else { (v, u) };
        // Seeding with `0.0 +` keeps the sum bit-identical to a
        // zero-initialized accumulator (it maps -0.0 to +0.0).
        let weight = 0.0 + weight;
        match self.edges.last_mut() {
            Some(last) if self.sorted && last.0 == key => last.1 += weight,
            Some(last) if last.0 >= key => {
                self.sorted = false;
                self.edges.push((key, weight));
            }
            _ => self.edges.push((key, weight)),
        }
        self
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        if self.sorted {
            return self.edges.len();
        }
        let mut keys: Vec<(NodeId, NodeId)> = self.edges.iter().map(|e| e.0).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Sorts the edges by key and merges duplicates, summing their
    /// weights in insertion order.
    ///
    /// Linear passes instead of a comparison sort: a stable counting
    /// sort buckets the edges by `u`, then each bucket folds its
    /// duplicates into a dense per-`v` accumulator (in insertion order)
    /// and emits its distinct `v`s ascending. Louvain's aggregation
    /// feeds this path hundreds of thousands of edges that collapse onto
    /// a few community pairs.
    fn normalize(&mut self) {
        if self.sorted {
            return;
        }
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        let mut start = vec![0usize; n + 1];
        for &((u, _), _) in &self.edges {
            if let Some(s) = start.get_mut(u as usize + 1) {
                *s += 1;
            }
        }
        for i in 1..start.len() {
            let prev = start.get(i - 1).copied().unwrap_or(0);
            if let Some(s) = start.get_mut(i) {
                *s += prev;
            }
        }
        let mut fill = start.clone();
        let mut by_u = vec![(0 as NodeId, 0.0); self.edges.len()];
        for &((u, v), w) in &self.edges {
            if let Some(at) = fill.get_mut(u as usize) {
                if let Some(slot) = by_u.get_mut(*at) {
                    *slot = (v, w);
                }
                *at += 1;
            }
        }
        let mut sums: Vec<Option<f64>> = vec![None; n];
        let mut touched: Vec<NodeId> = Vec::new();
        let mut merged = Vec::with_capacity(self.edges.len());
        for (u, bounds) in start.windows(2).enumerate() {
            let bucket = bounds
                .first()
                .zip(bounds.get(1))
                .and_then(|(&lo, &hi)| by_u.get(lo..hi))
                .unwrap_or(&[]);
            for &(v, w) in bucket {
                match sums.get_mut(v as usize) {
                    Some(Some(sum)) => *sum += w,
                    Some(slot) => {
                        *slot = Some(w);
                        touched.push(v);
                    }
                    None => {}
                }
            }
            touched.sort_unstable();
            for &v in &touched {
                if let Some(sum) = sums.get_mut(v as usize).and_then(Option::take) {
                    merged.push(((u as NodeId, v), sum));
                }
            }
            touched.clear();
        }
        self.edges = merged;
        self.sorted = true;
    }

    /// Retains only the `keep` heaviest edges, dropping the rest, and
    /// returns how many were dropped. Deterministic: edges are ranked
    /// by weight descending with `(u, v)` ascending breaking ties, so
    /// equal-weight edges always survive in the same order. Nodes are
    /// never removed — a thinned node just loses edges.
    pub fn thin_to(&mut self, keep: usize) -> usize {
        self.normalize();
        if self.edges.len() <= keep {
            return 0;
        }
        self.edges.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("edge weights are finite")
                .then(a.0.cmp(&b.0))
        });
        let dropped = self.edges.len() - keep;
        self.edges.truncate(keep);
        self.edges.sort_unstable_by_key(|e| e.0);
        dropped
    }

    /// Finalizes the graph.
    ///
    /// The degree and total-weight sums run over the edges in ascending
    /// `(u, v)` order, so the float accumulation is order-stable: float
    /// addition is not associative, and insertion order must never reach
    /// a reported number. Walking the edges in that order also fills
    /// every adjacency row already sorted — a node's lower neighbours
    /// arrive (ascending) from earlier keys, its self-loop and higher
    /// neighbours from its own keys — so no row needs a sort.
    pub fn build(mut self) -> Graph {
        self.normalize();
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        // Size every row exactly first; `u <= v <= max_node < n` by
        // construction, so the lookups below cannot miss.
        let mut row_len = vec![0usize; n];
        for &((u, v), _) in &self.edges {
            for x in [Some(u), (u != v).then_some(v)].into_iter().flatten() {
                if let Some(len) = row_len.get_mut(x as usize) {
                    *len += 1;
                }
            }
        }
        let mut adj: Vec<Vec<(NodeId, f64)>> =
            row_len.into_iter().map(Vec::with_capacity).collect();
        let mut degree = vec![0.0; n];
        let mut total = 0.0;
        for &((u, v), w) in &self.edges {
            if let (Some(row), Some(d)) = (adj.get_mut(u as usize), degree.get_mut(u as usize)) {
                row.push((v, w));
                *d += if u == v { 2.0 * w } else { w };
            }
            if u != v {
                if let (Some(row), Some(d)) = (adj.get_mut(v as usize), degree.get_mut(v as usize))
                {
                    row.push((u, w));
                    *d += w;
                }
            }
            total += w;
        }
        Graph {
            adj,
            degree,
            total_weight: total,
            edge_count: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn thin_to_keeps_heaviest_edges_deterministically() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9);
        b.add_edge(1, 2, 0.1);
        b.add_edge(2, 3, 0.5);
        b.add_edge(0, 3, 0.5); // ties with (2,3); lower (u,v) survives first
        assert_eq!(b.thin_to(4), 0);
        assert_eq!(b.thin_to(2), 2);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(0.9));
        assert_eq!(g.edge_weight(0, 3), Some(0.5));
        assert_eq!(g.edge_weight(2, 3), None);
        assert_eq!(g.edge_weight(1, 2), None);
        // Nodes survive thinning even when all their edges are gone.
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
    }

    #[test]
    fn self_loop_degree_counts_twice() {
        let mut b = GraphBuilder::new();
        b.add_edge(2, 2, 1.5);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.degree(2), 3.0);
        assert_eq!(g.total_weight(), 1.5);
        assert_eq!(g.neighbors(2), &[(2, 1.5)]);
    }

    #[test]
    fn isolated_nodes_exist() {
        let mut b = GraphBuilder::new();
        b.ensure_node(4);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.degree(4), 0.0);
    }

    #[test]
    fn edges_iterator_visits_each_once() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 2, 0.5);
        let g = b.build();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 2, 0.5)]);
        let sum: f64 = edges.iter().map(|e| e.2).sum();
        assert!((sum - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 9, 1.0);
        let g = b.build();
        let ns: Vec<NodeId> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        assert_eq!(ns, vec![2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        GraphBuilder::new().add_edge(0, 1, f64::NAN);
    }
}
