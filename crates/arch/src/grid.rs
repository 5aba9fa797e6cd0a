//! The connection grid: nodes (devices or switches) and orthogonal channel
//! segments (edges).

use biochip_json::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node in the connection grid.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Dense index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge (channel segment) in the connection grid.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GridEdgeId(pub usize);

impl GridEdgeId {
    /// Dense index of the edge.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GridEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Row/column coordinate of a grid node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridCoord {
    /// Row (0 at the top).
    pub row: usize,
    /// Column (0 at the left).
    pub col: usize,
}

impl GridCoord {
    /// Manhattan distance to another coordinate.
    #[must_use]
    pub fn manhattan(self, other: GridCoord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

/// A rectangular connection grid (Fig. 6 of the paper).
///
/// Every node can hold either a device or a switch; every edge is a channel
/// segment long enough to cache one fluid sample. Edges connect horizontally
/// and vertically adjacent nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionGrid {
    rows: usize,
    cols: usize,
    /// Edge endpoints, indexed by [`GridEdgeId::index`]; each entry is
    /// `(low node, high node)` with `low < high`.
    edges: Vec<(NodeId, NodeId)>,
    /// For each node, the ids of its incident edges.
    incident: Vec<Vec<GridEdgeId>>,
}

impl ConnectionGrid {
    /// Creates a `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let num_nodes = rows * cols;
        let mut edges = Vec::new();
        let mut incident = vec![Vec::new(); num_nodes];
        for r in 0..rows {
            for c in 0..cols {
                let here = NodeId(r * cols + c);
                if c + 1 < cols {
                    let right = NodeId(r * cols + c + 1);
                    let id = GridEdgeId(edges.len());
                    edges.push((here, right));
                    incident[here.index()].push(id);
                    incident[right.index()].push(id);
                }
                if r + 1 < rows {
                    let below = NodeId((r + 1) * cols + c);
                    let id = GridEdgeId(edges.len());
                    edges.push((here, below));
                    incident[here.index()].push(id);
                    incident[below.index()].push(id);
                }
            }
        }
        ConnectionGrid {
            rows,
            cols,
            edges,
            incident,
        }
    }

    /// Creates a square `size × size` grid.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn square(size: usize) -> Self {
        ConnectionGrid::new(size, size)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of edges (channel segments).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node at the given coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the grid.
    #[must_use]
    pub fn node_at(&self, coord: GridCoord) -> NodeId {
        assert!(
            coord.row < self.rows && coord.col < self.cols,
            "coordinate outside grid"
        );
        NodeId(coord.row * self.cols + coord.col)
    }

    /// The coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this grid.
    #[must_use]
    pub fn coord(&self, node: NodeId) -> GridCoord {
        assert!(node.index() < self.num_nodes(), "node outside grid");
        GridCoord {
            row: node.index() / self.cols,
            col: node.index() % self.cols,
        }
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = GridEdgeId> {
        (0..self.num_edges()).map(GridEdgeId)
    }

    /// The two endpoint nodes of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not belong to this grid.
    #[must_use]
    pub fn endpoints(&self, edge: GridEdgeId) -> (NodeId, NodeId) {
        self.edges[edge.index()]
    }

    /// Edges incident to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this grid.
    #[must_use]
    pub fn incident_edges(&self, node: NodeId) -> &[GridEdgeId] {
        &self.incident[node.index()]
    }

    /// Nodes adjacent to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this grid.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.incident_edges(node)
            .iter()
            .map(|&e| self.other_endpoint(e, node))
            .collect()
    }

    /// The endpoint of `edge` that is not `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `edge`.
    #[must_use]
    pub fn other_endpoint(&self, edge: GridEdgeId, node: NodeId) -> NodeId {
        let (a, b) = self.endpoints(edge);
        if a == node {
            b
        } else {
            assert_eq!(b, node, "node is not an endpoint of the edge");
            a
        }
    }

    /// The edge between two adjacent nodes, if any.
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<GridEdgeId> {
        self.incident[a.index()]
            .iter()
            .copied()
            .find(|&e| self.other_endpoint(e, a) == b)
    }

    /// Manhattan distance between two nodes.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        self.coord(a).manhattan(self.coord(b))
    }

    /// A short textual description such as `"4×4"` (the `G` column of
    /// Table 2).
    #[must_use]
    pub fn dimensions(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

impl fmt::Display for ConnectionGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} connection grid ({} nodes, {} segments)",
            self.rows,
            self.cols,
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grid_counts() {
        let g = ConnectionGrid::square(4);
        assert_eq!(g.num_nodes(), 16);
        // 2 * 4 * 3 = 24 edges in a 4x4 grid.
        assert_eq!(g.num_edges(), 24);
        let g = ConnectionGrid::new(2, 3);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
    }

    #[test]
    fn coords_roundtrip() {
        let g = ConnectionGrid::new(3, 5);
        for node in g.nodes() {
            assert_eq!(g.node_at(g.coord(node)), node);
        }
    }

    #[test]
    fn corner_and_center_degrees() {
        let g = ConnectionGrid::square(3);
        let corner = g.node_at(GridCoord { row: 0, col: 0 });
        let center = g.node_at(GridCoord { row: 1, col: 1 });
        assert_eq!(g.incident_edges(corner).len(), 2);
        assert_eq!(g.incident_edges(center).len(), 4);
        assert_eq!(g.neighbors(center).len(), 4);
    }

    #[test]
    fn edge_between_adjacent_nodes() {
        let g = ConnectionGrid::square(3);
        let a = g.node_at(GridCoord { row: 0, col: 0 });
        let b = g.node_at(GridCoord { row: 0, col: 1 });
        let c = g.node_at(GridCoord { row: 2, col: 2 });
        let e = g.edge_between(a, b).expect("adjacent");
        assert_eq!(g.edge_between(b, a), Some(e));
        assert_eq!(g.edge_between(a, c), None);
        assert_eq!(g.other_endpoint(e, a), b);
    }

    #[test]
    fn distances() {
        let g = ConnectionGrid::square(4);
        let a = g.node_at(GridCoord { row: 0, col: 0 });
        let b = g.node_at(GridCoord { row: 3, col: 2 });
        assert_eq!(g.distance(a, b), 5);
        assert_eq!(g.distance(a, a), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = ConnectionGrid::new(0, 3);
    }

    #[test]
    fn dimensions_string() {
        assert_eq!(ConnectionGrid::new(4, 5).dimensions(), "4x5");
    }

    proptest! {
        #[test]
        fn edge_endpoints_are_adjacent(rows in 1usize..6, cols in 1usize..6) {
            let g = ConnectionGrid::new(rows, cols);
            // Expected edge count for a grid graph.
            prop_assert_eq!(g.num_edges(), rows * (cols - 1) + cols * (rows - 1));
            for e in g.edges() {
                let (a, b) = g.endpoints(e);
                prop_assert_eq!(g.distance(a, b), 1);
                prop_assert!(g.incident_edges(a).contains(&e));
                prop_assert!(g.incident_edges(b).contains(&e));
            }
        }
    }
}
