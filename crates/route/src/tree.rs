//! Wire trees: routed-net topology consumed by the delay calculator.

use crate::RoutePath;
use clk_geom::{Dbu, Point};

/// A rooted tree of wire nodes. Node 0 is the driver (root). Every other
/// node has a parent; the edge to the parent is an abstract rectilinear
/// connection whose length is the Manhattan distance between the
/// endpoints (bend geometry does not change RC, so it is not stored).
///
/// ```
/// use clk_geom::Point;
/// use clk_route::WireTree;
///
/// let mut t = WireTree::new(Point::new(0, 0));
/// let a = t.add_child(WireTree::ROOT, Point::new(10_000, 0));
/// let _b = t.add_child(a, Point::new(10_000, 5_000));
/// assert_eq!(t.wirelength_um(), 15.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTree {
    pts: Vec<Point>,
    parent: Vec<Option<usize>>,
}

impl WireTree {
    /// Index of the root (driver) node.
    pub const ROOT: usize = 0;

    /// Creates a tree containing only the driver node.
    pub fn new(driver: Point) -> Self {
        WireTree {
            pts: vec![driver],
            parent: vec![None],
        }
    }

    /// Empties the tree down to a driver node at `driver`, keeping its
    /// buffers: the same tree as [`WireTree::new`], for callers that
    /// build one net after another.
    pub fn reset(&mut self, driver: Point) {
        self.pts.clear();
        self.parent.clear();
        self.pts.push(driver);
        self.parent.push(None);
    }

    /// Builds a pure chain following a routed two-pin path: one node per
    /// bend point. Returns the tree and the index of the far-end node.
    pub fn from_path(path: &RoutePath) -> (Self, usize) {
        let mut t = WireTree::new(path.start());
        let mut last = WireTree::ROOT;
        for &p in &path.points()[1..] {
            last = t.add_child(last, p);
        }
        (t, last)
    }

    /// Adds a node at `pt` whose parent is `parent`; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn add_child(&mut self, parent: usize, pt: Point) -> usize {
        assert!(parent < self.pts.len(), "parent index out of range");
        self.pts.push(pt);
        self.parent.push(Some(parent));
        self.pts.len() - 1
    }

    /// Number of nodes including the root.
    pub fn node_count(&self) -> usize {
        self.pts.len()
    }

    /// The location of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> Point {
        self.pts[i]
    }

    /// The parent of node `i` (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Length of the edge from `i` to its parent, dbu (0 for the root).
    pub fn edge_len_dbu(&self, i: usize) -> Dbu {
        match self.parent[i] {
            Some(p) => self.pts[i].manhattan(self.pts[p]),
            None => 0,
        }
    }

    /// Length of the edge from `i` to its parent, µm.
    pub fn edge_len_um(&self, i: usize) -> f64 {
        clk_geom::dbu_to_um(self.edge_len_dbu(i))
    }

    /// Total wirelength, µm.
    pub fn wirelength_um(&self) -> f64 {
        (0..self.pts.len()).map(|i| self.edge_len_um(i)).sum()
    }

    /// The first node located exactly at `pt`, if any.
    pub fn index_of(&self, pt: Point) -> Option<usize> {
        self.pts.iter().position(|&p| p == pt)
    }

    /// Child lists, indexed by node.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.pts.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(i);
            }
        }
        ch
    }

    /// Nodes in root-first (topological) order. Because children always
    /// have larger indices than their parents, this is just `0..n`.
    pub fn topo_order(&self) -> impl Iterator<Item = usize> {
        0..self.pts.len()
    }

    /// All node points.
    pub fn points(&self) -> &[Point] {
        &self.pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_path_preserves_length() {
        let p = RoutePath::with_detour(Point::new(0, 0), Point::new(20_000, 0), 10.0);
        let (t, end) = WireTree::from_path(&p);
        assert!((t.wirelength_um() - p.length_um()).abs() < 1e-9);
        assert_eq!(t.point(end), p.end());
    }

    #[test]
    fn children_and_edges() {
        let mut t = WireTree::new(Point::new(0, 0));
        let a = t.add_child(WireTree::ROOT, Point::new(5, 0));
        let b = t.add_child(WireTree::ROOT, Point::new(0, 7));
        let c = t.add_child(a, Point::new(5, 3));
        let ch = t.children();
        assert_eq!(ch[WireTree::ROOT], vec![a, b]);
        assert_eq!(ch[a], vec![c]);
        assert_eq!(t.edge_len_dbu(c), 3);
        assert_eq!(t.edge_len_dbu(WireTree::ROOT), 0);
    }

    #[test]
    fn index_of_finds_nodes() {
        let mut t = WireTree::new(Point::new(1, 1));
        let a = t.add_child(0, Point::new(2, 1));
        assert_eq!(t.index_of(Point::new(2, 1)), Some(a));
        assert_eq!(t.index_of(Point::new(9, 9)), None);
    }

    #[test]
    #[should_panic(expected = "parent index")]
    fn add_child_checks_parent() {
        let mut t = WireTree::new(Point::new(0, 0));
        t.add_child(42, Point::new(1, 0));
    }
}
