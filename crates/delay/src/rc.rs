//! Distributed RC trees extracted from routed wire trees.

use clk_liberty::WireRc;
use clk_route::WireTree;

/// A distributed RC tree. Node 0 is the driver output; every other node has
/// a parent and a series resistance on the edge toward the parent. Node
/// capacitance is lumped at the node.
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    parent: Vec<Option<usize>>,
    /// Series resistance from node to parent, kΩ.
    res_kohm: Vec<f64>,
    /// Lumped capacitance at the node, fF.
    cap_ff: Vec<f64>,
    /// RC node index of each wire-tree node.
    wire_to_rc: Vec<usize>,
}

impl RcTree {
    /// Extracts a π-segmented RC tree from a routed wire tree.
    ///
    /// * `rc` — per-unit parasitics of the corner's BEOL;
    /// * `loads` — receiver pin loads as `(wire-tree node, cap fF)`;
    /// * `seg_max_um` — maximum electrical segment length. Each wire edge
    ///   is split into `ceil(len/seg_max)` π-segments (half the segment cap
    ///   at each segment end). Pass a large value (e.g. `1e9`) to lump each
    ///   edge into a single segment — the *fast estimate* mode; pass ~5 µm
    ///   for signoff-like accuracy — the *golden* mode.
    ///
    /// # Panics
    ///
    /// Panics if `seg_max_um <= 0` or a load references a node out of
    /// range.
    pub fn extract(wt: &WireTree, rc: WireRc, loads: &[(usize, f64)], seg_max_um: f64) -> Self {
        let mut tree = RcTree {
            parent: Vec::new(),
            res_kohm: Vec::new(),
            cap_ff: Vec::new(),
            wire_to_rc: Vec::new(),
        };
        tree.extract_into(wt, rc, loads, seg_max_um);
        tree
    }

    /// [`RcTree::extract`] into `self`, reusing its buffers: `self`
    /// afterwards equals `RcTree::extract(wt, rc, loads, seg_max_um)`,
    /// whatever it held before.
    ///
    /// # Panics
    ///
    /// As [`RcTree::extract`].
    pub fn extract_into(
        &mut self,
        wt: &WireTree,
        rc: WireRc,
        loads: &[(usize, f64)],
        seg_max_um: f64,
    ) {
        assert!(seg_max_um > 0.0, "segment pitch must be positive");
        let n = wt.node_count();
        let segs_of = |i: usize| ((wt.edge_len_um(i) / seg_max_um).ceil() as usize).max(1);
        // the driver node plus every edge's segments, sized up front
        let rc_nodes = 1 + wt.topo_order().skip(1).map(segs_of).sum::<usize>();
        let tree = self;
        tree.parent.clear();
        tree.res_kohm.clear();
        tree.cap_ff.clear();
        tree.wire_to_rc.clear();
        tree.parent.reserve(rc_nodes);
        tree.res_kohm.reserve(rc_nodes);
        tree.cap_ff.reserve(rc_nodes);
        tree.wire_to_rc.resize(n, usize::MAX);
        tree.parent.push(None);
        tree.res_kohm.push(0.0);
        tree.cap_ff.push(0.0);
        tree.wire_to_rc[WireTree::ROOT] = 0;
        // Wire-tree children always have larger indices than parents, so a
        // forward scan visits parents first.
        for i in wt.topo_order().skip(1) {
            let wp = wt.parent(i).expect("non-root");
            let parent_rc = tree.wire_to_rc[wp];
            debug_assert_ne!(parent_rc, usize::MAX);
            let len = wt.edge_len_um(i);
            let segs = segs_of(i);
            let seg_len = len / segs as f64;
            let seg_r = rc.r_per_um * seg_len;
            let seg_c = rc.c_per_um * seg_len;
            let mut prev = parent_rc;
            for _ in 0..segs {
                // π-segment: half cap at each end
                tree.cap_ff[prev] += seg_c / 2.0;
                tree.parent.push(Some(prev));
                tree.res_kohm.push(seg_r);
                tree.cap_ff.push(seg_c / 2.0);
                prev = tree.parent.len() - 1;
            }
            tree.wire_to_rc[i] = prev;
        }
        debug_assert_eq!(tree.parent.len(), rc_nodes);
        for &(wnode, cap) in loads {
            let rc_node = tree.wire_to_rc[wnode];
            assert_ne!(rc_node, usize::MAX, "load on unknown wire node");
            tree.cap_ff[rc_node] += cap;
        }
    }

    /// Builds an RC tree directly from parent/R/C vectors (tests, synthetic
    /// networks).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ, node 0 is not the root, or a parent
    /// index is not smaller than its child (must be topologically ordered).
    pub fn from_raw(parent: Vec<Option<usize>>, res_kohm: Vec<f64>, cap_ff: Vec<f64>) -> Self {
        assert_eq!(parent.len(), res_kohm.len());
        assert_eq!(parent.len(), cap_ff.len());
        assert!(parent[0].is_none(), "node 0 must be the root");
        for (i, p) in parent.iter().enumerate().skip(1) {
            let p = p.expect("only node 0 may be parentless");
            assert!(p < i, "nodes must be topologically ordered");
        }
        let n = parent.len();
        RcTree {
            parent,
            res_kohm,
            cap_ff,
            wire_to_rc: (0..n).collect(),
        }
    }

    /// Number of RC nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Parent of an RC node.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Series resistance from node `i` to its parent, kΩ.
    pub fn res_kohm(&self, i: usize) -> f64 {
        self.res_kohm[i]
    }

    /// Lumped capacitance at node `i`, fF.
    pub fn cap_ff(&self, i: usize) -> f64 {
        self.cap_ff[i]
    }

    /// Total capacitance of the net (wire + pins), fF — the load the
    /// driving gate sees in the NLDM lookup.
    pub fn total_cap_ff(&self) -> f64 {
        self.cap_ff.iter().sum()
    }

    /// The RC node corresponding to a wire-tree node (receiver pins sit on
    /// wire-tree nodes).
    ///
    /// # Panics
    ///
    /// Panics if the wire node was out of range at extraction time.
    pub fn rc_node_of_wire_node(&self, wire_node: usize) -> usize {
        let n = self.wire_to_rc[wire_node];
        assert_ne!(n, usize::MAX, "wire node not mapped");
        n
    }
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use clk_geom::Point;

    fn rc() -> WireRc {
        WireRc {
            r_per_um: 2.0e-3,
            c_per_um: 0.2,
        }
    }

    #[test]
    fn lumped_extraction_has_one_segment_per_edge() {
        let mut wt = WireTree::new(Point::new(0, 0));
        let a = wt.add_child(WireTree::ROOT, Point::new(50_000, 0));
        let _b = wt.add_child(a, Point::new(50_000, 30_000));
        let t = RcTree::extract(&wt, rc(), &[], 1e9);
        assert_eq!(t.node_count(), 3);
        assert!((t.total_cap_ff() - 80.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn segmentation_preserves_totals() {
        let mut wt = WireTree::new(Point::new(0, 0));
        let a = wt.add_child(WireTree::ROOT, Point::new(100_000, 0));
        let coarse = RcTree::extract(&wt, rc(), &[(a, 3.0)], 1e9);
        let fine = RcTree::extract(&wt, rc(), &[(a, 3.0)], 5.0);
        assert!((coarse.total_cap_ff() - fine.total_cap_ff()).abs() < 1e-9);
        let total_r: f64 = (0..fine.node_count()).map(|i| fine.res_kohm(i)).sum();
        assert!((total_r - 0.2).abs() < 1e-12);
        assert_eq!(fine.node_count(), 1 + 20);
    }

    #[test]
    fn loads_land_on_the_right_node() {
        let mut wt = WireTree::new(Point::new(0, 0));
        let a = wt.add_child(WireTree::ROOT, Point::new(10_000, 0));
        let t = RcTree::extract(&wt, rc(), &[(a, 7.5)], 1e9);
        let n = t.rc_node_of_wire_node(a);
        // far node has half the wire cap + the pin load
        assert!((t.cap_ff(n) - (1.0 + 7.5)).abs() < 1e-9);
    }

    #[test]
    fn from_raw_roundtrip() {
        let t = RcTree::from_raw(
            vec![None, Some(0), Some(1)],
            vec![0.0, 1.0, 2.0],
            vec![0.0, 10.0, 5.0],
        );
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.total_cap_ff(), 15.0);
    }

    #[test]
    #[should_panic(expected = "topologically ordered")]
    fn from_raw_rejects_disorder() {
        let _ = RcTree::from_raw(
            vec![None, Some(2), Some(0)],
            vec![0.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0],
        );
    }

    #[test]
    fn zero_length_edge_is_tolerated() {
        let mut wt = WireTree::new(Point::new(0, 0));
        let a = wt.add_child(WireTree::ROOT, Point::new(0, 0));
        let t = RcTree::extract(&wt, rc(), &[(a, 2.0)], 1e9);
        assert_eq!(t.total_cap_ff(), 2.0);
    }
}
