//! Moment computation and delay/slew metrics on RC trees.

use crate::rc::RcTree;

/// Which wire delay metric to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireModel {
    /// First-moment (Elmore) delay — pessimistic but additive.
    Elmore,
    /// Two-moment D2M metric `ln2 · m1² / √m̃2` — close to SPICE for far
    /// nodes, never above Elmore.
    D2m,
}

/// First/second moments and derived delay & slew metrics at every node of
/// an [`RcTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetTiming {
    /// First moment (= Elmore delay), ps, per RC node.
    m1: Vec<f64>,
    /// Second moment `m̃2 = Σ R·C·m1`, ps², per RC node.
    m2: Vec<f64>,
    /// Total net capacitance, fF.
    total_cap_ff: f64,
}

impl NetTiming {
    /// Computes moments for every node of `tree` in O(n).
    pub fn analyze(tree: &RcTree) -> Self {
        let mut nt = NetTiming {
            m1: Vec::new(),
            m2: Vec::new(),
            total_cap_ff: 0.0,
        };
        nt.analyze_into(tree);
        nt
    }

    /// [`NetTiming::analyze`] into `self`, reusing its buffers: `self`
    /// afterwards equals `NetTiming::analyze(tree)`, whatever it held
    /// before.
    pub fn analyze_into(&mut self, tree: &RcTree) {
        let n = tree.node_count();
        let (m1, m2) = (&mut self.m1, &mut self.m2);
        // Downstream capacitance per node (reverse topological order works
        // because parents precede children), held in `m2` until m1 is done.
        let down_cap = &mut *m2;
        down_cap.clear();
        down_cap.extend((0..n).map(|i| tree.cap_ff(i)));
        for i in (1..n).rev() {
            let p = tree.parent(i).expect("non-root");
            down_cap[p] += down_cap[i];
        }
        // m1 (Elmore): m1(child) = m1(parent) + R_edge * downstream cap
        m1.clear();
        m1.resize(n, 0.0);
        for i in 1..n {
            let p = tree.parent(i).expect("non-root");
            m1[i] = m1[p] + tree.res_kohm(i) * down_cap[i];
        }
        // m̃2: same recursion with cap weights C·m1; the weights are
        // summed in place, and a forward pass then overwrites each node's
        // weight with its m̃2 (a parent's slot already holds m̃2)
        let down_w = &mut *m2;
        for (i, w) in down_w.iter_mut().enumerate() {
            *w = tree.cap_ff(i) * m1[i];
        }
        for i in (1..n).rev() {
            let p = tree.parent(i).expect("non-root");
            down_w[p] += down_w[i];
        }
        if n > 0 {
            m2[0] = 0.0;
        }
        for i in 1..n {
            let p = tree.parent(i).expect("non-root");
            m2[i] = m2[p] + tree.res_kohm(i) * m2[i];
        }
        self.total_cap_ff = tree.total_cap_ff();
    }

    /// Elmore delay from the driver to node `i`, ps.
    pub fn elmore_ps(&self, i: usize) -> f64 {
        self.m1[i]
    }

    /// Second moment `m̃2` at node `i`, ps².
    pub fn m2(&self, i: usize) -> f64 {
        self.m2[i]
    }

    /// Wire delay to node `i` under the chosen metric, ps.
    ///
    /// D2M = `ln2 · m1² / √m̃2`; when `m̃2` is zero (zero-resistance path)
    /// the delay is zero.
    pub fn delay_ps(&self, i: usize, model: WireModel) -> f64 {
        match model {
            WireModel::Elmore => self.m1[i],
            WireModel::D2m => {
                let m2 = self.m2[i];
                if m2 <= 0.0 {
                    0.0
                } else {
                    std::f64::consts::LN_2 * self.m1[i] * self.m1[i] / m2.sqrt()
                }
            }
        }
    }

    /// Two-moment wire slew (10–90%-like) at node `i`, ps:
    /// `ln9 · √(2·m̃2 − m1²)`, clamped at 0 for near-lumped nets.
    pub fn wire_slew_ps(&self, i: usize) -> f64 {
        let var = 2.0 * self.m2[i] - self.m1[i] * self.m1[i];
        if var <= 0.0 {
            0.0
        } else {
            (9.0f64).ln() * var.sqrt()
        }
    }

    /// Total capacitance the driver sees, fF.
    pub fn total_cap_ff(&self) -> f64 {
        self.total_cap_ff
    }

    /// Number of analyzed nodes.
    pub fn node_count(&self) -> usize {
        self.m1.len()
    }
}

/// PERI slew propagation: combines the driver's output transition with the
/// wire's impulse-response spread, `slew = √(gate² + wire²)`.
pub fn peri_slew(gate_slew_ps: f64, wire_slew_ps: f64) -> f64 {
    (gate_slew_ps * gate_slew_ps + wire_slew_ps * wire_slew_ps).sqrt()
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use clk_geom::Point;
    use clk_liberty::WireRc;
    use clk_route::WireTree;

    /// Single lumped RC: R = 1 kΩ, C = 10 fF at the far node.
    fn single_rc() -> RcTree {
        RcTree::from_raw(vec![None, Some(0)], vec![0.0, 1.0], vec![0.0, 10.0])
    }

    #[test]
    fn reused_buffers_give_the_bits_of_fresh_ones() {
        let rc = WireRc {
            r_per_um: 2.0e-3,
            c_per_um: 0.2,
        };
        // a branching 3-pin net, then a smaller 2-pin one into the same
        // buffers: leftovers of the larger net must not leak
        let mut big = WireTree::new(Point::new(0, 0));
        let a = big.add_child(WireTree::ROOT, Point::new(40_000, 0));
        let b = big.add_child(a, Point::new(40_000, 25_000));
        let c = big.add_child(a, Point::new(70_000, 0));
        let mut small = WireTree::new(Point::new(5_000, 5_000));
        let d = small.add_child(WireTree::ROOT, Point::new(5_000, 17_000));
        let mut wt = WireTree::new(Point::new(0, 0));
        let mut rct = RcTree::extract(&big, rc, &[(b, 1.5), (c, 2.0)], 5.0);
        let mut nt = NetTiming::analyze(&rct);
        for (tree, loads) in [(&small, vec![(d, 0.7)]), (&big, vec![(b, 1.5), (c, 2.0)])] {
            wt.reset(tree.point(WireTree::ROOT));
            for i in tree.topo_order().skip(1) {
                let p = tree.parent(i).expect("non-root");
                wt.add_child(p, tree.point(i));
            }
            assert_eq!(&wt, tree);
            rct.extract_into(&wt, rc, &loads, 5.0);
            let fresh = RcTree::extract(tree, rc, &loads, 5.0);
            assert_eq!(rct, fresh);
            nt.analyze_into(&rct);
            let fresh_nt = NetTiming::analyze(&fresh);
            for i in 0..fresh.node_count() {
                assert_eq!(nt.elmore_ps(i).to_bits(), fresh_nt.elmore_ps(i).to_bits());
                assert_eq!(nt.m2(i).to_bits(), fresh_nt.m2(i).to_bits());
            }
            assert_eq!(nt, fresh_nt);
        }
    }

    #[test]
    fn elmore_of_single_rc_is_rc() {
        let t = NetTiming::analyze(&single_rc());
        assert!((t.elmore_ps(1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn d2m_of_single_lumped_rc_is_ln2_rc() {
        // m1 = RC, m̃2 = R·C·m1 = (RC)², so D2M = ln2·RC — the exact 50%
        // point of a single-pole response.
        let t = NetTiming::analyze(&single_rc());
        let d = t.delay_ps(1, WireModel::D2m);
        assert!((d - std::f64::consts::LN_2 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn d2m_never_exceeds_elmore() {
        // branchy tree with assorted values
        let tree = RcTree::from_raw(
            vec![None, Some(0), Some(1), Some(1), Some(0), Some(4)],
            vec![0.0, 0.5, 1.0, 2.0, 0.3, 0.9],
            vec![1.0, 2.0, 4.0, 3.0, 5.0, 2.5],
        );
        let t = NetTiming::analyze(&tree);
        for i in 1..tree.node_count() {
            assert!(
                t.delay_ps(i, WireModel::D2m) <= t.elmore_ps(i) + 1e-12,
                "node {i}"
            );
        }
    }

    #[test]
    fn elmore_monotone_along_a_path() {
        let tree = RcTree::from_raw(
            vec![None, Some(0), Some(1), Some(2)],
            vec![0.0, 1.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0, 1.0],
        );
        let t = NetTiming::analyze(&tree);
        assert!(t.elmore_ps(1) < t.elmore_ps(2));
        assert!(t.elmore_ps(2) < t.elmore_ps(3));
    }

    #[test]
    fn distributed_line_approaches_half_rc() {
        // A uniformly distributed RC line's Elmore delay tends to R·C/2 as
        // segmentation is refined (vs R·C for the lumped model).
        let mut wt = WireTree::new(Point::new(0, 0));
        let far = wt.add_child(WireTree::ROOT, Point::new(1_000_000, 0)); // 1000 µm
        let rc = WireRc {
            r_per_um: 1.0e-3,
            c_per_um: 0.1,
        };
        let total_r = 1.0; // kΩ
        let total_c = 100.0; // fF
        let fine = RcTree::extract(&wt, rc, &[], 5.0);
        let tf = NetTiming::analyze(&fine);
        let elmore_fine = tf.elmore_ps(fine.rc_node_of_wire_node(far));
        assert!(
            (elmore_fine - total_r * total_c / 2.0).abs() / (total_r * total_c / 2.0) < 0.02,
            "got {elmore_fine}"
        );
        let lumped = RcTree::extract(&wt, rc, &[], 1e9);
        let tl = NetTiming::analyze(&lumped);
        let elmore_lumped = tl.elmore_ps(lumped.rc_node_of_wire_node(far));
        // π-model lumping already gives RC/2 for a single wire with no load
        assert!(elmore_lumped >= elmore_fine * 0.95);
    }

    #[test]
    fn elmore_monotone_in_r_and_c() {
        let base = RcTree::from_raw(vec![None, Some(0)], vec![0.0, 1.0], vec![0.0, 10.0]);
        let more_r = RcTree::from_raw(vec![None, Some(0)], vec![0.0, 2.0], vec![0.0, 10.0]);
        let more_c = RcTree::from_raw(vec![None, Some(0)], vec![0.0, 1.0], vec![0.0, 20.0]);
        let b = NetTiming::analyze(&base).elmore_ps(1);
        assert!(NetTiming::analyze(&more_r).elmore_ps(1) > b);
        assert!(NetTiming::analyze(&more_c).elmore_ps(1) > b);
    }

    #[test]
    fn wire_slew_zero_for_lumpless_node() {
        let t = NetTiming::analyze(&single_rc());
        assert_eq!(t.wire_slew_ps(0), 0.0);
        assert!(t.wire_slew_ps(1) >= 0.0);
    }

    #[test]
    fn peri_combines_quadratically() {
        assert!((peri_slew(3.0, 4.0) - 5.0).abs() < 1e-12);
        assert_eq!(peri_slew(0.0, 7.0), 7.0);
        assert_eq!(peri_slew(7.0, 0.0), 7.0);
    }

    #[test]
    fn sibling_branches_do_not_share_delay() {
        // Two equal branches from the root: delay to each depends on its
        // own R but the shared cap loads both (Elmore common-path rule).
        let tree = RcTree::from_raw(
            vec![None, Some(0), Some(0)],
            vec![0.0, 1.0, 1.0],
            vec![0.0, 10.0, 30.0],
        );
        let t = NetTiming::analyze(&tree);
        // R_common(root->1, cap at 2) = 0 so node 2's cap doesn't slow node 1
        assert!((t.elmore_ps(1) - 10.0).abs() < 1e-12);
        assert!((t.elmore_ps(2) - 30.0).abs() < 1e-12);
    }
}
