//! Stage-delay lookup-table characterization (paper §4.1, Figs. 2–3).
//!
//! The ECO engine never asks the golden timer "what would this buffer
//! chain's delay be" during optimization — that knowledge is characterized
//! **once per technology** into lookup tables, exactly as the paper does:
//! for every (corner, inverter size, inter-inverter spacing 10–200 µm in
//! 5 µm steps) we build a long uniform repeater chain, time it with the
//! golden timer, and record the steady-state per-inverter stage delay, the
//! steady-state slew, and the tail (last inverter + final wire segment)
//! delay.
//!
//! From the same tables we derive the cross-corner **delay-ratio bounds**
//! of Fig. 2: for a given stage delay per unit distance at the nominal
//! corner, the achievable ratio `stage_k / stage_0` is boxed by polynomial
//! curves `W_min(x)`, `W_max(x)` — constraint (11) of the LP.

use std::cell::Cell;

use clk_geom::Point;
use clk_liberty::{CellId, CornerId, Library, Lut1, Lut2, WireRc};
use clk_ml::{polyfit, polyval};
use clk_netlist::{ClockTree, NodeKind};
use clk_sta::Timer;

/// Inter-inverter spacings characterized, µm (paper: 10–200 step 5).
pub fn spacing_axis() -> Vec<f64> {
    (0..=38).map(|i| 10.0 + 5.0 * f64::from(i)).collect()
}

/// Number of same-size inverters in the characterization chain.
const CHAIN_LEN: usize = 8;

/// Per-technology stage-delay tables (`LUT_uniform` plus the data the
/// detailed first/last-stage estimates need).
#[derive(Debug, Clone)]
pub struct StageLuts {
    /// `[corner][size]` → per-inverter steady-state stage delay vs spacing.
    uniform: Vec<Vec<Lut1>>,
    /// `[corner][size]` → steady-state input slew vs spacing.
    slew: Vec<Vec<Lut1>>,
    /// `[corner][size]` → tail delay (last inverter + final segment) vs
    /// spacing.
    tail: Vec<Vec<Lut1>>,
    n_sizes: usize,
    n_corners: usize,
}

impl StageLuts {
    /// Characterizes the tables for `lib` with the golden timer. One-time
    /// cost per technology (the paper's tables are reused across designs).
    pub fn characterize(lib: &Library) -> Self {
        let spacings = spacing_axis();
        let timer = Timer::golden();
        let n_sizes = lib.cells().len();
        let n_corners = lib.corner_count();
        let mut uniform = vec![Vec::with_capacity(n_sizes); n_corners];
        let mut slew = vec![Vec::with_capacity(n_sizes); n_corners];
        let mut tail = vec![Vec::with_capacity(n_sizes); n_corners];
        for size in 0..n_sizes {
            // build one chain per spacing, reused across corners
            let cases: Vec<(ClockTree, Vec<clk_netlist::NodeId>, clk_netlist::NodeId)> = spacings
                .iter()
                .map(|&q| chain_tree(lib, CellId(size), q))
                .collect();
            for k in 0..n_corners {
                let mut d_stage = Vec::with_capacity(spacings.len());
                let mut d_slew = Vec::with_capacity(spacings.len());
                let mut d_tail = Vec::with_capacity(spacings.len());
                for (tree, invs, sink) in &cases {
                    let t = timer.analyze(tree, lib, CornerId(k));
                    let a = CHAIN_LEN / 2;
                    let b = CHAIN_LEN - 1;
                    let per_stage =
                        (t.arrival_ps(invs[b]) - t.arrival_ps(invs[a])) / (b - a) as f64;
                    d_stage.push(per_stage);
                    d_slew.push(t.slew_ps(invs[b]));
                    d_tail.push(t.arrival_ps(*sink) - t.arrival_ps(invs[b]));
                }
                uniform[k].push(Lut1::new(spacings.clone(), d_stage).expect("valid axis"));
                slew[k].push(Lut1::new(spacings.clone(), d_slew).expect("valid axis"));
                tail[k].push(Lut1::new(spacings.clone(), d_tail).expect("valid axis"));
            }
        }
        StageLuts {
            uniform,
            slew,
            tail,
            n_sizes,
            n_corners,
        }
    }

    /// Steady-state per-inverter stage delay, ps.
    pub fn stage_delay(&self, corner: CornerId, size: CellId, spacing_um: f64) -> f64 {
        self.uniform[corner.0][size.0].eval(spacing_um)
    }

    /// Steady-state slew at an inverter input inside the chain, ps.
    pub fn steady_slew(&self, corner: CornerId, size: CellId, spacing_um: f64) -> f64 {
        self.slew[corner.0][size.0].eval(spacing_um)
    }

    /// Tail delay: the last inverter's gate delay plus the final wire
    /// segment into the arc's end junction, ps.
    pub fn tail_delay(&self, corner: CornerId, size: CellId, spacing_um: f64) -> f64 {
        self.tail[corner.0][size.0].eval(spacing_um)
    }

    /// Number of characterized sizes.
    pub fn n_sizes(&self) -> usize {
        self.n_sizes
    }

    /// Number of characterized corners.
    pub fn n_corners(&self) -> usize {
        self.n_corners
    }

    /// Estimated arc delay for a chain of `n_inv` inverters of `size`
    /// spaced `spacing_um` apart, entered through a driver whose gate
    /// delay is estimated from `drv_cell` and live slew (`LUT_detail`'s
    /// role for the first stage), ps.
    ///
    /// The route this realizes is `(n_inv + 1) · spacing` long. A caller
    /// that estimates many candidates of one arc builds an
    /// `ArcEstimator` instead; this is one call of a fresh one.
    #[allow(clippy::too_many_arguments)]
    pub fn arc_delay_estimate(
        &self,
        lib: &Library,
        corner: CornerId,
        drv_cell: CellId,
        drv_slew_ps: f64,
        size: CellId,
        spacing_um: f64,
        n_inv: usize,
        end_load_ff: f64,
    ) -> f64 {
        ArcEstimator::new(self, lib, corner, drv_cell, drv_slew_ps, end_load_ff)
            .estimate(size, spacing_um, n_inv)
    }

    /// `D_min` of LP constraint (10): the smallest arc delay achievable
    /// with optimal buffer insertion and **no routing detour** over a
    /// span of `length_um`, ps.
    pub fn min_arc_delay(
        &self,
        lib: &Library,
        corner: CornerId,
        drv_cell: CellId,
        drv_slew_ps: f64,
        length_um: f64,
        end_load_ff: f64,
    ) -> f64 {
        let est = ArcEstimator::new(self, lib, corner, drv_cell, drv_slew_ps, end_load_ff);
        let mut best = est.estimate(drv_cell, length_um, 0);
        for size in 0..self.n_sizes {
            // even inverter counts preserve clock polarity
            for pairs in 1..=6usize {
                let n_inv = 2 * pairs;
                let spacing = length_um / (n_inv + 1) as f64;
                if spacing < 5.0 {
                    break;
                }
                best = best.min(est.estimate(CellId(size), spacing, n_inv));
            }
        }
        best
    }
}

/// [`StageLuts::arc_delay_estimate`] for one arc at one corner, with
/// everything that does not depend on the candidate chain looked up
/// once: the corner's wire parasitics, the driver's delay table, its
/// input slew and the arc's end load.
///
/// It also remembers the table segments of the last estimate, one hint
/// for the driver table's slew and load axes and one for the stage
/// tables' spacing axis (every size and corner shares it). A search is
/// skipped only while a point stays in its hinted segment, so each
/// estimate is bit-identical to a fresh one. The driver's slew axis
/// always stays put, its load moves little between candidates, and the
/// tail table reuses the stage table's spacing segment; only the stage
/// lookup's spacing, which jumps between the sizing search's probes,
/// misses often (EXPERIMENTS.md has the hit rates).
#[derive(Debug)]
pub(crate) struct ArcEstimator<'a> {
    luts: &'a StageLuts,
    lib: &'a Library,
    corner: CornerId,
    wire: WireRc,
    drv: &'a Lut2,
    drv_slew_ps: f64,
    end_load_ff: f64,
    drv_hint: Cell<[usize; 2]>,
    spacing_hint: Cell<usize>,
}

impl<'a> ArcEstimator<'a> {
    /// The estimator of an arc driven by `drv_cell` at input slew
    /// `drv_slew_ps` into an end load of `end_load_ff`, at `corner`.
    pub(crate) fn new(
        luts: &'a StageLuts,
        lib: &'a Library,
        corner: CornerId,
        drv_cell: CellId,
        drv_slew_ps: f64,
        end_load_ff: f64,
    ) -> Self {
        ArcEstimator {
            luts,
            lib,
            corner,
            wire: lib.wire_rc(corner),
            drv: lib.delay_table(drv_cell, corner),
            drv_slew_ps,
            end_load_ff,
            drv_hint: Cell::new([0, 0]),
            spacing_hint: Cell::new(0),
        }
    }

    /// The driver's gate delay into `load_ff`.
    fn drv_delay(&self, load_ff: f64) -> f64 {
        let mut hint = self.drv_hint.get();
        let d = self.drv.eval_hinted(self.drv_slew_ps, load_ff, &mut hint);
        self.drv_hint.set(hint);
        d
    }

    /// Estimated delay of a chain of `n_inv` inverters of `size` spaced
    /// `spacing_um` apart, ps; see [`StageLuts::arc_delay_estimate`].
    pub(crate) fn estimate(&self, size: CellId, spacing_um: f64, n_inv: usize) -> f64 {
        let wire = self.wire;
        if n_inv == 0 {
            // wire-only arc: driver gate + full-span wire into the end load
            let c_wire = wire.c_per_um * spacing_um;
            let gate = self.drv_delay(c_wire + self.end_load_ff);
            let wdel = wire.r_per_um * spacing_um * (c_wire / 2.0 + self.end_load_ff);
            return gate + wdel;
        }
        let cin = self.lib.cell(size).input_cap_ff;
        // first stage: the junction driver into the first chain inverter
        let c_seg = wire.c_per_um * spacing_um;
        let gate_a = self.drv_delay(c_seg + cin);
        let wire_a = wire.r_per_um * spacing_um * (c_seg / 2.0 + cin);
        // middle: steady-state stages; last: tail from the table
        let (k, p) = (self.corner.0, size.0);
        let mut hint = self.spacing_hint.get();
        let stage = self.luts.uniform[k][p].eval_hinted(spacing_um, &mut hint);
        let tail = self.luts.tail[k][p].eval_hinted(spacing_um, &mut hint);
        self.spacing_hint.set(hint);
        gate_a + wire_a + (n_inv as f64 - 1.0) * stage + tail
    }
}

/// Builds the uniform characterization chain: source → `CHAIN_LEN`
/// inverters of `size` spaced `q` µm → sink one segment later. Returns
/// (tree, inverter ids in order, sink id).
fn chain_tree(
    lib: &Library,
    size: CellId,
    q: f64,
) -> (ClockTree, Vec<clk_netlist::NodeId>, clk_netlist::NodeId) {
    let src_cell = CellId(lib.cells().len() - 1);
    let mut tree = ClockTree::new(Point::from_um(0.0, 0.0), src_cell);
    let mut prev = tree.root();
    let mut invs = Vec::with_capacity(CHAIN_LEN);
    for i in 1..=CHAIN_LEN {
        let n = tree.add_node(
            NodeKind::Buffer(size),
            Point::from_um(q * i as f64, 0.0),
            prev,
        );
        invs.push(n);
        prev = n;
    }
    let sink = tree.add_node(
        NodeKind::Sink,
        Point::from_um(q * (CHAIN_LEN + 1) as f64, 0.0),
        prev,
    );
    (tree, invs, sink)
}

/// The polynomial delay-ratio feasibility corridor of Fig. 2 for one
/// corner pair: `W_min(x) ≤ stage_k / stage_base ≤ W_max(x)` where `x` is
/// the stage delay per unit distance at the base corner.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioBounds {
    poly_lo: Vec<f64>,
    poly_hi: Vec<f64>,
    x_min: f64,
    x_max: f64,
}

impl RatioBounds {
    /// `(W_min, W_max)` at stage-delay-per-µm `x` (clamped into the
    /// characterized range).
    pub fn bounds(&self, x: f64) -> (f64, f64) {
        let x = x.clamp(self.x_min, self.x_max);
        let lo = polyval(&self.poly_lo, x);
        let hi = polyval(&self.poly_hi, x);
        if lo <= hi {
            (lo, hi)
        } else {
            (hi, lo)
        }
    }

    /// The fitted polynomial of the lower bound (lowest power first).
    pub fn poly_lo(&self) -> &[f64] {
        &self.poly_lo
    }

    /// The fitted polynomial of the upper bound.
    pub fn poly_hi(&self) -> &[f64] {
        &self.poly_hi
    }
}

/// The Fig. 2 scatter for corner `k` vs `base`: one point per
/// (size, spacing) — `(stage delay per µm at base, stage_k / stage_base)`.
pub fn ratio_scatter(luts: &StageLuts, k: CornerId, base: CornerId) -> Vec<(f64, f64)> {
    let mut pts = Vec::new();
    for size in 0..luts.n_sizes() {
        for &q in &spacing_axis() {
            let d0 = luts.stage_delay(base, CellId(size), q);
            let dk = luts.stage_delay(k, CellId(size), q);
            if d0 > 1e-9 {
                pts.push((d0 / q, dk / d0));
            }
        }
    }
    pts
}

/// Fits the Fig. 2 corridor: bin the scatter along `x`, take per-bin
/// extrema, fit degree-2 polynomials through them, widen by `margin`
/// (relative).
///
/// # Panics
///
/// Panics if the scatter has fewer than 3 distinct x bins.
pub fn fit_ratio_bounds(scatter: &[(f64, f64)], margin: f64) -> RatioBounds {
    assert!(!scatter.is_empty(), "empty scatter");
    let x_min = scatter.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = scatter
        .iter()
        .map(|p| p.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let n_bins = 10usize;
    let width = ((x_max - x_min) / n_bins as f64).max(1e-12);
    let mut lo = vec![(f64::INFINITY, 0.0f64); n_bins];
    let mut hi = vec![(f64::NEG_INFINITY, 0.0f64); n_bins];
    let mut xs = vec![0.0f64; n_bins];
    let mut counts = vec![0usize; n_bins];
    for &(x, r) in scatter {
        let b = (((x - x_min) / width) as usize).min(n_bins - 1);
        if r < lo[b].0 {
            lo[b] = (r, x);
        }
        if r > hi[b].0 {
            hi[b] = (r, x);
        }
        xs[b] += x;
        counts[b] += 1;
    }
    let mut lo_x = Vec::new();
    let mut lo_y = Vec::new();
    let mut hi_x = Vec::new();
    let mut hi_y = Vec::new();
    for b in 0..n_bins {
        if counts[b] == 0 {
            continue;
        }
        lo_x.push(lo[b].1);
        lo_y.push(lo[b].0 * (1.0 - margin));
        hi_x.push(hi[b].1);
        hi_y.push(hi[b].0 * (1.0 + margin));
    }
    assert!(lo_x.len() >= 3, "need at least 3 populated bins");
    RatioBounds {
        poly_lo: polyfit(&lo_x, &lo_y, 2),
        poly_hi: polyfit(&hi_x, &hi_y, 2),
        x_min,
        x_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_liberty::StdCorners;

    fn luts() -> (Library, StageLuts) {
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let luts = StageLuts::characterize(&lib);
        (lib, luts)
    }

    #[test]
    fn stage_delay_monotone_in_spacing() {
        let (_lib, luts) = luts();
        for size in 0..luts.n_sizes() {
            let d50 = luts.stage_delay(CornerId(0), CellId(size), 50.0);
            let d150 = luts.stage_delay(CornerId(0), CellId(size), 150.0);
            assert!(d150 > d50, "size {size}: {d50} !< {d150}");
        }
    }

    #[test]
    fn corner_ratios_look_like_fig2() {
        let (_lib, luts) = luts();
        let scatter1 = ratio_scatter(&luts, CornerId(1), CornerId(0));
        let mean1: f64 = scatter1.iter().map(|p| p.1).sum::<f64>() / scatter1.len() as f64;
        assert!(mean1 > 1.5 && mean1 < 2.6, "c1/c0 mean ratio {mean1}");
        let scatter3 = ratio_scatter(&luts, CornerId(2), CornerId(0));
        let mean3: f64 = scatter3.iter().map(|p| p.1).sum::<f64>() / scatter3.len() as f64;
        assert!(mean3 > 0.25 && mean3 < 0.6, "c3/c0 mean ratio {mean3}");
    }

    #[test]
    fn ratio_bounds_cover_the_scatter() {
        let (_lib, luts) = luts();
        let scatter = ratio_scatter(&luts, CornerId(1), CornerId(0));
        let bounds = fit_ratio_bounds(&scatter, 0.03);
        let mut inside = 0usize;
        for &(x, r) in &scatter {
            let (lo, hi) = bounds.bounds(x);
            if r >= lo - 1e-9 && r <= hi + 1e-9 {
                inside += 1;
            }
        }
        // the quadratic corridor must cover nearly all points
        assert!(
            inside as f64 >= 0.97 * scatter.len() as f64,
            "{inside}/{} inside",
            scatter.len()
        );
    }

    #[test]
    fn arc_estimate_tracks_golden_chain() {
        let (lib, luts) = luts();
        // golden-time an actual chain and compare the LUT estimate
        let size = CellId(2);
        let q = 60.0;
        let (tree, invs, sink) = chain_tree(&lib, size, q);
        let t = Timer::golden().analyze(&tree, &lib, CornerId(0));
        let actual = t.arrival_ps(sink); // source input -> sink
        let est = luts.arc_delay_estimate(
            &lib,
            CornerId(0),
            tree.source_cell(),
            20.0,
            size,
            q,
            invs.len(),
            lib.sink_cap_ff(),
        );
        let rel = (est - actual).abs() / actual;
        assert!(rel < 0.08, "est {est} vs golden {actual}");
    }

    #[test]
    fn min_arc_delay_not_above_unbuffered() {
        let (lib, luts) = luts();
        for corner in lib.corner_ids() {
            let unbuffered =
                luts.arc_delay_estimate(&lib, corner, CellId(4), 20.0, CellId(4), 400.0, 0, 5.0);
            let dmin = luts.min_arc_delay(&lib, corner, CellId(4), 20.0, 400.0, 5.0);
            assert!(dmin <= unbuffered + 1e-9);
            assert!(dmin > 0.0);
        }
    }

    #[test]
    fn slew_and_tail_positive() {
        let (_lib, luts) = luts();
        assert!(luts.steady_slew(CornerId(1), CellId(1), 100.0) > 0.0);
        assert!(luts.tail_delay(CornerId(1), CellId(1), 100.0) > 0.0);
    }
}
