//! Related-work baseline: LP-based multi-mode multi-corner **worst-skew**
//! optimization in the style of Lung et al. \[VLSI-DAT'10\] (paper §2).
//!
//! The paper positions its sum-of-variation objective against prior LP
//! formulations that minimize the *worst skew across all corners*. This
//! module implements that baseline on the same substrate — same per-arc
//! Δ variables, bounds (10) and ECO engine — but with the objective
//! `min W, W ≥ |skew_{i,i'}^{c_k}|` for every pair and corner, so the two
//! philosophies can be compared head-to-head (`related_lung` experiment):
//! minimizing the worst skew tends to *not* fix cross-corner disagreement
//! between matched pairs, which is exactly the paper's motivation.

use std::collections::{BTreeMap, HashSet};

use clk_liberty::{CellId, CornerId, Library};
use clk_lp::{Problem, RowKind, VarId};
use clk_netlist::{ArcId, ArcSet, ClockTree, Floorplan, NodeId, NodeKind, SinkPair};
use clk_sta::{
    alpha_factors, arc_delays_ps, local_skew_ps, pair_skews, pair_skews_into, variation_report,
    CornerTiming, Timer, TimingUndo,
};

use crate::global::RebuildBackup;
use crate::lut::StageLuts;

/// Per-arc (pos, neg) Δ split variables, one pair per corner.
type DeltaVars = BTreeMap<ArcId, Vec<(VarId, VarId)>>;

/// Outcome of the worst-skew baseline.
#[derive(Debug, Clone)]
pub struct WorstSkewReport {
    /// Worst |skew| over pairs and corners before, ps.
    pub worst_before: f64,
    /// Worst |skew| after the accepted ECO, ps.
    pub worst_after: f64,
    /// The paper's metric, for comparison: Σ normalized variation before.
    pub variation_before: f64,
    /// Σ normalized variation after.
    pub variation_after: f64,
    /// Arcs rebuilt.
    pub arcs_changed: usize,
}

/// Runs the worst-skew LP + ECO baseline. The input tree is unchanged;
/// the optimized clone is returned with the report.
pub fn worst_skew_optimize(
    tree: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    max_pairs: usize,
    lambda: f64,
) -> (ClockTree, WorstSkewReport) {
    let timer = Timer::golden();
    let timings: Vec<CornerTiming> = timer.analyze_all(tree, lib);
    let arcs = ArcSet::extract(tree);
    let arc_d: Vec<Vec<f64>> = timings
        .iter()
        .map(|t| arc_delays_ps(tree, &arcs, t))
        .collect();
    let n_corners = lib.corner_count();
    let all_pairs = tree.sink_pairs().to_vec();
    let skews: Vec<Vec<f64>> = timings.iter().map(|t| pair_skews(t, &all_pairs)).collect();
    let alphas = alpha_factors(&skews);
    let variation_before = variation_report(&skews, &alphas, None).sum;
    let worst_before = skews
        .iter()
        .map(|s| local_skew_ps(s))
        .fold(0.0f64, f64::max);

    // select the pairs with the largest worst-corner |skew|
    let mut order: Vec<usize> = (0..all_pairs.len()).collect();
    let worst_of = |i: usize| -> f64 { skews.iter().map(|s| s[i].abs()).fold(0.0f64, f64::max) };
    order.sort_by(|&a, &b| worst_of(b).total_cmp(&worst_of(a)));
    order.truncate(max_pairs);
    let sel: Vec<SinkPair> = order.iter().map(|&i| all_pairs[i]).collect();

    let mut path_of: BTreeMap<NodeId, Vec<ArcId>> = BTreeMap::new();
    let mut involved_set: HashSet<ArcId> = HashSet::new();
    for p in &sel {
        for s in [p.a, p.b] {
            let path = path_of
                .entry(s)
                .or_insert_with(|| arcs.path_arcs(tree, s))
                .clone();
            involved_set.extend(path);
        }
    }
    let mut involved: Vec<ArcId> = involved_set.into_iter().collect();
    involved.sort_unstable();

    // --- the Lung-style LP: min W + λΣ|Δ|, W ≥ ±skew_k(Δ) ---
    // Builder failures (non-finite skews or bounds) take the same
    // graceful no-op path as an unsolvable LP.
    let built: Option<(Problem, DeltaVars)> = 'lp: {
        let mut p = Problem::new();
        let mut delta: DeltaVars = BTreeMap::new();
        for &aid in &involved {
            let arc = arcs.arc(aid);
            let len = arc.length_um(tree).max(1.0);
            let drv = tree.cell(arc.from).unwrap_or(CellId(0));
            let end_load = match tree.node(arc.to).kind {
                NodeKind::Buffer(c) => lib.cell(c).input_cap_ff,
                NodeKind::Sink => lib.sink_cap_ff(),
                NodeKind::Source => 0.0,
            };
            let mut per_corner = Vec::with_capacity(n_corners);
            for k in 0..n_corners {
                let d = arc_d[k][aid.0 as usize];
                let slew = timings[k].slew_ps(arc.from);
                let dmin = luts.min_arc_delay(lib, CornerId(k), drv, slew, len, end_load);
                let Ok(pos) = p.add_var(0.0, (0.2 * d).max(0.0), lambda) else {
                    break 'lp None;
                };
                let Ok(neg) = p.add_var(0.0, (d - dmin).max(0.0), lambda) else {
                    break 'lp None;
                };
                per_corner.push((pos, neg));
            }
            delta.insert(aid, per_corner);
        }
        let Ok(w) = p.add_var(0.0, f64::INFINITY, 1.0) else {
            break 'lp None;
        };
        for pair in &sel {
            let pa = &path_of[&pair.a];
            let pb = &path_of[&pair.b];
            let set_b: HashSet<ArcId> = pb.iter().copied().collect();
            let set_a: HashSet<ArcId> = pa.iter().copied().collect();
            let only_a: Vec<ArcId> = pa.iter().copied().filter(|x| !set_b.contains(x)).collect();
            let only_b: Vec<ArcId> = pb.iter().copied().filter(|x| !set_a.contains(x)).collect();
            for k in 0..n_corners {
                let s0 = timings[k].arrival_ps(pair.a) - timings[k].arrival_ps(pair.b);
                for sign in [1.0, -1.0] {
                    // W ≥ sign·(s0 + Σ±Δ)  ⇔  W − sign·ΣΔ-terms ≥ sign·s0
                    let mut terms = vec![(w, 1.0)];
                    for &aid in &only_a {
                        let (pos, neg) = delta[&aid][k];
                        terms.push((pos, -sign));
                        terms.push((neg, sign));
                    }
                    for &aid in &only_b {
                        let (pos, neg) = delta[&aid][k];
                        terms.push((pos, sign));
                        terms.push((neg, -sign));
                    }
                    if p.add_row(RowKind::Ge, sign * s0, &terms).is_err() {
                        break 'lp None;
                    }
                }
            }
        }
        Some((p, delta))
    };
    let Some((p, delta)) = built else {
        return (
            tree.clone(),
            WorstSkewReport {
                worst_before,
                worst_after: worst_before,
                variation_before,
                variation_after: variation_before,
                arcs_changed: 0,
            },
        );
    };
    let Ok(sol) = clk_lp::solve(&p) else {
        return (
            tree.clone(),
            WorstSkewReport {
                worst_before,
                worst_after: worst_before,
                variation_before,
                variation_after: variation_before,
                arcs_changed: 0,
            },
        );
    };

    // realize with the shared incremental ECO, accepting on worst-skew
    // improvement (the baseline's own metric)
    let mut out = tree.clone();
    // the golden analysis of `out` as it stands, advanced in place by
    // every rebuilt arc and taken back by `undo` when one is rejected
    let mut cur = timings.clone();
    let mut undo = TimingUndo::default();
    let mut skews = Vec::with_capacity(all_pairs.len());
    let mut changed = 0usize;
    let mut current_worst = worst_before;
    let mut todo: Vec<(f64, ArcId, Vec<f64>)> = involved
        .iter()
        .map(|&aid| {
            let deltas: Vec<f64> = (0..n_corners)
                .map(|k| {
                    let (pos, neg) = delta[&aid][k];
                    sol.value(pos).unwrap_or(f64::NAN) - sol.value(neg).unwrap_or(f64::NAN)
                })
                .collect();
            let worst = deltas.iter().map(|d| d.abs()).fold(0.0, f64::max);
            (worst, aid, deltas)
        })
        .filter(|(wst, ..)| *wst > 0.8)
        .collect();
    todo.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut d_lp = vec![0.0; n_corners];
    let mut d_now = vec![0.0; n_corners];
    for (_, aid, deltas) in todo {
        let arc = arcs.arc(aid);
        if !crate::global::arc_is_current(&out, arc) {
            continue;
        }
        for k in 0..n_corners {
            d_now[k] = arc_d[k][aid.0 as usize];
            d_lp[k] = arc_d[k][aid.0 as usize] + deltas[k];
        }
        let backup = RebuildBackup::of(&out, arc, &cur);
        if !crate::global::realize_arc_for_baseline(
            &mut out, lib, fp, luts, &timings, arc, &d_lp, &d_now,
        ) {
            backup.restore(&mut out);
            continue;
        }
        crate::global::retime_arc(&timer, &out, lib, &mut cur, arc, &mut undo);
        let mut worst = 0.0f64;
        for t in &cur {
            pair_skews_into(t, &all_pairs, &mut skews);
            worst = worst.max(local_skew_ps(&skews));
        }
        if worst < current_worst {
            current_worst = worst;
            changed += 1;
        } else {
            backup.restore_timed(&mut out, &mut cur, &mut undo);
        }
    }

    let final_skews: Vec<Vec<f64>> = cur.iter().map(|t| pair_skews(t, &all_pairs)).collect();
    let report = WorstSkewReport {
        worst_before,
        worst_after: current_worst,
        variation_before,
        variation_after: variation_report(&final_skews, &alphas, None).sum,
        arcs_changed: changed,
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_cts::{Testcase, TestcaseKind};

    #[test]
    fn worst_skew_baseline_never_degrades_its_own_metric() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 40, 17);
        let luts = StageLuts::characterize(&tc.lib);
        let (opt, rep) = worst_skew_optimize(&tc.tree, &tc.lib, &tc.floorplan, &luts, 30, 0.05);
        opt.validate().unwrap();
        assert!(rep.worst_after <= rep.worst_before + 1e-9);
        assert!(rep.worst_before > 0.0);
        // its variation may or may not improve — that disagreement is the
        // paper's whole point; just require the report to be coherent
        assert!(rep.variation_after.is_finite());
    }
}
