//! Per-layer figures for the traced run.
//!
//! Two sources, both outside the program's crates:
//!
//! * [`observe`] reads the counters, span histograms and profiler
//!   scopes the flow already emits when built with
//!   `ObsConfig { profile: true }`;
//! * [`replay`] times calls into each layer's public functions on the
//!   tree a local iteration ranks (or, for a global-only flow, the tree
//!   the flow returned): full and incremental STA, move enumeration and
//!   application, the predictor's ranking and its stages, and the
//!   routing and RC-extraction kernels on the candidate moves' driver
//!   nets.
//!
//! [`explained_ms`] multiplies the replayed kernel costs by the flow's own
//! counts and compares the sum with the phase wall clock.

use std::collections::BTreeMap;
use std::hint::black_box;

use clk_cts::Testcase;
use clk_delay::RcTree;
use clk_liberty::CornerId;
use clk_netlist::{ClockTree, NodeId, NodeKind};
use clk_obs::{wall_now, AttrNode, MetricValue, MetricsSnapshot};
use clk_route::{rsmt, single_trunk};
use clk_skewopt::predictor::move_features_with_sides;
use clk_skewopt::{
    apply_move, enumerate_moves, predict_move_gain, touched_drivers, DeltaLatencyModel, FlowConfig,
    Move, Ranker,
};
use clk_sta::{alpha_factors, try_pair_skews, Timer};

use crate::stats::median;

/// At most this many candidate moves per case are replayed; the
/// per-move kernels are averaged over an even stride of the list, each
/// kernel over the whole sample in its own loop.
const MOVE_SAMPLE: usize = 128;
/// Repetitions of each whole-tree kernel (full STA, enumeration).
const TREE_REPS: usize = 5;

/// Deterministic counts one traced flow produced on one case. They
/// must repeat exactly from pass to pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `global.rounds`.
    pub global_rounds: u64,
    /// `global.lp_rows_built`.
    pub lp_rows_built: u64,
    /// `global.eco_accepted`.
    pub eco_accepted: u64,
    /// Every ECO arc outcome: accepted, rolled back, unrealizable or
    /// interrupted.
    pub eco_tried: u64,
    /// `lp.solves`.
    pub lp_solves: u64,
    /// `lp.pivots`.
    pub lp_pivots: u64,
    /// `lp.degenerate_pivots`.
    pub lp_degenerate: u64,
    /// `cert.checks`.
    pub cert_checks: u64,
    /// Local iterations: how often the `local.predict` scope ran.
    pub local_iterations: u64,
    /// `local.golden_evals`.
    pub golden_evals: u64,
    /// `local.accepted`.
    pub accepted: u64,
    /// `local.predicted_positive`.
    pub predicted_positive: u64,
    /// `sta.nodes_timed` (coordinator-side analyses only).
    pub nodes_timed: u64,
}

/// Durations one traced flow spent in each instrumented layer, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// `phase.global` span.
    pub global_phase: f64,
    /// `phase.local` span.
    pub local_phase: f64,
    /// `lp.solve` scope.
    pub lp_solve: f64,
    /// `pricing` scopes.
    pub pricing: f64,
    /// `ratio_test` scopes.
    pub ratio_test: f64,
    /// `basis_update` scopes.
    pub basis_update: f64,
    /// `cert.check.ms` histogram.
    pub cert_check: f64,
    /// `local.predict` scope.
    pub predict: f64,
    /// `local.batch` scope.
    pub batch: f64,
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    match s.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

fn hist_sum(s: &MetricsSnapshot, name: &str) -> f64 {
    match s.get(name) {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0.0,
    }
}

fn scope_count(n: &AttrNode, name: &str) -> u64 {
    let own = if n.name == name { n.count } else { 0 };
    own + n.children.iter().map(|c| scope_count(c, name)).sum::<u64>()
}

fn scope_ms(n: &AttrNode, name: &str) -> f64 {
    n.total_ns_of(name) as f64 / 1e6
}

/// Reads one traced flow's metrics snapshot and profiler tree.
pub fn observe(s: &MetricsSnapshot, prof: &AttrNode) -> (Counts, Times) {
    let eco_accepted = counter(s, "global.eco_accepted");
    let counts = Counts {
        global_rounds: counter(s, "global.rounds"),
        lp_rows_built: counter(s, "global.lp_rows_built"),
        eco_accepted,
        eco_tried: eco_accepted
            + counter(s, "global.eco_rollback")
            + counter(s, "global.eco_unrealizable")
            + counter(s, "global.eco_interrupted"),
        lp_solves: counter(s, "lp.solves"),
        lp_pivots: counter(s, "lp.pivots"),
        lp_degenerate: counter(s, "lp.degenerate_pivots"),
        cert_checks: counter(s, "cert.checks"),
        local_iterations: scope_count(prof, "local.predict"),
        golden_evals: counter(s, "local.golden_evals"),
        accepted: counter(s, "local.accepted"),
        predicted_positive: counter(s, "local.predicted_positive"),
        nodes_timed: counter(s, "sta.nodes_timed"),
    };
    let times = Times {
        global_phase: hist_sum(s, "span.phase.global.ms"),
        local_phase: hist_sum(s, "span.phase.local.ms"),
        lp_solve: scope_ms(prof, "lp.solve"),
        pricing: scope_ms(prof, "pricing"),
        ratio_test: scope_ms(prof, "ratio_test"),
        basis_update: scope_ms(prof, "basis_update"),
        cert_check: hist_sum(s, "cert.check.ms"),
        predict: scope_ms(prof, "local.predict"),
        batch: scope_ms(prof, "local.batch"),
    };
    (counts, times)
}

/// Median over passes of one field of a case's [`Times`].
pub fn median_of(passes: &[Times], field: impl Fn(&Times) -> f64) -> f64 {
    median(&passes.iter().map(field).collect::<Vec<_>>())
}

/// Replayed kernel costs on one case's tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    /// One full multi-corner golden analysis, ms.
    pub sta_full_ms: f64,
    /// Whether the move/predictor/route/incremental kernels ran (only
    /// when the workload has a local phase).
    pub local: bool,
    /// Candidate moves of the tree.
    pub enumerated: u64,
    /// One `enumerate_moves` call, ms.
    pub enumerate_ms: f64,
    /// `predict_move_gain` per move, µs.
    pub rank_us: f64,
    /// `move_features_with_sides` over every corner per move, µs.
    pub features_us: f64,
    /// `DeltaLatencyModel::predict` over every corner per move, µs.
    pub infer_us: f64,
    /// `rsmt` on the move's driver net, µs.
    pub rsmt_us: f64,
    /// `single_trunk` on the move's driver net, µs.
    pub single_trunk_us: f64,
    /// `RcTree::extract` of the driver net's Steiner tree, µs.
    pub extract_us: f64,
    /// `apply_move` on a private clone, µs.
    pub apply_us: f64,
    /// `try_analyze_all_incremental` of the applied trial tree, ms.
    pub incremental_ms: f64,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = wall_now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The net a move re-estimates first: the one its primary node drives,
/// or, for a sink, the one driving it.
fn driver_net(tree: &ClockTree, mv: &Move) -> Option<NodeId> {
    let n = mv.primary_node();
    if tree.children(n).is_empty() {
        tree.parent(n)
    } else {
        Some(n)
    }
}

fn pin_cap(tree: &ClockTree, lib: &clk_liberty::Library, n: NodeId) -> f64 {
    match tree.node(n).kind {
        NodeKind::Buffer(c) => lib.cell(c).input_cap_ff,
        NodeKind::Sink | NodeKind::Source => lib.sink_cap_ff(),
    }
}

/// Times each layer's public kernels on `tree`. With a model (the
/// workload runs a local phase) every kernel runs; without one only the
/// full STA does.
///
/// # Errors
///
/// The tree cannot be timed.
pub fn replay(
    tc: &Testcase,
    tree: &ClockTree,
    cfg: &FlowConfig,
    model: Option<&DeltaLatencyModel>,
) -> Result<Kernels, String> {
    let lib = &tc.lib;
    let timer = Timer::golden();
    let mut full = Vec::with_capacity(TREE_REPS);
    let mut timings = Vec::new();
    for _ in 0..TREE_REPS {
        let (t, ms) = time_ms(|| timer.try_analyze_all(tree, lib));
        timings = t.map_err(|e| format!("replay STA failed: {e}"))?;
        full.push(ms);
    }
    let mut k = Kernels {
        sta_full_ms: median(&full),
        ..Kernels::default()
    };
    let Some(model) = model else {
        return Ok(k);
    };
    k.local = true;
    let mcfg = &cfg.local.move_cfg;
    let pairs = tree.sink_pairs().to_vec();
    let skews = timings
        .iter()
        .map(|t| try_pair_skews(t, &pairs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("replay skews failed: {e}"))?;
    let alphas = alpha_factors(&skews);

    let mut enum_ms = Vec::with_capacity(TREE_REPS);
    let mut moves = Vec::new();
    for _ in 0..TREE_REPS {
        let (m, ms) = time_ms(|| enumerate_moves(tree, lib, mcfg, None));
        moves = m;
        enum_ms.push(ms);
    }
    k.enumerated = moves.len() as u64;
    k.enumerate_ms = median(&enum_ms);

    let stride = moves.len().div_ceil(MOVE_SAMPLE).max(1);
    let sample: Vec<&Move> = moves.iter().step_by(stride).collect();
    let n_corners = timings.len();
    // each kernel runs over the whole sample in its own loop, so one
    // kernel's working set does not evict the next one's
    let mut cache = BTreeMap::new();
    let (_, rank) = time_ms(|| {
        for &mv in &sample {
            black_box(predict_move_gain(
                tree,
                lib,
                &timings,
                &pairs,
                &alphas,
                mv,
                mcfg,
                Ranker::Ml(model),
                &mut cache,
            ));
        }
    });
    let (features, feats) = time_ms(|| {
        sample
            .iter()
            .map(|&mv| {
                (0..n_corners)
                    .map(|c| {
                        move_features_with_sides(tree, lib, CornerId(c), &timings[c], mv, mcfg).0
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let (_, infer) = time_ms(|| {
        for f in &features {
            for (c, x) in f.iter().enumerate() {
                black_box(model.predict(CornerId(c), x));
            }
        }
    });

    // (driver location, pin locations, pin caps) of each driver net
    let nets: Vec<_> = sample
        .iter()
        .filter_map(|&mv| {
            let d = driver_net(tree, mv)?;
            let kids = tree.children(d);
            let pts: Vec<_> = kids.iter().map(|&c| tree.loc(c)).collect();
            let caps: Vec<_> = kids.iter().map(|&c| pin_cap(tree, lib, c)).collect();
            Some((tree.loc(d), pts, caps))
        })
        .collect();
    let (wts, rsmt_ms) = time_ms(|| {
        nets.iter()
            .map(|(d, pts, _)| rsmt(*d, pts))
            .collect::<Vec<_>>()
    });
    let (_, trunk_ms) = time_ms(|| {
        for (d, pts, _) in &nets {
            black_box(single_trunk(*d, pts));
        }
    });
    let loads: Vec<Vec<(usize, f64)>> = wts
        .iter()
        .zip(&nets)
        .map(|(wt, (_, pts, caps))| {
            pts.iter()
                .zip(caps)
                .filter_map(|(&p, &cap)| wt.index_of(p).map(|i| (i, cap)))
                .collect()
        })
        .collect();
    let (_, extract_ms) = time_ms(|| {
        for (wt, l) in wts.iter().zip(&loads) {
            black_box(RcTree::extract(wt, lib.wire_rc(CornerId(0)), l, 1.0e9));
        }
    });

    let mut trials: Vec<(ClockTree, Vec<NodeId>)> = sample
        .iter()
        .map(|&mv| (tree.clone(), touched_drivers(tree, mv)))
        .collect();
    let (applied, apply_ms) = time_ms(|| {
        trials
            .iter_mut()
            .zip(&sample)
            .map(|((t, _), mv)| apply_move(t, lib, &tc.floorplan, mcfg, mv).is_ok())
            .collect::<Vec<_>>()
    });
    trials = trials
        .into_iter()
        .zip(&applied)
        .filter_map(|(t, &ok)| ok.then_some(t))
        .collect();
    let (timed, incr_ms) = time_ms(|| {
        trials
            .iter()
            .filter(|(t, dirty)| {
                timer
                    .try_analyze_all_incremental(t, lib, &timings, dirty)
                    .is_ok()
            })
            .count()
    });
    let n = sample.len();
    k.rank_us = mean(rank, n) * 1e3;
    k.features_us = mean(feats, n) * 1e3;
    k.infer_us = mean(infer, n) * 1e3;
    k.rsmt_us = mean(rsmt_ms, nets.len()) * 1e3;
    k.single_trunk_us = mean(trunk_ms, nets.len()) * 1e3;
    k.extract_us = mean(extract_ms, nets.len()) * 1e3;
    k.apply_us = mean(apply_ms, n) * 1e3;
    k.incremental_ms = mean(incr_ms, timed);
    Ok(k)
}

/// Phase wall clock explained by kernel cost × count, for one case.
///
/// * global: the simplex solves and their certificate checks;
/// * local: per iteration one full STA and one enumeration, one ranking
///   per candidate move, and per golden evaluation one apply plus one
///   incremental STA, spread over the workers that evaluate a batch.
pub fn explained_ms(c: &Counts, lp_solve_ms: f64, cert_ms: f64, k: &Kernels, lanes: f64) -> f64 {
    let it = c.local_iterations as f64;
    let ranked = (k.enumerated * c.local_iterations) as f64;
    let evals = c.golden_evals as f64;
    lp_solve_ms
        + cert_ms
        + it * (k.sta_full_ms + k.enumerate_ms)
        + ranked * k.rank_us / 1e3
        + evals * (k.apply_us / 1e3 + k.incremental_ms) / lanes
}
