//! Integration tests of the fault-tolerant flow runtime: rollback
//! byte-identity under injected faults and raw corruption, and
//! panic-freedom of the checked flow entry points on corrupted
//! testcases (the gate-or-typed-error contract).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use proptest::prelude::*;

use clk_delay::WireModel;
use clk_geom::Point;
use clk_lint::LintLevel;
use clk_netlist::io::write_ctree;
use clk_netlist::{ClockTree, NodeId, SinkPair};
use clk_obs::{EventKind, EventRecord, Level, Obs, ObsConfig, Sink};
use clk_skewopt::predictor::Topo;
use clk_skewopt::{
    global_optimize_checked, local_optimize_checked, try_optimize_with, Deadline, FaultCtx,
    FaultKind, FaultPlan, FaultSite, Flow, FlowConfig, GlobalConfig, LocalConfig, PhaseBudget,
    Ranker, RecoveryAction, StageLuts, TreeTxn,
};

use clk_cts::{Testcase, TestcaseKind};

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        global: GlobalConfig {
            max_pairs: 30,
            lambdas: vec![0.05, 0.3],
            rounds: 1,
            ..GlobalConfig::default()
        },
        local: LocalConfig {
            max_iterations: 1,
            max_batches: 1,
            ..LocalConfig::default()
        },
        ..FlowConfig::default()
    }
}

/// Per-technology LUTs shared across cases (all Cls1v1 testcases use the
/// same synthetic library).
fn luts() -> &'static StageLuts {
    static LUTS: OnceLock<StageLuts> = OnceLock::new();
    LUTS.get_or_init(|| {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 8, 1);
        StageLuts::characterize(&tc.lib)
    })
}

/// Picks a buffer that has both a parent and a grandparent.
fn deep_buffer(tree: &ClockTree) -> NodeId {
    tree.buffers()
        .find(|&b| tree.parent(b).and_then(|p| tree.parent(p)).is_some())
        .expect("CTS trees have multi-level buffers")
}

/// A local phase whose every candidate worker panics must absorb every
/// panic and leave the tree byte-identical to the pre-phase snapshot.
#[test]
fn all_panicking_workers_leave_tree_byte_identical() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 18, 5);
    let plan = FaultPlan::inert(5);
    plan.arm(FaultSite::WorkerPanic, 0, u32::MAX);
    let mut tree = tc.tree.clone();
    let before = write_ctree(&tree, &tc.lib);
    let mut ctx = FaultCtx::new(Some(&plan), Deadline::none());
    let rep = local_optimize_checked(
        &mut tree,
        &tc.lib,
        &tc.floorplan,
        Ranker::Analytic(Topo::Flute, WireModel::D2m),
        &quick_cfg().local,
        None,
        &mut ctx,
        &PhaseBudget::unlimited(),
    )
    .expect("the phase absorbs worker panics");
    assert!(rep.rejects.panicked > 0, "no worker ever panicked");
    assert_eq!(rep.rejects.panicked, plan.injected().len());
    assert_eq!(
        ctx.log.of_kind(clk_skewopt::FaultKind::WorkerPanic).count(),
        rep.rejects.panicked
    );
    assert_eq!(
        write_ctree(&tree, &tc.lib),
        before,
        "tree drifted from the pre-phase snapshot"
    );
}

/// A rolled-back transaction restores the exact pre-transaction bytes
/// even after raw (invariant-breaking) corruption of the working tree.
#[test]
fn txn_rollback_is_byte_identical_after_raw_corruption() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 18, 6);
    let mut tree = tc.tree.clone();
    let before = write_ctree(&tree, &tc.lib);
    let txn = TreeTxn::begin(&tree);

    let b = deep_buffer(&tree);
    let p = tree.parent(b).expect("deep buffer has parent");
    tree.debug_unlink_child(p, b);
    let s = tree.sinks().next().expect("has sinks");
    let l = tree.loc(s);
    tree.debug_set_loc_raw(s, Point::new(l.x - 70_000, l.y - 70_000));
    let pair = tree.sink_pairs()[0];
    tree.set_sink_pairs(vec![SinkPair::with_weight(pair.a, pair.b, f64::NAN)]);
    assert!(tree.validate().is_err(), "corruption was not corrupting");

    txn.rollback(&mut tree);
    assert_eq!(
        write_ctree(&tree, &tc.lib),
        before,
        "rollback is not byte-identical"
    );
    tree.validate().expect("rolled-back tree is valid again");
}

/// A NaN pair weight sailing past disabled gates still flows through
/// typed error paths (frozen LP variables, skipped λ points) — never a
/// panic.
#[test]
fn nan_pair_weight_with_gates_off_does_not_panic() {
    let mut tc = Testcase::generate(TestcaseKind::Cls1v1, 18, 7);
    let pair = tc.tree.sink_pairs()[0];
    tc.tree
        .set_sink_pairs(vec![SinkPair::with_weight(pair.a, pair.b, f64::NAN)]);
    let mut cfg = quick_cfg();
    cfg.lint_level = LintLevel::Off;
    // any Result is the contract; panicking is not
    match try_optimize_with(&tc, Flow::Global, &cfg, Some(luts()), None) {
        Ok(rep) => rep.tree.validate().expect("surviving tree is valid"),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// An injected contradictory row lands in the round's one as-built LP,
/// which serves every λ point of the round: each point's as-built solve
/// proves it infeasible and the ladder recovers on the relaxed rung,
/// whose builds are clean because the one shot is spent.
#[test]
fn infeasible_round_lp_fails_every_lambda_point_of_its_round() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, 5);
    let cfg = quick_cfg();
    let plan = FaultPlan::inert(11);
    plan.arm(FaultSite::InfeasibleLp, 0, 1);
    let mut ctx = FaultCtx::new(Some(&plan), Deadline::none());
    let (opt, report) = global_optimize_checked(
        &tc.tree,
        &tc.lib,
        &tc.floorplan,
        luts(),
        &cfg.global,
        None,
        &mut ctx,
        &PhaseBudget::unlimited(),
    )
    .expect("the ladder absorbs an infeasible LP");
    opt.validate().expect("optimized tree is valid");
    assert_eq!(plan.injected(), vec![FaultSite::InfeasibleLp]);
    assert_eq!(report.sweep.len(), cfg.global.lambdas.len());
    let retried = ctx
        .log
        .of_kind(FaultKind::LpFailure)
        .filter(|f| f.action == RecoveryAction::Retry)
        .filter(|f| f.detail.contains("relaxed guardbands"))
        .count();
    assert_eq!(
        retried,
        cfg.global.lambdas.len(),
        "every λ point must meet the infeasible build:\n{}",
        ctx.log.to_text()
    );
    for point in &report.sweep {
        assert!(
            point.lp_objective.is_finite(),
            "λ {} was not recovered: {point:?}",
            point.lambda
        );
    }
    assert!(report.variation_after <= report.variation_before);
}

/// Has another thread cancel the flow the moment the first ECO arc of
/// a λ trial finishes, and waits until it did; then counts the ECO arcs
/// that finish after the cancellation.
struct CancelOnFirstArc {
    ask: mpsc::Sender<()>,
    done: mpsc::Receiver<()>,
    cancelled: Arc<AtomicBool>,
    arcs_after: Arc<AtomicUsize>,
}

impl Sink for CancelOnFirstArc {
    fn emit(&mut self, rec: &EventRecord) {
        if rec.kind != EventKind::Event || rec.name != "eco.arc" {
            return;
        }
        if self.cancelled.load(Ordering::SeqCst) {
            self.arcs_after.fetch_add(1, Ordering::SeqCst);
        } else {
            let asked = self.ask.send(()).is_ok() && self.done.recv().is_ok();
            self.cancelled.store(asked, Ordering::SeqCst);
        }
    }
}

/// An external `CancelToken::cancel()` from another thread while a λ
/// trial's ECO is under way, one arc into it: the ECO stops within one
/// more arc, the cut is logged and counted, and the flow returns a
/// valid tree whose variation is no worse than the input's — the
/// partial trial's arcs were each accepted against golden timing.
#[test]
fn external_cancel_stops_the_eco_within_one_arc() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 16, 9);
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Trace,
        ..ObsConfig::default()
    });
    let mut cfg = quick_cfg();
    cfg.obs = obs.clone();
    let (ask, asked) = mpsc::channel();
    let (done_tx, done) = mpsc::channel();
    let token = cfg.cancel.clone();
    let canceller = std::thread::spawn(move || {
        if asked.recv().is_ok() {
            token.cancel();
            let _ = done_tx.send(());
        }
    });
    let cancelled = Arc::new(AtomicBool::new(false));
    let arcs_after = Arc::new(AtomicUsize::new(0));
    obs.add_sink(Box::new(CancelOnFirstArc {
        ask,
        done,
        cancelled: Arc::clone(&cancelled),
        arcs_after: Arc::clone(&arcs_after),
    }));
    let rep = try_optimize_with(&tc, Flow::Global, &cfg, Some(luts()), None)
        .expect("a cancelled flow returns its best-so-far report");
    canceller.join().expect("canceller thread");
    assert!(cancelled.load(Ordering::SeqCst), "no ECO arc ever ran");
    assert!(rep.partial, "the cancellation must cut the flow");
    rep.tree.validate().expect("the returned tree is valid");
    let late = arcs_after.load(Ordering::SeqCst);
    assert!(late <= 1, "{late} ECO arcs finished after the cancel");
    assert!(
        rep.variation_after <= rep.variation_before,
        "a partial trial made the tree worse: {} > {}",
        rep.variation_after,
        rep.variation_before
    );
    assert!(
        rep.faults.of_kind(FaultKind::Cancelled).count() > 0,
        "the cut is logged:\n{}",
        rep.faults.to_text()
    );
    let cut = obs.counter("global.eco_interrupted").map_or(0, |c| c.get());
    assert_eq!(cut, 1, "the ECO sweep is cut once");
}

/// A planted corruption: raw edit applied to a fresh testcase tree.
fn corrupt(tree: &mut ClockTree, defect: usize) {
    match defect {
        // detached child link
        0 => {
            let b = deep_buffer(tree);
            let p = tree.parent(b).expect("deep buffer has parent");
            tree.debug_unlink_child(p, b);
        }
        // orphaned subtree
        1 => {
            let b = deep_buffer(tree);
            let p = tree.parent(b).expect("deep buffer has parent");
            tree.debug_unlink_child(p, b);
            tree.debug_set_parent_raw(b, None);
        }
        // a sink with fanout
        2 => {
            let sinks: Vec<NodeId> = tree.sinks().collect();
            tree.debug_add_child_raw(sinks[0], sinks[1]);
        }
        // node teleported outside the die
        3 => {
            let b = deep_buffer(tree);
            tree.debug_set_loc_raw(b, Point::new(-50_000, -50_000));
        }
        // NaN pair weight
        _ => {
            let pair = tree.sink_pairs()[0];
            tree.set_sink_pairs(vec![SinkPair::with_weight(pair.a, pair.b, f64::NAN)]);
        }
    }
}

/// Regression pin for the seed-136/defect-3 failure of the proptest
/// below. Defect class: **geometry-domain corruption** — a buffer
/// placed outside the floorplan (here at (-50000, -50000)), which the
/// routing and legalization layers assume can never happen. Before the
/// input lint gate existed this panicked deep in route-length
/// arithmetic; the contract now is that `check_lint_gate` rejects the
/// tree with a typed [`FlowError::LintGate`] before any phase runs, so
/// the flow must come back as a typed error or a valid report, never a
/// panic.
#[test]
fn teleported_buffer_yields_typed_result() {
    let mut tc = Testcase::generate(TestcaseKind::Cls1v1, 16, 136);
    corrupt(&mut tc.tree, 3);
    match try_optimize_with(&tc, Flow::Global, &quick_cfg(), Some(luts()), None) {
        Ok(rep) => assert!(rep.tree.validate().is_ok()),
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

proptest! {
    // each case runs full CTS generation; keep the count small
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The checked flow driver never panics on corrupted testcases: the
    /// input gate (on in debug test builds) rejects them with a typed
    /// `FlowError`, and anything that survives comes back as a valid
    /// report.
    #[test]
    fn corrupted_testcases_yield_typed_results(seed in 0u64..200, defect in 0usize..5) {
        let mut tc = Testcase::generate(TestcaseKind::Cls1v1, 16, seed);
        corrupt(&mut tc.tree, defect);
        match try_optimize_with(&tc, Flow::Global, &quick_cfg(), Some(luts()), None) {
            Ok(rep) => prop_assert!(rep.tree.validate().is_ok()),
            Err(e) => {
                // typed failure is the contract; panicking is not
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
