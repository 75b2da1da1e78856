//! The parallel local phase's two contracts, end to end:
//!
//! 1. **Bit-stable incremental timing** — re-timing only the dirty cone
//!    of a Table-2 move equals a full golden re-analysis bit for bit,
//!    for every move type and corner.
//! 2. **Worker-count invariance** — Algorithm 2 ranks the same candidate
//!    list, commits the exact same move sequence (and produces the exact
//!    same tree) and counts the same golden timings whether ranking and
//!    candidate evaluation run on 1, 4, or 8 worker threads. The
//!    ThreadSanitizer CI job runs this file under `-Zsanitizer=thread`.

use std::collections::BTreeMap;

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_netlist::ClockTree;
use clk_obs::{MetricValue, Obs, ObsConfig};
use clk_skewopt::local::{local_optimize_checked, LocalConfig, RankContext, Ranker};
use clk_skewopt::predictor::Topo;
use clk_skewopt::{
    apply_move, enumerate_moves, touched_drivers, FaultCtx, Move, MoveConfig, PhaseBudget,
};
use clk_sta::{alpha_factors, try_pair_skews, CornerTiming, Timer};
use proptest::prelude::*;

/// Bit-exact comparison of two corner analyses through the public API.
fn assert_timing_bits_equal(tree: &ClockTree, a: &CornerTiming, b: &CornerTiming, what: &str) {
    assert_eq!(a.corner(), b.corner(), "{what}: corner");
    for n in tree.node_ids() {
        let pair = |x: Result<f64, _>| x.map(f64::to_bits).ok();
        assert_eq!(
            pair(a.try_arrival_ps(n)),
            pair(b.try_arrival_ps(n)),
            "{what}: arrival at {n}"
        );
        assert_eq!(
            pair(a.try_slew_ps(n)),
            pair(b.try_slew_ps(n)),
            "{what}: slew at {n}"
        );
        assert_eq!(
            a.load_ff(n).to_bits(),
            b.load_ff(n).to_bits(),
            "{what}: load at {n}"
        );
    }
    assert_eq!(
        a.wire_cap_ff().to_bits(),
        b.wire_cap_ff().to_bits(),
        "{what}: wire cap"
    );
    assert_eq!(
        a.pin_cap_ff().to_bits(),
        b.pin_cap_ff().to_bits(),
        "{what}: pin cap"
    );
    assert_eq!(a.violations(), b.violations(), "{what}: violations");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every sampled Table-2 move, the cone-limited incremental
    /// re-analysis from the pre-move timing is bit-identical to a full
    /// re-analysis of the edited tree, at every corner.
    #[test]
    fn incremental_timing_is_bit_identical_to_full(n in 10usize..28, seed in 0u64..200) {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, n, seed);
        let mcfg = MoveConfig::default();
        let timer = Timer::golden();
        let prev = timer.try_analyze_all(&tc.tree, &tc.lib).expect("baseline times");
        let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
        prop_assert!(!moves.is_empty());
        // sample across the menu to cover all three move types
        for mv in moves.iter().step_by(11) {
            let dirty = touched_drivers(&tc.tree, mv);
            prop_assert!(!dirty.is_empty(), "move {mv} has no dirty drivers");
            let mut trial = tc.tree.clone();
            if apply_move(&mut trial, &tc.lib, &tc.floorplan, &mcfg, mv).is_err() {
                continue; // legality is another test's business
            }
            let full = timer.try_analyze_all(&trial, &tc.lib).expect("full times");
            let inc = timer
                .try_analyze_all_incremental(&trial, &tc.lib, &prev, &dirty)
                .expect("incremental times");
            for (f, i) in full.iter().zip(&inc) {
                assert_timing_bits_equal(&trial, f, i, &format!("move {mv}"));
            }
        }
    }
}

/// A structural digest of the final tree: topology, placement, sizing.
fn tree_digest(tree: &ClockTree) -> Vec<String> {
    tree.node_ids()
        .map(|n| {
            format!(
                "{n}: parent={:?} loc={:?} cell={:?} kind={:?}",
                tree.parent(n),
                tree.loc(n),
                tree.cell(n),
                tree.node(n).kind
            )
        })
        .collect()
}

/// Everything observable about one local-phase run: the final tree,
/// the accepted `(move type, variation bits)` trace, the final variation
/// bits, the golden evaluations, and every obs counter.
type LocalOutcome = (
    Vec<String>,
    Vec<(u8, u64)>,
    u64,
    usize,
    BTreeMap<String, u64>,
);

/// Runs the local phase on one generated case with a given worker count
/// and observability on.
fn run_local(seed: u64, workers: usize) -> LocalOutcome {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, seed);
    let mut tree = tc.tree.clone();
    let cfg = LocalConfig {
        max_iterations: 3,
        max_batches: 2,
        workers,
        ..LocalConfig::default()
    };
    let obs = Obs::new(ObsConfig::default());
    let mut ctx = FaultCtx::passive().with_obs(obs.clone());
    let report = local_optimize_checked(
        &mut tree,
        &tc.lib,
        &tc.floorplan,
        Ranker::Analytic(Topo::Flute, WireModel::D2m),
        &cfg,
        None,
        &mut ctx,
        &PhaseBudget::unlimited(),
    )
    .expect("local phase runs");
    tree.validate().expect("final tree valid");
    let counters = obs
        .metrics_snapshot()
        .expect("obs enabled")
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) => Some((name, n)),
            _ => None,
        })
        .collect();
    (
        tree_digest(&tree),
        report
            .iterations
            .iter()
            .map(|it| (it.move_type, it.variation_sum.to_bits()))
            .collect(),
        report.variation_after.to_bits(),
        report.golden_evals,
        counters,
    )
}

/// The determinism invariant the A1xx certification and the TSan job
/// guard: byte-identical results across thread counts {1, 4, 8} on the
/// chaos seeds.
#[test]
fn parallel_local_is_deterministic_across_worker_counts() {
    for seed in [2015u64, 7, 136] {
        let base = run_local(seed, 1);
        // the workers' golden timings are counted with the coordinator's
        let incremental = base.4.get("sta.analyze.incremental").copied();
        assert!(
            incremental.is_some_and(|n| n > 0),
            "seed {seed}: worker-side analyses uncounted"
        );
        for workers in [4usize, 8] {
            let got = run_local(seed, workers);
            assert_eq!(
                base, got,
                "seed {seed}: workers=1 vs workers={workers} diverged"
            );
        }
    }
}

/// The ranked candidate list — `(gain bits, move)` in rank order — of
/// one ranking sweep, with `workers` ranking threads.
fn ranked(tc: &Testcase, workers: usize) -> Vec<(u64, Move)> {
    let mcfg = MoveConfig::default();
    let timings = Timer::golden()
        .try_analyze_all(&tc.tree, &tc.lib)
        .expect("baseline times");
    let pairs = tc.tree.sink_pairs().to_vec();
    let skews = timings
        .iter()
        .map(|t| try_pair_skews(t, &pairs))
        .collect::<Result<Vec<_>, _>>()
        .expect("skews");
    let alphas = alpha_factors(&skews);
    let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
    let ctx = RankContext::new(&tc.tree, &tc.lib, &timings, &pairs, &alphas);
    let ranker = Ranker::Analytic(Topo::SingleTrunk, WireModel::Elmore);
    let mut scored: Vec<(f64, Move)> = ctx
        .gains(&moves, &mcfg, ranker, workers)
        .0
        .into_iter()
        .zip(moves)
        .filter(|&(g, _)| g > LocalConfig::default().min_predicted_gain_ps)
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.into_iter().map(|(g, m)| (g.to_bits(), m)).collect()
}

/// Ranking striped over 1, 4 or 8 threads yields the same ranked list
/// to the last bit.
#[test]
fn parallel_ranking_is_deterministic_across_worker_counts() {
    for seed in [2015u64, 7, 136] {
        let tc = Testcase::generate(TestcaseKind::Cls2v1, 24, seed);
        let base = ranked(&tc, 1);
        assert!(!base.is_empty(), "seed {seed}: nothing ranked positive");
        for workers in [4usize, 8] {
            assert_eq!(
                base,
                ranked(&tc, workers),
                "seed {seed}: ranking with workers=1 vs workers={workers} diverged"
            );
        }
    }
}

/// The ranking sweep asks its stop hook about the same blocks, in the
/// same order, at every worker count, and a stop ends the sweep there.
#[test]
fn ranking_stop_points_do_not_depend_on_worker_count() {
    let tc = Testcase::generate(TestcaseKind::Cls2v1, 24, 7);
    let mcfg = MoveConfig::default();
    let timings = Timer::golden()
        .try_analyze_all(&tc.tree, &tc.lib)
        .expect("baseline times");
    let pairs = tc.tree.sink_pairs().to_vec();
    let skews = timings
        .iter()
        .map(|t| try_pair_skews(t, &pairs))
        .collect::<Result<Vec<_>, _>>()
        .expect("skews");
    let alphas = alpha_factors(&skews);
    let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
    let ctx = RankContext::new(&tc.tree, &tc.lib, &timings, &pairs, &alphas);
    let ranker = Ranker::Analytic(Topo::Flute, WireModel::D2m);
    // the move indices the hook is asked about, and whether the sweep
    // finished; `cut` stops it at the `cut`-th question
    let asked = |workers: usize, cut: Option<usize>| {
        let mut seen = Vec::new();
        let done = ctx
            .gains_until(&moves, &mcfg, ranker, workers, |mv_no| {
                seen.push(mv_no);
                cut == Some(seen.len())
            })
            .is_some();
        (seen, done)
    };
    let (all, done) = asked(1, None);
    assert!(done, "an unstopped sweep finishes");
    assert!(all.len() > 2, "only {} blocks", all.len() + 1);
    assert!(all.windows(2).all(|w| w[0] < w[1]), "blocks out of order");
    for workers in [1usize, 4, 8] {
        assert_eq!(
            asked(workers, None),
            (all.clone(), true),
            "{workers} workers"
        );
        assert_eq!(
            asked(workers, Some(2)),
            (all[..2].to_vec(), false),
            "{workers} workers, cut at the second block"
        );
    }
}
