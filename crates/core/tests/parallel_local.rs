//! The parallel local phase's two contracts, end to end:
//!
//! 1. **Bit-stable incremental timing** — re-timing only the dirty cone
//!    of a Table-2 move equals a full golden re-analysis bit for bit,
//!    for every move type and corner.
//! 2. **Worker-count invariance** — Algorithm 2 ranks the same candidate
//!    list, commits the exact same move sequence (and produces the exact
//!    same tree) and counts the same golden timings whether ranking and
//!    candidate evaluation run on 1, 4, or 8 worker threads; the global
//!    and global-local flows produce the same report, fault log, ledger
//!    and counters on 1, 2 or 4, also when a poll-counted cut lands
//!    inside a global round's λ sweep. The
//!    ThreadSanitizer CI job runs this file under `-Zsanitizer=thread`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_ml::MlpConfig;
use clk_netlist::ClockTree;
use clk_obs::{EventKind, EventRecord, Level, MetricValue, Obs, ObsConfig, Sink};
use clk_skewopt::local::{local_optimize_checked, LocalConfig, RankContext, Ranker};
use clk_skewopt::predictor::Topo;
use clk_skewopt::{
    apply_move, enumerate_moves, touched_drivers, try_optimize_with, DeltaLatencyModel, FaultCtx,
    Flow, FlowConfig, GlobalConfig, ModelKind, Move, MoveConfig, PhaseBudget, StageLuts,
    TrainConfig,
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

/// The per-technology artifacts of the flow runs below (every Cls1v1
/// testcase uses the same synthetic library), built once.
fn artifacts() -> &'static (StageLuts, DeltaLatencyModel) {
    static ART: OnceLock<(StageLuts, DeltaLatencyModel)> = OnceLock::new();
    ART.get_or_init(|| {
        let lib = Testcase::generate(TestcaseKind::Cls1v1, 8, 1).lib;
        let train = TrainConfig {
            n_cases: 6,
            moves_per_case: 12,
            mlp: MlpConfig {
                epochs: 20,
                ..MlpConfig::default()
            },
            ..TrainConfig::default()
        };
        (
            StageLuts::characterize(&lib),
            DeltaLatencyModel::train(&lib, ModelKind::Hsm, &train),
        )
    })
}

/// A small flow configuration with three λ points per global round.
fn flow_cfg(workers: usize, obs: &Obs) -> FlowConfig {
    FlowConfig {
        global: GlobalConfig {
            max_pairs: 30,
            lambdas: vec![0.05, 0.15, 0.3],
            rounds: 2,
            ..GlobalConfig::default()
        },
        local: LocalConfig {
            max_iterations: 2,
            max_batches: 1,
            workers,
            ..LocalConfig::default()
        },
        obs: obs.clone(),
        ..FlowConfig::default()
    }
}

/// One flow run on seed `seed`: everything deterministic about it as
/// text (the report's tree-outcome fields and phase reports, the fault
/// log without timestamps, the tree, every obs counter, and the ledger
/// bytes), plus the counters for targeted checks.
fn flow_outcome(
    flow: Flow,
    seed: u64,
    workers: usize,
    trip: Option<u64>,
) -> (String, BTreeMap<String, u64>) {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, seed);
    let obs = Obs::new(ObsConfig {
        ledger: true,
        ..ObsConfig::default()
    });
    let cfg = flow_cfg(workers, &obs);
    if let Some(n) = trip {
        cfg.cancel.trip_after_polls(n);
    }
    let (luts, model) = artifacts();
    let r = try_optimize_with(&tc, flow, &cfg, Some(luts), Some(model)).expect("flow runs");
    r.tree.validate().expect("final tree valid");
    let mut out = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n",
        (
            r.variation_after.to_bits(),
            &r.local_skew_after,
            r.cells_after,
            r.power_after_mw.to_bits(),
            r.area_after_um2.to_bits(),
            r.partial,
            &r.progress,
        ),
        r.global_report,
        r.local_report,
        tree_digest(&r.tree),
    );
    for f in r.faults.records() {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            f.seq, f.phase, f.fault, f.action, f.detail
        );
    }
    let counters: BTreeMap<String, u64> = obs
        .metrics_snapshot()
        .expect("obs enabled")
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) => Some((name, n)),
            _ => None,
        })
        .collect();
    let _ = writeln!(out, "{counters:?}");
    out.push_str(&obs.ledger().to_jsonl());
    (out, counters)
}

/// The report, the fault log, the tree, the ledger bytes and every
/// counter are the same on 1, 2 and 4 workers, for the global flow
/// alone and for the global-local flow.
#[test]
fn global_flows_are_deterministic_across_worker_counts() {
    for flow in [Flow::Global, Flow::GlobalLocal] {
        for seed in [2015u64, 7] {
            let (base, counters) = flow_outcome(flow, seed, 1, None);
            assert!(
                counters.get("global.eco_accepted").is_some_and(|&n| n > 0),
                "{flow} seed {seed}: no ECO arc was kept"
            );
            assert!(
                counters.get("ledger.records").is_some_and(|&n| n > 0),
                "{flow} seed {seed}: empty ledger"
            );
            for workers in [2usize, 4] {
                let (got, _) = flow_outcome(flow, seed, workers, None);
                assert_eq!(
                    base, got,
                    "{flow} seed {seed}: workers=1 vs workers={workers} diverged"
                );
            }
        }
    }
}

/// Records the token's poll count at every `global.ladder` event: the
/// moment each λ point's solve returns.
struct SolvePolls {
    token: clk_obs::CancelToken,
    polls: Arc<Mutex<Vec<u64>>>,
}

impl Sink for SolvePolls {
    fn emit(&mut self, rec: &EventRecord) {
        if rec.kind == EventKind::Event && rec.name == "global.ladder" {
            if let Ok(mut p) = self.polls.lock() {
                p.push(self.token.polls());
            }
        }
    }
}

/// A poll-counted cut inside a round's λ sweep (inside the first λ's
/// ECO) stops that trial's ECO and the sweep at the same point at every
/// worker count and on every run.
#[test]
fn a_cut_inside_the_lambda_sweep_is_deterministic_across_worker_counts() {
    let seed = 2015;
    // calibrate: the global phase polls on one thread, so one
    // single-worker run locates the sweep at any worker count
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    let cfg = flow_cfg(1, &obs);
    let polls = Arc::new(Mutex::new(Vec::new()));
    obs.add_sink(Box::new(SolvePolls {
        token: cfg.cancel.clone(),
        polls: Arc::clone(&polls),
    }));
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, seed);
    try_optimize_with(&tc, Flow::Global, &cfg, Some(&artifacts().0), None).expect("flow runs");
    let first_solved = polls.lock().expect("calibration polls")[0];
    // the first λ's ECO polls once before each arc, right after the
    // solve: the trip lands on one of its first arcs
    let trip = first_solved + 2;

    let (base, counters) = flow_outcome(Flow::Global, seed, 1, Some(trip));
    assert!(base.contains("interrupted: true"), "the cut must interrupt");
    assert!(
        counters
            .get("global.eco_interrupted")
            .is_some_and(|&n| n > 0),
        "the cut must stop the ECO sweep: {counters:?}"
    );
    for workers in [1usize, 2, 4] {
        for _ in 0..2 {
            let (got, _) = flow_outcome(Flow::Global, seed, workers, Some(trip));
            assert_eq!(
                base, got,
                "cut at poll {trip}: workers=1 vs workers={workers} diverged"
            );
        }
    }
}
