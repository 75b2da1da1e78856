//! Bit-identity oracle for the global phase's ECO and the golden timer's
//! cone-incremental walk.
//!
//! Runs the global and the global-local flow on two small cases with the
//! observability pipeline and the decision ledger on, and pins:
//! - an FNV-1a hash of the ledger's JSONL bytes and of the final tree's
//!   `.ctree` text;
//! - the ECO's accepted / rolled-back / unrealizable arc counts;
//! - the golden timer's analysis counts and the nodes it re-timed, in
//!   total and per corner.
//!
//! Every ECO trial arc is realized from the stage LUTs and re-timed
//! incrementally, and every local candidate is re-timed the same way,
//! so a change to the chain sizing, the LUT evaluation or the cone walk
//! that moves one bit, one accept decision or one pruned node fails
//! here.

use clk_cts::{Testcase, TestcaseKind};
use clk_netlist::io::write_ctree;
use clk_obs::{Obs, ObsConfig};
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, StageLuts};
use clockvar_workbench::quick_flow_config;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The counters the oracle pins, in this order.
const COUNTERS: [&str; 9] = [
    "global.eco_accepted",
    "global.eco_rollback",
    "global.eco_unrealizable",
    "sta.analyzes",
    "sta.analyze.incremental",
    "sta.nodes_timed",
    "sta.corner.0.nodes_timed",
    "sta.corner.1.nodes_timed",
    "sta.corner.2.nodes_timed",
];

/// What one run pins: the ledger hash, the tree hash and [`COUNTERS`].
type Pinned = (u64, u64, [u64; 9]);

fn run(flow: Flow, seed: u64) -> Pinned {
    let obs = Obs::new(ObsConfig {
        ledger: true,
        ..ObsConfig::default()
    });
    let mut cfg = quick_flow_config();
    cfg.global.rounds = 1;
    cfg.local.max_iterations = 2;
    cfg.obs = obs.clone();
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 12, seed);
    let luts = StageLuts::characterize(&tc.lib);
    let model = (flow == Flow::GlobalLocal)
        .then(|| DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train));
    let report = try_optimize_with(&tc, flow, &cfg, Some(&luts), model.as_ref())
        .unwrap_or_else(|e| panic!("{flow:?} seed {seed}: {e}"));
    let ledger = fnv(obs.ledger().to_jsonl().as_bytes());
    let tree = fnv(write_ctree(&report.tree, &tc.lib).as_bytes());
    let counts = COUNTERS.map(|name| obs.counter(name).map_or(0, |c| c.get()));
    (ledger, tree, counts)
}

#[test]
fn eco_and_incremental_timing_keep_recorded_bits_and_counts() {
    let cases = [
        (Flow::Global, 2015),
        (Flow::Global, 7),
        (Flow::GlobalLocal, 2015),
        (Flow::GlobalLocal, 7),
    ];
    let got: Vec<Pinned> = cases.iter().map(|&(f, s)| run(f, s)).collect();
    assert_eq!(got, EXPECTED.to_vec());
    // the oracle only bites where the ECO kept arcs
    assert!(got.iter().all(|(_, _, c)| c[0] > 0), "no arc accepted");
}

/// Recorded from the per-corner incremental walk and the per-arc copy of
/// the trial analysis, in the order of the test's cases.
const EXPECTED: [Pinned; 4] = [
    // global, seed 2015
    (
        0x6a0a_d7b5_5246_3768,
        0x6690_ee9e_ccd2_fba8,
        [12, 10, 0, 72, 66, 11214, 3738, 3738, 3738],
    ),
    // global, seed 7
    (
        0x6509_c8d2_0f77_ccbc,
        0x9704_78a0_e93c_c1ed,
        [6, 11, 0, 57, 51, 11502, 3834, 3834, 3834],
    ),
    // global-local, seed 2015
    (
        0x1462_1f37_e946_7211,
        0x84b8_9b94_cefb_9caa,
        [12, 10, 0, 102, 96, 11805, 3935, 3935, 3935],
    ),
    // global-local, seed 7
    (
        0x073d_2b1a_5e93_82cc,
        0x06d5_cce7_021f_2be1,
        [6, 11, 0, 102, 96, 11817, 3939, 3939, 3939],
    ),
];
