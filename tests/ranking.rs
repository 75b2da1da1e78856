//! Differential oracles for the local phase's ranking fast path.
//!
//! Ranking goes through one per-iteration [`RankContext`]: the committed
//! tree's driver nets are estimated once, each move's changed nets are
//! routed once for every corner, and re-scoring visits only the pairs
//! of the sinks a move shifts. The context-free entry points —
//! [`move_features_with_sides`] for one corner and [`predict_move_gain`]
//! for one move — estimate only the nets the move reads and scan every
//! pair. Both must agree to the last bit on every enumerated move.

use std::collections::BTreeMap;

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_liberty::CornerId;
use clk_skewopt::predictor::{move_features_with_sides, MoveEstimate, Topo};
use clk_skewopt::{
    enumerate_moves, predict_move_gain, CommittedNets, MoveConfig, RankContext, Ranker,
};
use clk_sta::{alpha_factors, try_pair_skews, CornerTiming, Timer};

/// The 12-sink CLS1v1 and CLS2v1 cases on the chaos seeds.
fn cases() -> Vec<(String, Testcase)> {
    let mut out = Vec::new();
    for kind in [TestcaseKind::Cls1v1, TestcaseKind::Cls2v1] {
        for seed in [2015u64, 7, 136] {
            let tc = Testcase::generate(kind, 12, seed);
            out.push((format!("{} seed {seed}", kind.name()), tc));
        }
    }
    out
}

fn timings(tc: &Testcase) -> Vec<CornerTiming> {
    Timer::golden()
        .try_analyze_all(&tc.tree, &tc.lib)
        .expect("generated case times")
}

/// Every number of a feature vector and its estimate, as bits.
fn bits(features: &[f64], est: &MoveEstimate) -> Vec<u64> {
    let mut out: Vec<u64> = features.iter().map(|v| v.to_bits()).collect();
    out.push(est.primary_delta.to_bits());
    for &(node, d) in est.per_child.iter().chain(&est.side_effects) {
        out.push(u64::from(node.0));
        out.push(d.to_bits());
    }
    out
}

#[test]
fn hoisted_features_equal_the_single_corner_reference() {
    let mcfg = MoveConfig::default();
    for (name, tc) in cases() {
        let timings = timings(&tc);
        let nets = CommittedNets::new(&tc.tree, &tc.lib, &timings);
        let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
        assert!(!moves.is_empty(), "{name}: no moves");
        for mv in &moves {
            let hoisted = nets.features(mv, &mcfg);
            assert_eq!(hoisted.len(), timings.len(), "{name}: {mv}");
            for (k, (f, est)) in hoisted.iter().enumerate() {
                let (rf, rest) = move_features_with_sides(
                    &tc.tree,
                    &tc.lib,
                    CornerId(k),
                    &timings[k],
                    mv,
                    &mcfg,
                );
                assert_eq!(
                    bits(f, est),
                    bits(&rf, &rest),
                    "{name}: move {mv} corner {k}"
                );
            }
        }
    }
}

#[test]
fn context_gains_equal_the_context_free_reference() {
    let mcfg = MoveConfig::default();
    let rankers = [
        Ranker::Analytic(Topo::Flute, WireModel::D2m),
        Ranker::Analytic(Topo::SingleTrunk, WireModel::Elmore),
    ];
    for (name, tc) in cases() {
        let timings = timings(&tc);
        let pairs = tc.tree.sink_pairs().to_vec();
        let skews = timings
            .iter()
            .map(|t| try_pair_skews(t, &pairs))
            .collect::<Result<Vec<_>, _>>()
            .expect("skews");
        let alphas = alpha_factors(&skews);
        let ctx = RankContext::new(&tc.tree, &tc.lib, &timings, &pairs, &alphas);
        let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
        let mut cache = BTreeMap::new();
        let mut nonzero = 0;
        for ranker in rankers {
            for mv in &moves {
                let fast = ctx.gain(mv, &mcfg, ranker);
                let reference = predict_move_gain(
                    &tc.tree, &tc.lib, &timings, &pairs, &alphas, mv, &mcfg, ranker, &mut cache,
                );
                assert_eq!(
                    fast.to_bits(),
                    reference.to_bits(),
                    "{name}: move {mv} under {ranker:?}"
                );
                nonzero += usize::from(fast != 0.0);
            }
        }
        assert!(nonzero > 0, "{name}: every gain is zero");
    }
}
