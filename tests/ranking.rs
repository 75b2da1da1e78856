//! Differential oracles for the local phase's ranking fast path.
//!
//! Ranking goes through one per-iteration [`RankContext`]: the committed
//! tree's driver nets are estimated once, the moves of one primary node
//! share the routes and extractions of their displaced nets, and
//! re-scoring visits only the pairs of the sinks a move shifts. The
//! context-free entry points — [`move_features_with_sides`] for one
//! corner and [`predict_move_gain`] for one move — estimate only the
//! nets the move reads and scan every pair. Both must agree to the last
//! bit on every enumerated move, and the ML-ranked gains must keep the
//! bits they had before the sharing.

use std::collections::BTreeMap;
use std::rc::Rc;

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_liberty::CornerId;
use clk_skewopt::predictor::{move_features_with_sides, MoveEstimate, Topo};
use clk_skewopt::{
    enumerate_moves, predict_move_gain, CommittedNets, DeltaLatencyModel, ModelKind, MoveConfig,
    RankContext, Ranker, TrainConfig,
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

/// [`cases`], each with a [`small_model`] of its kind: the library, and
/// so the model, depends on the kind alone.
fn cases_with_models() -> Vec<(String, Testcase, Rc<DeltaLatencyModel>)> {
    let mut models: Vec<(TestcaseKind, Rc<DeltaLatencyModel>)> = Vec::new();
    cases()
        .into_iter()
        .map(|(name, tc)| {
            let model = match models.iter().find(|(k, _)| *k == tc.kind) {
                Some((_, m)) => m.clone(),
                None => {
                    let m = Rc::new(small_model(&tc));
                    models.push((tc.kind, m.clone()));
                    m
                }
            };
            (name, tc, model)
        })
        .collect()
}

/// A small trained HSM for `tc`'s library: both learners and the blend
/// run, at a training cost that keeps the test quick.
fn small_model(tc: &Testcase) -> DeltaLatencyModel {
    let cfg = TrainConfig {
        n_cases: 5,
        moves_per_case: 8,
        ..TrainConfig::default()
    };
    DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &cfg)
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
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
    for (name, tc, model) in cases_with_models() {
        // the ML ranker reads all ten features; its reference runs on
        // one case per kind to keep the debug run short, and
        // `ml_ranked_gains_keep_their_bits` pins its gains on every case
        let mut rankers = vec![
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            Ranker::Analytic(Topo::SingleTrunk, WireModel::Elmore),
        ];
        if name.ends_with("seed 2015") {
            rankers.push(Ranker::Ml(&model));
        }
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
        for ranker in rankers {
            // the sweep shares each group's nets; the reference ranks
            // each move alone, without the context
            let (swept, _) = ctx.gains(&moves, &mcfg, ranker, 2);
            let mut nonzero = 0;
            for (mv, fast) in moves.iter().zip(swept) {
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
            assert!(nonzero > 0, "{name}: every gain under {ranker:?} is zero");
        }
    }
}

/// Hash of every ML-ranked gain of every enumerated move on [`cases`],
/// recorded on the ranking path before moves shared their displaced
/// nets and inference ran allocation-free.
const ML_GAINS_HASH: u64 = 0x4637_e6f8_938e_93ff;

#[test]
fn ml_ranked_gains_keep_their_bits() {
    let mcfg = MoveConfig::default();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, tc, model) in cases_with_models() {
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
        let (gains, _) = ctx.gains(&moves, &mcfg, Ranker::Ml(&model), 2);
        assert_eq!(gains.len(), moves.len(), "{name}");
        h.word(gains.len() as u64);
        for g in gains {
            h.word(g.to_bits());
        }
    }
    assert_eq!(h.0, ML_GAINS_HASH, "ML-ranked gains moved: {:#018x}", h.0);
}
