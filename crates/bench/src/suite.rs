//! The flow suite: the three scaled testcases behind Tables 4/5 and the
//! report gate, with one shared size, configuration and prepare/run
//! path so every consumer (`table4`, `table5`, `gate`) agrees on seeds,
//! sizes and artifact reuse.

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{
    try_optimize_with, DeltaLatencyModel, Flow, FlowConfig, FlowError, OptReport, StageLuts,
};

/// One suite entry: a testcase generator and its derived seed.
#[derive(Debug, Clone, Copy)]
pub struct SuiteCase {
    /// Generator kind (`CLS1v1` / `CLS1v2` / `CLS2v1`).
    pub kind: TestcaseKind,
    /// Seed for this case (offset from the suite's base seed, matching
    /// the historical `table5` seeding).
    pub seed: u64,
}

/// The paper's three testcases, seeded `base_seed`, `base_seed + 1`,
/// `base_seed + 2` — the suite every QoR snapshot covers.
pub fn suite_cases(base_seed: u64) -> Vec<SuiteCase> {
    [
        TestcaseKind::Cls1v1,
        TestcaseKind::Cls1v2,
        TestcaseKind::Cls2v1,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| SuiteCase {
        kind,
        seed: base_seed + i as u64,
    })
    .collect()
}

/// Sinks per testcase and flow configuration of the suite. The quick
/// suite is 48 sinks under [`clockvar_workbench::quick_flow_config`];
/// the full one is 128 sinks under the default flow with a 120-pair
/// global LP, 12 local iterations and 60×60 predictor training.
pub fn suite_config(quick: bool) -> (usize, FlowConfig) {
    if quick {
        return (48, clockvar_workbench::quick_flow_config());
    }
    let mut cfg = FlowConfig::default();
    cfg.global.max_pairs = 120;
    cfg.local.max_iterations = 12;
    cfg.train.n_cases = 60;
    cfg.train.moves_per_case = 60;
    (128, cfg)
}

/// A generated testcase plus its per-technology artifacts, ready to run
/// one or more flows.
pub struct PreparedCase {
    /// The suite entry this was generated from.
    pub case: SuiteCase,
    /// The generated testcase.
    pub tc: Testcase,
    /// Characterized stage LUTs (when a global phase will run).
    pub luts: Option<StageLuts>,
    /// Trained delta-latency model (when a local phase will run).
    pub model: Option<DeltaLatencyModel>,
}

impl PreparedCase {
    /// Generates the testcase and characterizes/trains whatever
    /// `flows` will need. Artifacts are built once and shared across
    /// every flow run on this case (they are per-technology, as in the
    /// paper).
    pub fn generate(case: SuiteCase, n_sinks: usize, cfg: &FlowConfig, flows: &[Flow]) -> Self {
        let tc = Testcase::generate(case.kind, n_sinks, case.seed);
        let need_luts = flows
            .iter()
            .any(|f| matches!(f, Flow::Global | Flow::GlobalLocal));
        let need_model = flows
            .iter()
            .any(|f| matches!(f, Flow::Local | Flow::GlobalLocal));
        let luts = need_luts.then(|| StageLuts::characterize(&tc.lib));
        let model =
            need_model.then(|| DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train));
        PreparedCase {
            case,
            tc,
            luts,
            model,
        }
    }

    /// Runs one flow on the prepared case, returning the report and the
    /// measured wall clock in milliseconds.
    ///
    /// # Errors
    ///
    /// The flow's own hard failures (see
    /// [`clk_skewopt::try_optimize_with`]).
    pub fn run(&self, flow: Flow, cfg: &FlowConfig) -> Result<(OptReport, f64), FlowError> {
        let start = clk_obs::wall_now();
        let report =
            try_optimize_with(&self.tc, flow, cfg, self.luts.as_ref(), self.model.as_ref())?;
        Ok((report, start.elapsed().as_secs_f64() * 1e3))
    }

    /// Corner names of this case's library, in corner-id order.
    pub fn corner_names(&self) -> Vec<String> {
        self.tc
            .lib
            .corners()
            .iter()
            .map(|c| c.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_the_historical_table5_seeding() {
        let cases = suite_cases(10);
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].kind, TestcaseKind::Cls1v1);
        assert_eq!(cases[0].seed, 10);
        assert_eq!(cases[1].kind, TestcaseKind::Cls1v2);
        assert_eq!(cases[1].seed, 11);
        assert_eq!(cases[2].kind, TestcaseKind::Cls2v1);
        assert_eq!(cases[2].seed, 12);
    }

    #[test]
    fn prepare_builds_only_needed_artifacts() {
        let cfg = FlowConfig::default();
        let case = SuiteCase {
            kind: TestcaseKind::Cls1v1,
            seed: 1,
        };
        let p = PreparedCase::generate(case, 16, &cfg, &[Flow::Global]);
        assert!(p.luts.is_some());
        assert!(p.model.is_none());
        assert_eq!(p.corner_names().len(), 3);
    }
}
