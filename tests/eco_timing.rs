//! Differential oracle for the global phase's ECO re-timing.
//!
//! Every rebuilt arc is re-timed incrementally from the trial's current
//! analysis, with only the arc's driver dirty and every other net in
//! the cone reusing its cached wire parasitics. In debug builds each
//! such re-timing is compared bit for bit with a full analysis, and a
//! mismatch panics. The ECO trial runs under `catch_unwind`, so that
//! panic would only surface as an `EcoPanic` fault in the report; this
//! test makes it fail loudly instead.

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{try_optimize_with, FaultKind, Flow, StageLuts};
use clockvar_workbench::quick_flow_config;

#[test]
fn global_eco_retiming_matches_full_analysis() {
    let cfg = quick_flow_config();
    let mut arcs_changed = 0;
    for kind in [TestcaseKind::Cls1v1, TestcaseKind::Cls2v1] {
        for seed in [2015u64, 7, 136] {
            let tc = Testcase::generate(kind, 12, seed);
            let luts = StageLuts::characterize(&tc.lib);
            let report = try_optimize_with(&tc, Flow::Global, &cfg, Some(&luts), None)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.name()));
            let panics: Vec<String> = report
                .faults
                .of_kind(FaultKind::EcoPanic)
                .map(ToString::to_string)
                .collect();
            assert!(
                panics.is_empty(),
                "{} seed {seed}: ECO trials panicked:\n{}",
                kind.name(),
                panics.join("\n")
            );
            arcs_changed += report
                .global_report
                .iter()
                .flat_map(|g| &g.sweep)
                .map(|p| p.arcs_changed)
                .sum::<usize>();
        }
    }
    // the oracle only bites where arcs were actually rebuilt and kept
    assert!(arcs_changed > 0, "no ECO arc was accepted on any case");
}
