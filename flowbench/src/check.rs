//! The output check every flow result passes before it counts: the
//! tree is structurally valid, a fresh golden timer reproduces every
//! reported QoR figure bit for bit, and every corner respects the
//! configured local-skew guard.

use clk_cts::Testcase;
use clk_netlist::TreeStats;
use clk_qor::TestcaseQor;
use clk_skewopt::{Flow, FlowConfig, OptReport};
use clk_sta::{alpha_factors, clock_power, local_skew_ps, try_pair_skews, variation_report, Timer};

/// What the check needs from the input tree, computed once per case:
/// the variation weights the flow fixes on its input, and the guard.
#[derive(Debug, Clone)]
pub struct CaseRef {
    alphas: Vec<f64>,
    var_before: f64,
    skew_before: Vec<f64>,
    guard: Vec<f64>,
}

/// Pair skews per corner of `tree`, timed by a fresh golden timer.
fn skews_of(
    tree: &clk_netlist::ClockTree,
    lib: &clk_liberty::Library,
) -> Result<(Vec<Vec<f64>>, Vec<clk_sta::CornerTiming>), String> {
    let timings = Timer::golden()
        .try_analyze_all(tree, lib)
        .map_err(|e| format!("re-timing failed: {e}"))?;
    let skews = timings
        .iter()
        .map(|t| try_pair_skews(t, tree.sink_pairs()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pair skews failed: {e}"))?;
    Ok((skews, timings))
}

impl CaseRef {
    /// Times the input tree. The guard allows, per corner, the input's
    /// local skew times the guard factor plus the absolute allowance of
    /// every phase `flow` runs (each phase guards against the input).
    ///
    /// # Errors
    ///
    /// The input tree cannot be timed.
    pub fn new(tc: &Testcase, flow: Flow, cfg: &FlowConfig) -> Result<Self, String> {
        let (skews, _) = skews_of(&tc.tree, &tc.lib)?;
        let alphas = alpha_factors(&skews);
        let var_before = variation_report(&skews, &alphas, None).sum;
        let skew_before: Vec<f64> = skews.iter().map(|s| local_skew_ps(s)).collect();
        let mut allowances = Vec::new();
        if matches!(flow, Flow::Global | Flow::GlobalLocal) {
            allowances.push((cfg.global.skew_guard_factor, cfg.global.skew_guard_ps));
        }
        if matches!(flow, Flow::Local | Flow::GlobalLocal) {
            allowances.push((cfg.local.skew_guard_factor, cfg.local.skew_guard_ps));
        }
        let guard = skew_before
            .iter()
            .map(|s| {
                allowances
                    .iter()
                    .map(|(f, ps)| s * f + ps)
                    .fold(*s, f64::max)
            })
            .collect();
        Ok(CaseRef {
            alphas,
            var_before,
            skew_before,
            guard,
        })
    }
}

fn same(what: &str, reported: f64, recomputed: f64) -> Result<(), String> {
    if reported.to_bits() == recomputed.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: reported {reported:?}, recomputed {recomputed:?}"
        ))
    }
}

fn same_all(what: &str, reported: &[f64], recomputed: &[f64]) -> Result<(), String> {
    if reported.len() != recomputed.len() {
        return Err(format!(
            "{what}: {} reported corners, {} recomputed",
            reported.len(),
            recomputed.len()
        ));
    }
    for (k, (r, c)) in reported.iter().zip(recomputed).enumerate() {
        same(&format!("{what}[{k}]"), *r, *c)?;
    }
    Ok(())
}

/// Checks one flow result against the case it ran on. On success
/// returns the canonical tree-outcome QoR JSON, which must be identical
/// across every pass of a run.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check_report(
    tc: &Testcase,
    cref: &CaseRef,
    cfg: &FlowConfig,
    report: &OptReport,
) -> Result<String, String> {
    if report.partial {
        return Err("flow returned a partial result".into());
    }
    if !report.faults.is_empty() {
        return Err(format!("flow absorbed {} fault(s)", report.faults.len()));
    }
    report
        .tree
        .validate()
        .map_err(|e| format!("output tree invalid: {e}"))?;
    let (skews, timings) = skews_of(&report.tree, &tc.lib)?;
    let var_after = variation_report(&skews, &cref.alphas, None).sum;
    let skew_after: Vec<f64> = skews.iter().map(|s| local_skew_ps(s)).collect();
    same("variation_before", report.variation_before, cref.var_before)?;
    same("variation_after", report.variation_after, var_after)?;
    same_all(
        "local_skew_before",
        &report.local_skew_before,
        &cref.skew_before,
    )?;
    same_all("local_skew_after", &report.local_skew_after, &skew_after)?;
    let power = clock_power(&report.tree, &tc.lib, &timings[0], cfg.freq_ghz).total_mw();
    same("power_after_mw", report.power_after_mw, power)?;
    let stats = TreeStats::compute(&report.tree, &tc.lib);
    same(
        "area_after_um2",
        report.area_after_um2,
        stats.buffer_area_um2,
    )?;
    for (k, (s, g)) in skew_after.iter().zip(&cref.guard).enumerate() {
        if s > g {
            return Err(format!(
                "corner {k}: local skew {s:.3} ps exceeds the guard {g:.3} ps"
            ));
        }
    }
    let names: Vec<String> = tc.lib.corners().iter().map(|c| c.name.clone()).collect();
    let id = format!("{:?}/{}", tc.kind, report.flow);
    Ok(
        TestcaseQor::from_report(id, &names, report, None, 0.0, stats.wirelength_um)
            .tree_outcome()
            .to_value()
            .to_json(),
    )
}
