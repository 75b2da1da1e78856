//! Deterministic fault-injection harness for the fault-tolerant flow
//! runtime: arms all four [`FaultSite`] classes from a seeded
//! [`FaultPlan`], runs the full global-local flow, and asserts the flow
//! completes with a degraded-but-valid result and a faithful fault log.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin chaos -- --quick --seed 2015
//! ```
//!
//! Exit code 0 when the flow survives every injected fault, returns a
//! lint-clean tree, `OptReport::faults` records every injection with its
//! recovery action, and the `clk-obs` trace mirrors the fault log — every
//! absorbed fault has a JSONL fault event and a non-empty flight-recorder
//! dump — suitable as a CI gate.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::process::ExitCode;
use std::sync::Arc;

use std::time::Duration;

use clk_bench::{ExpArgs, Stopwatch};
use clk_cts::{Testcase, TestcaseKind};
use clk_lint::{DesignCtx, LintRunner};
use clk_obs::{json, Level, MetricValue, Obs, ObsConfig, SharedBuf, Value};
use clk_skewopt::{
    try_optimize, try_optimize_with, CancelToken, DeltaLatencyModel, FaultKind, FaultPlan,
    FaultSite, Flow, StageLuts,
};

/// The fault-log kind each injection site must show up as.
fn expected_kind(site: FaultSite) -> FaultKind {
    match site {
        FaultSite::NanArcDelay => FaultKind::NanArcDelay,
        FaultSite::CorruptLutRow => FaultKind::CorruptDelayModel,
        FaultSite::InfeasibleLp => FaultKind::LpFailure,
        FaultSite::WorkerPanic => FaultKind::WorkerPanic,
    }
}

fn main() -> ExitCode {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 120 });
    let seed = args.seed;
    let cfg_base = clockvar_workbench::quick_flow_config();

    // Start from the stock seeded plan, then clamp each site's firing
    // window so every class is guaranteed an opportunity on this size:
    // the global phase probes NaN injection once per round, the LUT
    // corruption once per long arc per LP build, the infeasible row once
    // per LP build (one per round, plus one per relaxed or degraded
    // retry; only the first round's build is certain to happen), and the
    // worker panic once per spawned candidate.
    let plan = Arc::new(FaultPlan::seeded(seed));
    plan.arm(FaultSite::NanArcDelay, 0, 1);
    plan.arm(FaultSite::CorruptLutRow, (seed % 50) as u32, 1);
    plan.arm(FaultSite::InfeasibleLp, 0, 1);
    plan.arm(FaultSite::WorkerPanic, (seed % 3) as u32, 1);

    let mut cfg = cfg_base;
    cfg.fault_plan = Some(plan.clone());
    // mirror every absorbed fault into a JSONL trace we can audit after
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    let trace = SharedBuf::new();
    obs.add_jsonl_buffer(&trace);
    cfg.obs = obs.clone();

    println!("chaos: seed {seed}, {n} sinks, flow global-local");
    let sw = Stopwatch::start("chaos");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, seed);
    let report = match try_optimize(&tc, Flow::GlobalLocal, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: flow did not survive injection: {e}");
            return ExitCode::FAILURE;
        }
    };
    sw.report();

    println!("\ninjected sites: {:?}", plan.injected());
    println!("fault log ({} records):", report.faults.len());
    println!("{}", report.faults.to_text());
    println!(
        "\nvariation {:.1} -> {:.1} ps (ratio {:.3}), cells {} -> {}",
        report.variation_before,
        report.variation_after,
        report.variation_ratio(),
        report.cells_before,
        report.cells_after,
    );

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("ok: {what}");
        } else {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };

    let injected = plan.injected();
    for site in FaultSite::ALL {
        check(
            injected.contains(&site),
            &format!("fault class {site} was injected"),
        );
    }
    for site in &injected {
        let kind = expected_kind(*site);
        check(
            report.faults.of_kind(kind).count() >= 1,
            &format!("injected {site} is logged as {kind} with a recovery action"),
        );
    }
    check(
        report.tree.validate().is_ok(),
        "optimized tree is structurally valid",
    );
    // release builds default the in-flow gates to Off, so audit explicitly
    let lint = LintRunner::with_default_passes().run(&DesignCtx::with_floorplan(
        &report.tree,
        &tc.lib,
        &tc.floorplan,
    ));
    check(
        !lint.has_errors(),
        &format!(
            "optimized tree is lint-clean ({} errors)",
            lint.error_count()
        ),
    );
    check(
        report.variation_ratio() <= 1.0 + 1e-9,
        "variation did not degrade under injection",
    );

    // ---- the obs trace must mirror the fault log ----
    obs.flush();
    let fault_seqs: Vec<u64> = trace
        .contents()
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.get("t").and_then(Value::as_str) == Some("fault"))
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("fault_seq"))
                .and_then(Value::as_u64)
        })
        .collect();
    for f in report.faults.records() {
        check(
            fault_seqs.contains(&f.seq),
            &format!(
                "fault #{} ({}) has a matching JSONL fault event",
                f.seq, f.fault
            ),
        );
    }
    let dumps = obs.flight_dumps();
    check(
        dumps.len() == report.faults.len(),
        &format!(
            "one flight-recorder dump per absorbed fault ({} dumps, {} faults)",
            dumps.len(),
            report.faults.len()
        ),
    );
    check(
        dumps.iter().all(|d| !d.events.is_empty()),
        "every flight-recorder dump is non-empty",
    );

    // ---- deadline / cancellation battery ----
    if !cancellation_battery(&tc, args.quick) {
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nchaos: all checks passed");
        ExitCode::SUCCESS
    }
}

/// Sweeps deterministic cancellation cut points (token poll counts)
/// across the global-local flow and asserts the anytime contract at
/// every cut: the flow returns either a best-so-far `OptReport` with
/// `partial: true`, a valid lint-clean tree and an interrupted progress
/// marker, or — when cut before any baseline exists — a typed
/// interrupt error. Also covers the wall-clock trigger with a zero
/// budget. The simplex's acknowledgement within one poll stride is
/// pinned by clk-lp's own deadline tests, which count pivots.
fn cancellation_battery(tc: &Testcase, quick: bool) -> bool {
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("ok: {what}");
        } else {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    println!("\ncancellation battery:");
    // per-technology artifacts shared across the sweep
    let luts = StageLuts::characterize(&tc.lib);
    let base = clockvar_workbench::quick_flow_config();
    let model = DeltaLatencyModel::train(&tc.lib, base.model_kind, &base.train);

    // calibration: a passive token counts the flow's total poll count
    let calib = CancelToken::new();
    let mut cfg = base.clone();
    cfg.cancel = calib.clone();
    let total = match try_optimize_with(tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model)) {
        Ok(rep) => {
            check(!rep.partial, "calibration run completes (not partial)");
            calib.polls()
        }
        Err(e) => {
            check(false, &format!("calibration run failed: {e}"));
            return false;
        }
    };
    check(
        total > 0,
        &format!("flow polls its deadline ({total} polls)"),
    );

    // cut points spread across all phases (same seed + config ⇒ the
    // poll sequence matches the calibration run up to the trip)
    let mut cuts: Vec<u64> = if quick {
        vec![1, total / 2, total.saturating_sub(2)]
    } else {
        vec![
            1,
            total / 10,
            total / 4,
            total / 2,
            (3 * total) / 4,
            total.saturating_sub(2),
        ]
    };
    cuts.retain(|&c| c > 0 && c < total);
    cuts.dedup();
    for &cut in &cuts {
        let token = CancelToken::new();
        token.trip_after_polls(cut);
        let mut cfg = base.clone();
        cfg.cancel = token.clone();
        match try_optimize_with(tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model)) {
            Ok(rep) => {
                check(rep.partial, &format!("cut@{cut}: report is partial"));
                check(
                    rep.progress.iter().any(|p| p.interrupted),
                    &format!("cut@{cut}: an interrupted progress marker is recorded"),
                );
                check(
                    rep.tree.validate().is_ok(),
                    &format!("cut@{cut}: best-so-far tree is structurally valid"),
                );
                let lint = LintRunner::with_default_passes().run(&DesignCtx::with_floorplan(
                    &rep.tree,
                    &tc.lib,
                    &tc.floorplan,
                ));
                check(
                    !lint.has_errors(),
                    &format!(
                        "cut@{cut}: best-so-far tree is lint-clean ({} errors)",
                        lint.error_count()
                    ),
                );
            }
            Err(e) => check(
                e.is_interrupt(),
                &format!("cut@{cut}: pre-baseline cut returns a typed interrupt ({e})"),
            ),
        }
    }

    // the wall-clock trigger: a zero global budget cuts the global
    // phase on its first poll and records trigger "wall"
    let obs = Obs::new(ObsConfig::default());
    let mut cfg = base.clone();
    cfg.budget.global.wall_clock = Some(Duration::ZERO);
    cfg.obs = obs.clone();
    match try_optimize_with(tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model)) {
        Ok(rep) => {
            check(rep.partial, "zero wall budget: report is partial");
            check(
                rep.progress
                    .iter()
                    .any(|p| p.interrupted && p.trigger == Some("wall")),
                "zero wall budget: progress records the wall trigger",
            );
            check(
                rep.tree.validate().is_ok(),
                "zero wall budget: tree is structurally valid",
            );
        }
        Err(e) => check(
            e.is_interrupt(),
            &format!("zero wall budget: typed interrupt ({e})"),
        ),
    }
    if let Some(MetricValue::Histogram(h)) = obs
        .metrics_snapshot()
        .as_ref()
        .and_then(|s| s.get("cancel.ack.ms"))
    {
        check(
            h.count > 0,
            "zero wall budget: cancellation ack latency was measured",
        );
    }

    !failed
}
