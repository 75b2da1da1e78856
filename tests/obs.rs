//! Integration tests of the clk-obs instrumentation: a fully traced
//! global-local run must emit a parseable JSONL stream that covers every
//! flow phase, every global round and every local batch, with per-phase
//! wall-clock totals that tile the flow span, and must mirror every
//! absorbed fault as a fault event plus a flight-recorder dump. Every
//! metric a run emits is declared in the dictionary, and the counters
//! account for the global phase's one LP per round: one cold solve per
//! round, every later λ point warm. The decision ledger of a run replays
//! to that run's tree.

use std::sync::Arc;

use clk_cts::{Testcase, TestcaseKind};
use clk_netlist::io::write_ctree;
use clk_obs::{dict, json, ledger, AttrNode, Level, Obs, ObsConfig, SharedBuf, Value};
use clk_skewopt::{replay_ledger, try_optimize, FaultPlan, FaultSite, Flow, FlowConfig, OptReport};
use clockvar_workbench::quick_flow_config;

/// Runs the quick global-local flow with a Debug-verbosity JSONL trace.
fn traced_run(cfg_mut: impl FnOnce(&mut FlowConfig)) -> (OptReport, Obs, Vec<Value>) {
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf);
    let mut cfg = quick_flow_config();
    cfg.global.rounds = 1;
    cfg.local.max_iterations = 2;
    cfg.obs = obs.clone();
    cfg_mut(&mut cfg);
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 77);
    let report = try_optimize(&tc, Flow::GlobalLocal, &cfg).expect("instrumented flow completes");
    obs.flush();
    let records: Vec<Value> = buf
        .contents()
        .lines()
        .map(|l| json::parse(l).expect("every trace line is valid JSON"))
        .collect();
    assert!(!records.is_empty(), "trace is non-empty");
    (report, obs, records)
}

fn kind(v: &Value) -> &str {
    v.get("t").and_then(Value::as_str).unwrap_or("")
}

fn span_ends<'a>(records: &'a [Value], name: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| kind(v) == "span_end" && v.get("name").and_then(Value::as_str) == Some(name))
        .collect()
}

#[test]
fn trace_covers_phases_rounds_and_batches_and_tiles_the_flow() {
    let (report, _obs, records) = traced_run(|_| {});

    // every phase has exactly one closed span
    for phase in ["phase.init", "phase.global", "phase.local", "phase.scoring"] {
        assert_eq!(span_ends(&records, phase).len(), 1, "{phase} span missing");
    }

    // per-phase totals tile the flow span within ±5%
    let flow_ms = span_ends(&records, "flow")[0]
        .get("elapsed_ms")
        .and_then(Value::as_f64)
        .expect("flow span has elapsed_ms");
    let phase_sum: f64 = ["phase.init", "phase.global", "phase.local", "phase.scoring"]
        .iter()
        .map(|p| {
            span_ends(&records, p)[0]
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .expect("phase span has elapsed_ms")
        })
        .sum();
    let off = (phase_sum - flow_ms).abs() / flow_ms;
    assert!(
        off <= 0.05,
        "phase totals {phase_sum:.1} ms vs flow {flow_ms:.1} ms ({:.1}% off)",
        100.0 * off
    );

    // every global round ran under a span, and rounds contain lambda spans
    let rounds = span_ends(&records, "global.round");
    let expected_rounds = report
        .global_report
        .as_ref()
        .map_or(0, |g| g.sweep.len() / 2); // quick config sweeps 2 lambdas
    assert!(!rounds.is_empty());
    assert!(
        rounds.len() >= expected_rounds,
        "a global round has no span"
    );
    let lambdas = span_ends(&records, "global.lambda");
    for r in &rounds {
        let id = r.get("span").and_then(Value::as_u64);
        assert!(
            lambdas
                .iter()
                .any(|l| l.get("parent").and_then(Value::as_u64) == id),
            "round span has no lambda children"
        );
    }

    // every accepted local move corresponds to an accepted batch span
    let batches = span_ends(&records, "local.batch");
    let accepted = batches
        .iter()
        .filter(|b| {
            b.get("fields")
                .and_then(|f| f.get("outcome"))
                .and_then(Value::as_str)
                == Some("accepted")
        })
        .count();
    let accepted_reported = report
        .local_report
        .as_ref()
        .map_or(0, |l| l.iterations.len());
    assert_eq!(accepted, accepted_reported);
    assert!(!span_ends(&records, "local.iter").is_empty());
}

#[test]
fn absorbed_faults_mirror_into_events_and_flight_dumps() {
    let plan = Arc::new(FaultPlan::inert(3));
    plan.arm(FaultSite::NanArcDelay, 0, 1);
    plan.arm(FaultSite::WorkerPanic, 0, 1);
    let (report, obs, records) = traced_run(move |cfg| cfg.fault_plan = Some(plan));

    assert!(!report.faults.is_empty(), "injection produced no faults");
    let fault_seqs: Vec<u64> = records
        .iter()
        .filter(|v| kind(v) == "fault")
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("fault_seq"))
                .and_then(Value::as_u64)
        })
        .collect();
    for f in report.faults.records() {
        assert!(
            fault_seqs.contains(&f.seq),
            "fault #{} has no JSONL event",
            f.seq
        );
    }
    let dumps = obs.flight_dumps();
    assert_eq!(dumps.len(), report.faults.len());
    assert!(dumps.iter().all(|d| !d.events.is_empty()));
    // the dump is also mirrored into the stream itself
    assert!(records.iter().any(|v| kind(v) == "flight_dump"));
}

#[test]
fn disabled_pipeline_emits_nothing_and_changes_nothing() {
    let obs = Obs::disabled();
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf); // no-op on a disabled pipeline
    let mut cfg = quick_flow_config();
    cfg.global.rounds = 1;
    cfg.local.max_iterations = 1;
    cfg.obs = obs.clone();
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 77);
    let report = try_optimize(&tc, Flow::GlobalLocal, &cfg).expect("flow completes untraced");
    assert!(buf.contents().is_empty());
    assert!(obs.metrics_snapshot().is_none());
    assert!(report.variation_after <= report.variation_before);
}

#[test]
fn traced_flow_emits_only_declared_metrics() {
    let (_report, obs, _records) = traced_run(|_| {});
    let snap = obs.metrics_snapshot().expect("enabled pipeline");
    assert!(snap.iter().any(|(name, _)| name == "lp.warm_solves"));
    let problems = dict::check_snapshot(&snap);
    assert!(problems.is_empty(), "{problems:#?}");
}

/// Entries into every profiler scope named `name`, wherever it nests.
fn scope_count(node: &AttrNode, name: &str) -> u64 {
    let own = if node.name == name { node.count } else { 0 };
    own + node
        .children
        .iter()
        .map(|c| scope_count(c, name))
        .sum::<u64>()
}

#[test]
fn each_global_round_builds_one_lp_and_warm_starts_its_later_lambdas() {
    let obs = Obs::new(ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    let mut cfg = quick_flow_config();
    cfg.global.rounds = 2;
    cfg.global.lambdas = vec![0.05, 0.15, 0.3];
    cfg.obs = obs.clone();
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, 77);
    let report = try_optimize(&tc, Flow::Global, &cfg).expect("global flow completes");
    let points = report.global_report.as_ref().map_or(0, |g| g.sweep.len()) as u64;
    let count = |name: &str| obs.counter(name).map_or(0, |c| c.get());
    let rounds = count("global.rounds");
    assert!(
        rounds >= 1 && points == 3 * rounds,
        "{rounds} rounds, {points} points"
    );
    // every point solved on the as-built rung: one build per round, its
    // first solve cold and every later one warm, with no fallback
    assert_eq!(count("global.ladder.none"), points);
    assert_eq!(count("lp.solves"), points);
    assert_eq!(count("lp.warm_solves"), points - rounds);
    assert_eq!(count("lp.warm_fallbacks"), 0);
    let tree = obs.profiler().tree();
    assert_eq!(scope_count(&tree, "global.lp_build"), rounds);
}

/// The decision ledger replays to the tree of the run that wrote it,
/// through the full serialize → parse → replay path.
#[test]
fn ledger_replay_reproduces_the_recording_run() {
    let obs = Obs::new(ObsConfig {
        ledger: true,
        ..ObsConfig::default()
    });
    let mut cfg = quick_flow_config();
    cfg.global.rounds = 1;
    cfg.local.max_iterations = 2;
    cfg.obs = obs.clone();
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, 77);
    let report = try_optimize(&tc, Flow::GlobalLocal, &cfg).expect("ledgered flow completes");
    let recorded = write_ctree(&report.tree, &tc.lib);
    assert_ne!(
        recorded,
        write_ctree(&tc.tree, &tc.lib),
        "the run changed nothing"
    );
    let records = ledger::parse_jsonl(&obs.ledger().to_jsonl()).expect("ledger parses back");
    assert!(!records.is_empty());
    cfg.obs = Obs::disabled();
    let replayed = replay_ledger(&tc.tree, &tc.lib, &tc.floorplan, &cfg, &records)
        .expect("the ledger replays onto its input tree");
    assert_eq!(
        write_ctree(&replayed, &tc.lib),
        recorded,
        "replayed tree differs from the recorded run's"
    );
}
