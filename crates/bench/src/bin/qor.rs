//! QoR & performance regression gate: runs the flow suite (the
//! testcases behind tables 4/5) with observability enabled, emits a
//! versioned `BENCH_qor.json` snapshot plus a Chrome trace-event
//! `trace.json`, and diffs the snapshot against the committed
//! `qor-baseline.json` with noise-aware tolerance bands.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin qor -- --quick --seed 2015
//! ```
//!
//! Exit code 0 when every gated metric is within tolerance of the
//! baseline (or improved); non-zero on any regression, structural
//! mismatch, or flow failure. Flags:
//!
//! * `--out PATH` — snapshot output (default `BENCH_qor.json`);
//! * `--trace PATH` — Chrome trace output (default `trace.json`; load
//!   it at <https://ui.perfetto.dev> or `about://tracing`);
//! * `--baseline PATH` — baseline to gate against (default
//!   `qor-baseline.json`);
//! * `--write-baseline` — refresh the baseline from this run and exit
//!   (refused unless the tracked files match `HEAD`, so the baseline's
//!   `git_rev` names the code that produced it);
//! * `--self-diff` — diff this run against itself (sanity check of the
//!   gate plumbing; always exits 0);
//! * `--trajectory PATH` — append-only per-run QoR history (default
//!   `BENCH_trajectory.jsonl`); each run appends one JSONL line keyed
//!   by git revision and seed (no wall-clock timestamps — provenance
//!   is the revision), and the bin prints the variation trend across
//!   the recorded runs of the same suite/seed;
//! * `--verbose` — include neutral/informational rows in the report.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::process::ExitCode;

use clk_bench::{suite_cases, ExpArgs, PreparedCase, Provenance};
use clk_netlist::TreeStats;
use clk_obs::{chrome, json, Level, Obs, ObsConfig, SharedBuf, Value};
use clk_qor::{diff_snapshots, QorSnapshot, TestcaseQor, TolerancePolicy};
use clk_skewopt::Flow;

struct QorArgs {
    exp: ExpArgs,
    out: String,
    trace: String,
    baseline: String,
    trajectory: String,
    write_baseline: bool,
    self_diff: bool,
    verbose: bool,
}

fn parse_args() -> QorArgs {
    let argv: Vec<String> = std::env::args().collect();
    let flag_val = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    QorArgs {
        exp: ExpArgs::parse(),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_qor.json".to_string()),
        trace: flag_val("--trace").unwrap_or_else(|| "trace.json".to_string()),
        baseline: flag_val("--baseline").unwrap_or_else(|| "qor-baseline.json".to_string()),
        trajectory: flag_val("--trajectory")
            .unwrap_or_else(|| "BENCH_trajectory.jsonl".to_string()),
        write_baseline: argv.iter().any(|a| a == "--write-baseline"),
        self_diff: argv.iter().any(|a| a == "--self-diff"),
        verbose: argv.iter().any(|a| a == "--verbose"),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let n = args
        .exp
        .sinks
        .unwrap_or(if args.exp.quick { 48 } else { 128 });
    let seed = args.exp.seed;
    let suite_name = if args.exp.quick { "quick" } else { "full" };
    let cfg_base = if args.exp.quick {
        clockvar_workbench::quick_flow_config()
    } else {
        let mut cfg = clk_skewopt::FlowConfig::default();
        cfg.global.max_pairs = 120;
        cfg.local.max_iterations = 12;
        cfg.train.n_cases = 60;
        cfg.train.moves_per_case = 60;
        cfg
    };

    println!("qor: suite '{suite_name}', seed {seed}, {n} sinks/testcase, flow global-local");
    let provenance = Provenance::of_checkout();
    // a committed baseline must name the commit it was measured on
    if args.write_baseline && provenance.dirty != Some(false) {
        eprintln!(
            "FAIL: refusing --write-baseline from a tree that differs from {} (commit first)",
            provenance.rev
        );
        return ExitCode::FAILURE;
    }
    let mut snap = QorSnapshot::new(provenance.stamp(), seed, suite_name);
    let mut trace_events: Vec<Value> = Vec::new();

    for (i, case) in suite_cases(seed).into_iter().enumerate() {
        let obs = Obs::new(ObsConfig {
            verbosity: Level::Debug,
            ..ObsConfig::default()
        });
        let buf = SharedBuf::new();
        obs.add_jsonl_buffer(&buf);
        let mut cfg = cfg_base.clone();
        cfg.obs = obs.clone();

        let prep = PreparedCase::generate(case, n, &cfg, &[Flow::GlobalLocal]);
        let (report, runtime_ms) = match prep.run(Flow::GlobalLocal, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL: {} flow failed: {e}", case.kind.name());
                return ExitCode::FAILURE;
            }
        };
        obs.flush();
        let wirelength = TreeStats::compute(&report.tree, &prep.tc.lib).wirelength_um;
        let rec = TestcaseQor::from_report(
            case.kind.name(),
            &prep.corner_names(),
            &report,
            obs.metrics_snapshot().as_ref(),
            runtime_ms,
            wirelength,
        );
        println!(
            "  {:<8} var {:>7.1} -> {:>7.1} ps [{:.2}]  cells {} -> {}  faults {}  {:.1}s",
            rec.id,
            rec.variation_before_ps,
            rec.variation_after_ps,
            report.variation_ratio(),
            rec.cells_before,
            rec.cells_after,
            rec.faults_absorbed,
            runtime_ms / 1e3,
        );
        snap.testcases.push(rec);
        // one Chrome-trace process per testcase run
        match chrome::trace_events_from_jsonl(&buf.contents(), i as u64 + 1) {
            Ok(mut evs) => trace_events.append(&mut evs),
            Err(e) => {
                eprintln!("FAIL: {} trace does not convert: {e}", case.kind.name());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Err(e) = std::fs::write(&args.out, snap.to_json_pretty()) {
        eprintln!("FAIL: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("snapshot written to {}", args.out);
    let doc = chrome::trace_document(trace_events);
    if let Err(e) = std::fs::write(&args.trace, doc.to_json()) {
        eprintln!("FAIL: cannot write {}: {e}", args.trace);
        return ExitCode::FAILURE;
    }
    println!(
        "chrome trace written to {} (load at ui.perfetto.dev)",
        args.trace
    );

    // ---- append-only trajectory + trend across recorded runs ----
    // provenance is (git rev, seed): deliberately no wall-clock
    // timestamp, so the record stays reproducible and wall_now() stays
    // confined to clk-obs (A003)
    let traj_line = Value::Obj(vec![
        ("rev".to_string(), Value::from(snap.git_rev.as_str())),
        ("seed".to_string(), Value::from(seed)),
        ("suite".to_string(), Value::from(suite_name)),
        (
            "cases".to_string(),
            Value::Arr(
                snap.testcases
                    .iter()
                    .map(|t| {
                        Value::Obj(vec![
                            ("id".to_string(), Value::from(t.id.as_str())),
                            ("var_after_ps".to_string(), Value::Num(t.variation_after_ps)),
                            ("runtime_ms".to_string(), Value::Num(t.runtime_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.trajectory)
        .and_then(|mut f| {
            use std::io::Write as _;
            writeln!(f, "{}", traj_line.to_json())
        });
    if let Err(e) = appended {
        eprintln!("FAIL: cannot append to {}: {e}", args.trajectory);
        return ExitCode::FAILURE;
    }
    if let Ok(text) = std::fs::read_to_string(&args.trajectory) {
        let runs: Vec<Value> = text
            .lines()
            .filter_map(|l| json::parse(l).ok())
            .filter(|v| {
                v.get("suite").and_then(Value::as_str) == Some(suite_name)
                    && v.get("seed").and_then(Value::as_u64) == Some(seed)
            })
            .collect();
        println!(
            "\ntrajectory: {} recorded runs of suite '{suite_name}' seed {seed} in {}",
            runs.len(),
            args.trajectory
        );
        for tq in &snap.testcases {
            // this case's variation across runs, oldest first
            let series: Vec<(String, f64)> = runs
                .iter()
                .filter_map(|r| {
                    let rev = r.get("rev").and_then(Value::as_str)?.to_string();
                    let v = r.get("cases").and_then(|c| match c {
                        Value::Arr(items) => items
                            .iter()
                            .find(|it| it.get("id").and_then(Value::as_str) == Some(&tq.id))
                            .and_then(|it| it.get("var_after_ps"))
                            .and_then(Value::as_f64),
                        _ => None,
                    })?;
                    Some((rev, v))
                })
                .collect();
            let tail: Vec<String> = series
                .iter()
                .rev()
                .take(8)
                .rev()
                .map(|(_, v)| format!("{v:.1}"))
                .collect();
            let delta = (series.len() >= 2)
                .then(|| series[series.len() - 1].1 - series[series.len() - 2].1);
            let best = series
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(rev, v)| format!("{v:.1} @ {rev}"));
            println!(
                "  {:<8} var_after: [{}] ps{}  best {}",
                tq.id,
                tail.join(" "),
                delta.map_or(String::new(), |d| format!("  Δ vs prev {d:+.1}")),
                best.unwrap_or_else(|| "—".to_string()),
            );
        }
    }

    if args.write_baseline {
        if let Err(e) = std::fs::write(&args.baseline, snap.to_json_pretty()) {
            eprintln!("FAIL: cannot write {}: {e}", args.baseline);
            return ExitCode::FAILURE;
        }
        println!("baseline refreshed at {}", args.baseline);
        return ExitCode::SUCCESS;
    }

    let policy = TolerancePolicy::default_qor();
    let base = if args.self_diff {
        snap.clone()
    } else {
        match std::fs::read_to_string(&args.baseline) {
            Ok(text) => match QorSnapshot::parse_str(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("FAIL: baseline {} does not parse: {e}", args.baseline);
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => {
                println!(
                    "no baseline at {}; skipping the gate (seed one with --write-baseline)",
                    args.baseline
                );
                return ExitCode::SUCCESS;
            }
        }
    };
    let label = if args.self_diff {
        "self-diff".to_string()
    } else {
        format!("baseline {} (rev {})", args.baseline, base.git_rev)
    };
    println!("\ndiff vs {label}:");
    let diff = diff_snapshots(&base, &snap, &policy);
    print!("{}", diff.to_text(args.verbose));
    if diff.has_regressions() {
        eprintln!("FAIL: QoR regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!("qor: gate clean");
        ExitCode::SUCCESS
    }
}
