//! The report gate: one run of the flow suite, every check, one
//! artifact directory.
//!
//! Each testcase of the suite runs once under `Flow::GlobalLocal` with
//! one observability pipeline: Debug spans into a JSONL buffer, the
//! profiler and the decision ledger. Every check then reads that run:
//! the metrics dictionary, the attribution coverage floors, the
//! profiler's own cost, the trace structure of each case, the ledger
//! reconciliation and replay, and with `--baseline PATH` the QoR diff
//! against that snapshot (README "The report gate" lists the bounds).
//!
//! The directory (`--out DIR`, default `BENCH_gate`) holds
//! `BENCH_qor.json`, `profile.json`, `flame.folded`, `attribution.md`,
//! `trace.jsonl`, `trace.json` (Chrome trace-event format, one process
//! per case), `BENCH_waterfall.{md,json}`, `ledgers/<case>.jsonl` and
//! the append-only `BENCH_trajectory.jsonl`. Every file names the
//! source revision it came from, except the ledgers: they are the
//! flow's own record, byte for byte, and `BENCH_waterfall.json` stamps
//! them.
//!
//! `gate diff A B` compares two such directories: counters, profile
//! entry counts and histogram sample counts exactly (a key the base
//! lacks is `new`, not a regression), QoR through
//! `clk_qor::diff_snapshots`, and each ledger decision by decision. Two
//! same-seed runs diff clean.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin gate -- --quick --seed 2015 \
//!     --baseline qor-baseline.json
//! cargo run --release -p clk-bench --bin gate -- diff BENCH_gate BENCH_gate-rerun
//! ```
//!
//! `--write-baseline` writes the QoR snapshot of a run that passed
//! every check to the `--baseline` path (default `qor-baseline.json`)
//! instead of diffing against it, and refuses a tree whose tracked
//! files differ from `HEAD`. Exit 0 when every check passes, 1 on a
//! failed check, 2 on an unknown flag or a bad value.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use clk_bench::{suite_cases, suite_config, PreparedCase, Provenance};
use clk_netlist::{ClockTree, TreeStats};
use clk_obs::profile::to_folded;
use clk_obs::{
    chrome, dict, json, kv, ledger, AttrNode, LedgerRecord, Level, MetricValue, MetricsSnapshot,
    Obs, ObsConfig, SharedBuf, Value,
};
use clk_qor::{
    diff_snapshots, CornerQor, Direction, QorDiff, QorSnapshot, TestcaseQor, Tolerance,
    TolerancePolicy, Verdict,
};
use clk_skewopt::{replay_ledger, Flow, FlowConfig, OptReport};
use clk_sta::{alpha_factors, clock_power, local_skew_ps, try_pair_skews, variation_report, Timer};

/// Attribution floor: a gated node's children cover at least this
/// share of its wall.
const COVERAGE_FLOOR: f64 = 0.9;
/// A node whose total is below this is too small to attribute
/// meaningfully; the coverage floor skips it.
const COVERAGE_MIN_MS: f64 = 5.0;
/// Budget for the profiler's own cost, percent of the profiled wall.
const OVERHEAD_PCT: f64 = 3.0;
/// The four phase spans must sum to the flow span within this share (a
/// loaded machine can stall between spans).
const TILE_TOL: f64 = 0.10;
/// The ledger's committed checkpoints must telescope to the end-to-end
/// variation within this, ps.
const RECON_TOL_PS: f64 = 1e-6;
const DEFAULT_OUT: &str = "BENCH_gate";
const DEFAULT_BASELINE: &str = "qor-baseline.json";

const USAGE: &str = "usage: gate [--quick] [--seed N] [--sinks N] [--out DIR] \
[--baseline PATH] [--write-baseline]
       gate diff DIR_A DIR_B";

struct RunArgs {
    quick: bool,
    seed: u64,
    sinks: Option<usize>,
    out: String,
    baseline: Option<String>,
    write_baseline: bool,
}

enum Mode {
    Help,
    Run(RunArgs),
    Diff(String, String),
}

/// Parses the arguments after the program name; an unknown flag, a
/// missing value or a value that does not parse is an error.
fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Mode::Help);
    }
    if argv.first().map(String::as_str) == Some("diff") {
        return match &argv[1..] {
            [a, b] if !a.starts_with('-') && !b.starts_with('-') => {
                Ok(Mode::Diff(a.clone(), b.clone()))
            }
            _ => Err("diff takes exactly two artifact directories".to_string()),
        };
    }
    let mut args = RunArgs {
        quick: false,
        seed: 1,
        sinks: None,
        out: DEFAULT_OUT.to_string(),
        baseline: None,
        write_baseline: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--write-baseline" => args.write_baseline = true,
            "--seed" | "--sinks" | "--out" | "--baseline" => {
                let val = it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone();
                let bad = || format!("bad value for {flag}: {val}");
                match flag.as_str() {
                    "--seed" => args.seed = val.parse().map_err(|_| bad())?,
                    "--sinks" => args.sinks = Some(val.parse().map_err(|_| bad())?),
                    "--out" => args.out = val,
                    _ => args.baseline = Some(val),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::Diff(a, b)) => diff_dirs(&a, &b),
        Err(e) => {
            eprintln!("gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fails = outcome.unwrap_or_else(|e| vec![e]);
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    if fails.is_empty() {
        println!("gate: every check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- run

/// One testcase's run and everything its pipeline captured.
struct CaseRun {
    prep: PreparedCase,
    report: OptReport,
    runtime_ms: f64,
    jsonl: String,
    metrics: MetricsSnapshot,
    profile: AttrNode,
    ledger: String,
}

impl CaseRun {
    fn id(&self) -> &'static str {
        self.prep.case.kind.name()
    }
}

fn run_case(prep: PreparedCase, cfg_base: &FlowConfig) -> Result<CaseRun, String> {
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        profile: true,
        ledger: true,
        ..ObsConfig::default()
    });
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf);
    let mut cfg = cfg_base.clone();
    cfg.obs = obs.clone();
    let (report, runtime_ms) = prep
        .run(Flow::GlobalLocal, &cfg)
        .map_err(|e| format!("{} flow failed: {e}", prep.case.kind.name()))?;
    obs.flush();
    Ok(CaseRun {
        prep,
        report,
        runtime_ms,
        jsonl: buf.contents(),
        metrics: obs.metrics_snapshot().unwrap_or_default(),
        profile: obs.profiler().tree(),
        ledger: obs.ledger().to_jsonl(),
    })
}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &RunArgs) -> Result<Vec<String>, String> {
    let (default_n, cfg_base) = suite_config(args.quick);
    let n = args.sinks.unwrap_or(default_n);
    let suite = if args.quick { "quick" } else { "full" };
    let seed = args.seed;
    let provenance = Provenance::of_checkout();
    if args.write_baseline {
        if let Some(why) = baseline_refusal(&provenance) {
            return Err(why);
        }
    }
    let rev = provenance.stamp();
    let dir = Path::new(&args.out);
    std::fs::create_dir_all(dir.join("ledgers"))
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    println!(
        "gate: suite '{suite}', seed {seed}, {n} sinks/testcase, flow global-local, rev {rev}"
    );

    let mut runs = Vec::new();
    for case in suite_cases(seed) {
        let prep = PreparedCase::generate(case, n, &cfg_base, &[Flow::GlobalLocal]);
        runs.push(run_case(prep, &cfg_base)?);
    }

    let stamp = || {
        vec![
            kv("git_rev", rev.as_str()),
            kv("suite", suite),
            kv("seed", seed),
        ]
    };
    let mut fails = Vec::new();
    let mut qor = QorSnapshot::new(rev.clone(), seed, suite);
    let mut jsonl = Value::Obj([vec![kv("t", "provenance")], stamp()].concat()).to_json() + "\n";
    let mut chrome_events = Vec::new();
    let mut waterfall_md = format!(
        "# QoR waterfall — suite {suite}, seed {seed}, rev {rev}\n\n\
         Per-testcase attribution of the end-to-end skew-variation change\n\
         to committed ledger decisions (adopted global λ rounds, committed\n\
         local moves).\n\n"
    );
    let mut waterfall_cases = Vec::new();
    let mut profile_cases = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let id = run.id();
        fails.extend(dictionary_failures(id, &run.metrics));
        fails.extend(coverage_failures(id, &run.profile));
        let expect = TraceExpect::of(run, &cfg_base);
        fails.extend(trace_failures(id, &run.jsonl, &expect));

        let wirelength = TreeStats::compute(&run.report.tree, &run.prep.tc.lib).wirelength_um;
        let rec = TestcaseQor::from_report(
            id,
            &run.prep.corner_names(),
            &run.report,
            Some(&run.metrics),
            run.runtime_ms,
            wirelength,
        );

        // the waterfall and the replay read the ledger back from its
        // on-disk form, as any consumer of the artifact does
        write(dir, &format!("ledgers/{id}.jsonl"), &run.ledger)?;
        let records = ledger::parse_jsonl(&run.ledger).map_err(|e| format!("{id}: {e}"))?;
        let w = build_waterfall(&records).map_err(|e| format!("{id}: {e}"))?;
        fails.extend(reconcile_failures(id, &w));
        if let Err(e) = replay_check(run, &rec, &records, &cfg_base) {
            fails.push(format!("{id}: {e}"));
        }
        waterfall_md.push_str(&waterfall_markdown(id, run.prep.case.seed, &w));
        waterfall_cases.push(waterfall_json(id, &w));

        let case_seed = run.prep.case.seed;
        let _ = writeln!(jsonl, r#"{{"t":"case","id":"{id}","seed":{case_seed}}}"#);
        jsonl.push_str(&run.jsonl);
        match chrome::trace_events_from_jsonl(&run.jsonl, i as u64 + 1) {
            Ok(mut evs) => chrome_events.append(&mut evs),
            Err(e) => fails.push(format!("{id}: trace does not convert: {e}")),
        }

        let (ratio, secs) = (run.report.variation_ratio(), run.runtime_ms / 1e3);
        println!(
            "  {id:<8} variation x{ratio:.3}, {} decisions, {secs:.1} s",
            w.steps.len()
        );
        qor.testcases.push(rec);
        profile_cases.push(profile_case(run));
    }

    // the profiler's own cost: wall with the profiler on vs off jitters
    // by more than the profiler costs on a shared machine, so the gated
    // figure is the measured per-scope cost times the exact scope count
    let cost_ns = per_scope_cost_ns();
    let scopes: u64 = runs.iter().map(|r| scope_calls(&r.profile)).sum();
    let wall_ms: f64 = runs.iter().map(|r| r.runtime_ms).sum();
    let overhead = overhead_pct(scopes, cost_ns, wall_ms);
    println!("profiler overhead: {scopes} scopes x {cost_ns:.0} ns = {overhead:.3}% of {wall_ms:.1} ms profiled wall");
    if overhead > OVERHEAD_PCT {
        fails.push(format!(
            "profiler overhead {overhead:.3}% exceeds {OVERHEAD_PCT:.1}%"
        ));
    }

    let mut flame_root = AttrNode::root();
    for run in &runs {
        let mut case_node = run.profile.clone();
        case_node.name = run.id().to_string();
        flame_root.children.push(case_node);
    }
    let mut trace_doc = chrome::trace_document(chrome_events);
    if let Value::Obj(pairs) = &mut trace_doc {
        pairs.push(kv("otherData", Value::Obj(stamp())));
    }
    let head = vec![kv("schema", 1u64), kv("tool", "gate")];
    let profile_doc = [head, stamp(), vec![kv("cases", Value::Arr(profile_cases))]].concat();
    let waterfall_doc = [
        stamp(),
        vec![
            kv("recon_tol_ps", RECON_TOL_PS),
            kv("cases", Value::Arr(waterfall_cases)),
        ],
    ]
    .concat();
    let artifacts = [
        ("BENCH_qor.json", qor.to_json_pretty()),
        ("profile.json", Value::Obj(profile_doc).to_json() + "\n"),
        // folded-stack readers skip a line whose weight does not parse
        (
            "flame.folded",
            format!(
                "# rev={rev} suite={suite} seed={seed}\n{}",
                to_folded(&flame_root)
            ),
        ),
        (
            "attribution.md",
            format!(
                "# Attribution — suite {suite}, seed {seed}, rev {rev}\n\n{}",
                attribution_md(&runs)
            ),
        ),
        ("trace.jsonl", jsonl),
        ("trace.json", trace_doc.to_json()),
        ("BENCH_waterfall.md", waterfall_md),
        ("BENCH_waterfall.json", Value::Obj(waterfall_doc).to_json()),
    ];
    for (name, contents) in &artifacts {
        write(dir, name, contents)?;
    }
    append_trajectory(&dir.join("BENCH_trajectory.jsonl"), &qor)?;
    println!("artifacts written to {}/", dir.display());

    let baseline = args.baseline.as_deref();
    if args.write_baseline {
        // a baseline records a run that passed every check
        if fails.is_empty() {
            let path = baseline.unwrap_or(DEFAULT_BASELINE);
            std::fs::write(path, qor.to_json_pretty())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("baseline written to {path}");
        }
    } else if let Some(path) = baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let base = QorSnapshot::parse_str(&text)
            .map_err(|e| format!("baseline {path} does not parse: {e}"))?;
        println!("\nQoR vs baseline {path} (rev {}):", base.git_rev);
        let diff = diff_snapshots(&base, &qor, &TolerancePolicy::default_qor());
        print!("{}", diff.to_text(false));
        fails.extend(qor_failures(&diff));
    }
    Ok(fails)
}

/// Why `--write-baseline` must not run on this checkout, if it must
/// not: a committed baseline names the commit it was measured on.
fn baseline_refusal(p: &Provenance) -> Option<String> {
    (p.dirty != Some(false)).then(|| {
        format!(
            "refusing --write-baseline from a tree that differs from {} (commit first)",
            p.rev
        )
    })
}

/// Appends one line to the QoR history: revision, seed and per-case
/// variation and runtime. No wall-clock timestamp: the revision is the
/// provenance, so the record stays reproducible.
fn append_trajectory(path: &Path, snap: &QorSnapshot) -> Result<(), String> {
    let cases = snap
        .testcases
        .iter()
        .map(|t| {
            Value::Obj(vec![
                kv("id", t.id.as_str()),
                kv("var_after_ps", t.variation_after_ps),
                kv("runtime_ms", t.runtime_ms),
            ])
        })
        .collect();
    let line = Value::Obj(vec![
        kv("rev", snap.git_rev.as_str()),
        kv("seed", snap.seed),
        kv("suite", snap.suite.as_str()),
        kv("cases", Value::Arr(cases)),
    ]);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| {
            use std::io::Write as _;
            writeln!(f, "{}", line.to_json())
        })
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

// ------------------------------------------------------------- checks

fn dictionary_failures(id: &str, snap: &MetricsSnapshot) -> Vec<String> {
    dict::check_snapshot(snap)
        .into_iter()
        .map(|p| format!("{id}: metrics dictionary: {p}"))
        .collect()
}

/// The attribution floors. `local.batch`'s children are the
/// coordinator's own: its stripe of `local.eval`, its spawn of and wait
/// for the other stripes (`local.spawn`, `local.join`) and its tally and
/// commit (`local.commit`); the workers' `local.eval` subtrees root at
/// top level and overlap the join, so they are not added.
fn coverage_failures(id: &str, profile: &AttrNode) -> Vec<String> {
    ["lp.solve", "local.batch"]
        .into_iter()
        .filter_map(|name| {
            let node = profile.find(name)?;
            let cov = node.coverage();
            (node.total_ms() >= COVERAGE_MIN_MS && cov < COVERAGE_FLOOR).then(|| {
                format!(
                    "{id}: {name} attribution {:.1}% < {:.0}%",
                    cov * 100.0,
                    COVERAGE_FLOOR * 100.0
                )
            })
        })
        .collect()
}

/// Estimated profiler cost, percent of the profiled wall.
fn overhead_pct(scopes: u64, cost_ns: f64, wall_ms: f64) -> f64 {
    scopes as f64 * cost_ns / 1e6 / wall_ms.max(1e-9) * 100.0
}

/// Measures the cost of one profiler scope (enter + drop) with a
/// calibration loop on a live profiler.
fn per_scope_cost_ns() -> f64 {
    let prof = clk_obs::Profiler::enabled();
    const N: u32 = 200_000;
    // warm the arena so calibration measures the steady state
    for _ in 0..1000 {
        let _g = prof.scope("calibrate");
    }
    let start = clk_obs::wall_now();
    for _ in 0..N {
        let _outer = prof.scope("calibrate");
        let _inner = prof.scope("calibrate.inner");
    }
    // two scopes per iteration
    start.elapsed().as_nanos() as f64 / f64::from(N) / 2.0
}

/// Total scope enters recorded in an attribution tree.
fn scope_calls(root: &AttrNode) -> u64 {
    let mut rows = Vec::new();
    flatten(root, "", &mut rows);
    rows.iter().map(|(_, n)| n.count).sum()
}

/// What the flow's own report says its trace must show.
struct TraceExpect {
    /// Global rounds the λ sweep ran.
    rounds: usize,
    /// Local batches the report accepted.
    accepted_batches: usize,
    /// `seq` of every absorbed fault.
    fault_seqs: Vec<u64>,
    /// Samples in the predictor error histogram `local.predict.err_ps`.
    predictor_samples: u64,
}

impl TraceExpect {
    fn of(run: &CaseRun, cfg: &FlowConfig) -> Self {
        let r = &run.report;
        TraceExpect {
            rounds: r
                .global_report
                .as_ref()
                .map_or(0, |g| g.sweep.len() / cfg.global.lambdas.len().max(1)),
            accepted_batches: r.local_report.as_ref().map_or(0, |l| l.iterations.len()),
            fault_seqs: r.faults.records().iter().map(|f| f.seq).collect(),
            predictor_samples: match run.metrics.get("local.predict.err_ps") {
                Some(MetricValue::Histogram(h)) => h.count,
                _ => 0,
            },
        }
    }
}

/// The records of kind `t` named `name` (any name when empty).
fn named<'a>(recs: &'a [Value], t: &str, name: &str) -> Vec<&'a Value> {
    let is = |v: &Value, key: &str, want: &str| v.get(key).and_then(Value::as_str) == Some(want);
    recs.iter()
        .filter(|v| is(v, "t", t) && (name.is_empty() || is(v, "name", name)))
        .collect()
}

/// The structural checks on one case's JSONL trace.
fn trace_failures(id: &str, jsonl: &str, want: &TraceExpect) -> Vec<String> {
    let mut recs = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        match json::parse(line) {
            Ok(v) => recs.push(v),
            Err(e) => return vec![format!("{id}: trace line {} does not parse: {e}", i + 1)],
        }
    }
    let ended = |name: &str| named(&recs, "span_end", name);
    let elapsed = |v: &&Value| v.get("elapsed_ms").and_then(Value::as_f64);
    let field = |v: &Value, key: &str| v.get("fields").and_then(|f| f.get(key)).cloned();
    let span = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);

    let flow_ms = ended("flow").first().and_then(elapsed).unwrap_or(0.0);
    let phases = ["phase.init", "phase.global", "phase.local", "phase.scoring"];
    let missing: Vec<&str> = phases.into_iter().filter(|p| ended(p).is_empty()).collect();
    let phase_ms: f64 = phases
        .iter()
        .flat_map(|p| ended(p))
        .filter_map(|v| elapsed(&v))
        .sum();
    let tile = (phase_ms - flow_ms).abs() / flow_ms.max(1e-9);
    let rounds = ended("global.round");
    let lambdas = ended("global.lambda");
    let iters = ended("local.iter");
    let outcome =
        |v: &Value| field(v, "outcome").as_ref().and_then(Value::as_str) == Some("accepted");
    let accepted = ended("local.batch")
        .into_iter()
        .filter(|v| outcome(v))
        .count();
    let events: Vec<u64> = named(&recs, "fault", "")
        .into_iter()
        .filter_map(|v| field(v, "fault_seq").as_ref().and_then(Value::as_u64))
        .collect();
    let unmatched = want
        .fault_seqs
        .iter()
        .filter(|s| !events.contains(s))
        .count();
    let faults = want.fault_seqs.len();
    [
        (flow_ms > 0.0, "the flow span is not closed".to_string()),
        (missing.is_empty(), format!("phases without a span: {missing:?}")),
        (
            tile <= TILE_TOL,
            format!(
                "phase spans sum to {phase_ms:.1} ms, {:.1}% off the {flow_ms:.1} ms flow span (bound {:.0}%)",
                100.0 * tile,
                100.0 * TILE_TOL
            ),
        ),
        (
            !rounds.is_empty() && rounds.len() >= want.rounds,
            format!("{} global round spans for {} rounds", rounds.len(), want.rounds),
        ),
        (
            rounds.iter().all(|r| lambdas.iter().any(|l| span(l, "parent") == span(r, "span"))),
            "a global round span holds no λ span".to_string(),
        ),
        (!iters.is_empty(), "the local phase has no iteration spans".to_string()),
        (
            iters.is_empty() || want.predictor_samples > 0,
            "the predictor error histogram (local.predict.err_ps) is empty".to_string(),
        ),
        (
            accepted == want.accepted_batches,
            format!("{accepted} accepted batch spans, {} in the local report", want.accepted_batches),
        ),
        (unmatched == 0, format!("{unmatched} of {faults} absorbed faults have no fault event")),
    ]
    .into_iter()
    .filter(|(ok, _)| !ok)
    .map(|(_, what)| format!("{id}: {what}"))
    .collect()
}

fn reconcile_failures(id: &str, w: &Waterfall) -> Vec<String> {
    let mut fails: Vec<String> = w.notes.iter().map(|n| format!("{id}: {n}")).collect();
    if w.recon_err > RECON_TOL_PS {
        fails.push(format!(
            "{id}: ledger does not reconcile (err {:.3e} ps > {RECON_TOL_PS} ps)",
            w.recon_err
        ));
    }
    fails
}

/// Re-applies the ledger to the input tree and compares tree-outcome
/// QoR snapshots byte for byte. Both trees, the recorded and the
/// replayed one, go through the same projection: every tree-dependent
/// field re-derived against the input tree, the rest zero.
fn replay_check(
    run: &CaseRun,
    recorded: &TestcaseQor,
    records: &[LedgerRecord],
    cfg: &FlowConfig,
) -> Result<(), String> {
    let tc = &run.prep.tc;
    let replayed = replay_ledger(&tc.tree, &tc.lib, &tc.floorplan, cfg, records)
        .map_err(|e| format!("replay failed: {e}"))?;
    let timer = Timer::golden();
    let analyze = |t: &ClockTree| -> Result<_, String> {
        let a = timer
            .try_analyze_all(t, &tc.lib)
            .map_err(|e| e.to_string())?;
        let skews: Vec<Vec<f64>> = a
            .iter()
            .map(|x| try_pair_skews(x, t.sink_pairs()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok((a, skews))
    };
    let (a0, skews0) = analyze(&tc.tree)?;
    let alphas = alpha_factors(&skews0);
    let s0 = TreeStats::compute(&tc.tree, &tc.lib);
    let recorded = recorded.tree_outcome();
    let outcome = |tree: &ClockTree| -> Result<TestcaseQor, String> {
        let (a1, skews1) = analyze(tree)?;
        let s1 = TreeStats::compute(tree, &tc.lib);
        let corners = run.prep.corner_names().into_iter().enumerate();
        Ok(TestcaseQor {
            variation_before_ps: variation_report(&skews0, &alphas, None).sum,
            variation_after_ps: variation_report(&skews1, &alphas, None).sum,
            corners: corners
                .map(|(k, name)| CornerQor {
                    name,
                    skew_before_ps: local_skew_ps(&skews0[k]),
                    skew_after_ps: local_skew_ps(&skews1[k]),
                })
                .collect(),
            cells_before: s0.n_buffers as u64,
            cells_after: s1.n_buffers as u64,
            area_before_um2: s0.buffer_area_um2,
            area_after_um2: s1.buffer_area_um2,
            power_before_mw: clock_power(&tc.tree, &tc.lib, &a0[0], cfg.freq_ghz).total_mw(),
            power_after_mw: clock_power(tree, &tc.lib, &a1[0], cfg.freq_ghz).total_mw(),
            wirelength_um: s1.wirelength_um,
            ..recorded.clone()
        })
    };
    replay_mismatch(
        run.prep.case.seed,
        &recorded,
        &outcome(&run.report.tree)?,
        &outcome(&replayed)?,
    )
}

/// The byte comparison of the replay check. `projected` is the
/// recorded tree put through the same projection as the replayed one;
/// it must agree with the recorded report before the comparison means
/// anything.
fn replay_mismatch(
    seed: u64,
    recorded: &TestcaseQor,
    projected: &TestcaseQor,
    replayed: &TestcaseQor,
) -> Result<(), String> {
    let canon = |rec: &TestcaseQor| {
        let mut snap = QorSnapshot::new("replay-check", seed, "replay");
        snap.testcases.push(rec.clone());
        snap.canonical_json()
    };
    if canon(projected) != canon(recorded) {
        return Err("tree-outcome projection disagrees with the recorded report".to_string());
    }
    if canon(replayed) != canon(recorded) {
        return Err(
            "the replayed tree's snapshot differs byte-wise from the recording".to_string(),
        );
    }
    Ok(())
}

fn qor_failures(diff: &QorDiff) -> Vec<String> {
    let notes = diff.notes.iter().map(|n| format!("QoR: {n}"));
    let regressed = diff
        .regressions()
        .map(|d| format!("QoR: {} regressed {} -> {}", d.key, d.base, d.cur));
    notes.chain(regressed).collect()
}

// ---------------------------------------------------------- waterfall

/// One committed decision of the waterfall.
struct Step {
    /// Decision label, stable across runs of the same configuration so
    /// a diff can align on it.
    label: String,
    /// Total skew variation after the decision, under the flow α*, ps.
    var: f64,
    /// Variation change carried by the decision, ps.
    delta: f64,
}

/// The per-testcase waterfall distilled from one ledger.
struct Waterfall {
    /// Variation at flow init, ps.
    init: f64,
    /// Variation at flow end, ps.
    end: f64,
    /// Committed decisions, in execution order.
    steps: Vec<Step>,
    /// `|last committed checkpoint − flow end|`, ps.
    recon_err: f64,
    /// `phase_end` checkpoints that disagree with the walk.
    notes: Vec<String>,
}

/// Distills the committed-decision waterfall out of a parsed ledger.
fn build_waterfall(records: &[LedgerRecord]) -> Result<Waterfall, String> {
    let Some(LedgerRecord::FlowInit { var: init, .. }) = records.first() else {
        return Err("ledger does not start with flow_init".to_string());
    };
    let Some(LedgerRecord::FlowEnd { var: end }) = records.last() else {
        return Err("ledger does not end with flow_end".to_string());
    };
    // accepted ECO arcs per (round, λ-bits), for round labels
    let mut arc_counts: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for rec in records {
        if let LedgerRecord::EcoArc {
            round,
            lambda,
            accepted: true,
            ..
        } = rec
        {
            *arc_counts.entry((*round, lambda.to_bits())).or_default() += 1;
        }
    }
    let mut notes = Vec::new();
    let mut steps: Vec<Step> = Vec::new();
    let mut pending: Vec<Step> = Vec::new();
    let mut ckpt = *init;
    let mut phase_ckpt = *init;
    for rec in records {
        match rec {
            LedgerRecord::PhaseStart { .. } => {
                phase_ckpt = ckpt;
                pending.clear();
            }
            LedgerRecord::RoundEnd {
                round,
                winner_lambda,
                adopted,
                var,
            } => {
                if *adopted {
                    let wl = winner_lambda.unwrap_or(f64::NAN);
                    let arcs = arc_counts.get(&(*round, wl.to_bits())).unwrap_or(&0);
                    pending.push(Step {
                        label: format!("global round {round} (λ={wl}, {arcs} arcs)"),
                        var: *var,
                        delta: 0.0,
                    });
                }
                phase_ckpt = *var;
            }
            LedgerRecord::LocalCommit {
                iter,
                mv,
                committed: true,
                var: Some(v),
                ..
            } => {
                pending.push(Step {
                    label: format!("local iter {iter} (type-{} move)", mv.t),
                    var: *v,
                    delta: 0.0,
                });
                phase_ckpt = *v;
            }
            LedgerRecord::PhaseEnd {
                phase,
                committed,
                var,
            } => {
                if *committed {
                    steps.append(&mut pending);
                    ckpt = phase_ckpt;
                } else {
                    pending.clear();
                }
                if (*var - ckpt).abs() > RECON_TOL_PS {
                    notes.push(format!(
                        "phase_end({phase}) checkpoint {var} disagrees with walk {ckpt}"
                    ));
                }
            }
            _ => {}
        }
    }
    let mut prev = *init;
    for s in &mut steps {
        s.delta = s.var - prev;
        prev = s.var;
    }
    Ok(Waterfall {
        init: *init,
        end: *end,
        steps,
        recon_err: (ckpt - end).abs(),
        notes,
    })
}

/// Renders one case's waterfall as a markdown section.
fn waterfall_markdown(id: &str, seed: u64, w: &Waterfall) -> String {
    let mut out = String::new();
    let total = w.end - w.init;
    let _ = writeln!(out, "## {id} (seed {seed})\n");
    let _ = writeln!(
        out,
        "variation {:.3} → {:.3} ps ({:+.3} ps over {} committed decisions); \
         reconciliation error {:.3e} ps\n",
        w.init,
        w.end,
        total,
        w.steps.len(),
        w.recon_err
    );
    let _ = writeln!(out, "| step | Δ var (ps) | var (ps) | share |");
    let _ = writeln!(out, "|---|---:|---:|---:|");
    let _ = writeln!(out, "| start | — | {:.3} | — |", w.init);
    for s in &w.steps {
        let share = if total.abs() > f64::EPSILON {
            format!("{:.1}%", 100.0 * s.delta / total)
        } else {
            "—".to_string()
        };
        let _ = writeln!(
            out,
            "| {} | {:+.3} | {:.3} | {share} |",
            s.label, s.delta, s.var
        );
    }
    let _ = writeln!(out, "| end | — | {:.3} | — |", w.end);
    for n in &w.notes {
        let _ = writeln!(out, "\nnote: {n}");
    }
    out.push('\n');
    out
}

/// Renders one case's waterfall as a JSON object.
fn waterfall_json(id: &str, w: &Waterfall) -> Value {
    let steps = w
        .steps
        .iter()
        .map(|s| {
            Value::Obj(vec![
                kv("label", s.label.as_str()),
                kv("delta_ps", s.delta),
                kv("var_ps", s.var),
            ])
        })
        .collect();
    Value::Obj(vec![
        kv("id", id),
        kv("ledger", format!("ledgers/{id}.jsonl")),
        kv("var_init_ps", w.init),
        kv("var_end_ps", w.end),
        kv("recon_err_ps", w.recon_err),
        kv("steps", Value::Arr(steps)),
    ])
}

/// Compares two waterfalls decision by decision: a decision's variation
/// more than 2% (at least 1 ps) above the base's regresses. Prints the
/// rows that moved; returns the regressed ones.
fn ledger_diff(id: &str, base: &Waterfall, cur: &Waterfall) -> Vec<String> {
    let tol = Tolerance {
        rel: 0.02,
        abs: 1.0,
        direction: Direction::LowerBetter,
    };
    let mut fails = Vec::new();
    let mut row = |label: &str, b: f64, c: f64| {
        let d = c - b;
        let band = tol.band(b);
        let verdict = if d > band {
            Verdict::Regressed
        } else if d < -band {
            Verdict::Improved
        } else {
            return;
        };
        println!(
            "  {id} {label:<44} {b:>10.3} {c:>10.3} {d:>+9.3}  {}",
            verdict.as_str()
        );
        if verdict == Verdict::Regressed {
            fails.push(format!(
                "{id}: ledger decision '{label}' regressed {b} -> {c} ps"
            ));
        }
    };
    row("flow init", base.init, cur.init);
    for s in &cur.steps {
        match base.steps.iter().find(|b| b.label == s.label) {
            Some(b) => row(&s.label, b.var, s.var),
            None => println!("  {id} {:<44} new decision ({:.3} ps)", s.label, s.var),
        }
    }
    for b in &base.steps {
        if !cur.steps.iter().any(|s| s.label == b.label) {
            println!("  {id} {:<44} decision dropped", b.label);
        }
    }
    row("flow end", base.end, cur.end);
    fails
}

// ------------------------------------------------------------ profile

/// One case of `profile.json`: attribution tree, counters, histogram
/// count/sum/p50/p95/p99.
fn profile_case(run: &CaseRun) -> Value {
    let mut counters = Vec::new();
    let mut hists = Vec::new();
    for (name, v) in &run.metrics {
        match v {
            MetricValue::Counter(c) => counters.push(kv(name, *c)),
            MetricValue::Gauge(_) => {}
            MetricValue::Histogram(h) => hists.push(kv(
                name,
                Value::Obj(vec![
                    kv("count", h.count),
                    kv("sum", h.sum),
                    kv("p50", h.quantile(0.50)),
                    kv("p95", h.quantile(0.95)),
                    kv("p99", h.quantile(0.99)),
                ]),
            )),
        }
    }
    Value::Obj(vec![
        kv("id", run.id()),
        kv("runtime_ms", run.runtime_ms),
        kv("profile", run.profile.to_json()),
        kv("counters", Value::Obj(counters)),
        kv("hists", Value::Obj(hists)),
    ])
}

/// Flattens an attribution tree into `(path, node)` rows, depth-first.
fn flatten<'a>(node: &'a AttrNode, prefix: &str, out: &mut Vec<(String, &'a AttrNode)>) {
    for c in &node.children {
        let path = if prefix.is_empty() {
            c.name.clone()
        } else {
            format!("{prefix};{}", c.name)
        };
        out.push((path.clone(), c));
        flatten(c, &path, out);
    }
}

/// Markdown attribution tables, one per case.
fn attribution_md(runs: &[CaseRun]) -> String {
    let mut md = String::new();
    for run in runs {
        let _ = writeln!(md, "## {} ({:.1} ms)\n", run.id(), run.runtime_ms);
        let _ = writeln!(md, "| node | count | total ms | self ms | of run |");
        let _ = writeln!(md, "|---|---:|---:|---:|---:|");
        let mut rows = Vec::new();
        flatten(&run.profile, "", &mut rows);
        for (path, n) in rows {
            let _ = writeln!(
                md,
                "| `{path}` | {} | {:.2} | {:.2} | {:.1}% |",
                n.count,
                n.total_ms(),
                n.self_ms(),
                n.total_ms() / run.runtime_ms.max(1e-9) * 100.0
            );
        }
        md.push('\n');
    }
    md
}

/// The deterministic counts of one `profile.json` case: counters,
/// attribution-node entry counts and histogram sample counts.
fn case_counts(case: &Value) -> Vec<(String, f64)> {
    let pairs = |key: &str| match case.get(key) {
        Some(Value::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    let mut rows: Vec<(String, f64)> = pairs("counters")
        .into_iter()
        .filter_map(|(k, v)| Some((format!("counter.{k}"), v.as_f64()?)))
        .collect();
    if let Some(tree) = case.get("profile").and_then(AttrNode::from_json) {
        let mut nodes = Vec::new();
        flatten(&tree, "", &mut nodes);
        rows.extend(
            nodes
                .into_iter()
                .map(|(p, n)| (format!("prof.{p}.count"), n.count as f64)),
        );
    }
    rows.extend(
        pairs("hists")
            .into_iter()
            .filter_map(|(k, h)| Some((format!("hist.{k}.count"), h.get("count")?.as_f64()?))),
    );
    rows
}

/// Compares two cases' counts exactly: growth regresses, shrinkage
/// improves, and a key the base lacks is informational (`new`).
fn diff_counts(base: &[(String, f64)], cur: &[(String, f64)]) -> Vec<(String, f64, f64, Verdict)> {
    let get = |rows: &[(String, f64)], key: &str| rows.iter().find(|(k, _)| k == key).map(|r| r.1);
    let mut keys: Vec<&String> = base.iter().chain(cur).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let c = get(cur, key).unwrap_or(0.0);
            let (b, verdict) = match get(base, key) {
                None => (0.0, Verdict::Info),
                Some(b) if c > b => (b, Verdict::Regressed),
                Some(b) if c < b => (b, Verdict::Improved),
                Some(b) => (b, Verdict::Neutral),
            };
            (key.clone(), b, c, verdict)
        })
        .collect()
}

// --------------------------------------------------------------- diff

/// `gate diff A B`: the profile counts, the QoR snapshot and the
/// ledgers of two artifact directories.
fn diff_dirs(a: &str, b: &str) -> Result<Vec<String>, String> {
    let read = |dir: &str, name: &str| {
        let path = Path::new(dir).join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let profile = |dir: &str| -> Result<Value, String> {
        let v = json::parse(&read(dir, "profile.json")?)?;
        match v.get("tool").and_then(Value::as_str) {
            Some("gate") => Ok(v),
            _ => Err(format!("{dir}/profile.json is not a gate profile")),
        }
    };
    let qor = |dir: &str| {
        QorSnapshot::parse_str(&read(dir, "BENCH_qor.json")?)
            .map_err(|e| format!("{dir}/BENCH_qor.json: {e}"))
    };
    let (pa, pb) = (profile(a)?, profile(b)?);
    // a suite or seed mismatch fails through the QoR diff's notes
    let rev = |v: &Value| {
        v.get("git_rev")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let cases = |v: &Value| {
        v.get("cases")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let (ca, cb) = (cases(&pa), cases(&pb));
    let mut fails = Vec::new();
    let mut ids = Vec::new();

    println!(
        "profile counts, {a} (rev {}) vs {b} (rev {}):",
        rev(&pa),
        rev(&pb)
    );
    let (mut compared, mut regressed) = (0, 0);
    for case in &ca {
        let id = case.get("id").and_then(Value::as_str).unwrap_or("?");
        let Some(other) = cb.iter().find(|c| c.get("id") == case.get("id")) else {
            fails.push(format!("case {id} missing from {b}/profile.json"));
            continue;
        };
        for (key, base, cur, verdict) in diff_counts(&case_counts(case), &case_counts(other)) {
            compared += 1;
            let shown = if verdict == Verdict::Info {
                "new"
            } else {
                verdict.as_str()
            };
            if verdict != Verdict::Neutral {
                println!("  {id}/{key:<60} {base:>10} {cur:>10}  {shown}");
            }
            if verdict == Verdict::Regressed {
                regressed += 1;
                fails.push(format!("profile: {id}/{key} grew {base} -> {cur}"));
            }
        }
        ids.push(id.to_string());
    }
    println!("  compared {compared} counts: {regressed} regressed");

    println!("\nQoR, {a} vs {b}:");
    let diff = diff_snapshots(&qor(a)?, &qor(b)?, &TolerancePolicy::default_qor());
    print!("{}", diff.to_text(false));
    fails.extend(qor_failures(&diff));

    println!("\nledgers, decisions that moved:");
    for id in &ids {
        let waterfall = |dir: &str| {
            let name = format!("ledgers/{id}.jsonl");
            let records = ledger::parse_jsonl(&read(dir, &name)?)
                .map_err(|e| format!("{dir}/{name}: {e}"))?;
            build_waterfall(&records).map_err(|e| format!("{dir}/{name}: {e}"))
        };
        fails.extend(ledger_diff(id, &waterfall(a)?, &waterfall(b)?));
    }
    Ok(fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Mode, String> {
        parse_args(
            &args
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn args_parse_strictly() {
        // --help prints usage instead of running the suite
        assert!(matches!(parse("--help"), Ok(Mode::Help)));
        assert!(matches!(parse("--quick -h"), Ok(Mode::Help)));
        let all = "--quick --seed 7 --sinks 24 --out dir --baseline b.json --write-baseline";
        let Ok(Mode::Run(a)) = parse(all) else {
            panic!("every flag at once did not parse");
        };
        assert!(a.quick && a.write_baseline);
        assert_eq!((a.seed, a.sinks, a.out.as_str()), (7, Some(24), "dir"));
        assert_eq!(a.baseline.as_deref(), Some("b.json"));
        let Ok(Mode::Run(d)) = parse("") else {
            panic!("no flags did not parse");
        };
        assert_eq!((d.seed, d.out.as_str(), d.baseline), (1, DEFAULT_OUT, None));
        assert!(matches!(parse("diff a b"), Ok(Mode::Diff(..))));
        // unknown flags, missing and unparsable values are errors, not
        // silent defaults
        let bad =
            "--verbose|--overhead|--tile-tol 10|--seed|--seed lots|--sinks -3|diff a|diff a b c";
        for args in bad.split('|').chain(["diff a --quick"]) {
            assert!(parse(args).is_err(), "{args} was accepted");
        }
    }

    fn rows(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn of(deltas: &[(String, f64, f64, Verdict)], key: &str) -> Verdict {
        deltas.iter().find(|d| d.0 == key).expect("key compared").3
    }

    #[test]
    fn a_key_missing_from_the_base_is_new_not_regressed() {
        let base = rows(&[("counter.lp.pivots", 10.0), ("counter.lp.solves", 4.0)]);
        let cur = rows(&[
            ("counter.lp.pivots", 12.0),
            ("counter.lp.solves", 4.0),
            ("counter.lp.warm_solves", 6.0),
        ]);
        let deltas = diff_counts(&base, &cur);
        let warm = deltas
            .iter()
            .find(|d| d.0 == "counter.lp.warm_solves")
            .unwrap();
        assert_eq!((warm.1, warm.2, warm.3), (0.0, 6.0, Verdict::Info));
        // keys present in both snapshots still gate exactly
        assert_eq!(of(&deltas, "counter.lp.pivots"), Verdict::Regressed);
        assert_eq!(of(&deltas, "counter.lp.solves"), Verdict::Neutral);
        let regressed = deltas.iter().filter(|d| d.3 == Verdict::Regressed);
        assert_eq!(regressed.count(), 1);
    }

    fn node(name: &str, total_ms: f64, count: u64, children: Vec<AttrNode>) -> AttrNode {
        AttrNode {
            name: name.to_string(),
            total_ns: (total_ms * 1e6) as u64,
            count,
            children,
        }
    }

    fn root(children: Vec<AttrNode>) -> AttrNode {
        AttrNode {
            children,
            ..AttrNode::root()
        }
    }

    #[test]
    fn a_drifted_profile_count_regresses() {
        // through the profile.json form, as `gate diff` reads it
        let case = |pricing: u64| {
            let pricing = node("pricing", 5.0, pricing, vec![]);
            let tree = root(vec![node("lp.solve", 10.0, 4, vec![pricing])]);
            let v = Value::Obj(vec![kv("id", "CLS1v1"), kv("profile", tree.to_json())]);
            case_counts(&json::parse(&v.to_json()).unwrap())
        };
        let same = diff_counts(&case(40), &case(40));
        assert_eq!(same.len(), 2);
        assert!(same.iter().all(|d| d.3 == Verdict::Neutral));
        let drift = diff_counts(&case(40), &case(41));
        let pricing = of(&drift, "prof.lp.solve;pricing.count");
        assert_eq!(pricing, Verdict::Regressed);
        assert_eq!(of(&drift, "prof.lp.solve.count"), Verdict::Neutral);
    }

    #[test]
    fn an_undeclared_metric_fails_the_dictionary() {
        let mut snap = MetricsSnapshot::new();
        snap.insert("lp.solves".to_string(), MetricValue::Counter(3));
        assert!(dictionary_failures("CLS1v1", &snap).is_empty());
        snap.insert("lp.no_such_metric".to_string(), MetricValue::Counter(1));
        let fails = dictionary_failures("CLS1v1", &snap);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("lp.no_such_metric"), "{fails:?}");
    }

    #[test]
    fn coverage_below_the_floor_fails() {
        // a 10 ms batch whose children cover 9 ms passes, 8.9 ms fails;
        // a node under the 5 ms minimum is not gated
        let batch = |covered_ms: f64, total_ms: f64| {
            let eval = node("local.eval", covered_ms, 8, vec![]);
            root(vec![node("local.batch", total_ms, 8, vec![eval])])
        };
        assert!(coverage_failures("CLS1v1", &batch(9.0, 10.0)).is_empty());
        let fails = coverage_failures("CLS1v1", &batch(8.9, 10.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("local.batch"), "{fails:?}");
        assert!(coverage_failures("CLS1v1", &batch(1.0, 4.0)).is_empty());
        // lp.solve is held to the same floor
        let pricing = node("pricing", 10.0, 2, vec![]);
        let lp = root(vec![node("lp.solve", 20.0, 2, vec![pricing])]);
        assert_eq!(coverage_failures("CLS1v1", &lp).len(), 1);
    }

    #[test]
    fn profiler_overhead_is_scope_cost_times_count() {
        // 1e6 scopes at 20 ns is 20 ms: 2% of 1 s is in budget, 4% of
        // 0.5 s is not
        assert!(overhead_pct(1_000_000, 20.0, 1000.0) <= OVERHEAD_PCT);
        assert!(overhead_pct(1_000_000, 20.0, 500.0) > OVERHEAD_PCT);
    }

    /// A trace shaped like a flow's: a `flow_ms` flow span tiled by the
    /// four phases (99 ms), one global round with a λ span, one local
    /// iteration with an accepted batch, and one fault event (seq 3).
    /// `skip` names a span to leave out.
    fn flow_trace(skip: &str, flow_ms: f64) -> String {
        let accepted = r#","fields":{"outcome":"accepted"}"#;
        let spans = [
            (0, None, "flow", flow_ms, ""),
            (1, Some(0), "phase.init", 10.0, ""),
            (2, Some(0), "phase.global", 40.0, ""),
            (3, Some(2), "global.round", 39.0, ""),
            (4, Some(3), "global.lambda", 20.0, ""),
            (5, Some(0), "phase.local", 45.0, ""),
            (6, Some(5), "local.iter", 44.0, ""),
            (7, Some(6), "local.batch", 10.0, accepted),
            (8, Some(0), "phase.scoring", 4.0, ""),
        ];
        let mut out = String::new();
        for (id, parent, name, ms, fields) in spans {
            if name == skip {
                continue;
            }
            let parent = parent.map_or(String::new(), |p: u64| format!(r#","parent":{p}"#));
            let _ = writeln!(
                out,
                r#"{{"t":"span_end","span":{id}{parent},"name":"{name}","elapsed_ms":{ms}{fields}}}"#
            );
        }
        out + "{\"t\":\"fault\",\"name\":\"fault.test\",\"fields\":{\"fault_seq\":3}}\n"
    }

    fn expect() -> TraceExpect {
        TraceExpect {
            rounds: 1,
            accepted_batches: 1,
            fault_seqs: vec![3],
            predictor_samples: 5,
        }
    }

    #[test]
    fn a_trace_without_phase_local_fails_the_structural_checks() {
        let full = trace_failures("CLS1v1", &flow_trace("", 100.0), &expect());
        assert!(full.is_empty(), "{full:?}");
        let fails = trace_failures("CLS1v1", &flow_trace("phase.local", 100.0), &expect());
        assert!(fails.iter().any(|f| f.contains("phase.local")), "{fails:?}");
    }

    #[test]
    fn every_structural_check_can_fail() {
        let fails_on = |jsonl: &str, want: TraceExpect, needle: &str| {
            let fails = trace_failures("CLS1v1", jsonl, &want);
            let hit = fails.iter().any(|f| f.contains(needle));
            assert!(hit, "{needle}: {fails:?}");
        };
        let (t, full) = (flow_trace, flow_trace("", 100.0));
        fails_on(&format!("{full}{{not json\n"), expect(), "does not parse");
        fails_on(&t("flow", 0.0), expect(), "flow span is not closed");
        // 99 ms of phases tile 110 ms within 10%, not 111 ms
        assert!(trace_failures("CLS1v1", &t("", 110.0), &expect()).is_empty());
        fails_on(&t("", 111.0), expect(), "off the");
        fails_on(&t("global.lambda", 100.0), expect(), "no λ span");
        fails_on(&t("local.iter", 100.0), expect(), "no iteration spans");
        let with = |f: fn(&mut TraceExpect)| {
            let mut want = expect();
            f(&mut want);
            want
        };
        fails_on(&full, with(|w| w.rounds = 2), "global round spans");
        fails_on(&full, with(|w| w.predictor_samples = 0), "predictor error");
        fails_on(&full, with(|w| w.accepted_batches = 2), "accepted batch");
        fails_on(&full, with(|w| w.fault_seqs.push(4)), "no fault event");
    }

    /// One global round from 100 ps to 90 ps and one local commit to
    /// `local` ps, the flow ending at `end` ps, read back from JSONL as
    /// the gate reads its ledgers.
    fn waterfall(local: f64, end: f64) -> Waterfall {
        let mv = r#"{"t":1,"node":7,"dir":2,"resize":"down","child":null,"new_parent":null}"#;
        let text = format!(
            r#"{{"k":"flow_init","flow":"global-local","sinks":48,"corners":3,"var":100}}
{{"k":"phase_start","phase":"global"}}
{{"k":"round_end","round":0,"winner_lambda":0.3,"adopted":true,"var":90}}
{{"k":"phase_end","phase":"global","committed":true,"var":90}}
{{"k":"phase_start","phase":"local"}}
{{"k":"local_commit","iter":0,"mv":{mv},"gain":5,"committed":true,"var":{local}}}
{{"k":"phase_end","phase":"local","committed":true,"var":{local}}}
{{"k":"flow_end","var":{end}}}
"#
        );
        build_waterfall(&ledger::parse_jsonl(&text).unwrap()).unwrap()
    }

    #[test]
    fn a_shifted_checkpoint_fails_reconciliation() {
        let clean = waterfall(85.0, 85.0);
        assert!(reconcile_failures("CLS1v1", &clean).is_empty());
        assert_eq!(clean.steps.len(), 2);
        let shifted = waterfall(85.0, 85.0 + 1e-3);
        let fails = reconcile_failures("CLS1v1", &shifted);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("does not reconcile"), "{fails:?}");
    }

    #[test]
    fn a_regressed_ledger_decision_fails_the_diff() {
        let base = waterfall(85.0, 85.0);
        assert!(ledger_diff("CLS1v1", &base, &base).is_empty());
        // the local commit and the flow end both moved 5 ps, beyond
        // max(1 ps, 2%)
        let cur = waterfall(90.0, 90.0);
        assert_eq!(ledger_diff("CLS1v1", &base, &cur).len(), 2);
    }

    /// The committed baseline, as a real snapshot to doctor.
    fn baseline() -> QorSnapshot {
        QorSnapshot::parse_str(include_str!("../../../../qor-baseline.json")).unwrap()
    }

    #[test]
    fn a_replay_that_moves_the_outcome_fails() {
        let rec = baseline().testcases[0].tree_outcome();
        assert!(replay_mismatch(2015, &rec, &rec, &rec).is_ok());
        // snapshots record values to 1e-6, so that is the resolution
        let mut off = rec.clone();
        off.variation_after_ps += 1e-5;
        let replayed = replay_mismatch(2015, &rec, &rec, &off).unwrap_err();
        assert!(replayed.contains("replayed"), "{replayed}");
        let projected = replay_mismatch(2015, &rec, &off, &rec).unwrap_err();
        assert!(projected.contains("projection"), "{projected}");
    }

    #[test]
    fn a_suite_or_seed_mismatch_fails_the_baseline_diff() {
        let base = baseline();
        let policy = TolerancePolicy::default_qor();
        assert!(qor_failures(&diff_snapshots(&base, &base, &policy)).is_empty());
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        let mut other_suite = base.clone();
        other_suite.suite = "full".to_string();
        let mut worse = base.clone();
        worse.testcases[0].variation_after_ps *= 1.1;
        for cur in [other_seed, other_suite, worse] {
            assert_eq!(qor_failures(&diff_snapshots(&base, &cur, &policy)).len(), 1);
        }
    }

    #[test]
    fn write_baseline_refuses_all_but_a_clean_tree() {
        let at = |dirty| Provenance {
            rev: "0123456789ab".to_string(),
            dirty,
        };
        assert!(baseline_refusal(&at(Some(false))).is_none());
        assert!(baseline_refusal(&at(Some(true))).is_some());
        assert!(baseline_refusal(&at(None)).is_some());
    }
}
