//! Performance-attribution snapshot & diff tool.
//!
//! Two modes share one snapshot format:
//!
//! *Run mode* (default) executes the flow suite with the profiler on,
//! captures each case's attribution tree (micro-timers), span tree
//! (derived from the JSONL trace), counters and histogram quantiles,
//! and writes a `profile.json` snapshot plus a folded-stack
//! `flame.folded` (speedscope / inferno compatible). It enforces the
//! attribution coverage floor (children of `lp.solve`, and of
//! `local.batch`: the coordinator's own `local.eval` stripe, its
//! `local.spawn`/`local.join` of the other stripes and its
//! `local.commit`) and the metrics dictionary, and — with
//! `--overhead` — measures and gates the cost of profiling itself
//! (suite wall with the profiler on vs off).
//!
//! *Diff mode* (`--base A --cur B`) compares two snapshots with
//! `clk-qor` noise-band verdicts: counters and attribution *counts*
//! are deterministic for a fixed seed, so they gate exactly (any count
//! drift is `REGRESSED` when it grows, `improved` when it shrinks);
//! durations and quantiles are informational, and so is a key the base
//! snapshot does not have at all (verdict `new`). Two identical-seed
//! runs therefore diff to zero regressions — the CI self-check.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin trace-diff -- --quick --overhead
//! cargo run --release -p clk-bench --bin trace-diff -- \
//!     --base profile-base.json --cur profile.json --md attribution.md
//! ```
//!
//! Flags: `--quick`, `--seed N`, `--sinks N`, `--out PATH`,
//! `--flame PATH`, `--md PATH`, `--overhead`, `--overhead-tol PCT`
//! (default 3), `--coverage-tol FRAC` (default 0.9), `--base PATH`,
//! `--cur PATH`, `--help`. An unknown flag, a missing value or one that
//! does not parse exits with status 2 before anything runs.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::fmt::Write as _;
use std::process::ExitCode;

use clk_bench::{suite_cases, ExpArgs, PreparedCase, Provenance};
use clk_obs::profile::{to_folded, tree_from_jsonl};
use clk_obs::{dict, AttrNode, Level, MetricValue, Obs, ObsConfig, SharedBuf, Value};
use clk_qor::{Direction, Tolerance, Verdict};
use clk_skewopt::Flow;

/// A phase node whose total is below this is too small to attribute
/// meaningfully; the coverage gate skips it.
const COVERAGE_MIN_MS: f64 = 5.0;

struct Args {
    exp: ExpArgs,
    out: Option<String>,
    flame: String,
    md: Option<String>,
    overhead: bool,
    overhead_tol: f64,
    coverage_tol: f64,
    base: Option<String>,
    cur: Option<String>,
}

const USAGE: &str = "usage: trace-diff [--quick] [--seed N] [--sinks N] [--out PATH] \
[--flame PATH] [--md PATH] [--overhead] [--overhead-tol PCT] [--coverage-tol FRAC]
       trace-diff --base PATH --cur PATH [--out PATH] [--md PATH]";

/// Parses the arguments after the program name: `Ok(None)` for
/// `--help`/`-h`, an error for an unknown flag, a missing value or a
/// value that does not parse.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        exp: ExpArgs {
            sinks: None,
            seed: 1,
            quick: false,
        },
        out: None,
        flame: "flame.folded".to_string(),
        md: None,
        overhead: false,
        overhead_tol: 3.0,
        coverage_tol: 0.9,
        base: None,
        cur: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quick" => args.exp.quick = true,
            "--overhead" => args.overhead = true,
            _ => {
                let val = it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone();
                let bad = || format!("bad value for {flag}: {val}");
                match flag.as_str() {
                    "--seed" => args.exp.seed = val.parse().map_err(|_| bad())?,
                    "--sinks" => args.exp.sinks = Some(val.parse().map_err(|_| bad())?),
                    "--overhead-tol" => args.overhead_tol = val.parse().map_err(|_| bad())?,
                    "--coverage-tol" => args.coverage_tol = val.parse().map_err(|_| bad())?,
                    "--out" => args.out = Some(val),
                    "--flame" => args.flame = val,
                    "--md" => args.md = Some(val),
                    "--base" => args.base = Some(val),
                    "--cur" => args.cur = Some(val),
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    Ok(Some(args))
}

/// Everything captured from one profiled case run.
struct CaseProfile {
    id: String,
    runtime_ms: f64,
    profile: AttrNode,
    spans: AttrNode,
    counters: Vec<(String, u64)>,
    hists: Vec<(String, HistQ)>,
}

struct HistQ {
    count: u64,
    sum: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

impl CaseProfile {
    fn to_value(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        let hists = Value::Obj(
            self.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("count".to_string(), Value::from(h.count)),
                            ("sum".to_string(), num(h.sum)),
                            ("p50".to_string(), num(h.p50)),
                            ("p95".to_string(), num(h.p95)),
                            ("p99".to_string(), num(h.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Obj(vec![
            ("id".to_string(), Value::from(self.id.as_str())),
            ("runtime_ms".to_string(), num(self.runtime_ms)),
            ("profile".to_string(), self.profile.to_json()),
            ("spans".to_string(), self.spans.to_json()),
            ("counters".to_string(), counters),
            ("hists".to_string(), hists),
        ])
    }

    fn from_value(v: &Value) -> Option<Self> {
        let id = v.get("id")?.as_str()?.to_string();
        let runtime_ms = v.get("runtime_ms")?.as_f64()?;
        let profile = AttrNode::from_json(v.get("profile")?)?;
        let spans = AttrNode::from_json(v.get("spans")?)?;
        let obj_pairs = |key: &str| -> Vec<(String, Value)> {
            match v.get(key) {
                Some(Value::Obj(pairs)) => pairs.clone(),
                _ => Vec::new(),
            }
        };
        let counters = obj_pairs("counters")
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_u64()?)))
            .collect();
        let hists = obj_pairs("hists")
            .into_iter()
            .filter_map(|(k, h)| {
                Some((
                    k,
                    HistQ {
                        count: h.get("count")?.as_u64()?,
                        sum: h.get("sum")?.as_f64()?,
                        p50: h.get("p50")?.as_f64()?,
                        p95: h.get("p95")?.as_f64()?,
                        p99: h.get("p99")?.as_f64()?,
                    },
                ))
            })
            .collect();
        Some(CaseProfile {
            id,
            runtime_ms,
            profile,
            spans,
            counters,
            hists,
        })
    }
}

struct ProfileSnapshot {
    git_rev: String,
    seed: u64,
    suite: String,
    cases: Vec<CaseProfile>,
}

impl ProfileSnapshot {
    fn to_json_pretty(&self) -> String {
        let v = Value::Obj(vec![
            ("schema".to_string(), Value::from(1u64)),
            ("tool".to_string(), Value::from("trace-diff")),
            ("git_rev".to_string(), Value::from(self.git_rev.as_str())),
            ("seed".to_string(), Value::from(self.seed)),
            ("suite".to_string(), Value::from(self.suite.as_str())),
            (
                "cases".to_string(),
                Value::Arr(self.cases.iter().map(CaseProfile::to_value).collect()),
            ),
        ]);
        let mut s = v.to_json();
        s.push('\n');
        s
    }

    fn parse_str(text: &str) -> Result<Self, String> {
        let v = clk_obs::json::parse(text)?;
        if v.get("tool").and_then(Value::as_str) != Some("trace-diff") {
            return Err("not a trace-diff snapshot".to_string());
        }
        let cases = v
            .get("cases")
            .and_then(Value::as_arr)
            .ok_or("missing cases")?
            .iter()
            .map(CaseProfile::from_value)
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed case record")?;
        Ok(ProfileSnapshot {
            git_rev: v
                .get("git_rev")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            suite: v
                .get("suite")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            cases,
        })
    }
}

fn flow_config(exp: &ExpArgs) -> clk_skewopt::FlowConfig {
    if exp.quick {
        clockvar_workbench::quick_flow_config()
    } else {
        let mut cfg = clk_skewopt::FlowConfig::default();
        cfg.global.max_pairs = 120;
        cfg.local.max_iterations = 12;
        cfg.train.n_cases = 60;
        cfg.train.moves_per_case = 60;
        cfg
    }
}

/// Runs one prepared case with (or without) profiling; returns the
/// captured profile when profiling was on.
fn run_case(
    prep: &PreparedCase,
    cfg_base: &clk_skewopt::FlowConfig,
    profiled: bool,
) -> Result<(Option<CaseProfile>, f64), String> {
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        profile: profiled,
        ..ObsConfig::default()
    });
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf);
    let mut cfg = cfg_base.clone();
    cfg.obs = obs.clone();
    let (_, runtime_ms) = prep
        .run(Flow::GlobalLocal, &cfg)
        .map_err(|e| format!("{} flow failed: {e}", prep.case.kind.name()))?;
    obs.flush();
    if !profiled {
        return Ok((None, runtime_ms));
    }
    let snap = obs.metrics_snapshot().unwrap_or_default();
    let undeclared = dict::check_snapshot(&snap);
    if !undeclared.is_empty() {
        return Err(format!(
            "metrics dictionary violations:\n  {}",
            undeclared.join("\n  ")
        ));
    }
    let mut counters = Vec::new();
    let mut hists = Vec::new();
    for (name, v) in &snap {
        match v {
            MetricValue::Counter(c) => counters.push((name.clone(), *c)),
            MetricValue::Gauge(_) => {}
            MetricValue::Histogram(h) => hists.push((
                name.clone(),
                HistQ {
                    count: h.count,
                    sum: h.sum,
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                },
            )),
        }
    }
    Ok((
        Some(CaseProfile {
            id: prep.case.kind.name().to_string(),
            runtime_ms,
            profile: obs.profiler().tree(),
            spans: tree_from_jsonl(&buf.contents()),
            counters,
            hists,
        }),
        runtime_ms,
    ))
}

/// Measures the cost of one profiler scope (enter + drop) with a
/// calibration loop on a live profiler.
///
/// Suite wall on-vs-off is *reported* but not gated: on a shared
/// machine two identical suite runs differ by several percent, far
/// above real profiler cost, so that difference is noise, not signal.
/// The gated estimate — measured per-scope cost times the exact scope
/// count the run recorded — is deterministic up to timer resolution
/// and grows exactly when someone drops a scope into a hot loop, which
/// is the regression the gate exists to catch.
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

/// Checks the attribution coverage floors on one case; returns
/// human-readable failures.
fn coverage_failures(cp: &CaseProfile, tol: f64) -> Vec<String> {
    let mut fails = Vec::new();
    if let Some(lp) = cp.profile.find("lp.solve") {
        if lp.total_ms() >= COVERAGE_MIN_MS {
            let cov = lp.coverage();
            println!("  {}: lp.solve coverage {:.1}%", cp.id, cov * 100.0);
            if cov < tol {
                fails.push(format!(
                    "{}: lp.solve attribution {:.1}% < {:.0}%",
                    cp.id,
                    cov * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    if let Some(batch) = cp.profile.find("local.batch") {
        if batch.total_ms() >= COVERAGE_MIN_MS {
            // the coordinator's own children: its stripe of
            // `local.eval`, its spawn of and wait for the other stripes
            // (`local.spawn`, `local.join`) and its tally and commit
            // (`local.commit`); the workers' `local.eval` subtrees root
            // at top level and overlap the join, so they are not added
            let cov = batch.coverage();
            println!("  {}: local.batch coverage {:.1}%", cp.id, cov * 100.0);
            if cov < tol {
                fails.push(format!(
                    "{}: local.batch attribution {:.1}% < {:.0}%",
                    cp.id,
                    cov * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    fails
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

/// Markdown attribution table for one run snapshot.
fn attribution_md(snap: &ProfileSnapshot) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Attribution — suite {}, seed {}, rev {}\n",
        snap.suite, snap.seed, snap.git_rev
    );
    for cp in &snap.cases {
        let _ = writeln!(md, "## {} ({:.1} ms)\n", cp.id, cp.runtime_ms);
        let _ = writeln!(md, "| node | count | total ms | self ms | of run |");
        let _ = writeln!(md, "|---|---:|---:|---:|---:|");
        let mut rows = Vec::new();
        flatten(&cp.profile, "", &mut rows);
        for (path, n) in rows {
            let _ = writeln!(
                md,
                "| `{path}` | {} | {:.2} | {:.2} | {:.1}% |",
                n.count,
                n.total_ms(),
                n.self_ms(),
                n.total_ms() / cp.runtime_ms.max(1e-9) * 100.0
            );
        }
        md.push('\n');
    }
    md
}

/// One compared value in a snapshot diff.
struct ProfDelta {
    key: String,
    base: f64,
    cur: f64,
    verdict: Verdict,
    /// The base snapshot has no such key (an informational `new`).
    new: bool,
}

impl ProfDelta {
    fn verdict_str(&self) -> &'static str {
        if self.new {
            "new"
        } else {
            self.verdict.as_str()
        }
    }
}

fn verdict_of(base: f64, cur: f64, tol: Tolerance) -> Verdict {
    if matches!(tol.direction, Direction::Info) {
        return Verdict::Info;
    }
    let band = tol.band(base);
    let worse = match tol.direction {
        Direction::LowerBetter => cur - base,
        Direction::HigherBetter => base - cur,
        Direction::Info => 0.0,
    };
    if worse > band {
        Verdict::Regressed
    } else if worse < -band {
        Verdict::Improved
    } else {
        Verdict::Neutral
    }
}

/// Collects gated + informational deltas for one case pair.
fn diff_case(base: &CaseProfile, cur: &CaseProfile, out: &mut Vec<ProfDelta>) {
    let exact = Tolerance {
        rel: 0.0,
        abs: 0.0,
        direction: Direction::LowerBetter,
    };
    let info = Tolerance {
        rel: 0.0,
        abs: 0.0,
        direction: Direction::Info,
    };
    let id = &base.id;
    // a key missing from the base is new, never a regression from 0
    let mut push = |key: String, b: Option<f64>, c: f64, tol: Tolerance| {
        out.push(ProfDelta {
            key,
            base: b.unwrap_or(0.0),
            cur: c,
            verdict: b.map_or(Verdict::Info, |b| verdict_of(b, c, tol)),
            new: b.is_none(),
        });
    };
    // counters: deterministic per seed, gate exactly
    let mut names: Vec<&String> = base.counters.iter().map(|(k, _)| k).collect();
    names.extend(cur.counters.iter().map(|(k, _)| k));
    names.sort();
    names.dedup();
    let ctr = |cp: &CaseProfile, name: &str| -> Option<f64> {
        cp.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v as f64)
    };
    for name in names {
        push(
            format!("{id}/counter.{name}"),
            ctr(base, name),
            ctr(cur, name).unwrap_or(0.0),
            exact,
        );
    }
    // attribution trees: counts gate (shape & counts are deterministic),
    // durations inform
    for (label, tb, tc) in [
        ("prof", &base.profile, &cur.profile),
        ("span", &base.spans, &cur.spans),
    ] {
        let (mut rb, mut rc) = (Vec::new(), Vec::new());
        flatten(tb, "", &mut rb);
        flatten(tc, "", &mut rc);
        let mut paths: Vec<&String> = rb.iter().map(|(p, _)| p).collect();
        paths.extend(rc.iter().map(|(p, _)| p));
        paths.sort();
        paths.dedup();
        let node = |rows: &[(String, &AttrNode)], p: &str| -> Option<(f64, f64)> {
            rows.iter()
                .find(|(q, _)| q == p)
                .map(|(_, n)| (n.count as f64, n.total_ms()))
        };
        for p in paths {
            let b = node(&rb, p);
            let (cc, ct) = node(&rc, p).unwrap_or((0.0, 0.0));
            push(format!("{id}/{label}.{p}.count"), b.map(|n| n.0), cc, exact);
            push(
                format!("{id}/{label}.{p}.total_ms"),
                b.map(|n| n.1),
                ct,
                info,
            );
        }
    }
    // histogram sample counts gate; quantiles inform
    let mut hnames: Vec<&String> = base.hists.iter().map(|(k, _)| k).collect();
    hnames.extend(cur.hists.iter().map(|(k, _)| k));
    hnames.sort();
    hnames.dedup();
    fn hist<'a>(cp: &'a CaseProfile, name: &str) -> Option<&'a HistQ> {
        cp.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }
    for name in hnames {
        let b = hist(base, name);
        let c = hist(cur, name);
        let count = |h: &HistQ| h.count as f64;
        push(
            format!("{id}/hist.{name}.count"),
            b.map(count),
            c.map_or(0.0, count),
            exact,
        );
        for (q, get) in [
            ("p50", (|h: &HistQ| h.p50) as fn(&HistQ) -> f64),
            ("p95", |h| h.p95),
            ("p99", |h| h.p99),
        ] {
            push(
                format!("{id}/hist.{name}.{q}"),
                b.map(get),
                c.map_or(0.0, get),
                info,
            );
        }
    }
    push(
        format!("{id}/runtime_ms"),
        Some(base.runtime_ms),
        cur.runtime_ms,
        info,
    );
}

fn diff_md(base: &ProfileSnapshot, cur: &ProfileSnapshot, deltas: &[ProfDelta]) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Profile diff — base {} vs cur {}\n",
        base.git_rev, cur.git_rev
    );
    let _ = writeln!(md, "| metric | base | cur | change | verdict |");
    let _ = writeln!(md, "|---|---:|---:|---:|---|");
    for d in deltas {
        // keep the table readable: gated rows that moved, plus the
        // big time movers
        let moved = (d.cur - d.base).abs() > 1e-9;
        let gated = !matches!(d.verdict, Verdict::Info);
        let big_time = d.key.ends_with(".total_ms") && (d.cur - d.base).abs() >= 1.0;
        let keep = (gated && moved) || d.new || big_time || d.key.ends_with("/runtime_ms");
        if !keep {
            continue;
        }
        let rel = if d.base.abs() > f64::EPSILON {
            format!("{:+.1}%", (d.cur - d.base) / d.base.abs() * 100.0)
        } else {
            "new".to_string()
        };
        let _ = writeln!(
            md,
            "| `{}` | {:.2} | {:.2} | {} | {} |",
            d.key,
            d.base,
            d.cur,
            rel,
            d.verdict_str()
        );
    }
    md
}

fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("FAIL: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn run_mode(args: &Args) -> Result<ExitCode, ExitCode> {
    let exp = &args.exp;
    let n = exp.sinks.unwrap_or(if exp.quick { 48 } else { 128 });
    let suite = if exp.quick { "quick" } else { "full" };
    let cfg_base = flow_config(exp);
    println!(
        "trace-diff: profiling suite '{suite}', seed {}, {n} sinks/testcase",
        exp.seed
    );
    let mut snap = ProfileSnapshot {
        git_rev: Provenance::of_checkout().stamp(),
        seed: exp.seed,
        suite: suite.to_string(),
        cases: Vec::new(),
    };
    let (mut wall_on, mut wall_off) = (0.0f64, 0.0f64);
    for case in suite_cases(exp.seed) {
        let prep = PreparedCase::generate(case, n, &cfg_base, &[Flow::GlobalLocal]);
        if args.overhead {
            // plain run first so allocator/page-cache warmup is not
            // billed to the profiler
            let (_, ms) = run_case(&prep, &cfg_base, false).map_err(|e| {
                eprintln!("FAIL: {e}");
                ExitCode::FAILURE
            })?;
            wall_off += ms;
        }
        let (cp, ms) = run_case(&prep, &cfg_base, true).map_err(|e| {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        })?;
        wall_on += ms;
        let cp = cp.expect("profiled run returns a capture");
        println!(
            "  {:<8} {:>7.1} ms  profile root {} children",
            cp.id,
            ms,
            cp.profile.children.len()
        );
        snap.cases.push(cp);
    }

    // gates: coverage floors and (opt-in) profiler overhead
    let mut fails: Vec<String> = Vec::new();
    println!(
        "\nattribution coverage (floor {:.0}%):",
        args.coverage_tol * 100.0
    );
    for cp in &snap.cases {
        fails.extend(coverage_failures(cp, args.coverage_tol));
    }
    if args.overhead {
        // wall on-vs-off is informational only: same-machine suite
        // runs jitter by more than real profiler cost (see
        // `per_scope_cost_ns`)
        let delta = wall_on - wall_off;
        let pct = if wall_off > 0.0 {
            delta / wall_off * 100.0
        } else {
            0.0
        };
        println!("suite wall: profiled {wall_on:.1} ms, plain {wall_off:.1} ms ({pct:+.2}%)");
        let cost_ns = per_scope_cost_ns();
        let calls: u64 = snap.cases.iter().map(|c| scope_calls(&c.profile)).sum();
        let est_ms = calls as f64 * cost_ns / 1e6;
        let est_pct = if wall_on > 0.0 {
            est_ms / wall_on * 100.0
        } else {
            0.0
        };
        println!(
            "profiler overhead: {calls} scopes x {cost_ns:.0} ns = {est_ms:.1} ms ({est_pct:.3}% of profiled wall)"
        );
        if est_pct > args.overhead_tol {
            fails.push(format!(
                "profiler overhead {est_pct:.3}% exceeds {:.1}%",
                args.overhead_tol
            ));
        }
    }

    let out = args.out.as_deref().unwrap_or("profile.json");
    write_file(out, &snap.to_json_pretty())?;
    println!("snapshot written to {out}");
    // one folded stack per suite: each case becomes a root frame
    let mut flame_root = AttrNode::root();
    for cp in &snap.cases {
        let mut case_node = cp.profile.clone();
        case_node.name = cp.id.clone();
        flame_root.children.push(case_node);
    }
    write_file(&args.flame, &to_folded(&flame_root))?;
    println!(
        "folded stacks written to {} (speedscope / inferno)",
        args.flame
    );
    if let Some(md) = &args.md {
        write_file(md, &attribution_md(&snap))?;
        println!("attribution table written to {md}");
    }

    if fails.is_empty() {
        println!("trace-diff: run gates clean");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &fails {
            eprintln!("FAIL: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn diff_mode(args: &Args, base_path: &str, cur_path: &str) -> Result<ExitCode, ExitCode> {
    let load = |path: &str| -> Result<ProfileSnapshot, ExitCode> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("FAIL: cannot read {path}: {e}");
            ExitCode::FAILURE
        })?;
        ProfileSnapshot::parse_str(&text).map_err(|e| {
            eprintln!("FAIL: {path} does not parse: {e}");
            ExitCode::FAILURE
        })
    };
    let base = load(base_path)?;
    let cur = load(cur_path)?;
    if base.suite != cur.suite || base.seed != cur.seed {
        eprintln!(
            "FAIL: snapshot mismatch: base is suite '{}' seed {}, cur is suite '{}' seed {}",
            base.suite, base.seed, cur.suite, cur.seed
        );
        return Ok(ExitCode::FAILURE);
    }
    let mut deltas: Vec<ProfDelta> = Vec::new();
    for bc in &base.cases {
        match cur.cases.iter().find(|c| c.id == bc.id) {
            Some(cc) => diff_case(bc, cc, &mut deltas),
            None => {
                eprintln!("FAIL: case {} missing from {cur_path}", bc.id);
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    let out = args.out.as_deref().unwrap_or("profile-diff.json");
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::from(1u64)),
        ("tool".to_string(), Value::from("trace-diff")),
        ("base_rev".to_string(), Value::from(base.git_rev.as_str())),
        ("cur_rev".to_string(), Value::from(cur.git_rev.as_str())),
        (
            "regressed".to_string(),
            Value::from(
                deltas
                    .iter()
                    .filter(|d| d.verdict == Verdict::Regressed)
                    .count(),
            ),
        ),
        (
            "deltas".to_string(),
            Value::Arr(
                deltas
                    .iter()
                    .map(|d| {
                        Value::Obj(vec![
                            ("key".to_string(), Value::from(d.key.as_str())),
                            ("base".to_string(), num(d.base)),
                            ("cur".to_string(), num(d.cur)),
                            ("verdict".to_string(), Value::from(d.verdict_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_file(out, &format!("{}\n", doc.to_json()))?;
    println!("diff written to {out}");
    if let Some(md) = &args.md {
        write_file(md, &diff_md(&base, &cur, &deltas))?;
        println!("markdown table written to {md}");
    }

    let regressed: Vec<&ProfDelta> = deltas
        .iter()
        .filter(|d| d.verdict == Verdict::Regressed)
        .collect();
    let improved = deltas
        .iter()
        .filter(|d| d.verdict == Verdict::Improved)
        .count();
    println!(
        "compared {} values: {} regressed, {improved} improved",
        deltas.len(),
        regressed.len()
    );
    if regressed.is_empty() {
        println!("trace-diff: no count drift vs base");
        Ok(ExitCode::SUCCESS)
    } else {
        for d in regressed.iter().take(40) {
            eprintln!("REGRESSED {}: {} -> {}", d.key, d.base, d.cur);
        }
        eprintln!("FAIL: {} gated values drifted", regressed.len());
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("trace-diff: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.base, &args.cur) {
        (Some(b), Some(c)) => diff_mode(&args, &b.clone(), &c.clone()),
        (None, None) => run_mode(&args),
        _ => {
            eprintln!("FAIL: --base and --cur must be given together");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) | Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn args_parse_strictly() {
        // --help prints usage instead of running the suite
        assert!(matches!(parse(&["--help"]), Ok(None)));
        assert!(matches!(parse(&["--quick", "-h"]), Ok(None)));
        let a = parse(&[
            "--quick",
            "--seed",
            "7",
            "--overhead",
            "--overhead-tol",
            "5",
        ])
        .unwrap()
        .unwrap();
        assert!(a.exp.quick && a.overhead);
        assert_eq!(a.exp.seed, 7);
        assert_eq!(a.overhead_tol.to_bits(), 5.0f64.to_bits());
        assert_eq!(a.coverage_tol.to_bits(), 0.9f64.to_bits());
        // unknown flags, missing and unparsable values are errors, not
        // silent defaults
        for bad in [
            &["--verbose"][..],
            &["--overhead-tol", "lots"],
            &["--coverage-tol", "0.9x"],
            &["--seed"],
            &["--sinks", "-3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    fn case(counters: &[(&str, u64)]) -> CaseProfile {
        CaseProfile {
            id: "CLS1v1".to_string(),
            runtime_ms: 1.0,
            profile: AttrNode::root(),
            spans: AttrNode::root(),
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            hists: Vec::new(),
        }
    }

    #[test]
    fn a_key_missing_from_the_base_is_new_not_regressed() {
        let base = case(&[("lp.pivots", 10), ("lp.solves", 4)]);
        let cur = case(&[("lp.pivots", 12), ("lp.solves", 4), ("lp.warm_solves", 6)]);
        let mut deltas = Vec::new();
        diff_case(&base, &cur, &mut deltas);
        let of = |key: &str| {
            deltas
                .iter()
                .find(|d| d.key == format!("CLS1v1/counter.{key}"))
                .expect("key compared")
        };
        let warm = of("lp.warm_solves");
        assert_eq!((warm.base, warm.cur), (0.0, 6.0));
        assert_eq!(warm.verdict, Verdict::Info);
        assert_eq!(warm.verdict_str(), "new");
        // keys present in both snapshots still gate exactly
        assert_eq!(of("lp.pivots").verdict, Verdict::Regressed);
        assert_eq!(of("lp.solves").verdict, Verdict::Neutral);
        assert_eq!(
            deltas
                .iter()
                .filter(|d| d.verdict == Verdict::Regressed)
                .count(),
            1
        );
    }
}
