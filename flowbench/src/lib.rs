//! The repository benchmark: runs the global-local flow on generated
//! testcases through the public `clk-skewopt` API, times whole passes
//! with observability off, checks every output, and in a separate
//! traced run reports per-layer figures.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload global_lp --seed 2015 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are human-readable provenance, per-case timings and, for a traced
//! run, the reconciliation of kernel cost × count against phase wall
//! clock.

pub mod check;
mod layers;
mod reference;
mod stats;
pub mod workload;

use clk_bench::suite::PreparedCase;
use clk_obs::{wall_now, Obs, ObsConfig, Value};
use clk_skewopt::{Flow, FlowConfig, OptReport};

use check::{check_report, CaseRef};
use layers::{Counts, Kernels, Times};
use stats::{median, Summary};
use workload::{flow_config, prepare, workers, SetupTimes, Workload};

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 8] = [
    lower("flow_norm", "x"),
    lower("setup_s", "s"),
    lower("var_ratio", "ratio"),
    lower("local_skew_ratio", "ratio"),
    lower("power_ratio", "ratio"),
    lower("area_ratio", "ratio"),
    higher("ok_ratio", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 42] = [
    lower("cts.generate_ms", "ms"),
    lower("lut.characterize_ms", "ms"),
    lower("predictor.train_ms", "ms"),
    lower("global.phase_ms", "ms"),
    lower("global.rounds", "count"),
    lower("global.lp_rows_built", "count"),
    higher("global.eco_accept_ratio", "ratio"),
    lower("lp.solves", "count"),
    lower("lp.pivots", "count"),
    lower("lp.degenerate_ratio", "ratio"),
    lower("lp.solve_ms", "ms"),
    lower("lp.us_per_pivot", "us"),
    lower("lp.pricing_ms", "ms"),
    lower("lp.ratio_test_ms", "ms"),
    lower("lp.basis_update_ms", "ms"),
    lower("cert.checks", "count"),
    lower("cert.check_ms", "ms"),
    lower("local.phase_ms", "ms"),
    lower("local.iterations", "count"),
    lower("local.golden_evals", "count"),
    higher("local.accepted", "count"),
    higher("local.accept_ratio", "ratio"),
    lower("local.predicted_positive", "count"),
    lower("local.predict_ms", "ms"),
    lower("local.batch_ms", "ms"),
    lower("moves.enumerated", "count"),
    lower("moves.enumerate_ms", "ms"),
    lower("moves.apply_us", "us"),
    lower("predictor.moves_ranked", "count"),
    lower("predictor.rank_us_per_move", "us"),
    lower("predictor.features_us_per_move", "us"),
    lower("predictor.infer_us_per_move", "us"),
    lower("predictor.rescore_us_per_move", "us"),
    lower("route.rsmt_us", "us"),
    lower("route.single_trunk_us", "us"),
    lower("delay.extract_us", "us"),
    lower("sta.full_ms", "ms"),
    lower("sta.incremental_ms", "ms"),
    higher("sta.incremental_speedup", "x"),
    lower("sta.nodes_timed", "count"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_pct", "%"),
];

/// Set-up repeats until it has run this long and at least
/// [`MIN_SETUPS`] times; `setup_s` is the median repetition, scaled to
/// the reference speed.
const SETUP_SECONDS: f64 = 2.0;
/// See [`SETUP_SECONDS`].
const MIN_SETUPS: usize = 3;
/// Timed passes an untraced run makes even when `--seconds` has
/// already elapsed. A pass takes up to 16 s, so more would push runs
/// well past `--seconds`.
const MIN_PASSES: usize = 2;
/// Untraced/traced pass pairs a traced run makes at least.
const MIN_TRACED_ROUNDS: usize = 1;

/// What one benchmark invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated testcases.
    pub seed: u64,
    /// How long the timed passes run, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every flow passed its output check and every deterministic
    /// quantity repeated exactly.
    pub correct: bool,
    /// Flows run.
    pub attempted: u64,
    /// Flows that returned `Err`, came back partial, absorbed a fault
    /// or failed the output check.
    pub failed: u64,
    /// `(metric, value)` in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
}

impl RunOutput {
    /// The value of metric `name`, if emitted.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::from(*v)),
                        ("unit".to_string(), Value::from(d.unit)),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::from(self.correct)),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
        .to_json()
    }
}

/// QoR of a pass's cases: the sums after the flow, and each case's
/// after/before ratios.
#[derive(Debug, Clone, Default)]
struct Qor {
    var: f64,
    local_skew: f64,
    power: f64,
    area: f64,
    /// Per case: variation, worst local skew, power and area, each
    /// after / before.
    ratios: Vec<[f64; 4]>,
}

impl Qor {
    fn add(&mut self, r: &OptReport) {
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let skew = (worst(&r.local_skew_before), worst(&r.local_skew_after));
        self.var += r.variation_after;
        self.local_skew += skew.1;
        self.power += r.power_after_mw;
        self.area += r.area_after_um2;
        self.ratios.push([
            ratio(r.variation_after, r.variation_before),
            ratio(skew.1, skew.0),
            ratio(r.power_after_mw, r.power_before_mw),
            ratio(r.area_after_um2, r.area_before_um2),
        ]);
    }

    /// Mean over the cases of ratio `k` (the order of [`Qor::ratios`]),
    /// as Table 5 averages its normalized columns.
    fn mean_ratio(&self, k: usize) -> f64 {
        ratio(
            self.ratios.iter().map(|r| r[k]).sum(),
            self.ratios.len() as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One pass: every case run once.
struct Pass {
    /// Σ flow wall clock over cases, ms.
    ms: f64,
    /// Σ over cases of the case's wall clock / the reference kernel's
    /// wall clock around it (untraced passes only).
    norm: f64,
    case_ms: Vec<f64>,
    qor: Qor,
    /// Per-case observations, for a traced pass.
    traced: Vec<(Counts, Times)>,
}

/// Runs passes over the prepared cases and keeps the failure tally and
/// the canonical outcome each case must reproduce.
struct Runner<'a> {
    flow: Flow,
    cfg: &'a FlowConfig,
    cases: &'a [PreparedCase],
    refs: &'a [CaseRef],
    outcomes: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Runner<'_> {
    /// Runs the first `n` cases once each.
    fn pass(&mut self, n: usize, traced: bool) -> Pass {
        let mut pass = Pass {
            ms: 0.0,
            norm: 0.0,
            case_ms: Vec::with_capacity(self.cases.len()),
            qor: Qor::default(),
            traced: Vec::new(),
        };
        let mut ref_before = if traced {
            0.0
        } else {
            reference::reference_ms()
        };
        for (i, p) in self.cases.iter().enumerate().take(n) {
            let obs = if traced {
                Obs::new(ObsConfig {
                    profile: true,
                    ..ObsConfig::default()
                })
            } else {
                Obs::disabled()
            };
            let cfg = FlowConfig {
                obs: obs.clone(),
                ..self.cfg.clone()
            };
            self.attempted += 1;
            let verdict = p
                .run(self.flow, &cfg)
                .map_err(|e| format!("flow failed: {e}"))
                .and_then(|(report, ms)| {
                    let outcome = check_report(&p.tc, &self.refs[i], &cfg, &report)?;
                    match &self.outcomes[i] {
                        Some(first) if *first != outcome => {
                            return Err("tree outcome differs from the first pass".into())
                        }
                        Some(_) => {}
                        None => self.outcomes[i] = Some(outcome),
                    }
                    Ok((report, ms))
                });
            match verdict {
                Ok((report, ms)) => {
                    if !traced {
                        let ref_after = reference::reference_ms();
                        pass.norm += ms / ((ref_before + ref_after) / 2.0);
                        ref_before = ref_after;
                    }
                    pass.ms += ms;
                    pass.case_ms.push(ms);
                    pass.qor.add(&report);
                }
                Err(e) => {
                    self.failed += 1;
                    self.errors.push(format!("{:?}: {e}", p.case.kind));
                    pass.case_ms.push(0.0);
                }
            }
            if traced {
                let snap = obs.metrics_snapshot().unwrap_or_default();
                pass.traced
                    .push(layers::observe(&snap, &obs.profiler().tree()));
            }
        }
        pass
    }
}

/// Peak resident set size of this process, MB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// A generated input tree cannot be timed, or (untraced runs) the peak
/// RSS cannot be read: no result can be reported.
pub fn run(spec: &RunSpec) -> Result<RunOutput, String> {
    let w = &spec.workload;
    let workers = workers();
    let cfg = flow_config(workers);
    let mut info = vec![format!(
        "workload={} flow={} seed={} sinks={} cases={} nproc={} workers={}",
        w.name,
        w.flow,
        spec.seed,
        w.sinks,
        w.cases(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        workers
    )];

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut cases = Vec::new();
    let start = wall_now();
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (c, t) = prepare(w, spec.seed, &cfg);
        cases = c;
        setups.push(t);
    }
    let setup_wall = Summary::of(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
    let setup_s = Summary::of(&setups.iter().map(|t| t.scaled_ms / 1e3).collect::<Vec<_>>());
    info.push(format!(
        "setup_wall_s n={} q1={:.4} median={:.4} q3={:.4} (information only)",
        setup_wall.n, setup_wall.q1, setup_wall.median, setup_wall.q3
    ));
    info.push(format!(
        "setup_s n={} q1={:.4} median={:.4} q3={:.4} (same set-ups, at the reference speed)",
        setup_s.n, setup_s.q1, setup_s.median, setup_s.q3
    ));
    let refs = cases
        .iter()
        .map(|p| CaseRef::new(&p.tc, w.flow, &cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let mut runner = Runner {
        flow: w.flow,
        cfg: &cfg,
        cases: &cases,
        refs: &refs,
        outcomes: vec![None; cases.len()],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    // untimed warm-up over the first suite draw: fills caches and lets
    // lazy set-up finish before timing
    runner.pass(3, false);
    let n = cases.len();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // a traced run alternates untraced and traced passes, so both see
    // the same machine conditions and their ratio is the trace overhead
    let min_rounds = if spec.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_PASSES
    };
    let start = wall_now();
    loop {
        plain.push(runner.pass(n, false));
        if spec.trace {
            traced.push(runner.pass(n, true));
        }
        // stop before a round that would end past the deadline, so a
        // run measures close to `--seconds` whatever the pass length
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / plain.len() as f64;
        if plain.len() >= min_rounds && elapsed + per_round > spec.seconds {
            break;
        }
    }

    let flow_s = Summary::of(&plain.iter().map(|p| p.ms / 1e3).collect::<Vec<_>>());
    let flow_norm = Summary::of(&plain.iter().map(|p| p.norm).collect::<Vec<_>>());
    info.push(format!(
        "flow_s n={} q1={:.4} median={:.4} q3={:.4} (whole passes, observability off; information only)",
        flow_s.n, flow_s.q1, flow_s.median, flow_s.q3
    ));
    info.push(format!(
        "flow_norm n={} q1={:.2} median={:.2} q3={:.2} (same passes, in reference-kernel times)",
        flow_norm.n, flow_norm.q1, flow_norm.median, flow_norm.q3
    ));
    for (i, p) in cases.iter().enumerate() {
        let per: Vec<f64> = plain.iter().map(|x| x.case_ms[i]).collect();
        info.push(format!(
            "info case={:?} seed={} median_ms={:.1} (info only)",
            p.case.kind,
            p.case.seed,
            median(&per)
        ));
    }
    let q = &plain[0].qor;
    info.push(format!(
        "info qor var_after_ps={:.3} local_skew_after_ps={:.3} power_after_mw={:.5} area_after_um2={:.3} (sums over cases)",
        q.var, q.local_skew, q.power, q.area
    ));

    let mut correct = true;
    let metrics: Vec<(&str, f64)> = if spec.trace {
        let traced_s = median(&traced.iter().map(|p| p.ms / 1e3).collect::<Vec<_>>());
        let overhead_pct = 100.0 * (ratio(traced_s, flow_s.median) - 1.0);
        let counts: Vec<Vec<Counts>> = traced
            .iter()
            .map(|p| p.traced.iter().map(|t| t.0).collect())
            .collect();
        if counts.iter().any(|c| *c != counts[0]) {
            correct = false;
            runner
                .errors
                .push("deterministic counts differ between traced passes".into());
        }
        let mut kernels = Vec::with_capacity(cases.len());
        for p in &cases {
            kernels.push(replay_case(p, w.flow, &cfg)?);
        }
        per_layer(
            &setups,
            &counts[0],
            &traced,
            &kernels,
            workers.min(cfg.local.moves_per_round).max(1),
            overhead_pct,
            &mut info,
        )
    } else {
        let attempted = runner.attempted as f64;
        vec![
            ("flow_norm", flow_norm.median),
            ("setup_s", setup_s.median),
            ("var_ratio", q.mean_ratio(0)),
            ("local_skew_ratio", q.mean_ratio(1)),
            ("power_ratio", q.mean_ratio(2)),
            ("area_ratio", q.mean_ratio(3)),
            (
                "ok_ratio",
                ratio(attempted - runner.failed as f64, attempted),
            ),
            ("peak_rss_mb", peak_rss_mb()?),
        ]
    };
    info.push(format!(
        "info fail_ratio={} ({} of {} flows)",
        ratio(runner.failed as f64, runner.attempted as f64),
        runner.failed,
        runner.attempted
    ));
    info.extend(runner.errors.iter().map(|e| format!("error {e}")));
    correct &= runner.failed == 0;
    let catalogue: &[MetricDef] = if spec.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|d| {
            let v = metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} was not computed", d.name))?;
            Ok((*d, v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunOutput {
        correct,
        attempted: runner.attempted,
        failed: runner.failed,
        metrics,
        info,
    })
}

/// Replays the kernels on the tree a local iteration of `flow` ranks:
/// the input tree for the local flow, the global phase's result for the
/// global-local flow, and (STA only) the output tree for the global
/// flow.
fn replay_case(p: &PreparedCase, flow: Flow, cfg: &FlowConfig) -> Result<Kernels, String> {
    let tree = match flow {
        Flow::Local => p.tc.tree.clone(),
        Flow::Global | Flow::GlobalLocal => {
            p.run(Flow::Global, cfg)
                .map_err(|e| format!("global flow for the replay tree failed: {e}"))?
                .0
                .tree
        }
    };
    layers::replay(&p.tc, &tree, cfg, p.model.as_ref())
}

/// Assembles the per-layer metrics (sums over cases; per-call kernel
/// costs are means over cases) and the reconciliation table.
fn per_layer(
    setups: &[SetupTimes],
    counts: &[Counts],
    traced: &[Pass],
    kernels: &[Kernels],
    lanes: usize,
    overhead_pct: f64,
    info: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let n_cases = counts.len();
    // per-case medians over the traced passes
    let times: Vec<Times> = (0..n_cases)
        .map(|i| {
            let per: Vec<Times> = traced.iter().map(|p| p.traced[i].1).collect();
            let m = |f: fn(&Times) -> f64| layers::median_of(&per, f);
            Times {
                global_phase: m(|t| t.global_phase),
                local_phase: m(|t| t.local_phase),
                lp_solve: m(|t| t.lp_solve),
                pricing: m(|t| t.pricing),
                ratio_test: m(|t| t.ratio_test),
                basis_update: m(|t| t.basis_update),
                cert_check: m(|t| t.cert_check),
                predict: m(|t| t.predict),
                batch: m(|t| t.batch),
            }
        })
        .collect();
    let sum_c = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let sum_t = |f: fn(&Times) -> f64| times.iter().map(f).sum::<f64>();
    let local: Vec<&Kernels> = kernels.iter().filter(|k| k.local).collect();
    let mean_k = |f: fn(&Kernels) -> f64| {
        if local.is_empty() {
            0.0
        } else {
            local.iter().map(|k| f(k)).sum::<f64>() / local.len() as f64
        }
    };
    let sta_full = kernels.iter().map(|k| k.sta_full_ms).sum::<f64>() / n_cases.max(1) as f64;
    let incremental = mean_k(|k| k.incremental_ms);
    let rank = mean_k(|k| k.rank_us);
    let features = mean_k(|k| k.features_us);
    let infer = mean_k(|k| k.infer_us);
    let moves_ranked: u64 = counts
        .iter()
        .zip(kernels)
        .map(|(c, k)| k.enumerated * c.local_iterations)
        .sum();
    let pivots = sum_c(|c| c.lp_pivots);

    info.push("reconciliation (per case: phase wall vs Σ kernel × count, ms)".into());
    let (mut phase_total, mut explained_total) = (0.0, 0.0);
    for (i, ((c, t), k)) in counts.iter().zip(&times).zip(kernels).enumerate() {
        let phase = t.global_phase + t.local_phase;
        let explained = layers::explained_ms(c, t.lp_solve, t.cert_check, k, lanes as f64);
        info.push(format!(
            "  case {i}: global {:.1} + local {:.1} = {:.1}; explained {:.1} \
             (lp {:.1} + cert {:.1} + {} iter × (sta {:.2} + enum {:.2}) + {} ranked × {:.1} us + {} evals × ({:.1} us + {:.2} ms) / {lanes})",
            t.global_phase,
            t.local_phase,
            phase,
            explained,
            t.lp_solve,
            t.cert_check,
            c.local_iterations,
            k.sta_full_ms,
            k.enumerate_ms,
            k.enumerated * c.local_iterations,
            k.rank_us,
            c.golden_evals,
            k.apply_us,
            k.incremental_ms,
        ));
        phase_total += phase;
        explained_total += explained;
    }
    let unattributed = 100.0 * ratio(phase_total - explained_total, phase_total);
    info.push(format!(
        "  total: phases {phase_total:.1} ms, explained {explained_total:.1} ms, unattributed {unattributed:.1}%"
    ));

    vec![
        ("cts.generate_ms", setup(|s| s.generate_ms)),
        ("lut.characterize_ms", setup(|s| s.characterize_ms)),
        ("predictor.train_ms", setup(|s| s.train_ms)),
        ("global.phase_ms", sum_t(|t| t.global_phase)),
        ("global.rounds", sum_c(|c| c.global_rounds)),
        ("global.lp_rows_built", sum_c(|c| c.lp_rows_built)),
        (
            "global.eco_accept_ratio",
            ratio(sum_c(|c| c.eco_accepted), sum_c(|c| c.eco_tried)),
        ),
        ("lp.solves", sum_c(|c| c.lp_solves)),
        ("lp.pivots", pivots),
        (
            "lp.degenerate_ratio",
            ratio(sum_c(|c| c.lp_degenerate), pivots),
        ),
        ("lp.solve_ms", sum_t(|t| t.lp_solve)),
        (
            "lp.us_per_pivot",
            ratio(sum_t(|t| t.lp_solve) * 1e3, pivots),
        ),
        ("lp.pricing_ms", sum_t(|t| t.pricing)),
        ("lp.ratio_test_ms", sum_t(|t| t.ratio_test)),
        ("lp.basis_update_ms", sum_t(|t| t.basis_update)),
        ("cert.checks", sum_c(|c| c.cert_checks)),
        ("cert.check_ms", sum_t(|t| t.cert_check)),
        ("local.phase_ms", sum_t(|t| t.local_phase)),
        ("local.iterations", sum_c(|c| c.local_iterations)),
        ("local.golden_evals", sum_c(|c| c.golden_evals)),
        ("local.accepted", sum_c(|c| c.accepted)),
        (
            "local.accept_ratio",
            ratio(sum_c(|c| c.accepted), sum_c(|c| c.golden_evals)),
        ),
        ("local.predicted_positive", sum_c(|c| c.predicted_positive)),
        ("local.predict_ms", sum_t(|t| t.predict)),
        ("local.batch_ms", sum_t(|t| t.batch)),
        (
            "moves.enumerated",
            local.iter().map(|k| k.enumerated).sum::<u64>() as f64,
        ),
        ("moves.enumerate_ms", mean_k(|k| k.enumerate_ms)),
        ("moves.apply_us", mean_k(|k| k.apply_us)),
        ("predictor.moves_ranked", moves_ranked as f64),
        ("predictor.rank_us_per_move", rank),
        ("predictor.features_us_per_move", features),
        ("predictor.infer_us_per_move", infer),
        (
            "predictor.rescore_us_per_move",
            if local.is_empty() {
                0.0
            } else {
                rank - features - infer
            },
        ),
        ("route.rsmt_us", mean_k(|k| k.rsmt_us)),
        ("route.single_trunk_us", mean_k(|k| k.single_trunk_us)),
        ("delay.extract_us", mean_k(|k| k.extract_us)),
        ("sta.full_ms", sta_full),
        ("sta.incremental_ms", incremental),
        ("sta.incremental_speedup", ratio(sta_full, incremental)),
        ("sta.nodes_timed", sum_c(|c| c.nodes_timed)),
        ("bench.trace_overhead_pct", overhead_pct),
        ("bench.unattributed_pct", unattributed),
    ]
}
