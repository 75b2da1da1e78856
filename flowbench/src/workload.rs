//! The benchmark's workloads and their set-up: which flow runs on
//! which generated testcases, and the per-technology artifacts
//! (stage LUTs, trained predictor) each one needs.

use clk_bench::suite::{suite_cases, PreparedCase};
use clk_cts::Testcase;
use clk_obs::{wall_now, Obs};
use clk_skewopt::{DeltaLatencyModel, Flow, FlowConfig, StageLuts};

use crate::reference::{reference_ms, NOMINAL_MS};

/// One workload: a flow run on `draws` draws of the suite testcases at
/// a fixed sink count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The flow every pass runs on every case.
    pub flow: Flow,
    /// Sinks per generated testcase.
    pub sinks: usize,
    /// Suite draws per pass: each draw is the three suite testcases
    /// (CLS1v1/CLS1v2/CLS2v1) on three consecutive seeds.
    pub draws: u64,
}

impl Workload {
    /// Testcases per pass.
    pub fn cases(&self) -> u64 {
        3 * self.draws
    }
}

/// The workloads, chosen so each layer a later optimisation targets
/// does its work in one workload and none in another (`README.md` has
/// the layer → metric → workload map). A case's flow time moves by up
/// to 3x from one generated testcase to the next (LP pivots and
/// per-move ranking cost depend on the tree), so each pass runs enough
/// cases that a pass's total moves by well under 10% from seed to seed,
/// and the sizes keep a pass at 7–16 s, so a 30-s run holds two or
/// three whole passes:
///
/// * `global_lp` runs only the global phase: the LP simplex, its
///   certificates, ECO and full STA do all the work and the predictor
///   none. At 12 sinks a case takes about 0.1 s, so 24 draws (72
///   cases) make a pass. Over the same five seeds a pass of 36 16-sink
///   cases moved by 0.14 (IQR / median) and one of 72 12-sink cases by
///   0.04; at 24 sinks a case took 0.3–1.2 s.
/// * `local_rank` runs only the local phase: move enumeration, the
///   predictor's ranking of every move and the workers' incremental STA
///   do all the work and the LP none.
/// * `global_local` is the paper's Table-5 flow, so a gain in one phase
///   that costs the other shows on one number.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "global_lp",
        flow: Flow::Global,
        sinks: 12,
        draws: 24,
    },
    Workload {
        name: "local_rank",
        flow: Flow::Local,
        sinks: 16,
        draws: 5,
    },
    Workload {
        name: "global_local",
        flow: Flow::GlobalLocal,
        sinks: 16,
        draws: 3,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Local-phase worker threads: fixed, never `0`/auto, and never more
/// than the machine has cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The flow configuration every workload runs: the quick suite's
/// configuration with observability explicitly off (never read from
/// the environment), a fixed worker count, and one local iteration.
///
/// One iteration makes a local phase exactly one ranking sweep over
/// every candidate move plus its verification batches. With more
/// iterations, how many sweeps run depends on which moves the testcase
/// happens to accept, and the local flow's time moved by 2x from seed
/// to seed (7.5–16.9 s for one 16-sink draw); one sweep ranks about the
/// same number of moves on every seed (±3%).
pub fn flow_config(workers: usize) -> FlowConfig {
    let mut cfg = clockvar_workbench::quick_flow_config();
    cfg.local.workers = workers;
    cfg.local.max_iterations = 1;
    cfg.obs = Obs::disabled();
    cfg
}

/// Set-up wall clock of one preparation, split by layer, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Testcase::generate` (CTS), summed over cases.
    pub generate_ms: f64,
    /// `StageLuts::characterize`, summed over cases.
    pub characterize_ms: f64,
    /// `DeltaLatencyModel::train`, summed over cases.
    pub train_ms: f64,
    /// The whole set-up at the reference speed: each case's set-up
    /// wall clock scaled by the reference kernel timed right before and
    /// after it (see `reference.rs`), summed over cases.
    pub scaled_ms: f64,
}

impl SetupTimes {
    /// The whole set-up, s.
    pub fn total_s(&self) -> f64 {
        (self.generate_ms + self.characterize_ms + self.train_ms) / 1e3
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = wall_now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Generates the workload's testcases from `seed` (suite seeds `seed`
/// to `seed + 3 * draws - 1`) and builds the artifacts its flow needs,
/// timing each layer.
pub fn prepare(w: &Workload, seed: u64, cfg: &FlowConfig) -> (Vec<PreparedCase>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut ref_before = reference_ms();
    let needs_luts = matches!(w.flow, Flow::Global | Flow::GlobalLocal);
    let needs_model = matches!(w.flow, Flow::Local | Flow::GlobalLocal);
    let cases = (0..w.draws)
        .flat_map(|d| suite_cases(seed + 3 * d))
        .map(|case| {
            let (tc, gen_ms) = timed(|| Testcase::generate(case.kind, w.sinks, case.seed));
            let (luts, lut_ms) = if needs_luts {
                let (l, ms) = timed(|| StageLuts::characterize(&tc.lib));
                (Some(l), ms)
            } else {
                (None, 0.0)
            };
            let (model, train_ms) = if needs_model {
                let (m, ms) =
                    timed(|| DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train));
                (Some(m), ms)
            } else {
                (None, 0.0)
            };
            let ref_after = reference_ms();
            times.generate_ms += gen_ms;
            times.characterize_ms += lut_ms;
            times.train_ms += train_ms;
            times.scaled_ms +=
                (gen_ms + lut_ms + train_ms) * NOMINAL_MS / ((ref_before + ref_after) / 2.0);
            ref_before = ref_after;
            PreparedCase {
                case,
                tc,
                luts,
                model,
            }
        })
        .collect();
    (cases, times)
}
