// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! `clk-skewopt` — the paper's contribution: a global-local optimization
//! framework for simultaneous multi-mode multi-corner clock skew variation
//! reduction (Han, Kahng, Lee, Li, Nath — DAC 2015).
//!
//! Given a routed, buffered clock tree signed off at several PVT corners,
//! the framework minimizes the **sum over sequentially adjacent sink pairs
//! of the worst normalized skew variation across corner pairs**
//! (Eqs. (1)–(3) of the paper):
//!
//! * [`lut`] characterizes stage-delay lookup tables for inverter pairs
//!   (LUT_uniform / LUT_detail, §4.1) once per technology, and fits the
//!   cross-corner delay-ratio feasibility bounds of Fig. 2;
//! * [`global`] builds the LP of Eqs. (4)–(11) over per-arc delay changes,
//!   sweeps the variation bound, and realizes the chosen delay targets
//!   with the LP-guided ECO of Algorithm 1 (buffer removal / re-insertion
//!   / U-shaped routing detours);
//! * [`moves`] enumerates the Table-2 local moves (buffer sizing ±
//!   displacement, child sizing, tree surgery);
//! * [`predictor`] trains the per-corner machine-learning delta-latency
//!   models (ANN, SVM-RBF, HSM) on artificial testcases and exposes the
//!   analytical estimators they refine;
//! * [`local`] runs the iterative local optimization of Algorithm 2 with
//!   the predictor ranking moves and the golden timer arbitrating;
//! * [`flow`] stitches the `global`, `local` and `global-local` flows of
//!   Table 5 together and reports variation / skew / cells / power / area.
//!
//! # Examples
//!
//! ```no_run
//! use clk_cts::{Testcase, TestcaseKind};
//! use clk_skewopt::flow::{optimize, Flow, FlowConfig};
//!
//! let tc = Testcase::generate(TestcaseKind::Cls1v1, 200, 1);
//! let report = optimize(&tc, Flow::GlobalLocal, &FlowConfig::default());
//! println!("variation: {:.1} -> {:.1} ps", report.variation_before, report.variation_after);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod baseline;
pub mod fault;
pub mod flow;
pub mod global;
pub mod local;
pub mod lut;
pub mod moves;
pub mod predictor;
pub mod replay;

pub use baseline::{worst_skew_optimize, WorstSkewReport};
pub use fault::{
    emit_fault, CancelToken, Checkpoint, Deadline, FaultCtx, FaultKind, FaultLog, FaultPlan,
    FaultRecord, FaultSite, FlowBudget, FlowError, PhaseBudget, PhaseProgress, RecoveryAction,
    TreeTxn,
};
pub use flow::{
    check_lint_gate, lint_gate, optimize, optimize_with, try_optimize, try_optimize_with, Flow,
    FlowConfig, OptReport,
};
pub use global::{
    global_optimize, global_optimize_checked, global_optimize_guarded, u_sweep, GlobalConfig,
    GlobalReport, LpObjective, USweepPoint,
};
pub use local::{
    local_optimize, local_optimize_checked, local_optimize_guarded, predict_move_gain,
    CandidateRejects, LocalConfig, LocalReport, RankContext, Ranker,
};
pub use lut::{RatioBounds, StageLuts};
pub use moves::{apply_move, enumerate_moves, touched_drivers, Move, MoveConfig, Resize};
pub use predictor::{CommittedNets, DeltaLatencyModel, ModelKind, RankWork, TrainConfig};
pub use replay::{replay_ledger, ReplayError};
