//! Fault-tolerant flow runtime: the unified error taxonomy, the fault
//! log with recovery actions, transactional tree snapshots, per-phase
//! budgets, and the deterministic fault-injection plan behind
//! `clk-bench --bin chaos`.
//!
//! The paper's global-local flow (Fig. 2) is incremental: every round
//! must leave a legal, timeable clock tree even when an LP solve or a
//! candidate ECO goes sideways. This module gives the flow that
//! property:
//!
//! * [`FlowError`] is the typed error every checked entry point returns
//!   instead of panicking;
//! * [`FaultLog`] records every fault the runtime absorbed together
//!   with the [`RecoveryAction`] taken, and is surfaced on
//!   `OptReport::faults`;
//! * [`TreeTxn`] wraps a phase or batch in a snapshot/rollback
//!   transaction; [`Checkpoint`] persists a best-so-far tree through
//!   the `.ctree` round trip so a timed-out flow still returns its best
//!   legal result;
//! * [`PhaseBudget`]/[`FlowBudget`] bound each phase's wall clock and
//!   iterations;
//! * [`Deadline`]/[`CancelToken`] (re-exported from `clk_obs::cancel`,
//!   where the leaf crates can reach them) make every inner loop
//!   interruptible: phases build one [`Deadline`] per run combining
//!   the budget's wall clock with the flow's [`CancelToken`], and the
//!   simplex pivot loop, STA propagation, ECO sweeps and candidate
//!   evals all poll it at their safe points;
//! * [`FaultPlan`] is the seeded injection hook ([`FaultSite`] lists
//!   the four fault classes) the chaos harness arms via
//!   `FlowConfig::fault_plan`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use clk_obs::{CancelToken, Deadline};

use clk_liberty::Library;
use clk_lp::LpError;
use clk_netlist::io::{parse_ctree, write_ctree};
use clk_netlist::{ClockTree, TreeError};
use clk_obs::{kv, Obs};
use clk_sta::TimingError;

// ---------------------------------------------------------------------
// FlowError: the unified taxonomy
// ---------------------------------------------------------------------

/// Unified error type of the checked flow entry points
/// (`try_optimize_with`, `global_optimize_checked`,
/// `local_optimize_checked`, `check_lint_gate`).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The LP phase failed after the whole retry/degradation ladder.
    Lp(LpError),
    /// The golden timer could not time the tree.
    Timing(TimingError),
    /// A tree edit violated a structural invariant.
    Tree(TreeError),
    /// A lint gate failed at the configured level.
    LintGate {
        /// The phase boundary the gate guards (e.g. `"CTS (flow input)"`).
        stage: String,
        /// The rendered lint report.
        report: String,
    },
    /// The flow needs a per-technology artifact that was not provided.
    MissingArtifact(&'static str),
    /// A `.ctree` checkpoint failed to restore.
    Ctree(String),
    /// An LP solve returned, but its optimality certificate failed exact
    /// re-verification — the answer cannot be trusted.
    CertViolation {
        /// The λ-round / solve site that produced the bad certificate.
        site: String,
        /// Rendered list of the violated checks.
        report: String,
    },
    /// The flow was cancelled (or ran out of wall clock) before it
    /// could produce even a baseline result — there is no best-so-far
    /// tree to fall back to. Interruptions *after* the baseline is
    /// established never surface as this error; they yield an
    /// `OptReport { partial: true, .. }` instead.
    Interrupted {
        /// The phase that was cut (`"init"`, or a pure-`Global` flow cut
        /// before round 0 finished).
        phase: &'static str,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Lp(e) => write!(f, "LP phase failed: {e}"),
            FlowError::Timing(e) => write!(f, "timing failed: {e}"),
            FlowError::Tree(e) => write!(f, "tree edit failed: {e}"),
            FlowError::LintGate { stage, report } => {
                write!(f, "lint gate failed after {stage}:\n{report}")
            }
            FlowError::MissingArtifact(what) => write!(f, "missing artifact: {what}"),
            FlowError::Ctree(m) => write!(f, "checkpoint restore failed: {m}"),
            FlowError::CertViolation { site, report } => {
                write!(f, "LP certificate rejected at {site}: {report}")
            }
            FlowError::Interrupted { phase } => {
                write!(f, "flow interrupted during {phase} before a result existed")
            }
        }
    }
}

impl FlowError {
    /// Whether this error is a cooperative-cancellation cut (deadline
    /// expiry or token cancel) rather than a genuine failure. Phases use
    /// this to distinguish "stop and keep the best-so-far tree" from
    /// "abandon the result".
    pub fn is_interrupt(&self) -> bool {
        matches!(
            self,
            FlowError::Lp(LpError::Interrupted)
                | FlowError::Timing(TimingError::Interrupted)
                | FlowError::Interrupted { .. }
        )
    }
}

impl std::error::Error for FlowError {}

impl From<LpError> for FlowError {
    fn from(e: LpError) -> Self {
        FlowError::Lp(e)
    }
}

impl From<TimingError> for FlowError {
    fn from(e: TimingError) -> Self {
        FlowError::Timing(e)
    }
}

impl From<TreeError> for FlowError {
    fn from(e: TreeError) -> Self {
        FlowError::Tree(e)
    }
}

// ---------------------------------------------------------------------
// Fault log
// ---------------------------------------------------------------------

/// The class of a fault the runtime observed (organically or injected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An arc delay came back NaN/±∞ from the timer.
    NanArcDelay,
    /// The stage-delay model produced non-finite estimates (corrupt LUT
    /// row): the affected arcs are frozen out of the LP.
    CorruptDelayModel,
    /// An LP solve failed (`Infeasible` / `IterationLimit` / builder
    /// rejection).
    LpFailure,
    /// A local-phase candidate worker panicked.
    WorkerPanic,
    /// A global ECO sweep panicked and was rolled back.
    EcoPanic,
    /// A phase-boundary lint gate failed.
    LintGateFailed,
    /// A phase exhausted its wall-clock budget.
    PhaseTimeout,
    /// The flow's [`CancelToken`] was cancelled (externally or by an
    /// armed deterministic trip) and the phase stopped at a safe point.
    Cancelled,
    /// A phase exhausted its iteration budget.
    IterationBudget,
    /// A phase returned a typed error absorbed by the flow.
    PhaseError,
    /// An LP certificate failed exact re-verification.
    CertViolation,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::NanArcDelay => "nan-arc-delay",
            FaultKind::CorruptDelayModel => "corrupt-delay-model",
            FaultKind::LpFailure => "lp-failure",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::EcoPanic => "eco-panic",
            FaultKind::LintGateFailed => "lint-gate-failed",
            FaultKind::PhaseTimeout => "phase-timeout",
            FaultKind::Cancelled => "cancelled",
            FaultKind::IterationBudget => "iteration-budget",
            FaultKind::PhaseError => "phase-error",
            FaultKind::CertViolation => "cert-violation",
        })
    }
}

/// What the runtime did about a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// The operation was re-attempted (possibly with relaxed knobs).
    Retry,
    /// The flow continued with a weaker formulation or partial result.
    Degrade,
    /// State was restored from a snapshot/checkpoint.
    Rollback,
    /// The faulty unit of work was dropped and the flow moved on.
    Skip,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryAction::Retry => "retry",
            RecoveryAction::Degrade => "degrade",
            RecoveryAction::Rollback => "rollback",
            RecoveryAction::Skip => "skip",
        })
    }
}

/// One absorbed fault: where, what, and how the flow recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Monotonic sequence number, unique across one flow run (phase
    /// logs are seq-based so numbers stay globally ordered; see
    /// [`FaultLog::with_seq_base`]).
    pub seq: u64,
    /// Milliseconds between flow start and absorption.
    pub elapsed_ms: f64,
    /// The phase that hit the fault (`"global"`, `"local"`, `"flow"`).
    pub phase: &'static str,
    /// The fault class.
    pub fault: FaultKind,
    /// The recovery the runtime applied.
    pub action: RecoveryAction,
    /// Free-form context (the error message, the arc, the λ point, …).
    pub detail: String,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} +{:.1}ms [{}] {} -> {}: {}",
            self.seq, self.elapsed_ms, self.phase, self.fault, self.action, self.detail
        )
    }
}

/// The ordered log of every fault a flow absorbed.
#[derive(Debug, Clone)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
    /// The flow start each record's `elapsed_ms` is measured from.
    origin: Instant,
    /// Next sequence number to stamp.
    next: u64,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog {
            records: Vec::new(),
            origin: clk_obs::wall_now(),
            next: 0,
        }
    }
}

impl PartialEq for FaultLog {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl FaultLog {
    /// An empty log with its origin at "now".
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Rebases `elapsed_ms` stamps on `origin` (the flow start).
    pub fn with_origin(mut self, origin: Instant) -> Self {
        self.origin = origin;
        self
    }

    /// Starts sequence numbering at `base`. Phase logs are built with
    /// the flow log's [`next_seq`](Self::next_seq) as base so that
    /// after [`absorb`](Self::absorb) all records stay globally
    /// monotonic.
    pub fn with_seq_base(mut self, base: u64) -> Self {
        self.next = base;
        self
    }

    /// The sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// The instant `elapsed_ms` stamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends a record, stamping its sequence number and elapsed time.
    /// Returns the assigned sequence number.
    pub fn record(
        &mut self,
        phase: &'static str,
        fault: FaultKind,
        action: RecoveryAction,
        detail: impl Into<String>,
    ) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.records.push(FaultRecord {
            seq,
            elapsed_ms: self.origin.elapsed().as_secs_f64() * 1e3,
            phase,
            fault,
            action,
            detail: detail.into(),
        });
        seq
    }

    /// All records, in the order they were absorbed.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Whether nothing was absorbed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Records of one fault class.
    pub fn of_kind(&self, kind: FaultKind) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(move |r| r.fault == kind)
    }

    /// Merges another log into this one (phase logs into the flow log),
    /// advancing the sequence counter past the absorbed records.
    pub fn absorb(&mut self, other: FaultLog) {
        self.next = self.next.max(other.next);
        self.records.extend(other.records);
    }

    /// The log rendered one record per line.
    pub fn to_text(&self) -> String {
        self.records
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// The four injectable fault classes of the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Poison one arc's timed delay to NaN before the LP sees it.
    NanArcDelay,
    /// Corrupt the stage-LUT estimates used to bound one arc's Δ.
    CorruptLutRow,
    /// Make one LP build infeasible by injecting a contradictory row;
    /// a round's as-built LP serves all of its λ points.
    InfeasibleLp,
    /// Panic inside one local-phase candidate worker.
    WorkerPanic,
}

impl FaultSite {
    /// All four classes, in injection order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::NanArcDelay,
        FaultSite::CorruptLutRow,
        FaultSite::InfeasibleLp,
        FaultSite::WorkerPanic,
    ];
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultSite::NanArcDelay => "nan-arc-delay",
            FaultSite::CorruptLutRow => "corrupt-lut-row",
            FaultSite::InfeasibleLp => "infeasible-lp",
            FaultSite::WorkerPanic => "worker-panic",
        })
    }
}

/// Per-site arming state: fire on the `skip`-th opportunity, `shots`
/// times in total.
#[derive(Debug, Clone, Copy)]
struct SiteState {
    skip: u32,
    shots: u32,
}

/// A deterministic, seeded fault-injection plan.
///
/// The flow probes the plan at well-defined sites via
/// [`FaultPlan::fire`]; the plan decides — deterministically from its
/// seed — whether that opportunity becomes a fault. Shared behind an
/// `Arc` in `FlowConfig::fault_plan` so the local phase's worker
/// threads can probe it concurrently.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    state: Mutex<PlanState>,
}

#[derive(Debug)]
struct PlanState {
    sites: std::collections::HashMap<FaultSite, SiteState>,
    injected: Vec<FaultSite>,
}

impl FaultPlan {
    /// A plan arming all four [`FaultSite`] classes once each, with a
    /// seed-dependent (but deterministic) choice of which opportunity
    /// each class fires on.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut sites = std::collections::HashMap::new();
        for site in FaultSite::ALL {
            sites.insert(
                site,
                SiteState {
                    skip: (next() % 3) as u32,
                    shots: 1,
                },
            );
        }
        FaultPlan {
            seed,
            state: Mutex::new(PlanState {
                sites,
                injected: Vec::new(),
            }),
        }
    }

    /// An empty plan (no site armed); arm sites with [`FaultPlan::arm`].
    pub fn inert(seed: u64) -> Self {
        FaultPlan {
            seed,
            state: Mutex::new(PlanState {
                sites: std::collections::HashMap::new(),
                injected: Vec::new(),
            }),
        }
    }

    /// Arms (or re-arms) one site: fire `shots` times, starting at the
    /// `skip`-th opportunity.
    pub fn arm(&self, site: FaultSite, skip: u32, shots: u32) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.sites.insert(site, SiteState { skip, shots });
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probes the plan at an injection site. Returns `true` when this
    /// opportunity must become a fault (and consumes one shot).
    pub fn fire(&self, site: FaultSite) -> bool {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(s) = st.sites.get_mut(&site) else {
            return false;
        };
        if s.shots == 0 {
            return false;
        }
        if s.skip > 0 {
            s.skip -= 1;
            return false;
        }
        s.shots -= 1;
        st.injected.push(site);
        true
    }

    /// Every fault actually injected so far, in firing order.
    pub fn injected(&self) -> Vec<FaultSite> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .injected
            .clone()
    }
}

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// Wall-clock and iteration bounds for one flow phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBudget {
    /// Hard wall-clock bound; the phase returns its best-so-far result
    /// when exceeded. `None` = unbounded.
    pub wall_clock: Option<Duration>,
    /// Cap on the phase's outer iterations (global rounds, local
    /// iterations). `None` = use the phase config's own counts.
    pub max_iterations: Option<usize>,
}

impl PhaseBudget {
    /// An unbounded budget.
    pub fn unlimited() -> Self {
        PhaseBudget::default()
    }

    /// The [`Deadline`] this budget implies from `start`, combined with
    /// the flow's cancellation token. An unbounded budget with no token
    /// yields the inert deadline (free to poll).
    pub fn deadline(&self, start: Instant, cancel: Option<&CancelToken>) -> Deadline {
        Deadline::new(self.wall_clock.map(|d| start + d), cancel.cloned())
    }

    /// Clamps an iteration count to the budget.
    pub fn clamp_iterations(&self, n: usize) -> usize {
        match self.max_iterations {
            Some(cap) => n.min(cap),
            None => n,
        }
    }
}

/// Per-phase budgets of a flow run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowBudget {
    /// Budget of the global (LP + ECO) phase.
    pub global: PhaseBudget,
    /// Budget of the local (Algorithm 2) phase.
    pub local: PhaseBudget,
}

/// How far one phase got before finishing or being cut — the per-phase
/// progress markers on `OptReport::progress`. The unit is the phase's
/// natural outer step: global rounds, local iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProgress {
    /// The phase (`"global"`, `"local"`).
    pub phase: &'static str,
    /// Outer steps fully completed (and committed).
    pub done: usize,
    /// Outer steps the configuration planned.
    pub planned: usize,
    /// Whether the phase was stopped early by its deadline.
    pub interrupted: bool,
    /// What stopped it (`"wall"`, `"cancel"`), when interrupted.
    pub trigger: Option<&'static str>,
}

impl PhaseProgress {
    /// A marker for a phase that ran to completion.
    pub fn complete(phase: &'static str, done: usize, planned: usize) -> Self {
        PhaseProgress {
            phase,
            done,
            planned,
            interrupted: false,
            trigger: None,
        }
    }

    /// A marker for a phase cut at `done` of `planned` steps.
    pub fn interrupted(
        phase: &'static str,
        done: usize,
        planned: usize,
        trigger: Option<&'static str>,
    ) -> Self {
        PhaseProgress {
            phase,
            done,
            planned,
            interrupted: true,
            trigger,
        }
    }
}

impl std::fmt::Display for PhaseProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}/{}", self.phase, self.done, self.planned)?;
        if self.interrupted {
            write!(f, " (cut: {})", self.trigger.unwrap_or("deadline"))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault context: what checked entry points thread through
// ---------------------------------------------------------------------

/// Mutable fault-handling context one phase runs under: the (optional)
/// injection plan, the fault log being built, the phase deadline, and
/// the observability pipeline faults are mirrored into.
#[derive(Debug)]
pub struct FaultCtx<'p> {
    /// Armed injection plan, if any.
    pub plan: Option<&'p FaultPlan>,
    /// The log this phase appends to.
    pub log: FaultLog,
    /// The phase deadline (wall clock and/or cancellation), polled at
    /// every safe point and threaded into the LP and STA inner loops.
    pub deadline: Deadline,
    /// Pipeline each absorbed fault is emitted through (fault event +
    /// flight-recorder dump). Disabled by default.
    pub obs: Obs,
    /// Progress marker the phase leaves behind (how far it got, and
    /// whether it was cut). Flows collect these into
    /// `OptReport::progress`.
    pub progress: Option<PhaseProgress>,
}

impl<'p> FaultCtx<'p> {
    /// A context with no injection and no deadline.
    pub fn passive() -> Self {
        FaultCtx {
            plan: None,
            log: FaultLog::new(),
            deadline: Deadline::none(),
            obs: Obs::disabled(),
            progress: None,
        }
    }

    /// A context running `plan` under `deadline`.
    pub fn new(plan: Option<&'p FaultPlan>, deadline: Deadline) -> Self {
        FaultCtx {
            plan,
            log: FaultLog::new(),
            deadline,
            obs: Obs::disabled(),
            progress: None,
        }
    }

    /// Mirrors every absorbed fault into `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Rebases this context's fault log on the flow start; see
    /// [`FaultLog::with_origin`].
    pub fn with_origin(mut self, origin: Instant) -> Self {
        self.log = std::mem::take(&mut self.log).with_origin(origin);
        self
    }

    /// Starts this context's sequence numbering at `base`; see
    /// [`FaultLog::with_seq_base`].
    pub fn with_seq_base(mut self, base: u64) -> Self {
        self.log = std::mem::take(&mut self.log).with_seq_base(base);
        self
    }

    /// Probes the injection plan (no-op without one).
    pub fn fire(&self, site: FaultSite) -> bool {
        self.plan.is_some_and(|p| p.fire(site))
    }

    /// Appends to the fault log and mirrors the record into the obs
    /// pipeline (fault event + flight-recorder dump).
    pub fn record(
        &mut self,
        phase: &'static str,
        fault: FaultKind,
        action: RecoveryAction,
        detail: impl Into<String>,
    ) {
        let detail = detail.into();
        let seq = self.log.record(phase, fault, action, detail.clone());
        emit_fault(&self.obs, seq, phase, fault, action, &detail);
    }

    /// Polls the phase deadline at a safe point (counts the poll).
    pub fn out_of_time(&self) -> bool {
        self.deadline.expired()
    }

    /// The fault class an observed expiry should be logged as: external
    /// cancellation (or an armed trip) is [`FaultKind::Cancelled`], a
    /// wall-clock expiry is [`FaultKind::PhaseTimeout`].
    pub fn interrupt_kind(&self) -> FaultKind {
        match self.deadline.trigger() {
            Some("cancel") => FaultKind::Cancelled,
            _ => FaultKind::PhaseTimeout,
        }
    }

    /// Records an observed interruption: one fault-log record with the
    /// rollback/degrade action taken, plus the cancellation-latency
    /// metrics (`cancel.ack.ms` histogram, `cancel.interrupts.{phase}`
    /// counter).
    pub fn record_interrupt(
        &mut self,
        phase: &'static str,
        action: RecoveryAction,
        detail: impl Into<String>,
    ) {
        let kind = self.interrupt_kind();
        self.record(phase, kind, action, detail);
        if let Some(ms) = self.deadline.ack_latency_ms() {
            self.obs.observe("cancel.ack.ms", ms);
        }
        self.obs.count(&format!("cancel.interrupts.{phase}"), 1);
    }
}

/// Emits one absorbed fault through the obs pipeline: an `Error`-level
/// fault event carrying the fault-log sequence number, followed by a
/// flight-recorder dump. Used by [`FaultCtx::record`] and by flow-level
/// code that appends directly to the flow [`FaultLog`].
pub fn emit_fault(
    obs: &Obs,
    seq: u64,
    phase: &'static str,
    fault: FaultKind,
    action: RecoveryAction,
    detail: &str,
) {
    if obs.enabled() {
        obs.fault(
            &fault.to_string(),
            seq,
            vec![
                kv("phase", phase),
                kv("action", action.to_string()),
                kv("detail", detail),
            ],
        );
        obs.count("fault.absorbed", 1);
    }
}

// ---------------------------------------------------------------------
// Transactions and checkpoints
// ---------------------------------------------------------------------

/// An in-memory snapshot transaction around a sweep or batch: `begin`
/// before mutating, then either `commit` (drop the snapshot) or
/// `rollback` (restore the exact pre-transaction tree, node ids
/// included).
#[derive(Debug, Clone)]
pub struct TreeTxn {
    snapshot: ClockTree,
}

impl TreeTxn {
    /// Snapshots `tree`.
    pub fn begin(tree: &ClockTree) -> Self {
        TreeTxn {
            snapshot: tree.clone(),
        }
    }

    /// The pre-transaction tree.
    pub fn snapshot(&self) -> &ClockTree {
        &self.snapshot
    }

    /// Restores `tree` to the snapshot, consuming the transaction.
    pub fn rollback(self, tree: &mut ClockTree) {
        *tree = self.snapshot;
    }

    /// Accepts the mutations; the snapshot is dropped.
    pub fn commit(self) {}
}

/// A serialized best-so-far tree, persisted through the `.ctree` round
/// trip (the flow's save format). Budget-bounded phases capture one per
/// accepted improvement and restore the latest when they run out of
/// time mid-mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    text: String,
}

impl Checkpoint {
    /// Serializes `tree`.
    pub fn capture(tree: &ClockTree, lib: &Library) -> Self {
        Checkpoint {
            text: write_ctree(tree, lib),
        }
    }

    /// The serialized form.
    pub fn as_text(&self) -> &str {
        &self.text
    }

    /// Deserializes the checkpointed tree (node ids are remapped by the
    /// round trip; structure, cells, locations, routes and sink pairs
    /// are preserved).
    ///
    /// # Errors
    ///
    /// [`FlowError::Ctree`] if the text fails to parse (never for a
    /// checkpoint captured from a valid tree with the same library).
    pub fn restore(&self, lib: &Library) -> Result<ClockTree, FlowError> {
        parse_ctree(&self.text, lib).map_err(|e| FlowError::Ctree(e.to_string()))
    }

    /// Whether `tree` serializes byte-identically to this checkpoint.
    pub fn matches(&self, tree: &ClockTree, lib: &Library) -> bool {
        write_ctree(tree, lib) == self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_liberty::StdCorners;

    #[test]
    fn error_display_and_from() {
        let e: FlowError = LpError::Infeasible.into();
        assert!(e.to_string().contains("infeasible"));
        let e: FlowError = TimingError::MissingRoute(clk_netlist::NodeId(3)).into();
        assert!(e.to_string().contains("route"));
        let e = FlowError::MissingArtifact("stage LUTs");
        assert!(e.to_string().contains("stage LUTs"));
    }

    #[test]
    fn fault_plan_is_deterministic_and_bounded() {
        for seed in [1u64, 7, 42, 1234] {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            for site in FaultSite::ALL {
                let mut fires_a = Vec::new();
                let mut fires_b = Vec::new();
                for i in 0..10 {
                    if a.fire(site) {
                        fires_a.push(i);
                    }
                    if b.fire(site) {
                        fires_b.push(i);
                    }
                }
                assert_eq!(fires_a, fires_b, "seed {seed} site {site} diverged");
                assert_eq!(fires_a.len(), 1, "one shot per site");
            }
            assert_eq!(a.injected().len(), 4);
        }
    }

    #[test]
    fn inert_plan_never_fires_until_armed() {
        let p = FaultPlan::inert(9);
        assert!(!p.fire(FaultSite::InfeasibleLp));
        p.arm(FaultSite::InfeasibleLp, 1, 2);
        assert!(!p.fire(FaultSite::InfeasibleLp)); // skipped once
        assert!(p.fire(FaultSite::InfeasibleLp));
        assert!(p.fire(FaultSite::InfeasibleLp));
        assert!(!p.fire(FaultSite::InfeasibleLp)); // out of shots
        assert_eq!(p.injected(), vec![FaultSite::InfeasibleLp; 2]);
    }

    #[test]
    fn fault_log_records_and_renders() {
        let mut log = FaultLog::new();
        log.record(
            "global",
            FaultKind::LpFailure,
            RecoveryAction::Retry,
            "lambda 0.1: infeasible",
        );
        log.record(
            "local",
            FaultKind::WorkerPanic,
            RecoveryAction::Skip,
            "candidate 3",
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.of_kind(FaultKind::LpFailure).count(), 1);
        let text = log.to_text();
        assert!(text.contains("[global] lp-failure -> retry"), "{text}");
        assert!(text.contains("[local] worker-panic -> skip"), "{text}");
        // seq stamps are monotonic and elapsed stamps non-negative
        assert_eq!(log.records()[0].seq, 0);
        assert_eq!(log.records()[1].seq, 1);
        assert!(log.records().iter().all(|r| r.elapsed_ms >= 0.0));
    }

    #[test]
    fn seq_base_keeps_absorbed_logs_globally_monotonic() {
        let origin = clk_obs::wall_now();
        let mut flow = FaultLog::new().with_origin(origin);
        flow.record("flow", FaultKind::PhaseError, RecoveryAction::Skip, "a");
        let mut phase = FaultLog::new()
            .with_origin(origin)
            .with_seq_base(flow.next_seq());
        phase.record("global", FaultKind::LpFailure, RecoveryAction::Retry, "b");
        phase.record("global", FaultKind::LpFailure, RecoveryAction::Degrade, "c");
        flow.absorb(phase);
        let seqs: Vec<u64> = flow.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(flow.next_seq(), 3);
    }

    #[test]
    fn ctx_record_mirrors_into_obs() {
        use clk_obs::{Level, ObsConfig, SharedBuf};
        let obs = Obs::new(ObsConfig::default());
        let buf = SharedBuf::new();
        obs.add_jsonl_buffer(&buf);
        let mut ctx = FaultCtx::passive().with_obs(obs.clone()).with_seq_base(5);
        let _ = Level::Error; // keep the import honest
        ctx.record(
            "global",
            FaultKind::LpFailure,
            RecoveryAction::Retry,
            "injected",
        );
        obs.flush();
        assert_eq!(ctx.log.records()[0].seq, 5);
        let text = buf.contents();
        assert!(text.contains("\"fault\""), "{text}");
        assert!(text.contains("\"fault_seq\":5"), "{text}");
        assert!(text.contains("\"flight_dump\""), "{text}");
        assert_eq!(obs.flight_dumps().len(), 1);
    }

    #[test]
    fn txn_rollback_restores_bytes() {
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let x8 = lib.cell_by_name("CLKINV_X8").expect("exists");
        let mut tree = ClockTree::new(clk_geom::Point::new(0, 0), x8);
        let b = tree.add_node(
            clk_netlist::NodeKind::Buffer(x8),
            clk_geom::Point::new(50_000, 0),
            tree.root(),
        );
        tree.add_node(
            clk_netlist::NodeKind::Sink,
            clk_geom::Point::new(90_000, 10_000),
            b,
        );
        let before = write_ctree(&tree, &lib);
        let txn = TreeTxn::begin(&tree);
        tree.add_node(
            clk_netlist::NodeKind::Buffer(x8),
            clk_geom::Point::new(10_000, 10_000),
            b,
        );
        assert_ne!(write_ctree(&tree, &lib), before);
        txn.rollback(&mut tree);
        assert_eq!(write_ctree(&tree, &lib), before);
    }

    #[test]
    fn checkpoint_round_trips() {
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let x8 = lib.cell_by_name("CLKINV_X8").expect("exists");
        let mut tree = ClockTree::new(clk_geom::Point::new(0, 0), x8);
        let b = tree.add_node(
            clk_netlist::NodeKind::Buffer(x8),
            clk_geom::Point::new(40_000, 0),
            tree.root(),
        );
        tree.add_node(
            clk_netlist::NodeKind::Sink,
            clk_geom::Point::new(80_000, 0),
            b,
        );
        let cp = Checkpoint::capture(&tree, &lib);
        assert!(cp.matches(&tree, &lib));
        let back = cp.restore(&lib).expect("round trip");
        assert_eq!(back.sinks().count(), 1);
        assert!(cp.matches(&back, &lib), "round trip is stable");
    }

    #[test]
    fn budget_clamps_and_deadlines() {
        let b = PhaseBudget {
            wall_clock: Some(Duration::from_millis(5)),
            max_iterations: Some(2),
        };
        assert_eq!(b.clamp_iterations(10), 2);
        assert_eq!(PhaseBudget::unlimited().clamp_iterations(10), 10);
        let start = clk_obs::wall_now();
        let dl = b.deadline(start, None);
        assert!(dl.is_active());
        assert!(dl.wall().expect("bounded") > start);
        // a deadline already in the past expires on the first poll
        let ctx = FaultCtx::new(None, Deadline::at(start));
        assert!(ctx.out_of_time());
        assert!(!FaultCtx::passive().out_of_time());
        // an unbounded budget without a token is inert
        assert!(!PhaseBudget::unlimited().deadline(start, None).is_active());
    }

    #[test]
    fn budget_deadline_carries_the_cancel_token() {
        let tok = CancelToken::new();
        let dl = PhaseBudget::unlimited().deadline(clk_obs::wall_now(), Some(&tok));
        let mut ctx = FaultCtx::new(None, dl);
        assert!(!ctx.out_of_time());
        tok.cancel();
        assert!(ctx.out_of_time());
        assert_eq!(ctx.interrupt_kind(), FaultKind::Cancelled);
        ctx.record_interrupt("global", RecoveryAction::Rollback, "test cut");
        assert_eq!(ctx.log.of_kind(FaultKind::Cancelled).count(), 1);
    }

    #[test]
    fn wall_expiry_is_a_phase_timeout() {
        let ctx = FaultCtx::new(None, Deadline::at(clk_obs::wall_now()));
        assert!(ctx.out_of_time());
        assert_eq!(ctx.interrupt_kind(), FaultKind::PhaseTimeout);
    }

    #[test]
    fn progress_markers_render() {
        let p = PhaseProgress::complete("global", 2, 2);
        assert_eq!(p.to_string(), "global: 2/2");
        let p = PhaseProgress::interrupted("local", 1, 6, Some("cancel"));
        assert!(p.interrupted);
        assert_eq!(p.to_string(), "local: 1/6 (cut: cancel)");
    }
}
