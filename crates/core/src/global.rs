//! Global optimization (paper §4.1): the LP of Eqs. (4)–(11) over per-arc
//! delay changes, and the LP-guided ECO of Algorithm 1.
//!
//! The paper minimizes `Σ|Δ|` subject to `Σ V ≤ U` and sweeps the bound
//! `U`. We solve the Lagrangian-equivalent scalarization
//! `min Σ V + λ·Σ|Δ|` and sweep `λ` — the same Pareto frontier, but every
//! sweep point starts feasible (`Δ = 0`), which keeps the in-tree simplex
//! solver in its well-conditioned regime (DESIGN.md §4). Each sweep point
//! is realized with the ECO engine and evaluated with the golden timer;
//! the best realizable point wins, subject to the paper's constraints
//! (7)–(8): no local-skew degradation at any corner.

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use clk_liberty::{CellId, CornerId, Library};
use clk_lp::{Certified, Lp, LpError, Problem, RowKind, Solution, VarId};
use clk_netlist::{
    Arc, ArcId, ArcSet, Checkpoint, ClockTree, Floorplan, NodeId, NodeKind, SinkPair,
};
use clk_obs::{kv, Deadline, LedgerRecord, Level, Obs};
use clk_route::RoutePath;
use clk_sta::{
    alpha_factors, arc_delays_ps, local_skew_ps, pair_skews, pair_skews_into, try_pair_skews,
    variation_report, CornerTiming, Timer, TimingUndo,
};

use crate::fault::{
    FaultCtx, FaultKind, FaultSite, FlowError, PhaseBudget, PhaseProgress, RecoveryAction,
};
use crate::lut::{fit_ratio_bounds, ratio_scatter, ArcEstimator, RatioBounds, StageLuts};

/// Global-optimization knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConfig {
    /// Optimize the `max_pairs` sink pairs with the largest current
    /// variation (the paper optimizes the top-critical pairs).
    pub max_pairs: usize,
    /// Constraint (10) upper bound: `D + Δ ≤ β·D`.
    pub beta: f64,
    /// Constraint (9): `D_max` = this × current max latency per corner.
    pub latency_slack: f64,
    /// The λ sweep of the scalarized objective (ascending; small λ pushes
    /// harder on variation at the cost of more ECO delay change).
    pub lambdas: Vec<f64>,
    /// Arcs whose worst-corner |Δ| is below this are left untouched, ps.
    pub delta_threshold_ps: f64,
    /// Longest permitted U-shape detour per arc, µm.
    pub max_detour_um: f64,
    /// Widening margin of the Fig. 2 ratio corridor.
    pub ratio_margin: f64,
    /// Acceptance: local skew may not grow by more than this factor…
    pub skew_guard_factor: f64,
    /// …plus this absolute allowance, ps (ECO discreteness).
    pub skew_guard_ps: f64,
    /// Per-arc fidelity gate: a rebuild is kept when its realized delay
    /// change is within `frac · ‖target‖₁ + abs` of the LP target (or the
    /// variation sum improves outright).
    pub fidelity_tol_frac: f64,
    /// Absolute part of the fidelity gate, ps per corner.
    pub fidelity_tol_ps: f64,
    /// Weight of the ECO search's uncertainty penalty (per ps of
    /// estimated configuration change).
    pub eco_uncertainty_frac: f64,
    /// Number of solve→ECO→re-time rounds (the framework is incremental;
    /// each round re-targets the arcs the previous ECO realized
    /// imperfectly).
    pub rounds: usize,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            max_pairs: 120,
            beta: 1.2,
            latency_slack: 1.08,
            lambdas: vec![0.02, 0.1, 0.4],
            delta_threshold_ps: 0.8,
            max_detour_um: 400.0,
            ratio_margin: 0.05,
            skew_guard_factor: 1.02,
            skew_guard_ps: 2.0,
            fidelity_tol_frac: 0.5,
            fidelity_tol_ps: 2.0,
            eco_uncertainty_frac: 0.25,
            rounds: 3,
        }
    }
}

/// Outcome of one λ sweep point (diagnostics + the U-sweep curve).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The λ of this point.
    pub lambda: f64,
    /// LP objective value (`ΣV + λ·Σ|Δ|`).
    pub lp_objective: f64,
    /// Sum of |Δ| the LP asked for, ps.
    pub lp_total_delta: f64,
    /// Arcs the ECO rebuilt for this point.
    pub arcs_changed: usize,
    /// Golden variation sum after the trial ECO (None: LP failed or no
    /// arc crossed the change threshold).
    pub variation_after: Option<f64>,
    /// Whether the point survived the local-skew guard and improved.
    pub accepted: bool,
}

/// Outcome of the global optimization.
#[derive(Debug, Clone)]
pub struct GlobalReport {
    /// Sum of normalized skew variation before, ps.
    pub variation_before: f64,
    /// Sum after the accepted ECO, ps.
    pub variation_after: f64,
    /// λ of the accepted sweep point (`None` when no point was accepted).
    pub lambda_used: Option<f64>,
    /// Arcs rebuilt by the accepted ECO.
    pub arcs_changed: usize,
    /// Simplex pivots spent across the sweep.
    pub lp_iterations: usize,
    /// Per-λ details of the sweep.
    pub sweep: Vec<SweepPoint>,
}

/// Per-arc LP variables.
#[derive(Clone)]
struct ArcVars {
    /// `(pos, neg)` per corner.
    delta: Vec<(VarId, VarId)>,
}

/// A solved sweep point: the LP solution plus the per-arc variable map
/// needed to read the Δ targets back out.
type SolvedPoint = (Solution, BTreeMap<ArcId, ArcVars>);

/// What every build of one round's LP is made from.
#[derive(Clone, Copy)]
struct LpInputs<'a> {
    tree: &'a ClockTree,
    lib: &'a Library,
    luts: &'a StageLuts,
    arcs: &'a ArcSet,
    arc_d: &'a [Vec<f64>],
    timings: &'a [CornerTiming],
    sel_pairs: &'a [SinkPair],
    path_of: &'a BTreeMap<NodeId, Vec<ArcId>>,
    involved: &'a [ArcId],
    alphas: &'a [f64],
    bounds: &'a [Option<RatioBounds>],
    cfg: &'a GlobalConfig,
}

/// A round's as-configured LP (rung "none"), built once and re-priced
/// for each λ point; each solve after the first optimal one starts from
/// the previous optimal basis.
struct RoundLp {
    lp: Lp,
    vars: BTreeMap<ArcId, ArcVars>,
}

impl RoundLp {
    /// Sets every Δ cost to `lambda`; the V costs stay 1.
    fn price(&mut self, lambda: f64) -> Result<(), LpError> {
        for &(pos, neg) in self.vars.values().flat_map(|av| av.delta.iter()) {
            self.lp.set_cost(pos, lambda)?;
            self.lp.set_cost(neg, lambda)?;
        }
        Ok(())
    }
}

/// Runs the global optimization and returns the optimized tree plus a
/// report. The input tree is not modified.
///
/// Runs up to [`GlobalConfig::rounds`] solve→ECO→re-time rounds and stops
/// early when a round yields < 0.2% additional reduction.
pub fn global_optimize(
    tree: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    cfg: &GlobalConfig,
) -> (ClockTree, GlobalReport) {
    global_optimize_guarded(tree, lib, fp, luts, cfg, None)
}

/// [`global_optimize`] with an explicit local-skew guard baseline
/// (ps per corner). `None` computes the baseline once from the input
/// tree, for every round; flows pass the *original* tree's skews so
/// that multi-phase guards do not compound.
///
/// # Panics
///
/// Panics if the incoming tree cannot be timed; use
/// [`global_optimize_checked`] for a typed error instead.
pub fn global_optimize_guarded(
    tree: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    cfg: &GlobalConfig,
    guard_baseline: Option<&[f64]>,
) -> (ClockTree, GlobalReport) {
    let mut ctx = FaultCtx::passive();
    match global_optimize_checked(
        tree,
        lib,
        fp,
        luts,
        cfg,
        guard_baseline,
        &mut ctx,
        &PhaseBudget::unlimited(),
    ) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// The checked core of the global phase: runs under a fault context
/// (injection plan, fault log, deadline) and a phase budget, returning
/// typed errors instead of panicking.
///
/// Robustness properties:
///
/// * every LP solve goes through the retry/degradation ladder of
///   [`solve_with_ladder`] — a sweep point is only abandoned after
///   relaxed guardbands and a corridor-free formulation both fail;
/// * each trial ECO runs on a clone under `catch_unwind`, so a panic in
///   the ECO engine rolls the sweep point back instead of killing the
///   flow;
/// * non-finite arc delays are detected before the LP sees them
///   (recomputed once, then frozen out of the formulation);
/// * the first round always runs; the wall-clock budget short-circuits
///   later rounds with the best-so-far tree.
///
/// # Errors
///
/// [`FlowError::Timing`] when the *incoming* tree cannot be timed —
/// everything downstream of that baseline is absorbed and degraded.
#[allow(clippy::too_many_arguments)]
pub fn global_optimize_checked(
    tree: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    cfg: &GlobalConfig,
    guard_baseline: Option<&[f64]>,
    ctx: &mut FaultCtx<'_>,
    budget: &PhaseBudget,
) -> Result<(ClockTree, GlobalReport), FlowError> {
    // without an explicit baseline every round is guarded against the
    // input tree's local skew, so the rounds' allowances do not compound
    let own_baseline: Vec<f64>;
    let guard_baseline = match guard_baseline {
        Some(b) => b,
        None => {
            let timings = Timer::golden().try_analyze_all(tree, lib)?;
            own_baseline = timings
                .iter()
                .map(|t| try_pair_skews(t, tree.sink_pairs()).map(|s| local_skew_ps(&s)))
                .collect::<Result<_, _>>()?;
            &own_baseline
        }
    };
    let mut current = tree.clone();
    let mut total: Option<GlobalReport> = None;
    let obs = ctx.obs.clone();
    let rounds = budget.clamp_iterations(cfg.rounds.max(1)).max(1);
    if rounds < cfg.rounds.max(1) {
        ctx.record(
            "global",
            FaultKind::IterationBudget,
            RecoveryAction::Degrade,
            format!("rounds capped {} -> {rounds}", cfg.rounds.max(1)),
        );
    }
    let bounds = ratio_corridors(luts, lib.corner_count(), cfg.ratio_margin);
    let mut rounds_done = 0usize;
    let mut cut: Option<Option<&'static str>> = None;
    for round in 0..rounds {
        if ctx.out_of_time() {
            cut = Some(ctx.deadline.trigger());
            ctx.record_interrupt(
                "global",
                RecoveryAction::Degrade,
                format!("deadline cut before round {round} of {rounds}; returning best-so-far"),
            );
            break;
        }
        let mut round_span = obs.span_at(
            Level::Debug,
            "global.round",
            vec![kv("round", round as u64)],
        );
        let (next, rep) = match global_round(
            &current,
            lib,
            fp,
            luts,
            &bounds,
            cfg,
            guard_baseline,
            ctx,
            round,
        ) {
            Ok(r) => r,
            // a cut mid-round discards only that round's uncommitted
            // trial; the last committed tree stays the result
            Err(e) if e.is_interrupt() => {
                cut = Some(ctx.deadline.trigger());
                ctx.record_interrupt(
                    "global",
                    RecoveryAction::Rollback,
                    format!("round {round} cut mid-flight ({e}); trial discarded, returning best-so-far"),
                );
                round_span.record("outcome", "interrupted");
                drop(round_span);
                break;
            }
            Err(e) => return Err(e),
        };
        obs.count("global.rounds", 1);
        round_span.record("variation_before", rep.variation_before);
        round_span.record("variation_after", rep.variation_after);
        round_span.record("arcs_changed", rep.arcs_changed as u64);
        round_span.record("lp_iterations", rep.lp_iterations as u64);
        drop(round_span);
        let gained = rep.variation_before - rep.variation_after;
        let enough = gained > 0.002 * rep.variation_before;
        match &mut total {
            None => total = Some(rep),
            Some(t) => {
                t.variation_after = rep.variation_after;
                t.arcs_changed += rep.arcs_changed;
                t.lp_iterations += rep.lp_iterations;
                t.sweep.extend(rep.sweep);
                if t.lambda_used.is_none() {
                    t.lambda_used = rep.lambda_used;
                }
            }
        }
        current = next;
        rounds_done += 1;
        // a round cut mid-λ-sweep returns its committed best-so-far; the
        // re-poll here turns the quiet break into a recorded interrupt
        if ctx.out_of_time() {
            cut = Some(ctx.deadline.trigger());
            ctx.record_interrupt(
                "global",
                RecoveryAction::Degrade,
                format!(
                    "deadline cut after {} of {rounds} rounds; returning best-so-far",
                    round + 1
                ),
            );
            break;
        }
        if !enough {
            break;
        }
    }
    ctx.progress = Some(match cut {
        Some(trigger) => PhaseProgress::interrupted("global", rounds_done, rounds, trigger),
        None => PhaseProgress::complete("global", rounds_done, rounds),
    });
    let Some(report) = total else {
        // only reachable when the deadline cut the flow before round 0
        // finished — there is no baseline global result to fall back to
        return Err(FlowError::Interrupted { phase: "global" });
    };
    Ok((current, report))
}

/// The cross-corner ratio corridors (corner `k` vs corner 0; `None` for
/// corner 0), fitted from the stage LUTs. They depend only on `luts` and
/// `margin`, so a run fits them once.
fn ratio_corridors(luts: &StageLuts, n_corners: usize, margin: f64) -> Vec<Option<RatioBounds>> {
    (0..n_corners)
        .map(|k| {
            (k != 0)
                .then(|| fit_ratio_bounds(&ratio_scatter(luts, CornerId(k), CornerId(0)), margin))
        })
        .collect()
}

/// One solve→ECO→verify round of the global optimization; `bounds` are
/// the run's [`ratio_corridors`].
#[allow(clippy::too_many_arguments)]
fn global_round(
    tree: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    bounds: &[Option<RatioBounds>],
    cfg: &GlobalConfig,
    guard_baseline: &[f64],
    ctx: &mut FaultCtx<'_>,
    round: usize,
) -> Result<(ClockTree, GlobalReport), FlowError> {
    // the round runs single-threaded, so its golden timer can observe
    // the phase deadline directly (workers inside `execute_eco` re-time
    // deterministically without one)
    let timer = Timer::golden().with_deadline(ctx.deadline.clone());
    let timings: Vec<CornerTiming> = timer.try_analyze_all(tree, lib)?;
    let arcs = ArcSet::extract(tree);
    let mut arc_d: Vec<Vec<f64>> = timings
        .iter()
        .map(|t| arc_delays_ps(tree, &arcs, t))
        .collect();
    if ctx.fire(FaultSite::NanArcDelay) {
        if let Some(v) = arc_d.first_mut().and_then(|row| row.first_mut()) {
            *v = f64::NAN;
        }
    }
    if arc_d.iter().flatten().any(|v| !v.is_finite()) {
        ctx.record(
            "global",
            FaultKind::NanArcDelay,
            RecoveryAction::Retry,
            "non-finite arc delay detected; recomputing from the timed tree",
        );
        arc_d = timings
            .iter()
            .map(|t| arc_delays_ps(tree, &arcs, t))
            .collect();
        // arcs that are *still* non-finite are frozen by build_problem
    }

    // skews + alphas over *all* pairs (alphas are an input parameter fixed
    // before optimization, per the paper)
    let all_pairs = tree.sink_pairs().to_vec();
    let per_corner_skews: Vec<Vec<f64>> = timings
        .iter()
        .map(|t| try_pair_skews(t, &all_pairs))
        .collect::<Result<_, _>>()?;
    let alphas = alpha_factors(&per_corner_skews);
    let before_report = variation_report(&per_corner_skews, &alphas, None);
    let variation_before = before_report.sum;

    // top-variation pair selection
    let mut order: Vec<usize> = (0..all_pairs.len()).collect();
    order.sort_by(|&a, &b| before_report.per_pair[b].total_cmp(&before_report.per_pair[a]));
    order.truncate(cfg.max_pairs);
    let sel_pairs: Vec<SinkPair> = order.iter().map(|&i| all_pairs[i]).collect();

    // per-sink arc paths and the involved-arc set; path_of is a BTreeMap
    // because its iteration order becomes the LP's row-(9) order
    let mut path_of: BTreeMap<NodeId, Vec<ArcId>> = BTreeMap::new();
    let mut involved_set: HashSet<ArcId> = HashSet::new();
    for p in &sel_pairs {
        for s in [p.a, p.b] {
            let path = path_of
                .entry(s)
                .or_insert_with(|| arcs.path_arcs(tree, s))
                .clone();
            involved_set.extend(path);
        }
    }
    let involved: Vec<ArcId> = {
        let mut v: Vec<ArcId> = involved_set.into_iter().collect();
        v.sort_unstable();
        v
    };

    let inputs = LpInputs {
        tree,
        lib,
        luts,
        arcs: &arcs,
        arc_d: &arc_d,
        timings: &timings,
        sel_pairs: &sel_pairs,
        path_of: &path_of,
        involved: &involved,
        alphas: &alphas,
        bounds,
        cfg,
    };
    // built by the first λ point that reaches the ladder, dropped with
    // the round
    let mut round_lp: Option<Result<RoundLp, LpError>> = None;
    let mut best: Option<(ClockTree, f64, f64, usize, Option<f64>)> = None;
    let mut lp_iterations = 0usize;
    let mut sweep = Vec::with_capacity(cfg.lambdas.len());

    let obs = ctx.obs.clone();
    // decision-ledger checkpoints are evaluated under the flow's
    // init-time alphas (α*, published via the ledger) so committed
    // deltas telescope across rounds; the round's own `alphas` still
    // drive every accept decision unchanged
    let ledger = obs.ledger();
    let star_owned = ledger.alphas();
    let round_u = round as u64;
    let star: Option<&[f64]> = ledger
        .is_enabled()
        .then(|| star_owned.as_deref().unwrap_or(&alphas));
    let var_star_before = star.map(|sa| variation_report(&per_corner_skews, sa, None).sum);
    if let Some(vs) = var_star_before {
        obs.ledger_append(LedgerRecord::RoundStart {
            round: round_u,
            var: vs,
        });
    }
    for &lambda in &cfg.lambdas {
        // cut mid-sweep: keep the best already-realized λ point; the
        // caller re-polls and records the interruption
        if ctx.out_of_time() {
            break;
        }
        let mut lambda_span =
            obs.span_at(Level::Debug, "global.lambda", vec![kv("lambda", lambda)]);
        let mut point = SweepPoint {
            lambda,
            lp_objective: f64::NAN,
            lp_total_delta: 0.0,
            arcs_changed: 0,
            variation_after: None,
            accepted: false,
        };
        let solved = match solve_with_ladder(&inputs, &mut round_lp, lambda, ctx) {
            Ok(s) => s,
            // an interrupted solve carries no certificate: drop this λ
            // point, keep the sweep's best-so-far, stop sweeping
            Err(e) if e.is_interrupt() => {
                lambda_span.record("outcome", "interrupted");
                ledger_lambda(&obs, round_u, &point, "interrupted", None);
                sweep.push(point);
                break;
            }
            Err(e) => return Err(e),
        };
        let Some(((solution, vars), rung)) = solved else {
            lambda_span.record("outcome", "lp_skipped");
            ledger_lambda(&obs, round_u, &point, "skipped", None);
            sweep.push(point);
            continue;
        };
        lp_iterations += solution.iterations;
        lambda_span.record("lp_iterations", solution.iterations as u64);
        lambda_span.record("lp_objective", solution.objective);
        point.lp_objective = solution.objective;
        point.lp_total_delta = vars
            .values()
            .flat_map(|av| av.delta.iter())
            .map(|&(p, n)| {
                solution.value(p).unwrap_or(f64::NAN) + solution.value(n).unwrap_or(f64::NAN)
            })
            .sum();

        // realize with the ECO engine on a clone, arc by arc with golden
        // accept/rollback (see `execute_eco`); the whole trial sweep is
        // panic-isolated — the clone is simply discarded on unwind, the
        // committed tree is never touched
        let deadline = ctx.deadline.clone();
        let eco = catch_unwind(AssertUnwindSafe(|| {
            let _eco_prof = obs.prof_scope("global.eco");
            let mut trial = tree.clone();
            let (changed, after, star_after) = execute_eco(
                &mut trial,
                lib,
                fp,
                luts,
                &arcs,
                &arc_d,
                &timings,
                &involved,
                &vars,
                &solution,
                &all_pairs,
                &alphas,
                guard_baseline,
                variation_before,
                cfg,
                &obs,
                &deadline,
                round,
                lambda,
                star,
                var_star_before,
            );
            (trial, changed, after, star_after)
        }));
        let Ok((trial, changed, after, star_after)) = eco else {
            ctx.record(
                "global",
                FaultKind::EcoPanic,
                RecoveryAction::Rollback,
                format!("ECO sweep at lambda {lambda} panicked; trial discarded"),
            );
            lambda_span.record("outcome", "eco_panic");
            ledger_lambda(&obs, round_u, &point, rung, None);
            sweep.push(point);
            continue;
        };
        point.arcs_changed = changed;
        lambda_span.record("arcs_changed", changed as u64);
        if changed == 0 {
            lambda_span.record("outcome", "no_change");
            ledger_lambda(&obs, round_u, &point, rung, star_after);
            sweep.push(point);
            continue;
        }
        if let Err(e) = trial.validate() {
            ctx.record(
                "global",
                FaultKind::PhaseError,
                RecoveryAction::Rollback,
                format!("trial ECO at lambda {lambda} broke tree invariants ({e}); discarded"),
            );
            lambda_span.record("outcome", "invalid_tree");
            ledger_lambda(&obs, round_u, &point, rung, None);
            sweep.push(point);
            continue;
        }
        #[cfg(debug_assertions)]
        {
            let lint = clk_lint::LintRunner::structural()
                .run(&clk_lint::DesignCtx::with_floorplan(&trial, lib, fp));
            if lint.has_errors() {
                ctx.record(
                    "global",
                    FaultKind::PhaseError,
                    RecoveryAction::Rollback,
                    format!(
                        "trial ECO at lambda {lambda} failed structural lint; discarded:\n{}",
                        lint.to_text()
                    ),
                );
                lambda_span.record("outcome", "lint_reject");
                ledger_lambda(&obs, round_u, &point, rung, None);
                sweep.push(point);
                continue;
            }
        }
        point.variation_after = Some(after);
        lambda_span.record("variation_after", after);
        if after < variation_before && best.as_ref().is_none_or(|&(_, v, _, _, _)| after < v) {
            point.accepted = true;
            best = Some((trial, after, lambda, changed, star_after));
        }
        lambda_span.record(
            "outcome",
            if point.accepted {
                "accepted"
            } else {
                "rejected"
            },
        );
        ledger_lambda(&obs, round_u, &point, rung, star_after);
        sweep.push(point);
    }

    if ledger.is_enabled() {
        let fallback = var_star_before.unwrap_or(variation_before);
        let (winner_lambda, adopted, var) = match &best {
            Some((_, _, lambda, _, star_after)) => {
                (Some(*lambda), true, star_after.unwrap_or(fallback))
            }
            None => (None, false, fallback),
        };
        obs.ledger_append(LedgerRecord::RoundEnd {
            round: round_u,
            winner_lambda,
            adopted,
            var,
        });
    }
    Ok(match best {
        Some((t, after, lambda, changed, _)) => (
            t,
            GlobalReport {
                variation_before,
                variation_after: after,
                lambda_used: Some(lambda),
                arcs_changed: changed,
                lp_iterations,
                sweep,
            },
        ),
        None => (
            tree.clone(),
            GlobalReport {
                variation_before,
                variation_after: variation_before,
                lambda_used: None,
                arcs_changed: 0,
                lp_iterations,
                sweep,
            },
        ),
    })
}

/// Appends one λ-trial summary to the decision ledger. `rung` is the
/// retry-ladder rung the solve landed on; a solved point always passed
/// exact certificate verification (`cert: "ok"`), an unsolved one has
/// no certificate to report.
fn ledger_lambda(obs: &Obs, round: u64, point: &SweepPoint, rung: &str, var_star: Option<f64>) {
    if !obs.ledgering() {
        return;
    }
    let solved = point.lp_objective.is_finite();
    obs.ledger_append(LedgerRecord::Lambda {
        round,
        lambda: point.lambda,
        rung: rung.to_string(),
        cert: if solved { "ok" } else { "none" }.to_string(),
        lp_objective: solved.then_some(point.lp_objective),
        arcs_changed: point.arcs_changed as u64,
        accepted: point.accepted,
        var: var_star,
    });
}

/// Which objective variant the LP is built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpObjective {
    /// `min ΣV + λ·Σ|Δ|` — the Lagrangian scalarization the flow sweeps.
    Scalarized(f64),
    /// The paper's literal Eqs. (4)–(5): `min Σ|Δ|` subject to `ΣV ≤ U`.
    UBound(f64),
}

/// Guardband relaxation applied along the LP retry/degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Relaxation {
    /// Additive widening of the Fig. 2 ratio corridor.
    ratio_widen: f64,
    /// Scale on the Eq. (10) delay-growth bound `β`.
    beta_scale: f64,
    /// Scale on the Eq. (9) latency slack.
    latency_slack_scale: f64,
    /// Drop the Eq. (11) corridor rows entirely (last formulation tried).
    drop_ratio_rows: bool,
}

impl Relaxation {
    /// The as-configured formulation.
    const NONE: Relaxation = Relaxation {
        ratio_widen: 0.0,
        beta_scale: 1.0,
        latency_slack_scale: 1.0,
        drop_ratio_rows: false,
    };
    /// First retry: widened guardbands.
    const RELAXED: Relaxation = Relaxation {
        ratio_widen: 0.10,
        beta_scale: 1.1,
        latency_slack_scale: 1.05,
        drop_ratio_rows: false,
    };
    /// Last resort: no cross-corner ratio corridor at all.
    const DEGRADED: Relaxation = Relaxation {
        ratio_widen: 0.0,
        beta_scale: 1.1,
        latency_slack_scale: 1.05,
        drop_ratio_rows: true,
    };
}

/// Why one rung of the LP ladder failed: the solver itself, or a solve
/// that *returned* but whose certificate failed exact re-verification.
enum LadderFault {
    Lp(LpError),
    Cert(FlowError),
}

impl std::fmt::Display for LadderFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LadderFault::Lp(e) => write!(f, "{e}"),
            LadderFault::Cert(e) => write!(f, "{e}"),
        }
    }
}

impl LadderFault {
    fn kind(&self) -> FaultKind {
        match self {
            LadderFault::Lp(_) => FaultKind::LpFailure,
            LadderFault::Cert(_) => FaultKind::CertViolation,
        }
    }
}

/// Re-verifies a solve's optimality certificate in exact arithmetic,
/// recording check latency, residual, and outcome counters under
/// `cert.*`.
///
/// # Errors
///
/// [`FlowError::CertViolation`] with the rendered violation list when
/// the certificate does not verify — the solution must not be used.
pub(crate) fn verify_certificate(
    p: &Problem,
    sol: &Solution,
    obs: &Obs,
    site: &str,
) -> Result<(), FlowError> {
    let t0 = clk_obs::wall_now();
    let report = clk_cert::check(p, sol);
    obs.count("cert.checks", 1);
    obs.observe("cert.check.ms", t0.elapsed().as_secs_f64() * 1e3);
    obs.observe("cert.max_resid", report.max_resid);
    if report.ok() {
        return Ok(());
    }
    obs.count("cert.violations", 1);
    let rendered = report
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    obs.event(
        Level::Warn,
        "cert.violation",
        vec![kv("site", site), kv("report", rendered.clone())],
    );
    Err(FlowError::CertViolation {
        site: site.to_owned(),
        report: rendered,
    })
}

/// The LP retry/degradation ladder: as-built → relaxed guardbands →
/// corridor-free formulation → skip the sweep point. Every rung is
/// recorded in the fault log; builder rejections (malformed models)
/// skip directly — re-solving an ill-posed model cannot help. A solve
/// whose certificate fails exact re-verification is treated like a
/// failed solve: the answer is discarded and the next rung runs.
///
/// The as-built rung solves the round's [`RoundLp`], built by the first
/// λ point that gets here and re-priced for each later one, so a later
/// point starts from the previous optimal basis. A warm solve that fails
/// or fails its certificate is re-solved cold on the same rung before the
/// ladder goes down. The relaxed and degraded rungs build and solve cold,
/// once per attempt.
///
/// # Errors
///
/// `Err` only for cooperative interruption
/// ([`LpError::Interrupted`], surfaced as [`FlowError::Lp`]): a
/// cancelled solve must not be retried on a lower rung — the ladder is
/// for *broken* solves, not abandoned ones. Every genuine failure
/// degrades to `Ok(None)` (skip the sweep point).
fn solve_with_ladder(
    inputs: &LpInputs<'_>,
    round_lp: &mut Option<Result<RoundLp, LpError>>,
    lambda: f64,
    ctx: &mut FaultCtx<'_>,
) -> Result<Option<(SolvedPoint, &'static str)>, FlowError> {
    let obs = ctx.obs.clone();
    let objective = LpObjective::Scalarized(lambda);
    let attempt = |relax: &Relaxation,
                   rung: &str,
                   ctx: &mut FaultCtx<'_>|
     -> Result<SolvedPoint, LadderFault> {
        let (p, vars) = build_problem(inputs, objective, relax, ctx).map_err(LadderFault::Lp)?;
        ctx.obs.count("global.lp_rows_built", p.num_rows() as u64);
        let sol =
            clk_lp::solve_with_deadline(&p, &ctx.obs, &ctx.deadline).map_err(LadderFault::Lp)?;
        let site = format!("{objective:?} rung={rung}");
        verify_certificate(&p, &sol, &ctx.obs, &site).map_err(LadderFault::Cert)?;
        Ok((sol, vars))
    };
    let rung_taken = |rung: &str| {
        obs.event(Level::Debug, "global.ladder", vec![kv("rung", rung)]);
        obs.count(&format!("global.ladder.{rung}"), 1);
    };
    let round = round_lp.get_or_insert_with(|| {
        let (p, vars) = build_problem(inputs, objective, &Relaxation::NONE, ctx)?;
        ctx.obs.count("global.lp_rows_built", p.num_rows() as u64);
        Ok(RoundLp {
            lp: Lp::new(p),
            vars,
        })
    });
    let as_built = match round {
        Ok(round) => solve_round_lp(round, lambda, ctx).map(|sol| (sol, round.vars.clone())),
        Err(e) => Err(LadderFault::Lp(e.clone())),
    };
    match as_built {
        Ok(r) => {
            rung_taken("none");
            return Ok(Some((r, "none")));
        }
        Err(LadderFault::Lp(LpError::Interrupted)) => {
            rung_taken("interrupted");
            return Err(FlowError::Lp(LpError::Interrupted));
        }
        Err(LadderFault::Lp(e @ (LpError::BadProblem(_) | LpError::UnknownTerm { .. }))) => {
            ctx.record(
                "global",
                FaultKind::LpFailure,
                RecoveryAction::Skip,
                format!("LP build rejected ({e}); skipping this sweep point"),
            );
            rung_taken("skipped");
            return Ok(None);
        }
        Err(e) => ctx.record(
            "global",
            e.kind(),
            RecoveryAction::Retry,
            format!("{e}; retrying with relaxed guardbands"),
        ),
    }
    match attempt(&Relaxation::RELAXED, "relaxed", ctx) {
        Ok(r) => {
            rung_taken("relaxed");
            return Ok(Some((r, "relaxed")));
        }
        Err(LadderFault::Lp(LpError::Interrupted)) => {
            rung_taken("interrupted");
            return Err(FlowError::Lp(LpError::Interrupted));
        }
        Err(e) => ctx.record(
            "global",
            e.kind(),
            RecoveryAction::Degrade,
            format!("{e} under relaxed guardbands; dropping ratio-corridor rows"),
        ),
    }
    match attempt(&Relaxation::DEGRADED, "degraded", ctx) {
        Ok(r) => {
            rung_taken("degraded");
            Ok(Some((r, "degraded")))
        }
        Err(LadderFault::Lp(LpError::Interrupted)) => {
            rung_taken("interrupted");
            Err(FlowError::Lp(LpError::Interrupted))
        }
        Err(e) => {
            ctx.record(
                "global",
                e.kind(),
                RecoveryAction::Skip,
                format!("{e} even without ratio rows; skipping this sweep point"),
            );
            rung_taken("skipped");
            Ok(None)
        }
    }
}

/// The as-built rung: prices the round's LP at `lambda` and solves it,
/// warm when the previous λ point left an optimal basis. A warm solve
/// that fails or fails its certificate counts as `lp.warm_fallbacks` and
/// is re-solved cold; any failure leaves the handle cold for the next λ.
/// Debug builds re-solve every certified warm point cold and assert that
/// both objectives agree within the certificate tolerance.
fn solve_round_lp(
    round: &mut RoundLp,
    lambda: f64,
    ctx: &mut FaultCtx<'_>,
) -> Result<Solution, LadderFault> {
    round.price(lambda).map_err(LadderFault::Lp)?;
    let site = format!("{:?} rung=none", LpObjective::Scalarized(lambda));
    let solve = |lp: &mut Lp, ctx: &FaultCtx<'_>| -> Result<Solution, LadderFault> {
        let sol = match lp.solve(&ctx.obs, &ctx.deadline) {
            Ok(Certified::Optimal(sol)) => sol,
            Ok(Certified::Infeasible { .. }) => return Err(LadderFault::Lp(LpError::Infeasible)),
            Err(e) => return Err(LadderFault::Lp(e)),
        };
        if let Err(e) = verify_certificate(lp.problem(), &sol, &ctx.obs, &site) {
            lp.discard_basis();
            return Err(LadderFault::Cert(e));
        }
        Ok(sol)
    };
    let warm = round.lp.is_warm();
    match solve(&mut round.lp, ctx) {
        Ok(sol) => {
            #[cfg(debug_assertions)]
            if warm {
                // differential oracle; an uninstrumented solve with no
                // deadline keeps the obs counters and deadline polls equal
                // across build profiles
                let cold = clk_lp::solve(round.lp.problem());
                assert!(
                    cold.as_ref()
                        .is_ok_and(|c| clk_cert::objectives_agree(sol.objective, c.objective)),
                    "warm solve at lambda {lambda} reached {}, a cold solve {cold:?}",
                    sol.objective
                );
            }
            Ok(sol)
        }
        Err(e) if !warm || matches!(e, LadderFault::Lp(LpError::Interrupted)) => Err(e),
        Err(e) => {
            ctx.obs.count("lp.warm_fallbacks", 1);
            ctx.record(
                "global",
                e.kind(),
                RecoveryAction::Retry,
                format!("{e} after a warm start; re-solving cold"),
            );
            solve(&mut round.lp, ctx)
        }
    }
}

/// Builds the LP of Eqs. (4)–(11) and solves it once, with no ladder —
/// the analysis-path entry (`u_sweep`) that predates the fault runtime.
fn build_and_solve(inputs: &LpInputs<'_>, objective: LpObjective) -> Option<SolvedPoint> {
    let mut ctx = FaultCtx::passive();
    let (p, vars) = build_problem(inputs, objective, &Relaxation::NONE, &mut ctx).ok()?;
    let sol = clk_lp::solve(&p).ok()?;
    let site = format!("{objective:?} u_sweep");
    verify_certificate(&p, &sol, &ctx.obs, &site).ok()?;
    Some((sol, vars))
}

/// Builds the LP of Eqs. (4)–(11) under a [`Relaxation`].
///
/// Arcs whose timed delay or minimum-delay estimate is non-finite
/// (corrupt LUT row, poisoned timing) are **frozen**: their Δ variables
/// get `[0, 0]` bounds and they are excluded from the Eq. (11) corridor,
/// so one bad delay model degrades that arc instead of poisoning the
/// whole formulation.
///
/// # Errors
///
/// Propagates the builder's [`LpError`] (non-finite bound/coefficient,
/// unknown variable) instead of panicking.
fn build_problem(
    inputs: &LpInputs<'_>,
    objective: LpObjective,
    relax: &Relaxation,
    ctx: &mut FaultCtx<'_>,
) -> Result<(Problem, BTreeMap<ArcId, ArcVars>), LpError> {
    let _prof = ctx.obs.prof_scope("global.lp_build");
    let LpInputs {
        tree,
        lib,
        luts,
        arcs,
        arc_d,
        timings,
        sel_pairs,
        path_of,
        involved,
        alphas,
        bounds,
        cfg,
    } = *inputs;
    let n_corners = arc_d.len();
    let (delta_cost, v_cost) = match objective {
        LpObjective::Scalarized(lambda) => (lambda, 1.0),
        LpObjective::UBound(_) => (1.0, 0.0),
    };
    let mut p = Problem::new();
    let mut vars: BTreeMap<ArcId, ArcVars> = BTreeMap::new();
    let mut v_vars: Vec<VarId> = Vec::with_capacity(sel_pairs.len());
    let mut frozen: HashSet<ArcId> = HashSet::new();

    for &aid in involved {
        let arc = arcs.arc(aid);
        let len = arc.length_um(tree).max(1.0);
        let drv = tree.cell(arc.from).unwrap_or(CellId(0));
        let end_load = end_load_ff(tree, lib, arc);
        let mut dd: Vec<(f64, f64)> = Vec::with_capacity(n_corners);
        for k in 0..n_corners {
            let d = arc_d[k][aid.0 as usize];
            let slew = timings[k].slew_ps(arc.from);
            let mut dmin = luts.min_arc_delay(lib, CornerId(k), drv, slew, len, end_load);
            if ctx.fire(FaultSite::CorruptLutRow) {
                dmin = f64::NAN;
            }
            dd.push((d, dmin));
        }
        let mut delta = Vec::with_capacity(n_corners);
        if dd
            .iter()
            .any(|&(d, dmin)| !d.is_finite() || !dmin.is_finite())
        {
            frozen.insert(aid);
            ctx.record(
                "global",
                FaultKind::CorruptDelayModel,
                RecoveryAction::Degrade,
                format!("arc {aid}: non-finite delay model; freezing its LP variables at 0"),
            );
            for _ in 0..n_corners {
                let pos = p.add_var(0.0, 0.0, delta_cost)?;
                let neg = p.add_var(0.0, 0.0, delta_cost)?;
                delta.push((pos, neg));
            }
        } else {
            for (d, dmin) in dd {
                let up = ((cfg.beta * relax.beta_scale - 1.0) * d).max(0.0);
                let down = (d - dmin).max(0.0);
                let pos = p.add_var(0.0, up, delta_cost)?;
                let neg = p.add_var(0.0, down, delta_cost)?;
                delta.push((pos, neg));
            }
        }
        vars.insert(aid, ArcVars { delta });
    }

    // Per-pair V variables and constraints (6)–(8).
    for pair in sel_pairs {
        let v = p.add_var(0.0, f64::INFINITY, v_cost)?;
        v_vars.push(v);
        let pa = &path_of[&pair.a];
        let pb = &path_of[&pair.b];
        // symmetric difference: shared prefix arcs cancel out of the skew
        let set_b: HashSet<ArcId> = pb.iter().copied().collect();
        let set_a: HashSet<ArcId> = pa.iter().copied().collect();
        let only_a: Vec<ArcId> = pa.iter().copied().filter(|x| !set_b.contains(x)).collect();
        let only_b: Vec<ArcId> = pb.iter().copied().filter(|x| !set_a.contains(x)).collect();
        // S_k(Δ) terms with coefficient `c` at corner k
        let skew_terms = |k: usize, c: f64, terms: &mut Vec<(VarId, f64)>| {
            for &aid in &only_a {
                let (pos, neg) = vars[&aid].delta[k];
                terms.push((pos, c));
                terms.push((neg, -c));
            }
            for &aid in &only_b {
                let (pos, neg) = vars[&aid].delta[k];
                terms.push((pos, -c));
                terms.push((neg, c));
            }
        };
        let s0: Vec<f64> = (0..n_corners)
            .map(|k| timings[k].arrival_ps(pair.a) - timings[k].arrival_ps(pair.b))
            .collect();
        // (6): V ≥ ±(αk·S_k − αk'·S_k')
        for k in 0..n_corners {
            for k2 in (k + 1)..n_corners {
                let base = alphas[k] * s0[k] - alphas[k2] * s0[k2];
                for sign in [1.0, -1.0] {
                    let mut terms = vec![(v, 1.0)];
                    skew_terms(k, -sign * alphas[k], &mut terms);
                    skew_terms(k2, sign * alphas[k2], &mut terms);
                    p.add_row(RowKind::Ge, sign * base, &terms)?;
                }
            }
        }
        // (7): |S_k(Δ)| ≤ |S_k(0)| at every corner
        for (k, &s0k) in s0.iter().enumerate() {
            let cap = s0k.abs();
            for sign in [1.0, -1.0] {
                let mut terms = Vec::new();
                skew_terms(k, sign, &mut terms);
                p.add_row(RowKind::Le, cap - sign * s0k, &terms)?;
            }
        }
        // (8): |αk·S_k − α0·S_0| may not grow, k ≠ 0
        for k in 1..n_corners {
            let cap = (alphas[k] * s0[k] - alphas[0] * s0[0]).abs();
            let base = alphas[k] * s0[k] - alphas[0] * s0[0];
            for sign in [1.0, -1.0] {
                let mut terms = Vec::new();
                skew_terms(k, sign * alphas[k], &mut terms);
                skew_terms(0, -sign * alphas[0], &mut terms);
                p.add_row(RowKind::Le, cap - sign * base, &terms)?;
            }
        }
    }

    // (9): path latency bound per sink per corner
    for (sink, path) in path_of {
        for (k, timing) in timings.iter().enumerate().take(n_corners) {
            let lat = timing.arrival_ps(*sink);
            let dmax = timing.max_latency_ps(tree) * cfg.latency_slack * relax.latency_slack_scale;
            let terms: Vec<(VarId, f64)> = path
                .iter()
                .flat_map(|aid| {
                    let (pos, neg) = vars[aid].delta[k];
                    [(pos, 1.0), (neg, -1.0)]
                })
                .collect();
            p.add_row(RowKind::Le, dmax - lat, &terms)?;
        }
    }

    // (11): cross-corner delay-ratio corridor per arc, k vs 0
    if !relax.drop_ratio_rows {
        for &aid in involved {
            if frozen.contains(&aid) {
                continue; // a frozen arc has no meaningful ratio
            }
            let arc = arcs.arc(aid);
            let len = arc.length_um(tree);
            if len < 20.0 {
                continue; // ratio of a near-zero-length arc is meaningless
            }
            let d0 = arc_d[0][aid.0 as usize];
            let x = d0 / len;
            let (p0, n0) = vars[&aid].delta[0];
            for k in 1..n_corners {
                let Some(b) = &bounds[k] else { continue };
                let (lo, hi) = b.bounds(x);
                let (lo, hi) = (lo - relax.ratio_widen, hi + relax.ratio_widen);
                let dk = arc_d[k][aid.0 as usize];
                let (pk, nk) = vars[&aid].delta[k];
                // dk + Δk − hi·(d0 + Δ0) ≤ 0
                p.add_row(
                    RowKind::Le,
                    hi * d0 - dk,
                    &[(pk, 1.0), (nk, -1.0), (p0, -hi), (n0, hi)],
                )?;
                // dk + Δk − lo·(d0 + Δ0) ≥ 0
                p.add_row(
                    RowKind::Ge,
                    lo * d0 - dk,
                    &[(pk, 1.0), (nk, -1.0), (p0, -lo), (n0, lo)],
                )?;
            }
        }
    }

    // (5): Σ V ≤ U in the paper's literal formulation
    if let LpObjective::UBound(u) = objective {
        let terms: Vec<(VarId, f64)> = v_vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(RowKind::Le, u, &terms)?;
    }

    // debug-mode model audit: numeric sanity and the Eq.(6)-(11) row
    // census must match what the loops above were supposed to build
    #[cfg(debug_assertions)]
    {
        let shape = clk_lint::lp::LpShape {
            n_corners,
            n_pairs: sel_pairs.len(),
            n_involved_arcs: involved.len(),
            n_long_arcs: if relax.drop_ratio_rows {
                0
            } else {
                involved
                    .iter()
                    .filter(|&&aid| !frozen.contains(&aid) && arcs.arc(aid).length_um(tree) >= 20.0)
                    .count()
            },
            n_latency_sinks: path_of.len(),
            ubound: matches!(objective, LpObjective::UBound(_)),
        };
        let mut diags = clk_lint::lp::audit_problem(&p);
        diags.extend(clk_lint::lp::audit_shape(&p, &shape));
        assert!(diags.is_empty(), "LP model audit failed:\n{diags:#?}");
    }

    // chaos hook: a contradictory row (0 ≤ −1) that passes builder
    // validation but makes the model infeasible, exercising the ladder
    if ctx.fire(FaultSite::InfeasibleLp) {
        p.add_row(RowKind::Le, -1.0, &[])?;
    }

    Ok((p, vars))
}

/// One point of the paper's U-sweep Pareto curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct USweepPoint {
    /// The bound `U` on `Σ V`.
    pub u: f64,
    /// The minimum total delay change `Σ|Δ|` the LP needs to satisfy it.
    pub total_delta: f64,
    /// `Σ V` actually attained (≤ `u`).
    pub sum_v: f64,
    /// Whether the LP was feasible at this `U`.
    pub feasible: bool,
}

/// Traces the paper's literal formulation: minimize `Σ|Δ|` subject to
/// `Σ V ≤ U`, sweeping `U` on a geometric grid from the current variation
/// sum down toward the LP's unconstrained optimum (paper §4.1: "We then
/// sweep this upper bound to search for the achievable solution with
/// minimum sum of skew variations"). Returns one point per grid value.
/// This is the analysis view; the ECO flow uses the Lagrangian-equivalent
/// scalarization, which traces the same Pareto frontier.
pub fn u_sweep(
    tree: &ClockTree,
    lib: &Library,
    luts: &StageLuts,
    cfg: &GlobalConfig,
    n_points: usize,
) -> Vec<USweepPoint> {
    let timer = Timer::golden();
    let timings: Vec<CornerTiming> = timer.analyze_all(tree, lib);
    let arcs = ArcSet::extract(tree);
    let arc_d: Vec<Vec<f64>> = timings
        .iter()
        .map(|t| arc_delays_ps(tree, &arcs, t))
        .collect();
    let n_corners = lib.corner_count();
    let all_pairs = tree.sink_pairs().to_vec();
    let per_corner_skews: Vec<Vec<f64>> =
        timings.iter().map(|t| pair_skews(t, &all_pairs)).collect();
    let alphas = alpha_factors(&per_corner_skews);
    let before_report = variation_report(&per_corner_skews, &alphas, None);
    let mut order: Vec<usize> = (0..all_pairs.len()).collect();
    order.sort_by(|&a, &b| before_report.per_pair[b].total_cmp(&before_report.per_pair[a]));
    order.truncate(cfg.max_pairs);
    let sel_pairs: Vec<SinkPair> = order.iter().map(|&i| all_pairs[i]).collect();
    let sel_sum: f64 = order.iter().map(|&i| before_report.per_pair[i]).sum();

    let mut path_of: BTreeMap<NodeId, Vec<ArcId>> = BTreeMap::new();
    let mut involved_set: HashSet<ArcId> = HashSet::new();
    for p in &sel_pairs {
        for s in [p.a, p.b] {
            let path = path_of
                .entry(s)
                .or_insert_with(|| arcs.path_arcs(tree, s))
                .clone();
            involved_set.extend(path);
        }
    }
    let mut involved: Vec<ArcId> = involved_set.into_iter().collect();
    involved.sort_unstable();
    let bounds = ratio_corridors(luts, n_corners, cfg.ratio_margin);
    let inputs = LpInputs {
        tree,
        lib,
        luts,
        arcs: &arcs,
        arc_d: &arc_d,
        timings: &timings,
        sel_pairs: &sel_pairs,
        path_of: &path_of,
        involved: &involved,
        alphas: &alphas,
        bounds: &bounds,
        cfg,
    };

    // lower end of the sweep: the unconstrained ΣV optimum
    let floor = build_and_solve(&inputs, LpObjective::Scalarized(1e-6))
        .map_or(0.0, |(sol, _)| sol.objective.max(0.0));

    let mut out = Vec::with_capacity(n_points);
    for i in 0..n_points.max(2) {
        // geometric interpolation between sel_sum and max(floor, 1e-3)
        let lo = floor.max(1.0e-3);
        let t = i as f64 / (n_points.max(2) - 1) as f64;
        let u = sel_sum.max(lo) * (lo / sel_sum.max(lo)).powf(t);
        match build_and_solve(&inputs, LpObjective::UBound(u)) {
            Some((sol, vars)) => {
                let total_delta: f64 = vars
                    .values()
                    .flat_map(|av| av.delta.iter())
                    .map(|&(p, n)| {
                        sol.value(p).unwrap_or(f64::NAN) + sol.value(n).unwrap_or(f64::NAN)
                    })
                    .sum();
                out.push(USweepPoint {
                    u,
                    total_delta,
                    sum_v: f64::NAN, // ΣV is slack-bounded; report the bound
                    feasible: true,
                });
            }
            None => out.push(USweepPoint {
                u,
                total_delta: f64::NAN,
                sum_v: f64::NAN,
                feasible: false,
            }),
        }
    }
    out
}

fn end_load_ff(tree: &ClockTree, lib: &Library, arc: &Arc) -> f64 {
    match tree.node(arc.to).kind {
        NodeKind::Buffer(c) => lib.cell(c).input_cap_ff,
        NodeKind::Sink => lib.sink_cap_ff(),
        NodeKind::Source => 0.0,
    }
}

/// Algorithm 1, applied incrementally: arcs are rebuilt in decreasing
/// order of requested |Δ| and each rebuild must survive a golden-timer
/// check (variation improves, local skew stays within the guard) or it is
/// rolled back. This is the robust counterpart of the paper's batch ECO:
/// the commercial router/placer of the original flow realizes delays much
/// more faithfully than an open-source ECO stack can, so per-arc
/// verification replaces that fidelity (DESIGN.md §4).
///
/// `timings` is the golden analysis of `tree` as it enters; every rebuilt
/// arc is re-timed incrementally from the analysis of the trial as it
/// stands (see [`retime_arc`]).
///
/// Returns (arcs kept, final variation sum).
#[allow(clippy::too_many_arguments)]
fn execute_eco(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    arcs: &ArcSet,
    arc_d: &[Vec<f64>],
    timings: &[CornerTiming],
    involved: &[ArcId],
    vars: &BTreeMap<ArcId, ArcVars>,
    sol: &Solution,
    all_pairs: &[SinkPair],
    alphas: &[f64],
    guard_local: &[f64],
    variation_before: f64,
    cfg: &GlobalConfig,
    obs: &Obs,
    deadline: &Deadline,
    round: usize,
    lambda: f64,
    star: Option<&[f64]>,
    star_before: Option<f64>,
) -> (usize, f64, Option<f64>) {
    let n_corners = arc_d.len();
    let timer = Timer::golden().with_obs(obs.clone());
    // collect candidate arcs with their requested deltas
    let mut todo: Vec<(f64, ArcId, Vec<f64>)> = Vec::new();
    for &aid in involved {
        let av = &vars[&aid];
        let deltas: Vec<f64> = (0..n_corners)
            .map(|k| {
                let (pos, neg) = av.delta[k];
                sol.value(pos).unwrap_or(f64::NAN) - sol.value(neg).unwrap_or(f64::NAN)
            })
            .collect();
        let worst = deltas.iter().map(|d| d.abs()).fold(0.0, f64::max);
        if worst >= cfg.delta_threshold_ps {
            todo.push((worst, aid, deltas));
        }
    }
    todo.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut eco_span = obs.span_at(
        Level::Debug,
        "global.eco",
        vec![kv("arcs_todo", todo.len() as u64)],
    );
    let mut changed = 0usize;
    let mut current = variation_before;
    let mut current_star = star_before;
    // the paper's guarantee: no new max-cap / max-transition violations
    let mut drc_budget: usize = timings.iter().map(|t| t.violations().len()).sum();
    // the golden analysis of the trial as it stands, advanced in place
    // by every rebuilt arc and taken back by `undo` when one is rejected
    let mut cur: Vec<CornerTiming> = timings.to_vec();
    let mut undo = TimingUndo::default();
    let mut d_lp = vec![0.0; n_corners];
    let mut d_now = vec![0.0; n_corners];
    let mut realized = vec![0.0; n_corners];
    let mut skews: Vec<Vec<f64>> = vec![Vec::with_capacity(all_pairs.len()); n_corners];
    for (_, aid, deltas) in todo {
        // cut mid-ECO: every accepted arc left the trial timed and
        // consistent, so stopping here yields a valid partial trial
        if deadline.expired() {
            obs.count("global.eco_interrupted", 1);
            break;
        }
        let arc = arcs.arc(aid);
        // the arc set was extracted from the original tree; skip arcs whose
        // neighbourhood a previous accepted rebuild restructured
        if !arc_is_current(tree, arc) {
            continue;
        }
        for k in 0..n_corners {
            d_now[k] = arc_d[k][aid.0 as usize];
            d_lp[k] = arc_d[k][aid.0 as usize] + deltas[k];
        }
        let backup = RebuildBackup::of(tree, arc, &cur);
        let rebuilt = {
            let _realize_prof = obs.prof_scope("global.eco.realize");
            realize_arc(tree, lib, fp, luts, timings, arc, &d_lp, &d_now, cfg, obs)
        };
        if !rebuilt {
            backup.restore(tree);
            obs.count("global.eco_unrealizable", 1);
            if obs.ledgering() {
                obs.ledger_append(LedgerRecord::EcoArc {
                    round: round as u64,
                    lambda,
                    arc: u64::from(aid.0),
                    d_lp: d_lp.clone(),
                    d_now: d_now.clone(),
                    realized: None,
                    accepted: false,
                    var: None,
                });
            }
            continue;
        }
        // golden re-timing: fidelity of the realized arc delta vs the LP
        // target, plus the variation / local-skew effect
        {
            let _retime_prof = obs.prof_scope("global.eco.retime");
            retime_arc(&timer, tree, lib, &mut cur, arc, &mut undo);
        }
        for (r, t) in realized.iter_mut().zip(&cur) {
            *r = t.arrival_ps(arc.to) - t.arrival_ps(arc.from);
        }
        let mut fid_err = 0.0;
        let mut target_norm = 0.0;
        for k in 0..n_corners {
            fid_err += (realized[k] - d_lp[k]).abs();
            target_norm += (d_lp[k] - d_now[k]).abs();
            for k2 in (k + 1)..n_corners {
                fid_err += ((realized[k] - realized[k2]) - (d_lp[k] - d_lp[k2])).abs();
            }
        }
        let fid_ok =
            fid_err <= cfg.fidelity_tol_frac * target_norm + cfg.fidelity_tol_ps * n_corners as f64;
        if obs.at(Level::Trace) {
            let round1 = |v: &[f64]| {
                format!(
                    "{:?}",
                    v.iter()
                        .map(|x| (x * 10.0).round() / 10.0)
                        .collect::<Vec<_>>()
                )
            };
            obs.event(
                Level::Trace,
                "eco.arc",
                vec![
                    kv("arc", aid.to_string()),
                    kv("now_ps", round1(&d_now)),
                    kv("target_ps", round1(&d_lp)),
                    kv("realized_ps", round1(&realized)),
                    kv("fid_err", fid_err),
                    kv("fid_ok", fid_ok),
                ],
            );
        }
        for (s, t) in skews.iter_mut().zip(&cur) {
            pair_skews_into(t, all_pairs, s);
        }
        let after = variation_report(&skews, alphas, None).sum;
        let guard_ok = skews
            .iter()
            .zip(guard_local)
            .all(|(s, &g)| local_skew_ps(s) <= g * cfg.skew_guard_factor + cfg.skew_guard_ps);
        let drc: usize = cur.iter().map(|t| t.violations().len()).sum();
        let accepted = guard_ok && drc <= drc_budget && (after < current || fid_ok);
        // the star checkpoint re-prices the same measured skews under
        // the flow's α*, so the extra cost when ledgering is one
        // variation_report — no additional STA
        let after_star = star.map(|sa| variation_report(&skews, sa, None).sum);
        if accepted {
            drc_budget = drc;
            current = after;
            current_star = after_star;
            changed += 1;
            obs.count("global.eco_accepted", 1);
        } else {
            backup.restore_timed(tree, &mut cur, &mut undo);
            obs.count("global.eco_rollback", 1);
        }
        if obs.ledgering() {
            obs.ledger_append(LedgerRecord::EcoArc {
                round: round as u64,
                lambda,
                arc: u64::from(aid.0),
                d_lp: d_lp.clone(),
                d_now: d_now.clone(),
                realized: Some(realized.clone()),
                accepted,
                var: if accepted { after_star } else { None },
            });
        }
    }
    eco_span.record("arcs_kept", changed as u64);
    drop(eco_span);
    (changed, current, current_star)
}

/// What undoes one [`realize_arc`] rebuild: the slots of every node
/// the rebuild rewires (the arc's junctions and its single-fanout
/// interior buffers) and the node count, instead of a copy of the whole
/// tree. Debug builds also keep copies of the tree and of the trial's
/// analysis and check the undo against them.
pub(crate) struct RebuildBackup {
    checkpoint: Checkpoint,
    #[cfg(debug_assertions)]
    tree: ClockTree,
    #[cfg(debug_assertions)]
    timings: Vec<CornerTiming>,
}

impl RebuildBackup {
    /// The backup of `tree` before `arc` is rebuilt, `timings` being its
    /// analysis (kept only by debug builds).
    pub(crate) fn of(tree: &ClockTree, arc: &Arc, timings: &[CornerTiming]) -> Self {
        let mut ids = vec![arc.from, arc.to];
        ids.extend_from_slice(&arc.interior);
        #[cfg(not(debug_assertions))]
        let _ = timings;
        RebuildBackup {
            checkpoint: tree.checkpoint(&ids),
            #[cfg(debug_assertions)]
            tree: tree.clone(),
            #[cfg(debug_assertions)]
            timings: timings.to_vec(),
        }
    }

    /// Undoes the rebuild of a tree that was not re-timed since.
    pub(crate) fn restore(self, tree: &mut ClockTree) {
        tree.rollback(self.checkpoint);
        #[cfg(debug_assertions)]
        assert!(
            *tree == self.tree,
            "undoing the rebuild did not restore the tree"
        );
    }

    /// Undoes the rebuild and the [`retime_arc`] that advanced `timings`
    /// after it, whose log `undo` holds.
    pub(crate) fn restore_timed(
        self,
        tree: &mut ClockTree,
        timings: &mut [CornerTiming],
        undo: &mut TimingUndo,
    ) {
        undo.rollback(timings);
        #[cfg(debug_assertions)]
        for (kept, t) in self.timings.iter().zip(timings.iter()) {
            assert!(
                kept.bit_identical(t),
                "undoing the re-timing did not restore the analysis at {}",
                t.corner()
            );
        }
        self.restore(tree);
    }
}

/// The golden re-timing of an ECO trial after [`realize_arc`] rebuilt
/// `arc`: advances `cur`, the trial's analysis before the rebuild, in
/// place to the analysis after it, and logs in `undo` what takes it
/// back ([`RebuildBackup::restore_timed`]).
///
/// A rebuild rewires only `arc.from`'s net: the old interior buffers
/// are gone, and the new chain buffers are new drivers, so their nets
/// are extracted anyway. `arc.to` keeps its location, fanout and child
/// routes, so the whole cone below it re-times from cached parasitics.
/// `arc.from` is therefore the only dirty driver. Debug builds check
/// the result against a full analysis bit for bit.
///
/// # Panics
///
/// Panics if the rebuilt trial cannot be timed, and, in debug builds,
/// if the incremental analysis differs from a full one. In the global
/// phase the λ trial's `catch_unwind` records either as a
/// [`FaultKind::EcoPanic`].
pub(crate) fn retime_arc(
    timer: &Timer,
    tree: &ClockTree,
    lib: &Library,
    cur: &mut [CornerTiming],
    arc: &Arc,
    undo: &mut TimingUndo,
) {
    if let Err(e) = timer.try_advance_all(tree, lib, cur, &[arc.from], undo) {
        panic!(
            "ECO trial at arc {}->{} cannot be timed: {e}",
            arc.from, arc.to
        );
    }
    #[cfg(debug_assertions)]
    {
        // differential oracle; an uninstrumented timer keeps the obs
        // counters equal across build profiles
        let full = Timer::new(timer.options()).analyze_all(tree, lib);
        for (f, i) in full.iter().zip(cur.iter()) {
            assert!(
                f.bit_identical(i),
                "incremental ECO re-timing of arc {}->{} differs from a full analysis at {}",
                arc.from,
                arc.to,
                f.corner()
            );
        }
    }
}

/// Whether `arc` still describes the live chain between its junctions.
pub(crate) fn arc_is_current(tree: &ClockTree, arc: &Arc) -> bool {
    if !tree.is_alive(arc.from) || !tree.is_alive(arc.to) {
        return false;
    }
    let Some(mut cur) = tree.parent(arc.to) else {
        return false;
    };
    for &n in arc.interior.iter().rev() {
        if !tree.is_alive(n) || cur != n {
            return false;
        }
        cur = match tree.parent(n) {
            Some(p) => p,
            None => return false,
        };
    }
    cur == arc.from
}

/// Baseline-facing wrapper around [`realize_arc`] with default ECO knobs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn realize_arc_for_baseline(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    timings: &[CornerTiming],
    arc: &Arc,
    d_lp: &[f64],
    d_now: &[f64],
) -> bool {
    realize_arc(
        tree,
        lib,
        fp,
        luts,
        timings,
        arc,
        d_lp,
        d_now,
        &GlobalConfig::default(),
        &Obs::disabled(),
    )
}

/// Algorithm 1, lines 3–19, for one arc: pick (size p, spacing q, pair
/// count u) minimizing the multi-corner error against `d_lp`, then rebuild
/// the chain with legalized placement and exact detour routing.
///
/// Candidate delays are **anchored**: the score uses
/// `d_now + (est(candidate) − est(current config))`, so the systematic
/// part of the LUT-vs-golden modelling error cancels and only the *change*
/// must be estimated accurately.
#[allow(clippy::too_many_arguments)]
pub(crate) fn realize_arc(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    luts: &StageLuts,
    timings: &[CornerTiming],
    arc: &Arc,
    d_lp: &[f64],
    d_now: &[f64],
    cfg: &GlobalConfig,
    obs: &Obs,
) -> bool {
    let n_corners = d_lp.len();
    let from_loc = tree.loc(arc.from);
    let to_loc = tree.loc(arc.to);
    let span = from_loc.manhattan_um(to_loc).max(1.0);
    let drv = tree.cell(arc.from).unwrap_or(CellId(0));
    let end_load = end_load_ff(tree, lib, arc);
    let ests: Vec<ArcEstimator<'_>> = (0..n_corners)
        .map(|k| {
            let slew = timings[k].slew_ps(arc.from);
            ArcEstimator::new(luts, lib, CornerId(k), drv, slew, end_load)
        })
        .collect();
    let est = |p: CellId, q: f64, n_inv: usize, k: usize| -> f64 { ests[k].estimate(p, q, n_inv) };

    // estimate of the arc as it stands, for anchoring
    let cur_n = arc.interior.len();
    let cur_len = arc.length_um(tree).max(1.0);
    let cur_q = cur_len / (cur_n + 1) as f64;
    let cur_size = arc
        .interior
        .first()
        .and_then(|&n| tree.cell(n))
        .unwrap_or(drv);
    let est_cur: Vec<f64> = (0..n_corners)
        .map(|k| est(cur_size, cur_q, cur_n, k))
        .collect();

    // Scoring: Algorithm 1's multi-corner error, plus an uncertainty
    // penalty proportional to how far (in estimated delay) a candidate
    // strays from the current configuration — the LUT estimate of a
    // *large* reconfiguration carries proportionally large model error,
    // and an unpenalized search happily exploits that noise.
    let mut best: Option<(f64, CellId, f64, usize)> = None; // (score, size, q, n_inv)
    let mut d_est = vec![0.0; n_corners];
    let mut consider = |p: CellId, q: f64, n_inv: usize| {
        let route_len = (n_inv + 1) as f64 * q;
        if route_len < span * 0.999 || route_len > span + cfg.max_detour_um {
            return;
        }
        for (k, d) in d_est.iter_mut().enumerate() {
            *d = d_now[k] + est(p, q, n_inv, k) - est_cur[k];
        }
        let mut err = 0.0;
        let mut distance = 0.0;
        for k in 0..n_corners {
            err += (d_est[k] - d_lp[k]).abs();
            distance += (d_est[k] - d_now[k]).abs();
        }
        for k in 0..n_corners {
            for k2 in (k + 1)..n_corners {
                err += ((d_est[k] - d_est[k2]) - (d_lp[k] - d_lp[k2])).abs();
            }
        }
        let score = err + cfg.eco_uncertainty_frac * distance;
        if best.as_ref().is_none_or(|&(e, ..)| score < e) {
            best = Some((score, p, q, n_inv));
        }
    };

    // Clock polarity: the rebuilt chain must keep the inversion parity of
    // the chain it replaces (the paper's trees are built purely of
    // inverter *pairs*, so there parity is trivially even; our junctions
    // sit on pair-internal inverters, so odd interiors occur).
    let parity = cur_n % 2;
    // Inverter counts worth trying: around the current count and around
    // Algorithm 1's `u_est ± 2` estimate at a mid-table spacing.
    let mut counts: Vec<usize> = Vec::new();
    {
        let mut push = |n: i64| {
            if n >= parity as i64 && (n as usize) % 2 == parity {
                let n = n as usize;
                if !counts.contains(&n) {
                    counts.push(n);
                }
            }
        };
        for d in -4i64..=4 {
            push(cur_n as i64 + 2 * d);
        }
        let stage = luts
            .stage_delay(CornerId(0), cur_size, cur_q.clamp(10.0, 200.0))
            .max(1e-6);
        let u_est = (d_lp[0] / (2.0 * stage)).round() as i64;
        for d in -2i64..=2 {
            push(2 * (u_est + d) + parity as i64);
        }
    }
    for size in 0..lib.cells().len() {
        let p = CellId(size);
        for &n_inv in &counts {
            if n_inv == 0 {
                // wire-only: route length is the only knob
                for detour_frac in [1.0, 1.05, 1.15, 1.3] {
                    consider(p, span * detour_frac, 0);
                }
                continue;
            }
            // continuous spacing: bisect q so the c0 estimate hits the
            // target (the stage LUT interpolates between its 5 µm grid)
            let segs = (n_inv + 1) as f64;
            let q_lo = (span / segs).max(2.0);
            let q_hi = (span + cfg.max_detour_um) / segs;
            if q_hi < q_lo {
                continue;
            }
            let target0 = d_lp[0];
            let e_lo = d_now[0] + est(p, q_lo, n_inv, 0) - est_cur[0];
            let e_hi = d_now[0] + est(p, q_hi, n_inv, 0) - est_cur[0];
            let q_star = if e_lo >= target0 {
                q_lo
            } else if e_hi <= target0 {
                q_hi
            } else {
                let (mut a, mut b) = (q_lo, q_hi);
                for _ in 0..30 {
                    let m = 0.5 * (a + b);
                    let e = d_now[0] + est(p, m, n_inv, 0) - est_cur[0];
                    if e < target0 {
                        a = m;
                    } else {
                        b = m;
                    }
                }
                0.5 * (a + b)
            };
            consider(p, q_star, n_inv);
            // also the no-detour point, which Algorithm 1's D_min favours
            consider(p, q_lo, n_inv);
        }
    }

    let Some((best_err, size, q, n_inv)) = best else {
        return false;
    };
    if obs.at(Level::Trace) {
        obs.event(
            Level::Trace,
            "eco.realize",
            vec![
                kv("cur", format!("size {cur_size:?}, q {cur_q:.1}, n {cur_n}")),
                kv("chosen", format!("size {size:?}, q {q:.1}, n {n_inv}")),
                kv("span_um", span),
                kv("len_um", cur_len),
                kv("est_err", best_err),
            ],
        );
    }
    let route_len = (n_inv + 1) as f64 * q;
    let path = if route_len > span * 1.01 {
        RoutePath::with_detour(from_loc, to_loc, route_len - span)
    } else {
        RoutePath::l_shape(from_loc, to_loc)
    };

    // tear out the old chain
    for &n in &arc.interior {
        tree.remove_buffer(n).expect("interior nodes are buffers");
    }
    // insert the new chain with legalized positions and detour-preserving
    // route pieces
    let total = path.length_dbu();
    let mut prev = arc.from;
    let mut prev_d = 0i64;
    let mut prev_loc = from_loc;
    for i in 1..=n_inv {
        let d = total * i as i64 / (n_inv as i64 + 1);
        let ideal = path.locate(d);
        let legal = fp.legalize(ideal);
        let piece = chain_piece(&path, prev_d, d, prev_loc, legal);
        prev = tree
            .add_node_with_route(NodeKind::Buffer(size), legal, prev, piece)
            .expect("chain piece endpoints match");
        prev_d = d;
        prev_loc = legal;
    }
    if prev != arc.from {
        tree.set_parent(arc.to, prev).expect("no cycles in a chain");
    }
    let last = chain_piece(&path, prev_d, total, prev_loc, to_loc);
    tree.set_route(arc.to, last).expect("endpoints match");
    true
}

/// A route piece following `path` between distances `d0..d1`, with small
/// L-shape jogs patched on both ends to reach the legalized locations.
fn chain_piece(
    path: &RoutePath,
    d0: i64,
    d1: i64,
    start_actual: clk_geom::Point,
    end_actual: clk_geom::Point,
) -> RoutePath {
    let mut piece = path.sub_path(d0, d1);
    if piece.start() != start_actual {
        piece = RoutePath::l_shape(start_actual, piece.start()).join(&piece);
    }
    if piece.end() != end_actual {
        piece = piece.join(&RoutePath::l_shape(piece.end(), end_actual));
    }
    piece
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_cts::{Testcase, TestcaseKind};

    fn quick_cfg() -> GlobalConfig {
        GlobalConfig {
            max_pairs: 40,
            lambdas: vec![0.05, 0.3],
            rounds: 2,
            ..GlobalConfig::default()
        }
    }

    #[test]
    fn global_reduces_variation_on_cls1() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 5);
        let luts = StageLuts::characterize(&tc.lib);
        let (opt, report) = global_optimize(&tc.tree, &tc.lib, &tc.floorplan, &luts, &quick_cfg());
        opt.validate().unwrap();
        assert!(
            report.variation_after <= report.variation_before,
            "variation {} -> {}",
            report.variation_before,
            report.variation_after
        );
        // must really have done something on a CTS'd tree
        assert!(report.variation_before > 0.0);
    }

    #[test]
    fn injected_lp_and_model_faults_are_absorbed() {
        use crate::fault::FaultPlan;
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 5);
        let luts = StageLuts::characterize(&tc.lib);
        let plan = FaultPlan::inert(3);
        plan.arm(FaultSite::NanArcDelay, 0, 1);
        plan.arm(FaultSite::CorruptLutRow, 0, 1);
        plan.arm(FaultSite::InfeasibleLp, 0, 1);
        let mut ctx = FaultCtx::new(Some(&plan), Deadline::none());
        let (opt, report) = global_optimize_checked(
            &tc.tree,
            &tc.lib,
            &tc.floorplan,
            &luts,
            &quick_cfg(),
            None,
            &mut ctx,
            &PhaseBudget::unlimited(),
        )
        .expect("flow survives injected faults");
        opt.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
        assert_eq!(plan.injected().len(), 3, "all three armed sites fired");
        assert_eq!(ctx.log.of_kind(FaultKind::NanArcDelay).count(), 1);
        assert_eq!(ctx.log.of_kind(FaultKind::CorruptDelayModel).count(), 1);
        assert!(
            ctx.log.of_kind(FaultKind::LpFailure).count() >= 1,
            "the infeasible solve must show up in the log:\n{}",
            ctx.log.to_text()
        );
    }

    #[test]
    fn u_sweep_traces_a_monotone_frontier() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 40, 7);
        let luts = StageLuts::characterize(&tc.lib);
        let cfg = GlobalConfig {
            max_pairs: 25,
            ..GlobalConfig::default()
        };
        let curve = u_sweep(&tc.tree, &tc.lib, &luts, &cfg, 5);
        assert_eq!(curve.len(), 5);
        // U = current sum must be feasible at (near) zero delta spend
        let first = &curve[0];
        assert!(first.feasible);
        assert!(first.total_delta < 1.0, "delta {}", first.total_delta);
        // tighter U never needs less delta (Pareto monotonicity)
        let mut last = -1.0;
        for p in curve.iter().filter(|p| p.feasible) {
            assert!(
                p.total_delta >= last - 1e-6,
                "frontier not monotone: {curve:?}"
            );
            last = p.total_delta;
        }
    }

    #[test]
    fn local_skew_never_degrades_past_guard() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 6);
        let luts = StageLuts::characterize(&tc.lib);
        let cfg = quick_cfg();
        let timer = Timer::golden();
        let before: Vec<f64> = tc
            .lib
            .corner_ids()
            .map(|c| {
                local_skew_ps(&pair_skews(
                    &timer.analyze(&tc.tree, &tc.lib, c),
                    tc.tree.sink_pairs(),
                ))
            })
            .collect();
        let (opt, _) = global_optimize(&tc.tree, &tc.lib, &tc.floorplan, &luts, &cfg);
        for (k, c) in tc.lib.corner_ids().enumerate() {
            let after = local_skew_ps(&pair_skews(
                &timer.analyze(&opt, &tc.lib, c),
                opt.sink_pairs(),
            ));
            assert!(
                after <= before[k] * cfg.skew_guard_factor + cfg.skew_guard_ps,
                "corner {k}: {} -> {after}",
                before[k]
            );
        }
    }
}
