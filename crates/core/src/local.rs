//! Local iterative optimization (paper §4.2, Algorithm 2): enumerate the
//! Table-2 moves, rank them with the delta-latency predictor, realize the
//! top `R` in parallel worker threads, accept what the golden timer
//! confirms, repeat until the predictor sees no improving move.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use clk_liberty::{CornerId, Library};
use clk_netlist::{ClockTree, Floorplan, NodeId, SinkPair, TreeError};
use clk_obs::{kv, LedgerRecord, Level, Obs, Profiler};
use clk_sta::{
    alpha_factors, local_skew_ps, try_pair_skews, variation_report, CornerTiming, Timer,
    TimingError,
};

use crate::fault::{
    FaultCtx, FaultKind, FaultPlan, FaultSite, FlowError, PhaseBudget, PhaseProgress,
    RecoveryAction, TreeTxn,
};
use crate::moves::{apply_move, enumerate_moves, touched_drivers, Move, MoveConfig};
use crate::predictor::{
    corners_of, CommittedNets, DeltaLatencyModel, Group, RankWork, SharedNets, Topo,
};
use clk_delay::WireModel;

/// Moves ranked between two deadline polls of the ranking sweep, at
/// least: a block runs on to the end of the family (the moves of one
/// primary node) its last move belongs to, so no family's shared nets
/// are built twice.
const RANK_BLOCK: usize = 64;

/// The ranking blocks of `moves`, as move-index ranges in order. They
/// depend on the move list alone.
fn rank_blocks(moves: &[Move]) -> Vec<Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < moves.len() {
        let mut end = (start + RANK_BLOCK).min(moves.len());
        while end < moves.len() && moves[end].primary_node() == moves[end - 1].primary_node() {
            end += 1;
        }
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// How candidate moves are ranked before golden verification — the ML
/// predictor in the paper's flow, with the analytical and random rankers
/// kept as the Fig. 6 / Fig. 8 baselines.
#[derive(Debug, Clone, Copy)]
pub enum Ranker<'a> {
    /// The trained per-corner ML model (the paper's flow).
    Ml(&'a DeltaLatencyModel),
    /// A single analytical estimate (Fig. 6 baselines).
    Analytic(Topo, WireModel),
    /// Uniform-random ranking (the Fig. 8 "random moves" dots).
    Random(u64),
}

/// Local-optimization knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalConfig {
    /// Moves realized per verification round (paper: R = 5 threads).
    pub moves_per_round: usize,
    /// Hard cap on accepted iterations.
    pub max_iterations: usize,
    /// Move-menu parameters (Table 2).
    pub move_cfg: MoveConfig,
    /// Candidates predicted to gain less than this are not tried, ps.
    pub min_predicted_gain_ps: f64,
    /// At most this many candidate batches per accepted iteration.
    pub max_batches: usize,
    /// Local-skew acceptance guard (factor, absolute ps) as in the global
    /// flow.
    pub skew_guard_factor: f64,
    /// Absolute allowance of the skew guard, ps.
    pub skew_guard_ps: f64,
    /// Budget of golden-timer evaluations (fair-comparison knob for the
    /// Fig. 8 baselines; effectively unlimited by default).
    pub max_golden_evals: usize,
    /// Worker threads ranking the moves of an iteration and evaluating
    /// the candidates of a batch; `0` = one per available core. QoR is
    /// byte-identical for every value: workers only read the committed
    /// tree (and its [`RankContext`]) and score private clones, results
    /// are scattered back by move or candidate index, and the commit
    /// decision is taken sequentially in slot order.
    pub workers: usize,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            moves_per_round: 5,
            max_iterations: 25,
            move_cfg: MoveConfig::default(),
            min_predicted_gain_ps: 0.05,
            max_batches: 8,
            skew_guard_factor: 1.02,
            skew_guard_ps: 2.0,
            max_golden_evals: usize::MAX,
            workers: 0,
        }
    }
}

/// One accepted move of the trace (the Fig. 8 series).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Paper move type (1, 2 or 3) of the accepted move.
    pub move_type: u8,
    /// Sum of variation after accepting it, ps.
    pub variation_sum: f64,
}

/// Why a realized candidate was not committed — every worker outcome is
/// accounted for here instead of being silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateRejects {
    /// The move could not be applied to the trial tree (typed
    /// [`TreeError`] from the move engine).
    pub apply_failed: usize,
    /// The golden timer could not time the trial tree.
    pub timing_failed: usize,
    /// The trial would have created new DRC violations.
    pub drc: usize,
    /// The worker thread panicked; the candidate was isolated and
    /// skipped.
    pub panicked: usize,
    /// Timed clean but worse (or guard-violating) than the incumbent.
    pub not_improving: usize,
}

impl CandidateRejects {
    /// Total candidates rejected for any reason.
    pub fn total(&self) -> usize {
        self.apply_failed + self.timing_failed + self.drc + self.panicked + self.not_improving
    }
}

/// Outcome of the local optimization.
#[derive(Debug, Clone)]
pub struct LocalReport {
    /// Sum of normalized skew variation before, ps.
    pub variation_before: f64,
    /// Sum after the last accepted move, ps.
    pub variation_after: f64,
    /// Accepted-move trace (one entry per accepted iteration).
    pub iterations: Vec<IterationRecord>,
    /// Golden-timer evaluations spent.
    pub golden_evals: usize,
    /// Typed accounting of every rejected candidate.
    pub rejects: CandidateRejects,
}

/// A worker's typed failure.
#[derive(Debug, Clone)]
enum CandidateFailure {
    Apply(TreeError),
    Timing(TimingError),
    Drc { violations: usize, baseline: usize },
}

/// One candidate's golden verdict: the variation sum, the per-corner
/// local skews, the sum priced under α*, and the realized trial tree.
type CandidateResult = Result<(f64, Vec<f64>, Option<f64>, ClockTree), CandidateFailure>;

/// Slot-indexed results of one worker's stripe.
type Stripe = Vec<(usize, Option<CandidateResult>)>;

/// What every candidate evaluation of a batch reads, shared read-only
/// by the pool's threads: the committed tree and its per-corner
/// analyses, the scoring inputs, and the instrumentation.
struct EvalCtx<'a> {
    tree: &'a ClockTree,
    lib: &'a Library,
    fp: &'a Floorplan,
    move_cfg: &'a MoveConfig,
    timings: &'a [CornerTiming],
    pairs: &'a [SinkPair],
    alphas: &'a [f64],
    star: Option<&'a [f64]>,
    drc_baseline: usize,
    plan: Option<&'a FaultPlan>,
    prof: Profiler,
    obs: Obs,
}

/// Golden-evaluates stripe `w` of `n_workers`: the candidates in slots
/// `w`, `w + n_workers`, … of `batch`. Each candidate is wrapped in its
/// own `catch_unwind`: a typed failure or a panic poisons that slot
/// only, and the committed tree is untouched either way because a
/// candidate only ever mutates its private clone.
fn eval_stripe(ctx: &EvalCtx<'_>, batch: &[(f64, Move)], w: usize, n_workers: usize) -> Stripe {
    (w..batch.len())
        .step_by(n_workers)
        .map(|i| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eval_candidate(ctx, &batch[i].1)
            }));
            (i, r.ok())
        })
        .collect()
}

/// Applies `mv` to a clone of the committed tree and golden-times it.
/// Timing is cone-limited incremental re-propagation from the committed
/// tree's per-corner analyses — bit-identical to a full golden
/// re-analysis, just skipping the untouched cone.
fn eval_candidate(ctx: &EvalCtx<'_>, mv: &Move) -> CandidateResult {
    // thread-scoped nesting: a spawned worker roots its own attribution
    // subtree, the calling thread's nests under `local.batch`
    let _eval_prof = ctx.prof.scope("local.eval");
    if ctx.plan.is_some_and(|p| p.fire(FaultSite::WorkerPanic)) {
        // clk-analyze: allow(A005) deliberate chaos-injection panic, absorbed by the phase transaction
        panic!("chaos: injected worker panic");
    }
    let dirty = touched_drivers(ctx.tree, mv);
    let mut trial = ctx.tree.clone();
    {
        let _g = ctx.prof.scope("apply");
        apply_move(&mut trial, ctx.lib, ctx.fp, ctx.move_cfg, mv)
            .map_err(CandidateFailure::Apply)?;
    }
    let sta_prof = ctx.prof.scope("golden_sta");
    let analyses = Timer::golden()
        .with_obs(ctx.obs.clone())
        .try_analyze_all_incremental(&trial, ctx.lib, ctx.timings, &dirty)
        .map_err(CandidateFailure::Timing)?;
    drop(sta_prof);
    let _score_prof = ctx.prof.scope("score");
    let drc: usize = analyses.iter().map(|t| t.violations().len()).sum();
    if drc > ctx.drc_baseline {
        return Err(CandidateFailure::Drc {
            violations: drc,
            baseline: ctx.drc_baseline,
        });
    }
    let skews = analyses
        .iter()
        .map(|t| try_pair_skews(t, ctx.pairs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(CandidateFailure::Timing)?;
    let sum = variation_report(&skews, ctx.alphas, None).sum;
    let locals: Vec<f64> = skews.iter().map(|s| local_skew_ps(s)).collect();
    let sum_star = ctx.star.map(|sa| variation_report(&skews, sa, None).sum);
    Ok((sum, locals, sum_star, trial))
}

/// Runs Algorithm 2 on `tree` in place.
///
/// # Panics
///
/// Panics if the incoming tree cannot be timed; use
/// [`local_optimize_checked`] for a typed error instead.
pub fn local_optimize(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    ranker: Ranker<'_>,
    cfg: &LocalConfig,
) -> LocalReport {
    local_optimize_guarded(tree, lib, fp, ranker, cfg, None)
}

/// [`local_optimize`] with an explicit local-skew guard baseline
/// (ps per corner); `None` derives it from the incoming tree. Flows pass
/// the original tree's skews so per-phase guards do not compound.
///
/// # Panics
///
/// Panics if the incoming tree cannot be timed; use
/// [`local_optimize_checked`] for a typed error instead.
pub fn local_optimize_guarded(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    ranker: Ranker<'_>,
    cfg: &LocalConfig,
    guard_baseline: Option<&[f64]>,
) -> LocalReport {
    let mut ctx = FaultCtx::passive();
    match local_optimize_checked(
        tree,
        lib,
        fp,
        ranker,
        cfg,
        guard_baseline,
        &mut ctx,
        &PhaseBudget::unlimited(),
    ) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// The checked core of Algorithm 2: runs on `tree` in place under a
/// fault context (injection plan, fault log, deadline) and a phase
/// budget, returning typed errors instead of panicking.
///
/// Worker-thread failures (typed or panics) are isolated per candidate:
/// a poisoned candidate is counted in [`LocalReport::rejects`] (panics
/// are also recorded in the fault log) and can never corrupt the
/// committed tree, which only ever advances through a verified
/// [`TreeTxn`] commit.
///
/// # Errors
///
/// [`FlowError::Timing`] when the *incoming* tree cannot be timed —
/// everything after that baseline is absorbed and degraded.
#[allow(clippy::too_many_arguments)]
pub fn local_optimize_checked(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    ranker: Ranker<'_>,
    cfg: &LocalConfig,
    guard_baseline: Option<&[f64]>,
    ctx: &mut FaultCtx<'_>,
    budget: &PhaseBudget,
) -> Result<LocalReport, FlowError> {
    // the coordinator's timer observes the phase deadline; candidate
    // workers deliberately do NOT (a shared deadline observed from
    // racing threads would make the accepted-move sequence depend on
    // scheduling). Cancellation is acknowledged at coordinator safe
    // points: iteration top, candidate-scoring stride, batch boundary.
    let timer = Timer::golden().with_deadline(ctx.deadline.clone());
    let pairs: Vec<SinkPair> = tree.sink_pairs().to_vec();
    // alphas are an input parameter fixed on the incoming tree
    let analyses0 = timer.try_analyze_all(tree, lib)?;
    let skews0 = analyses0
        .iter()
        .map(|t| try_pair_skews(t, &pairs))
        .collect::<Result<Vec<_>, _>>()?;
    let alphas = alpha_factors(&skews0);
    let variation_before = variation_report(&skews0, &alphas, None).sum;
    let guard: Vec<f64> = match guard_baseline {
        Some(b) => b
            .iter()
            .map(|s| s * cfg.skew_guard_factor + cfg.skew_guard_ps)
            .collect(),
        None => skews0
            .iter()
            .map(|s| local_skew_ps(s) * cfg.skew_guard_factor + cfg.skew_guard_ps)
            .collect(),
    };

    let mut rng_state = match ranker {
        Ranker::Random(seed) => seed | 1,
        _ => 1,
    };
    let mut xorshift = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let mut report = LocalReport {
        variation_before,
        variation_after: variation_before,
        iterations: Vec::new(),
        golden_evals: 0,
        rejects: CandidateRejects::default(),
    };
    let mut current_sum = variation_before;
    let obs = ctx.obs.clone();
    // decision-ledger checkpoints are priced under the flow-level α*
    // (published at flow init); the accept decisions below keep using the
    // phase-local alphas, so QoR behavior is unchanged by ledgering
    let ledger = obs.ledger();
    let star_owned = ledger.alphas();
    let star: Option<&[f64]> = ledger
        .is_enabled()
        .then(|| star_owned.as_deref().unwrap_or(&alphas));
    // the paper's guarantee: no new max-cap / max-transition violations
    let drc_baseline: usize = analyses0.iter().map(|t| t.violations().len()).sum();

    let max_iterations = budget.clamp_iterations(cfg.max_iterations);
    if max_iterations < cfg.max_iterations {
        ctx.record(
            "local",
            FaultKind::IterationBudget,
            RecoveryAction::Degrade,
            format!(
                "iterations capped {} -> {max_iterations}",
                cfg.max_iterations
            ),
        );
    }

    // resolved once per phase: the stripe width of every batch
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.workers
    };
    obs.gauge_set("local.workers", workers as i64);

    let mut interrupted = false;
    'outer: for iter in 0..max_iterations {
        let mut iter_span = obs.span_at(Level::Debug, "local.iter", vec![kv("iter", iter as u64)]);
        if ctx.out_of_time() {
            ctx.record_interrupt(
                "local",
                RecoveryAction::Degrade,
                format!(
                    "deadline cut after {} accepted moves; returning best-so-far",
                    report.iterations.len()
                ),
            );
            iter_span.record("outcome", "interrupted");
            interrupted = true;
            break;
        }
        if report.golden_evals >= cfg.max_golden_evals {
            break;
        }
        // the committed tree is always re-timeable, so an interrupt here
        // is the deadline cutting the walk, not a broken tree
        let timings: Vec<CornerTiming> = match timer.try_analyze_all(tree, lib) {
            Ok(t) => t,
            Err(TimingError::Interrupted) => {
                ctx.record_interrupt(
                    "local",
                    RecoveryAction::Degrade,
                    format!(
                        "deadline cut re-timing at iteration {iter}; returning best-so-far ({} accepted moves)",
                        report.iterations.len()
                    ),
                );
                iter_span.record("outcome", "interrupted");
                interrupted = true;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        // golden per-corner local skews of the committed tree: the
        // baseline for per-candidate ledger deltas (ledger runs only)
        let cur_locals: Option<Vec<f64>> = star.and_then(|_| {
            timings
                .iter()
                .map(|t| try_pair_skews(t, &pairs).map(|s| local_skew_ps(&s)))
                .collect::<Result<Vec<_>, _>>()
                .ok()
        });
        let moves = enumerate_moves(tree, lib, &cfg.move_cfg, None);
        if moves.is_empty() {
            break;
        }
        // ---- rank all candidates by predicted variation reduction ----
        // The ranking workers read one per-iteration context. The
        // deadline is polled here, on the coordinator, before every
        // block after the first (`rank_blocks`); the blocks depend on
        // the move list alone, so a poll-counted trip cuts at the same
        // move at any worker count.
        let predict_prof = obs.prof_scope("local.predict");
        let mut cut = None;
        let mut poll = |mv_no: usize| {
            let out = ctx.out_of_time();
            if out {
                cut = Some(mv_no);
            }
            out
        };
        let ranked = match ranker {
            Ranker::Random(_) => {
                let mut gains = Vec::with_capacity(moves.len());
                let mut stopped = false;
                for (b, block) in rank_blocks(&moves).into_iter().enumerate() {
                    if b > 0 && poll(block.start) {
                        stopped = true;
                        break;
                    }
                    gains.extend(block.map(|_| (xorshift() % 1_000) as f64));
                }
                (!stopped).then_some(gains)
            }
            _ => {
                let rc = RankContext::new(tree, lib, &timings, &pairs, &alphas);
                rc.gains_until(&moves, &cfg.move_cfg, ranker, workers, &mut poll)
                    .map(|(gains, mut work)| {
                        // a whole sweep's counts only: how far a cut
                        // sweep got depends on thread timing
                        work += rc.nets.work();
                        obs.count("local.predict.routes", work.routes);
                        obs.count("local.predict.extractions", work.extractions);
                        gains
                    })
            }
        };
        let Some(gains) = ranked else {
            let mv_no = cut.unwrap_or_default();
            ctx.record_interrupt(
                "local",
                RecoveryAction::Degrade,
                format!(
                    "deadline cut scoring candidate {mv_no} at iteration {iter}; returning best-so-far"
                ),
            );
            iter_span.record("outcome", "interrupted");
            interrupted = true;
            break 'outer;
        };
        let mut scored: Vec<(f64, Move)> = gains
            .into_iter()
            .zip(moves)
            .filter(|&(gain, _)| gain > cfg.min_predicted_gain_ps)
            .collect();
        drop(predict_prof);
        iter_span.record("predicted_positive", scored.len() as u64);
        obs.count("local.predicted_positive", scored.len() as u64);
        if scored.is_empty() {
            obs.event(Level::Debug, "local.no_candidates", Vec::new());
            iter_span.record("outcome", "no_candidates");
            break;
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        if obs.at(Level::Trace) {
            let top: Vec<String> = scored
                .iter()
                .take(5)
                .map(|(g, m)| format!("{m} (+{g:.2})"))
                .collect();
            obs.event(
                Level::Trace,
                "local.candidates",
                vec![kv("count", scored.len() as u64), kv("top", top.join(" | "))],
            );
        }

        // ---- realize batches of R moves until one verifies ----
        for (batch_no, batch) in scored
            .chunks(cfg.moves_per_round.max(1))
            .take(cfg.max_batches)
            .enumerate()
        {
            // batch boundary: the last committed tree is the result, so a
            // cut here costs at most one in-flight batch of evaluations
            if ctx.out_of_time() {
                ctx.record_interrupt(
                    "local",
                    RecoveryAction::Degrade,
                    format!(
                        "deadline cut before batch {batch_no} at iteration {iter}; returning best-so-far ({} accepted moves)",
                        report.iterations.len()
                    ),
                );
                iter_span.record("outcome", "interrupted");
                interrupted = true;
                break 'outer;
            }
            let mut batch_span = obs.span_at(
                Level::Debug,
                "local.batch",
                vec![
                    kv("batch", batch_no as u64),
                    kv("candidates", batch.len() as u64),
                ],
            );
            let _batch_prof = obs.prof_scope("local.batch");
            // Realize and golden-time the candidates on a striped pool
            // of `workers` threads, the calling one included (the paper
            // uses R threads; with one worker this degrades gracefully to
            // sequential evaluation on the caller). Worker `w` owns
            // candidate slots w, w+W, w+2W, ... — a fixed assignment, so
            // which thread evaluates a candidate never depends on
            // scheduling. See `eval_stripe` for the per-candidate
            // isolation and timing.
            let eval = EvalCtx {
                tree,
                lib,
                fp,
                move_cfg: &cfg.move_cfg,
                timings: &timings,
                pairs: &pairs,
                alphas: &alphas,
                star,
                drc_baseline,
                plan: ctx.plan,
                prof: obs.profiler(),
                obs: obs.clone(),
            };
            let eval = &eval;
            let n_workers = workers.min(batch.len()).max(1);
            let mut results: Vec<Option<CandidateResult>> =
                (0..batch.len()).map(|_| None).collect();
            let per_worker: Vec<Option<Stripe>> = std::thread::scope(|scope| {
                let spawn_prof = obs.prof_scope("local.spawn");
                let handles: Vec<_> = (1..n_workers)
                    // clk-analyze: allow(A101) PROF_STACK is thread_local: each worker roots its own attribution subtree, no cross-thread sharing
                    .map(|w| scope.spawn(move || eval_stripe(eval, batch, w, n_workers)))
                    .collect();
                drop(spawn_prof);
                // the calling thread takes stripe 0, as in ranking; its
                // evaluations nest under `local.batch`
                let mut per_worker = vec![Some(eval_stripe(eval, batch, 0, n_workers))];
                // spawning and joining the other stripes are the calling
                // thread's own share of the batch too; a worker thread
                // dying outside the per-candidate guard leaves its
                // stripe's slots None (counted as panicked), never aborts
                // the phase
                let _join_prof = obs.prof_scope("local.join");
                per_worker.extend(handles.into_iter().map(|h| h.join().ok()));
                per_worker
            });
            // scatter by slot index: result order is the candidate
            // order, independent of worker count or completion order
            for stripe in per_worker.into_iter().flatten() {
                for (i, r) in stripe {
                    results[i] = r;
                }
            }
            // the coordinator's own share of the batch: tallying the
            // verdicts, then committing the winner
            let _commit_prof = obs.prof_scope("local.commit");
            report.golden_evals += batch.len();
            obs.count("local.golden_evals", batch.len() as u64);

            let mut best: Option<(usize, f64)> = None;
            let slot_base = (batch_no * cfg.moves_per_round.max(1)) as u64;
            for (i, r) in results.iter().enumerate() {
                let (outcome, measured) = match r {
                    None => {
                        report.rejects.panicked += 1;
                        obs.count("local.reject.panicked", 1);
                        ctx.record(
                            "local",
                            FaultKind::WorkerPanic,
                            RecoveryAction::Skip,
                            format!("candidate {} ({}) isolated", i, batch[i].1),
                        );
                        ("panicked", None)
                    }
                    Some(Err(CandidateFailure::Apply(e))) => {
                        report.rejects.apply_failed += 1;
                        obs.count("local.reject.apply_failed", 1);
                        let _ = e;
                        ("apply_failed", None)
                    }
                    Some(Err(CandidateFailure::Timing(e))) => {
                        report.rejects.timing_failed += 1;
                        obs.count("local.reject.timing_failed", 1);
                        let _ = e;
                        ("timing_failed", None)
                    }
                    Some(Err(CandidateFailure::Drc { .. })) => {
                        report.rejects.drc += 1;
                        obs.count("local.reject.drc", 1);
                        ("drc", None)
                    }
                    Some(Ok((sum, locals, _, _))) => {
                        let ok = locals.iter().zip(&guard).all(|(l, g)| l <= g);
                        if ok && *sum < current_sum && best.is_none_or(|(_, b)| *sum < b) {
                            best = Some((i, *sum));
                        } else {
                            report.rejects.not_improving += 1;
                            obs.count("local.reject.not_improving", 1);
                        }
                        // how far the ranker's promise missed the golden
                        // measurement, per candidate (+ = over-promised)
                        obs.observe("local.predict.err_ps", batch[i].0 - (current_sum - sum));
                        let improving = ok && *sum < current_sum;
                        (
                            if improving {
                                "improving"
                            } else {
                                "not_improving"
                            },
                            Some(current_sum - sum),
                        )
                    }
                };
                if obs.ledgering() {
                    let deltas = match r {
                        Some(Ok((_, locals, _, _))) => cur_locals
                            .as_ref()
                            .map(|cur| locals.iter().zip(cur).map(|(l, c)| l - c).collect()),
                        _ => None,
                    };
                    obs.ledger_append(LedgerRecord::LocalCand {
                        iter: iter as u64,
                        slot: slot_base + i as u64,
                        mv: batch[i].1.to_ledger_rec(),
                        predicted: batch[i].0,
                        measured,
                        deltas,
                        outcome: outcome.to_string(),
                    });
                }
            }
            if obs.at(Level::Trace) {
                let outs: Vec<String> = results
                    .iter()
                    .map(|r| match r {
                        Some(Ok((s, _, _, _))) => format!("{s:.1}"),
                        Some(Err(CandidateFailure::Drc {
                            violations,
                            baseline,
                        })) => format!("drc:{violations}>{baseline}"),
                        Some(Err(CandidateFailure::Apply(_))) => "apply!".to_string(),
                        Some(Err(CandidateFailure::Timing(_))) => "time!".to_string(),
                        None => "panic!".to_string(),
                    })
                    .collect();
                obs.event(
                    Level::Trace,
                    "local.batch_sums",
                    vec![kv("current", current_sum), kv("sums", outs.join(" "))],
                );
            }
            if let Some((i, sum)) = best {
                let Some(Some(Ok((_, _, win_star, trial)))) = results.into_iter().nth(i) else {
                    // clk-analyze: allow(A005) unreachable by construction: best index points at an Ok result
                    unreachable!("best index points at an Ok result");
                };
                // transactional commit: the verified trial replaces the
                // tree only if it holds up structurally; otherwise the
                // exact pre-batch tree is restored
                let txn = TreeTxn::begin(tree);
                *tree = trial;
                if let Err(e) = tree.validate() {
                    txn.rollback(tree);
                    ctx.record(
                        "local",
                        FaultKind::PhaseError,
                        RecoveryAction::Rollback,
                        format!("verified candidate failed validation: {e}"),
                    );
                    batch_span.record("outcome", "rollback");
                    obs.count("local.rollback", 1);
                    if obs.ledgering() {
                        obs.ledger_append(LedgerRecord::LocalCommit {
                            iter: iter as u64,
                            mv: batch[i].1.to_ledger_rec(),
                            gain: current_sum - sum,
                            committed: false,
                            var: None,
                        });
                    }
                    continue;
                }
                #[cfg(debug_assertions)]
                {
                    let report = clk_lint::LintRunner::structural()
                        .run(&clk_lint::DesignCtx::with_floorplan(tree, lib, fp));
                    if report.has_errors() {
                        txn.rollback(tree);
                        ctx.record(
                            "local",
                            FaultKind::PhaseError,
                            RecoveryAction::Rollback,
                            format!("post-commit structural lint failed:\n{}", report.to_text()),
                        );
                        batch_span.record("outcome", "rollback");
                        obs.count("local.rollback", 1);
                        if obs.ledgering() {
                            obs.ledger_append(LedgerRecord::LocalCommit {
                                iter: iter as u64,
                                mv: batch[i].1.to_ledger_rec(),
                                gain: current_sum - sum,
                                committed: false,
                                var: None,
                            });
                        }
                        continue;
                    }
                }
                txn.commit();
                if obs.ledgering() {
                    obs.ledger_append(LedgerRecord::LocalCommit {
                        iter: iter as u64,
                        mv: batch[i].1.to_ledger_rec(),
                        gain: current_sum - sum,
                        committed: true,
                        var: win_star,
                    });
                }
                current_sum = sum;
                report.variation_after = sum;
                report.iterations.push(IterationRecord {
                    move_type: batch[i].1.move_type(),
                    variation_sum: sum,
                });
                batch_span.record("outcome", "accepted");
                batch_span.record("variation_sum", sum);
                obs.count("local.accepted", 1);
                iter_span.record("outcome", "accepted");
                continue 'outer;
            }
            // freeing the losing trials is the coordinator's work too
            drop(results);
            batch_span.record("outcome", "no_winner");
        }
        // every batch failed golden verification: terminate
        iter_span.record("outcome", "exhausted");
        break;
    }
    ctx.progress = Some(if interrupted {
        PhaseProgress::interrupted(
            "local",
            report.iterations.len(),
            max_iterations,
            ctx.deadline.trigger(),
        )
    } else {
        PhaseProgress::complete("local", report.iterations.len(), max_iterations)
    });
    if obs.enabled() {
        let accepted = report.iterations.len();
        obs.event(
            Level::Debug,
            "local.summary",
            vec![
                kv("accepted", accepted as u64),
                kv("golden_evals", report.golden_evals as u64),
                kv("rejected", report.rejects.total() as u64),
                kv(
                    "predictor_precision",
                    if report.golden_evals > 0 {
                        accepted as f64 / report.golden_evals as f64
                    } else {
                        0.0
                    },
                ),
            ],
        );
    }
    Ok(report)
}

/// Sinks below each node (the node itself included when it is a sink),
/// in [`ClockTree::sinks`] order; nodes without sinks below are absent.
type SinkIndex = BTreeMap<NodeId, Vec<NodeId>>;

fn sink_index(tree: &ClockTree) -> SinkIndex {
    let mut index = SinkIndex::new();
    for s in tree.sinks() {
        let mut cur = Some(s);
        while let Some(n) = cur {
            index.entry(n).or_default().push(s);
            cur = tree.parent(n);
        }
    }
    index
}

/// Everything ranking reads that depends only on the committed tree,
/// built once per local iteration and shared read-only by the ranking
/// workers: the fast estimates of every driver net
/// ([`CommittedNets`]), the sinks below every node, and the sink pairs
/// indexed by sink with their pre-move skews and variation.
#[derive(Debug)]
pub struct RankContext<'a> {
    nets: CommittedNets<'a>,
    pairs: &'a [SinkPair],
    alphas: &'a [f64],
    sinks_under: Cow<'a, SinkIndex>,
    /// Ascending indices into `pairs` of the pairs each sink is in.
    pairs_of_sink: BTreeMap<NodeId, Vec<usize>>,
    /// Per pair: its skew at every corner and its worst normalized
    /// cross-corner variation, both before any move.
    before: Vec<(Vec<f64>, f64)>,
}

impl<'a> RankContext<'a> {
    /// Builds the context of `tree` timed as `timings` (one analysis per
    /// corner), scoring `pairs` under `alphas`.
    ///
    /// # Panics
    ///
    /// Panics if a driver or a paired sink was not timed.
    pub fn new(
        tree: &'a ClockTree,
        lib: &'a Library,
        timings: &'a [CornerTiming],
        pairs: &'a [SinkPair],
        alphas: &'a [f64],
    ) -> Self {
        let nets = CommittedNets::new(tree, lib, timings);
        Self::with_parts(nets, timings, pairs, alphas, Cow::Owned(sink_index(tree)))
    }

    fn with_parts(
        nets: CommittedNets<'a>,
        timings: &[CornerTiming],
        pairs: &'a [SinkPair],
        alphas: &'a [f64],
        sinks_under: Cow<'a, SinkIndex>,
    ) -> Self {
        let mut pairs_of_sink: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, p) in pairs.iter().enumerate() {
            pairs_of_sink.entry(p.a).or_default().push(i);
            pairs_of_sink.entry(p.b).or_default().push(i);
        }
        let n_corners = timings.len();
        let before = pairs
            .iter()
            .map(|p| {
                let skew: Vec<f64> = timings
                    .iter()
                    .map(|t| t.arrival_ps(p.a) - t.arrival_ps(p.b))
                    .collect();
                let mut v: f64 = 0.0;
                for k in 0..n_corners {
                    for k2 in (k + 1)..n_corners {
                        v = v.max((alphas[k] * skew[k] - alphas[k2] * skew[k2]).abs());
                    }
                }
                (skew, v)
            })
            .collect();
        RankContext {
            nets,
            pairs,
            alphas,
            sinks_under,
            pairs_of_sink,
            before,
        }
    }

    /// Predicted reduction of the variation sum for one move: apply the
    /// predicted per-subtree latency deltas to the affected sinks and
    /// re-score the pairs those sinks belong to.
    ///
    /// # Panics
    ///
    /// Panics for [`Ranker::Random`], which predicts nothing.
    pub fn gain(&self, mv: &Move, mcfg: &MoveConfig, ranker: Ranker<'_>) -> f64 {
        let mut work = RankWork::default();
        let mut shared = self.nets.shared(mv, mcfg, &mut work);
        self.shared_gain(&mut shared, mv, mcfg, ranker, &mut work)
    }

    /// [`RankContext::gain`] of `mv` against the nets its group shares.
    fn shared_gain(
        &self,
        shared: &mut SharedNets<'_>,
        mv: &Move,
        mcfg: &MoveConfig,
        ranker: Ranker<'_>,
        work: &mut RankWork,
    ) -> f64 {
        let per_corner = self.nets.shared_features(shared, mv, mcfg, work);
        let n_corners = per_corner.len();
        // per-sink deltas, resolved from per-corner (subtree root,
        // delta ps) impact sets
        let mut sink_delta: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for (k, (features, detail)) in per_corner.into_iter().enumerate() {
            let corner = CornerId(k);
            let primary = match ranker {
                Ranker::Ml(model) => model.predict(corner, &features),
                Ranker::Analytic(topo, wm) => {
                    let idx = match (topo, wm) {
                        (Topo::Flute, WireModel::Elmore) => 0,
                        (Topo::Flute, WireModel::D2m) => 1,
                        (Topo::SingleTrunk, WireModel::Elmore) => 2,
                        (Topo::SingleTrunk, WireModel::D2m) => 3,
                    };
                    features[idx]
                }
                // clk-analyze: allow(A005) unreachable by construction: random never predicts
                Ranker::Random(_) => unreachable!("random never predicts"),
            };
            // keep the analytical *differential* structure between the
            // children, shifted so the mean matches the (calibrated)
            // primary prediction
            let correction = primary - detail.primary_delta;
            let mut imp: Vec<(NodeId, f64)> = detail
                .per_child
                .iter()
                .map(|&(c, d)| (c, d + correction))
                .collect();
            if imp.is_empty() {
                imp.push((mv.primary_node(), primary));
            }
            imp.extend(detail.side_effects);
            for (root, delta) in imp {
                if delta == 0.0 {
                    continue;
                }
                for &s in self.sinks_under.get(&root).into_iter().flatten() {
                    sink_delta.entry(s).or_insert_with(|| vec![0.0; n_corners])[k] += delta;
                }
            }
        }
        // re-score the affected pairs, in pair order
        let mut touched: Vec<usize> = sink_delta
            .keys()
            .flat_map(|s| self.pairs_of_sink.get(s).into_iter().flatten().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let alphas = self.alphas;
        let mut gain = 0.0;
        for i in touched {
            let p = &self.pairs[i];
            let (skew, v_before) = &self.before[i];
            let da = sink_delta.get(&p.a);
            let db = sink_delta.get(&p.b);
            let d = |m: Option<&Vec<f64>>, kk: usize| m.map_or(0.0, |v| v[kk]);
            let mut v_after: f64 = 0.0;
            for k in 0..n_corners {
                for k2 in (k + 1)..n_corners {
                    let ns_k = skew[k] + d(da, k) - d(db, k);
                    let ns_k2 = skew[k2] + d(da, k2) - d(db, k2);
                    v_after = v_after.max((alphas[k] * ns_k - alphas[k2] * ns_k2).abs());
                }
            }
            gain += v_before - v_after;
        }
        gain
    }

    /// [`RankContext::gain`] of every move, with what ranking them cost
    /// (the committed nets' cost aside).
    pub fn gains(
        &self,
        moves: &[Move],
        mcfg: &MoveConfig,
        ranker: Ranker<'_>,
        workers: usize,
    ) -> (Vec<f64>, RankWork) {
        self.gains_until(moves, mcfg, ranker, workers, |_| false)
            // clk-analyze: allow(A005) unreachable by construction: a hook that never stops never cuts the sweep
            .unwrap_or_else(|| unreachable!("a sweep that is never stopped finishes"))
    }

    /// [`RankContext::gains`], asking `stop` on the calling thread
    /// before each ranking block after the first (`rank_blocks`), with
    /// the block's first move index; `None` once it answers `true`.
    ///
    /// The moves are split into the groups that share their displaced
    /// nets (a primary node's moves in one direction, or its
    /// reassignments), and each group is ranked against one set of
    /// shared nets. `workers` scoped threads (the calling thread one of
    /// them, as in the candidate-evaluation pool) claim the groups in
    /// order from a shared cursor, up to the end of the blocks released
    /// so far. The calling thread asks `stop` about
    /// (and releases) the next block once the last released one is
    /// being claimed, so the others rarely wait, and the questions come
    /// in block order, one per block, at any worker count. Gains are
    /// gathered by move index and work counts summed, so a whole sweep's
    /// result is the same for every worker count and interleaving.
    pub fn gains_until(
        &self,
        moves: &[Move],
        mcfg: &MoveConfig,
        ranker: Ranker<'_>,
        workers: usize,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Option<(Vec<f64>, RankWork)> {
        let groups = share_groups(moves);
        // each block as a range of groups: blocks end at family ends,
        // and families are contiguous in `groups`
        let blocks: Vec<(usize, Range<usize>)> = rank_blocks(moves)
            .into_iter()
            .map(|b| {
                let first = |mv: usize| groups.partition_point(|g| g[0] < mv);
                (b.start, first(b.start)..first(b.end))
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let released = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let claim = || {
            cursor
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                    (c < released.load(Ordering::Acquire)).then_some(c + 1)
                })
                .ok()
        };
        let rank = |g: usize, out: &mut Vec<(usize, f64)>, work: &mut RankWork| {
            let mut shared = self.nets.shared(&moves[groups[g][0]], mcfg, work);
            for &i in &groups[g] {
                out.push((
                    i,
                    self.shared_gain(&mut shared, &moves[i], mcfg, ranker, work),
                ));
            }
        };
        let worker = || {
            let (mut out, mut work) = (Vec::new(), RankWork::default());
            loop {
                if let Some(g) = claim() {
                    rank(g, &mut out, &mut work);
                } else if finished.load(Ordering::Acquire) {
                    // every release happened before `finished`
                    match claim() {
                        Some(g) => rank(g, &mut out, &mut work),
                        None => break,
                    }
                } else {
                    std::thread::yield_now();
                }
            }
            (out, work)
        };
        let n_workers = workers.min(groups.len()).max(1);
        let worker = &worker;
        let (ranked, stopped) = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..n_workers).map(|_| scope.spawn(worker)).collect();
            let (mut out, mut work) = (Vec::new(), RankWork::default());
            let mut stopped = false;
            let mut next = 0;
            loop {
                // keep one block released beyond the one being claimed
                let ahead = next == 0 || cursor.load(Ordering::Acquire) >= blocks[next - 1].1.start;
                if next < blocks.len() && ahead {
                    let (first_move, range) = &blocks[next];
                    if next > 0 && stop(*first_move) {
                        // a cut sweep's gains are discarded: hand out no
                        // more groups
                        released.store(0, Ordering::Release);
                        stopped = true;
                        break;
                    }
                    released.store(range.end, Ordering::Release);
                    next += 1;
                } else if let Some(g) = claim() {
                    rank(g, &mut out, &mut work);
                } else if next == blocks.len() {
                    // every block released and claimed
                    break;
                }
                // else the others claimed the rest of the released
                // blocks since `ahead` was read: release the next
            }
            finished.store(true, Ordering::Release);
            let mut ranked = vec![(out, work)];
            for h in handles {
                ranked.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            (ranked, stopped)
        });
        if stopped {
            return None;
        }
        let mut gains = vec![0.0; moves.len()];
        let mut work = RankWork::default();
        for (scored, scored_work) in ranked {
            for (i, g) in scored {
                gains[i] = g;
            }
            work += scored_work;
        }
        Some((gains, work))
    }
}

/// `moves` split into the groups that share nets ([`Group`]), as indices
/// into `moves`: family by family (a family is a run of moves of one
/// primary node), each family's groups in order of first appearance.
fn share_groups(moves: &[Move]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(Group, Vec<usize>)> = Vec::new();
    let mut family_start = 0;
    for (i, mv) in moves.iter().enumerate() {
        if i > 0 && moves[i - 1].primary_node() != mv.primary_node() {
            family_start = groups.len();
        }
        let group = Group::of(mv);
        match groups[family_start..].iter_mut().find(|(g, _)| *g == group) {
            Some((_, members)) => members.push(i),
            None => groups.push((group, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Predicted reduction of the variation sum for one move: apply the
/// predicted per-subtree latency deltas to the affected sinks and re-score
/// the affected pairs. Public so experiments (Fig. 6) can rank moves with
/// any [`Ranker`] outside the full Algorithm-2 loop; ranking many moves
/// on one tree is cheaper through one [`RankContext`]. `subtree_cache`
/// holds the sinks below every node of `tree`: it is filled on the first
/// call and reused by later calls on the same tree.
#[allow(clippy::too_many_arguments)]
pub fn predict_move_gain(
    tree: &ClockTree,
    lib: &Library,
    timings: &[CornerTiming],
    pairs: &[SinkPair],
    alphas: &[f64],
    mv: &Move,
    mcfg: &MoveConfig,
    ranker: Ranker<'_>,
    subtree_cache: &mut BTreeMap<NodeId, Vec<NodeId>>,
) -> f64 {
    if subtree_cache.is_empty() {
        *subtree_cache = sink_index(tree);
    }
    let nets = CommittedNets::for_move(tree, lib, corners_of(timings), mv);
    RankContext::with_parts(nets, timings, pairs, alphas, Cow::Borrowed(&*subtree_cache))
        .gain(mv, mcfg, ranker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Deadline, FaultPlan};
    use crate::predictor::{DeltaLatencyModel, ModelKind, TrainConfig};
    use clk_cts::{Testcase, TestcaseKind};
    use clk_ml::MlpConfig;

    fn quick_local() -> LocalConfig {
        LocalConfig {
            max_iterations: 4,
            max_batches: 2,
            ..LocalConfig::default()
        }
    }

    #[test]
    fn analytic_ranker_reduces_variation() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 21);
        let mut tree = tc.tree.clone();
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            &quick_local(),
        );
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
        // accepted moves must strictly decrease the tracked sum
        let mut last = report.variation_before;
        for it in &report.iterations {
            assert!(it.variation_sum < last);
            last = it.variation_sum;
        }
    }

    #[test]
    fn ml_ranker_runs_end_to_end() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 22);
        let train = TrainConfig {
            n_cases: 6,
            moves_per_case: 10,
            mlp: MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
            ..TrainConfig::default()
        };
        let model = DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &train);
        let mut tree = tc.tree.clone();
        let cfg = LocalConfig {
            max_iterations: 2,
            ..quick_local()
        };
        let report = local_optimize(&mut tree, &tc.lib, &tc.floorplan, Ranker::Ml(&model), &cfg);
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
    }

    #[test]
    fn random_ranker_never_degrades_committed_tree() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 23);
        let mut tree = tc.tree.clone();
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Random(99),
            &quick_local(),
        );
        // the golden gate rejects bad random moves
        assert!(report.variation_after <= report.variation_before);
    }

    #[test]
    fn injected_worker_panic_is_isolated_and_logged() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 24);
        let plan = FaultPlan::inert(5);
        plan.arm(FaultSite::WorkerPanic, 0, 2);
        let mut ctx = FaultCtx::new(Some(&plan), Deadline::none());
        let mut tree = tc.tree.clone();
        let report = local_optimize_checked(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            &quick_local(),
            None,
            &mut ctx,
            &PhaseBudget::unlimited(),
        )
        .expect("flow survives worker panics");
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
        assert_eq!(report.rejects.panicked, plan.injected().len());
        assert_eq!(
            ctx.log.of_kind(FaultKind::WorkerPanic).count(),
            plan.injected().len()
        );
        assert!(
            !plan.injected().is_empty(),
            "plan never got an opportunity to fire"
        );
    }

    #[test]
    fn iteration_budget_degrades_and_is_logged() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 25);
        let mut ctx = FaultCtx::passive();
        let mut tree = tc.tree.clone();
        let budget = PhaseBudget {
            wall_clock: None,
            max_iterations: Some(1),
        };
        let report = local_optimize_checked(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            &quick_local(),
            None,
            &mut ctx,
            &budget,
        )
        .expect("budgeted run completes");
        assert!(report.iterations.len() <= 1);
        assert_eq!(ctx.log.of_kind(FaultKind::IterationBudget).count(), 1);
    }
}
