//! Bit-identity oracle for the simplex.
//!
//! Solves a seeded family of LPs and hashes every bit the solver hands
//! back: `x`, `objective`, `iterations` and the whole `Certificate`
//! (basis, status, `y`, reduced costs), or the Farkas ray / error of a
//! solve that does not end optimal. The hash is pinned, so any change to
//! the solver's internals that moves a single pivot, a single rounding or
//! a single tie-break fails here, even when the optimum stays the same.
//!
//! Two families are solved:
//! - LPs shaped like the global skew-variation LP (Eqs. (4)–(11)): many
//!   more rows than columns, ±1 path-sum rows over bounded Δ⁺/Δ⁻ pairs,
//!   `Ge` rows whose slack basis is infeasible (phase 1), integer data
//!   and equal costs that make ties and degenerate pivots common, and
//!   free variables pinned by equality rows. Some of them are made
//!   infeasible on purpose so the Farkas path is hashed too.
//! - Small dense boxes like the solver's own `random_lps_*` unit test.
//!
//! A change that legitimately moves the pivot sequence must re-record
//! `EXPECTED` and say why in CHANGELOG.md, and only together with the
//! objective oracle below: every optimal LP of the family, and three
//! global-shaped LPs about twice the flow's size, must still reach the
//! exact optimal objective recorded from the explicit-inverse solver
//! (within the certificate tolerance), and every solution must certify.
//!
//! The same family pins the exact certificate checker: every `clk_cert`
//! `Report` (check count, `max_resid` bits, each rendered violation) on
//! the honest outcome and on a perturbed-dual and a dropped-basis copy of
//! it is hashed into `EXPECTED_REPORTS`, so a change to the checker's
//! arithmetic that moves one verdict, residual or message fails here.
//!
//! The family also checks warm starts ([`clk_lp::Lp`]): every LP that
//! solves optimal is re-priced twice and re-solved from its last optimal
//! basis. Each warm and cold solution must certify, and their objectives
//! must agree within the certificate tolerance. A handle's cold solves
//! hash to `EXPECTED` as well, a re-solve at unchanged costs takes no
//! pivot, a solve that does not end optimal keeps no basis, and a λ
//! sweep over the global-shaped LPs keeps the Δ spend monotone.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cert::{check, check_infeasible, objectives_agree, Report};
use clk_lp::{
    solve_certified, Certified, Lp, LpError, Problem, RowKind, Solution, VarId, VarStatus,
};
use clk_obs::{Deadline, Obs};

/// Recorded from the solver that keeps only the kernel inverse K⁻¹.
const EXPECTED: u64 = 0x6746_4a4a_ee8e_888b;

/// Recorded from the checker on the outcomes of that solver.
const EXPECTED_REPORTS: u64 = 0x6c28_a259_dc3b_3a14;

const INF: f64 = f64::INFINITY;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

fn hash_report(h: &mut Fnv, r: &Report) {
    h.word(r.checks as u64);
    h.word(r.max_resid.to_bits());
    h.word(r.violations.len() as u64);
    for v in &r.violations {
        h.text(&v.to_string());
    }
}

fn hash_outcome(h: &mut Fnv, r: &Result<Certified, LpError>) {
    match r {
        Ok(Certified::Optimal(s)) => {
            h.word(1);
            h.f64s(&s.x);
            h.word(s.objective.to_bits());
            h.word(s.iterations as u64);
            let c = &s.certificate;
            h.word(c.basis.len() as u64);
            for &b in &c.basis {
                h.word(b as u64);
            }
            h.word(c.status.len() as u64);
            for st in &c.status {
                h.word(match st {
                    VarStatus::Basic => 0,
                    VarStatus::AtLower => 1,
                    VarStatus::AtUpper => 2,
                    VarStatus::Free => 3,
                });
            }
            h.f64s(&c.y);
            h.f64s(&c.reduced);
        }
        Ok(Certified::Infeasible { ray }) => {
            h.word(2);
            h.f64s(&ray.y);
        }
        Err(e) => {
            h.word(3);
            for b in e.to_string().bytes() {
                h.word(u64::from(b));
            }
        }
    }
}

/// A random rooted tree of `n_arcs` arcs; returns each leaf's root path
/// as a list of arc indices.
fn leaf_paths(rng: &mut Rng, n_arcs: usize) -> Vec<Vec<usize>> {
    // arc a hangs below node parent[a]; node 0 is the root, node a+1 is
    // the head of arc a
    let mut parent_arc: Vec<Option<usize>> = Vec::with_capacity(n_arcs);
    let mut has_child = vec![false; n_arcs];
    for a in 0..n_arcs {
        let node = if a == 0 { 0 } else { rng.below(a + 1) };
        let p = node.checked_sub(1);
        if let Some(pa) = p {
            has_child[pa] = true;
        }
        parent_arc.push(p);
    }
    (0..n_arcs)
        .filter(|&a| !has_child[a])
        .map(|leaf| {
            let mut path = vec![leaf];
            let mut cur = parent_arc[leaf];
            while let Some(a) = cur {
                path.push(a);
                cur = parent_arc[a];
            }
            path.reverse();
            path
        })
        .collect()
}

/// One LP shaped like the global skew-variation LP.
fn global_shaped(rng: &mut Rng, n_arcs: usize, n_pairs: usize, infeasible: bool) -> Problem {
    const CORNERS: usize = 3;
    let alphas = [1.0, 1.25, 0.75];
    let lambda = [0.5, 1.0, 2.0][rng.below(3)];
    let mut p = Problem::new();
    // Δ⁺/Δ⁻ per arc per corner; integer bounds and equal costs make ties
    let mut delta: Vec<[(VarId, VarId); CORNERS]> = Vec::with_capacity(n_arcs);
    for a in 0..n_arcs {
        let frozen = a % 7 == 3;
        let mut per = [(VarId(0), VarId(0)); CORNERS];
        for slot in &mut per {
            let (up, down) = if frozen {
                (0.0, 0.0)
            } else {
                ((1 + rng.below(6)) as f64, rng.below(5) as f64)
            };
            let pos = p.add_var(0.0, up, lambda).unwrap();
            let neg = p.add_var(0.0, down, lambda).unwrap();
            *slot = (pos, neg);
        }
        delta.push(per);
    }
    let paths = leaf_paths(rng, n_arcs);
    let lat: Vec<[f64; CORNERS]> = paths
        .iter()
        .map(|path| {
            let mut l = [0.0; CORNERS];
            for (k, lk) in l.iter_mut().enumerate() {
                *lk = path.len() as f64 * (10.0 + 2.0 * k as f64) + rng.below(4) as f64;
            }
            l
        })
        .collect();
    let sum_terms = |path: &[usize], k: usize, c: f64, terms: &mut Vec<(VarId, f64)>| {
        for &a in path {
            let (pos, neg) = delta[a][k];
            terms.push((pos, c));
            terms.push((neg, -c));
        }
    };
    for _ in 0..n_pairs {
        let a = rng.below(paths.len());
        let b = (a + 1 + rng.below(paths.len().max(2) - 1)) % paths.len();
        let v = p.add_var(0.0, INF, 1.0).unwrap();
        // free skew variable per corner, pinned by an Eq row:
        // u_k − S_k(Δ) = S_k(0)
        let s0: Vec<f64> = (0..CORNERS).map(|k| lat[a][k] - lat[b][k]).collect();
        let mut u = Vec::with_capacity(CORNERS);
        for (k, &s0k) in s0.iter().enumerate() {
            let uk = p.add_var(-INF, INF, 0.0).unwrap();
            let mut terms = vec![(uk, 1.0)];
            sum_terms(&paths[a], k, -1.0, &mut terms);
            sum_terms(&paths[b], k, 1.0, &mut terms);
            p.add_row(RowKind::Eq, s0k, &terms).unwrap();
            u.push(uk);
        }
        // (6): V ≥ ±(αk·S_k − αk'·S_k'), written over the path sums so the
        // slack basis starts infeasible wherever the skew is nonzero
        for k in 0..CORNERS {
            for k2 in (k + 1)..CORNERS {
                let base = alphas[k] * s0[k] - alphas[k2] * s0[k2];
                for sign in [1.0, -1.0] {
                    let mut terms = vec![(v, 1.0)];
                    sum_terms(&paths[a], k, -sign * alphas[k], &mut terms);
                    sum_terms(&paths[b], k, sign * alphas[k], &mut terms);
                    sum_terms(&paths[a], k2, sign * alphas[k2], &mut terms);
                    sum_terms(&paths[b], k2, -sign * alphas[k2], &mut terms);
                    p.add_row(RowKind::Ge, sign * base, &terms).unwrap();
                }
            }
        }
        // (7): |u_k| ≤ |S_k(0)|, on the free variables
        for (k, &uk) in u.iter().enumerate() {
            let cap = s0[k].abs();
            p.add_row(RowKind::Le, cap, &[(uk, 1.0)]).unwrap();
            p.add_row(RowKind::Ge, -cap, &[(uk, 1.0)]).unwrap();
        }
    }
    // (9): path latency bound per leaf per corner
    for path in &paths {
        for k in 0..CORNERS {
            let mut terms = Vec::new();
            sum_terms(path, k, 1.0, &mut terms);
            // an infeasible case asks every path to shrink by more than
            // its Δ⁻ ranges allow
            let slack = if infeasible {
                -40.0
            } else {
                rng.below(3) as f64
            };
            p.add_row(RowKind::Le, slack, &terms).unwrap();
        }
    }
    // (11): cross-corner ratio corridor per arc, k vs 0
    for per in &delta {
        let (p0, n0) = per[0];
        for &(pk, nk) in &per[1..] {
            let hi = 1.5;
            p.add_row(
                RowKind::Le,
                4.0,
                &[(pk, 1.0), (nk, -1.0), (p0, -hi), (n0, hi)],
            )
            .unwrap();
        }
    }
    p
}

/// One small dense box like the solver's `random_lps_*` unit test.
fn random_box(rng: &mut Rng, case: usize) -> Problem {
    let nv = 3 + (case % 4);
    let nr = 2 + (case % 5);
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..nv)
        .map(|_| {
            p.add_var(0.0, 1.0 + 4.0 * rng.unit(), 2.0 * rng.unit() - 1.0)
                .unwrap()
        })
        .collect();
    for r in 0..nr {
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 2.0 * rng.unit() - 0.5)).collect();
        if r % 3 == 2 {
            p.add_row(RowKind::Ge, -0.5 - rng.unit(), &terms).unwrap();
        } else {
            p.add_row(RowKind::Le, 0.5 + 3.0 * rng.unit(), &terms)
                .unwrap();
        }
    }
    p
}

/// The seeded family: 24 global-shaped LPs, then 40 small dense boxes.
fn family() -> Vec<Problem> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::with_capacity(64);
    for case in 0..24 {
        let n_arcs = 5 + case % 5;
        let n_pairs = n_arcs + 2 + case % 3;
        let p = global_shaped(&mut rng, n_arcs, n_pairs, case % 8 == 5);
        assert!(
            2 * p.num_rows() > 3 * p.num_vars(),
            "case {case}: fewer than 1.5 rows per column"
        );
        out.push(p);
    }
    for case in 0..40 {
        out.push(random_box(&mut rng, case));
    }
    out
}

#[test]
fn simplex_outputs_are_bit_identical_to_the_recorded_run() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut optimal = 0;
    let mut infeasible = 0;
    let mut pivots = 0;
    let lps = family();
    for p in &lps[..24] {
        let r = solve_certified(p);
        match &r {
            Ok(Certified::Optimal(s)) => {
                optimal += 1;
                pivots += s.iterations;
            }
            Ok(Certified::Infeasible { .. }) => infeasible += 1,
            Err(_) => {}
        }
        hash_outcome(&mut h, &r);
    }
    for p in &lps[24..] {
        hash_outcome(&mut h, &solve_certified(p));
    }
    // the family must exercise what it claims to
    assert!(optimal >= 16, "{optimal} optimal global-shaped LPs");
    assert!(infeasible >= 2, "{infeasible} infeasible global-shaped LPs");
    assert!(pivots >= 2000, "{pivots} pivots");
    assert_eq!(
        h.0, EXPECTED,
        "simplex outputs moved: hash {:#018x}, recorded {EXPECTED:#018x}",
        h.0
    );
}

#[test]
fn certificate_reports_are_identical_to_the_recorded_run() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut certified, mut rejected) = (0, 0);
    for (case, p) in family().iter().enumerate() {
        let reports = match solve_certified(p) {
            Ok(Certified::Optimal(s)) => {
                let mut perturbed = s.clone();
                let y = &mut perturbed.certificate.y;
                if !y.is_empty() {
                    let i = case % y.len();
                    y[i] += 0.25 * (1.0 + y[i].abs());
                }
                let mut dropped = s.clone();
                dropped.certificate.basis.pop();
                [check(p, &s), check(p, &perturbed), check(p, &dropped)]
            }
            Ok(Certified::Infeasible { ray }) => {
                let mut perturbed = ray.clone();
                let i = case % perturbed.y.len();
                perturbed.y[i] += 0.25 * (1.0 + perturbed.y[i].abs());
                let mut dropped = ray.clone();
                dropped.y.pop();
                [
                    check_infeasible(p, &ray),
                    check_infeasible(p, &perturbed),
                    check_infeasible(p, &dropped),
                ]
            }
            Err(_) => continue,
        };
        let [honest, perturbed, dropped] = &reports;
        assert!(honest.ok(), "case {case}: {:?}", honest.violations);
        assert!(!dropped.ok(), "case {case}: dropped copy verified");
        certified += 1;
        rejected += usize::from(!perturbed.ok());
        for r in &reports {
            hash_report(&mut h, r);
        }
    }
    // the family must exercise what it claims to
    assert!(certified >= 56, "{certified} certified outcomes");
    assert!(rejected >= 40, "{rejected} rejected perturbed copies");
    assert_eq!(
        h.0, EXPECTED_REPORTS,
        "checker reports moved: hash {:#018x}, recorded {EXPECTED_REPORTS:#018x}",
        h.0
    );
}

fn optimal(r: Result<Certified, LpError>, case: usize, what: &str) -> Solution {
    match r {
        Ok(Certified::Optimal(s)) => s,
        other => panic!("case {case}: {what} solve did not end optimal: {other:?}"),
    }
}

#[test]
fn warm_solves_after_repricing_agree_with_cold_solves() {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let (mut warm_solves, mut warm_pivots, mut cold_pivots) = (0, 0, 0);
    for (case, p) in family().into_iter().enumerate() {
        let mut lp = Lp::new(p);
        if !matches!(lp.solve(&obs, &dl), Ok(Certified::Optimal(_))) {
            assert!(!lp.is_warm(), "case {case}: a failed solve kept its basis");
            continue;
        }
        // first the λ-sweep move (every bounded variable's cost scaled
        // alike), then an independent positive factor per variable; signs
        // are kept, so every re-priced LP stays bounded
        for pass in 0..2 {
            for j in 0..lp.problem().num_vars() {
                let v = VarId(j);
                let c = lp.problem().cost(v).unwrap();
                let (_, hi) = lp.problem().bounds(v).unwrap();
                let f = match pass {
                    0 if hi.is_finite() => 4.0,
                    0 => 1.0,
                    _ => [0.25, 0.5, 2.0, 3.0][rng.below(4)],
                };
                lp.set_cost(v, c * f).unwrap();
            }
            assert!(lp.is_warm(), "case {case}: re-pricing dropped the basis");
            let warm = optimal(lp.solve(&obs, &dl), case, "warm");
            let cold = optimal(solve_certified(lp.problem()), case, "cold");
            for (what, s) in [("warm", &warm), ("cold", &cold)] {
                let r = check(lp.problem(), s);
                assert!(r.ok(), "case {case} pass {pass} {what}: {:?}", r.violations);
            }
            assert!(
                objectives_agree(warm.objective, cold.objective),
                "case {case} pass {pass}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            warm_solves += 1;
            warm_pivots += warm.iterations;
            cold_pivots += cold.iterations;
        }
    }
    // the family must exercise what it claims to
    assert!(warm_solves >= 100, "{warm_solves} warm solves");
    assert!(
        2 * warm_pivots < cold_pivots,
        "warm starts saved too little: {warm_pivots} vs {cold_pivots} cold pivots"
    );
}

/// A handle's first solve is the cold solve: over the whole family its
/// outcomes hash to the recorded run, and a solve after
/// [`Lp::discard_basis`] repeats the free solve bit for bit.
#[test]
fn handle_cold_solves_are_bit_identical_to_the_recorded_run() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    for (case, p) in family().into_iter().enumerate() {
        let free = solve_certified(&p);
        let mut lp = Lp::new(p);
        let first = lp.solve(&obs, &dl);
        assert_eq!(first, free, "case {case}: first handle solve");
        hash_outcome(&mut h, &first);
        if lp.is_warm() {
            lp.discard_basis();
            assert_eq!(
                lp.solve(&obs, &dl),
                free,
                "case {case}: solve after discard"
            );
        }
    }
    assert_eq!(
        h.0, EXPECTED,
        "handle outcomes moved: hash {:#018x}, recorded {EXPECTED:#018x}",
        h.0
    );
}

/// Re-solving at unchanged costs finds the kept basis optimal at once:
/// no pivot, and the same point, objective and certificate.
#[test]
fn resolving_at_unchanged_costs_takes_no_pivot() {
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let mut resolved = 0;
    for (case, p) in family().into_iter().enumerate() {
        let mut lp = Lp::new(p);
        let Ok(Certified::Optimal(first)) = lp.solve(&obs, &dl) else {
            continue;
        };
        let again = optimal(lp.solve(&obs, &dl), case, "unchanged");
        assert_eq!(
            again,
            Solution {
                iterations: 0,
                ..first
            },
            "case {case}"
        );
        assert!(
            lp.is_warm(),
            "case {case}: an optimal warm solve keeps its basis"
        );
        resolved += 1;
    }
    assert!(resolved >= 56, "{resolved} optimal family LPs");
}

/// A solve that does not end optimal keeps no basis: re-pricing the LP
/// and solving again starts cold, and repeats the free solve exactly.
#[test]
fn failed_solves_keep_no_basis() {
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let mut failed = 0;
    for (case, p) in family().into_iter().enumerate() {
        let mut lp = Lp::new(p);
        let first = lp.solve(&obs, &dl);
        if matches!(first, Ok(Certified::Optimal(_))) {
            continue;
        }
        failed += 1;
        assert!(!lp.is_warm(), "case {case}: {first:?} kept a basis");
        if let Ok(Certified::Infeasible { ray }) = &first {
            let r = check_infeasible(lp.problem(), ray);
            assert!(r.ok(), "case {case}: {:?}", r.violations);
        }
        for j in 0..lp.problem().num_vars() {
            let v = VarId(j);
            let c = lp.problem().cost(v).unwrap();
            lp.set_cost(v, 2.0 * c + 0.5).unwrap();
        }
        assert!(
            !lp.is_warm(),
            "case {case}: re-pricing made the handle warm"
        );
        let again = lp.solve(&obs, &dl);
        assert_eq!(again, solve_certified(lp.problem()), "case {case}");
        assert!(!matches!(again, Ok(Certified::Optimal(_))), "case {case}");
    }
    assert!(failed >= 2, "{failed} non-optimal family LPs");
}

/// The global phase's λ sweep on the global-shaped LPs, up and then back
/// down, every point warm from the last: warm and cold optima agree, the
/// way down revisits each λ's optimal objective, and the Δ spend
/// `D = Σ(Δ⁺ + Δ⁻)` never grows with λ. For optima at λ₁ < λ₂, adding
/// the two optimality inequalities gives `(λ₂ − λ₁)·(D₂ − D₁) ≤ 0`,
/// whichever tied vertex each solve returns.
#[test]
fn lambda_sweep_trades_variation_for_delta_spend_monotonically() {
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let up = [0.02, 0.1, 0.4, 1.0, 3.0];
    let mut swept = 0;
    for (case, p) in family().into_iter().take(24).enumerate() {
        // Δ⁺/Δ⁻ are the only variables with a finite upper bound
        let deltas: Vec<VarId> = (0..p.num_vars())
            .map(VarId)
            .filter(|&v| p.bounds(v).unwrap().1.is_finite())
            .collect();
        let mut lp = Lp::new(p);
        if !matches!(lp.solve(&obs, &dl), Ok(Certified::Optimal(_))) {
            continue;
        }
        let lambdas: Vec<f64> = up.iter().chain(up.iter().rev().skip(1)).copied().collect();
        let (mut spend, mut objective) = (Vec::new(), Vec::new());
        for &lambda in &lambdas {
            for &v in &deltas {
                lp.set_cost(v, lambda).unwrap();
            }
            let warm = optimal(lp.solve(&obs, &dl), case, "warm");
            let cold = optimal(solve_certified(lp.problem()), case, "cold");
            let r = check(lp.problem(), &warm);
            assert!(r.ok(), "case {case} λ {lambda}: {:?}", r.violations);
            assert!(
                objectives_agree(warm.objective, cold.objective),
                "case {case} λ {lambda}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            spend.push(deltas.iter().map(|v| warm.x[v.0]).sum::<f64>());
            objective.push(warm.objective);
        }
        for (i, w) in lambdas.windows(2).enumerate() {
            let (d0, d1) = (spend[i], spend[i + 1]);
            // D is non-increasing in λ, in either direction of the sweep
            let grew = if w[1] > w[0] { d1 - d0 } else { d0 - d1 };
            assert!(
                grew <= 1e-6 * (1.0 + d0.abs().max(d1.abs())),
                "case {case}: spend {d0} at λ {} but {d1} at λ {}",
                w[0],
                w[1]
            );
        }
        let n = up.len();
        for i in 0..n - 1 {
            let (a, b) = (objective[i], objective[2 * n - 2 - i]);
            assert!(
                objectives_agree(a, b),
                "case {case} λ {}: objective {a} going up, {b} coming down",
                up[i]
            );
        }
        swept += 1;
    }
    assert!(swept >= 16, "{swept} swept global-shaped LPs");
}

/// Global-shaped LPs about twice the size of the flow's 12-sink global
/// LP (which has about 370 rows and 95 columns).
fn larger() -> Vec<Problem> {
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    (0..3)
        .map(|case| global_shaped(&mut rng, 26 + 2 * case, 48 + 2 * case, false))
        .collect()
}

/// Exact optimal objectives (f64 bits) of every LP of `family()` and
/// `larger()` that solves optimal, by index, recorded from the solver
/// that kept an explicit m×m basis inverse.
const RECORDED_OBJECTIVES: [(usize, u64); 64] = [
    (0, 0x402f_0000_0000_0002),
    (1, 0x4044_c000_0000_0000),
    (2, 0x4052_1666_6666_6667),
    (3, 0x403a_1999_9999_9997),
    (4, 0x4037_eaaa_aaaa_aaab),
    (6, 0x403f_c444_4444_4444),
    (7, 0x4046_4000_0000_0002),
    (8, 0x4029_2666_6666_666b),
    (9, 0x4033_aaaa_aaaa_aaac),
    (10, 0x4026_aaaa_aaaa_aaab),
    (11, 0x403b_8000_0000_0001),
    (12, 0x404b_0000_0000_0005),
    (14, 0x403a_5999_9999_99b6),
    (15, 0x403e_aaaa_aaaa_aaaa),
    (16, 0x4051_c000_0000_0000),
    (17, 0x404b_3fff_ffff_ffff),
    (18, 0x404b_6000_0000_0003),
    (19, 0x404c_6000_0000_0006),
    (20, 0x4034_4000_0000_0004),
    (22, 0x403e_8ccc_cccc_cccd),
    (23, 0x4040_4ccc_cccc_ccd5),
    (24, 0xc003_8609_eca9_7f65),
    (25, 0xbff8_ec51_e6c4_28a0),
    (26, 0xbfd2_5b40_44e7_17ca),
    (27, 0xc014_f246_8739_1f30),
    (28, 0xbfd5_829a_4fa5_39ff),
    (29, 0xbffe_1370_a2f7_6894),
    (30, 0xbfd3_e5c2_6667_d63e),
    (31, 0xbff1_9e92_9bbc_b62c),
    (32, 0xbfff_7cb9_744e_cd02),
    (33, 0xbfe7_1ac7_e3e8_d654),
    (34, 0xbfff_2091_77e8_f7f0),
    (35, 0xbff0_a5ae_4efb_0ef4),
    (36, 0xbffd_eda6_4f58_fba1),
    (37, 0xbfd0_b696_0e45_0d15),
    (38, 0xc00a_617a_3678_f846),
    (39, 0xbfdc_2c8d_91c2_b702),
    (40, 0xc003_1a20_af67_1f6e),
    (41, 0xbff7_5dcb_804d_b287),
    (42, 0xbffa_2e7d_41e2_92be),
    (43, 0xbfea_a200_3f08_7427),
    (44, 0xbfa6_2d8c_ec06_f39e),
    (45, 0xbfea_27d8_0eb3_226a),
    (46, 0xbfe9_52f2_d7cb_d8c5),
    (47, 0xc001_5a66_3618_00bb),
    (48, 0xbfd8_a58f_5a7d_9dcb),
    (49, 0xbfe1_2468_7cb1_fe0a),
    (50, 0xc00f_20bf_5147_1641),
    (51, 0xc002_c90b_91ef_4797),
    (52, 0xbfd5_0fad_5940_da48),
    (53, 0xbffb_5997_145a_21cf),
    (54, 0xc000_8f3d_f49f_b17e),
    (55, 0xc004_ae46_9970_61a6),
    (56, 0xbff8_1a67_03e4_d094),
    (57, 0xbff8_c430_23fa_8c37),
    (58, 0xbffd_8267_2724_978e),
    (59, 0xbff5_d723_8ca9_f5c1),
    (60, 0xbfd8_62e7_62dd_9343),
    (61, 0xbff2_649b_1d46_4777),
    (62, 0xbffd_3343_190c_e1d2),
    (63, 0xc000_a9f7_f29b_b3d6),
    (64, 0x4074_5a00_0000_0005),
    (65, 0x4066_a3bb_bbbb_bbcc),
    (66, 0x4074_0599_9999_99a0),
];

/// Whatever vertex a change to the solver's arithmetic lands on, the
/// optimum it certifies must be the one the recorded solver found.
#[test]
fn optimal_objectives_match_the_recorded_solver() {
    let lps: Vec<Problem> = family().into_iter().chain(larger()).collect();
    let mut solved = Vec::new();
    for (case, p) in lps.iter().enumerate() {
        if let Ok(Certified::Optimal(s)) = solve_certified(p) {
            let r = check(p, &s);
            assert!(r.ok(), "case {case}: {:?}", r.violations);
            solved.push((case, s.objective));
        }
    }
    let cases: Vec<usize> = solved.iter().map(|&(case, _)| case).collect();
    let recorded: Vec<usize> = RECORDED_OBJECTIVES.iter().map(|&(case, _)| case).collect();
    assert_eq!(cases, recorded, "a different set of LPs solved optimal");
    for (&(case, got), &(_, bits)) in solved.iter().zip(&RECORDED_OBJECTIVES) {
        let want = f64::from_bits(bits);
        assert!(
            objectives_agree(got, want),
            "case {case}: objective {got} vs recorded {want}"
        );
    }
}
