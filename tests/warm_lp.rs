//! Integration tests of the warm-start contract of [`clk_lp::Lp`]: a
//! handle keeps the basis of its last optimal solve and nothing else, so
//! every way a solve can end other than optimal — unbounded, interrupted
//! — leaves it cold, and the next solve repeats the free cold solve bit
//! for bit. Warm solves certify on problems whose cold start needs phase
//! 1 and keeps redundant rows in the basis, and the metrics tell warm
//! solves apart from cold ones.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cert::{check, objectives_agree};
use clk_lp::{
    solve_certified, Certified, Lp, LpError, Problem, RowKind, Solution, VarId, REDUNDANT_ROW,
};
use clk_obs::{CancelToken, Deadline, Obs, ObsConfig};

fn optimal(r: Result<Certified, LpError>, what: &str) -> Solution {
    match r {
        Ok(Certified::Optimal(s)) => s,
        other => panic!("{what} solve did not end optimal: {other:?}"),
    }
}

/// Boxed variables in a chain of pairwise caps, solved once; then every
/// cost is reversed, so the kept vertex is far from the new optimum.
fn reversed_chain(n: usize) -> Lp {
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..n)
        .map(|i| p.add_var(0.0, 10.0, -(1.0 + i as f64)).unwrap())
        .collect();
    for w in vars.windows(2) {
        p.add_row(RowKind::Le, 12.0, &[(w[0], 1.0), (w[1], 1.0)])
            .unwrap();
    }
    let mut lp = Lp::new(p);
    optimal(lp.solve(&Obs::disabled(), &Deadline::none()), "first");
    for (i, &v) in vars.iter().enumerate() {
        lp.set_cost(v, -((n - i) as f64)).unwrap();
    }
    lp
}

#[test]
fn repricing_into_an_unbounded_objective_drops_the_basis() {
    // min x − y  s.t. x − y ≥ −2, x ≥ 0, y ∈ [0, 4]: optimum −2; priced
    // −x − y, the ray x → ∞ makes it unbounded
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
    let y = p.add_var(0.0, 4.0, -1.0).unwrap();
    p.add_row(RowKind::Ge, -2.0, &[(x, 1.0), (y, -1.0)])
        .unwrap();
    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let mut lp = Lp::new(p);
    let first = optimal(lp.solve(&obs, &dl), "first");
    assert!((first.objective + 2.0).abs() < 1e-9, "{}", first.objective);
    assert!(lp.is_warm());

    lp.set_cost(x, -1.0).unwrap();
    assert_eq!(lp.solve(&obs, &dl), Err(LpError::Unbounded));
    assert!(!lp.is_warm(), "an unbounded solve keeps no basis");

    // priced bounded again, the handle starts cold: the free solve's bits
    lp.set_cost(x, 2.0).unwrap();
    let back = lp.solve(&obs, &dl);
    assert_eq!(back, solve_certified(lp.problem()));
    let back = optimal(back, "cold again");
    assert!((back.objective + 2.0).abs() < 1e-9, "{}", back.objective);
    assert!(lp.is_warm());
}

#[test]
fn warm_solves_certify_after_a_phase_one_start_with_redundant_rows() {
    // equality and ≥ rows put artificials into the cold start; the last
    // equality is the sum of the first two, so one row stays redundant
    let mut p = Problem::new();
    let v: Vec<VarId> = (0..6u8)
        .map(|i| p.add_var(0.0, 8.0, 1.0 + f64::from(i)).unwrap())
        .collect();
    let r0 = [(v[0], 1.0), (v[1], 1.0), (v[2], 1.0)];
    let r1 = [(v[3], 1.0), (v[4], 2.0), (v[5], 1.0)];
    p.add_row(RowKind::Eq, 6.0, &r0).unwrap();
    p.add_row(RowKind::Eq, 9.0, &r1).unwrap();
    let sum: Vec<(VarId, f64)> = r0.iter().chain(&r1).copied().collect();
    p.add_row(RowKind::Eq, 15.0, &sum).unwrap();
    p.add_row(RowKind::Ge, 3.0, &[(v[0], 1.0), (v[5], 1.0)])
        .unwrap();
    p.add_row(RowKind::Ge, 2.0, &[(v[2], 1.0), (v[3], -1.0)])
        .unwrap();

    let (obs, dl) = (Obs::disabled(), Deadline::none());
    let mut lp = Lp::new(p);
    let first = optimal(lp.solve(&obs, &dl), "cold");
    assert!(
        first.certificate.basis.contains(&REDUNDANT_ROW),
        "the dependent row must stay redundant: {:?}",
        first.certificate.basis
    );
    let costs = [
        [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
        [-3.0, 0.0, 2.0, 0.5, -1.0, 4.0],
    ];
    for (pass, c) in costs.iter().enumerate() {
        for (&var, &cj) in v.iter().zip(c) {
            lp.set_cost(var, cj).unwrap();
        }
        let warm = optimal(lp.solve(&obs, &dl), "warm");
        let cold = optimal(solve_certified(lp.problem()), "cold");
        for (what, s) in [("warm", &warm), ("cold", &cold)] {
            let r = check(lp.problem(), s);
            assert!(r.ok(), "pass {pass} {what}: {:?}", r.violations);
        }
        assert!(
            objectives_agree(warm.objective, cold.objective),
            "pass {pass}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }
}

#[test]
fn warm_solves_are_counted_apart_from_cold_ones() {
    let obs = Obs::new(ObsConfig::default());
    let dl = Deadline::none();
    let mut lp = reversed_chain(12);
    lp.discard_basis();
    let mut pivots = 0;
    for round in 0..3 {
        for j in 0..lp.problem().num_vars() {
            let v = VarId(j);
            let c = lp.problem().cost(v).unwrap();
            lp.set_cost(v, if round % 2 == 0 { c } else { -c - 1.0 })
                .unwrap();
        }
        pivots += optimal(lp.solve(&obs, &dl), "round").iterations as u64;
    }
    let count = |name: &str| obs.counter(name).map_or(0, |c| c.get());
    assert_eq!(count("lp.solves"), 3);
    assert_eq!(count("lp.warm_solves"), 2, "only the first solve is cold");
    assert_eq!(count("lp.pivots"), pivots);
    let snap = obs.metrics_snapshot().expect("enabled pipeline");
    let undeclared = clk_obs::dict::check_snapshot(&snap);
    assert!(undeclared.is_empty(), "{undeclared:?}");
}

#[test]
fn cancelled_warm_solve_leaves_the_handle_cold() {
    let mut lp = reversed_chain(64);
    assert!(lp.is_warm());
    let before = lp.problem().clone();
    let tok = CancelToken::new();
    tok.cancel();
    let dl = Deadline::from_token(&tok);
    assert_eq!(
        lp.solve(&Obs::disabled(), &dl),
        Err(LpError::Interrupted),
        "a cancelled deadline must stop a warm solve that has pivots to make"
    );
    assert!(dl.polls() >= 1);
    assert!(!lp.is_warm(), "an interrupted solve keeps no basis");
    assert_eq!(format!("{:?}", lp.problem()), format!("{before:?}"));

    // the next solve is cold: the free solve's bits
    let next = lp.solve(&Obs::disabled(), &Deadline::none());
    assert_eq!(next, solve_certified(lp.problem()));
    optimal(next, "after the interruption");
    assert!(lp.is_warm());
}
