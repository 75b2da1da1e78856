//! Criterion performance benchmarks of the kernels behind the paper's
//! runtime claims: move evaluation (§4.2 quotes 160K move evaluations in
//! 17 min on 15 threads), golden timing (40 min per full STA), LP solving
//! and the routing/delay estimators.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::{NetTiming, RcTree};
use clk_geom::{Point, Rect};
use clk_liberty::{CornerId, Library, StdCorners, WireRc};
use clk_lp::{Problem, RowKind, VarId};
use clk_netlist::Floorplan;
use clk_obs::{Level, Obs, ObsConfig};
use clk_route::{rsmt, single_trunk, WireTree};
use clk_skewopt::predictor::move_features;
use clk_skewopt::{enumerate_moves, MoveConfig};
use clk_sta::Timer;

fn pins(n: usize) -> (Point, Vec<Point>) {
    let mut seed = 42u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) % 80_000) as i64
    };
    let driver = Point::new(next(), next());
    let pts = (0..n).map(|_| Point::new(next(), next())).collect();
    (driver, pts)
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    let (d, p9) = pins(9);
    g.bench_function("rsmt_9pins", |b| b.iter(|| rsmt(d, &p9)));
    let (d, p30) = pins(30);
    g.bench_function("rsmt_30pins_mst_mode", |b| b.iter(|| rsmt(d, &p30)));
    g.bench_function("single_trunk_30pins", |b| b.iter(|| single_trunk(d, &p30)));
    g.finish();
}

fn bench_delay(c: &mut Criterion) {
    let mut g = c.benchmark_group("delay");
    g.sample_size(20);
    let mut wt = WireTree::new(Point::new(0, 0));
    let mut prev = WireTree::ROOT;
    for i in 1..=40 {
        prev = wt.add_child(prev, Point::new(i * 10_000, (i % 7) * 3_000));
    }
    let rc = WireRc {
        r_per_um: 2.0e-3,
        c_per_um: 0.2,
    };
    g.bench_function("extract_golden_5um", |b| {
        b.iter(|| RcTree::extract(&wt, rc, &[(prev, 3.0)], 5.0));
    });
    let fine = RcTree::extract(&wt, rc, &[(prev, 3.0)], 5.0);
    g.bench_function("moments_d2m", |b| b.iter(|| NetTiming::analyze(&fine)));
    g.finish();
}

fn bench_timer(c: &mut Criterion) {
    let mut g = c.benchmark_group("golden_timer");
    g.sample_size(10);
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 64, 1);
    let timer = Timer::golden();
    g.bench_function("analyze_64sinks_1corner", |b| {
        b.iter(|| timer.analyze(&tc.tree, &tc.lib, CornerId(0)));
    });
    g.bench_function("analyze_64sinks_3corners", |b| {
        b.iter(|| timer.analyze_all(&tc.tree, &tc.lib));
    });
    g.finish();
}

/// A dense-ish random LP of ~180 rows x 120 vars.
fn random_lp() -> Problem {
    let mut seed = 7u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut p = Problem::new();
    let vars: Vec<_> = (0..120)
        .map(|_| p.add_var(0.0, 1.0 + next(), next() - 0.5).unwrap())
        .collect();
    for _ in 0..180 {
        let mut terms = Vec::new();
        for &v in &vars {
            if next() < 0.12 {
                terms.push((v, next() - 0.3));
            }
        }
        let rhs = 1.0 + 2.0 * next();
        p.add_row(RowKind::Le, rhs, &terms).unwrap();
    }
    p
}

/// An LP shaped like the global skew-variation LP (Eqs. (6)–(11)) at
/// the size the 12-sink flow solves: bounded Δ⁺/Δ⁻ pairs per arc and
/// corner on a random clock tree, and per sink pair ±1 path-sum rows
/// whose `Ge` half starts infeasible (so phase 1 runs): 382 rows over
/// 116 columns.
fn global_shaped_lp() -> Problem {
    const CORNERS: usize = 3;
    const ARCS: usize = 16;
    const PAIRS: usize = 20;
    let mut seed = 11u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let alphas = [1.0, 1.3, 0.8];
    let mut p = Problem::new();
    // arc a hangs below arc parent[a] (None: below the root)
    let mut parent: Vec<Option<usize>> = vec![None];
    for a in 1..ARCS {
        parent.push(Some((next() * a as f64) as usize));
    }
    let delay: Vec<[f64; CORNERS]> = (0..ARCS)
        .map(|_| {
            let d = 40.0 + 120.0 * next();
            [d, d * (1.2 + 0.1 * next()), d * (0.8 + 0.05 * next())]
        })
        .collect();
    let delta: Vec<Vec<(VarId, VarId)>> = delay
        .iter()
        .map(|ds| {
            ds.iter()
                .map(|&d| {
                    let pos = p.add_var(0.0, 0.25 * d, 0.5).unwrap();
                    let neg = p.add_var(0.0, 0.3 * d, 0.5).unwrap();
                    (pos, neg)
                })
                .collect()
        })
        .collect();
    let leaves: Vec<usize> = (0..ARCS).filter(|&a| !parent.contains(&Some(a))).collect();
    let path = |mut a: usize| {
        let mut arcs = vec![a];
        while let Some(up) = parent[a] {
            arcs.push(up);
            a = up;
        }
        arcs
    };
    let paths: Vec<Vec<usize>> = leaves.iter().map(|&l| path(l)).collect();
    let lat = |path: &[usize], k: usize| path.iter().map(|&a| delay[a][k]).sum::<f64>();
    let skew_terms = |pa: &[usize], pb: &[usize], k: usize, c: f64| {
        let mut terms = Vec::new();
        for (arcs, s) in [(pa, c), (pb, -c)] {
            for &a in arcs {
                let (pos, neg) = delta[a][k];
                terms.push((pos, s));
                terms.push((neg, -s));
            }
        }
        terms
    };
    for i in 0..PAIRS {
        let pa = &paths[i % paths.len()];
        let pb = &paths[(i * 7 + 1) % paths.len()];
        let s0: Vec<f64> = (0..CORNERS).map(|k| lat(pa, k) - lat(pb, k)).collect();
        let v = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        // (6): V ≥ ±(αk·S_k − αk'·S_k')
        for k in 0..CORNERS {
            for k2 in (k + 1)..CORNERS {
                let base = alphas[k] * s0[k] - alphas[k2] * s0[k2];
                for sign in [1.0, -1.0] {
                    let mut terms = vec![(v, 1.0)];
                    terms.extend(skew_terms(pa, pb, k, -sign * alphas[k]));
                    terms.extend(skew_terms(pa, pb, k2, sign * alphas[k2]));
                    p.add_row(RowKind::Ge, sign * base, &terms).unwrap();
                }
            }
        }
        // (7): |S_k(Δ)| ≤ |S_k(0)|
        for (k, &s0k) in s0.iter().enumerate() {
            for sign in [1.0, -1.0] {
                let terms = skew_terms(pa, pb, k, sign);
                p.add_row(RowKind::Le, s0k.abs() - sign * s0k, &terms)
                    .unwrap();
            }
        }
        // (8): |αk·S_k − α0·S_0| may not grow
        for k in 1..CORNERS {
            let base = alphas[k] * s0[k] - alphas[0] * s0[0];
            for sign in [1.0, -1.0] {
                let mut terms = skew_terms(pa, pb, k, sign * alphas[k]);
                terms.extend(skew_terms(pa, pb, 0, -sign * alphas[0]));
                p.add_row(RowKind::Le, base.abs() - sign * base, &terms)
                    .unwrap();
            }
        }
    }
    // (9): path latency bound per sink per corner
    for path in &paths {
        for k in 0..CORNERS {
            let terms = skew_terms(path, &[], k, 1.0);
            p.add_row(RowKind::Le, 0.05 * lat(path, k), &terms).unwrap();
        }
    }
    // (11): cross-corner delay-ratio corridor per arc, k vs 0
    for (a, ds) in delay.iter().enumerate() {
        let (p0, n0) = delta[a][0];
        for k in 1..CORNERS {
            let hi = 1.05 * ds[k] / ds[0];
            let (pk, nk) = delta[a][k];
            p.add_row(
                RowKind::Le,
                hi * ds[0] - ds[k],
                &[(pk, 1.0), (nk, -1.0), (p0, -hi), (n0, hi)],
            )
            .unwrap();
        }
    }
    p
}

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp");
    g.sample_size(10);
    let p = random_lp();
    g.bench_function("simplex_180x120", |b| {
        b.iter_batched(|| p.clone(), |p| clk_lp::solve(&p), BatchSize::SmallInput);
    });
    // divide by the pivot count printed here for the per-pivot cost
    let p = global_shaped_lp();
    let pivots = clk_lp::solve(&p).map_or(0, |s| s.iterations);
    println!(
        "lp/global_shaped: {} rows x {} vars, {pivots} pivots per solve",
        p.num_rows(),
        p.num_vars()
    );
    g.bench_function("simplex_global_shaped", |b| {
        b.iter_batched(|| p.clone(), |p| clk_lp::solve(&p), BatchSize::SmallInput);
    });
    // the exact certificate check of that solve, as the global phase runs
    // it after every LP
    if let Ok(sol) = clk_lp::solve(&p) {
        let report = clk_cert::check(&p, &sol);
        assert!(report.ok(), "{:?}", report.violations);
        g.bench_function("cert_check_global_shaped", |b| {
            b.iter(|| clk_cert::check(&p, &sol));
        });
    }
    g.finish();
}

/// Instrumentation overhead: the disabled pipeline must be free (a single
/// `Option` branch on the hot paths — the <2% budget of DESIGN.md §8), and
/// an enabled sink-less pipeline must stay cheap enough for Debug-level
/// flow tracing.
fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(30);
    let disabled = Obs::disabled();
    g.bench_function("span_disabled", |b| {
        b.iter(|| disabled.span("bench.span"));
    });
    g.bench_function("count_disabled", |b| {
        b.iter(|| disabled.count("bench.ctr", 1));
    });
    // decision-ledger gate: every flow decision site asks `ledgering()`
    // before building a record, so the off path must be the same single
    // `Option` branch as the rest of the disabled pipeline — both on a
    // disabled Obs and on an enabled Obs with the ledger off (default)
    g.bench_function("ledger_gate_disabled", |b| {
        b.iter(|| disabled.ledgering());
    });
    let no_ledger = Obs::new(ObsConfig::default());
    g.bench_function("ledger_gate_off_enabled_obs", |b| {
        b.iter(|| no_ledger.ledgering());
    });
    let quiet = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    g.bench_function("span_enabled_no_sinks", |b| {
        b.iter(|| quiet.span("bench.span"));
    });
    g.bench_function("histogram_observe", |b| {
        b.iter(|| quiet.observe("bench.hist", 3.25));
    });
    // head-to-head on the LP kernel: the instrumented entry point with a
    // disabled pipeline must track `simplex_180x120` within noise
    let p = random_lp();
    g.bench_function("simplex_180x120_obs_disabled", |b| {
        b.iter_batched(
            || p.clone(),
            |p| clk_lp::solve_with_obs(&p, &disabled),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("simplex_180x120_obs_quiet", |b| {
        b.iter_batched(
            || p.clone(),
            |p| clk_lp::solve_with_obs(&p, &quiet),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictor");
    g.sample_size(10);
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 2);
    let timing = Timer::golden().analyze(&tc.tree, &tc.lib, CornerId(0));
    let mcfg = MoveConfig::default();
    let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
    let mv = moves[moves.len() / 2];
    g.bench_function("move_features_one_corner", |b| {
        b.iter(|| move_features(&tc.tree, &tc.lib, CornerId(0), &timing, &mv, &mcfg));
    });
    g.finish();
}

fn bench_infra(c: &mut Criterion) {
    let mut g = c.benchmark_group("infra");
    g.sample_size(30);
    let lib = Library::synthetic_28nm(StdCorners::all());
    g.bench_function("library_characterize", |b| {
        b.iter(|| Library::synthetic_28nm(StdCorners::all()));
    });
    let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
    g.bench_function("nldm_lookup", |b| {
        b.iter(|| lib.gate_delay(x4, CornerId(1), 23.0, 9.5));
    });
    let fp = Floorplan::utilized(Rect::from_um(0.0, 0.0, 1820.0, 1820.0), vec![]);
    g.bench_function("legalize", |b| {
        b.iter(|| fp.legalize(Point::new(123_456, 777_777)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_routing,
    bench_delay,
    bench_timer,
    bench_lp,
    bench_predictor,
    bench_infra,
    bench_obs
);
criterion_main!(benches);
