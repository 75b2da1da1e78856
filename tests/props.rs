//! Property-based tests of cross-crate invariants.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use proptest::prelude::*;

use clk_geom::{Point, Rect};
use clk_liberty::{CellId, Library, StdCorners};
use clk_netlist::{ClockTree, Floorplan, NodeKind};
use clk_route::{rsmt, single_trunk, RoutePath};
use clk_sta::{alpha_factors, variation_report};

fn arb_point() -> impl Strategy<Value = Point> {
    (0i64..500_000, 0i64..500_000).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any Steiner topology must connect all pins, never beat the HPWL
    /// lower bound, and never exceed the star upper bound.
    #[test]
    fn steiner_trees_are_bounded(driver in arb_point(), pins in prop::collection::vec(arb_point(), 1..9)) {
        let mut all = vec![driver];
        all.extend_from_slice(&pins);
        let bbox = Rect::bounding(&all).unwrap();
        let hpwl = clk_geom::dbu_to_um(bbox.width() + bbox.height());
        let star: f64 = pins.iter().map(|&p| driver.manhattan_um(p)).sum();
        // rsmt is MST-based: never longer than the star topology
        for (tree, cap) in [(rsmt(driver, &pins), star), (single_trunk(driver, &pins), 2.0 * star)] {
            for &p in &pins {
                prop_assert!(tree.index_of(p).is_some());
            }
            let len = tree.wirelength_um();
            prop_assert!(len + 1e-9 >= hpwl, "len {len} < hpwl {hpwl}");
            // single-trunk may exceed the star on adversarial pin sets
            // (wire is forced through the median trunk), but never 2x
            prop_assert!(len <= cap + 1e-6, "len {len} > cap {cap}");
        }
    }

    /// Detoured routes deliver exactly the requested extra length.
    #[test]
    fn detours_are_exact(a in arb_point(), b in arb_point(), extra_um in 0.0f64..300.0) {
        let r = RoutePath::with_detour(a, b, extra_um);
        prop_assert!(r.is_valid());
        let want = a.manhattan(b) + clk_geom::um_to_dbu(extra_um);
        prop_assert!((r.length_dbu() - want).abs() <= 1);
    }

    /// Legalization always produces a legal location and is idempotent.
    #[test]
    fn legalizer_contract(p in arb_point()) {
        let fp = Floorplan::utilized(
            Rect::from_um(0.0, 0.0, 500.0, 500.0),
            vec![Rect::from_um(100.0, 100.0, 180.0, 220.0)],
        );
        let l = fp.legalize(p);
        prop_assert!(fp.is_legal(l));
        prop_assert_eq!(fp.legalize(l), l);
    }

    /// A random sequence of tree edits preserves structural validity and
    /// sink polarity parity can only change via buffer insertion/removal.
    #[test]
    fn tree_edits_preserve_validity(ops in prop::collection::vec((0u8..4, 0usize..16, arb_point()), 1..30)) {
        let cell = CellId(2);
        let mut tree = ClockTree::new(Point::new(0, 0), cell);
        let b0 = tree.add_node(NodeKind::Buffer(cell), Point::new(10_000, 0), tree.root());
        let _s = tree.add_node(NodeKind::Sink, Point::new(20_000, 0), b0);
        for (op, pick, loc) in ops {
            let buffers: Vec<_> = tree.buffers().collect();
            let target = buffers[pick % buffers.len()];
            match op {
                0 => {
                    let _ = tree.add_node(NodeKind::Buffer(cell), loc, target);
                }
                1 => {
                    let _ = tree.move_node(target, loc);
                }
                2 => {
                    // surgery to any other buffer that is not a descendant
                    let cand = buffers[(pick / 2) % buffers.len()];
                    if cand != target && tree.parent(target).is_some() {
                        let _ = tree.set_parent(target, cand);
                    }
                }
                _ => {
                    // never remove the last buffer above the sink
                    if buffers.len() > 1 && tree.parent(target).is_some() {
                        let _ = tree.remove_buffer(target);
                    }
                }
            }
            prop_assert!(tree.validate().is_ok(), "validate failed after op {op}");
        }
    }

    /// Scaling one corner's skews by a constant leaves the normalized
    /// variation report unchanged (the α normalization at work).
    #[test]
    fn variation_invariant_under_corner_scaling(
        base in prop::collection::vec(-200.0f64..200.0, 1..40),
        scale in 0.2f64..5.0,
    ) {
        let skews0 = vec![base.clone(), base.iter().map(|s| s * 2.0).collect::<Vec<_>>()];
        let skews1 = vec![base.clone(), base.iter().map(|s| s * 2.0 * scale).collect::<Vec<_>>()];
        let r0 = variation_report(&skews0, &alpha_factors(&skews0), None);
        let r1 = variation_report(&skews1, &alpha_factors(&skews1), None);
        prop_assert!((r0.sum - r1.sum).abs() < 1e-6 * (1.0 + r0.sum.abs()));
    }

    /// NLDM lookups stay finite and positive over a wide query envelope,
    /// including extrapolation beyond the characterized axes.
    #[test]
    fn library_lookups_are_robust(slew in 0.5f64..600.0, load in 0.05f64..120.0, cell in 0usize..5, corner in 0usize..4) {
        let lib = Library::synthetic_28nm(StdCorners::all());
        let d = lib.gate_delay(CellId(cell), clk_liberty::CornerId(corner), slew, load);
        let s = lib.gate_output_slew(CellId(cell), clk_liberty::CornerId(corner), slew, load);
        prop_assert!(d.is_finite() && d > 0.0);
        prop_assert!(s.is_finite() && s > 0.0);
    }
}

// ---- corruption injection: the lint engine must catch every planted
// defect class, and must stay silent on freshly generated designs -------

use clk_cts::{Testcase, TestcaseKind};
use clk_lint::{audit_rc_tree, DesignCtx, LintRunner};
use clk_netlist::{NodeId, SinkPair};

/// Picks a buffer that has both a parent and a grandparent.
fn deep_buffer(tree: &ClockTree) -> NodeId {
    tree.buffers()
        .find(|&b| tree.parent(b).and_then(|p| tree.parent(p)).is_some())
        .expect("CTS trees have multi-level buffers")
}

/// A planted defect: (expected stable code, injection).
type Defect = (&'static str, fn(&mut ClockTree));

/// The planted-defect catalogue. Every entry corrupts a clone of a
/// fresh, clean testcase tree.
fn defect_catalogue() -> Vec<Defect> {
    vec![
        // detached child link: parent loses the child, child keeps parent
        ("S001", |t| {
            let b = deep_buffer(t);
            let p = t.parent(b).expect("deep buffer has parent");
            t.debug_unlink_child(p, b);
        }),
        // orphaned subtree: no parent link at all on a non-root node
        ("S002", |t| {
            let b = deep_buffer(t);
            let p = t.parent(b).expect("deep buffer has parent");
            t.debug_unlink_child(p, b);
            t.debug_set_parent_raw(b, None);
        }),
        // cycle: a two-node loop cut loose from the root
        ("S002", |t| {
            let b = deep_buffer(t);
            let p = t.parent(b).expect("deep buffer has parent");
            let g = t.parent(p).expect("deep buffer has grandparent");
            t.debug_unlink_child(g, p);
            t.debug_set_parent_raw(p, Some(b));
            t.debug_add_child_raw(b, p);
        }),
        // a sink with fanout
        ("S003", |t| {
            let sinks: Vec<NodeId> = t.sinks().collect();
            t.debug_add_child_raw(sinks[0], sinks[1]);
        }),
        // node teleported without rerouting: stale route endpoints
        ("G002", |t| {
            let b = deep_buffer(t);
            let l = t.loc(b);
            t.debug_set_loc_raw(b, Point::new(l.x + 7_000, l.y + 13_000));
        }),
        // node teleported outside the die
        ("G003", |t| {
            let b = deep_buffer(t);
            t.debug_set_loc_raw(b, Point::new(-50_000, -50_000));
        }),
        // legal move to an off-grid location (routes stay consistent)
        ("G005", |t| {
            let b = deep_buffer(t);
            let l = t.loc(b);
            t.move_node(b, Point::new(l.x + 1, l.y + 3)).expect("move");
        }),
        // a sink grafted one inverter level up: skipping exactly one
        // inverter of a real sink's chain flips its parity
        ("A005", |t| {
            let s = t.sinks().next().expect("has sinks");
            let p = t.parent(s).expect("sink has parent");
            let g = t.parent(p).expect("leaf driver has parent");
            let l = t.loc(g);
            t.add_node(NodeKind::Sink, Point::new(l.x + 2_000, l.y + 2_000), g);
        }),
        // NaN pair weight
        ("T004", |t| {
            let pair = t.sink_pairs()[0];
            t.set_sink_pairs(vec![SinkPair::with_weight(pair.a, pair.b, f64::NAN)]);
        }),
    ]
}

proptest! {
    // each case runs full CTS generation; keep the count small
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fresh testcase lints with zero errors, and every entry of the
    /// defect catalogue is caught under its stable diagnostic code.
    #[test]
    fn lint_catches_planted_defects(seed in 0u64..500, kind in 0u8..2) {
        let kind = if kind == 0 { TestcaseKind::Cls1v1 } else { TestcaseKind::Cls2v1 };
        let tc = Testcase::generate(kind, 18, seed);
        let runner = LintRunner::with_default_passes();
        let clean = runner.run(&DesignCtx::with_floorplan(&tc.tree, &tc.lib, &tc.floorplan));
        prop_assert_eq!(clean.error_count(), 0, "fresh design lints dirty:\n{}", clean.to_text());

        let mut caught = std::collections::BTreeSet::new();
        for (code, inject) in defect_catalogue() {
            let mut bad = tc.tree.clone();
            inject(&mut bad);
            let report = runner.run(&DesignCtx::with_floorplan(&bad, &tc.lib, &tc.floorplan));
            prop_assert!(
                report.has_code(code),
                "planted {code} not caught; report:\n{}",
                report.to_text()
            );
            caught.insert(code);
        }
        prop_assert!(caught.len() >= 7, "catalogue covers {caught:?}");
    }

    /// Poisoned parasitics and LP models are caught by the standalone
    /// audits (`R0xx`, `L0xx`) — together with the tree catalogue above
    /// this exercises every diagnostic family.
    #[test]
    fn lint_catches_poisoned_models(bad_cap in -50.0f64..-0.01, nan_kind in 0u8..2) {
        // negative / non-finite parasitics
        let rc = clk_delay::RcTree::from_raw(
            vec![None, Some(0)],
            vec![0.0, 0.4],
            vec![0.5, bad_cap],
        );
        let diags = audit_rc_tree(NodeId(0), &rc);
        prop_assert!(diags.iter().any(|d| d.code == "R002"), "{diags:?}");

        // poisoned LP: NaN bound (L001) or NaN coefficient / rhs (L003)
        let mut p = clk_lp::Problem::new();
        let x = p.add_var(0.0, 10.0, 1.0).unwrap();
        p.add_row(clk_lp::RowKind::Le, 5.0, &[(x, 1.0)]).unwrap();
        let want = if nan_kind == 0 {
            p.debug_poison_bounds(x, f64::NAN, 1.0);
            "L001"
        } else {
            p.debug_poison_coeff(x, 0, f64::NAN).unwrap();
            "L003"
        };
        let out = clk_lint::lp::audit_problem(&p);
        prop_assert!(out.iter().any(|d| d.code == want), "{out:?}");
    }
}

// ---- untrusted-input hardening: the text readers must return typed
// errors (never panic) on damaged input, deterministically, and must
// reject limit-exceeding input outright -------------------------------

use std::sync::OnceLock;

use clk_liberty::text::{parse_liberty, parse_liberty_with_limits, write_liberty};
use clk_liberty::ParseLimits;
use clk_netlist::io::{parse_ctree, parse_ctree_with_limits, write_ctree};

/// Shared well-formed corpus: one Liberty corner and one `.ctree` dump.
fn parser_fixture() -> &'static (String, String, Library) {
    static FIX: OnceLock<(String, String, Library)> = OnceLock::new();
    FIX.get_or_init(|| {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 10, 7);
        let liberty = write_liberty(&tc.lib, clk_liberty::CornerId(0));
        let ctree = write_ctree(&tc.tree, &tc.lib);
        (liberty, ctree, tc.lib.clone())
    })
}

/// Flips one bit and truncates, returning a parseable `&str` mutant.
fn damage(base: &str, flip: usize, bit: u8, cut: usize) -> String {
    let mut bytes = base.as_bytes().to_vec();
    let i = flip % bytes.len();
    bytes[i] ^= 1 << (bit % 8);
    bytes.truncate(1 + cut % bytes.len());
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-flipped and truncated Liberty input parses to `Ok` or a
    /// typed error — never a panic — and the outcome is deterministic
    /// (identical value or identical error, byte offset included).
    #[test]
    fn damaged_liberty_never_panics(flip in 0usize..1_000_000, bit in 0u8..8, cut in 0usize..1_000_000) {
        let (liberty, _, _) = parser_fixture();
        let mutant = damage(liberty, flip, bit, cut);
        let r1 = parse_liberty(&mutant);
        let r2 = parse_liberty(&mutant);
        prop_assert_eq!(r1, r2);
    }

    /// Same contract for `.ctree` input.
    #[test]
    fn damaged_ctree_never_panics(flip in 0usize..1_000_000, bit in 0u8..8, cut in 0usize..1_000_000) {
        let (_, ctree, lib) = parser_fixture();
        let mutant = damage(ctree, flip, bit, cut);
        let r1 = parse_ctree(&mutant, lib);
        let r2 = parse_ctree(&mutant, lib);
        match (r1, r2) {
            (Ok(a), Ok(b)) => prop_assert_eq!(write_ctree(&a, lib), write_ctree(&b, lib)),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "nondeterministic: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// Input exceeding any configured limit is always a typed error,
    /// never a panic and never a partial parse.
    #[test]
    fn limit_exceeding_input_is_always_rejected(max_bytes in 1usize..64, which in 0u8..2) {
        let (liberty, ctree, lib) = parser_fixture();
        let limits = ParseLimits { max_bytes, ..ParseLimits::strict() };
        if which == 0 {
            let e = parse_liberty_with_limits(liberty, &limits);
            prop_assert!(e.is_err());
        } else {
            let e = parse_ctree_with_limits(ctree, lib, &limits);
            prop_assert!(e.is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// LP warm starts: a re-priced handle reaches the cold optimum
// ---------------------------------------------------------------------------

use clk_cert::{check, objectives_agree};
use clk_lp::{solve_certified, Certified, Lp, Problem, RowKind, VarId};
use clk_obs::{Deadline, Obs};

/// A bounded LP with `nv` boxed variables and `nr` rows (`≤`, `≥` and
/// `=` in turn), all satisfied by one interior point, so it is feasible
/// and bounded under any costs.
fn feasible_box(seed: u64, nv: usize, nr: usize) -> Problem {
    let mut s = seed | 1;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut p = Problem::new();
    let mut x0 = Vec::with_capacity(nv);
    let vars: Vec<VarId> = (0..nv)
        .map(|_| {
            let hi = 1.0 + 9.0 * unit();
            x0.push(hi * (0.2 + 0.6 * unit()));
            p.add_var(0.0, hi, 2.0 * unit() - 1.0).unwrap()
        })
        .collect();
    for r in 0..nr {
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 4.0 * unit() - 2.0)).collect();
        let at_x0: f64 = terms.iter().map(|&(v, a)| a * x0[v.0]).sum();
        let slack = unit();
        match r % 3 {
            0 => p.add_row(RowKind::Le, at_x0 + slack, &terms),
            1 => p.add_row(RowKind::Ge, at_x0 - slack, &terms),
            _ => p.add_row(RowKind::Eq, at_x0, &terms),
        }
        .unwrap();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solving one LP under a sequence of cost vectors, each solve warm
    /// from the last optimal basis, reaches the optimum a cold solve of
    /// the same costs reaches: both solutions certify exactly, and the
    /// objectives agree within the certificate tolerance.
    #[test]
    fn warm_solves_reach_the_cold_optimum(
        seed in 0u64..1_000_000_000,
        nv in 2usize..10,
        nr in 1usize..10,
        costs in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 10), 2..5),
    ) {
        let (obs, dl) = (Obs::disabled(), Deadline::none());
        let mut lp = Lp::new(feasible_box(seed, nv, nr));
        prop_assert!(matches!(lp.solve(&obs, &dl), Ok(Certified::Optimal(_))));
        for c in &costs {
            for (j, &cj) in c.iter().take(nv).enumerate() {
                lp.set_cost(VarId(j), cj).unwrap();
            }
            prop_assert!(lp.is_warm());
            let outcome = (lp.solve(&obs, &dl), solve_certified(lp.problem()));
            let (Ok(Certified::Optimal(warm)), Ok(Certified::Optimal(cold))) = outcome else {
                return Err(TestCaseError::fail(format!(
                    "a feasible box must solve optimal both ways: {outcome:?}"
                )));
            };
            for s in [&warm, &cold] {
                let r = check(lp.problem(), s);
                prop_assert!(r.ok(), "{:?}", r.violations);
            }
            prop_assert!(
                objectives_agree(warm.objective, cold.objective),
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }
}
