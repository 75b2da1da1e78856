//! The certificate checker: exact re-verification of simplex outcomes.
//!
//! All arithmetic below is on [`BigRat`] values decoded from the `f64`
//! bit patterns of the problem and the certificate; every comparison is
//! an exact total-order comparison of dyadic rationals. Tolerances are
//! exact too: a check of "`r` is numerically zero" is `|r| ≤ ε·(1 + M)`
//! where `ε = 2^eps_exp` and `M` is the exactly-accumulated magnitude of
//! the terms that produced `r` (so the band scales with the data instead
//! of hiding a hard-coded float).
//!
//! The checker mirrors the solver's internal variable space: the `n`
//! structural variables first, then one slack per row with bounds
//! `Le → [0, ∞)`, `Ge → (−∞, 0]`, `Eq → [0, 0]`, so that `Ax + s = b`
//! holds exactly by construction and every claim reduces to bound,
//! sign, and agreement checks.

use std::cmp::Ordering;

use crate::rat::BigRat;
use clk_lp::{Certified, FarkasRay, Problem, RowKind, Solution, VarId, VarStatus, REDUNDANT_ROW};

/// Tuning for the checker's exact tolerance bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Exponent of the base tolerance `ε = 2^eps_exp`. The default,
    /// `−17` (`ε ≈ 7.6e-6`), sits above the solver's `1e-7` pivot
    /// tolerance and its `1e-6` phase-1 feasibility acceptance, so an
    /// honest float solve passes while data-scale corruption does not.
    pub eps_exp: i64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { eps_exp: -17 }
    }
}

/// One failed certificate check.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A value that must be finite (or a non-NaN bound) was not.
    NonFinite {
        /// What was non-finite, e.g. `"dual y[3]"`.
        what: String,
    },
    /// The certificate's dimensions or basis bookkeeping are inconsistent
    /// with the problem.
    Shape {
        /// Description of the inconsistency.
        what: String,
    },
    /// An internal variable's value violates its bounds.
    PrimalBound {
        /// Internal variable index (`>= n` means the slack of row
        /// `var − n`).
        var: usize,
        /// Approximate magnitude of the violation.
        resid: f64,
    },
    /// A nonbasic variable is not at the bound its status claims.
    NonbasicOffBound {
        /// Internal variable index.
        var: usize,
        /// Approximate distance from the claimed bound.
        resid: f64,
    },
    /// An exact reduced cost has the wrong sign for the variable's status.
    DualInfeasible {
        /// Internal variable index.
        var: usize,
        /// Approximate magnitude of the sign violation.
        resid: f64,
    },
    /// The recorded reduced cost disagrees with `c_j − yᵀA_j`.
    ReducedCostMismatch {
        /// Internal variable index.
        var: usize,
        /// Approximate magnitude of the disagreement.
        resid: f64,
    },
    /// The recorded objective disagrees with the exact `cᵀx`.
    ObjectiveMismatch {
        /// Approximate magnitude of the disagreement.
        resid: f64,
    },
    /// Strong duality fails: `cᵀx` and the dual objective
    /// `yᵀb + Σ d_j·bound_j` disagree beyond the tolerance band.
    DualityGap {
        /// Approximate magnitude of the gap.
        resid: f64,
    },
    /// A Farkas ray puts nonzero weight on a direction with an unbounded
    /// cap, so the ray proves nothing.
    FarkasLeak {
        /// Internal variable index with the unbounded contribution.
        var: usize,
        /// Approximate magnitude of the leaked weight.
        resid: f64,
    },
    /// The Farkas gap `yᵀb − Σ cap_j` is not strictly positive.
    FarkasGapNonPositive {
        /// Approximate value of the (non-positive) gap.
        gap: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonFinite { what } => write!(f, "non-finite {what}"),
            Violation::Shape { what } => write!(f, "shape: {what}"),
            Violation::PrimalBound { var, resid } => {
                write!(
                    f,
                    "primal bound violated at internal var {var} by ~{resid:e}"
                )
            }
            Violation::NonbasicOffBound { var, resid } => {
                write!(f, "nonbasic var {var} is ~{resid:e} off its claimed bound")
            }
            Violation::DualInfeasible { var, resid } => {
                write!(
                    f,
                    "reduced cost of var {var} has the wrong sign by ~{resid:e}"
                )
            }
            Violation::ReducedCostMismatch { var, resid } => {
                write!(f, "recorded reduced cost of var {var} off by ~{resid:e}")
            }
            Violation::ObjectiveMismatch { resid } => {
                write!(f, "recorded objective off from exact cᵀx by ~{resid:e}")
            }
            Violation::DualityGap { resid } => {
                write!(f, "strong duality violated by ~{resid:e}")
            }
            Violation::FarkasLeak { var, resid } => {
                write!(
                    f,
                    "Farkas ray leaks ~{resid:e} weight into unbounded var {var}"
                )
            }
            Violation::FarkasGapNonPositive { gap } => {
                write!(f, "Farkas gap is not positive: ~{gap:e}")
            }
        }
    }
}

/// Outcome of one certificate verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Number of individual exact comparisons performed.
    pub checks: usize,
    /// Largest residual observed across the agreement checks
    /// (approximate `f64`, telemetry only — acceptance is exact).
    pub max_resid: f64,
    /// Every check that failed; empty means the certificate verifies.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether the certificate verified with no violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies an optimality certificate against its problem with the
/// default tolerance. See [`check_with`].
pub fn check(p: &Problem, sol: &Solution) -> Report {
    check_with(p, sol, &CheckConfig::default())
}

/// Verifies an infeasibility witness against its problem with the default
/// tolerance. See [`check_infeasible_with`].
pub fn check_infeasible(p: &Problem, ray: &FarkasRay) -> Report {
    check_infeasible_with(p, ray, &CheckConfig::default())
}

/// Whether two objective values of one problem agree within the
/// default tolerance band `ε·(1 + |a| + |b|)`, compared exactly. Two
/// certified optima of the same LP (a warm and a cold solve, say) must
/// pass this; a non-finite value never agrees.
pub fn objectives_agree(a: f64, b: f64) -> bool {
    let (Some(a), Some(b)) = (BigRat::from_f64_exact(a), BigRat::from_f64_exact(b)) else {
        return false;
    };
    let mut mag = BigRat::one();
    mag.add_abs_assign(&a);
    mag.add_abs_assign(&b);
    let band = BigRat::two_pow(CheckConfig::default().eps_exp).mul(&mag);
    a.sub(&b).within(&band)
}

/// Dispatches to [`check`] or [`check_infeasible`] on a solve outcome.
pub fn check_certified(p: &Problem, outcome: &Certified) -> Report {
    match outcome {
        Certified::Optimal(sol) => check(p, sol),
        Certified::Infeasible { ray } => check_infeasible(p, ray),
    }
}

// ---- internal exact view ------------------------------------------------

/// Lower/upper bound of an internal variable; `None` is the infinite side.
type Bound = Option<BigRat>;

struct Exact {
    n: usize,
    m: usize,
    /// bounds and cost of all `n + m` internal variables (slack cost 0)
    lo: Vec<Bound>,
    hi: Vec<Bound>,
    cost: Vec<BigRat>,
    /// the sparse columns of all internal variables in one compressed
    /// sparse column array: column `j` is entries
    /// `col_start[j]..col_start[j + 1]` (slack `n+i` is `[(i, 1)]`)
    col_start: Vec<usize>,
    row_of: Vec<usize>,
    coef: Vec<BigRat>,
    rhs: Vec<BigRat>,
}

impl Exact {
    /// The `(row, coefficient)` entries of internal variable `j < n + m`.
    // `decode_problem` builds `n + m + 1` nondecreasing offsets into the
    // entry arrays; like the checks below, a bad index is a checker bug
    #[allow(clippy::indexing_slicing)]
    fn col(&self, j: usize) -> impl Iterator<Item = (usize, &BigRat)> {
        let span = self.col_start[j]..self.col_start[j + 1];
        self.row_of[span.clone()]
            .iter()
            .copied()
            .zip(&self.coef[span])
    }
}

struct Ctx {
    eps: BigRat,
    checks: usize,
    max_resid: BigRat,
    violations: Vec<Violation>,
}

impl Ctx {
    fn new(cfg: &CheckConfig) -> Self {
        Ctx {
            eps: BigRat::two_pow(cfg.eps_exp),
            checks: 0,
            max_resid: BigRat::zero(),
            violations: Vec::new(),
        }
    }

    /// `ε · (1 + mag)` — the exact tolerance band for a residual whose
    /// contributing terms have absolute mass `mag`.
    fn band(&self, mag: &BigRat) -> BigRat {
        let mut s = BigRat::one();
        s.add_assign(mag);
        self.eps.mul(&s)
    }

    /// `ε · (1 + mag + |bound|)` — [`Ctx::band`] of a residual taken
    /// against a bound.
    fn band_with(&self, mag: &BigRat, bound: &BigRat) -> BigRat {
        let mut s = BigRat::one();
        s.add_assign(mag);
        s.add_abs_assign(bound);
        self.eps.mul(&s)
    }

    /// Records an agreement check of residual `r` against `band`;
    /// pushes `make()` on failure.
    fn expect_zero(&mut self, r: &BigRat, band: &BigRat, make: impl FnOnce(f64) -> Violation) {
        self.checks += 1;
        if r.cmp_abs(&self.max_resid) == Ordering::Greater {
            self.max_resid = r.abs();
        }
        if !r.within(band) {
            self.violations.push(make(r.abs().approx_f64()));
        }
    }

    /// Records a one-sided check that `r ≤ band`; pushes `make()` on
    /// failure (a positive overshoot of `r − band`).
    fn expect_le(&mut self, r: &BigRat, band: &BigRat, make: impl FnOnce(f64) -> Violation) {
        self.checks += 1;
        if r.cmp_exact(band) == Ordering::Greater {
            let over = r.sub(band);
            self.violations.push(make(over.approx_f64()));
        }
    }

    fn finish(self) -> Report {
        Report {
            checks: self.checks,
            max_resid: self.max_resid.approx_f64(),
            violations: self.violations,
        }
    }
}

/// Decodes a finite value or records a violation; `None` means "cannot
/// proceed with this value".
fn decode_finite(
    v: f64,
    what: impl FnOnce() -> String,
    out: &mut Vec<Violation>,
) -> Option<BigRat> {
    match BigRat::from_f64_exact(v) {
        Some(r) => Some(r),
        None => {
            out.push(Violation::NonFinite { what: what() });
            None
        }
    }
}

/// Decodes a bound: infinities are legal (open side), NaN is not.
fn decode_bound(
    v: f64,
    upper: bool,
    what: impl FnOnce() -> String,
    out: &mut Vec<Violation>,
) -> Option<Bound> {
    if v.is_nan() {
        out.push(Violation::NonFinite { what: what() });
        return None;
    }
    match BigRat::from_f64_exact(v) {
        Some(r) => Some(Some(r)),
        // an infinite bound on the matching side is the open interval;
        // an infinite bound on the wrong side can never be satisfied
        None if v.is_sign_positive() == upper => Some(None),
        None => {
            out.push(Violation::NonFinite { what: what() });
            None
        }
    }
}

/// Builds the exact internal view of `p` (structural + slack variables).
/// Shape-validates every sparse row index so later indexing is safe.
fn decode_problem(p: &Problem, out: &mut Vec<Violation>) -> Option<Exact> {
    let n = p.num_vars();
    let m = p.num_rows();
    let mut lo = Vec::with_capacity(n + m);
    let mut hi = Vec::with_capacity(n + m);
    let mut cost = Vec::with_capacity(n + m);
    let nnz = m
        + (0..n)
            .filter_map(|j| p.col(VarId(j)).ok())
            .map(<[_]>::len)
            .sum::<usize>();
    let mut col_start = Vec::with_capacity(n + m + 1);
    let mut row_of = Vec::with_capacity(nnz);
    let mut coef = Vec::with_capacity(nnz);
    let mut rhs = Vec::with_capacity(m);
    let before = out.len();
    for j in 0..n {
        let v = VarId(j);
        let (bl, bh) = match p.bounds(v) {
            Ok(b) => b,
            Err(e) => {
                out.push(Violation::Shape {
                    what: format!("{e}"),
                });
                return None;
            }
        };
        lo.push(decode_bound(bl, false, || format!("lower bound of var {j}"), out).unwrap_or(None));
        hi.push(decode_bound(bh, true, || format!("upper bound of var {j}"), out).unwrap_or(None));
        let cj = p.cost(v).unwrap_or(f64::NAN);
        cost.push(
            decode_finite(cj, || format!("cost of var {j}"), out).unwrap_or_else(BigRat::zero),
        );
        col_start.push(row_of.len());
        match p.col(v) {
            Ok(terms) => {
                for &(r, a) in terms {
                    if r >= m {
                        out.push(Violation::Shape {
                            what: format!("column {j} references row {r} of {m}"),
                        });
                        return None;
                    }
                    let ar = decode_finite(a, || format!("coefficient a[{r},{j}]"), out)
                        .unwrap_or_else(BigRat::zero);
                    row_of.push(r);
                    coef.push(ar);
                }
            }
            Err(e) => {
                out.push(Violation::Shape {
                    what: format!("{e}"),
                });
                return None;
            }
        }
    }
    for i in 0..m {
        let (kind, b) = match p.row(i) {
            Ok(r) => r,
            Err(e) => {
                out.push(Violation::Shape {
                    what: format!("{e}"),
                });
                return None;
            }
        };
        rhs.push(decode_finite(b, || format!("rhs of row {i}"), out).unwrap_or_else(BigRat::zero));
        let (sl, sh) = match kind {
            RowKind::Le => (Some(BigRat::zero()), None),
            RowKind::Ge => (None, Some(BigRat::zero())),
            RowKind::Eq => (Some(BigRat::zero()), Some(BigRat::zero())),
        };
        lo.push(sl);
        hi.push(sh);
        cost.push(BigRat::zero());
        col_start.push(row_of.len());
        row_of.push(i);
        coef.push(BigRat::one());
    }
    col_start.push(row_of.len());
    if out.len() > before {
        return None;
    }
    Some(Exact {
        n,
        m,
        lo,
        hi,
        cost,
        col_start,
        row_of,
        coef,
        rhs,
    })
}

// The functions below index into vectors whose lengths were validated by
// the shape pass (and built by `decode_problem` itself); a failed lookup
// here would be a checker bug, and the checker must not mask its own bugs
// with silent `get` fallbacks.
// shape is pre-validated (C1) and the C3/C4 passes walk several
// equal-length columns at once, so indexed range loops stay
#[allow(clippy::indexing_slicing, clippy::needless_range_loop)]
fn check_optimal(ex: &Exact, sol: &Solution, ctx: &mut Ctx) {
    let (n, m) = (ex.n, ex.m);
    let cert = &sol.certificate;

    // decode the certificate payload
    let mut viol = Vec::new();
    let x: Vec<BigRat> = sol
        .x
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            decode_finite(v, || format!("x[{j}]"), &mut viol).unwrap_or_else(BigRat::zero)
        })
        .collect();
    let y: Vec<BigRat> = cert
        .y
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            decode_finite(v, || format!("dual y[{i}]"), &mut viol).unwrap_or_else(BigRat::zero)
        })
        .collect();
    let reduced: Vec<BigRat> = cert
        .reduced
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            decode_finite(v, || format!("reduced cost d[{j}]"), &mut viol)
                .unwrap_or_else(BigRat::zero)
        })
        .collect();
    let objective = decode_finite(sol.objective, || "objective".to_owned(), &mut viol);
    ctx.violations.append(&mut viol);
    let Some(objective) = objective else {
        return;
    };
    if !ctx.violations.is_empty() {
        return;
    }

    // internal variable values: structural from the solution, slack from
    // the exact row activity so that Ax + s = b holds by construction;
    // each value carries the absolute mass that produced it
    let mut act: Vec<BigRat> = vec![BigRat::zero(); m];
    let mut act_mag: Vec<BigRat> = vec![BigRat::zero(); m];
    for (j, xj) in x.iter().enumerate() {
        for (r, a) in ex.col(j) {
            let t = a.mul(xj);
            act_mag[r].add_abs_assign(&t);
            act[r].add_assign(&t);
        }
    }
    let mut val_mag: Vec<BigRat> = Vec::with_capacity(n + m);
    val_mag.extend(x.iter().map(BigRat::abs));
    let mut val = x;
    val.reserve(m);
    for (i, (a, mut a_mag)) in act.iter().zip(act_mag).enumerate() {
        let mut s = ex.rhs[i].clone();
        s.sub_assign(a);
        val.push(s);
        a_mag.add_abs_assign(&ex.rhs[i]);
        val_mag.push(a_mag);
    }
    let x = &val[..n];

    // C2a: every internal variable within its bounds
    for j in 0..n + m {
        if let Some(l) = &ex.lo[j] {
            let under = l.sub(&val[j]); // positive ⇒ below the lower bound
            let band = ctx.band_with(&val_mag[j], l);
            ctx.expect_le(&under, &band, |resid| Violation::PrimalBound {
                var: j,
                resid,
            });
        }
        if let Some(h) = &ex.hi[j] {
            let over = val[j].sub(h);
            let band = ctx.band_with(&val_mag[j], h);
            ctx.expect_le(&over, &band, |resid| Violation::PrimalBound {
                var: j,
                resid,
            });
        }
    }

    // C2b: nonbasic variables sit exactly at their claimed bound
    for j in 0..n + m {
        let claimed = match cert.status[j] {
            VarStatus::Basic => continue,
            VarStatus::AtLower => &ex.lo[j],
            VarStatus::AtUpper => &ex.hi[j],
            VarStatus::Free => {
                let band = ctx.band(&val_mag[j]);
                ctx.expect_zero(&val[j], &band, |resid| Violation::NonbasicOffBound {
                    var: j,
                    resid,
                });
                continue;
            }
        };
        let Some(b) = claimed else {
            ctx.violations.push(Violation::Shape {
                what: format!("var {j} claims an infinite bound as its resting point"),
            });
            continue;
        };
        let r = val[j].sub(b);
        let band = ctx.band_with(&val_mag[j], b);
        ctx.expect_zero(&r, &band, |resid| Violation::NonbasicOffBound {
            var: j,
            resid,
        });
    }

    // C3: exact reduced costs — recorded agreement and dual feasibility
    for j in 0..n + m {
        // d = c_j − Σ y_r·a_rj, accumulated in place from c_j
        let mut d = ex.cost[j].clone();
        let mut zmag = ex.cost[j].abs();
        for (r, a) in ex.col(j) {
            let t = y[r].mul(a);
            zmag.add_abs_assign(&t);
            d.sub_assign(&t);
        }
        let band = ctx.band(&zmag);
        let diff = d.sub(&reduced[j]);
        ctx.expect_zero(&diff, &band, |resid| Violation::ReducedCostMismatch {
            var: j,
            resid,
        });
        // fixed variables carry no sign constraint
        if let (Some(l), Some(h)) = (&ex.lo[j], &ex.hi[j]) {
            if l == h {
                continue;
            }
        }
        match cert.status[j] {
            VarStatus::Basic | VarStatus::Free => {
                ctx.expect_zero(&d, &band, |resid| Violation::DualInfeasible {
                    var: j,
                    resid,
                });
            }
            VarStatus::AtLower => {
                // need d ≥ −band, i.e. −d ≤ band
                ctx.expect_le(&d.negate(), &band, |resid| Violation::DualInfeasible {
                    var: j,
                    resid,
                });
            }
            VarStatus::AtUpper => {
                ctx.expect_le(&d, &band, |resid| Violation::DualInfeasible {
                    var: j,
                    resid,
                });
            }
        }
    }

    // C4a: recorded objective agrees with exact cᵀx
    let mut obj = BigRat::zero();
    let mut obj_mag = BigRat::zero();
    for (j, xj) in x.iter().enumerate() {
        let t = ex.cost[j].mul(xj);
        obj_mag.add_abs_assign(&t);
        obj.add_assign(&t);
    }
    let band = ctx.band(&obj_mag);
    let diff = obj.sub(&objective);
    ctx.expect_zero(&diff, &band, |resid| Violation::ObjectiveMismatch { resid });

    // C4b: strong duality — cᵀx equals yᵀb + Σ_{nonbasic j} d_j·bound_j,
    // with the recorded reduced costs standing in for d_j (their agreement
    // with y was established in C3)
    let mut dual = BigRat::zero();
    let mut dual_mag = BigRat::zero();
    for (i, yi) in y.iter().enumerate() {
        let t = yi.mul(&ex.rhs[i]);
        dual_mag.add_abs_assign(&t);
        dual.add_assign(&t);
    }
    for j in 0..n + m {
        let bval = match cert.status[j] {
            VarStatus::Basic | VarStatus::Free => continue,
            VarStatus::AtLower => &ex.lo[j],
            VarStatus::AtUpper => &ex.hi[j],
        };
        let Some(b) = bval else {
            continue; // already reported as Shape in C2b
        };
        if b.is_zero() {
            continue;
        }
        let t = reduced[j].mul(b);
        dual_mag.add_abs_assign(&t);
        dual.add_assign(&t);
    }
    let mut mass = obj_mag;
    mass.add_assign(&dual_mag);
    let band = ctx.band(&mass);
    let mut gap = obj;
    gap.sub_assign(&dual);
    ctx.expect_zero(&gap, &band, |resid| Violation::DualityGap { resid });
}

/// Verifies an optimality certificate against its problem: primal
/// feasibility, claimed nonbasic resting points, dual feasibility,
/// recorded-vs-exact reduced costs, objective agreement, and strong
/// duality — all in exact arithmetic over bands of `2^eps_exp` scaled by
/// the exactly-accumulated term magnitudes.
pub fn check_with(p: &Problem, sol: &Solution, cfg: &CheckConfig) -> Report {
    let mut ctx = Ctx::new(cfg);
    let n = p.num_vars();
    let m = p.num_rows();
    let cert = &sol.certificate;

    // C1: dimensions and basis bookkeeping must line up before any index
    // below can be trusted
    let dims = [
        (sol.x.len(), n, "x"),
        (cert.status.len(), n + m, "status"),
        (cert.reduced.len(), n + m, "reduced"),
        (cert.y.len(), m, "y"),
        (cert.basis.len(), m, "basis"),
    ];
    for (got, want, what) in dims {
        ctx.checks += 1;
        if got != want {
            ctx.violations.push(Violation::Shape {
                what: format!("{what} has length {got}, expected {want}"),
            });
        }
    }
    if !ctx.violations.is_empty() {
        return ctx.finish();
    }
    let mut seen = vec![false; n + m];
    let mut basic_rows = 0usize;
    for (i, &b) in cert.basis.iter().enumerate() {
        ctx.checks += 1;
        if b == REDUNDANT_ROW {
            continue;
        }
        let Some(was) = seen.get_mut(b) else {
            ctx.violations.push(Violation::Shape {
                what: format!("basis of row {i} references internal var {b} of {}", n + m),
            });
            continue;
        };
        if *was {
            ctx.violations.push(Violation::Shape {
                what: format!("internal var {b} is basic in more than one row"),
            });
        }
        *was = true;
        basic_rows += 1;
        if cert.status.get(b).copied() != Some(VarStatus::Basic) {
            ctx.violations.push(Violation::Shape {
                what: format!("basis of row {i} names var {b}, whose status is not Basic"),
            });
        }
    }
    let basic_statuses = cert
        .status
        .iter()
        .filter(|s| matches!(s, VarStatus::Basic))
        .count();
    ctx.checks += 1;
    if basic_statuses != basic_rows {
        ctx.violations.push(Violation::Shape {
            what: format!("{basic_statuses} Basic statuses for {basic_rows} basis rows"),
        });
    }
    if !ctx.violations.is_empty() {
        return ctx.finish();
    }

    // C0: decode everything exactly (records NonFinite on failure)
    let Some(ex) = decode_problem(p, &mut ctx.violations) else {
        return ctx.finish();
    };
    check_optimal(&ex, sol, &mut ctx);
    ctx.finish()
}

/// Verifies a Farkas-style infeasibility witness: with `z_j = yᵀA_j`
/// over the internal variables, every `z_j` must point at a finite bound
/// (or carry only tolerance-level weight, which the check conservatively
/// drops — widening, never shrinking, the claimed gap), and the exact
/// gap `yᵀb − Σ_j max(z_j·lo_j, z_j·hi_j)` must be strictly positive.
pub fn check_infeasible_with(p: &Problem, ray: &FarkasRay, cfg: &CheckConfig) -> Report {
    let mut ctx = Ctx::new(cfg);
    let m = p.num_rows();
    ctx.checks += 1;
    if ray.y.len() != m {
        ctx.violations.push(Violation::Shape {
            what: format!("ray has length {}, expected {m}", ray.y.len()),
        });
        return ctx.finish();
    }
    let mut viol = Vec::new();
    let y: Vec<BigRat> = ray
        .y
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            decode_finite(v, || format!("ray y[{i}]"), &mut viol).unwrap_or_else(BigRat::zero)
        })
        .collect();
    ctx.violations.append(&mut viol);
    let Some(ex) = decode_problem(p, &mut ctx.violations) else {
        return ctx.finish();
    };
    if !ctx.violations.is_empty() {
        return ctx.finish();
    }
    farkas_gap(&ex, &y, &mut ctx);
    ctx.finish()
}

#[allow(clippy::indexing_slicing)] // lengths validated by the callers
fn farkas_gap(ex: &Exact, y: &[BigRat], ctx: &mut Ctx) {
    let (n, m) = (ex.n, ex.m);
    let mut cap_sum = BigRat::zero();
    for j in 0..n + m {
        let mut z = BigRat::zero();
        let mut zmag = BigRat::zero();
        for (r, a) in ex.col(j) {
            let t = y[r].mul(a);
            zmag.add_abs_assign(&t);
            z.add_assign(&t);
        }
        if z.is_zero() {
            continue;
        }
        let bound = if z.is_positive() {
            &ex.hi[j]
        } else {
            &ex.lo[j]
        };
        match bound {
            Some(b) => cap_sum.add_assign(&z.mul(b)),
            None => {
                // unbounded direction: only tolerance-level weight may be
                // dropped (dropping raises the cap bound toward +∞ — er,
                // removes a −∞ cap — so it only *hurts* the gap claim
                // when the weight is genuinely nonzero)
                let band = ctx.band(&zmag);
                ctx.expect_zero(&z, &band, |resid| Violation::FarkasLeak { var: j, resid });
            }
        }
    }
    let mut gap = BigRat::zero();
    for (i, yi) in y.iter().enumerate() {
        gap.add_assign(&yi.mul(&ex.rhs[i]));
    }
    gap.sub_assign(&cap_sum);
    ctx.checks += 1;
    if !gap.is_positive() {
        ctx.violations.push(Violation::FarkasGapNonPositive {
            gap: gap.approx_f64(),
        });
    }
}

#[cfg(test)]
// tests build poisoned floats on purpose
#[allow(clippy::float_arithmetic, clippy::float_cmp)]
mod tests {
    use super::*;
    use clk_lp::{solve_certified, Certified, Problem, RowKind};

    fn solved(p: &Problem) -> Solution {
        match solve_certified(p).unwrap() {
            Certified::Optimal(s) => s,
            Certified::Infeasible { .. } => panic!("unexpected infeasible"),
        }
    }

    fn infeasible_ray(p: &Problem) -> FarkasRay {
        match solve_certified(p).unwrap() {
            Certified::Optimal(_) => panic!("unexpected optimum"),
            Certified::Infeasible { ray } => ray,
        }
    }

    #[test]
    fn objective_agreement_band() {
        // ε = 2^-17 ≈ 7.6e-6, scaled by 1 + |a| + |b|
        assert!(objectives_agree(100.0, 100.0 + 1e-4));
        assert!(!objectives_agree(100.0, 100.01));
        assert!(objectives_agree(0.0, 5e-6));
        assert!(!objectives_agree(0.0, 1e-5));
        assert!(!objectives_agree(f64::NAN, f64::NAN));
        assert!(!objectives_agree(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn textbook_certificate_verifies() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, -3.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, -5.0).unwrap();
        p.add_row(RowKind::Le, 4.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Le, 12.0, &[(y, 2.0)]).unwrap();
        p.add_row(RowKind::Le, 18.0, &[(x, 3.0), (y, 2.0)]).unwrap();
        let s = solved(&p);
        let r = check(&p, &s);
        assert!(r.ok(), "{:?}", r.violations);
        assert!(r.checks > 10);
        assert!(r.max_resid < 1e-9, "max_resid {}", r.max_resid);
    }

    #[test]
    fn equality_and_bound_mix_verifies() {
        let mut p = Problem::new();
        let x = p.add_var(-5.0, 5.0, 1.0).unwrap();
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0).unwrap();
        p.add_row(RowKind::Eq, -2.0, &[(x, 1.0), (y, 1.0)]).unwrap();
        p.add_row(RowKind::Ge, -3.0, &[(y, 1.0)]).unwrap();
        let s = solved(&p);
        let r = check(&p, &s);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn honest_farkas_ray_verifies() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_row(RowKind::Ge, 5.0, &[(x, 1.0)]).unwrap();
        let ray = infeasible_ray(&p);
        let r = check_infeasible(&p, &ray);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn contradictory_equalities_ray_verifies() {
        let mut p = Problem::new();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0).unwrap();
        p.add_row(RowKind::Eq, 1.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Eq, 2.0, &[(x, 1.0)]).unwrap();
        let ray = infeasible_ray(&p);
        let r = check_infeasible(&p, &ray);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn perturbed_dual_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, -3.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, -5.0).unwrap();
        p.add_row(RowKind::Le, 4.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Le, 12.0, &[(y, 2.0)]).unwrap();
        p.add_row(RowKind::Le, 18.0, &[(x, 3.0), (y, 2.0)]).unwrap();
        let mut s = solved(&p);
        s.certificate.y[1] += 1e-3;
        let r = check(&p, &s);
        assert!(!r.ok(), "perturbed dual must not verify");
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReducedCostMismatch { .. })));
    }

    #[test]
    fn dropped_basis_column_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_row(RowKind::Le, 2.0, &[(x, 1.0)]).unwrap();
        let mut s = solved(&p);
        s.certificate.basis.pop();
        let r = check(&p, &s);
        assert!(!r.ok());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Shape { .. })));
    }

    #[test]
    fn flipped_farkas_sign_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_row(RowKind::Ge, 5.0, &[(x, 1.0)]).unwrap();
        let mut ray = infeasible_ray(&p);
        for v in &mut ray.y {
            *v = -*v;
        }
        let r = check_infeasible(&p, &ray);
        assert!(!r.ok(), "flipped ray must not verify");
    }

    #[test]
    fn zero_ray_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_row(RowKind::Ge, 5.0, &[(x, 1.0)]).unwrap();
        let ray = FarkasRay { y: vec![0.0] };
        let r = check_infeasible(&p, &ray);
        assert!(!r.ok());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FarkasGapNonPositive { .. })));
    }

    #[test]
    fn corrupted_solution_value_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_row(RowKind::Le, 2.0, &[(x, 1.0)]).unwrap();
        let mut s = solved(&p);
        s.x[0] = 2.5; // beyond the binding row
        let r = check(&p, &s);
        assert!(!r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn nan_poisoned_problem_is_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_row(RowKind::Le, 2.0, &[(x, 1.0)]).unwrap();
        let s = solved(&p);
        p.debug_poison_rhs(0, f64::NAN);
        let r = check(&p, &s);
        assert!(!r.ok());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonFinite { .. })));
        let _ = x;
    }

    #[test]
    fn shifted_rhs_after_solve_is_rejected() {
        // certificate/problem disagreement: solve honest, then move b
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, -1.0).unwrap();
        p.add_row(RowKind::Le, 2.0, &[(x, 1.0)]).unwrap();
        let s = solved(&p);
        p.debug_poison_rhs(0, 1.0);
        let r = check(&p, &s);
        assert!(!r.ok(), "stale certificate must not verify");
    }
}
