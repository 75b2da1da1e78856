//! Bounded-variable revised primal simplex that keeps only the inverse
//! of the basis's structural kernel.
//!
//! Slacks and artificials are *unit* columns, one ±1 entry in their own
//! row. A row whose unit column is basic is in S, every other row in R,
//! and the basic structurals form C, so |R| = |C| = s. Ordered rows S
//! then R and columns units then C, the basis is
//! `B = [[D, A_SC], [0, K]]` with `D = diag(±1)` and `K = A[R, C]`, and
//! `B⁻¹ = [[D⁻¹, −D⁻¹·A_SC·K⁻¹], [0, K⁻¹]]`. Only a dense K⁻¹ is kept,
//! with the partition; the global LP has s ≈ 13% of its rows. ftran is
//! `w_C = K⁻¹·a_R`, then `w_S = D⁻¹·(a_S − A_SC·w_C)` through the sparse
//! entries of the basic structurals in S; btran is `y_S = D⁻¹·c_S`, then
//! `y_R = K⁻ᵀ·(c_C − A_SCᵀ·y_S)`. Each basis change is one O(s²) update
//! of K⁻¹, the eta update of B⁻¹ restricted to that block: a structural
//! replacing a unit column borders K with a row and a column, the
//! reverse removes one of each, and a structural replacing a structural
//! (a unit column replacing one of another row) changes one column (one
//! row) of K. Every 1 000 basis changes (`REFACTOR_EVERY`) K⁻¹ is
//! rebuilt from A[R, C] by Gauss–Jordan elimination with partial
//! pivoting.
//!
//! Pricing is incremental. The duals `y` and the reduced cost of every
//! column are priced from scratch once per phase (and after a refactor)
//! and then kept across pivots. A basis change recomputes only the duals
//! of the columns of K⁻¹ its update wrote and of the rows it moved in or
//! out of S; every other dual sums the same nonzero terms in the same
//! order and keeps its bits. Only the columns with an entry in a row
//! whose dual changed bits are re-priced. Debug builds re-price from
//! scratch after every basis change and assert bit equality, and check
//! `K·K⁻¹` against the identity on the columns each update wrote.

use clk_obs::{kv, Deadline, Level, Obs, SIMPLEX_POLL_STRIDE};

/// Handle of a decision variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Relation of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
}

/// Errors from the [`Problem`] builders and from [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below on the feasible set.
    Unbounded,
    /// The pivot limit was exceeded (numerical trouble).
    IterationLimit,
    /// The problem definition is invalid.
    BadProblem(String),
    /// A referenced `(variable, row)` structural term does not exist.
    UnknownTerm {
        /// The variable whose column was searched.
        var: VarId,
        /// The row the term was expected in.
        row: usize,
    },
    /// A value lookup referenced a variable that does not exist.
    VarOutOfRange(VarId),
    /// A row lookup referenced a row that does not exist.
    RowOutOfRange(usize),
    /// The solve was cut by its [`Deadline`] (wall-clock expiry or
    /// cooperative cancel) before reaching optimality. Deliberately a
    /// typed error, not a partial [`Solution`]: an interrupted basis
    /// carries no certificate and must not be mistaken for an optimum.
    Interrupted,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => f.write_str("problem is infeasible"),
            LpError::Unbounded => f.write_str("objective is unbounded"),
            LpError::IterationLimit => f.write_str("simplex iteration limit exceeded"),
            LpError::BadProblem(m) => write!(f, "invalid problem: {m}"),
            LpError::UnknownTerm { var, row } => {
                write!(f, "no existing term for {var:?} in row {row}")
            }
            LpError::VarOutOfRange(v) => write!(f, "variable {v:?} is out of range"),
            LpError::RowOutOfRange(i) => write!(f, "row {i} is out of range"),
            LpError::Interrupted => f.write_str("solve interrupted by deadline or cancellation"),
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program `min cᵀx` over sparse rows and variable bounds.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    lo: Vec<f64>,
    hi: Vec<f64>,
    cost: Vec<f64>,
    rows: Vec<(RowKind, f64)>,
    /// column-major sparse structural matrix
    cols: Vec<Vec<(usize, f64)>>,
}

impl Problem {
    /// An empty problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Adds a variable with bounds `[lo, hi]` (±∞ allowed) and objective
    /// coefficient `cost`.
    ///
    /// # Errors
    ///
    /// [`LpError::BadProblem`] if `lo > hi`, a bound is NaN, or `cost` is
    /// not finite.
    pub fn add_var(&mut self, lo: f64, hi: f64, cost: f64) -> Result<VarId, LpError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(LpError::BadProblem(format!(
                "variable bound is NaN: [{lo}, {hi}]"
            )));
        }
        if lo > hi {
            return Err(LpError::BadProblem(format!(
                "variable bounds out of order: [{lo}, {hi}]"
            )));
        }
        if !cost.is_finite() {
            return Err(LpError::BadProblem(format!(
                "objective coefficient must be finite, got {cost}"
            )));
        }
        self.lo.push(lo);
        self.hi.push(hi);
        self.cost.push(cost);
        self.cols.push(Vec::new());
        Ok(VarId(self.cols.len() - 1))
    }

    /// Adds a constraint row `Σ coef·var (kind) rhs`. Duplicate variable
    /// terms are summed. On error the problem is left unchanged.
    ///
    /// # Errors
    ///
    /// [`LpError::BadProblem`] if `rhs` or a coefficient is not finite, or
    /// a term references an unknown variable.
    pub fn add_row(
        &mut self,
        kind: RowKind,
        rhs: f64,
        terms: &[(VarId, f64)],
    ) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::BadProblem(format!(
                "rhs must be finite, got {rhs}"
            )));
        }
        for &(v, a) in terms {
            if !a.is_finite() {
                return Err(LpError::BadProblem(format!(
                    "coefficient of {v:?} must be finite, got {a}"
                )));
            }
            if v.0 >= self.cols.len() {
                return Err(LpError::BadProblem(format!("unknown variable {v:?}")));
            }
        }
        let row = self.rows.len();
        self.rows.push((kind, rhs));
        // BTreeMap so duplicate-term merging emits column entries in
        // variable order — HashMap order here leaked into the pivot
        // sequence and made same-seed runs diverge
        let mut merged: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for &(v, a) in terms {
            *merged.entry(v.0).or_insert(0.0) += a;
        }
        for (v, a) in merged {
            if a != 0.0 {
                if let Some(col) = self.cols.get_mut(v) {
                    col.push((row, a));
                }
            }
        }
        Ok(())
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The `[lo, hi]` bounds of a variable.
    ///
    /// # Errors
    ///
    /// [`LpError::VarOutOfRange`] if the variable does not exist.
    pub fn bounds(&self, v: VarId) -> Result<(f64, f64), LpError> {
        match (self.lo.get(v.0), self.hi.get(v.0)) {
            (Some(&l), Some(&h)) => Ok((l, h)),
            _ => Err(LpError::VarOutOfRange(v)),
        }
    }

    /// The objective coefficient of a variable.
    ///
    /// # Errors
    ///
    /// [`LpError::VarOutOfRange`] if the variable does not exist.
    pub fn cost(&self, v: VarId) -> Result<f64, LpError> {
        self.cost.get(v.0).copied().ok_or(LpError::VarOutOfRange(v))
    }

    /// The relation and right-hand side of row `i`.
    ///
    /// # Errors
    ///
    /// [`LpError::RowOutOfRange`] if the row does not exist.
    pub fn row(&self, i: usize) -> Result<(RowKind, f64), LpError> {
        self.rows.get(i).copied().ok_or(LpError::RowOutOfRange(i))
    }

    /// The sparse column of a variable as `(row, coefficient)` pairs.
    ///
    /// # Errors
    ///
    /// [`LpError::VarOutOfRange`] if the variable does not exist.
    pub fn col(&self, v: VarId) -> Result<&[(usize, f64)], LpError> {
        self.cols
            .get(v.0)
            .map(Vec::as_slice)
            .ok_or(LpError::VarOutOfRange(v))
    }

    // ---- corruption hooks (fault-injection test support) --------------
    //
    // These bypass `add_var`/`add_row` validation on purpose so the
    // model-audit tests in `clk-lint`, the chaos harness, and the
    // certificate gate can build numerically poisoned problems and assert
    // that the auditors diagnose them. Hidden from docs and gated behind
    // the `debug-poison` cargo feature so the fault-injection surface is
    // absent from the default release API; must never be called by flow
    // code.

    /// Overwrites a variable's bounds without validation.
    #[doc(hidden)]
    #[cfg(any(test, feature = "debug-poison"))]
    #[allow(clippy::indexing_slicing)] // poison hooks assume valid ids
    pub fn debug_poison_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        self.lo[v.0] = lo;
        self.hi[v.0] = hi;
    }

    /// Overwrites a variable's objective coefficient without validation.
    #[doc(hidden)]
    #[cfg(any(test, feature = "debug-poison"))]
    #[allow(clippy::indexing_slicing)] // poison hooks assume valid ids
    pub fn debug_poison_cost(&mut self, v: VarId, cost: f64) {
        self.cost[v.0] = cost;
    }

    /// Overwrites a row's right-hand side without validation.
    #[doc(hidden)]
    #[cfg(any(test, feature = "debug-poison"))]
    #[allow(clippy::indexing_slicing)] // poison hooks assume valid ids
    pub fn debug_poison_rhs(&mut self, i: usize, rhs: f64) {
        self.rows[i].1 = rhs;
    }

    /// Overwrites one structural coefficient without validation. The term
    /// `(row, coefficient)` must already exist in the variable's column.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownTerm`] if the variable has no structural term in
    /// `row` (the poison hooks never create structure, only corrupt it).
    #[doc(hidden)]
    #[cfg(any(test, feature = "debug-poison"))]
    #[allow(clippy::indexing_slicing)] // poison hooks assume valid ids
    pub fn debug_poison_coeff(&mut self, v: VarId, row: usize, a: f64) -> Result<(), LpError> {
        for t in &mut self.cols[v.0] {
            if t.0 == row {
                t.1 = a;
                return Ok(());
            }
        }
        Err(LpError::UnknownTerm { var: v, row })
    }
}

/// Sentinel basis entry for a row whose basic variable is an artificial
/// left at value zero after phase 1 (a numerically redundant row).
pub const REDUNDANT_ROW: usize = usize::MAX;

/// Status of one internal variable (structural or slack) at the final
/// simplex vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis; value determined by `B⁻¹b`.
    Basic,
    /// Nonbasic, parked at its lower bound.
    AtLower,
    /// Nonbasic, parked at its upper bound.
    AtUpper,
    /// Free nonbasic variable parked at zero.
    Free,
}

/// A proof sketch of optimality, emitted with every successful solve and
/// re-verifiable in exact arithmetic by `clk-cert`.
///
/// Indices refer to the solver's *internal* variable space: the `n`
/// structural variables first, then one slack per row (`n + i` for row
/// `i`, with bounds `Le → [0, ∞)`, `Ge → (−∞, 0]`, `Eq → [0, 0]`).
/// Artificial variables never appear; a row whose artificial stayed basic
/// at zero is recorded as [`REDUNDANT_ROW`].
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Internal variable basic in each row (or [`REDUNDANT_ROW`]).
    pub basis: Vec<usize>,
    /// Status of each of the `n + m` internal variables.
    pub status: Vec<VarStatus>,
    /// Row duals `y = B⁻ᵀ c_B` under the phase-2 objective.
    pub y: Vec<f64>,
    /// Reduced cost `d_j = c_j − yᵀA_j` of each internal variable.
    pub reduced: Vec<f64>,
}

/// A Farkas-style infeasibility witness: row multipliers `y` such that
/// `yᵀb` exceeds the maximum of `yᵀAx` over the variable bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct FarkasRay {
    /// Row multipliers (the phase-1 duals at the infeasible optimum).
    pub y: Vec<f64>,
}

/// Outcome of a certified solve: either an optimum with its certificate
/// or a proof of infeasibility.
#[derive(Debug, Clone, PartialEq)]
pub enum Certified {
    /// The problem was solved to optimality.
    Optimal(Solution),
    /// No feasible point exists; `ray` witnesses the contradiction.
    Infeasible {
        /// The infeasibility witness.
        ray: FarkasRay,
    },
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable values (structural variables only).
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
    /// Simplex pivots used.
    pub iterations: usize,
    /// Optimality certificate for independent exact re-verification.
    pub certificate: Certificate,
}

impl Solution {
    /// The value of `v`.
    ///
    /// # Errors
    ///
    /// [`LpError::VarOutOfRange`] if `v` does not exist in the solved
    /// problem.
    pub fn value(&self, v: VarId) -> Result<f64, LpError> {
        self.x.get(v.0).copied().ok_or(LpError::VarOutOfRange(v))
    }
}

const TOL: f64 = 1e-7;

/// Basis changes between two refactors of the kernel inverse.
const REFACTOR_EVERY: usize = 1000;

/// Marks "none" in the partition's index arrays.
const NONE: usize = usize::MAX;

/// Pivot-level statistics from one simplex phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseStats {
    iters: usize,
    bound_flips: usize,
    degenerate: usize,
    /// reduced costs computed by pricing
    reduced_costs: usize,
    /// kernel inverses rebuilt from scratch
    refactors: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic variable parked at zero.
    FreeZero,
}

/// Where a row stands in the basis partition.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Home {
    /// The row's slack or artificial, with this sign, is basic at this
    /// basis position.
    Unit { pos: usize, sign: f64 },
    /// The row is this row of the kernel K.
    Kernel(usize),
}

/// How a basis change changed the kernel K.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Update {
    /// A structural replaced a unit column: K gained a last row and column.
    Border,
    /// A unit column replaced the structural of kernel column `b`: K lost
    /// that column and one row.
    Shrink { b: usize },
    /// A structural replaced the structural of kernel column `b`.
    Column { b: usize },
    /// A unit column replaced a unit column: K lost one row and gained
    /// another in its place, or (within one row) did not change.
    Row,
}

/// The simplex tableau over the block form of the basis.
///
/// A *unit* column is a slack (+1) or an artificial (±1), one entry in
/// its own row. A row whose unit column is basic is in S; every other
/// row is in R. With C the basic structurals, |R| = |C| = s and, rows S
/// then R and columns units then C,
///
/// ```text
/// B = [[D, A_SC], [0, K]]      B⁻¹ = [[D⁻¹, −D⁻¹·A_SC·K⁻¹], [0, K⁻¹]]
/// ```
///
/// with D = diag(±1) and K = A[R, C]. Only K⁻¹ is stored, with A_SC
/// kept sparse in `uterms`.
#[derive(Debug, Clone)]
struct Tableau {
    /// per-variable sparse columns (structural + slack + artificial)
    cols: Vec<Vec<(usize, f64)>>,
    /// structural columns are `0..n`; every later column is a unit column
    n: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    cost: Vec<f64>,
    phase_cost: Vec<f64>,
    state: Vec<State>,
    /// variable basic at each position; the ratio test scans positions
    basis: Vec<usize>,
    /// values of basic variables per position
    xb: Vec<f64>,
    m: usize,
    /// row-major copy of `cols`: the entries of row `i` are
    /// `row_cols/row_vals[row_start[i]..row_start[i + 1]]`, by column
    row_start: Vec<usize>,
    row_cols: Vec<usize>,
    row_vals: Vec<f64>,
    /// partition of each row
    home: Vec<Home>,
    /// constraint row of each kernel row
    krow: Vec<usize>,
    /// basis position of each kernel column
    kpos: Vec<usize>,
    /// kernel column of each structural, or [`NONE`] when nonbasic
    kcol: Vec<usize>,
    /// the entries of each kernel column in the rows of S, as `(basis
    /// position of the row's unit column, d_i·a)`, in no set order: the
    /// sparse `D⁻¹·A_SC` that ftran scatters
    uterms: Vec<Vec<(usize, f64)>>,
    /// K⁻¹, column-major with stride `cap`: `kinv[a*cap + b]` is
    /// `K⁻¹[b][a]`, so column `a` (kernel row `a`) is one slice
    kinv: Vec<f64>,
    /// largest possible s, `min(m, n)`
    cap: usize,
    /// basis changes since K⁻¹ was last rebuilt from scratch
    updates: usize,
}

/// Pricing state and per-pivot buffers of one solve, kept across its
/// pivots and phases.
struct Work {
    /// duals `B⁻ᵀ c_B`, by row
    y: Vec<f64>,
    /// reduced cost `c_j − yᵀA_j` of every column, basic ones included
    d: Vec<f64>,
    /// `c_C − A_SCᵀ·y_S`, by kernel column: `y_R = K⁻ᵀ·g`
    g: Vec<f64>,
    /// entering column `B⁻¹ A_j`, by basis position
    w: Vec<f64>,
    /// positions that may be nonzero in `w`
    w_nz: Vec<u64>,
    /// the kernel part of `w`, `K⁻¹·A_j[R]`, by kernel column; a
    /// unit-for-unit basis change, which does not read it, uses it as
    /// scratch for a column of K⁻¹
    wc: Vec<f64>,
    /// scratch: a row of A times K⁻¹, or a column of K⁻¹
    z: Vec<f64>,
    /// scratch: the kernel entries `(kernel column, value)` of a row
    v: Vec<(usize, f64)>,
    /// columns of K⁻¹ the last basis change wrote
    touched: Vec<usize>,
    /// rows whose basic unit column the last basis change moved, each
    /// with whether the row was in S before it
    moved: Vec<(usize, bool)>,
    /// rows whose dual changed bits in the last re-price
    changed: Vec<usize>,
    /// re-price in which each column's reduced cost was last recomputed
    stamp: Vec<u64>,
    /// re-price in which each column of K⁻¹ was last queued
    kstamp: Vec<u64>,
    /// re-prices so far
    epoch: u64,
}

impl Work {
    fn new(t: &Tableau) -> Self {
        let (m, n) = (t.m, t.cols.len());
        Work {
            y: vec![0.0; m],
            d: vec![0.0; n],
            g: Vec::with_capacity(t.cap),
            w: vec![0.0; m],
            w_nz: vec![0; m.div_ceil(64)],
            wc: Vec::with_capacity(t.cap),
            z: Vec::with_capacity(t.cap),
            v: Vec::new(),
            touched: Vec::new(),
            moved: Vec::new(),
            changed: Vec::new(),
            stamp: vec![0; n],
            kstamp: vec![0; t.cap],
            epoch: 0,
        }
    }
}

/// The row-major copy of `cols` over `m` rows, as `(row_start,
/// row_cols, row_vals)`; see [`Tableau::row`].
// every row index of `cols` is below `m` by construction
#[allow(clippy::indexing_slicing)]
fn row_index(cols: &[Vec<(usize, f64)>], m: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut row_start = vec![0; m + 1];
    for &(r, _) in cols.iter().flatten() {
        row_start[r + 1] += 1;
    }
    for i in 0..m {
        row_start[i + 1] += row_start[i];
    }
    let mut next = row_start.clone();
    let mut row_cols = vec![0; row_start[m]];
    let mut row_vals = vec![0.0; row_start[m]];
    for (j, col) in cols.iter().enumerate() {
        for &(r, a) in col {
            row_cols[next[r]] = j;
            row_vals[next[r]] = a;
            next[r] += 1;
        }
    }
    (row_start, row_cols, row_vals)
}

/// Calls `f` on the index of every set bit of `words`, in ascending order.
#[inline]
fn each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (wi, mut b) in words.enumerate() {
        while b != 0 {
            f(wi * 64 + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

/// `Σ x[i]·y[i]` in ascending order.
#[inline]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(0.0, |acc, (a, b)| acc + a * b)
}

// indices inside the tableau are constructed by the solver itself and are
// in-range by construction; bounds checks in the pivot loops would only
// hide logic bugs that the debug asserts already catch
#[allow(clippy::indexing_slicing)]
impl Tableau {
    fn nb_value(&self, j: usize) -> f64 {
        match self.state[j] {
            State::AtLower => self.lo[j],
            State::AtUpper => self.hi[j],
            State::FreeZero => 0.0,
            // clk-analyze: allow(A005) unreachable by construction: nb_value of basic
            State::Basic => unreachable!("nb_value of basic"),
        }
    }

    /// The columns and values of row `i`, by column.
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_start[i]..self.row_start[i + 1];
        (&self.row_cols[span.clone()], &self.row_vals[span])
    }

    /// The row and sign of unit column `j`.
    fn unit(&self, j: usize) -> (usize, f64) {
        self.cols[j][0]
    }

    /// The size s of the kernel.
    fn s(&self) -> usize {
        self.krow.len()
    }

    /// Column `a` of K⁻¹.
    fn kinv_col(&self, a: usize) -> &[f64] {
        &self.kinv[a * self.cap..a * self.cap + self.s()]
    }

    /// `w = B⁻¹·A_j` by basis position, with its kernel part `wc =
    /// K⁻¹·A_j[R]`: `wc` sums the columns of K⁻¹ of A_j's kernel rows in
    /// the order of A_j's entries, and a row in S gets `d_i` times its
    /// own entry of A_j minus its entries in the basic structural
    /// columns (`uterms`) times `wc`, in kernel column order. `w_nz`
    /// marks every position written.
    fn ftran(&self, j: usize, work: &mut Work) {
        let Work { w, w_nz, wc, .. } = work;
        w.fill(0.0);
        w_nz.fill(0);
        let mut mark = |p: usize| w_nz[p / 64] |= 1 << (p % 64);
        wc.clear();
        wc.resize(self.s(), 0.0);
        for &(i, a) in &self.cols[j] {
            match self.home[i] {
                Home::Kernel(k) => {
                    for (c, &q) in wc.iter_mut().zip(self.kinv_col(k)) {
                        *c += q * a;
                    }
                }
                Home::Unit { pos, sign } => {
                    w[pos] += sign * a;
                    mark(pos);
                }
            }
        }
        for ((&x, &p), terms) in wc.iter().zip(&self.kpos).zip(&self.uterms) {
            if x == 0.0 {
                continue;
            }
            w[p] = x;
            mark(p);
            for &(q, da) in terms {
                w[q] -= da * x;
                mark(q);
            }
        }
    }

    /// `y_S[i] = c_u / d_i` of a row whose unit column `u` of sign `d_i`
    /// is basic at position `pos`.
    fn unit_dual(&self, pos: usize, sign: f64, cost: &[f64]) -> f64 {
        let c = cost[self.basis[pos]];
        if c == 0.0 {
            0.0
        } else {
            c * sign
        }
    }

    /// `g[b] = c_b − Σ_{i∈S} A[i, b]·y_S[i]` of kernel column `b`, over
    /// the column's entries in order, skipping zero duals.
    fn kernel_cost(&self, b: usize, cost: &[f64], y: &[f64]) -> f64 {
        let j = self.basis[self.kpos[b]];
        let mut g = cost[j];
        for &(i, a) in &self.cols[j] {
            if matches!(self.home[i], Home::Unit { .. }) && y[i] != 0.0 {
                g -= a * y[i];
            }
        }
        g
    }

    /// Prices from scratch: y_S = D⁻¹·c_S, g, y_R = K⁻ᵀ·g, and the
    /// reduced cost of every column. Returns the reduced costs computed.
    fn price(&self, cost: &[f64], work: &mut Work) -> usize {
        for (i, h) in self.home.iter().enumerate() {
            if let Home::Unit { pos, sign } = *h {
                work.y[i] = self.unit_dual(pos, sign, cost);
            }
        }
        work.g.clear();
        for b in 0..self.s() {
            let g = self.kernel_cost(b, cost, &work.y);
            work.g.push(g);
        }
        let all: Vec<usize> = (0..self.s()).collect();
        let Work { y, g, .. } = work;
        self.kernel_duals(&all, g, |a, ya| y[self.krow[a]] = ya);
        for j in 0..work.d.len() {
            work.d[j] = self.reduced_cost(j, &work.y, cost);
        }
        work.d.len()
    }

    /// Re-prices after a basis change: the duals of the rows it moved in
    /// or out of S, `g` at the kernel column it changed and, when a moved
    /// row had or has a nonzero S dual, at every kernel column with an
    /// entry in that row, the kernel duals of the columns of K⁻¹ the
    /// change wrote or that read a changed `g`, and the reduced cost of
    /// every column with an entry in a row whose dual changed bits.
    /// Every other value reads the same nonzero terms in the same order
    /// as before and keeps its bits, so the result equals
    /// [`Self::price`] bit for bit. Returns the reduced costs recomputed.
    fn reprice(&self, upd: Update, cost: &[f64], work: &mut Work) -> usize {
        let s = self.s();
        match upd {
            Update::Border => work.g.push(0.0),
            Update::Shrink { b } => {
                work.g.remove(b);
            }
            Update::Column { .. } | Update::Row => {}
        }
        work.changed.clear();
        // rows whose S dual entered or left `g`
        let mut refresh = [NONE; 2];
        for (k, &(i, was_unit)) in work.moved.iter().enumerate() {
            let old = if was_unit { work.y[i] } else { 0.0 };
            let mut new = 0.0;
            if let Home::Unit { pos, sign } = self.home[i] {
                new = self.unit_dual(pos, sign, cost);
                if new.to_bits() != work.y[i].to_bits() {
                    work.y[i] = new;
                    work.changed.push(i);
                }
            }
            if old != 0.0 || new != 0.0 {
                refresh[k] = i;
            }
        }
        // a new or replaced kernel column changes `g` only where its row
        // of K⁻¹ is nonzero, which the update wrote
        match upd {
            Update::Border => work.g[s - 1] = self.kernel_cost(s - 1, cost, &work.y),
            Update::Column { b } => work.g[b] = self.kernel_cost(b, cost, &work.y),
            Update::Shrink { .. } | Update::Row => {}
        }
        work.epoch += 1;
        let epoch = work.epoch;
        let mut queue = std::mem::take(&mut work.touched);
        for &a in &queue {
            work.kstamp[a] = epoch;
        }
        for &i in refresh.iter().filter(|&&i| i != NONE) {
            let (cols, _) = self.row(i);
            for &j in cols {
                let b = if j < self.n { self.kcol[j] } else { NONE };
                if b == NONE {
                    continue;
                }
                let g = self.kernel_cost(b, cost, &work.y);
                if g.to_bits() == work.g[b].to_bits() {
                    continue;
                }
                work.g[b] = g;
                for a in 0..s {
                    if work.kstamp[a] != epoch && self.kinv[a * self.cap + b] != 0.0 {
                        work.kstamp[a] = epoch;
                        queue.push(a);
                    }
                }
            }
        }
        let Work { y, g, changed, .. } = work;
        self.kernel_duals(&queue, g, |a, ya| {
            let i = self.krow[a];
            if ya.to_bits() != y[i].to_bits() {
                y[i] = ya;
                changed.push(i);
            }
        });
        work.touched = queue;
        let mut priced = 0;
        for &i in &work.changed {
            for &j in self.row(i).0 {
                if work.stamp[j] != epoch {
                    work.stamp[j] = epoch;
                    work.d[j] = self.reduced_cost(j, &work.y, cost);
                    priced += 1;
                }
            }
        }
        priced
    }

    /// Checks that the kept duals, `g` and reduced costs equal a pricing
    /// from scratch, bit for bit.
    #[cfg(debug_assertions)]
    fn assert_priced(&self, cost: &[f64], work: &Work) {
        let mut fresh = Work::new(self);
        self.price(cost, &mut fresh);
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
        };
        debug_assert!(same(&fresh.g, &work.g), "kept kernel costs differ");
        debug_assert!(
            same(&fresh.y, &work.y),
            "kept duals differ from a full btran"
        );
        debug_assert!(
            same(&fresh.d, &work.d),
            "kept reduced costs differ from a full re-price"
        );
    }

    /// Checks that `K·K⁻¹` is the identity on the given columns of K⁻¹,
    /// to within a bound relative to the magnitude of each product, and
    /// that `uterms` holds each kernel column's entries in S.
    #[cfg(debug_assertions)]
    fn assert_kernel(&self, cols: &[usize]) {
        let s = self.s();
        let sorted = |mut t: Vec<(usize, f64)>| {
            t.sort_by_key(|&(q, _)| q);
            t
        };
        debug_assert!(
            self.uterms.len() == s
                && self
                    .kpos
                    .iter()
                    .zip(&self.uterms)
                    .all(|(&p, t)| { sorted(t.clone()) == sorted(self.uterms_of(self.basis[p])) }),
            "kernel columns' unit terms differ from their columns"
        );
        let (mut kq, mut mass) = (vec![0.0; s], vec![0.0; s]);
        for &a in cols {
            kq.fill(0.0);
            mass.fill(0.0);
            for (&q, &p) in self.kinv_col(a).iter().zip(&self.kpos) {
                for &(i, v) in &self.cols[self.basis[p]] {
                    if let Home::Kernel(k) = self.home[i] {
                        kq[k] += v * q;
                        mass[k] += (v * q).abs();
                    }
                }
            }
            for (k, (&x, &mk)) in kq.iter().zip(&mass).enumerate() {
                let want = if k == a { 1.0 } else { 0.0 };
                debug_assert!(
                    (x - want).abs() <= 1e-6 * (1.0 + mk),
                    "K·K⁻¹ is {x} at ({k}, {a}) of {s}, mass {mk}"
                );
            }
        }
    }

    /// Calls `f(a, K⁻¹[:, a]·g)` for each listed column `a` of K⁻¹, each
    /// dot product summed in ascending order as by [`dot`]; four columns
    /// share one pass, so that their sums proceed side by side.
    fn kernel_duals(&self, cols: &[usize], g: &[f64], mut f: impl FnMut(usize, f64)) {
        let mut quads = cols.chunks_exact(4);
        for q in &mut quads {
            let [c0, c1, c2, c3] = [q[0], q[1], q[2], q[3]].map(|a| self.kinv_col(a));
            let mut acc = [0.0; 4];
            for ((((&x0, &x1), &x2), &x3), &gb) in c0.iter().zip(c1).zip(c2).zip(c3).zip(g) {
                acc[0] += x0 * gb;
                acc[1] += x1 * gb;
                acc[2] += x2 * gb;
                acc[3] += x3 * gb;
            }
            for (&a, ya) in q.iter().zip(acc) {
                f(a, ya);
            }
        }
        for &a in quads.remainder() {
            f(a, dot(self.kinv_col(a), g));
        }
    }

    /// `z = A[i, C]·K⁻¹` of a row `i` in S, with the row's kernel
    /// entries in `v`.
    fn row_times_kinv(&self, i: usize, v: &mut Vec<(usize, f64)>, z: &mut Vec<f64>) {
        v.clear();
        let (cols, vals) = self.row(i);
        for (&j, &a) in cols.iter().zip(vals) {
            if j < self.n && self.kcol[j] != NONE {
                v.push((self.kcol[j], a));
            }
        }
        z.clear();
        for a in 0..self.s() {
            let col = self.kinv_col(a);
            z.push(v.iter().fold(0.0, |acc, &(b, x)| acc + x * col[b]));
        }
    }

    /// Replaces the basic variable at position `r` by `j`, with `work`
    /// holding `ftran(j)`, and updates K⁻¹ and the partition in O(s²).
    /// Each update is the eta update of B⁻¹ restricted to its K⁻¹ block:
    /// the columns of K⁻¹ it writes are listed in `work.touched`, and
    /// the rows whose unit column changed in `work.moved`. The leaving
    /// unit column's row takes its term out of `uterms`, the entering
    /// one's puts its own in.
    fn change_basis(&mut self, r: usize, j: usize, work: &mut Work) -> Update {
        let piv = work.w[r];
        debug_assert!(piv.abs() > 1e-12, "pivot too small");
        let leaving = self.basis[r];
        work.touched.clear();
        work.moved.clear();
        let upd = match (j < self.n, leaving < self.n) {
            (true, false) => {
                let (i, sign) = self.unit(leaving);
                self.row_times_kinv(i, &mut work.v, &mut work.z);
                self.border(i, r, &work.wc, &work.z, sign * piv, &mut work.touched);
                self.drop_uterms(i, r);
                self.kcol[j] = self.s() - 1;
                self.uterms.push(self.uterms_of(j));
                work.moved.push((i, true));
                Update::Border
            }
            (false, true) => {
                let (i, sign) = self.unit(j);
                let Home::Kernel(a0) = self.home[i] else {
                    // clk-analyze: allow(A005) unreachable by construction: a unit column whose row is in S meets only its own row's unit column
                    unreachable!("unit column of row {i} replaces a structural")
                };
                let b0 = self.kcol[leaving];
                self.kcol[leaving] = NONE;
                self.shrink(a0, b0, &mut work.z, &mut work.touched);
                self.uterms.remove(b0);
                self.home[i] = Home::Unit { pos: r, sign };
                self.add_uterms(i, r, sign);
                work.moved.push((i, false));
                Update::Shrink { b: b0 }
            }
            (true, true) => {
                let b0 = self.kcol[leaving];
                self.replace_column(b0, &work.wc, &mut work.touched);
                self.kcol[leaving] = NONE;
                self.kcol[j] = b0;
                self.uterms[b0] = self.uterms_of(j);
                Update::Column { b: b0 }
            }
            (false, false) => {
                let ((i, sign), (i2, _)) = (self.unit(j), self.unit(leaving));
                if i != i2 {
                    let Home::Kernel(a0) = self.home[i] else {
                        // clk-analyze: allow(A005) unreachable by construction: two unit columns of one row are never both basic
                        unreachable!("unit column of row {i} replaces one of row {i2}")
                    };
                    self.row_times_kinv(i2, &mut work.v, &mut work.z);
                    self.replace_row(a0, &work.z, &mut work.wc, &mut work.touched);
                    self.krow[a0] = i2;
                    self.home[i2] = Home::Kernel(a0);
                    work.moved.push((i2, true));
                }
                self.drop_uterms(i2, r);
                self.home[i] = Home::Unit { pos: r, sign };
                self.add_uterms(i, r, sign);
                work.moved.push((i, i == i2));
                Update::Row
            }
        };
        self.basis[r] = j;
        self.updates += 1;
        #[cfg(debug_assertions)]
        self.assert_kernel(&work.touched);
        upd
    }

    /// The `uterms` entry of structural `j`.
    fn uterms_of(&self, j: usize) -> Vec<(usize, f64)> {
        let unit = |&(i, a): &(usize, f64)| match self.home[i] {
            Home::Unit { pos, sign } => Some((pos, sign * a)),
            Home::Kernel(_) => None,
        };
        self.cols[j].iter().filter_map(unit).collect()
    }

    /// Takes row `i`'s term, at position `r`, out of the `uterms` of
    /// every kernel column with an entry in the row.
    fn drop_uterms(&mut self, i: usize, r: usize) {
        for &j in &self.row_cols[self.row_start[i]..self.row_start[i + 1]] {
            if j < self.n && self.kcol[j] != NONE {
                let terms = &mut self.uterms[self.kcol[j]];
                if let Some(k) = terms.iter().position(|&(q, _)| q == r) {
                    terms.swap_remove(k);
                }
            }
        }
    }

    /// Puts row `i`'s term, its unit column of sign `sign` at position
    /// `r`, into the `uterms` of every kernel column with an entry in
    /// the row.
    fn add_uterms(&mut self, i: usize, r: usize, sign: f64) {
        let span = self.row_start[i]..self.row_start[i + 1];
        for (&j, &a) in self.row_cols[span.clone()].iter().zip(&self.row_vals[span]) {
            if j < self.n && self.kcol[j] != NONE {
                self.uterms[self.kcol[j]].push((r, sign * a));
            }
        }
    }

    /// K gains row `i` (from S, its unit column at position `r` leaving)
    /// and the entering structural's column: with `q = K⁻¹·u`, `z =
    /// A[i, C]·K⁻¹` and Schur complement `sigma`, K⁻¹ becomes
    /// `[[K⁻¹ + q·z/σ, −q/σ], [−z/σ, 1/σ]]`.
    fn border(
        &mut self,
        i: usize,
        r: usize,
        q: &[f64],
        z: &[f64],
        sigma: f64,
        touched: &mut Vec<usize>,
    ) {
        let (s, cap) = (self.s(), self.cap);
        for (a, &za) in z.iter().enumerate() {
            let col = &mut self.kinv[a * cap..a * cap + s + 1];
            if za == 0.0 {
                col[s] = 0.0;
                continue;
            }
            let f = za / sigma;
            for (c, &qb) in col.iter_mut().zip(q) {
                *c += qb * f;
            }
            col[s] = -f;
            touched.push(a);
        }
        let inv = 1.0 / sigma;
        let col = &mut self.kinv[s * cap..s * cap + s + 1];
        for (c, &qb) in col.iter_mut().zip(q) {
            *c = -(qb * inv);
        }
        col[s] = inv;
        touched.push(s);
        self.krow.push(i);
        self.kpos.push(r);
        self.home[i] = Home::Kernel(s);
    }

    /// K loses kernel row `a0` and kernel column `b0`: eliminate through
    /// the pivot `K⁻¹[b0][a0]`, then drop that row and column of K⁻¹,
    /// keeping the order of the others.
    fn shrink(&mut self, a0: usize, b0: usize, pcol: &mut Vec<f64>, touched: &mut Vec<usize>) {
        let (s, cap) = (self.s(), self.cap);
        pcol.clear();
        pcol.extend_from_slice(self.kinv_col(a0));
        let piv = pcol[b0];
        for a in (0..s).filter(|&a| a != a0) {
            let base = a * cap;
            let f = self.kinv[base + b0];
            if f != 0.0 {
                let f = f / piv;
                for (c, &p) in self.kinv[base..base + s].iter_mut().zip(pcol.iter()) {
                    *c -= p * f;
                }
                touched.push(a - usize::from(a > a0));
            }
            self.kinv.copy_within(base + b0 + 1..base + s, base + b0);
            if a > a0 {
                self.kinv.copy_within(base..base + s - 1, base - cap);
            }
        }
        self.krow.remove(a0);
        self.kpos.remove(b0);
        for (a, &i) in self.krow.iter().enumerate().skip(a0) {
            self.home[i] = Home::Kernel(a);
        }
        for (b, &p) in self.kpos.iter().enumerate().skip(b0) {
            self.kcol[self.basis[p]] = b;
        }
    }

    /// Kernel column `b0` holds another structural, with `q = K⁻¹·u` of
    /// its new column: divide row `b0` of K⁻¹ by `q[b0]` and subtract
    /// `q[b]` times it from every other row `b`.
    fn replace_column(&mut self, b0: usize, q: &[f64], touched: &mut Vec<usize>) {
        let (s, cap) = (self.s(), self.cap);
        let piv = q[b0];
        for a in 0..s {
            let col = &mut self.kinv[a * cap..a * cap + s];
            if col[b0] == 0.0 {
                continue;
            }
            let brk = col[b0] / piv;
            for (c, &qb) in col.iter_mut().zip(q) {
                *c -= qb * brk;
            }
            col[b0] = brk;
            touched.push(a);
        }
    }

    /// Kernel row `a0` becomes another row, with `z` its new row of K
    /// times K⁻¹: divide column `a0` of K⁻¹ by `z[a0]` and subtract
    /// `z[a]/z[a0]` times the old column `a0` from every other column.
    fn replace_row(&mut self, a0: usize, z: &[f64], pcol: &mut Vec<f64>, touched: &mut Vec<usize>) {
        let (s, cap) = (self.s(), self.cap);
        pcol.clear();
        pcol.extend_from_slice(self.kinv_col(a0));
        let piv = z[a0];
        for (a, &za) in z.iter().enumerate() {
            if a == a0 || za == 0.0 {
                continue;
            }
            let f = za / piv;
            for (c, &p) in self.kinv[a * cap..a * cap + s].iter_mut().zip(pcol.iter()) {
                *c -= p * f;
            }
            touched.push(a);
        }
        let inv = 1.0 / piv;
        for c in &mut self.kinv[a0 * cap..a0 * cap + s] {
            *c *= inv;
        }
        touched.push(a0);
    }

    /// Rebuilds K⁻¹ from K = A[R, C] by Gauss–Jordan elimination with
    /// partial pivoting, keeping the partition. Returns `false`, keeping
    /// the updated K⁻¹, if K has no pivot above 1e-12 in some column.
    fn refactor(&mut self) -> bool {
        self.updates = 0;
        let (s, cap) = (self.s(), self.cap);
        // [K | I], row-major, reduced to [I | K⁻¹]
        let w = 2 * s;
        let mut m = vec![0.0; s * w];
        for (b, &p) in self.kpos.iter().enumerate() {
            for &(i, v) in &self.cols[self.basis[p]] {
                if let Home::Kernel(a) = self.home[i] {
                    m[a * w + b] = v;
                }
            }
        }
        for a in 0..s {
            m[a * w + s + a] = 1.0;
        }
        for c in 0..s {
            let mut best = c;
            for r in c + 1..s {
                if m[r * w + c].abs() > m[best * w + c].abs() {
                    best = r;
                }
            }
            if m[best * w + c].abs() <= 1e-12 {
                return false;
            }
            for col in 0..w {
                m.swap(best * w + col, c * w + col);
            }
            let inv = 1.0 / m[c * w + c];
            for col in 0..w {
                m[c * w + col] *= inv;
            }
            for r in (0..s).filter(|&r| r != c) {
                let f = m[r * w + c];
                if f == 0.0 {
                    continue;
                }
                for col in 0..w {
                    m[r * w + col] -= f * m[c * w + col];
                }
            }
        }
        // row b of the right half is row b of K⁻¹; K⁻¹ is kept
        // column-major
        for a in 0..s {
            for b in 0..s {
                self.kinv[a * cap + b] = m[b * w + s + a];
            }
        }
        true
    }

    /// Pivot budget of a solve, phase 1 and phase 2 together.
    fn budget(&self) -> usize {
        200 + 60 * (self.cols.len() + self.m)
    }

    fn reduced_cost(&self, j: usize, y: &[f64], cost: &[f64]) -> f64 {
        let mut d = cost[j];
        for &(r, a) in &self.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    /// One simplex phase over the given costs. Returns the pivot stats;
    /// on an optimal return `work` holds the duals and reduced costs of
    /// the final basis.
    // `lo == hi` is an exact fixed-variable test: equal bounds are set
    // bit-identically at construction, never computed
    #[allow(clippy::float_cmp)]
    fn optimize(
        &mut self,
        use_phase_cost: bool,
        max_iters: usize,
        obs: &Obs,
        deadline: &Deadline,
        work: &mut Work,
    ) -> Result<PhaseStats, LpError> {
        let mut stats = PhaseStats::default();
        let mut degen_streak = 0usize;
        let n = self.cols.len();
        // the phase's costs are new, so the first pricing is from
        // scratch; after that only a basis change (not a bound flip)
        // moves a dual, and `pivoted` holds its update until the next
        // pricing; a refactor moves them all
        let mut priced = false;
        let mut pivoted: Option<Update> = None;
        loop {
            if stats.iters >= max_iters {
                return Err(LpError::IterationLimit);
            }
            // cooperative cancellation: poll every SIMPLEX_POLL_STRIDE
            // pivots, so an expiry is acknowledged within one stride
            // (well inside the ≤64-pivot contract of the chaos battery)
            if (stats.iters as u64).is_multiple_of(SIMPLEX_POLL_STRIDE) && deadline.expired() {
                obs.observe(
                    "lp.cancel.ack_pivots",
                    (stats.iters as u64).min(SIMPLEX_POLL_STRIDE) as f64,
                );
                return Err(LpError::Interrupted);
            }
            let cost = if use_phase_cost {
                &self.phase_cost
            } else {
                &self.cost
            };
            let pricing_prof = obs.prof_scope("pricing");
            if !priced {
                stats.reduced_costs += self.price(cost, work);
                priced = true;
            } else if let Some(upd) = pivoted.take() {
                stats.reduced_costs += self.reprice(upd, cost, work);
                #[cfg(debug_assertions)]
                self.assert_priced(cost, work);
            }
            // --- pricing ---
            let bland = degen_streak > 2 * self.m + 20;
            let mut enter: Option<(usize, f64, f64)> = None; // (var, dir, |d|)
            for j in 0..n {
                if self.state[j] == State::Basic {
                    continue;
                }
                if self.lo[j] == self.hi[j] {
                    continue; // fixed
                }
                let d = work.d[j];
                let dir = match self.state[j] {
                    State::AtLower if d < -TOL => 1.0,
                    State::AtUpper if d > TOL => -1.0,
                    State::FreeZero if d < -TOL => 1.0,
                    State::FreeZero if d > TOL => -1.0,
                    _ => continue,
                };
                if bland {
                    enter = Some((j, dir, d.abs()));
                    break;
                }
                if enter.is_none_or(|(_, _, best)| d.abs() > best) {
                    enter = Some((j, dir, d.abs()));
                }
            }
            let Some((j, dir, _)) = enter else {
                if obs.at(Level::Trace) {
                    obs.event(
                        Level::Trace,
                        "lp.optimal",
                        vec![
                            kv("iters", stats.iters),
                            kv("basis", format!("{:?}", self.basis)),
                        ],
                    );
                }
                return Ok(stats);
            };
            drop(pricing_prof);
            if obs.at(Level::Trace) {
                obs.event(
                    Level::Trace,
                    "lp.pivot",
                    vec![kv("enter", j), kv("dir", dir), kv("iter", stats.iters)],
                );
            }
            // --- ratio test ---
            let ratio_prof = obs.prof_scope("ratio_test");
            self.ftran(j, work);
            let w = &work.w;
            // entering may move at most its own range before flipping
            let own_range = self.hi[j] - self.lo[j]; // may be inf
            let mut t = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            // a position with w[i] == 0 bounds the step at ∞ and never
            // leaves, so only the positions of `w_nz` are tested, in
            // ascending order
            let mut leave: Option<usize> = None; // basis position
            each_bit(work.w_nz.iter().copied(), |i| {
                let wi = w[i];
                let delta = -dir * wi; // change of x_B[i] per unit t
                let b = self.basis[i];
                let ti = if delta < -TOL {
                    if self.lo[b].is_finite() {
                        (self.xb[i] - self.lo[b]) / (-delta)
                    } else {
                        f64::INFINITY
                    }
                } else if delta > TOL {
                    if self.hi[b].is_finite() {
                        (self.hi[b] - self.xb[i]) / delta
                    } else {
                        f64::INFINITY
                    }
                } else {
                    f64::INFINITY
                };
                let ti = ti.max(0.0);
                if ti < t || (ti < t + TOL && leave.is_some_and(|r| b < self.basis[r]) && bland) {
                    t = ti;
                    leave = Some(i);
                }
            });
            drop(ratio_prof);
            if !t.is_finite() {
                return Err(LpError::Unbounded);
            }
            if t < TOL {
                degen_streak += 1;
                stats.degenerate += 1;
            } else {
                degen_streak = 0;
            }
            // basis-update attribution, split by pivot kind so the
            // degenerate-vs-productive cost ratio is readable per run
            let update_prof = obs.prof_scope("basis_update");
            let kind_prof = obs.prof_scope(match (&leave, t < TOL) {
                (None, _) => "bound_flip",
                (Some(_), true) => "degenerate",
                (Some(_), false) => "productive",
            });
            let delta_j = dir * t;
            match leave {
                None => {
                    // bound flip: entering runs to its other bound
                    stats.bound_flips += 1;
                    for (i, &wi) in w.iter().enumerate() {
                        self.xb[i] -= delta_j * wi;
                    }
                    self.state[j] = match self.state[j] {
                        State::AtLower => State::AtUpper,
                        State::AtUpper => State::AtLower,
                        // a free variable can never flip (infinite range)
                        s => s,
                    };
                }
                Some(r) => {
                    let entering_val = self.nb_value(j) + delta_j;
                    let leaving = self.basis[r];
                    // move all basics
                    for (i, &wi) in w.iter().enumerate() {
                        self.xb[i] -= delta_j * wi;
                    }
                    // classify the leaving variable at the bound it hit
                    let hit_upper = {
                        let delta = -dir * w[r];
                        delta > 0.0
                    };
                    self.state[leaving] = if self.lo[leaving] == self.hi[leaving] {
                        State::AtLower
                    } else if hit_upper {
                        State::AtUpper
                    } else if self.lo[leaving].is_finite() {
                        State::AtLower
                    } else {
                        State::FreeZero
                    };
                    pivoted = Some(self.change_basis(r, j, work));
                    self.state[j] = State::Basic;
                    self.xb[r] = entering_val;
                }
            }
            drop(kind_prof);
            drop(update_prof);
            if self.updates >= REFACTOR_EVERY {
                let _refactor_prof = obs.prof_scope("refactor");
                if self.refactor() {
                    stats.refactors += 1;
                    priced = false;
                    pivoted = None;
                }
            }
            stats.iters += 1;
        }
    }
}

/// Solves `p` to optimality.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`] or
/// [`LpError::IterationLimit`]; malformed inputs panic in the builder, not
/// here.
pub fn solve(p: &Problem) -> Result<Solution, LpError> {
    solve_with_obs(p, &Obs::disabled())
}

/// [`solve`] with pivot-level instrumentation.
///
/// When `obs` is enabled, each solve updates the `lp.*` metrics
/// (`lp.solves`, `lp.pivots`, `lp.bound_flips`, `lp.degenerate_pivots`,
/// `lp.reduced_costs`, the `lp.iters` histogram, and a failure counter
/// per [`LpError`] variant) and, at `Trace` verbosity, emits one
/// `lp.solve` span plus per-pivot `lp.pivot` events.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with_obs(p: &Problem, obs: &Obs) -> Result<Solution, LpError> {
    match solve_certified_with_obs(p, obs)? {
        Certified::Optimal(s) => Ok(s),
        Certified::Infeasible { .. } => Err(LpError::Infeasible),
    }
}

/// [`solve_with_obs`] under a [`Deadline`]: the pivot loop polls the
/// deadline every [`SIMPLEX_POLL_STRIDE`] pivots and returns
/// [`LpError::Interrupted`] when it has expired, so a multi-thousand
/// pivot solve acknowledges cancellation within one stride instead of
/// running to completion.
///
/// # Errors
///
/// [`LpError::Interrupted`] on expiry, plus the [`solve`] contract.
pub fn solve_with_deadline(
    p: &Problem,
    obs: &Obs,
    deadline: &Deadline,
) -> Result<Solution, LpError> {
    match solve_certified_with_deadline(p, obs, deadline)? {
        Certified::Optimal(s) => Ok(s),
        Certified::Infeasible { .. } => Err(LpError::Infeasible),
    }
}

/// Solves `p`, returning either an optimum carrying its certificate or a
/// Farkas-style infeasibility witness instead of a bare
/// [`LpError::Infeasible`].
///
/// # Errors
///
/// [`LpError::Unbounded`] or [`LpError::IterationLimit`]; infeasibility is
/// a successful [`Certified::Infeasible`] outcome here.
pub fn solve_certified(p: &Problem) -> Result<Certified, LpError> {
    solve_certified_with_obs(p, &Obs::disabled())
}

/// [`solve_certified`] with pivot-level instrumentation (same metrics
/// contract as [`solve_with_obs`]; a [`Certified::Infeasible`] outcome
/// counts under `lp.infeasible`).
///
/// # Errors
///
/// Same contract as [`solve_certified`].
pub fn solve_certified_with_obs(p: &Problem, obs: &Obs) -> Result<Certified, LpError> {
    solve_certified_with_deadline(p, obs, &Deadline::none())
}

/// [`solve_certified_with_obs`] under a [`Deadline`]; see
/// [`solve_with_deadline`] for the interruption contract.
///
/// # Errors
///
/// [`LpError::Interrupted`] on expiry, plus the [`solve_certified`]
/// contract.
pub fn solve_certified_with_deadline(
    p: &Problem,
    obs: &Obs,
    deadline: &Deadline,
) -> Result<Certified, LpError> {
    solve_observed(p, None, obs, deadline)
}

/// A [`Problem`] together with the tableau of its last optimal solve,
/// for solving one LP under a sequence of cost vectors.
///
/// Only the objective can change ([`Lp::set_cost`]); rows and bounds are
/// fixed once the handle is built, so the kept basis stays primal
/// feasible. The first [`Lp::solve`] runs the two-phase start of
/// [`solve`]. Each later solve continues phase 2 from the kept basis
/// inverse under the new costs, with the same pivot loop and the same
/// extraction. A solve that does not end optimal discards the tableau,
/// so the next one starts cold. Between solves the handle keeps the
/// kernel inverse K⁻¹ and the partition of the basis as they are.
///
/// ```
/// use clk_lp::{Certified, Lp, Problem, RowKind};
/// use clk_obs::{Deadline, Obs};
///
/// // min c·(x, y)  s.t. x + y <= 4, x <= 3, y <= 3
/// let mut p = Problem::new();
/// let x = p.add_var(0.0, 3.0, -1.0)?;
/// let y = p.add_var(0.0, 3.0, -2.0)?;
/// p.add_row(RowKind::Le, 4.0, &[(x, 1.0), (y, 1.0)])?;
/// let mut lp = Lp::new(p);
/// let (obs, dl) = (Obs::disabled(), Deadline::none());
/// let Certified::Optimal(first) = lp.solve(&obs, &dl)? else { unreachable!() };
/// assert!((first.objective + 7.0).abs() < 1e-9); // x = 1, y = 3
/// lp.set_cost(x, -2.0)?;
/// lp.set_cost(y, -1.0)?;
/// assert!(lp.is_warm());
/// let Certified::Optimal(second) = lp.solve(&obs, &dl)? else { unreachable!() };
/// assert!((second.objective + 7.0).abs() < 1e-9); // x = 3, y = 1
/// # Ok::<(), clk_lp::LpError>(())
/// ```
pub struct Lp {
    problem: Problem,
    /// tableau of the last solve, kept only when that solve ended optimal
    warm: Option<Tableau>,
}

impl std::fmt::Debug for Lp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lp")
            .field("problem", &self.problem)
            .field("warm", &self.is_warm())
            .finish()
    }
}

impl Lp {
    /// A handle over `problem` with no kept basis.
    pub fn new(problem: Problem) -> Self {
        Lp {
            problem,
            warm: None,
        }
    }

    /// The problem as currently priced.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Sets the objective coefficient of `v`. The kept basis, if any,
    /// stays: a cost change leaves it primal feasible.
    ///
    /// # Errors
    ///
    /// [`LpError::BadProblem`] if `cost` is not finite,
    /// [`LpError::VarOutOfRange`] if `v` does not exist; the problem is
    /// left unchanged.
    pub fn set_cost(&mut self, v: VarId, cost: f64) -> Result<(), LpError> {
        if !cost.is_finite() {
            return Err(LpError::BadProblem(format!(
                "objective coefficient must be finite, got {cost}"
            )));
        }
        let c = self
            .problem
            .cost
            .get_mut(v.0)
            .ok_or(LpError::VarOutOfRange(v))?;
        *c = cost;
        Ok(())
    }

    /// Whether the next [`Lp::solve`] starts from a kept optimal basis.
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// Drops the kept basis, so the next [`Lp::solve`] starts cold (for
    /// a caller that rejected the last solution on its own checks).
    pub fn discard_basis(&mut self) {
        self.warm = None;
    }

    /// Solves the problem under its current costs, warm when a basis is
    /// kept; same metrics and interruption contract as
    /// [`solve_certified_with_deadline`], plus `lp.warm_solves`.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve_certified_with_deadline`].
    pub fn solve(&mut self, obs: &Obs, deadline: &Deadline) -> Result<Certified, LpError> {
        solve_observed(&self.problem, Some(&mut self.warm), obs, deadline)
    }
}

/// [`solve_inner`] under the `lp.solve` span, profiler scope and metrics.
fn solve_observed(
    p: &Problem,
    kept: Option<&mut Option<Tableau>>,
    obs: &Obs,
    deadline: &Deadline,
) -> Result<Certified, LpError> {
    let _prof = obs.prof_scope("lp.solve");
    let mut span = obs.span_at(
        Level::Trace,
        "lp.solve",
        vec![kv("vars", p.num_vars()), kv("rows", p.num_rows())],
    );
    let warm = kept.as_ref().is_some_and(|k| k.is_some());
    let result = solve_inner(p, kept, obs, deadline);
    if obs.enabled() {
        obs.count("lp.solves", 1);
        if warm {
            obs.count("lp.warm_solves", 1);
        }
        match &result {
            Ok(Certified::Optimal(sol)) => {
                obs.count("lp.pivots", sol.iterations as u64);
                obs.observe("lp.iters", sol.iterations as f64);
                span.record("iters", sol.iterations);
                span.record("objective", sol.objective);
            }
            Ok(Certified::Infeasible { .. }) => {
                obs.count("lp.infeasible", 1);
                span.record("error", format!("{}", LpError::Infeasible));
            }
            Err(e) => {
                let key = match e {
                    LpError::Infeasible => "lp.infeasible",
                    LpError::Unbounded => "lp.unbounded",
                    LpError::IterationLimit => "lp.iteration_limit",
                    LpError::Interrupted => "lp.interrupted",
                    LpError::BadProblem(_)
                    | LpError::UnknownTerm { .. }
                    | LpError::VarOutOfRange(_)
                    | LpError::RowOutOfRange(_) => "lp.bad_problem",
                };
                obs.count(key, 1);
                span.record("error", format!("{e}"));
            }
        }
    }
    result
}

/// The slack/artificial starting basis of `p`, and whether it needs
/// phase 1 (some artificial carries a nonzero residual).
// all indices below are derived from the problem's own dimensions; the
// `sv == lo` comparison is exact on purpose (`clamp` returns the bound
// itself, bit-identically)
#[allow(clippy::indexing_slicing, clippy::float_cmp)]
fn slack_start(p: &Problem, obs: &Obs) -> (Tableau, bool) {
    let m = p.num_rows();
    let n_struct = p.num_vars();

    let setup_prof = obs.prof_scope("setup");
    // --- assemble internal variables: structural + slack (one per row) ---
    let mut cols = p.cols.clone();
    let mut lo = p.lo.clone();
    let mut hi = p.hi.clone();
    let mut cost = p.cost.clone();
    for (i, &(kind, _)) in p.rows.iter().enumerate() {
        cols.push(vec![(i, 1.0)]);
        let (l, h) = match kind {
            RowKind::Le => (0.0, f64::INFINITY),
            RowKind::Ge => (f64::NEG_INFINITY, 0.0),
            RowKind::Eq => (0.0, 0.0),
        };
        lo.push(l);
        hi.push(h);
        cost.push(0.0);
    }

    // --- initial nonbasic point for structural vars ---
    let mut state = vec![State::AtLower; cols.len()];
    for j in 0..n_struct {
        state[j] = if lo[j].is_finite() {
            State::AtLower
        } else if hi[j].is_finite() {
            State::AtUpper
        } else {
            State::FreeZero
        };
    }

    // residual each row must carry: b − A·x_N (over structural vars)
    let mut resid: Vec<f64> = p.rows.iter().map(|&(_, b)| b).collect();
    for j in 0..n_struct {
        let v = match state[j] {
            State::AtLower => lo[j],
            State::AtUpper => hi[j],
            State::FreeZero => 0.0,
            // clk-analyze: allow(A005) caller only asks for nonbasic columns
            State::Basic => unreachable!(),
        };
        if v != 0.0 {
            for &(r, a) in &cols[j] {
                resid[r] -= a * v;
            }
        }
    }

    // --- choose initial basis: slack where possible, artificial otherwise ---
    let mut basis = vec![usize::MAX; m];
    let mut xb = vec![0.0; m];
    let mut phase_cost = vec![0.0; cols.len()];
    let mut need_phase1 = false;
    for i in 0..m {
        let s = n_struct + i;
        let v = resid[i];
        if v >= lo[s] - TOL && v <= hi[s] + TOL {
            basis[i] = s;
            state[s] = State::Basic;
            xb[i] = v;
        } else {
            // park the slack at its nearest bound, absorb the rest in an
            // artificial variable with a sign that makes it nonnegative
            let sv = v.clamp(lo[s], hi[s]);
            state[s] = if sv == lo[s] {
                State::AtLower
            } else {
                State::AtUpper
            };
            let r = v - sv;
            let a = cols.len();
            cols.push(vec![(i, r.signum())]);
            lo.push(0.0);
            hi.push(f64::INFINITY);
            cost.push(0.0);
            phase_cost.push(1.0);
            state.push(State::Basic);
            basis[i] = a;
            xb[i] = r.abs();
            need_phase1 = true;
        }
    }
    phase_cost.resize(cols.len(), 0.0);
    for (j, pc) in phase_cost.iter_mut().enumerate() {
        if j >= n_struct + m {
            *pc = 1.0;
        }
    }

    // The starting basis is all unit columns, so every row is in S and
    // the kernel is empty: s = 0, nothing to factor.
    let (row_start, row_cols, row_vals) = row_index(&cols, m);
    drop(setup_prof);
    let cap = m.min(n_struct);
    let home = (0..m)
        .map(|i| Home::Unit {
            pos: i,
            sign: cols[basis[i]][0].1,
        })
        .collect();
    let t = Tableau {
        cols,
        n: n_struct,
        lo,
        hi,
        cost,
        phase_cost,
        state,
        basis,
        xb,
        m,
        row_start,
        row_cols,
        row_vals,
        home,
        krow: Vec::new(),
        kpos: Vec::new(),
        kcol: vec![NONE; n_struct],
        uterms: Vec::new(),
        kinv: vec![0.0; cap * cap],
        cap,
        updates: 0,
    };
    (t, need_phase1)
}

/// Solves `p`, continuing phase 2 from `kept` when it holds the tableau
/// of an earlier optimal solve of the same rows and bounds. With a slot
/// to keep it in, the final tableau is parked there exactly when this
/// solve ends optimal.
// all indices below are derived from the problem's own dimensions
#[allow(clippy::indexing_slicing)]
fn solve_inner(
    p: &Problem,
    mut kept: Option<&mut Option<Tableau>>,
    obs: &Obs,
    deadline: &Deadline,
) -> Result<Certified, LpError> {
    let m = p.num_rows();
    let n_struct = p.num_vars();
    let (mut t, mut work, phase1) = match kept.as_mut().and_then(|k| k.take()) {
        Some(mut t) => {
            // the kept basis is primal feasible for any costs: re-price
            // and go straight to phase 2
            t.cost[..n_struct].copy_from_slice(&p.cost);
            let work = Work::new(&t);
            (t, work, PhaseStats::default())
        }
        None => {
            let (mut t, need_phase1) = slack_start(p, obs);
            let mut work = Work::new(&t);
            let mut phase1 = PhaseStats::default();
            if need_phase1 {
                phase1 = t.optimize(true, t.budget(), obs, deadline, &mut work)?;
                let infeas: f64 = (0..m)
                    .filter(|&i| t.basis[i] >= n_struct + m)
                    .map(|i| t.xb[i])
                    .sum();
                if infeas > 1e-6 {
                    // phase-1 optimum with positive artificial mass: the
                    // phase-1 duals witness the contradiction (yᵀb exceeds
                    // the maximum of yᵀAx over the bounds by exactly the
                    // residual infeasibility)
                    return Ok(Certified::Infeasible {
                        ray: FarkasRay { y: work.y },
                    });
                }
                // pin artificials to zero for phase 2
                for j in (n_struct + m)..t.cols.len() {
                    t.lo[j] = 0.0;
                    t.hi[j] = 0.0;
                    if t.state[j] != State::Basic {
                        t.state[j] = State::AtLower;
                    }
                }
            }
            (t, work, phase1)
        }
    };
    let budget = t.budget();
    let phase2 = t.optimize(
        false,
        budget.saturating_sub(phase1.iters).max(budget / 2),
        obs,
        deadline,
        &mut work,
    )?;
    if obs.enabled() {
        obs.count(
            "lp.bound_flips",
            (phase1.bound_flips + phase2.bound_flips) as u64,
        );
        obs.count(
            "lp.degenerate_pivots",
            (phase1.degenerate + phase2.degenerate) as u64,
        );
        obs.count(
            "lp.reduced_costs",
            (phase1.reduced_costs + phase2.reduced_costs) as u64,
        );
        obs.count("lp.refactors", (phase1.refactors + phase2.refactors) as u64);
    }

    // --- extract ---
    let _extract_prof = obs.prof_scope("extract");
    let mut x = vec![0.0; n_struct];
    for (j, xj) in x.iter_mut().enumerate() {
        *xj = match t.state[j] {
            State::Basic => 0.0, // filled below
            State::AtLower => t.lo[j],
            State::AtUpper => t.hi[j],
            State::FreeZero => 0.0,
        };
    }
    for i in 0..m {
        let b = t.basis[i];
        if b < n_struct {
            x[b] = t.xb[i];
        }
    }
    let objective = x.iter().zip(&p.cost).map(|(xi, ci)| xi * ci).sum();

    // --- certificate: duals, reduced costs, and basis over the internal
    // (structural + slack) variable space; artificials are excluded and
    // rows still carrying a basic artificial (at value zero, i.e.
    // numerically redundant) are recorded with the REDUNDANT_ROW sentinel;
    // phase 2 ended with the duals and reduced costs of this basis
    let n_internal = n_struct + m;
    let Work {
        y, d: mut reduced, ..
    } = work;
    reduced.truncate(n_internal);
    let status: Vec<VarStatus> = t.state[..n_internal]
        .iter()
        .map(|s| match s {
            State::Basic => VarStatus::Basic,
            State::AtLower => VarStatus::AtLower,
            State::AtUpper => VarStatus::AtUpper,
            State::FreeZero => VarStatus::Free,
        })
        .collect();
    let cert_basis: Vec<usize> = t
        .basis
        .iter()
        .map(|&b| if b < n_internal { b } else { REDUNDANT_ROW })
        .collect();
    if let Some(slot) = kept {
        *slot = Some(t);
    }
    Ok(Certified::Optimal(Solution {
        x,
        objective,
        iterations: phase1.iters + phase2.iters,
        certificate: Certificate {
            basis: cert_basis,
            status,
            y,
            reduced,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const INF: f64 = f64::INFINITY;

    fn feasible(p: &Problem, x: &[f64], tol: f64) -> bool {
        for (j, &xj) in x.iter().enumerate() {
            if xj < p.lo[j] - tol || xj > p.hi[j] + tol {
                return false;
            }
        }
        for (i, &(kind, rhs)) in p.rows.iter().enumerate() {
            let mut lhs = 0.0;
            for (j, col) in p.cols.iter().enumerate() {
                for &(r, a) in col {
                    if r == i {
                        lhs += a * x[j];
                    }
                }
            }
            let ok = match kind {
                RowKind::Le => lhs <= rhs + tol,
                RowKind::Ge => lhs >= rhs - tol,
                RowKind::Eq => (lhs - rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    #[test]
    fn expired_deadline_interrupts_before_any_pivot() {
        use clk_obs::CancelToken;
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, -3.0).unwrap();
        let y = p.add_var(0.0, INF, -5.0).unwrap();
        p.add_row(RowKind::Le, 4.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Le, 12.0, &[(y, 2.0)]).unwrap();
        let tok = CancelToken::new();
        tok.cancel();
        let dl = Deadline::from_token(&tok);
        let e = solve_with_deadline(&p, &Obs::disabled(), &dl).unwrap_err();
        assert_eq!(e, LpError::Interrupted);
        // an inert deadline leaves the solve untouched
        let s = solve_with_deadline(&p, &Obs::disabled(), &Deadline::none()).unwrap();
        assert!(feasible(&p, &s.x, 1e-7));
    }

    #[test]
    fn trip_mid_solve_interrupts_within_one_stride() {
        use clk_obs::CancelToken;
        // a problem with enough pivots that a mid-solve trip lands
        // between polls rather than before the first one
        let mut p = Problem::new();
        let n = 24;
        let vars: Vec<VarId> = (0..n)
            .map(|i| p.add_var(0.0, 10.0, -(1.0 + i as f64)).unwrap())
            .collect();
        for i in 0..n {
            let a = vars[i];
            let b = vars[(i + 1) % n];
            p.add_row(RowKind::Le, 12.0, &[(a, 1.0), (b, 1.0)]).unwrap();
        }
        let baseline = solve(&p).expect("solvable without a deadline");
        assert!(baseline.iterations > 1);
        let tok = CancelToken::new();
        tok.trip_after_polls(2); // expire on the second poll
        let dl = Deadline::from_token(&tok);
        let e = solve_with_deadline(&p, &Obs::disabled(), &dl).unwrap_err();
        assert_eq!(e, LpError::Interrupted);
    }

    /// A chain of boxed variables whose optimal vertex moves far when the
    /// costs are reversed, so a warm re-solve needs many pivots.
    fn reversible_chain(n: usize) -> (Lp, Vec<VarId>) {
        let mut p = Problem::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| p.add_var(0.0, 10.0, -(1.0 + i as f64)).unwrap())
            .collect();
        for i in 0..n - 1 {
            p.add_row(RowKind::Le, 12.0, &[(vars[i], 1.0), (vars[i + 1], 1.0)])
                .unwrap();
        }
        let mut lp = Lp::new(p);
        lp.solve(&Obs::disabled(), &Deadline::none()).unwrap();
        assert!(lp.is_warm(), "an optimal cold solve keeps its tableau");
        for (i, &v) in vars.iter().enumerate() {
            lp.set_cost(v, -((n - i) as f64) - 0.5 * (i % 3) as f64)
                .unwrap();
        }
        (lp, vars)
    }

    #[test]
    fn trip_mid_warm_solve_acks_within_one_stride_and_next_solve_is_cold() {
        use clk_obs::{CancelToken, ObsConfig};
        let (mut full, _) = reversible_chain(64);
        let Certified::Optimal(warm) = full.solve(&Obs::disabled(), &Deadline::none()).unwrap()
        else {
            panic!("re-priced chain is feasible and bounded");
        };
        assert!(
            warm.iterations as u64 > SIMPLEX_POLL_STRIDE,
            "warm solve too short to cut mid-way: {} pivots",
            warm.iterations
        );

        let (mut lp, _) = reversible_chain(64);
        let obs = Obs::new(ObsConfig {
            verbosity: Level::Trace,
            ..ObsConfig::default()
        });
        let trace = clk_obs::SharedBuf::new();
        obs.add_jsonl_buffer(&trace);
        let tok = CancelToken::new();
        tok.trip_after_polls(2); // trips after the first stride of pivots
        let dl = Deadline::from_token(&tok);
        assert_eq!(lp.solve(&obs, &dl).unwrap_err(), LpError::Interrupted);
        obs.flush();
        let pivots = trace.contents().matches("\"lp.pivot\"").count() as u64;
        assert!(
            pivots > 0 && pivots <= SIMPLEX_POLL_STRIDE,
            "{pivots} pivots before the trip was acknowledged"
        );
        assert_eq!(dl.polls(), 2, "the tripping poll must end the solve");
        assert!(!lp.is_warm(), "an interrupted solve keeps no tableau");

        // the next solve is cold: bit-identical to a fresh solve
        let next = lp.solve(&Obs::disabled(), &Deadline::none()).unwrap();
        assert_eq!(next, solve_certified(lp.problem()).unwrap());
        let Certified::Optimal(cold) = next else {
            panic!("re-priced chain is feasible and bounded");
        };
        assert!((cold.objective - warm.objective).abs() < 1e-9);
    }

    /// Derives the partition from the basis alone (kernel rows and
    /// columns in ascending row and position order) and factors K⁻¹.
    fn rebuild_kernel(t: &mut Tableau) {
        t.krow.clear();
        t.kpos.clear();
        t.kcol.fill(NONE);
        t.home.fill(Home::Kernel(NONE));
        for (p, &j) in t.basis.iter().enumerate() {
            if j < t.n {
                t.kcol[j] = t.kpos.len();
                t.kpos.push(p);
            } else {
                let (i, sign) = t.unit(j);
                t.home[i] = Home::Unit { pos: p, sign };
            }
        }
        for i in 0..t.m {
            if t.home[i] == Home::Kernel(NONE) {
                t.home[i] = Home::Kernel(t.krow.len());
                t.krow.push(i);
            }
        }
        t.uterms = t.kpos.iter().map(|&p| t.uterms_of(t.basis[p])).collect();
        assert!(t.refactor(), "the basis is singular");
    }

    /// The chain with a `Ge` row, whose starting basis holds an
    /// artificial, solved once by a handle that keeps its tableau.
    fn chain_with_artificials(n: usize) -> (Lp, Vec<VarId>) {
        let (lp, vars) = reversible_chain(n);
        let mut p = lp.problem().clone();
        p.add_row(RowKind::Ge, 3.0, &[(vars[0], 1.0), (vars[5], 2.0)])
            .unwrap();
        let mut lp = Lp::new(p);
        lp.solve(&Obs::disabled(), &Deadline::none()).unwrap();
        (lp, vars)
    }

    #[test]
    fn a_parked_kernel_gives_the_same_next_solve_as_a_rebuilt_one() {
        let (mut lp, vars) = chain_with_artificials(40);
        for (i, &v) in vars.iter().enumerate() {
            lp.set_cost(v, -1.0 - ((i * 7) % 11) as f64).unwrap();
        }
        let parked = lp.warm.clone().expect("an optimal solve parks its tableau");
        assert!(parked.s() > 0 && parked.updates > 0);
        // the kept K⁻¹ is the inverse a refactor computes
        let mut fresh = parked.clone();
        assert!(fresh.refactor());
        for a in 0..parked.s() {
            let (k, r) = (parked.kinv_col(a), fresh.kinv_col(a));
            for (x, y) in k.iter().zip(r) {
                assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
            }
        }
        // the same basis with its partition derived afresh and K⁻¹
        // factored from scratch
        let mut rebuilt = parked.clone();
        rebuild_kernel(&mut rebuilt);
        let mut other = Lp {
            problem: lp.problem().clone(),
            warm: Some(rebuilt),
        };
        let (obs, dl) = (Obs::disabled(), Deadline::none());
        let (Certified::Optimal(a), Certified::Optimal(b)) = (
            lp.solve(&obs, &dl).unwrap(),
            other.solve(&obs, &dl).unwrap(),
        ) else {
            panic!("the re-priced chain is feasible and bounded");
        };
        assert!(a.iterations > 0);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.certificate.basis, b.certificate.basis);
        assert_eq!(a.certificate.status, b.certificate.status);
        assert!((a.objective - b.objective).abs() <= 1e-9 * (1.0 + a.objective.abs()));
    }

    /// A random LP feasible at a point inside its box: `Le`, `Ge` and
    /// `Eq` rows around that point, so its starting basis holds slacks
    /// and artificials of both signs.
    fn feasible_lp(seed: u64, n: usize, m: usize) -> Problem {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p = Problem::new();
        let mut x0 = Vec::with_capacity(n);
        for _ in 0..n {
            let hi = 1.0 + 4.0 * rnd();
            p.add_var(0.0, hi, 2.0 * rnd() - 1.0).unwrap();
            x0.push(hi * rnd());
        }
        for i in 0..m {
            let mut terms = Vec::new();
            for (j, &xj) in x0.iter().enumerate() {
                if rnd() < 0.5 || (terms.is_empty() && j + 1 == n) {
                    let a = (0.5 + 1.5 * rnd()) * if rnd() < 0.5 { -1.0 } else { 1.0 };
                    terms.push((VarId(j), a, a * xj));
                }
            }
            let act: f64 = terms.iter().map(|t| t.2).sum();
            let terms: Vec<(VarId, f64)> = terms.iter().map(|t| (t.0, t.1)).collect();
            let (kind, rhs) = match i % 3 {
                0 => (RowKind::Le, act + 0.5 * rnd()),
                1 => (RowKind::Ge, act - 0.5 * rnd()),
                _ => (RowKind::Eq, act),
            };
            p.add_row(kind, rhs, &terms).unwrap();
        }
        p
    }

    /// The kind of basis change `j` entering at position `r` makes:
    /// 0 border, 1 shrink, 2 column, 3 row.
    fn update_kind(t: &Tableau, j: usize, r: usize) -> usize {
        match (j < t.n, t.basis[r] < t.n) {
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => 2,
            (false, false) => 3,
        }
    }

    /// ftran of every column and btran under `cost` from `t`'s kept K⁻¹
    /// agree with those from a fresh refactor of the same partition.
    fn agrees_with_a_refactor(t: &Tableau, cost: &[f64]) -> Result<(), TestCaseError> {
        let mut fresh = t.clone();
        prop_assert!(fresh.refactor(), "the kernel is singular");
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-8 * (1.0 + x.abs().max(y.abs()));
        let (mut a, mut b) = (Work::new(t), Work::new(t));
        for j in 0..t.cols.len() {
            t.ftran(j, &mut a);
            fresh.ftran(j, &mut b);
            for (p, (&x, &y)) in a.w.iter().zip(&b.w).enumerate() {
                prop_assert!(close(x, y), "ftran of {j} at {p}: {x} vs {y}");
            }
        }
        t.price(cost, &mut a);
        fresh.price(cost, &mut b);
        for (i, (&x, &y)) in a.y.iter().zip(&b.y).enumerate() {
            prop_assert!(close(x, y), "btran at row {i}: {x} vs {y}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Drives every kind of basis change in turn, with a refactor
        /// every seventh step, re-pricing incrementally under the phase-1
        /// costs (so S duals are nonzero) after each. The kept duals and
        /// reduced costs must equal a full re-price bit for bit, and ftran
        /// and btran must agree with a fresh refactor. Then a handle
        /// solves the LP, is re-priced and solves warm, and its parked
        /// K⁻¹ must agree with a refactor too.
        #[test]
        fn kernel_updates_agree_with_a_fresh_refactor(
            seed in 0u64..1_000_000,
            n in 4usize..9,
            m in 4usize..10,
        ) {
            let p = feasible_lp(seed, n, m);
            let (mut t, _) = slack_start(&p, &Obs::disabled());
            let cost = t.phase_cost.clone();
            let mut work = Work::new(&t);
            t.price(&cost, &mut work);
            let mut kinds = [0usize; 4];
            let ncols = t.cols.len();
            for step in 0..48 {
                // two borders per shrink, so that the kernel grows
                let want = [0, 2, 3, 0, 1][step % 5];
                let mut pick = None;
                'search: for k in 0..ncols {
                    let j = (k + 7 * step) % ncols;
                    if t.state[j] == State::Basic || (j < t.n) != (want % 2 == 0) {
                        continue;
                    }
                    t.ftran(j, &mut work);
                    for r in 0..t.m {
                        if update_kind(&t, j, r) == want && work.w[r].abs() > 0.1 {
                            pick = Some((j, r));
                            break 'search;
                        }
                    }
                }
                let Some((j, r)) = pick else { continue };
                t.ftran(j, &mut work);
                let leaving = t.basis[r];
                let upd = t.change_basis(r, j, &mut work);
                t.state[leaving] = State::AtLower;
                t.state[j] = State::Basic;
                kinds[want] += 1;
                if step % 7 == 6 {
                    prop_assert!(t.refactor(), "the kernel is singular");
                    t.price(&cost, &mut work);
                } else {
                    t.reprice(upd, &cost, &mut work);
                }
                let mut full = Work::new(&t);
                t.price(&cost, &mut full);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&work.y), bits(&full.y), "kept duals at step {}", step);
                prop_assert_eq!(bits(&work.d), bits(&full.d), "kept reduced costs at step {}", step);
                agrees_with_a_refactor(&t, &cost)?;
            }
            prop_assert!(kinds.iter().all(|&k| k > 0), "update kinds {:?}", kinds);

            let mut lp = Lp::new(p);
            let (obs, dl) = (Obs::disabled(), Deadline::none());
            prop_assume!(matches!(lp.solve(&obs, &dl), Ok(Certified::Optimal(_))));
            for j in 0..n {
                let c = lp.problem().cost(VarId(j)).unwrap();
                lp.set_cost(VarId(j), -1.5 * c + 0.25).unwrap();
            }
            prop_assert!(matches!(lp.solve(&obs, &dl), Ok(Certified::Optimal(_))));
            let parked = lp.warm.as_ref().expect("an optimal warm solve parks its tableau");
            agrees_with_a_refactor(parked, &parked.cost)?;
        }
    }

    #[test]
    fn set_cost_validates_and_keeps_the_basis() {
        let (mut lp, vars) = reversible_chain(4);
        let e = lp.set_cost(vars[0], f64::NAN).unwrap_err();
        assert!(matches!(e, LpError::BadProblem(_)), "{e}");
        let e = lp.set_cost(VarId(99), 1.0).unwrap_err();
        assert_eq!(e, LpError::VarOutOfRange(VarId(99)));
        assert!(lp.is_warm());
        lp.discard_basis();
        assert!(!lp.is_warm());
    }

    /// FNV-1a over every bit a solve hands back: `x`, objective, pivot
    /// count and the whole certificate, or the Farkas ray.
    fn outcome_bits(c: &Certified) -> u64 {
        fn word(h: &mut u64, w: u64) {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        match c {
            Certified::Optimal(s) => {
                let cert = &s.certificate;
                for v in s.x.iter().chain([&s.objective]).chain(&cert.y) {
                    word(&mut h, v.to_bits());
                }
                for v in &cert.reduced {
                    word(&mut h, v.to_bits());
                }
                word(&mut h, s.iterations as u64);
                for &b in &cert.basis {
                    word(&mut h, b as u64);
                }
                for &st in &cert.status {
                    word(&mut h, st as u64);
                }
            }
            Certified::Infeasible { ray } => {
                for v in &ray.y {
                    word(&mut h, v.to_bits());
                }
            }
        }
        h
    }

    /// The entering variable of every pivot of a traced solve of `p`,
    /// with the solve's outcome.
    fn traced_enters(p: &Problem) -> (Certified, Vec<usize>) {
        use clk_obs::{ObsConfig, Value};
        let obs = Obs::new(ObsConfig {
            verbosity: Level::Trace,
            ..ObsConfig::default()
        });
        let trace = clk_obs::SharedBuf::new();
        obs.add_jsonl_buffer(&trace);
        let out = solve_certified_with_obs(p, &obs).unwrap();
        obs.flush();
        let enters = trace
            .contents()
            .lines()
            .filter_map(|l| clk_obs::json::parse(l).ok())
            .filter(|v| v.get("name").and_then(Value::as_str) == Some("lp.pivot"))
            .map(|v| {
                let enter = v.get("fields").and_then(|f| f.get("enter"));
                enter
                    .and_then(Value::as_u64)
                    .expect("pivot event names its column") as usize
            })
            .collect();
        (out, enters)
    }

    #[test]
    fn bland_rule_after_a_degenerate_streak_keeps_recorded_bits() {
        // six boxed variables in four rows through the origin, where
        // every basis change is degenerate, and two rows with room
        let mut p = Problem::new();
        let x: Vec<VarId> = (0..6)
            .map(|i| p.add_var(0.0, 5.0, -0.25 - 0.1 * f64::from(i)).unwrap())
            .collect();
        for i in 0..4 {
            let terms = [(x[i], 1.0), (x[i + 1], -1.0), (x[(i + 3) % 6], 0.5)];
            p.add_row(RowKind::Le, 0.0, &terms).unwrap();
        }
        let all: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(RowKind::Le, 7.0, &all).unwrap();
        p.add_row(RowKind::Le, 4.0, &[(x[3], 1.0), (x[5], 2.0)])
            .unwrap();
        // forty columns with a range below TOL and the steepest costs:
        // Dantzig's rule flips them one by one, each a degenerate step,
        // until the streak passes 2m + 20 = 32 and Bland's rule takes over
        for k in 0..40 {
            p.add_var(0.0, 1e-9, -(100.0 + f64::from(k))).unwrap();
        }
        let (out, enters) = traced_enters(&p);
        assert!(enters[..33].iter().all(|&j| j >= 6), "{enters:?}");
        assert!(
            enters[33] < 6,
            "Bland's rule picks the lowest index: {enters:?}"
        );
        let Certified::Optimal(s) = &out else {
            panic!("the origin is feasible and the box bounded")
        };
        assert_eq!(
            (s.iterations, outcome_bits(&out)),
            (46, 0x74d0_f5cf_b08c_6c48)
        );
    }

    #[test]
    fn phase_two_after_pinned_artificials_keeps_recorded_bits() {
        // Ge and Eq rows start on artificials; the repeated Eq row keeps
        // one basic at zero into phase 2, recorded as REDUNDANT_ROW
        let mut p = Problem::new();
        let x: Vec<VarId> = (0..8)
            .map(|i| p.add_var(0.0, 10.0, 1.0 + f64::from(i % 3)).unwrap())
            .collect();
        let free = p.add_var(-INF, INF, 0.5).unwrap();
        for _ in 0..2 {
            p.add_row(RowKind::Eq, 6.0, &[(x[0], 1.0), (x[1], 1.0), (x[2], 1.0)])
                .unwrap();
        }
        for i in 0..6 {
            let terms = [(x[i], 1.0), (x[i + 2], 2.0), (free, -1.0)];
            p.add_row(RowKind::Ge, 3.0 + i as f64, &terms).unwrap();
        }
        p.add_row(RowKind::Eq, 1.0, &[(free, 1.0), (x[7], -1.0)])
            .unwrap();
        p.add_row(
            RowKind::Le,
            40.0,
            &x.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let out = solve_certified(&p).unwrap();
        let Certified::Optimal(s) = &out else {
            panic!("the rows admit a point inside the box")
        };
        assert!(s.certificate.basis.contains(&REDUNDANT_ROW));
        assert_eq!(
            (s.iterations, outcome_bits(&out)),
            (11, 0xe99c_27b1_e217_3714)
        );
    }

    #[test]
    fn warm_solves_after_set_cost_keep_recorded_bits() {
        let (mut lp, vars) = reversible_chain(40);
        let (obs, dl) = (Obs::disabled(), Deadline::none());
        let first = lp.solve(&obs, &dl).unwrap();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_cost(v, -1.0 - ((i * 7) % 11) as f64).unwrap();
        }
        let second = lp.solve(&obs, &dl).unwrap();
        assert!(lp.is_warm());
        let pivots = |c: &Certified| match c {
            Certified::Optimal(s) => s.iterations,
            Certified::Infeasible { .. } => panic!("the chain is feasible"),
        };
        assert_eq!([pivots(&first), pivots(&second)], [20, 11]);
        assert_eq!(
            [outcome_bits(&first), outcome_bits(&second)],
            [0xaa13_edde_8e33_f578, 0x67c7_13a9_79f6_710c]
        );
    }

    #[test]
    fn bound_flips_between_basis_changes_keep_recorded_bits() {
        use clk_obs::ObsConfig;
        // unit boxes under a row that binds only after several of them
        // have run to their upper bound
        let mut p = Problem::new();
        let x: Vec<VarId> = (0..12)
            .map(|i| p.add_var(0.0, 1.0, -1.0 - f64::from(i % 5)).unwrap())
            .collect();
        p.add_row(
            RowKind::Le,
            5.5,
            &x.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        for i in 0..6 {
            p.add_row(RowKind::Le, 1.5, &[(x[i], 1.0), (x[i + 6], 1.0)])
                .unwrap();
        }
        let obs = Obs::new(ObsConfig::default());
        let out = solve_certified_with_obs(&p, &obs).unwrap();
        let flips = obs.counter("lp.bound_flips").map_or(0, |c| c.get());
        let Certified::Optimal(s) = &out else {
            panic!("the origin is feasible and the box bounded")
        };
        assert!(
            flips > 0 && (s.iterations as u64) > flips,
            "{flips} of {}",
            s.iterations
        );
        assert_eq!(
            (s.iterations, flips, outcome_bits(&out)),
            (7, 4, 0xd012_9118_e701_e41a)
        );
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 => x=2,y=6, obj=36
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, -3.0).unwrap();
        let y = p.add_var(0.0, INF, -5.0).unwrap();
        p.add_row(RowKind::Le, 4.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Le, 12.0, &[(y, 2.0)]).unwrap();
        p.add_row(RowKind::Le, 18.0, &[(x, 3.0), (y, 2.0)]).unwrap();
        let s = solve(&p).unwrap();
        assert!(
            (s.value(x).unwrap() - 2.0).abs() < 1e-7,
            "x = {}",
            s.value(x).unwrap()
        );
        assert!((s.value(y).unwrap() - 6.0).abs() < 1e-7);
        assert!((s.objective + 36.0).abs() < 1e-7);
        assert!(feasible(&p, &s.x, 1e-7));
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y s.t. x + y = 10, x - y = 2 => x=6, y=4
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, 1.0).unwrap();
        let y = p.add_var(0.0, INF, 1.0).unwrap();
        p.add_row(RowKind::Eq, 10.0, &[(x, 1.0), (y, 1.0)]).unwrap();
        p.add_row(RowKind::Eq, 2.0, &[(x, 1.0), (y, -1.0)]).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.value(x).unwrap() - 6.0).abs() < 1e-7);
        assert!((s.value(y).unwrap() - 4.0).abs() < 1e-7);
    }

    #[test]
    fn ge_rows_need_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 0 => x=4,y=0 obj 8
        let mut p = Problem::new();
        let x = p.add_var(1.0, INF, 2.0).unwrap();
        let y = p.add_var(0.0, INF, 3.0).unwrap();
        p.add_row(RowKind::Ge, 4.0, &[(x, 1.0), (y, 1.0)]).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-7, "obj {}", s.objective);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_row(RowKind::Ge, 5.0, &[(x, 1.0)]).unwrap();
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn contradictory_equalities_infeasible() {
        let mut p = Problem::new();
        let x = p.add_var(-INF, INF, 0.0).unwrap();
        p.add_row(RowKind::Eq, 1.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Eq, 2.0, &[(x, 1.0)]).unwrap();
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, -1.0).unwrap();
        p.add_row(RowKind::Ge, 1.0, &[(x, 1.0)]).unwrap();
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_unbounded() {
        let mut p = Problem::new();
        let _x = p.add_var(-INF, INF, 1.0).unwrap();
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn pure_bound_flips_reach_optimum() {
        // min -x - 2y with 0<=x<=3, 0<=y<=4 and a loose row
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        let y = p.add_var(0.0, 4.0, -2.0).unwrap();
        p.add_row(RowKind::Le, 100.0, &[(x, 1.0), (y, 1.0)])
            .unwrap();
        let s = solve(&p).unwrap();
        assert!((s.value(x).unwrap() - 3.0).abs() < 1e-7);
        assert!((s.value(y).unwrap() - 4.0).abs() < 1e-7);
    }

    #[test]
    fn negative_bounds_and_free_vars() {
        // min x + y, -5<=x<=5, y free, x + y = -2, y >= -3 (via row)
        let mut p = Problem::new();
        let x = p.add_var(-5.0, 5.0, 1.0).unwrap();
        let y = p.add_var(-INF, INF, 1.0).unwrap();
        p.add_row(RowKind::Eq, -2.0, &[(x, 1.0), (y, 1.0)]).unwrap();
        p.add_row(RowKind::Ge, -3.0, &[(y, 1.0)]).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective + 2.0).abs() < 1e-7);
        assert!(feasible(&p, &s.x, 1e-7));
    }

    #[test]
    fn absolute_value_split_pattern() {
        // min |t - 7| modeled as t = 7 + pos - neg, min pos + neg, t <= 5
        let mut p = Problem::new();
        let t = p.add_var(-INF, 5.0, 0.0).unwrap();
        let pos = p.add_var(0.0, INF, 1.0).unwrap();
        let neg = p.add_var(0.0, INF, 1.0).unwrap();
        p.add_row(RowKind::Eq, 7.0, &[(t, 1.0), (pos, -1.0), (neg, 1.0)])
            .unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7, "obj {}", s.objective);
        assert!((s.value(t).unwrap() - 5.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // multiple redundant constraints through the optimum
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, -1.0).unwrap();
        let y = p.add_var(0.0, INF, -1.0).unwrap();
        for _ in 0..4 {
            p.add_row(RowKind::Le, 1.0, &[(x, 1.0), (y, 1.0)]).unwrap();
        }
        p.add_row(RowKind::Le, 1.0, &[(x, 1.0)]).unwrap();
        p.add_row(RowKind::Le, 1.0, &[(y, 1.0)]).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective + 1.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, INF, -1.0).unwrap();
        p.add_row(RowKind::Le, 6.0, &[(x, 1.0), (x, 2.0)]).unwrap(); // 3x <= 6
        let s = solve(&p).unwrap();
        assert!((s.value(x).unwrap() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn random_lps_satisfy_optimality_spot_checks() {
        // deterministic xorshift
        let mut state = 0x243F6A8885A308D3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..20 {
            let nv = 3 + (case % 4);
            let nr = 2 + (case % 5);
            let mut p = Problem::new();
            let vars: Vec<VarId> = (0..nv)
                .map(|_| {
                    p.add_var(0.0, 1.0 + 4.0 * rnd(), 2.0 * rnd() - 1.0)
                        .unwrap()
                })
                .collect();
            for _ in 0..nr {
                let terms: Vec<(VarId, f64)> =
                    vars.iter().map(|&v| (v, 2.0 * rnd() - 0.5)).collect();
                // rhs chosen so x=0 is feasible for Le rows
                p.add_row(RowKind::Le, 0.5 + 3.0 * rnd(), &terms).unwrap();
            }
            let s = solve(&p).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(feasible(&p, &s.x, 1e-6), "case {case} infeasible answer");
            // objective must beat 200 random feasible corners of the box
            // (rejection-sampled against the rows)
            let mut best = f64::INFINITY;
            for _ in 0..400 {
                let cand: Vec<f64> = (0..nv).map(|j| p.hi[j] * rnd()).collect();
                if feasible(&p, &cand, 0.0) {
                    let obj: f64 = cand.iter().zip(&p.cost).map(|(a, b)| a * b).sum();
                    best = best.min(obj);
                }
            }
            assert!(
                s.objective <= best + 1e-6,
                "case {case}: simplex {} vs sampled {}",
                s.objective,
                best
            );
        }
    }

    #[test]
    fn bad_bounds_rejected() {
        let mut p = Problem::new();
        let e = p.add_var(2.0, 1.0, 0.0).unwrap_err();
        assert!(
            matches!(e, LpError::BadProblem(ref m) if m.contains("out of order")),
            "{e}"
        );
        let e = p.add_var(f64::NAN, 1.0, 0.0).unwrap_err();
        assert!(
            matches!(e, LpError::BadProblem(ref m) if m.contains("NaN")),
            "{e}"
        );
        let e = p.add_var(0.0, 1.0, f64::INFINITY).unwrap_err();
        assert!(
            matches!(e, LpError::BadProblem(ref m) if m.contains("finite")),
            "{e}"
        );
        assert_eq!(
            p.num_vars(),
            0,
            "failed add_var must not mutate the problem"
        );
    }

    #[test]
    fn unknown_var_rejected() {
        let mut p = Problem::new();
        let _x = p.add_var(0.0, 1.0, 0.0).unwrap();
        let e = p.add_row(RowKind::Le, 1.0, &[(VarId(7), 1.0)]).unwrap_err();
        assert!(
            matches!(e, LpError::BadProblem(ref m) if m.contains("unknown variable")),
            "{e}"
        );
        let e = p.add_row(RowKind::Le, f64::NAN, &[]).unwrap_err();
        assert!(
            matches!(e, LpError::BadProblem(ref m) if m.contains("rhs")),
            "{e}"
        );
        assert_eq!(
            p.num_rows(),
            0,
            "failed add_row must not mutate the problem"
        );
    }

    #[test]
    fn poison_coeff_unknown_term() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 0.0).unwrap();
        let e = p.debug_poison_coeff(x, 3, 1.0).unwrap_err();
        assert_eq!(e, LpError::UnknownTerm { var: x, row: 3 });
    }
}
