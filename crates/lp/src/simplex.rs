//! Bounded-variable revised primal simplex over an explicit basis
//! inverse, stored column-major with an exact nonzero-row bitset per
//! column so that ftran, btran, the ratio test and the eta update touch
//! only nonzeros.
//!
//! Pricing is incremental. The duals `y` and the reduced cost of every
//! column are priced from scratch once per phase and then kept across
//! pivots. A pivot on row `r` changes only the basis-inverse columns
//! whose row `r` is nonzero and the basic cost of `r`, so only those
//! columns' duals are recomputed, by the same dot product in the same
//! row order as a full btran; every other dual sums the same values over
//! the same rows and keeps its bits. Only the columns with an entry in a
//! row whose dual changed bits are re-priced. Pricing therefore reads
//! exactly the values a full re-price would compute, and the pivot
//! sequence and every output bit are unchanged; debug builds re-price
//! from scratch after every basis change and assert bit equality.

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

/// Pivot-level statistics from one simplex phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseStats {
    iters: usize,
    bound_flips: usize,
    degenerate: usize,
    /// reduced costs computed by pricing
    reduced_costs: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic variable parked at zero.
    FreeZero,
}

struct Tableau {
    /// per-variable sparse columns (structural + slack + artificial)
    cols: Vec<Vec<(usize, f64)>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    cost: Vec<f64>,
    phase_cost: Vec<f64>,
    state: Vec<State>,
    /// variable basic in each row
    basis: Vec<usize>,
    /// dense column-major basis inverse, m×m: `binv[k*m + i]` is
    /// `B⁻¹[i][k]`, so each column is one contiguous slice
    binv: Vec<f64>,
    /// exact nonzero rows of each column of `binv`: `words` u64s per
    /// column, bit `i` of column `k` set iff `binv[k*m + i] != 0.0`
    nz: Vec<u64>,
    /// u64 words per column bitset, `⌈m/64⌉`
    words: usize,
    /// values of basic variables per row
    xb: Vec<f64>,
    m: usize,
    /// row→column index of `cols`: the columns with an entry in row `i`
    /// are `row_cols[row_start[i]..row_start[i + 1]]`, ascending
    row_start: Vec<usize>,
    row_cols: Vec<usize>,
}

/// Pricing state and per-pivot buffers of one solve, kept across its
/// pivots and phases.
struct Work {
    /// duals `B⁻ᵀ c_B`
    y: Vec<f64>,
    /// reduced cost `c_j − yᵀA_j` of every column, basic ones included
    d: Vec<f64>,
    /// entering column `B⁻¹ A_j`
    w: Vec<f64>,
    /// rows that may be nonzero in `w`: the union of the bitsets of the
    /// columns of B⁻¹ that `A_j` touches
    w_nz: Vec<u64>,
    /// basic cost of each row
    cb: Vec<f64>,
    /// rows whose basic cost is nonzero
    cb_nz: Vec<u64>,
    /// columns of B⁻¹ the last eta update visited
    touched: Vec<usize>,
    /// rows whose dual changed bits in the last re-price
    changed: Vec<usize>,
    /// re-price in which each column's reduced cost was last recomputed
    stamp: Vec<u64>,
    /// re-prices so far
    epoch: u64,
}

impl Work {
    fn new(m: usize, words: usize, n: usize) -> Self {
        Work {
            y: vec![0.0; m],
            d: vec![0.0; n],
            w: vec![0.0; m],
            w_nz: vec![0; words],
            cb: vec![0.0; m],
            cb_nz: vec![0; words],
            touched: Vec::new(),
            changed: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
        }
    }
}

/// The row→column index of `cols` over `m` rows, as `(row_start,
/// row_cols)`; see [`Tableau::row_cols`].
// every row index of `cols` is below `m` by construction
#[allow(clippy::indexing_slicing)]
fn row_index(cols: &[Vec<(usize, f64)>], m: usize) -> (Vec<usize>, Vec<usize>) {
    let mut row_start = vec![0; m + 1];
    for &(r, _) in cols.iter().flatten() {
        row_start[r + 1] += 1;
    }
    for i in 0..m {
        row_start[i + 1] += row_start[i];
    }
    let mut next = row_start.clone();
    let mut row_cols = vec![0; row_start[m]];
    for (j, col) in cols.iter().enumerate() {
        for &(r, _) in col {
            row_cols[next[r]] = j;
            next[r] += 1;
        }
    }
    (row_start, row_cols)
}

/// A tableau between solves, its basis inverse packed to the nonzero
/// entries.
struct Parked {
    /// the tableau with an empty `binv`
    tableau: Tableau,
    /// the nonzero entries of `binv`, column by column, each column in
    /// the ascending row order of its bitset
    binv_nz: Vec<f64>,
}

// column and row indices come from the tableau's own bitsets
#[allow(clippy::indexing_slicing)]
impl Parked {
    fn pack(mut t: Tableau) -> Parked {
        let m = t.m;
        let ones = t.nz.iter().map(|w| w.count_ones() as usize).sum();
        let mut binv_nz = Vec::with_capacity(ones);
        for k in 0..m {
            let col = &t.binv[k * m..(k + 1) * m];
            each_bit(t.col_bits(k).iter().copied(), |i| binv_nz.push(col[i]));
        }
        t.binv = Vec::new();
        Parked {
            tableau: t,
            binv_nz,
        }
    }

    /// The tableau with its dense `binv` restored. Entries that were ±0
    /// come back as +0; nothing reads the sign of a zero entry, since
    /// ftran, btran and the eta update skip every entry whose bit is
    /// clear.
    fn unpack(self) -> Tableau {
        let mut t = self.tableau;
        let (m, words) = (t.m, t.words);
        let mut binv = vec![0.0; m * m];
        let mut vals = self.binv_nz.into_iter();
        for (k, col) in binv.chunks_exact_mut(m.max(1)).enumerate() {
            let bits = t.nz[k * words..(k + 1) * words].iter().copied();
            each_bit(bits, |i| col[i] = vals.next().unwrap_or(0.0));
        }
        debug_assert_eq!(vals.len(), 0, "packed entries left over");
        t.binv = binv;
        t
    }
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

/// Bit b set iff `chunk[b] != 0.0`, for a chunk of at most 64 entries.
/// Eight entries at a time, which the compiler turns into vector
/// compares instead of one 64-long serial chain.
fn nonzero_bits(chunk: &[f64]) -> u64 {
    let mut groups = chunk.chunks_exact(8);
    let mut bits = 0u64;
    let mut at = 0;
    for g in &mut groups {
        let byte = g
            .iter()
            .enumerate()
            .fold(0u64, |b, (q, &v)| b | u64::from(v != 0.0) << q);
        bits |= byte << at;
        at += 8;
    }
    for (q, &v) in groups.remainder().iter().enumerate() {
        bits |= u64::from(v != 0.0) << (at + q);
    }
    bits
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

    fn col_bits(&self, k: usize) -> &[u64] {
        &self.nz[k * self.words..(k + 1) * self.words]
    }

    /// The columns with an entry in row `i`, ascending.
    fn row_cols(&self, i: usize) -> &[usize] {
        &self.row_cols[self.row_start[i]..self.row_start[i + 1]]
    }

    /// w = B⁻¹ · A_j, scattering only the nonzeros of the columns of B⁻¹
    /// that A_j touches, and `w_nz` = the union of their bitsets. Each
    /// w[i] sums its terms in the order of A_j's entries; a skipped term
    /// is a ±0 that leaves the sum unchanged, and a row outside `w_nz`
    /// stays exactly 0.
    fn ftran(&self, j: usize, w: &mut [f64], w_nz: &mut [u64]) {
        let m = self.m;
        w.fill(0.0);
        w_nz.fill(0);
        for &(r, a) in &self.cols[j] {
            let col = &self.binv[r * m..(r + 1) * m];
            let bits = self.col_bits(r);
            for (u, b) in w_nz.iter_mut().zip(bits) {
                *u |= b;
            }
            each_bit(bits.iter().copied(), |i| w[i] += col[i] * a);
        }
    }

    /// Dual `y[k]` of column k of B⁻¹: a dot product over the rows that
    /// are nonzero in column k and carry a nonzero basic cost, in
    /// ascending row order.
    fn dual(&self, k: usize, cb: &[f64], cb_nz: &[u64]) -> f64 {
        let m = self.m;
        let col = &self.binv[k * m..(k + 1) * m];
        let mut acc = 0.0;
        let live = self.col_bits(k).iter().zip(cb_nz).map(|(a, b)| a & b);
        each_bit(live, |i| acc += cb[i] * col[i]);
        acc
    }

    /// Prices from scratch: the basic costs, y = B⁻ᵀ · c_B by btran, and
    /// the reduced cost of every column. Returns the reduced costs
    /// computed.
    fn price(&self, cost: &[f64], work: &mut Work) -> usize {
        work.cb_nz.fill(0);
        for (i, cb) in work.cb.iter_mut().enumerate() {
            *cb = cost[self.basis[i]];
            if *cb != 0.0 {
                work.cb_nz[i / 64] |= 1 << (i % 64);
            }
        }
        for k in 0..self.m {
            work.y[k] = self.dual(k, &work.cb, &work.cb_nz);
        }
        for j in 0..work.d.len() {
            work.d[j] = self.reduced_cost(j, &work.y, cost);
        }
        work.d.len()
    }

    /// Re-prices after the basis change on row `r`: patches the basic
    /// cost of `r`, recomputes the duals of the columns of B⁻¹ the eta
    /// update visited, and recomputes the reduced cost of every column
    /// with an entry in a row whose dual changed bits. Every other dual
    /// and reduced cost reads the same values as before and keeps its
    /// bits, so the result equals [`Self::price`] bit for bit. Returns
    /// the reduced costs recomputed.
    fn reprice(&self, r: usize, cost: &[f64], work: &mut Work) -> usize {
        let cb = cost[self.basis[r]];
        work.cb[r] = cb;
        let bit = 1 << (r % 64);
        if cb != 0.0 {
            work.cb_nz[r / 64] |= bit;
        } else {
            work.cb_nz[r / 64] &= !bit;
        }
        work.changed.clear();
        for &k in &work.touched {
            let yk = self.dual(k, &work.cb, &work.cb_nz);
            if yk.to_bits() != work.y[k].to_bits() {
                work.y[k] = yk;
                work.changed.push(k);
            }
        }
        work.epoch += 1;
        let mut priced = 0;
        for &k in &work.changed {
            for &j in self.row_cols(k) {
                if work.stamp[j] != work.epoch {
                    work.stamp[j] = work.epoch;
                    work.d[j] = self.reduced_cost(j, &work.y, cost);
                    priced += 1;
                }
            }
        }
        priced
    }

    /// Checks that the kept duals and reduced costs equal a pricing from
    /// scratch, bit for bit.
    #[cfg(debug_assertions)]
    fn assert_priced(&self, cost: &[f64], work: &Work) {
        let mut fresh = Work::new(self.m, self.words, work.d.len());
        self.price(cost, &mut fresh);
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits());
        debug_assert!(
            same(&fresh.cb, &work.cb) && fresh.cb_nz == work.cb_nz,
            "kept basic costs differ from the basis"
        );
        debug_assert!(
            same(&fresh.y, &work.y),
            "kept duals differ from a full btran"
        );
        debug_assert!(
            same(&fresh.d, &work.d),
            "kept reduced costs differ from a full re-price"
        );
    }

    /// Eta update of B⁻¹ for a pivot on row `r` with entering column
    /// `w = B⁻¹ A_j`: divide row r by the pivot and subtract `w[i]` times
    /// it from every other row i. Only the columns whose row-r entry is
    /// nonzero are visited, and they are listed in `touched`: in every
    /// other column, and in the rows with `w[i] == 0` of a visited one,
    /// the update subtracts ±0, which can flip the sign of a zero entry
    /// but never changes a nonzero value or the outcome of a comparison.
    fn eta_update(&mut self, r: usize, w: &[f64], touched: &mut Vec<usize>) {
        let (m, words) = (self.m, self.words);
        let piv = w[r];
        debug_assert!(piv.abs() > 1e-12, "pivot too small");
        touched.clear();
        for k in 0..m {
            if self.nz[k * words + r / 64] >> (r % 64) & 1 == 0 {
                debug_assert!(self.binv[k * m + r] == 0.0, "stale bit of column {k}");
                continue;
            }
            touched.push(k);
            let col = &mut self.binv[k * m..(k + 1) * m];
            let brk = col[r] / piv;
            for (c, &f) in col.iter_mut().zip(w) {
                *c -= f * brk;
            }
            col[r] = brk;
            for (word, chunk) in self.nz[k * words..(k + 1) * words]
                .iter_mut()
                .zip(col.chunks(64))
            {
                *word = nonzero_bits(chunk);
            }
            debug_assert!(
                (0..m).all(|i| (self.col_bits(k)[i / 64] >> (i % 64) & 1 == 1)
                    == (self.binv[k * m + i] != 0.0)),
                "column {k} bitset differs from its nonzero rows"
            );
        }
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
        // moves a dual, and `pivoted` holds its row until the next pricing
        let mut priced = false;
        let mut pivoted: Option<usize> = None;
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
            } else if let Some(r) = pivoted.take() {
                stats.reduced_costs += self.reprice(r, cost, work);
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
            self.ftran(j, &mut work.w, &mut work.w_nz);
            let w = &work.w;
            // entering may move at most its own range before flipping
            let own_range = self.hi[j] - self.lo[j]; // may be inf
            let mut t = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            // a row with w[i] == 0 bounds the step at ∞ and never leaves,
            // so only the rows of `w_nz` are tested, in ascending order
            let mut leave: Option<usize> = None; // row index
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
                    self.eta_update(r, w, &mut work.touched);
                    pivoted = Some(r);
                    self.basis[r] = j;
                    self.state[j] = State::Basic;
                    self.xb[r] = entering_val;
                }
            }
            drop(kind_prof);
            drop(update_prof);
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
/// so the next one starts cold. Between solves the basis inverse is
/// kept as its nonzero entries only (about a tenth of the dense m²
/// array on the global LP), and expanded again when the next solve
/// starts.
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
    warm: Option<Parked>,
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
    kept: Option<&mut Option<Parked>>,
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
    let mut art_sign: Vec<(usize, f64)> = Vec::new();
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
            art_sign.push((i, r.signum()));
            need_phase1 = true;
        }
    }
    phase_cost.resize(cols.len(), 0.0);
    for (j, pc) in phase_cost.iter_mut().enumerate() {
        if j >= n_struct + m {
            *pc = 1.0;
        }
    }

    // The initial basis is slacks (+1 columns) and artificials (±1
    // columns); its inverse is diag(σ), one nonzero per column. This is
    // the (for now trivial) "refactor" bucket: the cost of materializing
    // a basis inverse and its column bitsets from scratch, which an LU
    // factorization would re-pay periodically instead of once.
    drop(setup_prof);
    let refactor_prof = obs.prof_scope("refactor");
    let words = m.div_ceil(64);
    let mut binv = vec![0.0; m * m];
    let mut nz = vec![0u64; m * words];
    for i in 0..m {
        binv[i * m + i] = 1.0;
        nz[i * words + i / 64] = 1 << (i % 64);
    }
    for &(row, sign) in &art_sign {
        binv[row * m + row] = sign;
    }
    drop(refactor_prof);
    let (row_start, row_cols) = row_index(&cols, m);
    let t = Tableau {
        cols,
        lo,
        hi,
        cost,
        phase_cost,
        state,
        basis,
        binv,
        nz,
        words,
        xb,
        m,
        row_start,
        row_cols,
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
    mut kept: Option<&mut Option<Parked>>,
    obs: &Obs,
    deadline: &Deadline,
) -> Result<Certified, LpError> {
    let m = p.num_rows();
    let n_struct = p.num_vars();
    let (mut t, mut work, phase1) = match kept.as_mut().and_then(|k| k.take()) {
        Some(parked) => {
            let mut t = {
                let _refactor_prof = obs.prof_scope("refactor");
                parked.unpack()
            };
            // the kept basis is primal feasible for any costs: re-price
            // and go straight to phase 2
            t.cost[..n_struct].copy_from_slice(&p.cost);
            let work = Work::new(m, t.words, t.cols.len());
            (t, work, PhaseStats::default())
        }
        None => {
            let (mut t, need_phase1) = slack_start(p, obs);
            let mut work = Work::new(m, t.words, t.cols.len());
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
        *slot = Some(Parked::pack(t));
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

    #[test]
    fn parking_keeps_every_nonzero_of_the_inverse() {
        let (lp, _) = reversible_chain(40);
        let mut p = lp.problem().clone();
        // Ge rows put artificials (−1 columns) into the starting basis
        p.add_row(RowKind::Ge, 3.0, &[(VarId(0), 1.0), (VarId(5), 2.0)])
            .unwrap();
        let (mut t, need_phase1) = slack_start(&p, &Obs::disabled());
        assert!(need_phase1);
        let budget = t.budget();
        let mut work = Work::new(t.m, t.words, t.cols.len());
        t.optimize(true, budget, &Obs::disabled(), &Deadline::none(), &mut work)
            .unwrap();
        let (binv, nz) = (t.binv.clone(), t.nz.clone());
        assert!(binv.iter().filter(|v| **v != 0.0).count() > t.m);
        let back = Parked::pack(t).unpack();
        assert_eq!(back.nz, nz);
        for (a, b) in binv.iter().zip(&back.binv) {
            assert!(a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0));
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
            (46, 0xb0e2_81eb_8bd7_d0e5)
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
