// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! A linear-programming solver — the optimization substrate behind the
//! paper's global skew-variation LP (Eqs. (4)–(11)).
//!
//! [`Problem`] models `min cᵀx` subject to sparse linear rows
//! (`≤`, `=`, `≥`) and per-variable bounds (± infinity allowed). [`solve`]
//! runs a **bounded-variable revised primal simplex** with an explicit
//! basis inverse, two-phase start (artificial variables), Dantzig
//! pricing and a Bland anti-cycling fallback.
//!
//! [`Lp`] solves one problem under a sequence of cost vectors. It keeps
//! the tableau of its last optimal solve; after [`Lp::set_cost`], the next
//! solve skips the two-phase start and continues phase 2 from that basis,
//! which stays primal feasible because rows and bounds cannot change. The
//! free `solve*` functions run the same code with nothing kept: one pivot
//! loop serves both.
//!
//! The inverse is stored as a dense column-major m×m array with an exact
//! bitset of nonzero rows per column. ftran scatters only the nonzeros
//! of the columns the entering column touches, btran sums each dual over
//! the nonzero rows that carry a basic cost, and the eta update visits
//! only the columns whose pivot-row entry is nonzero. The pivot sequence
//! and every output bit are those of a plain dense row-major inverse.
//! Memory is still m² floats, which bounds practical problems to a few
//! thousand rows; this workspace's scaled testcases stay inside that
//! (about 370 rows per global LP at 12 sinks; the paper offloads its LP
//! to a commercial solver, see DESIGN.md §4).
//!
//! # Examples
//!
//! ```
//! use clk_lp::{Problem, RowKind};
//!
//! // max x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, f64::INFINITY, -1.0)?;
//! let y = p.add_var(0.0, f64::INFINITY, -1.0)?;
//! p.add_row(RowKind::Le, 4.0, &[(x, 1.0), (y, 2.0)])?;
//! p.add_row(RowKind::Le, 6.0, &[(x, 3.0), (y, 1.0)])?;
//! let sol = clk_lp::solve(&p)?;
//! assert!((sol.objective - (-2.8)).abs() < 1e-6); // x = 1.6, y = 1.2
//! # Ok::<(), clk_lp::LpError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod simplex;

pub use simplex::{
    solve, solve_certified, solve_certified_with_deadline, solve_certified_with_obs,
    solve_with_deadline, solve_with_obs, Certificate, Certified, FarkasRay, Lp, LpError, Problem,
    RowKind, Solution, VarId, VarStatus, REDUNDANT_ROW,
};
