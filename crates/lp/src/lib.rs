// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! A linear-programming solver — the optimization substrate behind the
//! paper's global skew-variation LP (Eqs. (4)–(11)).
//!
//! [`Problem`] models `min cᵀx` subject to sparse linear rows
//! (`≤`, `=`, `≥`) and per-variable bounds (± infinity allowed). [`solve`]
//! runs a **bounded-variable revised primal simplex** with a two-phase
//! start (artificial variables), Dantzig pricing and a Bland
//! anti-cycling fallback.
//!
//! [`Lp`] solves one problem under a sequence of cost vectors. It keeps
//! the tableau of its last optimal solve; after [`Lp::set_cost`], the next
//! solve skips the two-phase start and continues phase 2 from that basis,
//! which stays primal feasible because rows and bounds cannot change. The
//! free `solve*` functions run the same code with nothing kept: one pivot
//! loop serves both.
//!
//! The basis is kept in block form. Rows whose slack or artificial is
//! basic need no inverse; the rest, and the basic structural columns,
//! form a square kernel K, and only a dense K⁻¹ is stored (s×s with s
//! the number of basic structurals, about 13% of the rows of the global
//! LP). ftran and btran apply the basic structurals' other entries as
//! sparse products, each basis change is one O(s²) update of K⁻¹, and
//! K⁻¹ is refactored by Gauss–Jordan elimination every fixed number of
//! updates. Memory is one min(m, n)² array for K⁻¹ plus the problem's
//! nonzeros, so the paper-scale global LP (about 2 750 rows, 870
//! columns and 380 basic structurals at 128 sinks) takes about 6 MB
//! where an m² inverse took 60 MB; the paper offloads its LP to a
//! commercial solver, see DESIGN.md §4.
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
