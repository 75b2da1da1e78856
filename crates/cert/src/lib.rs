#![warn(missing_docs)]

//! Exact-arithmetic certificate checking for `clk-lp` — proof-carrying
//! optimization for the global phase of the DAC'15 flow.
//!
//! Every successful simplex solve emits a [`clk_lp::Certificate`] (final
//! basis, row duals, reduced costs) and every infeasible solve emits a
//! [`clk_lp::FarkasRay`]. This crate re-verifies those claims in exact
//! dyadic-rational arithmetic ([`BigRat`]) built from the `f64` bit
//! patterns: primal feasibility, dual feasibility, reduced-cost
//! consistency, complementary slackness via strong duality, and — for
//! infeasible outcomes — the Farkas gap. **No floating-point comparison
//! or arithmetic appears anywhere in the verification path** (enforced by
//! `clippy::float_cmp` / `clippy::float_arithmetic` denies); tolerances
//! are exact powers of two scaled by exactly-accumulated magnitudes.
//!
//! ```
//! use clk_lp::{Problem, RowKind};
//!
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, 10.0, -1.0)?;
//! p.add_row(RowKind::Le, 4.0, &[(x, 1.0)])?;
//! let sol = clk_lp::solve(&p)?;
//! let report = clk_cert::check(&p, &sol);
//! assert!(report.ok(), "{:?}", report.violations);
//! # Ok::<(), clk_lp::LpError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_arithmetic))]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::expect_used)
)]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod check;
pub mod rat;

pub use check::{
    check, check_certified, check_infeasible, check_infeasible_with, check_with, objectives_agree,
    CheckConfig, Report, Violation,
};
pub use rat::BigRat;
