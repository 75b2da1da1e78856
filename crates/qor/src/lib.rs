// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `clk-qor` — quality-of-results telemetry for the clockvar flow.
//!
//! The paper's entire evaluation is a QoR table (skew variation sum,
//! local skew per corner, cell count, power, area, runtime — Tables
//! 3–5). This crate makes those numbers machine-readable and
//! regressable:
//!
//! * [`snapshot`] — a versioned snapshot schema ([`QorSnapshot`],
//!   `schema_version: 1`) populated from
//!   [`OptReport`](clk_skewopt::OptReport) plus the live
//!   [`MetricsSnapshot`](clk_obs::MetricsSnapshot), serialized through
//!   the zero-dependency `clk_obs::json` model;
//! * [`diff`] — a noise-aware differ with per-metric tolerance bands
//!   and improve/neutral/regress verdicts, driving the
//!   `clk-bench --bin gate` CI gate against a committed
//!   `qor-baseline.json`.
//!
//! ```
//! use clk_qor::{diff_snapshots, QorSnapshot, TolerancePolicy};
//!
//! let snap = QorSnapshot::new("deadbeef", 2015, "quick");
//! let text = snap.to_json_pretty();
//! let back = QorSnapshot::parse_str(&text).unwrap();
//! let d = diff_snapshots(&back, &snap, &TolerancePolicy::default_qor());
//! assert!(!d.has_regressions()); // a self-diff is always clean
//! ```

pub mod diff;
pub mod snapshot;

pub use diff::{diff_snapshots, Delta, Direction, QorDiff, Tolerance, TolerancePolicy, Verdict};
pub use snapshot::{CornerQor, PhaseQor, QorSnapshot, TestcaseQor, SCHEMA_VERSION};
