// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! The golden timer — the PrimeTime-class timing-analysis substrate.
//!
//! [`Timer`] propagates arrival times and transitions from the clock source
//! through a [`clk_netlist::ClockTree`] at one corner:
//!
//! * each driver's fanout net is extracted to a distributed RC tree
//!   ([`clk_delay::RcTree`]) from the **actual routed paths**,
//! * gate delay and output slew come from the library NLDM tables,
//! * wire delay uses D2M (or Elmore) and receiver slews use PERI merging.
//!
//! On top of per-corner latencies, [`skew`] computes the paper's metrics:
//! signed pair skews, the per-corner normalization factors `α_k`, the
//! normalized skew variation `v`/`V` of Eqs. (1)–(3), and the
//! sum-of-variation objective of Table 5. [`power`] reports clock-tree
//! switching + leakage power.
//!
//! # Examples
//!
//! ```
//! use clk_geom::Point;
//! use clk_liberty::{Library, StdCorners, CornerId};
//! use clk_netlist::{ClockTree, NodeKind};
//! use clk_sta::Timer;
//!
//! let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
//! let x8 = lib.cell_by_name("CLKINV_X8").expect("exists");
//! let mut tree = ClockTree::new(Point::new(0, 0), x8);
//! let b = tree.add_node(NodeKind::Buffer(x8), Point::new(80_000, 0), tree.root());
//! let s = tree.add_node(NodeKind::Sink, Point::new(160_000, 10_000), b);
//! let timing = Timer::golden().analyze(&tree, &lib, CornerId(0));
//! assert!(timing.arrival_ps(s) > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]
pub mod power;
pub mod report;
pub mod skew;
pub mod timer;

pub use power::{clock_power, PowerReport};
pub use skew::{
    alpha_factors, local_skew_ps, pair_skews, pair_skews_into, skew_ratios, try_pair_skews,
    variation_report, VariationReport,
};
pub use timer::{
    arc_delays_ps, CornerTiming, Timer, TimerOptions, TimingError, TimingUndo, Violation,
};
