// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! The clock-network database — the design-database substrate.
//!
//! A [`ClockTree`] is a rooted tree of instances: one **source** (the clock
//! root driver), **buffers** (clock inverters from [`clk_liberty`]), and
//! **sinks** (flip-flop clock pins). Every non-root node carries the routed
//! [`clk_route::RoutePath`] from its parent's location to its own.
//!
//! On top of the instance tree, [`arcs`] derives the paper's *arc* view: an
//! arc is a maximal tree segment without branching (paper Table 1, `s_j`),
//! i.e. a junction-to-junction chain of single-fanout buffers. The global
//! LP assigns delay changes per arc; the ECO engine rebuilds whole arcs.
//!
//! [`place`] provides the floorplan/legalizer stand-in for the P&R tool:
//! positions snap to a site grid, stay out of blockages and acquire a small
//! deterministic jitter that emulates legalization displacement in a ~60%
//! utilized block — the source of LP-vs-ECO discrepancy the paper's
//! formulation explicitly guards against.
//!
//! # Examples
//!
//! ```
//! use clk_geom::Point;
//! use clk_liberty::{Library, StdCorners};
//! use clk_netlist::{ClockTree, NodeKind};
//!
//! let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
//! let x8 = lib.cell_by_name("CLKINV_X8").expect("exists");
//! let mut tree = ClockTree::new(Point::new(0, 0), x8);
//! let buf = tree.add_node(NodeKind::Buffer(x8), Point::new(50_000, 0), tree.root());
//! let _s1 = tree.add_node(NodeKind::Sink, Point::new(100_000, 20_000), buf);
//! let _s2 = tree.add_node(NodeKind::Sink, Point::new(100_000, -20_000), buf);
//! assert_eq!(tree.sinks().count(), 2);
//! tree.validate().expect("well-formed tree");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod arcs;
pub mod io;
pub mod pairs;
pub mod place;
pub mod stats;
pub mod tree;

pub use arcs::{rebuild_arc, rebuild_arc_legalized, Arc, ArcId, ArcSet};
pub use pairs::SinkPair;
pub use place::Floorplan;
pub use stats::TreeStats;
pub use tree::{Checkpoint, ClockTree, Node, NodeId, NodeKind, TreeError};
