//! Delta-latency prediction (paper §4.2): analytical estimators over
//! {FLUTE, single-trunk Steiner} × {Elmore, D2M}, and machine-learning
//! models (ANN / SVM-RBF / HSM) trained per corner on artificial
//! testcases to close the gap to the golden timer.
//!
//! The four analytical estimates share almost all of their work:
//! routing depends on neither the corner nor the wire model, and one
//! extraction per corner yields both wire models' delays. The committed
//! tree's own nets — the "before" side of every estimate — come from a
//! [`CommittedNets`] built once per tree. The moves of one primary node
//! share their "after" nets too: the moves of one `Group` are
//! estimated against one `SharedNets`, which routes each displaced net
//! once per topology and extracts it once per (corner, topology, load
//! caps). A net whose caps differ from the shared ones (a resized child)
//! is extracted on its own but reuses the route.

use std::borrow::Cow;

use clk_delay::{peri_slew, NetTiming, RcTree, WireModel};
use clk_geom::{um_to_dbu, Direction, Point, Rect};
use clk_liberty::{CellId, CornerId, Library};
use clk_ml::{Hsm, LsSvm, Mlp, MlpConfig, Regressor, StandardScaler};
use clk_netlist::{ClockTree, Floorplan, NodeId, NodeKind};
use clk_route::{rsmt, single_trunk, WireTree};
use clk_sta::{CornerTiming, Timer};

use crate::moves::{apply_move, enumerate_moves, Move, MoveConfig, Resize};

/// Routing-pattern estimate used by the analytical models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topo {
    /// FLUTE-class rectilinear Steiner minimal tree.
    Flute,
    /// Single-trunk Steiner tree.
    SingleTrunk,
}

impl Topo {
    /// Both topologies, in feature order: every `[_; 2]` of per-topology
    /// values below is indexed like this array.
    const ALL: [Topo; 2] = [Topo::Flute, Topo::SingleTrunk];
}

/// Both wire models, in feature order: every `[_; 2]` of per-model
/// values below is indexed like this array.
const MODELS: [WireModel; 2] = [WireModel::Elmore, WireModel::D2m];

/// Routes built and nets extracted by the fast estimates: the counts
/// behind `local.predict.routes` and `local.predict.extractions`. They
/// depend only on the tree and the moves ranked, never on the worker
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankWork {
    /// Steiner routes built (one per net and topology).
    pub routes: u64,
    /// RC extractions, each with its moment analysis.
    pub extractions: u64,
}

impl std::ops::AddAssign for RankWork {
    fn add_assign(&mut self, o: RankWork) {
        self.routes += o.routes;
        self.extractions += o.extractions;
    }
}

/// Fast per-net estimate: gate + estimated-topology wire delay to each
/// pin under each of [`MODELS`], with PERI slews (which do not depend
/// on the wire model).
#[derive(Debug)]
struct NetEst {
    pin_delay: [Vec<f64>; 2],
    pin_slew: Vec<f64>,
}

/// The wire half of one net's fast estimate at one corner: the load its
/// driver sees and, per pin, both wire models' delays (indexed like
/// [`MODELS`]) and the wire slew. [`NetRc::estimate`] adds the driving
/// gate.
#[derive(Debug, Clone)]
struct NetRc {
    load: f64,
    pins: Vec<[f64; 3]>,
}

impl NetRc {
    /// The net driven by `drv_cell` with input slew `slew_in`.
    fn estimate(&self, lib: &Library, corner: CornerId, drv_cell: CellId, slew_in: f64) -> NetEst {
        let gate = lib.gate_delay(drv_cell, corner, slew_in, self.load);
        let gslew = lib.gate_output_slew(drv_cell, corner, slew_in, self.load);
        NetEst {
            pin_delay: std::array::from_fn(|m| self.pins.iter().map(|p| gate + p[m]).collect()),
            pin_slew: self.pins.iter().map(|p| peri_slew(gslew, p[2])).collect(),
        }
    }
}

/// One net routed under one topology: the wire tree, each pin's node in
/// it and each pin's load. The route serves every corner and every set
/// of pin caps.
#[derive(Debug, Clone)]
struct RoutedNet {
    wt: WireTree,
    loads: Vec<(usize, f64)>,
}

impl RoutedNet {
    fn new(topo: Topo, drv_loc: Point, pins: &[(Point, f64)], work: &mut RankWork) -> Self {
        work.routes += 1;
        let pts: Vec<Point> = pins.iter().map(|&(p, _)| p).collect();
        let wt = match topo {
            Topo::Flute => rsmt(drv_loc, &pts),
            Topo::SingleTrunk => single_trunk(drv_loc, &pts),
        };
        let loads = pins
            .iter()
            .map(|&(p, c)| (wt.index_of(p).expect("pin in tree"), c))
            .collect();
        RoutedNet { wt, loads }
    }

    /// This route's loads with pin `pin`'s cap replaced by `cap`.
    fn loads_with(&self, pin: usize, cap: f64) -> Vec<(usize, f64)> {
        let mut loads = self.loads.clone();
        loads[pin].1 = cap;
        loads
    }

    /// Extracts the net at `corner` with its pins loaded as `loads` (this
    /// route's pins, in order) and reads both wire models from the one
    /// moment analysis.
    fn analyze(
        &self,
        lib: &Library,
        corner: CornerId,
        loads: &[(usize, f64)],
        work: &mut RankWork,
    ) -> NetRc {
        work.extractions += 1;
        // lumped extraction: this is the *fast* estimate, not golden
        let rct = RcTree::extract(&self.wt, lib.wire_rc(corner), loads, 1.0e9);
        let nt = NetTiming::analyze(&rct);
        let pins = loads
            .iter()
            .map(|&(w, _)| {
                let rc_node = rct.rc_node_of_wire_node(w);
                let [elmore, d2m] = MODELS.map(|model| nt.delay_ps(rc_node, model));
                [elmore, d2m, nt.wire_slew_ps(rc_node)]
            })
            .collect();
        NetRc {
            load: nt.total_cap_ff(),
            pins,
        }
    }
}

/// A net under both topologies, in [`Topo::ALL`] order.
fn route_both(drv_loc: Point, pins: &[(Point, f64)], work: &mut RankWork) -> [RoutedNet; 2] {
    Topo::ALL.map(|t| RoutedNet::new(t, drv_loc, pins, work))
}

/// Both routes of a net analyzed at every corner of `corners`, as
/// `[corner][topo]`; `change` replaces one pin's cap.
fn analyze_corners(
    routes: &[RoutedNet; 2],
    lib: &Library,
    corners: &[(CornerId, &CornerTiming)],
    change: Option<(usize, f64)>,
    work: &mut RankWork,
) -> Vec<[NetRc; 2]> {
    let loads: [Cow<'_, [(usize, f64)]>; 2] = routes.each_ref().map(|r| match change {
        None => Cow::Borrowed(&r.loads[..]),
        Some((pin, cap)) => Cow::Owned(r.loads_with(pin, cap)),
    });
    corners
        .iter()
        .map(|&(corner, _)| {
            std::array::from_fn(|t| routes[t].analyze(lib, corner, &loads[t], work))
        })
        .collect()
}

fn pin_cap(tree: &ClockTree, lib: &Library, node: NodeId) -> f64 {
    match tree.node(node).kind {
        NodeKind::Buffer(c) => lib.cell(c).input_cap_ff,
        NodeKind::Sink => lib.sink_cap_ff(),
        NodeKind::Source => 0.0,
    }
}

/// `timings[k]` paired with its corner id `k`.
pub(crate) fn corners_of(timings: &[CornerTiming]) -> Vec<(CornerId, &CornerTiming)> {
    timings
        .iter()
        .enumerate()
        .map(|(k, t)| (CornerId(k), t))
        .collect()
}

/// `(location, input cap)` of every fanout pin of `driver`.
fn pins_of(tree: &ClockTree, lib: &Library, driver: NodeId) -> Vec<(Point, f64)> {
    tree.children(driver)
        .iter()
        .map(|&c| (tree.loc(c), pin_cap(tree, lib, c)))
        .collect()
}

fn resized(lib: &Library, cell: CellId, r: Resize) -> CellId {
    match r {
        Resize::None => cell,
        Resize::Up => lib.size_up(cell).unwrap_or(cell),
        Resize::Down => lib.size_down(cell).unwrap_or(cell),
    }
}

/// The analytical estimate of one move's impact at one corner.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveEstimate {
    /// Estimated mean latency change of the sinks below the move's
    /// primary node, ps.
    pub primary_delta: f64,
    /// Differential breakdown per child subtree of the primary node (the
    /// resized child of a type-II move shifts relative to its siblings —
    /// a mean-field delta would hide exactly the skew the move creates).
    pub per_child: Vec<(NodeId, f64)>,
    /// Estimated latency changes of *sibling* subtrees perturbed through
    /// shared nets, as `(subtree root, delta ps)`.
    pub side_effects: Vec<(NodeId, f64)>,
}

/// One move's estimates at one corner: the primary delta under every
/// topology and wire model (`[topo][model]`), and the FLUTE×D2M
/// estimate in full — the only one ranking reads beyond its primary
/// delta.
struct CornerEst {
    primary: [[f64; 2]; 2],
    detail: MoveEstimate,
}

/// Index of D2M in [`MODELS`].
const D2M: usize = 1;

/// A committed driver net: both routes, and at every corner both
/// routes' wire analysis and estimate (`[corner][topo]`).
#[derive(Debug)]
struct DriverNets {
    routes: [RoutedNet; 2],
    rc: Vec<[NetRc; 2]>,
    est: Vec<[NetEst; 2]>,
}

/// Fast estimates of a committed tree's own driver nets — the "before"
/// side of every move estimate — at a set of corners, under both
/// topologies. Built once per tree state (the local phase builds one
/// per iteration) and only read afterwards, so ranking workers share
/// it.
#[derive(Debug)]
pub struct CommittedNets<'a> {
    tree: &'a ClockTree,
    lib: &'a Library,
    corners: Vec<(CornerId, &'a CornerTiming)>,
    /// Indexed by node id; `None` for nodes not covered.
    nets: Vec<Option<DriverNets>>,
    /// What building the nets cost.
    work: RankWork,
}

impl<'a> CommittedNets<'a> {
    /// Estimates every driver net of `tree` at every corner of
    /// `timings` (`timings[k]` is the analysis of corner `k`).
    ///
    /// # Panics
    ///
    /// Panics if a driver was not timed.
    pub fn new(tree: &'a ClockTree, lib: &'a Library, timings: &'a [CornerTiming]) -> Self {
        Self::build(tree, lib, corners_of(timings), tree.node_ids())
    }

    /// Only the nets `mv` reads, at `corners`: the context-free entry
    /// points ([`move_features_with_sides`], `predict_move_gain`) run on
    /// this.
    pub(crate) fn for_move(
        tree: &'a ClockTree,
        lib: &'a Library,
        corners: Vec<(CornerId, &'a CornerTiming)>,
        mv: &Move,
    ) -> Self {
        let node = mv.primary_node();
        let drivers = match *mv {
            Move::SizeDisplace { .. } | Move::ChildSize { .. } => [tree.parent(node), Some(node)],
            Move::Reassign { new_parent, .. } => [tree.parent(node), Some(new_parent)],
        };
        Self::build(tree, lib, corners, drivers.into_iter().flatten())
    }

    fn build(
        tree: &'a ClockTree,
        lib: &'a Library,
        corners: Vec<(CornerId, &'a CornerTiming)>,
        drivers: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let slots = tree.node_ids().map(|n| n.0 as usize + 1).max().unwrap_or(0);
        let mut nets: Vec<Option<DriverNets>> = (0..slots).map(|_| None).collect();
        let mut work = RankWork::default();
        for d in drivers {
            let Some(cell) = tree.cell(d) else { continue };
            if tree.children(d).is_empty() {
                continue;
            }
            let routes = route_both(tree.loc(d), &pins_of(tree, lib, d), &mut work);
            let rc = analyze_corners(&routes, lib, &corners, None, &mut work);
            let est = rc
                .iter()
                .zip(&corners)
                .map(|(rc, &(corner, timing))| {
                    rc.each_ref()
                        .map(|r| r.estimate(lib, corner, cell, timing.slew_ps(d)))
                })
                .collect();
            nets[d.0 as usize] = Some(DriverNets { routes, rc, est });
        }
        CommittedNets {
            tree,
            lib,
            corners,
            nets,
            work,
        }
    }

    /// Routes built and nets extracted building these nets.
    pub(crate) fn work(&self) -> RankWork {
        self.work
    }

    fn driver(&self, driver: NodeId) -> &DriverNets {
        self.nets[driver.0 as usize]
            .as_ref()
            .expect("committed net of a covered driver")
    }

    /// The committed net of `driver` at the `ci`-th corner.
    fn committed(&self, driver: NodeId, ci: usize, topo: Topo) -> &NetEst {
        &self.driver(driver).est[ci][topo as usize]
    }

    /// The model input of [`move_features`] for `mv` at every corner,
    /// each with the FLUTE×D2M [`MoveEstimate`], in corner order.
    pub fn features(&self, mv: &Move, cfg: &MoveConfig) -> Vec<(Vec<f64>, MoveEstimate)> {
        let mut work = RankWork::default();
        let mut shared = self.shared(mv, cfg, &mut work);
        self.shared_features(&mut shared, mv, cfg, &mut work)
    }

    /// The nets `mv`'s [`Group`] shares, for [`CommittedNets::shared_features`]
    /// of every move of that group.
    pub(crate) fn shared(
        &self,
        mv: &Move,
        cfg: &MoveConfig,
        work: &mut RankWork,
    ) -> SharedNets<'_> {
        let (tree, lib) = (self.tree, self.lib);
        let group = Group::of(mv);
        let node = mv.primary_node();
        let nets = match group {
            Group::Displace(_, dir) => {
                let new_loc = match dir {
                    Some(d) => tree.loc(node).step(d, um_to_dbu(cfg.displace_um)),
                    None => tree.loc(node),
                };
                // the parent's net with `node` displaced; its pin keeps
                // the cap until a move resizes it
                let parent = tree.parent(node).map(|p| {
                    let idx = tree
                        .children(p)
                        .iter()
                        .position(|&c| c == node)
                        .expect("node under p");
                    let routes = match dir {
                        None => Cow::Borrowed(&self.driver(p).routes),
                        Some(_) => {
                            let mut after = pins_of(tree, lib, p);
                            after[idx].0 = new_loc;
                            Cow::Owned(route_both(tree.loc(p), &after, work))
                        }
                    };
                    ParentNets {
                        p,
                        cell: tree.cell(p).expect("driver"),
                        idx,
                        routes,
                        est: [None, None, None],
                    }
                });
                // node's own net from its new location
                let own = (!tree.children(node).is_empty()).then(|| match dir {
                    None => {
                        let committed = self.driver(node);
                        OwnNets {
                            routes: Cow::Borrowed(&committed.routes),
                            rc: Some(Cow::Borrowed(&committed.rc[..])),
                        }
                    }
                    Some(_) => OwnNets {
                        routes: Cow::Owned(route_both(new_loc, &pins_of(tree, lib, node), work)),
                        rc: None,
                    },
                });
                Shared::Displace { parent, own }
            }
            Group::Reassign(_) => {
                // the old driver's net without `node`: the same for every
                // new parent
                let p = tree.parent(node).expect("non-root");
                let old_kids = tree.children(p);
                let rem = (old_kids.len() > 1).then(|| {
                    let remaining: Vec<(Point, f64)> = pins_of(tree, lib, p)
                        .into_iter()
                        .zip(old_kids)
                        .filter(|&(_, &c)| c != node)
                        .map(|(pin, _)| pin)
                        .collect();
                    let routes = route_both(tree.loc(p), &remaining, work);
                    let cell = tree.cell(p).expect("driver");
                    analyze_corners(&routes, lib, &self.corners, None, work)
                        .iter()
                        .zip(&self.corners)
                        .map(|(rc, &(corner, timing))| {
                            rc.each_ref()
                                .map(|r| r.estimate(lib, corner, cell, timing.slew_ps(p)))
                        })
                        .collect()
                });
                Shared::Reassign { rem }
            }
        };
        SharedNets {
            group,
            nets,
            geometry: geometry(tree, node),
        }
    }

    /// [`CommittedNets::features`] of `mv` against the nets its group
    /// shares.
    pub(crate) fn shared_features(
        &self,
        shared: &mut SharedNets<'_>,
        mv: &Move,
        cfg: &MoveConfig,
        work: &mut RankWork,
    ) -> Vec<(Vec<f64>, MoveEstimate)> {
        debug_assert_eq!(
            shared.group,
            Group::of(mv),
            "{mv} estimated on another group"
        );
        let (tree, lib) = (self.tree, self.lib);
        let per_corner = match (*mv, &mut shared.nets) {
            (Move::SizeDisplace { node, resize, .. }, Shared::Displace { parent, own }) => {
                let new_cell = resized(lib, tree.cell(node).expect("buffer"), resize);
                self.driver_change(parent, own, node, new_cell, resize, None, work)
            }
            (
                Move::ChildSize {
                    node,
                    child,
                    child_resize,
                    ..
                },
                Shared::Displace { parent, own },
            ) => {
                let cell = tree.cell(node).expect("buffer");
                let child_cell = tree.cell(child).expect("buffer child");
                let new_child_cell = resized(lib, child_cell, child_resize);
                let change = Some((child, new_child_cell));
                self.driver_change(parent, own, node, cell, Resize::None, change, work)
            }
            (Move::Reassign { node, new_parent }, Shared::Reassign { rem }) => {
                self.reassign(rem.as_ref(), node, new_parent, work)
            }
            // clk-analyze: allow(A005) unreachable by construction: Group::of picks the variant
            _ => unreachable!("{mv} does not belong to its shared group"),
        };
        let [fanout, area, aspect] = shared.geometry;
        let [ddrive, dist, dcap] = move_descriptors(tree, lib, mv, cfg);
        per_corner
            .into_iter()
            .map(|CornerEst { primary, detail }| {
                let [[fe, fd], [te, td]] = primary;
                let f = vec![fe, fd, te, td, fanout, area, aspect, ddrive, dist, dcap];
                debug_assert_eq!(f.len(), N_FEATURES);
                (f, detail)
            })
            .collect()
    }

    /// Type III: `node` leaves its driver's net (whose remainder is
    /// `rem`, shared by the group) and joins `new_parent`'s.
    fn reassign(
        &self,
        rem: Option<&Vec<[NetEst; 2]>>,
        node: NodeId,
        new_parent: NodeId,
        work: &mut RankWork,
    ) -> Vec<CornerEst> {
        let (tree, lib) = (self.tree, self.lib);
        let p = tree.parent(node).expect("non-root");
        let old_kids = tree.children(p);
        let idx = old_kids
            .iter()
            .position(|&c| c == node)
            .expect("node is a child of p");
        // new driver's net with `node` appended
        let mut new_pins = pins_of(tree, lib, new_parent);
        new_pins.push((tree.loc(node), pin_cap(tree, lib, node)));
        let new_routes = route_both(tree.loc(new_parent), &new_pins, work);
        let new_rc = analyze_corners(&new_routes, lib, &self.corners, None, work);
        let np_cell = tree.cell(new_parent).expect("driver");
        let last = new_pins.len() - 1;
        self.corners
            .iter()
            .enumerate()
            .map(|(ci, &(corner, timing))| {
                let [[fe, fd], [te, td]]: [[MoveEstimate; 2]; 2] = std::array::from_fn(|t| {
                    let topo = Topo::ALL[t];
                    let est_old = self.committed(p, ci, topo);
                    let est_new =
                        new_rc[ci][t].estimate(lib, corner, np_cell, timing.slew_ps(new_parent));
                    let est_rem = rem.map(|r| &r[ci][t]);
                    let est_prior = (last > 0).then(|| self.committed(new_parent, ci, topo));
                    std::array::from_fn(|m| {
                        let primary_delta = (timing.arrival_ps(new_parent) - timing.arrival_ps(p))
                            + (est_new.pin_delay[m][last] - est_old.pin_delay[m][idx]);
                        // side effects: old siblings speed up, new siblings
                        // slow down
                        let mut side = Vec::new();
                        if let Some(rem) = est_rem {
                            let others = old_kids.iter().enumerate().filter(|&(i, _)| i != idx);
                            for (k, (i, &c)) in others.enumerate() {
                                side.push((c, rem.pin_delay[m][k] - est_old.pin_delay[m][i]));
                            }
                        }
                        if let Some(prior) = est_prior {
                            for (i, &c) in tree.children(new_parent).iter().enumerate() {
                                side.push((c, est_new.pin_delay[m][i] - prior.pin_delay[m][i]));
                            }
                        }
                        MoveEstimate {
                            primary_delta,
                            per_child: vec![(node, primary_delta)],
                            side_effects: side,
                        }
                    })
                });
                let primary = [[&fe, &fd], [&te, &td]].map(|pair| pair.map(|e| e.primary_delta));
                CornerEst {
                    primary,
                    detail: fd,
                }
            })
            .collect()
    }

    /// Shared path for type I/II: driver `node` moves to its group's
    /// location with `new_cell` (the cell `resize` picks); `child_change`
    /// is a type-II child resize.
    #[allow(clippy::too_many_arguments)]
    fn driver_change(
        &self,
        parent: &mut Option<ParentNets<'_>>,
        own: &mut Option<OwnNets<'_>>,
        node: NodeId,
        new_cell: CellId,
        resize: Resize,
        child_change: Option<(NodeId, CellId)>,
        work: &mut RankWork,
    ) -> Vec<CornerEst> {
        let (tree, lib) = (self.tree, self.lib);
        let new_cell_of = |c: NodeId| {
            child_change
                .filter(|&(cc, _)| cc == c)
                .map(|(_, cell)| cell)
        };
        // stage 0: the parent's net sees node's pin move / recap
        let stage0 = parent.as_mut().map(|pn| {
            let slot = &mut pn.est[resize as usize];
            if slot.is_none() {
                let change = Some((pn.idx, lib.cell(new_cell).input_cap_ff));
                let rc = analyze_corners(&pn.routes, lib, &self.corners, change, work);
                let est = rc
                    .iter()
                    .zip(&self.corners)
                    .map(|(rc, &(corner, timing))| {
                        rc.each_ref()
                            .map(|r| r.estimate(lib, corner, pn.cell, timing.slew_ps(pn.p)))
                    })
                    .collect();
                *slot = Some(est);
            }
            (pn.p, pn.idx, &*slot)
        });
        // stage 1: node's own net
        let children = tree.children(node);
        let stage1: Option<Cow<'_, [[NetRc; 2]]>> = own.as_mut().map(|on| match child_change {
            None => {
                let rc = on.rc.get_or_insert_with(|| {
                    Cow::Owned(analyze_corners(&on.routes, lib, &self.corners, None, work))
                });
                Cow::Borrowed(&**rc)
            }
            Some((child, cell)) => {
                let pin = children
                    .iter()
                    .position(|&c| c == child)
                    .expect("child under node");
                let change = Some((pin, lib.cell(cell).input_cap_ff));
                Cow::Owned(analyze_corners(
                    &on.routes,
                    lib,
                    &self.corners,
                    change,
                    work,
                ))
            }
        });
        self.corners
            .iter()
            .enumerate()
            .map(|(ci, &(corner, timing))| {
                let mut primary = [[0.0; 2]; 2];
                let mut detail = None;
                for (t, topo) in Topo::ALL.into_iter().enumerate() {
                    // only FLUTE×D2M keeps its per-child and side-effect
                    // breakdown
                    let full = topo == Topo::Flute;
                    let (d1, slew_shift, side_effects) = match &stage0 {
                        None => ([0.0; 2], 0.0, Vec::new()),
                        Some((p, idx, est)) => {
                            let eb = self.committed(*p, ci, topo);
                            let ea = &est.as_ref().expect("filled above")[ci][t];
                            let side = if full {
                                let siblings = tree.children(*p).iter().enumerate();
                                siblings
                                    .filter(|&(i, _)| i != *idx)
                                    .map(|(i, &c)| (c, ea.pin_delay[D2M][i] - eb.pin_delay[D2M][i]))
                                    .collect()
                            } else {
                                Vec::new()
                            };
                            (
                                std::array::from_fn(|m| {
                                    ea.pin_delay[m][*idx] - eb.pin_delay[m][*idx]
                                }),
                                ea.pin_slew[*idx] - eb.pin_slew[*idx],
                                side,
                            )
                        }
                    };
                    let Some(rc) = &stage1 else {
                        primary[t] = d1;
                        if full {
                            detail = Some(MoveEstimate {
                                primary_delta: d1[D2M],
                                per_child: vec![(node, d1[D2M])],
                                side_effects,
                            });
                        }
                        continue;
                    };
                    // node's own net after the move: `rc`'s estimate
                    // (`NetRc::estimate`) taken pin by pin
                    let rc = &rc[ci][t];
                    let slew_in = (timing.slew_ps(node) + slew_shift).max(1.0);
                    let gate = lib.gate_delay(new_cell, corner, slew_in, rc.load);
                    let gslew = lib.gate_output_slew(new_cell, corner, slew_in, rc.load);
                    let eb = self.committed(node, ci, topo);
                    // per-child deltas: shift at the driver input (d1) +
                    // this child's own net-delay change + its stage-2
                    // gate-delay change; the primary delta is their mean
                    let mut sum = [-0.0; 2];
                    let mut per_child = Vec::with_capacity(if full { children.len() } else { 0 });
                    for (i, (&c, pin)) in children.iter().zip(&rc.pins).enumerate() {
                        // the slews do not depend on the wire model
                        let d3 = match tree.node(c).kind {
                            NodeKind::Buffer(c_cell) => {
                                let load = timing.load_ff(c);
                                let new_cell_c = new_cell_of(c).unwrap_or(c_cell);
                                let g_b = lib.gate_delay(c_cell, corner, eb.pin_slew[i], load);
                                let slew_a = peri_slew(gslew, pin[2]);
                                let g_a = lib.gate_delay(new_cell_c, corner, slew_a, load);
                                g_a - g_b
                            }
                            _ => 0.0,
                        };
                        for m in 0..MODELS.len() {
                            let d2_i = (gate + pin[m]) - eb.pin_delay[m][i];
                            let d = d1[m] + d2_i + d3;
                            sum[m] += d;
                            if full && m == D2M {
                                per_child.push((c, d));
                            }
                        }
                    }
                    primary[t] = sum.map(|s| s / children.len() as f64);
                    if full {
                        detail = Some(MoveEstimate {
                            primary_delta: primary[t][D2M],
                            per_child,
                            side_effects,
                        });
                    }
                }
                CornerEst {
                    primary,
                    detail: detail.expect("FLUTE is estimated"),
                }
            })
            .collect()
    }
}

/// The moves that share one [`SharedNets`]: a primary node's
/// displacement in one direction (type I with every resize, type II
/// with every child resize; `None` is type I's sizing-only moves), or
/// its reassignment to any new parent (type III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Group {
    Displace(NodeId, Option<Direction>),
    Reassign(NodeId),
}

impl Group {
    pub(crate) fn of(mv: &Move) -> Group {
        match *mv {
            Move::SizeDisplace { node, dir, .. } => Group::Displace(node, dir),
            Move::ChildSize { node, dir, .. } => Group::Displace(node, Some(dir)),
            Move::Reassign { node, .. } => Group::Reassign(node),
        }
    }
}

/// The "after" nets the moves of one [`Group`] share, borrowed from the
/// [`CommittedNets`] where the move leaves a net's pins in place.
/// Ranking builds one per group and drops it before the next, so a
/// ranking worker holds at most one family's nets at a time.
pub(crate) struct SharedNets<'c> {
    group: Group,
    nets: Shared<'c>,
    /// Fanout, bounding-box area and aspect ratio of the primary node's
    /// net: the first three descriptor features of every move.
    geometry: [f64; 3],
}

// a ranking worker holds one at a time, so the variants' sizes do not
// matter
#[allow(clippy::large_enum_variant)]
enum Shared<'c> {
    /// `None` when the node has no parent / no children.
    Displace {
        parent: Option<ParentNets<'c>>,
        own: Option<OwnNets<'c>>,
    },
    /// The old parent's net without the node, `[corner][topo]`; `None`
    /// when the node is its parent's only child.
    Reassign { rem: Option<Vec<[NetEst; 2]>> },
}

/// The parent `p`'s net with the node (its `idx`-th pin) displaced.
struct ParentNets<'c> {
    p: NodeId,
    cell: CellId,
    idx: usize,
    /// Committed when the node stays in place.
    routes: Cow<'c, [RoutedNet; 2]>,
    /// `[corner][topo]` with the node's pin loaded by the cell each
    /// [`Resize`] gives it (type II keeps the cell: `Resize::None`),
    /// filled on first use.
    est: [Option<Vec<[NetEst; 2]>>; 3],
}

/// The node's own net from its new location.
struct OwnNets<'c> {
    /// Committed when the node stays in place.
    routes: Cow<'c, [RoutedNet; 2]>,
    /// `[corner][topo]` with every child's cap unchanged (type I), filled
    /// on first use; committed when the node stays in place.
    rc: Option<Cow<'c, [[NetRc; 2]]>>,
}

/// Number of features produced by [`move_features`].
pub const N_FEATURES: usize = 10;

/// The model input of the paper: the four analytical delta estimates plus
/// net geometry (fanout, bounding-box area, aspect ratio) and move
/// descriptors. The analytical estimates are the paper's pre-ML
/// estimators (and the "analytical model" baselines of Fig. 6); they see
/// neither legalization nor the actual ECO route.
pub fn move_features(
    tree: &ClockTree,
    lib: &Library,
    corner: CornerId,
    timing: &CornerTiming,
    mv: &Move,
    cfg: &MoveConfig,
) -> Vec<f64> {
    move_features_with_sides(tree, lib, corner, timing, mv, cfg).0
}

/// [`move_features`] plus the full FLUTE×D2M [`MoveEstimate`] (per-child
/// deltas and sibling side effects), reused by the local optimizer so the
/// analytic passes run once. Ranking many moves on one tree goes through
/// [`CommittedNets::features`] instead, which shares the committed nets
/// between moves and the routes between corners.
pub fn move_features_with_sides(
    tree: &ClockTree,
    lib: &Library,
    corner: CornerId,
    timing: &CornerTiming,
    mv: &Move,
    cfg: &MoveConfig,
) -> (Vec<f64>, MoveEstimate) {
    let nets = CommittedNets::for_move(tree, lib, vec![(corner, timing)], mv);
    let [one] =
        <[(Vec<f64>, MoveEstimate); 1]>::try_from(nets.features(mv, cfg)).expect("one corner");
    one
}

/// Fanout, bounding-box area and aspect ratio of `node`'s net: the
/// corner-independent features every move of `node` shares.
fn geometry(tree: &ClockTree, node: NodeId) -> [f64; 3] {
    let children = tree.children(node);
    let mut pts: Vec<Point> = children.iter().map(|&c| tree.loc(c)).collect();
    pts.push(tree.loc(node));
    let bbox = Rect::bounding(&pts).expect("non-empty");
    [
        children.len() as f64,
        bbox.area_um2() / 1_000.0,
        bbox.aspect_ratio(),
    ]
}

/// The move descriptors: drive delta, displacement, child-cap delta.
fn move_descriptors(tree: &ClockTree, lib: &Library, mv: &Move, cfg: &MoveConfig) -> [f64; 3] {
    match *mv {
        Move::SizeDisplace { node, dir, resize } => {
            let c = tree.cell(node).expect("buffer");
            let nc = resized(lib, c, resize);
            [
                lib.cell(nc).drive - lib.cell(c).drive,
                if dir.is_some() { cfg.displace_um } else { 0.0 },
                lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
            ]
        }
        Move::ChildSize {
            child,
            child_resize,
            ..
        } => {
            let c = tree.cell(child).expect("buffer");
            let nc = resized(lib, c, child_resize);
            [
                lib.cell(nc).drive - lib.cell(c).drive,
                cfg.displace_um,
                lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
            ]
        }
        Move::Reassign { node, new_parent } => {
            let p = tree.parent(node).expect("non-root");
            [0.0, tree.loc(new_parent).manhattan_um(tree.loc(p)), 0.0]
        }
    }
}

/// Which learner backs a [`DeltaLatencyModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Artificial neural network only.
    Ann,
    /// LS-SVM with RBF kernel only.
    Svm,
    /// HSM blend of ANN + SVM (the flow default).
    Hsm,
}

/// Training configuration for the delta-latency models.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of artificial testcases (the paper uses 150).
    pub n_cases: usize,
    /// Every `last_stage_every`-th case is a last-stage net (fanout
    /// 20–40).
    pub last_stage_every: usize,
    /// Cap on moves sampled per case (the paper averages ~450).
    pub moves_per_case: usize,
    /// RNG seed for case generation.
    pub seed: u64,
    /// ANN hyper-parameters.
    pub mlp: MlpConfig,
    /// RBF kernel width.
    pub svm_gamma: f64,
    /// LS-SVM regularization.
    pub svm_c: f64,
    /// Subsample cap for the O(n³) LS-SVM solve.
    pub svm_max_samples: usize,
    /// Fraction held out to pick HSM blend weights.
    pub val_frac: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            n_cases: 60,
            last_stage_every: 3,
            moves_per_case: 80,
            seed: 11,
            mlp: MlpConfig {
                epochs: 120,
                ..MlpConfig::default()
            },
            svm_gamma: 0.08,
            svm_c: 50.0,
            svm_max_samples: 600,
            val_frac: 0.2,
        }
    }
}

/// The labelled training data of one corner.
#[derive(Debug, Clone, Default)]
pub struct CornerData {
    /// Feature vectors.
    pub x: Vec<Vec<f64>>,
    /// Golden-timer delta-latency targets, ps.
    pub y: Vec<f64>,
    /// Baseline (pre-move) mean latency of the affected sinks, ps — the
    /// paper reports model error on latencies reconstructed as
    /// `latency + predicted delta` (Fig. 5), so the baseline is kept with
    /// every sample.
    pub lat: Vec<f64>,
}

/// Per-corner training data built from artificial testcases.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Indexed by corner.
    pub per_corner: Vec<CornerData>,
}

/// Generates the training set: artificial nets, candidate moves, golden
/// before/after timing (paper §4.2's data-generation loop).
pub fn build_dataset(lib: &Library, cfg: &TrainConfig) -> Dataset {
    let fp = Floorplan::utilized(Rect::from_um(0.0, 0.0, 1_000.0, 1_000.0), vec![]);
    let timer = Timer::golden();
    let mcfg = MoveConfig::default();
    let mut per_corner = vec![CornerData::default(); lib.corner_count()];
    for case_i in 0..cfg.n_cases {
        let case = clk_cts::artificial(
            lib,
            cfg.seed.wrapping_add(case_i as u64),
            cfg.last_stage_every > 0 && case_i % cfg.last_stage_every == 0,
        );
        let before: Vec<CornerTiming> = timer.analyze_all(&case.tree, lib);
        // every node is a training target so the model sees all three
        // Table-2 move types (including sink reassignments)
        let all_moves = enumerate_moves(&case.tree, lib, &mcfg, None);
        if all_moves.is_empty() {
            continue;
        }
        let nets = CommittedNets::new(&case.tree, lib, &before);
        // deterministic stride sampling for diversity under the cap
        let stride = all_moves.len().div_ceil(cfg.moves_per_case.max(1)).max(1);
        for mv in all_moves.into_iter().step_by(stride) {
            let primary = mv.primary_node();
            let sinks: Vec<NodeId> = case
                .tree
                .sinks()
                .filter(|&s| case.tree.is_descendant(s, primary))
                .collect();
            if sinks.is_empty() {
                continue;
            }
            let mut trial = case.tree.clone();
            if apply_move(&mut trial, lib, &fp, &mcfg, &mv).is_err() {
                continue;
            }
            for (k, (feats, _)) in lib.corner_ids().zip(nets.features(&mv, &mcfg)) {
                let after = timer.analyze(&trial, lib, k);
                let baseline: f64 = sinks
                    .iter()
                    .map(|&s| before[k.0].arrival_ps(s))
                    .sum::<f64>()
                    / sinks.len() as f64;
                let target: f64 = sinks
                    .iter()
                    .map(|&s| after.arrival_ps(s) - before[k.0].arrival_ps(s))
                    .sum::<f64>()
                    / sinks.len() as f64;
                per_corner[k.0].x.push(feats);
                per_corner[k.0].y.push(target);
                per_corner[k.0].lat.push(baseline);
            }
        }
    }
    Dataset { per_corner }
}

/// One corner's trained predictor.
enum CornerModel {
    Ann(Mlp),
    Svm(LsSvm),
    Hsm(Hsm<Box<dyn Regressor>>),
}

impl CornerModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            CornerModel::Ann(m) => m.predict(x),
            CornerModel::Svm(m) => m.predict(x),
            CornerModel::Hsm(m) => m.predict(x),
        }
    }
}

/// Per-corner machine-learning delta-latency predictor.
///
/// One model per corner is trained once per technology on artificial
/// testcases and reused for every design (paper §4.2).
pub struct DeltaLatencyModel {
    kind: ModelKind,
    scalers: Vec<StandardScaler>,
    /// Per-corner target normalization `(mean, std)` — reassignment moves
    /// produce deltas two orders of magnitude above sizing moves, so the
    /// learners train on standardized targets.
    y_norm: Vec<(f64, f64)>,
    models: Vec<CornerModel>,
}

impl std::fmt::Debug for DeltaLatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaLatencyModel")
            .field("kind", &self.kind)
            .field("corners", &self.models.len())
            .finish()
    }
}

impl DeltaLatencyModel {
    /// Trains the chosen model kind on `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if a corner has no samples.
    pub fn fit(dataset: &Dataset, kind: ModelKind, cfg: &TrainConfig) -> Self {
        let mut scalers = Vec::with_capacity(dataset.per_corner.len());
        let mut y_norm = Vec::with_capacity(dataset.per_corner.len());
        let mut models = Vec::with_capacity(dataset.per_corner.len());
        for data in &dataset.per_corner {
            assert!(!data.x.is_empty(), "no training data for a corner");
            let scaler = StandardScaler::fit(&data.x);
            let xs = scaler.transform_batch(&data.x);
            let n = data.y.len() as f64;
            let mean = data.y.iter().sum::<f64>() / n;
            let std = (data.y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
                .sqrt()
                .max(1e-9);
            let ys: Vec<f64> = data.y.iter().map(|v| (v - mean) / std).collect();
            let model = match kind {
                ModelKind::Ann => CornerModel::Ann(Mlp::train(&xs, &ys, &cfg.mlp)),
                ModelKind::Svm => CornerModel::Svm(train_svm(&xs, &ys, cfg)),
                ModelKind::Hsm => {
                    let (tr, va) = clk_ml::train_val_split(xs.len(), cfg.val_frac, cfg.seed);
                    let take = |idx: &[usize]| -> (Vec<Vec<f64>>, Vec<f64>) {
                        (
                            idx.iter().map(|&i| xs[i].clone()).collect(),
                            idx.iter().map(|&i| ys[i]).collect(),
                        )
                    };
                    let (xt, yt) = take(&tr);
                    let (xv, yv) = take(&va);
                    let ann = Mlp::train(&xt, &yt, &cfg.mlp);
                    let svm = train_svm(&xt, &yt, cfg);
                    let base: Vec<Box<dyn Regressor>> = vec![Box::new(ann), Box::new(svm)];
                    CornerModel::Hsm(Hsm::blend(base, &xv, &yv, 0.1))
                }
            };
            scalers.push(scaler);
            y_norm.push((mean, std));
            models.push(model);
        }
        DeltaLatencyModel {
            kind,
            scalers,
            y_norm,
            models,
        }
    }

    /// Convenience: build the dataset and fit in one step.
    pub fn train(lib: &Library, kind: ModelKind, cfg: &TrainConfig) -> Self {
        let ds = build_dataset(lib, cfg);
        Self::fit(&ds, kind, cfg)
    }

    /// Which learner backs this model.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predicted delta latency, ps, for raw (unscaled) features at
    /// `corner`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `corner` is out of range or `features` is not
    /// [`N_FEATURES`] wide.
    pub fn predict(&self, corner: CornerId, features: &[f64]) -> f64 {
        let z: [f64; N_FEATURES] = self.scalers[corner.0].transform_fixed(features);
        let (mean, std) = self.y_norm[corner.0];
        self.models[corner.0].predict(&z) * std + mean
    }
}

fn train_svm(xs: &[Vec<f64>], ys: &[f64], cfg: &TrainConfig) -> LsSvm {
    if xs.len() <= cfg.svm_max_samples {
        return LsSvm::train(xs, ys, cfg.svm_gamma, cfg.svm_c);
    }
    // deterministic stride subsample
    let stride = xs.len().div_ceil(cfg.svm_max_samples);
    let xi: Vec<Vec<f64>> = xs.iter().step_by(stride).cloned().collect();
    let yi: Vec<f64> = ys.iter().step_by(stride).copied().collect();
    LsSvm::train(&xi, &yi, cfg.svm_gamma, cfg.svm_c)
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use clk_liberty::StdCorners;
    use clk_ml::{mape, mse};

    fn lib() -> Library {
        Library::synthetic_28nm(StdCorners::c0_c1_c3())
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            n_cases: 8,
            moves_per_case: 14,
            mlp: MlpConfig {
                epochs: 60,
                ..MlpConfig::default()
            },
            ..TrainConfig::default()
        }
    }

    #[test]
    fn dataset_has_consistent_shapes() {
        let lib = lib();
        let ds = build_dataset(&lib, &tiny_cfg());
        assert_eq!(ds.per_corner.len(), 3);
        for cd in &ds.per_corner {
            assert!(!cd.x.is_empty());
            assert_eq!(cd.x.len(), cd.y.len());
            assert!(cd.x.iter().all(|f| f.len() == N_FEATURES));
            assert!(cd.x.iter().flatten().all(|v| v.is_finite()));
            assert!(cd.y.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn analytic_estimates_correlate_with_golden() {
        let lib = lib();
        let ds = build_dataset(&lib, &tiny_cfg());
        // feature 0 is the FLUTE×Elmore estimate: it should correlate
        // positively with the golden target
        let cd = &ds.per_corner[0];
        let est: Vec<f64> = cd.x.iter().map(|f| f[0]).collect();
        let n = est.len() as f64;
        let me = est.iter().sum::<f64>() / n;
        let my = cd.y.iter().sum::<f64>() / n;
        let cov: f64 = est
            .iter()
            .zip(&cd.y)
            .map(|(a, b)| (a - me) * (b - my))
            .sum();
        let va: f64 = est.iter().map(|a| (a - me) * (a - me)).sum();
        let vb: f64 = cd.y.iter().map(|b| (b - my) * (b - my)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt() + 1e-12);
        assert!(corr > 0.5, "corr = {corr}");
    }

    #[test]
    fn trained_model_beats_raw_analytical() {
        let lib = lib();
        let cfg = tiny_cfg();
        let ds = build_dataset(&lib, &cfg);
        // train/test split per corner 0
        let cd = &ds.per_corner[0];
        let n = cd.x.len();
        let cut = n * 4 / 5;
        let train = Dataset {
            per_corner: vec![CornerData {
                x: cd.x[..cut].to_vec(),
                y: cd.y[..cut].to_vec(),
                lat: cd.lat[..cut].to_vec(),
            }],
        };
        let model = DeltaLatencyModel::fit(&train, ModelKind::Hsm, &cfg);
        let pred: Vec<f64> = cd.x[cut..]
            .iter()
            .map(|f| model.predict(CornerId(0), f))
            .collect();
        let analytic: Vec<f64> = cd.x[cut..].iter().map(|f| f[0]).collect();
        let truth = &cd.y[cut..];
        let m_model = mse(&pred, truth);
        let m_analytic = mse(&analytic, truth);
        assert!(
            m_model < m_analytic * 1.5,
            "model mse {m_model} vs analytic {m_analytic}"
        );
        // Fig. 5's metric: error relative to the reconstructed latency
        // (latency + delta), which is what the paper's 2.8% refers to
        let lat = &cd.lat[cut..];
        let rel: f64 = pred
            .iter()
            .zip(truth)
            .zip(lat)
            .map(|((p, t), l)| ((p - t) / (l + t)).abs())
            .sum::<f64>()
            / pred.len() as f64;
        assert!(rel < 0.25, "latency-relative error {:.1}%", 100.0 * rel);
        // raw-delta MAPE is noisy (near-zero deltas blow up the ratio
        // even under the 1 ps floor) but should stay bounded
        let e = mape(&pred, truth, 1.0);
        assert!(e < 600.0, "mape {e}%");
    }

    #[test]
    fn predict_is_deterministic() {
        let lib = lib();
        let cfg = tiny_cfg();
        let ds = build_dataset(&lib, &cfg);
        let m1 = DeltaLatencyModel::fit(&ds, ModelKind::Ann, &cfg);
        let m2 = DeltaLatencyModel::fit(&ds, ModelKind::Ann, &cfg);
        let x = &ds.per_corner[1].x[0];
        assert_eq!(m1.predict(CornerId(1), x), m2.predict(CornerId(1), x));
    }
}
