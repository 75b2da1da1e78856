//! Delta-latency prediction (paper §4.2): analytical estimators over
//! {FLUTE, single-trunk Steiner} × {Elmore, D2M}, and machine-learning
//! models (ANN / SVM-RBF / HSM) trained per corner on artificial
//! testcases to close the gap to the golden timer.
//!
//! The four analytical estimates share almost all of their work:
//! routing depends on neither the corner nor the wire model, and one
//! extraction per corner yields both wire models' delays. A move's
//! changed nets are therefore routed once per topology and extracted
//! once per (corner, topology), and the committed tree's own nets — the
//! "before" side of every estimate — come from a [`CommittedNets`]
//! built once per tree.

use clk_delay::{peri_slew, NetTiming, RcTree, WireModel};
use clk_geom::{um_to_dbu, Point, Rect};
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
    /// Both topologies, in feature order.
    const ALL: [Topo; 2] = [Topo::Flute, Topo::SingleTrunk];
}

/// Both wire models, in feature order: every `[_; 2]` of per-model
/// values below is indexed like this array.
const MODELS: [WireModel; 2] = [WireModel::Elmore, WireModel::D2m];

/// Fast per-net estimate: gate + estimated-topology wire delay to each
/// pin under each of [`MODELS`], with PERI slews (which do not depend
/// on the wire model).
#[derive(Debug)]
struct NetEst {
    pin_delay: [Vec<f64>; 2],
    pin_slew: Vec<f64>,
}

/// One net routed under one topology: the wire tree, each pin's node in
/// it and each pin's load. The route serves every corner.
struct RoutedNet {
    wt: WireTree,
    loads: Vec<(usize, f64)>,
}

impl RoutedNet {
    fn new(topo: Topo, drv_loc: Point, pins: &[(Point, f64)]) -> Self {
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

    /// Extracts the net at `corner` and reads both wire models from the
    /// one moment analysis.
    fn estimate(&self, lib: &Library, corner: CornerId, drv_cell: CellId, slew_in: f64) -> NetEst {
        // lumped extraction: this is the *fast* estimate, not golden
        let rct = RcTree::extract(&self.wt, lib.wire_rc(corner), &self.loads, 1.0e9);
        let nt = NetTiming::analyze(&rct);
        let load = nt.total_cap_ff();
        let gate = lib.gate_delay(drv_cell, corner, slew_in, load);
        let gslew = lib.gate_output_slew(drv_cell, corner, slew_in, load);
        let n = self.loads.len();
        let mut est = NetEst {
            pin_delay: [Vec::with_capacity(n), Vec::with_capacity(n)],
            pin_slew: Vec::with_capacity(n),
        };
        for &(w, _) in &self.loads {
            let rc_node = rct.rc_node_of_wire_node(w);
            for (m, model) in MODELS.into_iter().enumerate() {
                est.pin_delay[m].push(gate + nt.delay_ps(rc_node, model));
            }
            est.pin_slew
                .push(peri_slew(gslew, nt.wire_slew_ps(rc_node)));
        }
        est
    }
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

/// Per-model estimates of one move at one corner, indexed like
/// [`MODELS`].
type ModelPair = [MoveEstimate; 2];

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
    /// `nets[driver][corner][topo]`, indexed by node id; empty for
    /// nodes not covered.
    nets: Vec<Vec<[NetEst; 2]>>,
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
        let mut nets: Vec<Vec<[NetEst; 2]>> = (0..slots).map(|_| Vec::new()).collect();
        for d in drivers {
            let Some(cell) = tree.cell(d) else { continue };
            if tree.children(d).is_empty() {
                continue;
            }
            let pins = pins_of(tree, lib, d);
            let routes = Topo::ALL.map(|t| RoutedNet::new(t, tree.loc(d), &pins));
            nets[d.0 as usize] = corners
                .iter()
                .map(|&(corner, timing)| {
                    routes
                        .each_ref()
                        .map(|r| r.estimate(lib, corner, cell, timing.slew_ps(d)))
                })
                .collect();
        }
        CommittedNets {
            tree,
            lib,
            corners,
            nets,
        }
    }

    /// The committed net of `driver` at the `ci`-th corner.
    fn committed(&self, driver: NodeId, ci: usize, topo: Topo) -> &NetEst {
        &self.nets[driver.0 as usize][ci][topo as usize]
    }

    /// The model input of [`move_features`] for `mv` at every corner,
    /// each with the FLUTE×D2M [`MoveEstimate`], in corner order.
    pub fn features(&self, mv: &Move, cfg: &MoveConfig) -> Vec<(Vec<f64>, MoveEstimate)> {
        let flute = self.estimates(mv, cfg, Topo::Flute);
        let trunk = self.estimates(mv, cfg, Topo::SingleTrunk);
        let tail = descriptor_features(self.tree, self.lib, mv, cfg);
        flute
            .into_iter()
            .zip(trunk)
            .map(|([fe, fd], [te, td])| {
                let mut f = Vec::with_capacity(N_FEATURES);
                f.extend([fe.primary_delta, fd.primary_delta]);
                f.extend([te.primary_delta, td.primary_delta]);
                f.extend_from_slice(&tail);
                debug_assert_eq!(f.len(), N_FEATURES);
                (f, fd)
            })
            .collect()
    }

    /// Per-corner estimates of `mv` under `topo`.
    fn estimates(&self, mv: &Move, cfg: &MoveConfig, topo: Topo) -> Vec<ModelPair> {
        let (tree, lib) = (self.tree, self.lib);
        let step = um_to_dbu(cfg.displace_um);
        match *mv {
            Move::SizeDisplace { node, dir, resize } => {
                let new_loc = match dir {
                    Some(d) => tree.loc(node).step(d, step),
                    None => tree.loc(node),
                };
                let old_cell = tree.cell(node).expect("buffer");
                let new_cell = resized(lib, old_cell, resize);
                self.driver_change(node, new_loc, new_cell, &[], topo)
            }
            Move::ChildSize {
                node,
                dir,
                child,
                child_resize,
            } => {
                let new_loc = tree.loc(node).step(dir, step);
                let cell = tree.cell(node).expect("buffer");
                let child_cell = tree.cell(child).expect("buffer child");
                let new_child_cell = resized(lib, child_cell, child_resize);
                self.driver_change(node, new_loc, cell, &[(child, new_child_cell)], topo)
            }
            Move::Reassign { node, new_parent } => self.reassign(node, new_parent, topo),
        }
    }

    /// Type III: `node` leaves its driver's net and joins
    /// `new_parent`'s.
    fn reassign(&self, node: NodeId, new_parent: NodeId, topo: Topo) -> Vec<ModelPair> {
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
        let new_net = RoutedNet::new(topo, tree.loc(new_parent), &new_pins);
        // old driver's net without `node`
        let rem_net = (old_kids.len() > 1).then(|| {
            let remaining: Vec<(Point, f64)> = pins_of(tree, lib, p)
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| i != idx)
                .map(|(_, pin)| pin)
                .collect();
            RoutedNet::new(topo, tree.loc(p), &remaining)
        });
        let p_cell = tree.cell(p).expect("driver");
        let np_cell = tree.cell(new_parent).expect("driver");
        let last = new_pins.len() - 1;
        self.corners
            .iter()
            .enumerate()
            .map(|(ci, &(corner, timing))| {
                let est_old = self.committed(p, ci, topo);
                let est_new = new_net.estimate(lib, corner, np_cell, timing.slew_ps(new_parent));
                let est_rem = rem_net
                    .as_ref()
                    .map(|r| r.estimate(lib, corner, p_cell, timing.slew_ps(p)));
                let est_prior = (last > 0).then(|| self.committed(new_parent, ci, topo));
                std::array::from_fn(|m| {
                    let primary_delta = (timing.arrival_ps(new_parent) - timing.arrival_ps(p))
                        + (est_new.pin_delay[m][last] - est_old.pin_delay[m][idx]);
                    // side effects: old siblings speed up, new siblings
                    // slow down
                    let mut side = Vec::new();
                    if let Some(rem) = &est_rem {
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
            })
            .collect()
    }

    /// Shared path for type I/II: driver `node` moves to `new_loc` with
    /// `new_cell`; `child_changes` lists child resizes.
    fn driver_change(
        &self,
        node: NodeId,
        new_loc: Point,
        new_cell: CellId,
        child_changes: &[(NodeId, CellId)],
        topo: Topo,
    ) -> Vec<ModelPair> {
        let (tree, lib) = (self.tree, self.lib);
        let new_cell_of = |c: NodeId| {
            child_changes
                .iter()
                .find(|&&(cc, _)| cc == c)
                .map(|&(_, cell)| cell)
        };
        // stage 0: the parent's net sees node's pin move / recap
        let stage0 = tree.parent(node).map(|p| {
            let mut after = pins_of(tree, lib, p);
            let idx = tree
                .children(p)
                .iter()
                .position(|&c| c == node)
                .expect("node under p");
            after[idx] = (new_loc, lib.cell(new_cell).input_cap_ff);
            let net = RoutedNet::new(topo, tree.loc(p), &after);
            (p, tree.cell(p).expect("driver"), idx, net)
        });
        // stage 1: node's own net
        let children = tree.children(node);
        let stage1 = (!children.is_empty()).then(|| {
            let after: Vec<(Point, f64)> = children
                .iter()
                .map(|&c| {
                    let cap = new_cell_of(c)
                        .map_or_else(|| pin_cap(tree, lib, c), |cell| lib.cell(cell).input_cap_ff);
                    (tree.loc(c), cap)
                })
                .collect();
            RoutedNet::new(topo, new_loc, &after)
        });
        self.corners
            .iter()
            .enumerate()
            .map(|(ci, &(corner, timing))| {
                let (d1, slew_shift, mut parent_side) = match &stage0 {
                    None => ([0.0; 2], 0.0, [Vec::new(), Vec::new()]),
                    Some((p, p_cell, idx, net)) => {
                        let eb = self.committed(*p, ci, topo);
                        let ea = net.estimate(lib, corner, *p_cell, timing.slew_ps(*p));
                        let side = std::array::from_fn(|m| {
                            let siblings = tree.children(*p).iter().enumerate();
                            siblings
                                .filter(|&(i, _)| i != *idx)
                                .map(|(i, &c)| (c, ea.pin_delay[m][i] - eb.pin_delay[m][i]))
                                .collect()
                        });
                        (
                            std::array::from_fn(|m| ea.pin_delay[m][*idx] - eb.pin_delay[m][*idx]),
                            ea.pin_slew[*idx] - eb.pin_slew[*idx],
                            side,
                        )
                    }
                };
                let Some(net) = &stage1 else {
                    return std::array::from_fn(|m| MoveEstimate {
                        primary_delta: d1[m],
                        per_child: vec![(node, d1[m])],
                        side_effects: std::mem::take(&mut parent_side[m]),
                    });
                };
                let s_live = timing.slew_ps(node);
                let eb = self.committed(node, ci, topo);
                let ea = net.estimate(lib, corner, new_cell, (s_live + slew_shift).max(1.0));
                // each child's stage-2 gate-delay change (the slews do
                // not depend on the wire model)
                let d3: Vec<f64> = children
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let NodeKind::Buffer(c_cell) = tree.node(c).kind else {
                            return 0.0;
                        };
                        let load = timing.load_ff(c);
                        let new_cell_c = new_cell_of(c).unwrap_or(c_cell);
                        let g_b = lib.gate_delay(c_cell, corner, eb.pin_slew[i], load);
                        let g_a = lib.gate_delay(new_cell_c, corner, ea.pin_slew[i], load);
                        g_a - g_b
                    })
                    .collect();
                std::array::from_fn(|m| {
                    // per-child deltas: shift at the driver input (d1) +
                    // this child's own net-delay change + its stage-2
                    // gate-delay change
                    let per_child: Vec<(NodeId, f64)> = children
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            let d2_i = ea.pin_delay[m][i] - eb.pin_delay[m][i];
                            (c, d1[m] + d2_i + d3[i])
                        })
                        .collect();
                    let primary_delta =
                        per_child.iter().map(|&(_, d)| d).sum::<f64>() / children.len() as f64;
                    MoveEstimate {
                        primary_delta,
                        per_child,
                        side_effects: std::mem::take(&mut parent_side[m]),
                    }
                })
            })
            .collect()
    }
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

/// The corner-independent features: fanout, bounding box and move
/// descriptors.
fn descriptor_features(tree: &ClockTree, lib: &Library, mv: &Move, cfg: &MoveConfig) -> [f64; 6] {
    let node = mv.primary_node();
    let children = tree.children(node);
    let mut pts: Vec<Point> = children.iter().map(|&c| tree.loc(c)).collect();
    pts.push(tree.loc(node));
    let bbox = Rect::bounding(&pts).expect("non-empty");
    // move descriptors: drive delta, displacement, child-cap delta
    let (ddrive, dist, dcap) = match *mv {
        Move::SizeDisplace { node, dir, resize } => {
            let c = tree.cell(node).expect("buffer");
            let nc = resized(lib, c, resize);
            (
                lib.cell(nc).drive - lib.cell(c).drive,
                if dir.is_some() { cfg.displace_um } else { 0.0 },
                lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
            )
        }
        Move::ChildSize {
            child,
            child_resize,
            ..
        } => {
            let c = tree.cell(child).expect("buffer");
            let nc = resized(lib, c, child_resize);
            (
                lib.cell(nc).drive - lib.cell(c).drive,
                cfg.displace_um,
                lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
            )
        }
        Move::Reassign { node, new_parent } => {
            let p = tree.parent(node).expect("non-root");
            (0.0, tree.loc(new_parent).manhattan_um(tree.loc(p)), 0.0)
        }
    };
    [
        children.len() as f64,
        bbox.area_um2() / 1_000.0,
        bbox.aspect_ratio(),
        ddrive,
        dist,
        dcap,
    ]
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
    /// `corner`.
    ///
    /// # Panics
    ///
    /// Panics if `corner` is out of range.
    pub fn predict(&self, corner: CornerId, features: &[f64]) -> f64 {
        let z = self.scalers[corner.0].transform(features);
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
