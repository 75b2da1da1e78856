//! Per-corner propagation of arrivals and slews through the clock tree.

use clk_delay::{peri_slew, NetTiming, RcTree, WireModel};
use clk_liberty::{CornerId, Library};
use clk_netlist::{ArcSet, ClockTree, NodeId, NodeKind};
use clk_obs::{Deadline, Obs};
use clk_route::WireTree;
use std::sync::OnceLock;

/// The single place the documented panicking wrappers are allowed to
/// abort from; everything else in the crate must return [`TimingError`].
#[cold]
#[allow(clippy::panic)]
fn die(e: TimingError) -> ! {
    panic!("{e}")
}

/// Most corners one incremental walk times together: one bit each in
/// its masks. The libraries here have three or four.
const MASK_CORNERS: usize = 64;

/// The per-node values of an id no analysis has timed: NaN arrival,
/// slew and wire values, 0 load (see [`CornerTiming::slot`]).
const UNSET_SLOT: [f64; 5] = [f64::NAN, f64::NAN, 0.0, f64::NAN, f64::NAN];

/// Corner ids whose `sta.corner.{id}.nodes_timed` key is formatted
/// once per process; the libraries here have three or four corners.
const KEYED_CORNERS: usize = 16;

/// The `sta.corner.{id}.nodes_timed` key of `corner` if its id is below
/// [`KEYED_CORNERS`]. Timers are built per candidate move, so the keys
/// are shared by every timer instead of formatted per analysis.
fn corner_nodes_key(corner: CornerId) -> Option<&'static str> {
    static KEYS: OnceLock<Vec<String>> = OnceLock::new();
    KEYS.get_or_init(|| {
        (0..KEYED_CORNERS)
            .map(|i| format!("sta.corner.{i}.nodes_timed"))
            .collect()
    })
    .get(corner.0)
    .map(String::as_str)
}

/// Timing-analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerOptions {
    /// Wire delay metric.
    pub wire_model: WireModel,
    /// Maximum RC segment length, µm (small = signoff-accurate, huge =
    /// lumped fast estimate).
    pub seg_max_um: f64,
    /// Transition of the ideal clock at the source input, ps.
    pub source_slew_ps: f64,
}

impl Default for TimerOptions {
    fn default() -> Self {
        TimerOptions {
            wire_model: WireModel::D2m,
            seg_max_um: 5.0,
            source_slew_ps: 20.0,
        }
    }
}

/// A slew or load design-rule violation found during analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Input transition at the node exceeded the library limit.
    MaxSlew {
        /// Node whose input slew violates.
        node: NodeId,
        /// Observed slew, ps.
        slew_ps: f64,
        /// Library limit, ps.
        limit_ps: f64,
    },
    /// The driver's load exceeded the cell's max capacitance.
    MaxCap {
        /// Driving node.
        node: NodeId,
        /// Observed load, fF.
        load_ff: f64,
        /// Cell limit, fF.
        limit_ff: f64,
    },
}

/// Errors from the fallible analysis entry points ([`Timer::try_analyze`],
/// [`CornerTiming::try_arrival_ps`], ...). The panicking variants keep
/// their historical behaviour by delegating to these and unwrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// A node with fanout is neither a source nor a buffer, so it has no
    /// driving cell (structurally corrupt tree).
    NoDriverCell(NodeId),
    /// A non-root node carries no route, so its net cannot be extracted.
    MissingRoute(NodeId),
    /// A source node appeared as somebody's child.
    SourceHasParent(NodeId),
    /// A queried arrival or slew is not finite (dead or unreachable node,
    /// or a numerically poisoned analysis).
    NonFinite {
        /// The node queried.
        node: NodeId,
        /// Which quantity was non-finite (`"arrival"` or `"slew"`).
        what: &'static str,
    },
    /// Propagation was cut by the timer's [`Deadline`] (see
    /// [`Timer::with_deadline`]); the partial analysis is discarded.
    Interrupted,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::NoDriverCell(n) => write!(f, "node {n} drives fanout but has no cell"),
            TimingError::MissingRoute(n) => write!(f, "non-root node {n} has no route"),
            TimingError::SourceHasParent(n) => write!(f, "source node {n} has a parent"),
            TimingError::NonFinite { node, what } => write!(f, "no finite {what} at {node}"),
            TimingError::Interrupted => {
                f.write_str("timing analysis interrupted by deadline or cancellation")
            }
        }
    }
}

impl std::error::Error for TimingError {}

/// The result of analyzing one corner: arrivals and slews at every node
/// input, loads at every driver, and net capacitance totals (for power).
///
/// It also keeps, per node, the wire delay and wire slew its driver's
/// net gave it. An incremental re-analysis reuses them for every net
/// the edit left alone, so only the edited nets are extracted again.
#[derive(Debug, Clone)]
pub struct CornerTiming {
    corner: CornerId,
    arrival_ps: Vec<f64>,
    slew_ps: Vec<f64>,
    load_ff: Vec<f64>,
    wire_delay_ps: Vec<f64>,
    wire_slew_ps: Vec<f64>,
    wire_cap_ff: f64,
    pin_cap_ff: f64,
    violations: Vec<Violation>,
}

impl CornerTiming {
    /// An analysis of `n` node ids with nothing timed yet: NaN arrival,
    /// slew and wire values, 0 load. These are also the values a full
    /// analysis leaves at dead and unreached ids.
    fn unset(corner: CornerId, n: usize) -> Self {
        CornerTiming {
            corner,
            arrival_ps: vec![f64::NAN; n],
            slew_ps: vec![f64::NAN; n],
            load_ff: vec![0.0; n],
            wire_delay_ps: vec![f64::NAN; n],
            wire_slew_ps: vec![f64::NAN; n],
            wire_cap_ff: 0.0,
            pin_cap_ff: 0.0,
            violations: Vec::new(),
        }
    }

    /// Resizes every per-node array to `n` ids, filling new ids with the
    /// [`CornerTiming::unset`] values.
    fn resize(&mut self, n: usize) {
        self.arrival_ps.resize(n, f64::NAN);
        self.slew_ps.resize(n, f64::NAN);
        self.load_ff.resize(n, 0.0);
        self.wire_delay_ps.resize(n, f64::NAN);
        self.wire_slew_ps.resize(n, f64::NAN);
    }

    /// Node `i`'s five per-node values: arrival, slew, load, wire delay
    /// and wire slew.
    fn slot(&self, i: usize) -> [f64; 5] {
        [
            self.arrival_ps[i],
            self.slew_ps[i],
            self.load_ff[i],
            self.wire_delay_ps[i],
            self.wire_slew_ps[i],
        ]
    }

    /// Writes node `i`'s five per-node values, as [`CornerTiming::slot`]
    /// reads them.
    fn set_slot(&mut self, i: usize, [a, s, l, wd, ws]: [f64; 5]) {
        self.arrival_ps[i] = a;
        self.slew_ps[i] = s;
        self.load_ff[i] = l;
        self.wire_delay_ps[i] = wd;
        self.wire_slew_ps[i] = ws;
    }

    /// Whether `self` and `other` agree bit for bit: every per-node
    /// array (NaN slots must match as NaN), both capacitance totals and
    /// the violation list. This is the contract an incremental
    /// re-analysis keeps against a full one.
    pub fn bit_identical(&self, other: &CornerTiming) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.corner == other.corner
            && same(&self.arrival_ps, &other.arrival_ps)
            && same(&self.slew_ps, &other.slew_ps)
            && same(&self.load_ff, &other.load_ff)
            && same(&self.wire_delay_ps, &other.wire_delay_ps)
            && same(&self.wire_slew_ps, &other.wire_slew_ps)
            && self.wire_cap_ff.to_bits() == other.wire_cap_ff.to_bits()
            && self.pin_cap_ff.to_bits() == other.pin_cap_ff.to_bits()
            && self.violations == other.violations
    }

    /// The corner this analysis ran at.
    pub fn corner(&self) -> CornerId {
        self.corner
    }

    /// Arrival time (clock latency) at the node's input pin, ps.
    ///
    /// # Panics
    ///
    /// Panics if the node was dead or unreachable during analysis.
    pub fn arrival_ps(&self, id: NodeId) -> f64 {
        match self.try_arrival_ps(id) {
            Ok(v) => v,
            Err(e) => die(e),
        }
    }

    /// Fallible variant of [`CornerTiming::arrival_ps`].
    ///
    /// # Errors
    ///
    /// [`TimingError::NonFinite`] if the node was dead or unreachable
    /// during analysis.
    pub fn try_arrival_ps(&self, id: NodeId) -> Result<f64, TimingError> {
        let v = self.arrival_ps[id.0 as usize];
        if v.is_finite() {
            Ok(v)
        } else {
            Err(TimingError::NonFinite {
                node: id,
                what: "arrival",
            })
        }
    }

    /// Input transition at the node, ps.
    ///
    /// # Panics
    ///
    /// Panics if the node was dead or unreachable during analysis.
    pub fn slew_ps(&self, id: NodeId) -> f64 {
        match self.try_slew_ps(id) {
            Ok(v) => v,
            Err(e) => die(e),
        }
    }

    /// Fallible variant of [`CornerTiming::slew_ps`].
    ///
    /// # Errors
    ///
    /// [`TimingError::NonFinite`] if the node was dead or unreachable
    /// during analysis.
    pub fn try_slew_ps(&self, id: NodeId) -> Result<f64, TimingError> {
        let v = self.slew_ps[id.0 as usize];
        if v.is_finite() {
            Ok(v)
        } else {
            Err(TimingError::NonFinite {
                node: id,
                what: "slew",
            })
        }
    }

    /// Load capacitance a driving node sees (0 for sinks), fF.
    pub fn load_ff(&self, id: NodeId) -> f64 {
        self.load_ff[id.0 as usize]
    }

    /// Maximum sink latency, ps.
    pub fn max_latency_ps(&self, tree: &ClockTree) -> f64 {
        tree.sinks().map(|s| self.arrival_ps(s)).fold(0.0, f64::max)
    }

    /// Total routed wire capacitance of the tree at this corner, fF.
    pub fn wire_cap_ff(&self) -> f64 {
        self.wire_cap_ff
    }

    /// Total receiver pin capacitance, fF.
    pub fn pin_cap_ff(&self) -> f64 {
        self.pin_cap_ff
    }

    /// Design-rule violations observed during propagation.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// The timing engine. Create with [`Timer::golden`] for signoff-accurate
/// settings or [`Timer::new`] with custom options.
#[derive(Debug, Clone, Default)]
pub struct Timer {
    opts: TimerOptions,
    obs: Obs,
    deadline: Deadline,
}

impl Timer {
    /// A timer with explicit options.
    pub fn new(opts: TimerOptions) -> Self {
        Timer {
            opts,
            obs: Obs::disabled(),
            deadline: Deadline::none(),
        }
    }

    /// The signoff configuration: D2M on 5 µm-segmented parasitics.
    pub fn golden() -> Self {
        Timer::default()
    }

    /// Attaches an observability pipeline: every analysis, full or
    /// cone-incremental, then updates the `sta.analyzes` /
    /// `sta.nodes_timed` / `sta.violations` counters (full analyses also
    /// the `sta.analyze.ms` histogram). A disabled pipeline (the
    /// default) costs one branch per analysis.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Makes every analysis interruptible: propagation polls `deadline`
    /// once per driver net and returns [`TimingError::Interrupted`] on
    /// expiry, discarding the partial corner. The default timer carries
    /// the inert deadline (polling costs one branch). Callers that need
    /// reproducible results across runs (e.g. parallel candidate
    /// workers) should keep the default rather than share a deadline
    /// whose observation order is racy.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The options in use.
    pub fn options(&self) -> TimerOptions {
        self.opts
    }

    /// Analyzes `tree` at `corner`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is structurally corrupt (fanout without a
    /// driving cell, or a non-root node without a route). Use
    /// [`Timer::try_analyze`] to get a [`TimingError`] instead.
    pub fn analyze(&self, tree: &ClockTree, lib: &Library, corner: CornerId) -> CornerTiming {
        match self.try_analyze(tree, lib, corner) {
            Ok(t) => t,
            Err(e) => die(e),
        }
    }

    /// Fallible variant of [`Timer::analyze`].
    ///
    /// # Errors
    ///
    /// [`TimingError`] when the tree cannot be timed: a node with fanout
    /// has no driving cell, a non-root node carries no route, or a source
    /// appears as a child.
    pub fn try_analyze(
        &self,
        tree: &ClockTree,
        lib: &Library,
        corner: CornerId,
    ) -> Result<CornerTiming, TimingError> {
        if !self.obs.enabled() {
            return self.analyze_inner(tree, lib, corner);
        }
        let _prof = self.obs.prof_scope("sta.analyze");
        let start = clk_obs::wall_now();
        let result = self.analyze_inner(tree, lib, corner);
        self.obs
            .observe("sta.analyze.ms", start.elapsed().as_secs_f64() * 1e3);
        // a full walk re-times every reachable node
        let nodes_timed = result
            .as_ref()
            .map_or(0, |t| t.arrival_ps.iter().filter(|a| a.is_finite()).count());
        self.count_analysis(corner, result.as_ref().ok(), nodes_timed);
        result
    }

    /// Counts one analysis of `corner` that re-timed `nodes_timed`
    /// nodes, or failed (`timing` is `None`). Reads no clock: the local
    /// phase's workers count their analyses here concurrently, and the
    /// sums do not depend on the order they finish in.
    fn count_analysis(&self, corner: CornerId, timing: Option<&CornerTiming>, nodes_timed: usize) {
        self.obs.count("sta.analyzes", 1);
        match timing {
            Some(t) => {
                if !t.violations.is_empty() {
                    self.obs.count("sta.violations", t.violations.len() as u64);
                }
                // per-eval propagation stats: how much of the tree this
                // corner's walk re-timed
                let nodes_timed = nodes_timed as u64;
                self.obs.count("sta.nodes_timed", nodes_timed);
                match corner_nodes_key(corner) {
                    Some(key) => self.obs.count(key, nodes_timed),
                    None => self
                        .obs
                        .count(&format!("sta.corner.{}.nodes_timed", corner.0), nodes_timed),
                }
                self.obs.observe("sta.eval.nodes", nodes_timed as f64);
            }
            None => self.obs.count("sta.analyze.errors", 1),
        }
    }

    fn analyze_inner(
        &self,
        tree: &ClockTree,
        lib: &Library,
        corner: CornerId,
    ) -> Result<CornerTiming, TimingError> {
        let mut out = CornerTiming::unset(corner, id_range(tree));
        let root = tree.root();
        out.arrival_ps[root.0 as usize] = 0.0;
        out.slew_ps[root.0 as usize] = self.opts.source_slew_ps;

        let wire_rc = lib.wire_rc(corner);

        // Preorder walk: parents are timed before children.
        let mut net = NetBuffers::default();
        let mut stack = vec![root];
        while let Some(d) = stack.pop() {
            // cooperative cancellation: one poll per driver net bounds
            // the ack latency to a single net's extraction + analysis
            if self.deadline.expired() {
                return Err(TimingError::Interrupted);
            }
            if tree.children(d).is_empty() {
                continue;
            }
            build_net(tree, lib, d, &mut net)?;
            self.extract_net(wire_rc, d, &mut out, &mut net);
            drive_net(tree, lib, corner, d, &mut out)?;
            stack.extend_from_slice(tree.children(d));
        }
        assemble(tree, lib, std::slice::from_mut(&mut out), None)?;
        Ok(out)
    }

    /// Extracts the net [`build_net`] left in `net` at `wire_rc` and
    /// writes `load_ff[d]` and the children's wire delays and slews into
    /// `out`; [`drive_net`] then times the gate. Aggregates (caps,
    /// violations) are deliberately NOT updated here — [`assemble`]
    /// recomputes them in one canonical walk so the full and incremental
    /// paths produce bit-identical results.
    fn extract_net(
        &self,
        wire_rc: clk_liberty::WireRc,
        d: NodeId,
        out: &mut CornerTiming,
        net: &mut NetBuffers,
    ) {
        let NetBuffers {
            wt,
            rct,
            nt,
            ends,
            loads,
        } = net;
        rct.extract_into(wt, wire_rc, loads, self.opts.seg_max_um);
        nt.analyze_into(rct);
        out.load_ff[d.0 as usize] = nt.total_cap_ff();
        for &(c, wnode) in ends.iter() {
            let rc_node = rct.rc_node_of_wire_node(wnode);
            out.wire_delay_ps[c.0 as usize] = nt.delay_ps(rc_node, self.opts.wire_model);
            out.wire_slew_ps[c.0 as usize] = nt.wire_slew_ps(rc_node);
        }
    }

    /// Cone-limited incremental re-analysis: starting from a previous
    /// analysis `prev` of the tree before an edit, re-times only the
    /// `dirty` driver nets (see `clk-core`'s `touched_drivers`) and the
    /// cone below them where arrivals or slews actually changed. A copy
    /// of `prev` advanced by [`Timer::try_advance_all`]; see there for
    /// the walk and its contract.
    ///
    /// # Errors
    ///
    /// Same contract as [`Timer::try_analyze`].
    pub fn try_analyze_incremental(
        &self,
        tree: &ClockTree,
        lib: &Library,
        prev: &CornerTiming,
        dirty: &[NodeId],
    ) -> Result<CornerTiming, TimingError> {
        let mut out = [prev.clone()];
        self.advance(tree, lib, &mut out, dirty, None)?;
        let [out] = out;
        Ok(out)
    }

    /// [`Timer::try_analyze_incremental`] across every corner of `prev`
    /// (one previous analysis per corner, as returned by
    /// [`Timer::try_analyze_all`]), in one walk.
    ///
    /// # Errors
    ///
    /// The first [`TimingError`] encountered, if any.
    pub fn try_analyze_all_incremental(
        &self,
        tree: &ClockTree,
        lib: &Library,
        prev: &[CornerTiming],
        dirty: &[NodeId],
    ) -> Result<Vec<CornerTiming>, TimingError> {
        let mut out = prev.to_vec();
        self.advance(tree, lib, &mut out, dirty, None)?;
        Ok(out)
    }

    /// Advances `timings`, analyses of the tree before an edit (one per
    /// corner), in place to analyses of `tree`, and records in `undo`
    /// what [`TimingUndo::rollback`] needs to take them back.
    ///
    /// Only the `dirty` driver nets (see `clk-core`'s `touched_drivers`)
    /// and the cone below them where arrivals or slews actually changed
    /// are re-timed, all corners in one walk. Descent prunes on
    /// bit-equality, per corner: a child is walked for exactly the
    /// corners whose arrival or slew there changed bits, since an
    /// untouched subtree whose head arrival/slew is bit-identical
    /// re-derives the exact same values. Each corner therefore times
    /// exactly the nodes a walk of that corner alone would, in the same
    /// order.
    ///
    /// Only a dirty driver's net, or a new driver's (an id past the
    /// corner's old range, or one it left untimed), is extracted again;
    /// its wire tree is built once and its RC tree and moments once per
    /// corner. Every other net in the cone reuses the load and the
    /// per-child wire delays and slews already in `timings`, and only its
    /// gate is re-timed for the new input slew, with the same
    /// expressions as a full analysis. One canonical walk then
    /// recomputes every corner's capacitance totals and violations. The
    /// result is therefore bit-identical to a full [`Timer::try_analyze`]
    /// of the edited tree — the property the parallel local phase's
    /// byte-stable QoR and the global phase's per-arc ECO check rest on —
    /// *provided* `dirty` names every driver whose children, child
    /// routes or child pin caps changed. A driver missing from it keeps
    /// its stale parasitics silently.
    ///
    /// The edit may grow or shrink the tree: the arrays are fitted to
    /// the new id range and removed ids are reset, so there is no
    /// fallback to a full analysis.
    ///
    /// With an attached pipeline each corner counts as one incremental
    /// analysis; a failed advance counts as one failed analysis. A
    /// deadline is polled once per driver net, for all corners.
    ///
    /// # Errors
    ///
    /// Same contract as [`Timer::try_analyze`]. On an error `timings`
    /// are left partly advanced, and `undo` still takes them back.
    ///
    /// # Panics
    ///
    /// Panics if `timings` holds more than 64 corners.
    pub fn try_advance_all(
        &self,
        tree: &ClockTree,
        lib: &Library,
        timings: &mut [CornerTiming],
        dirty: &[NodeId],
        undo: &mut TimingUndo,
    ) -> Result<(), TimingError> {
        undo.clear();
        self.advance(tree, lib, timings, dirty, Some(undo))
    }

    /// [`Timer::try_advance_all`] with an optional undo log, counted.
    fn advance(
        &self,
        tree: &ClockTree,
        lib: &Library,
        timings: &mut [CornerTiming],
        dirty: &[NodeId],
        undo: Option<&mut TimingUndo>,
    ) -> Result<(), TimingError> {
        // the walk keeps one bit per corner
        assert!(
            timings.len() <= MASK_CORNERS,
            "an incremental walk times at most {MASK_CORNERS} corners"
        );
        let mut nodes_timed = vec![0; timings.len()];
        let result = self.walk(tree, lib, timings, dirty, undo, &mut nodes_timed);
        if self.obs.enabled() {
            match result {
                Ok(()) => {
                    for (t, &n) in timings.iter().zip(&nodes_timed) {
                        self.obs.count("sta.analyze.incremental", 1);
                        self.count_analysis(t.corner, Some(t), n);
                    }
                }
                Err(_) => {
                    self.obs.count("sta.analyze.incremental", 1);
                    if let Some(t) = timings.first() {
                        self.count_analysis(t.corner, None, 0);
                    }
                }
            }
        }
        result
    }

    /// The cone walk of [`Timer::try_advance_all`] over at most
    /// [`MASK_CORNERS`] corners. Adds the nodes each corner re-times to
    /// `nodes_timed`.
    fn walk(
        &self,
        tree: &ClockTree,
        lib: &Library,
        timings: &mut [CornerTiming],
        dirty: &[NodeId],
        mut undo: Option<&mut TimingUndo>,
        nodes_timed: &mut [usize],
    ) -> Result<(), TimingError> {
        let n = timings.len();
        let all: u64 = u64::MAX >> (64 - n.max(1));
        let range = id_range(tree);
        if let Some(u) = undo.as_deref_mut() {
            u.lens.extend(timings.iter().map(|t| t.arrival_ps.len()));
        }
        // fit every array to the new id range and reset the dead ids
        for (k, t) in timings.iter_mut().enumerate() {
            if let Some(u) = undo.as_deref_mut() {
                u.slots
                    .extend((range..t.arrival_ps.len()).map(|i| (k, i, t.slot(i))));
            }
            t.resize(range);
        }
        for i in 0..range {
            let id = NodeId(i as u32);
            if tree.is_alive(id) {
                continue;
            }
            for (k, t) in timings.iter_mut().enumerate() {
                let unset = t
                    .slot(i)
                    .iter()
                    .zip(UNSET_SLOT)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !unset {
                    if let Some(u) = undo.as_deref_mut() {
                        u.slots.push((k, i, t.slot(i)));
                    }
                    t.set_slot(i, UNSET_SLOT);
                }
            }
        }
        let wire_rc: Vec<clk_liberty::WireRc> =
            timings.iter().map(|t| lib.wire_rc(t.corner)).collect();

        // The dirty drivers by (depth, id), each the head of a preorder
        // walk of the cone below it. A net is recomputed only after
        // every dirty ancestor net above it: a shallower dirty head
        // walks first, and inside a walk a net runs right after its
        // driver's. Its input arrival/slew are therefore final when it
        // runs. A non-dirty net is reached only from its driver's net,
        // so it runs at most once per corner; a dirty one that an
        // earlier walk reached at a corner is not walked again there.
        //
        // A stack entry is (driver, corners to time it at, corners at
        // which it was new: untimed before the advance). Only a
        // non-dirty driver reads the last; a dirty one is extracted at
        // every corner it is timed at.
        let live = tree.len();
        let mut heads: Vec<(u32, NodeId)> = dirty
            .iter()
            .filter_map(|&d| depth_of(tree, d, live).map(|dep| (dep, d)))
            .collect();
        heads.sort_unstable();
        heads.dedup();
        let mut walked: Vec<(NodeId, u64)> = Vec::with_capacity(heads.len());
        let mut stack: Vec<(NodeId, u64, u64)> = Vec::new();
        let mut before: Vec<(u64, u64)> = Vec::new();
        let mut net = NetBuffers::default();
        for (_, head) in heads {
            let done = walked
                .iter()
                .filter(|(w, _)| *w == head)
                .fold(0, |m, (_, mask)| m | mask);
            let active = all & !done;
            if active == 0 {
                continue;
            }
            stack.push((head, active, 0));
            while let Some((d, active, new)) = stack.pop() {
                if self.deadline.expired() {
                    return Err(TimingError::Interrupted);
                }
                let is_dirty = dirty.contains(&d);
                if is_dirty {
                    walked.push((d, active));
                }
                let children = tree.children(d);
                if children.is_empty() {
                    // a driver that lost its whole fanout (type-III
                    // surgery) no longer presents a load
                    for k in corners(active) {
                        let load = &mut timings[k].load_ff[d.0 as usize];
                        if let Some(u) = undo.as_deref_mut() {
                            u.loads.push((k, d, *load));
                        }
                        *load = 0.0;
                    }
                    continue;
                }
                before.clear();
                for &c in children {
                    let c = c.0 as usize;
                    before.extend(
                        timings
                            .iter()
                            .map(|t| (t.arrival_ps[c].to_bits(), t.slew_ps[c].to_bits())),
                    );
                }
                let extract = if is_dirty { active } else { new };
                if extract != 0 {
                    build_net(tree, lib, d, &mut net)?;
                }
                for k in corners(active) {
                    let t = &mut timings[k];
                    let net_new = extract & (1 << k) != 0;
                    if let Some(u) = undo.as_deref_mut() {
                        // the old values of exactly what this net writes
                        if net_new {
                            u.loads.push((k, d, t.load_ff[d.0 as usize]));
                            u.wires.extend(children.iter().map(|&c| {
                                let c = c.0 as usize;
                                (k, c, t.wire_delay_ps[c], t.wire_slew_ps[c])
                            }));
                        }
                        u.pins.extend(
                            children
                                .iter()
                                .enumerate()
                                .map(|(ci, &c)| (k, c.0 as usize, before[ci * n + k])),
                        );
                    }
                    if net_new {
                        self.extract_net(wire_rc[k], d, t, &mut net);
                    }
                    drive_net(tree, lib, t.corner, d, t)?;
                    nodes_timed[k] += children.len();
                }
                for (ci, &c) in children.iter().enumerate() {
                    let (mut changed, mut was_new) = (0u64, 0u64);
                    for k in corners(active) {
                        let (a0, s0) = before[ci * n + k];
                        let t = &timings[k];
                        if t.arrival_ps[c.0 as usize].to_bits() != a0
                            || t.slew_ps[c.0 as usize].to_bits() != s0
                        {
                            changed |= 1 << k;
                            if !f64::from_bits(a0).is_finite() {
                                was_new |= 1 << k;
                            }
                        }
                    }
                    if changed != 0 {
                        stack.push((c, changed, was_new));
                    }
                }
            }
        }
        assemble(tree, lib, timings, undo)
    }

    /// Analyzes every corner of `lib`, in corner order.
    ///
    /// # Panics
    ///
    /// Panics on structurally corrupt trees; see [`Timer::analyze`].
    pub fn analyze_all(&self, tree: &ClockTree, lib: &Library) -> Vec<CornerTiming> {
        lib.corner_ids()
            .map(|c| self.analyze(tree, lib, c))
            .collect()
    }

    /// Fallible variant of [`Timer::analyze_all`]: stops at the first
    /// corner that cannot be timed.
    ///
    /// # Errors
    ///
    /// The first [`TimingError`] encountered, if any.
    pub fn try_analyze_all(
        &self,
        tree: &ClockTree,
        lib: &Library,
    ) -> Result<Vec<CornerTiming>, TimingError> {
        lib.corner_ids()
            .map(|c| self.try_analyze(tree, lib, c))
            .collect()
    }
}

/// The buffers one analysis extracts its nets into, reused net after
/// net: the wire tree, its RC tree and moments, and the children's wire
/// nodes and pin loads.
struct NetBuffers {
    wt: WireTree,
    rct: RcTree,
    nt: NetTiming,
    ends: Vec<(NodeId, usize)>,
    loads: Vec<(usize, f64)>,
}

impl Default for NetBuffers {
    fn default() -> Self {
        let wt = WireTree::new(clk_geom::Point::new(0, 0));
        let rc = clk_liberty::WireRc {
            r_per_um: 0.0,
            c_per_um: 0.0,
        };
        let rct = RcTree::extract(&wt, rc, &[], 1.0);
        let nt = NetTiming::analyze(&rct);
        NetBuffers {
            wt,
            rct,
            nt,
            ends: Vec::new(),
            loads: Vec::new(),
        }
    }
}

/// One past the highest live node id: the length of a full analysis's
/// per-node arrays.
fn id_range(tree: &ClockTree) -> usize {
    tree.node_ids()
        .map(|id| id.0 as usize + 1)
        .max()
        .unwrap_or(1)
}

/// Builds driver `d`'s fanout wire tree from the routed paths into
/// `net`, with each child's wire node and pin load; [`Timer::extract_net`]
/// then extracts it at a corner.
fn build_net(
    tree: &ClockTree,
    lib: &Library,
    d: NodeId,
    net: &mut NetBuffers,
) -> Result<(), TimingError> {
    // a cell-less driver is reported before any of its routes
    tree.cell(d).ok_or(TimingError::NoDriverCell(d))?;
    let NetBuffers {
        wt, ends, loads, ..
    } = net;
    wt.reset(tree.loc(d));
    ends.clear();
    loads.clear();
    for &c in tree.children(d) {
        let route = tree
            .node(c)
            .route
            .as_ref()
            .ok_or(TimingError::MissingRoute(c))?;
        let mut prev = WireTree::ROOT;
        for &p in &route.points()[1..] {
            prev = wt.add_child(prev, p);
        }
        let pin_cap = match tree.node(c).kind {
            NodeKind::Buffer(cc) => lib.cell(cc).input_cap_ff,
            NodeKind::Sink => lib.sink_cap_ff(),
            NodeKind::Source => return Err(TimingError::SourceHasParent(c)),
        };
        ends.push((c, prev));
        loads.push((prev, pin_cap));
    }
    Ok(())
}

/// Times driver `d`'s gate from its input arrival/slew and the load and
/// per-child wire values already in `out`, and writes its children's
/// arrivals and slews. A full analysis calls it after extracting the
/// net; an incremental re-analysis calls it directly for a net the edit
/// left alone.
fn drive_net(
    tree: &ClockTree,
    lib: &Library,
    corner: CornerId,
    d: NodeId,
    out: &mut CornerTiming,
) -> Result<(), TimingError> {
    let cell = tree.cell(d).ok_or(TimingError::NoDriverCell(d))?;
    let t_in = out.arrival_ps[d.0 as usize];
    let s_in = out.slew_ps[d.0 as usize];
    let load = out.load_ff[d.0 as usize];
    let (gate_delay, gate_slew) = lib.gate_timing(cell, corner, s_in, load);
    for &c in tree.children(d) {
        let c = c.0 as usize;
        out.arrival_ps[c] = t_in + gate_delay + out.wire_delay_ps[c];
        out.slew_ps[c] = peri_slew(gate_slew, out.wire_slew_ps[c]);
    }
    Ok(())
}

/// Depth of `n` below the root (root = 0); `None` if `n` is dead or the
/// parent chain is broken (node not attached to this tree). `live` is
/// the tree's live node count, which bounds the depth of a tree without
/// a cycle.
fn depth_of(tree: &ClockTree, n: NodeId, live: usize) -> Option<u32> {
    if !tree.is_alive(n) {
        return None;
    }
    let mut d = 0u32;
    let mut cur = n;
    while let Some(p) = tree.parent(cur) {
        d += 1;
        cur = p;
        if d as usize > live {
            return None; // cycle guard; validated trees never hit this
        }
    }
    (cur == tree.root()).then_some(d)
}

/// The corners whose bits are set in `mask`, ascending.
fn corners(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// What takes analyses advanced by [`Timer::try_advance_all`] back to
/// where they were: each corner's array length before the advance, the
/// old value of every per-node field the advance overwrote, and the old
/// capacitance totals and violations. Recording costs one copy per
/// value the walk writes, instead of a copy of every analysis.
///
/// Each log below holds one group of fields, entries in write order and
/// tagged with the corner's index in the advanced slice. A field is in
/// one group only, so replaying each log newest first restores every
/// field's oldest value.
#[derive(Debug, Default)]
pub struct TimingUndo {
    /// Per corner, the per-node array length before the advance.
    lens: Vec<usize>,
    /// All five values of the ids the fit to the new range reset or cut
    /// off; the walk never reaches these.
    slots: Vec<(usize, usize, [f64; 5])>,
    /// The loads of re-extracted drivers and of drivers that lost their
    /// fanout.
    loads: Vec<(usize, NodeId, f64)>,
    /// The wire delays and slews of re-extracted nets' children.
    wires: Vec<(usize, usize, f64, f64)>,
    /// The arrival and slew bits of re-timed gates' children.
    pins: Vec<(usize, usize, (u64, u64))>,
    /// Per corner, the old wire and pin capacitance and violations.
    aggregates: Vec<(f64, f64, Vec<Violation>)>,
}

impl TimingUndo {
    /// Forgets everything recorded.
    fn clear(&mut self) {
        self.lens.clear();
        self.slots.clear();
        self.loads.clear();
        self.wires.clear();
        self.pins.clear();
        self.aggregates.clear();
    }

    /// Takes `timings` (the slice the advance was given) back to where
    /// they were before the recorded [`Timer::try_advance_all`], bit for
    /// bit, and empties the log. Rolling back an empty log is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `timings` holds fewer corners than the advance did.
    pub fn rollback(&mut self, timings: &mut [CornerTiming]) {
        // grow back whatever the advance cut off, replay the writes
        // newest first, then cut off whatever it added
        for (t, &len) in timings.iter_mut().zip(&self.lens) {
            if t.arrival_ps.len() < len {
                t.resize(len);
            }
        }
        for &(k, c, (a, s)) in self.pins.iter().rev() {
            timings[k].arrival_ps[c] = f64::from_bits(a);
            timings[k].slew_ps[c] = f64::from_bits(s);
        }
        for &(k, c, delay, slew) in self.wires.iter().rev() {
            timings[k].wire_delay_ps[c] = delay;
            timings[k].wire_slew_ps[c] = slew;
        }
        for &(k, d, load) in self.loads.iter().rev() {
            timings[k].load_ff[d.0 as usize] = load;
        }
        for &(k, i, old) in self.slots.iter().rev() {
            timings[k].set_slot(i, old);
        }
        for (t, &len) in timings.iter_mut().zip(&self.lens) {
            t.resize(len);
        }
        for (t, (wire, pin, violations)) in timings.iter_mut().zip(self.aggregates.drain(..)) {
            t.wire_cap_ff = wire;
            t.pin_cap_ff = pin;
            t.violations = violations;
        }
        self.clear();
    }
}

/// Recomputes the aggregate results — total wire/pin capacitance and
/// the violation list — of every analysis in `timings` from its per-node
/// arrays in one canonical preorder walk, each with its own
/// accumulators. Both the full and the incremental analysis end with
/// this pass, so their float summation order and violation order are
/// identical by construction (the bit-stability contract of
/// [`Timer::try_advance_all`]). `undo` keeps the old aggregates.
fn assemble(
    tree: &ClockTree,
    lib: &Library,
    timings: &mut [CornerTiming],
    undo: Option<&mut TimingUndo>,
) -> Result<(), TimingError> {
    if let Some(u) = undo {
        u.aggregates.extend(timings.iter_mut().map(|t| {
            (
                t.wire_cap_ff,
                t.pin_cap_ff,
                std::mem::take(&mut t.violations),
            )
        }));
    }
    for t in timings.iter_mut() {
        t.wire_cap_ff = 0.0;
        t.pin_cap_ff = 0.0;
        t.violations.clear();
    }
    let max_slew = lib.max_slew_ps();
    let mut stack = vec![tree.root()];
    while let Some(d) = stack.pop() {
        let children = tree.children(d);
        if children.is_empty() {
            continue;
        }
        let cell = tree.cell(d).ok_or(TimingError::NoDriverCell(d))?;
        let mut pin_sum = 0.0;
        for &c in children {
            let pin_cap = match tree.node(c).kind {
                NodeKind::Buffer(cc) => lib.cell(cc).input_cap_ff,
                NodeKind::Sink => lib.sink_cap_ff(),
                NodeKind::Source => return Err(TimingError::SourceHasParent(c)),
            };
            for t in timings.iter_mut() {
                t.pin_cap_ff += pin_cap;
            }
            pin_sum += pin_cap;
        }
        let limit_ff = lib.cell(cell).max_cap_ff;
        for t in timings.iter_mut() {
            let load = t.load_ff[d.0 as usize];
            t.wire_cap_ff += load - pin_sum;
            if load > limit_ff {
                t.violations.push(Violation::MaxCap {
                    node: d,
                    load_ff: load,
                    limit_ff,
                });
            }
            for &c in children {
                let s = t.slew_ps[c.0 as usize];
                if s > max_slew {
                    t.violations.push(Violation::MaxSlew {
                        node: c,
                        slew_ps: s,
                        limit_ps: max_slew,
                    });
                }
            }
        }
        stack.extend_from_slice(children);
    }
    Ok(())
}

/// Per-arc delays `D_j^{c_k}` of Table 1: latency difference between the
/// arc's two junctions, indexed by [`clk_netlist::ArcId`] position.
pub fn arc_delays_ps(tree: &ClockTree, arcs: &ArcSet, timing: &CornerTiming) -> Vec<f64> {
    let _ = tree;
    arcs.arcs()
        .iter()
        .map(|a| timing.arrival_ps(a.to) - timing.arrival_ps(a.from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_geom::Point;
    use clk_liberty::{CellId, Library, StdCorners};
    use clk_netlist::SinkPair;

    fn lib() -> Library {
        Library::synthetic_28nm(StdCorners::c0_c1_c3())
    }

    /// Symmetric H: root -> b -> {s1, s2} with equal route lengths.
    fn symmetric(lib: &Library) -> (ClockTree, NodeId, NodeId) {
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        let mut t = ClockTree::new(Point::new(0, 0), x8);
        let b = t.add_node(NodeKind::Buffer(x8), Point::new(60_000, 0), t.root());
        let s1 = t.add_node(NodeKind::Sink, Point::new(110_000, 25_000), b);
        let s2 = t.add_node(NodeKind::Sink, Point::new(110_000, -25_000), b);
        t.set_sink_pairs(vec![SinkPair::new(s1, s2)]);
        (t, s1, s2)
    }

    #[test]
    fn arrival_increases_along_path() {
        let lib = lib();
        let (t, s1, _) = symmetric(&lib);
        let timing = Timer::golden().analyze(&t, &lib, CornerId(0));
        let path = t.path_from_root(s1);
        let mut last = -1.0;
        for n in path {
            let a = timing.arrival_ps(n);
            assert!(a > last, "arrival not increasing at {n}");
            last = a;
        }
    }

    #[test]
    fn symmetric_tree_has_zero_skew() {
        let lib = lib();
        let (t, s1, s2) = symmetric(&lib);
        for corner in lib.corner_ids() {
            let timing = Timer::golden().analyze(&t, &lib, corner);
            let d = (timing.arrival_ps(s1) - timing.arrival_ps(s2)).abs();
            assert!(d < 1e-9, "skew {d} at {corner}");
        }
    }

    #[test]
    fn slow_corner_has_larger_latency() {
        let lib = lib();
        let (t, s1, _) = symmetric(&lib);
        let timer = Timer::golden();
        let t0 = timer.analyze(&t, &lib, CornerId(0)).arrival_ps(s1);
        let t1 = timer.analyze(&t, &lib, CornerId(1)).arrival_ps(s1);
        let t3 = timer.analyze(&t, &lib, CornerId(2)).arrival_ps(s1); // c3 corner
        assert!(t1 > 1.3 * t0, "c1 {t1} vs c0 {t0}");
        assert!(t3 < 0.8 * t0, "c3 {t3} vs c0 {t0}");
    }

    #[test]
    fn arc_delays_sum_to_sink_latency() {
        let lib = lib();
        let (t, s1, _) = symmetric(&lib);
        let arcs = ArcSet::extract(&t);
        let timing = Timer::golden().analyze(&t, &lib, CornerId(0));
        let d = arc_delays_ps(&t, &arcs, &timing);
        let path = arcs.path_arcs(&t, s1);
        let sum: f64 = path.iter().map(|a| d[a.0 as usize]).sum();
        assert!((sum - timing.arrival_ps(s1)).abs() < 1e-9);
    }

    #[test]
    fn overloaded_small_buffer_reports_violations() {
        let lib = lib();
        let x1 = lib.cell_by_name("CLKINV_X1").unwrap();
        let mut t = ClockTree::new(Point::new(0, 0), x1);
        // X1 driving 600 µm of Cmax wire: both cap and slew blow up
        let b = t.add_node(NodeKind::Buffer(x1), Point::new(10_000, 0), t.root());
        let _s = t.add_node(NodeKind::Sink, Point::new(600_000, 0), b);
        let timing = Timer::golden().analyze(&t, &lib, CornerId(0));
        assert!(
            timing
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::MaxCap { .. })),
            "expected a max-cap violation"
        );
        assert!(
            timing
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::MaxSlew { .. })),
            "expected a max-slew violation"
        );
    }

    #[test]
    fn lumped_and_golden_are_close_but_not_equal() {
        let lib = lib();
        let (t, s1, _) = symmetric(&lib);
        let golden = Timer::golden().analyze(&t, &lib, CornerId(0));
        let fast = Timer::new(TimerOptions {
            seg_max_um: 1e9,
            ..TimerOptions::default()
        })
        .analyze(&t, &lib, CornerId(0));
        let g = golden.arrival_ps(s1);
        let f = fast.arrival_ps(s1);
        assert!((g - f).abs() / g < 0.15, "golden {g} vs fast {f}");
    }

    #[test]
    fn elmore_at_least_d2m_latency() {
        let lib = lib();
        let (t, s1, _) = symmetric(&lib);
        let d2m = Timer::golden()
            .analyze(&t, &lib, CornerId(0))
            .arrival_ps(s1);
        let elm = Timer::new(TimerOptions {
            wire_model: WireModel::Elmore,
            ..TimerOptions::default()
        })
        .analyze(&t, &lib, CornerId(0))
        .arrival_ps(s1);
        assert!(elm >= d2m);
    }

    #[test]
    fn loads_and_caps_accumulate() {
        let lib = lib();
        let (t, ..) = symmetric(&lib);
        let timing = Timer::golden().analyze(&t, &lib, CornerId(0));
        assert!(timing.wire_cap_ff() > 0.0);
        // 2 sinks + 1 buffer input pin
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        let want = 2.0 * lib.sink_cap_ff() + lib.cell(x8).input_cap_ff;
        assert!((timing.pin_cap_ff() - want).abs() < 1e-9);
        assert!(timing.load_ff(t.root()) > 0.0);
    }

    #[test]
    fn cancelled_timer_returns_interrupted() {
        use clk_obs::CancelToken;
        let lib = lib();
        let (t, ..) = symmetric(&lib);
        let tok = CancelToken::new();
        tok.cancel();
        let timer = Timer::golden().with_deadline(Deadline::from_token(&tok));
        let e = timer.try_analyze(&t, &lib, CornerId(0)).unwrap_err();
        assert_eq!(e, TimingError::Interrupted);
        let e = timer.try_analyze_all(&t, &lib).unwrap_err();
        assert_eq!(e, TimingError::Interrupted);
        // a live token leaves the analysis untouched
        let tok = CancelToken::new();
        let timer = Timer::golden().with_deadline(Deadline::from_token(&tok));
        assert!(timer.try_analyze(&t, &lib, CornerId(0)).is_ok());
    }

    /// Bit-exact equality of two analyses, field by field (NaN slots
    /// must match as NaN, so compare bits, not values).
    fn assert_bit_identical(a: &CornerTiming, b: &CornerTiming) {
        assert_eq!(a.corner, b.corner);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.arrival_ps), bits(&b.arrival_ps), "arrivals");
        assert_eq!(bits(&a.slew_ps), bits(&b.slew_ps), "slews");
        assert_eq!(bits(&a.load_ff), bits(&b.load_ff), "loads");
        assert_eq!(
            bits(&a.wire_delay_ps),
            bits(&b.wire_delay_ps),
            "wire delays"
        );
        assert_eq!(bits(&a.wire_slew_ps), bits(&b.wire_slew_ps), "wire slews");
        assert_eq!(a.wire_cap_ff.to_bits(), b.wire_cap_ff.to_bits(), "wire cap");
        assert_eq!(a.pin_cap_ff.to_bits(), b.pin_cap_ff.to_bits(), "pin cap");
        assert_eq!(a.violations, b.violations, "violations");
        assert!(a.bit_identical(b));
    }

    /// Full analyses of `t` at every corner, and incremental ones from
    /// `prev` with `dirty`, must agree bit for bit.
    fn assert_incremental_matches_full(
        lib: &Library,
        t: &ClockTree,
        prev: &[CornerTiming],
        dirty: &[NodeId],
    ) {
        let timer = Timer::golden();
        let full = timer.try_analyze_all(t, lib).unwrap();
        let inc = timer
            .try_analyze_all_incremental(t, lib, prev, dirty)
            .unwrap();
        assert_eq!(full.len(), inc.len());
        for (f, i) in full.iter().zip(&inc) {
            assert_bit_identical(f, i);
        }
    }

    /// An arc `a -> i1 -> i2 -> j` above a branching junction `j` with a
    /// two-level cone below it, next to a side branch `a -> b3 -> s3`.
    /// Returns the tree and `[a, i1, i2, j, b1, b3]`.
    fn chain(lib: &Library) -> (ClockTree, [NodeId; 6]) {
        let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        let mut t = ClockTree::new(Point::new(0, 0), x8);
        let a = t.add_node(NodeKind::Buffer(x8), Point::new(40_000, 0), t.root());
        let i1 = t.add_node(NodeKind::Buffer(x4), Point::new(90_000, 10_000), a);
        let i2 = t.add_node(NodeKind::Buffer(x4), Point::new(140_000, 20_000), i1);
        let j = t.add_node(NodeKind::Buffer(x8), Point::new(190_000, 30_000), i2);
        let b1 = t.add_node(NodeKind::Buffer(x4), Point::new(230_000, 60_000), j);
        let b2 = t.add_node(NodeKind::Buffer(x4), Point::new(230_000, 0), j);
        let b3 = t.add_node(NodeKind::Buffer(x4), Point::new(60_000, -50_000), a);
        let s1 = t.add_node(NodeKind::Sink, Point::new(260_000, 80_000), b1);
        let s2 = t.add_node(NodeKind::Sink, Point::new(260_000, -20_000), b2);
        let s3 = t.add_node(NodeKind::Sink, Point::new(80_000, -90_000), b3);
        t.set_sink_pairs(vec![SinkPair::new(s1, s2), SinkPair::new(s1, s3)]);
        (t, [a, i1, i2, j, b1, b3])
    }

    /// The ECO engine's arc rebuild: tear out the interior buffers,
    /// hang a new three-buffer chain under `from`, then re-parent and
    /// re-route `to` under its last buffer. Returns the new chain.
    fn rebuild_arc(
        lib: &Library,
        t: &mut ClockTree,
        from: NodeId,
        interior: &[NodeId],
        to: NodeId,
    ) -> Vec<NodeId> {
        let x2 = lib.cell_by_name("CLKINV_X2").unwrap();
        for &n in interior {
            t.remove_buffer(n).unwrap();
        }
        let mut prev = from;
        let mut chain = Vec::new();
        for k in 1..=3 {
            let loc = Point::new(40_000 + 35_000 * k, -10_000 * k);
            prev = t.add_node(NodeKind::Buffer(x2), loc, prev);
            chain.push(prev);
        }
        t.set_parent(to, prev).unwrap();
        let detour = clk_route::RoutePath::with_detour(t.loc(prev), t.loc(to), 25.0);
        t.set_route(to, detour).unwrap();
        chain
    }

    #[test]
    fn incremental_matches_full_after_eco_chain_rebuild() {
        let lib = lib();
        let (mut t, [a, i1, i2, j, ..]) = chain(&lib);
        let prev = Timer::golden().try_analyze_all(&t, &lib).unwrap();
        let n_before = prev[0].arrival_ps.len();
        let new = rebuild_arc(&lib, &mut t, a, &[i1, i2], j);
        assert!(new.iter().all(|n| n.0 as usize >= n_before), "tree grew");
        // only the arc's driver is dirty: the new chain is timed because
        // it is new, the cone below `j` from cached parasitics
        assert_incremental_matches_full(&lib, &t, &prev, &[a]);
    }

    #[test]
    fn incremental_matches_full_after_reassign() {
        let lib = lib();
        let (mut t, [_, _, _, j, b1, b3]) = chain(&lib);
        let prev = Timer::golden().try_analyze_all(&t, &lib).unwrap();
        // type-III surgery: `b1` moves from `j` to `b3`; its own net to
        // its sink is clean and must take the cached path
        t.set_parent(b1, b3).unwrap();
        assert_incremental_matches_full(&lib, &t, &prev, &[j, b3]);
    }

    #[test]
    fn incremental_matches_full_after_shrink() {
        let lib = lib();
        let (mut t, [a, i1, i2, j, ..]) = chain(&lib);
        let new = rebuild_arc(&lib, &mut t, a, &[i1, i2], j);
        let prev = Timer::golden().try_analyze_all(&t, &lib).unwrap();
        // drop the two highest ids: `j` splices up onto the first new
        // buffer, and the id range shrinks
        t.remove_buffer(new[2]).unwrap();
        t.remove_buffer(new[1]).unwrap();
        let full = Timer::golden().try_analyze(&t, &lib, CornerId(0)).unwrap();
        assert!(
            full.arrival_ps.len() < prev[0].arrival_ps.len(),
            "tree shrank"
        );
        assert_incremental_matches_full(&lib, &t, &prev, &[new[0]]);
    }

    #[test]
    fn incremental_matches_full_after_cell_swap() {
        let lib = lib();
        let (mut t, ..) = symmetric(&lib);
        let timer = Timer::golden();
        let prev: Vec<CornerTiming> = lib
            .corner_ids()
            .map(|c| timer.analyze(&t, &lib, c))
            .collect();
        let b = t.buffers().next().unwrap();
        let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
        // dirty roots for a resize: the buffer's net and its parent's
        let dirty = [t.parent(b).unwrap(), b];
        t.set_cell(b, x4).unwrap();
        for (k, corner) in lib.corner_ids().enumerate() {
            let full = timer.try_analyze(&t, &lib, corner).unwrap();
            let inc = timer
                .try_analyze_incremental(&t, &lib, &prev[k], &dirty)
                .unwrap();
            assert_bit_identical(&full, &inc);
        }
    }

    #[test]
    fn incremental_matches_full_after_displacement() {
        let lib = lib();
        let (mut t, ..) = symmetric(&lib);
        let timer = Timer::golden();
        let prev = timer.try_analyze_all(&t, &lib).unwrap();
        let b = t.buffers().next().unwrap();
        let dirty = [t.parent(b).unwrap(), b];
        t.move_node(b, Point::new(70_000, 5_000)).unwrap();
        let full = timer.try_analyze_all(&t, &lib).unwrap();
        let inc = timer
            .try_analyze_all_incremental(&t, &lib, &prev, &dirty)
            .unwrap();
        for (f, i) in full.iter().zip(&inc) {
            assert_bit_identical(f, i);
        }
    }

    #[test]
    fn incremental_noop_edit_is_identical_and_prunes() {
        let lib = lib();
        let (t, ..) = symmetric(&lib);
        let timer = Timer::golden();
        let prev = timer.try_analyze_all(&t, &lib).unwrap();
        // no edit at all: re-timing any dirty set must reproduce the
        // previous analysis exactly
        let dirty = [t.root()];
        let inc = timer
            .try_analyze_all_incremental(&t, &lib, &prev, &dirty)
            .unwrap();
        for (p, i) in prev.iter().zip(&inc) {
            assert_bit_identical(p, i);
        }
    }

    #[test]
    fn incremental_matches_full_when_tree_grew() {
        let lib = lib();
        let (mut t, ..) = symmetric(&lib);
        let timer = Timer::golden();
        let prev = timer.try_analyze_all(&t, &lib).unwrap();
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        let b = t.buffers().next().unwrap();
        let nb = t.add_node(NodeKind::Buffer(x8), Point::new(80_000, 10_000), b);
        let full = timer.try_analyze_all(&t, &lib).unwrap();
        // prev arrays are too short for the grown tree: the incremental
        // analysis fits them to the new id range and times the new net
        let inc = timer
            .try_analyze_all_incremental(&t, &lib, &prev, &[b, nb])
            .unwrap();
        for (f, i) in full.iter().zip(&inc) {
            assert_bit_identical(f, i);
        }
    }

    /// Advances full analyses of `t` across `edit`, checks the result
    /// against a full analysis of the edited tree, rolls it back and
    /// checks that against the analyses before, bit for bit. Returns the
    /// advanced analyses.
    fn advance_and_roll_back(
        lib: &Library,
        t: &mut ClockTree,
        dirty: impl FnOnce(&ClockTree) -> Vec<NodeId>,
        edit: impl FnOnce(&mut ClockTree),
    ) -> Vec<CornerTiming> {
        let timer = Timer::golden();
        let before = timer.try_analyze_all(t, lib).unwrap();
        let dirty = dirty(t);
        edit(t);
        let mut cur = before.clone();
        let mut undo = TimingUndo::default();
        timer
            .try_advance_all(t, lib, &mut cur, &dirty, &mut undo)
            .unwrap();
        let full = timer.try_analyze_all(t, lib).unwrap();
        for (f, c) in full.iter().zip(&cur) {
            assert_bit_identical(f, c);
        }
        let advanced = cur.clone();
        undo.rollback(&mut cur);
        for (b, c) in before.iter().zip(&cur) {
            assert_bit_identical(b, c);
        }
        // the log is spent: a second rollback changes nothing
        undo.rollback(&mut cur);
        for (b, c) in before.iter().zip(&cur) {
            assert_bit_identical(b, c);
        }
        advanced
    }

    #[test]
    fn rollback_restores_after_growth_shrink_and_new_violations() {
        let lib = lib();
        let (mut t, [a, i1, i2, j, ..]) = chain(&lib);
        // growth: a new three-buffer chain past the old id range
        let n0 = Timer::golden()
            .analyze(&t, &lib, CornerId(0))
            .arrival_ps
            .len();
        let mut new = Vec::new();
        let grown = advance_and_roll_back(
            &lib,
            &mut t,
            |_| vec![a],
            |t| new = rebuild_arc(&lib, t, a, &[i1, i2], j),
        );
        assert!(grown[0].arrival_ps.len() > n0, "tree grew");
        // shrink: drop the two highest ids again
        let n1 = grown[0].arrival_ps.len();
        let shrunk = advance_and_roll_back(
            &lib,
            &mut t,
            |_| vec![new[0]],
            |t| {
                t.remove_buffer(new[2]).unwrap();
                t.remove_buffer(new[1]).unwrap();
            },
        );
        assert!(shrunk[0].arrival_ps.len() < n1, "tree shrank");
        // a weak driver under a long fanout: violations appear, and the
        // aggregates move
        let x1 = lib.cell_by_name("CLKINV_X1").unwrap();
        let before = Timer::golden().try_analyze_all(&t, &lib).unwrap();
        let weak = advance_and_roll_back(
            &lib,
            &mut t,
            |t| vec![t.root(), a],
            |t| {
                t.set_cell(a, x1).unwrap();
                t.move_node(a, Point::new(-200_000, 150_000)).unwrap();
            },
        );
        assert!(
            weak.iter()
                .zip(&before)
                .any(|(w, b)| w.violations().len() > b.violations().len()),
            "the edit added violations"
        );
        assert!(weak
            .iter()
            .zip(&before)
            .all(|(w, b)| w.wire_cap_ff.to_bits() != b.wire_cap_ff.to_bits()));
    }

    /// Per-corner `sta.corner.{k}.nodes_timed` of one timed call.
    fn nodes_timed_per_corner(lib: &Library, f: impl FnOnce(&Timer)) -> Vec<u64> {
        let obs = Obs::new(clk_obs::ObsConfig::default());
        f(&Timer::golden().with_obs(obs.clone()));
        lib.corner_ids()
            .map(|c| {
                obs.counter(&format!("sta.corner.{}.nodes_timed", c.0))
                    .map_or(0, |n| n.get())
            })
            .collect()
    }

    #[test]
    fn joint_walk_equals_single_corner_walks_when_corners_prune_differently() {
        let lib = lib();
        let (mut t, [a, i1, _, j, b1, _]) = chain(&lib);
        let timer = Timer::golden();
        let old = timer.try_analyze_all(&t, &lib).unwrap();
        // two dirty cones, one below the other: a resize of `i1` and a
        // move of `b1` under `j`
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        t.set_cell(i1, x8).unwrap();
        t.move_node(b1, Point::new(240_000, 70_000)).unwrap();
        let dirty = [a, i1, j, b1];
        let full = timer.try_analyze_all(&t, &lib).unwrap();
        // corner 0 starts from the edited tree's own analysis, so its
        // walk prunes at once and reaches `j`/`b1` only as heads of
        // their own; the other corners start from the tree before the
        // edit and reach them from `i1`'s cone
        let mut prev = old.clone();
        prev[0] = full[0].clone();
        let mut joint = Vec::new();
        let joint_counts = nodes_timed_per_corner(&lib, |tm| {
            joint = tm
                .try_analyze_all_incremental(&t, &lib, &prev, &dirty)
                .unwrap();
        });
        let mut single = Vec::new();
        let single_counts: Vec<u64> = prev
            .iter()
            .enumerate()
            .map(|(k, p)| {
                nodes_timed_per_corner(&lib, |tm| {
                    single.push(tm.try_analyze_incremental(&t, &lib, p, &dirty).unwrap());
                })[k]
            })
            .collect();
        assert_eq!(joint_counts, single_counts);
        assert!(
            joint_counts[0] < joint_counts[1],
            "the corners pruned differently: {joint_counts:?}"
        );
        for ((f, j), s) in full.iter().zip(&joint).zip(&single) {
            assert_bit_identical(f, j);
            assert_bit_identical(f, s);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 corners")]
    fn advance_takes_at_most_64_corners() {
        let lib = lib();
        let (t, _, _) = symmetric(&lib);
        let one = Timer::golden().analyze(&t, &lib, CornerId(0));
        let _ = Timer::golden().try_analyze_all_incremental(&t, &lib, &vec![one; 65], &[t.root()]);
    }

    #[test]
    fn dangling_buffer_is_harmless() {
        let lib = lib();
        let x2 = CellId(1);
        let (mut t, s1, _) = symmetric(&lib);
        let b = t.add_node(NodeKind::Buffer(x2), Point::new(30_000, 9_000), t.root());
        let timing = Timer::golden().analyze(&t, &lib, CornerId(0));
        assert!(timing.arrival_ps(s1).is_finite());
        assert!(timing.arrival_ps(b).is_finite());
    }
}
