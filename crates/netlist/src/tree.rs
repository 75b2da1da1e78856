//! The clock-tree instance database and its editing operations.

use clk_geom::Point;
use clk_liberty::CellId;
use clk_route::RoutePath;

use crate::pairs::SinkPair;

/// Opaque handle of a node in a [`ClockTree`]. Handles are stable across
/// edits: removed nodes leave tombstones and ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a tree node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The clock root driver. Exactly one per tree; its driving cell is
    /// [`ClockTree::source_cell`].
    Source,
    /// A clock inverter instance of the given library cell.
    Buffer(CellId),
    /// A flip-flop clock pin (leaf).
    Sink,
}

/// One instance in the clock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Instance kind.
    pub kind: NodeKind,
    /// Placed location.
    pub loc: Point,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Routed path from the parent's location to this node's location;
    /// `None` only for the root.
    pub route: Option<RoutePath>,
}

/// The saved slots of a few nodes and the node count, taken by
/// [`ClockTree::checkpoint`] and restored by [`ClockTree::rollback`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    len: usize,
    slots: Vec<(NodeId, Node, bool)>,
}

/// Errors reported by tree edits and by [`ClockTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Operation addressed a removed node.
    DeadNode(NodeId),
    /// Operation requires a buffer but the node is a source or sink.
    NotABuffer(NodeId),
    /// Reparenting would create a cycle (new parent inside the subtree).
    WouldCycle(NodeId),
    /// A sink cannot drive children.
    SinkHasChildren(NodeId),
    /// A route's endpoints do not match the parent/child locations.
    RouteEndpointMismatch(NodeId),
    /// Parent/child bookkeeping is inconsistent (validate only).
    Inconsistent(NodeId),
    /// A non-root node is unreachable from the root (validate only).
    Unreachable(NodeId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::DeadNode(n) => write!(f, "node {n} has been removed"),
            TreeError::NotABuffer(n) => write!(f, "node {n} is not a buffer"),
            TreeError::WouldCycle(n) => write!(f, "reparenting {n} would create a cycle"),
            TreeError::SinkHasChildren(n) => write!(f, "sink {n} cannot drive children"),
            TreeError::RouteEndpointMismatch(n) => {
                write!(f, "route of node {n} does not connect parent to node")
            }
            TreeError::Inconsistent(n) => write!(f, "parent/child links inconsistent at {n}"),
            TreeError::Unreachable(n) => write!(f, "node {n} unreachable from root"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A routed, buffered clock tree.
///
/// See the crate documentation for the modelling overview and an example.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    nodes: Vec<Node>,
    alive: Vec<bool>,
    root: NodeId,
    source_cell: CellId,
    sink_pairs: Vec<SinkPair>,
}

impl ClockTree {
    /// Creates a tree containing only the source at `loc`, driven by
    /// library cell `source_cell`.
    pub fn new(loc: Point, source_cell: CellId) -> Self {
        ClockTree {
            nodes: vec![Node {
                kind: NodeKind::Source,
                loc,
                parent: None,
                children: Vec::new(),
                route: None,
            }],
            alive: vec![true],
            root: NodeId(0),
            source_cell,
            sink_pairs: Vec::new(),
        }
    }

    /// The root (source) node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The library cell driving the root net.
    pub fn source_cell(&self) -> CellId {
        self.source_cell
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn node(&self, id: NodeId) -> &Node {
        assert!(self.is_alive(id), "access to dead node {id}");
        &self.nodes[id.0 as usize]
    }

    /// Whether `id` refers to a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len() && self.alive[id.0 as usize]
    }

    /// The node's parent (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The node's children.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// The node's placed location.
    pub fn loc(&self, id: NodeId) -> Point {
        self.node(id).loc
    }

    /// The buffer's library cell, or `None` for source/sink nodes.
    pub fn cell(&self, id: NodeId) -> Option<CellId> {
        match self.node(id).kind {
            NodeKind::Buffer(c) => Some(c),
            NodeKind::Source => Some(self.source_cell),
            NodeKind::Sink => None,
        }
    }

    /// Adds a node under `parent` with an L-shaped route. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is dead or a sink.
    pub fn add_node(&mut self, kind: NodeKind, loc: Point, parent: NodeId) -> NodeId {
        let route = RoutePath::l_shape(self.loc(parent), loc);
        self.add_node_with_route(kind, loc, parent, route)
            .expect("l_shape endpoints always match")
    }

    /// Adds a node under `parent` with an explicit route.
    ///
    /// # Errors
    ///
    /// [`TreeError::SinkHasChildren`] if `parent` is a sink;
    /// [`TreeError::RouteEndpointMismatch`] if the route does not run from
    /// the parent location to `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is dead.
    pub fn add_node_with_route(
        &mut self,
        kind: NodeKind,
        loc: Point,
        parent: NodeId,
        route: RoutePath,
    ) -> Result<NodeId, TreeError> {
        if self.node(parent).kind == NodeKind::Sink {
            return Err(TreeError::SinkHasChildren(parent));
        }
        if route.start() != self.loc(parent) || route.end() != loc {
            let id = NodeId(self.nodes.len() as u32);
            return Err(TreeError::RouteEndpointMismatch(id));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            loc,
            parent: Some(parent),
            children: Vec::new(),
            route: Some(route),
        });
        self.alive.push(true);
        self.nodes[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// Changes a buffer's library cell (a sizing move).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotABuffer`] unless the node is a buffer.
    pub fn set_cell(&mut self, id: NodeId, cell: CellId) -> Result<(), TreeError> {
        match self.node(id).kind {
            NodeKind::Buffer(_) => {
                self.nodes[id.0 as usize].kind = NodeKind::Buffer(cell);
                Ok(())
            }
            _ => Err(TreeError::NotABuffer(id)),
        }
    }

    /// Moves a buffer to `loc`, rerouting the edge to its parent and to
    /// each child as plain L-shapes (the ECO router may re-route later).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotABuffer`] unless the node is a buffer.
    pub fn move_node(&mut self, id: NodeId, loc: Point) -> Result<(), TreeError> {
        if !matches!(self.node(id).kind, NodeKind::Buffer(_)) {
            return Err(TreeError::NotABuffer(id));
        }
        self.nodes[id.0 as usize].loc = loc;
        if let Some(p) = self.parent(id) {
            let r = RoutePath::l_shape(self.loc(p), loc);
            self.nodes[id.0 as usize].route = Some(r);
        }
        let children = self.node(id).children.clone();
        for c in children {
            let r = RoutePath::l_shape(loc, self.loc(c));
            self.nodes[c.0 as usize].route = Some(r);
        }
        Ok(())
    }

    /// Reassigns `id` to a new driver (the paper's **tree surgery** /
    /// type-III move), rerouting with an L-shape.
    ///
    /// # Errors
    ///
    /// [`TreeError::SinkHasChildren`] if `new_parent` is a sink;
    /// [`TreeError::WouldCycle`] if `new_parent` is `id` or lies in the
    /// subtree of `id`.
    ///
    /// # Panics
    ///
    /// Panics if either node is dead or `id` is the root.
    pub fn set_parent(&mut self, id: NodeId, new_parent: NodeId) -> Result<(), TreeError> {
        assert!(id != self.root, "cannot reparent the root");
        if self.node(new_parent).kind == NodeKind::Sink {
            return Err(TreeError::SinkHasChildren(new_parent));
        }
        if new_parent == id || self.is_descendant(new_parent, id) {
            return Err(TreeError::WouldCycle(id));
        }
        let old = self.node(id).parent.expect("non-root has parent");
        if old == new_parent {
            return Ok(());
        }
        self.nodes[old.0 as usize].children.retain(|&c| c != id);
        self.nodes[new_parent.0 as usize].children.push(id);
        self.nodes[id.0 as usize].parent = Some(new_parent);
        let r = RoutePath::l_shape(self.loc(new_parent), self.loc(id));
        self.nodes[id.0 as usize].route = Some(r);
        Ok(())
    }

    /// Replaces the route of the edge parent→`id`.
    ///
    /// # Errors
    ///
    /// [`TreeError::RouteEndpointMismatch`] unless the route runs from the
    /// parent location to the node location.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or the root.
    pub fn set_route(&mut self, id: NodeId, route: RoutePath) -> Result<(), TreeError> {
        let p = self.parent(id).expect("root has no route");
        if route.start() != self.loc(p) || route.end() != self.loc(id) {
            return Err(TreeError::RouteEndpointMismatch(id));
        }
        self.nodes[id.0 as usize].route = Some(route);
        Ok(())
    }

    /// Removes a buffer and splices its children onto its parent (L-shape
    /// reroute). Works for leaf buffers too (no children).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotABuffer`] unless the node is a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn remove_buffer(&mut self, id: NodeId) -> Result<(), TreeError> {
        if !matches!(self.node(id).kind, NodeKind::Buffer(_)) {
            return Err(TreeError::NotABuffer(id));
        }
        let parent = self.node(id).parent.expect("buffer has a parent");
        let children = self.node(id).children.clone();
        self.nodes[parent.0 as usize].children.retain(|&c| c != id);
        for c in children {
            self.nodes[c.0 as usize].parent = Some(parent);
            let r = RoutePath::l_shape(self.loc(parent), self.loc(c));
            self.nodes[c.0 as usize].route = Some(r);
            self.nodes[parent.0 as usize].children.push(c);
        }
        self.alive[id.0 as usize] = false;
        Ok(())
    }

    /// Saves the slots of `ids` and the node count. An edit that
    /// changes no other slot, and may add nodes, is then undone by
    /// [`ClockTree::rollback`] at the cost of the saved slots rather
    /// than a copy of the whole tree.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn checkpoint(&self, ids: &[NodeId]) -> Checkpoint {
        Checkpoint {
            len: self.nodes.len(),
            slots: ids
                .iter()
                .map(|&id| {
                    let i = id.0 as usize;
                    (id, self.nodes[i].clone(), self.alive[i])
                })
                .collect(),
        }
    }

    /// Restores a [`ClockTree::checkpoint`]: drops the nodes added since
    /// and writes the saved slots back. The tree equals the one the
    /// checkpoint was taken of if the edits in between changed only the
    /// saved slots and added nodes.
    ///
    /// # Panics
    ///
    /// Panics if the tree has fewer nodes than when the checkpoint was
    /// taken.
    pub fn rollback(&mut self, cp: Checkpoint) {
        assert!(
            cp.len <= self.nodes.len(),
            "checkpoint of a larger tree ({} > {} nodes)",
            cp.len,
            self.nodes.len()
        );
        self.nodes.truncate(cp.len);
        self.alive.truncate(cp.len);
        for (id, node, alive) in cp.slots {
            let i = id.0 as usize;
            self.nodes[i] = node;
            self.alive[i] = alive;
        }
    }

    /// Whether `maybe_desc` lies strictly inside the subtree rooted at
    /// `root_of_subtree` (or equals it).
    pub fn is_descendant(&self, maybe_desc: NodeId, root_of_subtree: NodeId) -> bool {
        let mut cur = Some(maybe_desc);
        while let Some(n) = cur {
            if n == root_of_subtree {
                return true;
            }
            cur = self.node(n).parent;
        }
        false
    }

    /// Nodes on the path `root → id`, root first, `id` last.
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Number of inverting stages (buffers) on the path root→`id`,
    /// including `id` itself when it is a buffer. Sinks of a correctly
    /// polarized tree see an even count.
    pub fn inversions_to(&self, id: NodeId) -> usize {
        self.path_from_root(id)
            .iter()
            .filter(|&&n| matches!(self.node(n).kind, NodeKind::Buffer(_)))
            .count()
    }

    /// Buffer level of a node: the number of buffers on the path from the
    /// root up to and including the node. Used for the "same level as
    /// current driver" constraint of type-III moves.
    pub fn buffer_level(&self, id: NodeId) -> usize {
        self.inversions_to(id)
    }

    /// Iterator over live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(move |&id| self.alive[id.0 as usize])
    }

    /// Iterator over live sink ids.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.node(id).kind == NodeKind::Sink)
    }

    /// Iterator over live buffer ids.
    pub fn buffers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| matches!(self.node(id).kind, NodeKind::Buffer(_)))
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether the tree has only its source.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The launch/capture sink pairs whose skew the optimization targets.
    pub fn sink_pairs(&self) -> &[SinkPair] {
        &self.sink_pairs
    }

    /// Installs the sink-pair list (deduplicated, orientation-normalized).
    ///
    /// # Panics
    ///
    /// Panics if a pair references a node that is not a live sink.
    pub fn set_sink_pairs(&mut self, pairs: Vec<SinkPair>) {
        let mut normalized: Vec<SinkPair> = pairs
            .into_iter()
            .map(|p| {
                assert!(
                    self.node(p.a).kind == NodeKind::Sink && self.node(p.b).kind == NodeKind::Sink,
                    "sink pair must reference live sinks"
                );
                p.normalized()
            })
            .collect();
        normalized.sort_by_key(|p| (p.a, p.b));
        normalized.dedup_by_key(|p| (p.a, p.b));
        self.sink_pairs = normalized;
    }

    /// Structural validation; see [`TreeError`] for the conditions.
    ///
    /// Thin wrapper over [`ClockTree::validate_all`] kept for the many
    /// call sites that only care about pass/fail; the full audit (every
    /// violation, with diagnostic codes) lives in the `clk-lint` crate's
    /// structural pass, which consumes [`ClockTree::validate_all`].
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self) -> Result<(), TreeError> {
        match self.validate_all().into_iter().next() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Exhaustive structural validation: every violation, not just the
    /// first. An empty vector means the tree is well-formed.
    pub fn validate_all(&self) -> Vec<TreeError> {
        let mut errs = Vec::new();
        // parent/child symmetry and route endpoints
        for id in self.node_ids() {
            let n = self.node(id);
            if let Some(p) = n.parent {
                if !self.is_alive(p) {
                    errs.push(TreeError::DeadNode(p));
                } else {
                    if !self.node(p).children.contains(&id) {
                        errs.push(TreeError::Inconsistent(id));
                    }
                    match &n.route {
                        Some(r) if r.start() == self.node(p).loc && r.end() == n.loc => {}
                        _ => errs.push(TreeError::RouteEndpointMismatch(id)),
                    }
                }
            } else if id != self.root {
                errs.push(TreeError::Unreachable(id));
            }
            if n.kind == NodeKind::Sink && !n.children.is_empty() {
                errs.push(TreeError::SinkHasChildren(id));
            }
            for &c in &n.children {
                if !self.is_alive(c) {
                    errs.push(TreeError::DeadNode(c));
                } else if self.node(c).parent != Some(id) {
                    errs.push(TreeError::Inconsistent(c));
                }
            }
        }
        // reachability (also proves acyclicity together with the parent
        // uniqueness established above)
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if seen[n.0 as usize] {
                errs.push(TreeError::Inconsistent(n));
                continue;
            }
            seen[n.0 as usize] = true;
            count += 1;
            stack.extend_from_slice(&self.node(n).children);
        }
        if count != self.len() {
            for id in self.node_ids().filter(|&id| !seen[id.0 as usize]) {
                errs.push(TreeError::Unreachable(id));
            }
        }
        errs
    }

    // ---- corruption hooks (lint-engine test support) ------------------
    //
    // These bypass the editing API's invariants on purpose so the
    // corruption-injection tests in `clk-lint` can produce structurally
    // broken databases and assert that the linter diagnoses them. They
    // are hidden from docs and must never be called by flow code.

    /// Removes `child` from `parent`'s child list without touching the
    /// child's parent pointer (creates an Inconsistent link).
    #[doc(hidden)]
    pub fn debug_unlink_child(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[parent.0 as usize]
            .children
            .retain(|&c| c != child);
    }

    /// Overwrites a node's parent pointer directly (can orphan a subtree
    /// or create a cycle).
    #[doc(hidden)]
    pub fn debug_set_parent_raw(&mut self, id: NodeId, parent: Option<NodeId>) {
        self.nodes[id.0 as usize].parent = parent;
    }

    /// Appends to a node's child list directly (can duplicate links or
    /// close a cycle).
    #[doc(hidden)]
    pub fn debug_add_child_raw(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[parent.0 as usize].children.push(child);
    }

    /// Moves a node without rerouting or legalizing (stale route
    /// endpoints, off-grid placement).
    #[doc(hidden)]
    pub fn debug_set_loc_raw(&mut self, id: NodeId, loc: Point) {
        self.nodes[id.0 as usize].loc = loc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellId {
        CellId(2)
    }

    /// source -> b1 -> {s1, b2 -> s2}
    fn small_tree() -> (ClockTree, NodeId, NodeId, NodeId, NodeId) {
        let mut t = ClockTree::new(Point::new(0, 0), cell());
        let b1 = t.add_node(NodeKind::Buffer(cell()), Point::new(10_000, 0), t.root());
        let s1 = t.add_node(NodeKind::Sink, Point::new(20_000, 5_000), b1);
        let b2 = t.add_node(NodeKind::Buffer(cell()), Point::new(20_000, -5_000), b1);
        let s2 = t.add_node(NodeKind::Sink, Point::new(30_000, -5_000), b2);
        (t, b1, s1, b2, s2)
    }

    #[test]
    fn build_and_validate() {
        let (t, ..) = small_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.sinks().count(), 2);
        assert_eq!(t.buffers().count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn path_and_levels() {
        let (t, b1, s1, b2, s2) = small_tree();
        assert_eq!(t.path_from_root(s2), vec![t.root(), b1, b2, s2]);
        assert_eq!(t.inversions_to(s1), 1);
        assert_eq!(t.inversions_to(s2), 2);
        assert_eq!(t.buffer_level(b1), 1);
        assert_eq!(t.buffer_level(b2), 2);
    }

    #[test]
    fn move_node_reroutes() {
        let (mut t, b1, s1, ..) = small_tree();
        t.move_node(b1, Point::new(12_000, 3_000)).unwrap();
        t.validate().unwrap();
        assert_eq!(t.loc(b1), Point::new(12_000, 3_000));
        let r = t.node(s1).route.as_ref().unwrap();
        assert_eq!(r.start(), Point::new(12_000, 3_000));
        // sinks cannot move
        assert_eq!(
            t.move_node(s1, Point::new(0, 0)).unwrap_err(),
            TreeError::NotABuffer(s1)
        );
    }

    #[test]
    fn tree_surgery() {
        let (mut t, b1, _s1, b2, s2) = small_tree();
        // give s2 a new driver: b1 (skip b2)
        t.set_parent(s2, b1).unwrap();
        t.validate().unwrap();
        assert_eq!(t.parent(s2), Some(b1));
        assert!(t.children(b2).is_empty());
        // cycle rejection: b1 under its own descendant b2
        assert_eq!(t.set_parent(b1, b2).unwrap_err(), TreeError::WouldCycle(b1));
        // sink as parent rejected
        assert_eq!(
            t.set_parent(b2, s2).unwrap_err(),
            TreeError::SinkHasChildren(s2)
        );
        // no-op reparent
        t.set_parent(s2, b1).unwrap();
        t.validate().unwrap();
    }

    #[test]
    fn remove_buffer_splices_children() {
        let (mut t, b1, s1, b2, s2) = small_tree();
        t.remove_buffer(b2).unwrap();
        t.validate().unwrap();
        assert_eq!(t.parent(s2), Some(b1));
        assert!(!t.is_alive(b2));
        assert_eq!(t.len(), 4);
        // leaf buffer removal
        let b3 = t.add_node(NodeKind::Buffer(cell()), Point::new(1, 1), b1);
        t.remove_buffer(b3).unwrap();
        t.validate().unwrap();
        // source/sink cannot be removed this way
        assert!(t.remove_buffer(s1).is_err());
    }

    #[test]
    fn rollback_undoes_a_chain_rebuild() {
        let (mut t, b1, _, b2, s2) = small_tree();
        let before = t.clone();
        // the chain b1 → b2 → s2 rebuilt with two new buffers
        let cp = t.checkpoint(&[b1, b2, s2]);
        t.remove_buffer(b2).unwrap();
        let n1 = t.add_node(NodeKind::Buffer(cell()), Point::new(15_000, -5_000), b1);
        let n2 = t.add_node(NodeKind::Buffer(cell()), Point::new(25_000, -5_000), n1);
        t.set_parent(s2, n2).unwrap();
        t.validate().unwrap();
        assert_ne!(t, before);
        t.rollback(cp);
        assert_eq!(t, before);
        t.validate().unwrap();
    }

    #[test]
    fn set_route_validates_endpoints() {
        let (mut t, b1, ..) = small_tree();
        let good = RoutePath::with_detour(t.loc(t.root()), t.loc(b1), 30.0);
        t.set_route(b1, good).unwrap();
        t.validate().unwrap();
        let bad = RoutePath::l_shape(Point::new(1, 1), t.loc(b1));
        assert!(matches!(
            t.set_route(b1, bad),
            Err(TreeError::RouteEndpointMismatch(_))
        ));
    }

    #[test]
    fn sink_pairs_normalize_and_dedup() {
        let (mut t, _b1, s1, _b2, s2) = small_tree();
        t.set_sink_pairs(vec![
            SinkPair::new(s2, s1),
            SinkPair::new(s1, s2),
            SinkPair::new(s1, s2),
        ]);
        assert_eq!(t.sink_pairs().len(), 1);
        assert_eq!(t.sink_pairs()[0].a, s1.min(s2));
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn dead_node_access_panics() {
        let (mut t, _b1, _s1, b2, _s2) = small_tree();
        t.remove_buffer(b2).unwrap();
        let _ = t.node(b2);
    }

    #[test]
    fn cell_of_each_kind() {
        let (t, b1, s1, ..) = small_tree();
        assert_eq!(t.cell(b1), Some(cell()));
        assert_eq!(t.cell(s1), None);
        assert_eq!(t.cell(t.root()), Some(cell()));
    }

    #[test]
    fn add_node_with_bad_route_rejected() {
        let (mut t, b1, ..) = small_tree();
        let bad = RoutePath::l_shape(Point::new(9, 9), Point::new(50_000, 0));
        assert!(t
            .add_node_with_route(NodeKind::Sink, Point::new(50_000, 0), b1, bad)
            .is_err());
    }
}
