//! The local-move menu of Table 2: sizing/displacement (type I), child
//! sizing with displacement (type II), and tree surgery (type III).

use clk_geom::{um_to_dbu, Direction, Rect};
use clk_liberty::Library;
use clk_netlist::{ClockTree, Floorplan, NodeId, NodeKind, TreeError};

/// One-step sizing choice attached to a move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resize {
    /// Keep the cell.
    None,
    /// One library size up.
    Up,
    /// One library size down.
    Down,
}

/// A candidate local move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Type I: displace the buffer in one of the 8 compass directions by
    /// the configured step (or not at all) and/or change its size one
    /// step.
    SizeDisplace {
        /// The buffer to perturb.
        node: NodeId,
        /// Displacement direction (`None` = sizing-only move).
        dir: Option<Direction>,
        /// Sizing component.
        resize: Resize,
    },
    /// Type II: displace the buffer and size one of its child buffers.
    ChildSize {
        /// The buffer to displace.
        node: NodeId,
        /// Displacement direction.
        dir: Direction,
        /// The child buffer to resize.
        child: NodeId,
        /// Child sizing (never [`Resize::None`] — that would be type I).
        child_resize: Resize,
    },
    /// Type III: tree surgery — drive `node` from `new_parent` instead of
    /// its current driver.
    Reassign {
        /// The node being re-driven.
        node: NodeId,
        /// The new driver (same buffer level, within the surgery box).
        new_parent: NodeId,
    },
}

impl Move {
    /// The node whose downstream subtree the move primarily perturbs.
    pub fn primary_node(&self) -> NodeId {
        match *self {
            Move::SizeDisplace { node, .. }
            | Move::ChildSize { node, .. }
            | Move::Reassign { node, .. } => node,
        }
    }

    /// Paper move type: 1, 2 or 3.
    pub fn move_type(&self) -> u8 {
        match self {
            Move::SizeDisplace { .. } => 1,
            Move::ChildSize { .. } => 2,
            Move::Reassign { .. } => 3,
        }
    }

    /// Serializes the move into its decision-ledger record. Directions
    /// are encoded as indices into [`Direction::ALL`] (a stable order),
    /// so a ledger written by one build replays on another.
    pub fn to_ledger_rec(&self) -> clk_obs::MoveRec {
        let dir_idx = |d: Direction| {
            Direction::ALL
                .iter()
                .position(|&x| x == d)
                .map(|i| i as u64)
        };
        match *self {
            Move::SizeDisplace { node, dir, resize } => clk_obs::MoveRec {
                t: 1,
                node: u64::from(node.0),
                dir: dir.and_then(dir_idx),
                resize: resize.ledger_str().to_string(),
                child: None,
                new_parent: None,
            },
            Move::ChildSize {
                node,
                dir,
                child,
                child_resize,
            } => clk_obs::MoveRec {
                t: 2,
                node: u64::from(node.0),
                dir: dir_idx(dir),
                resize: child_resize.ledger_str().to_string(),
                child: Some(u64::from(child.0)),
                new_parent: None,
            },
            Move::Reassign { node, new_parent } => clk_obs::MoveRec {
                t: 3,
                node: u64::from(node.0),
                dir: None,
                resize: Resize::None.ledger_str().to_string(),
                child: None,
                new_parent: Some(u64::from(new_parent.0)),
            },
        }
    }

    /// Rebuilds a move from a decision-ledger record. `None` when the
    /// record is structurally inconsistent for its type tag (unknown
    /// tag, out-of-range direction index, missing child/parent).
    pub fn from_ledger_rec(rec: &clk_obs::MoveRec) -> Option<Move> {
        let node_id = |v: u64| u32::try_from(v).ok().map(NodeId);
        let dir_at = |i: u64| Direction::ALL.get(usize::try_from(i).ok()?).copied();
        match rec.t {
            1 => Some(Move::SizeDisplace {
                node: node_id(rec.node)?,
                dir: match rec.dir {
                    Some(i) => Some(dir_at(i)?),
                    None => None,
                },
                resize: Resize::from_ledger_str(&rec.resize)?,
            }),
            2 => Some(Move::ChildSize {
                node: node_id(rec.node)?,
                dir: dir_at(rec.dir?)?,
                child: node_id(rec.child?)?,
                child_resize: Resize::from_ledger_str(&rec.resize)?,
            }),
            3 => Some(Move::Reassign {
                node: node_id(rec.node)?,
                new_parent: node_id(rec.new_parent?)?,
            }),
            _ => None,
        }
    }
}

impl Resize {
    /// Stable ledger spelling of the sizing choice.
    pub fn ledger_str(self) -> &'static str {
        match self {
            Resize::None => "none",
            Resize::Up => "up",
            Resize::Down => "down",
        }
    }

    /// Parses the ledger spelling back; `None` for unknown strings.
    pub fn from_ledger_str(s: &str) -> Option<Resize> {
        match s {
            "none" => Some(Resize::None),
            "up" => Some(Resize::Up),
            "down" => Some(Resize::Down),
            _ => None,
        }
    }
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Move::SizeDisplace { node, dir, resize } => {
                write!(f, "I:{node}")?;
                if let Some(d) = dir {
                    write!(f, " move {d}")?;
                }
                write!(f, " {resize:?}")
            }
            Move::ChildSize {
                node,
                dir,
                child,
                child_resize,
            } => write!(f, "II:{node} move {dir}, child {child} {child_resize:?}"),
            Move::Reassign { node, new_parent } => write!(f, "III:{node} -> {new_parent}"),
        }
    }
}

/// Enumeration parameters (Table 2 values by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveConfig {
    /// Per-axis displacement step, µm (paper: 10 µm).
    pub displace_um: f64,
    /// Side of the square box a type-III candidate driver must fall in,
    /// µm (paper: 50 µm).
    pub surgery_box_um: f64,
}

impl Default for MoveConfig {
    fn default() -> Self {
        MoveConfig {
            displace_um: 10.0,
            surgery_box_um: 50.0,
        }
    }
}

/// Enumerates every candidate move for the given buffers (all buffers
/// when `targets` is `None`), honoring library size limits and the
/// type-III same-level / bounding-box rules.
pub fn enumerate_moves(
    tree: &ClockTree,
    lib: &Library,
    cfg: &MoveConfig,
    targets: Option<&[NodeId]>,
) -> Vec<Move> {
    let nodes: Vec<NodeId> = match targets {
        Some(t) => t.to_vec(),
        None => tree.node_ids().filter(|&n| n != tree.root()).collect(),
    };
    let mut moves = Vec::new();
    // precompute buffer levels for surgery candidates
    let levels: Vec<(NodeId, usize)> = tree.buffers().map(|b| (b, tree.buffer_level(b))).collect();
    for &b in &nodes {
        if b == tree.root() {
            continue;
        }
        // --- type III applies to any child node (buffer or sink) ---
        if let Some(p) = tree.parent(b) {
            let p_level = tree.buffer_level(p);
            let boxr = Rect::square_around(tree.loc(b), um_to_dbu(cfg.surgery_box_um / 2.0));
            for &(cand, lvl) in &levels {
                if cand == p || cand == b || lvl != p_level {
                    continue;
                }
                if !boxr.contains(tree.loc(cand)) {
                    continue;
                }
                if tree.is_descendant(cand, b) {
                    continue; // would create a cycle
                }
                moves.push(Move::Reassign {
                    node: b,
                    new_parent: cand,
                });
            }
        }
        if !matches!(tree.node(b).kind, NodeKind::Buffer(_)) {
            continue;
        }
        let cell = tree.cell(b).expect("buffer has a cell");
        let can_up = lib.size_up(cell).is_some();
        let can_down = lib.size_down(cell).is_some();
        let resizes = |list: &mut Vec<Resize>| {
            list.push(Resize::None);
            if can_up {
                list.push(Resize::Up);
            }
            if can_down {
                list.push(Resize::Down);
            }
        };
        // --- type I ---
        let mut rs = Vec::new();
        resizes(&mut rs);
        for &r in &rs {
            for dir in Direction::ALL {
                moves.push(Move::SizeDisplace {
                    node: b,
                    dir: Some(dir),
                    resize: r,
                });
            }
            if r != Resize::None {
                moves.push(Move::SizeDisplace {
                    node: b,
                    dir: None,
                    resize: r,
                });
            }
        }
        // --- type II ---
        for &c in tree.children(b) {
            let Some(ccell) = tree.cell(c) else { continue };
            if !matches!(tree.node(c).kind, NodeKind::Buffer(_)) {
                continue;
            }
            for dir in Direction::ALL {
                if lib.size_up(ccell).is_some() {
                    moves.push(Move::ChildSize {
                        node: b,
                        dir,
                        child: c,
                        child_resize: Resize::Up,
                    });
                }
                if lib.size_down(ccell).is_some() {
                    moves.push(Move::ChildSize {
                        node: b,
                        dir,
                        child: c,
                        child_resize: Resize::Down,
                    });
                }
            }
        }
    }
    moves
}

/// The drivers whose fanout nets a move invalidates — the dirty roots
/// for `clk-sta`'s cone-limited incremental re-analysis. Computed on the
/// tree *before* the move is applied (the old parent of a type-III
/// reassignment is only known then); the returned set is sorted and
/// deduplicated.
///
/// Per move type:
/// - **I** (`SizeDisplace`): the node's own net (its location anchors
///   the routes to its children; its cell drives them) and its parent's
///   net (the route to the node and the node's input cap change).
/// - **II** (`ChildSize`): type I's set plus the resized child's own
///   net (its driving cell changes).
/// - **III** (`Reassign`): the old parent's net (loses the node) and
///   the new parent's net (gains it). The node's own routes to its
///   children are untouched — its changed arrival cascades through the
///   incremental descent, not the dirty set.
///
/// Everything further down the cone is discovered by the incremental
/// walk itself, which descends exactly where arrivals/slews change.
///
/// The set is load-bearing, not a hint: the incremental analysis
/// extracts only these drivers' nets (and new drivers') again, and every
/// other net it re-times reuses the wire parasitics cached from before
/// the move. It must therefore name every driver whose children, child
/// routes or child pin caps the move changes; a driver it misses keeps
/// stale parasitics without any error.
pub fn touched_drivers(tree: &ClockTree, mv: &Move) -> Vec<NodeId> {
    let mut dirty = Vec::with_capacity(3);
    match *mv {
        Move::SizeDisplace { node, .. } => {
            dirty.extend(tree.parent(node));
            dirty.push(node);
        }
        Move::ChildSize { node, child, .. } => {
            dirty.extend(tree.parent(node));
            dirty.push(node);
            dirty.push(child);
        }
        Move::Reassign { node, new_parent } => {
            dirty.extend(tree.parent(node));
            dirty.push(new_parent);
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// Applies a move in place (with legalized displacement).
///
/// # Errors
///
/// Propagates [`TreeError`] from the underlying edit (e.g. a stale move
/// after other edits).
pub fn apply_move(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    cfg: &MoveConfig,
    mv: &Move,
) -> Result<(), TreeError> {
    let step = um_to_dbu(cfg.displace_um);
    let resize_cell = |tree: &ClockTree, n: NodeId, r: Resize| {
        let cur = tree.cell(n).expect("buffer");
        match r {
            Resize::None => Some(cur),
            Resize::Up => lib.size_up(cur),
            Resize::Down => lib.size_down(cur),
        }
    };
    match *mv {
        Move::SizeDisplace { node, dir, resize } => {
            if let Some(d) = dir {
                let target = fp.legalize(tree.loc(node).step(d, step));
                tree.move_node(node, target)?;
            }
            if resize != Resize::None {
                let cell = resize_cell(tree, node, resize).ok_or(TreeError::NotABuffer(node))?;
                tree.set_cell(node, cell)?;
            }
            Ok(())
        }
        Move::ChildSize {
            node,
            dir,
            child,
            child_resize,
        } => {
            let target = fp.legalize(tree.loc(node).step(dir, step));
            tree.move_node(node, target)?;
            let cell =
                resize_cell(tree, child, child_resize).ok_or(TreeError::NotABuffer(child))?;
            tree.set_cell(child, cell)
        }
        Move::Reassign { node, new_parent } => tree.set_parent(node, new_parent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_geom::Point;
    use clk_liberty::{CellId, StdCorners};

    fn setup() -> (ClockTree, Library, Floorplan) {
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let fp = Floorplan::open(clk_geom::Rect::from_um(0.0, 0.0, 500.0, 500.0));
        let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
        let mut t = ClockTree::new(Point::from_um(0.0, 0.0), CellId(4));
        let a = t.add_node(NodeKind::Buffer(x4), Point::from_um(100.0, 100.0), t.root());
        let b1 = t.add_node(NodeKind::Buffer(x4), Point::from_um(200.0, 100.0), a);
        let b2 = t.add_node(NodeKind::Buffer(x4), Point::from_um(210.0, 130.0), a);
        let _s1 = t.add_node(NodeKind::Sink, Point::from_um(220.0, 110.0), b1);
        let _s2 = t.add_node(NodeKind::Sink, Point::from_um(300.0, 130.0), b2);
        (t, lib, fp)
    }

    #[test]
    fn enumerate_covers_all_types() {
        let (t, lib, _fp) = setup();
        let moves = enumerate_moves(&t, &lib, &MoveConfig::default(), None);
        let t1 = moves.iter().filter(|m| m.move_type() == 1).count();
        let t2 = moves.iter().filter(|m| m.move_type() == 2).count();
        let t3 = moves.iter().filter(|m| m.move_type() == 3).count();
        // type I: 3 buffers × (3 resizes × 8 dirs + 2 sizing-only) = 78
        assert_eq!(t1, 78, "type I count");
        // type II: buffer a has 2 buffer children × 8 dirs × 2 sizings = 32
        assert_eq!(t2, 32, "type II count");
        // type III: s1 (driven by level-2 b1) can be reassigned to the
        // level-2 buffer b2 sitting inside its 50 µm surgery box
        assert_eq!(t3, 1, "type III count: {moves:?}");
        assert!(moves
            .iter()
            .any(|m| matches!(m, Move::Reassign { node, new_parent }
                if t.node(*node).kind == NodeKind::Sink && *new_parent == t.buffers().nth(2).unwrap())));
    }

    #[test]
    fn type3_respects_box() {
        let (mut t, lib, _fp) = setup();
        // move b2 far away: no longer within b1's 50 µm surgery box
        let b2 = t.buffers().nth(2).unwrap();
        t.move_node(b2, Point::from_um(400.0, 400.0)).unwrap();
        let moves = enumerate_moves(&t, &lib, &MoveConfig::default(), None);
        assert_eq!(moves.iter().filter(|m| m.move_type() == 3).count(), 0);
    }

    #[test]
    fn size_limits_respected() {
        let (mut t, lib, _fp) = setup();
        let b1 = t.buffers().nth(1).unwrap();
        let x16 = lib.cell_by_name("CLKINV_X16").unwrap();
        t.set_cell(b1, x16).unwrap();
        let moves = enumerate_moves(&t, &lib, &MoveConfig::default(), Some(&[b1]));
        assert!(
            !moves.iter().any(|m| matches!(
                m,
                Move::SizeDisplace { node, resize: Resize::Up, .. } if *node == b1
            )),
            "cannot upsize the largest cell"
        );
    }

    #[test]
    fn apply_each_kind() {
        let (mut t, lib, fp) = setup();
        let cfg = MoveConfig::default();
        let a = t.buffers().next().unwrap();
        let before = t.loc(a);
        apply_move(
            &mut t,
            &lib,
            &fp,
            &cfg,
            &Move::SizeDisplace {
                node: a,
                dir: Some(Direction::NorthEast),
                resize: Resize::Up,
            },
        )
        .unwrap();
        t.validate().unwrap();
        assert_ne!(t.loc(a), before);
        assert_eq!(t.cell(a), Some(CellId(3)));

        let b1 = t.buffers().nth(1).unwrap();
        let b2 = t.buffers().nth(2).unwrap();
        apply_move(
            &mut t,
            &lib,
            &fp,
            &cfg,
            &Move::Reassign {
                node: b2,
                new_parent: b1,
            },
        )
        .unwrap();
        t.validate().unwrap();
        assert_eq!(t.parent(b2), Some(b1));
    }

    #[test]
    fn move_display_is_informative() {
        let m1 = Move::SizeDisplace {
            node: NodeId(3),
            dir: Some(Direction::NorthEast),
            resize: Resize::Up,
        };
        assert_eq!(m1.to_string(), "I:n3 move NE Up");
        let m3 = Move::Reassign {
            node: NodeId(4),
            new_parent: NodeId(9),
        };
        assert_eq!(m3.to_string(), "III:n4 -> n9");
        assert_eq!(m1.move_type(), 1);
        assert_eq!(m3.move_type(), 3);
        assert_eq!(m3.primary_node(), NodeId(4));
    }

    #[test]
    fn move_ledger_round_trip() {
        let moves = [
            Move::SizeDisplace {
                node: NodeId(3),
                dir: Some(Direction::SouthWest),
                resize: Resize::Up,
            },
            Move::SizeDisplace {
                node: NodeId(5),
                dir: None,
                resize: Resize::Down,
            },
            Move::ChildSize {
                node: NodeId(1),
                dir: Direction::North,
                child: NodeId(2),
                child_resize: Resize::Down,
            },
            Move::Reassign {
                node: NodeId(4),
                new_parent: NodeId(9),
            },
        ];
        for mv in moves {
            assert_eq!(Move::from_ledger_rec(&mv.to_ledger_rec()), Some(mv));
        }
        assert!(Move::from_ledger_rec(&clk_obs::MoveRec {
            t: 7,
            node: 0,
            dir: None,
            resize: "none".to_string(),
            child: None,
            new_parent: None,
        })
        .is_none());
        assert!(Move::from_ledger_rec(&clk_obs::MoveRec {
            t: 1,
            node: 0,
            dir: Some(8),
            resize: "none".to_string(),
            child: None,
            new_parent: None,
        })
        .is_none());
    }

    #[test]
    fn targets_filter_respected() {
        let (t, lib, _fp) = setup();
        let b1 = t.buffers().nth(1).unwrap();
        let moves = enumerate_moves(&t, &lib, &MoveConfig::default(), Some(&[b1]));
        assert!(moves.iter().all(|m| m.primary_node() == b1));
    }
}
