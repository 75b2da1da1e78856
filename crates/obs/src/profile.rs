//! Performance attribution: cheap deterministic micro-timers.
//!
//! Spans ([`crate::SpanGuard`]) are the *event* layer: each open/close
//! emits a record to every sink, which is far too heavy for a simplex
//! pivot loop that executes thousands of times per solve. The
//! [`Profiler`] is the *aggregation* layer: a scope costs two short
//! mutex sections and two reads of the sanctioned wall clock
//! ([`crate::wall_now`]), and accumulates directly into an in-memory
//! attribution tree — no per-event allocation, no sink traffic.
//!
//! Determinism contract: profiling never feeds back into any
//! algorithmic decision. Scope *counts* and the tree *shape* are
//! deterministic for a fixed seed; only the recorded durations vary
//! run to run. The report gate (`clk-bench --bin gate`) relies on exactly
//! that split (counts are gated hard, times are informational).
//!
//! Scope nesting is tracked per thread (like spans): a scope opened on
//! a worker thread roots its own subtree unless the worker opened an
//! enclosing scope. The snapshot ([`Profiler::tree`]) merges every
//! thread's accumulation into one [`AttrNode`] tree with self/total
//! time and counts, exportable as Brendan-Gregg folded stacks
//! ([`to_folded`]) which both inferno and speedscope import directly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Value;
use crate::wall_now;

const ROOT: usize = 0;
const NS_PER_US: u64 = 1_000;

#[derive(Debug)]
struct Node {
    name: String,
    children: BTreeMap<String, usize>,
    total_ns: u64,
    count: u64,
}

impl Node {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            children: BTreeMap::new(),
            total_ns: 0,
            count: 0,
        }
    }
}

#[derive(Debug)]
struct ProfInner {
    arena: Mutex<Vec<Node>>,
}

// clk-analyze: allow(A004) profiler scopes nest per thread by design; the stack is telemetry state, never an algorithmic input
thread_local! {
    /// Stack of `(profiler identity, node index)` for every scope open
    /// on this thread. Tagging with the profiler identity keeps two
    /// live profilers (e.g. in tests) from cross-linking their trees.
    static PROF_STACK: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Handle to an attribution profiler.
///
/// Cheap to clone and share across threads; the disabled handle (the
/// default) costs one `Option` check per instrumentation point, same
/// as a disabled [`crate::Obs`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl Profiler {
    /// A disabled profiler (same as `Profiler::default()`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled profiler with an empty attribution tree.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(ProfInner {
                arena: Mutex::new(vec![Node::new("")]),
            })),
        }
    }

    /// Whether scopes will be recorded at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn tag(inner: &Arc<ProfInner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    /// Opens a micro-timer scope named `name`, nested under the scope
    /// currently open on this thread (or rooting a new subtree).
    #[inline]
    pub fn scope(&self, name: &str) -> ProfGuard {
        let Some(inner) = &self.inner else {
            return ProfGuard { active: None };
        };
        let tag = Self::tag(inner);
        let parent = PROF_STACK
            .with(|s| s.borrow().iter().rev().find(|e| e.0 == tag).map(|e| e.1))
            .unwrap_or(ROOT);
        let idx = {
            let mut arena = inner
                .arena
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match arena[parent].children.get(name) {
                Some(&idx) => idx,
                None => {
                    let idx = arena.len();
                    arena.push(Node::new(name));
                    arena[parent].children.insert(name.to_string(), idx);
                    idx
                }
            }
        };
        PROF_STACK.with(|s| s.borrow_mut().push((tag, idx)));
        ProfGuard {
            active: Some(ActiveScope {
                prof: self.clone(),
                tag,
                idx,
                start: wall_now(),
            }),
        }
    }

    /// Snapshot of the attribution tree. The returned root is
    /// synthetic (empty name); its children are the top-level scopes.
    /// Disabled profilers return an empty root.
    pub fn tree(&self) -> AttrNode {
        let Some(inner) = &self.inner else {
            return AttrNode::root();
        };
        let arena = inner
            .arena
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        fn build(arena: &[Node], idx: usize) -> AttrNode {
            let n = &arena[idx];
            AttrNode {
                name: n.name.clone(),
                total_ns: n.total_ns,
                count: n.count,
                children: n.children.values().map(|&c| build(arena, c)).collect(),
            }
        }
        build(&arena, ROOT)
    }
}

#[derive(Debug)]
struct ActiveScope {
    prof: Profiler,
    tag: usize,
    idx: usize,
    start: Instant,
}

/// RAII guard for an open profiler scope. Dropping it adds the elapsed
/// wall time (and one count) to the scope's tree node.
#[must_use = "dropping the guard immediately closes the scope"]
#[derive(Debug)]
pub struct ProfGuard {
    active: Option<ActiveScope>,
}

impl ProfGuard {
    pub(crate) fn noop() -> Self {
        Self { active: None }
    }

    /// Whether this guard belongs to an enabled profiler.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let elapsed_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        PROF_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // scopes are lexically nested so drops are LIFO; tolerate misuse
            if let Some(pos) = stack.iter().rposition(|&e| e == (a.tag, a.idx)) {
                stack.remove(pos);
            }
        });
        if let Some(inner) = &a.prof.inner {
            let mut arena = inner
                .arena
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let node = &mut arena[a.idx];
            node.total_ns = node.total_ns.saturating_add(elapsed_ns);
            node.count += 1;
        }
    }
}

/// One node of an attribution tree: total (inclusive) time, entry
/// count, and children sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrNode {
    pub name: String,
    /// Inclusive wall time, nanoseconds.
    pub total_ns: u64,
    /// Number of times the scope was entered (0 for synthetic nodes).
    pub count: u64,
    /// Child scopes, sorted by name.
    pub children: Vec<AttrNode>,
}

impl AttrNode {
    /// An empty synthetic root.
    pub fn root() -> Self {
        Self {
            name: String::new(),
            total_ns: 0,
            count: 0,
            children: Vec::new(),
        }
    }

    /// Inclusive time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Sum of the children's inclusive times, nanoseconds.
    pub fn child_total_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }

    /// Exclusive (self) time, nanoseconds: inclusive minus children.
    /// Saturates at zero (children on other threads can overlap).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_total_ns())
    }

    /// Exclusive (self) time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns() as f64 / 1e6
    }

    /// Fraction of this node's inclusive time attributed to children
    /// (1.0 for leaves and zero-time nodes).
    pub fn coverage(&self) -> f64 {
        if self.children.is_empty() || self.total_ns == 0 {
            1.0
        } else {
            self.child_total_ns() as f64 / self.total_ns as f64
        }
    }

    /// Child with `name`, if any.
    pub fn child(&self, name: &str) -> Option<&AttrNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Descends `path` from this node.
    pub fn get(&self, path: &[&str]) -> Option<&AttrNode> {
        let mut cur = self;
        for seg in path {
            cur = cur.child(seg)?;
        }
        Some(cur)
    }

    /// First node named `name` in depth-first order (self included).
    pub fn find(&self, name: &str) -> Option<&AttrNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sum of `total_ns` over every node named `name` (for scopes that
    /// root in several places, e.g. per-worker-thread subtrees).
    pub fn total_ns_of(&self, name: &str) -> u64 {
        let own = if self.name == name { self.total_ns } else { 0 };
        own + self
            .children
            .iter()
            .map(|c| c.total_ns_of(name))
            .sum::<u64>()
    }

    /// JSON encoding (schema mirrors the struct).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("total_ns".to_string(), Value::Num(self.total_ns as f64)),
            ("count".to_string(), Value::Num(self.count as f64)),
            (
                "children".to_string(),
                Value::Arr(self.children.iter().map(AttrNode::to_json).collect()),
            ),
        ])
    }

    /// Decodes [`to_json`](Self::to_json) output.
    pub fn from_json(v: &Value) -> Option<Self> {
        let name = v.get("name")?.as_str()?.to_string();
        let total_ns = v.get("total_ns")?.as_f64()? as u64;
        let count = v.get("count")?.as_f64()? as u64;
        let children = match v.get("children") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(AttrNode::from_json)
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        Some(Self {
            name,
            total_ns,
            count,
            children,
        })
    }

    fn sort(&mut self) {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in &mut self.children {
            c.sort();
        }
    }
}

/// Exports an attribution tree as folded stacks (one line per node
/// with nonzero self time: `frame;frame;frame weight`), weight in
/// whole microseconds. The format both `inferno-flamegraph` and
/// speedscope import directly. `root` is treated as synthetic and not
/// emitted as a frame.
pub fn to_folded(root: &AttrNode) -> String {
    fn walk(node: &AttrNode, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        if !path.is_empty() {
            let self_us = node.self_ns() / NS_PER_US;
            if self_us > 0 {
                out.push_str(&path);
                out.push(' ');
                out.push_str(&self_us.to_string());
                out.push('\n');
            }
        }
        for c in &node.children {
            walk(c, &path, out);
        }
    }
    let mut out = String::new();
    walk(root, "", &mut out);
    out
}

/// Parses folded stacks back into an attribution tree (weights become
/// self time in microseconds; counts are not representable in the
/// format and come back as 0). Malformed lines are skipped.
pub fn from_folded(s: &str) -> AttrNode {
    let mut root = AttrNode::root();
    for line in s.lines() {
        let Some((stack, weight)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(weight_us) = weight.trim().parse::<u64>() else {
            continue;
        };
        if stack.is_empty() {
            continue;
        }
        let add_ns = weight_us.saturating_mul(NS_PER_US);
        let mut cur = &mut root;
        cur.total_ns = cur.total_ns.saturating_add(add_ns);
        for frame in stack.split(';') {
            let pos = match cur.children.iter().position(|c| c.name == frame) {
                Some(p) => p,
                None => {
                    cur.children.push(AttrNode {
                        name: frame.to_string(),
                        total_ns: 0,
                        count: 0,
                        children: Vec::new(),
                    });
                    cur.children.len() - 1
                }
            };
            cur = &mut cur.children[pos];
            cur.total_ns = cur.total_ns.saturating_add(add_ns);
        }
    }
    root.sort();
    root.total_ns = 0; // the synthetic root carries no time of its own
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let g = p.scope("x");
        assert!(!g.is_active());
        drop(g);
        let t = p.tree();
        assert!(t.children.is_empty());
    }

    #[test]
    fn scopes_nest_and_aggregate() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            let _outer = p.scope("solve");
            let _inner = p.scope("pricing");
        }
        {
            let _outer = p.scope("solve");
            let _inner = p.scope("update");
        }
        let t = p.tree();
        let solve = t.child("solve").expect("solve node");
        assert_eq!(solve.count, 4);
        assert_eq!(solve.children.len(), 2);
        assert_eq!(solve.child("pricing").map(|n| n.count), Some(3));
        assert_eq!(solve.child("update").map(|n| n.count), Some(1));
        assert!(solve.total_ns >= solve.child_total_ns());
    }

    #[test]
    fn worker_threads_root_their_own_subtrees() {
        let p = Profiler::enabled();
        let _main = p.scope("main");
        std::thread::scope(|s| {
            for _ in 0..2 {
                let p = p.clone();
                // clk-analyze: allow(A101) PROF_STACK is thread_local; this test pins exactly that per-thread isolation
                s.spawn(move || {
                    let _g = p.scope("worker.eval");
                });
            }
        });
        let t = p.tree();
        // worker scopes did not nest under "main" (different threads)
        assert_eq!(t.child("worker.eval").map(|n| n.count), Some(2));
        assert!(t
            .child("main")
            .is_some_and(|m| m.child("worker.eval").is_none()));
    }

    #[test]
    fn two_profilers_do_not_cross_link() {
        let a = Profiler::enabled();
        let b = Profiler::enabled();
        let _ga = a.scope("a.outer");
        let _gb = b.scope("b.scope");
        drop(a.scope("a.inner"));
        let tb = b.tree();
        assert!(tb.find("a.inner").is_none());
        let ta = a.tree();
        assert!(ta.get(&["a.outer", "a.inner"]).is_some());
    }

    fn leaf(name: &str, self_us: u64) -> AttrNode {
        AttrNode {
            name: name.to_string(),
            total_ns: self_us * NS_PER_US,
            count: 1,
            children: Vec::new(),
        }
    }

    #[test]
    fn folded_round_trips_weights() {
        let tree = AttrNode {
            name: String::new(),
            total_ns: 0,
            count: 0,
            children: vec![AttrNode {
                name: "lp.solve".to_string(),
                total_ns: 100 * NS_PER_US,
                count: 2,
                children: vec![leaf("pricing", 40), leaf("ratio_test", 35)],
            }],
        };
        let folded = to_folded(&tree);
        assert_eq!(
            folded,
            "lp.solve 25\nlp.solve;pricing 40\nlp.solve;ratio_test 35\n"
        );
        let back = from_folded(&folded);
        assert_eq!(to_folded(&back), folded);
        assert_eq!(
            back.child("lp.solve").map(|n| n.total_ns),
            Some(tree.children[0].total_ns)
        );
    }
}
