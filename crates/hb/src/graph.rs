//! HB-graph construction and reachability queries (paper §3.2).

use std::collections::BTreeMap;
use std::fmt;

use dcatch_model::NodeId;
use dcatch_obs::{counter, gauge};
use dcatch_trace::TraceSet;

use crate::chainclocks::ChainClocks;
use crate::rules::{Builder, QueueKey, Rules};

/// No record yet on a chain.
const NONE: u32 = u32::MAX;

/// Which rule produced an edge (kept for explanations and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeRule {
    /// `Preg`/`Pnreg` program order.
    Program,
    /// `Tfork`: thread create → begin.
    Fork,
    /// `Tjoin`: thread end → join.
    Join,
    /// `Eenq`: event create → begin.
    Eenq,
    /// `Eserial`: serialized single-consumer event handling.
    Eserial,
    /// `Mrpc`: RPC create → begin / end → join.
    Mrpc,
    /// `Msoc`: socket send → recv.
    Msoc,
    /// `Mpush`: ZooKeeper update → pushed.
    Mpush,
    /// `Mpull` / loop-based custom synchronization (added by
    /// `dcatch-detect` after the focused re-run).
    LoopSync,
    /// Fault-injection ordering: everything a node did happens-before its
    /// `NodeCrash` record, and its `NodeRestart` record happens-before
    /// everything the reborn node does.
    Crash,
}

/// Configuration of the HB analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbConfig {
    /// Budget for the reachability index, in bytes. The paper's trace
    /// analysis "will run out of JVM memory (50 GB of RAM)" on unselective
    /// traces (Table 8); this reproduces that failure mode at laptop scale.
    pub memory_budget_bytes: usize,
}

impl Default for HbConfig {
    fn default() -> HbConfig {
        HbConfig {
            memory_budget_bytes: 1 << 30, // 1 GiB
        }
    }
}

/// Failure of the HB analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbError {
    /// The reachability index would exceed the configured budget — the
    /// Table 8 "Out of Memory" outcome.
    OutOfMemory {
        /// Bytes the index would need.
        needed: usize,
        /// Configured budget.
        budget: usize,
    },
}

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbError::OutOfMemory { needed, budget } => write!(
                f,
                "HB analysis out of memory: reachability index needs {needed} bytes (budget {budget})"
            ),
        }
    }
}

impl std::error::Error for HbError {}

/// The built HB graph plus its reachability index. Vertices are the trace
/// record indices (`0..trace.len()`), in sequence order.
pub struct HbAnalysis {
    trace: TraceSet,
    edges: Vec<Vec<(u32, EdgeRule)>>,
    /// Reverse adjacency, kept in lockstep with `edges`: used by the
    /// incremental reachability propagation and by `predecessors`.
    preds: Vec<Vec<(u32, EdgeRule)>>,
    reach: ChainClocks,
    edge_count: usize,
}

impl HbAnalysis {
    /// Builds the HB graph of `trace` and computes its reachability index.
    pub fn build(trace: TraceSet, config: &HbConfig) -> Result<HbAnalysis, HbError> {
        let _span = dcatch_obs::span!("hb.build");
        let n = trace.len();
        let needed = ChainClocks::estimated_bytes(n, ChainClocks::chain_count(&trace));
        let budget = config.memory_budget_bytes;
        gauge!("hb_reach_bytes_peak").set_max(needed as u64);
        if needed > budget {
            counter!("hb_oom_total").inc();
            return Err(HbError::OutOfMemory { needed, budget });
        }
        counter!("hb_nodes_total").add(n as u64);
        let mut a = HbAnalysis {
            // moved in after the pass; the rules borrow it meanwhile
            trace: TraceSet::new(),
            edges: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            reach: ChainClocks::layout(&trace),
            edge_count: 0,
        };
        // one forward pass: every predecessor of record `v` precedes it, so
        // its clock is final and `v`'s clock is complete once its edges are
        // joined in
        let mut rules = Rules::new(true);
        let mut last = vec![NONE; a.reach.chains()];
        for (v, r) in trace.records().iter().enumerate() {
            let chain = a.reach.chain(v);
            if last[chain] != NONE {
                a.link(last[chain] as usize, v, EdgeRule::Program);
            }
            let mut b = Offline {
                trace: &trace,
                a: &mut a,
                last: &last,
                v,
            };
            rules.apply(r, &mut b);
            a.join_preds(v);
            last[chain] = v as u32;
        }
        a.trace = trace;
        counter!("hb_edges_total").add(a.edge_count as u64);
        Ok(a)
    }

    /// The analyzed trace (possibly ablated by the caller).
    pub fn trace(&self) -> &TraceSet {
        &self.trace
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.trace.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Resident bytes of the reachability index.
    pub fn reach_bytes(&self) -> usize {
        self.reach.bytes()
    }

    /// Whether record `a` happens before record `b` (indices).
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        a != b && self.reach.reaches(a, b)
    }

    /// Whether records `a` and `b` are concurrent: neither ordered way.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.reach.reaches(a, b) && !self.reach.reaches(b, a)
    }

    /// Direct successors of a vertex.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        self.edges[v].iter().map(|&(t, r)| (t as usize, r))
    }

    /// Direct predecessors of a vertex.
    pub fn predecessors(&self, v: usize) -> Vec<(usize, EdgeRule)> {
        self.preds[v]
            .iter()
            .map(|&(u, r)| (u as usize, r))
            .collect()
    }

    /// A happens-before chain from `a` to `b`, if one exists: the list of
    /// `(vertex, rule-used-to-reach-it)` hops after `a`. Reconstructs the
    /// kind of causality chain the paper's Figure 3 walks through.
    pub fn explain(&self, a: usize, b: usize) -> Option<Vec<(usize, EdgeRule)>> {
        if !self.happens_before(a, b) {
            return None;
        }
        // BFS for a shortest chain.
        let mut prev: BTreeMap<usize, (usize, EdgeRule)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            if u == b {
                break;
            }
            for (t, r) in self.successors(u) {
                if t != a && !prev.contains_key(&t) {
                    prev.insert(t, (u, r));
                    queue.push_back(t);
                }
            }
        }
        let mut chain = Vec::new();
        let mut cur = b;
        while cur != a {
            let &(p, r) = prev.get(&cur)?;
            chain.push((cur, r));
            cur = p;
        }
        chain.reverse();
        Some(chain)
    }

    /// Renders the HB graph in Graphviz DOT form for debugging, with one
    /// cluster per task and edges labelled by rule. Intended for the small
    /// selective traces; `max_vertices` guards against dumping a full
    /// trace by accident.
    pub fn to_dot(&self, max_vertices: usize) -> String {
        use std::fmt::Write as _;
        let n = self.trace.len().min(max_vertices);
        let mut out =
            String::from("digraph hb {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n");
        let mut by_task: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().take(n).enumerate() {
            by_task.entry(r.task).or_default().push(i);
        }
        for (task, verts) in &by_task {
            let _ = writeln!(out, "  subgraph \"cluster_{task}\" {{");
            let _ = writeln!(out, "    label=\"{task}\";");
            for &v in verts {
                let r = &self.trace.records()[v];
                let stmt = r
                    .stmt()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".to_owned());
                let _ = writeln!(out, "    v{v} [label=\"#{v} {} {stmt}\"];", r.kind.tag());
            }
            let _ = writeln!(out, "  }}");
        }
        for v in 0..n {
            for (t, rule) in self.successors(v) {
                if t < n {
                    let _ = writeln!(out, "  v{v} -> v{t} [label=\"{rule:?}\", fontsize=8];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Adds extra edges (e.g. inferred `Mpull`/loop-sync causality) and
    /// folds each one into the reachability index incrementally — no
    /// full rebuild.
    pub fn add_edges_and_rebuild(&mut self, extra: &[(usize, usize)]) {
        let _span = dcatch_obs::span!("hb.reach.delta");
        for &(u, v) in extra {
            debug_assert!(u < self.trace.len() && v < self.trace.len());
            // HB edges must respect execution order for the sweep to work.
            let (u, v) = if self.trace.records()[u].seq <= self.trace.records()[v].seq {
                (u, v)
            } else {
                (v, u)
            };
            if u != v {
                self.add_edge_incremental(u, v, EdgeRule::LoopSync);
            }
        }
    }

    // -- construction ------------------------------------------------------

    fn push_edge(&mut self, u: usize, v: usize, rule: EdgeRule) {
        // records are indexed in sequence order
        debug_assert!(u < v, "HB edges must go forward in sequence order");
        self.edges[u].push((v as u32, rule));
        self.preds[v].push((u as u32, rule));
        self.edge_count += 1;
    }

    /// Build-time edge `u ⇒ v` into the record `v` being built. Edges
    /// arrive in increasing `v`, so a duplicate is always `u`'s latest
    /// edge; the first rule to order a pair names it.
    fn link(&mut self, u: usize, v: usize, rule: EdgeRule) {
        if self.edges[u].last().is_none_or(|&(t, _)| t as usize != v) {
            self.push_edge(u, v, rule);
        }
    }

    /// Builds `v`'s clock row from its predecessors' (all final). The row
    /// starts as a copy of the first predecessor's (the program-order one,
    /// if `v` has any); the rest are joined latest first and skipped when
    /// `v` already covers them — clocks are exact, so a covered
    /// predecessor's whole clock is already in. Serial chains (`Eserial`
    /// from every earlier handler of a queue) then cost one join, not one
    /// per edge.
    fn join_preds(&mut self, v: usize) {
        let preds = &self.preds[v];
        self.reach.push_row(preds.first().map(|&(p, _)| p as usize));
        for &(p, _) in preds.iter().skip(1).rev() {
            if !self.reach.reaches(p as usize, v) {
                self.reach.join_from(p as usize, v);
            }
        }
    }

    /// Adds `u → v` to an analysis whose reachability index is already
    /// computed, and repairs the index by delta propagation instead of a
    /// full sweep. Clocks are predecessor-closure frontiers, so `v` joins
    /// `u`'s clock and the growth is pushed forward through successors
    /// whose clocks actually advance.
    ///
    /// Correctness rests on the invariant that the index is transitively
    /// closed with respect to the current edge set: a successor that
    /// already covers the grown vertex's frontier stops propagation, and
    /// nothing beyond it can change either.
    fn add_edge_incremental(&mut self, u: usize, v: usize, rule: EdgeRule) -> bool {
        if self.edges[u].iter().any(|&(t, _)| t as usize == v) {
            return false;
        }
        self.push_edge(u, v, rule);
        counter!("hb_reach_delta_edges_total").inc();
        if !self.reach.join_from(u, v) {
            return true;
        }
        let mut work = vec![v];
        while let Some(w) = work.pop() {
            for &(t, _) in &self.edges[w] {
                if self.reach.join_from(w, t as usize) {
                    work.push(t as usize);
                }
            }
        }
        true
    }
}

/// The offline builder as the rules see it: cause sources are record
/// indices, and record `v` is the one being built.
struct Offline<'a> {
    trace: &'a TraceSet,
    a: &'a mut HbAnalysis,
    /// Latest record of each chain before `v` ([`NONE`] if none).
    last: &'a [u32],
    v: usize,
}

impl Builder for Offline<'_> {
    type Src = u32;

    fn source(&mut self) -> u32 {
        self.v as u32
    }

    fn join(&mut self, &u: &u32, rule: EdgeRule) {
        self.a.link(u as usize, self.v, rule);
    }

    fn reaches(&self, a: u32, &b: &u32) -> bool {
        self.a.reach.reaches(a as usize, b as usize)
    }

    fn join_node(&mut self, node: NodeId) {
        let own = self.a.reach.chain(self.v);
        let records = self.trace.records();
        let mut groups: Vec<_> = self
            .last
            .iter()
            .enumerate()
            .filter(|&(c, &p)| c != own && p != NONE)
            .map(|(_, &p)| (&records[p as usize], p))
            .filter(|(r, _)| r.task.node == node)
            .map(|(r, p)| ((r.task, r.ctx), p))
            .collect();
        // group-key order, so the predecessor list does not depend on the
        // order chains were first seen in
        groups.sort_unstable();
        for (_, p) in groups {
            self.join(&p, EdgeRule::Crash);
        }
    }

    fn first_in_group_after(&self, seq: u64) -> bool {
        let p = self.last[self.a.reach.chain(self.v)];
        p == NONE || self.trace.records()[p as usize].seq < seq
    }

    fn serial_queue(&mut self, event: u64) -> Option<QueueKey> {
        let (node, queue) = self.trace.event_queue(event)?;
        let single = self.trace.queue_info(*node, queue)?.is_single_consumer();
        single.then(|| (node.0, queue.to_owned()))
    }
}

#[cfg(test)]
mod tests;
