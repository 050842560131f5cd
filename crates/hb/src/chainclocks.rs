//! Chain-decomposition vector clocks — the reachability engine.
//!
//! The paper's dense reachable-set matrix answers `reaches(a, b)` in O(1)
//! but costs O(n²) bits
//! ([`BitMatrix::estimated_bytes`](crate::BitMatrix::estimated_bytes)),
//! which is exactly the scalability wall the paper hits on unselective
//! traces (§7.2, Table 8). This engine exploits the structure the HB
//! graph already has: the trace decomposes into *program-order chains* —
//! one per `(task, handler-instance)` group, the same grouping
//! `Preg`/`Pnreg` use — and within a chain every record happens-before
//! all its successors. Reachability from a chain is therefore always a
//! *prefix* of that chain, so one u32 frontier index per chain summarizes
//! everything a vertex can be reached from:
//!
//! > `clock[v][c]` = number of chain-`c` vertices that happen before
//! > (or are) `v`.
//!
//! `reaches(a, b)` becomes `clock[b][chain(a)] ≥ pos(a)`, memory is
//! `n × G × 4` bytes over G chains, and the index is exact for arbitrary
//! HB DAGs. G is small when a trace has few threads and handler instances
//! (20 chains for a 91k-record TaxDC full trace); on handler-heavy traces
//! it approaches n/3, and a clock row then outgrows a matrix row.
//! [`VectorClocks`](crate::VectorClocks) uses the same grouping for its
//! dimensions but 64-bit `Vec`-per-vertex rows and no incremental
//! maintenance.
//!
//! The set-based and optimal predictive race detectors this follows
//! (Roemer & Bond's set-based analysis; Pavlogiannis's "Fast, Sound and
//! Effectively Complete Dynamic Race Prediction") make the same bet:
//! compact per-event ordering summaries, not dense closure.
//!
//! Clocks are computed in the same forward pass that decides the HB edges
//! (every HB edge points forward in trace order, so predecessors are
//! complete before their successors) and *maintained* incrementally
//! afterwards: inserting a loop-sync edge `u ⇒ v` joins `u`'s clock into
//! `v`'s and pushes the growth forward through successors whose clocks
//! actually change — the affected suffix of each chain, never the whole
//! trace (see `HbAnalysis::add_edge_incremental`).

use std::collections::BTreeMap;

use dcatch_trace::TraceSet;

/// Per-vertex chain-frontier clocks over an HB graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainClocks {
    /// Number of chains (program-order groups), `G`.
    chains: usize,
    /// Chain of each vertex.
    chain_of: Vec<u32>,
    /// 1-based position of each vertex within its chain.
    pos_of: Vec<u32>,
    /// Flattened `n × G` clock rows; `clocks[v * G + c]` is the length of
    /// chain `c`'s prefix known to happen before (or be) vertex `v`.
    clocks: Vec<u32>,
}

impl ChainClocks {
    /// Estimated memory in bytes for `n` vertices over `g` chains — the
    /// clock rows dominate (`n × g × 4`); the two per-vertex index arrays
    /// are O(n) noise and excluded to keep the budget rule simple.
    pub fn estimated_bytes(n: usize, g: usize) -> usize {
        n.saturating_mul(g).saturating_mul(4)
    }

    /// Counts the program-order chains of `trace` — one per distinct
    /// `(task, execution-context)` pair, the `Preg`/`Pnreg` grouping.
    pub fn chain_count(trace: &TraceSet) -> usize {
        let mut chains = BTreeMap::new();
        for r in trace.records() {
            let next = chains.len();
            chains.entry((r.task, r.ctx)).or_insert(next);
        }
        chains.len()
    }

    /// Creates the clock index with every vertex knowing only its own
    /// chain prefix (itself and, transitively via later joins, nothing
    /// yet). The caller folds HB edges in with [`ChainClocks::join_from`]
    /// in increasing vertex order.
    pub fn new(trace: &TraceSet) -> ChainClocks {
        let mut clocks = ChainClocks::layout(trace);
        for _ in 0..clocks.len() {
            clocks.push_row(None);
        }
        clocks
    }

    /// The chain layout of `trace` with no clock rows yet; [`push_row`]
    /// appends them in vertex order. The rows' memory is reserved but not
    /// touched, so each row is written once, when its vertex is built.
    ///
    /// [`push_row`]: ChainClocks::push_row
    pub(crate) fn layout(trace: &TraceSet) -> ChainClocks {
        let n = trace.len();
        let mut chains: BTreeMap<_, u32> = BTreeMap::new();
        let mut chain_of = Vec::with_capacity(n);
        let mut next_pos: Vec<u32> = Vec::new();
        let mut pos_of = Vec::with_capacity(n);
        for r in trace.records() {
            let next = chains.len() as u32;
            let c = *chains.entry((r.task, r.ctx)).or_insert(next);
            if c as usize == next_pos.len() {
                next_pos.push(0);
            }
            next_pos[c as usize] += 1;
            chain_of.push(c);
            pos_of.push(next_pos[c as usize]);
        }
        let g = chains.len();
        ChainClocks {
            chains: g,
            chain_of,
            pos_of,
            clocks: Vec::with_capacity(n * g),
        }
    }

    /// Appends the clock row of the next vertex `v`: a copy of vertex
    /// `from`'s row (an HB predecessor of `v`) or all zeros, plus `v`'s own
    /// position. A predecessor's entry on `v`'s chain counts records before
    /// it, so it is below `pos(v)` and the copy equals a join.
    pub(crate) fn push_row(&mut self, from: Option<usize>) {
        let g = self.chains;
        let v = self.clocks.len() / g;
        match from {
            Some(p) => self.clocks.extend_from_within(p * g..(p + 1) * g),
            None => self.clocks.resize((v + 1) * g, 0),
        }
        self.clocks[v * g + self.chain_of[v] as usize] = self.pos_of[v];
    }

    /// Number of chains, `G`.
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.chain_of.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.chain_of.is_empty()
    }

    /// Memory held by the clock rows, in bytes.
    pub fn bytes(&self) -> usize {
        self.clocks.len() * 4
    }

    /// Chain of vertex `v`.
    pub(crate) fn chain(&self, v: usize) -> usize {
        self.chain_of[v] as usize
    }

    /// Whether `a` happens before (or is) `b`: `b`'s frontier on `a`'s
    /// chain covers `a`'s position. Callers that need strict ordering
    /// guard `a != b` themselves.
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        let g = self.chains;
        self.clocks[b * g + self.chain_of[a] as usize] >= self.pos_of[a]
    }

    /// Joins vertex `src`'s clock into `dst`'s (elementwise max), the
    /// propagation step for an HB edge `src ⇒ dst`. Returns whether any
    /// frontier of `dst` actually advanced — the early-exit signal that
    /// stops incremental propagation.
    pub fn join_from(&mut self, src: usize, dst: usize) -> bool {
        debug_assert!(src != dst, "self-joins are meaningless");
        let g = self.chains;
        let (s, d) = (src * g, dst * g);
        let (from, into) = if s < d {
            let (left, right) = self.clocks.split_at_mut(d);
            (&left[s..s + g], &mut right[..g])
        } else {
            let (left, right) = self.clocks.split_at_mut(s);
            (&right[..g], &mut left[d..d + g])
        };
        // branch-free so the loop vectorizes: `grew` is nonzero iff some
        // frontier of `into` advanced
        let mut grew = 0u32;
        for (to, &from) in into.iter_mut().zip(from) {
            grew |= from.saturating_sub(*to);
            *to = (*to).max(from);
        }
        grew != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::{FuncId, NodeId, StmtId};
    use dcatch_trace::{CallStack, ExecCtx, OpKind, Record, TaskId};

    fn task(i: u32) -> TaskId {
        TaskId {
            node: NodeId(0),
            index: i,
        }
    }

    fn rec(seq: u64, t: TaskId) -> Record {
        Record {
            seq,
            task: t,
            ctx: ExecCtx::Regular,
            kind: OpKind::ThreadBegin,
            stack: CallStack(vec![StmtId {
                func: FuncId(0),
                idx: seq as u32,
            }]),
        }
    }

    fn two_chain_trace() -> TraceSet {
        // chain 0: vertices 0, 2 — chain 1: vertices 1, 3
        vec![
            rec(0, task(0)),
            rec(1, task(1)),
            rec(2, task(0)),
            rec(3, task(1)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn own_chain_prefix_is_reachable() {
        let trace = two_chain_trace();
        let mut cc = ChainClocks::new(&trace);
        assert_eq!(cc.chains(), 2);
        assert_eq!(cc.len(), 4);
        // program order within a chain must be joined in by the caller
        cc.join_from(0, 2);
        cc.join_from(1, 3);
        assert!(cc.reaches(0, 2));
        assert!(!cc.reaches(2, 0));
        assert!(!cc.reaches(0, 1) && !cc.reaches(1, 0));
        assert!(cc.reaches(0, 0), "reflexive, guarded by callers");
    }

    #[test]
    fn join_propagates_cross_chain_frontiers() {
        let trace = two_chain_trace();
        let mut cc = ChainClocks::new(&trace);
        cc.join_from(0, 2);
        cc.join_from(1, 3);
        // edge 2 ⇒ 3 carries chain-0's prefix of length 2 into vertex 3
        assert!(cc.join_from(2, 3));
        assert!(cc.reaches(0, 3) && cc.reaches(2, 3));
        assert!(!cc.join_from(2, 3), "second join is a no-op");
        // dst-to-src direction of the split borrow
        assert!(cc.join_from(3, 2));
        assert!(cc.reaches(1, 2));
    }

    #[test]
    fn estimated_bytes_is_n_times_g_u32s() {
        assert_eq!(ChainClocks::estimated_bytes(1000, 20), 80_000);
        // Table-8 regime: ~90k records over ~20 chains is a few MB where
        // the matrix needs ~1 GB
        assert!(ChainClocks::estimated_bytes(90_000, 20) < 8 * 1024 * 1024);
        assert!(
            crate::BitMatrix::estimated_bytes(90_000) > 512 * 1024 * 1024,
            "same scale blows the Table-8 matrix budget"
        );
    }

    #[test]
    fn chain_count_matches_new() {
        let trace = two_chain_trace();
        assert_eq!(ChainClocks::chain_count(&trace), 2);
        assert_eq!(ChainClocks::new(&trace).chains(), 2);
    }

    #[test]
    fn empty_trace() {
        let cc = ChainClocks::new(&TraceSet::new());
        assert!(cc.is_empty());
        assert_eq!(cc.bytes(), 0);
        assert_eq!(cc.chains(), 0);
    }
}
