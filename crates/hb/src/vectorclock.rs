//! Vector-clock reachability — the baseline DCatch rejects.
//!
//! Paper §3.2.2: "Naively computing and comparing the vector-timestamps of
//! every pair of vertices would be too slow. Note that each vector
//! time-stamp will have a huge number of dimensions, with each event
//! handler and RPC function contributing one dimension."
//!
//! This module implements exactly that baseline so the claim is testable:
//! every program-order group (regular thread, or one handler instance) is
//! a clock dimension; a vertex's clock is the pointwise maximum of its
//! predecessors' clocks plus its own tick. `a ⇒ b` iff `VC(a) ≤ VC(b)`
//! pointwise and `a`'s own component is no greater. The
//! `reachability_index` bench group times it, and a property test checks
//! it against a DFS closure.

use std::collections::BTreeMap;

use dcatch_trace::{ExecCtx, TaskId};

use crate::graph::HbAnalysis;

/// Vector-clock index over an HB graph.
pub struct VectorClocks {
    /// Clock dimension of each vertex's program-order group.
    dim_of: Vec<usize>,
    /// Position of each vertex within its group (its "time").
    tick_of: Vec<u64>,
    /// One clock per vertex; `clocks[v][d]` = latest tick of dimension `d`
    /// known to happen before (or at) `v`.
    clocks: Vec<Vec<u64>>,
}

impl VectorClocks {
    /// Computes vector clocks for every vertex of `hb`.
    ///
    /// Dimensions: one per `(task, ctx)` program-order group — each event
    /// handler instance and each RPC invocation gets its own dimension,
    /// exactly the growth the paper warns about.
    pub fn compute(hb: &HbAnalysis) -> VectorClocks {
        let _span = dcatch_obs::span!("hb.vectorclock");
        let records = hb.trace().records();
        let n = records.len();
        let mut dims: BTreeMap<(TaskId, ExecCtx), usize> = BTreeMap::new();
        let mut dim_of = Vec::with_capacity(n);
        let mut tick_of = vec![0u64; n];
        let mut ticks_seen: Vec<u64> = Vec::new();
        for r in records {
            let next = dims.len();
            let d = *dims.entry((r.task, r.ctx)).or_insert(next);
            if d == ticks_seen.len() {
                ticks_seen.push(0);
            }
            ticks_seen[d] += 1;
            dim_of.push(d);
            tick_of[dim_of.len() - 1] = ticks_seen[d];
        }
        let dims_total = dims.len();

        // forward sweep in sequence order: every edge points forward, so
        // all predecessors are finished before their successors
        let mut clocks = vec![vec![0u64; dims_total]; n];
        // build predecessor lists once
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            for (s, _) in hb.successors(v) {
                preds[s].push(v);
            }
        }
        dcatch_obs::counter!("hb_vc_allocations_total").add(n as u64);
        dcatch_obs::counter!("hb_vc_joins_total")
            .add(preds.iter().map(Vec::len).sum::<usize>() as u64);
        for v in 0..n {
            let (before, rest) = clocks.split_at_mut(v);
            let clock = &mut rest[0];
            for &p in &preds[v] {
                for d in 0..dims_total {
                    clock[d] = clock[d].max(before[p][d]);
                }
            }
            let d = dim_of[v];
            clock[d] = clock[d].max(tick_of[v]);
        }
        VectorClocks {
            dim_of,
            tick_of,
            clocks,
        }
    }

    /// Number of clock dimensions (program-order groups).
    pub fn dimensions(&self) -> usize {
        self.clocks.first().map_or(0, Vec::len)
    }

    /// Whether vertex `a` happens before vertex `b` under the clocks.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        // a ⇒ b iff b's clock has seen a's tick in a's dimension
        self.clocks[b][self.dim_of[a]] >= self.tick_of[a]
    }

    /// Whether `a` and `b` are concurrent.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }

    /// Estimated memory of the clock index in bytes — `n × dims × 8`,
    /// typically far above the bit matrix's `n²/8` once handlers
    /// proliferate, and with much worse constants to build.
    pub fn estimated_bytes(&self) -> usize {
        self.clocks.len() * self.dimensions() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HbConfig;
    use dcatch_model::{FuncId, NodeId, StmtId};
    use dcatch_trace::{CallStack, OpKind, Record, TraceSet};

    fn task(i: u32) -> TaskId {
        TaskId {
            node: NodeId(0),
            index: i,
        }
    }

    fn rec(seq: u64, t: TaskId, kind: OpKind) -> Record {
        Record {
            seq,
            task: t,
            ctx: ExecCtx::Regular,
            kind,
            stack: CallStack(vec![StmtId {
                func: FuncId(0),
                idx: seq as u32,
            }]),
        }
    }

    #[test]
    fn agrees_with_hb_analysis_on_fork_join() {
        let parent = task(0);
        let child = task(1);
        let trace: TraceSet = vec![
            rec(0, parent, OpKind::ThreadCreate { child }),
            rec(1, child, OpKind::ThreadBegin),
            rec(2, child, OpKind::ThreadEnd),
            rec(3, parent, OpKind::ThreadJoin { child }),
        ]
        .into_iter()
        .collect();
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let vc = VectorClocks::compute(&hb);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    hb.happens_before(a, b),
                    vc.happens_before(a, b),
                    "disagreement at ({a},{b})"
                );
            }
        }
        assert_eq!(vc.dimensions(), 2);
    }

    #[test]
    fn unrelated_tasks_are_concurrent() {
        let trace: TraceSet = vec![
            rec(0, task(0), OpKind::ThreadBegin),
            rec(1, task(1), OpKind::ThreadBegin),
        ]
        .into_iter()
        .collect();
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let vc = VectorClocks::compute(&hb);
        assert!(vc.concurrent(0, 1));
        assert!(!vc.happens_before(0, 0));
    }
}
