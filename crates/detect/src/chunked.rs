//! Chunked trace analysis — the paper's mitigation for huge traces.
//!
//! §7.2 (false-negative discussion): "DCatch may not process extremely
//! large traces. The scalability bottleneck of DCatch, when facing huge
//! traces, is its trace analysis… DCatch will need to chunk the traces and
//! conduct detection within each chunk, an approach used by previous
//! LCbug detection tools."
//!
//! [`find_candidates_chunked`] splits the trace into consecutive windows,
//! builds an HB graph per window (bounding the chain-clock index to
//! `chunk × min(chunk, G) × 4` bytes over `G` chains), and unions the
//! per-window candidates. The trade-offs are inherent to chunking and
//! documented here rather than hidden:
//!
//! * racing pairs whose accesses fall into *different* chunks are missed
//!   (false negatives);
//! * ordering chains that pass *through an earlier chunk* are invisible,
//!   so a within-chunk pair can be reported although the full graph orders
//!   it (false positives).

use dcatch_hb::{HbAnalysis, HbConfig, HbError};
use dcatch_trace::TraceSet;

use crate::candidates::{find_candidates, CandidateSet};

/// Outcome of a chunked analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// Number of chunks analyzed.
    pub chunks: usize,
    /// Records in the largest chunk.
    pub largest_chunk: usize,
    /// Peak reachability-index bytes across chunks (`len × G × 4` for a
    /// chunk of `len` records over `G` chains).
    pub peak_reach_bytes: usize,
}

/// Runs candidate detection chunk by chunk. `chunk_records` bounds the
/// per-chunk reachability index; the per-chunk analyses still honour
/// `config.memory_budget_bytes`, so pick `chunk_records` with
/// `ChainClocks::estimated_bytes(chunk_records, chunk_records.min(G))`
/// within the budget.
pub fn find_candidates_chunked(
    trace: &TraceSet,
    config: &HbConfig,
    chunk_records: usize,
) -> Result<(CandidateSet, ChunkStats), HbError> {
    assert!(chunk_records > 0, "chunk size must be positive");
    let n = trace.len();
    if n == 0 {
        return Ok((
            CandidateSet::default(),
            ChunkStats {
                chunks: 0,
                largest_chunk: 0,
                peak_reach_bytes: 0,
            },
        ));
    }
    let mut merged = CandidateSet::default();
    let mut stats = ChunkStats {
        chunks: 0,
        largest_chunk: 0,
        peak_reach_bytes: 0,
    };
    let records = trace.records();
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk_records).min(n);
        let lo = records[start].seq;
        let hi = records[end - 1].seq;
        let chunk = trace.filtered(|r| (lo..=hi).contains(&r.seq));
        let len = chunk.len();
        stats.chunks += 1;
        stats.largest_chunk = stats.largest_chunk.max(len);
        let hb = HbAnalysis::build(chunk, config)?;
        stats.peak_reach_bytes = stats.peak_reach_bytes.max(hb.reach_bytes());
        for mut c in find_candidates(&hb) {
            // remap chunk-local record indices to the full trace; the
            // map-backed set dedups static pairs in O(log n)
            c.rep.0.index += start;
            c.rep.1.index += start;
            merged.merge(c);
        }
        start = end;
    }
    Ok((merged, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_hb::ChainClocks;
    use dcatch_model::{Expr, FuncKind, ProgramBuilder};
    use dcatch_sim::{SimConfig, Topology, World};

    fn racy_trace() -> TraceSet {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.spawn_detached("w", vec![]);
            b.read("x", "cell");
        });
        pb.func("w", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(1));
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        World::run_once(&p, &topo, SimConfig::default().with_full_tracing())
            .unwrap()
            .trace
    }

    #[test]
    fn one_big_chunk_equals_unchunked() {
        let trace = racy_trace();
        let hb = HbAnalysis::build(trace.clone(), &HbConfig::default()).unwrap();
        let whole = find_candidates(&hb);
        let (chunked, stats) =
            find_candidates_chunked(&trace, &HbConfig::default(), trace.len()).unwrap();
        assert_eq!(stats.chunks, 1);
        assert_eq!(chunked.static_pair_count(), whole.static_pair_count());
    }

    #[test]
    fn chunking_fits_under_a_budget_that_ooms_the_whole_trace() {
        let trace = racy_trace();
        let n = trace.len();
        // a budget the whole trace cannot fit, but 1/4-size chunks can:
        // a chunk of n/4 records spans at most min(n/4, G) chains
        let g = ChainClocks::chain_count(&trace);
        let chunk = n / 4;
        let budget = ChainClocks::estimated_bytes(chunk, chunk.min(g));
        let cfg = HbConfig {
            memory_budget_bytes: budget,
        };
        assert!(
            HbAnalysis::build(trace.clone(), &cfg).is_err(),
            "whole trace must OOM"
        );
        let (found, stats) = find_candidates_chunked(&trace, &cfg, chunk).unwrap();
        assert!(stats.chunks >= 3);
        assert!(stats.peak_reach_bytes <= budget);
        // the race may or may not land inside one chunk; what matters here
        // is that the analysis completed under the budget
        let _ = found;
    }

    #[test]
    fn cross_chunk_pairs_are_missed() {
        // the racy pair in this trace is (write, read); with chunk size 1
        // no pair can be co-resident, so nothing is reported — the
        // documented false-negative trade-off
        let trace = racy_trace();
        let (found, _) = find_candidates_chunked(&trace, &HbConfig::default(), 1).unwrap();
        assert_eq!(found.static_pair_count(), 0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let (found, stats) =
            find_candidates_chunked(&TraceSet::new(), &HbConfig::default(), 16).unwrap();
        assert_eq!(found.static_pair_count(), 0);
        assert_eq!(stats.chunks, 0);
    }
}
