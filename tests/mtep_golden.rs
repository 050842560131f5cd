//! MTEP edge golden: the HB builder must reproduce a frozen edge set on
//! every paper benchmark — selective and full tracing, fault-free and under
//! each plan of its fault matrix, at two workload scales.
//!
//! Each row of `tests/data/mtep_edges.golden` holds the edge count and an
//! FNV-1a fingerprint of the sorted `(u, v, rule)` edge list. The rows were
//! produced by the seven whole-trace rule passes and the iterated `Eserial`
//! fixed point that preceded the one-pass `hb::rules` builder, so any drift
//! of a rule from that reference fails here by name.

use dcatch::{EdgeRule, HbAnalysis, HbConfig, SimConfig, World};

const GOLDEN: &str = include_str!("data/mtep_edges.golden");

/// FNV-1a over the sorted edge list rendered one `u v Rule` line each.
fn fingerprint(hb: &HbAnalysis) -> u64 {
    let mut edges: Vec<(usize, usize, EdgeRule)> = (0..hb.vertex_count())
        .flat_map(|u| hb.successors(u).map(move |(v, r)| (u, v, r)))
        .collect();
    edges.sort_by_key(|&(u, v, _)| (u, v));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (u, v, r) in edges {
        for b in format!("{u} {v} {r:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for scale in [1, 4, 16] {
        for bench in dcatch::all_benchmarks_scaled(scale) {
            let mut plans = vec![("fault-free", dcatch::FaultPlan::default())];
            for sc in dcatch::fault_scenarios(&bench) {
                plans.push((sc.name, sc.plan));
            }
            for full in [false, true] {
                for (name, plan) in &plans {
                    let mut cfg = SimConfig::default()
                        .with_seed(bench.seed)
                        .with_faults(plan.clone());
                    if full {
                        cfg = cfg.with_full_tracing();
                    }
                    let tracing = if full { "full" } else { "selective" };
                    let label = format!("{} scale={scale} {tracing} {name}", bench.id);
                    let row = match World::run_once(&bench.program, &bench.topology, cfg) {
                        Ok(run) => {
                            let n = run.trace.len();
                            let hb = HbAnalysis::build(run.trace, &HbConfig::default())
                                .expect("default budget fits every benchmark");
                            format!(
                                "{label} records={n} edges={} fnv={:016x}",
                                hb.edge_count(),
                                fingerprint(&hb)
                            )
                        }
                        Err(e) => format!("{label} error={e}"),
                    };
                    out.push(row);
                }
            }
        }
    }
    out
}

#[test]
fn one_pass_builder_reproduces_reference_edge_sets() {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = rows();
    let mismatches: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|&(i, row)| expected.get(i) != Some(&row.as_str()))
        .map(|(i, row)| format!("  expected {:?}\n  actual   {row}", expected.get(i)))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} rows drifted from the reference edge sets ({} expected rows):\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n")
    );
}
