//! Cross-crate pipeline behaviour: selective vs full tracing, memory
//! budgets, determinism, and trace round-trips.

use dcatch::{
    HbAnalysis, HbConfig, Pipeline, PipelineOptions, SimConfig, TracingMode, Verdict, World,
};

/// Selective tracing (paper §3.1.1) produces much smaller traces than
/// unselective tracing on every benchmark — the Table 8 comparison.
#[test]
fn selective_traces_are_smaller_than_full_traces() {
    for bench in dcatch::all_benchmarks() {
        let sel = World::run_once(
            &bench.program,
            &bench.topology,
            SimConfig::default().with_seed(bench.seed),
        )
        .unwrap();
        let full = World::run_once(
            &bench.program,
            &bench.topology,
            SimConfig::default()
                .with_seed(bench.seed)
                .with_full_tracing(),
        )
        .unwrap();
        assert!(
            full.trace.byte_size() > sel.trace.byte_size(),
            "{}: full {} vs selective {}",
            bench.id,
            full.trace.byte_size(),
            sel.trace.byte_size()
        );
    }
}

/// A tiny memory budget makes the HB analysis fail with OutOfMemory, and
/// the pipeline reports it as an outcome (Table 8's "Out of Memory" rows)
/// rather than an error.
#[test]
fn oom_is_a_reported_outcome_not_an_error() {
    let bench = dcatch::benchmark("MR-3274").unwrap();
    let mut opts = PipelineOptions::fast();
    opts.tracing = TracingMode::Full;
    // 1 KiB is below the chain-clock index's O(n·G) footprint
    opts.hb = HbConfig {
        memory_budget_bytes: 1024,
    };
    let report = Pipeline::run(&bench, &opts).unwrap();
    assert!(report.oom.is_some());
    assert_eq!(report.ta_static, 0);
}

/// The same seed yields byte-identical traces — the determinism that the
/// focused re-run and the triggering module both rely on.
#[test]
fn traced_runs_are_deterministic() {
    for bench in dcatch::all_benchmarks() {
        let cfg = SimConfig::default().with_seed(bench.seed);
        let a = World::run_once(&bench.program, &bench.topology, cfg.clone()).unwrap();
        let b = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        assert_eq!(
            a.trace.to_lines(),
            b.trace.to_lines(),
            "{}: nondeterministic trace",
            bench.id
        );
    }
}

/// `detect all --jobs 4 --json` must be byte-identical to `--jobs 1`:
/// worker count is an execution detail, not an input. Wall-clock fields
/// (stage timings, span durations) are the only legitimately
/// nondeterministic part of a report, so the comparison zeroes them and
/// then demands byte equality of the serialized document — counters,
/// gauges, span *structure* and counts, candidate tallies, and verdicts
/// all included.
#[test]
fn parallel_detection_report_matches_serial_byte_for_byte() {
    fn zero_durations(span: &mut dcatch_obs::SpanNode) {
        span.total = std::time::Duration::ZERO;
        for child in &mut span.children {
            zero_durations(child);
        }
    }
    fn scrubbed_json(jobs: usize) -> String {
        let benches = dcatch::all_benchmarks();
        let mut reports: Vec<_> = Pipeline::run_all(&benches, &PipelineOptions::fast(), jobs)
            .into_iter()
            .map(|r| r.expect("pipeline run"))
            .collect();
        for r in &mut reports {
            r.timings = dcatch::StageTimings::default();
            zero_durations(&mut r.spans);
        }
        dcatch::report_json::run_report(&reports).to_pretty()
    }
    let serial = scrubbed_json(1);
    let parallel = scrubbed_json(4);
    assert_eq!(serial, parallel, "report depends on worker count");
}

/// Full-trace detection completes under a budget one byte short of the
/// paper's dense reachable-set matrix, which is the Table 8 "Out of
/// Memory" outcome for that index. The chain-clock index fits the same
/// budget without chunking. (EXPERIMENTS.md repeats this at Table-8
/// scale with the 512 MB budget.)
#[test]
fn clock_engine_completes_full_trace_detection_where_matrix_ooms() {
    use dcatch::BitMatrix;
    let bench = dcatch::benchmark("MR-3274").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default()
            .with_seed(bench.seed)
            .with_full_tracing(),
    )
    .unwrap();
    let budget = BitMatrix::estimated_bytes(run.trace.len()) - 1;

    let mut opts = PipelineOptions::fast();
    opts.tracing = TracingMode::Full;
    opts.hb.memory_budget_bytes = budget;
    let report = Pipeline::run(&bench, &opts).unwrap();
    assert!(report.oom.is_none(), "the clock index must fit");
    assert!(report.ta_static > 0, "full-trace detection must complete");
    assert!(
        report.metrics.gauge("hb_reach_bytes_peak") <= budget as u64,
        "clock index must stay within the budget"
    );
}

/// One benchmark's expected Tables 4/5/9 results.
struct Golden {
    id: &'static str,
    /// TA / TA+SP / TA+SP+LP as (static pairs, callstack pairs).
    ta: (usize, usize),
    sp: (usize, usize),
    lp: (usize, usize),
    /// Harmful / benign / serial, static then callstack.
    verdicts: [usize; 6],
    known_bug: bool,
    /// Reported `(static_pair, verdict)` list, in report order.
    reports: &'static [(&'static str, &'static str, Option<Verdict>)],
    /// Trace-analysis `(static, callstack)` counts per `Ablation::TABLE9`.
    table9: [(usize, usize); 4],
}

/// Tables 4, 5 and 9, pinned: the candidate funnel, verdict tallies,
/// known-bug confirmation, reported pairs with their verdicts, and the
/// ablation counts of every benchmark. These rows were recorded with the
/// bit-matrix engine before it was deleted and are unchanged under the
/// chain-clock engine.
#[test]
fn detection_results_match_tables_4_5_9() {
    use Verdict::{BenignRace, Harmful, Serial};
    #[rustfmt::skip]
    let golden = [
    Golden {
        id: "CA-1011",
        ta: (12, 12),
        sp: (7, 7),
        lp: (7, 7),
        verdicts: [3, 4, 0, 3, 4, 0],
        known_bug: true,
        reports: &[
            ("f2:0", "f4:0", Some(BenignRace)),
            ("f2:0", "f4:2", Some(BenignRace)),
            ("f2:0", "f5:1", Some(Harmful)),
            ("f2:0", "f8:0", Some(BenignRace)),
            ("f2:1", "f14:0", Some(BenignRace)),
            ("f4:0", "f5:1", Some(Harmful)),
            ("f4:2", "f5:1", Some(Harmful)),
        ],
        table9: [(8, 8), (12, 12), (8, 8), (12, 12)],
    },
    Golden {
        id: "HB-4539",
        ta: (5, 5),
        sp: (3, 3),
        lp: (3, 3),
        verdicts: [2, 1, 0, 2, 1, 0],
        known_bug: true,
        reports: &[
            ("f1:0", "f7:1", Some(Harmful)),
            ("f5:1", "f7:1", Some(Harmful)),
            ("f5:4", "f7:1", Some(BenignRace)),
        ],
        table9: [(6, 6), (7, 7), (5, 5), (7, 7)],
    },
    Golden {
        id: "HB-4729",
        ta: (7, 7),
        sp: (2, 2),
        lp: (2, 2),
        verdicts: [1, 1, 0, 1, 1, 0],
        known_bug: true,
        reports: &[
            ("f1:3", "f4:1", Some(Harmful)),
            ("f13:0", "f15:0", Some(BenignRace)),
        ],
        table9: [(6, 6), (5, 5), (7, 7), (6, 6)],
    },
    Golden {
        id: "MR-3274",
        ta: (11, 11),
        sp: (10, 10),
        lp: (8, 8),
        verdicts: [1, 6, 1, 1, 6, 1],
        known_bug: true,
        reports: &[
            ("f1:0", "f4:0", Some(BenignRace)),
            ("f1:2", "f6:3", Some(BenignRace)),
            ("f3:0", "f4:0", Some(Harmful)),
            ("f12:1", "f12:3", Some(BenignRace)),
            ("f12:1", "f12:4", Some(BenignRace)),
            ("f12:3", "f12:4", Some(BenignRace)),
            ("f12:3", "f14:2", Some(BenignRace)),
            ("f12:3", "f14:7", Some(Serial)),
        ],
        table9: [(10, 10), (12, 12), (11, 11), (11, 11)],
    },
    Golden {
        id: "MR-4637",
        ta: (6, 6),
        sp: (4, 4),
        lp: (3, 3),
        verdicts: [1, 2, 0, 1, 2, 0],
        known_bug: true,
        reports: &[
            ("f2:0", "f3:0", Some(Harmful)),
            ("f2:3", "f3:0", Some(BenignRace)),
            ("f14:0", "f16:0", Some(BenignRace)),
        ],
        table9: [(6, 6), (9, 9), (6, 6), (6, 6)],
    },
    Golden {
        id: "ZK-1144",
        ta: (6, 6),
        sp: (1, 1),
        lp: (1, 1),
        verdicts: [1, 0, 0, 1, 0, 0],
        known_bug: true,
        reports: &[
            ("f0:1", "f2:0", Some(Harmful)),
        ],
        table9: [(6, 6), (6, 6), (3, 3), (6, 6)],
    },
    Golden {
        id: "ZK-1270",
        ta: (10, 10),
        sp: (8, 8),
        lp: (6, 6),
        verdicts: [1, 4, 1, 1, 4, 1],
        known_bug: true,
        reports: &[
            ("f0:2", "f1:0", Some(Harmful)),
            ("f0:5", "f1:6", Some(BenignRace)),
            ("f0:10", "f1:6", Some(Serial)),
            ("f1:4", "f1:6", Some(BenignRace)),
            ("f1:4", "f1:7", Some(BenignRace)),
            ("f1:6", "f1:7", Some(BenignRace)),
        ],
        table9: [(10, 10), (10, 10), (7, 7), (10, 10)],
    },
    ];
    let benches = dcatch::all_benchmarks();
    assert_eq!(benches.len(), golden.len());
    for (bench, g) in benches.iter().zip(&golden) {
        assert_eq!(bench.id, g.id);
        let r = Pipeline::run(bench, &PipelineOptions::full()).unwrap();
        assert_eq!((r.ta_static, r.ta_stacks), g.ta, "{}: TA", g.id);
        assert_eq!((r.sp_static, r.sp_stacks), g.sp, "{}: TA+SP", g.id);
        assert_eq!((r.lp_static, r.lp_stacks), g.lp, "{}: TA+SP+LP", g.id);
        let v = r.verdicts;
        let verdicts = [
            v.bug_static,
            v.benign_static,
            v.serial_static,
            v.bug_stacks,
            v.benign_stacks,
            v.serial_stacks,
        ];
        assert_eq!(verdicts, g.verdicts, "{}: verdicts", g.id);
        assert_eq!(r.detected_known_bug, g.known_bug, "{}: known bug", g.id);
        let reports: Vec<(String, String, Option<Verdict>)> = r
            .reports
            .iter()
            .map(|b| {
                let (s, t) = b.candidate.static_pair;
                (s.to_string(), t.to_string(), b.verdict)
            })
            .collect();
        let expected: Vec<(String, String, Option<Verdict>)> = g
            .reports
            .iter()
            .map(|&(s, t, v)| (s.to_owned(), t.to_owned(), v))
            .collect();
        assert_eq!(reports, expected, "{}: reported pairs", g.id);

        for (ablation, &counts) in dcatch::Ablation::TABLE9.into_iter().zip(&g.table9) {
            let mut opts = PipelineOptions::trace_analysis_only();
            opts.ablation = ablation;
            let r = Pipeline::run(bench, &opts).unwrap();
            assert_eq!(
                (r.ta_static, r.ta_stacks),
                counts,
                "{} ablation {ablation:?}",
                g.id
            );
        }
    }
}

/// Trace files round-trip through the on-disk line format.
#[test]
fn trace_files_roundtrip() {
    let bench = dcatch::benchmark("CA-1011").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    for (i, line) in run.trace.to_lines().lines().enumerate() {
        let rec = dcatch_trace::parse_record(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert_eq!(dcatch_trace::format_record(&rec), line);
    }
}

/// HB analysis on a real benchmark trace: every edge respects execution
/// order and the graph is acyclic by construction (seq-ordered edges).
#[test]
fn hb_graph_edges_respect_execution_order() {
    let bench = dcatch::benchmark("HB-4539").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
    for v in 0..hb.vertex_count() {
        for (succ, _) in hb.successors(v) {
            let (a, b) = (&hb.trace().records()[v], &hb.trace().records()[succ]);
            assert!(a.seq <= b.seq, "edge {v}→{succ} goes backwards");
        }
    }
}

/// The Figure 3 chain: on HB-4539's trace, the split-side `list_add` (W)
/// happens before the watcher's `list_is_empty` (R) through a chain using
/// thread, RPC, event, and push edges — and the pair is therefore *not*
/// reported as a candidate.
#[test]
fn figure3_chain_orders_w_before_r() {
    use dcatch::EdgeRule;
    let bench = dcatch::benchmark("HB-4539").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
    let trace = hb.trace();
    let w = trace
        .records()
        .iter()
        .position(|r| {
            r.kind.is_write()
                && r.kind
                    .mem_loc()
                    .is_some_and(|l| l.object == "regionsToOpen")
        })
        .expect("W = regionsToOpen.add");
    let r = trace
        .records()
        .iter()
        .position(|rec| {
            !rec.kind.is_write()
                && rec
                    .kind
                    .mem_loc()
                    .is_some_and(|l| l.object == "regionsToOpen")
        })
        .expect("R = regionsToOpen.isEmpty");
    assert!(hb.happens_before(w, r), "W must be ordered before R");
    let chain = hb.explain(w, r).expect("an explain chain exists");
    let rules: std::collections::BTreeSet<String> =
        chain.iter().map(|&(_, rule)| format!("{rule:?}")).collect();
    for needed in ["Fork", "Mrpc", "Eenq", "Mpush"] {
        assert!(
            rules.contains(needed),
            "figure-3 chain must use {needed}; got {rules:?}"
        );
    }
    let _ = EdgeRule::Program;
}
