//! The end-to-end DCatch pipeline.

use std::fmt;
use std::time::Duration;

use dcatch_apps::Benchmark;
use dcatch_detect::{
    analyze_loop_sync, find_candidates, find_candidates_chunked, plan_loop_sync, CandidateSet,
    OnlineDetector, OnlineOptions,
};
use dcatch_hb::{
    apply_ablation, Ablation, ChainClocks, FrontierOptions, HbAnalysis, HbConfig, HbError,
};
use dcatch_obs::budget::{self, Budget, DegradationEvent, DegradeMode};
use dcatch_prune::{Impact, Pruner};
use dcatch_sim::{Failure, FaultPlan, FocusConfig, RunError, SimConfig, World};
use dcatch_trace::{TraceStats, TracingMode};
use dcatch_trigger::{run_farm, FarmSpec, OrderRun, TriggerPlan, TriggerReport, Verdict};

use crate::report::{BenchmarkReport, BugReport, StageTimings, StreamingStats, VerdictCounts};

/// Errors aborting a pipeline run. Out-of-memory in the HB analysis is
/// *not* an error — it is a reportable outcome (Table 8).
#[derive(Debug)]
pub enum PipelineError {
    /// The simulation could not start.
    Run(RunError),
    /// The supposedly correct traced run failed; candidates from failing
    /// runs would be meaningless (DCatch predicts bugs from *correct*
    /// runs, §1).
    TracedRunFailed(String),
    /// The benchmark's worker thread panicked. Caught at the thread
    /// boundary so one bad benchmark cannot poison a `detect all` batch.
    Panicked(String),
    /// The benchmark exceeded the per-benchmark wall-clock watchdog.
    WatchdogTimeout {
        /// The configured limit that was exceeded.
        limit: Duration,
    },
}

impl PipelineError {
    /// Short machine-readable kind, used by the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::Run(_) => "run",
            PipelineError::TracedRunFailed(_) => "traced_run_failed",
            PipelineError::Panicked(_) => "panic",
            PipelineError::WatchdogTimeout { .. } => "watchdog_timeout",
        }
    }

    /// Process exit code for this error (documented in the README's exit
    /// code table): 3 = the run itself failed, 5 = panic, 6 = watchdog.
    /// Codes 1 (usage), 2 (known bug not confirmed), and 4 (HB analysis
    /// out of memory) are assigned by the CLI from report contents.
    pub fn exit_code(&self) -> u8 {
        match self {
            PipelineError::Run(_) | PipelineError::TracedRunFailed(_) => 3,
            PipelineError::Panicked(_) => 5,
            PipelineError::WatchdogTimeout { .. } => 6,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "{e}"),
            PipelineError::TracedRunFailed(msg) => {
                write!(f, "traced run was not failure-free: {msg}")
            }
            PipelineError::Panicked(msg) => write!(f, "benchmark panicked: {msg}"),
            PipelineError::WatchdogTimeout { limit } => {
                write!(f, "exceeded the {}s watchdog timeout", limit.as_secs())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> Self {
        PipelineError::Run(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Scheduler seed override (default: the benchmark's seed).
    pub seed: Option<u64>,
    /// Memory-access tracing policy (Table 8 compares Full to Selective).
    pub tracing: TracingMode,
    /// HB analysis configuration (memory budget…).
    pub hb: HbConfig,
    /// HB-rule ablation (Table 9); `Ablation::None` for the real model.
    pub ablation: Ablation,
    /// Run static pruning (§4).
    pub static_pruning: bool,
    /// Run the loop/pull custom-synchronization analysis (§3.2.1).
    pub loop_sync: bool,
    /// Run the triggering module on every surviving candidate (§5).
    pub triggering: bool,
    /// Worker threads for the triggering farm: (candidate, ordering) jobs
    /// are explored concurrently, with orderings past the first confirmed
    /// one cancelled cooperatively. Output is byte-identical for any
    /// value. Default 1.
    pub trigger_jobs: usize,
    /// Measure the un-traced base run (Table 6's "Base" column).
    pub measure_base: bool,
    /// Fault plan injected into every simulated run of the pipeline
    /// (base, traced, focused, triggering). Empty by default — an empty
    /// plan is a strict no-op and leaves traces byte-identical.
    pub faults: FaultPlan,
    /// When set, `faults` applies only to the benchmark with this id;
    /// other benchmarks in a `detect all` batch run fault-free.
    pub fault_target: Option<String>,
    /// Per-benchmark wall-clock watchdog for [`Pipeline::run_all`]. A
    /// benchmark still running when the limit expires is reported as
    /// [`PipelineError::WatchdogTimeout`] (its worker thread is detached,
    /// not cancelled).
    pub timeout: Option<Duration>,
    /// Per-benchmark memory budget for the resource governor
    /// (`--mem-budget`). Unlike `hb.memory_budget_bytes` — which turns
    /// excess into a hard [`HbError::OutOfMemory`] outcome — this ceiling
    /// makes the pipeline *degrade*: sample memory tracing, fall back to
    /// chain clocks, chunk the trace analysis.
    pub mem_budget: Option<usize>,
    /// Per-benchmark wall-clock budget for the resource governor
    /// (`--time-budget`). Unlike `timeout` — which kills the run — this
    /// deadline makes later stages shed work (skip loop-sync, cancel
    /// remaining trigger jobs) and still produce a report.
    pub time_budget: Option<Duration>,
    /// Whether the governor may walk the degradation ladder at all.
    /// [`DegradeMode::Off`] ignores both budgets above.
    pub degrade: DegradeMode,
    /// Online single-pass detection (`--streaming`): consume trace records
    /// as the simulator emits them instead of materializing the trace and
    /// building a full HB graph. Resident memory is O(window), and the
    /// candidate set is proven identical to the offline scan (DESIGN.md
    /// §15). Incompatible with `ablation` (the record stream is never
    /// materialized, so there is nothing to ablate).
    pub streaming: bool,
    /// Hard cap on resident window entries in streaming mode
    /// (`--stream-window`). `None` relies on provable retirement alone;
    /// a cap that overflows force-evicts oldest entries (lossy, reported
    /// as a degradation). The memory governor may clamp this further.
    pub stream_window: Option<usize>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            seed: None,
            tracing: TracingMode::Selective,
            hb: HbConfig::default(),
            ablation: Ablation::None,
            static_pruning: true,
            loop_sync: true,
            triggering: true,
            trigger_jobs: 1,
            measure_base: true,
            faults: FaultPlan::default(),
            fault_target: None,
            timeout: None,
            mem_budget: None,
            time_budget: None,
            degrade: DegradeMode::Auto,
            streaming: false,
            stream_window: None,
        }
    }
}

impl PipelineOptions {
    /// Full pipeline (detection + pruning + triggering).
    pub fn full() -> PipelineOptions {
        PipelineOptions::default()
    }

    /// Detection and pruning only — no triggering re-runs.
    pub fn fast() -> PipelineOptions {
        PipelineOptions {
            triggering: false,
            measure_base: false,
            ..PipelineOptions::default()
        }
    }

    /// Trace analysis only (Table 5's "TA" column).
    pub fn trace_analysis_only() -> PipelineOptions {
        PipelineOptions {
            static_pruning: false,
            loop_sync: false,
            triggering: false,
            measure_base: false,
            ..PipelineOptions::default()
        }
    }
}

/// Lifecycle notification passed to the observer of
/// [`Pipeline::run_all_observed`] as each benchmark progresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// The benchmark acquired a job slot and started running.
    Started,
    /// The benchmark finished with a report.
    Finished,
    /// The benchmark finished in a structured error (panic, watchdog,
    /// failed run).
    Degraded,
}

/// The end-to-end detector.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Runs the configured pipeline stages on one benchmark.
    ///
    /// Brackets the run in a span capture and a metrics snapshot, so the
    /// returned report carries a per-run timing tree and per-run counter
    /// deltas even when many benchmarks run in one process. Stage timings
    /// are derived from the captured tree (single source of truth).
    ///
    /// Also brackets the run in a resource governor when `opts` sets a
    /// memory or time budget with degradation enabled: stages consult it
    /// at their boundaries and every ladder step they take is harvested
    /// into [`BenchmarkReport::degradations`].
    pub fn run(
        bench: &Benchmark,
        opts: &PipelineOptions,
    ) -> Result<BenchmarkReport, PipelineError> {
        let metrics_before = dcatch_obs::metrics::snapshot();
        dcatch_obs::trace::begin_capture(&format!("pipeline.{}", bench.id));
        budget::install(
            Budget {
                mem_bytes: opts.mem_budget,
                time: opts.time_budget,
            },
            opts.degrade,
        );
        let result = Pipeline::run_stages(bench, opts);
        let degradations = budget::uninstall();
        let spans = dcatch_obs::trace::end_capture();
        let metrics = dcatch_obs::metrics::snapshot().delta_since(&metrics_before);
        result.map(|mut report| {
            report.timings = StageTimings::from_spans(&spans);
            report.metrics = metrics;
            report.spans = spans;
            // governor rungs first, then events stages put on the
            // report directly (temporal order: the ladder acts before a
            // stage can observe its effects)
            let direct = std::mem::take(&mut report.degradations);
            report.degradations = degradations;
            report.degradations.extend(direct);
            report
        })
    }

    /// Runs the pipeline on every benchmark, at most `jobs` concurrently,
    /// returning the results in benchmark order.
    ///
    /// Every benchmark gets a *fresh* worker thread regardless of `jobs`:
    /// metric values, gauges, and span captures are thread-local, so a
    /// dedicated thread per run gives each report a cleanly scoped metrics
    /// delta — no gauge readings or capture state leak between benchmarks
    /// that happen to share a thread. That isolation is also what makes
    /// `--json` output independent of the worker count: the only
    /// cross-thread state is the global metric *name* table, which
    /// [`normalize_metric_names`] reconciles after the fact.
    ///
    /// Each benchmark is additionally crash-isolated: a panic inside the
    /// run is caught at the thread boundary and reported as
    /// [`PipelineError::Panicked`], and `opts.timeout` (when set) bounds
    /// the wall-clock of each run via a watchdog. A misbehaving benchmark
    /// therefore degrades to a structured error entry instead of aborting
    /// the batch. Degradations are counted on the calling thread in the
    /// `benchmarks_failed` and `watchdog_timeouts` metrics.
    pub fn run_all(
        benches: &[Benchmark],
        opts: &PipelineOptions,
        jobs: usize,
    ) -> Vec<Result<BenchmarkReport, PipelineError>> {
        Pipeline::run_all_observed(benches, opts, jobs, &|_, _| {})
    }

    /// [`run_all`](Pipeline::run_all) with a progress observer: `observe`
    /// is called from worker threads as each benchmark starts and
    /// finishes (by index into `benches`). Used by the CLI's live
    /// progress line; the observer must be cheap and must not panic.
    pub fn run_all_observed(
        benches: &[Benchmark],
        opts: &PipelineOptions,
        jobs: usize,
        observe: &(dyn Fn(usize, RunPhase) + Sync),
    ) -> Vec<Result<BenchmarkReport, PipelineError>> {
        Pipeline::run_all_recorded(benches, opts, jobs, observe, &|_, _| {})
    }

    /// [`run_all_observed`](Pipeline::run_all_observed) with an additional
    /// completion recorder: `record` is called from the worker thread the
    /// moment each benchmark's result exists — *before* the batch-level
    /// metric-name normalization — so a crash-safe journal can persist it
    /// even if the process dies mid-batch. The recorder must be cheap,
    /// `Sync`, and must not panic; results it receives are raw (their
    /// metric name sets may still differ across benchmarks).
    pub fn run_all_recorded(
        benches: &[Benchmark],
        opts: &PipelineOptions,
        jobs: usize,
        observe: &(dyn Fn(usize, RunPhase) + Sync),
        record: &(dyn Fn(usize, &Result<BenchmarkReport, PipelineError>) + Sync),
    ) -> Vec<Result<BenchmarkReport, PipelineError>> {
        use std::sync::{Condvar, Mutex};
        let verbose = dcatch_obs::trace::is_verbose();
        // counting semaphore bounding how many workers run at once
        let slots = (Mutex::new(jobs.max(1)), Condvar::new());
        let mut results = std::thread::scope(|s| {
            let handles: Vec<_> = benches
                .iter()
                .enumerate()
                .map(|(index, bench)| {
                    let slots = &slots;
                    s.spawn(move || {
                        let mut free = slots.0.lock().expect("job slots");
                        while *free == 0 {
                            free = slots.1.wait(free).expect("job slots");
                        }
                        *free -= 1;
                        drop(free);
                        dcatch_obs::trace::set_verbose(verbose);
                        observe(index, RunPhase::Started);
                        let result = run_guarded(bench, opts);
                        record(index, &result);
                        observe(
                            index,
                            if result.is_err() {
                                RunPhase::Degraded
                            } else {
                                RunPhase::Finished
                            },
                        );
                        *slots.0.lock().expect("job slots") += 1;
                        slots.1.notify_one();
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pipeline worker panicked"))
                .collect::<Vec<_>>()
        });
        // Count degradations on the calling thread: metrics are
        // thread-local, so counters bumped on (possibly dead) workers
        // would be invisible to the caller's snapshot.
        for result in &results {
            if let Err(e) = result {
                dcatch_obs::counter!("benchmarks_failed").inc();
                if matches!(e, PipelineError::WatchdogTimeout { .. }) {
                    dcatch_obs::counter!("watchdog_timeouts").inc();
                }
            }
        }
        normalize_metric_names(&mut results);
        results
    }

    fn run_stages(
        bench: &Benchmark,
        opts: &PipelineOptions,
    ) -> Result<BenchmarkReport, PipelineError> {
        let seed = opts.seed.unwrap_or(bench.seed);
        // the fault plan applies to every simulated run of this pipeline,
        // unless it is aimed at a different benchmark
        let faults = match &opts.fault_target {
            Some(target) if target != bench.id => FaultPlan::default(),
            _ => opts.faults.clone(),
        };
        if opts.streaming {
            return Pipeline::run_stages_streaming(bench, opts, seed, faults);
        }

        // ---- base run (untraced) ----------------------------------------
        if opts.measure_base {
            let mut cfg = SimConfig::default()
                .with_seed(seed)
                .with_faults(faults.clone());
            cfg.trace_enabled = false;
            let _span = dcatch_obs::span!("pipeline.base");
            World::run_once(&bench.program, &bench.topology, cfg)?;
        }

        // ---- traced run ---------------------------------------------------
        let mut cfg = SimConfig::default().with_seed(seed).with_faults(faults);
        cfg.tracing = opts.tracing;
        let mut run = {
            let _span = dcatch_obs::span!("pipeline.tracing");
            World::run_once(&bench.program, &bench.topology, cfg.clone())?
        };
        if !run.failures.is_empty() {
            return Err(PipelineError::TracedRunFailed(format!(
                "{:?}",
                run.failures
            )));
        }

        // ---- governor rung: rate-sampled memory tracing ---------------------
        // When the trace itself blows the memory budget, re-run with every
        // `rate`-th memory access kept. HB records are never sampled (the
        // graph stays exact) and sampling never perturbs the schedule, so
        // the kept records are a deterministic subsequence of the full run.
        // byte_size serializes every record, so compute it once and share
        // the figure between the governor probe and the report below.
        let mut trace_bytes = run.trace.byte_size();
        if let Some(m) = budget::mem_budget() {
            let total = trace_bytes;
            if total > m {
                let mem_bytes = run.trace.filtered(|r| r.kind.is_mem()).byte_size();
                let other = total - mem_bytes;
                let mut rate: u32 = 2;
                while rate < (1 << 16) && other + mem_bytes / rate as usize > m {
                    rate *= 2;
                }
                let sampled_cfg = cfg.clone().with_mem_sample_rate(rate);
                let rerun = {
                    let _span = dcatch_obs::span!("pipeline.tracing");
                    World::run_once(&bench.program, &bench.topology, sampled_cfg)?
                };
                budget::record(DegradationEvent {
                    stage: "tracing".to_owned(),
                    from: "full".to_owned(),
                    to: format!("sampled_1_in_{rate}"),
                    reason: format!("trace {total} B exceeds memory budget {m} B"),
                });
                run = rerun;
                trace_bytes = run.trace.byte_size();
            }
        }
        let trace_stats = run.trace.stats();

        // ---- HB graph + candidates -----------------------------------------
        let analyzed = apply_ablation(&run.trace, opts.ablation);
        let ta_span = dcatch_obs::span!("pipeline.trace_analysis");
        // The governed ceiling also caps the reachability-index budget.
        let mut hb_cfg = opts.hb.clone();
        let gov_mem = budget::mem_budget();
        if let Some(m) = gov_mem {
            hb_cfg.memory_budget_bytes = hb_cfg.memory_budget_bytes.min(m);
        }
        // The same deterministic size estimate HbAnalysis::build checks, so
        // the governor can step down *before* committing to a build that
        // would return OutOfMemory.
        let n = analyzed.len();
        let chains = ChainClocks::chain_count(&analyzed);
        let needed = ChainClocks::estimated_bytes(n, chains);
        let oom_report = |e: HbError, trace_stats, trace_bytes| BenchmarkReport {
            id: bench.id.to_owned(),
            trace_stats,
            trace_bytes,
            ta_static: 0,
            ta_stacks: 0,
            sp_static: 0,
            sp_stacks: 0,
            lp_static: 0,
            lp_stacks: 0,
            reports: Vec::new(),
            verdicts: VerdictCounts::default(),
            detected_known_bug: false,
            // timings/metrics/spans/degradations are placeholders; `run`
            // fills them from the capture on every path
            timings: StageTimings::default(),
            oom: Some(e),
            metrics: dcatch_obs::MetricsSnapshot::default(),
            spans: dcatch_obs::SpanNode::default(),
            degradations: Vec::new(),
            streaming: None,
        };
        // `hb` is absent on the chunked rung: loop-sync and placement
        // planning need the full graph and degrade accordingly below.
        let mut hb: Option<HbAnalysis> = None;
        let mut candidates;
        if needed > hb_cfg.memory_budget_bytes && gov_mem.is_some() {
            // ---- governor rung: chunked trace analysis (§7.2) ----------
            // the largest chunk whose index fits: a chunk of `c` records
            // spans at most `min(c, chains)` chains. `needed > budget`
            // means the whole trace does not fit, so the search stays
            // below `n`; a budget too small for one record still yields
            // chunk 1, whose build reports the OOM.
            let fits = |c: usize| {
                ChainClocks::estimated_bytes(c, c.min(chains)) <= hb_cfg.memory_budget_bytes
            };
            let chunk = (1..n).take_while(|&c| fits(c)).last().unwrap_or(1);
            match find_candidates_chunked(&analyzed, &hb_cfg, chunk) {
                Ok((set, stats)) => {
                    budget::record(DegradationEvent {
                        stage: "trace_analysis".to_owned(),
                        from: "full".to_owned(),
                        to: format!("chunked_{}x{}", stats.chunks, chunk),
                        reason: format!(
                            "reachability index needs {needed} B, budget {} B",
                            hb_cfg.memory_budget_bytes
                        ),
                    });
                    candidates = set;
                }
                Err(e @ HbError::OutOfMemory { .. }) => {
                    return Ok(oom_report(e, trace_stats, trace_bytes));
                }
            }
        } else {
            match HbAnalysis::build(analyzed, &hb_cfg) {
                Ok(h) => {
                    candidates = find_candidates(&h);
                    hb = Some(h);
                }
                Err(e @ HbError::OutOfMemory { .. }) => {
                    return Ok(oom_report(e, trace_stats, trace_bytes));
                }
            }
        }
        drop(ta_span);
        let (ta_static, ta_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- static pruning --------------------------------------------------
        let pruner = Pruner::new(&bench.program);
        if opts.static_pruning {
            let _span = dcatch_obs::span!("pipeline.static_pruning");
            let (kept, _pruned, _stats) = pruner.prune(candidates);
            candidates = kept;
        }
        let (sp_static, sp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- loop/pull synchronization analysis ------------------------------
        if opts.loop_sync {
            if budget::time_expired() {
                budget::record(DegradationEvent {
                    stage: "loop_sync".to_owned(),
                    from: "focused_rerun".to_owned(),
                    to: "skipped".to_owned(),
                    reason: "time budget exhausted".to_owned(),
                });
            } else if let Some(hb) = hb.as_mut() {
                let _span = dcatch_obs::span!("pipeline.loop_sync");
                let program = &bench.program;
                let topo = &bench.topology;
                let base_cfg = cfg.clone();
                let mut rerun = |objects: &std::collections::BTreeSet<String>| {
                    let focus_cfg = base_cfg
                        .clone()
                        .with_focus(FocusConfig::on(objects.iter().cloned()));
                    World::run_once(program, topo, focus_cfg)
                        .expect("focused re-run")
                        .trace
                };
                let (updated, _result) = analyze_loop_sync(program, hb, candidates, &mut rerun);
                candidates = updated;
                // loop-sync edges may order candidates SP had already scored;
                // re-apply the pruning filter to the refreshed set
                if opts.static_pruning {
                    let (kept, _, _) = pruner.prune(candidates);
                    candidates = kept;
                }
            } else {
                budget::record(DegradationEvent {
                    stage: "loop_sync".to_owned(),
                    from: "focused_rerun".to_owned(),
                    to: "skipped".to_owned(),
                    reason: "no full HB graph (chunked trace analysis)".to_owned(),
                });
            }
        }
        let (lp_static, lp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        Ok(Pipeline::finish_report(
            bench,
            opts,
            ReportTail {
                cfg: &cfg,
                hb: hb.as_ref(),
                pruner: &pruner,
                candidates,
                ta: (ta_static, ta_stacks),
                sp: (sp_static, sp_stacks),
                lp: (lp_static, lp_stacks),
                trace_stats,
                trace_bytes,
                no_graph_reason: "no full HB graph (chunked trace analysis)",
                streaming: None,
            },
        ))
    }

    /// The shared pipeline tail: triggering, verdict assembly, and the
    /// final report. `tail.hb` is `None` when no full HB graph exists
    /// (chunked trace analysis, or streaming detection) — placement
    /// planning then degrades to direct placement with
    /// `tail.no_graph_reason`.
    fn finish_report(
        bench: &Benchmark,
        opts: &PipelineOptions,
        tail: ReportTail,
    ) -> BenchmarkReport {
        let ReportTail {
            cfg,
            hb,
            pruner,
            candidates,
            ta: (ta_static, ta_stacks),
            sp: (sp_static, sp_stacks),
            lp: (lp_static, lp_stacks),
            trace_stats,
            trace_bytes,
            no_graph_reason,
            streaming,
        } = tail;

        // ---- triggering -------------------------------------------------------
        let candidates = take_candidates(candidates);
        let impacts: Vec<Vec<Impact>> = candidates
            .iter()
            .map(|c| {
                let mut v = pruner.impact_of(&c.rep.0);
                v.extend(pruner.impact_of(&c.rep.1));
                v
            })
            .collect();
        let trig_reports: Vec<Option<TriggerReport>> = if opts.triggering && budget::time_expired()
        {
            budget::record(DegradationEvent {
                stage: "triggering".to_owned(),
                from: "farm".to_owned(),
                to: "skipped".to_owned(),
                reason: "time budget exhausted before triggering".to_owned(),
            });
            candidates.iter().map(|_| None).collect()
        } else if opts.triggering {
            let _span = dcatch_obs::span!("pipeline.triggering");
            let specs: Vec<FarmSpec> = match hb {
                Some(hb) => candidates.iter().map(|c| FarmSpec::new(c, hb)).collect(),
                None => {
                    // placement planning needs the full HB graph; without
                    // one fall back to naive direct placement
                    if !candidates.is_empty() {
                        budget::record(DegradationEvent {
                            stage: "triggering".to_owned(),
                            from: "planned_placement".to_owned(),
                            to: "direct_placement".to_owned(),
                            reason: no_graph_reason.to_owned(),
                        });
                    }
                    candidates
                        .iter()
                        .map(|c| FarmSpec {
                            plan: TriggerPlan::direct(c),
                            direct: None,
                        })
                        .collect()
                }
            };
            // A candidate is settled once some fully-executed order produced
            // a failure its own impact analysis predicted — exactly the
            // condition that makes `adjust_verdict` say Harmful, which is
            // sticky — so the farm may cancel its remaining orderings.
            let confirm = |ci: usize, runs: &[OrderRun]| {
                runs.iter()
                    .any(|r| r.completed && failures_attributable(&r.failures, &impacts[ci]))
            };
            let reports = run_farm(
                &bench.program,
                &bench.topology,
                cfg,
                &specs,
                opts.trigger_jobs,
                Some(&confirm),
                budget::deadline(),
            );
            let cancelled = reports.iter().filter(|r| r.cancelled).count();
            if cancelled > 0 {
                budget::record(DegradationEvent {
                    stage: "triggering".to_owned(),
                    from: "farm".to_owned(),
                    to: "cancelled".to_owned(),
                    reason: format!("time budget expired with {cancelled} candidates unexplored"),
                });
            }
            reports.into_iter().map(Some).collect()
        } else {
            candidates.iter().map(|_| None).collect()
        };

        let mut reports = Vec::new();
        let mut verdicts = VerdictCounts::default();
        let mut detected_known_bug = false;
        for ((candidate, impacts), trig) in candidates.into_iter().zip(impacts).zip(trig_reports) {
            let known = bench.bug_objects.iter().any(|o| candidate.object() == *o);
            // A cancelled report (trigger deadline) carries a provisional
            // verdict computed from partial runs; keep the candidate
            // undecided instead of reporting it.
            let (verdict, failures) = match trig {
                Some(report) if !report.cancelled => {
                    let failures: Vec<String> = report.failures().map(|f| f.to_string()).collect();
                    // Attribution: holding a request point can starve unrelated
                    // paths and surface *other* bugs' failures. A candidate is
                    // only confirmed harmful by failures its own static impact
                    // analysis predicted (the paper's impact analysis plays the
                    // same role in interpreting triggering results, §4/§5).
                    let v = adjust_verdict(&report, &impacts);
                    let stacks = candidate.stack_pairs.len();
                    match v {
                        Verdict::Harmful => {
                            verdicts.bug_static += 1;
                            verdicts.bug_stacks += stacks;
                            if known {
                                detected_known_bug = true;
                            }
                        }
                        Verdict::BenignRace => {
                            verdicts.benign_static += 1;
                            verdicts.benign_stacks += stacks;
                        }
                        Verdict::Serial => {
                            verdicts.serial_static += 1;
                            verdicts.serial_stacks += stacks;
                        }
                    }
                    (Some(v), failures)
                }
                _ => (None, Vec::new()),
            };
            reports.push(BugReport {
                candidate,
                impacts,
                verdict,
                failures,
                known_bug_object: known,
            });
        }

        BenchmarkReport {
            id: bench.id.to_owned(),
            trace_stats,
            trace_bytes,
            ta_static,
            ta_stacks,
            sp_static,
            sp_stacks,
            lp_static,
            lp_stacks,
            reports,
            verdicts,
            detected_known_bug,
            timings: StageTimings::default(),
            oom: None,
            metrics: dcatch_obs::MetricsSnapshot::default(),
            spans: dcatch_obs::SpanNode::default(),
            degradations: Vec::new(),
            streaming,
        }
    }

    /// Streaming single-pass detection (DESIGN.md §15): the traced run and
    /// the candidate scan fuse into one pass over the live record stream —
    /// per-chain frontier clocks instead of a reachability index, a
    /// bounded window of still-racable accesses instead of a materialized
    /// trace. Candidate output is exactly the offline scan's; resident
    /// memory is O(window).
    fn run_stages_streaming(
        bench: &Benchmark,
        opts: &PipelineOptions,
        seed: u64,
        faults: FaultPlan,
    ) -> Result<BenchmarkReport, PipelineError> {
        // ---- base run (untraced) ----------------------------------------
        if opts.measure_base {
            let mut cfg = SimConfig::default()
                .with_seed(seed)
                .with_faults(faults.clone());
            cfg.trace_enabled = false;
            let _span = dcatch_obs::span!("pipeline.base");
            World::run_once(&bench.program, &bench.topology, cfg)?;
        }

        // ---- governor rung: window cap under a memory budget ------------
        // Window entries cost ~O(chain count) bytes each (clock refs +
        // callstack); 512 B/entry is a deliberately conservative estimate,
        // so the governed cap errs toward smaller windows.
        let mut window_cap = opts.stream_window;
        if let Some(m) = budget::mem_budget() {
            let gov_cap = (m / 512).max(16);
            if window_cap.is_none_or(|w| gov_cap < w) {
                budget::record(DegradationEvent {
                    stage: "streaming".to_owned(),
                    from: window_cap
                        .map_or("unbounded_window".to_owned(), |w| format!("window_{w}")),
                    to: format!("window_{gov_cap}"),
                    reason: format!("window estimate 512 B/entry against memory budget {m} B"),
                });
                window_cap = Some(gov_cap);
            }
        }
        // A node crash is a spontaneous causal root: surviving chains can
        // race with anything that follows it, so no window ever provably
        // closes. Retirement is disabled rather than made unsound.
        let allow_retirement = faults.crashes.is_empty();

        // ---- pass 1: fused tracing + trace analysis ---------------------
        let mut cfg = SimConfig::default().with_seed(seed).with_faults(faults);
        cfg.tracing = opts.tracing;
        let pass_opts = |sync: Option<(&dcatch_detect::SyncPlan, &[(u64, u64)])>| OnlineOptions {
            window_cap,
            engine: FrontierOptions {
                eserial: sync.is_none(),
                allow_retirement,
            },
            sync_edges: sync.map_or(Vec::new(), |(p, _)| p.edges.clone()),
            inject_eserial: sync.map_or(Vec::new(), |(_, e)| e.to_vec()),
            ..OnlineOptions::default()
        };
        let pass1 = {
            let _span = dcatch_obs::span!("pipeline.streaming");
            let mut sink = OnlineDetector::new(pass_opts(None));
            let run = World::run_streamed(&bench.program, &bench.topology, cfg.clone(), &mut sink)?;
            if !run.failures.is_empty() {
                return Err(PipelineError::TracedRunFailed(format!(
                    "{:?}",
                    run.failures
                )));
            }
            sink.finalize()
        };
        let mut stats = StreamingStats {
            window_peak: pass1.window_peak,
            records_retired: pass1.records_retired,
            records_forced: pass1.records_forced,
            peak_bytes: pass1.peak_bytes,
        };
        let trace_stats = pass1.stats;
        let trace_bytes = pass1.trace_bytes;
        let mut candidates = pass1.candidates;
        let (ta_static, ta_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- static pruning ---------------------------------------------
        let pruner = Pruner::new(&bench.program);
        if opts.static_pruning {
            let _span = dcatch_obs::span!("pipeline.static_pruning");
            let (kept, _pruned, _stats) = pruner.prune(candidates);
            candidates = kept;
        }
        let (sp_static, sp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- loop/pull synchronization analysis -------------------------
        // The offline mode adds the inferred `w* ⇒ LoopExit` edges to the
        // graph and re-scans. Here the plan's occurrence-space edges are
        // fired into a *second* streamed pass (same seed, identical
        // schedule) whose frontier clocks absorb them as they arrive; the
        // pass-1 `Eserial` pairs are replayed verbatim so pass 2's order
        // is exactly pass 1's plus the inferred edges.
        if opts.loop_sync {
            if budget::time_expired() {
                budget::record(DegradationEvent {
                    stage: "loop_sync".to_owned(),
                    from: "focused_rerun".to_owned(),
                    to: "skipped".to_owned(),
                    reason: "time budget exhausted".to_owned(),
                });
            } else {
                let _span = dcatch_obs::span!("pipeline.loop_sync");
                let _inner = dcatch_obs::span!("detect.loopsync");
                let base_cfg = cfg.clone();
                let program = &bench.program;
                let topo = &bench.topology;
                let mut rerun = |objects: &std::collections::BTreeSet<String>| {
                    let focus_cfg = base_cfg
                        .clone()
                        .with_focus(FocusConfig::on(objects.iter().cloned()));
                    World::run_once(program, topo, focus_cfg)
                        .expect("focused re-run")
                        .trace
                };
                if let Some(plan) = plan_loop_sync(program, &candidates, &mut rerun) {
                    let pass2 = {
                        let mut sink =
                            OnlineDetector::new(pass_opts(Some((&plan, &pass1.eserial_edges))));
                        let run = World::run_streamed(program, topo, cfg.clone(), &mut sink)?;
                        if !run.failures.is_empty() {
                            return Err(PipelineError::TracedRunFailed(format!(
                                "{:?}",
                                run.failures
                            )));
                        }
                        sink.finalize()
                    };
                    stats.window_peak = stats.window_peak.max(pass2.window_peak);
                    stats.records_retired += pass2.records_retired;
                    stats.records_forced += pass2.records_forced;
                    stats.peak_bytes = stats.peak_bytes.max(pass2.peak_bytes);
                    let mut updated = pass2.candidates;
                    // drop the polling idiom pairs themselves
                    let sync_pairs = plan.sync_pairs();
                    updated.retain(|c| !sync_pairs.contains(&c.static_pair));
                    let pruned = candidates
                        .static_pair_count()
                        .saturating_sub(updated.static_pair_count());
                    dcatch_obs::counter!("detect_loopsync_edges_total")
                        .add(pass2.sync_edges_fired as u64);
                    dcatch_obs::counter!("detect_loopsync_pruned_total").add(pruned as u64);
                    candidates = updated;
                    // loop-sync edges may order candidates SP had already
                    // scored; re-apply the pruning filter
                    if opts.static_pruning {
                        let (kept, _, _) = pruner.prune(candidates);
                        candidates = kept;
                    }
                }
            }
        }
        let (lp_static, lp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        let mut report = Pipeline::finish_report(
            bench,
            opts,
            ReportTail {
                cfg: &cfg,
                hb: None,
                pruner: &pruner,
                candidates,
                ta: (ta_static, ta_stacks),
                sp: (sp_static, sp_stacks),
                lp: (lp_static, lp_stacks),
                trace_stats,
                trace_bytes,
                no_graph_reason: "no full HB graph (streaming detection)",
                streaming: Some(stats),
            },
        );
        // Recorded on the report directly, not via `budget::record`: an
        // explicit `--stream-window` cap is lossy even with no governor
        // installed, and the report must say so either way.
        if stats.records_forced > 0 {
            report.degradations.push(DegradationEvent {
                stage: "streaming".to_owned(),
                from: "exact_window".to_owned(),
                to: "lossy_window".to_owned(),
                reason: format!(
                    "{} accesses force-evicted by the window cap",
                    stats.records_forced
                ),
            });
        }
        Ok(report)
    }
}

/// Everything [`Pipeline::finish_report`] needs from either detection
/// mode (offline or streaming) to run triggering and assemble the report.
struct ReportTail<'a> {
    cfg: &'a SimConfig,
    hb: Option<&'a HbAnalysis>,
    pruner: &'a Pruner<'a>,
    candidates: CandidateSet,
    ta: (usize, usize),
    sp: (usize, usize),
    lp: (usize, usize),
    trace_stats: TraceStats,
    trace_bytes: usize,
    no_graph_reason: &'static str,
    streaming: Option<StreamingStats>,
}

/// Runs `f` on a dedicated `'static` thread so that panics are caught at
/// the join boundary and an optional wall-clock watchdog can give up on a
/// hung computation. On timeout the worker thread is *detached*, not
/// cancelled — it keeps burning its core until the process exits, which is
/// the price of not poisoning shared state by killing it mid-run.
///
/// This is the one guard every execution path shares: `detect all` wraps
/// whole benchmarks in it and `faults all` wraps per-scenario jobs, so a
/// `--timeout` bounds both the same way. The worker inherits the caller's
/// span verbosity.
pub fn run_bounded<T: Send + 'static>(
    name: &str,
    timeout: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, PipelineError> {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel();
    let verbose = dcatch_obs::trace::is_verbose();
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            dcatch_obs::trace::set_verbose(verbose);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .map_err(|payload| PipelineError::Panicked(panic_message(&*payload)));
            // the receiver is gone iff the watchdog already fired; the
            // result is then intentionally dropped
            let _ = tx.send(result);
        })
        .expect("spawn bounded worker thread");
    match timeout {
        Some(limit) => rx
            .recv_timeout(limit)
            .unwrap_or(Err(PipelineError::WatchdogTimeout { limit })),
        None => rx
            .recv()
            .unwrap_or_else(|_| Err(PipelineError::Panicked("worker vanished".to_owned()))),
    }
}

/// One benchmark through [`run_bounded`]: panics become
/// [`PipelineError::Panicked`], `opts.timeout` becomes the watchdog.
fn run_guarded(
    bench: &Benchmark,
    opts: &PipelineOptions,
) -> Result<BenchmarkReport, PipelineError> {
    let name = format!("dcatch-{}", bench.id);
    let bench = bench.clone();
    let opts = opts.clone();
    let timeout = opts.timeout;
    run_bounded(&name, timeout, move || Pipeline::run(&bench, &opts)).and_then(|r| r)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn take_candidates(set: CandidateSet) -> Vec<dcatch_detect::Candidate> {
    set.into_iter().collect()
}

/// Gives every report the same metric *name* set.
///
/// Metric names are interned in a global table on first use, so a report's
/// snapshot mentions every name registered *by the time its run finished* —
/// which depends on how runs interleave. A zero-valued counter is the same
/// measurement whether or not its name was registered yet, so we take the
/// union of names across all reports and zero-fill the gaps. After this,
/// the serialized report is byte-identical for any worker count.
fn normalize_metric_names(results: &mut [Result<BenchmarkReport, PipelineError>]) {
    use dcatch_obs::metrics::HistogramSnapshot;
    use std::collections::{BTreeMap, BTreeSet};
    let mut counters: BTreeSet<String> = BTreeSet::new();
    let mut gauges: BTreeSet<String> = BTreeSet::new();
    let mut histograms: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for report in results.iter().filter_map(|r| r.as_ref().ok()) {
        counters.extend(report.metrics.counters.keys().cloned());
        gauges.extend(report.metrics.gauges.keys().cloned());
        for (name, h) in &report.metrics.histograms {
            histograms
                .entry(name.clone())
                .or_insert_with(|| h.boundaries.clone());
        }
    }
    for report in results.iter_mut().filter_map(|r| r.as_mut().ok()) {
        for name in &counters {
            report.metrics.counters.entry(name.clone()).or_insert(0);
        }
        for name in &gauges {
            report.metrics.gauges.entry(name.clone()).or_insert(0);
        }
        for (name, boundaries) in &histograms {
            report
                .metrics
                .histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSnapshot {
                    boundaries: boundaries.clone(),
                    buckets: vec![0; boundaries.len() + 1],
                    sum: 0,
                    count: 0,
                });
        }
    }
}

/// Re-classifies a triggering report so only failures attributable to the
/// candidate's own predicted failure instructions count as harmful.
fn adjust_verdict(report: &TriggerReport, impacts: &[Impact]) -> Verdict {
    if report.verdict != Verdict::Harmful {
        return report.verdict;
    }
    // Only runs that executed the full forced order (both confirms) count:
    // a run stuck mid-coordination can hang the system through the hold
    // itself (e.g. branch-exclusive access pairs), which is an artifact of
    // the controller, not evidence about the race. The same predicate
    // drives the farm's confirm callback, which keeps the final verdict
    // independent of whether later orderings were cancelled.
    let attributable = report
        .runs
        .iter()
        .any(|r| r.completed && failures_attributable(&r.failures, impacts));
    if attributable {
        Verdict::Harmful
    } else {
        Verdict::BenignRace
    }
}

/// Whether any of `failures` matches a failure instruction predicted by
/// the candidate's static impact analysis.
fn failures_attributable(failures: &[Failure], impacts: &[Impact]) -> bool {
    use dcatch_model::FailureKind;
    use dcatch_sim::RunFailureKind;
    failures.iter().any(|f| {
        impacts.iter().any(|i| {
            let fi = i.failure();
            match (&f.kind, fi.kind) {
                (RunFailureKind::RetryLoopHang(l), FailureKind::LoopExit(l2)) => *l == l2,
                _ => f.stmt == Some(fi.stmt),
            }
        })
    })
}
