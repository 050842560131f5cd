//! The traced run: every item replayed stage by stage through each
//! layer's public entry points, with a span recorded around each call
//! from here (the program itself is not instrumented further).
//!
//! The replay mirrors `Pipeline::run`'s offline path without a resource
//! governor. The fidelity gate compares each replayed item with the
//! untraced report of the same item; a mismatch fails the run, because the
//! per-layer numbers would then describe a different program.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dcatch::{
    apply_ablation, find_candidates, run_farm, Benchmark, BitMatrix, ChainClocks, Failure,
    FarmSpec, FaultPlan, FocusConfig, HbAnalysis, Impact, OnlineDetector, OnlineOptions, OrderRun,
    PipelineOptions, Program, Pruner, RunFailureKind, SimConfig, Topology, TriggerReport, Verdict,
    VerdictCounts, World,
};
use dcatch_detect::analyze_loop_sync;
use dcatch_model::FailureKind;
use dcatch_obs::Json;
use dcatch_trace::{Record, StreamControl, TraceSet, TraceSink};

use crate::workload::{stream_fidelity, Fidelity, Inputs, Tally, Witness};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Item the span belongs to.
    pub item: Option<u32>,
    /// Traced pass the span belongs to.
    pub pass: u32,
}

/// In-memory span recorder; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    item: Cell<Option<u32>>,
    pass: Cell<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            item: Cell::new(None),
            pass: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.open.borrow().last().copied(),
                item: self.item.get(),
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now();
        out
    }

    /// Total and self nanoseconds per span name within traced pass `pass`.
    /// Self time is the duration minus the time direct children cover.
    pub fn totals(&self, pass: u32) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.pass == pass) {
            let dur = s.end_ns - s.start_ns;
            let t = totals.entry(s.name).or_default();
            t.0 += dur;
            t.1 += dur.saturating_sub(child_ns[i]);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
            let line = Json::obj([
                ("name", Json::Str(s.name.to_owned())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("item", opt(s.item.map(u64::from))),
                ("pass", Json::UInt(u64::from(s.pass))),
            ]);
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()
    }
}

/// Counts gathered during one traced pass, beside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// `sim_runs_total` over the replay.
    pub sim_runs: u64,
    /// `sim_steps_total` over the replay.
    pub sim_steps: u64,
    /// Steps of the untraced base runs (the denominator of ns/step).
    pub base_steps: u64,
    /// Records emitted by traced or streamed runs.
    pub records: u64,
    /// Trace bytes in the on-disk line format.
    pub bytes: u64,
    /// Records the HB analysis was built over.
    pub hb_records: u64,
    /// HB edges.
    pub hb_edges: u64,
    /// Largest reachability index.
    pub reach_bytes: u64,
    /// Focused re-runs requested by loop-sync.
    pub loopsync_reruns: u64,
    /// Static candidate pairs after TA, SP and LP.
    pub candidates: [u64; 3],
    /// `trigger_order_runs_total`.
    pub order_runs: u64,
    /// `trigger_retries`.
    pub retries: u64,
    /// `trigger_attempts_total`.
    pub attempts: u64,
    /// Records the online detector consumed.
    pub online_records: u64,
    /// Nanoseconds inside the online detector (sink calls + finalize).
    pub online_ns: u64,
    /// Per-record nanoseconds inside the online detector.
    pub online_record_ns: Vec<u32>,
    /// Largest online window.
    pub window_peak: u64,
    /// Window entries retired provably.
    pub retired: u64,
}

impl Counts {
    /// The determinism witness of this pass.
    pub fn witness(&self) -> Witness {
        Witness {
            records: self.records,
            sim_steps: self.sim_steps,
            order_runs: self.order_runs,
            reach_bytes: self.reach_bytes,
            window_peak: self.window_peak,
        }
    }
}

/// Outcome of one traced pass.
pub struct TracedPass {
    /// Wall time of the replay, excluding the extra null-sink runs.
    pub secs: f64,
    /// Counts beside the spans.
    pub counts: Counts,
    /// Items attempted, failed to replay, or replayed differently.
    pub tally: Tally,
    /// Fidelity mismatches, as readable lines.
    pub mismatches: Vec<String>,
}

/// Replays every item once with spans on, checking each against the
/// untraced reference of the same item.
pub fn replay_pass(
    inputs: &Inputs,
    pass: usize,
    tracer: &Tracer,
    reference: &[Option<Fidelity>],
) -> TracedPass {
    tracer.pass.set(pass as u32);
    let mut counts = Counts::default();
    let mut replayed: Vec<(usize, Result<Fidelity, String>)> = Vec::new();
    // (program, topology, traced config, item) of every simulator run that
    // is repeated into a null sink after the pass
    let mut null_runs: Vec<(&Program, &Topology, SimConfig, usize)> = Vec::new();
    let started = Instant::now();
    match inputs {
        Inputs::Taxdc { benches, opts, .. } => {
            for i in inputs.order(pass) {
                let bench = &benches[i];
                tracer.item.set(Some(i as u32));
                let none = FaultPlan::default();
                let result = tracer.span("item", || {
                    replay_item(bench, opts, &none, tracer, &mut counts)
                });
                replayed.push((i, result));
                let cfg = traced_config(bench, opts, &none);
                null_runs.push((&bench.program, &bench.topology, cfg, i));
            }
        }
        Inputs::Synth {
            scenarios, opts, ..
        } => {
            for i in inputs.order(pass) {
                let bench = &scenarios[i].bench;
                tracer.item.set(Some(i as u32));
                // as `run_spec`: the scenario's own fault plan in every run
                let faults = match FaultPlan::parse(&scenarios[i].spec.fault_plan) {
                    Ok(plan) => plan,
                    Err(e) => {
                        replayed.push((i, Err(format!("bad scenario fault plan: {e}"))));
                        continue;
                    }
                };
                let result = tracer.span("item", || {
                    replay_item(bench, opts, &faults, tracer, &mut counts)
                });
                replayed.push((i, result));
                let cfg = traced_config(bench, opts, &faults);
                null_runs.push((&bench.program, &bench.topology, cfg, i));
            }
        }
        Inputs::Stream { program, topo, cfg } => {
            tracer.item.set(Some(0));
            let result = tracer.span("item", || {
                replay_stream(program, topo, cfg, tracer, &mut counts)
            });
            replayed.push((0, result));
            null_runs.push((program, topo, cfg.clone(), 0));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    if let Inputs::Stream { program, topo, cfg } = inputs {
        // the untraced run the stream is compared with: the denominator of
        // ns/step and of the tracing overhead, outside the pass's wall time
        let mut base = cfg.clone();
        base.trace_enabled = false;
        if let Ok(run) = tracer.span("sim.base", || World::run_once(program, topo, base)) {
            counts.base_steps += run.steps;
        }
    }
    // simulator + emission alone, outside the pass's wall time
    for (program, topo, cfg, i) in null_runs {
        tracer.item.set(Some(i as u32));
        let mut sink = NullSink(0);
        let run = tracer.span("sim.null_sink", || {
            World::run_streamed(program, topo, cfg, &mut sink)
        });
        black_box((run.is_ok(), sink.0));
    }
    tracer.item.set(None);

    let mut tally = Tally::default();
    let mut mismatches = Vec::new();
    for (i, result) in replayed {
        tally.attempted += 1;
        let expected = reference.get(i).and_then(Option::as_ref);
        match result {
            Err(e) => {
                tally.errors += 1;
                mismatches.push(format!("item {i}: replay failed: {e}"));
            }
            Ok(got) if expected != Some(&got) => {
                tally.wrong += 1;
                mismatches.push(format!(
                    "item {i}: untraced {expected:?} vs replayed {got:?}"
                ));
            }
            Ok(_) => {}
        }
    }
    TracedPass {
        secs,
        counts,
        tally,
        mismatches,
    }
}

/// One streamed run into the online detector, every call into it timed.
fn replay_stream(
    program: &Program,
    topo: &Topology,
    cfg: &SimConfig,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<Fidelity, String> {
    let mut sink = TimedSink {
        detector: OnlineDetector::new(OnlineOptions::default()),
        ns: 0,
        per_record: Vec::with_capacity(1 << 20),
    };
    let before = dcatch_obs::metrics::snapshot();
    let run = tr.span("detect.online", || {
        World::run_streamed(program, topo, cfg.clone(), &mut sink)
    });
    let finalize_started = Instant::now();
    let outcome = tr.span("detect.finalize", || sink.detector.finalize());
    let finalize_ns = finalize_started.elapsed().as_nanos() as u64;
    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    counts.sim_runs += delta.counter("sim_runs_total");
    counts.sim_steps += delta.counter("sim_steps_total");
    counts.online_ns = sink.ns + finalize_ns;
    counts.online_record_ns = sink.per_record;
    counts.online_records = outcome.records as u64;
    counts.records = outcome.records as u64;
    counts.bytes = outcome.trace_bytes as u64;
    counts.window_peak = outcome.window_peak as u64;
    counts.retired = outcome.records_retired;
    // no pruning or loop-sync runs on a stream
    counts.candidates = [outcome.candidates.static_pair_count() as u64, 0, 0];
    let run = run.map_err(|e| e.to_string())?;
    if !run.failures.is_empty() {
        return Err(format!("streamed run failed: {:?}", run.failures));
    }
    Ok(stream_fidelity(&outcome, run.steps))
}

/// The traced-run configuration the pipeline would use for `bench`.
fn traced_config(bench: &Benchmark, opts: &PipelineOptions, faults: &FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_seed(opts.seed.unwrap_or(bench.seed))
        .with_faults(faults.clone());
    cfg.tracing = opts.tracing;
    cfg
}

/// `Pipeline::run` for one benchmark, stage by stage.
fn replay_item(
    bench: &Benchmark,
    opts: &PipelineOptions,
    faults: &FaultPlan,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<Fidelity, String> {
    let (program, topo) = (&bench.program, &bench.topology);
    let before = dcatch_obs::metrics::snapshot();
    let seed = opts.seed.unwrap_or(bench.seed);
    let cfg = traced_config(bench, opts, faults);
    if opts.measure_base {
        let mut base = SimConfig::default()
            .with_seed(seed)
            .with_faults(faults.clone());
        base.trace_enabled = false;
        let run = tr
            .span("sim.base", || World::run_once(program, topo, base))
            .map_err(|e| e.to_string())?;
        counts.base_steps += run.steps;
    }
    let run = tr
        .span("trace.run", || World::run_once(program, topo, cfg.clone()))
        .map_err(|e| e.to_string())?;
    if !run.failures.is_empty() {
        return Err(format!(
            "traced run was not failure-free: {:?}",
            run.failures
        ));
    }
    let (bytes, stats) = tr.span("trace.byte_size", || {
        (run.trace.byte_size(), run.trace.stats())
    });
    counts.records += stats.total as u64;
    counts.bytes += bytes as u64;

    let mut hb = tr
        .span("hb.build", || {
            let analyzed = apply_ablation(&run.trace, opts.ablation);
            // the pipeline sizes both engines before building
            let n = analyzed.len();
            black_box(BitMatrix::estimated_bytes(n));
            black_box(ChainClocks::estimated_bytes(
                n,
                ChainClocks::chain_count(&analyzed),
            ));
            HbAnalysis::build(analyzed, &opts.hb)
        })
        .map_err(|e| e.to_string())?;
    counts.hb_records += hb.trace().len() as u64;
    counts.hb_edges += hb.edge_count() as u64;
    counts.reach_bytes = counts.reach_bytes.max(hb.reach_bytes() as u64);

    let mut candidates = tr.span("detect.scan", || find_candidates(&hb));
    let ta = (
        candidates.static_pair_count(),
        candidates.callstack_pair_count(),
    );
    let pruner = tr.span("prune.setup", || Pruner::new(program));
    if opts.static_pruning {
        candidates = tr.span("prune.prune", || pruner.prune(candidates).0);
    }
    let sp = (
        candidates.static_pair_count(),
        candidates.callstack_pair_count(),
    );
    if opts.loop_sync {
        let mut reruns = 0u64;
        let mut rerun = |objects: &BTreeSet<String>| -> TraceSet {
            reruns += 1;
            let focus = cfg
                .clone()
                .with_focus(FocusConfig::on(objects.iter().cloned()));
            tr.span("sim.focused", || World::run_once(program, topo, focus))
                .expect("focused re-run")
                .trace
        };
        candidates = tr
            .span("detect.loopsync", || {
                analyze_loop_sync(program, &mut hb, candidates, &mut rerun)
            })
            .0;
        counts.loopsync_reruns += reruns;
        if opts.static_pruning {
            candidates = tr.span("prune.prune", || pruner.prune(candidates).0);
        }
    }
    let lp = (
        candidates.static_pair_count(),
        candidates.callstack_pair_count(),
    );
    for (slot, c) in counts.candidates.iter_mut().zip([ta.0, sp.0, lp.0]) {
        *slot += c as u64;
    }

    let candidates: Vec<_> = candidates.into_iter().collect();
    let impacts: Vec<Vec<Impact>> = tr.span("prune.prune", || {
        candidates
            .iter()
            .map(|c| {
                let mut v = pruner.impact_of(&c.rep.0);
                v.extend(pruner.impact_of(&c.rep.1));
                v
            })
            .collect()
    });
    let triggered: Vec<Option<TriggerReport>> = if opts.triggering {
        let specs: Vec<FarmSpec> = tr.span("trigger.placement", || {
            candidates.iter().map(|c| FarmSpec::new(c, &hb)).collect()
        });
        let confirm = |ci: usize, runs: &[OrderRun]| {
            runs.iter()
                .any(|r| r.completed && attributable(&r.failures, &impacts[ci]))
        };
        tr.span("trigger.farm", || {
            run_farm(
                program,
                topo,
                &cfg,
                &specs,
                opts.trigger_jobs,
                Some(&confirm),
                None,
            )
        })
        .into_iter()
        .map(Some)
        .collect()
    } else {
        candidates.iter().map(|_| None).collect()
    };

    let mut verdicts = VerdictCounts::default();
    for ((candidate, impacts), trig) in candidates.iter().zip(&impacts).zip(&triggered) {
        let verdict = trig
            .as_ref()
            .filter(|t| !t.cancelled)
            .map(|t| adjust_verdict(t, impacts));
        let stacks = candidate.stack_pairs.len();
        match verdict {
            Some(Verdict::Harmful) => {
                verdicts.bug_static += 1;
                verdicts.bug_stacks += stacks;
            }
            Some(Verdict::BenignRace) => {
                verdicts.benign_static += 1;
                verdicts.benign_stacks += stacks;
            }
            Some(Verdict::Serial) => {
                verdicts.serial_static += 1;
                verdicts.serial_stacks += stacks;
            }
            None => {}
        }
    }

    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    let fidelity = Fidelity {
        counts: [ta, sp, lp],
        verdicts,
        sim_runs: delta.counter("sim_runs_total"),
        sim_steps: delta.counter("sim_steps_total"),
        order_runs: delta.counter("trigger_order_runs_total"),
    };
    counts.sim_runs += fidelity.sim_runs;
    counts.sim_steps += fidelity.sim_steps;
    counts.order_runs += fidelity.order_runs;
    counts.retries += delta.counter("trigger_retries");
    counts.attempts += delta.counter("trigger_attempts_total");
    Ok(fidelity)
}

/// The pipeline's verdict rule: a Harmful triggering verdict stands only
/// when a fully executed order produced a failure the candidate's own
/// impact analysis predicted.
fn adjust_verdict(report: &TriggerReport, impacts: &[Impact]) -> Verdict {
    if report.verdict != Verdict::Harmful {
        return report.verdict;
    }
    if report
        .runs
        .iter()
        .any(|r| r.completed && attributable(&r.failures, impacts))
    {
        Verdict::Harmful
    } else {
        Verdict::BenignRace
    }
}

/// Whether any failure matches a failure instruction the impact analysis
/// predicted.
fn attributable(failures: &[Failure], impacts: &[Impact]) -> bool {
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

/// Forwards to the online detector, timing every call into it.
struct TimedSink {
    detector: OnlineDetector,
    ns: u64,
    per_record: Vec<u32>,
}

impl TraceSink for TimedSink {
    fn record(&mut self, record: &Record) {
        let t = Instant::now();
        self.detector.record(record);
        let ns = t.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.per_record.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    fn control(&mut self, control: StreamControl) {
        let t = Instant::now();
        self.detector.control(control);
        self.ns += t.elapsed().as_nanos() as u64;
    }
}

/// Counts records and drops them: the simulator's emission cost alone.
struct NullSink(u64);

impl TraceSink for NullSink {
    fn record(&mut self, _: &Record) {
        self.0 += 1;
    }

    fn control(&mut self, _: StreamControl) {}
}
