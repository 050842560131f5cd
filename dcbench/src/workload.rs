//! The four workloads: their seeded inputs, one untraced closed-loop pass,
//! and the ground-truth checks applied to every item.

use std::time::Instant;

use dcatch::{
    all_benchmarks_scaled, batch_specs, run_spec, score_report, streambench, streambench_rounds,
    Benchmark, BenchmarkReport, OnlineDetector, OnlineOptions, Pipeline, PipelineError,
    PipelineOptions, Program, SimConfig, StreamOutcome, SynthBatchConfig, Topology, TraceSink,
    TracingMode, Verdict, VerdictCounts, World,
};
use dcatch_apps::synth::{generate, SynthScenario};
use dcatch_obs::rng::SmallRng;
use dcatch_trace::{Record, StreamControl};

/// Scale of the seven TaxDC miniatures on `taxdc_trigger`.
const TRIGGER_SCALE: u32 = 16;
/// Scale of the seven TaxDC miniatures on `taxdc_fulltrace`.
const FULLTRACE_SCALE: u32 = 20;
/// Records in one `stream_1m` pass.
const STREAM_RECORDS: u64 = 1_000_000;
/// Records per `stream_1m` item: the stream is timed segment by segment.
const STREAM_SEGMENT: u64 = 10_000;
/// Generated scenarios per protocol in one `synth_batch` pass: the batch
/// `dcatch synth --count 50` runs and `SYNTH_BASELINE.json` records.
const SYNTH_PER_PROTOCOL: u32 = 50;
/// The racer pair `streambench` plants; it must be the sole candidate.
const STREAM_PLANTED_OBJECT: &str = "shared_flag";

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full pipeline with triggering on the seven TaxDC miniatures.
    TaxdcTrigger,
    /// Full memory tracing without triggering on the seven miniatures.
    TaxdcFulltrace,
    /// One long live stream into the online detector.
    Stream1m,
    /// Generated scenarios with planted bugs and fault plans.
    SynthBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TaxdcTrigger,
        Workload::TaxdcFulltrace,
        Workload::Stream1m,
        Workload::SynthBatch,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TaxdcTrigger => "taxdc_trigger",
            Workload::TaxdcFulltrace => "taxdc_fulltrace",
            Workload::Stream1m => "stream_1m",
            Workload::SynthBatch => "synth_batch",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one run. The program sees only these.
pub enum Inputs {
    /// TaxDC miniatures at scale; `seed` permutes their arrival order.
    Taxdc {
        /// The seven benchmarks.
        benches: Vec<Benchmark>,
        /// Pipeline options (the CLI's defaults for this workload).
        opts: PipelineOptions,
        /// Seed of the per-pass arrival order.
        seed: u64,
    },
    /// The streambench ping-pong program and its run configuration.
    Stream {
        /// The program.
        program: Program,
        /// Its two-node deployment.
        topo: Topology,
        /// Seeded, fully traced run configuration.
        cfg: SimConfig,
    },
    /// Generated scenarios with their planted ground truth; `seed`
    /// permutes their arrival order.
    Synth {
        /// One scenario per (protocol, generator seed).
        scenarios: Vec<SynthScenario>,
        /// Pipeline options (the CLI's defaults for `dcatch synth`).
        opts: PipelineOptions,
        /// Seed of the per-pass arrival order.
        seed: u64,
    },
}

/// Builds a workload's inputs from the seed: every piece of one-time work
/// before the first timed item. Returns the inputs and the nanoseconds
/// spent inside the `apps` crate building programs.
pub fn setup(workload: Workload, seed: u64) -> (Inputs, u64) {
    let mut apps_ns = 0;
    let inputs = match workload {
        Workload::TaxdcTrigger | Workload::TaxdcFulltrace => {
            let fulltrace = workload == Workload::TaxdcFulltrace;
            let scale = if fulltrace {
                FULLTRACE_SCALE
            } else {
                TRIGGER_SCALE
            };
            let benches = timed(&mut apps_ns, || all_benchmarks_scaled(scale));
            let mut opts = PipelineOptions::full();
            if fulltrace {
                opts.tracing = TracingMode::Full;
                opts.triggering = false;
            }
            Inputs::Taxdc {
                benches,
                opts,
                seed,
            }
        }
        Workload::Stream1m => {
            let rounds = streambench_rounds(STREAM_RECORDS);
            let (program, topo) = timed(&mut apps_ns, || streambench(rounds));
            // as `dcatch streambench`: full tracing makes the planted
            // thread racers visible; the step cap leaves headroom
            let mut cfg = SimConfig::default().with_seed(seed).with_full_tracing();
            cfg.max_steps = (rounds as u64).saturating_mul(32).max(2_000_000);
            Inputs::Stream { program, topo, cfg }
        }
        Workload::SynthBatch => {
            // One fixed batch; the seed orders its arrivals. Batches drawn
            // from other generator seeds differ by up to 40% in simulator
            // steps, which would swamp any change under test.
            let cfg = SynthBatchConfig {
                count: SYNTH_PER_PROTOCOL,
                ..SynthBatchConfig::default()
            };
            let specs = batch_specs(&cfg);
            let scenarios = timed(&mut apps_ns, || specs.iter().map(generate).collect());
            Inputs::Synth {
                scenarios,
                opts: PipelineOptions::full(),
                seed,
            }
        }
    };
    (inputs, apps_ns)
}

/// Runs `f`, adding its wall time to `ns`.
fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns += t.elapsed().as_nanos() as u64;
    out
}

impl Inputs {
    /// Items in one pass.
    pub fn items(&self) -> usize {
        match self {
            Inputs::Taxdc { benches, .. } => benches.len(),
            Inputs::Stream { .. } => 1,
            Inputs::Synth { scenarios, .. } => scenarios.len(),
        }
    }

    /// The seeded arrival order of pass `pass`.
    pub fn order(&self, pass: usize) -> Vec<usize> {
        let seed = match self {
            Inputs::Taxdc { seed, .. } | Inputs::Synth { seed, .. } => *seed,
            Inputs::Stream { .. } => 0,
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9));
        let mut order: Vec<usize> = (0..self.items()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(i + 1));
        }
        order
    }
}

/// Ground-truth and failure tallies over items.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Items attempted.
    pub attempted: u64,
    /// Items that produced no report.
    pub errors: u64,
    /// Items with a report that failed a ground-truth check.
    pub wrong: u64,
    /// Ground-truth positives (known bugs, planted pairs).
    pub truth: u64,
    /// Ground-truth positives the program found.
    pub found: u64,
    /// Positive claims the program made (Harmful verdicts, stream candidates).
    pub claims: u64,
    /// Positive claims that ground truth confirms.
    pub true_claims: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.truth += other.truth;
        self.found += other.found;
        self.claims += other.claims;
        self.true_claims += other.true_claims;
    }

    /// Items that finished with a report ÷ items attempted.
    pub fn ok_frac(&self) -> f64 {
        ratio(self.attempted - self.errors, self.attempted)
    }

    /// Ground-truth positives found ÷ ground-truth positives.
    pub fn recall(&self) -> f64 {
        ratio(self.found, self.truth)
    }

    /// Confirmed claims ÷ claims; 1 when no claim was made.
    pub fn precision(&self) -> f64 {
        if self.claims == 0 {
            1.0
        } else {
            ratio(self.true_claims, self.claims)
        }
    }

    /// Items that errored or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    fn item(
        errors: u64,
        wrong: bool,
        truth: u64,
        found: u64,
        claims: u64,
        true_claims: u64,
    ) -> Self {
        Tally {
            attempted: 1,
            errors,
            wrong: u64::from(wrong && errors == 0),
            truth,
            found,
            claims,
            true_claims,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Work counts of one pass. Deterministic for fixed inputs, so any
/// difference between passes of one run means the program did different
/// work and timing comparisons are void.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Witness {
    /// Trace records emitted by the traced (or streamed) runs.
    pub records: u64,
    /// Simulator steps over every run.
    pub sim_steps: u64,
    /// Trigger ordering runs.
    pub order_runs: u64,
    /// Largest reachability index built.
    pub reach_bytes: u64,
    /// Largest online-detector window.
    pub window_peak: u64,
}

impl Witness {
    /// One-line JSON rendering.
    pub fn to_json(self) -> dcatch_obs::Json {
        use dcatch_obs::Json;
        Json::obj([
            ("records", Json::UInt(self.records)),
            ("sim_steps", Json::UInt(self.sim_steps)),
            ("order_runs", Json::UInt(self.order_runs)),
            ("reach_bytes", Json::UInt(self.reach_bytes)),
            ("window_peak", Json::UInt(self.window_peak)),
        ])
    }
}

/// What one item's report must reproduce exactly when replayed stage by
/// stage: static counts, verdict tallies, and the work counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fidelity {
    /// (static, callstack) candidate counts after TA, SP and LP.
    pub counts: [(usize, usize); 3],
    /// Verdict tallies.
    pub verdicts: VerdictCounts,
    /// `sim_runs_total`.
    pub sim_runs: u64,
    /// `sim_steps_total`.
    pub sim_steps: u64,
    /// `trigger_order_runs_total`.
    pub order_runs: u64,
}

/// One untraced pass over every item.
pub struct Pass {
    /// Wall time of the pass.
    pub secs: f64,
    /// Per-item latencies.
    pub item_ms: Vec<f64>,
    /// Ground-truth tallies.
    pub tally: Tally,
    /// Work counts.
    pub witness: Witness,
    /// Per-item fidelity reference, indexed by item (not arrival order).
    pub reference: Vec<Option<Fidelity>>,
}

/// Runs every item once, one at a time, through the program's own entry
/// points with tracing off.
pub fn run_pass(inputs: &Inputs, pass: usize) -> Pass {
    let mut out = Pass {
        secs: 0.0,
        item_ms: Vec::new(),
        tally: Tally::default(),
        witness: Witness::default(),
        reference: vec![None; inputs.items()],
    };
    let started = Instant::now();
    match inputs {
        Inputs::Taxdc { benches, opts, .. } => {
            for i in inputs.order(pass) {
                let bench = &benches[i];
                let t = Instant::now();
                let result = Pipeline::run_all(std::slice::from_ref(bench), opts, 1)
                    .pop()
                    .expect("one result per benchmark");
                out.item_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let tally = check_taxdc(bench, opts, &result);
                if let Ok(report) = &result {
                    absorb_report(&mut out.witness, report);
                    out.reference[i] = Some(fidelity_of(report));
                }
                out.tally.add(&tally);
            }
        }
        Inputs::Synth {
            scenarios, opts, ..
        } => {
            for i in inputs.order(pass) {
                let t = Instant::now();
                let (_, result) = run_spec(&scenarios[i].spec, opts);
                out.item_ms.push(t.elapsed().as_secs_f64() * 1e3);
                // ground truth comes from the set-up's own generation, not
                // from anything the run returned
                let tally = check_synth(&scenarios[i], &result);
                if let Ok(report) = &result {
                    absorb_report(&mut out.witness, report);
                    out.reference[i] = Some(fidelity_of(report));
                }
                out.tally.add(&tally);
            }
        }
        Inputs::Stream { program, topo, cfg } => {
            let mut sink = Segments {
                detector: OnlineDetector::new(OnlineOptions::default()),
                records: 0,
                marks: vec![Instant::now()],
            };
            let run = World::run_streamed(program, topo, cfg.clone(), &mut sink);
            let outcome = sink.detector.finalize();
            out.item_ms = sink
                .marks
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect();
            let ok = matches!(&run, Ok(r) if r.failures.is_empty());
            out.tally.add(&check_stream(ok, &outcome));
            if let Ok(run) = &run {
                out.witness.sim_steps = run.steps;
                out.reference[0] = Some(stream_fidelity(&outcome, run.steps));
            }
            out.witness.records = outcome.records as u64;
            out.witness.window_peak = outcome.window_peak as u64;
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

/// Forwards records to the online detector and timestamps every
/// [`STREAM_SEGMENT`]-th record, so the stream's items are its segments.
struct Segments {
    detector: OnlineDetector,
    records: u64,
    marks: Vec<Instant>,
}

impl TraceSink for Segments {
    fn record(&mut self, record: &Record) {
        self.detector.record(record);
        self.records += 1;
        if self.records.is_multiple_of(STREAM_SEGMENT) {
            self.marks.push(Instant::now());
        }
    }

    fn control(&mut self, control: StreamControl) {
        self.detector.control(control);
    }
}

/// Whether a report's candidate lies on one of the benchmark's known-bug
/// objects (Table 3 ground truth, not produced by the detector).
fn on_known_bug(bench: &Benchmark, object: &str) -> bool {
    bench.bug_objects.contains(&object)
}

/// TaxDC ground truth. With triggering: the known bug is confirmed
/// Harmful, and every Harmful verdict lies on a known-bug object. Without:
/// the known-bug object is among the LP candidates.
fn check_taxdc(
    bench: &Benchmark,
    opts: &PipelineOptions,
    result: &Result<BenchmarkReport, PipelineError>,
) -> Tally {
    let report = match result {
        Ok(r) if r.oom.is_none() => r,
        _ => return Tally::item(1, true, 1, 0, 0, 0),
    };
    let harmful: Vec<&str> = report
        .reports
        .iter()
        .filter(|r| r.verdict == Some(Verdict::Harmful))
        .map(|r| r.candidate.object())
        .collect();
    let true_claims = harmful.iter().filter(|o| on_known_bug(bench, o)).count() as u64;
    let found = if opts.triggering {
        true_claims > 0
    } else {
        report
            .reports
            .iter()
            .any(|r| on_known_bug(bench, r.candidate.object()))
    };
    let claims = harmful.len() as u64;
    Tally::item(
        0,
        !found || true_claims != claims,
        1,
        u64::from(found),
        claims,
        true_claims,
    )
}

/// Synth ground truth: every planted bug is covered by a Harmful verdict
/// on one of its planted pairs, and no Harmful verdict lies elsewhere.
fn check_synth(scenario: &SynthScenario, result: &Result<BenchmarkReport, PipelineError>) -> Tally {
    let planted = scenario.truth.len() as u64;
    let report = match result {
        Ok(r) if r.oom.is_none() => r,
        _ => return Tally::item(1, true, planted, 0, 0, 0),
    };
    let (missed, false_positives) = score_report(scenario, report);
    let claims = report
        .reports
        .iter()
        .filter(|r| r.verdict == Some(Verdict::Harmful))
        .count() as u64;
    let false_positives = false_positives as u64;
    Tally::item(
        0,
        !missed.is_empty() || false_positives > 0,
        planted,
        planted - missed.len() as u64,
        claims,
        claims - false_positives,
    )
}

/// Streambench ground truth: the planted racer pair is the sole candidate.
fn check_stream(ok: bool, outcome: &StreamOutcome) -> Tally {
    if !ok {
        return Tally::item(1, true, 1, 0, 0, 0);
    }
    let claims = outcome.candidates.static_pair_count() as u64;
    let planted = outcome
        .candidates
        .iter()
        .filter(|c| c.object() == STREAM_PLANTED_OBJECT)
        .count() as u64;
    Tally::item(
        0,
        planted != 1 || claims != 1,
        1,
        planted.min(1),
        claims,
        planted,
    )
}

fn absorb_report(w: &mut Witness, report: &BenchmarkReport) {
    w.records += report.trace_stats.total as u64;
    w.sim_steps += report.metrics.counter("sim_steps_total");
    w.order_runs += report.metrics.counter("trigger_order_runs_total");
    w.reach_bytes = w
        .reach_bytes
        .max(report.metrics.gauge("hb_reach_bytes_peak"));
}

/// The fidelity reference of an untraced pipeline report.
fn fidelity_of(report: &BenchmarkReport) -> Fidelity {
    Fidelity {
        counts: [
            (report.ta_static, report.ta_stacks),
            (report.sp_static, report.sp_stacks),
            (report.lp_static, report.lp_stacks),
        ],
        verdicts: report.verdicts,
        sim_runs: report.metrics.counter("sim_runs_total"),
        sim_steps: report.metrics.counter("sim_steps_total"),
        order_runs: report.metrics.counter("trigger_order_runs_total"),
    }
}

/// The fidelity reference of one streamed run: its candidates and steps.
pub fn stream_fidelity(outcome: &StreamOutcome, steps: u64) -> Fidelity {
    let c = (
        outcome.candidates.static_pair_count(),
        outcome.candidates.callstack_pair_count(),
    );
    Fidelity {
        counts: [c, c, c],
        sim_runs: 1,
        sim_steps: steps,
        ..Fidelity::default()
    }
}
