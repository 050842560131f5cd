//! `dcbench` — the DCatch-RS benchmark (see README.md).
//!
//! ```text
//! dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a closed loop, one item at a time, for `--seconds`
//! seconds. With `--trace 0` it prints the end-to-end metrics, measured
//! with tracing off; with `--trace 1` it spends half the time on the same
//! untraced loop and half replaying every item stage by stage under spans,
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod stats;
mod workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dcatch_obs::Json;

use layers::{replay_pass, Tracer};
use stats::{median, peak_heap_mb, percentile, samples_for, CountingAlloc};
use workload::{run_pass, setup, Pass, Tally, Witness, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("ok_frac", "frac"),
    ("recall", "frac"),
    ("precision", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not run reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("apps.build_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.steps", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.stream_null_s", "s"),
    ("trace.records", "count"),
    ("trace.bytes", "B"),
    ("trace.overhead_x", "x"),
    ("trace.byte_size_ms", "ms"),
    ("hb.build_s", "s"),
    ("hb.ns_per_record", "ns"),
    ("hb.edges", "count"),
    ("hb.reach_bytes", "B"),
    ("detect.scan_ms", "ms"),
    ("detect.loopsync_s", "s"),
    ("detect.loopsync_reruns", "count"),
    ("detect.candidates_ta", "count"),
    ("detect.candidates_sp", "count"),
    ("detect.candidates_lp", "count"),
    ("detect.online_s", "s"),
    ("detect.online_ns_per_record", "ns"),
    ("detect.online_record_p999_ns", "ns"),
    ("detect.online_window_peak", "count"),
    ("detect.online_retired_frac", "frac"),
    ("prune.setup_ms", "ms"),
    ("prune.prune_ms", "ms"),
    ("prune.kept_frac", "frac"),
    ("trigger.farm_s", "s"),
    ("trigger.placement_ms", "ms"),
    ("trigger.order_runs", "count"),
    ("trigger.retries", "count"),
    ("trigger.attempts", "count"),
    ("trigger.us_per_order_run", "us"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Set-up repetitions: at least this many, and until this much time has
/// been spent, so the median is not one cold call.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 2_000;
/// Untraced passes a run makes at least (the median needs a few).
const MIN_PASSES: usize = 5;
/// Measuring stops here even if the minimum counts are not reached, so a
/// run ends within its time limit on a slow machine.
const MAX_MEASURE_SECS: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |k: &str| values.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (expected one of {names:?})")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            eprintln!("usage: dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Json, String> {
    let started = Instant::now();
    // ---- set-up, repeated: report the median --------------------------
    let mut setup_secs = Vec::new();
    let mut apps_ms = Vec::new();
    let mut inputs = None;
    while setup_secs.len() < SETUP_MIN_REPS
        || (setup_secs.iter().sum::<f64>() < SETUP_MIN_SECS && setup_secs.len() < SETUP_MAX_REPS)
    {
        drop(inputs.take());
        let t = Instant::now();
        let (built, apps_ns) = setup(args.workload, args.seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        apps_ms.push(apps_ns as f64 / 1e6);
        inputs = Some(built);
    }
    let inputs = inputs.expect("set-up ran");

    // ---- untraced closed loop -------------------------------------------
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // item percentiles are only printed from an untraced run, which keeps
    // going until p95 has ten samples beyond it
    let min_items = if args.trace { 0 } else { samples_for(95.0) };
    let min_passes = if args.trace { 2 } else { MIN_PASSES };
    let loop_started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let mut pass = run_pass(&inputs, passes.len());
        if !passes.is_empty() {
            // only the first pass is the fidelity reference; keeping every
            // pass's would grow the heap with the pass count
            pass.reference = Vec::new();
        }
        passes.push(pass);
        let items: usize = passes.iter().map(|p| p.item_ms.len()).sum();
        let elapsed = loop_started.elapsed().as_secs_f64();
        let enough = elapsed >= budget && passes.len() >= min_passes && items >= min_items;
        if enough || started.elapsed().as_secs_f64() >= MAX_MEASURE_SECS {
            break;
        }
    }
    let mut tally = Tally::default();
    for p in &passes {
        tally.add(&p.tally);
    }
    let witnesses: Vec<Witness> = passes.iter().map(|p| p.witness).collect();
    let mut correct = report_witness(args, "untraced", &witnesses);
    let untraced_wall = median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>());

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if !args.trace {
        let items: Vec<f64> = passes.iter().flat_map(|p| p.item_ms.clone()).collect();
        if items.len() < samples_for(95.0) {
            eprintln!(
                "dcbench: only {} items; item_p95_ms has fewer than 10 samples beyond it",
                items.len()
            );
        }
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        eprintln!("dcbench: pass secs {secs:?}");
        eprintln!(
            "dcbench: {} passes, {} items, {} attempted, {} failed",
            passes.len(),
            items.len(),
            tally.attempted,
            tally.failed()
        );
        let values = [
            median(&setup_secs),
            untraced_wall,
            percentile(&items, 50.0),
            percentile(&items, 95.0),
            peak_heap_mb(),
            tally.ok_frac(),
            tally.recall(),
            tally.precision(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    } else {
        // ---- traced replay ---------------------------------------------
        let reference = &passes[0].reference;
        let tracer = Tracer::new();
        let traced_started = Instant::now();
        let mut traced = Vec::new();
        loop {
            let pass = replay_pass(&inputs, traced.len(), &tracer, reference);
            for m in &pass.mismatches {
                eprintln!("dcbench: replay fidelity: {m}");
            }
            traced.push(pass);
            if traced_started.elapsed().as_secs_f64() >= budget
                || started.elapsed().as_secs_f64() >= MAX_MEASURE_SECS
            {
                break;
            }
        }
        tally = Tally::default();
        for p in &traced {
            tally.add(&p.tally);
        }
        let witnesses: Vec<Witness> = traced.iter().map(|p| p.counts.witness()).collect();
        correct &= report_witness(args, "traced", &witnesses);
        let traced_wall = median(&traced.iter().map(|p| p.secs).collect::<Vec<_>>());
        let per_pass: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .enumerate()
            .map(|(i, p)| layer_values(&tracer.totals(i as u32), &p.counts))
            .collect();
        for (name, unit) in PER_LAYER {
            let v = match name {
                "apps.build_ms" => median(&apps_ms),
                "bench.traced_wall_s" => traced_wall,
                "bench.untraced_wall_s" => untraced_wall,
                "bench.trace_overhead_s" => traced_wall - untraced_wall,
                _ => {
                    let vals: Vec<f64> = per_pass
                        .iter()
                        .map(|m| *m.get(name).expect("every layer metric computed"))
                        .collect();
                    median(&vals)
                }
            };
            metrics.push((name, unit, v));
        }
        let path = out_dir().join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("dcbench: spans written to {}", path.display());
    }
    correct &= tally.failed() == 0;
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, v)| {
            (
                name.to_owned(),
                Json::obj([
                    ("value", Json::Float(v)),
                    ("unit", Json::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(tally.attempted)),
        ("failed", Json::UInt(tally.failed())),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Per-layer values of one traced pass, from its span totals and counts.
fn layer_values(
    spans: &BTreeMap<&'static str, (u64, u64)>,
    c: &layers::Counts,
) -> BTreeMap<&'static str, f64> {
    let ns = |name: &str| spans.get(name).map_or(0.0, |t| t.0 as f64);
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    // traced ÷ untraced simulator time: the traced run of the pipeline, or
    // for a stream the run into a null sink
    let traced_ns = if spans.contains_key("trace.run") {
        ns("trace.run")
    } else {
        ns("sim.null_sink")
    };
    let mut v = BTreeMap::new();
    v.insert("sim.runs", c.sim_runs as f64);
    v.insert("sim.steps", c.sim_steps as f64);
    v.insert("sim.ns_per_step", per(ns("sim.base"), c.base_steps));
    v.insert("sim.stream_null_s", ns("sim.null_sink") / 1e9);
    v.insert("trace.records", c.records as f64);
    v.insert("trace.bytes", c.bytes as f64);
    v.insert(
        "trace.overhead_x",
        if ns("sim.base") > 0.0 {
            traced_ns / ns("sim.base")
        } else {
            0.0
        },
    );
    v.insert("trace.byte_size_ms", ns("trace.byte_size") / 1e6);
    v.insert("hb.build_s", ns("hb.build") / 1e9);
    v.insert("hb.ns_per_record", per(ns("hb.build"), c.hb_records));
    v.insert("hb.edges", c.hb_edges as f64);
    v.insert("hb.reach_bytes", c.reach_bytes as f64);
    v.insert("detect.scan_ms", ns("detect.scan") / 1e6);
    v.insert("detect.loopsync_s", ns("detect.loopsync") / 1e9);
    v.insert("detect.loopsync_reruns", c.loopsync_reruns as f64);
    v.insert("detect.candidates_ta", c.candidates[0] as f64);
    v.insert("detect.candidates_sp", c.candidates[1] as f64);
    v.insert("detect.candidates_lp", c.candidates[2] as f64);
    v.insert("detect.online_s", c.online_ns as f64 / 1e9);
    v.insert(
        "detect.online_ns_per_record",
        per(c.online_ns as f64, c.online_records),
    );
    let record_ns: Vec<f64> = c.online_record_ns.iter().map(|&n| f64::from(n)).collect();
    v.insert(
        "detect.online_record_p999_ns",
        if record_ns.len() >= samples_for(99.9) {
            percentile(&record_ns, 99.9)
        } else {
            0.0
        },
    );
    v.insert("detect.online_window_peak", c.window_peak as f64);
    v.insert(
        "detect.online_retired_frac",
        per(c.retired as f64, c.online_records),
    );
    v.insert("prune.setup_ms", ns("prune.setup") / 1e6);
    v.insert("prune.prune_ms", ns("prune.prune") / 1e6);
    v.insert(
        "prune.kept_frac",
        per(c.candidates[1] as f64, c.candidates[0]),
    );
    v.insert("trigger.farm_s", ns("trigger.farm") / 1e9);
    v.insert("trigger.placement_ms", ns("trigger.placement") / 1e6);
    v.insert("trigger.order_runs", c.order_runs as f64);
    v.insert("trigger.retries", c.retries as f64);
    v.insert("trigger.attempts", c.attempts as f64);
    v.insert(
        "trigger.us_per_order_run",
        per(ns("trigger.farm") / 1e3, c.order_runs),
    );
    v
}

/// Where spans and determinism witnesses are written: `out/` beside this
/// package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Prints the work counts of a set of passes and flags any pass whose
/// counts differ from the first, or a first pass that differs from an
/// earlier run of the same workload and seed. Returns false on a
/// within-run difference: the passes did different work.
fn report_witness(args: &Args, mode: &str, witnesses: &[Witness]) -> bool {
    let first = witnesses[0];
    let drifted: Vec<usize> = (1..witnesses.len())
        .filter(|&i| witnesses[i] != first)
        .collect();
    let path = out_dir().join(format!(
        "witness-{}-seed{}-{mode}.json",
        args.workload.name(),
        args.seed
    ));
    let text = first.to_json().to_compact();
    let earlier = std::fs::read_to_string(&path).ok();
    let across_runs = earlier.as_deref().is_some_and(|e| e.trim() != text);
    if earlier.is_none() {
        let _ = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &text));
    }
    let line = Json::obj([
        ("witness", first.to_json()),
        ("mode", Json::Str(mode.to_owned())),
        ("passes", Json::UInt(witnesses.len() as u64)),
        (
            "drifted_passes",
            Json::Arr(drifted.iter().map(|&i| Json::UInt(i as u64)).collect()),
        ),
        ("differs_from_earlier_run", Json::Bool(across_runs)),
    ]);
    println!("{}", line.to_compact());
    if !drifted.is_empty() {
        eprintln!("dcbench: work counts differ between passes {drifted:?}");
    }
    if across_runs {
        eprintln!(
            "dcbench: work counts differ from the run recorded in {}",
            path.display()
        );
    }
    drifted.is_empty()
}
