//! Crash-safe checkpoint/resume (`dcatch detect all --resume`) and the
//! resource governor's two end-to-end guarantees:
//!
//! * a run killed after K benchmarks, resumed from its journal, emits a
//!   run report **byte-identical** to an uninterrupted run's;
//! * a budget large enough never to bind is observationally equivalent to
//!   no governor at all, and a tiny budget degrades instead of dying.

use std::path::PathBuf;
use std::process::Command;

use dcatch::{DegradeMode, Pipeline, PipelineOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcatch-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `dcatch detect all --json --scrub-timings --jobs 1` plus `extra`,
/// writing the report to `out`; returns the process exit code.
fn detect_all(out: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcatch"));
    cmd.args(["detect", "all", "--json", "--scrub-timings", "--jobs", "1"])
        .arg("--out")
        .arg(out)
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("dcatch runs");
    output.status.code().expect("exit code")
}

#[test]
fn killed_run_resumes_to_a_byte_identical_report() {
    let dir = temp_dir("kill");
    let plain = dir.join("plain.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("journal.jsonl");

    assert_eq!(detect_all(&plain, &[], &[]), 0, "uninterrupted run");

    // die (as abruptly as a crash) after three checkpoints…
    let journal_arg = journal.to_str().unwrap();
    let code = detect_all(
        &resumed,
        &["--resume", journal_arg],
        &[("DCATCH_TEST_EXIT_AFTER", "3")],
    );
    assert_eq!(code, 70, "the test hook kills the process mid-batch");
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, 1 + 3, "meta line plus one checkpoint per benchmark");
    assert!(!resumed.exists(), "the killed run never wrote a report");

    // …then resume: the merged report matches the uninterrupted run's
    assert_eq!(detect_all(&resumed, &["--resume", journal_arg], &[]), 0);
    let a = std::fs::read(&plain).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed report must be byte-identical");

    let benchmarks = dcatch::all_benchmarks().len();
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, 1 + benchmarks, "resume journaled the remaining runs");
}

#[test]
fn finished_journal_skips_every_benchmark_and_tolerates_a_torn_tail() {
    let dir = temp_dir("skip");
    let first = dir.join("first.json");
    let again = dir.join("again.json");
    let journal = dir.join("journal.jsonl");
    let journal_arg = journal.to_str().unwrap();

    assert_eq!(detect_all(&first, &["--resume", journal_arg], &[]), 0);
    let full = std::fs::read_to_string(&journal).unwrap();

    // every benchmark is journaled: a second resume re-runs nothing,
    // appends nothing, and reproduces the report byte-for-byte
    assert_eq!(detect_all(&again, &["--resume", journal_arg], &[]), 0);
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full);
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // a crash can tear the final line mid-write; resume must shrug it off
    std::fs::write(&journal, format!("{full}{{\"id\":\"ZK-11")).unwrap();
    assert_eq!(detect_all(&again, &["--resume", journal_arg], &[]), 0);
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // resuming under different options is refused up front
    let code = detect_all(&again, &["--resume", journal_arg, "--scale", "2"], &[]);
    assert_ne!(code, 0, "fingerprint mismatch must be an error");
}

#[test]
fn tiny_memory_budget_degrades_instead_of_dying() {
    let mut opts = PipelineOptions::full();
    // 256 B is below the old chunk walk's 64-record floor (512 B), so the
    // chunk size must come from the clock formula for this to pass
    for budget in [2 << 10, 256] {
        opts.mem_budget = Some(budget);
        let mut degradations = 0;
        for bench in dcatch::all_benchmarks() {
            let report = Pipeline::run(&bench, &opts)
                .unwrap_or_else(|e| panic!("{} must survive a {budget} B budget: {e}", bench.id));
            assert!(
                report.oom.is_none(),
                "{}: under {budget} B the governor degrades before the analysis can OOM",
                bench.id
            );
            degradations += report.degradations.len();
        }
        assert!(
            degradations > 0,
            "a {budget} B budget must force degradation steps somewhere in the suite"
        );
    }

    // --degrade off restores the historical behavior: budgets are ignored
    opts.degrade = DegradeMode::Off;
    for bench in dcatch::all_benchmarks() {
        let report = Pipeline::run(&bench, &opts).expect("still runs");
        assert!(report.degradations.is_empty(), "{}", bench.id);
    }
}

/// Serializes one run with wall-clock fields scrubbed (the byte-stable
/// projection the CLI's `--scrub-timings` compares).
fn scrubbed(bench: &dcatch::Benchmark, opts: &PipelineOptions) -> String {
    let mut report = Pipeline::run(bench, opts).expect("run succeeds");
    report.scrub_timings();
    dcatch::report_json::run_report(&[report]).to_pretty()
}

/// Property (per benchmark): a governor whose budgets are far above any
/// real footprint never fires a rung, and the report is byte-identical to
/// a governor-less run. Warm-up runs first: metric names intern globally
/// on first use, so a first run can mint names later snapshots zero-fill.
/// That includes the degradation metrics which the concurrently running
/// `tiny_memory_budget_degrades_instead_of_dying` mints, so the warm-up
/// runs its degraded configurations too.
#[test]
fn ample_budget_is_equivalent_to_no_governor() {
    for budget in [2 << 10, 256] {
        let mut squeezed = PipelineOptions::full();
        squeezed.mem_budget = Some(budget);
        for bench in dcatch::all_benchmarks() {
            let _warmup = Pipeline::run(&bench, &squeezed);
        }
    }
    let plain = PipelineOptions::full();
    let mut governed = PipelineOptions::full();
    governed.mem_budget = Some(1 << 40);
    governed.time_budget = Some(std::time::Duration::from_secs(3600));
    for bench in dcatch::all_benchmarks() {
        let _warmup = scrubbed(&bench, &plain);
        let baseline = scrubbed(&bench, &plain);
        let report = Pipeline::run(&bench, &governed).expect("governed run succeeds");
        assert!(
            report.degradations.is_empty(),
            "{}: an ample budget must never degrade",
            bench.id
        );
        assert_eq!(
            scrubbed(&bench, &governed),
            baseline,
            "{}: governor with slack must not change the report",
            bench.id
        );
    }
}
