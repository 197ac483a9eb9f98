//! Exit-code contract of the `hotpotato-cli` binary.
//!
//! 0 — success; 1 — failure (bad arguments, setup errors); 2 — the
//! simulation aborted mid-run but the partial trace/report was written;
//! 3 — a sweep finished with failed/panicked/timed-out jobs; 4 — a
//! sweep finished with quarantined jobs (retry budget exhausted).
//! Pinned here by spawning the real binary, because the codes are the
//! scriptable API: CI and sweep wrappers branch on them.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotpotato-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hp_exit_codes_{}_{name}", std::process::id()))
}

#[test]
fn success_exits_zero() {
    let out = cli()
        .args([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn setup_failure_exits_one() {
    let out = cli()
        .args(["simulate", "--scheduler", "magic"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = cli().args(["nonsense"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn aborted_run_exits_two_and_writes_partials() {
    let trace = tmp("trace.csv");
    let report = tmp("report.json");
    // A 50 ms horizon cannot finish the canneal batch: the engine aborts
    // with HorizonExceeded after flushing partial artefacts.
    let out = cli()
        .args([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
            "--horizon",
            "0.05",
            "--trace",
            trace.to_str().expect("utf-8 temp path"),
            "--report",
            report.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("horizon"), "stderr: {stderr}");

    let csv = std::fs::read_to_string(&trace).expect("partial trace written");
    assert!(csv.lines().count() > 1, "trace has samples");
    let raw = std::fs::read_to_string(&report).expect("partial report written");
    let parsed = hp_obs::RunReport::from_json_str(&raw).expect("report parses");
    assert!(parsed.meta_value("aborted").is_some());

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&report).ok();
}

/// A sweep spec with one healthy job and one chaos job that panics on
/// its first scheduling hook.
fn chaos_spec(name: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(
        &path,
        "{\"schedulers\": [\"pinned\", \"chaos-panic\"], \"grids\": [\"4x4\"], \
         \"loads\": [0.25], \"horizon_seconds\": 2}",
    )
    .expect("spec written");
    path
}

#[test]
fn sweep_with_failing_job_exits_three() {
    let spec = chaos_spec("fail_spec.json");
    let out = cli()
        .args([
            "sweep",
            "--spec",
            spec.to_str().expect("utf-8"),
            "--jobs",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to run"), "stderr: {stderr}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_with_quarantined_job_exits_four() {
    let spec = chaos_spec("quarantine_spec.json");
    let out = cli()
        .args([
            "sweep",
            "--spec",
            spec.to_str().expect("utf-8"),
            "--jobs",
            "2",
            "--retries",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined"), "stderr: {stderr}");
    // The healthy neighbour still completed and was reported.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 completed"), "stdout: {stdout}");
    assert!(stdout.contains("QUARANTINED"), "stdout: {stdout}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn simulate_checkpoints_and_resumes_bit_identically() {
    let dir = tmp("ckpt_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let base = [
        "simulate",
        "--grid",
        "4x4",
        "--benchmark",
        "canneal",
        "--cores",
        "4",
        "--scheduler",
        "pinned",
    ];
    // First leg: run to completion with periodic checkpoints on disk.
    let out = cli()
        .args(base)
        .args([
            "--checkpoint-every",
            "0.01",
            "--checkpoint-dir",
            dir.to_str().expect("utf-8"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let ckpt = dir.join("simulate.ckpt.json");
    assert!(ckpt.is_file(), "periodic checkpoint left on disk");

    // Second leg: resume the same run from the last checkpoint — it must
    // complete successfully and say so.
    let out = cli()
        .args(base)
        .args(["--resume-from", ckpt.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from checkpoint"),
        "stdout: {stdout}"
    );

    // A checkpoint from this run must not resume a different workload.
    let out = cli()
        .args([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "swaptions",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
            "--resume-from",
            ckpt.to_str().expect("utf-8"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spec"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_checkpoint_flags_must_pair() {
    let out = cli()
        .args(["simulate", "--checkpoint-every", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = cli()
        .args(["simulate", "--checkpoint-dir", "/tmp/nowhere"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// 200 000 nested brackets used to overflow the recursive JSON parser's
/// stack (SIGABRT, exit 134). Both places a sweep reads such input —
/// the spec and, under `--resume true`, the manifest — now fail with
/// exit 1 and name the nesting limit.
#[test]
fn deeply_nested_json_exits_one_instead_of_overflowing() {
    let deep = "[".repeat(200_000);
    let spec = tmp("deep_spec.json");
    std::fs::write(&spec, format!("{{\"schedulers\": {deep}")).expect("spec written");
    let out = cli()
        .args(["sweep", "--spec", spec.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nests deeper than 128 levels"),
        "stderr: {stderr}"
    );

    let dir = tmp("deep_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("out dir");
    std::fs::write(dir.join("manifest.jsonl"), format!("{{\"label\": {deep}\n"))
        .expect("manifest written");
    std::fs::write(
        &spec,
        "{\"schedulers\": [\"pinned\"], \"grids\": [\"4x4\"], \"loads\": [0.25], \
         \"horizon_seconds\": 2}",
    )
    .expect("spec written");
    let out = cli()
        .args([
            "sweep",
            "--spec",
            spec.to_str().expect("utf-8"),
            "--out",
            dir.to_str().expect("utf-8"),
            "--resume",
            "true",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("manifest.jsonl") && stderr.contains("nests deeper than 128 levels"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&spec).ok();
    let _ = std::fs::remove_dir_all(&dir);
}
