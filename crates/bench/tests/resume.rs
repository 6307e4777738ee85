//! End-to-end kill-and-resume determinism for `repro faultsim` and
//! `repro profile`.
//!
//! The resumability contract: a journaled run that is SIGKILLed
//! mid-campaign and then resumed with `--resume` must print stdout
//! byte-identical to an uninterrupted run of the same command. The
//! journal only changes *where* results come from (replay vs
//! recompute), never *what* is reported.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const SCALE: &str = "2400";
const SEED: &str = "7";

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spp-resume-test-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn killed_then_resumed_run_matches_uninterrupted_stdout() {
    // Uninterrupted reference: no journal at all.
    let reference = repro()
        .args(["faultsim", "--scale", SCALE, "--seed", SEED, "--jobs", "2"])
        .output()
        .expect("reference run");
    assert!(
        reference.status.success(),
        "reference must pass: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Journaled run, killed as soon as the manifest shows progress.
    let journal = tmp("kill");
    let mut child = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "2",
            "--journal",
        ])
        .arg(&journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn journaled run");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished = false;
    loop {
        let progressed = std::fs::metadata(&journal)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        if progressed {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            finished = true;
            break;
        }
        assert!(Instant::now() < deadline, "journal never made progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    if !finished {
        // SIGKILL: no destructors, no flush — the harshest interrupt,
        // possibly tearing the line being appended right now.
        child.kill().expect("kill journaled run");
        let _ = child.wait();
    }

    // Resume against the interrupted (possibly torn) manifest.
    let resumed = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "2",
            "--journal",
        ])
        .arg(&journal)
        .arg("--resume")
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resumed run must pass: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed stdout must be byte-identical to the uninterrupted run"
    );
    // Replay diagnostics live on stderr only, keeping stdout pure.
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("cells replayed"),
        "resume must report replayed cells on stderr: {stderr}"
    );
    std::fs::remove_file(&journal).expect("cleanup");
}

#[test]
fn second_resume_replays_every_cell_byte_identically() {
    // A completed journal resumed again: everything replays, stdout is
    // still byte-identical, and the journal grows by nothing.
    let journal = tmp("full");
    let first = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "1",
            "--journal",
        ])
        .arg(&journal)
        .output()
        .expect("first journaled run");
    assert!(first.status.success());
    let len_after_first = std::fs::metadata(&journal).expect("journal exists").len();

    let second = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "4",
            "--journal",
        ])
        .arg(&journal)
        .arg("--resume")
        .output()
        .expect("second run");
    assert!(second.status.success());
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "full replay at a different job count must not change stdout"
    );
    assert_eq!(
        std::fs::metadata(&journal).expect("journal exists").len(),
        len_after_first,
        "a fully replayed run must append nothing"
    );
    std::fs::remove_file(&journal).expect("cleanup");
}

/// `repro profile LL logpsf --scale 400 --seed 1` journaled into
/// `journal`, writing its Chrome trace to `trace_out`.
fn profile(journal: &Path, trace_out: &Path, resume: bool) -> Output {
    let mut cmd = repro();
    cmd.args([
        "profile",
        "LL",
        "logpsf",
        "--scale",
        "400",
        "--seed",
        "1",
        "--journal",
    ])
    .arg(journal)
    .arg("--trace-out")
    .arg(trace_out);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("profile run")
}

#[test]
fn resumed_profile_replays_stdout_and_trace_byte_identically() {
    let journal = tmp("profile");
    let (trace_a, trace_b) = (tmp("profile-trace-a"), tmp("profile-trace-b"));
    let first = profile(&journal, &trace_a, false);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = profile(&journal, &trace_b, true);
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "replayed stdout must be byte-identical"
    );
    let (a, b) = (
        std::fs::read(&trace_a).expect("first trace"),
        std::fs::read(&trace_b).expect("replayed trace"),
    );
    assert!(!a.is_empty());
    assert!(a == b, "replayed Chrome trace must be byte-identical");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains(": 1 cells replayed"), "{stderr}");
    for p in [&journal, &trace_a, &trace_b] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn unwritable_trace_out_exits_non_zero_fresh_and_replayed() {
    let journal = tmp("profile-bad-trace");
    let bad = std::env::temp_dir()
        .join(format!(
            "spp-resume-test-{}-no-such-dir",
            std::process::id()
        ))
        .join("t.json");
    for resume in [false, true] {
        let out = profile(&journal, &bad, resume);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "resume={resume}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("repro: --trace-out")),
            "resume={resume}: {stderr}"
        );
    }
    std::fs::remove_file(&journal).expect("cleanup");
}
