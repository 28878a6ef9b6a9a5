//! Exit-status contract of `repro` and its figure runner: malformed input
//! exits 2 before anything runs, a failed artifact write exits 1 after the
//! rest were attempted, and a check that reads NO exits 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use urllc_bench::registry::{self, Artifacts, Cli, Ctx, Figure};

/// A fresh, empty scratch directory unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("urllc-repro-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_input_prints_usage_and_exits_2_without_running() {
    let dir = scratch("malformed");
    for args in [
        &["table2", "--pings", "abc"][..],
        &["table1", "--jobs", "0"],
        &["table1", "--jobs", "zero"],
        &["table1", "--ping", "10"],
        &["table1", "--pings"],
        &["table1", "--jobs", "--compare"],
        &["no-such-figure"],
    ] {
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "`repro {}` should exit 2", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "no usage for `{}`: {stderr}", args.join(" "));
        assert!(stderr.contains("  table1 "), "usage must list the figure table");
        assert!(!dir.join("results").exists(), "`repro {}` wrote results/", args.join(" "));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_artifact_write_exits_1_after_attempting_the_rest() {
    let dir = scratch("unwritable");
    // A plain file where the results directory should be.
    std::fs::write(dir.join("results"), "not a directory").expect("write blocker");
    let out = repro(&dir, &["table1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to save table1.csv"), "{stderr}");
    assert!(stderr.contains("failed to save BENCH_repro.json"), "{stderr}");
    // The figure itself still ran and printed its verdict.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matches the published Table 1: YES"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn passing(_: &Ctx) -> Artifacts {
    let mut rec = sim::LatencyRecorder::default();
    rec.record(sim::Duration::from_micros(250));
    Artifacts::default().file("ok.csv", "a\n1\n").dist("rtt", &mut rec).verdict("holds", true)
}

fn failing(_: &Ctx) -> Artifacts {
    Artifacts::default().file("bad.csv", "a\n2\n").verdict("holds", false)
}

const FIGURES: &[Figure] = &[
    Figure { name: "passing", title: "a figure whose check holds", run: passing },
    Figure { name: "failing", title: "a figure whose check fails", run: failing },
];

fn cli(args: &[&str]) -> Cli {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    Cli::parse(&args, FIGURES).expect("valid command line")
}

#[test]
fn false_check_exits_1_after_every_figure_ran() {
    let dir = scratch("false-check");
    let all: Vec<&Figure> = FIGURES.iter().collect();
    assert_eq!(registry::run(&all, &cli(&["all", "--jobs", "1"]), &dir), 1);
    // Both figures still wrote their files, and the run its BENCH document.
    for name in ["ok.csv", "bad.csv", "BENCH_repro.json"] {
        assert!(dir.join(name).exists(), "{name} missing");
    }
    assert_eq!(registry::run(&all[..1], &cli(&["passing", "--jobs", "1"]), &dir), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_pass_records_each_distribution_once() {
    let dir = scratch("compare");
    let code = registry::run(&[&FIGURES[0]], &cli(&["passing", "--jobs", "2", "--compare"]), &dir);
    assert_eq!(code, 0);
    let bench = std::fs::read_to_string(dir.join("BENCH_repro.json")).expect("BENCH written");
    assert_eq!(bench.matches("\"metric\": \"rtt\"").count(), 1, "{bench}");
    assert!(bench.contains("\"figure\": \"passing\", \"metric\": \"rtt\", \"count\": 1"));
    assert!(bench.contains("\"jobs\": 2, \"seq_wall_ms\": "), "{bench}");
    let _ = std::fs::remove_dir_all(&dir);
}
