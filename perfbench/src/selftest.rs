//! Self-tests of the benchmark: every workload, at a seed held out from
//! tuning, emits every declared metric and passes every correctness
//! check, and the simulated figures repeat exactly for a seed.

use crate::e2e::{self, Plan};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::traced;
use crate::workload::Workload;

/// Never used while sizing the benchmark.
const HELD_OUT_SEED: u64 = 0x00C0_FFEE_D00D;

fn assert_complete(report: &Report, trace: bool, what: &str) {
    assert_eq!(report.failed, 0, "{what}: {} of {} ops failed", report.failed, report.attempted);
    assert!(report.invalid(trace).is_empty(), "{what}: missing {:?}", report.invalid(trace));
    let line = report.result_line(trace);
    assert!(line.starts_with("{\"correct\": true"), "{what}: {line}");
    let declared = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for (name, unit) in declared {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{what}: {name}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{what}: {unit}");
    }
}

fn sim_figures(report: &Report) -> Vec<(&'static str, f64)> {
    report.metrics.iter().filter(|(n, _)| n.starts_with("sim_")).map(|(n, v)| (*n, *v)).collect()
}

fn check_workload(w: Workload) {
    let first = e2e::run(w, HELD_OUT_SEED, Plan::smoke());
    assert_complete(&first, false, w.name());
    let again = e2e::run(w, HELD_OUT_SEED, Plan::smoke());
    assert_eq!(sim_figures(&first), sim_figures(&again), "{}: sim_* differ for one seed", w.name());
    assert_eq!(sim_figures(&first).len(), 3);
    let (traced, spans) = traced::run(w, HELD_OUT_SEED, Plan::smoke());
    assert_complete(&traced, true, w.name());
    assert!(spans.lines().count() > 0, "{}: no spans written", w.name());
}

#[test]
fn ping_is_complete_correct_and_repeatable() {
    check_workload(Workload::Ping);
}

#[test]
fn ping_faults_is_complete_correct_and_repeatable() {
    check_workload(Workload::PingFaults);
}

#[test]
fn overload_is_complete_correct_and_repeatable() {
    check_workload(Workload::Overload);
}

#[test]
fn city_is_complete_correct_and_repeatable() {
    check_workload(Workload::City);
}
