//! The end-to-end run: tracing off, one worker, fixed-size segments until
//! the requested host time has passed.

use std::hint::black_box;
use std::time::{Duration as HostDuration, Instant};

use crate::replay::Replay;
use crate::report::Report;
use crate::timer::Spread;
use crate::workload::{Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// The warm-up segment's index (outside the measured segment range).
const WARMUP_SEGMENT: u64 = u64::MAX;

/// Fewest timed segments per run, so the p90 has ten segments beyond it.
const MIN_SEGMENTS: u64 = 100;

/// Replay pings checked for an exact byte round trip in every run.
const CHECK_PINGS: u64 = 64;

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Segments behind the `sim_*` statistics and the traced engine pass:
    /// the fixed prefix every run completes before it may stop.
    pub sim_segments: u64,
    /// Fewest timed segments.
    pub min_segments: u64,
    /// Host seconds the timed loop runs for (once both minimums are met).
    pub seconds: u64,
    /// Replay pings of the traced run, after its warm-up.
    pub replay_pings: u64,
    /// Rounds of the traced run's tracing-overhead comparison.
    pub overhead_rounds: usize,
}

impl Plan {
    /// The benchmark's plan for `workload`. The simulated prefix is sized
    /// so the p99.9 and the on-time ratio vary by a few percent at most
    /// from seed to seed.
    pub fn full(workload: Workload, seconds: u64) -> Plan {
        // Chaos puts the rare RRC recoveries right at the p99.9, so
        // `ping-faults` needs the larger sample to steady it.
        let sim_segments = match workload {
            Workload::Ping => 192,
            Workload::PingFaults => 320,
            Workload::Overload => 64,
            Workload::City => 16,
        };
        Plan {
            sim_segments,
            min_segments: MIN_SEGMENTS,
            seconds,
            replay_pings: 1_000,
            overhead_rounds: 7,
        }
    }

    /// A few segments of everything, for the self-tests.
    #[cfg(test)]
    pub fn smoke() -> Plan {
        Plan { sim_segments: 2, min_segments: 3, seconds: 0, replay_pings: 20, overhead_rounds: 1 }
    }
}

/// One set-up: generate the config, build the engine and make one warm-up
/// call (every engine is constructed inside its entry point).
fn setup_once(workload: Workload, seed: u64) -> (f64, Outcome) {
    let start = Instant::now();
    let input = workload.input(seed, WARMUP_SEGMENT);
    let outcome = input.run(None, None);
    (start.elapsed().as_secs_f64(), black_box(outcome))
}

/// Runs segment 0 again at two workers and compares its simulated
/// statistics with the one-worker run; returns `false` on any difference.
pub fn workers_agree(workload: Workload, seed: u64, one_worker: &Outcome) -> bool {
    sim::parallel::set_jobs(2);
    let two = workload.input(seed, 0).run(None, None);
    sim::parallel::set_jobs(1);
    two.sim_stats() == one_worker.sim_stats()
}

/// The untraced measurement of `workload`.
pub fn run(workload: Workload, seed: u64, plan: Plan) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (secs, warm) = setup_once(workload, seed);
        setups.push(secs);
        report.check(warm.ops, warm.failed);
    }

    let budget = HostDuration::from_secs(plan.seconds);
    let sim_segments = plan.sim_segments;
    let mut per_op_us = Vec::new();
    let mut ops = 0u64;
    let mut engine_s = 0.0;
    let mut sim = workload.empty_outcome();
    let mut first = None;
    let started = Instant::now();
    for index in 0.. {
        let input = workload.input(seed, index);
        let t = Instant::now();
        let outcome = input.run(None, None);
        let secs = t.elapsed().as_secs_f64();
        engine_s += secs;
        ops += outcome.ops;
        per_op_us.push(secs * 1e6 / outcome.ops.max(1) as f64);
        report.check(outcome.ops, outcome.failed);
        if index < sim_segments {
            sim.merge(&outcome);
        }
        if index == 0 {
            first = Some(outcome);
        }
        let done = index + 1;
        if done >= sim_segments.max(plan.min_segments) && started.elapsed() >= budget {
            break;
        }
    }
    let host = Spread::of(&per_op_us);

    let first = first.expect("at least one segment ran");
    let agree = workers_agree(workload, seed, &first);
    report.check(first.ops, if agree { 0 } else { first.ops });
    if !agree {
        eprintln!("sim statistics differ between 1 and 2 workers on segment 0");
    }

    let mut replay = Replay::new(&workload.input(seed, 0).stack_config(), seed);
    for _ in 0..CHECK_PINGS {
        replay.ping();
    }
    report.check(replay.pings, replay.failed);

    let stats = sim.sim_stats();
    report.metric("setup_s", Spread::of(&setups).median);
    report.metric("ops_per_s", ops as f64 / engine_s);
    report.metric("host_us_per_op_p90", host.p90);
    report.metric("peak_rss_mib", crate::report::peak_rss_mib());
    report.metric("sim_latency_p50_us", stats.p50_us);
    report.metric("sim_latency_p999_us", stats.p999_us);
    report.metric("sim_on_time_ratio", stats.on_time_ratio());
    report.metric("ok_op_ratio", report.ok_ratio());
    report.note(format!(
        "host_us_per_op: {} segments of {} {}s each (q1 {:.3}, median {:.3}, q3 {:.3}, p90 {:.3} us/op); \
         set-up median of {SETUP_REPEATS}",
        host.n,
        first.ops,
        workload.op(),
        host.q1,
        host.median,
        host.q3,
        host.p90
    ));
    report.note(format!(
        "sim_*: first {sim_segments} segments, {} {}s, {} missed, p50 {} us, p99.9 {} us",
        stats.ops,
        workload.op(),
        stats.missed,
        stats.p50_us,
        stats.p999_us
    ));
    if matches!(workload, Workload::Overload | Workload::City) {
        report.note(
            "open loop: arrivals are scheduled in simulated time, so the generator cannot run \
             late on the host"
                .to_string(),
        );
    }
    report
}
