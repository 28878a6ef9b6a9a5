//! The traced run: per-layer costs on the workload's own inputs.
//!
//! It never feeds an end-to-end figure. Four passes:
//! 1. the workload's simulated prefix again, with a `Telemetry` registry
//!    and a host-time `Profiler` attached (hop self-time shares, per-layer
//!    PDU counters, per-op event counts);
//! 2. replay pings through the public node-stack API, one span per call;
//! 3. direct kernel timings at the replayed PDU sizes;
//! 4. tracing overhead on ping inputs: dark vs `Telemetry` vs `Profiler`
//!    throughput, in alternating rounds.

use std::time::Instant;

use telemetry::{Profiler, Telemetry};

use crate::e2e::{workers_agree, Plan};
use crate::kernels::time_kernels;
use crate::replay::{Replay, CALLS};
use crate::report::{Report, HOPS, REPLAY_SPANS};
use crate::timer::Spread;
use crate::workload::{Outcome, Workload};

/// Journal ring of the instrumented passes (bounded, like the engines').
const JOURNAL: usize = 4_096;

/// Replay pings excluded from every statistic as warm-up.
const REPLAY_WARMUP: u64 = 50;

/// Ping segments per mode per tracing-overhead round.
const OVERHEAD_SEGMENTS: u64 = 3;

/// Runs the first `segments` segments with the given handles attached.
fn engine_pass(
    workload: Workload,
    seed: u64,
    segments: u64,
    tel: Option<&Telemetry>,
    prof: Option<&Profiler>,
) -> Outcome {
    let mut all = workload.empty_outcome();
    for index in 0..segments {
        all.merge(&workload.input(seed, index).run(tel, prof));
    }
    all
}

/// Ping throughput (pings per host second) of each mode — dark,
/// `Telemetry`, `Profiler` — as the median over alternating rounds.
fn tracing_overhead(seed: u64, rounds: usize) -> [Spread; 3] {
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut segment = 0u64;
    for round in 0..rounds {
        for k in 0..3 {
            // Rotate the order so no mode always runs first.
            let mode = (round + k) % 3;
            let tel = Telemetry::new(JOURNAL);
            let prof = Profiler::new();
            let (tel, prof) = match mode {
                0 => (None, None),
                1 => (Some(&tel), None),
                _ => (None, Some(&prof)),
            };
            let mut ops = 0;
            let mut secs = 0.0;
            for _ in 0..OVERHEAD_SEGMENTS {
                let input = Workload::Ping.input(seed, segment);
                segment += 1;
                let t = Instant::now();
                ops += input.run(tel, prof).ops;
                secs += t.elapsed().as_secs_f64();
            }
            rates[mode].push(ops as f64 / secs);
        }
    }
    rates.map(|r| Spread::of(&r))
}

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// The traced measurement of `workload`; returns the report and the
/// replay's span log (JSON lines).
pub fn run(workload: Workload, seed: u64, plan: Plan) -> (Report, String) {
    let mut report = Report::default();
    let segments = plan.sim_segments;
    let is_ping = matches!(workload, Workload::Ping | Workload::PingFaults);

    // 1. Instrumented engine pass over the simulated prefix.
    let tel = Telemetry::new(JOURNAL);
    let prof = Profiler::new();
    let pass = engine_pass(workload, seed, segments, Some(&tel), Some(&prof));
    report.check(pass.ops, pass.failed);
    let first = workload.input(seed, 0).run(None, None);
    let agree = workers_agree(workload, seed, &first);
    report.check(first.ops, if agree { 0 } else { first.ops });
    let c = pass.counts;
    report.metric("ran.harq.retx_per_op", per_op(c.harq_retx, pass.ops));
    report.metric("ran.sr.retx_per_op", per_op(c.sr_retx, pass.ops));
    report.metric("ran.rlc.escalations_per_op", per_op(c.rlc_escalations, pass.ops));
    report.metric("ran.rrc.recoveries_per_op", per_op(c.rrc_recoveries, pass.ops));
    report.metric("corenet.failovers_per_op", per_op(c.failovers, pass.ops));
    // Each received RLC PDU rode one MAC PDU through one PHY encode and
    // one PHY decode; the open-loop engines make no PHY calls.
    let rlc_rx = tel.snapshot().counter("rlc", "rx_pdus").unwrap_or(0);
    report.metric("phy.calls_per_op", if is_ping { per_op(2 * rlc_rx, pass.ops) } else { 0.0 });
    let stages = prof.snapshot();
    let profiled_ms: f64 = stages.iter().map(|s| s.total_ms).sum();
    for (hop, metric) in HOPS {
        let ms = stages.iter().find(|s| s.stage == hop).map_or(0.0, |s| s.total_ms);
        report.metric(metric, if profiled_ms > 0.0 { ms / profiled_ms } else { 0.0 });
    }
    let (goodput, city) = match workload {
        Workload::Overload => (per_op(c.on_time, pass.ops), (0, 0)),
        Workload::City => (0.0, (c.peak_queue, c.recording_bytes)),
        _ => (0.0, (0, 0)),
    };
    report.metric("stack.overload.goodput_ratio", goodput);
    report.metric("stack.multicell.peak_queue", city.0 as f64);
    report.metric("stack.multicell.recording_bytes", city.1 as f64);
    // The overload engine's slot handler, timed on this workload's own
    // prefix, or on one overload segment of this seed elsewhere.
    let slot_prof = if workload == Workload::Overload {
        prof.clone()
    } else {
        let p = Profiler::new();
        let probe = Workload::Overload.input(seed, 0).run(None, Some(&p));
        report.check(probe.ops, probe.failed);
        p
    };
    let slot = slot_prof.snapshot().into_iter().find(|s| s.stage == "overload/slot");
    report.metric("stack.overload.slot_us_mean", slot.map_or(f64::NAN, |s| s.mean_us));
    report.note(format!(
        "engine pass: first {segments} segments, {} {}s; profiled stages: {}",
        pass.ops,
        workload.op(),
        stages
            .iter()
            .take(8)
            .map(|s| format!("{} {:.1} ms", s.stage, s.total_ms))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // 2. Replay pings with spans.
    let stack_config = workload.input(seed, 0).stack_config();
    let mut replay = Replay::new(&stack_config, seed);
    for _ in 0..REPLAY_WARMUP + plan.replay_pings {
        replay.ping();
    }
    report.check(replay.pings, replay.failed);
    for (call, metric) in CALLS.iter().zip(REPLAY_SPANS) {
        report.metric(metric, Spread::of(&replay.durations(call, REPLAY_WARMUP)).median);
    }
    let total = Spread::of(&replay.durations("ping", REPLAY_WARMUP));
    report.metric("stack.replay.total_ns", total.median);
    report.metric("stack.replay.self_ns", Spread::of(&replay.root_self_ns(REPLAY_WARMUP)).median);

    // 3. Kernels at the replayed sizes.
    for (name, spread) in time_kernels(&stack_config, &mut replay, seed) {
        report.metric(name, spread.median);
        report.note(format!(
            "{name}: median {:.1} ns (q1 {:.1}, q3 {:.1}, {} batches)",
            spread.median, spread.q1, spread.q3, spread.n
        ));
    }

    // 4. Tracing overhead on ping inputs; its dark rate is also the base
    //    of the replay's codec share.
    let [dark, instrumented, profiled] = tracing_overhead(seed, plan.overhead_rounds);
    report.metric("telemetry.dark_ops_per_s", dark.median);
    report.metric("telemetry.instrumented_ops_per_s", instrumented.median);
    report.metric("telemetry.profiled_ops_per_s", profiled.median);
    report.metric("telemetry.overhead_ratio", dark.median / instrumented.median);
    report.metric("telemetry.profiler_overhead_ratio", dark.median / profiled.median);
    let base_us = 1e6 / dark.median;
    report.metric("stack.replay.base_us_per_op", base_us);
    report.metric("stack.replay.codec_share", total.median / 1e3 / base_us);
    report.note(format!(
        "replay: {} pings after {REPLAY_WARMUP} warm-up, median {:.0} ns per ping \
         (q1 {:.0}, q3 {:.0}); codec_share base: dark ping median {base_us:.2} us/ping \
         over {} rounds of {OVERHEAD_SEGMENTS} segments",
        plan.replay_pings, total.median, total.q1, total.q3, plan.overhead_rounds
    ));
    report.note(format!(
        "tracing overhead on ping: dark {:.0}, Telemetry {:.0}, Profiler {:.0} pings/s \
         (medians of {} rounds)",
        dark.median, instrumented.median, profiled.median, plan.overhead_rounds
    ));
    (report, replay.spans_jsonl())
}
