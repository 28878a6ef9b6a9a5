//! The four workloads: seeded input generators and their engine calls.
//!
//! A run is a sequence of fixed-size *segments*. Segment `i` of a run with
//! seed `s` is a complete engine call on a config seeded from
//! `SimRng::from_seed(s).stream_indexed("perfbench-segment", i)`, so every
//! segment is a pure function of `(workload, s, i)`. Host time is taken per
//! segment; the simulated statistics come from the first
//! [`crate::e2e::Plan::sim_segments`] segments only, which is what makes every
//! `sim_*` figure repeat exactly for a seed however fast the host is.

use ran::sched::AccessMode;
use sim::{ArrivalProcess, Duration, LogLinearHistogram, Recording, SimRng};
use stack::{MulticellConfig, OverloadConfig, StackConfig};
use telemetry::{Profiler, Telemetry};
use urllc_core::{SloConfig, SloSupervisor};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §7 testbed ping: closed loop, full codec walk.
    Ping,
    /// The same walk under chaos faults with tight retransmission budgets.
    PingFaults,
    /// Open-loop bursty URLLC at ρ = 1.1 plus eMBB, SLO-governed.
    Overload,
    /// Four dense-urban cells, 12 500 UEs each, no codecs.
    City,
}

/// Pings per ping segment: two of the engine's fixed batches, so the
/// worker-count check has two shards to split.
pub const SEGMENT_PINGS: u64 = 2 * stack::BATCH_PINGS;

/// Simulated arrival window of one overload segment.
const OVERLOAD_HORIZON_MS: u64 = 500;

/// Simulated arrival window of one city segment.
const CITY_HORIZON_MS: u64 = 8_000;

/// Offered URLLC load of the overload workload, as a share of the DL
/// service capacity.
const OVERLOAD_RHO: f64 = 1.1;

/// The overload workload's eMBB SDU size.
pub const EMBB_SDU_BYTES: usize = 1200;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Ping, Workload::PingFaults, Workload::Overload, Workload::City];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ping => "ping",
            Workload::PingFaults => "ping-faults",
            Workload::Overload => "overload",
            Workload::City => "city",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is: a closed-loop ping, or an offered open-loop packet.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Ping | Workload::PingFaults => "ping",
            Workload::Overload | Workload::City => "offered packet",
        }
    }

    /// The testbed stack every workload builds on.
    fn testbed(self, seed: u64) -> StackConfig {
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(seed);
        if self == Workload::PingFaults {
            cfg = cfg.with_faults(sim::FaultPlan::chaos(0.8));
            cfg.harq_max_tx = 2;
            cfg.rlc_max_retx = 1;
        }
        cfg
    }

    /// An empty outcome to merge segments into, recording the way the
    /// workload's engine does (exact pings, fixed-memory open loop).
    pub fn empty_outcome(self) -> Outcome {
        Outcome {
            ops: 0,
            failed: 0,
            missed: 0,
            latency: match self {
                Workload::Ping | Workload::PingFaults => Recording::exact(),
                Workload::Overload | Workload::City => Recording::fixed(),
            },
            counts: Counts::default(),
        }
    }

    /// The seed of segment `index` of a run seeded with `seed`.
    pub fn segment_seed(seed: u64, index: u64) -> u64 {
        SimRng::from_seed(seed).stream_indexed("perfbench-segment", index).seed()
    }

    /// The generated input of segment `index`.
    pub fn input(self, seed: u64, index: u64) -> Input {
        let seed = Workload::segment_seed(seed, index);
        match self {
            Workload::Ping | Workload::PingFaults => {
                Input::Ping { config: Box::new(self.testbed(seed)), pings: SEGMENT_PINGS }
            }
            Workload::Overload => {
                let stack = self.testbed(seed);
                let mu = stack::service_capacity_pps(&stack, stack.payload_bytes + 3);
                let urllc = ArrivalProcess::bursty_pps(
                    OVERLOAD_RHO * mu,
                    8.0,
                    0.2,
                    Duration::from_millis(2),
                );
                let mut cfg = OverloadConfig::testbed(
                    stack,
                    urllc,
                    Duration::from_millis(OVERLOAD_HORIZON_MS),
                );
                cfg.embb = Some((ArrivalProcess::poisson_pps(500.0), EMBB_SDU_BYTES));
                Input::Overload(Box::new(cfg))
            }
            Workload::City => {
                let mut cfg = MulticellConfig::dense_urban(4, 12_500, seed);
                cfg.horizon = Duration::from_millis(CITY_HORIZON_MS);
                Input::City(Box::new(cfg))
            }
        }
    }
}

/// A generated segment input: exactly what the engine receives.
#[derive(Debug, Clone)]
pub enum Input {
    /// `pings` closed-loop pings through `stack::run_parallel`.
    Ping { config: Box<StackConfig>, pings: u64 },
    /// One `stack::run_overload` call.
    Overload(Box<OverloadConfig>),
    /// One `stack::run_multicell` call.
    City(Box<MulticellConfig>),
}

/// Per-layer event counts of a segment (simulated outcomes, exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// HARQ retransmissions.
    pub harq_retx: u64,
    /// Scheduling-request retransmissions.
    pub sr_retx: u64,
    /// HARQ exhaustions escalated to RLC AM.
    pub rlc_escalations: u64,
    /// Radio-link failures recovered by RRC re-establishment.
    pub rrc_recoveries: u64,
    /// GTP-U path failovers on N3.
    pub failovers: u64,
    /// Peak queued packets in any cell (city) or the PDCP queue (overload).
    pub peak_queue: u64,
    /// Bytes held by latency recordings.
    pub recording_bytes: u64,
    /// On-time deliveries (overload goodput numerator).
    pub on_time: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.harq_retx += o.harq_retx;
        self.sr_retx += o.sr_retx;
        self.rlc_escalations += o.rlc_escalations;
        self.rrc_recoveries += o.rrc_recoveries;
        self.failovers += o.failovers;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.recording_bytes = self.recording_bytes.max(o.recording_bytes);
        self.on_time += o.on_time;
    }
}

/// What a segment produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted (pings, or offered packets).
    pub ops: u64,
    /// Ops that failed a correctness check (corrupted delivery, broken
    /// conservation ledger, engine error).
    pub failed: u64,
    /// Ops that missed their deadline, were dropped or never arrived.
    pub missed: u64,
    /// RTT (pings) or one-way delivery latency (open loop).
    pub latency: Recording,
    /// Per-layer event counts.
    pub counts: Counts,
}

impl Outcome {
    /// Folds another segment's outcome into this one.
    pub fn merge(&mut self, o: &Outcome) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.missed += o.missed;
        self.latency.merge(&o.latency);
        self.counts.add(&o.counts);
    }

    /// The simulated statistics the `sim_*` metrics report; equal values
    /// mean the simulation did the same thing.
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            ops: self.ops,
            missed: self.missed,
            p50_us: quantile_us(&self.latency, 0.5),
            p999_us: quantile_us(&self.latency, 0.999),
            counts: self.counts,
        }
    }
}

/// The `q`-quantile of a recording in µs (NaN when empty). Exact
/// recordings give the nearest-rank sample; fixed-memory histograms are
/// interpolated linearly inside the containing bucket, so the figure moves
/// with the data instead of snapping to one of ~6 %-wide bucket bounds.
fn quantile_us(latency: &Recording, q: f64) -> f64 {
    let h = match latency {
        Recording::Exact(_) => {
            return latency.clone().try_quantile_us(q).unwrap_or(f64::NAN);
        }
        Recording::Fixed(h) if h.count() == 0 => return f64::NAN,
        Recording::Fixed(h) => h,
    };
    let (lo, hi) = LogLinearHistogram::bucket_bounds(LogLinearHistogram::index_of(h.quantile(q)));
    let below = if lo == 0 { 0.0 } else { h.fraction_le(lo - 1) };
    let through = h.fraction_le(hi - 1);
    let within =
        if through > below { ((q - below) / (through - below)).clamp(0.0, 1.0) } else { 0.0 };
    let ns = (lo as f64 + within * (hi - lo) as f64).clamp(h.min() as f64, h.max() as f64);
    ns / 1_000.0
}

/// Simulated statistics of a run prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Ops simulated.
    pub ops: u64,
    /// Ops missing their deadline (late, dropped or lost).
    pub missed: u64,
    /// Median latency.
    pub p50_us: f64,
    /// p99.9 latency.
    pub p999_us: f64,
    /// Per-layer event counts.
    pub counts: Counts,
}

impl SimStats {
    /// Share of ops delivered within their deadline.
    pub fn on_time_ratio(&self) -> f64 {
        1.0 - self.missed as f64 / self.ops.max(1) as f64
    }
}

impl Input {
    /// Runs the segment on the engine, optionally instrumented.
    pub fn run(&self, tel: Option<&Telemetry>, prof: Option<&Profiler>) -> Outcome {
        match self {
            Input::Ping { config, pings } => {
                let mut res = stack::run_parallel_profiled(config, *pings, 0, tel, prof);
                let on_time =
                    (res.rtt.fraction_within(config.deadline) * res.rtt.count() as f64).round();
                Outcome {
                    ops: *pings,
                    failed: res.integrity_failures.min(*pings),
                    missed: pings - (on_time as u64).min(*pings),
                    counts: Counts {
                        harq_retx: res.harq_retx,
                        sr_retx: res.sr_retx,
                        rlc_escalations: res.rlc_escalations,
                        rrc_recoveries: res.recovered,
                        failovers: res.path_failovers,
                        on_time: on_time as u64,
                        ..Counts::default()
                    },
                    latency: Recording::Exact(res.rtt),
                }
            }
            Input::Overload(cfg) => {
                let rng = SimRng::from_seed(cfg.stack.seed);
                let mut slo = SloSupervisor::new(SloConfig::default());
                let dark = Telemetry::disabled();
                let dark_prof = Profiler::disabled();
                let r = stack::run_overload_profiled(
                    cfg,
                    &rng,
                    &mut slo,
                    tel.unwrap_or(&dark),
                    prof.unwrap_or(&dark_prof),
                );
                let conserved = r.conserved() && r.embb_conserved();
                Outcome {
                    ops: r.offered,
                    failed: if conserved { 0 } else { r.offered },
                    missed: r.late + r.drops.total() + r.in_flight,
                    counts: Counts {
                        peak_queue: r.peak_pdcp_queue as u64,
                        recording_bytes: r.latency.mem_bytes() as u64,
                        on_time: r.delivered - r.late,
                        ..Counts::default()
                    },
                    latency: r.latency,
                }
            }
            Input::City(cfg) => match stack::run_multicell(cfg) {
                Ok(report) => {
                    let classes = report.cells.iter().flat_map(|c| &c.classes);
                    Outcome {
                        ops: report.cells.iter().map(|c| c.offered()).sum(),
                        failed: report
                            .cells
                            .iter()
                            .filter(|c| !c.conserved())
                            .map(|c| c.offered())
                            .sum(),
                        missed: classes.clone().map(|c| c.late + c.dropped + c.in_flight).sum(),
                        counts: Counts {
                            peak_queue: report.cells.iter().map(|c| c.peak_queue).max().unwrap_or(0)
                                as u64,
                            recording_bytes: report.recording_mem_bytes() as u64,
                            on_time: classes.map(|c| c.delivered - c.late).sum(),
                            ..Counts::default()
                        },
                        latency: report.latency(),
                    }
                }
                // An engine error fails the whole segment; one op stands
                // for it because the offered count never came back.
                Err(e) => {
                    eprintln!("city segment failed: {e}");
                    Outcome {
                        ops: 1,
                        failed: 1,
                        missed: 1,
                        latency: Recording::fixed(),
                        counts: Counts::default(),
                    }
                }
            },
        }
    }

    /// The testbed stack configuration underneath the segment.
    pub fn stack_config(&self) -> StackConfig {
        match self {
            Input::Ping { config, .. } => (**config).clone(),
            Input::Overload(cfg) => cfg.stack.clone(),
            Input::City(cfg) => cfg.stack.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_their_bucket() {
        let mut exact = Recording::exact();
        let mut fixed = Recording::fixed();
        for i in 0..10_000u64 {
            let d = Duration::from_nanos(1_000_000 + i * 97);
            exact.record(d);
            fixed.record(d);
        }
        for q in [0.5, 0.999] {
            let e = quantile_us(&exact, q);
            let f = quantile_us(&fixed, q);
            assert!((f - e).abs() / e < 0.005, "q {q}: exact {e} vs interpolated {f}");
        }
        assert!(quantile_us(&Recording::fixed(), 0.5).is_nan());
    }
}
