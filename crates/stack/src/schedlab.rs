//! The scheduler/slicing laboratory — a policy × load × slice-mix sweep
//! over the [`ran::sched`] policy layer (experiment X14) — and the
//! URLLC/eMBB coexistence sweep (X8) as single-class lab points.
//!
//! SimURLLC-style experiment: three traffic classes (URLLC / eMBB / mMTC)
//! offer Poisson downlink load against one cell's slot machinery, and
//! every [`PolicySpec`] in the set orders the same arrival trace. The lab
//! measures what the *policy* changes — per-class p50/p99/p999 latency
//! and deadline-miss rate — with everything else (arrivals, capacity,
//! slot pattern) held byte-identical across policies. Each point runs on
//! the [`cell`] driver: arrivals reach the [`Scheduler`] as they happen,
//! the scheduler runs every slot, and a [`Ledger`] maps each assignment
//! back to its arrival.
//!
//! ## Determinism
//!
//! Every (policy, load, mix) point is one shard of
//! [`sim::parallel::run_shards`] and draws its arrivals from
//! `stream_indexed("sched-point", i)` of the master seed; policies draw
//! no randomness at all. The report vector is assembled in point-index
//! order, so the sweep is byte-identical at any worker count.
//!
//! ## The closed-form preemption bound
//!
//! [`PreemptionBoundModel`] caps preemptive URLLC latency analytically:
//! a packet waits at most one slot for the next scheduling boundary,
//! the scheduler needs its lead plus the gap to the next DL-capable
//! slot, and preemption removes queueing behind other classes — so only
//! the packet's own air time remains. The lab's tests assert the
//! simulated maximum stays under this bound.

use ran::sched::{
    AccessMode, EmergencyBurst, PolicySpec, RequestTag, Rnti, Scheduler, SchedulerConfig,
    SliceShares,
};
use serde::Serialize;
use sim::{Duration, Instant, Recording, SimRng};
use telemetry::Profiler;

use crate::cell::{self, CellModel, Ledger, SlotClock, Source, UNBOUNDED};
use crate::config::StackConfig;
use crate::multicell::{dl_capacity_bytes_per_sec, slice_of};
use crate::node::StackError;

/// One traffic class of a lab mix.
#[derive(Debug, Clone, Serialize)]
pub struct LabClass {
    /// Label carried into the report and CSV (e.g. `"urllc"`).
    pub name: &'static str,
    /// Serving priority, 0 = highest. Also selects the slice (see
    /// [`slice_of`]): 0 → URLLC, 1 → eMBB, 2+ → mMTC.
    pub priority: u8,
    /// Bytes per packet as the scheduler sees them.
    pub packet_bytes: usize,
    /// This class's share of the offered byte rate.
    pub byte_share: f64,
    /// Per-packet delivery deadline (arrival → transmission end).
    pub deadline: Duration,
}

/// A slice mix: the class population plus an optional URLLC surge.
#[derive(Debug, Clone, Serialize)]
pub struct LabMix {
    /// Label carried into the report and CSV (e.g. `"factory"`).
    pub name: &'static str,
    /// Traffic classes, byte shares summing to 1.
    pub classes: Vec<LabClass>,
    /// Optional emergency window: the URLLC arrival rate is multiplied by
    /// the burst magnitude inside it, and slice-aware policies get the
    /// same burst injected into their URLLC budget.
    pub emergency: Option<EmergencyBurst>,
}

/// The laboratory sweep: policies × loads × mixes, one shard per point.
#[derive(Debug, Clone)]
pub struct SchedLabConfig {
    /// Radio/slot parameters (and the master seed) shared by every point.
    pub stack: StackConfig,
    /// Policies under test.
    pub policies: Vec<PolicySpec>,
    /// Offered load as a fraction of downlink capacity (1.0 = saturated).
    pub loads: Vec<f64>,
    /// Slice mixes under test.
    pub mixes: Vec<LabMix>,
    /// Arrival window per point.
    pub horizon: Duration,
}

/// A lab class taking `share` of the offered byte rate, with a
/// `deadline_us` µs deadline.
fn class(name: &'static str, priority: u8, bytes: usize, share: f64, deadline_us: u64) -> LabClass {
    LabClass {
        name,
        priority,
        packet_bytes: bytes,
        byte_share: share,
        deadline: Duration::from_micros(deadline_us),
    }
}

/// The URLLC-heavy factory-cell mix (tight deadlines, thin packets).
fn factory_mix() -> LabMix {
    LabMix {
        name: "factory",
        classes: vec![
            class("urllc", 0, 64, 0.30, 2_500),
            class("embb", 1, 400, 0.50, 20_000),
            class("mmtc", 2, 32, 0.20, 50_000),
        ],
        emergency: None,
    }
}

/// The broadband-dominated dense-urban mix.
fn urban_mix() -> LabMix {
    LabMix {
        name: "urban",
        classes: vec![
            class("urllc", 0, 64, 0.10, 2_500),
            class("embb", 1, 400, 0.70, 20_000),
            class("mmtc", 2, 32, 0.20, 50_000),
        ],
        emergency: None,
    }
}

/// The urban mix with an emergency URLLC surge mid-window (SimURLLC's
/// emergency events): 3× the URLLC arrival rate for 30 ms.
fn emergency_mix() -> LabMix {
    LabMix {
        emergency: Some(EmergencyBurst {
            start: Instant::ZERO + Duration::from_millis(50),
            duration: Duration::from_millis(30),
            magnitude: 3.0,
        }),
        name: "emergency",
        ..urban_mix()
    }
}

impl SchedLabConfig {
    /// The SimURLLC policy set over the §7 testbed: seven policies ×
    /// three loads × three mixes. Preemptive specs carry no standing
    /// background here — the eMBB they puncture is the mix's own explicit
    /// traffic, held as soft reservations.
    pub fn simurllc(seed: u64) -> SchedLabConfig {
        SchedLabConfig {
            stack: StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(seed),
            policies: vec![
                PolicySpec::Fcfs,
                PolicySpec::NonPreemptivePriority,
                PolicySpec::PreemptivePriority { dl_background: 0 },
                PolicySpec::RoundRobin,
                PolicySpec::EarliestDeadlineFirst,
                PolicySpec::HybridEdfPreemptive { dl_background: 0 },
                PolicySpec::SliceAware(SliceShares::even()),
            ],
            loads: vec![0.5, 0.8, 1.1],
            mixes: vec![factory_mix(), urban_mix(), emergency_mix()],
            horizon: Duration::from_millis(200),
        }
    }
}

/// Per-class outcome of one lab point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LabClassReport {
    /// Class label.
    pub class: &'static str,
    /// Packets delivered (every lab arrival is eventually assigned).
    pub count: u64,
    /// Packets offered within the horizon.
    pub offered: u64,
    /// Packets the scheduler had not assigned when the drain window
    /// closed.
    pub in_flight: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Largest observed latency, µs.
    pub max_us: f64,
    /// Fraction of packets past their class deadline.
    pub miss_rate: f64,
}

/// One (policy, load, mix) point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LabPointReport {
    /// Policy label ([`PolicySpec::name`]).
    pub policy: &'static str,
    /// Offered load fraction.
    pub load: f64,
    /// Mix label.
    pub mix: &'static str,
    /// Per-class outcomes, in mix order.
    pub classes: Vec<LabClassReport>,
    /// Soft-reservation bytes punctured by preemptive policies (0 for
    /// non-preemptive ones).
    pub punctured_bytes: u64,
}

impl LabPointReport {
    /// `true` when every offered packet was delivered or is in flight.
    pub fn conserved(&self) -> bool {
        self.classes.iter().all(|c| c.offered == c.count + c.in_flight)
    }
}

impl LabClass {
    fn tag(&self, arrival: Instant) -> RequestTag {
        RequestTag {
            priority: self.priority,
            deadline: Some(arrival + self.deadline),
            slice: slice_of(self.priority),
        }
    }
}

/// One lab point on the [`cell`] driver: each arrival is handed to the
/// scheduler as it happens, the scheduler runs every slot, and the ledger
/// attributes each assignment back to its arrival.
struct Lab<'a> {
    stack: &'a StackConfig,
    classes: &'a [LabClass],
    sched: Scheduler,
    ledger: Ledger,
    recs: Vec<Recording>,
    misses: Vec<u64>,
    offered: Vec<u64>,
}

impl CellModel for Lab<'_> {
    const CLOCK: SlotClock = SlotClock::EverySlot;

    fn on_arrival(&mut self, ci: usize, now: Instant) {
        let class = &self.classes[ci];
        self.sched.on_dl_data_tagged(ci as Rnti, class.packet_bytes, now, class.tag(now));
        self.ledger.push(ci as Rnti, now);
        self.offered[ci] += 1;
    }

    fn on_slot(&mut self, _now: Instant, slot: u64) -> Result<(), StackError> {
        for a in self.sched.run_slot(slot).dl_assignments {
            let ci = usize::from(a.rnti);
            let latency =
                a.dl.tx_start + self.stack.data_air_time(a.bytes) - self.ledger.pop(a.rnti)?;
            self.recs[ci].record(latency);
            if latency > self.classes[ci].deadline {
                self.misses[ci] += 1;
            }
        }
        Ok(())
    }

    fn work_left(&self) -> bool {
        !self.ledger.is_empty()
    }
}

/// Runs `classes` (fed by `sources`, one each) against `sched` on `[0,
/// horizon)` and returns the drained point. The one point runner of the
/// laboratory and of the coexistence sweep.
fn run_point<'a>(
    stack: &'a StackConfig,
    sched: Scheduler,
    classes: &'a [LabClass],
    mut sources: Vec<Source>,
    horizon: Instant,
    recording: Recording,
) -> Result<Lab<'a>, StackError> {
    // A packet no DL slot can ever carry would abort the scheduler.
    for class in classes {
        let room = sched.dl_room(&class.tag(Instant::ZERO));
        if class.packet_bytes > room {
            return Err(StackError::InvalidConfig(format!(
                "class {}: a {}-byte packet never fits the {room} B a DL slot leaves it",
                class.name, class.packet_bytes
            )));
        }
    }
    let mut lab = Lab {
        stack,
        classes,
        sched,
        ledger: Ledger::default(),
        recs: vec![recording; classes.len()],
        misses: vec![0; classes.len()],
        offered: vec![0; classes.len()],
    };
    cell::drive(&mut lab, &mut sources, &stack.duplex, horizon, &Profiler::disabled())?;
    Ok(lab)
}

/// One (policy, load, mix) point: Poisson arrivals per class at the
/// class's share of the offered byte rate (URLLC surging through the mix's
/// emergency window), each class on its own RNG stream, so every policy
/// replays the same arrival trace.
fn sweep_point(
    cfg: &SchedLabConfig,
    spec: &PolicySpec,
    load: f64,
    mix: &LabMix,
    index: u64,
) -> Result<LabPointReport, StackError> {
    let stack = &cfg.stack;
    // Slice-aware budgets honour the mix's emergency window.
    let mut spec = *spec;
    if let (PolicySpec::SliceAware(s), Some(e)) = (&mut spec, mix.emergency) {
        s.emergency = Some(e);
    }
    let sched = Scheduler::new(stack.clone().with_policy(spec).scheduler_config());
    let rng = SimRng::from_seed(stack.seed).stream_indexed("sched-point", index);
    let offered_bps = load * dl_capacity_bytes_per_sec(stack);
    let horizon = Instant::ZERO + cfg.horizon;
    let sources = mix
        .classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let pps = (offered_bps * class.byte_share / class.packet_bytes as f64).max(1e-9);
            let burst = mix.emergency.filter(|_| class.priority == 0);
            let r = rng.stream_indexed("class", ci as u64);
            Source::poisson(Duration::from_micros_f64(1e6 / pps), burst, r, horizon, class.name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut lab = run_point(stack, sched, &mix.classes, sources, horizon, Recording::fixed())?;

    let classes = mix
        .classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let rec = &mut lab.recs[ci];
            let count = rec.count();
            LabClassReport {
                class: class.name,
                count,
                offered: lab.offered[ci],
                in_flight: lab.ledger.pending(ci as Rnti) as u64,
                p50_us: rec.try_quantile_us(0.5).unwrap_or(0.0),
                p99_us: rec.try_quantile_us(0.99).unwrap_or(0.0),
                p999_us: rec.try_quantile_us(0.999).unwrap_or(0.0),
                max_us: rec.max_us(),
                miss_rate: lab.misses[ci] as f64 / count.max(1) as f64,
            }
        })
        .collect();
    Ok(LabPointReport {
        policy: spec.name(),
        load,
        mix: mix.name,
        classes,
        punctured_bytes: lab.sched.punctured_bytes(),
    })
}

/// Runs the whole sweep, one shard per (policy, load, mix) point, and
/// returns the reports in point order (policy-major, then load, then
/// mix) — byte-identical at any worker count. A point whose mix cannot run
/// (a zero arrival mean, a packet no slot carries) fails the sweep.
pub fn run_sched_lab(cfg: &SchedLabConfig) -> Result<Vec<LabPointReport>, StackError> {
    let points: Vec<(&PolicySpec, f64, &LabMix)> = cfg
        .policies
        .iter()
        .flat_map(|p| cfg.loads.iter().flat_map(move |&l| cfg.mixes.iter().map(move |m| (p, l, m))))
        .collect();
    sim::parallel::run_shards(points.len(), |i| {
        let (p, l, m) = points[i];
        sweep_point(cfg, p, l, m, i as u64)
    })
    .into_iter()
    .collect()
}

/// One point of the coexistence sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CoexistencePoint {
    /// Fraction of each DL slot's capacity consumed by eMBB.
    pub embb_load: f64,
    /// The scheduling policy that served URLLC at this point.
    pub policy: PolicySpec,
    /// URLLC downlink latency (RLC enqueue → transmission end), every
    /// sample kept.
    pub latency: Recording,
    /// eMBB bytes erased by preemption (0 under the queueing arm).
    pub embb_bytes_lost: u64,
}

/// URLLC/eMBB coexistence — the research direction the paper's §1 notes
/// ("many research papers assume the availability of URLLC and focus on
/// the coexistence of it alongside other services, e.g. eMBB") — as
/// single-class lab points: `packets` URLLC downlink packets with Poisson
/// arrivals (2 ms mean) share the cell with a constant eMBB backlog
/// taking `load` of every DL slot, under zero scheduler lead.
///
/// * **Queue** (`preempt` false: [`PolicySpec::Fcfs`] over the capacity
///   eMBB leaves) — URLLC competes for the residual capacity and spills
///   into later slots as the load grows. A load that leaves less than one
///   packet is an error.
/// * **Preempt** ([`PolicySpec::PreemptivePriority`] with the eMBB share
///   as the standing background) — URLLC punctures the eMBB allocation:
///   its latency stays flat and the cost appears as erased eMBB bytes.
///
/// A load outside `[0, 1]` is an error.
pub fn coexistence_sweep(
    preempt: bool,
    loads: &[f64],
    packets: u64,
    seed: u64,
) -> Result<Vec<CoexistencePoint>, StackError> {
    let base = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
    let full = base.slot_capacity_bytes();
    let urllc = [class("urllc", 0, base.grant_bytes(), 1.0, base.deadline.as_nanos() / 1_000)];
    let point = |&load: &f64| {
        if !(0.0..=1.0).contains(&load) {
            return Err(StackError::InvalidConfig(format!("eMBB load {load} is not a fraction")));
        }
        let (policy, capacity) = if preempt {
            let background = ((full as f64) * load) as usize;
            (PolicySpec::PreemptivePriority { dl_background: background }, full)
        } else {
            (PolicySpec::Fcfs, ((full as f64) * (1.0 - load)) as usize)
        };
        let sched = Scheduler::new(SchedulerConfig {
            dl_slot_capacity: capacity,
            policy: policy.build(),
            ..SchedulerConfig::ideal(base.duplex.clone(), AccessMode::GrantFree)
        });
        let rng = SimRng::from_seed(seed).stream("coexistence");
        let source =
            Source::poisson(Duration::from_millis(2), None, rng, UNBOUNDED, "coexistence")?
                .starting_at(Instant::ZERO, packets);
        let mut lab = run_point(&base, sched, &urllc, vec![source], UNBOUNDED, Recording::exact())?;
        Ok(CoexistencePoint {
            embb_load: load,
            policy,
            latency: lab.recs.remove(0),
            embb_bytes_lost: lab.sched.punctured_bytes(),
        })
    };
    loads.iter().map(point).collect()
}

/// Closed-form cap on URLLC latency under a preemptive policy.
#[derive(Debug, Clone, Copy)]
pub struct PreemptionBoundModel {
    /// Worst boundary-to-transmission-start gap across the TDD period
    /// (scheduler lead + wait for the next DL-capable slot).
    pub worst_dispatch: Duration,
    /// The full bound: one slot of boundary wait + worst dispatch + the
    /// packet's own air time.
    pub bound: Duration,
}

impl PreemptionBoundModel {
    /// Builds the bound for `urllc_bytes`-byte packets on `stack`. A
    /// packet arriving anywhere in the TDD period waits at most one slot
    /// for the next scheduling boundary; the scheduler then needs its
    /// data lead plus the gap to the next DL-capable slot; preemption
    /// sees through every other class's soft reservations, so no queueing
    /// term remains. Valid while URLLC's own (hard) bytes never fill a
    /// slot — the regime every lab load point stays in.
    pub fn new(stack: &StackConfig, urllc_bytes: usize) -> PreemptionBoundModel {
        let slot = stack.duplex.slot_duration();
        let period_slots = (stack.duplex.pattern_period().as_nanos() / slot.as_nanos()).max(1);
        let mut worst = Duration::ZERO;
        for b in 0..period_slots {
            let boundary = stack.duplex.slot_start(b);
            let op = stack.duplex.next_dl_opportunity(boundary.saturating_add(stack.sched_lead));
            worst = worst.max(op.tx_start - boundary);
        }
        PreemptionBoundModel {
            worst_dispatch: worst,
            bound: slot + worst + stack.data_air_time(urllc_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cut-down grid that still exercises multiple policies.
    fn small(policies: Vec<PolicySpec>) -> SchedLabConfig {
        let mut cfg = SchedLabConfig::simurllc(23);
        cfg.policies = policies;
        cfg.loads = vec![0.8];
        cfg.mixes = vec![factory_mix()];
        cfg.horizon = Duration::from_millis(60);
        cfg
    }

    fn urllc(p: &LabPointReport) -> &LabClassReport {
        p.classes.iter().find(|c| c.class == "urllc").unwrap()
    }

    #[test]
    fn default_grid_covers_the_required_sweep() {
        let cfg = SchedLabConfig::simurllc(1);
        assert!(cfg.policies.len() >= 5, "{} policies", cfg.policies.len());
        assert!(cfg.loads.len() >= 3);
        assert!(cfg.mixes.len() >= 3);
        // Policy labels are unique (they key the CSV).
        let mut names: Vec<_> = cfg.policies.iter().map(PolicySpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cfg.policies.len());
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let cfg = small(vec![PolicySpec::Fcfs, PolicySpec::EarliestDeadlineFirst]);
        sim::parallel::set_jobs(1);
        let a = run_sched_lab(&cfg).unwrap();
        sim::parallel::set_jobs(2);
        let b = run_sched_lab(&cfg).unwrap();
        sim::parallel::set_jobs(0);
        assert_eq!(a, b);
    }

    #[test]
    fn every_arrival_is_served_exactly_once() {
        let cfg = small(vec![PolicySpec::RoundRobin]);
        let pts = run_sched_lab(&cfg).unwrap();
        assert_eq!(pts.len(), 1);
        // Same trace, different policy: identical per-class counts.
        let cfg2 = small(vec![PolicySpec::Fcfs]);
        let pts2 = run_sched_lab(&cfg2).unwrap();
        for (a, b) in pts[0].classes.iter().zip(&pts2[0].classes) {
            assert!(a.count > 0, "class {} served nothing", a.class);
            assert_eq!(a.count, b.count, "class {}", a.class);
            assert_eq!((a.offered, a.in_flight), (a.count, 0), "class {}", a.class);
        }
        assert!(pts[0].conserved() && pts2[0].conserved());
    }

    #[test]
    fn preemption_beats_queueing_for_urllc_under_saturation() {
        let mut cfg = small(vec![
            PolicySpec::NonPreemptivePriority,
            PolicySpec::PreemptivePriority { dl_background: 0 },
        ]);
        cfg.loads = vec![1.1];
        let pts = run_sched_lab(&cfg).unwrap();
        let queued = urllc(&pts[0]);
        let preempted = urllc(&pts[1]);
        assert!(
            preempted.p99_us < queued.p99_us,
            "preemptive p99 {} should beat non-preemptive {}",
            preempted.p99_us,
            queued.p99_us
        );
        assert!(pts[1].punctured_bytes > 0, "saturation must puncture");
        assert_eq!(pts[0].punctured_bytes, 0);
    }

    #[test]
    fn simulated_preemptive_urllc_stays_under_the_closed_form_bound() {
        let mut cfg = small(vec![
            PolicySpec::PreemptivePriority { dl_background: 0 },
            PolicySpec::HybridEdfPreemptive { dl_background: 0 },
        ]);
        cfg.loads = vec![0.8, 1.1];
        let urllc_bytes = cfg.mixes[0].classes[0].packet_bytes;
        let bound = PreemptionBoundModel::new(&cfg.stack, urllc_bytes);
        assert!(bound.bound > Duration::ZERO);
        for p in run_sched_lab(&cfg).unwrap() {
            let c = urllc(&p);
            assert!(
                c.max_us <= bound.bound.as_micros_f64() + 1e-6,
                "{} at load {}: max {} µs exceeds bound {} µs",
                p.policy,
                p.load,
                c.max_us,
                bound.bound.as_micros_f64()
            );
        }
    }

    #[test]
    fn emergency_burst_raises_urllc_traffic() {
        let mut cfg = SchedLabConfig::simurllc(5);
        cfg.policies = vec![PolicySpec::SliceAware(SliceShares::even())];
        cfg.loads = vec![0.8];
        cfg.horizon = Duration::from_millis(100);
        cfg.mixes = vec![urban_mix()];
        let calm = run_sched_lab(&cfg).unwrap();
        cfg.mixes = vec![emergency_mix()];
        let surged = run_sched_lab(&cfg).unwrap();
        assert!(
            urllc(&surged[0]).count > urllc(&calm[0]).count,
            "surge {} vs calm {}",
            urllc(&surged[0]).count,
            urllc(&calm[0]).count
        );
    }
    #[test]
    fn oversized_or_silent_classes_are_typed_errors() {
        let cap = SchedLabConfig::simurllc(1).stack.slot_capacity_bytes();
        for (bytes, share) in [(cap + 1, 0.3), (0, 0.3)] {
            let mut cfg = small(vec![PolicySpec::Fcfs]);
            cfg.mixes[0].classes[0].packet_bytes = bytes;
            cfg.mixes[0].classes[0].byte_share = share;
            let err = run_sched_lab(&cfg).expect_err("must not run");
            assert!(matches!(err, StackError::InvalidConfig(_)), "{err}");
        }
        // A packet that fits the slot but not beside the background a
        // non-preempting class must leave, or not in its slice's budget.
        let mut cfg = small(vec![PolicySpec::PreemptivePriority { dl_background: cap - 100 }]);
        cfg.mixes[0].classes[1].packet_bytes = 200;
        assert!(run_sched_lab(&cfg).is_err());
        // Even shares give URLLC 1/3 × 1.2 of the slot.
        let mut cfg = small(vec![PolicySpec::SliceAware(SliceShares::even())]);
        cfg.mixes[0].classes[0].packet_bytes = cap / 2;
        assert!(run_sched_lab(&cfg).is_err());
    }

    fn mean(p: &CoexistencePoint) -> f64 {
        let mut rec = p.latency.clone();
        rec.summary().mean_us
    }

    #[test]
    fn queue_latency_grows_with_embb_load() {
        // At 85 % load a DDDU slot fits ~one URLLC packet; arrivals every
        // 2 ms against ~1 serviceable packet per 0.5 ms slot group start
        // spilling across slots.
        let pts = coexistence_sweep(false, &[0.0, 0.5, 0.85], 500, 1).unwrap();
        let means: Vec<f64> = pts.iter().map(mean).collect();
        assert!(means[1] >= means[0] * 0.9, "{means:?}"); // 50 % load: still fits
        assert!(means[2] > 1.2 * means[0], "heavy load must queue: {means:?}");
        assert!(pts.iter().all(|p| p.embb_bytes_lost == 0));
        assert!(pts.iter().all(|p| p.policy == PolicySpec::Fcfs));
    }

    #[test]
    fn queue_policy_rejects_saturating_load() {
        let err = coexistence_sweep(false, &[0.99], 10, 1).expect_err("cannot serve");
        assert!(matches!(err, StackError::InvalidConfig(_)), "{err}");
        for load in [-0.1, 1.5, f64::NAN] {
            assert!(coexistence_sweep(true, &[load], 10, 1).is_err(), "load {load}");
        }
    }

    #[test]
    fn preemption_keeps_urllc_flat_and_charges_embb() {
        let pts = coexistence_sweep(true, &[0.0, 0.5, 0.99], 500, 2).unwrap();
        let means: Vec<f64> = pts.iter().map(mean).collect();
        assert!(
            (means[2] - means[0]).abs() < 0.05 * means[0],
            "preemptive latency should be load-independent: {means:?}"
        );
        // At ≤ 50 % load the free share absorbs the packet: nothing erased.
        assert_eq!(pts[0].embb_bytes_lost, 0);
        assert_eq!(pts[1].embb_bytes_lost, 0);
        // At 99 % load nearly every URLLC byte punctures eMBB.
        assert!(pts[2].embb_bytes_lost > 0);
    }

    #[test]
    fn preemption_charge_matches_per_packet_formula() {
        // Every packet punctures independently, so the scheduler's ledger
        // must equal the closed-form per-packet charge: the URLLC bytes
        // that do not fit in the slot's free share.
        let base = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
        let full = base.slot_capacity_bytes();
        let urllc = base.grant_bytes();
        let load = 0.9;
        let free = full - ((full as f64) * load) as usize;
        let pts = coexistence_sweep(true, &[load], 200, 7).unwrap();
        assert_eq!(pts[0].latency.count(), 200);
        assert_eq!(pts[0].embb_bytes_lost, 200 * urllc.saturating_sub(free) as u64);
    }

    #[test]
    fn policies_agree_when_cell_is_idle() {
        let q = &coexistence_sweep(false, &[0.0], 300, 3).unwrap()[0];
        let p = &coexistence_sweep(true, &[0.0], 300, 3).unwrap()[0];
        assert!((mean(q) - mean(p)).abs() < 1e-9);
    }

    #[test]
    fn all_packets_served() {
        for preempt in [false, true] {
            let pts = coexistence_sweep(preempt, &[0.7], 400, 4).unwrap();
            assert_eq!(pts[0].latency.count(), 400, "preempt={preempt}");
        }
    }
}
