//! The open-loop engines on the shared cell driver (`stack::cell`) under
//! configurations nobody tuned: every `run_multicell` and `run_sched_lab`
//! call must end — with a typed error or a conserved report — and never
//! panic or hang. Runs go through [`within`], so a hang fails its test
//! instead of stalling the suite.

use std::sync::mpsc::{self, RecvTimeoutError};

use proptest::prelude::*;
use ran::sched::{AccessMode, EmergencyBurst, PolicySpec, SliceShares};
use sim::{Duration, Instant, SimRng};
use stack::cell::{self, CellModel, Ledger, SlotClock, Source, UNBOUNDED};
use stack::{
    run_multicell, run_sched_lab, CellConfig, LabClass, LabMix, MulticellConfig, SchedLabConfig,
    StackConfig, StackError, UeClass,
};
use telemetry::Profiler;

/// Runs `f` on its own thread: its result, its panic, or a test failure
/// when it has not returned within `secs` seconds (a hung thread cannot
/// be joined; it ends with the test process).
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(out) => {
            worker.join().expect("the worker returned after sending");
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("engine still running after {secs} s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the worker died without sending"))
        }
    }
}

/// Logs every event; `wedged` never reports its work done.
struct Probe {
    arrivals: Vec<(Instant, usize)>,
    slots: u64,
    wedged: bool,
}

impl CellModel for Probe {
    const CLOCK: SlotClock = SlotClock::DlOpportunity;
    fn on_arrival(&mut self, class: usize, now: Instant) {
        self.arrivals.push((now, class));
    }
    fn on_slot(&mut self, _now: Instant, _slot: u64) -> Result<(), StackError> {
        self.slots += 1;
        Ok(())
    }
    fn work_left(&self) -> bool {
        self.wedged
    }
}

fn testbed() -> StackConfig {
    StackConfig::testbed_dddu(AccessMode::GrantBased, true)
}

fn drive(
    probe: &mut Probe,
    sources: &mut [Source],
    horizon: Instant,
) -> Result<cell::Run, StackError> {
    cell::drive(probe, sources, &testbed().duplex, horizon, &Profiler::disabled())
}

#[test]
fn same_instant_arrivals_fire_in_class_order() {
    // Two classes drawing the same RNG stream arrive at exactly the same
    // instants; at each of them class 0 fires first.
    let horizon = Instant::from_millis(5);
    let twin = || {
        let mean = Duration::from_micros(200);
        Source::poisson(mean, None, SimRng::from_seed(9), horizon, "twin").unwrap()
    };
    let mut probe = Probe { arrivals: Vec::new(), slots: 0, wedged: false };
    let run = drive(&mut probe, &mut [twin(), twin()], horizon).unwrap();
    assert!(probe.arrivals.len() > 20);
    for pair in probe.arrivals.chunks(2) {
        assert_eq!((pair[0].0, pair[0].1, pair[1].1), (pair[1].0, 0, 1));
    }
    assert!(probe.arrivals.iter().all(|&(t, _)| t < horizon));
    // One pending arrival per class plus the slot event.
    assert_eq!(run.peak_events, 3);
    assert_eq!(run.total_slots, probe.slots);
}

#[test]
fn a_wedged_model_stops_at_the_drain_window() {
    let period = testbed().duplex.pattern_period();
    let horizon = Instant::from_millis(4);
    let mut probe = Probe { arrivals: Vec::new(), slots: 0, wedged: true };
    let one = Source::poisson(Duration::from_millis(1), None, SimRng::from_seed(1), horizon, "x");
    let run = within(20, move || drive(&mut probe, &mut [one.unwrap()], horizon)).unwrap();
    assert!(run.end <= horizon + period * 4096 && run.end + period > horizon + period * 4096);
    // Count-limited runs drain from their last arrival.
    let mut probe = Probe { arrivals: Vec::new(), slots: 0, wedged: true };
    let src = Source::poisson(Duration::from_millis(1), None, SimRng::from_seed(1), UNBOUNDED, "x");
    let src = src.unwrap().starting_at(Instant::ZERO, 3);
    let (run, last) = within(20, move || {
        let run = drive(&mut probe, &mut [src], UNBOUNDED);
        (run, probe.arrivals.last().unwrap().0)
    });
    let run = run.unwrap();
    assert!(run.end <= last + period * 4096 && run.end + period > last + period * 4096);
}

#[test]
fn degenerate_means_are_typed_errors() {
    let rng = SimRng::from_seed(1);
    for mean_us in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-7] {
        let mean = Duration::from_micros_f64(mean_us);
        let src = Source::poisson(mean, None, rng.clone(), UNBOUNDED, "x");
        assert!(matches!(src, Err(StackError::InvalidConfig(_))), "mean {mean_us} µs");
    }
    let burst = EmergencyBurst { start: Instant::ZERO, duration: Duration::MAX, magnitude: 0.0 };
    let mean = Duration::from_micros(5);
    assert!(Source::poisson(mean, Some(burst), rng, UNBOUNDED, "x").is_err());
}

#[test]
fn sources_stop_at_horizon_and_count() {
    let rng = SimRng::from_seed(3);
    let mean = Duration::from_micros(100);
    let until = Instant::from_millis(10);
    let mut s = Source::poisson(mean, None, rng.clone(), until, "x").unwrap();
    let ts: Vec<Instant> = s.by_ref().collect();
    assert!(ts.len() > 50 && ts.iter().all(|&t| t < until), "{}", ts.len());
    assert_eq!(s.next(), None);
    let c = Source::poisson(mean, None, rng, UNBOUNDED, "x").unwrap().starting_at(until, 7);
    let ts: Vec<Instant> = c.collect();
    assert_eq!(ts.len(), 7);
    assert!(ts[0] >= until && ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn ledger_matches_fifo_and_rejects_strangers() {
    let mut l = Ledger::default();
    l.push(3, Instant::from_micros(1));
    l.push(3, Instant::from_micros(2));
    assert_eq!(l.pending(3), 2);
    assert_eq!(l.pop(3).unwrap(), Instant::from_micros(1));
    assert!(matches!(l.pop(0), Err(StackError::Diverged(_))));
    assert!(matches!(l.pop(9), Err(StackError::Diverged(_))));
    assert_eq!(l.pop(3).unwrap(), Instant::from_micros(2));
    assert!(l.is_empty());
    assert!(l.pop(3).is_err());
}

#[test]
fn dddu_has_three_dl_slots_in_four() {
    assert_eq!(cell::dl_slots_per_period(&testbed().duplex), (4, 3));
}

/// One dense-urban cell over 20 ms.
fn one_cell() -> MulticellConfig {
    let mut cfg = MulticellConfig::dense_urban(1, 1000, 3);
    cfg.horizon = Duration::from_millis(20);
    cfg
}

#[test]
fn multicell_silent_or_zero_interval_class_is_a_typed_error() {
    assert!(within(20, || run_multicell(&one_cell())).is_ok());
    let mut zero_count = one_cell();
    zero_count.cells[0].classes[0].count = 0;
    let mut zero_interval = one_cell();
    zero_interval.cells[0].classes[1].mean_interval = Duration::ZERO;
    for cfg in [zero_count, zero_interval] {
        let err = within(20, move || run_multicell(&cfg)).expect_err("cannot run");
        assert!(matches!(err, StackError::InvalidConfig(_)), "{err}");
    }
}

#[test]
fn schedlab_zero_byte_class_is_a_typed_error() {
    let mut cfg = SchedLabConfig::simurllc(2);
    cfg.policies.truncate(1);
    cfg.loads.truncate(1);
    cfg.mixes.truncate(1);
    cfg.horizon = Duration::from_millis(20);
    assert!(within(20, {
        let cfg = cfg.clone();
        move || run_sched_lab(&cfg)
    })
    .is_ok());
    cfg.mixes[0].classes[0].packet_bytes = 0;
    let err = within(20, move || run_sched_lab(&cfg)).expect_err("cannot run");
    assert!(matches!(err, StackError::InvalidConfig(_)), "{err}");
}

/// Every policy; backgrounds up to ~2/3 of the testbed's 918-byte slot,
/// slice shares from 0.2 to 0.6.
fn any_policy() -> impl Strategy<Value = PolicySpec> {
    (0usize..7, 0usize..600, 0.2f64..0.6, 0.2f64..0.6, 0.2f64..0.6).prop_map(
        |(i, background, urllc, embb, mmtc)| match i {
            0 => PolicySpec::Fcfs,
            1 => PolicySpec::NonPreemptivePriority,
            2 => PolicySpec::PreemptivePriority { dl_background: background },
            3 => PolicySpec::RoundRobin,
            4 => PolicySpec::EarliestDeadlineFirst,
            5 => PolicySpec::HybridEdfPreemptive { dl_background: background },
            _ => PolicySpec::SliceAware(SliceShares { urllc, embb, mmtc, emergency: None }),
        },
    )
}

/// Mean gaps of 0 (invalid) one time in seven, else 0.2–20 ms.
fn any_interval_us() -> impl Strategy<Value = u64> {
    (0u8..7, 200u64..20_000).prop_map(|(k, us)| if k == 0 { 0 } else { us })
}

fn any_ue_class() -> impl Strategy<Value = UeClass> {
    (0u64..20, any_interval_us(), 0usize..3000, 0u8..4, 1u64..20).prop_map(
        |(count, interval_us, packet_bytes, priority, deadline_ms)| UeClass {
            name: "c",
            count,
            mean_interval: Duration::from_micros(interval_us),
            packet_bytes,
            priority,
            deadline: Duration::from_millis(deadline_ms),
        },
    )
}

/// Packets of 1–160 B (fit beside any generated background or budget) most
/// of the time; otherwise 0 B (invalid) or up to 1200 B (may not fit).
fn any_lab_class() -> impl Strategy<Value = LabClass> {
    (0u8..4, (0u8..12, 1usize..160, 0usize..1200), 0.0f64..1.0, 1u64..20).prop_map(
        |(priority, (k, small, large), byte_share, deadline_ms)| LabClass {
            name: "c",
            priority,
            packet_bytes: match k {
                0 => 0,
                1 => large,
                _ => small,
            },
            byte_share,
            deadline: Duration::from_millis(deadline_ms),
        },
    )
}

/// Surge windows of 0–29 ms, or one that never ends; magnitudes from 0
/// (invalid for a URLLC class) to 4.
fn any_burst() -> impl Strategy<Value = Option<EmergencyBurst>> {
    proptest::option::of((0u64..30, 0u64..31, 0.0f64..4.0).prop_map(|(start, len, magnitude)| {
        EmergencyBurst {
            start: Instant::from_millis(start),
            duration: if len == 30 { Duration::MAX } else { Duration::from_millis(len) },
            magnitude,
        }
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small random mixes through the city engine: counts and intervals
    /// of zero are the only errors, everything else runs conserved.
    #[test]
    fn multicell_mixes_end_conserved_or_in_a_typed_error(
        classes in proptest::collection::vec(any_ue_class(), 1..4),
        policy in any_policy(),
        queue_cap in 1usize..64,
        horizon_ms in 1u64..25,
        seed in 0u64..1000,
    ) {
        let degenerate = classes.iter().any(|c| c.count == 0 || c.mean_interval.is_zero());
        let mut cfg = one_cell();
        cfg.stack = cfg.stack.with_seed(seed);
        cfg.cells = vec![CellConfig { classes }];
        cfg.policy = policy;
        cfg.queue_cap = queue_cap;
        cfg.horizon = Duration::from_millis(horizon_ms);
        match within(60, move || run_multicell(&cfg)) {
            Ok(report) => {
                prop_assert!(!degenerate, "a zero count or interval ran");
                prop_assert!(report.cells.iter().all(|c| c.conserved()), "{report:?}");
            }
            Err(e) => {
                prop_assert!(degenerate, "valid mix failed: {e}");
                prop_assert!(matches!(e, StackError::InvalidConfig(_)), "{e}");
            }
        }
    }

    /// Small random mixes, every policy, through the laboratory: a run
    /// either ends in a typed configuration error or serves every arrival.
    #[test]
    fn schedlab_mixes_end_conserved_or_in_a_typed_error(
        classes in proptest::collection::vec(any_lab_class(), 1..4),
        emergency in any_burst(),
        policy in any_policy(),
        load in 0.0f64..1.3,
        horizon_ms in 1u64..25,
        seed in 0u64..1000,
    ) {
        let mut cfg = SchedLabConfig::simurllc(seed);
        cfg.policies = vec![policy];
        cfg.loads = vec![load];
        cfg.mixes = vec![LabMix { name: "random", classes, emergency }];
        cfg.horizon = Duration::from_millis(horizon_ms);
        match within(60, move || run_sched_lab(&cfg)) {
            Ok(points) => {
                prop_assert!(points.iter().all(|p| p.conserved()), "{points:?}");
                for c in points.iter().flat_map(|p| &p.classes) {
                    prop_assert_eq!(c.in_flight, 0, "class {} left unserved", c.class);
                }
            }
            Err(e) => prop_assert!(matches!(e, StackError::InvalidConfig(_)), "{e}"),
        }
    }
}
