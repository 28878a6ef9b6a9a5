//! The open-loop cell driver shared by every engine that offers traffic
//! to one cell on its own clock: [`crate::multicell`], [`crate::overload`],
//! [`crate::schedlab`] and [`crate::multi_ue`].
//!
//! Three pieces:
//!
//! * [`drive`] — the one event loop. Each traffic class keeps exactly one
//!   pending arrival on a [`sim::EventQueue`] (its successor is drawn when
//!   it fires), next to one slot event. At the same instant arrivals fire
//!   in class order, then the slot, so a packet arriving exactly on a
//!   boundary is eligible for it. Slots keep ticking while arrivals remain
//!   or the model holds work, up to a drain window of 4096 TDD periods past
//!   the horizon (past the last arrival for count-limited runs); a wedged
//!   model surfaces as leftover work, not a hang.
//! * [`Source`] — one class's arrival stream: an aggregated Poisson
//!   process, a Poisson process modulated by an emergency surge, or any
//!   [`ArrivalProcess`]. Each source owns its RNG stream, so the draws of
//!   a class never depend on the other classes.
//! * [`Ledger`] — per-RNTI FIFOs of arrival instants, matching each
//!   scheduler assignment back to the packet it serves.
//!
//! An engine is a [`CellModel`]: what an arrival does, what a slot does,
//! and whether work is left. The model type fixes its [`SlotClock`].

use std::collections::VecDeque;

use phy::duplex::{Duplex, SlotTiming};
use ran::sched::{EmergencyBurst, Rnti};
use sim::{ArrivalGen, ArrivalProcess, Dist, Duration, EventQueue, Instant, SimRng};
use telemetry::Profiler;

use crate::node::StackError;

/// The horizon of count-limited runs, whose sources end by count.
pub const UNBOUNDED: Instant = Instant::from_nanos(u64::MAX);

/// When a model's slot event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotClock {
    /// At every slot boundary from slot 1 on: models that hand requests to
    /// a `ran::sched::Scheduler`, which places them in DL slots itself.
    /// (Slot 0's boundary is the epoch, before any arrival.)
    EverySlot,
    /// At the start of every DL transmission opportunity: models that
    /// serve their queues straight into the slot they are given.
    DlOpportunity,
}

impl SlotClock {
    /// The first slot event after slot `after` (`None`: the first of all).
    fn next(self, timing: &SlotTiming, after: Option<u64>) -> (Instant, u64) {
        match self {
            SlotClock::EverySlot => {
                let slot = after.map_or(1, |s| s + 1);
                (timing.slot_start(slot), slot)
            }
            SlotClock::DlOpportunity => {
                let from = after.map_or(Instant::ZERO, |s| timing.slot_start(s + 1));
                let op = timing.next_dl_opportunity(from);
                (op.tx_start, op.slot)
            }
        }
    }
}

/// One engine on the cell driver.
pub trait CellModel {
    /// The slot clock this model runs on.
    const CLOCK: SlotClock;
    /// Profiler stage of every slot event.
    const SLOT_STAGE: &'static str = "cell/slot";
    /// Profiler stage of each class's arrivals (the last entry serves
    /// every later class).
    const ARRIVAL_STAGES: &'static [&'static str] = &["cell/arrival"];

    /// A packet of class `class` arrives at `now`.
    fn on_arrival(&mut self, class: usize, now: Instant);

    /// The slot event of global slot `slot`, firing at `now`.
    fn on_slot(&mut self, now: Instant, slot: u64) -> Result<(), StackError>;

    /// Whether any packet is still queued inside the model.
    fn work_left(&self) -> bool;
}

/// What the loop itself observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// Peak pending events (classes + 1 at most).
    pub peak_events: usize,
    /// Slot events processed.
    pub total_slots: u64,
    /// The clock when the loop ended: the last event's instant.
    pub end: Instant,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(usize),
    Slot(u64),
}

/// Schedules `class`'s next arrival, if its source has one. Same-instant
/// order: class `c` before class `c + 1` (classes past 254 share the last
/// rank and keep push order), every arrival before the slot.
fn arm(queue: &mut EventQueue<Ev>, source: &mut Source, class: usize) {
    if let Some(at) = source.next() {
        queue.push_with_priority(at, class.min(254) as u8, Ev::Arrival(class));
    }
}

/// Runs `model` with one arrival stream per class (`sources[c]` feeds
/// class `c`) until the arrivals are exhausted and the model drained, or
/// the drain window past `horizon` closed. Profiler scopes wrap each event
/// under the model's stage names; they read only the host clock.
pub fn drive<M: CellModel>(
    model: &mut M,
    sources: &mut [Source],
    duplex: &Duplex,
    horizon: Instant,
    prof: &Profiler,
) -> Result<Run, StackError> {
    let drain_window = duplex.pattern_period() * 4096;
    let timing = duplex.timing();
    // Count-limited runs drain from their last arrival instead.
    let mut drain_from = horizon;
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (class, source) in sources.iter_mut().enumerate() {
        arm(&mut queue, source, class);
    }
    let (at, slot) = M::CLOCK.next(&timing, None);
    queue.push_with_priority(at, u8::MAX, Ev::Slot(slot));

    // A disabled profiler costs one branch per event, not a call.
    let profiling = prof.is_enabled();
    let scope = |stage| profiling.then(|| prof.scope(stage));
    let mut run = Run::default();
    while let Some((now, ev)) = queue.pop() {
        run.peak_events = run.peak_events.max(queue.len() + 1);
        match ev {
            Ev::Arrival(class) => {
                let _t = scope(M::ARRIVAL_STAGES[class.min(M::ARRIVAL_STAGES.len() - 1)]);
                drain_from = if horizon == UNBOUNDED { now } else { horizon };
                model.on_arrival(class, now);
                arm(&mut queue, &mut sources[class], class);
            }
            Ev::Slot(slot) => {
                let _t = scope(M::SLOT_STAGE);
                run.total_slots += 1;
                model.on_slot(now, slot)?;
                // While arrivals remain the clock runs on; after them, only
                // while work is left and the drain window is open.
                let (at, next) = M::CLOCK.next(&timing, Some(slot));
                let draining = model.work_left() && at <= drain_from.saturating_add(drain_window);
                if !queue.is_empty() || draining {
                    queue.push_with_priority(at, u8::MAX, Ev::Slot(next));
                }
            }
        }
    }
    run.end = queue.now();
    Ok(run)
}

#[derive(Debug, Clone)]
enum Stream {
    /// Exponential gaps; with a surge, their mean is divided by the surge
    /// factor in force at the previous arrival.
    Poisson { mean: Duration, surge: Option<EmergencyBurst>, rng: SimRng },
    /// Any arrival process (it draws absolute instants itself).
    Process(ArrivalGen),
}

/// One class's arrival stream: yields strictly the arrivals before its
/// horizon and at most its count.
#[derive(Debug, Clone)]
pub struct Source {
    stream: Stream,
    last: Instant,
    until: Instant,
    left: u64,
}

impl Source {
    /// Poisson arrivals of mean gap `mean` on `[0, until)`, the rate
    /// multiplied by `surge`'s magnitude while its window is active. The
    /// superposition of `n` rate-λ processes is one rate-`n·λ` process, so
    /// a whole class of UEs is one source. A zero mean — what
    /// [`Duration::from_micros_f64`] makes of a negative, tiny or
    /// non-finite one — would re-arm the arrival at the same instant
    /// forever, so it is an error, in or out of the surge.
    pub fn poisson(
        mean: Duration,
        surge: Option<EmergencyBurst>,
        rng: SimRng,
        until: Instant,
        what: &str,
    ) -> Result<Source, StackError> {
        let surged = surge.map(|e| Duration::from_micros_f64(mean.as_micros_f64() / e.magnitude));
        if mean.is_zero() || surged.is_some_and(Duration::is_zero) {
            return Err(StackError::InvalidConfig(format!(
                "{what}: the mean inter-arrival time must be positive and finite"
            )));
        }
        let stream = Stream::Poisson { mean, surge, rng };
        Ok(Source { stream, last: Instant::ZERO, until, left: u64::MAX })
    }

    /// Arrivals of `process` on `[0, until)`. [`ArrivalGen`] advances at
    /// least 1 ns per arrival, so a zero mean cannot re-arm an arrival at
    /// the same instant.
    pub fn process(process: ArrivalProcess, rng: SimRng, until: Instant) -> Source {
        let stream = Stream::Process(ArrivalGen::new(process, rng));
        Source { stream, last: Instant::ZERO, until, left: u64::MAX }
    }

    /// The same stream started at `start` (the first gap counts from
    /// there) and cut after `count` arrivals.
    pub fn starting_at(mut self, start: Instant, count: u64) -> Source {
        self.last = start;
        self.left = count;
        self
    }
}

/// Arrival instants, ascending; `None` once the stream is exhausted.
impl Iterator for Source {
    type Item = Instant;

    fn next(&mut self) -> Option<Instant> {
        if self.left == 0 {
            return None;
        }
        let at = match &mut self.stream {
            Stream::Poisson { mean, surge, rng } => {
                let last = self.last;
                let mean = surge.map_or(*mean, |e| {
                    Duration::from_micros_f64(mean.as_micros_f64() / e.factor_at(last))
                });
                last + Dist::Exponential { mean }.sample(rng)
            }
            Stream::Process(gen) => gen.next_arrival(),
        };
        if at >= self.until {
            self.left = 0;
            return None;
        }
        self.left -= 1;
        self.last = at;
        Some(at)
    }
}

/// Per-RNTI FIFOs of arrival instants. Every scheduling policy is
/// seq-stable within one RNTI, so the scheduler serves each RNTI's
/// requests in arrival order and the FIFO head is the packet served.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    fifos: Vec<VecDeque<Instant>>,
    len: usize,
}

impl Ledger {
    /// A request for `rnti` that arrived at `at` was handed to the
    /// scheduler.
    pub fn push(&mut self, rnti: Rnti, at: Instant) {
        let i = usize::from(rnti);
        if i >= self.fifos.len() {
            self.fifos.resize_with(i + 1, VecDeque::new);
        }
        self.fifos[i].push_back(at);
        self.len += 1;
    }

    /// The arrival instant of the request the scheduler just served for
    /// `rnti`; an error when the scheduler served a request this ledger
    /// never saw.
    pub fn pop(&mut self, rnti: Rnti) -> Result<Instant, StackError> {
        let at = self.fifos.get_mut(usize::from(rnti)).and_then(VecDeque::pop_front).ok_or_else(
            || StackError::Diverged(format!("scheduler served rnti {rnti} with nothing pending")),
        )?;
        self.len -= 1;
        Ok(at)
    }

    /// Requests of `rnti` not yet served.
    pub fn pending(&self, rnti: Rnti) -> usize {
        self.fifos.get(usize::from(rnti)).map_or(0, VecDeque::len)
    }

    /// Whether every request has been served.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// `base` grown by `per_ue` for each of `n_ues` attached UEs: gNB work
/// per packet rises with the population (§7: "higher number of UEs might
/// increase the processing times noticeably").
pub(crate) fn inflate(base: Duration, per_ue: f64, n_ues: u64) -> Duration {
    Duration::from_micros_f64(base.as_micros_f64() * (1.0 + per_ue * n_ues as f64))
}

/// Slots in one period of `duplex`'s pattern, and how many of them can
/// carry DL data (counted by walking real opportunities, so any TDD
/// pattern and FDD work).
pub fn dl_slots_per_period(duplex: &Duplex) -> (u64, u64) {
    let period_slots =
        (duplex.pattern_period().as_nanos() / duplex.slot_duration().as_nanos()).max(1);
    let mut dl_slots = 0;
    let mut op = duplex.next_dl_opportunity(Instant::ZERO);
    while op.slot < period_slots {
        dl_slots += 1;
        op = duplex.next_dl_opportunity(duplex.slot_start(op.slot + 1));
    }
    (period_slots, dl_slots)
}
