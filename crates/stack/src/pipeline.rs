//! The event-driven stage pipeline: the Fig 2/Fig 3 packet journey as
//! typed hops on one shared [`sim::EventQueue`].
//!
//! A **hop** is a named pipeline unit wrapping one layer operation — the
//! UE's SDAP/PDCP/RLC walk, the SR/grant exchange, a HARQ delivery cycle,
//! a radio-head crossing, the GTP-U/UPF backbone hop. Each [`PingEvent`]
//! variant is consumed by exactly one hop ([`PingEvent::hop`]), and
//! [`Walk::step`] is a single `match` that destructures the event and
//! calls that hop with only the payload fields it uses, so pairing a hop
//! with the wrong event cannot compile. A hop samples processing times,
//! encodes/decodes real PDUs, pushes its [`StageSpan`]s onto the ping's
//! trace, schedules its follow-up event(s) on the experiment's queue, and
//! returns a [`HopOutcome`]. The experiment driver
//! (`PingExperiment::one_ping`) pops events and steps the walk until the
//! ping completes, is lost, or detours through RRC recovery.
//!
//! **Faults** (`sim::faults`) are plain calls inside the dispatch arms,
//! where the fault process acts in the real system: a lost SR and a
//! withheld grant end their arm early, a backbone spike is drawn before
//! the N3 crossing, and a jitter storm is drawn where the gNB radio
//! receive and the DL preparation hand samples across the radio host.
//!
//! **Telemetry** span journaling lives in the driver, which flushes the
//! journey to the journal once per ping (UL side then DL side), so an
//! instrumented run and a dark run stay bit-identical.
//!
//! The pipeline is behavior-preserving by construction: every hop draws
//! from the same per-stream RNGs (`rng_ue`, `rng_gnb`, `rng_net`, the
//! fault injector's child streams) in the same per-stream order as the
//! seed monolithic walk, and every event fires at the instant the
//! monolith computed — the golden-equivalence suite in
//! `tests/golden_pipeline.rs` pins this span-for-span.

use bytes::Bytes;
use ran::sched::{AccessMode, UlGrant};
use ran::sr::{SrConfig, SrProcedure};
use ran::timing::LayerTimings;
use sim::{Dist, Duration, FaultKind, Instant, PingFaultTrace, StreamingStats};
use telemetry::JournalEvent;

use crate::config::DlPullPoint;
use crate::experiment::{
    make_payload, ExperimentResult, LayerStats, PingExperiment, RlfEvent, MAX_SCHED_ROUNDS, RNTI,
    UE_ADDR,
};
use crate::journey::{PingTrace, StageSpan};
use crate::stage_labels as labels;

/// One event in a ping's walk. Each variant is consumed by exactly one
/// hop (see [`PingEvent::hop`]); the payload carries what the *next* hop
/// needs and nothing more — everything else lives in [`PingCtx`].
#[derive(Debug, Clone, Copy)]
pub enum PingEvent {
    /// The application emits the request at `t0`.
    Arrival,
    /// The packet reached the UE RLC queue; decide how to get on the air.
    UlAccess,
    /// Probe for the next UL opportunity to carry an SR (grant-based).
    SrTx {
        /// Where to start looking for the opportunity.
        probe: Instant,
    },
    /// An SR transmission left the UE antenna.
    SrOnAir {
        /// Slot carrying the SR.
        slot: u64,
        /// When the PUCCH transmission started.
        tx_start: Instant,
    },
    /// The gNB MAC knows about the UE's buffer (SR decoded, or RACH Msg3
    /// carried the buffer status).
    SrReady,
    /// A scheduling round at a slot boundary (uplink).
    SchedRound {
        /// The boundary slot being scheduled.
        slot: u64,
    },
    /// The scheduler issued an UL grant.
    GrantIssued {
        /// The grant.
        grant: UlGrant,
        /// The slot whose boundary produced the decision.
        decision_slot: u64,
    },
    /// UL samples are ready at the UE PHY; transmit at the next reachable
    /// (or granted) opportunity.
    UlTxReady {
        /// The granted slot pinning the resources, if any.
        granted_slot: Option<u64>,
    },
    /// A transport block finished its air time; play HARQ/RLC delivery.
    AirDeliver,
    /// Radio link failure declared: run the RRC re-establishment detour.
    RlfDetour,
    /// The block got through; the gNB radio head receives it.
    GnbRx,
    /// Samples are at the gNB host; walk PHY→MAC→RLC→PDCP→SDAP up.
    GnbWalk,
    /// Cross the N3 backbone (GTP-U/UPF), in the given direction.
    Backbone {
        /// `true` for the reply's trip back to the gNB.
        dl: bool,
    },
    /// The reply reached the gNB; walk SDAP→PDCP→RLC down into the queue.
    DlWalkDown,
    /// A scheduling round at a slot boundary (downlink).
    DlSched {
        /// The boundary slot being scheduled.
        slot: u64,
    },
    /// The DL transport block is pulled from RLC; MAC/PHY prepare it.
    DlPrepare {
        /// The assigned air time.
        dl_tx: Instant,
    },
    /// DL samples arrive at the radio-head TX ring.
    RingSubmit {
        /// The assigned air time.
        dl_tx: Instant,
        /// Jitter-storm stall that delayed this submission (zero when
        /// none); the ring charges whatever the missed slot costs.
        storm: Duration,
    },
    /// The DL block got through; the UE receives and walks it up.
    UeRx,
}

/// Names of the pipeline units, in journey order — the profiler's stage
/// keys (`profile.csv` rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HopId {
    /// UE application → RLC queue (①, `APP↓`).
    AppDown,
    /// Access-mode fork: grant-free MAC prep vs SR trigger.
    UlAccess,
    /// SR opportunity probe / RACH fallback (②).
    SrTx,
    /// gNB decodes the SR (PHY + MAC), behind the SR-loss gate.
    SrDecode,
    /// Buffer status reaches the scheduler; first boundary is booked.
    UlSchedRequest,
    /// One UL scheduling round per slot boundary (③–④).
    UlSched,
    /// UE decodes the grant DCI and prepares (⑤), behind the
    /// withheld-grant gate.
    GrantRx,
    /// UL data transmission in the granted/next opportunity (⑥).
    UlTx,
    /// HARQ + RLC AM delivery of a transport block (either direction).
    HarqDelivery,
    /// RRC re-establishment detour after RLF.
    RlfRecovery,
    /// gNB radio-head RX crossing (⑦), stretched by jitter storms.
    GnbRadio,
    /// gNB PHY→SDAP uplink walk + byte-exact decode (⑦).
    GnbWalkUp,
    /// N3 backbone crossing under path supervision, plus backbone spikes.
    Backbone,
    /// gNB SDAP→RLC downlink walk (⑧).
    DlWalkDown,
    /// One DL scheduling round per slot boundary (⑨, ends `RLC-q`).
    DlSched,
    /// DL MAC/PHY preparation + radio submission (⑩), delayed by jitter
    /// storms.
    DlPrep,
    /// TX-ring deadline check and DL air time (⑩).
    RadioRing,
    /// UE receive walk up to the application (⑪, `PHY↑`).
    UeRxUp,
}

/// Number of hops in the ping journey.
pub const HOP_COUNT: usize = HopId::UeRxUp as usize + 1;

impl HopId {
    /// Every hop, in journey order (profiler coverage iterates this).
    pub const ALL: [HopId; HOP_COUNT] = [
        HopId::AppDown,
        HopId::UlAccess,
        HopId::SrTx,
        HopId::SrDecode,
        HopId::UlSchedRequest,
        HopId::UlSched,
        HopId::GrantRx,
        HopId::UlTx,
        HopId::HarqDelivery,
        HopId::RlfRecovery,
        HopId::GnbRadio,
        HopId::GnbWalkUp,
        HopId::Backbone,
        HopId::DlWalkDown,
        HopId::DlSched,
        HopId::DlPrep,
        HopId::RadioRing,
        HopId::UeRxUp,
    ];

    /// Stable snake-case name — the profiler's stage key and the
    /// `profile.csv` row identity.
    pub fn name(self) -> &'static str {
        match self {
            HopId::AppDown => "app_down",
            HopId::UlAccess => "ul_access",
            HopId::SrTx => "sr_tx",
            HopId::SrDecode => "sr_decode",
            HopId::UlSchedRequest => "ul_sched_request",
            HopId::UlSched => "ul_sched",
            HopId::GrantRx => "grant_rx",
            HopId::UlTx => "ul_tx",
            HopId::HarqDelivery => "harq_delivery",
            HopId::RlfRecovery => "rlf_recovery",
            HopId::GnbRadio => "gnb_radio",
            HopId::GnbWalkUp => "gnb_walk_up",
            HopId::Backbone => "backbone",
            HopId::DlWalkDown => "dl_walk_down",
            HopId::DlSched => "dl_sched",
            HopId::DlPrep => "dl_prep",
            HopId::RadioRing => "radio_ring",
            HopId::UeRxUp => "ue_rx_up",
        }
    }
}

impl PingEvent {
    /// The hop consuming this event.
    pub fn hop(&self) -> HopId {
        match self {
            PingEvent::Arrival => HopId::AppDown,
            PingEvent::UlAccess => HopId::UlAccess,
            PingEvent::SrTx { .. } => HopId::SrTx,
            PingEvent::SrOnAir { .. } => HopId::SrDecode,
            PingEvent::SrReady => HopId::UlSchedRequest,
            PingEvent::SchedRound { .. } => HopId::UlSched,
            PingEvent::GrantIssued { .. } => HopId::GrantRx,
            PingEvent::UlTxReady { .. } => HopId::UlTx,
            PingEvent::AirDeliver => HopId::HarqDelivery,
            PingEvent::RlfDetour => HopId::RlfRecovery,
            PingEvent::GnbRx => HopId::GnbRadio,
            PingEvent::GnbWalk => HopId::GnbWalkUp,
            PingEvent::Backbone { .. } => HopId::Backbone,
            PingEvent::DlWalkDown => HopId::DlWalkDown,
            PingEvent::DlSched { .. } => HopId::DlSched,
            PingEvent::DlPrepare { .. } => HopId::DlPrep,
            PingEvent::RingSubmit { .. } => HopId::RadioRing,
            PingEvent::UeRx => HopId::UeRxUp,
        }
    }
}

/// State of the transport-block delivery currently in flight (shared by
/// the UL and DL legs — [`HopId::HarqDelivery`] and [`HopId::RlfRecovery`]
/// serve both).
#[derive(Debug, Default)]
pub(crate) struct DeliveryState {
    /// `true` while delivering the DL reply.
    pub dl: bool,
    /// Air time of one retransmission.
    pub air: Duration,
    /// Grant size a recovery re-encode must respect.
    pub grant_bytes: usize,
    /// `(span start, RLF instant)` of the recovery whose retransmission
    /// is in flight.
    pub pending: Option<(Instant, Instant)>,
    /// MAC PDUs rebuilt by PDCP data recovery (they replace the originals
    /// on the byte path: both RLC entities restarted their numbering).
    pub recovered: Option<Vec<Bytes>>,
}

/// Per-ping mutable state threaded through the walk. Hops communicate
/// forward through events; anything a *later* hop needs that does not fit
/// an event payload lives here.
pub struct PingCtx {
    pub(crate) id: u64,
    pub(crate) t0: Instant,
    pub(crate) trace: PingTrace,
    pub(crate) ftrace: PingFaultTrace,
    pub(crate) payload: Bytes,
    pub(crate) mac_pdus: Vec<Bytes>,
    pub(crate) ul_samples: usize,
    pub(crate) ue_phy: Duration,
    pub(crate) ue_submit: Duration,
    pub(crate) in_rlc: Instant,
    /// The UE's SR procedure (idle until a grant-based access triggers it).
    pub(crate) sr: SrProcedure,
    pub(crate) sr_ready: Instant,
    pub(crate) sched_rounds: u32,
    pub(crate) first_withheld: Option<Instant>,
    pub(crate) delivery: DeliveryState,
    pub(crate) dl_t0: Instant,
    pub(crate) reply: Bytes,
    pub(crate) dl_pdus: Vec<Bytes>,
    pub(crate) dl_samples: usize,
    pub(crate) in_rlc_q: Instant,
    pub(crate) dl_sched_rounds: u32,
}

impl PingCtx {
    pub(crate) fn new(id: u64, t0: Instant, sr: SrConfig) -> PingCtx {
        PingCtx {
            id,
            t0,
            trace: PingTrace::new(id),
            ftrace: PingFaultTrace::new(),
            payload: Bytes::new(),
            mac_pdus: Vec::new(),
            ul_samples: 0,
            ue_phy: Duration::ZERO,
            ue_submit: Duration::ZERO,
            in_rlc: t0,
            sr: SrProcedure::new(sr),
            sr_ready: t0,
            sched_rounds: 0,
            first_withheld: None,
            delivery: DeliveryState::default(),
            dl_t0: t0,
            reply: Bytes::new(),
            dl_pdus: Vec::new(),
            dl_samples: 0,
            in_rlc_q: t0,
            dl_sched_rounds: 0,
        }
    }
}

/// How a hop left the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// The walk continues with the events the hop scheduled.
    Continue,
    /// The ping is lost (attributed to the dominant fault by the driver).
    Lost,
    /// The ping completed (latency already recorded).
    Done,
}

/// One hop's view of the run: the experiment's layer entities, RNG
/// streams and event queue, the ping's state, and the run's accumulators.
pub(crate) struct Walk<'a> {
    pub(crate) exp: &'a mut PingExperiment,
    pub(crate) ctx: &'a mut PingCtx,
    pub(crate) result: &'a mut ExperimentResult,
}

impl Walk<'_> {
    /// Routes `ev`, fired at `at`, to the hop that consumes it; the fault
    /// gates run in the arms of the hops they perturb.
    pub(crate) fn step(&mut self, at: Instant, ev: PingEvent) -> HopOutcome {
        match ev {
            PingEvent::Arrival => self.app_down(at),
            PingEvent::UlAccess => self.ul_access(at),
            PingEvent::SrTx { probe } => self.sr_tx(probe),
            PingEvent::SrOnAir { slot, tx_start } => {
                if self.sr_lost(slot, tx_start) {
                    HopOutcome::Continue
                } else {
                    self.sr_decode(tx_start)
                }
            }
            PingEvent::SrReady => self.ul_sched_request(at),
            PingEvent::SchedRound { slot } => self.ul_sched(at, slot),
            PingEvent::GrantIssued { grant, decision_slot } => {
                if self.grant_withheld(grant) {
                    HopOutcome::Continue
                } else {
                    self.grant_rx(grant, decision_slot)
                }
            }
            PingEvent::UlTxReady { granted_slot } => self.ul_tx(at, granted_slot),
            PingEvent::AirDeliver => self.harq_delivery(at),
            PingEvent::RlfDetour => self.rlf_recovery(at),
            PingEvent::GnbRx => self.gnb_radio(at),
            PingEvent::GnbWalk => self.gnb_walk_up(at),
            PingEvent::Backbone { dl } => {
                let spike = self.backbone_spike(at);
                self.backbone(at, dl, spike)
            }
            PingEvent::DlWalkDown => self.dl_walk_down(at),
            PingEvent::DlSched { slot } => self.dl_sched(at, slot),
            PingEvent::DlPrepare { dl_tx } => self.dl_prep(at, dl_tx),
            PingEvent::RingSubmit { dl_tx, storm } => self.radio_ring(at, dl_tx, storm),
            PingEvent::UeRx => self.ue_rx_up(at),
        }
    }

    /// Schedules `ev` at `at`; the walk continues.
    fn then(&mut self, at: Instant, ev: PingEvent) -> HopOutcome {
        self.exp.events.push(at, ev);
        HopOutcome::Continue
    }

    /// Appends an uplink trace span.
    fn ul(&mut self, label: &'static str, start: Instant, end: Instant) {
        self.ctx.trace.ul.push(StageSpan::new(label, start, end));
    }

    /// Appends a downlink trace span.
    fn dl(&mut self, label: &'static str, start: Instant, end: Instant) {
        self.ctx.trace.dl.push(StageSpan::new(label, start, end));
    }

    /// Samples one gNB layer's processing time and books it in Table 2's
    /// per-layer statistics and under `<layer>/proc_us`.
    fn gnb_proc(
        &mut self,
        layer: &'static str,
        which: fn(&LayerTimings) -> &Dist,
        stats: fn(&mut LayerStats) -> &mut StreamingStats,
    ) -> Duration {
        let d = self.exp.sample_gnb(which);
        stats(&mut self.result.layers).push(d.as_micros_f64());
        self.exp.tel.record(layer, "proc_us", d);
        d
    }

    // -----------------------------------------------------------------
    // Uplink hops
    // -----------------------------------------------------------------

    /// ① `APP↓`: the UE walks the request down SDAP→PDCP→RLC and encodes
    /// the actual MAC PDU(s).
    fn app_down(&mut self, at: Instant) -> HopOutcome {
        // Pings are spaced far apart: a connection that survived to the
        // next ping has been stable long enough for the re-establishment
        // counters to clear, so the budget bounds one incident chain.
        self.exp.rrc.reset_budget();
        self.ctx.payload = make_payload(self.ctx.id, self.exp.config.payload_bytes);
        let exp = &mut *self.exp;
        let ue_upper =
            exp.sample_ue(|t| &t.sdap) + exp.sample_ue(|t| &t.pdcp) + exp.sample_ue(|t| &t.rlc);
        let in_rlc = at + ue_upper;
        self.ul(labels::APP_DOWN, at, in_rlc);
        // Build the actual MAC PDU(s) now (content is time-independent).
        // `grant_bytes()` sizes the UL grant for the configured payload
        // plus PDCP/RLC/MAC headers; a payload no grant can carry is lost.
        let grant_bytes = self.exp.config.grant_bytes();
        let Ok(mac_pdus) = self.exp.ue.encode_uplink(&self.ctx.payload, grant_bytes) else {
            self.result.integrity_failures += 1;
            return HopOutcome::Lost;
        };
        self.ctx.ul_samples = self.exp.ue.phy_sample_count(mac_pdus[0].len());
        self.ctx.mac_pdus = mac_pdus;
        self.ctx.in_rlc = in_rlc;
        self.then(in_rlc, PingEvent::UlAccess)
    }

    /// ② Access fork. The UE MAC/PHY preparation is pipelined with the
    /// protocol waits — the modem builds the transport block while waiting
    /// for its slot, so both draws happen here.
    fn ul_access(&mut self, at: Instant) -> HopOutcome {
        let exp = &mut *self.exp;
        self.ctx.ue_phy = exp.sample_ue(|t| &t.phy);
        self.ctx.ue_submit =
            exp.ue_radio.tx_radio_latency(self.ctx.ul_samples as u64, &mut exp.rng_ue);
        match exp.config.access {
            AccessMode::GrantFree => {
                // UE MAC prepares the transmission directly.
                let mac_t = exp.sample_ue(|t| &t.mac);
                let ready = at + mac_t + self.ctx.ue_phy;
                self.then(ready, PingEvent::UlTxReady { granted_slot: None })
            }
            AccessMode::GrantBased => {
                self.ctx.sr.trigger(at);
                self.then(at, PingEvent::SrTx { probe: at })
            }
        }
    }

    /// ② SR transmission probe: the SR transmits at UL opportunities until
    /// the gNB hears one; sr-TransMax exhaustion falls back to the
    /// four-step RACH (TS 38.321 §5.4.4), whose Msg3 carries the buffer
    /// status.
    fn sr_tx(&mut self, probe: Instant) -> HopOutcome {
        let sr_op = self.exp.timing.next_ul_opportunity(probe);
        if self.ctx.sr.maybe_transmit(sr_op.slot, sr_op.tx_start) {
            let tx_start = sr_op.tx_start;
            return self.then(tx_start, PingEvent::SrOnAir { slot: sr_op.slot, tx_start });
        }
        if !self.ctx.sr.needs_rach() {
            let next = self.exp.timing.slot_start(sr_op.slot + 1);
            return self.then(next, PingEvent::SrTx { probe: next });
        }
        let giving_up = sr_op.tx_start;
        let rach_cfg = self.exp.config.rach;
        let Some(lat) =
            ran::rach::recovery_latency(&rach_cfg, giving_up, 1, self.exp.injector.recovery_rng())
        else {
            // Random access failed too: the UE never regains uplink
            // access for this packet.
            return HopOutcome::Lost;
        };
        self.result.rach_recoveries += 1;
        self.exp.tel.count("mac", "rach_recoveries", 1);
        self.ctx.ftrace.record(FaultKind::SrLoss, lat);
        self.ul(labels::RACH, giving_up, giving_up + lat);
        self.ctx.sr.on_rach_complete();
        self.then(giving_up + lat, PingEvent::SrReady)
    }

    /// SR-loss gate: an injected PUCCH loss costs one opportunity per
    /// retry, re-entering the probe loop. Returns whether the SR was lost.
    fn sr_lost(&mut self, slot: u64, tx_start: Instant) -> bool {
        let lost = self.exp.injector.sr_lost();
        if lost {
            let probe = self.exp.timing.slot_start(slot + 1);
            let next = self.exp.timing.next_ul_opportunity(probe);
            self.ctx.ftrace.record(FaultKind::SrLoss, next.tx_start - tx_start);
            self.result.sr_retx += 1;
            self.exp.tel.count("mac", "sr_retx", 1);
            self.exp.events.push(probe, PingEvent::SrTx { probe });
        }
        self.exp.tel.journal(JournalEvent::SrAttempt { ping: self.ctx.id, at: tx_start, lost });
        lost
    }

    /// ② The gNB decodes a heard SR: one-symbol PUCCH air time, then PHY +
    /// MAC processing.
    fn sr_decode(&mut self, tx_start: Instant) -> HopOutcome {
        let sr_air = self.exp.config.duplex.numerology().symbol_offset(1); // one-symbol PUCCH SR
        let sr_rx = tx_start + sr_air;
        self.ul(labels::WAIT_UL_SLOT, self.ctx.in_rlc, tx_start);
        self.ul(labels::SR, tx_start, sr_rx);
        let d_phy = self.gnb_proc("phy", |t| &t.phy, |s| &mut s.phy);
        let d_mac = self.gnb_proc("mac", |t| &t.mac, |s| &mut s.mac);
        let ready = sr_rx + d_phy + d_mac;
        self.ul(labels::SR_DECODE, sr_rx, ready);
        self.then(ready, PingEvent::SrReady)
    }

    /// ③ The buffer status reaches the scheduler; scheduling happens once
    /// per slot, so the first round is booked at the next boundary.
    fn ul_sched_request(&mut self, at: Instant) -> HopOutcome {
        self.ctx.sr_ready = at;
        self.exp.sched.on_sr(RNTI, at);
        let boundary = self.exp.timing.slot_index_at(at) + 1;
        self.then(self.exp.timing.slot_start(boundary), PingEvent::SchedRound { slot: boundary })
    }

    /// ④ One scheduling round per slot boundary, bounded by
    /// [`MAX_SCHED_ROUNDS`] — a ping that cannot be scheduled within the
    /// budget is starved out and lost.
    fn ul_sched(&mut self, at: Instant, slot: u64) -> HopOutcome {
        let ctx = &mut *self.ctx;
        if ctx.sched_rounds == MAX_SCHED_ROUNDS {
            // Starved out of the scheduler entirely. `at` is this round's
            // never-run boundary.
            let since = ctx.first_withheld.unwrap_or(ctx.sr_ready);
            ctx.ftrace.record(FaultKind::GrantWithheld, at - since);
            return HopOutcome::Lost;
        }
        ctx.sched_rounds += 1;
        let decision = self.exp.sched.run_slot(slot);
        match decision.ul_grants.first().copied() {
            Some(grant) => {
                self.then(grant.grant_tx, PingEvent::GrantIssued { grant, decision_slot: slot })
            }
            None => self.then(
                self.exp.timing.slot_start(slot + 1),
                PingEvent::SchedRound { slot: slot + 1 },
            ),
        }
    }

    /// Withheld-grant gate: injected starvation is a DCI the UE never
    /// decodes; the gNB re-grants once the slot goes unused. Returns
    /// whether the grant was withheld.
    fn grant_withheld(&mut self, grant: UlGrant) -> bool {
        if !self.exp.injector.grant_withheld() {
            return false;
        }
        self.result.grants_withheld += 1;
        let exp = &mut *self.exp;
        exp.tel.count("mac", "grants_withheld", 1);
        exp.tel.journal(JournalEvent::FaultInjected {
            kind: FaultKind::GrantWithheld,
            at: grant.grant_tx,
            extra: Duration::ZERO,
        });
        self.ctx.first_withheld = self.ctx.first_withheld.or(Some(grant.grant_tx));
        let retry = exp.timing.slot_start(grant.ul.slot + 1);
        exp.sched.on_sr(RNTI, retry);
        let boundary = exp.timing.slot_index_at(retry) + 1;
        exp.events.push(exp.timing.slot_start(boundary), PingEvent::SchedRound { slot: boundary });
        true
    }

    /// ⑤ The UE decodes the grant DCI (two-symbol CORESET) and prepares the
    /// transmission (MAC + the pipelined PHY).
    fn grant_rx(&mut self, grant: UlGrant, decision_slot: u64) -> HopOutcome {
        if let Some(first) = self.ctx.first_withheld {
            self.ctx.ftrace.record(FaultKind::GrantWithheld, grant.grant_tx - first);
        }
        self.ul(labels::SCHE, self.ctx.sr_ready, self.exp.timing.slot_start(decision_slot));
        let dci_air = self.exp.config.duplex.numerology().symbol_offset(2); // two-symbol CORESET
        let grant_rx = grant.grant_tx + dci_air;
        let bytes = self.exp.config.grant_bytes();
        self.exp.tel.journal(JournalEvent::Grant { ping: self.ctx.id, at: grant_rx, bytes });
        self.ul(labels::UL_GRANT, grant.grant_tx, grant_rx);
        let prep = self.exp.sample_ue(|t| &t.mac);
        let ue_ready = grant_rx + prep + self.ctx.ue_phy;
        self.ul(labels::UE_PREP, grant_rx, ue_ready);
        self.then(ue_ready, PingEvent::UlTxReady { granted_slot: Some(grant.ul.slot) })
    }

    /// ⑥ UL data transmission in the granted/next reachable opportunity.
    fn ul_tx(&mut self, at: Instant, granted_slot: Option<u64>) -> HopOutcome {
        let exp = &mut *self.exp;
        let tx_start =
            exp.ul_tx_start(at, self.ctx.ue_submit, granted_slot, &mut self.result.missed_grants);
        let air = exp.config.data_air_time(self.ctx.mac_pdus[0].len());
        let grant_bytes = exp.config.grant_bytes();
        let tx_end = tx_start + air;
        self.ul(labels::WAIT_UL_SLOT, at.min(tx_start), tx_start);
        self.ul(labels::UL_DATA, tx_start, tx_end);
        self.ctx.delivery =
            DeliveryState { dl: false, air, grant_bytes, pending: None, recovered: None };
        self.then(tx_end, PingEvent::AirDeliver)
    }

    // -----------------------------------------------------------------
    // Delivery + recovery hops (shared by both legs)
    // -----------------------------------------------------------------

    /// HARQ/RLC delivery of the transport block whose air time just ended.
    /// Channel loss first costs HARQ rounds (§8's retransmission steps),
    /// then RLC AM escalations, then — with every budget exhausted — radio
    /// link failure, which detours through [`Walk::rlf_recovery`].
    fn harq_delivery(&mut self, at: Instant) -> HopOutcome {
        let Walk { exp, ctx, result } = self;
        let dl = ctx.delivery.dl;
        let spans = if dl { &mut ctx.trace.dl } else { &mut ctx.trace.ul };
        match exp.data_delivery(dl, at, result, &mut ctx.ftrace) {
            Ok(extra) => {
                let done = at + extra;
                if let Some((span_start, failed_at)) = ctx.delivery.pending.take() {
                    // The recovered retransmission got through: close the
                    // recovery's ledger at the delivery instant.
                    spans.push(StageSpan::new(labels::PDCP_RECOVER, span_start, done));
                    result.recovery.record(done - failed_at);
                    if let Some(kind) = ctx.ftrace.dominant() {
                        ctx.ftrace.record(kind, done - failed_at);
                    }
                }
                exp.events.push(done, if dl { PingEvent::UeRx } else { PingEvent::GnbRx });
            }
            Err(wasted) => {
                let failed_at = at + wasted;
                if let Some((span_start, prev_failed)) = ctx.delivery.pending.take() {
                    // The retried block died too: close the previous
                    // recovery's ledger at this new failure.
                    spans.push(StageSpan::new(labels::PDCP_RECOVER, span_start, failed_at));
                    result.recovery.record(failed_at - prev_failed);
                }
                let dominant = ctx.ftrace.dominant();
                result.rlf.push(RlfEvent { ping: ctx.id, dl, dominant, recovered: false });
                exp.tel.journal(JournalEvent::Rlf { ping: ctx.id, dl, at: failed_at });
                exp.events.push(failed_at, PingEvent::RlfDetour);
            }
        }
        HopOutcome::Continue
    }

    /// The RRC re-establishment detour: detect → RACH re-access → RRC
    /// processing → PDCP data recovery, then the recovered block is retried
    /// over the fresh link (back through [`Walk::harq_delivery`]).
    fn rlf_recovery(&mut self, at: Instant) -> HopOutcome {
        let Walk { exp, ctx, result } = self;
        let dl = ctx.delivery.dl;
        // Detour spans accrue on both outcomes (a failed data recovery
        // still shows the detect/RACH/reestablish legs it burned).
        let spans = if dl { &mut ctx.trace.dl } else { &mut ctx.trace.ul };
        let Some((resume, span_start, pdus)) =
            exp.recover_rlf(dl, at, ctx.delivery.grant_bytes, spans, result)
        else {
            return HopOutcome::Lost;
        };
        if let Some(ev) = result.rlf.last_mut() {
            ev.recovered = true;
        }
        ctx.delivery.recovered = Some(pdus);
        ctx.delivery.pending = Some((span_start, at));
        self.then(resume + self.ctx.delivery.air, PingEvent::AirDeliver)
    }

    // -----------------------------------------------------------------
    // gNB receive + backbone hops
    // -----------------------------------------------------------------

    /// Jitter-storm gate: draws the fronthaul OS-jitter stall for samples
    /// crossing the radio host, due at `due` without it.
    fn storm(&mut self, due: Instant) -> Duration {
        let storm = self.exp.injector.storm_delay();
        if storm > Duration::ZERO {
            self.exp.tel.record("radio", "storm_us", storm);
            self.exp.tel.journal(JournalEvent::FaultInjected {
                kind: FaultKind::JitterStorm,
                at: due + storm,
                extra: storm,
            });
        }
        storm
    }

    /// ⑦ The gNB radio head receives the UL samples. A jitter storm
    /// lengthens the `Radio` span and is charged to the ping immediately.
    fn gnb_radio(&mut self, at: Instant) -> HopOutcome {
        let exp = &mut *self.exp;
        let rx_radio = exp.gnb_radio.rx_radio_latency(self.ctx.ul_samples as u64, &mut exp.rng_gnb);
        let storm = self.storm(at + rx_radio);
        if storm > Duration::ZERO {
            self.ctx.ftrace.record(FaultKind::JitterStorm, storm);
        }
        let host_rx = at + rx_radio + storm;
        self.ul(labels::RADIO, at, host_rx);
        self.then(host_rx, PingEvent::GnbWalk)
    }

    /// ⑦ The gNB walks the packet up PHY→MAC→RLC→PDCP→SDAP and decodes the
    /// actual bytes (through PHY samples), checking byte-exact delivery.
    fn gnb_walk_up(&mut self, at: Instant) -> HopOutcome {
        let decoded_at = at
            + self.gnb_proc("phy", |t| &t.phy, |s| &mut s.phy)
            + self.gnb_proc("mac", |t| &t.mac, |s| &mut s.mac)
            + self.gnb_proc("rlc", |t| &t.rlc, |s| &mut s.rlc)
            + self.gnb_proc("pdcp", |t| &t.pdcp, |s| &mut s.pdcp)
            + self.gnb_proc("sdap", |t| &t.sdap, |s| &mut s.sdap);
        self.ul(labels::MAC_UP, at, decoded_at);
        let Walk { exp, ctx, result } = self;
        // After a recovery, both RLC entities restarted their numbering
        // and the in-flight SDU was PDCP-retransmitted: the recovered MAC
        // PDUs are what actually crossed the air.
        let mac_pdus =
            ctx.delivery.recovered.take().unwrap_or_else(|| std::mem::take(&mut ctx.mac_pdus));
        let air_samples = exp.ue.phy_encode(&mac_pdus[0]);
        let decoded = exp
            .gnb
            .phy_decode(RNTI, &air_samples)
            .ok()
            .and_then(|pdu| exp.gnb.decode_uplink(RNTI, &pdu).ok());
        let mut delivered_ok = matches!(&decoded, Some(v) if v.first() == Some(&ctx.payload));
        // Push any remaining segments through (tiny grants).
        if !delivered_ok {
            if let Some(mut got) = decoded {
                for extra in &mac_pdus[1..] {
                    let s = exp.ue.phy_encode(extra);
                    if let Ok(pdu) = exp.gnb.phy_decode(RNTI, &s) {
                        if let Ok(more) = exp.gnb.decode_uplink(RNTI, &pdu) {
                            got.extend(more);
                        }
                    }
                }
                delivered_ok = got.first() == Some(&ctx.payload);
            }
        }
        if !delivered_ok {
            result.integrity_failures += 1;
        }
        self.then(decoded_at, PingEvent::Backbone { dl: false })
    }

    /// Backbone-spike gate: a latency spike on the transport network, drawn
    /// before the N3 crossing it rides on.
    fn backbone_spike(&mut self, at: Instant) -> Duration {
        let spike = self.exp.injector.backbone_spike();
        if spike > Duration::ZERO {
            self.ctx.ftrace.record(FaultKind::BackboneSpike, spike);
            self.exp.tel.journal(JournalEvent::FaultInjected {
                kind: FaultKind::BackboneSpike,
                at,
                extra: spike,
            });
        }
        spike
    }

    /// ⑦/⑧ One N3 traversal under GTP-U path supervision — the UL leg ends
    /// the request (the server replies immediately), the DL leg carries the
    /// reply back to the gNB.
    fn backbone(&mut self, at: Instant, dl: bool, spike: Duration) -> HopOutcome {
        let net = self.exp.backbone_traverse(at, self.result, &mut self.ctx.ftrace) + spike;
        if dl {
            self.ctx.dl_t0 = at;
            return self.then(at + net, PingEvent::DlWalkDown);
        }
        let ul_done = at + net;
        self.ul(labels::UPF, at, ul_done);
        self.result.ul.record(ul_done - self.ctx.t0);
        self.then(ul_done, PingEvent::Backbone { dl: true })
    }

    // -----------------------------------------------------------------
    // Downlink hops
    // -----------------------------------------------------------------

    /// ⑧ The reply reaches the gNB and walks down SDAP→PDCP→RLC into the
    /// queue; the DL MAC PDU(s) are encoded and the scheduler learns of the
    /// data.
    fn dl_walk_down(&mut self, at: Instant) -> HopOutcome {
        let in_rlc_q = at
            + self.gnb_proc("sdap", |t| &t.sdap, |s| &mut s.sdap)
            + self.gnb_proc("pdcp", |t| &t.pdcp, |s| &mut s.pdcp)
            + self.gnb_proc("rlc", |t| &t.rlc, |s| &mut s.rlc);
        self.dl(labels::SDAP_DOWN, at, in_rlc_q);
        self.ctx.reply =
            make_payload(self.ctx.id | 0x8000_0000_0000_0000, self.exp.config.payload_bytes);
        // A reply beyond the GTP-U transport MTU never leaves the core:
        // the encode fails and the ping is lost.
        let cap = self.exp.config.slot_capacity_bytes();
        let Ok((_rnti, dl_pdus)) = self.exp.gnb.encode_downlink(UE_ADDR, &self.ctx.reply, cap)
        else {
            self.result.integrity_failures += 1;
            return HopOutcome::Lost;
        };
        self.ctx.dl_samples = phy::transport::sample_count(
            phy::transport::ShChConfig { modulation: phy::modulation::Modulation::Qpsk, c_init: 0 },
            dl_pdus[0].len(),
        );
        self.exp.sched.on_dl_data(RNTI, dl_pdus[0].len(), in_rlc_q);
        self.ctx.dl_pdus = dl_pdus;
        self.ctx.in_rlc_q = in_rlc_q;
        let boundary = self.exp.timing.slot_index_at(in_rlc_q) + 1;
        self.then(self.exp.timing.slot_start(boundary), PingEvent::DlSched { slot: boundary })
    }

    /// ⑨ One DL scheduling round per slot boundary. The MAC pulls the data
    /// from the RLC queue when it builds the transport block (the
    /// configured [`DlPullPoint`]) — that pull instant ends the Table 2
    /// "RLC-q" interval.
    fn dl_sched(&mut self, at: Instant, slot: u64) -> HopOutcome {
        if self.ctx.dl_sched_rounds == MAX_SCHED_ROUNDS {
            // The scheduler never served the reply: the ping is lost.
            return HopOutcome::Lost;
        }
        self.ctx.dl_sched_rounds += 1;
        let exp = &mut *self.exp;
        let decision = exp.sched.run_slot(slot);
        let Some(assign) = decision.dl_assignments.first().copied() else {
            let next = exp.timing.slot_start(slot + 1);
            return self.then(next, PingEvent::DlSched { slot: slot + 1 });
        };
        let dl_tx = assign.dl.tx_start;
        let decision_time = at; // == slot_start(slot): this round's boundary
        let tb_build = match exp.config.dl_pull {
            DlPullPoint::AtDecision => decision_time,
            DlPullPoint::SlotsBeforeAir(slots) => decision_time
                .max(dl_tx.saturating_sub(exp.config.duplex.slot_duration().saturating_mul(slots))),
        };
        let queued = tb_build - self.ctx.in_rlc_q;
        self.result.layers.rlcq.push(queued.as_micros_f64());
        exp.tel.record("rlc", "queue_us", queued);
        self.dl(labels::RLC_Q, self.ctx.in_rlc_q, tb_build);
        self.then(tb_build, PingEvent::DlPrepare { dl_tx })
    }

    /// ⑩ DL MAC/PHY prepare the slot and submit samples to the radio; they
    /// must beat the air time (§4's margin, §6's reliability risk). A
    /// jitter storm delays the submission, and [`Walk::radio_ring`]
    /// charges whatever the missed slot actually costs.
    fn dl_prep(&mut self, at: Instant, dl_tx: Instant) -> HopOutcome {
        let d_mac = self.gnb_proc("mac", |t| &t.mac, |s| &mut s.mac);
        let d_phy = self.gnb_proc("phy", |t| &t.phy, |s| &mut s.phy);
        let exp = &mut *self.exp;
        let submit = exp.gnb_radio.tx_radio_latency(self.ctx.dl_samples as u64, &mut exp.rng_gnb);
        let due = at + d_mac + d_phy + submit;
        let storm = self.storm(due);
        self.then(due + storm, PingEvent::RingSubmit { dl_tx, storm })
    }

    /// ⑩ The TX ring checks the deadline: on-time samples fly in the
    /// assigned slot; an underrun corrupts it and the block retransmits at
    /// the next DL opportunity the samples can make.
    fn radio_ring(&mut self, at: Instant, dl_tx: Instant, storm: Duration) -> HopOutcome {
        let exp = &mut *self.exp;
        let dl_tx = if exp.ring.submit(at, dl_tx).is_on_time() {
            if storm > Duration::ZERO {
                self.ctx.ftrace.record(FaultKind::JitterStorm, Duration::ZERO);
            }
            dl_tx
        } else {
            let retry = exp.timing.next_dl_opportunity(at).tx_start;
            if storm > Duration::ZERO {
                self.ctx.ftrace.record(FaultKind::JitterStorm, retry - dl_tx);
            }
            retry
        };
        let air = exp.config.data_air_time(self.ctx.dl_pdus[0].len());
        let grant_bytes = exp.config.slot_capacity_bytes();
        self.dl(labels::DL_DATA, dl_tx, dl_tx + air);
        self.ctx.delivery =
            DeliveryState { dl: true, air, grant_bytes, pending: None, recovered: None };
        self.then(dl_tx + air, PingEvent::AirDeliver)
    }

    /// ⑪ The UE receives the reply, walks it up radio→PHY→RLC→PDCP→SDAP
    /// and decodes the actual bytes; the ping's latencies are recorded
    /// here.
    fn ue_rx_up(&mut self, at: Instant) -> HopOutcome {
        let Walk { exp, ctx, result } = self;
        let ue_rx_radio = exp.ue_radio.rx_radio_latency(ctx.dl_samples as u64, &mut exp.rng_ue);
        let ue_phy = exp.sample_ue(|t| &t.phy);
        let ue_upper =
            exp.sample_ue(|t| &t.rlc) + exp.sample_ue(|t| &t.pdcp) + exp.sample_ue(|t| &t.sdap);
        let delivered = at + ue_rx_radio + ue_phy + ue_upper;
        ctx.trace.dl.push(StageSpan::new(labels::PHY_UP, at, delivered));
        // Decode the actual bytes (the recovered PDUs when an RLF detour
        // re-established the bearer mid-reply).
        let dl_pdus =
            ctx.delivery.recovered.take().unwrap_or_else(|| std::mem::take(&mut ctx.dl_pdus));
        let air_samples = exp.gnb.phy_encode(RNTI, &dl_pdus[0]);
        let got =
            exp.ue.phy_decode(&air_samples).ok().and_then(|pdu| exp.ue.decode_downlink(&pdu).ok());
        let mut ok = matches!(&got, Some(v) if v.first() == Some(&ctx.reply));
        if !ok {
            if let Some(mut v) = got {
                for extra in &dl_pdus[1..] {
                    let s = exp.gnb.phy_encode(RNTI, extra);
                    if let Ok(pdu) = exp.ue.phy_decode(&s) {
                        if let Ok(more) = exp.ue.decode_downlink(&pdu) {
                            v.extend(more);
                        }
                    }
                }
                ok = v.first() == Some(&ctx.reply);
            }
        }
        if !ok {
            result.integrity_failures += 1;
        }
        result.dl.record(delivered - ctx.dl_t0);
        let rtt = delivered - ctx.t0;
        result.rtt.record(rtt);
        result.attribution.record_delivered(rtt <= exp.config.deadline, ctx.ftrace.dominant());
        HopOutcome::Done
    }
}
