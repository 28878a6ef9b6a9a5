//! Multi-UE uplink scalability — the paper's §9 open problem, as an
//! experiment.
//!
//! §5 establishes that grant-free access is the low-latency choice but
//! "cannot scale to many UEs as these pre-allocated resources are limited
//! and can be wasted if there are no uplink packets"; §9 asks how latency
//! behaves as the UE population grows. This module simulates `n` UEs
//! sharing one cell's uplink:
//!
//! * **Grant-free**: every UE owns a share of each UL opportunity. Once
//!   the per-slot capacity is exhausted (`n · grant > capacity`), UEs are
//!   rotated across opportunities round-robin, multiplying their access
//!   period — latency grows in capacity-quantised steps. Opportunities a
//!   UE owns but does not use are *wasted* (the §5 cost).
//! * **Grant-based**: SRs are one bit and effectively never contend, but
//!   the granted data transmissions share the same slot capacity, and the
//!   per-round scheduler work grows with the attached population (§7:
//!   "higher number of UEs might increase the processing times
//!   noticeably").
//!
//! Grant-based runs on the [`cell`] driver (one scheduler for the whole
//! population, every slot); grant-free needs no event loop at all, since
//! each arrival's latency depends only on its own UE.

use ran::sched::{AccessMode, Rnti, Scheduler};
use serde::Serialize;
use sim::{Dist, Duration, Instant, Recording, SimRng};
use telemetry::Profiler;

use crate::cell::{self, CellModel, Ledger, SlotClock, Source, UNBOUNDED};
use crate::config::StackConfig;
use crate::node::StackError;

/// UEs per sub-shard when a grant-free population point is split across
/// workers (mirrors `BATCH_PINGS` for ping batches): big enough to
/// amortise per-shard setup, small enough that one 256-UE point becomes
/// several units of work instead of one wall-time-dominating shard.
const SUB_SHARD_UES: usize = 64;

/// Configuration of the scalability experiment.
#[derive(Debug, Clone)]
pub struct MultiUeConfig {
    /// The single-UE system configuration to scale.
    pub base: StackConfig,
    /// Number of attached UEs.
    pub n_ues: usize,
    /// Mean interval between uplink packets per UE (Poisson).
    pub mean_interval: Duration,
    /// Packets per UE to simulate.
    pub packets_per_ue: u64,
    /// Fractional growth of gNB scheduling/decoding work per attached UE
    /// (0.01 = +1 % per UE).
    pub sched_scaling_per_ue: f64,
}

impl MultiUeConfig {
    /// A testbed-based scalability setup.
    pub fn testbed(access: AccessMode, n_ues: usize) -> MultiUeConfig {
        MultiUeConfig {
            base: StackConfig::testbed_dddu(access, true),
            n_ues,
            mean_interval: Duration::from_millis(20),
            packets_per_ue: 60,
            sched_scaling_per_ue: 0.01,
        }
    }
}

/// Result of a scalability run.
#[derive(Debug, Clone, Serialize)]
pub struct MultiUeResult {
    /// UE population.
    pub n_ues: usize,
    /// One-way uplink latency across all UEs (arrival → decoded at gNB).
    /// Recorded fixed-memory ([`Recording::fixed`]): this is a scale path,
    /// and per-sample storage would grow with `n_ues × packets_per_ue`.
    pub ul: Recording,
    /// Grant-free only: fraction of owned transmission opportunities that
    /// carried no data (the wasted pre-allocation of §5).
    pub wasted_fraction: Option<f64>,
    /// Grant-free only: how many UL opportunities each UE must wait
    /// between its owned ones (1 = every opportunity).
    pub rotation_period: Option<u64>,
}

/// Runs the experiment. A configuration whose load cannot drain its own
/// scheduler (or whose opportunity rotation never cycles) surfaces as
/// [`StackError::Diverged`] instead of aborting the whole sweep.
pub fn run_multi_ue(config: &MultiUeConfig) -> Result<MultiUeResult, StackError> {
    Ok(finish(config, run_span(config, 0, config.n_ues)?))
}

/// UE `ue`'s Poisson uplink arrivals: a uniform random phase within one
/// mean interval, then `packets_per_ue` exponential gaps. The stream is
/// keyed by the UE's *global* index, so any partition of the population
/// draws the same arrivals.
fn ue_arrivals(config: &MultiUeConfig, rng: &SimRng, ue: usize) -> Result<Source, StackError> {
    let mut r = rng.stream_indexed("ue-arrivals", ue as u64);
    // Random phase so UEs are not synchronised.
    let phase = Dist::Uniform { lo: Duration::ZERO, hi: config.mean_interval }.sample(&mut r);
    Ok(Source::poisson(config.mean_interval, None, r, UNBOUNDED, "multi-UE arrivals")?
        .starting_at(Instant::ZERO + phase, config.packets_per_ue))
}

/// From UL transmission start to decoded at the gNB: the data's air time
/// plus the mean gNB-side decode (PHY..SDAP), inflated by the population.
fn air_and_decode(config: &MultiUeConfig) -> Duration {
    let decode = population_cost(config, config.base.gnb_timings.mean_total());
    config.base.data_air_time(config.base.payload_bytes + 32) + decode
}

/// `base` inflated by this config's population (§7).
fn population_cost(config: &MultiUeConfig, base: Duration) -> Duration {
    cell::inflate(base, config.sched_scaling_per_ue, config.n_ues as u64)
}

/// A result under construction for one UE range. Every field merges
/// commutatively (histogram buckets, a per-UE-keyed used count, a max), so
/// any partition of the population into spans reduces to the identical
/// [`MultiUeResult`].
struct Span {
    ul: Recording,
    /// Grant-free: distinct owned opportunities that carried data.
    used: u64,
    /// Grant-free: the last delivery.
    horizon: Instant,
}

impl Span {
    fn merge(&mut self, other: Span) {
        self.ul.merge(&other.ul);
        self.used += other.used;
        self.horizon = self.horizon.max(other.horizon);
    }
}

/// UEs `start..start + len` of the experiment. Grant-free walks them one
/// by one; grant-based shares one scheduler across the population, so it
/// always runs the whole of it.
fn run_span(config: &MultiUeConfig, start: usize, len: usize) -> Result<Span, StackError> {
    match config.base.access {
        AccessMode::GrantFree => grant_free_span(config, start, len),
        AccessMode::GrantBased => run_grant_based(config),
    }
}

/// Runs the grant-free experiment for UEs `ue_start..ue_start + ue_len`,
/// one UE after another. Each arrival's latency is a pure function of its
/// own arrival time and the (population-derived) rotation parameters — no
/// shared scheduler state — which is what makes the per-UE walk and the
/// per-span split sound.
fn grant_free_span(
    config: &MultiUeConfig,
    ue_start: usize,
    ue_len: usize,
) -> Result<Span, StackError> {
    let rng = SimRng::from_seed(config.base.seed);
    let duplex = &config.base.duplex;
    let rotation = rotation(config);

    // Mean UE-side prep (upper layers + MAC + PHY).
    let prep = config.base.ue_timings.mean_total();
    let air_decode = air_and_decode(config);
    let mut ul = Recording::fixed();
    let mut used = 0u64;
    let mut horizon = Instant::ZERO;

    for ue in ue_start..ue_start + ue_len {
        let residue = ue as u64 % rotation;
        // A UE's owned opportunities only move forward with its arrivals,
        // so counting ordinal changes counts the distinct ones it used.
        let mut last_used = None;
        for arrival in ue_arrivals(config, &rng, ue)? {
            let ready = arrival + prep;
            // The UE's owned opportunities are every `rotation`-th UL
            // opportunity, offset by its index.
            let mut op = duplex.next_ul_opportunity(ready);
            // Walk forward until the opportunity index matches the UE's turn.
            let mut guard = 0;
            while ul_op_ordinal(duplex, op.slot) % rotation != residue {
                op = duplex.next_ul_opportunity(duplex.slot_start(op.slot + 1));
                guard += 1;
                if guard >= 10_000 {
                    return Err(StackError::Diverged(format!(
                        "rotation search found no owned opportunity for ue {ue} \
                         (rotation {rotation}) within 10000 slots"
                    )));
                }
            }
            let done = op.tx_start + air_decode;
            ul.record(done - arrival);
            let ordinal = ul_op_ordinal(duplex, op.slot);
            if last_used != Some(ordinal) {
                last_used = Some(ordinal);
                used += 1;
            }
            horizon = horizon.max(done);
        }
    }
    Ok(Span { ul, used, horizon })
}

/// Assembles the result from the population's merged spans.
/// Rotation and waste are grant-free quantities.
fn finish(config: &MultiUeConfig, span: Span) -> MultiUeResult {
    let grant_free = config.base.access == AccessMode::GrantFree;
    let rotation = rotation(config);
    // Owned-but-unused opportunities: each UE owns one opportunity per
    // rotation period over the whole horizon.
    let duplex = &config.base.duplex;
    let total_ul_ops = ul_op_ordinal(duplex, duplex.slot_index_at(span.horizon));
    let owned_total = total_ul_ops / rotation * config.n_ues as u64;
    let wasted = owned_total.saturating_sub(span.used);
    MultiUeResult {
        n_ues: config.n_ues,
        ul: span.ul,
        // Nothing owned means nothing wasted: 0 / 1.
        wasted_fraction: grant_free.then(|| wasted as f64 / owned_total.max(1) as f64),
        rotation_period: grant_free.then_some(rotation),
    }
}

/// Grant-free rotation: how many UL opportunities pass between a UE's
/// owned ones once the population outgrows one opportunity's capacity.
fn rotation(config: &MultiUeConfig) -> u64 {
    let per_slot_ues = (config.base.slot_capacity_bytes() / config.base.grant_bytes()).max(1);
    config.n_ues.div_ceil(per_slot_ues).max(1) as u64
}

/// Ordinal of the UL opportunity carried by `slot` (how many UL-capable
/// slots precede it).
fn ul_op_ordinal(duplex: &phy::duplex::Duplex, slot: u64) -> u64 {
    match duplex {
        phy::duplex::Duplex::Fdd { .. } => slot,
        phy::duplex::Duplex::Tdd(c) => {
            let per = c.slots_per_period();
            let ul_per_period = (0..per).filter(|&s| c.slot_kind(s).has_ul()).count() as u64;
            let full = slot / per;
            let within = (0..(slot % per)).filter(|&s| c.slot_kind(s).has_ul()).count() as u64;
            full * ul_per_period + within
        }
    }
}

/// The grant-based experiment on the [`cell`] driver: each arrival sends
/// a one-bit SR in the next UL opportunity, the scheduler runs every slot,
/// and the ledger matches each grant to the UE's oldest waiting packet.
struct GrantBased {
    sched: Scheduler,
    ledger: Ledger,
    ul: Recording,
    prep: Duration,
    sr_decode: Duration,
    /// Data air time plus population-inflated gNB decode.
    air_decode: Duration,
}

impl CellModel for GrantBased {
    const CLOCK: SlotClock = SlotClock::EverySlot;

    fn on_arrival(&mut self, ue: usize, arrival: Instant) {
        // SR: one bit in the next UL opportunity (no contention).
        let duplex = &self.sched.config().duplex;
        let sr_op = duplex.next_ul_opportunity(arrival + self.prep);
        let sr_visible = sr_op.tx_start + duplex.numerology().symbol_offset(1) + self.sr_decode;
        self.ledger.push(ue as Rnti, arrival);
        self.sched.on_sr(ue as Rnti, sr_visible);
    }

    fn on_slot(&mut self, _now: Instant, slot: u64) -> Result<(), StackError> {
        for grant in self.sched.run_slot(slot).ul_grants {
            let arrival = self.ledger.pop(grant.rnti)?;
            self.ul.record(grant.ul.tx_start + self.air_decode - arrival);
        }
        Ok(())
    }

    fn work_left(&self) -> bool {
        !self.ledger.is_empty()
    }
}

fn run_grant_based(config: &MultiUeConfig) -> Result<Span, StackError> {
    let rng = SimRng::from_seed(config.base.seed);
    let mut sources =
        (0..config.n_ues).map(|ue| ue_arrivals(config, &rng, ue)).collect::<Result<Vec<_>, _>>()?;
    let mut model = GrantBased {
        sched: Scheduler::new(config.base.scheduler_config()),
        ledger: Ledger::default(),
        ul: Recording::fixed(),
        prep: config.base.ue_timings.mean_total(),
        // Scheduler work grows with the population: SR decode inflates too.
        sr_decode: population_cost(config, Duration::from_micros(100)),
        air_decode: air_and_decode(config),
    };
    cell::drive(&mut model, &mut sources, &config.base.duplex, UNBOUNDED, &Profiler::disabled())?;
    if !model.ledger.is_empty() {
        return Err(StackError::Diverged(format!(
            "scheduler still holds SRs 4096 TDD periods after the last arrival \
             ({} UEs over-saturate the cell)",
            config.n_ues
        )));
    }
    Ok(Span { ul: model.ul, used: 0, horizon: Instant::ZERO })
}

/// Sweeps the UE population, returning one result per point. The sweep is
/// bit-identical regardless of worker count. The first diverging point
/// fails the whole sweep (points are independent, so one divergence means
/// the configuration itself is bad, not the neighbours).
///
/// Sharding is two-level: grant-free points split into [`SUB_SHARD_UES`]
/// UE ranges (the way ping batches split into `BATCH_PINGS`), so the
/// largest population no longer occupies one worker for the whole sweep
/// while the rest idle. The split is sound because a grant-free arrival's
/// latency depends only on its own UE's stream and the population-derived
/// rotation — spans merge commutatively into the identical result.
/// Grant-based points stay whole: their scheduler state is shared across
/// every arrival of the run.
pub fn scalability_sweep(
    access: AccessMode,
    populations: &[usize],
    seed: u64,
) -> Result<Vec<MultiUeResult>, StackError> {
    let configs: Vec<MultiUeConfig> = populations
        .iter()
        .map(|&n| {
            let mut cfg = MultiUeConfig::testbed(access, n);
            cfg.base = cfg.base.with_seed(seed);
            cfg
        })
        .collect();
    let mut shards = Vec::new();
    for (point, &n) in populations.iter().enumerate() {
        let unit = if access == AccessMode::GrantFree { SUB_SHARD_UES } else { n.max(1) };
        for (start, len) in sim::parallel::shard_ranges(n as u64, unit as u64) {
            shards.push((point, start as usize, len as usize));
        }
    }
    let outs = sim::parallel::run_shards(shards.len(), |i| {
        let (point, start, len) = shards[i];
        run_span(&configs[point], start, len)
    });
    // Reduce in shard-index order; spans of one point are contiguous.
    let mut spans: Vec<Span> = configs
        .iter()
        .map(|_| Span { ul: Recording::fixed(), used: 0, horizon: Instant::ZERO })
        .collect();
    for (&(point, ..), out) in shards.iter().zip(outs) {
        spans[point].merge(out?);
    }
    Ok(configs.iter().zip(spans).map(|(cfg, span)| finish(cfg, span)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_free_latency_is_flat_then_grows() {
        let results =
            scalability_sweep(AccessMode::GrantFree, &[1, 4, 16, 64, 256], 1).expect("converges");
        let means: Vec<f64> = results
            .iter()
            .map(|r| {
                let mut rec = r.ul.clone();
                rec.summary().mean_us
            })
            .collect();
        // Few UEs: everyone fits each opportunity — statistically identical
        // latency (the difference is arrival-sampling noise).
        assert!((means[0] - means[1]).abs() < 250.0, "{means:?}");
        // Many UEs: rotation forces multi-period waits.
        assert!(means[4] > 2.0 * means[0], "{means:?}");
        // Rotation period reflects the capacity quantisation.
        assert_eq!(results[0].rotation_period, Some(1));
        assert!(results[4].rotation_period.unwrap() > 1);
    }

    #[test]
    fn grant_free_wastes_resources_at_low_load_and_rotates_at_high_load() {
        // §5's two costs, visible at the two ends of the sweep: with few
        // UEs most pre-allocated opportunities idle (waste); with many UEs
        // the rotation period grows (latency). You cannot win both.
        let results =
            scalability_sweep(AccessMode::GrantFree, &[1, 32, 128], 2).expect("converges");
        let waste: Vec<f64> = results.iter().map(|r| r.wasted_fraction.unwrap()).collect();
        assert!(waste[0] > 0.8, "sparse traffic should idle most allocations: {waste:?}");
        assert!(waste[0] > waste[2], "saturation uses up the pool: {waste:?}");
        assert!(results[2].rotation_period.unwrap() > 4 * results[0].rotation_period.unwrap());
    }

    #[test]
    fn grant_based_scales_more_gracefully_but_starts_higher() {
        // Compare within the stable-load region (the cell carries ~3.5
        // grants/ms; 48 UEs at one packet per 20 ms offer ~2.4/ms).
        let gf = scalability_sweep(AccessMode::GrantFree, &[1, 48], 3).expect("converges");
        let gb = scalability_sweep(AccessMode::GrantBased, &[1, 48], 3).expect("converges");
        let mean = |r: &MultiUeResult| {
            let mut rec = r.ul.clone();
            rec.summary().mean_us
        };
        // Single UE: grant-free is faster (no handshake).
        assert!(mean(&gf[0]) < mean(&gb[0]), "gf {} gb {}", mean(&gf[0]), mean(&gb[0]));
        // Large population: grant-free degrades far more than grant-based.
        let gf_growth = mean(&gf[1]) / mean(&gf[0]);
        let gb_growth = mean(&gb[1]) / mean(&gb[0]);
        assert!(
            gf_growth > 1.5 * gb_growth,
            "gf growth {gf_growth:.2} vs gb growth {gb_growth:.2}"
        );
    }

    #[test]
    fn all_packets_are_recorded() {
        let mut cfg = MultiUeConfig::testbed(AccessMode::GrantFree, 8);
        cfg.packets_per_ue = 20;
        let r = run_multi_ue(&cfg).expect("converges");
        assert_eq!(r.ul.count(), 8 * 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = scalability_sweep(AccessMode::GrantFree, &[16], 9).expect("converges");
        let b = scalability_sweep(AccessMode::GrantFree, &[16], 9).expect("converges");
        assert_eq!(a[0].wasted_fraction, b[0].wasted_fraction);
        let (mut ra, mut rb) = (a[0].ul.clone(), b[0].ul.clone());
        assert_eq!(ra.summary(), rb.summary());
    }
}
