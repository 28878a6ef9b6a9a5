//! Direct timings of each layer's public kernels, at the exact PDU sizes
//! the testbed config produces (taken from a replayed ping).

use std::collections::VecDeque;

use bytes::Bytes;
use corenet::GtpuHeader;
use phy::crc::CRC24A;
use phy::scrambling::{data_scrambling_c_init, GoldSequence};
use radio::RadioHead;
use ran::mac::MacPdu;
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::sched::Scheduler;
use ran::{RlcUmEntity, SdapEntity};
use sim::{ArrivalGen, ArrivalProcess, Duration, EventQueue, Instant, Recording, SimRng};
use stack::StackConfig;

use crate::replay::Replay;
use crate::timer::{batch_for, repeat_ns, Spread};
use crate::workload::EMBB_SDU_BYTES;

/// Timed batches per kernel (after [`WARMUP`] untimed ones).
const SAMPLES: usize = 101;
const WARMUP: usize = 5;
/// Target host time of one timed batch.
const BATCH_NS: f64 = 40_000.0;

/// The ping flow's QoS flow id and logical channel.
const QFI: u8 = stack::node::PING_QFI;
const LCID: u8 = stack::node::PING_LCID;

fn time<R>(mut op: impl FnMut() -> R) -> Spread {
    let inner = batch_for(BATCH_NS, &mut op);
    repeat_ns(WARMUP, SAMPLES, inner, op)
}

/// Times a consuming kernel over inputs prepared in order (receive paths
/// whose state machine needs a fresh sequence number per call).
fn time_each<T>(mut make: impl FnMut() -> T, mut op: impl FnMut(T)) -> Spread {
    let mut probe = Some(make());
    let inner = batch_for(BATCH_NS, || op(probe.take().expect("probed once")));
    let mut inputs: VecDeque<T> = (0..(WARMUP + SAMPLES) * inner).map(|_| make()).collect();
    repeat_ns(WARMUP, SAMPLES, inner, || op(inputs.pop_front().expect("one input per call")))
}

/// Every kernel timing, keyed by per-layer metric name (ns per call).
pub fn time_kernels(
    config: &StackConfig,
    replay: &mut Replay,
    seed: u64,
) -> Vec<(&'static str, Spread)> {
    let rnti = replay.rnti();
    let payload = replay.payload();
    let ul_pdu = replay.ul_mac_pdu.clone();
    let mut rng = SimRng::from_seed(seed).stream("perfbench-kernels");
    let mut out = Vec::new();

    // PHY: the stacks' own encode/decode, and the two kernels inside them
    // at the transport stream's size (count byte + length + CRC24A).
    let ue = stack::UeStack::new(rnti, 1);
    let gnb_samples = ue.phy_encode(&ul_pdu);
    let gnb = stack::GnbStack::new();
    out.push(("phy.encode_ns", time(|| ue.phy_encode(&ul_pdu))));
    out.push(("phy.decode_ns", time(|| gnb.phy_decode(rnti, &gnb_samples))));
    let c_init = data_scrambling_c_init(rnti, 0, 101);
    let mut stream = vec![0u8; 1 + 2 + ul_pdu.len() + 3];
    out.push(("phy.gold_ns", time(|| GoldSequence::new(c_init).scramble_in_place(&mut stream))));
    out.push(("phy.crc24a_ns", time(|| CRC24A.compute(&ul_pdu))));

    // RAN: PDCP at the ping's SDAP PDU size and at the eMBB SDU size.
    let mut sdap = SdapEntity::new();
    sdap.map_flow(QFI, LCID);
    let (_, sdap_pdu) = sdap.encode_pdu(QFI, &payload).expect("flow mapped above");
    let embb_sdu = Bytes::from(vec![0x5Au8; EMBB_SDU_BYTES]);
    let mut tx = PdcpEntity::new(PdcpConfig::new(seed, LCID, Direction::Uplink));
    out.push(("ran.pdcp.tx_ns", time(|| tx.tx_encode(&sdap_pdu))));
    let mut tx_big = PdcpEntity::new(PdcpConfig::new(seed, LCID, Direction::Uplink));
    out.push(("ran.pdcp.tx_ns_1200", time(|| tx_big.tx_encode(&embb_sdu))));
    let mut peer_tx = PdcpEntity::new(PdcpConfig::new(seed, LCID, Direction::Uplink));
    let mut rx = PdcpEntity::new(PdcpConfig::new(seed, LCID, Direction::Uplink));
    out.push((
        "ran.pdcp.rx_ns",
        time_each(
            || peer_tx.tx_encode(&sdap_pdu),
            |pdu| {
                let sdus = rx.rx_decode(&pdu).expect("in-order PDCP PDU decodes");
                std::hint::black_box(sdus);
            },
        ),
    ));
    let pdcp_pdu =
        PdcpEntity::new(PdcpConfig::new(seed, LCID, Direction::Uplink)).tx_encode(&sdap_pdu);
    let grant = config.grant_bytes();
    let mut um_tx = RlcUmEntity::new();
    let mut um_rx = RlcUmEntity::new();
    out.push((
        "ran.rlc.um_ns",
        time(|| {
            um_tx.tx_sdu(pdcp_pdu.clone());
            let pdu = um_tx.pull_pdu(grant).expect("grant fits").expect("one SDU queued");
            um_rx.rx_pdu(&pdu).expect("whole-SDU UM PDU decodes")
        }),
    ));
    out.push((
        "ran.mac.codec_ns",
        time(|| {
            let pdu = MacPdu::decode(&ul_pdu).expect("replayed MAC PDU decodes");
            pdu.encode(None).expect("re-encodes")
        }),
    ));

    // Scheduler: one DL request served per DL slot.
    let mut sched = Scheduler::new(config.scheduler_config());
    let duplex = config.duplex.clone();
    let mut at = Instant::ZERO;
    let wire = pdcp_pdu.len() + 1;
    out.push((
        "ran.sched.run_slot_ns",
        time(|| {
            let op = duplex.next_dl_opportunity(at);
            sched.on_dl_data(rnti, wire, at);
            at = duplex.slot_start(op.slot + 1);
            sched.run_slot(op.slot)
        }),
    ));

    // Simulation core: a standing queue of four events (the city engine's
    // O(classes) depth), fixed-memory recording, MMPP arrivals.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut t = Instant::ZERO;
    for i in 0..4 {
        queue.push(t + Duration::from_micros(i * 250), i);
    }
    out.push((
        "sim.event_queue.push_pop_ns",
        time(|| {
            t += Duration::from_micros(1_000);
            queue.push(t, 0);
            queue.pop()
        }),
    ));
    let mut recording = Recording::fixed();
    let mut d = 0u64;
    out.push((
        "sim.recording.record_ns",
        time(|| {
            d = (d + 7_919) % 5_000_000;
            recording.record(Duration::from_nanos(d));
        }),
    ));
    let mut arrivals = ArrivalGen::new(
        ArrivalProcess::bursty_pps(20_000.0, 8.0, 0.2, Duration::from_millis(2)),
        rng.stream("arrivals"),
    );
    out.push(("sim.arrivals.next_ns", time(|| arrivals.next_arrival())));

    // Core network and radio.
    out.push((
        "corenet.gtpu.codec_ns",
        time(|| {
            let pkt = GtpuHeader::gpdu(0x1234).encode(&payload);
            GtpuHeader::decode(&pkt).expect("G-PDU decodes")
        }),
    ));
    let mut head = RadioHead::new(config.gnb_radio.clone());
    let samples = ue.phy_sample_count(ul_pdu.len()) as u64;
    out.push(("radio.submit_ns", time(|| head.submit_latency(samples, &mut rng))));
    out
}
