//! Replay pings through the public `UeStack`/`GnbStack` API with one host
//! span per layer call.
//!
//! The replay walks exactly the codec path of a testbed ping — UE encode,
//! PHY, gNB decode and UPF, then the echo back down — outside the event
//! engine, so each call can be timed on its own. Spans live in memory and
//! are written out once the run ends.

use std::time::Instant;

use bytes::Bytes;
use sim::SimRng;
use stack::{GnbStack, StackConfig, UeStack};

/// The replayed UE's RNTI, key and data-network address.
const RNTI: u16 = 17;
const KEY: u64 = 0x005E_C2E7;
const UE_ADDR: u32 = 0x0A00_0001;

/// The layer calls of one replay ping, in walk order.
pub const CALLS: [&str; 8] = [
    "ue_encode_uplink",
    "ue_phy_encode",
    "gnb_phy_decode",
    "gnb_decode_uplink",
    "gnb_encode_downlink",
    "gnb_phy_encode",
    "ue_phy_decode",
    "ue_decode_downlink",
];

/// One recorded span: `parent` is `None` for a ping's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The ping the span belongs to (shared by all its spans).
    pub ping: u64,
    /// Span name: `"ping"` for the root, else one of [`CALLS`].
    pub name: &'static str,
    /// Index of the parent span in the run's span list.
    pub parent: Option<usize>,
    /// Host nanoseconds since the replay started.
    pub start_ns: u64,
    /// Host nanoseconds since the replay started.
    pub end_ns: u64,
}

/// A replay session: one UE attached to one gNB, plus the span log.
pub struct Replay {
    config: StackConfig,
    ue: UeStack,
    gnb: GnbStack,
    rng: SimRng,
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Pings whose bytes did not round-trip exactly (or hit an error).
    pub failed: u64,
    /// Pings replayed.
    pub pings: u64,
    /// The last uplink MAC PDU built (the exact size kernels are timed at).
    pub ul_mac_pdu: Bytes,
}

impl Replay {
    /// A fresh UE/gNB pair for `config`, with payloads drawn from `seed`.
    pub fn new(config: &StackConfig, seed: u64) -> Replay {
        let mut gnb = GnbStack::new();
        gnb.attach_ue(RNTI, KEY, UE_ADDR);
        Replay {
            config: config.clone(),
            ue: UeStack::new(RNTI, KEY),
            gnb,
            rng: SimRng::from_seed(seed).stream("perfbench-replay"),
            epoch: Instant::now(),
            spans: Vec::new(),
            failed: 0,
            pings: 0,
            ul_mac_pdu: Bytes::new(),
        }
    }

    /// The replayed UE's RNTI.
    pub fn rnti(&self) -> u16 {
        RNTI
    }

    /// A seeded payload of the config's size.
    pub fn payload(&mut self) -> Bytes {
        let bytes: Vec<u8> =
            (0..self.config.payload_bytes).map(|_| (self.rng.uniform01() * 256.0) as u8).collect();
        Bytes::from(bytes)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as span `name` under `parent`.
    fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let ping = self.pings;
        self.spans.push(Span { ping, name, parent: Some(parent), start_ns, end_ns });
        out
    }

    /// Replays one ping; returns whether its bytes came back exactly.
    pub fn ping(&mut self) -> bool {
        let payload = self.payload();
        let root = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { ping: self.pings, name: "ping", parent: None, start_ns, end_ns: 0 });
        let ok = self.walk(&payload).is_some_and(|echo| echo == payload);
        self.spans[root].end_ns = self.now_ns();
        self.pings += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// The eight-call walk; `None` on any layer error.
    fn walk(&mut self, payload: &Bytes) -> Option<Bytes> {
        let root = self.spans.len() - 1;
        let grant = self.config.grant_bytes();
        let dl_cap = self.config.slot_capacity_bytes();
        let ul = self.span(CALLS[0], root, |r| r.ue.encode_uplink(payload, grant)).ok()?;
        let [ul_pdu] = ul.as_slice() else { return None };
        self.ul_mac_pdu = ul_pdu.clone();
        let samples = self.span(CALLS[1], root, |r| r.ue.phy_encode(ul_pdu));
        let rx = self.span(CALLS[2], root, |r| r.gnb.phy_decode(RNTI, &samples)).ok()?;
        let up = self.span(CALLS[3], root, |r| r.gnb.decode_uplink(RNTI, &rx)).ok()?;
        let [echo] = up.as_slice() else { return None };
        let (rnti, dl) =
            self.span(CALLS[4], root, |r| r.gnb.encode_downlink(UE_ADDR, echo, dl_cap)).ok()?;
        let [dl_pdu] = dl.as_slice() else { return None };
        if rnti != RNTI {
            return None;
        }
        let samples = self.span(CALLS[5], root, |r| r.gnb.phy_encode(RNTI, dl_pdu));
        let rx = self.span(CALLS[6], root, |r| r.ue.phy_decode(&samples)).ok()?;
        let down = self.span(CALLS[7], root, |r| r.ue.decode_downlink(&rx)).ok()?;
        match down.as_slice() {
            [reply] => Some(reply.clone()),
            _ => None,
        }
    }

    /// Per-name span durations in ns (root spans under `"ping"`), skipping
    /// the first `warmup` pings.
    pub fn durations(&self, name: &str, warmup: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.ping >= warmup)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time of each root span: its duration minus the part its child
    /// spans cover (children are sequential and disjoint).
    pub fn root_self_ns(&self, warmup: u64) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.ping >= warmup)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// The span log as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"ping\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.ping, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_round_trips_and_logs_one_span_per_call() {
        let cfg = StackConfig::testbed_dddu(ran::sched::AccessMode::GrantBased, true);
        let mut r = Replay::new(&cfg, 3);
        for _ in 0..4 {
            assert!(r.ping());
        }
        assert_eq!(r.failed, 0);
        assert_eq!(r.spans.len(), 4 * (CALLS.len() + 1));
        for call in CALLS {
            assert_eq!(r.durations(call, 0).len(), 4, "{call}");
        }
        let total: f64 = r.durations("ping", 0).iter().sum();
        let selfs: f64 = r.root_self_ns(0).iter().sum();
        assert!(selfs < total, "self {selfs} vs total {total}");
    }
}
