//! End-to-end ping integration: the full UE↔gNB↔UPF path across every
//! configuration the paper discusses, with byte-exact delivery checks.

use ran::sched::AccessMode;
use sim::Duration;
use stack::{PingExperiment, StackConfig};

#[test]
fn every_configuration_delivers_bytes_intact() {
    let configs: Vec<(&str, StackConfig)> = vec![
        ("testbed gb usb2", StackConfig::testbed_dddu(AccessMode::GrantBased, false)),
        ("testbed gb usb3", StackConfig::testbed_dddu(AccessMode::GrantBased, true)),
        ("testbed gf usb3", StackConfig::testbed_dddu(AccessMode::GrantFree, true)),
        ("ideal dm", StackConfig::ideal_urllc_dm()),
    ];
    for (name, cfg) in configs {
        let mut exp = PingExperiment::new(cfg.with_seed(99));
        let res = exp.run(100);
        assert_eq!(res.integrity_failures, 0, "{name}: corrupted payloads");
        assert_eq!(res.ul.count(), 100, "{name}");
        assert_eq!(res.dl.count(), 100, "{name}");
        assert_eq!(res.rtt.count(), 100, "{name}");
    }
}

#[test]
fn rtt_is_sum_consistent() {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(5);
    let mut exp = PingExperiment::new(cfg);
    let mut res = exp.run(200);
    // RTT >= UL + DL is not exact (the reply turnaround is instantaneous),
    // so RTT == UL + DL for every ping; check the means.
    let ul = res.ul_summary().mean_us;
    let dl = res.dl_summary().mean_us;
    let mut rtt = res.rtt.clone();
    let rtt_mean = rtt.summary().mean_us;
    assert!((rtt_mean - (ul + dl)).abs() < 1.0, "rtt {rtt_mean} vs {ul}+{dl}");
}

#[test]
fn grant_free_saves_about_one_tdd_period() {
    // §7 / Fig 6: "this one TDD period overhead can be eliminated by
    // utilizing grant-free access" (DDDU period = 2 ms).
    let mean_ul = |access| {
        let cfg = StackConfig::testbed_dddu(access, true).with_seed(8);
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(500);
        res.ul_summary().mean_us
    };
    let saving = mean_ul(AccessMode::GrantBased) - mean_ul(AccessMode::GrantFree);
    assert!(
        (1_200.0..2_800.0).contains(&saving),
        "saving should be roughly one 2 ms period, got {saving} µs"
    );
}

#[test]
fn uplink_is_slower_than_downlink_on_the_testbed() {
    // §7: "In the UL channel, the latency is much bigger than the DL."
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(21);
    let mut exp = PingExperiment::new(cfg);
    let mut res = exp.run(400);
    assert!(res.ul_summary().mean_us > 1.4 * res.dl_summary().mean_us);
}

#[test]
fn usb2_needs_more_margin_than_usb3() {
    // With the full two-slot pipeline both buses fit comfortably, so the
    // interface shows up not in the mean latency but in how much margin is
    // needed: squeeze the lead to one slot and the slower USB 2.0 bus
    // misses far more air times (§4: radio latency bottlenecks the system).
    let run = |usb3| {
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, usb3).with_seed(10);
        cfg.sched_lead = cfg.duplex.slot_duration();
        let mut exp = PingExperiment::new(cfg);
        exp.run(300).underruns
    };
    let (u2, u3) = (run(false), run(true));
    assert!(u2 * 2 > u3.max(1) * 3, "usb2 underruns {u2} vs usb3 {u3}");
    assert!(u2 > 100, "the squeezed lead should hurt usb2 badly, got {u2}");
}

#[test]
fn determinism_full_experiment() {
    let run = || {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, false).with_seed(1234);
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(100);
        (
            res.ul_summary(),
            res.dl_summary(),
            res.underruns,
            res.missed_grants,
            res.traces.first().cloned(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn traces_are_causally_ordered() {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(77);
    let mut exp = PingExperiment::new(cfg);
    exp.keep_traces(10);
    let res = exp.run(10);
    assert_eq!(res.traces.len(), 10);
    for t in &res.traces {
        for spans in [&t.ul, &t.dl] {
            for w in spans.windows(2) {
                assert!(w[1].start >= w[0].start, "ping {}: {:?} after {:?}", t.id, w[0], w[1]);
                assert!(w[0].end >= w[0].start);
            }
        }
        // The reply cannot precede the request.
        assert!(t.dl.first().unwrap().start >= t.ul.last().unwrap().start);
        assert_eq!(t.rtt(), t.dl.last().unwrap().end - t.ul.first().unwrap().start);
    }
}

#[test]
fn ideal_dm_beats_testbed_by_a_wide_margin() {
    let ideal = {
        let mut exp = PingExperiment::new(StackConfig::ideal_urllc_dm().with_seed(3));
        let mut r = exp.run(300);
        r.rtt.quantile_us(0.5)
    };
    let testbed = {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(3);
        let mut exp = PingExperiment::new(cfg);
        let mut r = exp.run(300);
        r.rtt.quantile_us(0.5)
    };
    assert!(testbed > 3.0 * ideal, "testbed {testbed} vs ideal {ideal}");
    // And the ideal design's RTT is in the low-millisecond regime.
    assert!(ideal < 1_500.0, "ideal median RTT {ideal} µs");
}

#[test]
fn sub_slot_deadline_fractions_are_sane() {
    let mut exp = PingExperiment::new(StackConfig::ideal_urllc_dm().with_seed(4));
    let mut res = exp.run(500);
    let f_05 = res.ul.fraction_within(Duration::from_micros(500));
    let f_1 = res.ul.fraction_within(Duration::from_millis(1));
    let f_2 = res.ul.fraction_within(Duration::from_millis(2));
    assert!(f_05 <= f_1 && f_1 <= f_2);
    assert!(f_1 > 0.9, "ideal DM should be almost always sub-1ms, got {f_1}");
    let _ = res.dl_summary();
}

#[test]
fn payload_size_from_config_never_panics() {
    for access in [AccessMode::GrantBased, AccessMode::GrantFree] {
        for bytes in [0, 2000] {
            let mut cfg = StackConfig::testbed_dddu(access, true).with_seed(3);
            cfg.payload_bytes = bytes;
            let res = PingExperiment::new(cfg).run(3);
            assert_eq!(res.integrity_failures, 0, "{access:?} {bytes} B");
            assert_eq!(res.rtt.count(), 3, "{access:?} {bytes} B: every ping delivered");
        }
        // A payload beyond the GTP-U transport MTU cannot cross N3: the
        // request is counted corrupt at the UPF and the reply never leaves
        // the core, so every ping is lost (and counted), none panics.
        let mut cfg = StackConfig::testbed_dddu(access, true).with_seed(3);
        cfg.payload_bytes = corenet::MAX_PAYLOAD + 1;
        let res = PingExperiment::new(cfg).run(3);
        assert_eq!(res.rtt.count(), 0, "{access:?}");
        assert_eq!(res.attribution.lost, 3, "{access:?}");
        assert!(res.integrity_failures >= 3, "{access:?}: {}", res.integrity_failures);
    }
}
