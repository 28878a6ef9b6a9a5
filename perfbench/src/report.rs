//! Metric tables, the result line and the run manifest.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("host_us_per_op_p90", "us"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p999_us", "us"),
    ("sim_on_time_ratio", "ratio"),
    ("ok_op_ratio", "ratio"),
];

/// The replay spans reported as `stack.replay.<call>_ns`.
pub const REPLAY_SPANS: [&str; 8] = [
    "stack.replay.ue_encode_uplink_ns",
    "stack.replay.ue_phy_encode_ns",
    "stack.replay.gnb_phy_decode_ns",
    "stack.replay.gnb_decode_uplink_ns",
    "stack.replay.gnb_encode_downlink_ns",
    "stack.replay.gnb_phy_encode_ns",
    "stack.replay.ue_phy_decode_ns",
    "stack.replay.ue_decode_downlink_ns",
];

/// The profiler hops reported as `stack.hop.<hop>.share`.
pub const HOPS: [(&str, &str); 5] = [
    ("gnb_walk_up", "stack.hop.gnb_walk_up.share"),
    ("ue_rx_up", "stack.hop.ue_rx_up.share"),
    ("dl_walk_down", "stack.hop.dl_walk_down.share"),
    ("app_down", "stack.hop.app_down.share"),
    ("dl_prep", "stack.hop.dl_prep.share"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("phy.encode_ns", "ns"),
    ("phy.decode_ns", "ns"),
    ("phy.gold_ns", "ns"),
    ("phy.crc24a_ns", "ns"),
    ("phy.calls_per_op", "1/op"),
    ("ran.pdcp.tx_ns", "ns"),
    ("ran.pdcp.rx_ns", "ns"),
    ("ran.pdcp.tx_ns_1200", "ns"),
    ("ran.rlc.um_ns", "ns"),
    ("ran.mac.codec_ns", "ns"),
    ("ran.sched.run_slot_ns", "ns"),
    ("sim.event_queue.push_pop_ns", "ns"),
    ("sim.recording.record_ns", "ns"),
    ("sim.arrivals.next_ns", "ns"),
    ("ran.harq.retx_per_op", "1/op"),
    ("ran.sr.retx_per_op", "1/op"),
    ("ran.rlc.escalations_per_op", "1/op"),
    ("ran.rrc.recoveries_per_op", "1/op"),
    ("corenet.failovers_per_op", "1/op"),
    ("corenet.gtpu.codec_ns", "ns"),
    ("radio.submit_ns", "ns"),
    ("stack.replay.ue_encode_uplink_ns", "ns"),
    ("stack.replay.ue_phy_encode_ns", "ns"),
    ("stack.replay.gnb_phy_decode_ns", "ns"),
    ("stack.replay.gnb_decode_uplink_ns", "ns"),
    ("stack.replay.gnb_encode_downlink_ns", "ns"),
    ("stack.replay.gnb_phy_encode_ns", "ns"),
    ("stack.replay.ue_phy_decode_ns", "ns"),
    ("stack.replay.ue_decode_downlink_ns", "ns"),
    ("stack.replay.total_ns", "ns"),
    ("stack.replay.self_ns", "ns"),
    ("stack.replay.base_us_per_op", "us"),
    ("stack.replay.codec_share", "ratio"),
    ("stack.hop.gnb_walk_up.share", "ratio"),
    ("stack.hop.ue_rx_up.share", "ratio"),
    ("stack.hop.dl_walk_down.share", "ratio"),
    ("stack.hop.app_down.share", "ratio"),
    ("stack.hop.dl_prep.share", "ratio"),
    ("stack.overload.slot_us_mean", "us"),
    ("stack.overload.goodput_ratio", "ratio"),
    ("stack.multicell.peak_queue", "count"),
    ("stack.multicell.recording_bytes", "B"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.profiler_overhead_ratio", "ratio"),
    ("telemetry.dark_ops_per_s", "1/s"),
    ("telemetry.instrumented_ops_per_s", "1/s"),
    ("telemetry.profiled_ops_per_s", "1/s"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted across every correctness check.
    pub attempted: u64,
    /// Ops that failed one.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (sample counts, quartiles, bases).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts `attempted` ops of which `failed` failed a check.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Ops that passed every check over ops attempted.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The declared metrics this run must print.
    pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Declared metrics that are missing or not finite.
    pub fn invalid(&self, trace: bool) -> Vec<&'static str> {
        Report::declared(trace)
            .iter()
            .filter(|(name, _)| !self.metrics.get(name).is_some_and(|v| v.is_finite()))
            .map(|&(name, _)| name)
            .collect()
    }

    /// Whether every check passed and every declared metric is a number.
    pub fn correct(&self, trace: bool) -> bool {
        self.failed == 0 && self.attempted > 0 && self.invalid(trace).is_empty()
    }

    /// `"<prefix><name>": {"value": v, "unit": "u"}` for every declared
    /// metric that is a number.
    pub fn metric_entries(&self, trace: bool, prefix: &str) -> Vec<String> {
        Report::declared(trace)
            .iter()
            .filter_map(|&(name, unit)| {
                let value = self.metrics.get(name).filter(|v| v.is_finite())?;
                Some(format!("\"{prefix}{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// declared metric with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        result_object(
            self.correct(trace),
            self.attempted,
            self.failed,
            &self.metric_entries(trace, ""),
        )
    }
}

/// Formats a result object from its parts.
pub fn result_object(correct: bool, attempted: u64, failed: u64, entries: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        entries.join(", ")
    )
}

/// Process high-water resident set size in MiB (`VmHWM`), NaN when the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly (no subprocess, no search above the directory).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The run manifest as one JSON object.
pub fn manifest(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"workers\": 1, \"build_profile\": \"{}\", \"nproc\": {nproc}, \"git_revision\": \"{}\", \
         \"rustc\": \"{}\"}}",
        u8::from(trace),
        env!("PERFBENCH_PROFILE"),
        git_revision(),
        env!("PERFBENCH_RUSTC"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let names: std::collections::BTreeSet<_> = all.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for w in crate::workload::Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
        for span in REPLAY_SPANS.iter().chain(HOPS.iter().map(|(_, m)| m)) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == span), "{span} not declared");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::Workload::ALL.len()
        );
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut r = Report::default();
        r.check(10, 0);
        for &(name, _) in &END_TO_END {
            r.metric(name, 1.5);
        }
        let line = r.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"),
            "{line}"
        );
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}")));
        }
        r.metrics.remove("setup_s");
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
