//! ASCII plots and CSV output for the regenerated tables and figures,
//! plus the machine-readable `BENCH_repro.json` collector.

use std::fmt::Write as _;

use sim::LatencyRecorder;

/// Renders an ASCII bar histogram from `(x, probability)` pairs (the shape
/// of the paper's Fig 6 panels).
pub fn ascii_histogram(title: &str, xlabel: &str, pairs: &[(f64, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let max_p = pairs.iter().map(|(_, p)| *p).fold(0.0_f64, f64::max).max(1e-12);
    for (x, p) in pairs {
        if *p <= 0.0 {
            continue;
        }
        let bar = ((p / max_p) * width as f64).round() as usize;
        let _ = writeln!(out, "{x:8.2} | {:<width$} {p:.4}", "#".repeat(bar.max(1)));
    }
    let _ = writeln!(out, "{:>8}   ({xlabel})", "");
    out
}

/// Renders an ASCII scatter/line of `(x, y)` series (the shape of Fig 5):
/// one row per x, column position proportional to y.
pub fn ascii_series(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}   [y = {ylabel}]");
    let ymax = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(_, y)| *y))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    for (name, pts) in series {
        let _ = writeln!(out, "-- {name}");
        for (x, y) in pts {
            let col = ((y / ymax) * width as f64).round() as usize;
            let _ = writeln!(out, "{x:10.0} | {:>col$}  {y:.1}", "*", col = col.max(1));
        }
    }
    let _ = writeln!(out, "{:>10}   ({xlabel})", "");
    out
}

/// Serialises rows as CSV under a comma-separated `header` (every row has
/// one field per header column).
pub fn to_csv(header: &str, rows: &[Vec<String>]) -> String {
    let mut out = format!("{header}\n");
    let arity = header.split(',').count();
    for row in rows {
        assert_eq!(row.len(), arity, "CSV row arity mismatch");
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// One latency distribution logged for `BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which figure/table produced it (`table2`, `fig6`, ...).
    pub figure: String,
    /// Which distribution within the figure (`rtt`, `ul`, ...).
    pub metric: String,
    /// Sample count.
    pub count: u64,
    /// Median, µs (0 when the recorder was empty).
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// Wall-clock time of one `repro` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchWall {
    /// Subcommand name.
    pub figure: String,
    /// Wall time, ms, at `jobs` workers.
    pub wall_ms: f64,
    /// Worker count the subcommand ran with.
    pub jobs: usize,
    /// Wall time of the single-worker reference pass, ms (present only
    /// when `repro` ran with `--compare`).
    pub seq_wall_ms: Option<f64>,
}

impl BenchRecord {
    /// Summarises `rec` under `figure`/`metric`. Empty recorders give zero
    /// quantiles rather than panicking (via
    /// [`LatencyRecorder::try_quantile_us`]).
    pub fn new(figure: &str, metric: &str, rec: &mut LatencyRecorder) -> Self {
        let mut q = |p| rec.try_quantile_us(p).unwrap_or(0.0);
        let (p50_us, p99_us, p999_us) = (q(0.5), q(0.99), q(0.999));
        BenchRecord {
            figure: figure.to_string(),
            metric: metric.to_string(),
            count: rec.count(),
            p50_us,
            p99_us,
            p999_us,
        }
    }
}

/// Renders the distributions and wall times of a `repro` run as the
/// `BENCH_repro.json` document (hand-rolled: the workspace's serde is an
/// offline no-op stand-in).
pub fn bench_json(records: &[BenchRecord], walls: &[BenchWall]) -> String {
    let mut out = String::from("{\n  \"distributions\": [");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"figure\": \"{}\", \"metric\": \"{}\", \"count\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
            r.figure,
            r.metric,
            r.count,
            r.p50_us,
            r.p99_us,
            r.p999_us,
        );
    }
    out.push_str("\n  ],\n  \"wall_ms\": [");
    for (i, w) in walls.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"figure\": \"{}\", \"wall_ms\": {:.3}, \"jobs\": {}",
            if i == 0 { "" } else { "," },
            w.figure,
            w.wall_ms,
            w.jobs,
        );
        if let Some(seq) = w.seq_wall_ms {
            let _ = write!(out, ", \"seq_wall_ms\": {seq:.3}");
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_scales_bars() {
        let s = ascii_histogram("t", "ms", &[(1.0, 0.5), (2.0, 0.25), (3.0, 0.0)], 20);
        assert!(s.contains("1.00"));
        assert!(s.contains("####################")); // the max bar
        assert!(!s.contains("3.00")); // zero bins skipped
    }

    #[test]
    fn series_lists_all_points() {
        let s = ascii_series(
            "t",
            "samples",
            "µs",
            &[("USB 2.0", vec![(2000.0, 185.0), (20000.0, 400.0)])],
            30,
        );
        assert!(s.contains("USB 2.0"));
        assert!(s.contains("2000"));
        assert!(s.contains("400.0"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = to_csv("a,b", &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]]);
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn csv_rejects_ragged_rows() {
        to_csv("a,b", &[vec!["1".into()]]);
    }

    #[test]
    fn bench_log_survives_empty_recorders_and_renders_json() {
        let mut empty = LatencyRecorder::default();
        let mut filled = LatencyRecorder::default();
        for us in [100u64, 200, 300] {
            filled.record(sim::Duration::from_micros(us));
        }
        let records = [
            BenchRecord::new("figX", "rtt", &mut empty),
            BenchRecord::new("figX", "ul", &mut filled),
        ];
        assert_eq!((records[0].count, records[0].p99_us), (0, 0.0));
        assert_eq!(records[1].count, 3);
        assert!(records[1].p50_us >= 100.0);
        let wall = |figure: &str, wall_ms, jobs, seq_wall_ms| BenchWall {
            figure: figure.into(),
            wall_ms,
            jobs,
            seq_wall_ms,
        };
        let json =
            bench_json(&records, &[wall("figX", 12.5, 2, Some(20.25)), wall("figY", 5.0, 1, None)]);
        assert!(json.contains("\"distributions\""));
        assert!(json.contains("\"figure\": \"figX\", \"metric\": \"ul\", \"count\": 3"));
        assert!(json.contains("\"wall_ms\": 12.500, \"jobs\": 2, \"seq_wall_ms\": 20.250"));
        assert!(json.contains("\"wall_ms\": 5.000, \"jobs\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
