//! `urllc-perfbench` — one benchmark for the URLLC laboratory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ping|ping-faults|overload|city|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off at one
//! worker; `--trace 1` is the separate traced run giving the per-layer
//! metrics. The last stdout line is the result object; the line before
//! it is the run manifest. Both, the detail notes and (traced runs) the
//! replay span log are also written under `.perfbench/` in the working
//! directory. See `NOTES.md` beside this crate for the workload choices
//! and the layer → metric → workload map.

mod e2e;
mod kernels;
mod replay;
mod report;
#[cfg(test)]
mod selftest;
mod timer;
mod traced;
mod workload;

use std::process::ExitCode;

use workload::Workload;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// One workload, or every workload for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: urllc-perfbench --workload <ping|ping-faults|overload|city|all> --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(value).ok_or(format!("unknown workload {value}"))?],
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes `contents` to `.perfbench/<file>`, reporting failure on stderr
/// (the result line stays authoritative).
fn save(file: &str, contents: &str) {
    let dir = std::path::Path::new(".perfbench");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), contents))
    {
        eprintln!("could not write .perfbench/{file}: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // End-to-end figures are single-worker by design (see NOTES.md).
    sim::parallel::set_jobs(1);
    let single = args.workloads.len() == 1;
    let mut table = Vec::new();
    let (mut correct, mut attempted, mut failed, mut entries) = (true, 0, 0, Vec::new());
    for &workload in &args.workloads {
        let name = workload.name();
        let plan = e2e::Plan::full(workload, args.seconds);
        let (report, spans) = if args.trace {
            traced::run(workload, args.seed, plan)
        } else {
            (e2e::run(workload, args.seed, plan), String::new())
        };
        let manifest = report::manifest(name, args.seed, args.seconds, args.trace);
        let result = report.result_line(args.trace);
        let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
        let notes: Vec<String> = report
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        save(
            &format!("{stem}.json"),
            &format!(
                "{{\"manifest\": {manifest},\n\"notes\": [{}],\n\"result\": {result}}}\n",
                notes.join(", ")
            ),
        );
        if args.trace {
            save(&format!("{stem}-spans.jsonl"), &spans);
        }
        let invalid = report.invalid(args.trace);
        if !invalid.is_empty() {
            eprintln!("{name}: metrics missing or not finite: {}", invalid.join(", "));
        }
        for note in &report.notes {
            println!("# {name}: {note}");
        }
        if single {
            println!("{{\"manifest\": {manifest}}}");
            println!("{result}");
            return ExitCode::SUCCESS;
        }
        for &(metric, unit) in report::Report::declared(args.trace) {
            let value = report.metrics.get(metric).copied().unwrap_or(f64::NAN);
            table.push(format!("{name:<12} {metric:<36} {value:>18.6} {unit}"));
        }
        correct &= report.correct(args.trace);
        attempted += report.attempted;
        failed += report.failed;
        entries.extend(report.metric_entries(args.trace, &format!("{name}.")));
    }
    for line in &table {
        println!("{line}");
    }
    println!("{{\"manifest\": {}}}", report::manifest("all", args.seed, args.seconds, args.trace));
    println!("{}", report::result_object(correct, attempted, failed, &entries));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload ping-faults --seed 7 --seconds 10 --trace 1"));
        assert_eq!(
            a,
            Ok(Args { workloads: vec![Workload::PingFaults], seed: 7, seconds: 10, trace: true })
        );
    }

    #[test]
    fn all_selects_every_workload() {
        let a = parse_args(&argv("--workload all --seed 1 --seconds 1 --trace 0")).expect("valid");
        assert_eq!(a.workloads, Workload::ALL.to_vec());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload ping --seed 1 --seconds 10",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload ping --seed -1 --seconds 10 --trace 0",
            "--workload ping --seed 1 --seconds 0 --trace 0",
            "--workload ping --seed 1 --seconds 10 --trace 2",
            "--workload ping --seed 1 --seconds 10 --trace",
            "--workload ping --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
