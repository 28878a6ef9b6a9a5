//! The `repro` figure registry: one table names every figure once, and one
//! runner does the work every figure shares.
//!
//! A [`Figure`] is a name (the subcommand, and the key of its entries in
//! `BENCH_repro.json` and `ci/wall_baseline.json`), a banner title and a
//! function from the run's [`Ctx`] to the [`Artifacts`] it produced: the
//! files to write, the latency distributions to record and the pass/fail
//! checks it asserts about its own results. [`run`] prints the banner,
//! times the figure (plus the `--compare` single-worker reference pass,
//! whose artifacts are dropped), writes the files, records distributions
//! and wall times into `BENCH_repro.json`, prints the checks and returns
//! the exit status: 0, or 1 when any write failed or any check read NO.
//! Malformed command lines are rejected by [`Cli::parse`] before anything
//! runs (exit status 2, with the [`usage`] generated from the table).

use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

use sim::LatencyRecorder;

use crate::report::{bench_json, BenchRecord, BenchWall};

/// What a figure reads from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctx {
    /// `--pings N` (default 5000).
    pub pings: u64,
    /// `--perfetto out.json`: the file name `repro trace` exports to.
    pub perfetto: Option<String>,
}

/// Everything one run of a figure produced besides its console output.
#[derive(Debug, Default)]
#[must_use]
pub struct Artifacts {
    /// Files to write under the results directory; an `Err` is an export
    /// that failed before it had contents, and fails the run like a write.
    files: Vec<(String, Result<String, String>)>,
    /// Distributions for `BENCH_repro.json`; the runner fills in `figure`.
    dists: Vec<BenchRecord>,
    /// Console text that follows the `[saved …]` lines.
    footer: String,
    /// `(printed line, passed)`.
    checks: Vec<(String, bool)>,
}

impl Artifacts {
    /// Adds a file to write as `name` under the results directory.
    pub fn file(self, name: &str, contents: impl Into<String>) -> Self {
        self.export(name, Ok::<_, String>(contents.into()))
    }

    /// Adds a file whose contents came out of a fallible export.
    pub fn export<E: Display>(mut self, name: &str, contents: Result<String, E>) -> Self {
        self.files.push((name.to_string(), contents.map_err(|e| e.to_string())));
        self
    }

    /// Records a latency distribution under `metric` for `BENCH_repro.json`.
    pub fn dist(mut self, metric: &str, rec: &mut LatencyRecorder) -> Self {
        self.dists.push(BenchRecord::new("", metric, rec));
        self
    }

    /// Adds console text printed after the `[saved …]` lines.
    pub fn footer(mut self, text: impl Into<String>) -> Self {
        self.footer.push_str(&text.into());
        self
    }

    /// Adds a check printed as `{label}: YES` or `{label}: NO`.
    pub fn verdict(self, label: &str, pass: bool) -> Self {
        self.check(format!("{label}: {}", if pass { "YES" } else { "NO" }), pass)
    }

    /// Adds a check printed as `line`.
    pub fn check(mut self, line: impl Into<String>, pass: bool) -> Self {
        self.checks.push((line.into(), pass));
        self
    }
}

/// One entry of the figure table.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Subcommand name and `BENCH_repro.json` key.
    pub name: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// Computes the figure, printing its console output as it goes.
    pub run: fn(&Ctx) -> Artifacts,
}

/// A parsed `repro` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `all`, `ratchet` or a figure name.
    pub cmd: String,
    /// What the figures read.
    pub ctx: Ctx,
    /// `--jobs N` (default [`sim::parallel::jobs`]).
    pub jobs: usize,
    /// `--compare`: also time a single-worker reference pass per figure.
    pub compare: bool,
    /// `--write`: `repro ratchet` refreshes the baseline.
    pub write: bool,
}

impl Cli {
    /// Parses `repro [CMD] [FLAGS]`. Any unknown subcommand or flag, a flag
    /// missing its value, or a value that does not parse is an error.
    pub fn parse(args: &[String], figures: &[Figure]) -> Result<Cli, String> {
        let mut cli = Cli {
            cmd: "all".into(),
            ctx: Ctx { pings: 5_000, perfetto: None },
            jobs: sim::parallel::jobs(),
            compare: false,
            write: false,
        };
        let mut args = args.iter();
        if let Some(cmd) = args.next() {
            if !["all", "ratchet"].contains(&cmd.as_str()) && !figures.iter().any(|f| f.name == cmd)
            {
                return Err(format!("unknown subcommand `{cmd}`"));
            }
            cli.cmd = cmd.clone();
        }
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or(format!("`{flag}` needs a value"))
            };
            let invalid = |v: &str| format!("invalid value `{v}` for `{flag}`");
            match flag.as_str() {
                "--compare" => cli.compare = true,
                "--write" => cli.write = true,
                "--pings" => {
                    let v = value()?;
                    cli.ctx.pings = v.parse().map_err(|_| invalid(v))?;
                }
                "--jobs" => {
                    let v = value()?;
                    cli.jobs = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| invalid(v))?;
                }
                "--perfetto" => cli.ctx.perfetto = Some(value()?.clone()),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(cli)
    }
}

/// The usage text, generated from the figure table.
pub fn usage(figures: &[Figure]) -> String {
    let mut out = String::from(
        "usage: repro [all|ratchet|FIGURE] [--pings N] [--jobs N] [--compare] \
         [--perfetto out.json] [--write]\nfigures:\n",
    );
    for f in figures {
        out.push_str(&format!("  {:<12} {}\n", f.name, f.title));
    }
    out
}

/// Runs `figures` in order, writing their files and `BENCH_repro.json`
/// under `out_dir`. Returns the exit status: 1 if any write failed or any
/// check read NO (after every figure has run), else 0.
pub fn run(figures: &[&Figure], cli: &Cli, out_dir: &Path) -> i32 {
    sim::parallel::set_jobs(cli.jobs);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut records, mut walls) = (Vec::new(), Vec::new());
    let (mut failed_writes, mut failed_checks) = (0usize, 0usize);
    let mut save = |name: &str, contents: Result<String, String>| {
        let path = out_dir.join(name);
        match contents.and_then(|c| {
            std::fs::create_dir_all(out_dir)
                .and_then(|()| std::fs::write(&path, c))
                .map_err(|e| e.to_string())
        }) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("[failed to save {name}: {e}]");
                failed_writes += 1;
            }
        }
    };
    for fig in figures {
        println!("\n==================== {} ====================", fig.title);
        // The reference pass's artifacts are byte-identical to the timed
        // pass's by the determinism contract; only its wall time is kept.
        let seq_wall_ms = (cli.compare && cli.jobs > 1).then(|| {
            sim::parallel::set_jobs(1);
            let t = Instant::now();
            drop((fig.run)(&cli.ctx));
            sim::parallel::set_jobs(cli.jobs);
            ms(t)
        });
        let t = Instant::now();
        let art = (fig.run)(&cli.ctx);
        walls.push(BenchWall {
            figure: fig.name.into(),
            wall_ms: ms(t),
            jobs: cli.jobs,
            seq_wall_ms,
        });
        for (name, contents) in art.files {
            save(&name, contents);
        }
        print!("{}", art.footer);
        records.extend(art.dists.into_iter().map(|r| BenchRecord { figure: fig.name.into(), ..r }));
        for (line, pass) in art.checks {
            println!("{line}");
            failed_checks += usize::from(!pass);
        }
    }
    save("BENCH_repro.json", Ok(bench_json(&records, &walls)));
    if failed_writes > 0 {
        eprintln!("repro: {failed_writes} artifact(s) failed to save");
    }
    if failed_checks > 0 {
        eprintln!("repro: {failed_checks} check(s) read NO");
    }
    i32::from(failed_writes + failed_checks > 0)
}
