//! The capture machine's benchmark: three seeded workloads through the
//! program's public entry points, end-to-end metrics with tracing off,
//! per-layer metrics and a time ledger with tracing on.
//!
//! ```text
//! perfbench --workload campaign|replay|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Report lines go to stdout first; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any output check fails. `perfbench/run.py` builds this
//! binary and is the command BENCHMARK.json names; BENCHMARK.md explains
//! the workloads and metrics.

mod campaign;
mod common;
mod layers;
mod ledger;
mod live;
mod outcome;
mod replay;
mod traffic;

use common::Digest;
use outcome::Outcome;

/// A deliberate fault, for the benchmark's self-tests: each one must
/// make the run fail its checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt every measured dataset digest.
    Digest,
    /// Make one ledger row exceed the run's CPU time.
    Ledger,
    /// Drop one required metric.
    Metric,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Self-test fault, if any.
    pub inject: Option<Inject>,
    /// Internal: run one `live` soak (think µs, duration µs) and report
    /// it to the parent process.
    pub soak: Option<(u64, u64)>,
}

impl Params {
    /// A measured digest as the checks see it (flipped under
    /// `--inject digest`).
    pub fn tamper(&self, d: Digest) -> Digest {
        match self.inject {
            Some(Inject::Digest) => Digest {
                fnv: d.fnv ^ 1,
                ..d
            },
            _ => d,
        }
    }
}

fn parse(args: &[String]) -> Result<Params, String> {
    let mut p = Params {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject: None,
        soak: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => p.workload = value()?.clone(),
            "--seed" => p.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                p.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if p.seconds.is_nan() || p.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--inject" => {
                p.inject = Some(match value()?.as_str() {
                    "digest" => Inject::Digest,
                    "ledger" => Inject::Ledger,
                    "metric" => Inject::Metric,
                    other => return Err(format!("unknown --inject {other}")),
                })
            }
            "--soak" => {
                let v = value()?;
                let parsed = v
                    .split_once(':')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                p.soak = Some(
                    parsed.ok_or_else(|| format!("--soak takes THINK_US:DURATION_US, got {v}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(p)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((think_us, duration_us)) = params.soak {
        live::soak_child(&params, think_us, duration_us);
        return;
    }
    let mut out: Outcome = match params.workload.as_str() {
        "campaign" => campaign::run(&params),
        "replay" => replay::run(&params),
        "live" => live::run(&params),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (campaign, replay, live)");
            std::process::exit(2);
        }
    };
    match params.inject {
        Some(Inject::Ledger) => {
            // One layer claims the whole run's CPU time on top of its own.
            if let Some(l) = out.ledger.as_mut() {
                let total = l.total_ns;
                if let Some(row) = l.rows.first_mut() {
                    row.busy_ns += total;
                }
            }
        }
        Some(Inject::Metric) => {
            let first = Outcome::required(params.trace)[0].0;
            out.metrics.retain(|(n, _)| *n != first);
        }
        _ => {}
    }
    out.validate(params.trace);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        params.workload,
        params.seed,
        params.seconds,
        u8::from(params.trace)
    );
    for line in out.render(params.trace) {
        println!("{line}");
    }
    println!("{}", out.result_line(params.trace));
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
