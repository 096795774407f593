//! `dknpbench`: the DKNP serving benchmark of the D(k)-index.
//!
//! ```text
//! cargo run --release --manifest-path dknpbench/Cargo.toml -- \
//!     --workload <read-hot|write-durable|churn-adapt> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! It starts the real `dkindex_server::NetServer` in-process on loopback,
//! drives it with `NetClient` connections, checks every answer and the
//! durable state, and prints a human report followed by one JSON result
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same seed twice — untraced, then with the telemetry recorder on — and
//! reports the per-layer metrics (see README.md).

mod loadgen;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use dkindex_graph::LabeledGraph;
use report::{human_line, result_line, Metric};
use stats::{median, ratio};
use workloads::{Mode, Round, Run, Workload};

/// Server starts per run, for the `setup_s` median.
const SETUP_REPS: usize = 9;
/// Recoveries per run, for the `recovery_s` median.
const RECOVERY_REPS: usize = 15;
/// The end-to-end metrics on the result line: those that repeat within
/// their BENCHMARK.json bound on a shared 2-vCPU VM. The query-path
/// timings (`query_p50_us`, `query_p99_us`, `queries_per_s`) move by up
/// to half with the host's load, `recovery_s` by up to a third, the tails
/// and update throughput (`update_p99_us`, `updates_per_s`) with the host
/// disk, and `failed_ratio` is 0 on a correct run; the report prints them
/// all.
const GATED: [&str; 4] = [
    "setup_s",
    "update_p50_us",
    "visits_per_query",
    "peak_rss_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: dknpbench --workload <read-hot|write-durable|churn-adapt> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// p50 and p99 in microseconds, each the median over the phase's rounds,
/// or a failed check when a round cannot support its p99.
fn latency(name: &str, rounds: &[Round], checks: &mut Vec<String>) -> (f64, f64, String) {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut n = 0;
    for (i, round) in rounds.iter().enumerate() {
        match &round.lat {
            Some(s) => {
                if !s.p99_supported() {
                    checks.push(format!(
                        "{name}, round {i}: only {} samples beyond p99 (n={})",
                        s.beyond_p99, s.n
                    ));
                }
                p50.push(s.p50 as f64 / 1e3);
                p99.push(s.p99 as f64 / 1e3);
                n += s.n;
            }
            None => checks.push(format!("{name}, round {i}: no samples")),
        }
    }
    let note = format!("median of {} rounds, n={n}", rounds.len());
    (median(&p50), median(&p99), note)
}

/// Repeated measurements for the human report.
fn list(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(" ")
}

/// Per-round rates for the human report.
fn rates(rounds: &[Round]) -> String {
    let list: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}/{:.2}s", r.rate, r.elapsed.as_secs_f64()))
        .collect();
    format!("rounds {}", list.join(" "))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run, checks: &mut Vec<String>) -> Vec<Metric> {
    let (q50, q99, qnote) = latency("query latency", &run.query.rounds, checks);
    let (u50, u99, unote) = latency("update latency", &run.update.rounds, checks);
    let recovery: Vec<f64> = run.recoveries.iter().map(|r| r.0).collect();
    let costs = &run.query.costs;
    vec![
        Metric::new("setup_s", median(&run.setup_s), "s").note(format!(
            "median of {} starts: {}",
            run.setup_s.len(),
            list(&run.setup_s)
        )),
        Metric::new("query_p50_us", q50, "us").note(qnote.clone()),
        Metric::new("query_p99_us", q99, "us").note(qnote),
        Metric::new("queries_per_s", run.queries_per_s(), "1/s").note(rates(&run.query.rounds)),
        Metric::new("update_p50_us", u50, "us").note(unote.clone()),
        Metric::new("update_p99_us", u99, "us").note(unote),
        Metric::new("updates_per_s", run.updates_per_s(), "1/s").note(format!(
            "{}{}",
            rates(&run.update.rounds),
            if run.update.exhausted {
                ", fixed edge list done early"
            } else {
                ""
            }
        )),
        Metric::new(
            "visits_per_query",
            ratio(
                (costs.index_visits + costs.data_visits) as f64,
                costs.answers as f64,
            ),
            "count",
        )
        .note(format!("{} answers", costs.answers)),
        Metric::new("recovery_s", median(&recovery), "s").note(format!(
            "median of {} recoveries: {}",
            recovery.len(),
            list(&recovery)
        )),
        Metric::new("peak_rss_mb", setup::peak_rss_mb(), "MiB").note("VmHWM"),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The child a run starts to time one crash recovery in a fresh process.
    if let [flag, snap, wal, out] = &argv[..] {
        if flag == "--recover" {
            match setup::recover(snap.as_ref(), wal.as_ref(), out.as_ref()) {
                Ok((total, load, replay)) => println!("{total} {load} {replay}"),
                Err(msg) => {
                    eprintln!("dknpbench --recover: {msg}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(msg) => {
            eprintln!("dknpbench: {msg}");
            std::process::exit(1);
        }
    }
}

/// Run, report, and say whether every check passed.
fn bench(args: &Args) -> Result<bool, String> {
    let name = args.workload.name();
    println!(
        "# dknpbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Vec::new();
    let (runs, metrics) = if args.trace {
        // Same seed twice, each on half the time: the untraced run is the
        // baseline for trace.overhead_pct.
        let half = args.seconds / 2.0;
        let base = workloads::run(
            args.workload,
            Mode {
                seconds: half,
                setup_reps: 1,
                recovery_reps: 0,
                traced: false,
            },
            args.seed,
        )?;
        let traced = workloads::run(
            args.workload,
            Mode {
                seconds: half,
                setup_reps: 1,
                recovery_reps: 1,
                traced: true,
            },
            args.seed,
        )?;
        let metrics = trace::layers(&traced, base.primary_rate())?;
        (vec![base, traced], metrics)
    } else {
        let run = workloads::run(
            args.workload,
            Mode {
                seconds: args.seconds,
                setup_reps: SETUP_REPS,
                recovery_reps: RECOVERY_REPS,
                traced: false,
            },
            args.seed,
        )?;
        let metrics = end_to_end(&run, &mut checks);
        (vec![run], metrics)
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    for run in &runs {
        attempted += run.tally.attempted;
        failed += run.tally.failed;
        checks.extend(run.checks.iter().cloned());
        for note in &run.tally.notes {
            println!("# failure: {note}");
        }
    }
    let last = runs.last().expect("at least one run");
    println!(
        "# wal_fs={} fsync_policy=one-fsync-per-group-commit dk_blocks={}->{} nodes={}",
        last.wal_fs,
        last.initial.0.size(),
        last.final_state.0.size(),
        last.initial.1.node_count()
    );
    for m in &metrics {
        let gated = args.trace || GATED.contains(&m.name);
        println!(
            "{}{}",
            human_line(m),
            if gated { "" } else { " [report only]" }
        );
    }
    println!(
        "{}",
        human_line(
            &Metric::new(
                "failed_ratio",
                ratio(failed as f64, attempted as f64),
                "ratio"
            )
            .note(format!("{failed} of {attempted} attempted"))
        ) + " [report only]"
    );
    for c in &checks {
        println!("# CHECK FAILED: {c}");
    }
    let correct = checks.is_empty() && failed == 0;
    let on_line: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| args.trace || GATED.contains(&m.name))
        .collect();
    println!("{}", result_line(correct, attempted, failed, &on_line));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "churn-adapt",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ChurnAdapt);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "read-hot", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "read-hot", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "read-hot", "--bogus", "1"]).is_err());
    }
}
