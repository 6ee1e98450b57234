//! End-to-end benchmark of `swa`: one command, three workloads, every
//! output checked against oracles kept in this package.
//!
//! ```console
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload analyze-width --seed 1 --seconds 20 --trace 0
//! ... --trace 1            # per-layer metrics instead of end-to-end ones
//! ... --steady 5           # repeat the workload in 5 child runs, print spread
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads and the metrics.

mod design;
mod harness;
mod oracle;
mod serve_mixed;
mod spec;
mod width;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{median, percentile, result_line, Outcome};

const WORKLOADS: &[&str] = &["analyze-width", "serve-mixed", "design-loop"];

/// Per-layer metrics, printed by every traced run; a layer that a
/// workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("xmlio.parse_ms", "ms"),
    ("ima.validate_ms", "ms"),
    ("core.build_ms", "ms"),
    ("nsa.compile_ms", "ms"),
    ("nsa.simulate_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.judge_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("serve.json_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("core.canon_ms", "ms"),
    ("core.cache_probe_ms", "ms"),
    ("core.compose_probe_ms", "ms"),
    ("core.ladder_ms", "ms"),
    ("schedtool.search_ms", "ms"),
    ("sweep.run_ms", "ms"),
    ("nsa.steps", "count/round"),
    ("nsa.events", "count/round"),
    ("nsa.wheel_wakeups", "count/round"),
    ("nsa.compile_ops", "count/round"),
    ("core.jobs", "count/round"),
    ("serve.analyses", "count/round"),
    ("serve.ladder_decided", "count/round"),
    ("schedtool.candidates", "count/round"),
    ("sweep.probes", "count/round"),
    ("sweep.simulated", "count/round"),
    ("nsa.steps_per_s.narrow", "1/s"),
    ("nsa.steps_per_s.wide", "1/s"),
    ("xmlio.mb_per_s", "MiB/s"),
    ("core.cache_hit_rate", "ratio"),
    ("core.ladder_decided_rate", "ratio"),
    ("sweep.reuse_rate", "ratio"),
    ("schedtool.speculation_waste", "ratio"),
    ("unexplained_share", "ratio"),
    ("trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
    };
    let number = |name: &str, default: u64| -> Result<u64, String> {
        value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} expects a whole number, got {v:?}"))
        })
    };
    let workload = value("--workload").ok_or("missing --workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace expects 0 or 1, got {v:?}")),
    };
    let steady = match value("--steady") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--steady expects a count, got {v:?}"))?,
        ),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 20)?.max(1),
        trace,
        steady,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("e2ebench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} nproc={nproc} profile=release rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("E2EBENCH_RUSTC_VERSION"),
    );
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    // Busy threads at once: the client plus one analysis thread. A box
    // with fewer cores than that would measure contention, not the code.
    if nproc < 2 && args.workload == "serve-mixed" {
        eprintln!("e2ebench: serve-mixed keeps 2 threads busy; nproc = {nproc}");
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".e2ebench-work").join(std::process::id().to_string());
    let outcome = match args.workload.as_str() {
        "analyze-width" => width::run(args.seed, args.seconds, args.trace, &work),
        "serve-mixed" => serve_mixed::run(args.seed, args.seconds, args.trace),
        _ => design::run(args.seed, args.seconds, args.trace),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".e2ebench-work");
    report(&args, outcome)
}

fn report(args: &Args, mut o: Outcome) -> ExitCode {
    for e in &o.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    for note in &o.notes {
        println!("# {note}");
    }
    let correct = o.errors.is_empty();
    let n = o.latencies_ms.len();
    if n == 0 {
        eprintln!("e2ebench: no operation completed");
        return ExitCode::from(1);
    }
    let line = if args.trace {
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, o.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        for (name, v, unit) in &metrics {
            println!("#   {name:<28} {v:>14.4} {unit}");
        }
        result_line(correct, o.attempted, o.failed, &metrics)
    } else {
        let throughput = n as f64 / o.wall.as_secs_f64();
        println!("# {n} timed operations over {:.2} s", o.wall.as_secs_f64());
        let (rows, c50, c90) = o.class_summary();
        let p50 = percentile(&mut o.latencies_ms, 0.5);
        let p90 = percentile(&mut o.latencies_ms, 0.9);
        for (class, count, med) in rows {
            println!("#   class {class:<16} {count:>6} ops  median {med:>10.3} ms");
        }
        println!("#   p50 falls in {c50}, p90 in {c90}");
        result_line(
            correct,
            o.attempted,
            o.failed,
            &[
                ("setup_s", o.setup_s, "s"),
                ("throughput_per_s", throughput, "ops/s"),
                ("latency_p50_ms", p50, "ms"),
                ("latency_p90_ms", p90, "ms"),
                ("peak_rss_mb", o.peak_rss_mb, "MiB"),
            ],
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Steadiness mode: runs the workload `runs` times, each in a child
/// process of its own (peak memory is per process) with seeds 1..=runs,
/// and prints each metric's median, quartiles and spread.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for seed in 1..=runs as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let Ok(out) = out else {
            eprintln!("e2ebench: child run failed to start");
            return ExitCode::from(1);
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(last) = text.lines().last() else {
            eprintln!("e2ebench: child run printed nothing");
            return ExitCode::from(1);
        };
        println!("# seed {seed}: {last}");
        for (name, v) in parse_metrics(last) {
            values.entry(name).or_default().push(v);
        }
    }
    println!(
        "# {:<28} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "metric", "q1", "median", "q3", "iqr/med", "range/med"
    );
    for (name, mut v) in values {
        let med = median(&mut v);
        let (q1, q3) = quartiles(&v);
        let (lo, hi) = (v[0], v[v.len() - 1]);
        println!(
            "# {name:<28} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
            (q3 - q1) / med,
            (hi - lo) / med
        );
    }
    ExitCode::SUCCESS
}

/// Quartiles of sorted `v` by the exclusive method of Python's
/// `statistics.quantiles(v, n=4)`.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Pulls `"name": {"value": X` pairs out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(metrics) = line.split("\"metrics\": {").nth(1) else {
        return Vec::new();
    };
    metrics
        .split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?.to_string();
            let value = entry
                .split("\"value\": ")
                .nth(1)?
                .split(',')
                .next()?
                .trim()
                .parse()
                .ok()?;
            Some((name, value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }

    #[test]
    fn result_lines_parse_back() {
        let line = result_line(true, 2, 0, &[("a.b", 1.25, "ms"), ("setup_s", 3.0, "s")]);
        assert_eq!(
            parse_metrics(&line),
            vec![("a.b".to_string(), 1.25), ("setup_s".to_string(), 3.0)]
        );
    }
}
