//! Run loop, statistics and result reporting shared by the workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median of the set-up repetitions, in seconds.
    pub setup_s: f64,
    /// Per-operation latencies of the timed phase, in ms, with the
    /// class of each operation.
    pub latencies_ms: Vec<f64>,
    pub classes: Vec<&'static str>,
    /// Wall time of the timed phase.
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the output checks (empty when all passed).
    pub errors: Vec<String>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Facts about the inputs and checks, printed as comment lines.
    pub notes: Vec<String>,
    /// Peak resident memory at the end of the timed phase, in MiB. The
    /// checks that run after it (cold reference analyses) do not count.
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn record(&mut self, class: &'static str, ms: f64) {
        self.latencies_ms.push(ms);
        self.classes.push(class);
    }

    /// Per class: operation count and median latency; and the classes
    /// that hold the p50 and p90 operations.
    pub fn class_summary(&self) -> (Vec<(&'static str, usize, f64)>, &'static str, &'static str) {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (&c, &ms) in self.classes.iter().zip(&self.latencies_ms) {
            by.entry(c).or_default().push(ms);
        }
        let rows = by
            .into_iter()
            .map(|(c, mut v)| (c, v.len(), median(&mut v)))
            .collect();
        let mut order: Vec<usize> = (0..self.latencies_ms.len()).collect();
        order.sort_by(|&a, &b| self.latencies_ms[a].total_cmp(&self.latencies_ms[b]));
        let at = |q: f64| {
            let rank = (q * order.len() as f64).ceil() as usize;
            self.classes[order[rank.clamp(1, order.len()) - 1]]
        };
        (rows, at(0.5), at(0.9))
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }
}

/// Set-up is repeated this many times per run and its median reported,
/// so a single slow repetition does not move `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// A run must hold at least this many timed operations, so its p90 has at
/// least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last state; returns
/// it with the median set-up time in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state before building the next one, so peak
        // memory holds one state, not two.
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&mut times))
}

/// Runs whole rounds until `seconds` have passed and at least
/// [`MIN_SAMPLES`] operations are timed, then records the wall time and
/// the peak memory so far. `round(r, outcome)` runs round `r` and records
/// one latency per operation.
pub fn timed_rounds(seconds: u64, outcome: &mut Outcome, mut round: impl FnMut(u64, &mut Outcome)) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed() < budget || outcome.latencies_ms.len() < MIN_SAMPLES {
        round(r, outcome);
        r += 1;
    }
    outcome.wall = start.elapsed();
    outcome.peak_rss_mb = peak_rss_mb();
}

/// Times one call, returning its result and the elapsed milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e3)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`); sorts `values`.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulates per-layer times and counts over a traced phase.
#[derive(Debug, Default)]
pub struct LayerSums {
    sums: BTreeMap<&'static str, f64>,
}

impl LayerSums {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Formats a result line with exactly the keys the benchmark contract
/// names.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut [7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("latency_p50_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
