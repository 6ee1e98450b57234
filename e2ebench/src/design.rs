//! `design-loop`: each step edits one partition's WCETs in a multi-module
//! design problem, searches a schedulable configuration with
//! `swa_schedtool::search_with` (parallelism 1), then sweeps the WCET
//! axis of the result with `swa_sweep::run_sweep`. The verdict cache,
//! compositional analysis and ladder `fast` are shared across the steps
//! of a round.

use std::sync::Arc;

use swa_core::{
    canonicalize, compositional_lookup, Analyzer, LadderMode, MetricsRecorder, NoopRecorder,
    Recorder, ShardedVerdictCache, VerdictCache, VerdictLadder,
};
use swa_ima::Configuration;
use swa_schedtool::{search_with, DesignProblem, SearchOptions};
use swa_sweep::{run_sweep, Axis, SweepEngine, SweepOptions};

use crate::harness::{repeated_setup, time_ms, timed_rounds, LayerSums, Outcome};
use crate::spec::{generate, Shape};

/// New steps per round: distinct edits, so they insert cache entries.
const NEW_STEPS: usize = 24;
/// Revisits per round: repeats of the round's earlier steps, answered
/// from the cache. 24 new to 56 revisits puts p50 inside the revisits and
/// p90 inside the new steps.
const REVISITS: usize = 56;

/// Problems: two modules of two partitions with 12 tasks each, and two
/// same-period messages per module, so the window RTA tier abstains on
/// them and simulation decides the contested band.
const SHAPE: Shape = Shape {
    modules: 2,
    parts_per_core: 2,
    tasks_per_part: 12,
    periods: &[1000, 1500, 3000],
    load: 0.8,
    messages_per_module: 2,
};

/// WCET edits: one partition scaled by one of these factors.
const EDITS: &[f64] = &[1.15, 0.85, 1.3, 0.7];

struct Step {
    problem: DesignProblem,
    /// The step's output, verified after the timed phase: the found
    /// configuration and the sweep report, with its canonical rendering.
    found: Configuration,
    report: swa_sweep::SweepReport,
    report_json: String,
}

struct Setup {
    steps: Vec<Step>,
    /// Round order: indices into `steps`; a step's first occurrence is a
    /// new step, later ones revisit it.
    order: Vec<usize>,
}

fn search_options() -> SearchOptions {
    SearchOptions {
        parallelism: 1,
        ladder: LadderMode::Fast,
        ..SearchOptions::default()
    }
}

fn sweep_options() -> SweepOptions {
    SweepOptions {
        compositional: true,
        ladder: LadderMode::Fast,
        ..SweepOptions::default()
    }
}

fn edited(base: &DesignProblem, partition: usize, factor: f64) -> DesignProblem {
    let mut p = base.clone();
    for t in &mut p.partitions[partition].tasks {
        for w in &mut t.wcet {
            #[allow(clippy::cast_possible_truncation)]
            let scaled = (*w as f64 * factor).round() as i64;
            *w = scaled.clamp(1, t.period);
        }
    }
    p
}

/// One step: search, then sweep the result, over the round's shared
/// cache; `sums` collects the two layers' times and the search's counts.
/// Returns the found configuration and the sweep report, or `None` when
/// the search finds nothing.
fn step(
    problem: &DesignProblem,
    cache: &Arc<ShardedVerdictCache>,
    recorder: Option<&Arc<MetricsRecorder>>,
    sums: Option<&mut LayerSums>,
) -> Option<(Configuration, swa_sweep::SweepReport)> {
    let mut analyzer = Analyzer::configure()
        .cache(cache.clone() as Arc<dyn VerdictCache>)
        .compositional(true)
        .parallelism(1);
    if let Some(r) = recorder {
        analyzer = analyzer.recorder(r.clone() as Arc<dyn Recorder>);
    }
    let (outcome, search_ms) =
        time_ms(|| search_with(problem, &search_options(), &analyzer).expect("search runs"));
    let found = outcome.configuration?;
    let mut engine = SweepEngine::new(found.clone(), sweep_options())
        .expect("found configurations sweep")
        .cache(cache.clone() as Arc<dyn VerdictCache>);
    if let Some(r) = recorder {
        engine = engine.recorder(r.clone() as Arc<dyn Recorder>);
    }
    let (report, sweep_ms) = time_ms(|| {
        run_sweep(&mut engine, Axis::WcetScale, false, |_| {}, || false).expect("sweep runs")
    });
    if let Some(s) = sums {
        s.add("schedtool.search_ms", search_ms);
        s.add("sweep.run_ms", sweep_ms);
        s.add("schedtool.candidates", outcome.iterations.len() as f64);
        s.add(
            "schedtool.simulated",
            outcome
                .iterations
                .iter()
                .filter(|i| !i.check_time.is_zero())
                .count() as f64,
        );
    }
    Some((found, report))
}

/// Checks a step's output independently of any cache or tier: the found
/// configuration is schedulable under a cold whole analysis, and a
/// certified bracket is tight, schedulable at `lo` and not at `hi`.
fn verify(found: &Configuration, report: &swa_sweep::SweepReport) -> Result<(), String> {
    let cold = |c: &Configuration| {
        Analyzer::new(c)
            .run()
            .map(|r| r.schedulable())
            .map_err(|e| e.to_string())
    };
    if !cold(found)? {
        return Err("search result is unschedulable when re-analyzed cold".into());
    }
    let b = &report.breakdown;
    if b.certified(report.tolerance) {
        let (lo, hi) = (
            b.lo.expect("certified has lo"),
            b.hi.expect("certified has hi"),
        );
        if hi - lo > report.tolerance + 1e-12 {
            return Err(format!(
                "bracket [{lo}, {hi}] wider than {}",
                report.tolerance
            ));
        }
        let at = |f: f64| Axis::WcetScale.apply(found, f);
        if !cold(&at(lo).map_err(|e| e.to_string())?)? {
            return Err(format!("unschedulable at the bracket's lo {lo}"));
        }
        match at(hi) {
            Ok(c) if cold(&c)? => return Err(format!("schedulable at the bracket's hi {hi}")),
            Ok(_) => {}
            // Past the parameter domain (a WCET longer than its windows):
            // no configuration exists there, so none is schedulable.
            Err(e) if e.is_domain_edge() => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let mut steps = Vec::new();
    // Screen seeded (problem, edit) pairs until enough have a schedulable
    // configuration. Each screen starts from an empty cache, so set-up
    // memory does not grow with the number of pairs screened.
    let mut candidate = 0u64;
    while steps.len() < NEW_STEPS {
        if candidate > 64 {
            return Err("too few searchable design problems".into());
        }
        let spec = generate(&SHAPE, seed.wrapping_mul(1000).wrapping_add(candidate));
        let config =
            swa_xmlio::configuration_from_xml(&spec.to_xml()).map_err(|e| e.to_string())?;
        let base = DesignProblem::from_configuration(&config);
        let problem = edited(
            &base,
            (candidate % 4) as usize,
            EDITS[(candidate % EDITS.len() as u64) as usize],
        );
        candidate += 1;
        let cache = Arc::new(ShardedVerdictCache::new(64 << 20));
        if let Some((found, report)) = step(&problem, &cache, None, None) {
            steps.push(Step {
                problem,
                found,
                report_json: report.render_json(),
                report,
            });
        }
    }
    let mut rng = swa_workload::Rng64::seed_from_u64(seed ^ 0x5eed);
    let mut order: Vec<usize> = (0..NEW_STEPS).collect();
    for _ in 0..REVISITS {
        order.push(rng.gen_range(NEW_STEPS));
    }
    // A step's first occurrence in a round is its new visit; the round
    // starts from an empty cache, so the later ones are revisits.
    rng.shuffle(&mut order);
    let setup = Setup { steps, order };
    // Warm-up: one untimed round.
    let cache = Arc::new(ShardedVerdictCache::new(64 << 20));
    for &i in &setup.order {
        std::hint::black_box(step(&setup.steps[i].problem, &cache, None, None));
    }
    Ok(setup)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (setup, setup_s) = repeated_setup(|| set_up(seed));
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            outcome.check(false, || e);
            return outcome;
        }
    };
    let mut sums = LayerSums::default();
    let recorder = Arc::new(MetricsRecorder::new());
    let (mut untraced_ms, mut untraced_n, mut traced_ms, mut traced_n) = (0.0, 0u64, 0.0, 0u64);
    timed_rounds(seconds, &mut outcome, |r, outcome| {
        let trace_round = traced && r % 2 == 1;
        // A fresh cache per round: every round inserts the same new
        // entries and reads the same revisits.
        let cache = ShardedVerdictCache::new(64 << 20);
        let cache = Arc::new(if trace_round {
            cache.with_recorder(recorder.clone() as Arc<dyn Recorder>)
        } else {
            cache
        });
        let mut visited = vec![false; setup.steps.len()];
        for &i in &setup.order {
            let s = &setup.steps[i];
            let class = if visited[i] { "revisit" } else { "new" };
            visited[i] = true;
            let (out, ms) = if trace_round {
                time_ms(|| step(&s.problem, &cache, Some(&recorder), Some(&mut sums)))
            } else {
                time_ms(|| step(&s.problem, &cache, None, None))
            };
            outcome.attempted += 1;
            if trace_round {
                probes(&s.found, &cache, &mut sums);
            }
            let ok = out.is_some_and(|(found, report)| {
                found == s.found && report.render_json() == s.report_json
            });
            outcome.check(ok, || {
                format!("{class} step: output differs from the set-up run's")
            });
            if ok {
                outcome.record(class, ms);
                if trace_round {
                    traced_ms += ms;
                    traced_n += 1;
                } else {
                    untraced_ms += ms;
                    untraced_n += 1;
                }
            } else {
                outcome.failed += 1;
            }
        }
    });
    for s in &setup.steps {
        if let Err(e) = verify(&s.found, &s.report) {
            outcome.check(false, || e);
        }
    }
    let certified = setup
        .steps
        .iter()
        .filter(|s| s.report.breakdown.certified(s.report.tolerance))
        .count();
    outcome.notes.push(format!(
        "{certified} of {} sweep brackets certified; each re-analyzed cold at lo and hi",
        setup.steps.len()
    ));
    if traced {
        finish_trace(
            &setup,
            &sums,
            &recorder,
            traced_n,
            traced_ms,
            untraced_n,
            untraced_ms,
            &mut outcome,
        );
    }
    outcome
}

/// One probe of each kind on a step's result, timed from here: the
/// per-candidate work the search and the sweep repeat inside.
fn probes(found: &Configuration, cache: &Arc<ShardedVerdictCache>, sums: &mut LayerSums) {
    let (canon, canon_ms) = time_ms(|| canonicalize(found, 1));
    let (_, probe_ms) = time_ms(|| cache.lookup(&canon));
    let (_, compose_ms) = time_ms(|| compositional_lookup(cache.as_ref(), found, 1));
    let (_, ladder_ms) =
        time_ms(|| VerdictLadder::new(LadderMode::Fast).evaluate(found, &NoopRecorder));
    sums.add("core.canon_ms", canon_ms);
    sums.add("core.cache_probe_ms", probe_ms);
    sums.add("core.compose_probe_ms", compose_ms);
    sums.add("core.ladder_ms", ladder_ms);
}

#[allow(clippy::too_many_arguments)]
fn finish_trace(
    setup: &Setup,
    sums: &LayerSums,
    recorder: &MetricsRecorder,
    traced_n: u64,
    traced_ms: f64,
    untraced_n: u64,
    untraced_ms: f64,
    outcome: &mut Outcome,
) {
    let n = traced_n.max(1) as f64;
    let rounds = n / setup.order.len() as f64;
    let c = |name: &str| recorder.counter_value(name) as f64;
    let span = |name: &str| recorder.span_total(name).as_secs_f64() * 1e3;
    let l = &mut outcome.layers;
    for k in [
        "schedtool.search_ms",
        "sweep.run_ms",
        "core.canon_ms",
        "core.cache_probe_ms",
        "core.compose_probe_ms",
        "core.ladder_ms",
    ] {
        l.insert(k.into(), sums.get(k) / n);
    }
    // Candidate checks run through the batch engine, sweep probes through
    // the analyzer; both report their phases to the recorder.
    l.insert(
        "core.build_ms".into(),
        (span("build") + span("batch.build")) / n,
    );
    l.insert(
        "nsa.compile_ms".into(),
        (span("compile") + span("batch.compile")) / n,
    );
    l.insert(
        "nsa.simulate_ms".into(),
        (span("simulate") + span("batch.simulate")) / n,
    );
    l.insert(
        "core.judge_ms".into(),
        (span("analyze") + span("batch.analyze")) / n,
    );
    for (k, name) in [
        ("nsa.steps", "sim.steps"),
        ("nsa.events", "sim.events"),
        ("nsa.wheel_wakeups", "sim.wheel_wakeups"),
        ("nsa.compile_ops", "compile.ops"),
        ("sweep.probes", "sweep.probes"),
        ("sweep.simulated", "sweep.simulated"),
    ] {
        l.insert(k.into(), c(name) / rounds);
    }
    l.insert(
        "schedtool.candidates".into(),
        sums.get("schedtool.candidates") / rounds,
    );
    let probes = c("sweep.probes").max(1.0);
    l.insert(
        "sweep.reuse_rate".into(),
        (probes - c("sweep.simulated")) / probes,
    );
    let hits = c("cache.hits");
    l.insert(
        "core.cache_hit_rate".into(),
        hits / (hits + c("cache.misses")).max(1.0),
    );
    l.insert(
        "core.ladder_decided_rate".into(),
        c("ladder.decided") / c("ladder.evaluated").max(1.0),
    );
    let checks = c("batch.checks").max(1.0);
    l.insert(
        "schedtool.speculation_waste".into(),
        (checks - sums.get("schedtool.simulated")).max(0.0) / checks,
    );
    let covered = (sums.get("schedtool.search_ms") + sums.get("sweep.run_ms")) / n;
    let op = traced_ms / n;
    l.insert("unexplained_share".into(), 1.0 - covered / op);
    l.insert(
        "trace_overhead".into(),
        op / (untraced_ms / untraced_n.max(1) as f64) - 1.0,
    );
}
