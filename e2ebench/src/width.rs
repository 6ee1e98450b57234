//! `analyze-width`: `swa analyze <file>` through `swa_cli::run`, in
//! process, over configurations that span tasks per partition and jobs
//! per hyperperiod.

use std::path::{Path, PathBuf};

use swa_core::{
    analyze_spanning, extract_system_trace, Analysis, Analyzer, EvalEngine, SystemModel,
};
use swa_ima::Configuration;
use swa_xmlio::configuration_with_topology_from_xml;

use crate::harness::{repeated_setup, time_ms, timed_rounds, LayerSums, Outcome};
use crate::oracle::{closed_form_completions, hyperperiod, job_count, supply_violation};
use crate::spec::{generate, Shape};

/// One size class of the mix and how many of its members a round holds.
struct Class {
    name: &'static str,
    shape: Shape,
    copies: usize,
}

const MENU: &[i64] = &[1000, 2000, 4000, 8000];
const MENU_FAST: &[i64] = &[250, 500, 1000, 2000, 4000, 8000, 16000];

fn classes() -> Vec<Class> {
    let base = Shape {
        modules: 4,
        parts_per_core: 2,
        tasks_per_part: 16,
        periods: MENU,
        load: 0.6,
        messages_per_module: 0,
    };
    // Latency tiers (p50 and p90 each fall well inside one class):
    // narrow and closed-form below, mid around p50, wide above it up to
    // past p90, long-horizon on top. See README.md.
    vec![
        // 8 partitions x 16 tasks, 480 jobs: the narrow end.
        Class {
            name: "narrow",
            shape: base,
            copies: 8,
        },
        // Closed-form family: 4 single-partition cores, 60 tasks of
        // period L each, one full-hyperperiod window.
        Class {
            name: "closed-form",
            shape: Shape {
                parts_per_core: 1,
                tasks_per_part: 60,
                periods: &[60000],
                load: 0.8,
                ..base
            },
            copies: 2,
        },
        // 8 x 67 tasks, 2032 jobs; three of the fifteen are overloaded
        // past their window supply.
        Class {
            name: "mid",
            shape: Shape {
                tasks_per_part: 67,
                ..base
            },
            copies: 12,
        },
        Class {
            name: "mid",
            shape: Shape {
                tasks_per_part: 67,
                load: 1.25,
                ..base
            },
            copies: 3,
        },
        // 2 partitions x 200 tasks, 7352 jobs: the wide end.
        Class {
            name: "wide",
            shape: Shape {
                modules: 1,
                tasks_per_part: 200,
                periods: MENU_FAST,
                ..base
            },
            copies: 14,
        },
        // Long horizon: few tasks, 61 444 jobs; its trace sets peak memory.
        Class {
            name: "long-horizon",
            shape: Shape {
                parts_per_core: 1,
                tasks_per_part: 5,
                periods: &[8, 16, 32, 64, 65536],
                ..base
            },
            copies: 1,
        },
    ]
}

struct Input {
    class: &'static str,
    path: PathBuf,
    jobs: u64,
    hyperperiod: i64,
    /// The supply test's verdict: `true` when it proves unschedulability.
    overloaded: bool,
    /// Expected completion times for closed-form members.
    closed_form: Option<Vec<Vec<i64>>>,
}

struct Setup {
    inputs: Vec<Input>,
}

fn set_up(dir: &Path, seed: u64) -> Setup {
    std::fs::create_dir_all(dir).expect("create the input directory");
    let mut inputs = Vec::new();
    for (c, class) in classes().iter().enumerate() {
        for k in 0..class.copies {
            let spec = generate(
                &class.shape,
                seed.wrapping_mul(1000).wrapping_add((c * 64 + k) as u64),
            );
            let path = dir.join(format!("{}-{c}-{k}.xml", class.name));
            std::fs::write(&path, spec.to_xml()).expect("write an input file");
            let closed_form = (class.shape.parts_per_core == 1 && class.shape.periods.len() == 1)
                .then(|| {
                    (0..spec.parts.len())
                        .map(|p| {
                            closed_form_completions(&spec, p).expect("closed-form member fits L")
                        })
                        .collect()
                });
            inputs.push(Input {
                class: class.name,
                jobs: job_count(&spec),
                hyperperiod: hyperperiod(&spec),
                overloaded: supply_violation(&spec).is_some(),
                closed_form,
                path,
            });
        }
    }
    // Interleave the classes through the round.
    let mut rng = swa_workload::Rng64::seed_from_u64(seed ^ 0x5eed);
    rng.shuffle(&mut inputs);
    // Warm-up: one untimed analysis of each class.
    let mut warmed: Vec<&str> = Vec::new();
    for input in &inputs {
        if !warmed.contains(&input.class) {
            warmed.push(input.class);
            std::hint::black_box(analyze(&input.path));
        }
    }
    Setup { inputs }
}

fn analyze(path: &Path) -> swa_cli::CommandOutcome {
    swa_cli::run(&["analyze".to_string(), path.display().to_string()])
}

/// Checks one `swa analyze` result against the independent oracles.
fn check(input: &Input, out: &swa_cli::CommandOutcome, outcome: &mut Outcome) -> bool {
    let header = out.stdout.lines().next().unwrap_or("");
    let expected = format!("{} jobs over L = {}", input.jobs, input.hyperperiod);
    let mut ok = header.ends_with(&expected) && (out.exit_code == 0 || out.exit_code == 2);
    outcome.check(ok, || {
        format!("{}: header {header:?}, expected {expected:?}", input.class)
    });
    if input.overloaded && out.exit_code != 2 {
        ok = false;
        outcome.check(false, || {
            format!(
                "{}: supply test proves a miss, exit {}",
                input.class, out.exit_code
            )
        });
    }
    if let Some(parts) = &input.closed_form {
        let wcrts: Vec<i64> = out
            .stdout
            .lines()
            .filter_map(|l| l.split("wcrt=").nth(1))
            .filter_map(|r| r.split_whitespace().next()?.parse().ok())
            .collect();
        let expected: Vec<i64> = parts.iter().flatten().copied().collect();
        let same = wcrts == expected && out.exit_code == 0;
        outcome.check(same, || {
            format!(
                "{}: completion times differ from the closed form",
                input.class
            )
        });
        ok &= same;
    }
    ok
}

pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path) -> Outcome {
    let dir = work.join("analyze-width");
    let (setup, setup_s) = repeated_setup(|| set_up(&dir, seed));
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut seen: Vec<&str> = Vec::new();
    for input in &setup.inputs {
        if !seen.contains(&input.class) {
            seen.push(input.class);
            outcome.notes.push(format!(
                "class {}: {} jobs over L = {}{}",
                input.class,
                input.jobs,
                input.hyperperiod,
                if input.closed_form.is_some() {
                    ", closed form"
                } else {
                    ""
                }
            ));
        }
    }
    if traced {
        trace(&setup, seconds, &mut outcome);
    } else {
        timed_rounds(seconds, &mut outcome, |_, outcome| {
            for input in &setup.inputs {
                let (out, ms) = time_ms(|| analyze(&input.path));
                outcome.attempted += 1;
                if check(input, &out, outcome) {
                    outcome.record(input.class, ms);
                } else {
                    outcome.failed += 1;
                }
            }
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The traced run: alternate untraced rounds (the operation as users run
/// it) with traced rounds that call each layer's public function on the
/// same input and time every call.
fn trace(setup: &Setup, seconds: u64, outcome: &mut Outcome) {
    let mut sums = LayerSums::default();
    let (mut op_ms, mut op_n, mut traced_ms, mut traced_n) = (0.0, 0u64, 0.0, 0u64);
    timed_rounds(seconds, outcome, |r, outcome| {
        for input in &setup.inputs {
            outcome.attempted += 1;
            if r % 2 == 0 {
                let (out, ms) = time_ms(|| analyze(&input.path));
                op_ms += ms;
                op_n += 1;
                if check(input, &out, outcome) {
                    outcome.record(input.class, ms);
                } else {
                    outcome.failed += 1;
                }
            } else {
                let (ok, ms) = time_ms(|| layered(input, &mut sums));
                traced_ms += ms;
                traced_n += 1;
                if ok {
                    outcome.record(input.class, ms);
                } else {
                    outcome.failed += 1;
                    outcome.check(false, || {
                        format!("{}: layered verdict disagrees", input.class)
                    });
                }
            }
        }
    });
    let n = traced_n.max(1) as f64;
    let rounds = (traced_n as f64 / setup.inputs.len() as f64).max(1.0);
    let covered = [
        "xmlio.parse_ms",
        "core.build_ms",
        "nsa.compile_ms",
        "nsa.simulate_ms",
        "core.extract_ms",
        "core.judge_ms",
        "cli.render_ms",
        "cli.read_ms",
    ]
    .iter()
    .map(|k| sums.get(k))
    .sum::<f64>()
        / n;
    let op_mean = op_ms / op_n.max(1) as f64;
    let l = &mut outcome.layers;
    for key in [
        "xmlio.parse_ms",
        "ima.validate_ms",
        "core.build_ms",
        "nsa.compile_ms",
        "nsa.simulate_ms",
        "core.extract_ms",
        "core.judge_ms",
        "cli.render_ms",
    ] {
        l.insert(key.to_string(), sums.get(key) / n);
    }
    for key in [
        "nsa.steps",
        "nsa.events",
        "nsa.wheel_wakeups",
        "nsa.compile_ops",
        "core.jobs",
    ] {
        l.insert(key.to_string(), sums.get(key) / rounds);
    }
    l.insert(
        "nsa.steps_per_s.narrow".into(),
        sums.get("narrow.steps") / (sums.get("narrow.sim_ms") / 1e3),
    );
    l.insert(
        "nsa.steps_per_s.wide".into(),
        sums.get("wide.steps") / (sums.get("wide.sim_ms") / 1e3),
    );
    l.insert(
        "xmlio.mb_per_s".into(),
        sums.get("xml.bytes") / 1048576.0 / (sums.get("xmlio.parse_ms") / 1e3),
    );
    l.insert("unexplained_share".into(), 1.0 - covered / op_mean);
    l.insert("trace_overhead".into(), (traced_ms / n) / op_mean - 1.0);
}

/// Runs `swa analyze`'s pipeline one public layer at a time and checks its
/// verdict against the supply test.
fn layered(input: &Input, sums: &mut LayerSums) -> bool {
    let (xml, read_ms) = time_ms(|| std::fs::read_to_string(&input.path).expect("read input"));
    let ((config, _), parse_ms) =
        time_ms(|| configuration_with_topology_from_xml(&xml).expect("parse"));
    let (valid, validate_ms) = time_ms(|| config.validate().is_ok());
    let (analysis, sim) = layered_analysis(&config, sums);
    let (_, render_ms) = time_ms(|| {
        format!(
            "configuration: {} partitions, {} jobs over L = {}\n{}",
            config.partitions.len(),
            analysis.jobs.len(),
            analysis.hyperperiod,
            analysis.summary()
        )
    });
    for (k, v) in [
        ("cli.read_ms", read_ms),
        ("xmlio.parse_ms", parse_ms),
        ("ima.validate_ms", validate_ms),
        ("cli.render_ms", render_ms),
        ("xml.bytes", xml.len() as f64),
    ] {
        sums.add(k, v);
    }
    match input.class {
        "narrow" => {
            sums.add("narrow.steps", sim.0);
            sums.add("narrow.sim_ms", sim.1);
        }
        "wide" => {
            sums.add("wide.steps", sim.0);
            sums.add("wide.sim_ms", sim.1);
        }
        _ => {}
    }
    valid && analysis.jobs.len() as u64 == input.jobs && !(input.overloaded && analysis.schedulable)
}

/// Algorithm 1 build, bytecode compile, simulation, trace extraction and
/// judging, each timed into `sums`. Returns the analysis and the run's
/// `(steps, simulate ms)`.
pub fn layered_analysis(config: &Configuration, sums: &mut LayerSums) -> (Analysis, (f64, f64)) {
    let (model, build_ms) = time_ms(|| SystemModel::build(config).expect("build"));
    let (ops, compile_ms) = time_ms(|| model.network().compiled().stats().ops);
    let (sim, sim_ms) = time_ms(|| {
        model
            .simulator()
            .engine(EvalEngine::Bytecode)
            .run()
            .expect("simulate")
    });
    let (trace, extract_ms) = time_ms(|| extract_system_trace(&model, config, &sim.trace));
    let (analysis, judge_ms) = time_ms(|| analyze_spanning(config, &trace, 1));
    for (k, v) in [
        ("core.build_ms", build_ms),
        ("nsa.compile_ms", compile_ms),
        ("nsa.simulate_ms", sim_ms),
        ("core.extract_ms", extract_ms),
        ("core.judge_ms", judge_ms),
        ("nsa.steps", sim.steps as f64),
        ("nsa.events", sim.trace.len() as f64),
        ("nsa.wheel_wakeups", sim.stats.wheel_wakeups as f64),
        ("nsa.compile_ops", ops as f64),
        ("core.jobs", analysis.jobs.len() as f64),
    ] {
        sums.add(k, v);
    }
    (analysis, (sim.steps as f64, sim_ms))
}

/// The verdict of a direct, cold, whole-configuration analysis: no cache,
/// no ladder, no composition.
pub fn cold_verdict(xml: &str) -> bool {
    let config = swa_xmlio::configuration_from_xml(xml).expect("generated XML parses");
    Analyzer::new(&config)
        .run()
        .expect("generated configurations analyze")
        .schedulable()
}
