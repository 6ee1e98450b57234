//! `serve-mixed`: loopback `POST /analyze` from one closed-loop client to
//! an in-process `swa_serve::Server` (one worker, verdict cache,
//! compositional analysis, ladder `fast`).

use std::sync::Arc;

use swa_core::{
    canonicalize, compositional_lookup, decompose, Analyzer, CachedVerdict, Decomposition,
    LadderMode, NoopRecorder, ShardedVerdictCache, VerdictCache, VerdictLadder,
};
use swa_serve::{client, render_verdict, Json, ServeOptions, Server};

use crate::harness::{repeated_setup, time_ms, timed_rounds, LayerSums, Outcome};
use crate::oracle::supply_violation;
use crate::spec::{generate, Shape, SysSpec};
use crate::width::{cold_verdict, layered_analysis};

const MENU: &[i64] = &[1000, 2000, 4000, 8000];

/// Request sizes: the body of a small request is about 10 KB, a medium
/// one about 40 KB, a big one about 80 KB and the large one about 150 KB. Every module carries
/// two intra-module messages, so the window RTA tier abstains and the
/// per-module compositional path is what answers sibling edits.
fn shape(size: Size, load: f64) -> Shape {
    let (modules, tasks_per_part) = match size {
        Size::Small => (2, 15),
        Size::Medium => (4, 30),
        Size::Big => (6, 40),
        Size::Large => (8, 55),
    };
    Shape {
        modules,
        parts_per_core: 2,
        tasks_per_part,
        periods: MENU,
        load,
        messages_per_module: 2,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Small,
    Medium,
    Big,
    Large,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An exact repeat of a primed configuration: a whole-key cache hit.
    Hit,
    /// A `no_cache` request: a cold whole-configuration simulation.
    Cold,
    /// A fresh overloaded configuration, decided by the ladder's T0 tier.
    Overload,
    /// A fresh edit of one module of a primed configuration: the other
    /// modules' verdicts come from the per-module cache.
    Sibling,
}

/// The round: how many operations of each kind and size. The weights put
/// p50 inside the medium hits and p90 inside the big cold analyses
/// (see README.md).
const MIX: &[(&str, Kind, Size, usize)] = &[
    ("hit-10k", Kind::Hit, Size::Small, 4),
    ("t0-10k", Kind::Overload, Size::Small, 2),
    ("cold-10k", Kind::Cold, Size::Small, 2),
    ("hit-40k", Kind::Hit, Size::Medium, 8),
    ("t0-40k", Kind::Overload, Size::Medium, 1),
    ("sibling-40k", Kind::Sibling, Size::Medium, 4),
    ("cold-80k", Kind::Cold, Size::Big, 3),
    ("hit-150k", Kind::Hit, Size::Large, 1),
];

/// One slot of the round.
struct Slot {
    kind: Kind,
    class: &'static str,
    spec: SysSpec,
    /// The body sent for primed configurations (fresh ones are rebuilt
    /// every round).
    body: String,
}

struct Setup {
    server: Server,
    slots: Vec<Slot>,
}

fn envelope(xml: &str, no_cache: bool) -> String {
    let mut s = String::with_capacity(xml.len() + xml.len() / 8 + 40);
    s.push_str("{\"config_xml\":\"");
    for c in xml.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s.push('"');
    if no_cache {
        s.push_str(",\"no_cache\":true");
    }
    s.push('}');
    s
}

/// The fresh variant of `spec` for round `r`: one task of partition 0 (in
/// module 0) gets a WCET no earlier round gave it, so the configuration
/// is new to the server while its module structure stays the same. Round
/// `None` is the warm-up, which lowers a WCET instead, so no timed round
/// repeats it.
fn fresh(spec: &SysSpec, r: Option<u64>) -> SysSpec {
    let mut spec = spec.clone();
    let tasks = &mut spec.parts[0].tasks;
    let n = tasks.len() as u64;
    match r {
        Some(r) => {
            let t = &mut tasks[(r % n) as usize];
            t.wcet = (t.wcet + 1 + (r / n) as i64).min(t.period);
        }
        None => {
            let t = tasks
                .iter_mut()
                .max_by_key(|t| t.wcet)
                .expect("nonempty partition");
            t.wcet = (t.wcet - 1).max(1);
        }
    }
    spec
}

fn set_up(seed: u64) -> Setup {
    let options = ServeOptions {
        workers: 1,
        compositional: true,
        ladder: LadderMode::Fast,
        ..ServeOptions::default()
    };
    let server = Server::start(&options).expect("start the server on a loopback port");
    let mut slots = Vec::new();
    for (i, &(class, kind, size, copies)) in MIX.iter().enumerate() {
        for k in 0..copies {
            let load = if kind == Kind::Overload { 1.3 } else { 0.6 };
            let spec = generate(
                &shape(size, load),
                seed.wrapping_mul(1000).wrapping_add((i * 64 + k) as u64),
            );
            let body = envelope(&spec.to_xml(), kind == Kind::Cold);
            slots.push(Slot {
                kind,
                class,
                spec,
                body,
            });
        }
    }
    let mut rng = swa_workload::Rng64::seed_from_u64(seed ^ 0x5eed);
    rng.shuffle(&mut slots);
    // Prime: every configuration the round repeats or edits is analyzed
    // once, so hits and per-module entries are warm.
    for slot in &slots {
        if matches!(slot.kind, Kind::Hit | Kind::Sibling) {
            let body = envelope(&slot.spec.to_xml(), false);
            std::hint::black_box(
                client::post(server.local_addr(), "/analyze", &body).expect("prime"),
            );
        }
    }
    let setup = Setup { server, slots };
    // Warm-up: one untimed request per class, with fresh variants no
    // timed round uses.
    let mut sink = Outcome::default();
    let mut seen = Vec::new();
    run_round(&setup, None, &mut sink, &mut seen, None);
    setup
}

/// A verdict the server gave: for slot `slot` in round `round` (`None`
/// for repeated configurations, which are the same every round).
struct Seen {
    slot: usize,
    round: Option<u64>,
    schedulable: bool,
}

/// Sends one round (round `None`: the warm-up, one request per class).
/// Every verdict is recorded in `seen` for the cold
/// re-analysis after the timed phase, which keeps that analysis's memory
/// out of the measured peak.
fn run_round(
    setup: &Setup,
    r: Option<u64>,
    outcome: &mut Outcome,
    seen: &mut Vec<Seen>,
    mut trace: Option<&mut Tracer>,
) {
    let addr = setup.server.local_addr();
    let mut warmed: Vec<&str> = Vec::new();
    for (i, slot) in setup.slots.iter().enumerate() {
        if r.is_none() {
            if warmed.contains(&slot.class) {
                continue;
            }
            warmed.push(slot.class);
        }
        let (body, spec) = match slot.kind {
            Kind::Hit | Kind::Cold => (None, None),
            Kind::Overload | Kind::Sibling => {
                let spec = fresh(&slot.spec, r);
                (Some(envelope(&spec.to_xml(), false)), Some(spec))
            }
        };
        let body = body.as_deref().unwrap_or(&slot.body);
        let (reply, ms) = time_ms(|| client::post(addr, "/analyze", body));
        outcome.attempted += 1;
        let verdict = reply
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| parse_reply(&r.body));
        let Some((schedulable, decided_by)) = verdict else {
            outcome.failed += 1;
            outcome.check(false, || format!("{}: request failed", slot.class));
            continue;
        };
        // Every T0 decision must be one the benchmark's own supply test
        // makes on the configuration sent.
        let sent = spec.as_ref().unwrap_or(&slot.spec);
        let ok = decided_by != "t0-utilization" || supply_violation(sent).is_some();
        outcome.check(ok, || {
            format!(
                "{}: T0 decided a configuration the supply test does not reject",
                slot.class
            )
        });
        seen.push(Seen {
            slot: i,
            round: spec.is_some().then_some(r).flatten(),
            schedulable,
        });
        if ok {
            outcome.record(slot.class, ms);
        } else {
            outcome.failed += 1;
        }
        if let Some(t) = trace.as_deref_mut() {
            t.layers(setup, slot, body, ms);
        }
    }
}

/// `(schedulable, decided_by)` from a 200 reply.
fn parse_reply(body: &str) -> Option<(bool, String)> {
    let doc = Json::parse(body).ok()?;
    let schedulable = match doc.get("schedulable")? {
        Json::Bool(b) => *b,
        _ => return None,
    };
    Some((schedulable, doc.get("decided_by")?.as_str()?.to_string()))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (setup, setup_s) = repeated_setup(|| set_up(seed));
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut seen = Vec::new();
    if traced {
        let mut tracer = Tracer::new(&setup);
        timed_rounds(seconds, &mut outcome, |r, outcome| {
            if r % 2 == 0 {
                let before = outcome.latencies_ms.len();
                run_round(&setup, Some(r), outcome, &mut seen, None);
                tracer.untraced_ms += outcome.latencies_ms[before..].iter().sum::<f64>();
                tracer.untraced_n += (outcome.latencies_ms.len() - before) as u64;
            } else {
                run_round(&setup, Some(r), outcome, &mut seen, Some(&mut tracer));
            }
        });
        tracer.finish(&setup, &mut outcome);
    } else {
        timed_rounds(seconds, &mut outcome, |r, outcome| {
            run_round(&setup, Some(r), outcome, &mut seen, None)
        });
    }
    setup.server.shutdown();
    // Every verdict against a direct cold whole-configuration analysis of
    // the same configuration.
    let mut references: Vec<Option<bool>> = vec![None; setup.slots.len()];
    for s in &seen {
        let slot = &setup.slots[s.slot];
        let want = match s.round {
            Some(r) => cold_verdict(&fresh(&slot.spec, Some(r)).to_xml()),
            None => *references[s.slot].get_or_insert_with(|| cold_verdict(&slot.spec.to_xml())),
        };
        outcome.check(want == s.schedulable, || {
            format!("{}: verdict disagrees with the cold analysis", slot.class)
        });
    }
    let mut sizes: Vec<String> = Vec::new();
    for &(class, ..) in MIX {
        let slot = setup
            .slots
            .iter()
            .find(|s| s.class == class)
            .expect("every class has a slot");
        sizes.push(format!("{class} {} B", slot.body.len()));
    }
    outcome
        .notes
        .push(format!("request bodies: {}", sizes.join(", ")));
    outcome.notes.push(format!(
        "{} verdicts checked against a cold whole analysis",
        seen.len()
    ));
    outcome
}

/// Per-layer timing of the traced rounds: after each request, the same
/// body goes through each server-side layer's public function, timed from
/// here, and once more to an unrouted path, which times the HTTP read and
/// reply alone.
struct Tracer {
    sums: LayerSums,
    /// A verdict cache holding what the server's holds, for probe timing.
    mirror: Arc<ShardedVerdictCache>,
    ops: u64,
    request_ms: f64,
    untraced_ms: f64,
    untraced_n: u64,
    metrics_before: (u64, u64),
}

impl Tracer {
    fn new(setup: &Setup) -> Self {
        // Filled the way the server fills its own: whole and per-module
        // keys of every primed configuration.
        let mirror = Arc::new(ShardedVerdictCache::new(64 << 20));
        for slot in &setup.slots {
            if matches!(slot.kind, Kind::Hit | Kind::Sibling) {
                let config = swa_xmlio::configuration_from_xml(&slot.spec.to_xml())
                    .expect("generated XML parses");
                let analyzer = Analyzer::new(&config)
                    .compositional(true)
                    .cache(mirror.clone() as Arc<dyn VerdictCache>);
                analyzer.run().expect("generated configurations analyze");
            }
        }
        Tracer {
            sums: LayerSums::default(),
            mirror,
            ops: 0,
            request_ms: 0.0,
            untraced_ms: 0.0,
            untraced_n: 0,
            metrics_before: server_counts(setup),
        }
    }

    fn layers(&mut self, setup: &Setup, slot: &Slot, body: &str, request_ms: f64) {
        let s = &mut self.sums;
        self.ops += 1;
        self.request_ms += request_ms;
        let (_, transport) =
            time_ms(|| client::post(setup.server.local_addr(), "/e2ebench-transport", body));
        let (doc, json_ms) = time_ms(|| Json::parse(body).expect("valid envelope"));
        let xml = doc
            .get("config_xml")
            .and_then(Json::as_str)
            .expect("config_xml")
            .to_string();
        let (config, parse_ms) =
            time_ms(|| swa_xmlio::configuration_from_xml(&xml).expect("valid xml"));
        let (_, validate_ms) = time_ms(|| config.validate().is_ok());
        let (canon, canon_ms) = time_ms(|| canonicalize(&config, 1));
        // `no_cache` requests skip the probes. The server's compositional
        // probe starts with the whole-key lookup, timed here on its own.
        let (verdict, probe_ms, compose_ms) = if slot.kind == Kind::Cold {
            (None, 0.0, 0.0)
        } else {
            let (_, probe_ms) = time_ms(|| self.mirror.lookup(&canon));
            let (composed, compose_ms) =
                time_ms(|| compositional_lookup(self.mirror.as_ref(), &config, 1));
            (composed, probe_ms, compose_ms)
        };
        let mut ladder_ms = 0.0;
        let mut decided = None;
        if verdict.is_none() && slot.kind != Kind::Cold {
            let (d, ms) =
                time_ms(|| VerdictLadder::new(LadderMode::Fast).evaluate(&config, &NoopRecorder));
            ladder_ms = ms;
            decided = d.map(|d| Arc::new(CachedVerdict::from_ladder(&d, &config)));
        }
        // Classes that simulate: the whole configuration when cold, the
        // edited module when a sibling edit misses the per-module cache.
        let simulated = match slot.kind {
            Kind::Cold => Some(config.clone()),
            Kind::Sibling if verdict.is_none() && decided.is_none() => match decompose(&config) {
                Decomposition::Modules(parts) => Some(parts[0].sub.clone()),
                Decomposition::Whole(_) => Some(config.clone()),
            },
            _ => None,
        };
        let mut sim_verdict = None;
        if let Some(sub) = simulated {
            let (report, _) = layered_analysis(&sub, s);
            sim_verdict = Some(Arc::new(CachedVerdict::from_analysis(&report)));
        }
        let shown = verdict
            .or(decided)
            .or(sim_verdict)
            .expect("some layer gives a verdict");
        let (_, render_ms) = time_ms(|| render_verdict(&shown, true, canon.key, 0.0));
        for (k, v) in [
            ("serve.transport_ms", transport),
            ("serve.json_ms", json_ms),
            ("xmlio.parse_ms", parse_ms),
            ("ima.validate_ms", validate_ms),
            ("core.canon_ms", canon_ms),
            ("core.cache_probe_ms", probe_ms),
            ("core.compose_probe_ms", compose_ms),
            ("core.ladder_ms", ladder_ms),
            ("serve.render_ms", render_ms),
            ("xml.bytes", xml.len() as f64),
        ] {
            s.add(k, v);
        }
    }

    fn finish(self, setup: &Setup, outcome: &mut Outcome) {
        let n = self.ops.max(1) as f64;
        let rounds = n / setup.slots.len() as f64;
        let (analyses, decided) = server_counts(setup);
        let (a0, d0) = self.metrics_before;
        let s = &self.sums;
        let l = &mut outcome.layers;
        let times = [
            "serve.transport_ms",
            "serve.json_ms",
            "xmlio.parse_ms",
            "ima.validate_ms",
            "core.canon_ms",
            "core.compose_probe_ms",
            "core.ladder_ms",
            "core.build_ms",
            "nsa.compile_ms",
            "nsa.simulate_ms",
            "core.extract_ms",
            "core.judge_ms",
            "serve.render_ms",
        ];
        let mut covered = 0.0;
        for k in times {
            covered += s.get(k) / n;
            l.insert(k.to_string(), s.get(k) / n);
        }
        // Part of the compositional probe's time, so not added again.
        l.insert(
            "core.cache_probe_ms".into(),
            s.get("core.cache_probe_ms") / n,
        );
        for k in [
            "nsa.steps",
            "nsa.events",
            "nsa.wheel_wakeups",
            "nsa.compile_ops",
            "core.jobs",
        ] {
            l.insert(k.to_string(), s.get(k) / rounds);
        }
        // The server's counters span traced and untraced rounds alike;
        // both run the same operations, so per round they agree.
        let all_rounds = (outcome.attempted as f64 / setup.slots.len() as f64).max(1.0);
        l.insert("serve.analyses".into(), (analyses - a0) as f64 / all_rounds);
        l.insert(
            "serve.ladder_decided".into(),
            (decided - d0) as f64 / all_rounds,
        );
        let hits = setup.slots.iter().filter(|s| s.kind == Kind::Hit).count() as f64;
        l.insert(
            "core.cache_hit_rate".into(),
            hits / setup.slots.len() as f64,
        );
        l.insert(
            "core.ladder_decided_rate".into(),
            (decided - d0) as f64 / all_rounds / setup.slots.len() as f64,
        );
        l.insert(
            "xmlio.mb_per_s".into(),
            s.get("xml.bytes") / 1048576.0 / (s.get("xmlio.parse_ms") / 1e3),
        );
        let request = self.request_ms / n;
        let untraced = self.untraced_ms / self.untraced_n.max(1) as f64;
        l.insert("unexplained_share".into(), 1.0 - covered / request);
        l.insert("trace_overhead".into(), request / untraced - 1.0);
    }
}

/// `(serve.analyses, serve.ladder_decided)` from `GET /metrics`.
fn server_counts(setup: &Setup) -> (u64, u64) {
    let body = client::get(setup.server.local_addr(), "/metrics")
        .map(|r| r.body)
        .unwrap_or_default();
    let count = |name: &str| -> u64 {
        Json::parse(&body)
            .ok()
            .and_then(|d| d.get("metrics")?.get("counters")?.get(name)?.as_u64())
            .unwrap_or(0)
    };
    (count("serve.analyses"), count("serve.ladder_decided"))
}
