//! The benchmark's own description of a system, kept apart from the
//! program's `swa_ima::Configuration`: inputs are generated here, rendered
//! to the program's XML format by hand, and the oracles in `oracle.rs`
//! reason over this description only.

use std::fmt::Write as _;

use swa_workload::Rng64;

/// One periodic task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    pub priority: i64,
    pub period: i64,
    pub wcet: i64,
}

/// One partition, bound to core 0 of `module`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartSpec {
    pub module: usize,
    pub tasks: Vec<TaskSpec>,
    /// Half-open `[start, end)` windows within one hyperperiod.
    pub windows: Vec<(i64, i64)>,
}

/// A message from `(partition, task)` to `(partition, task)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgSpec {
    pub from: (usize, usize),
    pub to: (usize, usize),
}

/// A whole system: `modules` single-core modules and their partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysSpec {
    pub modules: usize,
    pub parts: Vec<PartSpec>,
    pub messages: Vec<MsgSpec>,
}

impl SysSpec {
    /// Renders the system in the XML format `swa analyze` reads.
    pub fn to_xml(&self) -> String {
        let tasks: usize = self.parts.iter().map(|p| p.tasks.len()).sum();
        let mut s = String::with_capacity(256 + tasks * 120);
        s.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<configuration>\n");
        s.push_str(
            "  <coreTypes>\n    <coreType name=\"generic\"/>\n  </coreTypes>\n  <modules>\n",
        );
        for m in 0..self.modules {
            let _ = writeln!(
                s,
                "    <module name=\"M{m}\">\n      <core name=\"M{m}.cpu0\" type=\"generic\"/>\n    </module>"
            );
        }
        s.push_str("  </modules>\n  <partitions>\n");
        for (p, part) in self.parts.iter().enumerate() {
            let _ = writeln!(
                s,
                "    <partition name=\"P{p}\" scheduler=\"FPPS\" module=\"M{}\" core=\"0\">",
                part.module
            );
            for (t, task) in part.tasks.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "      <task name=\"p{p}t{t}\" priority=\"{}\" period=\"{}\" deadline=\"{}\">\n        <wcet coreType=\"generic\" value=\"{}\"/>\n      </task>",
                    task.priority, task.period, task.period, task.wcet
                );
            }
            for &(start, end) in &part.windows {
                let _ = writeln!(s, "      <window start=\"{start}\" end=\"{end}\"/>");
            }
            s.push_str("    </partition>\n");
        }
        s.push_str("  </partitions>\n");
        if self.messages.is_empty() {
            s.push_str("  <messages/>\n");
        } else {
            s.push_str("  <messages>\n");
            for (i, m) in self.messages.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "    <message name=\"m{i}\" from=\"P{}.p{}t{}\" to=\"P{}.p{}t{}\" memDelay=\"1\" netDelay=\"1\"/>",
                    m.from.0, m.from.0, m.from.1, m.to.0, m.to.0, m.to.1
                );
            }
            s.push_str("  </messages>\n");
        }
        s.push_str("</configuration>\n");
        s
    }
}

/// Shape of one generated family member.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Single-core modules.
    pub modules: usize,
    /// Partitions sharing each core, time-sliced by per-frame windows.
    /// `1` gives each partition the whole hyperperiod as one window.
    pub parts_per_core: usize,
    pub tasks_per_part: usize,
    /// Harmonic period menu, assigned round-robin so the job count does
    /// not depend on the seed.
    pub periods: &'static [i64],
    /// Demand of each partition as a share of its window supply; above 1
    /// the partition is overloaded.
    pub load: f64,
    /// Same-period messages between consecutive partitions of a module,
    /// per module.
    pub messages_per_module: usize,
}

/// Generates a member of `shape`'s family. Sizes, periods and windows
/// depend only on the shape; the seed draws WCETs and breaks priority ties.
pub fn generate(shape: &Shape, seed: u64) -> SysSpec {
    let mut rng = Rng64::seed_from_u64(seed);
    let hyper = shape.periods.iter().copied().fold(1, lcm);
    let frame = *shape.periods.iter().min().expect("nonempty period menu");
    let ppc = shape.parts_per_core;
    let mut parts = Vec::new();
    for m in 0..shape.modules {
        for slot in 0..ppc {
            let (windows, share) = if ppc == 1 {
                (vec![(0, hyper)], 1.0)
            } else {
                let width = frame / ppc as i64;
                let windows = (0..hyper / frame)
                    .map(|k| {
                        let start = k * frame + slot as i64 * width;
                        (start, start + width)
                    })
                    .collect();
                (windows, 1.0 / ppc as f64)
            };
            let tasks = draw_tasks(&mut rng, shape, share);
            parts.push(PartSpec {
                module: m,
                tasks,
                windows,
            });
        }
    }
    let mut messages = Vec::new();
    if ppc > 1 {
        for m in 0..shape.modules {
            for k in 0..shape.messages_per_module {
                let (a, b) = (m * ppc, m * ppc + 1);
                // Under the round-robin assignment task t has the same
                // period in every partition of the shape.
                let t = k % shape.tasks_per_part;
                if parts[a].tasks[t].period == parts[b].tasks[t].period {
                    messages.push(MsgSpec {
                        from: (a, t),
                        to: (b, t),
                    });
                }
            }
        }
    }
    SysSpec {
        modules: shape.modules,
        parts,
        messages,
    }
}

/// Draws a partition's tasks: periods round-robin from the menu, WCETs
/// from seeded weights scaled so the partition's demand over one
/// hyperperiod is `load` times its window supply `share * L`, and
/// rate-monotonic priorities with seeded tie order.
fn draw_tasks(rng: &mut Rng64, shape: &Shape, share: f64) -> Vec<TaskSpec> {
    let n = shape.tasks_per_part;
    let weights: Vec<f64> = (0..n).map(|_| 0.5 + rng.gen_f64()).collect();
    let total: f64 = weights.iter().sum();
    let budget = shape.load * share;
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let max_period = *shape.periods.iter().max().expect("nonempty period menu");
    let mut tasks: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let period = shape.periods[i % shape.periods.len()];
            let util = budget * weights[i] / total;
            #[allow(clippy::cast_possible_truncation)]
            let wcet = ((util * period as f64).round() as i64).clamp(1, period);
            TaskSpec {
                priority: 0,
                period,
                wcet,
            }
        })
        .collect();
    // Rate-monotonic, made unique by the seeded order within a period.
    for (rank, &i) in order.iter().enumerate() {
        tasks[i].priority = (max_period / tasks[i].period) * n as i64 + rank as i64 + 1;
    }
    tasks
}

pub fn lcm(a: i64, b: i64) -> i64 {
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}
