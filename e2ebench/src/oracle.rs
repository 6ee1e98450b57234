//! Correctness oracles computed from the benchmark's own [`SysSpec`],
//! never from the program under test.

use crate::spec::{lcm, SysSpec};

/// The hyperperiod `L`: the least common multiple of all periods.
pub fn hyperperiod(spec: &SysSpec) -> i64 {
    spec.parts
        .iter()
        .flat_map(|p| p.tasks.iter().map(|t| t.period))
        .fold(1, lcm)
}

/// The number of jobs in one hyperperiod: `Σ L / T_i`.
pub fn job_count(spec: &SysSpec) -> u64 {
    let l = hyperperiod(spec);
    spec.parts
        .iter()
        .flat_map(|p| p.tasks.iter())
        .map(|t| (l / t.period) as u64)
        .sum()
}

/// The window-supply necessary test: the first partition whose demand
/// over one hyperperiod, `Σ (L / T_i) C_i`, exceeds the window time it is
/// given in that hyperperiod. Such a configuration cannot be schedulable.
pub fn supply_violation(spec: &SysSpec) -> Option<usize> {
    let l = hyperperiod(spec);
    spec.parts.iter().position(|p| {
        let demand: i64 = p.tasks.iter().map(|t| (l / t.period) * t.wcet).sum();
        let supply: i64 = p.windows.iter().map(|&(s, e)| e - s).sum();
        demand > supply
    })
}

/// Closed-form FPPS completion times for a partition that owns one window
/// covering the whole hyperperiod and whose tasks all have period `L` and
/// release at 0: the job of the k-th highest priority completes at
/// `Σ C_i` over the k highest priorities. Returns, per task in declaration
/// order, that completion time, or `None` when the family's conditions do
/// not hold or some job would miss its deadline `L`.
pub fn closed_form_completions(spec: &SysSpec, part: usize) -> Option<Vec<i64>> {
    let l = hyperperiod(spec);
    let p = &spec.parts[part];
    if p.windows != [(0, l)] || p.tasks.iter().any(|t| t.period != l) {
        return None;
    }
    let mut by_priority: Vec<usize> = (0..p.tasks.len()).collect();
    by_priority.sort_by_key(|&i| std::cmp::Reverse(p.tasks[i].priority));
    let mut done = vec![0; p.tasks.len()];
    let mut clock = 0;
    for i in by_priority {
        clock += p.tasks[i].wcet;
        done[i] = clock;
    }
    (clock <= l).then_some(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{generate, PartSpec, Shape, TaskSpec};

    fn task(priority: i64, period: i64, wcet: i64) -> TaskSpec {
        TaskSpec {
            priority,
            period,
            wcet,
        }
    }

    fn one_part(tasks: Vec<TaskSpec>, windows: Vec<(i64, i64)>) -> SysSpec {
        SysSpec {
            modules: 1,
            parts: vec![PartSpec {
                module: 0,
                tasks,
                windows,
            }],
            messages: vec![],
        }
    }

    #[test]
    fn job_count_sums_l_over_t() {
        let s = one_part(
            vec![task(3, 10, 1), task(2, 20, 1), task(1, 40, 1)],
            vec![(0, 40)],
        );
        assert_eq!(hyperperiod(&s), 40);
        assert_eq!(job_count(&s), 4 + 2 + 1);
    }

    #[test]
    fn supply_test_flags_only_overload() {
        // L = 20: demand 2*2 + 1*5 = 9 against 10 ticks of windows.
        let windows = vec![(0, 5), (10, 15)];
        let fits = one_part(vec![task(2, 10, 2), task(1, 20, 5)], windows.clone());
        assert_eq!(supply_violation(&fits), None);
        let over = one_part(vec![task(2, 10, 2), task(1, 20, 7)], windows);
        assert_eq!(supply_violation(&over), Some(0));
    }

    #[test]
    fn closed_form_orders_by_priority() {
        let s = one_part(
            vec![task(1, 30, 4), task(3, 30, 5), task(2, 30, 6)],
            vec![(0, 30)],
        );
        assert_eq!(closed_form_completions(&s, 0), Some(vec![15, 5, 11]));
        let late = one_part(vec![task(1, 30, 20), task(2, 30, 11)], vec![(0, 30)]);
        assert_eq!(closed_form_completions(&late, 0), None);
        let sliced = one_part(vec![task(1, 30, 4)], vec![(0, 15)]);
        assert_eq!(closed_form_completions(&sliced, 0), None);
    }

    #[test]
    fn generated_shapes_have_seed_independent_sizes() {
        let shape = Shape {
            modules: 2,
            parts_per_core: 2,
            tasks_per_part: 9,
            periods: &[100, 200, 400],
            load: 0.7,
            messages_per_module: 2,
        };
        let a = generate(&shape, 1);
        let b = generate(&shape, 2);
        assert_eq!(job_count(&a), job_count(&b));
        assert_eq!(job_count(&a), 4 * 3 * (4 + 2 + 1));
        assert_eq!(a.messages.len(), 4);
        assert_ne!(a, b);
        assert_eq!(supply_violation(&a), None);
        let over = generate(&Shape { load: 1.3, ..shape }, 1);
        assert!(supply_violation(&over).is_some());
    }
}
