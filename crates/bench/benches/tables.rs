//! One bench per table: the full three-policy comparison runs behind
//! Table 2 (Experiment 1) and Table 3 (Experiment 2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fcdpm_sim::fixture::{run_reference, ReferencePolicy};
use fcdpm_workload::Scenario;

/// Benches each Section-5 policy on `scenario` in one group.
fn paper_policies(c: &mut Criterion, group: &str, scenario: &Scenario) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for (name, policy) in ["conv", "asap", "fcdpm"]
        .into_iter()
        .zip(ReferencePolicy::PAPER)
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_reference(scenario, policy))
                    .expect("paper configuration simulates cleanly")
            });
        });
    }
    group.finish();
}

fn table2_experiment1(c: &mut Criterion) {
    paper_policies(c, "table2_experiment1", &Scenario::experiment1());
}

fn table3_experiment2(c: &mut Criterion) {
    paper_policies(c, "table3_experiment2", &Scenario::experiment2());
}

criterion_group!(tables, table2_experiment1, table3_experiment2);
criterion_main!(tables);
