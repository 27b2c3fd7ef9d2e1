//! Trace-replay speedup benchmarks (see DESIGN.md §"Trace-driven replay").
//!
//! Three groups, each emitting a `BENCH_*.json` artifact:
//!
//! * `replay` — per-workload cost of one full simulation vs. one trace
//!   capture vs. one replay retiming of a perturbed d-cache geometry (the
//!   per-measurement primitive: a batch of one that walks the memory stream
//!   once; the captured geometry itself would be closed-form and walk
//!   nothing);
//! * `cost_table` — the full 52-variable measurement phase with the replay
//!   engine on vs. off (the paper's Section 3 bottleneck; target ≥5×);
//! * `fig2` — the exhaustive d-cache sweep with replay vs. full simulation
//!   (the paper's Figure 2 full factorial; target ≥10×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use autoreconf::{
    dcache_exhaustive, dcache_exhaustive_full, dcache_exhaustive_traced, measure_cost_table,
    ParameterSpace,
};
use bench::{bench_scale, MAX_CYCLES};
use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use workloads::{benchmark_suite, Blastn};

fn replay_primitive(c: &mut Criterion) {
    let base = LeonConfig::base();
    let mut perturbed = base;
    perturbed.dcache.ways = 2;
    let mut group = c.benchmark_group("replay");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for workload in benchmark_suite(bench_scale()) {
        let program = workload.build();
        let (_, trace) = leon_sim::capture(&base, &program, MAX_CYCLES).unwrap();
        group.bench_with_input(
            BenchmarkId::new("full_simulation", workload.name()),
            &program,
            |b, p| b.iter(|| leon_sim::simulate(&base, p, MAX_CYCLES).unwrap().stats.cycles),
        );
        group.bench_with_input(
            BenchmarkId::new("capture", workload.name()),
            &program,
            |b, p| b.iter(|| leon_sim::capture(&base, p, MAX_CYCLES).unwrap().0.stats.cycles),
        );
        group.bench_with_input(
            BenchmarkId::new("replay", workload.name()),
            &trace,
            |b, t| b.iter(|| leon_sim::replay(t, &perturbed, MAX_CYCLES).unwrap().cycles),
        );
    }
    group.finish();
}

fn cost_table_speedup(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();

    let mut group = c.benchmark_group("cost_table");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    for (name, use_replay) in [("replay_52_variables", true), ("full_sim_52_variables", false)] {
        let options =
            autoreconf::MeasurementOptions { use_replay, ..bench::measurement() };
        group.bench_function(name, |b| {
            b.iter(|| measure_cost_table(&space, &workload, &base, &model, &options).unwrap().len())
        });
    }
    group.finish();
}

fn fig2_sweep_speedup(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();

    let (_, trace) = workloads::capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    // single worker on both sides: this artifact isolates the replay-engine
    // speedup over full simulation; thread-level scaling is tracked
    // separately in BENCH_campaign.json
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    group.bench_function("replay_sweep_28_configs_incl_capture", |b| {
        b.iter(|| dcache_exhaustive(&workload, &base, &model, MAX_CYCLES, 1).unwrap().len())
    });
    group.bench_function("replay_sweep_28_configs_given_trace", |b| {
        b.iter(|| dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 1).unwrap().len())
    });
    group.bench_function("full_sim_sweep_28_configs", |b| {
        b.iter(|| dcache_exhaustive_full(&workload, &base, &model, MAX_CYCLES).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, replay_primitive, cost_table_speedup, fig2_sweep_speedup);
criterion_main!(benches);
