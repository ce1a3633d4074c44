//! Declarative-framework benches (experiment E10): a compiled motif plan
//! (the served `ConcurrentEngine` behind the plan's kind filter) vs the
//! hand-coded sequential detector, and parser/planner cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magicrecs_bench::{bench_trace, small_graph};
use magicrecs_core::Engine;
use magicrecs_motif::{parse_motif, plan_motif, MotifEngine};
use magicrecs_types::{DetectorConfig, Duration};
use std::hint::black_box;
use std::sync::Arc;

const DIAMOND: &str = "motif diamond { A -> B : static; B -> C : dynamic within 600s; \
                       trigger B -> C; emit (A, C) when count(B) >= 3; }";

fn bench_declarative_vs_handcoded(c: &mut Criterion) {
    let graph = small_graph(10_000);
    let trace = bench_trace(10_000, 1_000.0, 10, 0x301);
    let cfg = DetectorConfig {
        k: 3,
        tau: Duration::from_secs(600),
        max_witnesses: Some(64),
        max_candidates_per_event: None,
        skip_existing: true,
    };
    let mut group = c.benchmark_group("e10_declarative_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("hand_coded", |b| {
        b.iter(|| {
            let mut engine = Engine::new(graph.clone(), cfg).unwrap();
            black_box(engine.process_trace(trace.events().iter().copied()).len())
        });
    });
    group.bench_function("declarative_plan", |b| {
        b.iter(|| {
            let mut m = MotifEngine::from_text(DIAMOND, Arc::new(graph.clone())).unwrap();
            let mut n = 0usize;
            for &e in trace.events() {
                n += m.on_event(e).len();
            }
            black_box(n)
        });
    });
    group.finish();
}

fn bench_parse_and_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("motif_compile");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("parse", |b| {
        b.iter(|| black_box(parse_motif(black_box(DIAMOND)).unwrap()));
    });
    let spec = parse_motif(DIAMOND).unwrap();
    group.bench_function("plan", |b| {
        b.iter(|| black_box(plan_motif(black_box(&spec)).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_declarative_vs_handcoded,
    bench_parse_and_plan
);
criterion_main!(benches);
