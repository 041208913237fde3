//! End-to-end pipeline cost plus the DESIGN.md ablations: pruning
//! on/off, the parameter-pattern extension dimension, and the threshold
//! sweep.

use smash_bench::{medium_scenario, small_scenario};
use smash_core::{Smash, SmashConfig};
use smash_support::bench::{criterion_group, criterion_main, Criterion};
use smash_trace::TraceDataset;

fn bench_end_to_end(c: &mut Criterion) {
    let small = small_scenario();
    let medium = medium_scenario();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("small-day", |b| {
        b.iter(|| Smash::new(SmashConfig::default()).run(&small.dataset, &small.whois))
    });
    g.bench_function("data2011-day", |b| {
        b.iter(|| Smash::new(SmashConfig::default()).run(&medium.dataset, &medium.whois))
    });
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let data = medium_scenario();
    let mut g = c.benchmark_group("ablations");
    g.sample_size(20);
    g.bench_function("pruning-on", |b| {
        b.iter(|| {
            Smash::new(SmashConfig::default().with_pruning(true)).run(&data.dataset, &data.whois)
        })
    });
    g.bench_function("pruning-off", |b| {
        b.iter(|| {
            Smash::new(SmashConfig::default().with_pruning(false)).run(&data.dataset, &data.whois)
        })
    });
    g.bench_function("param-pattern-dimension", |b| {
        b.iter(|| {
            Smash::new(SmashConfig::default().with_param_pattern_dimension(true))
                .run(&data.dataset, &data.whois)
        })
    });
    for t in [0.5, 0.8, 1.5] {
        g.bench_function(format!("threshold-{t}"), |b| {
            b.iter(|| {
                Smash::new(SmashConfig::default().with_threshold(t)).run(&data.dataset, &data.whois)
            })
        });
    }
    g.finish();
}

fn bench_dataset_build(c: &mut Criterion) {
    // Interning + index construction over the medium trace.
    let data = medium_scenario();
    let records: Vec<smash_trace::HttpRecord> = {
        // Round-trip through JSONL to get owned raw records again.
        let mut buf = Vec::new();
        let raw: Vec<smash_trace::HttpRecord> = data
            .dataset
            .records()
            .map(|r| {
                smash_trace::HttpRecord::new(
                    r.timestamp,
                    data.dataset.client_name(r.client),
                    data.dataset.server_name(r.server),
                    data.dataset.ip_name(r.ip),
                    data.dataset.path_name(r.path),
                )
            })
            .collect();
        smash_trace::io::write_jsonl(&mut buf, &raw).unwrap();
        let strict = smash_trace::IngestOptions::default().with_error_budget(0.0);
        smash_trace::io::read_jsonl_lenient(&buf[..], &strict)
            .unwrap()
            .0
    };
    let mut g = c.benchmark_group("trace");
    g.sample_size(20);
    g.bench_function("dataset-build-30k", |b| {
        b.iter(|| TraceDataset::from_records(records.clone()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_ablations,
    bench_dataset_build
);
criterion_main!(benches);
