//! The per-layer sweep: the mining layers called one after another
//! through their public functions, each inside its own span.
//!
//! `Smash::run` builds the secondary dimensions in parallel and keeps
//! its stage boundaries private, so the traced run re-composes the same
//! stages in sequence: IDF filter, then per dimension graph build and
//! Louvain, then correlation (eq. 9), pruning and merge. The sweep
//! differs from the pipeline in two ways, both small: it runs the
//! dimensions serially, and it does not append the single-client herds
//! or assemble the report. `core.pipeline.run` (timed separately)
//! measures the real pipeline; the difference is the overlap the
//! parallel secondaries buy.

use crate::spans::Tracer;
use smash_core::candidates::lsh_candidates;
use smash_core::correlation::correlate;
use smash_core::dimensions::{
    ClientDimension, Dimension, DimensionContext, IpSetDimension, UriFileDimension, WhoisDimension,
};
use smash_core::inference::merge_by_main_herd;
use smash_core::mining::mine_with_metrics;
use smash_core::preprocess::filter_popular;
use smash_core::pruning::prune;
use smash_core::SmashConfig;
use smash_support::governor::Governor;
use smash_support::metrics::Registry;
use smash_trace::{ServerId, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::{BTreeMap, HashMap};

/// The dimensions the default configuration mines, in pipeline order
/// (the main dimension first).
pub const DIMENSIONS: [&str; 4] = ["client", "uri-file", "ip-set", "whois"];

/// Dimensions whose candidate pairs come from MinHash/LSH buckets.
pub const CANDIDATE_DIMENSIONS: [&str; 2] = ["client", "uri-file"];

/// Louvain effort counters recorded per dimension.
const LOUVAIN_COUNTERS: [&str; 2] = ["passes", "levels"];

/// Named per-layer samples, one vector per metric.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Appends `value` to metric `name`.
pub fn push(samples: &mut Samples, name: &str, value: f64) {
    samples.entry(name.to_owned()).or_default().push(value);
}

/// Every per-layer metric name the sweep reports, in output order, with
/// its unit.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("core.preprocess.filter_ms".to_owned(), "ms"),
        ("core.preprocess.servers_kept".to_owned(), "count"),
    ];
    for d in DIMENSIONS {
        out.push((format!("core.dimensions.{d}.build_ms"), "ms"));
        out.push((format!("core.dimensions.{d}.pairs_scored"), "count"));
        out.push((format!("core.dimensions.{d}.edges"), "count"));
        out.push((format!("core.dimensions.{d}.edge_yield"), "ratio"));
    }
    for d in CANDIDATE_DIMENSIONS {
        out.push((format!("core.candidates.{d}.pairs_considered"), "count"));
        out.push((format!("core.candidates.{d}.pairs_bucketed"), "count"));
        out.push((format!("core.candidates.{d}.bucket_share"), "ratio"));
    }
    out.push(("core.candidates.client.lsh_ms".to_owned(), "ms"));
    for d in DIMENSIONS {
        out.push((format!("graph.louvain.{d}.mine_ms"), "ms"));
        out.push((format!("graph.louvain.{d}.passes"), "count"));
        out.push((format!("graph.louvain.{d}.levels"), "count"));
    }
    out.push(("core.correlation.correlate_ms".to_owned(), "ms"));
    out.push(("core.pruning.prune_ms".to_owned(), "ms"));
    out.push(("core.inference.merge_ms".to_owned(), "ms"));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the mining layers over `ds` in sequence, each under a span
/// nested in the tracer's open span, and records their times and
/// counters into `out`. Returns the summed wall of the layer spans in
/// milliseconds.
pub fn sweep(
    tr: &mut Tracer,
    ds: &TraceDataset,
    whois: &WhoisRegistry,
    cfg: &SmashConfig,
    out: &mut Samples,
) -> f64 {
    let (pre, id) = tr.span("core.preprocess.filter", |_| {
        filter_popular(ds, cfg.idf_threshold)
    });
    push(out, "core.preprocess.filter_ms", tr.ms(id));
    push(out, "core.preprocess.servers_kept", pre.kept.len() as f64);
    let nodes: Vec<ServerId> = pre.kept.clone();
    let node_of: HashMap<ServerId, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let registry = Registry::new();
    let ctx = DimensionContext {
        dataset: ds,
        whois,
        config: cfg,
        nodes: &nodes,
        node_of: &node_of,
        metrics: &registry,
        governor: Governor::unlimited(),
    };
    let dims: [&dyn Dimension; 4] = [
        &ClientDimension,
        &UriFileDimension,
        &IpSetDimension,
        &WhoisDimension,
    ];
    let mut mined = Vec::new();
    for (name, dim) in DIMENSIONS.iter().zip(dims) {
        let (graph, id) = tr.span(&format!("core.dimensions.{name}.build"), |_| {
            dim.build_graph(&ctx)
        });
        push(out, &format!("core.dimensions.{name}.build_ms"), tr.ms(id));
        let (m, id) = tr.span(&format!("graph.louvain.{name}.mine"), |_| {
            mine_with_metrics(dim.kind(), graph, &nodes, cfg.louvain_seed, &registry)
        });
        push(out, &format!("graph.louvain.{name}.mine_ms"), tr.ms(id));
        mined.push(m);
    }
    let counter = |n: String| registry.counter(&n).get();
    for name in DIMENSIONS {
        let scored = counter(format!("dim/{name}/pairs_scored"));
        let edges = counter(format!("dim/{name}/edges"));
        push(
            out,
            &format!("core.dimensions.{name}.pairs_scored"),
            scored as f64,
        );
        push(out, &format!("core.dimensions.{name}.edges"), edges as f64);
        push(
            out,
            &format!("core.dimensions.{name}.edge_yield"),
            ratio(edges, scored),
        );
        for what in LOUVAIN_COUNTERS {
            let v = counter(format!("louvain/{name}/{what}"));
            push(out, &format!("graph.louvain.{name}.{what}"), v as f64);
        }
    }
    for name in CANDIDATE_DIMENSIONS {
        let considered = counter(format!("dim/{name}/pairs_considered"));
        let bucketed = counter(format!("dim/{name}/pairs_bucketed"));
        let p = format!("core.candidates.{name}");
        push(out, &format!("{p}.pairs_considered"), considered as f64);
        push(out, &format!("{p}.pairs_bucketed"), bucketed as f64);
        push(
            out,
            &format!("{p}.bucket_share"),
            ratio(bucketed, considered),
        );
    }
    let mut mined = mined.into_iter();
    let Some(main) = mined.next() else {
        return 0.0;
    };
    let secondaries: Vec<_> = mined.collect();
    let (correlated, id) = tr.span("core.correlation.correlate", |_| {
        correlate(ds, &main, &secondaries, cfg)
    });
    push(out, "core.correlation.correlate_ms", tr.ms(id));
    let (candidates, id) = tr.span("core.pruning.prune", |_| {
        correlated
            .iter()
            .filter_map(|ca| {
                if cfg.pruning_enabled {
                    prune(ds, &ca.servers, cfg.min_campaign_size)
                } else {
                    Some(ca.servers.clone())
                }
            })
            .collect::<Vec<_>>()
    });
    push(out, "core.pruning.prune_ms", tr.ms(id));
    let (merged, id) = tr.span("core.inference.merge", |_| {
        merge_by_main_herd(&candidates, &main)
    });
    push(out, "core.inference.merge_ms", tr.ms(id));
    std::hint::black_box(merged.len());
    metric_names()
        .iter()
        .filter(|(name, unit)| *unit == "ms" && name.as_str() != "core.candidates.client.lsh_ms")
        .filter_map(|(name, _)| out.get(name).and_then(|v| v.last()))
        .sum()
}

/// Times `candidates::lsh_candidates` on the client feature sets (each
/// kept server's client list) — the candidate generator the client
/// dimension runs internally.
pub fn client_lsh(tr: &mut Tracer, ds: &TraceDataset, cfg: &SmashConfig, out: &mut Samples) {
    let kept = filter_popular(ds, cfg.idf_threshold).kept;
    let features: Vec<&[u32]> = kept.iter().map(|&s| ds.clients_of(s)).collect();
    let ((pairs, _stats), id) = tr.span("core.candidates.client.lsh", |_| {
        lsh_candidates(&features, &cfg.lsh)
    });
    std::hint::black_box(pairs.len());
    push(out, "core.candidates.client.lsh_ms", tr.ms(id));
}
