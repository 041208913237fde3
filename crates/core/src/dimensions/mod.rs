//! Per-dimension similarity graphs (paper §III-B).
//!
//! Every dimension builds a weighted graph over the *same* node space —
//! the servers that survived preprocessing — so that herds from different
//! dimensions can be intersected directly during correlation.
//!
//! Candidate pairs are never enumerated quadratically. Every dimension
//! builds an inverted index (feature → nodes) and only pairs sharing a
//! posting are scored. The IP-set, Whois and extension dimensions take
//! their pairs from the sparse co-occurrence product
//! ([`smash_graph::CooccurrenceCounter`]) over length-capped postings.
//! The client and URI-file dimensions take the same uncapped product
//! when its pair visits cost no more than MinHash/LSH hashing would, and
//! the LSH layer otherwise ([`crate::candidates`], DESIGN.md §10;
//! `SmashConfig::candidate_route` can force either route).

pub mod client;
pub mod ip_set;
pub mod param_pattern;
pub mod payload;
pub mod timing;
pub mod uri_file;
pub mod whois;

use crate::candidates;
use crate::config::SmashConfig;
use smash_graph::{Cooccurrence, CooccurrenceCounter, Graph, GraphBuilder};
use smash_support::governor::{Governor, StageScope};
use smash_support::impl_json_enum;
use smash_support::metrics::Registry;
use smash_support::wire::{FromWire, Reader, ToWire, WireError};
use smash_trace::{ServerId, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::HashMap;
use std::fmt;

pub use client::ClientDimension;
pub use ip_set::IpSetDimension;
pub use param_pattern::ParamPatternDimension;
pub use payload::PayloadDimension;
pub use timing::TimingDimension;
pub use uri_file::UriFileDimension;
pub use whois::WhoisDimension;

/// Which similarity dimension a graph or herd came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DimensionKind {
    /// Main dimension: client-set similarity (eq. 1).
    Client,
    /// Secondary: URI-file similarity (eqs. 2–7).
    UriFile,
    /// Secondary: IP-address-set similarity (eq. 8).
    IpSet,
    /// Secondary: Whois field overlap.
    Whois,
    /// Extension (paper §VI): URI parameter-pattern similarity.
    ParamPattern,
    /// Extension (paper §VI): time-based (burst-synchronization)
    /// similarity.
    Timing,
    /// Extension (paper §VI): payload (response-size) similarity.
    Payload,
}

impl_json_enum!(DimensionKind {
    Client,
    UriFile,
    IpSet,
    Whois,
    ParamPattern,
    Timing,
    Payload,
});

// Checkpoint wire form: a one-byte tag. Tags are append-only — never
// renumber; stale snapshots are caught by the envelope format version,
// not by tag reshuffling.
impl ToWire for DimensionKind {
    fn wire(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            DimensionKind::Client => 0,
            DimensionKind::UriFile => 1,
            DimensionKind::IpSet => 2,
            DimensionKind::Whois => 3,
            DimensionKind::ParamPattern => 4,
            DimensionKind::Timing => 5,
            DimensionKind::Payload => 6,
        };
        out.push(tag);
    }
}

impl FromWire for DimensionKind {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.array::<1>()? {
            [0] => Ok(DimensionKind::Client),
            [1] => Ok(DimensionKind::UriFile),
            [2] => Ok(DimensionKind::IpSet),
            [3] => Ok(DimensionKind::Whois),
            [4] => Ok(DimensionKind::ParamPattern),
            [5] => Ok(DimensionKind::Timing),
            [6] => Ok(DimensionKind::Payload),
            [tag] => Err(WireError(format!("unknown dimension tag {tag}"))),
        }
    }
}

impl DimensionKind {
    /// `true` for the main (client) dimension.
    pub fn is_main(self) -> bool {
        self == DimensionKind::Client
    }
}

impl fmt::Display for DimensionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DimensionKind::Client => "client",
            DimensionKind::UriFile => "uri-file",
            DimensionKind::IpSet => "ip-set",
            DimensionKind::Whois => "whois",
            DimensionKind::ParamPattern => "param-pattern",
            DimensionKind::Timing => "timing",
            DimensionKind::Payload => "payload",
        };
        f.write_str(s)
    }
}

/// Everything a dimension needs to build its graph.
pub struct DimensionContext<'a> {
    /// The interned trace.
    pub dataset: &'a TraceDataset,
    /// The Whois registry (only the Whois dimension reads it).
    pub whois: &'a WhoisRegistry,
    /// Pipeline configuration.
    pub config: &'a SmashConfig,
    /// Kept servers; node `i` of every dimension graph is `nodes[i]`.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub nodes: &'a [ServerId],
    /// Reverse map server → node index.
    pub node_of: &'a HashMap<ServerId, u32>,
    /// Metrics sink: builders report postings processed, pairs scored
    /// and pruned, and edges emitted under `dim/<kind>/*` (see
    /// DESIGN.md §7). Pass a throwaway [`Registry`] when observability
    /// is not needed.
    pub metrics: &'a Registry,
    /// Resource governor (DESIGN.md §11): each builder runs under the
    /// `dimension/<kind>` stage scope it hands out. Pass
    /// [`Governor::unlimited`] when no budgets apply — polls and
    /// charges are then two relaxed atomic ops.
    pub governor: Governor,
}

impl DimensionContext<'_> {
    /// The server behind graph node `u`, if `u` is a valid node index.
    /// Builders use this instead of indexing `nodes` so a rogue node id
    /// from a co-occurrence counter can never panic a dimension.
    pub fn server_at(&self, u: u32) -> Option<ServerId> {
        self.nodes.get(u as usize).copied()
    }
}

/// Charges an inverted index's posting bytes to the stage account and,
/// on a soft-budget breach, sheds the most popular postings — longest
/// first, smallest key breaking ties — until the account is back under
/// the soft budget (ladder rung 2 for the counter-routed dimensions).
/// Every shed feature is recorded on the scope. A no-op on unbudgeted
/// runs beyond the byte charge itself.
pub(crate) fn govern_postings<K>(scope: &StageScope, postings: &mut HashMap<K, Vec<u32>>)
where
    K: Clone + Ord + std::hash::Hash + fmt::Display,
{
    // lint:allow(hash-iter): summing byte counts is order-independent.
    let bytes: u64 = postings.values().map(|v| v.len() as u64 * 4).sum();
    scope.charge(bytes);
    if !scope.soft_exceeded() {
        return;
    }
    let mut order: Vec<(usize, K)> = postings
        .iter()
        .map(|(k, nodes)| (nodes.len(), k.clone()))
        .collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (len, key) in order {
        if !scope.soft_exceeded() {
            break;
        }
        postings.remove(&key);
        scope.release(len as u64 * 4);
        scope.record(format!("shed posting feature={key} len={len}"));
    }
}

/// The candidate routing rule (DESIGN.md §10) over a dimension's
/// postings plus one `extra` posting of `extra_len` nodes (the URI-file
/// dimension's long-name servers, which add pair visits but are not
/// hashed by LSH). Records the decision on the funnel and returns
/// whether to take the exact route.
pub(crate) fn route_exact<K>(
    ctx: &DimensionContext<'_>,
    funnel: &mut BuilderFunnel,
    postings: &HashMap<K, Vec<u32>>,
    extra_len: usize,
) -> bool {
    // lint:allow(hash-iter): order-independent sums.
    let (visits, entries) = postings.values().fold((0, 0), |(p, e), nodes| {
        (
            p + candidates::pair_universe(nodes.len()),
            e + nodes.len() as u64,
        )
    });
    let visits = visits + candidates::pair_universe(extra_len);
    let exact =
        candidates::exact_route(ctx.config.candidate_route, visits, entries, &ctx.config.lsh);
    funnel.route = Some((visits, exact));
    exact
}

/// The exact candidate route's product (DESIGN.md §10): charges the
/// postings through [`govern_postings`] (which sheds the longest first
/// past the soft budget), adds `extra` as one more posting, and counts
/// every co-occurring node pair under the stage's cancellation token.
/// The postings are released once counted; the rows stay charged (12
/// bytes each) until the caller has scored them and releases them
/// before its edge charge lands.
pub(crate) fn exact_rows<K>(
    scope: &StageScope,
    mut postings: HashMap<K, Vec<u32>>,
    extra: Vec<u32>,
) -> Vec<Cooccurrence>
where
    K: Clone + Ord + std::hash::Hash + fmt::Display,
{
    scope.tick();
    scope.charge(extra.len() as u64 * 4);
    govern_postings(scope, &mut postings);
    // lint:allow(hash-iter): summing byte counts is order-independent.
    let entries: u64 = postings.values().map(|v| v.len() as u64).sum();
    let posting_bytes = (entries + extra.len() as u64) * 4;
    let mut counter = CooccurrenceCounter::new();
    // lint:allow(hash-iter): the product's rows are sorted whatever the posting order.
    for (_, nodes) in postings {
        counter.add_posting(nodes);
    }
    counter.add_posting(extra);
    let rows = counter.counts(scope.token());
    drop(counter);
    scope.release(posting_bytes);
    scope.charge(rows.len() as u64 * 12);
    rows
}

/// Reports one builder's standard `dim/<kind>/*` metrics in a single
/// batch (one registry lock per name, after the hot loops).
pub(crate) fn record_dimension_metrics(
    ctx: &DimensionContext<'_>,
    kind: DimensionKind,
    funnel: &BuilderFunnel,
) {
    let m = ctx.metrics;
    m.counter(&format!("dim/{kind}/postings"))
        .add(funnel.postings);
    m.counter(&format!("dim/{kind}/pairs_considered"))
        .add(funnel.pairs_considered);
    m.counter(&format!("dim/{kind}/pairs_bucketed"))
        .add(funnel.pairs_bucketed);
    m.counter(&format!("dim/{kind}/pairs_scored"))
        .add(funnel.pairs_scored);
    m.counter(&format!("dim/{kind}/pairs_pruned"))
        .add(funnel.pairs_scored - funnel.edges);
    m.counter(&format!("dim/{kind}/edges")).add(funnel.edges);
    if let Some((visits, exact)) = funnel.route {
        m.counter(&format!("dim/{kind}/exact_pair_visits"))
            .add(visits);
        m.counter(&format!("dim/{kind}/route_exact"))
            .add(u64::from(exact));
    }
    m.gauge(&format!("dim/{kind}/nodes"))
        .set(ctx.nodes.len() as f64);
}

/// The funnel counters every builder reports: how many inverted-index
/// postings it processed, the candidate funnel from the all-pairs
/// universe through candidate generation down to the pairs actually
/// scored, and how many edges survived the similarity threshold.
/// Dimensions without a candidate route leave `pairs_considered`,
/// `pairs_bucketed` and `route` at their defaults (zero, zero, `None`).
#[derive(Debug, Default)]
pub(crate) struct BuilderFunnel {
    /// Inverted-index postings (distinct features) processed.
    pub postings: u64,
    /// Size of the brute-force pair universe over nodes with features.
    pub pairs_considered: u64,
    /// Candidate pairs proposed (deduplicated): by LSH bucketing, or on
    /// the exact route the distinct co-occurring pairs.
    pub pairs_bucketed: u64,
    /// Candidate pairs scored.
    pub pairs_scored: u64,
    /// Edges that survived the threshold.
    pub edges: u64,
    /// Candidate routing (client and URI-file only): the exact route's
    /// pair visits `Σ C(|p|, 2)`, and whether the route was taken.
    pub route: Option<(u64, bool)>,
}

/// The one canonical instrumentation frame around every dimension
/// builder: the deterministic failpoint site `dimension/<kind>`, the
/// `dim/<kind>/build` duration span, and the `dim/<kind>/*` funnel
/// counters — in that order, so fault-injection tests observe the site
/// before any work happens.
///
/// `smash-lint`'s `dim-coverage` rule checks that every `Dimension`
/// impl routes through this helper (and that the helper itself keeps
/// its failpoint and span); add instrumentation here, not in the
/// builders.
pub(crate) fn instrumented_builder<F>(
    ctx: &DimensionContext<'_>,
    kind: DimensionKind,
    body: F,
) -> Graph
where
    F: FnOnce(&mut GraphBuilder, &mut BuilderFunnel, &StageScope),
{
    smash_support::failpoint::fire(&format!("dimension/{kind}"));
    let _span = ctx.metrics.span(&format!("dim/{kind}/build"));
    // The stage scope starts the per-dimension wall-clock budget and
    // carries the byte account the builder's inner loops charge.
    let scope = ctx
        .governor
        .stage(&format!("dimension/{kind}"), ctx.config.dimension_budget_ms);
    let mut builder = GraphBuilder::with_nodes(ctx.nodes.len());
    let mut funnel = BuilderFunnel::default();
    body(&mut builder, &mut funnel, &scope);
    // Graph edges are the allocation that outlives the builder: an edge
    // is two adjacency entries of (node, weight) = 2 × 12 bytes. If
    // that charge would not fit under the soft budget, thin the graph
    // to its heaviest edges first — campaign herds score near 1.0 while
    // coincidental overlaps sit just above the edge threshold, so the
    // lightest edges go first and the stage completes degraded instead
    // of cancelling on its own output.
    if scope.soft_bytes() > 0 {
        let headroom = scope.soft_bytes().saturating_sub(scope.tracked_bytes());
        let keep = (headroom / 24) as usize;
        if builder.edge_count() > keep {
            let dropped = builder.thin_to(keep);
            funnel.edges = builder.edge_count() as u64;
            scope.record(format!(
                "graph thinned: {dropped} lightest edges dropped, {} kept",
                builder.edge_count()
            ));
        }
    }
    scope.charge(funnel.edges * 24);
    record_dimension_metrics(ctx, kind, &funnel);
    builder.build()
}

/// A similarity dimension: builds one weighted graph over the shared node
/// space.
///
/// The trait is object-safe so new dimensions (payload similarity, timing)
/// can be plugged into the pipeline, as the paper's §VI envisions; it is
/// `Send + Sync` so the pipeline can build all dimension graphs in
/// parallel (the paper's §VI overhead remedy).
pub trait Dimension: Send + Sync {
    /// The dimension's identity.
    fn kind(&self) -> DimensionKind;

    /// Builds the similarity graph. Node `i` corresponds to
    /// `ctx.nodes[i]`; the graph must contain all nodes (isolated ones
    /// included).
    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph;
}

/// Size of the sorted intersection of two sorted, deduplicated slices.
/// Index-based two-pointer merge: this runs once per scored candidate
/// pair, so it stays branch-light instead of juggling peekable
/// iterators.
pub(crate) fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let mut shared = 0;
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        shared += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    shared
}

/// Jaccard-style set products used by eqs. 1 and 8:
/// `(|A∩B| / |A|) · (|A∩B| / |B|)`.
pub(crate) fn overlap_product(shared: usize, len_a: usize, len_b: usize) -> f64 {
    if len_a == 0 || len_b == 0 {
        return 0.0;
    }
    (shared as f64 / len_a as f64) * (shared as f64 / len_b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_product_basics() {
        assert_eq!(overlap_product(2, 2, 2), 1.0);
        assert_eq!(overlap_product(0, 5, 5), 0.0);
        assert_eq!(overlap_product(1, 0, 5), 0.0);
        assert!((overlap_product(1, 2, 4) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn sorted_intersection_counts() {
        assert_eq!(sorted_intersection_len(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(sorted_intersection_len(&[], &[1]), 0);
        assert_eq!(sorted_intersection_len(&[7], &[7]), 1);
    }

    #[test]
    fn kind_display_and_main_flag() {
        assert!(DimensionKind::Client.is_main());
        assert!(!DimensionKind::Whois.is_main());
        assert_eq!(DimensionKind::UriFile.to_string(), "uri-file");
    }
}
