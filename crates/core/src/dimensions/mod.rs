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
//! ([`smash_graph::CooccurrenceCounter`]) over length-capped postings,
//! scored as it counts through one helper, `exact_edges`. The client
//! and URI-file dimensions take the same uncapped product when its pair
//! visits cost no more than MinHash/LSH hashing would, and the LSH
//! layer otherwise (`lsh_edges` over [`crate::candidates`], DESIGN.md
//! §10; `SmashConfig::candidate_route` can force either route).

pub mod client;
pub mod ip_set;
pub mod param_pattern;
pub mod payload;
pub mod timing;
pub mod uri_file;
pub mod whois;

use crate::candidates::{self, FeatureId};
use crate::config::{LshConfig, SmashConfig};
use smash_graph::{CooccurrenceCounter, Graph, GraphBuilder};
use smash_support::governor::{Governor, StageScope};
use smash_support::impl_json_enum;
use smash_support::metrics::Registry;
use smash_support::par;
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

/// Charges an inverted index's posting bytes (4 per entry) to the stage
/// account and returns the charge — ladder rung 1 (DESIGN.md §11.3).
/// The charge is projected first: if it would cross the soft budget,
/// the *shortest* postings are shed (smallest key breaking ties) until
/// it fits, and one summary event records the count. A short posting
/// buys few pairs, and those almost never clear an edge threshold,
/// while the longest postings are the herd signal. The shed happens
/// before anything is charged, so this charge never crosses hard.
pub(crate) fn govern_postings<K>(scope: &StageScope, postings: &mut HashMap<K, Vec<u32>>) -> u64
where
    K: Clone + Ord + std::hash::Hash,
{
    // lint:allow(hash-iter): summing byte counts is order-independent.
    let all: u64 = postings.values().map(|v| v.len() as u64 * 4).sum();
    let fits =
        |bytes: u64| scope.soft_bytes() == 0 || scope.tracked_bytes() + bytes <= scope.soft_bytes();
    let mut bytes = all;
    if !fits(bytes) {
        let mut order: Vec<(usize, K)> = postings
            .iter()
            .map(|(k, nodes)| (nodes.len(), k.clone()))
            .collect();
        order.sort_unstable();
        let mut shed = 0u64;
        for (len, key) in order {
            if fits(bytes) {
                break;
            }
            postings.remove(&key);
            bytes -= len as u64 * 4;
            shed += 1;
        }
        // `governor/shed` reads the count back from this event.
        scope.record(format!(
            "shed {shed} postings shortest-first, {} bytes",
            all - bytes
        ));
    }
    scope.charge(bytes);
    bytes
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

/// The co-occurrence product of one dimension, scored as it is
/// counted (DESIGN.md §10): drops postings longer than `cap` (features
/// shared by too many nodes to carry herd signal), charges the rest
/// through [`govern_postings`] plus `extra` as one more posting (the
/// URI-file dimension's long-name servers), and hands every
/// co-occurring node pair with its shared-posting count to `score`
/// under the stage's cancellation token. Kept edges go into `builder`
/// in `(u, v)` order; the postings are released once scored, before
/// the builder's edge charge lands.
pub(crate) fn exact_edges<K, F>(
    scope: &StageScope,
    builder: &mut GraphBuilder,
    funnel: &mut BuilderFunnel,
    mut postings: HashMap<K, Vec<u32>>,
    cap: usize,
    extra: Vec<u32>,
    score: F,
) where
    K: Clone + Ord + std::hash::Hash,
    F: Fn(u32, u32, usize) -> Option<f64> + Sync,
{
    scope.tick();
    funnel.postings = postings.len() as u64;
    // Postings hold ascending node ids, so `dedup` leaves the distinct
    // nodes the cap is defined on.
    postings.retain(|_, nodes| {
        nodes.dedup();
        nodes.len() <= cap
    });
    let extra_bytes = extra.len() as u64 * 4;
    scope.charge(extra_bytes);
    let posting_bytes = govern_postings(scope, &mut postings) + extra_bytes;
    let mut counter = CooccurrenceCounter::new();
    // lint:allow(hash-iter): the product's rows are sorted whatever the posting order.
    for (_, nodes) in postings {
        counter.add_posting(nodes);
    }
    counter.add_posting(extra);
    let (scored, edges) = counter.scored(scope.token(), score);
    drop(counter);
    scope.release(posting_bytes);
    funnel.pairs_scored = scored;
    funnel.edges = edges.len() as u64;
    for (u, v, w) in edges {
        builder.add_edge(u, v, w);
    }
}

/// The MinHash/LSH candidate route (DESIGN.md §10.1): candidates from
/// [`candidates::lsh_candidates_governed`] over `feature_sets`, each
/// scored by `score` in parallel under the stage's cancellation token.
/// Kept edges go into `builder` in `(u, v)` order, and the pair buffer's
/// bytes are returned before the builder's edge charge lands.
pub(crate) fn lsh_edges<T, S, F>(
    scope: &StageScope,
    builder: &mut GraphBuilder,
    funnel: &mut BuilderFunnel,
    feature_sets: &[S],
    lsh: &LshConfig,
    score: F,
) where
    T: FeatureId,
    S: AsRef<[T]> + Sync,
    F: Fn(u32, u32) -> Option<f64> + Sync,
{
    let (pairs, stats) = candidates::lsh_candidates_governed(feature_sets, lsh, scope);
    funnel.postings = stats.features;
    funnel.pairs_bucketed = stats.pairs;
    funnel.pairs_scored = pairs.len() as u64;
    let scores = par::par_map_cancellable(&pairs, scope.token(), |&(u, v)| score(u, v));
    for (&(u, v), sim) in pairs.iter().zip(scores) {
        if let Some(sim) = sim {
            builder.add_edge(u, v, sim);
            funnel.edges += 1;
        }
    }
    scope.release(pairs.len() as u64 * 8);
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
    // Ladder rung 3 (DESIGN.md §11.3). Graph edges are the allocation
    // that outlives the builder: an edge is two adjacency entries of
    // (node, weight) = 2 × 12 bytes. If that charge would not fit under
    // the soft budget, thin the graph to its heaviest edges first —
    // campaign herds score near 1.0 while coincidental overlaps sit
    // just above the edge threshold, so the lightest edges go first and
    // the stage completes degraded instead of cancelling on its own
    // output.
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
    use smash_support::governor::GovernorOptions;

    /// Five postings of lengths 2..=6 (80 posting bytes) under keys 0..5.
    fn ladder_postings() -> HashMap<u32, Vec<u32>> {
        (0..5u32).map(|k| (k, (0..k + 2).collect())).collect()
    }

    /// A stage with a 100-byte hard budget (80 soft) and `tracked`
    /// bytes already charged.
    fn budgeted_stage(tracked: u64) -> (Governor, std::sync::Arc<StageScope>) {
        let g = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(100));
        let scope = g.stage("dimension/whois", 0);
        scope.charge(tracked);
        (g, scope)
    }

    #[test]
    fn govern_postings_charges_everything_without_a_budget() {
        let g = Governor::unlimited();
        let scope = g.stage("dimension/whois", 0);
        let mut postings = ladder_postings();
        assert_eq!(govern_postings(&scope, &mut postings), 80);
        assert_eq!(postings.len(), 5);
        assert_eq!(scope.tracked_bytes(), 80);
        assert_eq!(scope.event_count(), 0);
    }

    #[test]
    fn govern_postings_sheds_shortest_first_until_the_charge_fits() {
        // 20 + 80 would cross the 80-byte soft budget: the len-2 and
        // len-3 postings go (20 bytes), and the rest fits exactly.
        let (g, scope) = budgeted_stage(20);
        let mut postings = ladder_postings();
        assert_eq!(govern_postings(&scope, &mut postings), 60);
        let mut kept: Vec<u32> = postings.into_keys().collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(scope.tracked_bytes(), 80);
        assert_eq!(events(&g), vec!["shed 2 postings shortest-first, 20 bytes"]);
    }

    #[test]
    fn govern_postings_never_crosses_hard() {
        // Already over soft: every posting is shed, nothing is charged,
        // and the stage lives on under its hard budget.
        let (g, scope) = budgeted_stage(85);
        let mut postings = ladder_postings();
        assert_eq!(govern_postings(&scope, &mut postings), 0);
        assert!(postings.is_empty());
        assert_eq!(scope.tracked_bytes(), 85);
        assert!(!scope.token().is_cancelled());
        assert_eq!(events(&g), vec!["shed 5 postings shortest-first, 80 bytes"]);
    }

    #[test]
    fn exact_edges_caps_postings_and_scores_every_pair_once() {
        // Posting 0 holds three nodes (one listed twice), over the cap
        // of 2; posting 1 holds nodes 1 and 2, as does the extra one.
        let postings: HashMap<u32, Vec<u32>> = [(0, vec![0, 1, 1, 2]), (1, vec![1, 2])]
            .into_iter()
            .collect();
        let g = Governor::unlimited();
        let scope = g.stage("dimension/ip-set", 0);
        let mut builder = GraphBuilder::with_nodes(3);
        let mut funnel = BuilderFunnel::default();
        let shared = |_: u32, _: u32, n: usize| Some(n as f64);
        exact_edges(
            &scope,
            &mut builder,
            &mut funnel,
            postings,
            2,
            vec![1, 2],
            shared,
        );
        assert_eq!(
            (funnel.postings, funnel.pairs_scored, funnel.edges),
            (2, 1, 1)
        );
        let edges: Vec<_> = builder.build().edges().collect();
        assert_eq!(edges, vec![(1, 2, 2.0)]);
        // Every posting byte is returned once the product is scored.
        assert_eq!(scope.tracked_bytes(), 0);
    }

    /// The ladder events `g`'s stages recorded, in order.
    fn events(g: &Governor) -> Vec<String> {
        g.stage_summaries()
            .into_iter()
            .flat_map(|s| s.events)
            .collect()
    }

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
