//! Candidate routes against a brute-force oracle (DESIGN.md §10).
//!
//! The oracle below scores every node pair with eqs. 1 and 2–7 and
//! lives only here. Against it:
//!
//! * the exact route (`CandidateRoute::Exact`) must build the identical
//!   client and URI-file graphs, bit for bit, on the small and medium
//!   scenarios and on a constructed long-name pair that only the
//!   charset cosine links;
//! * the LSH route (`CandidateRoute::Lsh`) must find every
//!   above-threshold pair with recall ≥ 0.99 on the medium scenario,
//!   and the final campaign report must be identical to the exact
//!   route's;
//! * the routing rule must send a crawler client that touches every
//!   kept server to LSH, so hostile input cannot buy quadratic CPU.

use smash::core::dimensions::{ClientDimension, Dimension, DimensionContext, UriFileDimension};
use smash::core::preprocess::filter_popular;
use smash::core::{CandidateRoute, Smash, SmashConfig, SmashReport};
use smash::graph::{Graph, GraphBuilder};
use smash::support::metrics::Registry;
use smash::synth::Scenario;
use smash::trace::uri::charset_vector;
use smash::trace::{HttpRecord, TraceDataset};
use smash::whois::WhoisRegistry;
use std::collections::{BTreeSet, HashMap};

fn route(r: CandidateRoute) -> SmashConfig {
    SmashConfig::default().with_candidate_route(r)
}

/// Builds one dimension graph over the kept-server node space, with the
/// metrics registry it reported into.
fn build_dimension(
    dim: &dyn Dimension,
    dataset: &TraceDataset,
    whois: &WhoisRegistry,
    config: &SmashConfig,
) -> (Graph, Registry) {
    let pre = filter_popular(dataset, config.idf_threshold);
    let node_of: HashMap<u32, u32> = pre
        .kept
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let metrics = Registry::new();
    let g = dim.build_graph(&DimensionContext {
        dataset,
        whois,
        config,
        nodes: &pre.kept,
        node_of: &node_of,
        metrics: &metrics,
        governor: smash::support::governor::Governor::unlimited(),
    });
    (g, metrics)
}

fn sorted_intersection(a: &[u32], b: &[u32]) -> usize {
    a.iter().filter(|x| b.binary_search(x).is_ok()).count()
}

/// The brute-force oracle: every pair of kept nodes scored with eq. 1
/// (client) or eqs. 2–7 (URI-file), the all-pairs scorer production no
/// longer has.
fn oracle(dim: &str, dataset: &TraceDataset, config: &SmashConfig) -> Graph {
    let nodes = filter_popular(dataset, config.idf_threshold).kept;
    let mut b = GraphBuilder::with_nodes(nodes.len());
    let n = nodes.len() as u32;
    let product = |s: usize, a: usize, b: usize| (s as f64 / a as f64) * (s as f64 / b as f64);
    let long = |server: u32| -> Vec<(u32, [f64; 256])> {
        dataset
            .files_of(server)
            .iter()
            .filter(|&&f| dataset.file_name(f).len() > config.filename_len_threshold)
            .map(|&f| (f, charset_vector(dataset.file_name(f))))
            .collect()
    };
    let longs: Vec<Vec<(u32, [f64; 256])>> = if dim == "uri-file" {
        nodes.iter().map(|&s| long(s)).collect()
    } else {
        Vec::new()
    };
    let cosine =
        |a: &[f64; 256], b: &[f64; 256]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    // Files on `from`'s side matched by charset alone (eq. 6).
    let fuzzy = |from: usize, to: usize, to_files: &[u32]| -> usize {
        longs[from]
            .iter()
            .filter(|(f, _)| to_files.binary_search(f).is_err())
            .filter(|(f, vf)| {
                longs[to]
                    .iter()
                    .any(|(g, vg)| g != f && cosine(vf, vg) > config.charset_cosine_threshold)
            })
            .count()
    };
    for u in 0..n {
        for v in u + 1..n {
            let (su, sv) = (nodes[u as usize], nodes[v as usize]);
            let sim = if dim == "client" {
                let (cu, cv) = (dataset.clients_of(su), dataset.clients_of(sv));
                if cu.len() < 2 || cv.len() < 2 {
                    continue;
                }
                let sim = product(sorted_intersection(cu, cv), cu.len(), cv.len());
                if sim < config.client_edge_min {
                    continue;
                }
                sim
            } else {
                let (fu, fv) = (dataset.files_of(su), dataset.files_of(sv));
                if fu.is_empty() || fv.is_empty() {
                    continue;
                }
                let shared = sorted_intersection(fu, fv);
                let mu = shared + fuzzy(u as usize, v as usize, fv);
                let mv = shared + fuzzy(v as usize, u as usize, fu);
                if mu == 0 {
                    continue;
                }
                let sim = (mu as f64 / fu.len() as f64) * (mv as f64 / fv.len() as f64);
                if sim < config.file_edge_min {
                    continue;
                }
                sim
            };
            b.add_edge(u, v, sim);
        }
    }
    b.build()
}

/// Edge list with weight bits, for bit-for-bit comparison.
fn edge_bits(g: &Graph) -> Vec<(u32, u32, u64)> {
    g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
}

/// Asserts the exact route builds the oracle's graph for one dimension.
fn assert_exact_is_oracle(name: &str, dim: &dyn Dimension, data: &TraceDataset) {
    let whois = WhoisRegistry::new();
    let (exact, _) = build_dimension(dim, data, &whois, &route(CandidateRoute::Exact));
    let reference = oracle(name, data, &SmashConfig::default());
    assert!(reference.edge_count() > 0, "{name}: oracle found no edges");
    assert_eq!(
        edge_bits(&exact),
        edge_bits(&reference),
        "{name}: exact route differs from the brute-force oracle"
    );
    assert_eq!(exact.node_count(), reference.node_count());
}

/// Asserts LSH recall ≥ `floor` for one dimension and prints any
/// missed pair with its exact similarity.
fn assert_recall(name: &str, exact: &Graph, lsh: &Graph, floor: f64) {
    let exact_edges: Vec<(u32, u32, f64)> = exact.edges().collect();
    let lsh_set: BTreeSet<(u32, u32)> = lsh.edges().map(|(u, v, _)| (u, v)).collect();
    let mut missed = Vec::new();
    for &(u, v, w) in &exact_edges {
        if !lsh_set.contains(&(u, v)) {
            missed.push((u, v, w));
        }
    }
    for &(u, v, w) in &missed {
        eprintln!("{name}: LSH missed pair ({u}, {v}) with exact similarity {w:.4}");
    }
    let recall = if exact_edges.is_empty() {
        1.0
    } else {
        1.0 - missed.len() as f64 / exact_edges.len() as f64
    };
    eprintln!(
        "{name}: {} exact edges, {} missed, recall {recall:.4}",
        exact_edges.len(),
        missed.len()
    );
    assert!(
        recall >= floor,
        "{name}: recall {recall:.4} below {floor} ({} of {} pairs missed)",
        missed.len(),
        exact_edges.len()
    );
}

/// Canonical view of the campaign assignment for identity comparison.
fn campaign_assignment(report: &SmashReport) -> BTreeSet<Vec<String>> {
    report
        .campaigns
        .iter()
        .map(|c| {
            let mut servers = c.servers.clone();
            servers.sort();
            servers
        })
        .collect()
}

#[test]
fn medium_scenario_lsh_recall_and_report_identity() {
    let data = Scenario::data2011_day(7).generate();

    // The exact route is the brute-force graph, bit for bit.
    assert_exact_is_oracle("client", &ClientDimension, &data.dataset);
    assert_exact_is_oracle("uri-file", &UriFileDimension, &data.dataset);

    // Pair-level LSH recall against the oracle, per dimension.
    let cfg = SmashConfig::default();
    let lsh_cfg = route(CandidateRoute::Lsh);
    let (client_lsh, _) = build_dimension(&ClientDimension, &data.dataset, &data.whois, &lsh_cfg);
    assert_recall(
        "client",
        &oracle("client", &data.dataset, &cfg),
        &client_lsh,
        0.99,
    );
    let (file_lsh, _) = build_dimension(&UriFileDimension, &data.dataset, &data.whois, &lsh_cfg);
    assert_recall(
        "uri-file",
        &oracle("uri-file", &data.dataset, &cfg),
        &file_lsh,
        0.99,
    );

    // End-to-end: the final campaign assignment must be identical on
    // every route.
    let report_lsh = Smash::new(lsh_cfg).run(&data.dataset, &data.whois);
    let report_exact = Smash::new(route(CandidateRoute::Exact)).run(&data.dataset, &data.whois);
    let report_auto = Smash::new(cfg).run(&data.dataset, &data.whois);
    assert!(
        !report_lsh.campaigns.is_empty(),
        "medium scenario must yield campaigns"
    );
    assert_eq!(
        campaign_assignment(&report_lsh),
        campaign_assignment(&report_exact),
        "LSH and exact candidate generation must infer the same campaigns"
    );
    assert_eq!(report_auto.canonical_json(), report_exact.canonical_json());
}

#[test]
fn small_scenario_reports_are_identical() {
    // The cheap variant ci.sh runs as a smoke: the exact route is the
    // oracle's graph, and exact-vs-LSH reports are identical.
    let data = Scenario::small_day(7).generate();
    assert_exact_is_oracle("client", &ClientDimension, &data.dataset);
    assert_exact_is_oracle("uri-file", &UriFileDimension, &data.dataset);
    let report_lsh = Smash::new(route(CandidateRoute::Lsh)).run(&data.dataset, &data.whois);
    let report_exact = Smash::new(route(CandidateRoute::Exact)).run(&data.dataset, &data.whois);
    assert!(!report_lsh.campaigns.is_empty());
    assert_eq!(
        campaign_assignment(&report_lsh),
        campaign_assignment(&report_exact)
    );
}

#[test]
fn exact_route_links_long_names_that_share_no_file_and_no_charset() {
    // Two obfuscated names dominated by the same letter: cosine > 0.8,
    // yet their distinct-byte sets differ ('b' vs 'c'), so they share
    // neither a file id nor a charset key. Only the exact route's
    // all-long-name-pairs candidates catch them.
    let f1 = format!("/{}{}.php", "a".repeat(30), "b".repeat(5));
    let f2 = format!("/{}{}.php", "a".repeat(30), "c".repeat(5));
    assert!(smash::trace::uri::charset_cosine(&f1, &f2) > 0.8);
    let data = TraceDataset::from_records(vec![
        HttpRecord::new(0, "c1", "a.com", "1.1.1.1", &f1),
        HttpRecord::new(0, "c2", "b.com", "1.1.1.2", &f2),
        HttpRecord::new(0, "c3", "c.com", "1.1.1.3", "/index.html"),
    ]);
    assert_exact_is_oracle("uri-file", &UriFileDimension, &data);
    let whois = WhoisRegistry::new();
    let (lsh, _) = build_dimension(
        &UriFileDimension,
        &data,
        &whois,
        &route(CandidateRoute::Lsh),
    );
    assert_eq!(
        lsh.edge_count(),
        0,
        "charset keys were expected to miss this pair"
    );
}

/// Re-emits a dataset's records (client, host, IP, path) for rebuilding
/// it with extra traffic.
fn records_of(ds: &TraceDataset) -> Vec<HttpRecord> {
    ds.records()
        .map(|r| {
            HttpRecord::new(
                r.timestamp,
                ds.client_name(r.client),
                ds.server_name(r.server),
                ds.ip_name(r.ip),
                ds.path_name(r.path),
            )
        })
        .collect()
}

#[test]
fn a_crawler_touching_every_server_tips_the_client_dimension_to_lsh() {
    let data = Scenario::data2011_day(7).generate();
    let whois = WhoisRegistry::new();
    let cfg = SmashConfig::default();
    let counter = |m: &Registry, what: &str| m.counter(&format!("dim/client/{what}")).get();

    let (_, clean) = build_dimension(&ClientDimension, &data.dataset, &whois, &cfg);
    assert_eq!(
        counter(&clean, "route_exact"),
        1,
        "clean day should go exact"
    );

    let mut records = records_of(&data.dataset);
    let kept = filter_popular(&data.dataset, cfg.idf_threshold).kept;
    for &s in &kept {
        let ip = data.dataset.ips_of(s).first().copied().unwrap_or(0);
        records.push(HttpRecord::new(
            0,
            "crawler",
            data.dataset.server_name(s),
            data.dataset.ip_name(ip),
            "/",
        ));
    }
    let crawled = TraceDataset::from_records(records);
    let (g_auto, hostile) = build_dimension(&ClientDimension, &crawled, &whois, &cfg);
    let visits = counter(&hostile, "exact_pair_visits");
    assert!(
        visits >= (kept.len() as u64 * (kept.len() as u64 - 1)) / 4,
        "the crawler's clique must dominate the pair visits: {visits}"
    );
    assert_eq!(
        counter(&hostile, "route_exact"),
        0,
        "a crawler over {} servers must route the client dimension to LSH",
        kept.len()
    );
    // The LSH route it took is the forced one.
    let (g_lsh, _) = build_dimension(
        &ClientDimension,
        &crawled,
        &whois,
        &route(CandidateRoute::Lsh),
    );
    assert_eq!(edge_bits(&g_auto), edge_bits(&g_lsh));
}
