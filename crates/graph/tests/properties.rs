//! Property-based tests for the graph substrate invariants.

use smash_graph::{
    connected_components, density, modularity, CooccurrenceCounter, GraphBuilder, Louvain,
    Partition, UnionFind,
};
use smash_support::check::{cases, check, Gen};
use smash_support::governor::CancelToken;
use smash_support::par;
use std::collections::BTreeMap;

/// Generator: a random small edge list over up to `n` nodes.
fn edges(g: &mut Gen, n: u32, max_edges: usize) -> Vec<(u32, u32, f64)> {
    g.vec(0..max_edges, |g| {
        (g.range(0..n), g.range(0..n), g.range(0.01f64..10.0))
    })
}

#[test]
fn louvain_partition_covers_all_nodes() {
    check(
        |g| (edges(g, 30, 60), g.range(0u64..1000)),
        |(es, seed)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(29);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().with_seed(*seed).run(&g);
            assert_eq!(p.node_count(), g.node_count());
            // Every community id is within range and every community non-empty.
            let comms = p.communities();
            assert_eq!(comms.len(), p.community_count());
            assert!(comms.iter().all(|c| !c.is_empty()));
            let total: usize = comms.iter().map(|c| c.len()).sum();
            assert_eq!(total, g.node_count());
        },
    );
}

#[test]
fn louvain_never_beaten_by_singletons() {
    check(
        |g| edges(g, 25, 50),
        |es| {
            let mut b = GraphBuilder::new();
            b.ensure_node(24);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().run(&g);
            let q = modularity(&g, &p);
            let q0 = modularity(&g, &Partition::singletons(g.node_count()));
            assert!(q >= q0 - 1e-9, "louvain q={q} < singleton q={q0}");
        },
    );
}

#[test]
fn louvain_communities_are_connected_subsets_of_components() {
    check(
        |g| edges(g, 20, 40),
        |es| {
            let mut b = GraphBuilder::new();
            b.ensure_node(19);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().run(&g);
            let cc = connected_components(&g);
            // No Louvain community may straddle two connected components.
            for comm in p.communities() {
                let first = cc.community_of(comm[0]);
                for &node in &comm {
                    assert_eq!(cc.community_of(node), first);
                }
            }
        },
    );
}

#[test]
fn modularity_in_range() {
    check(
        |g| (edges(g, 20, 50), g.vec(20..=20, |g| g.range(0u32..5))),
        |(es, labels)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(19);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Partition::from_assignment(labels.clone());
            let q = modularity(&g, &p);
            assert!((-1.0..=1.0).contains(&q), "q = {q}");
        },
    );
}

#[test]
fn density_in_unit_range() {
    check(
        |g| (edges(g, 15, 30), g.vec(0..10, |g| g.range(0u32..15))),
        |(es, members)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(14);
            for (u, v, w) in es {
                if u != v {
                    b.add_edge(*u, *v, *w);
                }
            }
            let g = b.build();
            let mut m = members.clone();
            m.sort_unstable();
            m.dedup();
            let d = density(&g, &m);
            assert!((0.0..=1.0).contains(&d), "d = {d}");
        },
    );
}

#[test]
fn union_find_equivalence_is_transitive() {
    check(
        |g| g.vec(0..30, |g| (g.range(0usize..20), g.range(0usize..20))),
        |pairs| {
            let mut uf = UnionFind::new(20);
            for (a, b) in pairs {
                uf.union(*a, *b);
            }
            let groups = uf.clone().into_groups();
            let total: usize = groups.iter().map(|g| g.len()).sum();
            assert_eq!(total, 20);
            assert_eq!(groups.len(), uf.set_count());
            // Each member of a group agrees on its representative.
            for g in &groups {
                for &x in g {
                    assert!(uf.same(g[0], x));
                }
            }
        },
    );
}

/// Brute-force co-occurrence counts: every pair of every deduplicated
/// posting, in `(u, v)` order.
fn bruteforce_counts(postings: &[Vec<u32>]) -> Vec<(u32, u32, u32)> {
    let mut slow: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for p in postings {
        let mut s: Vec<u32> = p.clone();
        s.sort_unstable();
        s.dedup();
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                *slow.entry((s[i], s[j])).or_insert(0) += 1;
            }
        }
    }
    slow.into_iter().map(|((u, v), n)| (u, v, n)).collect()
}

#[test]
fn cooccurrence_counts_match_bruteforce() {
    check(
        |g| g.vec(0..12, |g| g.vec(0..6, |g| g.range(0u32..12))),
        |postings| {
            let mut c = CooccurrenceCounter::new();
            for p in postings {
                c.add_posting(p.iter().copied());
            }
            // A keep-all scorer returns the product itself.
            let (scored, fast) = c.scored(&CancelToken::new(), |_, _, n| Some(n as f64));
            let slow: Vec<(u32, u32, f64)> = bruteforce_counts(postings)
                .into_iter()
                .map(|(u, v, n)| (u, v, f64::from(n)))
                .collect();
            let visits: u64 = postings
                .iter()
                .map(|p| {
                    let mut s = p.clone();
                    s.sort_unstable();
                    s.dedup();
                    (s.len() * s.len().saturating_sub(1) / 2) as u64
                })
                .sum();
            assert_eq!(c.pair_visits(), visits);
            assert_eq!(scored, slow.len() as u64);
            assert_eq!(fast, slow);
        },
    );
}

#[test]
fn cooccurrence_parallel_matches_sequential() {
    // Enough pair visits (≥ 2^16) that the product splits its rows
    // across workers; neither the scored count nor the kept edges may
    // depend on the split. The scorer keeps a shared-count-dependent
    // subset, as the dimension builders' thresholds do. Each case is
    // ~10^5 pairs, so fewer cases than the default.
    cases(16).run(
        |g| g.vec(40..60, |g| g.vec(50..80, |g| g.range(0u32..300))),
        |postings| {
            let mut c = CooccurrenceCounter::new();
            for p in postings {
                c.add_posting(p.iter().copied());
            }
            let score = |u: u32, v: u32, n: usize| {
                (n >= 2 || (u + v).is_multiple_of(7)).then(|| n as f64 / f64::from(u + v + 1))
            };
            par::set_thread_count(1);
            let one = c.scored(&CancelToken::new(), score);
            par::set_thread_count(3);
            let three = c.scored(&CancelToken::new(), score);
            par::set_thread_count(0);
            assert_eq!(one, three);
            let slow = bruteforce_counts(postings);
            assert_eq!(one.0, slow.len() as u64);
            let kept: Vec<(u32, u32, f64)> = slow
                .into_iter()
                .filter_map(|(u, v, n)| Some((u, v, score(u, v, n as usize)?)))
                .collect();
            assert_eq!(one.1, kept);
        },
    );
}

/// A graph as weight bits: adjacency rows, degrees, total weight and
/// distinct edge count.
struct Reference {
    adj: Vec<Vec<(u32, u64)>>,
    degree: Vec<u64>,
    total: u64,
    edges: usize,
}

/// The builder's contract, stated the slow way: duplicates summed in
/// insertion order into a `BTreeMap`, rows sorted, degree and total
/// summed over the edges in `(u, v)` order.
fn reference_graph(n: usize, es: &[(u32, u32, f64)]) -> Reference {
    let mut merged: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for &(u, v, w) in es {
        *merged.entry((u.min(v), u.max(v))).or_insert(0.0) += w;
    }
    let mut adj = vec![Vec::new(); n];
    let mut degree = vec![0.0f64; n];
    let mut total = 0.0f64;
    for (&(u, v), &w) in &merged {
        adj[u as usize].push((v, w.to_bits()));
        if u == v {
            degree[u as usize] += 2.0 * w;
        } else {
            adj[v as usize].push((u, w.to_bits()));
            degree[u as usize] += w;
            degree[v as usize] += w;
        }
        total += w;
    }
    for row in &mut adj {
        row.sort_unstable_by_key(|e| e.0);
    }
    Reference {
        adj,
        degree: degree.into_iter().map(f64::to_bits).collect(),
        total: total.to_bits(),
        edges: merged.len(),
    }
}

fn assert_matches_reference(n: usize, es: &[(u32, u32, f64)]) {
    let mut b = GraphBuilder::with_nodes(n);
    for &(u, v, w) in es {
        b.add_edge(u, v, w);
    }
    let want = reference_graph(n, es);
    assert_eq!(b.edge_count(), want.edges);
    let g = b.build();
    assert_eq!(g.node_count(), n);
    assert_eq!(g.edge_count(), want.edges);
    assert_eq!(g.total_weight().to_bits(), want.total);
    for u in 0..n {
        let row: Vec<(u32, u64)> = g
            .neighbors(u as u32)
            .iter()
            .map(|&(v, w)| (v, w.to_bits()))
            .collect();
        assert_eq!(row, want.adj[u], "row {u}");
        assert_eq!(g.degree(u as u32).to_bits(), want.degree[u], "degree {u}");
    }
}

#[test]
fn graph_builder_matches_a_btreemap_reference() {
    // Few nodes, many edges: shuffled insertion with duplicates and
    // self-loops, then the same edges in key order (the no-sort path).
    check(
        |g| edges(g, 12, 80),
        |es| {
            assert_matches_reference(12, es);
            let mut sorted = es.clone();
            sorted.sort_by_key(|&(u, v, _)| (u.min(v), u.max(v)));
            assert_matches_reference(12, &sorted);
        },
    );
}

#[test]
fn thin_to_keeps_the_heaviest_with_key_order_breaking_ties() {
    check(
        |g| {
            let es = g.vec(0..60, |g| {
                (
                    g.range(0u32..10),
                    g.range(0u32..10),
                    f64::from(g.range(1u32..4)),
                )
            });
            let keep = g.range(0usize..40);
            (es, keep)
        },
        |(es, keep)| {
            let mut b = GraphBuilder::with_nodes(10);
            for &(u, v, w) in es {
                b.add_edge(u, v, w);
            }
            let mut merged: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for &(u, v, w) in es {
                *merged.entry((u.min(v), u.max(v))).or_insert(0.0) += w;
            }
            let mut ranked: Vec<((u32, u32), f64)> = merged.into_iter().collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            let dropped = ranked.len().saturating_sub(*keep);
            ranked.truncate(*keep);
            ranked.sort_by_key(|e| e.0);
            assert_eq!(b.thin_to(*keep), dropped);
            let g = b.build();
            let got: Vec<((u32, u32), f64)> = g.edges().map(|(u, v, w)| ((u, v), w)).collect();
            assert_eq!(got, ranked);
            assert_eq!(g.node_count(), 10);
        },
    );
}

#[test]
fn graph_total_weight_is_edge_sum() {
    check(
        |g| edges(g, 15, 30),
        |es| {
            let mut b = GraphBuilder::new();
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let sum: f64 = g.edges().map(|(_, _, w)| w).sum();
            assert!((sum - g.total_weight()).abs() < 1e-9);
        },
    );
}

#[test]
fn graph_degree_symmetry() {
    check(
        |g| edges(g, 15, 30),
        |es| {
            let mut b = GraphBuilder::new();
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            // Sum of degrees equals 2 * total weight (handshake lemma,
            // self-loops counted twice).
            let deg_sum: f64 = (0..g.node_count()).map(|u| g.degree(u as u32)).sum();
            assert!((deg_sum - 2.0 * g.total_weight()).abs() < 1e-9);
        },
    );
}
