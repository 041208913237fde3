//! Candidate-pair generation for the client and URI-file dimensions
//! (DESIGN.md §10): the routing rule between exact candidates from
//! postings and MinHash/LSH banding, and the LSH generator itself.
//!
//! The client (eq. 1) and URI-file (eqs. 2–7) dimensions both reduce to
//! the same shape: every server owns a feature set (client ids, file
//! ids), similarity is a monotone function of the sets' overlap, and an
//! edge requires similarity above a threshold. Enumerating all `N²`
//! pairs is never needed: only pairs that share a posting can score
//! above zero. The dimensions keep scoring **exactly** with the paper's
//! math — a candidate route only decides which pairs get scored, never
//! what they score.
//!
//! **Routing.** The exact route is the sparse product `AᵀA` over the
//! dimension's postings ([`smash_graph::CooccurrenceCounter`]): every
//! co-occurring pair, with its shared-feature count, at a cost of
//! `Σ C(|p|, 2)` pair visits that is known before any enumeration.
//! [`exact_route`] takes it whenever that costs no more than the
//! hashing LSH would do; otherwise — a posting long enough that its
//! clique is the quadratic blowup — the LSH generator below runs.
//!
//! Within the LSH route, two complementary mechanisms cover the recall
//! spectrum:
//!
//! * **Rare-feature exact enumeration**: every feature shared by at most
//!   `rare_cap` servers contributes all its pairs directly. This is the
//!   recall floor for low-Jaccard containment pairs (a three-file server
//!   whose files all sit inside a hundred-file server), which banding
//!   alone would miss.
//! * **MinHash banding**: each server's **full** feature set — popular
//!   features included — is hashed to a signature of `bands · rows`
//!   minima; servers agreeing on all `rows` rows of any band land in one
//!   bucket and become candidates. A pair with Jaccard similarity `J`
//!   collides with probability `1 − (1 − J^rows)^bands`.
//!
//! Popular features deliberately stay in the signatures: the exact
//! scorer counts them (two one-file servers both hosting `index.html`
//! score 1.0), so dropping them — the inverted-index posting-cap trick —
//! silently deletes above-threshold edges. The only degeneracy valve is
//! `bucket_cap`, which skips buckets so large that their clique would
//! reintroduce the quadratic blowup; such buckets arise from *one*
//! shared min-hash, i.e. mostly-low-Jaccard crowds whose genuine pairs
//! the rare path and the remaining bands still cover.
//!
//! A candidate is therefore missed only when every shared feature is
//! popular (> `rare_cap` postings) **and** all bands miss — with the
//! default 64×1 shape the miss probability at the client dimension's
//! threshold (J ≥ 0.3) is below 1e-9.
//!
//! Determinism: signatures are a pure function of the feature values,
//! computed with the order-preserving [`smash_support::par::par_map`],
//! and the returned pair list is sorted and deduplicated — identical
//! across runs and thread counts.
//!
//! Memory: the full `nodes × bands·rows` signature table is never
//! materialized. Each band recomputes its own rows and folds them into
//! one `u64` bucket key per node, so resident signature state is `O(n)`
//! regardless of the band count — and since a band only ever needed its
//! own rows, the total hashing work is the same as filling the table.
//!
//! Feature sets arrive as any slice of [`FeatureId`] values (`u32`
//! arena ids borrowed straight from `TraceDataset` postings, or `u64`
//! synthetic features); ids are widened to `u64` at hash time, so the
//! candidate output is independent of the carrier width.

use crate::config::{CandidateRoute, LshConfig};
use smash_support::governor::{Governor, StageScope};
use smash_support::par;
use std::collections::HashMap;

/// A value usable as an LSH feature: anything losslessly widenable to
/// the `u64` the hashes consume. Implemented for `u32` (interned arena
/// ids) and `u64` (synthetic features like charset buckets), so
/// dimension builders can hand postings to the generator as borrowed
/// `&[u32]` slices without a widening copy.
pub trait FeatureId: Copy + Send + Sync {
    /// The canonical `u64` this feature hashes as.
    fn widen(self) -> u64;
}

impl FeatureId for u64 {
    #[inline]
    fn widen(self) -> u64 {
        self
    }
}

impl FeatureId for u32 {
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

/// Funnel statistics of one candidate-generation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Distinct features observed (inverted-index postings).
    pub features: u64,
    /// LSH buckets skipped because they exceeded `bucket_cap`.
    pub capped_buckets: u64,
    /// Candidate pairs after deduplication.
    pub pairs: u64,
}

/// SplitMix64 finalizer: the bijective scrambler behind every hash in
/// this module.
#[inline]
fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-row hash of one feature: a distinct scrambled copy of the
/// feature value for each signature row.
#[inline]
fn row_hash(feature: u64, row: u64) -> u64 {
    mix64(feature ^ mix64(row.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// MinHash signatures of length `signature_len` for every node's
/// feature set, computed in parallel (order-preserving, so the result
/// is identical across thread counts). An empty set signs as all
/// `u64::MAX`.
///
/// The candidate generator itself never builds this table — it folds
/// each band's rows into bucket keys directly ([`lsh_candidates`]) —
/// but the recall harness and the Jaccard estimator read raw rows.
pub fn minhash_signatures<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    signature_len: usize,
) -> Vec<Vec<u64>> {
    par::par_map(node_features, |features| {
        let mut sig = vec![u64::MAX; signature_len];
        for &f in features.as_ref() {
            for (i, slot) in sig.iter_mut().enumerate() {
                let h = row_hash(f.widen(), i as u64);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    })
}

/// One bucket key per node for `band`: the band's `rows` signature rows
/// (rows `band·rows ..` of the full table), folded with [`mix64`] into
/// a single `u64`. Identical to folding the same rows out of
/// [`minhash_signatures`]' table — the table is just never built.
/// Below this node count one band's keys are computed on the calling
/// thread: `band_keys` runs once per band, and on small graphs the
/// per-call fork/join coordination costs more than the hashing it
/// spreads. Output is identical either way (`par_map` preserves
/// order); only the wall clock changes.
const PAR_BAND_MIN_NODES: usize = 4096;

fn band_keys<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    band: usize,
    rows: usize,
) -> Vec<u64> {
    let seed = mix64(0xB00C_0000 ^ band as u64);
    let first_row = band * rows;
    let key_of = |features: &S| {
        let features = features.as_ref();
        if rows == 1 {
            // Default shape (64 bands × 1 row): one minimum, no
            // per-node signature buffer at all.
            let mut min = u64::MAX;
            for &f in features {
                let h = row_hash(f.widen(), first_row as u64);
                if h < min {
                    min = h;
                }
            }
            mix64(seed ^ min)
        } else {
            let mut sig = vec![u64::MAX; rows];
            for &f in features {
                for (i, slot) in sig.iter_mut().enumerate() {
                    let h = row_hash(f.widen(), (first_row + i) as u64);
                    if h < *slot {
                        *slot = h;
                    }
                }
            }
            let mut key = seed;
            for row in sig {
                key = mix64(key ^ row);
            }
            key
        }
    };
    if node_features.len() < PAR_BAND_MIN_NODES {
        node_features.iter().map(key_of).collect()
    } else {
        par::par_map(node_features, key_of)
    }
}

/// Fraction of agreeing rows between two equal-length signatures — an
/// unbiased estimator of the Jaccard similarity of the underlying sets.
pub fn estimate_jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

/// Generates the sorted, deduplicated candidate pairs `(u, v)` with
/// `u < v` whose feature sets plausibly overlap.
///
/// `node_features` holds one deduplicated feature set per node (node id
/// = index). Features shared by at most `lsh.rare_cap` nodes produce
/// their pairs exactly; every feature — however popular — participates
/// in MinHash banding, so candidacy tracks the full-set Jaccard the
/// exact scorer will see.
pub fn lsh_candidates<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let governor = Governor::unlimited();
    lsh_candidates_governed(node_features, lsh, &governor.stage("candidates", 0))
}

/// [`lsh_candidates`] under governor control (DESIGN.md §11).
///
/// The generator is a cancellation point of `scope` (ticking per node
/// and per band) and charges its dominant allocations — postings,
/// per-band bucket keys and buckets, and the candidate-pair buffer —
/// against the stage's byte account. (Signature memory needs no ladder
/// rung: banding is streamed by construction, so only one band's keys —
/// 8 bytes per node — are ever resident.) Its one ladder rung (DESIGN.md
/// §11.3, rung 2) runs before each band's cliques are pushed: the band's
/// clique expansion is projected from its bucket sizes, and while the
/// projection would cross the soft budget the effective `bucket_cap` is
/// tightened (÷4, floor 2), trading recall in degenerate crowds for
/// clique memory. Past that, the hard budget, enforced inside
/// [`StageScope::charge`], cancels the stage.
///
/// With an unbudgeted scope the output is identical to
/// [`lsh_candidates`].
pub fn lsh_candidates_governed<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
    scope: &StageScope,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let mut stats = CandidateStats::default();
    let mut pairs: Vec<(u32, u32)> = Vec::new();

    // Inverted index feature → nodes. Input sets are deduplicated and
    // nodes are visited in order, so each posting is sorted and unique.
    let mut postings: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut posting_bytes = 0u64;
    for (node, features) in node_features.iter().enumerate() {
        let features = features.as_ref();
        scope.tick();
        let bytes = features.len() as u64 * 4;
        posting_bytes += bytes;
        scope.charge(bytes);
        for &f in features {
            postings.entry(f.widen()).or_default().push(node as u32);
        }
    }
    stats.features = postings.len() as u64;

    // Rare-feature exact path.
    // lint:allow(hash-iter): pairs are sorted+deduped before use.
    for nodes in postings.values() {
        if nodes.len() >= 2 && nodes.len() <= lsh.rare_cap {
            push_clique(&mut pairs, nodes);
        }
    }
    // Postings are only read by the rare path; return their bytes now.
    drop(postings);
    scope.release(posting_bytes);
    scope.charge(pairs.len() as u64 * 8);

    // Banding, streamed: each band recomputes only its own signature
    // rows and folds them straight into one bucket key per node, so
    // resident signature state is one u64 per node — the full
    // `nodes × bands·rows` table never exists. A band only ever needed
    // its own rows, so the total hashing work is unchanged.
    let key_bytes = node_features.len() as u64 * 8;

    // One bucket map per band, reused across bands.
    let mut effective_bucket_cap = lsh.bucket_cap;
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for band in 0..lsh.bands {
        scope.tick();
        scope.charge(key_bytes);
        let keys = band_keys(node_features, band, lsh.rows);
        buckets.clear();
        let before = pairs.len();
        let mut bucketed = 0u64;
        for (node, (&key, features)) in keys.iter().zip(node_features).enumerate() {
            if features.as_ref().is_empty() {
                // All-MAX signatures would glue every empty node into
                // one bucket of spurious pairs.
                continue;
            }
            buckets.entry(key).or_default().push(node as u32);
            bucketed += 1;
        }
        scope.charge(bucketed * 4);
        // Project this band's clique expansion against the soft budget
        // and tighten until the projection fits (or the cap floors at
        // 2): a single crowded band could otherwise jump the account
        // from under soft straight past the hard budget before any
        // ladder decision point runs.
        while scope.soft_bytes() > 0 && effective_bucket_cap > 2 {
            // lint:allow(hash-iter): order-independent sum.
            let projected: u64 = buckets
                .values()
                .filter(|nodes| nodes.len() <= effective_bucket_cap)
                .map(|nodes| pair_universe(nodes.len()) * 8)
                .sum();
            if scope.tracked_bytes() + projected <= scope.soft_bytes() {
                break;
            }
            let tightened = (effective_bucket_cap / 4).max(2);
            scope.record(format!(
                "bucket_cap tightened {effective_bucket_cap} -> {tightened}"
            ));
            effective_bucket_cap = tightened;
        }
        // lint:allow(hash-iter): pairs are sorted+deduped before use.
        for nodes in buckets.values() {
            if nodes.len() > effective_bucket_cap {
                stats.capped_buckets += 1;
            } else {
                push_clique(&mut pairs, nodes);
            }
        }
        drop(keys);
        // Buckets and keys are rebuilt next band; the pair delta
        // persists.
        scope.release(bucketed * 4);
        scope.charge((pairs.len() - before) as u64 * 8);
        scope.release(key_bytes);
    }

    pairs.sort_unstable();
    let before_dedup = pairs.len();
    pairs.dedup();
    scope.release((before_dedup - pairs.len()) as u64 * 8);
    stats.pairs = pairs.len() as u64;
    (pairs, stats)
}

/// Appends every unordered pair of `nodes` (already sorted ascending).
fn push_clique(pairs: &mut Vec<(u32, u32)>, nodes: &[u32]) {
    for (i, &u) in nodes.iter().enumerate() {
        for &v in nodes.iter().skip(i + 1) {
            pairs.push((u, v));
        }
    }
}

/// Whether a dimension takes the exact candidate route (DESIGN.md §10).
///
/// `pair_visits` is `Σ C(|p|, 2)` over the dimension's postings — the
/// work of the exact co-occurrence product, known before any
/// enumeration — and `posting_entries` is `Σ |p|`. LSH hashes every
/// posting entry once per signature row, so under
/// [`CandidateRoute::Auto`] the exact route is taken iff
/// `pair_visits ≤ signature_len · posting_entries`: exact candidates
/// never cost more than the hashing they replace, and a hostile posting
/// (one crawler touching every server) tips the dimension back to LSH
/// instead of buying quadratic CPU.
pub fn exact_route(
    route: CandidateRoute,
    pair_visits: u64,
    posting_entries: u64,
    lsh: &LshConfig,
) -> bool {
    match route {
        CandidateRoute::Auto => {
            pair_visits <= (lsh.signature_len() as u64).saturating_mul(posting_entries)
        }
        CandidateRoute::Exact => true,
        CandidateRoute::Lsh => false,
    }
}

/// `n·(n−1)/2` — the size of the all-pairs universe over `n` nodes.
pub fn pair_universe(n: usize) -> u64 {
    let n = n as u64;
    n.saturating_mul(n.saturating_sub(1)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_support::check::{check, Gen};
    use smash_support::rng::{DetRng, Rng, SeedableRng};

    fn set_of(rng: &mut DetRng, len: usize, universe: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn true_jaccard(a: &[u64], b: &[u64]) -> f64 {
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let inter = sa.intersection(&sb).count();
        let union = sa.len() + sb.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    #[test]
    fn jaccard_estimate_error_bounded_by_signature_size() {
        // With k = 256 rows the estimator's standard deviation is
        // sqrt(J(1−J)/k) ≤ 0.032; a 0.17 tolerance is > 5σ for every
        // seeded case.
        const K: usize = 256;
        check(
            |g: &mut Gen| {
                let mut rng = DetRng::seed_from_u64(g.u64());
                let shared = set_of(&mut rng, 40, 1 << 40);
                let extra_a = rng.gen_range(0..60);
                let extra_b = rng.gen_range(0..60);
                let mut a = shared.clone();
                a.extend(set_of(&mut rng, extra_a, 1 << 41));
                let mut b = shared;
                b.extend(set_of(&mut rng, extra_b, 1 << 42));
                for s in [&mut a, &mut b] {
                    s.sort_unstable();
                    s.dedup();
                }
                (a, b)
            },
            |(a, b)| {
                let sigs = minhash_signatures(&[a.clone(), b.clone()], K);
                let mut it = sigs.iter();
                let (sa, sb) = (it.next().unwrap(), it.next().unwrap());
                let est = estimate_jaccard(sa, sb);
                let truth = true_jaccard(a, b);
                assert!(
                    (est - truth).abs() < 0.17,
                    "estimate {est:.3} vs true {truth:.3} with k={K}"
                );
            },
        );
    }

    #[test]
    fn signatures_identical_across_thread_counts() {
        let mut rng = DetRng::seed_from_u64(0xC0FFEE);
        let sets: Vec<Vec<u64>> = (0..64).map(|_| set_of(&mut rng, 50, 1 << 32)).collect();
        par::set_thread_count(1);
        let single = minhash_signatures(&sets, 64);
        par::set_thread_count(4);
        let multi = minhash_signatures(&sets, 64);
        par::set_thread_count(0);
        assert_eq!(single, multi);
    }

    #[test]
    fn candidates_identical_across_thread_counts() {
        let mut rng = DetRng::seed_from_u64(7);
        let shared = set_of(&mut rng, 30, 1 << 30);
        let sets: Vec<Vec<u64>> = (0..40)
            .map(|_| {
                let mut s = shared.clone();
                s.extend(set_of(&mut rng, 20, 1 << 31));
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let lsh = LshConfig::default();
        par::set_thread_count(1);
        let (a, sa) = lsh_candidates(&sets, &lsh);
        par::set_thread_count(4);
        let (b, sb) = lsh_candidates(&sets, &lsh);
        par::set_thread_count(0);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn identical_sets_always_collide() {
        // rare_cap = 0 disables the exact path, so collision must come
        // from banding — identical sets share every band bucket.
        let lsh = LshConfig {
            rare_cap: 0,
            ..LshConfig::default()
        };
        for seed in 0..50u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let s = set_of(&mut rng, 1 + (seed as usize % 40), 1 << 35);
            let (pairs, _) = lsh_candidates(&[s.clone(), s], &lsh);
            assert_eq!(pairs, vec![(0, 1)], "seed {seed}");
        }
    }

    #[test]
    fn disjoint_sets_never_collide() {
        let lsh = LshConfig::default();
        for seed in 0..50u64 {
            let a: Vec<u64> = (0..40).map(|i| 2 * i + (seed << 32)).collect();
            let b: Vec<u64> = (0..40).map(|i| 2 * i + 1 + (seed << 32)).collect();
            let (pairs, _) = lsh_candidates(&[a, b], &lsh);
            assert!(pairs.is_empty(), "seed {seed}: {pairs:?}");
        }
    }

    #[test]
    fn banding_collision_rate_matches_s_curve() {
        // J = 1/3 pairs under a 4-band × 1-row shape: the s-curve
        // predicts P(collide) = 1 − (1 − 1/3)^4 ≈ 0.8025. Empirical
        // σ over 400 trials is ~0.02, so ±0.1 is a 5σ corridor.
        let lsh = LshConfig {
            bands: 4,
            rows: 1,
            rare_cap: 0,
            bucket_cap: 512,
        };
        let trials = 400;
        let mut hits = 0;
        for seed in 0..trials {
            let mut rng = DetRng::seed_from_u64(0x5C0_0000 + seed);
            let shared = set_of(&mut rng, 80, 1 << 45);
            let mut a = shared.clone();
            a.extend(set_of(&mut rng, 80, 1 << 46));
            let mut b = shared;
            b.extend(set_of(&mut rng, 80, 1 << 47));
            for s in [&mut a, &mut b] {
                s.sort_unstable();
                s.dedup();
            }
            // Trim duplicates' jitter: only keep trials close to J=1/3.
            if (true_jaccard(&a, &b) - 1.0 / 3.0).abs() > 0.02 {
                continue;
            }
            let (pairs, _) = lsh_candidates(&[a, b], &lsh);
            if !pairs.is_empty() {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        let expected = 1.0 - (1.0 - 1.0 / 3.0f64).powi(4);
        assert!(
            (rate - expected).abs() < 0.1,
            "collision rate {rate:.3}, s-curve predicts {expected:.3}"
        );
    }

    #[test]
    fn rare_features_guarantee_low_jaccard_pairs() {
        // A 2-element set contained in a 200-element set: J ≈ 0.01,
        // hopeless for banding, but the two shared features are rare —
        // the exact path must always produce the pair.
        let small: Vec<u64> = vec![10, 20];
        let big: Vec<u64> = (0..200).map(|i| i * 7 + 10).collect();
        let mut big = big;
        big.extend([10, 20]);
        big.sort_unstable();
        big.dedup();
        let (pairs, _) = lsh_candidates(&[small, big], &LshConfig::default());
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn popular_features_still_carry_candidacy_through_banding() {
        // One feature shared by all twenty nodes — far beyond rare_cap,
        // so the exact path contributes nothing — yet the sets are
        // identical (J = 1), so banding must produce the full clique.
        // This is the ground-truth-preserving behavior the old inverted-
        // index posting cap violated.
        let sets: Vec<Vec<u64>> = (0..20).map(|_| vec![42]).collect();
        let (pairs, stats) = lsh_candidates(&sets, &LshConfig::default());
        assert_eq!(pairs.len() as u64, pair_universe(20));
        assert_eq!(stats.features, 1);
    }

    #[test]
    fn bucket_cap_skips_degenerate_buckets() {
        // 40 identical single-feature sets with bucket_cap 8: banding
        // puts all 40 in one bucket per band, which is skipped; the
        // rare path is disabled by rare_cap 0 and the posting (len 40)
        // is over rare_cap anyway.
        let lsh = LshConfig {
            rare_cap: 0,
            bucket_cap: 8,
            ..LshConfig::default()
        };
        let sets: Vec<Vec<u64>> = (0..40).map(|_| vec![7, 9]).collect();
        let (pairs, stats) = lsh_candidates(&sets, &lsh);
        assert!(pairs.is_empty());
        assert_eq!(stats.capped_buckets, lsh.bands as u64);
    }

    #[test]
    fn empty_sets_never_pair() {
        let sets: Vec<Vec<u64>> = vec![vec![], vec![], vec![1, 2]];
        let (pairs, _) = lsh_candidates(&sets, &LshConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn pair_universe_is_the_triangle() {
        assert_eq!(pair_universe(4), 6);
        assert_eq!(pair_universe(0), 0);
        assert_eq!(pair_universe(1), 0);
    }

    #[test]
    fn routing_rule_sits_at_the_hashing_cost() {
        let lsh = LshConfig::default(); // signature length 64
        let route = |r, visits, entries| exact_route(r, visits, entries, &lsh);
        // Auto: exact up to and including 64 visits per posting entry.
        assert!(route(CandidateRoute::Auto, 6_400, 100));
        assert!(!route(CandidateRoute::Auto, 6_401, 100));
        assert!(route(CandidateRoute::Auto, 0, 0));
        assert!(!route(CandidateRoute::Auto, 1, 0));
        // The forced routes ignore the costs.
        assert!(route(CandidateRoute::Exact, u64::MAX, 1));
        assert!(!route(CandidateRoute::Lsh, 0, 100));
    }

    #[test]
    fn estimator_edge_cases() {
        assert_eq!(estimate_jaccard(&[], &[]), 0.0);
        assert_eq!(estimate_jaccard(&[1, 2], &[1]), 0.0);
        assert_eq!(estimate_jaccard(&[5, 6], &[5, 6]), 1.0);
    }
}
