//! Sparse pairwise co-occurrence counting.
//!
//! The SMASH paper observes that pairwise server similarity is *O(N²)* and
//! points at sparse matrix multiplication as the remedy. This module is
//! that remedy: features (clients, IPs, URI-file signatures, whois fields)
//! are turned into *posting lists* of the items that exhibit them, and only
//! item pairs that co-occur in at least one posting list are ever counted.
//! The result — `|features(i) ∩ features(j)|` for every co-occurring pair —
//! is exactly the sparse product `AᵀA` restricted to its non-zero
//! off-diagonal entries.
//!
//! The product is computed row by row: for item `u`, walk every posting
//! that contains `u` and bump a dense per-item counter for each later
//! item `v > u` in it, then hand each touched `(u, v, count)` to the
//! caller's scorer before the counter is cleared. Rows are independent,
//! so contiguous row ranges run in parallel, each worker with its own
//! dense counter, and the ranges' kept edges are concatenated in row
//! order — the output is sorted by `(u, v)` and identical across thread
//! counts. The work is exactly
//! [`pair_visits`](CooccurrenceCounter::pair_visits) counter bumps plus
//! one sort per row of the distinct items it touched; no per-pair
//! buffer ever exists, only the edges the scorer keeps.

use smash_support::governor::CancelToken;
use smash_support::par;

/// Below this many pair visits the product runs on the calling thread:
/// spawning workers costs more than the counting it would spread.
const PAR_MIN_VISITS: u64 = 1 << 16;

/// Row ranges handed out per worker thread, so uneven rows balance
/// across workers through the work-stealing map.
const RANGES_PER_THREAD: usize = 8;

/// Accumulates posting lists and scores every co-occurring item pair.
///
/// # Example
///
/// ```
/// use smash_graph::CooccurrenceCounter;
/// use smash_support::governor::CancelToken;
///
/// let mut c = CooccurrenceCounter::new();
/// c.add_posting([1, 2, 3]); // feature A is shared by items 1, 2, 3
/// c.add_posting([2, 3]);    // feature B is shared by items 2, 3
/// assert_eq!(c.pair_visits(), 4);
/// // Keep the pairs sharing both features, weighted by the count.
/// let (scored, edges) = c.scored(&CancelToken::new(), |_, _, shared| {
///     (shared >= 2).then_some(shared as f64)
/// });
/// assert_eq!(scored, 3);
/// assert_eq!(edges, vec![(2, 3, 2.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooccurrenceCounter {
    postings: Vec<Vec<u32>>,
}

impl CooccurrenceCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one feature's posting list (the set of items exhibiting the
    /// feature). Duplicates within the list are removed.
    pub fn add_posting<I: IntoIterator<Item = u32>>(&mut self, items: I) {
        let mut v: Vec<u32> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        if v.len() >= 2 {
            self.postings.push(v);
        }
    }

    /// `Σ C(|posting|, 2)` over the retained postings: how many pair
    /// visits [`scored`](Self::scored) will make, known before any
    /// enumeration. The number of distinct pairs it scores is at most
    /// this.
    pub fn pair_visits(&self) -> u64 {
        self.postings
            .iter()
            .map(|p| {
                let k = p.len() as u64;
                k * (k - 1) / 2
            })
            .sum()
    }

    /// Scores every item pair that co-occurs in at least one posting
    /// list: `score(u, v, shared)` runs once per pair `u < v`, with
    /// `shared` the number of postings holding both, inside the worker
    /// that counted the pair. Returns how many pairs were scored and the
    /// `(u, v, weight)` edges the scorer kept (`Some(weight)`), sorted by
    /// `(u, v)`. Identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics with the cancellation reason (via [`CancelToken::bail`])
    /// when `cancel` is or becomes cancelled — a cancellation point, like
    /// every governed inner loop.
    pub fn scored<F>(&self, cancel: &CancelToken, score: F) -> (u64, Vec<(u32, u32, f64)>)
    where
        F: Fn(u32, u32, usize) -> Option<f64> + Sync,
    {
        let rows = RowIndex::new(&self.postings);
        let ranges = rows.split(&self.postings, self.pair_visits());
        let per_range = par::par_map_cancellable(&ranges, cancel, |&(lo, hi)| {
            rows.product(&self.postings, lo, hi, &score)
        });
        let scored = per_range.iter().map(|(n, _)| n).sum();
        let edges = per_range.into_iter().flat_map(|(_, e)| e).collect();
        (scored, edges)
    }
}

/// The transposed postings: for each item, the postings containing it
/// and its position in each, in CSR form.
struct RowIndex {
    /// `entries[offsets[u]..offsets[u + 1]]` are item `u`'s postings.
    offsets: Vec<usize>,
    /// `(posting index, position of the item within that posting)`.
    entries: Vec<(u32, u32)>,
}

impl RowIndex {
    fn new(postings: &[Vec<u32>]) -> Self {
        let items = postings
            .iter()
            .filter_map(|p| p.last())
            .max()
            .map_or(0, |&m| m as usize + 1);
        let mut offsets = vec![0usize; items + 1];
        for &x in postings.iter().flatten() {
            if let Some(o) = offsets.get_mut(x as usize + 1) {
                *o += 1;
            }
        }
        for i in 1..offsets.len() {
            let prev = offsets.get(i - 1).copied().unwrap_or(0);
            if let Some(o) = offsets.get_mut(i) {
                *o += prev;
            }
        }
        let mut fill = offsets.clone();
        let mut entries = vec![(0u32, 0u32); offsets.last().copied().unwrap_or(0)];
        for (p, posting) in postings.iter().enumerate() {
            for (pos, &x) in posting.iter().enumerate() {
                if let Some(at) = fill.get_mut(x as usize) {
                    if let Some(e) = entries.get_mut(*at) {
                        *e = (p as u32, pos as u32);
                    }
                    *at += 1;
                }
            }
        }
        Self { offsets, entries }
    }

    fn items(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, u: usize) -> &[(u32, u32)] {
        let lo = self.offsets.get(u).copied().unwrap_or(0);
        let hi = self.offsets.get(u + 1).copied().unwrap_or(lo);
        self.entries.get(lo..hi).unwrap_or(&[])
    }

    /// Pair visits of row `u`: the items after `u` in each of its
    /// postings.
    fn row_visits(&self, postings: &[Vec<u32>], u: usize) -> u64 {
        self.row(u)
            .iter()
            .map(|&(p, pos)| {
                let len = postings.get(p as usize).map_or(0, Vec::len);
                len.saturating_sub(pos as usize + 1) as u64
            })
            .sum()
    }

    /// Splits the rows into contiguous ranges of roughly equal pair
    /// visits. Only the wall clock depends on the split, never the
    /// output.
    fn split(&self, postings: &[Vec<u32>], visits: u64) -> Vec<(usize, usize)> {
        let n = self.items();
        let threads = par::current_num_threads();
        if visits < PAR_MIN_VISITS || threads < 2 {
            return vec![(0, n)];
        }
        let target = visits.div_ceil((threads * RANGES_PER_THREAD) as u64);
        let mut ranges = Vec::new();
        let (mut lo, mut acc) = (0, 0u64);
        for u in 0..n {
            acc += self.row_visits(postings, u);
            if acc >= target {
                ranges.push((lo, u + 1));
                lo = u + 1;
                acc = 0;
            }
        }
        if lo < n {
            ranges.push((lo, n));
        }
        ranges
    }

    /// Rows `lo..hi` of the product, each pair handed to `score` as it
    /// is counted: the number of pairs scored, and the kept edges sorted
    /// by `(u, v)`.
    fn product<F>(
        &self,
        postings: &[Vec<u32>],
        lo: usize,
        hi: usize,
        score: &F,
    ) -> (u64, Vec<(u32, u32, f64)>)
    where
        F: Fn(u32, u32, usize) -> Option<f64>,
    {
        let mut counter = vec![0u32; self.items()];
        let mut touched: Vec<u32> = Vec::new();
        let (mut scored, mut out) = (0u64, Vec::new());
        for u in lo..hi {
            for &(p, pos) in self.row(u) {
                let tail = postings
                    .get(p as usize)
                    .and_then(|posting| posting.get(pos as usize + 1..))
                    .unwrap_or(&[]);
                for &v in tail {
                    if let Some(c) = counter.get_mut(v as usize) {
                        if *c == 0 {
                            touched.push(v);
                        }
                        *c += 1;
                    }
                }
            }
            touched.sort_unstable();
            scored += touched.len() as u64;
            for &v in &touched {
                if let Some(c) = counter.get_mut(v as usize) {
                    if let Some(w) = score(u as u32, v, *c as usize) {
                        out.push((u as u32, v, w));
                    }
                    *c = 0;
                }
            }
            touched.clear();
        }
        (scored, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every co-occurring pair, weighted by its shared-posting count.
    fn counts(c: &CooccurrenceCounter) -> Vec<(u32, u32, f64)> {
        let (scored, edges) = c.scored(&CancelToken::new(), |_, _, n| Some(n as f64));
        assert_eq!(scored, edges.len() as u64);
        edges
    }

    #[test]
    fn empty_counter_yields_nothing() {
        assert!(counts(&CooccurrenceCounter::new()).is_empty());
    }

    #[test]
    fn singleton_postings_are_ignored() {
        let mut c = CooccurrenceCounter::new();
        c.add_posting([5]);
        c.add_posting([]);
        assert_eq!(c.pair_visits(), 0);
        assert!(counts(&c).is_empty());
    }

    #[test]
    fn duplicates_within_posting_collapse() {
        let mut c = CooccurrenceCounter::new();
        c.add_posting([1, 1, 2, 2]);
        assert_eq!(counts(&c), vec![(1, 2, 1.0)]);
    }

    #[test]
    fn counts_accumulate_across_postings() {
        let mut c = CooccurrenceCounter::new();
        c.add_posting([1, 2]);
        c.add_posting([2, 1]);
        c.add_posting([1, 3]);
        assert_eq!(counts(&c), vec![(1, 2, 2.0), (1, 3, 1.0)]);
        assert_eq!(c.pair_visits(), 3);
    }

    #[test]
    fn scorer_decides_which_pairs_become_edges() {
        let mut c = CooccurrenceCounter::new();
        c.add_posting([1, 2, 3]);
        c.add_posting([2, 3]);
        // Every distinct pair is scored once, whatever the scorer keeps.
        let (scored, edges) = c.scored(&CancelToken::new(), |u, _, _| (u == 1).then_some(0.5));
        assert_eq!(scored, 3);
        assert_eq!(edges, vec![(1, 2, 0.5), (1, 3, 0.5)]);
    }

    #[test]
    fn rows_are_sorted_and_split_invariant() {
        // Enough visits that the product splits into ranges.
        let mut c = CooccurrenceCounter::new();
        for i in 0..600u32 {
            c.add_posting((0..24).map(|k| (i * 7 + k * 13) % 400));
        }
        assert!(c.pair_visits() >= PAR_MIN_VISITS);
        let all = counts(&c);
        assert!(all.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(all.iter().all(|&(u, v, n)| u < v && n > 0.0));
        let rows = RowIndex::new(&c.postings);
        let keep_all = |_: u32, _: u32, n: usize| Some(n as f64);
        let one_range = rows.product(&c.postings, 0, rows.items(), &keep_all);
        assert_eq!(one_range, (all.len() as u64, all));
    }

    #[test]
    fn cancelled_token_stops_the_product() {
        let mut c = CooccurrenceCounter::new();
        c.add_posting([1, 2, 3]);
        let token = CancelToken::new();
        token.cancel("governor: test");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.scored(&token, |_, _, _| Some(1.0))
        }));
        assert!(caught.is_err());
    }
}
