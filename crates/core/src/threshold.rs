//! `k`-of-`n` threshold intersection over sorted lists.
//!
//! The motif condition is "more than k of [A's followings] follow an
//! account C within a time period τ". After the `D` lookup produces `n ≥ k`
//! witness `B`s, the detector must find every `A` appearing in **at least
//! k** of the `n` sorted follower lists `S[B₁] … S[Bₙ]`. (For `k = n = 2`
//! this is plain intersection.)
//!
//! All kernels are generic over the element type (`Copy + Ord + Hash`) so
//! the detector can run them over dense `u32` ids — half the memory
//! traffic of raw `u64` user ids — while tests and offline consumers can
//! still use them over [`magicrecs_types::UserId`].
//!
//! Algorithms (ablation B2):
//!
//! * [`threshold_scan_count`] — hash-count every element of every list;
//!   O(total) with a small constant, wins at large `n` with uniform
//!   lengths.
//! * [`threshold_heap_merge`] — `n`-way merge via binary heap, counting
//!   runs of equal values; O(total · log n) but allocation-light and
//!   cache-friendly at tiny `n`.
//! * [`threshold_pivot_skip`] — pivot-generation from the `n − k + 1`
//!   shortest lists with galloping cursors and count-based early exit:
//!   a candidate is abandoned the moment `(lists remaining) < (k − hits)`,
//!   so whole suffixes of celebrity-sized lists are never touched. This is
//!   the skew winner: cost scales with the *short* lists plus
//!   O(log) probes into the long ones, not with total input size. Pivots
//!   come from a linear min-scan over the generator lists — O(g) per
//!   pivot, unbeatable for a handful of generators.
//! * [`threshold_pivot_tree`] — the same skip/early-exit structure with
//!   pivots drawn from a **loser (tournament) tree** over the generator
//!   lists: O(log g) per cursor advance instead of O(g) per pivot, which
//!   is what lifts the old 16-generator cap on the adaptive choice and
//!   lets pivot generation win at high fan-in too.
//! * adaptive ([`threshold_intersect`] with [`ThresholdAlgo::Adaptive`]) —
//!   picks a pivot kernel under celebrity skew (linear min-scan at few
//!   generators, loser tree above), the heap at tiny fan-in, scan-count
//!   otherwise; see [`ThresholdAlgo::Adaptive`] for the measured
//!   crossovers.
//!
//! The pivot kernels advance their per-list cursors through
//! [`gallop_to_simd`], so on dense-id lists every probe's final bracket is
//! resolved by the vectorized count-below scan (see [`crate::simd`] for
//! the dispatch story; `MAGICRECS_FORCE_SCALAR=1` pins the scalar twins).
//!
//! All return `(value, count)` pairs sorted by value, counts being the
//! exact number of lists containing the value (ties are deterministic).

use crate::intersect::gallop_to_simd;
use crate::simd::SimdElem;
use magicrecs_types::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

/// Largest fan-in the heap is ever picked for (its per-element cost grows
/// with log n; see ablation B2).
const HEAP_MAX_LISTS: usize = 8;

/// Largest total input size the heap is ever picked for. The heap's edge
/// over scan-count is avoiding the per-call hash-map allocation, which
/// only pays while the inputs are small; on the balanced 8×2000 fixture
/// (16k total) scan-count beats the heap ~3× despite that allocation.
const HEAP_MAX_TOTAL: usize = 8192;

/// Adaptive picks a pivot kernel when the `k − 1` longest lists hold at
/// least this many times the entries of all other lists combined: the
/// excluded tail is exactly what pivot-skip never walks, so its dominance
/// is the win condition (a celebrity witness among ordinary ones).
const PIVOT_DOMINANCE_RATIO: usize = 4;

/// Generator count above which the loser tree's O(log g) pivot updates
/// always beat the linear min-scan's O(g) pass, regardless of volume.
const PIVOT_TREE_MIN_GENERATORS: usize = 8;

/// Generator-side volume (total entries across the generator lists) at
/// which the tree wins even at small fan-in: its build allocations
/// amortize over the pivot walk, and per-pivot it replays only the lists
/// that matched instead of min-scanning and galloping every generator.
/// Below this, per-event allocation dominates and the linear scan stays
/// ahead (the Zipf steady-trace events).
const PIVOT_TREE_MIN_VOLUME: usize = 512;

/// Which threshold algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdAlgo {
    /// Hash-count (ScanCount).
    ScanCount,
    /// n-way heap merge.
    HeapMerge,
    /// Pivot generation from the `n − k + 1` shortest lists via linear
    /// min-scan, galloping cursors, count-based early exit.
    PivotSkip,
    /// Pivot generation through a loser (tournament) tree over the
    /// generator lists — same skip semantics, O(log g) per cursor advance.
    PivotTree,
    /// A pivot kernel when the `k − 1` longest lists dominate the rest by
    /// `PIVOT_DOMINANCE_RATIO` (4×): the loser tree at high fan-in
    /// (> `PIVOT_TREE_MIN_GENERATORS` generators — no cap anymore) or
    /// sizable generator volume (≥ `PIVOT_TREE_MIN_VOLUME` entries), the
    /// linear min-scan for few small generators. Otherwise the heap while
    /// both fan-in (`HEAP_MAX_LISTS`) and total input (`HEAP_MAX_TOTAL`)
    /// stay small, and scan-count beyond. Crossovers measured by ablation
    /// B2 and guarded by the hotpath bench (`adaptive` must stay within
    /// 1.2× of the best arm on the balanced and celebrity fixtures).
    #[default]
    Adaptive,
}

/// Runs the selected algorithm.
pub fn threshold_intersect<V: SimdElem + Hash>(
    algo: ThresholdAlgo,
    lists: &[&[V]],
    k: usize,
    out: &mut Vec<(V, u32)>,
) {
    match algo {
        ThresholdAlgo::ScanCount => threshold_scan_count(lists, k, out),
        ThresholdAlgo::HeapMerge => threshold_heap_merge(lists, k, out),
        ThresholdAlgo::PivotSkip => threshold_pivot_skip(lists, k, out),
        ThresholdAlgo::PivotTree => threshold_pivot_tree(lists, k, out),
        ThresholdAlgo::Adaptive => match pivot_choice(lists, k) {
            Some(ThresholdAlgo::PivotTree) => threshold_pivot_tree(lists, k, out),
            Some(_) => threshold_pivot_skip(lists, k, out),
            None => {
                let total: usize = lists.iter().map(|l| l.len()).sum();
                if lists.len() <= HEAP_MAX_LISTS && total <= HEAP_MAX_TOTAL {
                    threshold_heap_merge(lists, k, out)
                } else {
                    threshold_scan_count(lists, k, out)
                }
            }
        },
    }
}

/// Adaptive's skew test: a pivot kernel wins when the `k − 1` longest
/// lists (which it excludes from pivot generation and usually never
/// walks) dominate the total volume. Returns which pivot variant to use —
/// the loser tree once the generator side is either wide (fan-in no
/// longer caps the choice) or voluminous enough to amortize the tree
/// build — or `None` when skew does not pay at all.
fn pivot_choice<V>(lists: &[&[V]], k: usize) -> Option<ThresholdAlgo> {
    let n = lists.len();
    if k < 2 || n < k {
        return None;
    }
    let excl = k - 1;
    let (total, excluded) = if excl > 8 {
        // Unusual k: pay a sort rather than grow the fixed buffer.
        let mut lengths: Vec<usize> = lists.iter().map(|l| l.len()).collect();
        lengths.sort_unstable();
        let total: usize = lengths.iter().sum();
        let excluded: usize = lengths[n - excl..].iter().sum();
        (total, excluded)
    } else {
        // Track the k−1 largest lengths in a tiny descending insertion
        // buffer: zero allocation on the per-event path.
        let mut top = [0usize; 8];
        let mut total = 0usize;
        for l in lists {
            total += l.len();
            let mut v = l.len();
            for slot in top[..excl].iter_mut() {
                if v > *slot {
                    std::mem::swap(&mut v, slot);
                }
            }
        }
        (total, top[..excl].iter().sum())
    };
    let kept = total - excluded;
    if excluded < PIVOT_DOMINANCE_RATIO * kept.max(1) {
        return None;
    }
    let generators = n - k + 1;
    if generators > PIVOT_TREE_MIN_GENERATORS || kept >= PIVOT_TREE_MIN_VOLUME {
        Some(ThresholdAlgo::PivotTree)
    } else {
        Some(ThresholdAlgo::PivotSkip)
    }
}

/// Hash-count variant: one pass over every list, then filter by `k`.
pub fn threshold_scan_count<V: SimdElem + Hash>(lists: &[&[V]], k: usize, out: &mut Vec<(V, u32)>) {
    if k == 0 || lists.len() < k {
        return;
    }
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut counts: FxHashMap<V, u32> = FxHashMap::default();
    counts.reserve(total.min(1 << 16));
    for list in lists {
        for &v in *list {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let base = out.len();
    out.extend(counts.into_iter().filter(|&(_, c)| c as usize >= k));
    out[base..].sort_unstable_by_key(|&(v, _)| v);
}

/// Heap-merge variant: pop runs of equal minimal values across lists.
pub fn threshold_heap_merge<V: SimdElem + Hash>(lists: &[&[V]], k: usize, out: &mut Vec<(V, u32)>) {
    if k == 0 || lists.len() < k {
        return;
    }
    // Heap of (next value, list index); cursors track per-list positions.
    let mut heap: BinaryHeap<Reverse<(V, usize)>> = BinaryHeap::with_capacity(lists.len());
    let mut cursors = vec![0usize; lists.len()];
    for (i, list) in lists.iter().enumerate() {
        if let Some(&v) = list.first() {
            heap.push(Reverse((v, i)));
        }
    }
    while let Some(&Reverse((value, _))) = heap.peek() {
        let mut count = 0u32;
        while let Some(&Reverse((v, i))) = heap.peek() {
            if v != value {
                break;
            }
            heap.pop();
            count += 1;
            cursors[i] += 1;
            if let Some(&next) = lists[i].get(cursors[i]) {
                heap.push(Reverse((next, i)));
            }
        }
        if count as usize >= k {
            out.push((value, count));
        }
    }
}

/// Pivot-skipping threshold intersection — the skew specialist.
///
/// Any value present in at least `k` of `n` lists must appear in at least
/// one of the `n − k + 1` **shortest** lists (only `k − 1` lists are
/// excluded from that set). Those short lists therefore generate candidate
/// pivots in ascending order; each pivot is counted across all lists from
/// shortest to longest by galloping that list's cursor forward, and — the
/// key win — counting stops the moment
/// `(lists remaining) < (k − hits so far)`: the pivot can no longer reach
/// `k`, so the longest (celebrity) lists are usually never probed at all.
/// Cursors advance monotonically and lazily, so skipped suffixes cost
/// nothing even across pivots.
pub fn threshold_pivot_skip<V: SimdElem + Hash>(lists: &[&[V]], k: usize, out: &mut Vec<(V, u32)>) {
    let n = lists.len();
    if k == 0 || n < k {
        return;
    }
    // Process lists shortest-first so the early-exit check trims the
    // expensive tails.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| lists[i].len());
    let generators = n - k + 1;
    let mut cursors = vec![0usize; n];

    loop {
        // Next pivot: the smallest un-consumed value across the generator
        // lists. n is small (witness fan-in), so a linear min is cheaper
        // than a heap.
        let mut pivot: Option<V> = None;
        for &li in &order[..generators] {
            if let Some(&v) = lists[li].get(cursors[li]) {
                pivot = Some(match pivot {
                    Some(p) if p <= v => p,
                    _ => v,
                });
            }
        }
        let Some(pivot) = pivot else { break };

        let mut hits = 0u32;
        for (pos, &li) in order.iter().enumerate() {
            // Early exit: even if every remaining list matched, the pivot
            // cannot reach k. Only non-generator (long) lists can be cut
            // here, so every generator always advances past the pivot and
            // the pivot sequence stays strictly increasing.
            let remaining = n - pos;
            if (hits as usize) + remaining < k {
                break;
            }
            let c = gallop_to_simd(lists[li], cursors[li], pivot);
            if let Some(&v) = lists[li].get(c) {
                if v == pivot {
                    hits += 1;
                    cursors[li] = c + 1;
                    continue;
                }
            }
            cursors[li] = c;
        }
        if hits as usize >= k {
            // The counting loop only breaks below k, so reaching k means
            // every list was probed: `hits` is the exact count.
            out.push((pivot, hits));
        }
    }
}

/// A loser (tournament) tree over the generator lists' head values.
///
/// Leaves are generator indices; each internal node stores the *loser* of
/// the match below it and the overall winner (the minimum head across
/// generators) sits at the root. After the winner's list cursor advances,
/// one leaf-to-root replay — O(log g) compares against stored losers —
/// restores the invariant, instead of the O(g) min-scan the linear pivot
/// generator pays per pivot. Exhausted lists hold a `None` key, which
/// compares as +∞; ties break on the lower leaf index so the pivot
/// sequence is deterministic.
struct LoserTree<V> {
    /// Loser leaf index per internal node (1-based heap layout; node 0
    /// unused). Length `p2` = leaf count rounded up to a power of two.
    losers: Vec<u32>,
    /// Current head value per leaf; `None` = exhausted (or virtual leaf
    /// padding up to `p2`).
    keys: Vec<Option<V>>,
    /// Leaf currently winning the whole tournament.
    winner: u32,
    /// Power-of-two leaf capacity.
    p2: usize,
}

impl<V: Copy + Ord> LoserTree<V> {
    /// Builds the tree from per-leaf initial keys.
    fn new(keys: Vec<Option<V>>) -> Self {
        let g = keys.len().max(1);
        let p2 = g.next_power_of_two();
        let mut tree = LoserTree {
            losers: vec![0; p2],
            keys,
            winner: 0,
            p2,
        };
        tree.keys.resize(p2, None);
        // Bottom-up build: winners per node computed transiently, losers
        // stored. Node n's children are nodes 2n and 2n+1; leaf i is node
        // p2 + i.
        let mut win: Vec<u32> = vec![0; 2 * p2];
        for (i, w) in win.iter_mut().enumerate().skip(p2) {
            *w = (i - p2) as u32;
        }
        for n in (1..p2).rev() {
            let (a, b) = (win[2 * n], win[2 * n + 1]);
            let (w, l) = if tree.beats(a, b) { (a, b) } else { (b, a) };
            win[n] = w;
            tree.losers[n] = l;
        }
        tree.winner = win[1];
        tree
    }

    /// Whether leaf `x` wins against leaf `y` (`None` loses to everything;
    /// ties go to the lower leaf index).
    #[inline]
    fn beats(&self, x: u32, y: u32) -> bool {
        match (self.keys[x as usize], self.keys[y as usize]) {
            (Some(a), Some(b)) => a < b || (a == b && x < y),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => x < y,
        }
    }

    /// The winning leaf's key (`None` once every list is exhausted).
    #[inline]
    fn winner_key(&self) -> Option<V> {
        self.keys[self.winner as usize]
    }

    /// The winning leaf index.
    #[inline]
    fn winner_leaf(&self) -> usize {
        self.winner as usize
    }

    /// Replaces the current winner's key and replays its path to the root.
    fn replace_winner(&mut self, key: Option<V>) {
        let leaf = self.winner;
        self.keys[leaf as usize] = key;
        let mut w = leaf;
        let mut node = (leaf as usize + self.p2) / 2;
        while node >= 1 {
            let l = self.losers[node];
            if self.beats(l, w) {
                self.losers[node] = w;
                w = l;
            }
            node /= 2;
        }
        self.winner = w;
    }
}

/// Pivot-skipping threshold intersection with loser-tree pivot generation
/// — the high-fan-in skew specialist.
///
/// Identical skip semantics, pivot sequence, and output to
/// [`threshold_pivot_skip`] (property-tested equivalence at 2–64
/// generators); only the pivot source differs. The linear variant pays an
/// O(g) min-scan per pivot across the `g = n − k + 1` generator lists;
/// here the generators feed a [`LoserTree`], so producing the next pivot
/// and advancing the lists that contained the last one costs O(log g)
/// per advance. The `k − 1` longest lists stay outside the tree and are
/// only probed (with early exit) exactly as in the linear variant.
pub fn threshold_pivot_tree<V: SimdElem + Hash>(lists: &[&[V]], k: usize, out: &mut Vec<(V, u32)>) {
    let n = lists.len();
    if k == 0 || n < k {
        return;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| lists[i].len());
    let generators = n - k + 1;
    let mut cursors = vec![0usize; n];
    let mut tree = LoserTree::new(
        order[..generators]
            .iter()
            .map(|&li| lists[li].first().copied())
            .collect(),
    );

    while let Some(pivot) = tree.winner_key() {
        // Count the pivot across the generators: successive tournament
        // winners with an equal key are exactly the generator lists
        // containing it; each advances by one and replays its path.
        let mut hits = 0u32;
        while tree.winner_key() == Some(pivot) {
            let li = order[tree.winner_leaf()];
            cursors[li] += 1;
            tree.replace_winner(lists[li].get(cursors[li]).copied());
            hits += 1;
        }

        // Probe the k − 1 excluded (long) lists, shortest first, with the
        // same count-based early exit as the linear variant.
        for (pos, &li) in order.iter().enumerate().skip(generators) {
            let remaining = n - pos;
            if (hits as usize) + remaining < k {
                break;
            }
            let c = gallop_to_simd(lists[li], cursors[li], pivot);
            if let Some(&v) = lists[li].get(c) {
                if v == pivot {
                    hits += 1;
                    cursors[li] = c + 1;
                    continue;
                }
            }
            cursors[li] = c;
        }
        if hits as usize >= k {
            out.push((pivot, hits));
        }
    }
}

/// Brute-force reference used by tests and property checks.
pub fn threshold_naive<V: Copy + Ord>(lists: &[&[V]], k: usize) -> Vec<(V, u32)> {
    let mut counts: std::collections::BTreeMap<V, u32> = Default::default();
    for list in lists {
        for &v in *list {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| k > 0 && c as usize >= k && lists.len() >= k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::UserId;
    use proptest::prelude::*;

    fn ids(v: &[u64]) -> Vec<UserId> {
        v.iter().map(|&n| UserId(n)).collect()
    }

    fn run(algo: ThresholdAlgo, lists: &[Vec<u64>], k: usize) -> Vec<(u64, u32)> {
        let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        threshold_intersect(algo, &slices, k, &mut out);
        out.into_iter().map(|(v, c)| (v.raw(), c)).collect()
    }

    const ALGOS: [ThresholdAlgo; 5] = [
        ThresholdAlgo::ScanCount,
        ThresholdAlgo::HeapMerge,
        ThresholdAlgo::PivotSkip,
        ThresholdAlgo::PivotTree,
        ThresholdAlgo::Adaptive,
    ];

    #[test]
    fn two_of_two_is_intersection() {
        let lists = vec![vec![1, 2, 3, 5], vec![2, 3, 4]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 2), vec![(2, 2), (3, 2)], "{algo:?}");
        }
    }

    #[test]
    fn two_of_three_majority() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        for algo in ALGOS {
            assert_eq!(
                run(algo, &lists, 2),
                vec![(2, 2), (3, 3), (4, 2)],
                "{algo:?}"
            );
        }
    }

    #[test]
    fn three_of_three_strict() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 3), vec![(3, 3)], "{algo:?}");
        }
    }

    #[test]
    fn k_larger_than_list_count_is_empty() {
        let lists = vec![vec![1, 2], vec![1, 2]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 3), vec![], "{algo:?}");
        }
    }

    #[test]
    fn k_zero_is_empty() {
        let lists = vec![vec![1], vec![1]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 0), vec![], "{algo:?}");
        }
    }

    #[test]
    fn empty_lists_ignored() {
        let lists = vec![vec![], vec![1, 2], vec![2, 3]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 2), vec![(2, 2)], "{algo:?}");
        }
    }

    #[test]
    fn single_list_k_one() {
        let lists = vec![vec![7, 9]];
        for algo in ALGOS {
            assert_eq!(run(algo, &lists, 1), vec![(7, 1), (9, 1)], "{algo:?}");
        }
    }

    #[test]
    fn many_lists_trigger_scan_count_path() {
        // 20 equal-length lists > HEAP_MAX_LISTS, no skew: adaptive takes
        // the scan-count branch.
        let lists: Vec<Vec<u64>> = (0..20).map(|i| vec![42, 100 + i]).collect();
        for algo in ALGOS {
            let got = run(algo, &lists, 20);
            assert_eq!(got, vec![(42, 20)], "{algo:?}");
        }
    }

    #[test]
    fn pivot_skip_on_celebrity_skew() {
        // Two tiny lists against one huge list; k = 2. The huge list's
        // suffix past the last short-list hit must never matter.
        let celeb: Vec<u64> = (0..100_000).map(|i| i * 2).collect();
        // 10 is in all three lists; 1_001 and 50_001 are odd (not in the
        // celebrity's even-stride list) and shared by the two short lists.
        let lists = vec![vec![10, 1_001, 50_001], vec![10, 1_001, 50_001], celeb];
        for algo in [
            ThresholdAlgo::PivotSkip,
            ThresholdAlgo::PivotTree,
            ThresholdAlgo::Adaptive,
        ] {
            assert_eq!(
                run(algo, &lists, 2),
                vec![(10, 3), (1_001, 2), (50_001, 2)],
                "{algo:?}"
            );
        }
    }

    #[test]
    fn pivot_skip_exact_counts_on_duplicated_membership() {
        // Values in all lists, some in exactly k, some in fewer.
        let lists = vec![
            vec![1, 5, 9],
            vec![1, 5, 7, 9],
            vec![1, 3, 9],
            vec![1, 9, 11],
        ];
        assert_eq!(
            run(ThresholdAlgo::PivotSkip, &lists, 2),
            vec![(1, 4), (5, 2), (9, 4)]
        );
    }

    #[test]
    fn output_appended_not_cleared() {
        let owned = [ids(&[1]), ids(&[1])];
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = vec![(UserId(99), 9u32)];
        threshold_intersect(ThresholdAlgo::Adaptive, &slices, 2, &mut out);
        assert_eq!(out[0], (UserId(99), 9));
        assert_eq!(out[1], (UserId(1), 2));
    }

    /// High fan-in forces the loser-tree pivot source through multi-level
    /// replays (65 generator lists → a 128-leaf tree).
    #[test]
    fn pivot_tree_at_high_fan_in() {
        let lists: Vec<Vec<u64>> = (0..66u64)
            .map(|i| vec![i, 100 + (i % 7), 200, 300 + i * 2])
            .collect();
        for k in [1usize, 2, 3, 30, 66] {
            let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
            let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
            let expect = threshold_naive(&slices, k);
            let mut got = Vec::new();
            threshold_pivot_tree(&slices, k, &mut got);
            assert_eq!(
                got.iter().map(|&(v, c)| (v.raw(), c)).collect::<Vec<_>>(),
                expect
                    .iter()
                    .map(|&(v, c)| (v.raw(), c))
                    .collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn gallop_to_frontier_cases() {
        use crate::intersect::gallop_to;
        let list: Vec<u64> = vec![2, 4, 6, 8, 10, 12];
        // Already at/past target.
        assert_eq!(gallop_to(&list, 0, 1), 0);
        assert_eq!(gallop_to(&list, 0, 2), 0);
        // Mid-list, from various frontiers.
        assert_eq!(gallop_to(&list, 0, 7), 3);
        assert_eq!(gallop_to(&list, 2, 7), 3);
        assert_eq!(gallop_to(&list, 3, 8), 3);
        // Past the end.
        assert_eq!(gallop_to(&list, 0, 13), 6);
        assert_eq!(gallop_to(&list, 5, 13), 6);
        // From == len.
        assert_eq!(gallop_to(&list, 6, 1), 6);
    }

    proptest! {
        #[test]
        fn all_algorithms_match_naive(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u64..64, 0..40),
                0..12,
            ),
            k in 1usize..6,
        ) {
            let lists: Vec<Vec<u64>> = raw
                .into_iter()
                .map(|mut l| {
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
            let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
            let expect: Vec<(u64, u32)> = threshold_naive(&slices, k)
                .into_iter()
                .map(|(v, c)| (v.raw(), c))
                .collect();
            for algo in ALGOS {
                prop_assert_eq!(&run(algo, &lists, k), &expect, "{:?}", algo);
            }
        }

        /// Loser-tree pivot generation is sequence-equivalent to the
        /// linear min-scan: identical `(value, count)` output (and thus an
        /// identical ascending pivot sequence) at 2–64 generator lists.
        #[test]
        fn pivot_tree_matches_pivot_skip_at_2_to_64_generators(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u64..200, 0..30),
                2..68,
            ),
            k in 1usize..6,
        ) {
            let k = k.min(raw.len());
            // Generators = n − k + 1, so this sweep covers 2..=64
            // generator lists around every k.
            let lists: Vec<Vec<u64>> = raw
                .into_iter()
                .map(|mut l| {
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
            let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
            let mut linear = Vec::new();
            threshold_pivot_skip(&slices, k, &mut linear);
            let mut tree = Vec::new();
            threshold_pivot_tree(&slices, k, &mut tree);
            prop_assert_eq!(linear, tree);
        }

        /// Pivot-skip against naive on adversarially skewed inputs: a few
        /// short lists plus one long stride list, arbitrary k.
        #[test]
        fn pivot_skip_matches_naive_under_skew(
            shorts in proptest::collection::vec(
                proptest::collection::vec(0u64..4_000, 0..12),
                1..5,
            ),
            stride in 1u64..7,
            long_len in 100usize..2_000,
            k in 1usize..6,
        ) {
            let mut lists: Vec<Vec<u64>> = shorts
                .into_iter()
                .map(|mut l| {
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            lists.push((0..long_len as u64).map(|i| i * stride).collect());
            let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
            let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
            let expect = threshold_naive(&slices, k);
            let mut got = Vec::new();
            threshold_pivot_skip(&slices, k, &mut got);
            prop_assert_eq!(got, expect);
        }
    }
}
