//! The diamond-motif detector: one dynamic edge in, candidates out.
//!
//! Per §2 of the paper, on a new `B → C` edge at time `t`:
//!
//! 1. insert the edge into `D`;
//! 2. query `D[C]` for the distinct `B`s with edges in `[t − τ, t]` — the
//!    "top half of the diamond";
//! 3. if at least `k` witnesses exist, look up each witness's follower list
//!    in `S` and find every `A` present in at least `k` of them;
//! 4. emit a [`Candidate`] per such `A` (minus `A`s who already follow `C`
//!    or are themselves witnesses, when `skip_existing` is set).
//!
//! Unfollow events remove the corresponding `D` entries (the static `S` is
//! offline-maintained, exactly as in the paper: "new incoming edges are
//! inserted into the D data structures … but these updates are not
//! propagated to the S data structures").
//!
//! **State/kernel split.** Step 1 (and the unfollow path) is the only part
//! that mutates `D`; steps 2–4 are read-only. [`DiamondDetector::detect_into`]
//! exposes exactly that read-only kernel, taking the witness list through a
//! fill callback instead of touching the store itself — the seam that lets
//! `ConcurrentEngine` run detection against an immutable `S` snapshot while
//! other threads keep inserting, and lets alternate state layers (the
//! dense-keyed [`crate::ingest::InterningIngest`], replayed logs) feed the
//! same kernel. [`DiamondDetector::on_event_into`] is the assembled
//! sequential flow, generic over any [`EdgeStore`].
//!
//! **Dense hot path.** Steps 3–4 run entirely in dense-id space: each
//! witness `B` is interned once (`S.dense_of`, one hash probe — the only
//! probe left per witness), its follower list is a dense `u32` slice
//! fetched with two array reads, and the k-of-n threshold kernel counts
//! dense ids. Because interning is order-preserving, the matches come out
//! already sorted by raw id; conversion back to [`UserId`] happens only at
//! the [`Candidate`] emission boundary. `D` stays keyed by sparse ids —
//! dynamic events reference an unbounded vertex set the interner has never
//! seen (its key type is generic for closed-world deployments; see
//! `magicrecs_temporal`).
//!
//! **Dense-witness fast path.** For closed worlds where `D` itself is
//! dense-keyed ([`crate::ingest::InterningIngest`], seeded from the same
//! graph), even that last per-witness hash probe is deletable:
//! [`DiamondDetector::detect_dense_into`] consumes witnesses already in
//! dense-id space — graph-seeded ids coincide with `S`'s dense ids, so
//! the follower lookup indexes the CSR directly and the only translation
//! left is one array read per witness for the candidate-facing sparse id.
//! Both kernels canonicalize into the same witness rows and share one
//! bottom half, so their outputs are identical by construction (and
//! test-enforced).

use crate::intersect::gallop_to_simd;
use crate::threshold::{threshold_intersect, ThresholdAlgo};
use magicrecs_graph::FollowGraph;
use magicrecs_temporal::EdgeStore;
use magicrecs_types::{Candidate, DenseId, DetectorConfig, EdgeEvent, Result, Timestamp, UserId};

/// Stateless-per-event detector with reusable scratch buffers.
#[derive(Debug)]
pub struct DiamondDetector {
    config: DetectorConfig,
    algo: ThresholdAlgo,
    // Scratch buffers, reused across events to avoid per-event allocation.
    witnesses: Vec<(UserId, Timestamp)>,
    dense_witnesses: Vec<(DenseId, Timestamp)>,
    dense_rows: Vec<(UserId, DenseId, Timestamp)>,
    /// Canonicalized witnesses both kernels converge on: sorted ascending
    /// by sparse id, each with its graph-dense id when the witness is a
    /// vertex of `S` (and `None` — empty follower list — when not).
    rows: Vec<(UserId, Option<DenseId>)>,
    matches: Vec<(DenseId, u32)>,
    /// Per-list frontier for witness recovery at emission: matches emit in
    /// ascending dense order, so one monotone galloping cursor per list
    /// replaces a per-candidate binary search of every list (a fresh
    /// O(log |S[B]|) against every celebrity-sized list, per candidate).
    witness_cursors: Vec<usize>,
}

impl DiamondDetector {
    /// Creates a detector after validating `config`.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        Ok(DiamondDetector {
            config,
            algo: ThresholdAlgo::Adaptive,
            witnesses: Vec::with_capacity(64),
            dense_witnesses: Vec::with_capacity(64),
            dense_rows: Vec::with_capacity(64),
            rows: Vec::with_capacity(64),
            matches: Vec::with_capacity(64),
            witness_cursors: Vec::with_capacity(64),
        })
    }

    /// Creates a detector pinned to a specific threshold algorithm
    /// (ablation B2).
    pub fn with_algo(config: DetectorConfig, algo: ThresholdAlgo) -> Result<Self> {
        let mut d = DiamondDetector::new(config)?;
        d.algo = algo;
        Ok(d)
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Processes one event against the partition's `S` and `D`, appending
    /// any candidates to `out`. Returns the number appended.
    ///
    /// Candidates are sorted by user id; each carries the subset of
    /// witnesses that user actually follows.
    ///
    /// Generic over the store: a single-owner [`TemporalEdgeStore`]
    /// (sequential engine), a [`ShardedTemporalStore`] by value, or a
    /// `&ShardedTemporalStore` handle shared across threads — any
    /// [`EdgeStore`] works.
    ///
    /// [`TemporalEdgeStore`]: magicrecs_temporal::TemporalEdgeStore
    /// [`ShardedTemporalStore`]: magicrecs_temporal::ShardedTemporalStore
    pub fn on_event_into<D: EdgeStore<UserId>>(
        &mut self,
        s: &FollowGraph,
        d: &mut D,
        event: EdgeEvent,
        out: &mut Vec<Candidate>,
    ) -> usize {
        if !event.kind.is_insertion() {
            d.remove(event.src, event.dst);
            return 0;
        }
        let t = event.created_at;
        d.insert(event.src, event.dst, t);
        self.detect_into(
            s,
            event.dst,
            t,
            |buf| d.witnesses_into(event.dst, t, buf),
            out,
        )
    }

    /// The read-only detection kernel: steps 2–4 of the paper's algorithm,
    /// with step 2's result supplied by the caller.
    ///
    /// `fill_witnesses` appends the distinct in-window `B`s for `target`
    /// (each with its latest timestamp) into the detector's scratch — a
    /// visitor borrow, so the kernel itself never holds store access. This
    /// is the seam `ConcurrentEngine` uses: the store lookup happens under
    /// a shard lock inside the callback, and everything after runs against
    /// the immutable `S` snapshot only. Callers with witnesses from
    /// elsewhere (a dense-keyed ingest adapter, a replayed log) plug in the
    /// same way.
    pub fn detect_into<F>(
        &mut self,
        s: &FollowGraph,
        target: UserId,
        t: Timestamp,
        fill_witnesses: F,
        out: &mut Vec<Candidate>,
    ) -> usize
    where
        F: FnOnce(&mut Vec<(UserId, Timestamp)>),
    {
        // Top half of the diamond: distinct in-window Bs pointing at C.
        self.witnesses.clear();
        fill_witnesses(&mut self.witnesses);
        if self.witnesses.len() < self.config.k {
            return 0;
        }

        // Cap witnesses, preferring the most recent (and therefore always
        // retaining the triggering edge, which has the newest timestamp up
        // to ties).
        if let Some(cap) = self.config.max_witnesses {
            if self.witnesses.len() > cap {
                self.witnesses
                    .sort_unstable_by_key(|&(b, at)| (std::cmp::Reverse(at), b));
                self.witnesses.truncate(cap);
            }
        }
        // Deterministic list order (witness order affects only ordering of
        // per-candidate witness ids, but keep everything canonical).
        self.witnesses.sort_unstable_by_key(|&(b, _)| b);

        // One interner probe per witness — the sparse boundary this path
        // pays and the dense-witness kernel deletes. Witnesses outside `S`
        // (no interned followers) contribute empty lists, exactly as the
        // old id-level lookup returned empty.
        self.rows.clear();
        let (rows, witnesses) = (&mut self.rows, &self.witnesses);
        rows.extend(witnesses.iter().map(|&(b, _)| (b, s.dense_of(b))));
        self.finish_into(s, target, t, out)
    }

    /// The dense-witness fast path: the same read-only kernel, consuming
    /// witnesses already in dense-id space.
    ///
    /// A closed-world ingest adapter ([`crate::ingest::InterningIngest`])
    /// keys `D` by dense ids *seeded from `s`'s interner*, so a witness id
    /// below `s.num_vertices()` **is** the graph's dense id (that seeding
    /// is the dense-witness contract) and its follower list needs no
    /// interner probe at all; ids past the range are stream-invented
    /// vertices with no list in `S`. `user_of` translates any witness id
    /// back to its sparse id — an array read in the adapter, replacing the
    /// per-witness hash probe plus the dense→sparse→dense round trip the
    /// sparse path pays.
    ///
    /// Output is candidate-for-candidate identical to [`detect_into`] over
    /// the equivalent sparse witness list (test-enforced): recency capping
    /// and canonical ordering use the translated sparse ids, so
    /// stream-invented vertices (whose dense order is arrival order, not
    /// id order) cannot reorder anything.
    ///
    /// [`detect_into`]: DiamondDetector::detect_into
    pub fn detect_dense_into<F, U>(
        &mut self,
        s: &FollowGraph,
        target: UserId,
        t: Timestamp,
        fill_witnesses: F,
        user_of: U,
        out: &mut Vec<Candidate>,
    ) -> usize
    where
        F: FnOnce(&mut Vec<(DenseId, Timestamp)>),
        U: Fn(DenseId) -> UserId,
    {
        self.dense_witnesses.clear();
        fill_witnesses(&mut self.dense_witnesses);
        if self.dense_witnesses.len() < self.config.k {
            return 0;
        }

        // Translate up front (array reads): the recency cap's tiebreak and
        // the canonical order are defined on sparse ids.
        self.dense_rows.clear();
        let (dense_rows, dense_witnesses) = (&mut self.dense_rows, &self.dense_witnesses);
        dense_rows.extend(dense_witnesses.iter().map(|&(d, at)| (user_of(d), d, at)));
        if let Some(cap) = self.config.max_witnesses {
            if self.dense_rows.len() > cap {
                self.dense_rows
                    .sort_unstable_by_key(|&(b, _, at)| (std::cmp::Reverse(at), b));
                self.dense_rows.truncate(cap);
            }
        }
        self.dense_rows.sort_unstable_by_key(|&(b, _, _)| b);

        self.rows.clear();
        let (rows, dense_rows) = (&mut self.rows, &self.dense_rows);
        rows.extend(
            dense_rows
                .iter()
                .map(|&(b, d, _)| (b, s.contains_dense(d).then_some(d))),
        );
        self.finish_into(s, target, t, out)
    }

    /// Shared bottom half: threshold-count the follower lists of the
    /// canonicalized witnesses in `self.rows`, then filter and emit
    /// candidates. Both the sparse and the dense-witness kernels end here.
    fn finish_into(
        &mut self,
        s: &FollowGraph,
        target: UserId,
        t: Timestamp,
        out: &mut Vec<Candidate>,
    ) -> usize {
        // Every `S[B]` lookup is two array reads on u32 slices.
        let lists: Vec<&[DenseId]> = self
            .rows
            .iter()
            .map(|&(_, d)| d.map_or(&[] as &[DenseId], |db| s.followers_dense(db)))
            .collect();
        self.matches.clear();
        threshold_intersect(self.algo, &lists, self.config.k, &mut self.matches);
        if self.matches.is_empty() {
            return 0;
        }

        // `C` may be unknown to the static graph; then nobody follows it
        // statically and it can never equal an interned match.
        let dense_dst = s.dense_of(target);

        let mut emitted = 0usize;
        self.witness_cursors.clear();
        self.witness_cursors.resize(lists.len(), 0);
        // Order-preserving interning keeps matches ascending by raw id, so
        // candidates emit in the same order the id-level path produced —
        // and the witness-recovery cursors below only ever move forward.
        for &(da, count) in self.matches.iter() {
            if Some(da) == dense_dst {
                continue; // never recommend an account to itself
            }
            let a = s.user_of(da);
            if self.config.skip_existing {
                // A witness already follows C (dynamically); a static
                // follower of C already knows it.
                if self.rows.binary_search_by_key(&a, |&(b, _)| b).is_ok()
                    || dense_dst.is_some_and(|dc| s.follows_dense(da, dc))
                {
                    continue;
                }
            }
            if let Some(cap) = self.config.max_candidates_per_event {
                if emitted >= cap {
                    break;
                }
            }
            // Recover which witnesses this candidate follows by advancing
            // each list's frontier to the candidate; the threshold count
            // says exactly how many lists will hit, so the scan stops as
            // soon as the last one is found.
            let mut witness_ids: Vec<UserId> = Vec::with_capacity(count as usize);
            for (i, list) in lists.iter().enumerate() {
                let c = gallop_to_simd(list, self.witness_cursors[i], da);
                if list.get(c).copied() == Some(da) {
                    witness_ids.push(self.rows[i].0);
                    self.witness_cursors[i] = c + 1;
                    if witness_ids.len() == count as usize {
                        break;
                    }
                } else {
                    self.witness_cursors[i] = c;
                }
            }
            debug_assert_eq!(witness_ids.len(), count as usize);
            out.push(Candidate {
                user: a,
                target,
                witnesses: witness_ids,
                triggered_at: t,
            });
            emitted += 1;
        }
        emitted
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn on_event<D: EdgeStore<UserId>>(
        &mut self,
        s: &FollowGraph,
        d: &mut D,
        event: EdgeEvent,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.on_event_into(s, d, event, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_temporal::TemporalEdgeStore;
    use magicrecs_types::{Duration, EdgeKind};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The paper's Figure 1: A1→B1, A2→{B1,B2}, A3→B2; B1→C2 exists
    /// dynamically, then B2→C2 arrives and C2 should go to A2 only.
    fn figure1_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)), // A1 -> B1
            (u(2), u(11)), // A2 -> B1
            (u(2), u(12)), // A2 -> B2
            (u(3), u(12)), // A3 -> B2
        ]);
        g.build()
    }

    fn detector(k: usize) -> DiamondDetector {
        DiamondDetector::new(DetectorConfig::example().with_k(k)).unwrap()
    }

    fn store() -> TemporalEdgeStore {
        TemporalEdgeStore::with_window(Duration::from_mins(10))
    }

    #[test]
    fn figure1_walkthrough() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c2 = u(22);

        // B1 -> C2 first: only one witness, nothing fires.
        let r1 = det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c2, ts(100)));
        assert!(r1.is_empty());

        // B2 -> C2 within τ: the diamond closes; A2 is the intersection.
        let r2 = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c2, ts(160)));
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].user, u(2));
        assert_eq!(r2[0].target, c2);
        assert_eq!(r2[0].witnesses, vec![u(11), u(12)]);
        assert_eq!(r2[0].triggered_at, ts(160));
    }

    #[test]
    fn window_expiry_blocks_stale_witnesses() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(100)));
        // 11 minutes later — outside τ = 10 min.
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(100 + 660)));
        assert!(r.is_empty());
    }

    #[test]
    fn k3_requires_three_witnesses() {
        // A follows B1,B2,B3; all three must act.
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(1), u(12)), (u(1), u(13))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(3);
        let c = u(99);
        assert!(det
            .on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)))
            .is_empty());
        assert!(det
            .on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(20)))
            .is_empty());
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(13), c, ts(30)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(1));
        assert_eq!(r[0].witnesses, vec![u(11), u(12), u(13)]);
    }

    #[test]
    fn unfollow_removes_witness_before_closing() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        det.on_event(&s, &mut d, EdgeEvent::unfollow(u(11), c, ts(20)));
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(30)));
        assert!(r.is_empty(), "unfollowed witness must not count");
    }

    #[test]
    fn self_recommendation_excluded() {
        // C itself follows both Bs: the intersection contains C, which must
        // be dropped.
        let c = u(50);
        let mut g = GraphBuilder::new();
        g.extend([(c, u(11)), (c, u(12)), (u(1), u(11)), (u(1), u(12))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        let users: Vec<UserId> = r.iter().map(|x| x.user).collect();
        assert_eq!(users, vec![u(1)]);
    }

    #[test]
    fn existing_follower_skipped_when_configured() {
        // A already follows C statically.
        let c = u(50);
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(1), u(12)), (u(1), c)]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        assert!(r.is_empty(), "existing follower must be skipped");

        // With skip_existing off, the candidate appears.
        let cfg = DetectorConfig {
            skip_existing: false,
            ..DetectorConfig::example()
        };
        let mut det2 = DiamondDetector::new(cfg).unwrap();
        let mut d2 = store();
        det2.on_event(&s, &mut d2, EdgeEvent::follow(u(11), c, ts(10)));
        let r2 = det2.on_event(&s, &mut d2, EdgeEvent::follow(u(12), c, ts(20)));
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].user, u(1));
    }

    #[test]
    fn witness_is_not_recommended() {
        // B1 follows B2; both follow C dynamically. B1 would be in the
        // intersection (follows B2 ≥ k? no — k=2 needs 2 witnesses).
        // Construct: A=11 follows 12 and 13; 11 itself also dynamically
        // follows C. Witnesses {11,12,13}; intersection of followers
        // includes... make 11 follow 12,13 so 11 appears in 2 lists.
        let mut g = GraphBuilder::new();
        g.extend([(u(11), u(12)), (u(11), u(13))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(10)));
        det.on_event(&s, &mut d, EdgeEvent::follow(u(13), c, ts(12)));
        // 11 appears in followers(12) ∩ followers(13) — but then 11 itself
        // follows C: as a witness it must be excluded from later events.
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(14)));
        let users: Vec<UserId> = r.iter().map(|x| x.user).collect();
        assert!(
            !users.contains(&u(11)),
            "witness recommended to itself: {users:?}"
        );
    }

    #[test]
    fn duplicate_dynamic_edges_count_once() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        // Same B repeats (e.g. retweet twice): still a single witness.
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(20)));
        assert!(r.is_empty(), "one distinct B must not fire k=2");
    }

    #[test]
    fn candidates_sorted_by_user() {
        // Many As share both Bs.
        let mut g = GraphBuilder::new();
        for a in [9u64, 3, 7, 1] {
            g.add_edge(u(a), u(11));
            g.add_edge(u(a), u(12));
        }
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(12), c, ts(11)));
        let users: Vec<u64> = r.iter().map(|x| x.user.raw()).collect();
        assert_eq!(users, vec![1, 3, 7, 9]);
    }

    #[test]
    fn max_candidates_cap_respected() {
        let mut g = GraphBuilder::new();
        for a in 0..100u64 {
            g.add_edge(u(a), u(1000));
            g.add_edge(u(a), u(1001));
        }
        let s = g.build();
        let cfg = DetectorConfig {
            max_candidates_per_event: Some(5),
            ..DetectorConfig::example()
        };
        let mut det = DiamondDetector::new(cfg).unwrap();
        let mut d = store();
        let c = u(5000);
        det.on_event(&s, &mut d, EdgeEvent::follow(u(1000), c, ts(10)));
        let r = det.on_event(&s, &mut d, EdgeEvent::follow(u(1001), c, ts(11)));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn max_witnesses_cap_keeps_most_recent() {
        // 5 Bs act; cap at 3 keeps the 3 most recent, which all share A=1.
        let mut g = GraphBuilder::new();
        for b in 11..=15u64 {
            g.add_edge(u(1), u(b));
        }
        let s = g.build();
        let cfg = DetectorConfig {
            max_witnesses: Some(3),
            ..DetectorConfig::example()
        };
        let mut det = DiamondDetector::new(cfg).unwrap();
        let mut d = store();
        let c = u(99);
        for (i, b) in (11..=15u64).enumerate() {
            det.on_event(&s, &mut d, EdgeEvent::follow(u(b), c, ts(10 + i as u64)));
        }
        // After the last event the candidate's witnesses are the 3 newest.
        let mut d2 = store();
        let mut det2 = DiamondDetector::new(cfg).unwrap();
        let mut last = Vec::new();
        for (i, b) in (11..=15u64).enumerate() {
            last = det2.on_event(&s, &mut d2, EdgeEvent::follow(u(b), c, ts(10 + i as u64)));
        }
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].witnesses, vec![u(13), u(14), u(15)]);
    }

    #[test]
    fn retweet_events_drive_motifs_too() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let author = u(22);
        let e1 = EdgeEvent {
            src: u(11),
            dst: author,
            created_at: ts(10),
            kind: EdgeKind::Retweet,
        };
        let e2 = EdgeEvent {
            src: u(12),
            dst: author,
            created_at: ts(15),
            kind: EdgeKind::Favorite,
        };
        det.on_event(&s, &mut d, e1);
        let r = det.on_event(&s, &mut d, e2);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(DiamondDetector::new(DetectorConfig::example().with_k(0)).is_err());
    }
}
