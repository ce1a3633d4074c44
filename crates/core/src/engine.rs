//! The single-node recommendation engine: one partition's worth of the
//! paper's system.
//!
//! Owns the static graph (`S` + forward view, interned to dense ids), the
//! dynamic store `D` (sparse-keyed: the event stream references vertices
//! the interner has never seen), the [`DiamondDetector`], and metrics. Per
//! event, the only sparse-id work left is the `D` upsert and one interner
//! probe per witness; intersection and threshold counting run on dense
//! `u32` slices. The paper reports that "the actual graph queries take
//! only a few milliseconds"; [`EngineStats::detect_time`] measures exactly
//! that component (wall-clock per event), which experiment E3 combines
//! with the simulated queue delays for the end-to-end decomposition.

use crate::detector::DiamondDetector;
use crate::threshold::ThresholdAlgo;
use magicrecs_graph::{FollowGraph, GraphDelta};
use magicrecs_temporal::{EdgeStore, PruneStrategy, TemporalEdgeStore};
use magicrecs_types::{
    Candidate, Counter, DetectorConfig, EdgeEvent, Histogram, Result, Timestamp, UserId,
};

/// How many events between `D.advance()` calls (wheel expiry).
pub(crate) const ADVANCE_EVERY: u64 = 1024;

/// The per-target entry cap derived from a witness cap: 16× headroom (the
/// paper's "retain the most recent edges" pruning) — only the most recent
/// witnesses can matter, so older entries on ultra-hot targets are dead
/// weight.
pub(crate) fn entry_cap_for(max_witnesses: Option<usize>) -> Option<usize> {
    max_witnesses.map(|w| (w * 16).max(1024))
}

/// Counters and timings for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Events processed (insertions + unfollows).
    pub events: Counter,
    /// Candidates emitted (pre-funnel).
    pub candidates: Counter,
    /// Events that produced at least one candidate.
    pub firing_events: Counter,
    /// Wall-clock detection latency per event, µs (the paper's
    /// "few milliseconds" component).
    pub detect_time: Histogram,
}

/// One partition's engine: `S` + `D` + detector + metrics.
///
/// Generic over the `D` store (any [`EdgeStore`] keyed by `UserId`); the
/// default is the single-owner [`TemporalEdgeStore`]. The engine itself
/// stays `&mut self` — it is *one* partition's exclusively-owned state.
/// For the shared-state deployment where N threads drive one engine, see
/// [`crate::concurrent::ConcurrentEngine`].
#[derive(Debug)]
pub struct Engine<D = TemporalEdgeStore> {
    graph: FollowGraph,
    store: D,
    detector: DiamondDetector,
    stats: EngineStats,
    since_advance: u64,
}

impl Engine {
    /// Creates an engine over `graph` with the default wheel-pruned store.
    ///
    /// When the detector caps witnesses, the store caps per-target entries
    /// at 16× that (the paper's "retain the most recent edges" pruning):
    /// only the most recent witnesses can matter, so older entries on
    /// ultra-hot targets are dead weight.
    pub fn new(graph: FollowGraph, config: DetectorConfig) -> Result<Self> {
        let store = TemporalEdgeStore::new(config.tau, PruneStrategy::Wheel)
            .with_entry_cap(entry_cap_for(config.max_witnesses));
        Engine::with_store(graph, store, config)
    }

    /// Creates an engine pinned to a threshold algorithm (ablation B2).
    pub fn with_algo(
        graph: FollowGraph,
        config: DetectorConfig,
        algo: ThresholdAlgo,
    ) -> Result<Self> {
        let store = TemporalEdgeStore::new(config.tau, PruneStrategy::Wheel)
            .with_entry_cap(entry_cap_for(config.max_witnesses));
        Ok(Engine {
            graph,
            store,
            detector: DiamondDetector::with_algo(config, algo)?,
            stats: EngineStats::default(),
            since_advance: 0,
        })
    }
}

impl<D: EdgeStore<UserId>> Engine<D> {
    /// Creates an engine with a caller-configured store (pruning ablation,
    /// or a non-default store implementation).
    pub fn with_store(graph: FollowGraph, store: D, config: DetectorConfig) -> Result<Self> {
        Ok(Engine {
            graph,
            store,
            detector: DiamondDetector::new(config)?,
            stats: EngineStats::default(),
            since_advance: 0,
        })
    }

    /// Processes one event, returning any candidates — the thin
    /// single-event wrapper over the same per-event core
    /// [`Engine::on_events_into`] runs.
    pub fn on_event(&mut self, event: EdgeEvent) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.event_into(event, &mut out);
        out
    }

    /// Processes a micro-batch in stream order, appending every candidate
    /// (grouped by event, in event order) to `out`; returns the number
    /// appended.
    ///
    /// **Batch-vs-single contract**: the candidate stream, engine stats,
    /// and store contents are identical to N [`Engine::on_event`] calls —
    /// the batch API exists so batch-level costs can be paid once per
    /// batch by the layers above (one WAL group commit in
    /// `magicrecs-persist`, one channel drain in the cluster transports),
    /// not to change semantics. The wheel-expiry cadence ticks per event,
    /// exactly as the single-event path does.
    pub fn on_events_into(&mut self, events: &[EdgeEvent], out: &mut Vec<Candidate>) -> usize {
        let start = out.len();
        for &event in events {
            self.event_into(event, out);
        }
        out.len() - start
    }

    /// [`Engine::on_events_into`] collecting into a fresh vector.
    pub fn on_events(&mut self, events: &[EdgeEvent]) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.on_events_into(events, &mut out);
        out
    }

    /// The per-event core shared by the single and batched entry points.
    fn event_into(&mut self, event: EdgeEvent, out: &mut Vec<Candidate>) {
        let before = out.len();
        let start = std::time::Instant::now();
        self.detector
            .on_event_into(&self.graph, &mut self.store, event, out);
        let elapsed = start.elapsed().as_micros() as u64;
        let emitted = out.len() - before;

        self.stats.events.incr();
        self.stats.detect_time.record(elapsed);
        if emitted > 0 {
            self.stats.firing_events.incr();
            self.stats.candidates.add(emitted as u64);
        }

        self.since_advance += 1;
        if self.since_advance >= ADVANCE_EVERY {
            self.store.advance(event.created_at);
            self.since_advance = 0;
        }
    }

    /// Processes a whole trace, collecting all candidates.
    pub fn process_trace<I: IntoIterator<Item = EdgeEvent>>(
        &mut self,
        events: I,
    ) -> Vec<Candidate> {
        let mut all = Vec::new();
        for e in events {
            all.extend(self.on_event(e));
        }
        all
    }

    /// Applies an event's `D` mutation without running detection or
    /// touching stats. Used by replicas in state-maintenance mode: every
    /// replica keeps `D` fresh, but only one serves detection per event.
    pub fn apply_to_store(&mut self, event: EdgeEvent) {
        if event.kind.is_insertion() {
            self.store.insert(event.src, event.dst, event.created_at);
        } else {
            self.store.remove(event.src, event.dst);
        }
    }

    /// Hot-swaps the static graph, returning the previous one.
    ///
    /// The paper: "the A → B edges are computed offline and loaded into
    /// the system periodically" — this is that load. `D` is untouched, so
    /// in-window witnesses keep counting against the refreshed follower
    /// lists from the next event on.
    pub fn swap_graph(&mut self, new_graph: FollowGraph) -> FollowGraph {
        std::mem::replace(&mut self.graph, new_graph)
    }

    /// Refreshes the static graph by applying a snapshot delta in place of
    /// a full reload: only touched CSR rows are rebuilt and the interner
    /// is extended, not rebuilt (see
    /// [`FollowGraph::apply_delta`]). `D` is untouched, like
    /// [`Engine::swap_graph`].
    pub fn swap_graph_delta(&mut self, delta: &GraphDelta) -> Result<()> {
        let refreshed = self.graph.apply_delta(delta)?;
        self.graph = refreshed;
        Ok(())
    }

    /// Forces dynamic-store expiry up to `now`.
    pub fn advance(&mut self, now: Timestamp) {
        self.store.advance(now);
    }

    /// The static graph.
    pub fn graph(&self) -> &FollowGraph {
        &self.graph
    }

    /// The dynamic store.
    pub fn store(&self) -> &D {
        &self.store
    }

    /// Engine metrics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        self.detector.config()
    }

    /// Approximate resident bytes: `S` (inverse index) + `D`.
    pub fn memory_bytes(&self) -> usize {
        self.graph.s_memory_bytes() + self.store.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::UserId;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn small_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)),
            (u(1), u(12)),
            (u(2), u(11)),
            (u(2), u(12)),
            (u(3), u(12)),
        ]);
        g.build()
    }

    #[test]
    fn quickstart_flow() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        assert!(engine
            .on_event(EdgeEvent::follow(u(11), c, ts(100)))
            .is_empty());
        let recs = engine.on_event(EdgeEvent::follow(u(12), c, ts(105)));
        let users: Vec<UserId> = recs.iter().map(|r| r.user).collect();
        assert_eq!(users, vec![u(1), u(2)]);
    }

    #[test]
    fn stats_accumulate() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(100)));
        engine.on_event(EdgeEvent::follow(u(12), c, ts(105)));
        let s = engine.stats();
        assert_eq!(s.events.get(), 2);
        assert_eq!(s.firing_events.get(), 1);
        assert_eq!(s.candidates.get(), 2);
        assert_eq!(s.detect_time.count(), 2);
    }

    #[test]
    fn process_trace_collects_all() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        let trace = vec![
            EdgeEvent::follow(u(11), c, ts(100)),
            EdgeEvent::follow(u(12), c, ts(105)),
        ];
        let recs = engine.process_trace(trace);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn advance_reclaims_store_memory() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        for i in 0..100u64 {
            engine.on_event(EdgeEvent::follow(u(11), u(1000 + i), ts(1)));
        }
        assert!(engine.store().resident_entries() > 0);
        engine.advance(ts(100_000));
        assert_eq!(engine.store().resident_entries(), 0);
    }

    #[test]
    fn automatic_advance_after_many_events() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        // > ADVANCE_EVERY events spread far apart in time: old entries
        // should get reclaimed by the periodic advance.
        for i in 0..2100u64 {
            engine.on_event(EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)));
        }
        // window = 10 min = 600 s; events are 10 s apart so ≤ ~61 live.
        assert!(
            engine.store().resident_targets() < 200,
            "stale targets not reclaimed: {}",
            engine.store().resident_targets()
        );
    }

    #[test]
    fn unfollow_event_counts_but_does_not_fire() {
        let mut engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        let r = engine.on_event(EdgeEvent::unfollow(u(11), c, ts(11)));
        assert!(r.is_empty());
        assert_eq!(engine.stats().events.get(), 2);
    }

    #[test]
    fn memory_accounting_positive() {
        let engine = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn swap_graph_takes_effect_immediately() {
        // Start with a graph where nobody follows B2; swap in one where
        // A1 follows both B1 and B2 mid-stream.
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let mut engine = Engine::new(sparse.build(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        let before = engine.on_event(EdgeEvent::follow(u(12), c, ts(11)));
        assert!(before.is_empty(), "A1 does not follow B2 yet");

        let old = engine.swap_graph(small_graph());
        assert_eq!(old.num_follow_edges(), 1);
        // D still holds both witnesses; a fresh event re-evaluates against
        // the new S.
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "swap should enable the motif");
        assert_eq!(after[0].user, u(1));
    }

    #[test]
    fn swap_graph_delta_matches_full_swap() {
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let base = sparse.build();
        let delta = GraphDelta::between(&base, &small_graph(), 0, 1).unwrap();

        let mut engine = Engine::new(base, DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        assert!(engine
            .on_event(EdgeEvent::follow(u(12), c, ts(11)))
            .is_empty());

        engine.swap_graph_delta(&delta).unwrap();
        // D survived the refresh; the refreshed rows complete the motif.
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "delta swap should enable the motif");
        assert_eq!(after[0].user, u(1));

        // Against the full-swap reference: identical candidate stream.
        let mut reference = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        reference.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        reference.on_event(EdgeEvent::follow(u(12), c, ts(11)));
        let want = reference.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert_eq!(after, want);
    }

    #[test]
    fn on_events_matches_single_events() {
        // Candidate stream, stats, and store contents must be identical
        // whether a trace goes through one on_events call per chunk or
        // one on_event call per event — including same-target repeats
        // inside a chunk.
        let trace: Vec<EdgeEvent> = (0..500u64)
            .map(|i| {
                if i % 29 == 0 {
                    EdgeEvent::unfollow(u(11), u(900 + i % 7), ts(10 + i))
                } else {
                    EdgeEvent::follow(u(11 + i % 3), u(900 + i % 7), ts(10 + i))
                }
            })
            .collect();
        let mut single = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut batched = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut want = Vec::new();
        for &e in &trace {
            want.extend(single.on_event(e));
        }
        let mut got = Vec::new();
        for chunk in trace.chunks(37) {
            batched.on_events_into(chunk, &mut got);
        }
        assert_eq!(got, want);
        assert_eq!(single.stats().events.get(), batched.stats().events.get());
        assert_eq!(
            single.stats().candidates.get(),
            batched.stats().candidates.get()
        );
        assert_eq!(
            single.stats().firing_events.get(),
            batched.stats().firing_events.get()
        );
        assert_eq!(
            single.stats().detect_time.count(),
            batched.stats().detect_time.count()
        );
        assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
        assert_eq!(single.store().stats(), batched.store().stats());
    }

    #[test]
    fn on_events_crosses_advance_boundary_like_single_events() {
        // > ADVANCE_EVERY events in one call: the periodic advance must
        // fire mid-batch at the same cadence the single path uses.
        let trace: Vec<EdgeEvent> = (0..2100u64)
            .map(|i| EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)))
            .collect();
        let mut single = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut batched = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &trace {
            single.on_event(e);
        }
        batched.on_events(&trace);
        assert_eq!(
            single.store().resident_targets(),
            batched.store().resident_targets()
        );
        assert_eq!(single.store().stats(), batched.store().stats());
        assert!(batched.store().resident_targets() < 200, "advance must run");
    }

    #[test]
    fn algo_pinned_engine_matches_default() {
        let c = u(99);
        let trace = vec![
            EdgeEvent::follow(u(11), c, ts(100)),
            EdgeEvent::follow(u(12), c, ts(105)),
        ];
        let mut e1 = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut e2 = Engine::with_algo(
            small_graph(),
            DetectorConfig::example(),
            ThresholdAlgo::ScanCount,
        )
        .unwrap();
        let mut e3 = Engine::with_algo(
            small_graph(),
            DetectorConfig::example(),
            ThresholdAlgo::HeapMerge,
        )
        .unwrap();
        let mut e4 = Engine::with_algo(
            small_graph(),
            DetectorConfig::example(),
            ThresholdAlgo::PivotSkip,
        )
        .unwrap();
        let r1 = e1.process_trace(trace.clone());
        let r2 = e2.process_trace(trace.clone());
        let r3 = e3.process_trace(trace.clone());
        let r4 = e4.process_trace(trace);
        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
        assert_eq!(r3, r4);
    }
}
