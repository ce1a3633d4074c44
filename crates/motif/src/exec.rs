//! Plan execution against the online graph infrastructure.
//!
//! [`MotifEngine`] runs one [`Plan`] on the served engine: the plan's
//! [`DetectorConfig`](magicrecs_types::DetectorConfig) drives a
//! [`ConcurrentEngine`] over a shared static graph, and the plan's kind
//! filter decides which events reach it. Each program keeps its own `D`
//! (different motifs have different windows and kind filters, matching the
//! paper's "additional programs that use the graph infrastructure, which
//! may need to be augmented to include other data structures"); expiry,
//! detection and metrics are the engine's.
//!
//! [`MotifSuite`] runs several programs over one shared graph — the
//! multi-motif deployment §3 envisions.

use crate::plan::Plan;
use crate::planner::plan_motif;
use crate::spec::MotifSpec;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::FollowGraph;
use magicrecs_temporal::ShardedTemporalStore;
use magicrecs_types::{Candidate, EdgeEvent, Result, Timestamp};
use std::sync::Arc;

/// An executable motif program: a plan bound to its own engine.
#[derive(Debug)]
pub struct MotifEngine {
    plan: Plan,
    engine: ConcurrentEngine,
}

impl MotifEngine {
    /// Compiles `spec` and binds it to the shared graph.
    pub fn new(spec: &MotifSpec, graph: Arc<FollowGraph>) -> Result<Self> {
        let plan = plan_motif(spec)?;
        let engine = ConcurrentEngine::new(graph, plan.config)?;
        Ok(MotifEngine { plan, engine })
    }

    /// Parses, compiles, and binds a textual spec in one step.
    pub fn from_text(src: &str, graph: Arc<FollowGraph>) -> Result<Self> {
        let spec = crate::parse::parse_motif(src)?;
        MotifEngine::new(&spec, graph)
    }

    /// The compiled plan (for `EXPLAIN`).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Motif name.
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Events this program accepted (post kind filter).
    pub fn events_processed(&self) -> u64 {
        self.engine.stats().events
    }

    /// Candidates emitted.
    pub fn candidates_emitted(&self) -> u64 {
        self.engine.stats().candidates
    }

    /// Runs one event through the kind filter and, if accepted, the
    /// engine. Taking `&mut self` keeps one submitter per program, which
    /// is the per-target ordering the engine's results depend on.
    pub fn on_event(&mut self, event: EdgeEvent) -> Vec<Candidate> {
        if !self.plan.accepts_kind(event.kind) {
            return Vec::new();
        }
        self.engine.on_event(event)
    }

    /// Forces dynamic-store expiry.
    pub fn advance(&mut self, now: Timestamp) {
        self.engine.advance(now);
    }

    /// The program's dynamic store (size accounting).
    pub fn store(&self) -> &ShardedTemporalStore {
        self.engine.store()
    }
}

/// Several motif programs sharing one static graph.
#[derive(Debug, Default)]
pub struct MotifSuite {
    engines: Vec<MotifEngine>,
}

impl MotifSuite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        MotifSuite {
            engines: Vec::new(),
        }
    }

    /// Registers a program.
    pub fn register(&mut self, engine: MotifEngine) -> &mut Self {
        self.engines.push(engine);
        self
    }

    /// Registers a program from spec text.
    pub fn register_text(&mut self, src: &str, graph: Arc<FollowGraph>) -> Result<&mut Self> {
        self.engines.push(MotifEngine::from_text(src, graph)?);
        Ok(self)
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Feeds one event to every program, returning `(motif name,
    /// candidate)` pairs in registration order.
    pub fn on_event(&mut self, event: EdgeEvent) -> Vec<(String, Candidate)> {
        let mut out = Vec::new();
        for engine in &mut self.engines {
            let name = engine.name().to_string();
            for c in engine.on_event(event) {
                out.push((name.clone(), c));
            }
        }
        out
    }

    /// The registered programs.
    pub fn engines(&self) -> &[MotifEngine] {
        &self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::{Duration, EdgeKind, UserId};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn figure1() -> Arc<FollowGraph> {
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
        Arc::new(g.build())
    }

    const DIAMOND2: &str = "motif diamond2 { A -> B : static; B -> C : dynamic within 600s; \
                            trigger B -> C; emit (A, C) when count(B) >= 2; }";

    #[test]
    fn declarative_diamond_reproduces_figure1() {
        let mut m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        assert!(m
            .on_event(EdgeEvent::follow(u(11), u(22), ts(10)))
            .is_empty());
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
        assert_eq!(r[0].witnesses, vec![u(11), u(12)]);
        assert_eq!(m.events_processed(), 2);
        assert_eq!(m.candidates_emitted(), 1);
    }

    #[test]
    fn declarative_equals_handcoded_detector() {
        use magicrecs_core::Engine;
        use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
        use magicrecs_types::DetectorConfig;

        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(Duration::from_secs(15)),
        );
        // Hand-coded engine with matching parameters (cap 64 = planner's
        // default witness cap).
        let cfg = DetectorConfig {
            k: 2,
            tau: Duration::from_secs(600),
            max_witnesses: Some(64),
            max_candidates_per_event: None,
            skip_existing: true,
        };
        let mut engine = Engine::new(g.clone(), cfg).unwrap();
        let expected: Vec<Candidate> = engine.process_trace(trace.events().iter().copied());

        let mut declarative = MotifEngine::from_text(
            "motif d { A -> B : static; B -> C : dynamic within 600s; \
             trigger B -> C; emit (A, C) when count(B) >= 2; }",
            Arc::new(g),
        )
        .unwrap();
        let mut got = Vec::new();
        for &e in trace.events() {
            got.extend(declarative.on_event(e));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn kind_filtered_motif_ignores_follows() {
        let src = "motif co { A -> B : static; B -> C : dynamic within 600s kinds retweet; \
                   trigger B -> C; emit (A, C) when count(B) >= 2; }";
        let mut m = MotifEngine::from_text(src, figure1()).unwrap();
        // Plain follows do not feed this motif.
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert!(r.is_empty());
        assert_eq!(m.events_processed(), 0);
        // Retweets do.
        let rt = |src: u64, at: u64| EdgeEvent {
            src: u(src),
            dst: u(22),
            created_at: ts(at),
            kind: EdgeKind::Retweet,
        };
        m.on_event(rt(11, 30));
        let r = m.on_event(rt(12, 35));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
    }

    #[test]
    fn unfollow_retracts_in_declarative_engine() {
        let mut m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        m.on_event(EdgeEvent::unfollow(u(11), u(22), ts(15)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert!(r.is_empty());
    }

    #[test]
    fn window_respected() {
        let src = "motif fast { A -> B : static; B -> C : dynamic within 30s; \
                   trigger B -> C; emit (A, C) when count(B) >= 2; }";
        let mut m = MotifEngine::from_text(src, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(45)));
        assert!(r.is_empty(), "35s gap must exceed the 30s window");
    }

    #[test]
    fn suite_runs_multiple_programs() {
        let g = figure1();
        let mut suite = MotifSuite::new();
        suite.register_text(DIAMOND2, Arc::clone(&g)).unwrap();
        suite
            .register_text(
                "motif co { A -> B : static; B -> C : dynamic within 600s kinds retweet; \
                 trigger B -> C; emit (A, C) when count(B) >= 2; }",
                Arc::clone(&g),
            )
            .unwrap();
        assert_eq!(suite.len(), 2);

        // A follow pair fires only the diamond.
        suite.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let fired = suite.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, "diamond2");

        // A retweet pair fires only the co-engagement motif (diamond's D
        // already has the follows, but retweets also count for it — both
        // may fire; check co fires at all).
        let rt = |src: u64, at: u64| EdgeEvent {
            src: u(src),
            dst: u(33),
            created_at: ts(at),
            kind: EdgeKind::Retweet,
        };
        suite.on_event(rt(11, 30));
        let fired = suite.on_event(rt(12, 35));
        let names: Vec<&str> = fired.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"co"), "{names:?}");
    }

    #[test]
    fn explain_is_available_through_engine() {
        let m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        let text = m.plan().explain();
        assert!(text.contains("PLAN diamond2"));
        assert!(text.contains("EmitCandidates"));
    }

    #[test]
    fn cold_targets_expire_without_advance() {
        // Follows to 5000 distinct targets, 1 s apart, in a 30 s window:
        // the engine's periodic expiry (every 1024 events) must keep the
        // program's `D` from holding every cold target forever.
        let src = "motif fast { A -> B : static; B -> C : dynamic within 30s; \
                   trigger B -> C; emit (A, C) when count(B) >= 2; }";
        let mut m = MotifEngine::from_text(src, figure1()).unwrap();
        for i in 0..5_000u64 {
            m.on_event(EdgeEvent::follow(u(11), u(100_000 + i), ts(1 + i)));
        }
        let resident = m.store().resident_entries();
        assert!(resident < 1024, "{resident} entries resident");
    }

    #[test]
    fn advance_prunes_private_store() {
        let mut m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        assert!(m.store().resident_entries() > 0);
        m.advance(ts(100_000));
        assert_eq!(m.store().resident_entries(), 0);
    }
}
