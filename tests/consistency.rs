//! Cross-implementation consistency properties, driven by proptest.
//!
//! The production engine is checked against the brute-force oracle
//! (`BatchOracle`), the independent implementation of the motif
//! semantics, and against its two distributions (sequential broker,
//! threaded cluster). A declarative motif program runs the same served
//! engine behind its plan's kind filter, so its check is the oracle over
//! the trace that filter admits. On arbitrary graphs and traces they must
//! all agree.

use magicrecs::baseline::BatchOracle;
use magicrecs::cluster::{Broker, ThreadedCluster};
use magicrecs::motif::MotifEngine;
use magicrecs::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn key(c: &Candidate) -> (Timestamp, UserId, UserId) {
    (c.triggered_at, c.user, c.target)
}

fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
    v.sort_by_key(key);
    v
}

/// Strategy: a random small follow graph (As 0..25 following Bs 25..40)
/// and a random dynamic trace (Bs acting on Cs 40..50), with unfollows.
fn graph_and_trace() -> impl Strategy<Value = (FollowGraph, Vec<EdgeEvent>)> {
    let edges = proptest::collection::vec((0u64..25, 25u64..40), 1..100);
    let actions =
        proptest::collection::vec((25u64..40, 40u64..50, 0u64..1_500, prop::bool::ANY), 1..60);
    (edges, actions).prop_map(|(edges, actions)| {
        let mut b = GraphBuilder::new();
        b.extend(edges.into_iter().map(|(x, y)| (u(x), u(y))));
        let mut events: Vec<EdgeEvent> = actions
            .into_iter()
            .map(|(src, dst, at, unf)| {
                let t = Timestamp::from_secs(at);
                if unf {
                    EdgeEvent::unfollow(u(src), u(dst), t)
                } else {
                    EdgeEvent::follow(u(src), u(dst), t)
                }
            })
            .collect();
        events.sort_by_key(|e| e.created_at);
        (b.build(), events)
    })
}

/// Strategy: [`graph_and_trace`] with each follow redrawn as a follow or a
/// retweet, so kind filters have something to filter.
fn graph_and_mixed_trace() -> impl Strategy<Value = (FollowGraph, Vec<EdgeEvent>)> {
    (
        graph_and_trace(),
        proptest::collection::vec(prop::bool::ANY, 60..61),
    )
        .prop_map(|((graph, mut events), retweet)| {
            for (e, rt) in events.iter_mut().zip(retweet) {
                if rt && e.kind == EdgeKind::Follow {
                    e.kind = EdgeKind::Retweet;
                }
            }
            (graph, events)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn broker_and_threaded_agree_with_engine(
        (graph, events) in graph_and_trace(),
        parts in 1u32..6,
    ) {
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));

        let mut engine = Engine::new(graph.clone(), cfg).unwrap();
        let expected = sorted(engine.process_trace(events.iter().copied()));

        let mut broker = Broker::new(
            &graph,
            ClusterConfig::single().with_partitions(parts),
            cfg,
        )
        .unwrap();
        let got_broker = sorted(broker.process_trace(events.iter().copied()));
        prop_assert_eq!(&got_broker, &expected, "broker diverged");

        let cluster = ThreadedCluster::new(
            &graph,
            ClusterConfig::single().with_partitions(parts),
            cfg,
        )
        .unwrap();
        let got_threaded = sorted(cluster.run_trace(&events).unwrap().candidates);
        prop_assert_eq!(&got_threaded, &expected, "threaded cluster diverged");
    }

    #[test]
    fn declarative_agrees_with_oracle(
        (graph, events) in graph_and_mixed_trace(),
        k in 2usize..4,
        retweets in prop::bool::ANY,
    ) {
        let kind = if retweets { "retweet" } else { "follow" };
        let src = format!(
            "motif m {{ A -> B : static; B -> C : dynamic within 200s kinds {kind}; \
             trigger B -> C; emit (A, C) when count(B) >= {k}; }}"
        );
        let mut m = MotifEngine::from_text(&src, Arc::new(graph.clone())).unwrap();

        // The planner's witness cap is 64; mirror it in the oracle config.
        let cfg = DetectorConfig {
            k,
            tau: Duration::from_secs(200),
            max_witnesses: Some(64),
            max_candidates_per_event: None,
            skip_existing: true,
        };
        let admitted: Vec<EdgeEvent> = events
            .iter()
            .copied()
            .filter(|e| m.plan().accepts_kind(e.kind))
            .collect();
        let oracle = BatchOracle::new(cfg).unwrap();
        let expected = sorted(oracle.replay(&graph, &admitted));

        let mut got = Vec::new();
        for &e in &events {
            got.extend(m.on_event(e));
        }
        prop_assert_eq!(sorted(got), expected);
    }

    #[test]
    fn candidate_invariants_hold(
        (graph, events) in graph_and_trace(),
    ) {
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));
        let mut engine = Engine::new(graph.clone(), cfg).unwrap();
        for &event in &events {
            for c in engine.on_event(event) {
                // Witness count meets the threshold.
                prop_assert!(c.witnesses.len() >= cfg.k);
                // The user follows every listed witness (static edge).
                for w in &c.witnesses {
                    prop_assert!(
                        graph.follows(c.user, *w),
                        "{:?} does not follow witness {:?}", c.user, w
                    );
                }
                // Never self-recommendation, never an existing follower.
                prop_assert!(c.user != c.target);
                prop_assert!(!graph.follows(c.user, c.target));
                // Trigger time matches the event.
                prop_assert_eq!(c.triggered_at, event.created_at);
                // Witnesses sorted ascending.
                prop_assert!(c.witnesses.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn candidate_volume_monotone_in_k(
        (graph, events) in graph_and_trace(),
    ) {
        // Higher k can only reduce (or keep equal) the candidate volume.
        let mut counts = Vec::new();
        for k in [2usize, 3, 4] {
            let cfg = DetectorConfig::example()
                .with_k(k)
                .with_tau(Duration::from_secs(200));
            let mut engine = Engine::new(graph.clone(), cfg).unwrap();
            counts.push(engine.process_trace(events.iter().copied()).len());
        }
        prop_assert!(counts[0] >= counts[1] && counts[1] >= counts[2],
            "volume not monotone in k: {:?}", counts);
    }

    #[test]
    fn candidate_volume_monotone_in_tau(
        (graph, events) in graph_and_trace(),
    ) {
        // A wider window can only add candidates.
        let mut counts = Vec::new();
        for tau in [30u64, 120, 600] {
            let cfg = DetectorConfig::example().with_tau(Duration::from_secs(tau));
            let mut engine = Engine::new(graph.clone(), cfg).unwrap();
            counts.push(engine.process_trace(events.iter().copied()).len());
        }
        prop_assert!(counts[0] <= counts[1] && counts[1] <= counts[2],
            "volume not monotone in tau: {:?}", counts);
    }
}
