//! In-process WAL-shipping tests: a leader + warm follower pair on
//! loopback, covering steady-state catch-up, leader restart (the tail
//! reconnects and the duplicate re-fetch is absorbed), and the typed
//! gap refusal when a follower asks for history the source no longer
//! holds. The byte-level kill-point matrix (every segment/record cut)
//! lives in `magicrecs-persist`'s `ShipDecoder` tests; these exercise
//! the same decoder through the real wire loop.

mod common;

use std::time::{Duration, Instant};

use common::{make_events, map_with, Twin};
use magicrecs_obs::recorder;
use magicrecs_persist::TempDir;
use magicrecs_replica::{fixture_graph, Coordinator, Node, NodeConfig, RoutedClient, WAL_PREFIX};

fn wait_for<F: FnMut() -> bool>(what: &str, timeout: Duration, mut f: F) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn warm_follower_tails_to_parity_and_reports_lag() {
    let map = map_with(600, 0xF01, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-steady");
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    let mut twin = Twin::new(&map);
    let mut client = RoutedClient::new(map.clone());
    let events = make_events(1500, map.users);
    for chunk in events.chunks(50) {
        client.ingest(chunk).unwrap();
        twin.ingest(chunk);
    }
    // Drain = every batch replicated; after this the follower must be
    // at full parity with the leader.
    client.drain(Duration::from_secs(10)).unwrap();
    assert_eq!(client.staged(0), events.len() as u64);
    assert_eq!(leader.durable(0), Some(events.len() as u64));
    wait_for("follower parity", Duration::from_secs(5), || {
        follower.durable(0) == Some(events.len() as u64)
    });

    // Delivered candidates match the fault-free twin tag-for-tag.
    assert!(!twin.per_tag.is_empty(), "fixture must fire candidates");
    assert_eq!(client.delivered().len(), twin.per_tag.len());
    for (key, expect) in &twin.per_tag {
        assert_eq!(client.delivered().get(key), Some(expect), "tag {key:?}");
    }

    // The coordinator sees matching watermarks and the follower's
    // progress reports have advanced the leader's replicated watermark.
    let coord = Coordinator::new(map);
    let lead = coord.status(0, 0).unwrap();
    let foll = coord.status(1, 0).unwrap();
    assert!(lead.leading && !foll.leading);
    assert_eq!(lead.durable, foll.durable);
    assert_eq!(lead.replicated, lead.durable);

    // Replication lag is a scrapeable gauge and the tail loop ran.
    let scrape = coord.metrics(1).unwrap();
    let get = |n: &str| scrape.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
    assert_eq!(get("replica_lag_events"), Some(0));
    assert!(get("replica_tail_rounds").unwrap_or(0) > 0);

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn follower_survives_leader_restart_and_duplicate_refetch() {
    let map = map_with(500, 0xF02, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-restart");
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    let mut client = RoutedClient::new(map.clone());
    let events = make_events(900, map.users);
    let (first, second) = events.split_at(450);
    for chunk in first.chunks(45) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();

    // Bounce the leader: its listener and every shipped stream die
    // mid-tail; on reopen the WAL is recovered from disk and the
    // follower's tail reconnects, re-fetching the torn segment from
    // offset zero (the decoder's duplicate skip absorbs the overlap).
    leader.shutdown();
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    assert_eq!(leader.durable(0), Some(450), "restart must recover the WAL");

    for chunk in second.chunks(45) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();
    wait_for("post-restart parity", Duration::from_secs(5), || {
        follower.durable(0) == Some(events.len() as u64)
    });

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn follower_refuses_history_gap_with_typed_trace() {
    // Build a leader whose early WAL segments are gone (checkpointed,
    // then reclaimed-by-hand), so a from-zero follower faces a hole.
    let map = map_with(400, 0xF03, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-gap");
    let dir = tmp.path().join("n0").join("p0");
    {
        let engine = magicrecs_persist::PersistentConcurrentEngine::create(
            &dir,
            fixture_graph(&map),
            0,
            magicrecs_types::DetectorConfig::default(),
            1,
            magicrecs_persist::PersistOptions {
                fsync: magicrecs_persist::FsyncPolicy::Always,
                segment_bytes: 4 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        for e in make_events(600, map.users) {
            engine.on_event(e).unwrap();
        }
        engine.checkpoint().unwrap();
    }
    // Drop the first WAL segment: history now starts above seq 0.
    let mut wals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(WAL_PREFIX))
        .collect();
    assert!(wals.len() > 2, "need several segments to punch a hole");
    wals.sort();
    std::fs::remove_file(dir.join(&wals[0])).unwrap();

    let trace_floor = recorder::current_seq();
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    // The follower (durable 0) must refuse the hole — typed, traced,
    // and without ever applying a record it cannot have verified.
    wait_for("gap trace", Duration::from_secs(5), || {
        recorder::dump_since(trace_floor)
            .iter()
            .any(|e| e.kind == magicrecs_obs::TraceKind::ReplicaGap)
    });
    assert_eq!(
        follower.durable(0),
        Some(0),
        "a gapped follower must not diverge"
    );

    follower.shutdown();
    leader.shutdown();
}
