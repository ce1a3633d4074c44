//! The three workloads and the inputs each one generates from its seed.
//!
//! Inputs are split up front into **lanes**, one per client connection,
//! each an ordered list of batches. The split is a pure function of the
//! seed, so the served run, the reference and the traced replay all see
//! the very same batches; only how far the served run gets through them
//! depends on timing.

use std::net::SocketAddr;

use magicrecs_gen::{Scenario, ScenarioConfig};
use magicrecs_graph::{FollowGraph, GraphBuilder};
use magicrecs_replica::{fixture_graph, ClusterMap, NodeSpec, PartitionSpec};
use magicrecs_types::{route_mix, DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};

/// Events per batch in the measured phase.
pub const BATCH: usize = 256;
/// Events per batch while pre-filling `D` (untimed).
pub const PREFILL_BATCH: usize = 2048;
/// Users in the replica fixture graph both zipf workloads share.
pub const ZIPF_USERS: u64 = 100_000;
/// Destination popularity exponent of the zipf trace.
pub const ZIPF_ALPHA: f64 = 0.9;
/// Simulated arrival rate of the zipf trace, events per simulated second.
/// Low enough that one τ window (600 s) is a modest pre-fill, so `D` is in
/// its windowed steady state, with expiry active, when timing starts.
pub const SIM_RATE: f64 = 100.0;
/// Seed of the fixture graph. The graph is a fixed dataset: `--seed` drives
/// the traffic, so runs on different seeds differ only in their events.
pub const GRAPH_SEED: u64 = 0xBEEF;
/// Partitions of the replicated workload.
pub const PARTITIONS: u32 = 2;
/// `Server` worker threads, one per core of the reference box; also the
/// client connections (lanes) of `celebrity_serve`.
pub const SERVER_WORKERS: usize = 2;
/// Simulated time between celebrity rounds.
pub const CELEB_ROUND_STEP: Duration = Duration::from_millis(100);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf follows through a replica leader and warm follower.
    ZipfReplicated,
    /// The celebrity fixture through the thread-per-core server.
    CelebrityServe,
    /// Zipf follows through the thread-per-core server.
    ZipfServe,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::ZipfReplicated,
        Workload::CelebrityServe,
        Workload::ZipfServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfReplicated => "zipf_replicated",
            Workload::CelebrityServe => "celebrity_serve",
            Workload::ZipfServe => "zipf_serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generous ceiling on served events per second, used to size the
    /// trace so a run never exhausts it.
    fn ceiling_events_per_s(self) -> u64 {
        match self {
            Workload::ZipfReplicated => 60_000,
            Workload::CelebrityServe => 60_000,
            Workload::ZipfServe => 200_000,
        }
    }
}

/// The detector configuration every workload runs.
pub fn detector() -> DetectorConfig {
    DetectorConfig::production()
}

/// One batch: the partition (replica workloads) or lane it belongs to, and
/// its events in send order.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Replica partition, or the lane index on server workloads.
    pub part: u32,
    /// Events, in order.
    pub events: Vec<EdgeEvent>,
}

/// The batches one client connection sends, in order.
#[derive(Debug, Clone, Default)]
pub struct Lane {
    /// Every batch, pre-fill first.
    pub batches: Vec<Batch>,
    /// How many leading batches are the untimed pre-fill.
    pub prefill: usize,
}

/// Everything generated from a seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The static follow graph `S`.
    pub graph: FollowGraph,
    /// One lane per client connection.
    pub lanes: Vec<Lane>,
}

/// Generates the inputs of `workload` for `seed`, sized for a measured
/// phase of `seconds`.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let cap = (seconds.max(1) * workload.ceiling_events_per_s()) as usize;
    match workload {
        Workload::ZipfReplicated | Workload::ZipfServe => {
            let map = zipf_map([0, 0]);
            let events = zipf_trace(seed, cap);
            let prefill = (prefill_events(), PREFILL_BATCH);
            let lane = if workload == Workload::ZipfReplicated {
                let table = map.route_table();
                split(&events, prefill, PARTITIONS, |e| table.partition_of(&e.dst))
            } else {
                split(&events, prefill, 1, |_| 0)
            };
            Inputs {
                workload,
                graph: fixture_graph(&map),
                lanes: vec![lane],
            }
        }
        Workload::CelebrityServe => {
            let rounds = celeb_window_rounds() + (cap / 5) as u64;
            let events = celebrity_trace(seed, rounds);
            let workers = SERVER_WORKERS as u64;
            let prefill = (celeb_window_rounds() as usize * 5, BATCH);
            let one = split(&events, prefill, SERVER_WORKERS as u32, |e| {
                (route_mix(&e.dst) % workers) as u32
            });
            // One lane per worker, each keeping its share in order.
            let mut lanes = vec![Lane::default(); SERVER_WORKERS];
            for (i, batch) in one.batches.into_iter().enumerate() {
                let lane = &mut lanes[batch.part as usize];
                if i < one.prefill {
                    lane.prefill += 1;
                }
                lane.batches.push(batch);
            }
            Inputs {
                workload,
                graph: celebrity_graph(),
                lanes,
            }
        }
    }
}

/// The two-node replica topology of the zipf workloads: node 0 leads both
/// partitions, node 1 follows both. Ports of 0 describe the graph fixture
/// only (the zipf_serve workload starts no nodes).
pub fn zipf_map(ports: [u16; 2]) -> ClusterMap {
    let node = |id: u32| NodeSpec {
        id,
        addr: SocketAddr::from(([127, 0, 0, 1], ports[id as usize])),
    };
    ClusterMap {
        nodes: vec![node(0), node(1)],
        partitions: (0..PARTITIONS)
            .map(|partition| PartitionSpec {
                partition,
                leader: 0,
                follower: 1,
            })
            .collect(),
        users: ZIPF_USERS,
        seed: GRAPH_SEED,
    }
}

/// Steady Zipf(0.9) follows: one τ window of pre-fill, then `cap` more.
fn zipf_trace(seed: u64, cap: usize) -> Vec<EdgeEvent> {
    let prefill = prefill_events();
    let secs = ((prefill + cap) as f64 / SIM_RATE).ceil() as u64 + 1;
    let trace = Scenario::steady(
        ZIPF_USERS,
        ScenarioConfig {
            rate_per_sec: SIM_RATE,
            duration: Duration::from_secs(secs),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: ZIPF_ALPHA,
            seed,
        },
    );
    trace.into_events()
}

/// Celebrity rounds in one τ window: the pre-fill that brings `D` to its
/// steady state before timing starts. The two lanes must stay well within
/// this many rounds of each other (see `serve`), or expiry driven by the
/// faster lane's clock would reach rounds the slower lane is still closing.
pub fn celeb_window_rounds() -> u64 {
    detector().tau.as_micros() / CELEB_ROUND_STEP.as_micros()
}

/// Events in one τ window of the zipf trace.
pub fn prefill_events() -> usize {
    (detector().tau.as_micros() as f64 / 1e6 * SIM_RATE) as usize
}

/// Cuts a time-ordered trace into one lane of per-part batches, each
/// emitted when it fills, so the lane stays in time order. The first
/// `prefill.0` events form the untimed pre-fill, in batches of `prefill.1`;
/// the rest are cut at [`BATCH`].
fn split(
    events: &[EdgeEvent],
    prefill: (usize, usize),
    parts: u32,
    part_of: impl Fn(&EdgeEvent) -> u32,
) -> Lane {
    let cut = prefill.0.min(events.len());
    let mut lane = Lane::default();
    for (range, size) in [(0..cut, prefill.1), (cut..events.len(), BATCH)] {
        let measured = range.start == cut;
        let mut pending: Vec<Vec<EdgeEvent>> = vec![Vec::new(); parts as usize];
        for e in &events[range] {
            let part = part_of(e);
            let batch = &mut pending[part as usize];
            batch.push(*e);
            if batch.len() == size {
                lane.batches.push(Batch {
                    part,
                    events: std::mem::take(batch),
                });
            }
        }
        if !measured {
            // Flush the pre-fill remainders so timing starts on a clean cut.
            for (part, batch) in pending.into_iter().enumerate() {
                if !batch.is_empty() {
                    lane.batches.push(Batch {
                        part: part as u32,
                        events: batch,
                    });
                }
            }
            lane.prefill = lane.batches.len();
        }
    }
    lane
}

/// The celebrity id of the hot-path fixture.
const CELEB: UserId = UserId(9_000_000);

/// The hot-path celebrity fixture: 512 As follow 4 ordinary Bs and the
/// celebrity; 200k more users follow the celebrity, so every closing event
/// runs a k-of-5 threshold against a 200k-follower list and emits 512
/// candidates.
pub fn celebrity_graph() -> FollowGraph {
    let mut gb = GraphBuilder::new();
    for a in 0..512u64 {
        for b in 0..4u64 {
            gb.add_edge(UserId(a), UserId(1_000_000 + b));
        }
        gb.add_edge(UserId(a), CELEB);
    }
    for extra in 0..200_000u64 {
        gb.add_edge(UserId(10_000 + extra), CELEB);
    }
    gb.build()
}

/// Per round, the 4 ordinary Bs act on a fresh C and the celebrity closes
/// the diamond, all at one timestamp; rounds are [`CELEB_ROUND_STEP`] apart,
/// so `D` holds [`celeb_window_rounds`] rounds once the window is full and
/// expiry keeps it there. The seed moves the C ids and the start time.
pub fn celebrity_trace(seed: u64, rounds: u64) -> Vec<EdgeEvent> {
    let c_base = 20_000_000 + (seed % (1 << 20)) * (1 << 24);
    let start = Timestamp::from_secs(43_200 + seed % 3_600);
    let mut events = Vec::with_capacity(rounds as usize * 5);
    for round in 0..rounds {
        let c = UserId(c_base + round);
        let t = Timestamp::from_micros(start.as_micros() + round * CELEB_ROUND_STEP.as_micros());
        for b in 0..4u64 {
            events.push(EdgeEvent::follow(UserId(1_000_000 + b), c, t));
        }
        events.push(EdgeEvent::follow(CELEB, c, t));
    }
    events
}
