//! The served runs: the generated lanes driven closed-loop over loopback
//! through the public serving surfaces, one batch outstanding per
//! connection, every latency timed from the batch's send.
//!
//! * `Server` workloads: one [`ClientConn`] per lane, pinned to worker
//!   `lane` and subscribed to its own deliveries. A batch is an `Ingest`
//!   followed by a `Barrier` with the same tag; its ack is the
//!   `BarrierAck`, and each `Deliver` echoing the tag is a delivery sample.
//! * `zipf_replicated`: one [`RoutedClient`] against a leader and a warm
//!   follower started in-process. `RoutedClient::ingest` returns once the
//!   leader's `IngestAck` covers the batch; the client reads the batch's
//!   `Deliver` inside that call, so its candidates become visible to the
//!   caller when the call returns, and that is the delivery sample. A probe
//!   thread (no connection) watches the follower's durable watermark to
//!   time replication.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use magicrecs_core::ConcurrentEngine;
use magicrecs_replica::{fixture_graph, Coordinator, Node, NodeConfig, NodeHandle, RoutedClient};
use magicrecs_server::wire::Frame;
use magicrecs_server::{ClientConn, Server, ServerConfig};
use magicrecs_types::{Candidate, Error, Result, UserId};

use crate::sys::peak_rss_mb;
use crate::verify::Digest;
use crate::workload::{
    celebrity_graph, detector, zipf_map, Inputs, Lane, Workload, PARTITIONS, SERVER_WORKERS,
};

/// Fewest set-ups timed per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Set-ups repeat until they have taken this long (or [`MAX_SETUPS`]), so
/// sub-second set-ups get a median over many samples.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 15;

/// Whether another set-up should be timed after `done`.
fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS
        || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
}

/// Follower watermark poll period of the replication probe.
const PROBE_PERIOD: Duration = Duration::from_micros(100);
/// Most batches a server lane may run ahead of the slowest other lane.
/// Lanes share the engine's expiry clock, so their event times must stay
/// well inside one τ window of each other, as partitions of one
/// time-ordered firehose do; 16 batches of celebrity rounds are far inside
/// `workload::celeb_window_rounds`.
const MAX_LANE_LEAD: usize = 16;
/// Longest wait for the follower to catch up with the leader.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(60);

/// One batch as the served run sent it.
#[derive(Debug, Clone)]
pub struct SentBatch {
    /// Lane (client connection) index.
    pub lane: usize,
    /// Index into that lane's batches.
    pub idx: usize,
    /// Sent in the measured phase (pre-fill batches are not).
    pub measured: bool,
    /// Send time, ns since the run's epoch.
    pub sent_ns: u64,
    /// Send to ack, ms; `None` if the batch was shed, refused or errored.
    pub ack_ms: Option<f64>,
    /// Send to each `Deliver` read, ms.
    pub deliver_ms: Vec<f64>,
    /// Digest of the candidates delivered for this batch.
    pub digest: Digest,
    /// Replica partition watermark after this batch (replica only).
    pub end_seq: u64,
}

/// What a served run measured.
pub struct Served {
    /// Set-up times, s.
    pub setups: Vec<f64>,
    /// Measured-phase wall time, s.
    pub wall_s: f64,
    /// Every batch sent, in send order.
    pub batches: Vec<SentBatch>,
    /// Peak RSS at the end of the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// Send to follower-durable, ms, per measured batch (replica only).
    pub replicated_ms: Vec<f64>,
    /// Follower-durable minus leader ack, ms, per measured batch.
    pub ship_lag_ms: Vec<f64>,
    /// Follower tail rounds per leader ingest batch over the measured phase.
    pub tail_rounds_per_batch: f64,
    /// `RoutedClient::reroutes` at the end of the run.
    pub reroutes: u64,
}

/// Runs the served phase of `inputs` for `seconds`, using `scratch` (inside
/// the checkout) for WAL directories. `corrupt` alters the first delivered
/// candidate before it is digested (the self-test's proof that the
/// correctness gate fires).
pub fn run(inputs: &Inputs, seconds: u64, scratch: &Path, corrupt: bool) -> Result<Served> {
    match inputs.workload {
        Workload::ZipfReplicated => run_replicated(inputs, seconds, scratch, corrupt),
        Workload::CelebrityServe | Workload::ZipfServe => run_server(inputs, seconds, corrupt),
    }
}

/// Digests `candidates`, first altering one if `corrupt` is still armed.
fn digest_into(digest: &mut Digest, candidates: &[Candidate], corrupt: &mut bool) {
    if *corrupt && !candidates.is_empty() {
        *corrupt = false;
        let mut altered = candidates.to_vec();
        altered[0].user = UserId(altered[0].user.0 ^ 1);
        digest.add_all(&altered);
    } else {
        digest.add_all(candidates);
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---- thread-per-core Server ---------------------------------------------

fn run_server(inputs: &Inputs, seconds: u64, corrupt: bool) -> Result<Served> {
    let mut setups = Vec::new();
    let mut live: Option<Server> = None;
    while more_setups(&setups) {
        if let Some(server) = live.take() {
            server.shutdown();
        }
        let t0 = Instant::now();
        let graph = match inputs.workload {
            Workload::CelebrityServe => celebrity_graph(),
            _ => fixture_graph(&zipf_map([0, 0])),
        };
        let engine = Arc::new(ConcurrentEngine::new(graph, detector())?);
        let server = Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            },
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some(server);
    }
    let server = live.expect("at least one set-up");
    let addr = server.addr();

    let epoch = Instant::now();
    let sync = LaneSync {
        gate: Barrier::new(inputs.lanes.len()),
        done: inputs.lanes.iter().map(|_| AtomicUsize::new(0)).collect(),
    };
    let lanes: Vec<Result<LaneRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let sync = &sync;
                let corrupt = corrupt && i == 0;
                s.spawn(move || {
                    let run = drive_server_lane(addr, i, lane, epoch, sync, seconds, corrupt);
                    // Finished (or failed): never hold the other lanes back.
                    sync.done[i].store(usize::MAX, Ordering::Release);
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    let peak = peak_rss_mb();
    server.shutdown();

    let mut runs = Vec::with_capacity(lanes.len());
    for lane in lanes {
        runs.push(lane?);
    }
    let (wall_s, batches) = merge_lanes(runs);
    Ok(Served {
        setups,
        wall_s,
        batches,
        peak_rss_mb: peak,
        replicated_ms: Vec::new(),
        ship_lag_ms: Vec::new(),
        tail_rounds_per_batch: 0.0,
        reroutes: 0,
    })
}

/// What the server lanes share: the start line of the measured phase and
/// each lane's count of completed batches (`usize::MAX` once it can hold
/// no one back).
struct LaneSync {
    gate: Barrier,
    done: Vec<AtomicUsize>,
}

impl LaneSync {
    /// Lane `me`, with `done` batches completed, waits for every lane to
    /// finish its pre-fill. While waiting it holds no other lane back.
    fn start(&self, me: usize, done: usize) {
        self.done[me].store(usize::MAX, Ordering::Release);
        self.gate.wait();
        self.done[me].store(done, Ordering::Release);
    }

    /// Waits until no other lane is more than [`MAX_LANE_LEAD`] batches
    /// behind batch `idx` of lane `me`.
    fn hold(&self, me: usize, idx: usize) {
        while self
            .done
            .iter()
            .enumerate()
            .any(|(l, d)| l != me && d.load(Ordering::Acquire).saturating_add(MAX_LANE_LEAD) < idx)
        {
            std::thread::yield_now();
        }
    }
}

/// One lane's sent batches and measured-phase bounds.
struct LaneRun {
    batches: Vec<SentBatch>,
    start_ns: u64,
    end_ns: u64,
}

fn merge_lanes(runs: Vec<LaneRun>) -> (f64, Vec<SentBatch>) {
    let start = runs.iter().map(|r| r.start_ns).min().unwrap_or(0);
    let end = runs.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let mut batches: Vec<SentBatch> = runs.into_iter().flat_map(|r| r.batches).collect();
    batches.sort_by_key(|b| b.sent_ns);
    ((end - start) as f64 / 1e9, batches)
}

fn drive_server_lane(
    addr: std::net::SocketAddr,
    lane_idx: usize,
    lane: &Lane,
    epoch: Instant,
    sync: &LaneSync,
    seconds: u64,
    mut corrupt: bool,
) -> Result<LaneRun> {
    // Share a core with this lane's worker (worker i runs on core i): each
    // core then runs one closed loop, and two loops cannot drift into
    // different phase-locked patterns of sharing both cores from run to run.
    magicrecs_server::sys::pin_to_core(lane_idx % crate::sys::nproc());
    let mut conn = ClientConn::connect(addr, Some(lane_idx as u32))?;
    conn.send(&Frame::Subscribe)?;
    match conn.recv()? {
        Frame::OkAck => {}
        other => return Err(Error::Io(format!("subscribe answered with {other:?}"))),
    }
    let mut sent = Vec::new();
    let mut start_ns = 0;
    let mut deadline = None;
    for (idx, batch) in lane.batches.iter().enumerate() {
        let measured = idx >= lane.prefill;
        if measured && deadline.is_none() {
            sync.start(lane_idx, idx);
            start_ns = ns_since(epoch);
            deadline = Some(Instant::now() + Duration::from_secs(seconds));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        sync.hold(lane_idx, idx);
        let tag = idx as u64;
        let sent_ns = ns_since(epoch);
        conn.send(&Frame::Ingest {
            tag,
            events: batch.events.clone(),
        })?;
        conn.send(&Frame::Barrier { tag })?;
        let mut rec = SentBatch {
            lane: lane_idx,
            idx,
            measured,
            sent_ns,
            ack_ms: None,
            deliver_ms: Vec::new(),
            digest: Digest::default(),
            end_seq: 0,
        };
        let mut refused = false;
        loop {
            match conn.recv()? {
                Frame::Deliver { tag: t, candidates } if t == tag => {
                    rec.deliver_ms.push(ms(ns_since(epoch) - sent_ns));
                    digest_into(&mut rec.digest, &candidates, &mut corrupt);
                }
                Frame::BarrierAck { tag: t } if t == tag => {
                    if !refused {
                        rec.ack_ms = Some(ms(ns_since(epoch) - sent_ns));
                    }
                    break;
                }
                Frame::Shed { tag: t, .. } if t == tag => refused = true,
                other => return Err(Error::Io(format!("unexpected frame {other:?}"))),
            }
        }
        sent.push(rec);
        sync.done[lane_idx].store(idx + 1, Ordering::Release);
    }
    if deadline.is_none() {
        // A lane with nothing to measure must not strand the others.
        sync.start(lane_idx, lane.batches.len());
        start_ns = ns_since(epoch);
    }
    Ok(LaneRun {
        batches: sent,
        start_ns,
        end_ns: ns_since(epoch),
    })
}

// ---- replica leader + warm follower ---------------------------------------

/// A started leader/follower pair and where its state lives.
struct Pair {
    leader: NodeHandle,
    follower: NodeHandle,
    map: magicrecs_replica::ClusterMap,
    dir: PathBuf,
}

impl Pair {
    fn start(dir: PathBuf) -> Result<Pair> {
        let ports = free_ports()?;
        let map = zipf_map(ports);
        let node = |id: u32| {
            let mut cfg = NodeConfig::new(id, map.clone(), dir.join(format!("n{id}")));
            cfg.detector = detector();
            Node::start(cfg)
        };
        let leader = node(0)?;
        let follower = node(1)?;
        Ok(Pair {
            leader,
            follower,
            map,
            dir,
        })
    }

    fn stop(self) {
        self.follower.shutdown();
        self.leader.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn follower_durable(&self, p: u32) -> u64 {
        self.follower
            .durable(p)
            .expect("follower hosts every partition")
    }

    fn wait_follower(&self, staged: &[u64]) -> Result<()> {
        let deadline = Instant::now() + CATCH_UP_TIMEOUT;
        while (0..PARTITIONS).any(|p| self.follower_durable(p) < staged[p as usize]) {
            if Instant::now() >= deadline {
                return Err(Error::Io("follower did not catch up".into()));
            }
            std::thread::sleep(PROBE_PERIOD);
        }
        Ok(())
    }
}

/// Two free loopback ports (bound together so they differ, then released).
fn free_ports() -> Result<[u16; 2]> {
    let io = |e: std::io::Error| Error::Io(e.to_string());
    let a = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let b = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    Ok([
        a.local_addr().map_err(io)?.port(),
        b.local_addr().map_err(io)?.port(),
    ])
}

fn scrape(map: &magicrecs_replica::ClusterMap, name: &str) -> Result<u64> {
    let metrics = Coordinator::new(map.clone()).metrics(0)?;
    Ok(metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v))
}

fn run_replicated(inputs: &Inputs, seconds: u64, scratch: &Path, corrupt: bool) -> Result<Served> {
    let mut setups = Vec::new();
    let mut live: Option<Pair> = None;
    while more_setups(&setups) {
        let rep = setups.len();
        if let Some(pair) = live.take() {
            pair.stop();
        }
        let dir = scratch.join(format!("replica-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let pair = Pair::start(dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some(pair);
    }
    let pair = live.expect("at least one set-up");
    let result = drive_replicated(&pair, inputs, seconds, corrupt);
    let peak = peak_rss_mb();
    pair.stop();
    let mut served = result?;
    served.setups = setups;
    served.peak_rss_mb = peak;
    Ok(served)
}

fn drive_replicated(
    pair: &Pair,
    inputs: &Inputs,
    seconds: u64,
    mut corrupt: bool,
) -> Result<Served> {
    let lane = &inputs.lanes[0];
    let mut client = RoutedClient::new(pair.map.clone());
    let epoch = Instant::now();
    let mut sent = Vec::with_capacity(lane.batches.len());

    let send = |client: &mut RoutedClient, idx: usize, measured: bool| -> SentBatch {
        let batch = &lane.batches[idx];
        let tag = client.staged(batch.part);
        let sent_ns = ns_since(epoch);
        let ok = client.ingest(&batch.events).is_ok();
        let ack = ok.then(|| ms(ns_since(epoch) - sent_ns));
        let delivered = ok && client.delivered().contains_key(&(batch.part, tag));
        SentBatch {
            lane: 0,
            idx,
            measured,
            sent_ns,
            ack_ms: ack,
            deliver_ms: ack.filter(|_| delivered).into_iter().collect(),
            digest: Digest::default(),
            end_seq: tag + batch.events.len() as u64,
        }
    };

    for idx in 0..lane.prefill {
        sent.push(send(&mut client, idx, false));
    }
    let staged_after_prefill: Vec<u64> = (0..PARTITIONS).map(|p| client.staged(p)).collect();
    pair.wait_follower(&staged_after_prefill)?;
    let tail0 = scrape(&pair.map, "replica_tail_rounds")?;
    let ingest0 = scrape(&pair.map, "replica_ingest_batches")?;

    // The probe records each change of the follower's durable watermark.
    let stop = AtomicBool::new(false);
    let (start_ns, end_ns, timelines) = std::thread::scope(|s| {
        let probe = s.spawn(|| {
            let mut lines: Vec<Vec<(u64, u64)>> = vec![Vec::new(); PARTITIONS as usize];
            while !stop.load(Ordering::Acquire) {
                let now = ns_since(epoch);
                for (p, line) in lines.iter_mut().enumerate() {
                    let d = pair.follower_durable(p as u32);
                    if line.last().is_none_or(|&(_, last)| last != d) {
                        line.push((now, d));
                    }
                }
                std::thread::sleep(PROBE_PERIOD);
            }
            lines
        });
        let start_ns = ns_since(epoch);
        let deadline = Instant::now() + Duration::from_secs(seconds);
        for idx in lane.prefill..lane.batches.len() {
            if Instant::now() >= deadline {
                break;
            }
            sent.push(send(&mut client, idx, true));
        }
        let end_ns = ns_since(epoch);
        let staged: Vec<u64> = (0..PARTITIONS).map(|p| client.staged(p)).collect();
        let caught_up = pair.wait_follower(&staged);
        stop.store(true, Ordering::Release);
        let lines = probe.join().expect("probe thread panicked");
        caught_up.map(|()| (start_ns, end_ns, lines))
    })?;

    let tail_rounds = scrape(&pair.map, "replica_tail_rounds")? - tail0;
    let ingest_batches = scrape(&pair.map, "replica_ingest_batches")? - ingest0;

    let mut replicated_ms = Vec::new();
    let mut ship_lag_ms = Vec::new();
    for b in sent.iter_mut() {
        let part = lane.batches[b.idx].part;
        let tag = b.end_seq - lane.batches[b.idx].events.len() as u64;
        if let Some(cands) = client.delivered().get(&(part, tag)) {
            digest_into(&mut b.digest, cands, &mut corrupt);
        }
        let (Some(ack), true) = (b.ack_ms, b.measured) else {
            continue;
        };
        let line = &timelines[part as usize];
        let at = line
            .iter()
            .find(|&&(_, d)| d >= b.end_seq)
            .map(|&(t, _)| t)
            .expect("follower caught up with every batch");
        let replicated = ms(at.saturating_sub(b.sent_ns));
        replicated_ms.push(replicated);
        ship_lag_ms.push(replicated - ack);
    }
    Ok(Served {
        setups: Vec::new(),
        wall_s: (end_ns - start_ns) as f64 / 1e9,
        batches: sent,
        peak_rss_mb: 0.0,
        replicated_ms,
        ship_lag_ms,
        tail_rounds_per_batch: tail_rounds as f64 / ingest_batches.max(1) as f64,
        reroutes: client.reroutes(),
    })
}
