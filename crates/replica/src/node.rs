//! The replica node runtime: a blocking, thread-per-connection server
//! hosting one **partition unit** per partition this node replicates.
//!
//! A unit is a [`PersistentConcurrentEngine`] on one WAL partition —
//! the same engine and durability path the single-node server runs —
//! fenced by an [`EpochGate`]. Its durable watermark (`Unit::durable`)
//! is the one sequence every decision reads: ingest dedup, the
//! `IngestAck`, the role-change fence, the follower's tail cursor and
//! `StatusResp`. It advances only after an append succeeded. The same
//! unit serves in both roles:
//!
//! * **leading** — `RouteBind`/`Ingest` are admitted through the gate,
//!   applied with group commit (`FsyncPolicy::Always`, so a successful
//!   append is durable), candidates delivered to subscribed
//!   connections, and acknowledged with `IngestAck{durable, replicated}`;
//! * **following** — the gate refuses writes with a typed
//!   `WrongLeader`, while a tail thread (see [`crate::tail`]) ships the
//!   leader's WAL segments into the local engine.
//!
//! Both roles serve the read-only shipping plane (`SegmentsReq` /
//! `SegmentFetch` / `StateListReq` / `StateFetch`), so a rebalance
//! target can bootstrap from whichever replica is cheapest.
//!
//! ## The demote fence
//!
//! "Acked" means the client saw `IngestAck` — so a batch admitted
//! before a demotion must either complete *and be counted in the fence
//! the coordinator waits on*, or be refused. The ingest path therefore
//! re-checks the gate, dedups and appends as one step **inside** the
//! unit's engine lock, and `RoleChange{leader: false}` takes that lock
//! *before* flipping the gate:
//! any in-flight batch finishes first (and is covered by the returned
//! fence), and any batch still waiting on the lock re-checks the gate
//! and is refused. Nothing is ever acked above the fence.
//!
//! ## Promotion
//!
//! `RoleChange{leader: true}` stops the tail thread, flips the gate,
//! bumps `replica_promotions`, records a [`TraceKind::Promote`] event,
//! and writes the flight-recorder ring to `promote-<epoch>.trace` in
//! the unit's directory — crash forensics name the promotion even if
//! the process dies right after.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use magicrecs_cluster::EpochGate;
use magicrecs_gen::{GraphGen, GraphGenConfig};
use magicrecs_graph::{CapStrategy, FollowGraph};
use magicrecs_obs::recorder;
use magicrecs_obs::TraceKind;
use magicrecs_persist::{segment_catalog, FsyncPolicy, PersistOptions, PersistentConcurrentEngine};
use magicrecs_server::wire::{decode, encode, Frame, ReplStatus, WireErrorCode, MAX_CHUNK_LEN};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Error, Result};

use crate::config::ClusterMap;
use crate::metrics::{replica_metrics, ReplicaMetrics};
use crate::tail::{start_tail, TailHandle};

/// On-disk segment prefix of a unit's WAL — the one-partition log's.
pub use magicrecs_persist::wal::SINGLE_LOG_PREFIX as WAL_PREFIX;

/// WAL partitions per unit: one dense log, whose sequences are exactly
/// the client's batch tags.
const UNIT_WAL_PARTS: usize = 1;

/// Everything a node process needs to come up.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id in the map.
    pub node_id: u32,
    /// The static topology.
    pub map: ClusterMap,
    /// Root data directory; each unit lives in `p<partition>/`.
    pub data_dir: PathBuf,
    /// Detector configuration (must match across the cluster).
    pub detector: DetectorConfig,
    /// WAL segment size. Small segments make shipping granular.
    pub segment_bytes: u64,
    /// Follower tail poll interval when caught up.
    pub poll_interval: Duration,
    /// Spawn tail threads at start for partitions the map says this
    /// node follows. Tests that drive `FollowReq` by hand turn this off.
    pub auto_follow: bool,
}

impl NodeConfig {
    /// Sensible defaults for loopback clusters: 64 KiB segments, 2 ms
    /// tail poll, auto-follow on. Checkpoints land on `CheckpointReq`.
    pub fn new(node_id: u32, map: ClusterMap, data_dir: PathBuf) -> NodeConfig {
        NodeConfig {
            node_id,
            map,
            data_dir,
            detector: DetectorConfig::default(),
            segment_bytes: 64 << 10,
            poll_interval: Duration::from_millis(2),
            auto_follow: true,
        }
    }

    fn persist_opts(&self) -> PersistOptions {
        PersistOptions {
            // Always-fsync makes every successful append durable, so the
            // unit's watermark is the promotion contract ("promote at its
            // durable seq").
            fsync: FsyncPolicy::Always,
            segment_bytes: self.segment_bytes,
            ..PersistOptions::default()
        }
    }

    /// Recovers the unit directory `dir` (crash recovery, or the state a
    /// rebalance bootstrap shipped in).
    pub(crate) fn open_engine(&self, dir: &Path) -> Result<PersistentConcurrentEngine> {
        let (engine, _report) = PersistentConcurrentEngine::open(
            dir,
            self.detector,
            CapStrategy::None,
            UNIT_WAL_PARTS,
            self.persist_opts(),
        )?;
        Ok(engine)
    }
}

/// The deterministic graph fixture every replica of a map shares:
/// replication ships only the event WAL, so all detectors must start
/// from the identical follow graph.
pub fn fixture_graph(map: &ClusterMap) -> FollowGraph {
    GraphGen::new(
        GraphGenConfig::small()
            .with_seed(map.seed)
            .with_users(map.users),
    )
    .generate()
}

/// One replicated partition living on this node.
pub(crate) struct Unit {
    pub(crate) partition: u32,
    pub(crate) dir: PathBuf,
    pub(crate) gate: EpochGate,
    pub(crate) engine: Mutex<PersistentConcurrentEngine>,
    /// The durable watermark: every sequence below it was appended and
    /// fsynced. Written only under the engine lock, after a successful
    /// append; readable without it.
    pub(crate) durable: AtomicU64,
    /// Highest `from_seq` any follower has reported via `SegmentsReq` —
    /// the leader's view of the replicated watermark.
    pub(crate) replicated: AtomicU64,
    pub(crate) tail: Mutex<Option<TailHandle>>,
}

impl Unit {
    /// A unit over `engine`, its durable watermark at the engine's
    /// recovered tail.
    pub(crate) fn new(
        partition: u32,
        dir: PathBuf,
        engine: PersistentConcurrentEngine,
        leading: bool,
        hint: u32,
    ) -> Unit {
        let durable = engine.next_seq();
        Unit {
            partition,
            dir,
            gate: EpochGate::new(partition, 0, leading, hint),
            engine: Mutex::new(engine),
            durable: AtomicU64::new(durable),
            replicated: AtomicU64::new(0),
            tail: Mutex::new(None),
        }
    }

    /// The leader's ingest step for a batch whose first event carries
    /// sequence `tag`, atomic under the engine lock: re-check the gate
    /// (the demote fence), skip the prefix already below `durable`,
    /// append the rest, and advance `durable` only once that append
    /// succeeded. Returns the watermark to acknowledge. A gate refusal
    /// is `Error::WrongLeader`, a batch starting above the watermark is
    /// `Error::ReplicaGap`, and a failed append is its own error with
    /// the watermark unchanged — so a resend of that batch is appended
    /// again (and refused by a poisoned WAL), never acked as held.
    pub(crate) fn ingest(
        &self,
        epoch: u64,
        tag: u64,
        events: &[EdgeEvent],
        out: &mut Vec<Candidate>,
        metrics: &ReplicaMetrics,
    ) -> Result<u64> {
        let engine = self.engine.lock().unwrap();
        self.gate.admit(epoch)?;
        let durable = self.durable.load(Ordering::Acquire);
        if tag > durable {
            return Err(Error::ReplicaGap {
                partition: self.partition,
                expected: durable,
                got: tag,
            });
        }
        let skip = (durable - tag) as usize;
        if skip >= events.len() {
            // Whole batch already held (idempotent re-send).
            if !events.is_empty() {
                metrics.dup_batches.incr();
            }
            return Ok(durable);
        }
        engine.on_events_into(&events[skip..], out)?;
        let durable = tag + events.len() as u64;
        self.durable.store(durable, Ordering::Release);
        metrics.ingest_batches.incr();
        Ok(durable)
    }

    fn status(&self) -> ReplStatus {
        let (epoch, leading, _hint) = self.gate.current();
        let durable = self.durable.load(Ordering::Acquire);
        ReplStatus {
            partition: self.partition,
            leading,
            epoch,
            durable,
            applied: durable,
            replicated: self.replicated.load(Ordering::Acquire),
        }
    }
}

pub(crate) struct NodeInner {
    pub(crate) cfg: NodeConfig,
    pub(crate) units: Mutex<HashMap<u32, Arc<Unit>>>,
    pub(crate) metrics: ReplicaMetrics,
    shutdown: AtomicBool,
}

/// A running node: the acceptor thread plus its shared state. Obtained
/// from [`Node::start`]; the `replica_node` binary parks on it forever,
/// in-process tests call [`NodeHandle::shutdown`].
pub struct NodeHandle {
    inner: Arc<NodeInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

/// Namespace for starting replica nodes.
pub struct Node;

impl Node {
    /// Creates (or re-opens) every unit the map assigns this node,
    /// binds the listener, spawns the acceptor, and — for partitions
    /// the map says we follow — starts tail threads against the
    /// initial leaders.
    pub fn start(cfg: NodeConfig) -> Result<NodeHandle> {
        let addr = cfg.map.addr_of(cfg.node_id)?;
        let graph = fixture_graph(&cfg.map);
        let mut units = HashMap::new();
        let mut lead = cfg.map.led_by(cfg.node_id);
        lead.extend(cfg.map.followed_by(cfg.node_id));
        for partition in lead {
            let unit = open_unit(&cfg, partition, graph.clone())?;
            units.insert(partition, Arc::new(unit));
        }
        let inner = Arc::new(NodeInner {
            units: Mutex::new(units),
            metrics: replica_metrics(),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Io(e.to_string()))?;
        if inner.cfg.auto_follow {
            for partition in inner.cfg.map.followed_by(inner.cfg.node_id) {
                let leader = inner
                    .cfg
                    .map
                    .partition(partition)
                    .expect("validated")
                    .leader;
                let source = inner.cfg.map.addr_of(leader)?;
                let unit = Arc::clone(
                    inner
                        .units
                        .lock()
                        .unwrap()
                        .get(&partition)
                        .expect("unit just created"),
                );
                start_tail(&inner, &unit, source);
            }
        }
        let acc_inner = Arc::clone(&inner);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if acc_inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_inner = Arc::clone(&acc_inner);
                std::thread::spawn(move || {
                    let _ = serve_conn(&conn_inner, stream);
                });
            }
        });
        Ok(NodeHandle {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }
}

impl NodeHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Durable watermark of one hosted partition (tests/diagnostics).
    pub fn durable(&self, partition: u32) -> Option<u64> {
        self.inner
            .units
            .lock()
            .unwrap()
            .get(&partition)
            .map(|u| u.durable.load(Ordering::Acquire))
    }

    /// Stops tail threads and the acceptor. Connection threads exit
    /// when their peers hang up.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let units: Vec<Arc<Unit>> = self.inner.units.lock().unwrap().values().cloned().collect();
        for unit in units {
            if let Some(handle) = unit.tail.lock().unwrap().take() {
                handle.stop();
            }
        }
        // Wake the acceptor with a dummy connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
    }
}

/// Opens an existing unit directory or creates a fresh one seeded with
/// the fixture graph.
fn open_unit(cfg: &NodeConfig, partition: u32, graph: FollowGraph) -> Result<Unit> {
    let dir = cfg.data_dir.join(format!("p{partition}"));
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
    let has_state = std::fs::read_dir(&dir)
        .map_err(|e| Error::Io(e.to_string()))?
        .next()
        .is_some();
    let engine = if has_state {
        cfg.open_engine(&dir)?
    } else {
        PersistentConcurrentEngine::create(
            &dir,
            graph,
            0,
            cfg.detector,
            UNIT_WAL_PARTS,
            cfg.persist_opts(),
        )?
    };
    let spec = cfg
        .map
        .partition(partition)
        .ok_or(Error::UnknownPartition(partition))?;
    let leading = spec.leader == cfg.node_id;
    Ok(Unit::new(partition, dir, engine, leading, spec.leader))
}

fn get_unit(inner: &Arc<NodeInner>, partition: u32) -> Option<Arc<Unit>> {
    inner.units.lock().unwrap().get(&partition).cloned()
}

fn send(stream: &mut TcpStream, frame: &Frame) -> Result<()> {
    use std::io::Write;
    stream
        .write_all(&encode(frame))
        .map_err(|e| Error::Io(e.to_string()))
}

fn reply_err(stream: &mut TcpStream, code: WireErrorCode, detail: String) -> Result<()> {
    send(stream, &Frame::Error { code, detail })
}

/// Per-connection state: one partition binding at a time (rebinding is
/// cheap and the routed client does it whenever it switches partitions
/// on a shared connection).
struct ConnState {
    bound: Option<(u32, u64)>,
    subscribed: bool,
}

fn serve_conn(inner: &Arc<NodeInner>, mut stream: TcpStream) -> Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut state = ConnState {
        bound: None,
        subscribed: false,
    };
    loop {
        loop {
            match decode(&buf) {
                Ok(Some((frame, used))) => {
                    buf.drain(..used);
                    if !handle_frame(inner, &mut stream, &mut state, frame)? {
                        return Ok(());
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = reply_err(&mut stream, WireErrorCode::BadFrame, e.to_string());
                    return Err(e);
                }
            }
        }
        let n = stream
            .read(&mut scratch)
            .map_err(|e| Error::Io(e.to_string()))?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Handles one frame; returns `Ok(false)` to close the connection.
fn handle_frame(
    inner: &Arc<NodeInner>,
    stream: &mut TcpStream,
    state: &mut ConnState,
    frame: Frame,
) -> Result<bool> {
    match frame {
        Frame::Hello { .. } => {
            send(
                stream,
                &Frame::HelloAck {
                    worker_id: inner.cfg.node_id,
                    num_workers: 1,
                },
            )?;
        }
        Frame::Subscribe => {
            state.subscribed = true;
            send(stream, &Frame::OkAck)?;
        }
        Frame::Barrier { tag } => send(stream, &Frame::BarrierAck { tag })?,
        Frame::MetricsReq => {
            let metrics = magicrecs_obs::export::flatten(&magicrecs_obs::global().snapshot());
            send(stream, &Frame::MetricsResp { metrics })?;
        }
        Frame::CheckpointReq => {
            let units: Vec<Arc<Unit>> = inner.units.lock().unwrap().values().cloned().collect();
            for unit in units {
                unit.engine.lock().unwrap().checkpoint()?;
            }
            send(stream, &Frame::OkAck)?;
        }
        Frame::RouteBind { partition, epoch } => match get_unit(inner, partition) {
            None => {
                // Not hosted here; the best hint we have is the static map.
                let hint = inner
                    .cfg
                    .map
                    .partition(partition)
                    .map(|p| p.leader)
                    .unwrap_or(0);
                inner.metrics.refused_writes.incr();
                send(
                    stream,
                    &Frame::WrongLeader {
                        partition,
                        epoch: 0,
                        hint,
                    },
                )?;
            }
            Some(unit) => match unit.gate.admit(epoch) {
                Ok(_) => {
                    state.bound = Some((partition, epoch));
                    send(stream, &Frame::OkAck)?;
                }
                Err(Error::WrongLeader {
                    partition,
                    epoch,
                    hint,
                }) => {
                    inner.metrics.refused_writes.incr();
                    send(
                        stream,
                        &Frame::WrongLeader {
                            partition,
                            epoch,
                            hint,
                        },
                    )?;
                }
                Err(e) => return Err(e),
            },
        },
        Frame::Ingest { tag, events } => {
            let Some((partition, epoch)) = state.bound else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    "bind a partition before ingesting".into(),
                )?;
                return Ok(true);
            };
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Internal,
                    "partition unit vanished".into(),
                )?;
                return Ok(false);
            };
            let mut candidates = Vec::new();
            let durable = match unit.ingest(epoch, tag, &events, &mut candidates, &inner.metrics) {
                Ok(durable) => durable,
                Err(Error::WrongLeader {
                    partition,
                    epoch,
                    hint,
                }) => {
                    state.bound = None;
                    inner.metrics.refused_writes.incr();
                    send(
                        stream,
                        &Frame::WrongLeader {
                            partition,
                            epoch,
                            hint,
                        },
                    )?;
                    return Ok(true);
                }
                Err(Error::ReplicaGap { expected, got, .. }) => {
                    reply_err(
                        stream,
                        WireErrorCode::Internal,
                        format!("ingest gap: batch tag {got} but next seq is {expected}"),
                    )?;
                    return Ok(true);
                }
                Err(e) => return Err(e),
            };
            if state.subscribed && !candidates.is_empty() {
                send(stream, &Frame::Deliver { tag, candidates })?;
            }
            send(
                stream,
                &Frame::IngestAck {
                    partition,
                    tag,
                    durable,
                    replicated: unit.replicated.load(Ordering::Acquire),
                },
            )?;
        }
        Frame::SegmentsReq {
            partition,
            from_seq,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            // The follower's requested floor doubles as its durable
            // progress report: everything below is replicated.
            unit.replicated.fetch_max(from_seq, Ordering::AcqRel);
            let catalog = segment_catalog(&unit.dir, WAL_PREFIX)?;
            let segments = catalog.iter().map(|s| (s.first_seq, s.bytes)).collect();
            send(
                stream,
                &Frame::SegmentsResp {
                    partition,
                    segments,
                },
            )?;
        }
        Frame::SegmentFetch {
            partition,
            first_seq,
            offset,
            max_len,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let name = format!("{WAL_PREFIX}{first_seq:020}.wal");
            let bytes = read_slice(&unit.dir.join(&name), offset, max_len)?;
            match bytes {
                Some(bytes) => send(
                    stream,
                    &Frame::SegmentChunk {
                        partition,
                        first_seq,
                        offset,
                        bytes,
                    },
                )?,
                None => reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("no such segment {name}"),
                )?,
            }
        }
        Frame::StateListReq { partition } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let mut files = Vec::new();
            let rd = std::fs::read_dir(&unit.dir).map_err(|e| Error::Io(e.to_string()))?;
            for entry in rd {
                let entry = entry.map_err(|e| Error::Io(e.to_string()))?;
                let meta = entry.metadata().map_err(|e| Error::Io(e.to_string()))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                // Ship only settled durable state: no tmp files (mid-rename),
                // no trace dumps.
                if meta.is_file() && !name.ends_with(".tmp") && !name.ends_with(".trace") {
                    files.push((name, meta.len()));
                }
            }
            files.sort();
            send(stream, &Frame::StateListResp { partition, files })?;
        }
        Frame::StateFetch {
            partition,
            name,
            offset,
            max_len,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            if !safe_name(&name) {
                let _ = reply_err(
                    stream,
                    WireErrorCode::BadFrame,
                    format!("unsafe state name {name:?}"),
                );
                return Ok(false);
            }
            let bytes = read_slice(&unit.dir.join(&name), offset, max_len)?;
            match bytes {
                Some(bytes) => send(
                    stream,
                    &Frame::StateChunk {
                        partition,
                        name,
                        offset,
                        bytes,
                    },
                )?,
                None => reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("no such state file {name}"),
                )?,
            }
        }
        Frame::RoleChange {
            partition,
            epoch,
            leader,
            hint,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let durable = if leader {
                promote(inner, &unit, epoch, hint)?
            } else {
                demote(inner, &unit, epoch, hint)
            };
            send(
                stream,
                &Frame::RoleChangeAck {
                    partition,
                    epoch,
                    durable,
                },
            )?;
        }
        Frame::FollowReq { partition, source } => {
            let source: SocketAddr = source
                .parse()
                .map_err(|_| Error::InvalidConfig(format!("bad follow source {source:?}")))?;
            match crate::tail::get_or_bootstrap(inner, partition, source) {
                Ok(unit) => {
                    start_tail(inner, &unit, source);
                    send(stream, &Frame::OkAck)?;
                }
                Err(e) => reply_err(stream, WireErrorCode::Internal, e.to_string())?,
            }
        }
        Frame::StatusReq { partition } => match get_unit(inner, partition) {
            Some(unit) => send(stream, &Frame::StatusResp(unit.status()))?,
            None => reply_err(
                stream,
                WireErrorCode::Unsupported,
                format!("partition {partition} not hosted"),
            )?,
        },
        Frame::StatsReq | Frame::DeltaPublish { .. } => {
            reply_err(
                stream,
                WireErrorCode::Unsupported,
                "not served by replica nodes".into(),
            )?;
        }
        // Response-direction frames arriving at a server mean the peer
        // is confused; answer typed and hang up.
        other => {
            let _ = reply_err(
                stream,
                WireErrorCode::BadFrame,
                format!("unexpected frame type {}", other.frame_type()),
            );
            return Ok(false);
        }
    }
    Ok(true)
}

/// Leader-ward role flip: stop tailing, fence the gate open, leave a
/// promotion record in both the metrics and the flight recorder, and
/// persist the recorder ring next to the data it describes.
fn promote(inner: &Arc<NodeInner>, unit: &Arc<Unit>, epoch: u64, hint: u32) -> Result<u64> {
    if let Some(handle) = unit.tail.lock().unwrap().take() {
        handle.stop();
    }
    let engine = unit.engine.lock().unwrap();
    let durable = unit.durable.load(Ordering::Acquire);
    unit.gate.set_role(epoch, true, hint);
    drop(engine);
    inner.metrics.promotions.incr();
    recorder::record(
        TraceKind::Promote,
        "follower promoted to leader",
        unit.partition as u64,
        epoch,
    );
    let dump = recorder::dump_string();
    let path = unit.dir.join(format!("promote-{epoch}.trace"));
    std::fs::write(&path, dump).map_err(|e| Error::Io(e.to_string()))?;
    Ok(durable)
}

/// Follower-ward role flip — the write fence. Holding the engine lock
/// across the gate flip is what makes the returned watermark a true
/// upper bound on everything this unit ever acked (see module docs).
fn demote(inner: &Arc<NodeInner>, unit: &Arc<Unit>, epoch: u64, hint: u32) -> u64 {
    let engine = unit.engine.lock().unwrap();
    unit.gate.set_role(epoch, false, hint);
    let durable = unit.durable.load(Ordering::Acquire);
    drop(engine);
    inner.metrics.demotions.incr();
    durable
}

/// `true` for bare file names that cannot escape the unit directory.
pub(crate) fn safe_name(name: &str) -> bool {
    !name.is_empty()
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains("..")
        && name != "."
}

/// Reads up to `max_len` (capped at [`MAX_CHUNK_LEN`]) bytes of `path`
/// starting at `offset`. `Ok(None)` if the file does not exist;
/// `Some(vec![])` past end-of-file (the wire's "ends here" marker).
fn read_slice(path: &std::path::Path, offset: u64, max_len: u32) -> Result<Option<Vec<u8>>> {
    use std::io::{Seek, SeekFrom};
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::Io(e.to_string())),
    };
    let len = f.metadata().map_err(|e| Error::Io(e.to_string()))?.len();
    if offset >= len {
        return Ok(Some(Vec::new()));
    }
    f.seek(SeekFrom::Start(offset))
        .map_err(|e| Error::Io(e.to_string()))?;
    let want = ((len - offset).min(max_len as u64)).min(MAX_CHUNK_LEN as u64) as usize;
    let mut bytes = vec![0u8; want];
    let mut filled = 0;
    while filled < want {
        let n = f
            .read(&mut bytes[filled..])
            .map_err(|e| Error::Io(e.to_string()))?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    bytes.truncate(filled);
    Ok(Some(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_persist::{FaultPlan, FaultVfs, TempDir};
    use magicrecs_types::{Timestamp, UserId};

    /// A leading partition-0 unit at epoch 0 whose engine writes through
    /// `vfs`, with the node's own persistence options.
    fn unit_on(dir: &Path, vfs: &FaultVfs) -> Unit {
        let mut g = GraphBuilder::new();
        g.extend([(UserId(1), UserId(11)), (UserId(2), UserId(11))]);
        let map = ClusterMap {
            nodes: Vec::new(),
            partitions: Vec::new(),
            users: 0,
            seed: 0,
        };
        let cfg = NodeConfig::new(0, map, dir.to_path_buf());
        let engine = PersistentConcurrentEngine::create_with_vfs(
            dir,
            g.build(),
            0,
            cfg.detector,
            UNIT_WAL_PARTS,
            cfg.persist_opts(),
            Arc::new(vfs.clone()),
        )
        .unwrap();
        Unit::new(0, dir.to_path_buf(), engine, true, 0)
    }

    #[test]
    fn resend_of_a_failed_append_is_refused_not_acked() {
        let tmp = TempDir::new("replica-ingest-fault");
        let vfs = FaultVfs::new_disarmed(FaultPlan::fail_nth_sync(1));
        let unit = unit_on(tmp.path(), &vfs);
        let metrics = replica_metrics();
        let events: Vec<EdgeEvent> = (0..4)
            .map(|i| EdgeEvent::follow(UserId(11), UserId(100 + i), Timestamp::from_secs(i)))
            .collect();
        let mut out = Vec::new();
        assert_eq!(
            unit.ingest(0, 0, &events[..2], &mut out, &metrics).unwrap(),
            2
        );

        // The batch's fsync fails: the append errors and poisons the WAL.
        vfs.set_armed(true);
        assert!(unit.ingest(0, 2, &events[2..], &mut out, &metrics).is_err());
        assert_eq!(vfs.fired_count(), 1);
        assert_eq!(unit.durable.load(Ordering::Acquire), 2);

        // The client's resends of that batch are never held or acked —
        // the engine's sequence counter moved past them, the watermark
        // did not.
        for _ in 0..2 {
            assert!(unit.ingest(0, 2, &events[2..], &mut out, &metrics).is_err());
            assert_eq!(unit.durable.load(Ordering::Acquire), 2);
            assert_eq!(unit.status().durable, 2);
        }
        // A resend of the acked batch is still a held duplicate.
        assert_eq!(
            unit.ingest(0, 0, &events[..2], &mut out, &metrics).unwrap(),
            2
        );
    }

    #[test]
    fn ingest_refuses_gaps_and_stale_epochs() {
        let tmp = TempDir::new("replica-ingest-gap");
        let unit = unit_on(tmp.path(), &FaultVfs::new_disarmed(FaultPlan::none()));
        let metrics = replica_metrics();
        let events = [EdgeEvent::follow(
            UserId(11),
            UserId(100),
            Timestamp::from_secs(1),
        )];
        let mut out = Vec::new();
        assert!(matches!(
            unit.ingest(0, 1, &events, &mut out, &metrics),
            Err(Error::ReplicaGap {
                expected: 0,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            unit.ingest(1, 0, &events, &mut out, &metrics),
            Err(Error::WrongLeader { .. })
        ));
        assert_eq!(unit.ingest(0, 0, &events, &mut out, &metrics).unwrap(), 1);
    }

    #[test]
    fn safe_name_rejects_traversal() {
        assert!(safe_name("wal-00000000000000000000.wal"));
        assert!(safe_name("checkpoint-3.mgci"));
        assert!(!safe_name("../evil"));
        assert!(!safe_name("a/b"));
        assert!(!safe_name("a\\b"));
        assert!(!safe_name(""));
        assert!(!safe_name("."));
    }

    #[test]
    fn read_slice_handles_bounds() {
        let tmp = magicrecs_persist::TempDir::new("replica-read-slice");
        let p = tmp.path().join("f");
        std::fs::write(&p, b"hello world").unwrap();
        assert_eq!(read_slice(&p, 0, 5).unwrap().unwrap(), b"hello");
        assert_eq!(read_slice(&p, 6, 100).unwrap().unwrap(), b"world");
        assert_eq!(read_slice(&p, 11, 4).unwrap().unwrap(), b"");
        assert_eq!(read_slice(&p, 999, 4).unwrap().unwrap(), b"");
        assert!(read_slice(&tmp.path().join("missing"), 0, 4)
            .unwrap()
            .is_none());
    }
}
