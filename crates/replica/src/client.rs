//! The partition-routed, failover-aware client.
//!
//! [`RoutedClient`] is what "clients re-route and resume" means
//! concretely. It keeps, per partition:
//!
//! * a [`SeqLedger`] assigning dense per-partition sequence numbers —
//!   the batch tag *is* the first event's sequence, which *is* the
//!   WAL sequence the leader will assign, so a re-sent batch is
//!   deduplicated exactly against the replica's durable watermark;
//! * the durable watermark from the last `IngestAck` (batches below it
//!   are not re-sent on the happy path);
//! * the ledger's release point: the **replicated** watermark. A batch
//!   leaves the ledger only once a follower holds it, so a kill -9 of
//!   the leader can never lose an acked event — the client still holds
//!   everything the promotion watermark might miss, and re-sends it.
//!
//! Routing starts from the static map's epoch-0 table and *learns*:
//! every `WrongLeader{epoch, hint}` refusal advances the table, and a
//! connection failure rotates to the partition's other replica at the
//! same epoch. During the failover gap (leader dead, follower not yet
//! promoted) the client ping-pongs with exponential backoff until the
//! coordinator's promotion flips a gate open.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use magicrecs_cluster::RouteTable;
use magicrecs_server::wire::Frame;
use magicrecs_server::{Backoff, ClientConn, SeqLedger};
use magicrecs_types::{Candidate, EdgeEvent, Error, Result, UserId};

use crate::config::ClusterMap;

struct NodeConn {
    conn: ClientConn,
    bound: Option<(u32, u64)>,
}

enum FlushTrouble {
    /// Typed refusal; the table has something to learn.
    WrongLeader { epoch: u64, hint: u32 },
    /// Connection-level failure; rotate replicas.
    Transport(Error),
    /// Server asked us to slow down.
    Shed { retry_after_us: u64 },
    /// Not retryable.
    Fatal(Error),
}

/// See the module docs.
pub struct RoutedClient {
    map: ClusterMap,
    table: RouteTable,
    conns: HashMap<u32, NodeConn>,
    ledgers: Vec<SeqLedger>,
    /// Per-partition durable watermark from the latest ack; the resend
    /// floor on the happy path.
    acked: Vec<u64>,
    /// Set on any disruption: the next flush re-sends *all* unreleased
    /// batches (the acked-tail contract).
    dirty: Vec<bool>,
    backoff: Backoff,
    max_attempts: u32,
    delivered: HashMap<(u32, u64), Vec<Candidate>>,
    reroutes: u64,
}

impl RoutedClient {
    /// A client starting from the map's initial placement.
    pub fn new(map: ClusterMap) -> RoutedClient {
        let table = map.route_table();
        let parts = table.partitions();
        RoutedClient {
            table,
            map,
            conns: HashMap::new(),
            ledgers: (0..parts).map(|_| SeqLedger::new(0)).collect(),
            acked: vec![0; parts],
            dirty: vec![false; parts],
            backoff: Backoff::new(
                Duration::from_micros(500),
                Duration::from_millis(50),
                0x5EED,
            ),
            max_attempts: 400,
            delivered: HashMap::new(),
            reroutes: 0,
        }
    }

    /// Partition an event routes to (by destination, like the WAL).
    pub fn partition_of(&self, dst: &UserId) -> u32 {
        self.table.partition_of(dst)
    }

    /// Candidates delivered so far, keyed by `(partition, batch tag)`.
    /// Deduplicated keep-first, so a post-failover re-delivery never
    /// double-counts.
    pub fn delivered(&self) -> &HashMap<(u32, u64), Vec<Candidate>> {
        &self.delivered
    }

    /// Times a flush had to learn a new route or rotate replicas.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Unreleased batch tags for one partition (the exact resend set).
    pub fn unreleased_tags(&self, partition: u32) -> Vec<u64> {
        self.ledgers[partition as usize]
            .unreleased()
            .map(|b| b.tag)
            .collect()
    }

    /// Events staged so far for one partition (== its next sequence).
    pub fn staged(&self, partition: u32) -> u64 {
        self.ledgers[partition as usize].next_seq()
    }

    /// Routes `events` to their partitions (preserving per-partition
    /// order), stages them in the ledgers, and pushes every partition's
    /// outstanding tail until acked. Survives leader death mid-call as
    /// long as a promotion eventually happens.
    pub fn ingest(&mut self, events: &[EdgeEvent]) -> Result<()> {
        let parts = self.table.partitions();
        let mut groups: Vec<Vec<EdgeEvent>> = vec![Vec::new(); parts];
        for e in events {
            groups[self.table.partition_of(&e.dst) as usize].push(*e);
        }
        for (p, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.ledgers[p].stage(group)?;
            self.flush_partition(p as u32)?;
        }
        Ok(())
    }

    /// Blocks until every staged batch is **replicated** (ledgers
    /// empty), polling the leader's watermark. After this returns, a
    /// kill -9 of any single node loses nothing this client sent.
    pub fn drain(&mut self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut pending = false;
            for p in 0..self.table.partitions() as u32 {
                if self.ledgers[p as usize].is_empty() {
                    continue;
                }
                pending = true;
                let tag = self.ledgers[p as usize].next_seq();
                self.push_batches(p, vec![(tag, Vec::new())])?;
            }
            if !pending {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let stuck: Vec<usize> = (0..self.ledgers.len())
                    .filter(|&p| !self.ledgers[p].is_empty())
                    .collect();
                return Err(Error::Io(format!(
                    "drain timed out; partitions {stuck:?} still hold unreplicated batches"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Pushes one partition's outstanding batches: everything above the
    /// acked floor normally, everything unreleased after a disruption.
    fn flush_partition(&mut self, p: u32) -> Result<()> {
        let batches = self.outstanding(p);
        if batches.is_empty() {
            return Ok(());
        }
        self.push_batches(p, batches)
    }

    fn outstanding(&self, p: u32) -> Vec<(u64, Vec<EdgeEvent>)> {
        let floor = if self.dirty[p as usize] {
            0
        } else {
            self.acked[p as usize]
        };
        self.ledgers[p as usize]
            .unreleased()
            .filter(|b| b.end_seq() > floor)
            .map(|b| (b.tag, b.events.clone()))
            .collect()
    }

    fn push_batches(&mut self, p: u32, mut batches: Vec<(u64, Vec<EdgeEvent>)>) -> Result<()> {
        let mut last_err = Error::Io("no attempts made".into());
        for _attempt in 0..self.max_attempts {
            let decision = self.table.route_partition(p);
            match self.try_push(p, decision.owner, decision.epoch, &batches) {
                Ok(()) => {
                    self.dirty[p as usize] = false;
                    self.backoff.reset();
                    return Ok(());
                }
                Err(FlushTrouble::WrongLeader { epoch, hint }) => {
                    self.table.learn(p, epoch, hint);
                    self.mark_disrupted(p);
                    batches = self.outstanding(p);
                    last_err = Error::WrongLeader {
                        partition: p,
                        epoch,
                        hint,
                    };
                    let d = self.backoff.next_delay(0);
                    std::thread::sleep(d);
                }
                Err(FlushTrouble::Transport(e)) => {
                    self.conns.remove(&decision.owner);
                    self.mark_disrupted(p);
                    // Same epoch, other replica: `learn` adopts an
                    // equal-epoch owner change.
                    if let Some(alt) = self
                        .map
                        .replicas(p)
                        .into_iter()
                        .find(|&n| n != decision.owner)
                    {
                        self.table.learn(p, decision.epoch, alt);
                    }
                    batches = self.outstanding(p);
                    last_err = e;
                    let d = self.backoff.next_delay(0);
                    std::thread::sleep(d);
                }
                Err(FlushTrouble::Shed { retry_after_us }) => {
                    let d = self.backoff.next_delay(retry_after_us);
                    std::thread::sleep(d);
                    last_err = Error::Io("shed by server".into());
                }
                Err(FlushTrouble::Fatal(e)) => return Err(e),
            }
        }
        Err(last_err)
    }

    fn mark_disrupted(&mut self, p: u32) {
        self.dirty[p as usize] = true;
        self.acked[p as usize] = 0;
        self.reroutes += 1;
    }

    /// One attempt against one owner: bind, send every batch, await
    /// its ack (collecting deliveries).
    fn try_push(
        &mut self,
        p: u32,
        owner: u32,
        epoch: u64,
        batches: &[(u64, Vec<EdgeEvent>)],
    ) -> std::result::Result<(), FlushTrouble> {
        let addr = self.map.addr_of(owner).map_err(FlushTrouble::Fatal)?;
        if let std::collections::hash_map::Entry::Vacant(slot) = self.conns.entry(owner) {
            let mut conn = ClientConn::connect(addr, None).map_err(FlushTrouble::Transport)?;
            conn.send(&Frame::Subscribe)
                .map_err(FlushTrouble::Transport)?;
            match conn.recv().map_err(FlushTrouble::Transport)? {
                Frame::OkAck => {}
                other => return Err(unexpected(&other)),
            }
            slot.insert(NodeConn { conn, bound: None });
        }
        let entry = self.conns.get_mut(&owner).expect("just inserted");
        if entry.bound != Some((p, epoch)) {
            entry
                .conn
                .send(&Frame::RouteBind {
                    partition: p,
                    epoch,
                })
                .map_err(FlushTrouble::Transport)?;
            match entry.conn.recv().map_err(FlushTrouble::Transport)? {
                Frame::OkAck => entry.bound = Some((p, epoch)),
                Frame::WrongLeader { epoch, hint, .. } => {
                    entry.bound = None;
                    return Err(FlushTrouble::WrongLeader { epoch, hint });
                }
                other => return Err(unexpected(&other)),
            }
        }
        for (tag, events) in batches {
            entry
                .conn
                .send(&Frame::Ingest {
                    tag: *tag,
                    events: events.clone(),
                })
                .map_err(FlushTrouble::Transport)?;
            loop {
                match entry.conn.recv().map_err(FlushTrouble::Transport)? {
                    Frame::Deliver { tag, candidates } => {
                        self.delivered.entry((p, tag)).or_insert(candidates);
                    }
                    Frame::IngestAck {
                        tag: acked_tag,
                        durable,
                        replicated,
                        ..
                    } => {
                        if acked_tag == *tag {
                            let a = &mut self.acked[p as usize];
                            *a = (*a).max(durable);
                            self.ledgers[p as usize].release(replicated);
                            break;
                        }
                    }
                    Frame::WrongLeader { epoch, hint, .. } => {
                        entry.bound = None;
                        return Err(FlushTrouble::WrongLeader { epoch, hint });
                    }
                    Frame::Shed { retry_after_us, .. } => {
                        return Err(FlushTrouble::Shed { retry_after_us })
                    }
                    Frame::Error { detail, .. } => {
                        return Err(FlushTrouble::Fatal(Error::Io(format!(
                            "server refused ingest: {detail}"
                        ))))
                    }
                    other => return Err(unexpected(&other)),
                }
            }
        }
        Ok(())
    }
}

fn unexpected(frame: &Frame) -> FlushTrouble {
    FlushTrouble::Fatal(Error::Corrupt(format!(
        "unexpected frame type {} from replica node",
        frame.frame_type()
    )))
}
