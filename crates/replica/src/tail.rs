//! The follower side of WAL shipping: a per-partition thread that
//! tails a source replica's MGWL segments into the local unit, plus
//! the state-ship bootstrap a rebalance target uses to materialise a
//! partition it has never hosted.
//!
//! ## Tail protocol
//!
//! Each round the tailer asks the source for its segment catalog
//! (`SegmentsReq{from_seq}` — the request *is* the follower's durable
//! progress report, feeding the leader's replicated watermark), finds
//! the segment containing the next sequence it needs, and streams
//! bytes forward with `SegmentFetch`/`SegmentChunk`. Bytes pass
//! through [`ShipDecoder`], which re-validates every CRC and sequence
//! against the local expectation: a cut at any byte boundary leaves a
//! clean prefix, a duplicate resend is skipped, and a hole is a typed
//! [`Error::ReplicaGap`] that stops the tailer (recorded in the flight
//! recorder) rather than letting the replica diverge.
//!
//! Within a round the current segment is re-fetched from offset 0; the
//! decoder's duplicate skip absorbs the overlap. That trades a little
//! loopback bandwidth for never having to reason about torn-tail
//! offsets across reconnects — the only cursor that matters is the
//! unit's durable watermark.
//!
//! ## Bootstrap (rebalance)
//!
//! A `FollowReq` for a partition this node has no unit for first ships
//! *every settled file* of the source's partition directory
//! (`StateListReq`/`StateFetch`): base snapshot, checkpoint chain, WAL
//! segments. The target then runs ordinary crash recovery
//! ([`PersistentConcurrentEngine::open`](magicrecs_persist::PersistentConcurrentEngine::open))
//! over the copied directory — the same code path a reboot uses, so a
//! half-shipped WAL tail is truncated, not trusted — and tails forward
//! from wherever recovery landed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use magicrecs_obs::recorder;
use magicrecs_obs::TraceKind;
use magicrecs_persist::{ShipDecoder, WalRecord};
use magicrecs_server::wire::{Frame, MAX_CHUNK_LEN};
use magicrecs_server::ClientConn;
use magicrecs_types::{EdgeEvent, Error, Result};

use crate::node::{NodeInner, Unit};

/// Control handle for one tail thread.
pub(crate) struct TailHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl TailHandle {
    /// Signals the thread and waits for it to exit.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.join.join();
    }
}

/// Spawns (or replaces) the tail thread for `unit`, pulling from
/// `source`.
pub(crate) fn start_tail(inner: &Arc<NodeInner>, unit: &Arc<Unit>, source: SocketAddr) {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread_inner = Arc::clone(inner);
    let thread_unit = Arc::clone(unit);
    let join = std::thread::spawn(move || {
        run_tail(&thread_inner, &thread_unit, source, &thread_stop);
    });
    let old = unit.tail.lock().unwrap().replace(TailHandle { stop, join });
    if let Some(old) = old {
        old.stop();
    }
}

fn run_tail(inner: &Arc<NodeInner>, unit: &Arc<Unit>, source: SocketAddr, stop: &AtomicBool) {
    let poll = inner.cfg.poll_interval;
    let mut reconnect_pause = Duration::from_millis(1);
    while !stop.load(Ordering::Acquire) {
        let mut conn = match ClientConn::connect(source, None) {
            Ok(c) => c,
            Err(_) => {
                std::thread::sleep(reconnect_pause);
                reconnect_pause = (reconnect_pause * 2).min(Duration::from_millis(200));
                continue;
            }
        };
        reconnect_pause = Duration::from_millis(1);
        loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            match tail_round(inner, unit, &mut conn) {
                Ok(caught_up) => {
                    if caught_up {
                        std::thread::sleep(poll);
                    }
                }
                Err(Error::ReplicaGap {
                    partition,
                    expected,
                    got,
                }) => {
                    // The source no longer holds what we need; shipping
                    // cannot continue without diverging. Refuse loudly.
                    recorder::record(TraceKind::ReplicaGap, "tail stopped on gap", expected, got);
                    let _ = partition;
                    return;
                }
                Err(_) => break, // transport trouble: reconnect
            }
        }
    }
}

/// One catalog-poll + fetch sweep. Returns `Ok(true)` when the local
/// engine has caught up to everything the source currently serves.
fn tail_round(inner: &Arc<NodeInner>, unit: &Arc<Unit>, conn: &mut ClientConn) -> Result<bool> {
    let partition = unit.partition;
    let expect = unit.durable.load(Ordering::Acquire);
    inner.metrics.tail_rounds.incr();
    conn.send(&Frame::SegmentsReq {
        partition,
        from_seq: expect,
    })?;
    let segments = match conn.recv()? {
        Frame::SegmentsResp { segments, .. } => segments,
        other => {
            return Err(Error::Corrupt(format!(
                "expected SegmentsResp, got frame type {}",
                other.frame_type()
            )))
        }
    };
    if segments.is_empty() {
        return Ok(true);
    }
    // Last segment whose first seq is at or below what we need.
    let start = match segments.iter().rposition(|&(first, _)| first <= expect) {
        Some(i) => i,
        None => {
            // Everything the source holds starts above us: a hole.
            return Err(Error::ReplicaGap {
                partition,
                expected: expect,
                got: segments[0].0,
            });
        }
    };
    let mut decoder = ShipDecoder::new(partition, expect);
    let mut records: Vec<WalRecord> = Vec::new();
    for (i, &(first_seq, _)) in segments.iter().enumerate().skip(start) {
        if i > start {
            decoder.begin_segment()?;
        }
        let mut offset = 0u64;
        loop {
            conn.send(&Frame::SegmentFetch {
                partition,
                first_seq,
                offset,
                max_len: MAX_CHUNK_LEN as u32,
            })?;
            let bytes = match conn.recv()? {
                Frame::SegmentChunk { bytes, .. } => bytes,
                Frame::Error { detail, .. } => {
                    // Segment vanished between catalog and fetch
                    // (reclaimed); re-list next round.
                    return Err(Error::Io(format!("segment fetch refused: {detail}")));
                }
                other => {
                    return Err(Error::Corrupt(format!(
                        "expected SegmentChunk, got frame type {}",
                        other.frame_type()
                    )))
                }
            };
            if bytes.is_empty() {
                break;
            }
            offset += bytes.len() as u64;
            records.clear();
            decoder.feed(&bytes, &mut records)?;
            if !records.is_empty() {
                apply(unit, &records)?;
            }
        }
    }
    // Report lag against the source's durable watermark.
    conn.send(&Frame::StatusReq { partition })?;
    match conn.recv()? {
        Frame::StatusResp(st) => {
            let local = unit.durable.load(Ordering::Acquire);
            let lag = st.durable.saturating_sub(local);
            inner.metrics.lag_events.set(lag);
            Ok(lag == 0)
        }
        Frame::Error { .. } => Ok(true),
        other => Err(Error::Corrupt(format!(
            "expected StatusResp, got frame type {}",
            other.frame_type()
        ))),
    }
}

/// Applies shipped records through the local engine. The decoder emits
/// densely from the unit's durable watermark, and the one-partition log
/// assigns exactly those sequences on append — checked, because a
/// mismatch means the replica would silently diverge.
fn apply(unit: &Arc<Unit>, records: &[WalRecord]) -> Result<()> {
    let engine = unit.engine.lock().unwrap();
    let durable = unit.durable.load(Ordering::Acquire);
    if records[0].seq != durable {
        return Err(Error::Invariant(format!(
            "ship stream at seq {} but local engine expects {durable}",
            records[0].seq
        )));
    }
    let events: Vec<EdgeEvent> = records.iter().map(|r| r.event).collect();
    // A warm follower detects (keeping its engine state hot) but has no
    // subscribers; candidates are discarded, not delivered twice.
    let mut discard = Vec::new();
    engine.on_events_into(&events, &mut discard)?;
    unit.durable
        .store(durable + events.len() as u64, Ordering::Release);
    Ok(())
}

/// Returns the existing unit for `partition`, or bootstraps one by
/// shipping the source's settled state files and running crash
/// recovery over them.
pub(crate) fn get_or_bootstrap(
    inner: &Arc<NodeInner>,
    partition: u32,
    source: SocketAddr,
) -> Result<Arc<Unit>> {
    if let Some(unit) = inner.units.lock().unwrap().get(&partition) {
        return Ok(Arc::clone(unit));
    }
    let cfg = &inner.cfg;
    let dir = cfg.data_dir.join(format!("p{partition}"));
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
    let mut conn = ClientConn::connect(source, None)?;
    conn.send(&Frame::StateListReq { partition })?;
    let files = match conn.recv()? {
        Frame::StateListResp { files, .. } => files,
        Frame::Error { detail, .. } => {
            return Err(Error::Io(format!("state list refused: {detail}")))
        }
        other => {
            return Err(Error::Corrupt(format!(
                "expected StateListResp, got frame type {}",
                other.frame_type()
            )))
        }
    };
    for (name, _listed_len) in files {
        if !crate::node::safe_name(&name) {
            return Err(Error::Corrupt(format!(
                "source offered unsafe state name {name:?}"
            )));
        }
        fetch_state_file(inner, &mut conn, partition, &name, &dir)?;
    }
    drop(conn);
    let engine = cfg.open_engine(&dir)?;
    let hint = cfg.map.partition(partition).map(|p| p.leader).unwrap_or(0);
    let unit = Arc::new(Unit::new(partition, dir, engine, false, hint));
    inner
        .units
        .lock()
        .unwrap()
        .insert(partition, Arc::clone(&unit));
    Ok(unit)
}

/// Streams one state file to `dir/name` (via a `.tmp` rename so a
/// crashed bootstrap never leaves a plausible-but-partial file).
fn fetch_state_file(
    inner: &Arc<NodeInner>,
    conn: &mut ClientConn,
    partition: u32,
    name: &str,
    dir: &std::path::Path,
) -> Result<()> {
    use std::io::Write;
    let tmp_path = dir.join(format!("{name}.shiptmp"));
    let mut out = std::fs::File::create(&tmp_path).map_err(|e| Error::Io(e.to_string()))?;
    let mut offset = 0u64;
    loop {
        conn.send(&Frame::StateFetch {
            partition,
            name: name.to_string(),
            offset,
            max_len: MAX_CHUNK_LEN as u32,
        })?;
        let bytes = match conn.recv()? {
            Frame::StateChunk { bytes, .. } => bytes,
            Frame::Error { detail, .. } => {
                return Err(Error::Io(format!("state fetch refused: {detail}")))
            }
            other => {
                return Err(Error::Corrupt(format!(
                    "expected StateChunk, got frame type {}",
                    other.frame_type()
                )))
            }
        };
        if bytes.is_empty() {
            break;
        }
        out.write_all(&bytes)
            .map_err(|e| Error::Io(e.to_string()))?;
        offset += bytes.len() as u64;
    }
    out.sync_all().map_err(|e| Error::Io(e.to_string()))?;
    drop(out);
    std::fs::rename(&tmp_path, dir.join(name)).map_err(|e| Error::Io(e.to_string()))?;
    inner.metrics.bootstrap_files.incr();
    Ok(())
}
