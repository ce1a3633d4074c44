//! The traced run: the served job replayed single-threaded through each
//! layer's public functions, with a span around every call.
//!
//! The replay mirrors what a server worker (or a replica leader) does per
//! batch: `wire::decode` the `Ingest` frame, admission, WAL append and
//! fsync (replica), then `ConcurrentEngine::on_events_into`'s loop spelled
//! out over its parts — `ShardedTemporalStore::insert_batch` per
//! distinct-target run, `DiamondDetector::detect_into` per event with
//! `witnesses_into` as its fill callback, the periodic wheel `advance` —
//! and finally `wire::encode(Deliver)` plus the write to a loopback
//! socket. Spans are kept in memory (name, start, end, parent) and written
//! out when the run ends.
//!
//! The threshold kernel runs inside `detect_into`, where the benchmark
//! cannot put a span. After each batch's span closes, a probe re-runs
//! `threshold_intersect` on the same witnesses' `S` lists; its time is the
//! threshold row, and `detect_into`'s self-time minus it is witness
//! recovery. The probe lies outside the batch spans, so it adds nothing
//! to the traced end-to-end time.
//!
//! The same replay with only the batches timed is the untraced twin; the
//! difference of the two batch totals is the tracing overhead.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use magicrecs_core::threshold::{threshold_intersect, ThresholdAlgo};
use magicrecs_core::DiamondDetector;
use magicrecs_graph::FollowGraph;
use magicrecs_persist::{segment_catalog, FsyncPolicy, Wal, WalOptions};
use magicrecs_replica::WAL_PREFIX;
use magicrecs_server::admission::{AdmissionConfig, TokenBucket};
use magicrecs_server::wire::{self, Frame, MAX_DELIVER_CANDIDATES};
use magicrecs_temporal::{PruneStrategy, ShardedTemporalStore};
use magicrecs_types::{Candidate, DenseId, EdgeEvent, Error, Result, Timestamp, UserId};

use crate::verify::Digest;
use crate::workload::{detector, Workload};

/// Most measured events the traced run replays.
pub const TRACE_MAX_EVENTS: usize = 50_000;
/// Largest unattributed share of the traced end-to-end time the ledger
/// accepts.
pub const LEDGER_BOUND: f64 = 0.05;

/// `ConcurrentEngine`'s shard count, entry cap, distinct-target run cap
/// and wheel-advance cadence (all private to the engine).
const SHARDS: usize = 16;
const MAX_RUN: usize = 64;
const ADVANCE_EVERY: u64 = 1024;
/// The replica node's WAL segment size (`NodeConfig::new`).
const SEGMENT_BYTES: u64 = 64 << 10;

/// A traced layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole batch (the root span).
    Batch,
    /// `wire::decode` of the `Ingest` frame.
    Decode,
    /// `TokenBucket::try_take`.
    Admission,
    /// `Wal::append_batch`.
    WalAppend,
    /// `Wal::sync`.
    WalFsync,
    /// `ShardedTemporalStore::insert_batch`.
    DInsert,
    /// `ShardedTemporalStore::advance` (wheel expiry).
    DExpire,
    /// `ShardedTemporalStore::witnesses_into`.
    Gather,
    /// `DiamondDetector::detect_into`.
    Detect,
    /// Copy of a firing event's witnesses for the threshold probe.
    ProbeCopy,
    /// `threshold_intersect`, re-run after the batch (the probe).
    Threshold,
    /// `wire::encode` of a `Deliver` frame.
    Encode,
    /// Write of an encoded `Deliver` to a loopback socket.
    DeliverWrite,
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

/// Span sink; the untraced twin compiles every call away.
trait Tracer {
    const ON: bool;
    type Tok: Copy;
    fn root() -> Self::Tok;
    fn open(&mut self, layer: Layer, parent: Self::Tok) -> Self::Tok;
    fn close(&mut self, tok: Self::Tok);
}

struct Off;

impl Tracer for Off {
    const ON: bool = false;
    type Tok = ();
    fn root() {}
    #[inline(always)]
    fn open(&mut self, _: Layer, _: ()) {}
    #[inline(always)]
    fn close(&mut self, _: ()) {}
}

struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer for SpanLog {
    const ON: bool = true;
    type Tok = u32;
    fn root() -> u32 {
        NO_PARENT
    }
    #[inline(always)]
    fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }
    #[inline(always)]
    fn close(&mut self, tok: u32) {
        self.spans[tok as usize].end = self.epoch.elapsed().as_nanos() as u64;
    }
}

/// The job the traced run replays.
pub struct Job<'a> {
    /// Which workload's pipeline to mirror.
    pub workload: Workload,
    /// The static graph.
    pub graph: &'a FollowGraph,
    /// Pre-fill batches: applied to `D` only, untraced.
    pub prefill: Vec<&'a [EdgeEvent]>,
    /// Measured batches in the order the served run sent them, each with
    /// the reference digest of its candidates.
    pub batches: Vec<(&'a [EdgeEvent], Digest)>,
}

/// What one replay pass produced.
struct Pass {
    /// Each batch's wall time, ns (timed in both passes).
    batch_ns: Vec<u64>,
    spans: Vec<Span>,
    events: u64,
    firing: u64,
    candidates: u64,
    deliver_bytes: u64,
    wal_bytes: u64,
    resident_entries: u64,
    mismatched_batches: u64,
}

/// The per-layer ledger of a traced run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// `(row name, calls, self-time ns)`, in pipeline order; the last row
    /// is the unattributed remainder.
    pub rows: Vec<(&'static str, u64, f64)>,
    /// Traced end-to-end time: the batches' total, ns.
    pub e2e_ns: f64,
    /// Untraced twin's end-to-end time (its batches' total), ns.
    pub untraced_ns: f64,
    /// Median untraced batch time, ms: the job's single-threaded service
    /// time per batch.
    pub batch_p50_ms: f64,
    /// Batches, events, firing events and candidates replayed.
    pub batches: u64,
    /// Events replayed.
    pub events: u64,
    /// Events whose witnesses reached `k`.
    pub firing: u64,
    /// Candidates emitted.
    pub candidates: u64,
    /// Bytes of `Deliver` frames written.
    pub deliver_bytes: u64,
    /// WAL segment bytes written (replica workload).
    pub wal_bytes: u64,
    /// `resident_entries()` of `D` at the end.
    pub resident_entries: u64,
    /// Replayed batches whose candidates differ from the reference.
    pub mismatched_batches: u64,
    /// The spans, for writing out.
    pub spans: Vec<Span>,
}

impl Ledger {
    /// Self-time of the named row, ns (0 if absent).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.2)
    }

    /// The unattributed remainder as a share of the traced e2e time.
    pub fn unattributed_share(&self) -> f64 {
        self.self_ns("unattributed") / self.e2e_ns
    }

    /// Tracing overhead: traced minus untraced e2e, over untraced.
    pub fn overhead_share(&self) -> f64 {
        (self.e2e_ns - self.untraced_ns) / self.untraced_ns
    }
}

/// Runs the untraced twin and the traced replay, and builds the ledger.
///
/// The traced pass runs between two untraced ones and is compared with
/// their mean, so warm-up and drift do not land on one side.
pub fn run(job: &Job<'_>, scratch: &Path) -> Result<Ledger> {
    let wal = scratch.join("trace-wal");
    let before = replay(job, &mut Off, &wal)?;
    let mut log = SpanLog {
        epoch: Instant::now(),
        spans: Vec::with_capacity(job.batches.len() * 64),
    };
    let mut traced = replay(job, &mut log, &wal)?;
    traced.spans = log.spans;
    let after = replay(job, &mut Off, &wal)?;
    Ok(ledger(job, [before, after], traced))
}

fn io(e: std::io::Error) -> Error {
    Error::Io(format!("traced run: {e}"))
}

/// A loopback socket whose far end a sink thread drains.
fn loopback_sink() -> Result<(TcpStream, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let writer = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut reader, _) = listener.accept().map_err(io)?;
    let sink = std::thread::spawn(move || {
        let mut buf = vec![0u8; 1 << 16];
        while matches!(reader.read(&mut buf), Ok(n) if n > 0) {}
    });
    Ok((writer, sink))
}

/// The follower lists `detect_into` hands the threshold kernel for these
/// witnesses: recency cap, canonical order, interning — as the detector
/// does before its bottom half.
fn threshold_lists<'g>(
    graph: &'g FollowGraph,
    witnesses: &mut [(UserId, Timestamp)],
    cap: Option<usize>,
) -> Vec<&'g [DenseId]> {
    let mut ws: &mut [(UserId, Timestamp)] = witnesses;
    if let Some(cap) = cap {
        if ws.len() > cap {
            ws.sort_unstable_by_key(|&(b, at)| (std::cmp::Reverse(at), b));
            ws = &mut ws[..cap];
        }
    }
    ws.sort_unstable_by_key(|&(b, _)| b);
    ws.iter()
        .map(|&(b, _)| {
            graph
                .dense_of(b)
                .map_or(&[] as &[DenseId], |d| graph.followers_dense(d))
        })
        .collect()
}

fn replay<T: Tracer>(job: &Job<'_>, tr: &mut T, wal_dir: &Path) -> Result<Pass> {
    let config = detector();
    let graph = job.graph;
    let store = ShardedTemporalStore::new(config.tau, PruneStrategy::Wheel, SHARDS)
        .with_entry_cap(config.max_witnesses.map(|w| (w * 16).max(1024)));
    let mut det = DiamondDetector::new(config)?;
    let replicated = job.workload == Workload::ZipfReplicated;
    let _ = std::fs::remove_dir_all(wal_dir);
    let mut wal = if replicated {
        Some(Wal::create(
            wal_dir,
            WAL_PREFIX,
            WalOptions {
                fsync: FsyncPolicy::Never,
                segment_bytes: SEGMENT_BYTES,
            },
        )?)
    } else {
        None
    };
    let admission = AdmissionConfig::default();
    let mut bucket = TokenBucket::new(
        admission.source_rate,
        admission.source_burst,
        Instant::now(),
    );

    // Pre-fill `D` exactly as the engine would have left it.
    let mut clock = 0u64;
    let mut ticks = 0u64;
    for events in &job.prefill {
        for e in events.iter() {
            store.insert(e.src, e.dst, e.created_at);
            clock = clock.max(e.created_at.as_micros());
            ticks += 1;
            if ticks.is_multiple_of(ADVANCE_EVERY) {
                store.advance(Timestamp::from_micros(clock));
            }
        }
    }

    // Frames as the client put them on the wire (encoding is client work).
    let frames: Vec<Vec<u8>> = job
        .batches
        .iter()
        .enumerate()
        .map(|(i, (events, _))| {
            wire::encode(&Frame::Ingest {
                tag: i as u64,
                events: events.to_vec(),
            })
        })
        .collect();
    let (mut sock, sink) = loopback_sink()?;

    let mut pass = Pass {
        batch_ns: Vec::with_capacity(job.batches.len()),
        spans: Vec::new(),
        events: 0,
        firing: 0,
        candidates: 0,
        deliver_bytes: 0,
        wal_bytes: 0,
        resident_entries: 0,
        mismatched_batches: 0,
    };
    let mut out: Vec<Candidate> = Vec::new();
    let mut inserts: Vec<(UserId, UserId, Timestamp)> = Vec::with_capacity(MAX_RUN);
    let mut run_targets: Vec<UserId> = Vec::with_capacity(MAX_RUN);
    let mut probe: Vec<Vec<(UserId, Timestamp)>> = Vec::new();
    let mut matches: Vec<(DenseId, u32)> = Vec::new();

    for (tag, ((_, expected), frame)) in job.batches.iter().zip(&frames).enumerate() {
        let batch_start = Instant::now();
        let root = tr.open(Layer::Batch, T::root());

        let s = tr.open(Layer::Decode, root);
        let decoded = wire::decode(frame)?;
        tr.close(s);
        let Some((Frame::Ingest { events, .. }, _)) = decoded else {
            return Err(Error::Corrupt("traced run: frame did not decode".into()));
        };

        if !replicated {
            let s = tr.open(Layer::Admission, root);
            let admitted = bucket.try_take(events.len() as u64, Instant::now());
            tr.close(s);
            if admitted.is_err() {
                return Err(Error::Io("traced run: admission shed a batch".into()));
            }
        }
        if let Some(wal) = wal.as_mut() {
            let s = tr.open(Layer::WalAppend, root);
            wal.append_batch(&events)?;
            tr.close(s);
            let s = tr.open(Layer::WalFsync, root);
            wal.sync()?;
            tr.close(s);
        }

        let mut i = 0;
        while i < events.len() {
            // Segment up to the next wheel-advance boundary, as the engine.
            let until_adv = ADVANCE_EVERY - (ticks % ADVANCE_EVERY);
            let seg_end = (i + until_adv as usize).min(events.len());
            let mut r = i;
            while r < seg_end {
                run_targets.clear();
                inserts.clear();
                let mut run_end = r;
                while run_end < seg_end
                    && run_targets.len() < MAX_RUN
                    && !run_targets.contains(&events[run_end].dst)
                {
                    let e = events[run_end];
                    run_targets.push(e.dst);
                    inserts.push((e.src, e.dst, e.created_at));
                    run_end += 1;
                }
                let s = tr.open(Layer::DInsert, root);
                store.insert_batch(&inserts);
                tr.close(s);
                for e in &events[r..run_end] {
                    let d = tr.open(Layer::Detect, root);
                    let mut copy = None;
                    det.detect_into(
                        graph,
                        e.dst,
                        e.created_at,
                        |buf| {
                            let g = tr.open(Layer::Gather, d);
                            store.witnesses_into(e.dst, e.created_at, buf);
                            tr.close(g);
                            if buf.len() >= config.k {
                                pass.firing += 1;
                                if T::ON {
                                    let c = tr.open(Layer::ProbeCopy, d);
                                    copy = Some(buf.clone());
                                    tr.close(c);
                                }
                            }
                        },
                        &mut out,
                    );
                    tr.close(d);
                    if let Some(w) = copy {
                        probe.push(w);
                    }
                }
                r = run_end;
            }
            for e in &events[i..seg_end] {
                clock = clock.max(e.created_at.as_micros());
            }
            ticks += (seg_end - i) as u64;
            if ticks.is_multiple_of(ADVANCE_EVERY) {
                let s = tr.open(Layer::DExpire, root);
                store.advance(Timestamp::from_micros(clock));
                tr.close(s);
            }
            i = seg_end;
        }

        // Delivery: the server chunks at MAX_DELIVER_CANDIDATES, the replica
        // node sends one frame per batch.
        let chunk = if replicated {
            out.len().max(1)
        } else {
            MAX_DELIVER_CANDIDATES
        };
        for part in out.chunks(chunk) {
            let s = tr.open(Layer::Encode, root);
            let bytes = wire::encode(&Frame::Deliver {
                tag: tag as u64,
                candidates: part.to_vec(),
            });
            tr.close(s);
            let s = tr.open(Layer::DeliverWrite, root);
            sock.write_all(&bytes).map_err(io)?;
            tr.close(s);
            pass.deliver_bytes += bytes.len() as u64;
        }
        tr.close(root);
        let mut batch_ns = batch_start.elapsed().as_nanos() as u64;

        // Check the candidates against the reference, untimed, before they
        // are freed. Freeing them is encode-layer work (the server drops a
        // batch's candidates once its frames are encoded), so it is timed
        // as a second top-level span of the batch.
        let mut got = Digest::default();
        got.add_all(&out);
        if got != *expected {
            pass.mismatched_batches += 1;
        }
        pass.events += events.len() as u64;
        pass.candidates += out.len() as u64;
        let free_start = Instant::now();
        let s = tr.open(Layer::Encode, T::root());
        out.clear();
        tr.close(s);
        batch_ns += free_start.elapsed().as_nanos() as u64;
        pass.batch_ns.push(batch_ns);

        // The threshold probe, outside the batch span.
        if T::ON {
            for w in probe.iter_mut() {
                let lists = threshold_lists(graph, w, config.max_witnesses);
                matches.clear();
                let s = tr.open(Layer::Threshold, T::root());
                threshold_intersect(ThresholdAlgo::Adaptive, &lists, config.k, &mut matches);
                tr.close(s);
            }
            probe.clear();
        }
    }

    drop(sock);
    sink.join().expect("sink thread panicked");
    pass.resident_entries = store.resident_entries();
    if let Some(wal) = wal {
        wal.close()?;
        pass.wal_bytes = segment_catalog(wal_dir, WAL_PREFIX)?
            .iter()
            .map(|s| s.bytes)
            .sum();
        std::fs::remove_dir_all(wal_dir).map_err(io)?;
    }
    Ok(pass)
}

/// Folds the traced pass's spans into per-layer self-times.
fn ledger(job: &Job<'_>, untraced: [Pass; 2], traced: Pass) -> Ledger {
    let spans = traced.spans;
    // Self-time: each span's duration minus its children's durations.
    let mut self_ns: Vec<i64> = spans.iter().map(|s| (s.end - s.start) as i64).collect();
    for s in &spans {
        if s.parent != NO_PARENT {
            self_ns[s.parent as usize] -= (s.end - s.start) as i64;
        }
    }
    let total = |layer: Layer| -> (u64, f64) {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.layer == layer)
            .fold((0, 0.0), |(n, t), (_, &ns)| (n + 1, t + ns as f64))
    };
    // A batch's time: its root span plus the top-level span freeing its
    // candidates.
    let e2e_ns: f64 = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.layer != Layer::Threshold)
        .map(|s| (s.end - s.start) as f64)
        .sum();
    let untraced_ns = untraced
        .iter()
        .map(|p| p.batch_ns.iter().sum::<u64>() as f64)
        .sum::<f64>()
        / 2.0;
    let mut batch_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.batch_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    batch_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let batch_p50_ms = batch_ms.get(batch_ms.len() / 2).copied().unwrap_or(0.0);

    let (detect_calls, detect_self) = total(Layer::Detect);
    let (threshold_calls, threshold) = total(Layer::Threshold);
    let mut rows: Vec<(&'static str, u64, f64)> = Vec::new();
    for (name, layer) in [
        ("server.decode", Layer::Decode),
        ("server.admission", Layer::Admission),
        ("persist.wal_append", Layer::WalAppend),
        ("persist.wal_fsync", Layer::WalFsync),
        ("temporal.d_insert", Layer::DInsert),
        ("temporal.d_expire", Layer::DExpire),
        ("temporal.witness_gather", Layer::Gather),
    ] {
        let (n, t) = total(layer);
        rows.push((name, n, t));
    }
    rows.push(("core.threshold", threshold_calls, threshold));
    rows.push(("core.recovery", detect_calls, detect_self - threshold));
    for (name, layer) in [
        ("server.encode", Layer::Encode),
        ("server.deliver_write", Layer::DeliverWrite),
        ("trace.probe_copy", Layer::ProbeCopy),
    ] {
        let (n, t) = total(layer);
        rows.push((name, n, t));
    }
    let attributed: f64 = rows.iter().map(|r| r.2).sum();
    rows.push(("unattributed", 0, e2e_ns - attributed));

    Ledger {
        rows,
        e2e_ns,
        untraced_ns,
        batch_p50_ms,
        batches: job.batches.len() as u64,
        events: traced.events,
        firing: traced.firing,
        candidates: traced.candidates,
        deliver_bytes: traced.deliver_bytes,
        wal_bytes: traced.wal_bytes,
        resident_entries: traced.resident_entries,
        mismatched_batches: traced.mismatched_batches
            + untraced.iter().map(|p| p.mismatched_batches).sum::<u64>(),
        spans,
    }
}

/// Writes the spans as tab-separated `name parent start_ns end_ns` lines.
pub fn write_spans(ledger: &Ledger, path: &Path) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    writeln!(out, "index\tlayer\tparent\tstart_ns\tend_ns").map_err(io)?;
    for (i, s) in ledger.spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(out, "{i}\t{:?}\t{parent}\t{}\t{}", s.layer, s.start, s.end).map_err(io)?;
    }
    out.flush().map_err(io)
}
