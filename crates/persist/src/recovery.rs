//! Crash recovery: snapshot chain + `D` checkpoint + WAL tail replay.
//!
//! [`PersistentConcurrentEngine`] is the one durable engine: the
//! shared-state [`ConcurrentEngine`] behind per-partition WALs keyed by
//! the hash route. The durable serving path, the in-process cluster and
//! every replica unit run it; with `parts = 1` its log is a single dense
//! sequence (`wal-p0-…`), and recovery then refuses any hole below the
//! log's end exactly as a single sequential log would. Its lifecycle:
//!
//! 1. **create** — publish the base `S` snapshot, start empty WALs;
//! 2. **ingest** — every event is appended to the WAL *before* the engine
//!    applies it (write-ahead), checkpoints of `D` land when the owner
//!    asks ([`PersistentConcurrentEngine::checkpoint`], or a
//!    [`CheckpointDriver`] cadence), and
//!    [`advance`](PersistentConcurrentEngine::advance) reclaims WAL
//!    segments the window pruning + checkpoint have both passed;
//! 3. **open** (after a crash or restart) — reload base + delta chain,
//!    restore the newest `D` checkpoint **chain** (full + incremental
//!    deltas), replay each WAL partition's tail above its fence through
//!    the store with **notification emission suppressed** (replay mutates
//!    `D` only — no candidate is ever delivered twice), then hand off to
//!    live ingest at the exact sequence the log ends.
//!
//! ## The parity contract
//!
//! After a crash at *any* WAL record boundary, the recovered engine's
//! candidate stream for subsequent events is byte-identical to an
//! uninterrupted run's (enforced by the kill-point matrix test), provided
//! the stream's timestamp skew never reaches back past an expiry horizon
//! the engine has already advanced over — the same out-of-order trade the
//! engines themselves document for `advance`. Replay applies `D`
//! mutations without re-running detection: in-window witness sets depend
//! only on the per-target insert/remove sequence, which the WAL preserves
//! per target (per hash-route partition, and targets are route-sticky).
//!
//! ## The fence-vector consistency contract
//!
//! Checkpoints never require quiescing ingest. A checkpoint is assembled
//! one WAL partition at a time: partition `p` is briefly fenced (its
//! appends stall, every in-flight store apply drains, the log syncs),
//! its targets are exported at that instant, and the cut records
//! `fences[p]` — the first sequence the export does **not** reflect —
//! while every other partition keeps ingesting. The resulting file is
//! *not* a moment-in-time photograph of the whole store; it is a vector
//! of per-partition photographs taken at different sequences. That is
//! sufficient because targets are partition-sticky: restoring the
//! exported lists and then replaying each partition's WAL tail from its
//! own fence reproduces exactly the per-target insert/remove sequence
//! the live run applied, which is all `D` semantics depend on.
//!
//! ## Incremental checkpoint chain rules
//!
//! With a non-disabled [`RebasePolicy`], checkpoints after the first are
//! **deltas** (`.mgci`): only targets whose list changed since the
//! previous cut are written (complete current lists, or tombstones for
//! targets that aged out), chained to the previous checkpoint's id. The
//! chain rebases to a fresh full (`.mgck`) when it outgrows the policy's
//! length or byte-ratio bound. Reclamation authority belongs to the
//! *chain tip*, but only a **full** prunes files: every delta's
//! predecessors stay load-bearing until the next full supersedes the
//! whole chain, and WAL segments reclaim against the tip's fence vector
//! (partition `p`'s segments are disposable below `fences[p]`, wherever
//! the other partitions' fences sit).

use crate::checkpoint::{
    broadcast_fences, load_latest_chain, write_checkpoint_fenced_with, write_delta_checkpoint_with,
    CheckpointChain,
};
use crate::snapshot::{RebasePolicy, SnapshotStore};
use crate::vfs::{std_vfs, Vfs};
use crate::wal::{self, route_partition, FsyncPolicy, SharedWal, WalOptions};
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{CapStrategy, FollowGraph, GraphDelta};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Error, Result, Timestamp, UserId};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning for the persistence subsystem.
#[derive(Debug, Clone, Copy)]
pub struct PersistOptions {
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// WAL segment roll threshold, bytes.
    pub segment_bytes: u64,
    /// When `publish_graph_delta` folds the snapshot delta chain into a
    /// fresh base automatically (see [`RebasePolicy`]), **and** when the
    /// `D` checkpoint chain rebases an incremental run onto a fresh full
    /// checkpoint. [`RebasePolicy::DISABLED`] leaves snapshot compaction
    /// to the operator and makes every `D` checkpoint a full one
    /// (incremental dirty-tracking is then never enabled, so the
    /// steady-state ingest path carries zero tracking overhead).
    pub rebase: RebasePolicy,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            fsync: FsyncPolicy::EveryN(256),
            segment_bytes: 1 << 20,
            rebase: RebasePolicy::default(),
        }
    }
}

impl PersistOptions {
    fn wal(&self) -> WalOptions {
        WalOptions {
            fsync: self.fsync,
            segment_bytes: self.segment_bytes,
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Epoch of the reconstructed `S` snapshot (base + chain).
    pub snapshot_epoch: u64,
    /// Delta chain links folded onto the base.
    pub deltas_applied: usize,
    /// WAL sequence the restored checkpoint covered (`None`: no usable
    /// checkpoint, replay started from the log's beginning).
    pub checkpoint_seq: Option<u64>,
    /// WAL records replayed with emission suppressed.
    pub replayed: u64,
    /// Number of checkpoint entries re-inserted into `D`.
    pub checkpoint_entries: u64,
    /// First sequence live ingest will append.
    pub next_seq: u64,
    /// Whether the newest WAL segment ended in a torn record (the crash
    /// signature; the tear is repaired before live ingest resumes).
    pub torn_tail: bool,
}

/// How many replayed events accumulate before a batched store apply —
/// bounds the replay buffer while still amortizing shard locking.
const REPLAY_APPLY_CHUNK: usize = 4096;

/// In-memory view of the on-disk `D` checkpoint chain — what the next
/// checkpoint call needs to pick full vs delta and what `advance` needs
/// to reclaim WAL segments.
#[derive(Debug, Clone)]
struct ChainState {
    /// Id (= covered sequence) of the chain tip.
    tip_id: u64,
    /// The tip's per-partition fence vector (length = WAL partitions).
    fences: Vec<u64>,
    /// Deltas stacked on the newest full.
    chain_len: usize,
    /// Byte size of the newest full checkpoint.
    full_bytes: u64,
    /// Cumulative byte size of the deltas above it.
    delta_bytes: u64,
}

impl ChainState {
    fn from_chain(chain: &CheckpointChain) -> ChainState {
        ChainState {
            tip_id: chain.last_seq,
            fences: chain.fences.clone(),
            chain_len: chain.chain_len as usize,
            full_bytes: chain.full_bytes,
            delta_bytes: chain.delta_bytes,
        }
    }

    /// Whether the next checkpoint must rebase to a full — the same
    /// length/byte-ratio shape [`RebasePolicy`] applies to snapshot
    /// chains, here over checkpoint files.
    fn wants_full(&self, policy: RebasePolicy) -> bool {
        if policy.max_chain_len == 0 {
            return true; // incremental mode disabled entirely
        }
        if self.chain_len >= policy.max_chain_len {
            return true;
        }
        policy.max_delta_bytes_ratio > 0.0
            && self.chain_len > 0
            && self.delta_bytes as f64 >= policy.max_delta_bytes_ratio * self.full_bytes as f64
    }

    /// Exposes the chain's delta-to-full byte ratio (percent) on the
    /// registry — the very quantity [`ChainState::wants_full`] rebases
    /// on, so an operator watching the gauge sees the rebase coming.
    fn publish_dirty_ratio(&self) {
        let pct = self
            .delta_bytes
            .saturating_mul(100)
            .checked_div(self.full_bytes)
            .unwrap_or(0);
        crate::metrics::ckpt().dirty_ratio_pct.set(pct);
    }
}

/// Whether this policy wants per-target dirty tracking enabled in `D`
/// (the prerequisite for writing delta checkpoints).
fn incremental(policy: RebasePolicy) -> bool {
    policy.max_chain_len > 0
}

/// Restores the newest `D` checkpoint **chain** (full + linked deltas,
/// merged by [`load_latest_chain`]) through `apply_batch` in
/// [`REPLAY_APPLY_CHUNK`]-bounded batches (merged chain entries are all
/// insertions, so each chunk is one
/// [`magicrecs_temporal::EdgeStore::insert_batch`]-shaped apply without
/// ever materializing a second full copy of the checkpoint), returning
/// `(fences, chain_state, entries_restored)` — the per-partition WAL
/// replay bounds. `parts` is the WAL partition count the fence vector
/// must match (a stored single-fence vector broadcasts — v1 checkpoints
/// carry one fence).
fn restore_checkpoint(
    dir: &Path,
    parts: usize,
    mut apply_batch: impl FnMut(&[EdgeEvent]),
) -> Result<(Vec<u64>, Option<ChainState>, u64)> {
    Ok(match load_latest_chain(dir)? {
        Some(chain) => {
            let n = chain.entries.len() as u64;
            let mut buf: Vec<EdgeEvent> =
                Vec::with_capacity(REPLAY_APPLY_CHUNK.min(chain.entries.len()));
            for chunk in chain.entries.chunks(REPLAY_APPLY_CHUNK) {
                buf.clear();
                buf.extend(
                    chunk
                        .iter()
                        .map(|&(dst, src, at)| EdgeEvent::follow(src, dst, at)),
                );
                apply_batch(&buf);
            }
            let fences = broadcast_fences(&chain.fences, parts)?;
            let mut state = ChainState::from_chain(&chain);
            state.fences = fences.clone();
            (fences, Some(state), n)
        }
        None => (vec![0; parts], None, 0),
    })
}

/// Refuses to create a fresh engine over a directory that already holds
/// persistence state. A fully-reclaimed directory legitimately holds
/// *zero* WAL segments while its checkpoint still covers sequence `N`:
/// creating there would restart sequences at 0, new checkpoints at
/// `covered < N` would never displace the stale one (pruning only
/// deletes *older* files), and the next recovery would restore the
/// previous incarnation's `D` and silently filter out every new record.
/// Same hazard for a stale higher-epoch snapshot base shadowing the new
/// one. WAL segments are checked here too — before anything is
/// published — so create() never mutates a directory it is about to
/// refuse.
fn ensure_no_stale_state(dir: &Path, snapshots: &SnapshotStore) -> Result<()> {
    if !crate::checkpoint::list_checkpoints(dir)?.is_empty()
        || !crate::checkpoint::list_delta_checkpoints(dir)?.is_empty()
        || snapshots.has_artifacts()?
        || wal::any_segments(dir)?
    {
        return Err(Error::Invariant(format!(
            "{} already holds persistence state (WAL segments, checkpoints, or \
             snapshots) — a fresh engine created over it would be shadowed by the \
             stale files on the next recovery; recover with open() or start in an \
             empty directory",
            dir.display()
        )));
    }
    Ok(())
}

/// The shared-state engine with durability: [`ConcurrentEngine`] +
/// snapshot store + **per-partition** WALs keyed by the hash route (the
/// same `route_mix` the sharded store and worker pools use), so N workers
/// appending through `&self` contend only within their own route.
///
/// Checkpointing is **non-quiescent**: ingest keeps running while
/// [`PersistentConcurrentEngine::checkpoint`] cuts one WAL partition at a
/// time behind a short per-partition fence, recording a fence vector
/// instead of a single covered sequence (see the fence-vector contract in
/// the module docs). Recovery replays each partition's tail from its own
/// fence. A [`CheckpointDriver`] runs the cadence on a background thread;
/// the maintenance thread only needs [`advance`] and
/// [`publish_graph_delta`](PersistentConcurrentEngine::publish_graph_delta).
///
/// [`advance`]: PersistentConcurrentEngine::advance
pub struct PersistentConcurrentEngine {
    engine: ConcurrentEngine,
    wal: SharedWal,
    snapshots: SnapshotStore,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    rebase: RebasePolicy,
    state: Mutex<ConcurrentPersistState>,
    /// Checkpoint chain state, serialized separately from the snapshot
    /// epoch lock so a long fenced export never blocks delta publishes.
    ckpt: Mutex<Option<ChainState>>,
}

#[derive(Debug, Clone, Copy)]
struct ConcurrentPersistState {
    epoch: u64,
}

impl PersistentConcurrentEngine {
    /// Creates a fresh persistent shared engine with `parts` WAL
    /// partitions (typically the worker count).
    pub fn create(
        dir: &Path,
        graph: FollowGraph,
        epoch: u64,
        config: DetectorConfig,
        parts: usize,
        opts: PersistOptions,
    ) -> Result<Self> {
        Self::create_with_vfs(dir, graph, epoch, config, parts, opts, std_vfs())
    }

    /// [`PersistentConcurrentEngine::create`] on an explicit I/O backend
    /// shared by every partition WAL, checkpoint, and snapshot publish.
    pub fn create_with_vfs(
        dir: &Path,
        graph: FollowGraph,
        epoch: u64,
        config: DetectorConfig,
        parts: usize,
        opts: PersistOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let snapshots = SnapshotStore::with_vfs(dir, Arc::clone(&vfs))?;
        ensure_no_stale_state(dir, &snapshots)?;
        crate::fsutil::sweep_tmp_files(vfs.as_ref(), dir)?;
        snapshots.publish_base(epoch, &graph)?;
        let wal = SharedWal::create_with_vfs(dir, parts, opts.wal(), Arc::clone(&vfs))?;
        let engine = ConcurrentEngine::new(graph, config)?;
        if incremental(opts.rebase) {
            engine.store().enable_dirty_tracking();
        }
        Ok(PersistentConcurrentEngine {
            engine,
            wal,
            snapshots,
            vfs,
            dir: dir.to_path_buf(),
            rebase: opts.rebase,
            state: Mutex::new(ConcurrentPersistState { epoch }),
            ckpt: Mutex::new(None),
        })
    }

    /// Recovers from `dir`: snapshot chain, checkpoint, then all
    /// partitions' WAL tails replayed in merged sequence order with
    /// emission suppressed.
    pub fn open(
        dir: &Path,
        config: DetectorConfig,
        cap: CapStrategy,
        parts: usize,
        opts: PersistOptions,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_with_vfs(dir, config, cap, parts, opts, std_vfs())
    }

    /// [`PersistentConcurrentEngine::open`] on an explicit I/O backend.
    pub fn open_with_vfs(
        dir: &Path,
        config: DetectorConfig,
        cap: CapStrategy,
        parts: usize,
        opts: PersistOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(Self, RecoveryReport)> {
        let snapshots = SnapshotStore::with_vfs(dir, Arc::clone(&vfs))?;
        crate::fsutil::sweep_tmp_files(vfs.as_ref(), dir)?;
        let loaded = snapshots.load_latest(cap)?;
        let engine = ConcurrentEngine::new(loaded.graph, config)?;

        let (fences, mut chain, checkpoint_entries) =
            restore_checkpoint(dir, parts, |events| engine.apply_to_store_batch(events))?;
        let checkpoint_seq = chain.as_ref().map(|c| c.tip_id);
        // Tracking must be live *before* tail replay: replayed mutations
        // are exactly what the next delta checkpoint has to export.
        if incremental(opts.rebase) {
            engine.store().enable_dirty_tracking();
        }
        // The replay floor below is global (for the sequence counter);
        // per-partition filtering honors each partition's own fence.
        let min_seq = fences.iter().copied().max().unwrap_or(0);

        let mut replayed = 0u64;
        let mut replay_buf: Vec<EdgeEvent> = Vec::with_capacity(REPLAY_APPLY_CHUNK);
        let stats = SharedWal::replay_merged_fenced(dir, parts, &fences, |record| {
            replay_buf.push(record.event);
            replayed += 1;
            if replay_buf.len() >= REPLAY_APPLY_CHUNK {
                engine.apply_to_store_batch(&replay_buf);
                replay_buf.clear();
            }
        })?;
        engine.apply_to_store_batch(&replay_buf);
        // Floor at the checkpoint's coverage: a fully-reclaimed log must
        // not restart sequences below what the checkpoint claims — a
        // later recovery's fence filter would silently skip them.
        let wal =
            SharedWal::open_with_floor_vfs(dir, parts, opts.wal(), min_seq, Arc::clone(&vfs))?;
        // Seal the recovered state behind a fresh checkpoint before any
        // live append *when replay tolerated damage*. A tolerated hole
        // (a partition's unsynced tail lost in the crash, or a sequence
        // burned by a failed append) is benign now, but once ingest
        // grows that partition's log past it, the next recovery would
        // read it as an interior gap and refuse the whole directory;
        // covering everything assigned so far moves the fences past
        // every hole. Clean restarts skip the O(|D|) durable write: a
        // dense replayed range with no torn tail has nothing to seal
        // (holes above the newest surviving record need no seal either —
        // those sequences are simply reassigned to new events). The seal
        // is always a *full* checkpoint — it restarts the chain, with
        // each partition fenced at its own recovered tail.
        let dense_span = stats
            .last_seq
            .map_or(0, |last| (last + 1).saturating_sub(min_seq));
        let tolerated_damage = stats.torn_tail || replayed < dense_span;
        match wal.next_seq() {
            0 => {}
            next if !tolerated_damage || checkpoint_seq == Some(next - 1) => {}
            next => {
                let seal_fences = wal.partition_next_seqs();
                let mut entries = Vec::new();
                engine.store().export_entries(&mut entries);
                let (_, bytes) = write_checkpoint_fenced_with(
                    dir,
                    entries,
                    next - 1,
                    &seal_fences,
                    vfs.as_ref(),
                )?;
                // Everything the seal exported is clean now; replay's
                // dirty marks would only re-export it in the next delta.
                engine.store().clear_dirty_where(|_| true);
                chain = Some(ChainState {
                    tip_id: next - 1,
                    fences: seal_fences,
                    chain_len: 0,
                    full_bytes: bytes,
                    delta_bytes: 0,
                });
            }
        }
        let report = RecoveryReport {
            snapshot_epoch: loaded.epoch,
            deltas_applied: loaded.deltas_applied,
            checkpoint_seq,
            replayed,
            checkpoint_entries,
            next_seq: wal.next_seq(),
            torn_tail: stats.torn_tail,
        };
        Ok((
            PersistentConcurrentEngine {
                engine,
                wal,
                snapshots,
                vfs,
                dir: dir.to_path_buf(),
                rebase: opts.rebase,
                state: Mutex::new(ConcurrentPersistState {
                    epoch: loaded.epoch,
                }),
                ckpt: Mutex::new(chain),
            },
            report,
        ))
    }

    /// Processes one event durably through `&self` (callable from any
    /// number of worker threads): WAL append to the target's route
    /// partition first, then detection. Returns candidates appended.
    ///
    /// **Per-target submission must be single-threaded** — the same
    /// precondition the parity contract states (see the module docs):
    /// the WAL sequence is assigned under the partition lock, but the
    /// store apply happens after it is released, so two threads racing
    /// events *for the same target* could log one order and apply the
    /// other, and a post-crash replay would then rebuild a different
    /// `D` than the live run held. A route-sticky transport (the
    /// cluster's hash routing, where each target's events land on one
    /// worker) provides this by construction; events for *different*
    /// targets may race freely.
    pub fn on_event_into(&self, event: EdgeEvent, out: &mut Vec<Candidate>) -> Result<usize> {
        // The ticket keeps the event's partition fence from cutting
        // between the WAL append and the store apply — a cut in that
        // window would claim coverage of a sequence whose mutation the
        // export can't yet see.
        let (_, ticket) = self.wal.append_tracked(event)?;
        let emitted = self.engine.on_event_into(event, out);
        drop(ticket);
        Ok(emitted)
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn on_event(&self, event: EdgeEvent) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        self.on_event_into(event, &mut out)?;
        Ok(out)
    }

    /// Processes a micro-batch durably through `&self`: the whole batch
    /// is **written ahead with one group commit**
    /// ([`SharedWal::append_batch`] — each touched partition lock taken
    /// once, one `write(2)` and a dense global-sequence run per
    /// partition) before any detection runs, then the engine detects the
    /// slice against one pinned `S` snapshot
    /// ([`ConcurrentEngine::on_events_into`]).
    ///
    /// Same precondition as [`PersistentConcurrentEngine::on_event_into`]:
    /// per-target submission must be single-threaded (a route-sticky
    /// transport gives this by construction — and batches drained from
    /// one route's queue trivially preserve it).
    pub fn on_events_into(&self, events: &[EdgeEvent], out: &mut Vec<Candidate>) -> Result<usize> {
        // Same fence-gating as the single-event path: the ticket covers
        // every partition the batch touched until the store apply lands.
        let (_, ticket) = self.wal.append_batch_tracked(events)?;
        let emitted = self.engine.on_events_into(events, out);
        drop(ticket);
        Ok(emitted)
    }

    /// [`PersistentConcurrentEngine::on_events_into`] collecting into a
    /// fresh vector.
    pub fn on_events(&self, events: &[EdgeEvent]) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        self.on_events_into(events, &mut out)?;
        Ok(out)
    }

    /// Writes a `D` checkpoint **without quiescing ingest**. Partitions
    /// are cut one at a time: partition `p`'s appends stall behind its
    /// lock while in-flight store applies drain and `p`-routed targets
    /// are exported at `p`'s fence — every other partition keeps
    /// ingesting throughout. The file records the resulting fence vector
    /// (see the module docs' fence-vector contract). With a non-disabled
    /// [`RebasePolicy`] the cut is **incremental** where the chain
    /// allows: only targets dirtied since the previous cut are written,
    /// rebasing to a fresh full per the policy.
    ///
    /// Concurrent `checkpoint` calls serialize on the chain lock.
    pub fn checkpoint(&self) -> Result<()> {
        self.checkpoint_with_fence_observer(|_, _| {})
    }

    /// [`PersistentConcurrentEngine::checkpoint`] with a hook invoked
    /// right after each partition's fence is released (`(partition,
    /// fence)`), while later partitions are still uncut. The
    /// crash-recovery matrix uses it to ingest *between* shard fences and
    /// to kill mid-checkpoint; production code wants plain `checkpoint`.
    pub fn checkpoint_with_fence_observer(
        &self,
        mut observe: impl FnMut(usize, u64),
    ) -> Result<()> {
        let mut chain = self.ckpt.lock();
        let parts = self.wal.partitions();
        let store = self.engine.store();
        if let Some(c) = &*chain {
            if self.wal.next_seq() == c.tip_id + 1 {
                return Ok(()); // tip already covers every assigned sequence
            }
        }
        let full = chain.as_ref().is_none_or(|c| c.wants_full(self.rebase));
        let tracking = incremental(self.rebase);
        let mut fences = vec![0u64; parts];
        let mut entries: Vec<(UserId, UserId, Timestamp)> = Vec::new();
        let mut tombstones: Vec<UserId> = Vec::new();
        // Undo log: dirty marks consumed by the cut, re-marked if the
        // file write fails so the next delta still covers those targets.
        let mut drained: Vec<UserId> = Vec::new();
        for (p, slot) in fences.iter_mut().enumerate() {
            let cut = self.wal.with_partition_fenced(p, |fence| {
                *slot = fence;
                let pred = move |t: UserId| route_partition(&t, parts) == p;
                if full {
                    store.export_entries_where(pred, &mut entries);
                    if tracking {
                        drained.extend(store.clear_dirty_where(pred));
                    }
                } else {
                    store.drain_dirty_exports(pred, &mut entries, &mut tombstones, &mut drained);
                }
                Ok(())
            });
            if let Err(e) = cut {
                store.mark_dirty_many(drained);
                return Err(e);
            }
            // Outside the fence: an observer that ingests to `p` must
            // not deadlock against `p`'s own lock.
            observe(p, *slot);
        }
        // The youngest fence names the cut; fence 0 partitions have no
        // assigned sequences at all.
        let id = match fences.iter().copied().max().unwrap_or(0) {
            0 => {
                store.mark_dirty_many(drained);
                return Ok(()); // nothing ever assigned, nothing to cover
            }
            max => max - 1,
        };
        if chain.as_ref().is_some_and(|c| id <= c.tip_id) {
            // Raced with a concurrent tip to the same cut; deterministic
            // re-exports make the returned marks redundant, not lost.
            store.mark_dirty_many(drained);
            return Ok(());
        }
        if full {
            match write_checkpoint_fenced_with(&self.dir, entries, id, &fences, self.vfs.as_ref()) {
                Ok((_, bytes)) => {
                    *chain = Some(ChainState {
                        tip_id: id,
                        fences,
                        chain_len: 0,
                        full_bytes: bytes,
                        delta_bytes: 0,
                    });
                    Ok(())
                }
                Err(e) => {
                    store.mark_dirty_many(drained);
                    Err(e)
                }
            }
        } else {
            let base_id = chain.as_ref().expect("delta requires a chain").tip_id;
            match write_delta_checkpoint_with(
                &self.dir,
                entries,
                tombstones,
                id,
                base_id,
                &fences,
                self.vfs.as_ref(),
            ) {
                Ok((_, bytes)) => {
                    let c = chain.as_mut().expect("delta requires a chain");
                    c.tip_id = id;
                    c.fences = fences;
                    c.chain_len += 1;
                    c.delta_bytes += bytes;
                    c.publish_dirty_ratio();
                    Ok(())
                }
                Err(e) => {
                    store.mark_dirty_many(drained);
                    Err(e)
                }
            }
        }
    }

    /// Id (covered sequence) of the checkpoint chain tip, if any.
    pub fn checkpoint_tip(&self) -> Option<u64> {
        self.ckpt.lock().as_ref().map(|c| c.tip_id)
    }

    /// Advances window expiry and reclaims WAL segments on every
    /// partition — partition `p` reclaims below the chain tip's
    /// `fences[p]`, so a fence cut early in a checkpoint never holds
    /// other partitions' segments hostage.
    pub fn advance(&self, now: Timestamp) -> Result<usize> {
        self.engine.advance(now);
        let fences = self.ckpt.lock().as_ref().map(|c| c.fences.clone());
        match fences {
            Some(fences) => {
                let cutoff = now.saturating_sub(self.engine.store().window());
                self.wal.reclaim_before_fenced(cutoff, &fences)
            }
            None => Ok(0),
        }
    }

    /// Applies and durably publishes a snapshot delta: the delta file
    /// joins the chain on disk, then the in-memory `S` refreshes via
    /// [`ConcurrentEngine::swap_graph_delta`]. The delta must extend the
    /// current epoch; publication is serialized on the internal state
    /// lock.
    ///
    /// When the chain outgrows the configured [`RebasePolicy`], the
    /// current graph is republished as a fresh base at the new epoch and
    /// the superseded files are compacted — recovery cost stays bounded
    /// by the policy, and orphaned (delta-removed) vertices leave the
    /// on-disk interner with the rebase.
    pub fn publish_graph_delta(&self, delta: &GraphDelta) -> Result<()> {
        let mut state = self.state.lock();
        if delta.base_epoch != state.epoch {
            return Err(Error::Invariant(format!(
                "delta base epoch {} does not extend current epoch {}",
                delta.base_epoch, state.epoch
            )));
        }
        self.snapshots.publish_delta(delta)?;
        self.engine.swap_graph_delta(delta)?;
        state.epoch = delta.target_epoch;
        if self.snapshots.should_rebase(self.rebase)? {
            self.snapshots
                .publish_base(state.epoch, &self.engine.graph())?;
            self.snapshots.compact()?;
        }
        Ok(())
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// The next global WAL sequence.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Syncs all WAL partitions (also useful before a planned shutdown).
    pub fn sync(&self) -> Result<()> {
        self.wal.sync_all()
    }
}

/// Background checkpoint cadence for [`PersistentConcurrentEngine`]:
/// polls the engine's sequence and takes a (non-quiescent) checkpoint
/// whenever at least `every` events have been assigned past the chain
/// tip — kept off the ingest path entirely so workers never pay for a
/// cut they didn't cause.
///
/// Failures are counted, not fatal: a failed cut leaves the previous
/// chain tip (and the store's dirty marks) intact, and the next poll
/// retries.
pub struct CheckpointDriver {
    stop: Arc<AtomicBool>,
    completed: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CheckpointDriver {
    /// Spawns the driver thread. `every` is the event cadence (> 0);
    /// `poll` bounds how stale the cadence check may run.
    pub fn spawn(
        engine: Arc<PersistentConcurrentEngine>,
        every: u64,
        poll: std::time::Duration,
    ) -> CheckpointDriver {
        assert!(every > 0, "checkpoint cadence must be positive");
        let stop = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, completed, failures) = (
                Arc::clone(&stop),
                Arc::clone(&completed),
                Arc::clone(&failures),
            );
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let assigned_past_tip = match engine.checkpoint_tip() {
                        Some(tip) => engine.next_seq().saturating_sub(tip + 1),
                        None => engine.next_seq(),
                    };
                    if assigned_past_tip >= every {
                        match engine.checkpoint() {
                            Ok(()) => completed.fetch_add(1, Ordering::Relaxed),
                            Err(_) => failures.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    std::thread::park_timeout(poll);
                }
            })
        };
        CheckpointDriver {
            stop,
            completed,
            failures,
            handle: Some(handle),
        }
    }

    /// Checkpoints the driver has completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Checkpoint attempts that returned an error.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Signals the thread and joins it, returning `(completed,
    /// failures)`.
    pub fn stop(mut self) -> (u64, u64) {
        self.shutdown();
        (self.completed(), self.failures())
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for CheckpointDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use magicrecs_core::Engine;
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

    fn opts() -> PersistOptions {
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 4096,
            rebase: RebasePolicy::DISABLED,
        }
    }

    /// A one-partition engine: the dense single-log layout.
    fn create1(
        dir: &Path,
        graph: FollowGraph,
        epoch: u64,
        o: PersistOptions,
    ) -> PersistentConcurrentEngine {
        PersistentConcurrentEngine::create(dir, graph, epoch, DetectorConfig::example(), 1, o)
            .unwrap()
    }

    /// Recovers a one-partition engine.
    fn open1(dir: &Path, o: PersistOptions) -> (PersistentConcurrentEngine, RecoveryReport) {
        PersistentConcurrentEngine::open(dir, DetectorConfig::example(), CapStrategy::None, 1, o)
            .unwrap()
    }

    /// On-disk segment count of a one-partition log.
    fn wal_segments(dir: &Path) -> usize {
        wal::list_segments(dir, wal::SINGLE_LOG_PREFIX)
            .unwrap()
            .len()
    }

    /// Feeds `events` one at a time, checkpointing after every `every`
    /// events (0: never) — the cadence a [`CheckpointDriver`] or a
    /// replica's `CheckpointReq` supplies. Returns each event's
    /// candidates.
    fn feed(
        pe: &PersistentConcurrentEngine,
        events: &[EdgeEvent],
        every: usize,
    ) -> Vec<Vec<Candidate>> {
        let mut out = Vec::with_capacity(events.len());
        for (i, &e) in events.iter().enumerate() {
            out.push(pe.on_event(e).unwrap());
            if every > 0 && (i + 1) % every == 0 {
                pe.checkpoint().unwrap();
            }
        }
        out
    }

    /// A deterministic motif-heavy trace with monotone timestamps.
    fn trace(n: u64) -> Vec<EdgeEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let b = u(11 + i % 3); // 13 is unknown to S
            let c = u(900 + i % 5);
            events.push(EdgeEvent::follow(b, c, ts(10 + i)));
            if i % 23 == 0 {
                events.push(EdgeEvent::unfollow(u(11), c, ts(10 + i)));
            }
        }
        events
    }

    #[test]
    fn create_run_reopen_continues_sequence() {
        let t = TempDir::new("pe");
        let pe = create1(t.path(), small_graph(), 0, opts());
        let events = trace(200);
        feed(&pe, &events, 64);
        let n = pe.next_seq();
        drop(pe);

        let (reopened, report) = open1(t.path(), opts());
        assert_eq!(report.next_seq, n);
        assert_eq!(report.snapshot_epoch, 0);
        assert!(report.checkpoint_seq.is_some(), "checkpoints ran");
        assert!(!report.torn_tail);
        // The recovered engine continues with the same candidates an
        // uninterrupted engine produces.
        let mut reference = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &events {
            reference.on_event(e);
        }
        let next = EdgeEvent::follow(u(12), u(900), ts(100_000 / 60));
        assert_eq!(
            reopened.on_event(next).unwrap(),
            reference.on_event(next),
            "post-recovery candidates diverge"
        );
    }

    #[test]
    fn replay_suppresses_emission() {
        let t = TempDir::new("pe");
        let pe = create1(t.path(), small_graph(), 0, opts());
        // No checkpoint: the whole log replays.
        let fired: usize = feed(&pe, &trace(150), 0).iter().map(Vec::len).sum();
        assert!(fired > 0, "fixture must fire candidates");
        drop(pe);
        let (reopened, report) = open1(t.path(), opts());
        assert!(report.replayed > 0);
        // Replay mutated D only: engine-level candidate stats untouched.
        assert_eq!(reopened.engine().stats().candidates, 0);
        assert_eq!(reopened.engine().stats().events, 0);
        assert!(reopened.engine().store().resident_entries() > 0);
    }

    #[test]
    fn checkpoint_bounds_replay_and_enables_reclaim() {
        let t = TempDir::new("pe");
        let o = PersistOptions {
            segment_bytes: 512,
            ..opts()
        };
        let pe = create1(t.path(), small_graph(), 0, o);
        feed(&pe, &trace(500), 50);
        let segments_before = wal_segments(t.path());
        // Far future: everything is outside the window and checkpointed.
        let removed = pe.advance(ts(10_000_000)).unwrap();
        assert!(removed > 0, "reclaim should delete covered segments");
        assert!(wal_segments(t.path()) < segments_before);
        drop(pe);

        let (_, report) = open1(t.path(), opts());
        // Replay is bounded by the checkpoint, not the whole history.
        assert!(report.replayed < 500, "replayed {}", report.replayed);
    }

    #[test]
    fn create_refuses_stale_persistence_state() {
        // A reclaimed-empty WAL directory still holds a checkpoint: a
        // fresh engine created there would restart sequences at 0 and
        // the stale checkpoint would shadow its state on recovery.
        let create = |dir: &Path, parts: usize| {
            PersistentConcurrentEngine::create(
                dir,
                small_graph(),
                0,
                DetectorConfig::example(),
                parts,
                opts(),
            )
        };
        let t = TempDir::new("pe");
        crate::checkpoint::write_checkpoint(t.path(), vec![(u(1), u(2), ts(3))], 100).unwrap();
        assert!(create(t.path(), 1).is_err());
        assert!(create(t.path(), 2).is_err());

        // Same for a leftover snapshot base (a stale higher epoch would
        // win the newest-base scan over the freshly published one).
        let t = TempDir::new("pe");
        SnapshotStore::new(t.path())
            .unwrap()
            .publish_base(5, &small_graph())
            .unwrap();
        assert!(create(t.path(), 1).is_err());

        // And for leftover WAL segments alone: create must refuse
        // *before* publishing anything (a base published first would
        // make open() merge the old WAL into a fresh graph).
        let t = TempDir::new("pe");
        {
            let shared = crate::wal::SharedWal::create(t.path(), 2, opts().wal()).unwrap();
            shared.append(EdgeEvent::follow(u(1), u(2), ts(3))).unwrap();
        }
        assert!(create(t.path(), 1).is_err());
        let published: Vec<_> = std::fs::read_dir(t.path())
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                (!name.ends_with(".wal")).then_some(name)
            })
            .collect();
        assert!(
            published.is_empty(),
            "refusal must not publish: {published:?}"
        );
    }

    #[test]
    fn sequence_survives_full_wal_reclamation() {
        let t = TempDir::new("pe");
        let o = PersistOptions {
            segment_bytes: 512,
            ..opts()
        };
        let pe = create1(t.path(), small_graph(), 0, o);
        feed(&pe, &trace(200), 50);
        pe.checkpoint().unwrap();
        let n = pe.next_seq();
        drop(pe);

        // Idle period, then advance: the checkpoint covers every record
        // and the window has passed, so reclamation empties the log.
        let (pe, _) = open1(t.path(), o);
        pe.advance(ts(10_000_000)).unwrap();
        assert_eq!(wal_segments(t.path()), 0, "fully reclaimed");
        assert_eq!(pe.next_seq(), n);
        drop(pe);

        // Zero segment files on disk: the checkpoint floor must keep the
        // sequence from restarting at 0 below what the checkpoint covers.
        let (pe, report) = open1(t.path(), o);
        assert_eq!(report.next_seq, n, "sequence regressed below checkpoint");
        let extra: Vec<EdgeEvent> = (0..40)
            .map(|i| EdgeEvent::follow(u(11 + i % 2), u(700 + i % 7), ts(10_000_100 + i)))
            .collect();
        feed(&pe, &extra, 0);
        drop(pe);

        // Post-reclaim ingest landed above the checkpoint, so the next
        // recovery replays all of it (a regressed sequence would have
        // filtered every record out as "already covered").
        let (_, report) = open1(t.path(), o);
        assert_eq!(report.replayed, extra.len() as u64);
        assert_eq!(report.next_seq, n + extra.len() as u64);
    }

    #[test]
    fn graph_delta_publishes_and_survives_recovery() {
        let t = TempDir::new("pe");
        let g0 = {
            let mut b = GraphBuilder::new();
            b.add_edge(u(1), u(11));
            b.build()
        };
        let pe = create1(t.path(), g0.clone(), 7, opts());
        let delta = GraphDelta::between(&g0, &small_graph(), 7, 8).unwrap();
        pe.on_event(EdgeEvent::follow(u(11), u(99), ts(10)))
            .unwrap();
        pe.publish_graph_delta(&delta).unwrap();
        assert_eq!(pe.epoch(), 8);
        // Stale delta refused.
        assert!(pe.publish_graph_delta(&delta).is_err());
        let r = pe
            .on_event(EdgeEvent::follow(u(12), u(99), ts(11)))
            .unwrap();
        assert_eq!(r.len(), 2, "refreshed S enables the motif");
        drop(pe);

        let (reopened, report) = open1(t.path(), opts());
        assert_eq!(report.snapshot_epoch, 8);
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(
            reopened.engine().graph().num_follow_edges(),
            small_graph().num_follow_edges()
        );
    }

    /// Edge list of a graph, as raw id pairs.
    fn edges_of(g: &FollowGraph) -> Vec<(u64, u64)> {
        g.iter_forward()
            .flat_map(|(a, ts)| {
                ts.into_iter()
                    .map(move |b| (a.raw(), b.raw()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn build(edges: &[(u64, u64)]) -> FollowGraph {
        let mut b = GraphBuilder::new();
        b.extend(edges.iter().map(|&(a, bb)| (u(a), u(bb))));
        b.build()
    }

    #[test]
    fn long_delta_chain_triggers_rebase_and_drops_orphans() {
        let t = TempDir::new("pe");
        let o = PersistOptions {
            rebase: RebasePolicy {
                max_chain_len: 3,
                max_delta_bytes_ratio: 0.0,
            },
            ..opts()
        };
        // Vertex 9 → 99 exists only in the base; the first delta removes
        // it, orphaning both endpoints in the interner until a rebase.
        let g0 = build(&[(1, 11), (1, 12), (9, 99)]);
        let pe = create1(t.path(), g0.clone(), 0, o);
        let mut current = g0;
        for epoch in 0..3u64 {
            let mut edges = edges_of(&current);
            if epoch == 0 {
                edges.retain(|&(a, _)| a != 9);
            }
            edges.push((10 + epoch, 500 + epoch));
            let next = build(&edges);
            let delta = GraphDelta::between(&current, &next, epoch, epoch + 1).unwrap();
            pe.publish_graph_delta(&delta).unwrap();
            current = next;
        }
        assert_eq!(pe.epoch(), 3);
        // In memory the orphan stays interned (dense ids must not move
        // mid-flight) …
        assert!(pe.engine().graph().dense_of(u(9)).is_some());

        // … but the third publish crossed the chain-length threshold, so
        // the chain was folded into a fresh base and compacted: exactly
        // one base, no deltas, and the orphan is gone from the on-disk
        // interner.
        let store = SnapshotStore::new(t.path()).unwrap();
        assert!(!store
            .should_rebase(RebasePolicy {
                max_chain_len: 1,
                max_delta_bytes_ratio: 0.0,
            })
            .unwrap());
        let loaded = store.load_latest(CapStrategy::None).unwrap();
        assert_eq!(loaded.epoch, 3);
        assert_eq!(loaded.deltas_applied, 0, "chain must be folded away");
        assert!(loaded.graph.dense_of(u(9)).is_none(), "orphan interned");
        assert!(loaded.graph.dense_of(u(99)).is_none(), "orphan interned");
        assert_eq!(loaded.graph.num_follow_edges(), current.num_follow_edges());
        drop(pe);

        // Recovery picks up the rebased base and continues.
        let (reopened, report) = open1(t.path(), o);
        assert_eq!(report.snapshot_epoch, 3);
        assert_eq!(report.deltas_applied, 0);
        assert!(reopened.engine().graph().dense_of(u(9)).is_none());
    }

    #[test]
    fn on_events_batch_is_one_durability_unit_with_candidate_parity() {
        let t_single = TempDir::new("pe-s");
        let t_batch = TempDir::new("pe-b");
        let o = PersistOptions {
            segment_bytes: 2048, // batches straddle segment rolls
            ..opts()
        };
        // And checkpoint cadence boundaries: a batch that crosses one
        // checkpoints at its end.
        const EVERY: usize = 70;
        let events = trace(400);
        let single = create1(t_single.path(), small_graph(), 0, o);
        let batched = create1(t_batch.path(), small_graph(), 0, o);
        let want: Vec<Candidate> = feed(&single, &events, EVERY).concat();
        let mut got = Vec::new();
        let mut since = 0;
        for chunk in events.chunks(33) {
            batched.on_events_into(chunk, &mut got).unwrap();
            since += chunk.len();
            if since >= EVERY {
                batched.checkpoint().unwrap();
                since = 0;
            }
        }
        assert_eq!(got, want, "batched candidate stream diverges");
        assert_eq!(single.next_seq(), batched.next_seq());
        drop(single);
        drop(batched);

        // Both logs recover to identical continuations.
        let (rs, rep_s) = open1(t_single.path(), o);
        let (rb, rep_b) = open1(t_batch.path(), o);
        assert_eq!(rep_s.next_seq, rep_b.next_seq);
        let next = EdgeEvent::follow(u(12), u(900), ts(2_000));
        assert_eq!(rs.on_event(next).unwrap(), rb.on_event(next).unwrap());
    }

    #[test]
    fn concurrent_on_events_matches_single_and_recovers() {
        let o = opts();
        let events = trace(300);
        let t_single = TempDir::new("pce-s");
        let t_batch = TempDir::new("pce-b");
        let single = PersistentConcurrentEngine::create(
            t_single.path(),
            small_graph(),
            0,
            DetectorConfig::example(),
            4,
            o,
        )
        .unwrap();
        let batched = PersistentConcurrentEngine::create(
            t_batch.path(),
            small_graph(),
            0,
            DetectorConfig::example(),
            4,
            o,
        )
        .unwrap();
        let mut want = Vec::new();
        for &e in &events {
            single.on_event_into(e, &mut want).unwrap();
        }
        let mut got = Vec::new();
        for chunk in events.chunks(29) {
            batched.on_events_into(chunk, &mut got).unwrap();
        }
        assert_eq!(got, want);
        assert_eq!(single.next_seq(), batched.next_seq());
        single.sync().unwrap();
        batched.sync().unwrap();
        drop(single);
        drop(batched);

        // The batched log replays to the same store state.
        let (rs, rep_s) = PersistentConcurrentEngine::open(
            t_single.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            4,
            o,
        )
        .unwrap();
        let (rb, rep_b) = PersistentConcurrentEngine::open(
            t_batch.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            4,
            o,
        )
        .unwrap();
        assert_eq!(rep_s.replayed, rep_b.replayed);
        assert_eq!(
            rs.engine().store().resident_entries(),
            rb.engine().store().resident_entries()
        );
        let next = EdgeEvent::follow(u(12), u(901), ts(2_000));
        assert_eq!(rs.on_event(next).unwrap(), rb.on_event(next).unwrap());
    }

    #[test]
    fn concurrent_engine_round_trip() {
        let t = TempDir::new("pce");
        let pe = PersistentConcurrentEngine::create(
            t.path(),
            small_graph(),
            0,
            DetectorConfig::example(),
            4,
            opts(),
        )
        .unwrap();
        let events = trace(300);
        let mut fired = 0usize;
        for &e in &events {
            fired += pe.on_event(e).unwrap().len();
        }
        assert!(fired > 0);
        pe.checkpoint().unwrap();
        let n = pe.next_seq();
        drop(pe);

        let (recovered, report) = PersistentConcurrentEngine::open(
            t.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            4,
            opts(),
        )
        .unwrap();
        assert_eq!(report.next_seq, n);
        assert_eq!(report.replayed, 0, "checkpoint covered everything");
        assert!(report.checkpoint_entries > 0);

        // Continues identically to an uninterrupted concurrent engine.
        let reference = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &events {
            reference.on_event(e);
        }
        let next = EdgeEvent::follow(u(12), u(901), ts(5_000));
        assert_eq!(recovered.on_event(next).unwrap(), reference.on_event(next));
    }

    #[test]
    fn concurrent_ingest_from_many_threads_then_recover() {
        let t = TempDir::new("pce");
        let pe = std::sync::Arc::new(
            PersistentConcurrentEngine::create(
                t.path(),
                small_graph(),
                0,
                DetectorConfig::example(),
                4,
                opts(),
            )
            .unwrap(),
        );
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let pe = std::sync::Arc::clone(&pe);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // Distinct targets per thread keep per-target order
                        // trivially intact without a routing transport.
                        let c = u(10_000 + w * 1_000 + i % 20);
                        pe.on_event(EdgeEvent::follow(u(11 + i % 2), c, ts(50 + i)))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pe.next_seq(), 800);
        pe.sync().unwrap();
        drop(std::sync::Arc::try_unwrap(pe).ok().expect("sole owner"));

        let (recovered, report) = PersistentConcurrentEngine::open(
            t.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            4,
            opts(),
        )
        .unwrap();
        assert_eq!(report.replayed, 800);
        assert_eq!(report.next_seq, 800);
        assert_eq!(recovered.engine().store().stats().inserted, 800);
    }

    /// An incremental-checkpoint policy: deltas allowed, rebase after 8.
    fn inc_opts() -> PersistOptions {
        PersistOptions {
            rebase: RebasePolicy {
                max_chain_len: 8,
                max_delta_bytes_ratio: 0.0,
            },
            ..opts()
        }
    }

    /// A wide trace touching `targets` distinct recommendation targets —
    /// `trace()` only exercises five, too few for delta-vs-full sizing.
    fn wide_trace(n: u64, targets: u64) -> Vec<EdgeEvent> {
        (0..n)
            .map(|i| EdgeEvent::follow(u(11 + i % 3), u(1_000 + i % targets), ts(10 + i)))
            .collect()
    }

    fn sorted_entries(
        out: &mut Vec<(UserId, UserId, Timestamp)>,
    ) -> &mut Vec<(UserId, UserId, Timestamp)> {
        out.sort_unstable();
        out
    }

    #[test]
    fn sequential_incremental_restore_matches_full() {
        let (ti, tf) = (TempDir::new("pe-inc"), TempDir::new("pe-full"));
        let pi = create1(ti.path(), small_graph(), 0, inc_opts());
        let pf = create1(tf.path(), small_graph(), 0, opts());
        for (i, &e) in trace(300).iter().enumerate() {
            assert_eq!(pi.on_event(e).unwrap(), pf.on_event(e).unwrap());
            if i % 60 == 59 {
                pi.checkpoint().unwrap();
                pf.checkpoint().unwrap();
            }
        }
        assert!(
            !crate::checkpoint::list_delta_checkpoints(ti.path())
                .unwrap()
                .is_empty(),
            "incremental run must actually write deltas"
        );
        assert!(
            crate::checkpoint::list_delta_checkpoints(tf.path())
                .unwrap()
                .is_empty(),
            "disabled policy must stay full-only"
        );
        drop(pi);
        drop(pf);

        let (ri, _) = open1(ti.path(), inc_opts());
        let (rf, _) = open1(tf.path(), opts());
        let (mut ei, mut ef) = (Vec::new(), Vec::new());
        ri.engine().store().export_entries(&mut ei);
        rf.engine().store().export_entries(&mut ef);
        assert_eq!(
            sorted_entries(&mut ei),
            sorted_entries(&mut ef),
            "chain restore must equal full-checkpoint restore"
        );
    }

    #[test]
    fn sequential_chain_rebases_per_policy_and_prunes() {
        let t = TempDir::new("pe-chain");
        let o = PersistOptions {
            rebase: RebasePolicy {
                max_chain_len: 2,
                max_delta_bytes_ratio: 0.0,
            },
            ..inc_opts()
        };
        let pe = create1(t.path(), small_graph(), 0, o);
        let deltas = |dir: &Path| {
            crate::checkpoint::list_delta_checkpoints(dir)
                .unwrap()
                .len()
        };
        let fulls = |dir: &Path| crate::checkpoint::list_checkpoints(dir).unwrap().len();
        let feed = |pe: &PersistentConcurrentEngine, lo: u64| {
            for i in lo..lo + 20 {
                pe.on_event(EdgeEvent::follow(u(11), u(2_000 + i), ts(10 + i)))
                    .unwrap();
            }
        };
        feed(&pe, 0);
        pe.checkpoint().unwrap(); // no chain yet → full
        assert_eq!((fulls(t.path()), deltas(t.path())), (1, 0));
        feed(&pe, 20);
        pe.checkpoint().unwrap(); // delta 1
        feed(&pe, 40);
        pe.checkpoint().unwrap(); // delta 2 — chain now at the policy cap
        assert_eq!((fulls(t.path()), deltas(t.path())), (1, 2));
        feed(&pe, 60);
        pe.checkpoint().unwrap(); // rebase: fresh full, whole chain pruned
        assert_eq!((fulls(t.path()), deltas(t.path())), (1, 0));
        assert_eq!(pe.checkpoint_tip(), Some(pe.next_seq() - 1));
    }

    #[test]
    fn delta_checkpoint_is_fraction_of_full_at_sparse_dirt() {
        let t = TempDir::new("pe-frac");
        let pe = create1(t.path(), small_graph(), 0, inc_opts());
        // 500 resident targets, then dirty ~1% of them.
        feed(&pe, &wide_trace(2_000, 500), 0);
        pe.checkpoint().unwrap();
        let full_path = crate::checkpoint::list_checkpoints(t.path())
            .unwrap()
            .pop()
            .unwrap()
            .0;
        let full_bytes = std::fs::metadata(&full_path).unwrap().len();
        for i in 0..5u64 {
            pe.on_event(EdgeEvent::follow(u(12), u(1_000 + i), ts(5_000 + i)))
                .unwrap();
        }
        pe.checkpoint().unwrap();
        let delta_path = crate::checkpoint::list_delta_checkpoints(t.path())
            .unwrap()
            .pop()
            .unwrap()
            .0;
        let delta_bytes = std::fs::metadata(&delta_path).unwrap().len();
        assert!(
            delta_bytes * 10 < full_bytes,
            "1%-dirty delta must be <10% of the full: {delta_bytes} vs {full_bytes}"
        );
        drop(pe);
        // And the chain still restores the exact store.
        let (re, report) = open1(t.path(), inc_opts());
        assert_eq!(report.replayed, 0, "tip covers everything");
        let mut twin = Engine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &wide_trace(2_000, 500) {
            twin.on_event(e);
        }
        for i in 0..5u64 {
            twin.on_event(EdgeEvent::follow(u(12), u(1_000 + i), ts(5_000 + i)));
        }
        let (mut er, mut et) = (Vec::new(), Vec::new());
        re.engine().store().export_entries(&mut er);
        twin.store().export_entries(&mut et);
        assert_eq!(sorted_entries(&mut er), sorted_entries(&mut et));
    }

    #[test]
    fn concurrent_checkpoint_ingests_between_fences_and_recovers() {
        let t = TempDir::new("pce-fence");
        let parts = 2;
        let pe = PersistentConcurrentEngine::create(
            t.path(),
            small_graph(),
            0,
            DetectorConfig::example(),
            parts,
            inc_opts(),
        )
        .unwrap();
        let warm = trace(100);
        for &e in &warm {
            pe.on_event(e).unwrap();
        }
        // Cut a checkpoint while ingesting *between* the shard fences:
        // events landing after partition p's cut are above p's fence
        // (replayed at recovery) while events to still-uncut partitions
        // land below theirs (covered by the export) — the exact skew the
        // fence-vector contract exists for.
        let mid = std::cell::RefCell::new(Vec::new());
        pe.checkpoint_with_fence_observer(|p, fence| {
            assert!(fence > 0, "warmed partitions have assigned sequences");
            for i in 0..10u64 {
                let e = EdgeEvent::follow(u(11), u(20_000 + p as u64 * 100 + i), ts(500 + i));
                pe.on_event(e).unwrap();
                mid.borrow_mut().push(e);
            }
        })
        .unwrap();
        let mid = mid.into_inner();
        let tip = pe.checkpoint_tip().expect("checkpoint landed");
        assert!(tip >= warm.len() as u64 - 1);
        pe.sync().unwrap();
        drop(pe);

        let (re, report) = PersistentConcurrentEngine::open(
            t.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            parts,
            inc_opts(),
        )
        .unwrap();
        assert!(
            report.replayed > 0,
            "between-fence events sit above their partition's fence"
        );
        assert_eq!(report.next_seq, (warm.len() + mid.len()) as u64);
        let twin = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut sink = Vec::new();
        for &e in warm.iter().chain(&mid) {
            twin.on_event_into(e, &mut sink);
        }
        let (mut er, mut et) = (Vec::new(), Vec::new());
        re.engine().store().export_entries(&mut er);
        twin.store().export_entries(&mut et);
        assert_eq!(
            sorted_entries(&mut er),
            sorted_entries(&mut et),
            "live-checkpoint recovery must match the uninterrupted twin"
        );
    }

    #[test]
    fn checkpoint_driver_runs_cadence_without_quiescing_ingest() {
        let t = TempDir::new("pce-driver");
        let pe = std::sync::Arc::new(
            PersistentConcurrentEngine::create(
                t.path(),
                small_graph(),
                0,
                DetectorConfig::example(),
                2,
                inc_opts(),
            )
            .unwrap(),
        );
        let driver = CheckpointDriver::spawn(
            std::sync::Arc::clone(&pe),
            64,
            std::time::Duration::from_millis(1),
        );
        let events = trace(600);
        for &e in &events {
            pe.on_event(e).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while driver.completed() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (completed, failures) = driver.stop();
        assert!(completed >= 1, "driver never checkpointed");
        assert_eq!(failures, 0);
        assert!(pe.checkpoint_tip().is_some());
        pe.sync().unwrap();
        drop(std::sync::Arc::try_unwrap(pe).ok().expect("sole owner"));

        let (re, report) = PersistentConcurrentEngine::open(
            t.path(),
            DetectorConfig::example(),
            CapStrategy::None,
            2,
            inc_opts(),
        )
        .unwrap();
        assert!(
            report.replayed < events.len() as u64,
            "replay must be bounded by the driver's checkpoints"
        );
        let twin = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut sink = Vec::new();
        for &e in &events {
            twin.on_event_into(e, &mut sink);
        }
        let (mut er, mut et) = (Vec::new(), Vec::new());
        re.engine().store().export_entries(&mut er);
        twin.store().export_entries(&mut et);
        assert_eq!(sorted_entries(&mut er), sorted_entries(&mut et));
    }
}
