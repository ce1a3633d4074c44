//! The on-disk home of `S`: full-graph bases plus delta chains.
//!
//! The offline pipeline publishes a **base** snapshot
//! (`s-base-<epoch>.mgrs`, the [`magicrecs_graph::io`] format)
//! occasionally and cheap **deltas** (`s-delta-<base>-<target>.mgrd`,
//! [`magicrecs_graph::GraphDelta`]) in between. Loading finds the newest
//! base and folds the contiguous delta chain on top with
//! [`magicrecs_graph::FollowGraph::apply_delta`] — each link costs its
//! touched rows, not a world rebuild. A delta whose base epoch has no
//! chain back to the loaded base is a gap (a missing file) and refuses to
//! load as [`Error::Corrupt`]; ambiguous chains (two deltas sharing a
//! base) are refused the same way.

use crate::vfs::{std_vfs, Vfs};
use magicrecs_graph::{load_delta, load_graph, save_delta, save_graph};
use magicrecs_graph::{CapStrategy, FollowGraph, GraphDelta};
use magicrecs_types::{Error, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A delta file entry discovered by the directory scan.
type DeltaFile = (u64, u64, PathBuf);

/// When a delta chain should be folded into a fresh base (rebase
/// cadence). Nothing rebases while both thresholds hold; crossing either
/// one makes [`SnapshotStore::should_rebase`] answer `true`, and
/// `PersistentConcurrentEngine::publish_graph_delta` then republishes
/// the current graph as a base and [`SnapshotStore::compact`]s the
/// superseded files — which is also the moment orphaned (delta-removed,
/// edge-less) vertices leave the on-disk interner: a base is saved from
/// its edge rows, so a reload after rebase no longer interns them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebasePolicy {
    /// Rebase once the chain holds this many delta links (`0` disables
    /// the length check). Each link is a startup-apply cost, so this
    /// bounds recovery time.
    pub max_chain_len: usize,
    /// Rebase once the chain's delta files total this fraction of the
    /// base file's size (`0.0` disables the size check). Past ~1× the
    /// chain costs more disk and apply time than the base it amends.
    pub max_delta_bytes_ratio: f64,
}

impl RebasePolicy {
    /// Never rebase automatically (the operator compacts by hand).
    pub const DISABLED: RebasePolicy = RebasePolicy {
        max_chain_len: 0,
        max_delta_bytes_ratio: 0.0,
    };
}

impl Default for RebasePolicy {
    fn default() -> Self {
        RebasePolicy {
            max_chain_len: 8,
            max_delta_bytes_ratio: 0.5,
        }
    }
}

/// A directory of `S` snapshot bases and deltas.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// What [`SnapshotStore::load_latest`] reconstructed.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The reconstructed graph (base + folded deltas).
    pub graph: FollowGraph,
    /// The epoch the graph represents (base epoch + chain).
    pub epoch: u64,
    /// How many chain links were applied on top of the base.
    pub deltas_applied: usize,
}

impl SnapshotStore {
    /// Opens (creating if missing) the snapshot directory.
    pub fn new(dir: &Path) -> Result<SnapshotStore> {
        Self::with_vfs(dir, std_vfs())
    }

    /// [`SnapshotStore::new`] on an explicit I/O backend: publishes and
    /// compaction go through it (loads are read-only and stay on
    /// `std::fs`).
    pub fn with_vfs(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<SnapshotStore> {
        std::fs::create_dir_all(dir).map_err(|e| Error::Io(format!("snapshot dir: {e}")))?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            vfs,
        })
    }

    fn base_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("s-base-{epoch:020}.mgrs"))
    }

    fn delta_path(&self, base: u64, target: u64) -> PathBuf {
        self.dir
            .join(format!("s-delta-{base:020}-{target:020}.mgrd"))
    }

    /// Publishes a full base snapshot for `epoch` (temp-file, fsync,
    /// atomic rename — a new base makes older bases and deltas eligible
    /// for [`SnapshotStore::compact`], so it must be durable before it
    /// supersedes them).
    pub fn publish_base(&self, epoch: u64, graph: &FollowGraph) -> Result<()> {
        let final_path = self.base_path(epoch);
        let tmp = final_path.with_extension("mgrs.tmp");
        let mut buf = Vec::new();
        save_graph(graph, &mut buf)?;
        crate::fsutil::publish_durably(self.vfs.as_ref(), &tmp, &final_path, &buf)
    }

    /// Publishes one delta link (temp-file, fsync, atomic rename).
    pub fn publish_delta(&self, delta: &GraphDelta) -> Result<()> {
        let final_path = self.delta_path(delta.base_epoch, delta.target_epoch);
        let tmp = final_path.with_extension("mgrd.tmp");
        let mut buf = Vec::new();
        save_delta(delta, &mut buf)?;
        crate::fsutil::publish_durably(self.vfs.as_ref(), &tmp, &final_path, &buf)
    }

    fn scan(&self) -> Result<(Vec<u64>, Vec<DeltaFile>)> {
        let mut bases = Vec::new();
        let mut deltas = Vec::new();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| Error::Io(format!("snapshot dir: {e}")))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::Io(format!("snapshot dir: {e}")))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(epoch) = name
                .strip_prefix("s-base-")
                .and_then(|s| s.strip_suffix(".mgrs"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                bases.push(epoch);
            } else if let Some((base, target)) = name
                .strip_prefix("s-delta-")
                .and_then(|s| s.strip_suffix(".mgrd"))
                .and_then(|s| s.split_once('-'))
                .and_then(|(b, t)| Some((b.parse::<u64>().ok()?, t.parse::<u64>().ok()?)))
            {
                deltas.push((base, target, entry.path()));
            }
        }
        bases.sort_unstable();
        Ok((bases, deltas))
    }

    /// Whether the directory already holds any base or delta files —
    /// creation paths refuse such directories (a stale higher-epoch base
    /// would shadow a freshly published one on the next load).
    pub(crate) fn has_artifacts(&self) -> Result<bool> {
        let (bases, deltas) = self.scan()?;
        Ok(!bases.is_empty() || !deltas.is_empty())
    }

    /// Reconstructs the newest snapshot: load the highest-epoch base,
    /// then fold the delta chain rooted at it. `cap` is the load-time
    /// influencer cap for the base ([`magicrecs_graph::io::load_graph`]);
    /// deltas are produced against the already-capped graph upstream.
    pub fn load_latest(&self, cap: CapStrategy) -> Result<LoadedSnapshot> {
        let (bases, deltas) = self.scan()?;
        let Some(&base_epoch) = bases.last() else {
            return Err(Error::Corrupt(format!(
                "no base snapshot in {}",
                self.dir.display()
            )));
        };
        let bytes = std::fs::read(self.base_path(base_epoch))
            .map_err(|e| Error::Io(format!("snapshot read: {e}")))?;
        let mut graph = load_graph(&mut bytes.as_slice(), cap)?;

        // Index the chain: base epoch → delta file. Two deltas sharing a
        // base are ambiguous; refuse rather than guess.
        let mut by_base: BTreeMap<u64, (u64, PathBuf)> = BTreeMap::new();
        for (base, target, path) in deltas.iter().filter(|&&(b, _, _)| b >= base_epoch) {
            if by_base.insert(*base, (*target, path.clone())).is_some() {
                return Err(Error::Corrupt(format!(
                    "ambiguous delta chain: two deltas with base epoch {base}"
                )));
            }
        }

        let mut epoch = base_epoch;
        let mut applied = 0usize;
        while let Some((target, path)) = by_base.remove(&epoch) {
            let bytes = std::fs::read(&path).map_err(|e| Error::Io(format!("delta read: {e}")))?;
            let delta = load_delta(&mut bytes.as_slice())?;
            if delta.base_epoch != epoch || delta.target_epoch != target {
                return Err(Error::Corrupt(format!(
                    "delta {} carries epochs {}→{} but its name says {}→{}",
                    path.display(),
                    delta.base_epoch,
                    delta.target_epoch,
                    epoch,
                    target
                )));
            }
            graph = graph.apply_delta(&delta)?;
            epoch = target;
            applied += 1;
        }
        if let Some((&orphan_base, _)) = by_base.iter().next() {
            return Err(Error::Corrupt(format!(
                "gap in delta chain: no path from epoch {epoch} to the delta based at \
                 {orphan_base}"
            )));
        }
        Ok(LoadedSnapshot {
            graph,
            epoch,
            deltas_applied: applied,
        })
    }

    /// Whether the current delta chain has outgrown `policy` and should
    /// be folded into a fresh base (see [`RebasePolicy`]). Walks file
    /// names and sizes only — no snapshot bytes are decoded. A directory
    /// with no base (or no chain) never wants a rebase.
    pub fn should_rebase(&self, policy: RebasePolicy) -> Result<bool> {
        if policy == RebasePolicy::DISABLED {
            return Ok(false);
        }
        let (bases, deltas) = self.scan()?;
        let Some(&base_epoch) = bases.last() else {
            return Ok(false);
        };
        let file_len = |p: &Path| -> Result<u64> {
            Ok(std::fs::metadata(p)
                .map_err(|e| Error::Io(format!("snapshot stat: {e}")))?
                .len())
        };
        // Follow the chain rooted at the newest base, by name. Ambiguous
        // chains (two deltas off one epoch) are a load-time error; here
        // the first match is enough — the walk only sizes the chain.
        let mut by_base: BTreeMap<u64, (u64, PathBuf)> = BTreeMap::new();
        for (base, target, path) in deltas.into_iter().filter(|&(b, _, _)| b >= base_epoch) {
            by_base.entry(base).or_insert((target, path));
        }
        let mut epoch = base_epoch;
        let mut chain_len = 0usize;
        let mut delta_bytes = 0u64;
        while let Some((target, path)) = by_base.remove(&epoch) {
            chain_len += 1;
            delta_bytes += file_len(&path)?;
            epoch = target;
        }
        if policy.max_chain_len > 0 && chain_len >= policy.max_chain_len {
            return Ok(true);
        }
        if policy.max_delta_bytes_ratio > 0.0 && chain_len > 0 {
            let base_bytes = file_len(&self.base_path(base_epoch))?;
            if delta_bytes as f64 >= policy.max_delta_bytes_ratio * base_bytes as f64 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Deletes bases older than the newest and deltas that can no longer
    /// participate in its chain. Returns files removed.
    pub fn compact(&self) -> Result<usize> {
        let (bases, deltas) = self.scan()?;
        let Some(&latest) = bases.last() else {
            return Ok(0);
        };
        let mut removed = 0;
        for &epoch in bases.iter().filter(|&&e| e < latest) {
            self.vfs
                .remove_file(&self.base_path(epoch))
                .map_err(|e| Error::Io(format!("snapshot compact: {e}")))?;
            removed += 1;
        }
        for (base, _, path) in deltas.iter().filter(|&&(b, _, _)| b < latest) {
            let _ = base;
            self.vfs
                .remove_file(path)
                .map_err(|e| Error::Io(format!("snapshot compact: {e}")))?;
            removed += 1;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::UserId;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn build(edges: &[(u64, u64)]) -> FollowGraph {
        let mut b = GraphBuilder::new();
        b.extend(edges.iter().map(|&(a, bb)| (u(a), u(bb))));
        b.build()
    }

    fn rows(g: &FollowGraph) -> Vec<(UserId, Vec<UserId>)> {
        g.iter_forward().collect()
    }

    #[test]
    fn base_only_roundtrip() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        let g = build(&[(1, 11), (2, 12)]);
        store.publish_base(5, &g).unwrap();
        let loaded = store.load_latest(CapStrategy::None).unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.deltas_applied, 0);
        assert_eq!(rows(&loaded.graph), rows(&g));
    }

    #[test]
    fn chain_folds_in_order() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        let g0 = build(&[(1, 11)]);
        let g1 = build(&[(1, 11), (2, 12)]);
        let g2 = build(&[(2, 12), (3, 13)]);
        store.publish_base(0, &g0).unwrap();
        store
            .publish_delta(&GraphDelta::between(&g0, &g1, 0, 1).unwrap())
            .unwrap();
        store
            .publish_delta(&GraphDelta::between(&g1, &g2, 1, 2).unwrap())
            .unwrap();
        let loaded = store.load_latest(CapStrategy::None).unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.deltas_applied, 2);
        assert_eq!(rows(&loaded.graph), rows(&g2));
    }

    #[test]
    fn newest_base_wins_and_its_chain_applies() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        let old = build(&[(9, 99)]);
        let g0 = build(&[(1, 11)]);
        let g1 = build(&[(1, 11), (1, 12)]);
        store.publish_base(3, &old).unwrap();
        store.publish_base(10, &g0).unwrap();
        store
            .publish_delta(&GraphDelta::between(&g0, &g1, 10, 11).unwrap())
            .unwrap();
        let loaded = store.load_latest(CapStrategy::None).unwrap();
        assert_eq!(loaded.epoch, 11);
        assert_eq!(rows(&loaded.graph), rows(&g1));
        // Compact removes the stale base.
        assert!(store.compact().unwrap() >= 1);
        let still = store.load_latest(CapStrategy::None).unwrap();
        assert_eq!(still.epoch, 11);
    }

    #[test]
    fn gap_in_chain_is_refused() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        let g0 = build(&[(1, 11)]);
        let g1 = build(&[(1, 11), (2, 12)]);
        let g2 = build(&[(2, 12)]);
        store.publish_base(0, &g0).unwrap();
        // Chain link 0→1 is missing; only 1→2 exists.
        store
            .publish_delta(&GraphDelta::between(&g1, &g2, 1, 2).unwrap())
            .unwrap();
        let err = store.load_latest(CapStrategy::None).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("gap"), "{err}");
    }

    #[test]
    fn should_rebase_tracks_chain_length_and_bytes() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        let len_only = RebasePolicy {
            max_chain_len: 3,
            max_delta_bytes_ratio: 0.0,
        };
        // No base, no chain: never.
        assert!(!store.should_rebase(len_only).unwrap());
        assert!(!store.should_rebase(RebasePolicy::default()).unwrap());

        let mut graphs = vec![build(&[(1, 11), (2, 12), (3, 13), (4, 14)])];
        store.publish_base(0, &graphs[0]).unwrap();
        assert!(!store.should_rebase(len_only).unwrap());
        for i in 1..=3u64 {
            let next = {
                let mut edges: Vec<(u64, u64)> = graphs[i as usize - 1]
                    .iter_forward()
                    .flat_map(|(a, ts)| {
                        ts.into_iter()
                            .map(move |b| (a.raw(), b.raw()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                edges.push((100 + i, 200 + i));
                build(&edges)
            };
            store
                .publish_delta(
                    &GraphDelta::between(&graphs[i as usize - 1], &next, i - 1, i).unwrap(),
                )
                .unwrap();
            graphs.push(next);
            let want = i as usize >= 3;
            assert_eq!(
                store.should_rebase(len_only).unwrap(),
                want,
                "chain length {i}"
            );
        }
        // The bytes-ratio check fires for a chain whose files rival the
        // base: a tiny base with three deltas easily crosses 0.1×.
        let ratio_only = RebasePolicy {
            max_chain_len: 0,
            max_delta_bytes_ratio: 0.1,
        };
        assert!(store.should_rebase(ratio_only).unwrap());
        // DISABLED short-circuits no matter what the directory holds.
        assert!(!store.should_rebase(RebasePolicy::DISABLED).unwrap());
        // After compacting onto a fresh base the chain is gone.
        store.publish_base(3, &graphs[3]).unwrap();
        store.compact().unwrap();
        assert!(!store.should_rebase(len_only).unwrap());
        assert!(!store.should_rebase(ratio_only).unwrap());
    }

    #[test]
    fn empty_dir_is_an_error() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        assert!(store.load_latest(CapStrategy::None).is_err());
    }

    #[test]
    fn corrupt_base_is_refused() {
        let t = TempDir::new("snap");
        let store = SnapshotStore::new(t.path()).unwrap();
        std::fs::write(t.path().join("s-base-00000000000000000001.mgrs"), b"junk").unwrap();
        let err = store.load_latest(CapStrategy::None).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }
}
