//! Hot-path baseline recorder: writes `BENCH_hotpath.json` at the repo
//! root so future PRs have machine-readable ns/op numbers to beat.
//!
//! Usage:
//!   cargo run -p magicrecs-bench --release --bin hotpath
//!   cargo run -p magicrecs-bench --release --bin hotpath -- \
//!       --concurrent-only --threads 2   # CI smoke: scaling arm only,
//!                                       # no JSON rewrite
//!   cargo run -p magicrecs-bench --release --bin hotpath -- \
//!       --no-concurrent --out /tmp/b.json  # partial run, custom path
//!
//! The JSON is **merged, not clobbered**: keys measured by this run
//! overwrite their previous values (field-by-field for grouped arms), and
//! keys this run did not measure — e.g. the concurrent curve during a
//! `--no-concurrent` run, or arms recorded by a fuller run on better
//! hardware — survive untouched.
//!
//! Covers the layers PR 1 optimized (with an emulation of the seed's data
//! structures for an honest before/after), PR 2's shared-state engine, and
//! PR 3's SIMD/loser-tree/dense-witness arms:
//!
//! * `s_lookup` — dense offset-array CSR `S[B]` fetch vs the seed's
//!   Fx-hash-indexed CSR probe (emulated over the same adjacency).
//! * `intersect` — two-list kernels at celebrity skew: the scalar u64-id
//!   arms (baseline continuity), the same data as dense `u32` ids, and
//!   the runtime-dispatched SIMD arms on those dense ids (`*_simd` vs
//!   `*_dense` is the honest same-width comparison).
//! * `threshold_*` — k-of-n kernels on balanced and celebrity-skewed
//!   witness lists ("seed adaptive" = the old heap/scan switch), plus the
//!   `loser_tree` pivot-generation arm. A guard asserts Adaptive lands
//!   within 1.2× of the best arm on both fixtures.
//! * `detector_*` — end-to-end engine ns/event on a Zipf trace and on a
//!   synthetic celebrity workload, per threshold arm, plus the
//!   `dense_witness` replay arm (dense-keyed `D` feeding
//!   `detect_dense_into`, no per-witness interner probe).
//! * `concurrent_*` — thread-scaling curve of `ConcurrentEngine` (one
//!   shared `S` + sharded `D`, stream hash-routed by target) on the
//!   celebrity workload, events/sec at 1→N workers. `bench_cores` records
//!   how many hardware threads the box actually had — on a single-core
//!   container the curve is honest but flat.
//! * `snapshot_*` / `wal_*` / `recovery_*` — the persistence subsystem
//!   (PR 4): full `S` rebuild vs `GraphDelta` apply on a ~1%-changed
//!   graph, WAL append cost under the batched-fsync default, and the
//!   crash-recovery replay rate. `--no-persist` skips these arms (their
//!   previous keys survive the merge).
//! * `wal_group_append_ns_per_event` / `batched_celebrity_events_per_sec`
//!   — the batched ingest hot path (PR 5): group commit at batch sizes
//!   8/64/256 vs single appends (hard-asserted faster at 64 —
//!   `--wal-only` runs just this guard for CI), and the shared cluster's
//!   micro-batch queue drain vs the one-item-per-recv transport.
//! * `ingest_events_per_sec_while_checkpointing` vs
//!   `ingest_events_per_sec_baseline` — the non-quiescent checkpoint
//!   tax (PR 7): the celebrity trace through the persistent shared
//!   engine with a live [`CheckpointDriver`] cutting incremental
//!   fence-vector checkpoints mid-ingest vs the same run with no
//!   checkpoints. Hard-asserted within 5%. `checkpoint_full_bytes` vs
//!   `checkpoint_incremental_bytes` sizes a delta cut at a ~1% dirty
//!   ratio (hard-asserted <10% of the full — `--ckpt-only` runs just
//!   this guard for CI).
//! * `obs_instrumented_ns_per_event` vs `obs_disabled_ns_per_event` —
//!   the metrics-registry tax (PR 9): the celebrity trace through two
//!   engines differing only in their registry, live striped-atomic
//!   counters vs `Registry::disabled()`. Hard-asserted ≤3% overhead
//!   (`MAGICRECS_OBS_GUARD_PCT` overrides the bar — `--obs-only` runs
//!   just this guard for CI).
//!
//! [`CheckpointDriver`]: magicrecs_persist::CheckpointDriver

use magicrecs_bench::json::{Json, Val};
use magicrecs_bench::{bench_graph, bench_trace, small_graph};
use magicrecs_cluster::SharedEngineCluster;
use magicrecs_core::intersect::{
    intersect_adaptive, intersect_gallop, intersect_gallop_simd, intersect_merge,
    intersect_merge_simd,
};
use magicrecs_core::threshold::{threshold_intersect, ThresholdAlgo};
use magicrecs_core::{simd_level, DiamondDetector, Engine, InterningIngest, SimdLevel};
use magicrecs_graph::{FollowGraph, GraphBuilder};
use magicrecs_temporal::{PruneStrategy, TemporalEdgeStore};
use magicrecs_types::{DenseId, DetectorConfig, EdgeEvent, FxHashMap, Timestamp, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Median ns/op over `samples` timed batches of `iters` calls.
fn time_ns<F: FnMut()>(iters: u64, samples: usize, mut f: F) -> f64 {
    // Warm-up batch.
    for _ in 0..iters.min(16) {
        f();
    }
    let mut results: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    results[results.len() / 2]
}

fn sorted_ids(n: usize, range: u64, rng: &mut StdRng) -> Vec<UserId> {
    let mut v: Vec<UserId> = (0..n).map(|_| UserId(rng.random_range(0..range))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The same id values as dense `u32` lanes (the fixture ranges stay below
/// `u32::MAX`, so this is a width change, not a data change).
fn as_dense(ids: &[UserId]) -> Vec<DenseId> {
    ids.iter()
        .map(|u| DenseId(u32::try_from(u.raw()).expect("fixture ids fit u32")))
        .collect()
}

// ---- command line ----------------------------------------------------------

/// Command-line options (CI smoke vs full/partial baseline runs).
struct Args {
    /// Run only the concurrent scaling arm and skip the JSON rewrite.
    concurrent_only: bool,
    /// Skip the concurrent scaling arm (its previous keys survive the
    /// merge).
    no_concurrent: bool,
    /// Largest worker count on the scaling curve (1 is always measured).
    max_threads: usize,
    /// Skip the persistence arms (their previous keys survive the
    /// merge).
    no_persist: bool,
    /// Run only the persistence arms and skip the JSON rewrite (the
    /// persist-smoke CI job).
    persist_only: bool,
    /// Run only the WAL single-vs-group-commit arms (with the
    /// group-commit guard) and skip the JSON rewrite — the bench-smoke
    /// CI job's cheap durability guard.
    wal_only: bool,
    /// Run only the incremental-vs-full checkpoint size arm (with the
    /// <10%-at-1%-dirty guard) and skip the JSON rewrite — the
    /// bench-smoke CI job's checkpoint-chain guard.
    ckpt_only: bool,
    /// Run only the instrumentation-overhead arm (with the ≤3% guard)
    /// and skip the JSON rewrite — the obs-smoke CI job.
    obs_only: bool,
    /// Output path; defaults to `BENCH_hotpath.json` at the workspace
    /// root.
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        concurrent_only: false,
        no_concurrent: false,
        max_threads: 4,
        no_persist: false,
        persist_only: false,
        wal_only: false,
        ckpt_only: false,
        obs_only: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--concurrent-only" => args.concurrent_only = true,
            "--no-concurrent" => args.no_concurrent = true,
            "--no-persist" => args.no_persist = true,
            "--persist-only" => args.persist_only = true,
            "--wal-only" => args.wal_only = true,
            "--ckpt-only" => args.ckpt_only = true,
            "--obs-only" => args.obs_only = true,
            "--threads" => {
                args.max_threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => {
                args.out = Some(PathBuf::from(it.next().expect("--out needs a path")));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(args.max_threads >= 1, "--threads must be >= 1");
    assert!(
        !(args.concurrent_only && args.no_concurrent),
        "--concurrent-only and --no-concurrent are mutually exclusive"
    );
    assert!(
        !(args.persist_only && args.no_persist),
        "--persist-only and --no-persist are mutually exclusive"
    );
    assert!(
        !(args.persist_only && args.concurrent_only),
        "--persist-only and --concurrent-only are mutually exclusive"
    );
    assert!(
        !(args.wal_only && (args.persist_only || args.concurrent_only || args.no_persist)),
        "--wal-only runs exactly the WAL arms; other selectors conflict"
    );
    assert!(
        !(args.ckpt_only
            && (args.wal_only || args.persist_only || args.concurrent_only || args.no_persist)),
        "--ckpt-only runs exactly the checkpoint size arm; other selectors conflict"
    );
    assert!(
        !(args.obs_only
            && (args.ckpt_only
                || args.wal_only
                || args.persist_only
                || args.concurrent_only
                || args.no_persist
                || args.no_concurrent)),
        "--obs-only runs exactly the instrumentation-overhead arm; other selectors conflict"
    );
    args
}

/// The celebrity workload graph: 512 As follow 4 ordinary Bs and the
/// celebrity; 200k extra users follow the celebrity too, so every closing
/// event forces a k-of-5 threshold against a 200k-follower list.
fn celebrity_graph() -> FollowGraph {
    let mut gb = GraphBuilder::new();
    let celeb = UserId(9_000_000);
    for a in 0..512u64 {
        for b in 0..4u64 {
            gb.add_edge(UserId(a), UserId(1_000_000 + b));
        }
        gb.add_edge(UserId(a), celeb);
    }
    for extra in 0..200_000u64 {
        gb.add_edge(UserId(10_000 + extra), celeb);
    }
    gb.build()
}

/// The celebrity workload as an event trace: per round, the 4 ordinary Bs
/// act on a fresh C and the celebrity closes the diamond. Timestamps stay
/// inside one τ window so the work per event is identical no matter how
/// rounds interleave across worker threads — the scaling curve measures
/// threading, not accidental expiry.
fn celebrity_trace(rounds: u64) -> Vec<EdgeEvent> {
    let celeb = UserId(9_000_000);
    let mut events = Vec::with_capacity(rounds as usize * 5);
    for round in 0..rounds {
        let c = UserId(20_000_000 + round);
        let t = Timestamp::from_secs(43_200 + round % 300);
        for b in 0..4u64 {
            events.push(EdgeEvent::follow(UserId(1_000_000 + b), c, t));
        }
        events.push(EdgeEvent::follow(celeb, c, t));
    }
    events
}

/// Thread-scaling curve of the shared-state engine on the celebrity
/// workload. Appends `concurrent_*` keys to `json`.
fn run_concurrent(json: &mut Json, max_threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# concurrent engine scaling, celebrity workload ({cores} cores)");
    let graph = celebrity_graph();
    let trace = celebrity_trace(2_000);

    let mut fields: Vec<(&str, f64)> = Vec::new();
    let rate_at = |threads: usize, max_batch: usize| -> f64 {
        let cluster = SharedEngineCluster::new(&graph, threads, DetectorConfig::production())
            .expect("valid cluster config")
            .with_max_batch(max_batch);
        // One untimed run first: the arm that happens to go first must not
        // eat the page-cache/allocator warm-up for everyone else.
        cluster.run_trace(&trace).expect("warm-up run");
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let report = cluster.run_trace(&trace).expect("run_trace");
                report.stream_events_per_sec()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        samples[samples.len() / 2]
    };
    for (label, threads) in [("t1", 1usize), ("t2", 2), ("t4", 4)] {
        if threads > max_threads {
            continue;
        }
        let rate = rate_at(threads, magicrecs_cluster::DEFAULT_MAX_BATCH);
        println!("  {threads} thread(s): {rate:.0} events/sec");
        fields.push((label, rate));
    }
    json.obj("concurrent_celebrity_events_per_sec", &fields);
    json.int("concurrent_bench_cores", cores as u64);

    // Batched vs single-item queue drains, same engine and thread count:
    // max_batch 1 reproduces the pre-batching transport (one snapshot
    // pin + detector lookup + stats flush per event), the default drains
    // micro-batches.
    let threads = 2.min(max_threads);
    let single_drain = rate_at(threads, 1);
    let batched_drain = rate_at(threads, magicrecs_cluster::DEFAULT_MAX_BATCH);
    json.obj(
        "batched_celebrity_events_per_sec",
        &[("single", single_drain), ("b64", batched_drain)],
    );
    json.num(
        "speedup_batched_drain_over_single",
        batched_drain / single_drain,
    );
    println!(
        "  drain at {threads} thread(s): single {single_drain:.0} vs batched {batched_drain:.0} \
         events/sec ({:.2}x)",
        batched_drain / single_drain
    );
    if let (Some(&(_, r1)), Some(&(last, rn))) = (
        fields.iter().find(|(l, _)| *l == "t1"),
        fields.last().filter(|(l, _)| *l != "t1"),
    ) {
        let speedup = rn / r1;
        let key = if last == "t4" {
            "concurrent_speedup_t4_over_t1"
        } else {
            "concurrent_speedup_t2_over_t1"
        };
        json.num(key, speedup);
        println!("  speedup at max threads vs 1: {speedup:.2}x");
    }
}

/// The seed's CSR layout: Fx-hash index from sparse id to a range over a
/// shared u64 target array. Rebuilt here so the dense rewrite has an
/// in-repo baseline to race against.
struct SeedHashCsr {
    index: FxHashMap<UserId, (u32, u32)>,
    targets: Vec<UserId>,
}

impl SeedHashCsr {
    fn from_graph(g: &FollowGraph) -> Self {
        let mut index = FxHashMap::default();
        let mut targets = Vec::new();
        for (b, followers) in g.iter_inverse() {
            let start = targets.len() as u32;
            targets.extend(followers.iter().copied());
            index.insert(b, (start, targets.len() as u32 - start));
        }
        SeedHashCsr { index, targets }
    }

    #[inline]
    fn followers(&self, b: UserId) -> &[UserId] {
        match self.index.get(&b) {
            Some(&(start, len)) => &self.targets[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

/// The threshold-arm matrix every threshold/detector fixture runs.
const THRESHOLD_ARMS: [(&str, ThresholdAlgo); 5] = [
    ("scan_count", ThresholdAlgo::ScanCount),
    ("heap_merge", ThresholdAlgo::HeapMerge),
    ("pivot_skip", ThresholdAlgo::PivotSkip),
    ("loser_tree", ThresholdAlgo::PivotTree),
    ("adaptive", ThresholdAlgo::Adaptive),
];

/// Interleaved round-robin sampler shared by every multi-arm fixture:
/// `run(round, arm)` produces one ns measurement; round 0 is per-arm
/// warm-up (discarded), rounds 1..6 are timed, and the per-arm median is
/// returned. Arms that are compared against each other (the 1.2× adaptive
/// guard) must see slow box-level frequency drift equally, which is what
/// the interleaving buys over timing each arm to completion in turn.
fn interleaved_medians(n_arms: usize, mut run: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n_arms];
    for round in 0..6 {
        for (ai, s) in samples.iter_mut().enumerate() {
            let ns = run(round, ai);
            if round > 0 {
                s.push(ns);
            }
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            s[s.len() / 2]
        })
        .collect()
}

/// The bench-smoke guard for the Adaptive picker: within `limit`× of the
/// best pinned arm on this fixture, or the run aborts (CI runs this bin).
///
/// A single failure triggers one full re-measurement via `remeasure`
/// before aborting: the interleaving already equalizes slow drift across
/// arms, but one asymmetric noisy-neighbor spike on a shared runner can
/// still land in one arm's median, and a hard guard must not fail an
/// unrelated build over it. Two independent measurements both past the
/// limit is a real regression.
fn guard_adaptive<F>(
    fixture: &str,
    mut arms: Vec<(&'static str, f64)>,
    limit: f64,
    mut remeasure: F,
) where
    F: FnMut() -> Vec<(&'static str, f64)>,
{
    for attempt in 0..2 {
        let adaptive = arms
            .iter()
            .find(|(n, _)| *n == "adaptive")
            .expect("adaptive arm present")
            .1;
        let (best_name, best) = arms
            .iter()
            .filter(|(n, _)| *n != "adaptive")
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .map(|&(n, v)| (n, v))
            .expect("pinned arms present");
        let ratio = adaptive / best;
        println!("  adaptive/best({best_name}) = {ratio:.2}x");
        if ratio <= limit {
            return;
        }
        if attempt == 0 {
            println!("  above the {limit}x guard — remeasuring once to rule out a noise spike");
            arms = remeasure();
        } else {
            panic!(
                "{fixture}: adaptive ({adaptive:.0} ns) is {ratio:.2}x the best arm \
                 {best_name} ({best:.0} ns), above the {limit}x guard in two \
                 independent measurements"
            );
        }
    }
}

/// The WAL arms: single-append cost vs group commit at batch sizes
/// 8/64/256, same 20k-event trace, production fsync default
/// (`EveryN(256)`). Group commit encodes a batch's frames into one
/// reused buffer and lands them with one `write(2)`, so the per-event
/// cost is dominated by encoding instead of syscalls. **Guard**: batch
/// 64 must beat single appends outright, or the run aborts (bench-smoke
/// runs this via `--wal-only`).
fn run_wal(json: &mut Json) {
    use magicrecs_persist::{FsyncPolicy, TempDir, Wal, WalOptions};

    println!("# wal append: single vs group commit (fsync every 256)");
    let wal_trace = bench_trace(20_000, 2_000.0, 25, 0x3A1);
    let wal_events = wal_trace.events();
    let opts = WalOptions {
        fsync: FsyncPolicy::EveryN(256),
        segment_bytes: 4 << 20,
    };
    // Median of 3 full log writes per arm; each run appends into a fresh
    // directory so segment state never leaks between samples.
    let measure = |batch: usize| -> f64 {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let tmp = TempDir::new("bench-wal");
                let mut wal = Wal::create(tmp.path(), "wal-", opts).expect("wal create");
                let start = Instant::now();
                if batch <= 1 {
                    for &e in wal_events {
                        wal.append(e).expect("append");
                    }
                } else {
                    for chunk in wal_events.chunks(batch) {
                        wal.append_batch(chunk).expect("append_batch");
                    }
                }
                wal.close().expect("close");
                start.elapsed().as_secs_f64() * 1e9 / wal_events.len() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        samples[samples.len() / 2]
    };
    let single = measure(1);
    let arms: Vec<(&str, f64)> = [("b8", 8usize), ("b64", 64), ("b256", 256)]
        .iter()
        .map(|&(name, batch)| (name, measure(batch)))
        .collect();
    json.num("wal_append_ns_per_event", single);
    json.obj("wal_group_append_ns_per_event", &arms);
    let b64 = arms.iter().find(|(n, _)| *n == "b64").expect("arm").1;
    json.num("speedup_wal_group64_over_single", single / b64);
    println!("  single {single:.0} ns/event");
    for (name, ns) in &arms {
        println!("  {name} {ns:.0} ns/event ({:.1}x)", single / ns);
    }
    assert!(
        b64 < single,
        "group commit at batch 64 ({b64:.0} ns/event) must beat single appends \
         ({single:.0} ns/event) — one write(2) per batch is the whole point"
    );
}

/// The non-quiescent checkpoint tax: the celebrity trace through the
/// persistent shared engine (2 workers, 2 WAL partitions, fsync off so
/// the disk is out of the picture), baseline with checkpoints disabled
/// vs a live `CheckpointDriver` cutting incremental fence-vector
/// checkpoints on the production cadence mid-ingest. **Guard**: the
/// checkpointing run keeps ≥95% of baseline throughput, or the run
/// aborts (one remeasure absorbs a noise spike, as with the adaptive
/// guard). Non-quiescent means ingest never *blocks* on a cut — but the
/// driver's export/encode/write still needs a core to overlap on, so on
/// a single-core box (where every driver cycle is time-sliced straight
/// out of the workers) the guard floor honestly relaxes to 85%, with
/// the core count recorded alongside the ratio.
fn run_live_checkpoint(json: &mut Json) {
    use magicrecs_persist::{FsyncPolicy, PersistOptions, RebasePolicy, TempDir};

    println!("# ingest throughput while checkpointing (celebrity workload, 2 workers)");
    let graph = celebrity_graph();
    let trace = celebrity_trace(4_000);
    let cluster = SharedEngineCluster::new(&graph, 2, DetectorConfig::production())
        .expect("valid cluster config");
    let opts = PersistOptions {
        fsync: FsyncPolicy::Never,
        segment_bytes: 4 << 20,
        rebase: RebasePolicy {
            max_chain_len: 8,
            max_delta_bytes_ratio: 0.0,
        },
    };
    // One run per sample, fresh directory each time so no chain state
    // leaks between samples. The report's wall clock covers
    // send-to-gather only (engine creation and the post-drain cadence
    // catch-up are outside it).
    let one_run = |every: u64| -> f64 {
        let tmp = TempDir::new("bench-live-ckpt");
        let report = cluster
            .run_trace_persistent(tmp.path(), opts, every, &trace)
            .expect("persistent run");
        if every > 0 {
            assert!(
                report.checkpoints_completed >= 1,
                "the driver must checkpoint during the measured run"
            );
            assert_eq!(
                report.checkpoint_failures, 0,
                "driver checkpoints must not fail on a clean backend"
            );
        }
        report.run.stream_events_per_sec()
    };
    let _ = one_run(0); // warm-up: page cache, allocator, snapshot publish
                        // Samples interleave baseline/live like the threshold arm sets: the
                        // guard compares the two against each other, so slow box-level
                        // drift must land on both arms, not whichever ran last.
    let measure = || {
        let (mut base, mut live) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            base.push(one_run(0));
            live.push(one_run(4096));
        }
        let median = |mut s: Vec<f64>| -> f64 {
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            s[s.len() / 2]
        };
        (median(base), median(live))
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 2 {
        0.95
    } else {
        println!("  single-core box: driver cycles time-slice out of the workers, floor 0.85");
        0.85
    };
    let (mut baseline, mut live) = measure();
    let mut ratio = live / baseline;
    if ratio < floor {
        println!("  ratio {ratio:.3} below the {floor} guard — remeasuring once");
        (baseline, live) = measure();
        ratio = live / baseline;
    }
    json.num("ingest_events_per_sec_baseline", baseline);
    json.num("ingest_events_per_sec_while_checkpointing", live);
    // A ratio near 1.0 needs more than `num`'s one decimal.
    json.set(
        "ingest_checkpointing_throughput_ratio",
        Val::Raw(format!("{ratio:.3}")),
    );
    json.int("ingest_checkpointing_bench_cores", cores as u64);
    println!(
        "  baseline {baseline:.0} vs while-checkpointing {live:.0} events/sec \
         ({:.1}% retained, {cores} core(s))",
        ratio * 100.0
    );
    assert!(
        ratio >= floor,
        "ingest while checkpointing ({live:.0} events/sec) must retain >={floor}x baseline \
         ({baseline:.0} events/sec) on a {cores}-core box in two independent measurements — \
         got {ratio:.3}; non-quiescent cuts are the whole point"
    );
}

/// Incremental checkpoint size at a ~1% dirty ratio: 20k single-entry
/// targets, one full cut, 1% of targets re-touched, one delta cut.
/// **Guard**: the delta writes <10% of the full checkpoint's bytes, or
/// the run aborts (bench-smoke runs this via `--ckpt-only`).
fn run_checkpoint_bytes(json: &mut Json) {
    use magicrecs_persist::{
        FsyncPolicy, PersistOptions, PersistentConcurrentEngine, RebasePolicy, TempDir,
    };

    println!("# checkpoint bytes: full vs incremental at ~1% dirty");
    const TARGETS: u64 = 20_000;
    const DIRTY: u64 = 200;
    let tmp = TempDir::new("bench-ckpt-bytes");
    let pe = PersistentConcurrentEngine::create(
        tmp.path(),
        small_graph(1_000),
        0,
        DetectorConfig::production(),
        1,
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 4 << 20,
            rebase: RebasePolicy {
                max_chain_len: 8,
                max_delta_bytes_ratio: 0.0,
            },
        },
    )
    .expect("create");
    // One τ-window timestamp for everything: nothing expires between
    // the cuts, so the delta covers exactly the re-touched targets.
    let t = Timestamp::from_secs(43_200);
    let events: Vec<EdgeEvent> = (0..TARGETS)
        .map(|i| EdgeEvent::follow(UserId(11 + i % 3), UserId(1_000_000 + i), t))
        .collect();
    for chunk in events.chunks(256) {
        pe.on_events(chunk).expect("ingest");
    }
    pe.checkpoint().expect("full cut");
    let touch: Vec<EdgeEvent> = (0..DIRTY)
        .map(|i| EdgeEvent::follow(UserId(77), UserId(1_000_000 + i * (TARGETS / DIRTY)), t))
        .collect();
    pe.on_events(&touch).expect("re-touch");
    pe.checkpoint().expect("delta cut");

    let size_of = |ext: &str| -> u64 {
        std::fs::read_dir(tmp.path())
            .expect("read checkpoint dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == ext))
            .map(|e| e.metadata().expect("metadata").len())
            .max()
            .unwrap_or(0)
    };
    let full = size_of("mgck");
    let inc = size_of("mgci");
    let dirty_pct = 100.0 * DIRTY as f64 / TARGETS as f64;
    json.int("checkpoint_full_bytes", full);
    json.int("checkpoint_incremental_bytes", inc);
    json.num("checkpoint_incremental_dirty_pct", dirty_pct);
    json.num(
        "checkpoint_incremental_bytes_pct_of_full",
        100.0 * inc as f64 / full as f64,
    );
    println!(
        "  full {full} B vs incremental {inc} B at {dirty_pct:.1}% dirty \
         ({:.1}% of full)",
        100.0 * inc as f64 / full as f64
    );
    assert!(
        full > 0 && inc > 0,
        "both cuts must have landed (full {full} B, incremental {inc} B)"
    );
    assert!(
        inc * 10 < full,
        "an incremental checkpoint at {dirty_pct:.1}% dirty ({inc} B) must write <10% of \
         the full checkpoint ({full} B)"
    );
}

/// The instrumentation-overhead guard: the celebrity trace through two
/// `ConcurrentEngine`s differing only in their metrics registry — a
/// live [`Registry::new`] (striped-atomic counters plus the detect-time
/// histogram) vs [`Registry::disabled`], where every stat update is one
/// branch on a cold bool. Arms alternate per round and the guard
/// compares min-of-rounds rather than medians: noise on a shared box
/// only ever *adds* time, so the per-arm minimum is the honest floor
/// and the ratio of floors isolates the instrumentation itself.
/// **Guard**: live instrumentation costs ≤3% over disabled
/// (`MAGICRECS_OBS_GUARD_PCT` overrides the bar), with one full
/// re-measurement before aborting — the obs-smoke CI job runs this via
/// `--obs-only`.
///
/// [`Registry::new`]: magicrecs_obs::Registry::new
/// [`Registry::disabled`]: magicrecs_obs::Registry::disabled
fn run_obs_guard(json: &mut Json) {
    use magicrecs_core::ConcurrentEngine;
    use magicrecs_obs::Registry;

    let limit_pct: f64 = std::env::var("MAGICRECS_OBS_GUARD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    println!("# instrumentation overhead: live registry vs disabled (guard {limit_pct}%)");
    let graph = celebrity_graph();
    let trace = celebrity_trace(2_000);
    let config = DetectorConfig::production();

    // One timed replay: fresh engine each time (store state must not
    // accumulate across rounds), construction untimed, events through
    // the batched hot path the cluster workers use.
    let replay = |enabled: bool| -> f64 {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let engine =
            ConcurrentEngine::with_registry(graph.clone(), config, registry).expect("engine");
        let mut out = Vec::new();
        let mut n = 0usize;
        let start = Instant::now();
        for chunk in trace.chunks(64) {
            out.clear();
            n += engine.on_events_into(chunk, &mut out);
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / trace.len() as f64
    };
    let measure = || -> (f64, f64) {
        let _ = replay(true); // warm-up: page cache, allocator, interner
        let _ = replay(false);
        let (mut live, mut off) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            live = live.min(replay(true));
            off = off.min(replay(false));
        }
        (live, off)
    };
    let (mut live, mut off) = measure();
    let mut overhead_pct = (live / off - 1.0) * 100.0;
    if overhead_pct > limit_pct {
        println!("  overhead {overhead_pct:.2}% above the {limit_pct}% guard — remeasuring once");
        (live, off) = measure();
        overhead_pct = (live / off - 1.0) * 100.0;
    }
    json.num("obs_instrumented_ns_per_event", live);
    json.num("obs_disabled_ns_per_event", off);
    // Small signed percentages need more than `num`'s one decimal.
    json.set("obs_overhead_pct", Val::Raw(format!("{overhead_pct:.2}")));
    println!("  instrumented {live:.0} vs disabled {off:.0} ns/event ({overhead_pct:+.2}%)");
    assert!(
        overhead_pct <= limit_pct,
        "live instrumentation ({live:.0} ns/event) costs {overhead_pct:.2}% over the disabled \
         registry ({off:.0} ns/event), above the {limit_pct}% guard in two independent \
         measurements (MAGICRECS_OBS_GUARD_PCT overrides the bar)"
    );
}

/// Persistence arms: snapshot refresh (full rebuild vs delta apply on a
/// ~1%-changed graph), WAL single-vs-group-commit append cost, and
/// crash-recovery replay rate. Keys are merge-recorded like everything
/// else; `--no-persist` keeps the previous values.
fn run_persist(json: &mut Json) {
    use magicrecs_core::ConcurrentEngine;
    use magicrecs_graph::GraphDelta;
    use magicrecs_persist::{FsyncPolicy, PersistOptions, PersistentConcurrentEngine, TempDir};

    println!("# persistence (snapshot refresh / wal / recovery)");
    let base = bench_graph();
    // A refreshed world touching ~1% of edges: drop every 200th edge
    // (0.5%) and add as many fresh follows (new users included).
    let mut edges: Vec<(UserId, UserId)> = base
        .iter_forward()
        .flat_map(|(a, ts)| ts.into_iter().map(move |b| (a, b)))
        .collect();
    let total = edges.len();
    let mut keep = Vec::with_capacity(total);
    for (i, e) in edges.drain(..).enumerate() {
        if i % 200 != 0 {
            keep.push(e);
        }
    }
    let dropped = total - keep.len();
    for i in 0..dropped as u64 {
        // Half the additions come from brand-new (higher-id) users, half
        // re-wire existing ones.
        let src = if i % 2 == 0 {
            UserId(30_000_000 + i)
        } else {
            UserId(1 + i % 20_000)
        };
        keep.push((src, UserId(40_000_000 + i % 500)));
    }
    let new_graph = {
        let mut gb = GraphBuilder::with_capacity(keep.len());
        gb.extend(keep.iter().copied());
        gb.build()
    };
    let delta = GraphDelta::between(&base, &new_graph, 0, 1).expect("valid refresh delta");
    let changed_pct = 100.0 * delta.len() as f64 / total as f64;
    println!(
        "  delta: {} of {} edges changed ({changed_pct:.2}%)",
        delta.len(),
        total
    );

    // Both arms measure "construct the refreshed S" — the engine publish
    // itself (swap_graph / swap_graph_delta) is a pointer swap common to
    // both and is exercised for correctness below, not timed separately.
    let full_ns = time_ns(1, 5, || {
        let mut gb = GraphBuilder::with_capacity(keep.len());
        gb.extend(keep.iter().copied());
        black_box(gb.build());
    });
    let delta_ns = time_ns(1, 5, || {
        black_box(base.apply_delta(&delta).expect("delta applies"));
    });
    json.num("snapshot_full_refresh_ns", full_ns);
    json.num("snapshot_delta_refresh_ns", delta_ns);
    json.num("snapshot_delta_changed_pct", changed_pct);
    json.num("speedup_snapshot_delta_over_full", full_ns / delta_ns);
    println!(
        "  full rebuild {:.1} ms vs delta apply {:.1} ms ({:.1}x)",
        full_ns / 1e6,
        delta_ns / 1e6,
        full_ns / delta_ns
    );
    assert!(
        delta_ns < full_ns,
        "delta refresh ({delta_ns:.0} ns) must beat the full rebuild ({full_ns:.0} ns) \
         on a {changed_pct:.2}% delta"
    );
    // And the engine-level publish path agrees with the full swap.
    let engine =
        ConcurrentEngine::new(base.clone(), DetectorConfig::production()).expect("engine builds");
    engine.swap_graph_delta(&delta).expect("delta swap");
    assert_eq!(
        engine.graph().num_follow_edges(),
        new_graph.num_follow_edges()
    );

    // WAL append cost, single vs group commit.
    run_wal(json);

    // Crash-recovery replay rate: a full run's WAL replayed through the
    // store with emission suppressed. Ingest goes through the batched
    // path (the deployment hot path); the log is byte-identical either
    // way.
    let wal_trace = bench_trace(20_000, 2_000.0, 25, 0x3A1);
    let wal_events = wal_trace.events();
    let tmp = TempDir::new("bench-recovery");
    // One WAL partition and no checkpoint: the whole log replays.
    let pe = PersistentConcurrentEngine::create(
        tmp.path(),
        base.clone(),
        0,
        DetectorConfig::production(),
        1,
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 4 << 20,
            ..PersistOptions::default()
        },
    )
    .expect("create");
    for chunk in wal_events.chunks(64) {
        pe.on_events(chunk).expect("ingest");
    }
    pe.sync().expect("sync");
    drop(pe);
    let start = Instant::now();
    let (_, report) = PersistentConcurrentEngine::open(
        tmp.path(),
        DetectorConfig::production(),
        magicrecs_graph::CapStrategy::None,
        1,
        PersistOptions::default(),
    )
    .expect("recover");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.replayed as usize, wal_events.len());
    let rate = report.replayed as f64 / secs;
    json.num("recovery_events_per_sec", rate);
    println!(
        "  recovery replayed {} events in {:.2}s ({:.0} events/sec, snapshot load included)",
        report.replayed, secs, rate
    );

    // Non-quiescent checkpoint tax + incremental chain size (PR 7).
    run_live_checkpoint(json);
    run_checkpoint_bytes(json);
}

fn main() {
    let args = parse_args();
    if args.concurrent_only {
        // CI smoke: run the scaling arm, print, leave the committed
        // baseline untouched.
        let mut json = Json::new();
        run_concurrent(&mut json, args.max_threads);
        return;
    }
    if args.persist_only {
        // CI persist-smoke: persistence arms (including the delta<full
        // hard assert), no JSON rewrite.
        let mut json = Json::new();
        run_persist(&mut json);
        return;
    }
    if args.wal_only {
        // CI bench-smoke: the group-commit guard alone, no JSON rewrite.
        let mut json = Json::new();
        run_wal(&mut json);
        return;
    }
    if args.ckpt_only {
        // CI bench-smoke: the incremental<full checkpoint-size guard
        // alone, no JSON rewrite.
        let mut json = Json::new();
        run_checkpoint_bytes(&mut json);
        return;
    }
    if args.obs_only {
        // CI obs-smoke: the instrumentation-overhead guard alone, no
        // JSON rewrite.
        let mut json = Json::new();
        run_obs_guard(&mut json);
        return;
    }

    let mut json = Json::new();
    json.str("units", "ns_per_op");
    json.str(
        "note",
        "hot-path baseline written by `cargo run -p magicrecs-bench --release --bin hotpath` \
         (merge semantics: unmeasured keys survive)",
    );
    json.str("simd_level", &format!("{:?}", simd_level()));

    // ---- S lookup: dense CSR vs seed hash-CSR ---------------------------
    println!("# s_lookup");
    let graph = small_graph(20_000);
    let seed_csr = SeedHashCsr::from_graph(&graph);
    let probe_users: Vec<UserId> = graph
        .iter_inverse()
        .map(|(b, _)| b)
        .step_by(7)
        .take(4096)
        .collect();
    let probe_dense: Vec<DenseId> = probe_users
        .iter()
        .map(|&b| graph.dense_of(b).expect("interned"))
        .collect();
    let dense_ns = time_ns(256, 5, || {
        let mut total = 0usize;
        for &d in &probe_dense {
            total += black_box(graph.followers_dense(d)).len();
        }
        black_box(total);
    }) / probe_dense.len() as f64;
    let seed_ns = time_ns(256, 5, || {
        let mut total = 0usize;
        for &b in &probe_users {
            total += black_box(seed_csr.followers(b)).len();
        }
        black_box(total);
    }) / probe_users.len() as f64;
    json.obj(
        "s_lookup_20k_users",
        &[("dense_csr", dense_ns), ("seed_hash_csr", seed_ns)],
    );
    println!("  dense {dense_ns:.1} ns vs seed hash {seed_ns:.1} ns");

    // ---- two-list intersection at celebrity skew ------------------------
    println!("# intersect (256 vs 1M), SIMD level {:?}", simd_level());
    let mut rng = StdRng::seed_from_u64(0xB1);
    let short = sorted_ids(256, 10_000_000, &mut rng);
    let long = sorted_ids(1_000_000, 10_000_000, &mut rng);
    let (short_d, long_d) = (as_dense(&short), as_dense(&long));
    let mut out: Vec<UserId> = Vec::with_capacity(short.len());
    let mut arm = |f: fn(&[UserId], &[UserId], &mut Vec<UserId>)| {
        time_ns(64, 5, || {
            out.clear();
            f(black_box(&short), black_box(&long), &mut out);
            black_box(out.len());
        })
    };
    let (merge, gallop, adaptive) = (
        arm(intersect_merge),
        arm(intersect_gallop),
        arm(intersect_adaptive),
    );
    let mut out_d: Vec<DenseId> = Vec::with_capacity(short_d.len());
    let mut arm_d = |f: fn(&[DenseId], &[DenseId], &mut Vec<DenseId>)| {
        time_ns(64, 5, || {
            out_d.clear();
            f(black_box(&short_d), black_box(&long_d), &mut out_d);
            black_box(out_d.len());
        })
    };
    let (merge_dense, gallop_dense, merge_simd, gallop_simd) = (
        arm_d(intersect_merge),
        arm_d(intersect_gallop),
        arm_d(intersect_merge_simd),
        arm_d(intersect_gallop_simd),
    );
    json.obj(
        "intersect_256_vs_1m",
        &[
            ("merge", merge),
            ("gallop", gallop),
            ("adaptive", adaptive),
            ("merge_dense", merge_dense),
            ("gallop_dense", gallop_dense),
            ("merge_simd", merge_simd),
            ("gallop_simd", gallop_simd),
        ],
    );
    println!("  u64:  merge {merge:.0} gallop {gallop:.0} adaptive {adaptive:.0}");
    println!(
        "  u32:  merge {merge_dense:.0} gallop {gallop_dense:.0} \
         merge_simd {merge_simd:.0} gallop_simd {gallop_simd:.0}"
    );
    println!(
        "  simd merge speedup: {:.1}x vs u64 merge, {:.1}x vs u32 merge",
        merge / merge_simd,
        merge_dense / merge_simd
    );
    // Under forced-scalar dispatch (or on non-x86-64) merge_simd *is* the
    // scalar merge, so the comparison would be pure noise — only assert
    // when a vector tier actually ran.
    if simd_level() != SimdLevel::Scalar {
        assert!(
            merge_simd < merge,
            "SIMD merge ({merge_simd:.0} ns) must beat scalar intersect_merge ({merge:.0} ns) \
             on the 256-vs-1M fixture"
        );
    }

    // ---- threshold kernels ----------------------------------------------
    // Arms are interleaved round-robin across sample batches: the 1.2×
    // adaptive guard compares arms against each other, so slow frequency
    // drift must hit every arm equally rather than whichever ran last.
    let threshold_arms = |lists: &[Vec<UserId>], k: usize, iters: u64| -> Vec<(&str, f64)> {
        let slices: Vec<&[UserId]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut out: Vec<(UserId, u32)> = Vec::new();
        let medians = interleaved_medians(THRESHOLD_ARMS.len(), |round, ai| {
            let algo = THRESHOLD_ARMS[ai].1;
            // Shorter warm-up round for the expensive arms.
            let iters = if round == 0 { iters.min(8) } else { iters };
            let start = Instant::now();
            for _ in 0..iters {
                out.clear();
                threshold_intersect(algo, black_box(&slices), k, &mut out);
                black_box(out.len());
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        });
        THRESHOLD_ARMS
            .iter()
            .zip(medians)
            .map(|(&(name, _), ns)| (name, ns))
            .collect()
    };

    println!("# threshold balanced (8 x 2000, k=2)");
    let mut rng = StdRng::seed_from_u64(0xB2);
    let balanced: Vec<Vec<UserId>> = (0..8)
        .map(|_| sorted_ids(2_000, 50_000, &mut rng))
        .collect();
    let arms = threshold_arms(&balanced, 2, 128);
    json.obj("threshold_balanced_8x2000_k2", &arms);
    for (n, v) in &arms {
        println!("  {n} {v:.0}");
    }
    guard_adaptive("threshold_balanced_8x2000_k2", arms, 1.2, || {
        threshold_arms(&balanced, 2, 128)
    });

    println!("# threshold celebrity (4 x 256 + 1 x 1M, k=3)");
    let mut rng = StdRng::seed_from_u64(0xCE1E);
    let mut celeb_lists: Vec<Vec<UserId>> = (0..4)
        .map(|_| sorted_ids(256, 10_000_000, &mut rng))
        .collect();
    celeb_lists.push(sorted_ids(1_000_000, 10_000_000, &mut rng));
    let arms = threshold_arms(&celeb_lists, 3, 32);
    // Seed's adaptive picked the heap at n ≤ 8.
    let seed_adaptive = arms
        .iter()
        .find(|(n, _)| *n == "heap_merge")
        .expect("arm present")
        .1;
    let new_adaptive = arms
        .iter()
        .find(|(n, _)| *n == "adaptive")
        .expect("arm present")
        .1;
    let mut fields: Vec<(&str, f64)> = arms.clone();
    fields.push(("seed_adaptive", seed_adaptive));
    json.obj("threshold_celebrity_4x256_1x1m_k3", &fields);
    let kernel_speedup = seed_adaptive / new_adaptive;
    json.num("speedup_threshold_celebrity_seed_over_new", kernel_speedup);
    for (n, v) in &arms {
        println!("  {n} {v:.0}");
    }
    println!("  kernel speedup vs seed adaptive: {kernel_speedup:.1}x");
    guard_adaptive("threshold_celebrity_4x256_1x1m_k3", arms, 1.2, || {
        threshold_arms(&celeb_lists, 3, 32)
    });

    // ---- high-fan-in threshold: where the loser tree earns its keep -----
    // 40 witness lists, k=2 → 39 generator lists (2.4× the old 16-generator
    // cap), one celebrity tail. The linear min-scan pays O(39) per pivot;
    // the tree pays O(log 39).
    println!("# threshold high fan-in (39 x 512 + 1 x 1M, k=2)");
    let mut rng = StdRng::seed_from_u64(0xFA91);
    let mut fan_lists: Vec<Vec<UserId>> = (0..39)
        .map(|_| sorted_ids(512, 10_000_000, &mut rng))
        .collect();
    fan_lists.push(sorted_ids(1_000_000, 10_000_000, &mut rng));
    let arms = threshold_arms(&fan_lists, 2, 16);
    json.obj("threshold_fanin_39x512_1x1m_k2", &arms);
    for (n, v) in &arms {
        println!("  {n} {v:.0}");
    }

    // ---- end-to-end detector, Zipf steady trace -------------------------
    // Like the threshold fixtures, arm samples interleave round-robin so
    // box-level frequency drift cannot favor whichever arm ran last.
    println!("# detector on Zipf steady trace (20k users, k=3)");
    let trace = bench_trace(20_000, 2_000.0, 10, 0xD1);
    // Engine construction (graph clone, store build) stays untimed.
    let run_zipf = |algo: ThresholdAlgo| -> f64 {
        let mut engine =
            Engine::with_algo(graph.clone(), DetectorConfig::production(), algo).unwrap();
        let mut n = 0usize;
        let start = Instant::now();
        for &e in trace.events() {
            n += engine.on_event(e).len();
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / trace.len() as f64
    };
    let medians = interleaved_medians(THRESHOLD_ARMS.len(), |_, ai| run_zipf(THRESHOLD_ARMS[ai].1));
    let mut fields: Vec<(&str, f64)> = Vec::new();
    for (&(name, _), ns) in THRESHOLD_ARMS.iter().zip(medians) {
        println!("  {name} {ns:.0} ns/event");
        fields.push((name, ns));
    }
    json.obj("detector_zipf_20k_k3_ns_per_event", &fields);

    // ---- end-to-end detector, celebrity workload ------------------------
    // 512 As follow 4 ordinary Bs; 200k extra users follow the celebrity
    // B too. Per round, the 4 ordinary Bs act on a fresh C and then the
    // celebrity acts, forcing a k-of-5 threshold against the 200k-follower
    // list on every closing event.
    println!("# detector on celebrity workload (k=3)");
    let celeb = UserId(9_000_000);
    let celeb_graph = celebrity_graph();
    let rounds = 200u64;
    let run_celeb = |algo: ThresholdAlgo| -> f64 {
        let mut engine =
            Engine::with_algo(celeb_graph.clone(), DetectorConfig::production(), algo).unwrap();
        let mut n = 0usize;
        let start = Instant::now();
        for round in 0..rounds {
            let c = UserId(20_000_000 + round);
            let t = Timestamp::from_secs(round * 3600);
            for b in 0..4u64 {
                n += engine
                    .on_event(EdgeEvent::follow(UserId(1_000_000 + b), c, t))
                    .len();
            }
            n += engine.on_event(EdgeEvent::follow(celeb, c, t)).len();
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / (rounds * 5) as f64
    };
    // The dense-witness replay arm: the same celebrity trace through a
    // dense-keyed `D` (`InterningIngest` seeded from the graph) feeding
    // `detect_dense_into` — no per-witness interner probe, no
    // dense→sparse→dense round trip. Adaptive algorithm, like the engine
    // default it races.
    let run_dense_witness = || -> f64 {
        let config = DetectorConfig::production();
        let store: TemporalEdgeStore<DenseId> =
            TemporalEdgeStore::new(config.tau, PruneStrategy::Wheel);
        let mut ingest = InterningIngest::new(&celeb_graph, store);
        let mut det = DiamondDetector::new(config).unwrap();
        let mut out = Vec::new();
        let mut n = 0usize;
        let start = Instant::now();
        for round in 0..rounds {
            let c = UserId(20_000_000 + round);
            let t = Timestamp::from_secs(round * 3600);
            for b in 0..4u64 {
                out.clear();
                n += ingest.on_event_detect_dense_into(
                    &mut det,
                    &celeb_graph,
                    EdgeEvent::follow(UserId(1_000_000 + b), c, t),
                    &mut out,
                );
            }
            out.clear();
            n += ingest.on_event_detect_dense_into(
                &mut det,
                &celeb_graph,
                EdgeEvent::follow(celeb, c, t),
                &mut out,
            );
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / (rounds * 5) as f64
    };
    // Interleaved like the other arm sets; `dense_witness` rides as a
    // sixth arm so it shares every drift the engine arms see.
    let medians = interleaved_medians(THRESHOLD_ARMS.len() + 1, |_, ai| match ai {
        i if i < THRESHOLD_ARMS.len() => run_celeb(THRESHOLD_ARMS[i].1),
        _ => run_dense_witness(),
    });
    let arm_names: Vec<&str> = THRESHOLD_ARMS
        .iter()
        .map(|&(n, _)| n)
        .chain(["dense_witness"])
        .collect();
    let mut fields: Vec<(&str, f64)> = Vec::new();
    for (name, ns) in arm_names.iter().zip(medians) {
        println!("  {name} {ns:.0} ns/event");
        fields.push((name, ns));
    }

    // The seed's adaptive at this fan-in (5 ≤ 8 lists) was the heap.
    let seed_e2e = fields
        .iter()
        .find(|(n, _)| *n == "heap_merge")
        .expect("arm present")
        .1;
    let new_e2e = fields
        .iter()
        .find(|(n, _)| *n == "adaptive")
        .expect("arm present")
        .1;
    let mut fields2 = fields.clone();
    fields2.push(("seed_adaptive", seed_e2e));
    json.obj("detector_celebrity_k3_ns_per_event", &fields2);
    let e2e_speedup = seed_e2e / new_e2e;
    json.num("speedup_detector_celebrity_seed_over_new", e2e_speedup);
    println!("  end-to-end speedup vs seed adaptive: {e2e_speedup:.1}x");

    // ---- concurrent engine scaling --------------------------------------
    if !args.no_concurrent {
        run_concurrent(&mut json, args.max_threads);
    }

    // ---- persistence: delta refresh, WAL append, recovery replay --------
    if !args.no_persist {
        run_persist(&mut json);
    }

    // ---- instrumentation overhead: live registry vs disabled ------------
    run_obs_guard(&mut json);

    // ---- merge + write --------------------------------------------------
    let path = args.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
            .join("BENCH_hotpath.json")
    });
    json.merge_into_file(&path);
    println!("\nwrote {}", path.display());
}
