//! Adversity experiment runner: a declarative scenario × fault matrix
//! over the persistent engine, with per-cell invariants and one
//! machine-readable JSON trajectory per run.
//!
//! Each cell pairs an adversity scenario (flash crowd on a dormant
//! vertex, unfollow/refollow churn storm, Zipf-exponent sweep) with a
//! fault column (none, crash, injected fsync failure, injected torn
//! write). The run drives a [`PersistentConcurrentEngine`] on one WAL
//! partition, checkpointing every [`CHECKPOINT_EVERY`] events, through
//! the scenario
//! trace via the stream playback seam, injects the fault at a scheduled
//! event index, crash-recovers with a clean I/O backend, resumes over
//! the tail, and checks three invariants against a fault-free twin:
//!
//! 1. **Parity** — pre-fault + post-recovery candidates must equal the
//!    twin's candidates for the acknowledged prefix plus the resumed
//!    tail, in order.
//! 2. **No duplicate emissions** — `next_seq ≥ acked`: an event whose
//!    ingest was acknowledged is never re-emitted after recovery
//!    (replay suppresses emission; the resume tail starts at
//!    `next_seq`).
//! 3. **Typed errors only** — an injected fault surfaces as
//!    `Error::Io`/`Corrupt`/`Invariant`; any panic fails the harness.
//!
//! Two extra cells (`checkpoint_under_flash_crowd`, fault columns none
//! and fsync_fail) drive a [`PersistentConcurrentEngine`] with a live
//! [`CheckpointDriver`] cutting non-quiescent incremental checkpoints
//! *while* the flash-crowd storm runs, then crash-recover the directory
//! and hold the same invariants — the checkpoint chain taken mid-storm
//! must restore to candidate parity.
//!
//! Two replication cells (`leader_kill9_mid_ingest`,
//! `rebalance_under_flash_crowd`) bring up a 3-process loopback
//! replica cluster — this binary re-exec'd in `--replica-node` mode,
//! so each node is a real OS process that can be killed with SIGKILL —
//! then kill -9 the partition leader mid-ingest (promote the warm
//! follower, finish the stream, candidate parity modulo the acked-tail
//! contract) and live-rebalance the partition under the flash-crowd
//! trace (zero acked-event loss, exact parity). Both cells are red
//! unless the promoted node's flight-recorder dump names the
//! promotion.
//!
//! Usage: `adversity [out_dir] [--metrics-out <path>]` (default
//! `target/adversity`). Exits non-zero if any cell is red.
//! `MAGICRECS_ADVERSITY_SEED` overrides the base seed (recorded in
//! every trajectory for exact replay). The internal
//! `--replica-node --config <map> --node <id> --data <dir>` mode runs
//! a single replica node and parks (used only by the replication
//! cells).
//!
//! Every fault cell also writes a **flight-recorder dump**
//! (`<scenario>-<fault>.trace`): the `magicrecs-obs` recorder's
//! sequence-ordered tail of rare-path events (injected faults, WAL
//! poisons, fsync failures, checkpoint fences) scoped to that cell.
//! Fsync-failure cells are red unless the dump names the injected
//! `sync` operation — the crash-dump path is itself under test. With
//! `--metrics-out`, the final process-wide registry scrape (WAL append
//! /fsync/poison counters, checkpoint bytes, batch-size sketch) merges
//! into the given JSON file.

use magicrecs_bench::{header, row};
use magicrecs_cluster::SharedEngineCluster;
use magicrecs_core::{ConcurrentEngine, Engine};
use magicrecs_gen::adversity::{AdversitySpec, Episode};
use magicrecs_graph::{CapStrategy, FollowGraph, GraphBuilder};
use magicrecs_obs::recorder;
use magicrecs_persist::{
    CheckpointDriver, FaultMode, FaultOp, FaultPlan, FaultSpec, FaultVfs, FsyncPolicy,
    PersistOptions, PersistentConcurrentEngine, RebasePolicy, TempDir,
};
use magicrecs_replica::{ClusterMap, Coordinator, Node, NodeConfig, RoutedClient};
use magicrecs_server::{
    AdmissionConfig, ClientConn, Frame, Server, ServerConfig, ShedCode, WireStats,
};
use magicrecs_stream::playback::{play, PlaybackControl};
use magicrecs_types::{Candidate, DetectorConfig, Duration, EdgeEvent, Error, Timestamp, UserId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SCENARIOS: [&str; 4] = ["flash_crowd", "churn_storm", "skew_low", "skew_high"];
const FAULTS: [Fault; 4] = [
    Fault::None,
    Fault::Crash,
    Fault::FsyncFail,
    Fault::TornWrite,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Uninterrupted run (the engine-under-harness control cell).
    None,
    /// Ungraceful kill at the injection point, then recover + resume.
    Crash,
    /// Armed `FaultPlan::fail_nth_sync` — the fsync the policy promised
    /// cannot be delivered; the WAL must poison, never lie.
    FsyncFail,
    /// Armed `FaultPlan::torn_nth_write` — a prefix of the write lands,
    /// then the device errors — paired with a failed rewind, so the
    /// tear stays on disk and the WAL must poison (a rewound tear is
    /// retried in place by the WAL and never surfaces).
    TornWrite,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Crash => "crash",
            Fault::FsyncFail => "fsync_fail",
            Fault::TornWrite => "torn_write",
        }
    }
}

/// Deterministic per-cell seed: base seed mixed with the cell's matrix
/// coordinates (splitmix64 finalizer).
fn cell_seed(base: u64, scenario_idx: usize, fault_idx: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + scenario_idx as u64 * 7))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + fault_idx as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scenario half of a cell: a seeded [`AdversitySpec`].
fn spec_for(scenario: &str, seed: u64) -> AdversitySpec {
    let base = AdversitySpec::new(scenario, seed)
        .with_users(800)
        .with_rate(40.0)
        .with_duration(Duration::from_secs(30));
    match scenario {
        "flash_crowd" => base.episode(Episode::FlashCrowd {
            at: Timestamp::from_secs(10),
            len: Duration::from_secs(5),
            followers: 120,
        }),
        "churn_storm" => base.episode(Episode::ChurnStorm {
            at: Timestamp::from_secs(8),
            len: Duration::from_secs(15),
            churners: 40,
            rounds: 6,
        }),
        // The Zipf sweep: same background shape, opposite skew extremes.
        "skew_low" => base.with_alpha(0.6),
        "skew_high" => base.with_alpha(1.4),
        other => panic!("unknown scenario {other}"),
    }
}

fn engine_opts(fault: Fault) -> PersistOptions {
    PersistOptions {
        // FsyncFail cells sync on every durability unit so the injected
        // nth-sync failure lands deterministically inside ingest; the
        // rest run the batched default the paper-scale deployment uses.
        fsync: if fault == Fault::FsyncFail {
            FsyncPolicy::Always
        } else {
            FsyncPolicy::EveryN(8)
        },
        segment_bytes: 32 * 1024,
        rebase: RebasePolicy::DISABLED,
    }
}

/// Events between the scenario cells' checkpoints.
const CHECKPOINT_EVERY: u64 = 256;

/// One durable ingest step of a scenario cell: the event, then a
/// checkpoint once [`CHECKPOINT_EVERY`] events have landed since the
/// last one (a failed cut fails the step and is retried on the next).
fn ingest(
    engine: &PersistentConcurrentEngine,
    event: EdgeEvent,
    since: &mut u64,
) -> Result<Vec<Candidate>, Error> {
    let out = engine.on_event(event)?;
    *since += 1;
    if *since >= CHECKPOINT_EVERY {
        engine.checkpoint()?;
        *since = 0;
    }
    Ok(out)
}

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        max_witnesses: Some(8),
        ..DetectorConfig::example()
    }
}

/// FNV-1a over the candidate stream — a cheap order-sensitive digest so
/// trajectories can be compared across runs without storing the stream.
fn digest(candidates: &[Candidate]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    for c in candidates {
        mix(c.user.raw());
        mix(c.target.raw());
        mix(c.triggered_at.as_micros());
    }
    h
}

fn err_kind(e: &Error) -> &'static str {
    match e {
        Error::Io(_) => "Io",
        Error::Corrupt(_) => "Corrupt",
        Error::Invariant(_) => "Invariant",
        _ => "other",
    }
}

/// Minimal JSON escaping for the strings this harness emits.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Ordered flat JSON document (one trajectory per run).
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn raw(&mut self, key: &str, v: impl std::fmt::Display) {
        self.0.push((key.to_string(), v.to_string()));
    }
    fn str(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), json_str(v)));
    }
    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  {}: {v}", json_str(k)))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

/// Writes the flight-recorder tail recorded since `since` (scoped via
/// [`recorder::current_seq`] — the recorder is process-global and this
/// harness runs many cells) to `<scenario>-<fault>.trace`. For
/// injection columns, also checks the dump **names the injected
/// operation** via a `fault_injected` event — the crash-dump path is
/// itself under test here, not just the recovery path.
fn write_flight_dump(
    scenario: &str,
    fault: Fault,
    since: u64,
    out_dir: &Path,
    notes: &mut Vec<String>,
) -> bool {
    let events = recorder::dump_since(since);
    let dump = recorder::format_events(&events);
    let path = out_dir.join(format!("{}-{}.trace", scenario, fault.name()));
    if let Err(e) = std::fs::write(&path, &dump) {
        notes.push(format!("FAIL: flight-recorder dump write: {e}"));
        return false;
    }
    let expect_op = match fault {
        Fault::FsyncFail => Some("sync"),
        Fault::TornWrite => Some("write"),
        Fault::None | Fault::Crash => None,
    };
    if let Some(op) = expect_op {
        let named = events
            .iter()
            .any(|e| matches!(e.kind, magicrecs_obs::TraceKind::FaultInjected) && e.label == op);
        if !named {
            notes.push(format!(
                "FAIL: flight-recorder dump must name the injected `{op}` operation"
            ));
            return false;
        }
    }
    true
}

/// The playback context: the engine under test plus the fault backend.
struct Ctx {
    engine: Option<PersistentConcurrentEngine>,
    fault_vfs: Option<FaultVfs>,
    candidates: Vec<Candidate>,
    /// Events ingested since the last checkpoint.
    since: u64,
}

struct CellResult {
    scenario: &'static str,
    fault: Fault,
    green: bool,
    notes: Vec<String>,
    json_path: PathBuf,
}

#[allow(clippy::too_many_lines)]
fn run_cell(
    scenario: &'static str,
    scenario_idx: usize,
    fault: Fault,
    fault_idx: usize,
    base_seed: u64,
    out_dir: &Path,
) -> CellResult {
    let seed = cell_seed(base_seed, scenario_idx, fault_idx);
    let trace_start = recorder::current_seq();
    let spec = spec_for(scenario, seed);
    let trace = spec.build();
    let events = trace.events();
    let at_event = events.len() * 2 / 5;
    let graph = magicrecs_bench::small_graph(spec.users);
    let opts = engine_opts(fault);
    let config = detector_config();

    // Fault-free twin: per-event candidates from a plain in-memory
    // engine (same detection semantics; no disk in the reference).
    let mut twin = Engine::new(graph.clone(), config).expect("twin engine");
    let twin_per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| twin.on_event(e)).collect();

    // The fault half of the cell: which plan arms at the breakpoint.
    let plan = match fault {
        Fault::None | Fault::Crash => FaultPlan::none(),
        Fault::FsyncFail => FaultPlan::fail_nth_sync(1 + seed % 3),
        Fault::TornWrite => FaultPlan::torn_nth_write(1 + seed % 5, seed % 48).and(FaultSpec {
            op: FaultOp::SetLen,
            nth: 1,
            mode: FaultMode::Fail,
        }),
    };

    let dir = TempDir::new("adversity");
    let mut ctx = Ctx {
        engine: None,
        fault_vfs: None,
        candidates: Vec::new(),
        since: 0,
    };
    if plan.specs.is_empty() {
        ctx.engine = Some(
            PersistentConcurrentEngine::create(dir.path(), graph.clone(), 1, config, 1, opts)
                .expect("create engine"),
        );
    } else {
        let fv = FaultVfs::new_disarmed(plan.clone());
        ctx.engine = Some(
            PersistentConcurrentEngine::create_with_vfs(
                dir.path(),
                graph.clone(),
                1,
                config,
                1,
                opts,
                Arc::new(fv.clone()),
            )
            .expect("create engine"),
        );
        ctx.fault_vfs = Some(fv);
    }

    // Segment 1: play until the scheduled injection point does its
    // damage (crash cells stop; fault cells arm and continue until the
    // injected error surfaces).
    let breakpoints = [at_event];
    let report = play(
        events,
        &breakpoints,
        &mut ctx,
        |c, _, e| {
            let out = ingest(c.engine.as_ref().expect("engine alive"), *e, &mut c.since)?;
            c.candidates.extend(out);
            Ok(())
        },
        |c, _| match fault {
            Fault::Crash => PlaybackControl::Stop,
            Fault::FsyncFail | Fault::TornWrite => {
                c.fault_vfs.as_ref().expect("fault backend").set_armed(true);
                PlaybackControl::Continue
            }
            Fault::None => PlaybackControl::Continue,
        },
    );
    let acked = report.ingested;
    let pre_candidates = std::mem::take(&mut ctx.candidates);

    let mut notes: Vec<String> = Vec::new();
    let mut green = true;
    let check = |ok: bool, what: &str, notes: &mut Vec<String>| {
        if !ok {
            notes.push(format!("FAIL: {what}"));
        }
        ok
    };

    let fired = ctx.fault_vfs.as_ref().map(|f| f.fired_count()).unwrap_or(0);
    let error_kind = report.error.as_ref().map(|(_, e)| err_kind(e));
    let error_text = report
        .error
        .as_ref()
        .map(|(i, e)| format!("event {i}: {e}"));

    // Expected end-of-segment shape per fault column.
    match fault {
        Fault::None => {
            green &= check(
                report.completed(),
                "fault-free run must complete",
                &mut notes,
            );
        }
        Fault::Crash => {
            green &= check(
                report.stopped,
                "crash cell must stop at breakpoint",
                &mut notes,
            );
        }
        Fault::FsyncFail | Fault::TornWrite => {
            green &= check(
                report.error.is_some(),
                "injected fault must surface as an ingest error",
                &mut notes,
            );
            green &= check(fired >= 1, "fault plan must have fired", &mut notes);
            if let Some(kind) = error_kind {
                green &= check(
                    matches!(kind, "Io" | "Corrupt" | "Invariant"),
                    "fault error must be typed Io/Corrupt/Invariant",
                    &mut notes,
                );
            }
        }
    }

    // Segment 2 (all columns but None): ungraceful drop, clean-backend
    // recovery, resume over the tail from the recovered sequence.
    let (next_seq, torn_tail, replayed, post_candidates) = if fault == Fault::None {
        (acked as u64, false, 0u64, Vec::new())
    } else {
        drop(ctx.engine.take()); // the crash: no close(), no final sync
        match PersistentConcurrentEngine::open(dir.path(), config, CapStrategy::None, 1, opts) {
            Ok((recovered, rec)) => {
                let mut post = Vec::new();
                let mut resume_err = None;
                let mut since = 0;
                for &e in &events[rec.next_seq as usize..] {
                    match ingest(&recovered, e, &mut since) {
                        Ok(out) => post.extend(out),
                        Err(e) => {
                            resume_err = Some(e);
                            break;
                        }
                    }
                }
                green &= check(
                    resume_err.is_none(),
                    "resume over the tail must run clean",
                    &mut notes,
                );
                if let Some(e) = resume_err {
                    notes.push(format!("resume error: {e}"));
                }
                (rec.next_seq, rec.torn_tail, rec.replayed, post)
            }
            Err(e) => {
                notes.push(format!("FAIL: recovery failed: {e}"));
                green = false;
                (0, false, 0, Vec::new())
            }
        }
    };

    // Invariant: no duplicate emissions — everything acknowledged
    // before the fault is covered by replay (emission-suppressed),
    // never re-fed.
    green &= check(
        next_seq >= acked as u64,
        "next_seq must cover the acknowledged prefix (duplicate emission hazard)",
        &mut notes,
    );

    // Invariant: post-recovery candidate parity with the fault-free
    // twin. Events in [acked, next_seq) were durable but never
    // acknowledged — their emissions are lost by design (at-most-once
    // on an unacknowledged append), so the expectation skips them.
    let mut expected: Vec<Candidate> = Vec::new();
    for per in twin_per_event.iter().take(acked) {
        expected.extend(per.iter().cloned());
    }
    if (next_seq as usize) < events.len() {
        for per in twin_per_event.iter().skip(next_seq as usize) {
            expected.extend(per.iter().cloned());
        }
    }
    let mut got = pre_candidates.clone();
    got.extend(post_candidates.iter().cloned());
    green &= check(
        got == expected,
        "candidate parity with fault-free twin",
        &mut notes,
    );

    // Post-mortem artifact: fault columns (and any red cell) get the
    // recorder's view of what actually went wrong on the rare path.
    if fault != Fault::None || !green {
        green &= write_flight_dump(scenario, fault, trace_start, out_dir, &mut notes);
    }

    // Trajectory: one machine-readable JSON per run.
    let mut j = Json::default();
    j.str("scenario", scenario);
    j.str("fault", fault.name());
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", spec.users);
    j.raw("alpha", spec.popularity_alpha);
    j.raw("events", events.len());
    j.raw("at_event", at_event);
    j.str("fsync", &format!("{:?}", opts.fsync));
    j.raw("checkpoint_every", CHECKPOINT_EVERY);
    j.str(
        "fault_plan",
        &plan
            .specs
            .iter()
            .map(|s| format!("{s:?}"))
            .collect::<Vec<_>>()
            .join("; "),
    );
    j.raw("fired", fired);
    j.raw("acked", acked);
    j.raw("next_seq", next_seq);
    j.raw("torn_tail", torn_tail);
    j.raw("replayed", replayed);
    j.raw("pre_candidates", pre_candidates.len());
    j.raw("post_candidates", post_candidates.len());
    j.raw("expected_candidates", expected.len());
    j.raw("digest", format!("\"{:016x}\"", digest(&got)));
    j.raw("expected_digest", format!("\"{:016x}\"", digest(&expected)));
    match &error_text {
        Some(t) => j.str("error", t),
        None => j.raw("error", "null"),
    }
    j.raw("green", green);

    let json_path = out_dir.join(format!("{}-{}.json", scenario, fault.name()));
    if let Err(e) = std::fs::write(&json_path, j.render()) {
        notes.push(format!("FAIL: trajectory write: {e}"));
        green = false;
    }

    CellResult {
        scenario,
        fault,
        green,
        notes,
        json_path,
    }
}

/// Blocks until the driver has brought the chain tip within one cadence
/// of the assigned tail (bounded by a 10 s deadline — missing it is not
/// fatal, the chain tip is merely staler and `replayed` larger).
fn await_cadence(engine: &PersistentConcurrentEngine, every: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let lag = match engine.checkpoint_tip() {
            Some(tip) => engine.next_seq().saturating_sub(tip + 1),
            None => engine.next_seq(),
        };
        if lag < every || std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The non-quiescent checkpoint cell: a [`PersistentConcurrentEngine`]
/// ingests the flash-crowd storm while a [`CheckpointDriver`] cuts
/// incremental fence-vector checkpoints concurrently. The fsync column
/// arms a single failing fsync mid-storm; the race decides whether it
/// lands in the WAL path (ingest poisons — crash, recover, resume the
/// tail) or in a checkpoint publish (driver counts a failure, the
/// previous chain tip stays authoritative, ingest never notices). Both
/// outcomes must recover to candidate parity.
#[allow(clippy::too_many_lines)]
fn run_checkpoint_cell(
    fault: Fault,
    fault_idx: usize,
    base_seed: u64,
    out_dir: &Path,
) -> CellResult {
    const SCENARIO: &str = "checkpoint_under_flash_crowd";
    const PARTS: usize = 2;
    let seed = cell_seed(base_seed, SCENARIOS.len(), fault_idx);
    let trace_start = recorder::current_seq();
    let spec = spec_for("flash_crowd", seed);
    let trace = spec.build();
    let events = trace.events();
    let at_event = events.len() * 2 / 5;
    let graph = magicrecs_bench::small_graph(spec.users);
    let config = detector_config();
    // Incremental chain: driver cuts rebase to a full checkpoint every
    // 4 deltas; a 128-event cadence fires many times over the storm.
    const DRIVER_EVERY: u64 = 128;
    let opts = PersistOptions {
        rebase: RebasePolicy {
            max_chain_len: 4,
            max_delta_bytes_ratio: 0.0,
        },
        ..engine_opts(fault)
    };

    let mut twin = Engine::new(graph.clone(), config).expect("twin engine");
    let twin_per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| twin.on_event(e)).collect();

    let plan = match fault {
        Fault::FsyncFail => FaultPlan::fail_nth_sync(1 + seed % 3),
        _ => FaultPlan::none(),
    };

    struct CkptCtx {
        engine: Arc<PersistentConcurrentEngine>,
        fault_vfs: Option<FaultVfs>,
        candidates: Vec<Candidate>,
    }

    let dir = TempDir::new("adversity-ckpt");
    let mut ctx = if plan.specs.is_empty() {
        CkptCtx {
            engine: Arc::new(
                PersistentConcurrentEngine::create(
                    dir.path(),
                    graph.clone(),
                    1,
                    config,
                    PARTS,
                    opts,
                )
                .expect("create engine"),
            ),
            fault_vfs: None,
            candidates: Vec::new(),
        }
    } else {
        let fv = FaultVfs::new_disarmed(plan.clone());
        CkptCtx {
            engine: Arc::new(
                PersistentConcurrentEngine::create_with_vfs(
                    dir.path(),
                    graph.clone(),
                    1,
                    config,
                    PARTS,
                    opts,
                    Arc::new(fv.clone()),
                )
                .expect("create engine"),
            ),
            fault_vfs: Some(fv),
            candidates: Vec::new(),
        }
    };
    let driver = CheckpointDriver::spawn(
        Arc::clone(&ctx.engine),
        DRIVER_EVERY,
        std::time::Duration::from_millis(1),
    );

    // Segment 1: the storm plays on the main thread while the driver
    // checkpoints from its own; the fault (if any) arms mid-storm.
    let report = play(
        events,
        &[at_event],
        &mut ctx,
        |c, _, e| {
            let out = c.engine.on_event(*e)?;
            c.candidates.extend(out);
            Ok(())
        },
        |c, _| {
            if let Some(fv) = &c.fault_vfs {
                fv.set_armed(true);
            }
            PlaybackControl::Continue
        },
    );
    let acked = report.ingested;
    let pre_candidates = std::mem::take(&mut ctx.candidates);

    let mut notes: Vec<String> = Vec::new();
    let mut green = true;
    let check = |ok: bool, what: &str, notes: &mut Vec<String>| {
        if !ok {
            notes.push(format!("FAIL: {what}"));
        }
        ok
    };

    let fired = ctx.fault_vfs.as_ref().map(|f| f.fired_count()).unwrap_or(0);
    let error_kind = report.error.as_ref().map(|(_, e)| err_kind(e));
    let error_text = report
        .error
        .as_ref()
        .map(|(i, e)| format!("event {i}: {e}"));

    // Let the driver close the cadence gap while the engine is idle —
    // unless the WAL is poisoned, where every further cut fails by
    // design and waiting would only burn the deadline.
    if report.error.is_none() {
        await_cadence(&ctx.engine, DRIVER_EVERY);
    }
    let (driver_completed, driver_failures) = driver.stop();

    match fault {
        Fault::None => {
            green &= check(
                report.completed(),
                "fault-free run must complete",
                &mut notes,
            );
            green &= check(
                driver_completed >= 1,
                "driver must checkpoint at least once during the storm",
                &mut notes,
            );
            green &= check(driver_failures == 0, "no driver failures", &mut notes);
        }
        Fault::FsyncFail => {
            green &= check(fired >= 1, "fault plan must have fired", &mut notes);
            if let Some(kind) = error_kind {
                // WAL-path landing: ingest must refuse with a typed error.
                green &= check(
                    matches!(kind, "Io" | "Corrupt" | "Invariant"),
                    "fault error must be typed Io/Corrupt/Invariant",
                    &mut notes,
                );
            } else {
                // Checkpoint-path landing: ingest is untouched, the
                // driver absorbed the failure and retried.
                green &= check(
                    report.completed() && driver_failures >= 1,
                    "checkpoint-path fault must be absorbed by the driver",
                    &mut notes,
                );
            }
        }
        Fault::Crash | Fault::TornWrite => unreachable!("not a checkpoint-cell column"),
    }

    // Segment 2: ungraceful drop (driver already joined, so our Arc is
    // the last), clean-backend recovery, resume over the tail.
    drop(ctx);
    let (next_seq, replayed, checkpoint_seq, post_candidates) =
        match PersistentConcurrentEngine::open(dir.path(), config, CapStrategy::None, PARTS, opts) {
            Ok((recovered, rec)) => {
                let mut post = Vec::new();
                let mut resume_err = None;
                for &e in &events[rec.next_seq as usize..] {
                    match recovered.on_event(e) {
                        Ok(out) => post.extend(out),
                        Err(e) => {
                            resume_err = Some(e);
                            break;
                        }
                    }
                }
                green &= check(
                    resume_err.is_none(),
                    "resume over the tail must run clean",
                    &mut notes,
                );
                if let Some(e) = resume_err {
                    notes.push(format!("resume error: {e}"));
                }
                (rec.next_seq, rec.replayed, rec.checkpoint_seq, post)
            }
            Err(e) => {
                notes.push(format!("FAIL: recovery failed: {e}"));
                green = false;
                (0, 0, None, Vec::new())
            }
        };

    green &= check(
        next_seq >= acked as u64,
        "next_seq must cover the acknowledged prefix (duplicate emission hazard)",
        &mut notes,
    );
    green &= check(
        checkpoint_seq.is_some(),
        "a mid-storm checkpoint chain must be restorable",
        &mut notes,
    );
    // The cadence catch-up bounds the WAL tail the chain leaves behind;
    // 2× slack covers events that land on already-fenced partitions
    // while the final cut is in flight.
    if report.error.is_none() {
        green &= check(
            replayed <= 2 * DRIVER_EVERY,
            "chain tip must bound tail replay to the cadence",
            &mut notes,
        );
    }

    // Candidate parity, same skip-window math as the sequential cells:
    // events in [acked, next_seq) were durable but unacknowledged.
    let mut expected: Vec<Candidate> = Vec::new();
    for per in twin_per_event.iter().take(acked) {
        expected.extend(per.iter().cloned());
    }
    if (next_seq as usize) < events.len() {
        for per in twin_per_event.iter().skip(next_seq as usize) {
            expected.extend(per.iter().cloned());
        }
    }
    let mut got = pre_candidates.clone();
    got.extend(post_candidates.iter().cloned());
    green &= check(
        got == expected,
        "candidate parity with fault-free twin",
        &mut notes,
    );

    if fault != Fault::None || !green {
        green &= write_flight_dump(SCENARIO, fault, trace_start, out_dir, &mut notes);
    }

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", fault.name());
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", spec.users);
    j.raw("events", events.len());
    j.raw("at_event", at_event);
    j.raw("wal_partitions", PARTS);
    j.str("fsync", &format!("{:?}", opts.fsync));
    j.raw("checkpoint_every", DRIVER_EVERY);
    j.raw("rebase_max_chain_len", opts.rebase.max_chain_len);
    j.str(
        "fault_plan",
        &plan
            .specs
            .iter()
            .map(|s| format!("{s:?}"))
            .collect::<Vec<_>>()
            .join("; "),
    );
    j.raw("fired", fired);
    j.raw("driver_completed", driver_completed);
    j.raw("driver_failures", driver_failures);
    j.raw("acked", acked);
    j.raw("next_seq", next_seq);
    j.raw("replayed", replayed);
    j.raw(
        "checkpoint_seq",
        checkpoint_seq.map_or("null".into(), |s| s.to_string()),
    );
    j.raw("pre_candidates", pre_candidates.len());
    j.raw("post_candidates", post_candidates.len());
    j.raw("expected_candidates", expected.len());
    j.raw("digest", format!("\"{:016x}\"", digest(&got)));
    j.raw("expected_digest", format!("\"{:016x}\"", digest(&expected)));
    match &error_text {
        Some(t) => j.str("error", t),
        None => j.raw("error", "null"),
    }
    j.raw("green", green);

    let json_path = out_dir.join(format!("{}-{}.json", SCENARIO, fault.name()));
    if let Err(e) = std::fs::write(&json_path, j.render()) {
        notes.push(format!("FAIL: trajectory write: {e}"));
        green = false;
    }

    CellResult {
        scenario: SCENARIO,
        fault,
        green,
        notes,
        json_path,
    }
}

// ---- serving-tier cells ----------------------------------------------------
//
// Three cells drive the network front end (`magicrecs-server`) through
// the adversity lens: overload must shed whole batches with typed
// responses and exact accounting, a subscriber that stops reading must
// have deliveries dropped (counted) without stalling ingest, and a
// connection killed mid-ingest must resume on a fresh socket with the
// candidate stream intact. All run over loopback under `Fault::None` —
// here the workload itself is the fault.

fn serving_check(ok: bool, what: &str, notes: &mut Vec<String>) -> bool {
    if !ok {
        notes.push(format!("FAIL: {what}"));
    }
    ok
}

fn start_serving(
    graph: &FollowGraph,
    workers: usize,
    admission: AdmissionConfig,
) -> (Server, Arc<ConcurrentEngine>) {
    let engine =
        Arc::new(ConcurrentEngine::new(graph.clone(), detector_config()).expect("serving engine"));
    let server = Server::start(
        engine.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers,
            admission,
            pin_cores: false,
            checkpoint_hook: None,
        },
    )
    .expect("serving server");
    (server, engine)
}

/// StatsReq/StatsResp on `conn`, skipping any deliveries in flight.
fn wire_stats(conn: &mut ClientConn) -> WireStats {
    conn.send(&Frame::StatsReq).expect("stats req");
    loop {
        match conn.recv().expect("stats resp") {
            Frame::StatsResp(s) => return s,
            Frame::Deliver { .. } => continue,
            other => panic!("unexpected frame awaiting stats: {other:?}"),
        }
    }
}

fn serving_cell_result(
    scenario: &'static str,
    mut j: Json,
    mut notes: Vec<String>,
    mut green: bool,
    out_dir: &Path,
) -> CellResult {
    j.raw("green", green);
    let json_path = out_dir.join(format!("{scenario}-none.json"));
    if let Err(e) = std::fs::write(&json_path, j.render()) {
        notes.push(format!("FAIL: trajectory write: {e}"));
        green = false;
    }
    CellResult {
        scenario,
        fault: Fault::None,
        green,
        notes,
        json_path,
    }
}

/// Flash crowd at 2× the admitted budget: the token bucket sheds the
/// excess as whole batches with typed `Shed{RateLimited}` + retry
/// hints, client- and server-side accounting balance exactly, and the
/// same connection still serves the control plane afterwards.
fn run_serving_overload_cell(base_seed: u64, out_dir: &Path) -> CellResult {
    const SCENARIO: &str = "serving_overload_shed";
    let seed = cell_seed(base_seed, SCENARIOS.len() + 1, 0);
    let spec = spec_for("flash_crowd", seed);
    let trace = spec.build();
    let events = trace.events();
    let graph = magicrecs_bench::small_graph(spec.users);

    // Budget = half the offered load (2× overload): the bucket starts
    // with n/2 tokens and refills far too slowly to matter over the
    // cell's sub-second run.
    let budget = events.len() / 2;
    let admission = AdmissionConfig {
        source_rate: 1.0,
        source_burst: budget as f64,
        ..AdmissionConfig::unlimited()
    };
    let (server, _engine) = start_serving(&graph, 1, admission);
    let mut conn = ClientConn::connect(server.addr(), Some(0)).expect("connect");

    const BATCH: usize = 64;
    let mut batch_sizes = std::collections::HashMap::new();
    for (tag, chunk) in events.chunks(BATCH).enumerate() {
        batch_sizes.insert(tag as u64, chunk.len());
        conn.send(&Frame::Ingest {
            tag: tag as u64,
            events: chunk.to_vec(),
        })
        .expect("ingest");
    }
    let replies = conn.barrier(u64::MAX).expect("barrier");

    let mut green = true;
    let mut notes = Vec::new();
    let mut shed_events = 0usize;
    let mut shed_frames = 0usize;
    let mut bad_shed = 0usize;
    for f in &replies {
        if let Frame::Shed {
            tag,
            code,
            retry_after_us,
        } = f
        {
            shed_frames += 1;
            shed_events += batch_sizes.get(tag).copied().unwrap_or(0);
            if *code != ShedCode::RateLimited || *retry_after_us == 0 {
                bad_shed += 1;
            }
        }
    }
    let sent = events.len();
    let accepted = sent - shed_events;
    green &= serving_check(shed_frames > 0, "2x overload must shed", &mut notes);
    green &= serving_check(
        accepted > 0,
        "the budgeted half must still be admitted",
        &mut notes,
    );
    green &= serving_check(
        bad_shed == 0,
        "every shed must be typed RateLimited with a nonzero retry hint",
        &mut notes,
    );

    // Post-storm: the connection that was shed still answers control
    // requests, and the counters balance to the event.
    let stats = wire_stats(&mut conn);
    green &= serving_check(
        stats.accepted as usize == accepted && stats.shed as usize == shed_events,
        "client- and server-side shed accounting must agree",
        &mut notes,
    );
    green &= serving_check(
        stats.accepted + stats.shed == sent as u64,
        "accepted + shed must equal offered",
        &mut notes,
    );
    green &= serving_check(
        stats.events == stats.accepted,
        "the engine must see exactly the admitted events",
        &mut notes,
    );
    server.shutdown();

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", "none");
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", spec.users);
    j.raw("offered", sent);
    j.raw("budget", budget);
    j.raw("accepted", accepted);
    j.raw("shed_events", shed_events);
    j.raw("shed_frames", shed_frames);
    j.raw(
        "shed_rate",
        format!("{:.3}", shed_events as f64 / sent as f64),
    );
    serving_cell_result(SCENARIO, j, notes, green, out_dir)
}

/// A subscriber that stops reading: deliveries past its write-queue
/// cap are dropped and counted, while ingest and the control plane on
/// other connections run unimpeded.
fn run_serving_slow_consumer_cell(base_seed: u64, out_dir: &Path) -> CellResult {
    const SCENARIO: &str = "serving_slow_consumer";

    // A fan-in graph so every firing floods the subscriber: FANS users
    // all follow both Bs, so each fresh target the Bs co-follow fires
    // one candidate per fan. TARGETS × FANS candidates dwarf the write
    // queue *and* the kernel socket buffers, forcing counted drops.
    const FANS: u64 = 2_000;
    const TARGETS: u64 = 50;
    let b1 = UserId(FANS + 1);
    let b2 = UserId(FANS + 2);
    let mut gb = GraphBuilder::new();
    for a in 0..FANS {
        gb.extend([(UserId(a), b1), (UserId(a), b2)]);
    }
    let graph = gb.build();

    let admission = AdmissionConfig {
        max_write_queue: 64 * 1024,
        ..AdmissionConfig::unlimited()
    };
    let (server, _engine) = start_serving(&graph, 1, admission);

    let mut slow = ClientConn::connect(server.addr(), Some(0)).expect("connect slow");
    slow.send(&Frame::Subscribe).expect("subscribe");
    assert!(matches!(slow.recv().expect("subscribe ack"), Frame::OkAck));
    // ... and the slow consumer never reads again.

    // The kernel absorbs deliveries until the unread socket's buffers
    // fill (a few MB on loopback); only then does the server's own
    // write queue grow and hit the cap. Keep pouring rounds of fresh
    // targets until drops appear, bounded so a regression can't hang
    // the harness.
    const MAX_ROUNDS: u64 = 40;
    let mut green = true;
    let mut notes = Vec::new();
    let mut ingest = ClientConn::connect(server.addr(), Some(0)).expect("connect ingest");
    let mut tag = 0u64;
    let mut sent_events = 0usize;
    let mut rounds = 0u64;
    let mut stats;
    loop {
        let mut events = Vec::new();
        for t in (rounds * TARGETS)..((rounds + 1) * TARGETS) {
            let c = UserId(FANS + 10 + t);
            events.push(EdgeEvent::follow(b1, c, Timestamp::from_secs(100 + 2 * t)));
            events.push(EdgeEvent::follow(b2, c, Timestamp::from_secs(101 + 2 * t)));
        }
        for chunk in events.chunks(10) {
            ingest
                .send(&Frame::Ingest {
                    tag,
                    events: chunk.to_vec(),
                })
                .expect("ingest");
            tag += 1;
        }
        sent_events += events.len();
        let replies = ingest.barrier(u64::MAX).expect("barrier");
        green &= serving_check(
            replies.is_empty(),
            "unsubscribed ingest under unlimited admission must sail through",
            &mut notes,
        );
        rounds += 1;
        stats = wire_stats(&mut ingest);
        if stats.dropped_deliveries > 0 || rounds >= MAX_ROUNDS || !green {
            break;
        }
    }
    green &= serving_check(
        stats.events as usize == sent_events,
        "a stalled subscriber must not impede ingest",
        &mut notes,
    );
    green &= serving_check(stats.shed == 0, "nothing to shed here", &mut notes);
    green &= serving_check(
        stats.dropped_deliveries > 0,
        "deliveries past the write-queue cap must be dropped and counted",
        &mut notes,
    );
    slow.kill();
    server.shutdown();

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", "none");
    j.raw("base_seed", base_seed);
    j.raw("fans", FANS);
    j.raw("targets_per_round", TARGETS);
    j.raw("rounds", rounds);
    j.raw("events", sent_events);
    j.raw("max_write_queue", 64 * 1024);
    j.raw("engine_candidates", stats.candidates);
    j.raw("dropped_deliveries", stats.dropped_deliveries);
    serving_cell_result(SCENARIO, j, notes, green, out_dir)
}

/// Mid-ingest connection kill: fence, kill the socket ungracefully,
/// reconnect, and finish the trace — the delivered candidate stream
/// must match an in-process single-worker cluster run exactly (no
/// loss, no duplicates, window state intact across the kill).
fn run_serving_kill_resume_cell(base_seed: u64, out_dir: &Path) -> CellResult {
    const SCENARIO: &str = "serving_kill_resume";
    let seed = cell_seed(base_seed, SCENARIOS.len() + 3, 0);
    let spec = spec_for("flash_crowd", seed);
    let trace = spec.build();
    let events = trace.events();
    let at_event = events.len() * 2 / 5;
    let graph = magicrecs_bench::small_graph(spec.users);

    let reference = SharedEngineCluster::new(&graph, 1, detector_config())
        .expect("reference cluster")
        .run_trace(events)
        .expect("reference run");

    let (server, _engine) = start_serving(&graph, 1, AdmissionConfig::unlimited());
    let mut observer = ClientConn::connect(server.addr(), Some(0)).expect("connect observer");
    observer.send(&Frame::Subscribe).expect("subscribe");
    assert!(matches!(
        observer.recv().expect("subscribe ack"),
        Frame::OkAck
    ));

    const BATCH: usize = 64;
    let mut tag = 0u64;
    let mut send_range = |conn: &mut ClientConn, range: &[EdgeEvent]| {
        for chunk in range.chunks(BATCH) {
            conn.send(&Frame::Ingest {
                tag,
                events: chunk.to_vec(),
            })
            .expect("ingest");
            tag += 1;
        }
        for f in conn.barrier(u64::MAX).expect("ingest barrier") {
            assert!(
                !matches!(f, Frame::Shed { .. }),
                "unlimited admission shed: {f:?}"
            );
        }
    };

    let mut first = ClientConn::connect(server.addr(), Some(0)).expect("connect ingest 1");
    send_range(&mut first, &events[..at_event]);
    first.kill();

    let mut second = ClientConn::connect(server.addr(), Some(0)).expect("connect ingest 2");
    send_range(&mut second, &events[at_event..]);

    // Both ingest barriers acked before the observer's barrier was
    // sent, so every delivery is already FIFO-queued ahead of the ack.
    let mut got: Vec<Candidate> = Vec::new();
    for f in observer.barrier(u64::MAX).expect("observer barrier") {
        if let Frame::Deliver { mut candidates, .. } = f {
            got.append(&mut candidates);
        }
    }
    got.sort_by_key(|c| (c.triggered_at, c.user, c.target));
    let stats = wire_stats(&mut second);
    server.shutdown();

    let mut green = true;
    let mut notes = Vec::new();
    green &= serving_check(
        !reference.candidates.is_empty(),
        "reference trace must fire (parity would be vacuous)",
        &mut notes,
    );
    green &= serving_check(
        got == reference.candidates,
        "candidate parity across the kill + reconnect",
        &mut notes,
    );
    green &= serving_check(
        stats.events as usize == events.len(),
        "every event from both connections must reach the engine",
        &mut notes,
    );

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", "none");
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", spec.users);
    j.raw("events", events.len());
    j.raw("at_event", at_event);
    j.raw("candidates", got.len());
    j.raw("expected_candidates", reference.candidates.len());
    j.raw("digest", format!("\"{:016x}\"", digest(&got)));
    j.raw(
        "expected_digest",
        format!("\"{:016x}\"", digest(&reference.candidates)),
    );
    serving_cell_result(SCENARIO, j, notes, green, out_dir)
}

// ---------------------------------------------------------------------------
// Replication cells: a 3-process loopback cluster built by re-exec'ing
// this binary in `--replica-node` mode, so the leader can be killed
// with a genuine SIGKILL and the promotion crosses real process
// boundaries.
// ---------------------------------------------------------------------------

/// `--replica-node` mode: run one replica node and park. The runner
/// waits for the `READY <addr>` line, and tears the process down with
/// SIGKILL (that ungracefulness is the point).
fn replica_node_mode(args: &[String]) -> ! {
    let mut config: Option<PathBuf> = None;
    let mut node: Option<u32> = None;
    let mut data: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().expect("flag needs a value").clone();
        match a.as_str() {
            "--config" => config = Some(PathBuf::from(val())),
            "--node" => node = Some(val().parse().expect("node id")),
            "--data" => data = Some(PathBuf::from(val())),
            other => panic!("unexpected --replica-node argument {other:?}"),
        }
    }
    let text = std::fs::read_to_string(config.expect("--config required")).expect("read map");
    let map = ClusterMap::parse(&text).expect("parse map");
    let handle = Node::start(NodeConfig::new(
        node.expect("--node required"),
        map,
        data.expect("--data required"),
    ))
    .expect("start node");
    println!("READY {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// One replica-node child process; SIGKILLed on drop.
struct ReplicaProc(std::process::Child);

impl ReplicaProc {
    fn spawn(config: &Path, id: u32, data: &Path) -> ReplicaProc {
        use std::io::BufRead as _;
        let exe = std::env::current_exe().expect("current exe");
        let mut child = std::process::Command::new(exe)
            .arg("--replica-node")
            .arg("--config")
            .arg(config)
            .arg("--node")
            .arg(id.to_string())
            .arg("--data")
            .arg(data)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn replica node");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read READY line");
        assert!(
            line.starts_with("READY"),
            "replica node {id} came up wrong: {line:?}"
        );
        ReplicaProc(child)
    }

    fn kill9(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ReplicaProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// A 3-node single-partition map over freshly picked loopback ports:
/// node 0 leads partition 0, node 1 follows, node 2 starts empty (the
/// failover redundancy target / rebalance destination).
fn replica_map(users: u64, seed: u64) -> ClusterMap {
    let mut text = format!("users {users}\nseed {seed}\n");
    for id in 0..3 {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        text.push_str(&format!(
            "node {id} {}\n",
            l.local_addr().expect("local addr")
        ));
    }
    text.push_str("partition 0 leader 0 follower 1\n");
    ClusterMap::parse(&text).expect("valid map")
}

/// Deterministic candidate-rich stream for the kill -9 cell: rotating
/// targets with many distinct actors each, one second apart.
fn replica_events(n: usize, users: u64) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            let src = UserId(1 + ((i as u64 * 7) % (users - 1)));
            let dst = UserId(1 + ((i as u64 / 24) % 32));
            EdgeEvent::follow(src, dst, Timestamp::from_secs(i as u64))
        })
        .collect()
}

/// Fault-free reference for the replica cells: one in-memory engine
/// over the same fixture graph, fed the same single-partition batches,
/// so delivered candidates compare tag-for-tag.
struct ReplicaTwin {
    engine: Engine,
    next_seq: u64,
    per_tag: std::collections::HashMap<u64, Vec<Candidate>>,
}

impl ReplicaTwin {
    fn new(map: &ClusterMap) -> ReplicaTwin {
        let graph = magicrecs_replica::fixture_graph(map);
        ReplicaTwin {
            engine: Engine::new(graph, DetectorConfig::default()).expect("twin engine"),
            next_seq: 0,
            per_tag: std::collections::HashMap::new(),
        }
    }

    fn ingest(&mut self, chunk: &[EdgeEvent]) {
        let tag = self.next_seq;
        self.next_seq += chunk.len() as u64;
        let out = self.engine.on_events(chunk);
        if !out.is_empty() {
            self.per_tag.insert(tag, out);
        }
    }
}

/// Multiset containment: every candidate in `sub` occurs in `full`.
fn candidate_subset(sub: &[Candidate], full: &[Candidate]) -> bool {
    let mut pool: Vec<&Candidate> = full.iter().collect();
    sub.iter().all(|c| match pool.iter().position(|p| *p == c) {
        Some(i) => {
            pool.swap_remove(i);
            true
        }
        None => false,
    })
}

/// kill -9 the partition leader mid-ingest — acked batches not yet
/// shipped — promote the warm follower at its own durable sequence,
/// point the spare node at the new leader for redundancy, and finish
/// the stream. Delivered candidates must match the fault-free twin
/// tag-for-tag (tags straddling the promotion watermark by the
/// acked-tail contract, i.e. as subsets), and the promotion must be
/// named in the node's flight-recorder dump and counted in a live
/// metrics scrape.
fn run_leader_kill9_cell(base_seed: u64, out_dir: &Path) -> CellResult {
    const SCENARIO: &str = "leader_kill9_mid_ingest";
    let seed = cell_seed(base_seed, SCENARIOS.len() + 4, 0);
    let users = 700u64;
    let map = replica_map(users, seed);
    let tmp = TempDir::new("adversity-kill9");
    let map_path = tmp.path().join("cluster.map");
    std::fs::write(&map_path, map.render()).expect("write map");
    let mut n0 = ReplicaProc::spawn(&map_path, 0, &tmp.path().join("n0"));
    let _n1 = ReplicaProc::spawn(&map_path, 1, &tmp.path().join("n1"));
    let _n2 = ReplicaProc::spawn(&map_path, 2, &tmp.path().join("n2"));

    let mut coord = Coordinator::new(map.clone());
    let mut client = RoutedClient::new(map.clone());
    let mut twin = ReplicaTwin::new(&map);
    let events = replica_events(3000, users);
    let (before, after) = events.split_at(1200);
    for chunk in before.chunks(40) {
        client.ingest(chunk).expect("pre-kill ingest");
        twin.ingest(chunk);
    }
    let unreleased = client.unreleased_tags(0);

    n0.kill9();
    let (epoch, promoted_at) = coord.promote(0, 1).expect("promote follower");
    coord.start_follow(2, 0, 1).expect("restore redundancy");
    for chunk in after.chunks(40) {
        client.ingest(chunk).expect("post-kill ingest");
        twin.ingest(chunk);
    }
    client
        .drain(std::time::Duration::from_secs(30))
        .expect("drain");

    let mut green = true;
    let mut notes = Vec::new();
    green &= serving_check(
        epoch == 1,
        "promotion must advance the route epoch",
        &mut notes,
    );
    green &= serving_check(
        client.reroutes() > 0,
        "the kill must force a client re-route",
        &mut notes,
    );
    let st = coord.status(1, 0).expect("status of promoted node");
    green &= serving_check(
        st.leading && st.epoch == 1,
        "node 1 must lead at epoch 1",
        &mut notes,
    );
    green &= serving_check(
        st.durable == client.staged(0),
        "every staged event must be durable on the new leader",
        &mut notes,
    );
    green &= serving_check(
        !twin.per_tag.is_empty(),
        "fixture must fire candidates (parity would be vacuous)",
        &mut notes,
    );
    let mut parity = true;
    for (tag, expect) in &twin.per_tag {
        let got = client.delivered().get(&(0, *tag));
        let straddles = unreleased.contains(tag) && *tag < promoted_at;
        parity &= if straddles {
            candidate_subset(got.map_or(&[][..], |v| v.as_slice()), expect)
        } else {
            got == Some(expect)
        };
    }
    parity &= client
        .delivered()
        .keys()
        .all(|(_, t)| twin.per_tag.contains_key(t));
    green &= serving_check(
        parity,
        "post-failover candidate parity (modulo the acked tail)",
        &mut notes,
    );

    // The promotion dump, written by the promoted node next to the
    // data it describes, copied into the trajectory directory. Red
    // unless it names the promotion — the crash-dump path is itself
    // under test.
    let dump = std::fs::read_to_string(tmp.path().join("n1").join("p0").join("promote-1.trace"))
        .unwrap_or_default();
    green &= serving_check(
        dump.contains("promote") && dump.contains("a=0 b=1"),
        "the flight-recorder dump must name the promotion",
        &mut notes,
    );
    let trace_path = out_dir.join(format!("{SCENARIO}-none.trace"));
    if let Err(e) = std::fs::write(&trace_path, &dump) {
        notes.push(format!("FAIL: trace copy: {e}"));
        green = false;
    }

    let scrape = coord.metrics(1).expect("metrics scrape");
    let metric = |n: &str| scrape.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
    green &= serving_check(
        metric("replica_promotions") >= 1,
        "promotion counter must be live in the scrape",
        &mut notes,
    );
    green &= serving_check(
        metric("replica_tail_rounds") > 0,
        "tail-round counter must be live in the scrape",
        &mut notes,
    );

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", "none");
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", users);
    j.raw("events", events.len());
    j.raw("promoted_at", promoted_at);
    j.raw("epoch", epoch);
    j.raw("reroutes", client.reroutes());
    j.raw("delivered_tags", client.delivered().len());
    j.raw("promotions", metric("replica_promotions"));
    serving_cell_result(SCENARIO, j, notes, green, out_dir)
}

/// Live partition rebalance under the flash-crowd trace: ship the
/// partition from node 0 to node 2 (base checkpoint + delta chain +
/// WAL tail) while the crowd keeps ingesting, flip the route under
/// load, and require zero acked-event loss, exact candidate parity,
/// the typed refusal on the fenced old leader, and a promotion dump on
/// the new one.
fn run_rebalance_flash_crowd_cell(base_seed: u64, out_dir: &Path) -> CellResult {
    const SCENARIO: &str = "rebalance_under_flash_crowd";
    let seed = cell_seed(base_seed, SCENARIOS.len() + 5, 0);
    let spec = spec_for("flash_crowd", seed);
    let trace = spec.build();
    let events = trace.events();
    let map = replica_map(spec.users, seed);
    let tmp = TempDir::new("adversity-rebalance");
    let map_path = tmp.path().join("cluster.map");
    std::fs::write(&map_path, map.render()).expect("write map");
    let _n0 = ReplicaProc::spawn(&map_path, 0, &tmp.path().join("n0"));
    let _n1 = ReplicaProc::spawn(&map_path, 1, &tmp.path().join("n1"));
    let _n2 = ReplicaProc::spawn(&map_path, 2, &tmp.path().join("n2"));

    let mut client = RoutedClient::new(map.clone());
    let mut twin = ReplicaTwin::new(&map);
    let mover = std::thread::spawn({
        let map = map.clone();
        move || {
            let mut coord = Coordinator::new(map);
            // Let the crowd build before moving the partition under it.
            std::thread::sleep(std::time::Duration::from_millis(30));
            coord.rebalance(0, 2, std::time::Duration::from_secs(60))
        }
    });

    // Hammer batches while the move runs, holding back a post-flip
    // reserve so some writes are guaranteed to land after the flip.
    let reserve = 10usize;
    let total_chunks = events.len().div_ceil(32);
    let mut chunks = events.chunks(32);
    let mut sent = 0usize;
    while !mover.is_finished() {
        if sent + reserve < total_chunks {
            let chunk = chunks.next().expect("chunk stream");
            client.ingest(chunk).expect("ingest under move");
            twin.ingest(chunk);
            sent += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let epoch = mover.join().expect("mover thread").expect("rebalance");
    let moved_at = sent;
    for chunk in chunks {
        client.ingest(chunk).expect("post-flip ingest");
        twin.ingest(chunk);
        sent += 1;
    }
    client
        .drain(std::time::Duration::from_secs(30))
        .expect("drain");

    let mut green = true;
    let mut notes = Vec::new();
    let coord = Coordinator::new(map.clone());
    green &= serving_check(
        epoch == 1,
        "the move must advance the route epoch",
        &mut notes,
    );
    green &= serving_check(
        client.unreleased_tags(0).is_empty(),
        "the drain must release every acked batch",
        &mut notes,
    );
    green &= serving_check(
        client.staged(0) == events.len() as u64,
        "every trace event must have been staged",
        &mut notes,
    );
    let st = coord.status(2, 0).expect("status of new leader");
    green &= serving_check(
        st.leading && st.epoch == epoch,
        "node 2 must lead at the new epoch",
        &mut notes,
    );
    green &= serving_check(
        st.durable == client.staged(0),
        "zero acked-event loss across the flip",
        &mut notes,
    );
    green &= serving_check(
        client.reroutes() >= 1,
        "the flip must have re-routed the client",
        &mut notes,
    );
    green &= serving_check(
        !twin.per_tag.is_empty(),
        "fixture must fire candidates (parity would be vacuous)",
        &mut notes,
    );
    let parity = twin
        .per_tag
        .iter()
        .all(|(tag, expect)| client.delivered().get(&(0, *tag)) == Some(expect))
        && client.delivered().len() == twin.per_tag.len();
    green &= serving_check(
        parity,
        "exact candidate parity across the live move",
        &mut notes,
    );

    let dump = std::fs::read_to_string(
        tmp.path()
            .join("n2")
            .join("p0")
            .join(format!("promote-{epoch}.trace")),
    )
    .unwrap_or_default();
    green &= serving_check(
        dump.contains("promote") && dump.contains(&format!("a=0 b={epoch}")),
        "the flight-recorder dump must name the promotion",
        &mut notes,
    );
    let trace_path = out_dir.join(format!("{SCENARIO}-none.trace"));
    if let Err(e) = std::fs::write(&trace_path, &dump) {
        notes.push(format!("FAIL: trace copy: {e}"));
        green = false;
    }

    let metric = |scrape: &[(String, u64)], n: &str| {
        scrape.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v)
    };
    let s0 = coord.metrics(0).expect("old leader scrape");
    green &= serving_check(
        metric(&s0, "replica_refused_writes") >= 1,
        "the fenced leader must have refused a write (typed)",
        &mut notes,
    );
    let s2 = coord.metrics(2).expect("new leader scrape");
    green &= serving_check(
        metric(&s2, "replica_promotions") >= 1,
        "promotion counter must be live in the scrape",
        &mut notes,
    );
    green &= serving_check(
        metric(&s2, "replica_bootstrap_files") >= 1,
        "the move must have shipped state files",
        &mut notes,
    );

    let mut j = Json::default();
    j.str("scenario", SCENARIO);
    j.str("fault", "none");
    j.raw("base_seed", base_seed);
    j.raw("seed", seed);
    j.raw("users", spec.users);
    j.raw("events", events.len());
    j.raw("epoch", epoch);
    j.raw("chunks_before_flip", moved_at);
    j.raw("chunks_total", sent);
    j.raw("reroutes", client.reroutes());
    j.raw("delivered_tags", client.delivered().len());
    j.raw("refused_writes", metric(&s0, "replica_refused_writes"));
    j.raw("bootstrap_files", metric(&s2, "replica_bootstrap_files"));
    serving_cell_result(SCENARIO, j, notes, green, out_dir)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replica-node") {
        replica_node_mode(&args[1..]);
    }
    let mut out_dir: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().expect("--metrics-out needs a path"),
                ))
            }
            other if out_dir.is_none() => out_dir = Some(PathBuf::from(other)),
            other => panic!("unexpected argument {other:?} (see the module docs)"),
        }
    }
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("target/adversity"));
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let base_seed = std::env::var("MAGICRECS_ADVERSITY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAD5E_5EED_u64);

    println!("# Adversity matrix (base seed {base_seed:#x})\n");
    println!("{}", header(&["scenario", "fault", "status", "trajectory"]));

    let mut all_green = true;
    let mut failures: Vec<(String, Vec<String>)> = Vec::new();
    for (si, scenario) in SCENARIOS.iter().enumerate() {
        for (fi, &fault) in FAULTS.iter().enumerate() {
            let r = run_cell(scenario, si, fault, fi, base_seed, &out_dir);
            println!(
                "{}",
                row(&[
                    r.scenario.to_string(),
                    r.fault.name().to_string(),
                    if r.green {
                        "green".into()
                    } else {
                        "RED".into()
                    },
                    r.json_path.display().to_string(),
                ])
            );
            if !r.green {
                all_green = false;
                failures.push((format!("{}-{}", r.scenario, r.fault.name()), r.notes));
            }
        }
    }

    // The non-quiescent checkpoint cells: live driver under the storm,
    // with and without an injected fsync failure.
    for (fi, &fault) in FAULTS.iter().enumerate() {
        if !matches!(fault, Fault::None | Fault::FsyncFail) {
            continue;
        }
        let r = run_checkpoint_cell(fault, fi, base_seed, &out_dir);
        println!(
            "{}",
            row(&[
                r.scenario.to_string(),
                r.fault.name().to_string(),
                if r.green {
                    "green".into()
                } else {
                    "RED".into()
                },
                r.json_path.display().to_string(),
            ])
        );
        if !r.green {
            all_green = false;
            failures.push((format!("{}-{}", r.scenario, r.fault.name()), r.notes));
        }
    }

    // The serving-tier cells: the network front end under 2× overload,
    // a subscriber that stops reading, and a mid-ingest connection
    // kill with reconnect-and-resume.
    let serving = [
        run_serving_overload_cell(base_seed, &out_dir),
        run_serving_slow_consumer_cell(base_seed, &out_dir),
        run_serving_kill_resume_cell(base_seed, &out_dir),
    ];
    for r in serving {
        println!(
            "{}",
            row(&[
                r.scenario.to_string(),
                r.fault.name().to_string(),
                if r.green {
                    "green".into()
                } else {
                    "RED".into()
                },
                r.json_path.display().to_string(),
            ])
        );
        if !r.green {
            all_green = false;
            failures.push((format!("{}-{}", r.scenario, r.fault.name()), r.notes));
        }
    }

    // The replication cells: a 3-process loopback replica cluster
    // (this binary re-exec'd per node), kill -9 leader failover and a
    // live partition rebalance under the flash crowd.
    let replica = [
        run_leader_kill9_cell(base_seed, &out_dir),
        run_rebalance_flash_crowd_cell(base_seed, &out_dir),
    ];
    for r in replica {
        println!(
            "{}",
            row(&[
                r.scenario.to_string(),
                r.fault.name().to_string(),
                if r.green {
                    "green".into()
                } else {
                    "RED".into()
                },
                r.json_path.display().to_string(),
            ])
        );
        if !r.green {
            all_green = false;
            failures.push((format!("{}-{}", r.scenario, r.fault.name()), r.notes));
        }
    }

    // The process-wide telemetry the matrix accumulated: WAL append/
    // fsync/poison counters, checkpoint bytes, the batch-size sketch.
    if let Some(path) = &metrics_out {
        let flat = magicrecs_obs::export::flatten(&magicrecs_obs::global().snapshot());
        let mut json = magicrecs_bench::json::Json::new();
        for (name, value) in &flat {
            json.int(name, *value);
        }
        json.merge_into_file(path);
        println!("\nwrote metrics scrape to {}", path.display());
    }

    if all_green {
        println!("\nall {} cells green", SCENARIOS.len() * FAULTS.len() + 7);
    } else {
        println!("\nRED cells:");
        for (cell, notes) in &failures {
            for n in notes {
                println!("  {cell}: {n}");
            }
        }
        std::process::exit(1);
    }
}
