//! The repository's benchmark: one command that generates a workload's
//! inputs from a seed, serves them closed-loop over loopback, checks every
//! delivered candidate against a reference, and prints the end-to-end
//! metrics — or, with tracing on, the per-layer ledger of the same job.
//! See `README.md` in this directory for the workloads and the metrics.

#![warn(missing_docs)]

pub mod report;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod verify;
pub mod workload;

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use magicrecs_types::Result;

use report::Metric;
use serve::Served;
use stats::Samples;
use trace::Ledger;
use verify::RefBatch;
use workload::{Inputs, Workload};

/// Scratch space for WAL directories, inside the checkout.
const SCRATCH: &str = ".perfbench_run";
/// Where the traced run writes its spans, inside the checkout.
const SPANS_DIR: &str = ".perfbench_out";

/// The end-to-end metrics the result line carries with tracing off —
/// every one defined, and never zero, on every workload.
pub const E2E_RESULT: [&str; 5] = [
    "events_per_s",
    "ack_p50_ms",
    "deliver_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: u64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Alter one delivered candidate before it is checked. Exists so the
    /// self-test can prove the correctness gate fires.
    pub corrupt_one_candidate: bool,
}

/// A finished invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable report (provenance, tables).
    pub text: String,
    /// The result line.
    pub json: String,
    /// Every delivered candidate matched the reference and no event failed
    /// (and, when tracing, the traced replay matched too and its ledger
    /// added up).
    pub correct: bool,
}

/// Runs one invocation from the current directory (the checkout root).
pub fn run(opts: &Options) -> Result<Outcome> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let scratch = PathBuf::from(SCRATCH).join(format!(
        "{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| magicrecs_types::Error::Io(format!("scratch dir: {e}")))?;
    let result = run_in(opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH); // only if no other run is using it
    result
}

fn run_in(opts: &Options, scratch: &Path) -> Result<Outcome> {
    let t0 = Instant::now();
    let inputs = workload::generate(opts.workload, opts.seed, opts.seconds);
    let t_inputs = t0.elapsed().as_secs_f64();
    let served = serve::run(&inputs, opts.seconds, scratch, opts.corrupt_one_candidate)?;
    let t_served = t0.elapsed().as_secs_f64() - t_inputs;

    // The reference: the same batches, in send order, through sequential
    // engines (one shared engine on the server, one per replica partition).
    let ref_batches: Vec<RefBatch<'_>> = served
        .batches
        .iter()
        .map(|b| {
            let batch = &inputs.lanes[b.lane].batches[b.idx];
            RefBatch {
                group: if opts.workload == Workload::ZipfReplicated {
                    batch.part
                } else {
                    0
                },
                events: &batch.events,
            }
        })
        .collect();
    let t1 = Instant::now();
    let reference = verify::reference(&inputs.graph, &ref_batches);
    let t_reference = t1.elapsed().as_secs_f64();
    let delivered: Vec<_> = served.batches.iter().map(|b| b.digest).collect();
    let mismatched = verify::mismatched(&delivered, &reference);

    let attempted: u64 = ref_batches.iter().map(|b| b.events.len() as u64).sum();
    let failed: u64 = served
        .batches
        .iter()
        .zip(&ref_batches)
        .filter(|(b, _)| b.ack_ms.is_none())
        .map(|(_, r)| r.events.len() as u64)
        .sum();
    let e2e = e2e_metrics(&inputs, &served, mismatched, attempted, failed);

    let mut text = provenance(opts, scratch);
    let _ = writeln!(
        text,
        "# phases: inputs {t_inputs:.1} s, served {t_served:.1} s, reference {t_reference:.1} s"
    );
    text.push_str(&report::table(
        &format!("end-to-end, {} (tracing off)", opts.workload.name()),
        &e2e,
    ));

    let mut correct = mismatched == 0 && failed == 0;
    let mut per_layer = Vec::new();
    if opts.trace {
        let job = trace_job(&inputs, &served, &reference);
        let t2 = Instant::now();
        let ledger = trace::run(&job, scratch)?;
        let _ = writeln!(
            text,
            "# phases: traced replays {:.1} s",
            t2.elapsed().as_secs_f64()
        );
        let spans =
            Path::new(SPANS_DIR).join(format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed));
        trace::write_spans(&ledger, &spans)?;
        text.push_str(&ledger_table(&ledger, &spans));
        // The traced replay must reproduce the reference candidates, and
        // its layers must account for its end-to-end time.
        correct &= ledger.mismatched_batches == 0
            && ledger.unattributed_share().abs() <= trace::LEDGER_BOUND;
        per_layer = layer_metrics(&served, &ledger, &e2e);
        text.push_str(&report::table("per-layer", &per_layer));
    }

    let shown: Vec<&Metric> = if opts.trace {
        per_layer.iter().collect()
    } else {
        E2E_RESULT
            .iter()
            .map(|name| e2e.iter().find(|m| m.name == *name).expect("listed metric"))
            .collect()
    };
    let json = report::json(correct, attempted, failed, &shown);
    Ok(Outcome {
        text,
        json,
        correct,
    })
}

fn provenance(opts: &Options, scratch: &Path) -> String {
    format!(
        "# perfbench {} seconds={} trace={}\n\
         # provenance: nproc={} simd={:?} git_rev={} seed={} wal_fs={}\n",
        opts.workload.name(),
        opts.seconds,
        u8::from(opts.trace),
        sys::nproc(),
        magicrecs_core::simd_level(),
        sys::git_rev(),
        opts.seed,
        sys::fs_type(scratch),
    )
}

fn e2e_metrics(
    inputs: &Inputs,
    served: &Served,
    mismatched: u64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let measured = || served.batches.iter().filter(|b| b.measured);
    let acked_events: u64 = measured()
        .filter(|b| b.ack_ms.is_some())
        .map(|b| inputs.lanes[b.lane].batches[b.idx].events.len() as u64)
        .sum();
    let ack = Samples::new(measured().filter_map(|b| b.ack_ms).collect());
    let deliver = Samples::new(
        measured()
            .flat_map(|b| b.deliver_ms.iter().copied())
            .collect(),
    );
    let mut m = vec![
        Metric::stat(
            "events_per_s",
            Some(acked_events as f64 / served.wall_s),
            "1/s",
            ack.len(),
        ),
        Metric::stat("ack_p50_ms", ack.pct(0.5), "ms", ack.len()),
        Metric::stat("ack_p99_ms", ack.pct(0.99), "ms", ack.len()),
        Metric::stat("deliver_p50_ms", deliver.pct(0.5), "ms", deliver.len()),
        Metric::stat("deliver_p99_ms", deliver.pct(0.99), "ms", deliver.len()),
    ];
    if inputs.workload == Workload::ZipfReplicated {
        let rep = Samples::new(served.replicated_ms.clone());
        m.push(Metric::stat(
            "replicated_p50_ms",
            rep.pct(0.5),
            "ms",
            rep.len(),
        ));
    }
    m.extend([
        Metric::stat(
            "error_share",
            Some(failed as f64 / attempted.max(1) as f64),
            "share",
            attempted as usize,
        ),
        Metric::new("candidates_mismatched", mismatched as f64, "count"),
        Metric::stat(
            "setup_s",
            Some(stats::median(&served.setups)),
            "s",
            served.setups.len(),
        ),
        Metric::new("peak_rss_mb", served.peak_rss_mb, "MiB"),
    ]);
    m
}

/// The traced run replays the pre-fill into `D`, then the measured batches
/// in the served run's send order, up to [`trace::TRACE_MAX_EVENTS`].
fn trace_job<'a>(
    inputs: &'a Inputs,
    served: &Served,
    reference: &[verify::Digest],
) -> trace::Job<'a> {
    let mut prefill = Vec::new();
    let mut batches = Vec::new();
    let mut events = 0usize;
    for (b, digest) in served.batches.iter().zip(reference) {
        let evs = &inputs.lanes[b.lane].batches[b.idx].events[..];
        if !b.measured {
            prefill.push(evs);
        } else if events < trace::TRACE_MAX_EVENTS {
            events += evs.len();
            batches.push((evs, *digest));
        }
    }
    trace::Job {
        workload: inputs.workload,
        graph: &inputs.graph,
        prefill,
        batches,
    }
}

fn ledger_table(l: &Ledger, spans: &Path) -> String {
    let mut s = format!(
        "# ledger: traced replay, {} batches, {} events, {} spans -> {}\n",
        l.batches,
        l.events,
        l.spans.len(),
        spans.display()
    );
    let _ = writeln!(
        s,
        "{:<26} {:>10} {:>12} {:>8}",
        "layer", "calls", "self_ms", "share"
    );
    for (name, calls, ns) in &l.rows {
        let _ = writeln!(
            s,
            "{:<26} {:>10} {:>12.3} {:>7.2}%",
            name,
            calls,
            ns / 1e6,
            100.0 * ns / l.e2e_ns
        );
    }
    let _ = writeln!(
        s,
        "{:<26} {:>10} {:>12.3} {:>7.2}%",
        "= traced e2e",
        l.batches,
        l.e2e_ns / 1e6,
        100.0
    );
    let _ = writeln!(
        s,
        "# untraced e2e {:.3} ms; tracing overhead {:+.2}%; unattributed {:.2}% (bound {:.0}%): {}",
        l.untraced_ns / 1e6,
        100.0 * l.overhead_share(),
        100.0 * l.unattributed_share(),
        100.0 * trace::LEDGER_BOUND,
        if l.unattributed_share().abs() <= trace::LEDGER_BOUND {
            "ledger ok"
        } else {
            "LEDGER FAILS: layers do not account for e2e"
        }
    );
    s
}

fn layer_metrics(served: &Served, l: &Ledger, e2e: &[Metric]) -> Vec<Metric> {
    let per = |name: &str, n: u64| {
        if n == 0 {
            0.0
        } else {
            l.self_ns(name) / n as f64
        }
    };
    let events = l.events;
    let ack_p50 = e2e
        .iter()
        .find(|m| m.name == "ack_p50_ms")
        .and_then(|m| m.value)
        .unwrap_or(0.0);
    // Served-run replica statistics; 0 where the workload has no replica.
    let ship = Samples::new(served.ship_lag_ms.clone());
    let rep = Samples::new(served.replicated_ms.clone());
    vec![
        Metric::new(
            "server.decode_ns_per_event",
            per("server.decode", events),
            "ns/event",
        ),
        Metric::new(
            "server.admission_ns_per_batch",
            per("server.admission", l.batches),
            "ns/batch",
        ),
        Metric::new(
            "server.encode_ns_per_candidate",
            per("server.encode", l.candidates),
            "ns/candidate",
        ),
        Metric::new(
            "server.deliver_write_ns_per_kib",
            if l.deliver_bytes == 0 {
                0.0
            } else {
                l.self_ns("server.deliver_write") / (l.deliver_bytes as f64 / 1024.0)
            },
            "ns/KiB",
        ),
        Metric::new("server.queue_wait_ms_p50", ack_p50 - l.batch_p50_ms, "ms"),
        Metric::new(
            "persist.wal_append_ns_per_event",
            per("persist.wal_append", events),
            "ns/event",
        ),
        Metric::new(
            "persist.wal_fsync_us_per_batch",
            per("persist.wal_fsync", l.batches) / 1e3,
            "us/batch",
        ),
        Metric::new(
            "persist.wal_bytes_per_event",
            l.wal_bytes as f64 / events.max(1) as f64,
            "B/event",
        ),
        Metric::new(
            "temporal.d_insert_ns_per_event",
            per("temporal.d_insert", events),
            "ns/event",
        ),
        Metric::new(
            "temporal.d_expire_ns_per_event",
            per("temporal.d_expire", events),
            "ns/event",
        ),
        Metric::new(
            "temporal.witness_gather_ns_per_event",
            per("temporal.witness_gather", events),
            "ns/event",
        ),
        Metric::new(
            "temporal.resident_entries",
            l.resident_entries as f64,
            "count",
        ),
        Metric::new(
            "core.threshold_ns_per_firing_event",
            per("core.threshold", l.firing),
            "ns/event",
        ),
        Metric::new(
            "core.recovery_ns_per_candidate",
            per("core.recovery", l.candidates),
            "ns/candidate",
        ),
        Metric::new(
            "core.fire_ratio",
            l.firing as f64 / events.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "core.candidates_per_event",
            l.candidates as f64 / events.max(1) as f64,
            "count",
        ),
        Metric::stat(
            "replica.replicated_p50_ms",
            rep.pct(0.5).or(Some(0.0)),
            "ms",
            rep.len(),
        ),
        Metric::stat(
            "replica.ship_lag_ms_p50",
            ship.pct(0.5).or(Some(0.0)),
            "ms",
            ship.len(),
        ),
        Metric::new(
            "replica.tail_rounds_per_batch",
            served.tail_rounds_per_batch,
            "ratio",
        ),
        Metric::new("replica.reroutes", served.reroutes as f64, "count"),
    ]
}
