//! Self-test of the benchmark: every metric is printed with its unit, the
//! correctness gate fires on a corrupted candidate, and the reference the
//! gate trusts agrees with the brute-force oracle.

use magicrecs_baseline::BatchOracle;
use magicrecs_perfbench::verify::{reference, Digest, RefBatch};
use magicrecs_perfbench::workload::{detector, generate, Workload};
use magicrecs_perfbench::{run, Options};

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> magicrecs_perfbench::Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        corrupt_one_candidate: corrupt,
    })
    .expect("tiny run completes")
}

const E2E: [(&str, &str); 9] = [
    ("events_per_s", "1/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p99_ms", "ms"),
    ("error_share", "share"),
    ("candidates_mismatched", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 17] = [
    ("server.decode_ns_per_event", "ns/event"),
    ("server.admission_ns_per_batch", "ns/batch"),
    ("server.encode_ns_per_candidate", "ns/candidate"),
    ("server.deliver_write_ns_per_kib", "ns/KiB"),
    ("server.queue_wait_ms_p50", "ms"),
    ("persist.wal_append_ns_per_event", "ns/event"),
    ("persist.wal_fsync_us_per_batch", "us/batch"),
    ("persist.wal_bytes_per_event", "B/event"),
    ("temporal.d_insert_ns_per_event", "ns/event"),
    ("temporal.witness_gather_ns_per_event", "ns/event"),
    ("temporal.resident_entries", "count"),
    ("core.threshold_ns_per_firing_event", "ns/event"),
    ("core.recovery_ns_per_candidate", "ns/candidate"),
    ("core.fire_ratio", "ratio"),
    ("core.candidates_per_event", "count"),
    ("replica.ship_lag_ms_p50", "ms"),
    ("replica.tail_rounds_per_batch", "ratio"),
];

/// The table line of `name`, split into whitespace-separated cells.
fn row<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&name))
        .unwrap_or_else(|| panic!("metric {name} not printed:\n{text}"))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        let out = tiny(workload, true, false);
        assert!(
            out.correct,
            "{}: tiny run failed its checks:\n{}",
            workload.name(),
            out.text
        );
        let mut expected: Vec<(&str, &str)> = E2E.iter().chain(&PER_LAYER).copied().collect();
        expected.push(("replica.reroutes", "count"));
        if workload == Workload::ZipfReplicated {
            expected.push(("replicated_p50_ms", "ms"));
        }
        for (name, unit) in expected {
            let cells = row(&out.text, name);
            assert_eq!(
                cells.get(2),
                Some(&unit),
                "{}: {name} unit",
                workload.name()
            );
        }
        assert!(
            out.text.contains("unattributed") && out.text.contains("= traced e2e"),
            "ledger table missing:\n{}",
            out.text
        );
        let last = out.json.as_str();
        for key in [
            "\"correct\": true",
            "\"attempted\": ",
            "\"failed\": 0",
            "\"metrics\": {",
        ] {
            assert!(last.contains(key), "result line lacks {key}: {last}");
        }
    }
}

#[test]
fn a_corrupted_candidate_fails_the_run() {
    for workload in [Workload::CelebrityServe, Workload::ZipfReplicated] {
        let out = tiny(workload, false, true);
        assert!(
            !out.correct,
            "{}: corruption went unnoticed",
            workload.name()
        );
        let cells = row(&out.text, "candidates_mismatched");
        let mismatched: f64 = cells[1].parse().expect("a number");
        assert!(mismatched > 0.0, "{}: {cells:?}", workload.name());
        assert!(out.json.contains("\"correct\": false"));
    }
}

/// The reference engines agree with `BatchOracle` on a short prefix of
/// every workload (the oracle is quadratic, so the prefix stays small).
#[test]
fn reference_matches_the_batch_oracle() {
    let oracle = BatchOracle::new(detector()).expect("valid config");
    for (workload, prefix) in [
        (Workload::ZipfReplicated, 10_000),
        (Workload::CelebrityServe, 100),
        (Workload::ZipfServe, 10_000),
    ] {
        let inputs = generate(workload, 11, 1);
        // Per engine group, the group's events in lane order.
        let mut groups: Vec<Vec<_>> = Vec::new();
        let mut taken = 0;
        for lane in &inputs.lanes {
            for batch in &lane.batches {
                let g = if workload == Workload::ZipfReplicated {
                    batch.part as usize
                } else {
                    0
                };
                if groups.len() <= g {
                    groups.resize(g + 1, Vec::new());
                }
                let take = batch.events.len().min(prefix - taken);
                groups[g].extend_from_slice(&batch.events[..take]);
                taken += take;
            }
        }
        let mut fired = 0;
        for (g, events) in groups.iter().enumerate() {
            let ours = reference(
                &inputs.graph,
                &[RefBatch {
                    group: g as u32,
                    events,
                }],
            );
            let mut theirs = Digest::default();
            theirs.add_all(&oracle.replay(&inputs.graph, events));
            assert_eq!(ours[0], theirs, "{} group {g}", workload.name());
            fired += theirs.count;
        }
        assert!(
            fired > 0,
            "{}: the prefix must exercise detection",
            workload.name()
        );
    }
}
