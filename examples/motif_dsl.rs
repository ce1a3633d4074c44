//! The §3 vision: declaratively specified motifs compiled to query plans.
//!
//! Parses a motif from text, EXPLAINs its plan, and runs a suite of four
//! motif programs (who-to-follow diamond, content co-engagement, breaking
//! news) over one shared graph infrastructure — "additional programs that
//! use the graph infrastructure".
//!
//! Run with: `cargo run --example motif_dsl`

use magicrecs::gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs::motif::{library, parse_motif, plan_motif, MotifSuite};
use magicrecs::prelude::*;
use magicrecs::types::EdgeKind;
use std::sync::Arc;

fn main() {
    // ── Declare a motif in text ──────────────────────────────────────────
    let src = r#"
        # Who-to-follow, production parameters.
        motif diamond {
            A -> B : static;
            B -> C : dynamic within 600s kinds follow;
            trigger B -> C;
            emit (A, C) when count(B) >= 3;
        }
    "#;
    let spec = parse_motif(src).expect("well-formed spec");
    println!(
        "Parsed motif `{}` with roles {:?}",
        spec.name,
        spec.variables()
    );

    // ── EXPLAIN the compiled plan ────────────────────────────────────────
    let plan = plan_motif(&spec).expect("plannable");
    println!("\n{}", plan.explain());

    // ── A plan the current planner rejects, with a diagnostic ───────────
    let too_deep = parse_motif(
        "motif deep { A -> X : static; X -> B : static; B -> C : dynamic; \
         trigger B -> C; emit (A, C) when count(B) >= 2; }",
    )
    .unwrap();
    match plan_motif(&too_deep) {
        Err(e) => println!("Planner frontier: {e}\n"),
        Ok(_) => unreachable!(),
    }

    // ── Run the built-in suite over one shared graph ─────────────────────
    let graph = Arc::new(GraphGen::new(GraphGenConfig::small()).generate());
    let mut suite = MotifSuite::new();
    for engine in library::builtin_engines(Arc::clone(&graph)).unwrap() {
        println!(
            "Registered `{}` (window {}, k = {})",
            engine.name(),
            engine.plan().config.tau,
            engine.plan().config.k
        );
        suite.register(engine);
    }

    // Workload: follow traffic + a retweet storm on one author.
    let follows = Scenario::steady(1_000, ScenarioConfig::small());
    let author = graph
        .iter_inverse()
        .max_by_key(|(_, f)| f.len())
        .map(|(b, _)| b)
        .unwrap();
    let retweets = Scenario::breaking_news(
        &graph,
        author,
        30,
        Duration::from_secs(45),
        ScenarioConfig {
            start: Timestamp::from_secs(20),
            ..ScenarioConfig::small()
        },
    );
    let trace = follows.merge(retweets);

    let mut per_motif: std::collections::BTreeMap<String, usize> = Default::default();
    for &event in trace.events() {
        for (name, _candidate) in suite.on_event(event) {
            *per_motif.entry(name).or_default() += 1;
        }
    }

    println!("\n── Candidates per motif program ──────────────────────────");
    for engine in suite.engines() {
        let n = per_motif.get(engine.name()).copied().unwrap_or(0);
        println!(
            "  {:<16} {:>6} candidates  ({} events accepted)",
            engine.name(),
            n,
            engine.events_processed()
        );
    }

    // The retweet storm must reach the co-engagement motif but not the
    // follow-only diamond's event filter.
    let co_events = suite
        .engines()
        .iter()
        .find(|e| e.name() == "co_engagement")
        .unwrap()
        .events_processed();
    let retweet_count = trace
        .events()
        .iter()
        .filter(|e| e.kind == EdgeKind::Retweet)
        .count() as u64;
    assert!(co_events >= retweet_count, "co-engagement missed retweets");
    println!(
        "\n\"Beyond the diamond motif there may exist others … implemented as \
         additional programs that use the graph infrastructure\" — §3, reproduced."
    );
}
