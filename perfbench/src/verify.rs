//! The correctness gate: per-batch multiset digests of delivered
//! candidates, checked against an in-process reference built from the
//! sequential (single-threaded) [`Engine`].
//!
//! A digest is `(count, Σ h, Σ mix(h))` over 64-bit candidate hashes, so
//! it is independent of candidate order and equal for equal multisets; two
//! different multisets collide with probability about 2⁻¹²⁸. A digest is
//! 24 bytes per batch, so the gate's memory does not grow with the
//! millions of candidates a celebrity run delivers.

use magicrecs_core::Engine;
use magicrecs_graph::FollowGraph;
use magicrecs_types::{route_mix, Candidate, EdgeEvent};

use crate::workload::detector;

/// Order-independent fingerprint of a candidate multiset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Candidates folded in.
    pub count: u64,
    sum: u64,
    sum_mixed: u64,
}

impl Digest {
    /// Folds in one candidate.
    pub fn add(&mut self, c: &Candidate) {
        let h = candidate_hash(c);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.sum_mixed = self.sum_mixed.wrapping_add(mix(h ^ 0x9E37_79B9_7F4A_7C15));
    }

    /// Folds in every candidate of `cs`.
    pub fn add_all(&mut self, cs: &[Candidate]) {
        for c in cs {
            self.add(c);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    // splitmix64 finaliser.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of every field of a candidate, witnesses in their (sorted) order.
pub fn candidate_hash(c: &Candidate) -> u64 {
    let mut h = mix(c.user.0 ^ 0xA076_1D64_78BD_642F);
    h = mix(h ^ c.target.0);
    h = mix(h ^ c.triggered_at.as_micros());
    for w in &c.witnesses {
        h = mix(h ^ w.0);
    }
    mix(h ^ c.witnesses.len() as u64)
}

/// Candidates in batches whose delivered digest differs from the
/// reference's, counting both sides of each disagreeing batch. Zero exactly
/// when every batch delivered the reference multiset.
pub fn mismatched(delivered: &[Digest], reference: &[Digest]) -> u64 {
    assert_eq!(
        delivered.len(),
        reference.len(),
        "one digest per sent batch"
    );
    delivered
        .iter()
        .zip(reference)
        .filter(|(d, r)| d != r)
        .map(|(d, r)| d.count + r.count)
        .sum()
}

/// One batch as the reference replays it: the engine it belongs to (one
/// shared engine on the server, one per partition on the replica leader)
/// and its events. Give batches in the order the served run sent them.
pub struct RefBatch<'a> {
    /// Engine group: batches of one group replay through one engine.
    pub group: u32,
    /// The batch's events.
    pub events: &'a [EdgeEvent],
}

/// Replays `batches` through sequential [`Engine`]s, one per group, and
/// returns each batch's candidate digest.
///
/// A target's candidates depend only on `S` and that target's own events,
/// so the replay is split by destination across one thread per core, each
/// with its own engines; a batch's digest is the sum of its shards'.
pub fn reference(graph: &FollowGraph, batches: &[RefBatch<'_>]) -> Vec<Digest> {
    let shards = crate::sys::nproc() as u64;
    let per_shard: Vec<Vec<Digest>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                s.spawn(move || {
                    let mut engines: Vec<Option<Engine>> = Vec::new();
                    let mut events = Vec::new();
                    let mut out = Vec::new();
                    let mut digests = Vec::with_capacity(batches.len());
                    for b in batches {
                        let g = b.group as usize;
                        if engines.len() <= g {
                            engines.resize_with(g + 1, || None);
                        }
                        let engine = engines[g].get_or_insert_with(|| {
                            Engine::new(graph.clone(), detector())
                                .expect("production config is valid")
                        });
                        events.clear();
                        events.extend(
                            b.events
                                .iter()
                                .filter(|e| route_mix(&e.dst) % shards == shard),
                        );
                        out.clear();
                        engine.on_events_into(&events, &mut out);
                        let mut d = Digest::default();
                        d.add_all(&out);
                        digests.push(d);
                    }
                    digests
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    (0..batches.len())
        .map(|i| {
            per_shard
                .iter()
                .fold(Digest::default(), |acc, shard| Digest {
                    count: acc.count + shard[i].count,
                    sum: acc.sum.wrapping_add(shard[i].sum),
                    sum_mixed: acc.sum_mixed.wrapping_add(shard[i].sum_mixed),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::{Timestamp, UserId};

    fn cand(user: u64, witnesses: &[u64]) -> Candidate {
        Candidate {
            user: UserId(user),
            target: UserId(7),
            witnesses: witnesses.iter().map(|&w| UserId(w)).collect(),
            triggered_at: Timestamp::from_secs(3),
        }
    }

    #[test]
    fn digest_is_order_independent_and_field_sensitive() {
        let (a, b) = (cand(1, &[2, 3]), cand(4, &[2, 3]));
        let mut ab = Digest::default();
        ab.add_all(&[a.clone(), b.clone()]);
        let mut ba = Digest::default();
        ba.add_all(&[b.clone(), a.clone()]);
        assert_eq!(ab, ba);
        let mut changed = Digest::default();
        changed.add_all(&[a, cand(4, &[2, 5])]);
        assert_ne!(ab, changed);
        assert_eq!(mismatched(&[ab], &[changed]), 4);
        assert_eq!(mismatched(&[ab], &[ba]), 0);
    }
}
