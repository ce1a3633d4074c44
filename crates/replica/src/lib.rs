//! # magicrecs-replica
//!
//! WAL-shipping replication for partition-per-core MagicRecs: warm
//! followers, kill -9 leader failover, and live partition rebalance.
//! This is ROADMAP item 4's multi-node half — partitions become
//! *movable units* with a leader and a warm follower, coordinated by a
//! small static control plane over the existing wire protocol (frame
//! types 16–31, see `magicrecs-server`).
//!
//! ## Topology
//!
//! ```text
//!                    ┌─────────────┐  RoleChange / FollowReq / StatusReq
//!                    │ Coordinator │──────────────────┐
//!                    └──────┬──────┘                  │
//!                           │                         ▼
//!   RoutedClient ──Ingest──▶ node A ──SegmentChunk──▶ node B
//!   (SeqLedger,             (leader,                 (warm follower:
//!    WrongLeader            MGWL WAL +               ShipDecoder →
//!    re-route)              EpochGate)               own WAL+MGCI)
//! ```
//!
//! Each node ([`Node`]) hosts one **unit** per partition it replicates:
//! a `PersistentConcurrentEngine` on one WAL partition (WAL +
//! incremental checkpoints + live detector — the engine and durability
//! path the single-node server runs) fenced by an `EpochGate`.
//! Followers tail the leader's `MGWL`
//! segments (`SegmentsReq`/`SegmentFetch`), re-validate every CRC and
//! sequence through `ShipDecoder`, and append through their *own*
//! engine — so a follower is always exactly "the leader at sequence
//! `d`" for its durable watermark `d`, and promotion is just flipping
//! the gate.
//!
//! ## Replication contract
//!
//! Sequencing. Clients assign dense per-partition sequence numbers
//! (the `SeqLedger`); the batch tag is the first event's sequence, and
//! the leader's WAL assigns those exact sequences on append. Re-sending
//! a batch is therefore idempotent: the leader compares the tag to its
//! durable watermark, skips the already-held prefix, and refuses
//! genuine gaps.
//!
//! Watermarks (all *next-sequence* values):
//!
//! * **durable** — everything below is fsynced in the local WAL
//!   (`FsyncPolicy::Always`, so apply ⇒ durable). It advances only after
//!   a successful append: a failed one leaves it, and the failed batch
//!   is never acked;
//! * **replicated** — everything below is durable *on a follower*
//!   (learned from the follower's own `SegmentsReq{from_seq}` floor);
//! * **acked** — the client saw `IngestAck{durable ≥ batch end}`.
//!
//! ## Failover contract (the acked tail)
//!
//! On kill -9 of a leader, the coordinator promotes the follower **at
//! the follower's durable sequence** `P`. Batches acked by the dead
//! leader but not yet shipped (`replicated ≤ tag < durable`) are above
//! `P` — that window is the *acked tail*. The contract that makes it
//! safe: a client's ledger releases a batch only at the **replicated**
//! watermark, so the client still holds the acked tail, re-sends it to
//! the promoted leader after the typed `WrongLeader` dance, and the
//! sequence dedup re-applies it exactly once. Net effect: no acked
//! event is lost end-to-end; the candidate stream matches a fault-free
//! twin modulo re-delivery of in-flight batches (deduplicated by tag).
//!
//! Rebalance extends the same machinery to a node that never hosted
//! the partition: ship the base checkpoint + MGCI chain + WAL tail
//! (`StateListReq`/`StateFetch`, then ordinary crash recovery), tail
//! until live, then run the demote→catch-up→promote fence
//! ([`Coordinator::rebalance`]) so the route flips under load without
//! dropping a single acked event.
//!
//! ## Process model
//!
//! One OS process per node (`replica_node --config <map> --node <id>`),
//! loopback TCP, blocking thread-per-connection I/O — deliberately
//! simple next to the epoll serving tier, because the replication
//! plane's throughput needs are segment-sized, not event-sized. The
//! multi-process tests in `tests/` kill -9 leaders mid-ingest and
//! assert parity against fault-free twins.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod coordinator;
pub mod metrics;
pub mod node;
pub(crate) mod tail;

pub use client::RoutedClient;
pub use config::{ClusterMap, NodeSpec, PartitionSpec};
pub use coordinator::Coordinator;
pub use metrics::{replica_metrics, ReplicaMetrics};
pub use node::{fixture_graph, Node, NodeConfig, NodeHandle, WAL_PREFIX};
