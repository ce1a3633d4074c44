//! # magicrecs-motif
//!
//! The paper's concluding vision (§3), built: "we envision the development
//! of a generalized framework where one can declaratively specify a motif,
//! which would yield an optimized query plan against an online graph
//! database. This would seem to represent an entirely new class of data
//! management systems."
//!
//! Pipeline: **text spec → AST → [`Plan`] (`DetectorConfig` + kind filter)
//! → `ConcurrentEngine`**.
//!
//! ```text
//! motif diamond {
//!     A -> B : static;
//!     B -> C : dynamic within 600s kinds follow;
//!     trigger B -> C;
//!     emit (A, C) when count(B) >= 3;
//! }
//! ```
//!
//! * [`spec`] — the AST ([`MotifSpec`]) and its structural validation.
//! * [`parse`] — a hand-rolled recursive-descent parser with line/column
//!   errors (no parser dependencies).
//! * [`plan`] — the physical plan: the detector configuration the engine
//!   runs plus the trigger's kind filter, with an `EXPLAIN`-style renderer.
//! * [`planner`] — compiles specs in the *diamond family* (one static
//!   fan-in joined against one windowed dynamic fan-in) to plans; anything
//!   outside the family is rejected with a diagnostic, documenting the
//!   current planner's frontier exactly as a young query engine would.
//! * [`exec`] — [`MotifEngine`] runs a plan on the served
//!   `ConcurrentEngine`, behind the plan's kind filter; [`MotifSuite`] runs
//!   several motif programs over one graph, the paper's "additional
//!   programs that use the graph infrastructure".
//! * [`library`] — built-in specs: the production diamond, the k=2 example,
//!   content co-engagement, and a celebrity-burst variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod exec;
pub mod library;
pub mod parse;
pub mod plan;
pub mod planner;
pub mod spec;

pub use cluster::MotifCluster;
pub use exec::{MotifEngine, MotifSuite};
pub use parse::parse_motif;
pub use plan::Plan;
pub use planner::plan_motif;
pub use spec::{EdgeDecl, EmitDecl, Layer, MotifSpec};
