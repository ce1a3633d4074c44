//! Physical plans: a detector configuration plus a kind filter, and an
//! `EXPLAIN`-style renderer.
//!
//! The planner compiles a [`crate::MotifSpec`] into a [`Plan`]. Every
//! diamond-family motif is the paper's diamond with its own `k`, `τ`,
//! witness cap and filters, so the plan's executable part is a
//! [`DetectorConfig`] the served `ConcurrentEngine` runs as-is; the only
//! thing a plan adds is the trigger edge's kind filter, applied in front
//! of the engine.

use magicrecs_types::{DetectorConfig, EdgeKind};
use std::fmt::Write;

/// An executable motif plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Motif name (from the spec).
    pub name: String,
    /// Event kinds the trigger edge accepts (`None` = all insertions).
    pub kinds: Option<Vec<EdgeKind>>,
    /// The detector the engine runs: `k`, window `tau`, witness cap and
    /// existing-follower filtering.
    pub config: DetectorConfig,
}

impl Plan {
    /// Whether an incoming event kind matches the trigger's kind filter.
    /// Unfollows always match when follows do (they retract state).
    pub fn accepts_kind(&self, kind: EdgeKind) -> bool {
        match &self.kinds {
            None => true,
            Some(ks) => {
                if kind == EdgeKind::Unfollow {
                    ks.contains(&EdgeKind::Follow)
                } else {
                    ks.contains(&kind)
                }
            }
        }
    }

    /// Renders the plan in `EXPLAIN` style: the header, then the
    /// detector's fixed stages as `config` parameterises them.
    pub fn explain(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PLAN {} (window = {}, k = {}, kinds = {})",
            self.name,
            c.tau,
            c.k,
            match &self.kinds {
                None => "any".to_string(),
                Some(ks) => ks
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            }
        );
        let mut stages = vec![
            "IngestDynamic[D.insert/remove]".to_string(),
            "LoadWitnesses[D lookup by target]".to_string(),
            format!("RequireWitnesses[n >= {}]", c.k),
        ];
        if let Some(cap) = c.max_witnesses {
            stages.push(format!("CapWitnesses[{cap} most recent]"));
        }
        stages.push("LoadFollowerLists[S lookup per witness]".to_string());
        stages.push(format!(
            "ThresholdCount[sorted-list intersection, k = {}]",
            c.k
        ));
        stages.push("FilterSelf".to_string());
        if c.skip_existing {
            stages.push("FilterWitnesses".to_string());
            stages.push("FilterAlreadyFollowing[S probe]".to_string());
        }
        stages.push("EmitCandidates".to_string());
        for (i, stage) in stages.iter().enumerate() {
            let _ = writeln!(out, "  {i:>2}. {stage}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            name: "diamond".into(),
            kinds: Some(vec![EdgeKind::Follow]),
            config: DetectorConfig::production(),
        }
    }

    #[test]
    fn kind_filter_semantics() {
        let p = plan();
        assert!(p.accepts_kind(EdgeKind::Follow));
        assert!(p.accepts_kind(EdgeKind::Unfollow)); // retracts follows
        assert!(!p.accepts_kind(EdgeKind::Retweet));

        let open = Plan { kinds: None, ..p };
        assert!(open.accepts_kind(EdgeKind::Retweet));
        assert!(open.accepts_kind(EdgeKind::Unfollow));
    }

    #[test]
    fn retweet_only_plan_ignores_unfollow() {
        let p = Plan {
            kinds: Some(vec![EdgeKind::Retweet]),
            ..plan()
        };
        assert!(!p.accepts_kind(EdgeKind::Unfollow));
        assert!(p.accepts_kind(EdgeKind::Retweet));
    }

    #[test]
    fn explain_renders_all_steps() {
        let p = plan();
        let text = p.explain();
        assert!(text.contains("PLAN diamond"));
        assert!(text.contains("window = 600.000s"));
        assert!(text.contains("ThresholdCount"));
        // Header plus the production detector's ten stages: ingest, load,
        // require, cap, follower lists, threshold, three filters, emit.
        assert_eq!(text.lines().count(), 1 + 10);
    }
}
