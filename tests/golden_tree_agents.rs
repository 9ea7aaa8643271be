//! Regression guard for the self-stabilizing tree agents: the serialized `SimReport` of
//! every SS-SPST variant and SS-MST, across the scenario features that reach the agent
//! (beacon suppression, faults, mobility with churning sessions, the sharded engine, state
//! corruption under a capped backoff), must stay byte-for-byte what the golden file holds.

use ssmcast::core::MetricKind;
use ssmcast::manet::{FaultPlanSpec, SilenceConfig};
use ssmcast::scenario::{run_protocol, MobilityKind, ProtocolKind, Scenario};

fn protocols() -> Vec<ProtocolKind> {
    let mut kinds: Vec<ProtocolKind> =
        MetricKind::ALL.iter().map(|&k| ProtocolKind::SsSpst(k)).collect();
    kinds.push(ProtocolKind::SsMst);
    kinds
}

fn scenarios() -> Vec<Scenario> {
    let base = Scenario::quick_test;
    let mut grid = base().with_mobility(MobilityKind::StaticGrid);
    grid.duration_s = 120.0;
    let grid = grid
        .with_silence(SilenceConfig::on().with_max_interval_factor(8.0))
        .with_faults(FaultPlanSpec::corruption(3, 0.3, 30.0, 90.0));
    vec![
        base(),
        base().with_silence(SilenceConfig::on()),
        base().with_faults(FaultPlanSpec::stress(10.0, 50.0)),
        base().with_mobility(MobilityKind::GaussMarkov).with_groups(2).with_churn_rate(0.2),
        base().with_shards(2),
        grid,
    ]
}

fn rendered() -> String {
    let mut out = String::new();
    for s in scenarios() {
        for kind in protocols() {
            let report = run_protocol(&s, kind.to_protocol().as_ref());
            out.push_str(&serde_json::to_string(&report).expect("reports serialize"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn tree_agent_reports_match_the_golden_bytes() {
    let golden = include_str!("golden/tree_agents.jsonl");
    let now = rendered();
    assert_eq!(golden.lines().count(), 30, "six scenarios x five tree protocols");
    for (i, (g, n)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(g, n, "report line {i} diverged from the golden bytes");
    }
    assert_eq!(golden, now);
}

/// Regenerate the golden file (run manually: `GOLDEN_WRITE=1 cargo test --release --test
/// golden_tree_agents -- --ignored golden_write`).
#[test]
#[ignore]
fn golden_write() {
    if std::env::var("GOLDEN_WRITE").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tree_agents.jsonl"),
            rendered(),
        )
        .unwrap();
    }
}
