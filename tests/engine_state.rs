//! Node state read back through `NetworkSim`'s accessors after a run, on both engines.
//!
//! The sharded engine keeps each stripe's state in its own node-state core and the
//! accessors locate a node's core after the run, so every per-node query must answer
//! exactly as after a sequential run. On exact physics (stationary nodes, no loss, no
//! collisions, no MAC jitter) the two engines are byte-identical, so the answers must
//! agree bit for bit.

use ssmcast::baselines::FloodingAgent;
use ssmcast::dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast::manet::{EngineConfig, FaultKind, FaultPlan, NetworkSim, NodeId, SimReport};
use ssmcast::scenario::{build_mobility, build_setup, MobilityKind, Scenario};

/// Two churning sessions on a stationary, loss-free, collision-free, jitter-free grid
/// with finite batteries.
fn exact_physics_scenario() -> Scenario {
    let mut s = Scenario::quick_test()
        .with_mobility(MobilityKind::StaticGrid)
        .with_groups(2)
        .with_churn_rate(0.5)
        .with_battery_capacity(500.0);
    s.duration_s = 12.0;
    s.warmup_s = 1.0;
    s.n_nodes = 25;
    s.group_size = 8;
    s.radio.loss_probability = 0.0;
    s.radio.collisions_enabled = false;
    s.radio.mac_backoff_max = SimDuration::ZERO;
    s
}

/// Run flooding on `shards` shards (0 = the sequential engine) with engine statistics.
fn run(s: &Scenario, shards: u32, plan: &FaultPlan) -> (NetworkSim<FloodingAgent>, SimReport) {
    let seeds = SeedSequence::new(s.seed);
    let mut setup = build_setup(s, seeds);
    setup.faults = plan.clone();
    let engine = if shards == 0 { EngineConfig::default() } else { EngineConfig::sharded(shards) };
    setup.engine = engine.with_stats();
    let agents = (0..setup.n_nodes() * setup.n_sessions()).map(|_| FloodingAgent::new()).collect();
    let mut sim = NetworkSim::new(setup, build_mobility(s, &seeds), agents);
    let report = sim.run(SimDuration::from_secs_f64(s.duration_s));
    (sim, report)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with(SimTime::from_secs(3), FaultKind::Corrupt { node: NodeId(3) })
        .with(
            SimTime::from_secs(4),
            FaultKind::Crash { node: NodeId(5), down_for: SimDuration::from_secs(3) },
        )
        .with(
            SimTime::from_secs(5),
            FaultKind::Crash { node: NodeId(12), down_for: SimDuration::MAX },
        )
        .with(SimTime::from_secs(6), FaultKind::Drain { node: NodeId(7), joules: 1e6 })
}

#[test]
fn events_processed_matches_the_engine_stats_on_every_engine() {
    let s = exact_physics_scenario();
    for shards in [0u32, 1, 3] {
        let (sim, report) = run(&s, shards, &fault_plan());
        let stats = report.engine.expect("engine statistics were requested");
        let per_shard: u64 = stats.shard_event_counts.iter().sum();
        assert!(stats.events_processed > 0, "{shards} shards: the run processes events");
        assert_eq!(per_shard, stats.events_processed, "{shards} shards: counts sum to the total");
        assert_eq!(
            sim.events_processed(),
            stats.events_processed,
            "{shards} shards: NetworkSim::events_processed must match the engine statistics"
        );
    }
}

#[test]
fn node_state_agrees_across_engines_after_a_faulted_run() {
    let s = exact_physics_scenario();
    let plan = fault_plan();
    let (seq, seq_report) = run(&s, 0, &plan);
    let groups = seq_report.groups.as_ref().expect("two sessions carry a breakdown");
    assert!(groups.iter().any(|g| g.joins + g.leaves > 0), "churn must change some roles");
    assert!(seq.is_crashed(NodeId(12)), "the permanent crash outlives the run");
    assert!(!seq.is_crashed(NodeId(5)), "the transient crash rejoined");
    assert!(seq.death_time(NodeId(7)).is_some(), "the drain spike empties node 7's battery");
    for shards in [1u32, 3] {
        let (sharded, _) = run(&s, shards, &plan);
        for i in 0..s.n_nodes as u32 {
            let node = NodeId(i);
            let (a, b) = (seq.battery(node), sharded.battery(node));
            assert_eq!(a.consumed().to_bits(), b.consumed().to_bits(), "{shards}: node {i} energy");
            assert_eq!(
                a.remaining().to_bits(),
                b.remaining().to_bits(),
                "{shards}: node {i} charge"
            );
            assert_eq!(seq.death_time(node), sharded.death_time(node), "{shards}: node {i} death");
            assert_eq!(seq.is_crashed(node), sharded.is_crashed(node), "{shards}: node {i} crash");
            for session in 0..2 {
                assert_eq!(
                    seq.role_in(session, node),
                    sharded.role_in(session, node),
                    "{shards}: node {i} role in session {session}"
                );
            }
        }
    }
}
