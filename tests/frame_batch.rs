//! One queue entry per frame: what batching every receiver's copy of a broadcast into
//! one event must leave unchanged.
//!
//! * Engine statistics count frame copies, not queue entries: the event counts and the
//!   queue depth of a hand-countable flood are pinned to values derived by hand, on
//!   both engines.
//! * An event queued while a frame's copies are being handed out still runs in its
//!   canonical place: a zero-delay timer armed in `on_packet` preempts the rest of the
//!   frame on the sharded engine.

use ssmcast::baselines::FloodingAgent;
use ssmcast::dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast::manet::{
    BoxedMobility, DataTag, Disposition, EngineConfig, FaultPlan, GroupId, GroupRole, MediumConfig,
    NetworkSim, NodeCtx, NodeId, Packet, ProtocolAgent, RadioConfig, SimReport, SimSetup,
    Stationary, TrafficConfig, Vec2,
};
use ssmcast::scenario::{build_mobility, build_setup, MobilityKind, Scenario};
use std::collections::{HashMap, HashSet};

/// Loss-free, collision-free, jitter-free radio.
fn exact_radio() -> RadioConfig {
    RadioConfig {
        loss_probability: 0.0,
        collisions_enabled: false,
        mac_backoff_max: SimDuration::ZERO,
        ..RadioConfig::default()
    }
}

/// Stationary nodes at `xs` on a line, all within range of each other, with `source`
/// sending exactly one 512-byte data packet at t = 1 s to every other node.
fn one_packet_setup(
    xs: &[f64],
    source: u32,
    radio: RadioConfig,
    engine: EngineConfig,
) -> (SimSetup, Vec<BoxedMobility>) {
    let roles = (0..xs.len() as u32)
        .map(|i| if i == source { GroupRole::Source } else { GroupRole::Member })
        .collect();
    let mut traffic = TrafficConfig {
        group: GroupId(0),
        source: NodeId(source),
        data_rate_bps: 64_000.0,
        packet_size_bytes: 512,
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs(1),
    };
    // The second send would fall exactly on `stop`, so it is never scheduled.
    traffic.stop = traffic.start + traffic.interval();
    let setup = SimSetup::single(
        radio,
        traffic,
        roles,
        f64::INFINITY,
        SimDuration::from_secs(1),
        0.95,
        SeedSequence::new(3),
        MediumConfig::default(),
        FaultPlan::new(),
    )
    .with_engine(engine.with_stats());
    let mobility =
        xs.iter().map(|&x| Box::new(Stationary::new(Vec2::new(x, 0.0))) as BoxedMobility).collect();
    (setup, mobility)
}

#[test]
fn engine_statistics_count_frame_copies() {
    // Four nodes in mutual range, source 0, one data packet, blind flooding. By hand:
    // the application send (1 event) puts frame F0 on the air with 3 copies; each of
    // the 3 receivers relays once, and each relay frame has 3 copies. Events:
    // 1 + 3 + 3 × 3 = 13, against 1 + 4 = 5 queue entries.
    //
    // Sequential queue depth, sampled before every event as a count of copies: F0
    // queued is 3; handing F0's copies to nodes 1, 2, 3 queues F1, F2, F3 while F0's
    // own copies drain — 2 + 3 = 5 before the second copy, 1 + 6 = 7 before the third,
    // 9 once F0 is done. After that only duplicates arrive, so the peak is 9.
    //
    // Two shards cut the line into stripes {0, 1} and {2, 3}. Shard 0 handles the
    // application send, node 1's copies of F0, F2 and F3, and node 0's copies of F1,
    // F2 and F3: 7. Shard 1 handles nodes 2 and 3, three copies each: 6.
    let xs = [0.0, 50.0, 100.0, 150.0];
    let run = |engine: EngineConfig| -> SimReport {
        let (setup, mobility) = one_packet_setup(&xs, 0, exact_radio(), engine);
        let agents = (0..xs.len()).map(|_| FloodingAgent::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(3));
        assert_eq!(sim.events_processed(), 13, "{engine:?}: NetworkSim counts copies");
        report
    };
    let sequential = run(EngineConfig::default());
    assert_eq!(sequential.generated, 1);
    assert_eq!(sequential.delivered, 3, "the flood reaches every member");
    assert_eq!(sequential.data_packets_tx, 4, "the source and three relays transmit once each");
    let stats = sequential.engine.expect("statistics requested");
    assert_eq!(stats.events_processed, 13);
    assert_eq!(stats.shard_event_counts, vec![13]);
    assert_eq!(stats.peak_queue_depth, 9);

    let one = run(EngineConfig::sharded(1)).engine.expect("statistics requested");
    assert_eq!(one.events_processed, 13);
    assert_eq!(one.shard_event_counts, vec![13]);
    assert_eq!(one.peak_queue_depth, 9, "one shard samples the same depths");

    let two = run(EngineConfig::sharded(2)).engine.expect("statistics requested");
    assert_eq!(two.events_processed, 13);
    assert_eq!(two.shard_event_counts, vec![7, 6]);
}

/// Timer kind of the relay timer.
const RELAY: u64 = 1;

/// Relays every data packet once, from a zero-delay timer armed when the packet is
/// first heard, and remembers who it first heard each packet from.
#[derive(Default)]
struct TimerRelay {
    seen: HashSet<u64>,
    pending: HashMap<u64, (DataTag, u32)>,
    first_from: HashMap<u64, NodeId>,
}

impl ProtocolAgent for TimerRelay {
    type Payload = ();

    fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
        let Some(tag) = packet.data else { return Disposition::Discarded };
        if !self.seen.insert(tag.seq) {
            return Disposition::Discarded;
        }
        self.first_from.insert(tag.seq, packet.sender);
        if ctx.is_member() && !ctx.is_source() {
            ctx.deliver_data(tag);
        }
        self.pending.insert(tag.seq, (tag, packet.size_bytes));
        ctx.set_timer(SimDuration::ZERO, RELAY, tag.seq);
        Disposition::Consumed
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, kind: u64, key: u64) {
        if let (RELAY, Some((tag, size))) = (kind, self.pending.remove(&key)) {
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
        }
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
        self.seen.insert(tag.seq);
        ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
    }

    fn label(&self) -> &'static str {
        "timer-relay"
    }
}

#[test]
fn zero_delay_timers_armed_during_a_fan_out_keep_reports_shard_invariant() {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.duration_s = 8.0;
    s.warmup_s = 1.0;
    s.radio.loss_probability = 0.0;
    s.radio.collisions_enabled = false;
    s.radio.mac_backoff_max = SimDuration::ZERO;
    let run = |shards: u32| {
        let s = if shards == 0 { s } else { s.with_shards(shards) };
        let seeds = SeedSequence::new(s.seed);
        let setup = build_setup(&s, seeds);
        let agents = (0..setup.n_nodes()).map(|_| TimerRelay::default()).collect();
        let mut sim = NetworkSim::new(setup, build_mobility(&s, &seeds), agents);
        let report = sim.run(SimDuration::from_secs_f64(s.duration_s));
        (serde_json::to_string(&report).expect("reports serialize"), report.delivered)
    };
    let (sequential, delivered) = run(0);
    assert!(delivered > 0, "the relays carry traffic");
    for shards in [1u32, 2, 3] {
        assert_eq!(run(shards).0, sequential, "{shards} shards diverged from the sequential run");
    }
}

#[test]
fn an_event_queued_during_a_fan_out_pops_before_the_rest_of_the_frame() {
    // Zero airtime and zero propagation delay: every frame arrives at the instant it is
    // sent, so a frame sent from a zero-delay timer competes with the rest of the frame
    // that armed the timer. Source 2's frame F has copies for nodes 0 and 1 (keys
    // ascending by receiver). Node 0 hears F first and arms its relay timer, which
    // sorts before F's copy to node 1 (timers rank before deliveries); its relay G is
    // sent by node 0, so G's copy to node 1 sorts before F's. Node 1 therefore hears G
    // before F. A fan-out that handed F's copies out back to back would give node 1 F
    // first. (The sequential engine breaks same-instant ties by insertion order instead,
    // which also gives node 1 F first; only the sharded engine orders by key.)
    let radio =
        RadioConfig { bitrate_bps: f64::INFINITY, fixed_delay: SimDuration::ZERO, ..exact_radio() };
    let (setup, mobility) =
        one_packet_setup(&[0.0, 10.0, 20.0], 2, radio, EngineConfig::sharded(1));
    let agents = (0..3).map(|_| TimerRelay::default()).collect();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let report = sim.run(SimDuration::from_secs(2));
    assert_eq!(sim.agent(NodeId(0)).first_from.get(&0), Some(&NodeId(2)));
    assert_eq!(
        sim.agent(NodeId(1)).first_from.get(&0),
        Some(&NodeId(0)),
        "node 0's relay, queued while F's copies were handed out, reaches node 1 before F"
    );
    // The application send, F's 2 copies, two relay timers and two relay frames of 2
    // copies each — however the preempted frames were split across queue entries. The
    // queue is deepest once node 1 has sent its relay H: G's copy to node 2, H's two
    // copies and F's copy to node 1 wait at the same instant.
    let stats = report.engine.expect("statistics requested");
    assert_eq!(stats.events_processed, 9);
    assert_eq!(stats.peak_queue_depth, 4);
    assert_eq!(report.delivered, 2);
}
