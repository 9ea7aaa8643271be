//! The network runtime: wires protocol agents, mobility, radio, energy accounting and
//! traffic generation onto the discrete-event engine and produces a [`SimReport`].
//!
//! Since the multi-session refactor the runtime hosts **N concurrent multicast
//! sessions** over one shared radio medium: each node runs one protocol-agent instance
//! per session, frames are dispatched to the instance of the session that sent them,
//! and each session carries its own traffic trace, churn-updated membership table and
//! attributed energy. A single-session setup reproduces the original runtime event for
//! event (and byte for byte in its report).
//!
//! Per-node state and every rule over it live in one node-state core (`core`), which
//! both engines drive: this module's sequential loop runs one core over all nodes, and
//! the sharded engine (`shard`) runs one core per spatial stripe.

use crate::agent::ProtocolAgent;
use crate::battery::Battery;
use crate::energy::RadioConfig;
use crate::engine::EngineConfig;
use crate::faults::{FaultKind, FaultPlan, StabilizationObserver};
use crate::geometry::Vec2;
use crate::harvest::HarvestConfig;
use crate::lifecycle::{DutySchedule, LifecycleConfig};
use crate::mac::MacConfig;
use crate::medium::{MediumConfig, RadioMedium};
use crate::mobility::BoxedMobility;
use crate::node::{GroupRole, NodeId};
use crate::report::SimReport;
use crate::session::SessionSetup;
use crate::silence::SilenceConfig;
use crate::snapshot::TopologySnapshot;
use crate::traffic::TrafficConfig;
use ssmcast_dessim::{EventId, SeedSequence, SimDuration, SimTime, Simulator};
use ssmcast_metrics::{EngineStats, MetricsConfig};
use std::sync::Arc;

use self::core::{
    CopyTally, Curves, Fabric, Fleet, Frame, Layout, NetEvent, NodeCore, ProbeScratch,
};

mod core;
mod shard;

/// Static setup for one simulation run.
#[derive(Clone, Debug)]
pub struct SimSetup {
    /// Radio and energy configuration shared by all nodes.
    pub radio: RadioConfig,
    /// The concurrent multicast sessions (at least one): CBR flow + initial membership
    /// table + churn schedule each. Session `i`'s frames are dispatched to the `i`-th
    /// protocol instance on every node.
    pub sessions: Vec<SessionSetup>,
    /// Number of nodes in the network (every session's role table has this length).
    pub n_nodes: usize,
    /// Battery capacity per node in joules (`f64::INFINITY` for the paper's experiments).
    pub battery_capacity_j: f64,
    /// Energy-lifecycle knobs: radio duty-cycling, continuous idle/sleep drain and
    /// distance-based TX power control. [`LifecycleConfig::off`] (the default) keeps
    /// runs byte-identical to pre-lifecycle builds.
    pub lifecycle: LifecycleConfig,
    /// Window used for the unavailability ratio.
    pub unavailability_window: SimDuration,
    /// Per-window delivery ratio below which the service counts as unavailable.
    pub availability_threshold: f64,
    /// Medium-access policy deciding when pending broadcasts hit the air. The default
    /// ([`MacConfig::default`]: random jitter, stats off) reproduces pre-MAC-layer runs
    /// byte-identically.
    pub mac: MacConfig,
    /// Seed sequence for loss sampling and per-node protocol jitter.
    pub seeds: SeedSequence,
    /// Radio medium configuration: position-cache epoch and neighbour-query mode.
    pub medium: MediumConfig,
    /// Scheduled fault events (empty for the paper's fault-free experiments). Injected
    /// through the event queue, so a `(seed, plan)` pair fully determines the run.
    pub faults: FaultPlan,
    /// Engine selection: the classic sequential loop ([`EngineConfig::default`],
    /// byte-identical to earlier builds) or the region-sharded parallel engine.
    pub engine: EngineConfig,
    /// Beacon-suppression knobs for the self-stabilizing agents. [`SilenceConfig::off`]
    /// (the default) keeps runs byte-identical to always-on beaconing; any enabled
    /// configuration makes the runtime split control bytes-on-air into steady-state vs
    /// recovery phases and attach a `SilenceStats` block to the report.
    pub silence: SilenceConfig,
    /// Report-accumulation mode: exact store-everything tracking (the default,
    /// byte-identical to earlier builds) or memory-bounded streaming sketches whose
    /// footprint is set by configuration, not by event count.
    pub metrics: MetricsConfig,
    /// Energy-harvesting knobs. [`HarvestConfig::off`] (the default) keeps battery
    /// depletion permanent; enabled harvesting turns depletion into a power-cycling
    /// episode. Harvest wakes are node-local, so both engines run them: sharded runs
    /// are byte-identical to the sequential engine at any shard count.
    pub harvest: HarvestConfig,
}

impl SimSetup {
    /// A single-session setup — the paper's shape, and the one every pre-multi-group
    /// call site used.
    #[allow(clippy::too_many_arguments)]
    pub fn single(
        radio: RadioConfig,
        traffic: TrafficConfig,
        roles: Vec<GroupRole>,
        battery_capacity_j: f64,
        unavailability_window: SimDuration,
        availability_threshold: f64,
        seeds: SeedSequence,
        medium: MediumConfig,
        faults: FaultPlan,
    ) -> Self {
        let n_nodes = roles.len();
        SimSetup {
            radio,
            sessions: vec![SessionSetup::new(traffic, roles)],
            n_nodes,
            battery_capacity_j,
            lifecycle: LifecycleConfig::off(),
            mac: MacConfig::default(),
            unavailability_window,
            availability_threshold,
            seeds,
            medium,
            faults,
            engine: EngineConfig::default(),
            silence: SilenceConfig::off(),
            metrics: MetricsConfig::default(),
            harvest: HarvestConfig::off(),
        }
    }

    /// The same setup under a different engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The same setup under a different beacon-suppression configuration.
    pub fn with_silence(mut self, silence: SilenceConfig) -> Self {
        self.silence = silence;
        self
    }

    /// The same setup under a different report-accumulation mode.
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// The same setup under a different energy-harvesting configuration.
    pub fn with_harvest(mut self, harvest: HarvestConfig) -> Self {
        self.harvest = harvest;
        self
    }

    /// Number of nodes in the network.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of concurrent multicast sessions.
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// True when the setup is genuinely multi-session or churns memberships — the runs
    /// whose reports carry a per-group breakdown.
    pub fn has_group_dynamics(&self) -> bool {
        self.sessions.len() > 1 || self.sessions.iter().any(|s| !s.churn.is_empty())
    }
}

impl SimSetup {
    /// True when the run tracks the energy lifecycle (finite batteries or continuous
    /// drain) and therefore attaches a [`LifetimeStats`](ssmcast_metrics::LifetimeStats)
    /// block to its report.
    pub(crate) fn tracks_lifetime(&self) -> bool {
        self.battery_capacity_j.is_finite() || self.lifecycle.has_continuous_drain()
    }

    /// The lifetime sampling cadence (zero in the config falls back to one second).
    pub(crate) fn sample_epoch(&self) -> SimDuration {
        nonzero_or_one_second(self.lifecycle.sample_epoch)
    }
}

/// `epoch`, with zero sanitised to the one-second default.
fn nonzero_or_one_second(epoch: SimDuration) -> SimDuration {
    if epoch.is_zero() {
        SimDuration::from_secs(1)
    } else {
        epoch
    }
}

/// The cadence at which the run loop probes `observer`.
fn probe_epoch(observer: &dyn StabilizationObserver) -> SimDuration {
    nonzero_or_one_second(observer.probe_epoch())
}

/// The sequential engine's fabric: the live radio medium and one insertion-ordered
/// event queue. A frame's copies pop back to back without any check: an event queued
/// during the fan-out is inserted after them.
struct Sequential<P> {
    sim: Simulator<NetEvent<P>>,
    medium: RadioMedium,
    tally: CopyTally,
}

impl<P> Fabric<P> for Sequential<P> {
    const PER_SENDER_LOSS: bool = false;
    const GUARDS_AT_DELIVERY: bool = false;
    const NODE_ORDER_ENERGY: bool = false;

    fn local(&self, node: NodeId) -> usize {
        node.index()
    }

    fn position(&mut self, node: NodeId, t: SimTime) -> Vec2 {
        self.medium.position_of(node, t)
    }

    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool {
        self.medium.is_blacked_out(node, t)
    }

    fn set_blackout(&mut self, node: NodeId, until: SimTime) {
        self.medium.set_blackout(node, until);
    }

    fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        self.medium.receivers_within(sender, center, range, t, out);
    }

    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], t: SimTime) -> f64 {
        self.medium.farthest_distance(center, ids, t)
    }

    fn schedule(&mut self, at: SimTime, ev: NetEvent<P>) -> EventId {
        self.sim.schedule_at(at, ev)
    }

    fn cancel(&mut self, id: EventId) {
        self.sim.cancel(id);
    }

    fn copy_buffer(&mut self) -> Vec<(NodeId, bool)> {
        self.tally.buffer()
    }

    fn deliver_frame(&mut self, at: SimTime, frame: Frame<P>) {
        if frame.copies.is_empty() {
            self.tally.recycle(frame.copies);
            return;
        }
        self.tally.queued(frame.copies.len());
        self.sim.schedule_at(at, NetEvent::Frame(frame));
    }

    fn take_copy(&mut self, _t: SimTime, _frame: &Frame<P>, _next: usize) -> bool {
        self.tally.take(self.sim.pending());
        true
    }

    fn end_frame(&mut self, _t: SimTime, frame: Frame<P>, delivered: usize) {
        debug_assert_eq!(delivered, frame.copies.len(), "sequential fan-outs run to the end");
        self.tally.recycle(frame.copies);
    }
}

/// A complete network simulation for one protocol.
pub struct NetworkSim<A: ProtocolAgent> {
    setup: Arc<SimSetup>,
    /// Node state: one core over every node, or — after a sharded run — one core per
    /// shard.
    cores: Vec<NodeCore<A>>,
    /// Locates each node's core (empty while one core covers every node in id order).
    layout: Layout,
    world: Sequential<A::Payload>,
    curves: Curves,
    probe: ProbeScratch,
    /// Events the sharded engine's workers processed (the sequential fabric counts its
    /// own), frame copies counted one by one.
    shard_events: u64,
}

impl<A: ProtocolAgent> NetworkSim<A> {
    /// Build a simulation. `mobility` must have one entry per node; `agents` must have
    /// one entry per (session, node) pair in session-major order (for the single-session
    /// setups every pre-multi-group caller builds, that is simply one agent per node).
    pub fn new(setup: SimSetup, mobility: Vec<BoxedMobility>, agents: Vec<A>) -> Self {
        let n = setup.n_nodes();
        let n_sessions = setup.n_sessions();
        assert!(n_sessions > 0, "at least one multicast session");
        assert_eq!(mobility.len(), n, "one mobility model per node");
        assert_eq!(agents.len(), n * n_sessions, "one agent per (session, node)");
        for session in &setup.sessions {
            assert_eq!(session.roles.len(), n, "one role per node per session");
            assert!(session.traffic.source.index() < n, "traffic source must exist");
            assert!(
                matches!(session.roles[session.traffic.source.index()], GroupRole::Source),
                "the session's source role must sit at its traffic source"
            );
        }
        let medium = RadioMedium::new(mobility, setup.medium, setup.radio.max_range_m);
        let setup = Arc::new(setup);
        let core = NodeCore::new::<Sequential<A::Payload>>(&setup, (0..n as u32).collect(), agents);
        NetworkSim {
            world: Sequential {
                sim: Simulator::with_capacity(1024),
                medium,
                tally: CopyTally::default(),
            },
            cores: vec![core],
            layout: Layout::default(),
            curves: Curves::new(&setup),
            probe: ProbeScratch::default(),
            shard_events: 0,
            setup,
        }
    }

    /// The network-wide view over every core.
    fn fleet(&self) -> Fleet<'_, A> {
        Fleet::new(&self.cores, &self.layout)
    }

    /// The core covering node `n`, and `n`'s local index there.
    fn node(&self, n: NodeId) -> (&NodeCore<A>, usize) {
        let (c, li) = self.layout.locate(n.index());
        (&self.cores[c], li)
    }

    /// Current positions of all nodes as a [`TopologySnapshot`] (uses the *maximum* radio
    /// range as the neighbour relation).
    pub fn snapshot(&mut self) -> TopologySnapshot {
        let t = self.world.sim.now();
        self.world.medium.snapshot(t, self.setup.radio.max_range_m)
    }

    /// The radio medium (position cache + spatial index) driving this simulation.
    pub fn medium(&self) -> &RadioMedium {
        &self.world.medium
    }

    /// Access a node's battery (for tests and the energy-budget example).
    pub fn battery(&self, n: NodeId) -> &Battery {
        let (core, li) = self.node(n);
        core.battery(li)
    }

    /// The protocol agent at `n` in the first session (the only session in single-group
    /// setups).
    pub fn agent(&self, n: NodeId) -> &A {
        self.agent_in(0, n)
    }

    /// The protocol agent running session `session` at node `n`.
    pub fn agent_in(&self, session: usize, n: NodeId) -> &A {
        let (core, li) = self.node(n);
        core.agent(session, li)
    }

    /// Node `n`'s current role in `session` (membership churn applied).
    pub fn role_in(&self, session: usize, n: NodeId) -> GroupRole {
        self.cores[0].role(session, n)
    }

    /// Total number of events processed so far, on either engine. Each copy of a frame
    /// counts as one event, whichever queue entry carried it.
    pub fn events_processed(&self) -> u64 {
        self.world.tally.processed + self.shard_events
    }

    /// True while node `n` is crashed by an injected fault.
    pub fn is_crashed(&self, n: NodeId) -> bool {
        let (core, li) = self.node(n);
        core.is_crashed(li)
    }

    /// The instant node `n`'s battery was observed depleted, if it is currently dead.
    /// Without harvesting battery death is permanent: unlike a crash there is no
    /// rejoin. A harvest wake clears the entry.
    pub fn death_time(&self, n: NodeId) -> Option<SimTime> {
        let (core, li) = self.node(n);
        core.death_time(li)
    }

    /// The materialised duty-cycle schedule driving this run's radios.
    pub fn duty_schedule(&self) -> &DutySchedule {
        self.cores[0].duty()
    }

    /// Network-wide energy consumed so far, joules (running total for mid-run probes).
    pub fn energy_consumed_j(&self) -> f64 {
        self.fleet().energy_consumed_j()
    }

    /// Energy attributed to session `session`'s frames so far, joules.
    pub fn session_energy_j(&self, session: usize) -> f64 {
        self.fleet().session_energy_j(session).0
    }

    /// Control packets transmitted so far, network-wide.
    pub fn control_packets_sent(&self) -> u64 {
        let fleet = self.fleet();
        (0..self.setup.n_sessions()).map(|s| fleet.control_packets(s)).sum()
    }

    /// Data packet transmissions so far, network-wide.
    pub fn data_packets_sent(&self) -> u64 {
        let fleet = self.fleet();
        (0..self.setup.n_sessions()).map(|s| fleet.data_packets(s)).sum()
    }

    /// Probe the network at `t` through `observer` (as an epoch probe, or as a fault
    /// notification when `fault` is set).
    fn observe(
        &mut self,
        t: SimTime,
        observer: &mut dyn StabilizationObserver,
        fault: Option<&FaultKind>,
    ) {
        // Idle drain accrues fleet-wide first, so the alive-sets reflect nodes whose
        // batteries ran dry between packets.
        self.cores[0].accrue_all(&mut self.world, t);
        let range = self.setup.radio.max_range_m;
        let medium = &mut self.world.medium;
        self.probe.prime(t, || medium.snapshot(t, range));
        let medium = &self.world.medium;
        self.probe.observe(
            &mut [&mut self.cores[0]],
            &self.layout,
            t,
            |node| medium.is_blacked_out(node, t),
            observer,
            fault,
        );
    }

    /// Record one lifetime sample at `t`: battery-alive population and cumulative
    /// delivery ratio.
    fn sample_lifetime(&mut self, t: SimTime) {
        self.cores[0].accrue_all(&mut self.world, t);
        let point = self.fleet().lifetime_point();
        self.curves.push(point);
    }

    /// Run the simulation for `duration` and return the report. Any faults in the
    /// setup's [`FaultPlan`] are injected, but no legitimacy probe runs — use
    /// [`Self::run_probed`] to also measure convergence.
    pub fn run(&mut self, duration: SimDuration) -> SimReport {
        self.run_inner(duration, None)
    }

    /// Run the simulation while probing the network through `observer` every
    /// [`StabilizationObserver::probe_epoch`] (legitimacy predicate + convergence
    /// accounting; see [`crate::faults`]). The observer's finish result is embedded in
    /// the report's `convergence` block (and its per-session stats in the per-group
    /// blocks, when the run has group dynamics). Probing reads state but never perturbs
    /// the event flow: for the same seeds and fault plan, the report's traffic/energy
    /// numbers are identical with and without a probe.
    pub fn run_probed(
        &mut self,
        duration: SimDuration,
        observer: &mut dyn StabilizationObserver,
    ) -> SimReport {
        self.run_inner(duration, Some(observer))
    }

    fn run_inner(
        &mut self,
        duration: SimDuration,
        mut probe: Option<&mut dyn StabilizationObserver>,
    ) -> SimReport {
        if self.setup.engine.is_parallel() {
            return shard::run_sharded(self, duration, probe);
        }
        let wall = std::time::Instant::now();
        let horizon = SimTime::ZERO + duration;
        self.cores[0].start_all(&mut self.world);
        let setup = Arc::clone(&self.setup);
        let sim = &mut self.world.sim;
        // Schedule the fault plan through the same queue as every packet and timer.
        for (plan_idx, fe) in setup.faults.events().iter().enumerate() {
            if fe.at <= horizon {
                sim.schedule_at(fe.at, NetEvent::Fault(fe.kind, plan_idx as u64));
            }
        }
        // Schedule each session's churn the same way: membership changes are data.
        for (s, sess) in setup.sessions.iter().enumerate() {
            for ev in sess.churn.iter().filter(|ev| ev.at <= horizon) {
                let session = s as u16;
                sim.schedule_at(
                    ev.at,
                    NetEvent::Membership { session, node: ev.node, change: ev.change },
                );
            }
        }
        // Kick off each session's CBR application.
        for (s, sess) in setup.sessions.iter().enumerate() {
            if sess.traffic.start < horizon {
                sim.schedule_at(
                    sess.traffic.start,
                    NetEvent::AppSend { session: s as u16, seq: 0 },
                );
            }
        }
        // Probe epochs and lifetime samples interleave with events in strict time order
        // (events at an epoch's exact timestamp dispatch first, so both see the
        // post-event state); when a probe and a sample fall on the same instant the
        // probe fires first — both only read state.
        let probe_epoch = probe.as_deref().map(probe_epoch);
        let mut next_probe = probe_epoch.map(|epoch| SimTime::ZERO + epoch);
        let sample_epoch = setup.sample_epoch();
        let mut next_sample = setup.tracks_lifetime().then(|| SimTime::ZERO + sample_epoch);
        loop {
            self.world.tally.sample(self.world.sim.pending());
            let next_aux = match (next_probe, next_sample) {
                (Some(p), Some(s)) => Some(p.min(s)),
                (p, s) => p.or(s),
            };
            let due = next_aux.map_or(horizon, |aux| aux.min(horizon));
            if let Some((t, ev)) = self.world.sim.pop_due(due) {
                self.world.tally.count_pop();
                // Rejoins are repairs scheduled by an earlier crash, and no-op faults
                // (e.g. corrupting an already-crashed node) never perturbed anything —
                // reporting either would open spurious episodes.
                if let Some((kind, true)) = self.cores[0].dispatch(&mut self.world, t, ev) {
                    if let Some(observer) = probe.as_deref_mut() {
                        if !matches!(kind, FaultKind::Rejoin { .. }) {
                            self.observe(t, observer, Some(&kind));
                        }
                    }
                }
                continue;
            }
            let Some(aux) = next_aux else { break };
            if aux > horizon {
                break;
            }
            if next_probe == Some(aux) {
                let observer = probe.as_deref_mut().expect("probe drives probe epochs");
                self.observe(aux, observer, None);
                next_probe = Some(aux + probe_epoch.expect("epoch set with the probe"));
            }
            if next_sample == Some(aux) {
                self.sample_lifetime(aux);
                next_sample = Some(aux + sample_epoch);
            }
        }
        // Bring every battery's continuous drain up to the horizon so the residual
        // energy histogram and total-energy figures describe the whole run.
        self.cores[0].accrue_all(&mut self.world, horizon);
        let mut report = self.report(duration);
        if setup.engine.stats {
            let tally = &self.world.tally;
            let wall_s = wall.elapsed().as_secs_f64();
            report.engine =
                Some(EngineStats::from_counts(0, vec![tally.processed], tally.peak, 0, wall_s));
        }
        attach_convergence(&mut report, horizon, probe);
        report
    }

    /// Build a report from the current state (normally called by [`Self::run`]). The
    /// aggregate block folds every session; runs with group dynamics (several sessions
    /// or churn) additionally carry one per-group block per session.
    pub fn report(&self, duration: SimDuration) -> SimReport {
        self.fleet().report(duration, &self.curves)
    }
}

/// Embed a probed run's convergence results in its report.
fn attach_convergence(
    report: &mut SimReport,
    horizon: SimTime,
    probe: Option<&mut dyn StabilizationObserver>,
) {
    if let Some(observer) = probe {
        report.convergence = observer.finish(horizon);
        if let Some(groups) = report.groups.as_mut() {
            let per_session = observer.session_stats();
            for (group, stats) in groups.iter_mut().zip(per_session) {
                group.convergence = Some(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Disposition, NodeCtx};
    use crate::mobility::Stationary;
    use crate::node::GroupId;
    use crate::packet::{DataTag, Packet, PacketClass};
    use crate::session::{MembershipChange, MembershipEvent};

    /// A trivial flooding protocol used to exercise the runtime: the source broadcasts
    /// data at max range; every member delivers; every node rebroadcasts each packet once.
    struct Flood {
        seen: std::collections::HashSet<u64>,
    }

    impl Flood {
        fn new() -> Self {
            Flood { seen: std::collections::HashSet::new() }
        }
    }

    impl ProtocolAgent for Flood {
        type Payload = ();

        fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}

        fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
            let Some(tag) = packet.data else { return Disposition::Discarded };
            if !self.seen.insert(tag.seq) {
                return Disposition::Discarded;
            }
            if ctx.is_member() {
                ctx.deliver_data(tag);
            }
            ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, ());
            Disposition::Consumed
        }

        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, ()>, _kind: u64, _key: u64) {}

        fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
            self.seen.insert(tag.seq);
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
        }

        fn label(&self) -> &'static str {
            "flood-test"
        }
    }

    fn line_traffic(group: u16, source: NodeId) -> TrafficConfig {
        TrafficConfig {
            group: GroupId(group),
            source,
            data_rate_bps: 64_000.0,
            packet_size_bytes: 512,
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(11),
        }
    }

    fn line_setup(n: usize, spacing: f64) -> (SimSetup, Vec<BoxedMobility>) {
        let roles: Vec<GroupRole> =
            (0..n).map(|i| if i == 0 { GroupRole::Source } else { GroupRole::Member }).collect();
        let mobility: Vec<BoxedMobility> = (0..n)
            .map(|i| Box::new(Stationary::new(Vec2::new(i as f64 * spacing, 0.0))) as BoxedMobility)
            .collect();
        let radio = RadioConfig {
            loss_probability: 0.0,
            collisions_enabled: false,
            ..RadioConfig::default()
        };
        let setup = SimSetup::single(
            radio,
            line_traffic(0, NodeId(0)),
            roles,
            f64::INFINITY,
            SimDuration::from_secs(1),
            0.95,
            SeedSequence::new(7),
            MediumConfig::default(),
            FaultPlan::new(),
        );
        (setup, mobility)
    }

    #[test]
    fn flooding_on_a_line_delivers_everything() {
        let (setup, mobility) = line_setup(4, 200.0);
        let agents = (0..4).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(report.generated > 100, "CBR source must generate packets");
        assert_eq!(report.expected_deliveries, report.generated * 3);
        assert!(
            (report.pdr - 1.0).abs() < 1e-9,
            "ideal channel flooding delivers all, pdr={}",
            report.pdr
        );
        assert!(report.avg_delay_ms > 0.0);
        assert!(report.total_energy_j > 0.0);
        assert!(report.unavailability_ratio < 1e-9);
        assert!(report.groups.is_none(), "single static session: no per-group breakdown");
    }

    #[test]
    fn partitioned_member_receives_nothing() {
        let (mut setup, _) = line_setup(3, 200.0);
        // Node 2 is far out of range of everyone.
        let mobility: Vec<BoxedMobility> = vec![
            Box::new(Stationary::new(Vec2::new(0.0, 0.0))),
            Box::new(Stationary::new(Vec2::new(200.0, 0.0))),
            Box::new(Stationary::new(Vec2::new(5_000.0, 0.0))),
        ];
        setup.sessions[0].roles = vec![GroupRole::Source, GroupRole::Member, GroupRole::Member];
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!((report.pdr - 0.5).abs() < 1e-9, "only half the deliveries can happen");
    }

    #[test]
    fn loss_reduces_pdr() {
        let (mut setup, mobility) = line_setup(4, 200.0);
        setup.radio.loss_probability = 0.3;
        let agents = (0..4).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(report.pdr < 1.0);
        assert!(report.pdr > 0.2, "some packets still get through, pdr={}", report.pdr);
    }

    #[test]
    fn energy_is_charged_for_tx_rx_and_overhearing() {
        let (setup, mobility) = line_setup(3, 100.0);
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(5));
        assert!(report.total_energy_j > 0.0);
        // The source both transmits and (re-)receives floods from node 1.
        assert!(sim.battery(NodeId(0)).tx_total() > 0.0);
        assert!(sim.battery(NodeId(1)).rx_total() > 0.0);
        // Duplicate floods arriving at a node that has already seen them are discarded,
        // so some overhearing energy must have accumulated.
        assert!(report.overhear_energy_j > 0.0);
        // A single session owns every joule the batteries burned.
        assert!((sim.session_energy_j(0) - report.total_energy_j).abs() < 1e-9);
    }

    #[test]
    fn depleted_nodes_stop_participating() {
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.battery_capacity_j = 0.0; // dead from the start
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(5));
        assert_eq!(report.delivered, 0, "dead radios deliver nothing");
        // An initially depleted fleet is dead at time zero, not censored: the lifetime
        // block must record the deaths rather than score a full-run lifetime.
        assert_eq!(sim.death_time(NodeId(0)), Some(SimTime::ZERO));
        let lifetime = report.lifetime.as_ref().expect("finite batteries track lifetime");
        assert_eq!(lifetime.first_death_s, Some(0.0));
        assert_eq!(lifetime.deaths, 3);
        assert_eq!(lifetime.alive_final, 0);
    }

    #[test]
    fn duty_aware_pricing_prices_at_the_awake_receiver() {
        // Nodes at 0 / 100 / 200 m; node 2 (the farthest receiver) is phase-shifted to
        // sleep through the whole broadcast window. With plain TX power control the
        // sender pays for 200 m; with the duty-aware opt-in it pays only for the one
        // receiver that can actually take the frame at 100 m.
        let tx_total = |duty_aware: bool| {
            let (mut setup, mobility) = line_setup(3, 100.0);
            setup.lifecycle =
                setup.lifecycle.with_tx_power_control(true).with_duty_aware_pricing(duty_aware);
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            // Hand-built schedule: 1000 s period, first half awake; node 2's phase puts
            // it asleep for all of [0, 500) s — provably asleep at the delivery instant.
            let half = 500_000_000_000u64;
            sim.cores[0].set_duty(DutySchedule::with_phases(2 * half, half, vec![0, 0, half]));
            let t = SimTime::from_secs(1);
            let max_range = sim.setup.radio.max_range_m;
            sim.cores[0].try_send(
                &mut sim.world,
                0,
                NodeId(0),
                t,
                None,
                PacketClass::Data,
                512,
                max_range,
                None,
                (),
                0,
                t,
            );
            sim.battery(NodeId(0)).tx_total()
        };
        let radio = RadioConfig::default();
        let aware = tx_total(true);
        let blind = tx_total(false);
        assert!(
            (aware - radio.energy.tx_energy(100.0, 512)).abs() < 1e-12,
            "duty-aware pricing charges the awake receiver's distance: {aware}"
        );
        assert!(
            (blind - radio.energy.tx_energy(200.0, 512)).abs() < 1e-12,
            "default pricing still charges the farthest sleeper: {blind}"
        );
        assert!(aware < blind);
    }

    #[test]
    fn harvest_wake_revives_depleted_nodes() {
        // Idle drain kills a 1 J fleet roughly two seconds in. Without harvesting the
        // run goes dark for good; with a generous harvest rate the nodes power-cycle
        // and keep delivering. The first depletion instant must be identical in both
        // runs: harvesting only acts after it.
        let run = |harvest: HarvestConfig| {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.battery_capacity_j = 1.0;
            setup.lifecycle.idle_listen_w = 0.5;
            setup.harvest = harvest;
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            let report = sim.run(SimDuration::from_secs(20));
            let harvested: f64 = (0..3).map(|i| sim.battery(NodeId(i)).harvested()).sum();
            (report, harvested)
        };
        let (dark, dark_harvested) = run(HarvestConfig::off());
        let (cycling, cycling_harvested) = run(HarvestConfig::on(10.0, 10.0, 0.5));
        assert_eq!(dark_harvested, 0.0);
        assert!(cycling_harvested > 0.0, "waking nodes banked harvested charge");
        let dark_lt = dark.lifetime.as_ref().expect("finite batteries track lifetime");
        let cyc_lt = cycling.lifetime.as_ref().expect("finite batteries track lifetime");
        assert!(dark_lt.first_death_s.is_some(), "the fleet must deplete at least once");
        assert_eq!(
            dark_lt.first_death_s, cyc_lt.first_death_s,
            "harvesting cannot move the first depletion"
        );
        assert!(
            cycling.delivered > dark.delivered,
            "power-cycling relays deliver more than permanently dead ones \
             ({} vs {})",
            cycling.delivered,
            dark.delivered
        );
    }

    #[test]
    fn harvest_runs_are_deterministic_for_a_seed() {
        let run = || {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.battery_capacity_j = 1.0;
            setup.lifecycle.idle_listen_w = 0.5;
            setup.harvest = HarvestConfig::on(5.0, 20.0, 0.5);
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streaming_mode_preserves_scalar_metrics_and_attaches_its_block() {
        let run = |metrics: MetricsConfig| {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.metrics = metrics;
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let exact = run(MetricsConfig::exact());
        let streaming = run(MetricsConfig::streaming());
        assert!(exact.streaming.is_none(), "exact reports carry no streaming block");
        let block = streaming.streaming.as_ref().expect("streaming reports carry the block");
        assert!(block.report_bytes > 0);
        // Scalar metrics fold through the same counters in both modes: bit-equal.
        assert_eq!(exact.generated, streaming.generated);
        assert_eq!(exact.delivered, streaming.delivered);
        assert_eq!(exact.pdr.to_bits(), streaming.pdr.to_bits());
        assert_eq!(exact.avg_delay_ms.to_bits(), streaming.avg_delay_ms.to_bits());
        assert_eq!(exact.total_energy_j.to_bits(), streaming.total_energy_j.to_bits());
        // The histogram's exact maximum dominates its own quantiles and the mean.
        assert!(block.latency_p95_ms <= block.latency_max_ms + 1e-9);
        assert!(block.latency_max_ms >= exact.avg_delay_ms - 1e-9);
    }

    #[test]
    fn report_is_deterministic_for_a_seed() {
        let run = || {
            let (setup, mobility) = line_setup(4, 200.0);
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_and_rejoin_suppress_then_restore_participation() {
        // Node 1 is the only relay between the source and node 2 on the line. Crash it
        // for the middle of the run: deliveries to node 2 must stop, then resume.
        let run = |faults: FaultPlan| {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.faults = faults;
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let healthy = run(FaultPlan::new());
        let crashed = run(FaultPlan::new().with(
            SimTime::from_secs(4),
            FaultKind::Crash { node: NodeId(1), down_for: SimDuration::from_secs(5) },
        ));
        assert!(crashed.delivered < healthy.delivered, "a crashed relay loses deliveries");
        assert!(
            crashed.pdr > 0.3,
            "after the rejoin the relay must carry traffic again, pdr={}",
            crashed.pdr
        );
        let permanent = run(FaultPlan::new().with(
            SimTime::from_secs(4),
            FaultKind::Crash { node: NodeId(1), down_for: SimDuration::MAX },
        ));
        assert!(permanent.delivered < crashed.delivered, "a permanent crash never recovers");
    }

    #[test]
    fn blackout_silences_links_but_still_burns_transmit_energy() {
        let run = |faults: FaultPlan| {
            let (mut setup, mobility) = line_setup(2, 100.0);
            setup.faults = faults;
            let agents = (0..2).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let healthy = run(FaultPlan::new());
        // Black out the source for the whole traffic window.
        let dark = run(FaultPlan::new().with(
            SimTime::from_secs(0),
            FaultKind::Blackout { node: NodeId(0), duration: SimDuration::from_secs(30) },
        ));
        assert_eq!(dark.delivered, 0, "nothing escapes a blacked-out transmitter");
        assert_eq!(dark.generated, healthy.generated, "the application keeps generating");
        assert!(dark.total_energy_j > 0.0, "transmissions into the void still cost energy");
        assert!(dark.total_energy_j < healthy.total_energy_j, "but nobody pays rx energy");
    }

    #[test]
    fn battery_drain_spike_can_silence_a_node() {
        let (mut setup, mobility) = line_setup(3, 200.0);
        setup.battery_capacity_j = 100.0;
        setup.faults = FaultPlan::new()
            .with(SimTime::from_secs(4), FaultKind::Drain { node: NodeId(1), joules: 1_000.0 });
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(sim.battery(NodeId(1)).is_depleted(), "the spike empties the battery");
        assert!(sim.battery(NodeId(1)).drained() > 0.0);
        assert!(report.pdr < 1.0, "the dead relay costs deliveries");
    }

    #[test]
    fn faulted_runs_are_deterministic_for_a_seed_and_plan() {
        let run = || {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.faults = FaultPlan::new()
                .with(
                    SimTime::from_secs(3),
                    FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
                )
                .with(
                    SimTime::from_secs(5),
                    FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(2) },
                )
                .with(SimTime::from_secs(8), FaultKind::Corrupt { node: NodeId(3) });
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejoins_are_not_reported_as_faults_and_blackouts_suspend_probe_liveness() {
        #[derive(Default)]
        struct Recording {
            faults: Vec<FaultKind>,
            alive_mid: Option<(Vec<bool>, Vec<bool>)>,
            alive_late: Option<(Vec<bool>, Vec<bool>)>,
        }
        impl crate::faults::StabilizationObserver for Recording {
            fn on_epoch(&mut self, ctx: &crate::faults::ProbeContext<'_>) {
                if ctx.now == SimTime::from_secs(6) {
                    self.alive_mid = Some((ctx.alive.to_vec(), ctx.blacked_out.to_vec()));
                }
                if ctx.now == SimTime::from_secs(12) {
                    self.alive_late = Some((ctx.alive.to_vec(), ctx.blacked_out.to_vec()));
                }
            }
            fn on_fault(&mut self, kind: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {
                self.faults.push(*kind);
            }
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.faults = FaultPlan::new()
            .with(
                SimTime::from_secs(3),
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
            )
            .with(
                SimTime::from_secs(5),
                FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(3) },
            );
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let mut obs = Recording::default();
        sim.run_probed(SimDuration::from_secs(15), &mut obs);
        assert_eq!(
            obs.faults,
            vec![
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
                FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(3) },
            ],
            "the internally scheduled rejoin is a repair, not an injected fault"
        );
        assert_eq!(
            obs.alive_mid,
            Some((vec![true, true, false], vec![false, true, false])),
            "at t=6 node 2 is crashed (until 7); node 1 is alive but blacked out (until 8)"
        );
        assert_eq!(
            obs.alive_late,
            Some((vec![true, true, true], vec![false, false, false])),
            "by t=12 both the blackout and the crash are over"
        );
    }

    #[test]
    fn probing_never_perturbs_the_simulation_itself() {
        // A do-nothing observer: the probed run's traffic/energy numbers must equal the
        // unprobed run's exactly (probes read state, they do not schedule anything).
        struct Null;
        impl crate::faults::StabilizationObserver for Null {
            fn probe_epoch(&self) -> SimDuration {
                SimDuration::from_millis(250)
            }
            fn on_epoch(&mut self, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn on_fault(&mut self, _kind: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let run = |probed: bool| {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.faults = FaultPlan::new().with(
                SimTime::from_secs(3),
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
            );
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            if probed {
                sim.run_probed(SimDuration::from_secs(15), &mut Null)
            } else {
                sim.run(SimDuration::from_secs(15))
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn grid_and_brute_force_query_modes_agree_byte_for_byte() {
        use crate::medium::MediumConfig;
        let run = |medium: MediumConfig| {
            let (mut setup, mobility) = line_setup(6, 150.0);
            setup.radio.loss_probability = 0.1; // exercise the loss RNG draw order
            setup.medium = medium;
            let agents = (0..6).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(MediumConfig::grid()), run(MediumConfig::brute_force()));
        // The same holds under a coarse position epoch (both paths quantised alike).
        let epoch = SimDuration::from_millis(250);
        assert_eq!(
            run(MediumConfig::grid().with_epoch(epoch)),
            run(MediumConfig::brute_force().with_epoch(epoch))
        );
    }

    /// Two-session setup on the same 4-node line: session 0 sourced at node 0, session 1
    /// sourced at node 3, member roles swapped end for end.
    fn two_session_setup(spacing: f64) -> (SimSetup, Vec<BoxedMobility>) {
        let (mut setup, mobility) = line_setup(4, spacing);
        let roles1 =
            vec![GroupRole::Member, GroupRole::Member, GroupRole::Member, GroupRole::Source];
        setup.sessions.push(SessionSetup::new(line_traffic(1, NodeId(3)), roles1));
        (setup, mobility)
    }

    #[test]
    fn concurrent_sessions_deliver_independently_and_carry_group_blocks() {
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.as_ref().expect("two sessions breed a breakdown");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, 0);
        assert_eq!(groups[1].group, 1);
        assert_eq!(groups[1].source, 3);
        for g in groups {
            assert!(g.generated > 100, "both sessions generate traffic");
            assert!((g.pdr - 1.0).abs() < 1e-9, "ideal channel floods deliver all");
        }
        // Aggregate counters are the per-session sums.
        assert_eq!(report.generated, groups[0].generated + groups[1].generated);
        assert_eq!(report.delivered, groups[0].delivered + groups[1].delivered);
        // And the shared medium conserves energy across the sessions.
        let attributed: f64 = groups.iter().map(|g| g.energy_j).sum();
        assert!(
            (attributed - report.total_energy_j).abs() <= 1e-9 * report.total_energy_j.max(1.0),
            "attributed {attributed} vs total {}",
            report.total_energy_j
        );
    }

    #[test]
    fn sessions_are_isolated_frames_of_one_session_never_reach_the_other() {
        // Session 1's flood instances never see session 0's frames: each flood agent
        // dedups by seq, so if dispatch leaked across sessions the shared seq numbers
        // would suppress deliveries in one of them.
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.expect("breakdown");
        assert!((groups[0].pdr - 1.0).abs() < 1e-9 && (groups[1].pdr - 1.0).abs() < 1e-9);
        // Each node runs one instance per session: distinct objects, distinct state.
        assert!(!std::ptr::eq(sim.agent_in(0, NodeId(1)), sim.agent_in(1, NodeId(1))));
    }

    #[test]
    fn membership_churn_updates_expected_deliveries_and_counts() {
        // Node 2 leaves session 0 at t=5 and rejoins at t=8; while out, generated
        // packets owe one fewer delivery and node 2's deliveries are dropped.
        let (mut setup, mobility) = line_setup(3, 200.0);
        setup.sessions[0].churn = vec![
            MembershipEvent {
                at: SimTime::from_secs(5),
                node: NodeId(2),
                change: MembershipChange::Leave,
            },
            MembershipEvent {
                at: SimTime::from_secs(8),
                node: NodeId(2),
                change: MembershipChange::Join,
            },
        ];
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.expect("churn breeds a breakdown");
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].joins, 1);
        assert_eq!(groups[0].leaves, 1);
        assert_eq!(groups[0].members_initial, 2);
        assert_eq!(groups[0].members_final, 2);
        assert!(
            report.expected_deliveries < report.generated * 2,
            "packets generated during the absence owe only one delivery"
        );
        assert!(report.expected_deliveries > report.generated, "node 1 stays a member throughout");
        assert!((report.pdr - 1.0).abs() < 1e-2, "expected and delivered shrink together");
        assert!(groups[0].join_overhead_bytes_per_event >= 0.0);
    }

    #[test]
    fn runtime_drops_deliveries_for_nodes_outside_the_group() {
        // A protocol that (wrongly) delivers everywhere: the runtime's membership guard
        // must still only count members.
        struct OverDeliver {
            seen: std::collections::HashSet<u64>,
        }
        impl ProtocolAgent for OverDeliver {
            type Payload = ();
            fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
                if let Some(tag) = packet.data {
                    ctx.deliver_data(tag); // no membership check at all
                    if self.seen.insert(tag.seq) {
                        ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, ());
                    }
                }
                Disposition::Consumed
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, ()>, _kind: u64, _key: u64) {}
            fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
                self.seen.insert(tag.seq);
                ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
            }
            fn label(&self) -> &'static str {
                "overdeliver"
            }
        }
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.sessions[0].roles = vec![GroupRole::Source, GroupRole::NonMember, GroupRole::Member];
        // Mark the setup as dynamic so the breakdown is attached even with one session.
        setup.sessions[0].churn = vec![MembershipEvent {
            at: SimTime::from_secs(19),
            node: NodeId(1),
            change: MembershipChange::Join,
        }];
        let agents = (0..3).map(|_| OverDeliver { seen: Default::default() }).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(18));
        // Only node 2's deliveries count: the non-member node 1 delivered in vain. Each
        // packet reaches node 2 along two paths, so the duplicate filter also engages.
        assert_eq!(report.expected_deliveries, report.generated);
        assert_eq!(report.delivered, report.generated, "the single member is fully served");
        assert!(report.duplicate_deliveries > 0);
    }

    #[test]
    fn multi_session_runs_are_deterministic() {
        let run = || {
            let (mut setup, mobility) = two_session_setup(200.0);
            setup.sessions[1].churn = vec![MembershipEvent {
                at: SimTime::from_secs(6),
                node: NodeId(1),
                change: MembershipChange::Leave,
            }];
            let agents = (0..8).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn probe_context_carries_one_view_per_session() {
        struct CountSessions {
            seen: Vec<usize>,
        }
        impl crate::faults::StabilizationObserver for CountSessions {
            fn on_epoch(&mut self, ctx: &crate::faults::ProbeContext<'_>) {
                self.seen.push(ctx.sessions.len());
                for view in ctx.sessions {
                    assert_eq!(view.parents.len(), view.roles.len());
                }
            }
            fn on_fault(&mut self, _k: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let mut obs = CountSessions { seen: Vec::new() };
        sim.run_probed(SimDuration::from_secs(5), &mut obs);
        assert!(!obs.seen.is_empty());
        assert!(obs.seen.iter().all(|&n| n == 2));
    }
}
