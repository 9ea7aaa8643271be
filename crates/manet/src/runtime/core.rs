//! The node-state core both engines run on.
//!
//! A [`NodeCore`] owns the per-node state of the nodes it covers — agents, protocol
//! RNGs, batteries, crash/death/idle-accrual state, timers, traces, the membership
//! replica, energy accumulators, MAC policy and counters, collision channel, duty
//! schedule and silence counters — and holds the single definition of every rule that
//! reads or writes that state. The sequential engine runs one core over all nodes; the
//! sharded engine runs one core per stripe. Report, probe and MAC-statistics assembly
//! run once over all cores through a [`Fleet`].
//!
//! What differs between the engines is supplied by a [`Fabric`]: where topology comes
//! from (the live [`crate::medium::RadioMedium`] or the sharded engine's frozen copy),
//! where events go (the [`ssmcast_dessim::Simulator`] queue, or a keyed shard queue plus
//! cross-shard lanes), and three behaviours each engine fixes through associated
//! constants.

use super::SimSetup;
use crate::agent::{Action, Disposition, NodeCtx, ProtocolAgent};
use crate::battery::{Battery, EnergyUse};
use crate::channel::Channel;
use crate::faults::{FaultKind, ProbeContext, SessionProbe, StabilizationObserver};
use crate::geometry::Vec2;
use crate::harvest::HarvestPlan;
use crate::lifecycle::DutySchedule;
use crate::mac::{MacDecision, MacFrame, MacPolicy};
use crate::node::{GroupRole, NodeId};
use crate::packet::{DataTag, Packet, PacketClass};
use crate::report::{GroupAccounting, SimReport, Trace};
use crate::session::MembershipChange;
use crate::snapshot::TopologySnapshot;
use rand::rngs::StdRng;
use rand::Rng;
use ssmcast_dessim::{EventId, SimDuration, SimTime};
use ssmcast_metrics::{
    CurveRing, LifetimeStats, MacStats, SessionSilence, SilenceStats, RESIDUAL_HISTOGRAM_BINS,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Events flowing through either engine's queue.
#[derive(Debug)]
pub(crate) enum NetEvent<P> {
    /// A frame arrives at the receivers this queue serves; its copies are handed out
    /// in ascending receiver order when it pops.
    Frame(Frame<P>),
    /// A protocol timer fires at `node`.
    Timer { session: u16, node: NodeId, kind: u64, key: u64 },
    /// The CBR application at a session's source emits data packet `seq`.
    AppSend { session: u16, seq: u64 },
    /// A scheduled membership change (join/leave churn) takes effect.
    Membership { session: u16, node: NodeId, change: MembershipChange },
    /// An injected fault fires. The `u64` is the fault's plan index, which keys the
    /// sharded engine's crash-scheduled rejoins.
    Fault(FaultKind, u64),
    /// A depleted, energy-harvesting node has banked its wake threshold: recharge its
    /// battery and bring it back to life (see [`crate::harvest`]).
    HarvestWake { node: NodeId },
    /// The MAC policy deferred a pending broadcast: retry channel access now.
    MacRetry {
        session: u16,
        sender: NodeId,
        class: PacketClass,
        size_bytes: u32,
        /// Requested (already clamped) transmission range, metres.
        range_m: f64,
        data: Option<DataTag>,
        payload: P,
        /// Access attempt number (1 on the first retry).
        attempt: u32,
        /// When the protocol originally requested the broadcast (for access-delay
        /// accounting).
        requested_at: SimTime,
    },
}

/// One frame's copies for the receivers one event queue serves: the wireless broadcast
/// advantage as the queue sees it — one transmission, one queue entry per destination
/// queue, however many neighbours hear it.
#[derive(Debug)]
pub(crate) struct Frame<P> {
    /// Session whose protocol instances this frame belongs to.
    pub(super) session: u16,
    /// The frame, shared by every copy.
    pub(super) packet: Packet<P>,
    /// Transmission start (drives carrier capture and TDMA slot learning).
    pub(super) tx_start: SimTime,
    /// MAC state snapshotted at transmit time ([`MacPolicy::piggyback_row`]) and shared
    /// by every copy of the frame — TDMA's 2-hop claim table.
    pub(super) piggyback: Option<Arc<[u16]>>,
    /// `(receiver, lost)` per copy, ascending receiver. A lost copy still costs
    /// reception energy but is not handed to the protocol; `lost` covers what the
    /// sending side can tell: noise, and — when the engine captures the carrier at send
    /// time — collisions.
    pub(super) copies: Vec<(NodeId, bool)>,
}

/// The copy books of one event queue. A queued frame is one entry however many copies
/// it carries, but event counts and queue depths count copies, as if each copy were its
/// own event: that is what [`ssmcast_metrics::EngineStats`] reports.
#[derive(Default)]
pub(super) struct CopyTally {
    /// Copies beyond one per queued frame entry, plus the copies of the frame being
    /// fanned out that are not yet handed over.
    extra: u64,
    /// Events handled, each frame copy counted once.
    pub(super) processed: u64,
    /// Largest queue depth sampled, in copies.
    pub(super) peak: u64,
    /// Copy lists of finished frames, reused for the next frames sent.
    spare: Vec<Vec<(NodeId, bool)>>,
}

impl CopyTally {
    /// Sample the depth of a queue holding `entries` live entries.
    pub(super) fn sample(&mut self, entries: usize) {
        self.peak = self.peak.max(entries as u64 + self.extra);
    }

    /// Count one popped event (for a frame, its first copy).
    pub(super) fn count_pop(&mut self) {
        self.processed += 1;
    }

    /// A frame entry carrying `copies` copies joined the queue.
    pub(super) fn queued(&mut self, copies: usize) {
        self.extra += copies as u64 - 1;
    }

    /// The next copy of the frame being fanned out is handed over, from a queue holding
    /// `entries` live entries: sample the depth as before a pop, then count the copy.
    pub(super) fn take(&mut self, entries: usize) {
        self.sample(entries);
        self.extra -= 1;
        self.processed += 1;
    }

    /// The copies a fan-out has not handed over went back into the queue as one entry.
    pub(super) fn requeued(&mut self) {
        self.extra -= 1;
    }

    /// An empty copy list.
    pub(super) fn buffer(&mut self) -> Vec<(NodeId, bool)> {
        self.spare.pop().unwrap_or_default()
    }

    /// Keep `copies` for a later frame. The spare pool never outgrows the deepest queue
    /// seen, which bounds it where copy lists migrate between shards one way.
    pub(super) fn recycle(&mut self, mut copies: Vec<(NodeId, bool)>) {
        if (self.spare.len() as u64) < self.peak {
            copies.clear();
            self.spare.push(copies);
        }
    }
}

/// What an engine supplies to the node-state core: topology, an event sink, and the
/// three behaviours that tell the engines apart. Statically dispatched — every core
/// method is generic over it.
pub(super) trait Fabric<P> {
    /// Channel-loss and MAC-jitter draws come from one `"shard-loss"` stream per sender,
    /// so the draw order is independent of how events interleave across nodes, instead
    /// of from the single global `"channel-loss"` stream.
    const PER_SENDER_LOSS: bool;
    /// Carrier capture and the depleted-receiver skip run when a copy arrives (on the
    /// receiver's own shard) instead of when the frame is sent.
    const GUARDS_AT_DELIVERY: bool;
    /// Per-session energy is kept per (session, node) and reduced in ascending node
    /// order, making the sum independent of the partition, instead of summed per
    /// session in event order.
    const NODE_ORDER_ENERGY: bool;

    /// Index of `node` within the core that covers it.
    fn local(&self, node: NodeId) -> usize;
    /// Position of `node` at `t`.
    fn position(&mut self, node: NodeId, t: SimTime) -> Vec2;
    /// True while `node`'s links are blacked out at `t`.
    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool;
    /// Darken `node`'s links until `until` (never shortening a running blackout).
    fn set_blackout(&mut self, node: NodeId, until: SimTime);
    /// Every other node within `range` of `center`, ascending id, blacked-out nodes
    /// excluded.
    fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    );
    /// Distance from `center` to the farthest of `ids` (zero when empty).
    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], t: SimTime) -> f64;
    /// Queue a node-local event.
    fn schedule(&mut self, at: SimTime, ev: NetEvent<P>) -> EventId;
    /// Cancel a queued node-local event.
    fn cancel(&mut self, id: EventId);
    /// An empty copy list for a frame about to go on the air.
    fn copy_buffer(&mut self) -> Vec<(NodeId, bool)>;
    /// Queue `frame` to arrive at `at`. Its receivers may be covered by any core; a
    /// frame without copies queues nothing.
    fn deliver_frame(&mut self, at: SimTime, frame: Frame<P>);
    /// Copy `next` (never the first) of `frame`, popped at `t`, is due: count it as one
    /// event and sample the queue depth — unless an event queued during the fan-out
    /// sorts before that copy, in which case return `false` and count nothing.
    fn take_copy(&mut self, t: SimTime, frame: &Frame<P>, next: usize) -> bool;
    /// The fan-out of `frame` stopped after `delivered` copies: recycle its copy list
    /// when every copy is delivered, or queue the rest at `t` to pop in its turn.
    fn end_frame(&mut self, t: SimTime, frame: Frame<P>, delivered: usize);
}

/// Which core covers each node, and at which local index.
#[derive(Default)]
pub(super) struct Layout {
    /// Global node id → core; empty while one core covers every node in id order.
    pub(super) shard_of: Vec<u32>,
    /// Global node id → index in its core's covered list.
    pub(super) local_of: Vec<u32>,
}

impl Layout {
    /// Stripes `owned[w]` (ascending ids each) over `n` nodes.
    pub(super) fn striped(owned: &[Vec<u32>], n: usize) -> Self {
        let mut layout = Layout { shard_of: vec![0; n], local_of: vec![0; n] };
        for (w, ids) in owned.iter().enumerate() {
            for (li, &gi) in ids.iter().enumerate() {
                layout.shard_of[gi as usize] = w as u32;
                layout.local_of[gi as usize] = li as u32;
            }
        }
        layout
    }

    /// `(core, local index)` of global node `gi`.
    pub(super) fn locate(&self, gi: usize) -> (usize, usize) {
        if self.shard_of.is_empty() {
            (0, gi)
        } else {
            (self.shard_of[gi] as usize, self.local_of[gi] as usize)
        }
    }
}

/// Medium-access counters of one core.
#[derive(Default)]
struct MacCounts {
    /// Broadcast requests that reached the MAC (attempt 0, after liveness/blackout
    /// filtering).
    requested: u64,
    /// Frames the MAC actually put on the air.
    sent: u64,
    /// Frames the MAC abandoned (retry cap exceeded).
    drops: u64,
    /// MAC deferrals (each postponement of a pending frame counts once).
    deferrals: u64,
    /// Sum of request-to-transmission delays over sent frames.
    access_delay: SimDuration,
    /// Sum of transmit airtime over sent frames.
    airtime: SimDuration,
}

/// The per-node state of the nodes one engine unit covers, and every rule over it.
pub(super) struct NodeCore<A: ProtocolAgent> {
    setup: Arc<SimSetup>,
    /// Covered node ids, ascending; local index `li` is node `owned[li]`.
    owned: Vec<u32>,
    /// `agents[session * owned.len() + local]`.
    agents: Vec<A>,
    /// Per-local protocol RNG (`"protocol"` stream, indexed by global node id).
    rngs: Vec<StdRng>,
    /// Channel-loss streams: one per local node under [`Fabric::PER_SENDER_LOSS`],
    /// otherwise the single global stream.
    loss_rngs: Vec<StdRng>,
    batteries: Vec<Battery>,
    /// Crash flag (driven by [`FaultKind::Crash`] / [`FaultKind::Rejoin`]).
    crashed: Vec<bool>,
    /// Horizon up to which continuous idle/sleep drain has been accrued.
    accrued_until: Vec<SimTime>,
    /// First instant each battery was observed depleted. Without harvesting, battery
    /// death is permanent; a harvest wake clears the entry again.
    death_at: Vec<Option<SimTime>>,
    /// Earliest depletion ever observed here — `first_death_s` must report the first
    /// depletion even after a harvest wake clears `death_at`.
    first_depletion: Option<SimTime>,
    /// Materialised per-node harvest rates (inert when harvesting is off).
    harvest: HarvestPlan,
    /// Materialised per-node duty-cycle schedule (always-awake when duty cycling is off).
    duty: DutySchedule,
    /// Pending timers keyed by `(node, session, kind, key)`.
    timers: HashMap<(u32, u16, u64, u64), EventId>,
    /// Full `sessions × n` membership table, session-major. Every core applies every
    /// churn event, so the replicas agree without synchronization.
    memberships: Vec<GroupRole>,
    /// Current receivers (members excluding the source) per session.
    receiver_counts: Vec<u64>,
    /// Join churn events applied per session.
    joins: Vec<u64>,
    /// Leave churn events applied per session.
    leaves: Vec<u64>,
    /// One traffic trace per session, covering this core's nodes.
    traces: Vec<Trace>,
    /// Energy attributed to each session's frames (tx + rx + overhear), joules: one
    /// slot per session, or per (session, local) under [`Fabric::NODE_ORDER_ENERGY`].
    /// Every radio consumption flows through exactly one session, so these sum to the
    /// batteries' total minus fault-injected drain spikes.
    energy_j: Vec<f64>,
    /// Overheard/discarded reception energy, same layout as `energy_j`.
    overhear_j: Vec<f64>,
    node_order_energy: bool,
    /// Full-width collision channel; only covered receivers' slots are touched.
    channel: Channel,
    /// Full-width MAC policy; only covered nodes' state is read.
    mac: Box<dyn MacPolicy>,
    mac_counts: MacCounts,
    /// Per-session recovery flag, refreshed from the observer after every probe
    /// notification; drives the steady-vs-recovery control-byte split. All-false (and
    /// the counters below unused) when beacon suppression is off.
    recovering: Vec<bool>,
    /// Per-session (packets, bytes) of control traffic sent while steady.
    silence_steady: Vec<(u64, u64)>,
    /// Per-session (packets, bytes) of control traffic sent while recovering.
    silence_recovery: Vec<(u64, u64)>,
    scratch_actions: Vec<Action<A::Payload>>,
    scratch_receivers: Vec<NodeId>,
}

impl<A: ProtocolAgent> NodeCore<A> {
    /// A core covering `owned` (ascending ids) in its initial state, running `agents`
    /// (`[session][local]` order) under the engine whose fabric is `F`.
    pub(super) fn new<F: Fabric<A::Payload>>(
        setup: &Arc<SimSetup>,
        owned: Vec<u32>,
        agents: Vec<A>,
    ) -> Self {
        let n = setup.n_nodes;
        let n_sessions = setup.n_sessions();
        let cnt = owned.len();
        let seeds = &setup.seeds;
        let batteries = vec![Battery::with_capacity(setup.battery_capacity_j); cnt];
        // A zero-capacity battery is depleted before the first event: record the death
        // at time zero so lifetime metrics never censor an already-dead fleet.
        let death_at: Vec<Option<SimTime>> =
            batteries.iter().map(|b| b.is_depleted().then_some(SimTime::ZERO)).collect();
        let loss_rngs = if F::PER_SENDER_LOSS {
            owned.iter().map(|&gi| seeds.indexed_stream("shard-loss", gi as u64)).collect()
        } else {
            vec![seeds.stream("channel-loss")]
        };
        let energy_slots = if F::NODE_ORDER_ENERGY { n_sessions * cnt } else { n_sessions };
        NodeCore {
            rngs: owned.iter().map(|&gi| seeds.indexed_stream("protocol", gi as u64)).collect(),
            loss_rngs,
            crashed: vec![false; cnt],
            accrued_until: vec![SimTime::ZERO; cnt],
            first_depletion: death_at.iter().flatten().min().copied(),
            death_at,
            batteries,
            harvest: HarvestPlan::from_seeds(&setup.harvest, n, setup.battery_capacity_j, seeds),
            duty: DutySchedule::from_seeds(&setup.lifecycle.duty_cycle, n, seeds),
            timers: HashMap::new(),
            memberships: setup.sessions.iter().flat_map(|s| s.roles.iter().copied()).collect(),
            receiver_counts: setup.sessions.iter().map(|s| s.initial_receivers()).collect(),
            joins: vec![0; n_sessions],
            leaves: vec![0; n_sessions],
            traces: (0..n_sessions)
                .map(|_| Trace::with_config(setup.unavailability_window, &setup.metrics))
                .collect(),
            energy_j: vec![0.0; energy_slots],
            overhear_j: vec![0.0; energy_slots],
            node_order_energy: F::NODE_ORDER_ENERGY,
            channel: Channel::new(n, n_sessions),
            mac: setup.mac.build(n, seeds),
            mac_counts: MacCounts::default(),
            recovering: vec![false; n_sessions],
            silence_steady: vec![(0, 0); n_sessions],
            silence_recovery: vec![(0, 0); n_sessions],
            scratch_actions: Vec::with_capacity(16),
            scratch_receivers: Vec::with_capacity(16),
            setup: Arc::clone(setup),
            owned,
            agents,
        }
    }

    /// The agents, `[session][local]` order.
    pub(super) fn into_agents(self) -> Vec<A> {
        self.agents
    }

    /// Local node `li`'s battery.
    pub(super) fn battery(&self, li: usize) -> &Battery {
        &self.batteries[li]
    }

    /// The agent running `session` at local node `li`.
    pub(super) fn agent(&self, session: usize, li: usize) -> &A {
        &self.agents[session * self.owned.len() + li]
    }

    /// Node `node`'s current role in `session` (from this core's full replica).
    pub(super) fn role(&self, session: usize, node: NodeId) -> GroupRole {
        self.memberships[session * self.setup.n_nodes + node.index()]
    }

    /// True while local node `li` is crashed.
    pub(super) fn is_crashed(&self, li: usize) -> bool {
        self.crashed[li]
    }

    /// When local node `li`'s battery was observed depleted, if it is currently dead.
    pub(super) fn death_time(&self, li: usize) -> Option<SimTime> {
        self.death_at[li]
    }

    /// The duty-cycle schedule driving the radios.
    pub(super) fn duty(&self) -> &DutySchedule {
        &self.duty
    }

    #[cfg(test)]
    pub(super) fn set_duty(&mut self, duty: DutySchedule) {
        self.duty = duty;
    }

    /// Neither crashed nor depleted.
    fn is_up(&self, li: usize) -> bool {
        !self.crashed[li] && !self.batteries[li].is_depleted()
    }

    /// Record local node `li`'s death the first time its battery is observed depleted.
    /// With harvesting enabled, also schedule the node's harvest-until-threshold wake —
    /// exactly once per depletion episode (`death_at[li]` guards re-entry).
    fn note_death<F: Fabric<A::Payload>>(&mut self, fab: &mut F, li: usize, t: SimTime) {
        if self.death_at[li].is_none() && self.batteries[li].is_depleted() {
            self.death_at[li] = Some(t);
            self.first_depletion = Some(self.first_depletion.map_or(t, |f| f.min(t)));
            let node = NodeId(self.owned[li]);
            if let Some(delay) = self.harvest.wake_delay(node) {
                if let Some(at) = t.checked_add(delay) {
                    fab.schedule(at, NetEvent::HarvestWake { node });
                }
            }
        }
    }

    /// Accrue local node `li`'s continuous idle-listen / sleep drain up to `t`. The
    /// drain is piecewise-linear over the duty-cycle schedule, so accruing lazily at
    /// event and sample instants books exactly the same joules as accruing
    /// continuously; a node whose battery runs dry between packets is observed dead at
    /// the next instant anything (an event, a probe, a lifetime sample) looks at it.
    pub(super) fn accrue_idle<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        li: usize,
        t: SimTime,
    ) {
        if !self.setup.lifecycle.has_continuous_drain() {
            return;
        }
        let from = self.accrued_until[li];
        if t <= from {
            return;
        }
        self.accrued_until[li] = t;
        if self.batteries[li].is_depleted() {
            return;
        }
        let awake = self.duty.awake_between(NodeId(self.owned[li]), from, t);
        let asleep = t.saturating_since(from) - awake;
        let lc = self.setup.lifecycle;
        if lc.idle_listen_w > 0.0 {
            self.batteries[li]
                .accept(lc.idle_listen_w * awake.as_secs_f64(), EnergyUse::IdleListen);
        }
        if lc.sleep_w > 0.0 {
            self.batteries[li].accept(lc.sleep_w * asleep.as_secs_f64(), EnergyUse::Sleep);
        }
        self.note_death(fab, li, t);
    }

    /// Accrue every covered node's continuous drain up to `t` (probes and lifetime
    /// samples need the whole fleet's liveness to be current).
    pub(super) fn accrue_all<F: Fabric<A::Payload>>(&mut self, fab: &mut F, t: SimTime) {
        if !self.setup.lifecycle.has_continuous_drain() {
            return;
        }
        for li in 0..self.owned.len() {
            self.accrue_idle(fab, li, t);
        }
    }

    /// Book `joules` of radio energy at local node `li` to `session`.
    fn book<F: Fabric<A::Payload>>(
        &mut self,
        session: usize,
        li: usize,
        joules: f64,
        overheard: bool,
    ) {
        let slot = if F::NODE_ORDER_ENERGY { session * self.owned.len() + li } else { session };
        self.energy_j[slot] += joules;
        if overheard {
            self.overhear_j[slot] += joules;
        }
    }

    /// Count one transmission in its session's trace (and, for control frames, in the
    /// steady or recovery silence bucket).
    fn record_tx(&mut self, session: usize, class: PacketClass, size_bytes: u32) {
        match class {
            PacketClass::Control => {
                self.traces[session].record_control_tx(size_bytes);
                self.record_silence_control(session, size_bytes);
            }
            PacketClass::Data => self.traces[session].record_data_tx(size_bytes),
        }
    }

    /// Bucket one control transmission into the steady or recovery phase.
    fn record_silence_control(&mut self, session: usize, size_bytes: u32) {
        if !self.setup.silence.enabled {
            return;
        }
        let bucket = if self.recovering[session] {
            &mut self.silence_recovery[session]
        } else {
            &mut self.silence_steady[session]
        };
        bucket.0 += 1;
        bucket.1 += u64::from(size_bytes);
    }

    /// Apply one scheduled membership change. Sources never churn, and redundant events
    /// (joining a member, removing a non-member) are ignored, so schedules stay valid
    /// under any interleaving.
    fn apply_membership(&mut self, session: usize, node: NodeId, change: MembershipChange) {
        let idx = session * self.setup.n_nodes + node.index();
        match (change, self.memberships[idx]) {
            (MembershipChange::Join, GroupRole::NonMember) => {
                self.memberships[idx] = GroupRole::Member;
                self.receiver_counts[session] += 1;
                self.joins[session] += 1;
            }
            (MembershipChange::Leave, GroupRole::Member) => {
                self.memberships[idx] = GroupRole::NonMember;
                self.receiver_counts[session] -= 1;
                self.leaves[session] += 1;
            }
            _ => {}
        }
    }

    /// Start every covered agent at time zero, session-major (session 0 first keeps the
    /// single-session event order).
    pub(super) fn start_all<F: Fabric<A::Payload>>(&mut self, fab: &mut F) {
        for session in 0..self.setup.n_sessions() {
            for li in 0..self.owned.len() {
                let node = NodeId(self.owned[li]);
                self.call(fab, session, node, SimTime::ZERO, |agent, ctx| agent.start(ctx));
            }
        }
    }

    /// Run one agent callback at `node` and apply the actions it queued.
    fn call<F, G>(&mut self, fab: &mut F, session: usize, node: NodeId, t: SimTime, g: G)
    where
        F: Fabric<A::Payload>,
        G: FnOnce(&mut A, &mut NodeCtx<'_, A::Payload>),
    {
        let pos = fab.position(node, t);
        let li = fab.local(node);
        let role = self.role(session, node);
        let ai = session * self.owned.len() + li;
        let mut actions = std::mem::take(&mut self.scratch_actions);
        actions.clear();
        {
            let mut ctx = NodeCtx::new(
                t,
                node,
                pos,
                role,
                self.setup.n_nodes,
                &self.setup.radio,
                &mut self.rngs[li],
                &mut actions,
            );
            g(&mut self.agents[ai], &mut ctx);
        }
        self.apply_actions(fab, session, node, t, pos, &mut actions);
        self.scratch_actions = actions;
    }

    /// Apply the actions a protocol emitted at `node` within `session`. `node_pos` is
    /// the position the protocol context already saw, threaded through so broadcasts do
    /// not query the mobility model a second time at the same timestamp.
    fn apply_actions<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        session: usize,
        node: NodeId,
        t: SimTime,
        node_pos: Vec2,
        actions: &mut Vec<Action<A::Payload>>,
    ) {
        for action in actions.drain(..) {
            match action {
                Action::Broadcast { class, size_bytes, range_m, data, payload } => {
                    self.try_send(
                        fab,
                        session,
                        node,
                        t,
                        Some(node_pos),
                        class,
                        size_bytes,
                        range_m,
                        data,
                        payload,
                        0,
                        t,
                    );
                }
                Action::SetTimer { delay, kind, key } => {
                    let ev = NetEvent::Timer { session: session as u16, node, kind, key };
                    let id = fab.schedule(t + delay, ev);
                    if let Some(old) = self.timers.insert((node.0, session as u16, kind, key), id) {
                        fab.cancel(old);
                    }
                }
                Action::CancelTimer { kind, key } => {
                    if let Some(id) = self.timers.remove(&(node.0, session as u16, kind, key)) {
                        fab.cancel(id);
                    }
                }
                Action::DeliverData { tag } => {
                    // Membership is enforced here, not only in protocol code: a node
                    // that left the group (or never joined it) cannot count a delivery,
                    // whatever its protocol instance believes. Only *receiving* members
                    // count — the source is the origin, never a delivery target.
                    if matches!(self.role(session, node), GroupRole::Member) {
                        self.traces[session].record_delivery(&tag, node, t);
                    }
                }
            }
        }
    }

    /// One MAC-mediated transmission attempt: run the liveness/blackout guards, ask the
    /// MAC policy when the frame may transmit, and either put it on the air, schedule a
    /// [`NetEvent::MacRetry`], or drop it. `sender_pos` is threaded from the protocol
    /// context on the first attempt; retries pass `None` and re-query the (possibly
    /// moved) node.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_send<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        session: usize,
        sender: NodeId,
        t: SimTime,
        sender_pos: Option<Vec2>,
        class: PacketClass,
        size_bytes: u32,
        range_m: f64,
        data: Option<DataTag>,
        payload: A::Payload,
        attempt: u32,
        requested_at: SimTime,
    ) {
        let li = fab.local(sender);
        self.accrue_idle(fab, li, t);
        if !self.is_up(li) {
            return;
        }
        let radio = self.setup.radio;
        let range = radio.clamp_range(range_m);
        let usage = match class {
            PacketClass::Control => EnergyUse::TxControl,
            PacketClass::Data => EnergyUse::TxData,
        };
        // A blacked-out sender still pays for the transmission but nobody hears it —
        // at the requested range even under power control (its neighbourhood is
        // unknowable through a jammed link), and without wasting a neighbour query
        // whose result would be discarded. The MAC never sees these frames: carrier
        // sensing through a jammed front end is meaningless.
        if fab.is_blacked_out(sender, t) {
            let accepted =
                self.batteries[li].accept(radio.energy.tx_energy(range, size_bytes), usage);
            self.note_death(fab, li, t);
            self.book::<F>(session, li, accepted, false);
            self.record_tx(session, class, size_bytes);
            return;
        }
        if attempt == 0 {
            self.mac_counts.requested += 1;
        }
        // The MAC decides when the frame hits the air. The default jitter policy draws
        // exactly the legacy backoff from the loss stream and always transmits; the
        // contention policies use their own seeded streams and may defer or drop.
        let lr = if F::PER_SENDER_LOSS { li } else { 0 };
        let frame = MacFrame { sender, class, size_bytes, attempt };
        let decision = self.mac.access(&frame, t, &radio, &self.channel, &mut self.loss_rngs[lr]);
        let tx_start = match decision {
            MacDecision::Drop => {
                self.mac_counts.drops += 1;
                return;
            }
            MacDecision::Defer { until } => {
                self.mac_counts.deferrals += 1;
                let ev = NetEvent::MacRetry {
                    session: session as u16,
                    sender,
                    class,
                    size_bytes,
                    range_m: range,
                    data,
                    payload,
                    attempt: attempt + 1,
                    requested_at,
                };
                fab.schedule(until.max(t), ev);
                return;
            }
            MacDecision::Transmit { at } => at.max(t),
        };
        self.mac_counts.sent += 1;
        self.mac_counts.access_delay += tx_start.saturating_since(requested_at);
        self.mac_counts.airtime += radio.tx_duration(size_bytes);
        // Receivers are computed up front (the query is RNG-free, so the loss draws
        // below keep their order) so distance-based TX power control can price the
        // transmission by its farthest actual receiver.
        let sender_pos = sender_pos.unwrap_or_else(|| fab.position(sender, t));
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        fab.receivers_within(sender, sender_pos, range, t, &mut receivers);
        let tx_end = tx_start + radio.tx_duration(size_bytes);
        let delivery_at = tx_start + radio.delivery_delay(size_bytes);
        let lc = self.setup.lifecycle;
        let tx_range = if lc.tx_power_control {
            // Just enough power to cover the farthest receiver; the zero-range
            // electronics term keeps the cost above the floor even with nobody in
            // range. By default a sleeping receiver still counts — the sender cannot
            // know; with the duty-aware-pricing opt-in the seeded schedule *is*
            // knowable, and receivers provably asleep at the delivery instant (they
            // would drop the frame anyway) leave the pricing set. The receiver set,
            // delays and loss draws are never affected — only the priced range.
            if lc.duty_aware_pricing && self.duty.is_on() {
                let priced: Vec<NodeId> = receivers
                    .iter()
                    .copied()
                    .filter(|&rx| self.duty.is_awake(rx, delivery_at))
                    .collect();
                fab.farthest_distance(sender_pos, &priced, t).min(range)
            } else {
                fab.farthest_distance(sender_pos, &receivers, t).min(range)
            }
        } else {
            range
        };
        // Attribute only what the battery actually held: the dying gasp of a nearly
        // drained node books (and charges its session with) the residual energy, so
        // per-session sums conserve the batteries' totals across depletion.
        let accepted =
            self.batteries[li].accept(radio.energy.tx_energy(tx_range, size_bytes), usage);
        self.note_death(fab, li, t);
        self.book::<F>(session, li, accepted, false);
        self.record_tx(session, class, size_bytes);

        // MAC state rides the frame: the claim-table row is snapshotted once, when the
        // frame leaves the sender, and shared by every receiver's copy — receivers
        // learn from what was actually on the air, not from the sender's later state.
        let piggyback: Option<Arc<[u16]>> = self.mac.piggyback_row(sender, class).map(Arc::from);
        // Receivers come back in ascending node-id order regardless of query mode, so
        // the per-receiver draws consume the loss stream in a query-independent order.
        let mut copies = fab.copy_buffer();
        let loss_rng = &mut self.loss_rngs[lr];
        for &rx in &receivers {
            let mut clean = true;
            if !F::GUARDS_AT_DELIVERY {
                if self.batteries[fab.local(rx)].is_depleted() {
                    continue;
                }
                if radio.collisions_enabled {
                    clean = self.channel.try_receive(session as u16, rx, tx_start, tx_end);
                }
            }
            let lost = loss_rng.gen::<f64>() < radio.loss_probability;
            copies.push((rx, !clean || lost));
        }
        self.scratch_receivers = receivers;
        let packet = Packet { sender, class, size_bytes, data, payload };
        let frame = Frame { session: session as u16, packet, tx_start, piggyback, copies };
        fab.deliver_frame(delivery_at, frame);
    }

    /// Hand the copies of `frame`, popped at `t`, to their receivers in ascending order.
    /// Every copy after the first goes through [`Fabric::take_copy`], so an event
    /// queued during the fan-out that sorts before the next copy still runs first: the
    /// rest of the frame then goes back to the queue.
    fn fan_out<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        t: SimTime,
        frame: Frame<A::Payload>,
    ) {
        let mut delivered = 0;
        while delivered < frame.copies.len() {
            if delivered > 0 && !fab.take_copy(t, &frame, delivered) {
                break;
            }
            let (rx, lost) = frame.copies[delivered];
            self.deliver_copy(fab, t, &frame, rx, lost);
            delivered += 1;
        }
        fab.end_frame(t, frame, delivered);
    }

    /// One copy of `frame` arrives at `rx` at `t`.
    fn deliver_copy<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        t: SimTime,
        frame: &Frame<A::Payload>,
        rx: NodeId,
        lost: bool,
    ) {
        let Frame { session, ref packet, tx_start, ref piggyback, .. } = *frame;
        let s = session as usize;
        let li = fab.local(rx);
        self.accrue_idle(fab, li, t);
        if self.batteries[li].is_depleted() {
            return;
        }
        // Capture at delivery runs before the crash/blackout/sleep guards: a frame
        // occupies a crashed receiver's air regardless.
        let radio = &self.setup.radio;
        let clean = !F::GUARDS_AT_DELIVERY
            || !radio.collisions_enabled
            || self.channel.try_receive(
                session,
                rx,
                tx_start,
                tx_start + radio.tx_duration(packet.size_bytes),
            );
        // A frame already in flight when the blackout started is lost too, and a
        // sleeping radio misses the frame entirely: no reception, no reception energy —
        // the delivery cost of duty cycling.
        if self.crashed[li] || fab.is_blacked_out(rx, t) || !self.duty.is_awake(rx, t) {
            return;
        }
        let rx_energy = radio.energy.rx_energy(packet.size_bytes);
        if !clean || lost {
            let accepted = self.batteries[li].accept(rx_energy, EnergyUse::Overhear);
            self.note_death(fab, li, t);
            self.book::<F>(s, li, accepted, true);
            return;
        }
        // A clean reception teaches the MAC: TDMA learns the sender's slot (and, on
        // control frames, its piggybacked claim table) exclusively through this call, at
        // arrival.
        self.mac.on_overheard(rx, packet.sender, packet.class, tx_start, piggyback.as_deref());
        let mut disposition = Disposition::Discarded;
        self.call(fab, s, rx, t, |agent, ctx| {
            disposition = agent.on_packet(ctx, packet);
        });
        let usage = match (disposition, packet.class) {
            (Disposition::Discarded, _) => EnergyUse::Overhear,
            (Disposition::Consumed, PacketClass::Control) => EnergyUse::RxControl,
            (Disposition::Consumed, PacketClass::Data) => EnergyUse::RxData,
        };
        let accepted = self.batteries[li].accept(rx_energy, usage);
        self.note_death(fab, li, t);
        self.book::<F>(s, li, accepted, usage == EnergyUse::Overhear);
    }

    /// Process one event. A fault event returns its kind and whether it changed
    /// anything, so the engine can notify a stabilization observer.
    pub(super) fn dispatch<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        t: SimTime,
        ev: NetEvent<A::Payload>,
    ) -> Option<(FaultKind, bool)> {
        match ev {
            NetEvent::Frame(frame) => self.fan_out(fab, t, frame),
            NetEvent::Timer { session, node, kind, key } => {
                self.timers.remove(&(node.0, session, kind, key));
                let li = fab.local(node);
                self.accrue_idle(fab, li, t);
                if self.is_up(li) {
                    self.call(fab, session as usize, node, t, |agent, ctx| {
                        agent.on_timer(ctx, kind, key);
                    });
                }
            }
            NetEvent::AppSend { session, seq } => {
                let s = session as usize;
                let traffic = self.setup.sessions[s].traffic;
                if t >= traffic.stop {
                    return None;
                }
                let source = traffic.source;
                let li = fab.local(source);
                self.accrue_idle(fab, li, t);
                let tag = DataTag { group: traffic.group, origin: source, seq, created_at: t };
                self.traces[s].record_generated(seq, t, self.receiver_counts[s]);
                if self.is_up(li) {
                    self.call(fab, s, source, t, |agent, ctx| {
                        agent.on_app_data(ctx, tag, traffic.packet_size_bytes);
                    });
                }
                let next = t + traffic.interval();
                if next < traffic.stop {
                    fab.schedule(next, NetEvent::AppSend { session, seq: seq + 1 });
                }
            }
            NetEvent::Membership { session, node, change } => {
                self.apply_membership(session as usize, node, change);
            }
            NetEvent::Fault(kind, plan_idx) => {
                return Some((kind, self.apply_fault(fab, t, kind, plan_idx)));
            }
            NetEvent::HarvestWake { node } => {
                let li = fab.local(node);
                // Book the dark period first: `accrue_idle` advances the accrual
                // horizon but charges nothing while the battery reads depleted — a
                // powered-down node draws no idle or sleep current.
                self.accrue_idle(fab, li, t);
                let restored = self.batteries[li].recharge(self.harvest.wake_energy_j());
                if restored <= 0.0 || self.batteries[li].is_depleted() {
                    return None; // nothing banked (or still short): stay dark forever
                }
                self.death_at[li] = None;
                if !self.crashed[li] {
                    // Timers died with the node; restarting the agents re-arms them,
                    // carrying whatever protocol state survived the outage — the same
                    // arbitrary-state restart as a fault-layer rejoin.
                    for session in 0..self.setup.n_sessions() {
                        self.call(fab, session, node, t, |agent, ctx| agent.start(ctx));
                    }
                }
            }
            NetEvent::MacRetry {
                session,
                sender,
                class,
                size_bytes,
                range_m,
                data,
                payload,
                attempt,
                requested_at,
            } => {
                self.try_send(
                    fab,
                    session as usize,
                    sender,
                    t,
                    None,
                    class,
                    size_bytes,
                    range_m,
                    data,
                    payload,
                    attempt,
                    requested_at,
                );
            }
        }
        None
    }

    /// Apply one injected fault at `t`; `plan_idx` is its index in the fault plan.
    /// Returns `false` when the fault was a no-op (corrupting or re-crashing an
    /// already-down node, draining an empty battery) so a probed run does not report
    /// phantom faults to the observer.
    pub(super) fn apply_fault<F: Fabric<A::Payload>>(
        &mut self,
        fab: &mut F,
        t: SimTime,
        kind: FaultKind,
        plan_idx: u64,
    ) -> bool {
        let li = fab.local(kind.node());
        // Bring the target's continuous drain up to date first, so a node whose battery
        // ran dry between packets is already dead (and the fault a no-op) here.
        self.accrue_idle(fab, li, t);
        match kind {
            FaultKind::Corrupt { node } => {
                let up = self.is_up(li);
                if up {
                    // State corruption hits the node: every session's instance there is
                    // scrambled (with the node's own seeded RNG, in session order), and
                    // so is its MAC state — a corrupted TDMA schedule must re-converge.
                    let cnt = self.owned.len();
                    for session in 0..self.setup.n_sessions() {
                        self.agents[session * cnt + li].corrupt_state(&mut self.rngs[li]);
                    }
                    // A second pass with a live context: suppressed agents re-arm their
                    // beacon timers so the scrambled state becomes visible at the base
                    // cadence, not after a backed-off interval.
                    for session in 0..self.setup.n_sessions() {
                        self.call(fab, session, node, t, |agent, ctx| agent.on_corrupted(ctx));
                    }
                    self.mac.corrupt(node);
                }
                up
            }
            FaultKind::Crash { node, down_for } => {
                if !self.is_up(li) {
                    return false; // already dead — nothing changes
                }
                self.crashed[li] = true;
                if down_for != SimDuration::MAX {
                    if let Some(at) = t.checked_add(down_for) {
                        fab.schedule(at, NetEvent::Fault(FaultKind::Rejoin { node }, plan_idx));
                    }
                }
                true
            }
            FaultKind::Rejoin { node } => {
                let was_down = self.crashed[li];
                if was_down {
                    self.crashed[li] = false;
                    // The node's timers were lost while it was down; restarting the
                    // agents re-arms them. Their (stale) protocol state survives the
                    // crash — exactly the arbitrary-state situation self-stabilization
                    // must recover from.
                    for session in 0..self.setup.n_sessions() {
                        self.call(fab, session, node, t, |agent, ctx| agent.start(ctx));
                    }
                }
                was_down
            }
            FaultKind::Blackout { node, duration } => {
                // The link flag is set regardless (the blackout may outlive a crash's
                // downtime), but darkening an already-dead node's links is a no-op for
                // episode accounting — a dead node is exempt from legitimacy anyway.
                fab.set_blackout(node, t.checked_add(duration).unwrap_or(SimTime::MAX));
                self.is_up(li)
            }
            FaultKind::Drain { joules, .. } => {
                // An unlimited battery cannot be hurt by a spike: skip it entirely so
                // the energy report stays clean and no phantom episode opens.
                if self.batteries[li].is_unlimited() || self.batteries[li].is_depleted() {
                    return false;
                }
                self.batteries[li].drain(joules);
                self.note_death(fab, li, t);
                true
            }
        }
    }
}

/// Battery-alive node count and cumulative delivery ratio at each lifetime sample
/// epoch (bounded rings in streaming mode, plain unbounded buffers in exact mode).
pub(super) struct Curves {
    alive: CurveRing<u64>,
    delivery: CurveRing<f64>,
}

impl Curves {
    pub(super) fn new(setup: &SimSetup) -> Self {
        let budget = if setup.metrics.is_streaming() {
            setup.metrics.streaming.curve_budget as usize
        } else {
            usize::MAX
        };
        Curves { alive: CurveRing::with_budget(budget), delivery: CurveRing::with_budget(budget) }
    }

    /// Append one `(alive, delivery ratio)` sample.
    pub(super) fn push(&mut self, (alive, delivery_ratio): (u64, f64)) {
        self.alive.push(alive);
        self.delivery.push(delivery_ratio);
    }
}

/// Every core of one run, in core order, with the layout locating each node — the
/// network-wide view that probes and reports read.
pub(super) struct Fleet<'a, A: ProtocolAgent> {
    cores: Vec<&'a NodeCore<A>>,
    layout: &'a Layout,
}

impl<'a, A: ProtocolAgent> Fleet<'a, A> {
    pub(super) fn new(
        cores: impl IntoIterator<Item = &'a NodeCore<A>>,
        layout: &'a Layout,
    ) -> Self {
        Fleet { cores: cores.into_iter().collect(), layout }
    }

    fn setup(&self) -> &'a SimSetup {
        &self.cores[0].setup
    }

    /// The core covering global node `gi`, and `gi`'s local index there.
    fn node(&self, gi: usize) -> (&'a NodeCore<A>, usize) {
        let (c, li) = self.layout.locate(gi);
        (self.cores[c], li)
    }

    /// Every battery, in ascending global node order (the order all floating-point
    /// reductions over nodes use).
    fn batteries(&self) -> impl Iterator<Item = &'a Battery> + '_ {
        (0..self.setup().n_nodes).map(|gi| {
            let (core, li) = self.node(gi);
            &core.batteries[li]
        })
    }

    /// Network-wide energy consumed so far, joules.
    pub(super) fn energy_consumed_j(&self) -> f64 {
        self.batteries().map(Battery::consumed).sum()
    }

    /// Energy and overhear energy attributed to `session` so far, joules: the running
    /// event-order sum, or the per-node accumulators reduced in ascending node order.
    pub(super) fn session_energy_j(&self, session: usize) -> (f64, f64) {
        if !self.cores[0].node_order_energy {
            let core = self.cores[0];
            return (core.energy_j[session], core.overhear_j[session]);
        }
        let (mut energy, mut overhear) = (0.0f64, 0.0f64);
        for gi in 0..self.setup().n_nodes {
            let (core, li) = self.node(gi);
            let slot = session * core.owned.len() + li;
            energy += core.energy_j[slot];
            overhear += core.overhear_j[slot];
        }
        (energy, overhear)
    }

    /// Control packets `session` transmitted so far.
    pub(super) fn control_packets(&self, session: usize) -> u64 {
        self.cores.iter().map(|c| c.traces[session].control_packets()).sum()
    }

    /// Data packet transmissions of `session` so far.
    pub(super) fn data_packets(&self, session: usize) -> u64 {
        self.cores.iter().map(|c| c.traces[session].data_packets_tx()).sum()
    }

    /// Battery-alive node count and cumulative delivery ratio right now.
    pub(super) fn lifetime_point(&self) -> (u64, f64) {
        let mut alive = 0u64;
        let (mut delivered, mut expected) = (0u64, 0u64);
        for core in &self.cores {
            alive += core.batteries.iter().filter(|b| !b.is_depleted()).count() as u64;
            delivered += core.traces.iter().map(Trace::delivered_count).sum::<u64>();
            expected += core.traces.iter().map(Trace::expected_deliveries).sum::<u64>();
        }
        (alive, if expected > 0 { delivered as f64 / expected as f64 } else { 0.0 })
    }

    /// Build the report from the current state. The aggregate block folds every
    /// session; runs with group dynamics (several sessions or churn) additionally
    /// carry one per-group block per session.
    pub(super) fn report(&self, duration: SimDuration, curves: &Curves) -> SimReport {
        let setup = self.setup();
        let total_energy: f64 = self.energy_consumed_j();
        let overhear: f64 = self.batteries().map(Battery::overheard).sum();
        let label = match setup.n_nodes {
            0 => "protocol",
            _ => {
                let (core, li) = self.node(0);
                core.agent(0, li).label()
            }
        };
        // One core's traces already cover every node; several are merged piecewise.
        let merged: Vec<Trace>;
        let traces: &[Trace] = if let [core] = self.cores[..] {
            &core.traces
        } else {
            merged = (0..setup.n_sessions())
                .map(|s| {
                    let mut trace = Trace::with_config(setup.unavailability_window, &setup.metrics);
                    for core in &self.cores {
                        trace.absorb(&core.traces[s]);
                    }
                    trace
                })
                .collect();
            &merged
        };
        let pairs: Vec<(&Trace, u32)> = traces
            .iter()
            .zip(&setup.sessions)
            .map(|(trace, session)| (trace, session.traffic.packet_size_bytes))
            .collect();
        let mut report = Trace::finish_aggregate(
            &pairs,
            label,
            duration,
            total_energy,
            overhear,
            self.cores.iter().map(|c| c.channel.collisions()).sum(),
            setup.availability_threshold,
        );
        if setup.has_group_dynamics() {
            // Membership replicas agree across cores: any one answers.
            let replica = self.cores[0];
            let groups = setup
                .sessions
                .iter()
                .enumerate()
                .map(|(s, session)| {
                    let (energy_j, overhear_energy_j) = self.session_energy_j(s);
                    traces[s].group_stats(&GroupAccounting {
                        group: session.traffic.group.0,
                        source: session.traffic.source.0,
                        members_initial: session.initial_receivers(),
                        members_final: replica.receiver_counts[s],
                        joins: replica.joins[s],
                        leaves: replica.leaves[s],
                        energy_j,
                        overhear_energy_j,
                        collisions: self.cores.iter().map(|c| c.channel.collisions_for(s)).sum(),
                        availability_threshold: setup.availability_threshold,
                    })
                })
                .collect();
            report.groups = Some(groups);
        }
        report.lifetime = self.lifetime_stats(curves);
        if setup.mac.reports_stats() {
            report.mac = Some(self.mac_stats(duration));
        }
        report.silence = self.silence_stats();
        report
    }

    /// The [`LifetimeStats`] block, or `None` when the run does not track the energy
    /// lifecycle.
    fn lifetime_stats(&self, curves: &Curves) -> Option<LifetimeStats> {
        let setup = self.setup();
        if !setup.tracks_lifetime() {
            return None;
        }
        // In streaming mode the bounded rings may have downsampled: one committed
        // point then spans `stride` raw epochs, and the reported cadence scales with
        // it (exact mode has stride 1, leaving the bytes unchanged).
        let epoch = setup.sample_epoch().saturating_mul(curves.alive.stride());
        let n = setup.n_nodes as u64;
        let mut stats = LifetimeStats::empty(epoch.as_secs_f64(), n);
        stats.first_death_s =
            self.cores.iter().filter_map(|c| c.first_depletion).min().map(|t| t.as_secs_f64());
        stats.deaths = self.batteries().filter(|b| b.is_depleted()).count() as u64;
        stats.alive_final = n - stats.deaths;
        stats.alive_curve = curves.alive.samples().to_vec();
        stats.delivery_ratio_curve = curves.delivery.samples().to_vec();
        stats.idle_energy_j = self.batteries().map(Battery::idle_listened).sum();
        stats.sleep_energy_j = self.batteries().map(Battery::slept).sum();
        stats.drained_j = self.batteries().map(Battery::drained).sum();
        let capacity = setup.battery_capacity_j;
        if capacity.is_finite() && n > 0 {
            let mut histogram = vec![0u64; RESIDUAL_HISTOGRAM_BINS];
            let mut sum = 0.0f64;
            let mut min = f64::INFINITY;
            for b in self.batteries() {
                let residual = b.remaining();
                sum += residual;
                min = min.min(residual);
                let fraction = if capacity > 0.0 { residual / capacity } else { 0.0 };
                let bin = ((fraction * RESIDUAL_HISTOGRAM_BINS as f64) as usize)
                    .min(RESIDUAL_HISTOGRAM_BINS - 1);
                histogram[bin] += 1;
            }
            stats.residual_energy_histogram = histogram;
            stats.mean_residual_j = sum / n as f64;
            stats.min_residual_j = min;
        }
        Some(stats)
    }

    /// Merge every core's MAC counters, channel statistics and policy accounting into
    /// one [`MacStats`] block.
    fn mac_stats(&self, duration: SimDuration) -> MacStats {
        let label = self.cores[0].mac.label();
        let mut mac = MacStats::empty(label);
        let mut access_delay = SimDuration::ZERO;
        let mut airtime = SimDuration::ZERO;
        for core in &self.cores {
            let counts = &core.mac_counts;
            mac.frames_requested += counts.requested;
            mac.frames_sent += counts.sent;
            mac.mac_drops += counts.drops;
            mac.deferrals += counts.deferrals;
            access_delay += counts.access_delay;
            airtime += counts.airtime;
            mac.receptions += core.channel.receptions();
            mac.collisions += core.channel.collisions();
            let mut per = MacStats::empty(label);
            core.mac.fill_stats(&mut per);
            mac.slot_conflicts += per.slot_conflicts;
            mac.slot_redraws += per.slot_redraws;
            mac.slot_last_redraw_s = match (mac.slot_last_redraw_s, per.slot_last_redraw_s) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        mac.mean_access_delay_ms = if mac.frames_sent > 0 {
            access_delay.as_millis_f64() / mac.frames_sent as f64
        } else {
            0.0
        };
        mac.airtime_utilization =
            if duration.is_zero() { 0.0 } else { airtime.as_secs_f64() / duration.as_secs_f64() };
        mac.collision_rate =
            if mac.receptions > 0 { mac.collisions as f64 / mac.receptions as f64 } else { 0.0 };
        mac
    }

    /// The phase-split control-traffic block, when suppression accounting is on.
    fn silence_stats(&self) -> Option<SilenceStats> {
        if !self.setup().silence.enabled {
            return None;
        }
        let sessions = (0..self.setup().n_sessions())
            .map(|s| {
                let (mut steady, mut recovery) = ((0u64, 0u64), (0u64, 0u64));
                for core in &self.cores {
                    steady.0 += core.silence_steady[s].0;
                    steady.1 += core.silence_steady[s].1;
                    recovery.0 += core.silence_recovery[s].0;
                    recovery.1 += core.silence_recovery[s].1;
                }
                SessionSilence {
                    steady_control_packets: steady.0,
                    steady_control_bytes: steady.1,
                    recovery_control_packets: recovery.0,
                    recovery_control_bytes: recovery.1,
                }
            })
            .collect();
        Some(SilenceStats::from_sessions(sessions))
    }
}

/// Probe-assembly state reused across observations: the snapshot of the latest probed
/// instant (shared by the notifications of a simultaneous fault burst — positions
/// cannot change within one timestamp) and fleet-sized scratch vectors.
#[derive(Default)]
pub(super) struct ProbeScratch {
    snapshot: Option<(SimTime, TopologySnapshot)>,
    parents: Vec<Option<NodeId>>,
    alive: Vec<bool>,
    blacked_out: Vec<bool>,
}

impl ProbeScratch {
    /// Cache the topology snapshot for `t`, building it only if `t` has none yet.
    pub(super) fn prime(&mut self, t: SimTime, snapshot: impl FnOnce() -> TopologySnapshot) {
        if !matches!(&self.snapshot, Some((st, _)) if *st == t) {
            self.snapshot = Some((t, snapshot()));
        }
    }

    /// Build a [`ProbeContext`] at `t` over `cores` and hand it to `observer` (as an
    /// epoch probe, or as a fault notification when `fault` is set); then refresh the
    /// cores' per-session recovery flags from the observer. Callers accrue idle drain
    /// up to `t` and [`Self::prime`] the snapshot for `t` first.
    pub(super) fn observe<A: ProtocolAgent>(
        &mut self,
        cores: &mut [&mut NodeCore<A>],
        layout: &Layout,
        t: SimTime,
        blacked_out: impl Fn(NodeId) -> bool,
        observer: &mut dyn StabilizationObserver,
        fault: Option<&FaultKind>,
    ) {
        let snapshot = match &self.snapshot {
            Some((st, snapshot)) if *st == t => snapshot,
            _ => panic!("the probe snapshot is primed for the observed instant"),
        };
        let fleet = Fleet::new(cores.iter().map(|c| &**c), layout);
        let setup = fleet.setup();
        let (n, n_sessions) = (setup.n_nodes, setup.n_sessions());
        self.parents.clear();
        self.parents.resize(n * n_sessions, None);
        self.alive.clear();
        self.alive.resize(n, false);
        for core in &fleet.cores {
            for (li, &gi) in core.owned.iter().enumerate() {
                let gi = gi as usize;
                self.alive[gi] = core.is_up(li);
                for s in 0..n_sessions {
                    self.parents[s * n + gi] = core.agent(s, li).tree_parent();
                }
            }
        }
        // Blackout is reported separately from liveness: a blacked-out node still runs
        // (and still counts as a member to serve), its links are just unusable.
        self.blacked_out.clear();
        self.blacked_out.extend((0..n).map(|i| blacked_out(NodeId(i as u32))));
        // One view per session: that session's parents, its churn-updated roles, and
        // its own running counters (so per-session recovery accounting does not charge
        // one session with another's traffic).
        let roles = &fleet.cores[0].memberships;
        let sessions: Vec<SessionProbe<'_>> = (0..n_sessions)
            .map(|s| SessionProbe {
                parents: &self.parents[s * n..(s + 1) * n],
                roles: &roles[s * n..(s + 1) * n],
                control_packets: fleet.control_packets(s),
                data_packets: fleet.data_packets(s),
                energy_j: fleet.session_energy_j(s).0,
            })
            .collect();
        let ctx = ProbeContext {
            now: t,
            snapshot,
            sessions: &sessions,
            alive: &self.alive,
            blacked_out: &self.blacked_out,
            control_packets: (0..n_sessions).map(|s| fleet.control_packets(s)).sum(),
            data_packets: (0..n_sessions).map(|s| fleet.data_packets(s)).sum(),
            energy_j: fleet.energy_consumed_j(),
        };
        match fault {
            Some(kind) => observer.on_fault(kind, &ctx),
            None => observer.on_epoch(&ctx),
        }
        if setup.silence.enabled {
            for core in cores.iter_mut() {
                for (s, flag) in core.recovering.iter_mut().enumerate() {
                    *flag = observer.session_recovering(s);
                }
            }
        }
    }
}
