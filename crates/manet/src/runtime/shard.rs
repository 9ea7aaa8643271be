//! The region-sharded parallel engine.
//!
//! Nodes are partitioned into `k` spatial stripes (sorted by initial x-position);
//! each stripe's [`NodeCore`] and [`KeyedQueue`] are drained by a worker thread. Shards
//! advance in **conservative synchronization windows**: with `m` the earliest pending
//! event anywhere and `δ` the radio's fixed propagation delay, every event in `[m, b]`
//! with `b ≤ m + δ − 1 ns` can only spawn *cross-shard* arrivals at `≥ m + δ > b`,
//! so a round that drains all events `≤ b` never misses a remote event. The only
//! cross-shard event class is packet delivery (timers, MAC retries and application
//! sends are node-local; faults and churn are seeded up front), which is what makes
//! the bound `δ = fixed_delay` valid.
//!
//! **Determinism.** Every event carries a canonical key and queues pop in
//! `(time, key)` order, so each node's event sequence is a pure function of the
//! global event set — *invariant of the shard count*. The same setup produces
//! byte-identical reports at 1, 2 or 8 shards. What this engine does differently from
//! the sequential loop lives in its [`Fabric`]: positions quantise to sync-window
//! refresh points, channel-loss draws come from per-sender `"shard-loss"` streams,
//! capture and receiver guards run at delivery time, and per-session energy is kept
//! per `(session, node)` and reduced in ascending global node order. On exact physics
//! (stationary nodes, no loss, no collisions, no MAC jitter) those differences vanish
//! and the two engines' reports are byte-identical — see `EXPERIMENTS.md`.

use super::core::{CopyTally, Fabric, Fleet, Frame, Layout, NetEvent, NodeCore, ProbeScratch};
use super::{attach_convergence, probe_epoch, NetworkSim};
use crate::agent::ProtocolAgent;
use crate::faults::{FaultKind, StabilizationObserver};
use crate::geometry::Vec2;
use crate::node::NodeId;
use crate::report::SimReport;
use crate::snapshot::TopologySnapshot;
use crate::spatial::SpatialIndex;
use ssmcast_dessim::{EventId, KeyedQueue, SimDuration, SimTime};
use ssmcast_metrics::EngineStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Canonical event key: `(rank, a, b, c, d)`. Ranks order same-time events the way the
/// sequential engine's insertion order did for the seeded classes (faults before churn
/// before application sends); the remaining fields make every key unique so pop order
/// is a pure function of the event, not of which worker pushed it first.
type Key = (u8, u64, u64, u64, u64);

const RANK_FAULT: u8 = 0;
const RANK_MEMBERSHIP: u8 = 1;
const RANK_APPSEND: u8 = 2;
const RANK_TIMER: u8 = 3;
const RANK_DELIVER: u8 = 4;
const RANK_MACRETRY: u8 = 5;
const RANK_HARVEST: u8 = 6;

/// Positions, spatial index and blackout horizons frozen between coordinator
/// refreshes. Workers take one read lock per round; the coordinator write-locks only
/// while every worker waits at the round barrier.
struct Frozen {
    positions: Vec<Vec2>,
    index: SpatialIndex,
    /// Blackout horizon per node, nanos. Raised only by the coordinator while every
    /// worker waits at the round barrier, which orders the write before the workers'
    /// next reads — so `Relaxed` suffices.
    blackout_until: Vec<AtomicU64>,
}

impl Frozen {
    fn is_blacked_out(&self, n: NodeId, t: SimTime) -> bool {
        t.as_nanos() < self.blackout_until[n.index()].load(Ordering::Relaxed)
    }
}

/// One shard's event queue and the per-node counters that make its keys unique.
struct ShardQueue<P> {
    events: KeyedQueue<Key, NetEvent<P>>,
    /// Frame copies in the queue, events handled and the peak depth, in copies.
    tally: CopyTally,
    /// Key of the event being dispatched: for a frame, the key of its first copy.
    current: Key,
    /// Per-local transmission counter — makes every frame key unique per sender.
    tx_seq: Vec<u64>,
    /// Per-local MAC-retry counter — makes every retry key unique per sender.
    mac_seq: Vec<u64>,
    /// Per-local harvest-wake counter — makes every wake key unique per node.
    harvest_seq: Vec<u64>,
    /// Earliest cross-shard push made this round, nanos (`u64::MAX` when none). Folded
    /// into the published minimum so the coordinator's window bound covers events
    /// sitting in lanes that their destination has not drained yet.
    round_lane_min: u64,
}

impl<P> ShardQueue<P> {
    fn new(cnt: usize) -> Self {
        ShardQueue {
            events: KeyedQueue::with_capacity(256),
            tally: CopyTally::default(),
            current: (0, 0, 0, 0, 0),
            tx_seq: vec![0; cnt],
            mac_seq: vec![0; cnt],
            harvest_seq: vec![0; cnt],
            round_lane_min: u64::MAX,
        }
    }

    /// Earliest event this shard still has to account for, nanos: its own queue and
    /// its undrained lane pushes.
    fn min(&mut self) -> u64 {
        self.events.peek_time().map_or(u64::MAX, SimTime::as_nanos).min(self.round_lane_min)
    }
}

/// Everything one worker owns: its stripe's node-state core and its queue.
struct Shard<A: ProtocolAgent> {
    core: NodeCore<A>,
    queue: ShardQueue<A::Payload>,
}

/// One cross-shard mailbox: timestamped, canonically-keyed frames from a single source
/// shard, drained by the destination at the start of its next round.
type Lane<P> = Mutex<Vec<(SimTime, Key, Frame<P>)>>;

/// The key of `frame`'s copy to `rx`: every copy of one frame shares the frame's
/// `(sender, tx_seq)` and sorts by receiver, so a frame entry keyed by its first copy
/// pops exactly where that copy would.
fn copy_key(frame: Key, rx: NodeId) -> Key {
    (RANK_DELIVER, frame.1, frame.2, rx.0 as u64, 0)
}

/// State shared between the coordinator and the workers.
struct Shared<A: ProtocolAgent> {
    shards: Vec<Mutex<Shard<A>>>,
    /// `lanes[dst][src]`: cross-shard frames from `src` to `dst`.
    lanes: Vec<Vec<Lane<A::Payload>>>,
    frozen: RwLock<Frozen>,
    /// Per-shard published minimum (nanos), `u64::MAX` when idle.
    mins: Vec<AtomicU64>,
    /// Current window end in nanos; `u64::MAX` tells workers to exit.
    window_end: AtomicU64,
    barrier: Barrier,
    panicked: AtomicBool,
}

const DONE: u64 = u64::MAX;

/// Poison-tolerant mutex lock: a worker that panicked has already set the shared
/// `panicked` flag, and the coordinator still needs the data for its own panic path.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pread<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Shard `w`'s fabric for one stretch of work: the frozen topology, its own queue,
/// and the lanes into every other shard.
struct ShardIo<'a, P> {
    queue: &'a mut ShardQueue<P>,
    frozen: &'a Frozen,
    lanes: &'a [Vec<Lane<P>>],
    layout: &'a Layout,
    w: usize,
}

impl<P: Clone> Fabric<P> for ShardIo<'_, P> {
    const PER_SENDER_LOSS: bool = true;
    const GUARDS_AT_DELIVERY: bool = true;
    const NODE_ORDER_ENERGY: bool = true;

    fn local(&self, node: NodeId) -> usize {
        self.layout.local_of[node.index()] as usize
    }

    fn position(&mut self, node: NodeId, _t: SimTime) -> Vec2 {
        self.frozen.positions[node.index()]
    }

    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool {
        self.frozen.is_blacked_out(node, t)
    }

    fn set_blackout(&mut self, node: NodeId, until: SimTime) {
        self.frozen.blackout_until[node.index()].fetch_max(until.as_nanos(), Ordering::Relaxed);
    }

    fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        self.frozen.index.query_disc(center, range, &self.frozen.positions, out);
        out.retain(|&id| id != sender && !self.frozen.is_blacked_out(id, t));
    }

    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], _t: SimTime) -> f64 {
        let positions = &self.frozen.positions;
        ids.iter().map(|&id| positions[id.index()].distance(&center)).fold(0.0, f64::max)
    }

    fn schedule(&mut self, at: SimTime, ev: NetEvent<P>) -> EventId {
        let key: Key = match &ev {
            NetEvent::Timer { session, node, kind, key } => {
                (RANK_TIMER, node.0 as u64, *session as u64, *kind, *key)
            }
            NetEvent::AppSend { session, seq } => (RANK_APPSEND, *session as u64, *seq, 0, 0),
            NetEvent::MacRetry { sender, .. } => {
                let li = self.local(*sender);
                let seq = self.queue.mac_seq[li];
                self.queue.mac_seq[li] += 1;
                (RANK_MACRETRY, sender.0 as u64, seq, 0, 0)
            }
            NetEvent::HarvestWake { node } => {
                let li = self.local(*node);
                let seq = self.queue.harvest_seq[li];
                self.queue.harvest_seq[li] += 1;
                (RANK_HARVEST, node.0 as u64, seq, 0, 0)
            }
            // The only fault a core schedules is a crash's rejoin, keyed after the
            // crash's own plan entry.
            NetEvent::Fault(_, plan_idx) => (RANK_FAULT, *plan_idx, 1, 0, 0),
            NetEvent::Membership { .. } | NetEvent::Frame(_) => {
                unreachable!("churn is seeded up front and frames travel through `deliver_frame`")
            }
        };
        self.queue.events.push(at, key, ev)
    }

    fn cancel(&mut self, id: EventId) {
        self.queue.events.cancel(id);
    }

    fn copy_buffer(&mut self) -> Vec<(NodeId, bool)> {
        self.queue.tally.buffer()
    }

    /// One entry per destination shard, keyed by its first copy, so pop order stays a
    /// pure function of the frame however the stripes cut its receivers.
    fn deliver_frame(&mut self, at: SimTime, frame: Frame<P>) {
        let sender = frame.packet.sender;
        let li = self.local(sender);
        let frame_key = (RANK_DELIVER, sender.0 as u64, self.queue.tx_seq[li], 0, 0);
        self.queue.tx_seq[li] += 1;
        let shard_of = |rx: NodeId| self.layout.shard_of[rx.index()] as usize;
        let Some(&(first, _)) = frame.copies.first() else {
            self.queue.tally.recycle(frame.copies);
            return;
        };
        let dst = shard_of(first);
        if frame.copies.iter().all(|&(rx, _)| shard_of(rx) == dst) {
            self.send(at, frame_key, dst, frame);
            return;
        }
        for dst in 0..self.lanes.len() {
            let mut copies = self.queue.tally.buffer();
            copies.extend(frame.copies.iter().filter(|&&(rx, _)| shard_of(rx) == dst));
            if copies.is_empty() {
                self.queue.tally.recycle(copies);
                continue;
            }
            let part = Frame {
                session: frame.session,
                packet: frame.packet.clone(),
                tx_start: frame.tx_start,
                piggyback: frame.piggyback.clone(),
                copies,
            };
            self.send(at, frame_key, dst, part);
        }
        self.queue.tally.recycle(frame.copies);
    }

    fn take_copy(&mut self, t: SimTime, frame: &Frame<P>, next: usize) -> bool {
        let key = copy_key(self.queue.current, frame.copies[next].0);
        if self.queue.events.head_precedes(t, &key) {
            return false;
        }
        self.queue.tally.take(self.queue.events.len());
        true
    }

    fn end_frame(&mut self, t: SimTime, mut frame: Frame<P>, delivered: usize) {
        if delivered == frame.copies.len() {
            self.queue.tally.recycle(frame.copies);
            return;
        }
        // Preempted: the rest pops under its next copy's key, after the event that
        // sorts before it.
        frame.copies.drain(..delivered);
        let key = copy_key(self.queue.current, frame.copies[0].0);
        self.queue.tally.requeued();
        self.queue.events.push(t, key, NetEvent::Frame(frame));
    }
}

impl<P> ShardIo<'_, P> {
    /// Queue `frame` (copies for shard `dst` only) under its first copy's key: on this
    /// shard's queue, or in the lane to `dst`.
    fn send(&mut self, at: SimTime, frame_key: Key, dst: usize, frame: Frame<P>) {
        let key = copy_key(frame_key, frame.copies[0].0);
        if dst == self.w {
            self.queue.tally.queued(frame.copies.len());
            self.queue.events.push(at, key, NetEvent::Frame(frame));
        } else {
            plock(&self.lanes[dst][self.w]).push((at, key, frame));
            self.queue.round_lane_min = self.queue.round_lane_min.min(at.as_nanos());
        }
    }
}

/// Build the spatial partition: nodes sorted by initial `(x, y, id)` and cut into `k`
/// contiguous stripes; each stripe's owned list is then re-sorted ascending by id.
fn partition(positions: &[Vec2], k: usize) -> (Vec<Vec<u32>>, Layout) {
    let n = positions.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (positions[a as usize], positions[b as usize]);
        pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y)).then(a.cmp(&b))
    });
    let owned: Vec<Vec<u32>> = (0..k)
        .map(|w| {
            let mut ids = order[w * n / k..(w + 1) * n / k].to_vec();
            ids.sort_unstable();
            ids
        })
        .collect();
    let layout = Layout::striped(&owned, n);
    (owned, layout)
}

/// Coordinator-side work on shard `w` (workers are parked at the barrier): run `f` on
/// its core through a fabric over the frozen state, then fold the shard's new minimum
/// into its published one — accrual may schedule harvest wakes, and faults may queue
/// rejoins, timers and frames.
fn with_shard<A: ProtocolAgent, R>(
    shared: &Shared<A>,
    layout: &Layout,
    w: usize,
    f: impl FnOnce(&mut NodeCore<A>, &mut ShardIo<'_, A::Payload>) -> R,
) -> R {
    let fz = pread(&shared.frozen);
    let mut guard = plock(&shared.shards[w]);
    let Shard { core, queue, .. } = &mut *guard;
    let mut io = ShardIo { queue, frozen: &fz, lanes: &shared.lanes, layout, w };
    let out = f(core, &mut io);
    let m = io.queue.min();
    if m < shared.mins[w].load(Ordering::Acquire) {
        shared.mins[w].store(m, Ordering::Release);
    }
    out
}

/// One worker round: drain incoming lanes, process every event `≤ end`, publish the
/// new minimum.
fn run_window<A: ProtocolAgent>(w: usize, shared: &Shared<A>, layout: &Layout, end: SimTime) {
    let mut guard = plock(&shared.shards[w]);
    let Shard { core, queue } = &mut *guard;
    for lane in &shared.lanes[w] {
        for (at, key, frame) in plock(lane).drain(..) {
            queue.tally.queued(frame.copies.len());
            queue.events.push(at, key, NetEvent::Frame(frame));
        }
    }
    queue.round_lane_min = u64::MAX;
    let fz = pread(&shared.frozen);
    let mut io = ShardIo { queue, frozen: &fz, lanes: &shared.lanes, layout, w };
    while let Some((t, key, ev)) = io.queue.events.pop_due(end) {
        // Depth as it was before the pop.
        io.queue.tally.sample(io.queue.events.len() + 1);
        io.queue.tally.count_pop();
        io.queue.current = key;
        core.dispatch(&mut io, t, ev);
    }
    shared.mins[w].store(io.queue.min(), Ordering::Release);
}

/// Worker thread body: march through coordinator-published windows until told to exit.
/// A panicking round sets the shared flag and keeps honouring the barrier protocol so
/// nobody deadlocks; the coordinator re-raises the panic.
fn worker_loop<A: ProtocolAgent>(w: usize, shared: &Shared<A>, layout: &Layout) {
    loop {
        shared.barrier.wait();
        let end = shared.window_end.load(Ordering::Acquire);
        if end == DONE {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_window(w, shared, layout, SimTime::from_nanos(end));
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Release);
            shared.mins[w].store(u64::MAX, Ordering::Release);
        }
        shared.barrier.wait();
    }
}

/// Bring every shard's continuous drain up to `t` and probe the fleet over the frozen
/// topology (as an epoch probe, or as a fault notification when `fault` is set).
#[allow(clippy::too_many_arguments)]
fn observe_sharded<A: ProtocolAgent>(
    shared: &Shared<A>,
    layout: &Layout,
    t: SimTime,
    range_m: f64,
    scratch: &mut ProbeScratch,
    observer: &mut dyn StabilizationObserver,
    fault: Option<&FaultKind>,
) {
    for w in 0..shared.shards.len() {
        with_shard(shared, layout, w, |core, io| core.accrue_all(io, t));
    }
    let fz = pread(&shared.frozen);
    scratch.prime(t, || TopologySnapshot::new(fz.positions.clone(), range_m));
    let mut guards: Vec<MutexGuard<'_, Shard<A>>> = shared.shards.iter().map(plock).collect();
    let mut cores: Vec<&mut NodeCore<A>> = guards.iter_mut().map(|g| &mut g.core).collect();
    scratch.observe(&mut cores, layout, t, |n| fz.is_blacked_out(n, t), observer, fault);
}

/// Run `sim` on the sharded engine and produce its report. Called by
/// `NetworkSim::run_inner` when the setup selects a positive shard count; `sim` must
/// not have run yet.
pub(super) fn run_sharded<A: ProtocolAgent>(
    sim: &mut NetworkSim<A>,
    duration: SimDuration,
    mut probe: Option<&mut dyn StabilizationObserver>,
) -> SimReport {
    let wall = std::time::Instant::now();
    let horizon = SimTime::ZERO + duration;
    let horizon_ns = horizon.as_nanos();
    let setup = Arc::clone(&sim.setup);
    let k = setup.engine.worker_count();
    let n = setup.n_nodes;
    let delta = setup.radio.fixed_delay;
    assert!(
        k <= 1 || !delta.is_zero(),
        "the sharded engine needs a positive radio fixed_delay to bound its windows \
         (with {k} shards and zero delay, cross-shard deliveries would be instantaneous)"
    );
    let delta_minus_1 = delta.as_nanos().saturating_sub(1);
    let cell_size = setup.radio.max_range_m;

    // --- Partition and frozen topology -------------------------------------------
    let init_positions: Vec<Vec2> = sim.world.medium.positions(SimTime::ZERO).to_vec();
    let (owned, layout) = partition(&init_positions, k);
    let mut fz = Frozen {
        positions: init_positions,
        index: SpatialIndex::default(),
        blackout_until: (0..n).map(|_| AtomicU64::new(0)).collect(),
    };
    fz.index.rebuild(&fz.positions, cell_size);

    // --- One core per stripe --------------------------------------------------------
    assert_eq!(sim.cores.len(), 1, "the sharded engine runs a simulation that has not run yet");
    let all_agents = sim.cores.pop().expect("one core before the run").into_agents();
    let mut per_shard_agents: Vec<Vec<A>> = (0..k).map(|_| Vec::new()).collect();
    for (pos, agent) in all_agents.into_iter().enumerate() {
        // Session-major iteration keeps each shard's vector in `[session][local]`
        // layout: within a session, global ids arrive ascending, exactly the order of
        // the shard's ascending `owned` list.
        per_shard_agents[layout.shard_of[pos % n] as usize].push(agent);
    }
    let mut shards: Vec<Shard<A>> = owned
        .into_iter()
        .zip(per_shard_agents)
        .map(|(ids, agents)| Shard {
            queue: ShardQueue::new(ids.len()),
            core: NodeCore::new::<ShardIo<'_, A::Payload>>(&setup, ids, agents),
        })
        .collect();

    // --- Seed the event population ------------------------------------------------
    // Blackouts darken *links* (frozen state shared by all shards), so they always
    // apply on the coordinator at a synchronization point. Probed runs additionally
    // route *every* seeded fault through the coordinator: the sequential engine
    // notifies the observer after each applied fault with the state as of that fault,
    // so same-instant bursts must apply-and-observe serially, never batched. Unprobed
    // runs keep node-local faults on their owner's shard queue.
    let probed = probe.is_some();
    let mut coord_faults: Vec<(u64, u64, FaultKind)> = Vec::new();
    for (plan_idx, fe) in setup.faults.events().iter().enumerate() {
        let plan_idx = plan_idx as u64;
        if fe.at > horizon {
            continue;
        }
        if probed || matches!(fe.kind, FaultKind::Blackout { .. }) {
            coord_faults.push((fe.at.as_nanos(), plan_idx, fe.kind));
        } else {
            let w = layout.shard_of[fe.kind.node().index()] as usize;
            let key: Key = (RANK_FAULT, plan_idx, 0, 0, 0);
            shards[w].queue.events.push(fe.at, key, NetEvent::Fault(fe.kind, plan_idx));
        }
    }
    coord_faults.sort_by_key(|&(ns, pi, _)| (ns, pi));
    // Every shard replays every churn event against its own full membership replica:
    // the tables stay in lockstep without any cross-shard coordination.
    let churn = setup
        .sessions
        .iter()
        .enumerate()
        .flat_map(|(s, sess)| sess.churn.iter().map(move |ev| (s as u16, ev)));
    for (flat, (session, ev)) in churn.enumerate() {
        if ev.at <= horizon {
            for shard in &mut shards {
                shard.queue.events.push(
                    ev.at,
                    (RANK_MEMBERSHIP, flat as u64, 0, 0, 0),
                    NetEvent::Membership { session, node: ev.node, change: ev.change },
                );
            }
        }
    }
    for (s, sess) in setup.sessions.iter().enumerate() {
        if sess.traffic.start < horizon {
            let w = layout.shard_of[sess.traffic.source.index()] as usize;
            shards[w].queue.events.push(
                sess.traffic.start,
                (RANK_APPSEND, s as u64, 0, 0, 0),
                NetEvent::AppSend { session: s as u16, seq: 0 },
            );
        }
    }

    let shared = Shared {
        shards: shards.into_iter().map(Mutex::new).collect(),
        lanes: (0..k).map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect()).collect(),
        frozen: RwLock::new(fz),
        mins: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
        window_end: AtomicU64::new(0),
        barrier: Barrier::new(k + 1),
        panicked: AtomicBool::new(false),
    };

    // --- Round zero: start every agent at time zero (coordinator-side) -------------
    for w in 0..k {
        with_shard(&shared, &layout, w, |core, io| core.start_all(io));
    }

    // --- Coordinator state ----------------------------------------------------------
    let sync_window_ns = setup.engine.sync_window.as_nanos().max(1);
    let mut next_refresh = (sync_window_ns <= horizon_ns).then_some(sync_window_ns);
    let probe_epoch_ns = probe.as_deref().map(|o| probe_epoch(o).as_nanos());
    let mut next_probe = probe_epoch_ns.filter(|&e| e <= horizon_ns);
    let sample_epoch_ns = setup.sample_epoch().as_nanos();
    let mut next_sample =
        (setup.tracks_lifetime() && sample_epoch_ns <= horizon_ns).then_some(sample_epoch_ns);
    let mut fault_ptr = 0usize;
    let mut sync_rounds: u64 = 0;

    // --- Main loop: workers march through windows, coordinator owns special instants
    let NetworkSim { world, curves, probe: scratch, .. } = &mut *sim;
    let medium = &mut world.medium;
    std::thread::scope(|scope| {
        for w in 0..k {
            let (sh, lay) = (&shared, &layout);
            scope.spawn(move || worker_loop(w, sh, lay));
        }
        loop {
            if shared.panicked.load(Ordering::Acquire) {
                break;
            }
            let m = shared.mins.iter().map(|a| a.load(Ordering::Acquire)).min().unwrap_or(u64::MAX);
            let next_fault = coord_faults.get(fault_ptr).map(|f| f.0);
            let next_special = [next_refresh, next_probe, next_sample].into_iter().flatten().min();
            // Coordinator faults follow the sequential queue's fault-first rank: they
            // take effect once everything *strictly earlier* has drained — BEFORE any
            // same-instant packet/timer event, which the window bound below never
            // lets a worker touch first. In probed runs the observer is notified
            // after each applied fault with the fleet exactly as that fault left it,
            // so a same-instant burst observes per-fault — the sequential engine's
            // ordering, not a batched approximation of it.
            if let Some(ft) = next_fault {
                if m >= ft && next_special.is_none_or(|sp| ft <= sp) {
                    let t = SimTime::from_nanos(ft);
                    while coord_faults.get(fault_ptr).is_some_and(|f| f.0 == ft) {
                        let (_, plan_idx, kind) = coord_faults[fault_ptr];
                        fault_ptr += 1;
                        let w = layout.shard_of[kind.node().index()] as usize;
                        let applied = with_shard(&shared, &layout, w, |core, io| {
                            core.apply_fault(io, t, kind, plan_idx)
                        });
                        if applied && !matches!(kind, FaultKind::Rejoin { .. }) {
                            if let Some(observer) = probe.as_deref_mut() {
                                let f = Some(&kind);
                                observe_sharded(
                                    &shared, &layout, t, cell_size, scratch, observer, f,
                                );
                            }
                        }
                    }
                    continue;
                }
            }
            if let Some(sp) = next_special {
                // All events ≤ sp are drained (m > sp covers lanes too, via the
                // published round minima): the special instant is now observable.
                if m > sp {
                    let t = SimTime::from_nanos(sp);
                    if next_refresh == Some(sp) {
                        let positions = medium.positions(t);
                        let mut fzw = shared.frozen.write().unwrap_or_else(PoisonError::into_inner);
                        let Frozen { positions: fp, index, .. } = &mut *fzw;
                        fp.clear();
                        fp.extend_from_slice(positions);
                        index.rebuild(fp, cell_size);
                        drop(fzw);
                        let nr = sp.saturating_add(sync_window_ns);
                        next_refresh = (nr <= horizon_ns).then_some(nr);
                    }
                    if next_probe == Some(sp) {
                        let observer =
                            probe.as_deref_mut().expect("probe epochs exist only when probed");
                        observe_sharded(&shared, &layout, t, cell_size, scratch, observer, None);
                        let np =
                            sp.saturating_add(probe_epoch_ns.expect("epoch set with the probe"));
                        next_probe = (np <= horizon_ns).then_some(np);
                    }
                    if next_sample == Some(sp) {
                        for w in 0..k {
                            with_shard(&shared, &layout, w, |core, io| core.accrue_all(io, t));
                        }
                        let guards: Vec<_> = shared.shards.iter().map(plock).collect();
                        curves.push(
                            Fleet::new(guards.iter().map(|g| &g.core), &layout).lifetime_point(),
                        );
                        let ns2 = sp.saturating_add(sample_epoch_ns);
                        next_sample = (ns2 <= horizon_ns).then_some(ns2);
                    }
                    continue;
                }
            }
            if m > horizon_ns {
                break;
            }
            let mut b = m.saturating_add(delta_minus_1);
            if let Some(sp) = next_special {
                b = b.min(sp);
            }
            // Stop the window one tick short of the next coordinator fault so no
            // worker can process an event *at* the fault instant before it lands.
            if let Some(ft) = next_fault {
                b = b.min(ft.saturating_sub(1));
            }
            b = b.min(horizon_ns);
            shared.window_end.store(b, Ordering::Release);
            sync_rounds += 1;
            shared.barrier.wait();
            shared.barrier.wait();
        }
        shared.window_end.store(DONE, Ordering::Release);
        shared.barrier.wait();
    });
    if shared.panicked.load(Ordering::Acquire) {
        panic!("sharded engine: a worker thread panicked");
    }

    // --- Tear down: accrue to the horizon, hand the cores to `sim`, report -----------
    for w in 0..k {
        with_shard(&shared, &layout, w, |core, io| core.accrue_all(io, horizon));
    }
    let Shared { shards, frozen, .. } = shared;
    let fz = frozen.into_inner().unwrap_or_else(PoisonError::into_inner);
    for (i, until) in fz.blackout_until.into_iter().enumerate() {
        let until = until.into_inner();
        if until > 0 {
            sim.world.medium.set_blackout(NodeId(i as u32), SimTime::from_nanos(until));
        }
    }
    let shards: Vec<Shard<A>> = shards
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let counts: Vec<u64> = shards.iter().map(|s| s.queue.tally.processed).collect();
    let peak = shards.iter().map(|s| s.queue.tally.peak).max().unwrap_or(0);
    sim.shard_events = counts.iter().sum();
    sim.cores = shards.into_iter().map(|s| s.core).collect();
    sim.layout = layout;
    let mut report = sim.report(duration);
    if setup.engine.stats {
        let wall_s = wall.elapsed().as_secs_f64();
        report.engine = Some(EngineStats::from_counts(k as u32, counts, peak, sync_rounds, wall_s));
    }
    attach_convergence(&mut report, horizon, probe);
    report
}
