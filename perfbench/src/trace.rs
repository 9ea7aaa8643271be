//! Tracing from outside the engine: delegating wrappers around the agents, the mobility
//! processes, the stabilization probe and the `Protocol` factories.
//!
//! Each wrapper keeps its counts in plain fields of its own (one wrapper per node, so
//! there is no shared lock on the hot path) and adds them into the run's [`Tally`] when
//! it is dropped. A shared lock there would be taken on every `position_at` call, and
//! exact physics makes tens of millions of those per run (once per node per broadcast).
//!
//! Mobility calls are all counted but only every [`MOBILITY_SAMPLE`]-th one is timed:
//! a call costs less than reading the clock, so timing every call would about double
//! an SS-SPST-E run. Each timed call is paired with an empty interval measured next to
//! it, whose sum is taken off; the other layers' calls are long, and have the calibrated
//! cost of one clock read taken off their summed time once per interval.

use ssmcast::dessim::{SimDuration, SimTime};
use ssmcast::manet::{
    BoxedMobility, DataTag, Disposition, FaultKind, Mobility, NodeCtx, NodeId, Packet,
    ProbeContext, ProtocolAgent, SimReport, SimSetup, StabilizationObserver, Vec2,
};
use ssmcast::metrics::ConvergenceStats;
use ssmcast::scenario::{Protocol, Scenario};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One in this many `position_at` calls is timed.
pub const MOBILITY_SAMPLE: u64 = 32;

/// Median cost of one `Instant::now()` pair, which every measured interval includes.
pub fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

fn since_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A coarse span: set-up phases, a run, a probe epoch or a campaign job.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the span covers (`setup.build_setup`, `run`, `probe.epoch`, `job`, ...).
    pub name: &'static str,
    /// The measured operation the span belongs to.
    pub op: usize,
    /// The job's (cell, rep) in a campaign grid; `(0, 0)` for a single run.
    pub job: (usize, usize),
    /// Offset from the start of the benchmark, seconds.
    pub start_s: f64,
    /// Offset from the start of the benchmark, seconds.
    pub end_s: f64,
    /// The enclosing span's name (`""` at the top).
    pub parent: &'static str,
}

impl Span {
    /// One JSON object per span, for the spans file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"op\":{},\"cell\":{},\"rep\":{},\"start_s\":{},\"end_s\":{},\"parent\":\"{}\"}}",
            self.name, self.op, self.job.0, self.job.1, self.start_s, self.end_s, self.parent
        )
    }
}

/// The instant every span offset is measured from.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Seconds from [`origin`] to `t`.
pub fn offset_s(t: Instant) -> f64 {
    t.saturating_duration_since(origin()).as_secs_f64()
}

/// Per-layer counts and times of one measured operation, summed over every wrapper.
#[derive(Default, Debug)]
pub struct Tally {
    rx_calls: AtomicU64,
    rx_consumed: AtomicU64,
    rx_ns: AtomicU64,
    timer_calls: AtomicU64,
    timer_ns: AtomicU64,
    other_agent_calls: AtomicU64,
    other_agent_ns: AtomicU64,
    mobility_calls: AtomicU64,
    mobility_timed: AtomicU64,
    mobility_timed_ns: AtomicU64,
    mobility_empty_ns: AtomicU64,
    probe_epochs: AtomicU64,
    probe_epoch_ns: AtomicU64,
    probe_faults: AtomicU64,
    probe_fault_ns: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A snapshot of a [`Tally`] once every wrapper feeding it has been dropped.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Counts {
    /// `on_packet` callbacks.
    pub rx_calls: u64,
    /// `on_packet` callbacks that returned [`Disposition::Consumed`].
    pub rx_consumed: u64,
    /// Time in `on_packet`, seconds.
    pub rx_s: f64,
    /// `on_timer` callbacks.
    pub timer_calls: u64,
    /// Time in `on_timer`, seconds.
    pub timer_s: f64,
    /// Time in the other agent callbacks (start, app data, corruption), seconds.
    pub other_agent_s: f64,
    /// `position_at` calls.
    pub mobility_calls: u64,
    /// Time in `position_at`, seconds, estimated from the timed sample.
    pub mobility_s: f64,
    /// Probe epochs observed.
    pub probe_epochs: u64,
    /// Time in the probe's epoch handler, seconds.
    pub probe_epoch_s: f64,
    /// Faults the probe was notified of.
    pub probe_faults: u64,
    /// Time in the probe's fault handler, seconds.
    pub probe_fault_s: f64,
}

impl Counts {
    /// Time spent in the wrapped layers, which the engine's self time excludes.
    pub fn child_s(&self) -> f64 {
        self.rx_s
            + self.timer_s
            + self.other_agent_s
            + self.mobility_s
            + self.probe_epoch_s
            + self.probe_fault_s
    }
}

/// Seconds in `intervals` measured intervals summing to `ns`, clock cost removed.
fn net_s(ns: u64, intervals: u64) -> f64 {
    ns.saturating_sub(intervals * clock_overhead_ns()) as f64 * 1e-9
}

impl Tally {
    /// A fresh tally, shared by every wrapper of one operation.
    pub fn new() -> Arc<Tally> {
        Arc::new(Tally::default())
    }

    fn add(counter: &AtomicU64, v: u64) {
        // Plain statistics read after every wrapper is dropped: no ordering needed.
        counter.fetch_add(v, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Record a coarse span.
    pub fn span(&self, span: Span) {
        self.spans.lock().expect("a wrapper panicked while holding the span list").push(span);
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a wrapper panicked while holding the span list").clone()
    }

    /// The counts, once every wrapper has been dropped.
    pub fn counts(&self) -> Counts {
        let get = Self::get;
        let timed = get(&self.mobility_timed);
        let calls = get(&self.mobility_calls);
        let mobility_s = if timed == 0 {
            0.0
        } else {
            let net = get(&self.mobility_timed_ns).saturating_sub(get(&self.mobility_empty_ns));
            net as f64 * 1e-9 * calls as f64 / timed as f64
        };
        let (rx_calls, timer_calls) = (get(&self.rx_calls), get(&self.timer_calls));
        let (probe_epochs, probe_faults) = (get(&self.probe_epochs), get(&self.probe_faults));
        Counts {
            rx_calls,
            rx_consumed: get(&self.rx_consumed),
            rx_s: net_s(get(&self.rx_ns), rx_calls),
            timer_calls,
            timer_s: net_s(get(&self.timer_ns), timer_calls),
            other_agent_s: net_s(get(&self.other_agent_ns), get(&self.other_agent_calls)),
            mobility_calls: calls,
            mobility_s,
            probe_epochs,
            probe_epoch_s: net_s(get(&self.probe_epoch_ns), probe_epochs),
            probe_faults,
            probe_fault_s: net_s(get(&self.probe_fault_ns), probe_faults),
        }
    }
}

/// A delegating [`ProtocolAgent`] that counts and times its callbacks.
pub struct TimedAgent<A> {
    inner: A,
    tally: Arc<Tally>,
    rx_calls: u64,
    rx_consumed: u64,
    rx_ns: u64,
    timer_calls: u64,
    timer_ns: u64,
    other_calls: u64,
    other_ns: u64,
}

impl<A> TimedAgent<A> {
    /// Wrap `inner`, reporting into `tally` when dropped.
    pub fn new(inner: A, tally: Arc<Tally>) -> Self {
        TimedAgent {
            inner,
            tally,
            rx_calls: 0,
            rx_consumed: 0,
            rx_ns: 0,
            timer_calls: 0,
            timer_ns: 0,
            other_calls: 0,
            other_ns: 0,
        }
    }
}

impl<A> Drop for TimedAgent<A> {
    fn drop(&mut self) {
        let t = &self.tally;
        Tally::add(&t.rx_calls, self.rx_calls);
        Tally::add(&t.rx_consumed, self.rx_consumed);
        Tally::add(&t.rx_ns, self.rx_ns);
        Tally::add(&t.timer_calls, self.timer_calls);
        Tally::add(&t.timer_ns, self.timer_ns);
        Tally::add(&t.other_agent_calls, self.other_calls);
        Tally::add(&t.other_agent_ns, self.other_ns);
    }
}

impl<A> TimedAgent<A> {
    fn other(&mut self, start: Instant) {
        self.other_ns += since_ns(start);
        self.other_calls += 1;
    }
}

impl<A: ProtocolAgent> ProtocolAgent for TimedAgent<A> {
    type Payload = A::Payload;

    fn start(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>) {
        let t = Instant::now();
        self.inner.start(ctx);
        self.other(t);
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Payload>,
        packet: &Packet<Self::Payload>,
    ) -> Disposition {
        let t = Instant::now();
        let disposition = self.inner.on_packet(ctx, packet);
        self.rx_ns += since_ns(t);
        self.rx_calls += 1;
        if disposition == Disposition::Consumed {
            self.rx_consumed += 1;
        }
        disposition
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>, kind: u64, key: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, kind, key);
        self.timer_ns += since_ns(t);
        self.timer_calls += 1;
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>, tag: DataTag, size_bytes: u32) {
        let t = Instant::now();
        self.inner.on_app_data(ctx, tag, size_bytes);
        self.other(t);
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn tree_parent(&self) -> Option<NodeId> {
        self.inner.tree_parent()
    }

    fn corrupt_state(&mut self, rng: &mut rand::rngs::StdRng) {
        let t = Instant::now();
        self.inner.corrupt_state(rng);
        self.other(t);
    }

    fn on_corrupted(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>) {
        let t = Instant::now();
        self.inner.on_corrupted(ctx);
        self.other(t);
    }
}

/// A delegating [`Mobility`] that counts every call and times a fixed sample of them.
pub struct TimedMobility {
    inner: BoxedMobility,
    tally: Arc<Tally>,
    calls: u64,
    timed: u64,
    timed_ns: u64,
    empty_ns: u64,
}

impl TimedMobility {
    /// Wrap every process of `mobility`, reporting into `tally`.
    pub fn wrap_all(mobility: Vec<BoxedMobility>, tally: &Arc<Tally>) -> Vec<BoxedMobility> {
        mobility
            .into_iter()
            .map(|inner| {
                Box::new(TimedMobility {
                    inner,
                    tally: Arc::clone(tally),
                    calls: 0,
                    timed: 0,
                    timed_ns: 0,
                    empty_ns: 0,
                }) as BoxedMobility
            })
            .collect()
    }
}

impl Drop for TimedMobility {
    fn drop(&mut self) {
        Tally::add(&self.tally.mobility_calls, self.calls);
        Tally::add(&self.tally.mobility_timed, self.timed);
        Tally::add(&self.tally.mobility_timed_ns, self.timed_ns);
        Tally::add(&self.tally.mobility_empty_ns, self.empty_ns);
    }
}

impl Mobility for TimedMobility {
    fn position_at(&mut self, t: SimTime) -> Vec2 {
        self.calls += 1;
        if !self.calls.is_multiple_of(MOBILITY_SAMPLE) {
            return self.inner.position_at(t);
        }
        // A call costs about as much as a clock read, so the clock's cost is measured
        // here, in the same surroundings, rather than taken from the calibration.
        let empty = Instant::now();
        self.empty_ns += since_ns(empty);
        let start = Instant::now();
        let p = self.inner.position_at(t);
        self.timed_ns += since_ns(start);
        self.timed += 1;
        p
    }
}

/// A delegating [`StabilizationObserver`] that times the probe's handlers and records
/// one span per probe epoch.
pub struct TimedProbe<O> {
    inner: O,
    tally: Arc<Tally>,
    op: usize,
}

impl<O> TimedProbe<O> {
    /// Wrap `inner`, reporting into `tally` as part of operation `op`.
    pub fn new(inner: O, tally: Arc<Tally>, op: usize) -> Self {
        TimedProbe { inner, tally, op }
    }
}

impl<O: StabilizationObserver> StabilizationObserver for TimedProbe<O> {
    fn probe_epoch(&self) -> SimDuration {
        self.inner.probe_epoch()
    }

    fn on_epoch(&mut self, ctx: &ProbeContext<'_>) {
        let t = Instant::now();
        self.inner.on_epoch(ctx);
        Tally::add(&self.tally.probe_epoch_ns, since_ns(t));
        Tally::add(&self.tally.probe_epochs, 1);
        self.tally.span(Span {
            name: "probe.epoch",
            op: self.op,
            job: (0, 0),
            start_s: offset_s(t),
            end_s: offset_s(Instant::now()),
            parent: "run",
        });
    }

    fn on_fault(&mut self, kind: &FaultKind, ctx: &ProbeContext<'_>) {
        let t = Instant::now();
        self.inner.on_fault(kind, ctx);
        Tally::add(&self.tally.probe_fault_ns, since_ns(t));
        Tally::add(&self.tally.probe_faults, 1);
    }

    fn finish(&mut self, end: SimTime) -> Option<ConvergenceStats> {
        self.inner.finish(end)
    }

    fn session_stats(&self) -> Vec<ConvergenceStats> {
        self.inner.session_stats()
    }

    fn session_recovering(&self, session: usize) -> bool {
        self.inner.session_recovering(session)
    }
}

/// One finished campaign job.
#[derive(Clone, Copy, Debug)]
pub struct JobRecord {
    /// Grid cell (`xi × protocols + pi`).
    pub cell: usize,
    /// Repetition.
    pub rep: usize,
    /// Job latency, set-up included (wall time).
    pub latency: Duration,
    /// CPU time the worker spent on the job, set-up included.
    pub cpu: Duration,
    /// Time inside `Protocol::run`: agents, `NetworkSim::new` and the run.
    pub run: Duration,
}

/// State shared by the [`TimedProtocol`]s of one campaign operation.
pub struct JobClock {
    id: u64,
    start: Instant,
    /// `(seed, xi, rep)` for every job of the grid.
    seeds: Vec<(u64, usize, usize)>,
    n_protocols: usize,
    jobs: Mutex<Vec<JobRecord>>,
    /// The traced operation's tally and number.
    trace: Option<(Arc<Tally>, usize)>,
}

thread_local! {
    /// `(operation id, end of this worker's last job, the worker's CPU clock then)`.
    static LAST_JOB_END: Cell<Option<(u64, Instant, Duration)>> = const { Cell::new(None) };
}

impl JobClock {
    /// A clock for one operation on a grid whose jobs have the given `(seed, xi, rep)`.
    /// When the operation is traced, the protocols wrap each job's mobility and record
    /// job spans into its tally.
    pub fn start(
        seeds: Vec<(u64, usize, usize)>,
        n_protocols: usize,
        trace: Option<(Arc<Tally>, usize)>,
    ) -> Arc<JobClock> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Arc::new(JobClock {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            seeds,
            n_protocols,
            jobs: Mutex::new(Vec::new()),
            trace,
        })
    }

    /// The finished jobs, in completion order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.jobs.lock().expect("a job panicked while holding the job list").clone()
    }
}

/// A delegating [`Protocol`] that times each job it runs for `Experiment`.
///
/// `Experiment` builds a job's set-up before calling `run`, on the same worker thread
/// that finished the previous job, so a job starts where that worker's previous job
/// ended (or where the grid started) and its latency includes its set-up. Its CPU time
/// is counted the same way on the worker's CPU clock; `Experiment` runs each grid on
/// threads of its own, so a worker's clock starts with the grid.
pub struct TimedProtocol {
    inner: Arc<dyn Protocol>,
    pi: usize,
    clock: Arc<JobClock>,
}

impl TimedProtocol {
    /// Wrap protocol number `pi` of the grid.
    pub fn wrap(inner: Arc<dyn Protocol>, pi: usize, clock: &Arc<JobClock>) -> Arc<dyn Protocol> {
        Arc::new(TimedProtocol { inner, pi, clock: Arc::clone(clock) })
    }
}

impl Protocol for TimedProtocol {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario, setup: SimSetup, mobility: Vec<BoxedMobility>) -> SimReport {
        let clock = &self.clock;
        let entry = Instant::now();
        let (start, cpu_start) = LAST_JOB_END.with(|last| match last.get() {
            Some((id, end, cpu)) if id == clock.id => (end, cpu),
            _ => (clock.start, Duration::ZERO),
        });
        let mobility = match &clock.trace {
            Some((tally, _)) => TimedMobility::wrap_all(mobility, tally),
            None => mobility,
        };
        let report = self.inner.run(scenario, setup, mobility);
        let (end, cpu_end) = (Instant::now(), crate::cpu::thread());
        LAST_JOB_END.with(|last| last.set(Some((clock.id, end, cpu_end))));
        let (xi, rep) = clock
            .seeds
            .iter()
            .find(|(seed, _, _)| *seed == scenario.seed)
            .map(|&(_, xi, rep)| (xi, rep))
            .expect("every job's seed is one of the grid's");
        let cell = xi * clock.n_protocols + self.pi;
        if let Some((tally, op)) = &clock.trace {
            tally.span(Span {
                name: "job",
                op: *op,
                job: (cell, rep),
                start_s: offset_s(start),
                end_s: offset_s(end),
                parent: "campaign",
            });
        }
        let record = JobRecord {
            cell,
            rep,
            latency: end - start,
            cpu: cpu_end - cpu_start,
            run: end - entry,
        };
        clock.jobs.lock().expect("a job panicked while holding the job list").push(record);
        report
    }
}
