//! One operation of a workload, run through the simulator's public API with the set-up
//! timed apart from the run, and the checks on its outputs.
//!
//! A single-run operation rebuilds what `run_protocol` does (set-up, mobility, one agent
//! per (session, node), `NetworkSim::new`, then `run` or `run_probed`) so the set-up
//! phases can be timed one by one. A campaign operation is one `Experiment` grid. The
//! fidelity tests hold both to the reports `run_protocol` and `Experiment` produce.
//!
//! Set-up phases and runs are timed on CPU clocks ([`crate::cpu`]); the wall time of a
//! run is kept beside it for the traced run's spans and per-layer times.

use crate::cpu;
use crate::trace::{JobClock, JobRecord, Span, Tally, TimedAgent, TimedMobility, TimedProbe};
use crate::workload::Campaign;
use ssmcast::core::StabilizationProbe;
use ssmcast::dessim::{SeedSequence, SimDuration};
use ssmcast::manet::{NetworkSim, NodeId, ProtocolAgent, SimReport};
use ssmcast::scenario::{
    build_mobility, build_setup, Experiment, FnProtocol, Protocol, Scenario, SweepCell,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CPU time of each set-up phase of one simulation (set-up runs on one thread).
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `build_setup`: roles, traffic, churn and the fault plan.
    pub build_setup: Duration,
    /// `build_mobility`: one mobility process per node.
    pub build_mobility: Duration,
    /// One agent per (session, node).
    pub agents: Duration,
    /// `NetworkSim::new`.
    pub sim_new: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.build_setup + self.build_mobility + self.agents + self.sim_new
    }
}

/// What one operation produced.
#[derive(Debug)]
pub struct OpOutcome {
    /// Set-up phase times of a single run (a campaign's jobs set up inside the grid).
    pub setup: Option<SetupTimes>,
    /// CPU time of the run (single runs) or of the whole grid (campaign), summed over
    /// the threads that ran it.
    pub run: Duration,
    /// Wall time of the same run or grid.
    pub wall: Duration,
    /// Campaign jobs; empty for a single run.
    pub jobs: Vec<JobRecord>,
    /// Digest of the serialized reports, run-dependent fields left out ([`report_bytes`]).
    pub digest: u64,
    /// The reports, in grid order for a campaign.
    pub reports: Vec<SimReport>,
    /// The first broken invariant, if any.
    pub invariant: Result<(), String>,
}

/// Run one single-run operation: build, run and check a simulation of `scenario`.
///
/// Traced operations wrap the agents, the mobility processes and the probe; their
/// reports must equal the untraced ones byte for byte.
pub fn single_op<A, F>(
    scenario: &Scenario,
    make_agent: F,
    trace: Option<(&Arc<Tally>, usize)>,
) -> OpOutcome
where
    A: ProtocolAgent + 'static,
    F: Fn(&Scenario) -> A,
{
    match trace {
        None => {
            let (mut sim, setup) = build(scenario, |s| make_agent(s), None);
            let (t, c) = (Instant::now(), cpu::process());
            let report = run_sim(&mut sim, scenario, None);
            let (run, wall) = (cpu::process() - c, t.elapsed());
            finish_single(&sim, scenario.n_nodes, report, setup, run, wall)
        }
        Some((tally, op)) => {
            let setup_start = Instant::now();
            let (mut sim, setup) =
                build(scenario, |s| TimedAgent::new(make_agent(s), Arc::clone(tally)), Some(tally));
            let (t, c) = (Instant::now(), cpu::process());
            let report = run_sim(&mut sim, scenario, Some((tally, op)));
            let (run, wall) = (cpu::process() - c, t.elapsed());
            record_single_spans(tally, op, setup_start, t, setup, wall);
            finish_single(&sim, scenario.n_nodes, report, setup, run, wall)
        }
    }
}

fn build<A, F>(
    scenario: &Scenario,
    make_agent: F,
    tally: Option<&Arc<Tally>>,
) -> (NetworkSim<A>, SetupTimes)
where
    A: ProtocolAgent,
    F: Fn(&Scenario) -> A,
{
    let seeds = SeedSequence::new(scenario.seed);
    let t0 = cpu::thread();
    let setup = build_setup(scenario, seeds);
    let t1 = cpu::thread();
    let mut mobility = build_mobility(scenario, &seeds);
    if let Some(tally) = tally {
        mobility = TimedMobility::wrap_all(mobility, tally);
    }
    let t2 = cpu::thread();
    let mut agents = Vec::with_capacity(setup.n_sessions() * scenario.n_nodes);
    for _session in 0..setup.n_sessions() {
        for _node in 0..scenario.n_nodes {
            agents.push(make_agent(scenario));
        }
    }
    let t3 = cpu::thread();
    let sim = NetworkSim::new(setup, mobility, agents);
    let t4 = cpu::thread();
    let times = SetupTimes {
        build_setup: t1 - t0,
        build_mobility: t2 - t1,
        agents: t3 - t2,
        sim_new: t4 - t3,
    };
    (sim, times)
}

/// Time only the set-up of a simulation of `scenario` (the simulation is dropped).
pub fn setup_only<A, F>(scenario: &Scenario, make_agent: F) -> SetupTimes
where
    A: ProtocolAgent,
    F: Fn(&Scenario) -> A,
{
    build(scenario, make_agent, None).1
}

/// Run the way the protocol registry does: probed when the scenario injects faults or
/// has group dynamics, plain otherwise.
fn run_sim<A: ProtocolAgent>(
    sim: &mut NetworkSim<A>,
    scenario: &Scenario,
    trace: Option<(&Arc<Tally>, usize)>,
) -> SimReport {
    let horizon = SimDuration::from_secs_f64(scenario.duration_s);
    if !(scenario.faults.has_faults() || scenario.has_group_dynamics()) {
        return sim.run(horizon);
    }
    let epoch = SimDuration::from_secs_f64(scenario.faults.probe_epoch_s.max(0.05));
    let probe = StabilizationProbe::new(epoch);
    match trace {
        None => sim.run_probed(horizon, &mut { probe }),
        Some((tally, op)) => {
            sim.run_probed(horizon, &mut TimedProbe::new(probe, Arc::clone(tally), op))
        }
    }
}

/// Spans of a single run. The set-up phases are laid end to end from the set-up's
/// start by their CPU times.
fn record_single_spans(
    tally: &Tally,
    op: usize,
    setup_start: Instant,
    run_start: Instant,
    setup: SetupTimes,
    run: Duration,
) {
    let phases = [
        ("setup.build_setup", setup.build_setup),
        ("setup.build_mobility", setup.build_mobility),
        ("setup.agents", setup.agents),
        ("setup.sim_new", setup.sim_new),
    ];
    let mut at = setup_start;
    for (name, d) in phases {
        tally.span(span(name, op, (0, 0), at, at + d, "setup"));
        at += d;
    }
    tally.span(span("setup", op, (0, 0), setup_start, run_start, "op"));
    tally.span(span("run", op, (0, 0), run_start, run_start + run, "op"));
}

fn span(
    name: &'static str,
    op: usize,
    job: (usize, usize),
    start: Instant,
    end: Instant,
    parent: &'static str,
) -> Span {
    use crate::trace::offset_s;
    Span { name, op, job, start_s: offset_s(start), end_s: offset_s(end), parent }
}

fn finish_single<A: ProtocolAgent>(
    sim: &NetworkSim<A>,
    n: usize,
    report: SimReport,
    setup: SetupTimes,
    run: Duration,
    wall: Duration,
) -> OpOutcome {
    let invariant = check_energy(sim, n, &report).and_then(|()| check_report(&report));
    OpOutcome {
        setup: Some(setup),
        run,
        wall,
        jobs: Vec::new(),
        digest: digest([&report]),
        reports: vec![report],
        invariant,
    }
}

/// The campaign's protocols, each wrapped to time its jobs.
///
/// Untraced operations run the registry's built-in factories. Traced ones rebuild each
/// factory from public constructors with timed agents, since the built-in factories
/// construct their agents out of reach.
fn campaign_protocols(
    campaign: &Campaign,
    clock: &Arc<JobClock>,
    tally: Option<&Arc<Tally>>,
) -> Vec<Arc<dyn Protocol>> {
    campaign
        .spec
        .protocols
        .iter()
        .enumerate()
        .map(|(pi, &kind)| {
            let inner: Arc<dyn Protocol> = match tally {
                None => kind.to_protocol(),
                Some(tally) => {
                    let tally = Arc::clone(tally);
                    crate::with_agent_fn!(kind, make => Arc::new(FnProtocol::from_agent_fn(
                        kind.name(),
                        move |s: &Scenario, _node: NodeId| {
                            TimedAgent::new(make(s), Arc::clone(&tally))
                        },
                    )))
                }
            };
            crate::trace::TimedProtocol::wrap(inner, pi, clock)
        })
        .collect()
}

/// `(seed, xi, rep)` of every job in the grid.
pub fn campaign_seeds(campaign: &Campaign) -> Vec<(u64, usize, usize)> {
    (0..campaign.spec.xs.len())
        .flat_map(|xi| (0..campaign.reps).map(move |rep| (xi, rep)))
        .map(|(xi, rep)| (campaign.job_scenario(xi, rep).seed, xi, rep))
        .collect()
}

/// Run the grid through `Experiment` on `threads` workers.
fn run_grid(
    campaign: &Campaign,
    protocols: Vec<Arc<dyn Protocol>>,
    threads: usize,
) -> Vec<SweepCell> {
    Experiment::new(campaign.base)
        .protocols(protocols)
        .sweep(campaign.spec.swept, campaign.spec.xs.clone())
        .reps(campaign.reps)
        .threads(threads)
        .run()
}

/// Run one campaign operation: the whole grid, timed job by job.
pub fn campaign_op(
    campaign: &Campaign,
    threads: usize,
    trace: Option<(&Arc<Tally>, usize)>,
) -> OpOutcome {
    let trace = trace.map(|(tally, op)| (Arc::clone(tally), op));
    let clock =
        JobClock::start(campaign_seeds(campaign), campaign.spec.protocols.len(), trace.clone());
    let protocols = campaign_protocols(campaign, &clock, trace.as_ref().map(|(t, _)| t));
    let (t, c) = (Instant::now(), cpu::process());
    let cells = run_grid(campaign, protocols, threads);
    let (run, wall) = (cpu::process() - c, t.elapsed());
    if let Some((tally, op)) = &trace {
        tally.span(span("campaign", *op, (0, 0), t, t + wall, "op"));
    }
    let reports: Vec<SimReport> = cells.into_iter().flat_map(|c| c.reports).collect();
    let invariant = reports.iter().try_for_each(check_report);
    let jobs = clock.jobs();
    OpOutcome { setup: None, run, wall, jobs, digest: digest(&reports), reports, invariant }
}

/// The energy the batteries consumed must be the report's total.
fn check_energy<A: ProtocolAgent>(
    sim: &NetworkSim<A>,
    n: usize,
    report: &SimReport,
) -> Result<(), String> {
    let consumed: f64 = (0..n).map(|i| sim.battery(NodeId(i as u32)).consumed()).sum();
    let total = report.total_energy_j;
    if (consumed - total).abs() > 1e-9 * total.abs().max(1.0) {
        return Err(format!("batteries consumed {consumed} J but the report says {total} J"));
    }
    Ok(())
}

/// Invariants every report must hold.
pub fn check_report(report: &SimReport) -> Result<(), String> {
    if !(0.0..=1.0).contains(&report.pdr) {
        return Err(format!("pdr {} is outside [0, 1]", report.pdr));
    }
    if report.delivered > report.expected_deliveries {
        return Err(format!(
            "delivered {} exceeds the expected {}",
            report.delivered, report.expected_deliveries
        ));
    }
    if !(report.total_energy_j.is_finite() && report.total_energy_j >= 0.0) {
        return Err(format!("total energy {} J is not a finite amount", report.total_energy_j));
    }
    Ok(())
}

/// The serialized report with the fields that differ between runs of the same inputs
/// zeroed: the wall-clock `engine.events_per_sec` and, on the sharded engine,
/// `engine.peak_queue_depth`, which depends on how the shard threads interleave.
pub fn report_bytes(report: &SimReport) -> String {
    let mut report = report.clone();
    if let Some(engine) = report.engine.as_mut() {
        engine.events_per_sec = 0.0;
        if engine.shards > 0 {
            engine.peak_queue_depth = 0;
        }
    }
    serde_json::to_string(&report).expect("reports serialize")
}

/// 64-bit FNV-1a over the reports' bytes, in order, each followed by a newline.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for report in reports {
        for b in report_bytes(report).bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
