//! The five benchmark workloads: their scenarios and the agents each one runs.
//!
//! A workload is built from the seed alone, so the same seed gives the same inputs; the
//! simulator only ever sees the resulting [`Scenario`]. Every scenario turns on the
//! engine's and the MAC's stats blocks, which supply the per-layer counts.

use ssmcast::core::{MetricKind, MetricParams, SsSpstConfig};
use ssmcast::dessim::SimDuration;
use ssmcast::manet::MediumConfig;
use ssmcast::scenario::{
    base_scenario_for, FaultPlanSpec, FigureId, FigureSpec, MacConfig, ProtocolKind, Scenario,
};

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Blind flooding at n = 2000 for 15 s on the sequential engine.
    FloodN2k,
    /// Blind flooding at n = 10 000 for 3 s on the sequential engine. Not in
    /// `BENCHMARK.json`: its resident set sits in the host's shared L3, and its CPU time
    /// swung twofold over minutes on a shared host (see `NOTES.md`). It is the
    /// sequential baseline of the sharded flood.
    FloodN10k,
    /// The same flood on the sharded engine with 2 shards. Not in `BENCHMARK.json`: its
    /// wall time swings several-fold with the host's load (see `NOTES.md`), so it is
    /// run by hand, over many repetitions.
    FloodN10kShards2,
    /// SS-SPST-E at n = 1000 under faults, churn and CSMA, with the probe running.
    SsSpstEFaults,
    /// The Figure 14 grid through `Experiment`.
    Fig14Campaign,
}

/// Full size is what the benchmark measures; reduced size keeps every feature of the
/// workload but runs in well under a second, for the fidelity tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small copy for tests.
    Reduced,
}

/// Worker threads `Experiment` runs the campaign on.
pub const CAMPAIGN_THREADS: usize = 2;

impl Workload {
    /// Every workload: those `BENCHMARK.json` lists, in its order, then the two floods
    /// at n = 10 000.
    pub const ALL: [Workload; 5] = [
        Workload::FloodN2k,
        Workload::SsSpstEFaults,
        Workload::Fig14Campaign,
        Workload::FloodN10k,
        Workload::FloodN10kShards2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodN2k => "flood_n2k",
            Workload::FloodN10k => "flood_n10k",
            Workload::FloodN10kShards2 => "flood_n10k_shards2",
            Workload::SsSpstEFaults => "ss_spst_e_faults",
            Workload::Fig14Campaign => "fig14_campaign",
        }
    }

    /// The workload with this name, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario of a single-run workload (`None` for the campaign, see [`campaign`]).
    pub fn scenario(self, seed: u64, size: Size) -> Option<Scenario> {
        let reduced = size == Size::Reduced;
        let s = match self {
            Workload::FloodN2k if reduced => flood(600, 3.0),
            Workload::FloodN2k => flood(2_000, 15.0),
            Workload::FloodN10k => flood(if reduced { 600 } else { 10_000 }, 3.0),
            Workload::FloodN10kShards2 => {
                flood(if reduced { 600 } else { 10_000 }, 3.0).with_shards(2)
            }
            Workload::SsSpstEFaults => ss_spst_e_faults(if reduced { 100 } else { 1_000 }),
            Workload::Fig14Campaign => return None,
        };
        Some(with_stats(s, seed))
    }

    /// Threads the workload runs on: the engine's shards (1 for the sequential engine),
    /// or the campaign's `Experiment` workers.
    pub fn threads(self) -> usize {
        match self {
            Workload::FloodN10kShards2 => 2,
            Workload::Fig14Campaign => CAMPAIGN_THREADS,
            _ => 1,
        }
    }
}

/// The `large_flood` example's scaled scenario: blind flooding at constant density
/// (≈ 13 neighbours at 250 m), `duration_s` simulated, positions cached per 200 ms
/// epoch.
fn flood(n: usize, duration_s: f64) -> Scenario {
    let mut s = Scenario::paper_default();
    s.n_nodes = n;
    s.area_side_m = 4_200.0 * (n as f64 / 1_200.0).sqrt();
    s.group_size = 50;
    s.duration_s = duration_s;
    s.warmup_s = 0.5;
    s.max_speed_mps = 10.0;
    s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
    s
}

/// SS-SPST-E at the paper's density (750 m side per 50 nodes), 60 s simulated, exact
/// physics, 2 churning sessions, a stress fault plan in [10 s, 48 s] and CSMA.
fn ss_spst_e_faults(n: usize) -> Scenario {
    let mut s = Scenario::paper_default();
    s.n_nodes = n;
    s.area_side_m = 750.0 * (n as f64 / 50.0).sqrt();
    s.duration_s = 60.0;
    s.with_groups(2)
        .with_churn_rate(0.05)
        .with_faults(FaultPlanSpec::stress(10.0, 48.0))
        .with_mac(MacConfig::csma())
}

fn with_stats(mut s: Scenario, seed: u64) -> Scenario {
    s.engine = s.engine.with_stats();
    s.mac = s.mac.with_stats();
    s.seed = seed;
    s
}

/// The Figure 14 campaign: the figure's grid, its base scenario and the repetitions.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The figure's swept parameter, x values and protocols.
    pub spec: FigureSpec,
    /// Base scenario every column is derived from.
    pub base: Scenario,
    /// Repetitions per cell.
    pub reps: usize,
}

impl Campaign {
    /// Jobs in the grid: protocols × x values × repetitions.
    pub fn jobs(&self) -> usize {
        self.spec.protocols.len() * self.spec.xs.len() * self.reps
    }

    /// The scenario `Experiment` runs for column `xi`, repetition `rep`.
    pub fn job_scenario(&self, xi: usize, rep: usize) -> Scenario {
        let mut s = self.base;
        self.spec.swept.apply(&mut s, self.spec.xs[xi]);
        s.seed = ssmcast::scenario::derive_cell_seed(s.seed, rep, xi);
        s
    }
}

/// Figure 14 at half the harness's run length with 5 repetitions (100 jobs), or a
/// single repetition at the 30 s minimum for tests.
pub fn campaign(seed: u64, size: Size) -> Campaign {
    let spec = FigureId::Fig14.spec();
    let mut base = base_scenario_for(&spec);
    let (scale, reps) = match size {
        Size::Full => (0.5, 5),
        Size::Reduced => (0.0, 1),
    };
    base.duration_s = (base.duration_s * scale).max(30.0);
    Campaign { base: with_stats(base, seed), spec, reps }
}

/// The SS-SPST configuration a scenario implies, rebuilt from public constructors the
/// way the protocol registry builds it.
pub fn ss_spst_config(scenario: &Scenario, kind: MetricKind) -> SsSpstConfig {
    SsSpstConfig {
        params: MetricParams {
            energy: scenario.radio.energy,
            data_packet_bytes: scenario.packet_size_bytes,
        },
        silence: scenario.silence,
        ..SsSpstConfig::with_beacon_interval(
            kind,
            SimDuration::from_secs_f64(scenario.beacon_interval_s),
        )
    }
}

/// Evaluates `$body` with `$make` bound to a per-node agent constructor
/// (`Fn(&Scenario) -> Agent`) for the protocol kind `$kind`, so the body stays generic
/// over the agent type. Covers the protocols the workloads run.
#[macro_export]
macro_rules! with_agent_fn {
    ($kind:expr, $make:ident => $body:expr) => {{
        use ssmcast::scenario::{ProtocolKind, Scenario};
        match $kind {
            ProtocolKind::Flooding => {
                let $make = |_: &Scenario| ssmcast::baselines::FloodingAgent::new();
                $body
            }
            ProtocolKind::SsSpst(metric) => {
                let $make = move |s: &Scenario| {
                    ssmcast::core::SsSpstAgent::new($crate::workload::ss_spst_config(s, metric))
                };
                $body
            }
            ProtocolKind::Maodv => {
                let $make = |_: &Scenario| ssmcast::baselines::MaodvAgent::with_defaults();
                $body
            }
            ProtocolKind::Odmrp => {
                let $make = |_: &Scenario| ssmcast::baselines::OdmrpAgent::with_defaults();
                $body
            }
            other => panic!("no benchmark workload runs {}", other.name()),
        }
    }};
}

/// The protocol a single-run workload runs.
pub fn single_run_protocol(w: Workload) -> ProtocolKind {
    match w {
        Workload::FloodN2k | Workload::FloodN10k | Workload::FloodN10kShards2 => {
            ProtocolKind::Flooding
        }
        Workload::SsSpstEFaults => ProtocolKind::SsSpst(MetricKind::EnergyAware),
        Workload::Fig14Campaign => panic!("the campaign runs the figure's four protocols"),
    }
}
