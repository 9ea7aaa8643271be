//! The benchmark binary: measures one workload for a given time and prints the result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--expect-digest <hex>] [--spans-out <path>]
//! ```
//!
//! With `--trace 0` it repeats untraced operations (a run, or a whole campaign grid)
//! for about `--seconds` and prints the end-to-end metrics, whose times are CPU time
//! (see `cpu.rs` for why not wall time). With `--trace 1` it
//! alternates untraced and traced operations and prints the per-layer metrics, plus the
//! tracing overhead. Every operation is checked: a panic, a broken report invariant, or
//! a report digest that differs from `--expect-digest` (or, without one, from the first
//! operation's) counts as a failed operation. The last line of standard output is the
//! result as one JSON object.

use ssmcast::manet::SimReport;
use ssmcast_perfbench::ops::{self, OpOutcome, SetupTimes};
use ssmcast_perfbench::trace::{self, Counts, Tally};
use ssmcast_perfbench::with_agent_fn;
use ssmcast_perfbench::workload::{self, Campaign, Size, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// After every round of operations, set-up-only samples are taken for
/// [`SETUP_SLICE`] (at least [`MIN_SETUP_SAMPLES`]), on top of each single run's own
/// set-up. A campaign job's set-up takes microseconds, so one sample alone is mostly
/// timer noise; spreading the samples over the run keeps a slow spell of the host from
/// landing on all of them.
const MIN_SETUP_SAMPLES: usize = 5;
const SETUP_SLICE: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_digest: Option<u64>,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut expect_digest, mut spans_out) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--expect-digest" => {
                expect_digest =
                    Some(u64::from_str_radix(&value, 16).map_err(|_| bad("a hex digest"))?)
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expect_digest,
        spans_out,
    })
}

/// Everything one benchmark run measured.
struct Samples {
    attempted: u64,
    failed: u64,
    expect_digest: Option<u64>,
    first_digest: Option<u64>,
    setups: Vec<SetupTimes>,
    untraced: Vec<OpOutcome>,
    traced: Vec<Traced>,
    spans: Vec<trace::Span>,
}

impl Samples {
    fn new(expect_digest: Option<u64>) -> Self {
        Samples {
            attempted: 0,
            failed: 0,
            expect_digest,
            first_digest: None,
            setups: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: operation {} failed: {why}", self.attempted);
    }

    /// Run and check one operation; `None` when it failed.
    fn attempt(&mut self, op: impl FnOnce() -> OpOutcome) -> Option<OpOutcome> {
        self.attempted += 1;
        let out = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(out) => out,
            Err(_) => {
                self.fail("panicked".into());
                return None;
            }
        };
        if let Err(why) = &out.invariant {
            self.fail(why.clone());
            return None;
        }
        let reference = *self.first_digest.get_or_insert(out.digest);
        let expected = self.expect_digest.unwrap_or(reference);
        if out.digest != expected {
            self.fail(format!("report digest {:016x}, expected {expected:016x}", out.digest));
            return None;
        }
        Some(out)
    }

    fn setup_sample(&mut self, setup: impl FnOnce() -> SetupTimes) {
        match catch_unwind(AssertUnwindSafe(setup)) {
            Ok(times) => self.setups.push(times),
            Err(_) => {
                self.attempted += 1;
                self.fail("set-up panicked".into());
            }
        }
    }
}

/// A traced operation: its outcome (reports dropped), the wrappers' counts and the
/// engine and MAC counts from its reports.
struct Traced {
    out: OpOutcome,
    layer: Counts,
    stats: ReportCounts,
}

/// What one workload runs per operation.
enum Bench {
    Single { workload: Workload, scenario: ssmcast::scenario::Scenario },
    Campaign(Campaign),
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Bench {
        match workload.scenario(seed, Size::Full) {
            Some(scenario) => Bench::Single { workload, scenario },
            None => Bench::Campaign(workload::campaign(seed, Size::Full)),
        }
    }

    fn op(&self, trace: Option<(&Arc<Tally>, usize)>) -> OpOutcome {
        match self {
            Bench::Single { workload, scenario } => {
                let kind = workload::single_run_protocol(*workload);
                with_agent_fn!(kind, make => ops::single_op(scenario, make, trace))
            }
            Bench::Campaign(c) => ops::campaign_op(c, workload::CAMPAIGN_THREADS, trace),
        }
    }

    /// Set-up sample `i`: the single run's own set-up, or one job of the campaign grid
    /// (cycling through cells, then repetitions).
    fn setup_only(&self, i: usize) -> SetupTimes {
        match self {
            Bench::Single { workload, scenario } => {
                let kind = workload::single_run_protocol(*workload);
                with_agent_fn!(kind, make => ops::setup_only(scenario, make))
            }
            Bench::Campaign(c) => {
                let n_p = c.spec.protocols.len();
                let n_x = c.spec.xs.len();
                let (pi, xi, rep) = (i % n_p, (i / n_p) % n_x, (i / (n_p * n_x)) % c.reps);
                let scenario = c.job_scenario(xi, rep);
                with_agent_fn!(c.spec.protocols[pi], make => ops::setup_only(&scenario, make))
            }
        }
    }
}

fn measure(bench: &Bench, args: &Args) -> Samples {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut samples = Samples::new(args.expect_digest);
    let mut op = 0;
    loop {
        let round = Instant::now();
        // Reports are dropped once checked, so they do not add to the peak memory.
        if let Some(mut out) = samples.attempt(|| bench.op(None)) {
            eprintln!(
                "perfbench: operation {op}: {:.4} CPU-s, {:.4} s wall",
                out.run.as_secs_f64(),
                out.wall.as_secs_f64()
            );
            out.reports = Vec::new();
            samples.setups.extend(out.setup);
            samples.untraced.push(out);
        }
        if args.trace {
            let tally = Tally::new();
            if let Some(mut out) = samples.attempt(|| bench.op(Some((&tally, op)))) {
                let stats = report_counts(&std::mem::take(&mut out.reports));
                samples.traced.push(Traced { out, layer: tally.counts(), stats });
            }
            samples.spans.extend(tally.spans());
        }
        let slice = Instant::now();
        let mut i = 0;
        while i < MIN_SETUP_SAMPLES || slice.elapsed() < SETUP_SLICE {
            let job = samples.setups.len();
            samples.setup_sample(|| bench.setup_only(job));
            i += 1;
        }
        op += 1;
        // Stop when another round would overrun the budget, so a run lasts about
        // `--seconds` whatever the operation's length.
        if start.elapsed() + round.elapsed() >= budget {
            break;
        }
    }
    samples
}

/// Linear-interpolation quantile of `xs` at `q` in [0, 1]; 0 for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&xs.into_iter().collect::<Vec<_>>(), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time of each job of an operation, set-up included: the campaign's jobs, or the
/// single run itself.
fn job_cpu(out: &OpOutcome) -> Vec<f64> {
    match out.setup {
        Some(setup) => vec![(setup.total() + out.run).as_secs_f64()],
        None => out.jobs.iter().map(|j| j.cpu.as_secs_f64()).collect(),
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(samples: &Samples) -> Vec<Metric> {
    // Job percentiles are taken within each operation, then the median over operations:
    // a campaign operation has 100 jobs, so its p90 keeps 10 beyond it. A single run is
    // one job, so its p50 and p90 are both the operation's latency.
    let job_q = |q: f64| median(samples.untraced.iter().map(|o| quantile(&job_cpu(o), q)));
    let succeeded = samples.attempted - samples.failed;
    vec![
        ("setup_s", median(samples.setups.iter().map(|s| s.total().as_secs_f64())), "s"),
        ("run_s", median(samples.untraced.iter().map(|o| o.run.as_secs_f64())), "s"),
        ("job_p50_s", job_q(0.5), "s"),
        ("job_p90_s", job_q(0.9), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("success_ratio", ratio(succeeded as f64, samples.attempted as f64), "ratio"),
    ]
}

/// Engine and MAC counts summed over an operation's reports.
#[derive(Default)]
struct ReportCounts {
    events: f64,
    peak_queue_depth: f64,
    sync_rounds: f64,
    imbalance_ratio: f64,
    max_shard_events: f64,
    frames_sent: f64,
    deferrals: f64,
    drops: f64,
    receptions: f64,
    collisions: f64,
}

fn report_counts(reports: &[SimReport]) -> ReportCounts {
    let mut c = ReportCounts::default();
    for r in reports {
        if let Some(e) = &r.engine {
            c.events += e.events_processed as f64;
            c.peak_queue_depth = c.peak_queue_depth.max(e.peak_queue_depth as f64);
            c.sync_rounds += e.sync_rounds as f64;
            c.imbalance_ratio = c.imbalance_ratio.max(e.imbalance_ratio);
            c.max_shard_events += e.shard_event_counts.iter().copied().max().unwrap_or(0) as f64;
        }
        if let Some(m) = &r.mac {
            c.frames_sent += m.frames_sent as f64;
            c.deferrals += m.deferrals as f64;
            c.drops += m.mac_drops as f64;
            c.receptions += m.receptions as f64;
            c.collisions += m.collisions as f64;
        }
    }
    c
}

fn per_layer(samples: &Samples, threads: usize) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Traced) -> f64| median(samples.traced.iter().map(f));
    let phase =
        |f: fn(&SetupTimes) -> Duration| median(samples.setups.iter().map(|s| f(s).as_secs_f64()));
    let busy = |o: &OpOutcome| job_cpu(o).iter().sum::<f64>();
    // A single run is one job that keeps its one worker busy throughout. In a campaign,
    // idle is the workers' wall-clock thread-seconds the jobs' CPU time leaves over.
    let idle = |o: &OpOutcome| match o.setup {
        Some(_) => 0.0,
        None => (o.wall.as_secs_f64() * threads as f64 - busy(o)).max(0.0),
    };
    // Wall-clock thread-seconds the engine had, as the wrappers' times are wall time:
    // the run on each engine thread, or every job's time inside `Protocol::run` (agents
    // and `NetworkSim::new` included) in a campaign.
    let engine_s = |o: &OpOutcome| match o.setup {
        Some(_) => o.wall.as_secs_f64() * threads as f64,
        None => o.jobs.iter().map(|j| j.run.as_secs_f64()).sum(),
    };
    let events = med(&|t| t.stats.events);
    let untraced_run = median(samples.untraced.iter().map(|o| o.run.as_secs_f64()));
    let traced_run = med(&|t| t.out.run.as_secs_f64());
    let self_s = med(&|t| engine_s(&t.out) - t.layer.child_s());
    vec![
        ("setup.build_setup_s", phase(|s| s.build_setup), "s"),
        ("setup.build_mobility_s", phase(|s| s.build_mobility), "s"),
        ("setup.agents_s", phase(|s| s.agents), "s"),
        ("setup.sim_new_s", phase(|s| s.sim_new), "s"),
        ("experiment.jobs", med(&|t| job_cpu(&t.out).len() as f64), "count"),
        ("experiment.job_busy_s", med(&|t| busy(&t.out)), "s"),
        ("experiment.worker_idle_s", med(&|t| idle(&t.out)), "s"),
        ("dessim.events", events, "count"),
        ("dessim.peak_queue_depth", med(&|t| t.stats.peak_queue_depth), "count"),
        ("dessim.events_per_s", ratio(events, untraced_run), "1/s"),
        ("mobility.calls", med(&|t| t.layer.mobility_calls as f64), "count"),
        ("mobility.s", med(&|t| t.layer.mobility_s), "s"),
        (
            "mobility.calls_per_event",
            med(&|t| ratio(t.layer.mobility_calls as f64, t.stats.events)),
            "ratio",
        ),
        ("engine.self_s", self_s, "s"),
        ("engine.self_ns_per_event", ratio(self_s * 1e9, events), "ns"),
        ("shard.sync_rounds", med(&|t| t.stats.sync_rounds), "count"),
        ("shard.imbalance_ratio", med(&|t| t.stats.imbalance_ratio), "ratio"),
        ("shard.max_events", med(&|t| t.stats.max_shard_events), "count"),
        ("mac.frames_sent", med(&|t| t.stats.frames_sent), "count"),
        ("mac.deferrals", med(&|t| t.stats.deferrals), "count"),
        ("mac.drops", med(&|t| t.stats.drops), "count"),
        ("mac.collision_rate", med(&|t| ratio(t.stats.collisions, t.stats.receptions)), "ratio"),
        ("agent.rx_calls", med(&|t| t.layer.rx_calls as f64), "count"),
        ("agent.rx_s", med(&|t| t.layer.rx_s), "s"),
        ("agent.timer_calls", med(&|t| t.layer.timer_calls as f64), "count"),
        ("agent.timer_s", med(&|t| t.layer.timer_s), "s"),
        ("agent.rx_per_event", med(&|t| ratio(t.layer.rx_calls as f64, t.stats.events)), "ratio"),
        (
            "agent.rx_consumed_ratio",
            med(&|t| ratio(t.layer.rx_consumed as f64, t.layer.rx_calls as f64)),
            "ratio",
        ),
        ("probe.epochs", med(&|t| t.layer.probe_epochs as f64), "count"),
        ("probe.epoch_s", med(&|t| t.layer.probe_epoch_s), "s"),
        ("probe.faults", med(&|t| t.layer.probe_faults as f64), "count"),
        ("probe.fault_s", med(&|t| t.layer.probe_fault_s), "s"),
        ("trace.overhead_s", traced_run - untraced_run, "s"),
        ("wall.run_s", median(samples.untraced.iter().map(|o| o.wall.as_secs_f64())), "s"),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::origin();
    trace::clock_overhead_ns();
    let bench = Bench::new(args.workload, args.seed);
    let samples = measure(&bench, &args);
    let metrics = if args.trace {
        per_layer(&samples, args.workload.threads())
    } else {
        end_to_end(&samples)
    };
    if let Some(path) = &args.spans_out {
        let lines: String = samples.spans.iter().map(|s| s.to_json() + "\n").collect();
        if let Err(e) = std::fs::write(path, lines) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let ok_ops = samples.untraced.len() + samples.traced.len();
    let digest = samples.first_digest.map_or("none".to_string(), |d| format!("{d:016x}"));
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"digest\":\"{digest}\",\"ops_ok\":{ok_ops},\"clock_overhead_ns\":{}}}",
        args.workload.name(),
        args.seed,
        trace::clock_overhead_ns()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        samples.failed == 0,
        samples.attempted,
        samples.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
