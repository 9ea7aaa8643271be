//! The benchmark measures what users run: at reduced size, it produces the same
//! report bytes as `run_protocol` for the single-run workloads and as `Experiment` for
//! the campaign, traced or not.

use ssmcast::scenario::{run_protocol, Experiment};
use ssmcast_perfbench::ops::{self, report_bytes};
use ssmcast_perfbench::trace::Tally;
use ssmcast_perfbench::with_agent_fn;
use ssmcast_perfbench::workload::{campaign, single_run_protocol, Size, Workload};
use std::collections::BTreeSet;

const SEED: u64 = 7;

fn bytes(reports: &[ssmcast::manet::SimReport]) -> Vec<String> {
    reports.iter().map(report_bytes).collect()
}

#[test]
fn single_run_workloads_reproduce_run_protocol_traced_or_not() {
    for w in [
        Workload::FloodN2k,
        Workload::FloodN10k,
        Workload::FloodN10kShards2,
        Workload::SsSpstEFaults,
    ] {
        let scenario = w.scenario(SEED, Size::Reduced).expect("a single-run workload");
        let kind = single_run_protocol(w);
        let reference = run_protocol(&scenario, kind.to_protocol().as_ref());

        let untraced = with_agent_fn!(kind, make => ops::single_op(&scenario, make, None));
        let tally = Tally::new();
        let traced =
            with_agent_fn!(kind, make => ops::single_op(&scenario, make, Some((&tally, 0))));

        let name = w.name();
        assert_eq!(bytes(&untraced.reports), vec![report_bytes(&reference)], "{name}");
        assert_eq!(bytes(&traced.reports), bytes(&untraced.reports), "{name}: traced");
        assert_eq!(traced.digest, untraced.digest, "{name}");
        assert_eq!(untraced.invariant, Ok(()), "{name}");

        let counts = tally.counts();
        let probed = w == Workload::SsSpstEFaults;
        assert!(counts.rx_calls > 0, "{name}");
        assert!(counts.rx_consumed <= counts.rx_calls, "{name}");
        assert_eq!(counts.timer_calls > 0, probed, "{name}: only SS-SPST-E arms timers");
        assert!(counts.mobility_calls > 0, "{name}");
        assert_eq!(counts.probe_epochs > 0, probed, "{name}: only the faulted run is probed");
        let spans = tally.spans();
        assert!(spans.iter().any(|s| s.name == "run"), "{name}");
        assert_eq!(spans.iter().any(|s| s.name == "probe.epoch"), probed, "{name}");
    }
}

#[test]
fn the_campaign_reproduces_experiment_traced_or_not() {
    let c = campaign(SEED, Size::Reduced);
    let reference: Vec<_> = Experiment::new(c.base)
        .protocol_kinds(&c.spec.protocols)
        .sweep(c.spec.swept, c.spec.xs.clone())
        .reps(c.reps)
        .run()
        .into_iter()
        .flat_map(|cell| cell.reports)
        .collect();
    assert_eq!(reference.len(), c.jobs());

    let untraced = ops::campaign_op(&c, 2, None);
    let tally = Tally::new();
    let traced = ops::campaign_op(&c, 2, Some((&tally, 1)));

    assert_eq!(bytes(&untraced.reports), bytes(&reference));
    assert_eq!(bytes(&traced.reports), bytes(&reference), "traced");
    assert_eq!(untraced.digest, traced.digest);
    assert_eq!(untraced.invariant, Ok(()));

    for out in [&untraced, &traced] {
        let jobs: BTreeSet<_> = out.jobs.iter().map(|j| (j.cell, j.rep)).collect();
        assert_eq!(out.jobs.len(), c.jobs(), "every job timed once");
        assert_eq!(jobs.len(), c.jobs(), "every (cell, rep) seen");
        assert!(out.jobs.iter().all(|j| j.run <= j.latency));
        assert!(out.jobs.iter().all(|j| !j.cpu.is_zero()), "every job's CPU time is counted");
    }
    let counts = tally.counts();
    assert!(counts.rx_calls > 0 && counts.mobility_calls > 0);
    assert_eq!(counts.probe_epochs, 0, "Figure 14 runs unprobed");
    assert_eq!(tally.spans().iter().filter(|s| s.name == "job").count(), c.jobs());
}

#[test]
fn job_seeds_identify_every_job_of_the_full_grid() {
    let c = campaign(SEED, Size::Full);
    assert_eq!(c.jobs(), 100);
    let seeds = ops::campaign_seeds(&c);
    let distinct: BTreeSet<u64> = seeds.iter().map(|&(seed, _, _)| seed).collect();
    assert_eq!(distinct.len(), seeds.len(), "a job's seed names its (column, rep)");
}

#[test]
fn digests_leave_out_run_dependent_fields_and_checks_catch_broken_reports() {
    let w = Workload::FloodN10k;
    let scenario = w.scenario(SEED, Size::Reduced).expect("single run");
    let mut report = run_protocol(&scenario, single_run_protocol(w).to_protocol().as_ref());
    let d = ops::digest([&report]);
    assert_eq!(ops::check_report(&report), Ok(()));
    report.engine.as_mut().expect("stats are on").events_per_sec += 1.0;
    assert_eq!(ops::digest([&report]), d, "the wall-clock rate is left out");
    let mut deeper = report.clone();
    deeper.engine.as_mut().expect("stats are on").peak_queue_depth += 1;
    assert_ne!(ops::digest([&deeper]), d, "the sequential engine's depth is reproducible");
    let sharded = Workload::FloodN10kShards2.scenario(SEED, Size::Reduced).expect("single run");
    let mut report2 = run_protocol(&sharded, single_run_protocol(w).to_protocol().as_ref());
    let d2 = ops::digest([&report2]);
    report2.engine.as_mut().expect("stats are on").peak_queue_depth += 1;
    assert_eq!(ops::digest([&report2]), d2, "the sharded engine's depth is left out");

    let mut over = report.clone();
    over.delivered = over.expected_deliveries + 1;
    assert_ne!(ops::digest([&over]), d);
    assert!(ops::check_report(&over).is_err());
    let mut bad_pdr = report.clone();
    bad_pdr.pdr = 1.5;
    assert!(ops::check_report(&bad_pdr).is_err());
}
