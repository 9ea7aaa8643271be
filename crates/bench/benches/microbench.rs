//! Engine and algorithm microbenchmarks: event-queue throughput, metric evaluation,
//! synchronous stabilization of the paper's example topology, and the radio-medium
//! broadcast path (grid-indexed vs brute-force neighbour queries) at large n.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ssmcast_core::{cost_via, figure1_topology, MetricKind, MetricParams, ParentView, SyncModel};
use ssmcast_dessim::{SimDuration, SimTime, Simulator};
use ssmcast_manet::{FaultPlanSpec, MacConfig, MediumConfig, SilenceConfig};
use ssmcast_scenario::{run_protocol, MetricsConfig, ProtocolKind, Scenario};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("dessim/schedule_and_drain_10k_events", |b| {
        b.iter(|| {
            let mut sim: Simulator<u64> = Simulator::with_capacity(10_000);
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic timestamps.
                let t = i.wrapping_mul(2654435761) % 1_000_000;
                sim.schedule_at(SimTime::from_nanos(t), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = sim.pop_next() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn bench_metric_evaluation(c: &mut Criterion) {
    let params = MetricParams::default();
    let view = ParentView {
        cost: 0.012,
        hop: 3,
        child_distances: &[80.0, 120.0, 145.0, 60.0],
        non_member_neighbor_distances: &[55.0, 90.0, 130.0, 170.0, 210.0],
    };
    c.bench_function("core/join_overhead_energy_aware", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for d in 10..250 {
                acc += cost_via(MetricKind::EnergyAware, &params, black_box(&view), d as f64);
            }
            black_box(acc)
        })
    });
}

fn bench_sync_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/sync_stabilization_figure1");
    group.sample_size(20);
    for kind in MetricKind::ALL {
        group.bench_function(kind.protocol_name(), |b| {
            b.iter(|| {
                let mut model = SyncModel::new(figure1_topology(), kind, MetricParams::default());
                black_box(model.run_to_stabilization(200))
            })
        });
    }
    group.finish();
}

/// The grid-indexed broadcast path against the brute-force O(n) scan on a flood-heavy
/// 1000-node scenario (≈ 12 neighbours per node). Both modes share a 200 ms position
/// epoch, so they simulate the same physics (and produce identical reports); only the
/// neighbour-query cost differs.
fn bench_broadcast_medium(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 1_000;
        s.area_side_m = 4_000.0;
        s.group_size = 50;
        s.duration_s = 1.0;
        s.warmup_s = 0.25;
        s
    };
    let epoch = SimDuration::from_millis(200);
    let mut group = c.benchmark_group("manet/flood_n1000");
    group.sample_size(3);
    for (name, medium) in [
        ("grid", MediumConfig::grid().with_epoch(epoch)),
        ("bruteforce", MediumConfig::brute_force().with_epoch(epoch)),
    ] {
        // The brute-force variant exists to price the O(n) scan against the grid; in
        // `--quick` CI smoke mode it proves nothing the grid run doesn't and costs
        // ~43 ms/sample, so it only runs in full mode (the JSON config notes this).
        if name == "bruteforce" && criterion::is_quick() {
            continue;
        }
        let scenario = base.with_medium(medium);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::Flooding.to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// The fault-injection + stabilization-probe path at n = 500: one corruption burst plus
/// crashes and blackouts during a short SS-SPST-E run, with the legitimacy predicate
/// probed every 500 ms. The fault-free run of the same scenario is the baseline, so the
/// pair prices the whole subsystem (fault dispatch, per-epoch snapshot + BFS legitimacy
/// check, convergence accounting).
fn bench_fault_recovery(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 8.0;
        s.warmup_s = 1.0;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let faulted = {
        let mut s = base;
        s.faults = FaultPlanSpec::stress(2.0, 6.0);
        s.faults.probe_epoch_s = 0.5;
        s
    };
    let mut group = c.benchmark_group("manet/faults_n500");
    group.sample_size(3);
    for (name, scenario) in [("faultfree", base), ("stress_probe", faulted)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// Multi-session dispatch pricing at n = 500: the same radio field carrying one vs four
/// concurrent multicast sessions (each with its own per-node SS-SPST-E instances and a
/// churned membership), probed per session. The single-session run is the baseline, so
/// the pair prices the per-(session, node) agent dispatch, the per-session traces and
/// the per-session legitimacy evaluation the multi-group refactor added.
fn bench_multi_group(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 5.0;
        s.warmup_s = 1.0;
        s.member_churn_rate = 0.5;
        s.faults.probe_epoch_s = 0.5;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let mut group = c.benchmark_group("manet/groups_n500");
    group.sample_size(3);
    for (name, n_groups) in [("sessions_1", 1), ("sessions_4", 4)] {
        let scenario = base.with_groups(n_groups);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// The energy-lifecycle path at n = 500: the same SS-SPST-E scenario with unlimited
/// always-on radios (the paper's model, and the fast path with every lifecycle branch
/// compiled out at runtime) versus the full lifecycle — finite batteries, a duty-cycled
/// radio with idle/sleep drain accrual, distance-based TX power control and per-epoch
/// lifetime sampling. The pair prices the whole subsystem.
fn bench_energy_lifecycle(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 5.0;
        s.warmup_s = 1.0;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let lifecycle = base
        .with_battery_capacity(50.0)
        .with_duty_cycle(1.0, 0.8)
        .with_idle_power(2e-3, 1e-4)
        .with_tx_power_control(true);
    let mut group = c.benchmark_group("manet/energy_n500");
    group.sample_size(3);
    for (name, scenario) in [("unlimited", base), ("lifecycle", lifecycle)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// The MAC-layer path at n = 500: the same SS-SPST-E scenario under the three
/// channel-access policies. Random jitter is the pre-MAC fast path (one extra virtual
/// call per transmission); CSMA adds carrier sensing with retry events; TDMA adds slot
/// arithmetic plus per-reception claim learning. The triple prices the subsystem and
/// its two contention disciplines against the legacy baseline.
fn bench_mac(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 5.0;
        s.warmup_s = 1.0;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let mut group = c.benchmark_group("manet/mac_n500");
    group.sample_size(3);
    for (name, mac) in [
        ("jitter", MacConfig::default()),
        ("csma", MacConfig::csma()),
        ("ss_tdma", MacConfig::ss_tdma()),
    ] {
        let scenario = base.with_mac(mac);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// The region-sharded engine against the sequential loop on an n = 5000 flood
/// (≈ 13 neighbours per node, field scaled for constant density). Shard counts 2/4/8
/// price the partitioned engine's synchronization against the extra cores it can
/// recruit: on a multi-core host the higher shard counts win; on a single core they
/// only measure the synchronization overhead. Reports are byte-identical across the
/// sharded counts (see `tests/shard_equivalence.rs`); the sequential run is the
/// wall-clock baseline.
fn bench_sharded_engine(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 5_000;
        s.area_side_m = 8_573.0;
        s.group_size = 50;
        s.duration_s = 1.0;
        s.warmup_s = 0.25;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let mut group = c.benchmark_group("manet/shard_n5000");
    group.sample_size(2);
    for (name, shards) in [("sequential", 0u32), ("shards_2", 2), ("shards_4", 4), ("shards_8", 8)]
    {
        let scenario = if shards == 0 { base } else { base.with_shards(shards) };
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::Flooding.to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// Exact vs streaming report accumulation on a long-horizon n = 2000 lifetime flood:
/// ten times the horizon of the other large-n runs, finite batteries and a 50 ms
/// lifetime sample epoch, so exact-mode report state (per-packet latency/dedup maps,
/// per-epoch curves) grows with the horizon while streaming mode holds its fixed
/// sketch budgets. The streaming variant runs FIRST on purpose: the JSON report's
/// VmHWM columns are a monotone process-wide high-water mark, so any peak-RSS growth
/// the exact variant then shows on top of it is the exact report layer's own
/// footprint. Scalar report metrics are bit-equal between the two modes (see
/// `tests/streaming_equivalence.rs`), so the pair prices pure accounting overhead.
fn bench_long_horizon(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 2_000;
        s.area_side_m = 5_600.0;
        s.group_size = 50;
        s.duration_s = 10.0;
        s.warmup_s = 0.25;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s.lifecycle.sample_epoch = SimDuration::from_millis(50);
        s.with_battery_capacity(100.0).with_idle_power(1e-4, 1e-6)
    };
    let mut group = c.benchmark_group("manet/long_horizon_n2000");
    group.sample_size(2);
    for (name, metrics) in
        [("streaming", MetricsConfig::streaming()), ("exact", MetricsConfig::exact())]
    {
        let scenario = base.with_metrics(metrics);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::Flooding.to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// Beacon suppression off vs on, SS-SPST-E at n = 500. Suppression prices the extra
/// per-round silence bookkeeping plus the phase-split accounting — and on a short run
/// mostly measures that the feature costs nothing when the network is still
/// converging (the steady-state byte win needs long runs; see `tests/silence.rs`).
fn bench_silence(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 5.0;
        s.warmup_s = 1.0;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let mut group = c.benchmark_group("manet/silence_n500");
    group.sample_size(3);
    for (name, silence) in [("off", SilenceConfig::off()), ("on", SilenceConfig::on())] {
        let scenario = base.with_silence(silence);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(
                    black_box(&scenario),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref(),
                );
                black_box(report)
            })
        });
    }
    group.finish();
}

/// The minimum-energy baselines at n = 500: MEM-Tree prices the centralized BIP tree
/// construction (an O(n·m) greedy over the t = 0 snapshot, rebuilt once per run) plus
/// source-tree forwarding; DCA-Forward layers per-child wake-window queries and
/// deferral timers on top under a 50 %-awake duty cycle. The pair prices the new
/// tree-construction hot path against the duty-aware forwarding overhead.
fn bench_min_energy(c: &mut Criterion) {
    let base = {
        let mut s = Scenario::paper_default();
        s.n_nodes = 500;
        s.area_side_m = 2_800.0;
        s.group_size = 40;
        s.duration_s = 5.0;
        s.warmup_s = 1.0;
        s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
        s
    };
    let duty_cycled = base.with_duty_cycle(1.0, 0.5).with_tx_power_control(true);
    let mut group = c.benchmark_group("manet/min_energy_n500");
    group.sample_size(3);
    for (name, scenario, kind) in [
        ("mem_tree", base, ProtocolKind::MemTree),
        ("dca_forward", duty_cycled, ProtocolKind::DcaForward),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_protocol(black_box(&scenario), kind.to_protocol().as_ref());
                black_box(report)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_metric_evaluation,
    bench_sync_stabilization,
    bench_broadcast_medium,
    bench_fault_recovery,
    bench_multi_group,
    bench_energy_lifecycle,
    bench_mac,
    bench_sharded_engine,
    bench_long_horizon,
    bench_silence,
    bench_min_energy
);
criterion_main!(benches);
