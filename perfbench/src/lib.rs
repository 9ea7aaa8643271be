//! # ssmcast-perfbench — the simulator's benchmark
//!
//! Named workloads ([`workload::Workload`]), each measured end to end with tracing off,
//! and per layer in a separate traced run whose spans and counts come from delegating
//! wrappers around the simulator's public interfaces ([`trace`]). [`ops`] runs one
//! operation of a workload and checks its outputs; its times are read from the CPU
//! clocks in [`cpu`]. `run.py` in this
//! directory builds the package and is the command the benchmark is run with.

pub mod cpu;
pub mod ops;
pub mod trace;
pub mod workload;
