//! The four workloads. Names are fixed by `BENCHMARK.json`.

pub mod fleet;
pub mod session;
pub mod sim;
