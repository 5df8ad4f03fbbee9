//! Table II: the hardware roster of the real-world experiment, with the
//! measured single-frame processing time of each node when idle.
//!
//! The "Processing" column is *measured* by running one synthetic frame
//! through each node's executor, not just echoed from configuration —
//! so this experiment also validates that the contention model's base
//! case matches the paper's profile numbers exactly.

use armada_bench::{print_table, Harness};
use armada_metrics::BenchReport;
use armada_types::{table2_profiles, SimTime};
use armada_workload::PsExecutor;

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "table2_hardware";

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let measured = harness.run(table2_profiles(), |(label, class, hw)| {
        // Measure one frame on an idle executor.
        let mut exec = PsExecutor::new(&hw);
        exec.admit((), SimTime::ZERO);
        let done = exec.advance(SimTime::from_secs(10));
        let frame_time = done[0].1.saturating_since(SimTime::ZERO);
        (label, class, hw, frame_time)
    });
    let rows: Vec<Vec<String>> = measured
        .into_iter()
        .map(|(label, class, hw, frame_time)| {
            report.record(label.clone(), 0.0, 1);
            vec![
                label,
                class.to_string(),
                hw.processor().to_string(),
                hw.cores().to_string(),
                format!("{:.0}ms", frame_time.as_millis_f64()),
            ]
        })
        .collect();
    print_table(
        "Table II — real-world experiment setup (measured idle frame time)",
        &["node", "class", "processor", "cores", "processing"],
        &rows,
    );
    println!("\npaper: V1=24ms V2=32ms V3=31ms V4=45ms V5=49ms D6-D9=30ms Cloud=30ms");
}
