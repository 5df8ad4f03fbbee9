//! Figure 3: CDF of end-to-end latency from one user to four different
//! edge servers (two nearby volunteers, one weaker volunteer, one Local
//! Zone instance).
//!
//! Paper shape: well-connected volunteer nodes (V1, V2) beat the
//! dedicated Local Zone node (D6) because their network latency to the
//! user is lower; the weak volunteer (V4) loses on processing time.

use armada_bench::{dur_ms, print_csv, print_table, Harness};
use armada_core::EnvSpec;
use armada_metrics::BenchReport;
use armada_net::Addr;
use armada_sim::SimRng;
use armada_types::{NodeId, SimDuration, UserId};
use armada_workload::{FRAME_SIZE, RESPONSE_SIZE};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig3_latency_cdf";

const SAMPLES_PER_SERVER: usize = 500;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let env = EnvSpec::realworld(15);
    let net = env.to_network();
    let user = Addr::User(UserId::new(0));
    // Each server samples on its own RNG stream so the four CDFs can be
    // drawn in parallel yet stay identical at every thread count.
    let root = SimRng::seed_from(3);

    let picks = ["V1", "V2", "V4", "D6"];
    let cdfs = harness.run(picks.to_vec(), |label| {
        let (index, spec) = env
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.label == label)
            .expect("label exists in the real-world roster");
        let node = Addr::Node(NodeId::new(index as u64));
        let mut rng = root.stream(label);
        // One frame's end-to-end latency on an idle server: uplink
        // delivery + processing + response delivery.
        let mut samples: Vec<SimDuration> = Vec::with_capacity(SAMPLES_PER_SERVER);
        for _ in 0..SAMPLES_PER_SERVER {
            let up = net
                .delivery_delay(user, node, FRAME_SIZE, &mut rng)
                .unwrap();
            let proc = spec.hw.base_frame_time();
            let down = net
                .delivery_delay(node, user, RESPONSE_SIZE, &mut rng)
                .unwrap();
            samples.push(up + proc + down);
        }
        armada_metrics::Cdf::from_samples(samples)
    });

    let mut all_rows = Vec::new();
    let mut summary_rows = Vec::new();
    for (label, cdf) in picks.iter().zip(&cdfs) {
        report.record(*label, 0.0, SAMPLES_PER_SERVER as u64);
        summary_rows.push(vec![
            label.to_string(),
            dur_ms(cdf.quantile(0.1).unwrap()),
            dur_ms(cdf.quantile(0.5).unwrap()),
            dur_ms(cdf.quantile(0.9).unwrap()),
            dur_ms(cdf.quantile(0.99).unwrap()),
        ]);
        for (value, prob) in cdf.points().into_iter().step_by(25) {
            all_rows.push(vec![label.to_string(), dur_ms(value), format!("{prob:.3}")]);
        }
    }
    print_table(
        "Fig. 3 — end-to-end latency CDF, one user to four edge servers (ms)",
        &["server", "p10", "p50", "p90", "p99"],
        &summary_rows,
    );
    print_csv("fig3_cdf", &["server", "latency_ms", "cum_prob"], &all_rows);
}
