//! Figure 1: RTT measurements from 15 home-Wi-Fi participants to
//! (1) five volunteer edge nodes, (2) the AWS Local Zone, and (3) the
//! closest cloud region.
//!
//! Paper shape: volunteer nodes deliver lower RTT than the Local Zone
//! (which pays an intra-ISP peering penalty), and both are far below the
//! closest cloud.

use armada_bench::{dur_ms, print_csv, print_table, Harness};
use armada_core::EnvSpec;
use armada_metrics::BenchReport;
use armada_net::{Addr, MeasurementCampaign};
use armada_sim::SimRng;
use armada_types::{NodeClass, NodeId, UserId};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig1_rtt_measurements";

const PROBES_PER_PAIR: usize = 100;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let env = EnvSpec::realworld(15);
    let net = env.to_network();

    let sources: Vec<Addr> = (0..15).map(|i| Addr::User(UserId::new(i))).collect();
    // Targets: V1–V5 individually, one Local Zone instance (D6), and
    // the cloud.
    let mut targets = Vec::new();
    let mut labels = Vec::new();
    for (i, node) in env.nodes.iter().enumerate() {
        let keep = match node.class {
            NodeClass::Volunteer => true,
            NodeClass::Dedicated => node.label == "D6",
            NodeClass::Cloud => true,
        };
        if keep {
            targets.push(Addr::Node(NodeId::new(i as u64)));
            labels.push(node.label.clone());
        }
    }

    // One campaign per target, each on its own deterministic RNG stream,
    // so the targets can be probed in parallel and the result is the
    // same at every thread count.
    let root = SimRng::seed_from(1);
    let units: Vec<(String, Addr)> = labels
        .iter()
        .cloned()
        .zip(targets.iter().copied())
        .collect();
    let summaries = harness.run(units, |(label, target)| {
        let campaign = MeasurementCampaign::new(sources.clone(), vec![target], PROBES_PER_PAIR);
        let mut rng = root.stream(&label);
        campaign
            .run(&net, &mut rng)
            .pop()
            .expect("one target per campaign")
    });
    for (s, label) in summaries.iter().zip(&labels) {
        report.record(label.clone(), 0.0, s.samples as u64);
    }

    let rows: Vec<Vec<String>> = summaries
        .iter()
        .zip(&labels)
        .map(|(s, label)| {
            vec![
                label.clone(),
                s.samples.to_string(),
                dur_ms(s.min),
                dur_ms(s.median),
                dur_ms(s.mean),
                dur_ms(s.p95),
                dur_ms(s.max),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 — RTT from 15 participants (ms)",
        &["target", "samples", "min", "median", "mean", "p95", "max"],
        &rows,
    );
    print_csv(
        "fig1_rtt",
        &["target", "median_ms", "p95_ms"],
        &summaries
            .iter()
            .zip(&labels)
            .map(|(s, l)| vec![l.clone(), dur_ms(s.median), dur_ms(s.p95)])
            .collect::<Vec<_>>(),
    );

    let volunteer_best = summaries[..5].iter().map(|s| s.median).min().unwrap();
    let lz = summaries[5].median;
    let cloud = summaries[6].median;
    println!(
        "\nshape check: best volunteer {} < local zone {} < cloud {} : {}",
        dur_ms(volunteer_best),
        dur_ms(lz),
        dur_ms(cloud),
        volunteer_best < lz && lz < cloud
    );
}
