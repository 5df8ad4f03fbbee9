//! Table III: pairwise end-to-end latency between 3 users and the edge
//! roster (V1–V5, D6, Cloud), with the node each user's client-centric
//! selection actually picks (marked `*`).
//!
//! The paper runs the three users separately to avoid interference and
//! sets TopN large enough that every node is probed; selections land on
//! each user's best-performing node.

use armada_bench::{ms, print_table, Harness};
use armada_core::{EnvSpec, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_net::Addr;
use armada_types::{ClientConfig, NodeId, SimDuration, UserId};
use armada_workload::FRAME_SIZE;

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "table3_pairwise";

const DURATION_S: u64 = 10;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let full = EnvSpec::realworld(15);
    let columns = ["V1", "V2", "V3", "V4", "V5", "D6", "Cloud"];

    // One participant from each neighbourhood cluster (west/east/downtown),
    // each run separately ("to avoid interference"): the chosen user joins
    // at t = 0, everyone else is scheduled past the horizon.
    let users: Vec<(usize, usize)> = [0usize, 4, 7].into_iter().enumerate().collect();
    let runs = harness.run(users, |(row, user_index)| {
        let duration = SimDuration::from_secs(DURATION_S);
        let join_times = (0..full.users.len())
            .map(|i| {
                if i == user_index {
                    armada_types::SimTime::ZERO
                } else {
                    armada_types::SimTime::ZERO + duration + SimDuration::from_secs(1)
                }
            })
            .collect();
        let result = Scenario::new(
            full.clone(),
            Strategy::client_centric_with(ClientConfig::default().with_top_n(10)),
        )
        .users_join_at(join_times)
        .duration(duration)
        .seed(42 + row as u64)
        .run();
        let selected = result
            .world()
            .client(UserId::new(user_index as u64))
            .and_then(|c| c.current_node());
        (row, user_index, selected, result.recorder().len() as u64)
    });

    let net = full.to_network();
    let mut rows = Vec::new();
    for &(row, user_index, selected, samples) in &runs {
        report.record(format!("U{}", row + 1), DURATION_S as f64, samples);
        let user = Addr::User(UserId::new(user_index as u64));
        let mut cells = vec![format!("U{}", row + 1)];
        for label in columns {
            let (i, spec) = full
                .nodes
                .iter()
                .enumerate()
                .find(|(_, n)| n.label == label)
                .expect("roster label");
            let node = Addr::Node(NodeId::new(i as u64));
            let rtt = net.mean_rtt(user, node).expect("static topology");
            let xfer = net
                .transfer_delay(user, node, FRAME_SIZE)
                .expect("static topology");
            let e2e = rtt + xfer + spec.hw.base_frame_time();
            let marker = if selected == Some(NodeId::new(i as u64)) {
                "*"
            } else {
                ""
            };
            cells.push(format!("{}{}", ms(e2e.as_millis_f64()), marker));
        }
        rows.push(cells);
    }

    let mut header = vec!["client"];
    header.extend(columns);
    print_table(
        "Table III — pairwise end-to-end latency (ms); * = node picked by client-centric selection",
        &header,
        &rows,
    );
    println!("\npaper shape: each user's selected cell is its row minimum;");
    println!("U1 -> V1 (38), U2 -> V2 (35), U3 -> D6 (42) in the paper's instance.");
}
