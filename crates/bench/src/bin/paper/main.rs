//! Every table and figure of the paper, one experiment per module
//! (`DESIGN.md` §3 indexes them, `EXPERIMENTS.md` records the outcomes):
//!
//! ```text
//! cargo run --release -p armada-bench --bin paper -- fig5 --threads 4
//! cargo run --release -p armada-bench --bin paper -- all
//! ```
//!
//! An experiment builds its independent units, runs them on the shared
//! [`Harness`] and prints its tables, CSV series and shape checks; what
//! they all share — the harness, the run report and its footer — is
//! here, once.

mod ablations;
mod fig1;
mod fig10;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod robustness_sweep;
mod table2;
mod table3;

use armada_bench::Harness;
use armada_metrics::BenchReport;

/// The name on the command line, the report name (`BENCH_<name>.json`),
/// and the experiment.
type Experiment = (&'static str, &'static str, fn(&Harness, &mut BenchReport));

/// In the paper's order; `all` runs them in this order.
const EXPERIMENTS: [Experiment; 13] = [
    ("fig1", fig1::NAME, fig1::run),
    ("table2", table2::NAME, table2::run),
    ("fig3", fig3::NAME, fig3::run),
    ("table3", table3::NAME, table3::run),
    ("fig4", fig4::NAME, fig4::run),
    ("fig5", fig5::NAME, fig5::run),
    ("fig6", fig6::NAME, fig6::run),
    ("fig7", fig7::NAME, fig7::run),
    ("fig8", fig8::NAME, fig8::run),
    ("fig9", fig9::NAME, fig9::run),
    ("fig10", fig10::NAME, fig10::run),
    ("ablations", ablations::NAME, ablations::run),
    (
        "robustness_sweep",
        robustness_sweep::NAME,
        robustness_sweep::run,
    ),
];

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, ..)| wanted == "all" || wanted == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: paper <{}|all> [--threads N]", names.join("|"));
        std::process::exit(2);
    }
    let harness = Harness::from_env();
    for (_, report_name, run) in chosen {
        let mut report = BenchReport::start(*report_name, harness.threads());
        run(&harness, &mut report);
        let path = report.write().expect("write bench report");
        println!(
            "\nbench report: {} ({} runs, {:.0} ms wall)",
            path.display(),
            report.run_count(),
            report.wall_ms()
        );
    }
}
