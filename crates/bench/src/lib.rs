//! Shared plumbing for the experiment harness.
//!
//! The `paper` binary regenerates the tables and figures of the paper,
//! one module each (see `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for the recorded outcomes). Beside it,
//! `discover_scale` times the discovery engine as the fleet grows and
//! `trace_inspect` reads the traces the experiments capture. Run one
//! with, e.g.:
//!
//! ```text
//! cargo run --release -p armada-bench --bin paper -- fig5 --threads 4
//! ```
//!
//! An experiment prints both a human-readable table and (where a figure
//! is a line/CDF plot) CSV series ready for any plotting tool.
//! Independent experiment units run on the shared [`Harness`] worker
//! pool (`--threads N` / `ARMADA_BENCH_THREADS`, default all cores) with
//! results returned in spec order, so stdout is identical at every
//! thread count; each also writes a machine-readable `BENCH_<name>.json`
//! run report (see `EXPERIMENTS.md` for the schema).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;

pub use harness::{Harness, RunSpec};

use std::path::PathBuf;

use armada_metrics::render_table;
use armada_trace::{Severity, Tracer};

/// Where the trace for one experiment unit goes, honouring
/// `ARMADA_TRACE` (a directory; created on demand). `None` when tracing
/// is off. The file is `TRACE_<bin>_<label>.jsonl` with `/` in labels
/// flattened to `_` so labels like `users=15/client-centric` stay one
/// path component.
pub fn trace_path(bin: &str, label: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("ARMADA_TRACE")?);
    let label = label.replace('/', "_");
    Some(dir.join(format!("TRACE_{bin}_{label}.jsonl")))
}

/// Builds the tracer for one experiment unit: a JSONL sink under
/// `ARMADA_TRACE` filtered at `ARMADA_TRACE_LEVEL` (default `debug`),
/// or a disabled tracer when `ARMADA_TRACE` is unset or the sink cannot
/// be created.
pub fn tracer_for(bin: &str, label: &str) -> Tracer {
    let Some(path) = trace_path(bin, label) else {
        return Tracer::disabled();
    };
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            return Tracer::disabled();
        }
    }
    let min = std::env::var("ARMADA_TRACE_LEVEL")
        .ok()
        .and_then(|level| Severity::parse(&level))
        .unwrap_or(Severity::Debug);
    Tracer::jsonl(&path, min).unwrap_or_else(|_| Tracer::disabled())
}

/// Parses `--flag a,b,c` (or `--flag=a,b,c`) off the command line into
/// a list; `default` when the flag is absent or lists nothing.
///
/// # Panics
///
/// Panics on an element that does not parse as `T`.
pub fn list_arg<T: std::str::FromStr + Clone>(flag: &str, default: &[T]) -> Vec<T> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        let value = match arg.strip_prefix(&format!("{flag}=")) {
            Some(v) => Some(v.to_owned()),
            None if arg == flag => args.get(i + 1).cloned(),
            None => None,
        };
        if let Some(value) = value {
            let parsed: Vec<T> = value
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .unwrap_or_else(|_| panic!("bad {flag} value `{s}`"))
                })
                .collect();
            if !parsed.is_empty() {
                return parsed;
            }
        }
    }
    default.to_vec()
}

/// Parses the single-valued `--flag v`: the first element of
/// [`list_arg`], `default` when absent.
pub fn arg<T: std::str::FromStr + Clone>(flag: &str, default: T) -> T {
    list_arg(flag, &[default]).swap_remove(0)
}

/// Splitmix-style deterministic generator — placements must not depend
/// on platform RNGs. [`Rng::new`] scrambles a small seed into the raw
/// state.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream differs even between adjacent seeds.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        armada_types::mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`0` when `n` is 0).
    pub fn range(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Prints a titled, aligned table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    print!("{}", render_table(header, rows));
}

/// Prints a titled CSV block (for series destined for a plotting tool).
pub fn print_csv(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n-- {title} (csv) --");
    print!("{}", armada_metrics::render_csv(header, rows));
}

/// Formats a millisecond quantity to one decimal.
pub fn ms(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats a `SimDuration` in milliseconds to one decimal.
pub fn dur_ms(d: armada_types::SimDuration) -> String {
    ms(d.as_millis_f64())
}
