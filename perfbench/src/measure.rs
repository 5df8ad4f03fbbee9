//! From a generator's raw samples to the end-to-end metrics.

use crate::host;
use crate::reference::{self, Walk};
use crate::report::Outcome;
use crate::rounds::{self, Boundary, Round, Selection};
use crate::stats;

/// One primary operation: when it started, when it completed, and how
/// many units of work it stands for (a 500-frame session is 500).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRec {
    pub start_ns: u64,
    pub done_ns: u64,
    pub weight: f64,
}

/// An empty vector for `capacity` samples whose pages are already
/// resident, and counted, so that `peak_rss_mb` can leave them out.
/// Filled lazily, a log grows with the number of operations a run gets
/// through, and `frame_stream`'s peak memory followed its throughput
/// (9.6–11.5 MB over ten runs). `fill` must not be all zero bits, or
/// the allocator hands back untouched zero pages.
pub fn log_buffer<T: Clone>(capacity: usize, fill: T) -> Vec<T> {
    let mut log = vec![fill; capacity];
    log.clear();
    host::note_own_bytes(capacity * std::mem::size_of::<T>());
    log
}

/// What a generator thread collects, in buffers made resident up front:
/// the measured region neither reallocates them nor faults them in.
#[derive(Debug, Default)]
pub struct Samples {
    pub ops: Vec<OpRec>,
    /// `(completion time, µs)` of each primary operation.
    pub op_latency_us: Vec<(u64, f64)>,
    /// `(completion time, µs)` of the workload's second latency.
    pub side_latency_us: Vec<(u64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Capacity the three logs started with.
    reserved: [usize; 3],
}

impl Samples {
    /// Room for a run of `seconds` at up to `ops_per_s` primary
    /// operations and `side_per_s` second latencies a second.
    pub fn for_run(seconds: u64, ops_per_s: usize, side_per_s: usize) -> Samples {
        let seconds = seconds as usize + 2;
        let (ops, side) = (seconds * ops_per_s, seconds * side_per_s);
        let blank = OpRec {
            start_ns: 1,
            done_ns: 1,
            weight: 1.0,
        };
        Samples {
            ops: log_buffer(ops, blank),
            op_latency_us: log_buffer(ops, (1, 1.0)),
            side_latency_us: log_buffer(side, (1, 1.0)),
            reserved: [ops, ops, side],
            ..Samples::default()
        }
    }

    /// Whether a log outgrew its buffer, and `peak_rss_mb` therefore
    /// holds some of it.
    pub fn outgrown(&self) -> bool {
        let now = [
            self.ops.capacity(),
            self.op_latency_us.capacity(),
            self.side_latency_us.capacity(),
        ];
        now.iter().zip(self.reserved).any(|(now, then)| *now > then)
    }

    /// Notes a failed operation; the first few say why.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why());
        }
    }
}

/// Work completed inside `round`, counting an operation that straddles
/// a boundary by the share of it that overlaps. Whole-operation
/// counting would quantise a round of eleven-or-twelve long sessions
/// into steps of 8 %.
pub fn work_in_round(ops: &[OpRec], round: &Round) -> f64 {
    ops.iter()
        .map(|op| {
            let lo = op.start_ns.max(round.start_ns);
            let hi = op.done_ns.min(round.end_ns);
            if hi <= lo {
                0.0
            } else if op.done_ns == op.start_ns {
                op.weight
            } else {
                op.weight * (hi - lo) as f64 / (op.done_ns - op.start_ns) as f64
            }
        })
        .sum()
}

/// The rounds of a paced run, which of them count, and how fast the
/// host was meanwhile.
pub struct Paced {
    pub rounds: Vec<Round>,
    pub selection: Selection,
    /// Measured ÷ nominal cost of the reference walk over the rounds
    /// (`reference::ratio`); one until `with_reference` says otherwise.
    pub reference_ratio: f64,
}

impl Paced {
    pub fn from_boundaries(boundaries: &[Boundary]) -> Paced {
        Paced::from_rounds(rounds::rounds_of(boundaries))
    }

    pub fn from_rounds(rounds: Vec<Round>) -> Paced {
        let clean: Vec<bool> = rounds.iter().map(Round::is_clean).collect();
        Paced {
            selection: rounds::select(&clean),
            rounds,
            reference_ratio: 1.0,
        }
    }

    /// Takes the host's speed from the walks that ended during the
    /// rounds; without any, values stay as measured.
    pub fn with_reference(mut self, walks: &[Walk]) -> Paced {
        let from_ns = self.rounds.first().map_or(0, |r| r.start_ns);
        let to_ns = self.rounds.last().map_or(0, |r| r.end_ns);
        self.reference_ratio = reference::ratio(walks, from_ns, to_ns).unwrap_or(1.0);
        self
    }

    /// Mean steal fraction over every round of the run.
    pub fn steal_ratio(&self) -> f64 {
        let n = self.rounds.len().max(1) as f64;
        self.rounds.iter().map(|r| r.steal).sum::<f64>() / n
    }

    /// Per-round nearest-rank percentile of `(time, value)` samples.
    pub fn per_round_percentile(&self, samples: &[(u64, f64)], q: f64) -> Vec<Option<f64>> {
        rounds::bin(samples, &self.rounds)
            .into_iter()
            .map(|mut bin| stats::percentile(&mut bin, q))
            .collect()
    }

    /// The value of a lower-is-better statistic (latency, cost).
    pub fn reduce_low(&self, per_round: &[Option<f64>]) -> (Option<f64>, Option<f64>) {
        rounds::reduce(per_round, &self.selection, false)
    }

    /// The value of a higher-is-better statistic (rate).
    pub fn reduce_high(&self, per_round: &[Option<f64>]) -> (Option<f64>, Option<f64>) {
        rounds::reduce(per_round, &self.selection, true)
    }
}

/// Fills in the round-derived end-to-end metrics and the `gen.*`
/// believability numbers from one generator's samples.
pub fn fill_end_to_end(out: &mut Outcome, paced: &Paced, samples: &Samples) {
    let work: Vec<f64> = paced
        .rounds
        .iter()
        .map(|r| work_in_round(&samples.ops, r))
        .collect();
    let per_work = |f: &dyn Fn(&Round) -> f64| -> Vec<Option<f64>> {
        paced
            .rounds
            .iter()
            .zip(&work)
            .map(|(r, &w)| (w > 0.0).then(|| f(r) / w))
            .collect()
    };

    // The two gated times go out at reference speed, and as measured
    // under `raw.`: on a host running at 1.2 × the nominal walk cost, a
    // latency is divided by 1.2 and a rate multiplied by it.
    let ratio = paced.reference_ratio;
    out.put("gen.reference_ratio", ratio);

    let p50 = paced.per_round_percentile(&samples.op_latency_us, 0.5);
    let (v, s) = paced.reduce_low(&p50);
    out.set("raw.op_latency_us_p50", v, s);
    out.set("op_latency_us_p50", v.map(|v| v / ratio), s);

    let rate: Vec<Option<f64>> = paced
        .rounds
        .iter()
        .zip(&work)
        .map(|(r, &w)| (w > 0.0).then(|| w / r.seconds()))
        .collect();
    let (v, s) = paced.reduce_high(&rate);
    out.set("raw.ops_per_s", v, s);
    out.set("ops_per_s", v.map(|v| v * ratio), s);
    out.notes.push(format!(
        "per round, ops/s then steal %: {}",
        rate.iter()
            .zip(&paced.rounds)
            .map(|(r, round)| format!("{:.0}/{:.0}", r.unwrap_or(0.0), round.steal * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let side = paced.per_round_percentile(&samples.side_latency_us, 0.5);
    let (v, s) = paced.reduce_low(&side);
    out.set("live.side_latency_us_p50", v, s);

    let (v, s) = paced.reduce_low(&per_work(&|r| r.cpu_ns as f64 / 1e3));
    out.set("proc.cpu_us_per_op", v, s);

    // Counted only in a traced run.
    if paced.rounds.iter().any(|r| r.allocs > 0) {
        let allocs = per_work(&|r| r.allocs as f64);
        out.set("alloc.count_per_op", paced.reduce_low(&allocs).0, None);
        let bytes = per_work(&|r| r.alloc_bytes as f64);
        out.set("alloc.bytes_per_op", paced.reduce_low(&bytes).0, None);
    }

    fill_gen(out, paced);
    if samples.outgrown() {
        out.notes.push(
            "the sample log outgrew its buffer: peak_rss_mb includes part of it; raise the rate passed to Samples::for_run"
                .into(),
        );
    }
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    out.problems.extend(samples.problems.iter().cloned());
}

/// The numbers that say whether to believe the run.
pub fn fill_gen(out: &mut Outcome, paced: &Paced) {
    let sel = &paced.selection;
    out.noisy = sel.noisy;
    out.put("gen.rounds_clean", sel.clean as f64);
    out.put("gen.rounds_total", paced.rounds.len() as f64);
    out.put("gen.steal_ratio", paced.steal_ratio());
    out.notes.push(format!(
        "rounds: {} of {} clean (steal <= {:.0} %), mean steal {:.1} %{}",
        sel.clean,
        paced.rounds.len(),
        rounds::MAX_STEAL * 100.0,
        paced.steal_ratio() * 100.0,
        if sel.noisy {
            " — NOISY: too few clean rounds, every round was used"
        } else {
            ""
        }
    ));
}

/// Tail percentiles of a whole run's samples, reported only with at
/// least ten samples beyond them.
pub fn fill_tails(out: &mut Outcome, op_us: &[(u64, f64)], side_us: &[(u64, f64)]) {
    let tail = |samples: &[(u64, f64)], q: f64| -> f64 {
        let mut v: Vec<f64> = samples.iter().map(|s| s.1).collect();
        if stats::samples_beyond(v.len(), q) < 10 {
            return 0.0;
        }
        stats::percentile(&mut v, q).unwrap_or(0.0)
    };
    out.put("live.op_latency_us_p99", tail(op_us, 0.99));
    out.put("live.op_latency_us_p999", tail(op_us, 0.999));
    out.put("live.op_samples", op_us.len() as f64);
    out.put("live.side_latency_us_p99", tail(side_us, 0.99));
    out.put("live.side_samples", side_us.len() as f64);
}

/// Runs `build` `times` times, tearing each result down before the
/// next, and returns the last build with the median build time: set-up
/// is a single short event, so one run of it says little.
pub fn timed_setup<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = std::time::Instant::now();
        let built = build();
        seconds.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        last.expect("built at least once"),
        stats::median(&seconds).expect("timed at least once"),
    )
}

/// Peak memory goes in last, once everything has run: the process's
/// high-water mark less the benchmark's own sample logs and reference
/// table, which have been resident since before the peak, whenever
/// that was.
pub fn fill_peak_rss(out: &mut Outcome) {
    let own_mb = host::own_mb();
    out.put("peak_rss_mb", host::peak_rss_mb() - own_mb);
    out.notes.push(format!(
        "peak_rss_mb leaves out {own_mb:.1} MB of the benchmark's own logs and tables, resident from the start"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(start_ns: u64, end_ns: u64) -> Round {
        Round {
            start_ns,
            end_ns,
            steal: 0.0,
            cpu_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn straddling_operations_count_by_overlap() {
        let ops = [
            OpRec {
                start_ns: 0,
                done_ns: 100,
                weight: 500.0,
            },
            OpRec {
                start_ns: 100,
                done_ns: 300,
                weight: 500.0,
            },
            OpRec {
                start_ns: 300,
                done_ns: 300,
                weight: 1.0,
            },
        ];
        // First op lies before the round, the second is half inside.
        assert_eq!(work_in_round(&ops, &round(200, 1_000)), 250.0);
        assert_eq!(work_in_round(&ops, &round(0, 300)), 1_000.0);
        assert_eq!(work_in_round(&ops, &round(1_000, 2_000)), 0.0);
    }

    #[test]
    fn sample_logs_are_counted_and_notice_when_outgrown() {
        let before = host::own_mb();
        let mut samples = Samples::for_run(1, 10, 0);
        assert_eq!(samples.ops.capacity(), 30);
        assert!(samples.ops.is_empty() && samples.side_latency_us.capacity() == 0);
        let counted = (host::own_mb() - before) * 1024.0 * 1024.0;
        assert!(counted >= (30 * (24 + 16)) as f64, "counted {counted}");
        assert!(!samples.outgrown());
        samples.op_latency_us.extend((0..31).map(|i| (i, 1.0)));
        assert!(samples.outgrown());
    }

    #[test]
    fn timed_setup_reports_the_median_and_keeps_the_last() {
        let mut n = 0;
        let (built, secs) = timed_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(built, 3);
        assert!(secs >= 0.0);
    }
}
