//! The metric tables `BENCHMARK.json` fixes, and what one workload run
//! hands back.

use std::collections::BTreeMap;

use armada_json::Json;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// The four workloads, in the order `perf run` executes them.
pub const WORKLOADS: [&str; 4] = ["session_setup", "frame_stream", "fleet_mixed", "sim_metro"];

/// End-to-end metrics. Every workload reports every one of them; what
/// each means on each workload is in the README's table.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_latency_us_p50", "us", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Per-layer metrics, all taken by a `--trace 1` run. The first block
/// is the ladder (the same on every workload); the rest describe the
/// traced workload itself and read zero where it has no such stage.
pub const PER_LAYER: [MetricDef; 69] = [
    layer("wire.frame_codec_ns", "ns", false),
    layer("wire.discover_codec_ns", "ns", false),
    layer("wire.heartbeat_codec_ns", "ns", false),
    layer("wire.sync_codec_us", "us", false),
    layer("wire.json_frame_codec_ns", "ns", false),
    layer("wire.frame_bytes", "bytes", false),
    layer("wire.discover_bytes", "bytes", false),
    layer("reactor.echo_rtt_us_p50", "us", false),
    layer("reactor.pool_echo_rtt_us_p50", "us", false),
    layer("reactor.accept_echo_us_p50", "us", false),
    layer("reactor.udp_echo_rtt_us_p50", "us", false),
    layer("reactor.timer_lag_us_p50", "us", false),
    layer("manager.snapshot_discover_us_p50", "us", false),
    layer("manager.publish_us_p50", "us", false),
    layer("manager.heartbeat_ns", "ns", false),
    layer("federation.sync_round_us", "us", false),
    layer("federation.discover_us_p50", "us", false),
    layer("live.manager.register_us", "us", false),
    layer("live.manager.discover_idle_us_p50", "us", false),
    layer("live.manager.heartbeat_idle_us_p50", "us", false),
    layer("live.manager.discover_fresh_conn_us_p50", "us", false),
    layer("live.manager.false_dead", "count", false),
    layer("live.node.frame_rtt_us_p50", "us", false),
    layer("live.node.udp_probe_rtt_us_p50", "us", false),
    layer("live.node.tcp_probe_rtt_us_p50", "us", false),
    layer("live.node.join_rtt_us_p50", "us", false),
    layer("client.rank_candidates_ns", "ns", false),
    layer("client.predictor_observe_ns", "ns", false),
    layer("workload.ps_executor_ns", "ns", false),
    layer("sim.queue_push_pop_ns", "ns", false),
    layer("sim.engine_events_per_s", "1/s", true),
    layer("net.sample_delay_ns", "ns", false),
    layer("core.build_s", "s", false),
    layer("core.realworld15_frames_per_s", "1/s", true),
    layer("core.realworld15_latency_ms_mean", "ms", false),
    layer("trace.emit_disabled_ns", "ns", false),
    layer("trace.emit_memory_ns", "ns", false),
    // From here on: the traced workload itself.
    layer("trace.overhead_ratio", "ratio", false),
    layer("trace.events_per_op", "count", false),
    layer("live.client.discover_us_p50", "us", false),
    layer("live.client.probe_round_us_p50", "us", false),
    layer("live.client.join_us_p50", "us", false),
    layer("live.client.first_frame_us_p50", "us", false),
    layer("live.client.frame_gap_us_p50", "us", false),
    layer("live.client.frame_overhead_us", "us", false),
    layer("live.op_latency_us_p99", "us", false),
    layer("live.op_latency_us_p999", "us", false),
    layer("live.op_samples", "count", true),
    layer("live.side_latency_us_p50", "us", false),
    layer("live.side_latency_us_p99", "us", false),
    layer("live.side_samples", "count", true),
    layer("core.sim_frames", "count", true),
    layer("core.sim_latency_ms_mean", "ms", false),
    layer("core.sim_latency_ms_p99", "ms", false),
    layer("raw.op_latency_us_p50", "us", false),
    layer("raw.ops_per_s", "1/s", true),
    layer("proc.cpu_us_per_op", "us", false),
    layer("alloc.count_per_op", "count", false),
    layer("alloc.bytes_per_op", "bytes", false),
    layer("gen.heartbeat_late_ms_p99", "ms", false),
    layer("gen.heartbeat_from_due_ms_p50", "ms", false),
    layer("gen.rounds_clean", "count", true),
    layer("gen.rounds_total", "count", true),
    layer("gen.steal_ratio", "ratio", false),
    layer("gen.reference_ratio", "ratio", false),
    layer("gen.rpc_frame_share", "ratio", true),
    layer("gen.rpc_exchanges_per_op", "count", false),
    layer("gen.open_sockets", "count", false),
    layer("gen.spans", "count", true),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run
    /// incorrect and the process exit nonzero.
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Quartile spread of a metric across the run's own rounds, where
    /// it was taken per round.
    pub spreads: BTreeMap<&'static str, f64>,
    /// Too few clean rounds: the medians include stolen time.
    pub noisy: bool,
    /// Lines for the human reader: how far to believe the run.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: Option<f64>, spread: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => {
                self.values.insert(name, v);
            }
            _ => self.problems.push(format!("{name}: nothing was measured")),
        }
        if let Some(s) = spread {
            self.spreads.insert(name, s);
        }
    }

    /// A value that has no per-round spread.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.set(name, Some(value), None);
    }

    /// `traced ÷ untraced`, zero when nothing untraced was measured.
    pub fn put_overhead_ratio(&mut self, traced: f64, untraced: f64) {
        let ratio = if untraced > 0.0 {
            traced / untraced
        } else {
            0.0
        };
        self.put("trace.overhead_ratio", ratio);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The one-line result the driver reads, with exactly the metrics
    /// of `defs`: a metric this run has no value for reads zero.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<(String, Json)> = defs
            .iter()
            .map(|d| {
                let value = self.values.get(d.name).copied().unwrap_or(0.0);
                (
                    d.name.to_string(),
                    Json::object(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        armada_json::to_string(&Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the program prints: they must not drift apart.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.require(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.require("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = json.require(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.require("name").unwrap().as_str(), Some(d.name));
                assert_eq!(
                    m.require("unit").unwrap().as_str(),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    m.require("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    d.name
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("setup_s", Some(0.5), None);
        let line = o.result_line(&END_TO_END);
        let json = Json::parse(&line).unwrap();
        let Json::Object(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Object(metrics) = json.require("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(json.require("correct").unwrap().as_bool(), Some(true));
        let setup = json.require("metrics").unwrap().require("setup_s").unwrap();
        assert_eq!(setup.require("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(setup.require("unit").unwrap().as_str(), Some("s"));
    }
}
