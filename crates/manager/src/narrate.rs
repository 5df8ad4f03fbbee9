//! The manager's side of the trace, written once: the simulator's
//! manager tier and the live manager call these where a registry or
//! shard method returns, with their own tracer and timestamp, so the two
//! traces of one scenario agree field for field.

use armada_trace::{u, Severity, Tracer};
use armada_types::{NodeId, ShardId};

/// A driver's tracer and its clock reading: virtual microseconds in the
/// simulator, [`Tracer::now_us`] in the live runtime.
#[derive(Debug, Clone, Copy)]
pub struct Narrator<'a> {
    tracer: &'a Tracer,
    t_us: u64,
}

/// One event through a [`Narrator`]; the fields are built only if the
/// tracer takes the event (a disabled one builds no vector).
macro_rules! event {
    ($n:expr, $sev:ident, $kind:expr, $($key:literal => $value:expr),* $(,)?) => {
        $n.tracer.emit_at($n.t_us, Severity::$sev, $kind, || vec![$(($key, $value)),*])
    };
}

impl<'a> Narrator<'a> {
    /// Events written through this narrator are stamped `t_us`.
    pub fn at(tracer: &'a Tracer, t_us: u64) -> Self {
        Narrator { tracer, t_us }
    }

    /// `node.register`: `shard` accepted `node`'s registration (a
    /// registration no shard accepted is not narrated).
    pub fn registered(&self, node: NodeId, shard: ShardId) {
        event!(self, Info, "node.register",
            "node" => u(node.as_u64()), "shard" => u(shard.as_u64()));
    }

    /// `mgr.prune`: housekeeping forgot `pruned` own registrations; a
    /// pass that forgot none says nothing.
    pub fn pruned(&self, pruned: usize) {
        if pruned > 0 {
            event!(self, Info, "mgr.prune", "pruned" => u(pruned as u64));
        }
    }

    /// `fed.sync`: `shard` received `from`'s push and applied `applied`
    /// of its summaries (a summary of one of `shard`'s own nodes is
    /// refused).
    pub fn synced(&self, shard: ShardId, from: ShardId, applied: u64) {
        event!(self, Debug, "fed.sync",
            "shard" => u(shard.as_u64()), "from" => u(from.as_u64()), "applied" => u(applied));
    }
}

#[cfg(test)]
mod tests {
    use armada_trace::{inspect, MemorySink};

    use super::*;

    #[test]
    fn each_event_carries_its_fields() {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        Narrator::at(&tracer, 10).registered(NodeId::new(3), ShardId::new(1));
        Narrator::at(&tracer, 20).pruned(0);
        Narrator::at(&tracer, 30).pruned(2);
        Narrator::at(&tracer, 40).synced(ShardId::new(1), ShardId::new(0), 5);
        let events = inspect::parse_jsonl(&buffer.lock().unwrap()).expect("trace parses");
        let lines: Vec<String> = events
            .iter()
            .map(|e| {
                let fields = e
                    .fields
                    .iter()
                    .map(|(k, v)| format!(" {k}={}", v.as_u64().unwrap()));
                format!("{} {}{}", e.t_us, e.kind, fields.collect::<String>())
            })
            .collect();
        assert_eq!(
            lines,
            [
                "10 node.register node=3 shard=1",
                "30 mgr.prune pruned=2",
                "40 fed.sync shard=1 from=0 applied=5",
            ]
        );
    }
}
