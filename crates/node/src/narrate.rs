//! The node's side of the trace, written once: [`crate::serve`] calls
//! these where an [`EdgeNode`] method returns, and the simulator and the
//! live runtime hand it their own tracer and timestamp, so the two
//! traces of one scenario agree field for field.

use armada_trace::{u, Severity, Tracer};
use armada_types::{NodeId, SimDuration, UserId};

use crate::node::EdgeNode;

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

    /// A change of membership: `node`'s id, the user and the `seqNum`
    /// the change left behind.
    fn member(&self, kind: &str, node: &EdgeNode, user: UserId) {
        event!(self, Info, kind,
            "node" => u(node.id().as_u64()), "user" => u(user.as_u64()),
            "seq" => u(node.seq_num()));
    }

    /// `node.join` for a `Join()` that `node` accepted,
    /// `node.join.rejected` for one it turned away (Algorithm 1).
    pub fn joined(&self, node: &EdgeNode, user: UserId, accepted: bool) {
        let kind = if accepted {
            "node.join"
        } else {
            "node.join.rejected"
        };
        self.member(kind, node, user);
    }

    /// `node.unexpected_join`: a failover attach, never refused.
    pub fn unexpected_join(&self, node: &EdgeNode, user: UserId) {
        self.member("node.unexpected_join", node, user);
    }

    /// `node.detach` for a `Leave()` that `detached` the user; a leave
    /// from someone not attached changes nothing and says nothing.
    pub fn left(&self, node: &EdgeNode, user: UserId, detached: bool) {
        if detached {
            self.member("node.detach", node, user);
        }
    }

    /// `node.whatif.refresh`: the node asked for its test workload to
    /// run `after` from now (zero: at once).
    pub fn whatif_refresh(&self, node: NodeId, after: SimDuration) {
        event!(self, Debug, "node.whatif.refresh",
            "node" => u(node.as_u64()), "after_us" => u(after.as_micros()));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use armada_trace::{inspect, MemorySink};
    use armada_types::{GeoPoint, HardwareProfile, NodeClass, SimTime};

    use super::*;

    fn node() -> EdgeNode {
        EdgeNode::new(
            NodeId::new(4),
            NodeClass::Volunteer,
            HardwareProfile::new("test", 4, 20.0),
            GeoPoint::new(44.98, -93.26),
            SimDuration::from_millis(40),
            0.25,
        )
    }

    fn tracer() -> (Tracer, Arc<Mutex<String>>) {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        (Tracer::with_sink(Box::new(sink), Severity::Debug), buffer)
    }

    /// Every event as `t_us kind key=value …`, in order.
    fn lines(buffer: &Mutex<String>) -> Vec<String> {
        let events = inspect::parse_jsonl(&buffer.lock().unwrap()).expect("trace parses");
        let line = |e: &armada_trace::TraceEvent| {
            let fields = e
                .fields
                .iter()
                .map(|(k, v)| format!(" {k}={}", v.as_u64().unwrap()));
            format!("{} {}{}", e.t_us, e.kind, fields.collect::<String>())
        };
        events.iter().map(line).collect()
    }

    #[test]
    fn membership_events_carry_the_seq_the_change_left() {
        let (tracer, buffer) = tracer();
        let mut n = node();
        let (user, late) = (UserId::new(7), UserId::new(8));
        let actions = &mut Vec::new();
        let accepted = n.join(user, 0, SimTime::ZERO, actions);
        Narrator::at(&tracer, 10).joined(&n, user, accepted.is_ok());
        let refused = n.join(late, 0, SimTime::ZERO, actions);
        Narrator::at(&tracer, 20).joined(&n, late, refused.is_ok());
        n.unexpected_join(late, SimTime::ZERO, actions);
        Narrator::at(&tracer, 30).unexpected_join(&n, late);
        let detached = n.leave(user, SimTime::ZERO, actions);
        Narrator::at(&tracer, 40).left(&n, user, detached);
        let detached = n.leave(user, SimTime::ZERO, actions);
        Narrator::at(&tracer, 50).left(&n, user, detached);
        Narrator::at(&tracer, 60).whatif_refresh(n.id(), SimDuration::from_millis(40));
        assert_eq!(
            lines(&buffer),
            [
                "10 node.join node=4 user=7 seq=1",
                "20 node.join.rejected node=4 user=8 seq=1",
                "30 node.unexpected_join node=4 user=8 seq=2",
                "40 node.detach node=4 user=7 seq=3",
                "60 node.whatif.refresh node=4 after_us=40000",
            ]
        );
    }
}
