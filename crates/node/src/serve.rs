//! The node's one dispatcher: a wire request in, the core call it names,
//! its narration, and the answer out. The simulator and the live node
//! both enter an [`EdgeNode`] through [`serve`].

use armada_types::{SimTime, UserId};
use armada_wire::{Request, Response};
use armada_workload::Frame;

use crate::narrate::Narrator;
use crate::node::{EdgeNode, NodeAction};

/// Answers one node request at `now`, narrated through `trace`.
///
/// Returns the response, and appends the actions its runtime must carry
/// out to `actions`, a buffer the runtime keeps. A `Frame` has no
/// response yet: it is answered by the [`NodeAction::Respond`] its
/// completion produces, keyed by the frame's `(user, seq)`. A manager's
/// request is answered with [`Response::Error`] and changes nothing.
pub fn serve(
    node: &mut EdgeNode,
    request: Request,
    now: SimTime,
    trace: Narrator<'_>,
    actions: &mut Vec<NodeAction>,
) -> Option<Response> {
    let response = match request {
        Request::RttProbe => Response::RttPong,
        Request::ProcessProbe => {
            let reply = node.process_probe(now, actions);
            Response::ProbeReply {
                whatif_us: reply.whatif_proc.as_micros(),
                current_us: reply.current_proc.as_micros(),
                attached: reply.attached_users,
                seq: reply.seq_num,
            }
        }
        Request::Join { user, seq } => {
            let user = UserId::new(user);
            let accepted = node.join(user, seq, now, actions).is_ok();
            trace.joined(node, user, accepted);
            Response::JoinResult { accepted }
        }
        Request::UnexpectedJoin { user } => {
            let user = UserId::new(user);
            node.unexpected_join(user, now, actions);
            trace.unexpected_join(node, user);
            Response::Ack
        }
        Request::Leave { user } => {
            let user = UserId::new(user);
            let detached = node.leave(user, now, actions);
            trace.left(node, user, detached);
            Response::Ack
        }
        Request::Frame { user, seq, .. } => {
            let frame = Frame::live(UserId::new(user), seq, now);
            node.offload(frame, now, actions);
            return None;
        }
        other => {
            let message = format!("node cannot serve {other:?}");
            Response::Error { message }
        }
    };
    Some(response)
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use armada_trace::{inspect, MemorySink, Severity, Tracer};
    use armada_types::{GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration};
    use armada_wire::test_fixtures;

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

    /// Every event as `t_us kind`, in order.
    fn kinds(buffer: &Mutex<String>) -> Vec<String> {
        let events = inspect::parse_jsonl(&buffer.lock().unwrap()).expect("trace parses");
        events
            .iter()
            .map(|e| format!("{} {}", e.t_us, e.kind))
            .collect()
    }

    /// Each Table I request gets its answer, and each change of
    /// membership its event, stamped with the caller's `t_us`.
    #[test]
    fn each_node_request_is_answered_and_narrated_at_the_callers_time() {
        let (tracer, buffer) = tracer();
        let mut n = node();
        let mut ask = |request, t_us| {
            let now = SimTime::from_micros(t_us);
            serve(
                &mut n,
                request,
                now,
                Narrator::at(&tracer, t_us),
                &mut Vec::new(),
            )
        };
        assert_eq!(ask(Request::RttProbe, 10), Some(Response::RttPong));
        let probe = Some(Response::ProbeReply {
            whatif_us: 20_000,
            current_us: 20_000,
            attached: 0,
            seq: 0,
        });
        assert_eq!(ask(Request::ProcessProbe, 20), probe);
        let joined = Some(Response::JoinResult { accepted: true });
        assert_eq!(ask(Request::Join { user: 7, seq: 0 }, 30), joined);
        let refused = Some(Response::JoinResult { accepted: false });
        assert_eq!(ask(Request::Join { user: 8, seq: 0 }, 40), refused);
        let failover = Request::UnexpectedJoin { user: 8 };
        assert_eq!(ask(failover, 50), Some(Response::Ack));
        assert_eq!(ask(Request::Leave { user: 7 }, 60), Some(Response::Ack));
        assert_eq!(
            kinds(&buffer),
            [
                "30 node.join",
                "40 node.join.rejected",
                "50 node.unexpected_join",
                "60 node.detach",
            ]
        );
    }

    /// A manager's request sent to a node is refused, and the node is
    /// left as it was: same `seqNum`, same users, same counters, no
    /// event.
    #[test]
    fn a_manager_request_is_refused_and_changes_nothing() {
        let (tracer, buffer) = tracer();
        let mut n = node();
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        n.join(
            UserId::new(7),
            reply.seq_num,
            SimTime::ZERO,
            &mut Vec::new(),
        )
        .unwrap();
        let manager_requests: Vec<Request> = test_fixtures::all_requests()
            .into_iter()
            .filter(|r| {
                matches!(
                    r,
                    Request::Register { .. }
                        | Request::Heartbeat { .. }
                        | Request::Discover { .. }
                        | Request::SyncSummaries { .. }
                )
            })
            .collect();
        assert_eq!(manager_requests.len(), 4);
        let (seq, stats) = (n.seq_num(), n.stats());
        for request in manager_requests {
            let now = SimTime::from_millis(1);
            let mut actions = Vec::new();
            let response = serve(&mut n, request, now, Narrator::at(&tracer, 1), &mut actions);
            assert!(
                matches!(response, Some(Response::Error { .. })),
                "{response:?}"
            );
            assert!(actions.is_empty());
        }
        assert_eq!(n.seq_num(), seq);
        assert_eq!(n.attached_users().collect::<Vec<_>>(), [UserId::new(7)]);
        assert_eq!(n.stats(), stats);
        assert!(kinds(&buffer).is_empty());
    }

    /// A frame is answered later: no response now, then a `Respond`
    /// keyed by the frame's `(user, seq)` once the executor finishes it.
    #[test]
    fn a_frame_is_answered_by_its_completion() {
        let mut n = node();
        let request = Request::Frame {
            user: 3,
            seq: 11,
            payload_len: 20_000,
        };
        let off = Tracer::disabled();
        let trace = Narrator::at(&off, 0);
        let mut actions = Vec::new();
        let response = serve(&mut n, request, SimTime::ZERO, trace, &mut actions);
        assert_eq!(response, None);
        assert!(actions.is_empty());
        let (epoch, at) = n.next_wakeup(SimTime::ZERO).expect("the frame is running");
        n.on_wakeup(epoch, at, &mut actions);
        let done: Vec<_> = actions
            .into_iter()
            .filter_map(|action| match action {
                NodeAction::Respond(done) => Some((done.user, done.seq)),
                NodeAction::InvokeTestWorkload { .. } => None,
            })
            .collect();
        assert_eq!(done, [(UserId::new(3), 11)]);
    }
}
