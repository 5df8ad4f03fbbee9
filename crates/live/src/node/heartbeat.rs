//! The node's link to its manager: registration, heartbeats off the
//! reactor's timer wheel, and reconnection.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use armada_reactor::{Conn, ConnCtx, Handle};
use armada_trace::Severity;
use armada_types::Backoff;
use armada_wire::{decode_response, Codec, Request, Response, WireNodeStatus};

use super::{NodeState, HEARTBEAT_RPC_TIMEOUT};

/// Backoff between manager reconnect attempts after the heartbeat link
/// drops. Without reconnection a single manager restart permanently
/// orphans the node: its registration ages past the liveness window
/// and discovery never offers it again.
const HEARTBEAT_RECONNECT: Backoff = Backoff::from_millis(100, 2_000);

#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum HbPhase {
    /// Between heartbeats; the pending timer is the period.
    Idle,
    /// A heartbeat is in flight; the pending timer is the RPC budget.
    AwaitingHeartbeat,
    /// An in-place re-registration is in flight (the manager answered
    /// a heartbeat with an error: restart, eviction).
    AwaitingReregister,
    /// A fresh-link registration is in flight (reconnect after loss).
    AwaitingRegister,
}

/// Keeps the manager link alive for the node's lifetime: heartbeats
/// every period off the timer wheel, re-registers in place when the
/// manager answers with an error (a restarted manager has forgotten
/// us), and redials under [`HEARTBEAT_RECONNECT`] backoff when the
/// link dies outright. Reactor shutdown tears connections down without
/// callbacks, so reconnection never fights a node shutdown.
pub(super) struct HbConn {
    pub(super) state: Arc<NodeState>,
    pub(super) manager: SocketAddr,
    pub(super) listen_addr: SocketAddr,
    pub(super) period: Duration,
    pub(super) phase: HbPhase,
    /// The link has served at least one successful registration; loss
    /// of an established link traces `node.heartbeat.lost` (once per
    /// outage, not once per failed redial).
    pub(super) established: bool,
    /// Redial attempt index within the current outage.
    pub(super) attempt: u32,
    /// Set on the link `bind` opens: takes the outcome of the boot
    /// registration `bind` waits on. A boot link that fails before the
    /// manager's first reply ends there, with no redial: `bind` returns
    /// the error instead.
    pub(super) boot: Option<mpsc::Sender<io::Result<()>>>,
}

impl HbConn {
    /// The node's status; the core's lock is held for the read alone.
    fn status(&self) -> WireNodeStatus {
        self.state.core().node.status().into()
    }

    fn register_body(&self) -> Vec<u8> {
        Codec::Binary.encode_request(&Request::Register {
            status: self.status(),
            listen_addr: self.listen_addr.to_string(),
        })
    }

    fn heartbeat_body(&self) -> Vec<u8> {
        Codec::Binary.encode_request(&Request::Heartbeat {
            status: self.status(),
        })
    }

    /// Hands `outcome` to the `bind` waiting on this link, if it is the
    /// boot link and still unsettled; `false` otherwise.
    fn settle_boot(&mut self, outcome: io::Result<()>) -> bool {
        let Some(waiting) = self.boot.take() else {
            return false;
        };
        let _ = waiting.send(outcome);
        true
    }
}

impl Conn for HbConn {
    fn on_connected(&mut self, ctx: &mut ConnCtx) {
        // Every link, the boot one and each redial, registers before
        // anything else.
        ctx.send(self.register_body());
        self.phase = HbPhase::AwaitingRegister;
        ctx.set_timer(HEARTBEAT_RPC_TIMEOUT);
    }

    fn on_timer(&mut self, ctx: &mut ConnCtx) {
        match self.phase {
            HbPhase::Idle => {
                ctx.send(self.heartbeat_body());
                self.phase = HbPhase::AwaitingHeartbeat;
                ctx.set_timer(HEARTBEAT_RPC_TIMEOUT);
            }
            // An RPC blew its budget: a silently partitioned manager
            // must fail the heartbeat rather than hang it forever.
            _ => {
                let late = io::Error::new(io::ErrorKind::TimedOut, "manager did not answer");
                self.settle_boot(Err(late));
                ctx.close();
            }
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        let Ok((response, _)) = decode_response(&frame) else {
            ctx.close();
            return;
        };
        match self.phase {
            HbPhase::AwaitingHeartbeat => {
                if matches!(response, Response::Error { .. }) {
                    // The manager is up but no longer knows this node
                    // (restart, eviction): re-register on the same
                    // link.
                    self.state
                        .trace(Severity::Warn, "node.heartbeat.reregister", &[]);
                    ctx.send(self.register_body());
                    self.phase = HbPhase::AwaitingReregister;
                    ctx.set_timer(HEARTBEAT_RPC_TIMEOUT);
                } else {
                    self.phase = HbPhase::Idle;
                    ctx.set_timer(self.period);
                }
            }
            // The in-place re-registration outcome is not inspected
            // (matching the original loop): the next heartbeat probes
            // the result either way.
            HbPhase::AwaitingReregister => {
                self.phase = HbPhase::Idle;
                ctx.set_timer(self.period);
            }
            HbPhase::AwaitingRegister => {
                if !self.settle_boot(Ok(())) {
                    let attempts = u64::from(self.attempt) + 1;
                    self.state.trace(
                        Severity::Info,
                        "node.heartbeat.reconnected",
                        &[("attempts", attempts)],
                    );
                }
                self.established = true;
                self.attempt = 0;
                self.phase = HbPhase::Idle;
                ctx.set_timer(self.period);
            }
            HbPhase::Idle => {} // stray frame: ignore
        }
    }

    fn on_close(&mut self, err: Option<&io::Error>, handle: &Handle) {
        let failed = match err {
            Some(e) => io::Error::new(e.kind(), e.to_string()),
            None => io::Error::new(io::ErrorKind::ConnectionAborted, "manager closed the link"),
        };
        if self.settle_boot(Err(failed)) || handle.is_shutdown() {
            return;
        }
        let attempt = if self.established {
            self.state.trace(Severity::Warn, "node.heartbeat.lost", &[]);
            0
        } else {
            self.attempt.saturating_add(1)
        };
        // Redial under capped jittered backoff until the manager
        // answers a fresh registration.
        let delay = HEARTBEAT_RECONNECT.delay(attempt, self.state.cfg.id);
        let next = HbConn {
            state: Arc::clone(&self.state),
            manager: self.manager,
            listen_addr: self.listen_addr,
            period: self.period,
            phase: HbPhase::Idle,
            established: false,
            attempt,
            boot: None,
        };
        let manager = self.manager;
        handle.timer_after(delay, move |h| {
            h.connect(manager, HEARTBEAT_RPC_TIMEOUT, Box::new(next));
        });
    }
}
