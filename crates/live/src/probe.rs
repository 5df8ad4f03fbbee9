//! The probe round as one state machine on a readiness poller it is
//! handed: every candidate is started before any is waited for — an open
//! connection gets its in-stream `RttProbe`, a new one a non-blocking
//! connect and, with UDP probes on, its UDP `RttProbe` beside it — then
//! events and clock readings are fed in until `next_deadline` is `None`,
//! so dead candidates cost a round one timeout, not one each, and none
//! costs more than the core's [`PROBE_TIMEOUT`], the round's end. It owns no
//! thread and no loop, and an event only makes it retry the non-blocking
//! call its state waits on: spurious readiness is harmless, and one loop
//! can hold many rounds, each on its own token range.

use std::cell::RefCell;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use armada_client::{ProbeResult, PROBE_TIMEOUT};
use armada_reactor::{
    connect_finished, connect_nonblocking, Event, Fill, FrameReader, Interest, Poller,
};
use armada_trace::{s, u, Severity, Tracer};
use armada_types::{NodeId, SimDuration};
use armada_wire::{decode_response, send_request, write_request};
use armada_wire::{Request, Response, UdpTransport, WireConfig, MAX_DATAGRAM_BYTES};

use crate::client::{bound, Connections, RPC_TIMEOUT};

thread_local! {
    /// What a round run on this thread waits and receives through, one a
    /// thread however many clients it runs: the poller's events, and the
    /// buffer every UDP reply lands in before it is decoded — the payload
    /// ceiling long, so none arrives truncated.
    static SCRATCH: RefCell<(Vec<Event>, Vec<u8>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// What a round is run with: `timeout` bounds each connect and each
/// in-stream exchange, half of it each UDP exchange.
#[derive(Clone, Copy)]
pub(crate) struct Terms<'a> {
    pub(crate) wire: WireConfig,
    pub(crate) timeout: Duration,
    pub(crate) tracer: &'a Tracer,
}

/// Probes `candidates` to completion on the calling thread, waiting on
/// `poller`: one outcome each, in order. A candidate that answered has
/// its connection (back) in `connections`, blocking again; a silent one
/// has lost it.
pub(crate) fn run(
    poller: &mut dyn Poller,
    terms: Terms,
    connections: &mut Connections,
    candidates: &[(u64, String)],
) -> Vec<Option<ProbeResult>> {
    let mut round = ProbeRound::start(poller, 0, terms, connections, candidates);
    SCRATCH.with_borrow_mut(|(events, datagram)| {
        datagram.resize(MAX_DATAGRAM_BYTES, 0);
        while let Some(deadline) = round.next_deadline() {
            events.clear();
            let wait = deadline.saturating_duration_since(Instant::now());
            if poller.wait(events, Some(wait)).is_err() {
                // A broken poller would spin; the deadlines still end the round.
                std::thread::sleep(Duration::from_millis(1));
            }
            for event in events.iter() {
                round.on_event(poller, datagram, event);
            }
            round.expire(poller, Instant::now());
        }
    });
    round.finish(connections)
}

/// One round in flight (see the module documentation). A candidate that
/// failed holds no probe; one that awaits nothing more has its answer.
pub(crate) struct ProbeRound<'a> {
    first_token: u64,
    terms: Terms<'a>,
    /// The round's end: a probe that has not answered by then is lost.
    until: Instant,
    probes: Vec<Option<Probe>>,
}

/// What a probe's steps work with.
struct Cx<'a> {
    poller: &'a mut dyn Poller,
    terms: Terms<'a>,
}

struct Probe {
    id: u64,
    /// The stream's poller token; the UDP socket's is the next one.
    token: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// The UDP leg while it lives. UDP first: no handshake, no Nagle, so
    /// the measured RTT is the network, not the transport; any failure
    /// falls back in-stream, so old nodes and lossy paths still work.
    udp: Option<UdpTransport>,
    /// The connect's deadline while it is in flight.
    connect_by: Option<Instant>,
    /// The outstanding exchange's deadline, on UDP or else in-stream.
    reply_by: Option<Instant>,
    /// When the leg's `RttProbe` left: the RTT runs from here to the
    /// read of its pong.
    sent: Instant,
    rtt: Option<Duration>,
    result: Option<ProbeResult>,
}

impl<'a> ProbeRound<'a> {
    /// Starts every candidate; candidate `i` is registered with `poller`
    /// under tokens `first_token + 2 * i` (stream) and the next (UDP).
    pub(crate) fn start(
        poller: &mut dyn Poller,
        first_token: u64,
        terms: Terms<'a>,
        connections: &mut Connections,
        candidates: &[(u64, String)],
    ) -> Self {
        let (cx, now) = (&mut Cx { poller, terms }, Instant::now());
        let start = |(i, (id, addr)): (usize, &(u64, String))| {
            // An open connection is re-probed in place, anything else dialled.
            let (stream, dialled) = match connections.remove(id) {
                Some(stream) => {
                    stream.set_nonblocking(true).ok()?;
                    (stream, None)
                }
                None => {
                    let addr = addr.to_socket_addrs().ok()?.next()?;
                    let (stream, in_flight) = connect_nonblocking(addr, terms.timeout).ok()?;
                    (stream, Some((addr, in_flight)))
                }
            };
            let mut probe = Probe {
                id: *id,
                token: first_token + 2 * i as u64,
                stream,
                reader: FrameReader::new(),
                udp: None,
                connect_by: matches!(dialled, Some((_, true))).then(|| now + terms.timeout),
                reply_by: None,
                sent: now,
                rtt: None,
                result: None,
            };
            let begun = probe.begin(cx, dialled.map(|(addr, _)| addr));
            probe.settle(cx, begun)
        };
        let probes = candidates.iter().enumerate().map(start).collect();
        ProbeRound {
            first_token,
            terms,
            until: now + Duration::from_micros(PROBE_TIMEOUT.as_micros()),
            probes,
        }
    }

    /// When [`ProbeRound::expire`] is next due; `None` once every
    /// candidate has answered or failed.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let probes = self.probes.iter().flatten();
        probes
            .filter_map(Probe::deadline)
            .min()
            .map(|at| at.min(self.until))
    }

    /// Feeds one readiness event; `datagram` receives a UDP reply.
    pub(crate) fn on_event(&mut self, poller: &mut dyn Poller, datagram: &mut [u8], ev: &Event) {
        let (offset, terms) = (ev.token.wrapping_sub(self.first_token), self.terms);
        let Some(slot) = self.probes.get_mut((offset / 2) as usize) else {
            return;
        };
        step(&mut Cx { poller, terms }, slot, |probe, cx| {
            match offset % 2 {
                0 => probe.on_stream(cx),
                _ => probe.on_datagram(cx, datagram),
            }
        });
    }

    /// Applies every deadline that has passed by `now`; past the
    /// round's end, every probe still waiting is lost.
    pub(crate) fn expire(&mut self, poller: &mut dyn Poller, now: Instant) {
        let cx = &mut Cx {
            poller,
            terms: self.terms,
        };
        let over = now >= self.until;
        for slot in &mut self.probes {
            step(cx, slot, |probe, cx| {
                (!over).then(|| probe.on_clock(cx, now))?
            });
        }
    }

    /// The round's outcomes; the kept connections go (back) into
    /// `connections`, blocking and bounded by the exchanges' budget.
    pub(crate) fn finish(self, connections: &mut Connections) -> Vec<Option<ProbeResult>> {
        let outcome = |probe: Option<Probe>| {
            let Probe { stream, result, .. } = probe?;
            stream.set_nonblocking(false).ok()?;
            connections.insert(result?.node.as_u64(), bound(stream, RPC_TIMEOUT).ok()?);
            result
        };
        self.probes.into_iter().map(outcome).collect()
    }
}

/// Runs one step of the probe in `slot`, if it still awaits anything.
fn step(cx: &mut Cx, slot: &mut Option<Probe>, f: impl FnOnce(&mut Probe, &mut Cx) -> Option<()>) {
    if let Some(mut probe) = slot.take_if(|probe| probe.deadline().is_some()) {
        let alive = f(&mut probe, cx);
        *slot = probe.settle(cx, alive);
    }
}

/// Each step answers `None` when the candidate has failed.
impl Probe {
    /// After a step: a probe that failed or awaits nothing more comes
    /// off the poller, and a failed one is dropped.
    fn settle(mut self, cx: &mut Cx, alive: Option<()>) -> Option<Probe> {
        if alive.is_none() || self.deadline().is_none() {
            self.drop_udp(cx);
            let _ = cx.poller.deregister(self.stream.as_raw_fd(), self.token);
        }
        alive.map(|()| self)
    }

    /// First moves: watch the stream, and send the first `RttProbe` on
    /// whichever leg can carry it already (`dialled`: where a connection
    /// opened this round leads).
    fn begin(&mut self, cx: &mut Cx, dialled: Option<SocketAddr>) -> Option<()> {
        let interest = match self.connect_by {
            Some(_) => Interest::WRITE,
            None => Interest::READ,
        };
        let fd = self.stream.as_raw_fd();
        cx.poller.register(fd, self.token, interest).ok()?;
        match dialled {
            Some(addr) if cx.terms.wire.udp_probes => match self.open_udp(cx, addr) {
                Ok(udp) => self.udp = Some(udp),
                Err(_) => return self.fall_back(cx, "connect"),
            },
            _ if self.connect_by.is_some() => return Some(()),
            _ => {}
        }
        self.send(cx, &Request::RttProbe)
    }

    fn open_udp(&self, cx: &mut Cx, addr: SocketAddr) -> std::io::Result<UdpTransport> {
        let udp = UdpTransport::connect(addr)?;
        udp.get_ref().set_nonblocking(true)?;
        let fd = udp.get_ref().as_raw_fd();
        cx.poller.register(fd, self.token + 1, Interest::READ)?;
        Ok(udp)
    }

    fn drop_udp(&mut self, cx: &mut Cx) {
        if let Some(udp) = self.udp.take() {
            let _ = cx
                .poller
                .deregister(udp.get_ref().as_raw_fd(), self.token + 1);
        }
    }

    /// Sends `request` on the active leg and arms its deadline.
    fn send(&mut self, cx: &mut Cx, request: &Request) -> Option<()> {
        let (now, codec) = (Instant::now(), cx.terms.wire.codec);
        if matches!(request, Request::RttProbe) {
            self.sent = now;
        }
        let (sent, budget) = match &mut self.udp {
            Some(udp) => (send_request(udp, codec, request), cx.terms.timeout / 2),
            None => {
                let sent = write_request(&mut self.stream, codec, request);
                (sent, cx.terms.timeout)
            }
        };
        self.reply_by = Some(now + budget);
        sent.ok().or_else(|| self.leg_lost(cx, "connect"))
    }

    /// A UDP leg that fails gives way to the stream; a stream that fails
    /// is a failed candidate.
    fn leg_lost(&mut self, cx: &mut Cx, reason: &'static str) -> Option<()> {
        self.udp.as_ref()?;
        self.fall_back(cx, reason)
    }

    /// Gives up on UDP: the probe restarts in-stream, at once or when
    /// the connect completes.
    fn fall_back(&mut self, cx: &mut Cx, reason: &'static str) -> Option<()> {
        let fields = || vec![("node", u(self.id)), ("reason", s(reason))];
        let tracer = cx.terms.tracer;
        tracer.emit(Severity::Debug, "probe.udp.fallback", fields);
        self.drop_udp(cx);
        (self.rtt, self.reply_by) = (None, None);
        match self.connect_by {
            Some(_) => Some(()),
            None => self.send(cx, &Request::RttProbe),
        }
    }

    /// The stream is ready: its connect has an outcome, or a reply (or
    /// the stream's end) can be read.
    fn on_stream(&mut self, cx: &mut Cx) -> Option<()> {
        if self.connect_by.is_some() {
            if !connect_finished(&self.stream).ok()? {
                return Some(()); // readiness reported early
            }
            self.connect_by = None;
            let fd = self.stream.as_raw_fd();
            cx.poller.reregister(fd, self.token, Interest::READ).ok()?;
            // No UDP leg and no answer: the probe goes in-stream now.
            if self.udp.is_none() && self.result.is_none() {
                return self.send(cx, &Request::RttProbe);
            }
            return Some(());
        }
        let awaited = self.udp.is_none() && self.reply_by.is_some();
        match self.reader.fill_from(&mut self.stream) {
            Ok(Fill::Bytes(_)) if awaited => match self.reader.pop_frame().ok()? {
                Some(frame) => self.on_reply(cx, &frame),
                None => Some(()),
            },
            Err(e) if retryable(&e) => Some(()),
            // Closed, failed, or talking out of turn.
            _ => None,
        }
    }

    /// The UDP socket is ready: one reply, received into `datagram`.
    fn on_datagram(&mut self, cx: &mut Cx, datagram: &mut [u8]) -> Option<()> {
        let Some(udp) = &self.udp else {
            return Some(()); // fell back earlier in this batch of events
        };
        match udp.get_ref().recv(datagram) {
            Ok(n) => self.on_reply(cx, &datagram[..n]),
            Err(e) if retryable(&e) => Some(()),
            Err(_) => self.fall_back(cx, "reply"),
        }
    }

    /// A pong stamps the RTT and is followed by the process probe, whose
    /// reply completes the result; anything else fails the leg.
    fn on_reply(&mut self, cx: &mut Cx, body: &[u8]) -> Option<()> {
        let response = decode_response(body).map(|(response, _)| response);
        match (self.rtt, response) {
            (None, Ok(Response::RttPong)) => {
                self.rtt = Some(self.sent.elapsed());
                self.send(cx, &Request::ProcessProbe)
            }
            (Some(rtt), Ok(reply)) => {
                let rtt = SimDuration::from_micros(rtt.as_micros() as u64);
                self.result = ProbeResult::from_reply(NodeId::new(self.id), rtt, &reply);
                if self.result.is_none() {
                    return self.leg_lost(cx, "reply");
                }
                self.drop_udp(cx);
                self.reply_by = None;
                Some(())
            }
            _ => self.leg_lost(cx, "reply"),
        }
    }

    fn on_clock(&mut self, cx: &mut Cx, now: Instant) -> Option<()> {
        if self.connect_by.is_some_and(|by| now >= by) {
            return None;
        }
        if self.reply_by.is_some_and(|by| now >= by) {
            return self.leg_lost(cx, "timeout");
        }
        Some(())
    }

    /// The earlier of what this probe still waits for, its connect and
    /// its outstanding exchange; `None` once it has its answer.
    fn deadline(&self) -> Option<Instant> {
        self.connect_by.into_iter().chain(self.reply_by).min()
    }
}

fn retryable(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}
