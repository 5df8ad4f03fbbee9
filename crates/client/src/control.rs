//! The client's control plane: which manager of its route order to ask
//! next, what each answer means, and what to do when none answers — a
//! client survives a lost Central Manager on its TopN warm connections
//! (§IV-E) — and when to go back to discovery after a try that did not
//! attach (Algorithm 2, line 14). Clock-agnostic like the rest of the
//! core: the simulator's single manager is a route of length one walked
//! in virtual time, the live client walks its shard addresses on the
//! wall clock.

use armada_types::{Backoff, NodeId, SimDuration, SimTime};

use crate::breaker::CircuitBreaker;
use crate::client::EdgeClient;
use crate::narrate::Narrator;

/// Consecutive failed discoveries before a manager's circuit breaker
/// opens, after which the route walk skips it without asking.
pub const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker refuses locally before letting a single
/// half-open probe through.
pub const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(500);

/// The route walk's retry schedule: capped exponential backoff, doubling
/// per consecutive failure and jittered deterministically per client, so
/// colliding clients do not retry in herds.
pub const RETRY_BACKOFF: Backoff = Backoff::from_millis(50, 1_000);

/// How long a client waits after a try that did not attach before it
/// goes back to discovery (Algorithm 2, line 14).
pub const REDISCOVER_BACKOFF: SimDuration = SimDuration::from_millis(300);

/// Consecutive tries that may fail to attach before a live session gives
/// up ([`EdgeClient::out_of_tries`]). A join the node turned away never
/// counts: a lost race shows the node alive and admitting. Simulated
/// users have no caller to report a failure to, so only the live driver
/// reads it.
pub const ATTACH_TRIES: u32 = 5;

/// What came of asking one manager to `Discover`, as the driver saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerReply {
    /// The manager's shortlist, best first (possibly empty).
    Candidates(Vec<NodeId>),
    /// The manager is up but shedding queries.
    Busy {
        /// The pause the manager asked for, in milliseconds.
        retry_after_ms: u64,
    },
    /// Any other answer (one shard's internal error is its own), or
    /// none: dead, partitioned, timed out.
    Unserved,
}

/// What to do with a manager's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Probe this shortlist (empty when a healthy manager has nothing
    /// to offer, which opens no round).
    Probe(Vec<NodeId>),
    /// That manager failed: ask the next in the route order — another
    /// shard may serve — after `pause` (zero unless it said `Busy`).
    Next {
        /// How long to hold off before walking on.
        pause: SimDuration,
    },
}

/// The control-plane half of an [`EdgeClient`]'s state.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlPlane {
    /// One breaker per route rank, grown as ranks are first asked.
    breakers: Vec<CircuitBreaker>,
    /// The last non-empty shortlist a manager served, and when.
    cache: Option<(Vec<NodeId>, SimTime)>,
    /// When the current degraded episode began, while one is active.
    degraded_since: Option<SimTime>,
    /// Route walks exhausted since a manager last answered.
    failures: u32,
    /// Tries since the last join that ended without attaching, a
    /// turned-away join aside.
    misses: u32,
    /// The one retry, pending or spent, since a manager last answered.
    retry_at: Option<SimTime>,
}

impl ControlPlane {
    fn breaker(&mut self, rank: usize) -> &mut CircuitBreaker {
        let closed = CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN.as_micros());
        self.breakers
            .resize(self.breakers.len().max(rank + 1), closed);
        &mut self.breakers[rank]
    }

    /// Arms the one retry `delay_us` from `now`, or pushes the pending one
    /// out to it — never in: a try that fails while a retry is pending
    /// starts no second chain.
    fn arm(&mut self, now: SimTime, delay_us: u64) -> SimTime {
        let at = (now + SimDuration::from_micros(delay_us)).max(self.retry_at.unwrap_or(now));
        self.retry_at = Some(at);
        at
    }

    /// A join attached the client: the count of misses starts over.
    pub(crate) fn attached(&mut self) {
        self.misses = 0;
    }

    /// The client lost its node with no backup left, or was detached: it
    /// goes back to discovery at once, its count of misses started over.
    pub(crate) fn start_over(&mut self) {
        self.attached();
        self.retry_at = None;
    }
}

impl EdgeClient {
    /// The first manager at or after rank `from`, of a route order
    /// `route_len` long (home first), whose breaker lets a request
    /// through at `now` — `None` once the route is exhausted.
    pub fn next_manager(
        &mut self,
        from: usize,
        route_len: usize,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> Option<usize> {
        (from..route_len).find(|&rank| {
            let (allowed, transition) = self.control.breaker(rank).allow(now.as_micros());
            if let Some(t) = transition {
                trace.breaker(self.id, rank, t);
            }
            allowed
        })
    }

    /// Feeds the answer of the manager at `rank`. Anything but a
    /// shortlist counts against its breaker (repeated `Busy` opens it:
    /// the storm-calming wanted) and the walk goes on; a shortlist closes
    /// it, and a non-empty one is cached and ends a degraded episode.
    pub fn on_discover(
        &mut self,
        rank: usize,
        reply: ManagerReply,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> Verdict {
        let (user, control) = (self.id, &mut self.control);
        let shortlist = match reply {
            ManagerReply::Candidates(shortlist) => shortlist,
            failed => {
                if let Some(t) = control.breaker(rank).on_failure(now.as_micros()) {
                    trace.breaker(user, rank, t);
                }
                let mut pause = SimDuration::ZERO;
                if let ManagerReply::Busy { retry_after_ms } = failed {
                    // Server-directed, clamped, and jittered so a storm
                    // of retries does not resynchronise into the next.
                    let cap = retry_after_ms.clamp(1, 2_000);
                    let jittered = Backoff::from_millis(cap, cap).delay_us(0, user.as_u64());
                    pause = SimDuration::from_micros(jittered);
                    trace.manager_busy(user, retry_after_ms, pause);
                }
                return Verdict::Next { pause };
            }
        };
        if let Some(t) = control.breaker(rank).on_success() {
            trace.breaker(user, rank, t);
        }
        control.failures = 0;
        control.retry_at = None;
        if rank > 0 {
            trace.fed_failover(user, rank as u64);
        }
        trace.discovered(user, shortlist.len());
        if !shortlist.is_empty() {
            control.cache = Some((shortlist.clone(), now));
            if let Some(since) = control.degraded_since.take() {
                trace.recovered(user, now.saturating_since(since));
            }
        }
        Verdict::Probe(shortlist)
    }

    /// No manager of the route served: returns when to walk it again
    /// (on [`RETRY_BACKOFF`], see [`EdgeClient::retry_at`]) and, if a
    /// shortlist was ever cached, enters or extends a degraded episode.
    /// With nothing cached, no round follows: the try missed.
    pub fn on_route_exhausted(&mut self, now: SimTime, trace: Narrator<'_>) -> SimTime {
        let (user, control) = (self.id, &mut self.control);
        let delay_us = RETRY_BACKOFF.delay_us(control.failures, user.as_u64());
        control.failures = control.failures.saturating_add(1);
        let retry_at = control.arm(now, delay_us);
        match &control.cache {
            Some((shortlist, fetched)) => {
                control.degraded_since.get_or_insert(now);
                trace.degraded(user, now.saturating_since(*fetched), shortlist.len());
            }
            None => control.misses += 1,
        }
        retry_at
    }

    /// A try ended without attaching — a shortlist that opened no round,
    /// a round that found nobody, a join that did not attach
    /// (`turned_away`: the node said no, which [`ATTACH_TRIES`] does not
    /// count) — and the next runs [`REDISCOVER_BACKOFF`] later.
    pub(crate) fn missed(&mut self, turned_away: bool, now: SimTime) {
        self.control.misses += u32::from(!turned_away);
        self.control.arm(now, REDISCOVER_BACKOFF.as_micros());
    }

    /// When the client goes back to discovery: the one retry that an
    /// exhausted route walk or a try that did not attach schedules,
    /// pending or spent, until a manager answers. Each driver starts a
    /// round then. `None`: nothing is pending, a round walks at once.
    pub fn retry_at(&self) -> Option<SimTime> {
        self.control.retry_at
    }

    /// `true` once [`ATTACH_TRIES`] consecutive tries since the last join
    /// found nobody to attach to.
    pub fn out_of_tries(&self) -> bool {
        self.control.misses >= ATTACH_TRIES
    }

    /// The last good shortlist: probing it keeps the warm backups warm
    /// while the control plane is away.
    pub fn cached_shortlist(&self) -> Option<&[NodeId]> {
        let (nodes, _) = self.control.cache.as_ref()?;
        Some(nodes)
    }

    /// `true` while rounds run on the cached shortlist because every
    /// manager is unreachable or breaker-gated.
    pub fn is_degraded(&self) -> bool {
        self.control.degraded_since.is_some()
    }

    /// Total circuit-breaker state transitions across the route.
    pub fn breaker_transitions(&self) -> u64 {
        let breakers = self.control.breakers.iter();
        breakers.map(CircuitBreaker::transition_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use armada_trace::{inspect, MemorySink, Severity, Tracer};
    use armada_types::{ClientConfig, GeoPoint, UserId};

    use super::*;
    use crate::breaker::BreakerState;
    use crate::{ClientDecision, JoinFollowup, ProbeResult};

    const USER: u64 = 9;

    fn client() -> EdgeClient {
        let spot = GeoPoint::new(44.98, -93.26);
        EdgeClient::new(UserId::new(USER), spot, ClientConfig::default())
    }

    fn tracer() -> (Tracer, Arc<Mutex<String>>) {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        (Tracer::with_sink(Box::new(sink), Severity::Debug), buffer)
    }

    /// The event kinds written so far, with one field of each.
    fn kinds(buffer: &Mutex<String>, field: &str) -> Vec<(String, Option<u64>)> {
        let events = inspect::parse_jsonl(&buffer.lock().unwrap()).expect("trace parses");
        let pick = |e: &armada_trace::TraceEvent| (e.kind.clone(), e.field_u64(field));
        events.iter().map(pick).collect()
    }

    fn shortlist(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&id| NodeId::new(id)).collect()
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// One walk over a route of one whose manager is unreachable:
    /// the shortlist a due round would run on, and the retry time.
    fn failed_walk(
        c: &mut EdgeClient,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> (Option<Vec<NodeId>>, SimTime) {
        if let Some(rank) = c.next_manager(0, 1, now, trace) {
            let verdict = c.on_discover(rank, ManagerReply::Unserved, now, trace);
            let pause = SimDuration::ZERO;
            assert_eq!(verdict, Verdict::Next { pause });
            assert_eq!(c.next_manager(rank + 1, 1, now, trace), None);
        }
        let retry_at = c.on_route_exhausted(now, trace);
        (c.cached_shortlist().map(<[NodeId]>::to_vec), retry_at)
    }

    #[test]
    fn breaker_cycles_open_half_open_closed_and_the_episode_recovers() {
        let (tracer, buffer) = tracer();
        let at = |t: SimTime| Narrator::at(&tracer, t.as_micros());
        let mut c = client();
        let list = shortlist(&[1, 2, 3]);
        let served = c.on_discover(0, ManagerReply::Candidates(list.clone()), ms(0), at(ms(0)));
        assert_eq!(served, Verdict::Probe(list.clone()));
        assert!(!c.is_degraded());

        // Three failures open the breaker; each walk runs on the cache.
        for i in 0..u64::from(BREAKER_THRESHOLD) {
            let now = ms(1_000 + i);
            let (cached, retry_at) = failed_walk(&mut c, now, at(now));
            assert_eq!(cached, Some(list.clone()));
            assert!(retry_at > now);
        }
        assert!(c.is_degraded());
        assert_eq!(c.control.breakers[0].state(), BreakerState::Open);
        // Open: the manager is skipped without being asked.
        assert_eq!(c.next_manager(0, 1, ms(1_100), at(ms(1_100))), None);
        // Cooled down: one probe goes through, fails, re-opens.
        let cooled = ms(1_002) + BREAKER_COOLDOWN;
        failed_walk(&mut c, cooled, at(cooled));
        assert_eq!(c.control.breakers[0].state(), BreakerState::Open);
        // Cooled down again: the probe is answered, the breaker closes,
        // the episode ends and nothing is pending any more.
        let healed = cooled + BREAKER_COOLDOWN;
        assert_eq!(c.next_manager(0, 1, healed, at(healed)), Some(0));
        c.on_discover(0, ManagerReply::Candidates(list), healed, at(healed));
        assert!(!c.is_degraded());
        assert_eq!(c.retry_at(), None);
        assert_eq!(c.breaker_transitions(), 5);

        let story: Vec<String> = kinds(&buffer, "user")
            .into_iter()
            .map(|(kind, user)| {
                assert_eq!(user, Some(USER), "{kind}");
                kind
            })
            .filter(|kind| kind != "chaos.degraded" && kind != "mgr.discover")
            .collect();
        assert_eq!(
            story,
            [
                "chaos.breaker.open",
                "chaos.breaker.half_open",
                "chaos.breaker.open",
                "chaos.breaker.half_open",
                "chaos.breaker.close",
                "chaos.degraded.recovered",
            ]
        );
        let outage = kinds(&buffer, "outage_us").pop().expect("recovered").1;
        assert_eq!(outage, Some((healed - ms(1_000)).as_micros()));
    }

    #[test]
    fn busy_pauses_are_clamped_jittered_and_count_against_the_breaker() {
        let (tracer, buffer) = tracer();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        for (asked_ms, cap_ms) in [(0, 1), (50, 50), (999_999, 2_000)] {
            let reply = ManagerReply::Busy {
                retry_after_ms: asked_ms,
            };
            let Verdict::Next { pause } = c.on_discover(1, reply, ms(0), trace) else {
                panic!("Busy walks on");
            };
            let cap = SimDuration::from_millis(cap_ms);
            assert!(pause <= cap && pause * 2 >= cap, "{pause} of {cap}");
            assert_eq!(
                pause.as_micros(),
                Backoff::from_millis(cap_ms, cap_ms).delay_us(0, USER)
            );
        }
        // Three in a row opened that rank's breaker, and only that one.
        assert_eq!(c.control.breakers[1].state(), BreakerState::Open);
        assert_eq!(c.next_manager(0, 2, ms(1), trace), Some(0));
        assert_eq!(c.next_manager(1, 2, ms(1), trace), None);
        let busy = kinds(&buffer, "retry_after_ms");
        assert_eq!(busy.iter().filter(|(k, _)| k == "mgr.busy").count(), 3);
    }

    #[test]
    fn a_refusal_fails_its_rank_and_the_peer_serves() {
        let (tracer, buffer) = tracer();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        let list = shortlist(&[4]);
        for _ in 0..BREAKER_THRESHOLD {
            assert_eq!(c.next_manager(0, 2, ms(0), trace), Some(0));
            let verdict = c.on_discover(0, ManagerReply::Unserved, ms(0), trace);
            let pause = SimDuration::ZERO;
            assert_eq!(verdict, Verdict::Next { pause });
            assert_eq!(c.next_manager(1, 2, ms(0), trace), Some(1));
            let verdict = c.on_discover(1, ManagerReply::Candidates(list.clone()), ms(0), trace);
            assert_eq!(verdict, Verdict::Probe(list.clone()));
            assert!(!c.is_degraded() && c.retry_at().is_none());
        }
        // The refusals opened the home manager's breaker: skipped unasked.
        assert_eq!(c.control.breakers[0].state(), BreakerState::Open);
        assert_eq!(c.next_manager(0, 2, ms(1), trace), Some(1));
        let skipped = kinds(&buffer, "skipped");
        assert_eq!(skipped[0], ("fed.failover".to_string(), Some(1)));
    }

    #[test]
    fn an_empty_shortlist_is_neither_cached_nor_a_breaker_failure() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        for _ in 0..5 {
            let verdict = c.on_discover(0, ManagerReply::Candidates(Vec::new()), ms(0), trace);
            assert_eq!(verdict, Verdict::Probe(Vec::new()));
        }
        assert_eq!(c.control.breakers[0].state(), BreakerState::Closed);
        assert_eq!(c.breaker_transitions(), 0);
        // Nothing to fall back on: no degraded episode, only a retry.
        let (cached, _) = failed_walk(&mut c, ms(10), trace);
        assert_eq!(cached, None);
        assert!(!c.is_degraded());
        // Nor does an empty answer overwrite or refresh a good one.
        c.on_discover(0, ManagerReply::Candidates(shortlist(&[7])), ms(20), trace);
        c.on_discover(0, ManagerReply::Candidates(Vec::new()), ms(30), trace);
        let (cached, _) = failed_walk(&mut c, ms(40), trace);
        assert_eq!(cached, Some(shortlist(&[7])));
    }

    #[test]
    fn degraded_rounds_report_how_stale_the_cache_is() {
        let (tracer, buffer) = tracer();
        let at = |t: SimTime| Narrator::at(&tracer, t.as_micros());
        let mut c = client();
        c.on_discover(
            0,
            ManagerReply::Candidates(shortlist(&[1, 2])),
            ms(100),
            at(ms(100)),
        );
        failed_walk(&mut c, ms(400), at(ms(400)));
        failed_walk(&mut c, ms(900), at(ms(900)));
        let stale: Vec<_> = kinds(&buffer, "stale_us")
            .into_iter()
            .filter(|(kind, _)| kind == "chaos.degraded")
            .map(|(_, stale_us)| stale_us)
            .collect();
        assert_eq!(stale, [Some(300_000), Some(800_000)]);
        let cached = kinds(&buffer, "cached");
        assert!(cached.contains(&("chaos.degraded".to_string(), Some(2))));
    }

    /// The schedule itself: exponential, jittered inside its envelope,
    /// capped and deterministic per client.
    #[test]
    fn retry_backoff_schedule_is_bounded_and_deterministic() {
        for attempt in 0..8u32 {
            for client_id in [1u64, 7, 9999] {
                let d = RETRY_BACKOFF.delay(attempt, client_id);
                assert!(d >= RETRY_BACKOFF.delay_floor(attempt), "attempt {attempt}");
                assert!(
                    d <= RETRY_BACKOFF.delay_ceiling(attempt),
                    "attempt {attempt}"
                );
                assert!(d <= std::time::Duration::from_millis(1_000), "cap violated");
                assert_eq!(d, RETRY_BACKOFF.delay(attempt, client_id), "deterministic");
            }
        }
        // The envelope really doubles (50, 100, 200, ...) until the cap.
        let ceiling = |attempt| RETRY_BACKOFF.delay_ceiling(attempt).as_millis();
        assert_eq!([ceiling(0), ceiling(2), ceiling(30)], [50, 200, 1_000]);
    }

    #[test]
    fn retries_follow_the_backoff_and_merge_into_one() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        let mut now = ms(0);
        for attempt in 0..6 {
            let (_, retry_at) = failed_walk(&mut c, now, trace);
            let delay = SimDuration::from_micros(RETRY_BACKOFF.delay_us(attempt, USER));
            assert_eq!(retry_at, now + delay, "attempt {attempt}");
            assert_eq!(c.retry_at(), Some(retry_at));
            now = retry_at;
        }
        // A second walk failing while that retry is pending moves it
        // out, never in: whoever waits on the earlier time finds a
        // later one and stands down.
        let pending = c.retry_at().expect("pending");
        let (_, pushed) = failed_walk(&mut c, pending - SimDuration::from_millis(1), trace);
        assert!(pushed >= pending);
        assert_eq!(c.retry_at(), Some(pushed));
    }

    /// A reply of node `id` carrying sequence number `seq`.
    fn reply(id: u64, seq: u64) -> ProbeResult {
        ProbeResult {
            node: NodeId::new(id),
            rtt: SimDuration::from_millis(10),
            whatif_proc: SimDuration::from_millis(20),
            current_proc: SimDuration::from_millis(20),
            attached_users: 0,
            seq_num: seq,
        }
    }

    /// A round over node 1 at `now`: answered with `seq`, or lost.
    fn round(c: &mut EdgeClient, seq: Option<u64>, now: SimTime) -> ClientDecision {
        let (tracer, one) = (Tracer::disabled(), NodeId::new(1));
        let trace = Narrator::at(&tracer, 0);
        let (id, _) = c
            .start_probe_round(vec![one], |_| false, now, trace)
            .unwrap();
        match seq {
            Some(seq) => assert!(c.on_probe_reply(id, reply(1, seq))),
            None => assert!(c.on_probe_lost(id, one, now)),
        }
        c.conclude_probe_round(id, now, trace).unwrap()
    }

    /// A round over node 1 at `now` whose join node 1 turns away or takes.
    fn race(c: &mut EdgeClient, accepted: bool, now: SimTime) -> JoinFollowup {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let decision = round(c, Some(0), now);
        assert!(matches!(decision, ClientDecision::AttemptJoin { .. }));
        c.on_join_result(NodeId::new(1), accepted, now, trace)
    }

    /// `at` plus [`REDISCOVER_BACKOFF`].
    fn after(at: SimTime) -> Option<SimTime> {
        Some(at + REDISCOVER_BACKOFF)
    }

    #[test]
    fn a_lost_race_retries_and_never_counts_toward_giving_up() {
        let mut c = client();
        for attempt in 0..2 * ATTACH_TRIES {
            let now = ms(u64::from(attempt) * 2_000);
            assert_eq!(race(&mut c, false, now), JoinFollowup::Rediscover);
            assert_eq!(c.retry_at(), after(now));
            assert!(!c.out_of_tries(), "a lost race shows the node admitting");
        }
        // A client with a node that loses a switch race retries too.
        let now = ms(30_000);
        assert!(matches!(
            race(&mut c, true, now),
            JoinFollowup::SwitchComplete { .. }
        ));
        c.force_attach(NodeId::new(2), Vec::new());
        assert_eq!(race(&mut c, false, now), JoinFollowup::Rediscover);
        assert_eq!(c.retry_at(), after(now));
    }

    #[test]
    fn an_empty_shortlist_arms_the_retry() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        let empty = c.start_probe_round(Vec::new(), |_| true, ms(10), trace);
        assert_eq!((empty, c.retry_at()), (None, after(ms(10))));
        // A shortlist served later drops the retry it answered.
        c.on_discover(0, ManagerReply::Candidates(Vec::new()), ms(60), trace);
        assert_eq!(c.retry_at(), None);
    }

    #[test]
    fn a_round_with_no_survivor_arms_the_retry() {
        let mut c = client();
        assert_eq!(round(&mut c, None, ms(5)), ClientDecision::Rediscover);
        assert_eq!(c.retry_at(), after(ms(5)));
        // One pending retry: a second miss before it comes due pushes
        // it out to the later of the two, never in.
        assert_eq!(round(&mut c, None, ms(6)), ClientDecision::Rediscover);
        assert_eq!(c.retry_at(), after(ms(6)));
        c.on_route_exhausted(ms(7), Narrator::at(&Tracer::disabled(), 0));
        assert_eq!(c.retry_at(), after(ms(6)), "the walk's own retry is sooner");
    }

    #[test]
    fn a_failover_with_no_backup_rediscovers_at_once() {
        let mut c = client();
        // A lost race left a retry pending when a node took the client.
        assert_eq!(race(&mut c, false, ms(0)), JoinFollowup::Rediscover);
        c.force_attach(NodeId::new(2), Vec::new());
        assert!(c.retry_at().is_some());
        let decision = c.on_node_failure(ms(1), |_| true);
        assert_eq!(decision, crate::FailoverDecision::Rediscover);
        assert_eq!(c.retry_at(), None, "nothing pending: the round walks now");
        assert_eq!(round(&mut c, None, ms(2)), ClientDecision::Rediscover);
        assert_eq!(c.retry_at(), after(ms(2)));
    }

    #[test]
    fn a_live_session_gives_up_after_attach_tries_misses_in_a_row() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client();
        // Every way a try can miss, lost races between them.
        type Miss<'a> = &'a dyn Fn(&mut EdgeClient, SimTime);
        let misses: [Miss; 3] = [
            &|c, now| {
                assert!(c
                    .start_probe_round(Vec::new(), |_| true, now, trace)
                    .is_none())
            },
            &|c, now| assert_eq!(round(c, None, now), ClientDecision::Rediscover),
            &|c, now| drop(failed_walk(c, now, trace)),
        ];
        for attempt in 0..ATTACH_TRIES {
            assert!(!c.out_of_tries(), "after {attempt}");
            let now = ms(u64::from(attempt) * 10_000);
            misses[attempt as usize % 3](&mut c, now);
            race(&mut c, false, now + SimDuration::from_millis(5_000));
        }
        assert!(c.out_of_tries());
        // A join starts the count over.
        race(&mut c, true, ms(100_000));
        assert!(!c.out_of_tries());
    }
}
