//! The fleet engine: everything the root controller and a rack aggregator
//! do to the endpoints below them, with no I/O.
//!
//! [`Fleet`] keeps one [`Member`] per managed endpoint and owns:
//!
//! * **liveness** — a heartbeat schedule per member; silence past
//!   `fail_after` marks it [`HostStatus::Down`], any reply brings it back
//!   Up;
//! * **tracked requests** — at most one per member, retransmitted under
//!   exponential backoff with jitter until answered or out of retries
//!   (which also marks the member Down);
//! * **the two-phase round** — opened with one plan per reported base,
//!   Prepare then Commit, pruning members that go Down, then completion;
//! * **resync** — an individual Prepare/Commit for a member whose report
//!   is behind the target, backed off after every failure;
//! * **Ack/Nack correlation** by message id, including the fallback from
//!   a nacked delta to a full Prepare on the same track;
//! * the [`Version`] history plans are drawn from, and the one
//!   encode → fragment → queue path every control frame takes.
//!
//! It never sees a `Stack` or a `Ctx`: callers pass the time and the
//! simulation RNG and put the queued [`outbox`](Fleet::outbox) frames on
//! the wire. Where the root and an aggregator differ — what a heartbeat
//! carries, what a nacked Prepare means, whether a diverged member can be
//! healed — the engine reports the fact and the owner decides.

use eden_telemetry::TraceContext;
use netsim::{SimRng, Time, UdpHeader};

use crate::controller::{CtrlConfig, HostStatus, WireCounters};
use crate::delta::{diff, ConfigModel};
use crate::proto::{self, AckPhase, CtrlMsg, CtrlReply, Reassembler};

/// One configuration version: the epoch it was pushed under and the
/// configuration itself, which also anchors diffs to later versions.
pub(crate) struct Version {
    pub epoch: u64,
    pub model: ConfigModel,
}

/// Whether a tracked request belongs to the round or to a single-member
/// resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Round,
    Resync,
}

/// The one outstanding request to a member.
struct Track {
    msg_id: u32,
    msg: CtrlMsg,
    phase: AckPhase,
    origin: Origin,
    retries: u32,
    next_retry: Time,
    /// Trace context the frames carry (retransmits re-append it).
    trace: Option<TraceContext>,
    /// When the latest transmission left, for the round-trip time.
    sent_at: Time,
}

/// One managed endpoint.
pub(crate) struct Member {
    pub addr: u32,
    pub status: HostStatus,
    last_heard: Time,
    /// Last `(epoch, digest)` the member reported.
    pub reported: Option<(u64, u64)>,
    track: Option<Track>,
    next_heartbeat: Time,
    /// Earliest time a resync may start after a failed one; the backoff
    /// doubles per failure and resets on success.
    next_resync: Time,
    resync_backoff: Time,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Preparing,
    Committing,
    Aborting,
}

struct Round {
    epoch: u64,
    phase: Phase,
    /// Members whose ack for the current phase is outstanding.
    pending: Vec<u32>,
    /// Members that acked Prepare: the Commit fan-out set.
    acked: Vec<u32>,
    trace: Option<TraceContext>,
    opened_at: Time,
}

/// A round whose Commit or Abort fan-out has been answered.
pub(crate) struct RoundDone {
    pub committed: bool,
    pub opened_at: Time,
    pub trace: Option<TraceContext>,
}

/// What a reply from a member meant.
pub(crate) struct Heard {
    pub member: usize,
    /// The reply answered the member's tracked request, this long after
    /// its latest transmission.
    pub rtt: Option<Time>,
    /// The member nacked the round's Prepare (not a delta anchor miss).
    /// The owner either aborts the round or gives up on the member.
    pub prepare_nacked: bool,
}

/// The sans-IO control loop over one tier's members (see module docs).
pub(crate) struct Fleet {
    pub cfg: CtrlConfig,
    pub members: Vec<Member>,
    /// Configuration versions; the last is the target every member should
    /// report.
    pub history: Vec<Version>,
    round: Option<Round>,
    /// A round toward the target is queued: the next
    /// [`drive`](Self::drive) opens it once no round is in flight.
    pub want_round: bool,
    msg_seq: u32,
    nonce_seq: u64,
    reasm: Reassembler,
    pub wire: WireCounters,
    /// Frames queued for the wire in send order: `(to, udp, frame)`.
    pub outbox: Vec<(u32, UdpHeader, Vec<u8>)>,
}

impl Fleet {
    pub fn new(cfg: CtrlConfig, addrs: &[u32]) -> Fleet {
        let mut fleet = Fleet {
            cfg,
            members: Vec::with_capacity(addrs.len()),
            history: vec![Version {
                epoch: 0,
                model: ConfigModel::new(),
            }],
            round: None,
            want_round: false,
            msg_seq: 0,
            nonce_seq: 0,
            reasm: Reassembler::default(),
            wire: WireCounters::default(),
            outbox: Vec::new(),
        };
        for &addr in addrs {
            fleet.add_member(addr);
        }
        fleet
    }

    /// Manage `addr`; returns its member index.
    pub fn add_member(&mut self, addr: u32) -> usize {
        self.members.push(Member {
            addr,
            status: HostStatus::Up,
            last_heard: Time::ZERO,
            reported: None,
            track: None,
            next_heartbeat: Time::ZERO,
            next_resync: Time::ZERO,
            resync_backoff: Time::ZERO,
        });
        self.members.len() - 1
    }

    pub fn position(&self, addr: u32) -> Option<usize> {
        self.members.iter().position(|m| m.addr == addr)
    }

    // ------------------------------------------------------------------
    // versions
    // ------------------------------------------------------------------

    /// The version every member should converge to.
    pub fn target(&self) -> &Version {
        self.history.last().expect("history never empty")
    }

    /// The `(epoch, digest)` every member should report.
    pub fn want(&self) -> (u64, u64) {
        (self.target().epoch, self.target().model.digest())
    }

    pub fn push_version(&mut self, version: Version) {
        self.history.push(version);
    }

    /// Drop the target version if it was pushed under `epoch` and is not
    /// the only one; returns whether it did.
    pub fn rollback(&mut self, epoch: u64) -> bool {
        let undo = self.history.len() > 1 && self.target().epoch == epoch;
        if undo {
            self.history.pop();
        }
        undo
    }

    /// Keep only the newest `keep` versions as delta anchors.
    pub fn trim_history(&mut self, keep: usize) {
        let excess = self.history.len().saturating_sub(keep);
        self.history.drain(..excess);
    }

    fn digest_of(&self, epoch: u64) -> Option<u64> {
        self.history
            .iter()
            .find(|v| v.epoch == epoch)
            .map(|v| v.model.digest())
    }

    /// Choose the cheapest safe prepare toward the target for a member
    /// whose last report is `reported`. When the report matches a
    /// history entry exactly (epoch *and* digest — the member provably
    /// holds that configuration), a diff from that entry ships as a
    /// digest-anchored [`CtrlMsg::DeltaPrepare`]; anything else — unknown
    /// base, undiffable shapes, or a diff that is not actually smaller on
    /// the wire — ships the full table. The agent's digest check
    /// backstops any stale plan: a mismatch nacks and the engine falls
    /// back to the full ship (`reported: None`).
    pub fn plan(&self, reported: Option<(u64, u64)>) -> CtrlMsg {
        let target = self.target();
        let full = CtrlMsg::Prepare {
            epoch: target.epoch,
            ops: target.model.to_full_ops(),
        };
        let Some((re, rd)) = reported.filter(|_| self.cfg.delta_updates) else {
            return full;
        };
        let Some(base) = self
            .history
            .iter()
            .find(|v| v.epoch == re && v.model.digest() == rd)
        else {
            return full;
        };
        let Some(ops) = diff(&base.model, &target.model) else {
            return full;
        };
        let planned = CtrlMsg::DeltaPrepare {
            epoch: target.epoch,
            base_digest: rd,
            ops,
        };
        if proto::encode_msg(&planned).len() < proto::encode_msg(&full).len() {
            planned
        } else {
            full
        }
    }

    // ------------------------------------------------------------------
    // wire
    // ------------------------------------------------------------------

    /// Reassemble one incoming frame; a completed message is counted and
    /// returned.
    pub fn accept(&mut self, from: u32, frame: &[u8]) -> Option<Vec<u8>> {
        let payload = self.reasm.accept(from, frame).ok()??;
        self.wire.msgs_received += 1;
        self.wire.bytes_received += payload.len() as u64;
        Some(payload)
    }

    /// Queue `msg` for `to` under a fresh message id (which replies echo as
    /// `re`), with a trace context as the frame trailer when given.
    pub fn send(&mut self, to: u32, msg: &CtrlMsg, trace: Option<&TraceContext>) -> u32 {
        self.send_payload(to, msg, &encode(msg, trace))
    }

    /// [`send`](Self::send) for a payload the caller encoded.
    pub fn send_payload(&mut self, to: u32, msg: &CtrlMsg, payload: &[u8]) -> u32 {
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.transmit(to, msg, self.msg_seq, payload);
        self.msg_seq
    }

    /// Count `msg` and queue its frames under message id `id`.
    fn transmit(&mut self, to: u32, msg: &CtrlMsg, id: u32, payload: &[u8]) {
        self.wire.sent(msg, payload.len());
        let udp = UdpHeader {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.ctrl_port,
        };
        self.enqueue(to, udp, id, payload);
    }

    /// Fragment `payload` under message id `id` into the outbox.
    pub fn enqueue(&mut self, to: u32, udp: UdpHeader, id: u32, payload: &[u8]) {
        for frame in proto::fragment(id, payload) {
            self.outbox.push((to, udp, frame));
        }
    }

    fn jitter(&self, rng: &mut SimRng) -> Time {
        Time::from_nanos(rng.below(self.cfg.retry_base.as_nanos() / 2 + 1))
    }

    /// Install `msg` as member `i`'s tracked request and send it.
    fn send_tracked(
        &mut self,
        i: usize,
        (msg, phase, origin): (CtrlMsg, AckPhase, Origin),
        trace: Option<TraceContext>,
        now: Time,
        rng: &mut SimRng,
    ) {
        let msg_id = self.send(self.members[i].addr, &msg, trace.as_ref());
        let next_retry = now + self.cfg.retry_base + self.jitter(rng);
        self.members[i].track = Some(Track {
            msg_id,
            msg,
            phase,
            origin,
            retries: 0,
            next_retry,
            trace,
            sent_at: now,
        });
    }

    // ------------------------------------------------------------------
    // the loop
    // ------------------------------------------------------------------

    /// Mark members silent past `fail_after` Down and send every due
    /// heartbeat. `build(member, addr, nonce)` returns the heartbeat and
    /// its encoded payload (the owner decides what it carries).
    /// Heartbeats go to Down members too, so a rejoin is noticed.
    pub fn heartbeat(
        &mut self,
        now: Time,
        mut build: impl FnMut(usize, u32, u64) -> (CtrlMsg, Vec<u8>),
    ) {
        for i in 0..self.members.len() {
            let m = &self.members[i];
            let silent = now.as_nanos().saturating_sub(m.last_heard.as_nanos())
                > self.cfg.fail_after.as_nanos();
            if m.status == HostStatus::Up && silent {
                self.mark_down(i);
            }
            if now < self.members[i].next_heartbeat {
                continue;
            }
            self.nonce_seq += 1;
            let addr = self.members[i].addr;
            let (msg, payload) = build(i, addr, self.nonce_seq);
            self.send_payload(addr, &msg, &payload);
            self.members[i].next_heartbeat = now + self.cfg.heartbeat_every;
        }
    }

    /// Retransmit every tracked request that is due, under exponential
    /// backoff plus jitter; exhausted retries mark the member Down.
    /// Retries reuse the message id: agents are idempotent and the reply
    /// still correlates.
    pub fn retransmit(&mut self, now: Time, rng: &mut SimRng) {
        for i in 0..self.members.len() {
            let Some(t) = self.members[i].track.as_ref() else {
                continue;
            };
            if now < t.next_retry {
                continue;
            }
            if t.retries >= self.cfg.max_retries {
                self.mark_down(i);
                continue;
            }
            let (id, retries, msg) = (t.msg_id, t.retries + 1, t.msg.clone());
            let payload = encode(&msg, t.trace.as_ref());
            self.transmit(self.members[i].addr, &msg, id, &payload);
            let base = self.cfg.retry_base.as_nanos() << retries.min(20);
            let backoff = Time::from_nanos(base.min(self.cfg.retry_max.as_nanos()));
            let next_retry = now + backoff + self.jitter(rng);
            let t = self.members[i].track.as_mut().expect("checked above");
            t.retries = retries;
            // The round-trip time measures the latest transmission.
            t.sent_at = now;
            t.next_retry = next_retry;
        }
    }

    fn mark_down(&mut self, i: usize) {
        let m = &mut self.members[i];
        m.status = HostStatus::Down;
        m.track = None;
        let addr = m.addr;
        if let Some(round) = self.round.as_mut() {
            round.pending.retain(|&a| a != addr);
        }
    }

    /// Stop waiting for member `i` in the round and back off its resync —
    /// what the engine does with a nacked Commit or Abort.
    pub fn give_up(&mut self, i: usize, now: Time) {
        let addr = self.members[i].addr;
        if let Some(round) = self.round.as_mut() {
            round.pending.retain(|&a| a != addr);
        }
        let m = &mut self.members[i];
        let next = (m.resync_backoff.as_nanos() * 2).clamp(
            self.cfg.retry_base.as_nanos(),
            self.cfg.fail_after.as_nanos() * 4,
        );
        m.resync_backoff = Time::from_nanos(next);
        m.next_resync = now + m.resync_backoff;
    }

    /// Whether a round is in flight or queued.
    pub fn busy(&self) -> bool {
        self.round.is_some() || self.want_round
    }

    pub fn in_round(&self) -> bool {
        self.round.is_some()
    }

    /// Advance the round, then open a queued one. `trace` is asked for the
    /// new round's trace context only if some member is Up to receive it.
    pub fn drive(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        trace: impl FnOnce() -> Option<TraceContext>,
    ) -> Option<RoundDone> {
        let done = self.advance(now, rng);
        if self.want_round && self.round.is_none() {
            self.want_round = false;
            self.open_round(now, rng, trace);
        }
        done
    }

    /// Prepare the target on every Up member. With nobody reachable the
    /// target stands and reconciliation pushes it as members come back.
    fn open_round(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        trace: impl FnOnce() -> Option<TraceContext>,
    ) {
        let targets: Vec<usize> = (0..self.members.len())
            .filter(|&i| self.members[i].status == HostStatus::Up)
            .collect();
        if targets.is_empty() {
            return;
        }
        let trace = trace();
        let mut pending = Vec::with_capacity(targets.len());
        // Most of a converged fleet shares one base config, so plans are
        // cached per reported (epoch, digest): one diff serves the rack.
        let mut plans: Vec<((u64, u64), CtrlMsg)> = Vec::new();
        for i in targets {
            let msg = match self.members[i].reported {
                Some(base) => match plans.iter().find(|(b, _)| *b == base) {
                    Some((_, m)) => m.clone(),
                    None => {
                        let m = self.plan(Some(base));
                        plans.push((base, m.clone()));
                        m
                    }
                },
                None => self.plan(None),
            };
            // A resync in flight is superseded by the round.
            let track = (msg, AckPhase::Prepare, Origin::Round);
            self.send_tracked(i, track, trace, now, rng);
            pending.push(self.members[i].addr);
        }
        self.round = Some(Round {
            epoch: self.target().epoch,
            phase: Phase::Preparing,
            pending,
            acked: Vec::new(),
            trace,
            opened_at: now,
        });
    }

    /// Move the round on once its pending set is empty: a fully answered
    /// Prepare fans Commit out to the Up members that acked it (or drops
    /// the round if none did); a fully answered Commit or Abort completes.
    pub fn advance(&mut self, now: Time, rng: &mut SimRng) -> Option<RoundDone> {
        let round = self.round.as_ref()?;
        if !round.pending.is_empty() {
            return None;
        }
        if round.phase == Phase::Preparing {
            if round.acked.is_empty() {
                // Every target died mid-prepare; nothing to commit.
                self.round = None;
                return None;
            }
            let (epoch, trace, acked) = (round.epoch, round.trace, round.acked.clone());
            let mut pending = Vec::with_capacity(acked.len());
            for addr in acked {
                let Some(i) = self.position(addr) else {
                    continue;
                };
                if self.members[i].status == HostStatus::Up {
                    let track = (CtrlMsg::Commit { epoch }, AckPhase::Commit, Origin::Round);
                    self.send_tracked(i, track, trace, now, rng);
                    pending.push(addr);
                }
            }
            let round = self.round.as_mut().expect("checked above");
            round.phase = Phase::Committing;
            round.pending = pending;
            if !round.pending.is_empty() {
                return None;
            }
        }
        let round = self.round.take().expect("checked above");
        Some(RoundDone {
            committed: round.phase == Phase::Committing,
            opened_at: round.opened_at,
            trace: round.trace,
        })
    }

    /// Send Abort for the round's epoch to every Up member and wait for
    /// their acks. Returns the aborted epoch.
    pub fn abort_round(&mut self, now: Time, rng: &mut SimRng) -> Option<u64> {
        let round = self.round.as_ref()?;
        let (epoch, trace) = (round.epoch, round.trace);
        let mut pending = Vec::new();
        for i in 0..self.members.len() {
            if self.members[i].status == HostStatus::Up {
                let track = (CtrlMsg::Abort { epoch }, AckPhase::Abort, Origin::Round);
                self.send_tracked(i, track, trace, now, rng);
                pending.push(self.members[i].addr);
            }
        }
        let round = self.round.as_mut().expect("checked above");
        round.phase = Phase::Aborting;
        round.pending = pending;
        round.acked.clear();
        Some(epoch)
    }

    /// Resync every idle Up member (past its backoff) whose report is
    /// behind the target. A member reporting the target epoch or a newer
    /// one cannot be resynced to it: `diverged(member, reported)` decides
    /// whether it needs healing, and if so the pass stops and returns it —
    /// only a fresh epoch heals it, and minting one is the owner's call.
    pub fn reconcile(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        mut diverged: impl FnMut(usize, (u64, u64)) -> bool,
    ) -> Option<usize> {
        let want = self.target().epoch;
        for i in 0..self.members.len() {
            let m = &self.members[i];
            if m.status != HostStatus::Up || m.track.is_some() || now < m.next_resync {
                continue;
            }
            let Some(reported) = m.reported else {
                continue; // never heard: wait for the first report
            };
            if reported.0 < want {
                let track = (self.plan(Some(reported)), AckPhase::Prepare, Origin::Resync);
                self.send_tracked(i, track, None, now, rng);
            } else if diverged(i, reported) {
                return Some(i);
            }
        }
        None
    }

    /// Account for a reply from `from`: liveness, the reported config, and
    /// Ack/Nack correlation with the member's tracked request. `None` when
    /// `from` is not a member.
    pub fn on_reply(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        from: u32,
        reply: &CtrlReply,
    ) -> Option<Heard> {
        let i = self.position(from)?;
        let m = &mut self.members[i];
        m.last_heard = now;
        m.status = HostStatus::Up;
        let mut heard = Heard {
            member: i,
            rtt: None,
            prepare_nacked: false,
        };
        let (re, epoch, ack) = match *reply {
            CtrlReply::Pong { epoch, digest, .. }
            | CtrlReply::AggPong { epoch, digest, .. }
            | CtrlReply::Stats { epoch, digest, .. } => {
                m.reported = Some((epoch, digest));
                return Some(heard);
            }
            CtrlReply::Spans { .. } => return Some(heard),
            CtrlReply::Ack { re, epoch, phase } => (re, epoch, Some(phase)),
            CtrlReply::Nack { re, epoch, .. } => (re, epoch, None),
        };
        // An ack must match the request's id and phase; a nack its id.
        // Anything else is stale or duplicate.
        if !m
            .track
            .as_ref()
            .is_some_and(|t| t.msg_id == re && ack.is_none_or(|p| p == t.phase))
        {
            return Some(heard);
        }
        let t = m.track.take().expect("checked above");
        heard.rtt = Some(Time::from_nanos(
            now.as_nanos().saturating_sub(t.sent_at.as_nanos()),
        ));
        match ack {
            Some(_) => self.acked(i, &t, epoch, now, rng),
            None => heard.prepare_nacked = self.nacked(i, t, epoch, now, rng),
        }
        Some(heard)
    }

    fn acked(&mut self, i: usize, t: &Track, epoch: u64, now: Time, rng: &mut SimRng) {
        let addr = self.members[i].addr;
        if t.phase == AckPhase::Commit {
            if let Some(d) = self.digest_of(epoch) {
                self.members[i].reported = Some((epoch, d));
            }
        }
        match (t.origin, t.phase) {
            (Origin::Round, phase) => {
                if let Some(round) = self.round.as_mut() {
                    round.pending.retain(|&a| a != addr);
                    if phase == AckPhase::Prepare {
                        round.acked.push(addr);
                    }
                }
            }
            (Origin::Resync, AckPhase::Prepare) => {
                let track = (CtrlMsg::Commit { epoch }, AckPhase::Commit, Origin::Resync);
                self.send_tracked(i, track, None, now, rng);
            }
            (Origin::Resync, AckPhase::Commit) => {
                let m = &mut self.members[i];
                m.resync_backoff = Time::ZERO;
                m.next_resync = now;
            }
            (Origin::Resync, AckPhase::Abort) => {}
        }
    }

    /// Returns whether the nack refused the round's Prepare outright.
    fn nacked(&mut self, i: usize, t: Track, epoch: u64, now: Time, rng: &mut SimRng) -> bool {
        let was_delta = matches!(t.msg, CtrlMsg::DeltaPrepare { .. });
        if was_delta && t.phase == AckPhase::Prepare && epoch == self.target().epoch {
            // The digest anchor missed (the member's config is not what
            // its last report promised) or the diff failed validation
            // there: fall back to the full Reset-led ship on the same
            // track — a round member stays pending, a resync stays a
            // resync.
            let track = (self.plan(None), AckPhase::Prepare, t.origin);
            self.send_tracked(i, track, t.trace, now, rng);
            return false;
        }
        if (t.origin, t.phase) == (Origin::Round, AckPhase::Prepare) {
            return true;
        }
        // A commit/abort nack means the member lost its staging (e.g. it
        // rebooted mid-round); a resync nack, that it is unhappy. Either
        // way back off so it cannot hot-loop; reconciliation retries it.
        self.give_up(i, now);
        false
    }
}

fn encode(msg: &CtrlMsg, trace: Option<&TraceContext>) -> Vec<u8> {
    match trace {
        Some(t) => proto::encode_msg_traced(msg, t),
        None => proto::encode_msg(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::EnclaveOp;

    const A: u32 = 11;
    const B: u32 = 12;

    /// A fleet whose epoch-0 config has enough tables that a one-table
    /// change ships smaller as a delta.
    fn fleet(addrs: &[u32]) -> Fleet {
        let mut f = Fleet::new(CtrlConfig::default(), addrs);
        let base = &mut f.history[0].model;
        base.apply(&vec![EnclaveOp::CreateTable; 16])
            .expect("valid");
        f
    }

    /// Every message in the outbox as `(to, msg id, msg)`, draining it.
    fn sent(f: &mut Fleet) -> Vec<(u32, u32, CtrlMsg)> {
        let mut reasm = Reassembler::default();
        f.outbox
            .drain(..)
            .filter_map(|(to, _, frame)| {
                let id = u32::from_le_bytes(frame[2..6].try_into().unwrap());
                let payload = reasm.accept(to, &frame).unwrap()?;
                Some((to, id, proto::decode_msg_traced(&payload).unwrap().0))
            })
            .collect()
    }

    fn ack(re: u32, epoch: u64, phase: AckPhase) -> CtrlReply {
        CtrlReply::Ack { re, epoch, phase }
    }

    fn nack(re: u32, epoch: u64) -> CtrlReply {
        CtrlReply::Nack {
            re,
            epoch,
            reason: "refused".into(),
        }
    }

    /// Push a version one table larger than the target and queue its
    /// round.
    fn push_table(f: &mut Fleet) {
        let mut model = f.target().model.clone();
        model.apply(&[EnclaveOp::CreateTable]).expect("valid op");
        let epoch = f.target().epoch + 1;
        f.push_version(Version { epoch, model });
        f.want_round = true;
    }

    /// Open a round toward a new version and return its prepares.
    fn open(f: &mut Fleet, rng: &mut SimRng, now: Time) -> Vec<(u32, u32, CtrlMsg)> {
        push_table(f);
        assert!(f.drive(now, rng, || None).is_none());
        sent(f)
    }

    #[test]
    fn exhausted_retries_mark_the_member_down_and_drop_it_from_the_round() {
        let (mut f, mut rng) = (fleet(&[A, B]), SimRng::new(1));
        let prepares = open(&mut f, &mut rng, Time::ZERO);
        let (_, id_a, _) = prepares.iter().find(|p| p.0 == A).unwrap().clone();
        f.on_reply(Time::ZERO, &mut rng, A, &ack(id_a, 1, AckPhase::Prepare));
        assert!(f.advance(Time::ZERO, &mut rng).is_none());
        assert!(sent(&mut f).is_empty(), "B still owes its prepare ack");

        // B never answers: every retry is a retransmit of the same id
        // until the budget runs out. Silence would mark B down first, so
        // keep it heard.
        let mut retransmits = 0;
        let mut now = Time::ZERO;
        while f.members[1].status == HostStatus::Up {
            now += Time::from_micros(100);
            f.members[1].last_heard = now;
            f.retransmit(now, &mut rng);
            retransmits += sent(&mut f).len();
        }
        assert_eq!(retransmits, f.cfg.max_retries as usize);
        assert!(f.members[1].track.is_none());
        assert_eq!(f.round.as_ref().unwrap().pending, Vec::<u32>::new());

        assert!(f.advance(now, &mut rng).is_none());
        let commits = sent(&mut f);
        assert_eq!(commits.len(), 1);
        assert!(matches!(commits[0], (A, _, CtrlMsg::Commit { epoch: 1 })));
    }

    #[test]
    fn acks_with_a_wrong_id_or_phase_are_ignored() {
        let (mut f, mut rng) = (fleet(&[A]), SimRng::new(2));
        let (_, id, _) = open(&mut f, &mut rng, Time::ZERO)[0].clone();
        let now = Time::from_micros(40);
        for reply in [
            ack(id + 1, 1, AckPhase::Prepare),
            ack(id, 1, AckPhase::Commit),
            nack(id + 1, 1),
        ] {
            let heard = f.on_reply(now, &mut rng, A, &reply).unwrap();
            assert!(heard.rtt.is_none() && !heard.prepare_nacked);
            assert!(f.advance(now, &mut rng).is_none());
            assert!(sent(&mut f).is_empty());
            assert_eq!(f.members[0].track.as_ref().unwrap().msg_id, id);
        }
        let heard = f
            .on_reply(now, &mut rng, A, &ack(id, 1, AckPhase::Prepare))
            .unwrap();
        assert_eq!(heard.rtt, Some(now));
        assert!(f.advance(now, &mut rng).is_none());
        assert!(matches!(sent(&mut f)[..], [(A, _, CtrlMsg::Commit { .. })]));
    }

    #[test]
    fn a_nacked_delta_prepare_reships_the_full_table_on_the_same_track() {
        let (mut f, mut rng) = (fleet(&[A, B]), SimRng::new(3));
        let base = f.want();
        f.members[0].reported = Some(base);
        f.members[1].reported = Some(base);
        let prepares = open(&mut f, &mut rng, Time::ZERO);
        let (_, id, msg) = prepares.iter().find(|p| p.0 == A).unwrap().clone();
        assert!(matches!(msg, CtrlMsg::DeltaPrepare { epoch: 1, .. }));

        let heard = f.on_reply(Time::ZERO, &mut rng, A, &nack(id, 1)).unwrap();
        assert!(!heard.prepare_nacked, "an anchor miss is not a refusal");
        let resent = sent(&mut f);
        assert!(matches!(
            resent[..],
            [(A, _, CtrlMsg::Prepare { epoch: 1, .. })]
        ));
        let t = f.members[0].track.as_ref().unwrap();
        assert_eq!((t.origin, t.phase), (Origin::Round, AckPhase::Prepare));
        assert!(f.round.as_ref().unwrap().pending.contains(&A));
        assert_eq!(f.members[0].next_resync, Time::ZERO, "no backoff");
    }

    #[test]
    fn a_preparing_round_whose_last_pending_member_goes_down_still_commits() {
        let (mut f, mut rng) = (fleet(&[A, B]), SimRng::new(4));
        let prepares = open(&mut f, &mut rng, Time::ZERO);
        let (_, id_a, _) = prepares.iter().find(|p| p.0 == A).unwrap().clone();
        let now = Time::from_micros(20);
        f.on_reply(now, &mut rng, A, &ack(id_a, 1, AckPhase::Prepare));
        assert!(f.advance(now, &mut rng).is_none());

        // B stays silent past fail_after; A keeps answering.
        let later = now + f.cfg.fail_after + Time::from_micros(1);
        f.members[0].last_heard = later;
        f.heartbeat(later, |_, _, nonce| {
            let msg = CtrlMsg::Heartbeat { nonce };
            let payload = proto::encode_msg(&msg);
            (msg, payload)
        });
        sent(&mut f);
        assert_eq!(f.members[1].status, HostStatus::Down);

        assert!(f.advance(later, &mut rng).is_none());
        let commits = sent(&mut f);
        assert!(matches!(
            commits[..],
            [(A, _, CtrlMsg::Commit { epoch: 1 })]
        ));
        let id = commits[0].1;
        f.on_reply(later, &mut rng, A, &ack(id, 1, AckPhase::Commit));
        let done = f.advance(later, &mut rng).expect("round completes");
        assert!(done.committed);
        assert_eq!(f.members[0].reported, Some(f.want()));
    }

    #[test]
    fn each_resync_nack_doubles_the_backoff_within_its_clamp() {
        let (mut f, mut rng) = (fleet(&[A]), SimRng::new(5));
        push_table(&mut f);
        f.want_round = false;
        // A report matching no version: every resync ships the full table.
        f.members[0].reported = Some((0, 7));
        let (base, cap) = (f.cfg.retry_base, f.cfg.fail_after.as_nanos() * 4);

        let mut now = Time::ZERO;
        let mut want = base.as_nanos();
        for _ in 0..8 {
            assert_eq!(f.reconcile(now, &mut rng, |_, _| false), None);
            let (_, id, msg) = sent(&mut f).pop().expect("a resync prepare");
            assert!(matches!(msg, CtrlMsg::Prepare { epoch: 1, .. }));
            f.on_reply(now, &mut rng, A, &nack(id, 1));
            assert_eq!(f.members[0].resync_backoff.as_nanos(), want);
            assert_eq!(f.members[0].next_resync, now + Time::from_nanos(want));
            // Nothing is sent again before the backoff expires.
            f.reconcile(now + Time::from_nanos(want - 1), &mut rng, |_, _| false);
            assert!(sent(&mut f).is_empty());
            now = f.members[0].next_resync;
            want = (want * 2).min(cap);
        }
        assert_eq!(f.members[0].resync_backoff.as_nanos(), cap);
    }
}
