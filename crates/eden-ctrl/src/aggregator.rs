//! The rack/pod aggregator: a mid-tier controller that makes root load
//! O(#aggregators) instead of O(#hosts).
//!
//! [`AggregatorApp`] faces both ways. To the *root* controller it looks
//! like one well-behaved host: it answers `Prepare` / `DeltaPrepare` /
//! `Commit` / `Abort` against the shard's [`ConfigModel`] (validating ops
//! and computing the config digest exactly as a leaf would), and it answers
//! [`CtrlMsg::AggSync`] with an [`CtrlReply::AggPong`] summarizing its
//! whole shard — children total, children converged, the highest epoch
//! any child reports, a divergence flag, the shard's replication deltas
//! (host-tagged), and its trace spans. To its *children* it runs the
//! controller's own fleet engine: per-child heartbeats, tracked requests
//! with retry and backoff, failure detection, two-phase shard rounds, and
//! per-child delta-planned resync.
//!
//! The key design choice is that the shard is **autonomous**: the
//! aggregator acks the root's `Commit` as soon as its own model commits,
//! then walks its children through the epoch in its own round. Epochs are
//! therefore *per-shard* — a slow or partitioned host delays only its
//! rack's convergence, never the root's round — at the cost of a window
//! where shards serve different (root-ordered) epochs. The root's
//! convergence predicate ([`ControllerApp::all_in_sync`]
//! (crate::ControllerApp::all_in_sync)) still waits for every shard to
//! finish, so nothing observable weakens for callers that wait for
//! convergence; only the failure domain shrinks.
//!
//! Wiring: the aggregator's stack must *not* set a ctrl port — both the
//! root's requests (dst port = `ctrl_port`) and the children's replies
//! (dst port = `src_port`) then arrive via [`App::on_raw`], demuxed by
//! UDP destination port. Schedule its tick like the controller's:
//!
//! ```ignore
//! net.schedule_timer(agg_node, Time::ZERO, transport::app_timer_token(TICK));
//! ```

use eden_core::{ApplyError, Enclave, EnclaveConfig, EnclaveOp};
use eden_repl::{FuncDelta, FuncView};
use eden_telemetry::{EnclaveCounters, Span};
use netsim::{Ctx, L4Header, Packet, SimRng, Time, UdpHeader};
use transport::{App, Stack};

use crate::agent::EnclaveAgent;
use crate::controller::{flush, CtrlConfig, WireCounters, TICK};
use crate::delta::ConfigModel;
use crate::fleet::{Fleet, Version};
use crate::proto::{self, AckPhase, CtrlMsg, CtrlReply};

/// Most child spans one AggPong relays to the root.
const AGG_SPAN_BUDGET: usize = 64;
/// Config versions the aggregator remembers as delta anchors for child
/// resyncs (the root keeps full history; shards only need a recent
/// window).
const AGG_HISTORY: usize = 8;

/// Aggregator knobs: the control-plane timing and ports, the same
/// [`CtrlConfig`] the root runs with.
#[derive(Debug, Clone, Default)]
pub struct AggConfig {
    pub ctrl: CtrlConfig,
}

/// In-process children for very large sweeps: `count` identical lossless
/// replicas represented by one real [`EnclaveAgent`]. Every child would
/// see the same bytes and answer the same way (no loss inside a process),
/// so the template validates the semantics while the wire cost is
/// tallied arithmetically — which is the quantity the ≥100k-host sweep
/// measures.
struct VirtualShard {
    count: usize,
    agent: EnclaveAgent,
    seq: u32,
}

/// A rack/pod aggregation tier endpoint (see module docs).
pub struct AggregatorApp {
    /// The child face: liveness, tracked requests, shard rounds, resync,
    /// and the committed versions (the last is the shard's config).
    fleet: Fleet,
    /// An epoch the root prepared but has not yet committed, as the
    /// configuration its ops produce.
    staged: Option<(u64, ConfigModel)>,
    /// Root controller address and reply port, learned from its first
    /// request.
    parent: Option<(u32, u16)>,
    virtual_shard: Option<VirtualShard>,
    /// Host-tagged replication views from the last AggSync, fanned down
    /// on each child's next heartbeat.
    views_down: Vec<(u32, FuncView)>,
    /// Latest replication delta per (child, function), fanned up on the
    /// next AggPong.
    deltas_up: Vec<(u32, FuncDelta)>,
    /// Child spans awaiting relay.
    spans_up: Vec<Span>,
    reply_seq: u32,
}

impl AggregatorApp {
    /// An aggregator fronting the enclave agents at `children`.
    pub fn new(cfg: AggConfig, children: &[u32]) -> AggregatorApp {
        AggregatorApp {
            fleet: Fleet::new(cfg.ctrl, children),
            staged: None,
            parent: None,
            virtual_shard: None,
            views_down: Vec::new(),
            deltas_up: Vec::new(),
            spans_up: Vec::new(),
            reply_seq: 0,
        }
    }

    /// An aggregator fronting `count` in-process virtual children (see
    /// [`VirtualShard`]); `enclave_cfg` sizes the template enclave —
    /// use a lean config for six-figure sweeps.
    pub fn with_virtual_children(
        cfg: AggConfig,
        count: usize,
        enclave_cfg: EnclaveConfig,
    ) -> AggregatorApp {
        let mut app = AggregatorApp::new(cfg, &[]);
        app.virtual_shard = Some(VirtualShard {
            count,
            agent: EnclaveAgent::new(Enclave::new(enclave_cfg)),
            seq: 0,
        });
        app
    }

    /// The shard's committed epoch.
    pub fn committed_epoch(&self) -> u64 {
        self.fleet.target().epoch
    }

    /// Children (real or virtual) this aggregator fronts.
    pub fn shard_size(&self) -> usize {
        match &self.virtual_shard {
            Some(v) => v.count,
            None => self.fleet.members.len(),
        }
    }

    /// Children currently converged to the shard's committed config.
    pub fn shard_synced(&self) -> usize {
        let want = self.fleet.want();
        match &self.virtual_shard {
            Some(v) => {
                let e = v.agent.enclave();
                if (e.active_epoch(), e.config_digest()) == want {
                    v.count
                } else {
                    0
                }
            }
            None => self
                .fleet
                .members
                .iter()
                .filter(|c| c.reported == Some(want))
                .count(),
        }
    }

    /// Control-wire load counters at this endpoint (both faces).
    pub fn wire(&self) -> WireCounters {
        self.fleet.wire
    }

    // ------------------------------------------------------------------
    // parent face
    // ------------------------------------------------------------------

    /// Handle one reassembled root request. Pure with respect to the
    /// network: child fan-out happens in [`drive`](Self::drive), which
    /// the packet and timer handlers run after it. Public for direct
    /// unit testing.
    pub fn handle_parent_msg(&mut self, re: u32, msg: CtrlMsg) -> CtrlReply {
        match msg {
            CtrlMsg::Prepare { epoch, ops } => self.stage(re, epoch, None, ops),
            CtrlMsg::DeltaPrepare {
                epoch,
                base_digest,
                ops,
            } => self.stage(re, epoch, Some(base_digest), ops),
            CtrlMsg::Commit { epoch } => match self.staged.take_if(|(e, _)| *e == epoch) {
                Some((_, model)) => {
                    self.fleet.push_version(Version { epoch, model });
                    self.fleet.trim_history(AGG_HISTORY);
                    // The root's round is done with us; now walk the
                    // shard through the epoch in our own round.
                    self.fleet.want_round = true;
                    CtrlReply::Ack {
                        re,
                        epoch,
                        phase: AckPhase::Commit,
                    }
                }
                // A duplicate commit of the committed epoch.
                None if self.staged.is_none() && self.committed_epoch() == epoch => {
                    CtrlReply::Ack {
                        re,
                        epoch,
                        phase: AckPhase::Commit,
                    }
                }
                None => CtrlReply::Nack {
                    re,
                    epoch,
                    reason: format!("epoch {epoch} not prepared"),
                },
            },
            CtrlMsg::Abort { epoch } => {
                if self.staged.as_ref().is_some_and(|(e, _)| *e == epoch) {
                    self.staged = None;
                }
                // Children never saw the aborted epoch: the shard round
                // only starts at commit.
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Abort,
                }
            }
            CtrlMsg::Heartbeat { nonce } => {
                let (epoch, digest) = self.fleet.want();
                CtrlReply::Pong {
                    re,
                    nonce,
                    epoch,
                    digest,
                    spans: Vec::new(),
                }
            }
            CtrlMsg::AggSync { nonce, views } => {
                self.views_down = views;
                self.agg_pong(re, nonce)
            }
            CtrlMsg::PullStats => {
                // The aggregator carries no traffic: zero counters.
                let (epoch, digest) = self.fleet.want();
                CtrlReply::Stats {
                    re,
                    epoch,
                    digest,
                    captured_at_ns: 0,
                    counters: EnclaveCounters::default(),
                    latencies: Vec::new(),
                }
            }
            CtrlMsg::PullTrace { max } => {
                let take = (max as usize).min(self.spans_up.len());
                CtrlReply::Spans {
                    re,
                    spans: self.spans_up.drain(..take).collect(),
                }
            }
        }
    }

    fn stage(&mut self, re: u32, epoch: u64, base: Option<u64>, ops: Vec<EnclaveOp>) -> CtrlReply {
        let (active, have) = self.fleet.want();
        if epoch < active {
            return CtrlReply::Nack {
                re,
                epoch,
                reason: format!("stale epoch {epoch} < active {active}"),
            };
        }
        if epoch == active {
            return CtrlReply::Ack {
                re,
                epoch,
                phase: AckPhase::Prepare,
            };
        }
        let staged = match base {
            Some(want) if want != have => Err(ApplyError::DigestMismatch { have, want }),
            _ => {
                let mut model = self.fleet.target().model.clone();
                model.apply(&ops).map(|()| model)
            }
        };
        match staged {
            Ok(model) => {
                self.staged = Some((epoch, model));
                CtrlReply::Ack {
                    re,
                    epoch,
                    phase: AckPhase::Prepare,
                }
            }
            Err(e) => CtrlReply::Nack {
                re,
                epoch,
                reason: e.to_string(),
            },
        }
    }

    /// Summarize the shard for the root.
    fn agg_pong(&mut self, re: u32, nonce: u64) -> CtrlReply {
        let (epoch, digest) = self.fleet.want();
        let (hosts_total, hosts_synced, max_epoch, diverged) = match &self.virtual_shard {
            Some(v) => {
                let e = v.agent.enclave();
                let synced = if (e.active_epoch(), e.config_digest()) == (epoch, digest) {
                    v.count as u32
                } else {
                    0
                };
                (v.count as u32, synced, e.active_epoch(), false)
            }
            None => {
                let mut synced = 0u32;
                let mut max_epoch = 0u64;
                let mut diverged = false;
                for c in &self.fleet.members {
                    let Some(r) = c.reported else { continue };
                    max_epoch = max_epoch.max(r.0);
                    if r == (epoch, digest) {
                        synced += 1;
                    } else if r.0 >= epoch {
                        diverged = true;
                    }
                }
                (self.fleet.members.len() as u32, synced, max_epoch, diverged)
            }
        };
        let take = AGG_SPAN_BUDGET.min(self.spans_up.len());
        CtrlReply::AggPong {
            re,
            nonce,
            epoch,
            digest,
            hosts_total,
            hosts_synced,
            max_epoch,
            diverged,
            deltas: std::mem::take(&mut self.deltas_up),
            spans: self.spans_up.drain(..take).collect(),
        }
    }

    // ------------------------------------------------------------------
    // child face
    // ------------------------------------------------------------------

    fn tick(&mut self, now: Time, rng: &mut SimRng) {
        // Per-child heartbeats, carrying that child's replication views
        // from the last AggSync fan-down.
        let views_down = &self.views_down;
        self.fleet.heartbeat(now, |_, to, nonce| {
            let msg = CtrlMsg::Heartbeat { nonce };
            let views: Vec<FuncView> = views_down
                .iter()
                .filter(|(h, _)| *h == to)
                .map(|(_, v)| v.clone())
                .collect();
            let payload = proto::encode_msg_synced(&msg, &views, None);
            (msg, payload)
        });
        self.fleet.retransmit(now, rng);
        self.drive(now, rng);
    }

    /// Advance or open the shard round, reporting the shard when one
    /// completes; reconcile stragglers when idle. A child *ahead* of the
    /// shard (or at its epoch with the wrong digest) cannot be healed
    /// here — the aggregator cannot mint epochs — so it is only reported
    /// up via AggPong's `max_epoch`/`diverged` and the root re-issues a
    /// fresh epoch.
    fn drive(&mut self, now: Time, rng: &mut SimRng) {
        if self.virtual_shard.is_some() {
            if self.drive_virtual() {
                self.report_shard();
            }
            return;
        }
        if self.fleet.drive(now, rng, || None).is_some() {
            self.report_shard();
        }
        if !self.fleet.in_round() {
            self.fleet.reconcile(now, rng, |_, _| false);
        }
    }

    /// The virtual shard converges synchronously: every child would see
    /// the same frames and answer identically, so one template agent
    /// executes the exchange and the wire tally scales by `count`.
    /// Returns whether a round ran.
    fn drive_virtual(&mut self) -> bool {
        if !std::mem::take(&mut self.fleet.want_round) {
            return false;
        }
        let epoch = self.fleet.target().epoch;
        let Some(mut v) = self.virtual_shard.take() else {
            return false;
        };
        let e = v.agent.enclave();
        let prep = self.fleet.plan(Some((e.active_epoch(), e.config_digest())));
        let commit = CtrlMsg::Commit { epoch };
        for msg in [prep, commit] {
            let bytes = proto::encode_msg(&msg).len();
            v.seq = v.seq.wrapping_add(1);
            let reply = v.agent.handle(v.seq, msg.clone());
            let wire = &mut self.fleet.wire;
            for _ in 0..v.count {
                wire.sent(&msg, bytes);
            }
            wire.msgs_received += v.count as u64;
            wire.bytes_received += (proto::encode_reply(&reply).len() * v.count) as u64;
            if matches!(reply, CtrlReply::Nack { .. }) {
                // Digest anchor missed (template diverged): full resync.
                v.seq = v.seq.wrapping_add(1);
                let full = self.fleet.plan(None);
                let bytes = proto::encode_msg(&full).len();
                v.agent.handle(v.seq, full.clone());
                let wire = &mut self.fleet.wire;
                for _ in 0..v.count {
                    wire.sent(&full, bytes);
                }
                v.seq = v.seq.wrapping_add(1);
                v.agent.handle(v.seq, CtrlMsg::Commit { epoch });
            }
        }
        self.virtual_shard = Some(v);
        true
    }

    /// A finished shard round changes what the root's convergence check
    /// depends on: report the shard now instead of at the next AggSync.
    fn report_shard(&mut self) {
        let pong = self.agg_pong(0, 0);
        self.send_parent(&pong);
    }

    fn send_parent(&mut self, reply: &CtrlReply) {
        let Some((to, port)) = self.parent else {
            return;
        };
        self.reply_seq = self.reply_seq.wrapping_add(1);
        let encoded = proto::encode_reply(reply);
        self.fleet.wire.msgs_sent += 1;
        self.fleet.wire.bytes_sent += encoded.len() as u64;
        let udp = UdpHeader {
            src_port: self.fleet.cfg.ctrl_port,
            dst_port: port,
        };
        self.fleet.enqueue(to, udp, self.reply_seq, &encoded);
    }

    fn handle_child_reply(
        &mut self,
        from: u32,
        reply: CtrlReply,
        deltas: Vec<FuncDelta>,
        now: Time,
        rng: &mut SimRng,
    ) {
        let Some(heard) = self.fleet.on_reply(now, rng, from, &reply) else {
            return;
        };
        if heard.prepare_nacked {
            // The shard cannot abort — the root already committed this
            // epoch. Drop the child from the round; the reconciler (with
            // backoff) keeps trying.
            self.fleet.give_up(heard.member, now);
        }
        match reply {
            CtrlReply::Pong { spans, .. } => {
                self.buffer_spans(spans);
                for d in deltas {
                    self.deltas_up
                        .retain(|(h, existing)| !(*h == from && existing.func == d.func));
                    self.deltas_up.push((from, d));
                }
            }
            CtrlReply::Spans { spans, .. } => self.buffer_spans(spans),
            _ => {}
        }
        if self.fleet.advance(now, rng).is_some() {
            self.report_shard();
        }
    }

    fn buffer_spans(&mut self, spans: Vec<Span>) {
        self.spans_up.extend(spans);
        let cap = AGG_SPAN_BUDGET * 4;
        if self.spans_up.len() > cap {
            let excess = self.spans_up.len() - cap;
            self.spans_up.drain(..excess);
        }
    }
}

impl App for AggregatorApp {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if token == TICK {
            let now = ctx.now();
            self.tick(now, ctx.rng());
            flush(&mut self.fleet, stack, ctx);
            ctx.timer_in(self.fleet.cfg.tick_every, transport::app_timer_token(TICK));
        }
    }

    fn on_raw(&mut self, packet: Packet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let Some(frame) = packet.ctrl.as_deref() else {
            return;
        };
        let L4Header::Udp(udp) = packet.l4 else {
            return;
        };
        let from = packet.ip.src;
        let Some(payload) = self.fleet.accept(from, frame) else {
            return;
        };
        let now = ctx.now();
        if udp.dst_port == self.fleet.cfg.ctrl_port {
            // Root request. The request's message id doubles as `re`.
            let re = u32::from_le_bytes(
                frame[2..6]
                    .try_into()
                    .expect("reassembled frames carry an id"),
            );
            let Ok((msg, _views, _ctx)) = proto::decode_msg_synced(&payload) else {
                return;
            };
            self.parent = Some((from, udp.src_port));
            let reply = self.handle_parent_msg(re, msg);
            self.send_parent(&reply);
            // A commit may have queued the shard round: open it now
            // rather than waiting out the tick.
            self.drive(now, ctx.rng());
        } else if udp.dst_port == self.fleet.cfg.src_port {
            // Child reply.
            let Ok((reply, deltas)) = proto::decode_reply_synced(&payload) else {
                return;
            };
            self.handle_child_reply(from, reply, deltas, now, ctx.rng());
        }
        flush(&mut self.fleet, stack, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::MatchSpec;
    use eden_lang::{Access, HeaderField, Schema};

    fn schema() -> Schema {
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
    }

    fn epoch_ops(prio: u8) -> Vec<EnclaveOp> {
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        let func = eden_core::Controller::new()
            .plan_function("set_prio", &source, &schema())
            .expect("compiles");
        vec![
            EnclaveOp::Reset,
            func,
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Any,
                func: 0,
            },
        ]
    }

    #[test]
    fn parent_two_phase_lands_in_history_and_queues_shard_round() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12]);
        let r = a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 0, "prepare must not commit");
        let r = a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        assert!(matches!(r, CtrlReply::Ack { epoch: 1, .. }));
        assert_eq!(a.committed_epoch(), 1);
        assert!(a.fleet.want_round, "commit queues the shard round");
        assert_eq!(a.fleet.history.len(), 2);
        assert_eq!(a.fleet.target().model.to_full_ops()[0], EnclaveOp::Reset);
    }

    #[test]
    fn parent_delta_prepare_anchors_on_model_digest() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        let anchor = a.fleet.target().model.digest();

        // Anchored delta appends one rule.
        let delta_ops = vec![EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(eden_core::ClassId(4)),
            func: 0,
        }];
        let r = a.handle_parent_msg(
            3,
            CtrlMsg::DeltaPrepare {
                epoch: 2,
                base_digest: anchor,
                ops: delta_ops.clone(),
            },
        );
        assert!(matches!(r, CtrlReply::Ack { epoch: 2, .. }));
        a.handle_parent_msg(4, CtrlMsg::Commit { epoch: 2 });
        assert_eq!(a.committed_epoch(), 2);
        assert_eq!(a.fleet.target().model.rule_count(), 2);

        // A wrong anchor nacks with the digest-mismatch reason.
        let r = a.handle_parent_msg(
            5,
            CtrlMsg::DeltaPrepare {
                epoch: 3,
                base_digest: anchor ^ 1,
                ops: delta_ops,
            },
        );
        match r {
            CtrlReply::Nack { reason, .. } => {
                assert!(reason.contains("digest mismatch"), "reason: {reason}")
            }
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn agg_pong_summarizes_children() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11, 12, 13]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        let want = (a.fleet.target().epoch, a.fleet.target().model.digest());
        a.fleet.members[0].reported = Some(want);
        a.fleet.members[1].reported = Some((0, 7)); // lagging
        a.fleet.members[2].reported = Some((want.0, 999)); // diverged

        let r = a.handle_parent_msg(
            3,
            CtrlMsg::AggSync {
                nonce: 9,
                views: Vec::new(),
            },
        );
        match r {
            CtrlReply::AggPong {
                nonce,
                epoch,
                hosts_total,
                hosts_synced,
                max_epoch,
                diverged,
                ..
            } => {
                assert_eq!(nonce, 9);
                assert_eq!(epoch, 1);
                assert_eq!(hosts_total, 3);
                assert_eq!(hosts_synced, 1);
                assert_eq!(max_epoch, 1);
                assert!(diverged, "digest-wrong child at the shard epoch");
            }
            other => panic!("expected AggPong, got {other:?}"),
        }
    }

    #[test]
    fn virtual_shard_converges_synchronously_and_scales_wire_tally() {
        let mut a = AggregatorApp::with_virtual_children(
            AggConfig::default(),
            1000,
            EnclaveConfig::default(),
        );
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        a.drive_virtual();
        assert_eq!(a.shard_size(), 1000);
        assert_eq!(a.shard_synced(), 1000);
        // prepare + commit, each fanned to every virtual child
        assert_eq!(a.wire().msgs_sent, 2000);
        assert!(a.wire().config_bytes_sent > 0);
    }

    #[test]
    fn stale_and_duplicate_parent_epochs_are_idempotent() {
        let mut a = AggregatorApp::new(AggConfig::default(), &[11]);
        a.handle_parent_msg(
            1,
            CtrlMsg::Prepare {
                epoch: 1,
                ops: epoch_ops(5),
            },
        );
        a.handle_parent_msg(2, CtrlMsg::Commit { epoch: 1 });
        // duplicate prepare of the active epoch: plain ack
        assert!(matches!(
            a.handle_parent_msg(
                3,
                CtrlMsg::Prepare {
                    epoch: 1,
                    ops: epoch_ops(5)
                }
            ),
            CtrlReply::Ack { .. }
        ));
        // stale prepare: nack
        assert!(matches!(
            a.handle_parent_msg(
                4,
                CtrlMsg::Prepare {
                    epoch: 0,
                    ops: epoch_ops(2)
                }
            ),
            CtrlReply::Nack { .. }
        ));
        // duplicate commit: ack, history unchanged
        let len = a.fleet.history.len();
        assert!(matches!(
            a.handle_parent_msg(5, CtrlMsg::Commit { epoch: 1 }),
            CtrlReply::Ack { .. }
        ));
        assert_eq!(a.fleet.history.len(), len);
    }
}
