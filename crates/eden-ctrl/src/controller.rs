//! The controller application: desired state, two-phase pushes, failure
//! detection, and reconciliation — all driven by one periodic timer.
//!
//! [`ControllerApp`] runs as a [`transport::App`] on an ordinary host, so
//! every control message pays real wire time on the same links the data
//! plane uses (§3.2: the controller "communicates with enclaves over the
//! network"). The state machine:
//!
//! * **Desired state** is a [`ConfigModel`] tagged with an epoch. Applying
//!   the operator's ops to it validates them before anything touches the
//!   wire, and its digest is what every host must report at convergence.
//!   A host ships either the model's full `Reset`-led op list or a diff
//!   from the version it last reported.
//! * **Pushes are two-phase**: `Prepare` to every live host, and only when
//!   *all* of them ack does `Commit` go out — so the fleet can never serve
//!   a mix of old and new epochs because half the hosts raced ahead. A
//!   `Nack` aborts the round everywhere and rolls desired state back.
//! * **Failure detection** is heartbeat-driven: a host that stays silent
//!   past `fail_after` is marked [`HostStatus::Down`] and dropped from the
//!   current round (2PC over an asynchronous network cannot wait forever);
//!   heartbeats keep flowing so its rejoin is noticed.
//! * **Reconciliation** closes the loop: every pong carries the host's
//!   epoch + digest, and any host that differs from desired state while no
//!   round is active gets an individual prepare/commit resync — this is
//!   how a partitioned host catches up after the partition heals.
//!
//! Message loss is handled with per-request retries under exponential
//! backoff with jitter; message ids correlate replies, so a late duplicate
//! ack can never be mistaken for the answer to a newer request.
//!
//! The mechanics — liveness, tracked requests, rounds, resync, reply
//! correlation and delta planning — are the crate's fleet engine, which
//! every aggregator runs too; this module holds the root's policy on top.
//!
//! The driver must kick the timer wheel once:
//!
//! ```ignore
//! net.schedule_timer(ctrl_node, Time::ZERO, transport::app_timer_token(eden_ctrl::TICK));
//! ```

use eden_core::{ApplyError, EnclaveOp};
use eden_repl::{FuncDelta, FuncView, ReplHub, ReplSpec};
use eden_telemetry::{
    ClusterStats, EnclaveCounters, FlightDump, FlightEvent, FlightKind, FlightRing, HostReport,
    LatencyStat, LogHistogram, ReplLag, Span, TraceContext, TraceStore,
};
use netsim::{Ctx, Packet, SimRng, Time};
use transport::{App, Stack};

use crate::delta::ConfigModel;
use crate::fleet::{Fleet, RoundDone, Version};
use crate::proto::{self, CtrlMsg, CtrlReply};

/// Timer payload of the controller's periodic tick (pass through
/// [`transport::app_timer_token`] when scheduling the first one).
pub const TICK: u64 = 0x71C4;

/// Events the controller's flight recorder keeps.
const FLIGHT_CAPACITY: usize = 256;

/// Timing and port knobs. The defaults suit the workspace's default
/// fabric (10 Gb/s links, microsecond propagation); everything scales
/// linearly if a scenario runs slower links.
#[derive(Debug, Clone)]
pub struct CtrlConfig {
    /// UDP port the enclave agents listen on (`Stack::set_ctrl_port`).
    pub ctrl_port: u16,
    /// UDP source port for controller-originated messages.
    pub src_port: u16,
    /// Cadence of the controller's internal tick.
    pub tick_every: Time,
    /// Heartbeat interval per host.
    pub heartbeat_every: Time,
    /// Stats-pull interval per host; `Time::ZERO` disables pulling.
    pub stats_every: Time,
    /// First retransmit delay; doubles per retry (plus jitter).
    pub retry_base: Time,
    /// Retransmit delay ceiling.
    pub retry_max: Time,
    /// Retransmits before the controller gives up on a request and marks
    /// the host down.
    pub max_retries: u32,
    /// Silence threshold for failure detection.
    pub fail_after: Time,
    /// Whether epoch rounds carry a trace context, so every host's
    /// prepare/commit spans assemble under one per-round trace tree.
    /// Rounds are rare control events, so this defaults on.
    pub trace_rounds: bool,
    /// Most spans requested per `PullTrace` (sent with the stats pulls);
    /// 0 disables explicit pulls and leaves heartbeat piggybacking as
    /// the only collection path.
    pub pull_trace_max: u16,
    /// Ship config changes as digest-anchored [`CtrlMsg::DeltaPrepare`]
    /// diffs when a host's last report matches a known history entry and
    /// the diff is smaller on the wire. Off forces full-table ships —
    /// the control arm for the wire-bytes benchmark.
    pub delta_updates: bool,
}

impl Default for CtrlConfig {
    fn default() -> CtrlConfig {
        CtrlConfig {
            ctrl_port: 799,
            src_port: 7990,
            tick_every: Time::from_micros(100),
            heartbeat_every: Time::from_micros(1_000),
            stats_every: Time::ZERO,
            retry_base: Time::from_micros(500),
            retry_max: Time::from_micros(10_000),
            max_retries: 10,
            fail_after: Time::from_micros(5_000),
            trace_rounds: true,
            pull_trace_max: 256,
            delta_updates: true,
        }
    }
}

/// Message/byte tallies for everything this endpoint puts on or takes
/// off the control wire — the root-load metric the hierarchical tier
/// exists to shrink. Counted at message granularity (encoded payload
/// bytes, before fragmentation headers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub bytes_received: u64,
    /// Bytes of epoch-configuration traffic only (Prepare / DeltaPrepare
    /// / Commit / Abort) — the delta-vs-full comparison metric.
    pub config_bytes_sent: u64,
}

impl WireCounters {
    /// Record one sent message of `payload_len` encoded bytes.
    pub(crate) fn sent(&mut self, msg: &CtrlMsg, payload_len: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += payload_len as u64;
        if matches!(
            msg,
            CtrlMsg::Prepare { .. }
                | CtrlMsg::DeltaPrepare { .. }
                | CtrlMsg::Commit { .. }
                | CtrlMsg::Abort { .. }
        ) {
            self.config_bytes_sent += payload_len as u64;
        }
    }
}

/// Liveness verdict for one managed host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStatus {
    /// Answering heartbeats (or not yet past the silence threshold).
    Up,
    /// Silent past `fail_after`, or exhausted a request's retries.
    Down,
}

/// What the root knows of a rack/pod aggregator's shard, from its last
/// [`CtrlReply::AggPong`].
struct Subtree {
    children: Vec<u32>,
    /// Children converged to the aggregator's `(epoch, digest)` at that
    /// time, and that pair: the count only vouches for the desired config
    /// when the pair is the desired one.
    synced: u32,
    synced_to: Option<(u64, u64)>,
    /// Highest epoch any child reports, and whether some child serves the
    /// epoch with a wrong digest.
    max_epoch: u64,
    diverged: bool,
}

/// Put the engine's queued frames on the wire, in order.
pub(crate) fn flush(fleet: &mut Fleet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
    for (to, udp, frame) in fleet.outbox.drain(..) {
        stack.send_raw(Packet::ctrl(stack.addr, to, udp, frame), ctx);
    }
}

/// The cluster controller, run as a host [`App`].
pub struct ControllerApp {
    /// Liveness, tracked requests, rounds, resync and the desired-state
    /// history (the last version is desired; a nacked round rolls back).
    fleet: Fleet,
    /// Compilation front end, for building [`EnclaveOp`] lists
    /// (`core.plan_function(...)`).
    pub core: eden_core::Controller,
    /// Per member: `Some` marks a rack/pod aggregator fronting that shard.
    /// Its heartbeats become [`CtrlMsg::AggSync`] and its pongs summarize
    /// the whole shard.
    subtrees: Vec<Option<Subtree>>,
    /// Control-plane black box: desired-state versions and divergences,
    /// frozen and emitted per `EDEN_FLIGHT` when a host diverges.
    flight: FlightRing,
    cluster: ClusterStats,
    next_stats: Time,
    /// Cross-host span assembly (pong piggybacks + `PullTrace` replies +
    /// the controller's own round roots).
    trace: TraceStore,
    /// Controller-namespace id counter for trace ids and round root
    /// spans (well below the `host << 40` agent namespaces).
    span_seq: u64,
    /// Request → matching-reply round-trip times.
    rtt: LogHistogram,
    /// Round open → commit-fanout completion.
    converge: LogHistogram,
    /// Replication rendezvous: per-host merged contributions, the global
    /// sequenced order, and anti-entropy. Views fan out on heartbeats;
    /// deltas arrive on pongs.
    repl: ReplHub,
    /// Gap between consecutive deltas from the same host — how stale its
    /// replica view runs (the heartbeat cadence plus any loss).
    repl_staleness: LogHistogram,
    /// Wire size of each pong's delta section.
    repl_delta_bytes: LogHistogram,
}

impl ControllerApp {
    /// A controller managing the enclave agents at `hosts`.
    pub fn new(cfg: CtrlConfig, hosts: &[u32]) -> ControllerApp {
        ControllerApp {
            fleet: Fleet::new(cfg, hosts),
            core: eden_core::Controller::new(),
            subtrees: hosts.iter().map(|_| None).collect(),
            flight: FlightRing::new(FLIGHT_CAPACITY),
            cluster: ClusterStats::new(),
            next_stats: Time::ZERO,
            trace: TraceStore::new(4096),
            span_seq: 0,
            rtt: LogHistogram::new(),
            converge: LogHistogram::new(),
            repl: ReplHub::new(),
            repl_staleness: LogHistogram::new(),
            repl_delta_bytes: LogHistogram::new(),
        }
    }

    /// Promote `addr` to (or register it as) a rack/pod aggregator
    /// fronting `children`. The controller stops talking to the children
    /// directly: epoch phases and heartbeats go to the aggregator, which
    /// runs its own shard round and reports the shard's convergence in
    /// one [`CtrlReply::AggPong`] — root message count is
    /// O(#aggregators), not O(#hosts).
    pub fn manage_aggregator(&mut self, addr: u32, children: Vec<u32>) {
        let i = self.fleet.position(addr).unwrap_or_else(|| {
            self.subtrees.push(None);
            self.fleet.add_member(addr)
        });
        self.subtrees[i] = Some(Subtree {
            children,
            synced: 0,
            synced_to: None,
            max_epoch: 0,
            diverged: false,
        });
    }

    // ------------------------------------------------------------------
    // public surface
    // ------------------------------------------------------------------

    /// Apply `ops` to desired state (validated first; nothing changes
    /// on error). Returns the new epoch; the push itself starts on the
    /// next tick. `ops` may be a `Reset`-led full description or an
    /// incremental change: hosts receive whichever of the resulting
    /// configuration's full op list or a diff fits what they hold.
    pub fn set_desired(&mut self, ops: Vec<EnclaveOp>) -> Result<u64, ApplyError> {
        let mut model = self.desired().model.clone();
        model.apply(&ops)?;
        let epoch = self.desired().epoch + 1;
        self.push_desired(epoch, model);
        Ok(epoch)
    }

    /// The epoch the cluster should converge to.
    pub fn desired_epoch(&self) -> u64 {
        self.desired().epoch
    }

    /// The config digest every host should report at convergence.
    pub fn desired_digest(&self) -> u64 {
        self.desired().model.digest()
    }

    /// Whether every managed endpoint has *reported* the desired epoch
    /// and digest — the convergence predicate benchmarks wait on. Down
    /// hosts count: convergence requires the whole fleet. An aggregator
    /// additionally vouches for its shard: every child it fronts must
    /// have converged too.
    pub fn all_in_sync(&self) -> bool {
        let want = self.fleet.want();
        self.fleet.members.iter().zip(&self.subtrees).all(|(m, s)| {
            m.reported == Some(want)
                && s.as_ref().is_none_or(|s| {
                    s.synced_to == Some(want) && s.synced as usize == s.children.len()
                })
        })
    }

    /// How many directly-managed endpoints report the desired epoch +
    /// digest (an aggregator counts as one endpoint here; see
    /// [`in_sync_hosts`](Self::in_sync_hosts) for the leaf count).
    pub fn in_sync_count(&self) -> usize {
        let want = Some(self.fleet.want());
        self.fleet
            .members
            .iter()
            .filter(|m| m.reported == want)
            .count()
    }

    /// Total enclave-bearing hosts under management: direct hosts plus
    /// every aggregator's children.
    pub fn fleet_size(&self) -> usize {
        self.subtrees
            .iter()
            .map(|s| s.as_ref().map_or(1, |s| s.children.len()))
            .sum()
    }

    /// Leaf hosts currently converged to desired state, counting each
    /// aggregator's last-reported shard tally.
    pub fn in_sync_hosts(&self) -> usize {
        let want = Some(self.fleet.want());
        let members = self.fleet.members.iter().zip(&self.subtrees);
        members
            .map(|(m, s)| match s {
                Some(s) if m.reported == want && s.synced_to == want => s.synced as usize,
                Some(_) => 0,
                None => usize::from(m.reported == want),
            })
            .sum()
    }

    /// Control-wire load counters at this (root) endpoint.
    pub fn wire(&self) -> WireCounters {
        self.fleet.wire
    }

    /// Liveness verdict for `addr` (None if unmanaged).
    pub fn host_status(&self, addr: u32) -> Option<HostStatus> {
        let i = self.fleet.position(addr)?;
        Some(self.fleet.members[i].status)
    }

    /// Whether a cluster-wide update round is still in flight.
    pub fn round_active(&self) -> bool {
        self.fleet.busy()
    }

    /// Aggregated per-host stats (filled by `stats_every` pulls).
    pub fn cluster(&self) -> &ClusterStats {
        &self.cluster
    }

    /// The assembled cross-host trace trees (round roots plus every span
    /// collected from agents).
    pub fn trace(&self) -> &TraceStore {
        &self.trace
    }

    /// Controller-side round-trip latency histogram.
    pub fn ctrl_rtt(&self) -> &LogHistogram {
        &self.rtt
    }

    /// Epoch convergence (round open → commit completion) histogram.
    pub fn convergence(&self) -> &LogHistogram {
        &self.converge
    }

    /// The replication hub: fleet-wide merged totals, the sequenced
    /// order, per-host lag, and divergence flags.
    pub fn repl(&self) -> &ReplHub {
        &self.repl
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn desired(&self) -> &Version {
        self.fleet.target()
    }

    /// Make `model` desired state under `epoch` and queue its round.
    fn push_desired(&mut self, epoch: u64, model: ConfigModel) {
        self.flight_record(FlightKind::EpochStage, epoch, 0);
        self.flight_record(FlightKind::EpochCommit, epoch, 0);
        self.fleet.push_version(Version { epoch, model });
        self.sync_repl();
        self.fleet.want_round = true;
    }

    fn flight_record(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.flight.record(FlightEvent {
            at_ns: 0,
            lane: 0,
            kind,
            a,
            b,
        });
    }

    /// Mirror desired state's replication layout into the hub: each
    /// function's spec comes from its schema, exactly as every host
    /// derives it on commit. Re-installing an unchanged spec keeps
    /// accumulated sync state (epochs re-push configuration
    /// idempotently); a changed spec resets that function.
    fn sync_repl(&mut self) {
        let specs: Vec<(usize, ReplSpec)> = self
            .desired()
            .model
            .functions()
            .map(|f| ReplSpec::from_schema(&f.schema))
            .enumerate()
            .filter(|(_, spec)| !spec.is_empty())
            .collect();
        for f in self.repl.active_funcs() {
            if !specs.iter().any(|&(g, _)| g == f) {
                self.repl.install(f, ReplSpec::default());
            }
        }
        for (f, spec) in specs {
            self.repl.install(f, spec);
        }
    }

    fn tick(&mut self, now: Time, rng: &mut SimRng) {
        // Heartbeats, each carrying replication views — the fan-out half
        // of the sync loop. An aggregator gets one AggSync carrying the
        // views of every host in its shard, host-tagged; a plain host
        // gets its own views on a regular heartbeat.
        let (repl, subtrees) = (&mut self.repl, &self.subtrees);
        self.fleet.heartbeat(now, |i, to, nonce| {
            let funcs = repl.active_funcs();
            match &subtrees[i] {
                Some(s) => {
                    let mut views = Vec::new();
                    for &c in &s.children {
                        for &f in &funcs {
                            if let Some(v) = repl.view_for(c, f) {
                                views.push((c, v));
                            }
                        }
                    }
                    let msg = CtrlMsg::AggSync { nonce, views };
                    let payload = proto::encode_msg(&msg);
                    (msg, payload)
                }
                None => {
                    let msg = CtrlMsg::Heartbeat { nonce };
                    let views: Vec<FuncView> =
                        funcs.iter().filter_map(|&f| repl.view_for(to, f)).collect();
                    let payload = proto::encode_msg_synced(&msg, &views, None);
                    (msg, payload)
                }
            }
        });

        // Periodic stats pulls (plus a trace drain on the same cadence).
        let cfg = &self.fleet.cfg;
        if cfg.stats_every > Time::ZERO && now >= self.next_stats {
            self.next_stats = now + cfg.stats_every;
            let max = cfg.pull_trace_max;
            for i in 0..self.fleet.members.len() {
                let m = &self.fleet.members[i];
                if m.status == HostStatus::Up {
                    let to = m.addr;
                    self.fleet.send(to, &CtrlMsg::PullStats, None);
                    if max > 0 {
                        self.fleet.send(to, &CtrlMsg::PullTrace { max }, None);
                    }
                }
            }
        }

        self.fleet.retransmit(now, rng);

        let (trace_rounds, span_seq) = (self.fleet.cfg.trace_rounds, &mut self.span_seq);
        let new_trace = || {
            trace_rounds.then(|| {
                *span_seq += 2;
                TraceContext::sampled(*span_seq - 1, *span_seq)
            })
        };
        if let Some(done) = self.fleet.drive(now, rng, new_trace) {
            self.finish_round(now, done);
        }

        // Reconciliation: with no round in flight, any host whose report
        // differs from desired gets an individual resync.
        if !self.fleet.in_round() {
            self.reconcile(now, rng);
        }

        self.refresh_repl_lags(now.as_nanos());
    }

    /// Mirror the hub's per-host replica age into [`ClusterStats`], so
    /// dashboards (`eden_top`, the Prometheus exposition) see lag keep
    /// growing for a silent host, not just on delta arrival.
    fn refresh_repl_lags(&mut self, now_ns: u64) {
        if self.repl.active_funcs().is_empty() {
            if !self.cluster.repl_lags.is_empty() {
                self.cluster.repl_lags.clear();
            }
            return;
        }
        let report = self.repl.report(now_ns);
        self.cluster.repl_lags = report
            .hosts
            .into_iter()
            .map(|(host, lag_ns, divergent)| ReplLag {
                host,
                lag_ns,
                divergent,
            })
            .collect();
    }

    /// Resync lagging hosts. A host at (or past) the desired epoch with a
    /// wrong digest diverged; so did an aggregator whose own config
    /// converged but which vouches for a diverged or run-ahead child (it
    /// cannot mint epochs itself). Either way, freeze the flight recorder
    /// (the controller-side record of what it believed) and re-issue
    /// desired state under a fresh epoch, so a plain prepare/commit
    /// replay heals the whole fleet.
    fn reconcile(&mut self, now: Time, rng: &mut SimRng) {
        let want = self.fleet.want();
        let subtrees = &self.subtrees;
        let subtree = |i: usize| subtrees[i].as_ref();
        let Some(i) = self.fleet.reconcile(now, rng, |i, reported| {
            reported != want || subtree(i).is_some_and(|s| s.diverged || s.max_epoch > want.0)
        }) else {
            return;
        };
        let (addr, reported) = (self.fleet.members[i].addr, self.fleet.members[i].reported);
        let reported = reported.expect("only reporting members diverge");
        let ahead = reported.0.max(subtree(i).map_or(0, |s| s.max_epoch));
        self.flight_record(FlightKind::Divergence, u64::from(addr), reported.1);
        FlightDump::freeze(
            "divergence",
            0,
            0,
            std::slice::from_ref(&self.flight),
            Vec::new(),
            EnclaveCounters::default(),
        )
        .emit();
        let model = self.desired().model.clone();
        self.push_desired(ahead + 1, model);
    }

    /// Close out a completed round: record its convergence latency (for
    /// committed rounds) and ingest the trace root so the collected
    /// per-host spans hang off a tree.
    fn finish_round(&mut self, now: Time, done: RoundDone) {
        let opened_at = done.opened_at.as_nanos();
        if done.committed {
            self.converge
                .record(now.as_nanos().saturating_sub(opened_at));
        }
        if let Some(t) = done.trace {
            self.trace.ingest(Span {
                trace_id: t.trace_id,
                span_id: t.parent_span,
                parent_span: 0,
                host: 0,
                name: "epoch".into(),
                start_ns: opened_at,
                end_ns: now.as_nanos(),
            });
        }
        self.refresh_ctrl_latencies();
    }

    fn refresh_ctrl_latencies(&mut self) {
        self.cluster.ctrl_latencies = vec![
            LatencyStat::new("ctrl.rtt", self.rtt.clone()),
            LatencyStat::new("epoch.converge", self.converge.clone()),
            LatencyStat::new("repl.staleness", self.repl_staleness.clone()),
            LatencyStat::new("repl.delta_bytes", self.repl_delta_bytes.clone()),
        ];
    }

    fn handle_reply(
        &mut self,
        from: u32,
        reply: CtrlReply,
        deltas: Vec<FuncDelta>,
        now: Time,
        rng: &mut SimRng,
    ) {
        let Some(heard) = self.fleet.on_reply(now, rng, from, &reply) else {
            return; // not one of ours
        };
        if let Some(rtt) = heard.rtt {
            self.rtt.record(rtt.as_nanos());
            self.refresh_ctrl_latencies();
        }
        if heard.prepare_nacked {
            // Abort everywhere and roll desired state back (the initial
            // version always stays).
            if let Some(epoch) = self.fleet.abort_round(now, rng) {
                if self.fleet.rollback(epoch) {
                    self.flight_record(FlightKind::EpochAbort, epoch, 0);
                    self.sync_repl();
                }
            }
        }
        let now_ns = now.as_nanos();
        match reply {
            CtrlReply::Pong { spans, .. } => {
                for span in spans {
                    self.trace.ingest(span);
                }
                if !deltas.is_empty() {
                    // Staleness = gap since this host's previous delta;
                    // its first delta has no gap to measure.
                    let prev = self.repl.report(now_ns);
                    if let Some(&(_, lag, _)) = prev.hosts.iter().find(|&&(h, _, _)| h == from) {
                        self.repl_staleness.record(lag);
                    }
                    self.repl_delta_bytes
                        .record(proto::repl_deltas_wire_len(&deltas) as u64);
                    for d in &deltas {
                        self.repl.ingest(from, now_ns, d);
                    }
                    self.refresh_ctrl_latencies();
                }
            }
            CtrlReply::Spans { spans, .. } => {
                for span in spans {
                    self.trace.ingest(span);
                }
            }
            CtrlReply::AggPong {
                epoch,
                digest,
                hosts_synced,
                max_epoch,
                diverged,
                deltas,
                spans,
                ..
            } => {
                if let Some(s) = self.subtrees[heard.member].as_mut() {
                    s.synced = hosts_synced;
                    s.synced_to = Some((epoch, digest));
                    s.max_epoch = max_epoch;
                    s.diverged = diverged;
                }
                for span in spans {
                    self.trace.ingest(span);
                }
                if !deltas.is_empty() {
                    let bare: Vec<FuncDelta> = deltas.iter().map(|(_, d)| d.clone()).collect();
                    self.repl_delta_bytes
                        .record(proto::repl_deltas_wire_len(&bare) as u64);
                    // Host-tagged fan-in: each child's contribution lands
                    // under its own address, exactly as if it had ponged
                    // the root directly.
                    for (host, d) in &deltas {
                        self.repl.ingest(*host, now_ns, d);
                    }
                    self.refresh_ctrl_latencies();
                }
            }
            CtrlReply::Stats {
                epoch,
                digest,
                captured_at_ns,
                counters,
                latencies,
                ..
            } => {
                self.cluster.record(HostReport {
                    host: from,
                    epoch,
                    digest,
                    captured_at_ns,
                    enclave: counters,
                    latencies,
                });
            }
            CtrlReply::Ack { .. } | CtrlReply::Nack { .. } => {}
        }
        if let Some(done) = self.fleet.advance(now, rng) {
            self.finish_round(now, done);
        }
    }
}

impl App for ControllerApp {
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
        let from = packet.ip.src;
        let Some(payload) = self.fleet.accept(from, frame) else {
            return;
        };
        let Ok((reply, deltas)) = proto::decode_reply_synced(&payload) else {
            return;
        };
        let now = ctx.now();
        self.handle_reply(from, reply, deltas, now, ctx.rng());
        flush(&mut self.fleet, stack, ctx);
    }
}
