//! `ctrl-fleet`: the control plane at fleet scale. A hierarchical fleet
//! like `ctrl_scale`'s — 1,024 enclave-agent hosts in √n racks, one
//! aggregator per rack, the root controller at the core — with loss on
//! every rack uplink, heartbeats and stats pulls on.
//!
//! One unit is a train of one-rule delta epochs, each issued as soon as
//! the previous one converged (a closed loop). Set-up builds the fleet,
//! lets it bootstrap and converges a first full table, untimed.

use std::time::Instant;

use eden_core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};
use eden_ctrl::{AggConfig, AggregatorApp, ControllerApp, CtrlConfig, EnclaveAgent, TICK};
use eden_lang::{Access, HeaderField, Schema};
use netsim::{LinkId, LinkSpec, Network, NodeId, Time, TwoTier};
use transport::{app_timer_token, App, Host, Stack, StackConfig};

use crate::probe::{self, Layer, Timed};
use crate::report::{quantile, Segment, UnitOut};

const HOSTS: usize = 1_024;
const RULES: usize = 16;
const EPOCHS: usize = 24;
/// Loss on every rack uplink, permille.
const UPLINK_LOSS_PERMILLE: u32 = 10;
const ROOT_ADDR: u32 = 1_000_000;
const AGG_BASE: u32 = 500_000;
/// Convergence is polled once per slice of virtual time.
const SLICE: Time = Time::from_micros(20);
/// An epoch not converged this long after it was issued has failed.
const EPOCH_DEADLINE: Time = Time::from_millis(100);

struct Idle;
impl App for Idle {}

pub struct CtrlFleet {
    pub seed: u64,
}

pub struct Unit {
    net: Network,
    root: NodeId,
    aggs: Vec<NodeId>,
    agents: Vec<NodeId>,
    /// Every host's access link (agents, aggregators, root).
    access: Vec<LinkId>,
    t: Time,
    compile_ns: f64,
}

fn config() -> CtrlConfig {
    CtrlConfig {
        stats_every: Time::from_millis(2),
        ..CtrlConfig::default()
    }
}

/// One function and `RULES` rules; `salt` changes the last rule only, so
/// successive epochs differ by one rule and ship as deltas.
fn desired_ops(core: &Controller, salt: u32, compile_ns: &mut f64) -> Vec<EnclaveOp> {
    let schema =
        Schema::new().packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp));
    let t = Instant::now();
    let func = core
        .plan_function(
            "set_prio",
            "fun (packet, msg, _global) -> packet.Priority <- 5",
            &schema,
        )
        .expect("compiles");
    *compile_ns += t.elapsed().as_nanos() as f64;
    let mut ops = vec![EnclaveOp::Reset, func];
    for i in 0..RULES {
        let class = if i == RULES - 1 {
            1_000 + salt
        } else {
            i as u32
        };
        ops.push(EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(class)),
            func: 0,
        });
    }
    ops
}

fn controller(unit: &mut Unit) -> &mut ControllerApp {
    &mut unit
        .net
        .node_mut::<Host<Timed<ControllerApp>>>(unit.root)
        .app
        .inner
}

fn frames_sent(unit: &Unit) -> u64 {
    unit.access
        .iter()
        .map(|&l| unit.net.link_stats(l)[0].packets)
        .sum()
}

/// Epoch-configuration bytes the aggregators have sent their children.
fn agg_config_bytes(unit: &Unit) -> u64 {
    unit.aggs
        .iter()
        .map(|&agg| {
            let app = &unit.net.node::<Host<Timed<AggregatorApp>>>(agg).app.inner;
            app.wire().config_bytes_sent
        })
        .sum()
}

fn agent_enclave(net: &mut Network, node: NodeId) -> &Enclave {
    net.node_mut::<Host<Idle>>(node)
        .stack
        .hook_mut::<EnclaveAgent>()
        .expect("agent installed")
        .enclave()
}

/// Hosts not yet serving the desired epoch and configuration.
fn lagging_hosts(unit: &mut Unit) -> usize {
    let (epoch, digest) = {
        let c = controller(unit);
        (c.desired_epoch(), c.desired_digest())
    };
    let net = &mut unit.net;
    unit.agents
        .iter()
        .filter(|&&node| {
            let e = agent_enclave(net, node);
            e.active_epoch() != epoch || e.config_digest() != digest || !e.serves_single_epoch()
        })
        .count()
}

/// How one epoch converged.
struct Converged {
    /// When every host served the desired configuration (`None`: not by
    /// the deadline).
    at: Option<Time>,
    /// When the root first reported the fleet in sync.
    root_claimed: Option<Time>,
    /// Hosts still lagging when the run stopped.
    lagging: usize,
    /// Wall time spent in the simulator.
    wall_ns: f64,
}

/// Run slices until the root reports the fleet in sync and every host
/// serves the desired configuration, or the deadline passes. The host
/// check runs between slices, untimed.
fn converge(unit: &mut Unit) -> Converged {
    let deadline = unit.t + EPOCH_DEADLINE;
    let mut c = Converged {
        at: None,
        root_claimed: None,
        lagging: 0,
        wall_ns: 0.0,
    };
    while unit.t < deadline {
        unit.t += SLICE;
        let t = unit.t;
        let start = Instant::now();
        probe::span(Layer::Netsim, || unit.net.run_until(t));
        c.wall_ns += start.elapsed().as_nanos() as f64;
        if c.root_claimed.is_none() && controller(unit).all_in_sync() {
            c.root_claimed = Some(t);
        }
        if c.root_claimed.is_some() {
            c.lagging = lagging_hosts(unit);
            if c.lagging == 0 {
                c.at = Some(t);
                return c;
            }
        }
    }
    if c.root_claimed.is_none() {
        c.lagging = lagging_hosts(unit);
    }
    c
}

impl crate::Workload for CtrlFleet {
    type Unit = Unit;

    fn setup(&self, _traced: bool) -> Unit {
        probe::reset(false);
        let cfg = config();
        let racks = ((HOSTS as f64).sqrt().round() as usize).max(1);
        let mut net = Network::new(self.seed);
        let topo = TwoTier::build(&mut net, racks, LinkSpec::forty_gbps());
        let mut ctrl = ControllerApp::new(cfg.clone(), &[]);
        let mut agents = Vec::with_capacity(HOSTS);
        let mut aggs = Vec::with_capacity(racks);
        let mut access = Vec::with_capacity(HOSTS + racks + 1);
        let mut next = 1u32;
        for rack in 0..racks {
            let share = HOSTS / racks + usize::from(rack < HOSTS % racks);
            let mut children = Vec::with_capacity(share);
            for _ in 0..share {
                let addr = next;
                next += 1;
                let lean = EnclaveConfig {
                    lanes: 1,
                    max_punted: 16,
                    max_messages_per_function: 64,
                    flight_capacity: 16,
                    ..EnclaveConfig::default()
                };
                let mut stack = Stack::new(addr, StackConfig::default());
                stack.set_hook(Timed::new(
                    Layer::CtrlAgent,
                    EnclaveAgent::new_with_addr(addr, Enclave::new(lean)),
                ));
                stack.set_ctrl_port(cfg.ctrl_port);
                let node = net.add_node(Timed::new(Layer::Transport, Host::new(stack, Idle)));
                access.push(topo.attach(&mut net, rack, node, addr, LinkSpec::ten_gbps()));
                agents.push(node);
                children.push(addr);
            }
            let agg_addr = AGG_BASE + rack as u32;
            let app = AggregatorApp::new(AggConfig { ctrl: cfg.clone() }, &children);
            let agg = net.add_node(Timed::new(
                Layer::Transport,
                Host::new(
                    Stack::new(agg_addr, StackConfig::default()),
                    Timed::new(Layer::CtrlAgg, app),
                ),
            ));
            access.push(topo.attach(&mut net, rack, agg, agg_addr, LinkSpec::ten_gbps()));
            net.schedule_timer(agg, Time::ZERO, app_timer_token(TICK));
            aggs.push(agg);
            ctrl.manage_aggregator(agg_addr, children);
            net.set_link_loss_permille(topo.racks[rack].uplink, UPLINK_LOSS_PERMILLE);
        }
        let root = net.add_node(Timed::new(
            Layer::Transport,
            Host::new(
                Stack::new(ROOT_ADDR, StackConfig::default()),
                Timed::new(Layer::CtrlRoot, ctrl),
            ),
        ));
        access.push(topo.attach_core(&mut net, root, ROOT_ADDR, LinkSpec::forty_gbps()));
        net.schedule_timer(root, Time::ZERO, app_timer_token(TICK));

        let mut unit = Unit {
            net,
            root,
            aggs,
            agents,
            access,
            t: Time::ZERO,
            compile_ns: 0.0,
        };
        // Bootstrap, then ship the full table once: every later epoch is
        // a one-rule delta against it.
        assert!(converge(&mut unit).at.is_some(), "fleet bootstraps");
        let mut compile_ns = 0.0;
        let ops = desired_ops(&controller(&mut unit).core, 0, &mut compile_ns);
        controller(&mut unit).set_desired(ops).expect("valid ops");
        assert!(converge(&mut unit).at.is_some(), "first table converges");
        unit.compile_ns = compile_ns;
        unit
    }

    fn measure(&self, mut unit: Unit, traced: bool, segments: &mut Vec<Segment>) -> UnitOut {
        probe::reset(traced);
        let wire_before = controller(&mut unit).wire();
        let frames_before = frames_sent(&unit);
        let events_before = unit.net.events_processed();
        let agg_config_before = agg_config_bytes(&unit);
        let mut wall_ns = 0.0;
        let mut epoch_ms = Vec::with_capacity(EPOCHS);
        let mut push_us = Vec::with_capacity(EPOCHS);
        let mut digest = probe::FNV_OFFSET;
        let mut failed_epochs = 0u64;
        let mut lagging = 0u64;
        let mut early_claims = 0u64;
        let mut compile_ns = 0.0;

        for salt in 1..=EPOCHS as u32 {
            let ops = desired_ops(&controller(&mut unit).core, salt, &mut compile_ns);
            let frames = frames_sent(&unit);
            let issued = unit.t;
            let start = Instant::now();
            probe::span(Layer::CtrlRoot, || controller(&mut unit).set_desired(ops))
                .expect("valid ops");
            let mut ns = start.elapsed().as_nanos() as f64;
            let c = converge(&mut unit);
            ns += c.wall_ns;
            wall_ns += ns;
            let Some(done) = c.at else {
                failed_epochs += 1;
                lagging += c.lagging as u64;
                break;
            };
            if c.root_claimed < c.at {
                early_claims += 1;
            }
            epoch_ms.push(ns / 1e6);
            push_us.push((done - issued).as_nanos() as f64 / 1e3);
            segments.push(Segment {
                ns,
                pkts: frames_sent(&unit) - frames,
            });
            digest = probe::fnv(digest, controller(&mut unit).desired_digest());
        }
        let epochs = epoch_ms.len();
        let times = probe::times();
        // the agents' replies, frame by frame, join the digest
        digest = probe::fnv(digest, probe::tap().digest);
        let frames = frames_sent(&unit) - frames_before;
        let mut out = UnitOut::new(wall_ns, frames, digest);
        out.attempted = EPOCHS as u64;
        out.check(
            failed_epochs == 0,
            "every host serves each epoch's desired config_digest by the deadline",
            failed_epochs,
        );
        if lagging > 0 {
            out.failures
                .push(format!("{lagging} hosts lagged at the deadline"));
        }
        // The root's own convergence predicate said "in sync" before
        // every host served the epoch: reported, not counted as failed.
        out.extra("root_early_sync_epochs", early_claims as f64, "count");

        let net = &mut unit.net;
        let unconserved = unit
            .agents
            .iter()
            .filter(|&&node| !agent_enclave(net, node).stats.conserved())
            .count() as u64;
        out.check(
            unconserved == 0,
            "EnclaveStats::conserved on every host",
            unconserved,
        );

        let wire = controller(&mut unit).wire();
        let agg_config = agg_config_bytes(&unit) - agg_config_before;
        let per_epoch = |v: u64| v as f64 / epochs.max(1) as f64;
        let root_msgs = (wire.msgs_sent - wire_before.msgs_sent)
            + (wire.msgs_received - wire_before.msgs_received);
        let root_bytes = (wire.bytes_sent - wire_before.bytes_sent)
            + (wire.bytes_received - wire_before.bytes_received);

        let mut sorted_ms = epoch_ms.clone();
        sorted_ms.sort_by(f64::total_cmp);
        let mut sorted_push = push_us.clone();
        sorted_push.sort_by(f64::total_cmp);
        out.extra("epochs_per_s", epochs as f64 / (wall_ns / 1e9), "1/s");
        out.extra("epoch_wall_ms_p50", quantile(&sorted_ms, 0.50), "ms");
        out.extra("epoch_wall_ms_p99", quantile(&sorted_ms, 0.99), "ms");
        out.extra("push_p50_us", quantile(&sorted_push, 0.50), "us");
        out.extra("push_p99_us", quantile(&sorted_push, 0.99), "us");
        out.extra("root_kb_per_epoch", per_epoch(root_bytes) / 1024.0, "KiB");

        out.layer(
            "netsim.events",
            per_epoch(unit.net.events_processed() - events_before),
            "count",
        );
        out.layer(
            "eden-ctrl.root_msgs_per_epoch",
            per_epoch(root_msgs),
            "count",
        );
        out.layer(
            "eden-ctrl.config_bytes_per_epoch",
            per_epoch(wire.config_bytes_sent - wire_before.config_bytes_sent + agg_config),
            "bytes",
        );
        let rtt = controller(&mut unit).ctrl_rtt().p50().unwrap_or(0);
        out.layer("eden-ctrl.rtt_p50_us", rtt as f64 / 1e3, "us");
        out.layer(
            "eden-lang.compile_s",
            (unit.compile_ns + compile_ns) / 1e9,
            "s",
        );
        if traced {
            let per_epoch_s = |l: Layer| times.get(l) / 1e9 / epochs.max(1) as f64;
            out.layer("netsim.self_s", per_epoch_s(Layer::Netsim), "s");
            out.layer("transport.self_s", per_epoch_s(Layer::Transport), "s");
            out.layer("eden-ctrl.root.self_s", per_epoch_s(Layer::CtrlRoot), "s");
            out.layer("eden-ctrl.agg.self_s", per_epoch_s(Layer::CtrlAgg), "s");
            out.layer("eden-ctrl.agent.self_s", per_epoch_s(Layer::CtrlAgent), "s");
            out.layers_sum(times.total_ns());
        }
        out
    }
}
