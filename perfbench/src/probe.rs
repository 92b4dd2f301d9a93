//! The benchmark's own instrumentation: spans timed from outside each
//! layer, and a tap on the enclave hook.
//!
//! Layers are timed by wrapping the objects the program calls into — a
//! [`Timed`] around each netsim node, each transport application and each
//! packet hook — so the program under test carries no tracing of its own.
//! Spans nest on one thread: each open span links to its parent on the
//! stack, and a span's self time is its duration minus the time its
//! children cover. Only the per-layer totals are kept; a run has millions
//! of spans and the totals are all the report needs.
//!
//! The hook tap counts hook calls by batch size (the walk census) and
//! folds every verdict and the headers an action function may rewrite
//! into a digest, in both traced and untraced runs, so the two can be
//! compared.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use netsim::{Ctx, Node, NodeEvent, Packet};
use transport::{App, ConnId, HookEnv, HookVerdict, PacketHook, Stack};

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The event loop and the switches.
    Netsim,
    /// Host stacks (a host node's time not spent in its app or hook).
    Transport,
    /// `eden-apps` applications, stage classification included.
    Apps,
    /// The enclave data path.
    Enclave,
    /// `netsim::wire::encode`, the NIC step of the batch workloads.
    Wire,
    /// The root controller application.
    CtrlRoot,
    /// Rack aggregator applications.
    CtrlAgg,
    /// Enclave agents answering control frames.
    CtrlAgent,
}

pub const LAYERS: usize = 8;

/// Per-layer self time of one traced stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub self_ns: [u64; LAYERS],
}

impl LayerTimes {
    pub fn get(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64
    }

    pub fn total_ns(&self) -> f64 {
        self.self_ns.iter().map(|&n| n as f64).sum()
    }
}

/// Hook calls and outcomes seen by the tap.
#[derive(Debug, Clone, Copy)]
pub struct HookTap {
    /// Calls carrying one packet (`on_egress`, or a batch of one).
    pub calls_single: u64,
    /// `on_egress_batch` calls carrying two or more packets.
    pub calls_batch: u64,
    /// Packets through the egress hook.
    pub packets: u64,
    /// FNV-1a over verdicts and rewritable headers, in call order.
    pub digest: u64,
}

impl Default for HookTap {
    fn default() -> Self {
        HookTap {
            calls_single: 0,
            calls_batch: 0,
            packets: 0,
            digest: FNV_OFFSET,
        }
    }
}

struct Open {
    layer: Layer,
    start: Instant,
    /// Time covered by this span's finished children.
    child_ns: u64,
}

#[derive(Default)]
struct Probe {
    tracing: bool,
    stack: Vec<Open>,
    times: LayerTimes,
    tap: HookTap,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Start a fresh stretch: clear the totals and the tap, and switch span
/// timing on or off.
pub fn reset(tracing: bool) {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        assert!(p.stack.is_empty(), "reset inside an open span");
        *p = Probe {
            tracing,
            ..Probe::default()
        };
    });
}

/// Per-layer totals since the last [`reset`].
pub fn times() -> LayerTimes {
    PROBE.with(|p| p.borrow().times)
}

/// Tap counters since the last [`reset`].
pub fn tap() -> HookTap {
    PROBE.with(|p| p.borrow().tap)
}

fn enter(layer: Layer) -> bool {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        if !p.tracing {
            return false;
        }
        p.stack.push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    })
}

fn leave() {
    let end = Instant::now();
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let open = p.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let layer = open.layer as usize;
        p.times.self_ns[layer] += dur.saturating_sub(open.child_ns);
        if let Some(parent) = p.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
}

/// Run `f` inside a span of `layer` (a plain call while tracing is off).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if enter(layer) {
        let r = f();
        leave();
        r
    } else {
        f()
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `v` into an FNV-1a digest, one byte at a time.
pub fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fold a verdict and the headers an action function may rewrite.
pub fn fold_packet(h: u64, p: &Packet, v: HookVerdict) -> u64 {
    let verdict = match v {
        HookVerdict::Pass => 0,
        HookVerdict::Drop => 1,
        HookVerdict::Queue { queue, charge } => 2 | (queue as u64) << 8 | charge << 24,
    };
    let h = fnv(h, verdict);
    let h = fnv(h, u64::from(p.priority()) | u64::from(p.route_label()) << 8);
    fnv(h, u64::from(p.ip.dst) | u64::from(p.ip.dscp) << 32)
}

fn tap_egress(packets: &[Packet], verdicts: &[HookVerdict]) {
    // The stack also hands the hook empty batches; they do no work.
    if packets.is_empty() {
        return;
    }
    PROBE.with(|p| {
        let tap = &mut p.borrow_mut().tap;
        if packets.len() == 1 {
            tap.calls_single += 1;
        } else {
            tap.calls_batch += 1;
        }
        tap.packets += packets.len() as u64;
        for (pkt, &v) in packets.iter().zip(verdicts) {
            tap.digest = fold_packet(tap.digest, pkt, v);
        }
    });
}

fn tap_ctrl(frame: &[u8], replies: &[Vec<u8>]) {
    PROBE.with(|p| {
        let tap = &mut p.borrow_mut().tap;
        tap.digest = fnv(
            tap.digest,
            frame.len() as u64 | (replies.len() as u64) << 32,
        );
    });
}

/// A wrapper that times every call into `inner` as a span of `layer`.
/// Downcasts (`as_any`, `as_any_mut`) reach `inner`, so code that looks a
/// node or hook up by its concrete type keeps working.
pub struct Timed<T> {
    layer: Layer,
    pub inner: T,
    /// When set, the `app_tag` of every `on_message` call, in order.
    message_log: Option<Rc<RefCell<Vec<u64>>>>,
}

impl<T> Timed<T> {
    pub fn new(layer: Layer, inner: T) -> Timed<T> {
        Timed {
            layer,
            inner,
            message_log: None,
        }
    }

    /// Also log the tag of every message the wrapped app receives.
    pub fn logging_messages(mut self, log: Rc<RefCell<Vec<u64>>>) -> Timed<T> {
        self.message_log = Some(log);
        self
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_event(&mut self, event: NodeEvent, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_event(event, ctx))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

impl<A: App> App for Timed<A> {
    fn on_timer(&mut self, token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_timer(token, stack, ctx))
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_connected(conn, stack, ctx))
    }

    fn on_accept(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_accept(conn, stack, ctx))
    }

    fn on_data(&mut self, conn: ConnId, bytes: u32, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_data(conn, bytes, stack, ctx))
    }

    fn on_message(
        &mut self,
        conn: ConnId,
        app_tag: u64,
        size: u32,
        stack: &mut Stack,
        ctx: &mut Ctx<'_>,
    ) {
        if let Some(log) = &self.message_log {
            log.borrow_mut().push(app_tag);
        }
        span(self.layer, || {
            self.inner.on_message(conn, app_tag, size, stack, ctx)
        })
    }

    fn on_peer_closed(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_peer_closed(conn, stack, ctx))
    }

    fn on_closed(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_closed(conn, stack, ctx))
    }

    fn on_raw(&mut self, packet: Packet, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_raw(packet, stack, ctx))
    }
}

impl<H: PacketHook> PacketHook for Timed<H> {
    fn on_egress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        let v = span(self.layer, || self.inner.on_egress(packet, env));
        tap_egress(std::slice::from_ref(packet), &[v]);
        v
    }

    fn on_egress_batch(
        &mut self,
        packets: &mut [Packet],
        env: &mut HookEnv<'_>,
        verdicts: &mut Vec<HookVerdict>,
    ) {
        let first = verdicts.len();
        span(self.layer, || {
            self.inner.on_egress_batch(packets, env, verdicts)
        });
        tap_egress(packets, &verdicts[first..]);
    }

    fn on_ingress(&mut self, packet: &mut Packet, env: &mut HookEnv<'_>) -> HookVerdict {
        span(self.layer, || self.inner.on_ingress(packet, env))
    }

    fn on_ctrl(&mut self, from: u32, frame: &[u8], env: &mut HookEnv<'_>) -> Vec<Vec<u8>> {
        let replies = span(self.layer, || self.inner.on_ctrl(from, frame, env));
        tap_ctrl(frame, &replies);
        replies
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
