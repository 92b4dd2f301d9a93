//! `enclave-lanes` and `enclave-stateful`: 64-packet batches built in a
//! reused buffer, driven through `Enclave::process_batch_into`, and each
//! forwarded packet encoded by `netsim::wire::encode` as the NIC step.
//!
//! * lanes — `pias` (PerMessage) on `EnclaveConfig::default()`, packets
//!   stage-tagged with 4,096 live messages, so batches take the parallel
//!   walk over the lane pool.
//! * stateful — `conntrack`, `l4lb` and `rate-limit` (all Serialized)
//!   behind three classes in table 0, over short churning flows: per-flow
//!   state is created continually and evicted past
//!   `max_messages_per_function`, and the rate-limit budget drops some
//!   packets. Every batch takes the serial walk.
//!
//! One unit is a fixed packet trace from the seed. Set-up compiles and
//! installs the functions, then warms up untimed: every message block is
//! created (for stateful, the state tables fill to their cap) and the
//! lane pool has run. Only `process_batch_into` and the encoding are
//! timed; building batches and folding the digest are not.

use std::time::Instant;

use eden_apps::functions::{self, FunctionBundle};
use eden_core::{
    ClassId, Controller, Enclave, EnclaveConfig, FuncId, InstalledFunction, MatchSpec, TableId,
};
use netsim::{Packet, SimRng, TcpHeader, Time};
use transport::HookVerdict;

use crate::probe::{self, Layer};
use crate::report::{Segment, UnitOut};

const BATCH: usize = 64;
/// Batches in one unit's timed trace.
const BATCHES: usize = 2_000;
/// Virtual time between consecutive packets (a 10 Gb/s line of 1,500 B
/// frames); the rate-limit window runs on it.
const PKT_GAP_NS: u64 = 1_200;
const TRACE_SAMPLE: u32 = 64;

/// lanes: live messages the packets are spread over.
const LIVE_MESSAGES: u64 = 4_096;
/// stateful: concurrently open flows, and the longest flow in packets.
const OPEN_FLOWS: usize = 512;
const MAX_FLOW_PKTS: u64 = 12;
/// stateful: per-function cap on live flow state, small enough that
/// set-up fills it in a few milliseconds.
const FLOW_STATE_CAP: usize = 1_024;
/// stateful: DIP pool of the load balancer.
const DIPS: i64 = 16;
/// stateful: rate-limit window and budget. Batches are 77 µs apart, so
/// each opens a new window carrying ~32 KB of rate-limited traffic, and
/// about a third of it drops.
const WINDOW_NS: i64 = 50_000;
const LIMIT_BYTES: i64 = 20_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lanes,
    Stateful,
}

pub struct EnclaveBatch {
    seed: u64,
    kind: Kind,
}

impl EnclaveBatch {
    pub fn lanes(seed: u64) -> EnclaveBatch {
        EnclaveBatch {
            seed,
            kind: Kind::Lanes,
        }
    }

    pub fn stateful(seed: u64) -> EnclaveBatch {
        EnclaveBatch {
            seed,
            kind: Kind::Stateful,
        }
    }
}

/// One open flow of the stateful trace.
#[derive(Clone, Copy)]
struct Flow {
    id: u64,
    class: u32,
    left: u64,
}

/// The seed's packet trace, generated batch by batch into reused packets.
struct Traffic {
    kind: Kind,
    rng: SimRng,
    flows: Vec<Flow>,
    next_flow: u64,
    seq: u32,
}

impl Traffic {
    fn new(kind: Kind, seed: u64) -> Traffic {
        Traffic {
            kind,
            rng: SimRng::new(seed ^ 0x5EED_BA7C),
            flows: Vec::new(),
            next_flow: 1,
            seq: 0,
        }
    }

    fn new_flow(&mut self) -> Flow {
        let id = self.next_flow;
        self.next_flow += 1;
        Flow {
            id,
            class: 1 + self.rng.below(3) as u32,
            left: 1 + self.rng.below(MAX_FLOW_PKTS),
        }
    }

    /// Rewrite `p` in place as the next packet of the trace (the
    /// metadata allocation is reused).
    fn fill(&mut self, p: &mut Packet) {
        let (msg_id, class) = match self.kind {
            Kind::Lanes => (1 + self.rng.below(LIVE_MESSAGES), 1),
            Kind::Stateful => {
                let slot = self.rng.below(OPEN_FLOWS as u64) as usize;
                let flow = &mut self.flows[slot];
                let (id, class) = (flow.id, flow.class);
                flow.left -= 1;
                if flow.left == 0 {
                    self.flows[slot] = self.new_flow();
                }
                (id, class)
            }
        };
        self.seq = self.seq.wrapping_add(1460);
        *p = Packet::tcp(
            1,
            2,
            TcpHeader {
                src_port: 1024 + (msg_id % 50_000) as u16,
                dst_port: 80,
                seq: self.seq,
                ..Default::default()
            },
            1460,
        );
        let mut meta = p.meta.take().unwrap_or_default();
        meta.classes.clear();
        meta.classes.push(class);
        meta.msg_id = msg_id;
        meta.msg_size = 1_000_000;
        meta.key_hash = (msg_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as i64;
        p.meta = Some(meta);
    }

    fn fill_batch(&mut self, batch: &mut [Packet]) {
        for p in batch {
            self.fill(p);
        }
    }
}

pub struct Unit {
    enclave: Enclave,
    traffic: Traffic,
    batch: Vec<Packet>,
    verdicts: Vec<HookVerdict>,
    /// Batches already driven (warm-up included); sets virtual time and
    /// seeds each batch's RNG.
    driven: u64,
    compile_ns: f64,
    funcs: Vec<FuncId>,
}

fn compile(bundle: &FunctionBundle, compile_ns: &mut f64) -> InstalledFunction {
    let t = Instant::now();
    let compiled = eden_lang::compile(bundle.name, &bundle.source, &bundle.schema())
        .expect("catalogue function compiles");
    *compile_ns += t.elapsed().as_nanos() as f64;
    InstalledFunction::interpreted(bundle.name, compiled)
}

impl Unit {
    /// Fill the buffer with the trace's next batch; returns the batch's
    /// virtual time and RNG.
    fn next_batch(&mut self) -> (Time, SimRng) {
        self.traffic.fill_batch(&mut self.batch);
        self.verdicts.clear();
        let now = Time::from_nanos(self.driven * BATCH as u64 * PKT_GAP_NS);
        let rng = SimRng::new(self.driven);
        self.driven += 1;
        (now, rng)
    }
}

impl crate::Workload for EnclaveBatch {
    type Unit = Unit;

    fn setup(&self, traced: bool) -> Unit {
        let mut compile_ns = 0.0;
        let config = match self.kind {
            Kind::Lanes => EnclaveConfig::default(),
            Kind::Stateful => EnclaveConfig {
                max_messages_per_function: FLOW_STATE_CAP,
                ..EnclaveConfig::default()
            },
        };
        let mut enclave = Enclave::new(config);
        let mut funcs = Vec::new();
        let mut traffic = Traffic::new(self.kind, self.seed);
        match self.kind {
            Kind::Lanes => {
                let f = enclave.install_function(compile(&functions::pias(), &mut compile_ns));
                enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f);
                enclave.set_array(
                    f,
                    0,
                    Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1])),
                );
                funcs.push(f);
            }
            Kind::Stateful => {
                let bundles = [
                    functions::conntrack(),
                    functions::l4lb(),
                    functions::rate_limit(),
                ];
                for (class, bundle) in (1..).zip(&bundles) {
                    let f = enclave.install_function(compile(bundle, &mut compile_ns));
                    enclave.install_rule(TableId(0), MatchSpec::Class(ClassId(class)), f);
                    funcs.push(f);
                }
                let dips: Vec<i64> = (0..DIPS).map(|i| 0x0A00_0100 + i).collect();
                enclave.set_array(funcs[1], 0, dips);
                enclave.set_array(funcs[1], 1, vec![0; DIPS as usize]);
                enclave.set_global(funcs[2], 0, WINDOW_NS);
                enclave.set_global(funcs[2], 1, LIMIT_BYTES);
                traffic.flows = (0..OPEN_FLOWS).map(|_| traffic.new_flow()).collect();
            }
        }
        if traced {
            enclave.set_trace_sample(TRACE_SAMPLE);
        }
        let mut unit = Unit {
            enclave,
            traffic,
            batch: vec![Packet::consumed(); BATCH],
            verdicts: Vec::with_capacity(BATCH),
            driven: 0,
            compile_ns,
            funcs,
        };
        // Warm up until every message block exists (lanes: all live
        // messages; stateful: both per-flow tables at their cap). The
        // lane pool has run by then too.
        let full = |u: &Unit| match self.kind {
            Kind::Lanes => {
                u.enclave.function_state(u.funcs[0]).live_messages() == LIVE_MESSAGES as usize
            }
            Kind::Stateful => u.funcs[..2]
                .iter()
                .all(|&f| u.enclave.function_state(f).headroom() == 0),
        };
        while !full(&unit) {
            assert!(
                unit.driven < 1_000_000,
                "warm-up never filled the message state"
            );
            let (now, mut rng) = unit.next_batch();
            unit.enclave
                .process_batch_into(&mut unit.batch, &mut rng, now, &mut unit.verdicts);
        }
        unit
    }

    fn measure(&self, mut unit: Unit, traced: bool, segments: &mut Vec<Segment>) -> UnitOut {
        probe::reset(traced);
        let stats_before = unit.enclave.stats;
        let paths_before = unit.enclave.batch_path_counts();
        let steps_before = unit.enclave.stats_snapshot().vm.steps;
        let mut digest = probe::FNV_OFFSET;
        let mut wall_ns = 0.0;
        let mut wire_bytes = 0usize;
        let mut forwarded = 0u64;
        for _ in 0..BATCHES {
            let (now, mut rng) = unit.next_batch();
            let (enclave, batch, verdicts) =
                (&mut unit.enclave, &mut unit.batch, &mut unit.verdicts);

            let start = Instant::now();
            probe::span(Layer::Enclave, || {
                enclave.process_batch_into(batch, &mut rng, now, verdicts)
            });
            probe::span(Layer::Wire, || {
                for (p, v) in batch.iter().zip(verdicts.iter()) {
                    if *v != HookVerdict::Drop {
                        wire_bytes += netsim::wire::encode(p).len();
                        forwarded += 1;
                    }
                }
            });
            let batch_ns = start.elapsed().as_nanos() as f64;

            wall_ns += batch_ns;
            segments.push(Segment {
                ns: batch_ns,
                pkts: BATCH as u64,
            });
            for (p, &v) in batch.iter().zip(verdicts.iter()) {
                digest = probe::fold_packet(digest, p, v);
            }
        }
        std::hint::black_box(wire_bytes);
        let times = probe::times();
        let pkts = (BATCHES * BATCH) as u64;
        let mut out = UnitOut::new(wall_ns, pkts, digest);

        // ---- checks --------------------------------------------------
        let e = &unit.enclave;
        let stats = e.stats;
        let processed = stats.packets - stats_before.packets;
        let dropped = stats.dropped - stats_before.dropped;
        let faults = stats.faults - stats_before.faults;
        out.attempted = processed;
        out.check(stats.conserved(), "EnclaveStats::conserved", 1);
        out.check(processed == pkts, "every packet processed once", 1);
        out.check(faults == 0, "no VM faults", faults);
        out.check(
            forwarded == pkts - dropped,
            "every forwarded packet is encoded",
            1,
        );
        let (serial, parallel) = e.batch_path_counts();
        let (serial, parallel) = (serial - paths_before.0, parallel - paths_before.1);
        match self.kind {
            Kind::Lanes => {
                out.check(
                    parallel == BATCHES as u64,
                    "every batch takes the parallel walk",
                    1,
                );
            }
            Kind::Stateful => {
                out.check(
                    serial == BATCHES as u64,
                    "every batch takes the serial walk",
                    1,
                );
                out.check(dropped > 0, "the rate-limit budget drops packets", 1);
                for &f in &unit.funcs[..2] {
                    out.check(
                        e.function_state(f).headroom() == 0,
                        "per-flow state is full, so new flows evict",
                        1,
                    );
                }
            }
        }
        out.extra("drop_share", dropped as f64 / pkts as f64, "ratio");

        // ---- layers ----------------------------------------------------
        let snap = e.stats_snapshot();
        out.layer("eden-core.calls_batch_serial", serial as f64, "count");
        out.layer("eden-core.calls_batch_parallel", parallel as f64, "count");
        out.layer(
            "eden-vm.steps_per_pkt",
            (snap.vm.steps - steps_before) as f64 / pkts as f64,
            "count",
        );
        out.layer("eden-lang.compile_s", unit.compile_ns / 1e9, "s");
        if traced {
            out.layer(
                "eden-core.enclave.self_ns_per_pkt",
                times.get(Layer::Enclave) / pkts as f64,
                "ns",
            );
            out.layer(
                "netsim.wire.encode_ns_per_pkt",
                times.get(Layer::Wire) / forwarded.max(1) as f64,
                "ns",
            );
            out.enclave_histograms(std::slice::from_ref(&snap));
            out.layers_sum(times.total_ns());
        }
        out
    }
}
