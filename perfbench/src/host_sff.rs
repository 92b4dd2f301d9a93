//! `host-sff`: the real host path. The Fig. 9 topology over netsim — a
//! request client with Poisson arrivals at 70% load, one worker, three
//! background senders — with SFF interpreted in every sender's enclave.
//!
//! One unit is one simulation of a fixed virtual length. Set-up builds the
//! fabric, compiles SFF and runs the first milliseconds (connection
//! set-up, background ramp) untimed; the rest runs in fixed virtual-time
//! slices, each timed in wall time.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use eden_apps::apps::reqresp::{BackgroundSender, RequestClient, Worker};
use eden_apps::functions;
use eden_apps::workload::{flow_class, FlowClass, FlowSizeDist, PoissonArrivals};
use eden_core::{Controller, Enclave, EnclaveConfig, InstalledFunction, MatchSpec, Stage, TableId};
use netsim::{LinkId, LinkSpec, Network, NodeId, SimRng, Switch, SwitchConfig, Time};
use transport::{app_timer_token, App, Host, Stack, StackConfig};

use crate::probe::{self, Layer, Timed};
use crate::report::{quantile, Segment, UnitOut};

/// Requests are issued for this long; the run then drains.
const REQUEST_WINDOW: Time = Time::from_millis(420);
const DRAIN: Time = Time::from_millis(15);
/// Untimed warm-up: connections open and background flows ramp.
const WARM_UP: Time = Time::from_millis(2);
/// Wall time is sampled once per slice of virtual time.
const SLICE: Time = Time::from_micros(250);
const SENDERS: usize = 3;
/// Trace sampling rate of the enclaves in traced units.
const TRACE_SAMPLE: u32 = 64;

pub struct HostSff {
    pub seed: u64,
}

pub struct Unit {
    net: Network,
    client: NodeId,
    worker: NodeId,
    background: Vec<NodeId>,
    /// Every host's access link; side 0 is the host.
    access: Vec<LinkId>,
    /// Request tags in the order the worker received them.
    worker_log: Rc<RefCell<Vec<u64>>>,
    compile_ns: f64,
}

fn sff_function(compile_ns: &mut f64) -> InstalledFunction {
    let bundle = functions::sff();
    let t = Instant::now();
    let compiled =
        eden_lang::compile(bundle.name, &bundle.source, &bundle.schema()).expect("sff compiles");
    *compile_ns += t.elapsed().as_nanos() as f64;
    InstalledFunction::interpreted(bundle.name, compiled)
}

fn host<A: App>(net: &mut Network, addr: u32, app: Timed<A>) -> NodeId {
    let host = Host::new(Stack::new(addr, StackConfig::default()), app);
    net.add_node(Timed::new(Layer::Transport, host))
}

fn retransmits(stack: &Stack) -> u64 {
    stack.flow_counters().iter().map(|f| f.retransmits).sum()
}

fn enclave_of<A: App>(net: &mut Network, node: NodeId) -> &mut Enclave {
    net.node_mut::<Host<Timed<A>>>(node)
        .stack
        .hook_mut::<Enclave>()
        .expect("sender has an enclave")
}

impl Unit {
    /// Frames every host's stack has put on the wire: data through the
    /// senders' enclaves plus the client's acks and requests.
    fn frames_sent(&self) -> u64 {
        self.access
            .iter()
            .map(|&l| self.net.link_stats(l)[0].packets)
            .sum()
    }

    /// Visit the worker's enclave, then each background sender's.
    fn each_enclave(&mut self, mut f: impl FnMut(&mut Enclave)) {
        f(enclave_of::<Worker>(&mut self.net, self.worker));
        for &node in &self.background {
            f(enclave_of::<BackgroundSender>(&mut self.net, node));
        }
    }
}

impl crate::Workload for HostSff {
    type Unit = Unit;

    fn setup(&self, traced: bool) -> Unit {
        let seed = self.seed;
        let mut compile_ns = 0.0;
        let mut net = Network::new(seed);
        let mut controller = Controller::new();
        let all_class = controller.class("app.flows.ALL");

        let dist = FlowSizeDist::web_search();
        let mean = dist.empirical_mean(&mut SimRng::new(0xE0E0), 20_000);
        let arrivals = PoissonArrivals::for_load(10e9, 0.7, mean);
        let client_app = RequestClient::new(
            2,
            7000,
            arrivals,
            SimRng::new(seed.wrapping_add(11)),
            64,
            REQUEST_WINDOW,
        );
        let mut worker_app = Worker::new(7000, dist, SimRng::new(seed.wrapping_add(22)));
        let mut stage = Stage::new("app", &["msg_type", "msg_size"], &["msg_id", "msg_size"]);
        controller.create_stage_rule(&mut stage, "flows", vec![], "ALL");
        worker_app.stage = stage;

        let worker_log = Rc::new(RefCell::new(Vec::new()));
        let client = host(&mut net, 1, Timed::new(Layer::Apps, client_app));
        let worker = host(
            &mut net,
            2,
            Timed::new(Layer::Apps, worker_app).logging_messages(worker_log.clone()),
        );
        let background: Vec<NodeId> = (0..SENDERS)
            .map(|i| {
                let app = BackgroundSender::new(1, 7001, 1_500_000_000, vec![all_class.0], 1);
                host(&mut net, 3 + i as u32, Timed::new(Layer::Apps, app))
            })
            .collect();

        let sw = net.add_node(Timed::new(
            Layer::Netsim,
            Switch::new(SwitchConfig {
                per_queue_bytes: 1 << 20,
            }),
        ));
        let link = LinkSpec {
            propagation: Time::from_micros(26),
            ..LinkSpec::ten_gbps()
        };
        let mut all = vec![client, worker];
        all.extend(&background);
        let mut access = Vec::new();
        for (i, &h) in all.iter().enumerate() {
            let (host_port, port) = net.connect(h, sw, link);
            net.node_mut::<Switch>(sw).install_route(1 + i as u32, port);
            access.push(net.port_link(h, host_port).0);
        }

        let thresholds = Controller::flatten_pairs(&Controller::fixed_thresholds([7, 5, 1]));
        let mut senders = vec![worker];
        senders.extend(&background);
        for (i, &node) in senders.iter().enumerate() {
            let mut enclave = Enclave::new(EnclaveConfig::default());
            let f = enclave.install_function(sff_function(&mut compile_ns));
            enclave.install_rule(TableId(0), MatchSpec::Class(all_class), f);
            enclave.set_array(f, 0, thresholds.clone());
            if traced {
                enclave.set_trace_sample(TRACE_SAMPLE);
            }
            let hook = Timed::new(Layer::Enclave, enclave);
            if i == 0 {
                net.node_mut::<Host<Timed<Worker>>>(node)
                    .stack
                    .set_hook(hook);
            } else {
                net.node_mut::<Host<Timed<BackgroundSender>>>(node)
                    .stack
                    .set_hook(hook);
            }
        }

        net.schedule_timer(worker, Time::ZERO, app_timer_token(0));
        net.schedule_timer(client, Time::from_micros(1), app_timer_token(0));
        for (i, &bg) in background.iter().enumerate() {
            net.schedule_timer(
                bg,
                Time::from_micros(100 + 7 * i as u64),
                app_timer_token(0),
            );
        }
        probe::reset(false);
        net.run_until(WARM_UP);
        Unit {
            net,
            client,
            worker,
            background,
            access,
            worker_log,
            compile_ns,
        }
    }

    fn measure(&self, mut unit: Unit, traced: bool, segments: &mut Vec<Segment>) -> UnitOut {
        let mut batch_before = Vec::new();
        unit.each_enclave(|e| batch_before.push(e.batch_path_counts()));
        let events_before = unit.net.events_processed();

        probe::reset(traced);
        let end = REQUEST_WINDOW + DRAIN;
        let mut t = WARM_UP;
        let mut wall_ns = 0.0;
        let frames_before = unit.frames_sent();
        let mut seen = frames_before;
        while t < end {
            t += SLICE;
            let start = Instant::now();
            probe::span(Layer::Netsim, || unit.net.run_until(t));
            let slice_ns = start.elapsed().as_nanos() as f64;
            wall_ns += slice_ns;
            let frames = unit.frames_sent();
            segments.push(Segment {
                ns: slice_ns,
                pkts: frames - seen,
            });
            seen = frames;
        }
        let tap = probe::tap();
        let times = probe::times();

        let mut out = UnitOut::new(wall_ns, seen - frames_before, tap.digest);

        // ---- checks --------------------------------------------------
        let dist = FlowSizeDist::web_search();
        let mut rng = SimRng::new(self.seed.wrapping_add(22));
        let requested: HashMap<u64, u64> = unit
            .worker_log
            .borrow()
            .iter()
            .map(|&tag| (tag, dist.sample(&mut rng).min(u64::from(u32::MAX))))
            .collect();
        let client = &unit
            .net
            .node::<Host<Timed<RequestClient>>>(unit.client)
            .app
            .inner;
        let mut small_us = Vec::new();
        let mut wrong_size = 0u64;
        let mut done = HashSet::new();
        for c in &client.completions {
            done.insert(c.tag);
            if requested.get(&c.tag) != Some(&u64::from(c.size)) {
                wrong_size += 1;
            }
            if flow_class(u64::from(c.size)) == FlowClass::Small {
                small_us.push(c.fct.as_nanos() as f64 / 1e3);
            }
        }
        // A background-class response (1 MB and up) shares the link with
        // the background senders and may still be in flight when the
        // window closes; every smaller one must have completed, and every
        // request must have reached the worker.
        let open_small = requested
            .iter()
            .filter(|&(tag, &size)| {
                !done.contains(tag) && flow_class(size) != FlowClass::Background
            })
            .count() as u64;
        let open_large = requested.len() as u64 - done.len() as u64 - open_small;
        let undelivered = (client.outstanding as u64).saturating_sub(open_small + open_large);
        out.attempted = done.len() as u64 + open_small + undelivered;
        out.check(
            wrong_size == 0,
            "completed flows deliver their requested size",
            wrong_size,
        );
        out.check(
            open_small == 0,
            "every response under 1 MB completes",
            open_small,
        );
        out.check(
            undelivered == 0,
            "every request reaches the worker",
            undelivered,
        );
        out.check(
            small_us.len() >= 200,
            "at least 200 small flows complete",
            1,
        );

        let net = &unit.net;
        let retransmits = retransmits(&net.node::<Host<Timed<RequestClient>>>(unit.client).stack)
            + retransmits(&net.node::<Host<Timed<Worker>>>(unit.worker).stack)
            + unit
                .background
                .iter()
                .map(|&n| retransmits(&net.node::<Host<Timed<BackgroundSender>>>(n).stack))
                .sum::<u64>();
        let events = unit.net.events_processed() - events_before;

        let (mut serial, mut parallel, mut enclave_pkts, mut faults, mut steps) = (0, 0, 0, 0, 0);
        let mut conserved = true;
        let mut snaps = Vec::new();
        let mut before = batch_before.iter();
        unit.each_enclave(|e| {
            let (s, p) = e.batch_path_counts();
            let &(s0, p0) = before.next().expect("same enclaves");
            serial += s - s0;
            parallel += p - p0;
            enclave_pkts += e.stats.packets;
            faults += e.stats.faults;
            conserved &= e.stats.conserved();
            let snap = e.stats_snapshot();
            steps += snap.vm.steps;
            snaps.push(snap);
        });
        out.check(conserved, "EnclaveStats::conserved on every sender", 1);
        out.check(faults == 0, "no VM faults", faults);
        out.check(
            serial + parallel == tap.calls_batch,
            "batch census matches Enclave::batch_path_counts",
            1,
        );

        // ---- workload-specific end-to-end metrics ----------------------
        let mut small_sorted = small_us.clone();
        small_sorted.sort_by(f64::total_cmp);
        out.extra("small_fct_p50_us", quantile(&small_sorted, 0.50), "us");
        out.extra("small_fct_p95_us", quantile(&small_sorted, 0.95), "us");
        out.extra("small_flows", small_us.len() as f64, "count");
        // The walk census: which of the enclave's three packet walks the
        // hook calls took.
        let calls = (tap.calls_single + serial + parallel).max(1) as f64;
        out.extra(
            "walk_single_share",
            tap.calls_single as f64 / calls,
            "ratio",
        );
        out.extra("walk_serial_batch_share", serial as f64 / calls, "ratio");
        out.extra(
            "walk_parallel_batch_share",
            parallel as f64 / calls,
            "ratio",
        );

        // ---- layers ----------------------------------------------------
        out.layer("netsim.events", events as f64, "count");
        out.layer("transport.retransmits", retransmits as f64, "count");
        out.layer("eden-core.calls_single", tap.calls_single as f64, "count");
        out.layer("eden-core.calls_batch_serial", serial as f64, "count");
        out.layer("eden-core.calls_batch_parallel", parallel as f64, "count");
        out.layer(
            "eden-vm.steps_per_pkt",
            steps as f64 / enclave_pkts.max(1) as f64,
            "count",
        );
        out.layer("eden-lang.compile_s", unit.compile_ns / 1e9, "s");
        if traced {
            out.layer("netsim.self_s", times.get(Layer::Netsim) / 1e9, "s");
            out.layer("transport.self_s", times.get(Layer::Transport) / 1e9, "s");
            out.layer("eden-apps.self_s", times.get(Layer::Apps) / 1e9, "s");
            out.layer(
                "eden-core.enclave.self_ns_per_pkt",
                times.get(Layer::Enclave) / tap.packets.max(1) as f64,
                "ns",
            );
            out.enclave_histograms(&snaps);
            out.layers_sum(times.total_ns());
        }
        out
    }
}
