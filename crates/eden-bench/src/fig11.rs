//! Figure 11 — case study 3: Pulsar's size-aware rate control.
//!
//! Two tenants issue 64 KB IOs against a storage server behind a 1 Gbps
//! link: one tenant READs, the other WRITEs. READ requests are tiny on the
//! forward path, so without policing they flood the server's shared IO
//! queue and the WRITE tenant's throughput collapses (the paper measures a
//! ~72% drop). Pulsar's enclave function charges each READ request its
//! *operation* size at the client's rate limiter, equalizing the tenants.

use eden_apps::apps::storage::{StorageServer, TenantClient};
use eden_apps::functions::{self, MSG_TYPE_READ, MSG_TYPE_WRITE};
use eden_apps::stages::storage_stage;
use eden_core::{Controller, Enclave, EnclaveConfig, MatchSpec, TableId};
use netsim::{LinkSpec, Network, Switch, SwitchConfig, Time};
use transport::{app_timer_token, Host, Stack, StackConfig, TcpConfig};

/// The three bars of Figure 11 (isolated runs measure one tenant alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only the READ tenant runs.
    ReadIsolated,
    /// Only the WRITE tenant runs.
    WriteIsolated,
    /// Both run, no rate control.
    Simultaneous,
    /// Both run; READ requests rate-limited by operation size.
    RateControlled,
}

/// Experiment knobs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measurement window (after warmup, before stop).
    pub warmup: Time,
    pub until: Time,
    /// IO size (the paper's 64 KB).
    pub io_size: u32,
    /// Outstanding IOs per tenant: READ floods, WRITE is modest.
    pub read_window: usize,
    pub write_window: usize,
    /// RAM-disk service bandwidth.
    pub disk_bps: u64,
    /// Rate granted to the READ tenant's limiter in the controlled mode.
    pub read_limit_bps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 1,
            warmup: Time::from_millis(100),
            until: Time::from_millis(500),
            io_size: 64 * 1024,
            read_window: 24,
            write_window: 8,
            disk_bps: 1_000_000_000,
            read_limit_bps: 500_000_000,
        }
    }
}

/// Throughputs over the measurement window, in MB/s.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    pub read_mbps: f64,
    pub write_mbps: f64,
    /// Diagnostics: total ops each tenant completed (whole run).
    pub read_ops_total: usize,
    pub write_ops_total: usize,
    /// Server-side counters.
    pub server_ops: u64,
    pub server_peak_queue: usize,
}

/// Run one bar of Figure 11.
pub fn run(mode: Mode, cfg: &Config) -> RunResult {
    let mut net = Network::new(cfg.seed);
    let mut controller = Controller::new();

    let run_read = !matches!(mode, Mode::WriteIsolated);
    let run_write = !matches!(mode, Mode::ReadIsolated);

    // --- hosts ------------------------------------------------------------
    let (read_stage, classes) = storage_stage(&mut controller);
    let (write_stage, _) = storage_stage(&mut controller);

    // Client stacks use a production-like min RTO (Windows/Linux use
    // 200-300 ms): a token-bucket limiter below TCP adds per-packet
    // delays that a 2 ms datacenter RTO misreads as loss, and each
    // spurious go-back-N retransmission would be charged by the limiter
    // again.
    let client_cfg = StackConfig {
        tcp: TcpConfig {
            min_rto: Time::from_millis(50),
            ..Default::default()
        },
        ..Default::default()
    };
    let server = net.add_node(Host::new(
        Stack::new(3, StackConfig::default()),
        StorageServer::new(7100, cfg.disk_bps),
    ));
    let read_client = net.add_node(Host::new(
        Stack::new(1, client_cfg),
        TenantClient::new(
            3,
            7100,
            0,
            MSG_TYPE_READ,
            cfg.io_size,
            cfg.read_window,
            read_stage,
            cfg.until,
        ),
    ));
    let write_client = net.add_node(Host::new(
        Stack::new(2, client_cfg),
        TenantClient::new(
            3,
            7100,
            1,
            MSG_TYPE_WRITE,
            cfg.io_size,
            cfg.write_window,
            write_stage,
            cfg.until,
        ),
    ));

    let sw = net.add_node(Switch::new(SwitchConfig::default()));
    let (_, p_read) = net.connect(read_client, sw, LinkSpec::ten_gbps());
    let (_, p_write) = net.connect(write_client, sw, LinkSpec::ten_gbps());
    let (_, p_server) = net.connect(server, sw, LinkSpec::one_gbps());
    {
        let s = net.node_mut::<Switch>(sw);
        s.install_route(1, p_read);
        s.install_route(2, p_write);
        s.install_route(3, p_server);
    }

    // --- Pulsar enclave on the READ tenant's host -------------------------
    if matches!(mode, Mode::RateControlled) {
        let host = net.node_mut::<Host<TenantClient>>(read_client);
        // tenant 0's rate-limited queue, sized to pass one 64KB charge
        let queue = host
            .stack
            .add_limiter(cfg.read_limit_bps, u64::from(cfg.io_size));
        let bundle = functions::pulsar();
        let mut enclave = Enclave::new(EnclaveConfig::default());
        let f = enclave.install_function(bundle.interpreted());
        enclave
            .install_rule(TableId(0), MatchSpec::Class(classes.io), f)
            .expect("valid rule");
        enclave
            .set_array(f, 0, vec![queue as i64])
            .expect("valid global array");
        host.stack.set_hook(enclave);
    }

    // --- run ----------------------------------------------------------------
    net.schedule_timer(server, Time::ZERO, app_timer_token(0));
    if run_read {
        net.schedule_timer(read_client, Time::from_micros(10), app_timer_token(0));
    }
    if run_write {
        net.schedule_timer(write_client, Time::from_micros(20), app_timer_token(0));
    }
    net.run_until(cfg.until + Time::from_millis(20));

    // --- measure over [warmup, until) -------------------------------------
    let window_s = (cfg.until - cfg.warmup).as_secs_f64();
    let read_bytes = net
        .node::<Host<TenantClient>>(read_client)
        .app
        .bytes_completed_between(cfg.warmup, cfg.until);
    let write_bytes = net
        .node::<Host<TenantClient>>(write_client)
        .app
        .bytes_completed_between(cfg.warmup, cfg.until);
    let read_ops_total = net
        .node::<Host<TenantClient>>(read_client)
        .app
        .completions
        .len();
    let write_ops_total = net
        .node::<Host<TenantClient>>(write_client)
        .app
        .completions
        .len();
    let srv = &net.node::<Host<StorageServer>>(server).app;
    RunResult {
        read_mbps: if run_read {
            read_bytes as f64 / 1e6 / window_s
        } else {
            0.0
        },
        write_mbps: if run_write {
            write_bytes as f64 / 1e6 / window_s
        } else {
            0.0
        },
        read_ops_total,
        write_ops_total,
        server_ops: srv.ops_serviced,
        server_peak_queue: srv.peak_queue,
    }
}
