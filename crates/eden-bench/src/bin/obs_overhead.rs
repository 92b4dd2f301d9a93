//! Observability overhead gate: the Figure-12 interpreted data path with
//! trace sampling at 1-in-64 versus tracing disabled.
//!
//! ```text
//! obs_overhead [--max-overhead 0.05] [--batches N] [--per-batch N]
//! ```
//!
//! Times the same per-packet work as the fig12 `+ interp` point (packet
//! build, enclave match-action walk running the interpreted SFF function,
//! wire encode) twice: once with `trace_sample = 0` and once with
//! `trace_sample = 64`, the sampling rate the control plane defaults to.
//! Spans are drained between batches, mirroring the heartbeat piggyback,
//! so the sink never grows unbounded while the timed loop runs.
//!
//! Both configurations are compared on their per-batch *floor* (the
//! minimum per-packet nanoseconds across batches): floors estimate the
//! uncontended cost of the code itself and are far less noisy than means
//! on shared CI machines. Exit codes: 0 within budget, 1 over budget,
//! 2 usage error. Set `EDEN_BENCH_SMOKE=1` for a CI-sized run. Emits
//! `BENCH_obs_overhead.json` (honours `EDEN_BENCH_DIR`).

use std::process::ExitCode;
use std::time::Instant;

use eden_apps::functions;
use eden_bench::report::emit_json;
use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden_telemetry::Json;
use netsim::{wire, EdenMeta, Packet, SimRng, TcpHeader, Time};

/// The trace sampling rate under test: one packet in 64, the default the
/// observability docs recommend for always-on production tracing.
const SAMPLE: u32 = 64;

fn make_packet(i: u64) -> Packet {
    let mut p = Packet::tcp(
        1,
        2,
        TcpHeader {
            src_port: 40000 + (i % 12) as u16,
            dst_port: 7000,
            seq: (i * 1460) as u32,
            ack: 0,
            flags: netsim::TcpFlags {
                ack: true,
                ..Default::default()
            },
            window: 8192,
        },
        1460,
    );
    p.meta = Some(EdenMeta {
        classes: vec![1],
        msg_id: 1 + i % 12,
        msg_size: 5_000_000,
        ..Default::default()
    });
    p
}

fn build_enclave(trace_sample: u32) -> Enclave {
    let bundle = functions::sff();
    let mut e = Enclave::new(EnclaveConfig {
        trace_sample,
        ..EnclaveConfig::default()
    });
    let f = e.install_function(bundle.interpreted());
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f)
        .expect("valid rule");
    e.set_array(f, 0, vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1])
        .expect("valid global array");
    e
}

/// Per-batch per-packet nanoseconds for one enclave configuration; spans
/// are drained outside the timed region (that cost rides the control
/// path, not the data path).
fn measure(e: &mut Enclave, batches: usize, per_batch: usize) -> Vec<f64> {
    let mut rng = SimRng::new(7);
    let mut sink = 0u64;
    let mut n = 0u64;
    // warmup
    for _ in 0..per_batch {
        let mut p = make_packet(n);
        let _ = e.process(&mut p, &mut rng, Time::from_nanos(n));
        sink = sink.wrapping_add(u64::from(wire::encode(&p)[20]));
        n += 1;
    }
    e.drain_spans(usize::MAX);
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            let mut p = make_packet(n);
            let _ = e.process(&mut p, &mut rng, Time::from_nanos(n));
            sink = sink.wrapping_add(u64::from(wire::encode(&p)[20]));
            n += 1;
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        samples.push(elapsed / per_batch as f64);
        e.drain_spans(usize::MAX);
    }
    std::hint::black_box(sink);
    samples
}

fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn usage() -> ExitCode {
    eprintln!("usage: obs_overhead [--max-overhead 0.05] [--batches N] [--per-batch N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let smoke = std::env::var("EDEN_BENCH_SMOKE").is_ok();
    let (mut batches, mut per_batch) = if smoke { (60, 2_000) } else { (200, 5_000) };
    let mut max_overhead = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = args.next();
        let parsed = match a.as_str() {
            "--max-overhead" => val.and_then(|v| v.parse::<f64>().ok()).map(|v| {
                max_overhead = v;
            }),
            "--batches" => val.and_then(|v| v.parse().ok()).map(|v| {
                batches = v;
            }),
            "--per-batch" => val.and_then(|v| v.parse().ok()).map(|v| {
                per_batch = v;
            }),
            _ => None,
        };
        if parsed.is_none() {
            return usage();
        }
    }

    println!("== Observability overhead: trace_sample {SAMPLE} vs disabled ==");
    println!("interpreted SFF data path, {batches} batches x {per_batch} packets\n");

    let mut off = build_enclave(0);
    let off_samples = measure(&mut off, batches, per_batch);
    let mut traced = build_enclave(SAMPLE);
    let traced_samples = measure(&mut traced, batches, per_batch);
    assert!(traced.pending_spans() == 0, "spans drained between batches");

    let off_floor = floor(&off_samples);
    let traced_floor = floor(&traced_samples);
    let overhead = (traced_floor - off_floor) / off_floor;

    println!(
        "tracing off : floor {off_floor:.1} ns/pkt (mean {:.1})",
        mean(&off_samples)
    );
    println!(
        "tracing 1/{SAMPLE}: floor {traced_floor:.1} ns/pkt (mean {:.1})",
        mean(&traced_samples)
    );
    println!(
        "overhead    : {:+.2}% (budget {:.1}%)",
        overhead * 100.0,
        max_overhead * 100.0
    );

    let artifact = Json::obj(vec![
        ("smoke", smoke.into()),
        ("sample", u64::from(SAMPLE).into()),
        ("off_floor_ns", off_floor.into()),
        ("traced_floor_ns", traced_floor.into()),
        ("overhead_fraction", overhead.into()),
        ("budget_fraction", max_overhead.into()),
        ("within_budget", (overhead <= max_overhead).into()),
    ]);
    match emit_json("obs_overhead", &artifact) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_obs_overhead.json: {e}"),
    }

    if overhead > max_overhead {
        eprintln!(
            "obs_overhead: sampled tracing costs {:.2}% > {:.1}% budget",
            overhead * 100.0,
            max_overhead * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("obs_overhead: ok");
        ExitCode::SUCCESS
    }
}
