//! The repository benchmark: end-to-end and per-layer figures for the eden
//! host path, the enclave and the control plane.
//!
//! ```text
//! perfbench --workload <host-sff|enclave-lanes|enclave-stateful|ctrl-fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one workload's unit of work — each unit with its own
//! set-up from the seed — until `--seconds` are spent, and prints the
//! figures by name and unit, then one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced units
//! and reports the per-layer metrics. Every correctness check that fails
//! is printed, counted in `failed`, and makes the exit code non-zero.
//! See `README.md` in this directory for the workloads and metrics.

mod ctrl_fleet;
mod enclave_batch;
mod host_sff;
mod probe;
mod reference;
mod report;

use std::time::{Duration, Instant};

use report::{summarise, BestSegments, Segment, Summary, UnitOut, END_TO_END, PER_LAYER};

/// One workload: a set-up that builds a unit of work from the seed, and
/// the timed run of that unit.
pub trait Workload {
    type Unit;
    fn setup(&self, traced: bool) -> Self::Unit;
    /// Time `unit`, pushing its segments onto `segments` (emptied and
    /// reused from unit to unit).
    fn measure(&self, unit: Self::Unit, traced: bool, segments: &mut Vec<Segment>) -> UnitOut;
}

/// What `drive` collects over one run.
pub struct Run {
    pub plain: Vec<UnitOut>,
    pub traced: Vec<UnitOut>,
    /// The untraced units' best segments.
    pub best: BestSegments,
    /// Wall ns of the reference loop, run before and after every unit.
    pub reference_ns: Vec<f64>,
    /// Peak resident set once the first unit is done, MB. Later units
    /// repeat the same work, so they add only the run's own bookkeeping
    /// and the allocator's fragmentation, which vary with the unit count.
    pub peak_rss_mb: f64,
}

/// Fewest units a run makes, so the digest is always compared across a
/// repeat (and, traced, across tracing on and off).
const MIN_UNITS: usize = 2;

/// Run units until `seconds` are spent: stop before a unit that would
/// overrun, once `MIN_UNITS` are done.
fn drive<W: Workload>(w: &W, seconds: f64, trace: bool) -> Run {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut run = Run {
        plain: Vec::new(),
        traced: Vec::new(),
        best: BestSegments::default(),
        reference_ns: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut segments = Vec::new();
    let mut n = 0usize;
    loop {
        let tracing = trace && n % 2 == 1;
        run.reference_ns.push(reference::time_ns());
        let t = Instant::now();
        let unit = w.setup(tracing);
        let setup_s = t.elapsed().as_secs_f64();
        segments.clear();
        let mut out = w.measure(unit, tracing, &mut segments);
        out.setup_s = setup_s;
        run.reference_ns.push(reference::time_ns());
        if tracing {
            run.traced.push(out);
        } else {
            run.best.fold(&segments);
            run.plain.push(out);
        }
        n += 1;
        if n == 1 {
            run.peak_rss_mb = peak_rss_mb();
        }
        let per_unit = start.elapsed() / n as u32;
        if n >= MIN_UNITS && start.elapsed() + per_unit > budget {
            break;
        }
    }
    run
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_nproc: String,
    host_rustc: String,
    host_commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        host_nproc: "unknown".into(),
        host_rustc: "unknown".into(),
        host_commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                }
            }
            "--host-nproc" => args.host_nproc = value,
            "--host-rustc" => args.host_rustc = value,
            "--host-commit" => args.host_commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(args: &Args, s: &Summary) {
    let w = &args.workload;
    println!(
        "host nproc={} available_parallelism={} enclave_default_lanes={} rustc={} commit={}",
        args.host_nproc,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        eden_core::EnclaveConfig::default().lanes,
        json_str(&args.host_rustc),
        args.host_commit,
    );
    println!(
        "run workload={w} seed={} seconds={} trace={} units={} traced_units={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        s.units,
        s.traced_units
    );
    for &(name, unit) in END_TO_END {
        println!("e2e {w} {name} {} {unit}", s.end_to_end[name]);
    }
    for &(name, value, unit) in &s.extras {
        println!("e2e {w} {name} {value} {unit}");
    }
    if args.trace {
        for &(name, unit) in PER_LAYER {
            println!("layer {w} {name} {} {unit}", s.layers[name]);
        }
    }
    for f in &s.failures {
        println!("check FAILED {w}: {f}");
    }
    let chosen: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace { &s.layers } else { &s.end_to_end };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|&(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(values[name]),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failed == 0,
        s.attempted,
        s.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "host-sff" => drive(
            &host_sff::HostSff { seed: args.seed },
            args.seconds,
            args.trace,
        ),
        "enclave-lanes" => drive(
            &enclave_batch::EnclaveBatch::lanes(args.seed),
            args.seconds,
            args.trace,
        ),
        "enclave-stateful" => drive(
            &enclave_batch::EnclaveBatch::stateful(args.seed),
            args.seconds,
            args.trace,
        ),
        "ctrl-fleet" => drive(
            &ctrl_fleet::CtrlFleet { seed: args.seed },
            args.seconds,
            args.trace,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let summary = summarise(&run);
    print_result(&args, &summary);
    if summary.failed > 0 {
        std::process::exit(1);
    }
}
