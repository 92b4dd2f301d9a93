//! What one unit of work reports, and how a run's units become the
//! printed result.

use std::collections::BTreeMap;

use eden_telemetry::{LogHistogram, StatsSnapshot};

use crate::{reference, Run};

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of unsorted values (0 for none).
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// One batch, slice or epoch of a unit's timed part: its wall ns and the
/// packets it counts. Every unit of a run cuts the same inputs into the
/// same segments, in the same order.
#[derive(Clone, Copy)]
pub struct Segment {
    pub ns: f64,
    pub pkts: u64,
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one unit of work: one simulation, one packet trace, or
/// one train of control-plane epochs, each built by its own set-up.
pub struct UnitOut {
    /// Wall time of the timed part.
    pub wall_ns: f64,
    /// Packets the workload's `pkts_per_s` counts.
    pub pkts: u64,
    /// Digest of verdicts and rewritten headers (must repeat exactly).
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, by name.
    pub failures: Vec<String>,
    /// Workload-specific end-to-end figures (report line only).
    pub extras: Vec<Metric>,
    /// Per-layer figures.
    pub layers: Vec<Metric>,
    /// Wall seconds the unit's set-up took (filled in by `drive`).
    pub setup_s: f64,
}

impl UnitOut {
    pub fn new(wall_ns: f64, pkts: u64, digest: u64) -> UnitOut {
        UnitOut {
            wall_ns,
            pkts,
            digest,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            extras: Vec::new(),
            layers: Vec::new(),
            setup_s: 0.0,
        }
    }

    /// Record a correctness check; `failures` operations failed if it did
    /// not hold.
    pub fn check(&mut self, ok: bool, what: &str, failures: u64) {
        if !ok {
            self.failed += failures.max(1);
            self.failures.push(what.to_string());
        }
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extras.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    /// Record how much of the timed wall time the layers' self times
    /// cover; outside `1 ± LAYERS_SUM_TOLERANCE` some time escaped the
    /// spans (or was counted twice).
    pub fn layers_sum(&mut self, self_ns: f64) {
        let ratio = self_ns / self.wall_ns;
        self.layer("layers_sum_ratio", ratio, "ratio");
        self.check(
            (ratio - 1.0).abs() <= LAYERS_SUM_TOLERANCE,
            "layer self times add up to the traced wall time",
            1,
        );
    }

    /// Median stage, VM and per-packet latencies from the enclaves'
    /// sampled histograms (present only while `trace_sample` is set).
    pub fn enclave_histograms(&mut self, snaps: &[StatsSnapshot]) {
        for (stat, name) in [
            ("stage.classify", "eden-core.stage.classify_ns_p50"),
            ("stage.match", "eden-core.stage.match_ns_p50"),
            ("stage.execute", "eden-core.stage.execute_ns_p50"),
            ("vm.exec", "eden-vm.exec_ns_p50"),
        ] {
            let mut merged = LogHistogram::new();
            for snap in snaps {
                for l in snap.latencies.iter().filter(|l| l.name == stat) {
                    merged.merge(&l.hist);
                }
            }
            self.layer(name, merged.p50().unwrap_or(0) as f64, "ns");
        }
    }
}

/// How far the layers' summed self times may stray from the traced wall
/// time.
pub const LAYERS_SUM_TOLERANCE: f64 = 0.05;

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.self_s", "s"),
    ("netsim.events", "count"),
    ("transport.self_s", "s"),
    ("transport.retransmits", "count"),
    ("eden-apps.self_s", "s"),
    ("eden-core.enclave.self_ns_per_pkt", "ns"),
    ("eden-core.calls_single", "count"),
    ("eden-core.calls_batch_serial", "count"),
    ("eden-core.calls_batch_parallel", "count"),
    ("eden-core.stage.classify_ns_p50", "ns"),
    ("eden-core.stage.match_ns_p50", "ns"),
    ("eden-core.stage.execute_ns_p50", "ns"),
    ("eden-vm.exec_ns_p50", "ns"),
    ("eden-vm.steps_per_pkt", "count"),
    ("netsim.wire.encode_ns_per_pkt", "ns"),
    ("eden-lang.compile_s", "s"),
    ("eden-ctrl.root.self_s", "s"),
    ("eden-ctrl.agg.self_s", "s"),
    ("eden-ctrl.agent.self_s", "s"),
    ("eden-ctrl.root_msgs_per_epoch", "count"),
    ("eden-ctrl.config_bytes_per_epoch", "bytes"),
    ("eden-ctrl.rtt_p50_us", "us"),
    ("layers_sum_ratio", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pkts_per_s", "1/s"),
    ("ns_per_pkt_p50", "ns"),
    ("ns_per_pkt_p99", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Fold a run's units into named medians.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub extras: Vec<Metric>,
    pub layers: BTreeMap<&'static str, f64>,
    pub units: usize,
    pub traced_units: usize,
}

fn medians(sets: &[&[Metric]]) -> Vec<Metric> {
    let mut by_name: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    for set in sets {
        for &(name, value, unit) in *set {
            match by_name.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, v)) => v.push(value),
                None => by_name.push((name, unit, vec![value])),
            }
        }
    }
    by_name
        .into_iter()
        .map(|(name, unit, v)| (name, median(&v), unit))
        .collect()
}

/// Each segment's least wall time over the untraced units of a run,
/// which repeat the same inputs.
///
/// The shared host runs any fixed loop up to ~1.8x slower while other
/// tenants contend, in spells of seconds to minutes, but a spell leaves
/// fast moments: across the repeats of a run, each batch, slice or epoch
/// (a millisecond or so) nearly always meets one. Its least time is the
/// uncontended cost, which only the program changes.
#[derive(Default)]
pub struct BestSegments {
    best: Vec<Segment>,
    units: usize,
    /// A unit cut its inputs differently from the first.
    mismatched: bool,
}

impl BestSegments {
    /// Fold in one unit's segments.
    pub fn fold(&mut self, segments: &[Segment]) {
        self.units += 1;
        if self.units == 1 {
            self.best = segments.to_vec();
            return;
        }
        if segments.len() != self.best.len() {
            self.mismatched = true;
            return;
        }
        for (b, s) in self.best.iter_mut().zip(segments) {
            if s.pkts != b.pkts {
                self.mismatched = true;
            }
            b.ns = b.ns.min(s.ns);
        }
    }
}

/// Summarise a run's units. End-to-end figures come from the untraced
/// units only (timings from their best segments), per-layer figures from
/// the traced ones.
pub fn summarise(run: &Run) -> Summary {
    let (plain, traced) = (run.plain.as_slice(), run.traced.as_slice());
    let all: Vec<&UnitOut> = plain.iter().chain(traced).collect();
    let mut failures: Vec<String> = all.iter().flat_map(|u| u.failures.clone()).collect();
    failures.sort();
    failures.dedup();
    let mut failed: u64 = all.iter().map(|u| u.failed).sum();
    let attempted: u64 = all.iter().map(|u| u.attempted.max(1)).sum();

    let digests: Vec<u64> = all.iter().map(|u| u.digest).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failed += 1;
        failures.push("verdict/header digest repeats across units and tracing".into());
    }

    if run.best.mismatched {
        failed += 1;
        failures.push("every unit cuts the same segments with the same packets".into());
    }
    let best = &run.best.best;
    let best_ns: f64 = best.iter().map(|s| s.ns).sum();
    let best_pkts: u64 = best.iter().map(|s| s.pkts).sum();
    let mut per_pkt: Vec<f64> = best
        .iter()
        .filter(|s| s.pkts > 0)
        .map(|s| s.ns / s.pkts as f64)
        .collect();
    per_pkt.sort_by(f64::total_cmp);
    let setup: Vec<f64> = all.iter().map(|u| u.setup_s).collect();
    let pkts_per_s = best_pkts as f64 / (best_ns / 1e9);
    let (p50, p99, setup_s) = (
        quantile(&per_pkt, 0.50),
        quantile(&per_pkt, 0.99),
        median(&setup),
    );
    // Put the timings on the reference's nominal speed: best segments by
    // the reference's best time, the median set-up by its median time.
    let reference_best = run.reference_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let reference_median = median(&run.reference_ns);
    let to_best = reference::NOMINAL_NS / reference_best;
    let to_median = reference::NOMINAL_NS / reference_median;
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("pkts_per_s", pkts_per_s / to_best);
    end_to_end.insert("ns_per_pkt_p50", p50 * to_best);
    end_to_end.insert("ns_per_pkt_p99", p99 * to_best);
    end_to_end.insert("setup_s", setup_s * to_median);
    end_to_end.insert("peak_rss_mb", run.peak_rss_mb);

    let extras_sets: Vec<&[Metric]> = plain.iter().map(|u| u.extras.as_slice()).collect();
    let mut extras = medians(&extras_sets);
    extras.extend([
        ("pkts_per_s_wall", pkts_per_s, "1/s"),
        ("ns_per_pkt_p50_wall", p50, "ns"),
        ("ns_per_pkt_p99_wall", p99, "ns"),
        ("setup_s_wall", setup_s, "s"),
        ("reference_best_ms", reference_best / 1e6, "ms"),
        ("reference_median_ms", reference_median / 1e6, "ms"),
    ]);

    let mut layers: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let layer_sets: Vec<&[Metric]> = traced.iter().map(|u| u.layers.as_slice()).collect();
    for (name, value, _) in medians(&layer_sets) {
        layers.insert(name, value);
    }
    if !traced.is_empty() && !plain.is_empty() {
        let ns_per_pkt = |units: &[UnitOut]| {
            units.iter().map(|u| u.wall_ns).sum::<f64>()
                / units.iter().map(|u| u.pkts).sum::<u64>().max(1) as f64
        };
        layers.insert(
            "trace_overhead",
            ns_per_pkt(traced) / ns_per_pkt(plain) - 1.0,
        );
    }
    Summary {
        attempted,
        failed,
        failures,
        end_to_end,
        extras,
        layers,
        units: plain.len(),
        traced_units: traced.len(),
    }
}
