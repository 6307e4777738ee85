//! The metrics the benchmark reports, and how the per-layer ones are
//! derived from traced iterations.

use crate::span::Tracer;
use crate::Iteration;

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// End-to-end metrics of an untraced run, with their units. Host times
/// are the lower quartile over iterations, divided by the lower quartile
/// of the run's reference-kernel times (unit `ref`; see
/// `host::reference_s`), which cancels part of the host's speed drift;
/// `setup_s` is scaled back to seconds at the nominal host speed.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MiB"),
    ("work_per_ref", "1/ref"),
];

/// Per-layer metrics of a traced run, with their units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.record_s", "s"),
    ("workloads.events", "count"),
    ("workloads.events_per_s", "1/s"),
    ("workloads.trace_mb", "MiB"),
    ("cache.recordings", "count"),
    ("cache.hits", "count"),
    ("cache.mb", "MiB"),
    ("cpu.base.replay_s", "s"),
    ("cpu.sp.replay_s", "s"),
    ("cpu.sims", "count"),
    ("cpu.uops", "count"),
    ("cpu.uops_per_s", "1/s"),
    ("cpu.sim_ms_p50", "ms"),
    ("cpu.sim_ms_p90", "ms"),
    ("cpu.cycles", "cycles"),
    ("cpu.fence_stall_cycles", "cycles"),
    ("cpu.fetch_stall_cycles", "cycles"),
    ("cpu.squashed_uops", "count"),
    ("core.sp_extra_s", "s"),
    ("core.ssb_inserts", "count"),
    ("core.ssb_lookups", "count"),
    ("core.ssb_full_rejections", "count"),
    ("core.bloom_queries", "count"),
    ("core.bloom_false_positives", "count"),
    ("core.epochs", "count"),
    ("core.rollbacks", "count"),
    ("core.checkpoint_exhaustions", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l2_hits", "count"),
    ("mem.l3_hits", "count"),
    ("mem.mem_accesses", "count"),
    ("mem.nvmm_writes", "count"),
    ("mem.wpq_stall_cycles", "cycles"),
    ("mem.pcommit_lat_avg", "cycles"),
    ("oracle.check_s", "s"),
    ("oracle.checks", "count"),
    ("oracle.check_us_p50", "us"),
    ("oracle.check_us_p99", "us"),
    ("oracle.crash_points", "count"),
    ("pmem.boundaries_s", "s"),
    ("optimize.analyze_s", "s"),
    ("optimize.lemma_s", "s"),
    ("optimize.elisions", "count"),
    ("stream.wait_s", "s"),
    ("stream.chunks", "count"),
    ("stream.events", "count"),
    ("stream.peak_mb", "MiB"),
    ("stream.spilled_chunks", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
    ("bench.traced_iterations", "count"),
];

/// Span names whose time is trace recording on the critical path.
const RECORD_SPANS: [&str; 3] = [
    "workloads.record",
    "workloads.record_bundle",
    "workloads.first_chunk",
];

/// The `q` quantile of `v` (linear interpolation; 0 for an empty set).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v` (0 for an empty set).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One traced iteration: its outcome, its spans and its wall time.
#[derive(Debug)]
pub struct Traced {
    /// What the iteration produced.
    pub it: Iteration,
    /// Its spans.
    pub tracer: Tracer,
    /// Its wall time in seconds.
    pub wall_s: f64,
}

/// Every [`PER_LAYER`] metric: times are medians over the traced
/// iterations, percentiles pool their spans, counts come from the first
/// (they are identical in every iteration of one seed).
pub fn per_layer(traced: &[Traced], untraced_wall_s: &[f64]) -> Vec<Metric> {
    let per_iter = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let spans_s = |names: &[&str]| per_iter(&|t| names.iter().map(|n| t.tracer.total_s(n)).sum());
    let pooled = |names: &[&str]| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| names.iter().flat_map(|n| t.tracer.durations_s(n)))
            .collect()
    };
    let count = |name: &str| {
        traced
            .first()
            .and_then(|t| t.it.counts.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let measured = |name: &str| per_iter(&|t| t.it.measured.get(name).copied().unwrap_or(0.0));
    let rate = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };

    let record_s = spans_s(&RECORD_SPANS);
    let base_s = spans_s(&["cpu.run.base"]);
    let sp_s = spans_s(&["cpu.run.sp"]);
    let sims = pooled(&["cpu.run.base", "cpu.run.sp"]);
    let checks = pooled(&["oracle.check_crash"]);
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(untraced_wall_s);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "workloads.record_s" => record_s,
                "workloads.events_per_s" => rate(count("workloads.timed_events"), record_s),
                "cpu.base.replay_s" => base_s,
                "cpu.sp.replay_s" => sp_s,
                "cpu.uops_per_s" => rate(count("cpu.uops"), base_s + sp_s),
                "cpu.sim_ms_p50" => quantile(&sims, 0.5) * 1e3,
                "cpu.sim_ms_p90" => quantile(&sims, 0.9) * 1e3,
                "core.sp_extra_s" | "stream.peak_mb" => measured(name),
                "oracle.check_s" => spans_s(&["oracle.check_crash"]),
                "oracle.check_us_p50" => quantile(&checks, 0.5) * 1e6,
                "oracle.check_us_p99" => quantile(&checks, 0.99) * 1e6,
                "pmem.boundaries_s" => spans_s(&["pmem.persist_boundaries"]),
                "optimize.analyze_s" => spans_s(&["optimize.analyze"]),
                "optimize.lemma_s" => spans_s(&["optimize.lemma"]),
                "stream.wait_s" => spans_s(&["stream.wait"]),
                "bench.trace_overhead_pct" => (rate(traced_wall, untraced_wall) - 1.0) * 100.0,
                "bench.spans" => per_iter(&|t| t.tracer.spans().len() as f64),
                "bench.traced_iterations" => traced.len() as f64,
                _ => count(name),
            };
            Metric { name, unit, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 5.0], 1.0), 5.0);
    }
}
