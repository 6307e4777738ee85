//! `paper-suite`: what users of `repro all` wait for.
//!
//! Untraced, the iteration calls `Harness::run_suite` and
//! `Harness::ssb_table` on a cold one-worker harness. Layer by layer
//! (traced, or a run's checking pass), it makes the same simulations in
//! the same order — the five suite cells of
//! each benchmark, then every benchmark's `Base` replay and its six SSB
//! design points — pulling each trace through `Harness::trace` and
//! replaying it with `Simulator::run`, so recording stays interleaved
//! with replay and every call is timed at the layer boundary.

use std::hint::black_box;

use spp_bench::{geomean_overhead, BenchRun, Experiment, Harness, TraceKey, VariantRun};
use spp_core::SSB_DESIGN_POINTS;
use spp_cpu::{CpuConfig, SimResult, Simulator, SpConfig};
use spp_pmem::{TraceCounts, Variant};
use spp_workloads::{BenchId, BenchSpec};

use crate::{Digest, Iteration, SimTotals, Size, Tracer, MIB};

/// Harness constructions timed together in one set-up sample.
const SETUP_BATCH: u32 = 10_000;
/// Set-up samples per probe; the probe reports their median.
const SETUP_SAMPLES: usize = 9;

/// Table 1 scale divisor.
fn scale(size: Size) -> u64 {
    match size {
        Size::Full => 500,
        Size::Tiny => 20_000,
    }
}

/// The suite cells of one benchmark, in `BenchRun` field order (the
/// order `Harness::run_benches` simulates them in).
const SUITE_SIMS: [(Variant, bool); 5] = [
    (Variant::Base, false),
    (Variant::Log, false),
    (Variant::LogP, false),
    (Variant::LogPSf, false),
    (Variant::LogPSf, true),
];

/// Seconds to construct one cold harness (median of batched samples).
pub(crate) fn setup_probe(seed: u64, size: Size) -> f64 {
    let exp = Experiment {
        scale: scale(size),
        seed,
    };
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..SETUP_BATCH {
                black_box(Harness::new(black_box(exp), 1));
            }
            t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SETUP_SAMPLES / 2]
}

pub(crate) fn run(seed: u64, size: Size, tr: &mut Tracer) -> Iteration {
    let exp = Experiment {
        scale: scale(size),
        seed,
    };
    let h = Harness::new(exp, 1);
    let mut it = Iteration::default();
    let (runs, ssb) = if tr.layered() {
        traced(&h, tr, &mut it)
    } else {
        (h.run_suite(), h.ssb_table(&BenchId::ALL))
    };

    let mut d = Digest::new();
    for r in &runs {
        for v in [&r.base, &r.log, &r.logp, &r.logpsf] {
            d.debug(&v.counts);
            d.debug(&v.sim);
            it.check(v.sim.cpu.committed_uops == v.counts.total(), || {
                format!(
                    "{}: replay committed {} uops of a {}-uop trace",
                    r.id.abbrev(),
                    v.sim.cpu.committed_uops,
                    v.counts.total()
                )
            });
        }
        d.debug(&r.sp256);
        it.check(
            committed_classes(&r.sp256) == committed_classes(&r.logpsf.sim),
            || {
                format!(
                    "{}: SP256 and baseline commit different uops",
                    r.id.abbrev()
                )
            },
        );
    }
    for (_, points) in &ssb {
        for &(entries, overhead) in points {
            d.u64(entries as u64);
            d.u64(overhead.to_bits());
        }
    }
    it.digest = d.finish();

    // Every suite replay, plus per benchmark the `Base` replay and six
    // `Log+P+Sf` replays of the SSB sweep; the layer-by-layer iteration
    // checks that each of those commits exactly its trace's uops.
    it.work = runs
        .iter()
        .map(|r| {
            [&r.base, &r.log, &r.logp, &r.logpsf]
                .iter()
                .map(|v| v.counts.total())
                .sum::<u64>()
                + r.sp256.cpu.committed_uops
                + r.base.counts.total()
                + SSB_DESIGN_POINTS.len() as u64 * r.logpsf.counts.total()
        })
        .sum();
    match it.counts.get("cpu.uops") {
        Some(&uops) => {
            let work = it.work;
            it.check(uops as u64 == work, || {
                format!("replays committed {uops} uops, the traces hold {work}")
            });
        }
        None => it.count("cpu.uops", it.work as f64),
    }
    let residual = geomean_overhead(
        runs.iter()
            .map(|r| r.sp256.cpu.cycles as f64 / r.logp.sim.cpu.cycles as f64 - 1.0),
    ) * 100.0;
    it.simulated.insert("sp_residual_pct", residual);

    let cs = h.cache_stats();
    it.count("cache.recordings", cs.recordings as f64);
    it.count("cache.hits", cs.hits as f64);
    it.count("cache.mb", cs.bytes as f64 / MIB);
    it.count("workloads.trace_mb", cs.bytes as f64 / MIB);
    it
}

/// One simulation cell: the trace through the cache (recorded on first
/// request), then one replay. Returns the trace's counts, the result and
/// the replay's seconds.
fn cell(
    h: &Harness,
    tr: &mut Tracer,
    it: &mut Iteration,
    totals: &mut SimTotals,
    key: TraceKey,
    cpu: CpuConfig,
) -> (TraceCounts, SimResult, f64) {
    let cell = tr.new_cell();
    tr.enter("bench.cell", cell);
    let recorded_before = h.cache_stats().recordings;
    let t = tr.start();
    let trace = h.trace(key);
    let recorded = h.cache_stats().recordings > recorded_before;
    tr.leaf(
        if recorded {
            "workloads.record"
        } else {
            "cache.hit"
        },
        cell,
        t,
    );
    if recorded {
        it.count("workloads.events", trace.events.len() as f64);
        it.count("workloads.timed_events", trace.events.len() as f64);
    }
    let t = tr.start();
    let result = Simulator::new(&trace.events).config(cpu).run();
    let replay_s = tr.leaf(
        if cpu.sp.is_some() {
            "cpu.run.sp"
        } else {
            "cpu.run.base"
        },
        cell,
        t,
    );
    tr.exit();
    let sim = match result {
        Ok(sim) => sim,
        Err(e) => {
            it.check(false, || format!("{key:?}: simulation failed: {e}"));
            SimResult::default()
        }
    };
    totals.add(&sim);
    (trace.counts, sim, replay_s)
}

/// Fig. 13 rows as `Harness::ssb_table` returns them: per benchmark,
/// `(SSB entries, overhead vs Base)` for each design point.
type SsbTable = Vec<(BenchId, Vec<(usize, f64)>)>;

/// Committed micro-ops by class, for the SP-versus-baseline checks.
fn committed_classes(r: &SimResult) -> [u64; 6] {
    [
        r.cpu.committed_uops,
        r.cpu.loads,
        r.cpu.stores,
        r.cpu.flushes,
        r.cpu.pcommits,
        r.cpu.fences,
    ]
}

/// The traced equivalent of `run_suite` followed by `ssb_table`.
fn traced(h: &Harness, tr: &mut Tracer, it: &mut Iteration) -> (Vec<BenchRun>, SsbTable) {
    let mut totals = SimTotals::default();
    let mut base_sp = [0.0f64; 2];
    let mut runs = Vec::new();
    for id in BenchId::ALL {
        let mut r: Vec<(TraceCounts, SimResult)> = Vec::new();
        for (variant, sp) in SUITE_SIMS {
            let cpu = if sp {
                CpuConfig::with_sp()
            } else {
                CpuConfig::baseline()
            };
            let key = TraceKey::new(id, variant, &h.exp);
            let (counts, sim, replay_s) = cell(h, tr, it, &mut totals, key, cpu);
            if variant == Variant::LogPSf {
                base_sp[usize::from(sp)] += replay_s;
            }
            r.push((counts, sim));
        }
        let run = |i: usize| VariantRun {
            counts: r[i].0,
            sim: r[i].1,
        };
        runs.push(BenchRun {
            id,
            spec: BenchSpec::scaled(id, h.exp.scale),
            base: run(0),
            log: run(1),
            logp: run(2),
            logpsf: run(3),
            sp256: r[4].1,
        });
    }
    let bases: Vec<u64> = BenchId::ALL
        .iter()
        .map(|&id| {
            let key = TraceKey::new(id, Variant::Base, &h.exp);
            let (counts, sim, _) = cell(h, tr, it, &mut totals, key, CpuConfig::baseline());
            it.check(sim.cpu.committed_uops == counts.total(), || {
                format!(
                    "{}: Base replay committed {} uops of a {}-uop trace",
                    id.abbrev(),
                    sim.cpu.committed_uops,
                    counts.total()
                )
            });
            sim.cpu.cycles
        })
        .collect();
    let mut ssb = Vec::new();
    for (bi, id) in BenchId::ALL.into_iter().enumerate() {
        let logpsf = runs[bi].logpsf.sim;
        let points = SSB_DESIGN_POINTS
            .iter()
            .map(|&(entries, _)| {
                let cpu = CpuConfig {
                    sp: Some(SpConfig::with_ssb_entries(entries)),
                    ..CpuConfig::baseline()
                };
                let key = TraceKey::new(id, Variant::LogPSf, &h.exp);
                let sim = cell(h, tr, it, &mut totals, key, cpu).1;
                it.check(
                    committed_classes(&sim) == committed_classes(&logpsf),
                    || {
                        format!(
                            "{}: SSB-{entries} and baseline commit different uops",
                            id.abbrev()
                        )
                    },
                );
                (entries, sim.cpu.cycles as f64 / bases[bi] as f64 - 1.0)
            })
            .collect();
        ssb.push((id, points));
    }
    totals.report(it);
    it.measured
        .insert("core.sp_extra_s", base_sp[1] - base_sp[0]);
    (runs, ssb)
}
