//! `crash-sweep`: the persist frontier, through the crash oracle and the
//! optimizer.
//!
//! Set-up records one `Log+P+Sf` crash bundle per benchmark and flush
//! instruction; it is timed in every iteration and, a few times over, by
//! a probe before each. Then, per bundle: its persist boundaries, the crash
//! points `repro crashfuzz` checks, every point under two reorder seeds
//! through `CrashBundle::check_crash`, and the optimizer's `analyze`
//! with its safety lemma. No pipeline runs, so this workload isolates
//! the crash-image and frontier code from the simulator core. The same
//! code runs traced and untraced; a disabled tracer reads no clock.

use std::hint::black_box;
use std::time::Instant;

use spp_bench::crashfuzz::{crash_points, SEEDS_PER_POINT};
use spp_bench::optimize::{analyze, plan_preserves_guarantees};
use spp_pmem::{persist_boundaries, FlushMode, Variant};
use spp_workloads::oracle::{record_bundle, BundleSpec};
use spp_workloads::BenchId;

use crate::{Digest, Iteration, Size, Tracer, MIB};

/// `(init_ops, sim_ops)` of every bundle. Larger than `repro crashfuzz`
/// makes them at its default scale, so the per-check crash-image
/// rebuild dominates.
fn sizing(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (240, 12),
        Size::Tiny => (8, 2),
    }
}

/// Recordings of the bundle set timed in one set-up probe; the probe
/// reports their median.
const SETUP_SAMPLES: usize = 5;

/// The spec of every bundle, benchmark by benchmark.
fn specs(seed: u64, size: Size) -> impl Iterator<Item = BundleSpec> {
    let (init_ops, sim_ops) = sizing(size);
    BenchId::ALL.into_iter().flat_map(move |id| {
        FlushMode::ALL
            .into_iter()
            .map(move |flush_mode| BundleSpec {
                id,
                variant: Variant::LogPSf,
                flush_mode,
                init_ops,
                sim_ops,
                seed,
            })
    })
}

/// Seconds to record the whole bundle set (median of a few recordings;
/// a single one takes about 10 ms, too short to read steadily).
pub(crate) fn setup_probe(seed: u64, size: Size) -> f64 {
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for spec in specs(seed, size) {
                black_box(record_bundle(&spec));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SETUP_SAMPLES / 2]
}

pub(crate) fn run(seed: u64, size: Size, tr: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let mut bundles = Vec::new();
    for spec in specs(seed, size) {
        let cell = tr.new_cell();
        let t = tr.start();
        let bundle = record_bundle(&spec);
        tr.leaf("workloads.record_bundle", cell, t);
        it.count("workloads.events", bundle.events().len() as f64);
        it.count("workloads.timed_events", bundle.events().len() as f64);
        it.count(
            "workloads.trace_mb",
            std::mem::size_of_val(bundle.events()) as f64 / MIB,
        );
        bundles.push((cell, bundle));
    }
    it.setup_s = Some(setup.elapsed().as_secs_f64());

    let mut d = Digest::new();
    for (cell, b) in &bundles {
        let cell = *cell;
        let spec = *b.spec();
        let events = b.events();
        tr.enter("bench.bundle", cell);
        d.debug(&spec);
        d.u64(events.len() as u64);

        let t = tr.start();
        let boundaries = persist_boundaries(events);
        tr.leaf("pmem.persist_boundaries", cell, t);
        let t = tr.start();
        let points = crash_points(events);
        tr.leaf("bench.crash_points", cell, t);
        it.check(
            boundaries.iter().all(|p| points.binary_search(p).is_ok()),
            || format!("{spec:?}: a persist boundary is not a crash point"),
        );
        d.debug(&points);
        it.count("oracle.crash_points", points.len() as f64);

        for &p in &points {
            for s in 0..SEEDS_PER_POINT {
                let t = tr.start();
                let verdict = b.check_crash(p, s);
                tr.leaf("oracle.check_crash", cell, t);
                d.debug(&verdict);
                it.check(verdict.is_ok(), || {
                    format!("{spec:?}: crash at {p} seed {s} did not recover: {verdict:?}")
                });
            }
        }
        it.work += points.len() as u64 * SEEDS_PER_POINT;

        let t = tr.start();
        let plan = analyze(events);
        tr.leaf("optimize.analyze", cell, t);
        let t = tr.start();
        let safe = plan_preserves_guarantees(events, &plan);
        tr.leaf("optimize.lemma", cell, t);
        d.debug(&plan);
        it.check(safe, || {
            format!("{spec:?}: the elision plan breaks a persist guarantee")
        });
        it.count("optimize.elisions", plan.elisions.len() as f64);
        tr.exit();
    }
    it.count("oracle.checks", it.work as f64);
    it.digest = d.finish();
    it
}
